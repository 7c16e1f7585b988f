"""Vector/attribute storage, distance kernels, file IO and synthetic data.

A :class:`Corpus` is an immutable pair of a row-major float32 vector matrix
and a float64 scalar attribute column. Filters are materialized as dense
boolean masks over row ids (:class:`FilterMask`).

All search code in this package orders candidates by a single scalar key,
:func:`ordering_keys`, where *smaller means closer*: the L2 metric uses the
Euclidean distance itself, inner product and cosine use the negated
similarity.

Every full pass over the corpus rows (the exact scan, the squared row norms,
the finiteness and unit-norm checks of a new corpus, the whole IVFFlat build)
converts one :func:`row_blocks` block at a time, so its float64 temporaries
stay a few megabytes whatever the corpus size. Only HNSW keeps a float64 copy
of the vectors (``Corpus.vectors64``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NoReturn, Optional

import numpy as np

_CORPUS_MAGIC = b"FVC1"
_NORM_ATOL = 1e-5
_ZERO_VECTOR = "cosine similarity undefined for zero vectors"

# rows per block of every full pass over the corpus (see row_blocks)
ROW_BLOCK = 4096

# generate_synthetic's cluster count and the Gaussian spread of rows about a centre
_N_GROUPS = 16
_GROUP_SPREAD = 0.25


class CorpusFormatError(ValueError):
    """Raised when a corpus file is malformed."""


class Metric(Enum):
    L2 = 0
    INNER_PRODUCT = 1
    COSINE = 2


# bound once: an Enum member lookup is a large share of a small key call
# (see ordering_keys)
_L2, _INNER_PRODUCT, _COSINE = Metric.L2, Metric.INNER_PRODUCT, Metric.COSINE
_F64 = np.dtype(np.float64)
_NDARRAY = np.ndarray


class BinaryReader:
    """Bounds-checked little-endian cursor over the bytes of one file.

    A wrong magic, a read past the end, an unknown metric byte and bytes left
    over at :meth:`end` all raise ``error``, the caller's own format error.
    """

    def __init__(self, path: str | Path, magic: bytes, error: type[ValueError]):
        self.path = Path(path)
        self.data = self.path.read_bytes()
        self.error = error
        if self.data[: len(magic)] != magic:
            self.fail(f"bad magic {self.data[:len(magic)]!r}")
        self.offset = len(magic)

    def fail(self, reason: str) -> NoReturn:
        raise self.error(f"{self.path}: {reason}")

    def _advance(self, size: int) -> int:
        start = self.offset
        if start + size > len(self.data):
            self.fail(f"truncated: {start + size} bytes needed, {len(self.data)} present")
        self.offset += size
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        offset = self._advance(dtype.itemsize * count)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=offset)

    def metric(self, kind: int) -> Metric:
        if kind not in {m.value for m in Metric}:
            self.fail(f"unknown metric kind {kind}")
        return Metric(kind)

    def end(self) -> None:
        if self.offset != len(self.data):
            self.fail(f"{len(self.data) - self.offset} trailing bytes")


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of ``ROW_BLOCK`` rows covering rows 0..n-1.

    A single row left over at the end joins the block before it. numpy
    computes a one-row matrix product with a dot kernel, whose rounding
    differs from the matrix kernels', so a one-row block would move that
    row's key by an ulp against one product over all the rows.
    """
    if 0 < n <= ROW_BLOCK:
        return [slice(0, n)]
    starts = list(range(0, n, ROW_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


@dataclass(frozen=True)
class Corpus:
    """Immutable store of N d-dimensional vectors plus one scalar attribute.

    Row ids are implicit 0..N-1. Vectors are float32, the attribute column
    float64 (quantile computations on the attribute should not suffer from
    float32 granularity). A vector entry that is NaN or inf raises
    ``ValueError``: no key to such a row orders anything. So does a NaN
    attribute, which no threshold orders; an infinite attribute orders, and
    is kept.

    Three derived arrays are built on first use and kept: ``sq_row_norms`` (n
    float64 squared norms, read by the IVFFlat build and the L2 exact scan's
    float32 bound), ``cosine_row_norms`` (their square roots, read by
    :meth:`cosine_divisors`; a normalized cosine corpus builds them at once to
    check its unit norms) and ``vectors64`` (a float64 copy of the vectors,
    used only by HNSW).
    """

    vectors: np.ndarray
    attribute: np.ndarray
    metric: Metric = Metric.L2
    normalized: bool = False

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        attribute = np.ascontiguousarray(self.attribute, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
            raise ValueError("vectors must be a non-empty N x d matrix")
        if attribute.shape != (vectors.shape[0],):
            raise ValueError("attribute column length must equal the number of rows")
        if np.isnan(attribute).any():
            raise ValueError("attribute must not be NaN: a NaN value orders nothing")
        for block in row_blocks(vectors.shape[0]):
            if not np.isfinite(vectors[block]).all():
                raise ValueError("vectors must be finite: a row holds NaN or inf")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "attribute", attribute)
        if self.metric is Metric.COSINE and self.normalized:
            if not np.allclose(self.cosine_row_norms, 1.0, atol=_NORM_ATOL):
                raise ValueError("normalized cosine corpus has rows with non-unit L2 norm")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def vectors64(self) -> np.ndarray:
        """Float64 copy of ``vectors``, built on first use and kept; HNSW
        gathers its rows from it."""
        return self.vectors.astype(np.float64)

    @cached_property
    def cosine_row_norms(self) -> np.ndarray:
        """Float64 L2 norm of every row, built on first use and kept.

        The square roots of ``sq_row_norms``: ``np.linalg.norm(rows, axis=1)``
        takes the same row sums, so the norms are the same floats without a
        second pass over the rows. Raises the cosine zero-vector
        ``ValueError`` when any row has norm 0: no cosine key to such a row
        exists.
        """
        norms = np.sqrt(self.sq_row_norms)
        if not norms.all():
            raise ValueError(_ZERO_VECTOR)
        return norms

    @cached_property
    def sq_row_norms(self) -> np.ndarray:
        """Float64 squared L2 norm of every row, built on first use and kept.

        Each ``row_blocks`` block of float32 rows is converted, squared in
        place and summed along the row, so every value is the same float
        whatever block its row falls in.
        """
        sq_norms = np.empty(self.n)
        for block in row_blocks(self.n):
            rows = self.vectors[block].astype(np.float64)
            np.square(rows, out=rows)
            sq_norms[block] = np.sum(rows, axis=1)
        return sq_norms

    def cosine_divisors(self, query: np.ndarray, ids=slice(None)) -> Optional[np.ndarray]:
        """Divisors −|query|·|row| of the cosine keys from ``query`` to the rows
        ``ids`` (a slice, list or array), or None under the other metrics.

        The negated float64 query norm times the rows' ``cosine_row_norms``,
        as :func:`ordering_keys` forms them, so keys stay bit-identical; the
        sign is folded in here so that a cosine key is one GEMV and one
        divide. A zero query, or a zero row anywhere in the corpus, raises
        ``ValueError``. The query norm is ``np.linalg.norm``'s vector path
        (``ravel(order="K")``, ``dot``, a square root) without its dispatch.
        """
        if self.metric is not _COSINE:
            return None
        query = np.asarray(query, dtype=np.float64).ravel(order="K")
        query_norm = math.sqrt(query.dot(query))
        if query_norm == 0.0:
            raise ValueError(_ZERO_VECTOR)
        row_norms = self.cosine_row_norms
        # take() gathers a list of ids faster than indexing with it
        return -query_norm * (row_norms[ids] if isinstance(ids, slice) else row_norms.take(ids))


@dataclass(frozen=True)
class FilterMask:
    """Dense bitset over row ids with a cached popcount.

    Empty masks are legal values but are flagged so that correlation
    analysis can exclude them. Bits that are not one-dimensional raise
    ``ValueError``: a (300, 2) array would pass as 300 rows whose popcount
    is twice too large.
    """

    bits: np.ndarray
    valid_count: int = field(init=False)

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 1:
            raise ValueError(f"mask bits must be one-dimensional, not shape {bits.shape}")
        bits = np.ascontiguousarray(bits)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "valid_count", int(bits.sum()))

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @property
    def global_selectivity(self) -> float:
        return self.valid_count / self.n

    @property
    def is_empty(self) -> bool:
        return self.valid_count == 0

    def valid_ids(self) -> np.ndarray:
        return np.flatnonzero(self.bits)


def ordering_keys(
    query: np.ndarray,
    rows: np.ndarray,
    metric: Metric,
    divisors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized smaller-is-closer ordering keys from `query` to each row.

    For L2 the key is the Euclidean distance; for inner product and cosine it
    is the negated similarity, computed in float64. An L2 key depends only on
    its (query, row) pair, so it is identical whatever rows share the call;
    float32 rows are converted once and the query subtracted in place, since
    a mixed-dtype subtract runs a buffered cast with a d-long inner loop.
    Inner-product and cosine keys go through a BLAS matrix-vector product
    (``rows.dot(query)``), whose rounding can move a key by an ulp when the
    rows around it change; compare them across calls with a tolerance.

    A cosine key is ``rows.dot(query) / divisors``, with ``divisors`` the
    negated products −|query|·|row| (:meth:`Corpus.cosine_divisors`, or
    formed here from the rows when None); since a/(−b) = −(a/b) exactly in
    IEEE arithmetic, the keys equal ``-(rows @ query) / (|query|·|row|)`` bit
    for bit.

    HNSW makes one call per expanded node, so the arguments are checked by
    identity (``type(x) is _NDARRAY``, ``x.dtype is _F64``) and the metric
    against module-level members; only an argument that fails a check goes
    through ``np.asarray``. A query that is not one-dimensional raises
    ``ValueError`` naming its shape: a (1, d) query would broadcast against
    one-column rows.
    """
    if type(query) is not _NDARRAY or query.dtype is not _F64:
        query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1:
        raise ValueError(f"query must be one-dimensional, got shape {query.shape}")
    if type(rows) is not _NDARRAY:
        rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != query.shape[0]:
        raise ValueError(f"dimension mismatch: {query.shape[0]} vs {rows.shape[1]}")
    if metric is _L2:
        if rows.dtype is _F64:
            diff = rows - query
        else:
            diff = rows.astype(np.float64)
            diff -= query
        keys = np.einsum("ij,ij->i", diff, diff)
        return np.sqrt(keys, out=keys)
    if rows.dtype is not _F64:
        rows = np.asarray(rows, dtype=np.float64)
    if metric is _INNER_PRODUCT:
        return -rows.dot(query)
    if metric is _COSINE:
        if divisors is None:
            qnorm = np.linalg.norm(query)
            rnorms = np.linalg.norm(rows, axis=1)
            if qnorm == 0.0 or np.any(rnorms == 0.0):
                raise ValueError(_ZERO_VECTOR)
            divisors = -qnorm * rnorms
        return rows.dot(query) / divisors
    raise ValueError(f"unknown metric {metric!r}")


def require_finite(query: np.ndarray) -> None:
    """Raise ValueError unless every entry of ``query`` is finite: a NaN
    query has NaN keys, which order nothing."""
    if not np.isfinite(query).all():
        raise ValueError("query must be finite: it holds NaN or inf")


def require_built_from(index, corpus: Corpus) -> None:
    """Raise ValueError unless ``index`` (an HNSW or IVFFlat index) was built
    over a corpus with this corpus's row count and metric."""
    if index.n != corpus.n or index.metric is not corpus.metric:
        raise ValueError(
            f"index was built over {index.n} {index.metric.name} rows; "
            f"the corpus has {corpus.n} {corpus.metric.name} rows"
        )


def require_mask_for(corpus: Corpus, mask: Optional[FilterMask]) -> None:
    """Raise ValueError unless ``mask`` is None or holds one bit per corpus
    row: a mask sized for another corpus would filter the wrong rows."""
    if mask is not None and mask.n != corpus.n:
        raise ValueError(f"mask has {mask.n} bits; the corpus has {corpus.n} rows")


def build_mask(corpus: Corpus, threshold: float) -> FilterMask:
    """Mask of rows whose attribute is >= threshold."""
    return FilterMask(corpus.attribute >= threshold)


def threshold_for_selectivity(corpus: Corpus, target_sigma: float) -> float:
    """Threshold whose >=-mask has global selectivity closest to the target.

    Candidate thresholds are the distinct attribute values; ties at the
    quantile boundary all pass, so the realized selectivity may overshoot.
    Among equally good candidates the lower threshold wins.
    """
    if not 0.0 < target_sigma <= 1.0:
        raise ValueError("target_sigma must be in (0, 1]")
    values, counts = np.unique(corpus.attribute, return_counts=True)
    # selectivity of ">= values[i]" is the suffix popcount starting at i
    suffix = np.cumsum(counts[::-1])[::-1]
    sigmas = suffix / corpus.n
    best = int(np.argmin(np.abs(sigmas - target_sigma)))
    return float(values[best])


def generate_synthetic(
    n: int,
    d: int,
    seed: int,
    attr_mode: str = "independent",
    strength: float = 1.0,
) -> Corpus:
    """Deterministic synthetic corpus of unit-norm vectors plus an attribute.

    ``independent`` draws the attribute uniform[0,1) independent of the
    vectors. ``cluster_correlated`` assigns vectors to ``_N_GROUPS`` Gaussian
    clusters on the sphere and blends a per-cluster quantile into the
    attribute, giving tunable filter-vector correlation: ``strength=0``
    degenerates to independent, ``strength=1`` makes the attribute a pure
    function of cluster membership (plus within-cluster jitter).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    rng = np.random.default_rng(seed)
    if attr_mode == "independent":
        vectors = rng.standard_normal((n, d))
        attribute = rng.uniform(0.0, 1.0, size=n)
    elif attr_mode == "cluster_correlated":
        centers = rng.standard_normal((_N_GROUPS, d))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        assignment = rng.integers(0, _N_GROUPS, size=n)
        vectors = centers[assignment] + _GROUP_SPREAD * rng.standard_normal((n, d))
        within = rng.uniform(0.0, 1.0, size=n)
        noise = rng.uniform(0.0, 1.0, size=n)
        cluster_quantile = (assignment + within) / _N_GROUPS
        attribute = strength * cluster_quantile + (1.0 - strength) * noise
    else:
        raise ValueError(f"unknown attr_mode {attr_mode!r}")
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return Corpus(
        vectors=vectors.astype(np.float32),
        attribute=attribute,
        metric=Metric.COSINE,
        normalized=True,
    )


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the binary corpus format (magic FVC1, little-endian)."""
    path = Path(path)
    header = _CORPUS_MAGIC + struct.pack(
        "<IIBBxx", corpus.n, corpus.dim, corpus.metric.value, int(corpus.normalized)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(corpus.vectors, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(corpus.attribute, dtype="<f8").tobytes())


def load_corpus(path: str | Path) -> Corpus:
    reader = BinaryReader(path, _CORPUS_MAGIC, CorpusFormatError)
    n, d, metric_kind, normalized = reader.unpack("<IIBBxx")
    if n < 1 or d < 1 or n * d > 2**31:
        reader.fail(f"implausible dimensions N={n} d={d}")
    metric = reader.metric(metric_kind)
    vectors = reader.array("<f4", n * d).reshape(n, d)
    attribute = reader.array("<f8", n)
    reader.end()
    try:
        return Corpus(
            vectors=vectors.copy(),
            attribute=attribute.copy(),
            metric=metric,
            normalized=bool(normalized),
        )
    except ValueError as exc:
        reader.fail(str(exc))
