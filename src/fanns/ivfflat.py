"""Inverted-file index with flat (uncompressed) storage.

Rows are partitioned by k-means in float64 arithmetic, deterministic given
the seed: k-means++ seeding, then ``_MAX_ITERS`` = 25 Lloyd passes with no
convergence stop, the default of FAISS ``Clustering``, through which
Milvus's IVF_FLAT trains. A fixed pass count makes the lists independent of
the data's units: rescaling the rows by a power of two, short of underflow
or overflow, scales the centroids exactly and leaves the lists as they are.
Every pass over the rows runs over ``row_blocks``, converting one block of
float32 rows at a time, so the build makes no float64 copy of the corpus;
its (block × C) distance products and keys share one scratch matrix.

Each row's nearest centroid, in every Lloyd pass (under L2) and in the
final assignment (under the corpus metric), follows one rule: the centroid
of smallest ``ordering_keys`` key, the first on ties (:func:`_assign_rows`).
Seeding and every L2 assignment compute exact float64 distances only where
the cut of :func:`fanns.oracle.l2_slack` cannot rule them out, so centroids
and lists are bit-identical to computing every distance. Seeding takes its
scores from :func:`fanns.oracle.l2_scores`; an L2 assignment scores each row
against every centroid with one float32 matrix product per block, and keys
only the rows whose cut keeps more than one centroid. Each row also carries
two bounds from one Lloyd pass to the next (:class:`_RowBounds`), above on
its distance to its own centroid and below on its distance to every other,
widened by how far the centroids moved; a row whose bounds prove that it
keeps its centroid is not scored again, so a pass scores only the rows whose
centroid can change.

Search ranks all centroids by distance and runs the oracle's exact scan over
the rows of the ``n_probe`` nearest inverted lists. The centroid keys come
from the float64 copy of the centroids that the index converts on its first
search and keeps (``IvfIndex.centroids64``, never written to the file): the
same keys, bit for bit, as converting the float32 centroids on every search,
without the C × d conversion per query. Given a mask, the bitset
is tested before any row distance, so invalid rows in the probed lists cost
no distance evaluations; every row of a probed list counts as one predicate
invocation.

Centroid distances are tracked separately from row distance evaluations in
the telemetry. Centroid ranking never consults the mask: centroids are
synthetic points without attributes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from fanns.corpus import (
    ROW_BLOCK,
    BinaryReader,
    Corpus,
    FilterMask,
    Metric,
    ordering_keys,
    require_built_from,
    require_finite,
    require_mask_for,
    row_blocks,
)
from fanns.oracle import _U64, _gamma, exact_scan, l2_scores, l2_slack
from fanns.telemetry import SearchResult

_IVF_MAGIC = b"FIV1"

# Lloyd passes per build, FAISS Clustering's niter: no convergence stop
_MAX_ITERS = 25
# rows per float32 product widened into the scratch: numpy widens a product
# through a float32 copy of it, kept small this way
_PRODUCT_ROWS = ROW_BLOCK // 8


class IvfFormatError(ValueError):
    """Raised when an IVFFlat index file is malformed."""


@dataclass
class IvfIndex:
    """C float32 centroids and, for each, the ascending ids of its rows.

    Two values derived from them are built on first use and kept, not
    written to FIV1: ``n``, the row count, and ``centroids64``, the float64
    copy of the centroids that every search keys (C·d·8 bytes). Neither is
    rebuilt if ``centroids`` or ``lists`` is changed in place.
    """

    n_clusters: int
    seed: int
    metric: Metric
    centroids: np.ndarray  # (C, d) float32
    lists: list[np.ndarray]  # per-centroid sorted row-id arrays

    @cached_property
    def n(self) -> int:
        return sum(len(lst) for lst in self.lists)

    @cached_property
    def centroids64(self) -> np.ndarray:
        """The centroids converted to float64 once: their keys are those of
        the float32 centroids bit for bit."""
        return self.centroids.astype(np.float64)


def _sq_dists(rows: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared L2 distance of each row from ``point`` in float64: the rows
    are converted once and ``point`` subtracted in place, as L2 keys do."""
    diff = rows.astype(np.float64)
    diff -= point
    np.square(diff, out=diff)
    return np.sum(diff, axis=1)


def _fold_closest_sq(corpus: Corpus, point: np.ndarray, closest_sq: np.ndarray) -> None:
    """Lower each entry of ``closest_sq`` to its row's ``_sq_dists`` D from
    ``point`` where that is smaller, computing D, over rows gathered one
    ``row_blocks`` block at a time, only where the row's lower bound is below
    its ``closest_sq`` (everywhere when there is no bound).

    The bound is the one-sided half of the ``l2_slack`` cut, with the
    constant ‖c‖² = c·c added to the :func:`fanns.oracle.l2_scores` score r
    as fl(r + fl(‖c‖² − slack)). A row whose bound reaches its
    ``closest_sq`` keeps that entry under ``np.minimum``, so ``closest_sq``
    ends bit-identical to folding every row.
    """
    scored = l2_scores(corpus, point)
    if scored is None:
        near = np.arange(corpus.n)
    else:
        lower, slack = scored
        lower += point.dot(point) - slack
        near = np.flatnonzero(lower < closest_sq)
    for block in row_blocks(len(near)):
        ids = near[block]
        rows = corpus.vectors.take(ids, axis=0)
        closest_sq[ids] = np.minimum(closest_sq[ids], _sq_dists(rows, point))


def _kmeans_pp_seed(corpus: Corpus, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    n = corpus.n
    centroids = np.empty((n_clusters, corpus.dim))
    first = int(rng.integers(n))
    centroids[0] = corpus.vectors[first]
    closest_sq = np.full(n, np.inf)
    _fold_closest_sq(corpus, centroids[0], closest_sq)
    for i in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0.0:
            # all remaining mass collapsed onto existing centroids
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest_sq / total))
        centroids[i] = corpus.vectors[pick]
        _fold_closest_sq(corpus, centroids[i], closest_sq)
    return centroids


class _RowBounds:
    """Bounds on each row's true L2 distances D = ‖x − c‖ to the centroids,
    carried by :func:`ivf_build` from one Lloyd pass to the next: ``upper``
    ≥ D to the row's centroid in the last pass, ``assign``, and ``lower``
    ≤ D to every other centroid. A row with no bound has ``upper`` inf.

    Every bound is widened by the rounding margin κ = γ₆₄(2d + 16), which
    covers a key's own error against D and one rounding in each square
    root, product, sum and difference that forms a bound or tests it
    (:func:`_assign_rows`).
    """

    def __init__(self, n: int, dim: int) -> None:
        self.assign = np.zeros(n, dtype=np.int64)
        self.upper = np.full(n, np.inf)
        self.lower = np.zeros(n)
        margin = _gamma(2 * dim + 16, _U64)
        self.wide, self.narrow = 1.0 + margin, 1.0 - margin

    def unsettled(self) -> np.ndarray:
        """Ids of the rows whose bounds cannot prove their centroid: those
        with ``upper``·(1 + κ) not below ``lower``·(1 − κ)."""
        return np.flatnonzero(~(self.upper * self.wide < self.lower * self.narrow))

    def widen(self, shift: np.ndarray) -> None:
        """Keep the bounds true after each centroid moved by its row of
        ``shift``: ``upper`` grows by its own centroid's move, ``lower``
        falls by the largest move of any other centroid."""
        moves = np.sqrt(np.einsum("ij,ij->i", shift, shift)) * self.wide
        top = int(np.argmax(moves))
        largest, second = moves[top], np.max(np.delete(moves, top), initial=0.0)
        self.upper += moves[self.assign]
        self.upper *= self.wide
        self.lower -= np.where(self.assign == top, second, largest)
        self.lower *= self.narrow

    def reset(self) -> None:
        """Drop every bound, so that the next pass scores every row."""
        self.upper.fill(np.inf)


def _assign_rows(
    corpus: Corpus,
    centroids: np.ndarray,
    scratch: np.ndarray,
    metric: Metric,
    bounds: _RowBounds,
) -> np.ndarray:
    """Each row's nearest centroid: the one of smallest ``ordering_keys`` key
    under ``metric``, the first on ties, scored one ``row_blocks`` block at a
    time into ``scratch``. Every Lloyd pass calls it under L2, the final
    assignment under the corpus metric, both with the build's ``bounds``.

    Inner-product and cosine keys come from a GEMV whose last bit depends on
    the call's shape, so those key every (row, centroid) pair, one call per
    centroid over the whole block. So does L2 when
    :func:`fanns.oracle.l2_slack` gives no bound; that pass resets
    ``bounds``.

    Otherwise each row keeps the centroids inside the ``l2_slack`` cut with
    m = 1 and the row's ‖x‖² as the constant. The scores are
    t = fl(P + ‖c‖²): the float32 product P = fl32⟨x, fl32(−2c)⟩ (one matrix
    product per block, widened into ``scratch``) plus c·c in float64, with
    R = ‖x‖max + ‖c‖max; slack leaves room for the roundings of ‖c‖², t and
    the cut. The cut keeps every centroid whose key ties or beats the
    smallest, so a lone survivor is the argmin with no key computed, and a
    row with several keys only those, in one call with the row as the
    point: an L2 key is the same bit for bit either way round. A row keeps
    one centroid when its second-smallest score t₂ (the smallest once its
    best t₁ is masked) lies beyond the cut.

    Only the rows that ``bounds`` leaves unsettled are scored (all of them
    when it holds no bound): a block of them is gathered by
    id, or sliced when every row is scored. Each scored row gets fresh
    bounds. Its squared key to any centroid lies within slack of t + ‖x‖²
    (l2_slack leaves room for these two additions), so √fl(t₁ + ‖x‖² +
    slack) bounds its key to its own centroid from above and
    √max(0, fl(t₂ + ‖x‖² − slack)) every other key from below. A keyed row
    takes no upper bound: the cut left it in doubt, so it is scored again
    in the next pass. A key K is computed from d rounded squares of rounded
    differences, all nonnegative, so |K − D| ≤ γ₆₄(d + 3)·D. None
    underflows: a centroid coordinate of a build is a float32 value or a
    float64 mean of fewer than 2⁶⁴ of them, so it is 0 or at least 2⁻²¹³,
    and either way a multiple of 2⁻²⁶⁵; a nonzero difference from a row or
    another centroid is then at least 2⁻²⁶⁵. The factors 1 ± κ turn
    the key bounds into bounds on D, and keep them true under the roundings
    of :meth:`_RowBounds.widen`: by the triangle inequality, a centroid
    that moves by M changes a row's D to it by at most M. A row skipped
    because fl(upper·(1 + κ)) < fl(lower·(1 − κ)) therefore has
    K_own ≤ D_own·(1 + γ₆₄(d + 3)) < K_j for every other centroid j: its
    own key is strictly the smallest, so it is the argmin of a full pass.
    """
    slack = None
    if metric is Metric.L2:
        sq_centroids = np.einsum("ij,ij->i", centroids, centroids)
        reach = math.sqrt(corpus.sq_row_norms.max()) + math.sqrt(sq_centroids.max())
        slack = l2_slack(corpus.dim, reach)
        minus_twice = (-2.0 * centroids).astype(np.float32)
    if slack is None:
        bounds.reset()
    todo = bounds.unsettled()
    full = len(todo) == corpus.n
    for block in row_blocks(len(todo)):
        ids = block if full else todo[block]
        rows = corpus.vectors[block] if full else corpus.vectors.take(ids, axis=0)
        keys = scratch[: len(rows)]
        if slack is None:
            rows = rows.astype(np.float64)
            for c, centroid in enumerate(centroids):
                divisors = None if metric is Metric.L2 else corpus.cosine_divisors(centroid, block)
                keys[:, c] = ordering_keys(centroid, rows, metric, divisors)
            bounds.assign[block] = np.argmin(keys, axis=1)
            continue
        for start in range(0, len(rows), _PRODUCT_ROWS):
            part = slice(start, start + _PRODUCT_ROWS)
            np.matmul(rows[part], minus_twice.T, out=keys[part])
        keys += sq_centroids
        at = np.arange(len(rows))
        best = np.argmin(keys, axis=1)
        first = keys[at, best]
        keys[at, best] = np.inf
        second = keys.min(axis=1)
        cut = first + 2.0 * slack
        keyed = np.flatnonzero(second <= cut)
        keys[keyed, best[keyed]] = first[keyed]
        for i, near in zip(keyed, keys[keyed] <= cut[keyed, None]):
            kept = np.flatnonzero(near)
            kept_keys = ordering_keys(rows[i], centroids.take(kept, axis=0), metric)
            best[i] = kept[np.argmin(kept_keys)]
        sq_norms = corpus.sq_row_norms[ids]
        upper = np.sqrt(first + sq_norms + slack)
        upper[keyed] = np.inf
        bounds.assign[ids] = best
        bounds.upper[ids] = upper * bounds.wide
        bounds.lower[ids] = np.sqrt(np.maximum(second + sq_norms - slack, 0.0)) * bounds.narrow
    return bounds.assign.copy()


def _cluster_members(assign: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Each cluster's row ids in increasing order, given every row's cluster
    and each cluster's row count: one stable sort of ``assign``, split. Every
    Lloyd pass gathers its cluster members this way, and the final
    assignment its inverted lists."""
    return np.split(np.argsort(assign, kind="stable"), np.cumsum(counts)[:-1])


def ivf_build(corpus: Corpus, n_clusters: int, seed: int) -> IvfIndex:
    """k-means++ seeding plus ``_MAX_ITERS`` Lloyd passes, each assigning
    every row its nearest centroid under L2, then the final row-to-list
    assignment under the corpus metric, both by :func:`_assign_rows`.

    k-means runs in plain L2 geometry over the stored rows. For a cosine
    corpus built with ``normalized`` True those are unit rows, which makes
    it a spherical-k-means approximation; otherwise the rows' norms weigh in.
    Each pass updates the centroids in place: each cluster mean averages its
    rows in id order, gathered by :func:`_cluster_members` as the final
    lists are, and an empty cluster is reseeded from the farthest point of
    the largest cluster. The rows' :class:`_RowBounds` then widen by each
    centroid's move; a reseed, which moves a row to another cluster, drops
    them instead, so the next pass scores every row. The final L2
    assignment reads them too. A zero centroid of a cosine corpus raises.

    FAISS seeds at random from the training rows; k-means++ is kept because
    random seeding split well-separated clusters. On 5,000 rows in 4
    Gaussian blobs (``test_blob_purity``), random seeding gave a purity of
    0.747–0.757 on 8 of 10 build seeds, against 1.000 on all 10 for
    k-means++, while on ivf-l2 the two matched (recall 0.840/0.844/0.854
    against 0.837/0.842/0.846, seeds 1–3). Every row trains: FAISS's cap of
    256 training rows per list would bind only above 256·C rows.
    """
    if not 1 <= n_clusters <= corpus.n:
        raise ValueError("n_clusters must be in [1, N]")
    rng = np.random.default_rng(seed)
    vectors = corpus.vectors
    centroids = _kmeans_pp_seed(corpus, n_clusters, rng)
    scratch = np.empty((min(corpus.n, ROW_BLOCK + 1), n_clusters))
    bounds = _RowBounds(corpus.n, corpus.dim)
    for _ in range(_MAX_ITERS):
        assign = _assign_rows(corpus, centroids, scratch, Metric.L2, bounds)
        counts = np.bincount(assign, minlength=n_clusters)
        previous = centroids.copy()
        for c, members in enumerate(_cluster_members(assign, counts)):
            if len(members):
                centroids[c] = vectors.take(members, axis=0).astype(np.float64).mean(axis=0)
        if counts.all():
            bounds.widen(centroids - previous)
        else:
            bounds.reset()
        for c in np.flatnonzero(counts == 0):
            largest = int(np.argmax(counts))
            members = np.flatnonzero(assign == largest)
            dists = _sq_dists(vectors.take(members, axis=0), centroids[largest])
            stray = members[int(np.argmax(dists))]
            centroids[c] = vectors[stray]
            assign[stray] = c
            counts = np.bincount(assign, minlength=n_clusters)
    final_assign = _assign_rows(corpus, centroids, scratch, corpus.metric, bounds)
    lists = _cluster_members(final_assign, np.bincount(final_assign, minlength=n_clusters))
    return IvfIndex(
        n_clusters=n_clusters,
        seed=seed,
        metric=corpus.metric,
        centroids=centroids.astype(np.float32),
        lists=lists,
    )


def ivf_search(
    index: IvfIndex,
    corpus: Corpus,
    query: np.ndarray,
    k: int,
    n_probe: int,
    mask: Optional[FilterMask] = None,
) -> SearchResult:
    """Exact top k of the (mask-valid) rows of the n_probe nearest lists.

    The query is converted to float64 once, and the lists are ranked by its
    keys to ``index.centroids64``, the first list on a tie."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= n_probe <= index.n_clusters:
        raise ValueError("n_probe must be in [1, C]")
    require_built_from(index, corpus)
    require_mask_for(corpus, mask)
    query = np.asarray(query, dtype=np.float64)
    require_finite(query)
    centroid_keys = ordering_keys(query, index.centroids64, index.metric)
    probe_order = np.argsort(centroid_keys, kind="stable")[:n_probe].tolist()
    ids = np.concatenate([index.lists[c] for c in probe_order])
    probed = len(ids)
    if mask is not None:
        ids = ids[mask.bits[ids]]
    result = exact_scan(corpus, query, k, ids)
    result.telemetry.centroid_evaluations = index.n_clusters
    if mask is not None:
        result.telemetry.predicate_invocations = probed
    return result


def save_ivf(index: IvfIndex, path: str | Path) -> None:
    d = index.centroids.shape[1]
    with open(path, "wb") as fh:
        fh.write(_IVF_MAGIC)
        fh.write(struct.pack("<IIqB", index.n_clusters, d, index.seed, index.metric.value))
        fh.write(np.ascontiguousarray(index.centroids, dtype="<f4").tobytes())
        lengths = np.array([len(lst) for lst in index.lists], dtype="<u4")
        fh.write(lengths.tobytes())
        for lst in index.lists:
            fh.write(np.ascontiguousarray(lst, dtype="<u4").tobytes())


def load_ivf(path: str | Path) -> IvfIndex:
    reader = BinaryReader(path, _IVF_MAGIC, IvfFormatError)
    n_clusters, d, seed, metric_kind = reader.unpack("<IIqB")
    metric = reader.metric(metric_kind)
    if n_clusters < 1 or d < 1:
        reader.fail(f"implausible dimensions C={n_clusters} d={d}")
    centroids = reader.array("<f4", n_clusters * d).reshape(n_clusters, d).copy()
    if not np.isfinite(centroids).all():
        reader.fail("centroids must be finite: one holds NaN or inf")
    lengths = reader.array("<u4", n_clusters).astype(np.int64)
    flat = reader.array("<u4", int(lengths.sum())).astype(np.int64)
    reader.end()
    if not np.array_equal(np.sort(flat), np.arange(len(flat))):
        reader.fail("inverted lists do not partition the row ids 0..n-1")
    lists = np.split(flat, np.cumsum(lengths)[:-1])
    return IvfIndex(
        n_clusters=n_clusters,
        seed=seed,
        metric=metric,
        centroids=centroids,
        lists=lists,
    )
