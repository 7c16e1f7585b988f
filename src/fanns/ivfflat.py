"""Inverted-file index with flat (uncompressed) storage.

Rows are partitioned by a k-means clustering (k-means++ seeding, Lloyd
iterations, deterministic given the seed) in float64 arithmetic. Every pass
over the rows (norms, seeding, Lloyd steps, the final assignment) runs over
``row_blocks``, reading the float32 vectors one block at a time and
converting only that block; each cluster mean is gathered with ``take``, one
cluster at a time. The squared row norms are the corpus's cached
``sq_row_norms``. The build makes no float64 copy of the corpus, and its
(block × C) distance products and keys share one scratch matrix.

Two passes compute exact float64 distances only where they can matter, using
the exact L2 scan's certified float32 bound (:func:`fanns.oracle.l2_slack`):
k-means++ seeding computes a row's distance to each new centroid only when a
float32 lower bound leaves it below the row's current closest distance, and
the final L2 assignment keys only the centroids whose float32 score is
within twice the bound of the row's best. Both give bit-identical centroids
and lists to computing every distance. Lloyd iterations compare float64
matrix products, whose last bits may depend on the product's shape, so they
still score every (row, centroid) pair.

Search ranks all centroids by distance and runs the oracle's exact scan over
the rows of the ``n_probe`` nearest inverted lists. Given a mask, the bitset
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
from fanns.oracle import exact_scan, l2_slack
from fanns.telemetry import SearchResult

_IVF_MAGIC = b"FIV1"

# Lloyd iterations stop after _MAX_ITERS, or once no centroid moves _TOL
_MAX_ITERS = 25
_TOL = 1e-4
# The final L2 assignment is narrowed when C·(d + 8) >= _NARROW_MIN_WORK:
# below that, keying every (row, centroid) pair of a block costs less than
# the float32 pass that narrows it (measured at n = 1,000 to 8,000, d = 2 to
# 128, C = 4 to 16)
_NARROW_MIN_WORK = 128
# rows per float32 product widened into the scratch: numpy widens a product
# through a float32 copy of it, kept small this way
_PRODUCT_ROWS = ROW_BLOCK // 8


class IvfFormatError(ValueError):
    """Raised when an IVFFlat index file is malformed."""


@dataclass
class IvfIndex:
    n_clusters: int
    seed: int
    metric: Metric
    centroids: np.ndarray  # (C, d) float32
    lists: list[np.ndarray]  # per-centroid sorted row-id arrays

    @cached_property
    def n(self) -> int:
        return sum(len(lst) for lst in self.lists)


def _sq_dists(rows: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared L2 distance of each row from ``point`` in float64: the rows
    are converted once and ``point`` subtracted in place, as L2 keys do."""
    diff = rows.astype(np.float64)
    diff -= point
    np.square(diff, out=diff)
    return np.sum(diff, axis=1)


def _fold_closest_sq(
    vectors: np.ndarray, sq_norms: np.ndarray, point: np.ndarray, closest_sq: np.ndarray
) -> None:
    """Lower each entry of ``closest_sq`` to its row's ``_sq_dists`` D from
    ``point`` where that is smaller, computing D only for the rows whose
    float32 lower bound is below their ``closest_sq`` (every row when
    :func:`fanns.oracle.l2_slack` gives no bound), gathered one
    ``row_blocks`` block at a time.

    A row's lower bound is fl(r + fl(‖c‖² − slack)), with r = fl(‖x‖² + P)
    its cached ``sq_row_norms`` plus the float32 product
    P = fl32⟨x, fl32(−2c)⟩, one matrix-vector product over all rows, and
    ‖c‖² = c·c in float64 for the point c. By ``l2_slack``, with
    R = ‖x‖max + ‖c‖, D ≥ r + ‖c‖² − slack up to the float64 roundings that
    slack leaves room for (D is the pairwise sum without a square root, and
    forming the bound takes ‖c‖² and three additions), so the computed bound
    never exceeds D. A row whose bound is at least its ``closest_sq`` has
    D ≥ ``closest_sq``, and ``np.minimum`` would keep that entry: so
    ``closest_sq`` ends bit-identical to folding every row. The first fold,
    against ``closest_sq`` = inf, computes every row.
    """
    sq_point = point.dot(point)
    slack = l2_slack(vectors.shape[1], math.sqrt(sq_norms.max()) + math.sqrt(sq_point))
    if slack is None:
        near = np.arange(len(sq_norms))
    else:
        lower = vectors.dot((-2.0 * point).astype(np.float32)) + sq_norms
        lower += sq_point - slack
        near = np.flatnonzero(lower < closest_sq)
    for block in row_blocks(len(near)):
        ids = near[block]
        closest_sq[ids] = np.minimum(closest_sq[ids], _sq_dists(vectors.take(ids, axis=0), point))


def _kmeans_pp_seed(
    vectors: np.ndarray, sq_norms: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    n = vectors.shape[0]
    centroids = np.empty((n_clusters, vectors.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = vectors[first]
    closest_sq = np.full(n, np.inf)
    _fold_closest_sq(vectors, sq_norms, centroids[0], closest_sq)
    for i in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0.0:
            # all remaining mass collapsed onto existing centroids
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest_sq / total))
        centroids[i] = vectors[pick]
        _fold_closest_sq(vectors, sq_norms, centroids[i], closest_sq)
    return centroids


def _nearest_centroids(
    vectors: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Nearest centroid of every row in squared L2, via the expansion
    ||x||^2 - 2x.c + ||c||^2, scored one ``row_blocks`` block at a time: each
    block is doubled in float64 (exact) into one buffer reused by every
    block, and its products with the centroids go into the build's
    ``scratch``."""
    c2 = np.sum(centroids**2, axis=1)
    assign = np.empty(len(sq_norms), dtype=np.int64)
    doubled = np.empty((len(scratch), vectors.shape[1]))
    for block in row_blocks(len(sq_norms)):
        twice = doubled[: block.stop - block.start]
        np.multiply(vectors[block], 2.0, out=twice, dtype=np.float64)
        d2 = scratch[: len(twice)]
        np.matmul(twice, centroids.T, out=d2)
        np.subtract(sq_norms[block, None], d2, out=d2)
        d2 += c2
        assign[block] = np.argmin(d2, axis=1)
    return assign


def _assign_rows(corpus: Corpus, centroids: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Each row's list: the centroid of smallest ``ordering_keys`` key under
    the corpus metric, the first on ties, scored one ``row_blocks`` block at a
    time into ``scratch``.

    Inner-product and cosine keys come from a GEMV whose last bit depends on
    the call's shape, so those builds key every (row, centroid) pair, one
    call per centroid over the whole block. So does an L2 build for which
    :func:`fanns.oracle.l2_slack` gives no bound, or with C·(d + 8) below
    ``_NARROW_MIN_WORK``, where keying every pair costs less.

    An L2 build keys only the pairs that can hold a row's smallest key. For
    row x the score of centroid c is t = fl(P + ‖c‖²), the float32 product
    P = fl32⟨x, fl32(−2c)⟩ (one float32 matrix product per block, widened
    into ``scratch``) plus c·c in float64, and R = ‖x‖max + ‖c‖max over all
    rows and centroids. This is the exact scan's argument with the row fixed
    and the centroid varying: ‖x‖² is the same for every centroid of a row,
    so ``l2_slack`` gives |t + ‖x‖² − K²| ≤ slack for each computed key K,
    with room for the roundings of ‖c‖², of t and of the cut (no cached ‖x‖²
    enters t). If centroid c holds the row's smallest key and j has its
    smallest score, then t_c ≤ K_c² − ‖x‖² + slack ≤ K_j² − ‖x‖² + slack
    ≤ t_j + 2·slack; so every centroid whose key ties the row's smallest is
    among those with t ≤ min t + 2·slack. Only those are keyed, grouped per
    centroid, and the rest stay +inf. An L2 key depends on its (centroid,
    row) pair alone, so ``argmin`` finds the index it finds over every pair.
    """
    n_clusters = len(centroids)
    metric = corpus.metric
    slack = None
    if metric is Metric.L2 and n_clusters * (corpus.dim + 8) >= _NARROW_MIN_WORK:
        sq_centroids = np.einsum("ij,ij->i", centroids, centroids)
        reach = math.sqrt(corpus.sq_row_norms.max()) + math.sqrt(sq_centroids.max())
        slack = l2_slack(corpus.dim, reach)
        minus_twice = (-2.0 * centroids).astype(np.float32)
    assign = np.empty(corpus.n, dtype=np.int64)
    for block in row_blocks(corpus.n):
        rows = corpus.vectors[block]
        keys = scratch[: len(rows)]
        if slack is None:
            rows = rows.astype(np.float64)
            for c in range(n_clusters):
                divisors = corpus.cosine_divisors(centroids[c], block)
                keys[:, c] = ordering_keys(centroids[c], rows, metric, divisors)
        else:
            for start in range(0, len(rows), _PRODUCT_ROWS):
                part = slice(start, start + _PRODUCT_ROWS)
                np.matmul(rows[part], minus_twice.T, out=keys[part])
            keys += sq_centroids
            cut = keys.min(axis=1)
            cut += 2.0 * slack
            near = keys <= cut[:, None]
            keys.fill(np.inf)
            # column-major, so each centroid's rows are contiguous and ascending
            cols, ids = np.nonzero(near.T)
            splits = np.flatnonzero(np.diff(cols)) + 1
            for c, members in zip(cols[np.r_[0, splits]], np.split(ids, splits)):
                keys[members, c] = ordering_keys(centroids[c], rows.take(members, axis=0), metric)
        assign[block] = np.argmin(keys, axis=1)
    return assign


def ivf_build(corpus: Corpus, n_clusters: int, seed: int) -> IvfIndex:
    """k-means++ seeding plus at most ``_MAX_ITERS`` Lloyd iterations, until
    no centroid moves by ``_TOL`` or more.

    k-means runs in plain L2 geometry (on already-normalized rows for cosine
    corpora, a spherical-k-means approximation), in float64 arithmetic on
    float32 rows read one ``row_blocks`` block at a time: no float64 copy of
    the corpus is made. Squared row norms are the corpus's cached
    ``sq_row_norms``. Seeding computes each new centroid's distances only
    for the rows a float32 bound cannot rule out (:func:`_fold_closest_sq`).
    Each Lloyd step's distance matrix is computed block by block into one
    (block × C) scratch matrix, allocated once per build. Each cluster mean
    averages its rows in id order, gathered with ``take`` and converted one
    cluster at a time through one stable sort of the assignment. Empty
    clusters are reseeded from the farthest point of the largest cluster. The
    final row-to-list assignment uses the corpus metric, block by block in
    the same scratch (:func:`_assign_rows`); a zero centroid of a cosine
    corpus raises.
    """
    if not 1 <= n_clusters <= corpus.n:
        raise ValueError("n_clusters must be in [1, N]")
    rng = np.random.default_rng(seed)
    vectors = corpus.vectors
    sq_norms = corpus.sq_row_norms
    centroids = _kmeans_pp_seed(vectors, sq_norms, n_clusters, rng)
    scratch = np.empty((min(corpus.n, ROW_BLOCK + 1), n_clusters))
    for _ in range(_MAX_ITERS):
        assign = _nearest_centroids(vectors, sq_norms, centroids, scratch)
        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=n_clusters)
        order = np.argsort(assign, kind="stable")
        starts = np.cumsum(counts) - counts
        for c in np.flatnonzero(counts):
            members = order[starts[c] : starts[c] + counts[c]]
            new_centroids[c] = vectors.take(members, axis=0).astype(np.float64).mean(axis=0)
        for c in np.flatnonzero(counts == 0):
            largest = int(np.argmax(counts))
            members = np.flatnonzero(assign == largest)
            dists = _sq_dists(vectors.take(members, axis=0), new_centroids[largest])
            stray = members[int(np.argmax(dists))]
            new_centroids[c] = vectors[stray]
            assign[stray] = c
            counts = np.bincount(assign, minlength=n_clusters)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < _TOL:
            break
    final_assign = _assign_rows(corpus, centroids, scratch)
    lists = [np.flatnonzero(final_assign == c).astype(np.int64) for c in range(n_clusters)]
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
    """Exact top k of the (mask-valid) rows of the n_probe nearest lists."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= n_probe <= index.n_clusters:
        raise ValueError("n_probe must be in [1, C]")
    require_built_from(index, corpus)
    require_mask_for(corpus, mask)
    require_finite(query)
    centroid_keys = ordering_keys(query, index.centroids, index.metric)
    probe_order = np.argsort(centroid_keys, kind="stable")[:n_probe]
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
    if n_clusters < 1:
        reader.fail("no inverted lists")
    centroids = reader.array("<f4", n_clusters * d).reshape(n_clusters, d).copy()
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
