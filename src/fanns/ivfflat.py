"""Inverted-file index with flat (uncompressed) storage.

Rows are partitioned by a k-means clustering (k-means++ seeding, Lloyd
iterations, deterministic given the seed) in float64 arithmetic. Every pass
over the rows (norms, seeding, Lloyd steps, the final assignment) runs over
``row_blocks``, reading the float32 vectors one block at a time and
converting only that block; each cluster mean is gathered with ``take``, one
cluster at a time. The squared row norms are the corpus's cached
``sq_row_norms``. The build makes no float64 copy of the corpus.

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
from fanns.oracle import exact_scan
from fanns.telemetry import SearchResult

_IVF_MAGIC = b"FIV1"

# Lloyd iterations stop after _MAX_ITERS, or once no centroid moves _TOL
_MAX_ITERS = 25
_TOL = 1e-4


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


def _fold_closest_sq(vectors: np.ndarray, point: np.ndarray, closest_sq: np.ndarray) -> None:
    """Lower each entry of ``closest_sq`` to its row's squared L2 distance
    from ``point`` where that is smaller, one ``row_blocks`` block at a time."""
    for block in row_blocks(vectors.shape[0]):
        np.minimum(closest_sq[block], _sq_dists(vectors[block], point), out=closest_sq[block])


def _kmeans_pp_seed(vectors: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    n = vectors.shape[0]
    centroids = np.empty((n_clusters, vectors.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = vectors[first]
    closest_sq = np.full(n, np.inf)
    _fold_closest_sq(vectors, centroids[0], closest_sq)
    for i in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0.0:
            # all remaining mass collapsed onto existing centroids
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest_sq / total))
        centroids[i] = vectors[pick]
        _fold_closest_sq(vectors, centroids[i], closest_sq)
    return centroids


def _nearest_centroids(
    vectors: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Nearest centroid of every row in squared L2, via the expansion
    ||x||^2 - 2x.c + ||c||^2, scored one ``row_blocks`` block at a time: each
    block is converted to float64 and doubled in place (exact), and its
    products with the centroids go into one buffer reused by every block."""
    c2 = np.sum(centroids**2, axis=1)
    assign = np.empty(len(sq_norms), dtype=np.int64)
    products = np.empty((ROW_BLOCK + 1, len(centroids)))
    for block in row_blocks(len(sq_norms)):
        twice = vectors[block].astype(np.float64)
        twice *= 2.0
        d2 = products[: len(twice)]
        np.matmul(twice, centroids.T, out=d2)
        np.subtract(sq_norms[block, None], d2, out=d2)
        d2 += c2
        assign[block] = np.argmin(d2, axis=1)
    return assign


def ivf_build(corpus: Corpus, n_clusters: int, seed: int) -> IvfIndex:
    """k-means++ seeding plus at most ``_MAX_ITERS`` Lloyd iterations, until
    no centroid moves by ``_TOL`` or more.

    k-means runs in plain L2 geometry (on already-normalized rows for cosine
    corpora, a spherical-k-means approximation), in float64 arithmetic on
    float32 rows read one ``row_blocks`` block at a time: no float64 copy of
    the corpus is made. Squared row norms are the corpus's cached
    ``sq_row_norms``; seeding distances and each Lloyd step's distance matrix
    are computed block by block. Each cluster mean
    averages its rows in id order, gathered with ``take`` and converted one
    cluster at a time through one stable sort of the assignment. Empty
    clusters are reseeded from the farthest point of the largest cluster. The
    final row-to-list assignment uses the corpus metric, block by block; a
    zero centroid of a cosine corpus raises.
    """
    if not 1 <= n_clusters <= corpus.n:
        raise ValueError("n_clusters must be in [1, N]")
    rng = np.random.default_rng(seed)
    vectors = corpus.vectors
    sq_norms = corpus.sq_row_norms
    centroids = _kmeans_pp_seed(vectors, n_clusters, rng)
    for _ in range(_MAX_ITERS):
        assign = _nearest_centroids(vectors, sq_norms, centroids)
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
    final_assign = np.empty(corpus.n, dtype=np.int64)
    keys = np.empty((ROW_BLOCK + 1, n_clusters))
    for block in row_blocks(corpus.n):
        rows = vectors[block].astype(np.float64)
        block_keys = keys[: len(rows)]
        for c in range(n_clusters):
            divisors = corpus.cosine_divisors(centroids[c], block)
            block_keys[:, c] = ordering_keys(centroids[c], rows, corpus.metric, divisors)
        final_assign[block] = np.argmin(block_keys, axis=1)
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
