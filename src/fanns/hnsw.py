"""Hierarchical navigable small-world graph index.

Four layer-0 search modes are exposed:

* ``unfiltered``   -- standard beam search of width ``ef_search``.
* ``prefilter``    -- same traversal with a shared candidate pool of
  capacity ``ef_search`` in which filtered-out nodes compete for slots with
  valid ones; the bitset is applied to the final pool. This mirrors the
  single-queue behavior of stock library implementations, whose recall
  collapses when the beam saturates with invalid navigation nodes.
* ``dualpool``     -- two queues: a result pool of capacity ``ef_search``
  holding only mask-valid nodes, and a navigation heap ordering expansion
  over all visited nodes. The search budget is therefore never cannibalized
  by filtered vectors. Terminates when the nearest unexpanded navigation
  candidate is farther than the worst entry of a full valid pool; with a
  full mask this reduces to the standard termination rule.
* ``raw``          -- unfiltered search returning a ``pool_size``-wide
  candidate list for downstream post-filtering.

The two filtered modes record how many bitset entries they read in
``predicate_invocations``: the final pool's length for ``prefilter``, every
visited layer-0 node for ``dualpool``.

Neighbor selection at build time takes the M closest candidates from the
construction queue (no heuristic pruning), which keeps small hand-traced
graphs reproducible. Level assignment uses floor(-ln(U) / ln(M)) with U
drawn from a seeded PCG64 generator, so builds are reproducible across
platforms.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Optional

import numpy as np

from fanns.corpus import (
    BinaryReader,
    Corpus,
    FilterMask,
    Metric,
    ordering_keys,
    require_built_from,
)
from fanns.telemetry import SearchResult, SearchTelemetry

_HNSW_MAGIC = b"FHN1"

SEARCH_MODES = ("unfiltered", "prefilter", "dualpool", "raw")


class HnswFormatError(ValueError):
    """Raised when an HNSW index file is malformed."""


@dataclass
class HnswIndex:
    m: int
    ef_construction: int
    seed: int
    metric: Metric
    levels: np.ndarray
    entry_point: int
    max_level: int
    # adjacency[layer][node] -> list of neighbor ids; nodes absent from a
    # layer simply have no entry there
    adjacency: list[dict[int, list[int]]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.levels)


def _draw_level(rng: np.random.Generator, inv_log_m: float) -> int:
    u = 1.0 - rng.random()  # (0, 1]
    return int(math.floor(-math.log(u) * inv_log_m))


def _expand(
    vectors: np.ndarray,
    metric: Metric,
    query: np.ndarray,
    adjacency: dict[int, list[int]],
    node: int,
    visited: set[int],
    telemetry: SearchTelemetry,
) -> list[tuple[float, int]]:
    """Distance-evaluate the unvisited neighbors of `node`."""
    fresh = [v for v in adjacency.get(node, []) if v not in visited]
    if not fresh:
        return []
    visited.update(fresh)
    keys = ordering_keys(query, vectors[fresh], metric)
    telemetry.distance_evaluations += len(fresh)
    telemetry.nodes_visited += len(fresh)
    return list(zip(keys.tolist(), fresh))


def _greedy_descent(
    index: HnswIndex,
    vectors: np.ndarray,
    query: np.ndarray,
    telemetry: SearchTelemetry,
    stop_layer: int = 0,
) -> tuple[float, int]:
    """Top-down greedy walk from the entry point to the best node of layer
    ``stop_layer + 1``; search and insertion share it."""
    cur = index.entry_point
    cur_key = float(ordering_keys(query, vectors[cur], index.metric)[0])
    telemetry.distance_evaluations += 1
    telemetry.nodes_visited += 1
    for layer in range(index.max_level, stop_layer, -1):
        adjacency = index.adjacency[layer]
        improved = True
        visited = {cur}
        while improved:
            improved = False
            for key, node in _expand(
                vectors, index.metric, query, adjacency, cur, visited, telemetry
            ):
                if (key, node) < (cur_key, cur):
                    cur_key, cur = key, node
                    improved = True
    return cur_key, cur


def _beam_search_layer(
    vectors: np.ndarray,
    metric: Metric,
    query: np.ndarray,
    adjacency: dict[int, list[int]],
    entry_points: list[tuple[float, int]],
    ef: int,
    telemetry: SearchTelemetry,
) -> list[tuple[float, int]]:
    """Standard bounded beam: one shared pool of capacity ef."""
    visited = {node for _, node in entry_points}
    candidates = list(entry_points)
    heapify(candidates)
    pool: list[tuple[float, int]] = [(-key, node) for key, node in entry_points]
    heapify(pool)
    while len(pool) > ef:
        heappop(pool)
    while candidates:
        key, node = heappop(candidates)
        if len(pool) == ef and key > -pool[0][0]:
            break
        for nkey, neigh in _expand(vectors, metric, query, adjacency, node, visited, telemetry):
            if len(pool) < ef or nkey < -pool[0][0]:
                heappush(candidates, (nkey, neigh))
                heappush(pool, (-nkey, neigh))
                if len(pool) > ef:
                    heappop(pool)
    return sorted((-negkey, node) for negkey, node in pool)


def _dual_pool_layer(
    vectors: np.ndarray,
    metric: Metric,
    query: np.ndarray,
    adjacency: dict[int, list[int]],
    entry_points: list[tuple[float, int]],
    ef: int,
    bits: np.ndarray,
    telemetry: SearchTelemetry,
) -> list[tuple[float, int]]:
    """Valid-only result pool plus an unbounded navigation heap."""
    visited = {node for _, node in entry_points}
    navigation = list(entry_points)
    heapify(navigation)
    valid_pool: list[tuple[float, int]] = []
    for key, node in entry_points:
        if bits[node]:
            heappush(valid_pool, (-key, node))
    while len(valid_pool) > ef:
        heappop(valid_pool)
    while navigation:
        key, node = heappop(navigation)
        if len(valid_pool) == ef and key > -valid_pool[0][0]:
            break
        for nkey, neigh in _expand(vectors, metric, query, adjacency, node, visited, telemetry):
            heappush(navigation, (nkey, neigh))
            if bits[neigh] and (len(valid_pool) < ef or nkey < -valid_pool[0][0]):
                heappush(valid_pool, (-nkey, neigh))
                if len(valid_pool) > ef:
                    heappop(valid_pool)
    telemetry.predicate_invocations = len(visited)
    return sorted((-negkey, node) for negkey, node in valid_pool)


def hnsw_build(corpus: Corpus, m: int, ef_construction: int, seed: int) -> HnswIndex:
    """Sequential insertion in id order; deterministic given the seed."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if ef_construction < m:
        raise ValueError("ef_construction must be >= m")
    rng = np.random.default_rng(seed)
    inv_log_m = 1.0 / math.log(m)
    vectors = corpus.vectors
    metric = corpus.metric
    levels = np.array([_draw_level(rng, inv_log_m) for _ in range(corpus.n)], dtype=np.int32)

    index = HnswIndex(
        m=m,
        ef_construction=ef_construction,
        seed=seed,
        metric=metric,
        levels=levels,
        entry_point=0,
        max_level=int(levels[0]),
        adjacency=[{} for _ in range(int(levels[0]) + 1)],
    )
    for layer in range(int(levels[0]) + 1):
        index.adjacency[layer][0] = []

    scratch = SearchTelemetry()
    for node in range(1, corpus.n):
        level = int(levels[node])
        query = vectors[node]
        entry_points = [_greedy_descent(index, vectors, query, scratch, stop_layer=level)]
        for layer in range(min(level, index.max_level), -1, -1):
            adjacency = index.adjacency[layer]
            pool = _beam_search_layer(
                vectors, metric, query, adjacency, entry_points, ef_construction, scratch
            )
            chosen = [cand for _, cand in pool[: index.m]]
            cap = 2 * index.m if layer == 0 else index.m
            adjacency[node] = list(chosen)
            for neigh in chosen:
                links = adjacency[neigh]
                links.append(node)
                if len(links) > cap:
                    keys = ordering_keys(vectors[neigh], vectors[links], metric)
                    order = np.lexsort((links, keys))[:cap]
                    adjacency[neigh] = [links[i] for i in order]
            entry_points = pool
        if level > index.max_level:
            for _ in range(level - index.max_level):
                index.adjacency.append({})
            for layer in range(index.max_level + 1, level + 1):
                index.adjacency[layer][node] = []
            index.max_level = level
            index.entry_point = node
    return index


def hnsw_search(
    index: HnswIndex,
    corpus: Corpus,
    query: np.ndarray,
    k: int,
    ef_search: int,
    mode: str = "unfiltered",
    mask: Optional[FilterMask] = None,
    pool_size: Optional[int] = None,
) -> SearchResult:
    """Layer-0 search in one of the four modes; see the module docstring.

    ``ef_search`` is deliberately not clamped to ``k``: the result list may
    be shorter than ``k``.
    """
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    if ef_search < 1:
        raise ValueError("ef_search must be >= 1")
    if mode in ("prefilter", "dualpool"):
        if mask is None:
            raise ValueError(f"mode {mode!r} requires a mask")
    if mode == "raw":
        if pool_size is None or pool_size < 1:
            raise ValueError("raw mode requires pool_size >= 1")
    require_built_from(index, corpus)

    telemetry = SearchTelemetry()
    vectors = corpus.vectors
    entry = _greedy_descent(index, vectors, query, telemetry)
    adjacency = index.adjacency[0]

    if mode == "dualpool":
        ranked = _dual_pool_layer(
            vectors, index.metric, query, adjacency, [entry], ef_search, mask.bits, telemetry
        )
        ranked = ranked[:k]
    else:
        width = pool_size if mode == "raw" else ef_search
        pool = _beam_search_layer(
            vectors, index.metric, query, adjacency, [entry], width, telemetry
        )
        if mode == "unfiltered":
            ranked = pool[:k]
        elif mode == "prefilter":
            telemetry.predicate_invocations = len(pool)
            ranked = [(key, node) for key, node in pool if mask.bits[node]][:k]
        else:  # raw
            ranked = pool[:pool_size]

    ids = np.array([node for _, node in ranked], dtype=np.int64)
    distances = np.array([key for key, _ in ranked], dtype=np.float64)
    return SearchResult(ids=ids, distances=distances, telemetry=telemetry)


def layer0_reachable_fraction(index: HnswIndex) -> float:
    """Fraction of nodes reachable from the entry point along layer-0 edges."""
    adjacency = index.adjacency[0]
    seen = {index.entry_point}
    stack = [index.entry_point]
    while stack:
        node = stack.pop()
        for neigh in adjacency.get(node, []):
            if neigh not in seen:
                seen.add(neigh)
                stack.append(neigh)
    return len(seen) / index.n


def save_hnsw(index: HnswIndex, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HNSW_MAGIC)
        fh.write(
            struct.pack(
                "<IIIqiIB",
                index.n,
                index.m,
                index.ef_construction,
                index.seed,
                index.entry_point,
                index.max_level,
                index.metric.value,
            )
        )
        fh.write(np.ascontiguousarray(index.levels, dtype="<i4").tobytes())
        for layer in range(index.max_level + 1):
            adjacency = index.adjacency[layer]
            nodes = sorted(adjacency)
            fh.write(struct.pack("<I", len(nodes)))
            fh.write(np.array(nodes, dtype="<u4").tobytes())
            degrees = np.array([len(adjacency[u]) for u in nodes], dtype="<u4")
            fh.write(degrees.tobytes())
            flat = [v for u in nodes for v in adjacency[u]]
            fh.write(np.array(flat, dtype="<u4").tobytes())


def load_hnsw(path: str | Path) -> HnswIndex:
    reader = BinaryReader(path, _HNSW_MAGIC, HnswFormatError)
    n, m, ef_construction, seed, entry_point, max_level, metric_kind = reader.unpack("<IIIqiIB")
    metric = reader.metric(metric_kind)
    if not 0 <= entry_point < n:
        reader.fail(f"entry point {entry_point} outside 0..{n - 1}")
    levels = reader.array("<i4", n).astype(np.int32)
    adjacency: list[dict[int, list[int]]] = []
    for level in range(max_level + 1):
        (n_nodes,) = reader.unpack("<I")
        nodes = reader.array("<u4", n_nodes)
        degrees = reader.array("<u4", n_nodes)
        flat = reader.array("<u4", int(degrees.sum()))
        if np.any(nodes >= n) or np.any(flat >= n):
            reader.fail(f"layer {level} holds a node id outside 0..{n - 1}")
        layer: dict[int, list[int]] = {}
        pos = 0
        for node, degree in zip(nodes.tolist(), degrees.tolist()):
            layer[node] = flat[pos : pos + degree].astype(int).tolist()
            pos += degree
        adjacency.append(layer)
    reader.end()
    return HnswIndex(
        m=m,
        ef_construction=ef_construction,
        seed=seed,
        metric=metric,
        levels=levels,
        entry_point=entry_point,
        max_level=max_level,
        adjacency=adjacency,
    )
