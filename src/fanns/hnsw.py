"""Hierarchical navigable small-world graph index.

Every layer, in the build and in a search, is searched by one best-first loop,
``_search_layer``: candidates are expanded nearest first into a pool of
capacity ``ef``, and the loop stops when the nearest unexpanded candidate is
farther than the worst entry of a full pool. Two admission rules tell its
traversals apart:

* the beam (no bitset) -- a node enters the pool while it has room or when
  its key is strictly below the pool's worst (exact-key ties go to the node
  reached first), and only pool entrants are queued for expansion. The build
  and three of the four search modes use it.
* the dual pool (a bitset) -- a node must also be mask-valid to enter the
  pool, but every visited node is queued, so filtered-out vectors steer the
  walk without taking result slots. With a full mask it walks as the beam
  does, barring exact key ties with the pool's worst entry.

Build and search score the entry point once and then run one layer loop, as
SEARCH-LAYER does in Malkov & Yashunin (arXiv:1603.09320, Algorithms 1 and
5): from the top layer down, each layer's pool seeds the next. A layer above
the target is searched at ef=1, the greedy descent; the insertion of a node of
level l searches layers l..0 at ``ef_construction`` and links the node on
them, taking the M closest of each layer's pool.

``hnsw_search`` ranks the layer-0 pool once, by (key, id), and takes one
output step, in one of four modes:

* ``unfiltered`` -- the beam of width ``ef_search``, cut to k.
* ``prefilter``  -- the same beam, then ``SearchResult.masked``: the bitset
  is read for every pool entry and the valid ones are cut to k. Filtered-out
  nodes compete with valid ones for slots, the single-queue behavior of stock
  library implementations whose recall collapses at low selectivity.
* ``dualpool``   -- the dual pool of width ``ef_search`` on layer 0 (the
  descent above it ignores the mask), cut to k.
* ``raw``        -- the beam with k = ef_search = ``pool_size``, the
  candidate list that post-filtering masks.

The filtered modes count the bitset entries they read in
``predicate_invocations``: the pool's length for ``prefilter``, every visited
layer-0 node for ``dualpool``.

Every key goes through ``corpus.ordering_keys``, over rows of the corpus's
float64 ``vectors64`` (:func:`_scorer`), so each call passes its identity
checks unconverted. Where a walk's keys come from follows one rule, which
depends on its layer-0 width and the work it has done; an insertion is a
walk of width ``ef_construction``, a search one of width ``ef_search``. A
walk keys lazily, one call per expanded node over the rows gathered by id,
with keys bit-identical to uncached ones, until those calls have keyed
``table_budget(n, d)`` rows: as many lazy rows as cost one every-row pass. It
then keys every row once, one ``row_blocks`` block at a time, as the
unmasked exact scan does, into one float64 array, and reads every later key
through a ``memoryview`` of it, one read per neighbor. A beam of width ef
visits at least ef rows, so a walk at least the budget wide keys every row
before its first key. A build's insertions do so up to about
2600 * ef_construction / (d + 6) rows (5,909 at ef_construction = 50 and
d = 16); its keys then cost one pass over the corpus per insertion. A search
counts each row it keyed as a distance evaluation: its lazy rows, plus n
once it keyed every row. The visits are the lazy walk's unless the last bits
of a key decide them: an inner-product or cosine key read from the table can
differ from the lazy one in the last bits, since a GEMV's rounding depends on
the rows that share the call. On exact duplicate rows the table's keys tie
where lazy calls of different shapes split them by an ulp, so a build can
link such rows differently. Under cosine a zero query, or any zero row in
the corpus, raises ``ValueError`` before the first key.

``layer0_unreachable`` counts the rows that no layer-0 walk from the entry
point reaches; ``fanns build`` prints it. Inner-product graphs leave many.

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
from heapq import heapify, heappop, heappush, heapreplace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from fanns.corpus import (
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
from fanns.telemetry import SearchResult, SearchTelemetry

_HNSW_MAGIC = b"FHN1"

SEARCH_MODES = ("unfiltered", "prefilter", "dualpool", "raw")

# ordering keys from one query to the rows with the given ids (see _scorer)
_Keys = Callable[[list[int]], list[float]]


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


def table_budget(n: int, dim: int) -> int:
    """How many rows an HNSW walk, a search or an insertion, over an ``n`` x
    ``dim`` corpus keys lazily before it keys every row once:
    ceil(n * (dim + 6) / 2600).

    The ski-rental rule: stop paying per lazy row once the lazy rows have
    cost what one every-row pass costs. Measured with one BLAS thread, the
    pass costs about 0.35 * dim + 2 ns per row and a lazily keyed row about
    0.9 us of walk and key-call work more than a row read from the table,
    whatever ``dim``; their ratio is (dim + 6) / 2600 lazy rows per corpus
    row. The budget grows with both ``n`` and ``dim``.
    """
    return -(-n * (dim + 6) // 2600)


def _scorer(corpus: Corpus, query: np.ndarray, width: int) -> _Keys:
    """Ordering keys from ``query`` to corpus rows, given their ids, as a list,
    for a walk whose layer-0 width is ``width``.

    The query's float64 copy and, for cosine, every row's divisor
    (``corpus.cosine_divisors(query)``; None under L2 and inner product) are
    built once here. A width under ``table_budget(n, d)`` keys lazily while
    its calls have keyed fewer rows than the budget: a call turns its ids into
    one index array, gathers the rows from ``corpus.vectors64`` and, for
    cosine, their divisors with it, and keys them through ``ordering_keys``,
    with the rows as its second argument, so they are bit-identical to
    ``ordering_keys(query, corpus.vectors[ids], metric)``. The first call
    after that, or the first call of all at a width of at least the budget,
    keys every row once, one ``row_blocks`` block at a time, so each key is
    bit-identical to the unmasked exact scan's, into one float64 array, and
    appends a ``memoryview`` of the array to the list ``keys.table``; every
    call from then on reads its keys through the view. A view read costs
    about 50 ns against a list read's 25 ns, but no n-element list is built:
    building one took 73 of the 92 us of a 3,000 x 16 pass and 485 of 658 us
    at 20,000 x 16 (one BLAS thread). ``keys.lazy_rows`` holds, in its one
    entry, the rows keyed lazily. A cosine query of norm 0, or a cosine corpus
    with a zero row, raises here.
    """
    budget = table_budget(corpus.n, corpus.dim)
    lazy_budget = budget if width < budget else 0
    rows, metric = corpus.vectors64, corpus.metric
    query = np.asarray(query, dtype=np.float64)
    divisors = corpus.cosine_divisors(query)
    lazy_rows, table = [0], []

    def keys(ids):
        if lazy_rows[0] < lazy_budget:
            ids = np.array(ids, dtype=np.intp)
            lazy_rows[0] += ids.size
            row_divisors = None if divisors is None else divisors.take(ids)
            return ordering_keys(query, rows.take(ids, axis=0), metric, row_divisors).tolist()
        if not table:
            every_key = np.empty(corpus.n)
            for block in row_blocks(corpus.n):
                every_key[block] = ordering_keys(
                    query, rows[block], metric, None if divisors is None else divisors[block]
                )
            table.append(memoryview(every_key))
        view = table[0]
        return [view[i] for i in ids]

    # neither list refers back to ``keys``: a cycle would hold each search's
    # table until the cyclic garbage collector ran
    keys.lazy_rows, keys.table = lazy_rows, table
    return keys


def _search_layer(
    keys: _Keys,
    adjacency: dict[int, list[int]],
    pool: list[tuple[float, int]],
    ef: int,
    telemetry: SearchTelemetry,
    bits: Optional[np.ndarray] = None,
) -> list[tuple[float, int]]:
    """Best-first search of one layer into a pool of capacity ``ef``.

    The pool, taken over (it may be changed in place) and returned, is an
    unranked list of ``(-key, node)`` entries: the entry points in, the
    layer's nearest nodes out. It must come in with at most ``ef`` entries,
    as every caller's does: one entry point into each ef = 1 layer and into
    layer 0, and a build layer's pool, at ``ef_construction``, into the next
    layer at the same width. Nodes are admitted by the beam's rule without
    ``bits`` and the dual pool's with them (see the module docstring). Each
    newly visited node counts in ``nodes_visited``; with ``bits`` each
    visited node's bit counts as a predicate invocation. The bits are read
    from one ``bytes`` copy taken per call, not from the array one numpy
    scalar at a time.
    ``worst`` holds the full pool's worst key (inf while the pool has room),
    so each neighbor costs one comparison. The pool is heapified once, when
    it fills; node ids are unique, so the entry each entrant evicts is the
    same whatever the heap's layout.

    While the scorer's ``keys.table`` is empty, each expanded node's
    unvisited neighbors are keyed by one ``keys`` call. Once a call has built
    the table (see :func:`_scorer`), the walk goes on from the same state
    and reads each neighbor's key through the table's view, one read per
    neighbor; the visits, and so the ids, are the same either way.
    """
    table = keys.table
    visited = {node for _, node in pool}
    entered = len(visited)
    candidates = [(-negkey, node) for negkey, node in pool]
    heapify(candidates)
    if bits is not None:
        bits = bits.tobytes()
        pool = [entry for entry in pool if bits[entry[1]]]
    heapify(pool)
    worst = -pool[0][0] if len(pool) == ef else math.inf
    while candidates and not table:
        key, node = heappop(candidates)
        if key > worst:
            break
        fresh = [v for v in adjacency.get(node, ()) if v not in visited]
        if not fresh:
            continue
        visited.update(fresh)
        for nkey, neigh in zip(keys(fresh), fresh):
            if nkey < worst and (bits is None or bits[neigh]):
                if len(pool) < ef:
                    pool.append((-nkey, neigh))
                    if len(pool) == ef:
                        heapify(pool)
                        worst = -pool[0][0]
                else:
                    heapreplace(pool, (-nkey, neigh))
                    worst = -pool[0][0]
            elif bits is None:
                continue  # the beam queues only pool entrants
            heappush(candidates, (nkey, neigh))
    else:
        # The table is built (or nothing is left to expand). The admission
        # rule above is repeated here, per neighbor: sharing it through a
        # per-expansion generator made this loop 14-18% slower.
        table = table[0] if table else None
        while candidates:
            key, node = heappop(candidates)
            if key > worst:
                break
            for neigh in adjacency.get(node, ()):
                if neigh in visited:
                    continue
                visited.add(neigh)
                nkey = table[neigh]
                if nkey < worst and (bits is None or bits[neigh]):
                    if len(pool) < ef:
                        pool.append((-nkey, neigh))
                        if len(pool) == ef:
                            heapify(pool)
                            worst = -pool[0][0]
                    else:
                        heapreplace(pool, (-nkey, neigh))
                        worst = -pool[0][0]
                elif bits is None:
                    continue
                heappush(candidates, (nkey, neigh))
    telemetry.nodes_visited += len(visited) - entered
    if bits is not None:
        telemetry.predicate_invocations = len(visited)
    return pool


def hnsw_build(corpus: Corpus, m: int, ef_construction: int, seed: int) -> HnswIndex:
    """Sequential insertion in id order; deterministic given the seed."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if ef_construction < m:
        raise ValueError("ef_construction must be >= m")
    rng = np.random.default_rng(seed)
    inv_log_m = 1.0 / math.log(m)
    vectors = corpus.vectors64
    levels = np.array([_draw_level(rng, inv_log_m) for _ in range(corpus.n)], dtype=np.int32)

    index = HnswIndex(
        m=m,
        ef_construction=ef_construction,
        seed=seed,
        metric=corpus.metric,
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
        keys = _scorer(corpus, vectors[node], ef_construction)
        pool = [(-keys([index.entry_point])[0], index.entry_point)]
        for layer in range(index.max_level, -1, -1):
            adjacency = index.adjacency[layer]
            ef = ef_construction if layer <= level else 1
            pool = _search_layer(keys, adjacency, pool, ef, scratch)
            if layer > level:
                continue
            ranked = sorted((-negkey, cand) for negkey, cand in pool)
            chosen = [cand for _, cand in ranked[: index.m]]
            cap = 2 * index.m if layer == 0 else index.m
            adjacency[node] = list(chosen)
            for neigh in chosen:
                links = adjacency[neigh]
                links.append(node)
                if len(links) > cap:
                    query, ids = vectors[neigh], np.array(links, dtype=np.intp)
                    link_keys = ordering_keys(
                        query, vectors.take(ids, axis=0), corpus.metric,
                        corpus.cosine_divisors(query, ids),
                    )
                    order = np.lexsort((ids, link_keys))[:cap]
                    adjacency[neigh] = [links[i] for i in order]
        if level > index.max_level:
            for _ in range(level - index.max_level):
                index.adjacency.append({})
            for layer in range(index.max_level + 1, level + 1):
                index.adjacency[layer][node] = []
            index.max_level = level
            index.entry_point = node
    return index


def layer0_unreachable(index: HnswIndex) -> int:
    """How many rows a breadth-first walk along layer-0 links from the entry
    point never reaches: no search, whatever its ef, can return them."""
    adjacency = index.adjacency[0]
    seen, frontier = {index.entry_point}, {index.entry_point}
    while frontier:
        frontier = {v for u in frontier for v in adjacency[u]} - seen
        seen |= frontier
    return index.n - len(seen)


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
    """Search in one of the four modes; see the module docstring.

    ``ef_search`` is deliberately not clamped to ``k``: the result list may
    be shorter than ``k``.
    """
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if ef_search < 1:
        raise ValueError("ef_search must be >= 1")
    if mode in ("prefilter", "dualpool"):
        if mask is None:
            raise ValueError(f"mode {mode!r} requires a mask")
    if mode == "raw":
        if pool_size is None or pool_size < 1:
            raise ValueError("raw mode requires pool_size >= 1")
        k = ef_search = pool_size
    require_built_from(index, corpus)
    require_mask_for(corpus, mask)
    require_finite(query)

    keys = _scorer(corpus, query, ef_search)
    telemetry = SearchTelemetry(nodes_visited=1)
    pool = [(-keys([index.entry_point])[0], index.entry_point)]
    for layer in range(index.max_level, -1, -1):
        pool = _search_layer(
            keys, index.adjacency[layer], pool, ef_search if layer == 0 else 1, telemetry,
            bits=mask.bits if mode == "dualpool" and layer == 0 else None,
        )
    telemetry.distance_evaluations = keys.lazy_rows[0] + (corpus.n if keys.table else 0)
    ids = np.array([node for _, node in pool], dtype=np.int64)
    dists = -np.array([negkey for negkey, _ in pool], dtype=np.float64)
    order = np.lexsort((ids, dists))
    result = SearchResult(ids=ids[order], distances=dists[order], telemetry=telemetry)
    return result.masked(mask.bits, k) if mode == "prefilter" else result.top(k)


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
    """Read an FHN1 file, raising ``HnswFormatError`` unless it holds a graph
    a build could have made: levels peaking on the entry point, each layer
    listing exactly the nodes of its level, and neighbor lists of ids inside
    the graph, at most 2M long on layer 0 and M above, with no repeated id
    and no node listing itself."""
    reader = BinaryReader(path, _HNSW_MAGIC, HnswFormatError)
    n, m, ef_construction, seed, entry_point, max_level, metric_kind = reader.unpack("<IIIqiIB")
    metric = reader.metric(metric_kind)
    if not 0 <= entry_point < n:
        reader.fail(f"entry point {entry_point} outside 0..{n - 1}")
    levels = reader.array("<i4", n).astype(np.int32)
    if levels.min() < 0 or not levels.max() == max_level == levels[entry_point]:
        reader.fail(f"node levels do not peak at max level {max_level} on the entry point")
    adjacency: list[dict[int, list[int]]] = []
    for level in range(max_level + 1):
        (n_nodes,) = reader.unpack("<I")
        nodes = reader.array("<u4", n_nodes)
        if not np.array_equal(nodes, np.flatnonzero(levels >= level)):
            reader.fail(f"layer {level} does not list exactly the nodes of level >= {level}")
        degrees = reader.array("<u4", n_nodes)
        flat = reader.array("<u4", int(degrees.sum()))
        if np.any(flat >= n):
            reader.fail(f"layer {level} holds a neighbor id outside 0..{n - 1}")
        cap = 2 * m if level == 0 else m
        if degrees.max() > cap:
            reader.fail(f"layer {level} holds a neighbor list longer than {cap}")
        owners = np.repeat(nodes, degrees)
        if np.any(flat == owners):
            reader.fail(f"layer {level} holds a node that lists itself")
        links = np.sort(owners.astype(np.uint64) * np.uint64(n) + flat)  # < n**2 <= 2**64
        if np.any(links[1:] == links[:-1]):
            reader.fail(f"layer {level} holds a neighbor list that repeats an id")
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
