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
  pool, but every visited node the loop could still expand is queued, valid
  or not, so filtered-out vectors steer the walk without taking result
  slots. Only a node keyed strictly above a full pool's worst is left out,
  since it could only end the loop. With a full mask it walks as the beam
  does, barring exact key ties with the pool's worst entry.

Build and search share one descent, ``_walk``, as INSERT and K-NN-SEARCH
share SEARCH-LAYER in Malkov & Yashunin (arXiv:1603.09320, Algorithms 1, 2
and 5): it scores the entry point once, then runs ``_search_layer`` from the
top layer down, each layer's pool seeding the next. A layer above the target
is searched at ef=1, the greedy descent. A search's target is layer 0; the
insertion of a node of level l searches layers l..0 at ``ef_construction``
and links the node on each of them.

A search's layer-0 walk runs in one of two spaces, with the same visits,
pool and counters. In key space, ``_search_layer``'s heaps hold
``(key, node)`` tuples, and ``hnsw_search`` ranks the layer-0 pool once, by
(key, id) with ``telemetry.rank_by_key_then_id`` (one argsort of the keys,
``np.lexsort`` only on an exact key tie), over the keys the pool entries
hold. In rank space, ``_search_ranks`` runs the same loop on each node's
place in the key table, ranked once before the walk's first step
(:class:`_Ranks`), and ``hnsw_search`` reads the ids and keys of the sorted
pool ranks from that ranking. A search takes rank space when its scorer
keys every row before its first step, its width pays for the ranking
(:func:`ranks_pay`: 20 * ef >= n for a beam, 20 * ef >= the mask's popcount
for the dual pool) and no two keys of the table tie. Narrower and lazy
searches, searches whose table holds a tie (-0.0 ties 0.0) and every build
insertion stay in key space, as do the layers above layer 0. Each search
then takes one output step, in one of four modes:

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

Each walk holds its keys in one float64 array of n keys (:class:`_Scorer`)
and reads every neighbor's key from it through a ``memoryview``. Every key
goes through ``corpus.ordering_keys``, over rows of the corpus's float64
``vectors64``, so each call passes its identity checks unconverted. What
fills the array follows one rule, which depends on the walk's layer-0 width
and the work it has done; an insertion is a walk of width
``ef_construction``, a search one of width ``ef_search``. A walk keys
lazily, one call per expanded node over its unvisited neighbors' rows
gathered by id, with keys bit-identical to uncached ones, until those calls
have keyed ``table_budget(n, d)`` rows: as many lazy rows as cost one
every-row pass. It then keys every row once, one ``row_blocks`` block at a
time, as the unmasked exact scan does, and makes no more calls. A beam of
width ef visits at least ef rows, so a walk at least the budget wide keys
every row before its first key. A build's insertions do so up to about
2600 * ef_construction / (d + 6) rows (5,909 at ef_construction = 50 and
d = 16); its keys then cost one pass over the corpus per insertion. A search
counts each row it keyed as a distance evaluation: its lazy rows, plus n
once it keyed every row. The visits are the lazy walk's unless the last bits
of a key decide them: an inner-product or cosine key from the every-row pass
can differ from the lazy one in the last bits, since a GEMV's rounding
depends on the rows that share the call. On exact duplicate rows the pass's
keys tie where lazy calls of different shapes split them by an ulp, so a
build can link such rows differently. Under cosine a zero query, or any zero
row in the corpus, raises ``ValueError`` before the first key.

A graph holds one ``int`` object per node id: the node's key in every
layer's dict, every link to it and ``entry_point`` are that one object. A
build shares the insertion loop's ints, and ``load_hnsw`` the items of one
object array of the n ids. CPython's set and dict lookups test identity before
equality, so each visited-set test and adjacency lookup of a walk matches
at once, where equal but distinct ints (one per ``tolist()``) would each
need an int comparison; and a link costs a list slot, not a slot and an int.

``layer0_unreachable`` counts the rows that no layer-0 walk from the entry
point reaches; ``fanns build`` prints it. Inner-product graphs leave many.

Neighbor selection is one rule, ``_closest``: the ids of the ``count``
smallest (key, id) pairs. An insertion links its node to the M closest of
each layer's pool, and a neighbor list pushed past its cap (2M on layer 0, M
above) keeps its cap closest links, keyed from the list's owner. There is no
heuristic pruning (Algorithm 4), which keeps small hand-traced graphs
reproducible. Level assignment uses floor(-ln(U) / ln(M)) with U
drawn from a seeded PCG64 generator, so builds are reproducible across
platforms.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heapreplace
from operator import itemgetter
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
    require_finite,
    require_mask_for,
    row_blocks,
)
from fanns.telemetry import SearchResult, SearchTelemetry, argsort_distinct, rank_by_key_then_id

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
    # layer simply have no entry there. Every key and link of a node, on every
    # layer, is one int object (and so is entry_point), so that a walk's set
    # and dict lookups match by identity; build and load_hnsw both keep this.
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
    0.9 us of walk and key-call work more than a row keyed by the pass,
    whatever ``dim``; their ratio is (dim + 6) / 2600 lazy rows per corpus
    row. The budget grows with both ``n`` and ``dim``.
    """
    return -(-n * (dim + 6) // 2600)


def ranks_pay(ef: int, rows: int) -> bool:
    """Whether a search whose scorer keys every row before its first step
    (a layer-0 width of at least ``table_budget``) walks layer 0 in rank
    space: its pool holds ``ef`` entries out of ``rows`` it could admit (n
    for a beam, the mask's popcount for the dual pool), and it does when
    20 * ef >= rows.

    The rank path pays one ranking of the n keys up front (an argsort, a
    gather, the tie test and a scatter: about 84 us at n = 3,000 and 720 us
    at 20,000) and then saves part of every visit's heap work, since it
    compares ints where the tuple loop compares ``(key, node)`` tuples. A
    beam of width ef visits a number of nodes that grows with ef, and a
    dual pool keeps walking until ef valid rows fill it, so it walks about
    as far as a beam of width ef * n / rows. With W that width, the rule is
    W * beta >= n. Measured with one BLAS thread on the cluster-correlated
    cosine corpus at 3,000 x 16 and 20,000 x 16 (loaded graphs, M = 10,
    ef_construction = 50), the two paths cost the same at W = n / 20 on
    both, for the beam and for the dual pool (the crossover table is in
    README.md), so beta = 20 at both sizes.
    """
    return 20 * ef >= rows


class _Scorer:
    """The ordering keys from ``query`` to corpus rows, for one walk whose
    layer-0 width is ``width``: one float64 array of n keys, ``array``, read
    through its ``memoryview``, ``view``, one read per key.

    ``fill(ids)`` keys the rows with the given ids into ``array``. The
    query's float64 copy and, for cosine, every row's divisor
    (``corpus.cosine_divisors(query)``; None under L2 and inner product) are
    built once here. A width under ``table_budget(n, d)`` keys lazily while
    its calls have keyed fewer rows than the budget: a call turns its ids into
    one index array, gathers the rows from ``corpus.vectors64`` and, for
    cosine, their divisors with it, and keys them through ``ordering_keys``,
    with the rows as its second argument, so they are bit-identical to
    ``ordering_keys(query, corpus.vectors[ids], metric)``. ``lazy_rows``
    counts those rows. The first call after that, or the first call of all at
    a width of at least the budget, keys every row once, one ``row_blocks``
    block at a time, so each key is bit-identical to the unmasked exact
    scan's, and sets ``complete``: every key is in the array, and a walk
    makes no more calls. A cosine query of norm 0, or a cosine corpus with a
    zero row, raises here. ``rank()`` ranks a complete array into ``ranks``,
    a :class:`_Ranks`; it stays None without that call and on a tie.
    """

    __slots__ = ("query", "rows", "metric", "divisors", "lazy_budget", "array", "view",
                 "lazy_rows", "complete", "ranks")

    def __init__(self, corpus: Corpus, query: np.ndarray, width: int):
        budget = table_budget(corpus.n, corpus.dim)
        self.lazy_budget = budget if width < budget else 0
        self.rows, self.metric = corpus.vectors64, corpus.metric
        self.query = np.asarray(query, dtype=np.float64)
        self.divisors = corpus.cosine_divisors(self.query)
        self.array = np.empty(corpus.n)
        self.view = memoryview(self.array)
        self.lazy_rows, self.complete = 0, False
        self.ranks: Optional[_Ranks] = None

    def fill(self, ids) -> None:
        query, metric, divisors = self.query, self.metric, self.divisors
        if self.lazy_rows < self.lazy_budget:
            ids = np.array(ids, dtype=np.intp)
            self.lazy_rows += ids.size
            self.array.put(ids, ordering_keys(query, self.rows.take(ids, axis=0), metric,
                                              None if divisors is None else divisors.take(ids)))
            return
        for block in row_blocks(len(self.array)):
            self.array[block] = ordering_keys(query, self.rows[block], metric,
                                              None if divisors is None else divisors[block])
        self.complete = True

    def rank(self) -> None:
        """Rank the complete key table into ``ranks``, unless two keys tie."""
        distinct = argsort_distinct(self.array)
        if distinct is None:
            return  # the walk stays in key space
        self.ranks = _Ranks(*distinct)


class _Ranks:
    """A key table without a tie, ranked once: ``order``, the node ids in
    ascending key order, and ``keys``, the keys in that order (numpy
    arrays); ``nodes``, ``order`` read through a ``memoryview``; ``rank``,
    each node's place in ``order``, the same way; and ``inf``, the number
    of keys below +inf."""

    __slots__ = ("order", "keys", "nodes", "rank", "inf")

    def __init__(self, order: np.ndarray, keys: np.ndarray):
        self.order, self.keys = order, keys
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.nodes, self.rank = memoryview(order), memoryview(rank)
        self.inf = int(np.searchsorted(keys, math.inf))


def _search_layer(
    keys: _Scorer,
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
    as ``_walk``'s does: one entry point into each ef = 1 layer and into
    layer 0, and a build layer's pool, at ``ef_construction``, into the next
    layer at the same width. Every node it reaches must have a list in
    ``adjacency``: a build lists each node on every layer up to its level,
    and ``load_hnsw`` refuses a link to a node below the link's layer. Nodes
    are admitted by the beam's rule without ``bits`` and the dual pool's
    with them (see the module docstring). Each newly visited node counts in
    ``nodes_visited``; with ``bits`` each visited node's bit counts as a
    predicate invocation. The bits are read from one ``bytes`` copy taken
    per call, not from the array one numpy scalar at a time.
    ``worst`` holds the full pool's worst key (inf while the pool has room),
    so each neighbor costs one comparison. The pool is heapified once, when
    it fills; node ids are unique, so the entry each entrant evicts is the
    same whatever the heap's layout.

    The dual pool does not queue a node whose key is strictly above a full
    pool's ``worst``, and walks as if it did. ``worst`` never rises: it is
    inf until the pool fills and then only falls. So when such a node was
    popped, its key would still be above ``worst`` and end the loop, and
    every candidate still queued behind it would be left unexpanded too;
    leaving it out changes no other pop. A node keyed equal to ``worst`` is
    still queued, so ties are expanded in the same order.

    While the scorer is not ``complete`` (see :class:`_Scorer`), each
    expanded node's unvisited neighbors are keyed by one ``keys.fill`` call.
    Every neighbor's key is then read through the scorer's view.
    """
    view = keys.view
    visited = {node for _, node in pool}
    entered = len(visited)
    candidates = [(-negkey, node) for negkey, node in pool]
    heapify(candidates)
    if bits is not None:
        bits = bits.tobytes()
        pool = [entry for entry in pool if bits[entry[1]]]
    heapify(pool)
    worst = -pool[0][0] if len(pool) == ef else math.inf
    while candidates:
        key, node = heappop(candidates)
        if key > worst:
            break
        links = adjacency[node]
        if not keys.complete:
            links = [v for v in links if v not in visited]
            if links:
                keys.fill(links)
        for neigh in links:
            if neigh in visited:
                continue
            visited.add(neigh)
            nkey = view[neigh]
            if nkey < worst and (bits is None or bits[neigh]):
                if len(pool) < ef:
                    pool.append((-nkey, neigh))
                    if len(pool) == ef:
                        heapify(pool)
                        worst = -pool[0][0]
                else:
                    heapreplace(pool, (-nkey, neigh))
                    worst = -pool[0][0]
            elif bits is None or nkey > worst:
                continue  # the beam queues only pool entrants, the dual pool no dead end
            heappush(candidates, (nkey, neigh))
    telemetry.nodes_visited += len(visited) - entered
    if bits is not None:
        telemetry.predicate_invocations = len(visited)
    return pool


def _search_ranks(
    keys: _Scorer,
    adjacency: dict[int, list[int]],
    pool: list[tuple[float, int]],
    ef: int,
    telemetry: SearchTelemetry,
    bits: Optional[np.ndarray] = None,
) -> list[int]:
    """``_search_layer`` in rank space, over a scorer whose ``ranks`` are set.

    It takes the pool as ``_search_layer`` does, ``(-key, node)`` entries,
    and returns the layer's nearest nodes as a heap of negated ranks. The
    candidate heap holds ranks, and admission and the stopping test compare
    ranks, so the loop runs on ints where ``_search_layer`` compares tuples.
    The key table has no tie, so one rank is below another exactly when its
    key is, and every comparison, eviction and pop comes out as in
    ``_search_layer``. ``worst`` starts at ``ranks.inf``, the rank an inf
    key would take, which stands where ``_search_layer``'s inf does. The
    counters are ``_search_layer``'s.
    """
    ranks = keys.ranks
    rank, nodes = ranks.rank, ranks.nodes
    visited = {node for _, node in pool}
    entered = len(visited)
    candidates = sorted(rank[node] for node in visited)
    if bits is not None:
        bits = bits.tobytes()
        pool = [-rank[node] for node in visited if bits[node]]
    else:
        pool = [-rank[node] for node in visited]
    heapify(pool)
    worst = -pool[0] if len(pool) == ef else ranks.inf
    while candidates:
        r = heappop(candidates)
        if r > worst:
            break
        for neigh in adjacency[nodes[r]]:
            if neigh in visited:
                continue
            visited.add(neigh)
            nr = rank[neigh]
            if nr < worst and (bits is None or bits[neigh]):
                if len(pool) < ef:
                    pool.append(-nr)
                    if len(pool) == ef:
                        heapify(pool)
                        worst = -pool[0]
                else:
                    heapreplace(pool, -nr)
                    worst = -pool[0]
            elif bits is None or nr > worst:
                continue  # the beam queues only pool entrants, the dual pool no dead end
            heappush(candidates, nr)
    telemetry.nodes_visited += len(visited) - entered
    if bits is not None:
        telemetry.predicate_invocations = len(visited)
    return pool


def _walk(index: HnswIndex, keys: _Scorer, ef: int, level: int, telemetry: SearchTelemetry,
          bits: Optional[np.ndarray] = None, ranked: bool = False):
    """The layer loop of every build insertion and search: score the entry
    point, then run ``_search_layer`` from the top layer down, each layer's
    pool seeding the next, at ef=1 above ``level`` and at ``ef`` on ``level``
    and below, with ``bits`` on layer 0 only. Yields ``(layer, pool)`` for
    each layer at or below ``level``; a caller may read each pool but not
    change it, since the next layer starts from it.

    With ``ranked`` (a search whose scorer keys every row on its first call,
    see :func:`ranks_pay`) the key table is ranked once, after that call,
    and unless two keys tie layer 0 runs ``_search_ranks``, whose pool holds
    negated ranks."""
    keys.fill([index.entry_point])
    if ranked:
        keys.rank()
    pool = [(-keys.view[index.entry_point], index.entry_point)]
    for layer in range(index.max_level, -1, -1):
        search = _search_ranks if layer == 0 and keys.ranks is not None else _search_layer
        pool = search(keys, index.adjacency[layer], pool, ef if layer <= level else 1,
                      telemetry, bits if layer == 0 else None)
        if layer <= level:
            yield layer, pool


def _closest(pairs, count: int) -> list[int]:
    """The neighbor-selection rule, on insertion and on overflow: the ids of
    the ``count`` smallest ``(key, id)`` pairs, in that order."""
    return [node for _, node in sorted(pairs)[:count]]


def hnsw_build(corpus: Corpus, m: int, ef_construction: int, seed: int) -> HnswIndex:
    """Sequential insertion in id order; deterministic given the seed. Each
    insertion is a ``_walk`` down to the node's level, and links the node on
    each layer it reaches there to the ``_closest`` M of the layer's pool; a
    neighbor list pushed past its cap keeps its ``_closest`` cap links."""
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
        adjacency=[{0: []} for _ in range(int(levels[0]) + 1)],
    )
    scratch = SearchTelemetry()
    for node in range(1, corpus.n):
        level = int(levels[node])
        keys = _Scorer(corpus, vectors[node], ef_construction)
        for layer, pool in _walk(index, keys, ef_construction, level, scratch):
            adjacency = index.adjacency[layer]
            cap = 2 * m if layer == 0 else m
            adjacency[node] = _closest([(-negkey, cand) for negkey, cand in pool], m)
            for neigh in adjacency[node]:
                links = adjacency[neigh]
                links.append(node)
                if len(links) > cap:
                    query, ids = vectors[neigh], np.array(links, dtype=np.intp)
                    link_keys = ordering_keys(query, vectors.take(ids, axis=0), corpus.metric,
                                              corpus.cosine_divisors(query, ids))
                    adjacency[neigh] = _closest(zip(link_keys.tolist(), links), cap)
        if level > index.max_level:
            index.adjacency += [{node: []} for _ in range(level - index.max_level)]
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

    A key-space layer-0 pool is ranked by ``rank_by_key_then_id`` over the
    keys its entries hold, not over the scorer's array: a walk that keyed
    every row mid-walk can hold a row's lazy key in the pool and its
    every-row key in the array, an ulp apart under inner product and cosine.
    A rank-space pool is sorted as ints, and its ids and keys read from the
    scorer's ranking: that walk keyed every row before its first step, so
    the pool holds the array's keys. ``ef_search`` is deliberately not
    clamped to ``k``: the result list may be shorter than ``k``.
    """
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if ef_search < 1:
        raise ValueError("ef_search must be >= 1")
    if mode in ("prefilter", "dualpool") and mask is None:
        raise ValueError(f"mode {mode!r} requires a mask")
    if mode == "raw":
        if pool_size is None or pool_size < 1:
            raise ValueError("raw mode requires pool_size >= 1")
        k = ef_search = pool_size
    require_built_from(index, corpus)
    require_mask_for(corpus, mask)
    require_finite(query)

    keys = _Scorer(corpus, query, ef_search)
    telemetry = SearchTelemetry(nodes_visited=1)
    bits = mask.bits if mode == "dualpool" else None
    ranked = keys.lazy_budget == 0 and ranks_pay(
        ef_search, corpus.n if bits is None else mask.valid_count)
    [(_, pool)] = _walk(index, keys, ef_search, 0, telemetry, bits, ranked)
    telemetry.distance_evaluations = keys.lazy_rows + (corpus.n if keys.complete else 0)
    if keys.ranks is None:
        ids = np.fromiter(map(itemgetter(1), pool), np.int64, len(pool))
        dists = -np.fromiter(map(itemgetter(0), pool), np.float64, len(pool))
        order = rank_by_key_then_id(dists, ids)
        ids, dists = ids[order], dists[order]
    else:
        ranks = np.sort(-np.array(pool, dtype=np.intp))
        ids, dists = keys.ranks.order[ranks], keys.ranks.keys[ranks]
    result = SearchResult(ids=ids, distances=dists, telemetry=telemetry)
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
    a build could have made: 2 <= M <= ef_construction, levels peaking on the
    entry point, each layer listing exactly the nodes of its level, and
    neighbor lists of ids inside the graph, each of a node on the list's
    layer, at most 2M long on layer 0 and M above, with no repeated id and no
    node listing itself. So every neighbor a walk reaches has a list of its
    own on that layer.

    The graph holds one ``int`` object per node id, as a built graph does:
    every layer's keys, every link and ``entry_point`` are items of one
    object array of the n ids, gathered by the file's id arrays. So a walk's
    visited-set and adjacency lookups match by identity, not by comparing
    equal but distinct ints, and a link costs one list slot."""
    reader = BinaryReader(path, _HNSW_MAGIC, HnswFormatError)
    n, m, ef_construction, seed, entry_point, max_level, metric_kind = reader.unpack("<IIIqiIB")
    if not 2 <= m <= ef_construction:
        reader.fail(f"m={m} and ef_construction={ef_construction} break 2 <= m <= ef_construction")
    metric = reader.metric(metric_kind)
    if not 0 <= entry_point < n:
        reader.fail(f"entry point {entry_point} outside 0..{n - 1}")
    levels = reader.array("<i4", n).astype(np.int32)
    if levels.min() < 0 or not levels.max() == max_level == levels[entry_point]:
        reader.fail(f"node levels do not peak at max level {max_level} on the entry point")
    node_ids = np.arange(n).astype(object)
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
        if np.any(levels[flat] < level):
            reader.fail(f"layer {level} holds a neighbor of level below {level}")
        cap = 2 * m if level == 0 else m
        if degrees.max() > cap:
            reader.fail(f"layer {level} holds a neighbor list longer than {cap}")
        owners = np.repeat(nodes, degrees)
        if np.any(flat == owners):
            reader.fail(f"layer {level} holds a node that lists itself")
        links = np.sort(owners.astype(np.uint64) * np.uint64(n) + flat)  # < n**2 <= 2**64
        if np.any(links[1:] == links[:-1]):
            reader.fail(f"layer {level} holds a neighbor list that repeats an id")
        ends = np.cumsum(degrees).tolist()
        neighbors = node_ids[flat].tolist()
        adjacency.append({node: neighbors[end - degree : end] for node, degree, end
                          in zip(node_ids[nodes].tolist(), degrees.tolist(), ends)})
    reader.end()
    return HnswIndex(
        m=m,
        ef_construction=ef_construction,
        seed=seed,
        metric=metric,
        levels=levels,
        entry_point=node_ids[entry_point],
        max_level=max_level,
        adjacency=adjacency,
    )
