import gc
import itertools
import sys
from heapq import heapify, heappop, heappush

import numpy as np
import pytest

from fanns import hnsw as hnsw_mod
from fanns.corpus import (
    ROW_BLOCK,
    Corpus,
    FilterMask,
    Metric,
    build_mask,
    generate_synthetic,
    ordering_keys,
    row_blocks,
    threshold_for_selectivity,
)
from fanns.hnsw import (
    SEARCH_MODES,
    HnswFormatError,
    HnswIndex,
    hnsw_build,
    hnsw_search,
    layer0_unreachable,
    load_hnsw,
    save_hnsw,
)
from fanns.oracle import exact_knn
from fanns.telemetry import SearchTelemetry

from conftest import ROW_COUNTS, matmul_keys, sample_queries


def layer0_reachable(index: HnswIndex) -> set[int]:
    """Nodes reachable from the entry point along layer-0 edges, found by a
    one-node-at-a-time depth-first walk: the slow reference."""
    adjacency = index.adjacency[0]
    seen = {index.entry_point}
    stack = [index.entry_point]
    while stack:
        node = stack.pop()
        for neigh in adjacency.get(node, []):
            if neigh not in seen:
                seen.add(neigh)
                stack.append(neigh)
    return seen


def layer0_reachable_fraction(index: HnswIndex) -> float:
    """Fraction of nodes reachable from the entry point along layer-0 edges."""
    return len(layer0_reachable(index)) / index.n


def small_graph_index():
    """Hand-built 12-node, single-layer graph on the plane.

    Node ids are 0-based; the comments use the 1-based labels of the layout
    the numbers were derived from.
    """
    coords = np.array(
        [
            (-1.2, 1.05), (1.8, 1.8), (0.6, 1.8), (2.4, -0.6), (0.1, 0.6),
            (-2.2, 1.2), (1.0, -1.5), (-1.5, -1.2), (-0.6, 2.5), (0.9, -0.6),
            (2.7, 0.6), (-3.2, 0.0),
        ],
        dtype=np.float32,
    )
    edges_1based = [
        (1, 5), (1, 6), (1, 9), (2, 4), (2, 11), (2, 3), (3, 9), (3, 5),
        (12, 7), (4, 10), (5, 10), (11, 8), (7, 10), (8, 7), (9, 6),
        (6, 12), (8, 12), (4, 11),
    ]
    adjacency = {i: [] for i in range(12)}
    for a, b in edges_1based:
        adjacency[a - 1].append(b - 1)
        adjacency[b - 1].append(a - 1)
    valid_1based = {1, 2, 4, 5, 8, 9, 10}
    attribute = np.array([1.0 if i + 1 in valid_1based else 0.0 for i in range(12)])
    corpus = Corpus(vectors=coords, attribute=attribute, metric=Metric.L2)
    index = HnswIndex(
        m=3, ef_construction=3, seed=0, metric=Metric.L2,
        levels=np.zeros(12, dtype=np.int32), entry_point=1, max_level=0,
        adjacency=[adjacency],
    )
    return corpus, index, build_mask(corpus, 0.5)


class TestBuild:
    def test_single_node(self):
        corpus = Corpus(vectors=np.ones((1, 3), dtype=np.float32), attribute=np.zeros(1))
        index = hnsw_build(corpus, 4, 8, seed=0)
        assert index.n == 1
        assert index.entry_point == 0
        assert index.adjacency[0][0] == []

    def test_determinism(self, corpus2k):
        a = hnsw_build(corpus2k, 5, 25, seed=42)
        b = hnsw_build(corpus2k, 5, 25, seed=42)
        assert a.entry_point == b.entry_point
        assert np.array_equal(a.levels, b.levels)
        assert a.adjacency == b.adjacency

    def test_level_law_fraction(self):
        corpus = generate_synthetic(1000, 8, seed=13)
        index = hnsw_build(corpus, 10, 50, seed=13)
        frac = float(np.mean(index.levels >= 1))
        assert abs(frac - 1.0 / 10) <= 0.03

    def test_degree_caps_and_layer0_membership(self, hnsw2k):
        m = hnsw2k.m
        assert set(hnsw2k.adjacency[0]) == set(range(hnsw2k.n))
        for node, neighbors in hnsw2k.adjacency[0].items():
            assert len(neighbors) <= 2 * m
            assert node not in neighbors
        for layer in range(1, hnsw2k.max_level + 1):
            for neighbors in hnsw2k.adjacency[layer].values():
                assert len(neighbors) <= m

    def test_entry_point_has_max_level(self, hnsw2k):
        assert hnsw2k.levels[hnsw2k.entry_point] == hnsw2k.max_level
        assert hnsw2k.max_level == int(hnsw2k.levels.max())

    def test_parameter_validation(self, corpus2k):
        with pytest.raises(ValueError):
            hnsw_build(corpus2k, 1, 10, seed=0)
        with pytest.raises(ValueError):
            hnsw_build(corpus2k, 10, 5, seed=0)

    def test_layer0_reachability(self, hnsw2k):
        assert layer0_reachable_fraction(hnsw2k) >= 0.99

    def test_every_neighbor_selection_goes_through_closest(self, monkeypatch):
        # replaying the build's linking from the recorded ``_closest`` calls
        # alone must give its graph: one call per (insertion, layer at or
        # below the node's level) and one per list pushed past its cap
        closest, calls = hnsw_mod._closest, []

        def recording(pairs, count):
            pairs = list(pairs)
            chosen = closest(pairs, count)
            calls.append((sorted(node for _, node in pairs), count, list(chosen)))
            return chosen

        monkeypatch.setattr(hnsw_mod, "_closest", recording)
        m = 4
        index = hnsw_build(generate_synthetic(400, 8, seed=3), m, 16, seed=0)
        assert index.max_level >= 2
        replay = iter(calls)
        levels = index.levels.tolist()
        graph = [{0: []} for _ in range(levels[0] + 1)]
        for node in range(1, index.n):
            for layer in range(min(levels[node], len(graph) - 1), -1, -1):
                _, count, chosen = next(replay)
                assert count == m
                lists, cap = graph[layer], 2 * m if layer == 0 else m
                lists[node] = chosen
                for neigh in chosen:
                    lists[neigh].append(node)
                    if len(lists[neigh]) > cap:
                        ids, count, kept = next(replay)
                        assert (ids, count) == (sorted(lists[neigh]), cap)
                        lists[neigh] = kept
            graph += [{node: []} for _ in range(levels[node] + 1 - len(graph))]
        assert next(replay, None) is None
        assert graph == index.adjacency

    def test_unreachable_count_on_a_hand_built_graph(self):
        # row 11 keeps its own links, but no list points back to it
        _, index, _ = small_graph_index()
        for node in (5, 6, 7):
            index.adjacency[0][node].remove(11)
        assert layer0_unreachable(index) == 1

    def test_unreachable_count_equals_the_reference_walk(self):
        # inner-product graphs leave rows unreachable (a row is not its own
        # nearest neighbor), so the count is not trivially 0
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((1500, 8)) * rng.uniform(0.5, 2, size=(1500, 1))
        corpus = Corpus(vectors.astype(np.float32), rng.uniform(size=1500), Metric.INNER_PRODUCT)
        index = hnsw_build(corpus, 8, 40, seed=0)
        unreachable = layer0_unreachable(index)
        assert unreachable == index.n - len(layer0_reachable(index))
        assert unreachable > 0


class TestGoldenTraversal:
    def test_prefilter_results_and_visited_set(self):
        corpus, index, mask = small_graph_index()
        query = np.array([-0.9, -0.3])
        result = hnsw_search(index, corpus, query, 3, 3, mode="prefilter", mask=mask)
        # 1-based: {P1, P5, P10}
        assert sorted(result.ids.tolist()) == [0, 4, 9]
        assert result.telemetry.nodes_visited == 10

    def test_full_mask_matches_unfiltered(self):
        corpus, index, _ = small_graph_index()
        query = np.array([-0.9, -0.3])
        full = FilterMask(np.ones(12, dtype=bool))
        ids_u = hnsw_search(index, corpus, query, 3, 5).ids
        ids_p = hnsw_search(index, corpus, query, 3, 5, mode="prefilter", mask=full).ids
        ids_d = hnsw_search(index, corpus, query, 3, 5, mode="dualpool", mask=full).ids
        assert set(ids_u.tolist()) == set(ids_p.tolist()) == set(ids_d.tolist())


class TestSearchModes:
    def test_full_mask_equivalence_built_index(self, corpus2k, hnsw2k):
        # under a full mask both filtered modes walk exactly the unfiltered beam
        full = build_mask(corpus2k, -np.inf)
        _, queries = sample_queries(corpus2k, 50, seed=49)

        def trace(result):
            t = result.telemetry
            return result.ids.tolist(), t.distance_evaluations, t.nodes_visited

        for query in queries:
            for ef in (10, 60):
                beam = trace(hnsw_search(hnsw2k, corpus2k, query, 10, ef))
                for mode in ("prefilter", "dualpool"):
                    filtered = hnsw_search(hnsw2k, corpus2k, query, 10, ef, mode=mode, mask=full)
                    assert trace(filtered) == beam

    @pytest.mark.parametrize("mode", ["prefilter", "dualpool"])
    def test_filtered_modes_only_return_valid_ids(self, corpus2k, hnsw2k, mode):
        mask = build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.3))
        _, queries = sample_queries(corpus2k, 20, seed=50)
        for query in queries:
            result = hnsw_search(hnsw2k, corpus2k, query, 10, 80, mode=mode, mask=mask)
            assert mask.bits[result.ids].all()

    def test_distances_sorted_and_consistent(self, corpus2k, hnsw2k):
        query = corpus2k.vectors[42]
        result = hnsw_search(hnsw2k, corpus2k, query, 20, 100)
        assert np.all(np.diff(result.distances) >= 0)
        recomputed = ordering_keys(query, corpus2k.vectors[result.ids], corpus2k.metric)
        assert np.allclose(result.distances, recomputed, atol=1e-6)

    def test_raw_mode_pool_width(self, corpus2k, hnsw2k):
        result = hnsw_search(hnsw2k, corpus2k, corpus2k.vectors[3], 5, 64,
                             mode="raw", pool_size=64)
        assert len(result) == 64

    def test_recall_improves_with_ef(self, corpus2k, hnsw2k):
        _, queries = sample_queries(corpus2k, 100, seed=60)

        def mean_recall(ef):
            total = 0.0
            for query in queries:
                gt = set(exact_knn(corpus2k, query, 10).ids.tolist())
                got = set(hnsw_search(hnsw2k, corpus2k, query, 10, ef).ids.tolist())
                total += len(gt & got) / 10
            return total / len(queries)

        assert mean_recall(500) >= mean_recall(40) - 0.01

    def test_dualpool_beats_single_pool_at_low_selectivity(self, corpus2k, hnsw2k):
        mask = build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.05))
        _, queries = sample_queries(corpus2k, 100, seed=61)
        rec = {"prefilter": 0.0, "dualpool": 0.0}
        for query in queries:
            gt = set(exact_knn(corpus2k, query, 10, mask).ids.tolist())
            for mode in rec:
                got = set(
                    hnsw_search(hnsw2k, corpus2k, query, 10, 100, mode=mode, mask=mask)
                    .ids.tolist()
                )
                rec[mode] += len(gt & got) / max(len(gt), 1)
        assert rec["dualpool"] >= rec["prefilter"]

    def test_mode_validation(self, corpus2k, hnsw2k):
        query = corpus2k.vectors[0]
        with pytest.raises(ValueError):
            hnsw_search(hnsw2k, corpus2k, query, 5, 10, mode="bogus")
        with pytest.raises(ValueError):
            hnsw_search(hnsw2k, corpus2k, query, 5, 10, mode="prefilter")
        with pytest.raises(ValueError):
            hnsw_search(hnsw2k, corpus2k, query, 5, 10, mode="raw")
        with pytest.raises(ValueError):
            hnsw_search(hnsw2k, corpus2k, query, 5, 0)


def _varied_norm_corpus(metric, n=300, d=12, seed=0):
    """Gaussian rows scaled by norms spread over 0.01..100."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
    return Corpus(vectors=vectors.astype(np.float32), attribute=rng.uniform(size=n),
                  metric=metric)


def _lazy_throughout(monkeypatch):
    """Make every HNSW walk, whatever its width, key lazily throughout."""
    monkeypatch.setattr(hnsw_mod, "table_budget", lambda n, dim: sys.maxsize)


class TestCachedKeys:
    @pytest.mark.parametrize("metric", list(Metric))
    def test_bitwise_equal_to_uncached_keys(self, monkeypatch, metric):
        _lazy_throughout(monkeypatch)
        corpus = _varied_norm_corpus(metric, seed=metric.value)
        rng = np.random.default_rng(40 + metric.value)
        for trial in range(700):
            query = rng.standard_normal(corpus.dim) * 10.0 ** rng.uniform(-2, 2)
            if trial % 2:
                query = query.astype(np.float32)
            keys = hnsw_mod._Scorer(corpus, query, corpus.n)
            ids = rng.choice(corpus.n, size=int(rng.integers(1, 30)), replace=False).tolist()
            expected = ordering_keys(query, corpus.vectors[ids], metric)
            assert np.array_equal(_keys_of(keys, ids), expected)
            one = ordering_keys(query, corpus.vectors[ids[0]], metric)
            assert np.array_equal(_keys_of(keys, ids[0]), one)

    @pytest.mark.parametrize("mode", ["unfiltered", "dualpool"])
    def test_every_key_is_scored_through_the_traced_name(self, monkeypatch, corpus2k, hnsw2k, mode):
        # perfbench's --trace 1 wraps fanns.hnsw.ordering_keys and reads the
        # rows from its second positional argument
        original = hnsw_mod.ordering_keys
        rows_seen = []

        def counting(*args, **kwargs):
            assert len(args) >= 2 and "rows" not in kwargs
            rows_seen.append(1 if np.ndim(args[1]) == 1 else len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(hnsw_mod, "ordering_keys", counting)
        mask = build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.1))
        # a width under the key-table budget: lazy calls, then the every-row pass
        assert 10 < hnsw_mod.table_budget(corpus2k.n, corpus2k.dim)
        result = hnsw_search(hnsw2k, corpus2k, corpus2k.vectors[5], 10, 10, mode=mode, mask=mask)
        assert len(rows_seen) > 2 and rows_seen[-1] == corpus2k.n
        assert sum(rows_seen) == result.telemetry.distance_evaluations


    @pytest.mark.parametrize("metric", [Metric.INNER_PRODUCT, Metric.COSINE])
    def test_keys_equal_the_matmul_formulas(self, monkeypatch, metric):
        # the scorer's keys, with divisors gathered from one per-search array,
        # against the formulas computed per call over the float32 rows
        _lazy_throughout(monkeypatch)
        rng = np.random.default_rng(70 + metric.value)
        n = 2 * ROW_BLOCK + 1
        vectors = rng.standard_normal((n, 16)) * rng.uniform(0.5, 2, size=(n, 1))
        corpus = Corpus(vectors.astype(np.float32), rng.uniform(size=n), metric)
        for query in (rng.standard_normal(16), rng.standard_normal(16).astype(np.float32)):
            keys = hnsw_mod._Scorer(corpus, query, corpus.n)
            for m in ROW_COUNTS:
                start = int(rng.integers(0, n - m + 1))
                for ids in (list(range(start, start + m)), rng.permutation(n)[:m].tolist()):
                    expected = matmul_keys(query, corpus.vectors[ids], metric)
                    assert np.array_equal(_keys_of(keys, ids), expected)


def _keys_of(keys, ids):
    """The keys to ``ids`` read through the scorer ``keys``'s view, after one
    call that keys them unless the scorer is complete, as a walk does."""
    if not keys.complete:
        keys.fill(ids)
    return np.asarray(keys.view)[np.atleast_1d(ids)]


def _reference_expand(keys, adjacency, node, visited, telemetry):
    fresh = [v for v in adjacency.get(node, []) if v not in visited]
    if not fresh:
        return []
    visited.update(fresh)
    telemetry.distance_evaluations += len(fresh)
    telemetry.nodes_visited += len(fresh)
    return list(zip(_keys_of(keys, fresh).tolist(), fresh))


def _reference_search_layer(keys, adjacency, pool, ef, telemetry, bits=None):
    """The best-first loop with one ``_expand`` call per expanded node, which
    reads the pool's length and worst entry for every neighbor and counts
    evaluations per expansion. It takes and returns the pool as
    ``_search_layer`` does, an unranked list of ``(-key, node)``, but keeps
    it a heap throughout."""
    entry_points = [(-negkey, node) for negkey, node in pool]
    visited = {node for _, node in entry_points}
    candidates = list(entry_points)
    heapify(candidates)
    pool = [(-key, node) for key, node in entry_points if bits is None or bits[node]]
    heapify(pool)
    while len(pool) > ef:
        heappop(pool)
    while candidates:
        key, node = heappop(candidates)
        if len(pool) == ef and key > -pool[0][0]:
            break
        for nkey, neigh in _reference_expand(keys, adjacency, node, visited, telemetry):
            if (bits is None or bits[neigh]) and (len(pool) < ef or nkey < -pool[0][0]):
                heappush(pool, (-nkey, neigh))
                if len(pool) > ef:
                    heappop(pool)
            elif bits is None:
                continue
            heappush(candidates, (nkey, neigh))
    if bits is not None:
        telemetry.predicate_invocations = len(visited)
    return pool


def _key_space_throughout(monkeypatch, search_layer=_reference_search_layer):
    """Make every layer of every walk run the key-space loop ``search_layer``
    (the reference loop by default): no search walks in rank space."""
    monkeypatch.setattr(hnsw_mod, "ranks_pay", lambda ef, rows: False)
    monkeypatch.setattr(hnsw_mod, "_search_layer", search_layer)


def _count_rank_walks(monkeypatch):
    """Count the layer-0 walks that run in rank space, in a one-item list."""
    search_ranks, walks = hnsw_mod._search_ranks, [0]

    def counting(*args):
        walks[0] += 1
        return search_ranks(*args)

    monkeypatch.setattr(hnsw_mod, "_search_ranks", counting)
    return walks


EFS = (10, 100)  # and the corpus size
MODES = ("unfiltered", "prefilter", "dualpool")


def _search_answers(corpus, index, efs=EFS, whole_pool=False, n_queries=50, modes=MODES):
    """Ids, keys and all four counters of ``n_queries`` searches x efs + (n,)
    x ``modes``, at k=10 or, with ``whole_pool``, at k = ef, so that every
    entry the layer-0 pool keeps shows; a raw search's pool is ef wide."""
    mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.1))
    _, queries = sample_queries(corpus, n_queries, seed=71)
    out = []
    for query in queries:
        for ef in efs + (corpus.n,):
            for mode in modes:
                k = ef if whole_pool else 10
                r = hnsw_search(index, corpus, query, k, ef, mode=mode, mask=mask, pool_size=ef)
                t = r.telemetry
                out.append((r.ids.tolist(), r.distances.tolist(),
                            t.distance_evaluations, t.nodes_visited,
                            t.predicate_invocations, t.centroid_evaluations))
    return out


def _old_formula_keys(query, rows, metric, divisors=None):
    """Keys recomputed from the rows by the matmul formulas, ignoring the
    divisors: the negated-quotient cosine form ``-(r·q) / (|q|·|r|)``."""
    return matmul_keys(query, np.atleast_2d(rows), metric)


@pytest.mark.parametrize("metric", [Metric.INNER_PRODUCT, Metric.COSINE])
def test_build_bytes_equal_the_old_key_formula(tmp_path, monkeypatch, metric):
    # every key of the build, the scorer's and the prune step's, swapped for
    # the formula without folded divisors must leave the graph file unchanged
    corpus = _varied_norm_corpus(metric, n=600, d=8, seed=9)
    save_hnsw(hnsw_build(corpus, 6, 24, seed=3), tmp_path / "real.idx")
    monkeypatch.setattr(hnsw_mod, "ordering_keys", _old_formula_keys)
    save_hnsw(hnsw_build(corpus, 6, 24, seed=3), tmp_path / "reference.idx")
    assert (tmp_path / "real.idx").read_bytes() == (tmp_path / "reference.idx").read_bytes()


class TestReferenceLoop:
    def test_searches_equal_the_reference(self, monkeypatch, corpus2k, hnsw2k):
        real = _search_answers(corpus2k, hnsw2k)
        _key_space_throughout(monkeypatch)
        assert _search_answers(corpus2k, hnsw2k) == real

    def test_build_bytes_equal_the_reference(self, tmp_path, monkeypatch, corpus2k, hnsw2k):
        save_hnsw(hnsw2k, tmp_path / "real.idx")
        _key_space_throughout(monkeypatch)
        save_hnsw(hnsw_build(corpus2k, 10, 50, seed=7), tmp_path / "reference.idx")
        assert (tmp_path / "real.idx").read_bytes() == (tmp_path / "reference.idx").read_bytes()


    def test_a_mid_walk_switch_returns_the_keys_its_pool_holds(self, monkeypatch):
        # Under inner product the key table a narrow walk builds mid-walk can
        # hold a row's key an ulp away from the lazy key its pool entry took:
        # each result must rank the pool's own (key, id) entries, bit for bit.
        # Whether a GEMV's call shape moves a key depends on the BLAS kernel,
        # so the every-row pass's keys are moved one ulp up here.
        corpus, index = _graph(Metric.INNER_PRODUCT, spread=True, dim=160)
        efs = (3, 10, 20)  # each below the table budget of 39
        assert max(efs) < hnsw_mod.table_budget(corpus.n, corpus.dim)

        def shape_dependent(query, rows, metric, divisors=None):
            keys = ordering_keys(query, rows, metric, divisors)
            return np.nextafter(keys, np.inf) if len(rows) == corpus.n else keys

        monkeypatch.setattr(hnsw_mod, "ordering_keys", shape_dependent)
        real = _search_answers(corpus, index, efs, whole_pool=True, n_queries=20)
        pools = []

        def recording(keys, adjacency, pool, ef, telemetry, bits=None):
            pool = _reference_search_layer(keys, adjacency, pool, ef, telemetry, bits)
            if adjacency is index.adjacency[0]:
                pools.append((keys, sorted((-negkey, node) for negkey, node in pool)))
            return pool

        _key_space_throughout(monkeypatch, recording)
        assert _search_answers(corpus, index, efs, whole_pool=True, n_queries=20) == real
        table_apart = 0
        for (ids, dists, *_), (keys, entries), mode in zip(real, pools, itertools.cycle(MODES)):
            if mode != "prefilter":  # the whole pool, its valid rows for the dual pool
                assert dists == [key for key, _ in entries]
                assert ids == [node for _, node in entries]
            if keys.complete and keys.lazy_budget:
                table_apart += any(key != keys.array[node] for key, node in entries)
        assert table_apart > 0


@pytest.fixture(scope="module", params=list(Metric), ids=lambda m: m.name)
def tied(request):
    """Every row of ``generate_synthetic(400, 8, 5)`` three times over (ids i,
    i + 400 and i + 800), so that a pool's worst key is often held by several
    nodes at once, and its M=6, efC=24 graph."""
    base = generate_synthetic(400, 8, 5)
    corpus = Corpus(np.tile(base.vectors, (3, 1)), np.tile(base.attribute, 3), request.param)
    return corpus, hnsw_build(corpus, 6, 24, seed=0)


class TestExactKeyTies:
    """On a corpus of exact duplicates a full pool often holds its worst key
    several times; the entry it evicts, and so every answer, must still be
    the reference loop's."""

    def test_searches_equal_the_reference(self, monkeypatch, tied):
        corpus, index = tied
        efs = (10, 100, corpus.n + 5)
        real = _search_answers(corpus, index, efs, whole_pool=True, n_queries=20)
        _key_space_throughout(monkeypatch)
        assert _search_answers(corpus, index, efs, whole_pool=True, n_queries=20) == real

    def test_build_bytes_equal_the_reference(self, tmp_path, monkeypatch, tied):
        corpus, index = tied
        save_hnsw(index, tmp_path / "real.idx")
        _key_space_throughout(monkeypatch)
        save_hnsw(hnsw_build(corpus, 6, 24, seed=0), tmp_path / "reference.idx")
        assert (tmp_path / "real.idx").read_bytes() == (tmp_path / "reference.idx").read_bytes()


class TestRankedResult:
    """``hnsw_search`` ranks the layer-0 pool once: int64 ids and float64
    keys in (key, id) order, in every mode, whether the pool was ever
    heapified or not, and when nothing in it is valid."""

    @staticmethod
    def _assert_ranked(result):
        assert result.ids.dtype == np.int64 and result.distances.dtype == np.float64
        entries = list(zip(result.distances.tolist(), result.ids.tolist()))
        assert entries == sorted(entries)

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_every_mode_ranks_by_key_then_id(self, tied, mode):
        corpus, index = tied
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.5))
        _, queries = sample_queries(corpus, 5, seed=72)
        for query in queries:
            # at ef > n the pool never fills, so it is never heapified
            for ef in (10, 100, corpus.n + 5):
                result = hnsw_search(index, corpus, query, ef, ef, mode=mode, mask=mask,
                                     pool_size=ef)
                assert len(result) > 0
                self._assert_ranked(result)

    @pytest.mark.parametrize("mode", ["prefilter", "dualpool"])
    def test_no_valid_entry_gives_empty_typed_arrays(self, tied, mode):
        corpus, index = tied
        empty = FilterMask(np.zeros(corpus.n, dtype=bool))
        result = hnsw_search(index, corpus, corpus.vectors[0], 10, 50, mode=mode, mask=empty)
        assert len(result) == 0
        self._assert_ranked(result)


_SEARCH_LAYER = hnsw_mod._search_layer


def _reference_greedy_descent(keys, adjacency, pool, ef, telemetry, bits=None):
    """``_search_layer`` with every ef=1 layer searched by a separate greedy
    walk, the reference for the layers above the target: from the one entry
    point, expand the current node and move to any neighbor with a smaller
    (key, id), until no neighbor improves. Wider searches run the real loop."""
    if ef > 1:
        return _SEARCH_LAYER(keys, adjacency, pool, ef, telemetry, bits)
    ((negkey, cur),) = pool
    cur_key = -negkey
    visited = {cur}
    improved = True
    while improved:
        improved = False
        for key, node in _reference_expand(keys, adjacency, cur, visited, telemetry):
            if (key, node) < (cur_key, cur):
                cur_key, cur = key, node
                improved = True
    return [(-cur_key, cur)]


class TestReferenceDescent:
    """The layers above the target, searched by ``_search_layer`` at ef=1,
    give what the greedy descent gave on a corpus without exact key ties.
    Every layer runs in key space here, so that each layer's width is
    recorded; the layers above layer 0 do on either path."""

    @staticmethod
    def _record_widths(monkeypatch, search_layer):
        widths = []

        def recording(keys, adjacency, entry_points, ef, telemetry, bits=None):
            widths.append(ef)
            return search_layer(keys, adjacency, entry_points, ef, telemetry, bits)

        _key_space_throughout(monkeypatch, recording)
        return widths

    def test_searches_equal_the_reference(self, monkeypatch, corpus2k, hnsw2k):
        widths = self._record_widths(monkeypatch, _SEARCH_LAYER)
        real = _search_answers(corpus2k, hnsw2k)
        assert hnsw2k.max_level >= 2
        per_query = [w for ef in EFS + (corpus2k.n,) for _ in MODES
                     for w in [1] * hnsw2k.max_level + [ef]]
        assert widths == per_query * 50
        self._record_widths(monkeypatch, _reference_greedy_descent)
        assert _search_answers(corpus2k, hnsw2k) == real

    def test_build_bytes_equal_the_reference(self, tmp_path, monkeypatch, corpus2k, hnsw2k):
        save_hnsw(hnsw2k, tmp_path / "real.idx")
        widths = self._record_widths(monkeypatch, _reference_greedy_descent)
        save_hnsw(hnsw_build(corpus2k, 10, 50, seed=7), tmp_path / "reference.idx")
        assert set(widths) == {1, 50}
        assert (tmp_path / "real.idx").read_bytes() == (tmp_path / "reference.idx").read_bytes()


class TestCosineZeroVectors:
    def test_zero_query_is_refused(self, corpus2k, hnsw2k):
        with pytest.raises(ValueError, match="zero vectors"):
            hnsw_search(hnsw2k, corpus2k, np.zeros(corpus2k.dim), 10, 50)

    def test_a_zero_row_fails_every_search(self, corpus2k, hnsw2k):
        # the zeroed row is the query's farthest, yet the corpus-wide norm
        # check refuses the search before any key is scored
        query = corpus2k.vectors[0]
        far = int(np.argmax(ordering_keys(query, corpus2k.vectors, corpus2k.metric)))
        vectors = corpus2k.vectors.copy()
        vectors[far] = 0.0
        zeroed = Corpus(vectors=vectors, attribute=corpus2k.attribute, metric=Metric.COSINE)
        with pytest.raises(ValueError, match="zero vectors"):
            hnsw_search(hnsw2k, zeroed, query, 10, 10)

    @pytest.mark.parametrize("row", [0, 1, 199])
    def test_build_refuses_a_zero_row(self, row):
        corpus = generate_synthetic(200, 8, seed=3)
        vectors = corpus.vectors.copy()
        vectors[row] = 0.0
        zeroed = Corpus(vectors=vectors, attribute=corpus.attribute, metric=Metric.COSINE)
        with pytest.raises(ValueError, match="zero vectors"):
            hnsw_build(zeroed, 5, 20, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_query_is_refused(corpus2k, hnsw2k, bad):
    query = corpus2k.vectors[3].copy()
    query[2] = bad
    with pytest.raises(ValueError, match="finite"):
        hnsw_search(hnsw2k, corpus2k, query, 10, 50)


class TestPersistence:
    def test_round_trip(self, tmp_path, corpus2k):
        index = hnsw_build(corpus2k, 5, 25, seed=11)
        path = tmp_path / "h.idx"
        save_hnsw(index, path)
        loaded = load_hnsw(path)
        assert loaded.m == index.m
        assert loaded.ef_construction == index.ef_construction
        assert loaded.seed == index.seed
        assert loaded.entry_point == index.entry_point
        assert loaded.max_level == index.max_level
        assert np.array_equal(loaded.levels, index.levels)
        assert loaded.adjacency == index.adjacency
        # saving the loaded index reproduces the bytes
        path2 = tmp_path / "h2.idx"
        save_hnsw(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_one_int_object_per_node(self, tmp_path, corpus2k, hnsw2k):
        # ids above 256 are not cached by CPython, so a list of its own per
        # link would give a node as many distinct ints as it has in-links
        save_hnsw(hnsw2k, tmp_path / "h.idx")
        loaded = load_hnsw(tmp_path / "h.idx")
        own = {node: node for node in loaded.adjacency[0]}
        assert loaded.entry_point is own[loaded.entry_point]
        for adjacency in loaded.adjacency:
            for node, links in adjacency.items():
                assert node is own[node]
                assert all(neigh is own[neigh] for neigh in links)

    def test_loaded_graph_searches_as_the_built_one(self, tmp_path, corpus2k, hnsw2k):
        save_hnsw(hnsw2k, tmp_path / "h.idx")
        loaded = load_hnsw(tmp_path / "h.idx")
        assert (_search_answers(corpus2k, loaded, modes=SEARCH_MODES)
                == _search_answers(corpus2k, hnsw2k, modes=SEARCH_MODES))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"ZZZZ" + b"\x00" * 40)
        with pytest.raises(HnswFormatError):
            load_hnsw(path)


def _counting_keys(monkeypatch):
    """Record the row count of every call through ``hnsw.ordering_keys``."""
    original, rows_seen = hnsw_mod.ordering_keys, []

    def counting(query, rows, *args):
        rows_seen.append(1 if np.ndim(rows) == 1 else len(rows))
        return original(query, rows, *args)

    monkeypatch.setattr(hnsw_mod, "ordering_keys", counting)
    return rows_seen


def _key_scale(corpus, query, ids):
    """The Cauchy-Schwarz bound on the keys to rows ``ids``: |q|·|row| under
    inner product, 1 under cosine. A key's rounding error is a few ulp of it,
    however close to 0 the key itself is."""
    if corpus.metric is Metric.COSINE:
        return np.ones(len(ids))
    return np.linalg.norm(query) * corpus.cosine_row_norms[ids]


def _record_insertions(monkeypatch):
    """The scorer of each insertion of the next build, carrying the row
    counts of the ``ordering_keys`` calls its own key calls made, in
    ``rows_seen`` (the overflow re-ranks' calls are left out), and the
    insertion's visits, counted as a search counts them, in ``telemetry``."""
    rows_seen = _counting_keys(monkeypatch)
    search_layer, insertions = hnsw_mod._search_layer, []

    class Recorded(hnsw_mod._Scorer):
        def __init__(self, corpus, query, width):
            super().__init__(corpus, query, width)
            self.rows_seen, self.telemetry = [], SearchTelemetry(nodes_visited=1)
            insertions.append(self)

        def fill(self, ids):
            start = len(rows_seen)
            super().fill(ids)
            self.rows_seen += rows_seen[start:]

    def recording_layer(keys, adjacency, pool, ef, telemetry, bits=None):
        return search_layer(keys, adjacency, pool, ef, keys.telemetry, bits)

    monkeypatch.setattr(hnsw_mod, "_Scorer", Recorded)
    monkeypatch.setattr(hnsw_mod, "_search_layer", recording_layer)
    return insertions


@pytest.fixture(scope="module")
def budget_graph():
    """A 601-row, 200-wide cosine corpus, whose key-table budget of
    601 * 206 / 2600 = 47.6 rows rounds up to 48, and its M=8, efC=40
    graph."""
    corpus = generate_synthetic(601, 200, 12)
    return corpus, hnsw_build(corpus, 8, 40, seed=0)


class TestSinglePassRule:
    """A search whose layer-0 width is at least ``table_budget(n, d)`` keys
    every row once, one ``row_blocks`` block at a time, before its first key;
    a narrower one keys lazily until its calls have keyed that many rows,
    then keys every row once. Each insertion of a build is a walk of width
    ``ef_construction`` under the same rule."""

    def test_the_budget_grows_with_the_rows_and_the_width(self):
        budget = hnsw_mod.table_budget
        assert budget(601, 200) == 48 and budget(3000, 16) == 26
        assert budget(20000, 16) == 170 and budget(5000, 768) == 1489
        for n, d in itertools.product((100, 601, 3000, 20000), (1, 8, 16, 200, 768)):
            assert 1 <= budget(n, d) < budget(n + 1000, d)
            assert budget(n, d) <= budget(n, d + 1) and budget(n, d) < budget(n, d + 200)

    def test_a_width_of_the_budget_keys_every_row_once(self, monkeypatch, budget_graph):
        corpus, index = budget_graph
        rows_seen = _counting_keys(monkeypatch)
        budget = hnsw_mod.table_budget(corpus.n, corpus.dim)
        result = hnsw_search(index, corpus, corpus.vectors[3], 10, budget)
        assert rows_seen == [corpus.n]
        assert result.telemetry.distance_evaluations == corpus.n
        assert result.telemetry.nodes_visited < corpus.n

    @staticmethod
    def _assert_switched_at_the_budget(corpus, index, rows_seen, telemetry):
        """Lazy calls of at most 2M rows that stop once they total the
        budget, then one pass over every row in ``row_blocks`` blocks, and the
        walk going on past it."""
        lazy = list(itertools.takewhile(lambda rows: rows <= 2 * index.m, rows_seen))
        assert sum(lazy[:-1]) < hnsw_mod.table_budget(corpus.n, corpus.dim) <= sum(lazy)
        assert rows_seen[len(lazy):] == [b.stop - b.start for b in row_blocks(corpus.n)]
        assert telemetry.distance_evaluations == sum(lazy) + corpus.n
        assert telemetry.nodes_visited > sum(lazy)

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_one_less_keys_per_expanded_node(self, monkeypatch, budget_graph, mode):
        # one key call per expanded node until the budget is keyed
        corpus, index = budget_graph
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.3))
        width = hnsw_mod.table_budget(corpus.n, corpus.dim) - 1
        rows_seen = _counting_keys(monkeypatch)
        result = hnsw_search(index, corpus, corpus.vectors[3], 10, width, mode=mode, mask=mask,
                             pool_size=width)
        self._assert_switched_at_the_budget(corpus, index, rows_seen, result.telemetry)

    def test_the_dual_pool_switches_mid_walk(self, monkeypatch, budget_graph):
        # an ef=10 dual pool at sigma = 0.1 walks on well past its budget:
        # filtered-out nodes keep it from filling its pool
        corpus, index = budget_graph
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.1))
        rows_seen = _counting_keys(monkeypatch)
        result = hnsw_search(index, corpus, corpus.vectors[3], 10, 10, mode="dualpool",
                             mask=mask)
        self._assert_switched_at_the_budget(corpus, index, rows_seen, result.telemetry)

    def test_the_raw_pool_sets_the_width(self, monkeypatch, budget_graph):
        corpus, index = budget_graph
        rows_seen = _counting_keys(monkeypatch)
        result = hnsw_search(index, corpus, corpus.vectors[3], 10, 10, mode="raw",
                             pool_size=hnsw_mod.table_budget(corpus.n, corpus.dim))
        assert rows_seen == [corpus.n]
        assert result.telemetry.distance_evaluations == corpus.n

    def test_an_insertion_at_the_budget_keys_every_row_first(self, monkeypatch, budget_graph):
        corpus, _ = budget_graph
        insertions = _record_insertions(monkeypatch)
        hnsw_build(corpus, 8, hnsw_mod.table_budget(corpus.n, corpus.dim), seed=0)
        assert len(insertions) == corpus.n - 1
        for keys in insertions:
            assert keys.rows_seen == [b.stop - b.start for b in row_blocks(corpus.n)]
            assert keys.lazy_rows == 0

    def test_a_narrower_insertion_switches_at_the_budget(self, monkeypatch, budget_graph):
        # efC = 40, under the budget of 48: the later insertions walk past it
        corpus, index = budget_graph
        insertions = _record_insertions(monkeypatch)
        hnsw_build(corpus, index.m, index.ef_construction, seed=0)
        assert any(keys.complete for keys in insertions)
        for keys in insertions:
            if keys.complete:
                keys.telemetry.distance_evaluations = keys.lazy_rows + corpus.n
                self._assert_switched_at_the_budget(corpus, index, keys.rows_seen, keys.telemetry)
            else:
                assert max(keys.rows_seen) <= 2 * index.m
                assert keys.lazy_rows == sum(keys.rows_seen)

    def test_a_search_leaves_no_reference_cycle(self, monkeypatch, budget_graph):
        # a cycle through the scorer would hold each search's key table until
        # the cyclic garbage collector ran
        corpus, index = budget_graph
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.3))
        walks = _count_rank_walks(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            # a mid-walk switch, a table built first (walked in rank space at
            # 20 * 150 >= 601), and a rank-space dual pool
            for ef, mode in ((10, "unfiltered"), (150, "unfiltered"), (150, "dualpool")):
                result = hnsw_search(index, corpus, corpus.vectors[3], 10, ef, mode=mode,
                                     mask=mask)
            del result
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0
        assert walks == [2]

    @pytest.mark.parametrize("metric", [Metric.INNER_PRODUCT, Metric.COSINE])
    def test_the_pass_keys_in_the_exact_scans_blocks(self, monkeypatch, metric):
        # past one block, each key is still the unmasked exact scan's, bit for bit
        rng = np.random.default_rng(80 + metric.value)
        n = 2 * ROW_BLOCK + 1
        vectors = rng.standard_normal((n, 16)) * rng.uniform(0.5, 2, size=(n, 1))
        corpus = Corpus(vectors.astype(np.float32), rng.uniform(size=n), metric)
        query = rng.standard_normal(16)
        rows_seen = _counting_keys(monkeypatch)
        keys = hnsw_mod._Scorer(corpus, query, corpus.n)  # a walk past the budget
        exact = exact_knn(corpus, query, n)
        assert np.array_equal(_keys_of(keys, exact.ids.tolist()), exact.distances)
        assert rows_seen == [ROW_BLOCK, ROW_BLOCK + 1]


def _graph(metric, spread, dim=8):
    """600 Gaussian rows, unit-norm or with norms spread over 0.5..2, under
    ``metric``, and their M=8, efC=40 graph."""
    rng = np.random.default_rng(14)
    vectors = rng.standard_normal((600, dim))
    if spread:
        vectors *= rng.uniform(0.5, 2, size=(600, 1))
    else:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    corpus = Corpus(vectors.astype(np.float32), rng.uniform(size=600), metric)
    return corpus, hnsw_build(corpus, 8, 40, seed=0)


@pytest.fixture(scope="module", params=list(Metric), ids=lambda m: m.name)
def spread_graph(request):
    """The spread-norm graph under each metric; the inner-product one leaves
    rows that layer 0 does not reach."""
    return _graph(request.param, spread=True)


@pytest.fixture(scope="module", params=list(Metric), ids=lambda m: m.name)
def unit_graph(request):
    return _graph(request.param, spread=False)


@pytest.fixture(scope="module", params=list(Metric), ids=lambda m: m.name)
def wide_graph(request):
    """The spread-norm graph at d = 160, whose key-table budget of
    ceil(600 * 166 / 2600) = 39 rows a narrow search passes on layer 0."""
    return _graph(request.param, spread=True, dim=160)


class TestBuildEqualsLazy:
    """A build under the one key-source rule saves the bytes of the same build
    keyed lazily throughout."""

    @staticmethod
    def _check(tmp_path, monkeypatch, corpus, index):
        save_hnsw(index, tmp_path / "rule.idx")
        _lazy_throughout(monkeypatch)
        lazy = hnsw_build(corpus, index.m, index.ef_construction, index.seed)
        save_hnsw(lazy, tmp_path / "lazy.idx")
        assert (tmp_path / "rule.idx").read_bytes() == (tmp_path / "lazy.idx").read_bytes()

    @pytest.mark.parametrize("dim", [8, 160])
    @pytest.mark.parametrize("spread", [False, True], ids=["unit", "spread"])
    @pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.name)
    def test_the_600_row_graphs(self, tmp_path, monkeypatch, metric, spread, dim):
        self._check(tmp_path, monkeypatch, *_graph(metric, spread, dim))

    def test_the_budget_graph(self, tmp_path, monkeypatch, budget_graph):
        self._check(tmp_path, monkeypatch, *budget_graph)

    def test_the_2k_graph(self, tmp_path, monkeypatch, corpus2k, hnsw2k):
        self._check(tmp_path, monkeypatch, corpus2k, hnsw2k)


class TestSinglePassEqualsLazy:
    """Searches that build the key table, before their first key or mid-walk,
    against the same searches keyed lazily throughout."""

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_ids_and_visits_equal_the_lazy_search(self, monkeypatch, wide_graph, mode):
        corpus, index = wide_graph
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.3))
        _, queries = sample_queries(corpus, 15, seed=73)
        queries = queries + np.random.default_rng(74).normal(0, 0.05, queries.shape)

        def answers():
            out = []
            for query in queries:
                for ef in (3, 10, 20, 60, 150, 300, corpus.n):  # the budget is 39
                    r = hnsw_search(index, corpus, query, ef, ef, mode=mode, mask=mask,
                                    pool_size=ef)
                    t = r.telemetry
                    out.append((query, r.ids, r.distances,
                                (t.nodes_visited, t.predicate_invocations)))
            return out

        scorer, switched_mid_walk = hnsw_mod._Scorer, []

        def recording(corpus, query, width):
            keys = scorer(corpus, query, width)
            if width < hnsw_mod.table_budget(corpus.n, corpus.dim):
                switched_mid_walk.append(keys)
            return keys

        monkeypatch.setattr(hnsw_mod, "_Scorer", recording)
        single = answers()
        assert any(keys.complete for keys in switched_mid_walk)
        # the reference: every search keyed lazily, whatever its width, and
        # walked by the key-space reference loop on every layer
        monkeypatch.setattr(hnsw_mod, "_Scorer", scorer)
        _lazy_throughout(monkeypatch)
        _key_space_throughout(monkeypatch)
        for (query, ids, keys, counts), (_, lazy_ids, lazy_keys, lazy_counts) in zip(
                single, answers()):
            assert np.array_equal(ids, lazy_ids) and counts == lazy_counts
            if corpus.metric is Metric.L2:
                assert np.array_equal(keys, lazy_keys)
            else:
                ulp = np.spacing(_key_scale(corpus, query, ids))
                assert np.all(np.abs(keys - lazy_keys) <= 4 * ulp)


class TestFullBudgetDifferential:
    """At ef = n the beam and the dual pool never fill their pools, so layer 0
    returns every row it reaches from where the descent lands (the valid ones
    for the dual pool): the oracle's top k over those rows. The search keys
    them in the unmasked exact scan's blocks, so the keys are the oracle's bit
    for bit."""

    @staticmethod
    def _landing(monkeypatch, index, space):
        """Record the layer-0 entry node of each search, whose layer-0 walk
        runs in ``space``: "rank", as the rule has it at ef = n, or "key",
        where the key-space reference loop walks every layer."""
        if space == "key":
            _key_space_throughout(monkeypatch)
        landed = []

        def recording(search):
            def layer(keys, adjacency, pool, ef, telemetry, bits=None):
                if adjacency is index.adjacency[0]:
                    ((_, node),) = pool
                    landed.append(node)
                return search(keys, adjacency, pool, ef, telemetry, bits)
            return layer

        for name in ("_search_layer", "_search_ranks"):
            monkeypatch.setattr(hnsw_mod, name, recording(getattr(hnsw_mod, name)))
        return landed

    @staticmethod
    def _reached(index, start):
        adjacency, seen, frontier = index.adjacency[0], {start}, {start}
        while frontier:
            frontier = {v for u in frontier for v in adjacency[u]} - seen
            seen |= frontier
        return seen

    @pytest.mark.parametrize("space", ["rank", "key"])
    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_unit_norm_graphs_equal_the_oracle(self, monkeypatch, unit_graph, mode, space):
        assert layer0_unreachable(unit_graph[1]) == 0
        self._check(monkeypatch, unit_graph, mode, space)

    @pytest.mark.parametrize("space", ["rank", "key"])
    @pytest.mark.parametrize("mode", SEARCH_MODES)
    def test_spread_norm_graphs_equal_the_oracle_over_reached_rows(
            self, monkeypatch, spread_graph, mode, space):
        if spread_graph[0].metric is Metric.INNER_PRODUCT:
            # the rows the differential must step round (60 of 600)
            assert layer0_unreachable(spread_graph[1]) > 0
        self._check(monkeypatch, spread_graph, mode, space)

    def _check(self, monkeypatch, graph, mode, space):
        corpus, index = graph
        unreachable = layer0_unreachable(index)
        report = f"{unreachable} of {corpus.n} rows unreachable on layer 0"
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.3))
        valid = mask.bits if mode in ("prefilter", "dualpool") else np.ones(corpus.n, bool)
        k = corpus.n if mode == "raw" else 10
        walks = _count_rank_walks(monkeypatch)
        landed = self._landing(monkeypatch, index, space)
        rng = np.random.default_rng(75)
        for query in rng.standard_normal((20, corpus.dim)):
            result = hnsw_search(index, corpus, query, k, corpus.n, mode=mode, mask=mask,
                                 pool_size=corpus.n)
            ranked = exact_knn(corpus, query, corpus.n)
            reached = np.zeros(corpus.n, bool)
            reached[list(self._reached(index, landed[-1]))] = True
            keep = (reached & valid)[ranked.ids]
            assert np.array_equal(result.ids, ranked.ids[keep][:k]), report
            assert np.array_equal(result.distances, ranked.distances[keep][:k]), report
            if unreachable == 0:
                oracle = exact_knn(corpus, query, k, mask if valid is mask.bits else None)
                assert np.array_equal(result.ids, oracle.ids), report
                assert np.array_equal(result.distances, oracle.distances), report
        assert walks[0] == (20 if space == "rank" else 0)


@pytest.fixture(scope="module", params=list(Metric), ids=lambda m: m.name)
def rank_graphs(request, tmp_path_factory):
    """The spread-norm 600-row graph under each metric, built and loaded."""
    corpus, index = _graph(request.param, spread=True)
    path = tmp_path_factory.mktemp("rank") / "graph.idx"
    save_hnsw(index, path)
    return corpus, {"built": index, "loaded": load_hnsw(path)}


class TestRankSpace:
    """A search whose scorer keys every row first and whose width pays for
    ranking the key table (``ranks_pay``) walks layer 0 in rank space, with
    the ids, keys and counters of the key-space reference loop; every other
    walk stays in key space."""

    SIGMAS = (0.01, 0.1, 0.5)

    @classmethod
    def _answers(cls, corpus, index, n_queries=15):
        """Ids, keys and all four counters of the beam, raw and prefilter
        searches at ef = 10, 100 and n, with k = ef, and of the dual pool at
        each of ``SIGMAS`` at ef = 10 and 100, with k = 10."""
        masks = [build_mask(corpus, threshold_for_selectivity(corpus, s)) for s in cls.SIGMAS]
        _, queries = sample_queries(corpus, n_queries, seed=76)
        searches = [(ef, mode, masks[1]) for ef in (10, 100, corpus.n)
                    for mode in ("unfiltered", "raw", "prefilter")]
        searches += [(ef, "dualpool", mask) for ef in (10, 100) for mask in masks]
        out = []
        for query in queries:
            for ef, mode, mask in searches:
                k = 10 if mode == "dualpool" else ef
                r = hnsw_search(index, corpus, query, k, ef, mode=mode, mask=mask, pool_size=ef)
                t = r.telemetry
                out.append((r.ids.tolist(), r.distances.tolist(),
                            t.distance_evaluations, t.nodes_visited,
                            t.predicate_invocations, t.centroid_evaluations))
        return out

    @pytest.mark.parametrize("graph", ["built", "loaded"])
    def test_searches_equal_the_key_space_reference(self, monkeypatch, rank_graphs, graph):
        corpus, indexes = rank_graphs
        index = indexes[graph]
        walks = _count_rank_walks(monkeypatch)
        real = self._answers(corpus, index)
        # per query: ef = 100 and n in all three modes, and the dual pool at
        # ef = 100 and at ef = 10 for sigma = 0.01 and 0.1 (20 * 10 < 300)
        assert walks == [15 * 11]
        _key_space_throughout(monkeypatch)
        assert self._answers(corpus, index) == real
        assert walks == [15 * 11]

    def test_the_rule(self):
        assert hnsw_mod.ranks_pay(150, 3000) and not hnsw_mod.ranks_pay(149, 3000)
        assert hnsw_mod.ranks_pay(100, 300) and hnsw_mod.ranks_pay(100, 2000)
        assert not hnsw_mod.ranks_pay(100, 2001)

    def test_a_wide_search_walks_in_rank_space(self, monkeypatch, corpus2k, hnsw2k):
        walks = _count_rank_walks(monkeypatch)
        query = corpus2k.vectors[7]
        hnsw_search(hnsw2k, corpus2k, query, 10, 10)
        hnsw_search(hnsw2k, corpus2k, query, 10, 99)  # 20 * 99 < 2000
        assert walks == [0]
        hnsw_search(hnsw2k, corpus2k, query, 10, 100)
        hnsw_search(hnsw2k, corpus2k, query, 10, corpus2k.n, mode="raw", pool_size=500)
        assert walks == [2]

    def test_no_build_insertion_walks_in_rank_space(self, monkeypatch, budget_graph):
        # ef_construction = 200 is past the key-table budget and pays by the
        # rule (20 * 200 >= 601), yet every insertion stays in key space
        corpus, _ = budget_graph
        walks = _count_rank_walks(monkeypatch)
        rankings = []
        monkeypatch.setattr(hnsw_mod._Scorer, "rank", lambda keys: rankings.append(keys))
        hnsw_build(corpus, 8, 200, seed=0)
        assert walks == [0] and rankings == []

    def test_a_tied_table_falls_back_to_key_space(self, monkeypatch, tied):
        corpus, index = tied
        walks = _count_rank_walks(monkeypatch)
        efs = (100, corpus.n)  # both pay by the rule
        real = _search_answers(corpus, index, efs, whole_pool=True, n_queries=10)
        assert walks == [0]
        _key_space_throughout(monkeypatch)
        assert _search_answers(corpus, index, efs, whole_pool=True, n_queries=10) == real

    def test_signed_zero_keys_fall_back_to_key_space(self, monkeypatch):
        # -0.0 == 0.0, so a table holding both has a tie: the rank path would
        # order the two rows by argsort, key space orders them by id. Under
        # L2 they are the two nearest rows.
        corpus, index = _graph(Metric.L2, spread=True)

        def signed_zeros(query, rows, metric, divisors=None):
            keys = ordering_keys(query, rows, metric, divisors)
            if len(rows) == corpus.n:
                keys[[5, 9]] = -0.0, 0.0
            return keys

        monkeypatch.setattr(hnsw_mod, "ordering_keys", signed_zeros)
        walks = _count_rank_walks(monkeypatch)
        real = _search_answers(corpus, index, (100,), whole_pool=True, n_queries=10)
        assert walks == [0]
        assert sum(ids[:2] == [5, 9] for ids, *_ in real) > 0
        _key_space_throughout(monkeypatch)
        assert _search_answers(corpus, index, (100,), whole_pool=True, n_queries=10) == real

    def test_an_infinite_key_walks_as_in_key_space(self, monkeypatch):
        # one row keyed +inf leaves the table without a tie; key space never
        # admits it to a pool that has room (inf < inf fails), nor may the
        # rank path, whose worst starts at the rank an inf key takes
        corpus, index = _graph(Metric.L2, spread=True)
        query = corpus.vectors[3]
        near = exact_knn(corpus, query, 5).ids.tolist()

        def one_infinite(query, rows, metric, divisors=None):
            keys = ordering_keys(query, rows, metric, divisors)
            if len(rows) == corpus.n:
                keys[near[2]] = np.inf
            return keys

        monkeypatch.setattr(hnsw_mod, "ordering_keys", one_infinite)
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.3))

        def answers():
            out = []
            for mode in ("unfiltered", "dualpool"):
                r = hnsw_search(index, corpus, query, corpus.n, corpus.n, mode=mode, mask=mask)
                assert near[2] not in r.ids.tolist() and np.isfinite(r.distances).all()
                t = r.telemetry
                out.append((r.ids.tolist(), r.distances.tolist(), t.nodes_visited,
                            t.predicate_invocations))
            return out

        walks = _count_rank_walks(monkeypatch)
        real = answers()
        assert walks == [2]
        # the reference loop admits to a pool with room whatever the key, so
        # the key-space side here is _search_layer itself
        _key_space_throughout(monkeypatch, hnsw_mod._search_layer)
        assert answers() == real
