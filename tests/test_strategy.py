import numpy as np
import pytest

from fanns import corpus, gls, hnsw, ivfflat, oracle, strategy
from fanns.corpus import (
    Corpus,
    FilterMask,
    Metric,
    build_mask,
    ordering_keys,
    threshold_for_selectivity,
)
from fanns.hnsw import hnsw_build, hnsw_search
from fanns.ivfflat import ivf_build
from fanns.oracle import exact_knn
from fanns.strategy import (
    ConfigurationError,
    PlanKind,
    SearchParams,
    StrategyPlan,
    execute,
)

from conftest import sample_queries

PARAMS = SearchParams(ef_search=100, n_probe=10)
APPROXIMATE = [PlanKind.PRE_ANNS, PlanKind.POST, PlanKind.RUNTIME, PlanKind.ADAPTIVE_AUTO]
SEARCH_FOR = {"hnsw2k": "hnsw_search", "ivf2k": "ivf_search"}


def _recall(record, gt):
    if len(gt) == 0:
        return 1.0
    hits = len(set(record.results.ids.tolist()) & set(gt.ids.tolist()))
    return hits / len(gt)


@pytest.fixture(scope="module")
def mask02(corpus2k):
    return build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.2))


@pytest.fixture(scope="module")
def mask005(corpus2k):
    return build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.05))


class TestPlanValidation:
    def test_expansion_below_one(self):
        with pytest.raises(ConfigurationError):
            StrategyPlan(PlanKind.POST, expansion=0.5)

    @pytest.mark.parametrize("kind", APPROXIMATE, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("family", sorted(SEARCH_FOR))
    def test_missing_search_param(self, request, corpus2k, mask02, family, kind):
        # each family is given only the other family's budget
        index = request.getfixturevalue(family)
        params = SearchParams(n_probe=3) if family == "hnsw2k" else SearchParams(ef_search=100)
        with pytest.raises(ConfigurationError):
            execute(index, corpus2k, corpus2k.vectors[0], 5, mask02, StrategyPlan(kind), params)

    def test_unsupported_index_type(self, corpus2k, mask02):
        with pytest.raises(ConfigurationError):
            execute(object(), corpus2k, corpus2k.vectors[0], 5, mask02,
                    StrategyPlan(PlanKind.PRE_ANNS), PARAMS)

    def test_runtime_requires_mask(self, corpus2k, hnsw2k):
        with pytest.raises(ConfigurationError):
            execute(hnsw2k, corpus2k, corpus2k.vectors[0], 5, None,
                    StrategyPlan(PlanKind.RUNTIME), PARAMS)


class TestPreExact:
    def test_recall_is_one(self, corpus2k, hnsw2k, mask02):
        _, queries = sample_queries(corpus2k, 20, seed=90)
        for query in queries:
            record = execute(hnsw2k, corpus2k, query, 10, mask02,
                             StrategyPlan(PlanKind.PRE_EXACT), PARAMS)
            gt = exact_knn(corpus2k, query, 10, mask02)
            assert record.results.ids.tolist() == gt.ids.tolist()

    def test_latency_and_qps(self, corpus2k, hnsw2k, mask02):
        record = execute(hnsw2k, corpus2k, corpus2k.vectors[0], 10, mask02,
                         StrategyPlan(PlanKind.PRE_EXACT), PARAMS)
        assert record.latency > 0
        assert record.qps == pytest.approx(1.0 / record.latency)


class TestAdaptiveAuto:
    def test_low_selectivity_falls_back_to_exact(self, corpus2k, hnsw2k, mask005):
        query = corpus2k.vectors[8]
        record = execute(hnsw2k, corpus2k, query, 10, mask005,
                         StrategyPlan(PlanKind.ADAPTIVE_AUTO), PARAMS)
        assert record.plan_chosen is PlanKind.PRE_EXACT
        assert record.telemetry.fallback_used
        gt = exact_knn(corpus2k, query, 10, mask005)
        assert record.results.ids.tolist() == gt.ids.tolist()

    def test_high_selectivity_stays_approximate(self, corpus2k, hnsw2k):
        mask = build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.5))
        record = execute(hnsw2k, corpus2k, corpus2k.vectors[8], 10, mask,
                         StrategyPlan(PlanKind.ADAPTIVE_AUTO), PARAMS)
        assert record.plan_chosen is PlanKind.PRE_ANNS

    def test_safety_net_fills_short_results(self, corpus2k, hnsw2k):
        # 2000 * 0.9 = 1800 invalid; ratio 0.9 < 0.93 so no upfront fallback,
        # but valid_count < k forces the post-search safety net
        bits = np.zeros(corpus2k.n, dtype=bool)
        bits[: int(corpus2k.n * 0.1)] = True
        rng = np.random.default_rng(4)
        rng.shuffle(bits)
        mask = FilterMask(bits)
        for qid in (0, 100, 200):
            record = execute(hnsw2k, corpus2k, corpus2k.vectors[qid], 10, mask,
                             StrategyPlan(PlanKind.ADAPTIVE_AUTO), SearchParams(ef_search=10))
            assert len(record.results) == min(10, mask.valid_count)

    def test_unfiltered_runs_plain_search(self, corpus2k, hnsw2k):
        record = execute(hnsw2k, corpus2k, corpus2k.vectors[1], 10, None,
                         StrategyPlan(PlanKind.ADAPTIVE_AUTO), PARAMS)
        assert record.plan_chosen is PlanKind.PRE_ANNS
        assert len(record.results) == 10


class TestPost:
    def test_recall_below_preanns_at_unit_expansion(self, corpus2k, hnsw2k):
        mask = build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.1))
        _, queries = sample_queries(corpus2k, 100, seed=91)
        post = pre = 0.0
        for query in queries:
            gt = exact_knn(corpus2k, query, 10, mask)
            post += _recall(
                execute(hnsw2k, corpus2k, query, 10, mask,
                        StrategyPlan(PlanKind.POST, expansion=1.0), PARAMS), gt)
            pre += _recall(
                execute(hnsw2k, corpus2k, query, 10, mask,
                        StrategyPlan(PlanKind.PRE_ANNS), PARAMS), gt)
        assert post < pre

    def test_recall_nondecreasing_in_expansion(self, corpus2k, hnsw2k, mask02):
        _, queries = sample_queries(corpus2k, 50, seed=92)
        means = []
        for expansion in (1.0, 2.0, 8.0):
            total = 0.0
            for query in queries:
                gt = exact_knn(corpus2k, query, 10, mask02)
                total += _recall(
                    execute(hnsw2k, corpus2k, query, 10, mask02,
                            StrategyPlan(PlanKind.POST, expansion=expansion), PARAMS), gt)
            means.append(total / len(queries))
        assert means[0] <= means[1] + 0.02 <= means[2] + 0.04

    def test_only_valid_ids(self, corpus2k, ivf2k, mask02):
        record = execute(ivf2k, corpus2k, corpus2k.vectors[7], 10, mask02,
                         StrategyPlan(PlanKind.POST), PARAMS)
        assert mask02.bits[record.results.ids].all()

    @pytest.mark.parametrize("family", sorted(SEARCH_FOR))
    def test_every_pool_bit_is_counted(self, request, monkeypatch, corpus2k, mask02, family):
        pools = []
        name = SEARCH_FOR[family]

        def recording(*args, _search=getattr(strategy, name), **kwargs):
            result = _search(*args, **kwargs)
            pools.append(len(result))
            return result

        monkeypatch.setattr(strategy, name, recording)
        record = execute(request.getfixturevalue(family), corpus2k, corpus2k.vectors[7], 10,
                         mask02, StrategyPlan(PlanKind.POST), PARAMS)
        assert len(pools) == 1 and pools[0] > 10
        assert record.telemetry.predicate_invocations == pools[0]


class TestRuntime:
    def test_matches_prefilter_ids_on_hnsw(self, corpus2k, hnsw2k, mask02):
        _, queries = sample_queries(corpus2k, 30, seed=93)
        for query in queries:
            record = execute(hnsw2k, corpus2k, query, 10, mask02,
                             StrategyPlan(PlanKind.RUNTIME), PARAMS)
            reference = hnsw_search(hnsw2k, corpus2k, query, 10, 100,
                                    mode="prefilter", mask=mask02)
            assert record.results.ids.tolist() == reference.ids.tolist()

    def test_invocation_counts(self, corpus2k, hnsw2k, mask02):
        record = execute(hnsw2k, corpus2k, corpus2k.vectors[3], 10, mask02,
                         StrategyPlan(PlanKind.RUNTIME), SearchParams(ef_search=50))
        count = record.telemetry.predicate_invocations
        assert 1 <= count <= corpus2k.n
        assert count < corpus2k.n
        assert count <= 50  # only pool members are ever tested
        raw = hnsw_search(hnsw2k, corpus2k, corpus2k.vectors[3], 50, 50, mode="raw", pool_size=50)
        assert count == len(raw)

    def test_single_row_corpus(self):
        corpus = Corpus(vectors=np.ones((1, 2), dtype=np.float32),
                        attribute=np.ones(1), metric=Metric.L2)
        index = hnsw_build(corpus, 2, 2, seed=0)
        mask = FilterMask(np.ones(1, dtype=bool))
        record = execute(index, corpus, corpus.vectors[0], 1, mask,
                         StrategyPlan(PlanKind.RUNTIME), SearchParams(ef_search=4))
        assert record.telemetry.predicate_invocations == 1

    def test_runtime_on_ivf(self, corpus2k, ivf2k, mask02):
        query = corpus2k.vectors[15]
        record = execute(ivf2k, corpus2k, query, 10, mask02,
                         StrategyPlan(PlanKind.RUNTIME), PARAMS)
        reference = execute(ivf2k, corpus2k, query, 10, mask02,
                            StrategyPlan(PlanKind.PRE_ANNS), PARAMS)
        assert record.results.ids.tolist() == reference.results.ids.tolist()
        # every row of the n_probe nearest lists is tested, and no other row
        keys = ordering_keys(query, ivf2k.centroids, ivf2k.metric)
        probed = np.lexsort((np.arange(ivf2k.n_clusters), keys))[: PARAMS.n_probe]
        assert record.telemetry.predicate_invocations == sum(len(ivf2k.lists[c]) for c in probed)


class TestMaskFreeExecution:
    @pytest.mark.parametrize("kind", [PlanKind.PRE_ANNS, PlanKind.PRE_EXACT, PlanKind.POST])
    def test_unfiltered_plans(self, corpus2k, hnsw2k, kind):
        record = execute(hnsw2k, corpus2k, corpus2k.vectors[77], 10, None,
                         StrategyPlan(kind), PARAMS)
        assert len(record.results) == 10
        gt = exact_knn(corpus2k, corpus2k.vectors[77], 10)
        assert _recall(record, gt) > 0.0


class TestOracleDifferential:
    """Plans that score every candidate row return the oracle's answer under
    L2 and inner product too: IVFFlat probing all C lists, and the exact
    plans. Masked Post is left out, because its pool is only a few k wide."""

    @pytest.mark.parametrize("metric", [Metric.L2, Metric.INNER_PRODUCT])
    def test_exhaustive_plans_match_the_oracle(self, metric):
        rng = np.random.default_rng(80 + metric.value)
        n, d = 1500, 8
        vectors = rng.standard_normal((n, d)) * rng.uniform(0.5, 2, size=(n, 1))
        corpus = Corpus(vectors.astype(np.float32), rng.uniform(size=n), metric)
        index = ivf_build(corpus, 20, seed=3)
        params = SearchParams(n_probe=index.n_clusters)
        masks = [None] + [
            build_mask(corpus, threshold_for_selectivity(corpus, sigma))
            for sigma in (0.01, 0.1, 0.5)
        ]
        queries = rng.standard_normal((25, d)) * rng.uniform(0.5, 2, size=(25, 1))
        checked = 0
        for mask in masks:
            # Runtime needs a mask; masked Post is not exhaustive
            left_out = PlanKind.RUNTIME if mask is None else PlanKind.POST
            for kind in PlanKind:
                if kind is left_out:
                    continue
                for query in queries:
                    gt = exact_knn(corpus, query, 10, mask)
                    got = execute(index, corpus, query, 10, mask, StrategyPlan(kind), params)
                    assert got.results.ids.tolist() == gt.ids.tolist()
                    assert np.allclose(got.results.distances, gt.distances)
                    checked += 1
        assert checked == 16 * len(queries)


class TestTraceSites:
    """Index searches are looked up through the module names that tracing wraps."""

    @pytest.mark.parametrize("kind", APPROXIMATE, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("family", sorted(SEARCH_FOR))
    def test_one_wrapped_search_per_plan(self, request, monkeypatch, corpus2k, mask02,
                                         family, kind):
        calls = []
        for name in SEARCH_FOR.values():
            def counting(*args, _search=getattr(strategy, name), _name=name, **kwargs):
                calls.append(_name)
                return _search(*args, **kwargs)
            monkeypatch.setattr(strategy, name, counting)
        record = execute(request.getfixturevalue(family), corpus2k, corpus2k.vectors[0], 10,
                         mask02, StrategyPlan(kind), PARAMS)
        assert not record.telemetry.fallback_used
        assert calls == [SEARCH_FOR[family]]

    def test_wrapped_names_exist(self):
        assert callable(gls.hnsw_search) and callable(gls.ivf_search)
        for module in (corpus, hnsw, ivfflat, oracle, gls):
            assert callable(module.ordering_keys)


@pytest.fixture(scope="module")
def small300():
    c = corpus.generate_synthetic(300, 8, seed=5)
    return c, hnsw_build(c, 5, 20, seed=0), ivf_build(c, 10, seed=0)


# every entry point that takes a mask, called on (corpus, hnsw, ivf, query, mask)
MASK_ENTRY_POINTS = {
    "execute": lambda c, h, i, q, m: execute(
        h, c, q, 10, m, StrategyPlan(PlanKind.POST), PARAMS),
    "exact_knn": lambda c, h, i, q, m: exact_knn(c, q, 10, m),
    "hnsw_search": lambda c, h, i, q, m: hnsw_search(h, c, q, 10, 50, mode="dualpool", mask=m),
    "ivf_search": lambda c, h, i, q, m: ivfflat.ivf_search(i, c, q, 10, 3, mask=m),
    "gls_exact": lambda c, h, i, q, m: gls.gls_exact(c, q, m, 50),
    "gls_approx": lambda c, h, i, q, m: gls.gls_approx(c, h, q, m, 50, sample_size=100),
    "distance_correlation": lambda c, h, i, q, m: gls.distance_correlation(c, [(q, m)]),
}


@pytest.mark.parametrize("rows", [200, 600], ids=["short", "long"])
@pytest.mark.parametrize("entry", sorted(MASK_ENTRY_POINTS))
def test_a_mask_for_another_corpus_is_refused(small300, entry, rows):
    c, h, i = small300
    mask = FilterMask(np.arange(rows) % 2 == 0)
    with pytest.raises(ValueError, match=f"mask has {rows} bits; the corpus has 300 rows"):
        MASK_ENTRY_POINTS[entry](c, h, i, c.vectors[7], mask)


# every search entry point but execute that takes k, called on
# (corpus, hnsw, ivf, query, k)
K_ENTRY_POINTS = {
    "exact_knn": lambda c, h, i, q, k: exact_knn(c, q, k),
    "hnsw_search": lambda c, h, i, q, k: hnsw_search(h, c, q, k, 10),
    "ivf_search": lambda c, h, i, q, k: ivfflat.ivf_search(i, c, q, k, 3),
}


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("entry", sorted(K_ENTRY_POINTS))
def test_k_below_one_is_refused(small300, entry, k):
    c, h, i = small300
    with pytest.raises(ValueError, match="k must be >= 1"):
        K_ENTRY_POINTS[entry](c, h, i, c.vectors[7], k)


@pytest.mark.parametrize("kind", list(PlanKind), ids=lambda kind: kind.value)
def test_execute_refuses_k_below_one(small300, kind):
    c, h, i = small300
    for index in (h, i):
        for k in (0, -3):
            with pytest.raises(ValueError, match="k must be >= 1"):
                execute(index, c, c.vectors[7], k, build_mask(c, 0.5), StrategyPlan(kind), PARAMS)
