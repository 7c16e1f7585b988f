import numpy as np
import pytest

from fanns.bench import (
    DEFAULT_KS,
    DEFAULT_TARGETS,
    RESULTS_HEADER,
    IndexConfig,
    build_index,
    load_results_csv,
    make_workload,
    pareto_frontier,
    recall_at_k,
    run_experiment,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from fanns.corpus import Corpus, Metric, generate_synthetic
from fanns.hnsw import hnsw_build
from fanns.ivfflat import ivf_build
from fanns.oracle import exact_knn
from fanns.strategy import PlanKind, SearchParams, StrategyPlan, execute
from fanns.telemetry import SearchResult


class TestMakeWorkload:
    def test_default_grid_arithmetic(self, corpus2k):
        workload = make_workload(corpus2k, 10, seed=1)
        assert len(workload.filters) == len(DEFAULT_TARGETS) + 1
        assert workload.ks == DEFAULT_KS
        assert workload.n_instances == 10 * 7 * 4

    def test_determinism(self, corpus2k):
        a = make_workload(corpus2k, 50, seed=5)
        b = make_workload(corpus2k, 50, seed=5)
        assert np.array_equal(a.query_ids, b.query_ids)

    def test_realized_selectivity_close(self, corpus2k):
        workload = make_workload(corpus2k, 10, seed=2)
        for spec in workload.filters:
            if spec.target_sigma is not None:
                assert abs(spec.realized_sigma - spec.target_sigma) / spec.target_sigma <= 0.10

    def test_unreachable_target_warns(self):
        corpus = Corpus(
            vectors=np.zeros((50, 2), dtype=np.float32),
            attribute=np.full(50, 3.0),
            metric=Metric.L2,
        )
        with pytest.warns(UserWarning):
            make_workload(corpus, 5, targets=[0.5], ks=[1], seed=0)

    def test_query_count_validation(self, corpus2k):
        with pytest.raises(ValueError):
            make_workload(corpus2k, corpus2k.n + 1, seed=0)


class TestRecallAtK:
    def test_exact_match(self):
        gt = SearchResult(np.array([1, 2, 3]), np.array([0.1, 0.2, 0.3]))
        recall, eq1 = recall_at_k(np.array([1, 2, 3]), np.array([0.1, 0.2, 0.3]), gt, 3)
        assert recall == 1.0 and eq1 == 1.0

    def test_partial_overlap(self):
        gt = SearchResult(np.arange(10), np.linspace(0.1, 1.0, 10))
        ids = np.array([0, 1, 2, 3, 4, 5, 6, 90, 91, 92])
        dists = np.concatenate([np.linspace(0.1, 0.7, 7), [2.0, 2.1, 2.2]])
        recall, eq1 = recall_at_k(ids, dists, gt, 10)
        assert recall == pytest.approx(0.7)
        assert eq1 == pytest.approx(0.7)

    def test_distance_tie_counts_as_hit(self):
        gt = SearchResult(np.array([5, 6]), np.array([0.1, 0.2]))
        # id 99 is not in GT but ties the k-th ground-truth distance
        recall, eq1 = recall_at_k(np.array([5, 99]), np.array([0.1, 0.2]), gt, 2)
        assert recall == 1.0
        assert eq1 == 0.5

    def test_short_ground_truth_denominator(self):
        gt = SearchResult(np.array([4]), np.array([0.3]))
        recall, eq1 = recall_at_k(np.array([4]), np.array([0.3]), gt, 10)
        assert recall == 1.0
        assert eq1 == pytest.approx(0.1)

    def test_empty_ground_truth(self):
        gt = SearchResult(np.empty(0, dtype=np.int64), np.empty(0))
        assert recall_at_k(np.empty(0, dtype=np.int64), np.empty(0), gt, 5)[0] == 1.0


def _ivf_grid(corpus, n_clusters, *search_params):
    """One IVFFlat entry, built as ``fanns run`` builds an ``index_grid`` entry."""
    config = IndexConfig(kind="ivfflat", n_clusters=n_clusters, search_params=search_params)
    return [build_index(corpus, config)]


class TestRunExperiment:
    def test_single_cell_grid(self, corpus2k, tmp_path):
        workload = make_workload(corpus2k, 1, targets=[0.2], ks=[10], seed=3,
                                 include_unfiltered=False)
        grid = _ivf_grid(corpus2k, 20, 5)
        out = tmp_path / "r.csv"
        rows = run_experiment(corpus2k, workload, grid, ["PreAnns"])
        write_results_csv(rows, out)
        assert len(rows) == 1
        row = rows[0]
        assert row["index"] == "ivfflat" and row["strategy"] == "PreAnns"
        assert row["qps"] == pytest.approx(1.0 / row["latency_s"])
        assert 0.0 <= row["recall"] <= 1.0
        assert out.read_text().splitlines()[0] == RESULTS_HEADER

    def test_row_count_covers_full_grid(self, corpus2k):
        workload = make_workload(corpus2k, 3, targets=[0.2, 0.5], ks=[1, 10], seed=4)
        grid = _ivf_grid(corpus2k, 20, 2, 5)
        rows = run_experiment(corpus2k, workload, grid, ["PreAnns", "PreExact"])
        # Runtime not in the list, unfiltered included: 3 filters apply to both
        assert len(rows) == 3 * 3 * 2 * 2 * 2

    def test_runtime_skipped_on_unfiltered(self, corpus2k):
        workload = make_workload(corpus2k, 2, targets=[0.5], ks=[5], seed=5)
        grid = _ivf_grid(corpus2k, 10, 3)
        rows = run_experiment(corpus2k, workload, grid, ["Runtime"])
        assert len(rows) == 2  # only the filtered cells
        assert all(row["target_sigma"] == "0.5" for row in rows)

    def test_ivf_n_probe_recorded_as_searched(self, corpus2k):
        workload = make_workload(corpus2k, 2, targets=[0.5], ks=[5], seed=8)
        grid = _ivf_grid(corpus2k, 8, 3, 8, 20)
        rows = run_experiment(corpus2k, workload, grid, ["PreAnns"])
        # n_probe 20 searches the same 8 lists as n_probe 8: one config, not two
        assert [row["search_param"] for row in rows[::4]] == [3, 8]
        assert len(rows) == 2 * 2 * 2

    def test_rows_are_labelled_from_the_searched_index(self):
        """A given index is searched and labelled with its own build
        parameters."""
        corpus = generate_synthetic(600, 8, 3)
        workload = make_workload(corpus, 3, targets=[0.5], ks=[5], seed=1)
        ivf = ivf_build(corpus, 45, seed=0)
        rows = run_experiment(corpus, workload, [(ivf, (20,), 0.0)], ["PreAnns"])
        assert {(row["n_clusters"], row["search_param"]) for row in rows} == {(45, 20)}
        expected = []
        for spec in workload.filters:
            for query in workload.queries:
                record = execute(ivf, corpus, query, 5, spec.mask,
                                 StrategyPlan(PlanKind.PRE_ANNS), SearchParams(n_probe=20))
                expected.append(record.telemetry.distance_evaluations
                                + record.telemetry.centroid_evaluations)
        assert [row["dist_evals"] for row in rows] == expected

        hnsw = hnsw_build(corpus, 6, 24, seed=0)
        rows = run_experiment(corpus, workload, [(hnsw, (20,), 0.0)], ["PreAnns"])
        assert {(row["M"], row["ef_construction"], row["n_clusters"]) for row in rows} == {
            (6, 24, "")}

    def test_preexact_rows_have_unit_recall(self, corpus2k):
        workload = make_workload(corpus2k, 5, targets=[0.1], ks=[10], seed=6,
                                 include_unfiltered=False)
        grid = _ivf_grid(corpus2k, 20, 5)
        rows = run_experiment(corpus2k, workload, grid, ["PreExact"])
        assert all(row["recall"] == 1.0 for row in rows)

    def test_adaptive_at_least_preanns(self, corpus2k, hnsw2k):
        workload = make_workload(corpus2k, 20, targets=[0.05], ks=[10], seed=7,
                                 include_unfiltered=False)
        rows = run_experiment(corpus2k, workload, [(hnsw2k, (40,), 0.0)],
                              ["PreAnns", "AdaptiveAuto"])
        by_strategy = {}
        for row in rows:
            by_strategy.setdefault(row["strategy"], []).append(row["recall"])
        assert np.mean(by_strategy["AdaptiveAuto"]) >= np.mean(by_strategy["PreAnns"])

    def test_empty_grid_rejected(self, corpus2k):
        workload = make_workload(corpus2k, 1, targets=[0.5], ks=[1], seed=8)
        with pytest.raises(ValueError):
            run_experiment(corpus2k, workload, [], ["PreAnns"])


class TestCsvRoundTrip:
    def test_load_matches_written(self, corpus2k, tmp_path):
        workload = make_workload(corpus2k, 2, targets=[0.2], ks=[5], seed=9,
                                 include_unfiltered=False)
        grid = _ivf_grid(corpus2k, 10, 3)
        out = tmp_path / "r.csv"
        rows = run_experiment(corpus2k, workload, grid, ["PreAnns"])
        write_results_csv(rows, out)
        loaded = load_results_csv(out)
        assert len(loaded) == len(rows)
        assert loaded[0]["recall"] == pytest.approx(rows[0]["recall"])
        assert loaded[0]["query_id"] == rows[0]["query_id"]


class TestSummaries:
    def test_pareto_example(self):
        points = [(0.9, 100.0), (0.95, 50.0), (0.8, 60.0)]
        assert pareto_frontier(points) == [0, 1]

    def test_pareto_duplicates_survive(self):
        points = [(0.9, 100.0), (0.9, 100.0)]
        assert pareto_frontier(points) == [0, 1]

    def test_single_row_aggregate(self, corpus2k):
        workload = make_workload(corpus2k, 1, targets=[0.2], ks=[5], seed=10,
                                 include_unfiltered=False)
        grid = _ivf_grid(corpus2k, 10, 3)
        rows = run_experiment(corpus2k, workload, grid, ["PreAnns"])
        agg = summarize(rows)
        assert len(agg) == 1
        assert agg[0]["mean_recall"] == rows[0]["recall"]
        assert agg[0]["mean_qps"] == pytest.approx(rows[0]["qps"])
        assert agg[0]["on_frontier"] == 1

    def test_summarize_csv(self, corpus2k, tmp_path):
        workload = make_workload(corpus2k, 2, targets=[0.2], ks=[5], seed=11,
                                 include_unfiltered=False)
        grid = _ivf_grid(corpus2k, 10, 3, 10)
        rows = run_experiment(corpus2k, workload, grid, ["PreAnns"])
        out = tmp_path / "s.csv"
        agg = summarize(rows)
        write_summary_csv(agg, out)
        lines = out.read_text().splitlines()
        assert len(lines) == len(agg) + 1
        assert lines[0].startswith("index,M,ef_construction,n_clusters,strategy")
        assert "mean_qps,qps,n_queries" in lines[0]

    def test_qps_is_queries_over_summed_latency(self):
        config = {"index": "hnsw", "M": 10, "ef_construction": 50, "n_clusters": "",
                  "strategy": "PreAnns", "search_param": 100, "k": 10, "target_sigma": "0.1"}
        rows = [dict(config, recall=1.0, latency_s=latency, qps=1.0 / latency)
                for latency in (0.001, 0.003)]
        (agg,) = summarize(rows)
        assert agg["qps"] == pytest.approx(2 / 0.004)
        assert agg["mean_qps"] == pytest.approx((1000.0 + 1000.0 / 3) / 2)
        assert agg["n_queries"] == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
