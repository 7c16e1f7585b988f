import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanns import gls as gls_mod
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
from fanns.gls import (
    GlsEntry,
    distance_correlation,
    gls_approx,
    gls_exact,
    gls_inverse,
    gls_mean,
    gls_rho,
    write_gls_csv,
)
from fanns.hnsw import hnsw_build
from fanns.ivfflat import ivf_build

from conftest import matmul_keys, sample_queries


class TestMoebiusMap:
    def test_fixed_point(self):
        ratio = 0.33 / 0.2
        assert ratio == pytest.approx(1.65, abs=1e-9)
        assert gls_rho(ratio) == pytest.approx(0.2453, abs=1e-3)

    def test_neutral_and_depleted(self):
        assert gls_rho(1.0) == 0.0
        assert gls_rho(0.0) == -1.0

    def test_inverse_examples(self):
        assert gls_inverse(0.0) == 1.0
        assert gls_inverse(0.245283) == pytest.approx(1.65, abs=1e-4)

    def test_round_trip_thousand_points(self):
        rng = np.random.default_rng(12)
        rhos = rng.uniform(-1.0, 0.999, size=1000)
        for rho in rhos:
            assert gls_rho(gls_inverse(rho)) == pytest.approx(rho, abs=1e-12)

    def test_inverse_domain(self):
        with pytest.raises(ValueError):
            gls_inverse(1.0)
        with pytest.raises(ValueError):
            gls_rho(-0.1)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @settings(max_examples=60)
    def test_monotonic(self, r1, r2):
        # Strictly increasing wherever the two outputs are representably
        # distinct; near-coincident ratios may collapse to the same float.
        if r1 < r2:
            assert gls_rho(r1) <= gls_rho(r2)
        if r1 + 1e-9 < r2:
            assert gls_rho(r1) < gls_rho(r2)

    @given(st.floats(0.0, 1000.0))
    def test_bounds(self, r):
        assert -1.0 <= gls_rho(r) < 1.0


class TestEntry:
    # a corpus's least sigma_g is 1/n, far above 2^-53; a subnormal sigma_g
    # would overflow the ratio to inf, whose rho is nan
    @given(st.floats(2.0**-53, 1.0), st.floats(0.0, 1.0))
    def test_rho_and_bin_follow_from_the_selectivities(self, sigma_g, sigma_l):
        entry = GlsEntry(0, sigma_g, sigma_l)
        assert entry.ratio == sigma_l / sigma_g
        assert entry.rho == gls_rho(sigma_l / sigma_g)
        if entry.rho < -0.3:
            assert entry.bin == "low"
        elif entry.rho > 0.3:
            assert entry.bin == "high"
        else:
            assert entry.bin == "medium"

    def test_bin_edges(self):
        # (sigma_g, sigma_l) whose rho is the float just below -0.3, just
        # above it (no ratio maps onto -0.3 itself), exactly +0.3, and the
        # float just above +0.3
        pairs = [(0.65, 0.35), (0.13, 0.07), (0.07, 0.13), (0.35, 0.65)]
        entries = [GlsEntry(0, sigma_g, sigma_l) for sigma_g, sigma_l in pairs]
        assert [e.rho for e in entries] == [
            np.nextafter(-0.3, -1), np.nextafter(-0.3, 0), 0.3, np.nextafter(0.3, 1)]
        assert [e.bin for e in entries] == ["low", "medium", "medium", "high"]

    def test_only_the_measured_selectivities_are_fields(self):
        assert [f.name for f in dataclasses.fields(GlsEntry)] == [
            "query_id", "sigma_g", "sigma_l"]


def _line_corpus():
    """10 points on a line; neighborhoods are trivially enumerable."""
    vectors = np.stack([np.arange(10.0), np.zeros(10)], axis=1).astype(np.float32)
    attribute = np.array([1, 0, 1, 0, 0, 1, 0, 1, 0, 1], dtype=np.float64)
    return Corpus(vectors=vectors, attribute=attribute, metric=Metric.L2)


class TestGlsExact:
    def test_hand_computed_neighborhood(self):
        corpus = _line_corpus()
        mask = build_mask(corpus, 0.5)  # 5 of 10 valid -> sigma_g = 0.5
        # 4-NN of point 0 is {0,1,2,3}; valid among them: {0,2} -> sigma_l = 0.5
        entry = gls_exact(corpus, corpus.vectors[0], mask, k_neighborhood=4)
        assert entry.sigma_l == 0.5
        assert entry.ratio == 1.0
        assert entry.rho == 0.0
        assert entry.bin == "medium"

    def test_total_depletion(self):
        corpus = _line_corpus()
        bits = np.zeros(10, dtype=bool)
        bits[9] = True
        entry = gls_exact(corpus, corpus.vectors[0], FilterMask(bits), k_neighborhood=4)
        assert entry.sigma_l == 0.0
        assert entry.rho == -1.0
        assert entry.bin == "low"

    def test_rejects_a_neighborhood_of_every_row(self):
        corpus = _line_corpus()
        mask = build_mask(corpus, 0.5)
        for k in (10, 11):
            with pytest.raises(ValueError, match="k_neighborhood"):
                gls_exact(corpus, corpus.vectors[0], mask, k_neighborhood=k)
        assert gls_exact(corpus, corpus.vectors[0], mask, k_neighborhood=9).sigma_l == 4 / 9

    def test_rejects_empty_mask(self):
        corpus = _line_corpus()
        with pytest.raises(ValueError):
            gls_exact(corpus, corpus.vectors[0], FilterMask(np.zeros(10, bool)), 4)

    def test_low_selectivity_artifact_is_negative(self, corpus2k):
        # with only a couple of valid rows, most neighborhoods contain none of
        # them, driving rho toward -1 and the mean below zero
        order = np.argsort(corpus2k.attribute)
        bits = np.zeros(corpus2k.n, dtype=bool)
        bits[order[-2:]] = True
        mask = FilterMask(bits)
        _, queries = sample_queries(corpus2k, 50, seed=120)
        rho_bar = gls_mean(
            [gls_exact(corpus2k, q, mask, k_neighborhood=512) for q in queries]
        )
        assert rho_bar < 0


class TestGlsMean:
    def test_single_entry(self):
        entry = GlsEntry(0, 0.2, 0.4)
        assert gls_mean([entry]) == entry.rho == gls_rho(2.0)

    def test_symmetric_pair(self):
        # sigma_l / sigma_g = 1/3 and 3: rho = -0.5 and +0.5
        entries = [GlsEntry(0, 0.3, 0.1), GlsEntry(1, 0.1, 0.3)]
        assert [e.rho for e in entries] == pytest.approx([-0.5, 0.5], abs=1e-15)
        assert [e.bin for e in entries] == ["low", "high"]
        assert gls_mean(entries) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gls_mean([])


class TestGlsApprox:
    def test_degenerate_settings_match_exact(self):
        corpus = generate_synthetic(400, 8, seed=31)
        index = hnsw_build(corpus, 8, 32, seed=31)
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.3))
        for qid in (0, 57, 399):
            exact = gls_exact(corpus, corpus.vectors[qid], mask, k_neighborhood=64)
            approx = gls_approx(
                corpus, index, corpus.vectors[qid], mask, k_neighborhood=64,
                sample_size=corpus.n, seed=0,
            )
            assert approx.sigma_g == exact.sigma_g
            assert approx.sigma_l == pytest.approx(exact.sigma_l)
            assert approx.rho == pytest.approx(exact.rho)

    def test_rejects_a_neighborhood_of_every_row(self):
        corpus = generate_synthetic(300, 8, seed=33)
        index = hnsw_build(corpus, 5, 20, seed=33)
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.3))
        with pytest.raises(ValueError, match="k_neighborhood"):
            gls_approx(corpus, index, corpus.vectors[0], mask, k_neighborhood=300)
        entry = gls_approx(corpus, index, corpus.vectors[0], mask, k_neighborhood=299,
                           sample_size=100)
        assert 0.0 <= entry.sigma_l <= 1.0

    def test_sampled_sigma_g_within_binomial_bound(self):
        corpus = generate_synthetic(5000, 8, seed=32)
        index = ivf_build(corpus, 40, seed=32)
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.2))
        entry = gls_approx(corpus, index, corpus.vectors[11], mask,
                           k_neighborhood=128, sample_size=1000, seed=5)
        assert abs(entry.sigma_g - 0.2) < 0.04

    def test_close_to_exact_on_average(self, corpus2k, hnsw2k):
        mask = build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.2))
        _, queries = sample_queries(corpus2k, 200, seed=121)
        gap = 0.0
        for query in queries:
            exact = gls_exact(corpus2k, query, mask, k_neighborhood=200)
            approx = gls_approx(corpus2k, hnsw2k, query, mask, k_neighborhood=200,
                                sample_size=1000, seed=3)
            gap += abs(approx.rho - exact.rho)
        assert gap / len(queries) < 0.1


class TestReportAndCsv:
    def test_csv_header_and_rows(self, tmp_path):
        entries = [GlsEntry(0, 0.2, 0.33)]
        path = tmp_path / "g.csv"
        write_gls_csv(entries, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,sigma_g,sigma_l,ratio,rho,bin"
        assert lines[1].startswith("0,0.2,0.33,1.65,")
        assert lines[1].endswith(",medium")


def _reference_distance_correlation(corpus, queries_with_masks, trials, seed, keys=ordering_keys):
    """distance_correlation with rows gathered by fancy indexing and every key
    from an uncached ``keys`` call (by default ``ordering_keys``, which
    computes its own cosine norms)."""
    rng = np.random.default_rng(seed)
    per_query = np.empty(len(queries_with_masks))
    for i, (query, mask) in enumerate(queries_with_masks):
        valid = mask.valid_ids()
        g_filtered = float(np.min(keys(query, corpus.vectors[valid], corpus.metric)))
        g_random = 0.0
        for _ in range(trials):
            sample = rng.choice(corpus.n, size=len(valid), replace=False)
            g_random += float(np.min(keys(query, corpus.vectors[sample], corpus.metric)))
        per_query[i] = g_random / trials - g_filtered
    return float(per_query.mean()), per_query


def _varied_norm_corpus(metric):
    rng = np.random.default_rng(31)
    vectors = rng.standard_normal((3000, 12)) * rng.uniform(0.5, 2, size=(3000, 1))
    return Corpus(vectors.astype(np.float32), rng.uniform(0, 1, 3000), metric)


class TestDistanceCorrelation:
    @pytest.mark.parametrize("metric", list(Metric))
    def test_equals_the_uncached_reference(self, metric):
        corpus = _varied_norm_corpus(metric)
        _, queries = sample_queries(corpus, 6, seed=32)
        pairs = [
            (query, build_mask(corpus, threshold_for_selectivity(corpus, sigma)))
            for query in queries
            for sigma in (0.05, 0.5, 1.0)
        ]
        value, per_query = distance_correlation(corpus, pairs, trials=10, seed=3)
        ref_value, ref_per_query = _reference_distance_correlation(corpus, pairs, 10, 3)
        assert np.array_equal(per_query, ref_per_query)
        assert value == ref_value

    def test_cosine_equals_the_matmul_reference(self):
        # one divide by the negated divisors against -(rows @ q) / (|q|·|r|)
        corpus = _varied_norm_corpus(Metric.COSINE)
        _, queries = sample_queries(corpus, 4, seed=33)
        pairs = [
            (query, build_mask(corpus, threshold_for_selectivity(corpus, sigma)))
            for query in queries
            for sigma in (0.05, 0.5)
        ]
        value, per_query = distance_correlation(corpus, pairs, trials=5, seed=4)
        ref_value, ref_per_query = _reference_distance_correlation(
            corpus, pairs, 5, 4, keys=matmul_keys
        )
        assert np.array_equal(per_query, ref_per_query)
        assert value == ref_value

    @pytest.mark.parametrize("metric", list(Metric))
    def test_subsets_past_one_block_are_keyed_block_by_block(self, monkeypatch, metric):
        # no key call sees more than one row_blocks block, and each subset's
        # g is the least key over its blocks, as a reference keying the same
        # blocks finds it
        rng = np.random.default_rng(35)
        n = 2 * ROW_BLOCK + 300
        vectors = rng.standard_normal((n, 6)) * rng.uniform(0.5, 2, size=(n, 1))
        corpus = Corpus(vectors.astype(np.float32), rng.uniform(0, 1, n), metric)
        pairs = [(rng.standard_normal(6), build_mask(corpus, 0.3)) for _ in range(2)]
        original, rows_seen = gls_mod.ordering_keys, []

        def counting(query, rows, *args):
            rows_seen.append(len(rows))
            return original(query, rows, *args)

        monkeypatch.setattr(gls_mod, "ordering_keys", counting)
        value, per_query = distance_correlation(corpus, pairs, trials=3, seed=6)
        valid = pairs[0][1].valid_count
        assert valid > ROW_BLOCK + 1 and max(rows_seen) == ROW_BLOCK
        assert sum(rows_seen) == 2 * valid * (1 + 3)

        def blocked_keys(query, rows, metric):
            return np.concatenate(
                [ordering_keys(query, rows[block], metric) for block in row_blocks(len(rows))])

        ref_value, ref_per_query = _reference_distance_correlation(
            corpus, pairs, 3, 6, keys=blocked_keys
        )
        assert np.array_equal(per_query, ref_per_query)
        assert value == ref_value

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_is_refused(self, corpus2k, bad):
        query = corpus2k.vectors[0].copy()
        query[1] = bad
        with pytest.raises(ValueError, match="finite"):
            distance_correlation(corpus2k, [(query, build_mask(corpus2k, -np.inf))])

    def test_full_mask_is_exactly_zero(self, corpus2k):
        full = build_mask(corpus2k, -np.inf)
        value, per_query = distance_correlation(
            corpus2k, [(corpus2k.vectors[0], full), (corpus2k.vectors[1], full)], trials=2
        )
        assert value == 0.0
        assert np.all(per_query == 0.0)

    def test_positive_on_correlated_corpus(self):
        corpus = generate_synthetic(
            2000, 16, seed=40, attr_mode="cluster_correlated", strength=1.0
        )
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.2))
        # query from inside the filter-passing region: valid rows cluster
        # around it, so they are closer than a random subset
        valid = mask.valid_ids()
        pairs = [(corpus.vectors[valid[i]], mask) for i in range(0, 50, 10)]
        value, _ = distance_correlation(corpus, pairs, trials=10, seed=1)
        assert value > 0

    def test_rejects_empty_mask(self, corpus2k):
        with pytest.raises(ValueError):
            distance_correlation(
                corpus2k, [(corpus2k.vectors[0], FilterMask(np.zeros(corpus2k.n, bool)))]
            )

    def test_trials_validation(self, corpus2k):
        full = build_mask(corpus2k, -np.inf)
        with pytest.raises(ValueError):
            distance_correlation(corpus2k, [(corpus2k.vectors[0], full)], trials=0)
