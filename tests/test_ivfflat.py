import numpy as np
import pytest

from fanns.corpus import (
    Corpus,
    Metric,
    build_mask,
    generate_synthetic,
    threshold_for_selectivity,
)
from fanns.ivfflat import IvfFormatError, ivf_build, ivf_search, load_ivf, save_ivf
from fanns.oracle import exact_knn

from conftest import sample_queries


class TestBuild:
    def test_lists_partition_rows(self, ivf2k, corpus2k):
        all_ids = np.sort(np.concatenate(ivf2k.lists))
        assert np.array_equal(all_ids, np.arange(corpus2k.n))

    def test_one_cluster_per_row(self):
        corpus = generate_synthetic(40, 6, seed=2)
        index = ivf_build(corpus, 40, seed=2)
        assert sorted(len(lst) for lst in index.lists) == [1] * 40

    def test_single_cluster_is_brute_force(self, corpus2k):
        index = ivf_build(corpus2k, 1, seed=3)
        assert len(index.lists[0]) == corpus2k.n
        query = corpus2k.vectors[31]
        result = ivf_search(index, corpus2k, query, 10, 1)
        gt = exact_knn(corpus2k, query, 10)
        assert result.ids.tolist() == gt.ids.tolist()
        assert np.allclose(result.distances, gt.distances)

    def test_blob_purity(self):
        rng = np.random.default_rng(17)
        centers = rng.standard_normal((4, 8)) * 30.0
        labels = rng.integers(0, 4, size=5000)
        vectors = centers[labels] + rng.standard_normal((5000, 8))
        corpus = Corpus(
            vectors=vectors.astype(np.float32),
            attribute=rng.uniform(0, 1, 5000),
            metric=Metric.L2,
        )
        index = ivf_build(corpus, 4, seed=5)
        purity_hits = 0
        for lst in index.lists:
            member_labels = labels[lst]
            counts = np.bincount(member_labels, minlength=4)
            purity_hits += counts.max()
        assert purity_hits / 5000 >= 0.95

    def test_determinism(self, corpus2k):
        a = ivf_build(corpus2k, 30, seed=9)
        b = ivf_build(corpus2k, 30, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        for la, lb in zip(a.lists, b.lists):
            assert np.array_equal(la, lb)

    def test_cluster_count_validation(self, corpus2k):
        with pytest.raises(ValueError):
            ivf_build(corpus2k, 0, seed=0)
        with pytest.raises(ValueError):
            ivf_build(corpus2k, corpus2k.n + 1, seed=0)


class TestSearch:
    def test_exhaustive_probe_matches_oracle(self, corpus2k, ivf2k):
        mask = build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.2))
        _, queries = sample_queries(corpus2k, 20, seed=70)
        for query in queries:
            result = ivf_search(ivf2k, corpus2k, query, 10, ivf2k.n_clusters, mask=mask)
            gt = exact_knn(corpus2k, query, 10, mask)
            assert result.ids.tolist() == gt.ids.tolist()
            assert np.allclose(result.distances, gt.distances)

    def test_exhaustive_probe_matches_oracle_l2(self):
        rng = np.random.default_rng(8)
        corpus = Corpus(
            vectors=rng.standard_normal((800, 8)).astype(np.float32),
            attribute=rng.uniform(0, 1, 800),
            metric=Metric.L2,
        )
        index = ivf_build(corpus, 25, seed=8)
        mask = build_mask(corpus, 0.6)
        for qid in (1, 400, 799):
            query = corpus.vectors[qid]
            result = ivf_search(index, corpus, query, 8, 25, mask=mask)
            gt = exact_knn(corpus, query, 8, mask)
            assert result.ids.tolist() == gt.ids.tolist()

    def test_full_mask_equals_unfiltered(self, corpus2k, ivf2k):
        full = build_mask(corpus2k, -np.inf)
        query = corpus2k.vectors[250]
        a = ivf_search(ivf2k, corpus2k, query, 10, 5)
        b = ivf_search(ivf2k, corpus2k, query, 10, 5, mask=full)
        assert a.ids.tolist() == b.ids.tolist()

    def test_prefilter_returns_only_valid(self, corpus2k, ivf2k):
        mask = build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.1))
        _, queries = sample_queries(corpus2k, 20, seed=71)
        for query in queries:
            result = ivf_search(ivf2k, corpus2k, query, 10, 10, mask=mask)
            assert mask.bits[result.ids].all()

    def test_prefilter_skips_invalid_distance_computations(self, corpus2k, ivf2k):
        mask = build_mask(corpus2k, threshold_for_selectivity(corpus2k, 0.05))
        query = corpus2k.vectors[99]
        filtered = ivf_search(ivf2k, corpus2k, query, 10, 10, mask=mask)
        unfiltered = ivf_search(ivf2k, corpus2k, query, 10, 10)
        assert filtered.telemetry.distance_evaluations <= unfiltered.telemetry.distance_evaluations
        assert filtered.telemetry.centroid_evaluations == ivf2k.n_clusters
        # distance evaluations are bounded by the valid rows of the probed lists
        valid_in_probed = sum(int(mask.bits[lst].sum()) for lst in ivf2k.lists)
        assert filtered.telemetry.distance_evaluations <= valid_in_probed

    def test_k_wider_than_one_list(self, corpus2k, ivf2k):
        # a Post pool: k exceeds every list, so the top k spans several lists
        result = ivf_search(ivf2k, corpus2k, corpus2k.vectors[0], 200, 10)
        assert len(result) == 200 > max(len(lst) for lst in ivf2k.lists)
        assert np.all(np.diff(result.distances) >= 0)

    def test_parameter_validation(self, corpus2k, ivf2k):
        query = corpus2k.vectors[0]
        with pytest.raises(ValueError):
            ivf_search(ivf2k, corpus2k, query, 5, 0)
        with pytest.raises(ValueError):
            ivf_search(ivf2k, corpus2k, query, 5, ivf2k.n_clusters + 1)


class TestPersistence:
    def test_round_trip(self, tmp_path, corpus2k, ivf2k):
        path = tmp_path / "i.idx"
        save_ivf(ivf2k, path)
        loaded = load_ivf(path)
        assert loaded.n_clusters == ivf2k.n_clusters
        assert loaded.seed == ivf2k.seed
        assert loaded.metric is ivf2k.metric
        assert np.array_equal(loaded.centroids, ivf2k.centroids)
        for la, lb in zip(loaded.lists, ivf2k.lists):
            assert np.array_equal(la, lb)
        path2 = tmp_path / "i2.idx"
        save_ivf(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(IvfFormatError):
            load_ivf(path)

    def test_truncated(self, tmp_path, ivf2k):
        path = tmp_path / "i.idx"
        save_ivf(ivf2k, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(IvfFormatError):
            load_ivf(path)
