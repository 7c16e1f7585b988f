import itertools
import tracemalloc

import numpy as np
import pytest

from fanns.corpus import (
    ROW_BLOCK,
    Corpus,
    Metric,
    build_mask,
    generate_synthetic,
    ordering_keys,
    threshold_for_selectivity,
)
from fanns import ivfflat
from fanns.ivfflat import IvfFormatError, IvfIndex, ivf_build, ivf_search, load_ivf, save_ivf
from fanns.oracle import exact_knn, exact_scan

from conftest import (
    ROW_COUNTS,
    adversarial_corpus,
    l2_pairs_keyed,
    mixed_dtype_keys,
    rescored_rows,
    sample_queries,
)


def _nearest_by_key(rows, centroids, metric):
    """Each row's centroid of smallest ``ordering_keys`` key, the first on
    ties, keyed in 4096-row blocks: the build's one nearest-centroid rule."""
    nearest = np.empty(len(rows), dtype=np.int64)
    for start in range(0, len(rows), 4096):
        stop = min(start + 4096, len(rows))
        keys = [ordering_keys(c, rows[start:stop], metric) for c in centroids]
        nearest[start:stop] = np.argmin(np.stack(keys, axis=1), axis=1)
    return nearest


def _reference_ivf_build(corpus, n_clusters, seed, reseeds):
    """The unblocked k-means: whole-matrix seeding distances, per-cluster
    boolean masks, 25 iterations, every (row, centroid) pair keyed. Appends
    one entry to ``reseeds`` per empty cluster reseeded."""
    rng = np.random.default_rng(seed)
    rows = corpus.vectors.astype(np.float64)
    n = rows.shape[0]
    centroids = np.empty((n_clusters, rows.shape[1]))
    centroids[0] = rows[int(rng.integers(n))]
    closest_sq = np.sum((rows - centroids[0]) ** 2, axis=1)
    for i in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest_sq / total))
        centroids[i] = rows[pick]
        closest_sq = np.minimum(closest_sq, np.sum((rows - centroids[i]) ** 2, axis=1))
    for _ in range(25):
        assign = _nearest_by_key(rows, centroids, Metric.L2)
        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=n_clusters)
        for c in range(n_clusters):
            if counts[c] > 0:
                new_centroids[c] = rows[assign == c].mean(axis=0)
        for c in np.flatnonzero(counts == 0):
            reseeds.append(c)
            largest = int(np.argmax(counts))
            members = np.flatnonzero(assign == largest)
            dists = np.sum((rows[members] - new_centroids[largest]) ** 2, axis=1)
            stray = members[int(np.argmax(dists))]
            new_centroids[c] = rows[stray]
            assign[stray] = c
            counts = np.bincount(assign, minlength=n_clusters)
        centroids = new_centroids
    final_assign = _nearest_by_key(rows, centroids, corpus.metric)
    lists = [np.flatnonzero(final_assign == c) for c in range(n_clusters)]
    return centroids.astype(np.float32), lists


def _mixed_dtype_sq_dists(rows, point):
    """``_sq_dists`` with one mixed-dtype subtract: its bit-for-bit reference."""
    return np.sum(np.square(np.subtract(rows, point, dtype=np.float64)), axis=1)


def _mixture(n, d, metric, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((24, d)) * 4.0
    vectors = centers[rng.integers(0, 24, size=n)] + rng.standard_normal((n, d))
    return Corpus(vectors.astype(np.float32), rng.uniform(0, 1, n), metric)


def _duplicate_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    distinct = rng.standard_normal((10, d))
    return Corpus(
        distinct[rng.integers(0, 10, size=n)].astype(np.float32), rng.uniform(0, 1, n), Metric.L2
    )


BLOCKED_BUILD_CORPORA = {
    "cosine": lambda: generate_synthetic(9000, 16, seed=3, attr_mode="cluster_correlated"),
    "l2": lambda: _mixture(10001, 12, Metric.L2, seed=4),
    "inner product": lambda: _mixture(2 * ROW_BLOCK + 1, 16, Metric.INNER_PRODUCT, seed=5),
    "duplicate rows": lambda: _duplicate_rows(2 * ROW_BLOCK + 3, 8, seed=6),
    # one row past a block: row_blocks merges it into the block before
    "cosine, lone last row": lambda: generate_synthetic(ROW_BLOCK + 1, 12, seed=7),
    "l2, lone last row": lambda: _mixture(ROW_BLOCK + 1, 16, Metric.L2, seed=8),
}


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

    def test_zero_cosine_centroid_is_refused(self):
        # the mean of these unit rows is the zero vector: no cosine key to it
        vectors = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.float32)
        corpus = Corpus(vectors, np.zeros(4), Metric.COSINE, normalized=True)
        with pytest.raises(ValueError, match="zero vectors"):
            ivf_build(corpus, 1, seed=0)

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

    @pytest.mark.parametrize("name", sorted(BLOCKED_BUILD_CORPORA))
    def test_blocked_kmeans_equals_the_unblocked_reference(self, name):
        # Blocked distance products and sort-grouped means must reproduce the
        # unblocked k-means bit for bit, on this machine's BLAS.
        corpus = BLOCKED_BUILD_CORPORA[name]()
        n_clusters = 50 if name == "duplicate rows" else 40
        reseeds = []
        centroids, lists = _reference_ivf_build(corpus, n_clusters, 11, reseeds)
        index = ivf_build(corpus, n_clusters, seed=11)
        assert index.centroids.tobytes() == centroids.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(index.lists, lists))
        if name == "duplicate rows":
            assert reseeds  # the reseed branch ran

    @pytest.mark.parametrize("seed", [103, 136])
    def test_bounds_follow_the_centroids_that_move(self, seed):
        # Rows on a line, three lists. Under seed 103 the centroid seeded at
        # 2.2 moves to 2.49 in the first pass, so its rows at 2.2 go to the
        # one at 2.0. Under seed 136 the centroids start at 4.2, -1.5 and 0;
        # the first moves to 2.49 and takes the row at 2.0 from the third,
        # which then loses the row at 0 as well and is reseeded at 4.2. A
        # row skipped on bounds not widened by those moves, or kept across
        # the reseed, would stay where it was.
        rows = np.array([-1.5] + [-0.8] * 6 + [0.0, 2.0] + [2.2] * 6 + [4.2], dtype=np.float32)
        corpus = Corpus(rows[:, None], np.linspace(0, 1, len(rows)), Metric.L2)
        reseeds = []
        centroids, lists = _reference_ivf_build(corpus, 3, seed, reseeds)
        index = ivf_build(corpus, 3, seed=seed)
        assert index.centroids.tobytes() == centroids.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(index.lists, lists))
        assert len(reseeds) == (seed == 136)

    @pytest.mark.parametrize("metric", [Metric.L2, Metric.COSINE])
    def test_build_holds_no_float64_copy(self, metric):
        # every pass converts one block of rows at a time, so the build's
        # peak stays below one float64 copy of the vectors
        rng = np.random.default_rng(21)
        vectors = rng.standard_normal((20000, 128)).astype(np.float32)
        corpus = Corpus(vectors, rng.uniform(0, 1, 20000), metric)
        float64_copy = vectors.size * 8
        tracemalloc.start()
        try:
            ivf_build(corpus, 50, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < float64_copy

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sq_dists_equal_the_mixed_dtype_formula(self, dtype):
        rng = np.random.default_rng(30)
        n = 2 * ROW_BLOCK + 1
        matrix = (rng.standard_normal((n, 12)) * rng.uniform(0.5, 2, (n, 1))).astype(dtype)
        for point in (0.0, rng.standard_normal(12)):
            for m in ROW_COUNTS:
                start = int(rng.integers(0, n - m + 1))
                for rows in (matrix[start : start + m], matrix[rng.choice(n, m)]):
                    expected = _mixed_dtype_sq_dists(rows, point)
                    assert np.array_equal(ivfflat._sq_dists(rows, point), expected)

    @pytest.mark.parametrize("name", ["l2", "duplicate rows", "cosine"])
    def test_build_bytes_equal_the_mixed_dtype_kernels(self, tmp_path, monkeypatch, name):
        # the seeding, reseeding and final-assignment kernels swapped for the
        # mixed-dtype subtract must leave the index file unchanged
        corpus = BLOCKED_BUILD_CORPORA[name]()
        save_ivf(ivf_build(corpus, 50, seed=12), tmp_path / "real.idx")
        monkeypatch.setattr(ivfflat, "_sq_dists", _mixed_dtype_sq_dists)
        monkeypatch.setattr(ivfflat, "ordering_keys", mixed_dtype_keys)
        save_ivf(ivf_build(corpus, 50, seed=12), tmp_path / "reference.idx")
        assert (tmp_path / "real.idx").read_bytes() == (tmp_path / "reference.idx").read_bytes()

    @pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.name)
    def test_rescaled_rows_give_the_same_lists(self, metric):
        # a power-of-two rescale scales every float64 step exactly, so only a
        # rule tied to the data's units could change the clustering
        corpus = _mixture(3000, 12, metric, seed=13)
        index = ivf_build(corpus, 40, seed=2)
        for exponent in (-30, -12, 20):
            rescaled = Corpus(np.ldexp(corpus.vectors, exponent), corpus.attribute, metric)
            other = ivf_build(rescaled, 40, seed=2)
            assert all(np.array_equal(a, b) for a, b in zip(other.lists, index.lists))
            assert other.centroids.tobytes() == np.ldexp(index.centroids, exponent).tobytes()

    def test_every_build_makes_every_lloyd_pass(self, monkeypatch):
        metrics, assign_rows = [], ivfflat._assign_rows

        def counting(corpus, centroids, scratch, metric, bounds):
            metrics.append(metric)
            return assign_rows(corpus, centroids, scratch, metric, bounds)

        monkeypatch.setattr(ivfflat, "_assign_rows", counting)
        ivf_build(generate_synthetic(3000, 16, 1, "cluster_correlated"), 55, seed=0)
        # every Lloyd pass assigns under L2, then the final one under cosine
        assert metrics == [Metric.L2] * ivfflat._MAX_ITERS + [Metric.COSINE]

    def test_cluster_count_validation(self, corpus2k):
        with pytest.raises(ValueError):
            ivf_build(corpus2k, 0, seed=0)
        with pytest.raises(ValueError):
            ivf_build(corpus2k, corpus2k.n + 1, seed=0)


class TestNarrowedBuild:
    """Builds whose k-means++ seeding, and under L2 the final assignment,
    compute only the distances that the float32 bound cannot rule out,
    against the reference build, which computes all of them."""

    @pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.name)
    @pytest.mark.parametrize("shape", ["", "outlier", "offset"])
    @pytest.mark.parametrize("scale", [1e-30, 1e-8, 1.0, 1e8, 1e18])
    @pytest.mark.parametrize(
        "d, n_lists",
        [(1, 16), (3, 16), (768, 16), (1, 4), (8, 5)],
        ids=["1", "3", "768", "1-C4", "8-C5"],
    )
    def test_build_equals_the_reference(self, d, n_lists, scale, shape, metric):
        # "offset" moves every row 300 times the scale from the origin, so
        # that float32 rounding is large against the distances between rows;
        # the L2 assignment is narrowed at every shape, down to d = 1, C = 4
        corpus = adversarial_corpus(d, scale, shape == "outlier", seed=d, metric=metric)
        if shape == "offset":
            corpus = Corpus(corpus.vectors + np.float32(300 * scale), corpus.attribute, metric)
        centroids, lists = _reference_ivf_build(corpus, n_lists, 3, [])
        index = ivf_build(corpus, n_lists, seed=3)
        assert index.centroids.tobytes() == centroids.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(index.lists, lists))

    def test_an_ivf_l2_sized_build_computes_few_distances(self, monkeypatch):
        # the ivf-l2 benchmark's shape: 20,000 x 32 rows, 141 lists
        corpus = _mixture(20000, 32, Metric.L2, seed=9)
        seeding, keys = [], []

        def sq_dists(rows, point):
            seeding.append(len(rows))
            return _mixed_dtype_sq_dists(rows, point)

        def ordering_keys(point, rows, metric, divisors=None):
            keys.append(len(rows))
            return mixed_dtype_keys(point, rows, metric, divisors)

        def assign_rows(built_from, centroids, scratch, metric, bounds):
            ids = rescored_rows(built_from, bounds)
            rescored.append(built_from.n if ids is None else len(ids))
            pairs.append(l2_pairs_keyed(built_from, centroids, ids))
            return real_assign_rows(built_from, centroids, scratch, metric, bounds)

        pairs, rescored, real_assign_rows = [], [], ivfflat._assign_rows
        monkeypatch.setattr(ivfflat, "_sq_dists", sq_dists)
        monkeypatch.setattr(ivfflat, "ordering_keys", ordering_keys)
        monkeypatch.setattr(ivfflat, "_assign_rows", assign_rows)
        ivf_build(corpus, 141, seed=1)
        # k-means++ folds every row against its first centroid; each of the
        # 25 Lloyd passes and the final assignment keys only the rescored
        # rows whose cut keeps more than one centroid, fewer than one row in
        # ten over all the passes
        assert corpus.n <= sum(seeding) < corpus.n * 141 // 20
        assert len(pairs) == ivfflat._MAX_ITERS + 1
        assert sum(keys) == sum(pairs) < corpus.n // 10
        # the first pass scores every row; the bounds carried from it leave
        # the later passes well under n rows to rescore (0.77 n on average
        # on this corpus), where every pass scored all n without them
        assert rescored[0] == corpus.n
        assert sum(rescored[1:]) < 0.85 * corpus.n * ivfflat._MAX_ITERS

    def test_lloyd_passes_take_the_exact_key_argmin(self):
        # Rows near 1e6, each between its own two centroids about 0.25 away:
        # the squared distances differ by about 1e-4, the rounding error of
        # the expansion |x|^2 - 2x.c + |c|^2 at this magnitude, while the
        # float64 key subtracts exactly and keeps the difference.
        rng = np.random.default_rng(23)
        rows = (1e6 + 16.0 * np.arange(400)).astype(np.float32)[:, None]
        offsets = 0.25 + rng.uniform(-1e-4, 1e-4, (400, 2))
        centroids = np.concatenate([rows - offsets[:, :1], rows + offsets[:, 1:]])
        corpus = Corpus(rows, rng.uniform(size=400), Metric.L2)
        scratch = np.empty((400, 800))
        bounds = ivfflat._RowBounds(corpus.n, corpus.dim)
        nearest = ivfflat._assign_rows(corpus, centroids, scratch, Metric.L2, bounds)
        exact = _nearest_by_key(rows, centroids, Metric.L2)
        assert np.array_equal(nearest, exact)
        assert np.array_equal(nearest % 400, np.arange(400))
        expansion = (
            corpus.sq_row_norms[:, None]
            - 2.0 * rows.astype(np.float64) @ centroids.T
            + np.sum(centroids**2, axis=1)
        )
        assert not np.array_equal(np.argmin(expansion, axis=1), exact)


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

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_query_is_refused(self, corpus2k, ivf2k, bad):
        query = corpus2k.vectors[3].copy()
        query[0] = bad
        with pytest.raises(ValueError, match="finite"):
            ivf_search(ivf2k, corpus2k, query, 10, 5)

    def test_tied_centroids_are_probed_in_list_id_order(self):
        # 40 lists whose centroids are copies of 3 points: every n_probe must
        # search the lowest-numbered lists of the group tied at key 0
        rng = np.random.default_rng(31)
        corpus = Corpus(rng.standard_normal((400, 4)).astype(np.float32),
                        rng.uniform(0, 1, 400), Metric.L2)
        points = rng.standard_normal((3, 4)).astype(np.float32)
        group = rng.integers(0, 3, size=40)
        lists = [np.sort(lst) for lst in np.array_split(rng.permutation(400), 40)]
        index = IvfIndex(40, 0, Metric.L2, points[group], lists)
        tied = np.flatnonzero(group == 0)
        for n_probe in range(1, len(tied) + 1):
            got = ivf_search(index, corpus, points[0], corpus.n, n_probe)
            probed = np.concatenate([lists[c] for c in tied[:n_probe]])
            assert np.array_equal(got.ids, exact_scan(corpus, points[0], corpus.n, probed).ids)

    @pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.name)
    def test_float64_centroids_probe_as_the_float32_ones(self, tmp_path, metric):
        # the kept float64 centroids must rank the lists, and so give ids,
        # keys and counters, as keying the stored float32 centroids does,
        # for a built index and a loaded one, and stay out of the file
        corpus = adversarial_corpus(8, 1.0, False, seed=5, n=600, metric=metric)
        built = ivf_build(corpus, 12, seed=5)
        path = tmp_path / "i.idx"
        save_ivf(built, path)
        saved = path.read_bytes()
        loaded = load_ivf(path)
        mask = build_mask(corpus, 0.4)
        rng = np.random.default_rng(6)
        queries = (corpus.vectors[7], corpus.vectors[7].astype(np.float64) * (1.0 + 2.0**-30),
                   rng.standard_normal(8))
        for index, query, n_probe, k, where in itertools.product(
            (built, loaded), queries, (1, 5, 12), (1, 20, 600), (None, mask)
        ):
            got = ivf_search(index, corpus, query, k, n_probe, where)
            keys = ordering_keys(query, index.centroids, metric)
            probe = np.argsort(keys, kind="stable")[:n_probe]
            ids = np.concatenate([index.lists[c] for c in probe])
            want = exact_scan(corpus, query, k, ids if where is None else ids[where.bits[ids]])
            want.telemetry.centroid_evaluations = 12
            want.telemetry.predicate_invocations = 0 if where is None else len(ids)
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.distances, want.distances)
            assert got.telemetry == want.telemetry
        for index in (built, loaded):
            copy = index.centroids64
            assert index.centroids64 is copy
            assert copy.dtype == np.float64 and np.array_equal(copy, index.centroids)
            save_ivf(index, path)
            assert path.read_bytes() == saved

    def test_a_query_half_an_ulp_between_two_centroids_probes_the_first(self):
        # the float64 query ties the two centroids' keys exactly, so the first
        # list is probed; rounded to float32 (half to even) it would land on
        # the second centroid
        ulp = 2.0**-23
        centroids = np.array([[1.0 + ulp], [1.0 + 2 * ulp]], dtype=np.float32)
        corpus = Corpus(np.array([[1.0 + ulp], [1.0 + 2 * ulp], [5.0], [6.0]], dtype=np.float32),
                        np.zeros(4), Metric.L2)
        index = IvfIndex(2, 0, Metric.L2, centroids, [np.array([0, 2]), np.array([1, 3])])
        query = np.array([1.0 + 1.5 * ulp])
        assert np.float32(query[0]) == centroids[1, 0]
        assert ivf_search(index, corpus, query, 1, 1).ids.tolist() == [0]

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
