from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fanns import oracle
from fanns.corpus import (
    ROW_BLOCK,
    Corpus,
    FilterMask,
    Metric,
    build_mask,
    generate_synthetic,
    ordering_keys,
    row_blocks,
)
from fanns.gls import distance_correlation, gls_exact
from fanns.ivfflat import ivf_build, ivf_search
from fanns.oracle import exact_knn, exact_scan, l2_scores
from fanns.telemetry import SearchTelemetry, rank_by_key_then_id

from conftest import adversarial_corpus, mixed_dtype_keys


def _selection_sort_knn(corpus, query, k, mask=None):
    """Independent O(N*k) reference: repeated minimum extraction."""
    candidates = []
    for i in range(corpus.n):
        if mask is not None and not mask.bits[i]:
            continue
        key = float(ordering_keys(query, corpus.vectors[i], corpus.metric)[0])
        candidates.append((key, i))
    out = []
    for _ in range(min(k, len(candidates))):
        best = min(candidates)
        candidates.remove(best)
        out.append(best)
    return [i for _, i in out], [d for d, _ in out]


@pytest.fixture(scope="module")
def l2_corpus():
    rng = np.random.default_rng(21)
    return Corpus(
        vectors=rng.standard_normal((1000, 16)).astype(np.float32),
        attribute=rng.uniform(0, 1, size=1000),
        metric=Metric.L2,
    )


def test_self_query_is_nearest(l2_corpus):
    row = exact_knn(l2_corpus, l2_corpus.vectors[17], 1)
    assert row.ids.tolist() == [17]
    assert row.distances[0] == 0.0


def test_result_shorter_than_k_when_mask_small(l2_corpus):
    bits = np.zeros(l2_corpus.n, dtype=bool)
    bits[[3, 400, 999]] = True
    row = exact_knn(l2_corpus, l2_corpus.vectors[0], 10, FilterMask(bits))
    assert len(row) == 3
    assert set(row.ids.tolist()) == {3, 400, 999}


def test_empty_mask_gives_empty_row(l2_corpus):
    row = exact_knn(l2_corpus, l2_corpus.vectors[0], 5, FilterMask(np.zeros(l2_corpus.n, bool)))
    assert len(row) == 0


@pytest.mark.parametrize("masked", [False, True])
def test_matches_selection_sort_reference(l2_corpus, masked):
    rng = np.random.default_rng(33)
    mask = build_mask(l2_corpus, 0.5) if masked else None
    for _ in range(5):
        query = rng.standard_normal(16)
        row = exact_knn(l2_corpus, query, 10, mask)
        ref_ids, ref_dists = _selection_sort_knn(l2_corpus, query, 10, mask)
        assert row.ids.tolist() == ref_ids
        assert np.allclose(row.distances, ref_dists)


def test_ties_at_the_kth_key_go_to_the_smaller_id():
    # Corpora of a few distinct rows, each repeated: many rows tie with the
    # k-th key. The reference is a full (key, id) sort; the IVF scan of every
    # list sees the same rows in probe order and must agree.
    rng = np.random.default_rng(44)
    for trial in range(30):
        n = int(rng.integers(20, 80))
        distinct = rng.standard_normal((6, 4))
        corpus = Corpus(
            vectors=distinct[rng.integers(0, 6, size=n)].astype(np.float32),
            attribute=rng.uniform(0, 1, size=n),
            metric=Metric.L2,
        )
        mask = None if trial % 2 else build_mask(corpus, rng.uniform(0.0, 0.6))
        query = rng.standard_normal(4)
        k = int(rng.integers(1, n))
        ids = np.arange(n) if mask is None else mask.valid_ids()
        keys = ordering_keys(query, corpus.vectors, corpus.metric)[ids]
        reference = ids[np.lexsort((ids, keys))[:k]].tolist()
        assert exact_knn(corpus, query, k, mask).ids.tolist() == reference
        index = ivf_build(corpus, 3, seed=trial)
        got = ivf_search(index, corpus, query, k, index.n_clusters, mask=mask)
        assert got.ids.tolist() == reference


# few distinct keys force exact ties, -0.0 among them to tie 0.0
_TYING_KEYS = st.sampled_from([-2.5, -0.0, 0.0, 1e-300, 0.75, np.inf])


@settings(max_examples=300, deadline=None)
@given(st.lists(_TYING_KEYS | st.floats(width=64), max_size=40).flatmap(
    lambda keys: st.tuples(st.just(keys), st.lists(
        st.integers(-(2**40), 2**40), min_size=len(keys), max_size=len(keys), unique=True))))
@example(([], []))
@example(([0.5], [7]))
@example(([0.0, -0.0], [5, 2]))
@example(([-0.0, 0.0], [2, 5]))
@example(([1.0, 1.0], [9, 3]))
@example(([2.0, 1.0], [3, 9]))
def test_ranking_equals_lexsort(keys_and_ids):
    # distinct, unsorted ids: the (key, id) order of np.lexsort, bit for bit
    keys, ids = (np.array(values) for values in keys_and_ids)
    keys, ids = keys.astype(np.float64), ids.astype(np.int64)
    order = rank_by_key_then_id(keys, ids)
    assert order.dtype == np.intp
    assert np.array_equal(order, np.lexsort((ids, keys)))


@pytest.mark.parametrize("k", [10, 2048])
def test_a_result_holds_only_its_own_ids_and_keys(k):
    # a result kept for later, as ground truth is, must not keep the ranking
    # of every scanned row alive through a view: k = 2048 of 3,000 rows
    # ranks them all, k = 10 cuts them first
    corpus = generate_synthetic(3000, 8, seed=2)
    result = exact_scan(corpus, corpus.vectors[0], k)
    for array in (result.ids, result.distances):
        assert array.size == k
        assert array.base is None or array.base.size <= k


def test_cosine_zero_query_and_zero_row_are_refused():
    corpus = generate_synthetic(100, 8, seed=4)
    with pytest.raises(ValueError, match="zero vectors"):
        exact_knn(corpus, np.zeros(8), 5)
    vectors = corpus.vectors.copy()
    vectors[17] = 0.0
    zeroed = Corpus(vectors=vectors, attribute=corpus.attribute, metric=Metric.COSINE)
    with pytest.raises(ValueError, match="zero vectors"):
        exact_knn(zeroed, corpus.vectors[0], 5)
    # the row norms are read for the whole corpus, so a scan that never
    # scores the zero row fails too
    without_zero = FilterMask(np.arange(corpus.n) != 17)
    with pytest.raises(ValueError, match="zero vectors"):
        exact_knn(zeroed, corpus.vectors[0], 5, without_zero)


def _varied_corpus(n, d, metric, seed):
    """Rows with norms spread over 0.01-100, so cosine norms matter."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
    return Corpus(vectors.astype(np.float32), rng.uniform(0, 1, n), metric)


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("n", [ROW_BLOCK, 2 * ROW_BLOCK + 1])
def test_blocked_scan_equals_one_key_call(metric, n):
    # Scored one block of rows per call, the keys must equal one call over
    # all the rows bit for bit, on this machine's BLAS.
    corpus = _varied_corpus(n, 24, metric, seed=n)
    rng = np.random.default_rng(5)
    for ids in (None, rng.permutation(n)):
        rows = np.arange(n) if ids is None else ids
        for query in (rng.standard_normal(24), corpus.vectors[3]):
            keys = ordering_keys(query, corpus.vectors[rows], metric)
            order = np.lexsort((rows, keys))
            result = exact_scan(corpus, query, len(rows), ids)
            assert np.array_equal(result.distances, keys[order])
            assert np.array_equal(result.ids, rows[order])
            assert result.telemetry.distance_evaluations == len(rows)


@pytest.mark.parametrize("metric", list(Metric))
def test_every_exact_row_set_is_keyed_through_scan_keys(monkeypatch, metric):
    # one keyed pass serves the exact scans and the min-distance baseline:
    # each call's keys are every key its caller computes
    corpus = _varied_corpus(900, 6, metric, seed=41)
    query, mask = np.random.default_rng(42).standard_normal(6), build_mask(corpus, 0.5)
    index = ivf_build(corpus, 4, seed=1)
    original, keyed = oracle.scan_keys, []

    def recording(corpus, query, ids=None):
        keys = original(corpus, query, ids)
        keyed.append(len(keys))
        return keys

    monkeypatch.setattr(oracle, "scan_keys", recording)
    for search in (
        lambda: exact_knn(corpus, query, 10),
        lambda: exact_knn(corpus, query, 10, mask),
        lambda: ivf_search(index, corpus, query, 10, 2, mask),
        lambda: ivf_search(index, corpus, query, 10, 4),
    ):
        keyed.clear()
        result = search()
        assert len(keyed) == 1 and keyed[0] == result.telemetry.distance_evaluations > 0
    keyed.clear()
    gls_exact(corpus, query, mask, k_neighborhood=50)
    assert len(keyed) == 1 and 0 < keyed[0] <= corpus.n
    keyed.clear()
    distance_correlation(corpus, [(query, mask)], trials=3)
    assert keyed == [mask.valid_count] * 4


def test_cosine_row_norms_are_blockwise_exact_and_skip_the_float64_copy():
    corpus = _varied_corpus(2 * ROW_BLOCK + 1, 24, Metric.COSINE, seed=9)
    expected = np.linalg.norm(corpus.vectors.astype(np.float64), axis=1)
    assert np.array_equal(corpus.cosine_row_norms, expected)
    exact_knn(corpus, corpus.vectors[0], 10)
    assert "vectors64" not in corpus.__dict__


def test_sq_row_norms_are_blockwise_exact_and_skip_the_float64_copy():
    corpus = _varied_corpus(2 * ROW_BLOCK + 1, 24, Metric.L2, seed=10)
    expected = np.sum(corpus.vectors.astype(np.float64) ** 2, axis=1)
    exact_knn(corpus, corpus.vectors[0], 10)
    assert np.array_equal(corpus.__dict__["sq_row_norms"], expected)
    assert "vectors64" not in corpus.__dict__


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("masked", [False, True])
def test_non_finite_query_is_refused(l2_corpus, bad, masked):
    query = l2_corpus.vectors[5].copy()
    query[4] = bad
    mask = build_mask(l2_corpus, 0.5) if masked else None
    with pytest.raises(ValueError, match="finite"):
        exact_knn(l2_corpus, query, 10, mask)


class TestOverflowingKeys:
    """A finite query far larger than the rows overflows inner-product keys
    to inf and NaN (N(0, 1) * 1e30 rows, four 1e300s, k = 10): both
    rankings of ``exact_scan`` refuse it. numpy's overflow warnings are
    silenced, so the ``ValueError`` is the package's own."""

    @staticmethod
    def _corpus(n, scale=1.0):
        rng = np.random.default_rng(0)
        vectors = (rng.standard_normal((n, 4)) * scale).astype(np.float32)
        return Corpus(vectors, rng.uniform(size=n), Metric.INNER_PRODUCT)

    @pytest.mark.parametrize("n", [40, 2000], ids=["one_pass", "partition"])
    def test_an_overflowing_query_is_refused(self, n):
        # 40 rows are ranked in one pass; 2,000 are cut at the 10th key first
        corpus = self._corpus(n, scale=1e30)
        with np.errstate(over="ignore", invalid="ignore"):
            keys = ordering_keys(np.full(4, 1e300), corpus.vectors, corpus.metric)
            assert not np.isfinite(keys).any()
            with pytest.raises(ValueError, match="not finite"):
                exact_knn(corpus, np.full(4, 1e300), 10)

    @pytest.mark.parametrize("n", [40, 2000], ids=["one_pass", "partition"])
    def test_a_nan_key_past_the_kth_is_refused(self, n):
        # one row keyed NaN (inf - inf) among finite keys
        corpus = self._corpus(n)
        vectors = corpus.vectors.copy()
        vectors[n // 2] = [3e38, -3e38, 0.0, 0.0]
        corpus = replace(corpus, vectors=vectors)
        query = np.array([1e290, 1e290, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            keys = ordering_keys(query, corpus.vectors, corpus.metric)
            assert np.isnan(keys).sum() == 1 and np.isfinite(keys).sum() == n - 1
            with pytest.raises(ValueError, match="not finite"):
                exact_knn(corpus, query, 10)

    @pytest.mark.parametrize("n", [40, 2000], ids=["one_pass", "partition"])
    def test_an_infinite_key_past_the_kth_is_left_out(self, n):
        corpus = self._corpus(n)
        vectors = corpus.vectors.copy()
        vectors[7] = [-3e38, 0.0, 0.0, 0.0]
        corpus = replace(corpus, vectors=vectors)
        query = np.array([1e290, 0.0, 0.0, 0.0])
        with np.errstate(over="ignore"):
            keys = ordering_keys(query, corpus.vectors, corpus.metric)
            assert np.isposinf(keys).sum() == 1 and np.isfinite(keys).sum() == n - 1
            result = exact_knn(corpus, query, 10)
        assert 7 not in result.ids.tolist() and np.isfinite(result.distances).all()


def test_distances_nondecreasing_and_ids_unique(corpus2k):
    row = exact_knn(corpus2k, corpus2k.vectors[5], 50)
    assert np.all(np.diff(row.distances) >= 0)
    assert len(set(row.ids.tolist())) == len(row)


def test_every_result_passes_mask(corpus2k):
    mask = build_mask(corpus2k, 0.8)
    row = exact_knn(corpus2k, corpus2k.vectors[9], 20, mask)
    assert mask.bits[row.ids].all()


def test_relaxing_mask_never_worsens_jth_neighbor(corpus2k):
    strict = build_mask(corpus2k, 0.8)
    loose = build_mask(corpus2k, 0.5)
    query = corpus2k.vectors[123]
    row_s = exact_knn(corpus2k, query, 10, strict)
    row_l = exact_knn(corpus2k, query, 10, loose)
    for j in range(min(len(row_s), len(row_l))):
        assert row_l.distances[j] <= row_s.distances[j] + 1e-12


def _reference_exact_scan(corpus, query, k, ids=None):
    """The exact scan with a fancy-index gather per block, ``np.arange`` ids
    for a full scan and the mixed-dtype L2 subtract: slow, and the reference
    the gathered and position-id scan must equal in ids, keys and counters."""
    full = ids is None
    ids = np.arange(corpus.n) if full else np.asarray(ids, dtype=np.int64)
    m = min(k, len(ids))
    if m < 1:
        return np.empty(0, dtype=np.int64), np.empty(0), SearchTelemetry()
    query = np.asarray(query, dtype=np.float64)
    keys = np.empty(len(ids))
    for block in row_blocks(len(ids)):
        block_ids = block if full else ids[block]
        divisors = None
        if corpus.metric is Metric.COSINE:
            divisors = -np.linalg.norm(query) * corpus.cosine_row_norms[block_ids]
        keys[block] = mixed_dtype_keys(query, corpus.vectors[block_ids], corpus.metric, divisors)
    kth = keys[np.argpartition(keys, m - 1)[m - 1]]
    pick = np.flatnonzero(keys <= kth)
    order = pick[np.lexsort((ids[pick], keys[pick]))][:m]
    return ids[order], keys[order], SearchTelemetry(len(ids), len(ids))


def _assert_equals_reference(result, corpus, query, k, ids=None):
    """``result`` has the reference scan's ids, keys and counters, except that
    an L2 scan with k below its scanned count may compute fewer exact keys:
    at least every row whose key ties or beats the k-th, at most all of them."""
    ref_ids, ref_keys, telemetry = _reference_exact_scan(corpus, query, k, ids)
    assert result.ids.dtype == np.int64
    assert np.array_equal(result.ids, ref_ids)
    assert np.array_equal(result.distances, ref_keys)
    scanned, evals = telemetry.nodes_visited, result.telemetry.distance_evaluations
    assert replace(result.telemetry, distance_evaluations=scanned) == telemetry
    if corpus.metric is Metric.L2 and k < scanned:
        rows = np.arange(corpus.n) if ids is None else ids
        keys = mixed_dtype_keys(query, corpus.vectors[rows], Metric.L2)
        assert np.count_nonzero(keys <= ref_keys[-1]) <= evals <= scanned
    else:
        assert evals == scanned


class TestReferenceScan:
    N = 2 * ROW_BLOCK + 1  # two blocks, the second with the one-row tail

    @pytest.fixture(scope="class", params=list(Metric), ids=lambda m: m.name)
    def tied_corpus(self, request):
        """Rows of varied norms, a quarter of them copies of other rows, so
        that many keys tie."""
        rng = np.random.default_rng(60 + request.param.value)
        vectors = rng.standard_normal((self.N, 8)) * 10.0 ** rng.uniform(-1, 1, (self.N, 1))
        vectors[rng.choice(self.N, self.N // 4)] = vectors[rng.choice(self.N, self.N // 4)]
        return Corpus(vectors.astype(np.float32), rng.uniform(0, 1, self.N), request.param)

    def _queries(self, corpus):
        rng = np.random.default_rng(61)
        row = corpus.vectors[int(rng.integers(corpus.n))]
        return {"float32 row": row, "float64 row": row.astype(np.float64),
                "float64": rng.standard_normal(corpus.dim)}


    @pytest.mark.parametrize("k", [1, 10, ROW_BLOCK + 1, N])
    def test_scans_equal_the_reference(self, tied_corpus, k):
        rng = np.random.default_rng(k)
        shuffled = rng.permutation(self.N)
        scans = {
            "full": None,
            "shuffled": shuffled,
            "shuffled part": shuffled[: ROW_BLOCK + 1],
            "sorted part": np.sort(shuffled[:ROW_BLOCK]),
            "empty": np.empty(0, dtype=np.int64),
        }
        for query in self._queries(tied_corpus).values():
            for ids in scans.values():
                _assert_equals_reference(exact_scan(tied_corpus, query, k, ids), tied_corpus, query, k, ids)

    @pytest.mark.parametrize("k", [1, 10, ROW_BLOCK + 1, N])
    def test_exact_knn_equals_the_reference(self, tied_corpus, k):
        for sigma in (None, 0.05, 0.5, 1.0):
            mask = None if sigma is None else build_mask(
                tied_corpus, np.quantile(tied_corpus.attribute, 1.0 - sigma))
            ids = None if mask is None else mask.valid_ids()
            for query in self._queries(tied_corpus).values():
                _assert_equals_reference(exact_knn(tied_corpus, query, k, mask), tied_corpus, query, k, ids)

    @settings(max_examples=100, deadline=None)
    @given(
        scan=st.sampled_from(["full", "mask", "ids"]),
        size=st.integers(1, 600) | st.integers(1, N),
        k_kind=st.sampled_from(["one", "middle", "all"]),
        fraction=st.floats(0.0, 1.0),
        query_kind=st.sampled_from(["float32 row", "float64 row", "float64"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(scan="full", size=1, k_kind="one", fraction=0.0, query_kind="float64", seed=0)
    @example(scan="ids", size=300, k_kind="one", fraction=0.0, query_kind="float64", seed=0)
    @example(scan="ids", size=1000, k_kind="middle", fraction=0.3, query_kind="float64", seed=0)
    @example(scan="ids", size=1000, k_kind="middle", fraction=0.6, query_kind="float64", seed=0)
    @example(scan="mask", size=N, k_kind="all", fraction=0.0, query_kind="float32 row", seed=0)
    def test_both_rankings_equal_the_reference(
        self, tied_corpus, scan, size, k_kind, fraction, query_kind, seed
    ):
        # A scan that keyed at most max(2m, 512) rows ranks them all at once,
        # a larger one partitions first; m = 1, a middle m and every row put
        # the keyed count on both sides, and a narrowed L2 scan keys few rows
        rng = np.random.default_rng(seed)
        mask = ids = None
        if scan == "mask":
            mask = FilterMask(rng.permutation(self.N) < size)
            ids = mask.valid_ids()
        elif scan == "ids":
            ids = rng.permutation(self.N)[:size]
        n = self.N if ids is None else len(ids)
        k = {"one": 1, "middle": 1 + int(fraction * (n - 1)), "all": n}[k_kind]
        query = self._queries(tied_corpus)[query_kind]
        result = exact_knn(tied_corpus, query, k, mask) if scan == "mask" else exact_scan(
            tied_corpus, query, k, ids)
        _assert_equals_reference(result, tied_corpus, query, k, ids)
        keyed = _keyed_rows(tied_corpus, query, k, ids)
        assert result.telemetry == SearchTelemetry(distance_evaluations=keyed, nodes_visited=n)
        event("ranked whole" if keyed <= max(2 * min(k, n), 512) else "partitioned")
        event("narrowed" if keyed < n else "every row keyed")


def _keyed_rows(corpus, query, k, ids):
    """The rows an exact scan keys: every scanned row, except in an L2 scan
    of at least 4m + 512 rows, which keys the rows whose ``l2_scores`` score
    lies within twice the slack of the m-th smallest."""
    n = corpus.n if ids is None else len(ids)
    m = min(k, n)
    scored = l2_scores(corpus, np.asarray(query, dtype=np.float64), ids)
    if corpus.metric is not Metric.L2 or n < 4 * m + 512 or scored is None:
        return n
    scores, slack = scored
    return int(np.count_nonzero(scores <= np.partition(scores, m - 1)[m - 1] + 2.0 * slack))


def _adversarial_queries(corpus, scale):
    row = corpus.vectors[5]
    return {
        "a duplicated row": row,
        "a row one ulp from another": corpus.vectors[-1],
        # 1 + 2**-30 needs more bits than a float32 significand holds
        "a row off the float32 grid": row.astype(np.float64) * (1.0 + 2.0**-30),
        "near the data": np.random.default_rng(3).standard_normal(corpus.dim) * scale,
        "far from the data": np.full(corpus.dim, 1e4 * scale),
    }


def _probed_ids(index, query, n_probe):
    """The ids that ``ivf_search`` scans, in its probe order."""
    keys = ordering_keys(query, index.centroids, index.metric)
    return np.concatenate([index.lists[c] for c in np.argsort(keys, kind="stable")[:n_probe]])


class TestL2Narrowing:
    """Narrowed L2 scans against the reference scan, which keys every row.
    A scan is narrowed from 4k + 512 rows, so the corpora are 1,200 rows and
    the hypothesis scans mostly 500 to 800."""

    @pytest.mark.parametrize("outlier", [False, True], ids=["", "outlier"])
    @pytest.mark.parametrize("scale", [1e-30, 1e-8, 1.0, 1e8, 1e18])
    @pytest.mark.parametrize("d", [1, 3, 16, 32, 768])
    def test_scans_equal_the_reference(self, d, scale, outlier):
        corpus = adversarial_corpus(d, scale, outlier, seed=d)
        index = ivf_build(corpus, 4, seed=1)
        shuffled = np.random.default_rng(d).permutation(corpus.n)
        for query in _adversarial_queries(corpus, scale).values():
            scans = {"full": (None, None), "shuffled": (shuffled, None),
                     "shuffled part": (shuffled[: 2 * corpus.n // 3], None),
                     "two probes": (_probed_ids(index, query, 2), 2),
                     "every probe": (_probed_ids(index, query, 4), 4)}
            for ids, n_probe in scans.values():
                scanned = corpus.n if ids is None else len(ids)
                # (scanned - 512) // 4 is the largest k that a scan narrows
                for k in (1, 10, (scanned - 512) // 4, scanned - 1, scanned, scanned + 5):
                    if k < 1:
                        continue
                    if n_probe is None:
                        result = exact_scan(corpus, query, k, ids)
                    else:
                        result = ivf_search(index, corpus, query, k, n_probe)
                        assert result.telemetry.centroid_evaluations == index.n_clusters
                        result.telemetry.centroid_evaluations = 0
                    _assert_equals_reference(result, corpus, query, k, ids)

    def test_the_scan_is_narrowed(self):
        # the bound must leave few rows on ordinary data; a scan below
        # 4k + 512 rows, or where float32 could overflow, keys every row
        corpus = adversarial_corpus(32, 1.0, False, seed=1)
        result = exact_knn(corpus, corpus.vectors[5], 10)
        assert 10 <= result.telemetry.distance_evaluations < corpus.n // 4
        assert result.telemetry.nodes_visited == corpus.n
        k = (corpus.n - 512) // 4 + 1
        assert exact_knn(corpus, corpus.vectors[5], k).telemetry.distance_evaluations == corpus.n
        huge = adversarial_corpus(32, 1e18, False, seed=1)
        assert exact_knn(huge, huge.vectors[5], 10).telemetry.distance_evaluations == huge.n

    def test_a_narrowed_scan_of_many_ties_ranks_after_the_partition(self):
        # 700 copies of one row share the k-th key, so the narrowed scan keys
        # more than max(2k, 512) rows and cuts them at that key before ranking
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((2000, 8)).astype(np.float32)
        vectors[:700] = vectors[0]
        corpus = Corpus(vectors, rng.uniform(0, 1, 2000), Metric.L2)
        query = vectors[0] + 0.01 * rng.standard_normal(8)
        for ids in (None, rng.permutation(2000)):
            result = exact_scan(corpus, query, 10, ids)
            _assert_equals_reference(result, corpus, query, 10, ids)
            assert 700 <= result.telemetry.distance_evaluations < corpus.n

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 800) | st.integers(500, 800),
        d=st.integers(1, 12),
        exponent=st.integers(-30, 18),
        distinct=st.integers(1, 8),
        query_kind=st.sampled_from(["row", "off grid", "random"]),
        k=st.integers(1, 70) | st.integers(1, 810),
        subset=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_narrowed_scans_equal_the_reference(
        self, n, d, exponent, distinct, query_kind, k, subset, seed
    ):
        # rows drawn from a few distinct vectors, so that many keys tie
        rng = np.random.default_rng(seed)
        pool = rng.standard_normal((distinct, d)) * 10.0**exponent
        vectors = (pool[rng.integers(0, distinct, n)]
                   + rng.standard_normal((n, d)) * 10.0 ** (exponent - rng.integers(1, 8)))
        corpus = Corpus(vectors.astype(np.float32), rng.uniform(0, 1, n), Metric.L2)
        row = corpus.vectors[int(rng.integers(n))]
        query = {"row": row, "off grid": row.astype(np.float64) * (1.0 + 2.0**-30),
                 "random": rng.standard_normal(d) * 10.0**exponent}[query_kind]
        ids = rng.permutation(n)[: int(rng.integers(n // 2, n + 1))] if subset else None
        _assert_equals_reference(exact_scan(corpus, query, k, ids), corpus, query, k, ids)
