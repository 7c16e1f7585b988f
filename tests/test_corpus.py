import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanns.corpus import (
    ROW_BLOCK,
    Corpus,
    CorpusFormatError,
    FilterMask,
    Metric,
    build_mask,
    generate_synthetic,
    load_corpus,
    ordering_keys,
    save_corpus,
    threshold_for_selectivity,
)

from conftest import ROW_COUNTS, matmul_keys


def _reference_distance(a, b, metric):
    """Scalar-loop implementation, deliberately independent of numpy kernels."""
    if metric is Metric.L2:
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    dot = sum(x * y for x, y in zip(a, b))
    if metric is Metric.INNER_PRODUCT:
        return dot
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


class TestOrderingKeys:
    def test_matches_distance_scalar(self):
        rng = np.random.default_rng(11)
        q = rng.standard_normal(8)
        rows = rng.standard_normal((5, 8))
        for metric in Metric:
            keys = ordering_keys(q, rows, metric)
            for i in range(5):
                d = _reference_distance(q.tolist(), rows[i].tolist(), metric)
                expected = d if metric is Metric.L2 else -d
                assert keys[i] == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch(self):
        for metric in Metric:
            with pytest.raises(ValueError, match="dimension mismatch"):
                ordering_keys([1.0, 2.0], [[1.0, 2.0, 3.0]], metric)

    def test_query_must_be_one_dimensional(self):
        # a (1, d) query against one-column rows passes the width check
        for metric in Metric:
            for query in (3.0, [[1.0, 2.0, 3.0, 4.0]], np.ones((1, 1))):
                with pytest.raises(ValueError, match="one-dimensional"):
                    ordering_keys(query, np.ones((3, 1)), metric)

    def test_cosine_zero_vector(self):
        # a zero query, and a zero row among nonzero ones
        for query, rows in (([0.0, 0.0], [[1.0, 0.0]]), ([1.0, 0.0], [[0.6, 0.8], [0.0, 0.0]])):
            with pytest.raises(ValueError, match="zero vectors"):
                ordering_keys(query, rows, Metric.COSINE)

    @pytest.mark.parametrize("d", [3, 16, 32])
    def test_l2_keys_do_not_depend_on_the_batch(self, d):
        rng = np.random.default_rng(d)
        rows = rng.standard_normal((400, d)).astype(np.float32)
        query = rng.standard_normal(d)
        full = ordering_keys(query, rows, Metric.L2)
        for _ in range(50):
            subset = rng.choice(400, size=int(rng.integers(1, 400)), replace=False)
            assert np.array_equal(ordering_keys(query, rows[subset], Metric.L2), full[subset])

    def test_cosine_inner_product_same_ordering_on_unit_norm(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((50, 6))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        q = rows[0]
        order_cos = np.argsort(ordering_keys(q, rows, Metric.COSINE), kind="stable")
        order_ip = np.argsort(ordering_keys(q, rows, Metric.INNER_PRODUCT), kind="stable")
        assert np.array_equal(order_cos, order_ip)

    @pytest.mark.parametrize("metric", [Metric.INNER_PRODUCT, Metric.COSINE])
    @pytest.mark.parametrize("d", [3, 16, 100])
    def test_dot_keys_equal_the_matmul_formulas(self, metric, d):
        # ordering_keys computes rows.dot(query) with per-row cosine divisors
        # -|q|·|r|;
        # on the BLAS running this suite its keys must equal the matmul
        # formulas bit for bit, for sliced and gathered rows of either dtype
        rng = np.random.default_rng(d)
        n = 2 * ROW_BLOCK + 1
        matrix = rng.standard_normal((n, d)) * rng.uniform(0.5, 2, size=(n, 1))
        matrix = matrix.astype(np.float32)
        query = rng.standard_normal(d)
        for m in ROW_COUNTS:
            start = int(rng.integers(0, n - m + 1))
            for rows in (matrix[start : start + m], matrix[rng.choice(n, m, replace=False)]):
                for dtype in (np.float32, np.float64):
                    typed = rows.astype(dtype)
                    expected = matmul_keys(query, typed, metric)
                    assert np.array_equal(ordering_keys(query, typed, metric), expected)
                    if metric is Metric.COSINE:
                        rows64 = typed.astype(np.float64)
                        divisors = -np.linalg.norm(query) * np.linalg.norm(rows64, axis=1)
                        keys = ordering_keys(query, typed, metric, divisors)
                        assert np.array_equal(keys, expected)


    @pytest.mark.parametrize("d", [3, 16, 100])
    def test_l2_keys_equal_the_converted_formula(self, d):
        # ordering_keys subtracts the query while converting the rows; its
        # keys must equal those of the rows converted first, bit for bit
        rng = np.random.default_rng(d + 7)
        n = 2 * ROW_BLOCK + 1
        matrix = rng.standard_normal((n, d)) * rng.uniform(0.5, 2, size=(n, 1))
        matrices = (matrix.astype(np.float32), matrix)
        query = rng.standard_normal(d)
        for m in ROW_COUNTS:
            start = int(rng.integers(0, n - m + 1))
            gathered = rng.choice(n, m, replace=False)
            for typed in matrices:
                for rows in (typed[start : start + m], typed[gathered]):
                    diff = rows.astype(np.float64) - query
                    expected = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                    assert np.array_equal(ordering_keys(query, rows, Metric.L2), expected)


def _reference_ordering_keys(query, rows, metric, divisors=None):
    """``ordering_keys`` as it was before its checks became identity checks:
    ``np.asarray`` on every argument and a ``Metric.X`` lookup per branch.
    The faster body must give the same keys and raise the same errors. Both
    refuse a query that is not one-dimensional."""
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1:
        raise ValueError(f"query must be one-dimensional, got shape {query.shape}")
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != query.shape[0]:
        raise ValueError(f"dimension mismatch: {query.shape[0]} vs {rows.shape[1]}")
    if metric is Metric.L2:
        if rows.dtype == np.float64:
            diff = rows - query
        else:
            diff = rows.astype(np.float64)
            diff -= query
        keys = np.einsum("ij,ij->i", diff, diff)
        return np.sqrt(keys, out=keys)
    rows = np.asarray(rows, dtype=np.float64)
    if metric is Metric.INNER_PRODUCT:
        return -rows.dot(query)
    if metric is Metric.COSINE:
        if divisors is None:
            qnorm = np.linalg.norm(query)
            rnorms = np.linalg.norm(rows, axis=1)
            if qnorm == 0.0 or np.any(rnorms == 0.0):
                raise ValueError("cosine similarity undefined for zero vectors")
            divisors = -qnorm * rnorms
        return rows.dot(query) / divisors
    raise ValueError(f"unknown metric {metric!r}")


def _outcome(keys, *args):
    """The keys ``keys(*args)`` returns, or the type and text of its error."""
    try:
        return keys(*args)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


def _assert_same_outcome(args, case):
    expected = _outcome(_reference_ordering_keys, *args)
    got = _outcome(ordering_keys, *args)
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and got == expected, (case, got)
    else:
        assert isinstance(got, np.ndarray), (case, got)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), case
        assert np.array_equal(got, expected), case


class TestReferenceKeys:
    """Every argument form the identity checks must convert, or refuse, as
    ``np.asarray`` did."""

    @staticmethod
    def _queries(rng, d):
        query = rng.standard_normal(d) * 3.0
        return {
            "list": query.tolist(),
            "int": 3,
            "float32": query.astype(np.float32),
            "float64": query,
            ">f8": query.astype(">f8"),
            "(1, d)": query[None, :],
        }

    @staticmethod
    def _rows(rng, d):
        rows = rng.standard_normal((7, d)) * rng.uniform(0.5, 2, size=(7, 1))
        wide = rng.standard_normal((14, 3 * d))
        return {
            "list": rows.tolist(),
            "1-D": rows[2],
            "float32": rows.astype(np.float32),
            "float64": rows,
            ">f8": rows.astype(">f8"),
            ">f8 1-D": rows[4].astype(">f8"),
            "Fortran": np.asfortranarray(rows),
            "Fortran float32": np.asfortranarray(rows.astype(np.float32)),
            "strided": wide[::2, ::3],
            "reversed": rows[::-1, ::-1],
            "(0, d)": rows[:0],
            "d + 1 columns": rng.standard_normal((3, d + 1)),
            "d - 1 columns": rng.standard_normal((3, max(d - 1, 0))),
        }

    @pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.name)
    @pytest.mark.parametrize("d", [1, 5, 16])
    def test_keys_and_errors_equal_the_reference(self, metric, d):
        rng = np.random.default_rng(90 + d + metric.value)
        for query_kind, query in self._queries(rng, d).items():
            for rows_kind, rows in self._rows(rng, d).items():
                count = len(np.atleast_2d(rows))
                for divisors in (None, -rng.uniform(0.5, 2, size=count)):
                    case = (query_kind, rows_kind, divisors is not None)
                    _assert_same_outcome((query, rows, metric, divisors), case)

    def test_zero_cosine_vectors_raise_as_the_reference(self):
        rng = np.random.default_rng(95)
        rows = rng.standard_normal((4, 6))
        with_zero = rows.copy()
        with_zero[2] = 0.0
        zero = np.zeros(6)
        for query in (zero.tolist(), zero.astype(np.float32), zero, zero.astype(">f8")):
            for typed in (rows, rows.astype(np.float32), rows.tolist()):
                _assert_same_outcome((query, typed, Metric.COSINE), ("zero query", type(typed)))
        for typed in (with_zero, with_zero.astype(np.float32), with_zero.astype(">f8")):
            _assert_same_outcome((rng.standard_normal(6), typed, Metric.COSINE), "zero row")


class TestCorpusValidation:
    def test_attribute_length_mismatch(self):
        with pytest.raises(ValueError):
            Corpus(vectors=np.zeros((3, 2)), attribute=np.zeros(4))

    def test_normalized_cosine_requires_unit_norm(self):
        with pytest.raises(ValueError):
            Corpus(
                vectors=np.array([[2.0, 0.0]]),
                attribute=np.zeros(1),
                metric=Metric.COSINE,
                normalized=True,
            )

    def test_normalized_cosine_check_holds_no_float64_copy(self):
        rng = np.random.default_rng(12)
        vectors = rng.standard_normal((20000, 256)).astype(np.float32)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        float64_copy = vectors.size * 8
        tracemalloc.start()
        try:
            Corpus(vectors=vectors, attribute=np.zeros(20000), metric=Metric.COSINE,
                   normalized=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < float64_copy

    def test_normalized_cosine_zero_row_is_a_zero_vector_error(self, tmp_path):
        vectors = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
        with pytest.raises(ValueError, match="zero vectors"):
            Corpus(vectors, np.zeros(2), Metric.COSINE, normalized=True)
        path = tmp_path / "zero.bin"
        save_corpus(Corpus(vectors, np.zeros(2), Metric.COSINE), path)
        data = bytearray(path.read_bytes())
        data[13] = 1  # the header's normalized flag
        path.write_bytes(bytes(data))
        with pytest.raises(CorpusFormatError, match="zero vectors"):
            load_corpus(path)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Corpus(vectors=np.zeros((0, 4)), attribute=np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, ROW_BLOCK + 5])
    def test_non_finite_vectors_rejected(self, bad, row):
        vectors = np.ones((ROW_BLOCK + 9, 3), dtype=np.float32)
        vectors[row, 1] = bad
        for metric in Metric:
            with pytest.raises(ValueError, match="finite"):
                Corpus(vectors=vectors, attribute=np.zeros(len(vectors)), metric=metric)

    def test_nan_attribute_rejected(self):
        # no threshold orders a NaN: its 5%-selectivity mask would hold no row
        attribute = np.arange(100.0)
        attribute[::20] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            Corpus(vectors=np.ones((100, 2), dtype=np.float32), attribute=attribute)

    def test_infinite_attributes_order(self):
        attribute = np.arange(100.0)
        attribute[::20] = np.inf
        corpus = Corpus(vectors=np.ones((100, 2), dtype=np.float32), attribute=attribute)
        mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.05))
        assert mask.valid_ids().tolist() == [0, 20, 40, 60, 80]


class TestCosineDivisors:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_the_query_norm_times_the_row_norms(self, dtype):
        rng = np.random.default_rng(14)
        n = 2 * ROW_BLOCK + 1
        vectors = rng.standard_normal((n, 12)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
        corpus = Corpus(vectors.astype(np.float32), rng.uniform(size=n), Metric.COSINE)
        query = rng.standard_normal(12).astype(dtype)
        row_norms = np.linalg.norm(corpus.vectors.astype(np.float64), axis=1)
        query_norm = np.linalg.norm(query.astype(np.float64))
        picked = rng.permutation(n)[:40]
        for ids in (slice(None), slice(ROW_BLOCK - 3, ROW_BLOCK + 20), picked.tolist(), picked):
            assert np.array_equal(corpus.cosine_divisors(query, ids), -query_norm * row_norms[ids])
        assert np.array_equal(corpus.cosine_divisors(query), -query_norm * row_norms)

    def test_every_divisor_is_negative(self):
        # the sign of a cosine key is folded into its divisor
        rng = np.random.default_rng(15)
        n = ROW_BLOCK + 9
        vectors = rng.standard_normal((n, 6)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        corpus = Corpus(vectors.astype(np.float32), rng.uniform(size=n), Metric.COSINE)
        for query in (rng.standard_normal(6) * 1e-3, rng.standard_normal(6).astype(np.float32)):
            picked = rng.permutation(n)[:25]
            for ids in (slice(None), picked.tolist(), picked):
                assert np.all(corpus.cosine_divisors(query, ids) < 0)

    def test_the_old_norms_keyword_is_refused(self):
        # a caller of the old positive |q|·|r| contract must not get
        # sign-flipped keys silently
        rows = np.eye(3)
        with pytest.raises(TypeError):
            ordering_keys(np.ones(3), rows, Metric.COSINE, norms=np.ones(3))

    @pytest.mark.parametrize("metric", [Metric.L2, Metric.INNER_PRODUCT])
    def test_none_under_the_other_metrics(self, metric):
        corpus = Corpus(np.eye(3, dtype=np.float32), np.zeros(3), metric)
        assert corpus.cosine_divisors(np.ones(3)) is None
        assert corpus.cosine_divisors(np.zeros(3), [0, 2]) is None

    @pytest.mark.parametrize("d", [1, 3, 16, 17, 768])
    def test_equal_numpy_s_query_norm_bit_for_bit(self, d):
        # the query norm skips np.linalg.norm's dispatch, not its arithmetic
        rng = np.random.default_rng(16 + d)
        n = 300
        vectors = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
        corpus = Corpus(vectors.astype(np.float32), rng.uniform(size=n), Metric.COSINE)
        picked = rng.permutation(n)[:40]
        for _ in range(20):
            query = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            spread = np.zeros(2 * d)
            spread[::2] = query
            for typed in (query.tolist(), query.astype(np.float32), query, query[None, :], spread[::2]):
                query_norm = np.linalg.norm(np.asarray(typed, np.float64))
                for ids in (slice(None), slice(7, 90), picked.tolist(), picked):
                    expected = -query_norm * corpus.cosine_row_norms[ids]
                    assert np.array_equal(corpus.cosine_divisors(typed, ids), expected)
        for zero in ([0.0] * d, np.zeros(d, np.float32), np.zeros(d)):
            with pytest.raises(ValueError, match="zero vectors"):
                corpus.cosine_divisors(zero, picked)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_query_raises(self, dtype):
        corpus = Corpus(np.eye(3, dtype=np.float32), np.zeros(3), Metric.COSINE)
        with pytest.raises(ValueError, match="zero vectors"):
            corpus.cosine_divisors(np.zeros(3, dtype=dtype), [1])


class TestFilterMask:
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_popcount_matches(self, bits):
        mask = FilterMask(np.array(bits))
        assert mask.valid_count == sum(bits)
        assert mask.global_selectivity == pytest.approx(sum(bits) / len(bits))
        assert mask.is_empty == (sum(bits) == 0)
        assert np.array_equal(mask.valid_ids(), np.flatnonzero(np.array(bits)))

    def test_build_mask_all_and_empty(self):
        corpus = generate_synthetic(200, 4, seed=1)
        assert build_mask(corpus, -np.inf).global_selectivity == 1.0
        empty = build_mask(corpus, float(corpus.attribute.max()) + 1.0)
        assert empty.is_empty

    def test_uniform_selectivity_at_point_nine(self):
        corpus = generate_synthetic(10000, 4, seed=9)
        sigma = build_mask(corpus, 0.9).global_selectivity
        assert abs(sigma - 0.1) < 0.02

    @pytest.mark.parametrize("shape", [(300, 2), (1, 300), ()])
    def test_bits_must_be_one_dimensional(self, shape):
        # a (300, 2) mask used to pass as 300 rows with σ_g = 2.0
        with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
            FilterMask(np.ones(shape, dtype=bool))


class TestThresholdForSelectivity:
    def test_target_one_is_minimum(self):
        corpus = generate_synthetic(500, 4, seed=2)
        assert threshold_for_selectivity(corpus, 1.0) == float(corpus.attribute.min())

    def test_integer_attribute_half(self):
        corpus = Corpus(
            vectors=np.zeros((100, 2), dtype=np.float32),
            attribute=np.arange(1, 101, dtype=np.float64),
        )
        threshold = threshold_for_selectivity(corpus, 0.5)
        assert threshold == 51.0
        assert build_mask(corpus, threshold).global_selectivity == 0.5

    def test_fine_grained_target(self):
        corpus = generate_synthetic(20000, 4, seed=3)
        threshold = threshold_for_selectivity(corpus, 0.01)
        sigma = build_mask(corpus, threshold).global_selectivity
        assert abs(sigma - 0.01) < 0.002

    @given(st.integers(0, 2**31), st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_no_better_threshold_exists(self, seed, target):
        rng = np.random.default_rng(seed)
        attr = np.round(rng.uniform(0, 1, size=60), 2)  # force ties
        corpus = Corpus(vectors=np.zeros((60, 2), dtype=np.float32), attribute=attr)
        best = threshold_for_selectivity(corpus, target)
        achieved = abs(build_mask(corpus, best).global_selectivity - target)
        for value in np.unique(attr):
            other = abs(build_mask(corpus, float(value)).global_selectivity - target)
            assert achieved <= other + 1e-12

    def test_out_of_range_target(self):
        corpus = generate_synthetic(10, 2, seed=0)
        with pytest.raises(ValueError):
            threshold_for_selectivity(corpus, 0.0)


class TestGenerateSynthetic:
    def test_determinism(self):
        a = generate_synthetic(100, 4, seed=7)
        b = generate_synthetic(100, 4, seed=7)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.attribute, b.attribute)

    def test_unit_norm_and_flags(self):
        corpus = generate_synthetic(300, 8, seed=4)
        norms = np.linalg.norm(corpus.vectors.astype(np.float64), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)
        assert corpus.metric is Metric.COSINE and corpus.normalized

    def test_cluster_mode_attribute_range(self):
        corpus = generate_synthetic(
            500, 8, seed=6, attr_mode="cluster_correlated", strength=0.7
        )
        assert corpus.attribute.min() >= 0.0 and corpus.attribute.max() <= 1.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, 2, seed=0, attr_mode="bogus")


class TestFileIO:
    def test_round_trip_small(self, tmp_path):
        corpus = Corpus(
            vectors=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=np.float32),
            attribute=np.array([0.1, 0.2, 0.3]),
        )
        path = tmp_path / "c.fvc"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert np.array_equal(loaded.vectors, corpus.vectors)
        assert np.array_equal(loaded.attribute, corpus.attribute)
        assert loaded.metric is corpus.metric
        assert loaded.normalized == corpus.normalized

    def test_round_trip_bytes_stable(self, tmp_path):
        corpus = generate_synthetic(1000, 24, seed=8)
        p1, p2 = tmp_path / "a.fvc", tmp_path / "b.fvc"
        save_corpus(corpus, p1)
        save_corpus(load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_is_a_format_error(self, tmp_path, bad):
        corpus = generate_synthetic(50, 4, seed=9)
        path = tmp_path / "c.fvc"
        save_corpus(corpus, path)
        data = bytearray(path.read_bytes())
        # header: 4-byte magic, then n, d (u32), metric, normalized, 2 pad bytes
        offset = 16 + 4 * (7 * corpus.dim + 2)
        data[offset : offset + 4] = np.float32(bad).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(CorpusFormatError, match="finite"):
            load_corpus(path)

    def test_nan_attribute_is_a_format_error(self, tmp_path):
        corpus = generate_synthetic(50, 4, seed=9)
        path = tmp_path / "c.fvc"
        save_corpus(corpus, path)
        data = bytearray(path.read_bytes())
        offset = 16 + 4 * corpus.n * corpus.dim + 8 * 7  # row 7's attribute
        data[offset : offset + 8] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(CorpusFormatError, match="NaN"):
            load_corpus(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fvc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_truncated(self, tmp_path):
        corpus = generate_synthetic(10, 4, seed=1)
        path = tmp_path / "t.fvc"
        save_corpus(corpus, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorpusFormatError):
            load_corpus(path)
