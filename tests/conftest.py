"""Shared corpora and indexes; the expensive ones are session-scoped."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fanns import ivfflat
from fanns.corpus import ROW_BLOCK, Corpus, Metric, generate_synthetic, row_blocks
from fanns.hnsw import hnsw_build
from fanns.ivfflat import ivf_build
from fanns.oracle import l2_slack

# One pass/fail line per acceptance criterion, echoed after the run so the
# lines survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus2k():
    return generate_synthetic(2000, 16, seed=101)


@pytest.fixture(scope="session")
def hnsw2k(corpus2k):
    return hnsw_build(corpus2k, 10, 50, seed=7)


@pytest.fixture(scope="session")
def ivf2k(corpus2k):
    return ivf_build(corpus2k, 45, seed=7)


@pytest.fixture(scope="session")
def corpus20k():
    return generate_synthetic(20000, 16, seed=202)


@pytest.fixture(scope="session")
def hnsw20k(corpus20k):
    return hnsw_build(corpus20k, 10, 50, seed=7)


@pytest.fixture(scope="session")
def ivf20k(corpus20k):
    return ivf_build(corpus20k, 141, seed=7)


@pytest.fixture(scope="session")
def corpus20k_cluster():
    return generate_synthetic(
        20000, 16, seed=303, attr_mode="cluster_correlated", strength=1.0
    )


# row counts of the key-identity checks: every small batch HNSW makes, one
# full exact-scan block, and block sizes one row past it
ROW_COUNTS = list(range(1, 41)) + [ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]


def matmul_keys(query, rows, metric):
    """Inner-product and cosine keys as ``rows @ query`` over float64 rows,
    with the cosine norms multiplied per call: the reference that
    ``ordering_keys`` and the HNSW scorer must equal bit for bit."""
    query = np.asarray(query, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    if metric is Metric.INNER_PRODUCT:
        return -(rows @ query)
    return -(rows @ query) / (np.linalg.norm(query) * np.linalg.norm(rows, axis=1))


def sample_queries(corpus, n, seed):
    rng = np.random.default_rng(seed)
    ids = rng.choice(corpus.n, size=n, replace=False)
    return ids, corpus.vectors[ids]


def mixed_dtype_keys(query, rows, metric, divisors=None):
    """``ordering_keys`` with the L2 difference formed by one mixed-dtype
    subtract, ``np.subtract(rows, query, dtype=np.float64)``: the reference
    that the converted-then-subtracted kernel must equal bit for bit. Cosine
    ``divisors`` are ``ordering_keys``'s −|q|·|r|; the reference negates them
    back and keeps the negated-quotient form ``-(r·q) / (|q|·|r|)``."""
    query = np.asarray(query, dtype=np.float64)
    rows = np.atleast_2d(rows)
    if metric is Metric.L2:
        diff = np.subtract(rows, query, dtype=np.float64)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    rows = np.asarray(rows, dtype=np.float64)
    if metric is Metric.INNER_PRODUCT:
        return -rows.dot(query)
    if divisors is None:
        norms = np.linalg.norm(query) * np.linalg.norm(rows, axis=1)
    else:
        norms = -divisors
    return -rows.dot(query) / norms


def l2_pairs_keyed(corpus, centroids, ids=None):
    """The (row, centroid) pairs that one L2 call of ``ivfflat._assign_rows``
    keys, written out: a row keys the centroids whose float32 score is within
    2·slack of its smallest when there are several of them, and none when its
    own is the only one. Only the rows ``ids`` are scored (every row when
    None), gathered as ``_assign_rows`` gathers the rows it rescores, and with
    its product shapes."""
    sq_centroids = np.einsum("ij,ij->i", centroids, centroids)
    reach = math.sqrt(corpus.sq_row_norms.max()) + math.sqrt(sq_centroids.max())
    slack = l2_slack(corpus.dim, reach)
    minus_twice = (-2.0 * centroids).astype(np.float32)
    pairs = 0
    for block in row_blocks(corpus.n if ids is None else len(ids)):
        rows = corpus.vectors[block] if ids is None else corpus.vectors.take(ids[block], axis=0)
        scores = np.empty((len(rows), len(centroids)))
        for start in range(0, len(rows), ivfflat._PRODUCT_ROWS):
            part = slice(start, start + ivfflat._PRODUCT_ROWS)
            np.matmul(rows[part], minus_twice.T, out=scores[part])
        scores += sq_centroids
        kept = np.sum(scores <= scores.min(axis=1, keepdims=True) + 2.0 * slack, axis=1)
        pairs += int(kept[kept > 1].sum())
    return pairs


def rescored_rows(corpus, bounds):
    """The rows that an L2 call of ``ivfflat._assign_rows`` given ``bounds``
    scores, as ``l2_pairs_keyed`` takes them: None for every row."""
    ids = bounds.unsettled()
    return None if len(ids) == corpus.n else ids


def adversarial_corpus(d, scale, outlier, seed, n=1200, metric=Metric.L2):
    """Clustered rows at one scale, with exact duplicates, a row one float32
    ulp from another and, when ``outlier``, one row 1e6 times the scale: the
    inputs where a float32 bound on L2 distances is easiest to get wrong."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((6, d))
    vectors = (centres[rng.integers(0, 6, n)] + 0.1 * rng.standard_normal((n, d))) * scale
    vectors = vectors.astype(np.float32)
    vectors[n // 2 : n // 2 + 8] = vectors[:8]
    vectors[n - 2] = vectors[n - 1]
    vectors[n - 2, 0] = np.nextafter(vectors[n - 1, 0], np.float32(np.inf))
    if outlier:
        vectors[n // 3] *= np.float32(1e6)
    return Corpus(vectors, rng.uniform(0, 1, n), metric)
