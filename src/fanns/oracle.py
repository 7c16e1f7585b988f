"""Exact (brute-force) k-NN over optionally masked rows.

This is the ground truth, computed in memory and never stored, and the
correctness reference for every approximate search path; :func:`exact_scan`
is the package's only exact top-k kernel: the PreExact plan and each IVFFlat
probe run it too. Distances reported here are the smaller-is-closer ordering
keys of :mod:`fanns.corpus`, so approximate results can be compared
value-for-value. Ties are broken by ascending row id everywhere: every
result is ranked by one function, ``telemetry.rank_by_key_then_id``, one
argsort of the keys that falls back to ``np.lexsort`` on an exact key tie.

An L2 scan of enough rows keys only those that the cut of :func:`l2_slack`,
the package's one bound on a float32 L2 score, cannot exclude from the top k
(:func:`_l2_candidates`), with the ids and keys of keying every row. That
score against one point is formed in one place, :func:`l2_scores`, which the
IVFFlat build's seeding calls too. Inner-product and cosine keys come from a
GEMV whose last bit depends on the row's position in the call, so those
scans key every row.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from fanns.corpus import (
    Corpus,
    FilterMask,
    Metric,
    ordering_keys,
    require_finite,
    require_mask_for,
    row_blocks,
)
from fanns.telemetry import SearchResult, SearchTelemetry, rank_by_key_then_id

# unit roundoffs of float32 and float64, and the smallest normal float32
_U32, _U64, _TINY32 = 2.0**-24, 2.0**-53, 2.0**-126
# above this ‖x‖max + ‖q‖ a float32 product could overflow: l2_slack gives
# no bound
_REACH_LIMIT = 2.0**60
# An L2 scan of n rows is narrowed only when n >= 4k + _NARROW_MIN_ROWS: the
# narrowing pass and the rows it keeps cost about as much as keying 400 + 3k
# rows (k = 10 to 300, d = 32, gathered ids), so a smaller scan keys every row
_NARROW_MIN_ROWS = 512
# A scan that keyed at most max(2m, _RANK_ALL_ROWS) rows ranks them all at
# once; a larger one ranks only the rows that tie or beat the m-th key. One
# sort of 512 keys, or of up to about 2m keys for m >= 1000, costs less than
# the partition and gathers that pick those rows (timeit, one BLAS thread)
_RANK_ALL_ROWS = 512


def exact_scan(
    corpus: Corpus,
    query: np.ndarray,
    k: int,
    ids: Optional[np.ndarray] = None,
) -> SearchResult:
    """The (key, id)-ordered top k of the rows ``ids`` (every row when None).

    Rows are scored one ``row_blocks`` block at a time, sliced for a full scan
    and gathered by id with ``take`` otherwise, with keys bit-identical to one
    ``ordering_keys`` call over all of them. Under cosine each block's
    divisors are the block's ``Corpus.cosine_divisors``; a zero query, or any
    zero row in the corpus, raises ``ValueError``. Every row whose key ties
    the k-th key is ranked, by ``rank_by_key_then_id``, before the cut, so
    ties go to the smaller id whatever order ``ids`` is in: with m = min(k,
    rows), at most max(2m, 512) keyed rows are all ranked in one call, and
    more are first cut to those at or below the m-th key by
    ``np.argpartition``. Each is the faster on its side of that count, and
    both give the same ids and keys. A key that is NaN, or infinite at or
    before the m-th, raises ``ValueError`` on both: it comes only from a
    float64 product that overflows, from a finite query far larger than the
    rows, and orders nothing. An infinite key past the m-th is left out, as
    any key past it is.

    An L2 scan of at least 4k + 512 rows keys only the rows inside the
    :func:`l2_slack` cut with m = k (smaller scans cost less keyed whole), so
    its ids and keys equal those of keying every row. ``nodes_visited``
    counts the scanned rows, ``distance_evaluations`` the keys computed.
    """
    full = ids is None
    ids = None if full else np.asarray(ids, dtype=np.int64)
    n = corpus.n if full else len(ids)
    m = min(k, n)
    if m < 1:
        return SearchResult(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    query = np.asarray(query, dtype=np.float64)
    scored = n
    if corpus.metric is Metric.L2 and n >= 4 * m + _NARROW_MIN_ROWS:
        near = _l2_candidates(corpus, query, m, ids)
        if near is not None:
            ids, full, scored = (near if full else ids[near]), False, len(near)
    keys = np.empty(scored)
    for block in row_blocks(scored):
        block_ids = block if full else ids[block]
        rows = corpus.vectors[block] if full else corpus.vectors.take(block_ids, axis=0)
        divisors = corpus.cosine_divisors(query, block_ids)
        keys[block] = ordering_keys(query, rows, corpus.metric, divisors)
    if scored <= max(2 * m, _RANK_ALL_ROWS):
        if full:
            # ids gathered below, so that the result holds m ids, not a view
            # of all the rows' ranking
            ids, full = np.arange(scored), False
        ranked = rank_by_key_then_id(keys, ids)
    else:
        kth = keys[np.argpartition(keys, m - 1)[m - 1]]
        pick = np.flatnonzero(~(keys > kth))  # with every NaN key, to be refused below
        ranked = pick[rank_by_key_then_id(keys[pick], pick if full else ids[pick])]
    order = ranked[:m]
    top = keys[order]
    # both rankings put NaN last, so only the ends of the ranking and the
    # m-th key need reading
    if not (-math.inf < top[0] and top[-1] < math.inf) or math.isnan(keys[ranked[-1]]):
        raise ValueError("keys from this query are not finite: a product overflowed "
                         "float64, and NaN or infinite keys order nothing")
    telemetry = SearchTelemetry(distance_evaluations=scored, nodes_visited=n)
    return SearchResult(order if full else ids[order], top, telemetry)


def _gamma(count: int, unit: float) -> float:
    """Higham's γ_count = count·u / (1 − count·u), the relative error bound of
    ``count`` roundings of unit ``u``; infinite where count·u >= 1."""
    return count * unit / (1.0 - count * unit) if count * unit < 1.0 else math.inf


def l2_slack(dim: int, reach: float) -> Optional[float]:
    """Bound on how far a float32 L2 score strays from its float64 key.

    For a row x and a float64 point q of ``dim`` = d coordinates with
    ‖x‖ + ‖q‖ ≤ ``reach`` = R, let P be the float32 product
    fl32⟨x, fl32(−2q)⟩ (any summation order) and K² the squared L2 distance
    as the package computes it. Then a score formed in float64 from P, the
    cached ‖x‖² and a float64 ‖q‖² differs from K² by at most

        slack = (γ₃₂(d+2) + γ₆₄(4d+32))·R² + 8λ·(d + √d·R),

    with λ = 2⁻¹²⁶ and Higham's γ(n) = n·u/(1 − n·u) at u₃₂ = 2⁻²⁴ (γ₃₂) or
    u₆₄ = 2⁻⁵³ (γ₆₄), with room left for the additions that cut scores.

    The terms: γ₃₂(d+2)·R² bounds |P + 2⟨x, q⟩|, since rounding −2q costs
    2u₃₂‖x‖‖q‖, the product 2γ₃₂(d)‖x‖‖q‖(1+u₃₂) in any summation order
    (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1), and
    2‖x‖‖q‖ ≤ R²/2. γ₆₄(4d+32)·R² bounds the float64 roundings, each of a
    value at most about 2R²: K² (γ₆₄(d+4)·R² for the key ``ordering_keys``
    returns: a rounded difference and square per coordinate, the sum in any
    order, the square root and its square; γ₆₄(d+2)·R² without the root),
    the cached ‖x‖² (γ₆₄(d+1)·R²), ‖q‖² (γ₆₄(d)·R²), at most four additions
    that form and cut a score, and computing R and slack themselves: no
    caller needs more than 3d + 20 of the 4d + 32 roundings. 8λ·(d + √d·R)
    bounds underflow, gradual or flushed to zero, in fl32(−2q) and in the
    float32 product, and float64 underflow in K².

    None, for no bound, when R exceeds 2⁶⁰, so that no float32 product,
    partial sum or fl32(q) could overflow (R² ≤ 2¹²⁰ against a float32
    maximum near 2¹²⁸), or when R or slack is not finite.

    The cut, which every caller applies. Let each candidate i have a score
    s_i with |s_i + a − K_i²| ≤ slack, K_i its computed key and a a constant
    of the pass (‖q‖² for the rows of one query, ‖x‖² for the centroids of
    one row). Then K_i² ≥ s_i + a − slack, a lower bound on each key. The
    cut keeps the candidates with s_i ≤ s₍ₘ₎ + 2·slack, s₍ₘ₎ the m-th
    smallest score, and so keeps every candidate whose key ties or beats the
    m-th smallest key K*: at most m − 1 keys lie below K*, so one of the m
    candidates of smallest score, j, has K_j ≥ K*, and then
    s_i ≤ K_i² − a + slack ≤ K_j² − a + slack ≤ s_j + 2·slack
    ≤ s₍ₘ₎ + 2·slack. An L2 key depends on its pair of points alone, so
    keying the kept candidates only gives the same keys, top m and ties at
    the m-th key as keying them all.
    """
    slack = (_gamma(dim + 2, _U32) + _gamma(4 * dim + 32, _U64)) * reach * reach + 8.0 * _TINY32 * (
        dim + math.sqrt(dim) * reach
    )
    return slack if reach <= _REACH_LIMIT and math.isfinite(slack) else None


def l2_scores(
    corpus: Corpus, point: np.ndarray, ids: Optional[np.ndarray] = None
) -> Optional[tuple[np.ndarray, float]]:
    """The float32 L2 score against the float64 ``point`` of each row in
    ``ids`` (every row when None), and the :func:`l2_slack` that bounds it;
    None when there is no bound.

    The score is the cached ``Corpus.sq_row_norms`` plus the float32
    matrix-vector product fl32⟨x, fl32(−2p)⟩, over rows gathered one
    ``row_blocks`` block at a time for a subset, and R = ‖x‖max + ‖p‖ over
    those rows.
    """
    sq_norms = corpus.sq_row_norms if ids is None else corpus.sq_row_norms.take(ids)
    slack = l2_slack(corpus.dim, math.sqrt(sq_norms.max()) + math.sqrt(point.dot(point)))
    if slack is None:
        return None
    minus_twice = (-2.0 * point).astype(np.float32)
    if ids is None:
        dots = corpus.vectors.dot(minus_twice)
    else:
        dots = np.empty(len(ids), dtype=np.float32)
        for block in row_blocks(len(ids)):
            dots[block] = corpus.vectors.take(ids[block], axis=0).dot(minus_twice)
    return sq_norms + dots, slack


def _l2_candidates(
    corpus: Corpus, query: np.ndarray, m: int, ids: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """Positions among the scanned rows (row ids for a full scan) of every row
    whose :func:`l2_scores` score lies inside the :func:`l2_slack` cut with m
    and the constant ‖q‖², in ascending order; None when there is no bound or
    every row survives.
    """
    scored = l2_scores(corpus, query, ids)
    if scored is None:
        return None
    scores, slack = scored
    cut = np.partition(scores, m - 1)[m - 1] + 2.0 * slack
    near = np.flatnonzero(scores <= cut)
    return near if len(near) < len(scores) else None


def exact_knn(
    corpus: Corpus,
    query: np.ndarray,
    k: int,
    mask: Optional[FilterMask] = None,
) -> SearchResult:
    """Exhaustive top-k scan over the mask-valid rows.

    Returns fewer than k entries iff fewer than k rows pass the mask; an
    empty mask yields an empty result.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    require_mask_for(corpus, mask)
    require_finite(query)
    return exact_scan(corpus, query, k, None if mask is None else mask.valid_ids())
