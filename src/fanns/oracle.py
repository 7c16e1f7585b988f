"""Exact (brute-force) k-NN over optionally masked rows.

This is the ground truth, computed in memory and never stored, and the
correctness reference for every approximate search path; :func:`exact_scan`
is the package's only exact top-k kernel: the PreExact plan and each IVFFlat
probe run it too. Distances reported here are the smaller-is-closer ordering
keys of :mod:`fanns.corpus`, so approximate results can be compared
value-for-value. Ties are broken by ascending row id everywhere.

The scan makes one ``ordering_keys`` call per block of ``row_blocks``,
straight from the float32 vectors (gathered by ``take``, faster than fancy
indexing; a full scan slices them and uses row positions as ids): no float64
copy of the corpus is made. Cosine scans take their divisors −|q|·|r| from
``Corpus.cosine_divisors``, which reads the corpus's cached row norms, so each
cosine key is one GEMV and one divide, and a cosine corpus with any zero row
fails every exact scan, masked or not.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from fanns.corpus import (
    Corpus,
    FilterMask,
    ordering_keys,
    require_finite,
    require_mask_for,
    row_blocks,
)
from fanns.telemetry import SearchResult, SearchTelemetry


def exact_scan(
    corpus: Corpus,
    query: np.ndarray,
    k: int,
    ids: Optional[np.ndarray] = None,
) -> SearchResult:
    """The (key, id)-ordered top k of the rows ``ids`` (every row when None).

    Rows are scored one ``row_blocks`` block at a time, sliced for a full scan
    and gathered by id with ``take`` otherwise, with keys bit-identical to one
    ``ordering_keys`` call over all of them; every row counts as a distance
    evaluation. Under cosine each block's divisors are the block's
    ``Corpus.cosine_divisors``; a zero query, or any zero row in the corpus,
    raises ``ValueError``. Every row whose key ties the k-th key is ranked
    before the cut, so ties go to the smaller id whatever order ``ids`` is in.
    """
    full = ids is None
    ids = None if full else np.asarray(ids, dtype=np.int64)
    n = corpus.n if full else len(ids)
    m = min(k, n)
    if m < 1:
        return SearchResult(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    query = np.asarray(query, dtype=np.float64)
    keys = np.empty(n)
    for block in row_blocks(n):
        block_ids = block if full else ids[block]
        rows = corpus.vectors[block] if full else corpus.vectors.take(block_ids, axis=0)
        divisors = corpus.cosine_divisors(query, block_ids)
        keys[block] = ordering_keys(query, rows, corpus.metric, divisors)
    kth = keys[np.argpartition(keys, m - 1)[m - 1]]
    pick = np.flatnonzero(keys <= kth)
    order = pick[np.lexsort((pick if full else ids[pick], keys[pick]))][:m]
    telemetry = SearchTelemetry(distance_evaluations=n, nodes_visited=n)
    return SearchResult(order if full else ids[order], keys[order], telemetry)


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
