"""Global-local selectivity correlation, plus a distance-based baseline.

For a query q and filter mask, the local selectivity sigma_l is the fraction
of q's (unfiltered) k-nearest neighborhood that passes the filter, and the
global selectivity sigma_g is the mask's valid fraction of the corpus. The
ratio r = sigma_l / sigma_g is mapped through the Moebius transform
rho = (r - 1) / (r + 1) into [-1, 1): rho > 0 means the filter enriches the
neighborhood, rho < 0 means it depletes it, rho = 0 is neutral. The bin is
"low" below rho = -0.3, "high" above +0.3 and "medium" between (inclusive).

A ``GlsEntry`` holds only what was measured, sigma_g and sigma_l; its ratio,
rho and bin are properties derived from them, so every entry (and every row
``write_gls_csv`` writes) agrees with the definition above.

``distance_correlation`` implements the older min-distance baseline: the
expected gap between the nearest valid row and the nearest row of an
equally-sized uniform random subset. Positive values mean valid rows sit
closer to the query than chance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from fanns import oracle
from fanns.corpus import (
    Corpus,
    FilterMask,
    ordering_keys,
    require_finite,
    require_mask_for,
    row_blocks,
)
from fanns.hnsw import HnswIndex, hnsw_search
from fanns.ivfflat import IvfIndex, ivf_search

DEFAULT_K_NEIGHBORHOOD = 2048

BIN_LOW_THRESHOLD = -0.3
BIN_HIGH_THRESHOLD = 0.3


@dataclass(frozen=True)
class GlsEntry:
    """What one GLS computation measured for a (query, filter) pair: the
    filter's global selectivity and its share of the query's neighborhood.
    The ratio, rho and bin follow from these two."""

    query_id: int
    sigma_g: float
    sigma_l: float

    @property
    def ratio(self) -> float:
        return self.sigma_l / self.sigma_g

    @property
    def rho(self) -> float:
        return gls_rho(self.ratio)

    @property
    def bin(self) -> str:
        """Where rho falls: "low", "medium" or "high"."""
        return _bin_for(self.rho)


def gls_rho(ratio: float) -> float:
    """Moebius map r -> (r-1)/(r+1), monotonic from [0, inf) onto [-1, 1)."""
    if ratio < 0:
        raise ValueError("selectivity ratio must be >= 0")
    return (ratio - 1.0) / (ratio + 1.0)


def gls_inverse(rho: float) -> float:
    """Inverse map rho -> (1+rho)/(1-rho) for rho in [-1, 1)."""
    if not -1.0 <= rho < 1.0:
        raise ValueError("rho must be in [-1, 1)")
    return (1.0 + rho) / (1.0 - rho)


def _bin_for(rho: float) -> str:
    if rho < BIN_LOW_THRESHOLD:
        return "low"
    if rho > BIN_HIGH_THRESHOLD:
        return "high"
    return "medium"


def _masked_share(mask: FilterMask, ids: np.ndarray) -> float:
    """The fraction of ``ids`` that pass ``mask``."""
    return float(np.count_nonzero(mask.bits[ids])) / len(ids)


def _check_neighborhood(corpus: Corpus, mask: FilterMask, k_neighborhood: int) -> None:
    """Raise ValueError unless ``mask`` is a non-empty mask over this corpus
    and ``k_neighborhood`` is below the corpus size."""
    require_mask_for(corpus, mask)
    if mask.is_empty:
        raise ValueError("mask must be non-empty")
    if not 1 <= k_neighborhood < corpus.n:
        raise ValueError(
            f"k_neighborhood must be in [1, {corpus.n}): a neighborhood of every "
            "row has sigma_l = sigma_g, so rho = 0 by construction"
        )


def gls_exact(
    corpus: Corpus,
    query: np.ndarray,
    mask: FilterMask,
    k_neighborhood: int = DEFAULT_K_NEIGHBORHOOD,
    query_id: int = 0,
) -> GlsEntry:
    """Exact per-query entry: the neighborhood comes from a brute-force scan.

    ``k_neighborhood`` must be below the corpus size (see ``gls_approx``).
    """
    _check_neighborhood(corpus, mask, k_neighborhood)
    neighborhood = oracle.exact_knn(corpus, query, k_neighborhood).ids
    return GlsEntry(query_id, mask.global_selectivity, _masked_share(mask, neighborhood))


def gls_approx(
    corpus: Corpus,
    index,
    query: np.ndarray,
    mask: FilterMask,
    k_neighborhood: int = DEFAULT_K_NEIGHBORHOOD,
    sample_size: int = 1000,
    seed: int = 0,
    query_id: int = 0,
) -> GlsEntry:
    """Cheap estimate: ANN neighborhood for sigma_l, uniform sample for sigma_g.

    The neighborhood is an HNSW beam of width ``k_neighborhood``, or an
    IVFFlat scan of every list. A beam at least ``hnsw.table_budget(n, d)``
    wide keys every row once, in the exact scan's blocks, and its walk reads
    the keys from that table (see :mod:`fanns.hnsw`), so the search computes
    n keys. A beam of at least n / 20 (``hnsw.ranks_pay``; the default 2,048
    is, for n up to 40,960) ranks that table once and walks layer 0 on the
    rows' places in it, with the neighborhood of the key-space walk, unless
    two keys tie.
    The sample is drawn without replacement, so sample_size = N recovers the
    exact global selectivity. A
    ``k_neighborhood`` of N or more raises ``ValueError``: the neighborhood
    would be the whole corpus and rho would read 0 whatever the filter.
    """
    _check_neighborhood(corpus, mask, k_neighborhood)
    if not 1 <= sample_size <= corpus.n:
        raise ValueError("sample_size must be in [1, N]")
    if isinstance(index, HnswIndex):
        result = hnsw_search(index, corpus, query, k_neighborhood, k_neighborhood)
    elif isinstance(index, IvfIndex):
        result = ivf_search(index, corpus, query, k_neighborhood, index.n_clusters)
    else:
        raise TypeError(f"unsupported index type {type(index).__name__}")
    rng = np.random.default_rng(seed)
    sample = rng.choice(corpus.n, size=sample_size, replace=False)
    sigma_g = _masked_share(mask, sample)
    if sigma_g == 0.0:
        # degenerate sample; fall back to the known mask selectivity
        sigma_g = mask.global_selectivity
    return GlsEntry(query_id, sigma_g, _masked_share(mask, result.ids))


def gls_mean(entries: Sequence[GlsEntry]) -> float:
    if len(entries) == 0:
        raise ValueError("need at least one entry")
    return float(np.mean([e.rho for e in entries]))


def distance_correlation(
    corpus: Corpus,
    queries_with_masks: Sequence[tuple[np.ndarray, FilterMask]],
    trials: int = 10,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Min-distance baseline correlation: C and the per-query values.

    For each (query, mask): C_q = E[g(q, R)] - g(q, valid set), where R is a
    uniform random subset of the corpus with |R| = |valid set| and g is the
    minimum ordering key over the subset. The expectation is a Monte Carlo
    mean over `trials` draws without replacement, so a full mask gives
    C_q = 0 exactly.

    Each subset is keyed one ``row_blocks`` block at a time, as the exact
    scan keys it, so a subset of any size costs a few megabytes of
    temporaries: a block's rows are gathered with ``take``, under cosine with
    the block's ``Corpus.cosine_divisors`` (−|q|·|r|, so each key is one GEMV
    and one divide), and g is the least of the blocks' minima. A zero query
    or a zero row anywhere in the corpus raises ``ValueError``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    per_query = np.empty(len(queries_with_masks))
    for i, (query, mask) in enumerate(queries_with_masks):
        require_mask_for(corpus, mask)
        if mask.is_empty:
            raise ValueError("mask must be non-empty")
        require_finite(query)
        query = np.asarray(query, dtype=np.float64)

        def min_key(ids: np.ndarray) -> float:
            return min(
                float(np.min(ordering_keys(
                    query, corpus.vectors.take(ids[block], axis=0), corpus.metric,
                    corpus.cosine_divisors(query, ids[block]),
                )))
                for block in row_blocks(len(ids))
            )

        g_filtered = min_key(mask.valid_ids())
        g_random = 0.0
        for _ in range(trials):
            g_random += min_key(rng.choice(corpus.n, size=mask.valid_count, replace=False))
        per_query[i] = g_random / trials - g_filtered
    return float(per_query.mean()), per_query


def write_gls_csv(entries: Sequence[GlsEntry], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "sigma_g", "sigma_l", "ratio", "rho", "bin"])
        for e in entries:
            writer.writerow(
                [e.query_id, f"{e.sigma_g:.10g}", f"{e.sigma_l:.10g}",
                 f"{e.ratio:.10g}", f"{e.rho:.10g}", e.bin]
            )
