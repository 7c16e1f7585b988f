"""Uniform filtered-query executor over either index type.

Implements the strategy taxonomy: pre-filter + approximate search,
pre-filter + exact scan, post-filter over a raw candidate pool, runtime
(lazy predicate) filtering, plus an adaptive policy that falls back to the
exact scan when the filtered-out ratio exceeds ``FALLBACK_RATIO_THRESHOLD``
and reruns exactly whenever the approximate pass comes back short (safety
net). Exact answers are the oracle's ``exact_knn`` results, returned as is.

Post's raw pool holds min(n, k * ceil(1 / sigma_g)) rows under a mask of
global selectivity sigma_g, and min(n, k) rows unfiltered.

Runtime is the single-queue prefilter with its predicate tested lazily: the
traversal never reads the bitset, only the rows the executor must classify
are tested, and their count is the index's ``predicate_invocations``. Post
masks its raw pool with ``SearchResult.masked``, the HNSW prefilter's
post-filter step, so on either family it counts a read for every pool row.
Every plan reaches an index through ``_search``, the one place that tells
HNSW from IVFFlat.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from fanns import oracle
from fanns.corpus import Corpus, FilterMask, require_mask_for
from fanns.hnsw import HnswIndex, hnsw_search
from fanns.ivfflat import IvfIndex, ivf_search
from fanns.telemetry import SearchResult, SearchTelemetry

FALLBACK_RATIO_THRESHOLD = 0.93


class ConfigurationError(ValueError):
    """Unsupported (plan, index) combination or missing parameters."""


class PlanKind(Enum):
    PRE_ANNS = "PreAnns"
    PRE_EXACT = "PreExact"
    POST = "Post"
    RUNTIME = "Runtime"
    ADAPTIVE_AUTO = "AdaptiveAuto"


@dataclass(frozen=True)
class StrategyPlan:
    kind: PlanKind


@dataclass(frozen=True)
class SearchParams:
    ef_search: Optional[int] = None
    n_probe: Optional[int] = None


@dataclass
class ExecutionRecord:
    plan_chosen: PlanKind
    results: SearchResult
    telemetry: SearchTelemetry
    latency: float  # seconds, wall clock, single query

    @property
    def qps(self) -> float:
        return 1.0 / self.latency


def _search(index, corpus, query, k, params, mode, mask=None) -> SearchResult:
    """One index search in an ``hnsw_search`` mode, under the family's budget.

    A raw pool is k wide on either family; IVFFlat needs no mode, because its
    mask (or none) says everything the mode does.
    """
    if isinstance(index, HnswIndex):
        if params.ef_search is None:
            raise ConfigurationError("HNSW execution requires ef_search")
        return hnsw_search(
            index, corpus, query, k, params.ef_search, mode=mode, mask=mask, pool_size=k
        )
    if isinstance(index, IvfIndex):
        if params.n_probe is None:
            raise ConfigurationError("IVFFlat execution requires n_probe")
        return ivf_search(index, corpus, query, k, params.n_probe, mask=mask)
    raise ConfigurationError(f"unsupported index type {type(index).__name__}")


def execute(
    index,
    corpus: Corpus,
    query: np.ndarray,
    k: int,
    mask: Optional[FilterMask],
    plan: StrategyPlan,
    params: SearchParams,
) -> ExecutionRecord:
    """Run one filtered query under the given plan, timing the whole call."""
    if k < 1:
        raise ValueError("k must be >= 1")
    require_mask_for(corpus, mask)
    if mask is not None and mask.is_empty and plan.kind is not PlanKind.PRE_ANNS:
        raise ValueError("mask must be non-empty for filtered plans")
    start = time.perf_counter_ns()
    plan_chosen, result = _dispatch(index, corpus, query, k, mask, plan, params)
    latency = max(time.perf_counter_ns() - start, 1) / 1e9
    return ExecutionRecord(
        plan_chosen=plan_chosen, results=result, telemetry=result.telemetry, latency=latency
    )


def _dispatch(index, corpus, query, k, mask, plan, params) -> tuple[PlanKind, SearchResult]:
    kind = plan.kind
    if kind is PlanKind.PRE_EXACT:
        return kind, oracle.exact_knn(corpus, query, k, mask)

    if kind in (PlanKind.PRE_ANNS, PlanKind.RUNTIME):
        if mask is None and kind is PlanKind.RUNTIME:
            raise ConfigurationError("Runtime plan requires a mask")
        mode = "unfiltered" if mask is None else "prefilter"
        return kind, _search(index, corpus, query, k, params, mode, mask)

    if kind is PlanKind.POST:
        pool = min(corpus.n, k if mask is None else k * math.ceil(1.0 / mask.global_selectivity))
        result = _search(index, corpus, query, pool, params, "raw")
        return kind, result.top(k) if mask is None else result.masked(mask.bits, k)

    if kind is PlanKind.ADAPTIVE_AUTO:
        if mask is None:
            return PlanKind.PRE_ANNS, _search(index, corpus, query, k, params, "unfiltered")
        if 1.0 - mask.global_selectivity <= FALLBACK_RATIO_THRESHOLD:
            result = _search(index, corpus, query, k, params, "dualpool", mask)
            if len(result) >= min(k, mask.valid_count):
                return PlanKind.PRE_ANNS, result
        result = oracle.exact_knn(corpus, query, k, mask)
        result.telemetry.fallback_used = True
        return PlanKind.PRE_EXACT, result

    raise ConfigurationError(f"unknown plan kind {plan.kind!r}")

