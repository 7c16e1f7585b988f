"""Workload generation and the QPS-recall measurement harness.

Protocol: sample the query set from corpus rows, realize each selectivity
target as an attribute threshold, and execute every (query, filter, k,
index config, search param, strategy) cell single-threaded, one query at a
time, each timed individually with a monotonic clock. A row's throughput is
1 / latency; ``summarize`` reports both the mean of those and queries over
summed latency. The runner searches the indexes it is given, one at a time,
across the whole grid; rows are labelled from the searched index itself
(``IndexConfig.of``).
"""

from __future__ import annotations

import csv
import itertools
import logging
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from fanns import oracle, strategy
from fanns.corpus import Corpus, FilterMask, build_mask, threshold_for_selectivity
from fanns.hnsw import HnswIndex, hnsw_build
from fanns.ivfflat import ivf_build
from fanns.strategy import PlanKind, SearchParams, StrategyPlan
from fanns.telemetry import SearchResult

logger = logging.getLogger(__name__)

DEFAULT_TARGETS = (0.01, 0.03, 0.05, 0.1, 0.2, 0.5)
DEFAULT_KS = (1, 10, 40, 100)

RESULTS_HEADER = (
    "dataset,index,M,ef_construction,n_clusters,strategy,search_param,k,"
    "target_sigma,realized_sigma,query_id,recall,recall_eq1,latency_s,qps,"
    "dist_evals,fallback_used,build_time_s"
)


@dataclass(frozen=True)
class FilterSpec:
    """One realized filter condition; target None means unfiltered."""

    target_sigma: Optional[float]
    realized_sigma: float
    mask: Optional[FilterMask]

    @property
    def label(self) -> str:
        return "" if self.target_sigma is None else f"{self.target_sigma:g}"


@dataclass(frozen=True)
class Workload:
    query_ids: np.ndarray
    queries: np.ndarray
    filters: tuple[FilterSpec, ...]
    ks: tuple[int, ...]


@dataclass(frozen=True)
class IndexConfig:
    """One index build: kind 'hnsw' (m, ef_construction) or 'ivfflat' (n_clusters),
    refusing the other kind's fields."""

    kind: str
    m: Optional[int] = None
    ef_construction: Optional[int] = None
    n_clusters: Optional[int] = None
    seed: int = 0
    search_params: tuple[int, ...] = ()  # ef_search values or n_probe values

    def __post_init__(self):
        if self.kind not in ("hnsw", "ivfflat"):
            raise ValueError(f"unknown index kind {self.kind!r}")
        if self.kind == "hnsw" and (self.m is None or self.ef_construction is None):
            raise ValueError("hnsw config requires m and ef_construction")
        foreign = ("n_clusters",) if self.kind == "hnsw" else ("m", "ef_construction")
        given = [name for name in foreign if getattr(self, name) is not None]
        if given:
            raise ValueError(f"{self.kind} config takes no {' or '.join(given)}")

    @classmethod
    def of(cls, index, search_params: Sequence[int] = ()) -> "IndexConfig":
        """The config that builds ``index``, its IVFFlat n_probes cut to the list count."""
        if isinstance(index, HnswIndex):
            return cls("hnsw", m=index.m, ef_construction=index.ef_construction,
                       seed=index.seed, search_params=tuple(search_params))
        return cls("ivfflat", n_clusters=index.n_clusters, seed=index.seed,
                   search_params=tuple(min(p, index.n_clusters) for p in search_params))


def make_workload(
    corpus: Corpus,
    n_queries: int,
    targets: Sequence[float] = DEFAULT_TARGETS,
    ks: Sequence[int] = DEFAULT_KS,
    seed: int = 0,
    include_unfiltered: bool = True,
) -> Workload:
    """Sample queries without replacement and realize each selectivity target;
    a repeated target or k counts once.

    If the attribute granularity cannot hit a target (relative error > 10%),
    the nearest attainable threshold is used and a warning is emitted.
    """
    if not 1 <= n_queries <= corpus.n:
        raise ValueError("n_queries must be in [1, N]")
    rng = np.random.default_rng(seed)
    query_ids = np.sort(rng.choice(corpus.n, size=n_queries, replace=False))
    filters: list[FilterSpec] = []
    for target in dict.fromkeys(targets):
        threshold = threshold_for_selectivity(corpus, target)
        mask = build_mask(corpus, threshold)
        realized = mask.global_selectivity
        if target > 0 and abs(realized - target) / target > 0.10:
            warnings.warn(
                f"selectivity target {target:g} unattainable; nearest is {realized:g}",
                stacklevel=2,
            )
        filters.append(FilterSpec(target, realized, mask))
    if include_unfiltered:
        filters.append(FilterSpec(None, 1.0, None))
    return Workload(
        query_ids=query_ids,
        queries=corpus.vectors[query_ids].copy(),
        filters=tuple(filters),
        ks=tuple(dict.fromkeys(ks)),
    )


def recall_at_k(
    ids: np.ndarray,
    distances: np.ndarray,
    ground_truth: SearchResult,
    k: int,
) -> tuple[float, float]:
    """(recall, raw-fixed-denominator recall) of one result against exact GT.

    The first value divides by min(k, |GT|) and accepts distance ties: a
    returned id not in the GT top-k still counts if its distance does not
    exceed the GT k-th distance by more than 1e-12 of that distance's
    magnitude, so the rule reads the same at any scale of the corpus. The
    second divides the plain id intersection by k.
    """
    gt = ground_truth.top(k)
    if len(gt) == 0:
        return (1.0 if len(ids) == 0 else 0.0), 0.0
    gt_ids = set(int(i) for i in gt.ids)
    kth = float(gt.distances[-1])
    hits = 0
    plain = 0
    for rid, dist in zip(ids[:k], distances[:k]):
        if int(rid) in gt_ids:
            hits += 1
            plain += 1
        elif dist <= kth + 1e-12 * abs(kth):
            hits += 1
    return hits / min(k, len(gt)), plain / k


def _plan_for(name: str) -> StrategyPlan:
    try:
        return StrategyPlan(PlanKind(name))
    except ValueError:
        raise ValueError(f"unknown strategy {name!r}") from None


def build_index(corpus: Corpus, config: IndexConfig):
    """Build the index ``config`` names, by default round(sqrt(N)) IVFFlat
    lists; returns ``(index, config.search_params, build seconds)``, an item of
    ``run_experiment``'s ``indexes``."""
    start = time.perf_counter()
    if config.kind == "hnsw":
        index = hnsw_build(corpus, config.m, config.ef_construction, config.seed)
    else:
        n_clusters = config.n_clusters
        if n_clusters is None:
            n_clusters = max(1, int(round(np.sqrt(corpus.n))))
        index = ivf_build(corpus, n_clusters, config.seed)
    return index, config.search_params, time.perf_counter() - start


def run_experiment(
    corpus: Corpus,
    workload: Workload,
    indexes: Iterable[tuple[object, Sequence[int], float]],
    strategy_list: Sequence[str],
    dataset_name: str = "synthetic",
) -> list[dict]:
    """Search each built ``(index, search_params, build_time_s)`` over the full
    grid and return one row dict per cell.

    Ground truth is computed once per (filter, query) at max(ks) and sliced.
    Incompatible cells (Runtime strategy without a filter) are skipped with a
    logged warning, which Python prints to stderr even where no logging is
    set up, so they are never silently dropped; a grid with no cell, k or
    search param is refused before any index is taken from ``indexes``. Rows are labelled
    from the searched index; an IVFFlat n_probe above its list count searches
    every list and is recorded as that count. Each distinct searched value
    runs once.
    """
    plans = {name: _plan_for(name) for name in strategy_list}
    cells = [(fi, spec, name) for fi, spec in enumerate(workload.filters) for name in plans
             if name != "Runtime" or spec.mask is not None]
    for setting, values in (("strategies", plans), ("ks", workload.ks)):
        if not values:
            raise ValueError(f"{setting} is empty")
    if not cells:
        raise ValueError("no (filter, strategy) cell: Runtime runs on filtered targets only")
    if len(cells) < len(workload.filters) * len(plans):
        logger.warning("skipping Runtime strategy on unfiltered queries")
    k_max = max(workload.ks)
    gt = [[oracle.exact_knn(corpus, q, k_max, spec.mask) for q in workload.queries]
          for spec in workload.filters]

    rows: list[dict] = []
    for index, search_params, build_time in indexes:
        built = IndexConfig.of(index, search_params)
        if not built.search_params:
            raise ValueError("search_params is empty")
        labels = {col: "" if value is None else value for col, value in zip(
            _CONFIG_COLS, (built.kind, built.m, built.ef_construction, built.n_clusters))}
        for param in dict.fromkeys(built.search_params):
            # each family reads its own budget and ignores the other
            params = SearchParams(ef_search=param, n_probe=param)
            # warm-up pass: the cells of the first filter, untimed
            for fi, spec, name in cells:
                if fi == 0:
                    strategy.execute(index, corpus, workload.queries[0], workload.ks[0],
                                     spec.mask, plans[name], params)
            for (fi, spec, name), k, (qi, query) in itertools.product(
                    cells, workload.ks, enumerate(workload.queries)):
                record = strategy.execute(index, corpus, query, k, spec.mask, plans[name], params)
                rec, rec_eq1 = recall_at_k(record.results.ids, record.results.distances,
                                           gt[fi][qi], k)
                rows.append(
                    {
                        "dataset": dataset_name,
                        **labels,
                        "strategy": name,
                        "search_param": param,
                        "k": k,
                        "target_sigma": spec.label,
                        "realized_sigma": spec.realized_sigma,
                        "query_id": int(workload.query_ids[qi]),
                        "recall": rec,
                        "recall_eq1": rec_eq1,
                        "latency_s": record.latency,
                        "qps": record.qps,
                        "dist_evals": record.telemetry.distance_evaluations
                        + record.telemetry.centroid_evaluations,
                        "fallback_used": int(record.telemetry.fallback_used),
                        "build_time_s": build_time,
                    }
                )
    if not rows:
        raise ValueError("no indexes given")
    return rows


def write_results_csv(rows: Sequence[dict], path: str | Path) -> None:
    _write_rows(rows, RESULTS_HEADER.split(","), path)


def write_summary_csv(agg: Sequence[dict], path: str | Path) -> None:
    """Write ``summarize``'s rows, one per configuration and (k, filter)."""
    _write_rows(agg, [*_CONFIG_COLS, "k", "target_sigma", "mean_recall", "mean_qps", "qps",
                      "n_queries", "on_frontier"], path)


def _write_rows(rows: Sequence[dict], header: list[str], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


_NUMERIC_COLS = {
    **dict.fromkeys(("recall", "recall_eq1", "latency_s", "qps", "realized_sigma",
                     "build_time_s"), float),
    **dict.fromkeys(("search_param", "k", "query_id", "dist_evals", "fallback_used"), int),
}


def load_results_csv(path: str | Path) -> list[dict]:
    """The rows of a results CSV, numeric columns converted; a file that is
    not one raises ``ValueError`` naming the file (and the line and column
    of a value that is not a number of its column's type)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        raw = [(reader.line_num, row) for row in reader]
    if reader.fieldnames != RESULTS_HEADER.split(",") or any(
            None in r or None in r.values() for _, r in raw):
        raise ValueError(f"{path} is not a results CSV: its header must be {RESULTS_HEADER} "
                         "and each row must hold exactly those fields")
    for line, row in raw:
        for col, kind in _NUMERIC_COLS.items():
            try:
                row[col] = kind(row[col])
            except ValueError:
                raise ValueError(f"{path} line {line}: {col} {row[col]!r} is not "
                                 f"{'an integer' if kind is int else 'a number'}") from None
    return [row for _, row in raw]


def pareto_frontier(points: Sequence[tuple[float, float]]) -> list[int]:
    """Indices of (recall, qps) points not dominated by any other point.

    A point dominates another when it is >= in both coordinates and > in at
    least one.
    """
    keep = []
    for i, (r_i, q_i) in enumerate(points):
        dominated = any(
            (r_j >= r_i and q_j >= q_i) and (r_j > r_i or q_j > q_i)
            for j, (r_j, q_j) in enumerate(points)
            if j != i
        )
        if not dominated:
            keep.append(i)
    return keep


_CONFIG_COLS = (
    "index", "M", "ef_construction", "n_clusters", "strategy", "search_param",
)


def summarize(rows: Sequence[dict]) -> list[dict]:
    """Per-config mean recall and throughput, with a frontier flag per (k, filter).

    ``mean_qps`` is the mean of the per-query ``1 / latency``, which the
    fastest queries dominate; ``qps`` is queries over their summed latency,
    the ANN-Benchmarks convention. The frontier is computed on
    (``mean_recall``, ``mean_qps``) within each (k, target_sigma) group over
    the config aggregates.
    """
    if not rows:
        raise ValueError("no result rows")
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row[c] for c in _CONFIG_COLS) + (row["k"], row["target_sigma"])
        groups.setdefault(key, []).append(row)
    agg = []
    for key, members in sorted(groups.items(), key=lambda kv: tuple(map(str, kv[0]))):
        entry = dict(zip(_CONFIG_COLS, key[:-2]))
        entry["k"] = key[-2]
        entry["target_sigma"] = key[-1]
        entry["mean_recall"] = float(np.mean([m["recall"] for m in members]))
        entry["mean_qps"] = float(np.mean([m["qps"] for m in members]))
        entry["qps"] = len(members) / sum(m["latency_s"] for m in members)
        entry["n_queries"] = len(members)
        agg.append(entry)
    by_slice: dict[tuple, list[int]] = {}
    for i, entry in enumerate(agg):
        by_slice.setdefault((entry["k"], entry["target_sigma"]), []).append(i)
    for indices in by_slice.values():
        points = [(agg[i]["mean_recall"], agg[i]["mean_qps"]) for i in indices]
        frontier = set(pareto_frontier(points))
        for pos, i in enumerate(indices):
            agg[i]["on_frontier"] = int(pos in frontier)
    return agg
