"""Per-call execution counters and the (key, id) ranking shared by the
index search paths."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class SearchTelemetry:
    """Counters of one search call.

    ``distance_evaluations`` counts the exact ordering keys computed, one per
    row passed through ``ordering_keys``; ``nodes_visited`` counts the rows
    the search reached: every row an exact scan bounded (an L2 scan keys only
    the rows its float32 bound keeps, so it can count fewer evaluations than
    visits), every node an HNSW search read a key for. A lazily keyed HNSW
    search counts each visited node once in both; one that has keyed
    ``hnsw.table_budget(n, d)`` rows lazily, or whose layer-0 width is at
    least that budget, keys every row once and counts its lazy rows plus n
    evaluations, more than its visits. Centroid keys are counted apart, in
    ``centroid_evaluations``.
    """

    distance_evaluations: int = 0
    nodes_visited: int = 0
    centroid_evaluations: int = 0
    predicate_invocations: int = 0  # rows whose filter bit was read
    fallback_used: bool = False


def argsort_distinct(keys: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``np.argsort(keys)`` and the keys in that order, when the sorted keys
    are strictly increasing; None on a tie: two keys equal by ``==`` (so
    -0.0 ties 0.0), or a NaN among them. Without a tie the ascending order
    is unique, so it is the same whatever sort numpy uses."""
    order = np.argsort(keys)
    ranked = keys[order]
    return (order, ranked) if np.all(ranked[1:] > ranked[:-1]) else None


def rank_by_key_then_id(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The positions of ``keys`` in ascending (key, id) order, for distinct
    ``ids``: the package's one ranking, equal to ``np.lexsort((ids, keys))``
    bit for bit.

    One ``np.argsort`` of the keys ranks them (:func:`argsort_distinct`).
    Distinct ids matter only where two keys tie, so on a tie the ranking
    falls back to ``np.lexsort``.
    """
    distinct = argsort_distinct(keys)
    if distinct is not None:
        return distinct[0]
    return np.lexsort((ids, keys))


@dataclass(frozen=True)
class SearchResult:
    """Ranked ids with their smaller-is-closer ordering keys.

    Every search path and the exact oracle return one.
    """

    ids: np.ndarray
    distances: np.ndarray
    telemetry: SearchTelemetry = field(default_factory=SearchTelemetry)

    def __len__(self) -> int:
        return len(self.ids)

    def top(self, k: int) -> "SearchResult":
        return SearchResult(self.ids[:k], self.distances[:k], self.telemetry)

    def masked(self, bits: np.ndarray, k: int) -> "SearchResult":
        """The first k entries whose filter bit is set: the post-filter step.

        Every entry's bit is read and counted in ``predicate_invocations``.
        """
        self.telemetry.predicate_invocations += len(self.ids)
        keep = bits[self.ids]
        return SearchResult(self.ids[keep][:k], self.distances[keep][:k], self.telemetry)
