"""Per-call execution counters shared by the index search paths."""

from __future__ import annotations

from dataclasses import dataclass, field

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
