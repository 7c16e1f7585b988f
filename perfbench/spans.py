"""In-memory span tracer installed from the benchmark's side of the API.

Wrappers replace the library's public functions at each import site (the
module attribute the caller actually looks up), so ``src/`` is never edited.
A span is ``[name, start_ns, end_ns, parent, attrs]``; spans live in one list
and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from fanns import corpus as corpus_mod
from fanns import gls, hnsw, ivfflat, oracle, strategy


def _rows(args, kwargs, out):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"rows": 1 if np.ndim(rows) == 1 else len(rows)}


def _search(args, kwargs, out):
    t = out.telemetry
    return {
        "dist": t.distance_evaluations,
        "nodes": t.nodes_visited,
        "centroids": t.centroid_evaluations,
        "returned": len(out.ids),
    }


def _execute(args, kwargs, out):
    plan = args[5] if len(args) > 5 else kwargs["plan"]
    t = out.telemetry
    return {
        "plan": plan.kind.value,
        "chosen": out.plan_chosen.value,
        "fallback": bool(t.fallback_used),
        "predicates": t.predicate_invocations,
        "returned": len(out.results.ids),
    }


# (module, attribute, span name, attrs extractor). One row per import site.
TARGETS = (
    (strategy, "execute", "strategy.execute", _execute),
    (strategy, "hnsw_search", "hnsw.search", _search),
    (strategy, "ivf_search", "ivfflat.search", _search),
    (gls, "hnsw_search", "hnsw.search", _search),
    (gls, "ivf_search", "ivfflat.search", _search),
    (oracle, "exact_knn", "oracle.exact_knn", None),
    (corpus_mod, "ordering_keys", "corpus.ordering_keys", _rows),
    (hnsw, "ordering_keys", "corpus.ordering_keys", _rows),
    (ivfflat, "ordering_keys", "corpus.ordering_keys", _rows),
    (oracle, "ordering_keys", "corpus.ordering_keys", _rows),
    (gls, "ordering_keys", "corpus.ordering_keys", _rows),
    (corpus_mod, "generate_synthetic", "corpus.generate_synthetic", None),
    (hnsw, "hnsw_build", "hnsw.build", None),
    (hnsw, "save_hnsw", "hnsw.save", None),
    (hnsw, "load_hnsw", "hnsw.load", None),
    (ivfflat, "ivf_build", "ivfflat.build", None),
    (ivfflat, "save_ivf", "ivfflat.save", None),
    (ivfflat, "load_ivf", "ivfflat.load", None),
    (gls, "gls_exact", "gls.exact", None),
    (gls, "gls_approx", "gls.approx", None),
    (gls, "distance_correlation", "gls.distance_correlation", None),
)


class Tracer:
    """Collects spans while installed; a no-op context otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def _wrap(self, name, fn, attrs_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs_fn is not None:
                rec[4] = attrs_fn(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        if self.installed:
            return
        for module, attr, name, attrs_fn in TARGETS:
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, attrs_fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def begin(self, name: str, attrs=None) -> int:
        """Open a span from the benchmark's own code (setup phases, ops)."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, attrs])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def write(self, path) -> None:
        """Save the spans as columns (.npz); attrs as JSON keyed by span index."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        attrs = {i: s[4] for i, s in enumerate(self.spans) if s[4] and s[0] != "corpus.ordering_keys"}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([code[s[0]] for s in self.spans], dtype=np.int16),
            start_ns=np.array([s[1] for s in self.spans], dtype=np.int64),
            end_ns=np.array([s[2] for s in self.spans], dtype=np.int64),
            parent=np.array([s[3] for s in self.spans], dtype=np.int32),
            rows=np.array([s[4]["rows"] if s[0] == "corpus.ordering_keys" else -1 for s in self.spans], dtype=np.int32),
            attrs_json=np.frombuffer(json.dumps(attrs).encode(), dtype=np.uint8),
        )


class SpanIndex:
    """Derived views over a span list: children, self time, root ancestry."""

    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)

    def dur(self, i: int) -> int:
        s = self.spans[i]
        return s[2] - s[1]

    def self_ns(self, i: int) -> int:
        return self.dur(i) - sum(self.dur(c) for c in self.children.get(i, ()))

    def descendants(self, i: int):
        todo = list(self.children.get(i, ()))
        while todo:
            j = todo.pop()
            yield j
            todo.extend(self.children.get(j, ()))

    def under(self, root_name: str) -> tuple[list[int], list[int]]:
        """(roots named root_name, every span below those roots)."""
        roots = [i for i, s in enumerate(self.spans) if s[0] == root_name]
        below = [j for r in roots for j in self.descendants(r)]
        return roots, below


def op_counters(spans, op_span: int, index: SpanIndex) -> tuple:
    """Hardware-neutral counters of one op, summed over its spans."""
    dist = nodes = centroids = predicates = exact = 0
    plans = []
    for j in index.descendants(op_span):
        name, attrs = spans[j][0], spans[j][4]
        if name in ("hnsw.search", "ivfflat.search"):
            dist += attrs["dist"]
            nodes += attrs["nodes"]
            centroids += attrs["centroids"]
        elif name == "strategy.execute":
            predicates += attrs["predicates"]
            plans.append((attrs["chosen"], attrs["fallback"]))
        elif name == "oracle.exact_knn":
            exact += 1
    return dist, nodes, centroids, predicates, exact, tuple(plans)
