"""The benchmark's contract with the library.

``perfbench/`` drives the public API and wraps functions at their import
sites; these tests import its workload and tracing modules unedited and run
each workload at seed 0 far enough to catch a broken call shape, a changed
ground truth (the inputs are pinned in ``perfbench/pins.json``) or a wrapped
name that no longer exists.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fanns import corpus as corpus_mod
from fanns import gls, hnsw, ivfflat, oracle
from fanns.corpus import Corpus, Metric, build_mask

from conftest import l2_pairs_keyed, rescored_rows

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 0
CHECKED_OPS = 8


@pytest.fixture(scope="module")
def built():
    """Indexes by (build function, corpus digest): two workloads share one."""
    return {}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_at_seed_zero(tmp_path, built, name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(SEED)
    ground_truth = wl.ground_truth(inputs)
    pins = json.loads((PERFBENCH / "pins.json").read_text())
    assert workloads.input_digests(inputs, ground_truth) == pins[name][str(SEED)]

    key = (type(wl).build, workloads.sha256(inputs.corpus.vectors))
    if key not in built:
        built[key] = wl.build(inputs.corpus, SEED)
    path = tmp_path / "index.bin"
    wl.save(built[key], path)
    state = workloads.State(
        inputs, wl.load(path), built[key], ground_truth, workloads.sha256(path.read_bytes())
    )

    originals = [getattr(module, attr) for module, attr, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in inputs.ops[:CHECKED_OPS]:
            problems, _ = wl.check(state, op, wl.run_op(state, op))
            assert problems == [], op
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _, _ in spans.TARGETS] == originals
    assert tracer.spans and all(end >= start for _, start, end, _, _ in tracer.spans)


def _rows_by_module(monkeypatch) -> dict[str, int]:
    """Wrap every module's own ``ordering_keys`` name, as ``--trace 1`` does,
    and count the rows scored through each; rows are read from the second
    positional argument, where perfbench's span reads them."""
    traced = {module for module, attr, _, _ in spans.TARGETS if attr == "ordering_keys"}
    rows: dict[str, int] = {}
    for module in (corpus_mod, hnsw, ivfflat, oracle, gls):
        assert module in traced
        original = module.ordering_keys

        def counting(*args, _original=original, _name=module.__name__, **kwargs):
            assert len(args) >= 2 and "rows" not in kwargs
            rows[_name] = rows.get(_name, 0) + (1 if np.ndim(args[1]) == 1 else len(args[1]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "ordering_keys", counting)
    return rows


@pytest.mark.parametrize("metric", list(Metric))
def test_every_key_is_scored_through_its_module_name(monkeypatch, metric):
    # A key scored through another module's name, or through corpus's own,
    # would leave that module's trace site blind to it.
    rng = np.random.default_rng(40 + metric.value)
    n, d, n_lists, trials = 600, 8, 5, 3
    vectors = rng.standard_normal((n, d)) * rng.uniform(0.5, 2, size=(n, 1))
    corpus = Corpus(vectors.astype(np.float32), rng.uniform(size=n), metric)
    query, mask = rng.standard_normal(d), build_mask(corpus, 0.5)
    rows = _rows_by_module(monkeypatch)

    result = oracle.exact_knn(corpus, query, 10, mask)
    assert rows == {"fanns.oracle": result.telemetry.distance_evaluations}
    rows.clear()
    pairs, assign_rows = [], ivfflat._assign_rows

    def recording(built_from, centroids, scratch, assigned_under, bounds):
        # every Lloyd pass keys under L2 with the cut, over the rows its
        # bounds leave unsettled, and so does an L2 corpus's final
        # assignment; any other metric keys every pair
        if assigned_under is Metric.L2:
            pairs.append(l2_pairs_keyed(built_from, centroids, rescored_rows(built_from, bounds)))
        else:
            pairs.append(n * n_lists)
        return assign_rows(built_from, centroids, scratch, assigned_under, bounds)

    monkeypatch.setattr(ivfflat, "_assign_rows", recording)
    index = ivfflat.ivf_build(corpus, n_lists, seed=1)
    assert len(pairs) == ivfflat._MAX_ITERS + 1
    # an L2 build whose cuts keep one centroid per row keys nothing
    assert rows == ({"fanns.ivfflat": sum(pairs)} if sum(pairs) else {})
    rows.clear()
    result = ivfflat.ivf_search(index, corpus, query, 10, 2, mask)
    assert rows == {"fanns.ivfflat": n_lists, "fanns.oracle": result.telemetry.distance_evaluations}
    rows.clear()
    gls.distance_correlation(corpus, [(query, mask)], trials=trials)
    assert rows == {"fanns.gls": mask.valid_count * (1 + trials)}
    rows.clear()
    graph = hnsw.hnsw_build(corpus, 6, 24, seed=1)
    assert set(rows) == {"fanns.hnsw"}
    rows.clear()
    result = hnsw.hnsw_search(graph, corpus, query, 10, 40, mode="dualpool", mask=mask)
    assert rows == {"fanns.hnsw": result.telemetry.distance_evaluations}
