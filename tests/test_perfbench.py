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

import pytest

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
