"""The perf harness in tools/ reads perfbench's stdout and judges paired runs."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench_tool", _PATH)
bench_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_tool)

# the stdout of one perfbench run (gls-rho, seed 1, --seconds 1), digests cut
STDOUT = """\
{"info": {"workload": "gls-rho", "seed": 1, "seconds": 1.0, "trace": 0, "ops": 100, \
"outputs": {"index_sha256": "6d7b", "prefix_answers_sha256": "a76d"}, \
"counters": {"ops": 6, "dist_evals": 18000, "nodes_visited": 17829, "centroid_evals": 0, \
"predicate_invocations": 0, "exact_knn_calls": 6, "plans": {}}, \
"meta": {"git_commit": null, "src_lines": 2515}, "latency_samples": 100, \
"latency_tail_percentile": 99, "raw": {"setup_s": 2.2, "qps": 98.5, "latency_p50_ms": 9.1, \
"latency_tail_ms": 10.2, "calibration_median_ns": 430000.0, "calibrations": 12}}}
metric setup_s = 2.149362919156124 s
metric qps = 104.79579848793658 1/s
metric recall_mean = 0.999267578125 ratio
{"correct": true, "attempted": 115, "failed": 0, "metrics": {\
"setup_s": {"value": 2.149362919156124, "unit": "s"}, \
"qps": {"value": 104.79579848793658, "unit": "1/s"}, \
"recall_mean": {"value": 0.999267578125, "unit": "ratio"}}}
"""


def test_the_result_and_info_lines_are_parsed():
    result, info = bench_tool.parse_output(STDOUT)
    assert result["correct"] and result["attempted"] == 115 and result["failed"] == 0
    assert result["metrics"]["qps"]["value"] == pytest.approx(104.79579848793658)
    assert info["counters"]["dist_evals"] == 18000
    assert info["outputs"]["index_sha256"] == "6d7b"


def test_a_pair_line_shows_each_sides_ops_and_uncalibrated_qps():
    parent = bench_tool.parse_output(STDOUT)
    change = bench_tool.parse_output(STDOUT.replace('"ops": 100', '"ops": 90')
                                     .replace('"qps": 98.5', '"qps": 120.25'))
    metrics = {"qps": {}, "recall_mean": {}}
    assert bench_tool.pair_line(3, 23, parent, change, metrics) == (
        "pair 3 seed 23: qps 104.8->104.8 recall_mean 0.9993->0.9993 "
        "ops 100->90 raw_qps 98.5->120.2")


def test_pairs_sums_each_sides_completed_ops(monkeypatch, capsys):
    runs = {"parent": bench_tool.parse_output(STDOUT),
            "change": bench_tool.parse_output(STDOUT.replace('"ops": 100', '"ops": 90'))}
    monkeypatch.setattr(bench_tool, "_extract", lambda commit, into: None)
    monkeypatch.setattr(bench_tool, "code_lines", lambda root: 0)
    monkeypatch.setattr(bench_tool, "checkout_label", lambda root: "the checkout")
    monkeypatch.setattr(bench_tool, "end_to_end_metrics", lambda: {
        "qps": {"better": "higher", "bound": 0.25}})
    monkeypatch.setattr(bench_tool, "run_perfbench", lambda root, workload, seed, seconds:
                        runs["change" if root == bench_tool.ROOT else "parent"])
    assert bench_tool.main(["pairs", "--against", "HEAD", "--workload", "gls-rho",
                            "--seeds", "1-3", "--seconds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "pair 2 seed 2: qps 104.8->104.8 ops 100->90 raw_qps 98.5->98.5" in out
    assert "parent: 0 incorrect runs, 0 of 345 ops failed, 300 timed ops completed" in out
    assert "change: 0 incorrect runs, 0 of 345 ops failed, 270 timed ops completed" in out


def test_a_run_without_a_result_line_is_an_error():
    with pytest.raises(bench_tool.RunError):
        bench_tool.parse_output(STDOUT.rsplit("\n", 2)[0])


def test_differing_outputs_and_counters_are_named():
    _, parent = bench_tool.parse_output(STDOUT)
    change = json.loads(json.dumps(parent))
    assert bench_tool._differences(parent, change) == []
    change["counters"]["dist_evals"] = 52644
    change["outputs"]["prefix_answers_sha256"] = "ffff"
    assert bench_tool._differences(parent, change) == [
        "prefix_answers_sha256", "dist_evals 18000 -> 52644"]


PARENT = [100, 102, 98, 101, 99, 103, 97, 100, 104, 96]


def test_nine_wins_and_a_gap_past_the_iqr_is_a_gain():
    change = [110, 112, 108, 111, 109, 113, 107, 110, 114, 95]  # loses the last pair
    v = bench_tool.verdict(PARENT, change, "higher", 0.25)
    assert (v["wins"], v["pairs"]) == (9, 10)
    assert v["parent"] == (98.25, 100.0, 101.75) and v["parent_iqr"] == 3.5
    assert v["change"][1] == 110.0
    assert v["gain_holds"] and not v["worse_beyond_bound"]


def test_eight_wins_is_no_gain():
    change = [110, 112, 108, 111, 109, 113, 107, 110, 90, 95]
    assert not bench_tool.verdict(PARENT, change, "higher", 0.25)["gain_holds"]


def test_ten_wins_inside_the_iqr_is_no_gain():
    change = [x + 1 for x in PARENT]  # a 1-unit gap, the parent's IQR is 3.5
    v = bench_tool.verdict(PARENT, change, "higher", 0.25)
    assert v["wins"] == 10 and not v["gain_holds"]


def test_lower_is_better_and_ties_count_for_neither_side():
    change = [x - 10 for x in PARENT[:8]] + PARENT[8:]
    v = bench_tool.verdict(PARENT, change, "lower", 0.25)
    assert v["wins"] == 8 and not v["gain_holds"]


def test_a_median_past_the_bound_is_worse():
    v = bench_tool.verdict(PARENT, [x * 1.3 for x in PARENT], "lower", 0.25)
    assert v["worse_beyond_bound"] and v["wins"] == 0
    v = bench_tool.verdict(PARENT, [x * 1.2 for x in PARENT], "lower", 0.25)
    assert not v["worse_beyond_bound"]


def test_seed_ranges():
    assert bench_tool._seed_range("21-30") == list(range(21, 31))
    assert bench_tool._seed_range("5") == [5]
    with pytest.raises(argparse.ArgumentTypeError):
        bench_tool._seed_range("9-3")


def test_the_benchmark_declares_each_metric_judged():
    metrics = bench_tool.end_to_end_metrics()
    assert metrics["qps"]["better"] == "higher" and metrics["qps"]["bound"] == 0.25
    assert metrics["latency_p50_ms"]["better"] == "lower"


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                           *args], cwd=repo, check=True, capture_output=True, text=True)


def test_edits_under_src_or_perfbench_mark_the_checkout_dirty(tmp_path):
    def git(*args):
        _git(tmp_path, *args)

    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "lib.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("readme\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    assert not bench_tool.source_dirty(tmp_path)
    (tmp_path / "README.md").write_text("edited\n")
    (tmp_path / "BENCH_gls-rho.json").write_text("{}\n")
    assert not bench_tool.source_dirty(tmp_path)
    (tmp_path / "src" / "lib.py").write_text("x = 2\n")
    assert bench_tool.source_dirty(tmp_path)
    git("commit", "-q", "-am", "edit")
    assert not bench_tool.source_dirty(tmp_path)
    (tmp_path / "perfbench" / "run.py").write_text("\n")
    assert bench_tool.source_dirty(tmp_path)


def test_the_pairs_header_says_when_the_checkout_holds_uncommitted_edits(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "lib.py").write_text("x = 1\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    commit = _git(tmp_path, "rev-parse", "HEAD").stdout.strip()
    assert bench_tool.checkout_label(tmp_path) == f"the working tree at HEAD {commit}"
    (tmp_path / "src" / "lib.py").write_text("x = 2\n")
    assert bench_tool.checkout_label(tmp_path) == (
        f"the working tree at HEAD {commit} with uncommitted edits under src/ or perfbench/")


def test_a_line_that_is_no_json_is_an_error():
    with pytest.raises(bench_tool.RunError, match="no JSON"):
        bench_tool.parse_output(STDOUT.replace('{"correct": true', '{"correct": tru'))


@pytest.fixture
def record_into(tmp_path, monkeypatch):
    """``record`` pointed at an empty git checkout under ``tmp_path``, its
    perfbench runs replaced by ``STDOUT`` passed through ``edit(workload)``."""
    (tmp_path / "src").mkdir()
    _git(tmp_path, "init", "-q")
    monkeypatch.setattr(bench_tool, "ROOT", tmp_path)
    monkeypatch.setattr(bench_tool, "code_lines", lambda root: 0)

    def record(edit):
        monkeypatch.setattr(bench_tool, "run_perfbench", lambda root, workload, seed, seconds:
                            bench_tool.parse_output(edit(workload)))
        return bench_tool.main(["record", "--seconds", "1"])

    return record


def test_record_writes_every_workload_and_exits_0_when_all_are_correct(tmp_path, record_into):
    assert record_into(lambda workload: STDOUT) == 0
    assert sorted(p.name for p in tmp_path.glob("BENCH_*.json")) == [
        f"BENCH_{w}.json" for w in sorted(bench_tool.WORKLOADS)]


def test_record_exits_1_on_an_incorrect_run_after_recording_the_rest(tmp_path, record_into):
    def edit(workload):
        return STDOUT.replace("true", "false") if workload == "ivf-l2" else STDOUT

    assert record_into(edit) == 1
    assert len(list(tmp_path.glob("BENCH_*.json"))) == len(bench_tool.WORKLOADS)


def test_record_exits_1_on_an_unparseable_run(record_into):
    assert record_into(lambda workload: STDOUT.rsplit("\n", 2)[0]) == 1
    assert record_into(lambda workload: STDOUT.replace("true", "tru")) == 1


def _cell_run(scale, digest="d1"):
    return {"cells": {"Post 0.01": [1000 * scale, 3000 * scale, 2000 * scale],
                      "PreAnns all": [500 * scale]}, "digest": digest}


def test_cells_alternates_the_trees_and_prints_each_cells_medians(monkeypatch, capsys):
    calls = []

    def fake_run(root, workload, seed):
        side = "change" if root == bench_tool.ROOT else "parent"
        calls.append(side)
        assert (workload, seed) == ("hnsw-filtered", 3)
        return _cell_run(1 if side == "parent" else 0.5)

    monkeypatch.setattr(bench_tool, "_extract", lambda commit, into: None)
    monkeypatch.setattr(bench_tool, "checkout_label", lambda root: "the checkout")
    monkeypatch.setattr(bench_tool, "run_cells", fake_run)
    assert bench_tool.main(["cells", "--against", "HEAD", "--workload", "hnsw-filtered",
                            "--seed", "3", "--rounds", "3"]) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "hnsw-filtered seed 3, 3 rounds: HEAD against the checkout"
    assert out[2].split() == ["Post", "0.01", "2.0", "1.0", "0.500"]
    assert out[3].split() == ["PreAnns", "all", "0.5", "0.2", "0.500"]
    assert out[4:] == [f"round {i}: answers and counters equal" for i in (1, 2, 3)]


def test_cells_names_each_round_whose_digests_differ():
    lines = bench_tool.cells_table([_cell_run(1), _cell_run(1)],
                                   [_cell_run(1), _cell_run(1, digest="d2")])
    assert lines[-2:] == ["round 1: answers and counters equal",
                          "round 2: answers and counters DIFFER"]


def test_cells_marks_a_cell_missing_on_one_side():
    # each side runs its own op stream, so a benchmark change can add or drop cells
    parent = {"cells": {"Post 0.1": [2000], "PreAnns 0.1": [4000]}, "digest": "d1"}
    change = {"cells": {"Post 0.1": [1000], "Runtime 0.1": [3000]}, "digest": "d2"}
    lines = bench_tool.cells_table([parent], [change])
    assert [line.split() for line in lines[1:4]] == [
        ["Post", "0.1", "2.0", "1.0", "0.500"],
        ["PreAnns", "0.1", "4.0", "—", "—"],
        ["Runtime", "0.1", "—", "3.0", "—"],
    ]
    assert lines[4:] == ["round 1: answers and counters DIFFER"]


def test_cell_times_runs_a_trees_stream_without_writing_to_it(tmp_path):
    # the checkout's own tree, in a subprocess, as cells runs each side
    before = sorted(p.name for p in (bench_tool.ROOT / "perfbench").iterdir())
    run = bench_tool.run_cells(bench_tool.ROOT, "ivf-l2", 1)
    assert sorted(p.name for p in (bench_tool.ROOT / "perfbench").iterdir()) == before
    assert len(run["cells"]) == 19 and len(run["digest"]) == 64
    assert sum(map(len, run["cells"].values())) == 1900
    assert run == {**bench_tool.run_cells(bench_tool.ROOT, "ivf-l2", 1), "cells": run["cells"]}
