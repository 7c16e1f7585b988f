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
"meta": {"git_commit": null, "src_lines": 2515}}}
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


def test_edits_under_src_or_perfbench_mark_the_checkout_dirty(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                        *args], cwd=tmp_path, check=True, capture_output=True)

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
