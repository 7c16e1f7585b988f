"""Record perfbench results, and compare a commit with the checkout in pairs.

Two commands, each driving ``perfbench/run.py`` as any user would, through
its stdout:

* ``record`` runs each workload once (seed 1, ``--seconds 10``, ``--trace
  0`` by default) and writes ``BENCH_<workload>.json`` at the root of the
  checkout: the run's result line, its info line, the commit, whether
  ``src/`` or ``perfbench/`` differed from that commit (``dirty``), and the
  package's code-line count from ``tools/src_lines.py`` (the info line's
  ``src_lines`` counts every line).
* ``pairs`` extracts another commit with ``git archive`` into a temporary
  directory and runs it and the checkout on the same seed, one pair per
  seed, the other commit first in odd pairs. Its header names the
  checkout's HEAD commit and says whether ``src/`` or ``perfbench/`` holds
  uncommitted edits. For each end-to-end metric of ``BENCHMARK.json`` it
  prints both sides' medians and quartiles, the pairs the checkout won, and
  the verdict of the gain rule: at least nine wins in ten pairs (ties count
  for neither side) and medians further apart than the other commit's
  interquartile range. Each pair's line also shows the timed ops each run
  completed and its uncalibrated ``qps`` (the info line's ``raw.qps``), and
  each side's summary the ops its runs completed in total. It also names
  each metric whose median is worse than the other commit's by more than
  the benchmark's bound, and each seed whose output digests or prefix
  counters differ.

* ``cells`` extracts another commit the same way and times one workload's
  seeded op stream, op by op, in a fresh subprocess of each tree per round
  (``cell-times``), the other commit first in odd rounds. Each subprocess
  imports its own tree's ``src/`` and ``perfbench/workloads.py``, writing
  no bytecode there, builds the index, saves and loads it as perfbench
  does, and runs every op of the stream once. ``cells`` prints each
  (plan, sigma) cell's median latency on both sides, over every round, and
  for each round whether the two trees' digests matched: one SHA-256 over
  every op's answer and, for strategy ops, its keys, plan and counters.

    python tools/bench.py record [--workload W ...] [--seed 1] [--seconds 10]
    python tools/bench.py pairs --against <commit> --workload W --seeds 21-30
    python tools/bench.py cells --against <commit> --workload W --seed 1 --rounds 5

Exits 1 if a run fails its own checks (``record`` still records every
workload first), prints output that cannot be parsed, or, for ``cells``,
gives a round whose digests differ; 0 otherwise, so ``record`` can gate a
build.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hnsw-filtered", "ivf-l2", "gls-rho")


class RunError(RuntimeError):
    """A perfbench run that exited non-zero or printed no result line."""


def parse_output(stdout: str) -> tuple[dict, dict]:
    """The result and the info object of one perfbench run's stdout.

    The info line is the one JSON object with an ``info`` key; the result is
    the last line, a JSON object with ``metrics``. A line that starts with
    ``{`` but is no JSON raises ``RunError``.
    """
    info = result = None
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise RunError(f"perfbench printed a line that is no JSON: {line[:80]!r}") from err
        if "info" in obj:
            info = obj["info"]
        elif "metrics" in obj:
            result = obj
    if info is None or result is None:
        raise RunError("perfbench printed no info line or no result line")
    return result, info


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Run the perfbench of the checkout at ``root`` once, on its own ``src/``.

    A run whose checks failed (exit 1) still returns its result, marked not
    correct; a run that could not start raises ``RunError``.
    """
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        raise RunError(f"{root} {workload} seed {seed} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-500:]}")
    return parse_output(proc.stdout)


def code_lines(root: Path) -> int:
    """Code lines of the ``src/`` under ``root``, by this checkout's ``tools/src_lines.py``."""
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    return sum(src_lines.count_lines(path.read_text(encoding="utf-8"))["code"]
               for path in sorted((root / "src").rglob("*.py")))


def head_commit(root: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_dirty(root: Path) -> bool:
    """Whether ``src/`` or ``perfbench/`` under the git checkout ``root`` holds
    edits or files that its HEAD commit does not: a run there measured code
    no commit names."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"], cwd=root,
                          capture_output=True, text=True, check=True)
    return bool(proc.stdout.strip())


def checkout_label(root: Path) -> str:
    """How ``pairs`` names the git checkout ``root``: its HEAD commit, and
    whether ``src/`` or ``perfbench/`` holds edits that commit does not."""
    edits = " with uncommitted edits under src/ or perfbench/" if source_dirty(root) else ""
    return f"the working tree at HEAD {head_commit(root)}{edits}"


def end_to_end_metrics() -> dict[str, dict]:
    """``BENCHMARK.json``'s end-to-end metrics by name: unit, better, bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The gain rule and the regression bound over paired runs of one metric.

    ``parent[i]`` and ``change[i]`` are one pair. The change wins a pair when
    its value is better in the direction ``better`` ("higher" or "lower");
    ties count for neither. The gain holds when it wins at least 9/10 of the
    pairs and its median is better than the parent's by more than the
    parent's interquartile range. It is worse beyond the bound when its
    median is worse than the parent's by more than ``bound`` times the
    parent's median.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    p, c = np.asarray(parent, float), np.asarray(change, float)
    wins = int(np.count_nonzero(sign * (c - p) > 0))
    p25, p50, p75 = np.percentile(p, [25, 50, 75])
    c25, c50, c75 = np.percentile(c, [25, 50, 75])
    gain = sign * (c50 - p50)
    return {
        "pairs": len(p), "wins": wins,
        "parent": (float(p25), float(p50), float(p75)),
        "change": (float(c25), float(c50), float(c75)),
        "parent_iqr": float(p75 - p25),
        "gain_holds": wins >= 0.9 * len(p) and gain > p75 - p25,
        "worse_beyond_bound": -gain > bound * abs(p50),
    }


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _extract(commit: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=zip", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as files:
        files.extractall(into)


def record(args) -> int:
    commit, dirty, lines = head_commit(ROOT), source_dirty(ROOT), code_lines(ROOT)
    incorrect = []
    for workload in args.workload or WORKLOADS:
        result, info = run_perfbench(ROOT, workload, args.seed, args.seconds)
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps({
            "workload": workload, "commit": commit, "dirty": dirty, "src_code_lines": lines,
            "result": result, "info": info,
        }, indent=1) + "\n")
        metrics = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"{path.name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {metrics}")
        if not result["correct"]:
            incorrect.append(workload)
    if incorrect:
        print(f"bench: incorrect runs: {', '.join(incorrect)}", file=sys.stderr)
    return 1 if incorrect else 0


def _differences(parent_info: dict, change_info: dict) -> list[str]:
    """The output digests and prefix counters that differ between two runs."""
    differ = [name for name in ("index_sha256", "prefix_answers_sha256")
              if parent_info["outputs"][name] != change_info["outputs"][name]]
    differ += [f"{name} {parent_info['counters'][name]} -> {change_info['counters'][name]}"
               for name in sorted(parent_info["counters"])
               if parent_info["counters"][name] != change_info["counters"][name]]
    return differ


def pair_line(number: int, seed: int, parent: tuple[dict, dict], change: tuple[dict, dict],
              metrics: dict) -> str:
    """One pair's line: each end-to-end metric, parent->change, then the timed
    ops each run completed and its uncalibrated qps, which ``qps`` corrects
    by the calibrations around each op."""
    (p_result, p_info), (c_result, c_info) = parent, change
    values = " ".join(
        f"{name} {p_result['metrics'][name]['value']:.4g}->"
        f"{c_result['metrics'][name]['value']:.4g}" for name in metrics)
    return (f"pair {number} seed {seed}: {values} ops {p_info['ops']}->{c_info['ops']} "
            f"raw_qps {p_info['raw']['qps']:.4g}->{c_info['raw']['qps']:.4g}")


def pairs(args) -> int:
    metrics = end_to_end_metrics()
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="fanns-bench-") as tmp:
        parent_root = Path(tmp)
        _extract(args.against, parent_root)
        print(f"{args.workload}: {args.against} ({code_lines(parent_root)} code lines) against "
              f"{checkout_label(ROOT)} ({code_lines(ROOT)} code lines), "
              f"--seconds {args.seconds}")
        for i, seed in enumerate(args.seeds):
            order = (("parent", parent_root), ("change", ROOT))
            for side, root in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run_perfbench(root, args.workload, seed, args.seconds))
            parent, change = runs["parent"][-1], runs["change"][-1]
            print(pair_line(i + 1, seed, parent, change, metrics))
            for problem in _differences(parent[1], change[1]):
                print(f"  differs: {problem}")
    failed = False
    for side, results in runs.items():
        bad = sum(not result["correct"] for result, _ in results)
        failed_ops = sum(result["failed"] for result, _ in results)
        attempted = sum(result["attempted"] for result, _ in results)
        completed = sum(info["ops"] for _, info in results)
        print(f"{side}: {bad} incorrect runs, {failed_ops} of {attempted} ops failed, "
              f"{completed} timed ops completed")
        failed |= bad > 0
    print(f"{'metric':<16}{'parent q1/median/q3':>28}{'change q1/median/q3':>28}"
          f"{'wins':>8}  verdict")
    for name, spec in metrics.items():
        v = verdict([r["metrics"][name]["value"] for r, _ in runs["parent"]],
                    [r["metrics"][name]["value"] for r, _ in runs["change"]],
                    spec["better"], spec["bound"])
        p, c = ("/".join(f"{x:.4g}" for x in v[side]) for side in ("parent", "change"))
        words = ["gain holds" if v["gain_holds"] else "no gain claimed"]
        if v["worse_beyond_bound"]:
            words.append(f"WORSE than the {spec['bound']:.0%} bound")
        print(f"{name:<16}{p:>28}{c:>28}{v['wins']:>5}/{v['pairs']:<2}  "
              f"{', '.join(words)} (parent IQR {v['parent_iqr']:.4g})")
    return 1 if failed else 0


def cell_times(root: Path, workload: str, seed: int) -> dict:
    """Set up ``workload`` at ``seed`` from the tree at ``root`` and run its op
    stream once: each cell's latencies in ns, by label (the op's plan and
    filter, or its filter alone), and the stream's digest (see ``cells``).

    Imports ``fanns`` from ``root/src`` and ``root/perfbench/workloads.py``
    without writing bytecode, so call it in a fresh interpreter, with BLAS
    on one thread, as ``cell-times`` does."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    import fanns

    if not Path(fanns.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RunError(f"imported fanns from {fanns.__file__}, not from {root / 'src'}")
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS[workload]
    inputs = wl.make_inputs(seed)
    with tempfile.TemporaryDirectory(prefix="fanns-cells-") as tmp:
        wl.save(wl.build(inputs.corpus, seed), Path(tmp) / "index")
        index = wl.load(Path(tmp) / "index")
    state = workloads.State(inputs, index, None, {}, "")
    cells: dict[str, list[int]] = {}
    digest = hashlib.sha256()
    for op in inputs.ops:
        start = time.perf_counter_ns()
        out = wl.run_op(state, op)
        cells.setdefault(" ".join(map(str, op[1:])), []).append(time.perf_counter_ns() - start)
        digest.update(np.ascontiguousarray(wl.answer(out)).tobytes())
        if hasattr(out, "telemetry"):
            digest.update(out.results.distances.tobytes())
            digest.update(repr((out.plan_chosen.value,
                                dataclasses.astuple(out.telemetry))).encode())
    return {"cells": cells, "digest": digest.hexdigest()}


def print_cell_times(args) -> int:
    print(json.dumps(cell_times(args.tree, args.workload, args.seed)))
    return 0


def run_cells(root: Path, workload: str, seed: int) -> dict:
    """``cell_times`` for the tree at ``root``, in a subprocess of this script."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "cell-times", "--tree", str(root),
         "--workload", workload, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RunError(f"{root} {workload} seed {seed} cell-times exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def _median_us(runs: list[dict], cell: str) -> float | None:
    """The median of a cell's latencies over ``runs``, in us; None if no run has the cell."""
    times = [t for run in runs for t in run["cells"].get(cell, [])]
    return float(np.median(times)) / 1e3 if times else None


def _text(us: float | None) -> str:
    return "—" if us is None else f"{us:.1f}"


def cells_table(parent: list[dict], change: list[dict]) -> list[str]:
    """The lines ``cells`` prints for paired runs of ``cell_times``: each
    cell's median latency on both sides over every round, "—" on a side
    whose op stream has no such cell, and each round's digest verdict."""
    lines = [f"{'cell':<20}{'parent median us':>18}{'change median us':>18}{'change/parent':>15}"]
    for cell in sorted({cell for run in parent + change for cell in run["cells"]}):
        p, c = (_median_us(runs, cell) for runs in (parent, change))
        ratio = "—" if p is None or c is None else f"{c / p:.3f}"
        lines.append(f"{cell:<20}{_text(p):>18}{_text(c):>18}{ratio:>15}")
    for i, (p, c) in enumerate(zip(parent, change)):
        verdict = "equal" if p["digest"] == c["digest"] else "DIFFER"
        lines.append(f"round {i + 1}: answers and counters {verdict}")
    return lines


def cells(args) -> int:
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="fanns-bench-") as tmp:
        parent_root = Path(tmp)
        _extract(args.against, parent_root)
        print(f"{args.workload} seed {args.seed}, {args.rounds} rounds: {args.against} against "
              f"{checkout_label(ROOT)}")
        for i in range(args.rounds):
            order = (("parent", parent_root), ("change", ROOT))
            for side, root in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run_cells(root, args.workload, args.seed))
    for line in cells_table(runs["parent"], runs["change"]):
        print(line)
    return 0 if all(p["digest"] == c["digest"] for p, c in zip(*runs.values())) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="write BENCH_<workload>.json")
    rec.add_argument("--workload", action="append", choices=WORKLOADS)
    rec.add_argument("--seed", type=int, default=1)
    rec.add_argument("--seconds", type=float, default=10.0)
    rec.set_defaults(run=record)
    par = commands.add_parser("pairs", help="alternate runs of a commit and the checkout")
    par.add_argument("--against", required=True)
    par.add_argument("--workload", required=True, choices=WORKLOADS)
    par.add_argument("--seeds", type=_seed_range, required=True)
    par.add_argument("--seconds", type=float, default=10.0)
    par.set_defaults(run=pairs)
    cel = commands.add_parser("cells", help="per-cell latencies of a commit and the checkout")
    cel.add_argument("--against", required=True)
    cel.add_argument("--workload", required=True, choices=WORKLOADS)
    cel.add_argument("--seed", type=int, default=1)
    cel.add_argument("--rounds", type=int, default=5)
    cel.set_defaults(run=cells)
    one = commands.add_parser("cell-times", help="one tree's cell latencies and digest, as JSON")
    one.add_argument("--tree", type=Path, required=True)
    one.add_argument("--workload", required=True, choices=WORKLOADS)
    one.add_argument("--seed", type=int, required=True)
    one.set_defaults(run=print_cell_times)
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except RunError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
