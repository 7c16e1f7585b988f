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
  seed, the other commit first in odd pairs. For each end-to-end metric of
  ``BENCHMARK.json`` it prints both sides' medians and quartiles, the pairs
  the checkout won, and the verdict of the gain rule: at least nine wins in
  ten pairs (ties count for neither side) and medians further apart than the
  other commit's interquartile range. It also names each metric whose
  median is worse than the other commit's by more than the benchmark's
  bound, and each seed whose output digests or prefix counters differ.

    python tools/bench.py record [--workload W ...] [--seed 1] [--seconds 10]
    python tools/bench.py pairs --against <commit> --workload W --seeds 21-30

Exits 1 if a run fails its own checks, 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
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
    the last line, a JSON object with ``metrics``.
    """
    info = result = None
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
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


def head_commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_dirty(root: Path) -> bool:
    """Whether ``src/`` or ``perfbench/`` under the git checkout ``root`` holds
    edits or files that its HEAD commit does not: a run there measured code
    no commit names."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"], cwd=root,
                          capture_output=True, text=True, check=True)
    return bool(proc.stdout.strip())


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
    commit, dirty, lines = head_commit(), source_dirty(ROOT), code_lines(ROOT)
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
            return 1
    return 0


def _differences(parent_info: dict, change_info: dict) -> list[str]:
    """The output digests and prefix counters that differ between two runs."""
    differ = [name for name in ("index_sha256", "prefix_answers_sha256")
              if parent_info["outputs"][name] != change_info["outputs"][name]]
    differ += [f"{name} {parent_info['counters'][name]} -> {change_info['counters'][name]}"
               for name in sorted(parent_info["counters"])
               if parent_info["counters"][name] != change_info["counters"][name]]
    return differ


def pairs(args) -> int:
    metrics = end_to_end_metrics()
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="fanns-bench-") as tmp:
        parent_root = Path(tmp)
        _extract(args.against, parent_root)
        print(f"{args.workload}: {args.against} ({code_lines(parent_root)} code lines) against "
              f"the working tree at HEAD {head_commit()} ({code_lines(ROOT)} code lines), "
              f"--seconds {args.seconds}")
        for i, seed in enumerate(args.seeds):
            order = (("parent", parent_root), ("change", ROOT))
            for side, root in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run_perfbench(root, args.workload, seed, args.seconds))
            (p_result, p_info), (c_result, c_info) = runs["parent"][-1], runs["change"][-1]
            values = " ".join(
                f"{name} {p_result['metrics'][name]['value']:.4g}->"
                f"{c_result['metrics'][name]['value']:.4g}" for name in metrics)
            print(f"pair {i + 1} seed {seed}: {values}")
            for problem in _differences(p_info, c_info):
                print(f"  differs: {problem}")
    failed = False
    for side, results in runs.items():
        bad = sum(not result["correct"] for result, _ in results)
        failed_ops = sum(result["failed"] for result, _ in results)
        attempted = sum(result["attempted"] for result, _ in results)
        print(f"{side}: {bad} incorrect runs, {failed_ops} of {attempted} ops failed")
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
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except RunError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
