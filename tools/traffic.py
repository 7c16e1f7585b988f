"""List the statements of ``src/`` that the benchmark's traffic never runs.

Traces every line the package executes, from its first import, while it
serves two kinds of traffic:

* each perfbench workload (``perfbench/workloads.py``, imported as is) at
  seed 1: its set-up (inputs, build, save, load, ground truth), the first
  ``OPS`` (300) ops of its stream, each answer's check, and its quality pass;
* the README's CLI recipe on a 1,500 x 8 corpus: ``gen``, both ``build``
  commands, ``run`` over the built files and over
  ``configs/desk_scale.json``, ``summarize``, and ``gls`` with the exact
  estimator and the approximate one over each index.

It then prints, module by module, every statement of which no line ran,
skipping ``raise`` statements: the error checks that good traffic never
trips. A statement listed here is either guarded input checking, a fallback
that no workload needs, or code that no caller reaches.

    python tools/traffic.py

Exits 1 if a workload check or a CLI command fails, 0 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OPS = 300  # per workload


def unreached(source: str, ran: set[int]) -> list[int]:
    """First lines of the statements of ``source`` of which no line is in
    ``ran``, in source order, skipping ``raise`` statements and bare
    constants such as docstrings, which run no code.

    A simple statement ran if any of its lines did. A compound statement
    ran if a line of its header did (from its first decorator to the line
    before its first inner statement) or any inner statement did: a
    ``try:`` or ``while True:`` header may report no line of its own.
    """
    missed: list[int] = []

    def visit(body: list[ast.stmt]) -> bool:
        any_ran = False
        for node in body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            inner = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
            inner += [handler.body for handler in getattr(node, "handlers", [])]
            inner = [stmts for stmts in inner if stmts]
            end = min(s[0].lineno for s in inner) - 1 if inner else node.end_lineno
            node_ran = any(line in ran for line in range(start, max(start, end) + 1))
            for stmts in inner:
                node_ran = visit(stmts) or node_ran
            if not node_ran and not isinstance(node, ast.Raise):
                missed.append(start)
            any_ran = any_ran or node_ran
        return any_ran

    visit(ast.parse(source).body)
    return sorted(missed)


def _tracer(lines: dict[str, set[int]]):
    """A ``sys.settrace`` function that adds each line run in a file of
    ``lines`` to that file's set, and traces no other file."""

    def call(frame, event, arg):
        ran = lines.get(frame.f_code.co_filename)
        if ran is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return line

        return line

    return call


def _workloads(work: Path) -> int:
    """Run each workload's set-up, ops, checks and quality; count failed checks."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, State

    failed = 0
    for wl in WORKLOADS.values():
        inputs = wl.make_inputs(1)
        built = wl.build(inputs.corpus, 1)
        path = work / f"{wl.name}.idx"
        wl.save(built, path)
        state = State(inputs, wl.load(path), built, wl.ground_truth(inputs), "")
        records, bad = [], 0
        for op in inputs.ops[:OPS]:
            out = wl.run_op(state, op)
            wl.answer(out)
            problems, quality = wl.check(state, op, out)
            bad += bool(problems)
            records.append(quality)
        wl.quality(state, records)
        print(f"workload {wl.name}: {len(records)} ops, {bad} failed their check")
        failed += bad
    return failed


def _recipe(work: Path) -> int:
    """Run the README's CLI recipe at 1,500 x 8; count the commands that fail."""
    from fanns.cli import main

    corpus, hnsw, ivf = str(work / "c.fvc"), str(work / "h.idx"), str(work / "i.idx")
    grid = ["--targets", "0.01,0.1,0.5", "--ks", "10,100", "--seed", "7"]
    commands = [
        ["gen", "--n", "1500", "--d", "8", "--seed", "7", "--out", corpus],
        ["build", "--corpus", corpus, "--index", "hnsw", "--m", "10", "--ef-construction", "50",
         "--seed", "7", "--out", hnsw],
        ["build", "--corpus", corpus, "--index", "ivfflat", "--n-clusters", "39", "--seed", "7",
         "--out", ivf],
        ["run", "--corpus", corpus, "--index-files", hnsw, ivf, "--n-queries", "10", *grid,
         "--strategies", "PreAnns", "Post", "AdaptiveAuto", "--search-params", "10,100",
         "--out", str(work / "r1.csv")],
        ["run", "--corpus", corpus, "--config", str(ROOT / "configs" / "desk_scale.json"),
         "--n-queries", "5", "--out", str(work / "r2.csv")],
        ["summarize", "--results", str(work / "r2.csv"), "--out", str(work / "s.csv")],
    ]
    gls = ["gls", "--corpus", corpus, "--targets", "0.2", "--n-queries", "20",
           "--k-neighborhood", "187", "--seed", "7", "--out", str(work / "g.csv")]
    commands += [gls, gls + ["--index", hnsw], gls + ["--index", ivf]]
    failed = 0
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        print(f"fanns {argv[0]}: exit {code}")
        failed += code != 0
    return failed


def main() -> int:
    modules = sorted((SRC / "fanns").rglob("*.py"))
    lines = {str(path): set() for path in modules}
    sys.path.insert(0, str(SRC))
    sys.settrace(_tracer(lines))
    try:
        with tempfile.TemporaryDirectory() as work:
            failed = _workloads(Path(work)) + _recipe(Path(work))
    finally:
        sys.settrace(None)
    total = 0
    for path in modules:
        source = path.read_text(encoding="utf-8")
        missed = unreached(source, lines[str(path)])
        total += len(missed)
        for line in missed:
            print(f"{path.relative_to(SRC)}:{line}: {source.splitlines()[line - 1].strip()}")
    print(f"{total} statements never ran (raise statements not listed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
