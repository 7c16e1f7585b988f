"""fanns benchmark: one seeded workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload hnsw-filtered --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``. Set-up (inputs, index build, save/load round trip, ground truth)
runs three times and ``setup_s`` is their median. The timed loop then sends
the next op only after the previous one returned, timing each call with its
own monotonic clock, until ``--seconds`` have passed; timings are read at a
reference machine speed set by an interleaved calibration kernel (see
``Calibration`` and README.md). ``--trace 1`` replaces
the end-to-end metrics by per-layer ones: tracing wrappers are switched on in
alternate blocks of the timed loop, per-layer figures come from the traced
blocks and ``trace.overhead_pct`` compares the two kinds of block.

Every metric is printed by name with its unit; the last stdout line is the
JSON result. The exit code is 1 if any op failed or any check disagreed, and
2 if the run could not start.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import heapq
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work" / str(os.getpid())
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"
SETUPS = 3
TRACE_BLOCKS = 4  # per loop slice: untraced, traced, untraced, traced
CAL_EVERY_NS = 5_000_000  # calibrate after an op once this long has passed
CAL_WINDOW = 4  # calibrations on each side of an op in its rolling median
CAL_REF_NS = 500_000  # the calibration kernel's time at the reference speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "recall_mean": "ratio",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import fanns from this checkout's src/, never from anywhere else."""
    if not (SRC / "fanns" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'fanns'} not found; run from a fanns source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fanns

    if not Path(fanns.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported fanns from {fanns.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a sample (q in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_percentile(n: int) -> int:
    """Highest of p99/p90 with at least ten samples beyond it."""
    return 99 if n >= 1000 else 90


def metadata() -> dict:
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


class Calibration:
    """A fixed kernel, independent of fanns, run between timed ops.

    The speed of a shared machine swings by up to 1.5x within a minute, for
    identical work and in CPU time as much as in wall time. The kernel mixes
    the hot-path shapes of both index families: small-batch cosine keys with
    heap bookkeeping, and one 2048-row L2 scan. An op's latency is scaled by
    the rolling median of the kernel's time around it, so that timings read
    at the speed at which the kernel takes CAL_REF_NS.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((4096, 16))
        self.query = rng.standard_normal(16)
        self.batches = [rng.integers(0, 4096, 6) for _ in range(12)]
        self.scan = rng.standard_normal((2048, 32))
        self.scan_query = rng.standard_normal(32)
        self.samples: list[int] = []

    def run(self) -> None:
        t0 = time.perf_counter_ns()
        heap = []
        qnorm = np.linalg.norm(self.query)
        for ids in self.batches:
            rows = self.rows[ids]
            keys = -(rows @ self.query) / (np.linalg.norm(rows, axis=1) * qnorm)
            for key, i in zip(keys.tolist(), ids.tolist()):
                heapq.heappush(heap, (key, i))
        while heap:
            heapq.heappop(heap)
        diff = self.scan - self.scan_query
        np.sqrt(np.einsum("ij,ij->i", diff, diff)).argmin()
        self.samples.append(time.perf_counter_ns() - t0)

    def slowdown(self, c: int) -> float:
        """Machine slowdown around calibration c, relative to the reference."""
        window = self.samples[max(c - CAL_WINDOW, 0) : c + CAL_WINDOW + 1]
        return statistics.median(window) / CAL_REF_NS


def set_up(wl, seed: int, tag: str, tracer):
    """One full set-up; returns the State and its phase timings (seconds)."""
    from workloads import State, sha256

    clock = time.perf_counter
    spans = tracer.installed
    root = tracer.begin("bench.setup") if spans else None
    t0 = clock()
    sid = tracer.begin("corpus.generate") if spans else None
    inputs = wl.make_inputs(seed)
    if spans:
        tracer.end(sid)
    t1 = clock()
    built = wl.build(inputs.corpus, seed)
    t2 = clock()
    path = WORK / f"{wl.name}-{seed}-{tag}.idx"
    wl.save(built, path)
    t3 = clock()
    index = wl.load(path)
    t4 = clock()
    sid = tracer.begin("oracle.gt") if spans else None
    ground_truth = wl.ground_truth(inputs)
    if spans:
        tracer.end(sid)
    t5 = clock()
    if spans:
        tracer.end(root)
    data = path.read_bytes()
    path.unlink()
    phases = {
        "generate_s": t1 - t0, "build_s": t2 - t1, "save_s": t3 - t2, "load_s": t4 - t3,
        "gt_s": t5 - t4, "setup_s": t5 - t0, "file_bytes": len(data),
    }
    return State(inputs, index, built, ground_truth, sha256(data), phases)


def run_ops(wl, state, ops, keep, tracer=None, seconds=None, block_s=None, start=0, cal=None):
    """Closed loop over `ops` (cycled from `start`); one record per op.

    A record is (i, ns, traced, keep(i, output), c), where the output is the
    exception if the op raised; `keep` runs outside the timed call, so that
    answers are checked as they come and not held in memory. With `seconds`
    the loop stops once that much wall time has passed; with `block_s` the
    tracer is switched on and off every `block_s` seconds. Without either,
    every op in `ops` runs once, traced if a tracer is given. With `cal`, the
    calibration kernel runs before the first op and after an op once
    CAL_EVERY_NS have passed; c is the index of the op's latest calibration.
    """
    clock = time.perf_counter_ns
    records = []
    began = clock()
    deadline = began + int(seconds * 1e9) if seconds is not None else None
    block_ns = int(block_s * 1e9) if block_s else None
    switch = began + block_ns if block_ns else None
    traced = tracer is not None and block_ns is None
    if traced:
        tracer.install()
    if cal is not None:
        cal.run()
        last_cal = clock()
    i = start
    while True:
        now = clock()
        if deadline is not None and now >= deadline:
            break
        if deadline is None and i == start + len(ops):
            break
        if switch is not None and now >= switch:
            traced = not traced
            tracer.install() if traced else tracer.uninstall()
            switch = now + block_ns
        op = ops[i % len(ops)]
        span = tracer.begin("bench.op", i) if traced else None
        t0 = clock()
        try:
            out = wl.run_op(state, op)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            out = exc
        t1 = clock()
        if span is not None:
            tracer.end(span)
        records.append((i, t1 - t0, traced, keep(i, out), len(cal.samples) - 1 if cal else None))
        i += 1
        if cal is not None and clock() - last_cal >= CAL_EVERY_NS:
            cal.run()
            last_cal = clock()
    if tracer is not None:
        tracer.uninstall()
    return records


def checker(wl, state):
    """keep() for the timed loop: (problems, quality figures, answer or None)."""
    ops = state.inputs.ops

    def keep(i, out):
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"], None, None
        problems, quality = wl.check(state, ops[i % len(ops)], out)
        return problems, quality, wl.answer(out) if i < wl.check_ops else None

    return keep


def prefix_run(wl, state, index):
    """Run the stream prefix traced on `index`; per-op counters and answers.

    Counters are distance evaluations, nodes visited, centroid evaluations,
    predicate invocations, exact_knn calls and (plan_chosen, fallback_used).
    """
    from dataclasses import replace

    from spans import SpanIndex, Tracer, op_counters

    def keep(i, out):
        return None if isinstance(out, Exception) else wl.answer(out)

    tracer = Tracer()
    records = run_ops(wl, replace(state, index=index), state.inputs.ops[: wl.check_ops], keep, tracer=tracer)
    spans = SpanIndex(tracer.spans)
    roots, _ = spans.under("bench.op")
    return [op_counters(tracer.spans, r, spans) for r in roots], [answer for _, _, _, answer, _ in records]


def determinism_check(a, b) -> tuple[int, dict]:
    """Ops whose counters or answers differ between two prefix runs; counter totals."""

    (c1, a1), (c2, a2) = a, b
    mismatches = sum(
        not (c1[j] == c2[j] and a1[j] is not None and a2[j] is not None and np.array_equal(a1[j], a2[j]))
        for j in range(len(c1))
    )
    tallies = {}
    for c in c1:
        for chosen, fallback in c[5]:
            key = chosen + ("+fallback" if fallback else "")
            tallies[key] = tallies.get(key, 0) + 1
    names = ("dist_evals", "nodes_visited", "centroid_evals", "predicate_invocations", "exact_knn_calls")
    return mismatches, {"ops": len(c1), **{n: sum(c[k] for c in c1) for k, n in enumerate(names)}, "plans": tallies}


def end_to_end(wl, phases, records, quality, cal) -> dict:
    """End-to-end metrics, with timings read at the reference speed: each op
    by the calibrations around it, set-up by the run's median calibration.
    The raw figures go to the info line."""
    raw_ms = [ns / 1e6 for _, ns, _, _, _ in records]
    lat_ms = [ns / 1e6 / cal.slowdown(c) for _, ns, _, _, c in records]
    tail = wl.tail_percentile
    setup_s = statistics.median(p["setup_s"] for p in phases)
    metrics = {
        "setup_s": setup_s * CAL_REF_NS / statistics.median(cal.samples),
        "qps": len(records) / (sum(lat_ms) / 1e3),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_tail_ms": percentile(lat_ms, tail),
        "recall_mean": quality["recall_mean"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "setup_s": setup_s,
        "qps": len(records) / (sum(raw_ms) / 1e3),
        "latency_p50_ms": percentile(raw_ms, 50),
        "latency_tail_ms": percentile(raw_ms, tail),
        "calibration_median_ns": statistics.median(cal.samples),
        "calibrations": len(cal.samples),
    }
    return metrics, {"latency_samples": len(lat_ms), "latency_tail_percentile": tail, "raw": raw}


def per_layer(wl, tracer, phases, records, quality) -> tuple[dict, dict, dict, dict]:
    """(metrics, units, detail, op counts) from the traced run's spans; see README.md."""
    from spans import SpanIndex

    spans = tracer.spans
    index = SpanIndex(spans)
    roots, below = index.under("bench.op")
    n_ops = max(len(roots), 1)
    loop_ns = sum(index.dur(r) for r in roots) or 1
    by_name = {}
    for j in below:
        by_name.setdefault(spans[j][0], []).append(j)

    def self_ms(name):
        return sum(index.self_ns(j) for j in by_name.get(name, ())) / 1e6

    keys = by_name.get("corpus.ordering_keys", [])
    exact = by_name.get("oracle.exact_knn", [])
    search_name = f"{wl.index_kind}.search"
    search = by_name.get(search_name, [])
    layer_self = {layer: 0 for layer in ("bench", "corpus", "oracle", "hnsw", "ivfflat", "strategy", "gls")}
    layer_self["bench"] = sum(index.self_ns(r) for r in roots)
    for j in below:
        layer_self[spans[j][0].split(".")[0]] += index.self_ns(j)

    build_roots, build_below = index.under(f"{wl.index_kind}.build")
    build_keys_ns = sum(index.dur(j) for j in build_below if spans[j][0] == "corpus.ordering_keys")
    build_ns = sum(index.dur(r) for r in build_roots) or 1

    executes = [(j, spans[j][4]) for j in by_name.get("strategy.execute", [])]

    def kids(j):
        return [spans[c][0] for c in index.children.get(j, ())]

    adaptive = [(j, a) for j, a in executes if a["plan"] == "AdaptiveAuto"]
    approx_passes = [j for j, _ in adaptive if search_name in kids(j)]
    safety = [j for j in approx_passes if "oracle.exact_knn" in kids(j)]
    post = [(j, a) for j, a in executes if a["plan"] == "Post"]
    post_pool = sum(spans[c][4]["returned"] for j, _ in post for c in index.children.get(j, ()) if spans[c][0] == search_name)
    runtime = [a for _, a in executes if a["plan"] == "Runtime"]

    def ratio(num, den):
        return num / den if den else 0.0

    def median(key):
        return statistics.median(p[key] for p in phases)

    untraced = [ns for _, ns, traced, _, _ in records if not traced]
    traced = [ns for _, ns, t, _, _ in records if t]
    qps_off = ratio(len(untraced), sum(untraced) / 1e9)
    qps_on = ratio(len(traced), sum(traced) / 1e9)
    metrics = {
        "corpus.generate_s": (median("generate_s"), "s"),
        "corpus.ordering_keys.calls_per_op": (len(keys) / n_ops, "count"),
        "corpus.ordering_keys.rows_per_call": (ratio(sum(spans[j][4]["rows"] for j in keys), len(keys)), "count"),
        "corpus.ordering_keys.self_ms_per_op": (self_ms("corpus.ordering_keys") / n_ops, "ms"),
        "corpus.ordering_keys.build_share": (build_keys_ns / build_ns, "ratio"),
        "oracle.gt_s": (median("gt_s"), "s"),
        "oracle.exact_knn.calls_per_op": (len(exact) / n_ops, "count"),
        "oracle.exact_knn.p50_ms": (percentile([index.dur(j) / 1e6 for j in exact], 50) if exact else 0.0, "ms"),
        "index.build_s": (median("build_s"), "s"),
        "index.save_s": (median("save_s"), "s"),
        "index.load_s": (median("load_s"), "s"),
        "index.file_bytes": (median("file_bytes"), "bytes"),
        "index.search.calls_per_op": (len(search) / n_ops, "count"),
        "index.search.self_ms_per_op": (self_ms(search_name) / n_ops, "ms"),
        "index.dist_evals_per_op": (sum(spans[j][4]["dist"] for j in search) / n_ops, "count"),
        "index.nodes_visited_per_op": (sum(spans[j][4]["nodes"] for j in search) / n_ops, "count"),
        "index.centroid_evals_per_op": (sum(spans[j][4]["centroids"] for j in search) / n_ops, "count"),
        **{f"{layer}.self_share": (ns / loop_ns, "ratio") for layer, ns in layer_self.items()},
        "strategy.AdaptiveAuto.fallback_rate": (ratio(sum(a["fallback"] for _, a in adaptive), len(adaptive)), "ratio"),
        "strategy.AdaptiveAuto.safety_net_rate": (ratio(len(safety), len(approx_passes)), "ratio"),
        "strategy.Post.kept_ratio": (ratio(sum(a["returned"] for _, a in post), post_pool), "ratio"),
        "strategy.Runtime.predicate_calls_per_op": (ratio(sum(a["predicates"] for a in runtime), len(runtime)), "count"),
        "gls.rho_mae": (quality.get("rho_mae", 0.0), "ratio"),
        "trace.overhead_pct": (100.0 * (1.0 - ratio(qps_on, qps_off)), "%"),
        "trace.spans": (len(spans), "count"),
    }

    # The same figures under the layer's own name, plus per-plan and per-call
    # latencies: printed, not part of the result line, because they exist
    # only on the workloads whose path includes that layer or plan.
    detail = {}
    fam = wl.index_kind
    for key in ("build_s", "save_s", "load_s", "file_bytes", "search.self_ms_per_op", "dist_evals_per_op",
                "nodes_visited_per_op", "centroid_evals_per_op"):
        value, unit = metrics[f"index.{key}"]
        detail[f"{fam}.{key}"] = (value, unit, None)
    if executes:
        detail["strategy.self_ms_per_op"] = (self_ms("strategy.execute") / n_ops, "ms", None)
    for plan in dict.fromkeys(a["plan"] for _, a in executes):
        lat = [index.dur(j) / 1e6 for j, a in executes if a["plan"] == plan]
        tail = tail_percentile(len(lat))
        detail[f"strategy.{plan}.p50_ms"] = (percentile(lat, 50), "ms", len(lat))
        detail[f"strategy.{plan}.p{tail}_ms"] = (percentile(lat, tail), "ms", len(lat))
    for name in ("gls.exact", "gls.approx", "gls.distance_correlation"):
        lat = [index.dur(j) / 1e6 for j in by_name.get(name, ())]
        if lat:
            detail[f"{name}.p50_ms"] = (percentile(lat, 50), "ms", len(lat))
    counts = {"traced_ops": len(traced), "untraced_ops": len(untraced)}
    return {k: v for k, (v, _) in metrics.items()}, {k: u for k, (_, u) in metrics.items()}, detail, counts


def check_pins(workload: str, seed: int, digests: dict) -> str:
    pins = json.loads(PINS.read_text()).get(workload, {})
    pinned = pins.get(str(seed))
    if pinned is None:
        return "unpinned"
    if pinned != digests:
        bad = sorted(k for k in digests if pinned.get(k) != digests[k])
        sys.exit(f"perfbench: inputs for {workload} seed {seed} differ from pins.json: {', '.join(bad)}")
    return "match"


def main(argv=None) -> int:
    from workloads import WORKLOADS, input_digests, sha256

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from spans import Tracer

    wl = WORKLOADS[args.workload]
    tracer = Tracer()
    loop_tracer = tracer if args.trace else None
    block_s = args.seconds / SETUPS / TRACE_BLOCKS if args.trace else None
    # The timed loop runs in SETUPS slices, one after each set-up, so that it
    # samples the machine over the whole run rather than one stretch of it.
    # Every slice uses the first set-up's index; the other set-ups time
    # set-up again and build the index the determinism check compares with.
    records, problems = [], {}
    cal = None if args.trace else Calibration()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer.install()  # only the first set-up is traced: build spans are many
        first = set_up(wl, args.seed, "0", tracer)
        tracer.uninstall()
        phases = [first.phases]
        inputs = input_digests(first.inputs, first.ground_truth)
        pin_status = check_pins(wl.name, args.seed, inputs)
        fingerprint = (inputs, first.index_digest)
        differing_setups = 0
        # The prefix run doubles as the warm-up of the timed loop.
        reference = prefix_run(wl, first, first.built_index)
        for i in range(SETUPS):
            if i:
                other = set_up(wl, args.seed, str(i), tracer)
                phases.append(other.phases)
                if (input_digests(other.inputs, other.ground_truth), other.index_digest) != fingerprint:
                    differing_setups += 1
                    problems["inputs or index bytes differ between set-ups of one seed"] = None
            start = records[-1][0] + 1 if records else 0
            records += run_ops(
                wl, first, first.inputs.ops, checker(wl, first), tracer=loop_tracer,
                seconds=args.seconds / SETUPS, block_s=block_s, start=start, cal=cal,
            )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()  # only if no other run is using it
    rerun = prefix_run(wl, other, other.index)
    del other
    mismatches, counters = determinism_check(reference, rerun)
    check_answers = reference[1]
    mismatches += sum(
        answer is None or not np.array_equal(answer, check_answers[i])
        for i, _, _, (_, _, answer), _ in records[: len(check_answers)]
    )
    if mismatches:
        problems[f"{mismatches} ops changed counters or answers between identical runs"] = None
    failed = 0
    ops = first.inputs.ops
    for i, _, _, (found, _, _), _ in records:
        failed += bool(found)
        for problem in found:
            problems.setdefault(problem, ops[i % len(ops)])
    quality = wl.quality(first, [q for _, _, _, (_, q, _), _ in records if q is not None])
    # Attempted: the timed ops, both prefix runs and the set-ups, each of
    # which must reproduce the first set-up's inputs and index bytes.
    attempted = len(records) + 2 * len(check_answers) + SETUPS
    failed += mismatches + differing_setups
    result_digest = sha256(*(a for a in check_answers if a is not None))
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": len(records), "setups": len(phases), "pins": pin_status, "inputs": inputs,
        "outputs": {"index_sha256": first.index_digest, "prefix_answers_sha256": result_digest},
        "counters": counters, "meta": metadata(),
    }
    if args.trace:
        values, units, detail, counts = per_layer(wl, tracer, phases, records, quality)
        info.update(counts)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{wl.name}-seed{args.seed}-spans.npz")
        for name, (value, unit, n) in detail.items():
            print(f"detail {name} = {value!r} {unit}" + (f" (n={n})" if n is not None else ""))
    else:
        values, extra = end_to_end(wl, phases, records, quality, cal)
        units = END_TO_END_UNITS
        info.update(extra)
    for problem, op in problems.items():
        print(f"FAILED {problem}" + (f" (first at op {op})" if op is not None else ""), file=sys.stderr)
    print(json.dumps({"info": info}))
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    import_library()
    sys.exit(main())
