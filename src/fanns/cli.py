"""Command-line frontend: gen / build / run / gls / summarize.

Every subcommand is deterministic given its --seed arguments, validates its
inputs before writing anything, and never mutates input files. Errors exit
nonzero with a subcommand-specific message prefix on stderr. ``run`` is the
one experiment frontend. Its settings are declared once, in the
``_RUN_SETTINGS`` table: its ``--config`` file may hold those keys and
nothing else, and each key but ``index_grid`` is also a flag that overrides
the file; ``--search-params`` also replaces the list of each ``index_grid``
entry that sets its own. The indexes of ``--index-files`` are loaded, or the
entries of ``index_grid`` built, one at a time, each searched before the
next; a run given both is refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from fanns import bench, gls as gls_mod
from fanns.corpus import generate_synthetic, load_corpus, save_corpus
from fanns.hnsw import layer0_unreachable, load_hnsw, save_hnsw
from fanns.ivfflat import load_ivf, save_ivf


class CliError(Exception):
    """User-facing CLI failure; message already carries its prefix."""


def _parse_floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _parse_ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fanns", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attr-mode", choices=["independent", "cluster_correlated"],
                   default="independent")
    p.add_argument("--strength", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("build", help="build an index over a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", choices=["hnsw", "ivfflat"], required=True)
    p.add_argument("--m", type=int, default=None, help="hnsw only (default 10)")
    p.add_argument("--ef-construction", type=int, default=None, help="hnsw only (default 50)")
    p.add_argument("--n-clusters", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run the measurement grid, write results CSV")
    for key, (kind, _) in _RUN_SETTINGS.items():
        if key != "index_grid":
            p.add_argument("--" + key.replace("_", "-"), **_FLAG_PARSERS[kind], default=None,
                           help=_RUN_HELP.get(key))
    p.add_argument("--config", default=None,
                   help="JSON run configuration; explicit flags override it")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gls", help="write a per-query selectivity-correlation CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--n-queries", type=int, default=100)
    p.add_argument("--targets", type=_parse_floats, default=[0.2])
    p.add_argument("--k-neighborhood", type=int, default=gls_mod.DEFAULT_K_NEIGHBORHOOD)
    p.add_argument("--index", default=None,
                   help="optional prebuilt index file; uses the approximate estimator")
    p.add_argument("--sample-size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("summarize", help="aggregate a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    return parser


def _require_file(path: str, prefix: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{prefix}: file not found: {path}")
    return p


def _load_index(path: Path, prefix: str):
    """The index in an FHN1 or FIV1 file, told apart by its magic."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"FHN1":
        return load_hnsw(path)
    if magic == b"FIV1":
        return load_ivf(path)
    raise CliError(f"{prefix}: {path} is not a recognized index file")


def _cmd_gen(args) -> int:
    corpus = generate_synthetic(
        args.n, args.d, args.seed, attr_mode=args.attr_mode, strength=args.strength
    )
    save_corpus(corpus, args.out)
    print(f"wrote corpus: n={corpus.n} d={corpus.dim} -> {args.out}")
    return 0


def _cmd_build(args) -> int:
    corpus = load_corpus(_require_file(args.corpus, "build error"))
    # every flag given, so that IndexConfig refuses the other kind's
    hnsw = args.index == "hnsw"
    config = bench.IndexConfig(
        kind=args.index, seed=args.seed, n_clusters=args.n_clusters,
        m=10 if hnsw and args.m is None else args.m,
        ef_construction=50 if hnsw and args.ef_construction is None else args.ef_construction,
    )
    index, _, _ = bench.build_index(corpus, config)
    (save_hnsw if hnsw else save_ivf)(index, args.out)
    print(f"wrote {args.index} index -> {args.out}")
    if hnsw:
        print(f"layer 0: {layer0_unreachable(index)} of {index.n} rows unreachable")
    return 0


# Each run setting: its JSON type ("[t]" is a list of t) and its default. Each
# but index_grid is also a flag, --key-with-dashes, that overrides the --config
# file and is parsed by its type; a list of strings is given as separate words.
_RUN_SETTINGS = {
    "corpus": ("str", None),
    "index_files": ("[str]", None),
    "index_grid": ("[object]", []),
    "n_queries": ("int", 100),
    "targets": ("[number]", list(bench.DEFAULT_TARGETS)),
    "ks": ("[int]", list(bench.DEFAULT_KS)),
    "strategies": ("[str]", ["PreAnns", "Post", "AdaptiveAuto"]),
    "search_params": ("[int]", [10, 100]),
    "seed": ("int", 0),
    "dataset_name": ("str", "synthetic"),
}
_RUN_HELP = {"index_files": "prebuilt index files; omit to build from config",
             "search_params": "ef_search values for HNSW indexes, n_probe for IVFFlat"}
_FLAG_PARSERS = {"str": {}, "int": {"type": int}, "[str]": {"nargs": "+"},
                 "[int]": {"type": _parse_ints}, "[number]": {"type": _parse_floats}}
# The settings of one index_grid entry, each a bench.IndexConfig field; kind
# is required, and search_params defaults to the run's and is replaced by an
# explicit --search-params flag
_GRID_TYPES = {"kind": "str", "m": "int", "ef_construction": "int", "n_clusters": "int",
               "seed": "int", "search_params": "[int]"}


def _has_type(value, name: str) -> bool:
    if name.startswith("["):
        return isinstance(value, list) and all(_has_type(v, name[1:-1]) for v in value)
    scalar = {"int": int, "number": (int, float), "str": str, "object": dict}[name]
    return isinstance(value, scalar) and not isinstance(value, bool)


def _check_settings(entries: dict, types: dict, where: str) -> None:
    for key, value in entries.items():
        if key not in types:
            raise CliError(f"run error: {where}: unknown setting {key!r}")
        if not _has_type(value, types[key]):
            raise CliError(f"run error: {where}: {key} must be {types[key]}, not {value!r}")


def _run_settings(args) -> dict:
    """The run's settings: the defaults, then the --config file, then each flag given."""
    settings = {key: default for key, (_, default) in _RUN_SETTINGS.items()}
    if args.config is not None:
        cfg_path = _require_file(args.config, "run error")
        try:
            config = json.loads(cfg_path.read_text())
        except json.JSONDecodeError as exc:
            raise CliError(f"run error: bad JSON in {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise CliError(f"run error: {args.config} must hold a JSON object")
        _check_settings(config, {key: t for key, (t, _) in _RUN_SETTINGS.items()}, args.config)
        for raw in config.get("index_grid", []):
            if "kind" not in raw:
                raise CliError(f"run error: {args.config}: index_grid entry {raw} has no kind")
            _check_settings(raw, _GRID_TYPES, f"{args.config} index_grid entry")
        settings.update(config)
    settings.update((key, value) for key, value in vars(args).items()
                    if key in settings and value is not None)
    return settings


def _cmd_run(args) -> int:
    settings = _run_settings(args)
    if settings["corpus"] is None:
        raise CliError("run error: --corpus (or a corpus entry in --config) is required")
    if settings["index_files"] and settings["index_grid"]:
        raise CliError("run error: both --index-files and a config index_grid name indexes; "
                       "give one of them")
    corpus = load_corpus(_require_file(settings["corpus"], "run error"))
    search_params = settings["search_params"]
    if settings["index_files"]:
        paths = [_require_file(f, "run error") for f in settings["index_files"]]
        # each file is loaded when the runner asks for it, as each grid entry is built
        indexes = ((_load_index(path, "run error"), search_params, 0.0) for path in paths)
        param_lists = [search_params] * len(paths)
    else:
        flagged = args.search_params is not None
        configs = [bench.IndexConfig(**dict(raw, search_params=tuple(
            search_params if flagged else raw.get("search_params", search_params))))
            for raw in settings["index_grid"]]
        indexes = (bench.build_index(corpus, config) for config in configs)
        param_lists = [config.search_params for config in configs]
    if not param_lists:
        raise CliError("run error: no indexes given (--index-files or config index_grid)")
    if not all(param_lists):
        raise CliError("run error: search_params is empty")
    workload = bench.make_workload(
        corpus, settings["n_queries"], targets=settings["targets"],
        ks=settings["ks"], seed=settings["seed"],
    )
    rows = bench.run_experiment(corpus, workload, indexes, settings["strategies"],
                                dataset_name=settings["dataset_name"])
    bench.write_results_csv(rows, args.out)
    print(f"wrote {len(rows)} result rows -> {args.out}")
    return 0


def _cmd_gls(args) -> int:
    if not args.targets:
        raise CliError("gls error: --targets names no selectivity")
    corpus = load_corpus(_require_file(args.corpus, "gls error"))
    index = None
    if args.index is not None:
        index = _load_index(_require_file(args.index, "gls error"), "gls error")
    # the queries and filters of `fanns run` at the same --seed and --n-queries,
    # so each entry's query_id is the corpus row id its results rows carry
    workload = bench.make_workload(corpus, args.n_queries, args.targets, seed=args.seed,
                                   include_unfiltered=False)
    entries = []
    for spec in workload.filters:
        if spec.mask.is_empty:
            raise CliError(f"gls error: target {spec.label} yields an empty filter")
        for query_id, query in zip(workload.query_ids.tolist(), workload.queries):
            if index is None:
                entries.append(gls_mod.gls_exact(
                    corpus, query, spec.mask, args.k_neighborhood, query_id=query_id))
            else:
                entries.append(gls_mod.gls_approx(
                    corpus, index, query, spec.mask, args.k_neighborhood,
                    sample_size=min(args.sample_size, corpus.n),
                    seed=args.seed, query_id=query_id))
    gls_mod.write_gls_csv(entries, args.out)
    rho_bar = gls_mod.gls_mean(entries)
    print(f"wrote {len(entries)} entries (rho_bar={rho_bar:+.4f}) -> {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    rows = bench.load_results_csv(_require_file(args.results, "summarize error"))
    agg = bench.summarize(rows)
    bench.write_summary_csv(agg, args.out)
    print(f"wrote {len(agg)} aggregate rows -> {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "build": _cmd_build,
    "run": _cmd_run,
    "gls": _cmd_gls,
    "summarize": _cmd_summarize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    prefix = f"{args.command} error"
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
