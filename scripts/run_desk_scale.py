#!/usr/bin/env python3
"""Desk-scale measurement run: 20k synthetic corpus, full strategy grid.

Builds two HNSW configurations and one IVFFlat configuration, executes the
query grid single-threaded, and writes results.csv / summary.csv / gls.csv
into the output directory. Expect a few minutes of wall time, dominated by
the HNSW builds.

Usage: python scripts/run_desk_scale.py [--out-dir runs/desk] [--n 20000]
       [--queries 200] [--seed 7]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from fanns import bench
from fanns.corpus import build_mask, generate_synthetic, save_corpus, threshold_for_selectivity
from fanns.gls import DEFAULT_K_NEIGHBORHOOD, gls_exact, gls_mean, write_gls_csv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/desk")
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"generating corpus: n={args.n} d=16 seed={args.seed}")
    corpus = generate_synthetic(args.n, 16, seed=args.seed)
    save_corpus(corpus, out_dir / "corpus.fvc")

    workload = bench.make_workload(corpus, args.queries, seed=args.seed)
    grid = [
        bench.IndexConfig(kind="hnsw", m=5, ef_construction=25, seed=args.seed,
                          search_params=(10, 100, 500)),
        bench.IndexConfig(kind="hnsw", m=10, ef_construction=50, seed=args.seed,
                          search_params=(10, 100, 500)),
        bench.IndexConfig(kind="ivfflat", n_clusters=max(2, int(round(args.n ** 0.5))),
                          seed=args.seed, search_params=(1, 10, 50)),
    ]
    strategies = ["PreAnns", "Post", "AdaptiveAuto"]

    start = time.perf_counter()
    rows = bench.run_experiment(
        corpus, workload, grid, strategies, out_path=out_dir / "results.csv"
    )
    print(f"{len(rows)} result rows in {time.perf_counter() - start:.1f}s")

    agg = bench.summarize(rows, out_path=out_dir / "summary.csv")
    frontier = [a for a in agg if a["on_frontier"]]
    print(f"{len(agg)} aggregates, {len(frontier)} on a recall/QPS frontier")

    rng = np.random.default_rng(args.seed)
    query_ids = rng.choice(corpus.n, size=min(100, args.queries), replace=False)
    mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.2))
    # an eighth of the corpus at most: a neighborhood of every row reads rho = 0
    k_neighborhood = min(DEFAULT_K_NEIGHBORHOOD, corpus.n // 8)
    entries = [
        gls_exact(corpus, corpus.vectors[qid], mask, k_neighborhood, query_id=int(qid))
        for qid in query_ids
    ]
    write_gls_csv(entries, out_dir / "gls.csv")
    print(f"gls.csv written (k_neighborhood={k_neighborhood}, rho_bar={gls_mean(entries):+.4f})")
    print(f"outputs in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
