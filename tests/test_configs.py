"""Every committed run config runs end to end through ``fanns`` at a small scale."""

import csv
import json
from pathlib import Path

import pytest

from fanns import bench
from fanns.cli import main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_config_writes_every_output(tmp_path, config):
    """README's recipe: gen, run --config, summarize and gls, on 300 rows."""
    corpus, results = tmp_path / "corpus.fvc", tmp_path / "results.csv"
    summary, gls = tmp_path / "summary.csv", tmp_path / "gls.csv"
    assert main(["gen", "--n", "300", "--d", "16", "--seed", "7", "--out", str(corpus)]) == 0
    assert main(["run", "--corpus", str(corpus), "--config", str(config),
                 "--n-queries", "3", "--out", str(results)]) == 0
    assert main(["summarize", "--results", str(results), "--out", str(summary)]) == 0
    # an eighth of the corpus: a neighborhood of every row reads rho = 0
    seed = str(json.loads(config.read_text()).get("seed", 0))
    assert main(["gls", "--corpus", str(corpus), "--targets", "0.2", "--n-queries", "3",
                 "--seed", seed, "--k-neighborhood", "37", "--out", str(gls)]) == 0
    for path in (corpus, results, summary, gls):
        assert path.stat().st_size > 0
    assert results.read_text().splitlines()[0] == bench.RESULTS_HEADER
    with open(gls, newline="") as fh:
        entries = list(csv.DictReader(fh))
    assert any(float(entry["rho"]) != 0.0 for entry in entries)
    # one seed and one query count: gls.csv joins results.csv on query_id
    result_ids = {row["query_id"] for row in bench.load_results_csv(results)}
    assert {int(entry["query_id"]) for entry in entries} <= result_ids
