"""The experiment scripts run end to end at a small scale."""

import csv
import importlib.util
from pathlib import Path

from fanns import bench

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_scale_writes_every_output(tmp_path):
    script = _load_script("run_desk_scale")
    assert script.main(["--n", "300", "--queries", "3", "--out-dir", str(tmp_path)]) == 0
    for name in ("corpus.fvc", "results.csv", "summary.csv", "gls.csv"):
        assert (tmp_path / name).stat().st_size > 0
    header = (tmp_path / "results.csv").read_text().splitlines()[0]
    assert header == bench.RESULTS_HEADER
    with open(tmp_path / "gls.csv", newline="") as fh:
        rhos = [float(row["rho"]) for row in csv.DictReader(fh)]
    assert any(rho != 0.0 for rho in rhos)
