import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from fanns import bench, cli
from fanns.cli import main
from fanns.corpus import load_corpus
from fanns.hnsw import layer0_unreachable, load_hnsw


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def tiny_corpus(tmp_path):
    path = tmp_path / "c.fvc"
    assert main(["gen", "--n", "600", "--d", "8", "--seed", "3", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.fvc", tmp_path / "b.fvc"
        assert main(["gen", "--n", "100", "--d", "4", "--seed", "7", "--out", str(p1)]) == 0
        assert main(["gen", "--n", "100", "--d", "4", "--seed", "7", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_cluster_mode(self, tmp_path):
        out = tmp_path / "c.fvc"
        code = main(["gen", "--n", "50", "--d", "4", "--seed", "1",
                     "--attr-mode", "cluster_correlated", "--strength", "0.5",
                     "--out", str(out)])
        assert code == 0
        assert load_corpus(out).n == 50


class TestBuild:
    def test_hnsw_and_ivf(self, tmp_path, tiny_corpus, capsys):
        h = tmp_path / "h.idx"
        i = tmp_path / "i.idx"
        assert main(["build", "--corpus", str(tiny_corpus), "--index", "hnsw",
                     "--m", "6", "--ef-construction", "30", "--out", str(h)]) == 0
        # an HNSW build reports the rows its layer 0 cannot reach
        unreachable = layer0_unreachable(load_hnsw(h))
        assert f"layer 0: {unreachable} of 600 rows unreachable" in capsys.readouterr().out
        assert main(["build", "--corpus", str(tiny_corpus), "--index", "ivfflat",
                     "--n-clusters", "12", "--out", str(i)]) == 0
        assert "unreachable" not in capsys.readouterr().out
        assert h.read_bytes()[:4] == b"FHN1"
        assert i.read_bytes()[:4] == b"FIV1"

    def test_missing_corpus(self, tmp_path, capsys):
        code = main(["build", "--corpus", str(tmp_path / "nope.fvc"),
                     "--index", "hnsw", "--out", str(tmp_path / "x")])
        assert code != 0
        assert "build error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, refused", [
        (["--index", "ivfflat", "--m", "99", "--ef-construction", "7"],
         "ivfflat config takes no m or ef_construction"),
        (["--index", "hnsw", "--n-clusters", "5"], "hnsw config takes no n_clusters"),
    ])
    def test_the_other_familys_flags_are_refused(self, tmp_path, tiny_corpus, capsys,
                                                 flags, refused):
        out = tmp_path / "x.idx"
        assert main(["build", "--corpus", str(tiny_corpus), *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"build error: {refused}\n"
        assert not out.exists()

    def test_hnsw_flags_default_to_m10_efc50(self, tmp_path, tiny_corpus):
        out = tmp_path / "h.idx"
        assert main(["build", "--corpus", str(tiny_corpus), "--index", "hnsw",
                     "--out", str(out)]) == 0
        index = load_hnsw(out)
        assert (index.m, index.ef_construction) == (10, 50)

    def test_unknown_index_flag(self, tmp_path, tiny_corpus):
        with pytest.raises(SystemExit):
            main(["build", "--corpus", str(tiny_corpus), "--index", "kdtree",
                  "--out", str(tmp_path / "x")])


# one well-formed results row, in RESULTS_HEADER's column order
_RESULT_ROW = "synthetic,hnsw,6,30,,PreAnns,20,10,0.5,0.5,3,1.0,1.0,0.001,1000.0,50,0,0.0"


class TestRunAndSummarize:
    def test_pipeline(self, tmp_path, tiny_corpus):
        h = tmp_path / "h.idx"
        res = tmp_path / "res.csv"
        summary = tmp_path / "sum.csv"
        assert main(["build", "--corpus", str(tiny_corpus), "--index", "hnsw",
                     "--m", "6", "--ef-construction", "30", "--out", str(h)]) == 0
        before = _sha(tiny_corpus), _sha(h)
        code = main(["run", "--corpus", str(tiny_corpus), "--index-files", str(h),
                     "--n-queries", "1", "--targets", "0.5", "--ks", "1,10",
                     "--strategies", "PreAnns", "--search-params", "20",
                     "--out", str(res)])
        assert code == 0
        lines = res.read_text().splitlines()
        # header + 1 query x 2 filters (0.5 + unfiltered) x 2 ks x 1 config
        assert len(lines) == 1 + 4
        assert main(["summarize", "--results", str(res), "--out", str(summary)]) == 0
        assert summary.read_text().count("\n") >= 2
        # inputs untouched
        assert (_sha(tiny_corpus), _sha(h)) == before

    def test_config_file_with_flag_override(self, tmp_path, tiny_corpus):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            '{"n_queries": 2, "targets": [0.5], "ks": [5],'
            ' "strategies": ["PreExact"],'
            ' "index_grid": [{"kind": "ivfflat", "n_clusters": 8, "search_params": [2]}]}'
        )
        res = tmp_path / "res.csv"
        code = main(["run", "--corpus", str(tiny_corpus), "--config", str(cfg),
                     "--n-queries", "1", "--out", str(res)])
        assert code == 0
        lines = res.read_text().splitlines()
        assert len(lines) == 1 + 1 * 2 * 1  # override to 1 query, 2 filters, 1 k
        assert all("PreExact" in line for line in lines[1:])

    @pytest.mark.parametrize("text", [
        '{"index_grid": [{"n_clusters": 4}]}',
        "[1, 2]",
        '{"search_params": 5, "index_grid": [{"kind": "ivfflat", "n_clusters": 4}]}',
        '{"index_grid": [{"kind": "ivfflat", "n_clusters": "4"}]}',
        '{"n_querys": 3, "ks": [5], "targets": [0.5], "strategies": ["PreExact"],'
        ' "index_grid": [{"kind": "ivfflat", "n_clusters": 4, "n_probe": 2}]}',
        '{"index_grid": [{"kind": "ivfflat", "n_clusters": 4, "n_probe": 2}]}',
    ])
    def test_malformed_config(self, tmp_path, tiny_corpus, capsys, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code = main(["run", "--corpus", str(tiny_corpus), "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("run error: ")

    @pytest.mark.parametrize("entry, refused", [
        ('{"kind": "ivfflat", "n_clusters": 8, "m": 16, "ef_construction": 200}',
         "ivfflat config takes no m or ef_construction"),
        ('{"kind": "hnsw", "m": 16, "ef_construction": 200, "n_clusters": 8}',
         "hnsw config takes no n_clusters"),
    ])
    def test_grid_entry_with_the_other_familys_fields(self, tmp_path, tiny_corpus, capsys,
                                                      entry, refused):
        # a setting the built index would not use is refused, not dropped
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n_queries": 2, "targets": [0.5], "ks": [5], "strategies": ["PreExact"],'
                       f' "index_grid": [{entry}]}}')
        res = tmp_path / "r.csv"
        code = main(["run", "--corpus", str(tiny_corpus), "--config", str(cfg), "--out", str(res)])
        assert code == 2
        assert capsys.readouterr().err == f"run error: {refused}\n"
        assert not res.exists()

    def test_grid_entry_without_n_clusters_builds_sqrt_n_lists(self, tmp_path):
        corpus, cfg, res = tmp_path / "c.fvc", tmp_path / "run.json", tmp_path / "res.csv"
        assert main(["gen", "--n", "300", "--d", "8", "--seed", "3", "--out", str(corpus)]) == 0
        cfg.write_text('{"n_queries": 2, "targets": [0.5], "ks": [5], "strategies": ["PreAnns"],'
                       ' "index_grid": [{"kind": "ivfflat", "search_params": [40]}]}')
        assert main(["run", "--corpus", str(corpus), "--config", str(cfg), "--out", str(res)]) == 0
        rows = bench.load_results_csv(res)
        assert len(rows) == 2 * 2
        assert {(row["n_clusters"], row["search_param"]) for row in rows} == {("17", 17)}

    def test_run_without_indexes(self, tmp_path, tiny_corpus, capsys):
        code = main(["run", "--corpus", str(tiny_corpus), "--out",
                     str(tmp_path / "r.csv")])
        assert code != 0
        assert "run error" in capsys.readouterr().err

    def test_bad_results_file(self, tmp_path, capsys):
        code = main(["summarize", "--results", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "s.csv")])
        assert code != 0
        assert "summarize error" in capsys.readouterr().err

    def test_results_without_recall_column(self, tmp_path, capsys):
        header = bench.RESULTS_HEADER.split(",")
        row = dict(zip(header, _RESULT_ROW.split(",")))
        del row["recall"]
        self._refused(tmp_path, capsys, ",".join(row) + "\n" + ",".join(row.values()) + "\n")

    def test_results_row_cut_short(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, bench.RESULTS_HEADER + "\n" + _RESULT_ROW + "\n"
                      + ",".join(_RESULT_ROW.split(",")[:2]) + "\n")

    def test_results_value_not_a_number(self, tmp_path, capsys):
        bad = _RESULT_ROW.split(",")
        bad[bench.RESULTS_HEADER.split(",").index("recall")] = "abc"
        err = self._refused(tmp_path, capsys, bench.RESULTS_HEADER + "\n" + _RESULT_ROW + "\n"
                            + ",".join(bad) + "\n")
        assert err.endswith(" line 3: recall 'abc' is not a number\n")

    @staticmethod
    def _refused(tmp_path, capsys, text):
        res = tmp_path / "res.csv"
        res.write_text(text)
        code = main(["summarize", "--results", str(res), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"summarize error: {res} ")
        assert not (tmp_path / "s.csv").exists()
        return err


class TestGls:
    def test_exact_csv(self, tmp_path, tiny_corpus):
        out = tmp_path / "g.csv"
        code = main(["gls", "--corpus", str(tiny_corpus), "--n-queries", "5",
                     "--targets", "0.2", "--k-neighborhood", "64", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "query_id,sigma_g,sigma_l,ratio,rho,bin"
        assert len(lines) == 6

    def test_with_index_estimator(self, tmp_path, tiny_corpus):
        idx = tmp_path / "i.idx"
        out = tmp_path / "g.csv"
        assert main(["build", "--corpus", str(tiny_corpus), "--index", "ivfflat",
                     "--n-clusters", "10", "--out", str(idx)]) == 0
        code = main(["gls", "--corpus", str(tiny_corpus), "--n-queries", "3",
                     "--targets", "0.3", "--k-neighborhood", "32",
                     "--index", str(idx), "--sample-size", "300", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 4

    @pytest.mark.parametrize("flag,value", [("--targets", ""), ("--n-queries", "0")])
    def test_nothing_to_measure_writes_nothing(self, tmp_path, tiny_corpus, capsys, flag, value):
        out = tmp_path / "g.csv"
        code = main(["gls", "--corpus", str(tiny_corpus), "--k-neighborhood", "64",
                     flag, value, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("gls error: ")
        assert not out.exists()


def test_docs_name_every_subcommand():
    """README's CLI walkthrough and the module docstring name exactly the
    subcommands ``main`` dispatches."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    walkthrough = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^fanns (\w+)", walkthrough, re.M)) == set(cli._COMMANDS)
    docstring = cli.__doc__.splitlines()[0].split(":", 1)[1].rstrip(".")
    assert {name.strip() for name in docstring.split("/")} == set(cli._COMMANDS)
