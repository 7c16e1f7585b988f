import hashlib
import json
import logging
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


def _untimed(rows):
    """Results rows without the columns a rerun of the same grid may change."""
    return [{col: value for col, value in row.items()
             if col not in ("latency_s", "qps", "build_time_s")} for row in rows]


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

    @pytest.mark.parametrize("settings, flags, refused", [
        ({}, ["--search-params", ","], "search_params is empty"),
        ({"search_params": []}, [], "search_params is empty"),
        ({"index_grid": [{"kind": "ivfflat", "n_clusters": 8, "search_params": []}]}, [],
         "search_params is empty"),
        ({}, ["--ks", ","], "ks is empty"),
        ({"ks": []}, [], "ks is empty"),
        ({"strategies": []}, [], "strategies is empty"),
        ({}, ["--strategies", "Runtime", "--targets", ","],
         "Runtime runs on filtered targets only"),
    ], ids=["search-params-flag", "search-params-config", "search-params-entry", "ks-flag",
            "ks-config", "strategies-config", "runtime-without-filter"])
    def test_a_grid_with_nothing_to_measure_is_refused_before_any_build(
            self, tmp_path, tiny_corpus, capsys, monkeypatch, settings, flags, refused):
        built = []
        monkeypatch.setattr(bench, "build_index", lambda *args: built.append(args))
        cfg, res = tmp_path / "run.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({
            "n_queries": 2, "targets": [0.5], "ks": [5], "strategies": ["PreAnns"],
            "index_grid": [{"kind": "ivfflat", "n_clusters": 8}], **settings}))
        code = main(["run", "--corpus", str(tiny_corpus), "--config", str(cfg), *flags,
                     "--out", str(res)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("run error: ") and refused in err
        assert not built and not res.exists()

    @pytest.mark.parametrize("flag, once, repeated", [
        ("--ks", ["5"], ["5,5"]),
        ("--targets", ["0.5"], ["0.5,0.5"]),
        ("--strategies", ["PreAnns"], ["PreAnns", "PreAnns"]),
    ])
    def test_a_repeated_setting_value_runs_once(self, tmp_path, tiny_corpus, flag, once,
                                                repeated):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "n_queries": 2, "targets": [0.5], "ks": [5], "strategies": ["PreAnns"],
            "index_grid": [{"kind": "ivfflat", "n_clusters": 8, "search_params": [2]}]}))
        rows = {}
        for name, values in (("once", once), ("repeated", repeated)):
            res = tmp_path / f"{name}.csv"
            assert main(["run", "--corpus", str(tiny_corpus), "--config", str(cfg), flag, *values,
                         "--out", str(res)]) == 0
            rows[name] = _untimed(bench.load_results_csv(res))
        assert rows["repeated"] == rows["once"]

    def test_index_files_and_a_grid_of_the_same_builds_write_the_same_rows(
            self, tmp_path, tiny_corpus):
        corpus, hnsw, ivf = str(tiny_corpus), str(tmp_path / "h.idx"), str(tmp_path / "i.idx")
        assert main(["build", "--corpus", corpus, "--index", "hnsw", "--m", "6",
                     "--ef-construction", "30", "--seed", "3", "--out", hnsw]) == 0
        assert main(["build", "--corpus", corpus, "--index", "ivfflat", "--n-clusters", "12",
                     "--seed", "3", "--out", ivf]) == 0
        builds = [{"kind": "hnsw", "m": 6, "ef_construction": 30, "seed": 3},
                  {"kind": "ivfflat", "n_clusters": 12, "seed": 3}]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"index_grid": builds}))
        grid = ["--n-queries", "3", "--targets", "0.1,0.5", "--ks", "1,10", "--seed", "5",
                "--strategies", "PreAnns", "Post", "Runtime", "--search-params", "4,20"]
        rows = {}
        for name, source in (("files", ["--index-files", hnsw, ivf]),
                             ("grid", ["--config", str(cfg)])):
            res = tmp_path / f"{name}.csv"
            assert main(["run", "--corpus", corpus, *source, *grid, "--out", str(res)]) == 0
            rows[name] = _untimed(bench.load_results_csv(res))
        # 2 indexes x 2 search params x 8 cells (Runtime skips the unfiltered
        # filter) x 2 ks x 3 queries
        assert len(rows["files"]) == 2 * 2 * (3 * 3 - 1) * 2 * 3
        assert rows["files"] == rows["grid"]

    def test_index_files_with_a_grid_are_refused_before_any_load_or_build(
            self, tmp_path, tiny_corpus, capsys, monkeypatch):
        ivf = tmp_path / "i.idx"
        assert main(["build", "--corpus", str(tiny_corpus), "--index", "ivfflat",
                     "--n-clusters", "8", "--out", str(ivf)]) == 0
        capsys.readouterr()
        taken = []
        monkeypatch.setattr(bench, "build_index", lambda *args: taken.append("build"))
        monkeypatch.setattr(cli, "_load_index", lambda *args: taken.append("load"))
        cfg, res = tmp_path / "run.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"index_grid": [{"kind": "ivfflat", "n_clusters": 8}]}))
        code = main(["run", "--corpus", str(tiny_corpus), "--config", str(cfg),
                     "--index-files", str(ivf), "--out", str(res)])
        assert code == 2
        assert capsys.readouterr().err == ("run error: both --index-files and a config "
                                           "index_grid name indexes; give one of them\n")
        assert not taken and not res.exists()

    def test_search_params_flag_replaces_every_grid_entrys_list(self, tmp_path, tiny_corpus):
        # configs/desk_scale.json sets search_params on every entry
        cfg = Path(__file__).resolve().parents[1] / "configs" / "desk_scale.json"
        res = tmp_path / "r.csv"
        assert main(["run", "--corpus", str(tiny_corpus), "--config", str(cfg),
                     "--n-queries", "1", "--targets", "0.5", "--ks", "5",
                     "--strategies", "PreAnns", "--search-params", "5", "--out", str(res)]) == 0
        rows = bench.load_results_csv(res)
        assert {(row["index"], row["M"], row["search_param"]) for row in rows} == {
            ("hnsw", "5", 5), ("hnsw", "10", 5), ("ivfflat", "", 5)}

    def test_config_search_params_default_entries_without_their_own(self, tmp_path,
                                                                     tiny_corpus):
        cfg, res = tmp_path / "run.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({
            "n_queries": 1, "targets": [0.5], "ks": [5], "strategies": ["PreAnns"],
            "search_params": [3],
            "index_grid": [{"kind": "ivfflat", "n_clusters": 8, "search_params": [2]},
                           {"kind": "ivfflat", "n_clusters": 6}]}))
        assert main(["run", "--corpus", str(tiny_corpus), "--config", str(cfg),
                     "--out", str(res)]) == 0
        rows = bench.load_results_csv(res)
        assert {(row["n_clusters"], row["search_param"]) for row in rows} == {
            ("8", 2), ("6", 3)}

    def test_skipped_runtime_cells_are_reported_on_stderr(self, tmp_path, tiny_corpus, capsys,
                                                          monkeypatch):
        ivf, res = tmp_path / "i.idx", tmp_path / "r.csv"
        assert main(["build", "--corpus", str(tiny_corpus), "--index", "ivfflat",
                     "--n-clusters", "8", "--out", str(ivf)]) == 0
        capsys.readouterr()
        # pytest puts handlers on the root logger; without them, as in a bare
        # `fanns` process, a warning goes to Python's last-resort stderr handler
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        assert main(["run", "--corpus", str(tiny_corpus), "--index-files", str(ivf),
                     "--n-queries", "1", "--ks", "5", "--search-params", "2",
                     "--strategies", "Runtime", "PreAnns", "--targets", "0.5",
                     "--out", str(res)]) == 0
        assert "skipping Runtime strategy on unfiltered queries" in capsys.readouterr().err
        # PreAnns on the 0.5 filter and unfiltered, Runtime on the 0.5 filter only
        assert len(bench.load_results_csv(res)) == 3

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


# per JSON type: a config value, a flag's words, and the value those words parse to
_SETTING_VALUES = {
    "str": ("from-config", ["from-flag"], "from-flag"),
    "int": (3, ["5"], 5),
    "[str]": (["a"], ["b", "c"], ["b", "c"]),
    "[int]": ([3], ["4,6"], [4, 6]),
    "[number]": ([0.5], ["0.25,0.75"], [0.25, 0.75]),
}


@pytest.mark.parametrize("key", [key for key in cli._RUN_SETTINGS if key != "index_grid"])
def test_each_run_setting_is_a_flag_that_overrides_the_config(tmp_path, key):
    in_config, words, parsed = _SETTING_VALUES[cli._RUN_SETTINGS[key][0]]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: in_config}))
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]
    parser = cli._build_parser()
    assert cli._run_settings(parser.parse_args(argv))[key] == in_config
    flag = "--" + key.replace("_", "-")
    assert cli._run_settings(parser.parse_args(argv + [flag, *words]))[key] == parsed


def test_docs_name_every_subcommand():
    """README's CLI walkthrough and the module docstring name exactly the
    subcommands ``main`` dispatches."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    walkthrough = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^fanns (\w+)", walkthrough, re.M)) == set(cli._COMMANDS)
    docstring = cli.__doc__.splitlines()[0].split(":", 1)[1].rstrip(".")
    assert {name.strip() for name in docstring.split("/")} == set(cli._COMMANDS)
