"""End-to-end subcommand behavior on a miniature pipeline."""

import os

import pytest

from pelt.cli import main


def _files(d):
    return {name: open(os.path.join(d, name), "rb").read()
            for name in sorted(os.listdir(d))}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-corpus + train once; several commands probe the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    data = str(root / "data")
    ckpt = str(root / "model.bin")
    rc = main(["gen-corpus", "--out", data, "--seed", "13", "--entities", "10",
               "--budget", "200", "--lookup-per-entity", "8", "--zero-train", "2"])
    assert rc == 0
    rc = main(["train", "--data", data, "--out", ckpt, "--steps", "60",
               "--lr", "1e-3", "--dim", "16", "--layers", "1", "--heads", "2",
               "--maxlen", "40", "--seed", "13", "--log-every", "0"])
    assert rc == 0
    return root, data, ckpt


class TestGenCorpus:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["--seed", "5", "--entities", "8", "--budget", "160",
                "--lookup-per-entity", "6", "--zero-train", "1"]
        assert main(["gen-corpus", "--out", a] + args) == 0
        assert main(["gen-corpus", "--out", b] + args) == 0
        assert _files(a) == _files(b)

    def test_expected_artifacts(self, pipeline):
        _, data, _ = pipeline
        assert sorted(os.listdir(data)) == ["catalog.tsv", "cloze.tsv",
                                            "lookup.txt", "train.txt", "vocab.txt"]


class TestTrain:
    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        _, data, ckpt = pipeline
        other = str(tmp_path / "again.bin")
        rc = main(["train", "--data", data, "--out", other, "--steps", "60",
                   "--lr", "1e-3", "--dim", "16", "--layers", "1", "--heads", "2",
                   "--maxlen", "40", "--seed", "13", "--log-every", "0"])
        assert rc == 0
        assert open(ckpt, "rb").read() == open(other, "rb").read()


class TestBuildTableAndProbe:
    def test_table_then_paired_probes(self, pipeline, tmp_path, capsys):
        root, data, ckpt = pipeline
        table = str(root / "table.bin")
        rc = main(["build-table", "--ckpt", ckpt, "--data", data, "--out", table,
                   "--l", "3"])
        assert rc == 0 and os.path.exists(table)
        tsv_v = str(tmp_path / "vanilla.tsv")
        tsv_i = str(tmp_path / "infused.tsv")
        assert main(["probe", "--ckpt", ckpt, "--data", data, "--tsv", tsv_v]) == 0
        assert main(["probe", "--ckpt", ckpt, "--data", data, "--table", table,
                     "--tsv", tsv_i]) == 0
        out = capsys.readouterr().out
        assert "# pelt" in out and "macro mean" in out
        assert "mode\tvanilla" in open(tsv_v).read()
        assert "mode\tinfused" in open(tsv_i).read()

    def test_cross_checkpoint_table_refused(self, pipeline, tmp_path):
        root, data, ckpt = pipeline
        other_ckpt = str(tmp_path / "other.bin")
        main(["train", "--data", data, "--out", other_ckpt, "--steps", "5",
              "--lr", "1e-3", "--dim", "16", "--layers", "1", "--heads", "2",
              "--maxlen", "40", "--seed", "99", "--log-every", "0"])
        table = str(root / "table.bin")
        rc = main(["probe", "--ckpt", other_ckpt, "--data", data,
                   "--table", table])
        assert rc == 1


class TestSweep:
    def test_curve_and_selection(self, pipeline, tmp_path, capsys):
        _, data, ckpt = pipeline
        tsv = str(tmp_path / "sweep.tsv")
        rc = main(["sweep", "--ckpt", ckpt, "--data", data, "--l", "1..3",
                   "--tsv", tsv])
        assert rc == 0
        out = capsys.readouterr().out
        assert "<- selected" in out
        lines = open(tsv).read().splitlines()
        assert sum(1 for l in lines if l.startswith("sweep\t")) == 3
        assert any(l.startswith("selected\t") for l in lines)


class TestLink:
    def test_bundled_graph(self, capsys):
        import importlib.resources as res
        graph = str(res.files("pelt").joinpath("data/toy_graph.txt"))
        assert main(["link", "--graph", graph]) == 0
        out = capsys.readouterr().out
        assert "d02\tquicksilver\tUNRESOLVED\t-" in out
        assert "d03\ttemple\tp18\t2" in out


class TestDiagnostics:
    def test_gradcheck_small(self, capsys):
        rc = main(["gradcheck", "--dim", "16", "--layers", "1", "--heads", "2",
                   "--vocab", "64", "--samples", "40", "--seed", "3"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle(self, capsys):
        rc = main(["oracle", "--dim", "16", "--vocab", "128",
                   "--occurrences", "6", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "surrogate_max_deviation" in out and "|V|=128" in out


class TestUsageAndConfig:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--out", "x.bin"])
        assert err.value.code == 2

    def test_runtime_error_exits_1(self, tmp_path):
        rc = main(["probe", "--ckpt", str(tmp_path / "missing.bin"),
                   "--data", str(tmp_path)])
        assert rc == 1

    def test_config_file_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("entities=8\nbudget=160\nzero-train=1\n"
                       "lookup-per-entity=6\nseed=21\n")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["gen-corpus", "--out", a, "--config", str(cfg)]) == 0
        # explicit flag overrides the file value
        assert main(["gen-corpus", "--out", b, "--config", str(cfg),
                     "--seed", "22"]) == 0
        assert _files(a) != _files(b)

    def test_bad_config_cast_exits_2(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=abc\n")
        rc = main(["train", "--data", data, "--out", str(tmp_path / "m.bin"),
                   "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "steps='abc'" in err
        assert not (tmp_path / "m.bin").exists()

    def test_bad_l_spec_exits_2(self, pipeline, capsys):
        _, data, ckpt = pipeline
        rc = main(["sweep", "--ckpt", ckpt, "--data", data, "--l", "1..x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "1..x" in err

    @pytest.mark.parametrize("command, key", [("train", "step=1"),
                                              ("build-table", "threads=2")])
    def test_unknown_config_key_exits_2(self, pipeline, tmp_path, capsys, command, key):
        _, data, ckpt = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text(key + "\n")
        out = str(tmp_path / "out.bin")
        argv = {"train": ["train", "--data", data, "--out", out],
                "build-table": ["build-table", "--ckpt", ckpt, "--data", data,
                                "--out", out]}[command]
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(key.split("=")[0]) in err
        assert not os.path.exists(out)
