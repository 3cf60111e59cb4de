"""End-to-end subcommand behavior on a miniature pipeline."""

import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import pelt
from pelt.checkpoint import fingerprint, load_checkpoint
from pelt.cli import main, parse_args
from pelt.corpus import (DATA_FILES, EntityCatalog, index_occurrences, parse_corpus,
                         read_corpus_file)
from pelt.errors import DivergenceError
from pelt.table import load_table
from pelt.vocab import Vocabulary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per subcommand: its required options, then a non-default value for every
# other option. A new option must be added here, or the round-trip test fails.
EVERY_OPTION = {
    "gen-corpus": ({"out": "d"},
                   {"seed": 7, "entities": 9, "budget": 99, "zipf": 1.5,
                    "lookup_per_entity": 3, "zero_train": 1}),
    "train": ({"data": "d", "out": "m.bin"},
              {"seed": 7, "steps": 9, "lr": 0.5, "batch": 4, "dim": 8, "layers": 1,
               "heads": 2, "ffn_mult": 3, "maxlen": 9, "ln_eps": 1e-3,
               "mask_rate": 0.3, "log_every": 5}),
    "build-table": ({"ckpt": "m.bin", "data": "d", "out": "t.bin"},
                    {"l": 2.5, "cap": 9, "entities": "a,b", "source": "train"}),
    "probe": ({"ckpt": "m.bin", "data": "d"},
              {"table": "t.bin", "restrict": True, "strict": True, "tsv": "p.tsv"}),
    "sweep": ({"ckpt": "m.bin", "data": "d"},
              {"l": "1,3", "cap": 9, "restrict": True, "tsv": "s.tsv"}),
    "link": ({"graph": "g.txt"}, {"tsv": "l.tsv"}),
    "gradcheck": ({}, {"seed": 7, "dim": 8, "layers": 1, "heads": 2, "vocab": 9,
                       "samples": 5, "h": 1e-3, "tol": 0.5}),
    "oracle": ({}, {"seed": 7, "dim": 8, "vocab": 9, "small_vocab": 3,
                    "occurrences": 4}),
}


def _flags(options):
    argv = []
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def _files(d):
    return {name: Path(d, name).read_bytes() for name in sorted(os.listdir(d))}


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
        assert Path(ckpt).read_bytes() == Path(other).read_bytes()

    @pytest.mark.parametrize("out,reason", [("missing/model.bin", "its directory does not exist"),
                                            ("d", "it is a directory")])
    def test_unwritable_out_exits_1_before_training(self, pipeline, tmp_path, capsys,
                                                    monkeypatch, out, reason):
        _, data, _ = pipeline
        monkeypatch.setattr("pelt.model.train_mlm", lambda *a, **k: pytest.fail("trained"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        assert main(["train", "--data", data, "--out", out, "--steps", "1"]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert os.listdir(tmp_path) == ["d"] and os.listdir(tmp_path / "d") == []

    def test_failed_training_keeps_the_previous_checkpoint(self, pipeline, tmp_path,
                                                           monkeypatch):
        _, data, _ = pipeline
        out = tmp_path / "model.bin"
        out.write_bytes(b"previous")

        def diverge(*args, **kwargs):
            raise DivergenceError(0)

        monkeypatch.setattr("pelt.model.train_mlm", diverge)
        assert main(["train", "--data", data, "--out", str(out), "--steps", "1"]) == 1
        assert out.read_bytes() == b"previous"


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
        assert "mode\tvanilla" in Path(tsv_v).read_text()
        assert "mode\tinfused" in Path(tsv_i).read_text()

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

    def test_one_checkpoint_hash_per_command(self, pipeline, tmp_path, capsys, monkeypatch):
        # the header prints the fingerprint its command's library call computed;
        # an infused probe also hashes in load_table's check
        _, data, ckpt = pipeline
        model = load_checkpoint(ckpt)
        want = f"# pelt {pelt.__version__} seed={model.train_seed} " \
               f"ckpt={fingerprint(model).hex()[:16]}"
        calls = []

        def counted(c):
            calls.append(1)
            return fingerprint(c)

        for name, module in list(sys.modules.items()):
            if name.startswith("pelt") and vars(module).get("fingerprint") is fingerprint:
                monkeypatch.setattr(module, "fingerprint", counted)
        table = str(tmp_path / "t.bin")
        common = ["--ckpt", ckpt, "--data", data]
        counts, headers = [], []
        for argv in (["build-table", "--out", table], ["probe"], ["probe", "--table", table],
                     ["sweep", "--l", "1,2"]):
            calls.clear()
            assert main(argv[:1] + common + argv[1:]) == 0
            counts.append(len(calls))
            headers.append(capsys.readouterr().out.splitlines()[0])
        assert counts == [1, 1, 2, 1]
        table_fp = load_table(table, model).fingerprint.hex()[:16]
        assert headers == [want, want + " table=none", f"{want} table={table_fp}", want]

    def test_train_source_skips_the_zero_train_entities(self, tmp_path, capsys):
        # the default seed-42 corpus and a short checkpoint: every entity
        # seen in training is stored with its indexed count, the rest skipped
        data, ckpt, table = (str(tmp_path / name) for name in ("data", "m.bin", "t.bin"))
        assert main(["gen-corpus", "--seed", "42", "--out", data]) == 0
        assert main(["train", "--data", data, "--out", ckpt, "--steps", "20", "--dim", "16",
                     "--layers", "1", "--heads", "2", "--seed", "42", "--log-every", "0"]) == 0
        capsys.readouterr()
        assert main(["build-table", "--ckpt", ckpt, "--data", data, "--out", table,
                     "--source", "train"]) == 0
        lines = capsys.readouterr().out.splitlines()
        skipped = [line.split()[1].rstrip(":") for line in lines if line.startswith("skipped ")]
        catalog = EntityCatalog.load(os.path.join(data, DATA_FILES["catalog"]))
        zero_train = [e.entity_id for e in catalog.entries if e.train_freq == 0]
        assert skipped == zero_train == [f"ent_{i:03d}" for i in range(45, 50)]
        vocab = Vocabulary.load(os.path.join(data, DATA_FILES["vocab"]))
        sentences = parse_corpus(read_corpus_file(os.path.join(data, DATA_FILES["train"])), vocab)
        indexed = index_occurrences(catalog.ids(), sentences, cap=256)
        stored = load_table(table, load_checkpoint(ckpt)).entries
        assert {eid: e.count for eid, e in stored.items()} == \
            {eid: len(occ) for eid, occ in indexed.items() if occ}
        assert main(["probe", "--ckpt", ckpt, "--data", data, "--table", table]) == 0
        assert "mode infused" in capsys.readouterr().out


# Every artifact-writing stage of the seed-42 pipeline, run by one fresh
# interpreter whose environment fixes the BLAS thread count before numpy loads.
_PIPELINE = """
import sys
from pelt.cli import main
out = sys.argv[1]
data, model, table = out + "/data", out + "/model.bin", out + "/table.bin"
probe = ["probe", "--ckpt", model, "--data", data]
for argv in (["gen-corpus", "--seed", "42", "--out", data],
             ["train", "--data", data, "--out", model, "--seed", "42", "--steps", "300",
              "--log-every", "0"],
             ["build-table", "--ckpt", model, "--data", data, "--out", table],
             probe + ["--tsv", out + "/vanilla.tsv"],
             probe + ["--table", table, "--tsv", out + "/infused.tsv"],
             ["sweep", "--ckpt", model, "--data", data, "--l", "1..10",
              "--tsv", out + "/sweep.tsv"]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the run pinned to one CPU encodes masked_outputs' chunks with no helper thread
    artifacts = {}
    for run_name, threads, pin in (("1", "1", None), ("2", "2", None), ("pinned", "2", _one_cpu)):
        out = tmp_path / run_name
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.path.join(ROOT, "src"))
        run = subprocess.run([sys.executable, "-c", _PIPELINE, str(out)], env=env,
                             capture_output=True, text=True, timeout=300, preexec_fn=pin)
        assert run.returncode == 0, run.stderr
        artifacts[run_name] = {name: (out / name).read_bytes() for name in
                               ("model.bin", "table.bin", "vanilla.tsv", "infused.tsv",
                                "sweep.tsv")}
    assert artifacts["1"] == artifacts["2"] == artifacts["pinned"]


class TestSweep:
    def test_curve_and_selection(self, pipeline, tmp_path, capsys):
        _, data, ckpt = pipeline
        tsv = str(tmp_path / "sweep.tsv")
        rc = main(["sweep", "--ckpt", ckpt, "--data", data, "--l", "1..3",
                   "--tsv", tsv])
        assert rc == 0
        out = capsys.readouterr().out
        assert "<- selected" in out
        lines = Path(tsv).read_text().splitlines()
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

    def test_repeated_page_id_exits_1(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("PAGE\tp1\tAlpha\nPAGE\tp1\tBeta\nDOC\td1\t{{Alpha}}\n",
                         encoding="utf-8")
        tsv = tmp_path / "l.tsv"
        assert main(["link", "--graph", str(graph), "--tsv", str(tsv)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {graph}:2: page 'p1' appears twice\n"
        assert not captured.out and not tsv.exists()


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

    def test_empty_l_range_exits_2(self, pipeline, capsys):
        _, data, ckpt = pipeline
        rc = main(["sweep", "--ckpt", ckpt, "--data", data, "--l", "5..1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "5..1" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("command, line, named", [
        ("build-table", "source=foo", "source='foo'"),
        ("probe", "restrict=maybe", "restrict='maybe'"),
        ("probe", "restrict", "'restrict'"),
    ])
    def test_bad_config_line_exits_2(self, pipeline, tmp_path, capsys, command, line,
                                     named):
        _, data, ckpt = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = str(tmp_path / "out.bin")
        argv = {"build-table": ["build-table", "--ckpt", ckpt, "--data", data,
                                "--out", out],
                "probe": ["probe", "--ckpt", ckpt, "--data", data]}[command]
        assert main(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and named in captured.err
        assert captured.out == "" and not os.path.exists(out)

    def test_config_switch_path_and_list_values_take_effect(self, pipeline, tmp_path,
                                                            capsys):
        _, data, ckpt = pipeline
        with open(os.path.join(data, "catalog.tsv")) as f:
            eid = f.read().splitlines()[1].split("\t")[0]
        cfg = tmp_path / "run.cfg"
        table = str(tmp_path / "one.bin")
        cfg.write_text(f"entities={eid}\n")
        assert main(["build-table", "--ckpt", ckpt, "--data", data, "--out", table,
                     "--config", str(cfg)]) == 0
        assert "stored=1 skipped=0" in capsys.readouterr().out
        probe = ["probe", "--ckpt", ckpt, "--data", data, "--table", table]
        flags_tsv, file_tsv = str(tmp_path / "flags.tsv"), str(tmp_path / "file.tsv")
        assert main(probe) == 0
        unrestricted = capsys.readouterr().out
        assert main(probe + ["--restrict", "--tsv", flags_tsv]) == 0
        by_flags = capsys.readouterr().out
        cfg.write_text(f"restrict=true\ntsv={file_tsv}\n")
        assert main(probe + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == by_flags != unrestricted
        assert Path(file_tsv).read_text() == Path(flags_tsv).read_text()

    @pytest.mark.parametrize("command", sorted(EVERY_OPTION))
    def test_config_round_trips_every_option(self, tmp_path, command):
        required, optional = EVERY_OPTION[command]
        from_flags = vars(parse_args([command] + _flags(required) + _flags(optional)))
        defaults = vars(parse_args([command] + _flags(required)))
        assert set(required) | set(optional) == set(from_flags) - {"func", "command",
                                                                   "config"}
        assert all(from_flags[key] != defaults[key] for key in optional)
        lines = [f"{key}={'true' if from_flags[key] is True else from_flags[key]}\n"
                 for key in {**required, **optional}]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(lines))
        from_file = vars(parse_args([command] + _flags(required) + ["--config", str(cfg)]))
        assert from_file == {**from_flags, "config": str(cfg)}

    @pytest.mark.parametrize("command", sorted(EVERY_OPTION))
    def test_seed_only_where_used(self, command):
        argv = [command] + _flags(EVERY_OPTION[command][0]) + ["--seed", "5"]
        if command in ("gen-corpus", "train", "gradcheck", "oracle"):
            assert parse_args(argv).seed == 5
        else:
            with pytest.raises(SystemExit) as err:
                parse_args(argv)
            assert err.value.code == 2

    def test_abbreviated_flag_exits_2(self, pipeline, tmp_path):
        _, data, _ = pipeline
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", data, "--out", str(tmp_path / "m.bin"),
                  "--step", "3"])
        assert err.value.code == 2
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("flag,value", [("--heads", "0"), ("--dim", "0"),
                                            ("--ffn-mult", "0"), ("--ln-eps", "-1"),
                                            ("--batch", "0"), ("--steps", "-1"),
                                            ("--seed", "-1"), ("--lr", "nan"),
                                            ("--lr", "inf"), ("--lr", "-inf"),
                                            ("--lr", "-1"), ("--lr", "0"),
                                            ("--mask-rate", "1.5"), ("--mask-rate", "0"),
                                            ("--mask-rate", "nan"), ("--ln-eps", "inf"),
                                            ("--log-every", "-1"), ("--maxlen", "5")])
    def test_out_of_range_train_value_exits_1(self, pipeline, tmp_path, capsys,
                                              flag, value):
        _, data, _ = pipeline
        out = tmp_path / "m.bin"
        rc = main(["train", "--data", data, "--out", str(out), "--steps", "2",
                   "--dim", "8", "--heads", "2", "--maxlen", "40", "--log-every", "0",
                   f"{flag}={value}"])  # "=": argparse reads a lone "-inf" as a flag
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert captured.out == ""  # rejected before the provenance header
        assert not out.exists()

    def test_empty_train_corpus_exits_1_before_the_header(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        empty = tmp_path / "data"
        shutil.copytree(data, empty)
        (empty / "train.txt").write_text("")
        assert main(["train", "--data", str(empty), "--out", str(tmp_path / "m.bin")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: train corpus is empty\n"

    @pytest.mark.parametrize("flag,value", [("--budget", "-1"), ("--seed", "-1"),
                                            ("--zipf", "-1"), ("--zipf", "nan"),
                                            ("--lookup-per-entity", "-1"),
                                            ("--zero-train", "-1")])
    def test_out_of_range_gen_corpus_value_exits_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d"
        assert main(["gen-corpus", "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["gradcheck", "--h", "0"],
                                      ["gradcheck", "--samples", "-1"],
                                      ["oracle", "--small-vocab", "-1"],
                                      ["oracle", "--small-vocab", "0"],
                                      ["gradcheck", "--vocab", "5"],
                                      ["oracle", "--vocab", "4"],
                                      ["oracle", "--vocab", "5"]])
    def test_out_of_range_diagnostic_value_exits_1(self, capsys, argv):
        assert main(argv[:1] + ["--dim", "8", "--vocab", "16"] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["build-table", "sweep"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_l_exits_1(self, pipeline, tmp_path, capsys, command, value):
        _, data, ckpt = pipeline
        out = tmp_path / "out"
        flag = {"build-table": "--out", "sweep": "--tsv"}[command]
        rc = main([command, "--ckpt", ckpt, "--data", data, flag, str(out), "--l", value])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: norm constant L={value} is not finite and positive\n"
        assert captured.out == "" and not out.exists()  # no provenance header

    @pytest.mark.parametrize("name,field,value", [
        ("cloze.tsv", 4, "often"), ("cloze.tsv", 4, "-3"),
        ("catalog.tsv", 3, "many"), ("catalog.tsv", 3, "-1"),
        ("catalog.tsv", 6, None),  # six fields
        ("catalog.tsv", 6, "lives_in"),  # a facts entry without '='
    ])
    def test_malformed_data_line_exits_1(self, pipeline, tmp_path, capsys, name, field,
                                         value):
        _, data, ckpt = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        path = copy / name
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split("\t")  # line 3 of the file
        if value is None:
            del fields[field]
        else:
            fields[field] = value
        lines[2] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tsv = tmp_path / "p.tsv"
        assert main(["probe", "--ckpt", ckpt, "--data", str(copy), "--tsv", str(tsv)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path}, line 3: ")
        assert not tsv.exists()

    @pytest.mark.parametrize("name,command", [
        ("vocab.txt", "probe"), ("catalog.tsv", "probe"), ("cloze.tsv", "probe"),
        ("lookup.txt", "build-table"), ("train.txt", "train"), ("run.cfg", "gen-corpus"),
        ("graph.txt", "link")])
    def test_non_utf8_text_input_exits_1(self, pipeline, tmp_path, capsys, name, command):
        _, data, ckpt = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        path = copy / name
        with open(path, "ab") as f:
            f.write(b"caf\xe9 \xff\n")
        out = str(tmp_path / "out")
        argv = {"probe": ["--ckpt", ckpt, "--data", str(copy), "--tsv", out],
                "build-table": ["--ckpt", ckpt, "--data", str(copy), "--out", out],
                "train": ["--data", str(copy), "--out", out, "--steps", "1"],
                "gen-corpus": ["--config", str(path), "--out", out],
                "link": ["--graph", str(path), "--tsv", out]}[command]
        assert main([command] + argv) == 1
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("edit", [
        lambda raw: raw[:16] + (0).to_bytes(4, "little") + raw[20:],  # layers 1 -> 0
        lambda raw: raw[:16] + (2).to_bytes(4, "little") + raw[20:],  # layers 1 -> 2
        lambda raw: raw.replace(b"head.w", b"head.x"),
        lambda raw: raw[:20] + (3).to_bytes(4, "little") + raw[24:],  # heads 3, dim 16
        lambda raw: raw[:36] + struct.pack("<d", float("inf")) + raw[44:],  # ln_eps
    ], ids=["fewer-layers", "more-layers", "renamed", "bad-config", "infinite-ln-eps"])
    def test_checkpoint_other_than_its_layout_exits_1(self, pipeline, tmp_path, capsys,
                                                      edit):
        _, data, ckpt = pipeline
        bad = tmp_path / "model.bin"
        bad.write_bytes(edit(Path(ckpt).read_bytes()))
        assert main(["probe", "--ckpt", str(bad), "--data", data]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {bad}: ")
        assert not captured.out

    @pytest.mark.parametrize("command", ["probe", "sweep"])
    def test_out_of_vocabulary_catalog_answer_exits_1(self, pipeline, tmp_path, capsys,
                                                      command):
        _, data, ckpt = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        path = copy / "catalog.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")
        relation = sorted(fields[6].split(";"))[0].split("=")[0]
        fields[6] = ";".join(f"{kv.split('=')[0]}=zzqxjanuary"
                             if kv.startswith(relation + "=") else kv
                             for kv in fields[6].split(";"))
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tsv = tmp_path / "out.tsv"
        assert main([command, "--ckpt", ckpt, "--data", str(copy), "--restrict",
                     "--tsv", str(tsv)]
                    + (["--l", "1,2"] if command == "sweep" else [])) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert relation in err and "'zzqxjanuary'" in err
        assert not tsv.exists()

    @pytest.mark.parametrize("command", ["build-table", "probe", "sweep"])
    def test_vocabulary_other_than_the_checkpoints_exits_1(self, pipeline, tmp_path,
                                                           capsys, command):
        # one token more in vocab.txt, and a lookup line that uses it
        _, data, ckpt = pipeline
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        vocab = copy / "vocab.txt"
        size = len(vocab.read_text(encoding="utf-8").splitlines())
        with open(vocab, "a", encoding="utf-8") as f:
            f.write("zzqx\n")
        lookup = copy / "lookup.txt"
        with open(lookup, "a", encoding="utf-8") as f:
            f.write(lookup.read_text(encoding="utf-8").splitlines()[0] + " zzqx\n")
        out = tmp_path / "out"
        flag = "--out" if command == "build-table" else "--tsv"
        assert main([command, "--ckpt", ckpt, "--data", str(copy), flag, str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: vocabulary of {size + 1} tokens in {copy}, "
                       f"checkpoint expects {size}\n")
        assert not out.exists()

    @pytest.mark.parametrize("entities", [",", "a,,b", "ent_absent,"])
    def test_empty_entity_id_exits_2(self, pipeline, tmp_path, capsys, entities):
        _, data, ckpt = pipeline
        out = tmp_path / "t.bin"
        assert main(["build-table", "--ckpt", ckpt, "--data", data, "--out", str(out),
                     "--entities", entities]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "empty" in captured.err and not captured.out and not out.exists()

    # Under pytest a library warning is recorded, not printed; as an error it
    # reaches main, so a warning and any stray stderr line both fail here.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["build-table", "--entities", "ent_absent"],
                                      ["sweep", "--l", "2,2,3"]], ids=lambda a: a[0])
    def test_success_leaves_stderr_empty(self, pipeline, tmp_path, capsys, argv):
        _, data, ckpt = pipeline
        out = ["--out", str(tmp_path / "t.bin")] if argv[0] == "build-table" else []
        assert main(argv[:1] + ["--ckpt", ckpt, "--data", data] + out + argv[1:]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out
