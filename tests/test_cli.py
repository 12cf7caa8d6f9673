"""End-to-end command-line runs, in process, on a small geometry.

Every test drives ``main(argv)`` directly so exit codes and console text are
asserted without spawning interpreters.  The module-scoped corpus/checkpoint
fixtures keep the total runtime to a few seconds.
"""

import csv
import re
import struct
import types

import numpy as np
import pytest

import patchcast.cli as cli_mod
from patchcast.cli import main
from patchcast.synth import (
    build_corpus,
    default_pretrain_recipe,
    read_manifest,
    series_from_record,
    write_manifest,
)
from patchcast.train import load_checkpoint, save_checkpoint

SMALL_CFG = """\
# small geometry for fast end-to-end runs
model.l_patch = 8
model.n_patches = 8
model.d_model = 16
model.n_layers = 2
model.n_heads = 2
model.d_ff = 24
model.l_pred = 16
train.steps = 30
train.batch_size = 8
train.eval_every = 10
synth.variants_per_entry = 2
"""

W, H = 64, 16  # context and horizon under SMALL_CFG


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(SMALL_CFG, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def corpus(cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--config", str(cfg_file), "--seed", "5", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def target_csv(corpus, tmp_path_factory):
    # any long series does; sawtooth is always part of the default recipe
    record = next(r for r in read_manifest(corpus / "corpus.manifest") if r.kind == "sawtooth")
    values = series_from_record(record).values.tolist()
    path = tmp_path_factory.mktemp("target") / "sawtooth.csv"
    path.write_text("value\n" + "".join(f"{x!r}\n" for x in values), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pre(cfg_file, corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("pre")
    argv = ["pretrain", "--config", str(cfg_file), "--seed", "5",
            "--data", str(corpus), "--out", str(out)]
    assert main(argv) == 0
    return out


def _adapt_run(command, cfg_file, pre, target_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp(command)
    argv = [command, "--config", str(cfg_file), "--seed", "5",
            "--data", str(target_csv), "--out", str(out)]
    if command == "finetune":
        argv += ["--checkpoint", str(pre / "checkpoint.omg")]
    assert main(argv) == 0
    return out


@pytest.fixture(scope="module")
def ft(cfg_file, pre, target_csv, tmp_path_factory):
    return _adapt_run("finetune", cfg_file, pre, target_csv, tmp_path_factory)


@pytest.fixture(scope="module")
def tt(cfg_file, pre, target_csv, tmp_path_factory):
    return _adapt_run("target-train", cfg_file, pre, target_csv, tmp_path_factory)


@pytest.fixture(scope="module")
def ev(cfg_file, pre, target_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("ev")
    argv = ["eval", "--config", str(cfg_file),
            "--checkpoint", str(pre / "checkpoint.omg"), "--data", str(target_csv),
            "--out", str(out), "--emit-traces"]
    assert main(argv) == 0
    return out


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["gradcheck", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flags(self, capsys):
        assert main(["eval", "--out", "/tmp/never-made"]) == 1
        assert "required" in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_reconstruct_takes_no_horizon(self, pre, target_csv, tmp_path, capsys):
        argv = ["reconstruct", "--checkpoint", str(pre / "checkpoint.omg"),
                "--data", str(target_csv), "--out", str(tmp_path / "rec"), "--horizon", "8"]
        assert main(argv) == 1
        assert "unrecognized arguments: --horizon" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_bad_task_choice(self, pre, target_csv, tmp_path, capsys):
        argv = ["eval", "--checkpoint", str(pre / "checkpoint.omg"),
                "--data", str(target_csv), "--out", str(tmp_path / "x"),
                "--task", "classify"]
        assert main(argv) == 1
        assert "task" in capsys.readouterr().err


class TestSynth:
    def test_writes_the_recipe_manifest_only(self, corpus, tmp_path):
        # a manifest regenerates every series bitwise, so no series file is written
        assert {p.name for p in corpus.iterdir()} == {"config.resolved", "corpus.manifest"}
        _, manifest = build_corpus(default_pretrain_recipe(variants_per_entry=2), seed=7)
        want = tmp_path / "want.manifest"
        write_manifest(want, manifest)
        assert (corpus / "corpus.manifest").read_bytes() == want.read_bytes()

    def test_same_seed_reproduces_corpus(self, cfg_file, corpus, tmp_path):
        out = tmp_path / "again"
        argv = ["synth", "--config", str(cfg_file), "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        assert (out / "corpus.manifest").read_bytes() == (corpus / "corpus.manifest").read_bytes()


class TestRunProtocol:
    @pytest.mark.parametrize("run, files", [
        ("corpus", {"corpus.manifest"}),
        ("pre", {"checkpoint.omg", "curve.csv"}),
        ("ft", {"checkpoint.omg", "curve.csv"}),
        ("tt", {"checkpoint.omg", "curve.csv"}),
        ("ev", {"report.csv", "windows.csv", "traces"}),
        ("cmp_out", {"report.csv", "summary.txt", "windows_zero_shot.csv",
                     "windows_fine_tuned.csv", "windows_target_trained.csv"}),
    ])
    def test_each_command_writes_exactly_its_files(self, request, run, files):
        out = request.getfixturevalue(run)
        assert {p.name for p in out.iterdir()} == files | {"config.resolved"}

    @pytest.mark.parametrize("run, mode", [
        ("pre", "pretrain"), ("ft", "finetune_forecast"), ("tt", "target_train"),
    ])
    def test_config_resolved_names_the_target_mode(self, request, run, mode):
        echo = (request.getfixturevalue(run) / "config.resolved").read_text(encoding="utf-8")
        assert f"train.target_mode = {mode}\n" in echo

    @pytest.mark.parametrize("command", ["finetune", "target-train"])
    def test_missing_data_leaves_no_out(self, pre, tmp_path, command, capsys):
        argv = [command, "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")]
        if command == "finetune":
            argv += ["--checkpoint", str(pre / "checkpoint.omg")]
        assert main(argv) == 1
        assert "absent.csv" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("content, code", [(None, 1), (b"\x00" * 64, 2)],
                             ids=["missing", "corrupt"])
    def test_bad_checkpoint_leaves_no_out(self, target_csv, tmp_path, command, content, code):
        checkpoint = tmp_path / "c.omg"
        if content is not None:
            checkpoint.write_bytes(content)
        argv = [command, "--checkpoint", str(checkpoint), "--data", str(target_csv),
                "--out", str(tmp_path / "o")]
        assert main(argv) == code
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "compare", "finetune"])
    @pytest.mark.parametrize("flags, named", [
        (["--horizon", "999"], "l_pred"),
        (["--window", str(W // 2)], "context"),
    ], ids=["horizon", "window"])
    def test_geometry_refusal_leaves_no_out(self, cfg_file, pre, target_csv, tmp_path, capsys,
                                            command, flags, named):
        argv = [command, "--config", str(cfg_file), "--checkpoint", str(pre / "checkpoint.omg"),
                "--data", str(target_csv), "--out", str(tmp_path / "o"), *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and named in err
        assert not (tmp_path / "o").exists()

    def test_compare_on_a_short_series_leaves_no_out(self, cfg_file, pre, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("value\n" + "".join(f"{i % 7}\n" for i in range(10 * (W + H) - 1)))
        argv = ["compare", "--config", str(cfg_file), "--checkpoint", str(pre / "checkpoint.omg"),
                "--data", str(short), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "three-way split" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("reader", ["csv", "config", "manifest"])
    def test_undecodable_input_is_one_error_line(self, cfg_file, pre, target_csv, tmp_path,
                                                 capsys, reader):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe1.0\n2.0\n")
        out = str(tmp_path / "o")
        ckpt = str(pre / "checkpoint.omg")
        argv = {
            "csv": ["eval", "--config", str(cfg_file), "--checkpoint", ckpt,
                    "--data", str(bad), "--out", out],
            "config": ["eval", "--config", str(bad), "--checkpoint", ckpt,
                       "--data", str(target_csv), "--out", out],
            "manifest": ["pretrain", "--config", str(cfg_file), "--data", str(bad), "--out", out],
        }[reader]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "bad.bin" in err and "UTF-8" in err
        assert not (tmp_path / "o").exists()

    def test_unwritable_out_fails_before_training(self, cfg_file, corpus, tmp_path, monkeypatch):
        def never(*_):
            raise AssertionError("training started")

        monkeypatch.setattr(cli_mod, "pretrain", never)
        (tmp_path / "file").write_text("")
        argv = ["pretrain", "--config", str(cfg_file), "--data", str(corpus),
                "--out", str(tmp_path / "file" / "o")]
        assert main(argv) == 1


class TestPretrain:
    def test_outputs(self, pre):
        assert {p.name for p in pre.iterdir()} == {"checkpoint.omg", "curve.csv", "config.resolved"}
        rows = read_rows(pre / "curve.csv")
        assert rows[0] == ["step", "total", "forecast_mse", "reconstruct_mse"]
        assert len(rows) == 1 + 30
        _, step = load_checkpoint(pre / "checkpoint.omg")
        assert step == 30

    def test_seed_flag_derives_section_seeds(self, pre):
        echo = (pre / "config.resolved").read_text()
        assert "model.seed = 5" in echo
        assert "train.seed = 6" in echo
        assert "synth.seed = 7" in echo


class TestEval:
    def test_report_and_windows(self, ev):
        rows = read_rows(ev / "report.csv")
        assert rows[0][:3] == ["dataset", "task", "variant"]
        assert [r[2] for r in rows[1:]] == ["zero_shot", "persistence"]
        n = int(rows[1][3])
        windows = read_rows(ev / "windows.csv")
        assert windows[0] == ["offset", "mse"]
        assert len(windows) == 1 + n

    def test_traces_cover_each_scored_window(self, ev):
        n = int(read_rows(ev / "report.csv")[1][3])
        traces = list((ev / "traces").glob("window_*.csv"))
        assert len(traces) == n
        rows = read_rows(ev / "traces" / "window_0.csv")
        assert rows[0] == ["offset", "ground_truth", "prediction"]
        assert len(rows) == 1 + H  # one row per forecast sample
        assert int(rows[1][0]) == W  # truth starts right after the context
        assert rows[1][1] != "" and rows[1][2] != ""

    def test_echoed_config_rerun_is_bitwise(self, ev, pre, target_csv, tmp_path):
        out = tmp_path / "rerun"
        argv = ["eval", "--config", str(ev / "config.resolved"),
                "--checkpoint", str(pre / "checkpoint.omg"), "--data", str(target_csv),
                "--out", str(out)]
        assert main(argv) == 0
        assert (out / "windows.csv").read_bytes() == (ev / "windows.csv").read_bytes()
        assert (out / "report.csv").read_bytes() == (ev / "report.csv").read_bytes()

    def test_horizon_beyond_model_rejected(self, pre, target_csv, tmp_path, capsys):
        argv = ["eval", "--checkpoint", str(pre / "checkpoint.omg"),
                "--data", str(target_csv), "--out", str(tmp_path / "x"),
                "--window", "64", "--horizon", "999"]
        assert main(argv) == 1
        assert "l_pred" in capsys.readouterr().err

    def test_workers_flag_is_a_usage_error(self, pre, target_csv, tmp_path, capsys):
        # scoring runs on one thread; there is no worker count to set
        argv = ["eval", "--checkpoint", str(pre / "checkpoint.omg"),
                "--data", str(target_csv), "--out", str(tmp_path / "x"), "--workers", "2"]
        assert main(argv) == 1
        assert "--workers" in capsys.readouterr().err


class TestTraceCommands:
    def test_forecast_csv_out_is_exact_file(self, cfg_file, pre, target_csv, tmp_path):
        out = tmp_path / "fc.csv"
        argv = ["forecast", "--config", str(cfg_file),
                "--checkpoint", str(pre / "checkpoint.omg"), "--data", str(target_csv),
                "--horizon", "8", "--out", str(out)]
        assert main(argv) == 0
        assert out.is_file()
        assert not (tmp_path / "config.resolved").exists()  # csv mode: no echo
        rows = read_rows(out)
        assert len(rows) == 1 + W + 8
        head, tail = rows[1], rows[-1]
        assert head[1] != "" and head[2] == ""  # context: truth only
        assert tail[1] == "" and tail[2] != ""  # forecast: prediction only
        assert int(tail[0]) - int(head[0]) == W + 8 - 1

    def test_reconstruct_dir_out(self, cfg_file, pre, target_csv, tmp_path):
        out = tmp_path / "rec"
        argv = ["reconstruct", "--config", str(cfg_file),
                "--checkpoint", str(pre / "checkpoint.omg"), "--input", str(target_csv),
                "--out", str(out)]
        assert main(argv) == 0
        assert {p.name for p in out.iterdir()} == {"trace.csv", "config.resolved"}
        rows = read_rows(out / "trace.csv")
        assert len(rows) == 1 + W
        assert all(r[1] != "" and r[2] != "" for r in rows[1:])

    def test_forecast_horizon_from_config(self, pre, target_csv, tmp_path):
        cfg = tmp_path / "h4.cfg"
        cfg.write_text(SMALL_CFG + "eval.horizon = 4\n", encoding="utf-8")
        out = tmp_path / "fc"
        argv = ["forecast", "--config", str(cfg), "--checkpoint", str(pre / "checkpoint.omg"),
                "--data", str(target_csv), "--out", str(out)]
        assert main(argv) == 0
        assert len(read_rows(out / "trace.csv")) == 1 + W + 4
        assert "eval.horizon = 4" in (out / "config.resolved").read_text(encoding="utf-8")

    def test_series_shorter_than_context(self, pre, tmp_path, capsys):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("value\n" + "\n".join("0.5" for _ in range(10)) + "\n")
        argv = ["forecast", "--checkpoint", str(pre / "checkpoint.omg"),
                "--data", str(tiny), "--out", str(tmp_path / "fc.csv")]
        assert main(argv) == 1
        assert "context" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cmp_out(cfg_file, pre, target_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp")
    argv = ["compare", "--config", str(cfg_file), "--seed", "5",
            "--checkpoint", str(pre / "checkpoint.omg"), "--data", str(target_csv),
            "--out", str(out)]
    assert main(argv) == 0
    return out


class TestCompare:
    def test_three_reports_share_window_count(self, cmp_out):
        rows = read_rows(cmp_out / "report.csv")
        assert [r[2] for r in rows[1:]] == ["zero_shot", "fine_tuned", "target_trained"]
        assert len({r[3] for r in rows[1:]}) == 1
        n = int(rows[1][3])
        for variant in ("zero_shot", "fine_tuned", "target_trained"):
            assert len(read_rows(cmp_out / f"windows_{variant}.csv")) == 1 + n

    def test_summary_text(self, cmp_out, capsys):
        text = (cmp_out / "summary.txt").read_text()
        lines = text.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("zero_shot mse ")
        assert all(("lower than" in l) or ("higher than" in l) for l in lines[3:])


class TestAdapt:
    def test_finetune_keeps_best_snapshot(self, cfg_file, pre, target_csv, tmp_path, capsys):
        out = tmp_path / "ft"
        argv = ["finetune", "--config", str(cfg_file), "--seed", "5",
                "--checkpoint", str(pre / "checkpoint.omg"), "--data", str(target_csv),
                "--out", str(out)]
        assert main(argv) == 0
        assert "kept snapshot from step" in capsys.readouterr().out
        _, step = load_checkpoint(out / "checkpoint.omg")
        assert step in (10, 20, 30)  # snapshot cadence under eval_every=10

    def test_target_train_from_scratch(self, cfg_file, target_csv, tmp_path):
        out = tmp_path / "tt"
        argv = ["target-train", "--config", str(cfg_file), "--seed", "5",
                "--data", str(target_csv), "--out", str(out)]
        assert main(argv) == 0
        model, step = load_checkpoint(out / "checkpoint.omg")
        assert step in (10, 20, 30)
        assert model.config.d_model == 16


class TestFailureExits:
    def test_missing_checkpoint_is_clean(self, target_csv, tmp_path, capsys):
        argv = ["eval", "--checkpoint", str(tmp_path / "nope.omg"),
                "--data", str(target_csv), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_corrupt_checkpoint_exits_two(self, target_csv, tmp_path, capsys):
        bad = tmp_path / "garbage.omg"
        bad.write_bytes(b"\x00" * 64)
        argv = ["eval", "--checkpoint", str(bad),
                "--data", str(target_csv), "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "magic" in capsys.readouterr().err

    def test_unknown_config_key_in_file(self, pre, target_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.dmodel = 64\n")
        argv = ["eval", "--config", str(cfg), "--checkpoint", str(pre / "checkpoint.omg"),
                "--data", str(target_csv), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("model.seed", "-1"), ("train.seed", "-1"), ("train.lr", "nan"), ("train.weight_decay", "-3"),
    ])
    def test_bad_seed_or_optimizer_setting_is_clean(self, cfg_file, tmp_path, key, value, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(cfg_file.read_text() + f"{key} = {value}\n")
        argv = ["pretrain", "--config", str(cfg), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key.partition(".")[2] in err
        assert "Traceback" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        argv = ["synth", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert "cannot read" in capsys.readouterr().err


def _edit_token(line, key, raw):
    """The manifest line with ``key``'s token dropped (raw None) or set to ``raw``."""
    tokens = [t for t in line.split() if t.partition("=")[0] != key]
    return " ".join(tokens if raw is None else tokens + [f"{key}={raw}"])


class TestMalformedManifestExits:
    @pytest.mark.parametrize("key, raw, named", [
        ("sensor.gain", None, "'sensor.gain'"),
        ("duration_s", None, "'duration_s'"),
        ("rate_hz", None, "'rate_hz'"),
        ("amplitude", "abc", "'amplitude=abc'"),
        ("seed", "x5", "'seed=x5'"),
        ("duration_s", "1.0,2.0", "'duration_s=1.0,2.0'"),
        ("amplitude", "0.5,0.6", "'amplitude=0.5,0.6'"),
    ])
    def test_one_error_line_and_exit_one(self, cfg_file, corpus, tmp_path, capsys,
                                         key, raw, named):
        lines = (corpus / "corpus.manifest").read_text().splitlines()
        sawtooth = next(line for line in lines if line.startswith("sawtooth "))
        manifest = tmp_path / "m.manifest"
        manifest.write_text(_edit_token(sawtooth, key, raw) + "\n", encoding="utf-8")
        argv = ["pretrain", "--config", str(cfg_file), "--data", str(manifest),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "o").exists()

    def test_empty_manifest_is_named(self, cfg_file, tmp_path, capsys):
        manifest = tmp_path / "empty.manifest"
        manifest.write_text("\n", encoding="utf-8")
        argv = ["pretrain", "--config", str(cfg_file), "--data", str(manifest),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: manifest {manifest} lists no series\n"
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def overflowing(pre, tmp_path_factory):
    """The pretrained checkpoint with one finite weight large enough to overflow."""
    model, step = load_checkpoint(pre / "checkpoint.omg")
    model.named_parameters()["patch_proj.w"].data[...] = 1e30
    path = tmp_path_factory.mktemp("overflow") / "checkpoint.omg"
    save_checkpoint(model, path, step=step)
    return path


class TestNonFiniteExits:
    # overflow is the point; the suite turns any warning that escapes into an error
    def test_diverged_pretrain_saves_nothing(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(SMALL_CFG + "train.lr = 1000\n", encoding="utf-8")
        kept = tmp_path / "kept"
        kept.mkdir()
        out = kept / "pre"
        argv = ["pretrain", "--config", str(cfg), "--data", str(corpus), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged at step"), err
        # a diverged model's statistics are non-finite: it must never be saved
        assert not out.exists()
        assert kept.is_dir()  # it existed before the run

    @pytest.mark.parametrize("command, checkpoint, named", [
        ("pretrain", None, r"op \w+ \(tape record \d+\) made the first non-finite output"),
        ("target-train", None, r"op \w+ \(tape record \d+\) made the first non-finite output"),
        ("finetune", "pre", r"op \w+ \(tape record \d+\) made the first non-finite output"),
        ("finetune", "overflowing", "the frozen encoder's summary embedding is not finite"),
    ], ids=["pretrain", "target-train", "finetune", "finetune-overflowing-encoder"])
    def test_divergence_names_its_source_and_leaves_no_out(self, request, corpus, target_csv,
                                                           tmp_path, capsys, command,
                                                           checkpoint, named):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(SMALL_CFG + "train.lr = 1e12\n", encoding="utf-8")
        out = tmp_path / "new" / "deeper" / "o"  # the run creates its parents too
        data = corpus if command == "pretrain" else target_csv
        argv = [command, "--config", str(cfg), "--data", str(data), "--out", str(out)]
        if checkpoint:
            path = request.getfixturevalue(checkpoint)
            argv += ["--checkpoint", str(path / "checkpoint.omg" if path.is_dir() else path)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged at step"), err
        assert re.search(named, err[0]), err
        assert not (tmp_path / "new").exists()

    def test_eval_writes_no_report(self, cfg_file, overflowing, target_csv, tmp_path, capsys):
        out = tmp_path / "ev"
        argv = ["eval", "--config", str(cfg_file), "--checkpoint", str(overflowing),
                "--data", str(target_csv), "--out", str(out), "--emit-traces"]
        assert main(argv) == 2
        assert "forecast decoder" in capsys.readouterr().err
        assert not out.exists()  # nor the traces written before the failing window

    @pytest.mark.parametrize("command,name", [("forecast", "fc.csv"), ("reconstruct", "rec")])
    def test_trace_writes_no_file(self, cfg_file, overflowing, target_csv, tmp_path, capsys,
                                  command, name):
        argv = [command, "--config", str(cfg_file), "--checkpoint", str(overflowing),
                "--data", str(target_csv), "--out", str(tmp_path / "new" / name)]
        assert main(argv) == 2
        assert f"{command} decoder" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()


class TestGradcheckCommand:
    # the real self-check runs in the acceptance suite; here only the
    # console contract is exercised, against stubbed reports
    def _fake(self, passed):
        report = types.SimpleNamespace(passed=passed, max_rel_error=5e-4)
        return lambda: [("layer/train", report), ("batch/infer", report)]

    def test_all_pass_exits_zero(self, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "run_gradient_selfcheck", self._fake(True))
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "layer/train" in out and "[ok]" in out
        assert "(tolerance 1.0e-03)" in out

    def test_any_failure_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "run_gradient_selfcheck", self._fake(False))
        assert main(["gradcheck"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_step_flag_is_a_usage_error(self, capsys):
        # the step and tolerance are the self-check's verified constants
        assert main(["gradcheck", "--step", "0"]) == 1
        err = capsys.readouterr().err
        assert "--step" in err and "Traceback" not in err


class TestLogging:
    def test_unknown_level_warns_and_runs(self, monkeypatch, capsys):
        monkeypatch.setenv("OMEGA_LOG", "banana")
        assert main([]) == 1  # usage error, but past logging setup
        assert "OMEGA_LOG" in capsys.readouterr().err

    def test_info_level_reports_training_steps(self, monkeypatch, corpus, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text(SMALL_CFG.replace("train.steps = 30", "train.steps = 2"))
        monkeypatch.setenv("OMEGA_LOG", "info")
        argv = ["pretrain", "--config", str(cfg), "--data", str(corpus),
                "--out", str(tmp_path / "pre")]
        assert main(argv) == 0
        assert "INFO patchcast.train" in capsys.readouterr().err


class TestCorruptConfigExits:
    @pytest.mark.parametrize("config_text", [
        "d_model=8589934592\nn_heads=4\n",
        "l_patch=8\nn_patches=8\nd_model=16\nn_layers=100000\nn_heads=2\nd_ff=24\nl_pred=16\n",
    ], ids=["wide-model", "many-layers"])
    def test_forecast_exits_two_without_traceback(self, target_csv, tmp_path, capsys, config_text):
        block = config_text.encode()
        head = b"OMGA" + struct.pack("<II", 1, len(block)) + block
        bad = tmp_path / "bad.omg"
        bad.write_bytes(head + b"\x00" * (32 * 1024 - len(head)))
        argv = ["forecast", "--checkpoint", str(bad), "--data", str(target_csv),
                "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "config implies" in err
        assert "Traceback" not in err


# The corruptions each reader gets, and the commands that read it.  A cut that
# leaves a whole, shorter input is no corruption, so a text reader's cuts fall
# where what is left cannot be valid: within a series' first W // 2 samples,
# inside a config's first key, before a manifest line's seed.
_READERS = {
    "csv": (("utf8", "cut0", "cut1", "cut2", "nan", "text"),
            ("finetune", "target-train", "eval", "compare", "forecast", "reconstruct")),
    "config": (("utf8", "cut0", "cut1", "cut2", "nan", "text"),
               ("synth", "pretrain", "finetune", "target-train", "eval", "compare",
                "forecast", "reconstruct")),
    "manifest": (("utf8", "cut0", "cut1", "cut2", "nan", "text"), ("pretrain",)),
    "checkpoint": (("flip-magic", "flip-version", "flip-record", "cut0", "cut1", "cut2"),
                   ("finetune", "eval", "compare", "forecast", "reconstruct")),
}

SWEEP_CFG = SMALL_CFG.partition("\n")[2]  # the first line is a key, not a comment


def _spoil(reader, how, data):
    """``data``, a valid input for ``reader``, corrupted as ``how`` names."""
    if how == "utf8":
        return b"\xff\xfe" + data
    if how.startswith("cut"):
        limit = {
            "csv": lambda: len(b"".join(data.splitlines(keepends=True)[: W // 2])),
            "config": lambda: data.index(b" ="),
            "manifest": lambda: data.index(b" seed="),
            "checkpoint": lambda: len(data),
        }[reader]()
        return data[: np.random.default_rng(12).integers(1, limit, size=3)[int(how[3:])]]
    if reader == "checkpoint":
        records = 12 + struct.unpack_from("<I", data, 8)[0] + 4  # the first record header
        at = {"flip-magic": 0, "flip-version": 4, "flip-record": records + 2}[how]
        return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]
    cell = b"nan" if how == "nan" else b"abc"
    if reader == "csv":
        lines = data.splitlines(keepends=True)
        return b"".join(lines[:2] + [cell + b"\n"] + lines[3:])
    old = {"config": b"d_model = 16", "manifest": b"duration_s=24.0"}[reader]
    return data.replace(old, old.partition(b"=")[0] + b"=" + cell, 1)


class TestRejectionSweep:
    @pytest.mark.parametrize("reader, how, command", [
        (reader, how, command)
        for reader, (corruptions, commands) in _READERS.items()
        for how in corruptions for command in commands
    ])
    def test_one_error_line_and_no_out(self, corpus, pre, target_csv, tmp_path, capsys,
                                       reader, how, command):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(SWEEP_CFG, encoding="utf-8")
        inputs = {"csv": target_csv, "config": cfg, "manifest": corpus / "corpus.manifest",
                  "checkpoint": pre / "checkpoint.omg"}
        bad = tmp_path / f"bad.{reader}"
        bad.write_bytes(_spoil(reader, how, inputs[reader].read_bytes()))
        inputs[reader] = bad
        out = tmp_path / "o"
        argv = [command, "--config", str(inputs["config"]), "--out", str(out)]
        if command != "synth":
            argv += ["--data", str(inputs["manifest" if command == "pretrain" else "csv"])]
        if command in _READERS["checkpoint"][1]:
            argv += ["--checkpoint", str(inputs["checkpoint"])]
        assert main(argv) in (1, 2)
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()
