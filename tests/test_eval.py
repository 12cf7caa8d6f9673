"""Splits, sliding-window scoring, baselines, and the three-way comparison."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import patchcast
import patchcast.eval as eval_mod
from patchcast.data import ContextWindow, TimeSeries, sliding_windows
from patchcast.errors import (
    CompareError,
    ConfigError,
    ContractError,
    InsufficientDataError,
    NumericError,
)
from patchcast.eval import (
    CompareSummary,
    EvalReport,
    SplitSpec,
    WindowScore,
    baseline_persistence,
    evaluate_zero_shot,
    percent_delta,
    select_best_snapshot,
    split_series,
    three_way_compare,
    write_report_summary,
    write_window_csv,
)
from patchcast.model import ModelConfig, decode_forecast, decode_reconstruct, encode, init_params
from patchcast.numerics import debug_checks
from patchcast.synth import PhenomenonSpec, generate_quantity
from patchcast.train import TrainConfig, clone_model, pretrain, save_checkpoint

SMALL = dict(l_patch=8, n_patches=8, d_model=16, n_layers=2, n_heads=2, d_ff=24, l_pred=16)
W, H, S = 64, 16, 32


@pytest.fixture(scope="module")
def series():
    spec = PhenomenonSpec(
        "sinusoid_mixture",
        30.0,
        64.0,
        {"amplitudes": [1.0, 0.4], "frequencies_hz": [1.0, 5.0]},
        seed=1,
    )
    return generate_quantity(spec)


@pytest.fixture(scope="module")
def model(series):
    res = pretrain(
        [series], ModelConfig(**SMALL), TrainConfig(steps=40, batch_size=8, seed=3, eval_every=20)
    )
    return res.model


class TestSplit:
    def test_canonical_boundaries(self):
        s = TimeSeries(id="r", values=np.arange(100.0))
        tr, va, te = split_series(s, 4, 2)
        assert (len(tr), len(va), len(te)) == (80, 10, 10)
        assert tr.values[0] == 0 and va.values[0] == 80 and te.values[0] == 90

    def test_floor_on_awkward_length(self):
        assert SplitSpec().boundaries(101) == (80, 90)
        assert SplitSpec().boundaries(99) == (79, 89)

    def test_segments_are_views(self):
        s = TimeSeries(id="r", values=np.arange(100.0))
        for seg in split_series(s, 4, 2):
            assert np.shares_memory(seg.values, s.values)

    def test_minimum_stated_in_error(self):
        s = TimeSeries(id="x", values=np.arange(59.0))
        with pytest.raises(InsufficientDataError, match="60"):
            split_series(s, 4, 2)

    def test_each_segment_admits_a_window_at_the_minimum(self):
        w, h = 13, 7
        s = TimeSeries(id="m", values=np.arange(float(10 * (w + h))))
        for seg in split_series(s, w, h):
            assert len(seg.values) >= w + h

    def test_segments_partition_in_order(self):
        s = TimeSeries(id="r", values=np.arange(237.0))
        tr, va, te = split_series(s, 4, 2)
        glued = np.concatenate([tr.values, va.values, te.values])
        assert np.array_equal(glued, s.values)

    def test_boundaries_match_exact_rational_floors(self):
        # the reference: floor(0.8 L) and floor(0.9 L) in exact arithmetic
        spec = SplitSpec()
        for L in range(20001):
            expected = (int(Fraction("0.8") * L), int(Fraction("0.9") * L))
            assert spec.boundaries(L) == expected, L


class TestReportInvariants:
    def test_mean_must_match_windows(self):
        wins = (WindowScore(0, 1.0), WindowScore(8, 3.0))
        with pytest.raises(ContractError, match="mean"):
            EvalReport(
                dataset="d", task="forecast", variant="zero_shot",
                window=16, horizon=4, stride=8, series_length=28,
                per_window=wins, mean_mse=1.9, persistence_mse=0.0,
                mean_baseline_mse=0.0,
            )

    def test_window_count_must_match_formula(self):
        wins = (WindowScore(0, 1.0),)
        with pytest.raises(ContractError, match="windows"):
            EvalReport(
                dataset="d", task="forecast", variant="zero_shot",
                window=16, horizon=4, stride=8, series_length=36,
                per_window=wins, mean_mse=1.0, persistence_mse=0.0,
                mean_baseline_mse=0.0,
            )

    def test_task_and_variant_vocabulary(self):
        wins = (WindowScore(0, 1.0),)
        kw = dict(
            window=16, horizon=4, stride=8, series_length=28, per_window=wins,
            mean_mse=1.0, persistence_mse=0.0, mean_baseline_mse=0.0,
        )
        with pytest.raises(ConfigError):
            EvalReport(dataset="d", task="predict", variant="zero_shot", **kw)
        with pytest.raises(ConfigError):
            EvalReport(dataset="d", task="forecast", variant="best", **kw)


class TestBaselines:
    def test_constant_series_scores_zero(self):
        s = TimeSeries(id="c", values=np.full(64, 3.25))
        rep = baseline_persistence(s, 16, 4, 8)
        assert rep.mean_mse == 0.0
        assert rep.persistence_mse == 0.0

    def test_constant_window_targets_are_half(self):
        # the normalization convention sends constant windows to 0.5
        s = TimeSeries(id="c", values=np.full(64, 3.25))
        rep = baseline_persistence(s, 16, 4, 8)
        assert rep.mean_baseline_mse == 0.0  # mean predicts 0.5 == target

    def test_ramp_closed_form(self):
        w, h, s_ = 16, 4, 8
        ramp = TimeSeries(id="ramp", values=np.arange(200.0))
        rep = baseline_persistence(ramp, w, h, s_)
        closed = (h + 1) * (2 * h + 1) / (6.0 * (w - 1) ** 2)
        assert rep.mean_mse == pytest.approx(closed, abs=1e-12)

    def test_cosine_full_period(self):
        # window ends on a peak; predicting the peak across one period gives
        # mean((cos - 1)^2)/4 = 3/8 after mapping [-1, 1] onto [0, 1]
        i = np.arange(8 * 40)
        cos = TimeSeries(id="cos", values=np.cos(2 * np.pi * i / 8))
        rep = baseline_persistence(cos, 17, 8, 8)
        assert rep.mean_mse == pytest.approx(0.375, abs=1e-9)

    def test_window_count_formula(self):
        s = TimeSeries(id="r", values=np.arange(200.0))
        rep = baseline_persistence(s, 16, 4, 8)
        assert rep.n_windows == (200 - 16 - 4) // 8 + 1


class TestZeroShot:
    def test_report_geometry_and_finiteness(self, model, series):
        rep = evaluate_zero_shot(model, series, "forecast", W, H, S)
        assert rep.n_windows == (len(series.values) - W - H) // S + 1
        assert np.isfinite(rep.mean_mse)
        assert rep.dataset == series.id
        assert rep.variant == "zero_shot"

    def test_no_parameter_mutation(self, model, series):
        before = {n: p.data.copy() for n, p in model.named_parameters().items()}
        sbefore = {
            n: (s.running_mean.copy(), s.running_var.copy())
            for n, s in model.named_running_stats().items()
        }
        evaluate_zero_shot(model, series, "forecast", W, H, S)
        for n, p in model.named_parameters().items():
            assert np.array_equal(before[n], p.data), n
        for n, s in model.named_running_stats().items():
            assert np.array_equal(sbefore[n][0], s.running_mean), n
            assert np.array_equal(sbefore[n][1], s.running_var), n

    def test_bitwise_deterministic(self, model, series):
        a = evaluate_zero_shot(model, series, "forecast", W, H, S)
        b = evaluate_zero_shot(model, series, "forecast", W, H, S)
        assert [w.mse for w in a.per_window] == [w.mse for w in b.per_window]

    def test_more_than_one_worker_is_rejected(self, model, series):
        with pytest.raises(ConfigError, match="workers"):
            evaluate_zero_shot(model, series, "forecast", W, H, S, workers=2)

    def test_single_blas_thread_matches_default_threading(self, model, series, tmp_path):
        # a subprocess pinned to one BLAS thread scores the same checkpoint
        # bitwise equal to this process
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        script = (
            "import json, sys\n"
            "from patchcast.eval import evaluate_zero_shot\n"
            "from patchcast.synth import PhenomenonSpec, generate_quantity\n"
            "from patchcast.train import load_checkpoint\n"
            "model, _ = load_checkpoint(sys.argv[1])\n"
            "spec = PhenomenonSpec('sinusoid_mixture', 30.0, 64.0,\n"
            "    {'amplitudes': [1.0, 0.4], 'frequencies_hz': [1.0, 5.0]}, seed=1)\n"
            "series = generate_quantity(spec)\n"
            "print(json.dumps([float(w.mse).hex() for w in evaluate_zero_shot(\n"
            f"    model, series, 'forecast', {W}, {H}, {S}).per_window]))\n"
        )
        src = str(Path(patchcast.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        proc = subprocess.run(
            [sys.executable, "-c", script, str(ckpt)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        pinned = json.loads(proc.stdout.strip().splitlines()[-1])
        rep = evaluate_zero_shot(model, series, "forecast", W, H, S)
        here = [float(w.mse).hex() for w in rep.per_window]
        assert len(here) > 1
        assert pinned == here

    def test_short_horizon_scores_prefix(self, model, series):
        rep = evaluate_zero_shot(model, series, "forecast", W, 8, S)
        assert np.isfinite(rep.mean_mse)

    def test_reconstruct_task(self, model, series):
        rep = evaluate_zero_shot(model, series, "reconstruct", W, H, S)
        assert rep.task == "reconstruct"
        assert np.isfinite(rep.mean_mse)

    def test_geometry_mismatch_errors(self, model, series):
        with pytest.raises(ConfigError, match="context"):
            evaluate_zero_shot(model, series, "forecast", 48, H, S)
        with pytest.raises(ConfigError, match="l_pred"):
            evaluate_zero_shot(model, series, "forecast", W, 32, S)
        with pytest.raises(ConfigError, match="task"):
            evaluate_zero_shot(model, series, "predict", W, H, S)

    def test_identity_oracle_scores_zero(self, model, series, monkeypatch):
        # harness self-test: a model that echoes its input must get MSE 0 on
        # reconstruction, exactly
        def echo_encode(inputs, m, mode="infer", taps=None):
            arr = np.asarray(inputs.data if hasattr(inputs, "data") else inputs)
            return None, _Echo(arr.reshape(arr.shape[0], -1))

        class _Echo:
            def __init__(self, data):
                self.data = data

        monkeypatch.setattr(eval_mod, "encode", echo_encode)
        monkeypatch.setattr(eval_mod, "decode_reconstruct", lambda z, params: z)
        rep = evaluate_zero_shot(model, series, "reconstruct", W, H, S)
        assert rep.mean_mse == 0.0

    def test_on_window_hook_runs_in_offset_order(self, model, series):
        seen = []
        evaluate_zero_shot(
            model, series, "forecast", W, H, S,
            on_window=lambda off, ctx, pred: seen.append(off),
        )
        assert seen == sorted(seen) and len(seen) > 1

    def test_persistence_fields_match_standalone_baseline(self, model, series):
        rep = evaluate_zero_shot(model, series, "forecast", W, H, S)
        base = baseline_persistence(series, W, H, S)
        assert rep.persistence_mse == pytest.approx(base.mean_mse, abs=1e-12)
        assert rep.mean_baseline_mse == pytest.approx(base.mean_baseline_mse, abs=1e-12)


def _with_weight(model, name, value):
    bad = clone_model(model)
    bad.named_parameters()[name].data.flat[0] = value
    return bad


class TestNonFiniteBoundary:
    """With the default settings a non-finite value is caught at the decoder's
    output; the per-op scans are an opt-in debug mode."""

    def test_nan_weight_raises_at_the_decoder(self, model, series):
        bad = _with_weight(model, "layers.0.attn.wq", np.nan)
        assert (len(series.values) - W - H) // S + 1 > eval_mod._SLAB  # two slabs
        with pytest.raises(NumericError, match="forecast decoder"):
            evaluate_zero_shot(bad, series, "forecast", W, H, S)

    def test_debug_checks_name_the_op(self, model, series):
        bad = _with_weight(model, "layers.0.attn.wq", np.nan)
        with debug_checks(True), pytest.raises(NumericError, match="output of linear"):
            evaluate_zero_shot(bad, series, "forecast", W, H, S)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    @pytest.mark.parametrize("task", ["forecast", "reconstruct"])
    def test_overflowing_weight_raises(self, model, series, task):
        bad = clone_model(model)
        bad.named_parameters()["patch_proj.w"].data[...] = 1e30
        with pytest.raises(NumericError, match=f"{task} decoder"):
            evaluate_zero_shot(bad, series, task, W, H, S)


def _reference_windows(model, series, task, window, horizon, stride):
    """The per-window loop evaluate_zero_shot replaced, kept as its bitwise
    reference: one (offset, context, lo, hi, prediction, model mse,
    persistence mse, window-mean mse) per window, the model fed in slabs of
    ``_SLAB`` windows as before."""
    def mse(pred, truth):
        return float(np.mean((np.asarray(pred, dtype=np.float64) - truth) ** 2, dtype=np.float64))

    prepared = []
    for span in sliding_windows(series, window, horizon, stride):
        v = series.values[span.context[0] : span.context[1]]
        t = series.values[span.target[0] : span.target[1]]
        lo, hi = float(v.min()), float(v.max())
        if hi > lo:
            ctx, target = (v - lo) / (hi - lo), (t - lo) / (hi - lo)
        else:
            ctx, target = np.full_like(v, 0.5), np.full_like(t, 0.5)
        truth = target if task == "forecast" else ctx.astype(np.float32).astype(np.float64)
        prepared.append((span.offset, ctx, lo, hi, truth))
    mc = model.config
    out = []
    for a in range(0, len(prepared), eval_mod._SLAB):
        slab = prepared[a : a + eval_mod._SLAB]
        inputs = np.stack([c.reshape(mc.n_patches, mc.l_patch) for _, c, _, _, _ in slab])
        _, z = encode(inputs.astype(np.float32), model, mode="infer")
        if task == "forecast":
            pred = decode_forecast(z, model.forecast).data[:, :horizon]
        else:
            pred = decode_reconstruct(z, model.reconstruct).data
        for i, (offset, ctx, lo, hi, truth) in enumerate(slab):
            last, mean = float(ctx[-1]), float(ctx.mean())
            out.append((
                offset, ctx, lo, hi, pred[i], mse(pred[i], truth),
                mse(np.full_like(truth, last), truth), mse(np.full_like(truth, mean), truth),
            ))
    return out


@pytest.fixture(scope="module")
def flat_stretch(series):
    # constant stretches longer than a window, so some contexts are constant
    v = series.values
    values = np.concatenate([v[:150], np.full(100, v[149]), v[150:250], np.full(90, -2.0)])
    return TimeSeries(id="flat-stretch", values=values)


class TestBlockScoringMatchesReference:
    @pytest.mark.parametrize("task", ["forecast", "reconstruct"])
    @pytest.mark.parametrize("horizon,stride", [(8, 1), (16, 5)])
    def test_evaluate_zero_shot_bitwise(self, model, flat_stretch, task, horizon, stride):
        hooked = []
        rep = evaluate_zero_shot(
            model, flat_stretch, task, W, horizon, stride,
            on_window=lambda off, ctx, pred: hooked.append((off, ctx, pred)),
        )
        ref = _reference_windows(model, flat_stretch, task, W, horizon, stride)
        assert any(r[2] == r[3] for r in ref)  # constant contexts are scored
        hx = lambda xs: [float(x).hex() for x in xs]
        assert [w.offset for w in rep.per_window] == [r[0] for r in ref]
        assert hx(w.mse for w in rep.per_window) == hx(r[5] for r in ref)
        assert hx([rep.mean_mse, rep.persistence_mse, rep.mean_baseline_mse]) == hx(
            np.mean([r[k] for r in ref], dtype=np.float64) for k in (5, 6, 7)
        )
        assert len(hooked) == len(ref)
        for (off, ctx, pred), r in zip(hooked, ref):
            assert isinstance(ctx, ContextWindow)
            assert off == r[0] == ctx.source_offset
            assert ctx.values.tobytes() == r[1].tobytes()
            assert (ctx.norm_min, ctx.norm_max) == (r[2], r[3])
            assert pred.tobytes() == np.ascontiguousarray(r[4]).tobytes()

    @pytest.mark.parametrize("task", ["forecast", "reconstruct"])
    @pytest.mark.parametrize("horizon,stride", [(8, 1), (16, 5)])
    def test_baseline_persistence_bitwise(self, model, flat_stretch, task, horizon, stride):
        rep = baseline_persistence(flat_stretch, W, horizon, stride, task=task)
        ref = _reference_windows(model, flat_stretch, task, W, horizon, stride)
        hx = lambda xs: [float(x).hex() for x in xs]
        assert [w.offset for w in rep.per_window] == [r[0] for r in ref]
        assert hx(w.mse for w in rep.per_window) == hx(r[6] for r in ref)
        assert hx([rep.mean_mse, rep.mean_baseline_mse]) == hx(
            np.mean([r[k] for r in ref], dtype=np.float64) for k in (6, 7)
        )


class TestSnapshotSelection:
    def test_picks_lowest_validation_mse(self, model, series):
        from patchcast.train import clone_model, finetune

        twin = clone_model(model)
        result = finetune(
            twin,
            series,
            TrainConfig(steps=10, batch_size=4, seed=1, eval_every=5,
                        target_mode="finetune_forecast"),
        )
        _, val_seg, _ = split_series(series, W, H)
        step, best = select_best_snapshot(twin, result, val_seg, "forecast", W, H, S)
        assert step in [s for s, _ in result.snapshots]
        # winner really is the minimum: rescore every snapshot by hand
        from patchcast.train import restore_snapshot

        scores = {}
        for s_, snap in result.snapshots:
            restore_snapshot(twin, snap)
            scores[s_] = evaluate_zero_shot(twin, val_seg, "forecast", W, H, S).mean_mse
        assert best == min(scores.values())
        assert scores[step] == best


@pytest.fixture(scope="module")
def drift():
    spec = PhenomenonSpec(
        "trended_random_walk", 20.0, 64.0, {"drift_per_s": 0.05, "step_std": 0.02}, seed=9
    )
    return generate_quantity(spec)


@pytest.fixture(scope="module")
def compare_result(model, drift):
    return three_way_compare(
        model, drift, "forecast", W, H, 16,
        TrainConfig(steps=20, batch_size=4, seed=5, eval_every=10),
    )


class TestThreeWay:
    def test_three_reports_identical_counts(self, compare_result):
        assert set(compare_result.reports) == {"zero_shot", "fine_tuned", "target_trained"}
        counts = {r.n_windows for r in compare_result.reports.values()}
        assert len(counts) == 1

    def test_reports_scored_on_test_segment_only(self, compare_result, drift):
        test_len = len(drift.values) - SplitSpec().boundaries(len(drift.values))[1]
        for rep in compare_result.reports.values():
            assert rep.series_length == test_len
            assert rep.dataset.endswith("/test")

    def test_summary_percentages_match_hand_arithmetic(self, compare_result):
        s = compare_result.summary
        assert percent_delta(2.0, 1.0) == pytest.approx(50.0)
        expect = (s.zero_shot_mse - s.fine_tuned_mse) / s.zero_shot_mse * 100.0
        line = [l for l in s.lines() if l.startswith("fine_tuned") and "zero_shot" in l][0]
        assert f"{abs(expect):.1f}%" in line
        assert ("lower" if expect >= 0 else "higher") in line

    def test_source_model_untouched(self, model, drift):
        before = {n: p.data.copy() for n, p in model.named_parameters().items()}
        three_way_compare(
            model, drift, "forecast", W, H, 32,
            TrainConfig(steps=4, batch_size=4, seed=5, eval_every=2),
        )
        for n, p in model.named_parameters().items():
            assert np.array_equal(before[n], p.data), n

    def test_failing_leg_carries_partials(self, model, drift, monkeypatch):
        calls = {"n": 0}
        real = eval_mod.finetune

        def boom(*a, **kw):
            raise ConfigError("synthetic failure")

        monkeypatch.setattr(eval_mod, "finetune", boom)
        with pytest.raises(CompareError) as info:
            three_way_compare(
                model, drift, "forecast", W, H, 32,
                TrainConfig(steps=4, batch_size=4, seed=5, eval_every=2),
            )
        assert "fine-tuned" in str(info.value)
        assert set(info.value.partial) == {"zero_shot"}

    def test_target_too_short_rejected(self, model):
        s = TimeSeries(id="short", values=np.arange(500.0))
        with pytest.raises(InsufficientDataError):
            three_way_compare(
                model, s, "forecast", W, H, S,
                TrainConfig(steps=2, batch_size=2, seed=5),
            )


class TestCsv:
    def test_summary_layout(self, model, series, tmp_path):
        rep = evaluate_zero_shot(model, series, "forecast", W, H, S)
        path = tmp_path / "summary.csv"
        write_report_summary(path, [rep])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "dataset,task,variant,windows,mean_mse,persistence_mse,mean_baseline_mse"
        cells = lines[1].split(",")
        assert cells[0] == series.id and cells[1] == "forecast" and cells[2] == "zero_shot"
        assert int(cells[3]) == rep.n_windows
        assert float(cells[4]) == rep.mean_mse

    def test_summary_quotes_comma_in_dataset_id(self, model, series, tmp_path):
        rep = replace(evaluate_zero_shot(model, series, "forecast", W, H, S), dataset="run,1")
        path = tmp_path / "summary.csv"
        write_report_summary(path, [rep])
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [7, 7]
        assert rows[1][0] == "run,1"

    def test_window_csv_roundtrip(self, model, series, tmp_path):
        rep = evaluate_zero_shot(model, series, "forecast", W, H, S)
        path = tmp_path / "windows.csv"
        write_window_csv(path, rep)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "offset,mse"
        assert len(lines) - 1 == rep.n_windows
        off, mse = lines[1].split(",")
        assert int(off) == rep.per_window[0].offset
        assert float(mse) == rep.per_window[0].mse
