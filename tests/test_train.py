"""Training loops, freezing, divergence policy, and the checkpoint format."""

import hashlib
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import patchcast
import patchcast.train as train_mod
from patchcast.data import TimeSeries, make_batch
from patchcast.errors import (
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
    NumericError,
    TrainingDiverged,
)
from patchcast.eval import split_series
from patchcast.model import (
    ModelConfig,
    decode_forecast,
    decode_reconstruct,
    encode,
    init_params,
    param_spec,
    stat_spec,
)
from patchcast.numerics import (
    AdamWConfig,
    AdamWState,
    Tape,
    Tensor,
    adamw_step,
    add,
    backward,
    debug_checks,
    grad_check,
    mse,
    scale,
    zero_grads,
)
from patchcast.selfcheck import clear_relu_kinks, dual_loss_setup
from patchcast.synth import PhenomenonSpec, generate_quantity
from patchcast.train import (
    Snapshot,
    TrainConfig,
    clone_model,
    finetune,
    load_checkpoint,
    pretrain,
    restore_snapshot,
    save_checkpoint,
    target_train,
    write_curve_csv,
)

SMALL = dict(l_patch=8, n_patches=8, d_model=16, n_layers=2, n_heads=2, d_ff=24, l_pred=16)


def small_config(**kw):
    return ModelConfig(**{**SMALL, **kw})


@pytest.fixture(scope="module")
def pool():
    spec = PhenomenonSpec(
        "sinusoid_mixture",
        30.0,
        64.0,
        {"amplitudes": [1.0, 0.4], "frequencies_hz": [1.0, 5.0]},
        seed=1,
    )
    return [generate_quantity(spec)]


@pytest.fixture(scope="module")
def target():
    # long enough for an 80/10/10 split at W=64, H=16: 10*(64+16) = 800
    spec = PhenomenonSpec(
        "trended_random_walk", 20.0, 64.0, {"drift_per_s": 0.05, "step_std": 0.02}, seed=9
    )
    return generate_quantity(spec)


def params_of(model):
    return {n: p.data.copy() for n, p in model.named_parameters().items()}


def stats_of(model):
    return {
        n: (s.running_mean.copy(), s.running_var.copy())
        for n, s in model.named_running_stats().items()
    }


class TestConfig:
    def test_rejects_nonpositive_counts(self):
        for kw in (dict(steps=0), dict(batch_size=0), dict(eval_every=0)):
            with pytest.raises(ConfigError):
                TrainConfig(**kw)

    def test_rejects_negative_lr_but_allows_zero(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1e-3)
        TrainConfig(lr=0.0)

    def test_loss_weight_band(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss_weight_forecast=1.5)
        assert TrainConfig(loss_weight_forecast=0.6).loss_weight_reconstruct == pytest.approx(0.4)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            TrainConfig(target_mode="zero_shot")

    def test_mode_guards_on_entry_points(self, pool, target):
        cfg = small_config()
        with pytest.raises(ConfigError):
            pretrain(pool, cfg, TrainConfig(steps=1, target_mode="target_train"))
        with pytest.raises(ConfigError):
            finetune(init_params(cfg), target, TrainConfig(steps=1))
        with pytest.raises(ConfigError):
            target_train(target, cfg, TrainConfig(steps=1))


class TestLoop:
    def test_loss_is_weighted_sum_of_heads(self, pool):
        res = pretrain(pool, small_config(), TrainConfig(steps=25, batch_size=4, seed=3))
        worst = max(
            abs(r.total - (0.6 * r.forecast_mse + 0.4 * r.reconstruct_mse)) for r in res.curve
        )
        assert worst <= 1e-6
        assert [r.step for r in res.curve] == list(range(25))

    def test_custom_weights_respected(self, pool):
        res = pretrain(
            pool,
            small_config(),
            TrainConfig(steps=5, batch_size=4, seed=3, loss_weight_forecast=0.25),
        )
        for r in res.curve:
            assert r.total == pytest.approx(0.25 * r.forecast_mse + 0.75 * r.reconstruct_mse, abs=1e-6)

    def test_deterministic_given_seed(self, pool):
        cfg = TrainConfig(steps=12, batch_size=4, seed=11)
        a = pretrain(pool, small_config(), cfg)
        b = pretrain(pool, small_config(), cfg)
        assert [r.total for r in a.curve] == [r.total for r in b.curve]
        for (n, p), q in zip(a.model.named_parameters().items(), b.model.named_parameters().values()):
            assert np.array_equal(p.data, q.data), n

    def test_seed_changes_trajectory(self, pool):
        a = pretrain(pool, small_config(), TrainConfig(steps=8, batch_size=4, seed=1))
        b = pretrain(pool, small_config(), TrainConfig(steps=8, batch_size=4, seed=2))
        assert [r.total for r in a.curve] != [r.total for r in b.curve]

    def test_zero_lr_is_bitwise_noop(self, pool):
        res = pretrain(pool, small_config(), TrainConfig(steps=6, batch_size=4, lr=0.0, seed=3))
        fresh = init_params(small_config())
        for (n, p), q in zip(
            res.model.named_parameters().items(), fresh.named_parameters().values()
        ):
            assert np.array_equal(p.data, q.data), n

    def test_loss_decreases_on_easy_signal(self, pool):
        res = pretrain(pool, small_config(), TrainConfig(steps=150, batch_size=8, seed=3))
        first = np.mean([r.total for r in res.curve[:10]])
        last = np.mean([r.total for r in res.curve[-10:]])
        assert last < first

    def test_snapshot_cadence_and_restore(self, target):
        cfg = TrainConfig(steps=25, batch_size=4, seed=3, eval_every=10, target_mode="target_train")
        res = target_train(target, small_config(), cfg)
        assert [s for s, _ in res.snapshots] == [9, 19, 24]
        step9, final = dict(res.snapshots)[9], dict(res.snapshots)[24]
        # the whole arena trains, and the running statistics ride along
        assert step9.offset == 0 and step9.params.shape == res.model.arena.shape
        assert step9.stats.shape == res.model.stats.shape
        assert not np.array_equal(step9.params, final.params)
        assert not np.array_equal(step9.stats, final.stats)
        restore_snapshot(res.model, step9)
        assert res.model.arena.tobytes() == step9.params.tobytes()
        assert res.model.stats.tobytes() == step9.stats.tobytes()

    def test_pretraining_keeps_no_snapshots(self, pool):
        res = pretrain(pool, small_config(), TrainConfig(steps=4, batch_size=4, seed=3, eval_every=1))
        assert res.snapshots == []

    @pytest.mark.parametrize("mode", ["finetune_forecast", "finetune_reconstruct"])
    def test_finetune_snapshot_is_the_head_slice(self, pool, target, mode):
        base = pretrain(pool, small_config(), TrainConfig(steps=3, batch_size=4, seed=3)).model
        cfg = TrainConfig(steps=4, batch_size=4, seed=1, eval_every=2, target_mode=mode)
        res = finetune(clone_model(base), target, cfg)
        (_, first), (_, last) = res.snapshots
        head = mode.removeprefix("finetune_")
        views = [p.data for n, p in res.model.named_parameters().items() if n.startswith(f"dec_{head}.")]
        lo = (views[0].ctypes.data - res.model.arena.ctypes.data) // res.model.arena.itemsize
        assert first.offset == lo and first.params.size == sum(v.size for v in views)
        assert res.model.arena[lo : lo + last.params.size].tobytes() == last.params.tobytes()
        restore_snapshot(res.model, first)
        assert res.model.arena[:lo].tobytes() == base.arena[:lo].tobytes()
        assert res.model.arena[lo : lo + first.params.size].tobytes() == first.params.tobytes()
        assert res.model.stats.tobytes() == base.stats.tobytes()

    def test_restore_rejects_mismatched_snapshot(self):
        model = init_params(small_config())
        arena, stats = model.arena.copy(), model.stats.copy()
        n, k = model.arena.size, model.stats.size
        for bad in (
            Snapshot(0, np.zeros(n + 1, np.float32), np.zeros(k, np.float32)),
            Snapshot(1, np.zeros(n, np.float32), np.zeros(k, np.float32)),
            Snapshot(-1, np.zeros(3, np.float32), np.zeros(k, np.float32)),
            Snapshot(0, np.zeros(n, np.float32), np.zeros(k - 1, np.float32)),
        ):
            with pytest.raises(ConfigError, match="does not fit"):
                restore_snapshot(model, bad)
        # a refused snapshot writes nothing
        assert model.arena.tobytes() == arena.tobytes() and model.stats.tobytes() == stats.tobytes()

    def test_pretraining_memory_does_not_grow_with_its_length(self, pool):
        def peak(steps):
            tracemalloc.start()
            try:
                pretrain(pool, small_config(), TrainConfig(steps=steps, batch_size=4, seed=3, eval_every=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm the per-config caches outside the measurement
        arena_bytes = init_params(small_config()).arena.nbytes
        assert peak(16) - peak(4) < 2 * arena_bytes

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_is_reported_with_salvage(self, pool):
        with pytest.raises(TrainingDiverged) as info:
            pretrain(pool, small_config(), TrainConfig(steps=60, batch_size=4, lr=1e12, seed=3))
        exc = info.value
        assert 0 < exc.step < 60
        assert len(exc.curve) == exc.step
        assert all(np.isfinite(r.total) for r in exc.curve)

    def test_nan_gradient_stops_the_step_before_any_write(self, pool, monkeypatch):
        built, before = [], []
        real_init, real_backward, real_step = (
            train_mod.init_params, train_mod.backward, train_mod.adamw_step
        )

        def poisoned_backward(tape, loss):
            real_backward(tape, loss)
            if len(before) == 2:  # the third step
                p = built[0].named_parameters()["layers.1.ff.w1"]
                p.grad = p.grad.copy()
                p.grad[0, 0] = np.nan

        def recording_step(params, state):
            before.append((state, state.step, state.flat.copy(), state.m.copy(), state.v.copy()))
            real_step(params, state)

        monkeypatch.setattr(
            train_mod, "init_params", lambda *a, **kw: built.append(real_init(*a, **kw)) or built[-1]
        )
        monkeypatch.setattr(train_mod, "backward", poisoned_backward)
        monkeypatch.setattr(train_mod, "adamw_step", recording_step)
        with pytest.raises(TrainingDiverged, match="layers.1.ff.w1") as info:
            pretrain(pool, small_config(), TrainConfig(steps=5, batch_size=4, seed=3))
        assert info.value.step == 2 and len(info.value.curve) == 2
        assert isinstance(info.value.__cause__, NumericError)
        state, step, flat, m, v = before[2]
        assert state.step == step == 2
        for live, copy in ((built[0].arena, flat), (state.m, m), (state.v, v)):
            assert np.array_equal(live.view(np.uint8), copy.view(np.uint8))


def reference_finetune(model, target, cfg):
    """The finetune loop with the frozen encoder recorded on the tape.

    Returns the curve as (step, total, forecast_mse, reconstruct_mse) tuples;
    the head parameters are trained in place.
    """
    head = "forecast" if cfg.target_mode.endswith("forecast") else "reconstruct"
    mc = model.config
    train_seg, _, _ = split_series(target, mc.context_length, mc.l_pred)
    trainable = {
        n: p for n, p in model.named_parameters().items() if n.startswith(f"dec_{head}.")
    }
    opt = AdamWState.initial(trainable, AdamWConfig(lr=cfg.lr, weight_decay=cfg.weight_decay))
    rng = np.random.default_rng(cfg.seed)
    curve = []
    for step in range(cfg.steps):
        batch = make_batch([train_seg], cfg.batch_size, mc.context_length, mc.l_pred, mc.l_patch, rng)
        with Tape() as tape:
            _, z = encode(Tensor(batch.inputs), model, mode="infer")
            f_loss = mse(decode_forecast(z, model.forecast), Tensor(batch.forecast_targets))
            r_loss = mse(
                decode_reconstruct(z, model.reconstruct), Tensor(batch.reconstruction_targets)
            )
            total = f_loss if head == "forecast" else r_loss
            backward(tape, total)
        adamw_step(trainable, opt)
        zero_grads(trainable)
        curve.append((step, total.item(), f_loss.item(), r_loss.item()))
    return curve


class TestFreeze:
    def test_finetune_moves_only_forecast_head(self, pool, target):
        res = pretrain(pool, small_config(), TrainConfig(steps=10, batch_size=4, seed=3))
        model = res.model
        before, sbefore = params_of(model), stats_of(model)
        finetune(
            model,
            target,
            TrainConfig(steps=8, batch_size=4, seed=1, target_mode="finetune_forecast"),
        )
        for n, p in model.named_parameters().items():
            if n.startswith("dec_forecast"):
                continue
            assert np.array_equal(before[n], p.data), f"{n} moved under freeze"
        for n, s in model.named_running_stats().items():
            assert np.array_equal(sbefore[n][0], s.running_mean), n
            assert np.array_equal(sbefore[n][1], s.running_var), n
        moved = [
            n
            for n, p in model.named_parameters().items()
            if n.startswith("dec_forecast") and not np.array_equal(before[n], p.data)
        ]
        assert moved
        for n, p in model.named_parameters().items():
            if not n.startswith("dec_forecast"):
                assert p.grad is None, f"{n} holds a gradient under freeze"

    def test_finetune_reconstruct_leaves_forecast_head(self, pool, target):
        model = pretrain(pool, small_config(), TrainConfig(steps=5, batch_size=4, seed=3)).model
        before = params_of(model)
        finetune(
            model,
            target,
            TrainConfig(steps=6, batch_size=4, seed=1, target_mode="finetune_reconstruct"),
        )
        for n, p in model.named_parameters().items():
            if not n.startswith("dec_reconstruct"):
                assert np.array_equal(before[n], p.data), n
                assert p.grad is None, f"{n} holds a gradient under freeze"

    def test_finetune_curve_uses_single_head(self, pool, target):
        model = pretrain(pool, small_config(), TrainConfig(steps=5, batch_size=4, seed=3)).model
        res = finetune(
            model,
            target,
            TrainConfig(steps=6, batch_size=4, seed=1, target_mode="finetune_forecast"),
        )
        for r in res.curve:
            assert r.total == r.forecast_mse

    @pytest.mark.parametrize("leg", ["finetune", "target_train"])
    def test_training_never_reads_most_recent_tenth(self, pool, target, leg):
        # two targets identical except in the final 10%: training must match bitwise
        altered = np.array(target.values)
        cut = len(altered) * 9 // 10
        altered[cut:] = 1e6
        twin = TimeSeries(id=target.id, values=altered, sampling_rate_hz=target.sampling_rate_hz)
        if leg == "finetune":
            base = pretrain(pool, small_config(), TrainConfig(steps=5, batch_size=4, seed=3)).model
            cfg = TrainConfig(steps=8, batch_size=4, seed=1, target_mode="finetune_forecast")
            a = finetune(clone_model(base), target, cfg)
            b = finetune(clone_model(base), twin, cfg)
        else:
            cfg = TrainConfig(steps=8, batch_size=4, seed=1, target_mode="target_train")
            a = target_train(target, small_config(), cfg)
            b = target_train(twin, small_config(), cfg)
        assert [r.total for r in a.curve] == [r.total for r in b.curve]
        for (n, p), q in zip(
            a.model.named_parameters().items(), b.model.named_parameters().values()
        ):
            assert np.array_equal(p.data, q.data), n

    @pytest.mark.parametrize("mode", ["finetune_forecast", "finetune_reconstruct"])
    def test_off_tape_encoder_matches_taped_reference(self, pool, target, mode):
        base = pretrain(pool, small_config(), TrainConfig(steps=5, batch_size=4, seed=3)).model
        cfg = TrainConfig(steps=8, batch_size=4, seed=1, target_mode=mode)
        ref_model = clone_model(base)
        ref_curve = reference_finetune(ref_model, target, cfg)
        res = finetune(clone_model(base), target, cfg)
        assert [(r.step, r.total, r.forecast_mse, r.reconstruct_mse) for r in res.curve] == ref_curve
        for (n, p), q in zip(
            res.model.named_parameters().items(), ref_model.named_parameters().values()
        ):
            assert np.array_equal(p.data, q.data), n

    def test_nan_in_frozen_encoder_diverges_at_step_zero(self, pool, target):
        model = pretrain(pool, small_config(), TrainConfig(steps=5, batch_size=4, seed=3)).model
        model.named_parameters()["layers.0.attn.wq"].data[0, 0] = np.nan
        cfg = TrainConfig(steps=4, batch_size=4, seed=1, target_mode="finetune_forecast")
        with pytest.raises(TrainingDiverged) as info:
            finetune(model, target, cfg)
        assert info.value.step == 0
        assert isinstance(info.value.__cause__, NumericError)

    def test_nan_in_frozen_encoder_diverges_with_debug_checks_off(self, pool, target):
        # with no per-op scans, the NaN must still reach the loss through ReLU
        model = pretrain(pool, small_config(), TrainConfig(steps=5, batch_size=4, seed=3)).model
        model.named_parameters()["layers.0.attn.wq"].data[0, 0] = np.nan
        cfg = TrainConfig(steps=4, batch_size=4, seed=1, target_mode="finetune_forecast")
        with debug_checks(False), pytest.raises(TrainingDiverged) as info:
            finetune(model, target, cfg)
        assert info.value.step == 0

    def test_clone_is_bitwise_and_independent(self, pool):
        model = pretrain(pool, small_config(), TrainConfig(steps=5, batch_size=4, seed=3)).model
        twin = clone_model(model)
        for (n, p), q in zip(model.named_parameters().items(), twin.named_parameters().values()):
            assert np.array_equal(p.data, q.data), n
        twin.forecast.w2.data[0, 0] += 1.0
        assert model.forecast.w2.data[0, 0] != twin.forecast.w2.data[0, 0]


class TestTapeCensus:
    @pytest.fixture
    def tapes(self, monkeypatch):
        seen = []

        class RecordingTape(Tape):
            def __init__(self):
                super().__init__()
                seen.append(self)

        monkeypatch.setattr(train_mod, "Tape", RecordingTape)
        return seen

    @staticmethod
    def ops_of(tape):
        ops = {}
        for rec in tape.records:
            ops[rec.op] = ops.get(rec.op, 0) + 1
        return ops

    def test_pretrain_step_records_one_linear_per_projection(self, pool, tapes):
        n_layers = SMALL["n_layers"]
        pretrain(pool, small_config(), TrainConfig(steps=1, batch_size=4, seed=3))
        (tape,) = tapes
        ops = self.ops_of(tape)
        # q/k/v, then the two residual sublayers and the feedforward hidden layer
        assert ops["linear"] == 3 * n_layers + 3
        assert ops["residual"] == 2 * n_layers
        assert ops["linear_relu"] == n_layers + 2
        assert not {"reshape", "matmul", "relu", "batch_norm"} & set(ops)
        assert ops["add"] == 2  # pos_emb and the loss
        assert len(tape) == 7 * n_layers + 15

    def test_finetune_step_records_heads_and_losses_only(self, pool, target, tapes):
        model = pretrain(pool, small_config(), TrainConfig(steps=1, batch_size=4, seed=3)).model
        tapes.clear()
        finetune(
            model, target, TrainConfig(steps=1, batch_size=4, seed=1, target_mode="finetune_forecast")
        )
        (tape,) = tapes
        # the trained head only: layer_norm, linear_relu, linear, mse
        assert len(tape) == 4
        assert self.ops_of(tape)["linear"] == 1


def _held_arrays(tape) -> list:
    """Every array the tape keeps reachable: record outputs and rule closures."""
    arrays, seen = [], set()

    def walk(obj):
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, tuple):
            for item in obj:
                walk(item)
        elif callable(obj) and getattr(obj, "__closure__", None) and id(obj) not in seen:
            seen.add(id(obj))  # a rule may close over the rules it composes
            for cell in obj.__closure__:
                walk(cell.cell_contents)

    for rec in tape.records:
        arrays.append(rec.output.data)
        walk(rec.backward_fn)
    return arrays


class TestTapeRetention:
    def test_tape_holds_no_pre_activation_and_its_bytes_are_pinned(self):
        model = init_params(small_config(), dtype=np.float32)
        rng = np.random.default_rng(0)
        cfg = model.config
        x = rng.random((4, cfg.n_patches, cfg.l_patch)).astype(np.float32)
        taps: dict = {}
        with Tape() as tape:
            _, z = encode(x, model, mode="train", taps=taps)
            forecast = decode_forecast(z, model.forecast)
            f_loss = mse(forecast, Tensor(np.zeros(forecast.shape, np.float32)))
            r_loss = mse(decode_reconstruct(z, model.reconstruct), Tensor(x.reshape(4, -1)))
            loss = add(scale(f_loss, 0.5), scale(r_loss, 0.5))
        held = _held_arrays(tape)
        preacts = [taps[f"layers.{i}.ff.preact"].data for i in range(cfg.n_layers)]
        for pre in preacts:
            assert not any(np.shares_memory(a, pre) for a in held)
        # distinct buffers behind the held arrays, parameters and statistics aside
        buffers = {}
        for a in held:
            while isinstance(a.base, np.ndarray):
                a = a.base
            if a is not model.arena and a is not model.stats:
                buffers[id(a)] = a
        assert len(tape) == 7 * cfg.n_layers + 15
        assert (len(buffers), sum(a.nbytes for a in buffers.values())) == (46, 61556)
        backward(tape, loss)  # the walk left the tape whole


# Small enough to run in seconds, big enough that the feedforward and head
# GEMMs (over 500k multiply-adds each) pass the size below which OpenBLAS
# stays on one thread.
THREADED_CFG = """\
model.l_patch = 16
model.n_patches = 16
model.d_model = 32
model.n_layers = 2
model.n_heads = 2
model.d_ff = 64
model.l_pred = 32
train.steps = 20
train.batch_size = 16
synth.variants_per_entry = 1
"""


def test_pretrain_is_bitwise_across_blas_threads(tmp_path):
    cfg = tmp_path / "threaded.cfg"
    cfg.write_text(THREADED_CFG, encoding="utf-8")
    src = str(Path(patchcast.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = {}
    for threads in ("1", "2", None):
        env = base if threads is None else {**base, "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "patchcast.cli", "pretrain", "--config", str(cfg),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests[threads] = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("checkpoint.omg", "curve.csv")
        )
    assert digests["1"] == digests["2"] == digests[None]


TARGET_EVERY_2 = TrainConfig(steps=4, batch_size=4, seed=3, eval_every=2, target_mode="target_train")


def assert_tiles_arena(model):
    """Every parameter is a view of the model's arena, back to back in spec order."""
    arena, params = model.arena, model.named_parameters()
    assert list(params) == [name for name, _, _ in param_spec(model.config)]
    offset = 0
    for name, p in params.items():
        assert p.data.base is arena, name
        assert p.data.flags.c_contiguous, name
        assert p.data.ctypes.data == arena.ctypes.data + offset * arena.itemsize, name
        offset += p.data.size
    assert offset == arena.size


class TestArena:
    @pytest.fixture(scope="class")
    def base(self, pool):
        return pretrain(pool, small_config(), TrainConfig(steps=5, batch_size=4, seed=3)).model

    @pytest.mark.parametrize(
        "made_by", ["init", "load", "clone", "pretrain", "finetune", "restore", "selfcheck"]
    )
    def test_parameters_tile_the_arena(self, base, target, tmp_path, made_by):
        if made_by == "init":
            model = init_params(small_config())
        elif made_by == "load":
            save_checkpoint(base, tmp_path / "m.omg")
            model, _ = load_checkpoint(tmp_path / "m.omg")
        elif made_by == "clone":
            model = clone_model(base)
        elif made_by == "pretrain":
            model = base
        elif made_by == "finetune":
            cfg = TrainConfig(steps=3, batch_size=4, seed=1, target_mode="finetune_reconstruct")
            model = finetune(clone_model(base), target, cfg).model
        elif made_by == "restore":
            res = target_train(target, small_config(), TARGET_EVERY_2)
            restore_snapshot(res.model, res.snapshots[0][1])
            model = res.model
        else:
            model, forward = dual_loss_setup("batch", "train")
            clear_relu_kinks(model, lambda: forward()[1])
            grad_check(lambda: forward()[0], model.named_parameters())
        assert_tiles_arena(model)

    def test_copies_share_no_memory_with_the_source(self, base, target, tmp_path):
        save_checkpoint(base, tmp_path / "m.omg")
        loaded, _ = load_checkpoint(tmp_path / "m.omg")
        for copy in (clone_model(base), loaded):
            assert not np.shares_memory(copy.arena, base.arena)
            for name, st in copy.named_running_stats().items():
                src = base.named_running_stats()[name]
                assert not np.shares_memory(st.running_mean, src.running_mean), name
                assert not np.shares_memory(st.running_var, src.running_var), name

        res = target_train(target, small_config(), TARGET_EVERY_2)
        (_, first), (_, second) = res.snapshots
        for copy in (first.params, first.stats):
            assert not any(np.shares_memory(copy, a) for a in (res.model.arena, res.model.stats))
            assert not any(np.shares_memory(copy, a) for a in (second.params, second.stats))

    def test_clone_and_snapshot_restore_bitwise(self, target):
        res = target_train(target, small_config(), TARGET_EVERY_2)
        model = res.model
        twin = clone_model(model)
        for copy, src in ((twin.arena, model.arena), (twin.stats, model.stats)):
            assert not np.shares_memory(copy, src)
            assert copy.tobytes() == src.tobytes()
        _, snap = res.snapshots[0]
        model.arena.fill(np.nan)
        model.stats.fill(np.nan)
        restore_snapshot(model, snap)
        assert model.arena.tobytes() == snap.params.tobytes()
        assert model.stats.tobytes() == snap.stats.tobytes()


class TestCurveCsv:
    def test_roundtrip_exact(self, pool, tmp_path):
        res = pretrain(pool, small_config(), TrainConfig(steps=4, batch_size=4, seed=3))
        path = tmp_path / "curve.csv"
        write_curve_csv(path, res.curve)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,total,forecast_mse,reconstruct_mse"
        for rec, line in zip(res.curve, lines[1:]):
            step, total, f, r = line.split(",")
            assert int(step) == rec.step
            assert float(total) == rec.total
            assert float(f) == rec.forecast_mse
            assert float(r) == rec.reconstruct_mse


# ---------------------------------------------------------------------------
# checkpoint format


def reference_bytes(model, step):
    """Independent serializer mirroring the pinned layout, for format pinning."""
    out = bytearray()
    out += b"OMGA"
    out += struct.pack("<I", 1)
    config_block = "".join(f"{k}={v}\n" for k, v in model.config.to_dict().items()).encode()
    out += struct.pack("<I", len(config_block)) + config_block
    tensors = {n: p.data for n, p in model.named_parameters().items()}
    for n, s in model.named_running_stats().items():
        tensors[n + ".running_mean"] = s.running_mean
        tensors[n + ".running_var"] = s.running_var
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        enc = name.encode()
        out += struct.pack("<H", len(enc)) + enc
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    out += struct.pack("<Q", step)
    return bytes(out)


@pytest.fixture(scope="module")
def trained(pool):
    res = pretrain(pool, small_config(), TrainConfig(steps=10, batch_size=4, seed=3))
    return res.model


class TestCheckpoint:
    @pytest.fixture()
    def saved(self, trained, tmp_path):
        path = tmp_path / "model.omg"
        save_checkpoint(trained, path, step=10)
        return path

    def test_bytes_match_reference_layout(self, trained, saved):
        assert saved.read_bytes() == reference_bytes(trained, 10)

    def test_roundtrip_bitwise(self, trained, saved):
        loaded, step = load_checkpoint(saved)
        assert step == 10
        assert loaded.config == trained.config
        for (n, p), q in zip(
            trained.named_parameters().items(), loaded.named_parameters().values()
        ):
            assert np.array_equal(p.data, q.data), n
        for (n, a), b in zip(
            trained.named_running_stats().items(), loaded.named_running_stats().values()
        ):
            assert np.array_equal(a.running_mean, b.running_mean), n
            assert np.array_equal(a.running_var, b.running_var), n

    def test_roundtrip_preserves_behaviour(self, trained, saved):
        loaded, _ = load_checkpoint(saved)
        x = np.random.default_rng(5).normal(size=(8, 8)).astype(np.float32)
        _, z1 = encode(x, trained, mode="infer")
        _, z2 = encode(x, loaded, mode="infer")
        assert np.array_equal(
            decode_forecast(z1, trained.forecast).data, decode_forecast(z2, loaded.forecast).data
        )

    def test_failed_save_keeps_previous_checkpoint(self, trained, saved):
        # a file-size limit below the checkpoint's size makes the write fail part-way
        resource = pytest.importorskip("resource")
        signal = pytest.importorskip("signal")
        blob = saved.read_bytes()
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        prev_handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        try:
            resource.setrlimit(resource.RLIMIT_FSIZE, (len(blob) // 2, hard))
            with pytest.raises(OSError):
                save_checkpoint(trained, saved, step=11)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, prev_handler)
        assert saved.read_bytes() == blob
        _, step = load_checkpoint(saved)
        assert step == 10
        assert sorted(p.name for p in saved.parent.iterdir()) == [saved.name]

    def test_bad_magic(self, saved, tmp_path):
        bad = tmp_path / "bad.omg"
        bad.write_bytes(b"XYZW" + saved.read_bytes()[4:])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(bad)

    def test_unsupported_version(self, saved, tmp_path):
        blob = saved.read_bytes()
        bad = tmp_path / "bad.omg"
        bad.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9, 0.999])
    def test_truncation_at_any_depth(self, saved, tmp_path, frac):
        blob = saved.read_bytes()
        bad = tmp_path / "bad.omg"
        bad.write_bytes(blob[: int(len(blob) * frac)])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(bad)

    def test_trailing_bytes_rejected(self, saved, tmp_path):
        bad = tmp_path / "bad.omg"
        bad.write_bytes(saved.read_bytes() + b"\x00")
        with pytest.raises(CheckpointCorruptError, match="trailing"):
            load_checkpoint(bad)

    def test_garbled_config_rejected(self, trained, tmp_path):
        blob = bytearray(reference_bytes(trained, 0))
        # config block starts at byte 12; wreck its first line
        blob[12:17] = b"?????"
        bad = tmp_path / "bad.omg"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(bad)

    def test_oversized_config_length_rejected(self, saved, tmp_path):
        blob = saved.read_bytes()
        bad = tmp_path / "bad.omg"
        bad.write_bytes(blob[:8] + struct.pack("<I", 0xFFFFFFFF) + blob[12:])
        with pytest.raises(CheckpointCorruptError, match="config block"):
            load_checkpoint(bad)

    def test_undecodable_tensor_name_rejected(self, saved, tmp_path):
        blob = bytearray(saved.read_bytes())
        first = blob.index(b"patch_proj.w")
        blob[first] = 0xFF
        bad = tmp_path / "bad.omg"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="header of patch_proj.w "):
            load_checkpoint(bad)

    def _mutated(self, trained, tmp_path, mutate):
        """Rebuild the file with the reference writer, applying ``mutate`` to
        the tensor dict first."""
        out = bytearray()
        out += b"OMGA" + struct.pack("<I", 1)
        config_block = "".join(
            f"{k}={v}\n" for k, v in trained.config.to_dict().items()
        ).encode()
        out += struct.pack("<I", len(config_block)) + config_block
        tensors = {n: p.data for n, p in trained.named_parameters().items()}
        for n, s in trained.named_running_stats().items():
            tensors[n + ".running_mean"] = s.running_mean
            tensors[n + ".running_var"] = s.running_var
        records = mutate(list(tensors.items()))
        out += struct.pack("<I", len(records))
        for name, arr in records:
            enc = name.encode()
            out += struct.pack("<H", len(enc)) + enc
            out += struct.pack("<B", arr.ndim)
            out += struct.pack(f"<{arr.ndim}I", *arr.shape)
            out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
        out += struct.pack("<Q", 0)
        path = tmp_path / "mut.omg"
        path.write_bytes(bytes(out))
        return path

    def test_swapped_records_rejected(self, trained, tmp_path):
        # two same-shaped records trade places: the file keeps its exact size
        def swap(recs):
            names = [name for name, _ in recs]
            i, j = names.index("layers.0.attn.wq"), names.index("layers.0.attn.wk")
            recs[i], recs[j] = recs[j], recs[i]
            return recs

        path = self._mutated(trained, tmp_path, swap)
        assert path.stat().st_size == len(reference_bytes(trained, 0))
        with pytest.raises(CheckpointCorruptError, match="header of layers.0.attn.wq "):
            load_checkpoint(path)

    def test_altered_rank_byte_rejected(self, saved, tmp_path):
        blob = bytearray(saved.read_bytes())
        rank_at = blob.index(b"patch_proj.w") + len(b"patch_proj.w")
        assert blob[rank_at] == 2
        blob[rank_at] = 1
        bad = tmp_path / "bad.omg"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="patch_proj.w"):
            load_checkpoint(bad)

    def test_duplicate_tensor_rejected(self, trained, tmp_path):
        # same record count, one name repeated
        path = self._mutated(trained, tmp_path, lambda recs: [recs[0]] + recs[:-1])
        with pytest.raises(CheckpointCorruptError, match="header of patch_proj.b "):
            load_checkpoint(path)

    def test_wrong_count_rejected(self, trained, tmp_path):
        path = self._mutated(trained, tmp_path, lambda recs: [recs[0]] + recs)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_unexpected_tensor_rejected(self, trained, tmp_path):
        def swap(recs):
            recs[0] = ("bogus.tensor", recs[0][1])
            return recs

        path = self._mutated(trained, tmp_path, swap)
        with pytest.raises(CheckpointCorruptError, match="header of patch_proj.w "):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, trained, tmp_path):
        def reshape(recs):
            name, arr = recs[0]
            recs[0] = (name, arr.reshape(-1))
            return recs

        path = self._mutated(trained, tmp_path, reshape)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_non_finite_payload_rejected(self, trained, tmp_path):
        def poison(recs):
            name, arr = recs[0]
            bad = arr.astype(np.float32).copy()
            bad.flat[0] = np.nan
            recs[0] = (name, bad)
            return recs

        path = self._mutated(trained, tmp_path, poison)
        with pytest.raises(CheckpointCorruptError, match="non-finite"):
            load_checkpoint(path)

    def test_missing_tensor_rejected(self, trained, tmp_path):
        path = self._mutated(trained, tmp_path, lambda recs: recs[:-1])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    @pytest.mark.parametrize("target", ["layers.1.ff.w2", "layers.0.norm2.running_var"])
    def test_non_finite_tensor_is_named(self, trained, tmp_path, target):
        def poison(recs):
            i = [name for name, _ in recs].index(target)
            bad = recs[i][1].astype(np.float32).copy()
            bad.flat[-1] = np.nan
            recs[i] = (target, bad)
            return recs

        path = self._mutated(trained, tmp_path, poison)
        with pytest.raises(CheckpointCorruptError, match=rf"{re.escape(repr(target))} holds non-finite"):
            load_checkpoint(path)

    def _last_record(self, trained, blob):
        """(offset of the last tensor record, its name) in a saved file."""
        name = stat_spec(trained.config)[-1][0]
        enc = name.encode()
        return blob.rindex(struct.pack("<H", len(enc)) + enc), name

    def test_truncated_inside_last_payload(self, trained, saved, tmp_path):
        blob = saved.read_bytes()
        _, name = self._last_record(trained, blob)
        bad = tmp_path / "bad.omg"
        bad.write_bytes(blob[: len(blob) - 8 - 6])  # the step counter and 1.5 floats short
        with pytest.raises(CheckpointCorruptError, match=f"payload of {re.escape(name)}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("cut", ["record", "step"])
    def test_truncated_at_a_record_boundary(self, trained, saved, tmp_path, cut):
        blob = saved.read_bytes()
        if cut == "record":
            end, name = self._last_record(trained, blob)
            what = f"header of {re.escape(name)} "
        else:
            end, what = len(blob) - 8, "step counter"
        bad = tmp_path / "bad.omg"
        bad.write_bytes(blob[:end])
        with pytest.raises(CheckpointCorruptError, match=what):
            load_checkpoint(bad)
