"""Training loops and checkpoint persistence.

One loop serves all four modes: dual-head self-supervised pretraining
(forecast weighted 0.6, reconstruction 0.4), the two frozen-encoder
fine-tuning variants, and from-scratch target training.  Freezing is
structural — frozen tensors are simply never handed to the optimizer, and
the encoder runs in infer mode so batch-norm running statistics stay put.
A frozen encoder also runs off the tape: it leaves no records, the reverse
sweep covers only the decoder heads and the loss, and frozen tensors never
receive a gradient.  The head a finetune does not train runs off the tape
as well; its loss only fills its ``curve.csv`` column.

The trainable set is one flat buffer: the model's whole arena for pretrain
and target training, the contiguous ``dec_{head}.`` slice of it for a
finetune.  The optimizer updates that buffer in one blocked pass.  The
salvage copy the loop keeps for :class:`TrainingDiverged` is one copy of the
buffer plus the running statistics into a buffer allocated once; each eval
snapshot is one such copy into a fresh buffer.  Both are handed out as
name -> view dicts that ``restore_snapshot`` writes back.

Checkpoints are a little-endian binary format: magic ``OMGA``, a version
word, the model config as key=value text, named float32 tensors (parameters
plus batch-norm running statistics), and the training step count.  The
tensors appear in ``param_spec`` order, then the running statistics.
Loading builds the model straight from the spec with every value zero and
writes each stored tensor into it exactly once; no random numbers are
drawn.  ``clone_model`` copies the arena in one go into such a model.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import TimeSeries, make_batch
from .errors import (
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
    NumericError,
    TrainingDiverged,
)
from .model import (
    Model,
    ModelConfig,
    decode_forecast,
    decode_reconstruct,
    encode,
    init_params,
    zeros_model,
)
from .numerics import (
    AdamWConfig,
    AdamWState,
    Tape,
    Tensor,
    adamw_step,
    add,
    backward,
    mse,
    scale,
    tile,
    zero_grads,
)

log = logging.getLogger("patchcast.train")

TARGET_MODES = ("pretrain", "finetune_forecast", "finetune_reconstruct", "target_train")

MAGIC = b"OMGA"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch_size: int = 32
    lr: float = 1e-3
    loss_weight_forecast: float = 0.6
    seed: int = 0
    eval_every: int = 200
    target_mode: str = "pretrain"
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ConfigError("steps, batch_size and eval_every must be positive")
        if self.lr < 0:  # zero is allowed: it must be an exact no-op
            raise ConfigError(f"lr must be non-negative, got {self.lr}")
        if not 0.0 <= self.loss_weight_forecast <= 1.0:
            raise ConfigError(
                f"loss_weight_forecast must be in [0, 1], got {self.loss_weight_forecast}"
            )
        if self.target_mode not in TARGET_MODES:
            raise ConfigError(f"target_mode must be one of {TARGET_MODES}")

    @property
    def loss_weight_reconstruct(self) -> float:
        return 1.0 - self.loss_weight_forecast

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "loss_weight_forecast": self.loss_weight_forecast,
            "seed": self.seed,
            "eval_every": self.eval_every,
            "target_mode": self.target_mode,
            "weight_decay": self.weight_decay,
        }


@dataclass(frozen=True)
class LossRecord:
    step: int
    total: float
    forecast_mse: float
    reconstruct_mse: float


@dataclass
class TrainResult:
    model: Model
    curve: list  # of LossRecord
    snapshots: list  # of (step, {name: ndarray}) for the trainable set


class _Snapshots:
    """Flat copies of the trainable buffer plus every running statistic.

    Statistics ride along even when the encoder is frozen (they are then
    constant) so a snapshot is always restorable on its own.  Taking one is a
    single ``np.concatenate`` into one flat buffer, handed out as a
    name -> view dict in the layout ``restore_snapshot`` reads.
    """

    def __init__(self, trainable: dict, flat: np.ndarray, model: Model):
        stats = _running_stats(model)
        self.parts = [flat] + [a.reshape(-1) for a in stats.values()]
        self.names = list(trainable) + list(stats)
        self.shapes = [p.shape for p in trainable.values()] + [a.shape for a in stats.values()]

    def take(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """A flat copy, written into ``out`` when one is given."""
        return np.concatenate(self.parts, out=out)

    def views(self, buf: np.ndarray) -> dict:
        return dict(zip(self.names, tile(buf, self.shapes)))


def restore_snapshot(model: Model, snapshot: dict) -> None:
    """Write a snapshot back into the matching parameters and statistics."""
    targets = _checkpoint_tensors(model)
    for name, values in snapshot.items():
        if name not in targets:
            raise ConfigError(f"snapshot names unknown tensor {name!r}")
        targets[name][...] = values


def clone_model(model: Model) -> Model:
    """A structurally fresh model carrying bitwise-identical values."""
    twin = zeros_model(model.config, dtype=model.dtype)
    np.copyto(twin.arena, model.arena)
    twin.norm_states = {name: st.copy() for name, st in model.norm_states.items()}
    return twin


def _run_loop(
    model: Model,
    pool: Sequence[TimeSeries],
    cfg: TrainConfig,
    trainable: dict,
    encoder_mode: str,
    loss_heads: str,  # "dual" | "forecast" | "reconstruct"
) -> TrainResult:
    mc = model.config
    opt = AdamWState.initial(
        trainable, AdamWConfig(lr=cfg.lr, weight_decay=cfg.weight_decay)
    )
    snaps = _Snapshots(trainable, opt.flat, model)
    rng = np.random.default_rng(cfg.seed)
    wf, wr = cfg.loss_weight_forecast, cfg.loss_weight_reconstruct
    curve: list = []
    snapshots: list = []
    last_finite: Optional[np.ndarray] = None  # reused every step

    def forecast_loss(z, batch):
        return mse(decode_forecast(z, model.forecast), Tensor(batch.forecast_targets))

    def reconstruct_loss(z, batch):
        return mse(decode_reconstruct(z, model.reconstruct), Tensor(batch.reconstruction_targets))

    for step in range(cfg.steps):
        batch = make_batch(
            pool, cfg.batch_size, mc.context_length, mc.l_pred, mc.l_patch, rng
        )
        x = Tensor(batch.inputs)
        try:
            if encoder_mode == "infer":
                # a frozen encoder runs off the tape: z reaches the heads as a
                # constant, so backward sweeps only the head and loss records
                _, z = encode(x, model, mode="infer")
            with Tape() as tape:
                if encoder_mode != "infer":
                    _, z = encode(x, model, mode=encoder_mode)
                if loss_heads == "dual":
                    f_loss, r_loss = forecast_loss(z, batch), reconstruct_loss(z, batch)
                    total = add(scale(f_loss, wf), scale(r_loss, wr))
                elif loss_heads == "forecast":
                    total = f_loss = forecast_loss(z, batch)
                else:
                    total = r_loss = reconstruct_loss(z, batch)
            # the head a finetune leaves alone runs off the tape too: its loss
            # only fills its curve column
            if loss_heads == "forecast":
                r_loss = reconstruct_loss(z, batch)
            elif loss_heads == "reconstruct":
                f_loss = forecast_loss(z, batch)
            f_v, r_v, t_v = f_loss.item(), r_loss.item(), total.item()
            if not np.isfinite(t_v):
                raise NumericError(f"non-finite loss at step {step}")
            last_finite = snaps.take(last_finite)
            backward(tape, total)
        except NumericError as exc:
            # non-finite values anywhere in the step mean the run is lost;
            # hand back the last parameters that still produced a finite loss
            raise TrainingDiverged(
                f"training diverged at step {step}: {exc}",
                step=step,
                last_finite_params=None if last_finite is None else snaps.views(last_finite),
                curve=curve,
            ) from exc
        adamw_step(trainable, opt)
        zero_grads(trainable)
        curve.append(LossRecord(step, t_v, f_v, r_v))
        if (step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1:
            if not snapshots or snapshots[-1][0] != step:
                snapshots.append((step, snaps.views(snaps.take())))
        if (step + 1) % max(1, cfg.steps // 10) == 0:
            log.info("step %d/%d loss %.6f", step + 1, cfg.steps, t_v)
    return TrainResult(model=model, curve=curve, snapshots=snapshots)


def pretrain(
    pool: Sequence[TimeSeries],
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> TrainResult:
    """Dual-head self-supervised pretraining over a series pool."""
    if train_config.target_mode != "pretrain":
        raise ConfigError(f"pretrain called with target_mode={train_config.target_mode!r}")
    model = init_params(model_config)
    return _run_loop(
        model, pool, train_config,
        trainable=model.named_parameters(),
        encoder_mode="train",
        loss_heads="dual",
    )


def _train_segment(series: TimeSeries, mc: ModelConfig) -> TimeSeries:
    # the earliest 80% only; the split itself is owned by the eval module
    from .eval import split_series  # local import: eval builds on this module

    train_seg, _, _ = split_series(series, mc.context_length, mc.l_pred)
    return train_seg


def finetune(
    model: Model,
    target: TimeSeries,
    train_config: TrainConfig,
) -> TrainResult:
    """Train one decoder head on the target's earliest 80%; encoder frozen.

    The encoder runs in infer mode (running statistics untouched) and its
    tensors are excluded from the optimizer, so freezing holds bitwise.  It
    also runs before the tape opens, and so does the head that is not
    trained: the tape records only the trained head and its loss, backward
    sweeps those records alone, and no frozen tensor receives a ``.grad``.
    A non-finite value in the frozen encoder still surfaces as
    :class:`TrainingDiverged`.
    """
    if train_config.target_mode not in ("finetune_forecast", "finetune_reconstruct"):
        raise ConfigError(
            f"finetune requires a finetune target_mode, got {train_config.target_mode!r}"
        )
    head = "forecast" if train_config.target_mode.endswith("forecast") else "reconstruct"
    prefix = f"dec_{head}."
    trainable = {n: p for n, p in model.named_parameters().items() if n.startswith(prefix)}
    return _run_loop(
        model, [_train_segment(target, model.config)], train_config,
        trainable=trainable,
        encoder_mode="infer",
        loss_heads=head,
    )


def target_train(
    target: TimeSeries,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> TrainResult:
    """Train a fresh model end-to-end on the target's earliest 80% only."""
    if train_config.target_mode != "target_train":
        raise ConfigError(
            f"target_train requires target_mode='target_train', got {train_config.target_mode!r}"
        )
    model = init_params(model_config)
    return _run_loop(
        model, [_train_segment(target, model.config)], train_config,
        trainable=model.named_parameters(),
        encoder_mode="train",
        loss_heads="dual",
    )


def write_curve_csv(path, curve: Sequence[LossRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,total,forecast_mse,reconstruct_mse\n")
        for rec in curve:
            fh.write(f"{rec.step},{rec.total!r},{rec.forecast_mse!r},{rec.reconstruct_mse!r}\n")


# ---------------------------------------------------------------------------
# checkpoint format


def _running_stats(model: Model) -> dict:
    """Every batch-norm running statistic under its checkpoint name."""
    stats = {}
    for name, state in model.named_running_stats().items():
        stats[f"{name}.running_mean"] = state.running_mean
        stats[f"{name}.running_var"] = state.running_var
    return stats


def _checkpoint_tensors(model: Model) -> dict:
    tensors = {name: p.data for name, p in model.named_parameters().items()}
    tensors.update(_running_stats(model))
    return tensors


def save_checkpoint(model: Model, path, step: int = 0) -> None:
    """Serialize parameters, running statistics, config, and step count.

    The bytes go to a temporary file beside ``path`` that then replaces it,
    so a save that fails part-way leaves any previous checkpoint intact.
    """
    config_block = "".join(
        f"{k}={v}\n" for k, v in model.config.to_dict().items()
    ).encode("utf-8")
    tensors = _checkpoint_tensors(model)
    parts = [
        MAGIC,
        struct.pack("<II", FORMAT_VERSION, len(config_block)),
        config_block,
        struct.pack("<I", len(tensors)),
    ]
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        parts.append(
            struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape)
        )
        parts.append(memoryview(np.ascontiguousarray(arr, dtype="<f4")).cast("B"))
    parts.append(struct.pack("<Q", step))
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointCorruptError(f"checkpoint truncated while reading {what}")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_checkpoint(path, expect_config: Optional[ModelConfig] = None):
    """Read a checkpoint; returns (model, step).

    Validates magic, version, and that the stored tensors enumerate exactly
    the parameter-and-statistics set the embedded config implies, with
    matching shapes.  ``expect_config`` additionally pins the caller's
    geometry.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    if len(buf) < 8 or bytes(r.take(4, "magic")) != MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic)")
    (version,) = r.unpack("<I", "version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}"
        )
    (config_len,) = r.unpack("<I", "config length")
    try:
        config_text = r.take(config_len, "config block").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptError(f"config block is not valid UTF-8: {exc}") from exc
    config_dict = {}
    for line in config_text.splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise CheckpointCorruptError(f"malformed config line {line!r}")
        key, _, value = line.partition("=")
        config_dict[key] = value
    try:
        config = ModelConfig.from_dict(config_dict)
    except (ConfigError, ValueError) as exc:
        raise CheckpointCorruptError(f"embedded config invalid: {exc}") from exc
    if expect_config is not None and config != expect_config:
        theirs, ours = config.to_dict(), expect_config.to_dict()
        diff = [k for k in ours if theirs.get(k) != ours[k]]
        raise CheckpointCorruptError(
            f"checkpoint config does not match the requested one (differs in {diff})"
        )

    model = zeros_model(config)
    expected = _checkpoint_tensors(model)
    (count,) = r.unpack("<I", "tensor count")
    if count != len(expected):
        raise CheckpointCorruptError(
            f"checkpoint holds {count} tensors, config implies {len(expected)}"
        )
    seen = set()
    for _ in range(count):
        (name_len,) = r.unpack("<H", "tensor name length")
        name = r.take(name_len, "tensor name").decode("utf-8")
        if name in seen:
            raise CheckpointCorruptError(f"duplicate tensor {name!r}")
        seen.add(name)
        if name not in expected:
            raise CheckpointCorruptError(f"unexpected tensor {name!r}")
        (rank,) = r.unpack("<B", f"rank of {name}")
        shape = tuple(r.unpack(f"<{rank}I", f"dims of {name}")) if rank else ()
        want = expected[name].shape
        if shape != want:
            raise CheckpointCorruptError(
                f"tensor {name!r} has shape {shape}, config implies {want}"
            )
        n_items = int(np.prod(shape, dtype=np.int64)) if rank else 1
        payload = r.take(4 * n_items, f"payload of {name}")
        target = expected[name]
        target[...] = np.frombuffer(payload, dtype="<f4").reshape(shape)
        if not np.all(np.isfinite(target)):
            raise CheckpointCorruptError(f"tensor {name!r} holds non-finite values")
    (step,) = r.unpack("<Q", "step counter")
    if r.pos != len(buf):
        raise CheckpointCorruptError(
            f"{len(buf) - r.pos} trailing bytes after the step counter"
        )
    return model, step
