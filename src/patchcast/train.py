"""Training loops and checkpoint persistence.

One loop serves all four modes, and one switch, ``head``, picks what it
trains.  With no head it trains every tensor on the dual loss (forecast
weighted 0.6, reconstruction 0.4) with the encoder in train mode: that is
self-supervised pretraining and from-scratch target training.  With a head
(``"forecast"`` or ``"reconstruct"``) it is a finetune: only the
``dec_{head}.`` tensors train, on that head's loss.  Freezing is structural —
frozen tensors are simply never handed to the optimizer, and the encoder
runs in infer mode so batch-norm running statistics stay put.  A frozen
encoder also runs off the tape, on plain arrays: it leaves no records, the
reverse sweep covers only the trained head and the loss, and frozen tensors
never receive a gradient.  The idle head runs off the tape as well; its loss
only fills its ``curve.csv`` column.

The trainable set is one flat buffer: the model's whole arena for pretrain
and target training, the contiguous ``dec_{head}.`` slice of it for a
finetune.  The optimizer updates that buffer in one blocked pass, and while
the loop runs the reverse sweep writes each trainable gradient straight into
the optimizer's matching gradient buffer.  Finetuning and target training
keep a :class:`Snapshot` every ``eval_every`` steps for
``select_best_snapshot``: two flat copies, of the trainable buffer and of
``Model.stats``.  Pretraining has no caller that selects among them, so it
keeps none, and a training step holds no copy of the model.

A step is checked for NaN/Inf at its boundaries, not after every op: the
decoder outputs (see ``model._decode``), the loss, and the gradient buffer,
which ``adamw_step`` scans before it writes anything.  Any of them raises
:class:`TrainingDiverged` before any write, so the model keeps the parameters
the step started from; in train mode its statistics include the step's update.
The message names the op whose output was the first non-finite one on the
step's tape (``Tape.first_nonfinite``), or says that a frozen encoder's
summary embedding was not finite: that encoder ran off the tape.

Checkpoints are a little-endian binary format: magic ``OMGA``, a version
word, the model config as key=value text, named float32 tensors (parameters
plus batch-norm running statistics), and the training step count.  The
records appear strictly in ``param_spec`` order, then ``stat_spec`` order;
every save writes that order, and a load rejects any other.  So every record
header (name, rank, dims) follows from the config, and is packed once per
config and cached.

Both directions follow one read plan, cached per config: every buffer after
the config block in file order, as a slice of the records scratch (tensor
count, headers, step counter), of the arena or of ``stats``.  A save writes
the whole file with ``os.writev`` into a temporary file that then replaces
the target.  A load reads the magic, version, config length and config block
with one ``os.pread`` of the file's first ``_HEAD`` bytes; a longer block,
which no save writes, takes one more ``os.pread`` once the file is known to
hold it.  A block that fits is parsed once and its config cached.  Before any
per-layer work the file is checked against an O(1) lower bound on the bytes
that config implies, so a corrupt config that implies an absurd model fails
at once; then the file must be exactly as long as the config predicts.  One
``os.preadv`` reads the rest: headers and step into scratch, payloads
straight into an uninitialised model's arena and ``stats`` views (its tensors
adopt those views as is), so the data is copied once and no random numbers
are drawn.  The headers are compared as bytes, and the arena and the
statistics are each checked for NaN/Inf with one dot product
(``all_finite``), which falls back to the exact scan only when the sum of
squares is not finite.  Any mismatch hands the file to ``_refuse``, which
follows the same plan, labels each field from the two specs and raises the
typed error naming the first field that is cut short or whose header bytes
differ; it fills no model, and no label is built for a file that loads.  A
non-finite tensor is named from the same plan, in spec order.
``clone_model`` copies the arena and ``stats`` into such a model.  The I/O
needs a POSIX host, and loading straight into native float32 arrays needs a
little-endian one.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple, NoReturn, Optional, Sequence

import numpy as np

from .data import TimeSeries, make_batch, split_series
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
    empty_model,
    encode,
    init_params,
    param_spec,
    stat_spec,
)
from .numerics import (
    AdamWConfig,
    AdamWState,
    Tape,
    Tensor,
    adamw_step,
    add,
    all_finite,
    backward,
    mse,
    scale,
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
        if not 0 <= self.lr < math.inf:  # zero is allowed: it must be an exact no-op
            raise ConfigError(f"lr must be finite and non-negative, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and non-negative, got {self.weight_decay}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0.0 <= self.loss_weight_forecast <= 1.0:
            raise ConfigError(
                f"loss_weight_forecast must be in [0, 1], got {self.loss_weight_forecast}"
            )
        if self.target_mode not in TARGET_MODES:
            raise ConfigError(f"target_mode must be one of {TARGET_MODES}")

    @property
    def loss_weight_reconstruct(self) -> float:
        return 1.0 - self.loss_weight_forecast


@dataclass(frozen=True)
class LossRecord:
    step: int
    total: float
    forecast_mse: float
    reconstruct_mse: float


class Snapshot(NamedTuple):
    """Flat copies of an arena's trainable slice and of ``Model.stats``; the
    statistics ride along even when frozen, so a snapshot restores on its own."""

    offset: int  # the trainable slice's first element in the arena
    params: np.ndarray
    stats: np.ndarray


@dataclass
class TrainResult:
    model: Model
    curve: list  # of LossRecord
    snapshots: list  # of (step, Snapshot); empty for pretraining


def restore_snapshot(model: Model, snapshot: Snapshot) -> None:
    """Write a snapshot back into the model's arena slice and statistics."""
    lo, params, stats = snapshot
    if lo < 0 or lo + params.size > model.arena.size or stats.shape != model.stats.shape:
        raise ConfigError(
            f"snapshot of {params.size} parameters at offset {lo} and {stats.size} "
            f"statistics does not fit a model of {model.arena.size} and {model.stats.size}"
        )
    np.copyto(model.arena[lo : lo + params.size], params)
    np.copyto(model.stats, stats)


def clone_model(model: Model) -> Model:
    """A structurally fresh model carrying bitwise-identical values."""
    twin = empty_model(model.config, dtype=model.dtype)
    np.copyto(twin.arena, model.arena)
    np.copyto(twin.stats, model.stats)
    return twin


def _run_loop(
    model: Model,
    pool: Sequence[TimeSeries],
    cfg: TrainConfig,
    head: Optional[str] = None,  # None | "forecast" | "reconstruct"
) -> TrainResult:
    """Train on batches drawn from ``pool``; ``head`` picks what trains (see
    the module docstring)."""
    trainable = model.named_parameters()
    if head is not None:
        trainable = {n: p for n, p in trainable.items() if n.startswith(f"dec_{head}.")}
    mc = model.config
    opt = AdamWState.initial(
        trainable, AdamWConfig(lr=cfg.lr, weight_decay=cfg.weight_decay)
    )
    rng = np.random.default_rng(cfg.seed)
    wf, wr = cfg.loss_weight_forecast, cfg.loss_weight_reconstruct
    curve: list = []
    snapshots: list = []
    keep_snapshots = cfg.target_mode != "pretrain"  # no pretrain caller selects among them
    offset = (opt.flat.ctypes.data - model.arena.ctypes.data) // model.arena.itemsize

    def head_loss(name, z, batch):
        if name == "forecast":
            return mse(decode_forecast(z, model.forecast), Tensor(batch.forecast_targets))
        return mse(decode_reconstruct(z, model.reconstruct), Tensor(batch.reconstruction_targets))

    idle = "reconstruct" if head == "forecast" else "forecast"

    for step in range(cfg.steps):
        batch = make_batch(
            pool, cfg.batch_size, mc.context_length, mc.l_pred, mc.l_patch, rng
        )
        x = Tensor(batch.inputs)
        try:
            if head is None:
                with Tape() as tape:
                    _, z = encode(x, model, mode="train")
                    f_loss = head_loss("forecast", z, batch)
                    r_loss = head_loss("reconstruct", z, batch)
                    total = add(scale(f_loss, wf), scale(r_loss, wr))
            else:
                # a frozen encoder runs off the tape: z reaches the heads as a
                # constant, so backward sweeps only the head and loss records
                _, z = encode(x, model, mode="infer")
                with Tape() as tape:
                    total = head_loss(head, z, batch)
                # the idle head runs off the tape too: its loss only fills its
                # curve column
                other = head_loss(idle, z, batch)
                f_loss, r_loss = (total, other) if head == "forecast" else (other, total)
            f_v, r_v, t_v = f_loss.item(), r_loss.item(), total.item()
            if not np.isfinite(t_v):
                raise NumericError(f"non-finite loss at step {step}")
            backward(tape, total)
            adamw_step(trainable, opt)  # scans the gradients before it writes
        except NumericError as exc:
            # non-finite values anywhere in the step mean the run is lost; the
            # model keeps the parameters this step started from
            where = ""
            if head is not None and not all_finite(z.data):
                where = "; the frozen encoder's summary embedding is not finite"
            elif (i := tape.first_nonfinite()) is not None:
                where = f"; op {tape.records[i].op} (tape record {i}) made the first non-finite output"
            raise TrainingDiverged(
                f"training diverged at step {step}: {exc}{where}", step=step, curve=curve
            ) from exc
        zero_grads(trainable)
        curve.append(LossRecord(step, t_v, f_v, r_v))
        if keep_snapshots and ((step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1):
            snapshots.append((step, Snapshot(offset, opt.flat.copy(), model.stats.copy())))
        if (step + 1) % max(1, cfg.steps // 10) == 0:
            log.info("step %d/%d loss %.6f", step + 1, cfg.steps, t_v)
    for p in trainable.values():
        p.grad_home = None  # the returned model keeps no hold on the optimizer's buffer
    return TrainResult(model=model, curve=curve, snapshots=snapshots)


def pretrain(
    pool: Sequence[TimeSeries],
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> TrainResult:
    """Dual-head self-supervised pretraining over a series pool."""
    if train_config.target_mode != "pretrain":
        raise ConfigError(f"pretrain called with target_mode={train_config.target_mode!r}")
    return _run_loop(init_params(model_config), pool, train_config)


def _train_segment(series: TimeSeries, mc: ModelConfig) -> TimeSeries:
    """The earliest 80% of ``series``: the split's train segment."""
    return split_series(series, mc.context_length, mc.l_pred)[0]


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
    head = train_config.target_mode.removeprefix("finetune_")
    return _run_loop(model, [_train_segment(target, model.config)], train_config, head)


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
    segment = _train_segment(target, model_config)
    return _run_loop(init_params(model_config), [segment], train_config)


def write_curve_csv(path, curve: Sequence[LossRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,total,forecast_mse,reconstruct_mse\n")
        for rec in curve:
            fh.write(f"{rec.step},{rec.total!r},{rec.forecast_mse!r},{rec.reconstruct_mse!r}\n")


# ---------------------------------------------------------------------------
# checkpoint format


# a vectored read or write takes at most this many buffers per call
_IOV_MAX = os.sysconf("SC_IOV_MAX")

# One read of this many bytes fetches the magic, the version, the config
# length and, for any config a save writes, the whole config block.
_HEAD = 512
_CONFIG_AT = 12  # the config block's first byte


class _Layout(NamedTuple):
    """The checkpoint fields that follow from one model config."""

    head: bytes  # magic, version, config length and config block, as saved
    records: bytes  # the tensor count and every record header, back to back
    # Everything after the config block, in file order, as (source, first
    # byte, end byte): source 0 is a buffer holding ``records`` then the
    # 8-byte step counter, 1 the arena's bytes, 2 the statistics' bytes.
    plan: tuple
    reads: tuple  # each vectored call: (first, end) into ``plan``, its file offset after the config, its bytes
    records_size: int  # bytes from the tensor count to the end of the file


@functools.lru_cache(maxsize=16)
def _layout(config: ModelConfig) -> _Layout:
    headers, plan = [], [(0, 0, 4)]
    at = 4  # the tensor count comes first in the records buffer
    for source, spec in enumerate((param_spec(config), stat_spec(config)), start=1):
        pos = 0
        for name, shape, _ in spec:
            enc = name.encode("utf-8")
            header = struct.pack(f"<H{len(enc)}sB{len(shape)}I", len(enc), enc, len(shape), *shape)
            headers.append(header)
            plan += [(0, at, at + len(header)), (source, pos, pos + 4 * math.prod(shape))]
            at, pos = at + len(header), plan[-1][2]
    plan.append((0, at, at + 8))  # the step counter
    reads, offset = [], 0
    for lo in range(0, len(plan), _IOV_MAX):
        size = sum(hi - first for _, first, hi in plan[lo : lo + _IOV_MAX])
        reads.append((lo, lo + _IOV_MAX, offset, size))
        offset += size
    config_block = "".join(f"{k}={v}\n" for k, v in config.to_dict().items()).encode("utf-8")
    head = MAGIC + struct.pack("<II", FORMAT_VERSION, len(config_block)) + config_block
    records = struct.pack("<I", len(headers)) + b"".join(headers)
    return _Layout(head, records, tuple(plan), tuple(reads), offset)


def _floats_floor(config: ModelConfig) -> int:
    """A lower bound, in O(1), on the float32 values a checkpoint of ``config`` holds.

    It counts only weight matrices of :func:`param_spec`: each encoder
    layer's four attention and two feedforward matrices, the patch
    projection, and the two heads' output layers.  Every dimension enters a
    product, so a corrupt config that implies an absurd model is refused
    before any per-layer work (or a dimension too wide for a header word).
    """
    d = config.d_model
    return (
        config.n_layers * (4 * d * d + 2 * d * config.d_ff)
        + config.l_patch * d + d * config.l_pred
        + config.reconstruct_hidden * config.reconstruct_out
    )


def _iovecs(lay: _Layout, records, arena: np.ndarray, stats: np.ndarray) -> list:
    """``lay.plan`` as byte views of ``records`` and the float32 ``arena`` and ``stats``."""
    sources = (records, memoryview(arena).cast("B"), memoryview(stats).cast("B"))
    return [sources[source][lo:hi] for source, lo, hi in lay.plan]


def _writev(fd: int, bufs: list) -> None:
    """Write the byte memoryviews ``bufs`` in order, continuing short writes.

    A write that makes no progress raises OSError, as a failing one does.
    """
    i = 0
    while i < len(bufs):
        n = os.writev(fd, bufs[i : i + _IOV_MAX])
        if n == 0:
            raise OSError("checkpoint write made no progress")
        while n and i < len(bufs):  # drop what was written
            if n >= len(bufs[i]):
                n -= len(bufs[i])
                i += 1
            else:
                bufs[i], n = bufs[i][n:], 0


def save_checkpoint(model: Model, path, step: int = 0) -> None:
    """Serialize parameters, running statistics, config, and step count.

    The bytes go to a temporary file beside ``path`` that then replaces it,
    so a save that fails part-way leaves any previous checkpoint intact.
    """
    lay = _layout(model.config)
    buffers = [memoryview(lay.head)] + _iovecs(
        lay,
        memoryview(lay.records + struct.pack("<Q", step)),
        np.ascontiguousarray(model.arena, dtype="<f4"),
        np.ascontiguousarray(model.stats, dtype="<f4"),
    )
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            _writev(fd, buffers)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (model, step).

    Validates magic, version, and that the file is exactly the one the
    embedded config implies: its size, and every record header byte for
    byte, so the tensors are the parameter-and-statistics set in spec order
    with matching shapes; then that every value is finite.  Each payload is
    read from the file straight into its arena or statistics view; since the
    file stores ``<f4`` and the arrays are native float32, this relies on a
    little-endian host.
    """
    with open(path, "rb", buffering=0) as fh:
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        head = os.pread(fd, _HEAD, 0)
        if len(head) < 8 or head[:4] != MAGIC:
            raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {version}, expected {FORMAT_VERSION}"
            )
        if len(head) < _CONFIG_AT:
            raise CheckpointCorruptError("checkpoint truncated while reading config length")
        start = _CONFIG_AT + struct.unpack_from("<I", head, 8)[0]  # the tensor count's byte
        if start <= len(head):
            config = _cached_config(head[_CONFIG_AT:start])
        else:  # a block longer than the head read, or a file that ends inside it
            raw = os.pread(fd, start - _CONFIG_AT, _CONFIG_AT) if start <= size else b""
            if len(raw) != start - _CONFIG_AT:
                raise CheckpointCorruptError("checkpoint truncated while reading config block")
            config = _read_config(raw)
        floor = 4 * _floats_floor(config)
        if size - start < floor:
            raise CheckpointCorruptError(
                f"checkpoint holds {size - start} bytes after its config block, "
                f"fewer than the {floor} its config implies"
            )

        lay = _layout(config)
        if size - start != lay.records_size:
            _refuse(fd, start, size, config, lay)
        model = empty_model(config)
        scratch = bytearray(len(lay.records) + 8)  # the records, then the step counter
        buffers = _iovecs(lay, memoryview(scratch), model.arena, model.stats)
        for lo, hi, offset, n in lay.reads:
            if os.preadv(fd, buffers[lo:hi], start + offset) != n:  # the file shrank
                _refuse(fd, start, os.fstat(fd).st_size, config, lay)
        if not scratch.startswith(lay.records):
            _refuse(fd, start, size, config, lay)
    if not (all_finite(model.arena) and all_finite(model.stats)):
        floats = (None, model.arena, model.stats)  # by plan source
        specs = param_spec(config) + stat_spec(config)
        for (name, _, _), (source, lo, hi) in zip(specs, lay.plan[2::2]):  # the payloads
            if not np.isfinite(floats[source][lo // 4 : hi // 4]).all():
                raise CheckpointCorruptError(f"tensor {name!r} holds non-finite values")
    return model, struct.unpack_from("<Q", scratch, len(lay.records))[0]


def _refuse(fd: int, start: int, size: int, config: ModelConfig, lay: _Layout) -> NoReturn:
    """Raise the typed error for a record section the lean load refused.

    Follows ``lay.plan`` from the tensor count at byte ``start`` of a file of
    ``size`` bytes, naming each field from the two specs: the first field
    that runs past the end of the file, else the first header (or the tensor
    count) whose bytes differ from its slice of ``lay.records``.  Reads no
    payload and fills no model.
    """
    labels = ["tensor count"]
    for name, shape, _ in param_spec(config) + stat_spec(config):
        labels += [f"header of {name} {shape}", f"payload of {name}"]
    labels.append("step counter")
    at = start
    for label, (source, lo, hi) in zip(labels, lay.plan):
        if at + hi - lo > size:
            raise CheckpointCorruptError(f"checkpoint truncated while reading {label}")
        header = source == 0 and hi <= len(lay.records)  # the step counter is not checked
        if header and os.pread(fd, hi - lo, at) != lay.records[lo:hi]:
            raise CheckpointCorruptError(f"{label} is not what the config implies")
        at += hi - lo
    if size > at:
        raise CheckpointCorruptError(f"{size - at} trailing bytes after the step counter")
    raise CheckpointCorruptError("checkpoint changed while it was read")


def _read_config(raw: bytes) -> ModelConfig:
    """The embedded key=value config block, parsed and validated."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptError(f"config block is not valid UTF-8: {exc}") from exc
    config_dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise CheckpointCorruptError(f"malformed config line {line!r}")
        key, _, value = line.partition("=")
        config_dict[key] = value
    try:
        return ModelConfig.from_dict(config_dict)
    except (ConfigError, ValueError) as exc:
        raise CheckpointCorruptError(f"embedded config invalid: {exc}") from exc


@functools.lru_cache(maxsize=16)
def _cached_config(raw: bytes) -> ModelConfig:
    """``_read_config`` for a block that fits the head read, so at most
    ``_HEAD`` bytes per entry; the config is frozen, so loads share it."""
    return _read_config(raw)
