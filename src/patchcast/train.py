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
the optimizer's matching gradient buffer.  The salvage copy the loop keeps for
:class:`TrainingDiverged` is two flat copies, of the trainable buffer and of
``Model.stats``, into buffers allocated once; each eval snapshot is two such
copies into fresh buffers.  Both are handed out as name -> view dicts that
``restore_snapshot`` writes back.

A step is checked for NaN/Inf at its boundaries, not after every op: the
decoder outputs (see ``model._decode``), the loss, and the gradient buffer,
which ``adamw_step`` scans before it writes anything.  Any of them raises
:class:`TrainingDiverged` with the step's parameters and moments untouched.

Checkpoints are a little-endian binary format: magic ``OMGA``, a version
word, the model config as key=value text, named float32 tensors (parameters
plus batch-norm running statistics), and the training step count.  The
records appear strictly in ``param_spec`` order, then ``stat_spec`` order;
every save writes that order, and a load rejects any other.  So every record
header (name, rank, dims) follows from the config, and is packed once per
config and cached.

A save writes the whole file with ``os.writev`` into a temporary file that
then replaces the target.  A load parses the magic, version and config, checks
that the file is exactly as long as that config predicts, and then reads the
tensor count, every header and every payload with one ``os.readv``: headers
into scratch, payloads straight into an uninitialised model's arena and
``stats`` views, so the data is copied once and no random numbers are drawn.
The headers are compared as bytes, and the arena and the statistics are each
scanned once for NaN/Inf.  Any mismatch hands the file to ``_diagnose``,
which walks it field by field and raises the typed error naming what is
wrong; it fills no model.  ``clone_model`` copies the arena and ``stats``
into such a model.  The I/O needs a POSIX host, and loading straight into
native float32 arrays needs a little-endian one.
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


@dataclass
class TrainResult:
    model: Model
    curve: list  # of LossRecord
    snapshots: list  # of (step, {name: ndarray}) for the trainable set


def restore_snapshot(model: Model, snapshot: dict) -> None:
    """Write a snapshot back into the matching parameters and statistics."""
    targets = _checkpoint_tensors(model)
    for name, values in snapshot.items():
        if name not in targets:
            raise ConfigError(f"snapshot names unknown tensor {name!r}")
        targets[name][...] = values


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
    last_finite: Optional[tuple] = None  # reused every step
    shapes = [p.shape for p in trainable.values()]

    # Statistics ride along even when the encoder is frozen (they are then
    # constant), so a snapshot is always restorable on its own.
    def take(out: Optional[tuple] = None) -> tuple:
        """Flat copies of the trainable buffer and the statistics, into ``out`` if given."""
        if out is None:
            return opt.flat.copy(), model.stats.copy()
        np.copyto(out[0], opt.flat)
        np.copyto(out[1], model.stats)
        return out

    def views(copies: tuple) -> dict:
        named = dict(zip(trainable, tile(copies[0], shapes)))
        named.update(model.named_stats(copies[1]))
        return named

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
            last_finite = take(last_finite)
            backward(tape, total)
            adamw_step(trainable, opt)  # scans the gradients before it writes
        except NumericError as exc:
            # non-finite values anywhere in the step mean the run is lost;
            # hand back the last parameters that still produced a finite loss
            raise TrainingDiverged(
                f"training diverged at step {step}: {exc}",
                step=step,
                last_finite_params=None if last_finite is None else views(last_finite),
                curve=curve,
            ) from exc
        zero_grads(trainable)
        curve.append(LossRecord(step, t_v, f_v, r_v))
        if (step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1:
            if not snapshots or snapshots[-1][0] != step:
                snapshots.append((step, views(take())))
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


def _checkpoint_tensors(model: Model) -> dict:
    tensors = {name: p.data for name, p in model.named_parameters().items()}
    tensors.update(model.named_stats())
    return tensors


# a vectored read or write takes at most this many buffers per call
_IOV_MAX = os.sysconf("SC_IOV_MAX")


class _Layout(NamedTuple):
    """The checkpoint fields that follow from one model config."""

    prefix: bytes  # magic, version, config block and tensor count, as saved
    names: tuple  # every record's tensor, in checkpoint order
    shapes: tuple
    headers: tuple  # each record's packed name length, name, rank and dims
    spans: tuple  # each payload's (buffer, first byte, end byte): arena 0, stats 1
    expected: bytes  # the tensor count and every header, back to back
    records_size: int  # bytes from the tensor count to the end of the file


@functools.lru_cache(maxsize=16)
def _layout(config: ModelConfig) -> _Layout:
    names, shapes, headers, spans = [], [], [], []
    for buf, spec in enumerate((param_spec(config), stat_spec(config))):
        pos = 0
        for name, shape, _ in spec:
            enc = name.encode("utf-8")
            names.append(name)
            shapes.append(shape)
            headers.append(
                struct.pack(f"<H{len(enc)}sB{len(shape)}I", len(enc), enc, len(shape), *shape)
            )
            spans.append((buf, pos, pos + 4 * math.prod(shape)))
            pos = spans[-1][2]
    config_block = "".join(f"{k}={v}\n" for k, v in config.to_dict().items()).encode("utf-8")
    count = struct.pack("<I", len(names))
    prefix = MAGIC + struct.pack("<II", FORMAT_VERSION, len(config_block)) + config_block + count
    expected = count + b"".join(headers)
    payload = sum(hi - lo for _, lo, hi in spans)
    return _Layout(
        prefix, tuple(names), tuple(shapes), tuple(headers), tuple(spans), expected,
        len(expected) + payload + 8,
    )


def _payload_views(lay: _Layout, arena: np.ndarray, stats: np.ndarray) -> list:
    """Each record's payload as a byte view of the float32 ``arena`` or ``stats``."""
    raw = (memoryview(arena).cast("B"), memoryview(stats).cast("B"))
    return [raw[buf][lo:hi] for buf, lo, hi in lay.spans]


def _writev(fd: int, buffers: list) -> None:
    """Write ``buffers`` in order, continuing short writes.

    A write that makes no progress raises OSError, as a failing one does.
    """
    bufs = [memoryview(b).cast("B") for b in buffers]
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
    payloads = _payload_views(
        lay,
        np.ascontiguousarray(model.arena, dtype="<f4"),
        np.ascontiguousarray(model.stats, dtype="<f4"),
    )
    records = [b for pair in zip(lay.headers, payloads) for b in pair]
    buffers = [lay.prefix, *records, struct.pack("<Q", step)]
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


class _Reader:
    """Sequential reads from an open checkpoint, bounded by the file's size.

    A field that would run past the end of the file means truncation; the
    bound is checked before reading, so a garbled length never allocates.
    """

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()  # bytes not read yet

    def _claim(self, n: int, what: str) -> int:
        if n > self.left:
            raise CheckpointCorruptError(f"checkpoint truncated while reading {what}")
        self.left -= n
        return n

    def take(self, n: int, what: str) -> bytes:
        chunk = self.fh.read(self._claim(n, what))
        if len(chunk) != n:  # the file shrank while it was read
            raise CheckpointCorruptError(f"checkpoint truncated while reading {what}")
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def skip(self, n: int, what: str) -> None:
        self.fh.seek(self._claim(n, what), os.SEEK_CUR)


def load_checkpoint(path, expect_config: Optional[ModelConfig] = None):
    """Read a checkpoint; returns (model, step).

    Validates magic, version, and that the stored tensors enumerate exactly
    the parameter-and-statistics set the embedded config implies, in spec
    order, with matching shapes and finite values.  ``expect_config``
    additionally pins the caller's geometry.  Each payload is read from the
    file straight into its arena or statistics view; since the file stores
    ``<f4`` and the arrays are native float32, this relies on a little-endian
    host.
    """
    with open(path, "rb", buffering=0) as fh:
        r = _Reader(fh)
        if r.left < 8 or r.take(4, "magic") != MAGIC:
            raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic)")
        (version,) = r.unpack("<I", "version")
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {version}, expected {FORMAT_VERSION}"
            )
        (config_len,) = r.unpack("<I", "config length")
        config = _read_config(r.take(config_len, "config block"))
        if expect_config is not None and config != expect_config:
            theirs, ours = config.to_dict(), expect_config.to_dict()
            diff = [k for k in ours if theirs.get(k) != ours[k]]
            raise CheckpointCorruptError(
                f"checkpoint config does not match the requested one (differs in {diff})"
            )

        lay, start = _layout(config), fh.tell()
        if r.left != lay.records_size:
            _diagnose(fh, start, lay)
        model = empty_model(config)
        stored, step = bytearray(len(lay.expected)), bytearray(8)
        scratch, slots, pos = memoryview(stored), [], 4
        for header in lay.headers:
            slots.append(scratch[pos : pos + len(header)])
            pos += len(header)
        payloads = _payload_views(lay, model.arena, model.stats)
        records = [b for pair in zip(slots, payloads) for b in pair]
        buffers = [scratch[:4], *records, step]
        for lo in range(0, len(buffers), _IOV_MAX):
            chunk = buffers[lo : lo + _IOV_MAX]
            if os.readv(fh.fileno(), chunk) != sum(map(len, chunk)):
                _diagnose(fh, start, lay)  # the file shrank while it was read
        if stored != lay.expected:
            _diagnose(fh, start, lay)
    if not (np.isfinite(model.arena).all() and np.isfinite(model.stats).all()):
        bad = next(n for n, a in _checkpoint_tensors(model).items() if not np.isfinite(a).all())
        raise CheckpointCorruptError(f"tensor {bad!r} holds non-finite values")
    return model, struct.unpack("<Q", step)[0]


def _diagnose(fh, start: int, lay: _Layout) -> NoReturn:
    """Raise the typed error for a record section the lean load refused.

    Walks the file field by field from the tensor count at byte ``start``
    and checks each field against ``lay``; reads no payload, fills no model.
    """
    fh.seek(start)
    r = _Reader(fh)
    shapes = dict(zip(lay.names, lay.shapes))
    (count,) = r.unpack("<I", "tensor count")
    if count != len(lay.names):
        raise CheckpointCorruptError(
            f"checkpoint holds {count} tensors, config implies {len(lay.names)}"
        )
    seen = set()
    for i in range(count):
        (name_len,) = r.unpack("<H", "tensor name length")
        name = _utf8(r.take(name_len, "tensor name"), "tensor name")
        if name in seen:
            raise CheckpointCorruptError(f"duplicate tensor {name!r}")
        seen.add(name)
        if name not in shapes:
            raise CheckpointCorruptError(f"unexpected tensor {name!r}")
        if name != lay.names[i]:
            raise CheckpointCorruptError(
                f"tensor {name!r} stored as record {i}, where spec order puts {lay.names[i]!r}"
            )
        (rank,) = r.unpack("<B", f"rank of {name}")
        shape = tuple(r.unpack(f"<{rank}I", f"dims of {name}")) if rank else ()
        if shape != shapes[name]:
            raise CheckpointCorruptError(
                f"tensor {name!r} has shape {shape}, config implies {shapes[name]}"
            )
        r.skip(4 * math.prod(shape), f"payload of {name}")
    r.unpack("<Q", "step counter")
    if r.left:
        raise CheckpointCorruptError(f"{r.left} trailing bytes after the step counter")
    raise CheckpointCorruptError("checkpoint changed while it was read")


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptError(f"{what} is not valid UTF-8: {exc}") from exc


def _read_config(raw: bytes) -> ModelConfig:
    """The embedded key=value config block, parsed and validated."""
    config_dict = {}
    for line in _utf8(raw, "config block").splitlines():
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
