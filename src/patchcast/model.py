"""Patch transformer encoder with twin reconstruction/forecast heads.

A window of ``n_patches * l_patch`` normalized samples is split into patches,
each linearly projected to ``d_model``, tagged with a learned positional
embedding, and followed by one learned summary token.  A stack of causal
attention + feedforward blocks (post-norm residuals) refines the sequence;
the summary token's final embedding feeds two small MLP heads, one rebuilding
the input window and one predicting the next ``l_pred`` samples.

``encode`` and ``_decode`` each have one body, written against the op
vocabulary of :mod:`patchcast.numerics.ops`.  One rule picks the path:
with a tape open on the calling thread the body runs on Tensors and every op
is recorded (training); with none it runs the ops' array kernels on plain
arrays, and only the returned values (and any ``taps``) become Tensors.  The
untaped path serves the stream forecast, ``trace``, every eval slab and a
frozen encoder under finetuning.  Both paths run the same kernels, so their
outputs are bitwise equal.  In infer mode the batch-norm scales
(``1/sqrt(running_var + EPS)``) are computed once per ``encode`` from the
variance rows of ``Model.stats``.

The tape holds one record per sublayer: the patch, q/k/v and head output
projections are ``linear`` ops, each attention or feedforward output projection is a
``residual`` op (projection, norm and residual sum together), and each
hidden layer, in the feedforward blocks and the heads, is a ``linear_relu``
op.  An encoder layer is 7 records.  ReLU propagates NaN, so a
non-finite weight reaches the decoder output, and ``_decode`` checks that
output once: it is the boundary every caller passes (eval sweeps, the stream
forecast, the CLI and both training heads), so the per-op scans can stay off.

The parameter set is stated once, in :func:`param_spec`: an ordered tuple of
``(name, shape, init)``, built once per config.  The model holds one
registry built from it, and ``parameter_count``, ``init_params`` and the
checkpoint format derive from it, so draw order = spec order = checkpoint
order.  The layers read their
weights from the registry by name; the decoder heads are handed out as
:class:`DecoderParams` views over the same tensors.

All parameters live in one flat arena: ``Model.arena`` is a single 1-D
buffer, and each tensor's ``.data`` is a reshaped view of its slice, in spec
order.  The optimizer updates the arena (or, for one decoder head, its
contiguous slice) in one pass.

The batch-norm running statistics are stated once too, in :func:`stat_spec`,
and live in a second flat buffer, ``Model.stats``: each
:class:`~patchcast.numerics.NormState` holds views of it, so the forward
pass updates ``stats`` in place.  The checkpoint stores the tensors of
``param_spec`` followed by those of ``stat_spec``, and a clone or snapshot
is two flat copies, of the arena (or its trainable slice) and of ``stats``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError
from .numerics import NormState, Tensor, all_finite, tile
from .numerics.ops import NORM_KINDS, forward_ops, inverse_std
from .numerics.tensor import FLOAT_DTYPES


@dataclass(frozen=True)
class ModelConfig:
    l_patch: int = 64
    n_patches: int = 16
    d_model: int = 128
    n_layers: int = 6
    n_heads: int = 4
    d_ff: int = 256
    l_pred: int = 128
    norm_kind: str = "batch"
    seed: int = 0

    def __post_init__(self):
        for name in ("l_patch", "n_patches", "d_model", "n_layers", "n_heads", "d_ff", "l_pred"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if (self.n_patches * self.l_patch) % 2 != 0:
            raise ConfigError(
                "n_patches * l_patch must be even (reconstruction hidden width is half of it)"
            )
        if self.norm_kind not in NORM_KINDS:
            raise ConfigError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def context_length(self) -> int:
        return self.n_patches * self.l_patch

    @property
    def reconstruct_out(self) -> int:
        return self.n_patches * self.l_patch

    @property
    def reconstruct_hidden(self) -> int:
        return self.reconstruct_out // 2

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        kwargs = {}
        for f in fields(cls):
            if f.name not in d:
                continue
            raw = d[f.name]
            kwargs[f.name] = str(raw) if f.name == "norm_kind" else int(raw)
        return cls(**kwargs)


@functools.lru_cache(maxsize=16)
def param_spec(config: ModelConfig) -> tuple:
    """Every trainable tensor as ``(name, shape, init)``, in checkpoint order.

    This tuple is the one statement of the parameter set; the model's
    registry, ``parameter_count``, ``init_params`` and the checkpoint all
    derive from it.  It is built once per config.  ``init`` is ``"normal"`` (N(0, 0.02) from the seeded
    generator), ``"zeros"`` or ``"ones"``.  The positional table has one
    row per patch plus a last row for the summary token; the reconstruction
    head's hidden width is half the window it rebuilds.
    """
    d, dff = config.d_model, config.d_ff
    spec = [
        ("patch_proj.w", (config.l_patch, d), "normal"),
        ("patch_proj.b", (d,), "zeros"),
        ("pos_emb", (config.n_patches + 1, d), "normal"),
        ("seq_token", (d,), "normal"),
    ]
    for i in range(config.n_layers):
        p = f"layers.{i}."
        spec += [
            (p + "attn.wq", (d, d), "normal"), (p + "attn.bq", (d,), "zeros"),
            (p + "attn.wk", (d, d), "normal"), (p + "attn.bk", (d,), "zeros"),
            (p + "attn.wv", (d, d), "normal"), (p + "attn.bv", (d,), "zeros"),
            (p + "attn.wo", (d, d), "normal"), (p + "attn.bo", (d,), "zeros"),
            (p + "norm1.gain", (d,), "ones"), (p + "norm1.bias", (d,), "zeros"),
            (p + "ff.w1", (d, dff), "normal"), (p + "ff.b1", (dff,), "zeros"),
            (p + "ff.w2", (dff, d), "normal"), (p + "ff.b2", (d,), "zeros"),
            (p + "norm2.gain", (d,), "ones"), (p + "norm2.bias", (d,), "zeros"),
        ]
    heads = (
        ("reconstruct", config.reconstruct_hidden, config.reconstruct_out),
        ("forecast", d, config.l_pred),
    )
    for role, hidden, out in heads:
        p = f"dec_{role}."
        spec += [
            (p + "norm.gain", (d,), "ones"), (p + "norm.bias", (d,), "zeros"),
            (p + "w1", (d, hidden), "normal"), (p + "b1", (hidden,), "zeros"),
            (p + "w2", (hidden, out), "normal"), (p + "b2", (out,), "zeros"),
        ]
    return tuple(spec)


@functools.lru_cache(maxsize=16)
def stat_spec(config: ModelConfig) -> tuple:
    """Every running statistic as ``(name, shape, init)``, in checkpoint order.

    Batch-kind norms only: each encoder layer's ``norm1`` then ``norm2``,
    each with its running mean (starts at zero) then its running variance
    (starts at one).  Layer-kind models keep no statistics.  Built once per
    config.
    """
    if config.norm_kind != "batch":
        return ()
    return tuple(
        (f"layers.{i}.{norm}.{stat}", (config.d_model,), init)
        for i in range(config.n_layers)
        for norm in ("norm1", "norm2")
        for stat, init in (("running_mean", "zeros"), ("running_var", "ones"))
    )


class _Frame(NamedTuple):
    """The buffer layout the two specs imply, built once per config."""

    names: tuple  # param_spec names, in order
    shapes: tuple
    size: int  # arena elements
    stat_names: tuple  # stat_spec names, in order
    stat_shapes: tuple
    stat_size: int  # stats elements
    norms: tuple  # each batch norm's name, in stat_spec order


@functools.lru_cache(maxsize=16)
def _frame(config: ModelConfig) -> _Frame:
    names, shapes, _ = zip(*param_spec(config))
    stats = stat_spec(config)
    stat_names = tuple(name for name, _, _ in stats)
    stat_shapes = tuple(shape for _, shape, _ in stats)
    return _Frame(
        names, shapes, sum(map(math.prod, shapes)),
        stat_names, stat_shapes, sum(map(math.prod, stat_shapes)),
        tuple(dict.fromkeys(name.rpartition(".")[0] for name in stat_names)),
    )


@dataclass
class DecoderParams:
    """A view of one head's tensors in the model's registry."""

    role: str  # "reconstruct" | "forecast"
    norm_gain: Tensor
    norm_bias: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class Model:
    """Config, the parameter registry, its arena, and batch-norm statistics.

    ``params`` maps each name of :func:`param_spec` to its tensor, in spec
    order; every tensor's ``.data`` is a view of ``arena``, and the views
    tile it back to back in that order.  ``norm_states`` maps each batch
    norm to its :class:`NormState`, whose arrays tile ``stats`` the same
    way, in :func:`stat_spec` order.
    """

    config: ModelConfig
    params: dict
    arena: np.ndarray
    stats: np.ndarray
    norm_states: dict = field(default_factory=dict)

    def named_parameters(self) -> dict:
        return dict(self.params)

    def named_running_stats(self) -> dict:
        return dict(self.norm_states)

    def named_stats(self) -> dict:
        """Views of ``stats`` under the :func:`stat_spec` names."""
        frame = _frame(self.config)
        return dict(zip(frame.stat_names, tile(self.stats, frame.stat_shapes)))

    def _head(self, role: str) -> DecoderParams:
        p = f"dec_{role}."
        return DecoderParams(
            role=role,
            norm_gain=self.params[p + "norm.gain"],
            norm_bias=self.params[p + "norm.bias"],
            w1=self.params[p + "w1"],
            b1=self.params[p + "b1"],
            w2=self.params[p + "w2"],
            b2=self.params[p + "b2"],
        )

    @property
    def reconstruct(self) -> DecoderParams:
        return self._head("reconstruct")

    @property
    def forecast(self) -> DecoderParams:
        return self._head("forecast")

    @property
    def dtype(self):
        return self.arena.dtype


def parameter_count(config: ModelConfig) -> int:
    """Trainable-parameter count (running statistics excluded)."""
    return _frame(config).size


def empty_model(config: ModelConfig, dtype=np.float32) -> Model:
    """The structure the two specs imply, every value left uninitialised.

    For callers that overwrite every parameter and statistic (checkpoint
    load, clone) and for ``init_params``: no fill, no random numbers drawn.
    Each parameter tensor adopts its freshly sliced view of the arena as is.
    """
    frame = _frame(config)
    arena = np.empty(frame.size, dtype)
    if arena.dtype not in FLOAT_DTYPES:
        raise ContractError(f"tensors are float32/float64 only, got {arena.dtype}")
    adopt = Tensor.adopt
    params = {name: adopt(view, True) for name, view in zip(frame.names, tile(arena, frame.shapes))}
    model = Model(config, params, arena, np.empty(frame.stat_size, dtype))
    stats = model.named_stats()
    model.norm_states = {
        norm: NormState(stats[norm + ".running_mean"], stats[norm + ".running_var"])
        for norm in frame.norms
    }
    return model


def init_params(config: ModelConfig, dtype=np.float32) -> Model:
    """Build a freshly initialized model, deterministic given config.seed.

    Walks :func:`param_spec` over an empty arena: each ``normal`` tensor is
    drawn from one generator seeded with ``config.seed`` and written into its
    view, so draw order = spec order = checkpoint order; ``zeros`` and
    ``ones`` tensors are filled.  The running statistics are filled per
    :func:`stat_spec`: means zero, variances one.
    """
    model = empty_model(config, dtype)
    rng = np.random.default_rng(config.seed)
    fills = {"zeros": 0, "ones": 1}
    for name, shape, init in param_spec(config):
        view = model.params[name].data
        if init == "normal":
            view[...] = rng.normal(0.0, 0.02, size=shape)
        else:
            view.fill(fills[init])
    for (_, _, init), view in zip(stat_spec(config), model.named_stats().values()):
        view.fill(fills[init])
    return model


def _inverse_stds(model: Model, mode: str) -> dict:
    """Each batch norm's infer-mode ``inverse_std``, keyed by norm name.

    One pass over the running-variance rows of ``stats`` (each norm's mean
    row is followed by its variance row), bitwise what each norm would
    compute on its own.  Empty in train mode and for layer-kind models.
    """
    if mode != "infer" or not model.norm_states:
        return {}
    var_rows = model.stats.reshape(len(model.norm_states), 2, -1)[:, 1]
    return dict(zip(model.norm_states, inverse_std(var_rows)))


def encode(
    patches: Union[Tensor, np.ndarray],
    model: Model,
    mode: str = "train",
    taps: Optional[dict] = None,
):
    """Run the encoder; returns (all_embeddings, summary_embedding).

    Accepts one patch grid (n, l_patch) or a batch (B, n, l_patch); outputs
    are ((n+1, d), (d,)) or ((B, n+1, d), (B, d)) correspondingly.  Pass a
    dict as ``taps`` to capture named intermediates (currently the ReLU
    pre-activations, keyed ``layers.{i}.ff.preact``) for inspection.  With
    no tape open the body runs on plain arrays (see the module notes).
    """
    cfg = model.config
    ops = forward_ops()
    x = ops.lift(patches, model.dtype)
    single = x.ndim == 2
    if single:
        x = ops.reshape(x, (1,) + x.shape)
    if x.ndim != 3:
        raise ShapeError(f"encode expects (n, l_patch) or (B, n, l_patch), got {x.shape}")
    B, n, lp = x.shape
    if n != cfg.n_patches or lp != cfg.l_patch:
        raise ShapeError(
            f"patch grid {n}x{lp} does not match config {cfg.n_patches}x{cfg.l_patch}"
        )

    p = ops.params(model.params)
    inv_std = _inverse_stds(model, mode)

    def residual(h, x, w, b, norm):  # h + norm(x @ w + b), one record
        return ops.residual(
            h, x, p[w], p[b], cfg.norm_kind, p[norm + ".gain"], p[norm + ".bias"],
            model.norm_states.get(norm), mode, inv_std.get(norm),
        )

    h = ops.linear(x, p["patch_proj.w"], p["patch_proj.b"])  # (B, n, d)
    h = ops.append_token(h, p["seq_token"])  # (B, n+1, d)
    h = ops.add(h, p["pos_emb"])  # every position, summary token included

    for i in range(cfg.n_layers):
        layer = f"layers.{i}."
        q = ops.linear(h, p[layer + "attn.wq"], p[layer + "attn.bq"])
        k = ops.linear(h, p[layer + "attn.wk"], p[layer + "attn.bk"])
        v = ops.linear(h, p[layer + "attn.wv"], p[layer + "attn.bv"])
        attn = ops.causal_attention(q, k, v, cfg.n_heads)
        h = residual(h, attn, layer + "attn.wo", layer + "attn.bo", layer + "norm1")
        ff, pre = ops.linear_relu(h, p[layer + "ff.w1"], p[layer + "ff.b1"])
        if taps is not None:
            taps[layer + "ff.preact"] = ops.tensor(pre)
        h = residual(h, ff, layer + "ff.w2", layer + "ff.b2", layer + "norm2")

    seq_emb = ops.select_position(h, cfg.n_patches)  # (B, d)
    if single:
        h = ops.reshape(h, h.shape[1:])
        seq_emb = ops.reshape(seq_emb, (cfg.d_model,))
    return ops.tensor(h), ops.tensor(seq_emb)


def _decode(z, params: DecoderParams, role: str, taps: Optional[dict]) -> Tensor:
    if params.role != role:
        raise ContractError(f"decoder role is {params.role!r}, expected {role!r}")
    ops = forward_ops()
    zt = ops.lift(z, params.w1.data.dtype)
    single = zt.ndim == 1
    if single:
        zt = ops.reshape(zt, (1,) + zt.shape)
    d = params.norm_gain.shape[0]
    if zt.ndim != 2 or zt.shape[1] != d:
        raise ShapeError(f"decoder expects embeddings of width {d}, got {zt.shape}")
    p = ops.params({
        "gain": params.norm_gain, "bias": params.norm_bias,
        "w1": params.w1, "b1": params.b1, "w2": params.w2, "b2": params.b2,
    })
    h = ops.normalize(zt, "layer", p["gain"], p["bias"])
    hidden, pre = ops.linear_relu(h, p["w1"], p["b1"])
    if taps is not None:
        taps[f"dec_{role}.preact"] = ops.tensor(pre)
    out = ops.linear(hidden, p["w2"], p["b2"])
    if single:
        out = ops.reshape(out, (out.shape[1],))
    out = ops.tensor(out)
    if not all_finite(out.data):
        raise NumericError(f"non-finite values in the {role} decoder's output")
    return out


def decode_reconstruct(z, params: DecoderParams, taps: Optional[dict] = None) -> Tensor:
    """Rebuild the whole normalized context window from one embedding."""
    return _decode(z, params, "reconstruct", taps)


def decode_forecast(z, params: DecoderParams, taps: Optional[dict] = None) -> Tensor:
    """Predict the next l_pred normalized samples from one embedding."""
    return _decode(z, params, "forecast", taps)
