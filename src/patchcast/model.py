"""Patch transformer encoder with twin reconstruction/forecast heads.

A window of ``n_patches * l_patch`` normalized samples is split into patches,
each linearly projected to ``d_model``, tagged with a learned positional
embedding, and followed by one learned summary token.  A stack of causal
attention + feedforward blocks (post-norm residuals) refines the sequence;
the summary token's final embedding feeds two small MLP heads, one rebuilding
the input window and one predicting the next ``l_pred`` samples.

Everything here is functional over :class:`~patchcast.numerics.Tensor`, so
the same code path serves training (on tape) and inference (no tape).  Every
projection (patch, q/k/v/o, feedforward, head layers) is one fused ``linear``
op, so it costs one tape record.  ReLU propagates NaN, so a non-finite weight
reaches the decoder output, and ``_decode`` checks that output once: it is the
boundary every caller passes (eval sweeps, the stream forecast, the CLI and
both training heads), so the per-op scans can stay off.

The parameter set is stated once, in :func:`param_spec`: an ordered list of
``(name, shape, init)``.  The model holds one registry built from it, and
``parameter_count``, ``init_params`` and the checkpoint format derive from
it, so draw order = spec order = checkpoint order.  The layers read their
weights from the registry by name; the decoder heads are handed out as
:class:`DecoderParams` views over the same tensors.

All parameters live in one flat arena: ``Model.arena`` is a single 1-D
buffer, and each tensor's ``.data`` is a reshaped view of its slice, in spec
order.  The optimizer updates the arena (or, for one decoder head, its
contiguous slice) in one pass, and a clone or snapshot is one flat copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError
from .numerics import (
    NormState,
    Tensor,
    add,
    append_token,
    causal_attention,
    linear,
    normalize,
    relu,
    reshape,
    select_position,
    tile,
)
from .numerics.ops import NORM_KINDS


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


def param_spec(config: ModelConfig) -> list:
    """Every trainable tensor as ``(name, shape, init)``, in checkpoint order.

    This list is the one statement of the parameter set; the model's
    registry, ``parameter_count``, ``init_params`` and the checkpoint all
    derive from it.  ``init`` is ``"normal"`` (N(0, 0.02) from the seeded
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
    return spec


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
    tile it back to back in that order.
    """

    config: ModelConfig
    params: dict
    arena: np.ndarray
    norm_states: dict = field(default_factory=dict)

    def named_parameters(self) -> dict:
        return dict(self.params)

    def named_running_stats(self) -> dict:
        return dict(self.norm_states)

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
    return sum(math.prod(shape) for _, shape, _ in param_spec(config))


def _build(config: ModelConfig, dtype) -> Model:
    spec = param_spec(config)
    arena = np.zeros(parameter_count(config), dtype)
    views = tile(arena, [shape for _, shape, _ in spec])
    params = {
        name: Tensor(view, requires_grad=True) for (name, _, _), view in zip(spec, views)
    }
    norm_states = {}
    if config.norm_kind == "batch":
        for i in range(config.n_layers):
            norm_states[f"layers.{i}.norm1"] = NormState.initial(config.d_model, dtype)
            norm_states[f"layers.{i}.norm2"] = NormState.initial(config.d_model, dtype)
    return Model(config=config, params=params, arena=arena, norm_states=norm_states)


def init_params(config: ModelConfig, dtype=np.float32) -> Model:
    """Build a freshly initialized model, deterministic given config.seed.

    Walks :func:`param_spec` over a zero arena: each ``normal`` tensor is
    drawn from one generator seeded with ``config.seed`` and written into its
    view, so draw order = spec order = checkpoint order; ``ones`` tensors are
    filled and ``zeros`` tensors left as they are.  Running means/vars start
    at zero/one.
    """
    model = _build(config, dtype)
    rng = np.random.default_rng(config.seed)
    for name, shape, init in param_spec(config):
        view = model.params[name].data
        if init == "normal":
            view[...] = rng.normal(0.0, 0.02, size=shape)
        elif init == "ones":
            view.fill(1)
    return model


def zeros_model(config: ModelConfig, dtype=np.float32) -> Model:
    """The structure :func:`param_spec` implies with every parameter zero.

    For callers that overwrite every tensor (checkpoint load, clone): one
    zero-filled arena, no random numbers drawn, nothing written.
    """
    return _build(config, dtype)


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
    pre-activations, keyed ``layers.{i}.ff.preact``) for inspection.
    """
    cfg = model.config
    if isinstance(patches, Tensor):
        x = patches
    else:
        x = Tensor(np.asarray(patches, dtype=model.dtype))
    single = x.data.ndim == 2
    if single:
        x = reshape(x, (1,) + x.shape)
    if x.data.ndim != 3:
        raise ShapeError(f"encode expects (n, l_patch) or (B, n, l_patch), got {x.shape}")
    B, n, lp = x.shape
    if n != cfg.n_patches or lp != cfg.l_patch:
        raise ShapeError(
            f"patch grid {n}x{lp} does not match config {cfg.n_patches}x{cfg.l_patch}"
        )

    p = model.params
    h = linear(x, p["patch_proj.w"], p["patch_proj.b"])  # (B, n, d)
    h = append_token(h, p["seq_token"])  # (B, n+1, d)
    h = add(h, p["pos_emb"])  # every position, summary token included

    for i in range(cfg.n_layers):
        layer = f"layers.{i}."
        q = linear(h, p[layer + "attn.wq"], p[layer + "attn.bq"])
        k = linear(h, p[layer + "attn.wk"], p[layer + "attn.bk"])
        v = linear(h, p[layer + "attn.wv"], p[layer + "attn.bv"])
        attn = causal_attention(q, k, v, cfg.n_heads)
        attn = linear(attn, p[layer + "attn.wo"], p[layer + "attn.bo"])
        attn = normalize(
            attn, cfg.norm_kind, p[layer + "norm1.gain"], p[layer + "norm1.bias"],
            state=model.norm_states.get(layer + "norm1"), mode=mode,
        )
        h = add(h, attn)
        pre = linear(h, p[layer + "ff.w1"], p[layer + "ff.b1"])
        if taps is not None:
            taps[layer + "ff.preact"] = pre
        ff = linear(relu(pre), p[layer + "ff.w2"], p[layer + "ff.b2"])
        ff = normalize(
            ff, cfg.norm_kind, p[layer + "norm2.gain"], p[layer + "norm2.bias"],
            state=model.norm_states.get(layer + "norm2"), mode=mode,
        )
        h = add(h, ff)

    seq_emb = select_position(h, cfg.n_patches)  # (B, d)
    if single:
        h = reshape(h, h.shape[1:])
        seq_emb = reshape(seq_emb, (cfg.d_model,))
    return h, seq_emb


def _decode(z, params: DecoderParams, role: str, taps: Optional[dict]) -> Tensor:
    if params.role != role:
        raise ContractError(f"decoder role is {params.role!r}, expected {role!r}")
    if isinstance(z, Tensor):
        zt = z
    else:
        zt = Tensor(np.asarray(z, dtype=params.w1.data.dtype))
    single = zt.data.ndim == 1
    if single:
        zt = reshape(zt, (1,) + zt.shape)
    d = params.norm_gain.shape[0]
    if zt.data.ndim != 2 or zt.shape[1] != d:
        raise ShapeError(f"decoder expects embeddings of width {d}, got {zt.shape}")
    h = normalize(zt, "layer", params.norm_gain, params.norm_bias)
    pre = linear(h, params.w1, params.b1)
    if taps is not None:
        taps[f"dec_{role}.preact"] = pre
    out = linear(relu(pre), params.w2, params.b2)
    if not np.isfinite(out.data).all():
        raise NumericError(f"non-finite values in the {role} decoder's output")
    if single:
        out = reshape(out, (out.shape[1],))
    return out


def decode_reconstruct(z, params: DecoderParams, taps: Optional[dict] = None) -> Tensor:
    """Rebuild the whole normalized context window from one embedding."""
    return _decode(z, params, "reconstruct", taps)


def decode_forecast(z, params: DecoderParams, taps: Optional[dict] = None) -> Tensor:
    """Predict the next l_pred normalized samples from one embedding."""
    return _decode(z, params, "forecast", taps)
