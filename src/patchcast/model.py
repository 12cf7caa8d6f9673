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
op, so it costs one tape record; ReLU propagates NaN, so a non-finite weight
reaches the loss even with the per-op debug scans off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .data import PatchSequence
from .errors import ConfigError, ContractError, ShapeError
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


@dataclass
class LayerParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    norm1_gain: Tensor
    norm1_bias: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    norm2_gain: Tensor
    norm2_bias: Tensor


@dataclass
class EncoderParams:
    patch_proj_w: Tensor  # (l_patch, d_model)
    patch_proj_b: Tensor
    pos_emb: Tensor  # (n_patches + 1, d_model); last row belongs to the summary token
    seq_token: Tensor  # (d_model,)
    layers: list


@dataclass
class DecoderParams:
    role: str  # "reconstruct" | "forecast"
    norm_gain: Tensor
    norm_bias: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class Model:
    """Config plus all parameter groups and batch-norm running statistics."""

    config: ModelConfig
    encoder: EncoderParams
    reconstruct: DecoderParams
    forecast: DecoderParams
    norm_states: dict = field(default_factory=dict)

    def named_parameters(self) -> dict:
        out = {
            "patch_proj.w": self.encoder.patch_proj_w,
            "patch_proj.b": self.encoder.patch_proj_b,
            "pos_emb": self.encoder.pos_emb,
            "seq_token": self.encoder.seq_token,
        }
        for i, layer in enumerate(self.encoder.layers):
            prefix = f"layers.{i}"
            out[f"{prefix}.attn.wq"] = layer.wq
            out[f"{prefix}.attn.bq"] = layer.bq
            out[f"{prefix}.attn.wk"] = layer.wk
            out[f"{prefix}.attn.bk"] = layer.bk
            out[f"{prefix}.attn.wv"] = layer.wv
            out[f"{prefix}.attn.bv"] = layer.bv
            out[f"{prefix}.attn.wo"] = layer.wo
            out[f"{prefix}.attn.bo"] = layer.bo
            out[f"{prefix}.norm1.gain"] = layer.norm1_gain
            out[f"{prefix}.norm1.bias"] = layer.norm1_bias
            out[f"{prefix}.ff.w1"] = layer.w1
            out[f"{prefix}.ff.b1"] = layer.b1
            out[f"{prefix}.ff.w2"] = layer.w2
            out[f"{prefix}.ff.b2"] = layer.b2
            out[f"{prefix}.norm2.gain"] = layer.norm2_gain
            out[f"{prefix}.norm2.bias"] = layer.norm2_bias
        for name, dec in (("dec_reconstruct", self.reconstruct), ("dec_forecast", self.forecast)):
            out[f"{name}.norm.gain"] = dec.norm_gain
            out[f"{name}.norm.bias"] = dec.norm_bias
            out[f"{name}.w1"] = dec.w1
            out[f"{name}.b1"] = dec.b1
            out[f"{name}.w2"] = dec.w2
            out[f"{name}.b2"] = dec.b2
        return out

    def named_running_stats(self) -> dict:
        return dict(self.norm_states)

    def encoder_parameter_names(self) -> list:
        return [n for n in self.named_parameters() if not n.startswith("dec_")]

    @property
    def dtype(self):
        return self.encoder.patch_proj_w.data.dtype


def parameter_count(config: ModelConfig) -> int:
    """Closed-form trainable-parameter count (running stats excluded).

    patch proj: l_patch*d + d; positions: (n+1)*d; summary token: d;
    per layer: 4*(d*d + d) attention + 2*d norm + (d*d_ff + d_ff) +
    (d_ff*d + d) feedforward + 2*d norm;
    reconstruction head: 2*d + (d*h + h) + (h*o + o), o = n*l_patch, h = o/2;
    forecast head: 2*d + (d*d + d) + (d*l_pred + l_pred).
    """
    d, dff = config.d_model, config.d_ff
    n, lp = config.n_patches, config.l_patch
    total = lp * d + d
    total += (n + 1) * d
    total += d
    per_layer = 4 * (d * d + d) + 2 * d + (d * dff + dff) + (dff * d + d) + 2 * d
    total += config.n_layers * per_layer
    o = n * lp
    h = o // 2
    total += 2 * d + (d * h + h) + (h * o + o)
    total += 2 * d + (d * d + d) + (d * config.l_pred + config.l_pred)
    return total


def init_params(config: ModelConfig, dtype=np.float32) -> Model:
    """Build a freshly initialized model, deterministic given config.seed.

    One seeded generator; weight draws are N(0, 0.02) in a fixed order —
    patch projection, positional table, summary token, then per layer
    (wq, wk, wv, wo, ff.w1, ff.w2), then reconstruction and forecast head
    weights.  Biases start at zero, norm gains at one, running means/vars
    at zero/one.
    """
    rng = np.random.default_rng(config.seed)
    d = config.d_model

    def draw(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape).astype(dtype), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    patch_proj_w = draw(config.l_patch, d)
    pos_emb = draw(config.n_patches + 1, d)
    seq_token = Tensor(rng.normal(0.0, 0.02, size=d).astype(dtype), requires_grad=True)

    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerParams(
            wq=draw(d, d), bq=zeros(d),
            wk=draw(d, d), bk=zeros(d),
            wv=draw(d, d), bv=zeros(d),
            wo=draw(d, d), bo=zeros(d),
            norm1_gain=ones(d), norm1_bias=zeros(d),
            w1=draw(d, config.d_ff), b1=zeros(config.d_ff),
            w2=draw(config.d_ff, d), b2=zeros(d),
            norm2_gain=ones(d), norm2_bias=zeros(d),
        ))
    encoder = EncoderParams(
        patch_proj_w=patch_proj_w,
        patch_proj_b=zeros(d),
        pos_emb=pos_emb,
        seq_token=seq_token,
        layers=layers,
    )

    o = config.reconstruct_out
    h = config.reconstruct_hidden
    reconstruct = DecoderParams(
        role="reconstruct",
        norm_gain=ones(d), norm_bias=zeros(d),
        w1=draw(d, h), b1=zeros(h),
        w2=draw(h, o), b2=zeros(o),
    )
    forecast = DecoderParams(
        role="forecast",
        norm_gain=ones(d), norm_bias=zeros(d),
        w1=draw(d, d), b1=zeros(d),
        w2=draw(d, config.l_pred), b2=zeros(config.l_pred),
    )

    norm_states = {}
    if config.norm_kind == "batch":
        for i in range(config.n_layers):
            norm_states[f"layers.{i}.norm1"] = NormState.initial(d, dtype)
            norm_states[f"layers.{i}.norm2"] = NormState.initial(d, dtype)

    return Model(
        config=config,
        encoder=encoder,
        reconstruct=reconstruct,
        forecast=forecast,
        norm_states=norm_states,
    )


def encode(
    patches: Union[Tensor, PatchSequence, np.ndarray],
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
    if isinstance(patches, PatchSequence):
        patches = patches.patches
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

    enc = model.encoder
    h = linear(x, enc.patch_proj_w, enc.patch_proj_b)  # (B, n, d)
    h = append_token(h, enc.seq_token)  # (B, n+1, d)
    h = add(h, enc.pos_emb)  # every position, summary token included

    for i, layer in enumerate(model.encoder.layers):
        q = linear(h, layer.wq, layer.bq)
        k = linear(h, layer.wk, layer.bk)
        v = linear(h, layer.wv, layer.bv)
        attn = causal_attention(q, k, v, cfg.n_heads)
        attn = linear(attn, layer.wo, layer.bo)
        attn = normalize(
            attn, cfg.norm_kind, layer.norm1_gain, layer.norm1_bias,
            state=model.norm_states.get(f"layers.{i}.norm1"), mode=mode,
        )
        h = add(h, attn)
        pre = linear(h, layer.w1, layer.b1)
        if taps is not None:
            taps[f"layers.{i}.ff.preact"] = pre
        ff = linear(relu(pre), layer.w2, layer.b2)
        ff = normalize(
            ff, cfg.norm_kind, layer.norm2_gain, layer.norm2_bias,
            state=model.norm_states.get(f"layers.{i}.norm2"), mode=mode,
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
    if single:
        out = reshape(out, (out.shape[1],))
    return out


def decode_reconstruct(z, params: DecoderParams, taps: Optional[dict] = None) -> Tensor:
    """Rebuild the whole normalized context window from one embedding."""
    return _decode(z, params, "reconstruct", taps)


def decode_forecast(z, params: DecoderParams, taps: Optional[dict] = None) -> Tensor:
    """Predict the next l_pred normalized samples from one embedding."""
    return _decode(z, params, "forecast", taps)
