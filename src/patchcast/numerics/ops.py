"""Primitive differentiable operations.

Each op validates shapes, computes the forward value with numpy, and — when a
tape is active — records a closure holding exactly the arrays its backward
rule needs.  Backward rules are hand-derived; the gradient checker in
``gradcheck`` is the referee.

Every model projection is one ``linear`` record: a single GEMM over the
flattened leading axes plus the bias.  ``relu`` propagates NaN, so a
non-finite value reaches the loss even with the output scans switched off.

Shape glossary used below: B batch, T sequence length, D model width,
h head count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, DegenerateBatchError, ShapeError
from .tensor import Tensor, check_finite, current_tape, TapeRecord

NORM_KINDS = ("batch", "layer")
NORM_MODES = ("train", "infer")


def _record(op: str, inputs: tuple, out: Tensor, backward_fn) -> None:
    check_finite(op, out.data)
    tape = current_tape()
    if tape is None:
        return
    needs = tuple(t.requires_grad or tape.produced(t) for t in inputs)
    tape.records.append(TapeRecord(op, inputs, out, backward_fn, needs))
    tape._produced.add(id(out))


def _same_dtype(op: str, *tensors: Tensor) -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ContractError(f"{op}: mixed dtypes {sorted(d.name for d in dtypes)}")


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """C = A @ B for 2-D operands.  dA = dC @ B^T, dB = A^T @ dC."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    _same_dtype("matmul", a, b)
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data

    def bwd(dout, needs):
        da = dout @ bd.T if needs[0] else None
        db = ad.T @ dout if needs[1] else None
        return da, db

    _record("matmul", (a, b), out, bwd)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Y = X @ W + b over the last axis: (..., D_in) -> (..., D_out), one record.

    The leading axes are flattened into one GEMM on a (N, D_in) view of X.
    dX = dY @ W^T, dW = X^T @ dY, db = dY summed over the N rows.
    """
    if x.data.ndim < 1 or w.data.ndim != 2:
        raise ShapeError(f"linear expects (..., D_in) and 2-D weights, got {x.shape} and {w.shape}")
    d_in, d_out = w.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear inner dims differ: {x.shape} @ {w.shape}")
    if b.shape != (d_out,):
        raise ShapeError(f"linear bias must have shape ({d_out},), got {b.shape}")
    _same_dtype("linear", x, w, b)
    in_shape = x.shape
    flat = x.data.reshape(-1, d_in)
    wd = w.data
    y = flat @ wd
    y += b.data
    out = Tensor(y.reshape(in_shape[:-1] + (d_out,)))

    def bwd(dout, needs):
        d2 = dout.reshape(-1, d_out)
        dx = (d2 @ wd.T).reshape(in_shape) if needs[0] else None
        dw = flat.T @ d2 if needs[1] else None
        db = d2.sum(axis=0) if needs[2] else None
        return dx, dw, db

    _record("linear", (x, w, b), out, bwd)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting; gradients reduce back."""
    _same_dtype("add", a, b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    a_shape, b_shape = a.shape, b.shape

    def bwd(dout, needs):
        da = _reduce_to(dout, a_shape) if needs[0] else None
        db = _reduce_to(dout, b_shape) if needs[1] else None
        return da, db

    _record("add", (a, b), out, bwd)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (used for loss weighting)."""
    c = float(c)
    out = Tensor(x.data * c)

    def bwd(dout, needs):
        return (dout * c if needs[0] else None,)

    _record("scale", (x,), out, bwd)
    return out


def relu(x: Tensor) -> Tensor:
    """max(x, 0).  NaN propagates (a NaN input gives a NaN output); -0.0 maps
    to +0.0.  The gradient passes where x > 0 and is zero elsewhere."""
    mask = x.data > 0
    out = Tensor(np.maximum(x.data, 0))

    def bwd(dout, needs):
        return (dout * mask if needs[0] else None,)

    _record("relu", (x,), out, bwd)
    return out


def reshape(x: Tensor, shape: tuple) -> Tensor:
    shape = tuple(int(n) for n in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} ({x.size} elements) to {shape}")
    out = Tensor(x.data.reshape(shape))
    in_shape = x.shape

    def bwd(dout, needs):
        return (dout.reshape(in_shape) if needs[0] else None,)

    _record("reshape", (x,), out, bwd)
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements; the gradient is all ones."""
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))
    shape, dt = x.shape, x.data.dtype

    def bwd(dout, needs):
        return (np.full(shape, dout, dtype=dt) if needs[0] else None,)

    _record("sum_all", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# softmax / attention


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stable softmax over the last axis.

    The row max is subtracted before exponentiation, so arbitrarily large
    finite inputs are safe; -inf inputs get exactly zero weight.
    """
    if x.data.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last axis, got {x.shape}")
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(dout, needs):
        if not needs[0]:
            return (None,)
        inner = (dout * y).sum(axis=-1, keepdims=True)
        return (y * (dout - inner),)

    _record("softmax_lastdim", (x,), out, bwd)
    return out


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Fused multi-head attention with a strict causal mask.

    q, k, v: (B, T, D) with D divisible by n_heads.  Position i attends to
    positions <= i only; masked scores are -inf before the softmax, so masked
    weights are exactly zero and output row i is bitwise independent of any
    row > i.
    """
    if q.data.ndim != 3:
        raise ShapeError(f"attention expects (B, T, D) inputs, got {q.shape}")
    if not (q.shape == k.shape == v.shape):
        raise ShapeError(f"attention q/k/v shapes differ: {q.shape} {k.shape} {v.shape}")
    _same_dtype("causal_attention", q, k, v)
    B, T, D = q.shape
    if n_heads < 1 or D % n_heads != 0:
        raise ShapeError(f"width {D} not divisible by n_heads={n_heads}")
    hd = D // n_heads
    dt = q.data.dtype

    def split(a):  # (B, T, D) -> (B, h, T, hd)
        return a.reshape(B, T, n_heads, hd).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    inv = 1.0 / math.sqrt(hd)  # python float: a numpy scalar would upcast float32
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * inv
    mask = np.triu(np.full((T, T), -np.inf, dtype=dt), k=1)
    scores = scores + mask
    m = scores.max(axis=-1, keepdims=True)  # diagonal is never masked, so finite
    e = np.exp(scores - m)
    w = e / e.sum(axis=-1, keepdims=True)  # (B, h, T, T)
    out_h = w @ vh
    out = Tensor(out_h.transpose(0, 2, 1, 3).reshape(B, T, D))

    def merge(a):  # (B, h, T, hd) -> (B, T, D)
        return a.transpose(0, 2, 1, 3).reshape(B, T, D)

    def bwd(dout, needs):
        do_h = split(dout)
        dw = do_h @ vh.transpose(0, 1, 3, 2)
        ds = w * (dw - (w * dw).sum(axis=-1, keepdims=True))  # softmax backward
        dq = merge((ds @ kh) * inv) if needs[0] else None
        dk = merge((ds.transpose(0, 1, 3, 2) @ qh) * inv) if needs[1] else None
        dv = merge(w.transpose(0, 1, 3, 2) @ do_h) if needs[2] else None
        return dq, dk, dv

    _record("causal_attention", (q, k, v), out, bwd)
    return out


# ---------------------------------------------------------------------------
# normalization


@dataclass
class NormState:
    """Running statistics for batch-kind normalization (one entry per feature).

    Mutated in place by train-mode forward passes; read-only in infer mode.
    Not differentiated through.
    """

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def initial(cls, width: int, dtype=np.float32) -> "NormState":
        return cls(np.zeros(width, dtype=dtype), np.ones(width, dtype=dtype))

    def copy(self) -> "NormState":
        return NormState(self.running_mean.copy(), self.running_var.copy())


def normalize(
    x: Tensor,
    kind: str,
    gain: Tensor,
    bias: Tensor,
    state: NormState | None = None,
    mode: str = "train",
    eps: float = 1e-5,
    momentum: float = 0.1,
) -> Tensor:
    """Normalize features (last axis) then apply a learned affine map.

    kind="batch": statistics pool over every axis except the last.  Train mode
    uses batch statistics (biased variance) and folds them into ``state`` with
    the given momentum (unbiased variance goes into the running buffer); infer
    mode reads the running statistics.  Train mode requires a leading-axis
    extent of at least 2.

    kind="layer": statistics are per sample over the last axis; ``mode`` and
    ``state`` are irrelevant.
    """
    if kind not in NORM_KINDS:
        raise ContractError(f"unknown norm kind {kind!r}")
    if mode not in NORM_MODES:
        raise ContractError(f"unknown norm mode {mode!r}")
    if x.data.ndim < 2:
        raise ShapeError(f"normalize expects ndim >= 2, got {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    _same_dtype("normalize", x, gain, bias)
    xd = x.data
    g, b = gain.data, bias.data

    if kind == "layer":
        axes = (-1,)
        mu = xd.mean(axis=-1, keepdims=True)
        var = xd.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (xd - mu) * inv_std
        out = Tensor(g * xhat + b)
        n = d

        def bwd(dout, needs):
            dg = (dout * xhat).sum(axis=tuple(range(xd.ndim - 1))) if needs[1] else None
            db = dout.sum(axis=tuple(range(xd.ndim - 1))) if needs[2] else None
            if needs[0]:
                dxhat = dout * g
                dx = inv_std * (
                    dxhat
                    - dxhat.mean(axis=axes, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True)
                )
            else:
                dx = None
            return dx, dg, db

        _record("layer_norm", (x, gain, bias), out, bwd)
        return out

    # batch kind
    if state is None:
        raise ContractError("batch-kind normalize requires running statistics")
    pool_axes = tuple(range(xd.ndim - 1))

    if mode == "train":
        if x.shape[0] < 2:
            raise DegenerateBatchError(
                f"batch-kind norm in train mode needs a batch of >= 2, got {x.shape[0]}"
            )
        n = int(np.prod(xd.shape[:-1]))
        mu = xd.mean(axis=pool_axes)
        var = xd.var(axis=pool_axes)  # biased: used for the normalization itself
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (xd - mu) * inv_std
        out = Tensor(g * xhat + b)
        # unbiased variance feeds the running buffer
        state.running_mean += momentum * (mu - state.running_mean)
        state.running_var += momentum * (var * n / (n - 1) - state.running_var)

        def bwd(dout, needs):
            dg = (dout * xhat).sum(axis=pool_axes) if needs[1] else None
            db = dout.sum(axis=pool_axes) if needs[2] else None
            if needs[0]:
                dxhat = dout * g
                dx = inv_std * (
                    dxhat
                    - dxhat.mean(axis=pool_axes)
                    - xhat * (dxhat * xhat).mean(axis=pool_axes)
                )
            else:
                dx = None
            return dx, dg, db

        _record("batch_norm", (x, gain, bias), out, bwd)
        return out

    # infer: running stats are constants, so the map is affine in x
    inv_std = 1.0 / np.sqrt(state.running_var + eps)
    xhat = (xd - state.running_mean) * inv_std
    out = Tensor(g * xhat + b)

    def bwd(dout, needs):
        dx = dout * (g * inv_std) if needs[0] else None
        dg = (dout * xhat).sum(axis=pool_axes) if needs[1] else None
        db = dout.sum(axis=pool_axes) if needs[2] else None
        return dx, dg, db

    _record("batch_norm_infer", (x, gain, bias), out, bwd)
    return out


# ---------------------------------------------------------------------------
# loss / sequence plumbing


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements; returns a scalar tensor."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    _same_dtype("mse", pred, target)
    diff = pred.data - target.data
    out = Tensor(np.asarray(np.mean(diff * diff), dtype=pred.data.dtype))
    n = diff.size

    def bwd(dout, needs):
        base = dout * (2.0 / n) * diff
        dp = base if needs[0] else None
        dt = -base if needs[1] else None
        return dp, dt

    _record("mse", (pred, target), out, bwd)
    return out


def append_token(x: Tensor, token: Tensor) -> Tensor:
    """Append one learned vector to every sequence: (B,T,D)+(D,) -> (B,T+1,D)."""
    if x.data.ndim != 3 or token.data.ndim != 1:
        raise ShapeError(f"append_token expects (B,T,D) and (D,), got {x.shape} and {token.shape}")
    B, T, D = x.shape
    if token.shape[0] != D:
        raise ShapeError(f"token width {token.shape[0]} != sequence width {D}")
    _same_dtype("append_token", x, token)
    tail = np.broadcast_to(token.data, (B, 1, D))
    out = Tensor(np.concatenate([x.data, tail], axis=1))

    def bwd(dout, needs):
        dx = dout[:, :T, :] if needs[0] else None
        dtok = dout[:, T, :].sum(axis=0) if needs[1] else None
        return dx, dtok

    _record("append_token", (x, token), out, bwd)
    return out


def select_position(x: Tensor, index: int) -> Tensor:
    """Pick one sequence position: (B,T,D) -> (B,D)."""
    if x.data.ndim != 3:
        raise ShapeError(f"select_position expects (B,T,D), got {x.shape}")
    B, T, D = x.shape
    if not -T <= index < T:
        raise ShapeError(f"position {index} out of range for length {T}")
    out = Tensor(x.data[:, index, :].copy())
    shape, dt = x.shape, x.data.dtype

    def bwd(dout, needs):
        if not needs[0]:
            return (None,)
        dx = np.zeros(shape, dtype=dt)
        dx[:, index, :] = dout
        return (dx,)

    _record("select_position", (x,), out, bwd)
    return out
