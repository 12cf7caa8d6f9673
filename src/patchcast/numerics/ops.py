"""Primitive differentiable operations, each a kernel plus a taped wrapper.

The kernel of an op (``linear_kernel``, ``normalize_kernel``, ...) works on
bare numpy arrays: it validates shapes and dtypes, computes the forward value
and hands back the arrays the backward rule needs.  The wrapper of the same
name without the suffix takes Tensors, runs the kernel, wraps its output in a
Tensor and, when a tape is open, records a closure over the kernel's saved
arrays.  So each op's forward math exists once, in its kernel.  Backward
rules are hand-derived; the gradient checker in ``gradcheck`` is the
referee.

Model bodies are written once, against a :class:`Forward` vocabulary:
``TAPED`` (the wrappers, over Tensors) or ``PLAIN`` (the kernels, over
arrays).  :func:`forward_ops` picks one by a single rule: ``TAPED`` when a
tape is open on the calling thread, ``PLAIN`` otherwise.  The plain path
builds no Tensor, closure or record per op; only the body's results become
Tensors.

Every projection is one GEMM over the flattened leading axes plus the
bias, and the model records one op per sublayer: ``linear`` for a bare
projection, ``linear_relu`` for a hidden layer and ``residual`` for a
post-norm residual sublayer, h + normalize(linear(x)).  A fused op runs the
kernels of its parts and composes their backward rules (``_linear_rule``,
``_normalize_rule``), so its values and gradients are bitwise those of the
unfused chain; its record keeps only the arrays those rules read, and the
intermediates no rule reads are freed when the op returns.  ReLU propagates
NaN, so a non-finite value reaches the model's outputs and the loss.  Scanning each op
output for NaN/Inf is an opt-in debug mode, set for the whole process with
``set_debug_checks``; the kernels run the scan, so it covers both paths.  It
is off by default, and then the callers check at the boundaries instead (see
``tensor``).

Shape glossary used below: B batch, T sequence length, D model width,
h head count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..errors import ContractError, DegenerateBatchError, ShapeError
from .tensor import Tensor, check_finite, current_tape, TapeRecord

NORM_KINDS = ("batch", "layer")
NORM_MODES = ("train", "infer")
EPS = 1e-5  # the variance floor of every norm
MOMENTUM = 0.1  # the weight of a train-mode batch's statistics in the running ones


def _record(op: str, inputs: tuple, out: Tensor, backward_fn) -> None:
    tape = current_tape()
    if tape is None:
        return
    needs = tuple(t.requires_grad or tape.produced(t) for t in inputs)
    tape.records.append(TapeRecord(op, inputs, out, backward_fn, needs))
    tape._produced.add(id(out))


def _same_dtype(op: str, *arrays) -> None:
    """Raise ContractError unless every array has the first one's dtype.

    Hot kernels compare the dtypes inline and call this only to raise.
    """
    dt = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != dt:
            names = sorted({a.dtype.name for a in arrays})
            raise ContractError(f"{op}: mixed dtypes {names}")


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
    ad, bd = a.data, b.data
    c = ad @ bd
    check_finite("matmul", c)
    out = Tensor(c)

    def bwd(dout, needs):
        da = dout @ bd.T if needs[0] else None
        db = ad.T @ dout if needs[1] else None
        return da, db

    _record("matmul", (a, b), out, bwd)
    return out


def linear_kernel(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X @ W + b over the last axis, as one GEMM on a (N, D_in) view of X."""
    if x.ndim < 1 or w.ndim != 2:
        raise ShapeError(f"linear expects (..., D_in) and 2-D weights, got {x.shape} and {w.shape}")
    d_in, d_out = w.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear inner dims differ: {x.shape} @ {w.shape}")
    if b.shape != (d_out,):
        raise ShapeError(f"linear bias must have shape ({d_out},), got {b.shape}")
    if w.dtype != x.dtype or b.dtype != x.dtype:
        _same_dtype("linear", x, w, b)
    y = x.reshape(-1, d_in) @ w
    y += b
    y = y.reshape(x.shape[:-1] + (d_out,))
    check_finite("linear", y)
    return y


def _linear_rule(x: np.ndarray, w: np.ndarray):
    """The backward of ``linear_kernel(x, w, b)``: ``(dout, needs) -> (dx, dw, db)``.

    dX = dY @ W^T, dW = X^T @ dY, db = dY summed over the flattened rows.
    """
    in_shape = x.shape
    d_in, d_out = w.shape
    flat = x.reshape(-1, d_in)

    def rule(dout, needs):
        d2 = dout.reshape(-1, d_out)
        dx = (d2 @ w.T).reshape(in_shape) if needs[0] else None
        dw = flat.T @ d2 if needs[1] else None
        db = d2.sum(axis=0) if needs[2] else None
        return dx, dw, db

    return rule


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Y = X @ W + b over the last axis: (..., D_in) -> (..., D_out), one record."""
    out = Tensor(linear_kernel(x.data, w.data, b.data))
    _record("linear", (x, w, b), out, _linear_rule(x.data, w.data))
    return out


def linear_relu_kernel(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple:
    """(relu(X @ W + b), X @ W + b): a hidden layer and its pre-activation."""
    pre = linear_kernel(x, w, b)
    return relu_kernel(pre), pre


def linear_relu(x: Tensor, w: Tensor, b: Tensor) -> tuple:
    """(relu(X @ W + b), X @ W + b) as Tensors, with one record for the first.

    Bitwise ``relu(linear(x, w, b))``.  The rule masks with ``y > 0``, which
    holds exactly where ``pre > 0`` (NaN included), so the record keeps no
    pre-activation; ``pre`` is handed back for ``taps`` only, and nothing
    else holds it.
    """
    y, pre = linear_relu_kernel(x.data, w.data, b.data)
    out = Tensor(y)
    lin = _linear_rule(x.data, w.data)

    def bwd(dout, needs):
        return lin(dout * (y > 0), needs)

    _record("linear_relu", (x, w, b), out, bwd)
    return out, Tensor(pre)


def add_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype != b.dtype:
        _same_dtype("add", a, b)
    try:
        y = a + b
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    check_finite("add", y)
    return y


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting; gradients reduce back."""
    out = Tensor(add_kernel(a.data, b.data))
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
    y = x.data * c
    check_finite("scale", y)
    out = Tensor(y)

    def bwd(dout, needs):
        return (dout * c if needs[0] else None,)

    _record("scale", (x,), out, bwd)
    return out


def relu_kernel(x: np.ndarray) -> np.ndarray:
    y = np.maximum(x, 0)
    check_finite("relu", y)
    return y


def relu(x: Tensor) -> Tensor:
    """max(x, 0).  NaN propagates (a NaN input gives a NaN output); -0.0 maps
    to +0.0.  The gradient passes where x > 0 and is zero elsewhere."""
    xd = x.data
    out = Tensor(relu_kernel(xd))

    def bwd(dout, needs):
        return (dout * (xd > 0) if needs[0] else None,)

    _record("relu", (x,), out, bwd)
    return out


def reshape_kernel(x: np.ndarray, shape: tuple) -> np.ndarray:
    """A view of ``x`` in ``shape``; every dimension explicit and >= 0."""
    shape = tuple(int(n) for n in shape)
    if min(shape, default=0) < 0 or math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} ({x.size} elements) to {shape}")
    y = x.reshape(shape)
    check_finite("reshape", y)
    return y


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = Tensor(reshape_kernel(x.data, shape))
    in_shape = x.shape

    def bwd(dout, needs):
        return (dout.reshape(in_shape) if needs[0] else None,)

    _record("reshape", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# attention


@functools.lru_cache(maxsize=16)
def _causal_mask(T: int, dtype: np.dtype) -> np.ndarray:
    """Read-only (T, T) additive mask: -inf above the diagonal, 0 elsewhere."""
    mask = np.triu(np.full((T, T), -np.inf, dtype=dtype), k=1)
    mask.flags.writeable = False
    return mask


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, T, D) -> (B, h, T, D/h), a view."""
    B, T, D = a.shape
    return a.reshape(B, T, n_heads, D // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(B, h, T, hd) -> (B, T, h*hd)."""
    B, h, T, hd = a.shape
    return a.transpose(0, 2, 1, 3).reshape(B, T, h * hd)


def causal_attention_kernel(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int):
    """Multi-head causal attention; returns (out, (qh, kh, vh, weights, scale)).

    The softmax runs in place over the score array, which becomes the
    (B, h, T, T) weights.
    """
    if q.ndim != 3:
        raise ShapeError(f"attention expects (B, T, D) inputs, got {q.shape}")
    if not (q.shape == k.shape == v.shape):
        raise ShapeError(f"attention q/k/v shapes differ: {q.shape} {k.shape} {v.shape}")
    if k.dtype != q.dtype or v.dtype != q.dtype:
        _same_dtype("causal_attention", q, k, v)
    B, T, D = q.shape
    if n_heads < 1 or D % n_heads != 0:
        raise ShapeError(f"width {D} not divisible by n_heads={n_heads}")
    qh, kh, vh = _split_heads(q, n_heads), _split_heads(k, n_heads), _split_heads(v, n_heads)
    inv = 1.0 / math.sqrt(D // n_heads)  # python float: a numpy scalar would upcast float32
    w = qh @ kh.transpose(0, 1, 3, 2)
    w *= inv
    w += _causal_mask(T, q.dtype)
    w -= w.max(axis=-1, keepdims=True)  # diagonal is never masked, so the max is finite
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    y = _merge_heads(w @ vh)
    check_finite("causal_attention", y)
    return y, (qh, kh, vh, w, inv)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Fused multi-head attention with a strict causal mask.

    q, k, v: (B, T, D) with D divisible by n_heads.  Position i attends to
    positions <= i only; masked scores are -inf before the softmax, so masked
    weights are exactly zero and output row i is bitwise independent of any
    row > i.
    """
    y, (qh, kh, vh, w, inv) = causal_attention_kernel(q.data, k.data, v.data, n_heads)
    out = Tensor(y)

    def bwd(dout, needs):
        do_h = _split_heads(dout, n_heads)
        dw = do_h @ vh.transpose(0, 1, 3, 2)
        ds = w * (dw - (w * dw).sum(axis=-1, keepdims=True))  # softmax backward
        dq = _merge_heads((ds @ kh) * inv) if needs[0] else None
        dk = _merge_heads((ds.transpose(0, 1, 3, 2) @ qh) * inv) if needs[1] else None
        dv = _merge_heads(w.transpose(0, 1, 3, 2) @ do_h) if needs[2] else None
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


def inverse_std(var: np.ndarray) -> np.ndarray:
    """1 / sqrt(var + EPS), elementwise: the scale every norm applies."""
    return 1.0 / np.sqrt(var + EPS)


def _norm_op(kind: str, mode: str) -> str:
    if kind == "layer":
        return "layer_norm"
    return "batch_norm" if mode == "train" else "batch_norm_infer"


def normalize_kernel(
    x: np.ndarray,
    kind: str,
    g: np.ndarray,
    b: np.ndarray,
    state: NormState | None = None,
    mode: str = "train",
    inv_std: np.ndarray | None = None,
    keep: bool = True,
):
    """Normalize the last axis, then ``g * xhat + b``; returns (y, xhat, inv_std).

    See :func:`normalize` for the kinds and modes.  With ``keep`` false the
    affine map runs in place over the normalized array and ``xhat`` comes
    back as None.
    """
    if kind not in NORM_KINDS:
        raise ContractError(f"unknown norm kind {kind!r}")
    if mode not in NORM_MODES:
        raise ContractError(f"unknown norm mode {mode!r}")
    if x.ndim < 2:
        raise ShapeError(f"normalize expects ndim >= 2, got {x.shape}")
    d = x.shape[-1]
    if g.shape != (d,) or b.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},), got {g.shape} and {b.shape}")
    if g.dtype != x.dtype or b.dtype != x.dtype:
        _same_dtype("normalize", x, g, b)
    # variance as the mean square of the centred array: x.var's arithmetic, one pass fewer
    if kind == "layer":
        xhat = x - x.mean(axis=-1, keepdims=True)
        inv_std = inverse_std((xhat * xhat).mean(axis=-1, keepdims=True))
    elif state is None:
        raise ContractError("batch-kind normalize requires running statistics")
    elif mode == "train":
        if x.shape[0] < 2:
            raise DegenerateBatchError(
                f"batch-kind norm in train mode needs a batch of >= 2, got {x.shape[0]}"
            )
        pool = tuple(range(x.ndim - 1))
        n = math.prod(x.shape[:-1])
        mean = x.mean(axis=pool)
        xhat = x - mean
        var = (xhat * xhat).mean(axis=pool)  # biased: used for the normalization itself
        inv_std = inverse_std(var)
        # unbiased variance feeds the running buffer
        state.running_mean += MOMENTUM * (mean - state.running_mean)
        state.running_var += MOMENTUM * (var * n / (n - 1) - state.running_var)
    else:
        xhat = x - state.running_mean
        if inv_std is None:
            inv_std = inverse_std(state.running_var)
    xhat *= inv_std
    if keep:
        y = g * xhat
    else:
        y, xhat = xhat, None
        y *= g
    y += b
    check_finite(_norm_op(kind, mode), y)
    return y, xhat, inv_std


def normalize(
    x: Tensor,
    kind: str,
    gain: Tensor,
    bias: Tensor,
    state: NormState | None = None,
    mode: str = "train",
    inv_std: np.ndarray | None = None,
) -> Tensor:
    """Normalize features (last axis) then apply a learned affine map.

    kind="batch": statistics pool over every axis except the last.  Train mode
    uses batch statistics (biased variance) and folds them into ``state`` with
    momentum ``MOMENTUM`` (unbiased variance goes into the running buffer); infer
    mode reads the running statistics, and takes ``inv_std`` as their
    ``inverse_std`` when the caller has it already.  Train mode requires a
    leading-axis extent of at least 2.

    kind="layer": statistics are per sample over the last axis; ``mode`` and
    ``state`` are irrelevant.  Every kind scales by ``inverse_std(var)``.
    """
    g = gain.data
    y, xhat, inv_std = normalize_kernel(x.data, kind, g, bias.data, state, mode, inv_std)
    out = Tensor(y)
    op = _norm_op(kind, mode)
    _record(op, (x, gain, bias), out, _normalize_rule(op, g, xhat, inv_std))
    return out


def _normalize_rule(op: str, g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray):
    """The backward of a norm named ``op``: ``(dout, needs) -> (dx, dgain, dbias)``.

    Reads the gain, the normalized input ``xhat`` and the inverse std only.
    """
    pool = tuple(range(xhat.ndim - 1))

    if op == "batch_norm_infer":  # running stats are constants: affine in x

        def rule(dout, needs):
            dx = dout * (g * inv_std) if needs[0] else None
            dg = (dout * xhat).sum(axis=pool) if needs[1] else None
            db = dout.sum(axis=pool) if needs[2] else None
            return dx, dg, db

        return rule

    axes = (-1,) if op == "layer_norm" else pool  # the axes the statistics pool

    def rule(dout, needs):
        dg = (dout * xhat).sum(axis=pool) if needs[1] else None
        db = dout.sum(axis=pool) if needs[2] else None
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

    return rule


def _check_stream(h: np.ndarray, z: np.ndarray) -> None:
    if h.shape != z.shape:
        raise ShapeError(f"residual: stream {h.shape} and branch {z.shape} differ")


def residual_kernel(
    h: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    kind: str,
    g: np.ndarray,
    bias: np.ndarray,
    state: NormState | None = None,
    mode: str = "train",
    inv_std: np.ndarray | None = None,
) -> np.ndarray:
    """h + normalize(X @ W + b): the value of :func:`residual`, on arrays."""
    z = linear_kernel(x, w, b)
    _check_stream(h, z)
    return add_kernel(h, normalize_kernel(z, kind, g, bias, state, mode, inv_std, keep=False)[0])


def residual(
    h: Tensor,
    x: Tensor,
    w: Tensor,
    b: Tensor,
    kind: str,
    gain: Tensor,
    bias: Tensor,
    state: NormState | None = None,
    mode: str = "train",
    inv_std: np.ndarray | None = None,
) -> Tensor:
    """A post-norm residual sublayer, h + normalize(linear(x, w, b)), as one record.

    Bitwise ``add(h, normalize(linear(x, w, b), kind, gain, bias, ...))``,
    with the norm arguments of :func:`normalize`; ``h`` must have the
    linear output's shape.  The rule runs the norm rule, then the linear
    rule, and passes ``dout`` to ``h`` unchanged.  The record keeps what
    those rules read (x, W, the gain, ``xhat`` and the inverse std); the
    linear and norm outputs exist only during this call.
    """
    wd, g = w.data, gain.data
    z = linear_kernel(x.data, wd, b.data)
    _check_stream(h.data, z)
    y, xhat, inv_std = normalize_kernel(z, kind, g, bias.data, state, mode, inv_std)
    out = Tensor(add_kernel(h.data, y))
    norm = _normalize_rule(_norm_op(kind, mode), g, xhat, inv_std)
    lin = _linear_rule(x.data, wd)

    def bwd(dout, needs):
        dz, dg, dbias = norm(dout, (any(needs[1:4]), needs[4], needs[5]))
        dx, dw, db = (None,) * 3 if dz is None else lin(dz, needs[1:4])
        return (dout if needs[0] else None), dx, dw, db, dg, dbias

    _record("residual", (h, x, w, b, gain, bias), out, bwd)
    return out


# ---------------------------------------------------------------------------
# loss / sequence plumbing


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements; returns a scalar tensor."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    _same_dtype("mse", pred, target)
    diff = pred.data - target.data
    loss = np.asarray(np.mean(diff * diff), dtype=pred.data.dtype)
    check_finite("mse", loss)
    out = Tensor(loss)
    n = diff.size

    def bwd(dout, needs):
        base = dout * (2.0 / n) * diff
        dp = base if needs[0] else None
        dt = -base if needs[1] else None
        return dp, dt

    _record("mse", (pred, target), out, bwd)
    return out


def append_token_kernel(x: np.ndarray, token: np.ndarray) -> np.ndarray:
    if x.ndim != 3 or token.ndim != 1:
        raise ShapeError(f"append_token expects (B,T,D) and (D,), got {x.shape} and {token.shape}")
    B, T, D = x.shape
    if token.shape[0] != D:
        raise ShapeError(f"token width {token.shape[0]} != sequence width {D}")
    if token.dtype != x.dtype:
        _same_dtype("append_token", x, token)
    y = np.concatenate([x, np.broadcast_to(token, (B, 1, D))], axis=1)
    check_finite("append_token", y)
    return y


def append_token(x: Tensor, token: Tensor) -> Tensor:
    """Append one learned vector to every sequence: (B,T,D)+(D,) -> (B,T+1,D)."""
    out = Tensor(append_token_kernel(x.data, token.data))
    T = x.shape[1]

    def bwd(dout, needs):
        dx = dout[:, :T, :] if needs[0] else None
        dtok = dout[:, T, :].sum(axis=0) if needs[1] else None
        return dx, dtok

    _record("append_token", (x, token), out, bwd)
    return out


def select_position_kernel(x: np.ndarray, index: int) -> np.ndarray:
    if x.ndim != 3:
        raise ShapeError(f"select_position expects (B,T,D), got {x.shape}")
    T = x.shape[1]
    if not -T <= index < T:
        raise ShapeError(f"position {index} out of range for length {T}")
    y = x[:, index, :].copy()
    check_finite("select_position", y)
    return y


def select_position(x: Tensor, index: int) -> Tensor:
    """Pick one sequence position: (B,T,D) -> (B,D)."""
    out = Tensor(select_position_kernel(x.data, index))
    shape, dt = x.shape, x.data.dtype

    def bwd(dout, needs):
        if not needs[0]:
            return (None,)
        dx = np.zeros(shape, dtype=dt)
        dx[:, index, :] = dout
        return (dx,)

    _record("select_position", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# the two forward paths


class Forward(NamedTuple):
    """The op vocabulary a model body is written in, on one of two paths.

    ``TAPED``'s values are Tensors and its ops are the recording wrappers;
    ``PLAIN``'s values are bare arrays and its ops are the kernels.  Besides
    the ops: ``lift(value, dtype)`` turns a body input (a Tensor or anything
    array-like) into a value of the path, ``params(mapping)`` maps names to
    parameter values, and ``tensor(value)`` gives the Tensor a body returns.
    """

    lift: Callable
    params: Callable
    tensor: Callable
    linear: Callable
    linear_relu: Callable
    residual: Callable
    add: Callable
    reshape: Callable
    append_token: Callable
    select_position: Callable
    causal_attention: Callable
    normalize: Callable


def _lift_tensor(value, dtype) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=dtype))


def _lift_array(value, dtype) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.ascontiguousarray(value, dtype=dtype)


def _plain_normalize(x, kind, g, b, state=None, mode="train", inv_std=None):
    return normalize_kernel(x, kind, g, b, state, mode, inv_std, keep=False)[0]


TAPED = Forward(
    lift=_lift_tensor,
    params=lambda tensors: tensors,
    tensor=lambda t: t,
    linear=linear,
    linear_relu=linear_relu,
    residual=residual,
    add=add,
    reshape=reshape,
    append_token=append_token,
    select_position=select_position,
    causal_attention=causal_attention,
    normalize=normalize,
)

PLAIN = Forward(
    lift=_lift_array,
    params=lambda tensors: {name: t.data for name, t in tensors.items()},
    tensor=Tensor,
    linear=linear_kernel,
    linear_relu=linear_relu_kernel,
    residual=residual_kernel,
    add=add_kernel,
    reshape=reshape_kernel,
    append_token=append_token_kernel,
    select_position=select_position_kernel,
    causal_attention=lambda q, k, v, n_heads: causal_attention_kernel(q, k, v, n_heads)[0],
    normalize=_plain_normalize,
)


def forward_ops() -> Forward:
    """``TAPED`` when a tape is open on this thread, else ``PLAIN``."""
    return PLAIN if current_tape() is None else TAPED
