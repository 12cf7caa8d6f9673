"""AdamW with decoupled weight decay, as one blocked pass over flat buffers.

Bias-corrected first/second moments, decaying at the constants ``BETA1`` and
``BETA2``, and weight decay applied directly to the pre-update parameter value
rather than folded into the gradient (only ``lr`` and ``wd`` are settable):

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + EPS) + wd * theta)

The trainable tensors must tile one flat parameter buffer in dict order: a
model's arena or a contiguous slice of it, updated where it lives.  No other
set is accepted, so the state never moves a tensor's ``.data``.  The moments
and the gradients are matching flat buffers.  Each tensor's slot in the
gradient buffer is its gradient home (``Tensor.grad_home``), so the reverse
sweep writes its gradient there and nothing is gathered.  A step copies
only a ``.grad`` that is not its slot (one set by hand), checks the gradient
buffer for NaN/Inf (``all_finite``: one dot product unless its sum of
squares is not finite), then applies the update block by block, with every
intermediate written into two block-sized scratch buffers, so the working
set stays in cache.  Elementwise
float ufuncs give the same per-element result however the array is grouped,
so the step is bitwise equal to the per-tensor update that runs the same
operations in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NumericError
from .tensor import all_finite, tile

# elements per block: g, m, v, theta and both scratch slices fit in L2 together
_BLOCK = 1 << 16

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to sqrt(v_hat) before dividing


@dataclass
class AdamWConfig:
    lr: float = 1e-3
    weight_decay: float = 0.01


def _tiled_buffer(arrays: list):
    """The 1-D buffer ``arrays`` tile back to back in order, or None."""
    base = arrays[0].base
    if base is None or base.ndim != 1 or not base.flags.c_contiguous:
        return None
    start = pos = arrays[0].ctypes.data
    for a in arrays:
        if a.base is not base or not a.flags.c_contiguous or a.ctypes.data != pos:
            return None
        pos += a.nbytes
    lo = (start - base.ctypes.data) // base.itemsize
    return base[lo : lo + (pos - start) // base.itemsize]


@dataclass
class AdamWState:
    """Flat moments and gradient buffer over one flat parameter buffer.

    ``slots`` maps each parameter name to ``(data, grad_view)``: the array the
    tensor's ``.data`` must still be, and its slot in ``grad``.  ``flat`` is
    the parameter buffer those arrays tile; ``m``, ``v`` and ``grad`` share
    its layout.
    """

    config: AdamWConfig
    flat: np.ndarray
    slots: dict
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    scratch: tuple
    step: int = 0

    @classmethod
    def initial(cls, params: dict, config: AdamWConfig | None = None) -> "AdamWState":
        """Zero moments over ``params``, in dict order.

        The tensors must tile one buffer in that order (a model's arena or a
        contiguous slice of it); any other set, the empty one included,
        raises ContractError.  Each tensor's slot in ``grad`` becomes its
        gradient home.
        """
        config = config or AdamWConfig()
        tensors = list(params.values())
        flat = _tiled_buffer([p.data for p in tensors]) if tensors else None
        if flat is None:
            raise ContractError(
                "optimizer parameters must tile one flat buffer in dict order "
                "(a model's arena or a contiguous slice of it)"
            )
        grad = np.zeros_like(flat)
        grad_views = tile(grad, [p.shape for p in tensors])
        for p, home in zip(tensors, grad_views):
            p.grad_home = home
        block = min(_BLOCK, flat.size)
        return cls(
            config=config,
            flat=flat,
            slots={n: (p.data, g) for (n, p), g in zip(params.items(), grad_views)},
            m=np.zeros_like(flat),
            v=np.zeros_like(flat),
            grad=grad,
            scratch=(np.empty(block, flat.dtype), np.empty(block, flat.dtype)),
        )


def adamw_step(params: dict, state: AdamWState) -> None:
    """Apply one update in place to every tensor in ``params``.

    ``params`` must be the set the state was built over.  Every parameter must
    carry a gradient (run backward first); a missing one raises ContractError
    naming the parameter, as does a name the state does not know or a tensor
    whose ``.data`` no longer lives in the state's buffer.  A NaN/Inf gradient
    raises NumericError naming the first such parameter before the moments,
    the parameters or the step count change.  Parameters whose gradient is
    identically zero still decay.
    """
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient; run backward first")
        slot = state.slots.get(name)
        if slot is None:
            raise ContractError(f"parameter {name!r} unknown to this optimizer state")
        if p.data is not slot[0]:
            raise ContractError(f"parameter {name!r} no longer lives in the optimizer's buffer")
        if p.grad is not slot[1]:
            np.copyto(slot[1], p.grad)  # a gradient set by hand, not swept into its home
    if len(params) != len(state.slots):
        raise ContractError(
            f"step got {len(params)} of the {len(state.slots)} parameters this state updates"
        )
    if not all_finite(state.grad):
        bad = next(n for n, (_, g) in state.slots.items() if not np.isfinite(g).all())
        raise NumericError(f"non-finite gradient for parameter {bad!r}")

    cfg = state.config
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    n = state.flat.size
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        theta, g = state.flat[lo:hi], state.grad[lo:hi]
        m, v = state.m[lo:hi], state.v[lo:hi]
        a, b = state.scratch[0][: hi - lo], state.scratch[1][: hi - lo]
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=a)
        m += a
        v *= BETA2
        np.multiply(g, g, out=a)
        a *= 1.0 - BETA2
        v += a
        np.divide(m, bc1, out=a)  # m_hat
        np.divide(v, bc2, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        np.multiply(theta, cfg.weight_decay, out=b)
        a += b
        a *= cfg.lr
        theta -= a
