"""Reverse-mode automatic differentiation over numpy arrays.

The recording structure is a Wengert list: every primitive operation appends
one record, in execution order, to the active ``Tape``.  Execution order is a
topological order by construction, so ``backward`` is a single reverse sweep
over the records — no graph search, no recursion.

Conventions
-----------
- float32 is the working precision everywhere; float64 is available (pass
  ``dtype=np.float64`` when building tensors) so gradient checks can run with
  trustworthy finite differences.
- A ``Tape`` has a single writer: one thread records ops and runs the reverse
  sweep.  Distinct tapes over disjoint tensors are independent.
- Whether a tape is open on the calling thread is the one rule that picks a
  forward path (``ops.forward_ops``).  With a tape open, the model runs on
  Tensors and every op is recorded; with none, it runs the ops' array
  kernels and builds Tensors only for what it returns.  Both paths run the
  same kernels, so their values are bitwise equal.
- Gradients accumulate into ``Tensor.grad``; zeroing between optimizer steps
  is the caller's job (see ``zero_grads``).
- A tensor may have a gradient home: a preallocated array, its slot in an
  optimizer's flat gradient buffer (``AdamWState.initial`` assigns it).  The
  sweep then writes the tensor's gradient there instead of allocating one:
  the first contribution is copied in, later ones are added in place, which
  is bitwise what ``grad + g`` gives.  ``.grad`` becomes the home itself, so
  the optimizer finds it where it updates from, and the next sweep (after
  ``zero_grads``) overwrites it; copy a ``.grad`` to keep it.
- No op scans its output for NaN/Inf.  Non-finite values are caught where
  they leave the system: the decoder outputs, the training loss, the
  gradient buffer and checkpoint load.  Once one is caught, a tape names the
  op that first produced it: ``Tape.first_nonfinite`` scans the recorded
  outputs in execution order.
- The last two check whole flat buffers with ``all_finite``: one BLAS dot
  product of the buffer with itself, whose finite result proves every
  element finite, with no boolean temporary.  Only a NaN, an Inf or finite
  values whose squares overflow make the sum non-finite, and only then does
  the exact elementwise scan run, so the answer is always the scan's.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import ContractError, UnknownNodeError

DEFAULT_DTYPE = np.float32

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense float array plus an optional gradient buffer.

    Parameters
    ----------
    data : array-like
        Values; copied/cast as needed.  Float inputs keep their precision,
        everything else is cast to float32.
    requires_grad : bool
        True for trainable parameters: their ``grad`` survives the reverse
        sweep, and optimizers read it.
    dtype : numpy dtype, optional
        Force a specific float dtype (float32 or float64).

    ``grad_home`` is None, or the array of ``data``'s shape that the reverse
    sweep accumulates this tensor's gradient into.
    """

    __slots__ = ("data", "grad", "grad_home", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None and isinstance(data, np.ndarray) and data.dtype in FLOAT_DTYPES:
            arr = data  # float arrays keep their precision
        else:
            # lists, scalars and ints become float32 unless a dtype is forced
            arr = np.asarray(data, dtype=DEFAULT_DTYPE if dtype is None else dtype)
            if arr.dtype not in FLOAT_DTYPES:
                raise ContractError(f"tensors are float32/float64 only, got {arr.dtype}")
        self.data = np.ascontiguousarray(arr)
        self.grad: Optional[np.ndarray] = None
        self.grad_home: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)

    @classmethod
    def adopt(cls, data: np.ndarray, requires_grad: bool = False) -> "Tensor":
        """Wrap ``data`` as is, unchecked: the caller guarantees a C-contiguous
        native float32/float64 ndarray (say, a view just sliced from a model's
        arena).  Skips the constructor's call and checks."""
        t = object.__new__(cls)
        t.data = data
        t.grad = None
        t.grad_home = None
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"


@dataclass
class TapeRecord:
    """One recorded primitive: inputs, output, and the backward rule.

    ``backward_fn(dout, needs)`` returns one gradient array per input (None
    where ``needs`` is False).  Returned arrays may be views; the engine never
    writes into them.
    """

    op: str
    inputs: tuple
    output: "Tensor"
    backward_fn: Callable
    needs: tuple


class Tape:
    """Ordered record of primitive ops, used as a context manager.

    While active (``with tape: ...``) every primitive op appends a record.
    Records are in execution order, which is a topological order of the
    dataflow, so one reversed pass propagates all gradients.
    """

    def __init__(self):
        self.records: list[TapeRecord] = []
        self._produced: set[int] = set()

    def __len__(self) -> int:
        return len(self.records)

    def produced(self, t: Tensor) -> bool:
        """Whether this tape recorded the op that created ``t``."""
        return id(t) in self._produced

    def first_nonfinite(self) -> Optional[int]:
        """Index of the first record, in execution order, whose output holds
        NaN or Inf; None when every output is finite.

        Only outputs count: values an op makes and drops inside its kernel,
        such as the causal mask's -inf scores, are never seen.
        """
        for i, rec in enumerate(self.records):
            if not all_finite(rec.output.data):
                return i
        return None

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _stack().pop()
        assert popped is self, "tape context exited out of order"


_local = threading.local()


def _stack() -> list:
    stack = getattr(_local, "tapes", None)
    if stack is None:
        stack = []
        _local.tapes = stack
    return stack


def current_tape() -> Optional[Tape]:
    """The innermost active tape on this thread, or None."""
    stack = _stack()
    return stack[-1] if stack else None


def all_finite(arr: np.ndarray) -> bool:
    """Whether every element of ``arr`` is finite, usually in one pass.

    A finite sum of squares proves every element finite, and one BLAS dot
    computes it with no temporary.  Only a non-finite sum (a NaN or an Inf,
    or finite values whose squares overflow) runs the exact elementwise scan,
    so this accepts exactly what ``np.isfinite(arr).all()`` accepts.  The
    overflow is expected there, so its warning is silenced.
    """
    flat = arr.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(flat @ flat):
            return True
    return bool(np.isfinite(flat).all())


# ---------------------------------------------------------------------------
# reverse sweep


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/dX into X.grad for every tensor reachable from loss.

    ``loss`` must be a scalar produced on ``tape``.  Gradient buffers of
    non-parameter intermediates are freed as soon as their record has been
    consumed; parameter gradients (requires_grad tensors) persist until the
    caller zeroes them.  A tensor with a ``grad_home`` gets its gradient
    written there (see the module notes).
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not tape.produced(loss):
        raise UnknownNodeError("loss tensor was not produced on this tape")

    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        dout = rec.output.grad
        if dout is None:
            continue  # this output never fed the loss
        grads = rec.backward_fn(dout, rec.needs)
        for t, g, need in zip(rec.inputs, grads, rec.needs):
            if not need:
                continue
            if g is None:
                raise ContractError(f"op {rec.op} returned no gradient for a needed input")
            if t.grad is None:
                if t.grad_home is None:
                    t.grad = g
                else:
                    np.copyto(t.grad_home, g)  # a copy keeps -0.0; 0.0 + g would not
                    t.grad = t.grad_home
            elif t.grad is t.grad_home:
                np.add(t.grad, g, out=t.grad)
            else:
                # never write in place: g may be a view of another grad buffer
                t.grad = t.grad + g
        if not rec.output.requires_grad:
            rec.output.grad = None  # free the intermediate


def tile(buf: np.ndarray, shapes) -> list:
    """Views of consecutive slices of the 1-D ``buf``, reshaped one per shape.

    Writing through a view writes ``buf``; the views cover ``buf`` from its
    first element on, in order, with no gap.
    """
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        view = buf[start:stop]
        views.append(view if len(shape) == 1 else view.reshape(shape))  # a slice is 1-D already
        start = stop
    return views


def zero_grads(params) -> None:
    """Drop gradient buffers of an iterable (or dict) of tensors."""
    values = params.values() if isinstance(params, dict) else params
    for t in values:
        t.grad = None
