"""Reverse-sweep engine behavior: seeding, accumulation, lifetime, errors."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from patchcast.errors import ContractError, UnknownNodeError
from patchcast.numerics import (
    Tape,
    Tensor,
    add,
    backward,
    matmul,
    mse,
    scale,
    select_position,
    zero_grads,
)
from patchcast.numerics.ops import _record


def sum_all(x):
    """Sum of all elements as one tape record: a scalar loss whose gradient is all ones."""
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))
    _record("sum_all", (x,), out, lambda dout, needs: (np.full(x.shape, dout, dtype=x.dtype),))
    return out


def test_sum_all_gradient_is_ones():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    tape = Tape()
    with tape:
        loss = sum_all(x)
    backward(tape, loss)
    assert_array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_chain_rule_matches_closed_form():
    # loss = mse(W x, y) on 1x1: dL/dW = 2 x (W x - y)
    W = Tensor([[3.0]], requires_grad=True)
    x = Tensor([[2.0]])
    y = Tensor([[1.0]])
    tape = Tape()
    with tape:
        loss = mse(matmul(W, x), y)
    backward(tape, loss)
    assert_allclose(loss.item(), 25.0)
    assert_allclose(W.grad, [[20.0]])


def test_fanout_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tape = Tape()
    with tape:
        loss = sum_all(add(x, x))
    backward(tape, loss)
    assert_allclose(x.grad, [2.0, 2.0])


def test_reused_across_branches():
    x = Tensor([1.0], requires_grad=True)
    tape = Tape()
    with tape:
        a = scale(x, 3.0)
        b = scale(x, 4.0)
        loss = sum_all(add(a, b))
    backward(tape, loss)
    assert_allclose(x.grad, [7.0])


def test_loss_not_on_tape_rejected():
    x = Tensor([1.0], requires_grad=True)
    with Tape():
        loss = sum_all(x)
    other = Tape()
    with pytest.raises(UnknownNodeError):
        backward(other, loss)


def test_non_scalar_loss_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tape = Tape()
    with tape:
        y = add(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_intermediate_grads_freed_parameter_grads_kept():
    w = Tensor([[1.0, 2.0]], requires_grad=True)
    tape = Tape()
    with tape:
        h = scale(w, 0.5)
        loss = mse(h, Tensor([[1.0, 0.0]]))
    backward(tape, loss)
    assert w.grad is not None
    assert h.grad is None  # transient buffer released after the sweep


def test_unused_branch_is_skipped():
    x = Tensor(np.ones((1, 3, 2)), requires_grad=True)
    tape = Tape()
    with tape:
        picked = select_position(x, 1)
        _dead_end = select_position(x, 0)  # never feeds the loss
        loss = sum_all(picked)
    backward(tape, loss)
    expected = np.zeros((1, 3, 2), dtype=np.float32)
    expected[:, 1, :] = 1.0
    assert_array_equal(x.grad, expected)


def test_no_tape_means_no_recording():
    x = Tensor([1.0], requires_grad=True)
    y = add(x, x)  # plain forward, no active tape
    assert y.shape == (1,)
    tape = Tape()
    with pytest.raises(UnknownNodeError):
        backward(tape, y)


def test_grads_accumulate_across_backward_calls():
    x = Tensor([1.0, 1.0], requires_grad=True)
    for _ in range(2):
        tape = Tape()
        with tape:
            loss = sum_all(x)
        backward(tape, loss)
    assert_allclose(x.grad, [2.0, 2.0])
    zero_grads([x])
    assert x.grad is None


def test_zero_grads_accepts_dict():
    params = {"w": Tensor([1.0], requires_grad=True)}
    params["w"].grad = np.ones(1, dtype=np.float32)
    zero_grads(params)
    assert params["w"].grad is None
