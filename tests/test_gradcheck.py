"""The checker itself, plus per-kernel gradient verification in float64.

Every composite block the encoder/decoders use gets a finite-difference pass
here; the full-model check lives in the acceptance suite.
"""

import numpy as np
import pytest

from patchcast.errors import NumericError
from patchcast.numerics import (
    NormState,
    Tensor,
    add,
    append_token,
    causal_attention,
    grad_check,
    linear,
    linear_relu,
    matmul,
    mse,
    normalize,
    relu,
    reshape,
    residual,
    scale,
    select_position,
)
from patchcast.numerics.ops import _record

F64 = np.float64


def _p(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True, dtype=F64)


def test_passes_on_quadratic():
    rng = np.random.default_rng(0)
    params = {"w": _p(rng, (4,))}
    target = Tensor(np.zeros(4), dtype=F64)
    report = grad_check(lambda: mse(params["w"], target), params)
    assert report.passed, str(report)
    assert report.max_rel_error < 1e-6


def test_detects_ten_percent_error():
    # identity forward with a deliberately inflated backward rule
    def crooked_identity(x):
        out = Tensor(x.data.copy(), dtype=x.dtype)
        _record("crooked_identity", (x,), out, lambda dout, needs: (1.1 * dout,))
        return out

    rng = np.random.default_rng(1)
    params = {"w": _p(rng, (3,))}
    target = Tensor(rng.normal(size=3), dtype=F64)
    report = grad_check(lambda: mse(crooked_identity(params["w"]), target), params)
    assert not report.passed
    assert report.max_rel_error > 0.05


def test_non_finite_probe_is_reported():
    def fragile(x):
        data = np.where(x.data > 1.0, np.inf, x.data)
        out = Tensor(data, dtype=x.dtype)
        _record("fragile", (x,), out, lambda dout, needs: (dout,))
        return out

    params = {"w": Tensor(np.array([0.9995]), requires_grad=True, dtype=F64)}
    target = Tensor(np.zeros(1), dtype=F64)
    with pytest.raises(NumericError, match="w"):
        grad_check(lambda: mse(fragile(params["w"]), target), params)


def test_matmul_add_relu_chain():
    rng = np.random.default_rng(2)
    params = {"w": _p(rng, (5, 3)), "b": _p(rng, (3,))}
    x = Tensor(rng.normal(size=(4, 5)), dtype=F64)
    target = Tensor(rng.normal(size=(4, 3)), dtype=F64)

    def f():
        return mse(relu(add(matmul(x, params["w"]), params["b"])), target)

    report = grad_check(f, params)
    assert report.passed, str(report)


@pytest.mark.parametrize("x_shape", [(4, 5), (2, 3, 5)])
def test_linear_gradients(x_shape):
    rng = np.random.default_rng(9)
    params = {"x": _p(rng, x_shape), "w": _p(rng, (5, 3)), "b": _p(rng, (3,))}
    target = Tensor(rng.normal(size=x_shape[:-1] + (3,)), dtype=F64)

    def f():
        return mse(linear(params["x"], params["w"], params["b"]), target)

    report = grad_check(f, params)
    assert report.passed, str(report)


def test_causal_attention_gradients():
    rng = np.random.default_rng(4)
    params = {k: _p(rng, (2, 5, 8)) for k in ("q", "k", "v")}
    target = Tensor(rng.normal(size=(2, 5, 8)), dtype=F64)

    def f():
        return mse(causal_attention(params["q"], params["k"], params["v"], 2), target)

    report = grad_check(f, params)
    assert report.passed, str(report)


@pytest.mark.parametrize("kind,mode", [
    ("layer", "train"),
    ("batch", "train"),
    ("batch", "infer"),
])
def test_normalize_gradients(kind, mode):
    rng = np.random.default_rng(5)
    params = {
        "x": _p(rng, (6, 4)),
        "gain": Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True, dtype=F64),
        "bias": _p(rng, (4,)),
    }
    target = Tensor(rng.normal(size=(6, 4)), dtype=F64)
    state = NormState(
        running_mean=rng.normal(size=4),
        running_var=rng.uniform(0.5, 2.0, size=4),
    )

    def f():
        normed = normalize(params["x"], kind, params["gain"], params["bias"],
                           state=state, mode=mode)
        return mse(normed, target)

    report = grad_check(f, params)
    assert report.passed, str(report)


@pytest.mark.parametrize("kind,mode", [
    ("batch", "train"),
    ("batch", "infer"),
    ("layer", "train"),
])
def test_residual_gradients(kind, mode):
    rng = np.random.default_rng(9)
    params = {
        "h": _p(rng, (2, 3, 4)),
        "x": _p(rng, (2, 3, 5)),
        "w": _p(rng, (5, 4)),
        "b": _p(rng, (4,)),
        "gain": Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True, dtype=F64),
        "bias": _p(rng, (4,)),
    }
    target = Tensor(rng.normal(size=(2, 3, 4)), dtype=F64)
    state = NormState(running_mean=rng.normal(size=4), running_var=rng.uniform(0.5, 2.0, size=4))

    def f():
        p = params
        out = residual(p["h"], p["x"], p["w"], p["b"], kind, p["gain"], p["bias"], state, mode)
        return mse(out, target)

    report = grad_check(f, params)
    assert report.passed, str(report)


def test_linear_relu_gradients():
    rng = np.random.default_rng(12)
    params = {"x": _p(rng, (2, 3, 4)), "w": _p(rng, (4, 6)), "b": _p(rng, (6,))}
    target = Tensor(rng.normal(size=(2, 3, 6)), dtype=F64)

    def f():
        return mse(linear_relu(params["x"], params["w"], params["b"])[0], target)

    x, w, b = (params[k].data for k in ("x", "w", "b"))
    assert np.abs(x @ w + b).min() > 1e-2  # no unit within the probe's reach of its kink
    report = grad_check(f, params)
    assert report.passed, str(report)


def test_sequence_plumbing_gradients():
    rng = np.random.default_rng(6)
    params = {"x": _p(rng, (2, 3, 4)), "tok": _p(rng, (4,))}
    target = Tensor(rng.normal(size=(2, 4)), dtype=F64)

    def f():
        seq = append_token(params["x"], params["tok"])
        return mse(select_position(seq, 3), target)

    report = grad_check(f, params)
    assert report.passed, str(report)


def test_reshape_scale_gradients():
    rng = np.random.default_rng(7)
    params = {"x": _p(rng, (3, 4))}
    target = Tensor(rng.normal(size=(12,)), dtype=F64)

    def f():
        return mse(scale(reshape(params["x"], (12,)), 0.7), target)

    report = grad_check(f, params)
    assert report.passed, str(report)


def test_report_is_printable():
    rng = np.random.default_rng(8)
    params = {"w": _p(rng, (2,))}
    target = Tensor(np.zeros(2), dtype=F64)
    report = grad_check(lambda: mse(params["w"], target), params)
    text = str(report)
    assert "max rel err" in text and "PASS" in text
