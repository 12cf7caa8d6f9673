"""Optimizer semantics: bias correction, decoupled decay, state hygiene."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import patchcast.train as train_mod
from patchcast.errors import ContractError, NumericError
from patchcast.model import ModelConfig, init_params
from patchcast.numerics import AdamWConfig, AdamWState, Tape, Tensor, adamw_step, backward
from patchcast.numerics.adamw import BETA1, BETA2, EPS
from patchcast.selfcheck import dual_loss_setup
from patchcast.synth import PhenomenonSpec, generate_quantity

# one step from theta=1 with grad 1 at the default hyperparameters:
# m_hat = v_hat = 1, so theta' = 1 - lr*(1/(1+eps) + wd*1) = 0.99899000001
ONE_STEP_FROM_UNIT = 0.99899000001


def _unit_param(dtype):
    p = {"w": Tensor(np.array([1.0]), requires_grad=True, dtype=dtype)}
    p["w"].grad = np.ones(1, dtype=dtype)
    return p


def test_single_step_frozen_value_float64():
    params = _unit_param(np.float64)
    state = AdamWState.initial(params)
    adamw_step(params, state)
    assert_allclose(params["w"].data, [ONE_STEP_FROM_UNIT], atol=1e-9)
    assert state.step == 1


def test_single_step_float32_agrees_to_working_precision():
    params = _unit_param(np.float32)
    adamw_step(params, AdamWState.initial(params))
    assert_allclose(params["w"].data, [0.998990], atol=1e-6)


def test_zero_grad_zero_decay_is_identity():
    params = {"w": Tensor([5.0, -3.0], requires_grad=True)}
    params["w"].grad = np.zeros(2, dtype=np.float32)
    cfg = AdamWConfig(weight_decay=0.0)
    before = params["w"].data.copy()
    adamw_step(params, AdamWState.initial(params, cfg))
    assert_array_equal(params["w"].data, before)


def test_decay_only_shrinks_weights():
    # zero gradient, nonzero decay: update term vanishes, decay remains
    params = {"w": Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
    params["w"].grad = np.zeros(1, dtype=np.float64)
    adamw_step(params, AdamWState.initial(params))
    assert_allclose(params["w"].data, [1.0 - 1e-3 * 0.01], atol=1e-12)


def test_descends_a_quadratic():
    # minimize w^2 from w=1 with wd=0; reference trajectory computed by hand
    params = {"w": Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
    state = AdamWState.initial(params, AdamWConfig(weight_decay=0.0))
    seen = [1.0]
    for _ in range(10):
        params["w"].grad = 2.0 * params["w"].data
        adamw_step(params, state)
        seen.append(float(params["w"].data[0]))
    assert all(b < a for a, b in zip(seen, seen[1:]))
    assert_allclose(seen[-1], 0.990003, atol=1e-5)


def test_two_steps_match_scalar_transcription():
    # grads 1.0 then 2.0; plain-python rewrite of the update rule as oracle
    lr, b1, b2, eps, wd = 1e-3, 0.9, 0.999, 1e-8, 0.01
    w, m, v = 0.5, 0.0, 0.0
    for t, g in ((1, 1.0), (2, 2.0)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * ((m / (1 - b1**t)) / ((v / (1 - b2**t)) ** 0.5 + eps) + wd * w)

    params = {"w": Tensor(np.array([0.5]), requires_grad=True, dtype=np.float64)}
    state = AdamWState.initial(params)
    for g in (1.0, 2.0):
        params["w"].grad = np.array([g])
        adamw_step(params, state)
    assert_allclose(params["w"].data, [w], atol=1e-14)


def test_missing_grad_names_parameter():
    params = {
        "ok": Tensor([1.0], requires_grad=True),
        "stale": Tensor([1.0], requires_grad=True),
    }
    params["ok"].grad = np.ones(1, dtype=np.float32)
    state = AdamWState.initial(params)
    with pytest.raises(ContractError, match="stale"):
        adamw_step(params, state)


def test_unknown_parameter_rejected():
    params = {"w": Tensor([1.0], requires_grad=True)}
    params["w"].grad = np.ones(1, dtype=np.float32)
    state = AdamWState.initial({})
    with pytest.raises(ContractError, match="w"):
        adamw_step(params, state)


def test_disjoint_param_groups_step_independently():
    a = {"w": Tensor([1.0], requires_grad=True, dtype=np.float64)}
    b = {"w": Tensor([1.0], requires_grad=True, dtype=np.float64)}
    for group in (a, b):
        group["w"].grad = np.ones(1)
    sa, sb = AdamWState.initial(a), AdamWState.initial(b)
    adamw_step(a, sa)
    adamw_step(a, sa)
    adamw_step(b, sb)
    assert sa.step == 2
    assert sb.step == 1
    assert a["w"].data[0] != b["w"].data[0]


def reference_step(params, m, v, t, cfg):
    """The per-tensor update: each tensor's own temporaries, one at a time."""
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, (data, g) in params.items():
        m[name] *= BETA1
        m[name] += (1.0 - BETA1) * g
        v[name] *= BETA2
        v[name] += (1.0 - BETA2) * (g * g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        data -= cfg.lr * (m_hat / (np.sqrt(v_hat) + EPS) + cfg.weight_decay * data)


FLAGSHIP = ModelConfig(l_patch=64, n_patches=16, d_model=64, n_layers=6, n_heads=4,
                       d_ff=256, l_pred=128, norm_kind="batch", seed=0)
SMALL = ModelConfig(l_patch=8, n_patches=8, d_model=16, n_layers=2, n_heads=2, d_ff=24,
                    l_pred=16, seed=3)


@pytest.mark.parametrize("cfg, dtype", [(FLAGSHIP, np.float32), (SMALL, np.float64)],
                         ids=["flagship-float32", "small-float64"])
def test_blocked_step_matches_per_tensor_loop(cfg, dtype):
    # the flagship arena spans several blocks and ends in a partial one
    params = init_params(cfg, dtype=dtype).named_parameters()
    opt_cfg = AdamWConfig(lr=3e-3, weight_decay=0.05)
    state = AdamWState.initial(params, opt_cfg)
    ref = {n: (p.data.copy(), None) for n, p in params.items()}
    m = {n: np.zeros_like(p.data) for n, p in params.items()}
    v = {n: np.zeros_like(p.data) for n, p in params.items()}
    rng = np.random.default_rng(5)
    for t in range(1, 6):
        for name, p in params.items():
            p.grad = rng.normal(0.0, 0.1, size=p.shape).astype(dtype)
            ref[name] = (ref[name][0], p.grad.copy())
        adamw_step(params, state)
        reference_step(ref, m, v, t, opt_cfg)
    for name, p in params.items():
        assert_array_equal(p.data, ref[name][0], err_msg=name)
    assert_array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
    assert_array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))


def test_mixed_dtypes_rejected():
    params = {
        "a": Tensor([1.0], requires_grad=True, dtype=np.float32),
        "b": Tensor([1.0], requires_grad=True, dtype=np.float64),
    }
    with pytest.raises(ContractError, match="float32.*float64"):
        AdamWState.initial(params)


def test_free_standing_tensors_are_packed_into_one_buffer():
    params = {"a": Tensor([1.0, 2.0], requires_grad=True), "b": Tensor([[3.0]], requires_grad=True)}
    state = AdamWState.initial(params)
    assert_array_equal(state.flat, [1.0, 2.0, 3.0])
    assert params["a"].data.base is state.flat and params["b"].data.base is state.flat
    assert params["b"].shape == (1, 1)


def test_step_must_cover_the_state_set():
    params = {"a": Tensor([1.0], requires_grad=True), "b": Tensor([2.0], requires_grad=True)}
    state = AdamWState.initial(params)
    params["a"].grad = np.ones(1, dtype=np.float32)
    with pytest.raises(ContractError, match="1 of the 2"):
        adamw_step({"a": params["a"]}, state)


def test_rebound_tensor_rejected():
    params = {"w": Tensor([1.0], requires_grad=True)}
    state = AdamWState.initial(params)
    params["w"].data = np.array([1.0], dtype=np.float32)
    params["w"].grad = np.ones(1, dtype=np.float32)
    with pytest.raises(ContractError, match="no longer lives"):
        adamw_step(params, state)


def _swept(model, forward):
    """Run one reverse sweep of the dual loss; returns the parameters."""
    params = model.named_parameters()
    tape = Tape()
    with tape:
        loss = forward()[0]
    backward(tape, loss)
    return params


def test_backward_writes_gradients_into_the_optimizer_slots():
    model, forward = dual_loss_setup("batch", "train")
    state = AdamWState.initial(model.named_parameters())
    params = _swept(model, forward)
    twin, twin_forward = dual_loss_setup("batch", "train")  # no optimizer, no homes
    free = _swept(twin, twin_forward)
    for name, p in params.items():
        assert p.grad is state.slots[name][1], name
        assert np.shares_memory(p.grad, state.grad), name
        assert free[name].grad_home is None
        assert p.grad.tobytes() == free[name].grad.tobytes(), name


def test_hand_set_gradients_step_like_swept_ones():
    model, forward = dual_loss_setup("batch", "train")
    twin, _ = dual_loss_setup("batch", "train")
    state = AdamWState.initial(model.named_parameters())
    twin_state = AdamWState.initial(twin.named_parameters())
    params = _swept(model, forward)
    by_hand = twin.named_parameters()
    for name, p in by_hand.items():
        p.grad = params[name].grad.copy()  # not the twin's slot
    adamw_step(params, state)
    adamw_step(by_hand, twin_state)
    assert state.grad.tobytes() == twin_state.grad.tobytes()
    assert model.arena.tobytes() == twin.arena.tobytes()


def test_finetune_gives_frozen_tensors_no_gradient(monkeypatch):
    spec = PhenomenonSpec(
        "trended_random_walk", 20.0, 64.0, {"drift_per_s": 0.05, "step_std": 0.02}, seed=9
    )
    model = init_params(SMALL)
    AdamWState.initial(model.named_parameters())  # frozen tensors have homes too
    seen = []
    real_step = train_mod.adamw_step

    def inspecting_step(params, state):
        for name, p in model.named_parameters().items():
            if name in params:
                assert p.grad is state.slots[name][1], name
            else:
                assert p.grad is None, f"{name} got a gradient under freeze"
        seen.append(state.step)
        real_step(params, state)

    monkeypatch.setattr(train_mod, "adamw_step", inspecting_step)
    train_mod.finetune(
        model,
        generate_quantity(spec),
        train_mod.TrainConfig(steps=2, batch_size=4, seed=1, target_mode="finetune_forecast"),
    )
    assert seen == [0, 1]
    for name, p in model.named_parameters().items():
        assert p.grad is None, name
        if name.startswith("dec_forecast."):
            assert p.grad_home is None, name  # released with the loop's optimizer


def _gradients(params, rng, dtype):
    return {n: rng.normal(0.0, 0.1, size=p.shape).astype(dtype) for n, p in params.items()}


def test_gradient_whose_squares_overflow_steps_like_the_per_tensor_loop():
    # each square fits float32, their sum does not: the finiteness probe's dot
    # overflows, so the exact scan decides, and it passes without a warning
    params = init_params(SMALL).named_parameters()
    opt_cfg = AdamWConfig(lr=3e-3, weight_decay=0.05)
    state = AdamWState.initial(params, opt_cfg)
    ref = {n: (p.data.copy(), None) for n, p in params.items()}
    m = {n: np.zeros_like(p.data) for n, p in params.items()}
    v = {n: np.zeros_like(p.data) for n, p in params.items()}
    grads = _gradients(params, np.random.default_rng(7), np.float32)
    grads["layers.0.ff.w1"].flat[:4] = 1.5e19
    for name, p in params.items():
        p.grad = grads[name]
        ref[name] = (ref[name][0], grads[name].copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adamw_step(params, state)
        reference_step(ref, m, v, 1, opt_cfg)
    with np.errstate(over="ignore"):
        assert not np.isfinite(state.grad @ state.grad)
    for name, p in params.items():
        assert_array_equal(p.data, ref[name][0], err_msg=name)
    assert_array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_gradient_raises_before_any_write(value):
    params = init_params(SMALL).named_parameters()
    state = AdamWState.initial(params)
    rng = np.random.default_rng(8)
    for _ in range(2):  # a step first, so the moments are not all zero
        for name, g in _gradients(params, rng, np.float32).items():
            params[name].grad = g
        adamw_step(params, state)
    before = state.flat.copy(), state.m.copy(), state.v.copy(), state.step
    for name, g in _gradients(params, rng, np.float32).items():
        params[name].grad = g
    params["dec_forecast.b2"].grad[-1] = value
    with pytest.raises(NumericError, match="'dec_forecast.b2'"):
        adamw_step(params, state)
    assert_array_equal(state.flat, before[0])
    assert_array_equal(state.m, before[1])
    assert_array_equal(state.v, before[2])
    assert state.step == before[3]
