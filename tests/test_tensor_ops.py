"""Forward-value tests for the primitive kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from patchcast.errors import ContractError, DegenerateBatchError, ShapeError
from patchcast.numerics import (
    NormState,
    Tape,
    Tensor,
    add,
    append_token,
    backward,
    causal_attention,
    linear,
    linear_relu,
    matmul,
    mse,
    normalize,
    relu,
    residual,
    reshape,
    scale,
    select_position,
)
from patchcast.numerics.ops import (
    EPS,
    _causal_mask,
    linear_relu_kernel,
    normalize_kernel,
    reshape_kernel,
    residual_kernel,
)


def _matmul_oracle(a, b):
    # brute force, no BLAS: the reference the kernel is judged against
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        eye = np.eye(2, dtype=np.float32)
        assert_array_equal(matmul(Tensor(eye), Tensor(a)).data, a)

    def test_row_times_column(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert_allclose(out.data, [[11.0]])

    def test_against_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(4, 5)).astype(np.float32)
            b = rng.normal(size=(5, 3)).astype(np.float32)
            got = matmul(Tensor(a), Tensor(b)).data
            assert_allclose(got, _matmul_oracle(a, b), atol=1e-6)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2))))

    def test_rejects_mixed_dtype(self):
        a = Tensor(np.ones((2, 2)), dtype=np.float32)
        b = Tensor(np.ones((2, 2)), dtype=np.float64)
        with pytest.raises(ContractError):
            matmul(a, b)


def _composite_linear(x, w, b):
    # the flatten -> matmul -> add -> unflatten chain that linear replaces
    if x.data.ndim == 2:
        return add(matmul(x, w), b)
    lead = x.shape[:-1]
    flat = reshape(x, (int(np.prod(lead)), x.shape[-1]))
    return reshape(add(matmul(flat, w), b), lead + (w.shape[1],))


class TestLinear:
    def _run(self, op, x, w, b, tok, target):
        params = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        with Tape() as tape:
            y = op(*params)
            if y.data.ndim == 3:
                # append_token hands back a non-contiguous slice as dY
                y = append_token(y, Tensor(tok))
            loss = mse(y, Tensor(target))
            backward(tape, loss)
        return y.data, [p.grad for p in params]

    @pytest.mark.parametrize("x_shape", [(6, 5), (3, 4, 5)])
    def test_bitwise_equal_to_composite(self, x_shape):
        rng = np.random.default_rng(11)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=(5, 7)).astype(np.float32)
        b = rng.normal(size=7).astype(np.float32)
        tok = rng.normal(size=7).astype(np.float32)
        out_shape = (3, 5, 7) if len(x_shape) == 3 else (6, 7)
        target = rng.normal(size=out_shape).astype(np.float32)
        got, got_grads = self._run(linear, x, w, b, tok, target)
        ref, ref_grads = self._run(_composite_linear, x, w, b, tok, target)
        assert got.dtype == np.float32
        assert np.array_equal(got, ref)
        for g, r in zip(got_grads, ref_grads):
            assert g.dtype == r.dtype and np.array_equal(g, r)

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((2, 3), (4, 5), (5,)),  # inner dims differ
        ((2, 4), (4, 5), (4,)),  # bias width
        ((2, 4), (4, 5), (1, 5)),  # bias rank
        ((2, 4), (4, 5, 1), (5,)),  # weights not 2-D
    ])
    def test_rejects_bad_shapes(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))

    def test_rejects_mixed_dtype(self):
        x = Tensor(np.ones((2, 2)), dtype=np.float32)
        w = Tensor(np.ones((2, 2)), dtype=np.float64)
        b = Tensor(np.ones(2), dtype=np.float32)
        with pytest.raises(ContractError):
            linear(x, w, b)

    def test_nan_weight_is_reported_as_linear(self):
        w = np.ones((4, 3), np.float32)
        w[1, 2] = np.nan
        x = Tensor(np.ones((2, 5, 4), np.float32))
        with Tape() as tape:
            y = linear(x, Tensor(w), Tensor(np.zeros(3, np.float32)))
            scale(y, 2.0)
        assert tape.first_nonfinite() == 0 and tape.records[0].op == "linear"


def _residual_chain(h, x, w, b, kind, gain, bias, state, mode):
    # the linear -> normalize -> add chain that residual replaces
    return add(h, normalize(linear(x, w, b), kind, gain, bias, state, mode))


def _linear_relu_chain(x, w, b):
    pre = linear(x, w, b)
    return relu(pre), pre


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFusedOps:
    """Each fused op is bitwise its unfused chain: values, statistics, gradients."""

    @staticmethod
    def _arrays(seed, *shapes):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=shape).astype(np.float32) for shape in shapes]

    @pytest.mark.parametrize("kind, mode", [("batch", "train"), ("batch", "infer"), ("layer", "train")])
    def test_residual_bitwise_equal_to_chain(self, kind, mode):
        # h feeds a projection first, as in an encoder layer, so its gradient
        # accumulates from two records in the same order on both sides
        h0, wq, bq, w, b, gain, bias, mean0, target = self._arrays(
            21, (3, 5, 4), (4, 6), (6,), (6, 4), (4,), (4,), (4,), (4,), (3, 5, 4)
        )
        var0 = np.abs(mean0) + 0.5

        def run(op):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (h0, wq, bq, w, b, gain, bias)]
            h, lwq, lbq, lw, lb, lg, lbias = leaves
            state = NormState(mean0.copy(), var0.copy())
            with Tape() as tape:
                out = op(h, linear(h, lwq, lbq), lw, lb, kind, lg, lbias, state, mode)
                backward(tape, mse(out, Tensor(target)))
            return out.data, state, [t.grad for t in leaves]

        got, got_state, got_grads = run(residual)
        ref, ref_state, ref_grads = run(_residual_chain)
        assert got.dtype == np.float32 and _bitwise(got, ref)
        assert _bitwise(got_state.running_mean, ref_state.running_mean)
        assert _bitwise(got_state.running_var, ref_state.running_var)
        for g, r in zip(got_grads, ref_grads):
            assert _bitwise(g, r)
        plain_state = NormState(mean0.copy(), var0.copy())
        plain = residual_kernel(h0, linear(Tensor(h0), Tensor(wq), Tensor(bq)).data, w, b,
                                kind, gain, bias, plain_state, mode)
        assert _bitwise(plain, ref)
        assert _bitwise(plain_state.running_var, ref_state.running_var)

    def test_linear_relu_bitwise_equal_to_chain(self):
        x0, w, b, target = self._arrays(22, (3, 5, 4), (4, 6), (6,), (3, 5, 6))
        x0[0, 0] = 0.0  # with b zeroed there, pre sits exactly on the kink
        b[:2] = 0.0

        def run(op):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (x0, w, b)]
            with Tape() as tape:
                y, pre = op(*leaves)
                backward(tape, mse(y, Tensor(target)))
            return y.data, pre.data, [t.grad for t in leaves]

        got, got_pre, got_grads = run(linear_relu)
        ref, ref_pre, ref_grads = run(_linear_relu_chain)
        assert (ref_pre == 0).any() and (ref_pre < 0).any()
        assert _bitwise(got, ref) and _bitwise(got_pre, ref_pre)
        for g, r in zip(got_grads, ref_grads):
            assert _bitwise(g, r)
        plain, plain_pre = linear_relu_kernel(x0, w, b)
        assert _bitwise(plain, ref) and _bitwise(plain_pre, ref_pre)

    def test_linear_relu_mask_propagates_nan_like_relu(self):
        x = Tensor(np.array([[1.0], [-1.0], [np.nan]], np.float32), requires_grad=True)
        w = Tensor(np.ones((1, 1), np.float32), requires_grad=True)
        b = Tensor(np.zeros(1, np.float32), requires_grad=True)
        with Tape() as tape:
            y, pre = linear_relu(x, w, b)
        assert np.isnan(y.data[2, 0]) and np.isnan(pre.data[2, 0])
        dout = np.ones((3, 1), np.float32)
        dx, _, _ = tape.records[0].backward_fn(dout, (True, True, True))
        assert_array_equal(dx, [[1.0], [0.0], [0.0]])  # NaN > 0 is False, as for relu

    def test_residual_records_one_op_and_checks_the_stream(self):
        x, w, b = (Tensor(a) for a in self._arrays(23, (4, 3), (3, 2), (2,)))
        gain, bias = Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32))
        with Tape() as tape:
            residual(Tensor(np.zeros((4, 2), np.float32)), x, w, b, "layer", gain, bias)
        assert [rec.op for rec in tape.records] == ["residual"]
        for bad in ((4, 3), (1, 2), (2,)):
            with pytest.raises(ShapeError, match="residual"):
                residual(Tensor(np.zeros(bad, np.float32)), x, w, b, "layer", gain, bias)
            with pytest.raises(ShapeError, match="residual"):
                residual_kernel(np.zeros(bad, np.float32), x.data, w.data, b.data,
                                "layer", gain.data, bias.data)


class TestNormalize:
    def test_batch_train_two_point_column(self):
        x = Tensor([[1.0], [3.0]])
        out = normalize(
            x, "batch", Tensor([1.0]), Tensor([0.0]), state=NormState.initial(1)
        )
        assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)

    def test_layer_constant_row_maps_to_zero(self):
        x = Tensor([[5.0, 5.0, 5.0]])
        out = normalize(x, "layer", Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32)))
        assert_allclose(out.data, np.zeros((1, 3)), atol=1e-7)

    def test_batch_infer_with_fresh_state_is_near_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6)).astype(np.float32)
        out = normalize(
            Tensor(x), "batch", Tensor(np.ones(6, np.float32)), Tensor(np.zeros(6, np.float32)),
            state=NormState.initial(6), mode="infer",
        )
        assert_allclose(out.data, x, atol=1e-4)

    def test_batch_train_standardizes_features(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(loc=rng.normal(), scale=2.0, size=(16, 5))
            out = normalize(
                Tensor(x, dtype=np.float64), "batch",
                Tensor(np.ones(5), dtype=np.float64),
                Tensor(np.zeros(5), dtype=np.float64),
                state=NormState.initial(5, dtype=np.float64),
            ).data
            assert_allclose(out.mean(axis=0), np.zeros(5), atol=1e-10)
            assert_allclose(out.var(axis=0), np.ones(5), atol=1e-4)

    def test_layer_standardizes_rows(self):
        rng = np.random.default_rng(6)
        x = rng.normal(scale=3.0, size=(4, 9, 8))
        out = normalize(
            Tensor(x, dtype=np.float64), "layer",
            Tensor(np.ones(8), dtype=np.float64),
            Tensor(np.zeros(8), dtype=np.float64),
        ).data
        assert_allclose(out.mean(axis=-1), np.zeros((4, 9)), atol=1e-10)
        assert_allclose(out.var(axis=-1), np.ones((4, 9)), atol=1e-4)

    def test_gain_bias_applied(self):
        x = Tensor([[1.0], [3.0]])
        out = normalize(
            x, "batch", Tensor([2.0]), Tensor([10.0]), state=NormState.initial(1)
        )
        assert_allclose(out.data, [[8.0], [12.0]], atol=1e-3)

    def test_running_stats_update(self):
        x = np.array([[1.0, 10.0], [3.0, 14.0]], dtype=np.float32)
        state = NormState.initial(2)
        normalize(Tensor(x), "batch", Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)), state=state)
        mu = x.mean(axis=0)
        var_unbiased = x.var(axis=0, ddof=1)
        assert_allclose(state.running_mean, 0.1 * mu, atol=1e-6)
        assert_allclose(state.running_var, 0.9 * 1.0 + 0.1 * var_unbiased, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 7), (5, 9, 24), (3, 17, 64)])
    @pytest.mark.parametrize("kind", ["layer", "batch"])
    def test_statistics_bitwise_equal_to_numpy_var(self, kind, shape, dtype):
        # the reference computes the variance with x.var, as a second pass
        rng = np.random.default_rng(11)
        x = rng.normal(loc=rng.normal(), scale=3.0, size=shape).astype(dtype)
        d = shape[-1]
        g = rng.uniform(0.5, 1.5, d).astype(dtype)
        b = rng.normal(size=d).astype(dtype)
        axes = -1 if kind == "layer" else tuple(range(x.ndim - 1))
        mu = x.mean(axis=axes, keepdims=kind == "layer")
        var = x.var(axis=axes, keepdims=kind == "layer")
        expected = g * ((x - mu) * (1.0 / np.sqrt(var + EPS))) + b
        mean0, var0 = rng.normal(size=d).astype(dtype), rng.uniform(0.5, 2.0, d).astype(dtype)
        ref_mean, ref_var = mean0.copy(), var0.copy()
        if kind == "batch":
            n = x.size // d
            ref_mean += 0.1 * (mu - ref_mean)
            ref_var += 0.1 * (var * n / (n - 1) - ref_var)
        for keep in (True, False):
            state = NormState(mean0.copy(), var0.copy())
            y = normalize_kernel(x, kind, g, b, state, "train", keep=keep)[0]
            assert_array_equal(y, expected)
            assert_array_equal(state.running_mean, ref_mean)
            assert_array_equal(state.running_var, ref_var)

    def test_infer_does_not_touch_state(self):
        state = NormState.initial(2)
        before = (state.running_mean.copy(), state.running_var.copy())
        normalize(
            Tensor(np.ones((3, 2), np.float32)), "batch",
            Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)),
            state=state, mode="infer",
        )
        assert_array_equal(state.running_mean, before[0])
        assert_array_equal(state.running_var, before[1])

    def test_degenerate_batch_rejected_in_train(self):
        x = Tensor(np.ones((1, 4), np.float32))
        with pytest.raises(DegenerateBatchError):
            normalize(x, "batch", Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32)),
                      state=NormState.initial(4))

    def test_single_row_fine_in_infer(self):
        x = Tensor(np.ones((1, 4), np.float32))
        out = normalize(x, "batch", Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32)),
                        state=NormState.initial(4), mode="infer")
        assert out.shape == (1, 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            normalize(Tensor(np.ones((2, 2), np.float32)), "group",
                      Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)))

    def test_batch_requires_state(self):
        with pytest.raises(ContractError):
            normalize(Tensor(np.ones((2, 2), np.float32)), "batch",
                      Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)))


class TestMse:
    def test_zero_on_identical(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        b = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert mse(a, b).item() == 0.0

    def test_unit_offset(self):
        assert_allclose(mse(Tensor([0.0, 0.0]), Tensor([1.0, 1.0])).item(), 1.0)

    def test_mean_of_squares(self):
        out = mse(Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 0.0, 0.0]))
        assert_allclose(out.item(), (1 + 4 + 9) / 3, rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]]))


class TestPlumbing:
    def test_add_broadcasts(self):
        out = add(Tensor(np.ones((2, 3, 4), np.float32)), Tensor(np.arange(4, dtype=np.float32)))
        assert out.shape == (2, 3, 4)
        assert_allclose(out.data[1, 2], [1, 2, 3, 4])

    def test_add_rejects_incompatible(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))

    def test_scale(self):
        assert_allclose(scale(Tensor([2.0, -4.0]), 0.5).data, [1.0, -2.0])

    def test_relu(self):
        assert_allclose(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_bitwise_matches_masked_select(self, dtype):
        vals = [-0.0, 0.0, np.inf, -np.inf, -3.0, 2.5, -1e-30, 1e-30, 7.0, -0.0] * 7
        x = np.array(vals, dtype=dtype)
        for view in (x, x[1::3]):
            out = relu(Tensor(view)).data
            ref = np.where(view > 0, view, 0)
            assert out.dtype == ref.dtype == dtype
            assert np.array_equal(out.view(np.uint8), np.ascontiguousarray(ref).view(np.uint8))
            assert not np.signbit(out).any()

    def test_relu_propagates_nan(self):
        out = relu(Tensor(np.array([np.nan, -1.0, 1.0], np.float32)))
        assert np.isnan(out.data[0])
        assert_array_equal(out.data[1:], [0.0, 1.0])

    def test_relu_backward_masks_with_the_recorded_input(self):
        vals = [-0.0, 0.0, np.nan, -3.0, 2.5, -1e-30, 1e-30, 7.0]
        x = Tensor(np.array(vals, np.float32), requires_grad=True)
        dout = np.linspace(-2.0, 2.0, len(vals)).astype(np.float32)
        with Tape() as tape:
            relu(x)
        (dx,) = tape.records[0].backward_fn(dout, (True,))
        ref = dout * (x.data > 0)
        assert dx.dtype == ref.dtype == np.float32
        assert np.array_equal(dx.view(np.uint8), ref.view(np.uint8))

    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(12, dtype=np.float32))
        assert reshape(x, (3, 4)).shape == (3, 4)
        with pytest.raises(ShapeError):
            reshape(x, (5, 2))

    @pytest.mark.parametrize("shape", [(-1, -6), (-2, -3), (6, -1), (-1,)])
    def test_reshape_rejects_negative_dimensions(self, shape):
        x = Tensor(np.arange(6, dtype=np.float32))
        with pytest.raises(ShapeError, match="cannot reshape"):
            reshape(x, shape)
        with pytest.raises(ShapeError, match="cannot reshape"):
            reshape_kernel(x.data, shape)

    def test_append_token(self):
        x = Tensor(np.zeros((2, 3, 4), np.float32))
        tok = Tensor(np.arange(4, dtype=np.float32))
        out = append_token(x, tok)
        assert out.shape == (2, 4, 4)
        assert_allclose(out.data[0, 3], [0, 1, 2, 3])
        assert_allclose(out.data[1, 3], [0, 1, 2, 3])
        assert_array_equal(out.data[:, :3, :], x.data)

    def test_append_token_width_mismatch(self):
        with pytest.raises(ShapeError):
            append_token(Tensor(np.zeros((2, 3, 4), np.float32)), Tensor(np.zeros(5, np.float32)))

    def test_select_position(self):
        x = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        out = select_position(x, 2)
        assert out.shape == (2, 4)
        assert_allclose(out.data[0], [8, 9, 10, 11])
        with pytest.raises(ShapeError):
            select_position(x, 3)


class TestCausalAttention:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        q, k, v = (Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32)) for _ in range(3))
        assert causal_attention(q, k, v, 4).shape == (2, 5, 8)

    def test_first_position_sees_only_itself(self):
        # with T=1-style masking, row 0 output is v row 0 exactly (weight 1)
        rng = np.random.default_rng(1)
        q, k, v = (Tensor(rng.normal(size=(1, 4, 6)).astype(np.float32)) for _ in range(3))
        out = causal_attention(q, k, v, 2)
        assert_allclose(out.data[0, 0], v.data[0, 0], atol=1e-6)

    def test_bitwise_causality_rowwise(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            B, T, D, h = 2, 6, 8, 2
            q = rng.normal(size=(B, T, D)).astype(np.float32)
            k = rng.normal(size=(B, T, D)).astype(np.float32)
            v = rng.normal(size=(B, T, D)).astype(np.float32)
            base = causal_attention(Tensor(q), Tensor(k), Tensor(v), h).data
            kk = int(rng.integers(1, T))
            q2, k2, v2 = q.copy(), k.copy(), v.copy()
            q2[:, kk:] += 1.0
            k2[:, kk:] -= 2.0
            v2[:, kk:] *= 3.0
            pert = causal_attention(Tensor(q2), Tensor(k2), Tensor(v2), h).data
            assert_array_equal(base[:, :kk], pert[:, :kk])

    def test_uniform_weights_average_prefix(self):
        # q=k=0 makes all unmasked scores equal, so row i averages v[0..i]
        B, T, D = 1, 5, 4
        v = np.arange(T * D, dtype=np.float64).reshape(1, T, D)
        out = causal_attention(
            Tensor(np.zeros((B, T, D)), dtype=np.float64),
            Tensor(np.zeros((B, T, D)), dtype=np.float64),
            Tensor(v, dtype=np.float64), 1,
        )
        for i in range(T):
            assert_allclose(out.data[0, i], v[0, : i + 1].mean(axis=0), atol=1e-12)

    def test_head_divisibility(self):
        x = Tensor(np.ones((1, 2, 6)))
        with pytest.raises(ShapeError):
            causal_attention(x, x, x, 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_is_built_once_and_read_only(self, dtype):
        mask = _causal_mask(5, np.dtype(dtype))
        assert _causal_mask(5, np.dtype(dtype)) is mask
        assert mask.dtype == dtype and not mask.flags.writeable
        assert_array_equal(mask, np.triu(np.full((5, 5), -np.inf, dtype=dtype), k=1))


class TestFirstNonfinite:
    def test_finite_outputs_give_none(self):
        x = Tensor(np.array([[1.0, -2.0]], np.float32))
        with Tape() as tape:
            assert tape.first_nonfinite() is None
            relu(linear(x, Tensor(np.eye(2, dtype=np.float32)), Tensor(np.zeros(2, np.float32))))
        assert len(tape) == 2 and tape.first_nonfinite() is None

    def test_masked_attention_on_finite_inputs_gives_none(self):
        # the mask's -inf scores stay inside the kernel; only outputs count
        q = Tensor(np.random.default_rng(0).normal(size=(2, 5, 4)).astype(np.float32))
        with Tape() as tape:
            causal_attention(q, q, q, 2)
        assert tape.first_nonfinite() is None

    def test_names_the_first_record_in_execution_order(self):
        x = Tensor(np.array([1.0, np.inf, 3.0], np.float32))
        with Tape() as tape:
            y = relu(reshape(Tensor(np.ones(3, np.float32)), (3,)))
            relu(add(x, y))
        assert tape.first_nonfinite() == 2 and tape.records[2].op == "add"
