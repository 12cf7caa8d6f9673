import contextlib
import hashlib

import numpy as np
import pytest

from patchcast.errors import (
    ConfigError,
    ContractError,
    DegenerateBatchError,
    NumericError,
    ShapeError,
)
from patchcast.model import (
    DecoderParams,
    Model,
    ModelConfig,
    decode_forecast,
    decode_reconstruct,
    encode,
    init_params,
    parameter_count,
)
from patchcast.numerics import Tape, Tensor, add, backward, mse, scale

TINY = dict(l_patch=4, n_patches=3, d_model=8, n_layers=2, n_heads=2, d_ff=12, l_pred=6)


def tiny(norm_kind="layer", seed=0, **over):
    kw = {**TINY, "norm_kind": norm_kind, "seed": seed, **over}
    return ModelConfig(**kw)


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ConfigError, match="n_heads"):
            ModelConfig(d_model=128, n_heads=5)

    def test_odd_window_rejected(self):
        # reconstruction hidden width is half the window
        with pytest.raises(ConfigError, match="even"):
            ModelConfig(l_patch=3, n_patches=3, d_model=8, n_heads=2)

    def test_bad_norm_kind(self):
        with pytest.raises(ConfigError, match="norm_kind"):
            tiny(norm_kind="instance")

    def test_nonpositive_field(self):
        with pytest.raises(ConfigError, match="n_layers"):
            tiny(n_layers=0)

    def test_defaults_match_stated_geometry(self):
        cfg = ModelConfig()
        assert cfg.context_length == 1024
        assert cfg.l_pred == 128
        assert cfg.n_layers == 6
        assert cfg.norm_kind == "batch"

    def test_dict_roundtrip(self):
        cfg = tiny(norm_kind="batch", seed=9)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ConfigError, match="dropout"):
            ModelConfig.from_dict({"dropout": 0.1})

    def test_from_dict_accepts_strings(self):
        cfg = ModelConfig.from_dict({"d_model": "16", "n_heads": "2", "norm_kind": "layer"})
        assert cfg.d_model == 16 and cfg.norm_kind == "layer"


class TestInit:
    def test_same_seed_bitwise(self):
        a = init_params(tiny(seed=5))
        b = init_params(tiny(seed=5))
        for (na, pa), (nb, pb) in zip(a.named_parameters().items(), b.named_parameters().items()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data), na

    def test_different_seed_differs(self):
        a = init_params(tiny(seed=1))
        b = init_params(tiny(seed=2))
        assert not np.array_equal(
            a.named_parameters()["patch_proj.w"].data, b.named_parameters()["patch_proj.w"].data
        )

    def test_constant_starts(self):
        m = init_params(tiny())
        params = m.named_parameters()
        assert np.all(params["layers.0.attn.bq"].data == 0)
        assert np.all(params["layers.1.norm2.gain"].data == 1)
        assert np.all(m.reconstruct.norm_bias.data == 0)

    def test_reconstruction_decoder_dims(self):
        # window 16*64=1024 -> hidden 512
        m = init_params(ModelConfig())
        assert m.reconstruct.w1.shape == (128, 512)
        assert m.reconstruct.w2.shape == (512, 1024)
        assert m.forecast.w1.shape == (128, 128)
        assert m.forecast.w2.shape == (128, 128)

    # the literal counts come from the closed form: patch proj l_patch*d + d;
    # positions (n+1)*d; summary token d; per layer 4*(d*d + d) attention +
    # 2*d norm + (d*d_ff + d_ff) + (d_ff*d + d) feedforward + 2*d norm;
    # reconstruction head 2*d + (d*h + h) + (h*o + o), o = n*l_patch, h = o/2;
    # forecast head 2*d + (d*d + d) + (d*l_pred + l_pred)
    @pytest.mark.parametrize("cfg, count", [
        (tiny(), 1440),
        (tiny(norm_kind="batch"), 1440),
        (ModelConfig(), 1_430_400),
        (ModelConfig(l_patch=32, n_patches=8, d_model=64, n_layers=3, n_heads=8, d_ff=96,
                     l_pred=16), 137_584),
    ], ids=["cfg0", "cfg1", "cfg2", "cfg3"])
    def test_count_formula_matches_enumeration(self, cfg, count):
        m = init_params(cfg)
        enumerated = sum(int(np.prod(p.shape)) for p in m.named_parameters().values())
        assert parameter_count(cfg) == enumerated == count

    def test_flagship_init_digest(self):
        # pins the names, draw order and values of a seed-0 flagship init, on
        # which saved checkpoints and every seed-0 result depend
        cfg = ModelConfig(l_patch=64, n_patches=16, d_model=64, n_layers=6, n_heads=4,
                          d_ff=256, l_pred=128, norm_kind="batch", seed=0)
        params = init_params(cfg).named_parameters()
        digest = hashlib.sha256()
        for name, p in params.items():
            digest.update(name.encode("utf-8"))
            digest.update(p.data.tobytes())
        assert len(params) == 112
        assert parameter_count(cfg) == 876_544
        assert digest.hexdigest() == (
            "eb8265501e7904ac703d0f0c49a04e4170f8298bf77c210183c0fc362f82d4cb"
        )

    def test_running_stats_only_for_batch_kind(self):
        assert init_params(tiny(norm_kind="layer")).named_running_stats() == {}
        states = init_params(tiny(norm_kind="batch")).named_running_stats()
        assert sorted(states) == [
            "layers.0.norm1", "layers.0.norm2", "layers.1.norm1", "layers.1.norm2",
        ]
        s = states["layers.0.norm1"]
        assert np.all(s.running_mean == 0) and np.all(s.running_var == 1)

    def test_dtype_opt_in(self):
        m = init_params(tiny(), dtype=np.float64)
        assert m.dtype == np.float64
        assert all(p.data.dtype == np.float64 for p in m.named_parameters().values())

    def test_parameter_names_stable(self):
        names = list(init_params(tiny()).named_parameters())
        assert names[:4] == ["patch_proj.w", "patch_proj.b", "pos_emb", "seq_token"]
        assert "layers.0.attn.wq" in names
        assert "layers.1.ff.w2" in names
        assert names[-1] == "dec_forecast.b2"


def rand_patches(cfg, batch=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (cfg.n_patches, cfg.l_patch) if batch is None else (batch, cfg.n_patches, cfg.l_patch)
    return rng.normal(size=shape).astype(np.float32)


class TestEncode:
    def test_output_has_one_extra_position(self):
        cfg = ModelConfig(norm_kind="layer")
        m = init_params(cfg)
        all_emb, seq = encode(rand_patches(cfg), m, mode="infer")
        assert all_emb.shape == (17, 128)
        assert seq.shape == (128,)
        # the summary embedding is the final row
        assert np.array_equal(seq.data, all_emb.data[16])

    def test_batched_shapes(self):
        cfg = tiny(norm_kind="batch")
        m = init_params(cfg)
        all_emb, seq = encode(rand_patches(cfg, batch=5), m, mode="train")
        assert all_emb.shape == (5, cfg.n_patches + 1, cfg.d_model)
        assert seq.shape == (5, cfg.d_model)

    def test_wrong_grid_shape(self):
        cfg = tiny()
        m = init_params(cfg)
        with pytest.raises(ShapeError):
            encode(np.zeros((cfg.n_patches + 1, cfg.l_patch), np.float32), m)
        with pytest.raises(ShapeError):
            encode(np.zeros((cfg.n_patches, cfg.l_patch + 2), np.float32), m)

    def test_batch_of_one_degenerate_in_train(self):
        cfg = tiny(norm_kind="batch")
        m = init_params(cfg)
        with pytest.raises(DegenerateBatchError):
            encode(rand_patches(cfg, batch=1), m, mode="train")

    def test_batch_of_one_fine_in_infer(self):
        cfg = tiny(norm_kind="batch")
        m = init_params(cfg)
        all_emb, _ = encode(rand_patches(cfg, batch=1), m, mode="infer")
        assert all_emb.shape == (1, 4, 8)

    def test_single_sample_needs_infer_for_batch_kind(self):
        cfg = tiny(norm_kind="batch")
        m = init_params(cfg)
        with pytest.raises(DegenerateBatchError):
            encode(rand_patches(cfg), m, mode="train")

    def test_deterministic(self):
        cfg = tiny(norm_kind="layer", seed=3)
        m = init_params(cfg)
        x = rand_patches(cfg, batch=2, seed=1)
        a, sa = encode(x, m, mode="infer")
        b, sb = encode(x, m, mode="infer")
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(sa.data, sb.data)

    def test_causality_bitwise(self):
        # perturbing patch k leaves every earlier position untouched
        cfg = ModelConfig(l_patch=8, n_patches=12, d_model=16, n_layers=3,
                          n_heads=2, d_ff=32, l_pred=4, norm_kind="layer", seed=3)
        m = init_params(cfg)
        base = rand_patches(cfg, seed=5)
        k = 9
        bumped = base.copy()
        bumped[k] += 1.0
        a, _ = encode(base, m, mode="infer")
        b, _ = encode(bumped, m, mode="infer")
        assert np.array_equal(a.data[:k], b.data[:k])
        assert not np.array_equal(a.data[k:], b.data[k:])

    def test_no_embedding_collisions(self):
        # different inputs must land on different summary embeddings
        cfg = tiny(norm_kind="layer", seed=2)
        m = init_params(cfg)
        for trial in range(100):
            rng = np.random.default_rng(trial)
            x1 = rng.normal(size=(cfg.n_patches, cfg.l_patch)).astype(np.float32)
            x2 = rng.normal(size=(cfg.n_patches, cfg.l_patch)).astype(np.float32)
            _, z1 = encode(x1, m, mode="infer")
            _, z2 = encode(x2, m, mode="infer")
            assert not np.array_equal(z1.data, z2.data)

    def test_train_mode_moves_running_stats(self):
        cfg = tiny(norm_kind="batch")
        m = init_params(cfg)
        before = m.norm_states["layers.0.norm1"].running_mean.copy()
        encode(rand_patches(cfg, batch=4), m, mode="train")
        assert not np.array_equal(m.norm_states["layers.0.norm1"].running_mean, before)

    def test_infer_mode_leaves_running_stats(self):
        cfg = tiny(norm_kind="batch")
        m = init_params(cfg)
        before = m.stats.copy()  # every norm's running statistics
        encode(rand_patches(cfg, batch=4), m, mode="infer")
        assert np.array_equal(m.stats, before)

    def test_summary_token_position_embedding_matters(self):
        cfg = tiny(norm_kind="layer")
        m = init_params(cfg)
        x = rand_patches(cfg)
        _, z1 = encode(x, m, mode="infer")
        m.named_parameters()["pos_emb"].data[cfg.n_patches] += 0.5
        _, z2 = encode(x, m, mode="infer")
        assert not np.array_equal(z1.data, z2.data)


class TestDecoders:
    def make(self, norm_kind="layer"):
        cfg = tiny(norm_kind=norm_kind)
        return cfg, init_params(cfg)

    def test_role_mismatch(self):
        _, m = self.make()
        z = np.zeros(8, np.float32)
        with pytest.raises(ContractError, match="role"):
            decode_reconstruct(z, m.forecast)
        with pytest.raises(ContractError, match="role"):
            decode_forecast(z, m.reconstruct)

    def test_output_lengths(self):
        cfg, m = self.make()
        z = np.random.default_rng(0).normal(size=8).astype(np.float32)
        assert decode_reconstruct(z, m.reconstruct).shape == (12,)   # 3*4
        assert decode_forecast(z, m.forecast).shape == (6,)

    def test_default_config_reconstruction_length(self):
        m = init_params(ModelConfig())
        z = np.zeros(128, np.float32)
        assert decode_reconstruct(z, m.reconstruct).shape == (1024,)

    def test_zero_head_weights_give_zero_output(self):
        _, m = self.make()
        m.reconstruct.w2.data[...] = 0
        m.reconstruct.b2.data[...] = 0
        for seed in range(5):
            z = np.random.default_rng(seed).normal(size=8).astype(np.float32)
            assert np.all(decode_reconstruct(z, m.reconstruct).data == 0)

    def test_scalar_horizon(self):
        cfg = tiny(l_pred=1)
        m = init_params(cfg)
        out = decode_forecast(np.zeros(8, np.float32), m.forecast)
        assert out.shape == (1,)

    def test_batched_matches_single(self):
        _, m = self.make()
        zs = np.random.default_rng(3).normal(size=(4, 8)).astype(np.float32)
        batched = decode_forecast(zs, m.forecast)
        for i in range(4):
            one = decode_forecast(zs[i], m.forecast)
            assert one.data == pytest.approx(batched.data[i], abs=1e-6)

    def test_wrong_width(self):
        _, m = self.make()
        with pytest.raises(ShapeError):
            decode_forecast(np.zeros(9, np.float32), m.forecast)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("role", ["forecast", "reconstruct"])
    def test_non_finite_output_raises(self, bad, role):
        _, m = self.make()
        head = getattr(m, role)
        head.b2.data[-1] = bad  # reaches the output unchanged
        zs = np.random.default_rng(2).normal(size=(3, 8)).astype(np.float32)
        decode = decode_forecast if role == "forecast" else decode_reconstruct
        for z in (zs, zs[0]):
            with pytest.raises(NumericError, match=role):
                decode(z, head)


class TestEndToEnd:
    @pytest.mark.parametrize("norm_kind", ["layer", "batch"])
    def test_every_parameter_gets_finite_gradient(self, norm_kind):
        cfg = tiny(norm_kind=norm_kind, seed=4)
        m = init_params(cfg)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, cfg.n_patches, cfg.l_patch)).astype(np.float32)
        tgt_f = Tensor(rng.normal(size=(3, cfg.l_pred)).astype(np.float32))
        tgt_r = Tensor(rng.normal(size=(3, cfg.context_length)).astype(np.float32))
        with Tape() as tape:
            _, z = encode(x, m, mode="train")
            loss = add(
                scale(mse(decode_forecast(z, m.forecast), tgt_f), 0.6),
                scale(mse(decode_reconstruct(z, m.reconstruct), tgt_r), 0.4),
            )
            backward(tape, loss)
        for name, p in m.named_parameters().items():
            assert p.grad is not None, f"{name} got no gradient"
            assert np.all(np.isfinite(p.grad)), f"{name} gradient not finite"

    def test_layer_kind_taped_pass_ignores_mode(self):
        # why the gradient self-check runs layer/train but not layer/infer
        cfg = tiny(norm_kind="layer", seed=4)
        x = rand_patches(cfg, batch=3, seed=8)
        tgt = Tensor(np.random.default_rng(9).normal(size=(3, cfg.l_pred)).astype(np.float32))
        runs = []
        for mode in ("train", "infer"):
            m = init_params(cfg)
            with Tape() as tape:
                h, z = encode(x, m, mode=mode)
                backward(tape, mse(decode_forecast(z, m.forecast), tgt))
            grads = [p.grad for p in m.named_parameters().values()]
            runs.append([h.data, z.data, m.stats.copy()] + grads)
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_forward_is_float32_by_default(self):
        cfg = tiny(norm_kind="layer")
        m = init_params(cfg)
        all_emb, z = encode(rand_patches(cfg, batch=2), m, mode="infer")
        assert all_emb.dtype == np.float32
        assert decode_forecast(z, m.forecast).dtype == np.float32


class TestUntapedPath:
    """With no tape open, encode and the decoders run on plain arrays."""

    @staticmethod
    def forward(m, x):
        h, z = encode(x, m, mode="infer")
        return [t.data for t in (h, z, decode_forecast(z, m.forecast), decode_reconstruct(z, m.reconstruct))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("norm_kind", ["batch", "layer"])
    @pytest.mark.parametrize("batch", [None, 5])
    def test_bitwise_equal_to_taped(self, norm_kind, dtype, batch):
        cfg = tiny(norm_kind=norm_kind, seed=6)
        m = init_params(cfg, dtype)
        if norm_kind == "batch":
            encode(rand_patches(cfg, batch=4, seed=2), m, mode="train")  # move the statistics
        x = rand_patches(cfg, batch=batch, seed=7).astype(dtype)
        untaped = self.forward(m, x)
        with Tape() as tape:
            taped = self.forward(m, x)
        assert len(tape) > 0
        for a, b in zip(untaped, taped):
            assert a.dtype == b.dtype == dtype
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))

    def test_train_mode_bitwise_equal_to_taped(self):
        cfg = tiny(norm_kind="batch", seed=6)
        m, twin = init_params(cfg), init_params(cfg)
        x = rand_patches(cfg, batch=4, seed=3)
        h, z = encode(x, m, mode="train")
        with Tape():
            ht, zt = encode(x, twin, mode="train")
        assert np.array_equal(h.data, ht.data) and np.array_equal(z.data, zt.data)
        assert np.array_equal(m.stats, twin.stats)

    def test_shape_and_dtype_errors_without_a_tape(self):
        cfg = tiny(norm_kind="batch")
        m = init_params(cfg)
        with pytest.raises(ShapeError):
            encode(np.zeros((cfg.n_patches, cfg.l_patch + 1), np.float32), m, mode="infer")
        with pytest.raises(ShapeError):
            encode(np.zeros((2, 2, cfg.n_patches, cfg.l_patch), np.float32), m, mode="infer")
        with pytest.raises(ContractError, match="mixed dtypes"):
            encode(Tensor(rand_patches(cfg), dtype=np.float64), m, mode="infer")
        with pytest.raises(ContractError, match="mixed dtypes"):
            decode_forecast(Tensor(np.zeros(8), dtype=np.float64), m.forecast)
        with pytest.raises(ShapeError):
            decode_forecast(np.zeros((2, 9), np.float32), m.forecast)
        m.params["layers.1.attn.bq"] = Tensor(np.zeros(3, np.float32))
        with pytest.raises(ShapeError, match="bias"):
            encode(rand_patches(cfg), m, mode="infer")

    def test_infer_reads_the_current_statistics(self):
        from patchcast.train import Snapshot, clone_model, restore_snapshot

        cfg = tiny(norm_kind="batch", seed=1)
        m = init_params(cfg)
        x = rand_patches(cfg, seed=4)
        before = encode(x, m, mode="infer")[1].data
        snapshot = Snapshot(0, m.arena.copy(), m.stats.copy())
        encode(rand_patches(cfg, batch=4, seed=5), m, mode="train")
        moved = encode(x, m, mode="infer")[1].data
        assert not np.array_equal(moved, before)
        assert np.array_equal(moved, encode(x, clone_model(m), mode="infer")[1].data)
        restore_snapshot(m, snapshot)
        assert np.array_equal(encode(x, m, mode="infer")[1].data, before)

    def test_debug_checks_name_the_op_without_a_tape(self):
        from patchcast.errors import NumericError
        from patchcast.numerics import debug_checks

        cfg = tiny(norm_kind="batch")
        m = init_params(cfg)
        m.params["layers.0.attn.wq"].data[0, 0] = np.nan
        with debug_checks(True), pytest.raises(NumericError, match="output of linear"):
            encode(rand_patches(cfg), m, mode="infer")
        m.params["layers.0.attn.wq"].data[0, 0] = 0.0
        m.forecast.b1.data[0] = np.inf
        _, z = encode(rand_patches(cfg), m, mode="infer")
        with debug_checks(True), pytest.raises(NumericError, match="output of linear"):
            decode_forecast(z, m.forecast)

    @pytest.mark.parametrize("taped", [False, True])
    def test_taps_and_results_are_tensors(self, taped):
        cfg = tiny(norm_kind="layer")
        m = init_params(cfg)
        taps: dict = {}
        with Tape() if taped else contextlib.nullcontext():
            h, z = encode(rand_patches(cfg, batch=2), m, mode="infer", taps=taps)
            f = decode_forecast(z, m.forecast, taps=taps)
        assert all(isinstance(t, Tensor) for t in (h, z, f))
        assert sorted(taps) == ["dec_forecast.preact", "layers.0.ff.preact", "layers.1.ff.preact"]
        assert all(isinstance(t, Tensor) for t in taps.values())
        assert taps["layers.1.ff.preact"].shape == (2, cfg.n_patches + 1, cfg.d_ff)

    def test_a_tape_on_another_thread_does_not_pick_the_path(self):
        from concurrent.futures import ThreadPoolExecutor

        cfg = tiny(norm_kind="layer")
        m = init_params(cfg)
        x = rand_patches(cfg)
        want = encode(x, m, mode="infer")[1].data
        with Tape() as tape, ThreadPoolExecutor(max_workers=1) as pool:
            got = pool.submit(lambda: encode(x, m, mode="infer")[1].data).result()
        assert len(tape) == 0
        assert np.array_equal(got, want)


class TestSpecs:
    def test_built_once_per_config(self):
        from patchcast.model import param_spec, stat_spec

        cfg = tiny(norm_kind="batch")
        assert param_spec(cfg) is param_spec(tiny(norm_kind="batch"))
        assert stat_spec(cfg) is stat_spec(tiny(norm_kind="batch"))
        assert stat_spec(tiny(norm_kind="layer")) == ()

    def test_empty_model_follows_the_specs(self):
        from patchcast.model import empty_model, param_spec, stat_spec

        cfg = tiny(norm_kind="batch")
        m = empty_model(cfg)
        assert [(n, t.shape) for n, t in m.params.items()] == [(n, s) for n, s, _ in param_spec(cfg)]
        assert [(n, v.shape) for n, v in m.named_stats().items()] == [(n, s) for n, s, _ in stat_spec(cfg)]
        assert m.arena.size == parameter_count(cfg)
        m.stats[:] = np.arange(m.stats.size)
        state = m.norm_states["layers.1.norm2"]
        assert np.array_equal(state.running_mean, m.named_stats()["layers.1.norm2.running_mean"])
        assert np.array_equal(state.running_var, m.named_stats()["layers.1.norm2.running_var"])
