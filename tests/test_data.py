"""Ingestion, normalization, patching, windowing, and batch assembly."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from patchcast.data import (
    Batch,
    ContextWindow,
    TimeSeries,
    denormalize,
    load_csv,
    make_batch,
    minmax_normalize,
    normalize_rows,
    preprocess_slow_signal,
    save_series_csv,
    sliding_windows,
    write_trace_csv,
)
from patchcast.errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    NumericError,
    RateError,
)


def _series(values, rate=None, sid="s"):
    return TimeSeries(id=sid, values=np.asarray(values, dtype=np.float64),
                      sampling_rate_hz=rate)


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            _series([])

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="index 1"):
            _series([1.0, np.nan, 2.0])

    def test_rejects_bad_rate(self):
        with pytest.raises(DataError):
            _series([1.0], rate=0.0)

    def test_values_are_read_only(self):
        s = _series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestLoadCsv(object):
    def test_headerless_single_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("v\n1\n2\n3\n")
        s = load_csv(p)
        assert_allclose(s.values, [1, 2, 3])
        assert s.id == "a"

    def test_default_column_is_last(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("ts,val\n0,5.5\n1,6.5\n")
        assert_allclose(load_csv(p).values, [5.5, 6.5])

    def test_parse_error_reports_row(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a\n1\nx\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_roundtrip_through_save(self, tmp_path):
        s = _series(np.linspace(-2.5, 7.25, 40))
        p = tmp_path / "rt.csv"
        save_series_csv(p, s)
        back = load_csv(p)
        assert_array_equal(back.values, s.values)  # repr() round-trips float64


class TestNormalize:
    def test_basic_map(self):
        w = minmax_normalize([2.0, 4.0, 6.0])
        assert_allclose(w.values, [0.0, 0.5, 1.0])
        assert w.norm_min == 2.0 and w.norm_max == 6.0

    def test_already_unit_range(self):
        assert_allclose(minmax_normalize([0.0, 1.0]).values, [0.0, 1.0])

    def test_constant_window_goes_to_half(self):
        w = minmax_normalize([5.0, 5.0, 5.0])
        assert_array_equal(w.values, [0.5, 0.5, 0.5])
        assert w.norm_min == w.norm_max == 5.0

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            minmax_normalize([1.0, np.inf])

    def test_denormalize_inverts(self):
        w = minmax_normalize([2.0, 4.0, 6.0])
        assert_allclose(denormalize([0.0, 0.5, 1.0], w), [2.0, 4.0, 6.0])

    def test_denormalize_constant(self):
        w = minmax_normalize([7.0, 7.0])
        assert_array_equal(denormalize([0.1, 0.9, 123.0], w), [7.0, 7.0, 7.0])

    def test_roundtrip_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            raw = rng.normal(scale=rng.uniform(0.1, 100), size=64)
            w = minmax_normalize(raw)
            back = denormalize(w.values, w)
            assert np.max(np.abs(back - raw)) < 1e-5

    def test_target_shares_the_context_map(self):
        rows, lo, hi = normalize_rows([[0.0, 10.0, 5.0, 20.0, -10.0]], 2)
        assert_allclose(rows[0], [0.0, 1.0, 0.5, 2.0, -1.0])
        assert lo[0] == 0.0 and hi[0] == 10.0

    def test_targets_beyond_range_not_clipped(self):
        rows, _, _ = normalize_rows([[0.0, 1.0, 3.0]], 2)
        assert rows[0, 2] == 3.0

    def test_rows_are_mapped_independently(self):
        raw = np.array([[2.0, 4.0, 6.0, 8.0], [5.0, 5.0, 5.0, 9.0], [-1.0, 1.0, 0.0, -3.0]])
        rows, lo, hi = normalize_rows(raw, 3)
        assert_array_equal(rows, [[0.0, 0.5, 1.0, 1.5], [0.5] * 4, [0.0, 1.0, 0.5, -1.0]])
        assert_array_equal(lo, [2.0, 5.0, -1.0])
        assert_array_equal(hi, [6.0, 5.0, 1.0])

    def test_window_invariant_enforced(self):
        with pytest.raises(DataError):
            ContextWindow(values=np.array([0.0, 1.5]), norm_min=0.0, norm_max=1.0)


class TestSlidingWindows:
    def test_two_window_example(self):
        spans = sliding_windows(1280, 1024, 128, 128)
        assert [s.offset for s in spans] == [0, 128]
        assert spans[0].context == (0, 1024)
        assert spans[0].target == (1024, 1152)

    def test_bench_recording_count(self):
        assert len(sliding_windows(19360, 1024, 128, 128)) == 143

    def test_too_short(self):
        with pytest.raises(InsufficientDataError, match="1152"):
            sliding_windows(1151, 1024, 128, 128)

    def test_formula_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            W = int(rng.integers(1, 50))
            H = int(rng.integers(1, 30))
            S = int(rng.integers(1, 40))
            L = int(rng.integers(W + H, 400))
            spans = sliding_windows(L, W, H, S)
            # brute force: walk offsets until the target no longer fits
            expected = []
            o = 0
            while o + W + H <= L:
                expected.append(o)
                o += S
            assert [s.offset for s in spans] == expected
            for s in spans:
                assert s.context[1] - s.context[0] == W
                assert s.target[1] - s.target[0] == H
                assert s.context[1] == s.target[0]

    def test_accepts_series(self):
        s = _series(np.zeros(1300))
        assert len(sliding_windows(s, 1024, 128, 128)) == 2

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            sliding_windows(100, 10, 5, 0)


class TestPreprocessSlowSignal:
    def test_decimation_count(self):
        s = _series(np.arange(24000.0), rate=10.0)
        out = preprocess_slow_signal(s, target_hz=1.0, smooth_width=5)
        assert len(out.values) == 2400
        assert out.sampling_rate_hz == 1.0

    def test_block_means(self):
        s = _series([0.0, 2.0, 4.0, 6.0], rate=2.0)
        out = preprocess_slow_signal(s, target_hz=1.0, smooth_width=1)
        assert_allclose(out.values, [1.0, 5.0])

    def test_constant_series_stays_constant(self):
        s = _series(np.full(100, 3.3), rate=10.0)
        out = preprocess_slow_signal(s, target_hz=2.0, smooth_width=5)
        assert_allclose(out.values, np.full(20, 3.3))

    def test_identity_configuration(self):
        s = _series(np.arange(10.0), rate=4.0)
        out = preprocess_slow_signal(s, target_hz=4.0, smooth_width=1)
        assert_array_equal(out.values, s.values)

    def test_smoothing_edges_shrink_symmetrically(self):
        s = _series([0.0, 1.0, 2.0, 3.0, 4.0], rate=1.0)
        out = preprocess_slow_signal(s, target_hz=1.0, smooth_width=3)
        # ends keep k=0 (identity), interior averages 3 samples
        assert_allclose(out.values, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_smoothing_actually_averages(self):
        s = _series([0.0, 3.0, 0.0, 3.0, 0.0], rate=1.0)
        out = preprocess_slow_signal(s, target_hz=1.0, smooth_width=3)
        assert_allclose(out.values, [0.0, 1.0, 2.0, 1.0, 0.0])

    @pytest.mark.parametrize("width", [3, 5, 7, 15])
    def test_smoothing_matches_per_sample_loop(self, width):
        def loop_reference(coarse, half):
            cs = np.concatenate([[0.0], np.cumsum(coarse)])
            out = np.empty_like(coarse)
            n = len(coarse)
            for i in range(n):
                k = min(half, i, n - 1 - i)
                out[i] = (cs[i + k + 1] - cs[i - k]) / (2 * k + 1)
            return out

        rng = np.random.default_rng(width)
        for n in [*range(2, 60), 1000, 4097]:
            raw = rng.normal(size=2 * n)
            out = preprocess_slow_signal(_series(raw, rate=2.0), target_hz=1.0, smooth_width=width)
            coarse = raw.reshape(-1, 2).mean(axis=1)
            assert out.values.tobytes() == loop_reference(coarse, width // 2).tobytes(), n

    def test_non_integral_factor(self):
        s = _series(np.zeros(100), rate=10.0)
        with pytest.raises(RateError):
            preprocess_slow_signal(s, target_hz=3.0)

    def test_missing_rate(self):
        with pytest.raises(RateError):
            preprocess_slow_signal(_series([1.0, 2.0]), target_hz=1.0)

    def test_even_width_rejected(self):
        s = _series(np.zeros(10), rate=2.0)
        with pytest.raises(ConfigError):
            preprocess_slow_signal(s, target_hz=1.0, smooth_width=4)


def _reference_batch(pool, count, W, H, l_patch, seed):
    """The per-item loop make_batch replaced, kept as its bitwise reference."""
    gen = np.random.default_rng(seed)
    admissible = [s for s in pool if len(s.values) >= W + H]
    inputs = np.empty((count, W // l_patch, l_patch), dtype=np.float32)
    fore = np.empty((count, H), dtype=np.float32)
    recon = np.empty((count, W), dtype=np.float32)
    for b in range(count):
        s = admissible[int(gen.integers(len(admissible)))]
        o = int(gen.integers(len(s.values) - W - H + 1))
        v = s.values[o : o + W]
        lo, hi = float(v.min()), float(v.max())
        if hi > lo:
            ctx = (v - lo) / (hi - lo)
            target = (s.values[o + W : o + W + H] - lo) / (hi - lo)
        else:
            ctx = np.full_like(v, 0.5)
            target = np.full(H, 0.5)
        inputs[b] = ctx.reshape(-1, l_patch)
        fore[b] = target
        recon[b] = ctx
    return inputs, fore, recon


class TestMakeBatch:
    def test_single_choice_pool(self):
        s = _series(np.sin(np.arange(24.0)))
        batch = make_batch([s], count=5, W=16, H=8, l_patch=4, rng=0)
        # only one admissible offset exists, so every item is that window
        for b in range(1, 5):
            assert_array_equal(batch.inputs[b], batch.inputs[0])
            assert_array_equal(batch.forecast_targets[b], batch.forecast_targets[0])

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(3)
        pool = [_series(rng.normal(size=200), sid=f"s{i}") for i in range(4)]
        a = make_batch(pool, count=8, W=32, H=8, l_patch=8, rng=77)
        b = make_batch(pool, count=8, W=32, H=8, l_patch=8, rng=77)
        assert_array_equal(a.inputs, b.inputs)
        assert_array_equal(a.forecast_targets, b.forecast_targets)
        assert_array_equal(a.reconstruction_targets, b.reconstruction_targets)

    def test_contexts_normalized_targets_finite(self):
        rng = np.random.default_rng(4)
        pool = [_series(rng.normal(scale=5, size=300), sid=f"s{i}") for i in range(3)]
        batch = make_batch(pool, count=32, W=64, H=16, l_patch=16, rng=5)
        assert batch.inputs.shape == (32, 4, 16)
        assert batch.inputs.min() >= 0.0 and batch.inputs.max() <= 1.0
        assert np.all(np.isfinite(batch.forecast_targets))
        assert_array_equal(batch.reconstruction_targets.reshape(32, 4, 16), batch.inputs)

    def test_targets_follow_context(self):
        # on a ramp every context maps to (0..15)/15, whatever its offset, so
        # the next four samples map to (16..19)/15
        s = _series(np.arange(48.0))
        batch = make_batch([s], count=8, W=16, H=4, l_patch=4, rng=1)
        want = (np.arange(16.0, 20.0) / 15.0).astype(np.float32)
        for i in range(8):
            assert_array_equal(batch.forecast_targets[i], want)
            assert_array_equal(batch.reconstruction_targets[i], (np.arange(16.0) / 15.0).astype(np.float32))

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_matches_per_item_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        pool = [
            _series(np.concatenate([np.full(40, 2.5), rng.normal(size=60), np.full(30, -1.0)]), sid="flat"),
            _series(np.repeat(rng.normal(size=12), 16), sid="steps"),
            _series(rng.normal(scale=50.0, size=90) + 1e3, sid="noise"),
            _series(np.zeros(20), sid="short"),  # shorter than W + H: never drawn
        ]
        got = make_batch(pool, count=48, W=16, H=8, l_patch=4, rng=seed)
        want = _reference_batch(pool, count=48, W=16, H=8, l_patch=4, seed=seed)
        assert np.any(np.all(want[0].reshape(48, -1) == 0.5, axis=1))  # constant windows drawn
        for a, b in zip((got.inputs, got.forecast_targets, got.reconstruction_targets), want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_no_admissible_series(self):
        with pytest.raises(InsufficientDataError):
            make_batch([_series(np.zeros(10))], count=1, W=16, H=8, l_patch=4, rng=0)

    def test_batch_is_immutable(self):
        s = _series(np.arange(48.0))
        batch = make_batch([s], count=1, W=16, H=4, l_patch=4, rng=1)
        with pytest.raises(ValueError):
            batch.inputs[0, 0, 0] = 5.0


def test_trace_csv_writer(tmp_path):
    p = tmp_path / "trace.csv"
    write_trace_csv(p, [(0, 1.5, None), (1, None, 2.5)])
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "offset,ground_truth,prediction"
    assert lines[1] == "0,1.5,"
    assert lines[2] == "1,,2.5"
