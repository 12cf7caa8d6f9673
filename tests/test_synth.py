import dataclasses
import math

import numpy as np
import pytest

from patchcast.data import TimeSeries
from patchcast.errors import ConfigError
from patchcast.synth import (
    HELD_OUT_KINDS,
    KINDS,
    CorpusEntry,
    ManifestRecord,
    PhenomenonSpec,
    SensorModel,
    build_corpus,
    default_pretrain_recipe,
    generate_quantity,
    heldout_oscillator_series,
    heldout_relaxation_series,
    measure,
    read_manifest,
    series_from_record,
    spring_mass_frequency_hz,
    write_manifest,
)


def osc(duration, rate, f, gamma=0.0, phase=0.0, amp=1.0, seed=0):
    return PhenomenonSpec(
        "damped_oscillator", duration, rate,
        {"amplitude": amp, "frequency_hz": f, "damping_rate": gamma, "phase": phase},
        seed=seed,
    )


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            PhenomenonSpec("square_wave", 1.0, 8.0, {})

    def test_missing_param_named(self):
        with pytest.raises(ConfigError, match="damping_rate"):
            PhenomenonSpec("damped_oscillator", 1.0, 8.0,
                           {"amplitude": 1.0, "frequency_hz": 1.0})

    def test_unknown_param_named(self):
        with pytest.raises(ConfigError, match="wobble"):
            osc_params = {"amplitude": 1.0, "frequency_hz": 1.0,
                          "damping_rate": 0.0, "wobble": 3.0}
            PhenomenonSpec("damped_oscillator", 1.0, 8.0, osc_params)

    def test_nyquist_violation_named(self):
        with pytest.raises(ConfigError, match="frequency_hz.*Nyquist"):
            osc(1.0, 8.0, 4.0)  # exactly rate/2 is already too fast

    def test_nyquist_checks_every_component(self):
        with pytest.raises(ConfigError, match="frequencies_hz"):
            PhenomenonSpec("sinusoid_mixture", 1.0, 10.0,
                           {"amplitudes": [1.0, 0.5], "frequencies_hz": [1.0, 7.0]})

    def test_negative_damping_rejected(self):
        with pytest.raises(ConfigError, match="damping_rate"):
            osc(1.0, 8.0, 1.0, gamma=-0.1)

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError, match="tau_s"):
            PhenomenonSpec("exponential_relaxation", 1.0, 8.0,
                           {"q_start": 1.0, "q_end": 0.0, "tau_s": -2.0})

    def test_list_length_mismatch(self):
        with pytest.raises(ConfigError, match="length"):
            PhenomenonSpec("sinusoid_mixture", 1.0, 32.0,
                           {"amplitudes": [1.0], "frequencies_hz": [1.0, 2.0]})

    @pytest.mark.parametrize("kind, params, named", [
        ("damped_oscillator",
         {"amplitude": "abc", "frequency_hz": 1.0, "damping_rate": 0.0}, "amplitude"),
        ("damped_oscillator",
         {"amplitude": [1.0, 2.0], "frequency_hz": 1.0, "damping_rate": 0.0}, "amplitude"),
        ("sinusoid_mixture",
         {"amplitudes": [1.0, "x"], "frequencies_hz": [1.0, 2.0]}, "amplitudes"),
    ])
    def test_non_numeric_parameter_named(self, kind, params, named):
        with pytest.raises(ConfigError, match=rf"^{kind}: {named} must be numeric"):
            PhenomenonSpec(kind, 1.0, 32.0, params)

    def test_nonpositive_duration(self):
        with pytest.raises(ConfigError, match="duration_s"):
            osc(0.0, 8.0, 1.0)

    def test_sample_count_rounds(self):
        assert osc(1.0, 8.0, 1.0).n_samples == 8
        assert PhenomenonSpec(
            "damped_oscillator", 19360 / 208.0, 208.0,
            {"amplitude": 1.0, "frequency_hz": 1.36, "damping_rate": 0.03},
        ).n_samples == 19360


# Each kind's schema: required name -> a valid value, and optional name ->
# (the value an absent parameter takes, a value that changes the output).
# Every optional name is set to its changing value while another one is
# checked, so a default that only matters next to another parameter (the
# pendulum's perturb_decay beside perturb_scale) is still exercised.
SCHEMA_TABLE = {
    "sinusoid_mixture": (
        {"amplitudes": [1.0, 0.5], "frequencies_hz": [1.0, 3.0]},
        {"phases": ([0.0, 0.0], [0.3, 1.2]), "noise_std": (0.0, 0.02)},
    ),
    "sawtooth": (
        {"amplitude": 0.8, "frequency_hz": 1.5},
        {"phase": (0.0, 0.25), "noise_std": (0.0, 0.02)},
    ),
    "damped_oscillator": (
        {"amplitude": 1.0, "frequency_hz": 2.0, "damping_rate": 0.1},
        {"phase": (0.0, 0.4)},
    ),
    "elastic_pendulum_proxy": (
        {"a1": 1.0, "f1": 1.0, "g1": 0.1, "a2": 0.5, "f2": 3.0, "g2": 0.2},
        {"phase1": (0.0, 0.7), "phase2": (0.0, 2.1),
         "perturb_scale": (0.0, 0.2), "perturb_decay": (0.1, 0.3)},
    ),
    "exponential_relaxation": (
        {"q_start": 1.0, "q_end": 0.2, "tau_s": 1.5},
        {},
    ),
    "trended_random_walk": (
        {"step_std": 0.01, "drift_per_s": 0.3},
        {},
    ),
}


def schema_spec(kind, params):
    return PhenomenonSpec(kind, 4.0, 32.0, params, seed=7)


class TestKindSchemas:
    def test_table_covers_every_kind(self):
        assert set(SCHEMA_TABLE) == set(KINDS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_required_name_is_named_when_missing(self, kind):
        required, _ = SCHEMA_TABLE[kind]
        for name in required:
            params = {k: v for k, v in required.items() if k != name}
            with pytest.raises(ConfigError, match=f"missing parameter '{name}'"):
                schema_spec(kind, params)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", ["wobble", "t", "rate_hz", "rng"])
    def test_unknown_and_generator_argument_names_rejected(self, kind, name):
        required, _ = SCHEMA_TABLE[kind]
        with pytest.raises(ConfigError, match=f"unknown parameter '{name}'"):
            schema_spec(kind, {**required, name: 1.0})

    @pytest.mark.parametrize("kind", KINDS)
    def test_absent_optional_equals_its_default(self, kind):
        required, optional = SCHEMA_TABLE[kind]
        active = {k: changed for k, (_, changed) in optional.items()}
        for name, (default, changed) in optional.items():
            others = {k: v for k, v in active.items() if k != name}
            absent = generate_quantity(schema_spec(kind, {**required, **others})).values
            explicit = generate_quantity(
                schema_spec(kind, {**required, **others, name: default})).values
            moved = generate_quantity(
                schema_spec(kind, {**required, **others, name: changed})).values
            assert np.array_equal(absent, explicit), name
            assert not np.array_equal(absent, moved), name


class TestGenerateQuantity:
    def test_pure_cosine_samples(self):
        # 1 Hz cosine sampled at 8 Hz for 1 s
        q = generate_quantity(osc(1.0, 8.0, 1.0))
        r = math.sqrt(0.5)
        expected = [1.0, r, 0.0, -r, -1.0, -r, 0.0, r]
        assert q.values == pytest.approx(expected, abs=1e-12)
        assert len(q) == 8
        assert q.sampling_rate_hz == 8.0

    def test_relaxation_infinite_tau_is_constant(self):
        spec = PhenomenonSpec("exponential_relaxation", 2.0, 4.0,
                              {"q_start": 1.0, "q_end": 0.0, "tau_s": math.inf})
        assert np.all(generate_quantity(spec).values == 1.0)

    def test_relaxation_reaches_e_folding(self):
        spec = PhenomenonSpec("exponential_relaxation", 10.0, 10.0,
                              {"q_start": 1.0, "q_end": 0.0, "tau_s": 2.0})
        q = generate_quantity(spec)
        # value at t = tau is 1/e
        assert q.values[20] == pytest.approx(math.exp(-1), rel=1e-12)

    def test_spring_mass_frequency(self):
        # omega = sqrt(k*g/W) for k=1.9 lb/in on 10 lb: ~8.565 rad/s
        f = spring_mass_frequency_hz(1.9, 10.0)
        omega = math.sqrt(1.9 * 386.09 / 10.0)
        assert f == pytest.approx(omega / (2 * math.pi), rel=1e-12)
        assert f == pytest.approx(1.3631, abs=1e-4)

    def test_damped_envelope_decays_per_period(self):
        # rate 256, f=2 gives exactly 128 samples per period
        spec = osc(4.0, 256.0, 2.0, gamma=0.1)
        vals = generate_quantity(spec).values.reshape(-1, 128)
        peaks = np.abs(vals).max(axis=1)
        assert np.all(np.diff(peaks) < 0)

    def test_undamped_envelope_constant(self):
        vals = generate_quantity(osc(4.0, 256.0, 2.0)).values.reshape(-1, 128)
        peaks = np.abs(vals).max(axis=1)
        assert peaks == pytest.approx(np.ones(8), abs=1e-9)

    def test_sawtooth_ramps(self):
        spec = PhenomenonSpec("sawtooth", 1.0, 8.0,
                              {"amplitude": 1.0, "frequency_hz": 1.0})
        q = generate_quantity(spec).values
        assert q[0] == pytest.approx(-1.0)
        assert np.all(np.diff(q) > 0)  # one rising ramp over the single cycle

    def test_sinusoid_mixture_superposes(self):
        spec = PhenomenonSpec("sinusoid_mixture", 1.0, 64.0,
                              {"amplitudes": [1.0, 0.5],
                               "frequencies_hz": [2.0, 5.0],
                               "phases": [0.3, 1.1]})
        t = np.arange(64) / 64.0
        expected = np.sin(2 * np.pi * 2 * t + 0.3) + 0.5 * np.sin(2 * np.pi * 5 * t + 1.1)
        assert generate_quantity(spec).values == pytest.approx(expected, abs=1e-12)

    def test_random_walk_deterministic_and_trended(self):
        spec = PhenomenonSpec("trended_random_walk", 100.0, 16.0,
                              {"step_std": 0.01, "drift_per_s": 0.5}, seed=42)
        a = generate_quantity(spec).values
        b = generate_quantity(spec).values
        assert np.array_equal(a, b)
        # drift dominates the walk over 100 s: 50 vs sigma*sqrt(n) ~ 0.4
        assert a[-1] > 25.0

    def test_pendulum_proxy_two_modes_decay(self):
        spec = PhenomenonSpec(
            "elastic_pendulum_proxy", 8.0, 128.0,
            {"a1": 1.0, "f1": 1.0, "g1": 0.2, "a2": 0.5, "f2": 3.3, "g2": 0.3,
             "perturb_scale": 0.1, "perturb_decay": 0.5},
            seed=3,
        )
        q = generate_quantity(spec).values
        first, last = np.abs(q[:128]).max(), np.abs(q[-128:]).max()
        assert last < 0.5 * first
        assert np.all(np.isfinite(q))

    def test_pendulum_perturbation_is_seeded(self):
        params = {"a1": 1.0, "f1": 1.0, "g1": 0.1, "a2": 0.4, "f2": 3.3, "g2": 0.1,
                  "perturb_scale": 0.2, "perturb_decay": 0.2}
        base = generate_quantity(PhenomenonSpec("elastic_pendulum_proxy", 4.0, 64.0, params, seed=1))
        same = generate_quantity(PhenomenonSpec("elastic_pendulum_proxy", 4.0, 64.0, params, seed=1))
        other = generate_quantity(PhenomenonSpec("elastic_pendulum_proxy", 4.0, 64.0, params, seed=2))
        assert np.array_equal(base.values, same.values)
        assert not np.array_equal(base.values, other.values)


class TestSensorModel:
    def test_identity_is_bitwise(self):
        q = generate_quantity(osc(2.0, 64.0, 3.0, gamma=0.05, seed=7))
        m = measure(q, SensorModel())
        assert np.array_equal(m.values, q.values)
        assert m.sampling_rate_hz == q.sampling_rate_hz

    def test_gain_and_offset(self):
        base = TimeSeries("t", np.array([0.0, 1.0, 2.0]))
        m = measure(base, SensorModel(gain=2.0, offset=1.0))
        assert m.values == pytest.approx([1.0, 3.0, 5.0], abs=0)

    def test_noise_statistics(self):
        # 10k draws at sigma=0.1: mean within 0.01, std within 10%
        z = TimeSeries("z", np.zeros(10_000))
        m = measure(z, SensorModel(offset=0.5, noise_std=0.1), seed=9)
        assert abs(float(m.values.mean()) - 0.5) < 0.01
        assert abs(float(m.values.std()) - 0.1) / 0.1 < 0.10

    def test_noise_is_seeded(self):
        z = TimeSeries("z", np.zeros(64))
        a = measure(z, SensorModel(noise_std=0.1), seed=4)
        b = measure(z, SensorModel(noise_std=0.1), seed=4)
        c = measure(z, SensorModel(noise_std=0.1), seed=5)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_clip_bounds(self):
        ramp = TimeSeries("r", np.linspace(-2, 2, 101))
        m = measure(ramp, SensorModel(clip_range=(-1.0, 1.0)))
        assert m.values.min() == -1.0 and m.values.max() == 1.0

    def test_quantizer_level_count(self):
        ramp = TimeSeries("r", np.linspace(-1, 1, 1000))
        m = measure(ramp, SensorModel(clip_range=(-1.0, 1.0), quantization_bits=4))
        levels = np.unique(m.values)
        assert len(levels) == 16
        assert levels[0] == -1.0 and levels[-1] == 1.0
        steps = np.diff(levels)
        assert steps == pytest.approx(np.full(15, 2.0 / 15), rel=1e-9)

    def test_quantization_requires_clip(self):
        with pytest.raises(ConfigError, match="clip"):
            SensorModel(quantization_bits=8)

    def test_bits_out_of_range(self):
        with pytest.raises(ConfigError, match="quantization_bits"):
            SensorModel(quantization_bits=3, clip_range=(-1.0, 1.0))
        with pytest.raises(ConfigError, match="quantization_bits"):
            SensorModel(quantization_bits=25, clip_range=(-1.0, 1.0))

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError, match="noise_std"):
            SensorModel(noise_std=-0.1)

    def test_inverted_clip_rejected(self):
        with pytest.raises(ConfigError, match="clip_range"):
            SensorModel(clip_range=(1.0, -1.0))


class TestCorpus:
    def small_recipe(self):
        return [dataclasses.replace(e, duration_s=4.0, rate_hz=64.0)
                for e in default_pretrain_recipe(variants_per_entry=2)]

    def test_counts_and_determinism(self):
        recipe = self.small_recipe()
        pool, manifest = build_corpus(recipe, seed=7)
        pool2, _ = build_corpus(recipe, seed=7)
        assert len(pool) == sum(e.count for e in recipe)
        assert len(manifest) == len(pool)
        for a, b in zip(pool, pool2):
            assert np.array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        recipe = self.small_recipe()
        pool1, _ = build_corpus(recipe, seed=1)
        pool2, _ = build_corpus(recipe, seed=2)
        assert any(not np.array_equal(a.values, b.values) for a, b in zip(pool1, pool2))

    def test_variants_differ_within_entry(self):
        recipe = [CorpusEntry(
            "sawtooth", 2.0, 32.0,
            {"amplitude": (0.5, 1.0), "frequency_hz": (0.5, 3.0)},
            count=4,
        )]
        pool, manifest = build_corpus(recipe, seed=0)
        amps = [r.params["amplitude"] for r in manifest]
        assert len(set(amps)) == 4
        for r in manifest:
            assert 0.5 <= r.params["amplitude"] <= 1.0
            assert 0.5 <= r.params["frequency_hz"] <= 3.0

    def test_default_recipe_excludes_heldout_kinds(self):
        _, manifest = build_corpus(self.small_recipe(), seed=3)
        kinds = {r.kind for r in manifest}
        for held in HELD_OUT_KINDS:
            assert held not in kinds

    def test_empty_recipe_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            build_corpus([], seed=0)

    def test_manifest_roundtrip_file(self, tmp_path):
        _, manifest = build_corpus(self.small_recipe(), seed=11)
        path = tmp_path / "manifest.txt"
        write_manifest(path, manifest)
        back = read_manifest(path)
        assert back == manifest

    def test_manifest_regenerates_series_bitwise(self):
        pool, manifest = build_corpus(self.small_recipe(), seed=11)
        for series, record in zip(pool[:4], manifest[:4]):
            regen = series_from_record(record)
            assert np.array_equal(regen.values, series.values)

    def test_manifest_line_shape(self):
        record = ManifestRecord("sawtooth", {"amplitude": 0.75, "rate_hz": 32.0}, seed=99)
        line = record.to_line()
        assert line.startswith("sawtooth ")
        assert line.endswith(" seed=99")
        assert ManifestRecord.from_line(line) == record

    def test_malformed_manifest_line(self):
        with pytest.raises(ConfigError):
            ManifestRecord.from_line("sawtooth amplitude=1.0")  # no seed
        with pytest.raises(ConfigError):
            ManifestRecord.from_line("seed=3")
        with pytest.raises(ConfigError, match="'amplitude'"):
            ManifestRecord.from_line("sawtooth amplitude seed=3")

    def test_one_component_mixture_roundtrips(self):
        entry = CorpusEntry("sinusoid_mixture", 2.0, 32.0,
                            {"amplitudes": [0.8], "frequencies_hz": [(1.0, 3.0)]})
        pool, manifest = build_corpus([entry], seed=3)
        back = ManifestRecord.from_line(manifest[0].to_line())
        assert back == manifest[0]
        assert np.array_equal(series_from_record(back).values, pool[0].values)


class TestHeldoutSeries:
    def test_oscillator_geometry(self):
        s = heldout_oscillator_series()
        assert len(s) == 19360
        assert s.sampling_rate_hz == 208.0
        assert np.all(np.isfinite(s.values))

    def test_relaxation_geometry(self):
        s = heldout_relaxation_series()
        assert len(s) == 24000
        assert s.sampling_rate_hz == 10.0
        # settles toward the configured endpoint
        assert abs(float(s.values[-100:].mean()) - 0.05) < 0.02

    def test_heldout_deterministic(self):
        a = heldout_oscillator_series()
        b = heldout_oscillator_series()
        assert np.array_equal(a.values, b.values)
