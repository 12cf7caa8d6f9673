"""Synthetic physics corpus: latent quantities plus configurable sensors.

Quantities are closed-form waveforms (no ODE solving): mixtures of sinusoids,
sawtooth sweeps, damped cosines, a two-mode decaying pendulum stand-in with a
band-limited early perturbation, first-order relaxation curves, and trended
random walks.  A sensor model then applies gain/offset, additive Gaussian
noise, clipping, and uniform quantization.

A kind is one generator ``_<kind>(t, rate_hz, rng, *, <params>) -> values``
listed in ``_GENERATORS``.  Its keyword-only parameters are the kind's schema:
one without a default is required, and a default is the value an absent
parameter takes; ``KINDS`` and the ``PhenomenonSpec`` checks follow from it.
A new parameter joins ``_LIST_KEYS`` if it takes a list, ``_FREQUENCY_KEYS``
if it must stay below Nyquist, and ``_NON_NEGATIVE_KEYS`` if it must not be
negative.  Generators get floats (or lists of them) and draw only from ``rng``.

The default pretraining recipe deliberately leaves out two kinds —
damped_oscillator and exponential_relaxation — which are reserved for
held-out zero-shot evaluation.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import TimeSeries
from .errors import ConfigError

HELD_OUT_KINDS = ("damped_oscillator", "exponential_relaxation")

STANDARD_GRAVITY_IN_S2 = 386.09  # one imperial conversion, used only below


def spring_mass_frequency_hz(spring_rate_lbs_per_inch: float, weight_lbs: float) -> float:
    """Natural frequency of a hanging spring-mass: omega = sqrt(k*g/W)."""
    if spring_rate_lbs_per_inch <= 0 or weight_lbs <= 0:
        raise ConfigError("spring rate and weight must be positive")
    omega = math.sqrt(spring_rate_lbs_per_inch * STANDARD_GRAVITY_IN_S2 / weight_lbs)
    return omega / (2.0 * math.pi)


def _smoothed_unit_noise(rng, n: int, width: int) -> np.ndarray:
    """White noise through a centered moving average, rescaled to unit std."""
    raw = rng.normal(size=n + width - 1)
    kernel = np.full(width, 1.0 / width)
    out = np.convolve(raw, kernel, mode="valid")
    sd = out.std()
    return out / sd if sd > 0 else out


def _with_noise(q, rng, noise_std):
    return q + rng.normal(0.0, noise_std, size=q.size) if noise_std > 0 else q


def _sinusoid_mixture(t, rate_hz, rng, *, amplitudes, frequencies_hz, phases=(), noise_std=0.0):
    q = np.zeros(t.size)
    # absent phases are all zero
    for a, f, ph in itertools.zip_longest(amplitudes, frequencies_hz, phases, fillvalue=0.0):
        q += a * np.sin(2.0 * np.pi * f * t + ph)
    return _with_noise(q, rng, noise_std)


def _sawtooth(t, rate_hz, rng, *, amplitude, frequency_hz, phase=0.0, noise_std=0.0):
    cycles = frequency_hz * t + phase
    return _with_noise(amplitude * (2.0 * (cycles - np.floor(cycles)) - 1.0), rng, noise_std)


def _damped_oscillator(t, rate_hz, rng, *, amplitude, frequency_hz, damping_rate, phase=0.0):
    omega = 2.0 * np.pi * frequency_hz
    return amplitude * np.exp(-damping_rate * t) * np.cos(omega * t + phase)


def _elastic_pendulum_proxy(t, rate_hz, rng, *, a1, f1, g1, a2, f2, g2,
                            phase1=0.0, phase2=0.0, perturb_scale=0.0, perturb_decay=0.1):
    q = a1 * np.exp(-g1 * t) * np.cos(2.0 * np.pi * f1 * t + phase1)
    q = q + a2 * np.exp(-g2 * t) * np.cos(2.0 * np.pi * f2 * t + phase2)
    if perturb_scale > 0:
        # band-limit the perturbation to below the faster mode
        width = max(3, int(round(rate_hz / (2.0 * max(f1, f2)))) | 1)
        q = q + perturb_scale * np.exp(-perturb_decay * t) * _smoothed_unit_noise(rng, t.size, width)
    return q


def _exponential_relaxation(t, rate_hz, rng, *, q_start, q_end, tau_s):
    if tau_s == 0.0:
        return np.where(t > 0, q_end, q_start)
    if math.isinf(tau_s):
        return np.full(t.size, q_start)
    return q_end + (q_start - q_end) * np.exp(-t / tau_s)


def _trended_random_walk(t, rate_hz, rng, *, step_std, drift_per_s):
    return np.cumsum(rng.normal(0.0, step_std, size=t.size)) + drift_per_s * t


_GENERATORS = {g.__name__[1:]: g for g in (
    _sinusoid_mixture, _sawtooth, _damped_oscillator,
    _elastic_pendulum_proxy, _exponential_relaxation, _trended_random_walk,
)}
KINDS = tuple(_GENERATORS)
# kind -> {parameter: default} in signature order; a required one has Parameter.empty
_PARAMETERS = {
    kind: {p.name: p.default for p in inspect.signature(g).parameters.values()
           if p.kind is p.KEYWORD_ONLY}
    for kind, g in _GENERATORS.items()
}

_LIST_KEYS = ("amplitudes", "frequencies_hz", "phases")
_FREQUENCY_KEYS = ("frequencies_hz", "frequency_hz", "f1", "f2")
_NON_NEGATIVE_KEYS = ("damping_rate", "g1", "g2", "tau_s", "noise_std",
                      "perturb_scale", "perturb_decay", "step_std")


def _floats(name: str, value):
    """A parameter as floats: a list for list-valued keys, else one float."""
    return [float(x) for x in value] if name in _LIST_KEYS else float(value)


@dataclass(frozen=True)
class PhenomenonSpec:
    """One latent quantity: kind, kind-specific parameters, duration, rate."""

    kind: str
    duration_s: float
    rate_hz: float
    params: dict
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown phenomenon kind {self.kind!r}")
        if not self.duration_s > 0:
            raise ConfigError(f"duration_s must be positive, got {self.duration_s}")
        if not self.rate_hz > 0:
            raise ConfigError(f"rate_hz must be positive, got {self.rate_hz}")
        schema = _PARAMETERS[self.kind]
        for name in self.params:
            if name not in schema:
                raise ConfigError(f"{self.kind}: unknown parameter {name!r}")
        for name, default in schema.items():
            if name not in self.params:
                if default is inspect.Parameter.empty:
                    raise ConfigError(f"{self.kind}: missing parameter {name!r}")
                continue
            value = self.params[name]
            is_list = name in _LIST_KEYS
            if is_list and (not isinstance(value, (list, tuple)) or not value):
                raise ConfigError(f"{self.kind}: {name} must be a non-empty list")
            try:
                floats = _floats(name, value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{self.kind}: {name} must be numeric, got {value!r}") from exc
            for f in floats if is_list else [floats]:
                if name in _FREQUENCY_KEYS and not f < self.rate_hz / 2:
                    raise ConfigError(
                        f"{self.kind}: {name}={f:g} violates Nyquist at rate {self.rate_hz:g} Hz"
                    )
                if name in _NON_NEGATIVE_KEYS and f < 0:
                    raise ConfigError(f"{self.kind}: {name} must be non-negative, got {f:g}")
        lengths = {n: len(self.params[n]) for n in schema if n in _LIST_KEYS and n in self.params}
        if len(set(lengths.values())) > 1:
            raise ConfigError(f"{self.kind}: list parameters differ in length: {lengths}")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.rate_hz))


@dataclass(frozen=True)
class SensorModel:
    """Transduction defaults to the identity map; every stage is optional."""

    gain: float = 1.0
    offset: float = 0.0
    noise_std: float = 0.0
    quantization_bits: Optional[int] = None
    clip_range: Optional[tuple] = None

    def __post_init__(self):
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be non-negative, got {self.noise_std}")
        if self.quantization_bits is not None:
            if not 4 <= self.quantization_bits <= 24:
                raise ConfigError(
                    f"quantization_bits must be in [4, 24], got {self.quantization_bits}"
                )
            if self.clip_range is None:
                raise ConfigError("quantization requires a clip_range")
        if self.clip_range is not None:
            lo, hi = self.clip_range
            if not lo < hi:
                raise ConfigError(f"clip_range must satisfy lo < hi, got {self.clip_range}")

    @property
    def is_identity(self) -> bool:
        return self == SensorModel()


# ---------------------------------------------------------------------------
# quantity generation


def generate_quantity(spec: PhenomenonSpec) -> TimeSeries:
    """Sample one latent waveform; pure and deterministic given the spec."""
    n = spec.n_samples
    if n < 1:
        raise ConfigError(
            f"duration {spec.duration_s:g}s at {spec.rate_hz:g} Hz yields no samples"
        )
    t = np.arange(n, dtype=np.float64) / spec.rate_hz
    params = {name: _floats(name, value) for name, value in spec.params.items()}
    q = _GENERATORS[spec.kind](t, spec.rate_hz, np.random.default_rng(spec.seed), **params)
    return TimeSeries(
        id=f"{spec.kind}:{spec.seed}",
        values=q,
        sampling_rate_hz=float(spec.rate_hz),
    )


def measure(q: TimeSeries, sensor: SensorModel, seed: int = 0) -> TimeSeries:
    """Transduce a quantity: quantize(clip(gain*q + offset + noise))."""
    if sensor.is_identity:
        # bitwise pass-through, by contract
        return dataclasses.replace(q, id=f"{q.id}#m")
    m = sensor.gain * q.values + sensor.offset
    if sensor.noise_std > 0:
        m = m + np.random.default_rng(seed).normal(0.0, sensor.noise_std, size=m.size)
    if sensor.clip_range is not None:
        m = np.clip(m, sensor.clip_range[0], sensor.clip_range[1])
    if sensor.quantization_bits is not None:
        lo, hi = sensor.clip_range
        levels = 2**sensor.quantization_bits
        step = (hi - lo) / (levels - 1)
        m = lo + np.rint((m - lo) / step) * step
    return TimeSeries(
        id=f"{q.id}#m",
        values=m,
        sampling_rate_hz=q.sampling_rate_hz,
    )


# ---------------------------------------------------------------------------
# corpus building


@dataclass(frozen=True)
class CorpusEntry:
    """A recipe row: parameter template, sensor, and how many variants.

    Template values may be scalars (fixed), (lo, hi) tuples (jittered
    uniformly per variant), or lists whose items are scalars or (lo, hi)
    tuples.
    """

    kind: str
    duration_s: float
    rate_hz: float
    params: dict
    sensor: SensorModel = field(default_factory=SensorModel)
    count: int = 1


@dataclass(frozen=True)
class ManifestRecord:
    """One generated variant: fully resolved parameters plus its seed."""

    kind: str
    params: dict  # resolved scalars/lists, including duration_s/rate_hz/sensor.*
    seed: int

    def to_line(self) -> str:
        parts = [self.kind]
        for key in sorted(self.params):
            parts.append(f"{key}={_fmt_value(self.params[key])}")
        parts.append(f"seed={self.seed}")
        return " ".join(parts)

    @classmethod
    def from_line(cls, line: str) -> "ManifestRecord":
        tokens = line.split()
        if len(tokens) < 2 or "=" in tokens[0]:
            raise ConfigError(f"malformed manifest line: {line!r}")
        kind = tokens[0]
        params = {}
        for tok in tokens[1:]:
            key, _, raw = tok.partition("=")  # no "=" leaves raw empty, which never parses
            try:
                params[key] = int(raw) if key == "seed" else _parse_value(key, raw)
            except ValueError:
                raise ConfigError(f"malformed manifest token {tok!r}") from None
        seed = params.pop("seed", None)
        if seed is None:
            raise ConfigError(f"manifest line missing seed: {line!r}")
        return cls(kind=kind, params=params, seed=seed)


def _fmt_value(v) -> str:
    if isinstance(v, (list, tuple)):
        return ",".join(repr(float(x)) for x in v)
    return str(v)


def _parse_value(key: str, raw: str):
    if key in _LIST_KEYS:
        return [float(x) for x in raw.split(",")]
    try:
        return int(raw)
    except ValueError:
        return float(raw)


def _resolve_template(value, rng):
    if isinstance(value, tuple):
        lo, hi = value
        return float(rng.uniform(lo, hi))
    if isinstance(value, list):
        return [_resolve_template(item, rng) for item in value]
    return float(value)


def _variant_seed(master_seed: int, entry_index: int, variant_index: int) -> int:
    ss = np.random.SeedSequence((master_seed, entry_index, variant_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)  # keep it positive


def realize_variant(entry: CorpusEntry, variant_seed: int, tag: str) -> tuple:
    """Resolve one variant deterministically from its seed.

    The first two draws are the quantity and noise seeds; the series is then
    regenerated from the manifest record, which draws them again from the
    same seed, so the record and the series cannot disagree.
    """
    rng = np.random.default_rng(variant_seed)
    rng.integers(2**31)  # the quantity seed, drawn again by series_from_record
    rng.integers(2**31)  # the noise seed, likewise
    manifest_params = {k: _resolve_template(entry.params[k], rng) for k in sorted(entry.params)}
    manifest_params["duration_s"] = entry.duration_s
    manifest_params["rate_hz"] = entry.rate_hz
    manifest_params["sensor.gain"] = entry.sensor.gain
    manifest_params["sensor.offset"] = entry.sensor.offset
    manifest_params["sensor.noise_std"] = entry.sensor.noise_std
    if entry.sensor.quantization_bits is not None:
        manifest_params["sensor.quantization_bits"] = entry.sensor.quantization_bits
    if entry.sensor.clip_range is not None:
        manifest_params["sensor.clip_lo"] = entry.sensor.clip_range[0]
        manifest_params["sensor.clip_hi"] = entry.sensor.clip_range[1]
    record = ManifestRecord(kind=entry.kind, params=manifest_params, seed=variant_seed)
    return dataclasses.replace(series_from_record(record), id=tag), record


def series_from_record(record: ManifestRecord) -> TimeSeries:
    """Regenerate one series from its manifest record, bitwise."""
    p = dict(record.params)

    def take(key):
        if key not in p:
            raise ConfigError(f"manifest record {record.kind} seed={record.seed}: missing {key!r}")
        return float(p.pop(key))

    duration_s = take("duration_s")
    rate_hz = take("rate_hz")
    bits = p.pop("sensor.quantization_bits", None)
    clip = None
    if "sensor.clip_lo" in p:
        clip = (take("sensor.clip_lo"), take("sensor.clip_hi"))
    sensor = SensorModel(
        gain=take("sensor.gain"),
        offset=take("sensor.offset"),
        noise_std=take("sensor.noise_std"),
        quantization_bits=int(bits) if bits is not None else None,
        clip_range=clip,
    )
    rng = np.random.default_rng(record.seed)
    quantity_seed = int(rng.integers(2**31))
    sensor_seed = int(rng.integers(2**31))
    spec = PhenomenonSpec(
        kind=record.kind, duration_s=duration_s, rate_hz=rate_hz,
        params=p, seed=quantity_seed,
    )
    return measure(generate_quantity(spec), sensor, seed=sensor_seed)


def build_corpus(recipe: Sequence[CorpusEntry], seed: int = 0) -> tuple:
    """Generate every variant of every entry; returns (pool, manifest).

    Each variant's RNG stream is derived from (seed, entry index, variant
    index), so entries regenerate identically regardless of recipe order
    changes elsewhere.
    """
    if not recipe:
        raise ConfigError("corpus recipe is empty")
    pool = []
    manifest = []
    for ei, entry in enumerate(recipe):
        if entry.count < 1:
            raise ConfigError(f"recipe entry {ei}: count must be positive")
        for vi in range(entry.count):
            vseed = _variant_seed(seed, ei, vi)
            tag = f"{entry.kind}-{ei}-{vi}"
            series, record = realize_variant(entry, vseed, tag)
            pool.append(series)
            manifest.append(record)
    return pool, manifest


def write_manifest(path, manifest: Sequence[ManifestRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in manifest:
            fh.write(record.to_line() + "\n")


def read_manifest(path) -> list:
    records = []
    with open(path, encoding="utf-8") as fh:
        try:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(ManifestRecord.from_line(line))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"manifest {path} is not UTF-8 text: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# default recipes


def default_pretrain_recipe(
    variants_per_entry: int = 16,
    duration_s: float = 24.0,
    rate_hz: float = 256.0,
) -> list:
    """The stock pretraining mix; never includes the held-out kinds."""
    clean = SensorModel()
    noisy = SensorModel(noise_std=0.01)
    coarse = SensorModel(noise_std=0.005, clip_range=(-4.0, 4.0), quantization_bits=12)
    scaled = SensorModel(gain=1.8, offset=-0.7, noise_std=0.01)

    def entry(kind, params, sensor):
        return CorpusEntry(
            kind=kind, duration_s=duration_s, rate_hz=rate_hz,
            params=params, sensor=sensor, count=variants_per_entry,
        )

    two_pi = 2.0 * math.pi
    # each template is read, never written, by the two entries that share it
    pendulum = {
        "a1": (0.5, 1.0), "f1": (0.8, 2.5), "g1": (0.02, 0.08),
        "a2": (0.2, 0.7), "f2": (2.7, 4.3), "g2": (0.03, 0.1),
        "phase1": (0.0, two_pi), "phase2": (0.0, two_pi),
        "perturb_scale": (0.05, 0.3), "perturb_decay": (0.05, 0.15),
    }
    walk = {"step_std": (0.005, 0.03), "drift_per_s": (-0.5, 0.5)}
    recipe = [
        entry("sinusoid_mixture", {
            "amplitudes": [(0.3, 1.0), (0.0, 0.6), (0.0, 0.4)],
            "frequencies_hz": [(0.4, 2.5), (1.5, 8.0), (4.0, 16.0)],
            "phases": [(0.0, two_pi), (0.0, two_pi), (0.0, two_pi)],
            "noise_std": (0.0, 0.02),
        }, clean),
        entry("sinusoid_mixture", {
            "amplitudes": [(0.3, 1.0), (0.0, 0.5)],
            "frequencies_hz": [(0.3, 1.5), (2.0, 10.0)],
            "phases": [(0.0, two_pi), (0.0, two_pi)],
            "noise_std": (0.0, 0.02),
        }, noisy),
        entry("sawtooth", {
            "amplitude": (0.5, 1.0),
            "frequency_hz": (0.4, 4.0),
            "phase": (0.0, 1.0),
            "noise_std": (0.0, 0.02),
        }, noisy),
        entry("elastic_pendulum_proxy", pendulum, clean),
        entry("elastic_pendulum_proxy", pendulum, coarse),
        entry("trended_random_walk", walk, clean),
        entry("trended_random_walk", walk, scaled),
    ]
    for e in recipe:
        assert e.kind not in HELD_OUT_KINDS
    return recipe


def heldout_oscillator_series(seed: int = 101) -> TimeSeries:
    """Bench-style decaying oscillation: spring-mass frequency, 16-bit sensor."""
    f = spring_mass_frequency_hz(1.9, 10.0)
    spec = PhenomenonSpec(
        kind="damped_oscillator",
        duration_s=19360 / 208.0,
        rate_hz=208.0,
        params={"amplitude": 1.0, "frequency_hz": f, "damping_rate": 0.03, "phase": 0.4},
        seed=seed,
    )
    sensor = SensorModel(noise_std=0.01, clip_range=(-1.2, 1.2), quantization_bits=16)
    return measure(generate_quantity(spec), sensor, seed=seed + 1)


def heldout_relaxation_series(seed: int = 202) -> TimeSeries:
    """Slow first-order settling curve sampled by a coarse 12-bit sensor."""
    spec = PhenomenonSpec(
        kind="exponential_relaxation",
        duration_s=2400.0,
        rate_hz=10.0,
        params={"q_start": 1.0, "q_end": 0.05, "tau_s": 480.0},
        seed=seed,
    )
    sensor = SensorModel(noise_std=0.008, clip_range=(-0.1, 1.1), quantization_bits=12)
    return measure(generate_quantity(spec), sensor, seed=seed + 1)
