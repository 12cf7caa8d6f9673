"""Series ingestion, per-window normalization, patching, and batch assembly.

Every context window is normalized to [0, 1] with its own min/max; the same
affine map is applied to that window's forecast target (which may therefore
leave [0, 1] — never clipped).  Constant windows map to 0.5 everywhere.
``normalize_rows`` is the one implementation of that map: it works on a
block of rows, one window (context then target) per row, and training
batches, eval sweeps and the single-window ``minmax_normalize`` all call it.
The chronological train/validation/test split (``split_series``) lives here
too: training reads the train segment, eval scores the other two.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DivisibilityError,
    InsufficientDataError,
    NumericError,
    RateError,
)


@dataclass(frozen=True)
class TimeSeries:
    """An immutable ordered sequence of finite measurements."""

    id: str
    values: np.ndarray
    sampling_rate_hz: Optional[float] = None

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if arr.ndim != 1 or arr.size == 0:
            raise DataError(f"series {self.id!r}: values must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DataError(f"series {self.id!r}: non-finite value at index {bad}")
        if self.sampling_rate_hz is not None and not self.sampling_rate_hz > 0:
            raise DataError(f"series {self.id!r}: sampling rate must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ContextWindow:
    """A window normalized into [0,1], remembering its affine map and origin."""

    values: np.ndarray
    norm_min: float
    norm_max: float
    source_offset: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if self.norm_max < self.norm_min:
            raise DataError("norm_max must be >= norm_min")
        if v.min() < 0.0 or v.max() > 1.0:
            raise DataError("context window values must lie in [0, 1]")
        if self.norm_max > self.norm_min:
            if abs(v.min()) > 1e-6 or abs(v.max() - 1.0) > 1e-6:
                raise DataError("non-constant window must span [0, 1]")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Batch:
    """B normalized windows as patches, plus forecast/reconstruction targets.

    inputs: (B, n, l_patch); forecast_targets: (B, l_pred) in each window's
    context scale (not clipped); reconstruction_targets: (B, W), the inputs
    flattened (the same read-only float32 buffer).
    """

    inputs: np.ndarray
    forecast_targets: np.ndarray
    reconstruction_targets: np.ndarray

    def __post_init__(self):
        b, n, lp = self.inputs.shape
        if self.forecast_targets.shape[0] != b or self.reconstruction_targets.shape != (b, n * lp):
            raise DataError("batch arrays disagree on B/W")
        for arr in (self.inputs, self.forecast_targets, self.reconstruction_targets):
            arr.setflags(write=False)


@dataclass(frozen=True)
class WindowSpan:
    """Half-open index ranges of one sliding window: context then target."""

    context: tuple  # (start, stop), stop - start == W
    target: tuple  # (start, stop), stop - start == H

    @property
    def offset(self) -> int:
        return self.context[0]


# ---------------------------------------------------------------------------
# normalization


def normalize_rows(raw, W: int) -> tuple:
    """Min-max map each row of a (N, >= W) block by its first W samples.

    Returns (rows, lo, hi) with rows = (raw - lo) / (hi - lo) row by row, so
    samples past the first W (a forecast target) share their context's map
    and may leave [0, 1]; they are never clipped.  A row whose context is
    constant maps to 0.5 everywhere.  ``lo`` and ``hi`` are each row's
    context minimum and maximum.
    """
    raw = np.asarray(raw, dtype=np.float64)
    lo = raw[:, :W].min(axis=1)
    hi = raw[:, :W].max(axis=1)
    flat = hi <= lo
    rows = raw - lo[:, None]
    rows /= np.where(flat, 1.0, hi - lo)[:, None]
    rows[flat] = 0.5
    return rows, lo, hi


def minmax_normalize(window, source_offset: int = 0) -> ContextWindow:
    """Affine-map a raw window onto [0,1]; constant windows go to all-0.5."""
    v = np.asarray(window, dtype=np.float64)
    if v.size == 0:
        raise DataError("cannot normalize an empty window")
    if not np.all(np.isfinite(v)):
        raise NumericError("window contains non-finite values")
    rows, lo, hi = normalize_rows(v.reshape(1, -1), v.size)
    return ContextWindow(
        values=rows[0], norm_min=float(lo[0]), norm_max=float(hi[0]), source_offset=source_offset
    )


def denormalize(values, window: ContextWindow) -> np.ndarray:
    """Inverse map back to source units; constant windows give norm_min."""
    v = np.asarray(values, dtype=np.float64)
    span = window.norm_max - window.norm_min
    if span <= 0.0:
        return np.full_like(v, window.norm_min)
    return v * span + window.norm_min


# ---------------------------------------------------------------------------
# windowing


def sliding_windows(series, W: int, H: int, S: int) -> list:
    """Enumerate context/target index spans at offsets 0, S, 2S, ...

    Accepts a TimeSeries or a plain length.  The number of windows is
    floor((L - W - H)/S) + 1; every context is immediately followed by its
    length-H target.
    """
    if isinstance(series, TimeSeries):
        L = len(series.values)
    else:
        L = int(series)
    for name, val in (("W", W), ("H", H), ("S", S)):
        if val < 1:
            raise ConfigError(f"{name} must be positive, got {val}")
    if L < W + H:
        raise InsufficientDataError(
            f"series has {L} samples but one window needs at least {W + H}"
        )
    count = (L - W - H) // S + 1
    return [
        WindowSpan(context=(o, o + W), target=(o + W, o + W + H))
        for o in range(0, count * S, S)
    ]


class SplitSpec:
    """Chronological 80/10/10 split: earliest train, middle validation,
    most recent test."""

    def boundaries(self, length: int) -> tuple:
        """Sample indices (train_end, validation_end) = (floor(0.8 L), floor(0.9 L))."""
        return 4 * length // 5, 9 * length // 10


def split_series(series: TimeSeries, window: int, horizon: int) -> tuple:
    """Split a series into (train, validation, test) segments, oldest first.

    The minimum length 10*(window+horizon) guarantees every segment admits at
    least one sliding window.  Segments are views onto the parent's buffer.
    """
    L = len(series.values)
    minimum = 10 * (window + horizon)
    if L < minimum:
        raise InsufficientDataError(
            f"series {series.id!r} has {L} samples; a three-way split with "
            f"window={window}, horizon={horizon} needs at least {minimum}"
        )
    b1, b2 = SplitSpec().boundaries(L)

    def seg(lo: int, hi: int, tag: str) -> TimeSeries:
        return TimeSeries(
            id=f"{series.id}/{tag}",
            values=series.values[lo:hi],
            sampling_rate_hz=series.sampling_rate_hz,
        )

    return seg(0, b1, "train"), seg(b1, b2, "val"), seg(b2, L, "test")


def preprocess_slow_signal(series: TimeSeries, target_hz: float, smooth_width: int = 5) -> TimeSeries:
    """Block-average down to target_hz, then smooth with a centered window.

    The decimation factor rate/target_hz must be a whole number; each output
    sample is the mean of one block of inputs (a trailing partial block is
    dropped).  The moving average is centered with width ``smooth_width``
    (positive odd); near the edges the window shrinks symmetrically.
    """
    if series.sampling_rate_hz is None:
        raise RateError(f"series {series.id!r} has no sampling rate; cannot resample")
    if target_hz <= 0:
        raise ConfigError(f"target_hz must be positive, got {target_hz}")
    factor_f = series.sampling_rate_hz / target_hz
    factor = int(round(factor_f))
    if factor < 1 or abs(factor_f - factor) > 1e-9:
        raise RateError(
            f"decimation factor {factor_f:g} (rate {series.sampling_rate_hz:g} Hz "
            f"to {target_hz:g} Hz) is not a whole number"
        )
    if smooth_width < 1 or smooth_width % 2 == 0:
        raise ConfigError(f"smooth_width must be positive and odd, got {smooth_width}")

    v = series.values
    usable = (len(v) // factor) * factor
    if usable == 0:
        raise InsufficientDataError(
            f"series {series.id!r} too short to decimate by {factor}"
        )
    coarse = v[:usable].reshape(-1, factor).mean(axis=1)

    half = smooth_width // 2
    if half == 0 or len(coarse) == 1:
        smoothed = coarse
    else:
        # interior: full-width average via cumulative sums; edges shrink
        cs = np.concatenate([[0.0], np.cumsum(coarse)])
        n = len(coarse)
        i = np.arange(n)
        k = np.minimum(half, np.minimum(i, n - 1 - i))
        smoothed = (cs[i + k + 1] - cs[i - k]) / (2 * k + 1)
    return TimeSeries(
        id=f"{series.id}@{target_hz:g}hz",
        values=smoothed,
        sampling_rate_hz=float(target_hz),
    )


# ---------------------------------------------------------------------------
# batching


def make_batch(pool: Sequence[TimeSeries], count: int, W: int, H: int, l_patch: int, rng) -> Batch:
    """Assemble a training batch of normalized, patched windows.

    Sampling picks a series uniformly among those long enough for a W+H
    window, then an offset uniformly within it.  Deterministic for a given
    seed (pass an int) or generator state.
    """
    if count < 1:
        raise ConfigError(f"batch count must be positive, got {count}")
    if W % l_patch != 0:
        raise DivisibilityError(f"W={W} is not a multiple of l_patch={l_patch}")
    gen = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    admissible = [s for s in pool if len(s.values) >= W + H]
    if not admissible:
        raise InsufficientDataError(
            f"no series in the pool admits a window of {W}+{H} samples"
        )
    block = np.empty((count, W + H))
    for row in block:
        s = admissible[int(gen.integers(len(admissible)))]
        o = int(gen.integers(len(s.values) - W - H + 1))
        row[:] = s.values[o : o + W + H]
    rows, _, _ = normalize_rows(block, W)
    context = rows[:, :W].astype(np.float32)
    return Batch(
        inputs=context.reshape(count, W // l_patch, l_patch),
        forecast_targets=rows[:, W:].astype(np.float32),
        reconstruction_targets=context,
    )


# ---------------------------------------------------------------------------
# CSV in/out


def load_csv(path) -> TimeSeries:
    """Read the last column of a CSV file as one numeric series.

    A first row whose last cell fails numeric parsing is treated as a
    header.  Row numbers in errors are 1-based and include the header.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]

    if not rows:
        raise DataError(f"{path.name}: empty file")

    start = 0
    try:
        float(rows[0][-1])
    except ValueError:
        start = 1

    values = []
    for i in range(start, len(rows)):
        cell = rows[i][-1]
        try:
            values.append(float(cell))
        except ValueError:
            raise DataError(f"{path.name}: cannot parse {cell!r} at row {i + 1}") from None
    if not values:
        raise DataError(f"{path.name}: no data rows")
    return TimeSeries(id=path.stem, values=np.asarray(values))


def save_series_csv(path, series: TimeSeries) -> None:
    """Write a series as a single 'value' column (full float64 precision)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value"])
        for x in series.values:
            writer.writerow([repr(float(x))])


def write_trace_csv(path, rows) -> None:
    """Write prediction traces: offset, ground_truth, prediction (source units).

    ``rows`` yields (offset, ground_truth, prediction); None cells are blank.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["offset", "ground_truth", "prediction"])
        for offset, truth, pred in rows:
            writer.writerow([
                offset,
                "" if truth is None else repr(float(truth)),
                "" if pred is None else repr(float(pred)),
            ])
