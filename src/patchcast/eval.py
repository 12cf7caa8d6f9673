"""Sliding-window scoring of trained models against held-out signals.

Everything here reports MSE in the per-window normalized scale: each context
is min-max mapped onto [0,1] and the ground truth is pushed through the same
affine map, so scores are comparable across signals of wildly different
physical magnitude.  Denormalized traces are available for inspection via the
``on_window`` hook, but the metric itself is always normalized.

A sweep handles its windows as one block: every window is a row, normalized
by ``data.normalize_rows``, and the model MSE and both baselines are row
reductions over that block.
"""

import csv
import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import (
    ContextWindow,
    SplitSpec,  # re-exported: callers import the split from here too
    TimeSeries,
    normalize_rows,
    split_series,
    window_count,
)
from .errors import (
    CompareError,
    ConfigError,
    ContractError,
    PatchcastError,
)
from .model import Model, ModelConfig, decode_forecast, decode_reconstruct, encode
from .train import (
    TrainConfig,
    TrainResult,
    clone_model,
    finetune,
    restore_snapshot,
    target_train,
)

log = logging.getLogger(__name__)

TASKS = ("forecast", "reconstruct")
VARIANTS = ("zero_shot", "fine_tuned", "target_trained", "persistence")

# Windows are scored through the encoder in fixed-size slabs, which bounds the
# activations held at once.  The size is a constant, never derived from the
# machine, so a sweep does the same arithmetic — and gives the same bits —
# wherever it runs.
_SLAB = 32


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class WindowScore:
    offset: int
    mse: float


@dataclass(frozen=True)
class EvalReport:
    """Per-window and aggregate scores for one (series, task, variant) run."""

    dataset: str
    task: str
    variant: str
    window: int
    horizon: int
    stride: int
    series_length: int
    per_window: tuple  # of WindowScore
    mean_mse: float
    persistence_mse: float
    mean_baseline_mse: float

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        expected = window_count(self.series_length, self.window, self.horizon, self.stride)
        if len(self.per_window) != expected:
            raise ContractError(
                f"report has {len(self.per_window)} windows; geometry "
                f"(L={self.series_length}, W={self.window}, H={self.horizon}, "
                f"S={self.stride}) requires {expected}"
            )
        mean = float(np.mean([w.mse for w in self.per_window], dtype=np.float64))
        if abs(mean - self.mean_mse) > 1e-9:
            raise ContractError(
                f"mean_mse {self.mean_mse!r} disagrees with per-window mean {mean!r}"
            )

    @property
    def n_windows(self) -> int:
        return len(self.per_window)


# ---------------------------------------------------------------------------
# window scoring


def check_geometry(mc: ModelConfig, window: int, horizon: int) -> None:
    """Refuse a window that is not the model's context or a horizon past its l_pred."""
    if window != mc.context_length:
        raise ConfigError(
            f"checkpoint expects a context of {mc.context_length} samples "
            f"(n_patches={mc.n_patches} x l_patch={mc.l_patch}); "
            f"eval window is {window}"
        )
    if horizon > mc.l_pred:
        raise ConfigError(
            f"horizon {horizon} exceeds the checkpoint's forecast length "
            f"l_pred={mc.l_pred}"
        )


def _windows(series: TimeSeries, task: str, window: int, horizon: int, stride: int) -> tuple:
    """(offsets, contexts, lo, hi, truths) of every sliding window, as arrays.

    ``contexts`` is (N, window) in the normalized scale and ``lo``/``hi`` hold
    each context's min-max map.  Reconstruction is scored against the context
    exactly as the encoder receives it (after the float32 cast), so perfect
    reconstruction scores exactly zero; the forecast truth is not a model
    input and stays float64.
    """
    offsets = np.arange(window_count(len(series.values), window, horizon, stride)) * stride
    rows, lo, hi = normalize_rows(
        sliding_window_view(series.values, window + horizon)[::stride], window
    )
    contexts = rows[:, :window]
    if task == "forecast":
        truths = rows[:, window:]
    else:
        truths = contexts.astype(np.float32).astype(np.float64)
    return offsets, contexts, lo, hi, truths


def _row_mse(pred, truths) -> np.ndarray:
    """One MSE per row; ``pred`` broadcasts against the (N, K) truths."""
    return ((pred - truths) ** 2).mean(axis=1)


def _baselines(contexts, truths) -> tuple:
    """Per-window (persistence, window-mean) MSEs, in normalized scale."""
    return (
        _row_mse(contexts[:, -1:], truths),
        _row_mse(contexts.mean(axis=1, keepdims=True), truths),
    )


def evaluate_zero_shot(
    model: Model,
    series: TimeSeries,
    task: str,
    window: int,
    horizon: int,
    stride: int,
    workers: int = 1,
    variant: str = "zero_shot",
    on_window: Optional[Callable] = None,
) -> EvalReport:
    """Score every sliding window without updating a single parameter.

    Each context is normalized, encoded in infer mode and decoded by the task
    head; the MSE is taken against the normalized ground truth (forecast: the
    next ``horizon`` samples under the context's affine map; reconstruct: the
    context itself).  When horizon < l_pred only the first ``horizon``
    forecast outputs are scored.  ``on_window(offset, context, prediction)``
    is invoked in offset order after scoring, e.g. to emit traces.

    Scoring runs on the calling thread, one slab of ``_SLAB`` windows after
    another; BLAS already spreads each slab's GEMMs over the cores.
    ``workers`` accepts only 1.  It stays a keyword because the benchmark
    harness in ``perfbench/`` still passes ``workers=1``; it goes once the
    harness stops.
    """
    if workers != 1:
        raise ConfigError(f"workers must be 1 (scoring runs on one thread), got {workers!r}")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    check_geometry(model.config, window, horizon)
    offsets, contexts, lo, hi, truths = _windows(series, task, window, horizon, stride)
    mc = model.config
    slabs = []
    for a in range(0, len(offsets), _SLAB):
        inputs = contexts[a : a + _SLAB].reshape(-1, mc.n_patches, mc.l_patch)
        _, z = encode(inputs.astype(np.float32), model, mode="infer")
        if task == "forecast":
            slabs.append(decode_forecast(z, model.forecast).data[:, :horizon])
        else:
            slabs.append(decode_reconstruct(z, model.reconstruct).data)
    pred = np.concatenate(slabs)
    mses = _row_mse(pred, truths)
    pers, meanb = _baselines(contexts, truths)

    if on_window is not None:
        for i, offset in enumerate(offsets.tolist()):
            ctx = ContextWindow(contexts[i], float(lo[i]), float(hi[i]), source_offset=offset)
            on_window(offset, ctx, pred[i])

    return EvalReport(
        dataset=series.id,
        task=task,
        variant=variant,
        window=window,
        horizon=horizon,
        stride=stride,
        series_length=len(series.values),
        per_window=tuple(map(WindowScore, offsets.tolist(), mses.tolist())),
        mean_mse=float(mses.mean()),
        persistence_mse=float(pers.mean()),
        mean_baseline_mse=float(meanb.mean()),
    )


def baseline_persistence(
    series: TimeSeries,
    window: int,
    horizon: int,
    stride: int,
    task: str = "forecast",
) -> EvalReport:
    """Model-free reference: repeat the last context value (or its mean).

    The per-window records hold the persistence MSE; the window-mean variant
    rides along in ``mean_baseline_mse``.  Same normalization as model runs.
    """
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    offsets, contexts, _, _, truths = _windows(series, task, window, horizon, stride)
    pers, meanb = _baselines(contexts, truths)
    mean_p = float(pers.mean())
    return EvalReport(
        dataset=series.id,
        task=task,
        variant="persistence",
        window=window,
        horizon=horizon,
        stride=stride,
        series_length=len(series.values),
        per_window=tuple(map(WindowScore, offsets.tolist(), pers.tolist())),
        mean_mse=mean_p,
        persistence_mse=mean_p,
        mean_baseline_mse=float(meanb.mean()),
    )


# ---------------------------------------------------------------------------
# three-way comparison


def select_best_snapshot(
    model: Model,
    result: TrainResult,
    validation: TimeSeries,
    task: str,
    window: int,
    horizon: int,
    stride: int,
) -> tuple:
    """Restore the snapshot with the lowest validation MSE; ties keep the
    earliest.  Returns (step, validation_mse) of the winner."""
    if not result.snapshots:
        raise ContractError("training produced no snapshots to select from")
    best_step, best_mse, best_snap = None, None, None
    for step, snap in result.snapshots:
        restore_snapshot(model, snap)
        report = evaluate_zero_shot(model, validation, task, window, horizon, stride)
        log.debug("snapshot step %d validation mse %.6g", step, report.mean_mse)
        if best_mse is None or report.mean_mse < best_mse:
            best_step, best_mse, best_snap = step, report.mean_mse, snap
    restore_snapshot(model, best_snap)
    return best_step, best_mse


def percent_delta(mse_a: float, mse_b: float) -> float:
    """How much lower b is than a, in percent of a (negative: b is higher)."""
    if mse_a == 0.0:
        return float("nan")
    return (mse_a - mse_b) / mse_a * 100.0


@dataclass(frozen=True)
class CompareSummary:
    zero_shot_mse: float
    fine_tuned_mse: float
    target_trained_mse: float
    fine_tuned_step: int
    target_trained_step: int

    def _pairs(self):
        named = {
            "zero_shot": self.zero_shot_mse,
            "fine_tuned": self.fine_tuned_mse,
            "target_trained": self.target_trained_mse,
        }
        for b, a in (
            ("fine_tuned", "zero_shot"),
            ("target_trained", "zero_shot"),
            ("fine_tuned", "target_trained"),
        ):
            yield b, a, named[b], named[a], percent_delta(named[a], named[b])

    def lines(self) -> list:
        out = [
            f"zero_shot mse {self.zero_shot_mse:.6g}",
            f"fine_tuned mse {self.fine_tuned_mse:.6g} (snapshot step {self.fine_tuned_step})",
            f"target_trained mse {self.target_trained_mse:.6g} "
            f"(snapshot step {self.target_trained_step})",
        ]
        for b, a, mse_b, mse_a, pct in self._pairs():
            direction = "lower" if pct >= 0 else "higher"
            out.append(f"{b} {abs(pct):.1f}% {direction} than {a}")
        return out


@dataclass(frozen=True)
class CompareResult:
    reports: dict  # variant -> EvalReport
    summary: CompareSummary


def three_way_compare(
    model: Model,
    target: TimeSeries,
    task: str,
    window: int,
    horizon: int,
    stride: int,
    train_config: TrainConfig,
) -> CompareResult:
    """Zero-shot vs fine-tuned vs target-trained on one target series.

    The target is split 80/10/10; all three variants are scored on the test
    segment with identical window geometry.  Fine-tuning adapts only the task
    decoder of a clone (the given model is never written); target training
    fits a fresh model of the same architecture.  Both training legs select
    the snapshot with the best validation MSE.  Training draws length-l_pred
    targets, so the legs need len(target) >= 10*(window + l_pred) even when
    the eval horizon is shorter.  A failed leg aborts with the completed
    reports attached to the error.
    """
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    check_geometry(model.config, window, horizon)
    train_seg, val_seg, test_seg = split_series(target, window, horizon)
    log.info(
        "three-way compare on %r: segments %d/%d/%d samples",
        target.id, len(train_seg.values), len(val_seg.values), len(test_seg.values),
    )
    reports: dict = {}

    def leg(name: str, run: Callable):
        try:
            return run()
        except PatchcastError as exc:
            raise CompareError(f"{name} leg failed: {exc}", partial=reports) from exc

    reports["zero_shot"] = leg(
        "zero-shot",
        lambda: evaluate_zero_shot(model, test_seg, task, window, horizon, stride),
    )

    def run_finetuned():
        twin = clone_model(model)
        cfg = replace(train_config, target_mode=f"finetune_{task}")
        result = finetune(twin, target, cfg)
        step, _ = select_best_snapshot(twin, result, val_seg, task, window, horizon, stride)
        report = evaluate_zero_shot(
            twin, test_seg, task, window, horizon, stride, variant="fine_tuned"
        )
        return report, step

    reports["fine_tuned"], ft_step = leg("fine-tuned", run_finetuned)

    def run_target_trained():
        cfg = replace(train_config, target_mode="target_train")
        result = target_train(target, model.config, cfg)
        fresh = result.model
        step, _ = select_best_snapshot(fresh, result, val_seg, task, window, horizon, stride)
        report = evaluate_zero_shot(
            fresh, test_seg, task, window, horizon, stride, variant="target_trained"
        )
        return report, step

    reports["target_trained"], tt_step = leg("target-trained", run_target_trained)
    summary = CompareSummary(
        zero_shot_mse=reports["zero_shot"].mean_mse,
        fine_tuned_mse=reports["fine_tuned"].mean_mse,
        target_trained_mse=reports["target_trained"].mean_mse,
        fine_tuned_step=ft_step,
        target_trained_step=tt_step,
    )
    return CompareResult(reports=reports, summary=summary)


# ---------------------------------------------------------------------------
# persistence to CSV


REPORT_HEADER = "dataset,task,variant,windows,mean_mse,persistence_mse,mean_baseline_mse"


def write_report_summary(path, reports: Sequence[EvalReport]) -> None:
    """One summary line per report; a dataset id holding a comma is quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(REPORT_HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for r in reports:
            writer.writerow([
                r.dataset, r.task, r.variant, r.n_windows,
                repr(r.mean_mse), repr(r.persistence_mse), repr(r.mean_baseline_mse),
            ])


def write_window_csv(path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("offset,mse\n")
        for w in report.per_window:
            fh.write(f"{w.offset},{w.mse!r}\n")
