"""The three benchmark workloads: ``pretrain``, ``infer`` and ``adapt``.

Each is one closed-loop caller driving the library through its public
functions; the next call starts when the previous one returns.  The workload
seed makes every input: the corpus, the model init and training order, and
the held-out series.  A workload's ``unit`` is one round of its timed work;
``Run`` counts the operations a unit attempts and those that fail, where a
failed correctness check counts as a failed operation.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import patchcast.data as D
import patchcast.eval as E
import patchcast.model as M
import patchcast.synth as S
import patchcast.train as T
from patchcast.errors import PatchcastError

# A stream forecast and the sweep's forecast of the same window come from the
# same weights through GEMMs of different batch size (1 against a 32-window
# slab), so they may differ by float32 rounding.  Outputs lie on the [0, 1]
# normalised scale; 1e-5 is over ten times the largest difference seen.
STREAM_ATOL = 1e-5
STREAM_HOP = 16  # new oscillator samples per stream forecast


@dataclass(frozen=True)
class Geometry:
    model: dict  # ModelConfig fields other than the seed
    batch: int
    variants_per_entry: int  # corpus size is 7 recipe entries times this
    pretrain_steps: int
    finetune_steps: int
    eval_every: int
    relax_stride: int
    windows: tuple  # expected (osc forecast, relax forecast, osc reconstruct) counts
    stream_chunk: int  # stream forecasts per infer unit


# the flagship geometry of the acceptance tests: 876,544 parameters in 112 tensors
FLAGSHIP = Geometry(
    model=dict(l_patch=64, n_patches=16, d_model=64, n_layers=6, n_heads=4,
               d_ff=256, l_pred=128, norm_kind="batch"),
    batch=32, variants_per_entry=16, pretrain_steps=40, finetune_steps=40,
    eval_every=10, relax_stride=16, windows=(143, 79, 143), stream_chunk=64,
)

# a geometry small enough for the harness self-test to run every workload in seconds
TINY = Geometry(
    model=dict(l_patch=8, n_patches=8, d_model=16, n_layers=2, n_heads=2,
               d_ff=24, l_pred=16, norm_kind="batch"),
    batch=8, variants_per_entry=1, pretrain_steps=4, finetune_steps=4,
    eval_every=2, relax_stride=64, windows=(1206, 37, 1206), stream_chunk=64,
)


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Run:
    """Operations attempted and failed, plus the samples one run collects."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.samples = defaultdict(list)
        self.counts: dict = {}

    def attempt(self, what: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except (CheckFailed, PatchcastError) as exc:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {type(exc).__name__}: {exc}")


class StepClock:
    """Per-step latency of the training loop: one clock read per batch draw.

    The loop has no per-step hook, so the clock wraps the batch builder the
    loop calls; a step runs from one draw to the next, or to the loop's end.
    """

    def __init__(self):
        self.marks: list = []

    def install(self) -> None:
        inner = T.make_batch

        @functools.wraps(inner)
        def clocked(*args, **kwargs):
            self.marks.append(time.perf_counter())
            return inner(*args, **kwargs)

        T.make_batch = clocked

    def take_ms(self, end: float) -> list:
        """Durations of the steps marked since the last call, ending at ``end``."""
        marks, self.marks = self.marks + [end], []
        return [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]


def model_config(geo: Geometry, seed: int) -> M.ModelConfig:
    return M.ModelConfig(**geo.model, seed=seed)


def same_values(a: M.Model, b: M.Model, skip_prefix: str = "\0") -> bool:
    """Parameters (except those named ``skip_prefix*``) and statistics bitwise equal."""
    pa, pb = a.named_parameters(), b.named_parameters()
    if pa.keys() != pb.keys():
        return False
    for name in pa:
        if not name.startswith(skip_prefix) and not np.array_equal(pa[name].data, pb[name].data):
            return False
    sa, sb = a.named_running_stats(), b.named_running_stats()
    return sa.keys() == sb.keys() and all(
        np.array_equal(sa[n].running_mean, sb[n].running_mean)
        and np.array_equal(sa[n].running_var, sb[n].running_var)
        for n in sa
    )


class Workload:
    name = ""
    min_units = 1  # units a traced run must time, whatever its seconds

    def __init__(self, geo: Geometry, seed: int, run: Run, tmp: str, reference, tracer=None):
        self.geo, self.seed, self.run, self.tmp = geo, seed, run, tmp
        self.reference = reference  # default-seed oracle values, or None
        self.tracer = tracer
        self.clock = StepClock()
        self._files = 0
        mc = model_config(geo, seed)
        self.W, self.H = mc.context_length, mc.l_pred

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span, recorded only while tracing is on."""
        tr = self.tracer
        if tr is None or not tr.installed:
            yield
            return
        i = tr.open(name)
        try:
            yield
        finally:
            tr.close(i)

    def fresh_path(self) -> str:
        # a new file per save: overwriting a multi-megabyte file costs a
        # filesystem truncation that no user of a fresh output directory pays
        self._files += 1
        return os.path.join(self.tmp, f"{self.name}-{self._files}.omg")

    def corpus(self) -> list:
        pool, _ = S.build_corpus(
            S.default_pretrain_recipe(self.geo.variants_per_entry), seed=self.seed
        )
        self.run.counts["synth.corpus_samples"] = sum(len(s) for s in pool)
        return pool

    def pretrain_config(self) -> T.TrainConfig:
        return T.TrainConfig(steps=self.geo.pretrain_steps, batch_size=self.geo.batch, seed=self.seed)

    def build_checkpoint(self) -> str:
        """Pretrain the seed's flagship checkpoint, as the ``pretrain`` workload does."""
        tc = self.pretrain_config()
        result = T.pretrain(self.corpus(), model_config(self.geo, self.seed), tc)
        path = self.fresh_path()
        T.save_checkpoint(result.model, path, step=tc.steps)
        with open(path, "rb") as fh:
            self.checkpoint_bytes = fh.read()
        self.run.attempt("checkpoint_digest", lambda: self.check_digest(self.checkpoint_bytes))
        return path

    def check_digest(self, blob: bytes) -> None:
        self.run.counts["train.checkpoint_bytes"] = len(blob)
        if self.reference is not None:
            digest = hashlib.sha256(blob).hexdigest()
            check(digest == self.reference["checkpoint_sha256"],
                  f"checkpoint digest {digest} differs from the reference")

    def timed_save(self, model: M.Model, step: int) -> str:
        path = self.fresh_path()
        t0 = time.perf_counter()
        T.save_checkpoint(model, path, step=step)
        self.run.samples["checkpoint.save_ms"].append((time.perf_counter() - t0) * 1e3)
        return path

    def timed_load(self, path: str):
        t0 = time.perf_counter()
        model, step = T.load_checkpoint(path)
        self.run.samples["checkpoint.load_ms"].append((time.perf_counter() - t0) * 1e3)
        return model, step


class Pretrain(Workload):
    """``train.pretrain`` on the seed's corpus, then repeated saves of the result."""

    name = "pretrain"
    # the first save after training runs slower than the rest; with eight saves
    # per unit the median falls among the steady ones
    saves_per_unit = 8

    def setup(self) -> None:
        self.pool = self.corpus()
        self.mc = model_config(self.geo, self.seed)
        self.tc = self.pretrain_config()
        self.curve = None
        self.blob = None
        self.path = None

    def unit(self) -> None:
        self.run.attempt("pretrain", self._pretrain)
        for _ in range(self.saves_per_unit):
            self.run.attempt("save_checkpoint", self._save)
        self.run.attempt("load_checkpoint", self._load)

    def _pretrain(self) -> None:
        self.model = None
        self.clock.marks.clear()
        t0 = time.perf_counter()
        result = T.pretrain(self.pool, self.mc, self.tc)
        t1 = time.perf_counter()
        self.run.samples["latency_ms"].extend(self.clock.take_ms(t1))
        self.run.samples["windows_per_s"].append(self.tc.steps * self.tc.batch_size / (t1 - t0))
        losses = [rec.total for rec in result.curve]
        check(len(losses) == self.tc.steps and all(map(math.isfinite, losses)),
              "loss curve is short or holds a non-finite loss")
        if self.curve is None:
            self.curve = losses
            if self.reference is not None:
                want = self.reference["pretrain_loss_last"]
                check(losses[-1] == want, f"loss at step {len(losses)} is {losses[-1]!r}, reference {want!r}")
        else:
            check(losses == self.curve, "loss curve differs from this run's first pretrain call")
        self.model = result.model

    def _save(self) -> None:
        check(self.model is not None, "no trained model to save")
        path = self.timed_save(self.model, self.tc.steps)
        with open(path, "rb") as fh:
            blob = fh.read()
        if self.blob is None:
            self.blob = blob
            self.check_digest(blob)
        else:
            check(blob == self.blob, "checkpoint bytes differ between saves of the same model")
        if self.path is not None:
            os.remove(self.path)
        self.path = path

    def _load(self) -> None:
        check(self.model is not None, "no trained model to compare with")
        model, step = self.timed_load(self.path)
        check(step == self.tc.steps, f"loaded step {step}, saved {self.tc.steps}")
        check(same_values(model, self.model), "load(save(model)) is not bitwise equal to model")


class Infer(Workload):
    """Zero-shot serving: checkpoint loads, a batched sweep, a one-window stream."""

    name = "infer"
    loads_per_unit = 3
    # saves follow each other, as in ``pretrain``: on the machine this was
    # tuned on, a save made right after each load took 0.8 or 1.2 ms
    # depending on the run, while back-to-back saves did not split that way
    saves_per_unit = 4

    def setup(self) -> None:
        self.min_units = math.ceil(1000 / self.geo.stream_chunk)  # enough forecasts for a p99
        self.osc = S.heldout_oscillator_series(101 + self.seed)
        self.relax = D.preprocess_slow_signal(S.heldout_relaxation_series(202 + self.seed), 1.0, 5)
        self.path = self.build_checkpoint()
        self.model, _ = T.load_checkpoint(self.path)
        # the first scoring call of a process runs several times slower than
        # later ones; this untimed sweep lets that warm-up finish and keeps the
        # sweep's oscillator forecasts for the stream check
        self.sweep_forecast = {}
        self.first = self._sweep(on_window=lambda o, ctx, pred: self.sweep_forecast.__setitem__(o, pred))
        self.t = self.W

    def unit(self) -> None:
        for _ in range(self.loads_per_unit):
            self.run.attempt("load_checkpoint", self._load)
        for _ in range(self.saves_per_unit):
            self.run.attempt("save_checkpoint", self._resave)
        self.run.attempt("sweep", self._timed_sweep)
        for _ in range(self.geo.stream_chunk):
            self.run.attempt("stream_forecast", self._forecast)

    def _load(self) -> None:
        self.loaded = None
        model, _ = self.timed_load(self.path)
        check(same_values(model, self.model), "loaded model differs from the served one")
        self.loaded = model

    def _resave(self) -> None:
        check(self.loaded is not None, "no loaded model to save")
        path = self.timed_save(self.loaded, self.geo.pretrain_steps)
        with open(path, "rb") as fh:
            same = fh.read() == self.checkpoint_bytes
        os.remove(path)
        check(same, "save(load(checkpoint)) is not byte-identical to the checkpoint")

    def _sweep(self, on_window=None) -> tuple:
        W, H, m = self.W, self.H, self.model
        with self.span("bench.score.osc_forecast"):
            osc_f = E.evaluate_zero_shot(m, self.osc, "forecast", W, H, H, workers=1, on_window=on_window)
        with self.span("bench.score.relax_forecast"):
            relax_f = E.evaluate_zero_shot(m, self.relax, "forecast", W, H, self.geo.relax_stride, workers=1)
        with self.span("bench.score.osc_reconstruct"):
            osc_r = E.evaluate_zero_shot(m, self.osc, "reconstruct", W, H, H, workers=1)
        persistence = E.baseline_persistence(self.osc, W, H, H)
        return osc_f, relax_f, osc_r, persistence

    def _timed_sweep(self) -> None:
        t0 = time.perf_counter()
        reports = self._sweep()
        dt = time.perf_counter() - t0
        windows = sum(r.n_windows for r in reports[:3])
        self.run.samples["windows_per_s"].append(windows / dt)
        self.run.samples["eval.windows"].append(windows)
        counts = tuple(r.n_windows for r in reports[:3])
        check(counts == self.geo.windows, f"window counts {counts}, expected {self.geo.windows}")
        mses = [r.mean_mse for r in reports]
        check(all(map(math.isfinite, mses)), "a report holds a non-finite mean_mse")
        check(mses == [r.mean_mse for r in self.first], "a sweep's mean_mse differs from the first sweep's")
        if self.reference is not None:
            want = self.reference["infer_mean_mse"]
            check(mses == want, f"sweep mean_mse {mses} differs from the reference {want}")

    def _forecast(self) -> None:
        values, W, cfg = self.osc.values, self.W, self.model.config
        t = self.t
        self.t = t + STREAM_HOP if t + STREAM_HOP <= len(values) else W
        t0 = time.perf_counter()
        with self.span("bench.stream_forecast"):
            ctx = D.minmax_normalize(values[t - W : t], source_offset=t - W)
            patches = ctx.values.reshape(cfg.n_patches, cfg.l_patch).astype(np.float32)
            _, z = M.encode(patches, self.model, mode="infer")
            pred = M.decode_forecast(z, self.model.forecast).data
        self.run.samples["latency_ms"].append((time.perf_counter() - t0) * 1e3)
        check(bool(np.all(np.isfinite(pred))), f"stream forecast at sample {t} is not finite")
        ref = self.sweep_forecast.get(t - W)
        if ref is not None:
            gap = float(np.max(np.abs(pred - ref)))
            self.run.samples["stream.sweep_gap"].append(gap)
            check(gap <= STREAM_ATOL, f"stream forecast at offset {t - W} is {gap:.3g} from the sweep's")


class Adapt(Workload):
    """The ``patchcast finetune`` path on the held-out oscillator."""

    name = "adapt"

    def setup(self) -> None:
        self.osc = S.heldout_oscillator_series(101 + self.seed)
        _, self.val, self.test = E.split_series(self.osc, self.W, self.H)
        self.val_windows = len(D.sliding_windows(self.val, self.W, self.H, self.H))
        self.path = self.build_checkpoint()
        self.pristine, _ = T.load_checkpoint(self.path)
        self.tc = T.TrainConfig(
            steps=self.geo.finetune_steps, batch_size=self.geo.batch,
            eval_every=self.geo.eval_every, seed=self.seed, target_mode="finetune_forecast",
        )
        self.outcome = None

    def unit(self) -> None:
        self.run.attempt("load_checkpoint", self._load)
        self.run.attempt("adapt", self._adapt)
        self.run.attempt("save_checkpoint", self._save)

    def _load(self) -> None:
        self.model = None
        model, _ = self.timed_load(self.path)
        check(same_values(model, self.pristine), "loaded model differs from the checkpoint's first load")
        self.model = model

    def _adapt(self) -> None:
        check(self.model is not None, "no loaded model to adapt")
        m, W, H = self.model, self.W, self.H
        self.adapted = None
        self.clock.marks.clear()
        t0 = time.perf_counter()
        result = T.finetune(m, self.osc, self.tc)
        t1 = time.perf_counter()
        step, _ = E.select_best_snapshot(m, result, self.val, "forecast", W, H, H)
        report = E.evaluate_zero_shot(m, self.test, "forecast", W, H, H, workers=1)
        t2 = time.perf_counter()
        self.run.samples["latency_ms"].extend(self.clock.take_ms(t1))
        scored = len(result.snapshots) * self.val_windows + report.n_windows
        self.run.samples["eval.windows"].append(scored)
        self.run.samples["windows_per_s"].append((self.tc.steps * self.tc.batch_size + scored) / (t2 - t0))
        losses = [rec.total for rec in result.curve]
        check(all(map(math.isfinite, losses + [report.mean_mse])), "non-finite loss or test mse")
        check(same_values(m, self.pristine, skip_prefix="dec_forecast."),
              "encoder, statistics or idle head moved during adaptation")
        outcome = (step, report.mean_mse)
        if self.outcome is None:
            self.outcome = outcome
            if self.reference is not None:
                want = (self.reference["adapt_step"], self.reference["adapt_test_mse"])
                check(outcome == want, f"adapt (step, test mse) {outcome} differs from the reference {want}")
        else:
            check(outcome == self.outcome, f"adapt outcome {outcome} differs from the first cycle's")
        self.adapted = step

    def _save(self) -> None:
        check(self.adapted is not None, "no adapted model to save")
        path = self.timed_save(self.model, self.adapted + 1)
        os.remove(path)


WORKLOADS = {w.name: w for w in (Pretrain, Infer, Adapt)}
