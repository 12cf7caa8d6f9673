"""Run-time timing wrappers around patchcast's layers, and the tape census.

Nothing here edits the library.  ``Tracer.install`` replaces module
attributes *as the calling module binds them* (``patchcast.train.encode`` is
the encoder the training loop calls, ``patchcast.eval.encode`` the one the
window scorer calls) with wrappers that record one span per call, and
``uninstall`` puts the originals back.  Spans stay in memory; the runner
writes them out when the run ends.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of the
enclosing span (None at top level) and ``run`` the number of the benchmark
unit that caused it (-1 during set-up).  A span's layer is the part of its
name before the first dot.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import patchcast.data as D
import patchcast.eval as E
import patchcast.model as M
import patchcast.synth as S
import patchcast.train as T

NAME, START, END, PARENT, RUN = range(5)
STEP = "train.step"

# (module, attribute, span name): every call the benchmark can reach, keyed by
# the binding its caller looks up.  ``train.step`` spans are synthesised from
# ``make_batch`` calls, since the step loop has no function of its own.
WRAPPED = (
    (S, "build_corpus", "synth.build_corpus"),
    (S, "heldout_oscillator_series", "synth.heldout_oscillator"),
    (S, "heldout_relaxation_series", "synth.heldout_relaxation"),
    (D, "preprocess_slow_signal", "data.preprocess_slow_signal"),
    (D, "minmax_normalize", "data.minmax_normalize"),
    (M, "encode", "model.encode.one"),
    (M, "decode_forecast", "model.decode_forecast"),
    (T, "encode", "model.encode.tape"),
    (T, "decode_forecast", "model.decode_forecast"),
    (T, "decode_reconstruct", "model.decode_reconstruct"),
    (T, "init_params", "model.init_params"),
    (T, "mse", "numerics.loss"),
    (T, "pretrain", "train.pretrain"),
    (T, "finetune", "train.finetune"),
    (T, "save_checkpoint", "train.save_checkpoint"),
    (T, "load_checkpoint", "train.load_checkpoint"),
    (E, "encode", "model.encode.slab"),
    (E, "decode_forecast", "model.decode_forecast"),
    (E, "decode_reconstruct", "model.decode_reconstruct"),
    (E, "evaluate_zero_shot", "eval.evaluate_zero_shot"),
    (E, "baseline_persistence", "eval.baseline_persistence"),
    (E, "select_best_snapshot", "eval.select_best_snapshot"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run = -1
        self._stack: list = []
        self._saved: list = []
        self.census = None  # the first step's census; later steps must repeat it
        self.census_steps = 0
        self.census_mismatches = 0
        self.backward_s = defaultdict(float)  # per-op / per-GEMM-shape backward time
        self.backward_calls = 0
        self._pending = None  # (records, loss) between backward and adamw_step

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        """End span ``i`` and any span still open inside it."""
        t = time.perf_counter()
        while self._stack:
            j = self._stack.pop()
            self.spans[j][END] = t
            if j == i:
                return

    def _wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _make_batch(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a step runs from one batch draw to the next (or to the loop's end)
            if self._stack and self.spans[self._stack[-1]][NAME] == STEP:
                self.close(self._stack[-1])
            self.open(STEP)
            i = self.open("data.make_batch")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _backward(self, fn):
        @functools.wraps(fn)
        def traced(tape, loss):
            self._pending = (list(tape.records), loss)
            for rec in tape.records:
                rec.backward_fn = self._timed_rule(rec)
            self.backward_calls += 1
            i = self.open("numerics.backward")
            try:
                return fn(tape, loss)
            finally:
                self.close(i)

        return traced

    def _adamw_step(self, fn):
        @functools.wraps(fn)
        def traced(params, state):
            i = self.open("numerics.adamw_step")
            try:
                return fn(params, state)
            finally:
                self.close(i)
                self._take_census(params)

        return traced

    def _timed_rule(self, rec):
        key = gemm_key(rec) or rec.op
        rule = rec.backward_fn

        def timed(dout, needs):
            t = time.perf_counter()
            try:
                return rule(dout, needs)
            finally:
                self.backward_s[key] += time.perf_counter() - t

        return timed

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        for module, attr, name in WRAPPED:
            self._patch(module, attr, self._wrapper(getattr(module, attr), name))
        self._patch(T, "make_batch", self._make_batch(T.make_batch))
        self._patch(T, "backward", self._backward(T.backward))
        self._patch(T, "adamw_step", self._adamw_step(T.adamw_step))

    def _patch(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def begin_phase(self) -> None:
        """Forget tape statistics gathered so far (set-up may train another loop)."""
        self.census = None
        self.census_steps = 0
        self.backward_s.clear()
        self.backward_calls = 0

    # -- tape census ---------------------------------------------------------

    def _take_census(self, params) -> None:
        if self._pending is None:
            return
        records, loss = self._pending
        self._pending = None
        c = census(records, loss, params)
        if self.census is None:
            self.census = c
        elif c != self.census:
            self.census_mismatches += 1
        self.census_steps += 1


def gemm_key(rec):
    """``"matmul MxKxN"`` for a 2-D matmul record, else None."""
    if rec.op != "matmul":
        return None
    (m, k), (_, n) = rec.inputs[0].shape, rec.inputs[1].shape
    return f"matmul {m}x{k}x{n}"


def census(records, loss, optimizer_params) -> dict:
    """Exact counts over one step's tape, as ``backward`` will sweep it.

    A record is live when the loss depends on its output (the sweep computes
    its rule); it is useful when it is live and its gradient reaches a tensor
    the optimizer owns.  GEMM work counts the forward product of every matmul
    record and, for live ones, each backward product a needed input asks for.
    """
    owned = {id(p) for p in optimizer_params.values()}
    live_ids = {id(loss)}
    live = [False] * len(records)
    for i in range(len(records) - 1, -1, -1):
        rec = records[i]
        if id(rec.output) in live_ids:
            live[i] = True
            live_ids.update(id(t) for t, need in zip(rec.inputs, rec.needs) if need)
    reaches: set = set()  # ids of outputs whose gradient flows on to an owned tensor
    useful = 0
    flop = nbytes = 0
    shapes: Counter = Counter()
    for i, rec in enumerate(records):
        if any(id(t) in owned or id(t) in reaches for t in rec.inputs):
            reaches.add(id(rec.output))
            useful += live[i]
        key = gemm_key(rec)
        if key is None:
            continue
        shapes[key] += 1
        (m, k), (_, n) = rec.inputs[0].shape, rec.inputs[1].shape
        item = rec.output.data.itemsize
        products = 1 + (sum(rec.needs) if live[i] else 0)
        flop += products * 2 * m * k * n
        nbytes += products * item * (m * k + k * n + m * n)
    outside = {
        id(t)
        for rec in records
        for t in rec.inputs
        if t.requires_grad and t.grad is not None and id(t) not in owned
    }
    return {
        "records": len(records),
        "ops": dict(sorted(Counter(rec.op for rec in records).items())),
        "gemm_calls": sum(shapes.values()),
        "gemm_shapes": dict(sorted(shapes.items())),
        "gemm_flop": flop,
        "gemm_bytes": nbytes,
        "useful": useful,
        "grads_outside_optimizer": len(outside),
    }


# -- span arithmetic ----------------------------------------------------------


def self_time(spans: list, children: dict, i: int) -> float:
    """Span ``i``'s duration minus the part of it its children cover."""
    start, end = spans[i][START], spans[i][END]
    covered = 0.0
    reach = start
    for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
        lo = max(spans[c][START], reach)
        hi = min(spans[c][END], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def children_of(spans: list) -> dict:
    out = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            out[span[PARENT]].append(i)
    return out
