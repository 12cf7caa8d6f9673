"""The environment record of every result, and the per-layer metrics of a traced run."""

from __future__ import annotations

import ctypes
import os
import platform
from collections import defaultdict

import numpy as np

from stats import median, percentile, tail_percentile
from tracing import END, NAME, RUN, START, STEP, children_of, self_time

# Ops the library's model and training loop record; any other op a later
# change adds is counted under ``numerics.tape.records.other``.
TAPE_OPS = (
    "add", "append_token", "batch_norm", "batch_norm_infer", "causal_attention",
    "layer_norm", "matmul", "mse", "relu", "reshape", "scale", "select_position",
)


def threads_now() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime() -> dict:
    """Thread count and build string of the OpenBLAS that NumPy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        out = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    out.update(threads=threads(), config=config().decode())
                    return out
        return out
    return {}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "runtime": _openblas_runtime(),
            "thread_env": {
                k: os.environ.get(k)
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
    }


def end_to_end(samples: dict) -> dict:
    """The end-to-end metrics a workload's timed units sampled (set-up and memory aside)."""
    return {
        "windows_per_s": median(samples["windows_per_s"]),
        "latency_ms.p50": percentile(samples["latency_ms"], 50),
        "checkpoint.save_ms": median(samples["checkpoint.save_ms"]),
        "checkpoint.load_ms": median(samples["checkpoint.load_ms"]),
    }


def per_layer(tracer, run, overhead_pct: float) -> dict:
    """Per-layer metrics from the traced phase (``run >= 0``) and set-up (-1).

    Timings are per call, in milliseconds, unless the name says otherwise; a
    layer the workload never calls reads 0.
    """
    spans = tracer.spans
    kids = children_of(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def ms(i):
        return (spans[i][END] - spans[i][START]) * 1e3

    def timed(name):  # durations of the traced phase
        return [ms(i) for i in by_name[name] if spans[i][RUN] >= 0]

    def setup_ms(*names):
        return sum(ms(i) for n in names for i in by_name[n] if spans[i][RUN] < 0)

    def self_ms(name):
        return [self_time(spans, kids, i) * 1e3 for i in by_name[name] if spans[i][RUN] >= 0]

    eval_self = defaultdict(float)
    slabs = defaultdict(int)
    for i, s in enumerate(spans):
        if s[RUN] >= 0 and s[NAME].startswith("eval."):
            eval_self[s[RUN]] += self_time(spans, kids, i) * 1e3
        if s[RUN] >= 0 and s[NAME] == "model.encode.slab":
            slabs[s[RUN]] += 1

    steps = timed(STEP)
    c = tracer.census or {}
    ops = c.get("ops", {})
    calls = max(tracer.backward_calls, 1)
    stream = timed("bench.stream_forecast")
    if stream and (tail_percentile(len(stream)) or 0) < 99:
        run.problems.append(f"stream p99 rests on {len(stream)} samples, fewer than 1000")

    out = {
        "synth.build_corpus_ms": setup_ms("synth.build_corpus"),
        "synth.corpus_samples": run.counts.get("synth.corpus_samples", 0),
        "synth.heldout_ms": setup_ms("synth.heldout_oscillator", "synth.heldout_relaxation"),
        "data.make_batch_ms.p50": median(timed("data.make_batch")),
        "data.preprocess_slow_signal_ms": setup_ms("data.preprocess_slow_signal"),
        "data.minmax_normalize_ms.p50": median(timed("data.minmax_normalize")),
        "model.init_params_ms": median(timed("model.init_params")),
        "model.encode_ms.p50": median(timed("model.encode.tape")),
        "model.encode_slab_ms.p50": median(timed("model.encode.slab")),
        "model.encode_one_ms.p50": median(timed("model.encode.one")),
        "model.decode_forecast_ms.p50": median(timed("model.decode_forecast")),
        "model.decode_reconstruct_ms.p50": median(timed("model.decode_reconstruct")),
        "numerics.loss_ms.p50": median(timed("numerics.loss")),
        "numerics.backward_ms.p50": median(timed("numerics.backward")),
        "numerics.adamw_step_ms.p50": median(timed("numerics.adamw_step")),
        "numerics.backward.gemm_ms": sum(
            v for k, v in tracer.backward_s.items() if k.startswith("matmul")
        ) * 1e3 / calls,
        "numerics.tape.records": c.get("records", 0),
    }
    for op in TAPE_OPS:
        out[f"numerics.tape.records.{op}"] = ops.get(op, 0)
    out["numerics.tape.records.other"] = sum(n for op, n in ops.items() if op not in TAPE_OPS)
    step_ms = median(steps)
    out.update({
        "numerics.gemm.calls": c.get("gemm_calls", 0),
        "numerics.gemm.flop_per_step": c.get("gemm_flop", 0),
        "numerics.gemm.bytes_per_step": c.get("gemm_bytes", 0),
        "numerics.gemm.gflops": c.get("gemm_flop", 0) / (step_ms * 1e6) if step_ms else 0.0,
        "numerics.backward.useful_ratio": c["useful"] / c["records"] if c else 0.0,
        "numerics.grads_outside_optimizer": c.get("grads_outside_optimizer", 0),
        "train.step_ms.p50": step_ms,
        "train.step_ms.p90": percentile(steps, 90),
        "train.step_self_ms.p50": median(self_ms(STEP)),
        "train.save_checkpoint_ms": median(timed("train.save_checkpoint")),
        "train.load_checkpoint_self_ms": median(self_ms("train.load_checkpoint")),
        "train.checkpoint_bytes": run.counts.get("train.checkpoint_bytes", 0),
        "eval.score_ms.osc_forecast": median(timed("bench.score.osc_forecast")),
        "eval.score_ms.relax_forecast": median(timed("bench.score.relax_forecast")),
        "eval.score_ms.osc_reconstruct": median(timed("bench.score.osc_reconstruct")),
        "eval.self_ms": median(list(eval_self.values())),
        "eval.baseline_persistence_ms": median(timed("eval.baseline_persistence")),
        "eval.windows": median(run.samples["eval.windows"]),
        "eval.slabs": median(list(slabs.values())),
        "eval.select_best_snapshot_ms": median(timed("eval.select_best_snapshot")),
        "stream.forecast_ms.p90": percentile(stream, 90),
        "stream.forecast_ms.p99": percentile(stream, 99),
        "trace.overhead_pct": overhead_pct,
    })
    return out


def backward_table(tracer) -> dict:
    """Backward time per step by op and by GEMM shape, in ms, slowest first."""
    calls = max(tracer.backward_calls, 1)
    rows = sorted(tracer.backward_s.items(), key=lambda kv: -kv[1])
    return {k: round(v * 1e3 / calls, 4) for k, v in rows}
