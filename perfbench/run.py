#!/usr/bin/env python3
"""patchcast benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics named in
BENCHMARK.json, pooled over several worker processes run one after another;
with ``--trace 1`` it holds the per-layer metrics of one traced process.  The
last line of standard output is the result; details (environment, sample
counts, failures, the tape census) go to ``.perfbench/`` in the checkout.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0  # the seed the oracle values in reference.json belong to
# An untraced run splits its seconds over this many fresh processes, one after
# another.  On the 2-vCPU machine this was tuned on, single-process pretrain
# runs came out near 1,350 or near 1,520 windows/s, alternating with no trend
# over time; pooling several processes per run averages that out.
WORKERS = 3
# Untimed work in each process before timing starts.  On the same machine the
# first seconds of sustained load ran up to 20% faster than later ones, by an
# amount that depended on how long the machine had idled.
WARMUP_S = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one patchcast benchmark workload.")
    p.add_argument("--workload", required=True, choices=("pretrain", "infer", "adapt"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0, help="timed seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny geometry, for the harness self-test")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def loop(wl, tracer, seconds: float, first: int, min_units: int) -> list:
    """Run units until ``seconds`` have passed and ``min_units`` are done."""
    durations = []
    start = time.perf_counter()
    cap = 2 * seconds + 30  # the minimum never keeps a run past this
    while True:
        if tracer is not None:
            tracer.run = first + len(durations)
        t0 = time.perf_counter()
        wl.unit()
        t1 = time.perf_counter()
        durations.append(t1 - t0)
        if (t1 - start >= seconds and len(durations) >= min_units) or t1 - start >= cap:
            return durations


def named(values: dict, spec: list) -> dict:
    """Values keyed and ordered as BENCHMARK.json lists them, each with its unit."""
    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError(
            f"metrics disagree with BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in spec})}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def set_up(args, tmp: str, tracer=None):
    """Import the workloads and set one up; returns (workloads module, workload)."""
    import workloads as W

    reference = None
    if args.seed == DEFAULT_SEED and not args.tiny:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    geo = W.TINY if args.tiny else W.FLAGSHIP
    wl = W.WORKLOADS[args.workload](geo, args.seed, W.Run(), tmp, reference, tracer)
    wl.clock.install()
    if tracer:
        tracer.install()
    wl.setup()
    if tracer:
        tracer.uninstall()
    return W, wl


def worker(args, tmp: str) -> int:
    """One process of an untraced run: set up, say so, warm up, time, report samples."""
    import report

    _, wl = set_up(args, tmp)
    print("ready", flush=True)
    loop(wl, None, min(WARMUP_S, args.seconds), 0, 1)
    wl.run.samples.clear()
    durations = loop(wl, None, args.seconds, 0, 1)
    print(json.dumps({
        "attempted": wl.run.attempted,
        "failed": wl.run.failed,
        "problems": wl.run.problems,
        "samples": wl.run.samples,
        "unit_s": durations,
        "threads": report.threads_now(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


def untraced(args) -> tuple:
    """Run ``WORKERS`` worker processes in turn; returns (values, pooled, details)."""
    import report
    from stats import median

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS), "--worker"]
    if args.tiny:
        cmd.append("--tiny")
    pooled = {"attempted": 0, "failed": 0, "problems": [], "threads": [], "samples": defaultdict(list)}
    setup_s, peak, units = [], [], []
    for _ in range(WORKERS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            t1 = time.perf_counter()
            rest, _ = proc.communicate(timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"worker process exited with {proc.returncode}")
        got = json.loads(rest.strip().splitlines()[-1])
        setup_s.append(t1 - t0)
        peak.append(got["peak_rss_mb"])
        units.append(got["unit_s"])
        for key in ("attempted", "failed"):
            pooled[key] += got[key]
        pooled["problems"] += got["problems"]
        pooled["threads"].append(got["threads"])
        for key, values in got["samples"].items():
            pooled["samples"][key] += values
    values = {"setup_s": median(setup_s), "peak_rss_mb": max(peak), **report.end_to_end(pooled["samples"])}
    return values, pooled, {"setup_s_samples": setup_s, "unit_s": units}


def traced(args, tmp: str) -> tuple:
    """One process, half untraced and half traced; returns (values, pooled, details)."""
    import report
    from stats import median
    from tracing import Tracer

    tracer = Tracer()
    W, wl = set_up(args, tmp, tracer)
    run = wl.run
    loop(wl, None, min(WARMUP_S, args.seconds), 0, 1)
    run.samples.clear()
    # the two halves' unit times give the tracing overhead
    plain = loop(wl, None, args.seconds / 2, 0, 1)
    tracer.begin_phase()
    tracer.install()
    spans = loop(wl, tracer, args.seconds / 2, len(plain), wl.min_units)
    tracer.uninstall()
    run.attempt("tape census", lambda: W.check(
        tracer.census_mismatches == 0,
        f"{tracer.census_mismatches} of {tracer.census_steps} steps disagree with the first tape census",
    ))
    values = report.per_layer(tracer, run, (median(spans) / median(plain) - 1.0) * 100.0)
    with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    pooled = {"attempted": run.attempted, "failed": run.failed, "problems": run.problems,
              "threads": [report.threads_now()], "samples": run.samples}
    details = {
        "unit_s": {"untraced": plain, "traced": spans},
        "census": tracer.census,
        "backward_ms_per_step": report.backward_table(tracer),
    }
    return values, pooled, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "patchcast" / "__init__.py").is_file():
        print(f"perfbench: no patchcast sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        if args.worker:
            return worker(args, tmp)
        if args.trace:
            values, pooled, details = traced(args, tmp)
        else:
            values, pooled, details = untraced(args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    import report

    metrics = named(values, spec["per_layer" if args.trace else "end_to_end"])
    nproc = os.cpu_count()
    threads = max(pooled["threads"])
    pooled["attempted"] += 1  # the thread budget is one more check
    if threads > nproc:
        pooled["failed"] += 1
        pooled["problems"].append(f"thread budget: {threads} threads on {nproc} processors")
    result = {
        "correct": pooled["failed"] == 0,
        "attempted": pooled["attempted"],
        "failed": pooled["failed"],
        "metrics": metrics,
    }
    env = report.environment()
    env["threads_max"] = threads
    samples = pooled["samples"]
    details.update(
        args=vars(args), environment=env, result=result, problems=pooled["problems"],
        samples={k: len(v) for k, v in samples.items()},
        stream_sweep_gap_max=max(samples.get("stream.sweep_gap", ()), default=None),
    )
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    for problem in pooled["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "details": str(path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
