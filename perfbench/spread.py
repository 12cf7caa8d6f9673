#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads pretrain infer adapt --seeds 1-10

Runs each workload once per seed, untraced, for BENCHMARK.json's
``run_seconds``.  For every end-to-end metric it prints the median over the
seeds and the quartile spread (Q3 - Q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them, and marks a spread above a
third of the metric's bound.  The raw results go to ``.perfbench/spread-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=["pretrain", "infer", "adapt"])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = {}
    for workload in args.workloads:
        rows = results[workload] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            row = json.loads(out.stdout.strip().splitlines()[-1])
            rows.append(row)
            print(f"{workload} seed {seed}: correct={row['correct']} failed={row['failed']}/"
                  f"{row['attempted']} in {time.perf_counter() - t0:.0f}s", flush=True)
    path = ROOT / ".perfbench" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results) + "\n", encoding="utf-8")
    print(f"raw results: {path.relative_to(ROOT)}")
    for workload, rows in results.items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            flag = "" if spread <= m["bound"] / 3 or m["name"] == "setup_s" else "  > bound/3"
            print(f"{workload:9s} {m['name']:20s} median {statistics.median(values):12.4f} {m['unit']:10s}"
                  f" spread {spread:6.3f} (bound {m['bound']}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
