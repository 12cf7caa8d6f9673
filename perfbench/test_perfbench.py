"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

They cover the percentile rule, the span self-time arithmetic, the tape
census, and a tiny-geometry smoke run of every workload, traced and untraced.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from stats import quartile_spread, tail_percentile  # noqa: E402
from tracing import Tracer, census, children_of, self_time  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([1.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]  # quantiles 2.75, 5.5, 8.25
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span("parent", 0.0, 10.0, None),
        _span("a", 1.0, 3.0, 0),
        _span("b", 5.0, 6.0, 0),
        _span("grandchild", 1.5, 2.5, 1),  # counts against "a", not the parent
    ]
    kids = children_of(spans)
    assert self_time(spans, kids, 0) == pytest.approx(7.0)
    assert self_time(spans, kids, 1) == pytest.approx(1.0)
    assert self_time(spans, kids, 3) == pytest.approx(1.0)


def test_self_time_counts_overlap_and_overhang_once():
    spans = [
        _span("parent", 0.0, 10.0, None),
        _span("a", 2.0, 6.0, 0),
        _span("b", 4.0, 8.0, 0),   # overlaps a by 2
        _span("c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_time(spans, children_of(spans), 0) == pytest.approx(10.0 - 6.0 - 1.0)


def test_close_ends_spans_left_open_inside():
    tr = Tracer()
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(outer)
    assert tr.spans[inner][2] is not None
    assert tr.spans[inner][3] == outer
    assert tr.spans[inner][2] <= tr.spans[outer][2]


def test_census_counts_live_and_useful_records():
    from patchcast.numerics import Tape, Tensor, add, matmul, mse

    w = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
    frozen = Tensor(np.ones((2,), dtype=np.float32), requires_grad=True)
    x = Tensor(np.ones((4, 3), dtype=np.float32))
    with Tape() as tape:
        h = add(matmul(x, w), frozen)
        loss = mse(h, Tensor(np.zeros((4, 2), dtype=np.float32)))
        matmul(x, w)  # recorded, but the loss does not depend on it
    c = census(tape.records, loss, {"w": w})
    assert c["records"] == 4
    assert c["ops"] == {"add": 1, "matmul": 2, "mse": 1}
    assert c["useful"] == 3  # the dead matmul reaches w but the sweep skips it
    # live matmul: forward + dB (x needs no gradient); dead matmul: forward only
    assert c["gemm_flop"] == 3 * (2 * 4 * 3 * 2)
    assert c["gemm_bytes"] == 3 * 4 * (4 * 3 + 3 * 2 + 4 * 2)
    frozen.grad = np.zeros(2, dtype=np.float32)
    assert census(tape.records, loss, {"w": w})["grads_outside_optimizer"] == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["pretrain", "infer", "adapt"])
def test_tiny_smoke_run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, out.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0, m["name"]
