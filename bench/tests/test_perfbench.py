"""Tests of the benchmark itself: span arithmetic, tail selection, and a
minimal-length run of every workload.

Run from the repository root::

    python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402
from spans import Span, self_times  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_direct_children_only():
    tree = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "child", 1.0, 4.0),
        Span(2, 1, 0, "leaf", 2.0, 3.5),
        Span(3, 0, 0, "child", 6.0, 9.0),
        Span(4, None, 1, "root", 20.0, 21.0),
    ]
    got = self_times(tree)
    assert got["root"] == (2, pytest.approx((10.0 - 3.0 - 3.0) + 1.0))
    assert got["child"] == (2, pytest.approx((3.0 - 1.5) + 3.0))
    assert got["leaf"] == (1, pytest.approx(1.5))
    total_self = sum(t for _, t in got.values())
    assert total_self == pytest.approx(10.0 + 1.0)


def test_self_time_counts_overlapping_children_once():
    tree = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 5.0),
        Span(2, 0, 0, "b", 3.0, 12.0),   # overlaps a and outlives the root
    ]
    assert self_times(tree)["root"] == (1, pytest.approx(1.0))


@pytest.mark.parametrize("n", [1, 5, 19, 20, 99, 100, 101, 999, 1000, 1700, 10_000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    samples = [float(x) for x in range(n, 0, -1)]   # distinct, unsorted
    value, pct, count = run.tail_percentile(samples)
    assert count == n
    assert pct in run.TAIL_LADDER
    beyond = sum(1 for x in samples if x > value)
    below_or_at = n - beyond
    assert below_or_at >= n * pct / 100.0           # value is the pct-th percentile
    if n >= 20:
        assert beyond >= 10
        higher = [r for r in run.TAIL_LADDER if r > pct]
        if higher:                                   # the next rung has too few beyond
            nxt = higher[0]
            assert n - math.ceil(n * nxt / 100.0) < 10
    else:
        assert pct == 50.0


def test_tail_percentile_examples():
    assert run.tail_percentile(range(1, 21))[:2] == (10, 50.0)
    assert run.tail_percentile(range(1, 101))[:2] == (90, 90.0)
    assert run.tail_percentile(range(1, 1001))[:2] == (990, 99.0)
    assert run.tail_percentile(range(1, 10_001))[:2] == (9990, 99.9)


def test_recorder_wraps_module_attributes_and_restores_them():
    mod = types.ModuleType("toy")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2   # module-attribute call, as evsynth does

    mod.inner, mod.outer = inner, outer
    rec = spans.Recorder()
    targets = (("toy", "outer"), ("toy", "inner"))
    with rec.installed({"toy": mod}, targets=targets):
        rec.op = 7
        assert mod.outer(1) == 4
        with rec.paused():
            assert mod.outer(2) == 6   # the benchmark's own checks: no spans
    assert mod.inner is inner and mod.outer is outer
    assert len(rec.spans) == 2
    by_name = {s.name: s for s in rec.spans}
    assert by_name["toy.inner"].parent == by_name["toy.outer"].span_id
    assert by_name["toy.outer"].parent is None
    assert {s.op for s in rec.spans} == {7}


def test_error_rate_is_never_zero():
    assert run.error_rate(0, 100) > 0.0
    assert run.error_rate(3, 100) > run.error_rate(0, 100)


def _run(workload, trace, tmp_seconds="0.2"):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", tmp_seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        for module in spans.MODULES:
            assert f"{module}.self_ms" in result["metrics"]


def test_refuses_to_run_without_sources():
    """Only BENCHMARK.json and bench/ present: exit non-zero, print nothing."""
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = subprocess.run(
        [*CONFIG["command"], "--workload", "sim1-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert not out.stdout.strip()
