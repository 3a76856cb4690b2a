"""evsynth benchmark: one seeded workload, checked, with every metric by name.

Usage, from the repository root::

    python3 bench/run.py --workload sim1-mc --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps evsynth's
public functions and reports per-layer call counts, self times and
counters instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full result, with the machine it ran on, is written to
``bench/out/<workload>-seed<seed>-trace<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
MB = 1024.0  # ru_maxrss is in KiB on Linux
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

END_TO_END_UNITS = {
    "setup_s": "s", "records_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "synthesize_ms": "ms", "log_bf_rmse": "nat", "error_rate": "ratio",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile of
    p50, p90, p99 and p99.9 that has at least ten samples beyond it.

    A fixed ladder keeps the chosen percentile the same across runs of the
    same code, whose sample counts differ by a few percent.  Below twenty
    samples no rung qualifies and the median is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    pct = 50.0
    for rung in TAIL_LADDER:
        if n - math.ceil(n * rung / 100.0) >= 10:
            pct = rung
    i = max(math.ceil(n * pct / 100.0) - 1, 0)
    return xs[i], pct, n


def error_rate(failed: int, attempted: int) -> float:
    """Jeffreys estimate (failed + 1/2) / (attempted + 1) of the failure
    probability: it is never 0, so a regression can be measured relative to
    it; the raw counts are reported as ``failed`` and ``attempted``."""
    return (failed + 0.5) / (attempted + 1)


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "seed": seed, "git_commit": commit}


def time_setup(env: dict) -> float:
    """Seconds from a fresh interpreter to ``evsynth.cli`` imported."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import evsynth.cli"], env=env,
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def passes_with_setup(run_pass, seconds: float):
    """(set-up timings, passes): whole passes, started while they have taken
    less than ``seconds`` together, with ``SETUP_REPEATS`` set-up timings
    spread evenly between them.  Spreading the timings over the run makes
    their median less dependent on a few seconds of a busy host."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    setup, passes, busy = [], [], 0.0
    while not passes or busy < seconds:
        while len(setup) < 1 + (SETUP_REPEATS - 1) * busy / seconds:
            setup.append(time_setup(env))
        t0 = time.perf_counter()
        passes.append(run_pass())
        busy += time.perf_counter() - t0
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(env))
    return setup, passes


def _workload_pass(workload: str, seed: int, out_dir: Path, reference: dict):
    """(function running one pass, number of operations) for a workload."""
    import workloads

    if workload == "cli-roundtrip":
        studies = workloads.prepare_cli(seed, out_dir)

        def run_pass(recorder=None):
            return workloads.cli_pass(studies, out_dir, reference, recorder=recorder)
        return run_pass, len(studies) * len(workloads.CLI_HYPOTHESES)
    ops = workloads.sim_ops(workload, seed)
    single_rows = workloads.single_row_labels(workloads.SIMS[workload].hypotheses())
    workloads.cli.run_iteration(*ops[0][1])   # lazy imports, before timing

    def run_pass(recorder=None):
        return workloads.sim_pass(workload, ops, single_rows, out_dir, reference,
                                  recorder=recorder)
    return run_pass, len(ops)


def end_to_end(workload: str, seed: int, seconds: float, out_dir: Path,
               reference: dict):
    import workloads

    run_pass, n_ops = _workload_pass(workload, seed, out_dir, reference)
    setup, passes = passes_with_setup(run_pass, seconds)
    res = workloads.combine(passes, n_ops)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail, pct, n = tail_percentile(res.op_best)
    rmse = workloads.rmse(res.ref_errors)
    metrics = {
        "setup_s": statistics.median(setup),
        "records_per_s": res.records / res.busy_seconds,
        "op_p50_ms": statistics.median(res.op_best) * 1e3,
        "op_tail_ms": tail * 1e3,
        "synthesize_ms": statistics.median(res.synth_best) * 1e3,
        "log_bf_rmse": max(rmse, reference["resolution"]) if math.isfinite(rmse)
        else sys.float_info.max,
        "error_rate": error_rate(res.failed, res.attempted),
        "peak_rss_mb": peak_kb / MB,
    }
    detail = {"setup_s_samples": setup, "op_tail_percentile": pct, "op_samples": n,
              "passes": res.passes, "records_per_pass": res.records,
              "busy_s": res.busy_seconds,
              "op_best_ms": [round(t * 1e3, 3) for t in res.op_best],
              "reference_log_bfs": len(res.ref_errors), "raw_log_bf_rmse": rmse,
              "problems": res.problems}
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            detail, res)


def traced(workload: str, seed: int, seconds: float, out_dir: Path, reference: dict):
    """Alternate untraced and traced passes over the same operations until
    the time is spent; report the traced passes' layer figures per pass and
    the ratio of best traced to best untraced busy time."""
    import spans
    import workloads

    run_pass, n_ops = _workload_pass(workload, seed, out_dir, reference)
    recorder = spans.Recorder()
    plain, traced_passes = [], []
    deadline = time.perf_counter() + seconds
    while not traced_passes or time.perf_counter() < deadline:
        plain.append(run_pass())
        with recorder.installed(workloads.MODULES, observers=workloads.OBSERVERS):
            traced_passes.append(run_pass(recorder))
    recorder.write(out_dir / "spans.jsonl")
    base = workloads.combine(plain, n_ops)
    with_spans = workloads.combine(traced_passes, n_ops)
    layer = recorder.layer_metrics(len(traced_passes))
    layer.update(workloads.counter_metrics(recorder.counters, len(traced_passes)))
    layer["trace_overhead"] = with_spans.busy_seconds / base.busy_seconds - 1.0
    units = {}
    for name in layer:
        if name.endswith(".calls") or name in ("glm.newton_iters",
                                               "glm.separation_errors", "bf.mc_draws"):
            units[name] = "count"
        elif name.endswith("_ms"):
            units[name] = "ms"
        else:
            units[name] = "ratio"
    res = workloads.combine(plain + traced_passes, n_ops)
    detail = {"spans": len(recorder.spans), "traced_passes": len(traced_passes),
              "untraced_busy_s": base.busy_seconds, "traced_busy_s": with_spans.busy_seconds,
              "problems": res.problems}
    return ({k: {"value": v, "unit": units[k]} for k, v in layer.items()}, detail, res)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evsynth" / "cli.py").is_file():
        print(f"error: evsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import evsynth
    import workloads

    if Path(evsynth.__file__).resolve().parent != SRC / "evsynth":
        print(f"error: imported evsynth from {evsynth.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    reference = workloads.load_reference()
    machine = machine_info(args.seed)
    measure = traced if args.trace else end_to_end
    metrics, detail, run = measure(args.workload, args.seed, args.seconds, out_dir,
                                   reference)
    for bulky in ("studies", "records"):
        shutil.rmtree(out_dir / bulky, ignore_errors=True)
    (out_dir / "results.csv").unlink(missing_ok=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps(
        dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
             machine=machine, detail=detail), indent=1) + "\n", encoding="utf-8")
    print(f"machine: {json.dumps(machine)}")
    for problem in detail["problems"][:10]:
        print(f"check failed: {problem}")
    if not args.trace:
        print(f"op_tail_ms is p{detail['op_tail_percentile']:g} of "
              f"{detail['op_samples']} operations")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
