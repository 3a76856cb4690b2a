"""Repeat ``run.py`` over several seeds and summarize each metric.

The runs measure the end-to-end metrics (``--trace 0``).  For every
workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.

Usage, from the repository root::

    python3 bench/spread.py --workloads sim1-mc cli-roundtrip --seeds 1-10 \\
        [--seconds 40] [--out bench/out/spread.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [*config["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            s = metrics[name]
            bound = bounds.get(name)
            flag = "" if bound is None or s["iqr_share"] < bound / 3 else "  <-- spread"
            print(f"  {name:32s} median {s['median']:<12.6g} iqr/median "
                  f"{s['iqr_share']:.4f} bound {bound}{flag}", flush=True)
        first = BENCH / "out" / f"{workload}-seed{args.seeds[0]}-trace0"
        machine = json.loads((first / "result.json").read_text(encoding="utf-8"))["machine"]
        summary[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                             "all_correct": all(r["correct"] for r in runs),
                             "machine": machine, "metrics": metrics}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
