#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py [--workloads series,integral,...]
                                 [--seeds 1-10] [--trace-seed N]
                                 [--out perfbench/baseline.json]

For each workload: one untraced run per seed, then the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
(q3 - q1) / median of each end-to-end metric; with ``--trace-seed``, one
traced run for the per-layer metrics.  Runs go one after another, so
that they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = res.stdout.strip().splitlines()
    print(f"{time.perf_counter() - start:5.1f}s {lines[-2]}", flush=True)
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds,
              "host": {"python": platform.python_version(), "numpy": np.__version__,
                       "cpus": os.cpu_count(), "machine": platform.machine()},
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in _seeds(args.seeds)]
        entry = {
            "seeds": _seeds(args.seeds),
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {m["name"]: summarise([r["metrics"][m["name"]]["value"]
                                                  for r in runs])
                           for m in bench["end_to_end"]},
        }
        for m in bench["end_to_end"]:
            s = entry["end_to_end"][m["name"]]
            print(f"{workload:9s} {m['name']:11s} median={s['median']:.5g} "
                  f"spread={s['spread']:.4f} bound={m['bound']}", flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": traced["correct"],
                               "metrics": {k: v["value"]
                                           for k, v in traced["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
