#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload setA_sparse --runs 10 --seconds 10

Every run is a fresh interpreter (``run.py``), one after another.  For
each metric it prints the median over the runs and the inter-quartile
distance as a share of that median -- the spread a run-to-run
comparison has to beat -- next to the metric's bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)

    bounds = {
        m["name"]: m.get("bound")
        for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    }
    values = {}
    status = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}")
            sys.stdout.write(proc.stdout)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        if len(series) < 2:
            continue
        spread = stats.quartile_spread(series)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<30} median {stats.median(series):>14.6g}  "
              f"iqr/median {spread:8.4f}  bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
