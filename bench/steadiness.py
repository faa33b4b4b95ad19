#!/usr/bin/env python3
"""Run each workload repeatedly and print each end-to-end metric's spread
next to its bound from BENCHMARK.json.

    python3 bench/steadiness.py

Run from the repository root.  Every workload in BENCHMARK.json runs ten
times, on seeds 1 to 10.  The spread
is the distance between the first and third quartile of the runs, as a share
of their median (statistics.quantiles with n=4); a steady benchmark keeps it
below a third of the bound.  The failed share of every run is printed too,
since it must not depend on the seed.
"""

import json
import os
import statistics
import subprocess
import sys
import time

from run import RAW_PREFIX

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_once(cfg: dict, workload: str, seed: int) -> dict:
    cmd = cfg["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(cfg["run_seconds"]), "--trace", "0",
    ]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["wall_s"] = wall
    raw = [ln.split(": ", 1)[1] for ln in lines if ln.startswith(RAW_PREFIX)]
    res["raw"] = json.loads(raw[-1]) if raw else {}
    return res


def spread(vals) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    worst = 0.0
    for workload in (w["name"] for w in cfg["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(cfg, workload, seed))
            r = runs[-1]
            print(f"  {workload} seed {seed}: wall {r['wall_s']:.1f}s "
                  f"attempted {r['attempted']} failed {r['failed']} correct {r['correct']}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: failed shares {shares}")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} "
              f"{'/bound':>7s} {'wall-clock spread':>18s}")
        for m in cfg["end_to_end"]:
            q1, med, q3, sp = spread([r["metrics"][m["name"]]["value"] for r in runs])
            raw = [r["raw"][m["name"]] for r in runs if m["name"] in r["raw"]]
            raw_sp = f"{spread(raw)[3]:18.4f}" if len(raw) == len(runs) else f"{'-':>18s}"
            if m["name"] != "setup_s":
                worst = max(worst, sp / m["bound"])
            print(f"  {m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} {m['bound']:6.3f} "
                  f"{sp / m['bound']:7.3f} {raw_sp}")
    print(f"largest spread/bound outside setup_s: {worst:.3f} (steady below 0.333)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
