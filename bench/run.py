#!/usr/bin/env python3
"""nlqd benchmark.

    python3 bench/run.py --workload ensemble|entangled|cli_io --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; nlqd is imported from ./src.  Each
run sets up its inputs from the seed, warms up, then runs whole rounds of the
workload's operations until S seconds have passed.  Every operation's output
is checked outside the timed region; a failed check counts the operation as
failed and prints a FAIL line.  The last line of stdout is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

End-to-end times are calibrated.  On a shared 2-vCPU machine the pace of
the same code swings by +-25% within a minute, more than any useful bound.
So a fixed calibration kernel (small-matrix numpy work with Python glue, as
in nlqd, but no nlqd code) runs before the first and after every timed
interval, outside it, and each interval's wall time is scaled by CAL_REF_S
over the median of the four calibrations around it.  A program change does
not move the kernel, so it still shows in full; a machine slowdown moves
both and cancels.  The uncalibrated figures are printed on the line before
the result.
"""

import os

# Pin BLAS to one thread before numpy loads, here and in child processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from checks import CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
TRACE_OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
# About the median calibration_s() on the reference machine (2 vCPU, Python 3.11.7,
# numpy 2.4.6): a calibrated second is a second at that machine's median pace.
CAL_REF_S = 0.0052
RAW_PREFIX = "wall-clock (uncalibrated): "
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import nlqd; print(time.perf_counter() - t)"
)
_CAL_A = np.random.default_rng(0).standard_normal((4, 4)) + 1j * np.random.default_rng(1).standard_normal((4, 4))
_CAL_H = (_CAL_A + _CAL_A.conj().T) / 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def calibration_s() -> float:
    """Wall time of a fixed kernel of nlqd-like work done without nlqd:
    100 Euler steps of a 4x4 square-root factor under a power-law generator."""
    h = _CAL_H
    t0 = time.perf_counter()
    g = np.eye(4, dtype=complex) / 2
    for _ in range(100):
        w, v = np.linalg.eigh(g @ g.conj().T)
        p = (v * np.maximum(w, 0.0) ** 1.5) @ v.conj().T
        g = g - 1e-3j * ((h @ p + p @ h) @ g)
        g = g / np.sqrt(np.trace(g.conj().T @ g).real)
    return time.perf_counter() - t0


class Pacer:
    """The machine's pace along the run, sampled between timed intervals.

    Call mark() right after each timed interval; it runs the calibration
    kernel and returns the interval's index.  Once the run is over, scale()
    converts the interval's wall time to calibrated seconds.
    """

    def __init__(self):
        self.samples = [calibration_s()]

    def mark(self) -> int:
        self.samples.append(calibration_s())
        return len(self.samples) - 2

    def scale(self, wall: float, i: int) -> float:
        # Interval i lies between samples i and i + 1; take two on each side.
        return wall * CAL_REF_S / statistics.median(self.samples[max(0, i - 1) : i + 3])


def import_probes(pacer: Pacer) -> list[tuple[float, int]]:
    """(wall time, pacer index) of `import nlqd`, numpy included, in fresh
    interpreters."""
    probes = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True, text=True, check=True, timeout=60
        )
        probes.append((float(out.stdout.strip().splitlines()[-1]), pacer.mark()))
    return probes


class Runner:
    """Runs rounds of operations, timing each and checking its output."""

    def __init__(self, ops, pacer: Pacer, tracer=None):
        self.ops = ops
        self.pacer = pacer
        self.tracer = tracer
        self.timed: list[tuple[float, int]] = []  # (wall, pacer index) per operation that returned
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.steps = 0

    def round(self) -> None:
        """One pass over every operation."""
        tr = self.tracer
        root = tr.name_id("bench.op") if tr else None
        for op in self.ops:
            self.attempted += 1
            if tr:
                tr.recording = True
                span = tr.open(root, op.name)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # the program failed; count it and go on
                out, err = None, exc
            else:
                err = None
            wall = time.perf_counter() - t0
            if tr:
                tr.close(span)
                tr.recording = False
            idx = self.pacer.mark()
            if err is not None:
                self.failed += 1
                print(f"FAIL {op.name} raised {type(err).__name__}: {err}", flush=True)
                continue
            self.timed.append((wall, idx))
            self.steps += op.steps
            try:
                op.check(out)
            except Exception as exc:  # a malformed output fails its check too
                self.failed += 1
                self.wrong += 1
                what = exc if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: {exc}"
                print(f"FAIL {op.name} check {what}", flush=True)

    def rounds_for(self, seconds: float, start: float) -> int:
        """Whole rounds until `seconds` have passed since `start`; at least one."""
        n = 0
        while True:
            self.round()
            n += 1
            if time.perf_counter() - start >= seconds:
                return n

    def wall(self) -> list[float]:
        return [w for w, _ in self.timed]

    def calibrated(self) -> list[float]:
        return [self.pacer.scale(w, i) for w, i in self.timed]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nlqd", "__init__.py")):
        print(f"nlqd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import nlqd  # noqa: F401  (timed in fresh interpreters by import_probes)

    if not os.path.abspath(nlqd.__file__).startswith(SRC + os.sep):
        print(f"imported nlqd from {nlqd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        pacer = Pacer()
        imports = import_probes(pacer)
        builds = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            os.makedirs(workdir)
            ops = workloads.build(args.workload, args.seed, workdir)
            builds.append((time.perf_counter() - t0, pacer.mark()))

        # Warm-up: one untimed, unchecked operation of each kind.
        seen = set()
        for op in ops:
            kind = op.name.split("/")[0]
            if kind not in seen:
                seen.add(kind)
                try:
                    op.run()
                except Exception:  # the timed rounds run it again and count the failure
                    pass

        if args.trace:
            result = traced(args, ops, pacer)
        else:
            result = untraced(args, ops, pacer, imports, builds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    print(json.dumps(result))
    return 0


def untraced(args, ops, pacer: Pacer, imports, builds) -> dict:
    runner = Runner(ops, pacer)
    runner.rounds_for(args.seconds, time.perf_counter())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def e2e(setup: float, times: list[float]) -> dict:
        return {
            "setup_s": (setup, "s"),
            "steps_per_s": (runner.steps / sum(times) if times else 0.0, "steps/s"),
            "op_s_p50": (statistics.median(times) if times else 0.0, "s"),
            "peak_rss_mb": (rss, "MB"),
        }

    def setup(scaled: bool) -> float:
        return sum(
            statistics.median(pacer.scale(w, i) if scaled else w for w, i in part) for part in (imports, builds)
        )

    print(RAW_PREFIX + json.dumps({k: v for k, (v, _) in e2e(setup(False), runner.wall()).items()}))
    return summary(runner, e2e(setup(True), runner.calibrated()))


def traced(args, ops, pacer: Pacer) -> dict:
    """A plain round for the baseline, then traced rounds.  Per-layer times
    are wall-clock; trace.overhead_s compares calibrated round times."""
    from tracer import Tracer

    start = time.perf_counter()
    base = Runner(ops, pacer)
    base.round()
    tr = Tracer()
    runner = Runner(ops, pacer, tr)
    tr.install()
    try:
        rounds = runner.rounds_for(args.seconds, start)
    finally:
        tr.uninstall()
    os.makedirs(TRACE_OUT, exist_ok=True)
    tr.save(os.path.join(TRACE_OUT, f"trace-{args.workload}.npz"))
    overhead = sum(runner.calibrated()) / rounds - sum(base.calibrated())
    return summary(runner, tr.metrics(rounds, runner.steps, overhead))


def summary(runner: Runner, metrics: dict) -> dict:
    return {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
