"""Smoke runs of the scripts under scripts/, so an API change that breaks them fails here,
and the committed output baseline that scripts/output_digest.py writes."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
DATA = pathlib.Path(__file__).resolve().parent / "data"


def run_script(name: str, out: pathlib.Path, monkeypatch) -> int:
    module = load_script(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", str(out)])
    return module.main()


def test_purification_sweep(tmp_path, monkeypatch):
    out = tmp_path / "sweep"
    assert run_script("run_purification_sweep", out, monkeypatch) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [s["sigma"] for s in summary] == [0.0, 0.25, 0.5, 1.0, 2.0]
    assert all((out / s["csv"]).is_file() and s["max_trace_dev"] < 1e-9 for s in summary)
    # zeroMean dissipation purifies; sigma = 0 keeps the purity of rho0
    assert summary[0]["final_purity"] < summary[-1]["final_purity"]


def test_essentiality_audit(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    assert run_script("run_essentiality_audit", out, monkeypatch) == 0
    report = json.loads(out.read_text())
    assert list(report) == ["none", "zeroMean", "energyConserving", "nonEssential"]
    for name in ("none", "nonEssential"):
        assert not report[name]["essential"] and report[name]["cp_passed"]
    for name in ("zeroMean", "energyConserving"):
        assert report[name]["essential"] and not report[name]["cp_passed"]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def baseline_gaps(values: dict, baseline: dict) -> dict:
    """(run, part) -> |value - baseline| at its worst, for every kept value;
    a NaN matches only a NaN, and a length mismatch is an infinite gap."""
    assert list(values) == list(baseline)
    gaps = {}
    for run, parts in baseline.items():
        assert list(values[run]) == list(parts), run
        for part, want in parts.items():
            got, want = np.array(values[run][part]), np.array(want)
            if got.shape != want.shape or (np.isnan(got) != np.isnan(want)).any():
                gaps[run, part] = np.inf
            else:
                gaps[run, part] = float(np.max(np.abs(np.nan_to_num(got - want)), initial=0.0))
    return gaps


def test_output_baseline(tmp_path):
    # One run of the digest's set: its hash lines keep their structure, and
    # every kept value stays within 1e-12 of tests/data/baseline.json.
    digest = load_script("output_digest")
    out = digest.Digest(tmp_path)
    digest.collect(out)
    lines = [line.split() for line in out.lines + out.verify_lines]
    assert all(len(fields) == 3 and len(fields[2]) == 64 for fields in lines)
    assert len({(run, part) for run, part, _ in lines}) == len(lines)
    runs = {run.split("/")[0] for run, _, _ in lines}
    assert runs == {"evolve", "propagator", "checks", "mixture", "bipartite", "report", "evolve_many", "integer"}
    # d = 2 and 4: a stack of 3 full-rank members, and one of 4 mixing full rank and rank 1
    assert len({run for run, _, _ in lines if run.startswith("evolve_many/")}) == 2 * (3 + 4)
    # the benchmark's, the empty blocks, q = 0.5 beside q = 1.2
    assert sum(run.startswith("report/") for run, _, _ in lines) == 6 + 2 + 1
    assert sum(part == "csv" for _, part, _ in lines) == 60 + 12  # 60 evolve and 12 mixture CSVs
    # each CSV's verify report, then those of its three spoiled copies, after every other line
    verify = [i for i, (_, part, _) in enumerate(lines) if part.startswith("verify")]
    assert verify == list(range(len(lines) - 4 * 72, len(lines)))
    assert sum(run.startswith("checks/cp_extension/") for run, _, _ in lines) == 4  # 2x2 and 3x2, B = 1 and 3
    # d = 2, 3, 4: ten specs x three states, plus a propagator and a mixture at d = 3
    assert len({run for run, _, _ in lines if run.startswith("integer/")}) == 3 * 10 * 3 + 2
    baseline = json.loads((DATA / "baseline.json").read_text())
    assert set(out.values) == {run for run, _, _ in lines}
    gaps = baseline_gaps(out.values, baseline)
    worst = max(gaps, key=gaps.get)
    assert gaps[worst] <= 1e-12, f"{worst} moved by {gaps[worst]:.3e}"


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_bench_trace_mode(workload):
    # Trace mode (bench/tracer.py) reads library internals the end-to-end
    # runs never touch; one short round of each workload holds them to what
    # the library still has.
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7919", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    record = json.loads(run.stdout.splitlines()[-1])
    assert record["correct"] and record["failed"] == 0, run.stdout[-2000:]
