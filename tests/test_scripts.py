"""Smoke runs of the scripts under scripts/, so an API change that breaks them fails here,
and the committed output baseline that scripts/output_digest.py writes."""

import importlib.util
import json
import pathlib
import subprocess
import sys

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
    assert [(run, list(parts)) for run, parts in out.values.items()] == [(run, list(p)) for run, p in baseline.items()]
    gaps = load_script("value_moves").baseline_gaps(out.values, baseline)
    worst = max(gaps, key=gaps.get)
    assert gaps[worst] <= 1e-12, f"{worst} moved by {gaps[worst]:.3e}"


def test_value_moves(tmp_path, monkeypatch, capsys):
    old = {
        "evolve/zeroMean/d2/pure/s1": {"final_state": [1.0, 0.0], "max_drift": [1e-9]},
        "evolve/zeroMean/d4/full/s7": {"final_state": [0.5, float("nan")]},
        "checks/cp_extension/2x2/B1": {"residuals": [1.0, 2.0]},
        "report/q0.5": {"report": [0.0]},
        "integer/q1/d2/full": {"final_state": [0.25]},
    }
    new = json.loads(json.dumps(old))
    new["evolve/zeroMean/d2/pure/s1"]["final_state"][1] = 3e-16
    new["evolve/zeroMean/d4/full/s7"]["final_state"][0] = 0.5 + 1e-15
    new["checks/cp_extension/2x2/B1"]["residuals"] = [1.0]  # a shape mismatch
    new["report/q0.5"]["report"] = [float("nan")]  # a NaN matches only a NaN
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, values in zip(paths, (old, new)):
        path.write_text(json.dumps(values))
    monkeypatch.setattr(sys, "argv", ["value_moves.py", *map(str, paths)])
    assert load_script("value_moves").main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "checks/cp_extension inf checks/cp_extension/2x2/B1 residuals",
        "report/q0.5 inf report/q0.5 report",
        "evolve/zeroMean 1e-15 evolve/zeroMean/d4/full/s7 final_state",
        "integer/q1 0",
    ]


def test_step_ab_on_one_tree():
    # this tree against itself, one repeat: a line per family, d, rank and
    # B (one state, a stack of three), 96 in all, then one per joint cell
    # (H side, K, dims, rank; one state), 16 in all, each with two timings
    # and a final-state deviation of 0
    run = subprocess.run(
        [sys.executable, "scripts/step_ab.py", ".", ".", "1"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[1:]]
    families = ("vonNeumann", "powerLaw", "powerLaw/q1.3", "zeroMean", "energyConserving", "nonEssential")
    cells = [(str(d), rank) for d in (2, 4, 8) for rank in sorted({d, d // 2, 1}, reverse=True)]
    want = [(f, d, r, b) for d, r in cells for f in families for b in (1, 3)]
    joint = [(f"joint/{side}/{env}", dims, r, 1) for dims in ("2x2", "2x4") for r in (2, 1)
             for side in ("nonEssential", "powerLaw") for env in ("passive", "active")]
    assert (len(want), len(joint)) == (96, 16)
    assert [(row[0], row[1], int(row[2]), int(row[3])) for row in rows] == want + joint
    assert all(float(row[4]) > 0 and float(row[5]) > 0 and float(row[7]) == 0.0 for row in rows)


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
