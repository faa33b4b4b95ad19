"""Smoke runs of the scripts under scripts/, so an API change that breaks them fails here."""

import importlib.util
import json
import pathlib
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, out: pathlib.Path, monkeypatch) -> int:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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


def test_output_digest(tmp_path, monkeypatch):
    out = tmp_path / "digest.txt"
    assert run_script("output_digest", out, monkeypatch) == 0
    lines = [line.split() for line in out.read_text().splitlines()]
    assert all(len(fields) == 3 and len(fields[2]) == 64 for fields in lines)
    assert len({(run, part) for run, part, _ in lines}) == len(lines)
    runs = {run.split("/")[0] for run, _, _ in lines}
    assert runs == {"evolve", "propagator", "checks", "mixture", "bipartite", "report", "evolve_many"}
    # d = 2 and 4: a stack of 3 full-rank members, and one of 4 mixing full rank and rank 1
    assert len({run for run, _, _ in lines if run.startswith("evolve_many/")}) == 2 * (3 + 4)
    assert sum(run.startswith("report/") for run, _, _ in lines) == 6 + 2  # the benchmark's, the empty blocks
    assert sum(part == "csv" for _, part, _ in lines) == 60 + 12  # 60 evolve and 12 mixture CSVs
    # each CSV's verify report, then those of its three spoiled copies, after every other line
    verify = [i for i, (_, part, _) in enumerate(lines) if part.startswith("verify")]
    assert verify == list(range(len(lines) - 4 * 72, len(lines)))
    assert sum(run.startswith("checks/cp_extension/") for run, _, _ in lines) == 4  # 2x2 and 3x2, B = 1 and 3
