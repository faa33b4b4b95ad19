"""JSON (de)serialization and CSV trajectory export.

Matrices travel as ``{"dim": n, "re": [...], "im": [...]}`` with row-major
entries; scenario files are UTF-8 JSON with a top-level
``"schema": "nlqd/1"`` marker.  CSV floats are printed with 17 significant
digits so values round-trip exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .generators import GammaFamily, GeneratorSpec, TFamily
from .linalg import state_violation
from .propagation import IntegratorConfig, Trajectory

SCHEMA_ID = "nlqd/1"
FLOAT_FMT = "%.17g"


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": [float(x) for x in m.real.reshape(-1)],
        "im": [float(x) for x in m.imag.reshape(-1)],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        n = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros(n * n)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad matrix record: {exc}") from exc
    if re.size != n * n or im.size != n * n:
        raise ValidationError(f"matrix entries count {re.size} != dim^2 = {n * n}")
    return (re + 1j * im).reshape(n, n)


def generator_spec_to_json(spec: GeneratorSpec) -> dict:
    t = {"family": spec.t_family.family}
    if spec.t_family.family == "powerLaw":
        t["q"] = spec.t_family.q
    g = {"family": spec.gamma_family.family}
    if spec.gamma_family.family in ("zeroMean", "energyConserving"):
        g["sigma"] = spec.gamma_family.sigma
        g["r"] = spec.gamma_family.r
    elif spec.gamma_family.family == "nonEssential":
        g["sigma"] = spec.gamma_family.sigma
        g["r"] = spec.gamma_family.r
        g["A"] = matrix_to_json(spec.gamma_family.A)
    return {"H": matrix_to_json(spec.H), "t": t, "gamma": g}


def generator_spec_from_json(obj: dict) -> GeneratorSpec:
    try:
        h = matrix_from_json(obj["H"])
        t_obj = obj.get("t", {"family": "vonNeumann"})
        g_obj = obj.get("gamma", {"family": "none"})
        t = TFamily(family=t_obj["family"], q=float(t_obj.get("q", 1.0)))
        a = matrix_from_json(g_obj["A"]) if "A" in g_obj else None
        g = GammaFamily(
            family=g_obj["family"],
            sigma=float(g_obj.get("sigma", 0.0)),
            r=float(g_obj.get("r", 1.0 if g_obj["family"] != "nonEssential" else 2.0)),
            A=a,
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad generator record: {exc}") from exc
    return GeneratorSpec(H=h, t_family=t, gamma_family=g)


def integrator_from_json(obj: dict) -> IntegratorConfig:
    try:
        return IntegratorConfig(
            dt=float(obj["dt"]),
            t_final=float(obj["t_final"]),
            renormalize_each_step=bool(obj.get("renormalize_each_step", True)),
            monitor_stride=int(obj.get("monitor_stride", 1)),
            max_step_drift=float(obj.get("max_step_drift", 1e-6)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad integrator record: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    kind: str
    payload: dict
    seed: int = 0
    output_path: Optional[str] = None


KINDS = ("evolve", "evolve_bipartite", "mixture", "measure_correlation", "check")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read scenario file: {exc}") from exc
    if obj.get("schema") != SCHEMA_ID:
        raise ValidationError(f'scenario must declare "schema": "{SCHEMA_ID}"')
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"unknown scenario kind {kind!r}; expected one of {KINDS}")
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        raise ValidationError("scenario payload must be an object")
    return Scenario(
        kind=kind,
        payload=payload,
        seed=int(obj.get("seed", 0)),
        output_path=obj.get("output_path"),
    )


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def trajectory_to_csv(traj: Trajectory, path: str, dump_states: bool = False) -> None:
    """Columns: t, trace, energy, purity, entropy, eig_1..eig_d, then any
    bipartite extras, then optionally the flattened state (re/im interleaved).
    """
    d = traj.states[0].shape[0]
    header = ["t", "trace", "energy", "purity", "entropy"]
    header += [f"eig_{i + 1}" for i in range(d)]
    bipartite = "entropy_H" in traj.monitors
    if bipartite:
        header += ["entropy_H", "entropy_K", "entropy_total", "mutual_info"]
        header += [f"global_eig_{i + 1}" for i in range(d)]
    if dump_states:
        for i in range(d):
            for j in range(d):
                header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for idx, t in enumerate(traj.times):
            eigs = traj.monitors["eigenvalues"][idx]
            row = [
                _fmt(t),
                _fmt(traj.monitors["trace"][idx]),
                _fmt(traj.monitors["energy"][idx]),
                _fmt(traj.monitors["purity"][idx]),
                _fmt(traj.monitors["entropy"][idx]),
            ]
            row += [_fmt(x) for x in eigs]
            if bipartite:
                row += [
                    _fmt(traj.monitors["entropy_H"][idx]),
                    _fmt(traj.monitors["entropy_K"][idx]),
                    _fmt(traj.monitors["entropy"][idx]),
                    _fmt(traj.monitors["mutual_info"][idx]),
                ]
                row += [_fmt(x) for x in eigs]
            if dump_states:
                s = traj.states[idx]
                for i in range(d):
                    for j in range(d):
                        row += [_fmt(s[i, j].real), _fmt(s[i, j].imag)]
            writer.writerow(row)


def verify_csv(path: str, trace_tol: float = 1e-9, eig_tol: float = 1e-10) -> dict:
    """Spot-check the physical-state invariants on an exported trajectory.

    With dumped states the full matrix invariants are checked; otherwise the
    trace and eigenvalue columns are audited.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValidationError("empty CSV")
    has_states = any(k.startswith("re_") for k in rows[0])
    problems = []
    for row in rows:
        t = float(row["t"])
        if abs(float(row["trace"]) - 1.0) > trace_tol:
            problems.append(f"t={t}: trace off by more than {trace_tol}")
        eigs = [float(v) for k, v in row.items() if k.startswith("eig_")]
        if eigs and min(eigs) < -eig_tol:
            problems.append(f"t={t}: eigenvalue below -{eig_tol}")
        if has_states:
            d = int(round(np.sqrt(sum(1 for k in row if k.startswith("re_")))))
            m = np.array(
                [
                    [float(row[f"re_{i}_{j}"]) + 1j * float(row[f"im_{i}_{j}"]) for j in range(d)]
                    for i in range(d)
                ]
            )
            problem = state_violation(m, 1e-9, trace_tol, eig_tol)
            if problem:
                problems.append(f"t={t}: state {problem}")
    return {"rows": len(rows), "ok": not problems, "problems": problems}


def schema_document() -> dict:
    """Human-readable description of the scenario file format."""
    mat = {"dim": "int", "re": "[row-major reals]", "im": "[row-major reals]"}
    gen = {
        "H": mat,
        "t": {"family": "vonNeumann | powerLaw", "q": "real > 0 (powerLaw)"},
        "gamma": {
            "family": "none | zeroMean | energyConserving | nonEssential",
            "sigma": "real",
            "r": "real > 0 (> 1 for nonEssential)",
            "A": "matrix (nonEssential only)",
        },
    }
    integ = {
        "dt": "real > 0",
        "t_final": "real, a whole number of dt steps",
        "renormalize_each_step": "bool (default true)",
        "monitor_stride": "int >= 1 (default 1)",
        "max_step_drift": "real (default 1e-6)",
    }
    return {
        "schema": SCHEMA_ID,
        "kind": " | ".join(KINDS),
        "seed": "uint (randomized sampling only)",
        "output_path": "string (CSV for trajectories, JSON for reports)",
        "payload": {
            "evolve": {"rho0": mat, "generator": gen, "integrator": integ},
            "evolve_bipartite": {
                "rho0": mat,
                "dims": {"d_H": "int", "d_K": "int"},
                "generator_H": gen,
                "generator_K": "generator (optional)",
                "integrator": integ,
            },
            "mixture": {
                "rho0": mat,
                "weights": "[positive reals summing to 1]",
                "generators": [gen],
                "integrator": integ,
            },
            "measure_correlation": {
                "rho0": mat,
                "dims": {"d_H": "int", "d_K": "int"},
                "generator_H": gen,
                "generator_K": "generator (optional)",
                "t0": "real",
                "t1": "real",
                "t2": "real",
                "P_H": mat,
                "P_K": mat,
                "integrator": integ,
            },
            "check": {
                "generator": gen,
                "dim": "int",
                "samples": "int (default 100)",
                "checks": '["zero_mean" | "polchinski" | "cp_extension"]',
                "dims": {"d_H": "int", "d_K": "int"},
                "integrator": "integrator (cp_extension only)",
            },
        },
    }
