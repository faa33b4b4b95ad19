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
INTEGRATOR_KEYS = ("dt", "t_final", "monitor_stride", "max_step_drift")
# The CSV names a vector channel's columns <prefix>_1..<prefix>_d.
COLUMN_PREFIX = {"eigenvalues": "eig"}


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
        unknown = sorted(set(obj) - set(INTEGRATOR_KEYS))
        if unknown:
            raise ValidationError(f"unknown integrator keys {unknown}; expected {INTEGRATOR_KEYS}")
        return IntegratorConfig(
            dt=float(obj["dt"]),
            t_final=float(obj["t_final"]),
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
    """Columns: t, then every monitor channel in the monitor's order, then
    optionally the flattened state as re_i_j, im_i_j pairs in row-major order.

    A vector channel expands in place to one column per entry, named
    <prefix>_1..<prefix>_d with the prefix from COLUMN_PREFIX.
    """
    n = len(traj.times)
    header, columns = ["t"], [np.reshape(traj.times, (n, 1))]
    for name, values in traj.monitors.items():
        values = np.asarray(values)
        if values.ndim == 1:
            header.append(name)
        else:
            header += [f"{COLUMN_PREFIX.get(name, name)}_{i + 1}" for i in range(values.shape[1])]
        columns.append(values.reshape(n, -1))
    if dump_states:
        s = np.array(traj.states)
        d = s.shape[1]
        header += [f"{part}_{i}_{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
        columns.append(np.stack([s.real, s.imag], axis=-1).reshape(n, -1))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.hstack(columns):
            writer.writerow([_fmt(x) for x in row])


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
            "sigma": "real (zeroMean, energyConserving only)",
            "r": "real > 0 (> 1 for nonEssential)",
            "A": "matrix (nonEssential only)",
        },
    }
    integ = {
        "dt": "real > 0",
        "t_final": "real, a whole number of dt steps",
        "monitor_stride": "int >= 1 (default 1)",
        "max_step_drift": "real (default 1e-6)",
        "(other keys)": "rejected",
    }
    return {
        "schema": SCHEMA_ID,
        "kind": " | ".join(KINDS),
        "seed": "uint (randomized sampling only)",
        "output_path": (
            "string (JSON for reports; CSV for trajectories with columns t, the monitor "
            "channels in order with eigenvalues expanded to eig_1..eig_d, then "
            "re_i_j, im_i_j with --dump-states)"
        ),
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
