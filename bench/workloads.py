"""The three workloads: inputs made from a seed, the operations run on them,
and the check each output must pass.

An operation looks its library function up at call time (``getattr`` on the
module), so the traced run sees the same calls through its wrappers.  Every
input is generated here with numpy from the seed; the library only receives
finished matrices, specs and scenario files.
"""

from __future__ import annotations

import contextlib
import csv
import io as _stdio
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nlqd import cli, entanglement, measurement, propagation
from nlqd.entanglement import BipartiteDynamics, BipartiteState
from nlqd.generators import GammaFamily, GeneratorSpec, TFamily
from nlqd.measurement import CorrelationScenario, MeasurementSetup
from nlqd.propagation import IntegratorConfig, MixtureSpec

import checks
import reference

WORKLOADS = ("ensemble", "entangled", "cli_io")
DT = 1e-3
# Families whose dynamics conserve Tr[H rho].
ENERGY_FAMILIES = ("vonNeumann", "powerLaw", "energyConserving")


@dataclass
class Op:
    name: str
    steps: int  # nominal integrator steps, counted from the inputs
    run: Callable[[], object]
    check: Callable[[object], None]


def _call(module, fn: str, *args, **kwargs) -> Callable[[], object]:
    return lambda: getattr(module, fn)(*args, **kwargs)


# ---- inputs -----------------------------------------------------------------


def herm(rng, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def density(rng, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def diag_herm(rng, d: int) -> np.ndarray:
    return np.diag(rng.standard_normal(d)).astype(complex)


def family_specs(h, a) -> list[tuple[str, GeneratorSpec]]:
    """The five criterion-1 specs, named by the family that distinguishes them."""
    pl = TFamily("powerLaw", q=1.0)
    return [
        ("vonNeumann", GeneratorSpec(H=h)),
        ("powerLaw", GeneratorSpec(H=h, t_family=pl)),
        ("zeroMean", GeneratorSpec(H=h, t_family=pl, gamma_family=GammaFamily("zeroMean", sigma=0.5, r=2.0))),
        (
            "energyConserving",
            GeneratorSpec(H=h, t_family=pl, gamma_family=GammaFamily("energyConserving", sigma=0.5, r=2.0)),
        ),
        ("nonEssential", GeneratorSpec(H=h, t_family=pl, gamma_family=GammaFamily("nonEssential", r=2.0, A=a))),
    ]


def record_times(cfg: IntegratorConfig) -> np.ndarray:
    """Times the integrator must record: t = 0, every stride-th step, the last."""
    n = int(round(cfg.t_final / cfg.dt))
    steps = sorted(set(range(0, n + 1, cfg.monitor_stride)) | {n})
    return np.array(steps) * cfg.dt


# ---- checks -----------------------------------------------------------------


def _trajectory_check(fam: str, h, rho0, pure: bool, cfg: IntegratorConfig):
    times = record_times(cfg)

    def check(traj):
        checks.equal("records", len(traj.states), len(times))
        checks.physical(traj.states)
        if fam in ENERGY_FAMILIES:
            checks.energy(h, traj.states)
        if pure or fam == "vonNeumann":
            want = reference.unitary_path(h, rho0, times)
            checks.close("unitary_reference", traj.states, want, checks.REFERENCE_TOL)

    return check


def _propagator_check(fam: str, h, rho0, cfg: IntegratorConfig):
    traj_check = _trajectory_check(fam, h, rho0, False, cfg)

    def check(out):
        s, traj = out
        traj_check(traj)
        final = traj.states[-1]
        checks.close("propagator_reconstructs", s @ rho0 @ s.conj().T, final, checks.REFERENCE_TOL)
        if fam == "vonNeumann":
            checks.close("propagator_reference", s, reference.unitary(h, cfg.t_final), checks.REFERENCE_TOL)

    return check


def _mixture_check(weights, hs, rho0, cfg: IntegratorConfig, closed_form: bool):
    times = record_times(cfg)

    def check(traj):
        checks.equal("records", len(traj.states), len(times))
        checks.physical(traj.states)
        if closed_form:
            want = reference.mixture_path(weights, hs, rho0, times)
            checks.close("mixture_reference", traj.states, want, checks.REFERENCE_TOL)

    return check


def _bipartite_check(dims, passive: bool, cfg: IntegratorConfig):
    times = record_times(cfg)

    def check(traj):
        checks.equal("records", len(traj.states), len(times))
        checks.physical(traj.states)
        # Gamma is none or nonEssential on both sides, so the joint
        # generator is Hermitian on the support and the spectrum is fixed.
        checks.spectrum_constant(traj.states)
        if passive:
            checks.remote_frozen(traj.states, dims)

    return check


def _cp_check(n_samples: int):
    def check(rep):
        checks.equal("cp_samples", len(rep.samples), n_samples)
        worst = max(max(s.local_residual, s.remote_residual) for s in rep.samples)
        checks.true("cp_extension", rep.passed, f"(worst residual {worst:.3e})")

    return check


def _report_check(closed_form=None):
    """Routes agree; closed_form is (p_first, p_joint) where one exists."""

    def check(rep):
        checks.close("route_gap", rep["p_joint_full"], rep["p_joint_switch"], checks.ROUTE_TOL)
        if closed_form is not None:
            p_first, p_joint = closed_form
            checks.close("p_first_reference", rep["p_first"], p_first, checks.ROUTE_TOL)
            checks.close("p_joint_reference", rep["p_joint_full"], p_joint, checks.ROUTE_TOL)

    return check


# ---- workloads --------------------------------------------------------------


def ensemble(rng, workdir: str) -> list[Op]:
    """Criterion-1 mix at d = 2, 4, 8 with the monitor on every step, plus
    propagators and serial many-branch mixtures."""
    cfg = IntegratorConfig(dt=DT, t_final=0.2, monitor_stride=1)
    n = 200
    ops = []
    for d in (2, 4, 8):
        h, a = herm(rng, d), herm(rng, d)
        for fam, spec in family_specs(h, a):
            for label, rank in (("full", d), ("low", max(1, d // 2)), ("pure", 1)):
                rho0 = density(rng, d, rank)
                ops.append(
                    Op(
                        f"evolve/{fam}/d{d}/{label}",
                        n,
                        _call(propagation, "evolve", rho0, spec, cfg),
                        _trajectory_check(fam, h, rho0, rank == 1, cfg),
                    )
                )
        specs = dict(family_specs(h, a))
        for fam in ("vonNeumann", "zeroMean"):
            rho0 = density(rng, d, d)
            ops.append(
                Op(
                    f"propagator/{fam}/d{d}",
                    n,
                    _call(propagation, "accumulate_propagator", rho0, specs[fam], cfg),
                    _propagator_check(fam, h, rho0, cfg),
                )
            )
        branches = 4
        for fam in ("vonNeumann", "zeroMean"):
            hs = [herm(rng, d) for _ in range(branches)]
            w = rng.dirichlet(np.ones(branches))
            w = w / w.sum()
            mix = MixtureSpec(weights=w, process_specs=[dict(family_specs(hh, a))[fam] for hh in hs])
            rho0 = density(rng, d, d)
            ops.append(
                Op(
                    f"mixture/{fam}/d{d}",
                    branches * n,
                    _call(propagation, "evolve_convex_mixture", rho0, mix, cfg),
                    _mixture_check(mix.weights, hs, rho0, cfg, fam == "vonNeumann"),
                )
            )
    return ops


def correlation_scenarios(rng) -> list[tuple[str, CorrelationScenario, object]]:
    """Criterion-8 scenarios: (name, scenario, closed form or None)."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    cfg = IntegratorConfig(dt=DT, t_final=1.0)
    # Fixed measurement times keep the work per report the same for every
    # seed; the seed varies the states, Hamiltonians and exponents.
    t0, t1, t2 = 0.0, 0.15, 0.35
    out = []
    for i in range(4):
        pl_h = TFamily("powerLaw", q=float(rng.uniform(0.5, 2.0)))
        pl_k = TFamily("powerLaw", q=float(rng.uniform(0.5, 2.0)))
        sc = CorrelationScenario(
            rho0=BipartiteState(d_H=2, d_K=2, matrix=density(rng, 4, 2)),
            dyn=BipartiteDynamics(
                spec_H=GeneratorSpec(H=diag_herm(rng, 2), t_family=pl_h),
                spec_K=GeneratorSpec(H=diag_herm(rng, 2), t_family=pl_k),
            ),
            t0=t0, t1=t1, t2=t2, P_H=MeasurementSetup(P=p0), P_K=MeasurementSetup(P=p0), cfg=cfg,
        )
        out.append((f"report/powerLaw/{i}", sc, None))
    # vonNeumann: a diagonal H_H keeps P_H invariant; H_K may be anything.
    h_h, h_k = diag_herm(rng, 2), herm(rng, 2)
    rho0 = density(rng, 4, 2)
    sc = CorrelationScenario(
        rho0=BipartiteState(d_H=2, d_K=2, matrix=rho0),
        dyn=BipartiteDynamics(spec_H=GeneratorSpec(H=h_h), spec_K=GeneratorSpec(H=h_k)),
        t0=t0, t1=t1, t2=t2, P_H=MeasurementSetup(P=p0), P_K=MeasurementSetup(P=p0), cfg=cfg,
    )
    out.append(("report/vonNeumann", sc, reference.joint_probabilities(rho0, h_h, h_k, p0, p0, t0, t1, t2)))
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    sc = CorrelationScenario(
        rho0=BipartiteState(d_H=2, d_K=2, matrix=np.outer(v, v.conj())),
        dyn=BipartiteDynamics(spec_H=GeneratorSpec(H=np.zeros((2, 2)))),
        t0=t0, t1=t1, t2=t2, P_H=MeasurementSetup(P=p0), P_K=MeasurementSetup(P=p1), cfg=cfg,
    )
    out.append(("report/singlet", sc, (0.5, reference.SINGLET_P_JOINT)))
    return out


def entangled(rng, workdir: str) -> list[Op]:
    """Bipartite runs at (2,2) and (2,4) with a sparse monitor, CP audits
    over sample pools, and correlation reports."""
    cfg = IntegratorConfig(dt=DT, t_final=0.3, monitor_stride=50)
    cp_cfg = IntegratorConfig(dt=DT, t_final=0.2, monitor_stride=20)
    ops = []
    for d_h, d_k in ((2, 2), (2, 4)):
        dims = (d_h, d_k)
        spec_ne = GeneratorSpec(
            H=herm(rng, d_h),
            t_family=TFamily("powerLaw", q=1.3),
            gamma_family=GammaFamily("nonEssential", r=2.0, A=herm(rng, d_h)),
        )
        spec_pl = GeneratorSpec(H=herm(rng, d_h), t_family=TFamily("powerLaw", q=0.8))
        spec_k = GeneratorSpec(H=herm(rng, d_k), t_family=TFamily("powerLaw", q=1.2))
        for fam, spec_h in (("nonEssential", spec_ne), ("powerLaw", spec_pl)):
            for env, sk in (("passive", None), ("active", spec_k)):
                for label, rank in (("mixed", 2), ("pure", 1)):
                    state = BipartiteState(d_H=d_h, d_K=d_k, matrix=density(rng, d_h * d_k, rank))
                    ops.append(
                        Op(
                            f"bipartite/{fam}/{env}/{d_h}x{d_k}/{label}",
                            300,
                            _call(entanglement, "evolve_bipartite", state, BipartiteDynamics(spec_H=spec_h, spec_K=sk), cfg),
                            _bipartite_check(dims, sk is None, cfg),
                        )
                    )
        pool = [BipartiteState(d_H=d_h, d_K=d_k, matrix=density(rng, d_h * d_k, 2)) for _ in range(3)]
        ops.append(
            Op(
                f"cp_audit/{d_h}x{d_k}",
                2 * len(pool) * 200,  # one joint and one local trajectory per sample
                _call(entanglement, "verify_cp_extension", BipartiteDynamics(spec_H=spec_ne), pool, cp_cfg),
                _cp_check(len(pool)),
            )
        )
    for name, sc, closed in correlation_scenarios(rng):
        ops.append(
            Op(
                name,
                int(round((sc.t2 - sc.t0) / sc.cfg.dt)),
                _call(measurement, "correlation_report", sc),
                _report_check(closed),
            )
        )
    return ops


# ---- cli_io -----------------------------------------------------------------


def _mat(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist()}


def _gen(spec: GeneratorSpec) -> dict:
    t = {"family": spec.t_family.family}
    if t["family"] == "powerLaw":
        t["q"] = spec.t_family.q
    g = {"family": spec.gamma_family.family}
    if g["family"] in ("zeroMean", "energyConserving"):
        g.update(sigma=spec.gamma_family.sigma, r=spec.gamma_family.r)
    elif g["family"] == "nonEssential":
        g.update(r=spec.gamma_family.r, A=_mat(spec.gamma_family.A))
    return {"H": _mat(spec.H), "t": t, "gamma": g}


def _integ(cfg: IntegratorConfig) -> dict:
    return {"dt": cfg.dt, "t_final": cfg.t_final, "monitor_stride": cfg.monitor_stride}


def _cli(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    """Run nlqd.cli.main in-process; returns (exit code, stdout, stderr)."""

    def run():
        out, err = _stdio.StringIO(), _stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def read_csv_states(path: str) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    d = int(round(np.sqrt(sum(1 for k in rows[0] if k.startswith("re_")))))
    return np.array(
        [
            [[float(r[f"re_{i}_{j}"]) + 1j * float(r[f"im_{i}_{j}"]) for j in range(d)] for i in range(d)]
            for r in rows
        ]
    )


def _exit_ok(out) -> None:
    code, text, err = out
    if code != 0:
        raise checks.CheckFailed("exit_code", f"exit {code}: {(err or text).strip()[:200]}")


def _verify_check(csv_path: str, n_rows: int, unitary=None):
    """nlqd verify passed with the expected row count, and the dumped states
    are physical (and match the closed form where there is one)."""

    def check(out):
        _exit_ok(out)
        rep = _last_json(out[1])
        checks.true("verify_ok", rep["ok"], str(rep["problems"][:1]))
        checks.equal("verify_rows", rep["rows"], n_rows)
        states = read_csv_states(csv_path)
        checks.physical(states)
        if unitary is not None:
            h, rho0, times = unitary
            checks.close("unitary_reference", states, reference.unitary_path(h, rho0, times), checks.REFERENCE_TOL)

    return check


def _json_check(fn):
    def check(out):
        _exit_ok(out)
        fn(_last_json(out[1]))

    return check


def _check_report_check(expect: dict):
    """expect maps check name -> {field: value} the report must carry."""

    def check(rep):
        for name, fields in expect.items():
            entry = rep["checks"].get(name)
            checks.true(f"{name}_present", entry is not None)
            for key, want in fields.items():
                checks.equal(f"{name}.{key}", entry[key], want)

    return _json_check(check)


def cli_io(rng, workdir: str) -> list[Op]:
    """One scenario file per CLI kind and family, run in-process through
    nlqd.cli.main with --dump-states, each CSV read back with nlqd verify."""
    cfg = IntegratorConfig(dt=DT, t_final=0.1, monitor_stride=1)
    n = 100
    times = record_times(cfg)
    ops = []
    file_no = itertools.count(1)

    def write(kind: str, payload: dict, seed: int = 0) -> tuple[str, str]:
        base = os.path.join(workdir, f"{next(file_no):02d}-{kind}")
        out_path = base + (".csv" if kind in ("evolve", "evolve_bipartite", "mixture") else ".json")
        doc = {"schema": "nlqd/1", "kind": kind, "seed": seed, "output_path": out_path, "payload": payload}
        with open(base + ".scenario.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return base + ".scenario.json", out_path

    def trajectory(name: str, kind: str, payload: dict, steps: int, unitary=None):
        scen, out_path = write(kind, payload)
        ops.append(Op(f"cli_run/{name}", steps, _cli(["run", scen, "--dump-states"]), _exit_ok))
        ops.append(Op(f"cli_verify/{name}", 0, _cli(["verify", out_path]), _verify_check(out_path, len(times), unitary)))

    for d in (2, 4):
        h, a = herm(rng, d), herm(rng, d)
        for fam, spec in family_specs(h, a):
            rank = 1 if fam != "vonNeumann" else d
            rho0 = density(rng, d, rank)
            ref = (h, rho0, times) if rank == 1 or fam == "vonNeumann" else None
            payload = {"rho0": _mat(rho0), "generator": _gen(spec), "integrator": _integ(cfg)}
            trajectory(f"evolve/{fam}/d{d}", "evolve", payload, n, ref)

    spec_ne = GeneratorSpec(
        H=herm(rng, 2), t_family=TFamily("powerLaw", q=1.3),
        gamma_family=GammaFamily("nonEssential", r=2.0, A=herm(rng, 2)),
    )
    for (d_h, d_k), spec_k in (((2, 2), None), ((2, 4), GeneratorSpec(H=herm(rng, 4), t_family=TFamily("powerLaw", q=1.2)))):
        payload = {
            "rho0": _mat(density(rng, d_h * d_k, 2)),
            "dims": {"d_H": d_h, "d_K": d_k},
            "generator_H": _gen(spec_ne),
            "integrator": _integ(cfg),
        }
        if spec_k is not None:
            payload["generator_K"] = _gen(spec_k)
        trajectory(f"bipartite/{d_h}x{d_k}", "evolve_bipartite", payload, n)

    for d, fam, branches in ((2, "vonNeumann", 2), (4, "zeroMean", 3)):
        a = herm(rng, d)
        hs = [herm(rng, d) for _ in range(branches)]
        w = rng.dirichlet(np.ones(branches))
        w = (w / w.sum()).tolist()
        rho0 = density(rng, d, d)
        payload = {
            "rho0": _mat(rho0),
            "weights": w,
            "generators": [_gen(dict(family_specs(hh, a))[fam]) for hh in hs],
            "integrator": _integ(cfg),
        }
        trajectory(f"mixture/{fam}/d{d}", "mixture", payload, branches * n)

    scenarios = correlation_scenarios(rng)
    for name, sc, closed in (scenarios[0], scenarios[-1]):  # one powerLaw, the singlet
        payload = {
            "rho0": _mat(sc.rho0.matrix),
            "dims": {"d_H": 2, "d_K": 2},
            "generator_H": _gen(sc.dyn.spec_H),
            "t0": sc.t0, "t1": sc.t1, "t2": sc.t2,
            "P_H": _mat(sc.P_H.P), "P_K": _mat(sc.P_K.P),
            "integrator": _integ(IntegratorConfig(dt=DT, t_final=1.0)),
        }
        if sc.dyn.spec_K is not None:
            payload["generator_K"] = _gen(sc.dyn.spec_K)
        scen, _ = write("measure_correlation", payload)
        steps = int(round((sc.t2 - sc.t0) / DT))
        ops.append(Op(f"cli_{name}", steps, _cli(["run", scen]), _json_check(_report_check(closed))))

    d = 3
    zero_mean = GeneratorSpec(H=herm(rng, d), gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0))
    non_ess = GeneratorSpec(
        H=herm(rng, d), t_family=TFamily("powerLaw", q=1.0),
        gamma_family=GammaFamily("nonEssential", r=2.0, A=herm(rng, d)),
    )
    cp_cfg = IntegratorConfig(dt=DT, t_final=0.05, monitor_stride=10)
    samples, cp_pool = 40, 10  # the CLI audits min(samples, 10) CP samples
    seed = int(rng.integers(2**31))
    scen, _ = write("check", {"generator": _gen(zero_mean), "dim": d, "samples": samples,
                              "checks": ["zero_mean", "polchinski"]}, seed)
    ops.append(Op("cli_check/zeroMean", 0, _cli(["run", scen]), _check_report_check(
        {"zero_mean": {"passed": True}, "polchinski": {"passed": False, "essential_witnessed": True}})))
    scen, _ = write("check", {"generator": _gen(non_ess), "dim": d, "samples": samples,
                              "checks": ["zero_mean", "polchinski", "cp_extension"],
                              "dims": {"d_H": d, "d_K": 2}, "integrator": _integ(cp_cfg)}, seed)
    ops.append(Op("cli_check/nonEssential", 2 * cp_pool * 50, _cli(["run", scen]), _check_report_check(
        {"zero_mean": {"passed": True}, "polchinski": {"passed": True, "samples_used": samples},
         "cp_extension": {"passed": True, "samples": cp_pool}})))
    return ops


def build(name: str, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    return {"ensemble": ensemble, "entangled": entangled, "cli_io": cli_io}[name](rng, workdir)
