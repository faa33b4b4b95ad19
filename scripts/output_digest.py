#!/usr/bin/env python3
"""One sha256 per output of a fixed set of nlqd runs, for bitwise parity,
and the values of those outputs, for the committed baseline.

Two checkouts give the same lines exactly when the outputs below are equal
bit for bit, so diffing the lines of two checkouts is the parity check:

    PYTHONPATH=old/src python3 scripts/output_digest.py > old.txt
    PYTHONPATH=new/src python3 scripts/output_digest.py > new.txt
    diff old.txt new.txt

The same runs also keep their values: per run the final state, the largest
per-step drift, the last value of each monitor channel, the propagator S and
every audit or report value, as flat lists of ``repr`` floats (a complex
array as its interleaved real and imaginary parts).  Given a second path,
the script writes them there as JSON, one run per line; that file is
``tests/data/baseline.json``, which ``tests/test_scripts.py`` holds every
later run to within 1e-12.

The set: ``evolve`` for the five families at d = 2, 4, 8, pure and full
rank, monitor strides 1 and 7; ``accumulate_propagator``; the zero-mean and
support-block residuals; same-family and mixed-family mixtures; bipartite
runs at 2x2 and 2x4; ``verify_cp_extension`` residuals at 2x2 and 3x2 for
one sample and for three; the six correlation scenarios of the benchmark;
both sides of the nonEssential zero-Gamma skip: ``evolve_many`` stacks at
d = 2 and 4 of full-rank members only and of full-rank and rank-1 members
mixed, and correlation scenarios whose Q block, or P block, carries no
weight; and whole exponents (q and r integers, every T and Gamma family,
including the criterion-1 specs) as ``evolve_many`` stacks of a full-rank,
a rank-d/2 and a pure state at d = 2, 3 and 4, with a propagator and a
four-branch mixture at d = 3; a spectral side at q = 0.5 beside one at
q = 1.2, in a 2x2 active bipartite run and in a correlation scenario; and a
four-branch mixture at d = 3 of spectral zeroMean branches that differ only
in q, which step as one batch.
After those lines, the ``nlqd verify`` report of every CSV written above,
and of three copies of it spoiled in every third data row: a NaN state
entry, a state trace off by 1e-6 and a negative eigenvalue.
Each line is ``<run> <part> <sha256>``, a part being the states, the drifts,
one monitor channel, the propagator S, the CSV bytes, the report values or
a verify report.

Usage: python3 scripts/output_digest.py [out-file [values-file]]
"""

import hashlib
import json
import pathlib
import sys
import tempfile
from dataclasses import replace

import numpy as np

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

from nlqd.entanglement import (  # noqa: E402
    BipartiteDynamics,
    BipartiteState,
    evolve_bipartite,
    random_entangled_state,
    verify_cp_extension,
)
from nlqd.generators import (  # noqa: E402
    GammaFamily,
    GeneratorSpec,
    TFamily,
    check_polchinski_condition,
    check_zero_mean,
    random_density_matrix,
)
from nlqd.io import _write_new, trajectory_to_csv, verify_csv  # noqa: E402
from nlqd.measurement import CorrelationScenario, MeasurementSetup, correlation_report  # noqa: E402
from nlqd.propagation import (  # noqa: E402
    IntegratorConfig,
    MixtureSpec,
    accumulate_propagator,
    evolve,
    evolve_convex_mixture,
    evolve_many,
)
import workloads  # noqa: E402

SEED = 7919
DT = 1e-3
FAMILIES = ("vonNeumann", "powerLaw", "zeroMean", "energyConserving", "nonEssential")


def sha(a) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype}{a.shape}".encode() + a.tobytes()).hexdigest()


def herm(rng, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def specs(h, a) -> dict:
    pl = TFamily("powerLaw", q=1.3)
    return {
        "vonNeumann": GeneratorSpec(H=h),
        "powerLaw": GeneratorSpec(H=h, t_family=pl),
        "zeroMean": GeneratorSpec(H=h, t_family=pl, gamma_family=GammaFamily("zeroMean", sigma=0.5, r=2.0)),
        "energyConserving": GeneratorSpec(
            H=h, t_family=pl, gamma_family=GammaFamily("energyConserving", sigma=0.5, r=2.0)
        ),
        "nonEssential": GeneratorSpec(H=h, t_family=pl, gamma_family=GammaFamily("nonEssential", r=2.0, A=a)),
    }


def integer_specs(h, a) -> dict:
    """Specs whose exponents are whole: the criterion-1 specs (q = 1, r = 2) and
    other pairs of q and r, vonNeumann T included."""
    zm, ec = "zeroMean", "energyConserving"

    def spec(q, gamma):
        return GeneratorSpec(H=h, t_family=TFamily("powerLaw", q=q) if q else TFamily("vonNeumann"), gamma_family=gamma)

    return {
        "q1/none": spec(1.0, GammaFamily("none")),
        "q1/zeroMean": spec(1.0, GammaFamily(zm, sigma=0.5, r=2.0)),
        "q1/energyConserving": spec(1.0, GammaFamily(ec, sigma=0.5, r=2.0)),
        "q1/nonEssential": spec(1.0, GammaFamily("nonEssential", r=2.0, A=a)),
        "q2/zeroMean_r3": spec(2.0, GammaFamily(zm, sigma=0.5, r=3.0)),
        "q3/energyConserving_r2": spec(3.0, GammaFamily(ec, sigma=0.5, r=2.0)),
        "q3/energyConserving_r1": spec(3.0, GammaFamily(ec, sigma=0.5, r=1.0)),
        "vonNeumann/zeroMean": spec(None, GammaFamily(zm, sigma=0.5, r=1.0)),
        "vonNeumann/energyConserving": spec(None, GammaFamily(ec, sigma=0.5, r=2.0)),
        "q2/nonEssential_r3": spec(2.0, GammaFamily("nonEssential", r=3.0, A=a)),
    }


def shift(x: float):
    return lambda cell: repr(float(cell) + x)


# spoiled copy -> (column, new cell) pairs, applied to every third data row.
SPOILS = {
    "nan_state": [("im_0_1", lambda cell: "nan")],
    "trace_off": [("re_0_0", shift(1e-6))],
    "negative_eigenvalue": [("re_0_1", shift(2.0)), ("re_1_0", shift(2.0))],
}


def flat(a) -> list:
    """a as a flat list of floats; a complex array as its real and imaginary parts."""
    a = np.ascontiguousarray(a)
    return (a.view(float) if np.iscomplexobj(a) else a.astype(float)).ravel().tolist()


class Digest:
    def __init__(self, tmp: pathlib.Path):
        self.lines: list[str] = []
        self.verify_lines: list[str] = []  # written after the lines above
        self.values: dict[str, dict[str, list]] = {}  # run -> part -> flat values
        self.tmp = tmp

    def add(self, run: str, part: str, value, keep: bool = True) -> None:
        self.lines.append(f"{run} {part} {sha(value)}")
        if keep:
            self.keep(run, part, value)

    def keep(self, run: str, part: str, value) -> None:
        self.values.setdefault(run, {})[part] = flat(value)

    def trajectory(self, run: str, traj, csv: bool = False) -> None:
        self.add(run, "times", traj.times, keep=False)
        self.add(run, "states", np.array(traj.states), keep=False)
        self.add(run, "drifts", traj.norm_drift, keep=False)
        self.keep(run, "final_state", traj.states[-1])
        self.keep(run, "max_drift", np.max(traj.norm_drift))
        for name, values in traj.monitors.items():
            self.add(run, name, values, keep=False)
            self.keep(run, f"last_{name}", values[-1])
        if csv:
            path = self.tmp / "out.csv"
            trajectory_to_csv(traj, str(path), dump_states=True)
            self.lines.append(f"{run} csv {hashlib.sha256(path.read_bytes()).hexdigest()}")
            self.verify(run, "verify", path)
            header, *rows = [line.split(",") for line in path.read_text().splitlines()]
            for name, cells in SPOILS.items():
                table = [header, *(row.copy() for row in rows)]
                for row in table[1::3]:
                    for column, value in cells:
                        row[header.index(column)] = value(row[header.index(column)])
                spoiled = self.tmp / f"{name}.csv"
                _write_new(str(spoiled), [",".join(row) + "\n" for row in table])
                self.verify(run, f"verify/{name}", spoiled)

    def verify(self, run: str, part: str, path: pathlib.Path) -> None:
        report = json.dumps(verify_csv(str(path))).encode()
        self.verify_lines.append(f"{run} {part} {hashlib.sha256(report).hexdigest()}")

    def values_json(self) -> str:
        """The kept values as JSON, one run per line, floats as repr."""
        rows = [f"{json.dumps(run)}: {json.dumps(parts, separators=(',', ':'))}" for run, parts in self.values.items()]
        return "{\n" + ",\n".join(rows) + "\n}\n"


def collect(out: Digest) -> None:
    rng = np.random.default_rng(SEED)
    for d in (2, 4, 8):
        family = specs(herm(rng, d), herm(rng, d))
        for fam in FAMILIES:
            for rank_name, rank in (("pure", 1), ("full", d)):
                rho0 = random_density_matrix(d, rng, rank)
                for stride in (1, 7):
                    cfg = IntegratorConfig(dt=DT, t_final=0.05, monitor_stride=stride)
                    traj = evolve(rho0, family[fam], cfg)
                    out.trajectory(f"evolve/{fam}/d{d}/{rank_name}/s{stride}", traj, csv=True)
            cfg = IntegratorConfig(dt=DT, t_final=0.05, monitor_stride=5)
            s, traj = accumulate_propagator(random_density_matrix(d, rng), family[fam], cfg)
            out.add(f"propagator/{fam}/d{d}", "S", s)
            out.trajectory(f"propagator/{fam}/d{d}", traj)
            samples = [random_density_matrix(d, rng, rank) for rank in (1, max(1, d // 2), d)]
            out.add(f"checks/{fam}/d{d}", "zero_mean", check_zero_mean(family[fam], samples).residuals)
            residuals = [check_polchinski_condition(family[fam], rho).residual for rho in samples]
            out.add(f"checks/{fam}/d{d}", "polchinski", np.array(residuals))
        # Same family on every branch, each with its own H; then every family
        # once, and two families interleaved so branches of one group are apart.
        a = herm(rng, d)
        cfg = IntegratorConfig(dt=DT, t_final=0.05, monitor_stride=5)
        same = {fam: [specs(herm(rng, d), a)[fam] for _ in range(4)] for fam in ("vonNeumann", "zeroMean")}
        mixed = [specs(herm(rng, d), a)[fam] for fam in FAMILIES]
        alternating = [specs(herm(rng, d), a)[fam] for fam in ("zeroMean", "powerLaw") * 2]
        for name, branches in (*same.items(), ("mixed", mixed), ("alternating", alternating)):
            w = rng.dirichlet(np.ones(len(branches)))
            mix = MixtureSpec(weights=w / w.sum(), process_specs=branches)
            traj = evolve_convex_mixture(random_density_matrix(d, rng), mix, cfg)
            out.trajectory(f"mixture/{name}/d{d}", traj, csv=True)
    cfg = IntegratorConfig(dt=DT, t_final=0.1, monitor_stride=10)
    for d_h, d_k in ((2, 2), (2, 4)):
        family = specs(herm(rng, d_h), herm(rng, d_h))
        spec_k = GeneratorSpec(H=herm(rng, d_k), t_family=TFamily("powerLaw", q=1.2))
        for fam in ("powerLaw", "nonEssential"):
            for env, sk in (("passive", None), ("active", spec_k)):
                for label, rank in (("mixed", 2), ("pure", 1)):
                    rho0 = random_density_matrix(d_h * d_k, rng, rank)
                    state = BipartiteState(d_H=d_h, d_K=d_k, matrix=rho0)
                    traj = evolve_bipartite(state, BipartiteDynamics(spec_H=family[fam], spec_K=sk), cfg)
                    out.trajectory(f"bipartite/{fam}/{env}/{d_h}x{d_k}/{label}", traj)
    cfg = IntegratorConfig(dt=DT, t_final=0.1, monitor_stride=20)
    for d_h, d_k in ((2, 2), (3, 2)):
        dyn = BipartiteDynamics(spec_H=specs(herm(rng, d_h), herm(rng, d_h))["nonEssential"])
        for b in (1, 3):
            samples = [random_entangled_state(d_h, d_k, rng, mixture_terms=2) for _ in range(b)]
            rep = verify_cp_extension(dyn, samples, cfg)
            residuals = [(r.min_eigenvalue, r.local_residual, r.remote_residual) for r in rep.samples]
            out.add(f"checks/cp_extension/{d_h}x{d_k}/B{b}", "residuals", np.array(residuals))
    for name, sc, _ in workloads.correlation_scenarios(np.random.default_rng(SEED)):
        rep = correlation_report(sc)
        out.add(name, "report", np.array([rep[k] for k in sorted(rep)]))
    # Own generator from here on, so the lines above stay those of earlier versions.
    rng = np.random.default_rng(SEED + 1)
    cfg = IntegratorConfig(dt=DT, t_final=0.05, monitor_stride=5)
    for d in (2, 4):
        spec = specs(herm(rng, d), herm(rng, d))["nonEssential"]
        for name, ranks in (("full", (d, d, d)), ("mixed", (d, 1, d, 1))):
            trajs = evolve_many([random_density_matrix(d, rng, r) for r in ranks], spec, cfg)
            for i, traj in enumerate(trajs):
                out.trajectory(f"evolve_many/nonEssential/d{d}/{name}/{i}", traj)
    # The H marginal stays in |0><0|: the Q block of P_H = |0><0| carries no
    # weight, and the P block of P_H = |1><1| none.
    spec_h = GeneratorSpec(H=np.diag([0.7, -0.4]), t_family=TFamily("powerLaw", q=1.4))
    spec_k = GeneratorSpec(H=herm(rng, 2), t_family=TFamily("powerLaw", q=1.2))
    rho0 = BipartiteState(d_H=2, d_K=2, matrix=np.kron(np.diag([1.0, 0.0]), random_density_matrix(2, rng)))
    for name, p_h in (("q_empty", np.diag([1.0, 0.0])), ("p_empty", np.diag([0.0, 1.0]))):
        sc = CorrelationScenario(
            rho0=rho0, dyn=BipartiteDynamics(spec_H=spec_h, spec_K=spec_k), t0=0.0, t1=0.15, t2=0.35,
            P_H=MeasurementSetup(P=p_h), P_K=MeasurementSetup(P=np.diag([1.0, 0.0])),
            cfg=IntegratorConfig(dt=DT, t_final=1.0),
        )
        rep = correlation_report(sc)
        out.add(f"report/{name}", "report", np.array([rep[k] for k in sorted(rep)]))
    # Whole exponents, again from a generator of their own.
    rng = np.random.default_rng(SEED + 2)
    cfg = IntegratorConfig(dt=DT, t_final=0.05, monitor_stride=5)
    for d in (2, 3, 4):
        family = integer_specs(herm(rng, d), herm(rng, d))
        for name, spec in family.items():
            ranks = {"full": d, "half": max(1, d // 2), "pure": 1}
            trajs = evolve_many([random_density_matrix(d, rng, r) for r in ranks.values()], spec, cfg)
            for label, traj in zip(ranks, trajs):
                out.trajectory(f"integer/{name}/d{d}/{label}", traj)
        if d == 3:
            s, traj = accumulate_propagator(random_density_matrix(d, rng), family["q1/zeroMean"], cfg)
            out.add(f"integer/propagator/d{d}", "S", s)
            out.trajectory(f"integer/propagator/d{d}", traj)
            branches = [integer_specs(herm(rng, d), herm(rng, d))["q1/zeroMean"] for _ in range(4)]
            w = rng.dirichlet(np.ones(len(branches)))
            mix = MixtureSpec(weights=w / w.sum(), process_specs=branches)
            out.trajectory(f"integer/mixture/d{d}", evolve_convex_mixture(random_density_matrix(d, rng), mix, cfg))
    # A spectral side at q = 0.5, whose power numpy takes by sqrt, beside one
    # at q = 1.2, in a 2x2 active bipartite run and in a correlation scenario.
    rng = np.random.default_rng(SEED + 3)
    half = GeneratorSpec(H=herm(rng, 2), t_family=TFamily("powerLaw", q=0.5))
    spec_k = GeneratorSpec(H=herm(rng, 2), t_family=TFamily("powerLaw", q=1.2))
    state = BipartiteState(d_H=2, d_K=2, matrix=random_density_matrix(4, rng, 2))
    cfg = IntegratorConfig(dt=DT, t_final=0.1, monitor_stride=10)
    out.trajectory("bipartite/q0.5/active/2x2/mixed", evolve_bipartite(state, BipartiteDynamics(spec_H=half, spec_K=spec_k), cfg))
    spec_h = GeneratorSpec(H=np.diag([0.6, -0.3]), t_family=TFamily("powerLaw", q=1.2))
    sc = CorrelationScenario(
        rho0=BipartiteState(d_H=2, d_K=2, matrix=random_density_matrix(4, rng, 2)),
        dyn=BipartiteDynamics(spec_H=spec_h, spec_K=replace(half, H=herm(rng, 2))), t0=0.0, t1=0.15, t2=0.35,
        P_H=MeasurementSetup(P=np.diag([1.0, 0.0])), P_K=MeasurementSetup(P=np.diag([1.0, 0.0])),
        cfg=IntegratorConfig(dt=DT, t_final=1.0),
    )
    rep = correlation_report(sc)
    out.add("report/q0.5", "report", np.array([rep[k] for k in sorted(rep)]))
    # Spectral zeroMean branches that differ only in q (and H), one of them at
    # q = 0.5, whose power numpy takes by sqrt: they stack into one batch.
    rng = np.random.default_rng(SEED + 4)
    d, cfg = 3, IntegratorConfig(dt=DT, t_final=0.05, monitor_stride=5)
    zero_mean = GammaFamily("zeroMean", sigma=0.5, r=1.5)
    branches = [
        GeneratorSpec(H=herm(rng, d), t_family=TFamily("powerLaw", q=q), gamma_family=zero_mean)
        for q in (1.3, 0.5, 2.5, 1.3)
    ]
    w = rng.dirichlet(np.ones(len(branches)))
    mix = MixtureSpec(weights=w / w.sum(), process_specs=branches)
    out.trajectory(f"mixture/q_only/d{d}", evolve_convex_mixture(random_density_matrix(d, rng), mix, cfg))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Digest(pathlib.Path(tmp))
        collect(out)
    text = "\n".join(out.lines + out.verify_lines) + "\n"
    if len(sys.argv) > 1:
        pathlib.Path(sys.argv[1]).write_text(text)
    else:
        sys.stdout.write(text)
    if len(sys.argv) > 2:
        pathlib.Path(sys.argv[2]).write_text(out.values_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
