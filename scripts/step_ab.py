#!/usr/bin/env python3
"""Per-step A/B timing of ``evolve_many`` between two source trees, in one process:

    python3 scripts/step_ab.py OLD NEW [REPEATS]

OLD and NEW are checkouts (each with ``src/nlqd``), e.g. a parent commit
unpacked by ``git archive`` and this tree.  Each tree's package is copied
under its own name (``nlqd_old``, ``nlqd_new``) into a temporary directory
and both are imported, so the two run side by side on one interpreter, one
numpy and one machine state.  The single-system cells are the five
criterion-1 specs of the benchmark (q = 1, sigma = 0.5, r = 2) and a
fractional-q powerLaw (``powerLaw/q1.3``, the spectral kernel) at d = 2, 4
and 8, from states of rank d, d / 2 and 1, each stepped by ``evolve_many``
as one state (B = 1) and as a stack of three (B = 3).  The joint cells step
one state by ``evolve_bipartite`` under the specs of the benchmark's
``entangled`` workload (H: nonEssential under a q = 1.3 T, or powerLaw
q = 0.8; K passive or powerLaw q = 1.2) at 2x2 and 2x4, from states of
rank 2 and 1, recording every 50th step as that workload does.  Each repeat
times one run of STEPS steps per cell and tree, the two trees interleaved,
the first one alternating; a cell keeps each tree's best of REPEATS
(default 7).  One line per cell gives the microseconds per step (of the
whole stack) of each tree, their ratio, and the largest |new - old| entry
of the final states, which reads 0 when the trees keep their bits.  Set one
BLAS thread (``OPENBLAS_NUM_THREADS=1``) for steady numbers.
"""

import importlib
import pathlib
import shutil
import sys
import tempfile
import time

import numpy as np

STEPS = 100
DT = 1e-3
FAMILIES = ("vonNeumann", "powerLaw", "powerLaw/q1.3", "zeroMean", "energyConserving", "nonEssential")
JOINT_STRIDE = 50


def load(tree: str, name: str, into: pathlib.Path):
    """The package src/nlqd of tree, copied into into/name and imported under that name."""
    shutil.copytree(pathlib.Path(tree) / "src" / "nlqd", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def spec(pkg, family: str, h: np.ndarray, a: np.ndarray):
    """The benchmark's criterion-1 spec of one family, or powerLaw/q1.3,
    built from pkg's own classes."""
    if family == "vonNeumann":
        return pkg.GeneratorSpec(H=h)
    if family == "powerLaw/q1.3":
        return pkg.GeneratorSpec(H=h, t_family=pkg.TFamily("powerLaw", q=1.3))
    if family == "powerLaw":
        gamma = pkg.GammaFamily("none")
    elif family == "nonEssential":
        gamma = pkg.GammaFamily(family, r=2.0, A=a)
    else:
        gamma = pkg.GammaFamily(family, sigma=0.5, r=2.0)
    return pkg.GeneratorSpec(H=h, t_family=pkg.TFamily("powerLaw", q=1.0), gamma_family=gamma)


def hermitian(rng, n: int, d: int) -> np.ndarray:
    m = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return (m + m.conj().swapaxes(-1, -2)) / 2


def states(rng, n: int, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((n, d, rank)) + 1j * rng.standard_normal((n, d, rank))
    rho0s = g @ g.conj().swapaxes(-1, -2)
    rho0s = (rho0s + rho0s.conj().swapaxes(-1, -2)) / 2
    return rho0s / np.trace(rho0s, axis1=-2, axis2=-1).real[:, None, None]


def cells(rng) -> list:
    """(family, d, rank, B, inputs) for every cell, drawn once for both
    trees: for a single-system cell inputs is (H, A, rho0s), B = 1 stepping
    the first of the three states alone; for a joint cell, whose d reads
    "d_Hxd_K", (dims, H_H, A_H, H_K, rho0)."""
    out = []
    for d in (2, 4, 8):
        h, a = hermitian(rng, 2, d)
        for rank in sorted({d, d // 2, 1}, reverse=True):
            rho0s = states(rng, 3, d, rank)
            out.extend((family, str(d), rank, b, (h, a, rho0s[:b])) for family in FAMILIES for b in (1, 3))
    for d_h, d_k in ((2, 2), (2, 4)):
        (h_h, a_h), h_k = hermitian(rng, 2, d_h), hermitian(rng, 1, d_k)[0]
        for rank in (2, 1):
            rho0 = states(rng, 1, d_h * d_k, rank)[0]
            for side in ("nonEssential", "powerLaw"):
                for env in ("passive", "active"):
                    out.append((f"joint/{side}/{env}", f"{d_h}x{d_k}", rank, 1, ((d_h, d_k), h_h, a_h, h_k, rho0)))
    return out


def joint_dynamics(pkg, family: str, h_h: np.ndarray, a_h: np.ndarray, h_k: np.ndarray):
    """The entangled workload's BipartiteDynamics of a joint cell, from pkg's own classes."""
    _, side, env = family.split("/")
    if side == "nonEssential":
        t, gamma = pkg.TFamily("powerLaw", q=1.3), pkg.GammaFamily("nonEssential", r=2.0, A=a_h)
    else:
        t, gamma = pkg.TFamily("powerLaw", q=0.8), pkg.GammaFamily("none")
    spec_k = pkg.GeneratorSpec(H=h_k, t_family=pkg.TFamily("powerLaw", q=1.2)) if env == "active" else None
    return pkg.BipartiteDynamics(spec_H=pkg.GeneratorSpec(H=h_h, t_family=t, gamma_family=gamma), spec_K=spec_k)


def timed(pkg, cell) -> tuple[float, np.ndarray]:
    """Seconds of one evolve_many, or evolve_bipartite, of the cell under
    pkg, and its final states."""
    family, _, _, _, inputs = cell
    if family.startswith("joint/"):
        dims, h_h, a_h, h_k, rho0 = inputs
        dyn = joint_dynamics(pkg, family, h_h, a_h, h_k)
        state = pkg.BipartiteState(d_H=dims[0], d_K=dims[1], matrix=rho0)
        cfg = pkg.IntegratorConfig(dt=DT, t_final=STEPS * DT, monitor_stride=JOINT_STRIDE)
        t0 = time.perf_counter()
        traj = pkg.evolve_bipartite(state, dyn, cfg)
        return time.perf_counter() - t0, traj.final_state()[None]
    h, a, rho0s = inputs
    s = spec(pkg, family, h, a)
    cfg = pkg.IntegratorConfig(dt=DT, t_final=STEPS * DT)
    t0 = time.perf_counter()
    trajs = pkg.evolve_many(list(rho0s), s, cfg)
    return time.perf_counter() - t0, np.array([traj.final_state() for traj in trajs])


def main() -> int:
    if len(sys.argv) not in (3, 4):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    repeats = int(sys.argv[3]) if len(sys.argv) == 4 else 7
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = [load(sys.argv[1], "nlqd_old", pathlib.Path(tmp)), load(sys.argv[2], "nlqd_new", pathlib.Path(tmp))]
        todo = cells(np.random.default_rng(2024))
        best = np.full((len(todo), 2), np.inf)
        finals = [[None, None] for _ in todo]
        for rep in range(repeats):
            for i, cell in enumerate(todo):
                for k in ((0, 1) if (rep + i) % 2 == 0 else (1, 0)):
                    sec, finals[i][k] = timed(pkgs[k], cell)
                    best[i, k] = min(best[i, k], sec)
    us = best / STEPS * 1e6
    print(f"{'family':26s} {'d':>3s} {'rank':>4s} {'B':>1s} {'old us/step':>11s} {'new us/step':>11s} {'new/old':>7s} {'max |dev|':>9s}")
    for (family, d, rank, b, _), (old, new), (f_old, f_new) in zip(todo, us, finals):
        dev = float(np.max(np.abs(f_new - f_old)))
        print(f"{family:26s} {d:>3s} {rank:4d} {b:1d} {old:11.1f} {new:11.1f} {new / old:7.3f} {dev:9.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
