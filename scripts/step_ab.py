#!/usr/bin/env python3
"""Per-step A/B timing of ``evolve`` between two source trees, in one process:

    python3 scripts/step_ab.py OLD NEW [REPEATS]

OLD and NEW are checkouts (each with ``src/nlqd``), e.g. a parent commit
unpacked by ``git archive`` and this tree.  Each tree's package is copied
under its own name (``nlqd_old``, ``nlqd_new``) into a temporary directory
and both are imported, so the two run side by side on one interpreter, one
numpy and one machine state.  The cells are the five criterion-1 specs of
the benchmark (q = 1, sigma = 0.5, r = 2) at d = 2, 4 and 8, from a state of
rank d, d / 2 and 1.  Each repeat times one ``evolve`` of STEPS steps per
cell and tree, the two trees interleaved, the first one alternating; a cell
keeps each tree's best of REPEATS (default 7).  One line per cell gives
the microseconds per step of each tree, their ratio, and the largest
|new - old| entry of the final states, which reads 0 when the trees keep
their bits.  Set one BLAS thread (``OPENBLAS_NUM_THREADS=1``) for steady
numbers.
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
FAMILIES = ("vonNeumann", "powerLaw", "zeroMean", "energyConserving", "nonEssential")


def load(tree: str, name: str, into: pathlib.Path):
    """The package src/nlqd of tree, copied into into/name and imported under that name."""
    shutil.copytree(pathlib.Path(tree) / "src" / "nlqd", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def spec(pkg, family: str, h: np.ndarray, a: np.ndarray):
    """The benchmark's criterion-1 spec of one family, built from pkg's own classes."""
    if family == "vonNeumann":
        return pkg.GeneratorSpec(H=h)
    if family == "powerLaw":
        gamma = pkg.GammaFamily("none")
    elif family == "nonEssential":
        gamma = pkg.GammaFamily(family, r=2.0, A=a)
    else:
        gamma = pkg.GammaFamily(family, sigma=0.5, r=2.0)
    return pkg.GeneratorSpec(H=h, t_family=pkg.TFamily("powerLaw", q=1.0), gamma_family=gamma)


def cells(rng) -> list:
    """(family, d, rank, H, A, rho0) for every cell, drawn once for both trees."""
    out = []
    for d in (2, 4, 8):
        h, a = ((m + m.conj().T) / 2 for m in rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
        for rank in sorted({d, d // 2, 1}, reverse=True):
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            rho0 = g @ g.conj().T
            rho0 = (rho0 + rho0.conj().T) / 2
            out.extend((family, d, rank, h, a, rho0 / np.trace(rho0).real) for family in FAMILIES)
    return out


def timed(pkg, cell) -> tuple[float, np.ndarray]:
    """Seconds of one evolve of the cell under pkg, and its final state."""
    family, _, _, h, a, rho0 = cell
    s = spec(pkg, family, h, a)
    cfg = pkg.IntegratorConfig(dt=DT, t_final=STEPS * DT)
    t0 = time.perf_counter()
    traj = pkg.evolve(rho0, s, cfg)
    return time.perf_counter() - t0, traj.final_state()


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
    print(f"{'family':17s} {'d':>2s} {'rank':>4s} {'old us/step':>11s} {'new us/step':>11s} {'new/old':>7s} {'max |dev|':>9s}")
    for (family, d, rank, *_), (old, new), (f_old, f_new) in zip(todo, us, finals):
        dev = float(np.max(np.abs(f_new - f_old)))
        print(f"{family:17s} {d:2d} {rank:4d} {old:11.1f} {new:11.1f} {new / old:7.3f} {dev:9.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
