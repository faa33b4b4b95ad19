"""Properties every output must have, checked with numpy alone.

Each check raises CheckFailed naming itself and the worst value it saw;
the benchmark counts the operation as failed and prints that line.
"""

from __future__ import annotations

import numpy as np

TRACE_TOL = 1e-9
EIG_TOL = 1e-10
ENERGY_TOL = 1e-9
REFERENCE_TOL = 1e-6
ROUTE_TOL = 1e-6
REMOTE_TOL = 1e-7
SPECTRUM_TOL = 1e-6


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def physical(states, trace_tol: float = TRACE_TOL, eig_tol: float = EIG_TOL) -> None:
    """Unit trace and no eigenvalue below -eig_tol, on every state."""
    s = np.asarray(states, dtype=complex)
    tr = float(np.max(np.abs(np.trace(s, axis1=1, axis2=2).real - 1.0)))
    if not tr <= trace_tol:
        raise CheckFailed("trace", f"max |tr - 1| = {tr:.3e} > {trace_tol:.0e}")
    lo = float(np.min(np.linalg.eigvalsh((s + s.conj().transpose(0, 2, 1)) / 2)))
    if not lo >= -eig_tol:
        raise CheckFailed("positivity", f"min eigenvalue {lo:.3e} < -{eig_tol:.0e}")


def energy(h, states, tol: float = ENERGY_TOL) -> None:
    """Tr[H rho] of every state equals that of the first."""
    series = np.einsum("ij,nji->n", np.asarray(h), np.asarray(states, dtype=complex)).real
    dev = float(np.max(np.abs(series - series[0])))
    if not dev <= tol:
        raise CheckFailed("energy", f"drifts by {dev:.3e} > {tol:.0e}")


def close(check: str, got, want, tol: float) -> None:
    """Entrywise max-norm distance within tol."""
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not dev <= tol:
        raise CheckFailed(check, f"max deviation {dev:.3e} > {tol:.0e}")


def spectrum_constant(states, tol: float = SPECTRUM_TOL) -> None:
    s = np.asarray(states, dtype=complex)
    eigs = np.linalg.eigvalsh((s + s.conj().transpose(0, 2, 1)) / 2)
    close("joint_spectrum", eigs, eigs[:1], tol)


def remote_frozen(states, dims: tuple[int, int], tol: float = REMOTE_TOL) -> None:
    """The K marginal of every state equals that of the first."""
    d_h, d_k = dims
    s = np.asarray(states, dtype=complex).reshape(-1, d_h, d_k, d_h, d_k)
    marg = np.einsum("nikil->nkl", s)
    close("remote_marginal", marg, marg[:1], tol)


def equal(check: str, got, want) -> None:
    if got != want:
        raise CheckFailed(check, f"got {got!r}, want {want!r}")


def true(check: str, value, detail: str = "") -> None:
    if value is not True:
        raise CheckFailed(check, f"got {value!r} {detail}".rstrip())
