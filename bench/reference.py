"""Closed-form references, computed with numpy alone and apart from nlqd.

Each function here answers a question the library also answers, by a route
that shares no code with it: the exact propagator of a Hermitian H from its
eigendecomposition, instead of RK4 on the square-root factor.
"""

from __future__ import annotations

import numpy as np

# Joint probability of (0 on H, 1 on K) for the singlet in the computational
# basis with trivial dynamics; the conditional probability is 1.
SINGLET_P_JOINT = 0.5


def unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def unitary_path(h: np.ndarray, rho0: np.ndarray, times) -> np.ndarray:
    """U(t) rho0 U(t)^dag at every time, shape (len(times), d, d).

    Under the linear (vonNeumann) law every state follows this path; under
    every supported family a pure state does.
    """
    w, v = np.linalg.eigh(h)
    r = v.conj().T @ rho0 @ v
    phase = np.exp(-1j * np.outer(np.asarray(times, dtype=float), w))
    rt = phase[:, :, None] * r[None, :, :] * phase.conj()[:, None, :]
    return v[None] @ rt @ v.conj().T[None]


def mixture_path(weights, hs, rho0: np.ndarray, times) -> np.ndarray:
    """Weighted sum of unitary branches: the closed form of a convex mixture
    of vonNeumann processes."""
    return sum(w * unitary_path(h, rho0, times) for w, h in zip(weights, hs))


def joint_probabilities(rho0, h_h, h_k, p_h, p_k, t0, t1, t2) -> tuple[float, float]:
    """(p_first, p_joint) for linear local dynamics H_H (x) I + I (x) H_K.

    p_first is the probability of the positive P_H outcome at t1; p_joint
    that of the positive P_H outcome at t1 followed by the positive P_K
    outcome at t2.
    """
    d_h, d_k = len(h_h), len(h_k)
    h = np.kron(h_h, np.eye(d_k)) + np.kron(np.eye(d_h), h_k)
    u1, u2 = unitary(h, t1 - t0), unitary(h, t2 - t1)
    ph = np.kron(p_h, np.eye(d_k))
    pk = np.kron(np.eye(d_h), p_k)
    rho1 = u1 @ rho0 @ u1.conj().T
    branch = ph @ rho1 @ ph
    rho2 = u2 @ branch @ u2.conj().T
    return float(np.trace(branch).real), float(np.trace(pk @ rho2 @ pk).real)
