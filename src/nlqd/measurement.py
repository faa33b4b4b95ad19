"""Projective measurements and two-measurement correlations.

A measurement maps rho -> P rho P + Q rho Q.  When the Hamiltonian (and
coupling matrix, if any) leave the P and Q subspaces invariant, the
projected components evolve independently, each under its own projected
propagator.  Joint outcome probabilities for a measurement on H at t1
followed by one on K at t2 can be computed either from the explicit
block-resolved evolution or by propagating the unmeasured state with the
local generators switched off past their measurement times; the two
routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .entanglement import BipartiteDynamics, BipartiteState, polchinski_generator
from .errors import SubspaceInvarianceError, ValidationError
from .generators import GeneratorSpec, _eval_T, eval_T, generator_matrix
from .linalg import (
    ClippedEig,
    DensityMatrix,
    _square,
    _state,
    dagger,
    max_abs,
    partial_trace,
    tensor_product,
)
from .propagation import (
    IntegratorConfig,
    Trajectory,
    _no_monitor,
    _rk4,
    evolve,
    integrate_generator,
)

PROJECTOR_TOL = 1e-10
INVARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementSetup:
    """Binary projective measurement P vs its complement Q = I - P."""

    P: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.P, dtype=complex)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValidationError("projector must be a square matrix")
        p = (p + dagger(p)) / 2  # re-symmetrize user input
        if max_abs(p @ p - p) > PROJECTOR_TOL:
            raise ValidationError("P is not idempotent to 1e-10")
        object.__setattr__(self, "P", p)

    @property
    def Q(self) -> np.ndarray:
        return np.eye(self.P.shape[0]) - self.P

    @property
    def dim(self) -> int:
        return self.P.shape[0]


def projective_measure(rho, m: MeasurementSetup) -> tuple[DensityMatrix, float]:
    """Apply P rho P + Q rho Q to a state of the projector's dimension; returns
    the post-state and the probability of the positive outcome."""
    mat = _state(rho, m.dim)
    p, q = m.P, m.Q
    post = p @ mat @ p + q @ mat @ q
    prob = float(np.trace(p @ mat @ p).real)
    return DensityMatrix(matrix=post), prob


def check_subspace_invariance(H, A, m: MeasurementSetup) -> bool:
    """True iff H (and A, when given) are block diagonal with respect to P, Q."""
    p, q = m.P, m.Q
    ops = [_square(H, m.dim)]
    if A is not None:
        ops.append(_square(A, m.dim))
    return all(max_abs(p @ op @ q) <= INVARIANCE_TOL for op in ops)


def evolve_block_diagonal(
    rho_bd, spec: GeneratorSpec, m: MeasurementSetup, cfg: IntegratorConfig
) -> tuple[Trajectory, float]:
    """Evolve a block-diagonal state both whole and block by block.

    Each block keeps its own trace weight; its generator is evaluated on
    the unnormalized block and projected back into the block.  Returns the
    full trajectory and the max deviation of the block sum from it.
    """
    mat = _state(rho_bd, spec.dim)
    a = spec.gamma_family.A
    if not check_subspace_invariance(spec.H, a, m):
        raise SubspaceInvarianceError("H (or A) does not leave the P, Q subspaces invariant")
    if max_abs(m.P @ mat @ m.Q) > 1e-10:
        raise ValidationError("state is not block diagonal for the given projector")
    full = evolve(mat, spec, cfg)
    parts = []
    for proj in (m.P, m.Q):
        block = proj @ mat @ proj
        w = float(np.trace(block).real)
        if w > 1e-12:
            # The block's factor runs at unit norm; its generator sees the
            # unnormalized block w rho and is projected back into the block.
            g_of_rho = lambda rho, proj=proj, w=w: proj @ generator_matrix(spec, w * rho) @ proj
            parts.append(w * np.array(integrate_generator(block / w, g_of_rho, cfg, _no_monitor).states))
    residual = max_abs(sum(parts)[1:] - np.array(full.states[1:]))
    return full, residual


@dataclass(frozen=True)
class CorrelationScenario:
    """Two local measurements on an entangled pair: P_H at t1, P_K at t2."""

    rho0: BipartiteState
    dyn: BipartiteDynamics
    t0: float
    t1: float
    t2: float
    P_H: MeasurementSetup
    P_K: MeasurementSetup
    cfg: IntegratorConfig = field(
        default_factory=lambda: IntegratorConfig(dt=1e-3, t_final=1.0)
    )

    def __post_init__(self):
        if not (self.t0 <= self.t1 < self.t2):
            raise ValidationError(f"need t0 <= t1 < t2, got {self.t0}, {self.t1}, {self.t2}")
        if self.P_H.dim != self.rho0.d_H or self.P_K.dim != self.rho0.d_K:
            raise ValidationError("projector dimensions do not match the factors")
        if self.dyn.spec_H.gamma_family.family != "none":
            raise ValidationError("correlation scenarios require Gamma-free H dynamics")
        if self.dyn.spec_K is not None and self.dyn.spec_K.gamma_family.family != "none":
            raise ValidationError("correlation scenarios require Gamma-free K dynamics")


def _phase_cfg(cfg: IntegratorConfig, duration: float) -> IntegratorConfig:
    """cfg for one phase, dt rescaled so whole steps tile the duration exactly."""
    n = max(1, int(round(duration / cfg.dt)))
    return replace(cfg, dt=duration / n, t_final=duration, monitor_stride=n)


def _evolve_joint(sc: CorrelationScenario, rho: np.ndarray, duration: float, k_only: bool) -> np.ndarray:
    """Joint gamma-route evolution; with k_only the H generator is switched off."""
    if duration <= sc.cfg.dt * 1e-9:
        return rho
    dims = sc.rho0.dims

    def g_of_rho(r):
        if k_only:
            if sc.dyn.spec_K is None:
                return np.zeros_like(r)
            return tensor_product(
                np.eye(dims[0]),
                generator_matrix(sc.dyn.spec_K, partial_trace(r, dims, "H")),
            )
        return polchinski_generator(sc.dyn, r, dims)

    traj = integrate_generator(rho, g_of_rho, _phase_cfg(sc.cfg, duration), _no_monitor)
    return traj.final_state()


def _require_invariance(sc: CorrelationScenario) -> None:
    if not check_subspace_invariance(sc.dyn.spec_H.H, None, sc.P_H):
        raise SubspaceInvarianceError(
            "post-measurement H dynamics does not leave the P_H, Q_H subspaces invariant"
        )


def _first_phase(sc: CorrelationScenario) -> np.ndarray:
    """The unmeasured joint state at t1."""
    return _evolve_joint(sc, sc.rho0.matrix, sc.t1 - sc.t0, k_only=False)


def _full_route(sc: CorrelationScenario, rho1: np.ndarray) -> float:
    d_h, d_k = sc.rho0.dims
    p_h_full = tensor_product(sc.P_H.P, np.eye(d_k))
    q_h_full = tensor_product(sc.P_H.Q, np.eye(d_k))
    rho_p = p_h_full @ rho1 @ p_h_full
    rho_q = q_h_full @ rho1 @ q_h_full

    # Local propagators over (t1, t2): one per H block, one shared for K.
    m_p = partial_trace(rho_p, (d_h, d_k), "K")
    m_q = partial_trace(rho_q, (d_h, d_k), "K")
    n_k = partial_trace(rho_p + rho_q, (d_h, d_k), "H")
    spec_h, spec_k = sc.dyn.spec_H, sc.dyn.spec_K

    def rhs(xs):
        s_p, s_q, s_k = xs
        t_p = sc.P_H.P @ _eval_T(spec_h, ClippedEig(s_p @ m_p @ dagger(s_p))) @ sc.P_H.P
        t_q = sc.P_H.Q @ _eval_T(spec_h, ClippedEig(s_q @ m_q @ dagger(s_q))) @ sc.P_H.Q
        ds_k = np.zeros_like(s_k)
        if spec_k is not None:
            ds_k = -1j * (_eval_T(spec_k, ClippedEig(s_k @ n_k @ dagger(s_k))) @ s_k)
        return -1j * (t_p @ s_p), -1j * (t_q @ s_q), ds_k

    xs = (sc.P_H.P.copy(), sc.P_H.Q.copy(), np.eye(d_k, dtype=complex))
    phase = _phase_cfg(sc.cfg, sc.t2 - sc.t1)
    for _ in range(phase.n_steps):
        xs = _rk4(xs, rhs, phase.dt)
    s_p, _, s_k = xs
    prop = tensor_product(s_p, s_k)
    rho_p_t2 = prop @ rho_p @ dagger(prop)
    p_k_full = tensor_product(np.eye(d_h), sc.P_K.P)
    return float(np.trace(p_k_full @ rho_p_t2 @ p_k_full).real)


def _switch_off_route(sc: CorrelationScenario, rho1: np.ndarray) -> float:
    rho = _evolve_joint(sc, rho1, sc.t2 - sc.t1, k_only=True)
    joint_proj = tensor_product(sc.P_H.P, sc.P_K.P)
    return float(np.trace(joint_proj @ rho @ joint_proj).real)


def correlation_full_route(sc: CorrelationScenario) -> float:
    """Joint probability of (positive P_H at t1, positive P_K at t2) from the
    explicit block-resolved post-measurement evolution.

    The measured factor evolves per block with projected propagators; the
    remote factor keeps a single propagator driven by its own (continuous)
    marginal.
    """
    _require_invariance(sc)
    return _full_route(sc, _first_phase(sc))


def correlation_switch_off_route(sc: CorrelationScenario) -> float:
    """Same joint probability from the unmeasured state propagated with the
    piecewise generator: the H part runs only up to t1, the K part up to t2;
    the probability is the trace against P_H (x) P_K."""
    _require_invariance(sc)
    return _switch_off_route(sc, _first_phase(sc))


def check_remote_generator_unaffected(sc: CorrelationScenario) -> float:
    """Max-norm change of the K generator across the H measurement map.

    Structurally zero: Tr_H[P rho P + Q rho Q] = Tr_H[rho] since P + Q = I.
    """
    if sc.dyn.spec_K is None:
        return 0.0
    d_h, d_k = sc.rho0.dims
    rho1 = _first_phase(sc)
    p_h_full = tensor_product(sc.P_H.P, np.eye(d_k))
    q_h_full = tensor_product(sc.P_H.Q, np.eye(d_k))
    measured = p_h_full @ rho1 @ p_h_full + q_h_full @ rho1 @ q_h_full
    before = eval_T(sc.dyn.spec_K, partial_trace(rho1, (d_h, d_k), "H"))
    after = eval_T(sc.dyn.spec_K, partial_trace(measured, (d_h, d_k), "H"))
    return max_abs(after - before)


def correlation_report(sc: CorrelationScenario) -> dict:
    """All correlation outputs in one record; the t0 -> t1 phase runs once."""
    _require_invariance(sc)
    rho1 = _first_phase(sc)
    p_h_full = tensor_product(sc.P_H.P, np.eye(sc.rho0.d_K))
    p_first = float(np.trace(p_h_full @ rho1 @ p_h_full).real)
    p_full = _full_route(sc, rho1)
    p_switch = _switch_off_route(sc, rho1)
    return {
        "p_joint_full": p_full,
        "p_joint_switch": p_switch,
        "p_first": p_first,
        "p_conditional": p_full / p_first if p_first > 1e-12 else float("nan"),
    }
