"""Projective measurements and two-measurement correlations.

A measurement maps rho -> P rho P + Q rho Q.  When the Hamiltonian (and
coupling matrix, if any) leave the P and Q subspaces invariant, the
projected components evolve independently, each under its own projected
generator.  Joint outcome probabilities for a measurement on H at t1
followed by one on K at t2 come by two routes: the block-resolved
evolution of the measured state, or the unmeasured state propagated with
the H generator switched off past t1; the two routes agree.  From t1 to t2
they step as one two-member stack through the one step loop, ``_integrate``,
which checks the norm drift and the eigenvalue floor at every step; each
public route function steps only its own member, by the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .entanglement import BipartiteDynamics, BipartiteState, _check_dims, _joint_generator_fn
from .errors import SubspaceInvarianceError, ValidationError
from .generators import GeneratorSpec, _fixed_generator, _stack_specs, eval_T, generator_matrix
from .linalg import (
    DensityMatrix,
    _finite,
    _hermitian,
    _record,
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
    _Fixed,
    _integrate,
    evolve,
)

PROJECTOR_TOL = 1e-10
INVARIANCE_TOL = 1e-10
ROUTES = ("full route", "switch-off route")  # as an error names _route_members' routes


@dataclass(frozen=True)
class MeasurementSetup:
    """Binary projective measurement P vs its complement Q = I - P, both
    built once and read-only."""

    P: np.ndarray
    Q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = _hermitian(self.P, what="P", one=True)
        p = (p + dagger(p)) / 2  # exactly Hermitian: _hermitian lets roundoff through
        if max_abs(p @ p - p) > PROJECTOR_TOL:
            raise ValidationError(f"P is not idempotent to {PROJECTOR_TOL:g}")
        q = np.eye(p.shape[0]) - p
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "Q", q)

    @property
    def dim(self) -> int:
        return self.P.shape[0]


def projective_measure(rho, m: MeasurementSetup) -> tuple[DensityMatrix, float]:
    """Apply P rho P + Q rho Q to a state of the projector's dimension; returns
    the post-state and the probability of the positive outcome."""
    mat = _state(rho, _record(m, MeasurementSetup, "m").dim)
    p, q = m.P, m.Q
    post = p @ mat @ p + q @ mat @ q
    prob = float(np.trace(p @ mat @ p).real)
    return DensityMatrix(matrix=post), prob


def check_subspace_invariance(H, A, m: MeasurementSetup) -> bool:
    """True iff H (and A, when given) are block diagonal with respect to P, Q."""
    p, q = _record(m, MeasurementSetup, "m").P, m.Q
    ops = [_square(H, m.dim)]
    if A is not None:
        ops.append(_square(A, m.dim))
    return all(max_abs(p @ op @ q) <= INVARIANCE_TOL for op in ops)


def evolve_block_diagonal(
    rho_bd, spec: GeneratorSpec, m: MeasurementSetup, cfg: IntegratorConfig
) -> tuple[Trajectory, float]:
    """Evolve a block-diagonal state both whole and block by block.

    The blocks that carry weight step as one stack, each at unit trace; a
    block's generator sees the unnormalized block and is projected back into
    it.  Returns the full trajectory and the max deviation of the block sum.
    """
    mat = _state(rho_bd, _record(spec, GeneratorSpec, "spec").dim)
    a = spec.gamma_family.A
    if not check_subspace_invariance(spec.H, a, m):
        raise SubspaceInvarianceError("H (or A) does not leave the P, Q subspaces invariant")
    if max_abs(m.P @ mat @ m.Q) > INVARIANCE_TOL:
        raise ValidationError("state is not block diagonal for the given projector")
    full = evolve(mat, spec, cfg)
    projs = np.array([m.P, m.Q])
    w = np.trace(projs @ mat @ projs, axis1=1, axis2=2).real
    projs, w = projs[w > 1e-12], w[w > 1e-12, None, None]
    h = _fixed_generator(spec)
    g_of_rho = _Fixed(projs @ h @ projs) if h is not None else (
        lambda rho: projs @ generator_matrix(spec, w * rho) @ projs
    )
    states = _integrate(projs @ mat @ projs / w, g_of_rho, cfg).states
    residual = max_abs((w * states).sum(axis=1)[1:] - np.array(full.states[1:]))
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
        for name, kind in (("rho0", BipartiteState), ("dyn", BipartiteDynamics), ("P_H", MeasurementSetup),
                           ("P_K", MeasurementSetup), ("cfg", IntegratorConfig)):
            _record(getattr(self, name), kind, name)
        for name in ("t0", "t1", "t2"):
            _finite(getattr(self, name), name)
        if not (self.t0 <= self.t1 < self.t2):
            raise ValidationError(f"need finite t0 <= t1 < t2, got {self.t0}, {self.t1}, {self.t2}")
        if self.P_H.dim != self.rho0.d_H or self.P_K.dim != self.rho0.d_K:
            raise ValidationError("projector dimensions do not match the factors")
        _check_dims(self.dyn, self.rho0.dims)
        for side, spec in (("H", self.dyn.spec_H), ("K", self.dyn.spec_K)):
            if spec is not None and spec.gamma_family.family != "none":
                raise ValidationError(f"correlation scenarios require Gamma-free {side} dynamics")


def _phase_cfg(cfg: IntegratorConfig, duration: float) -> IntegratorConfig:
    """cfg for one phase, dt rescaled so whole steps tile the duration exactly."""
    n = max(1, int(round(duration / cfg.dt)))
    return replace(cfg, dt=duration / n, t_final=duration, monitor_stride=n)


def _evolve_joint(sc: CorrelationScenario, members: list, duration: float, labels=None) -> np.ndarray:
    """Joint gamma-route evolution of (state, H-side spec) members over
    duration, under the scenario's K dynamics, as one stack through the step
    loop, an error naming member i as labels[i]; returns the final states."""
    rhos, specs = zip(*members)
    if duration <= sc.cfg.dt * 1e-9:
        return np.array(rhos)
    g_of_rho = _joint_generator_fn(_stack_specs(specs), sc.dyn.spec_K, sc.rho0.dims)
    return _integrate(np.array(rhos), g_of_rho, _phase_cfg(sc.cfg, duration), labels).states[-1]


def _require_invariance(sc: CorrelationScenario) -> None:
    if not check_subspace_invariance(_record(sc, CorrelationScenario, "sc").dyn.spec_H.H, None, sc.P_H):
        raise SubspaceInvarianceError(
            "post-measurement H dynamics does not leave the P_H, Q_H subspaces invariant"
        )


def _first_phase(sc: CorrelationScenario) -> np.ndarray:
    """The unmeasured joint state at t1; an error names no member."""
    return _evolve_joint(sc, [(sc.rho0.matrix, sc.dyn.spec_H)], sc.t1 - sc.t0, [None])[0]


def _measure_h(sc: CorrelationScenario, rho1: np.ndarray) -> np.ndarray:
    """The joint state after the H measurement: P rho P + Q rho Q on H."""
    p, q = (tensor_product(x, np.eye(sc.rho0.d_K)) for x in (sc.P_H.P, sc.P_H.Q))
    return p @ rho1 @ p + q @ rho1 @ q


def _route_members(sc: CorrelationScenario, rho1: np.ndarray) -> list:
    """The t1 -> t2 routes as (state, H-side spec) members.  0 is the
    block-resolved route, the measured state stepped whole: the dynamics are
    Gamma-free and H leaves P and Q invariant, so on the block-diagonal H
    marginal m_P + m_Q, T = H rho^q + rho^q H is P T(m_P) P + Q T(m_Q) Q and
    each H block steps under its own projected generator.  H stays on, so
    no-signalling is not assumed.  1 is the switch-off route: the unmeasured
    state under spec_H with H = 0, whose G_H is exactly 0."""
    spec_h = sc.dyn.spec_H
    return [(_measure_h(sc, rho1), spec_h), (rho1, replace(spec_h, H=np.zeros_like(spec_h.H)))]


def _p_joint(sc: CorrelationScenario, rho1: np.ndarray, routes: tuple) -> list:
    """Tr[(P_H (x) P_K) rho(t2)] by each of the routes (indices into
    _route_members), their members stepped from t1 as one stack."""
    members = _route_members(sc, rho1)
    rho = _evolve_joint(sc, [members[i] for i in routes], sc.t2 - sc.t1, [ROUTES[i] for i in routes])
    joint_proj = tensor_product(sc.P_H.P, sc.P_K.P)
    return np.trace(joint_proj @ rho @ joint_proj, axis1=-2, axis2=-1).real.tolist()


def correlation_full_route(sc: CorrelationScenario) -> float:
    """Joint probability of (positive P_H at t1, positive P_K at t2) from the
    block-resolved evolution: the measured state P rho P + Q rho Q steps
    whole from t1 to t2, both local generators on, each H block under its
    own projected generator and K under its own marginal."""
    _require_invariance(sc)
    return _p_joint(sc, _first_phase(sc), (0,))[0]


def correlation_switch_off_route(sc: CorrelationScenario) -> float:
    """Same joint probability from the unmeasured state propagated with the
    piecewise generator: the H part runs only up to t1, the K part up to t2;
    the probability is the trace against P_H (x) P_K."""
    _require_invariance(sc)
    return _p_joint(sc, _first_phase(sc), (1,))[0]


def _remote_generator_change(sc: CorrelationScenario, rho1: np.ndarray) -> float:
    if sc.dyn.spec_K is None:
        return 0.0
    before = eval_T(sc.dyn.spec_K, partial_trace(rho1, sc.rho0.dims, "H"))
    after = eval_T(sc.dyn.spec_K, partial_trace(_measure_h(sc, rho1), sc.rho0.dims, "H"))
    return max_abs(after - before)


def check_remote_generator_unaffected(sc: CorrelationScenario) -> float:
    """Max-norm change of the K generator across the H measurement map.

    Structurally zero: Tr_H[P rho P + Q rho Q] = Tr_H[rho] since P + Q = I.
    """
    return _remote_generator_change(sc, _first_phase(_record(sc, CorrelationScenario, "sc")))


def correlation_report(sc: CorrelationScenario) -> dict:
    """All correlation outputs in one record; the t0 -> t1 phase runs once,
    and the two t1 -> t2 routes step as one two-member stack."""
    _require_invariance(sc)
    rho1 = _first_phase(sc)
    p_h_full = tensor_product(sc.P_H.P, np.eye(sc.rho0.d_K))
    p_first = float(np.trace(p_h_full @ rho1 @ p_h_full).real)
    p_full, p_switch = _p_joint(sc, rho1, (0, 1))
    return {
        "p_joint_full": p_full,
        "p_joint_switch": p_switch,
        "p_first": p_first,
        "p_conditional": p_full / p_first if p_first > 1e-12 else float("nan"),
        "remote_generator_change": _remote_generator_change(sc, rho1),
    }
