"""Time integration on the square-root factor.

The production path integrates i gamma_dot = G(gamma gamma^dag) gamma with
classical fixed-step RK4, re-evaluating the generator at every internal
stage; rho = gamma gamma^dag is then positive by construction.  The direct
rho-route integrator is kept only as a cross-validation oracle.  The
rho-dependent propagator S (i S_dot = G(rho(t)) S) can be accumulated
alongside gamma with the same stages, and convex mixtures of processes run
one autonomous branch per component.  Every integrator here and in
``measurement`` steps with the one RK4 tableau in ``_rk4``.  The step loop
only records states; a monitor reads the whole stack of recorded states in
one call and returns its channels as arrays along the time axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import StepSizeError, ValidationError
from .generators import GeneratorSpec, generator_matrix
from .linalg import (
    StateOperator,
    _square,
    _state,
    dagger,
    entropy_of_spectrum,
    hermitian_eigvals,
    max_abs,
    sqrt_factor,
    state_violation,
)

GRID_REL_TOL = 1e-9


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_final: float
    monitor_stride: int = 1
    max_step_drift: float = 1e-6

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0:
            raise ValidationError("dt and t_final must be positive")
        if self.dt > self.t_final:
            raise ValidationError("dt must not exceed t_final")
        if abs(self.n_steps * self.dt - self.t_final) > GRID_REL_TOL * self.t_final:
            raise ValidationError(
                f"t_final {self.t_final} is not a whole number of dt = {self.dt} steps"
            )
        if self.monitor_stride < 1:
            raise ValidationError("monitor_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class Trajectory:
    times: np.ndarray
    states: list  # ndarray snapshots, one per recorded time
    monitors: dict  # channel name -> ndarray whose first axis runs along times
    # The largest per-step norm drift since the previous record (0 at t = 0).
    norm_drift: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def validate(self, trace_tol: float = 1e-9, eig_tol: float = 1e-10) -> None:
        """Check the physical-state invariants on every recorded snapshot."""
        for t, s in zip(self.times, self.states):
            problem = state_violation(s, 1e-9, trace_tol, eig_tol)
            if problem:
                raise ValidationError(f"state at t={t} {problem}")


GeneratorFn = Callable[[np.ndarray], np.ndarray]
MonitorFn = Callable[[np.ndarray], dict]  # (N, d, d) states -> channel arrays


def _rk4(xs, rhs, dt: float) -> tuple:
    """One classical RK4 step of x_dot = rhs(x) for a tuple x of arrays."""
    k1 = rhs(xs)
    k2 = rhs(tuple([x + 0.5 * dt * k for x, k in zip(xs, k1)]))
    k3 = rhs(tuple([x + 0.5 * dt * k for x, k in zip(xs, k2)]))
    k4 = rhs(tuple([x + dt * k for x, k in zip(xs, k3)]))
    return tuple(
        [x + (dt / 6.0) * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(xs, k1, k2, k3, k4)]
    )


def _factor_rhs(g_of_rho: GeneratorFn):
    """i x_dot = G(gamma gamma^dag) x for (gamma, *carried), G taken at gamma."""

    def rhs(xs):
        gen = g_of_rho(xs[0] @ dagger(xs[0]))
        return [-1j * (gen @ x) for x in xs]

    return rhs


def _renormalize(gamma: np.ndarray, max_drift: float):
    """gamma projected back onto unit HS norm, and the drift its norm^2 had."""
    nrm = np.vdot(gamma, gamma).real
    drift = abs(nrm - 1.0)
    if drift > max_drift:
        raise StepSizeError(f"norm drift {drift:.3e} exceeds {max_drift:.1e}; reduce dt")
    return gamma / np.sqrt(nrm), drift


def step_state_operator(gamma, spec: GeneratorSpec, dt: float, max_step_drift: float = 1e-6):
    """One RK4 step of a unit-norm square-root factor of the spec's dimension."""
    g = StateOperator(matrix=_square(gamma, spec.dim)).matrix
    (g,) = _rk4((g,), _factor_rhs(partial(generator_matrix, spec)), dt)
    return StateOperator(matrix=_renormalize(g, max_step_drift)[0])


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1).real


def default_monitor(H: np.ndarray) -> MonitorFn:
    def monitor(states: np.ndarray) -> dict:
        eigs = hermitian_eigvals(states)
        return {
            "trace": _trace(states),
            "energy": _trace(H @ states),
            "purity": _trace(states @ states),
            "entropy": entropy_of_spectrum(eigs),
            "eigenvalues": eigs,
        }

    return monitor


def _no_monitor(states: np.ndarray) -> dict:
    return {}


def _integrate(rho0, g_of_rho: GeneratorFn, cfg: IntegratorConfig, monitor: MonitorFn, carried=()):
    """The step loop: factorize, step, check the drift, renormalize, record.

    Each carried matrix x steps with gamma under i x_dot = G(rho) x; returns
    the final (gamma, *carried) and the recorded trajectory, whose monitor
    channels come from one monitor call on the stacked states.
    """
    xs = (sqrt_factor(rho0).matrix, *carried)
    rhs = _factor_rhs(g_of_rho)
    times, states, drifts = [0.0], [xs[0] @ dagger(xs[0])], [0.0]
    worst = 0.0
    n = cfg.n_steps
    for step in range(1, n + 1):
        xs = _rk4(xs, rhs, cfg.dt)
        gamma, drift = _renormalize(xs[0], cfg.max_step_drift)
        xs = (gamma, *xs[1:])
        worst = max(worst, drift)
        if step % cfg.monitor_stride == 0 or step == n:
            times.append(step * cfg.dt)
            states.append(gamma @ dagger(gamma))
            drifts.append(worst)
            worst = 0.0
    traj = Trajectory(
        times=np.array(times),
        states=states,
        monitors=monitor(np.array(states)),
        norm_drift=np.array(drifts),
    )
    return xs, traj


def integrate_generator(
    rho0: np.ndarray,
    g_of_rho: GeneratorFn,
    cfg: IntegratorConfig,
    monitor: MonitorFn,
) -> Trajectory:
    """Shared gamma-route engine: factorize, step, renormalize, record."""
    return _integrate(rho0, g_of_rho, cfg, monitor)[1]


def evolve(rho0, spec: GeneratorSpec, cfg: IntegratorConfig) -> Trajectory:
    """Propagate a density matrix under one generator spec via the gamma route."""
    return integrate_generator(
        _state(rho0, spec.dim), partial(generator_matrix, spec), cfg, default_monitor(spec.H)
    )


def consistency_check_rho_route(rho0, spec: GeneratorSpec, cfg: IntegratorConfig) -> float:
    """Integrate the density-matrix equation directly with the same RK4 scheme
    and report the max entrywise deviation from the gamma route over the grid.
    """
    m = _state(rho0, spec.dim)
    g_of_rho = partial(generator_matrix, spec)
    gamma_route = integrate_generator(m, g_of_rho, replace(cfg, monitor_stride=1), _no_monitor)

    def rho_rhs(xs):
        g = g_of_rho(xs[0])
        return [-1j * (g @ xs[0] - xs[0] @ dagger(g))]

    rho_direct = m.copy()
    dev = 0.0
    for rho in gamma_route.states[1:]:
        (rho_direct,) = _rk4((rho_direct,), rho_rhs, cfg.dt)
        dev = max(dev, max_abs(rho - rho_direct))
    return dev


def accumulate_propagator(
    rho0, spec: GeneratorSpec, cfg: IntegratorConfig
) -> tuple[np.ndarray, Trajectory]:
    """Integrate the state-dependent propagator alongside gamma.

    S starts at the identity and satisfies i S_dot = G(rho(t)) S; the final
    state reconstructs as S rho(0) S^dag.  When the dissipative part never
    touches the support of rho, S comes out unitary.
    """
    m = _state(rho0, spec.dim)
    s0 = np.eye(m.shape[0], dtype=complex)
    (_, s), traj = _integrate(m, partial(generator_matrix, spec), cfg, default_monitor(spec.H), (s0,))
    return s, traj


@dataclass(frozen=True)
class MixtureSpec:
    """Convex superposition of autonomous processes of one dimension."""

    weights: Sequence[float]
    process_specs: Sequence[GeneratorSpec]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(w) != len(self.process_specs) or len(w) == 0:
            raise ValidationError("weights and process_specs lengths differ or empty")
        if np.any(w <= 0):
            raise ValidationError("all mixture weights must be > 0")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError(f"mixture weights sum to {w.sum()}, not 1")
        if len({spec.dim for spec in self.process_specs}) != 1:
            raise ValidationError("mixture process specs differ in dimension")
        object.__setattr__(self, "weights", w)


def evolve_convex_mixture(rho0, mix: MixtureSpec, cfg: IntegratorConfig) -> Trajectory:
    """Each process propagates rho(0) autonomously under its own nonlinear
    law; the output state is the weight-averaged sum of the branches."""
    m = _state(rho0, mix.process_specs[0].dim)
    branches = [
        integrate_generator(m, partial(generator_matrix, spec), cfg, _no_monitor)
        for spec in mix.process_specs
    ]
    h_bar = sum(w * s.H for w, s in zip(mix.weights, mix.process_specs))
    states = sum(w * np.array(b.states) for w, b in zip(mix.weights, branches))
    return Trajectory(
        times=branches[0].times,
        states=list(states),
        monitors=default_monitor(h_bar)(states),
        norm_drift=np.max([b.norm_drift for b in branches], axis=0),
    )
