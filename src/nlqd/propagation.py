"""Time integration on the square-root factor.

The production path integrates i gamma_dot = G(gamma gamma^dag) gamma with
classical fixed-step RK4, re-evaluating the generator at every internal
stage; rho = gamma gamma^dag is then positive by construction.  A generator
that reads no state (the vonNeumann T with no Gamma, G = H, and a joint
generator whose active sides are all such) is not re-evaluated: for a linear
equation RK4 is exactly x -> R x, so the loop forms the RK4 matrix R once
per run, from the same tableau, and each step is one product per matrix it
carries.  The direct
rho-route integrator is kept only as a cross-validation oracle.  The
rho-dependent propagator S (i S_dot = G(rho(t)) S) can be accumulated
alongside gamma with the same stages, and convex mixtures of processes run
one autonomous branch per component.  Every integrator steps with the one
RK4 tableau in ``_rk4``, which no other module calls.

The one step loop, ``_integrate``, steps one factor (d, d) or a stack
(B, d, d) of independent ones: ``evolve_many`` runs B initial states under
one generator, ``evolve`` is its one-member case, and a mixture runs its
branches as one stack per group of shared family parameters.  The loop only
records states; a monitor reads every recorded state of every member in one
call and returns its channels as arrays along the leading axis.

The eigenvalue floor holds at every step, and the step loop alone checks it:
each stepped state rho = gamma gamma^dag takes one values-only
decomposition, whatever kernel the generator runs and whether or not the
step is recorded.  That checked rho is the recorded state, its spectrum
the one the monitors and the CP audit read, so no recorded state is
decomposed twice; stage 1 of the next step takes its generator at that rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import StepSizeError, ValidationError
from .generators import GeneratorSpec, _family_key, _fixed_generator, _stack_specs, generator_matrix
from .linalg import (
    EIG_NEG_TOL,
    ClippedEig,
    StateOperator,
    _eigvalsh,
    _floored,
    _is_integer,
    _member,
    _positive,
    _square,
    _state,
    _trace,
    dagger,
    entropy_of_spectrum,
    max_abs,
    state_violations,
)

GRID_REL_TOL = 1e-9
# Hermiticity and trace a recorded state is held to, here and by io.verify_csv.
RECORD_HERM_TOL = 1e-9
RECORD_TRACE_TOL = 1e-9


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_final: float
    monitor_stride: int = 1
    max_step_drift: float = 1e-6

    def __post_init__(self):
        for name in ("dt", "t_final", "max_step_drift"):
            _positive(getattr(self, name), name)
        if self.dt > self.t_final:
            raise ValidationError("dt must not exceed t_final")
        if abs(self.n_steps * self.dt - self.t_final) > GRID_REL_TOL * self.t_final:
            raise ValidationError(
                f"t_final {self.t_final} is not a whole number of dt = {self.dt} steps"
            )
        if not _is_integer(self.monitor_stride, 1):
            raise ValidationError(f"monitor_stride must be a finite integer >= 1, got {self.monitor_stride}")

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

    def validate(self) -> None:
        """Check the physical-state invariants on every recorded snapshot."""
        problems = state_violations(np.array(self.states), RECORD_HERM_TOL, RECORD_TRACE_TOL, EIG_NEG_TOL)
        for t, problem in zip(self.times, problems):
            if problem:
                raise ValidationError(f"state at t={t} {problem}")


GeneratorFn = Callable[[np.ndarray], np.ndarray]
MonitorFn = Callable[[np.ndarray, np.ndarray], dict]  # (N, d, d) states, (N, d) spectra -> channels


def _rk4(xs, k1, rhs, dt: float) -> tuple:
    """One classical RK4 step of x_dot = rhs(x) for a tuple x of arrays,
    from the first slope k1 = rhs(xs), which the caller takes."""
    k2 = rhs(tuple([x + 0.5 * dt * k for x, k in zip(xs, k1)]))
    k3 = rhs(tuple([x + 0.5 * dt * k for x, k in zip(xs, k2)]))
    k4 = rhs(tuple([x + dt * k for x, k in zip(xs, k3)]))
    return tuple(
        [x + (dt / 6.0) * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(xs, k1, k2, k3, k4)]
    )


def _slopes(g_of_rho: GeneratorFn, rho: np.ndarray, xs) -> list:
    """x_dot = -i G(rho) x for each x of xs."""
    gen = g_of_rho(rho)
    return [-1j * (gen @ x) for x in xs]


def _factor_rhs(g_of_rho: GeneratorFn):
    """i x_dot = G(gamma gamma^dag) x for (gamma, *carried), G taken at gamma."""
    return lambda xs: _slopes(g_of_rho, xs[0] @ dagger(xs[0]), xs)


class _Fixed:
    """A generator that reads no state: G(rho) = gen at every rho, gen a
    matrix, a stack of them, or anything else that applies by ``gen @ x``.
    The step loop steps it by one RK4 matrix, formed once per run."""

    __slots__ = ("gen",)

    def __init__(self, gen):
        self.gen = gen

    def __call__(self, rho: np.ndarray):
        return self.gen


def _spec_generator(spec) -> GeneratorFn:
    """rho -> G(rho) for a spec or a spec stack: _Fixed when G reads no state."""
    gen = _fixed_generator(spec)
    return partial(generator_matrix, spec) if gen is None else _Fixed(gen)


def _step_matrix(g_of_rho: _Fixed, d: int, dt: float) -> np.ndarray:
    """The RK4 matrix R of a generator G that reads no state: one RK4 step of
    the linear i x_dot = G x is exactly x -> R x, so R is _rk4 applied once
    to the d x d identity.  A stack of G gives a stack of R, and G = 0 the
    identity exactly."""
    eye = np.eye(d, dtype=complex)
    rhs = _factor_rhs(g_of_rho)
    return _rk4((eye,), rhs((eye,)), rhs, dt)[0]


def _renormalize(gamma: np.ndarray, max_drift: float):
    """gamma, one factor or a stack, projected back onto unit HS norm, and the
    drift each norm^2 had; a NaN drift fails the check too."""
    flat = gamma.reshape(gamma.shape[:-2] + (1, -1))
    nrm = (flat.conj() @ flat.swapaxes(-1, -2)).real[..., 0, 0]  # np.vdot per member, bit for bit
    drift = np.abs(nrm - 1.0)
    bad = ~(drift <= max_drift)
    if bad.any():
        first = drift[bad].flat[0]
        raise StepSizeError(f"norm drift {first:.3e}{_member(bad)} exceeds {max_drift:.1e}; reduce dt")
    return gamma / np.sqrt(nrm)[..., None, None], drift


def _checked_state(gamma: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """The stepped state gamma gamma^dag, one factor or a stack, and its raw
    spectrum, once its eigenvalue floor holds: one values-only decomposition."""
    rho = gamma @ dagger(gamma)
    w = _eigvalsh(rho)
    if not w.min() >= -EIG_NEG_TOL:  # as in _floored, which names the step and member
        _floored(w, f"state at step {step}")
    return rho, w


def step_state_operator(gamma, spec: GeneratorSpec, dt: float, max_step_drift: float = 1e-6):
    """One RK4 step of a unit-norm square-root factor of the spec's dimension."""
    _positive(dt, "dt")
    _positive(max_step_drift, "max_step_drift")
    g = StateOperator(matrix=_square(gamma, spec.dim)).matrix
    rhs = _factor_rhs(partial(generator_matrix, spec))
    (g,) = _rk4((g,), rhs((g,)), rhs, dt)
    g = _renormalize(g, max_step_drift)[0]
    _checked_state(g, 1)
    return StateOperator(matrix=g)


def default_monitor(H: np.ndarray) -> MonitorFn:
    def monitor(states: np.ndarray, spectra: np.ndarray) -> dict:
        return {
            "trace": _trace(states),
            "energy": _trace(H @ states),
            "purity": _trace(states @ states),
            "entropy": entropy_of_spectrum(spectra),
            "eigenvalues": spectra,
        }

    return monitor


def _no_monitor(states: np.ndarray, spectra: np.ndarray) -> dict:
    return {}


def _integrate(rho0, g_of_rho: GeneratorFn, cfg: IntegratorConfig, carried=()):
    """The step loop: factorize, step, check the drift, renormalize, check
    the eigenvalue floor, record.

    rho0 is one state (d, d) or a stack (B, d, d) of them, each member an
    independent trajectory under its own slice of g_of_rho's generator.
    Each carried matrix x steps with gamma under i x_dot = G(rho) x.  A
    _Fixed generator, which reads no state, steps every x by x <- R x with
    the RK4 matrix R of _step_matrix; any other takes G at every stage.
    Every state, the t = 0 one as step 0, is checked either way; the
    checked rho is recorded with its spectrum and feeds stage 1 of the next
    step.  Returns the final (gamma, *carried), the record times (N,), the
    recorded states (N, ..., d, d), their spectra (N, ..., d) and the worst
    drift of each window (N, ...).
    """
    xs = (ClippedEig(rho0).power(0.5), *carried)
    rhs = _factor_rhs(g_of_rho)
    rho, w = _checked_state(xs[0], 0)
    r = _step_matrix(g_of_rho, rho.shape[-1], cfg.dt) if isinstance(g_of_rho, _Fixed) else None
    times, states, spectra, drifts = [0.0], [rho], [w], [np.zeros(rho.shape[:-2])]
    worst = drifts[0]
    n = cfg.n_steps
    for step in range(1, n + 1):
        if r is None:
            xs = _rk4(xs, _slopes(g_of_rho, rho, xs), rhs, cfg.dt)
        else:
            xs = tuple([r @ x for x in xs])
        gamma, drift = _renormalize(xs[0], cfg.max_step_drift)
        rho, w = _checked_state(gamma, step)
        xs = (gamma, *xs[1:])
        worst = np.maximum(worst, drift)
        if step % cfg.monitor_stride == 0 or step == n:
            times.append(step * cfg.dt)
            states.append(rho)
            spectra.append(w)
            drifts.append(worst)
            worst = drifts[0]
    return xs, np.array(times), np.array(states), np.array(spectra), np.array(drifts)


def _trajectories(times, states, spectra, drifts, monitor: MonitorFn) -> list:
    """One Trajectory per member of _integrate's records, their channels cut
    from one monitor call on every member's states and spectra."""
    n, d = len(times), states.shape[-1]
    members = np.moveaxis(states, 0, -3).reshape(-1, n, d, d)  # (B, N, d, d)
    b = len(members)
    channels = monitor(members.reshape(-1, d, d), np.moveaxis(spectra, 0, -2).reshape(-1, d))
    channels = {k: v.reshape((b, n) + v.shape[1:]) for k, v in channels.items()}
    drifts = drifts.reshape(n, b)
    return [
        Trajectory(
            times=times,
            states=list(members[i]),
            monitors={k: v[i] for k, v in channels.items()},
            norm_drift=drifts[:, i],
        )
        for i in range(b)
    ]


def integrate_generator(
    rho0: np.ndarray,
    g_of_rho: GeneratorFn,
    cfg: IntegratorConfig,
    monitor: MonitorFn,
) -> Trajectory:
    """Shared gamma-route engine: factorize, step, renormalize, record."""
    _, *records = _integrate(_state(rho0), g_of_rho, cfg)
    return _trajectories(*records, monitor)[0]


def evolve_many(rho0s, spec: GeneratorSpec, cfg: IntegratorConfig) -> list:
    """Propagate each density matrix under one generator spec via the gamma
    route, all of them as one stack through the step loop; returns one
    Trajectory per state, in order.  An error in a stack of two or more
    names the first failing member."""
    if len(rho0s) == 0:
        raise ValidationError("evolve_many needs at least one state")
    states = [_state(r, spec.dim) for r in rho0s]
    # One state steps as one (d, d) matrix, whose per-member scalars stay
    # numpy scalars: cheaper than arrays of one member, and the same bits.
    rho0 = states[0] if len(states) == 1 else np.array(states)
    _, *records = _integrate(rho0, _spec_generator(spec), cfg)
    return _trajectories(*records, default_monitor(spec.H))


def evolve(rho0, spec: GeneratorSpec, cfg: IntegratorConfig) -> Trajectory:
    """Propagate a density matrix under one generator spec via the gamma route."""
    return evolve_many([rho0], spec, cfg)[0]


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
        (rho_direct,) = _rk4((rho_direct,), rho_rhs((rho_direct,)), rho_rhs, cfg.dt)
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
    (_, s), *records = _integrate(m, _spec_generator(spec), cfg, (s0,))
    return s, _trajectories(*records, default_monitor(spec.H))[0]


@dataclass(frozen=True)
class MixtureSpec:
    """Convex superposition of autonomous processes of one dimension."""

    weights: Sequence[float]
    process_specs: Sequence[GeneratorSpec]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(w) != len(self.process_specs) or len(w) == 0:
            raise ValidationError("weights and process_specs lengths differ or empty")
        if not np.all((0 < w) & (w < np.inf)):
            raise ValidationError(f"all mixture weights must be finite and > 0, got {w.tolist()}")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValidationError(f"mixture weights sum to {w.sum()}, not 1")
        if len({spec.dim for spec in self.process_specs}) != 1:
            raise ValidationError("mixture process specs differ in dimension")
        object.__setattr__(self, "weights", w)


def evolve_convex_mixture(rho0, mix: MixtureSpec, cfg: IntegratorConfig) -> Trajectory:
    """Each process propagates rho(0) autonomously under its own nonlinear
    law; the output state is the weight-averaged sum of the branches.

    Branches that share their family parameters (T family and q, Gamma
    family, sigma and r) step as one stack with their H and A stacked; each
    group of such branches is one batch.
    """
    m = _state(rho0, mix.process_specs[0].dim)
    groups: dict = {}
    for i, spec in enumerate(mix.process_specs):
        groups.setdefault(_family_key(spec), []).append(i)
    states, drifts = [None] * len(mix.process_specs), [None] * len(mix.process_specs)
    for members in groups.values():
        stack = _stack_specs([mix.process_specs[i] for i in members])
        _, times, batch_states, _, batch_drifts = _integrate(
            np.array([m] * len(members)), _spec_generator(stack), cfg
        )
        for j, i in enumerate(members):
            states[i], drifts[i] = batch_states[:, j], batch_drifts[:, j]
    h_bar = sum(w * s.H for w, s in zip(mix.weights, mix.process_specs))
    mixed = sum(w * s for w, s in zip(mix.weights, states))  # in the mixture's order
    return Trajectory(
        times=times,
        states=list(mixed),
        monitors=default_monitor(h_bar)(mixed, _eigvalsh(mixed)),
        norm_drift=np.max(drifts, axis=0),
    )
