"""Time integration on the square-root factor.

The production path integrates i gamma_dot = G(gamma gamma^dag) gamma with
classical fixed-step RK4, re-evaluating the generator at every internal
stage; rho = gamma gamma^dag is then positive by construction.  RK4 steps
x_dot = G x in complex time h = -i dt, so no stage multiplies by -i.  The
rho-dependent propagator S (i S_dot = G(rho(t)) S) can be accumulated
alongside gamma: it rides behind gamma as x[1] of one stack x, so each
stage applies G to both by one product.  The loop knows three kinds of
generator, told apart once per run by type.  A generator that reads no
state, a ``_Fixed`` (the vonNeumann T with no Gamma, G = H, and a joint
generator whose sides are all such), is not re-evaluated: for a linear
equation RK4 is exactly x -> R x, so the loop forms the RK4 matrix R once
per run, from the same tableau, and each step is one product.  An
``_OfFactor`` (a joint generator that reads its marginals) is taken at each
stage's factor gamma and reads what it needs off gamma, so no stage forms
the D x D state.  Any other callable is taken at rho = gamma gamma^dag, one
product per stage.  The direct rho-route integrator is kept only as a
cross-validation oracle.  Every integrator steps with the one RK4 tableau in
``_rk4``, which no other module calls.

The one step loop, ``_integrate``, steps one factor (d, d) or a stack
(B, d, d) of independent ones: ``evolve_many`` runs B initial states under
one generator, ``evolve`` is its one-member case, and a convex mixture runs
its autonomous branches as one stack per group of specs that stack
(``_stack_key``), an error naming the branch.  The loop only records
states; a monitor reads every recorded state of every member in one call
and returns its channels as arrays along the leading axis.

The eigenvalue floor holds at every step, and the step loop alone checks it:
each stepped state rho = gamma gamma^dag takes one values-only
decomposition, whatever kernel the generator runs and whether or not the
step is recorded.  That checked rho is the recorded state, its spectrum
the one the monitors and the CP audit read, so no recorded state is
decomposed twice; stage 1 of the next step takes its generator at that rho,
or, for an ``_OfFactor``, at the gamma that rho was formed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import NlqdError, StepSizeError, ValidationError
from .generators import GeneratorSpec, _fixed_generator, _stack_key, _stack_specs, generator_matrix
from .linalg import (
    EIG_NEG_TOL,
    ClippedEig,
    StateOperator,
    _eigvalsh,
    _floored,
    _is_integer,
    _member,
    _name_member,
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


def _rk4(x: np.ndarray, k1: np.ndarray, f, h) -> np.ndarray:
    """One classical RK4 step of x_dot = f(x) from the first slope k1 = f(x),
    which the caller takes.  h may be complex: the step loop steps
    i x_dot = G x as x_dot = G x in complex time h = -i dt, which is exact,
    since a product with -i only swaps and negates components."""
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class _OfFactor(partial):
    """A generator that reads the state through its square-root factor: the
    step loop calls it with gamma itself, never with rho = gamma gamma^dag,
    so it forms no D x D state per stage.  A partial, built and read as one."""

    __slots__ = ()


def _action(g_of_rho: GeneratorFn):
    """x -> G(gamma gamma^dag) @ x for a stack x whose x[0] is gamma: every
    matrix of x under the generator taken at gamma, by one product.  An
    _OfFactor takes gamma, any other generator rho."""
    if isinstance(g_of_rho, _OfFactor):
        return lambda x: g_of_rho(x[0]) @ x
    return lambda x: g_of_rho(x[0] @ dagger(x[0])) @ x


class _Fixed:
    """A generator that reads no state: G(rho) = gen at every rho, gen a
    matrix, a stack of them, or anything else that applies by ``gen @ x``.
    Not a callable: the step loop steps it by one RK4 matrix per run."""

    __slots__ = ("gen",)

    def __init__(self, gen):
        self.gen = gen


def _spec_generator(spec) -> GeneratorFn:
    """rho -> G(rho) for a spec or a spec stack: _Fixed when G reads no state."""
    gen = _fixed_generator(spec)
    return partial(generator_matrix, spec) if gen is None else _Fixed(gen)


def _step_matrix(g_of_rho: _Fixed, shape: tuple, h: complex) -> np.ndarray:
    """The RK4 matrix R of a generator G that reads no state, for states of
    the given shape, one (d, d) or a stack (B, d, d): one RK4 step of the
    linear x_dot = G x in complex time h is exactly x -> R x, so R is _rk4
    applied once to the identity broadcast to that shape.  A stack of G
    gives a stack of R, and G = 0 the identity exactly."""
    eye = np.broadcast_to(np.eye(shape[-1], dtype=complex), shape)
    f = g_of_rho.gen.__matmul__
    return _rk4(eye, f(eye), f, h)


def _renormalize(gamma: np.ndarray, max_drift: float):
    """gamma, one factor or a stack, projected back onto unit HS norm, and the
    drift each norm^2 had; a NaN drift fails the check too."""
    flat = gamma.reshape(gamma.shape[:-2] + (1, -1))
    nrm = (flat.conj() @ flat.swapaxes(-1, -2)).real[..., 0, 0]  # np.vdot per member, bit for bit
    drift = np.abs(nrm - 1.0)
    if not drift.max() <= max_drift:  # written so that NaN fails it too
        bad = ~(drift <= max_drift)
        raise StepSizeError(f"norm drift {drift[bad].flat[0]:.3e}{_member(bad)} exceeds {max_drift:.1e}; reduce dt")
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
    x = StateOperator(matrix=_square(gamma, spec.dim)).matrix[None]
    f = _action(partial(generator_matrix, spec))
    g = _renormalize(_rk4(x, f(x), f, -1j * dt)[0], max_step_drift)[0]
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


def _integrate(rho0, g_of_rho: GeneratorFn, cfg: IntegratorConfig, labels=None, carried=()):
    """The step loop: factorize, step, check the drift, renormalize, check
    the eigenvalue floor, record.

    rho0 is one state (d, d) or a stack (B, d, d) of them, each member an
    independent trajectory under its own slice of g_of_rho's generator.
    The loop steps one array x: gamma is x[0], and each carried matrix
    rides behind it along the leading axis, stepping under the same
    i x_dot = G(rho) x, so every stage applies G to all of x by one
    product.  Only x[0] is renormalized.  A _Fixed generator steps x by its
    RK4 matrix (_step_matrix), any other takes G at every stage, an
    _OfFactor at the stage's gamma, and every state, the t = 0 one as step
    0, is checked either way (module doc).  An
    error names member i as labels[i], if given.  Returns the final x, the
    record times (N,), the recorded states (N, ..., d, d), their spectra
    (N, ..., d) and the worst drift of each window (N, ...).
    """
    try:
        x = np.stack((ClippedEig(rho0).power(0.5), *carried))
        h = -1j * cfg.dt
        rho, w = _checked_state(x[0], 0)
        r = _step_matrix(g_of_rho, rho.shape, h) if isinstance(g_of_rho, _Fixed) else None
        f = _action(g_of_rho) if r is None else None
        of_factor = isinstance(g_of_rho, _OfFactor)
        zero = np.zeros(rho.shape[:-2])
        records, worst = [(0.0, rho, w, zero)], zero
        n = cfg.n_steps
        for step in range(1, n + 1):
            x = _rk4(x, g_of_rho(x[0] if of_factor else rho) @ x, f, h) if r is None else r @ x
            gamma, drift = _renormalize(x[0], cfg.max_step_drift)
            x[0] = gamma
            rho, w = _checked_state(gamma, step)
            worst = np.maximum(worst, drift)
            if step % cfg.monitor_stride == 0 or step == n:
                records.append((step * cfg.dt, rho, w, worst))
                worst = zero
    except NlqdError as exc:
        raise _name_member(exc, labels)
    return (x, *map(np.array, zip(*records)))


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
    _, _, gamma_route, _, _ = _integrate(m, g_of_rho, replace(cfg, monitor_stride=1))  # every step's state

    def f(rho):  # i rho_dot = G rho - rho G^dag
        g = g_of_rho(rho)
        return g @ rho - rho @ dagger(g)

    rho_direct = m.copy()
    dev = 0.0
    for rho in gamma_route[1:]:
        rho_direct = _rk4(rho_direct, f(rho_direct), f, -1j * cfg.dt)
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
    x, *records = _integrate(m, _spec_generator(spec), cfg, carried=(s0,))
    return x[1], _trajectories(*records, default_monitor(spec.H))[0]


@dataclass(frozen=True)
class MixtureSpec:
    """Convex superposition of autonomous processes of one dimension."""

    weights: Sequence[float]
    process_specs: Sequence[GeneratorSpec]

    def __post_init__(self):
        try:
            weights, specs = list(self.weights), list(self.process_specs)
        except TypeError as exc:  # None, a number
            raise ValidationError(f"weights and process_specs must be sequences: {exc}") from exc
        if len(weights) != len(specs) or not weights:
            raise ValidationError("weights and process_specs lengths differ or empty")
        for x in weights:
            _positive(x, "every mixture weight")
        if not all(isinstance(spec, GeneratorSpec) for spec in specs):
            raise ValidationError("every mixture process spec must be a GeneratorSpec")
        w = np.array(weights, dtype=float)
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValidationError(f"mixture weights sum to {w.sum()}, not 1")
        if len({spec.dim for spec in specs}) != 1:
            raise ValidationError("mixture process specs differ in dimension")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "process_specs", tuple(specs))


def evolve_convex_mixture(rho0, mix: MixtureSpec, cfg: IntegratorConfig) -> Trajectory:
    """Each process propagates rho(0) autonomously under its own nonlinear
    law; the output state is the weight-averaged sum of the branches.

    Branches whose specs stack (_stack_key) step as one stack with their H
    and A stacked, one batch per group; an error names the failing branch
    "branch i", its index in process_specs.
    """
    m = _state(rho0, mix.process_specs[0].dim)
    groups: dict = {}
    for i, spec in enumerate(mix.process_specs):
        groups.setdefault(_stack_key(spec), []).append(i)
    states, drifts = [None] * len(mix.process_specs), [None] * len(mix.process_specs)
    for members in groups.values():
        stack = _stack_specs([mix.process_specs[i] for i in members])
        rho0s, labels = np.array([m] * len(members)), [f"branch {i}" for i in members]
        _, times, batch_states, _, batch_drifts = _integrate(rho0s, _spec_generator(stack), cfg, labels)
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
