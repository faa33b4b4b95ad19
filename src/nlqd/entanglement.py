"""Bipartite machinery for noninteracting, possibly entangled systems.

The separable product-propagator extension drives the joint state with
local generators evaluated at the instantaneous marginals,
G(rho_HK) = G_H(Tr_K rho) (x) I_K [+ I_H (x) G_K(Tr_H rho)].  The
integration path never forms that D x D matrix: the step loop's generator is
a ``_JointGenerator`` that applies each local generator to its own axis of
the reshaped factor.  Nor does a stage form the D x D joint state: a joint
generator that reads state is an ``_OfFactor``, taken at the stage's factor
y, and reads each marginal off y as a Gram product of y reshaped
(``linalg._factor_marginals``); the step loop forms rho = y y^dag once per
step, for the eigenvalue floor and the records.  Its H side may be a spec
stack, one spec per member of a stacked run (a correlation report's two
routes); ``BipartiteDynamics`` itself takes specs only.  Two sides of one
dimension that stack (``_stack_key``) take both marginals by one Gram
product and one generator_matrix call per stage, with the bits and the
errors of two calls.  ``polchinski_generator`` is the matrix form,
taken at the partial traces of rho, for inspection and as the test oracle.
Alongside it live the environment-stationarity check, the deliberately
nonphysical product-of-marginals extension (the canonical counterexample),
local equivalence classes, and a sampling audit of the complete-positivity
conditions that steps all of its samples as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NlqdError, ValidationError
from .generators import (
    GeneratorSpec,
    _fixed_generator,
    _stack_key,
    _stack_specs,
    eval_Gamma,
    generator_matrix,
    random_density_matrix,
)
from .linalg import (
    EIG_NEG_TOL,
    _eigvalsh,
    _factor_dims,
    _factor_marginals,
    _hermitian,
    _is_integer,
    _name_member,
    _partial_trace,
    _record,
    _square,
    _state,
    dagger,
    entropy_of_spectrum,
    max_abs,
    partial_trace,
    tensor_product,
)
from .propagation import (
    IntegratorConfig,
    Trajectory,
    _Fixed,
    _integrate,
    _OfFactor,
    _spec_generator,
    _trajectories,
    default_monitor,
)

LOCAL_EQUIVALENCE_TOL = 1e-9
CP_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on H (x) K with recorded factor dimensions."""

    d_H: int
    d_K: int
    matrix: np.ndarray

    def __post_init__(self):
        d_h, d_k = _factor_dims(self.dims)
        object.__setattr__(self, "matrix", _state(self.matrix, d_h * d_k))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.d_H, self.d_K)

    def marginal_H(self) -> np.ndarray:
        return partial_trace(self.matrix, self.dims, "K")

    def marginal_K(self) -> np.ndarray:
        return partial_trace(self.matrix, self.dims, "H")


@dataclass(frozen=True)
class BipartiteDynamics:
    """Local specs for the two factors; spec_K absent means a passive,
    noninteracting environment."""

    spec_H: GeneratorSpec
    spec_K: Optional[GeneratorSpec] = None

    def __post_init__(self):
        _record(self.spec_H, GeneratorSpec, "spec_H")
        if self.spec_K is not None:
            _record(self.spec_K, GeneratorSpec, "spec_K")


def _check_dims(dyn: BipartiteDynamics, dims: tuple[int, int]) -> None:
    """dyn must be a BipartiteDynamics whose local specs act on the factors:
    spec_H on d_H, spec_K on d_K."""
    _record(dyn, BipartiteDynamics, "dyn")
    d_h, d_k = dims
    if dyn.spec_H.dim != d_h:
        raise ValidationError(f"spec_H dimension {dyn.spec_H.dim} does not match d_H = {d_h}")
    if dyn.spec_K is not None and dyn.spec_K.dim != d_k:
        raise ValidationError(f"spec_K dimension {dyn.spec_K.dim} does not match d_K = {d_k}")


def polchinski_generator(dyn: BipartiteDynamics, rho_hk, dims=None) -> np.ndarray:
    """Joint generator built from local generators at the local marginals,
    as the D x D matrix G_H (x) I_K + I_H (x) G_K.

    The integrators apply the same operator through _JointGenerator and never
    form this matrix.  A BipartiteState's own dims take precedence.  rho_hk
    must be Hermitian, as eval_T's rho.
    """
    d_h, d_k = dims = _factor_dims(getattr(rho_hk, "dims", dims))
    m = _hermitian(rho_hk, d_h * d_k)
    _check_dims(dyn, dims)
    g = tensor_product(
        generator_matrix(dyn.spec_H, partial_trace(m, (d_h, d_k), "K")), np.eye(d_k)
    )
    if dyn.spec_K is not None:
        g = g + tensor_product(
            np.eye(d_h), generator_matrix(dyn.spec_K, partial_trace(m, (d_h, d_k), "H"))
        )
    return g


class _JointGenerator:
    """G_H (x) I_K + I_H (x) G_K as an action: ``g @ x`` applies G_H to x
    reshaped (..., d_H, d_K n) and G_K to x reshaped (..., d_H, d_K, n), so
    the D x D matrix is never formed.  g_k is None when K is passive; each
    may carry the leading axis of a stack, one generator per member."""

    __slots__ = ("g_h", "g_k", "d_h", "d_k")

    def __init__(self, g_h, g_k, dims: tuple[int, int]):
        self.g_h, self.g_k = g_h, g_k
        self.d_h, self.d_k = dims

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        lead, n = x.shape[:-2], x.shape[-1]
        out = (self.g_h @ x.reshape(lead + (self.d_h, self.d_k * n))).reshape(x.shape)
        if self.g_k is None:
            return out
        return out + (self.g_k[..., None, :, :] @ x.reshape(lead + (self.d_h, self.d_k, n))).reshape(x.shape)


def _joint_generator(spec_h, spec_k, y: np.ndarray, dims: tuple[int, int]):
    """The step loop's joint generator at the factor y of rho = y y^dag, one
    or a stack: the local generators at the marginals, read off y by one
    Gram product per side (_factor_marginals), or one for both when
    d_H = d_K, and one generator_matrix call per side.  spec_h is a spec or
    a spec stack, one spec per member; spec_k a spec or None.  The
    unchecked kernel; its callers check the dimensions once, at entry."""
    if spec_k is None:
        return _JointGenerator(generator_matrix(spec_h, _factor_marginals(y, dims, "K")), None, dims)
    if dims[0] == dims[1]:
        m = _factor_marginals(y, dims, "KH")
        rho_h, rho_k = m[..., 0, :, :], m[..., 1, :, :]
    else:
        rho_h, rho_k = _factor_marginals(y, dims, "K"), _factor_marginals(y, dims, "H")
    return _JointGenerator(generator_matrix(spec_h, rho_h), generator_matrix(spec_k, rho_k), dims)


def _paired_joint_generator(pair, y: np.ndarray, dims: tuple[int, int]):
    """_joint_generator for two sides of one dimension stacked into pair, H
    at index 0 of its axis -3 and K at 1: one generator_matrix call on the
    "KH" marginals, split into G_H and G_K.  Its errors name what per-side
    calls name: y's member k // 2 for kernel member k."""
    try:
        g = generator_matrix(pair, _factor_marginals(y, dims, "KH"))
    except NlqdError as exc:
        raise _name_member(exc, [None] * 2 if y.ndim == 2 else [f"member {k // 2}" for k in range(2 * len(y))])
    return _JointGenerator(g[..., 0, :, :], g[..., 1, :, :], dims)


def _joint_generator_fn(spec_h, spec_k, dims: tuple[int, int]):
    """The step loop's joint generator of spec_h (a spec or a spec stack)
    and spec_k (a spec, or None for a passive K).  When both sides read no
    state, a _Fixed of their H.  Else an _OfFactor, taken at each stage's
    factor; when the sides have one dimension and stack, both take one
    generator_matrix call per stage."""
    g_h = _fixed_generator(spec_h)
    g_k = None if spec_k is None else _fixed_generator(spec_k)
    if g_h is not None and (spec_k is None or g_k is not None):
        return _Fixed(_JointGenerator(g_h, g_k, dims))
    if spec_k is not None and dims[0] == dims[1] and _stack_key(spec_h) == _stack_key(spec_k):
        return _OfFactor(_paired_joint_generator, _stack_specs([spec_h, spec_k]), dims=dims)
    return _OfFactor(_joint_generator, spec_h, spec_k, dims=dims)


def bipartite_monitor(dims: tuple[int, int], H_joint: np.ndarray):
    """Joint monitor adding local entropies (values only) and mutual information."""
    base = default_monitor(H_joint)

    def monitor(states: np.ndarray, spectra: np.ndarray) -> dict:
        rec = base(states, spectra)
        rec["entropy_H"] = entropy_of_spectrum(_eigvalsh(_partial_trace(states, dims, "K")))
        rec["entropy_K"] = entropy_of_spectrum(_eigvalsh(_partial_trace(states, dims, "H")))
        rec["mutual_info"] = rec["entropy_H"] + rec["entropy_K"] - rec["entropy"]
        return rec

    return monitor


def joint_hamiltonian(dyn: BipartiteDynamics, dims: tuple[int, int]) -> np.ndarray:
    d_h, d_k = dims
    h = tensor_product(dyn.spec_H.H, np.eye(d_k))
    if dyn.spec_K is not None:
        h = h + tensor_product(np.eye(d_h), dyn.spec_K.H)
    return h


def evolve_bipartite(rho0: BipartiteState, dyn: BipartiteDynamics, cfg: IntegratorConfig) -> Trajectory:
    """Joint gamma-route integration with marginals recomputed at every
    stage, off the stage's square-root factor."""
    dims = _record(rho0, BipartiteState, "rho0").dims
    _check_dims(dyn, dims)
    _record(cfg, IntegratorConfig, "cfg")
    run = _integrate(_state(rho0.matrix), _joint_generator_fn(dyn.spec_H, dyn.spec_K, dims), cfg)
    return _trajectories(run, bipartite_monitor(dims, joint_hamiltonian(dyn, dims)))[0]


def check_environment_stationarity(dyn: BipartiteDynamics, rho_hk: BipartiteState) -> float:
    """Max-norm of Tr_H[(Gamma_H(rho_H) (x) I_K) rho_HK]; zero means the
    environment marginal cannot move."""
    _record(dyn, BipartiteDynamics, "dyn")
    gam = eval_Gamma(dyn.spec_H, _record(rho_hk, BipartiteState, "rho_hk").marginal_H())
    prod = _JointGenerator(gam, None, rho_hk.dims) @ rho_hk.matrix
    return max_abs(partial_trace(prod, rho_hk.dims, "H"))


def trivial_extension(g_h: Callable[[np.ndarray], np.ndarray], rho_hk: BipartiteState) -> BipartiteState:
    """Product-of-mapped-marginals extension: always yields a product state,
    destroying all correlations in one application."""
    out = tensor_product(g_h(_record(rho_hk, BipartiteState, "rho_hk").marginal_H()), rho_hk.marginal_K())
    return BipartiteState(d_H=rho_hk.d_H, d_K=rho_hk.d_K, matrix=out)


def check_local_equivalence(w: np.ndarray, eta: np.ndarray, chi: np.ndarray) -> bool:
    """Does w share its marginals with the product eta (x) chi?

    Requires Tr_K[w] = Tr[chi] eta and Tr_H[w] = Tr[eta] chi, each to
    LOCAL_EQUIVALENCE_TOL.
    """
    eta, chi = _square(eta, what="eta", one=True), _square(chi, what="chi", one=True)
    d_h, d_k = eta.shape[0], chi.shape[0]
    w = _square(w, d_h * d_k)
    ok_h = max_abs(partial_trace(w, (d_h, d_k), "K") - np.trace(chi) * eta) <= LOCAL_EQUIVALENCE_TOL
    ok_k = max_abs(partial_trace(w, (d_h, d_k), "H") - np.trace(eta) * chi) <= LOCAL_EQUIVALENCE_TOL
    return bool(ok_h and ok_k)


@dataclass(frozen=True)
class CpSampleResult:
    positive: bool
    min_eigenvalue: float
    local_residual: float  # |Tr_K rho(t) - standalone local evolution|
    remote_residual: float  # |Tr_H rho(t) - rho_K(0)|
    passed: bool


@dataclass(frozen=True)
class CpExtensionReport:
    samples: list
    passed: bool


def random_entangled_state(
    d_h: int, d_k: int, rng: np.random.Generator, mixture_terms: int = 1
) -> BipartiteState:
    """A Hilbert-Schmidt random state on H (x) K (random_density_matrix: the
    partial trace of a Gaussian pure state on a doubled space), optionally
    convex-mixed over several draws."""
    if not _is_integer(mixture_terms, 1):
        raise ValidationError(f"mixture_terms must be an integer >= 1, got {mixture_terms}")
    d_h, d_k = _factor_dims((d_h, d_k))
    m = sum(random_density_matrix(d_h * d_k, rng) for _ in range(mixture_terms)) / mixture_terms
    m = (m + dagger(m)) / 2
    return BipartiteState(d_H=d_h, d_K=d_k, matrix=m / np.trace(m).real)


def verify_cp_extension(dyn: BipartiteDynamics, rho_hk_samples, cfg: IntegratorConfig) -> CpExtensionReport:
    """Audit the complete-positivity conditions on concrete samples.

    For each joint state: evolve with a passive environment and check that
    (a) the output stays positive, (b) the H marginal matches the standalone
    local evolution, and (c) the K marginal never moves, both to
    CP_RESIDUAL_TOL.  The samples share their dims; all joint states step
    as one stack through the step loop, and all H marginals as another.
    """
    if _record(dyn, BipartiteDynamics, "dyn").spec_K is not None:
        raise ValidationError("verify_cp_extension assumes a passive environment")
    _record(cfg, IntegratorConfig, "cfg")
    samples = [_record(s, BipartiteState, "every sample") for s in rho_hk_samples]
    if not samples:
        raise ValidationError("verify_cp_extension needs at least one sample")
    dims = samples[0].dims
    if any(s.dims != dims for s in samples):
        raise ValidationError(f"samples differ in dims; the first has {dims}")
    _check_dims(dyn, dims)
    rho0s = np.array([s.matrix for s in samples])
    run = _integrate(rho0s, _joint_generator_fn(dyn.spec_H, dyn.spec_K, dims), cfg)
    # run.states: (N, B, D, D), run.spectra: (N, B, D); local: (N, B, d_H, d_H)
    local = _integrate(np.array([s.marginal_H() for s in samples]), _spec_generator(dyn.spec_H), cfg).states
    min_eigs = np.min(run.spectra[-1], axis=-1)
    loc = np.abs(partial_trace(run.states, dims, "K") - local).max(axis=(0, 2, 3))
    rem = np.abs(partial_trace(run.states, dims, "H") - [s.marginal_K() for s in samples]).max(axis=(0, 2, 3))
    results = []
    for min_eig, loc_res, rem_res in zip(min_eigs.tolist(), loc.tolist(), rem.tolist()):
        positive = min_eig >= -EIG_NEG_TOL
        results.append(
            CpSampleResult(
                positive=positive,
                min_eigenvalue=min_eig,
                local_residual=loc_res,
                remote_residual=rem_res,
                passed=positive and loc_res <= CP_RESIDUAL_TOL and rem_res <= CP_RESIDUAL_TOL,
            )
        )
    return CpExtensionReport(samples=results, passed=all(r.passed for r in results))
