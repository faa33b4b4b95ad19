"""Bipartite machinery for noninteracting, possibly entangled systems.

The separable product-propagator extension drives the joint state with
local generators evaluated at the instantaneous marginals,
G(rho_HK) = G_H(Tr_K rho) (x) I_K [+ I_H (x) G_K(Tr_H rho)].  Alongside
it live the environment-stationarity check, the deliberately nonphysical
product-of-marginals extension (the canonical counterexample), local
equivalence classes, and a sampling audit of the complete-positivity
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .generators import GeneratorSpec, eval_Gamma, generator_matrix, random_density_matrix
from .linalg import (
    _eye,
    _square,
    _state,
    dagger,
    hermitian_eigvals,
    max_abs,
    mutual_information,
    partial_trace,
    tensor_product,
    von_neumann_entropy,
)
from .propagation import (
    IntegratorConfig,
    Trajectory,
    default_monitor,
    evolve,
    integrate_generator,
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
        object.__setattr__(self, "matrix", _state(self.matrix, self.d_H * self.d_K))

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


def polchinski_generator(dyn: BipartiteDynamics, rho_hk, dims=None) -> np.ndarray:
    """Joint generator built from local generators at the local marginals.

    The unchecked loop kernel of evolve_bipartite: beyond the dimensions it
    checks nothing, and a BipartiteState's own dims take precedence.
    """
    dims = getattr(rho_hk, "dims", dims)
    if dims is None:
        raise ValidationError("dims required for a bare joint matrix")
    d_h, d_k = dims
    m = _square(rho_hk, d_h * d_k)
    if dyn.spec_H.dim != d_h:
        raise ValidationError("spec_H dimension does not match d_H")
    g = tensor_product(
        generator_matrix(dyn.spec_H, partial_trace(m, (d_h, d_k), "K")), _eye(d_k)
    )
    if dyn.spec_K is not None:
        if dyn.spec_K.dim != d_k:
            raise ValidationError("spec_K dimension does not match d_K")
        g = g + tensor_product(
            _eye(d_h), generator_matrix(dyn.spec_K, partial_trace(m, (d_h, d_k), "H"))
        )
    return g


def bipartite_monitor(dims: tuple[int, int], H_joint: np.ndarray):
    """Joint monitor adding local entropies and mutual information."""
    base = default_monitor(H_joint)

    def monitor(states: np.ndarray) -> dict:
        rec = base(states)
        rec["entropy_H"] = von_neumann_entropy(partial_trace(states, dims, "K"))
        rec["entropy_K"] = von_neumann_entropy(partial_trace(states, dims, "H"))
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
    """Joint gamma-route integration with marginals recomputed at every stage."""
    dims = rho0.dims
    return integrate_generator(
        rho0.matrix,
        lambda rho: polchinski_generator(dyn, rho, dims),
        cfg,
        bipartite_monitor(dims, joint_hamiltonian(dyn, dims)),
    )


def check_environment_stationarity(dyn: BipartiteDynamics, rho_hk: BipartiteState) -> float:
    """Max-norm of Tr_H[(Gamma_H(rho_H) (x) I_K) rho_HK]; zero means the
    environment marginal cannot move."""
    d_h, d_k = rho_hk.dims
    gam = eval_Gamma(dyn.spec_H, rho_hk.marginal_H())
    prod = tensor_product(gam, np.eye(d_k)) @ rho_hk.matrix
    return max_abs(partial_trace(prod, rho_hk.dims, "H"))


def trivial_extension(g_h: Callable[[np.ndarray], np.ndarray], rho_hk: BipartiteState) -> BipartiteState:
    """Product-of-mapped-marginals extension: always yields a product state,
    destroying all correlations in one application."""
    out = tensor_product(g_h(rho_hk.marginal_H()), rho_hk.marginal_K())
    return BipartiteState(d_H=rho_hk.d_H, d_K=rho_hk.d_K, matrix=out)


def check_local_equivalence(w: np.ndarray, eta: np.ndarray, chi: np.ndarray) -> bool:
    """Does w share its marginals with the product eta (x) chi?

    Requires Tr_K[w] = Tr[chi] eta and Tr_H[w] = Tr[eta] chi, each to
    LOCAL_EQUIVALENCE_TOL.
    """
    eta, chi = _square(eta), _square(chi)
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
    """Partial trace of a random pure state on an enlarged space, optionally
    convex-mixed over several draws."""
    d = d_h * d_k
    m = np.zeros((d, d), dtype=complex)
    for _ in range(mixture_terms):
        psi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        psi = psi / np.linalg.norm(psi)
        full = np.outer(psi, psi.conj())
        m = m + partial_trace(full, (d, d), "K")
    m = m / mixture_terms
    m = (m + dagger(m)) / 2
    return BipartiteState(d_H=d_h, d_K=d_k, matrix=m / np.trace(m).real)


def verify_cp_extension(dyn: BipartiteDynamics, rho_hk_samples, cfg: IntegratorConfig) -> CpExtensionReport:
    """Audit the complete-positivity conditions on concrete samples.

    For each joint state: evolve with a passive environment and check that
    (a) the output stays positive, (b) the H marginal matches the standalone
    local evolution, and (c) the K marginal never moves, both to
    CP_RESIDUAL_TOL.
    """
    if dyn.spec_K is not None:
        raise ValidationError("verify_cp_extension assumes a passive environment")
    results = []
    for sample in rho_hk_samples:
        traj = evolve_bipartite(sample, dyn, cfg)
        local = evolve(sample.marginal_H(), dyn.spec_H, cfg)
        states = np.array(traj.states)
        min_eig = float(np.min(hermitian_eigvals(states[-1])))
        loc_res = max_abs(partial_trace(states, sample.dims, "K") - np.array(local.states))
        rem_res = max_abs(partial_trace(states, sample.dims, "H") - sample.marginal_K())
        positive = min_eig >= -1e-10
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
