"""Generator families G(rho) = T(rho) + i Gamma(rho).

The motion term T is either the bare Hamiltonian (linear limit) or the
power-law form H rho^q + rho^q H.  The dissipative term Gamma comes in
three flavours: a zero-mean power law, its energy-conserving variant with
two Lagrange multipliers solved per state, and the support-avoiding form
(I - rho^{r-1}) A (I - P_rho) + h.c. whose anticommutator action reduces
to a commutator (a "non-essential" dissipative part).

Also here: the generic zero-mean construction for linear superoperators,
the zero-mean and support-block checks as executable criteria, and a
sampling classifier for essentiality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateConstraintError, ValidationError
from .linalg import (
    HERM_TOL,
    SUPPORT_REL_TOL,
    ClippedEig,
    _hermitian,
    _square,
    dagger,
    is_hermitian,
    max_abs,
    sqrt_factor,
)

ZERO_MEAN_TOL = 1e-9
SUPPORT_BLOCK_TOL = 1e-9


@dataclass(frozen=True)
class TFamily:
    """Motion-term family: "vonNeumann" (T = H, takes no q) or "powerLaw"
    (needs q > 0)."""

    family: str
    q: float = 1.0

    def __post_init__(self):
        if self.family not in ("vonNeumann", "powerLaw"):
            raise ValidationError(f"unknown T family {self.family!r}")
        if self.family == "powerLaw" and self.q <= 0:
            raise ValidationError(f"powerLaw exponent q must be > 0, got {self.q}")
        if self.family == "vonNeumann" and self.q != 1.0:
            raise ValidationError(f"vonNeumann takes no q, got {self.q}")


@dataclass(frozen=True)
class GammaFamily:
    """Dissipative-term family.

    family: "none" | "zeroMean" | "energyConserving" | "nonEssential".
    sigma and r apply to zeroMean and energyConserving; none takes neither;
    nonEssential needs a Hermitian coupling matrix A and r > 1, and takes
    no sigma.
    """

    family: str
    sigma: float = 0.0
    r: float = 1.0
    A: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family not in ("none", "zeroMean", "energyConserving", "nonEssential"):
            raise ValidationError(f"unknown Gamma family {self.family!r}")
        if self.family == "none" and (self.sigma != 0.0 or self.r != 1.0):
            raise ValidationError(f"none takes no sigma or r, got {self.sigma}, {self.r}")
        if self.family in ("zeroMean", "energyConserving") and self.r <= 0:
            raise ValidationError(f"exponent r must be > 0, got {self.r}")
        if self.family == "nonEssential":
            if self.A is None:
                raise ValidationError("nonEssential family requires a matrix A")
            a = np.asarray(self.A, dtype=complex)
            if not is_hermitian(a, HERM_TOL):
                raise ValidationError("A must be Hermitian to 1e-12")
            object.__setattr__(self, "A", a)
            if self.r <= 1:
                raise ValidationError(f"nonEssential requires r > 1, got {self.r}")
            if self.sigma != 0.0:
                raise ValidationError(f"nonEssential takes no sigma, got {self.sigma}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of G(rho) = T(rho) + i Gamma(rho)."""

    H: np.ndarray
    t_family: TFamily = field(default_factory=lambda: TFamily("vonNeumann"))
    gamma_family: GammaFamily = field(default_factory=lambda: GammaFamily("none"))

    def __post_init__(self):
        h = np.asarray(self.H, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValidationError("H must be a square matrix")
        if not is_hermitian(h, HERM_TOL):
            raise ValidationError("H must be Hermitian to 1e-12")
        object.__setattr__(self, "H", h)
        a = self.gamma_family.A
        if a is not None and a.shape != h.shape:
            raise ValidationError("A and H dimensions differ")

    @property
    def dim(self) -> int:
        return self.H.shape[0]


def _eval_T(spec: GeneratorSpec, dec: ClippedEig) -> np.ndarray:
    if spec.t_family.family == "vonNeumann":
        return spec.H.copy()
    rq = dec.power(spec.t_family.q)
    return spec.H @ rq + rq @ spec.H


def eval_T(spec: GeneratorSpec, rho) -> np.ndarray:
    """T(rho) for a Hermitian rho of the spec's dimension."""
    return _eval_T(spec, ClippedEig(_hermitian(rho, spec.dim)))


def solve_lagrange_parameters(
    H: np.ndarray, sigma: float, r: float, rho: np.ndarray
) -> tuple[float, float]:
    """Multipliers (zeta, xi) making sigma [rho^r - zeta H - xi I] both
    trace- and energy-neutral against rho.

    Solves
        Tr[rho^{r+1}]   = zeta Tr[H rho]   + xi Tr[rho]
        Tr[H rho^{r+1}] = zeta Tr[H^2 rho] + xi Tr[H rho]
    and fails when the system is singular, i.e. when H is a scalar on the
    support of rho (Cauchy-Schwarz equality).
    """
    H = _hermitian(H)
    return _solve_lagrange(H, r, ClippedEig(_hermitian(rho, H.shape[-1])))


def _solve_lagrange(H: np.ndarray, r: float, dec: ClippedEig) -> tuple[float, float]:
    rho = dec.rho
    rp = dec.power(r + 1.0)
    tr_rho = np.trace(rho).real
    tr_h = np.trace(H @ rho).real
    tr_h2 = np.trace(H @ H @ rho).real
    b1 = np.trace(rp).real
    b2 = np.trace(H @ rp).real
    det = tr_h * tr_h - tr_rho * tr_h2
    if abs(det) <= 1e-12:
        raise DegenerateConstraintError(
            "H acts as a scalar on the support of rho; "
            "the energy-conservation constraints are degenerate"
        )
    zeta = (b1 * tr_h - b2 * tr_rho) / det
    xi = (tr_h * b2 - tr_h2 * b1) / det
    return float(zeta), float(xi)


def _eval_Gamma(spec: GeneratorSpec, dec: ClippedEig) -> np.ndarray:
    fam = spec.gamma_family
    rho = dec.rho
    d = rho.shape[0]
    eye = np.eye(d)
    if fam.family == "none":
        return np.zeros((d, d), dtype=complex)
    if fam.family == "zeroMean":
        rr = dec.power(fam.r)
        c = np.trace(rr @ rho).real / np.trace(rho).real
        return fam.sigma * (rr - c * eye)
    if fam.family == "energyConserving":
        zeta, xi = _solve_lagrange(spec.H, fam.r, dec)
        rr = dec.power(fam.r)
        return fam.sigma * (rr - zeta * spec.H - xi * eye)
    # nonEssential: vanishes identically on the support block of rho.
    p = dec.support()
    b = (eye - dec.power(fam.r - 1.0)) @ fam.A @ (eye - p)
    return b + dagger(b)


def eval_Gamma(spec: GeneratorSpec, rho) -> np.ndarray:
    """Gamma(rho) for a Hermitian rho of the spec's dimension."""
    return _eval_Gamma(spec, ClippedEig(_hermitian(rho, spec.dim)))


def generator_matrix(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """G = T + i Gamma at the given state.

    The unchecked loop kernel: the integrators call it at every RK4 stage on
    a rho that is Hermitian by construction, so it checks nothing beyond
    ClippedEig's eigenvalue floor.  Validate input with eval_T / eval_Gamma.
    """
    dec = ClippedEig(rho)
    return _eval_T(spec, dec) + 1j * _eval_Gamma(spec, dec)


@dataclass(frozen=True)
class ZeroMeanReport:
    residuals: np.ndarray
    passed: bool
    tol: float = ZERO_MEAN_TOL


def check_zero_mean(spec: GeneratorSpec, rho_samples, gamma_fn=None) -> ZeroMeanReport:
    """Trace-conservation criterion: |Tr[gamma^dag Gamma(rho) gamma]| per sample.

    Uses the canonical Hermitian square root for gamma.  ``gamma_fn``
    substitutes an arbitrary map rho -> Gamma, e.g. a deliberately broken
    control without the mean subtraction.
    """
    residuals = []
    for rho in rho_samples:
        m = _hermitian(rho, spec.dim)
        g = sqrt_factor(m).matrix
        gam = gamma_fn(m) if gamma_fn is not None else eval_Gamma(spec, m)
        residuals.append(abs(np.trace(dagger(g) @ gam @ g)))
    residuals = np.asarray(residuals)
    return ZeroMeanReport(residuals=residuals, passed=bool(np.all(residuals <= ZERO_MEAN_TOL)))


def make_zero_mean(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Zero-mean modification of a linear superoperator at the point w.

    ``a`` acts on vectorized d x d operators (shape d^2 x d^2).  Returns
    a(w) - (Tr[w^dag a(w)] / Tr[w^dag w]) w, which annihilates every
    eigenvector of a self-adjoint ``a``.
    """
    w = _square(w)
    d = w.shape[0]
    a = _square(a, d * d)
    nrm = np.trace(dagger(w) @ w)
    if abs(nrm) <= 1e-300:
        raise ValidationError("make_zero_mean: w must be nonzero")
    aw = (a @ w.reshape(-1)).reshape(d, d)
    coef = np.trace(dagger(w) @ aw) / nrm
    return aw - coef * w


@dataclass(frozen=True)
class SupportBlockResult:
    passed: bool
    residual: float


def check_polchinski_condition(
    spec: GeneratorSpec, rho: np.ndarray, rel_tol: float = SUPPORT_REL_TOL
) -> SupportBlockResult:
    """Support-block criterion P_rho Gamma(rho) P_rho = 0.

    Holding on every state is necessary and sufficient for the separable
    product-propagator extension to entangled systems to stay completely
    positive.
    """
    dec = ClippedEig(_hermitian(rho, spec.dim))
    p = dec.support(rel_tol)
    residual = max_abs(p @ _eval_Gamma(spec, dec) @ p)
    return SupportBlockResult(passed=residual <= SUPPORT_BLOCK_TOL, residual=residual)


@dataclass(frozen=True)
class EssentialityReport:
    essential: bool
    witness: Optional[np.ndarray]
    n_samples: int
    note: str = (
        "sampling can only falsify non-essentiality; a clean pass does not "
        "prove the dissipative part is non-essential for all states"
    )


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt style random state of the given rank (default full)."""
    k = dim if rank is None else rank
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    m = g @ dagger(g)
    return m / np.trace(m).real


def classify_dissipative_part(
    spec: GeneratorSpec,
    sample_count: int = 100,
    dim: int | None = None,
    rng: np.random.Generator | None = None,
) -> EssentialityReport:
    """Sample random full-rank and rank-deficient states looking for a
    support-block violation; the first failing state is the witness."""
    d = spec.dim if dim is None else dim
    rng = np.random.default_rng(0) if rng is None else rng
    for i in range(sample_count):
        rank = d if i % 2 == 0 or d < 2 else int(rng.integers(1, d))
        rho = random_density_matrix(d, rng, rank)
        res = check_polchinski_condition(spec, rho)
        if not res.passed:
            return EssentialityReport(essential=True, witness=rho, n_samples=i + 1)
    return EssentialityReport(essential=False, witness=None, n_samples=sample_count)
