"""Generator families G(rho) = T(rho) + i Gamma(rho).

The motion term T is either the bare Hamiltonian (linear limit) or the
power-law form H rho^q + rho^q H.  The dissipative term Gamma comes in
three flavours: a zero-mean power law, its energy-conserving variant with
two Lagrange multipliers solved per state, and the support-avoiding form
(I - rho^{r-1}) A (I - P_rho) + h.c. whose anticommutator action reduces
to a commutator (a "non-essential" dissipative part).

Each spec picks its kernel once, at construction.  Where every power of rho
that G reads has a whole exponent (q, and r for zeroMean and
energyConserving), the product kernel forms rho^q and rho^r by matrix
products, with no eigendecomposition; energyConserving reads its traces by
one matmul of the stack (rho, rho^{r+1}) on rows for I, H and H^2.  Every
other spec, nonEssential always (its Gamma reads the support of rho), takes
the spectral kernel, which reads everything from one eigendecomposition of
rho and stays the oracle.  Neither kernel owns the eigenvalue floor of a
stepped state: the step loop in ``propagation`` checks each one.

Also here: the generic zero-mean construction for linear superoperators,
the zero-mean and support-block checks as executable criteria, and a
sampling classifier for essentiality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DegenerateConstraintError, ValidationError
from .linalg import (
    HS_NORM_TOL,
    ClippedEig,
    _finite,
    _hermitian,
    _is_integer,
    _member,
    _positive,
    _square,
    _trace,
    dagger,
)

ZERO_MEAN_TOL = 1e-9
SUPPORT_BLOCK_TOL = 1e-9


@dataclass(frozen=True)
class TFamily:
    """Motion-term family: "vonNeumann" (T = H, takes no q) or "powerLaw"
    (needs a finite q > 0)."""

    family: str
    q: float = 1.0

    def __post_init__(self):
        if self.family not in ("vonNeumann", "powerLaw"):
            raise ValidationError(f"unknown T family {self.family!r}")
        if self.family == "powerLaw":
            _positive(self.q, "powerLaw exponent q")
        if self.family == "vonNeumann" and self.q != 1.0:
            raise ValidationError(f"vonNeumann takes no q, got {self.q}")


@dataclass(frozen=True)
class GammaFamily:
    """Dissipative-term family.

    family: "none" | "zeroMean" | "energyConserving" | "nonEssential".
    sigma (finite) and r (finite, > 0) apply to zeroMean and
    energyConserving; none takes neither; nonEssential needs a Hermitian
    coupling matrix A (or a stack) and a finite r > 1, and no sigma.  No
    other family takes an A.
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
        if self.family in ("zeroMean", "energyConserving"):
            _positive(self.r, "exponent r")
            _finite(self.sigma, "sigma")
        if self.family != "nonEssential" and self.A is not None:
            raise ValidationError(f"{self.family} takes no A")
        if self.family == "nonEssential":
            if self.A is None:
                raise ValidationError("nonEssential family requires a matrix A")
            object.__setattr__(self, "A", _hermitian(self.A, what="A"))
            if not _positive(self.r, "nonEssential exponent r") > 1:
                raise ValidationError(f"nonEssential requires a finite r > 1, got {self.r}")
            if self.sigma != 0.0:
                raise ValidationError(f"nonEssential takes no sigma, got {self.sigma}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of G(rho) = T(rho) + i Gamma(rho)."""

    H: np.ndarray
    t_family: TFamily = field(default_factory=lambda: TFamily("vonNeumann"))
    gamma_family: GammaFamily = field(default_factory=lambda: GammaFamily("none"))

    def __post_init__(self):
        if not isinstance(self.t_family, TFamily) or not isinstance(self.gamma_family, GammaFamily):
            raise ValidationError("t_family must be a TFamily and gamma_family a GammaFamily")
        h = _hermitian(self.H, what="H", one=True).copy()
        h.setflags(write=False)  # the vonNeumann T hands out H itself
        object.__setattr__(self, "H", h)
        a = self.gamma_family.A
        if a is not None and a.shape != h.shape:
            raise ValidationError("A and H dimensions differ")
        object.__setattr__(self, "_products", _product_plan(h, self.t_family, self.gamma_family))

    @property
    def dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class _SpecStack:
    """Specs that stack (_stack_key), mixture branches, joint sides or report
    routes, as one spec for the kernels: H (and A) stack the members' along
    axis -3, (..., B, d, d); qs is None when every member takes t_family's q,
    else one q per member, which only the spectral _eval_T reads."""

    H: np.ndarray
    t_family: TFamily
    gamma_family: GammaFamily
    qs: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "_products", _product_plan(self.H, self.t_family, self.gamma_family))

    @property
    def dim(self) -> int:
        """The members' dimension, as GeneratorSpec.dim; bench/tracer.py
        tags each generator_matrix call by it."""
        return self.H.shape[-1]


def _whole(x: float) -> bool:
    """x is a whole number >= 1, so rho^x is a product of rho's."""
    return x >= 1 and float(x).is_integer()


# rho^n costs n - 1 matrix products.  At n = 8 the product kernel costs
# about what the spectral kernel does (timeit, d = 2, 4 and 8), so a spec that
# needs a higher power of rho keeps the spectral kernel.
MAX_PRODUCT_POWER = 8


@dataclass(frozen=True)
class _Products:
    """What the product kernel forms for one spec: rho^k for k = 1..n by
    matrix products, T = H rho^q + rho^q H (q = 0: T = H), Gamma from rho^r
    (r = 0: Gamma reads no power of rho), and energyConserving's _trace_rows."""

    q: int
    r: int
    n: int
    rows: Optional[np.ndarray] = None


def _trace_rows(h: np.ndarray) -> np.ndarray:
    """vec([I, H, H^2]^T) as (..., d^2, 3): s flattened to (..., d^2) times it is Tr[s], Tr[H s], Tr[H^2 s]."""
    m = _stack([np.eye(h.shape[-1]), h, h @ h]).swapaxes(-1, -2)  # (..., 3, d, d), each transposed
    return np.ascontiguousarray(m.reshape(m.shape[:-2] + (-1,)).swapaxes(-1, -2))


def _product_plan(h: np.ndarray, t_family: TFamily, gamma_family: GammaFamily) -> Optional[_Products]:
    """The product kernel's plan when every power of rho that G reads has a
    whole exponent, else None: the spectral kernel, which nonEssential
    always takes."""
    fam = gamma_family.family
    q = 0.0 if t_family.family == "vonNeumann" else t_family.q
    reads_r = fam in ("zeroMean", "energyConserving")
    if fam == "nonEssential" or q and not _whole(q) or reads_r and not _whole(gamma_family.r):
        return None
    q, r = int(q), int(gamma_family.r) if reads_r else 0
    energy = fam == "energyConserving"
    n = max(q, r + 1 if energy else r)  # energyConserving reads Tr[H rho^{r+1}]
    if n > MAX_PRODUCT_POWER:
        return None
    return _Products(q, r, n, _trace_rows(h) if energy else None)


def _fixed_generator(spec):
    """G itself when it reads no state, else None: the product kernel's plan
    reads no power of rho (q = 0, r = 0) and the family is none, so G = H at
    every rho (for a _SpecStack, its stack of H)."""
    plan = spec._products
    if plan is not None and plan.q == 0 and plan.r == 0 and spec.gamma_family.family == "none":
        return spec.H
    return None


def _stack_key(spec) -> tuple:
    """The one rule by which specs stack (_stack_specs), as mixture branches
    or joint sides: one T family, Gamma family, sigma and r, and one q on
    the product kernel; the spectral kernel reads q per member."""
    fam = spec.gamma_family
    q = None if spec._products is None else spec.t_family.q
    return q, spec.t_family.family, fam.family, fam.sigma, fam.r


def _stack(ms) -> np.ndarray:
    """The matrices ms, each (d, d) or a stack, broadcast to one shape and
    stacked along axis -3."""
    return np.stack(np.broadcast_arrays(*ms), axis=-3)


def _stack_specs(specs) -> _SpecStack:
    """One kernel spec for specs of one _stack_key, member i being specs[i]
    along axis -3.  A member may itself be a stack whose members share one q;
    its members stay on the axes before."""
    fam = specs[0].gamma_family
    a = None if fam.A is None else _stack([s.gamma_family.A for s in specs])
    qs = tuple(s.t_family.q for s in specs)
    qs = None if len(set(qs)) == 1 else qs
    return _SpecStack(_stack([s.H for s in specs]), specs[0].t_family, replace(fam, A=a), qs)


# The kernels below take one state or a stack (..., d, d) of states, and a
# spec whose H and A are (d, d) or a stack that broadcasts against them:
# traces run over the last two axes and per-member scalars broadcast as
# c[..., None, None].


def _eval_T(spec: GeneratorSpec, dec: ClippedEig) -> np.ndarray:
    if spec.t_family.family == "vonNeumann":
        return spec.H
    qs = getattr(spec, "qs", None)
    if qs is None:
        rq = dec.power(spec.t_family.q)
    else:  # one scalar power per member: numpy takes q = 0.5 and 2 by sqrt and square, a q array by pow
        w = dec.eigenvalues
        wq = w ** qs[0]
        for i in range(1, len(qs)):
            wq[..., i, :] = w[..., i, :] ** qs[i]
        rq = dec.spectral(wq)
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
    spec = GeneratorSpec(H, gamma_family=GammaFamily("energyConserving", sigma=sigma, r=r))
    zeta, xi = _solve_lagrange(spec.H, r, ClippedEig(_hermitian(rho, spec.dim)))
    return float(zeta), float(xi)


def _solve_lagrange(H: np.ndarray, r: float, dec: ClippedEig) -> tuple:
    # Every trace is a sum over the spectrum: with h_k = (V^dag H V)_kk and
    # n_k = ||H v_k||^2 = (V^dag H^2 V)_kk, Tr[H rho] = sum_k lambda_k h_k,
    # Tr[H^2 rho] = sum_k lambda_k n_k and Tr[H rho^{r+1}] = sum_k lambda_k^{r+1} h_k.
    w = dec.eigenvalues
    wp = w ** (r + 1.0)
    hv = H @ dec.eigenvectors
    h = (dec.vh.swapaxes(-1, -2) * hv).real.sum(axis=-2)
    n = (hv.conj() * hv).real.sum(axis=-2)
    tr_rho = w.sum(axis=-1)
    tr_h = (w * h).sum(axis=-1)
    tr_h2 = (w * n).sum(axis=-1)
    return _lagrange(tr_rho, tr_h, tr_h2, wp.sum(axis=-1), (wp * h).sum(axis=-1))


def _lagrange(tr_rho, tr_h, tr_h2, b1, b2) -> tuple:
    """(zeta, xi) from Tr[rho], Tr[H rho], Tr[H^2 rho], b1 = Tr[rho^{r+1}] and
    b2 = Tr[H rho^{r+1}], one value per member."""
    det = tr_h * tr_h - tr_rho * tr_h2
    bad = np.abs(det) <= 1e-12
    if bad.any():
        raise DegenerateConstraintError(
            f"H acts as a scalar on the support of rho{_member(bad)}; "
            "the energy-conservation constraints are degenerate"
        )
    zeta = (b1 * tr_h - b2 * tr_rho) / det
    xi = (tr_h * b2 - tr_h2 * b1) / det
    return zeta, xi


def _zero_mean_gamma(fam: GammaFamily, dec: ClippedEig) -> np.ndarray:
    # sigma (rho^r - c I) with c = Tr[rho^r rho] / Tr[rho], diagonal in rho's eigenbasis.
    w = dec.eigenvalues
    wr = w**fam.r
    c = (wr * w).sum(axis=-1) / w.sum(axis=-1)
    return dec.spectral(fam.sigma * (wr - c[..., None]))


def _energy_conserving_gamma(spec: GeneratorSpec, dec: ClippedEig) -> np.ndarray:
    # sigma (rho^r - zeta H - xi I): the rho^r - xi I part is diagonal in rho's eigenbasis.
    fam = spec.gamma_family
    zeta, xi = _solve_lagrange(spec.H, fam.r, dec)
    diag = fam.sigma * (dec.eigenvalues**fam.r - xi[..., None])
    return dec.spectral(diag) - (fam.sigma * zeta)[..., None, None] * spec.H


def _non_essential_gamma(fam: GammaFamily, dec: ClippedEig) -> Optional[np.ndarray]:
    # B + B^dag with B = (I - rho^{r-1}) A (I - P_rho).  In rho's eigenbasis
    # I - rho^{r-1} = diag(a) and I - P_rho = diag(b), so with A~ = V^dag A V,
    # Gamma = V (A~ o (a b^T + b a^T)) V^dag, which vanishes on the support block.
    mask = dec.support_mask()
    if mask.all():  # every member's support is full: b = 0, so Gamma = 0 exactly
        return None
    v, vh = dec.eigenvectors, dec.vh
    a = 1.0 - dec.eigenvalues ** (fam.r - 1.0)
    u = a[..., :, None] * (1.0 - mask[..., None, :])  # a b^T
    return v @ ((vh @ fam.A @ v) * (u + u.swapaxes(-1, -2))) @ vh


def _eval_Gamma(spec: GeneratorSpec, dec: ClippedEig) -> Optional[np.ndarray]:
    """Gamma at dec's state, or None where it is identically zero: the none
    family, and nonEssential when every member's support is full."""
    fam = spec.gamma_family
    if fam.family == "none":
        return None
    if fam.family == "zeroMean":
        return _zero_mean_gamma(fam, dec)
    if fam.family == "energyConserving":
        return _energy_conserving_gamma(spec, dec)
    return _non_essential_gamma(fam, dec)


def _gamma_or_zeros(spec: GeneratorSpec, dec: ClippedEig) -> np.ndarray:
    gam = _eval_Gamma(spec, dec)
    return np.zeros(dec.rho.shape, dtype=complex) if gam is None else gam


def eval_Gamma(spec: GeneratorSpec, rho) -> np.ndarray:
    """Gamma(rho) for a Hermitian rho of the spec's dimension."""
    return _gamma_or_zeros(spec, ClippedEig(_hermitian(rho, spec.dim)))


def _by_spectrum(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """The spectral kernel: G from one eigendecomposition of rho, which also
    checks its eigenvalue floor."""
    dec = ClippedEig(rho)
    t = _eval_T(spec, dec)
    gam = _eval_Gamma(spec, dec)
    return t if gam is None else t + 1j * gam


def _by_products(spec: GeneratorSpec, plan: _Products, rho: np.ndarray) -> np.ndarray:
    """The product kernel: G from rho^k = rho ... rho, k <= plan.n, with no
    eigendecomposition and so no eigenvalue floor."""
    fam = spec.gamma_family
    p = [None, rho]  # p[k] = rho^k
    for _ in range(1, plan.n):
        p.append(p[-1] @ rho)
    t = spec.H
    if plan.q:
        x = spec.H @ p[plan.q]
        t = x + dagger(x)
    if fam.family == "none":
        return t
    i_sigma = 1j * fam.sigma
    if fam.family == "zeroMean":  # i sigma (rho^r - c I), c = Tr[rho^{r+1}] / Tr[rho], an elementwise sum
        b1 = (p[plan.r] * rho.swapaxes(-1, -2)).sum(axis=(-2, -1)).real
        return t + _minus_diag(i_sigma * p[plan.r], i_sigma * (b1 / _trace(rho)))
    # Tr[M rho] over Tr[M rho^{r+1}], M = I, H, H^2, from the stack (rho, rho^{r+1}) as (..., 2d, d)
    s = np.concatenate((rho, p[plan.r + 1]), axis=-2)
    tr = (s.reshape(s.shape[:-2] + (2, rho.shape[-1] ** 2)) @ plan.rows).real
    zeta, xi = _lagrange(tr[..., 0, 0], tr[..., 0, 1], tr[..., 0, 2], tr[..., 1, 0], tr[..., 1, 1])
    gam = i_sigma * p[plan.r] - i_sigma * zeta[..., None, None] * spec.H  # i sigma (rho^r - zeta H - xi I)
    return t + _minus_diag(gam, i_sigma * xi)


def _minus_diag(a: np.ndarray, c) -> np.ndarray:
    """a - c I, c one value per member, written into a, which must be a
    fresh contiguous array."""
    d = a.shape[-1]
    a.reshape(a.shape[:-2] + (d * d,))[..., :: d + 1] -= np.asarray(c)[..., None]
    return a


def generator_matrix(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """G = T + i Gamma at the given state, by the kernel the spec chose.

    The unchecked loop kernel: the integrators call it at every RK4 stage
    (unless the spec reads no state, see _fixed_generator) on
    a rho that is Hermitian by construction, so it checks nothing beyond the
    eigenvalue floor of the decomposition it takes, if it takes one: the
    spectral kernel (nonEssential always) takes one, the product kernel
    none.  The step loop checks the floor of each stepped state either way.
    Validate input with eval_T / eval_Gamma, which take the spectral kernel.
    rho may be a stack (B, d, d), and spec a stack of B specs; G is then one
    generator per member.  Where Gamma is identically zero, G is T itself, which for
    vonNeumann is the spec's read-only H.
    """
    plan = spec._products
    return _by_spectrum(spec, rho) if plan is None else _by_products(spec, plan, rho)


@dataclass(frozen=True)
class ZeroMeanReport:
    residuals: np.ndarray
    passed: bool
    tol: float = ZERO_MEAN_TOL


def check_zero_mean(spec: GeneratorSpec, rho_samples, gamma_fn=None) -> ZeroMeanReport:
    """Trace-conservation criterion: |Tr[gamma^dag Gamma(rho) gamma]| per sample.

    Uses the canonical Hermitian square root for gamma.  ``gamma_fn``
    substitutes an arbitrary map rho -> Gamma, e.g. a deliberately broken
    control without the mean subtraction; it is called once per sample.
    The samples are checked one by one, then decomposed as one stack.
    """
    rhos = [_hermitian(rho, spec.dim) for rho in rho_samples]
    if not rhos:
        return ZeroMeanReport(residuals=np.zeros(0), passed=True)
    dec = ClippedEig(np.array(rhos))
    g = dec.power(0.5)
    norm = _trace(dagger(g) @ g)
    bad = np.abs(norm - 1.0) > HS_NORM_TOL
    if bad.any():  # StateOperator's check, on the first failing sample
        raise ValidationError(f"state operator HS norm {norm[bad][0]} != 1")
    gam = np.array([gamma_fn(r) for r in dec.rho]) if gamma_fn is not None else _gamma_or_zeros(spec, dec)
    residuals = np.abs(np.trace(dagger(g) @ gam @ g, axis1=-2, axis2=-1))
    return ZeroMeanReport(residuals=residuals, passed=bool(np.all(residuals <= ZERO_MEAN_TOL)))


def make_zero_mean(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Zero-mean modification of a linear superoperator at the point w.

    ``a`` acts on vectorized d x d operators (shape d^2 x d^2).  Returns
    a(w) - (Tr[w^dag a(w)] / Tr[w^dag w]) w, which annihilates every
    eigenvector of a self-adjoint ``a``.
    """
    w = _square(w, what="w", one=True)
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


def _support_block_residuals(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """max |P_rho Gamma(rho) P_rho| per member of rho, one state or a stack,
    from one decomposition."""
    dec = ClippedEig(rho)
    p = dec.support()
    return np.max(np.abs(p @ _gamma_or_zeros(spec, dec) @ p), axis=(-2, -1))


def check_polchinski_condition(spec: GeneratorSpec, rho: np.ndarray) -> SupportBlockResult:
    """Support-block criterion P_rho Gamma(rho) P_rho = 0.

    Holding on every state is necessary and sufficient for the separable
    product-propagator extension to entangled systems to stay completely
    positive.
    """
    residual = float(_support_block_residuals(spec, _hermitian(rho, spec.dim)))
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
    if not (_is_integer(dim, 1) and _is_integer(k, 1) and k <= dim):
        raise ValidationError(f"need integers dim >= 1 and rank in [1, dim], got dim {dim}, rank {rank}")
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    m = g @ dagger(g)
    return m / np.trace(m).real


def classify_dissipative_part(
    spec: GeneratorSpec,
    sample_count: int = 100,
    rng: np.random.Generator | None = None,
) -> EssentialityReport:
    """Sample random full-rank and rank-deficient states of the spec's
    dimension looking for a support-block violation; the first failing state
    is the witness.

    All samples are drawn first, in the order a one-at-a-time search draws
    them, and checked as one stack.  When a witness turns up before the last
    sample, the generator is rewound and only the samples up to the witness
    are drawn again, so rng ends where a search that stops there leaves it.
    """
    if not _is_integer(sample_count, 0):
        raise ValidationError(f"sample_count must be an integer >= 0, got {sample_count}")
    d = spec.dim
    rng = np.random.default_rng(0) if rng is None else rng
    start = rng.bit_generator.state

    def draw(count: int) -> list:
        return [
            random_density_matrix(d, rng, d if i % 2 == 0 or d < 2 else int(rng.integers(1, d)))
            for i in range(count)
        ]

    rhos = draw(sample_count)
    if not rhos:
        return EssentialityReport(essential=False, witness=None, n_samples=0)
    failing = np.flatnonzero(~(_support_block_residuals(spec, np.array(rhos)) <= SUPPORT_BLOCK_TOL))
    if failing.size == 0:
        return EssentialityReport(essential=False, witness=None, n_samples=sample_count)
    i = int(failing[0])
    if i + 1 < sample_count:
        rng.bit_generator.state = start
        draw(i + 1)
    return EssentialityReport(essential=True, witness=rhos[i], n_samples=i + 1)
