"""Generator families G(rho) = T(rho) + i Gamma(rho).

The motion term T is either the bare Hamiltonian (linear limit) or the
power-law form H rho^q + rho^q H.  The dissipative term Gamma comes in
three flavours: a zero-mean power law, its energy-conserving variant with
two Lagrange multipliers solved per state, and the support-avoiding form
(I - rho^{r-1}) A (I - P_rho) + h.c. whose anticommutator action reduces
to a commutator (a "non-essential" dissipative part).

Each spec picks its kernel once, at construction.  The kernels differ only
in where the powers of rho come from.  T has one formula in both,
X + X^dag with X = H rho^q, and so has each power-law Gamma: zeroMean reads
rho^r, energyConserving rho^r and rho^{r+1}, whose five traces it takes by
one matmul of the stack (rho, rho^{r+1}) on rows for I, H and H^2.  A power
is a product of rho's whenever its exponent is whole and at most
MAX_PRODUCT_POWER (``_whole``); T takes rho^q so in either kernel.  Where
every power G reads is so whole, the product kernel forms them all by
matrix products, with no eigendecomposition.  Every other spec takes the
spectral kernel, whose one eigendecomposition of rho serves the fractional
powers (rho^{r+1} as rho^r rho) and the support; nonEssential always takes
it, as its Gamma reads the support and keeps its spectral formula.  Neither
kernel owns the eigenvalue floor of a stepped state: the step loop in
``propagation`` checks each one.  energyConserving solves its multipliers
(zeta, xi) for one state on Python floats, for a stack on arrays, by one
formula.

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
    SUPPORT_REL_TOL,
    ClippedEig,
    _any,
    _finite,
    _hermitian,
    _is_integer,
    _member,
    _per_member,
    _positive,
    _record,
    _scalars,
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
        _plan(self)

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
        _plan(self)

    @property
    def dim(self) -> int:
        """The members' dimension, as GeneratorSpec.dim; bench/tracer.py
        tags each generator_matrix call by it."""
        return self.H.shape[-1]


# rho^n costs n - 1 matrix products.  At n = 8 the product kernel costs
# about what the spectral kernel does (timeit, d = 2, 4 and 8), so a higher
# power of rho comes from the spectrum.
MAX_PRODUCT_POWER = 8


def _whole(x: float) -> bool:
    """x is a whole number from 1 to MAX_PRODUCT_POWER, so rho^x is taken as
    a product of rho's: the one rule of both kernels."""
    return 1 <= x <= MAX_PRODUCT_POWER and float(x).is_integer()


def _trace_rows(h: np.ndarray) -> np.ndarray:
    """vec([I, H, H^2]^T) as (..., d^2, 3): s flattened to (..., d^2) times it is Tr[s], Tr[H s], Tr[H^2 s]."""
    m = _stack([np.eye(h.shape[-1]), h, h @ h]).swapaxes(-1, -2)  # (..., 3, d, d), each transposed
    return np.ascontiguousarray(m.reshape(m.shape[:-2] + (-1,)).swapaxes(-1, -2))


def _plan(spec) -> None:
    """Fix a spec's kernel once, at construction: _tq, the power of rho that
    T takes by products (0: T = H; None: from the spectrum); _products, the
    highest power of rho the product kernel forms when Gamma too reads only
    such powers, else None: the spectral kernel, which nonEssential always
    takes; and _rows, energyConserving's _trace_rows in either kernel."""
    t, g = spec.t_family, spec.gamma_family
    tq = 0 if t.family == "vonNeumann" else int(t.q) if _whole(t.q) else None
    energy = g.family == "energyConserving"  # reads rho^{r+1}
    r = g.r if g.family in ("zeroMean", "energyConserving") else 0
    n = None
    if not (g.family == "nonEssential" or tq is None or r and not _whole(r + energy)):
        n = max(tq, int(r) + energy)
    object.__setattr__(spec, "_tq", tq)
    object.__setattr__(spec, "_products", n)
    object.__setattr__(spec, "_rows", _trace_rows(spec.H) if energy else None)


def _fixed_generator(spec):
    """G itself when it reads no state, else None: T = H and the family is
    none, so G = H at every rho (for a _SpecStack, its stack of H)."""
    return spec.H if spec._tq == 0 and spec.gamma_family.family == "none" else None


def _stack_key(spec) -> tuple:
    """The one rule by which specs stack (_stack_specs), as mixture branches
    or joint sides: one T family, Gamma family, sigma and r, and one q where
    T takes rho^q by products (_tq), so each member takes T as it does alone;
    from the spectrum, the spectral kernel reads q per member."""
    fam = spec.gamma_family
    return spec._tq, spec.t_family.family, fam.family, fam.sigma, fam.r


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
# traces run over the last two axes.  Per-member scalars are Python floats
# for one state and arrays for a stack (linalg._scalars), and broadcast
# against the members' matrices by _per_member.


def _powers(rho: np.ndarray, n: int) -> list:
    """[None, rho, rho^2, ..., rho^n], each power the one before times rho."""
    p = [None, rho]
    for _ in range(1, n):
        p.append(p[-1] @ rho)
    return p


def _motion(h: np.ndarray, rq: Optional[np.ndarray]) -> np.ndarray:
    """T = X + X^dag with X = H rq, rq = rho^q, in both kernels; H for rq None."""
    if rq is None:
        return h
    x = h @ rq
    return x + dagger(x)


def _eval_T(spec: GeneratorSpec, dec: ClippedEig) -> np.ndarray:
    """T at dec's state, rho^q by products where _tq is set, else from the spectrum."""
    if spec._tq is not None:
        return _motion(spec.H, _powers(dec.rho, spec._tq)[spec._tq])
    qs = getattr(spec, "qs", None) or (spec.t_family.q,)
    w = dec.eigenvalues
    wq = w ** qs[0]
    for i in range(1, len(qs)):  # one scalar power per member, as alone: numpy takes q = 0.5 by sqrt
        wq[..., i, :] = w[..., i, :] ** qs[i]
    return _motion(spec.H, dec.spectral(wq))


def eval_T(spec: GeneratorSpec, rho) -> np.ndarray:
    """T(rho) for a Hermitian rho of the spec's dimension."""
    return _eval_T(spec, ClippedEig(_hermitian(rho, _record(spec, GeneratorSpec, "spec").dim)))


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
    dec = ClippedEig(_hermitian(rho, spec.dim))
    zeta, xi = _lagrange(spec._rows, dec.rho, dec.power(r) @ dec.rho)
    return float(zeta), float(xi)


def _lagrange(rows: np.ndarray, rho: np.ndarray, rp: np.ndarray) -> tuple:
    """(zeta, xi), one value per member, from rp = rho^{r+1} and the trace
    rows of H: Tr[M rho] and Tr[M rho^{r+1}] for M = I, H, H^2 by one matmul
    of the stack (rho, rp), flattened to (..., 2, d^2).  The five traces are
    read once by _scalars, so one state solves the 2 x 2 system on Python
    floats and a stack on arrays, by one formula."""
    s = np.concatenate((rho, rp), axis=-2)
    tr = (s.reshape(s.shape[:-2] + (2, rho.shape[-1] ** 2)) @ rows).real
    t = _scalars(tr, 2)  # t[0][k] = Tr[M_k rho], t[1][k] = Tr[M_k rho^{r+1}]
    tr_rho, tr_h, tr_h2, b1, b2 = t[0][0], t[0][1], t[0][2], t[1][0], t[1][1]
    det = tr_h * tr_h - tr_rho * tr_h2
    bad = abs(det) <= 1e-12
    if _any(bad):
        raise DegenerateConstraintError(
            f"H acts as a scalar on the support of rho{_member(bad)}; "
            "the energy-conservation constraints are degenerate"
        )
    zeta = (b1 * tr_h - b2 * tr_rho) / det
    xi = (tr_h * b2 - tr_h2 * b1) / det
    return zeta, xi


def _power_gamma(spec, scale, rho: np.ndarray, rr: np.ndarray, rp: Optional[np.ndarray]) -> np.ndarray:
    """scale times the zeroMean or the energyConserving Gamma, from rr = rho^r
    and, for energyConserving, rp = rho^{r+1}: the one formula of each family
    in both kernels, which differ only in where these powers come from.
    scale is sigma, or i sigma inside generator_matrix."""
    if rp is None:  # zeroMean: rho^r - c I, c = Tr[rho^{r+1}] / Tr[rho] as an elementwise sum
        c = (rr * rho.swapaxes(-1, -2)).sum(axis=(-2, -1)).real / _trace(rho)
        return _minus_diag(scale * rr, scale * c)
    zeta, xi = _lagrange(spec._rows, rho, rp)  # rho^r - zeta H - xi I
    return _minus_diag(scale * rr - _per_member(scale * zeta, 2) * spec.H, scale * xi)


def _non_essential_gamma(fam: GammaFamily, dec: ClippedEig) -> Optional[np.ndarray]:
    # B + B^dag with B = (I - rho^{r-1}) A (I - P_rho).  In rho's eigenbasis
    # I - rho^{r-1} = diag(a) and I - P_rho = diag(b), so with A~ = V^dag A V,
    # Gamma = V (A~ o (a b^T + b a^T)) V^dag, which vanishes on the support block.
    # The spectrum ascends, so a support is full when its lowest eigenvalue is
    # in it: then b = 0, so Gamma = 0 exactly.  One state tests its spectrum's
    # two ends as Python floats before it builds the mask; a stack, the first
    # column of its mask, all True only when every member's support is full.
    w = dec.eigenvalues
    if w.ndim == 1:
        s = w.tolist()
        if s[-1] > 0.0 and s[0] > SUPPORT_REL_TOL * s[-1]:
            return None
    mask = dec.support_mask()
    if w.ndim > 1 and not _any(~mask[..., 0]):
        return None
    v, vh = dec.eigenvectors, dec.vh
    a = 1.0 - dec.eigenvalues ** (fam.r - 1.0)
    u = a[..., :, None] * (1.0 - mask[..., None, :])  # a b^T
    return v @ ((vh @ fam.A @ v) * (u + u.swapaxes(-1, -2))) @ vh


def _eval_Gamma(spec: GeneratorSpec, dec: ClippedEig, unit=1.0) -> Optional[np.ndarray]:
    """unit times Gamma at dec's state, unit = 1j inside generator_matrix, or
    None where Gamma is identically zero: the none family, and nonEssential
    when every member's support is full.  rho^r comes from the spectrum."""
    fam = spec.gamma_family
    if fam.family == "none":
        return None
    if fam.family == "nonEssential":
        gam = _non_essential_gamma(fam, dec)
        return None if gam is None else unit * gam
    rr = dec.power(fam.r)
    return _power_gamma(spec, unit * fam.sigma, dec.rho, rr, None if spec._rows is None else rr @ dec.rho)


def _gamma_or_zeros(spec: GeneratorSpec, dec: ClippedEig) -> np.ndarray:
    gam = _eval_Gamma(spec, dec)
    return np.zeros(dec.rho.shape, dtype=complex) if gam is None else gam


def eval_Gamma(spec: GeneratorSpec, rho) -> np.ndarray:
    """Gamma(rho) for a Hermitian rho of the spec's dimension."""
    return _gamma_or_zeros(spec, ClippedEig(_hermitian(rho, _record(spec, GeneratorSpec, "spec").dim)))


def _by_spectrum(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """The spectral kernel: G from one eigendecomposition of rho, which also
    checks its eigenvalue floor."""
    dec = ClippedEig(rho)
    t = _eval_T(spec, dec)
    gam = _eval_Gamma(spec, dec, 1j)
    return t if gam is None else t + gam


def _by_products(spec: GeneratorSpec, n: int, rho: np.ndarray) -> np.ndarray:
    """The product kernel: G from rho^k = rho ... rho, k <= n, with no
    eigendecomposition and so no eigenvalue floor."""
    fam = spec.gamma_family
    p = _powers(rho, n)  # p[k] = rho^k
    t = _motion(spec.H, p[spec._tq])
    if fam.family == "none":
        return t
    r = int(fam.r)
    return t + _power_gamma(spec, 1j * fam.sigma, rho, p[r], None if spec._rows is None else p[r + 1])


def _minus_diag(a: np.ndarray, c) -> np.ndarray:
    """a - c I, c one value per member (for one state, a scalar, which
    subtracts cheaper than an array of one; see _per_member), written into
    a, which must be a fresh contiguous array."""
    d = a.shape[-1]
    a.reshape(a.shape[:-2] + (d * d,))[..., :: d + 1] -= _per_member(c, 1)
    return a


def generator_matrix(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """G = T + i Gamma at the given state, by the kernel the spec chose.

    The unchecked loop kernel: the integrators call it at every RK4 stage
    (unless the spec reads no state, see _fixed_generator) on
    a rho that is Hermitian by construction, so it checks nothing beyond the
    eigenvalue floor of the decomposition it takes, if it takes one: the
    spectral kernel (nonEssential always) takes one, the product kernel
    none.  The step loop checks the floor of each stepped state either way.
    Validate input with eval_T / eval_Gamma, which decompose rho, as the
    spectral kernel does.
    rho may be a stack (B, d, d), and spec a stack of B specs; G is then one
    generator per member.  Where Gamma is identically zero, G is T itself, which for
    vonNeumann is the spec's read-only H.
    """
    n = spec._products
    return _by_spectrum(spec, rho) if n is None else _by_products(spec, n, rho)


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
    _record(spec, GeneratorSpec, "spec")
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
    residual = float(_support_block_residuals(spec, _hermitian(rho, _record(spec, GeneratorSpec, "spec").dim)))
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
    them, and checked as one stack.  When a witness turns up, the generator
    is rewound and only the samples up to the witness are drawn again, so
    rng ends where a search that stops there leaves it.
    """
    if not _is_integer(sample_count, 0):
        raise ValidationError(f"sample_count must be an integer >= 0, got {sample_count}")
    d = _record(spec, GeneratorSpec, "spec").dim
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
    rng.bit_generator.state = start
    draw(i + 1)
    return EssentialityReport(essential=True, witness=rhos[i], n_samples=i + 1)
