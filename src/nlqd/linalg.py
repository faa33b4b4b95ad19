"""Dense complex-matrix primitives.

Hermitian spectral decompositions, fractional powers, tensor products,
partial traces (of a matrix, or read off a square-root factor by Gram
products), support projectors, square-root factorization and the
scalar diagnostics (purity, entropy, mutual information) everything else
is built on.  All functions are pure.  A public function takes a plain
ndarray or any wrapper that holds one in ``.matrix``; the thin dataclass
wrappers validate the physical invariants once at construction time, through
the same input helpers.  ``dagger``, ``partial_trace``, ``ClippedEig`` (its
spectrum, powers and support projector), purity and the entropies also take
a stack of matrices with a leading batch axis, so the step loop evaluates a
stack of states at once.  Every spectrum comes from ``_eigh`` (with vectors)
or ``_eigvalsh`` (values only); the monitors and the CP audit read the step
loop's ``_eigvalsh`` of each recorded state instead of decomposing it again.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Tolerances fixed once, used by every consumer.
HERM_TOL = 1e-12
EIG_NEG_TOL = 1e-10
TRACE_TOL = 1e-12
HS_NORM_TOL = 1e-10
SUPPORT_REL_TOL = 1e-10
# Eigenvalues below d * SPECTRUM_EPS * lambda_max are eigensolver roundoff;
# the entropies skip them, since -w ln w turns 1e-16 into 4e-15.
SPECTRUM_EPS = float(np.finfo(float).eps)
# Hermiticity asked of the operator input of a public entry point.
INPUT_HERM_TOL = 1e-10


def max_abs(a) -> float:
    """Entrywise max-norm ||A||_max."""
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _trace(a: np.ndarray) -> np.ndarray:
    """Real part of the trace over the last two axes."""
    return a.trace(axis1=-2, axis2=-1).real


def state_violations(m: np.ndarray, herm_tol: float, trace_tol: float, eig_tol: float) -> list:
    """The first density-matrix invariant each member of a stack (N, d, d)
    breaks, as a phrase, or None: one pass per invariant over the stack.

    Each check sees only the members that kept the ones before it: eigvalsh
    takes [[nan, 0], [0, 1]] to [0, -0] without an error, so a non-finite
    member must never reach it.
    """
    m = np.asarray(m)
    finite = np.isfinite(m).all(axis=(-2, -1))
    phrases = [None if ok else "has non-finite entries" for ok in finite.tolist()]
    rows = np.flatnonzero(finite)
    f = m if rows.size == len(m) else m[rows]
    herm_bad = np.max(np.abs(f - dagger(f)), axis=(-2, -1), initial=0.0) > herm_tol
    trace = np.trace(f, axis1=-2, axis2=-1)
    trace_bad = ~herm_bad & (np.abs(trace - 1.0) > trace_tol)
    spectral = ~(herm_bad | trace_bad)
    g = f if spectral.all() else f[spectral]
    lo = np.min(_eigvalsh((g + dagger(g)) / 2), axis=-1)  # the Hermitian part: herm_tol > eig_tol
    for i in rows[herm_bad]:
        phrases[i] = f"is not Hermitian to {herm_tol:g}"
    for i, tr in zip(rows[trace_bad], trace[trace_bad]):
        phrases[i] = f"has trace {tr} != 1 to {trace_tol:g}"
    for i, w in zip(rows[spectral], lo.tolist()):
        if not w >= -eig_tol:  # a NaN eigenvalue, LAPACK's non-convergence, fails too
            phrases[i] = f"has eigenvalue {w} < -{eig_tol:g}"
    return phrases


def state_violation(m: np.ndarray, herm_tol: float, trace_tol: float, eig_tol: float):
    """The first density-matrix invariant one matrix m breaks, as a phrase, or None."""
    return state_violations(np.asarray(m)[None], herm_tol, trace_tol, eig_tol)[0]


# The input rule: every public entry point and constructor takes its matrices
# through _square, _hermitian or _state, which unwrap .matrix, name the input
# as what and raise ValidationError, its dims through _factor_dims, its
# positive reals through _positive, its other reals through _finite and its
# counts through _is_integer.  The per-stage kernels check nothing.


def _square(a, dim: int | None = None, what: str = "matrix", one: bool = False) -> np.ndarray:
    """a as a complex square matrix or, unless one, a stack (..., d, d) of
    them; with dim, as one dim x dim matrix."""
    try:
        m = np.asarray(getattr(a, "matrix", a), dtype=complex)
    except (TypeError, ValueError) as exc:  # a string, a ragged list
        raise ValidationError(f"{what} is not a complex array: {exc}") from exc
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    if one and m.ndim != 2:
        raise ValidationError(f"{what} must be one matrix, got shape {m.shape}")
    if dim is not None and m.shape != (dim, dim):
        raise ValidationError(f"{what} must be {dim} x {dim}, got shape {m.shape}")
    return m


def _hermitian(a, dim: int | None = None, what: str = "matrix", one: bool = False) -> np.ndarray:
    """_square(a, dim, what, one), Hermitian to INPUT_HERM_TOL."""
    m = _square(a, dim, what, one)
    if not max_abs(m - dagger(m)) <= INPUT_HERM_TOL:  # written so that NaN fails it too
        raise ValidationError(f"{what} is not Hermitian to {INPUT_HERM_TOL:g}")
    return m


def _positive(x, what: str):
    """x, a real number and not a bool, finite and > 0 (so not NaN)."""
    if not (isinstance(x, numbers.Real) and not isinstance(x, bool) and 0 < x < np.inf):
        raise ValidationError(f"{what} must be finite and > 0, got {x}")
    return x


def _finite(x, what: str):
    """x, a real number and not a bool, finite (so not NaN)."""
    if not (isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) < np.inf):
        raise ValidationError(f"{what} must be finite, got {x}")
    return x


def _is_integer(x, lo: int) -> bool:
    """x is an integer >= lo, and not a bool; each caller words its own error."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= lo


def _factor_dims(dims, dim: int | None = None) -> tuple[int, int]:
    """dims as (d_H, d_K): two integers >= 1, whose product is dim when given."""
    try:
        d_h, d_k = dims
    except (TypeError, ValueError):
        d_h = d_k = 0  # not a pair: fails the rule below
    if not (_is_integer(d_h, 1) and _is_integer(d_k, 1)):
        raise ValidationError(f"dims must be two integers >= 1, got {dims!r}")
    if dim is not None and d_h * d_k != dim:
        raise ValidationError(f"dims {dims} do not multiply to the dimension {dim}")
    return int(d_h), int(d_k)


def _state(a, dim: int | None = None) -> np.ndarray:
    """_square(a, dim), one density matrix to the tolerances of DensityMatrix."""
    m = _square(a, dim, "state", one=True)
    problem = state_violation(m, HERM_TOL, TRACE_TOL, EIG_NEG_TOL)
    if problem:
        raise ValidationError(f"density matrix {problem}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace state."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _state(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class StateOperator:
    """Square-root factor gamma with rho = gamma gamma^dagger, unit HS norm."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _square(self.matrix, what="state operator", one=True)
        object.__setattr__(self, "matrix", m)
        norm = np.trace(m.conj().T @ m).real
        if abs(norm - 1.0) > HS_NORM_TOL:
            raise ValidationError(f"state operator HS norm {norm} != 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def density(self) -> np.ndarray:
        return self.matrix @ self.matrix.conj().T


def _member(bad: np.ndarray) -> str:
    """' (member i)' for the first True of a stack's mask; '' for one matrix."""
    return f" (member {int(np.flatnonzero(bad)[0])})" if bad.ndim else ""


def _name_member(exc: Exception, labels) -> Exception:
    """exc, its ' (member i)' re-worded in place as ' (labels[i])', or dropped
    for a None label: a stack's builder names its members so, on error only."""
    head, sep, tail = exc.args[0].partition(" (member ")
    if sep and labels is not None:
        i, _, tail = tail.partition(")")
        label = labels[int(i)]
        exc.args = (head + ("" if label is None else f" ({label})") + tail,)
    return exc


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a complex Hermitian matrix or
    stack, from its lower triangle.

    The package's one Hermitian eigensolver call that returns vectors.  It
    calls the LAPACK gufunc that numpy.linalg.eigh wraps, without the wrapper:
    its type checks, error state and result wrapping cost as much as the solve
    itself at d <= 4.  Without them a non-convergence returns NaN eigenvalues
    instead of raising, which the eigenvalue floor rejects.  a must be
    complex: rho is Hermitian by construction on the integration path, and
    the public entry points check their input first.
    """
    return np.linalg._umath_linalg.eigh_lo(a, signature="D->dD")


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of _eigh alone, from the values-only gufunc that
    numpy.linalg.eigvalsh wraps: the decomposition of a stage or a step that
    reads no eigenvector.  The same input rules and NaN behaviour as _eigh."""
    return np.linalg._umath_linalg.eigvalsh_lo(a, signature="D->d")


def _floored(w: np.ndarray, what: str = "matrix") -> np.ndarray:
    """The eigenvalue floor: w (..., d) with eigenvalues in [-EIG_NEG_TOL, 0)
    clipped to 0 as integration roundoff (w itself if none is negative); lower
    ones, or a non-finite spectrum, raise naming what and the first failing member."""
    if not (lo := w.min()) >= -EIG_NEG_TOL:  # written so that NaN fails it too
        lo = w.min(axis=-1)
        bad = ~(lo >= -EIG_NEG_TOL)
        raise ValidationError(f"{what}{_member(bad)} has eigenvalue {lo[bad].flat[0]} < -{EIG_NEG_TOL:g}")
    return w if lo >= 0.0 else np.maximum(w, 0.0)


class ClippedEig:
    """One eigendecomposition of rho with small negative eigenvalues clipped.

    Eigenvalues in [-EIG_NEG_TOL, 0) come from integration roundoff and are
    treated as 0; anything more negative, or a non-finite spectrum, is a hard
    error (the eigenvalue floor).  The spectral generator kernel reads every
    power, projector and scalar it needs from this one decomposition: one
    eigh per RK4 stage.  rho may be a stack (..., d, d); an error names the
    first failing member.
    """

    def __init__(self, rho: np.ndarray):
        self.rho = np.asarray(rho, dtype=complex)
        w, v = _eigh(self.rho)
        self.eigenvalues = _floored(w)
        self.eigenvectors = v
        self._vh = None

    @property
    def vh(self) -> np.ndarray:
        """V^dag, formed once per decomposition on first use."""
        if self._vh is None:
            self._vh = dagger(self.eigenvectors)
        return self._vh

    def spectral(self, f: np.ndarray) -> np.ndarray:
        """V diag(f) V^dag for one weight vector f (..., d) per member."""
        return (self.eigenvectors * f[..., None, :]) @ self.vh

    def power(self, s: float) -> np.ndarray:
        return self.spectral(self.eigenvalues**s)

    def support_mask(self) -> np.ndarray:
        """True for the eigenvalues above SUPPORT_REL_TOL times the largest
        one, one row per member of a stack."""
        w = self.eigenvalues
        lmax = w[..., -1:]  # the spectrum ascends
        zero = lmax[..., 0] <= 0.0
        if zero.any():
            raise ValidationError(f"support projector of a (numerically) zero matrix{_member(zero)}")
        return w > SUPPORT_REL_TOL * lmax

    def support(self) -> np.ndarray:
        """Projector onto the eigenvectors above SUPPORT_REL_TOL times the
        largest eigenvalue, one per member of a stack."""
        return self.spectral(self.support_mask())


def matrix_power(rho, s: float) -> np.ndarray:
    """Hermitian PSD power rho^s via the spectral decomposition, 0 < s < inf."""
    return ClippedEig(_hermitian(rho)).power(_positive(s, "matrix_power exponent"))


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; the first factor carries the major (slow) index."""
    return np.kron(_square(a), _square(b))


def partial_trace(w, dims: tuple[int, int], over: str) -> np.ndarray:
    """Partial trace of a matrix on H (x) K over the named factor.

    ``dims`` is (d_H, d_K); ``over`` is "H" or "K".  H is the major index
    in the flattened product basis.  A leading batch axis is kept.
    """
    w = _square(w)
    dims = _factor_dims(dims, w.shape[-1])
    if over not in ("H", "K"):
        raise ValidationError(f"partial_trace: over must be 'H' or 'K', got {over!r}")
    return _partial_trace(w, dims, over)


def _partial_trace(w: np.ndarray, dims: tuple[int, int], over: str) -> np.ndarray:
    """partial_trace without its input checks: the per-stage kernel."""
    d_h, d_k = dims
    t = w.reshape(w.shape[:-2] + (d_h, d_k, d_h, d_k))
    return np.trace(t, axis1=-3, axis2=-1) if over == "K" else np.trace(t, axis1=-4, axis2=-2)


def _factor_marginals(y: np.ndarray, dims: tuple[int, int], over: str) -> np.ndarray:
    """The partial trace over the named factor of rho = y y^dag on H (x) K,
    read off the factor y (..., D, n), one or a stack, by one Gram product
    without forming rho: Tr_K rho = Y Y^dag for Y = y reshaped
    (d_H, d_K n), a view; Tr_H rho the same for y reshaped (d_H, d_K, n)
    with H and K swapped, then (d_K, d_H n), one copy.  over is "K", "H",
    or "KH" for d_H = d_K: Tr_K and Tr_H stacked along axis -3 in that
    order, both reshapes in one Gram product.  The per-stage kernel."""
    d_h, d_k = dims
    lead, n = y.shape[:-2], y.shape[-1]
    if over == "K":
        z = y.reshape(lead + (d_h, d_k * n))
    else:
        t = y.reshape(lead + (d_h, d_k, n))
        if over == "H":
            z = t.swapaxes(-3, -2).reshape(lead + (d_k, d_h * n))
        else:
            z = np.concatenate((t, t.swapaxes(-3, -2)), axis=-3).reshape(lead + (2, d_h, d_k * n))
    return z @ dagger(z)


def support_projector(rho) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with lambda_i
    above SUPPORT_REL_TOL times the largest eigenvalue."""
    return ClippedEig(_hermitian(rho)).support()


def sqrt_factor(rho: DensityMatrix | np.ndarray) -> StateOperator:
    """Canonical (Hermitian positive) square root of a density matrix.

    Any other factor differs by a right unitary gauge gamma' = gamma U.
    """
    return StateOperator(matrix=ClippedEig(_hermitian(rho)).power(0.5))


def purity(rho):
    """Tr[rho^2]; a stack of matrices gives one per matrix."""
    m = _square(rho)
    return np.trace(m @ m, axis1=-2, axis2=-1).real


def entropy_of_spectrum(w: np.ndarray):
    """-sum lambda_i ln lambda_i over the last axis of w, skipping eigenvalues
    below the eigensolver's resolution d * SPECTRUM_EPS * lambda_max."""
    keep = w > w.shape[-1] * SPECTRUM_EPS * np.max(w, axis=-1, keepdims=True)
    x = np.where(keep, w, 1.0)
    return 0.0 - np.sum(x * np.log(x), axis=-1)  # 0.0 - s keeps an empty sum at +0


def von_neumann_entropy(rho):
    """Entropy of rho's clipped spectrum; a stack of matrices gives one per matrix."""
    return entropy_of_spectrum(_floored(_eigvalsh(_hermitian(rho))))


def mutual_information(rho_hk, dims: tuple[int, int]) -> float:
    """S(rho_H) + S(rho_K) - S(rho_HK)."""
    m = _square(rho_hk)
    s_h = von_neumann_entropy(partial_trace(m, dims, "K"))
    s_k = von_neumann_entropy(partial_trace(m, dims, "H"))
    return s_h + s_k - von_neumann_entropy(m)
