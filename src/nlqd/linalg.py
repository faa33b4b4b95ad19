"""Dense complex-matrix primitives.

Hermitian spectral decompositions, fractional powers, tensor products,
partial traces, support projectors, square-root factorization and the
scalar diagnostics (purity, entropy, mutual information) everything else
is built on.  All functions are pure.  A public function takes a plain
ndarray or any wrapper that holds one in ``.matrix``; the thin dataclass
wrappers validate the physical invariants once at construction time, through
the same input helpers.  ``dagger``, ``partial_trace``, the clipped spectrum,
purity and the entropies also take a stack of matrices with a leading batch
axis, so a monitor reads a whole trajectory in one call.
"""

from __future__ import annotations

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


def is_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> bool:
    return max_abs(a - dagger(a)) <= tol


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def hermitian_eigvals(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part (a + a^dag) / 2."""
    return np.linalg.eigvalsh((a + dagger(a)) / 2)


def state_violation(m: np.ndarray, herm_tol: float, trace_tol: float, eig_tol: float):
    """The first density-matrix invariant m breaks, as a phrase, or None."""
    if max_abs(m - dagger(m)) > herm_tol:
        return f"is not Hermitian to {herm_tol:g}"
    if abs(np.trace(m) - 1.0) > trace_tol:
        return f"has trace {np.trace(m)} != 1 to {trace_tol:g}"
    lo = float(np.min(hermitian_eigvals(m)))
    if lo < -eig_tol:
        return f"has eigenvalue {lo} < -{eig_tol:g}"
    return None


# The input rule: a public entry point takes its matrices through one of
# _square, _hermitian and _state, which unwrap .matrix from any wrapper and
# raise ValidationError.  The per-stage kernels add no Hermiticity check.


def _square(a, dim: int | None = None) -> np.ndarray:
    """a as a complex square matrix or a stack (..., d, d) of them; with dim,
    as one dim x dim matrix."""
    m = np.asarray(getattr(a, "matrix", a), dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape != (dim, dim):
        raise ValidationError(f"expected a {dim} x {dim} matrix, got shape {m.shape}")
    return m


def _hermitian(a, dim: int | None = None) -> np.ndarray:
    """_square(a, dim), Hermitian to INPUT_HERM_TOL."""
    m = _square(a, dim)
    if not is_hermitian(m, INPUT_HERM_TOL):
        raise ValidationError(f"matrix is not Hermitian to {INPUT_HERM_TOL:g}")
    return m


def _state(a, dim: int | None = None) -> np.ndarray:
    """_square(a, dim), one density matrix to the tolerances of DensityMatrix."""
    m = _square(a, dim)
    if m.ndim != 2:
        raise ValidationError(f"a state is one matrix, got shape {m.shape}")
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
        m = _square(self.matrix)
        if m.ndim != 2:
            raise ValidationError(f"a state operator is one matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        norm = np.trace(m.conj().T @ m).real
        if abs(norm - 1.0) > HS_NORM_TOL:
            raise ValidationError(f"state operator HS norm {norm} != 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def density(self) -> np.ndarray:
        return self.matrix @ self.matrix.conj().T


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The package's one Hermitian eigensolver call.  eigh reads the lower
    # triangle only: rho is Hermitian by construction on the integration
    # path, and the public entry points check their input first.
    return np.linalg.eigh(a)


class ClippedEig:
    """One eigendecomposition of rho with small negative eigenvalues clipped.

    Eigenvalues in [-1e-10, 0) come from integration roundoff and are
    treated as 0; anything more negative is a hard error.  The generator
    families evaluate several fractional powers of the same state; one
    decomposition per evaluation roughly halves the integration cost.
    rho may be a stack (..., d, d); ``support`` needs a single matrix.
    """

    def __init__(self, rho: np.ndarray):
        self.rho = np.asarray(rho, dtype=complex)
        w, v = _eigh(self.rho)
        lo = min(w[..., 0].flat)  # the lowest eigenvalue over a stack
        if lo < -EIG_NEG_TOL:
            raise ValidationError(f"matrix has eigenvalue {lo} < -1e-10")
        self.eigenvalues = np.maximum(w, 0.0)
        self.eigenvectors = v

    def power(self, s: float) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :] ** s) @ dagger(v)

    def support(self, rel_tol: float = SUPPORT_REL_TOL) -> np.ndarray:
        """Projector onto the eigenvectors above rel_tol times the largest eigenvalue."""
        if not (0.0 < rel_tol < 1.0):
            raise ValidationError(f"rel_tol must lie in (0, 1), got {rel_tol}")
        w = self.eigenvalues
        if w.ndim != 1:
            raise ValidationError("support projector of a stack of matrices")
        lmax = float(np.max(w))
        if lmax <= 0.0:
            raise ValidationError("support projector of a (numerically) zero matrix")
        v = self.eigenvectors[:, w > rel_tol * lmax]
        return v @ v.conj().T


def matrix_power(rho, s: float) -> np.ndarray:
    """Hermitian PSD power rho^s via the spectral decomposition, s > 0."""
    if s <= 0:
        raise ValidationError(f"matrix_power exponent must be > 0, got {s}")
    return ClippedEig(_hermitian(rho)).power(s)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; the first factor carries the major (slow) index."""
    return np.kron(_square(a), _square(b))


def partial_trace(w, dims: tuple[int, int], over: str) -> np.ndarray:
    """Partial trace of a matrix on H (x) K over the named factor.

    ``dims`` is (d_H, d_K); ``over`` is "H" or "K".  H is the major index
    in the flattened product basis.  A leading batch axis is kept.
    """
    d_h, d_k = dims
    w = _square(w)
    if w.shape[-1] != d_h * d_k:
        raise ValidationError(f"partial_trace: shape {w.shape} != {d_h * d_k}")
    t = w.reshape(w.shape[:-2] + (d_h, d_k, d_h, d_k))
    if over == "K":
        return np.trace(t, axis1=-3, axis2=-1)
    if over == "H":
        return np.trace(t, axis1=-4, axis2=-2)
    raise ValidationError(f"partial_trace: over must be 'H' or 'K', got {over!r}")


def support_projector(rho, rel_tol: float = SUPPORT_REL_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with lambda_i
    above rel_tol times the largest eigenvalue."""
    return ClippedEig(_hermitian(rho)).support(rel_tol)


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
    return entropy_of_spectrum(ClippedEig(_hermitian(rho)).eigenvalues)


def mutual_information(rho_hk, dims: tuple[int, int]) -> float:
    """S(rho_H) + S(rho_K) - S(rho_HK)."""
    m = _square(rho_hk)
    s_h = von_neumann_entropy(partial_trace(m, dims, "K"))
    s_k = von_neumann_entropy(partial_trace(m, dims, "H"))
    return s_h + s_k - von_neumann_entropy(m)
