import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SZ, bell_state, random_pure
from nlqd.errors import ValidationError
from nlqd.generators import random_density_matrix
from nlqd.linalg import (
    DensityMatrix,
    StateOperator,
    matrix_power,
    max_abs,
    mutual_information,
    partial_trace,
    purity,
    sqrt_factor,
    support_projector,
    tensor_product,
    von_neumann_entropy,
)


class TestMatrixPower:
    def test_diagonal_square(self):
        out = matrix_power(np.diag([0.5, 0.5]), 2.0)
        assert np.allclose(out, np.diag([0.25, 0.25]))

    def test_pure_state_idempotent(self, rng):
        rho = random_pure(3, rng)
        for s in (0.5, 1.0, 2.7):
            # fractional powers amplify the ~1e-16 spurious eigenvalues
            assert max_abs(matrix_power(rho, s) - rho) < 1e-7

    def test_diagonal_sqrt(self):
        out = matrix_power(np.diag([0.9, 0.1]), 0.5)
        assert np.allclose(np.diag(out).real, [np.sqrt(0.9), np.sqrt(0.1)])

    def test_identity_exponent(self, rng):
        rho = random_density_matrix(4, rng)
        assert max_abs(matrix_power(rho, 1.0) - rho) < 1e-12

    def test_commutes_with_base(self, rng):
        for d in range(2, 9):
            rho = random_density_matrix(d, rng)
            rs = matrix_power(rho, 0.7)
            assert max_abs(rs @ rho - rho @ rs) < 1e-10

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValidationError):
            matrix_power(np.eye(2) / 2, 0.0)

    def test_clips_tiny_negative_eigenvalues(self):
        rho = np.diag([1.0 + 5e-11, -5e-11])
        out = matrix_power(rho, 0.5)
        assert np.min(np.linalg.eigvalsh(out)) >= 0

    def test_rejects_large_negative_eigenvalues(self):
        with pytest.raises(ValidationError):
            matrix_power(np.diag([1.1, -0.1]), 0.5)


class TestTensorAndPartialTrace:
    def test_identity_product(self):
        assert np.allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        out = tensor_product(SZ, np.eye(2))
        assert np.allclose(np.diag(out).real, [1, 1, -1, -1])

    def test_basis_projector(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = tensor_product(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(out, expected)

    def test_product_state_marginal(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        w = tensor_product(a, b)
        assert max_abs(partial_trace(w, (2, 3), "K") - a) < 1e-12
        assert max_abs(partial_trace(w, (2, 3), "H") - b) < 1e-12

    def test_bell_marginal(self):
        red = partial_trace(bell_state(), (2, 2), "K")
        assert max_abs(red - np.eye(2) / 2) < 1e-12

    def test_trace_preserved(self, rng):
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(np.trace(partial_trace(w, (2, 2), "K")) - np.trace(w)) < 1e-12

    def test_linearity(self, rng):
        w1 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        w2 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        lhs = partial_trace(2.5 * w1 - 1j * w2, (2, 3), "H")
        rhs = 2.5 * partial_trace(w1, (2, 3), "H") - 1j * partial_trace(w2, (2, 3), "H")
        assert max_abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(5), (2, 2), "K")


class TestSupportProjector:
    def test_full_rank(self):
        assert np.allclose(support_projector(np.diag([0.6, 0.4])), np.eye(2))

    def test_pure(self, rng):
        rho = random_pure(3, rng)
        assert max_abs(support_projector(rho) - rho) < 1e-10

    def test_diagonal_rank_two(self):
        p = support_projector(np.diag([0.5, 0.5, 0.0]))
        assert np.allclose(p, np.diag([1.0, 1.0, 0.0]))

    def test_idempotent_and_absorbing(self, rng):
        for d in (3, 5):
            rho = random_density_matrix(d, rng, rank=d - 1)
            p = support_projector(rho)
            assert max_abs(p @ p - p) < 1e-10
            assert max_abs(p @ rho - rho) < 1e-9
            assert max_abs(rho @ p - rho) < 1e-9

    def test_zero_matrix_errors(self):
        with pytest.raises(ValidationError):
            support_projector(np.zeros((2, 2)))

    def test_rel_tol_bounds(self):
        with pytest.raises(ValidationError):
            support_projector(np.eye(2) / 2, rel_tol=2.0)


class TestSqrtFactor:
    def test_diagonal(self):
        g = sqrt_factor(np.diag([0.25, 0.75]))
        assert np.allclose(np.diag(g.matrix).real, [0.5, np.sqrt(0.75)])

    def test_pure_state_is_projector(self, rng):
        rho = random_pure(4, rng)
        g = sqrt_factor(rho)
        assert max_abs(g.matrix - rho) < 1e-7

    def test_gauge_freedom(self, rng):
        rho = random_density_matrix(3, rng)
        g = sqrt_factor(rho).matrix
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(a)
        g2 = g @ u
        assert max_abs(g2 @ g2.conj().T - rho) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 8))
    def test_reconstruction_random(self, seed, dim):
        rho = random_density_matrix(dim, np.random.default_rng(seed))
        g = sqrt_factor(rho)
        assert max_abs(g.density() - rho) <= 1e-10


class TestDiagnostics:
    def test_pure_state(self, rng):
        rho = random_pure(3, rng)
        assert abs(purity(rho) - 1.0) < 1e-10
        assert abs(von_neumann_entropy(rho)) < 1e-8

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - np.log(2)) < 1e-12

    def test_bell_mutual_information(self):
        assert abs(mutual_information(bell_state(), (2, 2)) - 2 * np.log(2)) < 1e-8

    def test_mutual_information_nonnegative(self, rng):
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            assert mutual_information(rho, (2, 2)) >= -1e-9


class TestStateTypes:
    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(matrix=np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(matrix=np.eye(2))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(ValidationError):
            DensityMatrix(matrix=np.diag([1.2, -0.2]))

    def test_state_operator_norm(self):
        with pytest.raises(ValidationError):
            StateOperator(matrix=np.eye(2))
        StateOperator(matrix=np.eye(2) / np.sqrt(2))
