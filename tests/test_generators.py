import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, SZ, random_hermitian, random_pure
from nlqd.errors import DegenerateConstraintError, ValidationError
from nlqd.generators import (
    GammaFamily,
    GeneratorSpec,
    TFamily,
    check_polchinski_condition,
    check_zero_mean,
    classify_dissipative_part,
    eval_Gamma,
    eval_T,
    make_zero_mean,
    random_density_matrix,
    solve_lagrange_parameters,
)
from nlqd.linalg import max_abs, purity, sqrt_factor


def power_law_spec(H, q=1.0, gamma=None):
    return GeneratorSpec(
        H=H, t_family=TFamily("powerLaw", q=q), gamma_family=gamma or GammaFamily("none")
    )


ALL_GAMMA_FAMILIES = [
    GammaFamily("none"),
    GammaFamily("zeroMean", sigma=0.7, r=2.0),
    GammaFamily("energyConserving", sigma=0.7, r=2.0),
    GammaFamily("nonEssential", r=2.0, A=SX),
]


class TestSpecValidation:
    def test_rejects_non_hermitian_H(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(H=np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_bad_q(self):
        with pytest.raises(ValidationError):
            TFamily("powerLaw", q=-1.0)

    def test_non_essential_needs_r_above_one(self):
        with pytest.raises(ValidationError):
            GammaFamily("nonEssential", r=1.0, A=SX)

    def test_non_essential_rejects_sigma(self):
        # _eval_Gamma never reads sigma for this family
        with pytest.raises(ValidationError):
            GammaFamily("nonEssential", sigma=0.5, r=2.0, A=SX)

    def test_non_essential_needs_hermitian_A(self):
        with pytest.raises(ValidationError):
            GammaFamily("nonEssential", r=2.0, A=np.array([[0, 1], [0, 0]]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: GammaFamily("none", sigma=0.5),
            lambda: GammaFamily("none", r=3.0),
            lambda: TFamily("vonNeumann", q=2.0),
        ],
        ids=["none-sigma", "none-r", "vonNeumann-q"],
    )
    def test_rejects_parameters_the_family_never_reads(self, make):
        with pytest.raises(ValidationError):
            make()


class TestEvalT:
    def test_von_neumann_returns_H(self, rng):
        spec = GeneratorSpec(H=SX)
        rho = random_density_matrix(2, rng)
        assert max_abs(eval_T(spec, rho) - SX) == 0.0

    def test_power_law_maximally_mixed(self):
        q = 1.7
        spec = power_law_spec(SZ, q=q)
        d = 2
        t = eval_T(spec, np.eye(d) / d)
        assert max_abs(t - 2 * d ** (-q) * SZ) < 1e-12
        rho = np.eye(d) / d
        assert max_abs(t @ rho - rho @ t) < 1e-14

    def test_pure_state_commutator_reduction(self, rng):
        for q in (0.5, 1.0, 2.0):
            spec = power_law_spec(SX + 0.3 * SZ, q=q)
            rho = random_pure(2, rng)
            t = eval_T(spec, rho)
            assert max_abs((t @ rho - rho @ t) - (spec.H @ rho - rho @ spec.H)) < 1e-7


class TestEvalGamma:
    def test_zero_mean_pure_state(self, rng):
        sigma = 1.3
        spec = GeneratorSpec(
            H=SZ, gamma_family=GammaFamily("zeroMean", sigma=sigma, r=2.0)
        )
        rho = random_pure(2, rng)
        gam = eval_Gamma(spec, rho)
        assert max_abs(gam - sigma * (rho - np.eye(2))) < 1e-10
        # pure states feel no dissipation
        assert max_abs(gam @ rho + rho @ gam) < 1e-10

    def test_zero_mean_trace_condition(self, rng):
        h = np.diag([1.0, 0.0, -1.0])  # the spec's dimension must match the states'
        spec = GeneratorSpec(H=h, gamma_family=GammaFamily("zeroMean", sigma=0.9, r=1.5))
        for _ in range(10):
            rho = random_density_matrix(3, rng)
            gam = eval_Gamma(spec, rho)
            assert abs(np.trace(gam @ rho)) < 1e-12

    def test_non_essential_frozen_example(self):
        # d=3, rho=diag(0.5,0.5,0), r=2, A coupling levels 1 and 3 only.
        a = np.zeros((3, 3), dtype=complex)
        a[0, 2] = a[2, 0] = 1.0
        spec = GeneratorSpec(
            H=np.zeros((3, 3)), gamma_family=GammaFamily("nonEssential", r=2.0, A=a)
        )
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        gam = eval_Gamma(spec, rho)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = expected[2, 0] = 0.5
        assert max_abs(gam - expected) < 1e-12
        p = np.diag([1.0, 1.0, 0.0])
        assert max_abs(p @ gam @ p) < 1e-12

    def test_non_essential_vanishes_on_full_rank(self, rng):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("nonEssential", r=2.0, A=SX))
        rho = random_density_matrix(2, rng)
        assert max_abs(eval_Gamma(spec, rho)) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 8), fam=st.integers(0, 3))
    def test_outputs_hermitian(self, seed, dim, fam):
        rng = np.random.default_rng(seed)
        h = random_hermitian(dim, rng)
        a = random_hermitian(dim, rng)
        families = [
            GammaFamily("none"),
            GammaFamily("zeroMean", sigma=0.7, r=2.0),
            GammaFamily("energyConserving", sigma=0.7, r=2.0),
            GammaFamily("nonEssential", r=2.0, A=a),
        ]
        spec = power_law_spec(h, q=1.3, gamma=families[fam])
        rho = random_density_matrix(dim, rng)
        try:
            t = eval_T(spec, rho)
            gam = eval_Gamma(spec, rho)
        except DegenerateConstraintError:
            return  # legal outcome for near-scalar H draws
        assert max_abs(t - t.conj().T) <= 1e-10
        assert max_abs(gam - gam.conj().T) <= 1e-10

    def test_zero_mean_for_all_dissipative_families(self, rng):
        for fam in ALL_GAMMA_FAMILIES:
            spec = power_law_spec(SZ + 0.2 * SX, gamma=fam)
            for _ in range(5):
                rho = random_density_matrix(2, rng)
                gam = eval_Gamma(spec, rho)
                assert abs(np.trace(gam @ rho)) < 1e-9

    def test_pure_state_reduction_all_families(self, rng):
        h = SZ + 0.4 * SX
        for fam in ALL_GAMMA_FAMILIES:
            spec = power_law_spec(h, q=1.5, gamma=fam)
            for _ in range(5):
                rho = random_pure(2, rng)
                t = eval_T(spec, rho)
                gam = eval_Gamma(spec, rho)
                motion = (t @ rho - rho @ t) + 1j * (gam @ rho + rho @ gam)
                assert max_abs(motion - (h @ rho - rho @ h)) < 1e-9


class TestLagrangeParameters:
    def test_identity_hamiltonian_degenerate(self, rng):
        rho = random_density_matrix(2, rng)
        with pytest.raises(DegenerateConstraintError):
            solve_lagrange_parameters(np.eye(2), 1.0, 1.0, rho)

    def test_frozen_example(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        zeta, xi = solve_lagrange_parameters(SZ, 1.0, 1.0, rho)
        # back-substitution: both neutrality conditions hold
        gam = 1.0 * (rho - zeta * SZ - xi * np.eye(2))
        assert abs(np.trace(gam @ rho)) < 1e-12
        assert abs(np.trace(SZ @ gam @ rho)) < 1e-12
        assert zeta == pytest.approx(0.25, abs=1e-12)
        assert xi == pytest.approx(0.5, abs=1e-12)

    def test_anticommutator_energy_neutral(self, rng):
        spec = GeneratorSpec(
            H=SZ + 0.3 * SX, gamma_family=GammaFamily("energyConserving", sigma=0.8, r=2.0)
        )
        rho = random_density_matrix(2, rng)
        gam = eval_Gamma(spec, rho)
        # d<H>/dt contribution of {Gamma, rho} is 2 Re Tr[H Gamma rho]
        assert abs(np.trace(spec.H @ (gam @ rho + rho @ gam)).real) < 1e-10


class TestZeroMeanCheck:
    def test_none_family_trivially_passes(self, rng):
        spec = GeneratorSpec(H=SZ)
        rep = check_zero_mean(spec, [random_density_matrix(2, rng) for _ in range(5)])
        assert rep.passed

    def test_zero_mean_family_passes(self, rng):
        h = np.diag([1.0, 0.0, 0.0, -1.0])  # the spec's dimension must match the samples'
        spec = GeneratorSpec(H=h, gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0))
        samples = [random_density_matrix(4, rng) for _ in range(50)]
        rep = check_zero_mean(spec, samples)
        assert rep.passed
        assert np.max(rep.residuals) <= 1e-9

    def test_broken_control_fails_with_purity_residual(self, rng):
        spec = GeneratorSpec(H=np.diag([1.0, 0.0, -1.0]))
        samples = [random_density_matrix(3, rng) for _ in range(10)]
        rep = check_zero_mean(spec, samples, gamma_fn=lambda rho: rho)
        assert not rep.passed
        oracle = np.array([np.sum(np.linalg.eigvalsh(s) ** 2) for s in samples])
        assert np.allclose(rep.residuals, oracle, atol=1e-10)


class TestMakeZeroMean:
    def test_annihilates_eigenvectors(self, rng):
        d = 2
        # self-adjoint superoperator: diagonal in a Hermitian operator basis
        basis = [np.eye(2) / np.sqrt(2), SX / np.sqrt(2), SZ / np.sqrt(2), SZ @ SX / np.sqrt(2)]
        lams = [2.0, -1.0, 0.5, 3.0]
        a = sum(
            lam * np.outer(b.reshape(-1), b.conj().reshape(-1)) for lam, b in zip(lams, basis)
        )
        for b in basis:
            assert max_abs(make_zero_mean(a, b)) < 1e-12

    def test_two_eigenvector_combination(self):
        basis = [np.eye(2) / np.sqrt(2), SX / np.sqrt(2)]
        lams = [2.0, -1.0]
        full = basis + [SZ / np.sqrt(2), (SZ @ SX) / np.sqrt(2)]
        full_lams = lams + [0.0, 0.0]
        a = sum(
            lam * np.outer(b.reshape(-1), b.conj().reshape(-1))
            for lam, b in zip(full_lams, full)
        )
        mu, nu = 0.6, 0.8j
        w = mu * basis[0] + nu * basis[1]
        eps = (abs(mu) ** 2 * lams[0] + abs(nu) ** 2 * lams[1]) / (abs(mu) ** 2 + abs(nu) ** 2)
        expected = mu * (lams[0] - eps) * basis[0] + nu * (lams[1] - eps) * basis[1]
        assert max_abs(make_zero_mean(a, w) - expected) < 1e-12

    def test_identity_superoperator(self, rng):
        a = np.eye(4)
        w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert max_abs(make_zero_mean(a, w)) < 1e-12

    def test_orthogonality_of_output(self, rng):
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = make_zero_mean(a, w)
        assert abs(np.trace(w.conj().T @ out)) < 1e-10

    def test_rejects_zero_w(self):
        with pytest.raises(ValidationError):
            make_zero_mean(np.eye(4), np.zeros((2, 2)))


class TestPolchinskiCondition:
    def test_non_essential_passes(self, rng):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("nonEssential", r=2.0, A=SX))
        for rank in (1, 2):
            rho = random_density_matrix(2, rng, rank=rank)
            assert check_polchinski_condition(spec, rho).passed

    def test_zero_mean_fails_on_full_rank(self):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0))
        res = check_polchinski_condition(spec, np.diag([0.7, 0.3]))
        assert not res.passed
        assert res.residual > 1e-3

    def test_gamma_zero_passes(self, rng):
        spec = GeneratorSpec(H=SZ)
        assert check_polchinski_condition(spec, random_density_matrix(2, rng)).passed

    def test_one_decomposition_per_check(self, rng, monkeypatch):
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        for gam in (
            GammaFamily("none"),
            GammaFamily("zeroMean", sigma=1.0, r=2.0),
            GammaFamily("energyConserving", sigma=1.0, r=2.0),
            GammaFamily("nonEssential", r=2.0, A=random_hermitian(3, rng)),
        ):
            spec = GeneratorSpec(H=random_hermitian(3, rng), gamma_family=gam)
            for rank in (1, 3):
                calls.clear()
                check_polchinski_condition(spec, random_density_matrix(3, rng, rank))
                assert len(calls) == 1


class TestClassifier:
    def test_non_essential_family(self):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("nonEssential", r=2.0, A=SX))
        rep = classify_dissipative_part(spec, sample_count=60)
        assert not rep.essential
        assert "falsify" in rep.note

    def test_zero_mean_is_essential(self):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0))
        rep = classify_dissipative_part(spec, sample_count=60)
        assert rep.essential
        assert rep.witness is not None
        # the witness must really violate the support-block criterion
        assert not check_polchinski_condition(spec, rep.witness).passed

    def test_no_gamma(self):
        rep = classify_dissipative_part(GeneratorSpec(H=SZ), sample_count=20)
        assert not rep.essential
