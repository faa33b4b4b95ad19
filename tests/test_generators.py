import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, SZ, random_hermitian, random_pure
from nlqd import generators, linalg
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
from nlqd.linalg import SUPPORT_REL_TOL, ClippedEig, dagger, max_abs, purity, sqrt_factor


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

    def test_h_is_a_read_only_copy(self):
        h = SZ.astype(complex)
        spec = GeneratorSpec(H=h)
        assert h.flags.writeable
        assert not spec.H.flags.writeable
        assert not np.shares_memory(spec.H, h)

    @pytest.mark.parametrize("field", ["t_family", "gamma_family"])
    def test_rejects_a_family_of_another_type(self, field):
        # t_family="powerLaw" used to raise AttributeError
        with pytest.raises(ValidationError, match="TFamily"):
            GeneratorSpec(H=SZ, **{field: "powerLaw"})

    def test_rejects_bad_q(self):
        with pytest.raises(ValidationError):
            TFamily("powerLaw", q=-1.0)

    @pytest.mark.parametrize("x", [np.nan, np.inf], ids=["nan", "inf"])
    def test_t_family_rejects_a_non_finite_q(self, x):
        with pytest.raises(ValidationError, match="finite"):
            TFamily("powerLaw", q=x)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: GammaFamily("zeroMean", sigma=0.5, r=x),
            lambda x: GammaFamily("zeroMean", sigma=x, r=2.0),
            lambda x: GammaFamily("energyConserving", sigma=0.5, r=x),
            lambda x: GammaFamily("energyConserving", sigma=x, r=2.0),
            lambda x: GammaFamily("nonEssential", r=x, A=SX),
        ],
        ids=["zeroMean-r", "zeroMean-sigma", "energyConserving-r", "energyConserving-sigma", "nonEssential-r"],
    )
    def test_gamma_family_rejects_a_non_finite_parameter(self, make, x):
        # each used to construct, and the run failed later or not at all
        with pytest.raises(ValidationError, match="finite"):
            make(x)

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
            lambda: GammaFamily("none", A=SX),
            lambda: GammaFamily("zeroMean", sigma=0.5, r=2.0, A=SX),
            lambda: GammaFamily("energyConserving", sigma=0.5, r=2.0, A=SX),
        ],
        ids=["none-sigma", "none-r", "vonNeumann-q", "none-A", "zeroMean-A", "energyConserving-A"],
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


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def gamma_by_products(spec, rho):
    """Each Gamma family in its matrix-product form, powers from np.linalg.eigh:
    the oracle of the spectral kernels."""
    fam, eye = spec.gamma_family, np.eye(rho.shape[-1])
    w, v = np.linalg.eigh(rho)
    w = np.maximum(w, 0.0)

    def power(s):
        return (v * w[..., None, :] ** s) @ dagger(v)

    def tr(a):
        return a.trace(axis1=-2, axis2=-1).real

    if fam.family == "zeroMean":
        rr = power(fam.r)
        c = tr(rr @ rho) / tr(rho)
        return fam.sigma * (rr - c[..., None, None] * eye)
    if fam.family == "energyConserving":
        h, rp = spec.H, power(fam.r + 1.0)
        tr_rho, tr_h, tr_h2, b1, b2 = tr(rho), tr(h @ rho), tr(h @ h @ rho), tr(rp), tr(h @ rp)
        det = tr_h * tr_h - tr_rho * tr_h2
        zeta = (b1 * tr_h - b2 * tr_rho) / det
        xi = (tr_h * b2 - tr_h2 * b1) / det
        return fam.sigma * (power(fam.r) - zeta[..., None, None] * h - xi[..., None, None] * eye)
    keep = w > SUPPORT_REL_TOL * w.max(axis=-1, keepdims=True)
    p = (v * keep[..., None, :]) @ dagger(v)
    b = (eye - power(fam.r - 1.0)) @ fam.A @ (eye - p)
    return b + dagger(b)


class TestSpectralKernels:
    FAMILIES = ("zeroMean", "energyConserving", "nonEssential")

    def spec(self, fam, d, rng):
        h = random_hermitian(d, rng)
        if fam == "nonEssential":
            return power_law_spec(h, 1.3, GammaFamily(fam, r=1.7, A=random_hermitian(d, rng)))
        return power_law_spec(h, 1.3, GammaFamily(fam, sigma=0.7, r=1.7))

    @pytest.mark.parametrize("fam", FAMILIES)
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_match_the_matrix_product_form(self, rng, fam, d):
        for rank in sorted({1, d - 1, d}):
            spec, rho = self.spec(fam, d, rng), random_density_matrix(d, rng, rank)
            assert max_abs(eval_Gamma(spec, rho) - gamma_by_products(spec, rho)) <= 1e-14

    @pytest.mark.parametrize("fam", FAMILIES)
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_stack_matches_the_matrix_product_form(self, rng, fam, d):
        specs = [self.spec(fam, d, rng) for _ in range(3)]
        rhos = np.array([random_density_matrix(d, rng, rank) for rank in (1, max(1, d - 1), d)])
        stacked = generators._stack_specs(specs)
        got = generators._eval_Gamma(stacked, ClippedEig(rhos))
        assert got.shape == rhos.shape
        assert max_abs(got - gamma_by_products(stacked, rhos)) <= 1e-14
        for i in range(3):
            assert max_abs(got[i] - eval_Gamma(specs[i], rhos[i])) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_non_essential_on_a_full_support_is_t_itself(self, rng, d):
        # I - P_rho = 0 on a full support, so no Gamma is formed at all
        spec, rho = self.spec("nonEssential", d, rng), random_density_matrix(d, rng)
        t = generators._eval_T(spec, ClippedEig(rho))
        assert same_bits(generators.generator_matrix(spec, rho), t)
        gam = eval_Gamma(spec, rho)
        assert gam.shape == (d, d) and not gam.any()

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_non_essential_mixed_stack_members_match_one_matrix_bitwise(self, rng, d):
        # A rank-1 member keeps the stack on the full formula; its full-rank
        # members get exact zeros from it, the same bits as the skip alone.
        specs = [self.spec("nonEssential", d, rng) for _ in range(3)]
        rhos = np.array([random_density_matrix(d, rng, rank) for rank in (d, 1, d)])
        stacked = generators._stack_specs(specs)
        got = generators.generator_matrix(stacked, rhos)
        for i in range(3):
            assert same_bits(got[i], generators.generator_matrix(specs[i], rhos[i])), i
        assert max_abs(got[1] - generators._eval_T(specs[1], ClippedEig(rhos[1]))) > 1e-3


    @pytest.mark.parametrize("edge", [-1, 0, 1], ids=["under", "at", "over"])
    def test_non_essential_one_state_support_edge_matches_its_one_member_stack_bitwise(self, rng, edge):
        # lambda_min just under, at and just over SUPPORT_REL_TOL lambda_max:
        # one state reads its spectrum's two ends as Python floats, its
        # one-member stack the mask; the support is full only over the edge
        spec = self.spec("nonEssential", 3, rng)
        lmin = SUPPORT_REL_TOL * 0.5
        lmin = lmin if edge == 0 else np.nextafter(lmin, edge * np.inf)
        rho = np.diag([lmin, 0.25, 0.5]).astype(complex)
        w = ClippedEig(rho).eigenvalues
        assert (w[0] > SUPPORT_REL_TOL * w[-1]) == (edge > 0) and (w[0] >= SUPPORT_REL_TOL * w[-1]) == (edge >= 0)
        one = generators.generator_matrix(spec, rho)
        assert same_bits(one, generators.generator_matrix(spec, rho[None])[0])
        t = generators._eval_T(spec, ClippedEig(rho))
        assert same_bits(one, t) if edge > 0 else max_abs(one - t) > 1e-3


def whole_exponent_spec(name, d, rng):
    """A spec whose exponents are whole, by name "<T>/<Gamma>[/r<r>]"."""
    t, gamma, *r = name.split("/")
    r = float(r[0][1:]) if r else 2.0
    t_family = TFamily("vonNeumann") if t == "vonNeumann" else TFamily("powerLaw", q=float(t[1:]))
    if gamma == "none":
        fam = GammaFamily("none")
    elif gamma == "nonEssential":
        fam = GammaFamily("nonEssential", r=r, A=random_hermitian(d, rng))
    else:
        fam = GammaFamily(gamma, sigma=0.7, r=r)
    return GeneratorSpec(H=random_hermitian(d, rng), t_family=t_family, gamma_family=fam)


WHOLE_EXPONENT_SPECS = [
    "vonNeumann/none", "q1/none", "q2/none", "q3/none",
    "vonNeumann/zeroMean/r1", "q1/zeroMean", "q2/zeroMean/r3", "q3/zeroMean/r1",
    "vonNeumann/energyConserving", "q1/energyConserving", "q1/energyConserving/r1",
    "q2/energyConserving/r1", "q3/energyConserving", "q4/energyConserving/r1",
    "q8/none", "q1/zeroMean/r8", "q1/energyConserving/r7",
]  # energyConserving: q below, at and above r + 1; n = 8 products at most


def t_by_spectrum(spec, rho):
    """T = H rho^q + rho^q H with rho^q from ClippedEig's spectrum, and T = H
    for vonNeumann: the oracle of both kernels' T, which take a whole q by
    products."""
    if spec.t_family.family == "vonNeumann":
        return spec.H
    rq = ClippedEig(rho).power(spec.t_family.q)
    return spec.H @ rq + rq @ spec.H


def g_by_spectrum(spec, rho):
    """G = T + i Gamma from t_by_spectrum and gamma_by_products."""
    t = t_by_spectrum(spec, rho)
    return t if spec.gamma_family.family == "none" else t + 1j * gamma_by_products(spec, rho)


class TestProductKernel:
    @pytest.mark.parametrize("name", WHOLE_EXPONENT_SPECS)
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_matches_the_spectral_kernel(self, rng, name, d):
        # full, low-rank and pure states, alone and as a stack of three specs
        for rank in sorted({1, max(1, d // 2), d - 1, d}):
            spec, rho = whole_exponent_spec(name, d, rng), random_density_matrix(d, rng, rank)
            assert spec._products is not None
            assert max_abs(generators.generator_matrix(spec, rho) - g_by_spectrum(spec, rho)) <= 1e-14
        stacked = generators._stack_specs([whole_exponent_spec(name, d, rng) for _ in range(3)])
        rhos = np.array([random_density_matrix(d, rng, rank) for rank in (d, 1, max(1, d - 1))])
        got = generators.generator_matrix(stacked, rhos)
        assert got.shape == rhos.shape
        assert max_abs(got - g_by_spectrum(stacked, rhos)) <= 1e-14

    @pytest.mark.parametrize("q", [1.0, 2.0])
    @pytest.mark.parametrize("d", [2, 4])
    def test_non_essential_takes_a_whole_q_by_products(self, rng, q, d):
        # the spectral kernel's T equals the product kernel's bit for bit, and
        # the spectral oracle to roundoff
        h = random_hermitian(d, rng)
        spec = power_law_spec(h, q, GammaFamily("nonEssential", r=2.0, A=random_hermitian(d, rng)))
        alone = power_law_spec(h, q)
        assert spec._products is None and alone._products is not None
        for rank in (d, 1):
            rho = random_density_matrix(d, rng, rank)
            t = generators._eval_T(spec, ClippedEig(rho))
            assert same_bits(t, generators.generator_matrix(alone, rho))
            assert max_abs(t - t_by_spectrum(spec, rho)) <= 1e-14

    @pytest.mark.parametrize(
        "t_family, gamma",
        [
            (TFamily("powerLaw", q=1.3), GammaFamily("none")),
            (TFamily("powerLaw", q=0.5), GammaFamily("zeroMean", sigma=0.7, r=2.0)),
            (TFamily("powerLaw", q=2.5), GammaFamily("nonEssential", r=2.0, A=SX)),
            # nonEssential reads the support of rho, so it keeps the spectral kernel
            (TFamily("vonNeumann"), GammaFamily("nonEssential", r=2.0, A=SX)),
            (TFamily("powerLaw", q=1.0), GammaFamily("nonEssential", r=2.0, A=SX)),
            (TFamily("powerLaw", q=2.0), GammaFamily("nonEssential", r=3.0, A=SX)),
            (TFamily("powerLaw", q=1.0), GammaFamily("zeroMean", sigma=0.7, r=1.5)),
            (TFamily("vonNeumann"), GammaFamily("energyConserving", sigma=0.7, r=0.5)),
            # whole, but past MAX_PRODUCT_POWER products
            (TFamily("powerLaw", q=9.0), GammaFamily("none")),
            (TFamily("powerLaw", q=1e9), GammaFamily("zeroMean", sigma=0.7, r=2.0)),
            (TFamily("powerLaw", q=1.0), GammaFamily("energyConserving", sigma=0.7, r=9.0)),
            # energyConserving reads rho^{r+1}: r = 8 needs 9 products
            (TFamily("powerLaw", q=1.0), GammaFamily("energyConserving", sigma=0.7, r=8.0)),
        ],
        ids=[
            "q1.3", "q0.5", "q2.5-nonEssential", "vonNeumann-nonEssential", "q1-nonEssential", "q2-nonEssential-r3",
            "r1.5", "r0.5", "q9", "q1e9", "r9-energyConserving", "r8-energyConserving",
        ],
    )
    def test_other_exponents_keep_the_spectral_kernel(self, rng, t_family, gamma):
        spec = GeneratorSpec(H=SZ + 0.4 * SX, t_family=t_family, gamma_family=gamma)
        assert spec._products is None
        for rank in (1, 2):
            rho = random_density_matrix(2, rng, rank)
            assert same_bits(generators.generator_matrix(spec, rho), generators._by_spectrum(spec, rho))

    @pytest.mark.parametrize("r, n", [(7.0, 8), (8.0, None)])
    def test_energy_conserving_at_the_product_power_edge(self, rng, r, n):
        # n = max(q, r + 1): r = 7 forms rho^8 = rho^MAX_PRODUCT_POWER, r = 8 goes spectral
        spec = power_law_spec(SZ + 0.4 * SX, 1.0, GammaFamily("energyConserving", sigma=0.7, r=r))
        assert spec._products == n
        assert generators.MAX_PRODUCT_POWER == 8
        rho = random_density_matrix(2, rng)
        got, oracle = generators.generator_matrix(spec, rho), generators._by_spectrum(spec, rho)
        assert same_bits(got, oracle) if n is None else max_abs(got - oracle) <= 1e-14

    def test_von_neumann_none_is_h_itself(self, rng):
        spec = GeneratorSpec(H=SZ)
        assert generators.generator_matrix(spec, random_density_matrix(2, rng)) is spec.H

    def test_kernel_is_chosen_once_per_spec(self, rng, monkeypatch):
        spec = whole_exponent_spec("q1/zeroMean", 3, rng)
        stacked = generators._stack_specs([spec, spec])
        calls = []
        monkeypatch.setattr(generators, "_plan", lambda *a: calls.append(1))
        monkeypatch.setattr(generators, "_whole", lambda x: calls.append(1))
        rho = random_density_matrix(3, rng)
        generators.generator_matrix(spec, rho)
        generators.generator_matrix(stacked, np.array([rho, rho]))
        assert calls == []

    @pytest.mark.parametrize("name, rank", [("q1/zeroMean", 3), ("q1/energyConserving", 1), ("vonNeumann/none", 3)])
    def test_decompositions_per_call(self, rng, monkeypatch, name, rank):
        real_eigh, real_eigvalsh, calls = linalg._eigh, linalg._eigvalsh, []
        monkeypatch.setattr(linalg, "_eigh", lambda a: calls.append("eigh") or real_eigh(a))
        monkeypatch.setattr(linalg, "_eigvalsh", lambda a: calls.append("eigvalsh") or real_eigvalsh(a))
        generators.generator_matrix(whole_exponent_spec(name, 3, rng), random_density_matrix(3, rng, rank))
        assert calls == []


class TestKernelContract:
    # One seeded draw, four times in every cell of Gamma family x whole or
    # fractional q x whole or fractional r x d: each kernel against the
    # oracle, alone at ranks 1, d / 2 and d, and as a stack of three specs of
    # one _stack_key.
    CELLS = list(itertools.product(("zeroMean", "energyConserving"), (True, False), (True, False), (2, 3, 4), range(4)))

    @staticmethod
    def exponent(rng, whole):
        return float(rng.integers(1, 4)) if whole else float(rng.uniform(0.3, 3.0))

    @staticmethod
    def tolerance(spec, rho):
        """1e-14, or 1e-15 times the condition number of energyConserving's
        2 x 2 system for (zeta, xi) where that is larger: both kernels and the
        oracle solve it, each with its roundoff so amplified."""
        if spec.gamma_family.family != "energyConserving":
            return 1e-14
        tr_rho, tr_h, tr_h2 = (np.trace(m @ rho).real for m in (np.eye(len(rho)), spec.H, spec.H @ spec.H))
        return max(1e-14, 1e-15 * (tr_h * tr_h + tr_rho * tr_h2) / abs(tr_h * tr_h - tr_rho * tr_h2))

    def test_kernels_match_the_oracle_over_drawn_cases(self):
        rng = np.random.default_rng(26)
        for fam, q_whole, r_whole, d, _ in self.CELLS:
            gamma = GammaFamily(fam, sigma=float(rng.uniform(-1.0, 1.0)), r=self.exponent(rng, r_whole))
            q = self.exponent(rng, q_whole)  # a whole q is keyed, so the stack shares it
            specs = [power_law_spec(random_hermitian(d, rng), q if q_whole else self.exponent(rng, False), gamma)
                     for _ in range(3)]
            rhos = np.array([random_density_matrix(d, rng, rank) for rank in (1, max(1, d // 2), d)])
            assert len({generators._stack_key(s) for s in specs}) == 1
            stacked = generators._stack_specs(specs)
            got, gam = generators.generator_matrix(stacked, rhos), generators._eval_Gamma(stacked, ClippedEig(rhos))
            for i, (spec, rho) in enumerate(zip(specs, rhos)):
                case, tol = (fam, spec.t_family.q, gamma.r, d, i), self.tolerance(spec, rho)
                assert max_abs(generators.generator_matrix(spec, rho) - g_by_spectrum(spec, rho)) <= tol, case
                assert max_abs(eval_Gamma(spec, rho) - gamma_by_products(spec, rho)) <= tol, case
                assert max_abs(got[i] - g_by_spectrum(spec, rho)) <= tol, case
                assert max_abs(gam[i] - gamma_by_products(spec, rho)) <= tol, case


class TestOneStateContract:
    # One seeded draw, three times in every cell of kernel x whole or
    # fractional r x d x rank: an energyConserving spec on one state, whose
    # multipliers are solved on Python floats, against its one-member stack,
    # solved on arrays by the same formula, bit for bit; and the one state
    # against the oracle.  The product kernel takes whole q and r, the
    # spectral one a fractional q or r.
    CELLS = [("products", True), ("spectral", True), ("spectral", False)]

    @staticmethod
    def spec(rng, d, kernel, r_whole, h=None):
        r = float(rng.integers(1, 4)) if r_whole else float(rng.uniform(0.3, 3.0))
        q = float(rng.integers(1, 3)) if kernel == "products" else float(rng.uniform(0.3, 3.0))
        gamma = GammaFamily("energyConserving", sigma=float(rng.uniform(-1.0, 1.0)), r=r)
        spec = power_law_spec(random_hermitian(d, rng) if h is None else h, q, gamma)
        assert (spec._products is not None) == (kernel == "products")
        return spec

    def cases(self, kernel):
        rng = np.random.default_rng(30)
        for (k, r_whole), d, _ in itertools.product(self.CELLS, (2, 3, 4), range(3)):
            for rank in sorted({1, max(1, d // 2), d}):
                spec = self.spec(rng, d, k, r_whole)
                if k == kernel:
                    yield spec, random_density_matrix(d, rng, rank)

    @pytest.mark.parametrize("kernel", ["products", "spectral"])
    def test_one_state_equals_its_one_member_stack_bitwise(self, kernel):
        for spec, rho in self.cases(kernel):
            case = (spec.t_family.q, spec.gamma_family.r, len(rho))
            one = generators.generator_matrix(spec, rho)
            assert same_bits(one, generators.generator_matrix(spec, rho[None])[0]), case
            assert max_abs(one - g_by_spectrum(spec, rho)) <= TestKernelContract.tolerance(spec, rho), case

    @pytest.mark.parametrize("kernel", ["products", "spectral"])
    def test_a_scalar_h_on_the_support_fails_as_its_stack_does(self, kernel):
        # H = c on the support of rho, anything on the rest: the 2 x 2 system
        # is singular, and one state and its one-member stack say so alike
        rng = np.random.default_rng(31)
        for (k, r_whole), d in itertools.product(self.CELLS, (2, 3, 4)):
            for rank in sorted({1, max(1, d // 2), d}):
                v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                p = rng.uniform(0.1, 1.0, rank)
                rho = (v[:, :rank] * (p / p.sum())) @ dagger(v[:, :rank])
                h = (v * np.append(np.full(rank, rng.standard_normal()), rng.standard_normal(d - rank))) @ dagger(v)
                spec = self.spec(rng, d, k, r_whole, h)
                if k != kernel:
                    continue
                with pytest.raises(DegenerateConstraintError) as stacked:
                    generators.generator_matrix(spec, rho[None])
                message = str(stacked.value)
                assert " (member 0)" in message
                with pytest.raises(DegenerateConstraintError, match=f"^{re.escape(message.replace(' (member 0)', ''))}$"):
                    generators.generator_matrix(spec, rho)


class TestLagrangeParameters:
    @pytest.mark.parametrize(
        "sigma, r", [(0.5, np.nan), (np.nan, 2.0), (0.5, -1.0)], ids=["r-nan", "sigma-nan", "r-negative"]
    )
    def test_rejects_the_parameters_gamma_family_rejects(self, sigma, r):
        # r = nan used to return (nan, nan)
        with pytest.raises(ValidationError):
            solve_lagrange_parameters(SZ, sigma, r, np.diag([0.7, 0.3]))

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

    def test_random_state_satisfies_both_constraints(self, rng):
        # a non-diagonal rho, where rho^r rho and the elementwise product differ;
        # called through the module, so that a patched copy is the one run
        h, rho = random_hermitian(3, rng), random_density_matrix(3, rng)
        zeta, xi = generators.solve_lagrange_parameters(h, 0.8, 1.5, rho)
        w, v = np.linalg.eigh(rho)
        rp = (v * w**2.5) @ dagger(v)  # rho^{r+1}
        assert abs(np.trace(rp) - zeta * np.trace(h @ rho) - xi) < 1e-12
        assert abs(np.trace(h @ rp) - zeta * np.trace(h @ h @ rho) - xi * np.trace(h @ rho)) < 1e-12

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

    @pytest.mark.parametrize("n", [2, 3])
    def test_rejects_a_stack_of_w(self, n):
        # n = 2 used to raise an untyped ValueError, n = 3 to ask for a 9 x 9 a
        with pytest.raises(ValidationError, match="one matrix"):
            make_zero_mean(np.eye(4), np.ones((n, 2, 2)))


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
        eigh, calls = linalg._eigh, []
        monkeypatch.setattr(linalg, "_eigh", lambda a: calls.append(1) or eigh(a))
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

    def test_zero_mean_check_decomposes_the_stack_once(self, rng, monkeypatch):
        spec = GeneratorSpec(H=random_hermitian(3, rng), gamma_family=GammaFamily("zeroMean", sigma=1.0, r=1.5))
        samples = [random_density_matrix(3, rng, rank) for rank in (1, 2, 3, 3)]
        eigh, calls = linalg._eigh, []
        monkeypatch.setattr(linalg, "_eigh", lambda a: calls.append(1) or eigh(a))
        check_zero_mean(spec, samples)
        assert len(calls) == 1

    @pytest.mark.parametrize("fam", ALL_GAMMA_FAMILIES, ids=lambda f: f.family)
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_zero_mean_check_matches_the_sample_loop(self, rng, fam, d):
        # the stack gives the residuals of the public factor and Gamma, sample by sample
        if fam.A is not None:
            fam = GammaFamily("nonEssential", r=2.0, A=random_hermitian(d, rng))
        spec = GeneratorSpec(H=random_hermitian(d, rng), gamma_family=fam)
        samples = [random_density_matrix(d, rng, rank) for rank in (1, max(1, d // 2), d, d)]
        expected = [
            abs(np.trace(dagger(g) @ eval_Gamma(spec, s) @ g))
            for s, g in ((s, sqrt_factor(s).matrix) for s in samples)
        ]
        rep = check_zero_mean(spec, samples)
        assert max_abs(rep.residuals - expected) <= 1e-15

    def test_zero_mean_check_names_the_first_sample_off_unit_norm(self, rng):
        samples = [random_density_matrix(2, rng), 2 * random_density_matrix(2, rng)]
        with pytest.raises(ValidationError, match="HS norm 2.0"):
            check_zero_mean(GeneratorSpec(H=SZ), samples)
        assert check_zero_mean(GeneratorSpec(H=SZ), []).residuals.shape == (0,)


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
        empty = classify_dissipative_part(GeneratorSpec(H=SZ), sample_count=0)  # draws and checks nothing
        assert (empty.essential, empty.witness, empty.n_samples) == (False, None, 0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_the_sample_loop(self, seed, d):
        # the stacked search finds the one-at-a-time search's first witness, at
        # the same count, and leaves the generator where that search does
        rng = np.random.default_rng(seed)
        a = random_hermitian(d, rng)
        for fam in (
            GammaFamily("zeroMean", sigma=1.0, r=2.0),
            GammaFamily("nonEssential", r=2.0, A=a),
            # a weak zeroMean: its support block can fall under the tolerance, so a witness may come late
            GammaFamily("zeroMean", sigma=float(rng.uniform(1e-10, 1e-8)), r=2.0),
        ):
            spec = GeneratorSpec(H=random_hermitian(d, rng), gamma_family=fam)
            for n in (30, 1):  # one sample: an essential spec's witness is the last sample
                rng_loop, rng_stack = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
                want = classify_by_loop(spec, n, rng_loop)
                got = classify_dissipative_part(spec, sample_count=n, rng=rng_stack)
                assert (got.essential, got.n_samples) == (want.essential, want.n_samples)
                assert (got.witness is None and want.witness is None) or same_bits(got.witness, want.witness)
                assert rng_stack.random() == rng_loop.random()


def classify_by_loop(spec, sample_count, rng):
    """The classifier as written before it stacked its samples: the reference."""
    d = spec.dim
    for i in range(sample_count):
        rank = d if i % 2 == 0 or d < 2 else int(rng.integers(1, d))
        rho = random_density_matrix(d, rng, rank)
        if not check_polchinski_condition(spec, rho).passed:
            return generators.EssentialityReport(essential=True, witness=rho, n_samples=i + 1)
    return generators.EssentialityReport(essential=False, witness=None, n_samples=sample_count)
