import numpy as np
import pytest
from scipy.linalg import expm

from conftest import SX, SY, SZ, bell_state, random_hermitian
from nlqd import entanglement, linalg, measurement
from nlqd.errors import ValidationError
from nlqd.generators import GammaFamily, GeneratorSpec, TFamily, random_density_matrix
from nlqd.entanglement import (
    BipartiteDynamics,
    BipartiteState,
    bipartite_monitor,
    check_environment_stationarity,
    check_local_equivalence,
    evolve_bipartite,
    joint_hamiltonian,
    polchinski_generator,
    random_entangled_state,
    trivial_extension,
    verify_cp_extension,
)
from nlqd.generators import generator_matrix
from nlqd.linalg import (
    dagger,
    max_abs,
    mutual_information,
    partial_trace,
    tensor_product,
    von_neumann_entropy,
)
from nlqd.propagation import IntegratorConfig, evolve


def bell():
    return BipartiteState(d_H=2, d_K=2, matrix=bell_state())


class TestBipartiteState:
    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            BipartiteState(d_H=2, d_K=3, matrix=np.eye(4) / 4)

    def test_marginals(self):
        b = bell()
        assert max_abs(b.marginal_H() - np.eye(2) / 2) < 1e-12
        assert max_abs(b.marginal_K() - np.eye(2) / 2) < 1e-12


class TestPolchinskiGenerator:
    def test_von_neumann_one_sided(self, rng):
        dyn = BipartiteDynamics(spec_H=GeneratorSpec(H=SZ))
        g = polchinski_generator(dyn, bell())
        assert max_abs(g - tensor_product(SZ, np.eye(2))) < 1e-12

    def test_two_sided_sum(self, rng):
        dyn = BipartiteDynamics(spec_H=GeneratorSpec(H=SZ), spec_K=GeneratorSpec(H=SX))
        g = polchinski_generator(dyn, bell())
        expected = tensor_product(SZ, np.eye(2)) + tensor_product(np.eye(2), SX)
        assert max_abs(g - expected) < 1e-12

    def test_dims_required_for_bare_matrix(self):
        dyn = BipartiteDynamics(spec_H=GeneratorSpec(H=SZ))
        with pytest.raises(ValidationError):
            polchinski_generator(dyn, bell_state())

    def test_nonlinear_local_marginal(self, rng):
        spec = GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.0))
        dyn = BipartiteDynamics(spec_H=spec)
        w = random_entangled_state(2, 2, rng)
        expected = tensor_product(generator_matrix(spec, w.marginal_H()), np.eye(2))
        assert max_abs(polchinski_generator(dyn, w) - expected) < 1e-12


def bipartite_dynamics(dims, env, rng):
    """powerLaw + nonEssential on H; on K nothing (passive) or powerLaw (active)."""
    d_h, d_k = dims
    spec_h = GeneratorSpec(
        H=random_hermitian(d_h, rng),
        t_family=TFamily("powerLaw", q=1.3),
        gamma_family=GammaFamily("nonEssential", r=2.0, A=random_hermitian(d_h, rng)),
    )
    spec_k = GeneratorSpec(H=random_hermitian(d_k, rng), t_family=TFamily("powerLaw", q=1.2))
    return BipartiteDynamics(spec_H=spec_h, spec_K=spec_k if env == "active" else None)


def random_factor(d, rng, lead=()):
    return rng.standard_normal(lead + (d, d)) + 1j * rng.standard_normal(lead + (d, d))


# Unequal factors catch an action that reshapes along the wrong axis.
DIMS = [(2, 2), (2, 4), (3, 2), (4, 2)]


class TestJointGenerator:
    """The step loop's action against polchinski_generator's matrix."""

    @pytest.mark.parametrize("env", ["passive", "active"])
    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_action_matches_matrix(self, rng, dims, env):
        dyn = bipartite_dynamics(dims, env, rng)
        w = random_entangled_state(*dims, rng, mixture_terms=2)
        x = random_factor(dims[0] * dims[1], rng)
        action = entanglement._joint_generator(dyn, w.matrix, dims)
        assert max_abs(action @ x - polchinski_generator(dyn, w) @ x) < 1e-14

    @pytest.mark.parametrize("env", ["passive", "active"])
    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_stack_matches_members(self, rng, dims, env):
        dyn = bipartite_dynamics(dims, env, rng)
        rhos = np.array([random_entangled_state(*dims, rng).matrix for _ in range(3)])
        xs = random_factor(dims[0] * dims[1], rng, (3,))
        applied = entanglement._joint_generator(dyn, rhos, dims) @ xs
        assert applied.shape == xs.shape
        for rho, x, y in zip(rhos, xs, applied):
            assert max_abs(y - polchinski_generator(dyn, rho, dims) @ x) < 1e-14

    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_h_switched_off(self, rng, dims):
        dyn = bipartite_dynamics(dims, "active", rng)
        w = random_entangled_state(*dims, rng, mixture_terms=2)
        x = random_factor(dims[0] * dims[1], rng)
        k_only = entanglement._joint_generator(dyn, w.matrix, dims, h_on=False)
        expected = tensor_product(np.eye(dims[0]), generator_matrix(dyn.spec_K, w.marginal_K())) @ x
        assert max_abs(k_only @ x - expected) < 1e-14
        passive = BipartiteDynamics(spec_H=dyn.spec_H)
        assert np.all(entanglement._joint_generator(passive, w.matrix, dims, h_on=False) @ x == 0)

    def test_step_loops_form_no_kronecker_product(self, rng, monkeypatch):
        dyn = bipartite_dynamics((2, 2), "active", rng)
        w = random_entangled_state(2, 2, rng, mixture_terms=2)
        kron = np.kron
        calls = []
        monkeypatch.setattr(np, "kron", lambda *a: calls.append(1) or kron(*a))

        def krons(run):
            calls.clear()
            run()
            return len(calls)

        # evolve_bipartite forms the joint Hamiltonian for its monitor once.
        one_step = krons(lambda: evolve_bipartite(w, dyn, IntegratorConfig(dt=1e-3, t_final=1e-3)))
        assert krons(lambda: evolve_bipartite(w, dyn, IntegratorConfig(dt=1e-3, t_final=5e-3))) == one_step
        cfg = IntegratorConfig(dt=1e-3, t_final=5e-3)
        assert krons(lambda: verify_cp_extension(BipartiteDynamics(spec_H=dyn.spec_H), [w, w], cfg)) == 0
        sc = measurement.CorrelationScenario(
            rho0=w,
            dyn=BipartiteDynamics(spec_H=GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.5)), spec_K=dyn.spec_K),
            t0=0.0, t1=5e-3, t2=1e-2,
            P_H=measurement.MeasurementSetup(P=np.diag([1.0, 0.0])),
            P_K=measurement.MeasurementSetup(P=np.diag([1.0, 0.0])),
            cfg=cfg,
        )
        for h_on in (True, False):
            assert krons(lambda: measurement._evolve_joint(sc, w.matrix, 5e-3, h_on)) == 0


class TestEvolveBipartite:
    CFG = IntegratorConfig(dt=1e-3, t_final=0.5)

    def test_product_state_stays_product(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        w = BipartiteState(d_H=2, d_K=2, matrix=tensor_product(a, b))
        spec = GeneratorSpec(
            H=SZ + 0.3 * SX,
            t_family=TFamily("powerLaw", q=1.5),
            gamma_family=GammaFamily("nonEssential", r=2.0, A=SY),
        )
        traj = evolve_bipartite(w, BipartiteDynamics(spec_H=spec), self.CFG)
        final = traj.final_state()
        local = evolve(a, spec, self.CFG).final_state()
        assert max_abs(final - tensor_product(local, b)) < 1e-8
        assert np.max(traj.monitors["mutual_info"]) < 1e-8

    def test_bell_unitary_marginal_frozen(self):
        # maximally mixed marginal is stationary for powerLaw T, so the
        # joint evolution is driven by a constant local generator
        q = 1.0
        spec = GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=q))
        traj = evolve_bipartite(bell(), BipartiteDynamics(spec_H=spec), self.CFG)
        t_eff = 2.0 * 2.0 ** (-q) * SZ  # H rho^q + rho^q H at rho = I/2
        u = tensor_product(expm(-1j * t_eff * self.CFG.t_final), np.eye(2))
        expected = u @ bell_state() @ dagger(u)
        assert max_abs(traj.final_state() - expected) < 1e-9

    def test_global_spectrum_and_entropies_preserved(self, rng):
        w = random_entangled_state(2, 2, rng, mixture_terms=2)
        spec = GeneratorSpec(
            H=random_hermitian(2, rng),
            t_family=TFamily("powerLaw", q=1.3),
            gamma_family=GammaFamily("nonEssential", r=2.0, A=SX),
        )
        traj = evolve_bipartite(w, BipartiteDynamics(spec_H=spec), self.CFG)
        eig0 = np.sort(np.linalg.eigvalsh(w.matrix))
        for s in traj.states:
            assert max_abs(np.sort(np.linalg.eigvalsh(s)) - eig0) < 1e-7
        ent = traj.monitors["entropy"]
        assert np.max(np.abs(ent - ent[0])) < 1e-7

    @pytest.mark.parametrize("side", ["H", "K"])
    def test_spec_dimension_checked_at_entry(self, side, rng, monkeypatch):
        monkeypatch.setattr(entanglement, "integrate_generator", lambda *a: pytest.fail("stepped"))
        spec2, spec3 = GeneratorSpec(H=SZ), GeneratorSpec(H=random_hermitian(3, rng))
        dyn = BipartiteDynamics(spec_H=spec3, spec_K=spec2) if side == "H" else BipartiteDynamics(spec2, spec3)
        with pytest.raises(ValidationError, match=f"spec_{side} dimension 3 does not match d_{side} = 2"):
            evolve_bipartite(bell(), dyn, self.CFG)

    def test_remote_marginal_immobile(self, rng):
        w = random_entangled_state(2, 3, rng)
        spec = GeneratorSpec(H=SZ + 0.2 * SX, t_family=TFamily("powerLaw", q=2.0))
        traj = evolve_bipartite(w, BipartiteDynamics(spec_H=spec), self.CFG)
        rho_k0 = w.marginal_K()
        for s in traj.states:
            assert max_abs(partial_trace(s, (2, 3), "H") - rho_k0) < 1e-9

    def test_schmidt_rank_two_on_three_by_two(self, rng):
        # rank-2 H marginal on a qutrit leaves room for nonEssential Gamma
        v = np.zeros(6, dtype=complex)
        v[0] = v[4] = 1 / np.sqrt(2)  # |0>|0> + |1>|1> embedded in 3x2
        w = BipartiteState(d_H=3, d_K=2, matrix=np.outer(v, v.conj()))
        a = np.zeros((3, 3), dtype=complex)
        a[0, 2] = a[2, 0] = 1.0
        spec = GeneratorSpec(
            H=np.diag([1.0, -1.0, 0.0]).astype(complex),
            gamma_family=GammaFamily("nonEssential", r=2.0, A=a),
        )
        gam = polchinski_generator(BipartiteDynamics(spec_H=spec), w) - tensor_product(
            spec.H, np.eye(2)
        )
        assert max_abs(gam) > 1e-3  # the dissipative part is actually active
        traj = evolve_bipartite(w, BipartiteDynamics(spec_H=spec), self.CFG)
        eig0 = np.sort(np.linalg.eigvalsh(w.matrix))
        assert max_abs(np.sort(np.linalg.eigvalsh(traj.final_state())) - eig0) < 1e-7
        assert max_abs(partial_trace(traj.final_state(), (3, 2), "H") - w.marginal_K()) < 1e-8


def bipartite_channels(states) -> dict:
    """The 2x2 monitor's channels, given spectra taken by numpy, not by the
    step loop that feeds it in a run."""
    states = np.array(states)
    return bipartite_monitor((2, 2), np.eye(4))(states, np.linalg.eigvalsh(states))


class TestBipartiteMonitor:
    def test_marginal_entropies_on_the_stack(self, rng):
        # the step loop has checked every state the monitor reads, so the
        # monitor checks nothing; each member's marginals are its own
        stack = [random_density_matrix(4, rng, rank) for rank in (1, 2, 4)]
        rec = bipartite_channels(stack)
        for k, s in enumerate(stack):
            s_h = von_neumann_entropy(partial_trace(s, (2, 2), "K"))
            s_k = von_neumann_entropy(partial_trace(s, (2, 2), "H"))
            assert abs(rec["entropy_H"][k] - s_h) <= 1e-13 and abs(rec["entropy_K"][k] - s_k) <= 1e-13
            assert abs(rec["mutual_info"][k] - (s_h + s_k - von_neumann_entropy(s))) <= 1e-13

    def test_a_von_neumann_run_takes_one_eigh(self, rng, monkeypatch):
        # the joint entropy comes from the step loop's spectra, each marginal's
        # from a values-only decomposition: the factorization is the one eigh
        real, calls = linalg._eigh, []
        monkeypatch.setattr(linalg, "_eigh", lambda a: calls.append(a.shape) or real(a))
        dyn = BipartiteDynamics(spec_H=GeneratorSpec(H=SZ), spec_K=GeneratorSpec(H=SX))
        state = BipartiteState(d_H=2, d_K=2, matrix=random_density_matrix(4, rng))
        traj = evolve_bipartite(state, dyn, IntegratorConfig(dt=1e-3, t_final=0.02, monitor_stride=5))
        assert calls == [(4, 4)]
        assert len(traj.monitors["entropy_H"]) == 5

    def test_entropy_channels_one_per_record(self):
        rec = bipartite_channels([bell_state(), np.eye(4) / 4])
        assert np.allclose(rec["entropy_H"], [np.log(2), np.log(2)], rtol=0, atol=1e-14)
        assert np.allclose(rec["mutual_info"], [2 * np.log(2), 0.0], rtol=0, atol=1e-14)


class TestEnvironmentStationarity:
    def test_non_essential_witnessless(self, rng):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 2] = a[2, 0] = 1.0
        spec = GeneratorSpec(H=np.zeros((3, 3)), gamma_family=GammaFamily("nonEssential", r=2.0, A=a))
        v = np.zeros(6, dtype=complex)
        v[0] = v[4] = 1 / np.sqrt(2)
        w = BipartiteState(d_H=3, d_K=2, matrix=np.outer(v, v.conj()))
        assert check_environment_stationarity(BipartiteDynamics(spec_H=spec), w) < 1e-10

    def test_zero_mean_moves_environment(self, rng):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0))
        w = random_entangled_state(2, 2, rng, mixture_terms=2)
        assert check_environment_stationarity(BipartiteDynamics(spec_H=spec), w) > 1e-4


class TestTrivialExtension:
    def test_identity_map_destroys_correlations(self):
        out = trivial_extension(lambda r: r, bell())
        assert mutual_information(bell_state(), (2, 2)) == pytest.approx(2 * np.log(2), abs=1e-8)
        assert mutual_information(out.matrix, (2, 2)) == pytest.approx(0.0, abs=1e-8)
        assert max_abs(out.matrix - np.eye(4) / 4) < 1e-10

    def test_transpose_map_local(self, rng):
        # transpose is positive but not CP; the trivial extension swallows it
        w = random_entangled_state(2, 2, rng)
        out = trivial_extension(lambda r: r.T, w)
        assert max_abs(out.marginal_H() - w.marginal_H().T) < 1e-10
        assert max_abs(out.marginal_K() - w.marginal_K()) < 1e-10
        assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-12


class TestLocalEquivalence:
    def test_product_state(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        assert check_local_equivalence(tensor_product(a, b), a, b)

    def test_bell_vs_mixed_product(self):
        assert check_local_equivalence(bell_state(), np.eye(2) / 2, np.eye(2) / 2)

    def test_rejects_a_stack_of_marginals(self):
        # used to answer for the stack, without an error
        with pytest.raises(ValidationError, match="one matrix"):
            check_local_equivalence(np.eye(4) / 4, np.array([np.eye(2) / 2] * 2), np.eye(2) / 2)

    def test_mismatch_detected(self, rng):
        a = random_density_matrix(2, rng)
        assert not check_local_equivalence(bell_state(), a, np.eye(2) / 2) or max_abs(
            a - np.eye(2) / 2
        ) < 1e-9


class TestCpExtensionAudit:
    def test_requires_passive_environment(self, rng):
        dyn = BipartiteDynamics(spec_H=GeneratorSpec(H=SZ), spec_K=GeneratorSpec(H=SX))
        with pytest.raises(ValidationError):
            verify_cp_extension(dyn, [bell()], IntegratorConfig(dt=1e-2, t_final=0.1))

    def test_non_essential_passes(self, rng):
        spec = GeneratorSpec(
            H=SZ + 0.2 * SX,
            t_family=TFamily("powerLaw", q=1.5),
            gamma_family=GammaFamily("nonEssential", r=2.0, A=SY),
        )
        samples = [random_entangled_state(2, 2, rng) for _ in range(3)]
        rep = verify_cp_extension(
            BipartiteDynamics(spec_H=spec), samples, IntegratorConfig(dt=1e-3, t_final=0.3)
        )
        assert rep.passed
        for r in rep.samples:
            assert r.min_eigenvalue > -1e-10

    def test_rejects_empty_sample_list(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            verify_cp_extension(BipartiteDynamics(spec_H=GeneratorSpec(H=SZ)), [], IntegratorConfig(dt=1e-2, t_final=0.1))

    def test_rejects_samples_of_different_dims(self, rng):
        samples = [bell(), random_entangled_state(2, 3, rng)]
        with pytest.raises(ValidationError, match="differ in dims"):
            verify_cp_extension(BipartiteDynamics(spec_H=GeneratorSpec(H=SZ)), samples, IntegratorConfig(dt=1e-2, t_final=0.1))

    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_batched_residuals_match_one_sample_calls_bitwise(self, rng, dims):
        dyn = bipartite_dynamics(dims, "passive", rng)
        samples = [random_entangled_state(*dims, rng, mixture_terms=2) for _ in range(3)]
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, monitor_stride=10)
        rep = verify_cp_extension(dyn, samples, cfg)
        assert rep.samples == [verify_cp_extension(dyn, [s], cfg).samples[0] for s in samples]
        assert rep.passed

    def test_zero_mean_fails_remote_condition(self, rng):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0))
        samples = [random_entangled_state(2, 2, rng, mixture_terms=2)]
        cfg = IntegratorConfig(dt=1e-3, t_final=0.3, max_step_drift=1e-2)
        rep = verify_cp_extension(BipartiteDynamics(spec_H=spec), samples, cfg)
        assert not rep.passed
        assert rep.samples[0].remote_residual > 1e-4


class TestJointHamiltonian:
    def test_one_and_two_sided(self):
        dyn1 = BipartiteDynamics(spec_H=GeneratorSpec(H=SZ))
        assert max_abs(joint_hamiltonian(dyn1, (2, 2)) - tensor_product(SZ, np.eye(2))) < 1e-12
        dyn2 = BipartiteDynamics(spec_H=GeneratorSpec(H=SZ), spec_K=GeneratorSpec(H=SX))
        expected = tensor_product(SZ, np.eye(2)) + tensor_product(np.eye(2), SX)
        assert max_abs(joint_hamiltonian(dyn2, (2, 2)) - expected) < 1e-12
