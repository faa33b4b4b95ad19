import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import SX, SY, SZ, random_hermitian, random_pure
from nlqd.entanglement import BipartiteDynamics, BipartiteState, evolve_bipartite
from nlqd.errors import StepSizeError, ValidationError
from nlqd.generators import GammaFamily, GeneratorSpec, TFamily, random_density_matrix
from nlqd.linalg import dagger, max_abs, partial_trace, purity, sqrt_factor, von_neumann_entropy
from nlqd.propagation import (
    IntegratorConfig,
    MixtureSpec,
    Trajectory,
    accumulate_propagator,
    consistency_check_rho_route,
    evolve,
    evolve_convex_mixture,
    step_state_operator,
)

CFG = IntegratorConfig(dt=1e-3, t_final=1.0)


class TestConfig:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(dt=0.0, t_final=1.0)

    def test_rejects_dt_above_t_final(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(dt=2.0, t_final=1.0)

    def test_n_steps_whole_grid(self):
        assert IntegratorConfig(dt=1e-3, t_final=1.0).n_steps == 1000
        assert IntegratorConfig(dt=np.pi / 2 / 2000, t_final=np.pi / 2).n_steps == 2000

    def test_rejects_partial_last_step(self):
        # 1.0 / 0.3 steps would stop at t = 0.9 if rounded
        with pytest.raises(ValidationError):
            IntegratorConfig(dt=0.3, t_final=1.0)
        with pytest.raises(ValidationError):
            IntegratorConfig(dt=1e-3, t_final=1.0 + 1e-6)


class TestLinearLimit:
    def test_von_neumann_matches_expm(self, rng):
        h = random_hermitian(2, rng)
        rho0 = random_density_matrix(2, rng)
        traj = evolve(rho0, GeneratorSpec(H=h), CFG)
        u = expm(-1j * h * CFG.t_final)
        assert max_abs(traj.final_state() - u @ rho0 @ dagger(u)) < 1e-9

    def test_pure_sigma_x_half_period(self):
        # |0><0| under H = sigma_x returns through |1><1| at t = pi/2... full
        # closed form: rho(t) has populations cos^2 t, sin^2 t.
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        cfg = IntegratorConfig(dt=np.pi / 2 / 2000, t_final=np.pi / 2)
        traj = evolve(rho0, GeneratorSpec(H=SX), cfg)
        assert max_abs(traj.final_state() - np.diag([0.0, 1.0])) < 1e-9

    def test_stationary_maximally_mixed(self):
        rho0 = np.eye(2) / 2
        spec = GeneratorSpec(
            H=SZ,
            t_family=TFamily("powerLaw", q=1.0),
            gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0),
        )
        traj = evolve(rho0, spec, CFG)
        assert max_abs(traj.final_state() - rho0) < 1e-10

    def test_eigenstate_stationary(self):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        traj = evolve(rho0, GeneratorSpec(H=SZ), CFG)
        assert max_abs(traj.final_state() - rho0) < 1e-10


class TestNonlinearRoutes:
    def spec(self):
        return GeneratorSpec(
            H=SZ + 0.4 * SX,
            t_family=TFamily("powerLaw", q=1.5),
            gamma_family=GammaFamily("energyConserving", sigma=0.6, r=2.0),
        )

    def test_gamma_vs_rho_route(self, rng):
        rho0 = random_density_matrix(2, rng)
        dev = consistency_check_rho_route(rho0, self.spec(), IntegratorConfig(dt=1e-3, t_final=0.5))
        assert dev < 1e-9

    def test_convergence_order(self, rng):
        # halving dt should shrink the route deviation roughly like dt^4
        rho0 = random_density_matrix(2, rng)
        spec = self.spec()
        ref_cfg = IntegratorConfig(dt=1e-5, t_final=0.1)
        ref = evolve(rho0, spec, ref_cfg).final_state()
        errs = []
        for dt in (4e-3, 2e-3):
            traj = evolve(rho0, spec, IntegratorConfig(dt=dt, t_final=0.1))
            errs.append(max_abs(traj.final_state() - ref))
        ratio = errs[0] / errs[1]
        assert 8.0 < ratio < 40.0

    def test_monitors_and_invariants(self, rng):
        rho0 = random_density_matrix(3, rng)
        spec = GeneratorSpec(
            H=random_hermitian(3, rng),
            t_family=TFamily("powerLaw", q=1.0),
            gamma_family=GammaFamily("zeroMean", sigma=0.5, r=2.0),
        )
        traj = evolve(rho0, spec, IntegratorConfig(dt=1e-3, t_final=0.5, monitor_stride=50))
        traj.validate()
        assert np.all(np.abs(traj.monitors["trace"] - 1.0) < 1e-10)
        assert traj.monitors["eigenvalues"].shape == (len(traj.times), 3)

    def test_energy_conserved_power_law(self, rng):
        h = random_hermitian(2, rng)
        spec = GeneratorSpec(H=h, t_family=TFamily("powerLaw", q=2.0))
        traj = evolve(random_density_matrix(2, rng), spec, IntegratorConfig(dt=1e-3, t_final=1.0))
        e = traj.monitors["energy"]
        assert np.max(np.abs(e - e[0])) < 1e-9

    def test_energy_conserved_with_constraint(self, rng):
        spec = GeneratorSpec(
            H=SZ + 0.3 * SX,
            gamma_family=GammaFamily("energyConserving", sigma=0.8, r=2.0),
        )
        traj = evolve(random_density_matrix(2, rng), spec, IntegratorConfig(dt=1e-3, t_final=1.0))
        e = traj.monitors["energy"]
        assert np.max(np.abs(e - e[0])) < 1e-8

    def test_purity_increases_zero_mean(self, rng):
        # sigma > 0 drives the zeroMean family toward purer states
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0))
        traj = evolve(np.diag([0.6, 0.4]), spec, IntegratorConfig(dt=1e-3, t_final=2.0))
        p = traj.monitors["purity"]
        assert np.all(np.diff(p) >= -1e-12)
        assert p[-1] > p[0] + 0.2

    def test_step_size_error(self):
        spec = GeneratorSpec(H=50.0 * SX, gamma_family=GammaFamily("zeroMean", sigma=40.0, r=2.0))
        with pytest.raises(StepSizeError):
            evolve(np.diag([0.9, 0.1]), spec, IntegratorConfig(dt=0.5, t_final=5.0))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 4))
    def test_step_state_operator_gauge_invariant(self, seed, dim):
        # gamma and gamma U factor the same rho, so one step must give the same rho
        rng = np.random.default_rng(seed)
        spec = GeneratorSpec(
            H=random_hermitian(dim, rng),
            t_family=TFamily("powerLaw", q=1.4),
            gamma_family=GammaFamily("zeroMean", sigma=0.7, r=2.0),
        )
        g = sqrt_factor(random_density_matrix(dim, rng)).matrix
        u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        a = step_state_operator(g, spec, 1e-2).density()
        b = step_state_operator(g @ u, spec, 1e-2).density()
        assert max_abs(a - b) <= 1e-12

    def test_step_state_operator_single_step(self, rng):
        rho0 = random_density_matrix(2, rng)
        g0 = sqrt_factor(rho0)
        g1 = step_state_operator(g0, GeneratorSpec(H=SZ), 1e-3)
        u = expm(-1j * SZ * 1e-3)
        assert max_abs(g1.density() - u @ rho0 @ dagger(u)) < 1e-12


class TestPropagator:
    def test_linear_limit_is_expm(self, rng):
        h = random_hermitian(2, rng)
        rho0 = random_density_matrix(2, rng)
        s, traj = accumulate_propagator(rho0, GeneratorSpec(H=h), IntegratorConfig(dt=1e-3, t_final=1.0))
        assert max_abs(s - expm(-1j * h * 1.0)) < 1e-9

    def test_reconstructs_final_state(self, rng):
        spec = GeneratorSpec(
            H=SZ + 0.2 * SX,
            t_family=TFamily("powerLaw", q=1.3),
            gamma_family=GammaFamily("nonEssential", r=2.0, A=SY),
        )
        rho0 = random_pure(2, rng)
        s, traj = accumulate_propagator(rho0, spec, IntegratorConfig(dt=1e-3, t_final=1.0))
        assert max_abs(s @ rho0 @ dagger(s) - traj.final_state()) < 1e-8

    def test_states_match_evolve_bitwise(self, rng):
        # accumulate_propagator carries S through the same step loop as evolve
        spec = GeneratorSpec(
            H=random_hermitian(3, rng),
            t_family=TFamily("powerLaw", q=1.3),
            gamma_family=GammaFamily("energyConserving", sigma=0.5, r=2.0),
        )
        rho0 = random_density_matrix(3, rng)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1, monitor_stride=7)
        _, traj = accumulate_propagator(rho0, spec, cfg)
        ref = evolve(rho0, spec, cfg)
        assert np.array_equal(traj.times, ref.times)
        assert len(traj.states) == len(ref.states)
        assert all(np.array_equal(a, b) for a, b in zip(traj.states, ref.states))

    def test_unitary_when_gamma_off_support(self, rng):
        spec = GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.0))
        rho0 = random_density_matrix(2, rng)
        s, _ = accumulate_propagator(rho0, spec, IntegratorConfig(dt=1e-3, t_final=0.5))
        assert max_abs(dagger(s) @ s - np.eye(2)) < 1e-8


def _recorded(kind, rng):
    """A trajectory of the given kind and the Hamiltonian its energy channel uses."""
    pl, zm = TFamily("powerLaw", q=1.0), GammaFamily("zeroMean", sigma=0.5, r=2.0)
    cfg = IntegratorConfig(dt=1e-3, t_final=0.1, monitor_stride=10)
    if kind == "evolve":
        h = random_hermitian(3, rng)
        return evolve(random_density_matrix(3, rng), GeneratorSpec(H=h, t_family=pl, gamma_family=zm), cfg), h
    if kind == "mixture":
        h1, h2 = random_hermitian(3, rng), random_hermitian(3, rng)
        specs = [GeneratorSpec(H=h1, gamma_family=zm), GeneratorSpec(H=h2, t_family=pl)]
        mix = MixtureSpec(weights=[0.3, 0.7], process_specs=specs)
        return evolve_convex_mixture(random_density_matrix(3, rng), mix, cfg), 0.3 * h1 + 0.7 * h2
    h = random_hermitian(2, rng)
    state = BipartiteState(d_H=2, d_K=2, matrix=random_density_matrix(4, rng))
    dyn = BipartiteDynamics(spec_H=GeneratorSpec(H=h, t_family=pl))
    return evolve_bipartite(state, dyn, cfg), np.kron(h, np.eye(2))


class TestRecordPath:
    @pytest.mark.parametrize("kind", ["evolve", "mixture", "bipartite"])
    def test_monitors_match_per_state_recomputation(self, rng, kind):
        traj, h = _recorded(kind, rng)
        mon = traj.monitors
        assert list(mon)[:5] == ["trace", "energy", "purity", "entropy", "eigenvalues"]
        assert all(len(v) == len(traj.times) == len(traj.states) for v in mon.values())
        for k, s in enumerate(traj.states):
            assert abs(mon["trace"][k] - np.trace(s).real) <= 1e-14
            assert abs(mon["energy"][k] - np.trace(h @ s).real) <= 1e-14
            assert abs(mon["purity"][k] - purity(s)) <= 1e-14
            assert max_abs(mon["eigenvalues"][k] - np.linalg.eigvalsh(s)) <= 1e-14
            assert abs(mon["entropy"][k] - von_neumann_entropy(s)) <= 1e-13
            if kind == "bipartite":
                s_h = von_neumann_entropy(partial_trace(s, (2, 2), "K"))
                s_k = von_neumann_entropy(partial_trace(s, (2, 2), "H"))
                assert abs(mon["entropy_H"][k] - s_h) <= 1e-13
                assert abs(mon["entropy_K"][k] - s_k) <= 1e-13
                assert abs(mon["mutual_info"][k] - (s_h + s_k - mon["entropy"][k])) <= 1e-13

    def test_norm_drift_keeps_the_worst_step_of_each_window(self, rng):
        # a strong powerLaw motion term makes the per-step drift rise and fall
        spec = GeneratorSpec(H=5.0 * random_hermitian(3, rng), t_family=TFamily("powerLaw", q=2.0))
        rho0 = random_density_matrix(3, rng)
        every = evolve(rho0, spec, IntegratorConfig(dt=1e-2, t_final=0.3))
        strided = evolve(rho0, spec, IntegratorConfig(dt=1e-2, t_final=0.3, monitor_stride=7))
        steps = [0, 7, 14, 21, 28, 30]
        windows = zip(steps, steps[1:])
        want = [0.0] + [max(every.norm_drift[a + 1 : b + 1]) for a, b in windows]
        assert strided.norm_drift.tolist() == want
        # the window maxima differ from the drifts of the recorded steps alone
        assert want != every.norm_drift[steps].tolist()

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_pure_state_entropy_stays_at_roundoff(self, d):
        # roundoff eigenvalues of size 1e-16 would read as 1e-14 of entropy
        rng = np.random.default_rng(d)
        spec = GeneratorSpec(
            H=random_hermitian(d, rng),
            t_family=TFamily("powerLaw", q=1.0),
            gamma_family=GammaFamily("zeroMean", sigma=0.5, r=2.0),
        )
        traj = evolve(random_pure(d, rng), spec, IntegratorConfig(dt=1e-3, t_final=0.2))
        assert np.max(np.abs(traj.monitors["entropy"])) <= 2e-15


class TestMixture:
    def test_weights_validation(self):
        with pytest.raises(ValidationError):
            MixtureSpec(weights=[0.5, 0.4], process_specs=[GeneratorSpec(H=SZ)] * 2)
        with pytest.raises(ValidationError):
            MixtureSpec(weights=[1.0, -0.0], process_specs=[GeneratorSpec(H=SZ)] * 2)

    def test_single_branch_reduces_to_evolve(self, rng):
        rho0 = random_density_matrix(2, rng)
        spec = GeneratorSpec(H=SX, gamma_family=GammaFamily("zeroMean", sigma=0.4, r=2.0))
        mix = MixtureSpec(weights=[1.0], process_specs=[spec])
        a = evolve_convex_mixture(rho0, mix, CFG)
        b = evolve(rho0, spec, CFG)
        assert max_abs(a.final_state() - b.final_state()) < 1e-12

    def test_two_unitary_branches_closed_form(self):
        # equal mixture of sigma_x and sigma_z rotations of |0><0| at t
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        t = 0.7
        mix = MixtureSpec(
            weights=[0.5, 0.5],
            process_specs=[GeneratorSpec(H=SX), GeneratorSpec(H=SZ)],
        )
        traj = evolve_convex_mixture(rho0, mix, IntegratorConfig(dt=1e-4, t_final=t))
        ux, uz = expm(-1j * SX * t), expm(-1j * SZ * t)
        expected = 0.5 * (ux @ rho0 @ dagger(ux) + uz @ rho0 @ dagger(uz))
        assert max_abs(traj.final_state() - expected) < 1e-9
        # sigma_z branch leaves rho0 fixed, sigma_x rotates populations
        pop0 = 0.5 * (np.cos(t) ** 2 + 1.0)
        assert abs(traj.final_state()[0, 0].real - pop0) < 1e-9

    def test_trace_preserved(self, rng):
        rho0 = random_density_matrix(2, rng)
        mix = MixtureSpec(
            weights=[0.3, 0.7],
            process_specs=[
                GeneratorSpec(H=SX, gamma_family=GammaFamily("zeroMean", sigma=0.5, r=2.0)),
                GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.0)),
            ],
        )
        traj = evolve_convex_mixture(rho0, mix, IntegratorConfig(dt=1e-3, t_final=0.5))
        traj.validate()
        assert np.all(np.abs(traj.monitors["trace"] - 1.0) < 1e-10)
