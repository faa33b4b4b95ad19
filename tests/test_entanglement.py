from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import SX, SY, SZ, bell_state, random_hermitian
from nlqd import entanglement, generators, linalg, measurement, propagation
from nlqd.errors import DegenerateConstraintError, ValidationError
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
from nlqd.propagation import IntegratorConfig, MixtureSpec, evolve, evolve_convex_mixture
from test_propagation import count_calls, count_generator_calls


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


def root(rho):
    """The Hermitian square root of a state or a stack: a factor y of rho =
    y y^dag, as the step loop hands a joint generator."""
    return linalg.ClippedEig(rho).power(0.5)


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
        y = root(w.matrix)
        action = entanglement._joint_generator(dyn.spec_H, dyn.spec_K, y, dims)
        assert max_abs(action @ x - polchinski_generator(dyn, y @ dagger(y), dims) @ x) < 1e-14

    @pytest.mark.parametrize("env", ["passive", "active"])
    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_stack_matches_members(self, rng, dims, env):
        dyn = bipartite_dynamics(dims, env, rng)
        rhos = np.array([random_entangled_state(*dims, rng).matrix for _ in range(3)])
        xs = random_factor(dims[0] * dims[1], rng, (3,))
        ys = root(rhos)
        applied = entanglement._joint_generator(dyn.spec_H, dyn.spec_K, ys, dims) @ xs
        assert applied.shape == xs.shape
        for y, x, out in zip(ys, xs, applied):
            assert max_abs(out - polchinski_generator(dyn, y @ dagger(y), dims) @ x) < 1e-14

    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_h_switched_off(self, rng, dims):
        dyn = bipartite_dynamics(dims, "active", rng)
        w = random_entangled_state(*dims, rng, mixture_terms=2)
        x = random_factor(dims[0] * dims[1], rng)
        off = replace(dyn.spec_H, H=np.zeros_like(dyn.spec_H.H))  # the switch-off route's H side
        y = root(w.matrix)
        k_only = entanglement._joint_generator(off, dyn.spec_K, y, dims)
        marginal_k = partial_trace(y @ dagger(y), dims, "H")
        expected = tensor_product(np.eye(dims[0]), generator_matrix(dyn.spec_K, marginal_k)) @ x
        assert max_abs(k_only @ x - expected) < 1e-14
        assert np.all(entanglement._joint_generator(off, None, y, dims) @ x == 0)

    @pytest.mark.parametrize("env", ["passive", "active", "paired"])
    def test_stages_read_marginals_off_the_factor(self, rng, monkeypatch, env):
        # no stage traces a formed joint state: over n steps with stride n the
        # monitor's two calls are the only partial traces
        dims = (2, 4) if env == "active" else (2, 2)
        dyn = power_law_sides(1.3, 1.2, rng) if env == "paired" else bipartite_dynamics(dims, env, rng)
        cfg = IntegratorConfig(dt=1e-3, t_final=5e-3, monitor_stride=5)
        traces = []
        real = entanglement._partial_trace
        monkeypatch.setattr(entanglement, "_partial_trace", lambda *a: traces.append(a[0].shape) or real(*a))
        evolve_bipartite(random_entangled_state(*dims, rng, mixture_terms=2), dyn, cfg)
        assert traces == [(2,) + (dims[0] * dims[1],) * 2] * 2

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
        spec_h = sc.dyn.spec_H
        for members in ([(w.matrix, spec_h)], measurement._route_members(sc, w.matrix)):  # one phase, both routes
            assert krons(lambda: measurement._evolve_joint(sc, members, 5e-3)) == 0


NONE = GammaFamily("none")
ZERO_MEAN = GammaFamily("zeroMean", sigma=0.5, r=1.5)  # r = 1.5 keeps every q on the spectral kernel
# case -> (q, Gamma family) of two powerLaw specs, and whether they stack:
# spectral specs stack whatever their q, product-kernel specs only at one q.
STACK_CASES = {
    "spectral-q": ((1.3, NONE), (0.5, NONE), True),
    "product-one-q": ((2.0, NONE), (2.0, NONE), True),
    "spectral-q-zeroMean": ((1.0, ZERO_MEAN), (2.0, ZERO_MEAN), True),
    "spectral-and-product": ((1.3, NONE), (2.0, NONE), False),  # q = 2 takes the product kernel
    "product-q": ((2.0, NONE), (3.0, NONE), False),
    "gamma-family": ((1.3, NONE), (1.3, ZERO_MEAN), False),
    "sigma": ((1.3, ZERO_MEAN), (1.3, replace(ZERO_MEAN, sigma=0.25)), False),
    "r": ((1.3, ZERO_MEAN), (1.3, replace(ZERO_MEAN, r=2.5)), False),
}


def power_law_sides(q_h, q_k, rng, dims=(2, 2)):
    """powerLaw on both sides, with exponents q_h and q_k."""
    return BipartiteDynamics(
        spec_H=GeneratorSpec(H=random_hermitian(dims[0], rng), t_family=TFamily("powerLaw", q=q_h)),
        spec_K=GeneratorSpec(H=random_hermitian(dims[1], rng), t_family=TFamily("powerLaw", q=q_k)),
    )


def is_paired(g_of_rho) -> bool:
    """Does the joint generator take both sides by one call per stage?"""
    return isinstance(g_of_rho, propagation._OfFactor) and g_of_rho.func is entanglement._paired_joint_generator


class TestPairedJointGenerator:
    """Two sides of one dimension that stack take one generator_matrix call
    on both marginals, which gives each side's generator bit for bit."""

    # Two spectral sides of different q, one of them 0.5, whose power numpy
    # takes by sqrt, and two of one q.
    @pytest.mark.parametrize("q_h, q_k", [(1.3, 1.2), (0.5, 1.2), (0.8, 0.8)])
    @pytest.mark.parametrize("members", ["one", "states", "specs"])
    def test_equals_per_side_calls_bitwise(self, rng, q_h, q_k, members):
        # one state; two states under one spec per side; two states under a
        # stack of two H-side specs, as a correlation report's routes step
        dyn, dims = power_law_sides(q_h, q_k, rng), (2, 2)
        rho = np.array([random_entangled_state(*dims, rng, mixture_terms=2).matrix for _ in range(2)])
        if members == "one":
            rho = rho[0]
        spec_h = dyn.spec_H
        if members == "specs":
            spec_h = generators._stack_specs([spec_h, replace(spec_h, H=random_hermitian(2, rng))])
        g_of_rho = entanglement._joint_generator_fn(spec_h, dyn.spec_K, dims)
        assert is_paired(g_of_rho)
        y = root(rho)
        g = g_of_rho(y)
        assert np.array_equal(g.g_h, generator_matrix(spec_h, linalg._factor_marginals(y, dims, "K")))
        assert np.array_equal(g.g_k, generator_matrix(dyn.spec_K, linalg._factor_marginals(y, dims, "H")))

    # Gram products per stage: both marginals by one only in a paired run
    @pytest.mark.parametrize(
        "h_side, dims, calls, grams",
        [("powerLaw", (2, 2), 1, 1), ("powerLaw", (2, 4), 2, 2), ("nonEssential", (2, 2), 2, 2)],
        ids=["powerLaw-2x2", "powerLaw-2x4", "nonEssential-2x2"],
    )
    def test_generator_calls_per_stage(self, rng, monkeypatch, h_side, dims, calls, grams):
        dyn = power_law_sides(0.8, 1.2, rng, dims)
        if h_side == "nonEssential":
            dyn = replace(dyn, spec_H=bipartite_dynamics(dims, "active", rng).spec_H)
        state = random_entangled_state(*dims, rng, mixture_terms=2)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02)
        seen = count_generator_calls(monkeypatch)
        products = count_calls(monkeypatch, entanglement, "_factor_marginals")
        evolve_bipartite(state, dyn, cfg)
        assert len(seen) == calls * 4 * cfg.n_steps
        assert len(products) == grams * 4 * cfg.n_steps

    @pytest.mark.parametrize("case", list(STACK_CASES))
    def test_sides_stack_by_kernel_and_families(self, case):
        # One rule stacks two specs, as the sides of a joint run and as the
        # branches of a mixture: stacked sides take the paired stage, and
        # stacked branches one step loop.
        *sides, stack = STACK_CASES[case]
        h = random_hermitian(2, np.random.default_rng(7))
        a, b = (GeneratorSpec(H=h, t_family=TFamily("powerLaw", q=q), gamma_family=g) for q, g in sides)
        g_of_rho = entanglement._joint_generator_fn(a, b, (2, 2))
        assert is_paired(g_of_rho) == stack
        runs = []
        with pytest.MonkeyPatch.context() as mp:  # the mutant table calls this test without fixtures
            real = propagation._integrate
            mp.setattr(propagation, "_integrate", lambda *args: runs.append(1) or real(*args))
            mix = MixtureSpec([0.5, 0.5], [a, b])
            evolve_convex_mixture(np.eye(2) / 2, mix, IntegratorConfig(dt=1e-3, t_final=2e-3))
        assert len(runs) == (1 if stack else 2)


    def test_kernel_error_names_no_side(self):
        # K's H acts as a scalar: the paired call fails on side 1, and the stage
        # taken again side by side raises what an unpaired stage raises
        fam = GammaFamily("energyConserving", sigma=0.5, r=2.0)
        dyn = BipartiteDynamics(
            spec_H=GeneratorSpec(H=SZ + 0.3 * SX, gamma_family=fam),
            spec_K=GeneratorSpec(H=0.7 * np.eye(2), gamma_family=fam),
        )
        assert is_paired(entanglement._joint_generator_fn(dyn.spec_H, dyn.spec_K, (2, 2)))
        state = random_entangled_state(2, 2, np.random.default_rng(3))
        with pytest.raises(DegenerateConstraintError, match=r"^H acts as a scalar on the support of rho; "):
            evolve_bipartite(state, dyn, IntegratorConfig(dt=1e-3, t_final=1e-2))

    @pytest.mark.parametrize("stack", [False, True])
    def test_a_raising_stage_takes_one_generator_call(self, rng, monkeypatch, stack):
        # K's H acts as a scalar on the support of a pure K marginal: the
        # paired call raises, and no side is taken again.  The failing state
        # is alone, or member 1 of a stack behind an entangled state.
        fam = GammaFamily("energyConserving", sigma=0.5, r=2.0)
        dyn = BipartiteDynamics(
            spec_H=GeneratorSpec(H=SZ + 0.3 * SX, gamma_family=fam),
            spec_K=GeneratorSpec(H=np.diag([1.0, -0.4]), gamma_family=fam),
        )
        g_of_rho = entanglement._joint_generator_fn(dyn.spec_H, dyn.spec_K, (2, 2))
        assert is_paired(g_of_rho)
        pure_k = tensor_product(np.eye(2) / 2, np.diag([1.0, 0.0]))
        rho = np.array([random_entangled_state(2, 2, rng).matrix, pure_k]) if stack else pure_k
        member = r" \(member 1\)" if stack else ""
        seen = count_generator_calls(monkeypatch)
        with pytest.raises(DegenerateConstraintError, match=rf"^H acts as a scalar on the support of rho{member}; "):
            g_of_rho(root(rho))
        assert len(seen) == 1

    @pytest.mark.parametrize("side", ["H", "K"])
    def test_kernel_error_on_a_route_stack_names_the_route(self, side):
        # two H-side specs stacked, as a correlation report steps its routes;
        # route 1 has a pure marginal on the given side, on whose support
        # that side's diagonal H acts as a scalar.  A marginal read off a
        # factor is never below the floor, so the kernel error that names
        # the route is energyConserving's.
        fam = GammaFamily("energyConserving", sigma=0.5, r=2.0)
        diagonal = GeneratorSpec(H=np.diag([1.0, -0.4]), gamma_family=fam)
        routes = [GeneratorSpec(H=SZ + 0.3 * SX, gamma_family=fam), diagonal]
        g_of_rho = entanglement._joint_generator_fn(generators._stack_specs(routes), diagonal, (2, 2))
        assert is_paired(g_of_rho)
        factors = [np.eye(2) / 2, np.diag([1.0, 0.0])]
        bad = tensor_product(*factors[:: 1 if side == "K" else -1])
        with pytest.raises(DegenerateConstraintError, match=r"^H acts as a scalar on the support of rho \(member 1\); "):
            g_of_rho(root(np.array([np.eye(4) / 4, bad])))

    def test_paired_error_stands_when_the_sides_pass(self, rng, monkeypatch):
        dyn = power_law_sides(1.3, 1.2, rng)
        g_of_rho = entanglement._joint_generator_fn(dyn.spec_H, dyn.spec_K, (2, 2))
        pair = g_of_rho.args[0]

        def fails_paired(spec, rho):
            if spec is pair:
                raise ValidationError("paired")
            return generator_matrix(spec, rho)

        monkeypatch.setattr(entanglement, "generator_matrix", fails_paired)
        with pytest.raises(ValidationError, match="^paired$"):
            g_of_rho(root(random_entangled_state(2, 2, rng).matrix))


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
