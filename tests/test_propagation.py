import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import SX, SY, SZ, random_hermitian, random_pure
from nlqd import entanglement, generators, linalg, propagation
from nlqd.entanglement import (
    BipartiteDynamics,
    BipartiteState,
    evolve_bipartite,
    random_entangled_state,
    verify_cp_extension,
)
from nlqd.errors import DegenerateConstraintError, StepSizeError, ValidationError
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
    evolve_many,
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": np.nan},
            {"dt": np.inf},
            {"t_final": np.nan},
            {"t_final": np.inf},
            {"max_step_drift": np.nan},
            {"max_step_drift": np.inf},
            {"max_step_drift": -1.0},
            {"monitor_stride": np.nan},
            {"monitor_stride": np.inf},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_rejects_a_non_finite_or_negative_value(self, kwargs):
        # each used to raise a bare ValueError or OverflowError, or construct
        # and fail at step 1 with a misleading StepSizeError
        with pytest.raises(ValidationError, match="finite"):
            IntegratorConfig(**{"dt": 1e-3, "t_final": 1.0, **kwargs})

    @pytest.mark.parametrize("stride", [1.5, 2.0])
    def test_rejects_a_monitor_stride_that_is_not_an_integer(self, stride):
        # 1.5 used to construct and record steps 3, 6, 9; the scenario reader rejects both
        with pytest.raises(ValidationError, match="integer"):
            IntegratorConfig(dt=0.1, t_final=1.0, monitor_stride=stride)

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

    def test_every_step_renormalized(self, rng):
        # a strong powerLaw motion term leaves each RK4 step off unit norm by
        # more than roundoff; the recorded traces are 1 only if every step is
        # projected back
        spec = GeneratorSpec(H=5.0 * random_hermitian(3, rng), t_family=TFamily("powerLaw", q=2.0))
        traj = evolve(random_density_matrix(3, rng), spec, IntegratorConfig(dt=1e-2, t_final=0.3))
        assert traj.norm_drift.max() > 1e-9
        assert np.max(np.abs(traj.monitors["trace"] - 1.0)) <= 1e-14

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": np.nan},
            {"dt": np.inf},
            {"dt": -0.1},
            {"dt": 0.0},
            {"max_step_drift": np.nan},
            {"max_step_drift": np.inf},
            {"max_step_drift": 0.0},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_step_state_operator_rejects_a_bad_step(self, kwargs):
        # dt = -0.1 used to step backwards; a NaN raised a misleading StepSizeError
        kwargs = {"dt": 1e-3, "max_step_drift": 1e-6, **kwargs}
        with pytest.raises(ValidationError, match="finite and > 0"):
            step_state_operator(sqrt_factor(np.eye(2) / 2), GeneratorSpec(H=SZ), **kwargs)


class TestEvolveMany:
    def test_members_match_evolve_bitwise(self, rng):
        # a stack steps each member exactly as evolve steps it alone
        spec = GeneratorSpec(
            H=random_hermitian(3, rng),
            t_family=TFamily("powerLaw", q=1.3),
            gamma_family=GammaFamily("energyConserving", sigma=0.5, r=2.0),
        )
        rho0s = [random_density_matrix(3, rng), random_pure(3, rng), random_density_matrix(3, rng, rank=2)]
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, monitor_stride=7)
        many = evolve_many(rho0s, spec, cfg)
        assert len(many) == 3
        for rho0, traj in zip(rho0s, many):
            ref = evolve(rho0, spec, cfg)
            assert np.array_equal(traj.times, ref.times)
            assert np.array_equal(np.array(traj.states), np.array(ref.states))
            assert np.array_equal(traj.norm_drift, ref.norm_drift)
            assert list(traj.monitors) == list(ref.monitors)
            assert all(np.array_equal(traj.monitors[k], ref.monitors[k]) for k in ref.monitors)

    def test_drift_error_names_the_member(self):
        # H = 0: the maximally mixed member 0 sees G = 0 and drifts by roundoff
        # only, while the strong zeroMean term drives member 1 far off unit norm
        spec = GeneratorSpec(H=np.zeros((2, 2)), gamma_family=GammaFamily("zeroMean", sigma=40.0, r=2.0))
        cfg = IntegratorConfig(dt=0.5, t_final=1.0)
        assert evolve_many([np.eye(2) / 2], spec, cfg)[0].norm_drift.max() <= 1e-15
        with pytest.raises(StepSizeError, match=r"\(member 1\)"):
            evolve_many([np.eye(2) / 2, np.diag([0.9, 0.1])], spec, cfg)

    def test_degenerate_constraint_names_the_member(self):
        # H = diag(0, 1) is a scalar on the support of the pure member 1 only
        ec = GammaFamily("energyConserving", sigma=0.5, r=2.0)
        spec = GeneratorSpec(H=np.diag([0.0, 1.0]), gamma_family=ec)
        with pytest.raises(DegenerateConstraintError, match=r"\(member 1\)"):
            evolve_many([np.diag([0.6, 0.4]), np.diag([1.0, 0.0])], spec, CFG)

    def test_inputs_checked_per_member(self):
        spec = GeneratorSpec(H=SZ)
        with pytest.raises(ValidationError):
            evolve_many([np.eye(2) / 2, np.diag([0.5, 0.6])], spec, CFG)
        with pytest.raises(ValidationError):
            evolve_many([], spec, CFG)


def stacking_cases() -> list:
    """One seeded draw of specs built to stack, three per case: one family,
    sigma, r and whole q per case, and per member its own H, A and spectral
    q, with initial states of rank 1, d / 2 and d.  Then two cases of four
    specs that split into two stacks of two: zeroMean specs that differ only
    in sigma, and nonEssential ones whose T takes a whole q = 1 by products
    beside ones that take q = 1.5 from the spectrum.  Each case gives the
    number of stacks its specs make."""
    rng = np.random.default_rng(29)
    cases = []
    for family in ("none", "zeroMean", "energyConserving", "nonEssential"):
        for t in ("vonNeumann", "whole", "spectral"):
            for d in (2, 3, 4):
                sigma, r, q = rng.uniform(0.2, 0.8), rng.choice([1.5, 2.0]), float(rng.integers(1, 3))
                specs = []
                for _ in range(3):
                    if family == "none":
                        fam = GammaFamily(family)
                    elif family == "nonEssential":
                        fam = GammaFamily(family, r=r, A=random_hermitian(d, rng))
                    else:
                        fam = GammaFamily(family, sigma=sigma, r=r)
                    if t == "vonNeumann":
                        t_family = TFamily(t)
                    else:
                        t_family = TFamily("powerLaw", q=q if t == "whole" else rng.uniform(0.5, 2.5))
                    specs.append(GeneratorSpec(H=random_hermitian(d, rng), t_family=t_family, gamma_family=fam))
                rho0s = [random_density_matrix(d, rng, rank) for rank in (1, max(1, d // 2), d)]
                cases.append(pytest.param(specs, rho0s, 1, id=f"{family}/{t}/d{d}"))
    apart = {
        "sigma": [(TFamily("powerLaw", q=1.0), GammaFamily("zeroMean", sigma=s, r=2.0)) for s in (0.3, 0.7, 0.3, 0.7)],
        "q-kernel": [(TFamily("powerLaw", q=q), GammaFamily("nonEssential", r=2.0, A=random_hermitian(3, rng)))
                     for q in (1.0, 1.5, 1.0, 1.5)],
    }
    for name, families in apart.items():
        specs = [GeneratorSpec(H=random_hermitian(3, rng), t_family=t, gamma_family=g) for t, g in families]
        rho0s = [random_density_matrix(3, rng, rank) for rank in (1, 2, 3, 3)]
        cases.append(pytest.param(specs, rho0s, 2, id=f"apart/{name}/d3"))
    return cases


class TestStackContract:
    """A stack takes the array branch of every per-member check and reduction
    in the step loop, one member alone the scalar branch: both give the same
    bits and name the same failing member."""

    @pytest.mark.parametrize("specs, rho0s, n_stacks", stacking_cases())
    def test_stack_equals_each_member_alone_bitwise(self, specs, rho0s, n_stacks):
        # the specs stack by the key a mixture groups its branches by
        stacks = {}
        for spec, rho0 in zip(specs, rho0s):
            stacks.setdefault(propagation._stack_key(spec), []).append((spec, rho0))
        for members in stacks.values():
            self.check_stack(*zip(*members))
        assert len(stacks) == n_stacks

    @staticmethod
    def check_stack(specs, rho0s):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02)
        stack = propagation._spec_generator(generators._stack_specs(specs))
        x, times, states, spectra, drifts = propagation._integrate(np.array(rho0s), stack, cfg)
        for i, (spec, rho0) in enumerate(zip(specs, rho0s)):
            alone = propagation._integrate(rho0, propagation._spec_generator(spec), cfg)
            assert np.array_equal(alone[0], x[:, i]) and np.array_equal(alone[1], times)
            for got, want in zip((states, spectra, drifts), alone[2:]):
                assert np.array_equal(got[:, i], want)
        # a drift bound between the steps' drifts fails the first member over
        # it at the first step any member crosses it, in the stack and alone
        bound = float(np.median(drifts[drifts > 0]))  # a roundoff step can drift by exactly 0
        step, i = np.argwhere(drifts > bound)[0]
        bounded = replace(cfg, max_step_drift=bound)
        message = (f"norm drift {drifts[step, i]:.3e} (member {i}) exceeds {bound:.1e} "
                   f"at step {step} (t = {times[step]:g}); reduce dt")
        with pytest.raises(StepSizeError, match=f"^{re.escape(message)}$") as stacked:
            propagation._integrate(np.array(rho0s), stack, bounded)
        with pytest.raises(StepSizeError, match=f"^{re.escape(message.replace(f' (member {i})', ''))}$") as alone:
            propagation._integrate(rho0s[i], propagation._spec_generator(specs[i]), bounded)
        for exc in (stacked.value, alone.value):
            assert (exc.step, exc.t) == (step, times[step])

    def test_rk4_sums_the_tableau_in_place_of_k2(self, rng):
        a = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        x, h = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)), complex(*rng.standard_normal(2))
        f = a.__matmul__
        k1 = f(x)
        x0, k10 = x.copy(), k1.copy()
        got = propagation._rk4(x, k1, f, h)
        assert np.array_equal(x, x0) and np.array_equal(k1, k10)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        assert np.array_equal(got, x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack"])
    def test_renormalize_rescales_its_argument_in_place(self, rng, lead):
        gamma = 0.6 * (rng.standard_normal(lead + (3, 3)) + 1j * rng.standard_normal(lead + (3, 3)))
        before = gamma.copy()
        out, drift = propagation._renormalize(gamma, 1e3, 1, 0.1)
        assert out is gamma
        nrm = np.array([np.vdot(g, g).real for g in before.reshape((-1, 3, 3))]).reshape(lead)
        assert np.array_equal(gamma, before / np.sqrt(nrm)[..., None, None])
        assert np.array_equal(drift, np.abs(nrm - 1.0))

    def test_one_factor_renormalizes_as_its_one_member_stack_bitwise(self):
        # One seeded draw of factors off unit norm: one factor's norm, drift
        # and rescale on Python floats against its one-member stack's on
        # arrays, the same bits; a bound under the drift fails both with one
        # message, minus the member.
        rng = np.random.default_rng(30)
        for d in (2, 3, 4):
            for off in (1e-12, 1e-9, 1e-6, 1e-3, 0.3):
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                g *= (1.0 + off * rng.uniform(-1.0, 1.0)) / np.linalg.norm(g)
                one, drift = propagation._renormalize(g.copy(), 1.0, 7, 0.007)
                stack, drifts = propagation._renormalize(g[None].copy(), 1.0, 7, 0.007)
                assert type(drift) is float and drifts.shape == (1,) and drift == drifts[0]
                assert one.tobytes() == stack[0].tobytes()
                bound = drift / 2
                with pytest.raises(StepSizeError) as stacked:
                    propagation._renormalize(g[None].copy(), bound, 7, 0.007)
                message = str(stacked.value)
                assert message.endswith(" at step 7 (t = 0.007); reduce dt") and " (member 0)" in message
                with pytest.raises(StepSizeError, match=f"^{re.escape(message.replace(' (member 0)', ''))}$"):
                    propagation._renormalize(g.copy(), bound, 7, 0.007)


def spoil_call(monkeypatch, module, k: int, value: float = -1e-9, at: int = 0) -> list:
    """Swap module._eigvalsh for one whose k-th call returns value as
    eigenvalue at of member 0 (by default a smallest eigenvalue of -1e-9);
    returns the list of matrices it saw."""
    real, seen = module._eigvalsh, []

    def spoiled(a):
        seen.append(a.copy())
        w = real(a)
        if len(seen) == k:
            w[(0,) * (w.ndim - 1) + (at,)] = value
        return w

    monkeypatch.setattr(module, "_eigvalsh", spoiled)
    return seen


class TestEigenvalueFloor:
    """The floor holds on every stepped state: the loop checks each one, the
    t = 0 state as step 0, with one values-only decomposition, whatever kernel
    the generator takes.  So the k-th step's check is the (k + 1)-th call."""

    CFG = IntegratorConfig(dt=1e-3, t_final=0.02, monitor_stride=5)  # 20 steps, records at 5, 10, 15, 20
    PRODUCTS = GeneratorSpec(
        H=SZ + 0.4 * SX, t_family=TFamily("powerLaw", q=1.0), gamma_family=GammaFamily("zeroMean", sigma=0.5, r=2.0)
    )
    SPECTRAL = GeneratorSpec(
        H=SZ + 0.4 * SX, t_family=TFamily("powerLaw", q=1.3), gamma_family=GammaFamily("zeroMean", sigma=0.5, r=2.0)
    )
    FIXED = GeneratorSpec(H=SZ + 0.4 * SX)  # reads no state: steps by one RK4 matrix

    @pytest.mark.parametrize("k", [7, 20])
    @pytest.mark.parametrize("kernel", ["products", "spectral", "fixed"])
    def test_fires_at_the_step_whose_state_fails(self, rng, monkeypatch, kernel, k):
        spec = {"products": self.PRODUCTS, "spectral": self.SPECTRAL, "fixed": self.FIXED}[kernel]
        rho0 = random_density_matrix(2, rng)
        states = evolve(rho0, spec, replace(self.CFG, monitor_stride=1)).states
        seen = spoil_call(monkeypatch, propagation, k + 1)
        with pytest.raises(ValidationError, match=rf"^state at step {k} has eigenvalue -1e-09 < -1e-10$"):
            evolve(rho0, spec, self.CFG)
        # one check per step after the t = 0 one, the last on the state that step k produced
        assert len(seen) == k + 1
        assert max_abs(seen[-1] - states[k]) == 0.0

    def test_names_the_member_of_a_stack(self, rng, monkeypatch):
        spoil_call(monkeypatch, propagation, 4)
        with pytest.raises(ValidationError, match=r"^state at step 3 \(member 0\) has eigenvalue"):
            evolve_many([random_density_matrix(2, rng) for _ in range(3)], self.PRODUCTS, self.CFG)

    @pytest.mark.parametrize(
        "spec, eigh_per_step",
        [(PRODUCTS, 0), (SPECTRAL, 4), (GeneratorSpec(H=SZ), 0)],
        ids=["products", "spectral", "vonNeumann"],
    )
    def test_decompositions_per_step(self, rng, monkeypatch, spec, eigh_per_step):
        eigh, eigvalsh, calls = linalg._eigh, propagation._eigvalsh, []
        monkeypatch.setattr(linalg, "_eigh", lambda a: calls.append("eigh") or eigh(a))
        monkeypatch.setattr(propagation, "_eigvalsh", lambda a: calls.append("floor") or eigvalsh(a))
        evolve(random_density_matrix(2, rng), spec, self.CFG)
        n = self.CFG.n_steps  # plus the factorization's eigh, and the t = 0 state's check
        assert calls.count("eigh") == 1 + eigh_per_step * n
        assert calls.count("floor") == n + 1

    @pytest.mark.parametrize(
        "dyn",
        [
            BipartiteDynamics(spec_H=PRODUCTS),
            BipartiteDynamics(spec_H=SPECTRAL, spec_K=SPECTRAL),
            BipartiteDynamics(spec_H=FIXED, spec_K=FIXED),
        ],
        ids=["no-marginal-decomposed", "both-marginals-decomposed", "fixed"],
    )
    def test_bipartite_run_checks_the_joint_state_at_every_step(self, rng, monkeypatch, dyn):
        # positive marginals do not make a positive joint state
        seen = spoil_call(monkeypatch, propagation, 8)
        state = BipartiteState(d_H=2, d_K=2, matrix=random_density_matrix(4, rng))
        with pytest.raises(ValidationError, match=r"^state at step 7 has eigenvalue"):
            evolve_bipartite(state, dyn, self.CFG)
        assert seen[-1].shape == (4, 4)

    def test_cp_audit_checks_the_joint_stack_at_every_step(self, rng, monkeypatch):
        seen = spoil_call(monkeypatch, propagation, 8)
        samples = [random_entangled_state(2, 2, rng) for _ in range(3)]
        with pytest.raises(ValidationError, match=r"^state at step 7 \(member 0\) has eigenvalue"):
            verify_cp_extension(BipartiteDynamics(spec_H=self.SPECTRAL), samples, self.CFG)
        assert seen[-1].shape == (3, 4, 4)

    def test_step_state_operator_checks_its_step(self, monkeypatch):
        spoil_call(monkeypatch, propagation, 1)
        with pytest.raises(ValidationError, match=r"^state at step 1 has eigenvalue"):
            step_state_operator(sqrt_factor(np.eye(2) / 2), self.PRODUCTS, 1e-3)


@pytest.mark.parametrize("value", [np.nan, -1.5 * linalg.EIG_NEG_TOL], ids=["nan", "under-floor"])
@pytest.mark.parametrize("at", [1, 2])
def test_one_joint_state_floor_reads_every_eigenvalue(rng, monkeypatch, value, at):
    # One state's floor tests its spectrum on Python floats: a NaN after a
    # finite eigenvalue, which min alone drops, and an eigenvalue in
    # [-2 EIG_NEG_TOL, -EIG_NEG_TOL) fail at the step, alone as in a stack.
    cfg = IntegratorConfig(dt=1e-3, t_final=0.02, monitor_stride=5)
    dyn = BipartiteDynamics(spec_H=TestEigenvalueFloor.SPECTRAL)
    rho0 = random_density_matrix(4, rng)
    message = rf"state at step 7{{}} has eigenvalue {re.escape(str(value))} < -1e-10$"
    spoil_call(monkeypatch, propagation, 8, value, at)
    with pytest.raises(ValidationError, match="^" + message.format("")):
        evolve_bipartite(BipartiteState(d_H=2, d_K=2, matrix=rho0), dyn, cfg)
    spoil_call(monkeypatch, propagation, 8, value, at)
    with pytest.raises(ValidationError, match="^" + message.format(r" \(member 0\)")):
        verify_cp_extension(dyn, [BipartiteState(d_H=2, d_K=2, matrix=rho0)] * 2, cfg)


def count_decomposed(monkeypatch, gufunc: str) -> list:
    """Swap LAPACK's gufunc for one that appends the number of matrices each
    call decomposes; numpy's own wrapper goes through the same gufunc."""
    umath = np.linalg._umath_linalg
    real, seen = getattr(umath, gufunc), []
    monkeypatch.setattr(umath, gufunc, lambda a, **kw: seen.append(int(np.prod(a.shape[:-2]))) or real(a, **kw))
    return seen


class TestOneSpectrumPerState:
    """The step loop decomposes each state once, values only, and the
    monitors read the spectra it recorded."""

    @pytest.mark.parametrize("spec", [TestEigenvalueFloor.PRODUCTS, GeneratorSpec(H=SZ)], ids=["products", "fixed"])
    def test_evolve_decomposes_each_state_once(self, rng, monkeypatch, spec):
        cfg = IntegratorConfig(dt=1e-3, t_final=0.02)  # 20 steps, every one recorded
        rho0 = random_density_matrix(2, rng)
        seen = count_decomposed(monkeypatch, "eigvalsh_lo")
        evolve(rho0, spec, cfg)
        assert sum(seen) == 1 + cfg.n_steps + 1  # the input check, then the state at t = 0 and after each step

    def test_monitor_reads_the_checked_spectra(self, rng, monkeypatch):
        real, spectra = propagation._checked_state, []

        def checked(gamma, step):
            rho, w = real(gamma, step)
            spectra.append(w)
            return rho, w

        monkeypatch.setattr(propagation, "_checked_state", checked)
        traj = evolve(random_density_matrix(2, rng), TestEigenvalueFloor.PRODUCTS, IntegratorConfig(dt=1e-3, t_final=0.02))
        assert np.array_equal(traj.monitors["eigenvalues"], spectra)


def count_calls(monkeypatch, module, name: str) -> list:
    """Swap module.name for a wrapper that appends to the returned list."""
    real, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
    return calls


def count_generator_calls(monkeypatch) -> list:
    """The generator_matrix calls of every spec run and joint generator."""
    calls = []
    for module in (propagation, entanglement):
        real = module.generator_matrix
        monkeypatch.setattr(module, "generator_matrix", lambda *a, real=real: calls.append(1) or real(*a))
    return calls


def fixed_run(kind: str, cfg: IntegratorConfig) -> list:
    """One run of the given kind whose generator reads no state: its final
    state, then its propagator S if it has one."""
    rng = np.random.default_rng(5)
    rho0, spec = random_density_matrix(3, rng), GeneratorSpec(H=random_hermitian(3, rng))
    if kind == "evolve":
        return [evolve(rho0, spec, cfg).final_state()]
    if kind == "propagator":
        s, traj = accumulate_propagator(rho0, spec, cfg)
        return [traj.final_state(), s]
    if kind == "mixture":  # three vonNeumann branches: one stack of three H
        specs = [spec, GeneratorSpec(H=random_hermitian(3, rng)), GeneratorSpec(H=random_hermitian(3, rng))]
        return [evolve_convex_mixture(rho0, MixtureSpec(weights=[0.2, 0.3, 0.5], process_specs=specs), cfg).final_state()]
    dyn = BipartiteDynamics(spec_H=GeneratorSpec(H=random_hermitian(2, rng)), spec_K=spec)
    state = BipartiteState(d_H=2, d_K=3, matrix=random_density_matrix(6, rng))
    return [evolve_bipartite(state, dyn, cfg).final_state()]


STAGE_SPECS = {
    "powerLaw-q1": GeneratorSpec(H=SZ + 0.4 * SX, t_family=TFamily("powerLaw", q=1.0)),
    "vonNeumann-zeroMean-r1": GeneratorSpec(H=SZ + 0.4 * SX, gamma_family=GammaFamily("zeroMean", sigma=0.5, r=1.0)),
    "nonEssential": GeneratorSpec(H=SZ + 0.4 * SX, gamma_family=GammaFamily("nonEssential", r=2.0, A=SY)),
}


class TestFixedGenerator:
    """A generator that reads no state (vonNeumann T, no Gamma) steps every
    factor by one RK4 matrix R, formed once per run, with the same drift and
    floor checks at every step."""

    CFG = IntegratorConfig(dt=1e-3, t_final=0.2, monitor_stride=50)
    KINDS = ["evolve", "propagator", "mixture", "bipartite"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_steps_without_a_generator_call(self, monkeypatch, kind):
        calls = count_generator_calls(monkeypatch)
        formed = count_calls(monkeypatch, propagation, "_step_matrix")
        floors = count_calls(monkeypatch, propagation, "_eigvalsh")
        fixed_run(kind, self.CFG)
        assert calls == []
        assert len(formed) == 1
        # every state from t = 0 on; a mixture adds one call for its mixed states
        assert len(floors) == self.CFG.n_steps + 1 + (kind == "mixture")

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_a_stage_by_stage_run(self, monkeypatch, kind):
        cfg = replace(self.CFG, t_final=1.0)
        fixed = fixed_run(kind, cfg)
        for module in (propagation, entanglement):
            monkeypatch.setattr(module, "_fixed_generator", lambda spec: None)
        calls = count_generator_calls(monkeypatch)
        staged = fixed_run(kind, cfg)
        assert len(calls) >= 4 * cfg.n_steps  # the forced run took G at every stage
        assert len(fixed) == len(staged)
        for a, b in zip(fixed, staged):
            assert max_abs(a - b) <= 1e-13

    @pytest.mark.parametrize("name", list(STAGE_SPECS))
    def test_state_reading_specs_step_by_stages(self, rng, monkeypatch, name):
        spec = STAGE_SPECS[name]
        assert generators._fixed_generator(spec) is None
        calls = count_generator_calls(monkeypatch)
        formed = count_calls(monkeypatch, propagation, "_step_matrix")
        evolve(random_density_matrix(2, rng), spec, self.CFG)
        assert len(calls) == 4 * self.CFG.n_steps
        assert formed == []

    def test_a_joint_generator_with_one_state_reading_side_steps_by_stages(self, rng, monkeypatch):
        dyn = BipartiteDynamics(spec_H=GeneratorSpec(H=SZ), spec_K=STAGE_SPECS["powerLaw-q1"])
        for spec_h in (dyn.spec_H, GeneratorSpec(H=0 * SZ)):  # K reads its marginal with H on or off
            assert not isinstance(entanglement._joint_generator_fn(spec_h, dyn.spec_K, (2, 2)), propagation._Fixed)
        calls = count_generator_calls(monkeypatch)
        evolve_bipartite(BipartiteState(d_H=2, d_K=2, matrix=random_density_matrix(4, rng)), dyn, self.CFG)
        assert len(calls) == 2 * 4 * self.CFG.n_steps  # G_H and G_K at every stage

    def test_a_stack_of_h_gives_a_stack_of_r(self, rng):
        specs = [GeneratorSpec(H=random_hermitian(2, rng)) for _ in range(3)]
        stacked = propagation._step_matrix(propagation._spec_generator(generators._stack_specs(specs)), (3, 2, 2), -0.1j)
        one = [propagation._step_matrix(propagation._spec_generator(s), (2, 2), -0.1j) for s in specs]
        assert stacked.shape == (3, 2, 2)
        assert max_abs(stacked - np.array(one)) == 0.0

    def test_r_is_rk4_of_the_linear_step(self, rng):
        # RK4 on a linear x_dot = A x is exactly x -> P(dt A) x, P the degree-4 Taylor polynomial
        h, dt = random_hermitian(3, rng), 0.05
        z = -1j * dt * h
        taylor = np.eye(3) + z + z @ z / 2 + z @ z @ z / 6 + z @ z @ z @ z / 24
        r = propagation._step_matrix(propagation._spec_generator(GeneratorSpec(H=h)), (3, 3), -1j * dt)
        assert max_abs(r - taylor) <= 1e-15

    def test_r_equals_stage_by_stage_rk4_over_drawn_cases(self):
        # One seeded draw: R x against _rk4 of x_dot = G x stage by stage, to
        # roundoff, for x a factor with a carried matrix behind it (the step
        # loop's x), its state one (d, d) or a stack of three under one G or a
        # stack of three, and a complex step h.
        rng = np.random.default_rng(30)
        for d in (2, 3, 4):
            for lead, n_g in (((), 1), ((3,), 1), ((3,), 3)):
                for _ in range(4):
                    specs = [GeneratorSpec(H=random_hermitian(d, rng)) for _ in range(n_g)]
                    fixed = propagation._spec_generator(specs[0] if n_g == 1 else generators._stack_specs(specs))
                    assert isinstance(fixed, propagation._Fixed)
                    h = complex(*rng.uniform(-0.2, 0.2, 2))
                    x = rng.standard_normal((2, *lead, d, d)) + 1j * rng.standard_normal((2, *lead, d, d))
                    r = propagation._step_matrix(fixed, lead + (d, d), h)
                    f = fixed.gen.__matmul__
                    staged = propagation._rk4(x, f(x), f, h)
                    assert max_abs(r @ x - staged) <= 1e-14 * max_abs(x), (d, lead, n_g)

    def test_a_large_step_raises(self):
        # |P(i y)|^2 = 1 - y^6 / 72 + y^8 / 576: at dt ||H|| = 0.5 the norm drifts by 2e-4
        with pytest.raises(StepSizeError, match="reduce dt"):
            evolve(np.diag([0.9, 0.1]), GeneratorSpec(H=SX), IntegratorConfig(dt=0.5, t_final=5.0))
        with pytest.raises(StepSizeError, match="reduce dt"):
            accumulate_propagator(np.diag([0.9, 0.1]), GeneratorSpec(H=SX), IntegratorConfig(dt=0.5, t_final=5.0))


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

    def test_one_product_per_stage_steps_gamma_and_s(self, rng, monkeypatch):
        # S rides behind gamma as one stack, so each RK4 stage applies G once
        spec = GeneratorSpec(H=SZ + 0.2 * SX, t_family=TFamily("powerLaw", q=1.3))
        rho0, cfg = random_density_matrix(2, rng), IntegratorConfig(dt=1e-3, t_final=2e-2)
        want_s, want = accumulate_propagator(rho0, spec, cfg)
        products = []

        class Counted:
            def __init__(self, g):
                self.g = g

            def __matmul__(self, x):
                products.append(x.shape)
                return self.g @ x

        real = propagation._spec_generator
        monkeypatch.setattr(propagation, "_spec_generator", lambda spec: lambda rho, g=real(spec): Counted(g(rho)))
        s, traj = accumulate_propagator(rho0, spec, cfg)
        assert np.array_equal(s, want_s) and np.array_equal(traj.final_state(), want.final_state())
        assert products == [(2, 2, 2)] * 4 * cfg.n_steps

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

    @pytest.mark.parametrize(
        "weights", [[np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.5], [1.0, np.nan]], ids=["nan", "nans", "inf", "nan-last"]
    )
    def test_rejects_non_finite_weights(self, weights):
        # a NaN weight used to construct, and the run wrote NaN states
        with pytest.raises(ValidationError, match="finite"):
            MixtureSpec(weights=weights, process_specs=[GeneratorSpec(H=SZ)] * 2)

    def test_generator_inputs_run_as_lists(self):
        # process_specs given as a generator was consumed by validation, and
        # the run raised an untyped TypeError
        specs = [GeneratorSpec(H=SZ), GeneratorSpec(H=SX, gamma_family=GammaFamily("zeroMean", sigma=0.4, r=2.0))]
        lazy = MixtureSpec(weights=(w for w in [0.3, 0.7]), process_specs=(s for s in specs))
        listed = MixtureSpec(weights=[0.3, 0.7], process_specs=specs)
        rho0 = np.diag([0.7, 0.3])
        a, b = (evolve_convex_mixture(rho0, mix, CFG) for mix in (lazy, listed))
        assert np.array_equal(np.array(a.states), np.array(b.states))
        assert lazy.process_specs == tuple(specs)

    @pytest.mark.parametrize("field", ["weights", "process_specs"])
    def test_none_is_rejected(self, field):
        fields = {"weights": [1.0], "process_specs": [GeneratorSpec(H=SZ)], field: None}
        with pytest.raises(ValidationError, match="must be sequences"):
            MixtureSpec(**fields)

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

    def test_batched_branches_match_branch_evolves_bitwise(self, rng):
        # zeroMean and powerLaw branches alternate: two batches of two, each
        # branch with its own H, summed back in the mixture's order
        zm, pl = GammaFamily("zeroMean", sigma=0.5, r=2.0), TFamily("powerLaw", q=1.3)
        specs = [
            GeneratorSpec(H=random_hermitian(3, rng), gamma_family=zm),
            GeneratorSpec(H=random_hermitian(3, rng), t_family=pl),
            GeneratorSpec(H=random_hermitian(3, rng), gamma_family=zm),
            GeneratorSpec(H=random_hermitian(3, rng), t_family=pl),
        ]
        weights = [0.1, 0.2, 0.3, 0.4]
        rho0 = random_density_matrix(3, rng)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, monitor_stride=5)
        traj = evolve_convex_mixture(rho0, MixtureSpec(weights=weights, process_specs=specs), cfg)
        branches = [evolve(rho0, spec, cfg) for spec in specs]
        want = sum(w * np.array(b.states) for w, b in zip(weights, branches))
        assert np.array_equal(np.array(traj.states), want)
        assert np.array_equal(traj.norm_drift, np.max([b.norm_drift for b in branches], axis=0))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_spectral_branches_of_other_q_step_as_one_batch_bitwise(self, rng, monkeypatch, d):
        # zeroMean at r = 1.5 keeps every branch on the spectral kernel, which
        # reads q per member; q = 0.5 is a power numpy takes by sqrt
        zm, h = GammaFamily("zeroMean", sigma=0.5, r=1.5), random_hermitian(d, rng)
        specs = [GeneratorSpec(H=h, t_family=TFamily("powerLaw", q=q), gamma_family=zm) for q in (1.3, 0.5, 2.5, 1.3)]
        weights = [0.1, 0.2, 0.3, 0.4]
        rho0 = random_density_matrix(d, rng)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, monitor_stride=5)
        branches = [evolve(rho0, spec, cfg) for spec in specs]
        runs = []
        real = propagation._integrate
        monkeypatch.setattr(propagation, "_integrate", lambda *a: runs.append(a[0].shape) or real(*a))
        traj = evolve_convex_mixture(rho0, MixtureSpec(weights=weights, process_specs=specs), cfg)
        assert runs == [(4, d, d)]
        want = sum(w * np.array(b.states) for w, b in zip(weights, branches))
        assert np.array_equal(np.array(traj.states), want)
        assert np.array_equal(traj.norm_drift, np.max([b.norm_drift for b in branches], axis=0))

    def test_non_essential_branches_match_branch_evolves_bitwise(self, rng):
        # nonEssential takes the spectral kernel, but its q = 1 branches take
        # rho^q by products, alone and batched, so they batch apart from the
        # q = 1.5 ones, which take it from the spectrum
        d = 3
        specs = [
            GeneratorSpec(
                H=random_hermitian(d, rng),
                t_family=TFamily("powerLaw", q=q),
                gamma_family=GammaFamily("nonEssential", r=2.0, A=random_hermitian(d, rng)),
            )
            for q in (1.0, 1.5, 1.0, 1.5)
        ]
        assert len({generators._stack_key(s) for s in specs}) == 2
        weights = [0.1, 0.2, 0.3, 0.4]
        rho0 = random_density_matrix(d, rng, 2)
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05, monitor_stride=5)
        traj = evolve_convex_mixture(rho0, MixtureSpec(weights=weights, process_specs=specs), cfg)
        branches = [evolve(rho0, spec, cfg) for spec in specs]
        want = sum(w * np.array(b.states) for w, b in zip(weights, branches))
        assert np.array_equal(np.array(traj.states), want)

    def test_error_names_the_branch(self):
        # the zeroMean branch 1 fails the drift bound at dt = 0.01, alone in
        # its batch as its member 0
        zero_mean = GeneratorSpec(H=50.0 * SX, gamma_family=GammaFamily("zeroMean", sigma=40.0, r=2.0))
        mix = MixtureSpec(weights=[0.5, 0.5], process_specs=[GeneratorSpec(H=SZ), zero_mean])
        with pytest.raises(
            StepSizeError, match=r"^norm drift 3\.080e-04 \(branch 1\) exceeds 1\.0e-06 at step 1 \(t = 0\.01\); reduce dt$"
        ) as caught:
            evolve_convex_mixture(np.diag([0.7, 0.3]), mix, IntegratorConfig(dt=0.01, t_final=0.1))
        assert (caught.value.step, caught.value.t) == (1, 0.01)

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
