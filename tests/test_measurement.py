import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import SX, SZ, bell_state, random_hermitian, singlet_state
from nlqd.errors import StepSizeError, SubspaceInvarianceError, ValidationError
from nlqd.generators import GammaFamily, GeneratorSpec, TFamily, _eval_T, random_density_matrix
from nlqd.entanglement import BipartiteDynamics, BipartiteState, random_entangled_state
from nlqd import entanglement, measurement, propagation
from nlqd.linalg import ClippedEig, dagger, max_abs, partial_trace, tensor_product
from nlqd.measurement import (
    CorrelationScenario,
    MeasurementSetup,
    check_remote_generator_unaffected,
    check_subspace_invariance,
    correlation_full_route,
    correlation_report,
    correlation_switch_off_route,
    evolve_block_diagonal,
    projective_measure,
)
from nlqd.propagation import IntegratorConfig

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

P0 = MeasurementSetup(P=np.diag([1.0, 0.0]))
P1 = MeasurementSetup(P=np.diag([0.0, 1.0]))


def scenario(rho0=None, spec_h=None, spec_k=None, t1=0.4, t2=0.9, dt=1e-3, P_K=P0):
    return CorrelationScenario(
        rho0=rho0 or BipartiteState(d_H=2, d_K=2, matrix=singlet_state()),
        dyn=BipartiteDynamics(spec_H=spec_h or GeneratorSpec(H=SZ), spec_K=spec_k),
        t0=0.0,
        t1=t1,
        t2=t2,
        P_H=P0,
        P_K=P_K,
        cfg=IntegratorConfig(dt=dt, t_final=1.0),
    )


class TestMeasurementSetup:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            MeasurementSetup(P=np.diag([0.5, 0.0]))

    def test_complement(self):
        assert max_abs(P0.Q - np.diag([0.0, 1.0])) < 1e-12

    def test_complement_built_once_and_read_only(self, rng):
        v = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0][:, :2]
        m = MeasurementSetup(P=v @ dagger(v))
        assert np.array_equal(m.Q, np.eye(3) - m.P)
        assert m.Q is m.Q
        for a in (m.P, m.Q):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_rejects_non_hermitian(self):
        # idempotent once symmetrized (it becomes diag(1, 0)), but not Hermitian
        with pytest.raises(ValidationError, match="not Hermitian"):
            MeasurementSetup(P=[[1.0, 0.5], [-0.5, 0.0]])

    def test_rejects_a_stack(self):
        with pytest.raises(ValidationError, match="one matrix"):
            MeasurementSetup(P=np.array([np.diag([1.0, 0.0])] * 2))

    def test_resymmetrizes(self):
        p = MeasurementSetup(P=np.diag([1.0, 0.0]) + 1e-13 * np.array([[0, 1], [0, 0]]))
        assert max_abs(p.P - dagger(p.P)) == 0.0


class TestProjectiveMeasure:
    def test_diagonal_state(self):
        post, prob = projective_measure(np.diag([0.7, 0.3]), P0)
        assert prob == pytest.approx(0.7, abs=1e-12)
        assert max_abs(post.matrix - np.diag([0.7, 0.3])) < 1e-12

    def test_kills_coherences(self, rng):
        rho = random_density_matrix(2, rng)
        post, prob = projective_measure(rho, P0)
        assert abs(post.matrix[0, 1]) < 1e-14
        assert prob == pytest.approx(rho[0, 0].real, abs=1e-12)

    def test_plus_state(self):
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        post, prob = projective_measure(plus, P0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert max_abs(post.matrix - np.eye(2) / 2) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            projective_measure(np.eye(3) / 3, P0)


class TestSubspaceInvariance:
    def test_diagonal_H(self):
        assert check_subspace_invariance(SZ, None, P0)

    def test_off_diagonal_H(self):
        assert not check_subspace_invariance(SX, None, P0)

    def test_with_coupling_matrix(self):
        assert check_subspace_invariance(SZ, SZ, P0)
        assert not check_subspace_invariance(SZ, SX, P0)


class TestBlockDiagonalEvolution:
    def test_requires_invariance(self):
        with pytest.raises(SubspaceInvarianceError):
            evolve_block_diagonal(
                np.diag([0.6, 0.4]),
                GeneratorSpec(H=SX),
                P0,
                IntegratorConfig(dt=1e-2, t_final=0.1),
            )

    def test_requires_block_diagonal_state(self, rng):
        rho = random_density_matrix(2, rng)
        if abs(rho[0, 1]) < 1e-6:
            rho = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        with pytest.raises(ValidationError):
            evolve_block_diagonal(rho, GeneratorSpec(H=SZ), P0, IntegratorConfig(dt=1e-2, t_final=0.1))

    def test_blocks_reproduce_full_evolution(self):
        m = MeasurementSetup(P=np.diag([1.0, 1.0, 0.0, 0.0]))
        h = np.zeros((4, 4), dtype=complex)
        h[:2, :2] = SX
        h[2:, 2:] = 2.0 * SZ
        rho = np.diag([0.4, 0.2, 0.3, 0.1]).astype(complex)
        spec = GeneratorSpec(H=h, t_family=TFamily("powerLaw", q=1.5))
        full, residual = evolve_block_diagonal(rho, spec, m, IntegratorConfig(dt=1e-3, t_final=0.5))
        assert residual < 1e-8
        full.validate()

    def test_common_eigenbasis_stationary(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        m = MeasurementSetup(P=np.diag([1.0, 0.0, 0.0]))
        spec = GeneratorSpec(H=np.diag([1.0, 2.0, 3.0]).astype(complex))
        full, residual = evolve_block_diagonal(rho, spec, m, IntegratorConfig(dt=1e-3, t_final=0.3))
        assert residual < 1e-10
        assert max_abs(full.final_state() - rho) < 1e-10

    @pytest.mark.parametrize(
        "t_family, calls", [(TFamily("vonNeumann"), 0), (TFamily("powerLaw", q=1.5), 4)], ids=["vonNeumann", "powerLaw"]
    )
    def test_blocks_step_as_one_stack(self, monkeypatch, t_family, calls):
        # both blocks take one generator call per stage, or none when G reads no state
        m = MeasurementSetup(P=np.diag([1.0, 1.0, 0.0]))
        h = np.diag([0.3, -0.2, 1.0]).astype(complex)
        h[0, 1] = h[1, 0] = 0.5
        rho = np.diag([0.5, 0.2, 0.3]).astype(complex)
        real, seen = measurement.generator_matrix, []
        monkeypatch.setattr(measurement, "generator_matrix", lambda *a: seen.append(1) or real(*a))
        cfg = IntegratorConfig(dt=1e-3, t_final=0.1)
        full, residual = evolve_block_diagonal(rho, GeneratorSpec(H=h, t_family=t_family), m, cfg)
        assert len(seen) == calls * cfg.n_steps
        assert residual < 1e-13

    def test_empty_block(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        full, residual = evolve_block_diagonal(
            rho, GeneratorSpec(H=SZ), P0, IntegratorConfig(dt=1e-3, t_final=0.2)
        )
        assert residual < 1e-10


class TestCorrelationScenarioValidation:
    def test_time_ordering(self):
        with pytest.raises(ValidationError):
            scenario(t1=0.9, t2=0.4)

    @pytest.mark.parametrize(
        "times", [(np.nan, 0.4, 0.9), (0.0, np.nan, 0.9), (0.0, 0.4, np.nan), (0.0, 0.4, np.inf), (-np.inf, 0.4, 0.9)],
        ids=["t0-nan", "t1-nan", "t2-nan", "t2-inf", "t0-minus-inf"],
    )
    def test_times_must_be_finite(self, times):
        # an infinite phase used to end in an OverflowError when the report ran
        sc = scenario()
        with pytest.raises(ValidationError, match="finite"):
            CorrelationScenario(sc.rho0, sc.dyn, *times, sc.P_H, sc.P_K, sc.cfg)

    def test_gamma_free_required(self):
        spec = GeneratorSpec(H=SZ, gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0))
        with pytest.raises(ValidationError):
            scenario(spec_h=spec)

    def test_projector_dims(self):
        with pytest.raises(ValidationError):
            CorrelationScenario(
                rho0=BipartiteState(d_H=2, d_K=2, matrix=singlet_state()),
                dyn=BipartiteDynamics(spec_H=GeneratorSpec(H=SZ)),
                t0=0.0,
                t1=0.4,
                t2=0.9,
                P_H=MeasurementSetup(P=np.diag([1.0, 0.0, 0.0])),
                P_K=P0,
            )

    @pytest.mark.parametrize("side", ["H", "K"])
    @pytest.mark.parametrize("t1", [0.0, 0.4], ids=["t0_eq_t1", "t0_lt_t1"])
    def test_spec_dims(self, side, t1, rng):
        spec3 = GeneratorSpec(H=random_hermitian(3, rng))
        kwargs = {"spec_h": spec3} if side == "H" else {"spec_k": spec3}
        with pytest.raises(ValidationError, match=f"spec_{side} dimension 3 does not match d_{side} = 2"):
            scenario(t1=t1, **kwargs)

    def test_invariance_enforced_at_compute(self):
        sc = scenario(spec_h=GeneratorSpec(H=SX))
        with pytest.raises(SubspaceInvarianceError):
            correlation_full_route(sc)


class TestSingletFrozen:
    def test_anticorrelation(self):
        # singlet with sigma_z dynamics: P(up_H) = 1/2 and the K outcome is
        # perfectly anticorrelated, so P(up_H, up_K at t2) with P_K = |0><0|
        # measured against the anticorrelated branch gives 0
        sc = scenario()
        p = correlation_full_route(sc)
        assert p == pytest.approx(0.0, abs=1e-9)

    def test_conditional_certainty(self):
        sc = CorrelationScenario(
            rho0=BipartiteState(d_H=2, d_K=2, matrix=singlet_state()),
            dyn=BipartiteDynamics(spec_H=GeneratorSpec(H=SZ)),
            t0=0.0,
            t1=0.4,
            t2=0.9,
            P_H=P0,
            P_K=P1,
            cfg=IntegratorConfig(dt=1e-3, t_final=1.0),
        )
        rep = correlation_report(sc)
        assert rep["p_first"] == pytest.approx(0.5, abs=1e-9)
        assert rep["p_joint_full"] == pytest.approx(0.5, abs=1e-9)
        assert rep["p_conditional"] == pytest.approx(1.0, abs=1e-8)
        assert rep["p_joint_switch"] == pytest.approx(rep["p_joint_full"], abs=1e-9)


class TestFixedJointGenerator:
    """A phase whose active sides all read no state steps by the RK4 matrix
    of the joint generator of their H, formed once per phase."""

    def test_zero_joint_generator_steps_by_the_identity(self):
        # the singlet's switch-off route: H switched off and K passive
        g = entanglement._joint_generator_fn(GeneratorSpec(H=0 * SZ), None, (2, 2))
        assert isinstance(g, propagation._Fixed)
        assert np.array_equal(propagation._step_matrix(g, (4, 4), -0.3j), np.eye(4))

    def test_singlet_report_takes_no_generator_call(self, monkeypatch):
        sc = scenario()
        want = correlation_report(sc)
        calls = []
        real = entanglement.generator_matrix
        monkeypatch.setattr(entanglement, "generator_matrix", lambda *a: calls.append(1) or real(*a))
        formed, floors = [], []
        step_matrix, eigvalsh = propagation._step_matrix, propagation._eigvalsh
        monkeypatch.setattr(propagation, "_step_matrix", lambda *a: formed.append(1) or step_matrix(*a))
        monkeypatch.setattr(propagation, "_eigvalsh", lambda a: floors.append(1) or eigvalsh(a))
        assert correlation_report(sc) == want
        assert calls == []
        assert len(formed) == 2  # t0 -> t1, then t1 -> t2 once for both routes
        first, second = (measurement._phase_cfg(sc.cfg, t).n_steps for t in (sc.t1 - sc.t0, sc.t2 - sc.t1))
        assert len(floors) == 2 + first + second  # every state is checked, t = 0 once per phase

    def test_routes_match_a_stage_by_stage_run(self, monkeypatch):
        sc = scenario(spec_k=GeneratorSpec(H=0.7 * SX + 0.2 * SZ), P_K=P1)
        fixed = correlation_report(sc)
        monkeypatch.setattr(entanglement, "_fixed_generator", lambda spec: None)
        staged = correlation_report(sc)
        for key in ("p_joint_full", "p_joint_switch", "p_first"):
            assert abs(fixed[key] - staged[key]) <= 1e-13

    @pytest.mark.parametrize("route", [correlation_full_route, correlation_switch_off_route])
    def test_a_large_step_raises(self, route):
        # K under 3 sigma_x at dt = 0.5: |P(i y)|^2 = 1 - y^6 / 72 + y^8 / 576 drifts by 0.1 per step
        sc = scenario(spec_k=GeneratorSpec(H=3.0 * SX), t1=0.0, t2=2.0, dt=0.5)
        with pytest.raises(StepSizeError, match="reduce dt"):
            route(sc)


def rk4(xs, rhs, dt):
    """One classical RK4 step of x_dot = rhs(x) for a tuple x of arrays."""
    k1 = rhs(xs)
    k2 = rhs(tuple(x + 0.5 * dt * k for x, k in zip(xs, k1)))
    k3 = rhs(tuple(x + 0.5 * dt * k for x, k in zip(xs, k2)))
    k4 = rhs(tuple(x + dt * k for x, k in zip(xs, k3)))
    return tuple(x + (dt / 6.0) * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(xs, k1, k2, k3, k4))


def full_route_three_propagators(sc, rho1):
    """The block-resolved route with a propagator for each H block and one for
    K, the Q block's stepped but never read, by its own RK4 tableau: the
    oracle of the block route, independent of the engine's step loop."""
    d_h, d_k = sc.rho0.dims
    p_h_full = tensor_product(sc.P_H.P, np.eye(d_k))
    q_h_full = tensor_product(sc.P_H.Q, np.eye(d_k))
    rho_p = p_h_full @ rho1 @ p_h_full
    rho_q = q_h_full @ rho1 @ q_h_full
    m_p = partial_trace(rho_p, (d_h, d_k), "K")
    m_q = partial_trace(rho_q, (d_h, d_k), "K")
    n_k = partial_trace(rho_p + rho_q, (d_h, d_k), "H")
    spec_h, spec_k = sc.dyn.spec_H, sc.dyn.spec_K

    def rhs(xs):
        s_p, s_q, s_k = xs
        t_p = sc.P_H.P @ _eval_T(spec_h, ClippedEig(s_p @ m_p @ dagger(s_p))) @ sc.P_H.P
        t_q = sc.P_H.Q @ _eval_T(spec_h, ClippedEig(s_q @ m_q @ dagger(s_q))) @ sc.P_H.Q
        ds_k = np.zeros_like(s_k)
        if spec_k is not None:
            ds_k = -1j * (_eval_T(spec_k, ClippedEig(s_k @ n_k @ dagger(s_k))) @ s_k)
        return -1j * (t_p @ s_p), -1j * (t_q @ s_q), ds_k

    xs = (sc.P_H.P.copy(), sc.P_H.Q.copy(), np.eye(d_k, dtype=complex))
    phase = measurement._phase_cfg(sc.cfg, sc.t2 - sc.t1)
    for _ in range(phase.n_steps):
        xs = rk4(xs, rhs, phase.dt)
    s_p, _, s_k = xs
    prop = tensor_product(s_p, s_k)
    rho_p_t2 = prop @ rho_p @ dagger(prop)
    p_k_full = tensor_product(np.eye(d_h), sc.P_K.P)
    return float(np.trace(p_k_full @ rho_p_t2 @ p_k_full).real)


def empty_block_scenario(p_h):
    """The H marginal stays |0><0| under a diagonal H: with p_h = |0><0| the Q
    block carries no weight, with |1><1| the P block none."""
    rng = np.random.default_rng(2024)
    return CorrelationScenario(
        rho0=BipartiteState(d_H=2, d_K=2, matrix=np.kron(np.diag([1.0, 0.0]), random_density_matrix(2, rng))),
        dyn=BipartiteDynamics(
            spec_H=GeneratorSpec(H=np.diag([0.7, -0.4]), t_family=TFamily("powerLaw", q=1.4)),
            spec_K=GeneratorSpec(H=random_hermitian(2, rng), t_family=TFamily("powerLaw", q=1.2)),
        ),
        t0=0.0,
        t1=0.15,
        t2=0.35,
        P_H=MeasurementSetup(P=p_h),
        P_K=P0,
        cfg=IntegratorConfig(dt=1e-3, t_final=1.0),
    )


BENCH_REPORTS = {name: sc for name, sc, _ in workloads.correlation_scenarios(np.random.default_rng(7919))}
ROUTE_SCENARIOS = {
    **BENCH_REPORTS,
    "q_block_empty": empty_block_scenario(np.diag([1.0, 0.0])),
    "p_block_empty": empty_block_scenario(np.diag([0.0, 1.0])),
}


def full_route_gap(sc, dt):
    """|block route - propagator oracle| with both stepped at dt."""
    sc = replace(sc, cfg=replace(sc.cfg, dt=dt))
    rho1 = measurement._first_phase(sc)
    return abs(measurement._p_joint(sc, rho1, (0,))[0] - full_route_three_propagators(sc, rho1))


def coarse_scenario(t1, t2):
    """powerLaw sides stepped at dt = 0.3, whose norm drift fails the default bound."""
    return CorrelationScenario(
        rho0=random_entangled_state(2, 2, np.random.default_rng(3)),
        dyn=BipartiteDynamics(
            spec_H=GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.3)),
            spec_K=GeneratorSpec(H=SX, t_family=TFamily("powerLaw", q=1.2)),
        ),
        t0=0.0,
        t1=t1,
        t2=t2,
        P_H=P0,
        P_K=P0,
        cfg=IntegratorConfig(dt=0.3, t_final=0.3),
    )


class TestErrorNames:
    """A failing step names what failed in the scenario's terms: the first
    phase steps one state, so it names no member; a route is named."""

    @pytest.mark.parametrize("run", [correlation_report, correlation_full_route, correlation_switch_off_route])
    def test_first_phase_names_no_member(self, run):
        with pytest.raises(StepSizeError, match=r"^norm drift [-+.e0-9]+ exceeds 1\.0e-06; reduce dt$"):
            run(coarse_scenario(0.6, 1.2))

    @pytest.mark.parametrize(
        "run, route",
        [(correlation_report, "full route"), (correlation_full_route, "full route"),
         (correlation_switch_off_route, "switch-off route")],
    )
    def test_a_route_names_itself(self, run, route):
        # at t1 = 0.01 the first phase passes; the full route fails, and the
        # switch-off route too when it steps alone
        with pytest.raises(StepSizeError, match=rf"^norm drift [-+.e0-9]+ \({route}\) exceeds"):
            run(coarse_scenario(0.01, 0.61))


class TestRouteAgreement:
    @pytest.mark.parametrize("name", list(ROUTE_SCENARIOS))
    def test_full_route_matches_three_propagators(self, name):
        assert full_route_gap(ROUTE_SCENARIOS[name], 1e-3) <= 1e-11

    def test_full_route_gap_to_the_propagators_is_truncation(self):
        # The measured state stepped whole and the propagators differ only by
        # RK4 truncation, which shrinks 16x per halving of dt.
        sc = ROUTE_SCENARIOS["q_block_empty"]
        assert full_route_gap(sc, 5e-4) * 8 <= full_route_gap(sc, 1e-3)

    def test_full_route_checks_every_step(self):
        # At dt = 0.4 the oracle's unchecked propagators give p = 0.70488
        # (0.27867 at dt = 1e-4); the step loop must refuse the step instead.
        sc = CorrelationScenario(
            rho0=BipartiteState(d_H=2, d_K=2, matrix=random_density_matrix(4, np.random.default_rng(3), 2)),
            dyn=BipartiteDynamics(
                spec_H=GeneratorSpec(H=np.diag([1.0, 0.3]), t_family=TFamily("powerLaw", q=1.5)),
                spec_K=GeneratorSpec(H=3.0 * SX, t_family=TFamily("powerLaw", q=1.2)),
            ),
            t0=0.0,
            t1=0.0,
            t2=2.0,
            P_H=P0,
            P_K=P0,
            cfg=IntegratorConfig(dt=0.4, t_final=2.0),
        )
        with pytest.raises(StepSizeError):
            correlation_full_route(sc)

    def test_empty_blocks(self):
        q_empty, p_empty = ROUTE_SCENARIOS["q_block_empty"], ROUTE_SCENARIOS["p_block_empty"]
        q_h_full = tensor_product(q_empty.P_H.Q, np.eye(2))
        rho1 = measurement._first_phase(q_empty)
        assert not (q_h_full @ rho1 @ q_h_full).any()
        rep = correlation_report(q_empty)
        assert rep["p_first"] == pytest.approx(1.0, abs=1e-12)
        assert rep["p_joint_full"] == pytest.approx(rep["p_joint_switch"], abs=1e-12)
        assert correlation_full_route(p_empty) == 0.0

    def test_product_state_factorizes(self, rng):
        a = np.diag([0.8, 0.2]).astype(complex)
        b = np.diag([0.3, 0.7]).astype(complex)
        sc = scenario(rho0=BipartiteState(d_H=2, d_K=2, matrix=tensor_product(a, b)),
                      spec_h=GeneratorSpec(H=SZ), spec_k=GeneratorSpec(H=2.0 * SZ))
        p = correlation_full_route(sc)
        assert p == pytest.approx(0.8 * 0.3, abs=1e-9)
        assert correlation_switch_off_route(sc) == pytest.approx(p, abs=1e-9)

    def test_nontrivial_dynamics_routes_agree(self):
        # entangled non-maximal state, active power-law dynamics on both sides
        v = np.array([np.sqrt(0.7), 0, 0, np.sqrt(0.3)], dtype=complex)
        rho0 = BipartiteState(d_H=2, d_K=2, matrix=np.outer(v, v.conj()))
        sc = scenario(
            rho0=rho0,
            spec_h=GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.5)),
            spec_k=GeneratorSpec(H=1.3 * SZ, t_family=TFamily("powerLaw", q=2.0)),
        )
        p_full = correlation_full_route(sc)
        p_switch = correlation_switch_off_route(sc)
        assert p_full == pytest.approx(p_switch, abs=1e-8)

    def test_coherent_marginal_routes_agree(self, rng):
        # A mixed entangled state whose H marginal has coherences in the P_H
        # basis, and a diagonal H that is not traceless: H rho^q + rho^q H then
        # has off-diagonal entries and moves the P_H populations, so only a
        # switch-off route that stops H at t1 matches the full route.
        sc = scenario(
            rho0=BipartiteState(d_H=2, d_K=2, matrix=random_density_matrix(4, rng, 2)),
            spec_h=GeneratorSpec(H=np.diag([1.0, 0.3]), t_family=TFamily("powerLaw", q=1.5)),
            spec_k=GeneratorSpec(H=SX, t_family=TFamily("powerLaw", q=1.2)),
            t1=0.2,
            t2=0.4,
        )
        rep = correlation_report(sc)
        assert rep["p_joint_switch"] == pytest.approx(rep["p_joint_full"], abs=1e-9)

    def test_remote_generator_unaffected(self):
        v = np.array([np.sqrt(0.6), 0, 0, np.sqrt(0.4)], dtype=complex)
        rho0 = BipartiteState(d_H=2, d_K=2, matrix=np.outer(v, v.conj()))
        sc = scenario(
            rho0=rho0,
            spec_h=GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.5)),
            spec_k=GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.5)),
        )
        assert check_remote_generator_unaffected(sc) < 1e-12

    @pytest.mark.parametrize("passive", [False, True])
    def test_report_carries_remote_generator_change(self, passive, monkeypatch):
        v = np.array([np.sqrt(0.6), 0, 0, np.sqrt(0.4)], dtype=complex)
        spec = GeneratorSpec(H=SZ, t_family=TFamily("powerLaw", q=1.5))
        sc = scenario(
            rho0=BipartiteState(d_H=2, d_K=2, matrix=np.outer(v, v.conj())),
            spec_h=spec,
            spec_k=None if passive else spec,
            t1=0.2,
            t2=0.4,
        )
        expected = check_remote_generator_unaffected(sc)
        calls = []
        integrate = measurement._integrate
        monkeypatch.setattr(measurement, "_integrate", lambda *a: calls.append(1) or integrate(*a))
        rep = correlation_report(sc)
        assert rep["remote_generator_change"] == expected
        assert len(calls) == 2  # t0 -> t1 once, then t1 -> t2 once for both routes

    def test_report_steps_both_routes_as_one_stack(self, monkeypatch):
        sc = ROUTE_SCENARIOS["report/powerLaw/0"]
        want = correlation_report(sc)
        runs = []
        for module in (propagation, measurement):
            real = module._integrate
            monkeypatch.setattr(module, "_integrate", lambda rho0, *a, real=real: runs.append(rho0.shape) or real(rho0, *a))
        assert correlation_report(sc) == want
        assert runs == [(1, 4, 4), (2, 4, 4)]  # t0 -> t1, then both routes from t1 to t2

    def test_report_takes_one_generator_call_per_stage(self, monkeypatch):
        # the H and K sides are spectral powerLaw of one dimension: they stack
        # in both phases, routes included, into one call per stage
        sc = ROUTE_SCENARIOS["report/powerLaw/0"]
        want = correlation_report(sc)
        calls = []
        real = entanglement.generator_matrix
        monkeypatch.setattr(entanglement, "generator_matrix", lambda *a: calls.append(1) or real(*a))
        assert correlation_report(sc) == want
        first, second = (measurement._phase_cfg(sc.cfg, t).n_steps for t in (sc.t1 - sc.t0, sc.t2 - sc.t1))
        assert len(calls) == 4 * (first + second)

    @pytest.mark.parametrize("name", list(BENCH_REPORTS))
    def test_report_routes_equal_the_single_routes_bitwise(self, name):
        sc = ROUTE_SCENARIOS[name]
        rep = correlation_report(sc)
        assert rep["p_joint_full"] == correlation_full_route(sc)
        assert rep["p_joint_switch"] == correlation_switch_off_route(sc)

    def test_repeat_measurement_certainty(self):
        # measuring the same diagonal observable twice on one side: outcome
        # at t2 conditioned on the t1 outcome is certain under sigma_z dynamics
        a = np.diag([0.8, 0.2]).astype(complex)
        rho0 = BipartiteState(d_H=2, d_K=2, matrix=tensor_product(a, np.diag([1.0, 0.0])))
        sc = scenario(rho0=rho0, spec_h=GeneratorSpec(H=SZ))
        rep = correlation_report(sc)
        assert rep["p_first"] == pytest.approx(0.8, abs=1e-9)
