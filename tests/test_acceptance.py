"""Acceptance suite.

Each test covers one acceptance criterion, prints exactly one
``ACCEPTANCE <n>: PASS|FAIL`` line on the real terminal (capture is
suspended for the print) and asserts the criterion at its pinned
tolerance.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import SX, SZ, bell_state, random_hermitian, random_pure, singlet_state
from nlqd.entanglement import (
    BipartiteDynamics,
    BipartiteState,
    random_entangled_state,
    trivial_extension,
    evolve_bipartite,
)
from nlqd.generators import (
    GammaFamily,
    GeneratorSpec,
    TFamily,
    check_polchinski_condition,
    check_zero_mean,
    random_density_matrix,
)
from nlqd.linalg import (
    dagger,
    max_abs,
    mutual_information,
    partial_trace,
    purity,
    tensor_product,
)
from nlqd.measurement import (
    CorrelationScenario,
    MeasurementSetup,
    correlation_full_route,
    correlation_switch_off_route,
)
from nlqd.propagation import IntegratorConfig, MixtureSpec, evolve, evolve_convex_mixture, evolve_many


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(criterion: int, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert passed, line


def family_specs(h, a):
    return [
        GeneratorSpec(H=h),
        GeneratorSpec(H=h, t_family=TFamily("powerLaw", q=1.0)),
        GeneratorSpec(
            H=h, t_family=TFamily("powerLaw", q=1.0), gamma_family=GammaFamily("zeroMean", sigma=0.5, r=2.0)
        ),
        GeneratorSpec(
            H=h,
            t_family=TFamily("powerLaw", q=1.0),
            gamma_family=GammaFamily("energyConserving", sigma=0.5, r=2.0),
        ),
        GeneratorSpec(
            H=h, t_family=TFamily("powerLaw", q=1.0), gamma_family=GammaFamily("nonEssential", r=2.0, A=a)
        ),
    ]


def test_criterion_1_trace_positivity():
    # 300 trajectories: per dimension and family, the 20 states drawn for it
    # step as one evolve_many stack.
    rng = np.random.default_rng(101)
    cfg = IntegratorConfig(dt=1e-3, t_final=5.0)
    worst_trace, worst_eig = 0.0, 0.0
    ok = True
    n_traj = 0
    for dim in (2, 3, 4):
        h = random_hermitian(dim, rng)
        a = random_hermitian(dim, rng)
        for spec in family_specs(h, a):
            rho0s = [random_density_matrix(dim, rng) for _ in range(20)]
            for traj in evolve_many(rho0s, spec, cfg):
                tr_dev = float(np.max(np.abs(traj.monitors["trace"] - 1.0)))
                min_eig = float(np.min(traj.monitors["eigenvalues"]))
                worst_trace = max(worst_trace, tr_dev)
                worst_eig = min(worst_eig, min_eig)
                ok = ok and tr_dev <= 1e-9 and min_eig >= -1e-10
                n_traj += 1
    ok = ok and n_traj == 300
    report(1, ok, f"max |trace-1| {worst_trace:.2e}, min eig {worst_eig:.2e}")


def test_criterion_2_pure_state_condition():
    rng = np.random.default_rng(202)
    h = SZ + 0.4 * SX
    t_final = 1.0
    cfg = IntegratorConfig(dt=1e-3, t_final=t_final)
    u = expm(-1j * h * t_final)
    worst = 0.0
    gammas = [
        GammaFamily("none"),
        GammaFamily("zeroMean", sigma=0.6, r=2.0),
        GammaFamily("energyConserving", sigma=0.6, r=2.0),
        GammaFamily("nonEssential", r=2.0, A=SX),
    ]
    for q in (0.5, 1.0, 2.0):
        for gam in gammas:
            spec = GeneratorSpec(H=h, t_family=TFamily("powerLaw", q=q), gamma_family=gam)
            rho0 = random_pure(2, rng)
            traj = evolve(rho0, spec, cfg)
            worst = max(worst, max_abs(traj.final_state() - u @ rho0 @ dagger(u)))
    report(2, worst <= 1e-6, f"max deviation from closed-form unitary {worst:.2e}")


def test_criterion_3_zero_mean_criterion():
    rng = np.random.default_rng(303)
    h = random_hermitian(3, rng)
    a = random_hermitian(3, rng)
    worst = 0.0
    ok = True
    for spec in family_specs(h, a):
        samples = [random_density_matrix(3, rng) for _ in range(50)]
        rep = check_zero_mean(spec, samples)
        worst = max(worst, float(np.max(rep.residuals)))
        ok = ok and rep.passed and float(np.max(rep.residuals)) <= 1e-9
    # broken control: Gamma(rho) = rho without mean subtraction
    control_states = [random_density_matrix(3, rng) for _ in range(50)]
    broken = check_zero_mean(GeneratorSpec(H=h), control_states, gamma_fn=lambda r: r)
    oracle = np.array([np.sum(np.linalg.eigvalsh(s) ** 2) for s in control_states])
    control_ok = (not broken.passed) and np.allclose(broken.residuals, oracle, atol=1e-10)
    report(3, ok and control_ok, f"max residual {worst:.2e}, broken control residual = purity")


def test_criterion_4_essentiality_dichotomy():
    rng = np.random.default_rng(404)
    # the spec's dimension must match the 3x3 states; zeroMean's Gamma never reads H
    zero_mean = GeneratorSpec(
        H=np.diag([1.0, 0.0, -1.0]), gamma_family=GammaFamily("zeroMean", sigma=1.0, r=2.0)
    )
    n_pass = 0
    for _ in range(100):
        rho = random_density_matrix(3, rng, rank=int(rng.integers(1, 4)))
        spec = GeneratorSpec(
            H=random_hermitian(3, rng), gamma_family=GammaFamily("nonEssential", r=2.0, A=random_hermitian(3, rng))
        )
        if check_polchinski_condition(spec, rho).passed:
            n_pass += 1
    witnesses = []
    n_fail = 0
    for _ in range(100):
        eigs = rng.dirichlet(np.ones(3))
        while np.min(eigs) < 1e-3 or np.min(np.abs(np.diff(np.sort(eigs)))) < 1e-3:
            eigs = rng.dirichlet(np.ones(3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        rho = q @ np.diag(eigs) @ dagger(q)
        res = check_polchinski_condition(zero_mean, rho)
        if not res.passed:
            n_fail += 1
            witnesses.append((rho, res.residual))
    passed = n_pass == 100 and n_fail == 100 and len(witnesses) == 100
    report(4, passed, f"nonEssential {n_pass}/100 pass, zeroMean {n_fail}/100 fail, witnesses logged")


def test_criterion_5_polchinski_invariants():
    rng = np.random.default_rng(505)
    cfg = IntegratorConfig(dt=1e-3, t_final=5.0, monitor_stride=100)
    worst_eig, worst_ent, worst_remote = 0.0, 0.0, 0.0
    for d_h, d_k in ((2, 2), (2, 3)):
        spec = GeneratorSpec(
            H=random_hermitian(d_h, rng),
            t_family=TFamily("powerLaw", q=1.3),
            gamma_family=GammaFamily("nonEssential", r=2.0, A=random_hermitian(d_h, rng)),
        )
        w = random_entangled_state(d_h, d_k, rng)
        traj = evolve_bipartite(w, BipartiteDynamics(spec_H=spec), cfg)
        eig0 = np.sort(np.linalg.eigvalsh(w.matrix))
        rho_k0 = w.marginal_K()
        for s in traj.states:
            worst_eig = max(worst_eig, max_abs(np.sort(np.linalg.eigvalsh(s)) - eig0))
            worst_remote = max(worst_remote, max_abs(partial_trace(s, (d_h, d_k), "H") - rho_k0))
        for key in ("entropy", "entropy_H", "entropy_K"):
            m = traj.monitors[key]
            worst_ent = max(worst_ent, float(np.max(np.abs(m - m[0]))))
    passed = worst_eig <= 1e-6 and worst_ent <= 1e-6 and worst_remote <= 1e-7
    report(5, passed, f"eig drift {worst_eig:.2e}, entropy drift {worst_ent:.2e}, remote drift {worst_remote:.2e}")


def test_criterion_6_locality_separability():
    rng = np.random.default_rng(606)
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0, monitor_stride=100)
    spec = GeneratorSpec(
        H=random_hermitian(2, rng),
        t_family=TFamily("powerLaw", q=1.5),
        gamma_family=GammaFamily("nonEssential", r=2.0, A=random_hermitian(2, rng)),
    )
    # product input: joint trajectory equals local (x) frozen environment
    a = random_density_matrix(2, rng)
    b = random_density_matrix(3, rng)
    w = BipartiteState(d_H=2, d_K=3, matrix=tensor_product(a, b))
    joint = evolve_bipartite(w, BipartiteDynamics(spec_H=spec), cfg)
    local = evolve(a, spec, cfg)
    dev_product = max(
        max_abs(j - tensor_product(l, b)) for j, l in zip(joint.states, local.states)
    )
    # entangled input: H marginal equals the standalone local trajectory
    we = random_entangled_state(2, 3, rng)
    joint_e = evolve_bipartite(we, BipartiteDynamics(spec_H=spec), cfg)
    local_e = evolve(we.marginal_H(), spec, cfg)
    dev_marginal = max(
        max_abs(partial_trace(j, (2, 3), "K") - l)
        for j, l in zip(joint_e.states, local_e.states)
    )
    passed = dev_product <= 1e-6 and dev_marginal <= 1e-6
    report(6, passed, f"product dev {dev_product:.2e}, marginal dev {dev_marginal:.2e}")


def test_criterion_7_trivial_extension_counterexample():
    before = mutual_information(bell_state(), (2, 2))
    out = trivial_extension(lambda r: r, BipartiteState(d_H=2, d_K=2, matrix=bell_state()))
    after = mutual_information(out.matrix, (2, 2))
    passed = abs(before - 2 * np.log(2)) <= 1e-8 and after <= 1e-9
    report(7, passed, f"mutual information {before:.6f} -> {after:.2e}")


def test_criterion_8_correlation_route_equality():
    rng = np.random.default_rng(808)
    worst = 0.0
    p0 = MeasurementSetup(P=np.diag([1.0, 0.0]))
    for _ in range(20):
        # diagonal local Hamiltonians keep the P, Q subspaces invariant
        h_h = np.diag(rng.standard_normal(2)).astype(complex)
        h_k = np.diag(rng.standard_normal(2)).astype(complex)
        spec_h = GeneratorSpec(H=h_h, t_family=TFamily("powerLaw", q=float(rng.uniform(0.5, 2.0))))
        spec_k = GeneratorSpec(H=h_k, t_family=TFamily("powerLaw", q=float(rng.uniform(0.5, 2.0))))
        sc = CorrelationScenario(
            rho0=random_entangled_state(2, 2, rng),
            dyn=BipartiteDynamics(spec_H=spec_h, spec_K=spec_k),
            t0=0.0,
            t1=float(rng.uniform(0.1, 0.4)),
            t2=float(rng.uniform(0.5, 0.9)),
            P_H=p0,
            P_K=p0,
            cfg=IntegratorConfig(dt=1e-3, t_final=1.0),
        )
        worst = max(worst, abs(correlation_full_route(sc) - correlation_switch_off_route(sc)))
    # singlet, same basis, trivial dynamics: joint 0.5, conditional 1
    sc = CorrelationScenario(
        rho0=BipartiteState(d_H=2, d_K=2, matrix=singlet_state()),
        dyn=BipartiteDynamics(spec_H=GeneratorSpec(H=np.zeros((2, 2)))),
        t0=0.0,
        t1=0.3,
        t2=0.7,
        P_H=p0,
        P_K=MeasurementSetup(P=np.diag([0.0, 1.0])),
        cfg=IntegratorConfig(dt=1e-3, t_final=1.0),
    )
    p_joint = correlation_full_route(sc)
    p_cond = p_joint / 0.5
    passed = worst <= 1e-6 and abs(p_joint - 0.5) <= 1e-6 and abs(p_cond - 1.0) <= 1e-6
    report(8, passed, f"max route gap {worst:.2e}, singlet joint {p_joint:.6f}")


def test_criterion_9_integrator_order():
    rng = np.random.default_rng(909)
    h = random_hermitian(2, rng)
    rho0 = random_density_matrix(2, rng)
    u = expm(-1j * h * 1.0)
    exact = u @ rho0 @ dagger(u)
    errs = []
    for dt in (0.02, 0.01):
        traj = evolve(rho0, GeneratorSpec(H=h), IntegratorConfig(dt=dt, t_final=1.0))
        errs.append(max_abs(traj.final_state() - exact))
    ratio = errs[0] / errs[1]
    report(9, 12.0 <= ratio <= 20.0, f"halving ratio {ratio:.2f}")


def test_criterion_10_convex_mixture():
    rng = np.random.default_rng(1010)
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    # equal Hamiltonians: both branches coincide, purity stays 1
    same = MixtureSpec(weights=[0.5, 0.5], process_specs=[GeneratorSpec(H=SX)] * 2)
    p_same = purity(evolve_convex_mixture(rho0, same, cfg).final_state())
    # distinct Hamiltonians: closed-form sum of two unitary branches
    mix = MixtureSpec(
        weights=[0.5, 0.5], process_specs=[GeneratorSpec(H=SX), GeneratorSpec(H=SZ)]
    )
    final = evolve_convex_mixture(rho0, mix, cfg).final_state()
    ux, uz = expm(-1j * SX * 1.0), expm(-1j * SZ * 1.0)
    expected = 0.5 * (ux @ rho0 @ dagger(ux) + uz @ rho0 @ dagger(uz))
    dev = max_abs(final - expected)
    p_mix = purity(final)
    passed = abs(p_same - 1.0) <= 1e-8 and dev <= 1e-6 and p_mix < 1.0
    report(10, passed, f"equal-H purity {p_same:.10f}, closed-form dev {dev:.2e}, mixed purity {p_mix:.4f}")
