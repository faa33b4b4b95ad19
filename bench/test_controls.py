"""Each reference and each check of the benchmark, on a correct output and on
a deliberately broken control.

    python3 -m pytest -q bench/test_controls.py

A check that cannot fail proves nothing, so every test below shows the
check passing on the program's real output and failing on a copy broken by
a small, known amount (a trace off by 1e-6, a probability shifted by 1e-4).
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from nlqd.entanglement import BipartiteDynamics, BipartiteState, evolve_bipartite  # noqa: E402
from nlqd.generators import GeneratorSpec  # noqa: E402
from nlqd.measurement import correlation_report  # noqa: E402
from nlqd.propagation import IntegratorConfig, MixtureSpec, evolve, evolve_convex_mixture  # noqa: E402

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
CFG = IntegratorConfig(dt=1e-3, t_final=0.05, monitor_stride=5)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def _fails(check_name, fn, *args):
    with pytest.raises(CheckFailed) as info:
        fn(*args)
    assert info.value.check == check_name


def _trajectory(rng, family="vonNeumann", rank=3, d=3):
    h, a = workloads.herm(rng, d), workloads.herm(rng, d)
    spec = dict(workloads.family_specs(h, a))[family]
    rho0 = workloads.density(rng, d, rank)
    return h, rho0, evolve(rho0, spec, CFG)


# ---- invariant checks -------------------------------------------------------


def test_physical_trace_control(rng):
    _, _, traj = _trajectory(rng)
    checks.physical(traj.states)
    broken = [s.copy() for s in traj.states]
    broken[3] = broken[3] + 1e-6 * np.eye(3) / 3
    _fails("trace", checks.physical, broken)


def test_physical_positivity_control(rng):
    _, _, traj = _trajectory(rng, rank=2)
    checks.physical(traj.states)
    w, v = np.linalg.eigh(traj.states[-1])
    w[0], w[-1] = -1e-6, w[-1] + 1e-6  # same trace, one negative eigenvalue
    broken = traj.states[:-1] + [(v * w) @ v.conj().T]
    _fails("positivity", checks.physical, broken)


def test_energy_control(rng):
    h, rho0, traj = _trajectory(rng, family="energyConserving")
    check = workloads._trajectory_check("energyConserving", h, rho0, False, CFG)
    check(traj)
    k = h - np.trace(h).real / 3 * np.eye(3)  # traceless, so only the energy moves
    traj.states[-1] = traj.states[-1] + 1e-6 * k / np.linalg.norm(k)
    _fails("energy", check, traj)


def test_energy_moves_under_zero_mean(rng):
    # zeroMean does not conserve energy, which is why the check skips it.
    h, _, traj = _trajectory(rng, family="zeroMean")
    _fails("energy", checks.energy, h, traj.states)


def _bipartite(rng):
    spec = GeneratorSpec(H=workloads.herm(rng, 2))
    state = BipartiteState(d_H=2, d_K=2, matrix=workloads.density(rng, 4, 2))
    return evolve_bipartite(state, BipartiteDynamics(spec_H=spec), CFG)


def test_remote_frozen_control(rng):
    traj = _bipartite(rng)
    checks.remote_frozen(traj.states, (2, 2))
    kick = np.kron(np.eye(2) / 2, 1e-6 * SZ)  # moves only the K marginal
    broken = traj.states[:-1] + [traj.states[-1] + kick]
    _fails("remote_marginal", checks.remote_frozen, broken, (2, 2))


def test_spectrum_control(rng):
    traj = _bipartite(rng)
    checks.spectrum_constant(traj.states)
    w, v = np.linalg.eigh(traj.states[-1])
    w[-1], w[-2] = w[-1] + 1e-5, w[-2] - 1e-5
    broken = traj.states[:-1] + [(v * w) @ v.conj().T]
    _fails("joint_spectrum", checks.spectrum_constant, broken)


# ---- references -------------------------------------------------------------


def test_unitary_reference_matches_expm(rng):
    expm = pytest.importorskip("scipy.linalg").expm
    h = workloads.herm(rng, 4)
    checks.close("unitary", reference.unitary(h, 0.7), expm(-1j * h * 0.7), 1e-12)


@pytest.mark.parametrize("family", ["vonNeumann", "powerLaw", "zeroMean", "energyConserving", "nonEssential"])
def test_pure_state_reference_control(rng, family):
    h, rho0, traj = _trajectory(rng, family=family, rank=1)
    times = workloads.record_times(CFG)
    checks.close("unitary_reference", traj.states, reference.unitary_path(h, rho0, times), checks.REFERENCE_TOL)
    wrong_h = reference.unitary_path(h + 1e-3 * np.diag([1.0, 0.0, -1.0]), rho0, times)
    _fails("unitary_reference", checks.close, "unitary_reference", traj.states, wrong_h, checks.REFERENCE_TOL)


def test_mixed_vonneumann_reference_control(rng):
    h, rho0, traj = _trajectory(rng, family="vonNeumann", rank=3)
    check = workloads._trajectory_check("vonNeumann", h, rho0, False, CFG)
    check(traj)
    k = h - np.trace(h).real / 3 * np.eye(3)
    m = np.diag([1.0, -1.0, 0.0])
    m = m - np.trace(k @ m).real / np.trace(k @ k).real * k  # trace and energy kept
    traj.states[-1] = traj.states[-1] + 2e-6 * m / np.abs(m).max()
    _fails("unitary_reference", check, traj)


def test_two_branch_mixture_reference_control():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    mix = MixtureSpec(weights=[0.3, 0.7], process_specs=[GeneratorSpec(H=SX), GeneratorSpec(H=SZ)])
    traj = evolve_convex_mixture(rho0, mix, CFG)
    times = workloads.record_times(CFG)
    want = reference.mixture_path([0.3, 0.7], [SX, SZ], rho0, times)
    checks.close("mixture_reference", traj.states, want, checks.REFERENCE_TOL)
    swapped = reference.mixture_path([0.7, 0.3], [SX, SZ], rho0, times)
    _fails("mixture_reference", checks.close, "mixture_reference", traj.states, swapped, checks.REFERENCE_TOL)


def _scenario(rng, name):
    return next((sc, closed) for n, sc, closed in workloads.correlation_scenarios(rng) if n == name)


@pytest.mark.parametrize("name", ["report/vonNeumann", "report/singlet"])
def test_correlation_reference_control(rng, name):
    sc, closed = _scenario(rng, name)
    rep = correlation_report(sc)
    check = workloads._report_check(closed)
    check(rep)
    shifted = dict(rep, p_joint_full=rep["p_joint_full"] + 1e-4, p_joint_switch=rep["p_joint_switch"] + 1e-4)
    _fails("p_joint_reference", check, shifted)
    gap = dict(rep, p_joint_switch=rep["p_joint_switch"] + 1e-4)
    _fails("route_gap", check, gap)


# ---- CLI checks -------------------------------------------------------------


def test_verify_check_control(tmp_path, rng):
    _, _, traj = _trajectory(rng, d=2, rank=2)
    path = str(tmp_path / "t.csv")
    from nlqd.io import trajectory_to_csv

    trajectory_to_csv(traj, path, dump_states=True)
    n = len(traj.states)
    ok = {"rows": n, "ok": True, "problems": []}
    workloads._verify_check(path, n)((0, json.dumps(ok), ""))
    _fails("verify_rows", workloads._verify_check(path, n + 1), (0, json.dumps(ok), ""))
    _fails("exit_code", workloads._verify_check(path, n), (1, json.dumps(ok), "boom"))
    lines = open(path).read().splitlines()
    cells = lines[2].split(",")
    col = lines[0].split(",").index("re_0_0")
    cells[col] = repr(float(cells[col]) + 1e-6)
    lines[2] = ",".join(cells)
    open(path, "w").write("\n".join(lines) + "\n")
    _fails("trace", workloads._verify_check(path, n), (0, json.dumps(ok), ""))


def test_check_report_control():
    check = workloads._check_report_check({"polchinski": {"passed": True}})
    check((0, json.dumps({"checks": {"polchinski": {"passed": True}}}), ""))
    _fails("polchinski.passed", check, (0, json.dumps({"checks": {"polchinski": {"passed": False}}}), ""))
    _fails("polchinski_present", check, (0, json.dumps({"checks": {}}), ""))
