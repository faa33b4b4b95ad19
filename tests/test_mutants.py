"""One-line engine defects, each caught by a named fast test.

The library's counterpart of bench/test_controls.py: a test that also
passes on a broken engine proves nothing.  Each row below swaps one engine
function for a copy with one line changed (two where the defect needs a
name the engine does not keep, each marked "was"; the output writer's copy
opens with the old truncating "w" in place of its unlink and exclusive
create, and is caught once on a CSV and once on a report; one block
route is test_measurement's propagator oracle, whose RK4 loop checks no
step), and names a
test that passes on the real engine and must fail on the broken one: by an
assertion, or by the engine's own typed error (a generator taken at the
wrong state breaks the norm, and the drift check stops the run).  Each named test runs in a fresh working directory, which
the file-writing ones take as their tmp_path; the output writer's test,
which makes its own subdirectory, takes a new directory in it on each run.
"""

import pathlib
import tempfile
from dataclasses import replace

import numpy as np
import pytest

import test_entanglement
import test_generators
import test_inputs
import test_io_cli
import test_measurement
import test_propagation
import test_scripts
from nlqd import entanglement, generators, io, measurement, propagation
from nlqd.errors import NlqdError, StepSizeError, ValidationError
from nlqd.linalg import ClippedEig, _eigvalsh, _square, dagger, partial_trace

REAL_RENORMALIZE = propagation._renormalize
REAL_EVAL_GAMMA = generators._eval_Gamma
REAL_STEP_MATRIX = propagation._step_matrix


def rk4_wrong_weights(xs, k1, rhs, dt: float) -> tuple:
    k2 = rhs(tuple([x + 0.5 * dt * k for x, k in zip(xs, k1)]))
    k3 = rhs(tuple([x + 0.5 * dt * k for x, k in zip(xs, k2)]))
    k4 = rhs(tuple([x + dt * k for x, k in zip(xs, k3)]))
    return tuple(
        [x + (dt / 6.0) * (a + 2 * b + c + 2 * d) for x, a, b, c, d in zip(xs, k1, k2, k3, k4)]  # 2c + d
    )


def rk4_weight_relative_error_1e9(xs, k1, rhs, dt: float) -> tuple:
    k2 = rhs(tuple([x + 0.5 * dt * k for x, k in zip(xs, k1)]))
    k3 = rhs(tuple([x + 0.5 * dt * k for x, k in zip(xs, k2)]))
    k4 = rhs(tuple([x + dt * k for x, k in zip(xs, k3)]))
    return tuple(
        [x + (dt / 6.0) * (a + 2 * b + 2 * c + (1.0 + 1e-9) * d) for x, a, b, c, d in zip(xs, k1, k2, k3, k4)]  # was d
    )


def renormalize_dropped(gamma, max_drift):
    return gamma, REAL_RENORMALIZE(gamma, max_drift)[1]  # was the rescaled gamma


def renormalize_member_0(gamma, max_drift):
    flat = gamma.reshape(gamma.shape[:-2] + (1, -1))
    nrm = (flat.conj() @ flat.swapaxes(-1, -2)).real[..., 0, 0]
    drift = np.abs(nrm - 1.0)
    bad = ~(drift.flat[0] <= max_drift)  # was drift
    if bad.any():
        raise StepSizeError(f"norm drift {drift[0]:.3e} (member 0) exceeds {max_drift:.1e}; reduce dt")
    return gamma / np.sqrt(nrm)[..., None, None], drift


def gamma_without_mean(spec, dec):
    fam = spec.gamma_family
    if fam.family == "zeroMean":
        return fam.sigma * dec.power(fam.r)  # was sigma * (rr - c * eye)
    return REAL_EVAL_GAMMA(spec, dec)


def energy_conserving_without_zeta(spec, dec):
    fam = spec.gamma_family
    zeta, xi = generators._solve_lagrange(spec.H, fam.r, dec)
    diag = fam.sigma * (dec.eigenvalues**fam.r - xi[..., None])
    return dec.spectral(diag)  # was dec.spectral(diag) - sigma * zeta * H


def non_essential_without_transpose(fam, dec):
    mask = dec.support_mask()
    if mask.all():
        return None
    v, vh = dec.eigenvectors, dec.vh
    a = 1.0 - dec.eigenvalues ** (fam.r - 1.0)
    b = 1.0 - mask
    weights = a[..., :, None] * b[..., None, :]  # was a b^T + b a^T
    return v @ ((vh @ fam.A @ v) * weights) @ vh


def non_essential_skip_if_any_full(fam, dec):
    mask = dec.support_mask()
    if mask.all(axis=-1).any():  # was mask.all(): every member full
        return None
    v, vh = dec.eigenvectors, dec.vh
    a = 1.0 - dec.eigenvalues ** (fam.r - 1.0)
    b = 1.0 - mask
    weights = a[..., :, None] * b[..., None, :] + b[..., :, None] * a[..., None, :]
    return v @ ((vh @ fam.A @ v) * weights) @ vh


def spec_without_hermiticity_check(self):
    if not (isinstance(self.t_family, generators.TFamily) and isinstance(self.gamma_family, generators.GammaFamily)):
        raise ValidationError("t_family must be a TFamily and gamma_family a GammaFamily")
    h = _square(self.H, what="H", one=True).copy()  # was _hermitian
    h.setflags(write=False)
    object.__setattr__(self, "H", h)
    a = self.gamma_family.A
    if a is not None and a.shape != h.shape:
        raise ValidationError("A and H dimensions differ")
    object.__setattr__(self, "_products", generators._product_plan(h, self.t_family, self.gamma_family))


def whole_if_at_least_one(x):
    return x >= 1  # was x >= 1 and float(x).is_integer(): the product kernel takes q = 1.3 as 1


def factor_rhs_swapped(g_of_rho):
    def rhs(xs):
        gen = g_of_rho(dagger(xs[0]) @ xs[0])  # was xs[0] @ dagger(xs[0])
        return [-1j * (gen @ x) for x in xs]

    return rhs


def unchecked_state(gamma):
    """gamma gamma^dag and its spectrum, with no floor check: the loop's
    _checked_state without its check."""
    rho = gamma @ dagger(gamma)
    return rho, propagation._eigvalsh(rho)


def integrate_stage_1_a_step_behind(rho0, g_of_rho, cfg, carried=()):
    xs = (ClippedEig(rho0).power(0.5), *carried)
    rhs = propagation._factor_rhs(g_of_rho)
    rho, w = propagation._checked_state(xs[0], 0)
    before = rho  # was absent: stage 1 reads rho
    r = propagation._step_matrix(g_of_rho, rho.shape[-1], cfg.dt) if isinstance(g_of_rho, propagation._Fixed) else None
    times, states, spectra, drifts = [0.0], [rho], [w], [np.zeros(rho.shape[:-2])]
    worst = drifts[0]
    n = cfg.n_steps
    for step in range(1, n + 1):
        if r is None:
            xs = propagation._rk4(xs, propagation._slopes(g_of_rho, before, xs), rhs, cfg.dt)
        else:
            xs = tuple([r @ x for x in xs])
        gamma, drift = propagation._renormalize(xs[0], cfg.max_step_drift)
        before, (rho, w) = rho, propagation._checked_state(gamma, step)  # was rho, w = ...: stage 1 read rho
        xs = (gamma, *xs[1:])
        worst = np.maximum(worst, drift)
        if step % cfg.monitor_stride == 0 or step == n:
            times.append(step * cfg.dt)
            states.append(rho)
            spectra.append(w)
            drifts.append(worst)
            worst = drifts[0]
    return xs, np.array(times), np.array(states), np.array(spectra), np.array(drifts)


def integrate_floor_on_records_only(rho0, g_of_rho, cfg, carried=()):
    xs = (ClippedEig(rho0).power(0.5), *carried)
    rhs = propagation._factor_rhs(g_of_rho)
    rho, w = propagation._checked_state(xs[0], 0)
    r = propagation._step_matrix(g_of_rho, rho.shape[-1], cfg.dt) if isinstance(g_of_rho, propagation._Fixed) else None
    times, states, spectra, drifts = [0.0], [rho], [w], [np.zeros(rho.shape[:-2])]
    worst = drifts[0]
    n = cfg.n_steps
    for step in range(1, n + 1):
        if r is None:
            xs = propagation._rk4(xs, propagation._slopes(g_of_rho, rho, xs), rhs, cfg.dt)
        else:
            xs = tuple([r @ x for x in xs])
        gamma, drift = propagation._renormalize(xs[0], cfg.max_step_drift)
        recorded = step % cfg.monitor_stride == 0 or step == n  # was rho, w = _checked_state(gamma, step)
        rho, w = propagation._checked_state(gamma, step) if recorded else unchecked_state(gamma)
        xs = (gamma, *xs[1:])
        worst = np.maximum(worst, drift)
        if step % cfg.monitor_stride == 0 or step == n:
            times.append(step * cfg.dt)
            states.append(rho)
            spectra.append(w)
            drifts.append(worst)
            worst = drifts[0]
    return xs, np.array(times), np.array(states), np.array(spectra), np.array(drifts)


def integrate_fixed_path_unchecked(rho0, g_of_rho, cfg, carried=()):
    xs = (ClippedEig(rho0).power(0.5), *carried)
    rhs = propagation._factor_rhs(g_of_rho)
    rho, w = propagation._checked_state(xs[0], 0)
    r = propagation._step_matrix(g_of_rho, rho.shape[-1], cfg.dt) if isinstance(g_of_rho, propagation._Fixed) else None
    times, states, spectra, drifts = [0.0], [rho], [w], [np.zeros(rho.shape[:-2])]
    worst = drifts[0]
    n = cfg.n_steps
    for step in range(1, n + 1):
        if r is None:
            xs = propagation._rk4(xs, propagation._slopes(g_of_rho, rho, xs), rhs, cfg.dt)
        else:
            xs = tuple([r @ x for x in xs])
        gamma, drift = propagation._renormalize(xs[0], cfg.max_step_drift)
        rho, w = propagation._checked_state(gamma, step) if r is None else unchecked_state(gamma)  # was always checked
        xs = (gamma, *xs[1:])
        worst = np.maximum(worst, drift)
        if step % cfg.monitor_stride == 0 or step == n:
            times.append(step * cfg.dt)
            states.append(rho)
            spectra.append(w)
            drifts.append(worst)
            worst = drifts[0]
    return xs, np.array(times), np.array(states), np.array(spectra), np.array(drifts)


def step_matrix_at_half_dt(g_of_rho, d, dt):
    return REAL_STEP_MATRIX(g_of_rho, d, dt / 2)  # was dt


def fixed_generator_reads_q_only(spec):
    plan = spec._products
    if plan is not None and plan.q == 0:  # was plan.q == 0 and plan.r == 0 and the family none
        return spec.H
    return None


def stack_member_0_h(specs):
    fam = specs[0].gamma_family
    a = None if fam.A is None else np.stack([s.gamma_family.A for s in specs])
    h = np.stack([specs[0].H for s in specs])  # was s.H
    return generators._SpecStack(h, specs[0].t_family, replace(fam, A=a))


def marginals_swapped(dyn, rho, dims, h_on=True):
    g_h = generators.generator_matrix(dyn.spec_H, partial_trace(rho, dims, "H")) if h_on else None  # was "K"
    g_k = None if dyn.spec_K is None else generators.generator_matrix(dyn.spec_K, partial_trace(rho, dims, "H"))
    return entanglement._JointGenerator(g_h, g_k, dims)


class JointGeneratorKOnHAxis(entanglement._JointGenerator):
    def __matmul__(self, x):
        lead, n = x.shape[:-2], x.shape[-1]
        out = None
        if self.g_h is not None:
            out = (self.g_h @ x.reshape(lead + (self.d_h, self.d_k * n))).reshape(x.shape)
        if self.g_k is not None:
            k = (self.g_k @ x.reshape(lead + (self.d_h, self.d_k * n))).reshape(x.shape)  # was (d_h, d_k, n)
            out = k if out is None else out + k
        return np.zeros_like(x) if out is None else out


def switch_off_keeps_h(sc, rho1):
    return measurement._p_joint(sc, rho1, h_on=True)  # was h_on=False


def full_route_unmeasured(sc, rho1):
    return measurement._p_joint(sc, rho1, h_on=True)  # was _measure_h(sc, rho1)


def state_violations_min_over_members(m, herm_tol, trace_tol, eig_tol):
    m = np.asarray(m)
    finite = np.isfinite(m).all(axis=(-2, -1))
    phrases = [None if ok else "has non-finite entries" for ok in finite.tolist()]
    rows = np.flatnonzero(finite)
    f = m if rows.size == len(m) else m[rows]
    herm_bad = np.max(np.abs(f - dagger(f)), axis=(-2, -1), initial=0.0) > herm_tol
    trace = np.trace(f, axis1=-2, axis2=-1)
    trace_bad = ~herm_bad & (np.abs(trace - 1.0) > trace_tol)
    spectral = ~(herm_bad | trace_bad)
    g = f if spectral.all() else f[spectral]
    lo = np.min(_eigvalsh((g + dagger(g)) / 2), axis=0)  # was axis=-1
    for i in rows[herm_bad]:
        phrases[i] = f"is not Hermitian to {herm_tol:g}"
    for i, tr in zip(rows[trace_bad], trace[trace_bad]):
        phrases[i] = f"has trace {tr} != 1 to {trace_tol:g}"
    for i, w in zip(rows[spectral], lo.tolist()):
        if not w >= -eig_tol:
            phrases[i] = f"has eigenvalue {w} < -{eig_tol:g}"
    return phrases


def write_truncating(path, chunks):
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:  # was unlink a regular file, then open with "x"
            fh.writelines(chunks)
    except OSError as exc:
        raise ValidationError(f"cannot write output file: {exc}") from exc


def rng():
    return np.random.default_rng(12345)


def floor_test_spoiled_at_step_7(kernel="spectral"):
    with pytest.MonkeyPatch.context() as mp:  # undoes the spoiled decomposition
        test_propagation.TestEigenvalueFloor().test_fires_at_the_step_whose_state_fails(rng(), mp, kernel, 7)


def stage_kernel_test(name):
    with pytest.MonkeyPatch.context() as mp:  # undoes the generator counter
        test_propagation.TestFixedGenerator().test_state_reading_specs_step_by_stages(rng(), mp, name)


# defect -> (module, attribute, broken copy, the test that must catch it)
MUTANTS = {
    "rk4_coefficient": (
        propagation, "_rk4", rk4_wrong_weights,
        lambda: test_propagation.TestLinearLimit().test_von_neumann_matches_expm(rng()),
    ),
    "rk4_weight_relative_error_1e-9": (
        propagation, "_rk4", rk4_weight_relative_error_1e9,
        lambda: test_scripts.test_output_baseline(pathlib.Path.cwd()),
    ),
    "renormalization_dropped": (
        propagation, "_renormalize", renormalize_dropped,
        lambda: test_propagation.TestNonlinearRoutes().test_every_step_renormalized(rng()),
    ),
    "gamma_without_mean": (
        generators, "_eval_Gamma", gamma_without_mean,
        lambda: test_generators.TestZeroMeanCheck().test_zero_mean_family_passes(rng()),
    ),
    "energy_conserving_without_zeta": (
        generators, "_energy_conserving_gamma", energy_conserving_without_zeta,
        lambda: test_generators.TestLagrangeParameters().test_anticommutator_energy_neutral(rng()),
    ),
    "non_essential_without_transpose": (
        generators, "_non_essential_gamma", non_essential_without_transpose,
        lambda: test_generators.TestEvalGamma().test_non_essential_frozen_example(),
    ),
    "non_essential_skip_if_any_member_full": (
        generators, "_non_essential_gamma", non_essential_skip_if_any_full,
        lambda: test_generators.TestSpectralKernels().test_non_essential_mixed_stack_members_match_one_matrix_bitwise(
            rng(), 4
        ),
    ),
    "generator_spec_skips_hermiticity": (
        generators.GeneratorSpec, "__post_init__", spec_without_hermiticity_check,
        lambda: test_inputs.test_rejects_non_hermitian("GeneratorSpec.H"),
    ),
    "product_kernel_on_a_fractional_exponent": (
        generators, "_whole", whole_if_at_least_one,
        lambda: test_generators.TestProductKernel().test_other_exponents_keep_the_spectral_kernel(
            rng(), generators.TFamily("powerLaw", q=1.3), generators.GammaFamily("none")
        ),
    ),
    "generator_at_gamma_dag_gamma": (
        propagation, "_factor_rhs", factor_rhs_swapped,
        lambda: test_propagation.TestNonlinearRoutes().test_gamma_vs_rho_route(rng()),
    ),
    "stage_1_a_step_behind": (
        propagation, "_integrate", integrate_stage_1_a_step_behind,
        lambda: test_scripts.test_output_baseline(pathlib.Path.cwd()),
    ),
    "floor_on_recorded_steps_only": (
        propagation, "_integrate", integrate_floor_on_records_only,
        floor_test_spoiled_at_step_7,
    ),
    "fixed_path_skips_the_floor": (
        propagation, "_integrate", integrate_fixed_path_unchecked,
        lambda: floor_test_spoiled_at_step_7("fixed"),
    ),
    "step_matrix_at_half_dt": (
        propagation, "_step_matrix", step_matrix_at_half_dt,
        lambda: test_propagation.TestLinearLimit().test_von_neumann_matches_expm(rng()),
    ),
    "step_matrix_for_a_state_reading_spec": (
        propagation, "_fixed_generator", fixed_generator_reads_q_only,
        lambda: stage_kernel_test("vonNeumann-zeroMean-r1"),
    ),
    "drift_check_member_0_only": (
        propagation, "_renormalize", renormalize_member_0,
        lambda: test_propagation.TestEvolveMany().test_drift_error_names_the_member(),
    ),
    "batch_shares_member_0_h": (
        propagation, "_stack_specs", stack_member_0_h,
        lambda: test_propagation.TestMixture().test_batched_branches_match_branch_evolves_bitwise(rng()),
    ),
    "joint_marginals_swapped": (
        entanglement, "_joint_generator", marginals_swapped,
        lambda: test_entanglement.TestJointGenerator().test_action_matches_matrix(rng(), (2, 2), "passive"),
    ),
    "joint_g_k_on_h_axis": (
        entanglement, "_JointGenerator", JointGeneratorKOnHAxis,
        lambda: test_entanglement.TestJointGenerator().test_action_matches_matrix(rng(), (2, 2), "active"),
    ),
    "switch_off_keeps_h": (
        measurement, "_switch_off_route", switch_off_keeps_h,
        lambda: test_measurement.TestRouteAgreement().test_coherent_marginal_routes_agree(rng()),
    ),
    "full_route_unmeasured": (
        measurement, "_full_route", full_route_unmeasured,
        lambda: test_measurement.TestRouteAgreement().test_coherent_marginal_routes_agree(rng()),
    ),
    "full_route_unchecked_propagators": (
        measurement, "_full_route", test_measurement.full_route_three_propagators,
        lambda: test_measurement.TestRouteAgreement().test_full_route_checks_every_step(),
    ),
    "verify_eigenvalue_min_over_members": (
        io, "state_violations", state_violations_min_over_members,
        lambda: test_io_cli.TestCsv().test_verify_report_equals_the_row_walk(pathlib.Path.cwd(), rng(), 2),
    ),
    "csv_row_format_16_digits": (
        io, "FLOAT_FMT", "%.16g",  # was %.17g
        lambda: test_io_cli.TestCsv().test_csv_bytes_equal_the_per_cell_writer(
            pathlib.Path.cwd(), rng(), "evolve", True
        ),
    ),
    "output_truncated_in_place": (
        io, "_write_new", write_truncating,
        lambda: test_io_cli.TestOutputFiles().test_rerun_writes_a_new_file("evolve", pathlib.Path(tempfile.mkdtemp(dir="."))),
    ),
    "report_truncated_in_place": (
        io, "_write_new", write_truncating,
        lambda: test_io_cli.TestOutputFiles().test_rerun_writes_a_new_file("check", pathlib.Path(tempfile.mkdtemp(dir="."))),
    ),
}


@pytest.mark.parametrize("defect", list(MUTANTS))
def test_defect_is_caught(defect, monkeypatch, tmp_path):
    module, attr, broken, named_test = MUTANTS[defect]
    monkeypatch.chdir(tmp_path)
    named_test()
    monkeypatch.setattr(module, attr, broken)
    with pytest.raises((AssertionError, NlqdError, pytest.fail.Exception)):
        named_test()
