"""One-line engine defects, each caught by a named fast test.

The library's counterpart of bench/test_controls.py: a test that also
passes on a broken engine proves nothing.  Each row below swaps one engine
function or method for a broken copy, and names a test that passes on the
real engine and must fail on the broken one: by an assertion, or by the
engine's own typed error (a generator taken at the wrong state breaks the
norm, and the drift check stops the run).

Every broken copy but two is built one way: ``edited`` compiles the
engine function's or method's current source in its own module with the
named lines replaced, so a row follows the engine as it changes, and a line
the engine no longer has stops the table at import.  The two exceptions:
``full_route_unchecked_propagators`` swaps the block route's step loop for
test_measurement's propagator oracle, whose RK4 loop checks no step, a whole
route that no one-line edit of the engine builds; ``csv_row_format_16_digits``
swaps io.FLOAT_FMT, a module constant and not a line of a function.
``test_every_other_row_is_an_edit_of_what_it_replaces`` holds the table to
this: a hand-written copy drifts from the engine it claims to edit.

Each named test runs in a fresh working directory, which the file-writing
ones take as their tmp_path; the output writer's test, which makes its own
subdirectory, takes a new directory in it on each run.
"""

import inspect
import pathlib
import tempfile
import textwrap

import numpy as np
import pytest

import test_entanglement
import test_generators
import test_inputs
import test_io_cli
import test_linalg
import test_measurement
import test_propagation
import test_scripts
from nlqd import entanglement, generators, io, linalg, measurement, propagation
from nlqd.errors import NlqdError


def edited(fn, *changes):
    """A copy of engine function or method fn, compiled from its current
    source in its own module, with each (line, replacement) of changes
    applied: the line, stripped of its indentation, must occur exactly
    once.  The copy's edit_of is fn."""
    lines = textwrap.dedent(inspect.getsource(fn)).splitlines()
    for old, new in changes:
        hits = [i for i, line in enumerate(lines) if line.strip() == old]
        assert len(hits) == 1, f"{fn.__name__} has {len(hits)} lines {old!r}"
        line = lines[hits[0]]
        lines[hits[0]] = line[: len(line) - len(line.lstrip())] + new
    namespace = {}
    exec(compile("\n".join(lines), inspect.getsourcefile(fn), "exec"), vars(inspect.getmodule(fn)), namespace)
    broken = namespace[fn.__name__]
    broken.edit_of = fn
    return broken


LOOP_STAGES = "x = _rk4(x, g_of_rho(x[0] if of_factor else rho) @ x, f, h) if r is None else r @ x"
LOOP_FLOOR = "rho, w = _checked_state(gamma, step)"
LOOP_RENORMALIZE = "gamma, drift = _renormalize(x[0], cfg.max_step_drift, step, step * cfg.dt)"
DRIFT_TEST = "if not _worst(drift) <= max_drift:  # written so that NaN fails it too"
RESCALE = "gamma /= math.sqrt(nrm) if isinstance(nrm, float) else np.sqrt(nrm)[..., None, None]"
ROUTE_MEMBERS = "return [(_measure_h(sc, rho1), spec_h), (rho1, replace(spec_h, H=np.zeros_like(spec_h.H)))]"
LAGRANGE_SOLVE = "zeta, xi = _lagrange(spec._rows, dec.rho, dec.power(r) @ dec.rho)"
LAGRANGE_TRACES = "tr_rho, tr_h, tr_h2, b1, b2 = t[0][0], t[0][1], t[0][2], t[1][0], t[1][1]"
ZERO_MEAN_C = "c = (rr * rho.swapaxes(-1, -2)).sum(axis=(-2, -1)).real / _trace(rho)"
ZERO_MEAN_GAMMA = "return _minus_diag(scale * rr, scale * c)"
ENERGY_GAMMA = "return _minus_diag(scale * rr - _per_member(scale * zeta, 2) * spec.H, scale * xi)"
NON_ESSENTIAL_GAMMA = "return v @ ((vh @ fam.A @ v) * (u + u.swapaxes(-1, -2))) @ vh"
STACK_KEY = "return spec._tq, spec.t_family.family, fam.family, fam.sigma, fam.r"
STACK_H = "return _SpecStack(_stack([s.H for s in specs]), specs[0].t_family, replace(fam, A=a), qs)"
MOTION = "return x + dagger(x)"
FACTOR_TR_K = "z = y.reshape(lead + (d_h, d_k * n))"
FACTOR_PAIR = "z = np.concatenate((t, t.swapaxes(-3, -2)), axis=-3).reshape(lead + (2, d_h, d_k * n))"
JOINT_G_K = "return out + (self.g_k[..., None, :, :] @ x.reshape(lead + (self.d_h, self.d_k, n))).reshape(x.shape)"
FLOOR_TEST = "if not (lo := _lowest(w)) >= -EIG_NEG_TOL:  # written so that NaN fails it too"
LOOP_FLOOR_TEST = "if not _lowest(w) >= -EIG_NEG_TOL:  # as in _floored, which names the step and member"
LOWEST = "return min(s) if total - total == 0.0 or all(map(math.isfinite, s)) else math.nan"
LOWEST_OF_A_STACK = "return lo if np.maximum.reduce(w, None) < math.inf else math.nan"
SUPPORT_TEST = "if s[-1] > 0.0 and s[0] > SUPPORT_REL_TOL * s[-1]:"
VERIFY_LOWEST = "lo = np.min(_eigvalsh((g + dagger(g)) / 2), axis=-1)  # the Hermitian part: herm_tol > eig_tol"
# _write_new without the two lines that make a new file: it truncates an existing one in place
TRUNCATE = (("os.unlink(path)", "pass"), ('mode = "x"', "pass"))


def p_joint_by_propagators(sc, rho1, routes):
    """Each route's p_joint by the propagator oracle, not the step loop: not an edit (module doc)."""
    return [test_measurement.full_route_three_propagators(sc, rho1) for _ in routes]


def rng():
    return np.random.default_rng(12345)


def floor_test_spoiled_at_step_7(kernel="spectral"):
    with pytest.MonkeyPatch.context() as mp:  # undoes the spoiled decomposition
        test_propagation.TestEigenvalueFloor().test_fires_at_the_step_whose_state_fails(rng(), mp, kernel, 7)


def one_state_floor_test(where, value, at=1):
    """The one-state floor test of a stage or a step, spoiled at eigenvalue
    at by value: a NaN after a finite eigenvalue, or one just under the floor."""
    with pytest.MonkeyPatch.context() as mp:  # undoes the spoiled decomposition
        if where == "stage":
            test_linalg.test_one_state_floor_reads_every_eigenvalue_at_a_stage(mp, value, at)
        else:
            test_propagation.test_one_joint_state_floor_reads_every_eigenvalue(rng(), mp, value, at)


def stage_kernel_test(name):
    with pytest.MonkeyPatch.context() as mp:  # undoes the generator counter
        test_propagation.TestFixedGenerator().test_state_reading_specs_step_by_stages(rng(), mp, name)


def stack_contract(case):
    specs, rho0s, n_stacks = next(p.values for p in test_propagation.stacking_cases() if p.id == case)
    test_propagation.TestStackContract().test_stack_equals_each_member_alone_bitwise(specs, rho0s, n_stacks)


# defect -> (module, attribute, broken copy, the test that must catch it)
MUTANTS = {
    "rk4_coefficient": (
        propagation, "_rk4", edited(propagation._rk4, ("k3 *= 2", "k4 *= 2")),  # k1 + 2 k2 + k3 + 2 k4
        lambda: test_propagation.TestLinearLimit().test_von_neumann_matches_expm(rng()),
    ),
    "rk4_weight_relative_error_1e-9": (
        propagation, "_rk4", edited(propagation._rk4, ("k2 += k4", "k2 += (1.0 + 1e-9) * k4")),
        lambda: test_scripts.test_output_baseline(pathlib.Path.cwd()),
    ),
    "renormalization_dropped": (
        propagation, "_renormalize", edited(propagation._renormalize, (RESCALE, "pass")),
        lambda: test_propagation.TestNonlinearRoutes().test_every_step_renormalized(rng()),
    ),
    "gamma_without_mean": (  # the shared zeroMean formula, in both kernels
        generators, "_power_gamma", edited(generators._power_gamma, (ZERO_MEAN_GAMMA, "return scale * rr")),
        lambda: test_generators.TestZeroMeanCheck().test_zero_mean_family_passes(rng()),
    ),
    "energy_conserving_without_zeta": (
        generators, "_power_gamma", edited(generators._power_gamma, (ENERGY_GAMMA, "return _minus_diag(scale * rr, scale * xi)")),
        lambda: test_generators.TestLagrangeParameters().test_anticommutator_energy_neutral(rng()),
    ),
    "energy_conserving_products_read_h2_rho_r_plus_1": (  # Tr[H rho^{r+1}] from the H^2 row
        generators, "_lagrange", edited(
            generators._lagrange, (LAGRANGE_TRACES, LAGRANGE_TRACES.replace("t[1][1]", "t[1][2]"))
        ),
        lambda: test_generators.TestProductKernel().test_matches_the_spectral_kernel(rng(), "q1/energyConserving", 2),
    ),
    "energy_conserving_products_read_h_rho": (  # Tr[H rho^{r+1}] from the power 1
        generators, "_lagrange", edited(
            generators._lagrange, (LAGRANGE_TRACES, LAGRANGE_TRACES.replace("t[1][1]", "t[0][1]"))
        ),
        lambda: test_generators.TestProductKernel().test_matches_the_spectral_kernel(rng(), "q1/energyConserving", 2),
    ),
    # the three edits above, caught on one state, whose multipliers are solved on Python floats
    "energy_conserving_without_zeta_on_one_state": (
        generators, "_power_gamma", edited(generators._power_gamma, (ENERGY_GAMMA, "return _minus_diag(scale * rr, scale * xi)")),
        lambda: test_generators.TestOneStateContract().test_one_state_equals_its_one_member_stack_bitwise("spectral"),
    ),
    "energy_conserving_reads_h2_rho_r_plus_1_on_one_state": (
        generators, "_lagrange", edited(generators._lagrange, (LAGRANGE_TRACES, LAGRANGE_TRACES.replace("t[1][1]", "t[1][2]"))),
        lambda: test_generators.TestOneStateContract().test_one_state_equals_its_one_member_stack_bitwise("spectral"),
    ),
    "energy_conserving_reads_h_rho_on_one_state": (
        generators, "_lagrange", edited(generators._lagrange, (LAGRANGE_TRACES, LAGRANGE_TRACES.replace("t[1][1]", "t[0][1]"))),
        lambda: test_generators.TestOneStateContract().test_one_state_equals_its_one_member_stack_bitwise("products"),
    ),
    "lagrange_rho_r_plus_1_elementwise": (  # rho^r * rho: equal to rho^r @ rho on diagonal states only
        generators, "solve_lagrange_parameters", edited(
            generators.solve_lagrange_parameters, (LAGRANGE_SOLVE, LAGRANGE_SOLVE.replace("dec.power(r) @", "dec.power(r) *"))
        ),
        lambda: test_generators.TestLagrangeParameters().test_random_state_satisfies_both_constraints(rng()),
    ),
    # one edit of the shared zeroMean formula, c = Tr[rho^r] / Tr[rho], caught in either kernel
    "zero_mean_c_from_rho_r_spectral": (
        generators, "_power_gamma", edited(generators._power_gamma, (ZERO_MEAN_C, "c = _trace(rr) / _trace(rho)")),
        lambda: test_generators.TestSpectralKernels().test_match_the_matrix_product_form(rng(), "zeroMean", 2),
    ),
    "zero_mean_c_from_rho_r_products": (
        generators, "_power_gamma", edited(generators._power_gamma, (ZERO_MEAN_C, "c = _trace(rr) / _trace(rho)")),
        lambda: test_generators.TestProductKernel().test_matches_the_spectral_kernel(rng(), "q1/zeroMean", 2),
    ),
    "non_essential_without_transpose": (
        generators, "_non_essential_gamma", edited(
            generators._non_essential_gamma, (NON_ESSENTIAL_GAMMA, "return v @ ((vh @ fam.A @ v) * u) @ vh")
        ),
        lambda: test_generators.TestEvalGamma().test_non_essential_frozen_example(),
    ),
    "non_essential_skip_if_any_member_full": (
        generators, "_non_essential_gamma", edited(  # skips Gamma when any member, not every one, is full
            generators._non_essential_gamma,
            ("if w.ndim > 1 and not _any(~mask[..., 0]):", "if w.ndim > 1 and mask.all(axis=-1).any():"),
        ),
        lambda: test_generators.TestSpectralKernels().test_non_essential_mixed_stack_members_match_one_matrix_bitwise(
            rng(), 4
        ),
    ),
    # one state's floor and support tests on Python floats
    "floor_drops_a_nan_after_a_finite_eigenvalue_at_a_stage": (
        linalg, "_lowest", edited(linalg._lowest, (LOWEST, "return min(s)")),
        lambda: one_state_floor_test("stage", np.nan),
    ),
    "floor_drops_a_nan_after_a_finite_eigenvalue_at_a_step": (
        propagation, "_lowest", edited(linalg._lowest, (LOWEST, "return min(s)")),
        lambda: one_state_floor_test("step", np.nan),
    ),
    "floor_takes_an_infinite_eigenvalue_of_one_state": (  # a NaN sum alone as the guard: +inf passes it
        linalg, "_lowest", edited(linalg._lowest, (LOWEST, "return min(s) if total == total else total")),
        test_linalg.test_eigenvalue_floor_refuses_an_infinite_eigenvalue,
    ),
    "floor_takes_an_infinite_eigenvalue_of_a_stack": (
        linalg, "_lowest", edited(linalg._lowest, (LOWEST_OF_A_STACK, "return lo")),
        lambda: test_linalg.test_one_spectrum_reads_its_lowest_eigenvalue_as_a_stack_does([0.5, np.inf]),
    ),
    "floor_at_twice_its_tolerance_at_a_stage": (  # the floor's own test at -2 EIG_NEG_TOL, exclusive
        linalg, "_floored", edited(linalg._floored, (FLOOR_TEST, FLOOR_TEST.replace(">= -EIG_NEG_TOL", "> -2 * EIG_NEG_TOL"))),
        lambda: one_state_floor_test("stage", -1.5 * linalg.EIG_NEG_TOL),
    ),
    "floor_at_twice_its_tolerance_at_a_step": (
        propagation, "_checked_state", edited(
            propagation._checked_state, (LOOP_FLOOR_TEST, LOOP_FLOOR_TEST.replace(">= -EIG_NEG_TOL", "> -2 * EIG_NEG_TOL"))
        ),
        lambda: one_state_floor_test("step", -1.5 * linalg.EIG_NEG_TOL),
    ),
    "non_essential_one_state_full_at_the_support_threshold": (
        generators, "_non_essential_gamma", edited(
            generators._non_essential_gamma, (SUPPORT_TEST, SUPPORT_TEST.replace("s[0] >", "s[0] >="))
        ),
        lambda: test_generators.TestSpectralKernels().test_non_essential_one_state_support_edge_matches_its_one_member_stack_bitwise(
            rng(), 0
        ),
    ),
    "generator_spec_skips_hermiticity": (
        generators.GeneratorSpec, "__post_init__", edited(
            generators.GeneratorSpec.__post_init__,
            ('h = _hermitian(self.H, what="H", one=True).copy()', 'h = _square(self.H, what="H", one=True).copy()'),
        ),
        lambda: test_inputs.test_rejects_non_hermitian("GeneratorSpec.H"),
    ),
    "product_kernel_on_a_fractional_exponent": (
        generators, "_whole", edited(  # q = 1.3 taken as 1
            generators._whole,
            ("return 1 <= x <= MAX_PRODUCT_POWER and float(x).is_integer()", "return 1 <= x <= MAX_PRODUCT_POWER"),
        ),
        lambda: test_generators.TestProductKernel().test_other_exponents_keep_the_spectral_kernel(
            rng(), generators.TFamily("powerLaw", q=1.3), generators.GammaFamily("none")
        ),
    ),
    "generator_at_gamma_dag_gamma": (
        propagation, "_action", edited(
            propagation._action,
            ("return lambda x: g_of_rho(x[0] @ dagger(x[0])) @ x", "return lambda x: g_of_rho(dagger(x[0]) @ x[0]) @ x"),
        ),
        lambda: test_propagation.TestNonlinearRoutes().test_gamma_vs_rho_route(rng()),
    ),
    "stage_1_a_step_behind": (
        propagation, "_integrate", edited(  # stage 1 reads the factor or the state before the last step
            propagation._integrate,
            ("rho, w = _checked_state(x[0], 0)", "rho, w = _checked_state(x[0], 0); last = x[0], rho"),
            (LOOP_STAGES, "x, last = _rk4(x, g_of_rho(last[0] if of_factor else last[1]) @ x, f, h) "
             "if r is None else r @ x, (x[0], rho)"),
        ),
        lambda: test_scripts.test_output_baseline(pathlib.Path.cwd()),
    ),
    "stage_1_of_a_factor_run_given_rho": (  # evolve_bipartite looks _integrate up in entanglement
        entanglement, "_integrate", edited(
            propagation._integrate, (LOOP_STAGES, LOOP_STAGES.replace("x[0] if of_factor else rho", "rho"))
        ),
        lambda: test_entanglement.TestEvolveBipartite().test_product_state_stays_product(rng()),
    ),
    "floor_on_recorded_steps_only": (
        propagation, "_integrate", edited(
            propagation._integrate,
            (LOOP_FLOOR, "rho, w = _checked_state(gamma, step) if step % cfg.monitor_stride == 0 or step == n "
             "else (gamma @ dagger(gamma), _eigvalsh(gamma @ dagger(gamma)))"),
        ),
        floor_test_spoiled_at_step_7,
    ),
    "fixed_path_skips_the_floor": (
        propagation, "_integrate", edited(
            propagation._integrate,
            (LOOP_FLOOR, "rho, w = _checked_state(gamma, step) if r is None else (gamma @ dagger(gamma), _eigvalsh(gamma @ dagger(gamma)))"),
        ),
        lambda: floor_test_spoiled_at_step_7("fixed"),
    ),
    "step_in_real_time": (
        propagation, "_integrate", edited(propagation._integrate, ("h = -1j * cfg.dt", "h = cfg.dt")),
        lambda: test_propagation.TestNonlinearRoutes().test_gamma_vs_rho_route(rng()),
    ),
    "propagator_renormalized_with_gamma": (
        propagation, "_integrate", edited(
            propagation._integrate,
            (LOOP_RENORMALIZE, LOOP_RENORMALIZE + "; x /= np.sqrt((abs(x) ** 2).sum(axis=(-2, -1), keepdims=True))"),
        ),
        lambda: test_propagation.TestPropagator().test_reconstructs_final_state(rng()),
    ),
    "step_matrix_at_half_dt": (
        propagation, "_step_matrix", edited(
            propagation._step_matrix, ("return _rk4(eye, f(eye), f, h)", "return _rk4(eye, f(eye), f, h / 2)")
        ),
        lambda: test_propagation.TestLinearLimit().test_von_neumann_matches_expm(rng()),
    ),
    "step_matrix_for_a_state_reading_spec": (
        propagation, "_fixed_generator", edited(  # G = H for any family under the vonNeumann T
            generators._fixed_generator,
            ('return spec.H if spec._tq == 0 and spec.gamma_family.family == "none" else None',
             "return spec.H if spec._tq == 0 else None"),
        ),
        lambda: stage_kernel_test("vonNeumann-zeroMean-r1"),
    ),
    "drift_check_member_0_only": (
        propagation, "_renormalize", edited(propagation._renormalize, (DRIFT_TEST, "if not np.ravel(drift)[0] <= max_drift:")),
        lambda: test_propagation.TestEvolveMany().test_drift_error_names_the_member(),
    ),
    "batch_shares_member_0_h": (
        propagation, "_stack_specs", edited(
            generators._stack_specs, (STACK_H, STACK_H.replace("[s.H for s in specs]", "[specs[0].H for s in specs]"))
        ),
        lambda: test_propagation.TestMixture().test_batched_branches_match_branch_evolves_bitwise(rng()),
    ),
    "mixture_stacks_branches_of_other_sigma": (
        propagation, "_stack_key", edited(generators._stack_key, (STACK_KEY, STACK_KEY.replace(" fam.sigma,", ""))),
        lambda: test_entanglement.TestPairedJointGenerator().test_sides_stack_by_kernel_and_families("sigma"),
    ),
    "mixture_keys_q_by_the_kernel_plan": (  # a whole q keyed only where the spec takes the product kernel
        propagation, "_stack_key", edited(
            generators._stack_key, (STACK_KEY, STACK_KEY.replace("spec._tq", "None if spec._products is None else spec._tq"))
        ),
        lambda: test_propagation.TestMixture().test_non_essential_branches_match_branch_evolves_bitwise(rng()),
    ),
    # the two edits above, caught by the drawn stack contract
    "stack_contract_stacks_other_sigma": (
        propagation, "_stack_key", edited(generators._stack_key, (STACK_KEY, STACK_KEY.replace(" fam.sigma,", ""))),
        lambda: stack_contract("apart/sigma/d3"),
    ),
    "stack_contract_keys_q_by_the_kernel_plan": (
        propagation, "_stack_key", edited(
            generators._stack_key, (STACK_KEY, STACK_KEY.replace("spec._tq", "None if spec._products is None else spec._tq"))
        ),
        lambda: stack_contract("apart/q-kernel/d3"),
    ),
    "motion_term_x_plus_x": (
        generators, "_motion", edited(generators._motion, (MOTION, "return x + x")),
        lambda: test_generators.TestProductKernel().test_matches_the_spectral_kernel(rng(), "q2/zeroMean/r3", 3),
    ),
    "pair_stacks_sides_of_other_sigma": (
        entanglement, "_stack_key", edited(generators._stack_key, (STACK_KEY, STACK_KEY.replace(" fam.sigma,", ""))),
        lambda: test_entanglement.TestPairedJointGenerator().test_sides_stack_by_kernel_and_families("sigma"),
    ),
    "joint_marginals_swapped": (  # the H marginal read from the K-major reshape
        entanglement, "_factor_marginals", edited(
            linalg._factor_marginals,
            (FACTOR_TR_K, "z = y.reshape(lead + (d_h, d_k, n)).swapaxes(-3, -2).reshape(lead + (d_k, d_h * n))"),
        ),
        lambda: test_entanglement.TestJointGenerator().test_action_matches_matrix(rng(), (2, 2), "passive"),
    ),
    "joint_pair_halves_swapped": (  # the pair's marginals stacked K first
        entanglement, "_factor_marginals", edited(
            linalg._factor_marginals, (FACTOR_PAIR, FACTOR_PAIR.replace("(t, t.swapaxes(-3, -2))", "(t.swapaxes(-3, -2), t)"))
        ),
        lambda: test_entanglement.TestPairedJointGenerator().test_equals_per_side_calls_bitwise(rng(), 1.3, 1.2, "one"),
    ),
    "joint_pair_split_swapped": (
        entanglement, "_paired_joint_generator", edited(
            entanglement._paired_joint_generator,
            ("return _JointGenerator(g[..., 0, :, :], g[..., 1, :, :], dims)",
             "return _JointGenerator(g[..., 1, :, :], g[..., 0, :, :], dims)"),
        ),
        lambda: test_entanglement.TestPairedJointGenerator().test_equals_per_side_calls_bitwise(rng(), 1.3, 1.2, "one"),
    ),
    "joint_g_k_on_h_axis": (
        entanglement._JointGenerator, "__matmul__", edited(  # G_K applied on the (d_H, d_K n) reshape
            entanglement._JointGenerator.__matmul__,
            (JOINT_G_K, "return out + (self.g_k @ x.reshape(lead + (self.d_h, self.d_k * n))).reshape(x.shape)"),
        ),
        lambda: test_entanglement.TestJointGenerator().test_action_matches_matrix(rng(), (2, 2), "active"),
    ),
    "switch_off_keeps_h": (
        measurement, "_route_members", edited(
            measurement._route_members, (ROUTE_MEMBERS, "return [(_measure_h(sc, rho1), spec_h), (rho1, spec_h)]")
        ),
        lambda: test_measurement.TestRouteAgreement().test_coherent_marginal_routes_agree(rng()),
    ),
    "full_route_unmeasured": (
        measurement, "_route_members", edited(
            measurement._route_members, (ROUTE_MEMBERS, ROUTE_MEMBERS.replace("(_measure_h(sc, rho1), spec_h)", "(rho1, spec_h)"))
        ),
        lambda: test_measurement.TestRouteAgreement().test_coherent_marginal_routes_agree(rng()),
    ),
    "full_route_unchecked_propagators": (
        measurement, "_p_joint", p_joint_by_propagators,
        lambda: test_measurement.TestRouteAgreement().test_full_route_checks_every_step(),
    ),
    "verify_eigenvalue_min_over_members": (
        io, "state_violations", edited(linalg.state_violations, (VERIFY_LOWEST, VERIFY_LOWEST.replace("axis=-1", "axis=0"))),
        lambda: test_io_cli.TestCsv().test_verify_report_equals_the_row_walk(pathlib.Path.cwd(), rng(), 2),
    ),
    "csv_row_format_16_digits": (
        io, "FLOAT_FMT", "%.16g",  # was %.17g
        lambda: test_io_cli.TestCsv().test_csv_bytes_equal_the_per_cell_writer(
            pathlib.Path.cwd(), rng(), "evolve", True
        ),
    ),
    "output_truncated_in_place": (
        io, "_write_new", edited(io._write_new, *TRUNCATE),
        lambda: test_io_cli.TestOutputFiles().test_rerun_writes_a_new_file("evolve", pathlib.Path(tempfile.mkdtemp(dir="."))),
    ),
    "report_truncated_in_place": (
        io, "_write_new", edited(io._write_new, *TRUNCATE),
        lambda: test_io_cli.TestOutputFiles().test_rerun_writes_a_new_file("check", pathlib.Path(tempfile.mkdtemp(dir="."))),
    ),
}


@pytest.mark.parametrize("defect", list(MUTANTS))
def test_defect_is_caught(defect, monkeypatch, tmp_path):
    module, attr, broken, named_test = MUTANTS[defect]
    monkeypatch.chdir(tmp_path)
    named_test()
    monkeypatch.setattr(module, attr, broken)
    with pytest.raises((AssertionError, NlqdError, pytest.fail.Exception)), np.errstate(invalid="ignore"):
        named_test()  # a broken floor lets an infinite eigenvalue through to NaN arithmetic


NOT_EDITS = {"full_route_unchecked_propagators", "csv_row_format_16_digits"}  # the module doc says why


def test_every_other_row_is_an_edit_of_what_it_replaces():
    for defect, (module, attr, broken, _) in MUTANTS.items():
        assert (getattr(broken, "edit_of", None) is getattr(module, attr)) != (defect in NOT_EDITS), defect
