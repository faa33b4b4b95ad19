"""The one input rule, table-driven over the public entry points and the
constructors that take a matrix.

Each takes a plain ndarray, a DensityMatrix or a BipartiteState alike, and
rejects a non-Hermitian, non-square or wrong-sized matrix, or an input that
is not a complex array at all, with ValidationError instead of answering for
the wrong input.
"""

import numpy as np
import pytest

from conftest import bell_state
from nlqd.entanglement import (
    BipartiteDynamics,
    BipartiteState,
    check_environment_stationarity,
    evolve_bipartite,
    polchinski_generator,
    random_entangled_state,
    trivial_extension,
    verify_cp_extension,
)
from nlqd.errors import ValidationError
from nlqd.io import generator_spec_to_json, matrix_from_json
from nlqd.generators import (
    GammaFamily,
    GeneratorSpec,
    TFamily,
    _stack_specs,
    check_polchinski_condition,
    check_zero_mean,
    classify_dissipative_part,
    eval_Gamma,
    eval_T,
    random_density_matrix,
    solve_lagrange_parameters,
)
from nlqd.linalg import (
    DensityMatrix,
    StateOperator,
    matrix_power,
    mutual_information,
    partial_trace,
    purity,
    sqrt_factor,
    support_projector,
    von_neumann_entropy,
)
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

NON_HERMITIAN = np.array([[0.5, 5], [0, 0.5]], dtype=complex)
NON_SQUARE = np.zeros((2, 3))
NOT_PSD = np.array([[0.5, 1], [1, 0.5]], dtype=complex)  # Hermitian, unit trace, eigenvalue -0.5
NON_FINITE = np.array([[np.nan, 0], [0, 0.5]], dtype=complex)  # every comparison with NaN is False
WRONG_DIM = np.diag([1.0, 0.0, 0.0]).astype(complex)  # a pure 3x3 state for a 2x2 generator
# The rho-route oracle keeps a pure state positive (to 1e-10) only for a tiny dt.
CFG = IntegratorConfig(dt=1e-6, t_final=2e-6)
RNG = np.random.default_rng(0)


def spec(d):
    return GeneratorSpec(H=np.diag(np.arange(d, dtype=float)), t_family=TFamily("powerLaw", q=1.0))


def projector(d):
    """Onto the first and last basis vectors, whose block holds the Bell state."""
    p = np.zeros((d, d))
    p[0, 0] = p[-1, -1] = 1.0
    return MeasurementSetup(P=p)


# name -> call of the entry point on input x with a d-dimensional generator.
WITH_DIM = {
    "eval_T": lambda x, d: eval_T(spec(d), x),
    "eval_Gamma": lambda x, d: eval_Gamma(spec(d), x),
    "solve_lagrange_parameters": lambda x, d: solve_lagrange_parameters(spec(d).H, 0.5, 2.0, x),
    "check_polchinski_condition": lambda x, d: check_polchinski_condition(spec(d), x),
    # P = diag(1, 0, ...) measures NOT_PSD into the valid state I / 2.
    "projective_measure": lambda x, d: projective_measure(x, MeasurementSetup(P=np.diag(np.eye(d)[0]))),
    "step_state_operator": lambda x, d: step_state_operator(x, spec(d), CFG.dt),
    "evolve": lambda x, d: evolve(x, spec(d), CFG),
    "accumulate_propagator": lambda x, d: accumulate_propagator(x, spec(d), CFG),
    "evolve_convex_mixture": lambda x, d: evolve_convex_mixture(
        x, MixtureSpec(weights=[0.5, 0.5], process_specs=[spec(d), spec(d)]), CFG
    ),
    "consistency_check_rho_route": lambda x, d: consistency_check_rho_route(x, spec(d), CFG),
    "evolve_block_diagonal": lambda x, d: evolve_block_diagonal(x, spec(d), projector(d), CFG),
}
STATE_INPUT = (
    "projective_measure",
    "evolve",
    "accumulate_propagator",
    "evolve_convex_mixture",
    "consistency_check_rho_route",
    "evolve_block_diagonal",
)
# Hermitian-input linalg entry points; they take any dimension.
ANY_DIM = {
    "matrix_power": lambda x, d: matrix_power(x, 0.5),
    "support_projector": lambda x, d: support_projector(x),
    "sqrt_factor": lambda x, d: sqrt_factor(x),
    "von_neumann_entropy": lambda x, d: von_neumann_entropy(x),
    "mutual_information": lambda x, d: mutual_information(x, (2, d // 2)),
}
# Constructors of any dimension, each given x as its one matrix input.
HERMITIAN_CONSTRUCTORS = {
    "GeneratorSpec.H": lambda x, d: GeneratorSpec(H=x),
    "GammaFamily.A": lambda x, d: GammaFamily("nonEssential", r=2.0, A=x),
    "MeasurementSetup.P": lambda x, d: MeasurementSetup(P=x),
}
CONSTRUCTORS = {**HERMITIAN_CONSTRUCTORS, "StateOperator": lambda x, d: StateOperator(matrix=x)}
ENTRY_POINTS = {**WITH_DIM, **ANY_DIM, **CONSTRUCTORS, "purity": lambda x, d: purity(x)}
WRAPPERS = {
    "DensityMatrix": lambda m: DensityMatrix(matrix=m),
    "BipartiteState": lambda m: BipartiteState(d_H=2, d_K=2, matrix=m),
}


def _numbers(out) -> list:
    """The arrays and scalars an entry point returned, for comparing two calls."""
    if isinstance(out, tuple):
        return [x for o in out for x in _numbers(o)]
    for attr in ("states", "matrix", "residual", "H", "A", "P"):
        if hasattr(out, attr):
            return [np.asarray(getattr(out, attr))]
    return [np.asarray(out)]


@pytest.mark.parametrize("name", sorted({**WITH_DIM, **ANY_DIM, **HERMITIAN_CONSTRUCTORS}))
def test_rejects_non_hermitian(name):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[name](NON_HERMITIAN, 2)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_non_square(name):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[name](NON_SQUARE, 2)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_a_vector(name):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[name](np.zeros(3, dtype=complex), 2)


@pytest.mark.parametrize("x", ["not a matrix", [[0.5, 0], [0]]], ids=["string", "ragged"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_what_is_not_a_complex_array(name, x):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[name](x, 2)


@pytest.mark.parametrize("name", sorted(WITH_DIM))
def test_rejects_wrong_dimension(name):
    with pytest.raises(ValidationError):
        WITH_DIM[name](WRONG_DIM, 2)


@pytest.mark.parametrize("name", STATE_INPUT)
def test_rejects_non_state(name):
    with pytest.raises(ValidationError):
        WITH_DIM[name](NOT_PSD, 2)


@pytest.mark.parametrize("name", STATE_INPUT)
def test_rejects_non_finite_state(name):
    with pytest.raises(ValidationError, match="has non-finite entries"):
        WITH_DIM[name](NON_FINITE, 2)


def test_density_matrix_rejects_non_finite():
    with pytest.raises(ValidationError, match="has non-finite entries"):
        DensityMatrix(matrix=NON_FINITE)


@pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_accepts_wrappers_like_ndarray(name, wrapper):
    call = ENTRY_POINTS[name]
    want = _numbers(call(bell_state(), 4))
    got = _numbers(call(WRAPPERS[wrapper](bell_state()), 4))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_mixture_specs_share_one_dimension():
    with pytest.raises(ValidationError):
        MixtureSpec(weights=[0.5, 0.5], process_specs=[spec(2), spec(3)])


MIXED = np.eye(4) / 4
# Factor dimensions must be two integers >= 1 whose product is the matrix's.
BAD_DIMS = {
    "partial_trace-negative": lambda: partial_trace(MIXED, (-2, -2), "K"),
    "partial_trace-float": lambda: partial_trace(MIXED, (2.0, 2), "K"),
    "mutual_information-one": lambda: mutual_information(MIXED, (4,)),
    "mutual_information-float": lambda: mutual_information(MIXED, (2.0, 2)),
    "polchinski_generator-float": lambda: polchinski_generator(BipartiteDynamics(spec_H=spec(2)), MIXED, (2.0, 2)),
    "BipartiteState-negative": lambda: BipartiteState(d_H=-2, d_K=-2, matrix=MIXED),
    "BipartiteState-float": lambda: BipartiteState(d_H=2.0, d_K=2, matrix=MIXED),
    "random_entangled_state-float": lambda: random_entangled_state(2.0, 2, RNG),  # was an untyped TypeError
}


@pytest.mark.parametrize("case", sorted(BAD_DIMS))
def test_rejects_bad_dims(case):
    with pytest.raises(ValidationError, match="dims"):
        BAD_DIMS[case]()


def off_triangle(m: np.ndarray, x: complex) -> np.ndarray:
    """m with its upper-triangle entry (0, 2) moved by x, so not Hermitian."""
    m = m.astype(complex)
    m[0, 2] += x
    return m


# polchinski_generator takes rho_hk as eval_T takes rho; each used to return
# a generator, the product kernel (q = 1) taking the matrix as it came.
BAD_JOINT_STATES = {
    "non-hermitian": off_triangle(MIXED, 0.3),
    "nan": off_triangle(MIXED, np.nan),
}


@pytest.mark.parametrize("case", sorted(BAD_JOINT_STATES))
def test_polchinski_generator_rejects_a_non_hermitian_state(case):
    with pytest.raises(ValidationError, match="not Hermitian"):
        polchinski_generator(BipartiteDynamics(spec_H=spec(2)), BAD_JOINT_STATES[case], (2, 2))


# A step size, drift bound or exponent must be a real number, finite and > 0,
# and sigma a real number, finite; a string is not a real, and nor is a bool.
POSITIVE = "must be finite and > 0"
NOT_A_NUMBER = {
    "IntegratorConfig.dt": (lambda: IntegratorConfig(dt="x", t_final=1.0), POSITIVE),
    "step_state_operator.dt": (lambda: step_state_operator(sqrt_factor(np.eye(2) / 2), spec(2), "x"), POSITIVE),
    "step_state_operator.max_step_drift": (
        lambda: step_state_operator(sqrt_factor(np.eye(2) / 2), spec(2), 1e-3, max_step_drift="x"), POSITIVE
    ),
    "matrix_power": (lambda: matrix_power(np.eye(2) / 2, "2"), POSITIVE),
    # each used to raise an untyped TypeError from the comparison
    "TFamily.q": (lambda: TFamily("powerLaw", q="x"), POSITIVE),
    "GammaFamily.r-zeroMean": (lambda: GammaFamily("zeroMean", sigma=0.5, r="x"), POSITIVE),
    "GammaFamily.r-nonEssential": (lambda: GammaFamily("nonEssential", r="x", A=np.diag([1.0, -1.0])), POSITIVE),
    # each used to construct: a one-step config at dt = 1, q = 1, sigma = 1
    "IntegratorConfig.dt-bool": (lambda: IntegratorConfig(dt=True, t_final=True), POSITIVE),
    "TFamily.q-bool": (lambda: TFamily("powerLaw", q=True), POSITIVE),
    "GammaFamily.sigma-bool": (lambda: GammaFamily("zeroMean", sigma=True, r=2.0), "sigma must be finite"),
}


@pytest.mark.parametrize("case", sorted(NOT_A_NUMBER))
def test_rejects_a_string_for_a_number(case):
    make, message = NOT_A_NUMBER[case]
    with pytest.raises(ValidationError, match=message):
        make()


# sigma may take any sign, but must be a real number and finite.
@pytest.mark.parametrize("family", ["zeroMean", "energyConserving"])
def test_rejects_a_string_for_sigma(family):
    # used to raise an untyped TypeError from abs("x")
    with pytest.raises(ValidationError, match="sigma must be finite"):
        GammaFamily(family, sigma="x", r=1.0)


# A count is an integer >= its least value and not a bool; each reader words
# its own error.
NOT_A_COUNT = {
    "IntegratorConfig.monitor_stride": (lambda: IntegratorConfig(dt=0.1, t_final=1.0, monitor_stride=True), "monitor_stride"),
    "BipartiteState.d_H": (lambda: BipartiteState(d_H=True, d_K=4, matrix=np.eye(4) / 4), "dims"),
    "matrix_from_json.dim": (lambda: matrix_from_json({"dim": True, "re": [1.0]}), "expected an integer >= 1"),
    "matrix_from_json.dim-zero": (lambda: matrix_from_json({"dim": 0, "re": []}), "expected an integer >= 1"),
    # each used to answer: an all-NaN state, a report on no samples, a TypeError
    # or a misleading "non-finite entries"
    "random_density_matrix.rank-zero": (lambda: random_density_matrix(2, RNG, 0), r"rank in \[1, dim\]"),
    "random_density_matrix.rank-above-dim": (lambda: random_density_matrix(2, RNG, 3), r"rank in \[1, dim\]"),
    "random_density_matrix.dim-zero": (lambda: random_density_matrix(0, RNG), "dim >= 1"),
    "random_density_matrix.rank-fraction": (lambda: random_density_matrix(2, RNG, 1.5), r"rank in \[1, dim\]"),
    "classify_dissipative_part.sample_count-negative": (
        lambda: classify_dissipative_part(spec(2), sample_count=-3), "sample_count must be an integer >= 0"
    ),
    "classify_dissipative_part.sample_count-fraction": (
        lambda: classify_dissipative_part(spec(2), sample_count=2.5), "sample_count must be an integer >= 0"
    ),
    "random_entangled_state.mixture_terms-zero": (
        lambda: random_entangled_state(2, 2, RNG, 0), "mixture_terms must be an integer >= 1"
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_A_COUNT))
def test_rejects_a_bool_or_a_small_count(case):
    make, message = NOT_A_COUNT[case]
    with pytest.raises(ValidationError, match=message):
        make()


def correlation(**change):
    """A valid correlation scenario on the Bell state, with the given fields changed."""
    fields = dict(
        rho0=BipartiteState(d_H=2, d_K=2, matrix=bell_state()),
        dyn=BipartiteDynamics(spec_H=spec(2)),
        t0=0.0,
        t1=0.1,
        t2=0.2,
        P_H=MeasurementSetup(P=np.diag([1.0, 0.0])),
        P_K=MeasurementSetup(P=np.diag([1.0, 0.0])),
        cfg=CFG,
    )
    return CorrelationScenario(**{**fields, **change})


# A composite record checks the type of each field at construction; each
# used to raise an untyped error, at construction or at first use, or to
# accept the wrong type.  The rows after these hold a record to its own
# rules, partial_trace to the modes it names, and each bipartite entry
# point to the BipartiteState it takes.
BAD_RECORDS = {
    "MixtureSpec.weights-string": lambda: MixtureSpec(weights=["x"], process_specs=[spec(2)]),
    "MixtureSpec.weights-None": lambda: MixtureSpec(weights=None, process_specs=[spec(2)]),
    "MixtureSpec.weights-one-string": lambda: MixtureSpec(weights=[0.5, "0.5"], process_specs=[spec(2), spec(2)]),
    "MixtureSpec.process_specs-not-a-spec": lambda: MixtureSpec(weights=[1.0], process_specs=[np.eye(2)]),
    "BipartiteDynamics.spec_H-string": lambda: BipartiteDynamics(spec_H="x"),
    "BipartiteDynamics.spec_K-matrix": lambda: BipartiteDynamics(spec_H=spec(2), spec_K=np.eye(2)),
    "CorrelationScenario.t0-string": lambda: correlation(t0="0"),
    "CorrelationScenario.t0-None": lambda: correlation(t0=None),
    "CorrelationScenario.P_H-ndarray": lambda: correlation(P_H=np.diag([1.0, 0.0])),
    "CorrelationScenario.rho0-ndarray": lambda: correlation(rho0=bell_state()),
    "CorrelationScenario.cfg-string": lambda: correlation(cfg="x"),
    "MixtureSpec.lengths-differ": lambda: MixtureSpec(weights=[0.5, 0.5], process_specs=[spec(2)]),
    "MixtureSpec.empty": lambda: MixtureSpec(weights=[], process_specs=[]),
    "TFamily.family-unknown": lambda: TFamily("linear"),
    "GammaFamily.family-unknown": lambda: GammaFamily("dephasing"),
    "GammaFamily.A-missing": lambda: GammaFamily("nonEssential", r=2.0),
    "GeneratorSpec.A-dimension": lambda: GeneratorSpec(
        H=np.eye(3), gamma_family=GammaFamily("nonEssential", r=2.0, A=np.diag([1.0, -1.0]))
    ),
    "Trajectory.validate-non-state": lambda: Trajectory(times=np.zeros(1), states=[NOT_PSD], monitors={}).validate(),
    "partial_trace.over": lambda: partial_trace(MIXED, (2, 2), "X"),
    # a bipartite entry point takes a BipartiteState; each used to raise an
    # untyped AttributeError on a plain array
    "evolve_bipartite.rho0-ndarray": lambda: evolve_bipartite(MIXED, BipartiteDynamics(spec_H=spec(2)), CFG),
    "verify_cp_extension.samples-ndarray": lambda: verify_cp_extension(BipartiteDynamics(spec_H=spec(2)), [MIXED], CFG),
    "trivial_extension.rho_hk-ndarray": lambda: trivial_extension(lambda m: m, MIXED),
    "check_environment_stationarity.rho_hk-ndarray": lambda: check_environment_stationarity(
        BipartiteDynamics(spec_H=spec(2)), MIXED
    ),
    # BipartiteDynamics takes GeneratorSpecs only: a spec stack is the library's own
    "BipartiteDynamics.spec_H-spec-stack": lambda: BipartiteDynamics(spec_H=_stack_specs([spec(2), spec(2)])),
    # a factor with a non-finite entry has no finite HS norm; each used to
    # construct, and the step to raise StepSizeError ("reduce dt")
    "StateOperator.matrix-nan": lambda: StateOperator(matrix=np.full((2, 2), np.nan)),
    "StateOperator.matrix-inf": lambda: StateOperator(matrix=np.diag([np.inf, 0.0])),
    "step_state_operator.gamma-nan": lambda: step_state_operator(np.full((2, 2), np.nan), spec(2), CFG.dt),
}


def test_the_valid_correlation_scenario_constructs():
    assert correlation().t2 == 0.2


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_rejects_a_wrong_type_in_a_record(case):
    with pytest.raises(ValidationError):
        BAD_RECORDS[case]()


# Every public entry point that takes a record (spec, cfg, mix, dyn, m or sc)
# rejects one of another type; each used to raise an untyped AttributeError.
HALF = np.eye(2) / 2
PAIR = BipartiteState(d_H=2, d_K=2, matrix=MIXED)
DYN = BipartiteDynamics(spec_H=spec(2))
CFG_DICT = {"dt": 0.1, "t_final": 1.0}
P0 = MeasurementSetup(P=np.diag([1.0, 0.0]))
WRONG_RECORD = {
    "eval_T.spec": lambda: eval_T("x", HALF),
    "eval_Gamma.spec": lambda: eval_Gamma("x", HALF),
    "check_zero_mean.spec": lambda: check_zero_mean("x", [HALF]),
    "check_polchinski_condition.spec": lambda: check_polchinski_condition("x", HALF),
    "classify_dissipative_part.spec": lambda: classify_dissipative_part("x", 2),
    "generator_spec_to_json.spec": lambda: generator_spec_to_json("x"),
    "step_state_operator.spec": lambda: step_state_operator(sqrt_factor(HALF), None, 0.1),
    "evolve.spec": lambda: evolve(HALF, "x", CFG),
    "evolve.cfg": lambda: evolve(HALF, spec(2), CFG_DICT),
    "evolve_many.spec": lambda: evolve_many([HALF], "x", CFG),
    "evolve_many.cfg": lambda: evolve_many([HALF], spec(2), CFG_DICT),
    "consistency_check_rho_route.spec": lambda: consistency_check_rho_route(HALF, "x", CFG),
    "consistency_check_rho_route.cfg": lambda: consistency_check_rho_route(HALF, spec(2), CFG_DICT),
    "accumulate_propagator.spec": lambda: accumulate_propagator(HALF, "x", CFG),
    "accumulate_propagator.cfg": lambda: accumulate_propagator(HALF, spec(2), CFG_DICT),
    "evolve_convex_mixture.mix": lambda: evolve_convex_mixture(HALF, [spec(2)], CFG),
    "evolve_convex_mixture.cfg": lambda: evolve_convex_mixture(HALF, MixtureSpec([1.0], [spec(2)]), CFG_DICT),
    "polchinski_generator.dyn": lambda: polchinski_generator("x", PAIR),
    "evolve_bipartite.dyn": lambda: evolve_bipartite(PAIR, "x", CFG),
    "evolve_bipartite.cfg": lambda: evolve_bipartite(PAIR, DYN, CFG_DICT),
    "check_environment_stationarity.dyn": lambda: check_environment_stationarity("x", PAIR),
    "verify_cp_extension.dyn": lambda: verify_cp_extension("x", [PAIR], CFG),
    "verify_cp_extension.cfg": lambda: verify_cp_extension(DYN, [PAIR], CFG_DICT),
    "projective_measure.m": lambda: projective_measure(HALF, "x"),
    "check_subspace_invariance.m": lambda: check_subspace_invariance(np.eye(2), None, "x"),
    "evolve_block_diagonal.spec": lambda: evolve_block_diagonal(HALF, "x", P0, CFG),
    "evolve_block_diagonal.m": lambda: evolve_block_diagonal(HALF, spec(2), "x", CFG),
    "evolve_block_diagonal.cfg": lambda: evolve_block_diagonal(HALF, spec(2), P0, CFG_DICT),
    "correlation_full_route.sc": lambda: correlation_full_route("x"),
    "correlation_switch_off_route.sc": lambda: correlation_switch_off_route("x"),
    "check_remote_generator_unaffected.sc": lambda: check_remote_generator_unaffected("x"),
    "correlation_report.sc": lambda: correlation_report("x"),
}


@pytest.mark.parametrize("case", sorted(WRONG_RECORD))
def test_rejects_a_record_of_the_wrong_type(case):
    with pytest.raises(ValidationError, match=r"must be an? [A-Z]\w+, got (str|dict|list|NoneType)$"):
        WRONG_RECORD[case]()
