"""The one input rule, table-driven over the public entry points.

Each entry point takes a plain ndarray, a DensityMatrix or a BipartiteState
alike, and rejects a non-Hermitian, non-square or wrong-sized matrix with
ValidationError instead of answering for the wrong input.
"""

import numpy as np
import pytest

from conftest import bell_state
from nlqd.entanglement import BipartiteState
from nlqd.errors import ValidationError
from nlqd.generators import (
    GeneratorSpec,
    TFamily,
    check_polchinski_condition,
    eval_Gamma,
    eval_T,
    solve_lagrange_parameters,
)
from nlqd.linalg import (
    DensityMatrix,
    matrix_power,
    mutual_information,
    purity,
    sqrt_factor,
    support_projector,
    von_neumann_entropy,
)
from nlqd.measurement import MeasurementSetup, evolve_block_diagonal, projective_measure
from nlqd.propagation import (
    IntegratorConfig,
    MixtureSpec,
    accumulate_propagator,
    consistency_check_rho_route,
    evolve,
    evolve_convex_mixture,
    step_state_operator,
)

NON_HERMITIAN = np.array([[0.5, 5], [0, 0.5]], dtype=complex)
NON_SQUARE = np.zeros((2, 3))
NOT_PSD = np.array([[0.5, 1], [1, 0.5]], dtype=complex)  # Hermitian, unit trace, eigenvalue -0.5
WRONG_DIM = np.diag([1.0, 0.0, 0.0]).astype(complex)  # a pure 3x3 state for a 2x2 generator
# The rho-route oracle keeps a pure state positive (to 1e-10) only for a tiny dt.
CFG = IntegratorConfig(dt=1e-6, t_final=2e-6)


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
ENTRY_POINTS = {**WITH_DIM, **ANY_DIM, "purity": lambda x, d: purity(x)}
WRAPPERS = {
    "DensityMatrix": lambda m: DensityMatrix(matrix=m),
    "BipartiteState": lambda m: BipartiteState(d_H=2, d_K=2, matrix=m),
}


def _numbers(out) -> list:
    """The arrays and scalars an entry point returned, for comparing two calls."""
    if isinstance(out, tuple):
        return [x for o in out for x in _numbers(o)]
    for attr in ("states", "matrix", "residual"):
        if hasattr(out, attr):
            return [np.asarray(getattr(out, attr))]
    return [np.asarray(out)]


@pytest.mark.parametrize("name", sorted({**WITH_DIM, **ANY_DIM}))
def test_rejects_non_hermitian(name):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[name](NON_HERMITIAN, 2)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_non_square(name):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[name](NON_SQUARE, 2)


@pytest.mark.parametrize("name", sorted(WITH_DIM))
def test_rejects_wrong_dimension(name):
    with pytest.raises(ValidationError):
        WITH_DIM[name](WRONG_DIM, 2)


@pytest.mark.parametrize("name", STATE_INPUT)
def test_rejects_non_state(name):
    with pytest.raises(ValidationError):
        WITH_DIM[name](NOT_PSD, 2)


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
