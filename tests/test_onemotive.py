"""Weight-graded dimension counts against the synthesized matrix model.

The closed forms and the commutator-quotient model are two independent
routes to the same numbers; every test drives both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiods.exactlin import ONE, ZERO
from qperiods.quivalg import StructureAlgebra, field_extension_structure
from qperiods.onemotive import (
    MODEL_DIM_BUDGET,
    HypothesisFailed,
    RangeError,
    baker_dims,
    b_module,
    graded_period_dims,
    hom_dim,
    rational_input,
    rational_module,
    rational_structure,
    regular_power,
    saturated_input,
    synthesize_model,
)
from references import matrix_algebra_structure, matrix_column_module


def test_rational_base_case_frozen():
    dims = graded_period_dims(rational_input(1, 1, 1))
    assert dims == (6, 4, 1)
    model = synthesize_model(rational_input(1, 1, 1))
    assert model.matches
    assert model.total_dim == 11
    assert model.graded == {2: 0, 1: 0, 0: 6, -1: 4, -2: 1}
    assert model.ambient_dim == 6


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(1, 3), st.integers(1, 3))
def test_rational_closed_forms(g, m, l):
    dims = graded_period_dims(rational_input(g, m, l))
    assert dims == (2 + 4 * g * g, 2 * g * m + 2 * g * l, m * l)
    model = synthesize_model(rational_input(g, m, l))
    assert model.matches


def test_the_model_budget_bounds_the_ambient_dimension():
    # 2g + l + m + 2 = 32 is accepted, 33 refused before anything is built
    assert MODEL_DIM_BUDGET == 32
    assert rational_input(7, 8, 8).ha.dim == 14
    assert rational_input(0, 1, 29).hl.dim == 29
    for g, m, l in ((7, 8, 9), (0, 1, 30), (400, 2, 2)):
        with pytest.raises(RangeError, match="beyond the budget of 32"):
            rational_input(g, m, l)


def test_gaussian_field_frozen():
    qi = field_extension_structure([1, 0, 1])      # x^2 = -1
    reg = regular_power(qi, 1)
    inp = saturated_input(qi, reg, reg, reg)
    assert graded_period_dims(inp) == (4, 4, 2)
    model = synthesize_model(inp)
    assert model.matches and model.total_dim == 10


def test_matrix_algebra_frozen():
    m2 = matrix_algebra_structure(2)
    col = matrix_column_module(2, 1)
    inp = saturated_input(m2, col, col, col)
    assert graded_period_dims(inp) == (3, 2, 1)
    model = synthesize_model(inp)
    assert model.matches and model.total_dim == 6


def test_bigger_endomorphism_algebras_shrink_dims():
    # same underlying sizes, larger algebra of constraints
    qi = field_extension_structure([1, 0, 1])
    constrained = saturated_input(qi, regular_power(qi, 1),
                                  regular_power(qi, 1),
                                  regular_power(qi, 1))
    free = rational_input(1, 2, 2)
    small = graded_period_dims(constrained)
    big = graded_period_dims(free)
    assert all(s <= b for s, b in zip(small, big))


def test_hom_dim_oracles():
    q = rational_structure()
    assert hom_dim(rational_module(q, 2), rational_module(q, 3)) == 6
    m2 = matrix_algebra_structure(2)
    col = matrix_column_module(2, 1)
    assert hom_dim(col, col) == 1              # Schur: End of a simple
    assert hom_dim(matrix_column_module(2, 2), col) == 2
    qi = field_extension_structure([1, 0, 1])
    assert hom_dim(regular_power(qi, 1), regular_power(qi, 2)) == 4


def test_baker_dims_frozen():
    assert baker_dims(1, 2, 0) == 4
    assert baker_dims(2, 2, 1) == 5
    assert baker_dims(1, 2, 2) == 2
    with pytest.raises(RangeError):
        baker_dims(1, 2, 5)
    with pytest.raises(RangeError):
        baker_dims(1, 2, -1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_baker_degenerate_case_matches_graded_count(x, l):
    # with no relations the count is the degenerate graded total
    inp = rational_input(0, l, x)
    assert baker_dims(x, l, 0) == sum(graded_period_dims(inp))


def test_guards():
    q = rational_structure()
    # the weight-zero layer must be nonzero
    with pytest.raises(HypothesisFailed):
        graded_period_dims(saturated_input(q, rational_module(q, 2),
                                           rational_module(q, 1),
                                           rational_module(q, 0)))
    # and so must the weight-minus-two layer
    with pytest.raises(HypothesisFailed):
        graded_period_dims(saturated_input(q, rational_module(q, 2),
                                           rational_module(q, 0),
                                           rational_module(q, 1)))


def test_radical_guard():
    # dual numbers: epsilon squared is zero, so the radical is nonzero
    table = (((ONE, ZERO), (ZERO, ONE)),
             ((ZERO, ONE), (ZERO, ZERO)))
    dual = StructureAlgebra(2, (ONE, ZERO), table)
    assert dual.check_associative()
    assert dual.check_unit()
    assert not dual.is_semisimple()
    reg = regular_power(dual, 1)
    with pytest.raises(HypothesisFailed):
        graded_period_dims(saturated_input(dual, reg, reg, reg))


def test_b_module_validation():
    q = rational_structure()
    from qperiods.exactlin import Matrix
    with pytest.raises(HypothesisFailed):
        b_module(q, [])                        # wrong matrix count
    with pytest.raises(HypothesisFailed):
        b_module(q, [Matrix([[2]])])           # unit must act as identity
    qi = field_extension_structure([1, 0, 1])
    with pytest.raises(HypothesisFailed):
        # respects the unit but not the multiplication table
        b_module(qi, [Matrix.identity(1), Matrix.identity(1)])


def test_mixed_algebra_inputs_rejected():
    q = rational_structure()
    qi = field_extension_structure([1, 0, 1])
    with pytest.raises(HypothesisFailed):
        saturated_input(q, rational_module(q, 2), rational_module(q, 1),
                        regular_power(qi, 1))
