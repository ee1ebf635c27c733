"""The JSON layer: every dumper round-trips through its loader, and
structure tables that fail their algebra checks are refused.

The package writes no comparison points and no structure tables, so
their dumpers live here, beside the round trips that use them."""

import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qperiods import zoo
from qperiods.cli import _kernel_data, _matrix_text, _scalar_data, main
from qperiods.exactlin import (
    ONE,
    ZERO,
    KernelBasis,
    Matrix,
    NumberField,
    Subspace,
    k_linear_kernel,
)
from qperiods.periods import ComparisonPoint, period_space
from qperiods.quivalg import (
    BoundQuiverAlgebra,
    StructureAlgebra,
    field_extension_structure,
)
from qperiods.serialize import (
    RationalVectors,
    ValidationError,
    algebra_from_data,
    algebra_to_data,
    comparison_from_data,
    dump_json,
    load_json,
    load_module,
    module_from_data,
    module_to_data,
    partition_from_data,
    partition_to_data,
    rational_str,
    relation_from_data,
    relation_to_data,
    structure_algebra_from_data,
    vector_to_data,
)
from qperiods.yoga import WeightPartition
from references import matrix_algebra_structure, matrix_text
from strategies import OVER_Q, SQRT2, value_vectors

FIXTURES = Path(__file__).parent / "fixtures"


def comparison_to_data(point: ComparisonPoint,
                       algebra: BoundQuiverAlgebra) -> dict:
    """The comparison-point format, which only the command line reads."""
    data = {
        "field": list(point.value_field.coeffs),
        "u": {name: vector_to_data(elem.coeffs)
              for name, elem in zip(algebra.basis_names(), point.u_coords)
              if any(elem.coeffs)},
    }
    if point.coeff_field is not None:
        data["coeff_field"] = list(point.coeff_field.coeffs)
        data["embedding_of_K"] = vector_to_data(point.coeff_image.coeffs)
    return data


def structure_algebra_to_data(algebra: StructureAlgebra) -> dict:
    """The structure-constant format, which only the command line reads."""
    return {
        "unit": vector_to_data(algebra.unit),
        "table": [[vector_to_data(cell) for cell in row]
                  for row in algebra.table],
    }


def _round_trip_cases():
    """(id, object, dumper, loader) over the zoo corpus and the fixtures."""
    a2_p1 = load_module(FIXTURES / "a2_P1.json")
    a2 = a2_p1.algebra
    cases = []
    for key in zoo.WEIGHTS:
        cases.append((f"algebra-{key}", zoo.algebra(key),
                      algebra_to_data, algebra_from_data))
        cases.append((f"partition-{key}",
                      WeightPartition.of(dict(zoo.weight_classes(key))),
                      partition_to_data, partition_from_data))
    cases.append(("algebra-a2.json", algebra_from_data(
        load_json(FIXTURES / "a2.json")), algebra_to_data, algebra_from_data))
    for entry in zoo.corpus():
        m = entry.module
        cases.append((f"module-{entry.key}", m,
                      module_to_data, module_from_data))
        relations = period_space(m).relations.basis_vectors()
        if relations:
            cases.append((f"relation-{entry.key}",
                          Matrix.unvec(relations[0], m.dim, m.dim),
                          relation_to_data,
                          lambda data, m=m: relation_from_data(data, m)))
    for name in ("a2_P1.json", "a2_P1S2.json", "loop2_reg.json"):
        cases.append((f"module-{name}", load_module(FIXTURES / name),
                      module_to_data, module_from_data))
    for name in ("a2_weights.json", "loop2_weights.json"):
        cases.append((f"partition-{name}",
                      partition_from_data(load_json(FIXTURES / name)),
                      partition_to_data, partition_from_data))
    cases.append(("relation-a2_relation.json",
                  relation_from_data(load_json(FIXTURES / "a2_relation.json"),
                                     a2_p1),
                  relation_to_data,
                  lambda data: relation_from_data(data, a2_p1)))
    # a proper coefficient subfield: Q(sqrt 2) inside Q[x]/(x^4 - 2)
    lf = NumberField([-2, 0, 0, 0, 1])
    points = [("a2_cmp_u1.json", None), ("a2_cmp_generic.json", None),
              ("subfield", ComparisonPoint(
                  lf, (lf.one(), lf.gen(), lf.zero()),
                  coeff_field=NumberField([-2, 0, 1]),
                  coeff_image=lf.elem([0, 0, 1])))]
    for name, point in points:
        if point is None:
            point = comparison_from_data(load_json(FIXTURES / name), a2)
        cases.append((f"comparison-{name}", point,
                      lambda p: comparison_to_data(p, a2),
                      lambda data: comparison_from_data(data, a2)))
    gauss = load_json(FIXTURES / "gauss_input.json")["B"]
    for name, algebra in [
            ("gauss_input.json", structure_algebra_from_data(gauss)),
            ("matrix-2", matrix_algebra_structure(2)),
            ("cubic-field", field_extension_structure([-2, 0, 0, 1]))]:
        cases.append((f"structure-{name}", algebra,
                      structure_algebra_to_data, structure_algebra_from_data))
    return cases


CASES = _round_trip_cases()


def _same(x, y) -> bool:
    if isinstance(x, StructureAlgebra):
        # structure-constant algebras have no equality of their own
        return (isinstance(y, StructureAlgebra)
                and (x.dim, x.unit, x.table) == (y.dim, y.unit, y.table))
    return x == y


@pytest.mark.parametrize("obj,dump,load", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_dumpers_round_trip_through_json(obj, dump, load):
    data = json.loads(dump_json(dump(obj)))
    assert _same(load(data), obj)


BAD_TABLES = {
    # b0 * b0 = b0 is associative, but 2 b0 is not a unit
    "bad-unit": ({"unit": ["2"], "table": [[["1"]]]}, "not a two-sided unit"),
    # b0 b0 = b0, b0 b1 = 0, b1 b0 = b1, b1 b1 = b0:
    # (b1 b1) b1 = b0 b1 = 0 but b1 (b1 b1) = b1 b0 = b1
    "non-associative": ({"unit": ["1", "0"],
                         "table": [[["1", "0"], ["0", "0"]],
                                   [["0", "1"], ["1", "0"]]]},
                        "not associative"),
}


@pytest.mark.parametrize("name", sorted(BAD_TABLES))
def test_structure_tables_failing_their_checks_are_refused(
        name, tmp_path, capsys):
    table, message = BAD_TABLES[name]
    with pytest.raises(ValidationError, match=message):
        structure_algebra_from_data(table)
    data = load_json(FIXTURES / "gauss_input.json")
    data["B"] = table
    data["HA"] = data["HL"] = data["HT"] = {"dim": 0}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    code = main(["onemotive", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("qperiods onemotive: ") and message in lines[0]



def test_rational_str_is_canonical_and_refuses_non_rationals():
    for x in (0, 7, -2, Fraction(0), Fraction(-6, 4), "3/6", True):
        assert rational_str(x) == str(Fraction(x))
    field = NumberField([-2, 0, 0, 1])
    with pytest.raises(TypeError):
        rational_str(field.gen())
    with pytest.raises(TypeError):
        rational_str(None)


def test_dump_json_matches_json_dumps():
    # large, nested and unsorted
    big = {"z": [[str(i), {"b": i, "a": None}] for i in range(5000)],
           "a": {"y": [1.5, True, "\u00e9"], "x": []}}
    for data in (big, [], {}, "text", 3):
        assert dump_json(data) == json.dumps(
            data, indent=2, sort_keys=True) + "\n"


def _dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


RATIONAL_STRINGS = st.builds(
    lambda p, q: rational_str(Fraction(p, q)),
    st.integers(-10**6, 10**6), st.integers(1, 50))
SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
           | st.floats() | RATIONAL_STRINGS | st.text())
KEYS = (st.text() | RATIONAL_STRINGS | st.integers()
        | st.floats(allow_nan=False) | st.booleans() | st.none())


def _containers(children):
    flat = st.lists(RATIONAL_STRINGS | st.text(), max_size=6)
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=4).map(tuple)
            | st.lists(flat, max_size=4)
            # one key type per dict: sort_keys cannot order str against int
            | KEYS.flatmap(lambda key: st.dictionaries(
                st.from_type(type(key)) if key is not None else st.none(),
                children, max_size=5)))


REPORTS = st.recursive(SCALARS, _containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(REPORTS)
def test_dump_json_equals_json_dumps_on_generated_reports(data):
    assert dump_json(data) == _dumps(data)


@settings(max_examples=100, deadline=None)
@given(st.lists(RATIONAL_STRINGS, max_size=4), REPORTS, st.data())
def test_a_list_repeated_at_several_depths_is_written_at_each(
        row, other, data):
    # one list object, written at several depths, takes each depth's indent
    places = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    report = {"other": other, "rows": [row]}
    for depth in places:
        nested = row
        for _ in range(depth):
            nested = [nested, row]
        report["rows"].append(nested)
    assert dump_json(report) == _dumps(report)


@pytest.mark.parametrize("data", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}],
    [["0", "0"], [], ["0"]],
    ["1", {"a": "2"}], ["1", ["2"]], ["1", 2], [3, "x"], ["a", None, True],
    ["a", 1.5], [("a", "b"), ("c",)], ("x", ["y"]), {"t": ("a", 1)},
    ["-7/3", "0", "12345678901234567890/7", "-1"],
    ["\u00e9", "\x00\x1f\n\t\"\\", "\u2028", "\U0001f600", "\x7f"],
    {"\u00e9": 1, "\n": [2], "": None},
    {3: "a", -1: "b"}, {1.5: "a", 0.25: "b"}, {True: 1, False: 0},
    {None: "n"}, {"a": {"c": 1, "b": 2}},
    0, -3, 2**80, 1.0, -0.0, 1e300, float("inf"), float("nan"),
    True, False, None, "", "0",
], ids=repr)
def test_dump_json_equals_json_dumps_on_edge_cases(data):
    assert dump_json(data) == _dumps(data)


class _Shouting(int):
    """An int whose repr and str are not its digits."""

    def __repr__(self):
        return "LOUD"

    __str__ = __repr__


INTS = (st.integers(-2**70, 2**70) | st.booleans() | st.none()
        | st.integers(-5, 5).map(_Shouting))


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    INTS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.integers(-2**70, 2**70), children,
                                        max_size=4)
                      | st.dictionaries(st.text(max_size=3), children,
                                        max_size=4)),
    max_leaves=30))
def test_dump_json_writes_ints_bools_and_none_as_json_dumps(data):
    # these scalars are written without the encoder: ints by int.__repr__,
    # subclasses included, and int keys the same way
    assert dump_json(data) == _dumps(data)


def test_dump_json_refuses_what_json_dumps_refuses():
    for data in ({(1, 2): "tuple key"}, [Fraction(1, 2)], {"a": {1j}}):
        with pytest.raises(TypeError):
            json.dumps(data, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dump_json(data)


ENTRIES = (st.just(ZERO)
           | st.builds(Fraction, st.just(0))      # a zero that is not ZERO
           | st.builds(Fraction, st.integers(-10**4, 10**4),
                       st.integers(1, 40)))


@st.composite
def sparse_vectors(draw, n: int):
    """A length n vector: a few entries drawn from ENTRIES, ZERO elsewhere."""
    entries = draw(st.dictionaries(st.integers(0, n - 1), ENTRIES,
                                   max_size=4)) if n else {}
    return tuple(entries.get(j, ZERO) for j in range(n))


def with_other_zeros(draw, vector: tuple) -> tuple:
    """vector with some of its ZERO entries replaced by other zero
    Fractions, as rref's cancellations leave them."""
    where = draw(st.sets(st.integers(0, max(len(vector) - 1, 0))))
    return tuple(Fraction(0) if j in where and x is ZERO else x
                 for j, x in enumerate(vector))


@st.composite
def relation_bases(draw):
    """(d, canonical subspace of Q^(d^2)) of mostly-ZERO basis vectors, some
    of whose zeros are not ZERO; d = 0 has only the empty basis, and from
    d = 9 on the free columns are too many to be searched unhalved."""
    d = draw(st.integers(0, 10))
    n = d * d
    space = Subspace(n, draw(st.lists(sparse_vectors(n), max_size=5)))
    rows = tuple(with_other_zeros(draw, v) for v in space.basis_vectors())
    return d, Subspace._from_rows(n, rows, space.pivots)


def nested(value, depth: int):
    """value inside depth levels of dicts and lists, each level one more
    indent."""
    for level in range(depth):
        value = ({"basis": value, "dim": level} if level % 2
                 else ["before", value, {"after": []}])
    return value


def e(d: int, *terms) -> tuple:
    """The d^2-vector with the given (row, column, value) entries."""
    vec = [ZERO] * (d * d)
    for i, j, x in terms:
        vec[i * d + j] = Fraction(x)
    return tuple(vec)


@settings(max_examples=300, deadline=None)
@given(relation_bases(), st.integers(0, 3))
@example((0, Subspace(0)), 1)
@example((3, Subspace(9)), 2)
@example((3, Subspace(9, [e(3, (0, 0, 1), (0, 2, "-3/2"))])), 0)  # first row
@example((3, Subspace(9, [e(3, (2, 1, 1), (2, 2, 7))])), 1)       # last row
@example((3, Subspace(9, [e(3, (0, 1, 1), (1, 0, 2), (2, 2, -1)),
                          e(3, (0, 2, 1), (2, 0, "1/12"))])), 3)  # several
@example((1, Subspace(1, [e(1, (0, 0, 1))])), 2)
def test_relation_bases_are_written_as_their_per_entry_json_and_text(
        case, depth):
    # the lists of entry strings that the report used to hold
    d, space = case
    vectors = space.basis_vectors()
    basis = RationalVectors(vectors, space.pivots, width=d)
    assert list(basis.nonzeros()) == [[j for j, x in enumerate(v) if x]
                                      for v in vectors]
    matrices = [[v[i * d:(i + 1) * d] for i in range(d)] for v in vectors]
    rows = [[[rational_str(x) for x in row] for row in matrix]
            for matrix in matrices]
    assert dump_json(nested(basis, depth)) == _dumps(nested(rows, depth))
    text = functools.cache(rational_str)
    assert ([_matrix_text(v, positions, d, text)
             for v, positions in zip(vectors, basis.nonzeros())]
            == [matrix_text(matrix) for matrix in matrices])


@st.composite
def kernel_forms(draw):
    """A kernel basis in kernel_basis's form, of vectors of one length up
    to 300: each is one at its own column, its last nonzero, and nonzero
    before it only at shared columns; zeros of both kinds, and long
    enough to be halved more than once."""
    n = draw(st.integers(0, 300))
    every = st.integers(0, max(n - 1, 0))
    shared = sorted(draw(st.sets(every, max_size=8)) if n else ())
    columns = sorted(draw(st.sets(every, max_size=4)).difference(shared)
                     if n else ())
    vectors = []
    for f in columns:
        vec = [ZERO] * n
        vec[f] = ONE
        for j in shared:
            if j < f:
                vec[j] = draw(ENTRIES)
        vectors.append(with_other_zeros(draw, tuple(vec)))
    return KernelBasis(tuple(vectors), tuple(columns), tuple(shared))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.just(True), kernel_forms()),
    st.tuples(st.just(True), value_vectors(OVER_Q.codomain, 12).map(
        lambda values: k_linear_kernel(OVER_Q, values))),
    st.tuples(st.just(False), value_vectors(SQRT2.codomain, 6).map(
        lambda values: k_linear_kernel(SQRT2, values)))),
    st.integers(0, 3))
def test_kernel_vectors_are_written_as_their_per_entry_data(case, depth):
    # over Q, and over Q(sqrt 2) as a proper coefficient field K
    over_q, kernel = case
    vectors = kernel.vectors
    data = _kernel_data(kernel, over_q)
    if over_q:
        assert list(data.nonzeros()) == [[j for j, x in enumerate(v) if x]
                                         for v in vectors]
    rows = [[_scalar_data(x) for x in v] for v in vectors]
    assert dump_json(nested(data, depth)) == _dumps(nested(rows, depth))
