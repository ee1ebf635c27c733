"""Acceptance gate: one test per shipped guarantee, run on the bundled corpus.

Each test is self-contained and re-derives its reference values on the
spot (the pairing oracle is rebuilt with sympy from raw arrow matrices),
so a pass here certifies the engine end to end.  `pytest -v` prints one
pass/fail line per guarantee.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import sympy

from qperiods import zoo
from qperiods.exactlin import Matrix, NumberField, NumberFieldElem, Subspace
from qperiods.periods import (
    ComparisonPoint,
    depth_space,
    endo_quotient,
    eval_and_conjecture,
    period_space,
    realize_relation,
    verify_realization,
)
from qperiods.quivalg import SubmoduleHandle, module_power
from qperiods.yoga import (
    WeightPartition,
    bounded_lift_search,
    certify_principal,
    slice_by_weight,
    saturated_check,
    universal_extension,
    universal_lift,
)
from qperiods.onemotive import (
    graded_period_dims,
    rational_input,
    synthesize_model,
)
from references import (
    bounded_extension_search,
    check_absorb_identity,
    check_orthogonal_additivity,
    check_power_identity,
    class_c_explore,
    direct_sum_with_maps,
    evaluate_coefficient,
    flattened,
    general,
    inclusion,
    is_injective,
    is_surjective,
    pushout_reduction,
    quotient_module,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def parts(algebra_key: str) -> WeightPartition:
    return WeightPartition.of(dict(zoo.weight_classes(algebra_key)))


def oracle_relations(m) -> Subspace:
    """Pairing nullspace recomputed from scratch with sympy."""
    d = m.dim
    rows = []
    for src, arrows in m.algebra.basis:
        cur = sympy.eye(m.vdim(src))
        vertex = src
        for name in arrows:
            arrow_mat = m.maps[name]
            cur = sympy.Matrix(arrow_mat.nrows, arrow_mat.ncols,
                               lambda i, j: sympy.Rational(
                                   arrow_mat.rows[i][j])) * cur
            vertex = m.algebra.arrow_by_name[name].target
        rho = sympy.zeros(d, d)
        r_off = m.offsets[vertex]
        c_off = m.offsets[src]
        for r in range(cur.rows):
            for c in range(cur.cols):
                rho[r_off + r, c_off + c] = cur[r, c]
        rows.append([rho[j, i] for i in range(d) for j in range(d)])
    null = sympy.Matrix(rows).nullspace()
    return Subspace(d * d, [tuple(Fraction(x) for x in v) for v in null])


def test_depth_spaces_match_the_coefficient_oracle_across_the_corpus():
    entries = list(zoo.corpus())
    assert len(entries) >= 25
    algebras = {e.algebra_key for e in entries}
    assert len(algebras) >= 5
    assert {"a2", "a3", "a3yx", "square", "kronecker"} <= algebras
    start = time.monotonic()
    for e in entries:
        res = depth_space(e.module, e.module.dim)
        assert res.certified, e.key
        assert res.space.relations == oracle_relations(e.module), e.key
    assert time.monotonic() - start < 60.0


def test_certified_modules_have_matching_endo_period_and_depth_two_dims():
    certified = []
    for e in zoo.corpus():
        verdict = certify_principal(e.module, parts(e.algebra_key))
        if verdict.status != "Certified":
            continue
        certified.append(e.key)
        p = period_space(e.module).dim
        assert endo_quotient(e.module).dim == p, e.key
        assert depth_space(e.module, 2).space.dim == p, e.key
    assert len(certified) == 20
    named = {
        "a2/p1+s2": 3,
        "a2/s1+s2": 2,
    }
    for key, dim in named.items():
        assert key in certified
        m = zoo.get_module(key)
        assert (endo_quotient(m).dim, period_space(m).dim,
                depth_space(m, 2).space.dim) == (dim, dim, dim)


def test_refutation_reports_a_true_dimension_gap():
    m = zoo.get_module("a2/p1")
    verdict = certify_principal(m, parts("a2"))
    assert verdict.status == "Refuted"
    assert verdict.dims["endo_quotient"] == 4
    assert verdict.dims["period_space"] == 3
    socle = SubmoduleHandle.spin(m, [(0, 1)])
    res = class_c_explore(m, socle, power_cap=2, budget=400)
    assert not res.found
    assert res.exhausted


def test_every_corpus_relation_realizes_within_the_dimension_budget():
    total = 0
    for e in zoo.corpus():
        m = e.module
        d = m.dim
        for vec in period_space(m).relations.basis_vectors():
            c = Matrix.unvec(vec, d, d)
            res = realize_relation(m, c, power_budget=d)
            assert res.status == "realized", e.key
            assert res.realization.power <= d, e.key
            assert verify_realization(c, res.realization), e.key
            total += 1
    assert total == 157


def test_relation_chains_grow_monotonically_and_stabilize():
    for e in zoo.corpus():
        d = e.module.dim
        chain = depth_space(e.module, d + 1).per_stage_relation_dims
        assert all(a <= b for a, b in zip(chain, chain[1:])), e.key
        assert chain[d - 1] == chain[d], e.key
        assert chain[d - 1] == period_space(e.module).relations.dim, e.key


def _unit_point(algebra, field) -> ComparisonPoint:
    coords = [field.one() if not arrows else field.zero()
              for _, arrows in algebra.basis]
    return ComparisonPoint(field, tuple(coords))


def test_sum_power_absorb_and_pushout_identities_hold():
    by_alg = {}
    for e in zoo.corpus():
        if e.module.dim:
            by_alg.setdefault(e.algebra_key, []).append(e.module)

    # powers leave the period space unchanged
    for mods in by_alg.values():
        for m in mods:
            rep = check_power_identity(m, 2)
            assert rep.applicable and rep.holds
    for n in (1, 2, 3):
        rep = check_power_identity(zoo.get_module("a2/p1"), n)
        assert rep.applicable and rep.holds

    # subobjects and quotients are absorbed by direct sum
    for mods in by_alg.values():
        for m in mods:
            first = tuple(1 if i == 0 else 0 for i in range(m.dim))
            handle = SubmoduleHandle.spin(m, [first])
            rep = check_absorb_identity(m, inclusion(handle))
            assert rep.applicable and rep.holds
            _, proj = quotient_module(handle)
            rep = check_absorb_identity(m, proj)
            assert rep.applicable and rep.holds

    # disjoint-support pairs add exactly, across all power combinations
    pairs = []
    for mods in by_alg.values():
        for x, y in itertools.combinations(mods, 2):
            sx = {v for v in x.algebra.vertices if x.vdim(v)}
            sy = {v for v in y.algebra.vertices if y.vdim(v)}
            if not (sx & sy):
                pairs.append((x, y))
    assert len(pairs) >= 10
    for x, y in pairs:
        for a, b in itertools.product((1, 2, 3), repeat=2):
            rep = check_orthogonal_additivity(module_power(x, a),
                                              module_power(y, b))
            assert rep.applicable and rep.holds
            assert rep.dims["left"] + rep.dims["right"] == rep.dims["sum"]

    # pushout reduction with a one- and a two-dimensional tensor factor
    part = parts("a2")
    s1 = zoo.get_module("a2/s1")
    s2 = zoo.get_module("a2/s2")
    for x in (1, 2):
        m = module_power(zoo.get_module("a2/p1"), x)
        seq = general(slice_by_weight(m, part, -1))
        red = pushout_reduction(m, s2, x, seq.inclusion, s1, x,
                                seq.projection)
        assert red.holds, x
        assert is_injective(red.sub_map)
        assert is_surjective(red.quot_map)

    # summing formal periods commutes with evaluation, 100 random tuples
    rng = random.Random(1021)
    qq = NumberField([0, 1])
    cubic = NumberField([-2, 0, 0, 1])
    for trial in range(100):
        alg_key = rng.choice(sorted(by_alg))
        mods = by_alg[alg_key]
        summands = [rng.choice(mods) for _ in range(rng.randint(1, 3))]
        field = cubic if alg_key == "a2" and trial % 2 else qq
        point = _unit_point(summands[0].algebra, field)
        total, incls, projs = direct_sum_with_maps(summands)
        lhs = field.zero()
        c_sum = Matrix.zero(total.dim, total.dim)
        for m, incl, proj in zip(summands, incls, projs):
            sigma = [Fraction(rng.randint(-3, 3)) for _ in range(m.dim)]
            omega = [Fraction(rng.randint(-3, 3)) for _ in range(m.dim)]
            c = Matrix([[si * oj for oj in omega] for si in sigma])
            lhs = lhs + evaluate_coefficient(m, point, c)
            c_sum = c_sum + flattened(incl) * c * flattened(proj)
        assert lhs == evaluate_coefficient(total, point, c_sum), trial


LIFT_FIXTURES = [("a2/p1", -1), ("a2/p1+s2", -1), ("a2/p1+s1", -1),
                 ("a3/proj", -1), ("a3/proj", -2), ("a3/rad", -2),
                 ("a3/tower", -1), ("a3yx/p0", -1), ("square/proj1", -1),
                 ("kronecker/proj1", -1), ("star/all", -1)]


def test_universal_lifts_and_extensions_are_extremal():
    assert len(LIFT_FIXTURES) >= 10
    for key, cut in LIFT_FIXTURES:
        m = zoo.get_module(key)
        seq = slice_by_weight(m, parts(key.split("/")[0]), cut)
        target = SubmoduleHandle.full(seq.quot)
        lift = universal_lift(seq, target)
        for candidate in bounded_lift_search(seq, target):
            assert candidate.contains(lift), (key, cut)
        ext = universal_extension(seq, SubmoduleHandle.zero(seq.sub))
        for candidate in bounded_extension_search(
                seq, SubmoduleHandle.zero(seq.sub)):
            assert ext.contains(candidate), (key, cut)

    # an essential sub drags the whole module along
    seq = slice_by_weight(zoo.get_module("a3/rad"), parts("a3"), -2)
    full = universal_extension(seq, SubmoduleHandle.full(seq.sub))
    assert full.is_full()

    # the projective cover of the top simple is right saturated
    seq = slice_by_weight(zoo.get_module("a2/p1"), parts("a2"), -1)
    assert saturated_check(seq, "right").status == "certified"


def test_graded_calculator_agrees_with_the_matrix_model():
    base = rational_input(1, 1, 1)
    assert graded_period_dims(base) == (6, 4, 1)
    model = synthesize_model(base)
    assert model.matches
    assert model.total_dim == 11
    assert model.graded == {2: 0, 1: 0, 0: 6, -1: 4, -2: 1}
    for g in range(3):
        for m in range(1, 4):
            for l in range(1, 4):
                inp = rational_input(g, m, l)
                assert graded_period_dims(inp) == \
                    (2 + 4 * g * g, 2 * g * m + 2 * g * l, m * l)
                assert synthesize_model(inp).matches


def test_comparison_points_separate_unit_from_generic_values():
    m = zoo.get_module("a2/p1")
    rep = eval_and_conjecture(m, _unit_point(m.algebra, NumberField([0, 1])))
    assert rep.verdict == "fails"
    assert len(rep.quotient_kernel.vectors) == 2
    realized = [v for v, status in zip(rep.ambient_kernel.vectors,
                                       rep.statuses) if status == "realized"]
    assert realized
    d = m.dim
    real = realize_relation(m, Matrix.unvec(realized[0], d, d)).realization
    assert real.witness == SubmoduleHandle.spin(m, [(0, 1)])

    cubic = NumberField([-2, 0, 0, 1])
    one, gen = cubic.one(), cubic.gen()
    point = ComparisonPoint(cubic, (one, gen, gen * gen))
    rep = eval_and_conjecture(m, point)
    assert rep.verdict == "holds"
    assert len(rep.quotient_kernel.vectors) == 0


def _run_cli(args):
    # the child imports the package from this checkout's src, whatever
    # PYTHONPATH the caller has
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from qperiods.cli import main; sys.exit(main(sys.argv[1:]))",
         *args],
        capture_output=True, cwd=str(FIXTURES.parent.parent), env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _assert_exact_scalar(x):
    assert not isinstance(x, (float, complex))
    if isinstance(x, NumberFieldElem):
        for coeff in x.coeffs:
            assert type(coeff) is Fraction
    else:
        assert type(x) in (int, Fraction)


def test_outputs_are_deterministic_and_exact():
    # fresh-process reruns of the front end are byte-identical
    commands = [
        ("--format", "json", "period", str(FIXTURES / "a2_P1.json")),
        ("--format", "json", "certify", str(FIXTURES / "a2_P1S2.json"),
         "--weights", str(FIXTURES / "a2_weights.json")),
        ("eval", str(FIXTURES / "a2_P1.json"),
         "--comparison", str(FIXTURES / "a2_cmp_generic.json")),
    ]
    for args in commands:
        first = _run_cli(args)
        second = _run_cli(args)
        assert first[0] == 0, first[2]
        assert first == second
        if "json" in args:
            json.loads(first[1])

    # recomputation from scratch gives identical presentations
    m = zoo.get_module("a2/p1")
    assert period_space(m).relations == period_space(m).relations
    assert (depth_space(m, m.dim).space.relations.basis_vectors()
            == depth_space(m, m.dim).space.relations.basis_vectors())
    v1 = certify_principal(m, parts("a2"))
    v2 = certify_principal(m, parts("a2"))
    assert v1.dims == v2.dims and v1.status == v2.status

    # every scalar produced above is an exact rational or field element
    for e in zoo.corpus():
        for vec in period_space(e.module).relations.basis_vectors():
            for x in vec:
                _assert_exact_scalar(x)
    res = realize_relation(m, Matrix([[0, 0], [1, 0]]))
    for tup in res.realization.sigma + res.realization.omega:
        for x in tup:
            _assert_exact_scalar(x)
    rep = eval_and_conjecture(m, _unit_point(m.algebra, NumberField([0, 1])))
    for value in rep.values:
        _assert_exact_scalar(value)
