"""Entries are promoted once: where they enter the engine.

Matrix(rows, ncols) promotes ints and refuses floats and strings;
Subspace(ambient, vectors) turns ints and strings into Fractions; both
check shapes.  Matrices and subspaces the engine computes from entries
that are already exact go through Matrix._wrap and Subspace._from_rows
instead, which check nothing.  One layer up, ModuleMap(..., check=True)
multiplies every commutation square and SubmoduleHandle(..., check=True)
maps every subspace through its arrows, while hom_space's basis maps,
the handles of ModuleMap.image and depth's candidate handles, the
column images and row kernels that periods._candidate_handles reads
vertex by vertex (at power 1 those of e + f and e - f too), skip those
checks, since they hold by construction, and so do the handles of
SubmoduleHandle.spin, realize's witnesses among them, spun slot by slot
in a power of M through M's own arrow blocks.  The kernel of a module
map, references.kernel, is built the same way for the oracles.
These tests wrap all seven trusted paths with a checking shim, ask every
corpus question, the ladder and dense rungs of dimension at most 8 and
the modules of strategies.py, and require every entry the trusted paths
receive to be a Fraction, or a NumberFieldElem throughout for matrices
over a number field, and every trusted map and handle to pass the
public constructor's check.  At a point whose coefficient field K is Q,
eval wraps no matrix over a number field, so the corpus and the rungs
also ask one eval at a point with K = Q(sqrt 2) inside Q[x]/(x^4 - 2),
whose kernel is reduced over K.  The public constructors keep refusing bad
input.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from qperiods import periods, quivalg, zoo
from qperiods.cli import main
from qperiods.exactlin import (
    DimensionMismatch,
    Matrix,
    NumberField,
    NumberFieldElem,
    Subspace,
    invert,
    rref,
)
from qperiods.onemotive import (
    rational_input,
    regular_power,
    saturated_input,
    synthesize_model,
)
from qperiods.periods import (
    ComparisonPoint,
    depth_space,
    endo_quotient,
    eval_and_conjecture,
    period_space,
    realize_relation,
)
from qperiods.quivalg import (
    ModuleMap,
    NotAModuleMap,
    NotASubmodule,
    SubmoduleHandle,
    field_extension_structure,
    module_power,
)
from qperiods.yoga import WeightPartition, certify_principal
import references
from references import matrix_algebra_structure, matrix_column_module
from strategies import ORACLE_INPUTS, linear_projective, rebase, rebased_modules

FIXTURES = Path(__file__).parent / "fixtures"
CUBIC = NumberField([-2, 0, 0, 1])
QUARTIC = NumberField([-2, 0, 0, 0, 1])
SQRT2 = NumberField([-2, 0, 1])


class TrustedPathCheck:
    """Checking shims around Matrix._wrap and Subspace._from_rows, and
    around the maps of hom_space, the handles of references.kernel,
    ModuleMap.image and SubmoduleHandle.spin and depth's candidate
    handles, which go back through the public constructors."""

    def __init__(self):
        self.matrices = 0
        self.subspaces = 0
        self.over_l = 0
        self.maps = 0
        self.handles = 0
        self.spins = 0
        self.candidates = 0

    def install(self, mp: pytest.MonkeyPatch):
        wrap = Matrix._wrap.__func__
        from_rows = Subspace._from_rows.__func__

        def checked_wrap(cls, rows, ncols):
            kinds = self.entry_kinds(rows, ncols)
            assert kinds <= {Fraction} or kinds == {NumberFieldElem}, kinds
            self.matrices += 1
            self.over_l += kinds == {NumberFieldElem}
            return wrap(cls, rows, ncols)

        def checked_from_rows(cls, ambient, rows, pivots=None):
            kinds = self.entry_kinds(rows, ambient)
            assert kinds <= {Fraction}, kinds
            assert pivots is None or len(pivots) == len(rows)
            self.subspaces += 1
            return from_rows(cls, ambient, rows, pivots)

        mp.setattr(Matrix, "_wrap", classmethod(checked_wrap))
        mp.setattr(Subspace, "_from_rows", classmethod(checked_from_rows))

        hom_space = quivalg.hom_space

        def checked_hom_space(m, n):
            basis = hom_space(m, n)
            for f in basis:
                ModuleMap(f.source, f.target, f.blocks)
            self.maps += len(basis)
            return basis

        # the layers call hom_space through the name each one imported
        for name, module in list(sys.modules.items()):
            if (name.startswith("qperiods.")
                    and getattr(module, "hom_space", None) is hom_space):
                mp.setattr(module, "hom_space", checked_hom_space)

        def checked_handle(method):
            def checked(f):
                handle = method(f)
                SubmoduleHandle(handle.ambient, handle.spaces)
                self.handles += 1
                return handle
            return checked

        mp.setattr(references, "kernel", checked_handle(references.kernel))
        mp.setattr(ModuleMap, "image", checked_handle(ModuleMap.image))

        spin = SubmoduleHandle.spin.__func__

        def checked_spin(cls, ambient, vectors, base=None):
            handle = spin(cls, ambient, vectors, base)
            SubmoduleHandle(handle.ambient, handle.spaces)
            self.spins += 1
            return handle

        mp.setattr(SubmoduleHandle, "spin", classmethod(checked_spin))

        candidate_handles = periods._candidate_handles

        def checked_candidates(*args):
            for handle in candidate_handles(*args):
                SubmoduleHandle(handle.ambient, handle.spaces)
                self.candidates += 1
                yield handle

        mp.setattr(periods, "_candidate_handles", checked_candidates)

    @staticmethod
    def entry_kinds(rows, width) -> set:
        assert type(rows) is tuple
        kinds = set()
        for row in rows:
            assert type(row) is tuple and len(row) == width
            kinds.update(map(type, row))
        return kinds


@pytest.fixture
def trusted():
    check = TrustedPathCheck()
    with pytest.MonkeyPatch.context() as mp:
        check.install(mp)
        yield check


# -- the questions -------------------------------------------------------------


def partition(algebra_key: str) -> WeightPartition:
    return WeightPartition.of(dict(zoo.weight_classes(algebra_key)))


def unit_point(algebra, rng: random.Random) -> ComparisonPoint:
    """A unit over Q[x]/(x^3-2): nonzero vertex coefficients, seeded
    coefficients on the arrow paths."""
    coords = []
    for _, arrows in algebra.basis:
        while True:
            c = CUBIC.elem([rng.randint(-3, 3) for _ in range(3)])
            if c or arrows:
                break
        coords.append(c)
    return ComparisonPoint(CUBIC, tuple(coords))


def eval_over_a_subfield(m, rng: random.Random) -> None:
    """eval at a unit over Q[x]/(x^4 - 2) with coefficients in
    K = Q(sqrt 2), embedded through x^2.  L is two-dimensional over K,
    so the d^2 >= 4 values of a module of dimension d >= 2 have a
    kernel, and it is reduced over K."""
    coords = []
    for _, arrows in m.algebra.basis:
        while True:
            c = QUARTIC.elem([rng.randint(-3, 3) for _ in range(4)])
            if c or arrows:
                break
        coords.append(c)
    point = ComparisonPoint(QUARTIC, tuple(coords), coeff_field=SQRT2,
                            coeff_image=QUARTIC.elem([0, 0, 1]))
    assert eval_and_conjecture(m, point).ambient_kernel.vectors


def relation_combination(m, rng: random.Random, terms: int | None) -> Matrix:
    basis = period_space(m).relations.basis_vectors()
    if terms is not None:
        basis = rng.sample(basis, min(terms, len(basis)))
    d = m.dim
    vec = [0] * (d * d)
    for rel in basis:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        vec = [a + c * b for a, b in zip(vec, rel)]
    return Matrix.unvec(vec, d, d)


def ask_everything(m, algebra_key, rng):
    """The six module questions of the command line, on m."""
    period_space(m)
    endo_quotient(m)
    depth_space(m, max(1, m.dim))
    certify_principal(m, partition(algebra_key))
    realize_relation(m, relation_combination(m, rng, 2))
    eval_and_conjecture(m, unit_point(m.algebra, rng))


# the benchmark's ladder questions on modules of dimension at most 8:
# powers of a2/p1 (dimension 2k), P0 over A_n (n) and a3/proj^k (3k)
RUNGS = {
    "period": range(1, 5),
    "endo": range(2, 4),
    "endo_an": range(4, 9),
    "depth": range(1, 3),
    "certify": range(2, 4),
    "realize": range(2, 5),
    "eval": range(1, 5),
}


def ask_the_rungs(transform, rng: random.Random):
    p1, proj = zoo.get_module("a2/p1"), zoo.get_module("a3/proj")
    p1k = {k: transform(module_power(p1, k)) for k in range(1, 5)}
    for k in RUNGS["period"]:
        period_space(p1k[k])
    for k in RUNGS["endo"]:
        endo_quotient(p1k[k])
    for n in RUNGS["endo_an"]:
        endo_quotient(transform(linear_projective(n)))
    for k in RUNGS["depth"]:
        m = transform(module_power(proj, k))
        depth_space(m, m.dim)
    for k in RUNGS["certify"]:
        certify_principal(p1k[k], partition("a2"))
    for k in RUNGS["realize"]:
        realize_relation(p1k[k], relation_combination(p1k[k], rng, None))
    for k in RUNGS["eval"]:
        eval_and_conjecture(p1k[k], unit_point(p1k[k].algebra, rng))


def random_rebase(m, rng: random.Random):
    changes = []
    for d in m.dims:
        while True:
            g = Matrix([[rng.randint(-3, 3) for _ in range(d)]
                        for _ in range(d)], ncols=d)
            try:
                invert(g)
            except ArithmeticError:
                continue
            changes.append(g)
            break
    return rebase(m, changes)


# -- every entry on a trusted path is exact ------------------------------------


def test_corpus_questions_pass_only_exact_entries(trusted):
    rng = random.Random(9)
    for e in zoo.corpus():
        ask_everything(e.module, e.algebra_key, rng)
    eval_over_a_subfield(zoo.get_module("a2/p1"), rng)
    for g in range(1, 6):
        synthesize_model(rational_input(g, 2, 2))
    code = main(["--format", "json", "lift", str(FIXTURES / "a3_seq.json"),
                 "--target", str(FIXTURES / "a3_target.json")])
    assert code == 0
    assert trusted.matrices and trusted.subspaces and trusted.over_l
    assert (trusted.maps and trusted.handles and trusted.spins
            and trusted.candidates)


def test_onemotive_models_over_larger_algebras_pass_only_exact_entries(
        trusted):
    # over B = Q every row of hom_dim's system is zero; these are not
    qi = field_extension_structure([1, 0, 1])
    reg = regular_power(qi, 1)
    synthesize_model(saturated_input(qi, reg, regular_power(qi, 2), reg))
    col = matrix_column_module(2, 1)
    synthesize_model(saturated_input(matrix_algebra_structure(2), col, col,
                                     matrix_column_module(2, 2)))
    code = main(["--format", "json", "onemotive", "--input",
                 str(FIXTURES / "gauss_input.json")])
    assert code == 0
    assert trusted.matrices and trusted.subspaces


@pytest.mark.parametrize("rebased", [False, True], ids=["ladder", "dense"])
def test_ladder_and_dense_rungs_pass_only_exact_entries(trusted, rebased):
    rng = random.Random(10)
    transform = (lambda m: random_rebase(m, rng)) if rebased else (lambda m: m)
    ask_the_rungs(transform, rng)
    eval_over_a_subfield(
        transform(module_power(zoo.get_module("a2/p1"), 2)), rng)
    assert trusted.matrices and trusted.subspaces and trusted.over_l
    assert trusted.maps and trusted.spins and trusted.candidates


def test_oracle_inputs_pass_only_exact_entries(trusted):
    for _, m in ORACLE_INPUTS:
        period_space(m)
        endo_quotient(m)
        depth_space(m, max(1, m.dim))
    assert trusted.matrices and trusted.subspaces
    assert trusted.maps and trusted.candidates


@settings(max_examples=15, deadline=None)
@given(rebased_modules())
def test_rebased_modules_pass_only_exact_entries(m):
    check = TrustedPathCheck()
    with pytest.MonkeyPatch.context() as mp:
        check.install(mp)
        period_space(m)
        endo_quotient(m)
        depth_space(m, max(1, m.dim))
    assert check.matrices and check.maps


def test_the_shim_catches_an_int_on_a_trusted_path(trusted):
    with pytest.raises(AssertionError):
        Matrix._wrap(((1, Fraction(2)),), 2)
    with pytest.raises(AssertionError):
        Subspace._from_rows(2, ((Fraction(1), 0),))
    with pytest.raises(AssertionError):
        Matrix._wrap(((CUBIC.one(), Fraction(0)),), 2)


def test_the_shim_catches_a_map_or_a_handle_that_is_not_one():
    # on a2/p1 = (Q -> Q), 1 at v1 and 0 at v2 neither commutes with the
    # arrow nor spans a subspace that it keeps
    m = zoo.get_module("a2/p1")
    blocks = [Matrix.identity(1), Matrix.zero(1, 1)]
    not_a_map = ModuleMap(m, m, blocks, check=False)
    not_a_sub = SubmoduleHandle(
        m, [Subspace.full_space(1), Subspace.zero_space(1)], check=False)
    check = TrustedPathCheck()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quivalg, "hom_space", lambda m, n: (not_a_map,))
        mp.setattr(references, "kernel", lambda f: not_a_sub)
        mp.setattr(ModuleMap, "image", lambda f: not_a_sub)
        mp.setattr(SubmoduleHandle, "spin",
                   classmethod(lambda cls, *args: not_a_sub))
        mp.setattr(periods, "_candidate_handles",
                   lambda *args: iter([not_a_sub]))
        check.install(mp)
        with pytest.raises(NotAModuleMap):
            quivalg.hom_space(m, m)
        with pytest.raises(NotASubmodule):
            references.kernel(ModuleMap.identity(m))
        with pytest.raises(NotASubmodule):
            ModuleMap.identity(m).image()
        with pytest.raises(NotASubmodule):
            SubmoduleHandle.spin(module_power(m, 1), [(1, 0)], m)
        with pytest.raises(NotASubmodule):
            next(periods._candidate_handles(m, 1, m, 1, ()))


# -- the public constructors still check and promote ---------------------------


def test_matrix_promotes_ints_and_refuses_bad_shapes():
    red, pivots = rref(Matrix([[2, 1]]))
    assert red.rows == ((Fraction(1), Fraction(1, 2)),)
    assert all(type(x) is Fraction for x in red.rows[0])
    assert pivots == (0,)
    for m in (Matrix.unvec([1, 0, 0, 1], 2, 2),
              Matrix.identity(2, one=1, zero=0), Matrix.zero(2, 2, zero=0)):
        assert all(type(x) is Fraction for x in m.vec())
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]], ncols=3)
    with pytest.raises(DimensionMismatch):
        Matrix.unvec([1, 2, 3], 2, 2)


def test_matrix_refuses_inexact_entries():
    # computed matrices and spans never look at their entries, so the
    # constructor is the one place a float in a module map is stopped
    for entry in (0.5, "1/2", 1j, None):
        with pytest.raises(TypeError):
            Matrix([[1, entry]])
    with pytest.raises(TypeError):
        Matrix.identity(2, one=1.0)
    with pytest.raises(TypeError):
        Matrix([[Fraction(1, 2)]]).scale(0.5)
    assert Matrix([[CUBIC.gen(), CUBIC.one()]]).rows[0][0] == CUBIC.gen()


def test_subspace_promotes_and_refuses_bad_vectors():
    space = Subspace(2, [(2, "1/3")])
    assert space.basis.rows == ((Fraction(1), Fraction(1, 6)),)
    assert all(type(x) is Fraction for x in space.basis.rows[0])
    with pytest.raises(DimensionMismatch):
        Subspace(3, [(1, 2, 3), (1, 2)])
    with pytest.raises(DimensionMismatch):
        Subspace(3, [(1, 2)])
    with pytest.raises(TypeError):
        Subspace(2, [(CUBIC.gen(), 1)])
    with pytest.raises(TypeError):
        Subspace(1, [(0.5,)])


def test_trusted_subspaces_equal_the_checked_construction():
    rng = random.Random(11)
    for _ in range(30):
        ambient = rng.randint(1, 6)
        rows = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           for _ in range(ambient))
                     for _ in range(rng.randint(0, 5)))
        trusted = Subspace._from_rows(ambient, rows)
        assert trusted == Subspace(ambient, rows)
        assert trusted.pivots == Subspace(ambient, rows).pivots
