"""Exact linear algebra against an independent oracle.

Reductions, kernels, solving and inversion are cross-checked against
sympy on seeded random rational matrices; subspace lattice laws and
number field arithmetic are property tested.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from references import pairing_matrix
from strategies import (
    ORACLE_INPUTS,
    OVER_Q,
    SQRT2,
    rebased_modules,
    value_vectors,
)
from qperiods.exactlin import (
    DivisionByZero,
    FieldEmbedding,
    Matrix,
    NumberField,
    ReduciblePolynomial,
    Subspace,
    block_diagonal,
    invert,
    k_linear_kernel,
    kernel_basis,
    kernel_subspace,
    poly_divmod,
    poly_gcd,
    rank,
    rat,
    rref,
)
from qperiods import exactlin
from references import QuotientPresentation, column, solve, triple_loop_product


def random_matrix(rng, nrows, ncols, span=6):
    return Matrix([[Fraction(rng.randint(-span, span),
                             rng.randint(1, 3))
                    for _ in range(ncols)]
                   for _ in range(nrows)], ncols=ncols)


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(m.nrows, m.ncols,
                        lambda i, j: sympy.Rational(m.rows[i][j]))


def test_rref_matches_sympy():
    rng = random.Random(411)
    for _ in range(25):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols)
        reduced, pivots = rref(m)
        sp, sp_pivots = to_sympy(m).rref()
        assert pivots == tuple(sp_pivots)
        assert to_sympy(reduced) == sp


def test_kernel_matches_sympy():
    rng = random.Random(412)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ours = Subspace(m.ncols, kernel_basis(m))
        theirs = Subspace(m.ncols,
                          [tuple(Fraction(x) for x in v)
                           for v in to_sympy(m).nullspace()])
        assert ours == theirs


def test_rank_and_inverse_match_sympy():
    rng = random.Random(413)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert rank(m) == to_sympy(m).rank()
        if rank(m) == n:
            inv = invert(m)
            assert m * inv == Matrix.identity(n)
            assert to_sympy(inv) == to_sympy(m).inv()


def test_solve_consistent():
    rng = random.Random(414)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = [Fraction(rng.randint(-3, 3)) for _ in range(a.ncols)]
        b = a.apply(x)
        got = solve(a, b)
        assert got is not None
        assert a.apply(got) == tuple(b)
    # an inconsistent system has no solution
    a = Matrix([[1, 0], [1, 0]])
    assert solve(a, (1, 2)) is None


def test_vec_unvec_roundtrip():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert Matrix.unvec(m.vec(), 2, 3) == m


def test_block_diagonal_shape():
    b = block_diagonal([Matrix([[1, 2]]), Matrix([[3], [4]])])
    assert (b.nrows, b.ncols) == (3, 3)
    assert b.rows[0][:2] == (1, 2) and b.rows[1][2] == 3


small_fraction = st.fractions(min_value=-4, max_value=4,
                              max_denominator=3)

CUBE_ROOT_2 = NumberField([-2, 0, 0, 1])


@st.composite
def product_pairs(draw):
    """Two matrices that can be multiplied, over Q or over Q(2^(1/3)),
    with some rows and columns all zero and any dimension possibly 0."""
    n, k, m = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    over_q = draw(st.booleans())
    zero = Fraction(0) if over_q else CUBE_ROOT_2.zero()

    def entry():
        if over_q:
            return draw(small_fraction)
        return CUBE_ROOT_2.elem([draw(small_fraction) for _ in range(3)])

    def matrix(nrows, ncols):
        zero_rows = draw(st.sets(st.integers(0, 3), max_size=2))
        zero_cols = draw(st.sets(st.integers(0, 3), max_size=2))
        return Matrix([[zero if i in zero_rows or j in zero_cols else entry()
                        for j in range(ncols)] for i in range(nrows)],
                      ncols=ncols)

    return matrix(n, k), matrix(k, m)


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_products_equal_the_triple_loop(pair):
    # the product skips zero entries; every entry must keep its value and
    # its type, a field element over the field even where it is zero
    a, b = pair
    product = a * b
    expected = triple_loop_product(a, b)
    assert (product.nrows, product.ncols) == (a.nrows, b.ncols)
    assert [list(row) for row in product.rows] == expected
    assert ([[type(x) for x in row] for row in product.rows]
            == [[type(x) for x in row] for row in expected])


@st.composite
def subspace_pair(draw):
    ambient = draw(st.integers(min_value=1, max_value=4))
    def vectors():
        count = draw(st.integers(min_value=0, max_value=3))
        return [[draw(small_fraction) for _ in range(ambient)]
                for _ in range(count)]
    return (Subspace(ambient, vectors()), Subspace(ambient, vectors()))


@settings(max_examples=60, deadline=None)
@given(subspace_pair())
def test_subspace_modular_dimension_law(pair):
    u, v = pair
    assert (u.add(v).dim + u.intersect(v).dim == u.dim + v.dim)


@settings(max_examples=60, deadline=None)
@given(subspace_pair())
def test_subspace_annihilator_involution(pair):
    u, _ = pair
    ann = u.annihilator()
    assert ann.dim == u.ambient - u.dim
    assert ann.annihilator() == u


@settings(max_examples=40, deadline=None)
@given(subspace_pair(), st.randoms(use_true_random=False))
def test_subspace_image_preimage_adjunction(pair, rng):
    u, v = pair
    n = u.ambient
    t = random_matrix(rng, n, n, span=2)
    assert u.image_under(t).preimage_under(t).contains(u)
    image_of_t = Subspace.full_space(n).image_under(t)
    assert v.preimage_under(t).image_under(t) == v.intersect(image_of_t)


def assert_kernel_subspace_canonical(m: Matrix):
    """kernel_subspace(m) is the two-elimination construction, exactly."""
    ours = kernel_subspace(m)
    theirs = Subspace(m.ncols, kernel_basis(m))
    assert ours.ambient == theirs.ambient
    assert ours.basis == theirs.basis
    assert ours.pivots == theirs.pivots


@st.composite
def integer_matrices(draw):
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = draw(st.integers(min_value=0, max_value=7))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    return Matrix([[draw(entry) for _ in range(ncols)]
                   for _ in range(nrows)], ncols=ncols)


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_kernel_subspace_is_the_canonical_kernel(m):
    assert_kernel_subspace_canonical(m)


def test_kernel_subspace_extreme_shapes():
    rng = random.Random(415)
    for n in range(5):
        assert_kernel_subspace_canonical(Matrix((), ncols=n))
        assert_kernel_subspace_canonical(Matrix.zero(3, n))
        assert_kernel_subspace_canonical(Matrix.identity(n))
        assert kernel_subspace(Matrix((), ncols=n)) == Subspace.full_space(n)
        assert kernel_subspace(Matrix.identity(n)).dim == 0
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n + rng.randint(0, 3))
        assert_kernel_subspace_canonical(m)


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_kernel_subspace_of_pairing_matrix(key, m):
    assert_kernel_subspace_canonical(pairing_matrix(m))


@settings(max_examples=25, deadline=None)
@given(rebased_modules())
def test_kernel_subspace_of_rebased_pairing_matrix(m):
    assert_kernel_subspace_canonical(pairing_matrix(m))


@settings(max_examples=60, deadline=None)
@given(subspace_pair(), st.randoms(use_true_random=False))
def test_annihilator_and_preimage_match_kernel_basis(pair, rng):
    u, _ = pair
    n = u.ambient
    old_ann = (Subspace.full_space(n) if u.dim == 0
               else Subspace(n, kernel_basis(u.basis)))
    ann = u.annihilator()
    assert (ann.basis, ann.pivots) == (old_ann.basis, old_ann.pivots)
    t = random_matrix(rng, n, rng.randint(1, 4), span=2)
    old_pre = (Subspace.full_space(t.ncols) if old_ann.dim == 0
               else Subspace(t.ncols, kernel_basis(old_ann.basis * t)))
    pre = u.preimage_under(t)
    assert (pre.basis, pre.pivots) == (old_pre.basis, old_pre.pivots)


def test_rref_over_a_number_field():
    f = NumberField([-2, 0, 0, 1])             # Q[x]/(x^3-2)
    one, zero, a = f.one(), f.zero(), f.gen()
    # rational entries lifted into the field reduce as they do over Q
    rng = random.Random(416)
    for _ in range(10):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        lifted = Matrix([[f.from_rational(x) for x in r] for r in m.rows])
        red, pivots = rref(m)
        red_f, pivots_f = rref(lifted)
        assert pivots_f == pivots
        assert red_f == Matrix([[f.from_rational(x) for x in r]
                                for r in red.rows])
    # a pivot already one and a pivot that must be divided out
    m = Matrix([[one, a, a * a], [a, a * a + one, zero], [a, one, one]])
    red, pivots = rref(m)
    assert pivots == (0, 1, 2)
    assert red == Matrix.identity(3, one=one, zero=zero)
    m = Matrix([[a, one], [a * a, a]])         # rank one
    red, pivots = rref(m)
    assert pivots == (0,)
    assert red.rows[0][0] == one and red.rows[0][1] * a == one
    assert not red.rows[1][0] and not red.rows[1][1]


def reduced_projection(relations: Subspace) -> Matrix:
    """The projection onto Q^n / R by reducing every unit vector against
    R's basis and keeping its free coordinates."""
    pivot_set = set(relations.pivots)
    free = [j for j in range(relations.ambient) if j not in pivot_set]
    cols = []
    for v in Matrix.identity(relations.ambient).rows:
        for r, p in zip(relations.basis.rows, relations.pivots):
            if v[p]:
                c = v[p]
                v = [a - c * b for a, b in zip(v, r)]
        cols.append(tuple(v[k] for k in free))
    return Matrix._wrap(tuple(cols), len(free)).transpose()


def assert_projection_is_the_quotient_map(relations: Subspace):
    q = QuotientPresentation(relations)
    proj = q.projection
    assert (proj.nrows, proj.ncols) == (q.dim, relations.ambient)
    assert q.dim == relations.ambient - relations.dim
    for v in relations.basis_vectors():
        assert not any(proj.apply(v))
    for k, f in enumerate(q.free):
        assert column(proj, f) == tuple(int(t == k) for t in range(q.dim))
    assert proj == reduced_projection(relations)


def test_quotient_presentation_projection():
    relations = Subspace(3, [(1, 1, 0)])
    assert_projection_is_the_quotient_map(relations)
    q = QuotientPresentation(relations)
    assert q.free == (1, 2)
    assert q.projection.apply((rat(2), rat(3), rat(5))) == (1, 5)
    for n in range(4):
        assert_projection_is_the_quotient_map(Subspace.zero_space(n))
        assert_projection_is_the_quotient_map(Subspace.full_space(n))


@settings(max_examples=100, deadline=None)
@given(integer_matrices())
def test_quotient_projection_of_row_spaces_and_kernels(m):
    assert_projection_is_the_quotient_map(Subspace(m.ncols, m.rows))
    assert_projection_is_the_quotient_map(kernel_subspace(m))


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_quotient_projection_of_pairing_kernel(key, m):
    assert_projection_is_the_quotient_map(kernel_subspace(pairing_matrix(m)))


def test_polynomials_match_sympy():
    x = sympy.symbols("x")
    p = tuple(map(Fraction, (2, 0, 1)))        # x^2 + 2
    q = tuple(map(Fraction, (1, 1)))           # x + 1
    # p * q, written out: x^3 + x^2 + 2x + 2
    prod = tuple(map(Fraction, (2, 2, 1, 1)))
    sp = sympy.Poly([1, 1], x) * sympy.Poly([1, 0, 2], x)
    assert list(reversed(prod)) == [Fraction(c) for c in sp.all_coeffs()]
    quo, rem = poly_divmod(p, q)
    spq, spr = sympy.div(sympy.Poly([1, 0, 2], x), sympy.Poly([1, 1], x))
    assert list(reversed(quo)) == [Fraction(c) for c in spq.all_coeffs()]
    assert list(reversed(rem)) == [Fraction(c) for c in spr.all_coeffs()]
    assert len(poly_gcd(p, prod)) == len(p)


def test_number_field_rejects_non_squarefree():
    with pytest.raises(ReduciblePolynomial):
        NumberField([0, 0, 1])                 # x^2
    with pytest.raises(ReduciblePolynomial):
        NumberField([1, 2, 1])                 # (x+1)^2
    with pytest.raises(ReduciblePolynomial):
        NumberField([0, 2])                    # not monic


def test_number_field_squarefree_over_q_but_not_mod_the_prime():
    p = exactlin._SQUAREFREE_PRIME
    # x^2 - p and x(x - p) are x^2 mod p, yet squarefree over Q; the
    # rational gcd decides them
    for coeffs in ([-p, 0, 1], [0, -p, 1]):
        assert not exactlin._squarefree_mod_prime(coeffs)
        assert NumberField(coeffs).degree == 2
    with pytest.raises(ReduciblePolynomial):
        NumberField([p * p, -2 * p, 1])        # (x - p)^2


def integer_poly(f) -> sympy.Poly:
    return sympy.Poly(list(reversed(f)), sympy.symbols("x"))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
       st.lists(st.integers(-3, 3), max_size=3), st.booleans())
def test_number_field_squarefree_check_matches_sympy(g, h, square):
    # monic g^2 h or g h, so that square factors come up as often as not
    g, h = integer_poly(g + [1]), integer_poly(h + [1])
    f = g * g * h if square else g * h
    coeffs = [int(c) for c in reversed(f.all_coeffs())]
    if exactlin._squarefree_mod_prime(coeffs):
        assert f.is_sqf
    try:
        NumberField(coeffs)
        accepted = True
    except ReduciblePolynomial:
        accepted = False
    assert accepted == f.is_sqf


def test_number_field_arithmetic():
    f = NumberField([-2, 0, 0, 1])             # x^3 = 2
    a = f.gen()
    assert (a * a * a).coeffs == (rat(2), rat(0), rat(0))
    rng = random.Random(415)
    for _ in range(20):
        b = f.elem([Fraction(rng.randint(-3, 3)) for _ in range(3)])
        if any(b.coeffs):
            assert (b * b.inverse()).coeffs == f.one().coeffs
    with pytest.raises(DivisionByZero):
        f.zero().inverse()


def test_number_field_zero_divisor_detected():
    # x^2 - 1 is squarefree but reducible; (x-1)(x+1) = 0
    f = NumberField([-1, 0, 1])
    zero_divisor = f.gen() - f.one()
    assert (zero_divisor * (f.gen() + f.one())).coeffs == f.zero().coeffs
    with pytest.raises(DivisionByZero):
        zero_divisor.inverse()


def test_field_embedding_and_k_linear_kernel():
    lf = NumberField([-2, 0, 0, 1])            # L = Q[x]/(x^3-2)
    emb = FieldEmbedding(None, lf, None)       # K = Q
    one = lf.one()
    a = lf.gen()
    # 1 and a are K-independent; (a, -a) has the obvious kernel
    assert k_linear_kernel(emb, (one, a)).vectors == ()
    kern = k_linear_kernel(emb, (a, a)).vectors
    assert len(kern) == 1
    v = kern[0]
    assert v[0] * a + v[1] * a == lf.zero()


def _full_width_kernel(emb: FieldEmbedding, values) -> tuple:
    """k_linear_kernel's basis from an elimination over all p columns:
    kernel_basis of the Q-system, or over a proper K the K-RREF of the
    kernel of the Q-system in the coordinates of each c_j over K."""
    p, lf = len(values), emb.codomain
    if emb.domain is None:
        return kernel_basis(Matrix._wrap(tuple(
            tuple(v.coeffs[i] for v in values) for i in range(lf.degree)),
            p))
    dom = emb.domain
    e = dom.degree
    powers = [emb.apply(dom.gen() ** t) for t in range(e)]
    system = Matrix._wrap(tuple((powers[t] * v).coeffs for v in values
                                for t in range(e)), lf.degree).transpose()
    red, pivots = rref(Matrix._wrap(tuple(
        tuple(dom.elem(vec[j * e:(j + 1) * e]) for j in range(p))
        for vec in kernel_basis(system)), p))
    return red.rows[:len(pivots)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((OVER_Q, SQRT2)).flatmap(
    lambda emb: st.tuples(st.just(emb), value_vectors(emb.codomain))))
def test_k_linear_kernel_equals_the_full_width_elimination(case):
    # only the columns of nonzero value are eliminated; the basis is the
    # one an elimination over every column gives, and each vector is one
    # at its own column and nonzero elsewhere only at the shared ones
    emb, values = case
    kernel = k_linear_kernel(emb, values)
    assert kernel.vectors == _full_width_kernel(emb, values)
    assert len(kernel.columns) == len(kernel.vectors)
    assert len(kernel.shared) <= emb.codomain.degree
    for vec, own in zip(kernel.vectors, kernel.columns):
        assert vec[own] == 1 and own not in kernel.shared
        assert not any(x for j, x in enumerate(vec)
                       if j != own and j not in kernel.shared)


def test_field_embedding_checks_polynomial():
    lf = NumberField([-2, 0, 0, 1])
    kf = NumberField([-3, 0, 1])               # x^2 = 3 has no root in L
    with pytest.raises(ValueError):
        FieldEmbedding(kf, lf, lf.gen())
