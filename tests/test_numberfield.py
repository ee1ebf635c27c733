"""Arithmetic in Q[x]/(f) and the pivot reciprocal of rref, against the
constructions they replaced.

The references below are how NumberFieldElem and rref used to compute:
every product of field elements ran poly_mul and then poly_divmod by f
rebuilt as Fractions, every rational operand was first promoted to a
full field element, inverse() ran the extended Euclidean algorithm
against a freshly built f, and rref divided each entry of a pivot row by
the pivot.  The package now folds products through a per-field table of
x^k mod f, scales or shifts by rationals directly, inverts by
fraction-free integer elimination of the multiplication matrix and
normalises a pivot row with one reciprocal; these tests require the
results to be equal.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiods.exactlin import (
    ONE,
    DivisionByZero,
    FieldEmbedding,
    Matrix,
    NumberField,
    NumberFieldElem,
    ZeroDivisor,
    poly_divmod,
    poly_trim,
    rref,
)

FIELDS = {
    "x^3-2": (-2, 0, 0, 1),
    "x^2+1": (1, 0, 1),
    "x-1": (-1, 1),
    "x^2-1": (-1, 0, 1),            # squarefree but reducible
    "x^5-x-1": (-1, -1, 0, 0, 0, 1),
}


# -- references --------------------------------------------------------------


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim(tuple((p[i] if i < len(p) else 0)
                           + (q[i] if i < len(q) else 0)
                           for i in range(n)))


def poly_mul(p, q):
    """Schoolbook product of little-endian coefficient tuples."""
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def reference_modulus(field):
    return tuple(Fraction(c) for c in field.coeffs)


def reference_from_rational(field, c):
    return NumberFieldElem(field, (Fraction(c),)
                           + (Fraction(0),) * (field.degree - 1))


def reference_mul(a, b):
    prod = poly_divmod(poly_mul(a.coeffs, b.coeffs),
                       reference_modulus(a.field))[1]
    return a.field.elem(prod)


def reference_add(a, b):
    return NumberFieldElem(a.field, tuple(x + y for x, y in
                                          zip(a.coeffs, b.coeffs)))


def reference_sub(a, b):
    return NumberFieldElem(a.field, tuple(x - y for x, y in
                                          zip(a.coeffs, b.coeffs)))


def reference_inverse(a):
    if not any(a.coeffs):
        raise DivisionByZero("inverse of zero")
    f = reference_modulus(a.field)
    r0, r1 = poly_trim(a.coeffs), f
    s0, s1 = (ONE,), ()
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(s0, tuple(-c for c in poly_mul(q, s1)))
    if len(r0) != 1:
        raise DivisionByZero("zero divisor in a reducible Q[x]/(f)")
    return a.field.elem(tuple(c / r0[0] for c in s0))


def reference_rref(m):
    """Elimination dividing every entry of a pivot row by the pivot."""
    rows = [list(r) for r in m.rows]
    pivots = []
    lead = 0
    for col in range(m.ncols):
        pivot_row = next((r for r in range(lead, m.nrows) if rows[r][col]),
                         None)
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        inv = rows[lead][col]
        if inv != 1:
            rows[lead] = [x / inv for x in rows[lead]]
        for r in range(m.nrows):
            if r != lead and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == m.nrows:
            break
    return Matrix(rows, ncols=m.ncols), tuple(pivots)


# -- strategies --------------------------------------------------------------


rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7)))
scalars = st.one_of(st.integers(-9, 9), rationals)


def elements(field):
    return st.lists(rationals, min_size=field.degree,
                    max_size=field.degree).map(field.elem)


fields = st.sampled_from(sorted(FIELDS)).map(lambda k: NumberField(FIELDS[k]))


def assert_exact(elem, field):
    assert elem.field == field
    assert len(elem.coeffs) == field.degree
    assert all(type(c) is Fraction for c in elem.coeffs)


# -- the fold table ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fold_table_holds_the_high_powers_mod_f(name):
    field = NumberField(FIELDS[name])
    e = field.degree
    assert field.modulus == reference_modulus(field)
    assert len(field.fold) == max(0, e - 1)
    for k in range(e, 2 * e - 1):
        monomial = (Fraction(0),) * k + (ONE,)
        rem = poly_divmod(monomial, field.modulus)[1]
        expected = tuple((i, c) for i, c in enumerate(rem) if c)
        assert field.fold[k - e] == expected


# -- products, sums and differences ------------------------------------------


@settings(max_examples=200, deadline=None)
@given(fields.flatmap(lambda f: st.tuples(st.just(f), elements(f),
                                          elements(f))))
def test_product_equals_poly_mul_then_poly_divmod(case):
    field, a, b = case
    prod = a * b
    assert_exact(prod, field)
    assert prod == reference_mul(a, b)
    assert b * a == prod


@settings(max_examples=200, deadline=None)
@given(fields.flatmap(lambda f: st.tuples(st.just(f), elements(f))),
       scalars)
def test_rational_operands_equal_the_promoted_construction(case, c):
    field, a = case
    promoted = reference_from_rational(field, c)
    expected = {
        "a*c": reference_mul(a, promoted),
        "a+c": reference_add(a, promoted),
        "a-c": reference_sub(a, promoted),
        "c-a": reference_sub(promoted, a),
    }
    got = {"a*c": a * c, "a+c": a + c, "a-c": a - c, "c-a": c - a}
    assert got == expected
    assert c * a == expected["a*c"]
    assert c + a == expected["a+c"]
    for value in got.values():
        assert_exact(value, field)
    assert (a == c) == (a == promoted)
    if c:
        assert a / c == reference_mul(a, reference_inverse(promoted))
    else:
        with pytest.raises(DivisionByZero):
            a / c


@settings(max_examples=150, deadline=None)
@given(fields.flatmap(lambda f: st.tuples(st.just(f), elements(f),
                                          elements(f))))
def test_inverse_equals_the_old_extended_euclid(case):
    field, a, b = case
    try:
        expected = reference_inverse(a)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            a.inverse()
        with pytest.raises(DivisionByZero):
            b / a
        with pytest.raises(DivisionByZero):
            1 / a
        return
    inv = a.inverse()
    assert_exact(inv, field)
    assert inv == expected
    assert a * inv == 1
    assert 1 / a == expected
    assert b / a == reference_mul(b, expected)


tall_rationals = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                           st.integers(1, 10 ** 6))


@settings(max_examples=100, deadline=None)
@given(fields.flatmap(lambda f: st.tuples(
    st.just(f), st.lists(tall_rationals, min_size=f.degree,
                         max_size=f.degree).map(f.elem))))
def test_inverse_of_tall_coefficients_equals_the_old_extended_euclid(case):
    # Bareiss's exact division by the previous pivot must hold for
    # entries of any height, not only the small ones above
    field, a = case
    try:
        expected = reference_inverse(a)
    except DivisionByZero:
        with pytest.raises(ZeroDivisor if a else DivisionByZero):
            a.inverse()
        return
    assert a.inverse() == expected


def test_zero_divisors_still_raise():
    field = NumberField(FIELDS["x^2-1"])
    x = field.gen()
    for z in (x - 1, x + 1, 3 * x + 3, Fraction(1, 2) - x / 2):
        assert z
        assert not z * (x + 1) or not z * (x - 1)
        with pytest.raises(ZeroDivisor) as info:
            z.inverse()
        assert info.value.field == field
        with pytest.raises(ZeroDivisor):
            1 / z
    for name in sorted(FIELDS):
        with pytest.raises(DivisionByZero):
            NumberField(FIELDS[name]).zero().inverse()


# -- a sympy oracle on the product -------------------------------------------


X = sympy.Symbol("x")


def to_sympy(coeffs):
    return sum((sympy.Rational(c.numerator, c.denominator) * X ** i
                for i, c in enumerate(coeffs)), sympy.Integer(0))


def from_sympy(expr, degree):
    coeffs = sympy.Poly(expr, X).all_coeffs()[::-1]
    coeffs = [Fraction(int(c.p), int(c.q)) for c in coeffs]
    return tuple(coeffs + [Fraction(0)] * (degree - len(coeffs)))


@settings(max_examples=100, deadline=None)
@given(fields.flatmap(lambda f: st.tuples(st.just(f), elements(f),
                                          elements(f))))
def test_product_equals_the_sympy_remainder(case):
    field, a, b = case
    f = to_sympy(field.coeffs)
    rem = sympy.rem(sympy.expand(to_sympy(a.coeffs) * to_sympy(b.coeffs)),
                    f, X)
    assert (a * b).coeffs == from_sympy(rem, field.degree)


# -- field embeddings --------------------------------------------------------


def test_embedding_apply_equals_the_promoted_horner_loop():
    lf = NumberField(FIELDS["x^5-x-1"])
    kf = NumberField([-1, -1, 1])              # y^2 = y + 1 has no root in L
    with pytest.raises(ValueError):
        FieldEmbedding(kf, lf, lf.gen())
    lf = NumberField(FIELDS["x^3-2"])
    kf = NumberField([-4, 0, 0, 1])            # y^3 = 4, y -> x^2
    image = lf.gen() * lf.gen()
    emb = FieldEmbedding(kf, lf, image)
    for coeffs in ((1, 0, 0), (0, 1, 0), (Fraction(1, 3), -2, 5), (0, 0, 0)):
        value = kf.elem(coeffs)
        acc = lf.zero()
        for c in reversed(value.coeffs):
            acc = reference_add(reference_mul(acc, image),
                                reference_from_rational(lf, c))
        assert emb.apply(value) == acc
    assert emb.apply(Fraction(-7, 2)) == reference_from_rational(lf,
                                                                 Fraction(-7, 2))


# -- rref with one reciprocal per pivot --------------------------------------


def matrices(entries, max_rows, max_cols):
    return st.integers(0, max_rows).flatmap(lambda r: st.integers(
        0, max_cols).flatmap(lambda c: st.lists(
            st.lists(entries, min_size=c, max_size=c),
            min_size=r, max_size=r).map(lambda rows: Matrix(rows, ncols=c))))


@settings(max_examples=200, deadline=None)
@given(matrices(rationals, 5, 6))
def test_rref_equals_per_entry_division_over_q(m):
    red, pivots = rref(m)
    assert (red, pivots) == reference_rref(m)
    assert all(type(x) is Fraction for r in red.rows for x in r)


@settings(max_examples=100, deadline=None)
@given(matrices(elements(NumberField(FIELDS["x^3-2"])), 4, 4))
def test_rref_equals_per_entry_division_over_the_cubic_field(m):
    assert rref(m) == reference_rref(m)


def test_rref_meets_a_zero_divisor_as_before():
    field = NumberField(FIELDS["x^2-1"])
    x = field.gen()
    m = Matrix([[x + 1, x], [field.one(), x - 1]])
    with pytest.raises(ZeroDivisor):
        rref(m)
    with pytest.raises(DivisionByZero):
        reference_rref(m)
