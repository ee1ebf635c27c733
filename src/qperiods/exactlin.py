"""Exact linear algebra over Q and over number fields Q[x]/(f).

Every computation in this package routes through this module, and every
scalar is exact: ``fractions.Fraction`` for rational work, and
``NumberFieldElem`` for work in a number field presented as Q[x]/(f) with
f monic, integral and squarefree.  No floats, ever.

A product in Q[x]/(f), f of degree e, multiplies the nonzero coefficient
pairs of its two reduced factors, then folds each coefficient of x^k,
k = e..2e-2, into the lower ones through x^k mod f, a table each
NumberField computes once (Cohen, A Course in Computational Algebraic
Number Theory, section 4.2): no polynomial division per product.  A
rational operand scales or shifts the coefficient tuple directly, and
only inverse() solves a linear system: fraction-free Gauss-Jordan
elimination on the matrix of multiplication by the element.

Matrices are small and dense (tuples of tuples), which is the right
trade-off at the scale this package targets: ambient dimensions are a few
dozen at most, and canonical forms matter far more than asymptotics.
Subspaces are stored by their reduced row echelon basis, so two equal
subspaces are structurally equal and hash alike.  That canonicality is
what makes the rest of the package deterministic.

Entries are checked and promoted once, where they enter the engine.
Matrix(rows, ncols) and Matrix.unvec promote ints to Fractions, refuse
any entry that is not a Fraction or a field element (floats, strings),
and check the shape; Subspace(ambient, vectors) runs rat() on every
entry and checks the lengths.  The zoo, and lists handed to FdModule or
ModuleMap, go through them; a parsed file's matrices are wrapped by
serialize.matrix_from_data, which parses every entry to a Fraction and
checks the shape itself.  Whatever the engine computes from entries
that are already exact is wrapped as it is: Matrix._wrap builds the
results of identity, zero, +, -, negation, *, transpose, hstack,
block_diagonal, rref and the intertwiner systems, and the matrices the
other layers assemble from exact rows (path maps, block pairings,
depth's candidate blocks, hom basis blocks, trace and Gram forms,
realize's coefficient rows and contractions);
Subspace._from_rows spans the sums, intersections, images and kernels
here and the relation spans the other layers build.
Neither walks the entries, so they must only ever see Fractions, or
field elements for matrices over a number field.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Shapes of operands do not line up."""


class DivisionByZero(ArithmeticError):
    """Division by zero, or by a zero divisor of a reducible Q[x]/(f)."""


class ZeroDivisor(DivisionByZero):
    """A nonzero element of a reducible Q[x]/(f) has no inverse."""

    def __init__(self, field: "NumberField"):
        super().__init__("zero divisor in a reducible Q[x]/(f)")
        self.field = field


class ReduciblePolynomial(ValueError):
    """The defining polynomial is not monic integral squarefree."""


class FieldMismatch(TypeError):
    """Elements of two different number fields were mixed."""


def rat(value) -> Fraction:
    """Coerce ints, Fractions and strings like '3/4' or '-2' to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to a rational number")


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Immutable dense matrix over Q or a number field.

    Entries are Fractions or NumberFieldElems; the constructor promotes
    ints and refuses anything else.  Mixed Fraction/NumberFieldElem
    matrices are not supported; lift first.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        rows = tuple(tuple(map(_promote, r)) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        if rows:
            if ncols is not None and ncols != len(rows[0]):
                raise DimensionMismatch("declared ncols contradicts the rows")
            self.ncols = len(rows[0])
        else:
            # a matrix with no rows still has a width; callers that can
            # produce one must say what it is
            self.ncols = 0 if ncols is None else ncols

    # -- constructors -------------------------------------------------------

    @classmethod
    def _wrap(cls, rows: tuple, ncols: int) -> "Matrix":
        """Trusted: rows is a tuple of tuples of width ncols whose entries
        are already exact (computed from entries that were).  No walk."""
        m = cls.__new__(cls)
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, n: int, one=ONE, zero=ZERO) -> "Matrix":
        one, zero = _promote(one), _promote(zero)
        row = (zero,) * n
        return cls._wrap(tuple(row[:i] + (one,) + row[i + 1:]
                               for i in range(n)), n)

    @classmethod
    def zero(cls, nrows: int, ncols: int, zero=ZERO) -> "Matrix":
        return cls._wrap(((_promote(zero),) * ncols,) * nrows, ncols)

    @classmethod
    def from_columns(cls, cols: Sequence[Iterable]) -> "Matrix":
        return cls(tuple(tuple(c) for c in cols)).transpose()

    # -- basic queries -------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def nonzero_entries(self) -> list:
        """(i, j, entry) for each nonzero entry, row by row."""
        return [(i, j, x) for i, r in enumerate(self.rows)
                for j, x in enumerate(r) if x]

    def vec(self) -> tuple:
        """Row-major flattening; the package-wide vectorization convention."""
        return tuple(itertools.chain.from_iterable(self.rows))

    @classmethod
    def unvec(cls, entries: Sequence, nrows: int, ncols: int) -> "Matrix":
        if len(entries) != nrows * ncols:
            raise DimensionMismatch("entry count does not match shape")
        return cls(tuple(tuple(entries[i * ncols + j] for j in range(ncols))
                         for i in range(nrows)), ncols=ncols)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._wrap(tuple(tuple(a + b for a, b in zip(ra, rb))
                                  for ra, rb in zip(self.rows, other.rows)),
                            self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._wrap(tuple(tuple(a - b for a, b in zip(ra, rb))
                                  for ra, rb in zip(self.rows, other.rows)),
                            self.ncols)

    def __neg__(self) -> "Matrix":
        return Matrix._wrap(tuple(tuple(-a for a in r) for r in self.rows),
                            self.ncols)

    def scale(self, c) -> "Matrix":
        return Matrix(tuple(tuple(c * a for a in r) for r in self.rows),
                      ncols=self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        # each entry sums the products of the nonzero entries of a row of
        # self with the nonzero entries of other's rows, in row order; an
        # entry that no such pair reaches is the zero of the products
        n = other.ncols
        if not (self.rows and self.ncols and n):
            return Matrix._wrap(((ZERO,) * n,) * self.nrows, n)
        zero = self.rows[0][0] * other.rows[0][0]
        zero = zero.field.zero() if isinstance(zero, NumberFieldElem) else ZERO
        right = [[(j, b) for j, b in enumerate(row) if b]
                 for row in other.rows]
        rows = []
        for row in self.rows:
            acc = {}
            for a, terms in zip(row, right):
                if terms and a:
                    for j, b in terms:
                        t = a * b
                        acc[j] = acc[j] + t if j in acc else t
            rows.append(tuple([acc.get(j, zero) for j in range(n)])
                        if acc else (zero,) * n)
        return Matrix._wrap(tuple(rows), n)

    def apply(self, vector: Sequence) -> tuple:
        if len(vector) != self.ncols:
            raise DimensionMismatch("vector length does not match columns")
        return tuple(_dot(r, vector) for r in self.rows)

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix._wrap(((),) * self.ncols, 0)
        return Matrix._wrap(tuple(zip(*self.rows)), self.nrows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise DimensionMismatch("row counts differ")
        return Matrix._wrap(tuple(ra + rb for ra, rb in
                                  zip(self.rows, other.rows)),
                            self.ncols + other.ncols)

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shapes differ")

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.ncols == other.ncols)

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"Matrix({list(map(list, self.rows))!r})"


def _promote(x):
    """ints become Fractions, so that later division cannot fall into
    floats; Fraction and NumberFieldElem pass through untouched, and
    anything else is refused here, since computed matrices and spans no
    longer look at their entries."""
    if isinstance(x, (Fraction, NumberFieldElem)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"matrix entry {x!r} is not an exact scalar")


def _dot(u: Sequence, v: Sequence):
    total = None
    for a, b in zip(u, v):
        term = a * b
        total = term if total is None else total + term
    return ZERO if total is None else total


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    """Assemble square-or-rectangular blocks along the diagonal."""
    nrows = sum(b.nrows for b in blocks)
    ncols = sum(b.ncols for b in blocks)
    rows = [[ZERO] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.nrows):
            for j in range(b.ncols):
                rows[r0 + i][c0 + j] = b.rows[i][j]
        r0 += b.nrows
        c0 += b.ncols
    return Matrix._wrap(tuple(map(tuple, rows)), ncols)


# ---------------------------------------------------------------------------
# echelon forms, kernels, solving
# ---------------------------------------------------------------------------


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns (R, pivots) where R has the same shape as m, pivot entries are
    one, pivot columns are otherwise zero, and zero rows sit at the bottom.
    Works over any exact field the entries implement; each pivot row is
    normalised by multiplying with one reciprocal of its pivot.
    """
    rows = [list(r) for r in m.rows]
    pivots = []
    lead = 0
    for col in range(m.ncols):
        pivot_row = None
        for r in range(lead, m.nrows):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        pivot = rows[lead][col]
        if pivot != 1:
            inv = 1 / pivot
            rows[lead] = [x * inv if x else x for x in rows[lead]]
        for r in range(m.nrows):
            if r != lead and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == m.nrows:
            break
    return Matrix._wrap(tuple(map(tuple, rows)), m.ncols), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def _kernel_by_free_column(m: Matrix) -> list:
    """(f, kernel vector for f) for each free column f of m, by ascending f."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    out = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        vec = [ZERO] * m.ncols
        vec[f] = ONE
        for r, p in enumerate(pivots):
            x = red.rows[r][f]
            if x:
                vec[p] = -x
        out.append((f, tuple(vec)))
    return out


def kernel_basis(m: Matrix) -> tuple[tuple, ...]:
    """Basis of the right kernel {x : m x = 0}, one vector per free column.

    The basis is the standard echelon kernel basis: vector k for free
    column f has entry one at f, minus the reduced entries at the pivot
    coordinates, zero elsewhere.  Deterministic given m.
    """
    return tuple(vec for _, vec in _kernel_by_free_column(m))


def kernel_subspace(m: Matrix) -> "Subspace":
    """The right kernel of a rational matrix, by a single elimination.

    m is eliminated with its columns reversed.  Kernel vector f of the
    reversed matrix is one at f and otherwise nonzero only at pivots left
    of f.  Read back in the original order, it leads with that one at
    column n-1-f and is zero at every other vector's leading column, so
    the vectors, taken by descending f, already are the canonical RREF
    basis of the kernel.  Equal to Subspace(n, kernel_basis(m)); entries
    must be rational, as Subspace requires.
    """
    n = m.ncols
    flipped = Matrix._wrap(tuple(r[::-1] for r in m.rows), n)
    by_free = _kernel_by_free_column(flipped)[::-1]
    return Subspace._from_rows(n, tuple(vec[::-1] for _, vec in by_free),
                               tuple(n - 1 - f for f, _ in by_free))


def intertwiners(basis: Sequence[dict], ncols: int,
                 pairs: Sequence[tuple[list, list]]) -> list[dict]:
    """A basis of {X in span(basis) : L X = X R for every (L, R) in pairs}.

    Each X is a sparse {i*ncols + k: nonzero entry} dict, and L and R are
    square matrices given by their nonzero (row, column, entry) triples,
    as Matrix.nonzero_entries lists them.  Only X's nonzero entries reach
    L X - X R: entry x at (i, k) adds L[:, i]*x to column k of L X and
    x*R[k, :] to row i of X R; for a diagonal pair that is
    (L_ii - R_kk) x at (i, k), and as the factor scales a whole row of
    the system, which keeps its kernel, x stands in for it where
    L_ii != R_kk.  The differences, one column per basis element, are
    stacked over the (pair, position)s they touch and eliminated once,
    unless no two moved elements share one (the kernel is then 0), and
    each kernel vector y gives sum_s y_s X_s.  Started from matrix
    units, the result is the echelon kernel basis of the system in
    those units: one at its own free unit, its last nonzero one, and
    zero at the others'.
    """
    diffs = [{} for _ in basis]
    for t, (left, right) in enumerate(pairs):
        if all(i == j for i, j, _ in itertools.chain(left, right)):
            ldiag, rdiag = ({i: y for i, _, y in e} for e in (left, right))
            for x, diff in zip(basis, diffs):
                for pos, v in x.items():
                    i, k = divmod(pos, ncols)
                    if ldiag.get(i, ZERO) != rdiag.get(k, ZERO):
                        diff[t, pos] = v
            continue
        left_cols: dict[int, list] = {}
        for r, i, y in left:
            left_cols.setdefault(i, []).append((r, y))
        right_rows: dict[int, list] = {}
        for k, c, y in right:
            right_rows.setdefault(k, []).append((c, y))
        for x, diff in zip(basis, diffs):
            for pos, v in x.items():
                i, k = divmod(pos, ncols)
                for r, y in left_cols.get(i, ()):
                    p = (t, r * ncols + k)
                    diff[p] = diff.get(p, ZERO) + y * v
                for c, y in right_rows.get(k, ()):
                    p = (t, i * ncols + c)
                    diff[p] = diff.get(p, ZERO) - v * y
    # an X that all pairs fix is a free column of its own, so it is kept
    # as it is, in its place, and only the others are eliminated
    out, active = {}, []
    for s, (x, diff) in enumerate(zip(basis, diffs)):
        if any(diff.values()):
            active.append(s)
        else:
            out[s] = x
    moved = [p for s in active for p, v in diffs[s].items() if v]
    touched = sorted(set(moved))
    if len(touched) == len(moved):
        return [out[s] for s in sorted(out)]
    system = Matrix._wrap(tuple(tuple(diffs[s].get(p, ZERO) for s in active)
                                for p in touched), len(active))
    for f, y in _kernel_by_free_column(system):
        acc = {}
        for ys, s in zip(y, active):
            if ys:
                for pos, v in basis[s].items():
                    acc[pos] = acc.get(pos, ZERO) + ys * v
        out[active[f]] = {pos: v for pos, v in acc.items() if v}
    return [out[s] for s in sorted(out)]


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; DivisionByZero if singular."""
    if not m.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.nrows
    if n == 0:
        return m
    one = m.rows[0][0] / m.rows[0][0] if m.rows[0][0] else None
    if one is None:
        for r in m.rows:
            for x in r:
                if x:
                    one = x / x
        if one is None:
            raise DivisionByZero("matrix is singular")
    zero = one - one
    aug = m.hstack(Matrix.identity(n, one=one, zero=zero))
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        raise DivisionByZero("matrix is singular")
    return Matrix._wrap(tuple(r[n:] for r in red.rows), n)


# ---------------------------------------------------------------------------
# rational subspaces in canonical form
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of Q^n held by its reduced row echelon basis.

    Canonical: two Subspace objects are equal iff they are the same
    subspace, and equal subspaces hash alike.  All the constructions the
    package needs (sum, intersection, annihilator, images and preimages
    under linear maps) stay inside this canonical representation.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        rows = tuple(tuple(rat(x) for x in v) for v in vectors)
        mat = Matrix(rows, ncols=ambient if not rows else None)
        if mat.ncols != ambient:
            raise DimensionMismatch("vector length does not match ambient")
        red, pivots = rref(mat)
        self.ambient = ambient
        self.basis = Matrix._wrap(red.rows[:len(pivots)], ambient)
        self.pivots = pivots

    @classmethod
    def _from_rows(cls, ambient: int, rows: tuple,
                   pivots: tuple | None = None) -> "Subspace":
        """Trusted: the span of rows, tuples of Fractions of length ambient
        computed from exact entries, so nothing is checked or promoted.

        Without pivots the rows are reduced here; with pivots they already
        are the canonical RREF basis, with those pivot columns.
        """
        if pivots is None:
            red, pivots = rref(Matrix._wrap(rows, ambient))
            rows = red.rows[:len(pivots)]
        space = cls.__new__(cls)
        space.ambient = ambient
        space.basis = Matrix._wrap(rows, ambient)
        space.pivots = pivots
        return space

    @classmethod
    def zero_space(cls, ambient: int) -> "Subspace":
        return cls(ambient)

    @classmethod
    def full_space(cls, ambient: int) -> "Subspace":
        return cls._from_rows(ambient, Matrix.identity(ambient).rows,
                              tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def basis_vectors(self) -> tuple[tuple, ...]:
        return self.basis.rows

    def contains_vector(self, v: Sequence) -> bool:
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length does not match ambient")
        v = [rat(x) for x in v]
        for r, p in zip(self.basis.rows, self.pivots):
            if v[p]:
                c = v[p]
                v = [a - c * b for a, b in zip(v, r)]
        return not any(v)

    def contains(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(self.contains_vector(v) for v in other.basis.rows)

    def add(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace._from_rows(self.ambient,
                                   self.basis.rows + other.basis.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero_space(self.ambient)
        # x in both spans: x = A^T u = B^T v, read off from the kernel of
        # the stacked transposes.
        span = self.basis.transpose()
        stacked = span.hstack(-other.basis.transpose())
        return Subspace._from_rows(self.ambient, tuple(
            span.apply(k[:self.dim]) for k in kernel_basis(stacked)))

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on this subspace, as row vectors."""
        return kernel_subspace(self.basis)

    def image_under(self, t: Matrix) -> "Subspace":
        if t.ncols != self.ambient:
            raise DimensionMismatch("map domain does not match ambient")
        return Subspace._from_rows(t.nrows, tuple(t.apply(v)
                                                  for v in self.basis.rows))

    def preimage_under(self, t: Matrix) -> "Subspace":
        if t.nrows != self.ambient:
            raise DimensionMismatch("map codomain does not match ambient")
        return kernel_subspace(self.annihilator().basis * t)

    def _same_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise DimensionMismatch("subspaces live in different ambients")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"


# ---------------------------------------------------------------------------
# polynomials over Q (little-endian coefficient tuples)
# ---------------------------------------------------------------------------


def poly_trim(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_divmod(p, q):
    q = poly_trim(q)
    if not q:
        raise DivisionByZero("polynomial division by zero")
    p = list(poly_trim(p))
    quot = [ZERO] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        c = p[-1] / q[-1]
        d = len(p) - len(q)
        quot[d] = c
        for i, b in enumerate(q):
            p[d + i] -= c * b
        p = list(poly_trim(p))
    return poly_trim(quot), poly_trim(p)


def poly_gcd(p, q):
    """Monic gcd over Q."""
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    if p:
        lead = p[-1]
        p = tuple(c / lead for c in p)
    return p


def poly_derivative(p):
    return poly_trim(tuple(p[i] * i for i in range(1, len(p))))


_SQUAREFREE_PRIME = 2_147_483_647           # 2^31 - 1


def _squarefree_mod_prime(coeffs: Sequence[int]) -> bool:
    """Whether the monic integer polynomial is squarefree modulo one fixed
    31-bit prime p, by gcd(f, f') over GF(p).

    The discriminant of a monic f reduces modulo p to that of f mod p, so
    True means f is squarefree over Q.  False decides nothing: p may
    divide the discriminant of a squarefree f.
    """
    p = _SQUAREFREE_PRIME
    f = list(poly_trim([c % p for c in coeffs]))
    g = list(poly_trim([i * c % p for i, c in enumerate(coeffs)][1:]))
    while g:
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            c = f[-1] * inv % p
            shift = len(f) - len(g)
            for i, b in enumerate(g):
                f[shift + i] = (f[shift + i] - c * b) % p
            f = list(poly_trim(f))
        f, g = g, f
    return len(f) == 1


# ---------------------------------------------------------------------------
# number fields Q[x]/(f)
# ---------------------------------------------------------------------------


class NumberField:
    """Q[x]/(f) for monic integral squarefree f of degree >= 1.

    Squarefree rather than irreducible: irreducibility testing is not
    needed for anything downstream, while squarefreeness (checked via
    gcd(f, f') modulo one fixed prime, and over Q only when that test
    fails) guarantees the ring is a product of fields, so every
    nonzero non-zero-divisor is invertible and zero divisors are reported
    as ZeroDivisor when inversion actually fails.

    Two things are computed once per field: ``modulus``, f as Fractions,
    and ``fold``, where fold[k - e] lists the nonzero (i, c) of
    x^k mod f = sum c x^i for k = e .. 2e-2 (e the degree).  A product of
    two reduced elements has degree at most 2e-2, so folding each high
    coefficient through that table reduces it without dividing by f.
    """

    __slots__ = ("coeffs", "degree", "modulus", "fold")

    def __init__(self, coeffs: Sequence[int]):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ReduciblePolynomial("defining polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ReduciblePolynomial("defining polynomial must be monic")
        f = tuple(Fraction(c) for c in coeffs)
        if (not _squarefree_mod_prime(coeffs)
                and len(poly_gcd(f, poly_derivative(f))) != 1):
            raise ReduciblePolynomial("defining polynomial is not squarefree")
        self.coeffs = coeffs
        self.degree = e = len(coeffs) - 1
        self.modulus = f
        # x^e = -(f_0 + ... + f_{e-1} x^{e-1}); each next power is the
        # previous one times x, its x^e term folded back the same way
        power = [-c for c in f[:e]]
        fold = []
        for _ in range(e - 1):
            fold.append(tuple((i, c) for i, c in enumerate(power) if c))
            top = power[-1]
            power = [ZERO] + power[:-1]
            if top:
                power = [a - top * c for a, c in zip(power, f)]
        self.fold = tuple(fold)

    def elem(self, coeffs: Sequence) -> "NumberFieldElem":
        coeffs = [rat(c) for c in coeffs]
        if len(coeffs) > self.degree:
            coeffs = list(poly_divmod(tuple(coeffs), self.modulus)[1])
        coeffs += [ZERO] * (self.degree - len(coeffs))
        return NumberFieldElem(self, tuple(coeffs))

    def zero(self) -> "NumberFieldElem":
        return self.elem(())

    def one(self) -> "NumberFieldElem":
        return self.elem((ONE,))

    def gen(self) -> "NumberFieldElem":
        return self.elem((ZERO, ONE))

    def from_rational(self, c) -> "NumberFieldElem":
        return self.elem((rat(c),))

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"NumberField({list(self.coeffs)!r})"


class NumberFieldElem:
    """Element of a NumberField; supports mixed arithmetic with rationals.

    An int or Fraction operand is never promoted to a field element: it
    scales the coefficient tuple, or shifts its constant term.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple[Fraction, ...]):
        assert len(coeffs) == field.degree
        self.field = field
        self.coeffs = coeffs

    def _same_field(self, other: "NumberFieldElem"):
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("elements of different number fields")

    def __add__(self, other):
        if isinstance(other, NumberFieldElem):
            self._same_field(other)
            return NumberFieldElem(self.field, tuple(
                a + b for a, b in zip(self.coeffs, other.coeffs)))
        if isinstance(other, (int, Fraction)):
            return NumberFieldElem(self.field,
                                   (self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, NumberFieldElem):
            self._same_field(other)
            return NumberFieldElem(self.field, tuple(
                a - b for a, b in zip(self.coeffs, other.coeffs)))
        if isinstance(other, (int, Fraction)):
            return NumberFieldElem(self.field,
                                   (self.coeffs[0] - other,) + self.coeffs[1:])
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return NumberFieldElem(self.field, (other - self.coeffs[0],)
                                   + tuple(-a for a in self.coeffs[1:]))
        return NotImplemented

    def __neg__(self):
        return NumberFieldElem(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NumberFieldElem(self.field,
                                   tuple(a * other for a in self.coeffs))
        if not isinstance(other, NumberFieldElem):
            return NotImplemented
        self._same_field(other)
        field = self.field
        e = field.degree
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        # the unreduced product, None where no pair of nonzeros lands
        prod = [None] * (2 * e - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in right:
                    t = a * b
                    s = prod[i + j]
                    prod[i + j] = t if s is None else s + t
        # x^k mod f has degree below e, so each high term folds once
        for c, terms in zip(prod[e:], field.fold):
            if c:
                for i, t in terms:
                    s = prod[i]
                    prod[i] = c * t if s is None else s + c * t
        return NumberFieldElem(field, tuple(ZERO if c is None else c
                                            for c in prod[:e]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("inverse of zero")
            return self * (ONE / other)
        if not isinstance(other, NumberFieldElem):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def inverse(self) -> "NumberFieldElem":
        """Solve a * y = 1 by fraction-free elimination over the integers.

        With D the lcm of the coefficient denominators, column j of the
        integer matrix M is D*a*x^j mod f (f is monic integral, so the
        reduction stays integral).  Solving M y = e_0 gives D*a*y = 1, so
        the inverse is D*y.  Gauss-Jordan elimination in Bareiss's form
        divides each update exactly by the previous pivot and ends with
        the last pivot, which is +-det(M), on the whole diagonal and that
        pivot times y in the right-hand column; the one division into
        Fractions happens at the end.  A column without a pivot means M
        is singular, so a is a zero divisor.
        """
        if not self:
            raise DivisionByZero("inverse of zero")
        field = self.field
        e = field.degree
        f = field.coeffs
        scale = math.lcm(*(c.denominator for c in self.coeffs))
        col = [c.numerator * (scale // c.denominator) for c in self.coeffs]
        cols = [col]
        for _ in range(e - 1):
            top = col[-1]
            col = [0] + col[:-1]
            if top:
                col = [a - top * c for a, c in zip(col, f)]
            cols.append(col)
        # rows of [M | e_0]
        rows = [[cols[j][i] for j in range(e)] + [int(i == 0)]
                for i in range(e)]
        prev = 1
        for k in range(e):
            p = next((r for r in range(k, e) if rows[r][k]), None)
            if p is None:
                raise ZeroDivisor(field)
            rows[k], rows[p] = rows[p], rows[k]
            pivot_row = rows[k]
            pivot = pivot_row[k]
            for r in range(e):
                if r == k:
                    continue
                row = rows[r]
                lead = row[k]
                rows[r] = [(pivot * x - lead * y) // prev
                           for x, y in zip(row, pivot_row)]
            prev = pivot
        return NumberFieldElem(field, tuple(Fraction(scale * row[e], prev)
                                            for row in rows))

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        out = self.field.one()
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return (isinstance(other, NumberFieldElem)
                and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return " + ".join(terms) if terms else "0"


class FieldEmbedding:
    """An embedding of a coefficient field K into a value field L.

    K may be None, meaning Q, in which case the embedding is the canonical
    one and ``image`` is ignored.  Otherwise ``image`` must be an element
    of L on which K's defining polynomial vanishes; that single value
    determines the embedding.
    """

    __slots__ = ("domain", "codomain", "image")

    def __init__(self, domain: NumberField | None,
                 codomain: NumberField,
                 image: NumberFieldElem | None = None):
        if domain is not None:
            if image is None:
                raise ValueError("an embedding of a nontrivial field needs the image of its generator")
            if image.field != codomain:
                raise FieldMismatch("image lives in the wrong field")
            acc = codomain.zero()
            for c in reversed(domain.coeffs):
                acc = acc * image + c
            if acc:
                raise ValueError("claimed image is not a root of the defining polynomial")
        self.domain = domain
        self.codomain = codomain
        self.image = image

    def apply(self, value) -> NumberFieldElem:
        if isinstance(value, (int, Fraction)):
            return self.codomain.from_rational(value)
        if isinstance(value, NumberFieldElem):
            if self.domain is None or value.field != self.domain:
                raise FieldMismatch("value does not live in the embedding's domain")
            acc = self.codomain.zero()
            for c in reversed(value.coeffs):
                acc = acc * self.image + c
            return acc
        raise TypeError(f"cannot embed {value!r}")


class KernelBasis:
    """A kernel basis with the columns where its nonzeros sit: vector k
    is one at columns[k] and otherwise nonzero only at columns in
    shared, as a canonical RREF row is at its pivot and free columns."""

    __slots__ = ("vectors", "columns", "shared")

    def __init__(self, vectors: tuple, columns: tuple, shared: tuple):
        self.vectors = vectors
        self.columns = columns
        self.shared = shared


def k_linear_kernel(embedding: FieldEmbedding,
                    values: Sequence[NumberFieldElem]) -> KernelBasis:
    """Kernel of (c_1, ..., c_p) -> sum c_i * values[i] with c_i in K.

    Values live in L = embedding.codomain; coefficients range over the
    domain K (Q when the embedding's domain is None).  The sum is taken
    inside L through the embedding.  Returns a canonical K-basis of the
    kernel: tuples of Fractions when K is Q, tuples of K-elements
    otherwise.  Over Q it is kernel_basis of the Q-system, one vector per
    free column f, one at f and nonzero elsewhere only at the system's
    <= [L:Q] pivots; over a proper K it is the K-RREF basis, whose rows
    are nonzero only at their pivot and at the <= [L:K] columns of
    nonzero value that are no pivot.  A column of zero value is free, and
    its vector is its unit vector, so only the columns of nonzero value
    are eliminated.
    """
    codomain = embedding.codomain
    for v in values:
        if v.field != codomain:
            raise FieldMismatch("value outside the embedding's codomain")
    p = len(values)
    support = [j for j, v in enumerate(values) if v]
    if embedding.domain is None:
        # one Q-row per L-coordinate; free column f's vector is minus f's
        # reduced column at the pivots
        rows = tuple(tuple(values[j].coeffs[i] for j in support)
                     for i in range(codomain.degree))
        red, pivots = rref(Matrix._wrap(rows, len(support)))
        shared = tuple(support[c] for c in pivots)
        bound = set(shared)
        columns = tuple(f for f in range(p) if f not in bound)
        tail = {f: [(j, -x) for j, x in zip(shared, col) if x]
                for f, col in zip(support, zip(*red.rows)) if f not in bound}
        zero, one = ZERO, ONE
    else:
        dom = embedding.domain
        e = dom.degree
        # unknowns: c_j = sum_t u_{j,t} g^t with g the K-generator; the
        # L-linear condition becomes a Q-system in the u_{j,t}
        gen_powers = [embedding.apply(dom.gen() ** t) for t in range(e)]
        cols = tuple((gen_powers[t] * values[j]).coeffs
                     for j in support for t in range(e))
        big = Matrix._wrap(cols, codomain.degree).transpose()
        # reassembled into K-vectors and put into canonical K-echelon form
        k_rows = tuple(tuple(dom.elem(vec[s * e:(s + 1) * e])
                             for s in range(len(support)))
                       for vec in kernel_basis(big))
        red, pivots = rref(Matrix._wrap(k_rows, len(support)))
        tail = {support[c]: [(j, x) for j, x in zip(support, row) if x]
                for c, row in zip(pivots, red.rows)}
        shared = tuple(j for j in support if j not in tail)
        columns = tuple(j for j in range(p) if j in tail or not values[j])
        zero, one = dom.zero(), dom.one()
    vectors = []
    for f in columns:
        vec = [zero] * p
        vec[f] = one
        for j, x in tail.get(f, ()):
            vec[j] = x
        vectors.append(tuple(vec))
    return KernelBasis(tuple(vectors), columns, shared)
