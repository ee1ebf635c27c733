"""Formal period spaces of representations, and everything that bounds them.

Conventions, fixed once for the whole package:

- For a module M of total dimension d, a coefficient matrix is a d x d
  rational matrix C; its row index runs over the chosen basis of M and
  its column index over the dual basis.  Coefficient matrices are
  vectorized row-major (Matrix.vec), so the coefficient ambient is Q^(d*d).
- The pairing against the algebra sends C to the tuple of traces
  tr(rho(b) C) over the path basis b.  The relation subspace of M is the
  kernel of that pairing; the period space is the quotient of Q^(d*d) by
  the relation subspace, so its dimension equals the rank of the algebra
  action on M.
- Every certified lower-bound construction in this module produces
  relation vectors inside that kernel; the containment is checked, not
  assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .exactlin import (
    FieldEmbedding,
    Matrix,
    NumberField,
    NumberFieldElem,
    QuotientPresentation,
    Subspace,
    ZERO,
    ONE,
    ZeroDivisor,
    intertwiners,
    k_linear_kernel,
    kernel_subspace,
    rat,
    rref,
)
from .quivalg import (
    FdModule,
    ModuleMap,
    NotASubmodule,
    SubmoduleHandle,
    block_map,
    factor_through_quotient,
    hom_space,
    image_submodule,
    module_power,
    slot_layout,
    spin_pool,
    tuple_embed,
)


class NotAUnit(ValueError):
    """The evaluation element is not invertible in the scalar extension."""


class NotAField(ValueError):
    """L or K is a squarefree but reducible Q[x]/(f), and the evaluation
    had to divide by one of its zero divisors."""


def _outer(u: Sequence, v: Sequence) -> Matrix:
    return Matrix._wrap(tuple(tuple(a * b for b in v) for a in u), len(v))


# ---------------------------------------------------------------------------
# the coefficient pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodSpace:
    """The period space of a module: ambient coefficients modulo relations.

    relations is a subspace of Q^(d*d); provenance records which
    construction produced it ('pairing-kernel' for the full space,
    'depth' or 'endo-quotient' for certified lower bounds, whose relation
    subspaces are contained in the pairing kernel).
    """

    module: FdModule
    relations: Subspace
    provenance: str

    @property
    def ambient_dim(self) -> int:
        return self.module.dim ** 2

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.relations.dim

    def __repr__(self) -> str:
        return (f"PeriodSpace(dim {self.dim}, provenance "
                f"{self.provenance!r})")


def pairing_matrix(m: FdModule) -> Matrix:
    """Rows: the functional C -> tr(rho(b) C) for each basis path b."""
    return Matrix(
        tuple(m.act_basis(i).transpose().vec()
              for i in range(m.algebra.dim)),
        ncols=m.dim ** 2)


def period_space(m: FdModule) -> PeriodSpace:
    """The full period space, via the kernel of the coefficient pairing."""
    relations = kernel_subspace(pairing_matrix(m))
    return PeriodSpace(m, relations, "pairing-kernel")


# ---------------------------------------------------------------------------
# relations realized by submodules of powers
# ---------------------------------------------------------------------------


def relation_from_submodule(m: FdModule, power: int, ambient: FdModule,
                            handle: SubmoduleHandle) -> Subspace:
    """All coefficient relations contracted out of one submodule of M^power.

    For a submodule N' of M^power, every pair of a vector tuple inside N'
    and a functional tuple annihilating N' contracts to the coefficient
    matrix sum_k outer(sigma_k, omega_k), which pairs to zero against the
    whole algebra.  The function returns the span of these contractions
    over a basis of N' and a basis of its annihilator.  ambient is
    M^power as module_power builds it.
    """
    if handle.ambient != ambient:
        raise ValueError("handle does not live in the expected power of M")
    d = m.dim
    layout = slot_layout(m, power)

    def slot_terms(flat_vec):
        return [[(g, flat_vec[p]) for g, p in enumerate(slot) if flat_vec[p]]
                for slot in layout]

    flat = handle.flat()
    sigmas = [slot_terms(s) for s in flat.basis_vectors()]
    omegas = [slot_terms(w) for w in flat.annihilator().basis_vectors()]
    vecs = []
    for sigma in sigmas:
        for omega in omegas:
            vec = [ZERO] * (d * d)
            for sg, om in zip(sigma, omega):
                for r, a in sg:
                    row = r * d
                    for c, b in om:
                        vec[row + c] += a * b
            vecs.append(tuple(vec))
    return Subspace._from_rows(d * d, tuple(vecs))


def _is_scalar(entries: list, d: int) -> bool:
    """Whether the d x d matrix with these nonzero entries, as
    Matrix.nonzero_entries lists them, is c times the identity."""
    if not entries:
        return True
    c = entries[0][2]
    return len(entries) == d and all(i == j and x == c
                                     for i, j, x in entries)


def endo_quotient(m: FdModule) -> PeriodSpace:
    """The endomorphism-side upper bound for the period space.

    Relations are spanned by the commutators [E_ij, E] of the elementary
    coefficient matrices with each basis endomorphism E.  Since
    tr(X [A, E]) = tr(A [E, X]), a coefficient matrix X pairs to zero
    with all of them exactly when X commutes with every E: the span is
    the trace-annihilator of the centraliser C of End(M) in M_d(Q), and
    the quotient is dual to the bicommutant of M.  It always has the
    pairing kernel's quotient as a quotient; equality is what
    principality certificates are about.

    So C is computed instead of the k*d^2 commutators.  Scalar basis
    endomorphisms commute with everything and are skipped; while only
    those were seen, C is all of M_d(Q) and the relations are zero.  The
    first other E narrows the d^2 matrix units to their combinations
    commuting with E (the intertwiners of the pair (E, E)), and each
    later E narrows that basis again, so no system has more than d^2
    rows.  The relations are then the kernel of the pairing against C's
    basis: tr(XY) = sum_pq X_pq Y_qp, so X's row holds X_pq at Y's flat
    position q*d + p.
    """
    d = m.dim
    cent = None
    for f in hom_space(m, m):
        entries = f.flattened().nonzero_entries()
        if _is_scalar(entries, d):
            continue
        if cent is None:
            cent = [{pos: ONE} for pos in range(d * d)]
        cent = intertwiners(cent, d, [(entries, entries)])
    if cent is None:
        return PeriodSpace(m, Subspace._from_rows(d * d, (), ()),
                           "endo-quotient")
    pairing = []
    for x in cent:
        row = [ZERO] * (d * d)
        for pos, v in x.items():
            p, q = divmod(pos, d)
            row[q * d + p] = v
        pairing.append(tuple(row))
    return PeriodSpace(m, kernel_subspace(Matrix._wrap(tuple(pairing), d * d)),
                       "endo-quotient")


# ---------------------------------------------------------------------------
# depth filtration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DepthResult:
    space: PeriodSpace
    per_stage_relation_dims: tuple[int, ...]
    certified: bool

    @property
    def per_stage_dims(self) -> tuple[int, ...]:
        amb = self.space.ambient_dim
        return tuple(amb - r for r in self.per_stage_relation_dims)


def _candidate_handles(m: FdModule, power: int, ambient: FdModule,
                       spin_bound: int, endos: Sequence[ModuleMap]
                       ) -> Iterator[SubmoduleHandle]:
    """The hom-closure family, then the spin-box family at powers 1 and 2.

    The hom-closure family takes the image of each column M -> M^power
    and the kernel of each row M^power -> M over {id} + End basis.
    Tuples keep at most two slots away from the identity entry, which is
    enough to reach every relation the corpus and the certificates need
    while keeping the candidate count polynomial in the power.  Each
    handle is built when it is asked for, and a handle may repeat one
    yielded before; the caller drops the repeats.
    """
    alphabet = [ModuleMap.identity(m)] + list(endos)
    letters = range(1, len(alphabet))
    combos = itertools.chain(
        [{}],
        ({j: a} for j in range(power) for a in letters),
        ({j: a, k: b} for j, k in itertools.combinations(range(power), 2)
         for a in letters for b in letters))
    for combo in combos:
        entries = [alphabet[combo.get(j, 0)] for j in range(power)]
        # the column (f_1, ..., f_power): M -> M^power and the row
        # (f_1 ... f_power): M^power -> M
        col = block_map(m, [m], ambient, [m] * power,
                        {(j, 0): f for j, f in enumerate(entries)})
        yield col.image()
        row = block_map(ambient, [m] * power, m, [m],
                        {(0, j): f for j, f in enumerate(entries)})
        yield row.kernel()
    # at power 1 the column and row (e) above already gave the image and
    # kernel of each single endomorphism; add those of e + f, e - f
    if power == 1:
        for e, f in itertools.combinations(endos, 2):
            yield (e + f).image()
            yield (e + f).kernel()
            yield (e - f).image()
            yield (e - f).kernel()
    if power <= 2:
        yield from spin_pool(ambient, spin_bound)


def depth_space(m: FdModule, k: int, spin_bound: int = 1) -> DepthResult:
    """Accumulated relation space over submodules of M^1, ..., M^k.

    Each stage contracts the hom-closure and spin-box candidate families
    and stops as soon as the accumulated relations reach the dimension
    of the pairing kernel P.  Everything contracted is checked to sit
    inside P, so reaching its dimension is reaching P itself, and the
    stages after that repeat the dimension without work.  Each stage's
    relation dimension is recorded; the chain is monotone by
    construction.
    """
    relations = period_space(m).relations
    d = m.dim
    endos = hom_space(m, m)
    acc = Subspace.zero_space(d * d)
    per_stage = []
    for power in range(1, k + 1):
        if acc.dim < relations.dim:
            ambient = module_power(m, power)
            seen = set()
            for handle in _candidate_handles(m, power, ambient, spin_bound,
                                             endos):
                if handle.spaces in seen:
                    continue
                seen.add(handle.spaces)
                rel = relation_from_submodule(m, power, ambient, handle)
                if rel.dim == 0:
                    continue
                acc = acc.add(rel)
                if acc.dim == relations.dim:
                    break
            assert relations.contains(acc), \
                "a contracted relation escaped the pairing kernel"
        per_stage.append(acc.dim)
    space = PeriodSpace(m, acc, "depth")
    return DepthResult(space, tuple(per_stage), acc.dim == relations.dim)


# ---------------------------------------------------------------------------
# realization of single relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Realization:
    """An explicit witness that a coefficient matrix is a relation.

    sigma are vectors of M, omega are functionals, both of length m; the
    witness submodule contains the embedded sigma tuple, its annihilator
    contains the omega tuple, and the contraction of the two tuples
    reproduces the matrix.
    """

    module: FdModule
    power: int
    sigma: tuple[tuple, ...]
    omega: tuple[tuple, ...]
    witness: SubmoduleHandle

    def contraction(self) -> Matrix:
        d = self.module.dim
        c = Matrix.zero(d, d)
        for sg, om in zip(self.sigma, self.omega):
            c = c + _outer(sg, om)
        return c


@dataclass(frozen=True)
class RealizationResult:
    status: str                # 'realized' | 'unknown' | 'budget'
    realization: Realization | None
    reason: str = ""


def realize_relation(m: FdModule, c: Matrix,
                     power_budget: int | None = None,
                     witnesses: dict | None = None) -> RealizationResult:
    """Realize a coefficient relation as a submodule of a power of M.

    Rank-factors C = sum_k outer(sigma_k, omega_k) with m = rank(C) and
    spins the sigma tuple inside M^m; by minimality of the spin this is
    the canonical candidate witness, and if the omega tuple fails to
    annihilate it the matrix is reported unrealizable at this power
    rather than silently widened.

    The witness depends on the sigma tuple alone.  witnesses maps each
    sigma tuple spun so far to its witness and that witness's
    annihilator; a caller realizing many matrices of the same module
    passes one dict to all of those calls, so that each distinct tuple is
    spun once.  Without it the call spins for itself.
    """
    d = m.dim
    if (c.nrows, c.ncols) != (d, d):
        raise ValueError("coefficient matrix has the wrong shape")
    red, pivots = rref(c)
    r = len(pivots)
    if r == 0:
        zero_power = module_power(m, 0)
        real = Realization(m, 0, (), (), SubmoduleHandle.zero(zero_power))
        return RealizationResult("realized", real)
    if power_budget is not None and r > power_budget:
        return RealizationResult(
            "budget", None,
            f"rank {r} exceeds the allowed power budget {power_budget}")
    omega = red.rows[:r]
    # the pivots of an rref basis read off coordinates directly, so
    # sigma_k is C's column at pivot k and row i of C is
    # sum_k C[i][pivot k] * omega_k; that sum is rebuilt over the nonzero
    # terms and compared row by row
    sigma = tuple(tuple(row[p] for row in c.rows) for p in pivots)
    omega_terms = [[(j, b) for j, b in enumerate(w) if b] for w in omega]
    for row in c.rows:
        rebuilt = [ZERO] * d
        for p, terms in zip(pivots, omega_terms):
            a = row[p]
            if a:
                for j, b in terms:
                    rebuilt[j] += a * b
        assert rebuilt == list(row), "rank factorization failed"
    if witnesses is None:
        witnesses = {}
    spun = witnesses.get(sigma)
    if spun is None:
        witness = SubmoduleHandle.spin(module_power(m, r),
                                       [tuple_embed(m, r, sigma)])
        spun = witnesses[sigma] = (witness, witness.flat().annihilator())
    witness, annihilator = spun
    if annihilator.contains_vector(tuple_embed(m, r, omega)):
        real = Realization(m, r, sigma, omega, witness)
        return RealizationResult("realized", real)
    return RealizationResult(
        "unknown", None,
        "the functional tuple does not annihilate the spun witness; the "
        "matrix is not a relation realizable at its own rank")


def verify_realization(c: Matrix, real: Realization) -> bool:
    """Recheck a realization from scratch; used by tests and the CLI."""
    m = real.module
    if real.power == 0:
        return c.is_zero()
    ambient = module_power(m, real.power)
    if real.witness.ambient != ambient:
        return False
    try:
        SubmoduleHandle(ambient, real.witness.spaces)  # revalidate stability
    except NotASubmodule:
        return False
    s_flat = tuple_embed(m, real.power, real.sigma)
    if not real.witness.contains_vector(s_flat):
        return False
    w_flat = tuple_embed(m, real.power, real.omega)
    if not real.witness.flat().annihilator().contains_vector(w_flat):
        return False
    return real.contraction() == c


# ---------------------------------------------------------------------------
# evaluation at comparison points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonPoint:
    """A value field L, an optional coefficient subfield K inside it, and a
    unit of the scalar-extended algebra given by L-coordinates over the
    path basis."""

    value_field: NumberField
    u_coords: tuple[NumberFieldElem, ...]
    coeff_field: NumberField | None = None
    coeff_image: NumberFieldElem | None = None

    def embedding(self) -> FieldEmbedding:
        return FieldEmbedding(self.coeff_field, self.value_field,
                              self.coeff_image)


@dataclass(frozen=True)
class EvalReport:
    module: FdModule
    point: ComparisonPoint
    space: PeriodSpace
    values: tuple                      # value of each period class
    quotient_kernel: tuple             # K-basis of kernel on the quotient
    ambient_kernel: tuple              # K-basis of kernel on coefficients
    relations_evaluate_to_zero: bool
    holds: bool                        # no kernel beyond the relations
    realizations: tuple                # (vector, RealizationResult) pairs

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"


def evaluate_coefficient(m: FdModule, point: ComparisonPoint,
                         c: Matrix) -> NumberFieldElem:
    """tr(rho(u) C) inside the value field."""
    rho_u = _rho_of_unit(m, point)
    total = point.value_field.zero()
    d = m.dim
    for i in range(d):
        for jj in range(d):
            total = total + rho_u.rows[i][jj] * rat(c.rows[jj][i])
    return total


def _rho_of_unit(m: FdModule, point: ComparisonPoint) -> Matrix:
    lf = point.value_field
    d = m.dim
    rows = [[lf.zero() for _ in range(d)] for _ in range(d)]
    for b, coeff in enumerate(point.u_coords):
        if not coeff:
            continue
        mat = m.act_basis(b)
        for i in range(d):
            for jj in range(d):
                if mat.rows[i][jj]:
                    rows[i][jj] = rows[i][jj] + coeff * rat(mat.rows[i][jj])
    return Matrix(rows, ncols=d)


def _check_unit(m: FdModule, point: ComparisonPoint):
    """u must be invertible in the scalar-extended algebra itself."""
    algebra = m.algebra
    lf = point.value_field
    if len(point.u_coords) != algebra.dim:
        raise ValueError("unit coordinates do not match the algebra basis")
    n = algebra.dim
    cols = []
    for jj in range(n):
        basis = [ZERO] * n
        basis[jj] = ONE
        col = [lf.zero() for _ in range(n)]
        for i, ci in enumerate(point.u_coords):
            if not ci:
                continue
            prod = algebra.multiply_basis(i, jj)
            for t, c in enumerate(prod):
                if c:
                    col[t] = col[t] + ci * rat(c)
        cols.append(tuple(col))
    lmul = Matrix.from_columns(cols, nrows=n)
    _, pivots = rref(lmul)
    if len(pivots) != n:
        raise NotAUnit("the evaluation element is not a unit of the "
                       "scalar-extended algebra")


def eval_and_conjecture(m: FdModule, point: ComparisonPoint) -> EvalReport:
    """Evaluate the period classes of M at a comparison point.

    Computes the value of every period class, the K-linear kernel of
    evaluation both on the period quotient and on the full coefficient
    space, checks that the relation subspace evaluates to zero, and (for
    rational kernel vectors) attempts to realize each ambient kernel
    vector as a submodule relation.  The point holds when evaluation is
    injective on the period quotient over K.  NotAField is raised when
    L or K is a reducible Q[x]/(f) and the evaluation meets a zero
    divisor there.
    """
    try:
        return _evaluate(m, point)
    except ZeroDivisor as exc:
        role = ("value field L" if exc.field == point.value_field
                else "coefficient field K")
        raise NotAField(
            f"the {role} = Q[x]/(f) with f = {list(exc.field.coeffs)} "
            f"(constant term first) is not a field: f is reducible and "
            f"the evaluation met a zero divisor") from exc


def _evaluate(m: FdModule, point: ComparisonPoint) -> EvalReport:
    _check_unit(m, point)
    space = period_space(m)
    lf = point.value_field
    emb = point.embedding()
    rho_u = _rho_of_unit(m, point)
    d = m.dim
    # ambient values: tr(rho(u) E_{ij}) is just the (j, i) entry
    ambient_values = []
    for i in range(d):
        for jj in range(d):
            ambient_values.append(rho_u.rows[jj][i])
    # period class k is the class of the unit matrix at free column k,
    # whose value is read off directly
    free = QuotientPresentation(space.relations).free
    values = tuple(ambient_values[j] for j in free)
    quotient_kernel = k_linear_kernel(emb, values)
    ambient_kernel = k_linear_kernel(emb, tuple(ambient_values))
    # relation bases are almost all zeros, nearly every one of them the
    # shared ZERO, which is skipped without a call to Fraction.__bool__
    relations_zero = True
    for v in space.relations.basis_vectors():
        total = lf.zero()
        for idx, x in enumerate(v):
            if x is not ZERO and x:
                total = total + ambient_values[idx] * x
        if total:
            relations_zero = False
    # over K = Q the kernel vectors already are tuples of Fractions
    realizations = []
    witnesses = {}
    for vec in ambient_kernel:
        rational = vec if emb.domain is None else _rational_vector(vec)
        if rational is None:
            realizations.append(
                (vec, RealizationResult(
                    "unknown", None,
                    "kernel vector has non-rational coefficients")))
            continue
        c = Matrix._wrap(tuple(rational[i * d:(i + 1) * d]
                               for i in range(d)), d)
        realizations.append((vec, realize_relation(m, c,
                                                   witnesses=witnesses)))
    return EvalReport(
        module=m, point=point, space=space, values=values,
        quotient_kernel=quotient_kernel, ambient_kernel=ambient_kernel,
        relations_evaluate_to_zero=relations_zero,
        holds=(len(quotient_kernel) == 0),
        realizations=tuple(realizations))


def _rational_vector(vec) -> tuple | None:
    """A vector of K-elements as Fractions, or None if an entry lies
    outside Q."""
    out = []
    for x in vec:
        if any(x.coeffs[1:]):
            return None
        out.append(x.coeffs[0])
    return tuple(out)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    name: str
    applicable: bool
    holds: bool
    dims: dict


def check_power_identity(m: FdModule, n: int) -> IdentityReport:
    """The period space dimension of M^n equals that of M for n >= 1."""
    if n < 1:
        raise ValueError("power must be at least 1")
    base = period_space(m)
    powered = period_space(module_power(m, n))
    return IdentityReport(
        "power", True, base.dim == powered.dim,
        {"base": base.dim, "power": powered.dim, "n": n})


def check_absorb_identity(m: FdModule, witness: ModuleMap) -> IdentityReport:
    """M + N has the same period space dimension as M alone when N embeds
    in or is a quotient of M.

    witness must be a mono N -> M or an epi M -> N.
    """
    if witness.target == m and witness.is_injective():
        other = witness.source
    elif witness.source == m and witness.is_surjective():
        other = witness.target
    else:
        return IdentityReport("absorb", False, False, {})
    from .quivalg import direct_sum
    base = period_space(m)
    summed = period_space(direct_sum([m, other]))
    return IdentityReport(
        "absorb", True, base.dim == summed.dim,
        {"base": base.dim, "sum": summed.dim})


def check_orthogonal_additivity(m0: FdModule, m1: FdModule) -> IdentityReport:
    """dim P(M0 + M1) = dim P(M0) + dim P(M1) for modules with disjoint
    vertex support.

    Disjoint support means disjoint composition factors, which is what
    makes the subquotient-closed subcategories around the two modules
    Hom-orthogonal.  Hom-vanishing between the modules alone is weaker
    and does not grant additivity: a uniserial module and one of its
    middle factors admit no homs either way yet share coefficients.
    """
    support0 = {v for v in m0.algebra.vertices if m0.vdim(v)}
    support1 = {v for v in m1.algebra.vertices if m1.vdim(v)}
    if m0.algebra is not m1.algebra or support0 & support1:
        return IdentityReport("orthogonal-additivity", False, False, {})
    from .quivalg import direct_sum
    p0, p1 = period_space(m0), period_space(m1)
    ps = period_space(direct_sum([m0, m1]))
    return IdentityReport(
        "orthogonal-additivity", True, ps.dim == p0.dim + p1.dim,
        {"left": p0.dim, "right": p1.dim, "sum": ps.dim})


@dataclass(frozen=True)
class PushoutReduction:
    module: FdModule                 # the reduced middle term
    sub_map: ModuleMap               # M0 -> reduced
    quot_map: ModuleMap              # reduced -> M1^(x*l)
    dims: dict
    holds: bool


def pushout_reduction(m: FdModule, m0: FdModule, x: int,
                      left: ModuleMap, m1: FdModule, l: int,
                      right: ModuleMap) -> PushoutReduction:
    """Collapse a two-sided power sequence to a one-sided one.

    Input: a mono left: M0^x -> M and an epi right: M -> M1^l with
    image(left) = kernel(right); M0 and M1 are passed along with their
    multiplicities and the power layout is validated.  Output: a module
    with a mono from M0 itself and an epi onto M1^(x*l), exact in the
    middle, and the period dimension comparison with M.  The middle term
    is M^x modulo the kernel of the slotwise evaluation map on the
    embedded copies of M0^x.
    """
    if left.target != m or right.source != m:
        raise ValueError("maps do not frame the given module")
    inner = module_power(m0, x)
    if left.source != inner:
        raise ValueError("the mono's source is not the declared power of M0")
    if right.target != module_power(m1, l):
        raise ValueError("the epi's target is not the declared power of M1")
    if not left.is_injective():
        raise ValueError("left map must be injective")
    if not right.is_surjective():
        raise ValueError("right map must be surjective")
    if left.image().spaces != right.kernel().spaces:
        raise ValueError("image of the mono must equal the kernel of the epi")
    mx = module_power(m, x)
    big = module_power(inner, x)
    # g: (M0^x)^x -> M0, (u_1, ..., u_x) -> sum_j slot_j(u_j); big is also
    # M0^(x*x), in which slot j of u_j is slot j*x + j
    g = block_map(big, [m0] * (x * x), m0, [m0],
                  {(0, j * x + j): ModuleMap.identity(m0) for j in range(x)})
    kh = g.kernel()
    lifted = block_map(big, [inner] * x, mx, [m] * x,
                       {(j, j): left for j in range(x)})
    k_in_mx = image_submodule(lifted, kh)
    reduced, proj = k_in_mx.quotient_module()
    # mono from M0: embed into slot 1 of the inner power, then slot 1 of M^x
    into_inner = block_map(m0, [m0], inner, [m0] * x,
                           {(0, 0): ModuleMap.identity(m0)})
    into_mx = block_map(m, [m], mx, [m] * x, {(0, 0): ModuleMap.identity(m)})
    mu = proj.compose(into_mx).compose(left).compose(into_inner)
    if not mu.is_injective():
        raise AssertionError("reduced sequence lost injectivity")
    # epi onto M1^(x*l) = (M1^l)^x
    right_power = block_map(mx, [m] * x, module_power(m1, x * l),
                            [right.target] * x,
                            {(j, j): right for j in range(x)})
    pi = factor_through_quotient(right_power, k_in_mx)
    if not pi.is_surjective():
        raise AssertionError("reduced sequence lost surjectivity")
    if not pi.compose(mu).flattened().is_zero():
        raise AssertionError("reduced sequence is not a complex")
    if mu.image().spaces != pi.kernel().spaces:
        raise AssertionError("reduced sequence is not exact in the middle")
    base = period_space(m)
    red_space = period_space(reduced)
    return PushoutReduction(
        reduced, mu, pi,
        {"original": base.dim, "reduced": red_space.dim,
         "x": x, "l": l, "middle_dim": reduced.dim},
        base.dim == red_space.dim)

