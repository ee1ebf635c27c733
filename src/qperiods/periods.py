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
- That kernel is the trace-annihilator of rho(A) in M_d(Q), and the
  endomorphism-side bound's relations are that of the centraliser C of
  End(M).  Both rho(A) and C hold every vertex idempotent, so both split
  into vertex blocks, and both relation spaces are computed block by
  block from them (_block_relations).
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
    KernelBasis,
    Matrix,
    NumberField,
    NumberFieldElem,
    Subspace,
    ZERO,
    ONE,
    ZeroDivisor,
    intertwiners,
    k_linear_kernel,
    kernel_subspace,
    rref,
)
from .quivalg import (
    FdModule,
    ModuleMap,
    NotASubmodule,
    SubmoduleHandle,
    hom_space,
    module_power,
    spin_pool,
    tuple_embed,
)


class NotAUnit(ValueError):
    """The evaluation element is not invertible in the scalar extension."""


class NotAField(ValueError):
    """L or K is a squarefree but reducible Q[x]/(f), and the evaluation
    had to divide by one of its zero divisors."""


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


def _trace_terms(m: FdModule, w: str, v: str, entries) -> list:
    """The functional C -> tr(X C) for the X that is zero outside its
    (w, v) block, given there by (i*d_v + k, X_ik) pairs, as (flat
    position, entry) pairs: tr(X C) = sum X_ik C_ki, so X_ik sits at C's
    flat position (off_v + k)*d + off_w + i."""
    d, dv = m.dim, m.vdim(v)
    base = m.offsets[v] * d + m.offsets[w]
    return [(base + pos % dv * d + pos // dv, x) for pos, x in entries]


def _pairing(m: FdModule, blocks: dict) -> list:
    """The functionals C -> tr(X C) for X over rho(A)'s block bases
    (_path_blocks), as _trace_terms lists.  They span the pairing's rows
    C -> tr(rho(b) C), so C pairs to zero with every path exactly when it
    pairs to zero with each of them."""
    return [_trace_terms(m, w, v, y.items())
            for (w, v), basis in blocks.items() for y in basis]


def period_space(m: FdModule) -> PeriodSpace:
    """The full period space: its relations, the pairing's kernel, are the
    trace-annihilator of rho(A), read block by block (_path_blocks,
    _block_relations)."""
    return PeriodSpace(m, _block_relations(m, _path_blocks(m)),
                       "pairing-kernel")


# ---------------------------------------------------------------------------
# relations realized by submodules of powers
# ---------------------------------------------------------------------------


def _nonzero(vec: Sequence) -> list:
    """A vector's nonzero (coordinate, entry) pairs."""
    return [(i, x) for i, x in enumerate(vec) if x]


def _contraction(sigma, omega, d: int) -> tuple:
    """The d*d row-major entries of sum_k outer(sigma_k, omega_k), each
    sigma_k and omega_k given by its nonzero (coordinate, entry) pairs."""
    vec = [ZERO] * (d * d)
    for sg, om in zip(sigma, omega):
        for r, a in sg:
            row = r * d
            for c, b in om:
                vec[row + c] += a * b
    return tuple(vec)


def relation_from_submodule(m: FdModule,
                            handle: SubmoduleHandle) -> Subspace:
    """All coefficient relations contracted out of one submodule of M^n.

    For a submodule N' of M^n, every pair of a vector tuple sigma inside
    N' and a functional tuple omega annihilating N' contracts to the
    coefficient matrix sum_k outer(sigma_k, omega_k), which pairs to zero
    against the whole algebra.  N' is vertex-graded, so it is spanned by
    its vertex spaces' bases, and the functionals vanishing on it by the
    annihilators of its vertex spaces.  At vertex v slot k of a vector is
    its k-th run of d_v entries, so a sigma at v and an omega at w
    contract into the (v, w) block of C.  The function returns the span
    of these contractions, which is the span over any bases of N' and of
    its annihilator.
    """
    d = m.dim
    sigmas, omegas = [], []
    for v, space in zip(m.algebra.vertices, handle.spaces):
        dv, off = m.vdim(v), m.offsets[v]

        def slot_terms(vec):
            return [[(off + g, x) for g, x in enumerate(vec[k:k + dv]) if x]
                    for k in range(0, len(vec), dv)]

        sigmas += map(slot_terms, space.basis_vectors())
        omegas += map(slot_terms, space.annihilator().basis_vectors())
    return Subspace._from_rows(d * d, tuple(
        _contraction(sigma, omega, d) for sigma in sigmas for omega in omegas))


def _is_scalar(entries: list, d: int) -> bool:
    """Whether the d x d matrix with these nonzero entries, as
    Matrix.nonzero_entries lists them, is c times the identity."""
    if not entries:
        return True
    c = entries[0][2]
    return len(entries) == d and all(i == j and x == c
                                     for i, j, x in entries)


def _path_maps(m: FdModule) -> dict:
    """The nonzero maps of the basis paths, by block: each (w, v) with
    d_w*d_v > 0 maps to the (k, vec) of the basis paths k from v to w
    whose map is nonzero, k the path's index in the algebra basis and
    vec its map's row-major entries on the d_w x d_v block."""
    algebra = m.algebra
    present = {v for v, n in zip(algebra.vertices, m.dims) if n}
    maps: dict[tuple, list] = {}
    for k, (src, arrows) in enumerate(algebra.basis):
        target = algebra.path_target((src, arrows))
        if src in present and target in present:
            vec = m.path_map(src, arrows).vec()
            if any(vec):
                maps.setdefault((target, src), []).append((k, vec))
    return maps


def _path_blocks(m: FdModule, maps: dict | None = None) -> dict:
    """rho(A) block by block: each (w, v) with d_w*d_v > 0 maps to a basis
    of rho(A)_wv, the span of the maps of the basis paths from v to w, as
    sparse {i*d_v + k: entry} dicts on the d_w x d_v block.  The path
    maps are _path_maps(m), formed here unless given.  A lone nonzero
    path map needs no elimination; a block with no path, or only zero
    path maps, has an empty basis.  The sizes sum to the pairing's rank,
    since the trace rows of paths with different ends have disjoint
    supports."""
    if maps is None:
        maps = _path_maps(m)
    present = [v for v, n in zip(m.algebra.vertices, m.dims) if n]
    blocks = {(w, v): [] for w in present for v in present}
    for (w, v), paths in maps.items():
        vecs = [vec for _, vec in paths]
        if len(vecs) > 1:
            red, pivots = rref(Matrix._wrap(tuple(vecs),
                                            m.vdim(w) * m.vdim(v)))
            vecs = red.rows[:len(pivots)]
        blocks[w, v] = [dict(_nonzero(vec)) for vec in vecs]
    return blocks


def _block_relations(m: FdModule, blocks: dict) -> Subspace:
    """The trace-annihilator {Y : tr(X Y) = 0 for every X in S} of a
    block-graded subspace S of M_d(Q), given as its blocks: each (w, v)
    with d_w*d_v > 0 maps to a basis of S_wv = e_w S e_v as sparse
    {i*d_v + k: entry} dicts on the d_w x d_v block.

    S is the sum of its blocks, and tr(X Y) pairs X's (w, v) block only
    with Y's (v, w) block; so Y's (v, w) block of relations is the kernel
    of the pairing of S_wv's basis over local coordinates
    (k, i) -> X[i, k].  A full S_wv gives no relations and an empty one
    all units.  The blocks' canonical bases have disjoint supports, so
    their union sorted by pivot is the canonical basis of the relations.
    """
    d = m.dim
    dims = dict(zip(m.algebra.vertices, m.dims))
    placed = []             # (pivot, relation row)
    for (w, v), basis in blocks.items():
        dw, dv = dims[w], dims[v]
        n = dw * dv
        if len(basis) == n:
            continue
        base = m.offsets[v] * d + m.offsets[w]
        at = [base + k * d + i for k in range(dv) for i in range(dw)]
        if not basis:
            for p in at:
                row = [ZERO] * (d * d)
                row[p] = ONE
                placed.append((p, tuple(row)))
            continue
        pairing = []
        for y in basis:
            row = [ZERO] * n
            for pos, x in y.items():
                i, k = divmod(pos, dv)
                row[k * dw + i] = x
            pairing.append(tuple(row))
        kernel = kernel_subspace(Matrix._wrap(tuple(pairing), n))
        # an RREF row is zero at the other pivots, so only the len(basis)
        # columns that are no pivot can hold its other nonzeros
        bound = sorted(set(range(n)).difference(kernel.pivots))
        for p, vec in zip(kernel.pivots, kernel.basis.rows):
            row = [ZERO] * (d * d)
            row[at[p]] = vec[p]
            for j in bound:
                if vec[j]:
                    row[at[j]] = vec[j]
            placed.append((at[p], tuple(row)))
    placed.sort(key=lambda item: item[0])
    return Subspace._from_rows(d * d, tuple(row for _, row in placed),
                               tuple(p for p, _ in placed))


def _centraliser_blocks(m: FdModule) -> dict:
    """The centraliser C of End(M) in M_d(Q), block by block: each
    (w, v) with d_w*d_v > 0 maps to a basis of C_wv = e_w C e_v as sparse
    {i*d_v + k: entry} dicts on the d_w x d_v block.

    C is the bicommutant, an algebra holding rho(A) and so every vertex
    idempotent rho(e_v); hence C is the sum of its blocks C_wv.  Every
    f in End(M) acts vertex by vertex, so C_wv is {X : M_v -> M_w |
    X f_v = f_w X for every f}.  Every block starts from its d_w*d_v
    units.  Scalar basis endomorphisms commute with everything and are
    skipped.  Each other f narrows every open block (the intertwiners of
    the pair (f_w, f_v); where both are scalar, they keep the block
    whole if the scalars agree and empty it if not).  C_wv holds
    rho(A)_wv, so once a block is down to the dimension of rho(A)_wv
    (_path_blocks, read when the first such f comes) no later f can
    narrow it, and it is closed.
    """
    vertices, dims = m.algebra.vertices, m.dims
    present = [t for t, n in enumerate(dims) if n]
    narrowing = [(w, v) for w in present for v in present]
    # blocks of one size start from one list of units, which nothing
    # changes in place: intertwiners returns a new list
    units = {n: [{pos: ONE} for pos in range(n)]
             for n in {dims[w] * dims[v] for w, v in narrowing}}
    blocks = {(vertices[w], vertices[v]): units[dims[w] * dims[v]]
              for w, v in narrowing}
    floors = None
    for f in hom_space(m, m):
        entries = [b.nonzero_entries() for b in f.blocks]
        cs = {(entries[t][0][2] if entries[t] else ZERO)
              if _is_scalar(entries[t], dims[t]) else None for t in present}
        if len(cs) == 1 and None not in cs:
            continue
        if floors is None:
            floors = _path_blocks(m)
        still = []
        for w, v in narrowing:
            key = vertices[w], vertices[v]
            floor = len(floors[key])
            if len(blocks[key]) > floor:
                blocks[key] = intertwiners(blocks[key], dims[v],
                                           [(entries[w], entries[v])])
            if len(blocks[key]) > floor:
                still.append((w, v))
        narrowing = still
        if not narrowing:
            break
    return blocks


def endo_quotient(m: FdModule) -> PeriodSpace:
    """The endomorphism-side upper bound for the period space.

    Relations are spanned by the commutators [E_ij, E] of the elementary
    coefficient matrices with each basis endomorphism E.  Since
    tr(X [A, E]) = tr(A [E, X]), a coefficient matrix X pairs to zero
    with all of them exactly when X commutes with every E: the span is
    the trace-annihilator of the centraliser C of End(M) in M_d(Q), and
    the quotient is dual to the bicommutant of M.  It always has the
    pairing kernel's quotient as a quotient, since C holds rho(A);
    equality is what principality certificates are about.  So C is
    computed block by block instead of the k*d^2 commutators, and the
    quotient's dimension is dim C.
    """
    return PeriodSpace(m, _block_relations(m, _centraliser_blocks(m)),
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

    The hom-closure family takes the image of each column
    (f_1, ..., f_power): M -> M^power and the kernel of each row
    (f_1 ... f_power): M^power -> M over {id} + End basis, vertex by
    vertex: at v the column's image is spanned by the rows of the blocks'
    transposes set side by side, and the row's kernel is the kernel of
    the blocks set side by side.  Both are submodules by construction.
    At power 1 the alphabet also holds e + f and e - f for each pair of
    basis endomorphisms, so their images and kernels come last, in the
    pairs' order.  Tuples keep at most two slots away from the identity
    entry, which is enough to reach every relation the corpus and the
    certificates need while keeping the candidate count polynomial in
    the power.  Each handle is built when it is asked for, each letter's
    blocks when a word first uses it, and a handle may repeat one yielded
    before; the caller drops the repeats.
    """
    alphabet = [ModuleMap.identity(m)] + list(endos)
    sums = list(itertools.combinations(endos, 2)) if power == 1 else []
    widths = [power * d for d in m.dims]
    letters = range(1, len(alphabet) + 2 * len(sums))
    combos = itertools.chain(
        [{}],
        ({j: a} for j in range(power) for a in letters),
        ({j: a, k: b} for j, k in itertools.combinations(range(power), 2)
         for a in letters for b in letters))
    # letter a's (rows, transposed rows) per vertex; past the basis,
    # letters 2i and 2i + 1 of the sums are e + f and e - f for the i-th
    # pair (e, f)
    formed = {}

    def letter(a):
        hit = formed.get(a)
        if hit is None:
            if a < len(alphabet):
                f = alphabet[a]
            else:
                i, minus = divmod(a - len(alphabet), 2)
                e, g = sums[i]
                f = e - g if minus else e + g
            hit = formed[a] = ([b.rows for b in f.blocks],
                               [b.transpose().rows for b in f.blocks])
        return hit

    def side_by_side(word, v, side):
        blocks = [letter(a)[side][v] for a in word]
        return tuple(tuple(itertools.chain.from_iterable(
            b[r] for b in blocks)) for r in range(m.dims[v]))

    for combo in combos:
        word = [combo.get(j, 0) for j in range(power)]
        yield SubmoduleHandle(ambient, [
            Subspace._from_rows(n, side_by_side(word, v, 1))
            for v, n in enumerate(widths)], check=False)
        yield SubmoduleHandle(ambient, [
            kernel_subspace(Matrix._wrap(side_by_side(word, v, 0), n))
            for v, n in enumerate(widths)], check=False)
    if power <= 2:
        yield from spin_pool(ambient, spin_bound)


def depth_space(m: FdModule, k: int, spin_bound: int = 1) -> DepthResult:
    """Accumulated relation space over submodules of M^1, ..., M^k.

    Each stage contracts the hom-closure and spin-box candidate families
    and stops as soon as the accumulated relations reach the dimension r
    of the pairing kernel P, which is d^2 minus the rank of the pairing,
    the dimension of rho(A) summed over its blocks (_path_blocks, built
    once for both).  Every accumulated relation is checked to pair to
    zero with every block basis element (_pairing), so it lies in P,
    reaching r is reaching P itself, and the stages after that repeat
    the dimension without work.  Each stage's relation dimension is
    recorded; the chain is monotone by construction.
    """
    d = m.dim
    blocks = _path_blocks(m)
    r = d * d - sum(map(len, blocks.values()))
    paths = _pairing(m, blocks)
    endos = hom_space(m, m)
    acc = Subspace.zero_space(d * d)
    per_stage = []
    for power in range(1, k + 1):
        if acc.dim < r:
            ambient = module_power(m, power)
            seen = set()
            for handle in _candidate_handles(m, power, ambient, spin_bound,
                                             endos):
                if handle.spaces in seen:
                    continue
                seen.add(handle.spaces)
                rel = relation_from_submodule(m, handle)
                if rel.dim == 0:
                    continue
                acc = acc.add(rel)
                if acc.dim == r:
                    break
            if any(sum(vec[p] * x for p, x in terms)
                   for vec in acc.basis_vectors() for terms in paths):
                raise AssertionError(
                    "a contracted relation escaped the pairing kernel")
        per_stage.append(acc.dim)
    space = PeriodSpace(m, acc, "depth")
    return DepthResult(space, tuple(per_stage), acc.dim == r)


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
        vec = _contraction(map(_nonzero, self.sigma),
                           map(_nonzero, self.omega), d)
        return Matrix._wrap(tuple(vec[i * d:(i + 1) * d] for i in range(d)),
                            d)


@dataclass(frozen=True)
class RealizationResult:
    status: str                # 'realized' | 'unknown' | 'budget'
    realization: Realization | None
    reason: str = ""


def realize_relation(m: FdModule, c: Matrix,
                     power_budget: int | None = None) -> RealizationResult:
    """Realize a coefficient relation as a submodule of a power of M.

    Rank-factors C = sum_k outer(sigma_k, omega_k) with m = rank(C) and
    spins the sigma tuple inside M^m, slot by slot through M's own arrow
    blocks, since the arrows of M^m act slot by slot; by minimality of
    the spin this is the canonical candidate witness, and if the omega
    tuple fails to annihilate it the matrix is reported unrealizable at
    this power rather than silently widened.  The zero matrix has empty
    tuples, which spin the zero submodule of M^0.  The omega tuple
    annihilates the witness when its slice at each vertex vanishes on
    that vertex's basis, so no annihilator is eliminated.
    """
    d = m.dim
    if (c.nrows, c.ncols) != (d, d):
        raise ValueError("coefficient matrix has the wrong shape")
    # zero rows add nothing to the row space, so the reduced basis, and
    # with it omega, sigma and the pivots, is read off the others; count
    # tests each entry against ZERO by identity before equality, so the
    # shared ZERO costs no Fraction call
    red, pivots = rref(Matrix._wrap(tuple(
        row for row in c.rows if row.count(ZERO) != d), d))
    r = len(pivots)
    if power_budget is not None and r > power_budget:
        return RealizationResult(
            "budget", None,
            f"rank {r} exceeds the allowed power budget {power_budget}")
    omega = red.rows[:r]
    # the pivots of an rref basis read off coordinates directly, so
    # sigma_k is C's column at pivot k and row i of C is
    # sum_k C[i][pivot k] * omega_k
    sigma = tuple(tuple(row[p] for row in c.rows) for p in pivots)
    if _contraction(map(_nonzero, sigma), map(_nonzero, omega),
                    d) != c.vec():
        raise AssertionError("rank factorization failed")
    witness = SubmoduleHandle.spin(module_power(m, r),
                                   [tuple_embed(m, r, sigma)], m)
    if witness.annihilated_by(tuple_embed(m, r, omega)):
        real = Realization(m, r, sigma, omega, witness)
        return RealizationResult("realized", real)
    return RealizationResult(
        "unknown", None,
        "the functional tuple does not annihilate the spun witness; the "
        "matrix is not a relation realizable at its own rank")


def verify_realization(c: Matrix, real: Realization) -> bool:
    """Recheck a realization from scratch; the benchmark's answer checks
    and the tests use it."""
    m = real.module
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
    if not real.witness.annihilated_by(w_flat):
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
    """statuses[k] is "realized" when ambient kernel vector k is rational
    and realize_relation would realize it, and "unknown" otherwise.  For
    C = sum_k sigma_k omega_k^T the spin of sigma is {a.sigma : a in A},
    and omega annihilates it iff sum_k omega_k(rho(a) sigma_k) =
    tr(rho(a) C) is 0 for every path a, that is iff C lies in the pairing
    kernel (Huber and Mueller-Stach, Periods and Nori Motives, 2017).  The
    status is read off rho(A)'s block bases (_pairing), whose functionals
    span the paths', and realize_relation is its oracle.
    """

    module: FdModule
    point: ComparisonPoint
    space: PeriodSpace
    values: tuple                      # value of each period class
    quotient_kernel: KernelBasis       # K-basis of kernel on the quotient
    ambient_kernel: KernelBasis        # K-basis of kernel on coefficients
    relations_evaluate_to_zero: bool
    holds: bool                        # no kernel beyond the relations
    statuses: tuple[str, ...]          # one per ambient kernel vector

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"


def _check_unit(m: FdModule, point: ComparisonPoint):
    """u must be invertible in the scalar-extended algebra itself.

    The arrows span a nilpotent ideal, so u is a unit of A (x) L exactly
    when each vertex-idempotent coefficient is a unit of L.  A zero
    coefficient is refused first; inverting the others lets a zero
    divisor of a reducible L end in NotAField.
    """
    algebra = m.algebra
    if len(point.u_coords) != algebra.dim:
        raise ValueError("unit coordinates do not match the algebra basis")
    coeffs = [point.u_coords[algebra.basis_index[(v, ())]]
              for v in algebra.vertices]
    if not all(coeffs):
        raise NotAUnit("the evaluation element is not a unit of the "
                       "scalar-extended algebra")
    for c in coeffs:
        c.inverse()


def eval_and_conjecture(m: FdModule, point: ComparisonPoint) -> EvalReport:
    """Evaluate the period classes of M at a comparison point.

    Computes the value of every period class, the K-linear kernel of
    evaluation both on the period quotient and on the full coefficient
    space, checks that the relation subspace evaluates to zero, and
    labels each ambient kernel vector realized iff it is rational and
    pairs to zero with rho(A)'s block bases, which its relations are read
    from too (EvalReport gives the argument), spinning no witness;
    realize_relation, which spins one, is the oracle.  The point holds
    when evaluation is injective on the period quotient over K.
    NotAField is raised when L or K is a reducible Q[x]/(f) and the
    evaluation meets a zero divisor there.
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
    maps = _path_maps(m)
    blocks = _path_blocks(m, maps)
    space = PeriodSpace(m, _block_relations(m, blocks), "pairing-kernel")
    lf = point.value_field
    emb = point.embedding()
    d = m.dim
    # the value of the coefficient unit E_ij is tr(rho(u) E_ij), the
    # u-combination of the pairings tr(rho(b) E_ij) of the basis paths,
    # each read off its path map in its block
    ambient_values = [lf.zero()] * (d * d)
    for key, paths in maps.items():
        for k, vec in paths:
            coeff = point.u_coords[k]
            if coeff:
                for p, x in _trace_terms(m, *key, _nonzero(vec)):
                    ambient_values[p] = ambient_values[p] + coeff * x
    # period class k is the class of the unit matrix at the k-th column
    # that is not a pivot of the relations, whose value is read off
    # directly
    relations = space.relations
    pivots = set(relations.pivots)
    free = [j for j in range(d * d) if j not in pivots]
    values = tuple(ambient_values[j] for j in free)
    quotient_kernel = k_linear_kernel(emb, values)
    ambient_kernel = k_linear_kernel(emb, tuple(ambient_values))
    # a relation row is nonzero only at its pivot and at free columns, so
    # its value only meets those of nonzero value, where its entries are
    # nearly all the shared ZERO, skipped by identity
    valued = [(j, x) for j, x in zip(free, values) if x]
    relations_zero = not any(
        sum((value * v[j] for j, value in valued
             if v[j] is not ZERO and v[j]), ambient_values[p] * v[p])
        for p, v in zip(relations.pivots, relations.basis_vectors()))
    # a rational kernel vector C is realized iff it pairs to zero with
    # every block basis element of rho(A); the pairing's terms are
    # indexed by position once, and each vector meets them only at its
    # few nonzeros
    by_position: dict[int, list] = {}
    for i, terms in enumerate(_pairing(m, blocks)):
        for p, x in terms:
            by_position.setdefault(p, []).append((i, x))
    over_q = emb.domain is None
    statuses = []
    for vec, own in zip(ambient_kernel.vectors, ambient_kernel.columns):
        entries = _rational_entries(vec, (own, *ambient_kernel.shared),
                                    over_q)
        pairs = {}
        for p, c in entries or ():
            for i, x in by_position.get(p, ()):
                pairs[i] = pairs.get(i, ZERO) + c * x
        statuses.append("unknown" if entries is None or any(pairs.values())
                        else "realized")
    return EvalReport(
        module=m, point=point, space=space, values=values,
        quotient_kernel=quotient_kernel, ambient_kernel=ambient_kernel,
        relations_evaluate_to_zero=relations_zero,
        holds=(len(quotient_kernel.vectors) == 0),
        statuses=tuple(statuses))


def _rational_entries(vec, positions, over_q: bool) -> list | None:
    """vec's nonzero entries at positions as (position, Fraction) pairs,
    or None if one of them lies outside Q; over_q says the entries
    already are Fractions, otherwise they are K-elements."""
    out = []
    for p in positions:
        x = vec[p]
        if not over_q:
            if any(x.coeffs[1:]):
                return None
            x = x.coeffs[0]
        if x:
            out.append((p, x))
    return out
