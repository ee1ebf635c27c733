"""Period spaces: sympy pairing oracle, frozen corpus values, identities.

The oracle recomputes every basis path action with sympy from the raw
arrow matrices and takes the nullspace of the trace pairing; the
package's own kernel code never enters that route.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiods import exactlin, periods, zoo
from qperiods.exactlin import (
    Matrix,
    NumberField,
    Subspace,
    ZeroDivisor,
    rank,
    rref,
)
from qperiods.periods import (
    ComparisonPoint,
    _is_scalar,
    NotAField,
    Realization,
    depth_space,
    endo_quotient,
    eval_and_conjecture,
    period_space,
    realize_relation,
    verify_realization,
)
from qperiods.quivalg import (
    FdModule,
    SubmoduleHandle,
    build_algebra,
    direct_sum,
    end_algebra,
    hom_space,
    module_power,
    spin_pool,
    tuple_embed,
)
from qperiods.yoga import WeightPartition, slice_by_weight
import references
from references import (
    check_absorb_identity,
    check_orthogonal_additivity,
    check_power_identity,
    flattened,
    general,
    inclusion,
    is_injective,
    is_surjective,
    pushout_reduction,
    quotient_module,
)

from strategies import (
    ORACLE_INPUTS,
    linear_projective,
    rebase,
    rebased_modules,
    relation_free_modules,
)


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(m.nrows, m.ncols,
                        lambda i, j: sympy.Rational(m.rows[i][j]))


def sympy_relation_oracle(m) -> Subspace:
    """Nullspace of the trace pairing, built independently with sympy."""
    d = m.dim
    rows = []
    for src, arrows in m.algebra.basis:
        cur = sympy.eye(m.vdim(src))
        vertex = src
        for name in arrows:
            cur = to_sympy(m.maps[name]) * cur
            vertex = m.algebra.arrow_by_name[name].target
        rho = sympy.zeros(d, d)
        r_off = m.offsets[vertex]
        c_off = m.offsets[src]
        for r in range(cur.rows):
            for c in range(cur.cols):
                rho[r_off + r, c_off + c] = cur[r, c]
        # tr(rho . E_ij) is the (j, i) entry; columns follow vec order
        rows.append([rho[j, i] for i in range(d) for j in range(d)])
    null = sympy.Matrix(rows).nullspace()
    return Subspace(d * d, [tuple(Fraction(x) for x in v) for v in null])


def test_period_space_matches_sympy_oracle():
    for key in ("a2/p1", "a2/s1+s2", "a3/proj", "a3/rad", "a3yx/mix",
                "square/proj1", "kronecker/reg0", "loop2/reg", "star/all"):
        m = zoo.get_module(key)
        assert period_space(m).relations == sympy_relation_oracle(m), key


FROZEN_DIMS = {
    # key: (period dim, endo-side dim)
    "a2/p1": (3, 4),
    "a2/s1+s2": (2, 2),
    "a2/p1+s2": (3, 3),
    "a3/proj": (6, 9),
    "a3/tower": (6, 6),
    "square/proj1": (9, 16),
    "kronecker/proj1": (4, 9),
    "loop2/reg": (2, 2),
    "star/all": (7, 16),
}


def _written_out(d, terms) -> tuple:
    """A functional's (flat position, entry) pairs as a dense d^2 row."""
    row = [Fraction(0)] * (d * d)
    for p, x in terms:
        row[p] = x
    return tuple(row)


def assert_placed_blocks_match_the_dense_actions(m, label):
    """The pairing and the centraliser read off placed blocks equal the
    ones read off dense d x d path actions and flattened endomorphisms:
    each basis path's functional placed from its block is its row of the
    dense pairing, and the functionals of rho(A)'s block bases, which
    depth and eval test against, span the same space as those rows."""
    d, algebra = m.dim, m.algebra
    oracle = references.pairing_matrix(m)
    for (src, arrows), row in zip(algebra.basis, oracle.rows):
        terms = periods._trace_terms(
            m, algebra.path_target((src, arrows)), src,
            periods._nonzero(m.path_map(src, arrows).vec()))
        assert _written_out(d, terms) == row, (label, src, arrows)
    blocks = periods._path_blocks(m)
    assert (Subspace(d * d, [_written_out(d, terms) for terms
                             in periods._pairing(m, blocks)])
            == Subspace(d * d, oracle.rows)), label
    assert references.placed_centraliser(m) == references.centraliser(m), label


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_placed_blocks_equal_the_dense_actions(key, m):
    assert_placed_blocks_match_the_dense_actions(m, key)


@settings(max_examples=25, deadline=None)
@given(rebased_modules())
def test_placed_blocks_equal_the_dense_actions_on_rebased_modules(m):
    assert_placed_blocks_match_the_dense_actions(m, repr(m))


@settings(max_examples=25, deadline=None)
@given(rebased_modules(max_power=2))
def test_centraliser_equals_the_d_squared_oracle_on_rebased_powers(m):
    # the blocks, their rho(A) floors and the vertex-scalar shortcut
    # against one intertwiner system over all d^2 units
    assert references.placed_centraliser(m) == references.centraliser(m), \
        repr(m)
    assert (sum(map(len, periods._path_blocks(m).values()))
            == rank(references.pairing_matrix(m))), repr(m)


def assert_period_relations_equal_the_d_squared_kernel(m, label):
    """period_space's relations, read block by block off rho(A), against
    the kernel of the whole pairing in one d^2-wide elimination: the
    same canonical rows with the same pivots, and rho(A)'s block bases
    as large as the pairing's rank."""
    ours, oracle = period_space(m).relations, references.pairing_kernel(m)
    assert ours.basis.rows == oracle.basis.rows, label
    assert ours.pivots == oracle.pivots, label
    assert (sum(map(len, periods._path_blocks(m).values()))
            == m.dim ** 2 - oracle.dim), label


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_period_relations_equal_the_d_squared_kernel(key, m):
    assert_period_relations_equal_the_d_squared_kernel(m, key)


@settings(max_examples=25, deadline=None)
@given(rebased_modules(max_power=2))
def test_period_relations_equal_the_d_squared_kernel_on_rebased_powers(m):
    assert_period_relations_equal_the_d_squared_kernel(m, repr(m))


def test_frozen_period_and_endo_dims():
    for key, (p, e) in FROZEN_DIMS.items():
        m = zoo.get_module(key)
        assert period_space(m).dim == p, key
        assert endo_quotient(m).dim == e, key


def test_endo_quotient_bounds_period_space():
    for entry in zoo.corpus():
        ps = period_space(entry.module)
        es = endo_quotient(entry.module)
        assert es.dim >= ps.dim, entry.key
        # commutator relations always pair to zero
        assert ps.relations.contains(es.relations), entry.key


def elementary_commutator_relations(m) -> Subspace:
    """The span of [E_ij, E] built as dense products of d x d matrices."""
    d = m.dim
    _, basis_maps = end_algebra(m)
    vecs = []
    for f in basis_maps:
        e = flattened(f)
        for i in range(d):
            for j in range(d):
                unit = Matrix.unvec([1 if t == i * d + j else 0
                                     for t in range(d * d)], d, d)
                comm = unit * e - e * unit
                if not comm.is_zero():
                    vecs.append(comm.vec())
    return Subspace(d * d, vecs)


def written_commutator_relations(m) -> Subspace:
    """The same span, each [E_ij, E] written without a product.

    Row i of E_ij E is E's row j and column j of E E_ij is E's column i,
    so each commutator is two slices of E: the construction endo_quotient
    used before it computed the centraliser, cheap enough at d = 6..10,
    where the dense products take seconds.
    """
    d = m.dim
    vecs = []
    for f in hom_space(m, m):
        e = flattened(f).rows
        for i in range(d):
            for j in range(d):
                vec = [0] * (d * d)
                vec[i * d:(i + 1) * d] = e[j]
                for r in range(d):
                    vec[r * d + j] -= e[r][i]
                vecs.append(vec)
    return Subspace(d * d, vecs)


def sympy_centraliser(mats, d: int) -> list:
    """A basis of {X : XG = GX for every G in mats}, by sympy."""
    rows = []
    for g in mats:
        for r in range(d):
            for c in range(d):
                # (XG - GX)[r, c] as a functional on X, vectorized row-major
                row = [0] * (d * d)
                for q in range(d):
                    row[r * d + q] += g[q, c]
                for p in range(d):
                    row[p * d + c] -= g[r, p]
                rows.append(row)
    if not rows:
        null = [sympy.eye(d * d)[:, t] for t in range(d * d)]
    else:
        null = sympy.Matrix(rows).nullspace()
    return [sympy.Matrix(d, d, list(v)) for v in null]


def bicommutant_relations(m) -> Subspace:
    """The trace-annihilator of the centraliser of End(M), from scratch.

    End(M) is the centraliser of the vertex idempotents and arrow
    matrices acting on M; its own centraliser is the bicommutant, and a
    relation C is a coefficient matrix with tr(X C) = 0 for every X in
    the bicommutant.
    """
    d = m.dim
    gens = []
    for v in m.algebra.vertices:
        idem = sympy.zeros(d, d)
        for i in m.vertex_range(v):
            idem[i, i] = 1
        gens.append(idem)
    for a in m.algebra.arrows:
        rho = sympy.zeros(d, d)
        src, tgt = m.offsets[a.source], m.offsets[a.target]
        block = m.maps[a.name]
        for r in range(block.nrows):
            for c in range(block.ncols):
                rho[tgt + r, src + c] = sympy.Rational(block.rows[r][c])
        gens.append(rho)
    bicommutant = sympy_centraliser(sympy_centraliser(gens, d), d)
    # tr(X C) = sum_{p, q} X[p, q] C[q, p]; C's entry (q, p) sits at q*d + p
    pairing = [[x[p, q] for q in range(d) for p in range(d)]
               for x in bicommutant]
    if not pairing:
        return Subspace.full_space(d * d)
    null = sympy.Matrix(pairing).nullspace()
    return Subspace(d * d, [tuple(Fraction(x) for x in v) for v in null])


def assert_endo_matches_oracles(m, key,
                                stack=elementary_commutator_relations):
    relations = endo_quotient(m).relations
    assert relations == stack(m), key
    assert relations == bicommutant_relations(m), key


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_endo_relations_equal_both_oracles(key, m):
    assert_endo_matches_oracles(m, key)
    assert written_commutator_relations(m) == \
        elementary_commutator_relations(m), key


def larger_endo_inputs() -> list:
    p1 = zoo.get_module("a2/p1")
    # determinants -1 and 2
    rebasings = [Matrix([[1, 2, 0], [0, 1, -1], [1, 0, 1]]),
                 Matrix([[2, 1, 1], [1, 1, 0], [0, 1, 1]])]
    return [
        ("a2/p1^4", module_power(p1, 4)),
        ("a2/p1^3 rebased", rebase(module_power(p1, 3), rebasings)),
        ("a3/tower^2", module_power(zoo.get_module("a3/tower"), 2)),
        ("a3yx/mix^2", module_power(zoo.get_module("a3yx/mix"), 2)),
    ]


LARGER_ENDO_INPUTS = larger_endo_inputs()


@pytest.mark.parametrize("key,m", LARGER_ENDO_INPUTS,
                         ids=[key for key, _ in LARGER_ENDO_INPUTS])
def test_endo_relations_equal_both_oracles_at_d_6_to_10(key, m):
    # the dense products of elementary_commutator_relations take 1-21 s
    # here, so the stack is written from slices of E
    assert_endo_matches_oracles(m, key, stack=written_commutator_relations)


def test_endo_relations_of_the_zero_module_are_the_zero_space():
    zero = module_power(zoo.get_module("a2/p1"), 0)
    assert zero.dim == 0
    assert endo_quotient(zero).relations == Subspace.zero_space(0)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_endo_relations_are_zero_when_end_is_the_scalars(n):
    m = linear_projective(n)
    assert [flattened(f) for f in hom_space(m, m)] == \
        [Matrix.identity(n)]
    assert endo_quotient(m).relations == Subspace.zero_space(n * n)


@settings(max_examples=25, deadline=None)
@given(rebased_modules())
def test_endo_relations_equal_both_oracles_on_rebased_modules(m):
    assert_endo_matches_oracles(m, repr(m))


def test_depth_space_certifies_and_stabilizes():
    m = zoo.get_module("loop2/reg")
    res = depth_space(m, 3)
    assert res.certified
    assert res.space.relations == period_space(m).relations
    assert res.per_stage_dims == (3, 2, 2)


# the star quiver with its arrows reversed, from c to u1, u2 and u3: every
# block of rho(A) on this module is at most one-dimensional, so stage 1
# of depth is all of P.  The submodule spun by e_c1 + 2 e_c2 contracts a
# relation that the default spin box, which tries only e_i +- e_j, misses;
# it lies in a block whose smaller side is 1, which rule R1 takes whole
REVERSED_STAR = FdModule(
    build_algebra(["u1", "u2", "u3", "c"], [("a1", "c", "u1"),
                                            ("a2", "c", "u2"),
                                            ("a3", "c", "u3")]),
    {"u1": 1, "u2": 2, "u3": 1, "c": 3},
    {"a1": [[2, -1, 2]], "a2": [[-1, 0, 0], [-1, 0, -2]],
     "a3": [[1, 1, 1]]})


def test_depth_stage_one_is_the_period_space_on_the_reversed_star():
    m = REVERSED_STAR
    assert period_space(m).dim == 7
    assert depth_space(m, 7).per_stage_dims[0] == 7


def assert_rule_stages_hold_the_candidate_stages(m, label):
    """Stage k of depth_space holds the candidate-only stage
    (references.candidate_depth_stages), lies in P, and equals P's block
    (v, w) wherever min(d_v, d_w) <= k; from the first k at which no
    nonzero block of P has a larger smaller side, it is P, and so is the
    candidate-only stage.  Both chains are monotone and inside P, so the
    later stages repeat P and are not asked.  P and its blocks are read
    off the dense pairing's kernel."""
    d = m.dim
    full = references.pairing_kernel(m)
    blocks = []             # (smaller side, block units, P's block)
    for v in m.algebra.vertices:
        for w in m.algebra.vertices:
            units = Subspace(d * d, [
                [1 if p == (m.offsets[v] + i) * d + m.offsets[w] + j else 0
                 for p in range(d * d)]
                for i in range(m.vdim(v)) for j in range(m.vdim(w))])
            if units.dim:
                blocks.append((min(m.vdim(v), m.vdim(w)), units,
                               full.intersect(units)))
    closed_from = max([side for side, _, p_block in blocks if p_block.dim],
                      default=1)
    oracle = references.candidate_depth_stages(m, closed_from)
    for k in range(1, closed_from + 1):
        stage = depth_space(m, k).space.relations
        assert full.contains(stage), (label, k)
        assert stage.contains(oracle[k - 1]), (label, k)
        for side, units, p_block in blocks:
            if side <= k:
                assert stage.intersect(units) == p_block, (label, k)
    assert stage == oracle[-1] == full, label


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_depth_stages_hold_the_candidate_stages(key, m):
    assert_rule_stages_hold_the_candidate_stages(m, key)


@settings(max_examples=20, deadline=None)
@given(rebased_modules())
def test_depth_stages_hold_the_candidate_stages_on_rebased_modules(m):
    assert_rule_stages_hold_the_candidate_stages(m, repr(m))


@settings(max_examples=40, deadline=None)
@given(relation_free_modules())
def test_depth_stages_hold_the_candidate_stages_on_generated_modules(m):
    assert_rule_stages_hold_the_candidate_stages(m, repr(m))


def test_realize_relation_frozen_cases():
    m = zoo.get_module("loop2/reg")
    d = m.dim
    # the two-sided rank-two commutator needs the second power
    c = Matrix([[1, 0], [0, -1]])
    r = realize_relation(m, c)
    assert r.status == "realized" and r.realization.power == 2
    assert verify_realization(c, r.realization)
    # a rank-one relation realizes inside the module itself
    c1 = Matrix([[0, 0], [1, 0]])
    r1 = realize_relation(m, c1)
    assert r1.status == "realized" and r1.realization.power == 1
    # the zero matrix is the empty realization, witnessed by the zero
    # submodule of M^0, and it verifies like any other
    zero = Matrix.zero(d, d)
    r0 = realize_relation(m, zero)
    assert r0.status == "realized" and r0.realization.power == 0
    real0 = r0.realization
    assert (real0.sigma, real0.omega) == ((), ())
    assert real0.witness == SubmoduleHandle.zero(module_power(m, 0))
    assert verify_realization(zero, real0)
    # a power-0 realization witnesses the zero matrix alone, and only by
    # a submodule of M^0
    assert not verify_realization(c1, real0)
    over_m = Realization(m, 0, (), (),
                         SubmoduleHandle.zero(module_power(m, 1)))
    assert not verify_realization(zero, over_m)
    # budgets refuse honestly rather than widen
    rb = realize_relation(m, c, power_budget=1)
    assert rb.status == "budget" and rb.realization is None


def test_verify_realization_rejects_a_witness_not_stable_under_an_arrow():
    # P1 over a2: e at v1, f at v2, the arrow a sends e to f.  span(e) is
    # not a submodule, yet it contains sigma = e, omega = f^* kills it and
    # the tuples contract to C, so only the stability check can refuse.
    m = zoo.get_module("a2/p1")
    span_e = SubmoduleHandle(m, [Subspace.full_space(1),
                                 Subspace.zero_space(1)], check=False)
    c = Matrix([[0, 1], [0, 0]])
    real = Realization(m, 1, ((1, 0),), ((0, 1),), span_e)
    assert real.contraction() == c
    assert not verify_realization(c, real)
    # a bug inside the stability check is an error, not a rejected witness
    class BuggySpace(Subspace):
        __slots__ = ()

        def contains(self, other):
            raise TypeError("a bug, not a failed check")

    broken = SubmoduleHandle(m, [Subspace.zero_space(1), BuggySpace(1)],
                             check=False)
    with pytest.raises(TypeError, match="a bug, not a failed check"):
        verify_realization(c, Realization(m, 1, ((1, 0),), ((0, 1),), broken))


def random_functional(rng: random.Random, space: Subspace) -> tuple:
    """A random combination of the space's basis, or a zero vector of
    its ambient when the space is zero."""
    vec = [Fraction(0)] * space.ambient
    for b in space.basis_vectors():
        c = rng.randint(-3, 3)
        vec = [x + c * y for x, y in zip(vec, b)]
    return tuple(vec)


def test_annihilated_by_agrees_with_the_flat_annihilator():
    # on the spins of the coordinate vectors of M^2: random functionals,
    # functionals from the flat annihilator, and those moved off it by
    # one coordinate
    rng = random.Random(23)
    seen = set()
    for key, m in ORACLE_INPUTS:
        ambient = module_power(m, 2)
        for handle in itertools.islice(spin_pool(ambient, 1), ambient.dim):
            ann = references.flat(handle).annihilator()
            full = Subspace.full_space(ambient.dim)
            inside = random_functional(rng, ann)
            moved = list(inside)
            moved[rng.randrange(ambient.dim)] += 1
            for w in (random_functional(rng, full), inside, tuple(moved)):
                answer = handle.annihilated_by(w)
                assert answer == ann.contains_vector(w), key
                seen.add(answer)
    assert seen == {True, False}


def test_annihilated_by_accepts_every_realized_omega_tuple():
    rng = random.Random(24)
    powers = set()
    for key, m in ORACLE_INPUTS:
        d = m.dim
        relations = period_space(m).relations
        for _ in range(3):
            c = Matrix.unvec(random_functional(rng, relations), d, d)
            res = realize_relation(m, c)
            if res.status != "realized" or res.realization.power == 0:
                continue
            real = res.realization
            w = tuple_embed(m, real.power, real.omega)
            assert real.witness.annihilated_by(w), key
            assert references.flat(real.witness).annihilator(
            ).contains_vector(w), key
            powers.add(real.power)
    assert len(powers) > 1


def contraction(sigma, omega, d: int) -> tuple:
    return periods._contraction(map(periods._nonzero, sigma),
                                map(periods._nonzero, omega), d)


def test_contraction_equals_the_dense_outer_products_on_the_corpus():
    rng = random.Random(25)
    powers = set()
    for e in zoo.corpus():
        m, d = e.module, e.module.dim
        relations = period_space(m).relations
        for _ in range(3):
            c = Matrix.unvec(random_functional(rng, relations), d, d)
            res = realize_relation(m, c)
            if res.status != "realized":
                continue
            real = res.realization
            dense = references.outer_sum(real.sigma, real.omega, d)
            assert contraction(real.sigma, real.omega, d) == dense.vec(), \
                e.key
            assert real.contraction() == dense == c, e.key
            powers.add(real.power)
    assert {0, 1, 2} <= powers, powers


def test_contraction_equals_the_dense_outer_products_on_sparse_tuples():
    rng = random.Random(26)
    for _ in range(200):
        d, n = rng.randint(0, 6), rng.randint(0, 4)

        def sparse():
            return tuple(rng.choice((0, 0, 0, Fraction(rng.randint(-4, 4),
                                                        rng.randint(1, 3))))
                         for _ in range(d))

        sigma = tuple(sparse() for _ in range(n))
        omega = tuple(sparse() for _ in range(n))
        assert contraction(sigma, omega, d) == references.outer_sum(
            sigma, omega, d).vec()
    # the int entries a hand-built realization may carry
    sigma, omega = ((1, 0),), ((0, 1),)
    assert contraction(sigma, omega, 2) == references.outer_sum(
        sigma, omega, 2).vec() == (0, 1, 0, 0)
    assert all(type(x) is Fraction for x in contraction(sigma, omega, 2))


def test_realize_rejects_non_relations():
    m = zoo.get_module("a2/p1")
    not_relation = Matrix([[1, 0], [0, 0]])    # pairs to 1 against e1
    r = realize_relation(m, not_relation)
    assert r.status == "unknown"


# -- witnesses spun slot by slot ---------------------------------------------


def slot_tuples(m, r: int, vector) -> list:
    """Generator tuples of r vectors of M: one drawn by vector(), the same
    with one slot zero, one of coordinate vectors and zero slots, and the
    zero tuple."""
    d = m.dim
    drawn = [vector() for _ in range(r)]
    out = [tuple(drawn)]
    if r:
        holed = list(drawn)
        holed[r // 2] = (0,) * d
        coords = [Matrix.identity(d).rows[k % d] if d and k % 2 == 0
                  else (0,) * d for k in range(r)]
        out += [tuple(holed), tuple(coords), ((0,) * d,) * r]
    return out


def assert_slotwise_spins_match_the_power(m, tuples_of, label):
    """Spun slot by slot through M's blocks, each tuple alone and all of
    them together, the witness is the spin of its embedding through the
    block-diagonal arrow maps of M^r."""
    for r in range(4):
        flat = [tuple_embed(m, r, g) for g in tuples_of(r)]
        for gens in [[v] for v in flat] + [flat]:
            slotwise = SubmoduleHandle.spin(module_power(m, r), gens, m)
            assert slotwise == SubmoduleHandle.spin(module_power(m, r),
                                                    gens), (label, r)


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_slotwise_witnesses_equal_the_spin_in_the_power(key, m):
    rng = random.Random(key)

    def vector():
        return tuple(rng.randint(-2, 2) for _ in range(m.dim))

    assert_slotwise_spins_match_the_power(
        m, lambda r: slot_tuples(m, r, vector), key)
    # and realize's witness is that spin of its sigma tuple
    relations = period_space(m).relations
    for _ in range(2):
        c = Matrix.unvec(random_functional(rng, relations), m.dim, m.dim)
        real = realize_relation(m, c).realization
        assert real.witness == SubmoduleHandle.spin(
            module_power(m, real.power),
            [tuple_embed(m, real.power, real.sigma)]), key


@settings(max_examples=25, deadline=None)
@given(rebased_modules(), st.data())
def test_slotwise_witnesses_equal_the_spin_in_the_power_on_rebased(m, data):
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def vector():
        return tuple(data.draw(entry) for _ in range(m.dim))

    assert_slotwise_spins_match_the_power(
        m, lambda r: slot_tuples(m, r, vector), repr(m))


def test_spin_refuses_an_ambient_that_is_not_a_power_of_the_base():
    p1 = zoo.get_module("a2/p1")
    s2 = zoo.get_module("a2/s2")
    with pytest.raises(ValueError, match="not a power"):
        SubmoduleHandle.spin(direct_sum([p1, s2]), [], p1)
    with pytest.raises(ValueError, match="not a power"):
        SubmoduleHandle.spin(module_power(p1, 2), [],
                             zoo.get_module("a3/proj"))
    # the only power of a zero module is zero
    zero = module_power(p1, 0)
    assert SubmoduleHandle.spin(zero, [()], zero) == SubmoduleHandle.zero(zero)
    with pytest.raises(ValueError, match="not a power"):
        SubmoduleHandle.spin(p1, [(1, 0)], zero)


def test_realize_factors_from_the_nonzero_rows_as_from_all_of_them():
    # omega is C's reduced row basis and sigma its columns at the pivots,
    # whether or not the zero rows enter the elimination
    rng = random.Random(27)
    seen = set()
    for key, m in ORACLE_INPUTS:
        d = m.dim
        relations = period_space(m).relations
        for vec in relations.basis_vectors()[:4] + (
                random_functional(rng, relations),):
            c = Matrix.unvec(vec, d, d)
            red, pivots = rref(c)
            res = realize_relation(m, c)
            assert res.status == "realized", key
            real = res.realization
            assert real.power == len(pivots), key
            assert real.omega == red.rows[:len(pivots)], key
            assert real.sigma == tuple(tuple(row[p] for row in c.rows)
                                       for p in pivots), key
            seen.add(any(not any(row) for row in c.rows))
    assert seen == {True, False}


def test_power_identity():
    for key in ("a2/p1", "a3/rad", "kronecker/reg0"):
        m = zoo.get_module(key)
        for n in (1, 2, 3):
            rep = check_power_identity(m, n)
            assert rep.applicable and rep.holds, (key, n)


def test_absorb_identity():
    m = zoo.get_module("a2/p1")
    socle = SubmoduleHandle.spin(m, [(0, 1)])
    rep = check_absorb_identity(m, inclusion(socle))
    assert rep.applicable and rep.holds
    _, proj = quotient_module(socle)
    rep = check_absorb_identity(m, proj)
    assert rep.applicable and rep.holds
    # a map that is neither mono into m nor epi out of m is inapplicable
    rep = check_absorb_identity(m, references.zero_map(m, m))
    assert not rep.applicable


def test_orthogonal_additivity_frozen():
    s1 = zoo.get_module("a2/s1")
    s2 = zoo.get_module("a2/s2")
    rep = check_orthogonal_additivity(s1, s2)
    assert rep.applicable and rep.holds
    assert rep.dims == {"left": 1, "right": 1, "sum": 2}
    # P1 and S1 share the top factor, so the pair is not orthogonal
    rep = check_orthogonal_additivity(zoo.get_module("a2/p1"), s1)
    assert not rep.applicable
    # homs vanish both ways here, but the shared middle factor still
    # couples the coefficient spaces: 6 + 1 would overcount
    rep = check_orthogonal_additivity(zoo.get_module("a3/proj"),
                                      zoo.get_module("a3/s_wm1"))
    assert not rep.applicable


def _socle_slice(x: int):
    part = WeightPartition.of({0: ("v1",), -1: ("v2",)})
    m = module_power(zoo.get_module("a2/p1"), x)
    seq = slice_by_weight(m, part, -1)
    return m, seq


def test_pushout_reduction_frozen():
    s1 = zoo.get_module("a2/s1")
    for x in (1, 2):
        red = pushout_reduction(*_pushout_args(x))
        assert red.holds, x
        assert is_injective(red.sub_map)
        assert is_surjective(red.quot_map)
        assert red.quot_map.target == module_power(s1, x * x)
    assert pushout_reduction(*_pushout_args(1)).dims["middle_dim"] == 2
    assert pushout_reduction(*_pushout_args(2)).dims["middle_dim"] == 5


def _pushout_args(x: int):
    s1 = zoo.get_module("a2/s1")
    s2 = zoo.get_module("a2/s2")
    m, seq = _socle_slice(x)
    whole = general(seq)
    return (m, s2, x, whole.inclusion, s1, x, whole.projection)


def q_point(m, coords):
    field = NumberField([0, 1])
    return ComparisonPoint(field, tuple(field.elem([c]) for c in coords))


def test_eval_at_unit_point_fails_for_p1():
    m = zoo.get_module("a2/p1")
    rep = eval_and_conjecture(m, q_point(m, (1, 1, 0)))
    assert rep.verdict == "fails" and not rep.holds
    assert len(rep.quotient_kernel.vectors) == 2
    assert len(rep.ambient_kernel.vectors) == 3
    assert rep.relations_evaluate_to_zero
    assert sorted(rep.statuses) == ["realized", "unknown", "unknown"]
    # the realized kernel vector witnesses the socle
    [vec] = [v for v, status in zip(rep.ambient_kernel.vectors,
                                    rep.statuses) if status == "realized"]
    real = realize_relation(m, Matrix.unvec(vec, m.dim, m.dim)).realization
    assert real.witness == SubmoduleHandle.spin(m, [(0, 1)])


def test_eval_at_generic_cubic_point_holds():
    m = zoo.get_module("a2/p1")
    lf = NumberField([-2, 0, 0, 1])
    one, gen = lf.one(), lf.gen()
    point = ComparisonPoint(lf, (one, gen, gen * gen))
    rep = eval_and_conjecture(m, point)
    assert rep.verdict == "holds" and rep.holds
    assert len(rep.quotient_kernel.vectors) == 0
    assert len(rep.ambient_kernel.vectors) == 1
    assert rep.relations_evaluate_to_zero


def test_eval_requires_a_unit():
    m = zoo.get_module("a2/p1")
    with pytest.raises(ValueError):
        eval_and_conjecture(m, q_point(m, (0, 0, 1)))   # rho(u) singular


def test_eval_over_a_reducible_value_field_names_it():
    m = zoo.get_module("a2/p1")
    lf = NumberField([-1, 0, 1])               # x^2 - 1 = (x-1)(x+1)
    one, x = lf.one(), lf.gen()
    point = ComparisonPoint(lf, (one + x, one, lf.zero()))
    with pytest.raises(NotAField, match="value field L") as info:
        eval_and_conjecture(m, point)
    assert isinstance(info.value.__cause__, ZeroDivisor)
    # a point whose evaluation never divides by a zero divisor still answers
    rep = eval_and_conjecture(m, ComparisonPoint(lf, (one, one, lf.zero())))
    assert rep.relations_evaluate_to_zero


def test_eval_with_proper_coefficient_subfield():
    # K = Q(sqrt 2) inside L = Q[x]/(x^4 - 2), embedded through x^2
    m = zoo.get_module("a2/p1")
    lf = NumberField([-2, 0, 0, 0, 1])
    kf = NumberField([-2, 0, 1])
    image = lf.elem([0, 0, 1])
    point = ComparisonPoint(lf, (lf.one(), lf.gen(), lf.zero()),
                            coeff_field=kf, coeff_image=image)
    rep = eval_and_conjecture(m, point)
    # kernels are K-spaces; evaluation stays exact all the way down
    assert rep.relations_evaluate_to_zero
    assert isinstance(rep.holds, bool)
    # with u = e1 + sqrt(2) e2, E11 - E22/sqrt(2) is a kernel vector
    # outside Q, which is never labelled realized
    rep = eval_and_conjecture(m, ComparisonPoint(
        lf, (lf.one(), image, lf.zero()), coeff_field=kf, coeff_image=image))
    assert [x.coeffs for x in rep.ambient_kernel.vectors[0]] == \
        [(1, 0), (0, 0), (0, 0), (0, Fraction(-1, 2))]
    assert rep.statuses == ("unknown", "unknown", "realized")


def _one_over_q(m):
    """The unit u = 1, the sum of the vertex idempotents, over Q."""
    field = NumberField([0, 1])
    return ComparisonPoint(field, tuple(
        field.elem([0 if arrows else 1]) for _, arrows in m.algebra.basis))


def _cubic_unit(m, rng):
    """A unit over Q[x]/(x^3 - 2): nonzero vertex coefficients and
    arbitrary path coefficients, as the benchmark draws them."""
    lf = NumberField([-2, 0, 0, 1])
    coords = []
    for _, arrows in m.algebra.basis:
        c = [rng.randint(-3, 3) for _ in range(3)]
        while not (arrows or any(c)):
            c = [rng.randint(-3, 3) for _ in range(3)]
        coords.append(lf.elem(c))
    return ComparisonPoint(lf, tuple(coords))


def assert_statuses_equal_fresh_realizations(m, point, label) -> list:
    """Eval reads each kernel vector's status off the pairing; it must be
    the status a lone realize_relation gives.  Returns the fresh
    results."""
    rep = eval_and_conjecture(m, point)
    fresh = [realize_relation(m, Matrix.unvec(vec, m.dim, m.dim))
             for vec in rep.ambient_kernel.vectors]
    assert rep.statuses == tuple(r.status for r in fresh), label
    return fresh


def test_eval_realizations_equal_fresh_realizations():
    rank_two = unknown = 0
    for key, m in ORACLE_INPUTS:
        for point in (_one_over_q(m), _cubic_unit(m, random.Random(key))):
            for res in assert_statuses_equal_fresh_realizations(m, point,
                                                                key):
                unknown += res.status == "unknown"
                rank_two += (res.status == "realized"
                             and res.realization.power == 2)
    assert rank_two and unknown, (rank_two, unknown)


@settings(max_examples=25, deadline=None)
@given(rebased_modules(), st.integers(0, 2 ** 16))
def test_eval_realizations_equal_fresh_realizations_on_rebased(m, seed):
    for point in (_one_over_q(m), _cubic_unit(m, random.Random(seed))):
        assert_statuses_equal_fresh_realizations(m, point, repr(m))


def _counting_path_blocks(monkeypatch) -> list:
    """The modules periods._path_blocks is called on from now on."""
    calls = []
    built = periods._path_blocks

    def counted(x, *maps):
        calls.append(x)
        return built(x, *maps)

    monkeypatch.setattr(periods, "_path_blocks", counted)
    return calls


# two parallel arrows act as 2 x 4 blocks, so a placement that swaps a
# block's rows and columns cannot go unseen
KRONECKER_BIG_SQUARED = module_power(zoo.get_module("kronecker/big"), 2)


def test_one_eval_builds_the_pairing_once(monkeypatch):
    m = KRONECKER_BIG_SQUARED
    calls = _counting_path_blocks(monkeypatch)
    rep = eval_and_conjecture(m, _cubic_unit(m, random.Random(5)))
    assert calls == [m]
    assert rep.space.relations == period_space(m).relations
    fresh = [realize_relation(m, Matrix.unvec(vec, m.dim, m.dim)).status
             for vec in rep.ambient_kernel.vectors]
    assert rep.statuses == tuple(fresh) and "realized" in fresh


def _ambient_values(m, point) -> list:
    """tr(rho(u) E_ij) = rho(u)_ji at each flat position i*d + j, from
    the dense action of every basis path."""
    d = m.dim
    actions = [references.act_basis(m, i) for i in range(m.algebra.dim)]
    return [sum((u * a.rows[j][i] for u, a in zip(point.u_coords, actions)),
                point.value_field.zero())
            for i in range(d) for j in range(d)]


def test_eval_eliminates_on_the_support_of_rho_u(monkeypatch):
    # beyond the eliminations period_space makes, eval eliminates no
    # matrix wider than the support of rho(u), and it forms each basis
    # path's map once
    m = module_power(zoo.get_module("a2/p1"), 5)
    point = _cubic_unit(m, random.Random(5))
    d = m.dim
    support = sum(1 for x in _ambient_values(m, point) if x)
    widths = []
    exact = exactlin.rref

    def recorded(mat):
        widths.append(mat.ncols)
        return exact(mat)

    monkeypatch.setattr(exactlin, "rref", recorded)
    monkeypatch.setattr(periods, "rref", recorded)
    period_space(m)
    by_period_space = Counter(widths)
    widths.clear()
    paths = []
    path_map = FdModule.path_map

    def counted(self, source, arrows):
        paths.append((source, arrows))
        return path_map(self, source, arrows)

    monkeypatch.setattr(FdModule, "path_map", counted)
    eval_and_conjecture(m, point)
    beyond = Counter(widths) - by_period_space
    assert beyond and max(beyond) <= support < d * d
    assert sorted(paths) == sorted(m.algebra.basis)


@pytest.mark.parametrize("wrong", ["units", "free column"])
def test_eval_sees_relations_that_do_not_evaluate_to_zero(monkeypatch,
                                                           wrong):
    # the check reads a relation row at its pivot and at the free columns
    # of nonzero value: relations wrong at either must be seen
    m = zoo.get_module("a2/p1")
    point = _cubic_unit(m, random.Random(1))
    n = m.dim ** 2
    values = _ambient_values(m, point)
    if wrong == "units":
        relations = Subspace.full_space(n)
    else:
        z = next(j for j, x in enumerate(values) if not x)
        s = next(j for j in range(z + 1, n) if values[j])
        relations = Subspace(n, [[1 if j in (z, s) else 0
                                  for j in range(n)]])
    assert eval_and_conjecture(m, point).relations_evaluate_to_zero
    monkeypatch.setattr(periods, "_block_relations",
                        lambda m, blocks: relations)
    assert not eval_and_conjecture(m, point).relations_evaluate_to_zero


def test_one_depth_builds_the_pairing_once(monkeypatch):
    m = KRONECKER_BIG_SQUARED
    calls = _counting_path_blocks(monkeypatch)
    assert depth_space(m, m.dim).certified
    assert calls == [m]


@pytest.mark.parametrize("row", [0, 1])
def test_a_wrong_rank_factorization_is_refused(monkeypatch, row):
    # an rref whose omega row is scaled no longer factors C; the check
    # must see it, whichever row it is
    m = zoo.get_module("loop2/reg")
    c = Matrix([[1, 2], [3, -1]])
    exact = periods.rref

    def scaled(mat):
        red, pivots = exact(mat)
        rows = list(red.rows)
        rows[row] = tuple(2 * x for x in rows[row])
        return Matrix._wrap(tuple(rows), red.ncols), pivots

    assert realize_relation(m, c).status in ("realized", "unknown")
    monkeypatch.setattr(periods, "rref", scaled)
    with pytest.raises(AssertionError, match="rank factorization failed"):
        realize_relation(m, c)


def _dense_is_scalar(rows) -> bool:
    c = rows[0][0] if rows else 0
    return all(x == (c if i == j else 0)
               for i, row in enumerate(rows) for j, x in enumerate(row))


@st.composite
def near_scalar_matrices(draw):
    """c times the identity, with a few entries perhaps changed."""
    d = draw(st.integers(0, 4))
    c = draw(st.integers(-2, 2))
    rows = [[c if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 2)) if d else 0):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[i][j] = draw(st.integers(-2, 2))
    return Matrix(rows, ncols=d)


@settings(max_examples=300, deadline=None)
@given(near_scalar_matrices())
def test_is_scalar_from_nonzero_entries_matches_the_dense_test(e):
    assert (_is_scalar(e.nonzero_entries(), e.nrows)
            == _dense_is_scalar(e.rows))
