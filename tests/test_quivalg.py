"""Algebra and module layer: frozen structure counts plus categorical laws.

Path-basis dimensions are frozen from hand counts of the bundled
quivers; everything else is cross-checked through independent
characterizations (projectivity via vertex dimensions, rank-nullity,
duality) rather than by re-running the code under test.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiods import quivalg, zoo
from qperiods.exactlin import Matrix, Subspace
from qperiods.quivalg import (
    FdModule,
    ModuleMap,
    NotAModuleMap,
    NotAdmissible,
    NotFiniteDimensional,
    StructureAlgebra,
    SubmoduleHandle,
    build_algebra,
    direct_sum,
    end_algebra,
    hom_space,
    module_iso,
    module_power,
    projective_module,
    simple_module,
    spin_pool,
    tuple_embed,
)
from qperiods.yoga import _search_pool

from references import (
    block_map,
    compose,
    corpus_slices,
    direct_sum_with_maps,
    dual_module,
    end_structure,
    factor_through_sub,
    flattened,
    inclusion,
    is_injective,
    is_surjective,
    kernel,
    layered_algebra,
    matrix_algebra_structure,
    opposite,
    quotient_module,
    solve,
    trace,
    zero_map,
)
from strategies import ORACLE_INPUTS, rebased_modules

# path counts per quiver, by hand: idempotents plus surviving paths
ALGEBRA_DIMS = {
    "a2": 3,          # e1, e2, a
    "a3": 6,          # three idempotents, x, y, yx
    "a3yx": 5,        # as a3 but yx = 0
    "square": 9,      # four idempotents, four arrows, one diagonal
    "kronecker": 4,   # two idempotents, two parallel arrows
    "loop2": 2,       # one idempotent, one nilpotent loop
    "star": 7,        # four idempotents, three arms
}


def test_algebra_dimensions_frozen():
    for key, dim in ALGEBRA_DIMS.items():
        assert zoo.algebra(key).dim == dim, key


def algebra_inputs(algebra) -> tuple:
    """The vertices, arrows and relations an algebra was built from."""
    return (algebra.vertices,
            [(a.name, a.source, a.target) for a in algebra.arrows],
            [[(c, key[1]) for c, key in rel] for rel in algebra.relations])


def linear_an(n: int) -> tuple:
    return ([f"x{i}" for i in range(n)],
            [(f"a{i}", f"x{i}", f"x{i + 1}") for i in range(n - 1)], [])


BUILD_INPUTS = (
    [(key, algebra_inputs(zoo.algebra(key))) for key in ALGEBRA_DIMS]
    + [(f"A{n}", linear_an(n)) for n in range(1, 11)]
    + [
        ("free loop", (["v"], [("z", "v", "v")], [])),
        # a relation term is a sequence of arrow names; these are letters
        ("loop z^3 = 0", (["v"], [("z", "v", "v")], [[(1, "zzz")]])),
        ("exterior algebra", (["v"], [("x", "v", "v"), ("y", "v", "v")],
                              [[(1, "xx")], [(1, "yy")],
                               [(1, "xy"), (1, "yx")]])),
        ("mixed lengths", (["v", "w"], [("x", "v", "v"), ("a", "v", "w")],
                           [[(1, "xx")], [(1, "xxa"), (-2, "xa")]])),
        ("cancelling terms", (["v", "w"], [("x", "v", "v"), ("a", "v", "w")],
                              [[(1, "xxx")], [(2, "xa"), (-2, "xa")]])),
    ])


@pytest.mark.parametrize("label, inputs", BUILD_INPUTS,
                         ids=[label for label, _ in BUILD_INPUTS])
def test_build_algebra_equals_the_per_layer_elimination(label, inputs):
    # the same basis in the same order and the same reduction table, or
    # the same refusal
    try:
        want = layered_algebra(*inputs)
    except (NotAdmissible, NotFiniteDimensional) as exc:
        with pytest.raises(type(exc)) as got:
            build_algebra(*inputs)
        assert str(got.value) == str(exc), label
        return
    got = build_algebra(*inputs)
    assert got.basis == want.basis, label
    assert got._reduction == want._reduction, label
    assert (got.vertices, got.arrows, got.relations) == (
        want.vertices, want.arrows, want.relations), label


@st.composite
def acyclic_bound_quivers(draw):
    """An acyclic quiver on two to four vertices, with up to two arrows
    from each vertex to each later one, and one to three relations, each
    a combination of parallel paths of length two or more, which may
    differ in length."""
    n = draw(st.integers(2, 4))
    vertices = [f"v{i}" for i in range(n)]
    arrows = []
    for i, j in itertools.combinations(range(n), 2):
        for _ in range(draw(st.integers(0, 2))):
            arrows.append((f"a{len(arrows)}", f"v{i}", f"v{j}"))
    paths = [(a[1], a[2], (a[0],)) for a in arrows]
    longer = []
    for _ in range(n - 1):
        paths = [(s, a[2], seq + (a[0],)) for s, t, seq in paths
                 for a in arrows if a[1] == t]
        longer += paths
    parallel: dict = {}
    for s, t, seq in longer:
        parallel.setdefault((s, t), []).append(seq)
    relations = []
    if parallel:
        for _ in range(draw(st.integers(1, 3))):
            group = parallel[draw(st.sampled_from(sorted(parallel)))]
            terms = draw(st.lists(st.sampled_from(group), min_size=1,
                                  max_size=3))
            coeffs = st.sampled_from((-2, -1, 0, 1, 3))
            relations.append([(draw(coeffs), seq) for seq in terms])
    return vertices, arrows, relations


@settings(max_examples=150, deadline=None)
@given(acyclic_bound_quivers())
def test_build_algebra_equals_the_per_layer_elimination_on_generated_quivers(
        inputs):
    test_build_algebra_equals_the_per_layer_elimination(repr(inputs), inputs)


def test_build_algebra_rejects_bad_input():
    with pytest.raises(NotAdmissible):
        build_algebra(["v", "v"], [])
    with pytest.raises(NotAdmissible):
        build_algebra(["v"], [("a", "v", "w")])
    with pytest.raises(NotAdmissible):
        build_algebra(["v", "w"], [("a", "v", "w")],
                      [[(1, ("a",))]])           # length-one relation term
    with pytest.raises(NotFiniteDimensional,
                       match="^path layers did not die out within length 24$"):
        build_algebra(["v"], [("z", "v", "v")])  # free loop


def test_opposite_is_an_involution():
    for key in ALGEBRA_DIMS:
        alg = zoo.algebra(key)
        opp = opposite(alg)
        assert opp.dim == alg.dim
        assert opposite(opp) == alg


def test_corpus_size():
    entries = zoo.corpus()
    assert len(entries) >= 25
    assert len({e.algebra_key for e in entries}) >= 5


def test_projective_hom_dimension():
    # dim Hom(P_v, M) equals the vertex dimension of M at v
    for key in ("a2/p1", "a3/proj", "a3/tower", "square/proj1",
                "kronecker/big", "star/all", "a3yx/mix"):
        m = zoo.get_module(key)
        for v in m.algebra.vertices:
            proj = projective_module(m.algebra, v)
            assert len(hom_space(proj, m)) == m.vdim(v), (key, v)


def test_simple_modules_are_orthogonal():
    alg = zoo.algebra("a3")
    simples = [simple_module(alg, v) for v in alg.vertices]
    for i, s in enumerate(simples):
        for j, t in enumerate(simples):
            assert len(hom_space(s, t)) == (1 if i == j else 0)


def test_end_algebra_structure():
    for key in ("a2/p1", "a2/s1+s2", "a3/tower", "kronecker/proj1"):
        m = zoo.get_module(key)
        algebra, basis = end_structure(m)
        assert algebra.check_associative(), key
        assert algebra.check_unit(), key
        assert algebra.dim == len(basis) == len(hom_space(m, m))
    # a simple module has scalar endomorphisms only
    s = zoo.get_module("a2/s1")
    algebra, _ = end_structure(s)
    assert algebra.dim == 1 and algebra.is_semisimple()


def assert_end_algebra_matches_solve(m, key):
    """Each product's coordinates and the unit's, by one solve apiece."""
    algebra, basis = end_structure(m)
    k = len(basis)
    if k == 0:
        assert algebra.dim == 0, key
        return
    stacked = Matrix.from_columns([flattened(b).vec() for b in basis])
    table = tuple(
        tuple(solve(stacked, flattened(compose(basis[i], basis[j])).vec())
              for j in range(k))
        for i in range(k))
    unit = solve(stacked, flattened(ModuleMap.identity(m)).vec())
    assert algebra.table == table, key
    assert algebra.unit == unit, key
    assert algebra.check_associative(), key
    assert algebra.check_unit(), key


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_end_algebra_equals_the_solve_oracle(key, m):
    assert_end_algebra_matches_solve(m, key)


@settings(max_examples=25, deadline=None)
@given(rebased_modules())
def test_end_algebra_equals_the_solve_oracle_on_rebased_modules(m):
    assert_end_algebra_matches_solve(m, repr(m))


def test_matrix_algebra_structure_is_semisimple():
    m2 = matrix_algebra_structure(2)
    assert m2.check_associative()
    assert m2.check_unit()
    assert m2.dim == 4
    assert m2.is_semisimple()


def test_trace_form_equals_the_traces_of_left_multiplications():
    """trace_form reads tr(L_i L_j) off the table; the traces of the
    products of left_mult's matrices give the same Gram matrix."""
    dual_numbers = StructureAlgebra(2, (1, 0),
                                    (((1, 0), (0, 1)), ((0, 1), (0, 0))))
    s1_4, _ = end_structure(module_power(zoo.get_module("a2/s1"), 4))
    assert s1_4.dim == 16
    for label, algebra in [("M_3", matrix_algebra_structure(3)),
                           ("dual numbers", dual_numbers),
                           ("End(S1^4)", s1_4)]:
        n = algebra.dim
        mults = [algebra.left_mult(tuple(Fraction(int(i == j))
                                         for j in range(n)))
                 for i in range(n)]
        gram = Matrix([[sum(a.rows[p][q] * b.rows[q][p]
                            for p in range(n) for q in range(n))
                        for b in mults] for a in mults])
        assert algebra.trace_form() == gram, label
    assert dual_numbers.radical().dim == 1
    assert s1_4.is_semisimple()


def assert_radical_equals_the_structure_table(m, label):
    """The radical of end_algebra's trace form on M and that of the
    structure table's trace form have equal dimensions, and both sit on
    the same hom basis."""
    radical_dim, basis = end_algebra(m)
    algebra, table_basis = end_structure(m)
    assert basis == table_basis, label
    assert radical_dim == algebra.radical().dim, label


@pytest.mark.parametrize("entry", zoo.corpus(), ids=lambda e: e.key)
def test_end_radical_equals_the_structure_table_on_corpus(entry):
    assert_radical_equals_the_structure_table(entry.module, entry.key)


def test_end_radical_equals_the_structure_table_on_slice_ends():
    for label, _, _, seq in corpus_slices():
        assert_radical_equals_the_structure_table(seq.sub, f"{label} sub")
        assert_radical_equals_the_structure_table(seq.quot, f"{label} quot")


@settings(max_examples=25, deadline=None)
@given(rebased_modules())
def test_end_radical_equals_the_structure_table_on_rebased_modules(m):
    assert_radical_equals_the_structure_table(m, repr(m))


def test_end_radical_of_the_tower_is_two():
    m = zoo.get_module("a3/tower")
    assert end_algebra(m)[0] == 2 == end_structure(m)[0].radical().dim


def test_module_iso_finds_permuted_sums():
    s1 = zoo.get_module("a2/s1")
    s2 = zoo.get_module("a2/s2")
    left = direct_sum([s1, s2])
    right = direct_sum([s2, s1])
    f = module_iso(left, right)
    assert f is not None
    assert is_injective(f) and is_surjective(f)


def test_module_iso_rejects_nonisomorphic_with_equal_dims():
    # P1 and S1 + S2 share vertex dimensions but only one is semisimple
    p1 = zoo.get_module("a2/p1")
    ss = zoo.get_module("a2/s1+s2")
    assert p1.dims == ss.dims
    assert module_iso(p1, ss) is None


def test_module_iso_deterministic():
    left = zoo.get_module("a3/tower")
    right = direct_sum([zoo.get_module("a3/tower")])
    first = module_iso(left, right)
    second = module_iso(left, right)
    assert first is not None
    assert flattened(first) == flattened(second)


def test_module_iso_of_equal_modules_is_the_identity(monkeypatch):
    def refuse(m, n):
        raise AssertionError("module_iso solved for a hom space")

    monkeypatch.setattr(quivalg, "hom_space", refuse)
    for key in ("a2/s1+s2", "a3/tower", "kronecker/proj1+s2", "loop2/reg"):
        m = zoo.get_module(key)
        assert module_iso(m, direct_sum([m])) == ModuleMap.identity(m), key


def test_rank_nullity_for_module_maps():
    m = zoo.get_module("a3/proj")
    for f in hom_space(m, m):
        assert kernel(f).dim + f.image().dim == m.dim


def test_sub_and_quotient_dimensions():
    m = zoo.get_module("a2/p1")
    socle = SubmoduleHandle.spin(m, [(0, 1)])
    sub, incl = socle.sub_module(), inclusion(socle)
    quot, proj = quotient_module(socle)
    assert sub.dim + quot.dim == m.dim
    assert is_injective(incl) and is_surjective(proj)
    assert flattened(compose(proj, incl)).is_zero()


def test_factor_through_sub_reads_coordinates_and_refuses_escapes():
    m = zoo.get_module("a2/p1")
    socle = SubmoduleHandle.spin(m, [(0, 1)])
    sub, incl = socle.sub_module(), inclusion(socle)
    # the inclusion factors as the identity of the sub
    assert factor_through_sub(incl, socle) == ModuleMap.identity(sub)
    # the identity of M leaves the socle, so it has no factorisation
    with pytest.raises(NotAModuleMap):
        factor_through_sub(ModuleMap.identity(m), socle)


def test_spin_is_closed_and_minimal():
    m = zoo.get_module("a2/p1")
    full = SubmoduleHandle.spin(m, [(1, 0)])   # generator spins to all of P1
    assert full.is_full()
    socle = SubmoduleHandle.spin(m, [(0, 1)])
    assert socle.dim == 1 and full.contains(socle)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 5),
                min_size=0, max_size=3))
def test_spin_closure_property(vectors):
    m = zoo.get_module("a3/tower")      # 5-dimensional
    handle = SubmoduleHandle.spin(m, [tuple(map(Fraction, v))
                                      for v in vectors])
    # closed under every arrow action and idempotent under respinning
    for v in vectors:
        assert handle.contains_vector(tuple(map(Fraction, v)))
    basis = []
    for vtx in m.algebra.vertices:
        for b in handle.space(vtx).basis_vectors():
            basis.append(m.embed_vertex_vector(vtx, b))
    assert SubmoduleHandle.spin(m, basis) == handle


def test_trace_quotient_clears_named_vertices():
    m = zoo.get_module("a3/proj")
    for verts in (("w0",), ("w0", "wm1"), ("wm2",)):
        generated = trace(m, verts)
        quotient, projection = quotient_module(generated)
        for v in verts:
            assert quotient.vdim(v) == 0
        assert is_surjective(projection)
        assert generated.dim + quotient.dim == m.dim


@settings(max_examples=30, deadline=None)
@given(rebased_modules(), st.data())
def test_largest_inside_holds_every_submodule_inside(m, data):
    spaces = [Subspace(d, data.draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d), max_size=d)))
        for d in m.dims]
    largest = SubmoduleHandle.largest_inside(m, spaces)
    SubmoduleHandle(m, largest.spaces)      # checks that arrows keep it
    assert all(s.contains(t) for s, t in zip(spaces, largest.spaces))
    for h in _search_pool(m, 1, 64):
        inside = all(s.contains(t) for s, t in zip(spaces, h.spaces))
        assert largest.contains(h) == inside


def test_dual_module_preserves_dims_and_homs():
    for key in ("a2/p1", "a3yx/p0", "square/rad", "loop2/reg"):
        m = zoo.get_module(key)
        dm = dual_module(m)
        assert sorted(dm.dims) == sorted(m.dims)
        assert module_iso(m, dual_module(dm)) is not None
    m = zoo.get_module("a2/p1")
    n = zoo.get_module("a2/s1")
    assert len(hom_space(m, n)) == len(hom_space(dual_module(n),
                                                 dual_module(m)))


def test_direct_sum_with_maps_orthogonality():
    mods = [zoo.get_module("a2/s1"), zoo.get_module("a2/p1"),
            zoo.get_module("a2/s2")]
    total, incls, projs = direct_sum_with_maps(mods)
    assert total.dim == sum(x.dim for x in mods)
    for i, pi in enumerate(projs):
        for j, kj in enumerate(incls):
            comp = flattened(compose(pi, kj))
            if i == j:
                assert comp == Matrix.identity(mods[i].dim)
            else:
                assert comp.is_zero()


def test_module_power_zero_and_one():
    m = zoo.get_module("a2/p1")
    assert module_power(m, 0).dim == 0
    assert module_power(m, 1) == m
    assert module_power(m, 3).dim == 3 * m.dim


def test_module_rejects_relation_violations():
    alg = zoo.algebra("a3yx")              # yx = 0 is a relation
    with pytest.raises(ValueError):
        FdModule(alg, {"w0": 1, "wm1": 1, "wm2": 1},
                 {"x": Matrix([[1]]), "y": Matrix([[1]])})


def test_module_map_validation():
    m = zoo.get_module("a2/p1")
    s = zoo.get_module("a2/s1")
    with pytest.raises(ValueError):
        # does not intertwine the arrow action
        ModuleMap(m, m, [Matrix([[1]]), Matrix([[0]])])
    assert flattened(zero_map(m, s)).is_zero()
    ident = ModuleMap.identity(m)
    assert flattened(ident) == Matrix.identity(m.dim)


@pytest.mark.parametrize("key", ["a3/proj", "kronecker/reg1", "a3/tower"])
def test_block_map_places_each_endomorphism_in_its_slot(key):
    m = zoo.get_module(key)
    alphabet = [ModuleMap.identity(m)] + list(end_algebra(m)[1])
    powers = {p: module_power(m, p) for p in (1, 2, 3)}
    for a, b in [(1, 2), (2, 1), (2, 2), (3, 2)]:
        positions = [(i, j) for i in range(b) for j in range(a)]
        grids = [
            {},
            {positions[-1]: alphabet[-1]},
            {pos: alphabet[n % len(alphabet)]
             for n, pos in enumerate(positions)},
        ]
        xs = [tuple(Fraction(k * m.dim + i + 1, i + 2) for i in range(m.dim))
              for k in range(a)]
        for grid in grids:
            f = block_map(powers[a], [m] * a, powers[b], [m] * b, grid)
            # the blocks commute with the arrows once the check is rerun
            ModuleMap(f.source, f.target, f.blocks, check=True)
            ys = []
            for i in range(b):
                y = [Fraction(0)] * m.dim
                for j in range(a):
                    if (i, j) in grid:
                        y = [s + t for s, t in
                             zip(y, flattened(grid[i, j]).apply(xs[j]))]
                ys.append(tuple(y))
            assert (flattened(f).apply(tuple_embed(m, a, xs))
                    == tuple_embed(m, b, ys))


# the spin-box family that depth_space used to build inline
def reference_spin_box(ambient, b):
    n = ambient.dim
    out = [SubmoduleHandle.spin(ambient, [v])
           for v in Matrix.identity(n).rows]
    coeff_pairs = [(Fraction(1), Fraction(c)) for c in range(-b, b + 1) if c]
    for i, j in itertools.combinations(range(n), 2):
        for c1, c2 in coeff_pairs:
            vec = [Fraction(0)] * n
            vec[i] = c1
            vec[j] = c2
            out.append(SubmoduleHandle.spin(ambient, [tuple(vec)]))
    return out


# the spins of yoga._search_pool before it drew them from spin_pool
def reference_search_spins(m, bound):
    coords = [m.embed_vertex_vector(v, row)
              for v in m.algebra.vertices
              for row in Matrix.identity(m.vdim(v)).rows]
    out = [SubmoduleHandle.spin(m, [c]) for c in coords]
    for c1, c2 in itertools.combinations(coords, 2):
        for s in range(-bound, bound + 1):
            if s == 0:
                continue
            out.append(SubmoduleHandle.spin(
                m, [tuple(a + Fraction(s) * b for a, b in zip(c1, c2))]))
    return out


def reference_search_pool(m, bound, cap):
    handles, seen = [], set()

    def push(h):
        if h.spaces not in seen and len(handles) < cap:
            seen.add(h.spaces)
            handles.append(h)

    push(SubmoduleHandle.zero(m))
    push(SubmoduleHandle.full(m))
    for h in reference_search_spins(m, bound):
        push(h)
    for h1, h2 in itertools.combinations(tuple(handles), 2):
        push(h1.add(h2))
        push(h1.intersect(h2))
        if len(handles) >= cap:
            break
    return handles


CORPUS = [(e.key, e.module) for e in zoo.corpus()]


@pytest.mark.parametrize("key,m", CORPUS, ids=[k for k, _ in CORPUS])
def test_spin_pool_enumerates_both_old_pools_in_order(key, m):
    for power, bound in ((1, 1), (2, 1), (1, 2)):
        ambient = module_power(m, power)
        pool = [h.spaces for h in spin_pool(ambient, bound)]
        assert pool == [h.spaces for h in reference_spin_box(ambient, bound)]
        assert pool == [h.spaces
                        for h in reference_search_spins(ambient, bound)]


@pytest.mark.parametrize("key,m", CORPUS, ids=[k for k, _ in CORPUS])
def test_search_pool_equals_the_old_pool_at_every_cap(key, m):
    for cap in (1, 2, 3, 5, 8, 512):
        assert ([h.spaces for h in _search_pool(m, 1, cap)]
                == [h.spaces for h in reference_search_pool(m, 1, cap)])


def test_search_pool_stops_spinning_at_its_cap(monkeypatch):
    m = module_power(zoo.get_module("a3/proj"), 2)
    distinct = []
    for n, h in enumerate(spin_pool(m, 1), 1):
        if h.spaces not in distinct and not (h.dim == 0 or h.is_full()):
            distinct.append(h.spaces)
            if len(distinct) == 3:
                needed = n
                break
    calls = []
    spin = SubmoduleHandle.spin.__func__
    monkeypatch.setattr(SubmoduleHandle, "spin", classmethod(
        lambda cls, ambient, vectors: calls.append(1) or spin(
            cls, ambient, vectors)))
    assert len(_search_pool(m, 1, cap=5)) == 5
    assert len(calls) == needed
