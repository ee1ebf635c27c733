"""Direct sums, powers and the maps between them, against the constructions
they replaced.

The references below are the hand-built layouts that direct_sum_with_maps,
module_power_with_maps, periods._map_power, tuple_embed,
relation_from_submodule and sum_sequence each used to carry: identity
blocks placed by running offsets, per-vertex block_diagonal of one map, a
where[k][g] table filled slot by slot, and sums of inclusion-map-projection
composites.  The package now lays out a sum in direct_sum, and
tuple_embed lays out a tuple in a power by its vectors' slices vertex by
vertex; references.slot_layout, the slot-major position table that
tuple_embed used to read, is the oracle for that layout.  These tests
require the results to be equal.  The package builds no map between
sums: block_map, the map given by a grid of maps between summands,
lives in references.py with direct_sum_with_maps and sum_sequence,
which are built from it.  Depth reads the submodules of a power vertex
by vertex instead, which test_computed_once.py checks against
block_map's images and kernels, and the package absorbs a summand into
an admissible sequence by slicing the enlarged middle, which
test_yoga.py checks against sum_sequence.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiods import zoo
from qperiods.exactlin import ONE, ZERO, Matrix, block_diagonal
from qperiods.quivalg import (
    FdModule,
    ModuleMap,
    SubmoduleHandle,
    direct_sum,
    end_algebra,
    module_power,
    tuple_embed,
)

from qperiods.yoga import WeightPartition, slice_by_weight

from references import (
    admissible_check,
    block_map,
    compose,
    direct_sum_with_maps,
    flattened,
    general,
    inclusion,
    quotient_module,
    slot_layout,
    sum_sequence,
)
from strategies import ORACLE_INPUTS, rebased_modules


# -- references --------------------------------------------------------------


def reference_direct_sum_with_maps(modules):
    """The sum with inclusions and projections as identity blocks placed at
    running offsets, every map checked against the arrows."""
    algebra = modules[0].algebra
    dims = {v: sum(m.vdim(v) for m in modules) for v in algebra.vertices}
    maps = {a.name: block_diagonal([m.maps[a.name] for m in modules])
            for a in algebra.arrows}
    total = FdModule(algebra, dims, maps)
    inclusions, projections = [], []
    for idx, m in enumerate(modules):
        inc_blocks, proj_blocks = [], []
        for v in algebra.vertices:
            before = sum(mm.vdim(v) for mm in modules[:idx])
            rows = []
            for i in range(dims[v]):
                row = [ZERO] * m.vdim(v)
                if before <= i < before + m.vdim(v):
                    row[i - before] = ONE
                rows.append(tuple(row))
            inc = Matrix(rows, ncols=m.vdim(v))
            inc_blocks.append(inc)
            proj_blocks.append(inc.transpose())
        inclusions.append(ModuleMap(m, total, inc_blocks))
        projections.append(ModuleMap(total, m, proj_blocks))
    return total, tuple(inclusions), tuple(projections)


def reference_map_power(f, x, src_power, tgt_power):
    """f acting on every slot: one block_diagonal per vertex."""
    blocks = [block_diagonal([f.block(v)] * x)
              for v in f.source.algebra.vertices]
    return ModuleMap(src_power, tgt_power, blocks, check=False)


def reference_where(m, power):
    """relation_from_submodule's table: entry g of slot k of a tuple sits
    at position where[k][g] of M^power."""
    d = m.dim
    where = [[0] * d for _ in range(power)]
    pos = 0
    for v in m.algebra.vertices:
        for k in range(power):
            for g in m.vertex_range(v):
                where[k][g] = pos
                pos += 1
    return where


def reference_tuple_embed(m, n, vectors):
    out = []
    for v in m.algebra.vertices:
        for k in range(n):
            out.extend(m.slice_of(vectors[k], v))
    return tuple(Fraction(x) for x in out)


def reference_sum_sequence(seq_m, seq_n):
    """The inclusion and projection of the summed sequence, as sums over
    the two summands of inclusion after map after projection."""
    _, mid_inc, mid_proj = reference_direct_sum_with_maps(
        [seq_m.module, seq_n.module])
    _, _, sub_proj = reference_direct_sum_with_maps([seq_m.sub, seq_n.sub])
    _, quot_inc, _ = reference_direct_sum_with_maps([seq_m.quot, seq_n.quot])
    inclusion = (compose(compose(mid_inc[0], seq_m.inclusion), sub_proj[0])
                 + compose(compose(mid_inc[1], seq_n.inclusion), sub_proj[1]))
    projection = (
        compose(compose(quot_inc[0], seq_m.projection), mid_proj[0])
        + compose(compose(quot_inc[1], seq_n.projection), mid_proj[1]))
    return inclusion, projection


def same_map(f, g):
    return (f.source == g.source and f.target == g.target
            and f.blocks == g.blocks)


# -- direct sums and powers ----------------------------------------------------


def _mixed_sums():
    """For each algebra of the corpus, the sum of all its corpus modules,
    and the same list reversed."""
    by_algebra = {}
    for e in zoo.corpus():
        by_algebra.setdefault(e.algebra_key, []).append(e.module)
    out = []
    for key, mods in sorted(by_algebra.items()):
        out.append((key, mods))
        out.append((key + "/reversed", mods[::-1]))
    return out


MIXED_SUMS = _mixed_sums()


def assert_sum_matches_reference(mods):
    total, incls, projs = direct_sum_with_maps(mods)
    ref_total, ref_incls, ref_projs = reference_direct_sum_with_maps(mods)
    assert direct_sum(mods) == total == ref_total
    assert len(incls) == len(projs) == len(mods)
    for f, g in zip(incls + projs, ref_incls + ref_projs):
        assert same_map(f, g)


def assert_power_matches_reference(m):
    assert module_power(m, 0).dim == 0
    for n in (1, 2, 3):
        mods = [m] * n
        assert module_power(m, n) == direct_sum(mods)
        assert_sum_matches_reference(mods)


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[k for k, _ in ORACLE_INPUTS])
def test_powers_and_their_maps_equal_the_reference(key, m):
    assert_power_matches_reference(m)


@pytest.mark.parametrize("key,mods", MIXED_SUMS,
                         ids=[k for k, _ in MIXED_SUMS])
def test_mixed_sums_and_their_maps_equal_the_reference(key, mods):
    assert_sum_matches_reference(mods)


@settings(max_examples=25, deadline=None)
@given(rebased_modules(), rebased_modules())
def test_sums_of_rebased_modules_equal_the_reference(m, other):
    assert_power_matches_reference(m)
    if other.algebra == m.algebra:
        assert_sum_matches_reference([m, other, m])


# -- block maps ------------------------------------------------------------------


def _maps_out_of_submodules(m):
    """Maps between different modules: the inclusion of, and the
    projection onto, the submodule spun by each coordinate vector."""
    out = []
    for e in Matrix.identity(m.dim).rows:
        handle = SubmoduleHandle.spin(m, [e])
        out.append(inclusion(handle))
        out.append(quotient_module(handle)[1])
    return out


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[k for k, _ in ORACLE_INPUTS])
def test_diagonal_grids_equal_the_old_map_power(key, m):
    maps = ([ModuleMap.identity(m)] + list(end_algebra(m)[1])
            + _maps_out_of_submodules(m))
    for f in maps:
        for x in (1, 2, 3):
            src = module_power(f.source, x)
            tgt = module_power(f.target, x)
            diag = block_map(src, [f.source] * x, tgt, [f.target] * x,
                             {(j, j): f for j in range(x)})
            assert same_map(diag, reference_map_power(f, x, src, tgt))
            ModuleMap(diag.source, diag.target, diag.blocks)   # checks arrows


def test_pushout_grids_reach_powers_of_powers():
    # (M^2)^2 is M^4: the slot (j, k) of the inner power is slot 2j + k
    m = zoo.get_module("a3/proj")
    inner = module_power(m, 2)
    big = module_power(inner, 2)
    assert big == module_power(m, 4)
    ident = ModuleMap.identity(m)
    g = block_map(big, [m] * 4, m, [m], {(0, 0): ident, (0, 3): ident})
    xs = [tuple(Fraction(7 * k + i + 1) for i in range(m.dim))
          for k in range(4)]
    assert flattened(g).apply(tuple_embed(m, 4, xs)) == tuple(
        a + b for a, b in zip(xs[0], xs[3]))


def test_block_map_refuses_summands_that_do_not_add_up():
    m = zoo.get_module("a2/p1")
    with pytest.raises(ValueError):
        block_map(m, [m], module_power(m, 2), [m], {})


# -- the slot-major layout -------------------------------------------------------


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[k for k, _ in ORACLE_INPUTS])
def test_slot_layout_inverts_tuple_embed(key, m):
    rng = random.Random(key)
    for n in (0, 1, 2, 3):
        layout = slot_layout(m, n)
        assert layout == reference_where(m, n)
        positions = sorted(itertools.chain.from_iterable(layout))
        assert positions == list(range(n * m.dim))
        xs = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(m.dim)) for _ in range(n)]
        flat = tuple_embed(m, n, xs)
        assert flat == reference_tuple_embed(m, n, xs)
        assert [tuple(flat[p] for p in slot) for slot in layout] == xs


@settings(max_examples=25, deadline=None)
@given(rebased_modules(), st.integers(0, 3), st.data())
def test_slot_layout_inverts_tuple_embed_on_rebased_modules(m, n, data):
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    xs = [tuple(data.draw(entry) for _ in range(m.dim)) for _ in range(n)]
    flat = tuple_embed(m, n, xs)
    assert flat == reference_tuple_embed(m, n, xs)
    assert [tuple(flat[p] for p in slot)
            for slot in slot_layout(m, n)] == xs


# -- sums of admissible sequences ------------------------------------------------


def _slice_pairs():
    """For each algebra of the corpus, every pair of its corpus modules,
    each sliced at every weight of the algebra's partition."""
    by_algebra = {}
    for e in zoo.corpus():
        by_algebra.setdefault(e.algebra_key, []).append((e.key, e.module))
    out = []
    for key, entries in sorted(by_algebra.items()):
        partition = WeightPartition.of(dict(zoo.weight_classes(key)))
        for (km, m), (kn, n) in itertools.combinations_with_replacement(
                entries, 2):
            out.append((f"{km}+{kn}", partition, m, n))
    return out


SLICE_PAIRS = _slice_pairs()


@pytest.mark.parametrize("key,partition,m,n", SLICE_PAIRS,
                         ids=[k for k, *_ in SLICE_PAIRS])
def test_sum_sequence_equals_the_composite_sums(key, partition, m, n):
    for cut_m, cut_n in itertools.product(
            [w for w, _ in partition.classes], repeat=2):
        seq_m = general(slice_by_weight(m, partition, cut_m))
        seq_n = general(slice_by_weight(n, partition, cut_n))
        ref_inc, ref_proj = reference_sum_sequence(seq_m, seq_n)
        try:
            total = sum_sequence(seq_m, seq_n)
        except Exception as exc:
            with pytest.raises(type(exc)):
                admissible_check(ref_inc, ref_proj, partition)
            continue
        assert same_map(total.inclusion, ref_inc)
        assert same_map(total.projection, ref_proj)
