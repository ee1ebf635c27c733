"""Saturation verdicts and isomorphism tests, against the constructions
they replaced.

The references below are how the package used to compute: module_iso ran
its scaled and random search whenever no single hom basis map was
invertible, and every tower stage of certify_principal ran
saturated_check once per (side, variant).  The package now rejects by the
Hom/End dimensions before searching and checks each stage once per side;
these tests require the same results, and count the calls to show the
work is gone.  They drive the certificate search itself, the part of
certify_principal that runs only on modules without a dimension gap, so
that gapped modules such as kronecker/big still exercise it.  That
replay_derivation accepts every corpus certificate is test_yoga's sweep.

certify_principal used to run that search before it read the dimension
gap, and spin used to be a fixpoint over the arrows;
references.search_first_certify keeps both, and the verdicts must agree.

endo_quotient used to reduce the k*d^2 commutators [E_ij, E] in one
system; it now narrows the centraliser of End(M) one endomorphism at a
time, and the sizes of the systems it eliminates show that the stack is
gone.  It used to narrow over all d^2 matrix units at once; it now
narrows each vertex block (w, v) over its d_w*d_v units, and the
unknowns of its intertwiner systems are counted.  test_periods compares
its relations with the stack.

onemotive.synthesize_model used to narrow all d^2 matrix units by every
basis matrix of the realized algebra, one weight at a time; it now
settles the diagonal basis matrices by comparing entries and hands each
other one only the elements it reaches, and the elements it hands to
intertwiners are counted.  test_intertwiners compares its grading with
the commutator stack.

depth_space used to build each stage's whole candidate family before it
contracted the first one, and compared the accumulated relations with
the pairing kernel's basis to certify.  It now builds candidates on
demand and certifies by dimension; the eager construction is kept here
as the reference, and the spins it no longer makes are counted.  The
reference also builds its candidates the way depth used to, as images
and kernels of block_map grids, and contracts them on the flat
submodule (references.flat_relations); depth now reads each candidate
vertex by vertex, and the tests at the end require the same handles and
the same relations candidate by candidate.  At power 1 the sums e + f
and e - f of basis endomorphisms are letters of the hom-closure
alphabet; the reference takes their images and kernels as module maps
(references.sum_images_and_kernels), as depth did in a block of its own.
Depth used to form every sum before its first candidate; it now forms
each when a word first uses it, and the sums formed are counted.
Depth used to solve End(M) and contract candidates at every stage short
of P; it now takes whole each block (v, w) with min(d_v, d_w) at most
the stage (rule R1), and the End bases, powers and candidate families
it no longer builds are counted.

eval used to realize each rational kernel vector, spinning a witness in
a power of M; it now reads the status off the pairing, and the last test
requires that it neither realizes nor spins.  test_periods compares its
statuses with realize_relation's.

certify's saturation checks used to solve End of a stage's middle once
for each side, and End of a stage's sub again where the stage below had
solved it as its middle; the question now hands the bases it solved to
each check, and every hom_space call of each corpus certify question is
counted by the module pair it solves.
"""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiods import exactlin, onemotive, periods, quivalg, yoga, zoo
from qperiods.exactlin import Matrix, rref
from qperiods.onemotive import rational_input, synthesize_model
from qperiods.periods import (
    depth_space,
    endo_quotient,
    period_space,
)
from qperiods.quivalg import (
    FdModule,
    ModuleMap,
    SubmoduleHandle,
    hom_space,
    module_iso,
    module_power,
    spin_pool,
)
from qperiods.yoga import (
    PrincipalityVerdict,
    WeightPartition,
    certify_principal,
    replay_derivation,
)

from references import (
    block_map,
    fixpoint_spin,
    flat_relations,
    kernel,
    search_first_certify,
    sum_images_and_kernels,
)
from strategies import (
    ORACLE_INPUTS,
    linear_projective,
    rebase,
    rebased_modules,
)

CORPUS = {e.key: e for e in zoo.corpus()}


def parts(algebra_key: str) -> WeightPartition:
    return WeightPartition.of(dict(zoo.weight_classes(algebra_key)))


# -- references --------------------------------------------------------------


def reference_module_iso(m: FdModule, n: FdModule,
                         tries: int = 64) -> ModuleMap | None:
    """The search without the Hom/End dimension test.  It takes the
    package's first step, the identity between equal modules, since what
    it checks is the dimension test that follows."""
    if m.algebra != n.algebra or m.dims != n.dims:
        return None
    if m == n:
        return ModuleMap.identity(m)
    homs = hom_space(m, n)
    if not homs:
        return None

    def invertible(f):
        return all(len(rref(b)[1]) == b.nrows for b in f.blocks)

    for f in homs:
        if invertible(f):
            return f
    acc = homs[0]
    for f in homs[1:]:
        acc = acc + f
    if invertible(acc):
        return acc
    for t in range(2, 2 + len(homs)):
        acc = homs[0]
        scale = Fraction(1)
        for f in homs[1:]:
            scale *= t
            acc = acc + f.scale(scale)
        if invertible(acc):
            return acc
    rng = random.Random(20240)
    for _ in range(tries):
        acc = None
        for f in homs:
            term = f.scale(Fraction(rng.randint(-5, 5)))
            acc = term if acc is None else acc + term
        if acc is not None and invertible(acc):
            return acc
    return None


def search(key: str):
    """The certificate search on a corpus module, gapped or not."""
    entry = CORPUS[key]
    return lambda: yoga._certificate_search(
        entry.module, parts(entry.algebra_key), 24)


def assembled_pairs(key: str) -> list:
    """The (module, assembled sum) pairs the certificate search asks
    module_iso about, recorded by a pass-through wrapper."""
    asked = []

    def recording(m, n):
        asked.append((m, n))
        return module_iso(m, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(yoga, "module_iso", recording)
        search(key)()
    return asked


# -- module_iso ----------------------------------------------------------------


def equal_dims_pairs() -> list:
    out = []
    for a in CORPUS.values():
        for b in CORPUS.values():
            if a.algebra_key == b.algebra_key and a.module.dims == b.module.dims:
                out.append((a.key, b.key))
    return out


@pytest.mark.parametrize("left,right", equal_dims_pairs(),
                         ids=[f"{a}-{b}" for a, b in equal_dims_pairs()])
def test_module_iso_equals_the_old_search_on_corpus_pairs(left, right):
    m, n = CORPUS[left].module, CORPUS[right].module
    assert module_iso(m, n) == reference_module_iso(m, n)


@pytest.mark.parametrize("key", [k for k, e in CORPUS.items()
                                 if not e.module.is_semisimple_rep()])
def test_module_iso_equals_the_old_search_on_assembled_sums(key):
    for m, n in assembled_pairs(key):
        assert module_iso(m, n) == reference_module_iso(m, n), key


def test_nonisomorphic_sums_are_rejected_before_any_scaled_try():
    pairs = assembled_pairs("kronecker/big")
    rejected = [(m, n) for m, n in pairs if reference_module_iso(m, n) is None]
    assert rejected, "kronecker/big no longer meets a non-isomorphic sum"
    calls = []
    original = ModuleMap.scale

    def counting(self, c):
        calls.append(c)
        return original(self, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ModuleMap, "scale", counting)
        for m, n in rejected:
            assert module_iso(m, n) is None
            homs = len(hom_space(m, n))
            assert (homs != len(hom_space(m, m))
                    or homs != len(hom_space(n, n)))
    assert calls == []


# -- one saturation verdict per stage and side ---------------------------------


def count_saturation_checks(run) -> list:
    """The (sequence, side) of every saturated_check made while run() goes;
    the sequences are kept alive so that no id is reused."""
    seen = []
    original = yoga.saturated_check

    def counting(seq, side, *known):
        seen.append((seq, side))
        return original(seq, side, *known)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(yoga, "saturated_check", counting)
        run()
    return seen


@pytest.mark.parametrize("key", ["kronecker/big", "square/proj1+s4",
                                 "a3/tower"])
def test_certify_checks_each_stage_once_per_side(key):
    seen = count_saturation_checks(search(key))
    assert seen, key
    keys = [(id(seq), side) for seq, side in seen]
    assert len(keys) == len(set(keys)), key


def module_key(m: FdModule) -> tuple:
    return (m.dims, tuple((name, mat.rows) for name, mat in m.maps.items()))


@pytest.mark.parametrize("entry", zoo.corpus(), ids=lambda e: e.key)
def test_certify_solves_each_hom_space_once(entry):
    # every hom_space call of one certify question, by the module pair it
    # solves, in every namespace that calls it
    calls = []
    original = quivalg.hom_space

    def counting(m, n):
        calls.append((module_key(m), module_key(n)))
        return original(m, n)

    with pytest.MonkeyPatch.context() as mp:
        for namespace in (quivalg, periods, yoga):
            mp.setattr(namespace, "hom_space", counting)
        certify_principal(entry.module, parts(entry.algebra_key))
    assert len(calls) == len(set(calls)), entry.key


def test_replay_checks_every_stage_itself():
    entry = CORPUS["a3/tower"]
    partition = parts(entry.algebra_key)
    verdict = certify_principal(entry.module, partition)
    assert verdict.status == "Certified"
    seen = count_saturation_checks(
        lambda: replay_derivation(entry.module, partition, verdict))
    assert [side for _, side in seen] == [
        step["side"] for step in verdict.plan["stages"]]


def test_replay_refuses_a_right_stage_after_a_companion_unchecked():
    entry = CORPUS["a3/tower"]
    partition = parts(entry.algebra_key)
    verdict = certify_principal(entry.module, partition)
    stages = verdict.plan["stages"]
    assert len(stages) >= 2
    forged = dict(verdict.plan, stages=[stages[0]] + [
        {"side": "right", "variant": "plain"}] + stages[2:])
    result = []
    seen = count_saturation_checks(lambda: result.append(replay_derivation(
        entry.module, partition,
        PrincipalityVerdict("Certified", verdict.derivation, verdict.dims,
                            forged))))
    assert result == [False]
    assert len(seen) == 1


# -- the gap before the search, and spin from the path basis -------------------


def partition_for(m: FdModule) -> WeightPartition:
    """The standing weights of m's algebra; the linear quiver
    x0 -> x1 -> ... gets weights descending along its arrows."""
    for e in CORPUS.values():
        if e.module.algebra == m.algebra:
            return parts(e.algebra_key)
    return WeightPartition.of({-i: (v,) for i, v in
                               enumerate(m.algebra.vertices)})


def derivation_data(node) -> tuple | None:
    if node is None:
        return None
    return (node.rule, node.statement, node.data,
            tuple(derivation_data(c) for c in node.children))


def assert_certify_matches_search_first(m: FdModule, label: str):
    partition = partition_for(m)
    new = certify_principal(m, partition)
    old = search_first_certify(m, partition)
    assert (new.status, new.dims, new.plan, derivation_data(new.derivation)) \
        == (old.status, old.dims, old.plan,
            derivation_data(old.derivation)), label
    # the search that ran first never certified a gapped module
    if old.dims["endo_quotient"] > old.dims["period_space"]:
        assert old.status == "Refuted", label


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_certify_equals_the_search_first_order(key, m):
    assert_certify_matches_search_first(m, key)


@settings(max_examples=20, deadline=None)
@given(rebased_modules())
def test_certify_equals_the_search_first_order_on_rebased_modules(m):
    assert_certify_matches_search_first(m, repr(m))


def test_certify_refutes_a_gapped_module_without_searching():
    entry = CORPUS["kronecker/big"]
    calls = []
    original = yoga._certificate_search

    def counting(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(yoga, "_certificate_search", counting)
        verdict = certify_principal(entry.module, parts(entry.algebra_key))
    assert verdict.status == "Refuted"
    assert calls == []
    assert search(entry.key)() is None


SMALL_MODULES = [m for _, m in ORACLE_INPUTS if m.dim <= 8]


@st.composite
def spin_inputs(draw):
    """A module of dimension at most 8, plain or re-based, and up to four
    generators with small integer entries, each supported at some of the
    vertices, so that a generator at a source alone comes up often."""
    m = draw(st.one_of(st.sampled_from(SMALL_MODULES),
                       rebased_modules().filter(lambda x: x.dim <= 8)))
    vertices = m.algebra.vertices
    vectors = []
    for _ in range(draw(st.integers(0, 4))):
        support = draw(st.one_of(
            st.sampled_from(vertices).map(lambda v: {v}),
            st.sets(st.sampled_from(vertices), min_size=1)))
        entries = draw(st.lists(st.integers(-2, 2), min_size=m.dim,
                                max_size=m.dim))
        vectors.append(tuple(
            Fraction(entries[i]) if v in support else Fraction(0)
            for v in vertices for i in m.vertex_range(v)))
    return m, vectors


@settings(max_examples=60, deadline=None)
@given(spin_inputs())
def test_spin_equals_the_fixpoint(args):
    m, vectors = args
    assert (SubmoduleHandle.spin(m, vectors).spaces
            == fixpoint_spin(m, vectors).spaces)


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_spin_equals_the_fixpoint_on_each_coordinate(key, m):
    for v in m.algebra.vertices:
        coords = [m.embed_vertex_vector(v, row)
                  for row in Matrix.identity(m.vdim(v)).rows]
        for gens in [coords] + [[c] for c in coords]:
            assert (SubmoduleHandle.spin(m, gens).spaces
                    == fixpoint_spin(m, gens).spaces), (key, v)


# -- endo_quotient -------------------------------------------------------------


def eliminated_row_counts(run) -> list:
    """The row count of every system that exactlin.kernel_basis or
    exactlin.rref is handed while run() goes."""
    rows = []

    def recording(original):
        def wrapper(m, *args):
            rows.append(m.nrows)
            return original(m, *args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "kernel_basis", recording(exactlin.kernel_basis))
        mp.setattr(exactlin, "rref", recording(exactlin.rref))
        run()
    return rows


def test_endo_quotient_eliminates_no_system_over_d_squared_rows():
    m = module_power(CORPUS["a2/p1"].module, 3)
    d = m.dim
    # the commutator stack had one row per basis endomorphism and (i, j)
    assert len(hom_space(m, m)) * d * d == 324
    rows = eliminated_row_counts(lambda: endo_quotient(m))
    assert rows
    assert max(rows) <= d * d


def test_endo_quotient_of_scalar_endomorphisms_eliminates_only_hom():
    m = linear_projective(10)
    assert len(hom_space(m, m)) == 1
    hom_rows = eliminated_row_counts(lambda: hom_space(m, m))
    assert eliminated_row_counts(lambda: endo_quotient(m)) == hom_rows


def test_endo_quotient_of_vertex_scalar_endomorphisms_eliminates_only_hom():
    # End(S1 + S2) is Q x Q: no basis map is scalar, but each is scalar
    # at every vertex, so every block is kept whole or emptied unsolved
    m = CORPUS["a2/s1+s2"].module
    assert len(hom_space(m, m)) == 2
    hom_rows = eliminated_row_counts(lambda: hom_space(m, m))
    spaces = []
    assert eliminated_row_counts(
        lambda: spaces.append(endo_quotient(m))) == hom_rows
    # C is Q x Q, the two vertex blocks; the blocks between them are 0
    assert spaces[0].dim == 2


@pytest.mark.parametrize("m", [module_power(CORPUS["a2/p1"].module, 3),
                               module_power(CORPUS["a3/proj"].module, 2)],
                         ids=["a2/p1^3", "a3/proj^2"])
def test_endo_quotient_solves_no_system_wider_than_a_vertex_block(m):
    unknowns = []
    narrow = periods.intertwiners

    def recording(basis, ncols, pairs):
        unknowns.append(len(basis))
        return narrow(basis, ncols, pairs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periods, "intertwiners", recording)
        endo_quotient(m)
    assert unknowns
    assert max(unknowns) <= max(a * b for a in m.dims for b in m.dims)
    assert max(unknowns) < m.dim ** 2


def test_the_matrix_model_narrows_only_what_its_basis_matrices_reach():
    # narrowing every unit of each weight by every basis matrix handed
    # intertwiners 1,508 element-pair visits here
    visits = []
    narrow = onemotive.intertwiners

    def recording(basis, ncols, pairs):
        visits.append(len(basis) * len(pairs))
        return narrow(basis, ncols, pairs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(onemotive, "intertwiners", recording)
        assert synthesize_model(rational_input(5, 2, 2)).matches
    assert 0 < sum(visits) <= 300


# -- depth_space ---------------------------------------------------------------


def reference_candidate_handles(m: FdModule, power: int, ambient: FdModule,
                                spin_bound: int, endos) -> list:
    """Every candidate of a stage, built before the first contraction."""
    seen, out = set(), []

    def push(h):
        if h.spaces not in seen:
            seen.add(h.spaces)
            out.append(h)

    alphabet = [ModuleMap.identity(m)] + list(endos)
    combos = [dict()]
    for j in range(power):
        for a in range(1, len(alphabet)):
            combos.append({j: a})
    for j, k in itertools.combinations(range(power), 2):
        for a in range(1, len(alphabet)):
            for b in range(1, len(alphabet)):
                combos.append({j: a, k: b})
    for combo in combos:
        entries = [alphabet[combo.get(j, 0)] for j in range(power)]
        push(block_map(m, [m], ambient, [m] * power,
                       {(j, 0): f for j, f in enumerate(entries)}).image())
        push(kernel(block_map(ambient, [m] * power, m, [m],
                              {(0, j): f for j, f in enumerate(entries)})))
    if power == 1:
        for h in sum_images_and_kernels(endos):
            push(h)
    if power <= 2:
        for h in spin_pool(ambient, spin_bound):
            push(h)
    return out


def reference_depth_space(m: FdModule, k: int, spin_bound: int) -> tuple:
    """(relations, per-stage relation dims, certified) as depth_space
    computed them with eager candidates and basis comparisons."""
    oracle = period_space(m)
    endos = hom_space(m, m)
    acc = exactlin.Subspace.zero_space(m.dim ** 2)
    per_stage = []
    certified = acc == oracle.relations
    for power in range(1, k + 1):
        if certified:
            per_stage.append(acc.dim)
            continue
        ambient = module_power(m, power)
        for handle in reference_candidate_handles(m, power, ambient,
                                                  spin_bound, endos):
            rel = flat_relations(m, power, ambient, handle)
            if rel.dim == 0:
                continue
            grown = acc.add(rel)
            if grown.dim != acc.dim:
                acc = grown
                if acc == oracle.relations:
                    break
        assert oracle.relations.contains(acc)
        per_stage.append(acc.dim)
        if acc == oracle.relations:
            certified = True
    return acc, tuple(per_stage), acc == oracle.relations


def assert_depth_matches_reference(m: FdModule, label: str):
    for k in sorted({1, m.dim}):
        for spin_bound in (1, 2):
            res = depth_space(m, k, spin_bound=spin_bound)
            assert (res.space.relations, res.per_stage_relation_dims,
                    res.certified) == reference_depth_space(
                        m, k, spin_bound), (label, k, spin_bound)


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_depth_space_equals_the_eager_construction(key, m):
    assert_depth_matches_reference(m, key)


@settings(max_examples=25, deadline=None)
@given(rebased_modules())
def test_depth_space_equals_the_eager_construction_on_rebased_modules(m):
    assert_depth_matches_reference(m, repr(m))


def count_spins(run) -> int:
    count = 0
    original = SubmoduleHandle.spin.__func__

    def counting(cls, ambient, vectors):
        nonlocal count
        count += 1
        return original(cls, ambient, vectors)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SubmoduleHandle, "spin", classmethod(counting))
        run()
    return count


def test_depth_spins_no_more_at_a_wider_spin_box_once_certified():
    m = module_power(CORPUS["a3/proj"].module, 2)
    assert depth_space(m, 2, spin_bound=64).certified
    assert (count_spins(lambda: depth_space(m, 2, spin_bound=64))
            == count_spins(lambda: depth_space(m, 2, spin_bound=1)))


def depth_calls(monkeypatch, m: FdModule, k: int) -> list:
    """The hom_space, module_power and _candidate_handles calls of one
    depth_space(m, k), by name, with module_power's power."""
    calls = []
    for name in ("hom_space", "module_power", "_candidate_handles"):
        def counting(*args, name=name, original=getattr(periods, name)):
            calls.append((name, args[1]) if name == "module_power"
                         else name)
            return original(*args)
        monkeypatch.setattr(periods, name, counting)
    depth_space(m, k)
    return calls


@pytest.mark.parametrize("m", [CORPUS["a2/p1"].module, linear_projective(6)],
                         ids=["a2/p1", "A_6/P0"])
def test_depth_with_every_block_settled_builds_no_candidates(monkeypatch, m):
    # every vertex is one-dimensional, so rule R1 settles every block at
    # stage 1 and depth needs neither End(M), a power of M nor a candidate
    assert depth_calls(monkeypatch, m, m.dim) == []


def test_depth_builds_no_power_that_rule_r1_settles(monkeypatch):
    # loop2/reg's one block is two-dimensional: stage 1 runs candidates
    # and stays short of P, and stage 2 takes the block whole
    m = CORPUS["loop2/reg"].module
    assert depth_space(m, 2).per_stage_relation_dims == (1, 2)
    calls = depth_calls(monkeypatch, m, 2)
    assert ("module_power", 2) not in calls
    assert calls[:2] == ["hom_space", ("module_power", 1)]


# -- depth's candidates, read vertex by vertex -------------------------------


def block_map_hom_closure(m: FdModule, power: int, ambient: FdModule,
                          endos) -> list:
    """The hom-closure family in _candidate_handles' order, each column
    image and row kernel taken of a block_map between direct sums."""
    out = []
    alphabet = [ModuleMap.identity(m)] + list(endos)
    letters = range(1, len(alphabet))
    combos = ([{}] + [{j: a} for j in range(power) for a in letters]
              + [{j: a, k: b}
                 for j, k in itertools.combinations(range(power), 2)
                 for a in letters for b in letters])
    for combo in combos:
        entries = [alphabet[combo.get(j, 0)] for j in range(power)]
        out.append(block_map(m, [m], ambient, [m] * power,
                             {(j, 0): f for j, f in enumerate(entries)}
                             ).image())
        out.append(kernel(block_map(ambient, [m] * power, m, [m],
                                    {(0, j): f for j, f in enumerate(entries)}
                                    )))
    return out


def assert_candidates_match_block_maps(m: FdModule, label: str):
    endos = hom_space(m, m)
    for power in (1, 2, 3):
        ambient = module_power(m, power)
        expected = block_map_hom_closure(m, power, ambient, endos)
        got = list(itertools.islice(periods._candidate_handles(
            m, power, ambient, 1, endos), len(expected)))
        assert got == expected, (label, power)


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_candidates_equal_the_block_map_images_and_kernels(key, m):
    assert_candidates_match_block_maps(m, key)


@settings(max_examples=15, deadline=None)
@given(rebased_modules())
def test_candidates_equal_the_block_map_images_and_kernels_on_rebased(m):
    assert_candidates_match_block_maps(m, repr(m))


def assert_power_one_sums_match_module_maps(m: FdModule, label: str):
    """At power 1 the hom-closure family is followed by the images and
    kernels of e + f and e - f, in the order and as the Subspaces that
    the module maps' image and kernel give."""
    endos = hom_space(m, m)
    ambient = module_power(m, 1)
    closure = block_map_hom_closure(m, 1, ambient, endos)
    expected = closure + sum_images_and_kernels(endos)
    got = list(itertools.islice(periods._candidate_handles(
        m, 1, ambient, 1, endos), len(expected)))
    assert got == expected, label


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_power_one_sums_equal_the_module_map_images_and_kernels(key, m):
    assert_power_one_sums_match_module_maps(m, key)


@settings(max_examples=15, deadline=None)
@given(rebased_modules())
def test_power_one_sums_equal_the_module_map_images_and_kernels_on_rebased(
        m):
    assert_power_one_sums_match_module_maps(m, repr(m))


def test_sum_letters_are_formed_when_a_word_first_uses_them(monkeypatch):
    # a3/tower has five basis endomorphisms, so power 1 has twenty sum
    # letters after the six hom-closure words (image and kernel each)
    m = CORPUS["a3/tower"].module
    endos = hom_space(m, m)
    assert len(endos) == 5
    formed = []
    for name in ("__add__", "__sub__"):
        def counting(f, g, name=name, original=getattr(ModuleMap, name)):
            formed.append(name)
            return original(f, g)
        monkeypatch.setattr(ModuleMap, name, counting)
    handles = periods._candidate_handles(m, 1, m, 1, endos)
    list(itertools.islice(handles, 2 * (1 + len(endos))))
    assert formed == []
    list(itertools.islice(handles, 2))      # the image and kernel of e + f
    assert formed == ["__add__"]
    list(itertools.islice(handles, 2))      # and of e - f
    assert formed == ["__add__", "__sub__"]
    list(handles)                           # the other sums, then spins
    assert formed == ["__add__", "__sub__"] * 10


@pytest.mark.parametrize("key,m", ORACLE_INPUTS,
                         ids=[key for key, _ in ORACLE_INPUTS])
def test_vertex_relations_equal_the_flat_construction(key, m):
    endos = hom_space(m, m)
    for power in (1, 2):
        ambient = module_power(m, power)
        seen = set()
        for handle in periods._candidate_handles(m, power, ambient, 1,
                                                 endos):
            if handle.spaces in seen:
                continue
            seen.add(handle.spaces)
            assert periods.relation_from_submodule(m, handle) == \
                flat_relations(m, power, ambient, handle), (key, power)


def test_a_candidate_that_is_not_a_submodule_escapes_the_pairing_kernel(
        monkeypatch):
    # on a2/p1^2 = (Q^2 -> Q^2), all of v1 and nothing of v2 is not kept
    # by the arrow; a vector at v1 contracted with a dual vector at v2
    # pairs to nonzero with the arrow.  Rule R1 settles every block of
    # a2/p1 at stage 1, so its candidates never run; a2/p1^2's (v1, v1)
    # block stays open at stage 1
    m = module_power(CORPUS["a2/p1"].module, 2)
    not_a_sub = SubmoduleHandle(
        m, [exactlin.Subspace.full_space(2), exactlin.Subspace.zero_space(2)],
        check=False)
    assert depth_space(m, 1).certified
    monkeypatch.setattr(periods, "_candidate_handles",
                        lambda *args: iter([not_a_sub]))
    with pytest.raises(AssertionError, match="escaped the pairing kernel"):
        depth_space(m, 1)


KRONECKER_BIG = CORPUS["kronecker/big"].module


@pytest.mark.parametrize("m", [
    KRONECKER_BIG,
    rebase(module_power(KRONECKER_BIG, 2),
           [Matrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]),
            Matrix([[2, 1], [1, 1]])]),
], ids=["kronecker/big", "kronecker/big^2 rebased"])
def test_a_candidate_kept_by_one_parallel_arrow_escapes_the_pairing_kernel(
        monkeypatch, m):
    # the parallel arrows a and b both map k1 to k2, so rho(A)'s (k2, k1)
    # block is spanned by two paths; the kernel of a at k1 with nothing
    # at k2 is kept by a but not by b, so some relation it contracts
    # pairs to nonzero with b and with the block's basis
    a, b = m.maps["a"], m.maps["b"]
    kept = exactlin.kernel_subspace(a)
    assert len(periods._path_blocks(m)["k2", "k1"]) == 2
    columns = [Matrix.unvec(v, a.ncols, 1) for v in kept.basis_vectors()]
    assert all((a * c).is_zero() for c in columns)
    assert not all((b * c).is_zero() for c in columns)
    not_a_sub = SubmoduleHandle(
        m, [kept, exactlin.Subspace.zero_space(m.vdim("k2"))], check=False)
    assert depth_space(m, 1).certified
    monkeypatch.setattr(periods, "_candidate_handles",
                        lambda *args: iter([not_a_sub]))
    with pytest.raises(AssertionError, match="escaped the pairing kernel"):
        depth_space(m, 1)


# the two escape cases above, a2/p1^2's non-submodule handle, and a scaled
# omega row in realize, run in a child under python -O
UNDER_O = """
import sys
from qperiods import exactlin, periods, quivalg, zoo
from qperiods.exactlin import Matrix
from qperiods.quivalg import SubmoduleHandle

m = quivalg.module_power(zoo.get_module("a2/p1"), 2)
not_a_sub = SubmoduleHandle(
    m, [exactlin.Subspace.full_space(2), exactlin.Subspace.zero_space(2)],
    check=False)
periods._candidate_handles = lambda *args: iter([not_a_sub])
try:
    periods.depth_space(m, 1)
except AssertionError as exc:
    print("depth:", exc)
exact = periods.rref

def scaled(mat):
    red, pivots = exact(mat)
    rows = list(red.rows)
    rows[0] = tuple(2 * x for x in rows[0])
    return Matrix._wrap(tuple(rows), red.ncols), pivots

periods.rref = scaled
try:
    periods.realize_relation(zoo.get_module("loop2/reg"),
                             Matrix([[1, 2], [3, -1]]))
except AssertionError as exc:
    print("realize:", exc)
print("optimize:", sys.flags.optimize)
"""


def test_depth_and_realize_checks_survive_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", UNDER_O],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "depth: a contracted relation escaped the pairing kernel",
        "realize: rank factorization failed",
        "optimize: 1",
    ]


def test_eval_neither_realizes_nor_spins(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval realized or spun")

    rationals = exactlin.NumberField([0, 1])
    points = [(m, periods.ComparisonPoint(rationals, tuple(
        rationals.elem([0 if arrows else 1])
        for _, arrows in m.algebra.basis))) for _, m in ORACLE_INPUTS]
    monkeypatch.setattr(periods, "realize_relation", refuse)
    monkeypatch.setattr(SubmoduleHandle, "spin", refuse)
    statuses = set()
    for m, point in points:
        statuses.update(periods.eval_and_conjecture(m, point).statuses)
    assert statuses == {"realized", "unknown"}
