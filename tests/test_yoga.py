"""Admissible sequences, saturation, universal objects, certification.

The certification sweep is frozen as a full status table over the
bundled corpus; certificates are replayed from their recorded plans,
universal lifts and extensions are checked extremal against the
bounded brute-force search, and they and the outward hom tests are
checked equal to the duality and trace-quotient constructions of
tests/references.py.  Each slice is checked equal to the general
construction it replaced: a coordinate handle's sub and quotient
modules, their inclusion and projection, and the exactness check.
"""

import pytest
from hypothesis import given, settings

from qperiods import zoo
from qperiods.exactlin import Subspace
from qperiods.quivalg import (
    ModuleMap,
    SubmoduleHandle,
    direct_sum,
    hom_space,
    module_power,
)
from qperiods.yoga import (
    HypothesisFailed,
    OrthogonalityFailure,
    SupportViolation,
    WeightPartition,
    bounded_lift_search,
    certify_principal,
    replay_derivation,
    _apply_stage,
    _outward_homs_vanish,
    _sum_conditions,
    saturated_check,
    slice_by_weight,
    universal_extension,
    universal_lift,
)

import references
from strategies import rebased_modules


def parts(algebra_key: str) -> WeightPartition:
    return WeightPartition.of(dict(zoo.weight_classes(algebra_key)))


A2 = parts("a2")
A3 = parts("a3")


# ---------------------------------------------------------------------------
# partitions and slicing


def test_partition_validation():
    with pytest.raises(ValueError):
        WeightPartition.of({0: ("v1",), -1: ("v1",)})   # vertex twice
    p = WeightPartition.of({0: ("v1",), -1: ("v2",)})
    assert p.classes == ((0, ("v1",)), (-1, ("v2",)))
    assert references.negate(p).classes == ((1, ("v2",)), (0, ("v1",)))
    assert references.negate(references.negate(p)) == p
    with pytest.raises(ValueError):
        parts("a2").validate_for(zoo.algebra("a3"))


def test_partition_rejects_climbing_arrows():
    # weights upside down: the arrow of a2 would climb from -1 to 0
    bad = WeightPartition.of({0: ("v2",), -1: ("v1",)})
    with pytest.raises(OrthogonalityFailure):
        slice_by_weight(zoo.get_module("a2/p1"), bad, -1)


def test_slice_by_weight_p1():
    seq = slice_by_weight(zoo.get_module("a2/p1"), A2, -1)
    assert seq.sub.dims == (0, 1)
    assert seq.module.dims == (1, 1)
    assert seq.quot.dims == (1, 0)
    assert seq.low_weights == frozenset({-1})
    assert seq.high_weights == frozenset({0})


def test_admissible_check_rejects_non_exact():
    m = zoo.get_module("a2/p1")
    seq = references.general(slice_by_weight(m, A2, -1))
    # the identity is surjective but its kernel misses the included socle
    with pytest.raises(references.NotExact):
        references.admissible_check(seq.inclusion, ModuleMap.identity(m), A2)


def test_support_violation():
    m = zoo.get_module("a2/p1+s2")
    # cutting at weight 0 puts everything in the sub and nothing above
    seq = slice_by_weight(m, A2, 0)
    assert seq.quot.dim == 0
    # a partition that misses a vertex is refused
    with pytest.raises(SupportViolation):
        slice_by_weight(m, WeightPartition.of({0: ("v1",)}), 0)
    # a general sub that reaches weight 0 under a quotient also at
    # weight 0 fails
    with pytest.raises(SupportViolation):
        full = SubmoduleHandle.spin(m, [(1, 0, 0)])
        references.admissible_check(references.inclusion(full),
                                    references.quotient_module(full)[1], A2)


def reference_restriction_rank(whole, side):
    """The rank of the maps that the endomorphisms of the middle induce
    on the quotient (right) or the sub (left) of a general sequence,
    descended along its projection or factored through its inclusion."""
    endos = hom_space(whole.module, whole.module)
    if side == "right":
        stage = whole.quot
        induced = [references.factor_through_quotient(
            references.compose(whole.projection, f), whole.sub_handle)
            for f in endos]
    else:
        stage = whole.sub
        induced = [references.factor_through_sub(
            references.compose(f, whole.inclusion), whole.sub_handle)
            for f in endos]
    return Subspace(sum(d * d for d in stage.dims),
                    [references.map_vec(f) for f in induced]).dim


def assert_slice_matches_the_general_construction(seq, cut, label):
    """The slice's ends and weights equal those of the coordinate handle
    cut at the same weight, general(seq) passes admissible_check with the
    same weights and handle, and saturated_check's restriction ranks
    equal those of the maps induced through the inclusion and projection."""
    old = references.general_slice(seq.module, seq.partition, cut)
    assert seq.sub == old.sub and seq.quot == old.quot, label
    assert seq.low_weights == old.low_weights, label
    assert seq.high_weights == old.high_weights, label
    rebuilt = references.general(seq)
    assert rebuilt.low_weights == seq.low_weights, label
    assert rebuilt.high_weights == seq.high_weights, label
    assert rebuilt.sub_handle == old.sub_handle, label
    for side in ("left", "right"):
        assert (saturated_check(seq, side).conditions["restriction_rank"]
                == reference_restriction_rank(old, side)), (label, side)


# ---------------------------------------------------------------------------
# saturation


def test_p1_socle_sequence_right_saturated():
    seq = slice_by_weight(zoo.get_module("a2/p1"), A2, -1)
    v = saturated_check(seq, "right")
    assert v.status == "certified"
    assert v.conditions == {
        "restriction_surjective": True,
        "restriction_rank": 1,
        "end_stage_dim": 1,
        "end_stage_semisimple": True,
        "maps_into_low_classes_vanish": True,
    }
    assert "splits" in v.splitness
    left = saturated_check(seq, "left")
    assert left.status == "certified"
    assert "maps_from_high_classes_vanish" in left.conditions


CORPUS_SLICES = references.corpus_slices()


def test_slices_equal_the_general_construction():
    assert len(CORPUS_SLICES) == 96
    for label, _, cut, seq in CORPUS_SLICES:
        assert_slice_matches_the_general_construction(seq, cut, label)


@settings(max_examples=20, deadline=None)
@given(rebased_modules())
def test_slices_equal_the_general_construction_on_rebased_modules(m):
    key = next(e.algebra_key for e in zoo.corpus()
               if e.module.algebra == m.algebra)
    partition = parts(key)
    for w, _ in partition.classes:
        assert_slice_matches_the_general_construction(
            slice_by_weight(m, partition, w), w, (key, w))


def test_saturation_mirrors_through_duality():
    assert len(CORPUS_SLICES) == 96
    for label, _, _, seq in CORPUS_SLICES:
        dual = references.dual_sequence(seq)
        assert (saturated_check(seq, "right").status
                == saturated_check(dual, "left").status), label
        assert (saturated_check(seq, "left").status
                == saturated_check(dual, "right").status), label


def test_saturated_sum_check():
    """The left sum rule certify absorbs companions with."""
    proj = zoo.get_module("a3/proj")
    extra = zoo.get_module("a3/s_wm2")
    seq = slice_by_weight(proj, A3, -1)
    assert saturated_check(seq, "left").status == "certified"
    ok, conditions = _sum_conditions(seq, extra)
    assert ok and all(conditions.values())
    # the extra summand lies below the cut, so the sub absorbs it when
    # the enlarged middle is sliced there; the quotient stays
    summed = slice_by_weight(direct_sum([proj, extra]), A3, -1)
    assert summed.module.dims == (1, 1, 2)
    assert summed.sub.dims == (0, 1, 2) and summed.quot == seq.quot
    # an extra summand that admits maps into the sub breaks the rule
    ok, conditions = _sum_conditions(slice_by_weight(proj, A3, -2), extra)
    assert not ok
    assert not conditions["sub_homs_vanish"]
    # slicing cannot absorb a companion that reaches above the cut
    with pytest.raises(AssertionError, match="above the stage's cut"):
        _apply_stage(A3, seq, "left", "plain", (proj,), None,
                     saturated_check(seq, "left"))


# ---------------------------------------------------------------------------
# universal lifts and extensions


def test_universal_lift_degenerate_ends():
    seq = slice_by_weight(zoo.get_module("a2/p1"), A2, -1)
    assert universal_lift(seq, SubmoduleHandle.zero(seq.quot)).dim == 0
    lift = universal_lift(seq, SubmoduleHandle.full(seq.quot))
    assert lift.is_full()          # P1 is generated above its socle


def test_universal_lift_split_case():
    m = zoo.get_module("a2/p1+s1")
    seq = slice_by_weight(m, A2, -1)
    # the quotient is two copies of the top simple; the split one lifts
    # to a one-dimensional submodule, the projective one drags its socle
    split_coord = SubmoduleHandle.spin(seq.quot, [(0, 1)])
    lift = universal_lift(seq, split_coord)
    assert lift.dim in (1, 2)
    assert not lift.is_full()


def test_universal_extension_essential_socle():
    seq = slice_by_weight(zoo.get_module("a2/p1"), A2, -1)
    # the socle is essential: nothing meets it trivially except zero
    assert universal_extension(seq, SubmoduleHandle.zero(seq.sub)).dim == 0
    full = universal_extension(seq, SubmoduleHandle.full(seq.sub))
    assert full.is_full()


LIFT_FIXTURES = [("a2/p1", -1), ("a2/p1+s2", -1), ("a2/p1+s1", -1),
                 ("a3/proj", -1), ("a3/proj", -2), ("a3/rad", -2),
                 ("a3/tower", -1), ("a3yx/p0", -1), ("square/proj1", -1),
                 ("kronecker/proj1", -1), ("star/all", -1)]


def test_universal_objects_beat_bounded_search():
    assert len(LIFT_FIXTURES) >= 10
    for key, cut in LIFT_FIXTURES:
        m = zoo.get_module(key)
        seq = slice_by_weight(m, parts(key.split("/")[0]), cut)
        target = SubmoduleHandle.full(seq.quot)
        lift = universal_lift(seq, target)
        for candidate in bounded_lift_search(seq, target):
            assert candidate.contains(lift), (key, cut)
        ext = universal_extension(seq, SubmoduleHandle.zero(seq.sub))
        for candidate in references.bounded_extension_search(
                seq, SubmoduleHandle.zero(seq.sub)):
            assert ext.contains(candidate), (key, cut)


def assert_fixpoints_match_references(seq, label, count):
    """Lifts of zero, all and count spun targets, extensions of the
    same in the sub, and both outward hom tests, against the references."""
    for n1 in references.targets(seq.quot, count):
        assert universal_lift(seq, n1) == references.lift(seq, n1), label
    for n0 in references.targets(seq.sub, count):
        assert (universal_extension(seq, n0)
                == references.extension(seq, n0)), label
    for side in ("left", "right"):
        assert (_outward_homs_vanish(seq, side)
                == references.outward_homs_vanish(seq, side)), (label, side)


def assert_clears_matches_reference(seq_m, seq_n, label):
    _, conditions = references.sum_conditions(seq_m, seq_n)
    assert (conditions["cokernel_clears_high_classes"]
            == references.cokernel_clears(seq_m, seq_n)), label


def assert_absorbs_like_the_sum(seq, cut, c, label):
    """The sum rule on seq, cut at cut, and the summand C, against the
    general sum of seq and C -> C -> 0: the same conditions, and when C
    lies at or below the cut, the slice of M + C there is that sum."""
    trivial = references.trivial_sub_sequence(c, seq.partition)
    assert_clears_matches_reference(seq, trivial, label)
    assert (_sum_conditions(seq, c)
            == references.sum_conditions(seq, trivial)), label
    if any(w > cut for w in seq.partition.support_weights(c)):
        return False
    sliced = slice_by_weight(direct_sum([seq.module, c]), seq.partition, cut)
    summed = references.sum_sequence(references.general(seq), trivial)
    assert sliced.module == summed.module, label
    assert sliced.sub == summed.sub and sliced.quot == summed.quot, label
    assert sliced.low_weights == summed.low_weights, label
    assert sliced.high_weights == summed.high_weights, label
    whole = references.general(sliced)
    assert whole.inclusion.blocks == summed.inclusion.blocks, label
    assert whole.projection.blocks == summed.projection.blocks, label
    assert whole.sub_handle == summed.sub_handle, label
    return True


def test_fixpoints_equal_the_reference_constructions():
    slices_by_algebra = {}
    for label, key, cut, seq in CORPUS_SLICES:
        assert_fixpoints_match_references(seq, label, 12)
        slices_by_algebra.setdefault(key, []).append((cut, seq))
    pairs = absorbed = 0
    for entry in zoo.corpus():
        for cut, seq in slices_by_algebra[entry.algebra_key]:
            absorbed += assert_absorbs_like_the_sum(seq, cut, entry.module,
                                                    entry.key)
            pairs += 1
    assert pairs == 632 and absorbed > 0


@settings(max_examples=20, deadline=None)
@given(rebased_modules())
def test_fixpoints_equal_the_references_on_rebased_modules(m):
    key = next(e.algebra_key for e in zoo.corpus()
               if e.module.algebra == m.algebra)
    partition = parts(key)
    cuts = [w for w, _ in partition.classes]
    seqs = [slice_by_weight(m, partition, w) for w in cuts]
    for cut, seq in zip(cuts, seqs):
        assert_fixpoints_match_references(seq, seq, 4)
        for other in seqs:
            assert_clears_matches_reference(seq, references.general(other),
                                            (seq, other))
        assert_absorbs_like_the_sum(seq, cut, m, seq)


# ---------------------------------------------------------------------------
# certification sweep, frozen

SWEEP = {
    "a2/s1": ("C", 1, 1),
    "a2/s2": ("C", 1, 1),
    "a2/p1": ("R", 4, 3),
    "a2/s1+s2": ("C", 2, 2),
    "a2/p1+s2": ("C", 3, 3),
    "a2/p1^2": ("R", 4, 3),
    "a2/p1+s1": ("C", 3, 3),
    "a3/s_w0": ("C", 1, 1),
    "a3/s_wm1": ("C", 1, 1),
    "a3/s_wm2": ("C", 1, 1),
    "a3/proj": ("R", 9, 6),
    "a3/rad": ("R", 4, 3),
    "a3/tower": ("C", 6, 6),
    "a3/rad+s2": ("C", 3, 3),
    "a3/ss": ("C", 3, 3),
    "a3yx/p0": ("R", 4, 3),
    "a3yx/p1": ("R", 4, 3),
    "a3yx/mix": ("U", 5, 5),
    "a3yx/s_w0": ("C", 1, 1),
    "a3yx/p0+s_wm2": ("R", 5, 4),
    "square/proj1": ("R", 16, 9),
    "square/rad": ("R", 9, 5),
    "square/s1": ("C", 1, 1),
    "square/s4": ("C", 1, 1),
    "square/proj1+s4": ("R", 13, 9),
    "square/proj2": ("R", 4, 3),
    "square/proj2+s2+s3": ("C", 4, 4),
    "kronecker/s1": ("C", 1, 1),
    "kronecker/s2": ("C", 1, 1),
    "kronecker/reg0": ("R", 4, 3),
    "kronecker/reg1": ("R", 4, 3),
    "kronecker/proj1": ("R", 9, 4),
    "kronecker/proj1+s2": ("C", 4, 4),
    "kronecker/big": ("R", 9, 4),
    "loop2/s": ("C", 1, 1),
    "loop2/reg": ("U", 2, 2),
    "star/p_u1": ("R", 4, 3),
    "star/s_c": ("C", 1, 1),
    "star/all": ("R", 16, 7),
}


def test_certification_sweep_matches_frozen_table():
    seen = {}
    for entry in zoo.corpus():
        partition = parts(entry.algebra_key)
        verdict = certify_principal(entry.module, partition)
        seen[entry.key] = (verdict.status[0],
                           verdict.dims["endo_quotient"],
                           verdict.dims["period_space"])
        if verdict.status == "Certified":
            assert verdict.dims["endo_quotient"] == \
                verdict.dims["period_space"], entry.key
            assert replay_derivation(entry.module, partition, verdict), \
                entry.key
        if verdict.status == "Refuted":
            assert verdict.dims["endo_quotient"] > \
                verdict.dims["period_space"], entry.key
    assert seen == SWEEP


def test_certified_plans_frozen():
    def plan_of(key):
        verdict = certify_principal(zoo.get_module(key),
                                    parts(key.split("/")[0]))
        return verdict.plan

    assert plan_of("a2/p1+s2")["stages"] == [
        {"side": "right", "variant": "plain"}]
    assert plan_of("square/proj2+s2+s3")["stages"] == [
        {"side": "left", "variant": "witness"}]
    assert plan_of("kronecker/proj1+s2")["stages"] == [
        {"side": "right", "variant": "witness"}]
    assert plan_of("a3/tower")["stages"] == [
        {"side": "right", "variant": "plain"},
        {"side": "left", "variant": "plain"}]
    assert plan_of("a2/s1")["kind"] == "semisimple"


def test_derivation_rules_on_witness_certificate():
    verdict = certify_principal(zoo.get_module("square/proj2+s2+s3"),
                                parts("square"))
    rules = set()

    def walk(node):
        rules.add(node.rule)
        for child in node.children:
            walk(child)

    walk(verdict.derivation)
    assert "Iso" in rules and "SatPrincipalVar" in rules


def test_unknown_is_not_a_bluff():
    # equal dimensions but no certificate found: stays Unknown
    verdict = certify_principal(zoo.get_module("loop2/reg"), parts("loop2"))
    assert verdict.status == "Unknown"
    assert verdict.derivation is None
    assert verdict.dims["endo_quotient"] == verdict.dims["period_space"]


# ---------------------------------------------------------------------------
# bounded exploration


def test_explore_reaches_easy_diagonal():
    m = zoo.get_module("a2/p1")
    mm = module_power(m, 2)
    diag = SubmoduleHandle.spin(mm, [(1, 0, 1, 0)])
    res = references.class_c_explore(mm, diag, power_cap=2, budget=400)
    assert res.found
    assert res.steps is not None and len(res.steps) >= 1


def test_explore_cannot_derive_socle():
    m = zoo.get_module("a2/p1")
    socle = SubmoduleHandle.spin(m, [(0, 1)])
    res = references.class_c_explore(m, socle, power_cap=2, budget=400)
    assert not res.found
    assert res.exhausted
    assert res.visited == 8


def test_explore_budget_guard():
    m = zoo.get_module("a2/p1")
    socle = SubmoduleHandle.spin(m, [(0, 1)])
    with pytest.raises(references.BudgetExceeded):
        references.class_c_explore(m, socle, power_cap=2, budget=1)
