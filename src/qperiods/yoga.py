"""Weight-graded exact sequences and principality certification.

A weight partition splits the vertices of a bound quiver algebra into
classes carrying distinct integer weights, with every arrow pointing
weakly downward.  An admissible sequence is a short exact sequence of
representations whose sub lives in strictly lower classes than its
quotient.  At a low vertex the quotient is zero, so the sub is all of
the middle there, and at a high vertex the sub is zero: up to
isomorphism of its ends, every admissible sequence is the slice of its
middle at a weight cut, with sub the middle at the vertices of weight at
most the cut and quotient the middle at the others.  So a sequence is
held as that slice, and sub, middle and quotient share the middle's
coordinates wherever they are nonzero.  Around that notion this module
provides:

  * universal lifts and universal extensions of prescribed end data
    across an admissible sequence, each a fixpoint on the middle
    module: the lift is the submodule spun from the target's spaces
    at the high vertices, the extension the largest submodule inside
    the prescribed intersection at the low vertices; a bounded search
    compares against the lift;
  * a saturatedness test per side (the endomorphism restriction onto
    the relevant end, which keeps an endomorphism's blocks at that
    end's vertices, must be onto a semisimple target, read off the
    radical of the trace form on the end, and the outward hom spaces
    must vanish), plus the sum rule that lets a saturated sequence
    absorb a summand lying at or below its cut inside its sub: the
    enlarged sequence is the slice of the enlarged middle at that cut;
  * a certifier that certifies a semisimple module outright, then
    refutes principality by a dimension gap against the period space
    (a principal module realizes every relation through its
    endomorphisms, so a gap leaves the search nothing to find), and only
    without a gap searches for a module assembled from semisimple stages
    along the weight filtration, returning a replayable derivation tree,
    or honestly reports Unknown.

Principality of a representation means that every relation in its
period space, at every power, is realized by structure maps; the
certificates produced here are exactly the audit trail for that claim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import Matrix, Subspace
from .periods import _centraliser_blocks, _path_blocks
from .quivalg import (
    FdModule,
    SubmoduleHandle,
    direct_sum,
    end_algebra,
    hom_space,
    module_iso,
    simple_module,
    spin_pool,
)


class SupportViolation(ValueError):
    """The partition does not cover the algebra's vertices exactly."""


class OrthogonalityFailure(ValueError):
    """The weight classes interact where they must not."""


class HypothesisFailed(ValueError):
    """A construction's defining property could not be verified."""


# ---------------------------------------------------------------------------
# weight partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightPartition:
    """Vertices grouped into classes of distinct weights, highest first."""

    classes: tuple[tuple[int, tuple[str, ...]], ...]

    @classmethod
    def of(cls, classes) -> "WeightPartition":
        """Build from a {weight: vertices} mapping or (weight, vertices) pairs."""
        items = classes.items() if isinstance(classes, dict) else classes
        norm = tuple(sorted(((int(w), tuple(vs)) for w, vs in items),
                            key=lambda t: -t[0]))
        weights = [w for w, _ in norm]
        if len(set(weights)) != len(weights):
            raise ValueError("weights of the classes must be distinct")
        seen: set[str] = set()
        for _, vs in norm:
            if not vs:
                raise ValueError("every class needs at least one vertex")
            for v in vs:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two classes")
                seen.add(v)
        return cls(norm)

    def weight_of(self, vertex: str) -> int:
        for w, vs in self.classes:
            if vertex in vs:
                return w
        raise ValueError(f"vertex {vertex} is not covered by the partition")

    def vertices_at(self, weights) -> tuple[str, ...]:
        wanted = set(weights)
        out = []
        for w, vs in self.classes:
            if w in wanted:
                out.extend(vs)
        return tuple(out)

    def validate_for(self, algebra) -> None:
        """Exact vertex cover and no arrow climbing to a higher weight."""
        covered = {v for _, vs in self.classes for v in vs}
        missing = set(algebra.vertices) - covered
        extra = covered - set(algebra.vertices)
        if missing or extra:
            raise SupportViolation(
                f"partition must cover the vertex set exactly; "
                f"missing {sorted(missing)}, extra {sorted(extra)}")
        for a in algebra.arrows:
            if self.weight_of(a.target) > self.weight_of(a.source):
                raise OrthogonalityFailure(
                    f"arrow {a.name} climbs from weight "
                    f"{self.weight_of(a.source)} to {self.weight_of(a.target)}")

    def support_weights(self, m: FdModule) -> tuple[int, ...]:
        """Weights of the classes where the module is nonzero, highest first."""
        hit = {self.weight_of(v) for v in m.algebra.vertices if m.vdim(v) > 0}
        return tuple(sorted(hit, reverse=True))


# ---------------------------------------------------------------------------
# admissible sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AdmissibleSequence:
    """The slice of a middle module at a cut of the weight filtration.

    sub is the middle at the vertices of weight at most the cut and zero
    at the others; quot is the middle at the others and zero at those.
    Arrows only descend, so sub is a submodule and quot the quotient by
    it, and both keep the middle's coordinates and arrow maps where they
    are nonzero.  low_weights and high_weights are the weights where sub
    and quot are nonzero, every low weight below every high one.  Either
    side may be empty.  Every admissible sequence is one of these up to
    isomorphism of its ends: its sub is all of the middle at the low
    vertices and zero at the high ones.
    """

    module: FdModule
    partition: WeightPartition
    sub: FdModule
    quot: FdModule
    low_weights: frozenset
    high_weights: frozenset

    def low_vertices(self) -> tuple[str, ...]:
        return self.partition.vertices_at(self.low_weights)

    def high_vertices(self) -> tuple[str, ...]:
        return self.partition.vertices_at(self.high_weights)

    def __repr__(self) -> str:
        return (f"AdmissibleSequence({list(self.sub.dims)} -> "
                f"{list(self.module.dims)} -> {list(self.quot.dims)})")


def _weight_side(m: FdModule, partition: WeightPartition, cut: int,
                 low: bool) -> FdModule:
    """M at the vertices of weight at most the cut (low) or above it (not
    low), zero at the others, each arrow between kept vertices acting by
    M's map."""
    algebra = m.algebra
    keep = {v for v in algebra.vertices
            if (partition.weight_of(v) <= cut) == low}
    return FdModule(
        algebra, {v: m.vdim(v) if v in keep else 0 for v in algebra.vertices},
        {a.name: m.maps[a.name] for a in algebra.arrows
         if a.source in keep and a.target in keep})


def slice_by_weight(m: FdModule, partition: WeightPartition,
                    cut: int) -> AdmissibleSequence:
    """The sequence whose sub is everything of weight at most the cut.

    Arrows only descend, so the low-weight coordinates always form a
    submodule; this is the canonical admissible sequence at each step
    of the weight filtration, and the one constructor of admissible
    sequences.  The partition must cover the vertices exactly
    (SupportViolation) and no arrow may climb (OrthogonalityFailure).
    """
    partition.validate_for(m.algebra)
    sub = _weight_side(m, partition, cut, True)
    quot = _weight_side(m, partition, cut, False)
    return AdmissibleSequence(m, partition, sub, quot,
                              frozenset(partition.support_weights(sub)),
                              frozenset(partition.support_weights(quot)))


def _read_in(handle: SubmoduleHandle, end: FdModule) -> SubmoduleHandle:
    """A submodule of the middle read in the sub (its intersection with
    the sub) or in the quotient (its image there): its spaces where the
    end keeps the middle's coordinates, zero elsewhere."""
    return SubmoduleHandle(
        end, [s if s.ambient == d else Subspace.zero_space(d)
              for s, d in zip(handle.spaces, end.dims)], check=False)


# ---------------------------------------------------------------------------
# universal lifts and extensions
# ---------------------------------------------------------------------------


def universal_lift(seq: AdmissibleSequence,
                   n1: SubmoduleHandle) -> SubmoduleHandle:
    """The smallest submodule of the middle projecting onto the given one.

    The sub is zero at the high vertices, where the middle and the
    quotient agree, so every submodule that projects onto the target
    has the target's spaces there, and the submodule spun from their
    vectors is contained in all of them; it is the universal lift.
    HypothesisFailed guards the defining property.
    """
    if n1.ambient != seq.quot:
        raise ValueError("the target must be a submodule of the quotient")
    m = seq.module
    lifted = SubmoduleHandle.spin(
        m, [m.embed_vertex_vector(v, b) for v in seq.high_vertices()
            for b in n1.space(v).basis_vectors()])
    if _read_in(lifted, seq.quot) != n1:
        raise HypothesisFailed(
            "the minimal candidate does not project onto the target")
    return lifted


def universal_extension(seq: AdmissibleSequence,
                        n0: SubmoduleHandle) -> SubmoduleHandle:
    """The largest submodule of the middle meeting the sub in the given one.

    The sub is all of the middle at the low vertices and zero elsewhere,
    so a submodule meets it in the prescribed one exactly when it agrees
    with it at the low vertices.  The largest submodule inside the
    prescribed one there, and unconstrained elsewhere, contains it and
    is the universal extension.  HypothesisFailed guards the defining
    property.
    """
    if n0.ambient != seq.sub:
        raise ValueError("the prescribed intersection must be a submodule "
                         "of the sub")
    m = seq.module
    low = seq.low_vertices()
    extended = SubmoduleHandle.largest_inside(
        m, [n0.space(v) if v in low else Subspace.full_space(m.vdim(v))
            for v in m.algebra.vertices])
    if _read_in(extended, seq.sub) != n0:
        raise HypothesisFailed(
            "the maximal candidate does not meet the sub in the target")
    return extended


def _search_pool(m: FdModule, bound: int, cap: int) -> list[SubmoduleHandle]:
    handles: list[SubmoduleHandle] = []
    seen: set = set()

    def push(h: SubmoduleHandle) -> None:
        if h.spaces not in seen and len(handles) < cap:
            seen.add(h.spaces)
            handles.append(h)

    push(SubmoduleHandle.zero(m))
    push(SubmoduleHandle.full(m))
    if len(handles) < cap:
        for h in spin_pool(m, bound):
            push(h)
            if len(handles) == cap:
                break
    for h1, h2 in itertools.combinations(tuple(handles), 2):
        push(h1.add(h2))
        push(h1.intersect(h2))
        if len(handles) >= cap:
            break
    return handles


def bounded_lift_search(seq: AdmissibleSequence,
                        n1: SubmoduleHandle) -> tuple[SubmoduleHandle, ...]:
    """All lifts of the target found in a bounded pool of submodules.

    The pool is spun from single coordinates and small integer
    two-coordinate combinations, closed once under pairwise sums and
    intersections.  Meant as an independent check that the universal
    lift is contained in everything this blunt search can find.
    """
    if n1.ambient != seq.quot:
        raise ValueError("the target must be a submodule of the quotient")
    return tuple(h for h in _search_pool(seq.module, 1, 512)
                 if _read_in(h, seq.quot) == n1)


# ---------------------------------------------------------------------------
# saturatedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SaturatedVerdict:
    side: str
    status: str                 # 'certified' | 'unknown'
    conditions: dict
    splitness: str


def _clears_high_vertices(seq: AdmissibleSequence,
                          base: SubmoduleHandle) -> bool:
    """No nonzero submodule of M / base lives at the high vertices alone:
    a submodule of it there is one of M between base and base plus
    everything at those vertices, so the largest submodule of M inside
    the latter must be base itself."""
    m = seq.module
    high = seq.high_vertices()
    return SubmoduleHandle.largest_inside(
        m, [Subspace.full_space(s.ambient) if v in high else s
            for v, s in zip(m.algebra.vertices, base.spaces)]) == base


def _outward_homs_vanish(seq: AdmissibleSequence, side: str) -> bool:
    """Right side: no nonzero map from the middle into the low classes,
    that is, the coordinates outside them spin all of the middle.
    Left side: no nonzero map from the high classes into the middle,
    that is, no nonzero submodule lives at the high vertices alone."""
    m = seq.module
    if side == "right":
        low = seq.low_vertices()
        gens = [m.embed_vertex_vector(v, row) for v in m.algebra.vertices
                if v not in low for row in Matrix.identity(m.vdim(v)).rows]
        return SubmoduleHandle.spin(m, gens).is_full()
    return _clears_high_vertices(seq, SubmoduleHandle.zero(m))


def _end_basis(m: FdModule, known: list) -> tuple:
    """hom_space(m, m), read from known, the (module, End basis) pairs
    the question has solved so far, when it holds an equal module, and
    added to it otherwise."""
    for n, basis in known:
        if n == m:
            return basis
    basis = hom_space(m, m)
    known.append((m, basis))
    return basis


def saturated_check(seq: AdmissibleSequence, side: str,
                    known: list | None = None) -> SaturatedVerdict:
    """Certify saturatedness on one side by the split-restriction test.

    Right side: restricting endomorphisms of the middle to the quotient
    must hit all of its endomorphisms, that endomorphism algebra must
    be semisimple, which end_algebra reads off the radical of the trace
    form (f, g) -> tr(f g) on the quotient, and no nonzero map from the
    middle into the low classes may exist.  Left side mirrors this with
    the sub and maps from the high classes.  A certificate means every
    matrix of maps between powers of the end module lifts compatibly,
    with kernels (resp. images) given by universal lifts (resp.
    extensions); the test is sufficient, so the negative outcome is
    'unknown', not a refutation.

    known holds the End bases the question has solved, as _end_basis
    reads them: both sides of a stage share the middle's, and a stage's
    sub is often the middle of the stage below.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if known is None:
        known = []
    m = seq.module
    if side == "right":
        stage = seq.quot
        outward_name = "maps_into_low_classes_vanish"
    else:
        stage = seq.sub
        outward_name = "maps_from_high_classes_vanish"
    # an endomorphism of M acts vertex by vertex, so it keeps the slice,
    # and the map it induces on the stage is its blocks at the stage's
    # vertices
    induced = [tuple(x for b, d in zip(f.blocks, stage.dims) if d
                     for x in b.vec())
               for f in _end_basis(m, known)]
    outward = _outward_homs_vanish(seq, side)
    radical_dim, stage_endos = end_algebra(stage, _end_basis(stage, known))
    target_dim = len(stage_endos)
    length = sum(d * d for d in stage.dims)
    rank = Subspace(length, induced).dim
    surjective = rank == target_dim
    semisimple = radical_dim == 0
    conditions = {
        "restriction_surjective": surjective,
        "restriction_rank": rank,
        "end_stage_dim": target_dim,
        "end_stage_semisimple": semisimple,
        outward_name: outward,
    }
    certified = surjective and semisimple and outward
    splitness = ("a surjection onto a semisimple algebra splits over a "
                 "field of characteristic zero" if certified else "")
    return SaturatedVerdict(side, "certified" if certified else "unknown",
                            conditions, splitness)


def _sum_conditions(seq: AdmissibleSequence,
                    extra: FdModule) -> tuple[bool, dict]:
    """The mixed hom conditions under which a left saturated sequence
    stays left saturated once the sub absorbs the extra summand C.

    C lies at or below the cut, so the enlarged sequence is the slice of
    M + C at that cut, with sub S + C and the same quotient.  No maps
    from S to C, and the cokernel of C's trace in M clears the high
    classes.
    """
    m = seq.module
    no_homs = len(hom_space(seq.sub, extra)) == 0
    trace = SubmoduleHandle.zero(m)
    for f in hom_space(extra, m):
        trace = trace.add(f.image())
    clears = _clears_high_vertices(seq, trace)
    conditions = {
        "sub_homs_vanish": no_homs,
        # C's own sequence has sub C, included by its identity, so every
        # map from C into S restricts to itself: restriction is onto
        "restriction_to_sub_onto": True,
        "cokernel_clears_high_classes": clears,
    }
    return all(conditions.values()), conditions


# ---------------------------------------------------------------------------
# principality certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DerivationNode:
    """One certified step; children are the premises it rests on."""

    rule: str
    statement: str
    data: dict
    children: tuple = ()


@dataclass(frozen=True, eq=False)
class PrincipalityVerdict:
    """Outcome of certification with its audit trail.

    status is 'Certified', 'Refuted' or 'Unknown'.  dims always carries
    the commutator-side and pairing-side dimensions; a gap between them
    is what refutes.  plan, present on certificates, is the replayable
    recipe: the core generators and the per-stage choices.
    """

    status: str
    derivation: DerivationNode | None
    dims: dict
    plan: dict | None = None


def _dim_pair(x: FdModule) -> dict:
    """The commutator-side and pairing-side dimensions, read without
    building either relation basis: the sizes of the blocks of the
    centraliser C that endo_quotient annihilates and of rho(A)'s."""
    return {"endo_quotient": sum(map(len, _centraliser_blocks(x).values())),
            "period_space": sum(map(len, _path_blocks(x).values()))}


def _core_candidates(x: FdModule, partition: WeightPartition, cap: int = 24):
    support = partition.support_weights(x)
    if not support:
        return
    # Not spin_pool's order: c1 + c2 comes before c1 - c2, and all
    # coordinates together come last.  This order picks the core that
    # certify prints in its plan, so it must not change.
    coords = []
    for v in partition.vertices_at(support[:1]):
        for row in Matrix.identity(x.vdim(v)).rows:
            coords.append(x.embed_vertex_vector(v, row))
    pools = [(c,) for c in coords]
    for c1, c2 in itertools.combinations(coords, 2):
        pools.append((tuple(a + b for a, b in zip(c1, c2)),))
        pools.append((tuple(a - b for a, b in zip(c1, c2)),))
    if len(coords) > 1:
        pools.append(tuple(coords))
    seen: set = set()
    yielded = 0
    for vecs in pools:
        handle = SubmoduleHandle.spin(x, list(vecs))
        if handle.is_full() or handle.spaces in seen:
            continue
        seen.add(handle.spaces)
        core = handle.sub_module()
        if len(partition.support_weights(core)) < 2:
            continue
        yield vecs, core
        yielded += 1
        if yielded >= cap:
            return


def _truncations(core: FdModule, partition: WeightPartition,
                 support: tuple[int, ...]) -> list[FdModule]:
    truncs = []
    for w in support[:-1]:
        truncs.append(_weight_side(core, partition, w, True))
    truncs.append(core)
    return truncs


_STAGE_STATEMENTS = {
    ("right", "plain"): ("for a right saturated sequence with principal ends, "
                         "the middle plus the sub stays principal"),
    ("right", "witness"): ("for a right saturated sequence with principal "
                           "ends, the middle plus a generator of the low "
                           "classes stays principal"),
    ("left", "plain"): ("for a left saturated sequence with principal ends, "
                        "the middle plus the quotient stays principal"),
    ("left", "witness"): ("for a left saturated sequence with principal "
                          "ends, the middle plus a cogenerator of the high "
                          "classes stays principal"),
}


def _stage_sides(acc: tuple) -> tuple[str, ...]:
    # the sum rule that absorbs companions only operates on the left
    return ("left",) if acc else ("right", "left")


def _apply_stage(partition: WeightPartition, seq: AdmissibleSequence,
                 side: str, variant: str, acc: tuple,
                 prev_node: DerivationNode, sat: SaturatedVerdict):
    """Run one tower stage; the companion joins the certified sum.

    sat is saturated_check(seq, side), the verdict on the bare stage;
    side is one of _stage_sides(acc).  The companions certified so far
    were won at lower stages, so each lies at or below the weight the
    bare stage was cut at; the sum rule absorbs them one at a time into
    the sub, each by slicing the enlarged middle M + C at that cut.
    Then the stage quotient must be semisimple and the outward hom
    spaces of the enlarged middle must vanish.
    """
    if sat.status != "certified":
        return None
    children = [prev_node]
    cur = seq
    for extra in acc:
        cut = max(seq.low_weights)
        assert all(w <= cut for w in partition.support_weights(extra)), \
            "a companion reaches above the stage's cut"
        ok, joint = _sum_conditions(cur, extra)
        if not ok:
            return None
        cur = slice_by_weight(direct_sum([cur.module, extra]), partition, cut)
        children.append(DerivationNode(
            "SumLemma",
            "a principal summand added inside the sub keeps the enlarged "
            "sequence left saturated",
            dict(joint)))
    if not cur.quot.is_semisimple_rep():
        return None
    children.append(DerivationNode(
        "Semisimple",
        "the stage quotient is a sum of simples, which is principal",
        {"dims": list(cur.quot.dims)}))
    # with no companion absorbed cur is seq, whose outward homs the
    # certified saturation check has already shown to vanish
    if cur is not seq and not _outward_homs_vanish(cur, side):
        return None
    mid = cur.module
    algebra = mid.algebra
    if variant == "plain":
        companion = seq.sub if side == "right" else seq.quot
        rule = "SatPrincipal"
    else:
        weights = cur.low_weights if side == "right" else cur.high_weights
        verts = partition.vertices_at(weights)
        if any(a.source in verts and a.target in verts
               for a in algebra.arrows):
            return None
        companion = direct_sum([simple_module(algebra, v) for v in verts])
        rule = "SatPrincipalVar"
    node = DerivationNode(
        rule, _STAGE_STATEMENTS[(side, variant)],
        {"side": side, "variant": variant,
         "middle_dims": list(mid.dims),
         "companion_dims": list(companion.dims),
         "saturation": dict(sat.conditions),
         "outward_hom_vanishes": True},
        tuple(children))
    return companion, node


def _grow_tower(partition: WeightPartition, support: tuple[int, ...],
                truncs: list[FdModule], k: int, acc: tuple, steps: tuple,
                prev_node: DerivationNode, known: list):
    if k == len(truncs):
        yield steps, list(acc), prev_node
        return
    seq = slice_by_weight(truncs[k], partition, support[k - 1])
    used: list[FdModule] = []
    for side in _stage_sides(acc):
        sat = saturated_check(seq, side, known)
        for variant in ("plain", "witness"):
            got = _apply_stage(partition, seq, side, variant, acc, prev_node,
                               sat)
            if got is None:
                continue
            companion, node = got
            if any(companion == u for u in used):
                continue
            used.append(companion)
            yield from _grow_tower(
                partition, support, truncs, k + 1, acc + (companion,),
                steps + ({"side": side, "variant": variant},), node, known)


def _tower_runs(core: FdModule, partition: WeightPartition, known: list):
    support = tuple(sorted(partition.support_weights(core)))
    if len(support) < 2:
        return
    truncs = _truncations(core, partition, support)
    if not truncs[0].is_semisimple_rep():
        return
    base = DerivationNode(
        "Semisimple",
        "the lowest stage is a sum of simples, which is principal",
        {"dims": list(truncs[0].dims)})
    yield from _grow_tower(partition, support, truncs, 1, (), (), base,
                           known)


def _certificate_search(x: FdModule, partition: WeightPartition,
                        core_cap: int) -> tuple[DerivationNode, dict] | None:
    """The core x tower search: (derivation, plan) of the first assembled
    sum isomorphic to x, or None.  The End bases its saturation checks
    solve are kept for the rest of the search, and dropped with it."""
    known: list = []
    for vecs, core in _core_candidates(x, partition, core_cap):
        for steps, companions, node in _tower_runs(core, partition, known):
            assembled = direct_sum([core] + companions)
            if assembled.dims != x.dims:
                continue
            if module_iso(x, assembled) is None:
                continue
            root = DerivationNode(
                "Iso",
                "the module is isomorphic to the assembled sum of certified "
                "stages and companions",
                {"assembled_dims": list(assembled.dims)},
                (node,))
            plan = {"kind": "tower",
                    "core": [[str(c) for c in vec] for vec in vecs],
                    "stages": list(steps)}
            return root, plan
    return None


def certify_principal(x: FdModule,
                      partition: WeightPartition,
                      core_cap: int = 24) -> PrincipalityVerdict:
    """Certify, refute, or give up on principality of a representation.

    Semisimple modules are certified outright.  Next, a strict gap
    between the commutator-side dimension and the period space refutes:
    a principal module realizes every relation through its
    endomorphisms, so the two dimensions of a principal module agree,
    and no certificate can exist for a gapped one.  Only when they agree
    does the certifier search: it spins cores from top-class
    coordinates, at most core_cap of them, and grows each along the
    weight filtration, stage by stage: a saturated stage with principal
    ends stays principal after adding a companion (its far end, or a
    semisimple class witness), and companions already won are absorbed
    through the sum rule.  If some assembled sum is isomorphic to the
    module, that derivation is the certificate; otherwise the verdict is
    Unknown, never a bluff.
    """
    partition.validate_for(x.algebra)
    dims = _dim_pair(x)
    if x.is_semisimple_rep():
        node = DerivationNode(
            "Semisimple",
            "every arrow acts by zero, so the module is a sum of simples, "
            "which is principal",
            {"dims": list(x.dims)})
        return PrincipalityVerdict("Certified", node, dims,
                                   {"kind": "semisimple"})
    if dims["endo_quotient"] > dims["period_space"]:
        node = DerivationNode(
            "DimGap",
            "the span of relations induced by endomorphisms is strictly "
            "smaller than the full relation space, so some relation is not "
            "realized at the module's own rank",
            dict(dims))
        return PrincipalityVerdict("Refuted", node, dims)
    found = _certificate_search(x, partition, core_cap)
    if found is None:
        return PrincipalityVerdict("Unknown", None, dims)
    root, plan = found
    return PrincipalityVerdict("Certified", root, dims, plan)


def replay_derivation(x: FdModule, partition: WeightPartition,
                      verdict: PrincipalityVerdict) -> bool:
    """Re-run a certificate's plan from scratch; True iff it checks out."""
    if verdict.status != "Certified" or verdict.plan is None:
        return False
    partition.validate_for(x.algebra)
    plan = verdict.plan
    if plan["kind"] == "semisimple":
        return x.is_semisimple_rep()
    vecs = [tuple(Fraction(c) for c in vec) for vec in plan["core"]]
    core = SubmoduleHandle.spin(x, vecs).sub_module()
    support = tuple(sorted(partition.support_weights(core)))
    if len(support) < 2 or len(plan["stages"]) != len(support) - 1:
        return False
    truncs = _truncations(core, partition, support)
    if not truncs[0].is_semisimple_rep():
        return False
    node = DerivationNode("Semisimple", "replayed base", {})
    acc: tuple = ()
    known: list = []
    for k, step in enumerate(plan["stages"], start=1):
        side = step["side"]
        if side not in _stage_sides(acc):
            return False
        seq = slice_by_weight(truncs[k], partition, support[k - 1])
        got = _apply_stage(partition, seq, side, step["variant"], acc, node,
                           saturated_check(seq, side, known))
        if got is None:
            return False
        companion, node = got
        acc = acc + (companion,)
    assembled = direct_sum([core] + list(acc))
    if assembled.dims != x.dims:
        return False
    return module_iso(x, assembled) is not None
