"""Second constructions of what the package computes, and the oracles
that only tests need.

The package answers lifts, extensions and the outward hom tests with
two fixpoints on the middle module of an admissible sequence: the
submodule spun from some vectors, and the largest submodule inside
given vertex spaces.  The references here take the longer routes
instead:

- the opposite algebra, rebuilt from the algebra's relations with every
  arrow reversed, and the linear dual of a module as a module over it;
- the annihilator sequence in the dual, with the weights negated, on
  which a universal extension becomes a universal lift;
- traces (the submodule spun from everything at some vertices) and the
  quotient modules they cut out.

They share no code with the fixpoints beyond spin, annihilators and the
module constructions, so agreement between the two is evidence for both.

certify_principal now reads the dimension gap before it searches, and
spin takes the span of the generators' images under the path basis;
search_first_certify keeps the old order, with every spin made by
fixpoint_spin, the arrow-by-arrow fixpoint that spin used to be, and
both dimensions read off relation bases: endo_quotient's, and the
pairing kernel eliminated over all d^2 coordinates at once
(pairing_kernel), which shares no block code with certify's own
dimensions.

matrix_text is the text layout of a relation matrix one entry at a
time, as the command line wrote it before it formatted each distinct
value once.

The package builds every admissible sequence by slice_by_weight, and
the sum rule absorbs a companion C lying at or below the cut by slicing
M + C there.  trivial_sub_sequence and sum_sequence are the general
constructions that replaced: the sequence C -> C -> 0, and the direct
sum of two sequences with block-diagonal maps.  sum_conditions is the
sum rule's test for two arbitrary sequences, as it read before it took
the companion module alone.

The package holds an admissible sequence as the slice of its middle:
its sub and its quotient are the middle at the low and at the high
vertices, and no map between them is built.  GeneralSequence is the
record it used to carry instead, an inclusion and a projection with the
sub's handle, validated by admissible_check (NotExact for a pair that
is not exact, SupportViolation for ends in the wrong classes).
general_slice(m, partition, cut) builds a slice that way: a handle of
coordinate subspaces, its sub module with its inclusion, its
quotient_module with the projection of QuotientPresentation, and
admissible_check.  general(seq) rebuilds a slice so, and as_slice reads
a general sequence whose sub is a coordinate slice back as the
package's slice.  The helpers only that route used moved here with it:
factor_through_sub and factor_through_quotient, image_submodule and
preimage_submodule, is_injective and is_surjective of a module map, and
a matrix's column and columns.

The package reads the action of a path as its path map placed on M's
coordinates, one block from its source to its target.  act_basis is
the dense d x d matrix that the package used to build for it, and
pairing_matrix and centraliser are the coefficient pairing and the
End-side centraliser read off those dense matrices and off each
endomorphism written out as one block-diagonal matrix (flattened).
pairing_kernel is that pairing's kernel in one d^2-wide elimination,
the way period_space computed it before it went block by block, and
placed_centraliser places the package's centraliser blocks on the d^2
coordinates in centraliser's layout.

The package reads End(M)'s radical off the trace form on M and builds
no product of endomorphisms.  compose(f, g) is the composite of two
module maps, block by block, and end_structure(m) is End(M) as the
structure-constant algebra it used to build on the canonical hom
basis: k^2 compositions, each read back at the basis' free unknowns.
Its radical is the oracle for end_algebra's radical dimension.

Depth reads each submodule of a power M^n as its vertex spaces, and
realize tests a functional on them vertex by vertex.  block_map is the
map between direct sums given by a grid of maps between summands, whose
images and kernels depth's candidates used to be; flat(handle) is a
submodule as one subspace of the ambient's flattened coordinates, and
flat_relations the relations depth used to contract from it, with the
annihilator eliminated on all n * d coordinates.  zero_map and map_vec
are the zero module map and a map's block entries in one vector.
slot_layout is the table of positions of each slot of M^n, which
tuple_embed used to read; the package now concatenates the tuple's
slices vertex by vertex.

Depth takes the images and kernels of the sums e + f and e - f of basis
endomorphisms at power 1 as letters of its column and row alphabet.
sum_images_and_kernels builds them from the module maps instead, with
kernel(f), the kernel of a module map that the package no longer needs.
outer_sum is sum_k outer(sigma_k, omega_k) added up one dense outer
product at a time, the way a realization's contraction used to be
built, and the oracle for periods._contraction.

Depth takes whole, at each stage k, every block (v, w) of the pairing
kernel with min(d_v, d_w) <= k, and contracts candidates only while a
block is still open.  candidate_depth_stages is the accumulator it
replaced, which contracted candidates for every block: it returns each
stage's relations, and the rule-built stages must hold them.

build_algebra keeps the relation ideal's reduced echelon basis from
one path layer to the next and adds only the ideal elements whose
longest term reaches the new layer.  layered_algebra is the
construction it replaced, which eliminated every ideal element found so
far, over every path enumerated so far, at every layer; the two must
give the same basis, in the same order, the same reduction table and
the same refusals.

Matrix products multiply only nonzero entries; triple_loop_product is
the product entry by entry over every k, zeros included, the way they
were formed before.

The rest are oracles that no command needs, kept beside the tests that
check the engine against the paper with them:

- solve, one solution of a linear system, which rebuilds
  end_structure's structure constants one product at a time;
- direct_sum_with_maps, a direct sum with its inclusions and
  projections checked against the arrows;
- matrix_algebra_structure and matrix_column_module, the n x n matrix
  algebra and its column modules (Q^n)^k, the paper's frozen
  weight-graded example;
- the paper's structural identities: P(M^n) = P(M)
  (check_power_identity), the absorption of subobjects and quotients
  by direct sum (check_absorb_identity), additivity over Hom-orthogonal
  summands (check_orthogonal_additivity) and the pushout reduction of
  a two-sided power sequence (pushout_reduction);
- evaluate_coefficient, tr(rho(u) C) with rho(u) summed from the dense
  basis actions of act_basis, so that it shares no code with eval's own
  evaluation;
- bounded_extension_search, the brute-force pool that the universal
  extension is extremal against;
- class_c_explore, the breadth-first exploration of the submodules
  reachable from full powers, which finds no realizing submodule on the
  refuted a2/p1.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from qperiods import periods, zoo
from qperiods.exactlin import (
    ONE,
    ZERO,
    DimensionMismatch,
    Matrix,
    Subspace,
    block_diagonal,
    intertwiners,
    kernel_subspace,
    rat,
    rref,
)
from qperiods.onemotive import BModule, RangeError, b_module
from qperiods.periods import (
    ComparisonPoint,
    _is_scalar,
    endo_quotient,
    period_space,
)
from qperiods.quivalg import (
    Arrow,
    BoundQuiverAlgebra,
    FdModule,
    ModuleMap,
    NotAdmissible,
    NotAModuleMap,
    NotASubmodule,
    NotFiniteDimensional,
    PathKey,
    StructureAlgebra,
    SubmoduleHandle,
    _MAX_PATH_LENGTH,
    build_algebra,
    direct_sum,
    hom_space,
    module_power,
    spin_pool,
)
from qperiods.serialize import rational_str
from qperiods.yoga import (
    AdmissibleSequence,
    DerivationNode,
    PrincipalityVerdict,
    SupportViolation,
    WeightPartition,
    _certificate_search,
    _search_pool,
    slice_by_weight,
)


@functools.lru_cache(maxsize=None)
def opposite(algebra):
    """The algebra with every arrow and every relation term reversed."""
    arrows = [(a.name, a.target, a.source) for a in algebra.arrows]
    relations = [[(c, tuple(reversed(path))) for c, (_, path) in rel]
                 for rel in algebra.relations]
    return build_algebra(algebra.vertices, arrows, relations)


def dual_module(m: FdModule) -> FdModule:
    """The linear dual as a module over the opposite algebra."""
    maps = {a.name: m.maps[a.name].transpose() for a in m.algebra.arrows}
    return FdModule(opposite(m.algebra), dict(zip(m.algebra.vertices, m.dims)),
                    maps)


def dual_submodule(m: FdModule, dm: FdModule,
                   handle: SubmoduleHandle) -> SubmoduleHandle:
    """The annihilator of a submodule of M, as a submodule of the dual."""
    assert handle.ambient == m
    return SubmoduleHandle(dm, [s.annihilator() for s in handle.spaces])


def negate(partition: WeightPartition) -> WeightPartition:
    """The partition seen from the dual side; weights flip sign."""
    return WeightPartition.of([(-w, vs) for w, vs in partition.classes])


def dual_sequence(seq: AdmissibleSequence) -> AdmissibleSequence:
    """The annihilator sequence in the dual module, with negated weights.

    The annihilator of the sub becomes the new sub, so left-side
    questions about the dual are right-side questions about seq.  It is
    built and checked the general way, then read as the slice of the
    dual that it is.
    """
    m = seq.module
    ann = dual_submodule(m, dual_module(m), general(seq).sub_handle)
    return as_slice(admissible_check(inclusion(ann), quotient_module(ann)[1],
                                     negate(seq.partition)))


def trace(m: FdModule, vertices) -> SubmoduleHandle:
    """The submodule spun from every vector at the given vertices."""
    return SubmoduleHandle.spin(
        m, [m.embed_vertex_vector(v, row) for v in vertices
            for row in Matrix.identity(m.vdim(v)).rows])


def supported_at(m: FdModule, vertices) -> SubmoduleHandle:
    """The largest submodule of M supported at the given vertices: the
    annihilator of the dual's trace at all the other vertices."""
    dm = dual_module(m)
    others = [v for v in m.algebra.vertices if v not in vertices]
    return SubmoduleHandle(m, [s.annihilator()
                               for s in trace(dm, others).spaces])


def lift(seq, n1: SubmoduleHandle) -> SubmoduleHandle:
    """The universal lift as the trace of the high vertices inside the
    preimage, taken as a module of its own and mapped back."""
    pre = preimage_submodule(general(seq).projection, n1)
    return image_submodule(inclusion(pre),
                           trace(pre.sub_module(), seq.high_vertices()))


def extension(seq, n0: SubmoduleHandle) -> SubmoduleHandle:
    """The universal extension as the annihilator of a universal lift in
    the dual sequence."""
    m = seq.module
    dm = dual_module(m)
    dseq = dual_sequence(seq)
    ann = dual_submodule(m, dm, image_submodule(general(seq).inclusion, n0))
    lifted = lift(dseq, image_submodule(general(dseq).projection, ann))
    return SubmoduleHandle(m, [s.annihilator() for s in lifted.spaces])


def outward_homs_vanish(seq, side: str) -> bool:
    """Right side: M modulo the trace outside the low classes is zero.
    Left side: the dual is spun from everything outside the high
    classes."""
    m = seq.module
    if side == "right":
        low = seq.partition.vertices_at(seq.low_weights)
        generated = trace(m, [v for v in m.algebra.vertices if v not in low])
        return quotient_module(generated)[0].dim == 0
    high = seq.high_vertices()
    return trace(dual_module(m),
                 [v for v in m.algebra.vertices if v not in high]).is_full()


def cokernel_clears(seq_m, seq_n) -> bool:
    """The cokernel of the second sub's trace in the first middle has no
    nonzero submodule at the high vertices of either sequence."""
    t = SubmoduleHandle.zero(seq_m.module)
    for f in hom_space(seq_n.sub, seq_m.module):
        t = t.add(f.image())
    coker = quotient_module(t)[0]
    high = seq_m.high_weights | seq_n.high_weights
    return supported_at(coker, seq_m.partition.vertices_at(high)).dim == 0


def fixpoint_spin(ambient: FdModule, vectors) -> SubmoduleHandle:
    """The smallest submodule containing the vectors, as a fixpoint: each
    vertex space is pushed along every arrow and added to the target's,
    round after round, until no space grows."""
    vertices = ambient.algebra.vertices
    spaces = [Subspace(ambient.vdim(v), [ambient.slice_of(w, v)
                                         for w in vectors])
              for v in vertices]
    changed = True
    while changed:
        changed = False
        for a in ambient.algebra.arrows:
            si, ti = vertices.index(a.source), vertices.index(a.target)
            grown = spaces[ti].add(
                spaces[si].image_under(ambient.maps[a.name]))
            if grown.dim != spaces[ti].dim:
                spaces[ti] = grown
                changed = True
    return SubmoduleHandle(ambient, spaces, check=False)


@contextlib.contextmanager
def spinning_by_fixpoint():
    """SubmoduleHandle.spin answered by fixpoint_spin inside the block."""
    original = SubmoduleHandle.__dict__["spin"]
    SubmoduleHandle.spin = classmethod(
        lambda cls, ambient, vectors: fixpoint_spin(ambient, vectors))
    try:
        yield
    finally:
        SubmoduleHandle.spin = original


def search_first_certify(x: FdModule, partition: WeightPartition,
                         core_cap: int = 24) -> PrincipalityVerdict:
    """certify_principal in its old order: semisimple, then the core x
    tower search with fixpoint spins, and only then the dimension gap,
    read off the relation bases."""
    partition.validate_for(x.algebra)
    dims = {"endo_quotient": endo_quotient(x).dim,
            "period_space": x.dim ** 2 - pairing_kernel(x).dim}
    if x.is_semisimple_rep():
        node = DerivationNode(
            "Semisimple",
            "every arrow acts by zero, so the module is a sum of simples, "
            "which is principal",
            {"dims": list(x.dims)})
        return PrincipalityVerdict("Certified", node, dims,
                                   {"kind": "semisimple"})
    with spinning_by_fixpoint():
        found = _certificate_search(x, partition, core_cap)
    if found is not None:
        return PrincipalityVerdict("Certified", found[0], dims, found[1])
    if dims["endo_quotient"] > dims["period_space"]:
        node = DerivationNode(
            "DimGap",
            "the span of relations induced by endomorphisms is strictly "
            "smaller than the full relation space, so some relation is not "
            "realized at the module's own rank",
            dict(dims))
        return PrincipalityVerdict("Refuted", node, dims)
    return PrincipalityVerdict("Unknown", None, dims)


def corpus_slices() -> list:
    """(label, algebra key, cut, sequence) for every corpus module cut at
    every class weight of its algebra, the top one included."""
    out = []
    for entry in zoo.corpus():
        partition = WeightPartition.of(
            dict(zoo.weight_classes(entry.algebra_key)))
        for w, _ in partition.classes:
            out.append((f"{entry.key}@{w}", entry.algebra_key, w,
                        slice_by_weight(entry.module, partition, w)))
    return out


def targets(m: FdModule, count: int) -> list:
    """Zero, all of M, and the first count distinct submodules spun from
    one small vector."""
    out = [SubmoduleHandle.zero(m), SubmoduleHandle.full(m)]
    seen = {h.spaces for h in out}
    for h in spin_pool(m, 1):
        if len(out) == count + 2:
            break
        if h.spaces not in seen:
            seen.add(h.spaces)
            out.append(h)
    return out


# -- admissible sequences and path actions, built the general way ------------


class NotExact(ValueError):
    """The pair of maps is not a short exact sequence."""


class QuotientPresentation:
    """Coordinates on Q^n / R for a subspace R, via the free coordinates.

    free lists the columns that are not pivots of R's canonical RREF
    basis.  projection, a dim x n matrix, sends a vector to the tuple of
    its class's coordinates, and is read off that basis column by column:
    the unit vector at a free column f goes to the unit at f's place, and
    the one at the pivot p of basis row r goes to minus row r at the free
    columns, since e_p minus row r lies in the same class and is
    supported on the free columns.  So projection kills R and is the
    identity on the free coordinates.
    """

    __slots__ = ("relations", "free", "dim", "projection")

    def __init__(self, relations: Subspace):
        self.relations = relations
        pivot_set = set(relations.pivots)
        self.free = tuple(j for j in range(relations.ambient)
                          if j not in pivot_set)
        self.dim = len(self.free)
        cols = [None] * relations.ambient
        for k, f in enumerate(self.free):
            cols[f] = tuple(ONE if t == k else ZERO for t in range(self.dim))
        for row, p in zip(relations.basis.rows, relations.pivots):
            cols[p] = tuple(-row[f] for f in self.free)
        self.projection = Matrix._wrap(tuple(cols), self.dim).transpose()


def column(mat: Matrix, j: int) -> tuple:
    return tuple(r[j] for r in mat.rows)


def columns(mat: Matrix, cols: Sequence[int]) -> Matrix:
    """The columns of mat at the given positions, in that order."""
    return Matrix._wrap(tuple(tuple(r[c] for c in cols) for r in mat.rows),
                        len(cols))


def kernel(f: ModuleMap) -> SubmoduleHandle:
    """The kernel of a module map, a submodule of its source, block by
    block."""
    return SubmoduleHandle(f.source, [kernel_subspace(b) for b in f.blocks],
                           check=False)


def is_injective(f: ModuleMap) -> bool:
    return all(s.dim == 0 for s in kernel(f).spaces)


def is_surjective(f: ModuleMap) -> bool:
    return all(s.dim == b.nrows for s, b in zip(f.image().spaces, f.blocks))


def inclusion(handle: SubmoduleHandle) -> ModuleMap:
    """The inclusion of the submodule, as a module of its own, into its
    ambient: each vertex block is the transposed canonical basis."""
    return ModuleMap(handle.sub_module(), handle.ambient,
                     [s.basis.transpose() for s in handle.spaces],
                     check=False)


def quotient_module(handle: SubmoduleHandle) -> tuple[FdModule, ModuleMap]:
    """The quotient by the submodule, with the projection.

    The quotient's basis at a vertex is the classes of the unit vectors
    at the free columns, so an arrow's matrix is the projection applied
    to the ambient arrow's free columns.
    """
    ambient = handle.ambient
    algebra = ambient.algebra
    pres = [QuotientPresentation(s) for s in handle.spaces]
    dims = {v: p.dim for v, p in zip(algebra.vertices, pres)}
    maps = {}
    for a in algebra.arrows:
        si = algebra.vertices.index(a.source)
        ti = algebra.vertices.index(a.target)
        maps[a.name] = pres[ti].projection * columns(
            ambient.maps[a.name], pres[si].free)
    quot = FdModule(algebra, dims, maps)
    proj = ModuleMap(ambient, quot, [p.projection for p in pres],
                     check=False)
    return quot, proj


def preimage_submodule(f: ModuleMap,
                       handle: SubmoduleHandle) -> SubmoduleHandle:
    """f^{-1}(H) for H a submodule of f's target."""
    if handle.ambient != f.target:
        raise NotASubmodule("handle does not live in the map's target")
    spaces = [s.preimage_under(b) for s, b in zip(handle.spaces, f.blocks)]
    return SubmoduleHandle(f.source, spaces, check=False)


def image_submodule(f: ModuleMap, handle: SubmoduleHandle) -> SubmoduleHandle:
    """f(H) for H a submodule of f's source."""
    if handle.ambient != f.source:
        raise NotASubmodule("handle does not live in the map's source")
    spaces = [s.image_under(b) for s, b in zip(handle.spaces, f.blocks)]
    return SubmoduleHandle(f.target, spaces, check=False)


def factor_through_sub(f: ModuleMap, handle: SubmoduleHandle) -> ModuleMap:
    """Rewrite f: X -> ambient, with image inside the handle, as X -> sub."""
    sub = handle.sub_module()
    blocks = []
    for b, s in zip(f.blocks, handle.spaces):
        cols = []
        for j in range(b.ncols):
            col = column(b, j)
            if not s.contains_vector(col):
                raise NotAModuleMap("image is not inside the submodule")
            cols.append(tuple(col[p] for p in s.pivots))
        blocks.append(Matrix.from_columns(cols) if cols
                      else Matrix.zero(s.dim, 0))
    return ModuleMap(f.source, sub, blocks, check=False)


def factor_through_quotient(f: ModuleMap,
                            handle: SubmoduleHandle) -> ModuleMap:
    """Descend f: ambient -> Y along the projection, when f kills the
    handle."""
    quot, _ = quotient_module(handle)
    for b, s in zip(f.blocks, handle.spaces):
        for vec in s.basis_vectors():
            if any(b.apply(vec)):
                raise NotAModuleMap("map does not kill the submodule")
    blocks = [columns(b, QuotientPresentation(s).free)
              for b, s in zip(f.blocks, handle.spaces)]
    return ModuleMap(quot, f.target, blocks, check=False)


@dataclass(frozen=True, eq=False)
class GeneralSequence:
    """A short exact sequence given by its inclusion and projection, split
    by the weight partition, as admissible_check validated it."""

    inclusion: ModuleMap
    projection: ModuleMap
    partition: WeightPartition
    sub_handle: SubmoduleHandle
    low_weights: frozenset
    high_weights: frozenset

    @property
    def module(self) -> FdModule:
        return self.inclusion.target

    @property
    def sub(self) -> FdModule:
        return self.inclusion.source

    @property
    def quot(self) -> FdModule:
        return self.projection.target

    def low_vertices(self) -> tuple[str, ...]:
        return self.partition.vertices_at(self.low_weights)

    def high_vertices(self) -> tuple[str, ...]:
        return self.partition.vertices_at(self.high_weights)


def admissible_check(inclusion: ModuleMap, projection: ModuleMap,
                     partition: WeightPartition) -> GeneralSequence:
    """Validate a short exact sequence against the weight partition.

    Checks exactness of the pair, and that the sub and quotient are
    supported in disjoint weight ranges with the sub strictly below
    (SupportViolation).  The partition's validate_for refuses an arrow
    that climbs to a higher weight, as an OrthogonalityFailure.
    """
    if inclusion.target != projection.source:
        raise NotExact("the maps do not share a middle module")
    partition.validate_for(inclusion.target.algebra)
    if not is_injective(inclusion):
        raise NotExact("the inclusion is not injective")
    if not is_surjective(projection):
        raise NotExact("the projection is not surjective")
    image = inclusion.image()
    if image != kernel(projection):
        raise NotExact("the image of the inclusion is not the kernel "
                       "of the projection")
    low = set(partition.support_weights(inclusion.source))
    high = set(partition.support_weights(projection.target))
    if low & high:
        raise SupportViolation(
            f"sub and quotient share the weights {sorted(low & high)}")
    if low and high and max(low) >= min(high):
        raise SupportViolation(
            f"sub reaches weight {max(low)} but the quotient starts "
            f"at weight {min(high)}; the sub must sit strictly below")
    return GeneralSequence(inclusion, projection, partition, image,
                           frozenset(low), frozenset(high))


def general_slice(m: FdModule, partition: WeightPartition,
                  cut: int) -> GeneralSequence:
    """slice_by_weight the general way: everything of weight at most the
    cut as a handle of coordinate subspaces, the inclusion of its sub
    module and the projection onto its quotient, and the checks."""
    spaces = []
    for v in m.algebra.vertices:
        d = m.vdim(v)
        rows = Matrix.identity(d).rows if partition.weight_of(v) <= cut else []
        spaces.append(Subspace(d, rows))
    handle = SubmoduleHandle(m, spaces)
    return admissible_check(inclusion(handle), quotient_module(handle)[1],
                            partition)


def _cut(seq) -> int:
    """A cut at which the middle's slice has seq's sub: the top of its
    weights, or below every class when it is zero."""
    return max(seq.low_weights,
               default=min(w for w, _ in seq.partition.classes) - 1)


def general(seq: AdmissibleSequence) -> GeneralSequence:
    """A slice rebuilt the general way, with its inclusion, projection
    and sub handle."""
    return general_slice(seq.module, seq.partition, _cut(seq))


def as_slice(seq: GeneralSequence) -> AdmissibleSequence:
    """The slice of a general sequence's middle whose ends are its ends,
    for a sequence whose sub is a coordinate slice."""
    sliced = slice_by_weight(seq.module, seq.partition, _cut(seq))
    assert sliced.sub == seq.sub and sliced.quot == seq.quot, \
        "the sequence is not a coordinate slice"
    return sliced



def trivial_sub_sequence(c: FdModule,
                         partition: WeightPartition) -> GeneralSequence:
    """The sequence with sub C, middle C and zero quotient."""
    zero = module_power(c, 0)
    return admissible_check(ModuleMap.identity(c), zero_map(c, zero),
                            partition)


def sum_sequence(seq_m: GeneralSequence,
                 seq_n: GeneralSequence) -> GeneralSequence:
    """The direct sum of two admissible sequences over the same partition."""
    if seq_m.partition != seq_n.partition:
        raise ValueError("summands must share the weight partition")
    subs = [seq_m.sub, seq_n.sub]
    mids = [seq_m.module, seq_n.module]
    quots = [seq_m.quot, seq_n.quot]
    mid = direct_sum(mids)
    inclusion = block_map(direct_sum(subs), subs, mid, mids,
                          {(0, 0): seq_m.inclusion, (1, 1): seq_n.inclusion})
    projection = block_map(mid, mids, direct_sum(quots), quots,
                           {(0, 0): seq_m.projection, (1, 1): seq_n.projection})
    return admissible_check(inclusion, projection, seq_m.partition)


def sum_conditions(seq_m: AdmissibleSequence,
                   seq_n: GeneralSequence) -> tuple[bool, dict]:
    """The mixed hom conditions under which the sum of two left saturated
    sequences stays left saturated.

    No maps from the first sub to the second sub, restriction of maps
    from the second middle onto its sub, and the cokernel of the second
    sub's trace in the first middle clears the high classes.
    """
    vertices = seq_m.module.algebra.vertices
    partition = seq_m.partition
    no_homs = len(hom_space(seq_m.sub, seq_n.sub)) == 0
    whole = hom_space(seq_n.module, seq_m.sub)
    restricted = [compose(f, seq_n.inclusion) for f in whole]
    target_dim = len(hom_space(seq_n.sub, seq_m.sub))
    length = sum(seq_m.sub.vdim(v) * seq_n.sub.vdim(v) for v in vertices)
    onto = Subspace(length,
                    [map_vec(f) for f in restricted]).dim == target_dim
    trace = SubmoduleHandle.zero(seq_m.module)
    for f in hom_space(seq_n.sub, seq_m.module):
        trace = trace.add(f.image())
    high = seq_m.high_weights | seq_n.high_weights
    clears = SubmoduleHandle.largest_inside(
        seq_m.module,
        [Subspace.full_space(s.ambient) if partition.weight_of(v) in high
         else s for v, s in zip(vertices, trace.spaces)]) == trace
    conditions = {
        "sub_homs_vanish": no_homs,
        "restriction_to_sub_onto": onto,
        "cokernel_clears_high_classes": clears,
    }
    return all(conditions.values()), conditions


def compose(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """f after g."""
    if g.target is not f.source and g.target != f.source:
        raise NotAModuleMap("composition of non-matching maps")
    return ModuleMap(g.source, f.target,
                     [a * b for a, b in zip(f.blocks, g.blocks)],
                     check=False)


def end_structure(m: FdModule) -> tuple[StructureAlgebra,
                                        tuple[ModuleMap, ...]]:
    """End(M) as a structure-constant algebra on the canonical hom basis.

    hom_space returns the echelon kernel basis of the intertwiner system
    in the vertex-block unknowns, which is the identity at its free
    unknowns: each basis map is one at its own free unknown, its last
    nonzero entry, and zero at the others'.  The coordinates of an
    endomorphism are read at those unknowns and checked by rebuilding
    the endomorphism from them.
    """
    basis = hom_space(m, m)
    k = len(basis)
    if k == 0:
        return StructureAlgebra(0, (), ()), ()

    vecs = [map_vec(b) for b in basis]
    free = [max(p for p, x in enumerate(v) if x) for v in vecs]
    assert all(v[p] == (ONE if i == j else ZERO)
               for i, v in enumerate(vecs) for j, p in enumerate(free)), \
        "the hom basis is not the identity at its free unknowns"
    support = [[(p, x) for p, x in enumerate(v) if x] for v in vecs]

    def coords(f: ModuleMap) -> tuple:
        target = map_vec(f)
        sol = tuple(target[p] for p in free)
        rebuilt = [ZERO] * len(target)
        for c, terms in zip(sol, support):
            if c:
                for p, x in terms:
                    rebuilt[p] += c * x
        assert tuple(rebuilt) == target, "endomorphism outside its own basis"
        return sol
    table = tuple(tuple(coords(compose(basis[i], basis[j])) for j in range(k))
                  for i in range(k))
    unit = coords(ModuleMap.identity(m))
    return StructureAlgebra(k, unit, table), basis


def flattened(f: ModuleMap) -> Matrix:
    """A module map as one block-diagonal matrix on the flattened
    coordinates."""
    return block_diagonal(f.blocks)


def act_basis(m: FdModule, i: int) -> Matrix:
    """The i-th basis path as a dense d x d matrix on the flattened space."""
    src, arrows = m.algebra.basis[i]
    tgt = m.algebra.path_target((src, arrows))
    block = Matrix.identity(m.vdim(src))
    for a in arrows:
        block = m.maps[a] * block
    rows = [[ZERO] * m.dim for _ in range(m.dim)]
    for bi, gi in enumerate(m.vertex_range(tgt)):
        for bj, gj in enumerate(m.vertex_range(src)):
            rows[gi][gj] = block.rows[bi][bj]
    return Matrix(rows, ncols=m.dim)


def pairing_matrix(m: FdModule) -> Matrix:
    """Rows: the functional C -> tr(rho(b) C) for each basis path b, as
    the dense action's transpose read row by row."""
    return Matrix(
        tuple(act_basis(m, i).transpose().vec()
              for i in range(m.algebra.dim)),
        ncols=m.dim ** 2)


def pairing_kernel(m: FdModule) -> Subspace:
    """The relations of period_space as one elimination over all d^2
    coordinates of the dense pairing."""
    return kernel_subspace(pairing_matrix(m))


def centraliser(m: FdModule) -> list | None:
    """A basis of the centraliser C of End(M) in M_d(Q) as sparse
    {flat position: entry} dicts, narrowed over all d^2 units at once,
    with every basis endomorphism written out as one dense matrix whose
    nonzero entries are read back from it; None when C is all of
    M_d(Q)."""
    d = m.dim
    cent = None
    for f in hom_space(m, m):
        if cent is not None and len(cent) == 1:
            break
        entries = flattened(f).nonzero_entries()
        if _is_scalar(entries, d):
            continue
        if cent is None:
            cent = [{pos: ONE} for pos in range(d * d)]
        cent = intertwiners(cent, d, [(entries, entries)])
    return cent


def placed_centraliser(m: FdModule) -> list | None:
    """periods._centraliser_blocks placed at their rows and columns and
    sorted by free unit, or None when every block is full.

    Each block's basis, started from units in ascending position, is one
    at its own free unit, its last nonzero one, and zero at the others'.
    Placing keeps the order of positions within a block, and blocks have
    disjoint supports, so the union sorted by free unit is centraliser's
    basis over the d^2 units.
    """
    blocks = periods._centraliser_blocks(m)
    if all(len(basis) == m.vdim(w) * m.vdim(v)
           for (w, v), basis in blocks.items()):
        return None
    d = m.dim
    cent = []
    for (w, v), basis in blocks.items():
        dv, base = m.vdim(v), m.offsets[w] * d + m.offsets[v]
        for y in basis:
            cent.append({base + (pos // dv) * d + pos % dv: x
                         for pos, x in y.items()})
    cent.sort(key=max)
    return cent


def matrix_text(rows: list) -> list:
    """The `--format text` lines of a matrix given by its rows of
    rationals: rational_str of every entry, right-aligned in columns."""
    strs = [[rational_str(x) for x in row] for row in rows]
    widths = [max(map(len, col)) for col in zip(*strs)]
    return ["    " + "  ".join(x.rjust(w) for x, w in zip(row, widths))
            for row in strs]


# -- maps between sums and flat submodules ------------------------------------


def zero_map(source: FdModule, target: FdModule) -> ModuleMap:
    return ModuleMap(source, target,
                     [Matrix.zero(target.vdim(v), source.vdim(v))
                      for v in source.algebra.vertices], check=False)


def map_vec(f: ModuleMap) -> tuple:
    """The blocks' entries vertex by vertex, each block row-major."""
    return tuple(x for b in f.blocks for x in b.vec())


def block_map(source: FdModule, sources: Sequence[FdModule],
              target: FdModule, targets: Sequence[FdModule],
              grid: dict) -> ModuleMap:
    """The map between direct sums given by a grid of maps between summands.

    source is direct_sum(sources) and target is direct_sum(targets); grid
    maps (row_slot, col_slot) to a map from sources[col_slot] to
    targets[row_slot], and absent slots are zero.  Slot sizes at each
    vertex are read from the summands.  The blocks are not rechecked
    against the arrows.
    """
    blocks = []
    for v in source.algebra.vertices:
        zeros = [(ZERO,) * s.vdim(v) for s in sources]
        rows = []
        for i, t in enumerate(targets):
            pieces = [grid[i, j].block(v).rows if (i, j) in grid else None
                      for j in range(len(sources))]
            for r in range(t.vdim(v)):
                row = ()
                for piece, zero in zip(pieces, zeros):
                    row += zero if piece is None else piece[r]
                rows.append(row)
        blocks.append(Matrix(rows, ncols=sum(map(len, zeros))))
    return ModuleMap(source, target, blocks, check=False)


def slot_layout(m: FdModule, n: int) -> list[list[int]]:
    """Entry g of slot k of an n-tuple of vectors of M is coordinate
    layout[k][g] of M^n, which is slot-major inside each vertex space."""
    layout = [[0] * m.dim for _ in range(n)]
    pos = 0
    for v in m.algebra.vertices:
        for slot in layout:
            for g in m.vertex_range(v):
                slot[g] = pos
                pos += 1
    return layout


def sum_images_and_kernels(endos: Sequence[ModuleMap]) -> list:
    """The image and the kernel of e + f, then of e - f, for each pair of
    basis endomorphisms in order, as module maps' handles: the power-1
    candidates that depth used to add after its hom-closure family."""
    out = []
    for e, f in itertools.combinations(endos, 2):
        for g in (e + f, e - f):
            out += [g.image(), kernel(g)]
    return out


def outer_sum(sigma: Sequence, omega: Sequence, d: int) -> Matrix:
    """sum_k outer(sigma_k, omega_k) for dense vectors of length d, one
    d x d outer product at a time."""
    c = Matrix.zero(d, d)
    for sg, om in zip(sigma, omega):
        c = c + Matrix(tuple(tuple(a * b for b in om) for a in sg), ncols=d)
    return c


def flat(handle: SubmoduleHandle) -> Subspace:
    """The submodule as one subspace of the ambient's flattened
    coordinates."""
    ambient = handle.ambient
    vecs = []
    for v, s in zip(ambient.algebra.vertices, handle.spaces):
        off = ambient.offsets[v]
        for b in s.basis_vectors():
            vec = [ZERO] * ambient.dim
            vec[off:off + len(b)] = b
            vecs.append(tuple(vec))
    return Subspace(ambient.dim, vecs)


def flat_relations(m: FdModule, power: int, ambient: FdModule,
                   handle: SubmoduleHandle) -> Subspace:
    """relation_from_submodule as it read on the flat submodule: every
    basis vector of N' inside M^power contracted with every basis
    functional of its annihilator on all power * d coordinates, the
    slots read through slot_layout."""
    if handle.ambient != ambient:
        raise ValueError("handle does not live in the expected power of M")
    d = m.dim
    layout = slot_layout(m, power)

    def slot_terms(flat_vec):
        return [[(g, flat_vec[p]) for g, p in enumerate(slot) if flat_vec[p]]
                for slot in layout]

    space = flat(handle)
    sigmas = [slot_terms(s) for s in space.basis_vectors()]
    omegas = [slot_terms(w) for w in space.annihilator().basis_vectors()]
    vecs = []
    for sigma in sigmas:
        for omega in omegas:
            vec = [ZERO] * (d * d)
            for sg, om in zip(sigma, omega):
                for r, a in sg:
                    for c, b in om:
                        vec[r * d + c] += a * b
            vecs.append(tuple(vec))
    return Subspace(d * d, vecs)


def candidate_depth_stages(m: FdModule, k: int,
                           spin_bound: int = 1) -> list[Subspace]:
    """Stages 1..k of depth as depth_space built them from candidates
    alone: each stage contracts the hom-closure and spin-box families
    until the accumulated relations reach the pairing kernel's
    dimension r, and every accumulated relation must pair to zero with
    rho(A)'s block bases."""
    d = m.dim
    blocks = periods._path_blocks(m)
    r = d * d - sum(map(len, blocks.values()))
    paths = periods._pairing(m, blocks)
    endos = hom_space(m, m)
    acc = Subspace.zero_space(d * d)
    stages = []
    for power in range(1, k + 1):
        if acc.dim < r:
            ambient = module_power(m, power)
            seen = set()
            for handle in periods._candidate_handles(m, power, ambient,
                                                     spin_bound, endos):
                if handle.spaces in seen:
                    continue
                seen.add(handle.spaces)
                rel = periods.relation_from_submodule(m, handle)
                if rel.dim == 0:
                    continue
                acc = acc.add(rel)
                if acc.dim == r:
                    break
            if any(sum(vec[p] * x for p, x in terms)
                   for vec in acc.basis_vectors() for terms in paths):
                raise AssertionError(
                    "a contracted relation escaped the pairing kernel")
        stages.append(acc)
    return stages


# -- linear algebra and the matrix algebra ------------------------------------


def solve(a: Matrix, b: Sequence) -> tuple | None:
    """One solution of a x = b, or None if the system is inconsistent.

    When solutions form an affine family, the representative with zero free
    coordinates is returned, so the output is deterministic.
    """
    if len(b) != a.nrows:
        raise DimensionMismatch("right-hand side has wrong length")
    aug = a.hstack(Matrix(tuple((x,) for x in b), ncols=1))
    red, pivots = rref(aug)
    if a.ncols in pivots:
        return None
    x = [ZERO] * a.ncols
    if a.ncols and a.nrows:
        zero = a.rows[0][0] - a.rows[0][0]
        x = [zero] * a.ncols
    for r, p in enumerate(pivots):
        x[p] = red.rows[r][a.ncols]
    return tuple(x)


def direct_sum_with_maps(modules: Sequence[FdModule]):
    """Direct sum with its canonical inclusions and projections, each
    checked against the arrows."""
    total = direct_sum(modules)
    inclusions, projections = [], []
    for k, m in enumerate(modules):
        ident = ModuleMap.identity(m)
        inc = block_map(m, [m], total, modules, {(k, 0): ident})
        proj = block_map(total, modules, m, [m], {(0, k): ident})
        inclusions.append(ModuleMap(m, total, inc.blocks))
        projections.append(ModuleMap(total, m, proj.blocks))
    return total, tuple(inclusions), tuple(projections)


def matrix_algebra_structure(n: int) -> StructureAlgebra:
    """M_n(Q) on the matrix-unit basis, row-major."""
    dim = n * n
    def idx(i, j):
        return i * n + j
    table = [[tuple([ZERO] * dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out = [ZERO] * dim
                    if j == k:
                        out[idx(i, l)] = ONE
                    table[idx(i, j)][idx(k, l)] = tuple(out)
    unit = [ZERO] * dim
    for i in range(n):
        unit[idx(i, i)] = ONE
    return StructureAlgebra(dim, unit, table)


def matrix_column_module(n: int, k: int) -> BModule:
    """(Q^n)^k over the n-by-n matrix algebra, matrix units acting as such."""
    if n < 1 or k < 0:
        raise RangeError("need a positive matrix size and a nonnegative "
                         "power")
    algebra = matrix_algebra_structure(n)
    mats = []
    for i in range(n):
        for j in range(n):
            rows = []
            for copy in range(k):
                for r in range(n):
                    row = [ZERO] * (n * k)
                    if r == i:
                        row[copy * n + j] = ONE
                    rows.append(row)
            mats.append(Matrix(rows, ncols=n * k))
    return b_module(algebra, mats)


# -- the paper's structural identities ----------------------------------------


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
    if witness.target == m and is_injective(witness):
        other = witness.source
    elif witness.source == m and is_surjective(witness):
        other = witness.target
    else:
        return IdentityReport("absorb", False, False, {})
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
    if not is_injective(left):
        raise ValueError("left map must be injective")
    if not is_surjective(right):
        raise ValueError("right map must be surjective")
    if left.image().spaces != kernel(right).spaces:
        raise ValueError("image of the mono must equal the kernel of the epi")
    mx = module_power(m, x)
    big = module_power(inner, x)
    # g: (M0^x)^x -> M0, (u_1, ..., u_x) -> sum_j slot_j(u_j); big is also
    # M0^(x*x), in which slot j of u_j is slot j*x + j
    g = block_map(big, [m0] * (x * x), m0, [m0],
                  {(0, j * x + j): ModuleMap.identity(m0) for j in range(x)})
    kh = kernel(g)
    lifted = block_map(big, [inner] * x, mx, [m] * x,
                       {(j, j): left for j in range(x)})
    k_in_mx = image_submodule(lifted, kh)
    reduced, proj = quotient_module(k_in_mx)
    # mono from M0: embed into slot 1 of the inner power, then slot 1 of M^x
    into_inner = block_map(m0, [m0], inner, [m0] * x,
                           {(0, 0): ModuleMap.identity(m0)})
    into_mx = block_map(m, [m], mx, [m] * x, {(0, 0): ModuleMap.identity(m)})
    mu = compose(compose(compose(proj, into_mx), left), into_inner)
    if not is_injective(mu):
        raise AssertionError("reduced sequence lost injectivity")
    # epi onto M1^(x*l) = (M1^l)^x
    right_power = block_map(mx, [m] * x, module_power(m1, x * l),
                            [right.target] * x,
                            {(j, j): right for j in range(x)})
    pi = factor_through_quotient(right_power, k_in_mx)
    if not is_surjective(pi):
        raise AssertionError("reduced sequence lost surjectivity")
    if not flattened(compose(pi, mu)).is_zero():
        raise AssertionError("reduced sequence is not a complex")
    if mu.image().spaces != kernel(pi).spaces:
        raise AssertionError("reduced sequence is not exact in the middle")
    base = period_space(m)
    red_space = period_space(reduced)
    return PushoutReduction(
        reduced, mu, pi,
        {"original": base.dim, "reduced": red_space.dim,
         "x": x, "l": l, "middle_dim": reduced.dim},
        base.dim == red_space.dim)


def evaluate_coefficient(m: FdModule, point: ComparisonPoint, c: Matrix):
    """tr(rho(u) C) inside the value field, as the sum over the path
    basis of u_b tr(rho(b) C) with rho(b) = act_basis(m, b)."""
    total = point.value_field.zero()
    for b, coeff in enumerate(point.u_coords):
        prod = act_basis(m, b) * c
        for i in range(prod.nrows):
            total = total + coeff * prod.rows[i][i]
    return total


# -- searches -----------------------------------------------------------------


def bounded_extension_search(
        seq: AdmissibleSequence,
        n0: SubmoduleHandle) -> tuple[SubmoduleHandle, ...]:
    """All extensions of the prescribed intersection found in the pool."""
    if n0.ambient != seq.sub:
        raise ValueError("the prescribed intersection must be a submodule "
                         "of the sub")
    whole = general(seq)
    n0_in_m = image_submodule(whole.inclusion, n0)
    return tuple(h for h in _search_pool(seq.module, 1, 512)
                 if h.intersect(whole.sub_handle) == n0_in_m)


class BudgetExceeded(RuntimeError):
    """The requested exploration does not fit in the given budget."""


@dataclass(frozen=True)
class ExploreStep:
    kind: str       # 'start' | 'image' | 'preimage' | 'sum' | 'intersect'
    detail: str


@dataclass(frozen=True)
class ExploreResult:
    found: bool
    steps: tuple[ExploreStep, ...] | None
    visited: int
    exhausted: bool


def class_c_explore(m: FdModule, target: SubmoduleHandle,
                    power_cap: int = 2, budget: int = 400) -> ExploreResult:
    """Breadth-first search of submodules reachable from full powers of M
    by images and preimages of endomorphism-matrix maps plus sums and
    intersections.

    The map family consists of matrices over {identity} + End(M)-basis
    with at most two nonzero entries, between powers up to power_cap.
    Deterministic; stops when the target is reached or the family
    closure is exhausted.  BudgetExceeded is raised up front when the
    ambient size of the target already outruns the visit budget.
    """
    endos = hom_space(m, m)
    alphabet = [None, ModuleMap.identity(m)] + list(endos)
    powers = {p: module_power(m, p) for p in range(1, power_cap + 1)}
    target_power = None
    for p, mod in powers.items():
        if target.ambient == mod:
            target_power = p
    if target_power is None:
        raise ValueError("target must live in a power of M within the cap")
    if target_power * m.dim > budget:
        raise BudgetExceeded(
            f"target sits in an ambient of dimension {target_power * m.dim}, "
            f"beyond the budget of {budget}")

    maps = []
    for a in range(1, power_cap + 1):
        for b in range(1, power_cap + 1):
            positions = [(i, j) for i in range(b) for j in range(a)]
            combos = []
            for pos in positions:
                for e in range(1, len(alphabet)):
                    combos.append({pos: e})
            for p1, p2 in itertools.combinations(positions, 2):
                for e1 in range(1, len(alphabet)):
                    for e2 in range(1, len(alphabet)):
                        combos.append({p1: e1, p2: e2})
            for entries in combos:
                label = f"{b}x{a} matrix {sorted(entries.items())}"
                grid = {pos: alphabet[e] for pos, e in entries.items()}
                maps.append((a, b, block_map(powers[a], [m] * a, powers[b],
                                             [m] * b, grid), label))

    parents: dict = {}
    queue = []
    seen = set()
    for p in range(1, power_cap + 1):
        h = SubmoduleHandle.full(powers[p])
        key = (p, h.spaces)
        if key not in seen:
            seen.add(key)
            parents[key] = (None, ExploreStep(
                "start", f"full submodule of power {p}"))
            queue.append((p, h))
    visited = 0
    found_key = None
    qi = 0
    while qi < len(queue) and visited < budget and found_key is None:
        p, h = queue[qi]
        qi += 1
        visited += 1
        if p == target_power and h.spaces == target.spaces:
            found_key = (p, h.spaces)
            break
        neighbors = []
        for a, b, fmap, label in maps:
            if a == p:
                neighbors.append((b, image_submodule(fmap, h),
                                  ExploreStep("image", label)))
            if b == p:
                neighbors.append((a, preimage_submodule(fmap, h),
                                  ExploreStep("preimage", label)))
        for p2, h2 in queue[:qi]:
            if p2 == p:
                neighbors.append((p, h.add(h2), ExploreStep("sum", "")))
                neighbors.append((p, h.intersect(h2),
                                  ExploreStep("intersect", "")))
        for p2, h2, step in neighbors:
            key = (p2, h2.spaces)
            if key not in seen:
                seen.add(key)
                parents[key] = ((p, h.spaces), step)
                queue.append((p2, h2))
                if p2 == target_power and h2.spaces == target.spaces:
                    found_key = key
        if found_key:
            break
    if found_key is None:
        exhausted = qi >= len(queue)
        return ExploreResult(False, None, visited, exhausted)
    steps = []
    key = found_key
    while key is not None:
        parent, step = parents[key]
        steps.append(step)
        key = parent
    return ExploreResult(True, tuple(reversed(steps)), visited, False)


def layered_algebra(vertices: Sequence[str],
                  arrows: Sequence,
                  relations: Sequence = ()) -> BoundQuiverAlgebra:
    """build_algebra as it read before it kept the ideal's echelon basis
    from one layer to the next: at every layer it eliminates, from
    scratch, all ideal elements p.r.q whose terms have length at most
    the layer's, over every path enumerated so far."""
    vertices = tuple(str(v) for v in vertices)
    if len(set(vertices)) != len(vertices):
        raise NotAdmissible("duplicate vertex names")
    arrow_objs = []
    for name, src, tgt in arrows:
        if src not in vertices or tgt not in vertices:
            raise NotAdmissible(f"arrow {name} touches an unknown vertex")
        arrow_objs.append(Arrow(str(name), str(src), str(tgt)))
    arrow_objs = tuple(arrow_objs)
    names = [a.name for a in arrow_objs]
    if len(set(names)) != len(names):
        raise NotAdmissible("duplicate arrow names")
    by_name = {a.name: a for a in arrow_objs}

    def walk(key: PathKey) -> str:
        v = key[0]
        for a in key[1]:
            v = by_name[a].target
        return v

    norm_relations = []
    max_rel_len = 1
    for rel in relations:
        terms = []
        endpoints = None
        for coeff, arrow_seq in rel:
            coeff = rat(coeff)
            arrow_seq = tuple(str(a) for a in arrow_seq)
            if len(arrow_seq) < 2:
                raise NotAdmissible("relation terms must be paths of length >= 2")
            if not coeff:
                continue
            for a in arrow_seq:
                if a not in by_name:
                    raise NotAdmissible(f"unknown arrow {a} in a relation")
            src = by_name[arrow_seq[0]].source
            v = src
            for a in arrow_seq:
                if by_name[a].source != v:
                    raise NotAdmissible(f"relation term {arrow_seq} is not composable")
                v = by_name[a].target
            if endpoints is None:
                endpoints = (src, v)
            elif endpoints != (src, v):
                raise NotAdmissible("relation terms are not parallel")
            terms.append((coeff, (src, arrow_seq)))
            max_rel_len = max(max_rel_len, len(arrow_seq))
        if not terms:
            raise NotAdmissible("relation with no nonzero terms")
        norm_relations.append(tuple(terms))
    norm_relations = tuple(norm_relations)

    def reduce_ideal(bound: int):
        """RREF of the ideal elements whose terms have length <= bound,
        over the paths enumerated so far ordered longest first."""
        col_order = sorted(all_paths, key=lambda k: (-len(k[1]), k[0], k[1]))
        col_index = {k: i for i, k in enumerate(col_order)}
        ideal_rows = []
        for rel in norm_relations:
            src_v = rel[0][1][0]
            tgt_v = walk(rel[0][1])
            pres = [p for p in all_paths if walk(p) == src_v]
            posts = [p for p in all_paths if p[0] == tgt_v]
            for pre in pres:
                for post in posts:
                    row = [ZERO] * len(col_order)
                    ok = True
                    for coeff, (tsrc, tarrows) in rel:
                        key = (pre[0], pre[1] + tarrows + post[1])
                        if len(key[1]) > bound:
                            ok = False
                            break
                        row[col_index[key]] += coeff
                    if ok and any(row):
                        ideal_rows.append(tuple(row))
        red, pivots = rref(Matrix(ideal_rows) if ideal_rows
                           else Matrix.zero(0, len(col_order)))
        return col_order, red, pivots

    window = max(2, max_rel_len)
    layers: list[list[PathKey]] = [[(v, ()) for v in vertices]]
    all_paths: list[PathKey] = list(layers[0])
    dead_streak = 0
    final_len = 0
    path_budget = 200_000

    for length in range(1, _MAX_PATH_LENGTH + 1):
        prev = layers[length - 1]
        layer = []
        for src, seq in prev:
            tip = walk((src, seq))
            for a in arrow_objs:
                if a.source == tip:
                    layer.append((src, seq + (a.name,)))
        layers.append(layer)
        all_paths.extend(layer)
        if len(all_paths) > path_budget:
            raise NotFiniteDimensional(
                "path enumeration exceeded the budget; the algebra was not "
                "certified finite-dimensional")
        final_len = length
        if not layer:
            reduced = None
            break
        reduced = reduce_ideal(length)
        col_order, _, pivots = reduced
        pivot_paths = {col_order[c] for c in pivots}
        if all(p in pivot_paths for p in layer):
            dead_streak += 1
            if dead_streak >= window:
                break
        else:
            dead_streak = 0
    else:
        raise NotFiniteDimensional(
            f"path layers did not die out within length {_MAX_PATH_LENGTH}")

    # final reduction data over everything enumerated; a dead streak ends
    # right after reducing at final_len, so only an empty layer needs it
    if reduced is None:
        reduced = reduce_ideal(final_len)
    col_order, red, pivots = reduced
    pivot_cols = set(pivots)
    basis = tuple(sorted((k for i, k in enumerate(col_order)
                          if i not in pivot_cols),
                         key=lambda k: (len(k[1]), k[0], k[1])))
    basis_index = {k: i for i, k in enumerate(basis)}
    reduction: dict[PathKey, tuple] = {}
    for k in basis:
        reduction[k] = ((basis_index[k], ONE),)
    for r, c in enumerate(pivots):
        terms = []
        for j in range(len(col_order)):
            if j != c and red.rows[r][j]:
                other = col_order[j]
                assert other in basis_index, "pivot reduced to a pivot column"
                terms.append((basis_index[other], -red.rows[r][j]))
        reduction[col_order[c]] = tuple(sorted(terms))

    return BoundQuiverAlgebra(vertices, arrow_objs, norm_relations, basis,
                              reduction)


def triple_loop_product(a: Matrix, b: Matrix) -> list:
    """a * b as lists of rows, each entry the sum over every k of
    a[i][k] * b[k][j], zero products included, the way Matrix products
    were formed before they skipped zero entries (ZERO when a has no
    columns)."""
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            total = None
            for k in range(a.ncols):
                term = a.rows[i][k] * b.rows[k][j]
                total = term if total is None else total + term
            row.append(ZERO if total is None else total)
        out.append(row)
    return out
