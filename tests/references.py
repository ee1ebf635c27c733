"""Second constructions of lifts, extensions and the outward hom tests.

The package answers these with two fixpoints on the middle module of an
admissible sequence: the submodule spun from some vectors, and the
largest submodule inside given vertex spaces.  The references here take
the longer routes instead:

- the opposite algebra, rebuilt from the algebra's relations with every
  arrow reversed, and the linear dual of a module as a module over it;
- the annihilator sequence in the dual, with the weights negated, on
  which a universal extension becomes a universal lift;
- traces (the submodule spun from everything at some vertices) and the
  quotient modules they cut out.

They share no code with the fixpoints beyond spin, annihilators and the
module constructions, so agreement between the two is evidence for both.

matrix_text is the text layout of a relation matrix one entry at a
time, as the command line wrote it before it formatted each distinct
value once.
"""

import functools

from qperiods import zoo
from qperiods.exactlin import Matrix
from qperiods.quivalg import (
    FdModule,
    SubmoduleHandle,
    build_algebra,
    hom_space,
    image_submodule,
    preimage_submodule,
    spin_pool,
)
from qperiods.serialize import rational_str
from qperiods.yoga import WeightPartition, admissible_check, slice_by_weight


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


def dual_sequence(seq):
    """The annihilator sequence in the dual module, with negated weights.

    The annihilator of the sub becomes the new sub, so left-side
    questions about the dual are right-side questions about seq.
    """
    m = seq.module
    ann = dual_submodule(m, dual_module(m), seq.sub_handle)
    _, dincl = ann.sub_module()
    _, dproj = ann.quotient_module()
    return admissible_check(dincl, dproj, negate(seq.partition))


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
    pmod, pincl = preimage_submodule(seq.projection, n1).sub_module()
    return image_submodule(pincl, trace(pmod, seq.high_vertices()))


def extension(seq, n0: SubmoduleHandle) -> SubmoduleHandle:
    """The universal extension as the annihilator of a universal lift in
    the dual sequence."""
    m = seq.module
    dm = dual_module(m)
    dseq = dual_sequence(seq)
    ann = dual_submodule(m, dm, image_submodule(seq.inclusion, n0))
    lifted = lift(dseq, image_submodule(dseq.projection, ann))
    return SubmoduleHandle(m, [s.annihilator() for s in lifted.spaces])


def outward_homs_vanish(seq, side: str) -> bool:
    """Right side: M modulo the trace outside the low classes is zero.
    Left side: the dual is spun from everything outside the high
    classes."""
    m = seq.module
    if side == "right":
        low = seq.partition.vertices_at(seq.low_weights)
        generated = trace(m, [v for v in m.algebra.vertices if v not in low])
        return generated.quotient_module()[0].is_zero()
    high = seq.high_vertices()
    return trace(dual_module(m),
                 [v for v in m.algebra.vertices if v not in high]).is_full()


def cokernel_clears(seq_m, seq_n) -> bool:
    """The cokernel of the second sub's trace in the first middle has no
    nonzero submodule at the high vertices of either sequence."""
    t = SubmoduleHandle.zero(seq_m.module)
    for f in hom_space(seq_n.sub, seq_m.module):
        t = t.add(f.image())
    coker = t.quotient_module()[0]
    high = seq_m.high_weights | seq_n.high_weights
    return supported_at(coker, seq_m.partition.vertices_at(high)).is_zero()


def corpus_slices() -> list:
    """(label, algebra key, sequence) for every corpus module cut at
    every class weight of its algebra, the top one included."""
    out = []
    for entry in zoo.corpus():
        partition = WeightPartition.of(
            dict(zoo.weight_classes(entry.algebra_key)))
        for w, _ in partition.classes:
            out.append((f"{entry.key}@{w}", entry.algebra_key,
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


def matrix_text(rows: list) -> list:
    """The `--format text` lines of a matrix given by its rows of
    rationals: rational_str of every entry, right-aligned in columns."""
    strs = [[rational_str(x) for x in row] for row in rows]
    widths = [max(map(len, col)) for col in zip(*strs)]
    return ["    " + "  ".join(x.rjust(w) for x, w in zip(row, widths))
            for row in strs]
