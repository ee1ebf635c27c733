"""Graded period dimensions of saturated two-step filtered systems.

The desk-scale instances of the period conjecture treated here are
linear models of mixed objects with three weight layers: a weight-zero
lattice piece, a weight-minus-one middle piece, and a weight-minus-two
torus piece, all modules over one semisimple coefficient algebra B
that plays the role of the full endomorphism ring.  For such a
saturated system the period space of the graded object has three
nonzero pieces, and their dimensions are pure B-linear algebra:

    weight  0:  2 + dim End_B(middle)
    weight -1:  dim Hom_B(torus, middle) + dim Hom_B(middle, lattice)
    weight -2:  dim Hom_B(torus, lattice)

The 2 counts the two rank-one tensor powers that tag along as direct
summands.  synthesize_model rebuilds the same numbers from an
independent oracle, the commutator quotient of the full matrix algebra
on the total space by the realized endomorphism algebra.  It reads that
quotient through its trace dual, the centraliser of the realized
algebra on the whole total space, never through a Hom_B between
layers, so the closed forms never stand alone.  baker_dims covers the
complementary family with no middle piece but a prescribed subspace of
relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import Matrix, ZERO, ONE, intertwiners
from .quivalg import StructureAlgebra
from .yoga import HypothesisFailed


class RangeError(ValueError):
    """A dimension argument falls outside its allowed range."""


class ModelMismatch(RuntimeError):
    """The synthesized model disagrees with the closed forms."""


# The matrix model has ambient dimension d = (top) + (middle) + (bottom)
# + 2, which is 2g + l + m + 2 for rational inputs.  Its oracle narrows
# the d^2 matrix units, one weight at a time, to the centraliser of the
# (algebra dim + 2 + top + bottom) basis matrices of the realized
# algebra, and the closed forms solve hom systems with up to (middle)^2
# unknowns.  On a shared 2-vCPU host the slowest shape the budget admits,
# g = 0, l = 1, m = 29 (d = 32), takes 0.04 s through the CLI (its
# scripts/size_wall.py row, best of 2); synthesize_model itself takes
# 0.06 s at d = 40 and 0.8 s at d = 100, and b_module's check of a
# layer's identity action, a product through its d nonzero entries,
# 0.06 s at d = 97.  The corpus asks up to d = 16.
# Larger models are refused up front, with the input-error exit code,
# and that refusal is part of what the CLI answers, so the budget does
# not follow the speed.
MODEL_DIM_BUDGET = 32


def check_model_budget(top: int, middle: int, bottom: int) -> None:
    """RangeError if the model on layers of these dimensions would have
    an ambient dimension beyond MODEL_DIM_BUDGET."""
    d = top + middle + bottom + 2
    if d > MODEL_DIM_BUDGET:
        raise RangeError(
            f"the matrix model would have ambient dimension {d}, beyond "
            f"the budget of {MODEL_DIM_BUDGET}")


# ---------------------------------------------------------------------------
# modules over a structure-constant algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BModule:
    """A finite-dimensional module over a structure-constant algebra.

    action holds one square matrix per basis element of the algebra;
    build through b_module so that the unit and the multiplication
    table have been checked against the action.
    """

    algebra: StructureAlgebra
    dim: int
    action: tuple[Matrix, ...]


def b_module(algebra: StructureAlgebra, mats) -> BModule:
    """Verify and wrap action matrices as a module over the algebra."""
    action = tuple(m if isinstance(m, Matrix) else Matrix(m) for m in mats)
    if len(action) != algebra.dim:
        raise HypothesisFailed("one action matrix per basis element "
                               "is required")
    dim = action[0].nrows if action else 0
    for m in action:
        if (m.nrows, m.ncols) != (dim, dim):
            raise HypothesisFailed("action matrices must be square and "
                                   "of equal size")
    unit_action = Matrix.zero(dim, dim)
    for c, m in zip(algebra.unit, action):
        unit_action = unit_action + m.scale(c)
    if unit_action != Matrix.identity(dim):
        raise HypothesisFailed("the unit does not act as the identity")
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            expected = Matrix.zero(dim, dim)
            for k, c in enumerate(algebra.table[i][j]):
                if c:
                    expected = expected + action[k].scale(c)
            if action[i] * action[j] != expected:
                raise HypothesisFailed(
                    f"action does not respect the product of basis "
                    f"elements {i} and {j}")
    return BModule(algebra, dim, action)


def rational_structure() -> StructureAlgebra:
    """Q itself, as a one-dimensional structure-constant algebra."""
    return StructureAlgebra(1, (ONE,), (((ONE,),),))


def rational_module(algebra: StructureAlgebra, d: int) -> BModule:
    """Q^d over the one-dimensional algebra."""
    if algebra.dim != 1:
        raise HypothesisFailed("rational modules live over a "
                               "one-dimensional algebra")
    return b_module(algebra, [Matrix.identity(d)])


def regular_power(algebra: StructureAlgebra, k: int) -> BModule:
    """The k-th power of the left regular module."""
    if k < 0:
        raise RangeError("the power must be nonnegative")
    n = algebra.dim
    mats = []
    for i in range(n):
        basis = tuple(ONE if t == i else ZERO for t in range(n))
        block = algebra.left_mult(basis)
        rows = []
        for copy in range(k):
            for r in range(n):
                row = [ZERO] * (n * k)
                for c in range(n):
                    row[copy * n + c] = block.rows[r][c]
                rows.append(row)
        mats.append(Matrix(rows, ncols=n * k))
    return b_module(algebra, mats)


def _same_algebra(a: StructureAlgebra, b: StructureAlgebra) -> bool:
    return a.dim == b.dim and a.unit == b.unit and a.table == b.table


# ---------------------------------------------------------------------------
# saturated inputs and the closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SaturatedInput:
    """Coefficient algebra with the three weight layers it acts on.

    ha is the middle (weight minus one) piece, ht the bottom (weight
    minus two) piece, hl the top (weight zero) piece.
    """

    algebra: StructureAlgebra
    ha: BModule
    ht: BModule
    hl: BModule

    @property
    def gr0_nonzero(self) -> bool:
        return self.hl.dim > 0

    @property
    def grm2_nonzero(self) -> bool:
        return self.ht.dim > 0


def saturated_input(algebra: StructureAlgebra, ha: BModule, ht: BModule,
                    hl: BModule) -> SaturatedInput:
    for piece in (ha, ht, hl):
        if not _same_algebra(piece.algebra, algebra):
            raise HypothesisFailed("all three pieces must be modules over "
                                   "the same coefficient algebra")
    return SaturatedInput(algebra, ha, ht, hl)


def rational_input(g: int, m: int, l: int) -> SaturatedInput:
    """The unconstrained case: B = Q, middle of dimension 2g."""
    if g < 0 or m < 0 or l < 0:
        raise RangeError("layer dimensions must be nonnegative")
    check_model_budget(l, 2 * g, m)
    q = rational_structure()
    return saturated_input(q, rational_module(q, 2 * g),
                           rational_module(q, m), rational_module(q, l))


def hom_dim(src: BModule, tgt: BModule) -> int:
    """Dimension of the equivariant maps: the X from src to tgt with
    tgt(b) X = X src(b) for every basis element b."""
    if not _same_algebra(src.algebra, tgt.algebra):
        raise HypothesisFailed("equivariant maps need a common algebra")
    units = [{pos: ONE} for pos in range(tgt.dim * src.dim)]
    return len(intertwiners(units, src.dim, [
        (act_t.nonzero_entries(), act_s.nonzero_entries())
        for act_s, act_t in zip(src.action, tgt.action)]))


def graded_period_dims(inp: SaturatedInput) -> tuple[int, int, int]:
    """The three nonzero graded pieces of the period space.

    Weight zero collects the endomorphisms of the two rank-one tags and
    of the middle piece; weight minus one the equivariant maps that
    drop one layer; weight minus two the maps from bottom to top.
    """
    if not inp.algebra.is_semisimple():
        raise HypothesisFailed("the coefficient algebra has a nonzero "
                               "radical")
    if not inp.gr0_nonzero:
        raise HypothesisFailed("the weight-zero layer vanishes; the graded "
                               "formula needs it")
    if not inp.grm2_nonzero:
        raise HypothesisFailed("the weight-minus-two layer vanishes; the "
                               "graded formula needs it")
    d0 = 2 + hom_dim(inp.ha, inp.ha)
    dm1 = hom_dim(inp.ht, inp.ha) + hom_dim(inp.ha, inp.hl)
    dm2 = hom_dim(inp.ht, inp.hl)
    return (d0, dm1, dm2)


def baker_dims(x_dim: int, l_dim: int, n_dim: int) -> int:
    """Period count for the family with no middle layer and a prescribed
    space of relations of dimension n_dim inside the x_dim by l_dim
    pairing block; the two rank-one tags contribute the constant 2."""
    if x_dim < 0 or l_dim < 0:
        raise RangeError("layer dimensions must be nonnegative")
    if not 0 <= n_dim <= x_dim * l_dim:
        raise RangeError(
            f"the relation space must fit: 0 <= {n_dim} <= {x_dim * l_dim}")
    return 2 + x_dim * l_dim - n_dim


# ---------------------------------------------------------------------------
# synthesized matrix-model oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModelReport:
    """Commutator-quotient dimensions of the synthesized matrix model."""

    ambient_dim: int            # dimension of the total space
    endo_basis: tuple           # realized endomorphism algebra, as matrices
    total_dim: int              # dim of the full commutator quotient
    graded: dict                # weight -> dim of that piece
    formula: tuple[int, int, int]
    matches: bool


def synthesize_model(inp: SaturatedInput) -> ModelReport:
    """Independent oracle for the graded closed forms.

    The total space stacks the five blocks (top layer, middle layer,
    bottom layer, two rank-one tags) with weights (0, -1, -2, 0, -2).
    The realized endomorphism algebra is spanned by the coefficient
    algebra acting diagonally on the three layers, the two tag
    idempotents, the maps from the weight-minus-two tag into the bottom
    layer, and the maps from the top layer onto the weight-zero tag.
    The quotient of the full matrix algebra by its commutators with
    that span is graded by entry weight.  Since tr(Y [A, X]) =
    tr([Y, A] X), it is the trace dual of the centraliser of the span,
    so each piece is read as the dimension of a piece of the
    centraliser, narrowed from the matrix units one basis matrix at a
    time.  The pieces must reproduce the closed forms, and
    ModelMismatch means an engine bug, not a refuted conjecture.
    """
    formula = graded_period_dims(inp)
    sizes = (inp.hl.dim, inp.ha.dim, inp.ht.dim, 1, 1)
    weights = (0, -1, -2, 0, -2)
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    d = offsets[-1]
    wt = []
    for block, size in enumerate(sizes):
        wt.extend([weights[block]] * size)

    def embed(block_mats: dict) -> Matrix:
        rows = [[ZERO] * d for _ in range(d)]
        for block, m in block_mats.items():
            off = offsets[block]
            for r in range(m.nrows):
                for c in range(m.ncols):
                    rows[off + r][off + c] = m.rows[r][c]
        return Matrix(rows, ncols=d)

    def unit(r: int, c: int) -> Matrix:
        rows = [[ZERO] * d for _ in range(d)]
        rows[r][c] = ONE
        return Matrix(rows, ncols=d)

    basis = []
    for i in range(inp.algebra.dim):
        basis.append(embed({0: inp.hl.action[i], 1: inp.ha.action[i],
                            2: inp.ht.action[i]}))
    basis.append(unit(offsets[3], offsets[3]))
    basis.append(unit(offsets[4], offsets[4]))
    for t in range(inp.ht.dim):
        basis.append(unit(offsets[2] + t, offsets[4]))
    for i in range(inp.hl.dim):
        basis.append(unit(offsets[3], offsets[0] + i))

    # the realized algebra has weight zero, so its centraliser is graded,
    # and the trace form pairs the quotient's weight-w piece with the
    # centraliser's weight -w piece
    units: dict[int, list] = {}
    for a in range(d):
        for b in range(d):
            units.setdefault(wt[b] - wt[a], []).append({a * d + b: ONE})
    entries = [r.nonzero_entries() for r in basis]
    graded = {}
    for w in sorted(units, reverse=True):
        cent = units[-w]
        for r in entries:
            cent = intertwiners(cent, d, [(r, r)])
        graded[w] = len(cent)
    total = sum(graded.values())
    for w, dim in graded.items():
        if w > 0 and dim:
            raise ModelMismatch(
                f"the weight {w} piece of the quotient should vanish "
                f"but has dimension {dim}")
    if (graded.get(0, 0), graded.get(-1, 0), graded.get(-2, 0)) != formula:
        raise ModelMismatch(
            f"model grading {graded} disagrees with the closed forms "
            f"{formula}")
    return ModelReport(d, tuple(basis), total, graded, formula, True)
