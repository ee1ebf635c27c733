"""Bound quiver algebras and their finite-dimensional representations.

An algebra is presented by a quiver (vertices, arrows) and an admissible
set of relations: Q-linear combinations of parallel paths of length at
least two.  The algebra object carries an explicit path basis of the
quotient and a full multiplication table, both computed exactly.

Paths are stored as (source_vertex, arrow_names) with arrow names in
traversal order, so the path "first x then y" is (v, ("x", "y")) and is
displayed as "y*x" to match composition order.  Representations store one
rational matrix per arrow; the flattened coordinate space of a module
concatenates the vertex spaces in the algebra's vertex order.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .exactlin import (
    Matrix,
    Subspace,
    ZERO,
    ONE,
    block_diagonal,
    intertwiners,
    kernel_subspace,
    rank,
    rat,
    rref,
)


class NotAdmissible(ValueError):
    """Quiver or relation data violates the admissibility requirements."""


class NotFiniteDimensional(ValueError):
    """The bound quiver algebra could not be certified finite-dimensional."""


class NotAModuleMap(ValueError):
    """Blocks fail to commute with the arrow action."""


class NotASubmodule(ValueError):
    """A subspace is not vertex-homogeneous or not arrow-stable."""


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


PathKey = tuple  # (source_vertex, tuple_of_arrow_names)


def path_name(key: PathKey) -> str:
    source, arrows = key
    if not arrows:
        return f"e_{source}"
    return "*".join(reversed(arrows))


class BoundQuiverAlgebra:
    """Finite-dimensional quotient of a path algebra by an admissible ideal.

    Built through :func:`build_algebra`; do not construct directly.
    """

    def __init__(self, vertices, arrows, relations, basis, reduction):
        self.vertices: tuple[str, ...] = vertices
        self.arrows: tuple[Arrow, ...] = arrows
        self.relations = relations          # normalized: tuple of term tuples
        self.basis: tuple[PathKey, ...] = basis
        self.dim = len(basis)
        self.basis_index = {k: i for i, k in enumerate(basis)}
        self.arrow_by_name = {a.name: a for a in arrows}
        self._reduction = reduction         # PathKey -> tuple[(basis_idx, coeff)]

    # -- paths ---------------------------------------------------------------

    def path_target(self, key: PathKey) -> str:
        source, arrows = key
        v = source
        for a in arrows:
            arrow = self.arrow_by_name[a]
            if arrow.source != v:
                raise NotAdmissible(f"path {key} is not composable at {a}")
            v = arrow.target
        return v

    def basis_names(self) -> tuple[str, ...]:
        return tuple(path_name(k) for k in self.basis)

    def basis_by_name(self, name: str) -> int:
        for i, k in enumerate(self.basis):
            if path_name(k) == name:
                return i
        raise KeyError(f"no basis path named {name}")

    # -- reduction and multiplication ------------------------------------------

    def _reduce_key(self, key: PathKey) -> tuple:
        """Coordinates of a raw path in the quotient basis.  Every path
        enumerated while the basis was built has one, and that covers
        each basis path extended by one arrow."""
        hit = self._reduction.get(key)
        if hit is None:
            raise NotAdmissible(f"path {key} has no reduction to the basis")
        return hit

    def __eq__(self, other) -> bool:
        return (isinstance(other, BoundQuiverAlgebra)
                and self.vertices == other.vertices
                and self.arrows == other.arrows
                and self.relations == other.relations)

    def __hash__(self) -> int:
        return hash((self.vertices, self.arrows, self.relations))

    def __repr__(self) -> str:
        return (f"BoundQuiverAlgebra({len(self.vertices)} vertices, "
                f"{len(self.arrows)} arrows, dim {self.dim})")


_MAX_PATH_LENGTH = 24


def _elimination_order(key: PathKey) -> tuple:
    """The column order of the ideal's elimination: longest paths first."""
    return (-len(key[1]), key[0], key[1])


def build_algebra(vertices: Sequence[str],
                  arrows: Sequence,
                  relations: Sequence = ()) -> BoundQuiverAlgebra:
    """Construct a bound quiver algebra with an explicit path basis.

    arrows: triples (name, source, target).  relations: each relation is a
    list of (coeff, arrow_names) terms; arrow names are in traversal order
    and all terms of one relation must be parallel paths of length >= 2.

    Path layers are enumerated until they die out, where a layer is dead
    when every path of that length lies in the span of the relation ideal
    modulo shorter paths.  For relations that mix path lengths the
    enumeration keeps going for a window of extra layers before it
    commits, which settles every ideal in this package's scope; if layers
    refuse to die within _MAX_PATH_LENGTH the construction raises
    NotFiniteDimensional rather than guess.

    The ideal is held as the reduced echelon basis, over the paths
    enumerated so far ordered longest first, of its elements p.r.q (r a
    relation, p and q paths) whose terms all have length at most the
    current one.  Each new layer puts its paths first in that order, so
    the basis stays reduced, and only the elements whose longest term
    reaches the new length are added to it; with no relations it stays
    empty and no layer eliminates anything.  The paths that lead no row
    are the basis, and each leading path reduces to minus the rest of
    its row.
    """
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

    norm_relations = []
    shapes = []                 # (source, target, longest term) per relation
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
        shapes.append((*endpoints, max(len(t[1][1]) for t in terms)))
    norm_relations = tuple(norm_relations)

    # the reduced echelon basis of the ideal, each row a {path: coeff}
    # dict keyed by its leading path
    ideal: dict[PathKey, dict] = {}

    def add(row: dict) -> None:
        """Put row's span into the ideal's basis, keeping it reduced."""
        for p in [p for p in row if p in ideal]:
            c = row[p]
            if c:
                for q, x in ideal[p].items():
                    row[q] = row.get(q, ZERO) - c * x
        row = {q: x for q, x in row.items() if x}
        if not row:
            return
        lead = min(row, key=_elimination_order)
        pivot = row[lead]
        if pivot != 1:
            inv = 1 / pivot
            row = {q: x * inv for q, x in row.items()}
        for other in ideal.values():
            c = other.get(lead)
            if c:
                for q, x in row.items():
                    y = other.get(q, ZERO) - c * x
                    if y:
                        other[q] = y
                    else:
                        del other[q]
        ideal[lead] = row

    out_arrows = {v: [a for a in arrow_objs if a.source == v]
                  for v in vertices}
    window = max(2, max_rel_len)
    # the paths of each length, each with the vertex it ends at
    layers = [[((v, ()), v) for v in vertices]]
    enumerated = len(vertices)
    dead_streak = 0
    path_budget = 200_000

    for length in range(1, _MAX_PATH_LENGTH + 1):
        layer = [((src, seq + (a.name,)), a.target)
                 for (src, seq), tip in layers[-1] for a in out_arrows[tip]]
        layers.append(layer)
        enumerated += len(layer)
        if enumerated > path_budget:
            raise NotFiniteDimensional(
                "path enumeration exceeded the budget; the algebra was not "
                "certified finite-dimensional")
        if not layer:
            break
        for rel, (src_v, tgt_v, longest) in zip(norm_relations, shapes):
            gap = length - longest
            for i in range(gap + 1):
                posts = [path for path, _ in layers[gap - i]
                         if path[0] == tgt_v]
                for pre, tip in layers[i]:
                    if tip != src_v:
                        continue
                    for post in posts:
                        row: dict[PathKey, Fraction] = {}
                        for coeff, (_, tarrows) in rel:
                            key = (pre[0], pre[1] + tarrows + post[1])
                            row[key] = row.get(key, ZERO) + coeff
                        add(row)
        if all(path in ideal for path, _ in layer):
            dead_streak += 1
            if dead_streak >= window:
                break
        else:
            dead_streak = 0
    else:
        raise NotFiniteDimensional(
            f"path layers did not die out within length {_MAX_PATH_LENGTH}")

    # by length, then source and arrows: the paths of a layer have one
    # length, so each layer is sorted as the tuples they are
    basis = tuple(path for layer in layers
                  for path in sorted(p for p, _ in layer if p not in ideal))
    basis_index = {k: i for i, k in enumerate(basis)}
    reduction: dict[PathKey, tuple] = {k: ((i, ONE),)
                                       for k, i in basis_index.items()}
    for lead, row in ideal.items():
        reduction[lead] = tuple(sorted((basis_index[q], -x)
                                       for q, x in row.items() if q != lead))

    return BoundQuiverAlgebra(vertices, arrow_objs, norm_relations, basis,
                              reduction)


# ---------------------------------------------------------------------------
# abstract algebras by structure constants
# ---------------------------------------------------------------------------


class StructureAlgebra:
    """A finite-dimensional unital Q-algebra given by structure constants.

    table[i][j] holds the coordinates of b_i * b_j.  Used for coefficient
    algebras that are not quiver-presented.
    """

    def __init__(self, dim: int, unit: Sequence, table):
        self.dim = dim
        self.unit = tuple(rat(c) for c in unit)
        self.table = tuple(tuple(tuple(rat(c) for c in cell) for cell in row)
                           for row in table)
        if len(self.unit) != dim or len(self.table) != dim:
            raise ValueError("structure constant data has the wrong shape")

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        out = [ZERO] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if not b:
                    continue
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        out[k] += a * b * c
        return tuple(out)

    def left_mult(self, x: Sequence) -> Matrix:
        cols = []
        for j in range(self.dim):
            basis = [ZERO] * self.dim
            basis[j] = ONE
            cols.append(self.multiply(x, basis))
        return Matrix.from_columns(cols)

    def trace_form(self) -> Matrix:
        """tr(L_i L_j) read off the table: L_i L_j = sum_k c_ij^k L_k, and
        tr(L_k) = sum_l c_kl^l, so no left multiplication is built."""
        n = self.dim
        traces = [sum((self.table[k][l][l] for l in range(n)), ZERO)
                  for k in range(n)]
        return Matrix._wrap(tuple(
            tuple(sum((c * t for c, t in zip(cell, traces) if c), ZERO)
                  for cell in row)
            for row in self.table), n)

    def radical(self) -> Subspace:
        """Radical of the trace form; equals the Jacobson radical over Q."""
        return kernel_subspace(self.trace_form())

    def is_semisimple(self) -> bool:
        return self.radical().dim == 0

    def check_associative(self) -> bool:
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    ei = tuple(ONE if t == i else ZERO for t in range(self.dim))
                    ej = tuple(ONE if t == j else ZERO for t in range(self.dim))
                    ek = tuple(ONE if t == k else ZERO for t in range(self.dim))
                    if self.multiply(self.multiply(ei, ej), ek) != \
                            self.multiply(ei, self.multiply(ej, ek)):
                        return False
        return True

    def check_unit(self) -> bool:
        for i in range(self.dim):
            ei = tuple(ONE if t == i else ZERO for t in range(self.dim))
            if self.multiply(self.unit, ei) != ei or \
                    self.multiply(ei, self.unit) != ei:
                return False
        return True

    def __repr__(self) -> str:
        return f"StructureAlgebra(dim {self.dim})"


def field_extension_structure(coeffs: Sequence[int]) -> StructureAlgebra:
    """Q[x]/(f) as a structure-constant algebra on the power basis."""
    from .exactlin import NumberField
    nf = NumberField(coeffs)
    n = nf.degree
    table = []
    for i in range(n):
        row = []
        xi = nf.gen() ** i
        for j in range(n):
            row.append((xi * (nf.gen() ** j)).coeffs)
        table.append(row)
    unit = [ONE] + [ZERO] * (n - 1)
    return StructureAlgebra(n, unit, table)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


class FdModule:
    """A finite-dimensional representation: vertex spaces plus arrow matrices."""

    def __init__(self, algebra: BoundQuiverAlgebra,
                 dims: dict | Sequence[int],
                 maps: dict | None = None):
        self.algebra = algebra
        if isinstance(dims, dict):
            unknown = set(dims) - set(algebra.vertices)
            if unknown:
                raise ValueError(f"unknown vertices in dims: {sorted(unknown)}")
            self.dims = tuple(int(dims.get(v, 0)) for v in algebra.vertices)
        else:
            self.dims = tuple(int(d) for d in dims)
            if len(self.dims) != len(algebra.vertices):
                raise ValueError("dims length does not match vertex count")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative vertex dimension")
        self.dim = sum(self.dims)
        offsets = {}
        run = 0
        for v, d in zip(algebra.vertices, self.dims):
            offsets[v] = run
            run += d
        self.offsets = offsets
        maps = dict(maps or {})
        self.maps: dict[str, Matrix] = {}
        for a in algebra.arrows:
            m = maps.pop(a.name, None)
            if m is None:
                m = Matrix.zero(self.vdim(a.target), self.vdim(a.source))
            elif not isinstance(m, Matrix):
                m = Matrix(tuple(tuple(rat(x) for x in row) for row in m))
            self.maps[a.name] = m
        if maps:
            raise ValueError(f"maps given for unknown arrows: {sorted(maps)}")
        self.validate()

    # -- structure checks -----------------------------------------------------

    def validate(self):
        """Check arrow matrix shapes and that every relation acts by zero."""
        for a in self.algebra.arrows:
            m = self.maps[a.name]
            want = (self.vdim(a.target), self.vdim(a.source))
            if (m.nrows, m.ncols) != want:
                raise ValueError(
                    f"map for arrow {a.name} has shape {(m.nrows, m.ncols)}, "
                    f"expected {want}")
        for rel in self.algebra.relations:
            acc = None
            for coeff, (src, arrows) in rel:
                term = self.path_map(src, arrows).scale(coeff)
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                raise ValueError("a relation does not act by zero")

    # -- vertex bookkeeping -----------------------------------------------------

    def vdim(self, v: str) -> int:
        return self.dims[self.algebra.vertices.index(v)]

    def vertex_range(self, v: str) -> range:
        off = self.offsets[v]
        return range(off, off + self.vdim(v))

    def slice_of(self, flat: Sequence, v: str) -> tuple:
        r = self.vertex_range(v)
        return tuple(flat[i] for i in r)

    def embed_vertex_vector(self, v: str, vec: Sequence) -> tuple:
        out = [ZERO] * self.dim
        for i, x in zip(self.vertex_range(v), vec):
            out[i] = rat(x)
        return tuple(out)

    # -- algebra action -----------------------------------------------------------

    def path_map(self, source: str, arrows: Sequence[str]) -> Matrix:
        """The path from source along the arrows, in traversal order, as
        the product of their maps: vdim(target) x vdim(source).  Only
        the trivial path starts from the identity."""
        if not arrows:
            return Matrix.identity(self.vdim(source))
        block = self.maps[arrows[0]]
        for a in arrows[1:]:
            block = self.maps[a] * block
        return block

    def placed(self, block: Matrix, target: str, source: str) -> list:
        """A block from the source vertex's space to the target's, as its
        nonzero (row, column, entry) triples on the flattened coordinates."""
        t, s = self.offsets[target], self.offsets[source]
        return [(t + i, s + j, x) for i, j, x in block.nonzero_entries()]

    # -- predicates ------------------------------------------------------------

    def is_semisimple_rep(self) -> bool:
        # for admissible relations the radical acts through the arrows
        return all(m.is_zero() for m in self.maps.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, FdModule)
                and self.algebra == other.algebra
                and self.dims == other.dims
                and self.maps == other.maps)

    def __repr__(self) -> str:
        d = {v: n for v, n in zip(self.algebra.vertices, self.dims) if n}
        return f"FdModule({d!r})"


def simple_module(algebra: BoundQuiverAlgebra, vertex: str) -> FdModule:
    return FdModule(algebra, {vertex: 1}, {})


def projective_module(algebra: BoundQuiverAlgebra, vertex: str) -> FdModule:
    """The projective cover of the simple at a vertex, on the path basis.

    Basis of the vertex space at w: paths from `vertex` to w that are in
    the algebra's basis.  An arrow acts by appending itself.
    """
    paths = [k for k in algebra.basis if k[0] == vertex]
    by_vertex: dict[str, list[PathKey]] = {v: [] for v in algebra.vertices}
    for k in paths:
        by_vertex[algebra.path_target(k)].append(k)
    for v in by_vertex:
        by_vertex[v].sort(key=lambda k: (len(k[1]), k[1]))
    dims = {v: len(by_vertex[v]) for v in algebra.vertices}
    maps = {}
    for a in algebra.arrows:
        src_paths = by_vertex[a.source]
        tgt_paths = by_vertex[a.target]
        tgt_index = {k: i for i, k in enumerate(tgt_paths)}
        rows = [[ZERO] * len(src_paths) for _ in range(len(tgt_paths))]
        for j, (psrc, parrows) in enumerate(src_paths):
            extended = (psrc, parrows + (a.name,))
            for b_idx, c in algebra._reduce_key(extended):
                bkey = algebra.basis[b_idx]
                if bkey[0] != vertex:
                    continue
                rows[tgt_index[bkey]][j] = c
        maps[a.name] = Matrix(rows, ncols=len(src_paths))
    return FdModule(algebra, dims, maps)


def direct_sum(modules: Sequence[FdModule]) -> FdModule:
    """The direct sum: each vertex space lists the summands' spaces at
    that vertex in order, and each arrow acts block-diagonally."""
    if not modules:
        raise ValueError("empty direct sum is ambiguous; pass a zero module")
    algebra = modules[0].algebra
    for m in modules:
        if m.algebra != algebra:
            raise ValueError("direct sum of modules over different algebras")
    dims = {v: sum(m.vdim(v) for m in modules) for v in algebra.vertices}
    maps = {a.name: block_diagonal([m.maps[a.name] for m in modules])
            for a in algebra.arrows}
    return FdModule(algebra, dims, maps)


def module_power(m: FdModule, n: int) -> FdModule:
    if n == 0:
        return FdModule(m.algebra, {v: 0 for v in m.algebra.vertices}, {})
    return direct_sum([m] * n)


def tuple_embed(m: FdModule, n: int, vectors: Sequence[Sequence]) -> tuple:
    """Flatten an n-tuple of vectors of M into the coordinates of M^n: at
    each vertex v, in vertex order, the vectors' slices at v one after
    another, so that slot k at v is the k-th run of d_v entries."""
    if len(vectors) != n:
        raise ValueError("tuple length does not match the power")
    return tuple(rat(x) for v in m.algebra.vertices for vec in vectors
                 for x in m.slice_of(vec, v))


# ---------------------------------------------------------------------------
# module maps
# ---------------------------------------------------------------------------


class ModuleMap:
    """A homomorphism of representations, stored blockwise per vertex."""

    def __init__(self, source: FdModule, target: FdModule,
                 blocks: Sequence[Matrix], check: bool = True):
        if source.algebra != target.algebra:
            raise NotAModuleMap("source and target live over different algebras")
        self.source = source
        self.target = target
        self.blocks = tuple(
            b if isinstance(b, Matrix)
            else Matrix(tuple(tuple(rat(x) for x in row) for row in b))
            for b in blocks)
        if len(self.blocks) != len(source.algebra.vertices):
            raise NotAModuleMap("one block per vertex is required")
        for v, b in zip(source.algebra.vertices, self.blocks):
            if (b.nrows, b.ncols) != (target.vdim(v), source.vdim(v)):
                raise NotAModuleMap(f"block at vertex {v} has the wrong shape")
        if check:
            for a in source.algebra.arrows:
                sblk = self.block(a.source)
                tblk = self.block(a.target)
                if target.maps[a.name] * sblk != tblk * source.maps[a.name]:
                    raise NotAModuleMap(
                        f"blocks do not commute with arrow {a.name}")

    @classmethod
    def identity(cls, m: FdModule) -> "ModuleMap":
        return cls(m, m, [Matrix.identity(d) for d in m.dims], check=False)

    def block(self, v: str) -> Matrix:
        return self.blocks[self.source.algebra.vertices.index(v)]

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target,
                         [a + b for a, b in zip(self.blocks, other.blocks)],
                         check=False)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target,
                         [a - b for a, b in zip(self.blocks, other.blocks)],
                         check=False)

    def scale(self, c) -> "ModuleMap":
        c = rat(c)
        return ModuleMap(self.source, self.target,
                         [b.scale(c) for b in self.blocks], check=False)

    # the image of a module map is a submodule, so its handle skips the
    # check that each arrow keeps it
    def image(self) -> "SubmoduleHandle":
        spaces = [Subspace._from_rows(b.nrows, b.transpose().rows)
                  for b in self.blocks]
        return SubmoduleHandle(self.target, spaces, check=False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModuleMap) and self.source == other.source
                and self.target == other.target and self.blocks == other.blocks)

    def __repr__(self) -> str:
        return f"ModuleMap({self.source!r} -> {self.target!r})"


def hom_space(m: FdModule, n: FdModule) -> tuple[ModuleMap, ...]:
    """A canonical basis of Hom(M, N).

    The maps are the intertwiners X, from M's flattened coordinates to
    N's, in the span of the vertex-block matrix units with N(a) X = X M(a)
    for every arrow a.  Started from the units in ascending position,
    they are the echelon kernel basis in those unknowns.  Each solves
    the commutation system, so its squares are not multiplied again.
    """
    if m.algebra != n.algebra:
        raise NotAModuleMap("modules live over different algebras")
    d = m.dim
    ranges = [(n.vertex_range(v), m.vertex_range(v))
              for v in m.algebra.vertices]
    units = [{i * d + k: ONE} for rows, cols in ranges
             for i in rows for k in cols]
    if not units:
        return ()

    pairs = [(n.placed(n.maps[a.name], a.target, a.source),
              m.placed(m.maps[a.name], a.target, a.source))
             for a in m.algebra.arrows]
    out = []
    for x in intertwiners(units, d, pairs):
        blocks = [Matrix._wrap(tuple(tuple(x.get(i * d + k, ZERO)
                                           for k in cols) for i in rows),
                               len(cols))
                  for rows, cols in ranges]
        out.append(ModuleMap(m, n, blocks, check=False))
    return tuple(out)


def end_algebra(m: FdModule, basis: tuple | None = None
                ) -> tuple[int, tuple[ModuleMap, ...]]:
    """The dimension of the Jacobson radical of End(M), and hom_space(m, m),
    solved here unless the caller already has it as basis.

    End(M) acts faithfully on M, so over Q its radical J is the radical
    I of the trace form (f, g) -> tr_M(f g) (Dickson's criterion).  J
    lies in I: for f in J every f g is in J, hence nilpotent, with trace
    zero.  I is a two-sided ideal, since tr(h f g) = tr(f (g h)) and
    tr(f h g) = tr(f (h g)), and for f in I every tr(f^n) is zero (take
    g = f^(n-1), or the identity when n = 1); in characteristic zero f is
    then nilpotent, and an ideal of nilpotent elements lies in J.  So
    the radical's dimension is k minus the rank of the k x k Gram matrix
    G[a][b] = sum over vertices v and (i, j) of f_a,v[i][j] f_b,v[j][i],
    read off the basis maps' nonzero block entries without multiplying
    any two maps.  End(M) is semisimple exactly when that dimension is
    zero.
    """
    if basis is None:
        basis = hom_space(m, m)
    k = len(basis)
    entries = [[((v, i, j), x) for v, b in enumerate(f.blocks)
                for i, j, x in b.nonzero_entries()] for f in basis]
    # (v, j, i) -> the maps nonzero at (v, i, j), with their entries
    at_transpose: dict[tuple, list] = {}
    for b, terms in enumerate(entries):
        for (v, i, j), x in terms:
            at_transpose.setdefault((v, j, i), []).append((b, x))
    gram = []
    for terms in entries:
        row = [ZERO] * k
        for p, x in terms:
            for b, y in at_transpose.get(p, ()):
                row[b] += x * y
        gram.append(tuple(row))
    return k - rank(Matrix._wrap(tuple(gram), k)), basis


# ---------------------------------------------------------------------------
# submodules
# ---------------------------------------------------------------------------


class SubmoduleHandle:
    """A submodule of an FdModule, held by per-vertex canonical subspaces."""

    def __init__(self, ambient: FdModule, spaces: Sequence[Subspace],
                 check: bool = True):
        self.ambient = ambient
        self.spaces = tuple(spaces)
        if len(self.spaces) != len(ambient.algebra.vertices):
            raise NotASubmodule("one subspace per vertex is required")
        for v, s in zip(ambient.algebra.vertices, self.spaces):
            if s.ambient != ambient.vdim(v):
                raise NotASubmodule(f"subspace at vertex {v} has the wrong ambient")
        if check:
            for a in ambient.algebra.arrows:
                src = self.space(a.source)
                tgt = self.space(a.target)
                if not tgt.contains(src.image_under(ambient.maps[a.name])):
                    raise NotASubmodule(
                        f"subspace is not stable under arrow {a.name}")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, ambient: FdModule) -> "SubmoduleHandle":
        return cls(ambient, [Subspace.zero_space(d) for d in ambient.dims],
                   check=False)

    @classmethod
    def full(cls, ambient: FdModule) -> "SubmoduleHandle":
        return cls(ambient, [Subspace.full_space(d) for d in ambient.dims],
                   check=False)

    @classmethod
    def spin(cls, ambient: FdModule, vectors: Sequence[Sequence],
             base: FdModule | None = None) -> "SubmoduleHandle":
        """Smallest submodule containing the given flattened vectors.

        That is A.G, the span of the images of the generators G under the
        algebra's path basis, since the basis paths span A.  The ambient
        is a power base^r of base, which is the ambient itself (r = 1)
        when not given; a vector of base^r is an r-tuple of vectors of
        base laid out as tuple_embed does, slot k at vertex v being its
        k-th run of d_v entries, and each arrow of base^r acts on it slot
        by slot.  So each path from a vertex carries the generators'
        slots there to its target vertex through base's own arrow blocks,
        one arrow at a time, each block applied through its nonzero
        entries and the images of common prefixes shared; the images
        landing at each vertex are eliminated once.
        """
        algebra = ambient.algebra
        if base is None:
            base = ambient
        else:
            r = ambient.dim // base.dim if base.dim else 0
            if (base.algebra != algebra
                    or ambient.dims != tuple(r * d for d in base.dims)):
                raise ValueError(
                    "the ambient is not a power of the base module")
        images: dict[str, list] = {v: [] for v in algebra.vertices}
        pushed: dict[PathKey, list] = {}
        # each arrow's block as its rows' nonzero (column, entry) pairs,
        # with the width of one slot at its source, formed when first used
        blocks: dict[str, tuple] = {}

        def apply(arrow: str, x: tuple) -> tuple:
            hit = blocks.get(arrow)
            if hit is None:
                hit = blocks[arrow] = (
                    [[(j, a) for j, a in enumerate(row) if a]
                     for row in base.maps[arrow].rows],
                    base.vdim(algebra.arrow_by_name[arrow].source))
            terms, width = hit
            out = []
            for k in range(0, len(x), width):
                for row in terms:
                    total = None
                    for j, a in row:
                        y = x[k + j]
                        if y is not ZERO and y:
                            term = a * y
                            total = term if total is None else total + term
                    out.append(ZERO if total is None else total)
            return tuple(out)

        def push(key: PathKey) -> list:
            hit = pushed.get(key)
            if hit is None:
                source, arrows = key
                if arrows:
                    hit = (apply(arrows[-1], x)
                           for x in push((source, arrows[:-1])))
                else:
                    hit = (ambient.slice_of(w, source) for w in vectors)
                hit = pushed[key] = [x for x in hit if any(x)]
            return hit

        for key in algebra.basis:
            images[algebra.path_target(key)].extend(push(key))
        return cls(ambient, [Subspace(ambient.vdim(v), images[v])
                             for v in algebra.vertices], check=False)

    @classmethod
    def largest_inside(cls, ambient: FdModule,
                       spaces: Sequence[Subspace]) -> "SubmoduleHandle":
        """Largest submodule whose space at each vertex lies in the given
        one; spaces lists one subspace per vertex, in vertex order."""
        spaces = list(spaces)
        changed = True
        while changed:
            changed = False
            for a in ambient.algebra.arrows:
                si = ambient.algebra.vertices.index(a.source)
                ti = ambient.algebra.vertices.index(a.target)
                shrunk = spaces[si].intersect(
                    spaces[ti].preimage_under(ambient.maps[a.name]))
                if shrunk.dim != spaces[si].dim:
                    spaces[si] = shrunk
                    changed = True
        return cls(ambient, spaces, check=False)

    # -- queries ------------------------------------------------------------------

    def space(self, v: str) -> Subspace:
        return self.spaces[self.ambient.algebra.vertices.index(v)]

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.spaces)

    def contains(self, other: "SubmoduleHandle") -> bool:
        return all(a.contains(b) for a, b in zip(self.spaces, other.spaces))

    def contains_vector(self, flat: Sequence) -> bool:
        return all(
            s.contains_vector(self.ambient.slice_of(flat, v))
            for v, s in zip(self.ambient.algebra.vertices, self.spaces))

    def annihilated_by(self, functional: Sequence) -> bool:
        """Whether the functional, given on the ambient's flattened
        coordinates, vanishes on the submodule: its slice at each vertex
        vanishes on that vertex's basis."""
        for v, s in zip(self.ambient.algebra.vertices, self.spaces):
            terms = [(i, x) for i, x in
                     enumerate(self.ambient.slice_of(functional, v)) if x]
            if terms and any(sum(b[i] * x for i, x in terms)
                             for b in s.basis_vectors()):
                return False
        return True

    def add(self, other: "SubmoduleHandle") -> "SubmoduleHandle":
        return SubmoduleHandle(
            self.ambient,
            [a.add(b) for a, b in zip(self.spaces, other.spaces)],
            check=False)

    def intersect(self, other: "SubmoduleHandle") -> "SubmoduleHandle":
        return SubmoduleHandle(
            self.ambient,
            [a.intersect(b) for a, b in zip(self.spaces, other.spaces)],
            check=False)

    def is_full(self) -> bool:
        return self.dim == self.ambient.dim

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubmoduleHandle)
                and self.ambient == other.ambient
                and self.spaces == other.spaces)

    def __hash__(self) -> int:
        return hash(self.spaces)

    def __repr__(self) -> str:
        return f"SubmoduleHandle(dim {self.dim} of {self.ambient!r})"

    # -- derived modules --------------------------------------------------------

    def sub_module(self) -> FdModule:
        """The submodule as a module of its own.

        A vector of a canonical subspace has its coordinates at the
        pivots, so each arrow's matrix is read off the images of the
        source basis there.
        """
        algebra = self.ambient.algebra
        dims = {v: s.dim for v, s in zip(algebra.vertices, self.spaces)}
        maps = {}
        for a in algebra.arrows:
            src = self.space(a.source)
            tgt = self.space(a.target)
            cols = []
            for b in src.basis_vectors():
                img = self.ambient.maps[a.name].apply(b)
                assert tgt.contains_vector(img), \
                    "stability was already checked"
                cols.append(tuple(img[p] for p in tgt.pivots))
            maps[a.name] = (Matrix.from_columns(cols) if cols
                            else Matrix.zero(tgt.dim, 0))
        return FdModule(algebra, dims, maps)


def spin_pool(m: FdModule, bound: int) -> Iterator[SubmoduleHandle]:
    """Submodules of M spun from one small integer vector each.

    First each coordinate vector e_i, then e_i + s*e_j for i < j and s in
    [-bound, bound] without 0, in that order.  Different vectors may spin
    the same submodule; callers drop the repeats.
    """
    n = m.dim
    for e in Matrix.identity(n).rows:
        yield SubmoduleHandle.spin(m, [e])
    for i, j in itertools.combinations(range(n), 2):
        for s in range(-bound, bound + 1):
            if s:
                vec = [ZERO] * n
                vec[i] = ONE
                vec[j] = Fraction(s)
                yield SubmoduleHandle.spin(m, [tuple(vec)])


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------


def module_iso(m: FdModule, n: FdModule) -> ModuleMap | None:
    """An isomorphism M -> N, or None if none is found.

    Equal modules are isomorphic by the identity, which is returned
    without solving for any hom space; this covers two semisimple
    modules with equal vertex dimensions, whose arrow maps are all zero.
    Isomorphic modules have equal vertex dimensions and equal dim
    Hom(M, N), dim End(M) and dim End(N).  The function checks the
    vertex dimensions first and the hom dimensions once no single hom
    basis map is invertible, and returns None when either differs.  Past
    those tests the search over combinations of the hom basis is
    bounded: it may miss an isomorphism that exists.
    """
    if m.algebra != n.algebra or m.dims != n.dims:
        return None
    if m == n:
        return ModuleMap.identity(m)
    homs = hom_space(m, n)
    if not homs:
        return None

    def invertible(f: ModuleMap) -> bool:
        return all(len(rref(b)[1]) == b.nrows for b in f.blocks)

    for f in homs:
        if invertible(f):
            return f
    if len(hom_space(m, m)) != len(homs) or len(hom_space(n, n)) != len(homs):
        return None
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
    for _ in range(64):
        acc = None
        for f in homs:
            c = Fraction(rng.randint(-5, 5))
            term = f.scale(c)
            acc = term if acc is None else acc + term
        if acc is not None and invertible(acc):
            return acc
    return None
