"""Modules shared by the oracle tests: fixed inputs and a generated family.

ORACLE_INPUTS holds the 39 corpus modules (a2/p1^2 among them), the
power p1^3 over a2, and the projective at the head of the linear quiver
A_n for n = 4..6.
rebased_modules() generates a corpus module seen through a random
invertible integer basis change at every vertex, entries in [-3, 3]: an
isomorphic module whose matrices are dense.  With max_power above 1 it
first takes the module to a drawn power up to max_power, so that the
basis change mixes the copies.
relation_free_modules() generates modules nobody picked: random integer
maps, entries in [-2, 2], on A_2, A_3, A_4, the Kronecker quiver and the
star with three arms, each also with every arrow reversed, at vertex
dimensions up to 3 and total dimension 1 to max_dim.
value_vectors(field) generates values for exactlin.k_linear_kernel, and
OVER_Q and SQRT2 are its embeddings into L = Q[x]/(x^4 - 2): of Q, and
of K = Q(sqrt 2) through x^2, as in
test_eval_with_proper_coefficient_subfield.
"""

from hypothesis import strategies as st

from qperiods import zoo
from qperiods.exactlin import (
    FieldEmbedding,
    Matrix,
    NumberField,
    invert,
    rank,
)
from qperiods.quivalg import (
    FdModule,
    build_algebra,
    module_power,
    projective_module,
)


def linear_projective(n: int) -> FdModule:
    """The projective at the source of x0 -> x1 -> ... -> x(n-1)."""
    vertices = [f"x{i}" for i in range(n)]
    arrows = [(f"a{i}", f"x{i}", f"x{i + 1}") for i in range(n - 1)]
    return projective_module(build_algebra(vertices, arrows), "x0")


def oracle_inputs() -> list:
    p1 = zoo.get_module("a2/p1")
    out = [(e.key, e.module) for e in zoo.corpus()]
    out.append(("a2/p1^3", module_power(p1, 3)))
    out += [(f"A_{n}/P0", linear_projective(n)) for n in range(4, 7)]
    return out


ORACLE_INPUTS = oracle_inputs()


def rebase(m: FdModule, changes) -> FdModule:
    """m with vertex v's basis changed by the invertible matrix changes[v]."""
    alg = m.algebra
    maps = {}
    for a in alg.arrows:
        g_t = changes[alg.vertices.index(a.target)]
        g_s = changes[alg.vertices.index(a.source)]
        maps[a.name] = g_t * m.maps[a.name] * invert(g_s)
    return FdModule(alg, dict(zip(alg.vertices, m.dims)), maps)


def _invertible(d: int):
    entries = st.lists(st.integers(-3, 3), min_size=d * d, max_size=d * d)
    return (entries.map(lambda xs: Matrix.unvec(xs, d, d))
            .filter(lambda g: rank(g) == d))


@st.composite
def rebased_modules(draw, max_power: int = 1):
    entry = draw(st.sampled_from(zoo.corpus()))
    m = entry.module
    if max_power > 1:
        m = module_power(m, draw(st.integers(1, max_power)))
    return rebase(m, [draw(_invertible(d)) for d in m.dims])


def _relation_free_quivers() -> list:
    linear = [([f"x{i}" for i in range(n)],
               [(f"a{i}", f"x{i}", f"x{i + 1}") for i in range(n - 1)])
              for n in (2, 3, 4)]
    kronecker = (["k1", "k2"], [("a", "k1", "k2"), ("b", "k1", "k2")])
    star = (["u1", "u2", "u3", "c"],
            [(f"a{i}", f"u{i}", "c") for i in (1, 2, 3)])
    out = []
    for vertices, arrows in [*linear, kronecker, star]:
        out.append(build_algebra(vertices, arrows))
        out.append(build_algebra(vertices, [(a, t, s) for a, s, t in arrows]))
    return out


RELATION_FREE_QUIVERS = _relation_free_quivers()


@st.composite
def relation_free_modules(draw, max_dim: int = 8):
    alg = draw(st.sampled_from(RELATION_FREE_QUIVERS))
    n = len(alg.vertices)
    dims = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                .filter(lambda ds: 0 < sum(ds) <= max_dim))
    vdim = dict(zip(alg.vertices, dims))
    maps = {}
    for a in alg.arrows:
        rows, cols = vdim[a.target], vdim[a.source]
        maps[a.name] = Matrix.unvec(
            draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                          max_size=rows * cols)), rows, cols)
    return FdModule(alg, vdim, maps)


QUARTIC = NumberField([-2, 0, 0, 0, 1])
OVER_Q = FieldEmbedding(None, QUARTIC)
SQRT2 = FieldEmbedding(NumberField([-2, 0, 1]), QUARTIC,
                       QUARTIC.elem([0, 0, 1]))


@st.composite
def value_vectors(draw, field: NumberField, max_size: int = 8):
    """Up to max_size values in field: zeros interleaved with nonzero
    values, all zeros, or no zeros.  The nonzero values are small integer
    combinations of at most field.degree drawn elements, so that they are
    often dependent."""
    kind = draw(st.sampled_from(("interleaved", "zeros", "nonzero")))
    coeffs = st.lists(st.integers(-2, 2), min_size=field.degree,
                      max_size=field.degree)
    base = [field.elem(c) for c in draw(
        st.lists(coeffs, min_size=1, max_size=field.degree))]
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        if kind == "zeros" or (kind == "interleaved" and draw(st.booleans())):
            out.append(field.zero())
            continue
        value = field.zero()
        for b in base:
            value = value + draw(st.integers(-2, 2)) * b
        out.append(value or field.one())
    return tuple(out)
