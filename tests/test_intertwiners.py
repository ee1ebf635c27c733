"""Hom spaces, hom_dim and the matrix model, against the systems they
replaced.

The references below are how the package used to compute: hom_space
indexed its commutation system by hand over the vertex-block unknowns,
hom_dim did the same over all dt*ds unknowns, and synthesize_model
stacked the commutators of every matrix unit with every basis matrix of
the realized algebra and read each weight's quotient off that span.  All
three now go through exactlin.intertwiners; these tests require the same
bases entry for entry, the same dimensions and the same graded dict.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiods import exactlin
from qperiods.exactlin import (
    ONE,
    ZERO,
    Matrix,
    Subspace,
    intertwiners,
    kernel_basis,
)
from qperiods.onemotive import (
    hom_dim,
    rational_input,
    regular_power,
    saturated_input,
    synthesize_model,
)
from qperiods.quivalg import (
    ModuleMap,
    field_extension_structure,
    hom_space,
)

from references import matrix_algebra_structure, matrix_column_module
from strategies import ORACLE_INPUTS, rebased_modules


# -- references --------------------------------------------------------------


def reference_hom_space(m, n) -> tuple:
    """The kernel basis of hom_space's old commutation system: one row
    per arrow a and entry of N(a) X_src - X_tgt M(a), over the unknowns
    of the vertex blocks in vertex order, each block row-major."""
    algebra = m.algebra
    sizes = [(n.vdim(v), m.vdim(v)) for v in algebra.vertices]
    offs = []
    run = 0
    for r, c in sizes:
        offs.append(run)
        run += r * c
    total = run
    if total == 0:
        return ()

    def var(vi, i, j):
        return offs[vi] + i * sizes[vi][1] + j

    rows = []
    for a in algebra.arrows:
        si = algebra.vertices.index(a.source)
        ti = algebra.vertices.index(a.target)
        na = n.maps[a.name]
        ma = m.maps[a.name]
        for i in range(n.vdim(a.target)):
            for j in range(m.vdim(a.source)):
                row = [ZERO] * total
                for k in range(n.vdim(a.source)):
                    row[var(si, k, j)] += na.rows[i][k]
                for l in range(m.vdim(a.target)):
                    row[var(ti, i, l)] -= ma.rows[l][j]
                if any(row):
                    rows.append(tuple(row))
    if rows:
        basis = kernel_basis(Matrix._wrap(tuple(rows), total))
    else:
        basis = Matrix.identity(total).rows
    out = []
    for vec in basis:
        blocks = [Matrix.unvec(vec[offs[vi]:offs[vi] + r * c], r, c)
                  for vi, (r, c) in enumerate(sizes)]
        out.append(ModuleMap(m, n, blocks))
    return tuple(out)


def reference_hom_rows(tgt_action, src_action, dt: int, ds: int) -> list:
    """hom_dim's old rows: entry (r, s) of act_t X - X act_s for each
    pair of action matrices, over the unknowns X[p][q] at p*ds + q."""
    rows = []
    for act_s, act_t in zip(src_action, tgt_action):
        for r in range(dt):
            for s in range(ds):
                row = [ZERO] * (dt * ds)
                for p in range(dt):
                    row[p * ds + s] += act_t.rows[r][p]
                for q in range(ds):
                    row[r * ds + q] -= act_s.rows[q][s]
                if any(row):
                    rows.append(tuple(row))
    return rows


def reference_hom_dim(src, tgt) -> int:
    ds, dt = src.dim, tgt.dim
    if ds == 0 or dt == 0:
        return 0
    rows = reference_hom_rows(tgt.action, src.action, dt, ds)
    return len(kernel_basis(Matrix._wrap(tuple(rows), dt * ds)))


def model_weights(inp) -> list:
    """The weight of each coordinate of the model's total space."""
    sizes = (inp.hl.dim, inp.ha.dim, inp.ht.dim, 1, 1)
    weights = (0, -1, -2, 0, -2)
    return [w for w, size in zip(weights, sizes) for _ in range(size)]


def reference_graded(basis, wt: list) -> dict:
    """synthesize_model's old commutator stack: [r, E_ij] for every basis
    matrix r and matrix unit E_ij, split by the weight of E_ij, and each
    weight's quotient by the span of its commutators."""
    d = len(wt)
    coords: dict[int, list[tuple[int, int]]] = {}
    for a in range(d):
        for b in range(d):
            coords.setdefault(wt[b] - wt[a], []).append((a, b))
    index = {w: {ab: n for n, ab in enumerate(pairs)}
             for w, pairs in coords.items()}
    generators: dict[int, list] = {w: [] for w in coords}
    for r in basis:
        for i in range(d):
            for j in range(d):
                w = wt[j] - wt[i]
                vec = [ZERO] * len(coords[w])
                hit = False
                for a in range(d):
                    x = r.rows[a][i]
                    if x:
                        vec[index[w][(a, j)]] += x
                        hit = True
                for b in range(d):
                    x = r.rows[j][b]
                    if x:
                        vec[index[w][(i, b)]] -= x
                        hit = True
                if hit and any(vec):
                    generators[w].append(tuple(vec))
    graded = {}
    for w in sorted(coords, reverse=True):
        span = Subspace._from_rows(len(coords[w]), tuple(generators[w]))
        graded[w] = len(coords[w]) - span.dim
    return graded


# -- intertwiners --------------------------------------------------------------


def square(n: int):
    entries = st.lists(st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 2]),
                       min_size=n * n, max_size=n * n)
    return entries.map(lambda xs: Matrix.unvec(xs, n, n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_intertwiners_of_units_are_the_kernel_basis_of_the_dense_system(
        dt, ds, data):
    # sparse pairs leave many units fixed; those must come back as they
    # are and in their place
    pairs = [(data.draw(square(dt)), data.draw(square(ds)))
             for _ in range(data.draw(st.integers(0, 2)))]
    units = [{pos: ONE} for pos in range(dt * ds)]
    got = intertwiners(units, ds, [(l.nonzero_entries(), r.nonzero_entries())
                                   for l, r in pairs])
    rows = reference_hom_rows([l for l, _ in pairs], [r for _, r in pairs],
                              dt, ds)
    want = kernel_basis(Matrix._wrap(tuple(rows), dt * ds))
    assert [tuple(x.get(p, ZERO) for p in range(dt * ds)) for x in got] \
        == list(want)


def test_intertwiners_narrow_a_given_basis():
    # in the upper triangular 2 x 2 matrices, spanned here by E00 + E01,
    # E11 and E01, the X commuting with E01 are a*I + c*E01
    basis = [{0: ONE, 1: ONE}, {3: ONE}, {1: ONE}]
    e = [(0, 1, ONE)]
    got = intertwiners(basis, 2, [(e, e)])
    assert len(got) == 2
    for x in got:
        assert 2 not in x and x.get(0, ZERO) == x.get(3, ZERO)
    assert any(0 in x for x in got)


def test_intertwiners_eliminate_nothing_when_no_element_moves(monkeypatch):
    def refuse(m):
        raise AssertionError("an empty system was eliminated")

    monkeypatch.setattr(exactlin, "kernel_basis", refuse)
    units = [{pos: ONE} for pos in range(4)]
    two = [(i, i, ONE + ONE) for i in range(2)]
    for pairs in ([], [(two, two)]):
        assert intertwiners(units, 2, pairs) == units


# -- hom_space -----------------------------------------------------------------


def same_algebra_pairs() -> list:
    return [(k1, m1, k2, m2) for k1, m1 in ORACLE_INPUTS
            for k2, m2 in ORACLE_INPUTS if m1.algebra == m2.algebra]


SAME_ALGEBRA_PAIRS = same_algebra_pairs()


def test_hom_space_equals_the_commutation_system_on_oracle_pairs():
    assert len(SAME_ALGEBRA_PAIRS) >= 249
    for k1, m1, k2, m2 in SAME_ALGEBRA_PAIRS:
        assert hom_space(m1, m2) == reference_hom_space(m1, m2), (k1, k2)


@settings(max_examples=25, deadline=None)
@given(rebased_modules(), st.data())
def test_hom_space_equals_the_commutation_system_on_rebased_modules(m, data):
    n = data.draw(st.sampled_from([other for _, other in ORACLE_INPUTS
                                   if other.algebra == m.algebra]))
    for a, b in ((m, m), (m, n), (n, m)):
        assert hom_space(a, b) == reference_hom_space(a, b)


# -- hom_dim and the matrix model ----------------------------------------------


def model_inputs() -> list:
    out = [(f"rational g={g} m={m} l={l}", rational_input(g, m, l))
           for g in range(3) for m in range(1, 4) for l in range(1, 4)]
    qi = field_extension_structure([1, 0, 1])      # x^2 = -1
    reg = regular_power(qi, 1)
    out.append(("gaussian", saturated_input(qi, reg, reg, reg)))
    out.append(("gaussian, skewed", saturated_input(
        qi, reg, regular_power(qi, 2), reg)))
    col = matrix_column_module(2, 1)
    out.append(("matrix algebra", saturated_input(
        matrix_algebra_structure(2), col, col, col)))
    out.append(("matrix algebra, skewed", saturated_input(
        matrix_algebra_structure(2), matrix_column_module(2, 2), col, col)))
    return out


MODEL_INPUTS = model_inputs()


@pytest.mark.parametrize("key,inp", MODEL_INPUTS,
                         ids=[key for key, _ in MODEL_INPUTS])
def test_hom_dim_equals_the_old_rows(key, inp):
    layers = (inp.ha, inp.ht, inp.hl)
    for src in layers:
        for tgt in layers:
            assert hom_dim(src, tgt) == reference_hom_dim(src, tgt), key


def test_hom_dim_equals_the_old_rows_on_empty_layers():
    inp = rational_input(0, 2, 3)
    assert inp.ha.dim == 0
    for src, tgt in ((inp.ha, inp.hl), (inp.ht, inp.ha), (inp.ha, inp.ha)):
        assert hom_dim(src, tgt) == reference_hom_dim(src, tgt) == 0


@pytest.mark.parametrize("key,inp", MODEL_INPUTS,
                         ids=[key for key, _ in MODEL_INPUTS])
def test_model_grading_equals_the_commutator_stack(key, inp):
    model = synthesize_model(inp)
    want = reference_graded(model.endo_basis, model_weights(inp))
    assert list(model.graded.items()) == list(want.items()), key
