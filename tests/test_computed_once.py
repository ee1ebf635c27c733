"""Saturation verdicts and isomorphism tests, against the constructions
they replaced.

The references below are how the package used to compute: module_iso ran
its scaled and random search whenever no single hom basis map was
invertible, and every tower stage of certify_principal ran
saturated_check once per (side, variant).  The package now rejects by the
Hom/End dimensions before searching and checks each stage once per side;
these tests require the same results, and count the calls to show the
work is gone.  That replay_derivation accepts every corpus certificate
is test_yoga's sweep.

endo_quotient used to reduce the k*d^2 commutators [E_ij, E] in one
system; it now narrows the centraliser of End(M) one endomorphism at a
time, and the sizes of the systems it eliminates show that the stack is
gone.  test_periods compares its relations with the stack.
"""

import random
from fractions import Fraction

import pytest

from qperiods import exactlin, periods, yoga, zoo
from qperiods.exactlin import Matrix, rref
from qperiods.periods import endo_quotient
from qperiods.quivalg import (
    FdModule,
    ModuleMap,
    hom_space,
    module_iso,
    module_power,
)
from qperiods.yoga import (
    PrincipalityVerdict,
    WeightPartition,
    certify_principal,
    replay_derivation,
)

from strategies import linear_projective

CORPUS = {e.key: e for e in zoo.corpus()}


def parts(algebra_key: str) -> WeightPartition:
    return WeightPartition.of(dict(zoo.weight_classes(algebra_key)))


# -- references --------------------------------------------------------------


def reference_module_iso(m: FdModule, n: FdModule,
                         tries: int = 64) -> ModuleMap | None:
    """The search without the Hom/End dimension test."""
    if m.algebra != n.algebra or m.dims != n.dims:
        return None
    if m.is_semisimple_rep() and n.is_semisimple_rep():
        return ModuleMap(m, n, [Matrix.identity(d) for d in m.dims])
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


def assembled_pairs(key: str) -> list:
    """The (module, assembled sum) pairs certify_principal asks module_iso
    about, recorded by a pass-through wrapper."""
    entry = CORPUS[key]
    asked = []

    def recording(m, n, *args):
        asked.append((m, n))
        return module_iso(m, n, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(yoga, "module_iso", recording)
        certify_principal(entry.module, parts(entry.algebra_key))
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

    def counting(seq, side):
        seen.append((seq, side))
        return original(seq, side)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(yoga, "saturated_check", counting)
        run()
    return seen


@pytest.mark.parametrize("key", ["kronecker/big", "square/proj1+s4",
                                 "a3/tower"])
def test_certify_checks_each_stage_once_per_side(key):
    entry = CORPUS[key]
    seen = count_saturation_checks(lambda: certify_principal(
        entry.module, parts(entry.algebra_key)))
    assert seen, key
    keys = [(id(seq), side) for seq, side in seen]
    assert len(keys) == len(set(keys)), key


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
