"""The benchmark's questions: one list per workload, generated from a seed.

Every question is an argument vector for `qperiods --format json ...`.
Set-up writes the JSON files those vectors name into a work directory;
the program under test sees nothing else.  A question is *seeded* when
its input depends on the seed (a re-based module, a unit, a relation),
and its answer is then checked through invariants instead of against
committed reference output.

The package is imported inside the functions, not at module level, so
that set-up can purge it from ``sys.modules`` and time a fresh import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Q[x]/(x^3 - 2), constant term first: the value field of every eval point
CUBIC_FIELD = [-2, 0, 0, 1]

# The lift question replays the bundled a3 sequence fixture.
LIFT_SEQUENCE = {
    "cut": -1,
    "module": {
        "algebra": {
            "vertices": ["w0", "wm1", "wm2"],
            "arrows": [{"name": "x", "from": "w0", "to": "wm1"},
                       {"name": "y", "from": "wm1", "to": "wm2"}],
            "relations": [],
        },
        "dims": {"w0": 2, "wm1": 1, "wm2": 2},
        "maps": {"x": [["1", "0"]], "y": [["1"], ["0"]]},
    },
    "partition": {"classes": [{"weight": 0, "vertices": ["w0"]},
                              {"weight": -1, "vertices": ["wm1"]},
                              {"weight": -2, "vertices": ["wm2"]}]},
}
LIFT_TARGET = {"vectors": [["1", "0"], ["0", "1"]]}

# Rungs k of a2/p1^k and a3/proj^k, and n of P0 over A_n, asked per
# command.  No single question takes much over a second: the host's speed
# swings within seconds, and only questions asked several times per run
# can be timed through that.
LADDER_RUNGS = {
    "period": range(1, 9),
    "endo": range(2, 4),
    "endo_an": range(4, 11),
    "depth": range(1, 4),
    "certify": range(2, 4),
    "realize": range(2, 5),
    "eval": range(1, 6),
}
DENSE_RUNGS = {
    "period": range(1, 7),
    "endo": range(2, 4),
    "endo_an": range(0),
    "depth": range(1, 4),
    "certify": range(2, 4),
    "realize": range(2, 4),
    "eval": range(1, 5),
}

# Each dense rung is asked on this many independent re-basings, so that
# one lucky or unlucky basis change moves a run's figures less.
DENSE_COPIES = 2

WORKLOADS = ("ladder", "dense", "corpus")


@dataclass
class Question:
    """One CLI invocation and what the checks need to judge its answer."""

    qid: str                    # stable name, e.g. 'period:a2/p1^3'
    command: str
    argv: list
    module_key: str | None = None
    base_key: str | None = None  # the untransformed module's key
    module: object = None       # the FdModule the program reads, if any
    partition: object = None    # WeightPartition for certify
    relation: object = None     # Matrix for realize
    valid: bool = True          # False for questions that must be refused
    seeded: bool = False


class _Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def text(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.workdir / f"{self.count:03d}-{stem}.json"
        path.write_text(text)
        return str(path)

    def data(self, stem: str, data) -> str:
        from qperiods.serialize import dump_json
        return self.text(stem, dump_json(data))


def _linear_an(n: int):
    from qperiods.quivalg import build_algebra, projective_module
    vertices = [f"x{i}" for i in range(n)]
    arrows = [(f"a{i}", f"x{i}", f"x{i + 1}") for i in range(n - 1)]
    return projective_module(build_algebra(vertices, arrows), "x0")


def _rebase(m, rng: random.Random):
    """The same module seen through a random invertible integer basis
    change at every vertex, entries in [-3, 3]."""
    from qperiods.exactlin import DivisionByZero, Matrix, invert
    from qperiods.quivalg import FdModule
    changes = []
    for d in m.dims:
        while True:
            g = Matrix([[rng.randint(-3, 3) for _ in range(d)]
                        for _ in range(d)], ncols=d)
            try:
                changes.append((g, invert(g)))
                break
            except DivisionByZero:
                continue
    alg = m.algebra
    maps = {}
    for a in alg.arrows:
        s = alg.vertices.index(a.source)
        t = alg.vertices.index(a.target)
        maps[a.name] = changes[t][0] * m.maps[a.name] * changes[s][1]
    return FdModule(alg, dict(zip(alg.vertices, m.dims)), maps)


def _nonzero_field_elem(rng: random.Random) -> list:
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(3)]
        if any(coeffs):
            return coeffs


def _unit_point(algebra, rng: random.Random, unit: bool = True) -> dict:
    """A unit of the algebra over Q[x]/(x^3-2): nonzero vertex coefficients
    and arbitrary arrow-path coefficients.  With unit=False the first
    vertex coefficient is zero, which makes the element a non-unit."""
    u = {}
    for idx, (name, (_, arrows)) in enumerate(
            zip(algebra.basis_names(), algebra.basis)):
        if arrows:
            u[name] = [rng.randint(-3, 3) for _ in range(3)]
        elif unit or idx:
            u[name] = _nonzero_field_elem(rng)
    return {"field": CUBIC_FIELD, "u": u}


def _relation_combination(m, rng: random.Random, terms: int | None):
    """A seeded combination of `terms` basis relations of P(M), or of all
    of them when terms is None, with nonzero coefficients in [-3, 3]."""
    from qperiods.exactlin import Matrix
    from qperiods.periods import period_space
    basis = period_space(m).relations.basis_vectors()
    if terms is not None:
        basis = rng.sample(basis, min(terms, len(basis)))
    d = m.dim
    vec = [0] * (d * d)
    for rel in basis:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        vec = [a + c * b for a, b in zip(vec, rel)]
    return Matrix.unvec(vec, d, d)


def _partition(algebra_key: str):
    from qperiods import zoo
    from qperiods.yoga import WeightPartition
    return WeightPartition.of(dict(zoo.weight_classes(algebra_key)))


class _Builder:
    """Accumulates questions for one workload, one module file per module."""

    def __init__(self, workdir: Path, rng: random.Random,
                 seeded_modules: bool, realize_terms: int | None):
        self.out = _Writer(workdir)
        self.rng = rng
        self.seeded_modules = seeded_modules
        self.realize_terms = realize_terms
        self.files: dict = {}
        self.questions: list[Question] = []

    def module_file(self, key: str, m) -> str:
        if key not in self.files:
            from qperiods.serialize import module_to_data
            self.files[key] = self.out.data("module", module_to_data(m))
        return self.files[key]

    def ask(self, command: str, key: str, m, *extra_argv, seeded=False,
            **fields):
        path = self.module_file(key, m)
        self.questions.append(Question(
            qid=f"{command}:{key}", command=command,
            argv=[command, path, *extra_argv], module_key=key,
            base_key=key.partition("#")[0], module=m,
            seeded=seeded or self.seeded_modules, **fields))

    def depth(self, key, m):
        self.ask("depth", key, m, "--k", str(m.dim))

    def certify(self, key, m, algebra_key):
        from qperiods.serialize import partition_to_data
        partition = _partition(algebra_key)
        path = self.out.data("weights", partition_to_data(partition))
        self.ask("certify", key, m, "--weights", path, partition=partition)

    def realize(self, key, m):
        from qperiods.serialize import relation_to_data
        c = _relation_combination(m, self.rng, self.realize_terms)
        path = self.out.data("relation", relation_to_data(c))
        self.ask("realize", key, m, "--relation", path, relation=c,
                 seeded=True)

    def eval(self, key, m):
        path = self.out.data("unit", _unit_point(m.algebra, self.rng))
        self.ask("eval", key, m, "--comparison", path, seeded=True)


def _rungs(b: _Builder, rungs: dict, transform, suffix: str = ""):
    """Questions on the ladder modules; `suffix` tells copies apart."""
    from qperiods import zoo
    from qperiods.quivalg import module_power
    p1 = zoo.get_module("a2/p1")
    proj = zoo.get_module("a3/proj")
    cache: dict = {}

    def rung(key, make):
        if key not in cache:
            cache[key] = transform(make())
        return key + suffix, cache[key]

    def p1k(k):
        return rung(f"a2/p1^{k}", lambda: module_power(p1, k))

    for k in rungs["period"]:
        b.ask("period", *p1k(k))
    for k in rungs["endo"]:
        b.ask("endo", *p1k(k))
    for n in rungs["endo_an"]:
        b.ask("endo", *rung(f"A{n}/P0", lambda: _linear_an(n)))
    for k in rungs["depth"]:
        b.depth(*rung(f"a3/proj^{k}", lambda: module_power(proj, k)))
    for k in rungs["certify"]:
        b.certify(*p1k(k), "a2")
    for k in rungs["realize"]:
        b.realize(*p1k(k))
    for k in rungs["eval"]:
        b.eval(*p1k(k))


def _corpus(b: _Builder):
    from qperiods import zoo
    for entry in zoo.corpus():
        key, m = entry.key, entry.module
        b.ask("period", key, m)
        b.ask("endo", key, m)
        b.depth(key, m)
        b.certify(key, m, entry.algebra_key)
        b.realize(key, m)
        b.eval(key, m)
    for g in range(1, 6):
        b.questions.append(Question(
            qid=f"onemotive:g{g}", command="onemotive",
            argv=["onemotive", "--g", str(g), "--l", "2", "--m", "2"]))
    seq = b.out.data("sequence", LIFT_SEQUENCE)
    target = b.out.data("target", LIFT_TARGET)
    b.questions.append(Question(qid="lift:a3", command="lift",
                                argv=["lift", seq, "--target", target]))
    _invalid(b)


def _invalid(b: _Builder):
    """Questions the program must refuse with exit 1 and one message line."""
    from qperiods import zoo
    broken = b.out.text("malformed", '{\n  "algebra": "a2.json",\n  "dims": \n')
    b.questions.append(Question(qid="invalid:malformed-module",
                                command="period", argv=["period", broken],
                                valid=False))
    m = zoo.get_module("a3/proj")
    partial = b.out.data("weights", {"classes": [
        {"weight": 0, "vertices": ["w0"]},
        {"weight": -1, "vertices": ["wm1"]}]})
    b.questions.append(Question(
        qid="invalid:weights-miss-a-vertex", command="certify",
        argv=["certify", b.module_file("a3/proj", m), "--weights", partial],
        valid=False))
    m = zoo.get_module("a2/p1")
    point = b.out.data("nonunit", _unit_point(m.algebra, b.rng, unit=False))
    b.questions.append(Question(
        qid="invalid:eval-at-non-unit", command="eval",
        argv=["eval", b.module_file("a2/p1", m), "--comparison", point],
        valid=False))


def generate(workload: str, seed: int, workdir: Path) -> list[Question]:
    """Write the workload's input files into workdir; return its questions."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "ladder":
        b = _Builder(workdir, rng, seeded_modules=False, realize_terms=None)
        _rungs(b, LADDER_RUNGS, lambda m: m)
    elif workload == "dense":
        b = _Builder(workdir, rng, seeded_modules=True, realize_terms=None)
        for copy in range(DENSE_COPIES):
            _rungs(b, DENSE_RUNGS, lambda m: _rebase(m, rng), f"#{copy}")
    elif workload == "corpus":
        b = _Builder(workdir, rng, seeded_modules=False, realize_terms=2)
        _corpus(b)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.questions

