"""Answer checks, run after the timed passes.

Questions whose input does not depend on the seed must reproduce the
committed reference output (reference.json) byte for byte.  Seeded
questions are judged through invariants: period dimensions against an
independent sympy rank of the pairing, re-based modules against the
untransformed module's reference answers, realizations through
verify_realization, certificates through replay_derivation, refutations
through the endomorphism-side gap, and evaluations through
relations_evaluate_to_zero and re-verified kernel realizations.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

FACT_KEYS = ("dim", "relation_dim", "per_stage_dims", "certified",
             "status", "dims")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def facts(report: dict) -> dict:
    """The scalar parts of a report that re-based questions must match."""
    return {k: report[k] for k in FACT_KEYS if k in report}


def oracle_period_dim(m) -> int:
    """Rank of the pairing C -> tr(rho(b) C), rebuilt with sympy from the
    raw arrow matrices; equals the period space dimension."""
    import sympy
    d = m.dim
    rows = []
    for src, arrows in m.algebra.basis:
        cur = sympy.eye(m.vdim(src))
        vertex = src
        for name in arrows:
            a = m.maps[name]
            cur = sympy.Matrix(a.nrows, a.ncols, lambda i, j: sympy.Rational(
                a.rows[i][j].numerator, a.rows[i][j].denominator)) * cur
            vertex = m.algebra.arrow_by_name[name].target
        rho = sympy.zeros(d, d)
        r_off, c_off = m.offsets[vertex], m.offsets[src]
        for r in range(cur.rows):
            for c in range(cur.cols):
                rho[r_off + r, c_off + c] = cur[r, c]
        rows.append([rho[j, i] for i in range(d) for j in range(d)])
    return sympy.Matrix(rows).rank()


def _vector(entries) -> tuple:
    return tuple(Fraction(x) for x in entries)


def _realization_holds(m, c, power: int, sigma, omega) -> bool:
    from qperiods.periods import Realization, verify_realization
    from qperiods.quivalg import SubmoduleHandle, module_power, tuple_embed
    ambient = module_power(m, power)
    if power:
        witness = SubmoduleHandle.spin(
            ambient, [tuple_embed(m, power, sigma)])
    else:
        witness = SubmoduleHandle.zero(ambient)
    return verify_realization(c, Realization(m, power, sigma, omega, witness))


class AnswerChecker:
    """Judges the first pass's answers of one workload."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.reference = reference
        self.problems: list[str] = []
        self._oracle: dict = {}
        self._endo_dims: dict = {}

    def fail(self, q, message: str):
        self.problems.append(f"{q.qid}: {message}")

    def oracle(self, q) -> int:
        if q.module_key not in self._oracle:
            self._oracle[q.module_key] = oracle_period_dim(q.module)
        return self._oracle[q.module_key]

    def base_facts(self, q, command: str | None = None) -> dict | None:
        """Reference facts of the untransformed module, for re-based ones."""
        if self.workload != "dense":
            return None
        qid = f"{command or q.command}:{q.base_key}"
        entry = self.reference["ladder"].get(qid)
        if entry is None:
            self.fail(q, f"no ladder reference {qid} for the untransformed "
                         f"module")
            return None
        return entry["facts"]

    def check(self, questions, answers):
        valid = [(q, a) for q, a in zip(questions, answers)
                 if q.valid and not a.failed]
        # endo answers first: certify refutations are judged against them
        for q, a in valid:
            if q.command == "endo":
                self._endo_dims[q.module_key] = json.loads(a.stdout)["dim"]
        for q, a in valid:
            if not q.seeded:
                self.check_reference(q, a)
            method = getattr(self, f"check_{q.command}", None)
            if method is not None:
                method(q, json.loads(a.stdout))
        return self.problems

    def check_reference(self, q, a):
        entry = self.reference.get(self.workload, {}).get(q.qid)
        if entry is None:
            self.fail(q, "no committed reference output")
        elif (entry["exit_code"], entry["sha256"]) != (a.code,
                                                       digest(a.stdout)):
            self.fail(q, "output differs from the committed reference")

    def check_period(self, q, r):
        d2 = q.module.dim ** 2
        if r["dim"] != self.oracle(q) or r["relation_dim"] != d2 - r["dim"]:
            self.fail(q, f"period dim {r['dim']} but the pairing rank is "
                         f"{self.oracle(q)}")
        base = self.base_facts(q)
        if base is not None and r["dim"] != base["dim"]:
            self.fail(q, "period dim differs from the untransformed module")

    def check_endo(self, q, r):
        if r["dim"] < self.oracle(q):
            self.fail(q, "endomorphism-side dim below the period dim")
        base = self.base_facts(q)
        if base is not None and r["dim"] != base["dim"]:
            self.fail(q, "endo dim differs from the untransformed module")

    def check_depth(self, q, r):
        if not r["certified"] or r["dim"] != self.oracle(q):
            self.fail(q, "depth chain at k = dim M is not the period space")
        base = self.base_facts(q)
        if base is not None and (r["per_stage_dims"], r["certified"]) != (
                base["per_stage_dims"], base["certified"]):
            self.fail(q, "depth chain differs from the untransformed module")

    def check_certify(self, q, r):
        from qperiods.yoga import PrincipalityVerdict, replay_derivation
        e, p = r["dims"]["endo_quotient"], r["dims"]["period_space"]
        if p != self.oracle(q) or e < p:
            self.fail(q, f"certify dims {r['dims']} contradict the oracle")
        if r["status"] == "Certified":
            verdict = PrincipalityVerdict("Certified", None, r["dims"],
                                          r["plan"])
            if e != p or not replay_derivation(q.module, q.partition,
                                               verdict):
                self.fail(q, "the certificate does not replay")
        elif r["status"] == "Refuted":
            endo = self._endo_dims.get(q.module_key, e)
            if e - p <= 0 or e != endo:
                self.fail(q, f"refutation gap {e - p} is not endo dim "
                             f"{endo} minus period dim {p}")
        elif r["status"] != "Unknown":
            self.fail(q, f"unknown verdict {r['status']!r}")

    def check_realize(self, q, r):
        w = r["witness"]
        if r["status"] == "realized":
            sigma = tuple(_vector(v) for v in w["sigma"])
            omega = tuple(_vector(v) for v in w["omega"])
            if not _realization_holds(q.module, q.relation, w["power"],
                                      sigma, omega):
                self.fail(q, "the witness does not verify")
        elif r["status"] not in ("unknown", "budget") or w is not None:
            self.fail(q, f"bad realize status {r['status']!r}")

    def check_eval(self, q, r):
        from qperiods.exactlin import Matrix
        from qperiods.periods import realize_relation, verify_realization
        if not r["relations_evaluate_to_zero"]:
            self.fail(q, "a relation evaluates to a nonzero value")
        if r["period_dim"] != self.oracle(q):
            self.fail(q, "eval period dim differs from the pairing rank")
        base = self.base_facts(q, "period")
        if base is not None and r["period_dim"] != base["dim"]:
            self.fail(q, "eval period dim differs from the untransformed "
                         "module")
        d = q.module.dim
        statuses = []
        for vec in r["ambient_kernel"]:
            c = Matrix.unvec(_vector(vec), d, d)
            res = realize_relation(q.module, c)
            statuses.append(res.status)
            if res.status == "realized" and not verify_realization(
                    c, res.realization):
                self.fail(q, "a kernel vector's realization does not verify")
        if sorted(statuses) != r["realization_statuses"]:
            self.fail(q, "kernel realization statuses do not match")
