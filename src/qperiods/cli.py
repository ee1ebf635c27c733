"""Command line front end.

Loads JSON inputs, dispatches one command, and prints one report,
either human readable or as a stable-keyed JSON object.  Exit codes
distinguish three outcomes: 0 for a definite answer (a refutation is an
answer), 2 for an honest Unknown, and 1 for inputs that fail to parse
or validate.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .exactlin import NumberFieldElem
from .quivalg import NotAdmissible, NotFiniteDimensional, SubmoduleHandle
from .periods import (
    NotAField,
    NotAUnit,
    depth_space,
    endo_quotient,
    eval_and_conjecture,
    period_space,
    realize_relation,
)
from .yoga import (
    HypothesisFailed,
    OrthogonalityFailure,
    SupportViolation,
    certify_principal,
    slice_by_weight,
    universal_lift,
)
from .onemotive import (
    RangeError,
    baker_dims,
    rational_input,
    synthesize_model,
)
from .serialize import (
    SCHEMAS,
    ParseError,
    RationalVectors,
    ValidationError,
    dump_json,
    load_comparison,
    load_graded_input,
    load_json,
    load_module,
    load_partition,
    rational_str,
    relation_from_data,
    sequence_file_from_data,
    target_vectors_from_data,
    vector_to_data,
)

INPUT_ERRORS = (
    ParseError,
    ValidationError,
    NotAdmissible,
    NotFiniteDimensional,
    SupportViolation,
    OrthogonalityFailure,
    HypothesisFailed,
    RangeError,
    NotAUnit,
    NotAField,
)


# depth builds its candidates one at a time and reaches the spin-box
# family, the spins of e_i + s*e_j for i < j and s in [-N, N] over M and
# M^2, only in a stage that the hom-closure family does not certify, so
# N = --spin-bound bounds only the time of those stages.  On a 2-vCPU
# host, depth_space(m, dim M) on kronecker/proj1 (d = 3), whose stages
# reach the family, takes 0.003 s at N = 1, 0.055 s at N = 64 and 0.21 s
# at N = 256; on a3/proj^2 (d = 6), which certifies before it,
# depth_space(m, 2) takes 0.016 s at every N up to 10^9.  Refusing a
# wider box is part of the CLI's answers, so the budget stays.
SPIN_BOUND_BUDGET = 64

# Each command refuses a module whose dimension d is beyond its budget
# before it reads the module's maps: without one, period on the a2 module
# with dims {v1: 400, v2: 0} fills memory in its kernel elimination.  Each
# budget is the largest d timed at which the slowest input tried still
# answers within about a minute and half a gigabyte, through the CLI with
# --format json on a shared 2-vCPU host (S1^d is the a2 module with dims
# {v1: d, v2: 0}):
# - period and endo print a relation basis of about 13 d^4 bytes of JSON,
#   222 MB at d = 64.  period takes 0.11, 0.44 and 1.4 s on a2/p1^16,
#   ^24 and ^32 (d = 32, 48 and 64), best of 2 through
#   scripts/size_wall.py, and one call on the last peaks at 373 MB; endo
#   takes 0.27 s on a2/p1^16 through size_wall.py, and, one call each,
#   3.4 s on a2/p1^32 (373 MB) and 6.4 s on S1^64 (397 MB);
# - depth --k d takes 0.21 and 1.2 s on a3/proj^3 and ^4 (d = 9 and
#   12) and 0.03 s on P0 over A_24 (d = 24), best of 3 through
#   scripts/size_wall.py; rule R1 settles every block of the last at
#   stage 1 (4.3 s when candidates ran there).  Where every vertex is
#   large, stage 1 still runs candidates and certifies before R1
#   settles a block: depth_space(m, d) takes 15 s in process on
#   a3/proj^6 (d = 18), and an earlier host took 18 s on a2/p1^8
#   (d = 16) and 83 s on a3/proj^8 (d = 24) through the CLI, one call
#   each;
# - certify takes 0.10 and 1.3 s on a2/p1^16 and ^32 and 0.17 s on
#   S1^32, best of 2 through size_wall.py, and 4.1 s on S1^64 (166 MB),
#   one call timed before matrix products skipped zero entries; most of
#   it is hom_space;
# - realize of a combination of the whole relation basis takes 0.014,
#   0.11 and 1.1 s on a2/p1^8, ^16 and ^32 (d = 16, 32 and 64), best of
#   2 through scripts/size_wall.py, most of the last in the elimination
#   of the coefficient matrix itself;
# - eval takes 0.007, 0.02 and 0.05 s on a2/p1^8, ^12 and ^16 (d = 16,
#   24 and 32) at size_wall.py's unit over Q[x]/(x^3 - 2), best of 2,
#   and 0.27-0.35 s at its budget, on a2/p1^24 (d = 48), where one call
#   peaks at 172 MB (size_wall.py's peak column); the budget was chosen
#   when that took 30 s and is kept, since moving a budget changes which
#   inputs are answered;
# - lift of the a3 sequence fixture's module to the k-th power (d = 5k)
#   takes 1.4 s at d = 160 and 13 s at d = 320.
# The benchmark asks at most d = 16 (period on a2/p1^8).
MODULE_DIM_BUDGET = {
    "period": 64,
    "endo": 64,
    "depth": 24,
    "certify": 64,
    "realize": 64,
    "eval": 48,
    "lift": 320,
}


# ---------------------------------------------------------------------------
# rendering helpers


def _scalar_data(x):
    if isinstance(x, NumberFieldElem):
        return vector_to_data(x.coeffs)
    return rational_str(x)


def _kernel_data(kernel, over_q: bool):
    """A kernel basis (exactlin.KernelBasis) as the report writes it: over
    Q from its nonzeros, which sit where the basis says, over a proper
    coefficient field K as lists of coefficient lists."""
    if over_q:
        return RationalVectors(kernel.vectors, kernel.columns, kernel.shared)
    return [[_scalar_data(x) for x in v] for v in kernel.vectors]


def _matrix_text(vector, positions, d: int, text) -> list:
    """The d x d matrix of which vector is the row-major vec, as d lines
    of entries right-aligned in columns, made from the positions of its
    nonzero entries; text writes an entry."""
    cells = {j: text(vector[j]) for j in positions}
    widths = [1] * d
    for j, s in cells.items():
        c = j % d
        widths[c] = max(widths[c], len(s))
    zero = ["0".rjust(w) for w in widths]
    lines = ["    " + "  ".join(zero)] * d
    rows = {}
    for j, s in cells.items():
        r, c = divmod(j, d)
        rows.setdefault(r, list(zero))[c] = s.rjust(widths[c])
    for r, row in rows.items():
        lines[r] = "    " + "  ".join(row)
    return lines


def _handle_data(handle: SubmoduleHandle) -> dict:
    ambient = handle.ambient
    return {
        "dims": {v: handle.space(v).dim
                 for v in ambient.algebra.vertices},
        "spaces": {v: [vector_to_data(b)
                       for b in handle.space(v).basis_vectors()]
                   for v in ambient.algebra.vertices
                   if handle.space(v).dim},
    }


def _node_data(node) -> dict:
    return {
        "rule": node.rule,
        "statement": node.statement,
        "data": _plain(node.data),
        "children": [_node_data(c) for c in node.children],
    }


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(),
                                                     key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return rational_str(value)
    return value


def _node_text(node, depth: int = 0) -> list:
    lines = ["  " * depth + f"[{node.rule}] {node.statement}"]
    for child in node.children:
        lines.extend(_node_text(child, depth + 1))
    return lines


# ---------------------------------------------------------------------------
# command handlers, each returning (exit_code, report dict, text lines)


def _load_module(args):
    return load_module(args.module, MODULE_DIM_BUDGET[args.command])


def _space_report(command: str, space) -> dict:
    return {
        "command": command,
        "ambient_dim": space.ambient_dim,
        "dim": space.dim,
        "relation_dim": space.relations.dim,
        "relation_basis": RationalVectors(space.relations.basis_vectors(),
                                          space.relations.pivots,
                                          width=space.module.dim),
        "provenance": space.provenance,
    }


def _space_text(label: str, report: dict) -> list:
    lines = [f"{label} dimension: {report['dim']} "
             f"(ambient {report['ambient_dim']}, relations "
             f"{report['relation_dim']})"]
    basis = report["relation_basis"]
    text = functools.cache(rational_str)
    for i, (vector, positions) in enumerate(zip(basis.vectors,
                                                basis.nonzeros())):
        lines.append(f"relation {i}:")
        lines.extend(_matrix_text(vector, positions, basis.width, text))
    return lines


def _cmd_period(args):
    m = _load_module(args)
    report = _space_report("period", period_space(m))
    lines = _space_text("period space", report) if args.fmt == "text" else []
    return 0, report, lines


def _cmd_endo(args):
    m = _load_module(args)
    report = _space_report("endo", endo_quotient(m))
    lines = (_space_text("endomorphism-side space", report)
             if args.fmt == "text" else [])
    return 0, report, lines


def _cmd_depth(args):
    m = _load_module(args)
    # the chain is stable by the power dim M, so larger k adds nothing
    k = min(args.k, max(1, m.dim))
    result = depth_space(m, k, spin_bound=args.spin_bound)
    report = _space_report("depth", result.space)
    report.update({
        "k": k,
        "per_stage_dims": list(result.per_stage_dims),
        "certified": result.certified,
        "strategy": "certified",
    })
    code = 0 if result.certified else 2
    if k != args.k:
        report["k_clamped_from"] = args.k
    if args.fmt != "text":
        return code, report, []
    lines = _space_text(f"depth-{k} space", report)
    lines.insert(1, "per-stage dimensions: "
                 + ", ".join(str(x) for x in result.per_stage_dims))
    lines.insert(2, f"certified against the full space: "
                 f"{'yes' if result.certified else 'no'}")
    if k != args.k:
        lines.insert(3, f"k clamped from {args.k} to {k}: the chain is stable "
                        f"by the power dim M = {m.dim}")
    return code, report, lines


def _cmd_certify(args):
    m = _load_module(args)
    partition = load_partition(args.weights)
    verdict = certify_principal(m, partition, core_cap=args.frontier_cap)
    report = {
        "command": "certify",
        "status": verdict.status,
        "dims": dict(verdict.dims),
        "derivation": _node_data(verdict.derivation)
        if verdict.derivation is not None else None,
        "plan": _plain(verdict.plan),
    }
    e = verdict.dims["endo_quotient"]
    p = verdict.dims["period_space"]
    lines = [f"verdict: {verdict.status}"]
    if verdict.status == "Refuted":
        lines.append(f"endomorphism-side dimension {e} exceeds the period "
                     f"space dimension {p}, so some relation has no "
                     f"realization at the module's own rank")
    else:
        lines.append(f"endomorphism-side dimension {e}, period space "
                     f"dimension {p}")
    if verdict.derivation is not None:
        lines.append("derivation:")
        lines.extend(_node_text(verdict.derivation, 1))
    code = 2 if verdict.status == "Unknown" else 0
    return code, report, lines


def _cmd_realize(args):
    m = _load_module(args)
    c = relation_from_data(load_json(args.relation), m)
    result = realize_relation(m, c, power_budget=args.power_budget)
    report = {
        "command": "realize",
        "status": result.status,
        "reason": result.reason,
    }
    if result.realization is not None:
        w = result.realization
        report["witness"] = {
            "power": w.power,
            "sigma": [vector_to_data(v) for v in w.sigma],
            "omega": [vector_to_data(v) for v in w.omega],
        }
        lines = [f"realized inside a power: M^{w.power}",
                 f"spinning vectors: {len(w.sigma)}"]
    else:
        report["witness"] = None
        lines = [f"not realized: {result.status}"]
        if result.reason:
            lines.append(result.reason)
    return (0 if result.status == "realized" else 2), report, lines


def _cmd_eval(args):
    m = _load_module(args)
    point = load_comparison(args.comparison, m.algebra)
    rep = eval_and_conjecture(m, point)
    statuses = sorted(rep.statuses)
    over_q = point.coeff_field is None
    report = {
        "command": "eval",
        "verdict": rep.verdict,
        "holds": rep.holds,
        "period_dim": rep.space.dim,
        "values": [_scalar_data(v) for v in rep.values],
        "quotient_kernel": _kernel_data(rep.quotient_kernel, over_q),
        "ambient_kernel": _kernel_data(rep.ambient_kernel, over_q),
        "relations_evaluate_to_zero": rep.relations_evaluate_to_zero,
        "realization_statuses": statuses,
    }
    lines = [
        f"verdict: the point {rep.verdict} "
        f"(injective on the period quotient: {'yes' if rep.holds else 'no'})",
        f"period space dimension: {rep.space.dim}",
        f"kernel on the quotient: {len(rep.quotient_kernel.vectors)}",
        f"kernel on all coefficients: {len(rep.ambient_kernel.vectors)}",
        f"relations evaluate to zero: "
        f"{'yes' if rep.relations_evaluate_to_zero else 'no'}",
    ]
    if statuses:
        lines.append("kernel vector realizations: " + ", ".join(statuses))
    return 0, report, lines


def _cmd_lift(args):
    data = load_json(args.sequence)
    m, partition, cut = sequence_file_from_data(
        data, base_dir=os.path.dirname(args.sequence),
        max_dim=MODULE_DIM_BUDGET["lift"])
    seq = slice_by_weight(m, partition, cut)
    vectors = target_vectors_from_data(
        load_json(args.target), seq.quot, "target")
    target = SubmoduleHandle.spin(seq.quot, vectors)
    lift = universal_lift(seq, target)
    report = {
        "command": "lift",
        "cut": cut,
        "target_dim": target.dim,
        "lift": _handle_data(lift),
        "lift_dim": lift.dim,
    }
    lines = [f"universal lift dimension: {lift.dim} "
             f"(target dimension {target.dim})",
             "lift dimensions per vertex: "
             + ", ".join(f"{v}:{lift.space(v).dim}"
                         for v in m.algebra.vertices)]
    return 0, report, lines


def _cmd_onemotive(args):
    if args.input is not None:
        inp = load_graded_input(args.input)
        source = {"input": str(args.input)}
    else:
        inp = rational_input(args.g, args.m, args.l)
        source = {"g": args.g, "l": args.l, "m": args.m}
    model = synthesize_model(inp)
    dims = model.formula
    report = {
        "command": "onemotive",
        "source": source,
        "dims": {"weight_0": dims[0], "weight_-1": dims[1],
                 "weight_-2": dims[2]},
        "total": sum(dims),
        "model": {"ambient_dim": model.ambient_dim,
                  "total_dim": model.total_dim,
                  "matches": model.matches},
    }
    lines = [f"graded period dimensions: {dims[0]}, {dims[1]}, {dims[2]} "
             f"(total {sum(dims)})",
             f"matrix model agrees: {'yes' if model.matches else 'no'}"]
    return 0, report, lines


def _cmd_baker(args):
    dim = baker_dims(args.x, args.l, args.n)
    report = {
        "command": "baker",
        "x": args.x,
        "l": args.l,
        "n": args.n,
        "dim": dim,
    }
    return 0, report, [str(dim)]


_HANDLERS = {
    "period": _cmd_period,
    "depth": _cmd_depth,
    "endo": _cmd_endo,
    "certify": _cmd_certify,
    "realize": _cmd_realize,
    "eval": _cmd_eval,
    "lift": _cmd_lift,
    "onemotive": _cmd_onemotive,
    "baker": _cmd_baker,
}


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qperiods",
        description="Exact period spaces of quiver representations.")
    parser.add_argument("--emit-schema", action="store_true",
                        help="print the JSON input schemas and exit")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="report format (default: text)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("period", help="period space of a module")
    p.add_argument("module")

    p = sub.add_parser("depth", help="relations from submodules of low powers")
    p.add_argument("module")
    p.add_argument("--k", type=int, required=True,
                   help="largest power of the module to search")
    p.add_argument("--spin-bound", type=int, default=1,
                   help="entry box for the spin-box candidate family")

    p = sub.add_parser("endo", help="endomorphism-side upper bound")
    p.add_argument("module")

    p = sub.add_parser("certify", help="certify or refute principality")
    p.add_argument("module")
    p.add_argument("--weights", required=True,
                   help="weight partition file")
    p.add_argument("--frontier-cap", type=int, default=24,
                   help="largest number of core candidates to try")

    p = sub.add_parser("realize", help="realize a coefficient relation")
    p.add_argument("module")
    p.add_argument("--relation", required=True,
                   help="coefficient matrix file")
    p.add_argument("--power-budget", type=int, default=None,
                   help="refuse witnesses above this power")

    p = sub.add_parser("eval", help="evaluate periods at a comparison point")
    p.add_argument("module")
    p.add_argument("--comparison", required=True,
                   help="comparison point file")

    p = sub.add_parser("lift", help="universal lift of a quotient submodule")
    p.add_argument("sequence")
    p.add_argument("--target", required=True,
                   help="spanning vectors of the target submodule")

    p = sub.add_parser("onemotive",
                       help="graded period dimensions of a weight-graded "
                            "input")
    p.add_argument("--g", type=int, default=None,
                   help="abelian-part rank over the rationals")
    p.add_argument("--l", type=int, default=None,
                   help="linear-part dimension")
    p.add_argument("--m", type=int, default=None,
                   help="toric-part rank")
    p.add_argument("--input", default=None,
                   help="graded input file, instead of the three ranks")

    p = sub.add_parser("baker", help="closed-form dimension count")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    return parser


def _validate(args) -> None:
    """Raise ValidationError for what the parser admits but the command
    cannot answer.  args holds only the options of the command's own
    subparser."""
    if args.command == "onemotive":
        ranks = (args.g, args.l, args.m)
        by_ranks = any(r is not None for r in ranks)
        if (args.input is not None) == by_ranks:
            raise ValidationError("give either --input or all of --g --l --m")
        if by_ranks and None in ranks:
            raise ValidationError("--g, --l and --m go together")
        if by_ranks and min(ranks) < 0:
            raise ValidationError("--g, --l, --m must be nonnegative")
    for role in ("module", "weights", "relation", "comparison",
                 "sequence", "target", "input"):
        path = getattr(args, role, None)
        if path is not None and not os.path.isfile(path):
            raise ValidationError(f"{role} file does not exist: {path}")
    for name in ("spin_bound", "power_budget", "frontier_cap", "k"):
        bound = getattr(args, name, None)
        if bound is not None and bound < 1:
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"{flag} must be positive")
    spin_bound = getattr(args, "spin_bound", 1)
    if spin_bound > SPIN_BOUND_BUDGET:
        raise ValidationError(
            f"--spin-bound {spin_bound} is beyond the budget of "
            f"{SPIN_BOUND_BUDGET}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.emit_schema:
        print(dump_json(SCHEMAS), end="")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("qperiods: a command is required", file=sys.stderr)
        return 1
    try:
        _validate(args)
        code, report, lines = _HANDLERS[args.command](args)
    except INPUT_ERRORS as exc:
        print(f"qperiods {args.command}: {exc}", file=sys.stderr)
        return 1
    if args.fmt == "json":
        report["exit_code"] = code
        text = dump_json(report)
        # a relation basis it holds can be freed before print encodes
        # the text, which on a2/p1^32 is 211 MB
        del report
        print(text, end="")
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
