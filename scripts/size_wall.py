"""Time the size-wall rows of ROADMAP.md on one checkout.

    python3 scripts/size_wall.py ROOT [--repeat 3]

Imports the package from ROOT/src only, writes each input module under
a temporary directory, and asks, through ``qperiods.cli.main`` with
``--format json``:

- two floor rows, the fixed cost of one question: ``period`` on a2/p1
  (d = 2), which reads a module file, builds its algebra and writes a
  relation basis, and ``baker --x 1 --l 1 --n 0``, which reads no file;
- ``endo`` on a2/p1^5, a2/p1^6, a2/p1^7 and a2/p1^16, and on a3/tower^2,
  a2/p1^6 and a3/proj^4 (d = 12 for the last two) each re-based by a
  seeded random integer basis change at every vertex, where the
  centraliser blocks are dense;
- ``depth --k dim M`` on a3/proj^3 and a3/proj^4, and on a3/proj^3
  re-based as above, where depth's check that its relations pair to
  zero with rho(A) meets dense relations;
- ``depth --k 24`` on P0 over A_24, the projective at the source of
  x0 -> x1 -> ... -> x23 (d = 24, depth's budget), whose vertices are
  all one-dimensional, so that rule R1 settles every block at stage 1;
- ``depth --spin-bound 64``, the widest spin box the CLI admits, on
  a3/proj^2 with ``--k 2`` and on a3/proj^3 with ``--k 9``;
- ``period`` on a2/p1^16, a2/p1^24 and a2/p1^32 (d = 32, 48 and 64);
- ``certify`` with the a2 standing weights on a2/p1^16, a2/p1^32 and
  S1^32, the a2 module with dims ``{v1: 32, v2: 0}``, and on
  a2/p1^3+s2^3 and a2/p1^4+s2^4 (d = 9 and 12), which have no
  dimension gap, so that certify runs its tower search, saturated_check
  and module_iso;
- ``onemotive --g 0 --l 1 --m 29`` and ``onemotive --g 5 --l 10
  --m 10``, two matrix models at onemotive.MODEL_DIM_BUDGET (ambient
  dimension d = 32), the first with no middle piece and 29 units from
  the bottom layer into a tag, the second with a middle piece of 10;
- ``realize`` on a2/p1^8, a2/p1^16 and a2/p1^32 (d = 16, 32 and 64, the
  last at realize's budget) of a combination of the whole relation
  basis with coefficients drawn from [-3, 3] without 0 at seed
  RELATION_SEED, as cli.MODULE_DIM_BUDGET's comment times it;
- ``eval`` on a2/p1^8, a2/p1^12, a2/p1^16 and a2/p1^24 (d = 16, 24, 32
  and 48, the last at eval's budget), and on a2/p1^8 re-based as above,
  whose arrow block of rho(A) is dense (64 entries, against 8), so that
  reading each kernel vector's status off rho(A) does the most work,
  each at one fixed unit over Q[x]/(x^3 - 2).

Each row prints the module (or model) dimension d ("-" for baker), the
best of ``--repeat`` wall clock times, the peak resident memory of the
row asked once more, the size of the output in bytes, so that a time can
be read against what was written, and the first 16 hex digits of the
sha256 of the output, so that two checkouts compare answers as well as
times.
The times are taken in this process, with the output captured.  The
peak memory is the ``ru_maxrss`` of a child process that loads the
input files and asks only that row, once, through ``qperiods.cli.main``
with its stdout, a real one, sent to /dev/null: the memory of one
command-line question.  Times and memory are plain figures on whatever
host runs this; nothing is claimed from them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REBASE_SEED = 1
RELATION_SEED = 1


def rebase(m, rng: random.Random):
    """m seen through a random invertible integer basis change at every
    vertex, entries in [-3, 3]."""
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


def relation_combination(m, rng: random.Random) -> dict:
    """A relation file holding the combination of m's whole relation
    basis with coefficients drawn from [-3, 3] without 0."""
    from qperiods.exactlin import ZERO, Matrix
    from qperiods.periods import period_space
    from qperiods.serialize import relation_to_data
    d = m.dim
    vec = [0] * (d * d)
    for rel in period_space(m).relations.basis_vectors():
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for i, x in enumerate(rel):
            if x is not ZERO and x:
                vec[i] += c * x
    return relation_to_data(Matrix.unvec(vec, d, d))


def unit_point(algebra) -> dict:
    """The unit with x + 1 at every vertex and x^2 - x + 1 on every path
    of positive length, over Q[x]/(x^3 - 2)."""
    return {"field": [-2, 0, 0, 1],
            "u": {name: [1, -1, 1] if arrows else [1, 1, 0]
                  for name, (_, arrows) in zip(algebra.basis_names(),
                                               algebra.basis)}}


def rows() -> list:
    """(label, module, command, extra argv) for each size-wall row; the
    module is None for a row whose command takes no input file, and an
    extra argument that is a dict is written to a JSON file whose path
    takes its place."""
    from qperiods import zoo
    from qperiods.quivalg import (FdModule, build_algebra, direct_sum,
                                  module_power, projective_module)
    from qperiods.serialize import partition_to_data
    from qperiods.yoga import WeightPartition
    p1 = zoo.get_module("a2/p1")
    proj = zoo.get_module("a3/proj")
    tower2 = module_power(zoo.get_module("a3/tower"), 2)
    out = [("a2/p1", p1, "period", []),
           ("x=1 l=1 n=0", None, "baker",
            ["--x", "1", "--l", "1", "--n", "0"])]
    out += [(f"a2/p1^{k}", module_power(p1, k), "endo", [])
            for k in (5, 6, 7, 16)]
    for label, m in (("a3/tower^2", tower2), ("a2/p1^6", module_power(p1, 6)),
                     ("a3/proj^4", module_power(proj, 4))):
        out.append((f"{label} rebased (seed {REBASE_SEED})",
                    rebase(m, random.Random(REBASE_SEED)), "endo", []))
    for k in (3, 4):
        m = module_power(proj, k)
        out.append((f"a3/proj^{k}", m, "depth", ["--k", str(m.dim)]))
    m = rebase(module_power(proj, 3), random.Random(REBASE_SEED))
    out.append((f"a3/proj^3 rebased (seed {REBASE_SEED})", m, "depth",
                ["--k", str(m.dim)]))
    a24 = build_algebra([f"x{i}" for i in range(24)],
                        [(f"a{i}", f"x{i}", f"x{i + 1}") for i in range(23)])
    out.append(("A_24/P0", projective_module(a24, "x0"), "depth",
                ["--k", "24"]))
    for k, depth_k in ((2, 2), (3, 9)):
        out.append((f"a3/proj^{k} --spin-bound 64", module_power(proj, k),
                    "depth", ["--k", str(depth_k), "--spin-bound", "64"]))
    out += [(f"a2/p1^{k}", module_power(p1, k), "period", [])
            for k in (16, 24, 32)]
    weights = partition_to_data(
        WeightPartition.of(dict(zoo.weight_classes("a2"))))
    out += [(f"a2/p1^{k}", module_power(p1, k), "certify",
             ["--weights", weights]) for k in (16, 32)]
    out.append(("S1^32", FdModule(p1.algebra, {"v1": 32, "v2": 0}),
                "certify", ["--weights", weights]))
    s2 = zoo.get_module("a2/s2")
    out += [(f"a2/p1^{k}+s2^{k}",
             direct_sum([module_power(p1, k), module_power(s2, k)]),
             "certify", ["--weights", weights]) for k in (3, 4)]
    out += [(f"rational g={g} l={l} m={m}", None, "onemotive",
             ["--g", str(g), "--l", str(l), "--m", str(m)])
            for g, l, m in ((0, 1, 29), (5, 10, 10))]
    rng = random.Random(RELATION_SEED)
    for k in (8, 16, 32):
        m = module_power(p1, k)
        out.append((f"a2/p1^{k}", m, "realize",
                    ["--relation", relation_combination(m, rng)]))
    out += [(f"a2/p1^{k}", module_power(p1, k), "eval",
             ["--comparison", unit_point(p1.algebra)])
            for k in (8, 12, 16, 24)]
    out.append((f"a2/p1^8 rebased (seed {REBASE_SEED})",
                rebase(module_power(p1, 8), random.Random(REBASE_SEED)),
                "eval", ["--comparison", unit_point(p1.algebra)]))
    return out


def model_dim(argv: list) -> int:
    """The matrix model's ambient dimension 2g + l + m + 2 for
    onemotive's --g, --l and --m."""
    opts = dict(zip(argv[::2], map(int, argv[1::2])))
    return 2 * opts["--g"] + opts["--l"] + opts["--m"] + 2


def ask(main, argv: list) -> tuple[float, int, str]:
    """The wall clock time of one call, and the size in bytes and the
    sha256 of its output."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        main(["--format", "json", *argv])
    elapsed = time.perf_counter() - start
    text = out.getvalue().encode()
    return elapsed, len(text), hashlib.sha256(text).hexdigest()


# A child's ru_maxrss counts the peak of the memory it leaves at exec,
# the parent's when the parent starts it, so the children are started by
# a launcher that is itself started while this process is still small.
# The launcher reads one JSON argv a line and answers each with the
# child's exit code and ru_maxrss (kilobytes on Linux).
LAUNCHER = """
import json, os, subprocess, sys
for line in sys.stdin:
    with subprocess.Popen(json.loads(line),
                          stdout=subprocess.DEVNULL) as child:
        # wait4, unlike wait, gives this child's own resource usage
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([child.returncode, usage.ru_maxrss]), flush=True)
"""

# what each child runs: argv[1] is the package's directory, the rest the
# command line
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from qperiods.cli import main; "
         "sys.exit(main(['--format', 'json', *sys.argv[2:]]))")


def peak_rss_mb(launcher, src: Path, argv: list) -> float:
    """The peak resident memory, in MB, of a child process that asks argv
    once through the command line, its stdout sent to /dev/null."""
    launcher.stdin.write(json.dumps(
        [sys.executable, "-c", CHILD, str(src), *argv]) + "\n")
    launcher.stdin.flush()
    code, kilobytes = json.loads(launcher.stdout.readline())
    if code not in (0, 2):
        raise RuntimeError(f"{argv[0]} exited {code}")
    return kilobytes / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    with subprocess.Popen([sys.executable, "-c", LAUNCHER],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as launcher:
        # leaving the block closes its stdin, which ends it
        return wall(args, launcher)


def wall(args, launcher) -> int:
    """Print the size-wall rows of the checkout at args.root."""
    sys.path.insert(0, str(args.root / "src"))
    from qperiods.cli import main as cli_main
    from qperiods.serialize import dump_json, module_to_data
    origin = Path(sys.modules["qperiods"].__file__).resolve()
    if (args.root / "src").resolve() not in origin.parents:
        raise RuntimeError(f"qperiods was imported from {origin}, "
                           f"not from {args.root / 'src'}")
    print(f"{'input':<28} {'command':<9} {'d':>3} {'best s':>9} "
          f"{'peak MB':>8} {'bytes':>11}  sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, m, command, extra) in enumerate(rows()):
            for j, arg in enumerate(extra):
                if isinstance(arg, dict):
                    extra[j] = os.path.join(tmp, f"{i}-{j}.json")
                    Path(extra[j]).write_text(dump_json(arg))
            if m is None:
                # baker builds no module and no model
                argv = [command, *extra]
                d = model_dim(extra) if command == "onemotive" else "-"
            else:
                path = os.path.join(tmp, f"{i}.json")
                Path(path).write_text(dump_json(module_to_data(m)))
                argv, d = [command, path, *extra], m.dim
            times, outputs = [], set()
            for _ in range(args.repeat):
                elapsed, size, digest = ask(cli_main, argv)
                times.append(elapsed)
                outputs.add((size, digest))
            if len(outputs) != 1:
                raise RuntimeError(f"{label}: the output changed between "
                                   f"repeats")
            size, digest = outputs.pop()
            peak = peak_rss_mb(launcher, args.root / "src", argv)
            print(f"{label:<28} {command:<9} {d:>3} {min(times):>9.6f} "
                  f"{peak:>8.1f} {size:>11}  {digest[:16]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
