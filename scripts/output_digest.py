"""Digest every benchmark question's and demo's output, to compare checkouts.

    python3 scripts/output_digest.py ROOT OUT.json [--seed 7]

Imports the package from ROOT/src and the question lists from
ROOT/perfbench/workloads.py, asks every question of the ladder, dense
and corpus workloads at the seed through ``qperiods.cli.main``, once
with ``--format json`` and once with ``--format text``, and writes to
OUT.json, per question and format, the exit code and the sha256 of
standard output and standard error.  It also runs every ROOT/demos/*.py
in a fresh interpreter against ROOT/src, from ROOT, and records the
same three things per demo, with ROOT written as "ROOT" in its output
so that quoted fixture paths match between checkouts.  The demos are
what reaches universal extensions and the bounded searches, which no
command does.  Two checkouts answer alike exactly when their files are
equal:

    python3 scripts/output_digest.py OLD old.json
    python3 scripts/output_digest.py NEW new.json
    diff old.json new.json

The inputs are written under a temporary directory and named by a
relative path that is the same on every run, so that file names quoted
in error lines match between checkouts; none are written under ROOT.

``tests/test_output_digest.py`` holds every checkout to the seed-7 file
committed as ``tests/fixtures/output_digest_seed7.json``.  A change
that means to alter an output regenerates that file:

    python3 scripts/output_digest.py . tests/fixtures/output_digest_seed7.json --seed 7

and CHANGES.md then lists the entries that changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("ladder", "dense", "corpus")
INPUTS = Path("inputs")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _ask(main, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an output too
            code, error = None, f"{type(exc).__name__}: {exc}"
    answer = {"exit": code, "stdout": _sha(out.getvalue()),
              "stderr": _sha(err.getvalue())}
    if error is not None:
        answer["error"] = error
    return answer


def _run_demo(root: Path, demo: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=root, env=env, timeout=600)
    return {"exit": proc.returncode,
            "stdout": _sha(proc.stdout.replace(str(root), "ROOT")),
            "stderr": _sha(proc.stderr.replace(str(root), "ROOT"))}


def digest(root: Path, seed: int) -> dict:
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "perfbench"))
    import workloads
    from qperiods.cli import main
    origin = Path(sys.modules["qperiods"].__file__).resolve()
    if (root / "src").resolve() not in origin.parents:
        raise RuntimeError(f"qperiods was imported from {origin}, "
                           f"not from {root / 'src'}")
    digests = {}
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for workload in WORKLOADS:
                questions = workloads.generate(workload, seed,
                                               INPUTS / workload)
                for i, q in enumerate(questions):
                    digests[f"{workload}/{i:03d}/{q.qid}"] = {
                        fmt: _ask(main, ["--format", fmt, *q.argv])
                        for fmt in ("json", "text")}
        finally:
            os.chdir(here)
    for demo in sorted((root / "demos").glob("*.py")):
        digests[f"demos/{demo.name}"] = {"run": _run_demo(root, demo)}
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path,
                        help="checkout whose src/ and perfbench/ are used")
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    out = args.out.resolve()
    if not (root / "src" / "qperiods" / "__init__.py").is_file():
        print(f"output_digest: no src/qperiods under {root}", file=sys.stderr)
        return 2
    digests = digest(root, args.seed)
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    demos = sum(key.startswith("demos/") for key in digests)
    outputs = sum(len(d) for d in digests.values())
    errors = sum("error" in a for d in digests.values() for a in d.values())
    print(f"{len(digests) - demos} questions, {demos} demos, "
          f"{outputs} outputs, {errors} tracebacks -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
