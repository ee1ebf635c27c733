"""Rewrite perfbench/reference.json from the program in ./src.

    python3 perfbench/make_reference.py

Run it from the repository root, and only when a change to the program's
output is intended: the benchmark compares every question whose input
does not depend on the seed against this file, byte for byte, and judges
re-based `dense` questions against the `ladder` facts stored here.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run
import workloads
from checks import digest, facts


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import qperiods.cli  # noqa: F401
    workdir = root / ".perfbench_work" / f"reference-{os.getpid()}"
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            entries = {}
            for q in workloads.generate(workload, 0, workdir):
                if q.seeded or not q.valid:
                    continue
                a = run.ask(q)
                if a.failed:
                    print(f"{q.qid}: failed: {a.error or a.stderr}",
                          file=sys.stderr)
                    return 1
                entries[q.qid] = {"exit_code": a.code,
                                  "sha256": digest(a.stdout),
                                  "facts": facts(json.loads(a.stdout))}
            if entries:
                reference[workload] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, reference.values()))} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
