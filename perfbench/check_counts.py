"""Check that two fresh traced processes report identical per-layer counts.

    python3 perfbench/check_counts.py [--workload corpus] [--seed 1]

Run it from the repository root.  It starts the traced benchmark twice,
one process after the other and with different string-hash seeds, and
compares every per-layer metric that is a count (everything except the
times in seconds and the tracing overhead).  Exit code 0 means they
agree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=900, check=True)
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] != "s" and not name.startswith("trace.")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="corpus")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, 1)
    second = traced_counts(args.workload, args.seed, 2)
    differ = sorted(k for k in first if first[k] != second.get(k))
    for name in differ:
        print(f"{name}: {first[name]} then {second.get(name)}")
    print(f"{len(first) - len(differ)} of {len(first)} per-layer counts "
          f"identical across two fresh processes")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
