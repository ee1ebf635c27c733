"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT \\
        --workload corpus --seeds 201-210 [--seconds 20] [--out runs.json]

For each seed, runs ``perfbench/run.py --trace 0`` once from each root,
one after the other; the parent goes first on even seeds and the change
on odd ones, so that neither side always meets the host warmer.  Each
run is run.py from its own root, on that root's ``src/``; this script
imports neither package and reads nothing but run.py's output.

Prints, per run, the pass count next to ``peak_rss_mb`` (run.py keeps
every pass's answers, so a faster program that fits more passes reads
a higher peak), then, per end-to-end metric, the parent's and the
change's median and interquartile range, the change in the median, and
the pairs the change won.  Every end-to-end metric is lower-is-better.
``apart`` marks a metric whose medians differ by more than the parent's
interquartile range.  With ``--out``, the raw runs are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PASSES = re.compile(r": (\d+) passes ")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
        timeout=30 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode} on "
                           f"seed {seed}:\n{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    passes = next(int(m.group(1)) for line in lines
                  if (m := PASSES.search(line)))
    return {"passes": passes, "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(runs: dict, seeds: list) -> list[str]:
    lines = [f"{'seed':>6} {'side':7} {'passes':>6} {'peak_rss_mb':>12} "
             f"{'failed':>8}"]
    for seed in seeds:
        for side in SIDES:
            r = runs[side][seed]
            lines.append(f"{seed:>6} {side:7} {r['passes']:>6} "
                         f"{r['metrics']['peak_rss_mb']:>12.2f} "
                         f"{r['failed']:>4}/{r['attempted']}")
    lines.append("")
    lines.append(f"{'metric':18} {'parent median [IQR]':>32} "
                 f"{'change median [IQR]':>32} {'median':>8} {'wins':>6}")
    for name in runs["parent"][seeds[0]]["metrics"]:
        old = [runs["parent"][s]["metrics"][name] for s in seeds]
        new = [runs["change"][s]["metrics"][name] for s in seeds]
        m_old, m_new = statistics.median(old), statistics.median(new)
        (o1, o3), (n1, n3) = quartiles(old), quartiles(new)
        wins = sum(b < a for a, b in zip(old, new))
        delta = f"{100 * (m_new / m_old - 1):+.1f}%" if m_old else "n/a"
        apart = "  apart" if abs(m_new - m_old) > o3 - o1 else ""
        spread_old = f"{m_old:.4g} [{o1:.4g}-{o3:.4g}]"
        spread_new = f"{m_new:.4g} [{n1:.4g}-{n3:.4g}]"
        lines.append(f"{name:18} {spread_old:>32} {spread_new:>32} "
                     f"{delta:>8} {wins:>3}/{len(seeds)}{apart}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range such as 201-210")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, help="write the raw runs here")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            print(f"bench_pairs: no perfbench/run.py under {root}",
                  file=sys.stderr)
            return 2
    runs = {side: {} for side in SIDES}
    for seed in args.seeds:
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side][seed] = run_once(roots[side], args.workload, seed,
                                        args.seconds)
            print(f"seed {seed} {side}: {runs[side][seed]['passes']} passes",
                  file=sys.stderr, flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "roots": {k: str(v) for k, v in roots.items()}, "runs": runs},
            indent=1) + "\n")
    print(f"{args.workload}: {len(args.seeds)} alternating pairs, "
          f"{args.seconds:g} s per run, parent first on even seeds")
    print("\n".join(summarise(runs, args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
