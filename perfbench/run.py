"""Closed-loop benchmark of the qperiods command line.

One client asks one question at a time and waits for the answer, like a
user at a terminal.  Each question is one in-process call to
``qperiods.cli.main(["--format", "json", ...])`` with its output
captured, so the interpreter and package import are paid once, during
set-up, and reported as ``setup_s``.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run it from the repository root: it imports the package from ./src and
writes its inputs under ./.perfbench_work (removed afterwards).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The traced run writes the spans of its last traced
pass to ./.perfbench_out.  A wrong answer to a valid question, or an
answer that changes between passes, ends the run with exit code 1 and
no result.

Every time is reported in reference seconds: the measured time scaled
by how much slower than usual a fixed pure-Fraction sample ran while it
was measured (see hostclock.py and NOTES.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from hostclock import MIN_SAMPLES, SAMPLE_EVERY_S, HostClock  # noqa: E402

# Set-up is timed again this many times after every untraced pass, so
# that its median spans the whole run and not one spell of the host.
SETUP_REPEATS = 5

# latency_tail_ms is the highest percentile of the per-question times
# that leaves this many questions beyond it.
MIN_TAIL_SAMPLES = 10

# Every question is timed at least this often in an untraced run, and
# its time is the median over the passes.  Two keep a run of `dense` on
# a host at half its quiet speed under a minute.
MIN_PASSES = 2

COMMANDS = ("period", "endo", "depth", "certify", "realize", "eval")


@dataclass
class Answer:
    code: int | None
    stdout: str
    stderr: str
    error: str | None           # exception that escaped main, if any
    start: float                # perf_counter() around the call
    end: float
    failed: bool
    ref_seconds: float = 0.0    # see HostClock.reference

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def digest(self) -> tuple:
        return (self.code, self.failed,
                hashlib.sha256(self.stdout.encode()).hexdigest())


@dataclass
class Pass:
    wall: float
    answers: list
    traced: bool


def ask(q) -> Answer:
    """Put one question to the command line, in process."""
    main = sys.modules["qperiods.cli"].main
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(["--format", "json", *q.argv])
        except SystemExit as exc:
            code, error = exc.code, "SystemExit"
        except Exception as exc:  # a traceback is a failed question
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    stdout, stderr = out.getvalue(), err.getvalue()
    if q.valid:
        failed = error is not None or code not in (0, 2)
    else:
        # refused input: exit 1 and exactly one 'qperiods CMD: ...' line
        lines = stderr.splitlines()
        failed = not (error is None and code == 1 and not stdout
                      and len(lines) == 1
                      and lines[0].startswith(f"qperiods {q.command}: "))
    return Answer(code, stdout, stderr, error, start, end, failed)


def run_pass(questions, traced: bool) -> Pass:
    start = time.perf_counter()
    answers = [ask(q) for q in questions]
    return Pass(time.perf_counter() - start, answers, traced)


def _package_modules() -> list:
    return [n for n in sys.modules
            if n == "qperiods" or n.startswith("qperiods.")]


def set_up(workload: str, seed: int, workdir: Path, src: Path):
    """Import the package and write the inputs; returns the perf_counter()
    readings around that and the questions."""
    start = time.perf_counter()
    import qperiods.cli  # noqa: F401
    questions = workloads.generate(workload, seed, workdir)
    end = time.perf_counter()
    origin = Path(sys.modules["qperiods"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"qperiods was imported from {origin}, "
                           f"not from {src}")
    return (start, end), questions


def time_set_up(workload: str, seed: int, workdir: Path) -> tuple:
    """The same set-up again, in a fresh import of the package and a
    scratch directory; returns the perf_counter() readings around it.
    The live package modules are put back."""
    live = {name: sys.modules.pop(name) for name in _package_modules()}
    try:
        start = time.perf_counter()
        import qperiods.cli  # noqa: F401
        workloads.generate(workload, seed, workdir)
        return start, time.perf_counter()
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(live)
        shutil.rmtree(workdir, ignore_errors=True)
        # the discarded modules hold reference cycles; free them now so
        # they cannot raise the peak memory of later passes
        gc.collect()


def measure(questions, seconds: float, min_passes: int, tracer, between):
    """Passes over the questions until the next one would end after
    `seconds`, but at least min_passes, calling between() after each.
    With a tracer, untraced and traced passes alternate; returns the
    passes and the layer data of each traced pass."""
    from tracer import layer_metrics
    passes, layers = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            tracer.reset()
        try:
            p = run_pass(questions, traced)
        finally:
            if traced:
                tracer.remove()
        passes.append(p)
        if traced:
            layers.append((tracer.self_times(), layer_metrics(tracer)))
        between()
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and (
                elapsed + statistics.median(x.wall for x in passes)
                > seconds):
            return passes, layers


def question_times(passes) -> list:
    """Each question's median reference time across the passes."""
    return [statistics.median(times) for times in zip(*(
        [a.ref_seconds for a in p.answers] for p in passes))]


def pass_time(passes, questions, command=None) -> float:
    """Reference seconds of one pass: the sum over the questions (of one
    command, if given) of their median times."""
    return sum(t for q, t in zip(questions, question_times(passes))
               if command in (None, q.command))


def end_to_end_metrics(setup_s, passes, questions, rss_mb):
    latencies = sorted(question_times(passes))
    # the highest percentile with MIN_TAIL_SAMPLES latencies beyond it
    rank = max(1, len(latencies) - MIN_TAIL_SAMPLES)
    metrics = {
        "setup_s": setup_s,
        "wall_s": pass_time(passes, questions),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * latencies[rank - 1],
        "peak_rss_mb": rss_mb,
    }
    for cmd in COMMANDS:
        metrics[f"cmd.{cmd}_s"] = pass_time(passes, questions, cmd)
    notes = {"latency_tail_ms": f"p{100 * rank / len(latencies):.1f} of "
                                f"{len(latencies)} questions, "
                                f"{len(latencies) - rank} beyond it"}
    return metrics, notes


def layer_metrics_of_run(passes, questions, layers, clock):
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    selfs, counts = layers[0][0], dict(layers[0][1])
    for layer in selfs:
        counts[f"{layer}.self_s"] = statistics.median(s[layer]
                                                      for s, _ in layers)
    counts["trace.overhead_frac"] = (pass_time(traced, questions)
                                     / pass_time(untraced, questions) - 1)
    counts["host.calib_s"] = clock.median_sample_s()
    return counts


def check_answers(workload, questions, passes) -> list:
    from checks import AnswerChecker
    reference = json.loads((HERE / "reference.json").read_text())
    first = passes[0].answers
    problems = AnswerChecker(workload, reference).check(questions, first)
    for n, p in enumerate(passes[1:], start=2):
        for q, a, b in zip(questions, first, p.answers):
            if a.digest() != b.digest():
                problems.append(f"{q.qid}: pass {n} answered differently "
                                f"from pass 1")
    return problems


def report(spec_metrics, values, notes):
    out = {}
    for m in spec_metrics:
        name = m["name"]
        if name not in values:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": values[name], "unit": m["unit"]}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {values[name]:>16.6g} {m['unit']}{note}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qperiods" / "__init__.py").is_file():
        print("perfbench: no src/qperiods here; run from the repository "
              "root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    workdir = (root / ".perfbench_work"
               / f"{args.workload}-{args.seed}-{os.getpid()}")
    setups = []

    def between_passes():
        if not args.trace:
            setups.extend(time_set_up(args.workload, args.seed,
                                      workdir / "setup")
                          for _ in range(SETUP_REPEATS))

    clock = HostClock()
    try:
        clock.start()
        stamps, questions = set_up(args.workload, args.seed, workdir, src)
        setups.append(stamps)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            min_passes = 2
        else:
            min_passes = MIN_PASSES
        passes, layers = measure(questions, args.seconds, min_passes,
                                 tracer, between_passes)
        time.sleep(SAMPLE_EVERY_S * MIN_SAMPLES)  # samples after the last
        clock.stop()
        for p in passes:
            for a in p.answers:
                a.ref_seconds = clock.reference(a.start, a.end)
        setup_s = statistics.median(clock.reference(*t) for t in setups)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = check_answers(args.workload, questions, passes)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if problems:
        print(f"perfbench: {len(problems)} wrong answers", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1

    attempted = sum(len(p.answers) for p in passes)
    failed = sum(a.failed for p in passes for a in p.answers)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced) of {len(questions)} "
          f"questions, closed loop, one client")
    for q, a in zip(questions, passes[0].answers):
        if a.failed:
            print(f"  failed: {q.qid}: {a.error or a.stderr.strip()}"[:200])
    print(f"  {'fail_frac':40s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted})")
    if args.trace:
        tracer.write_spans(root / ".perfbench_out"
                           / f"spans-{args.workload}-{args.seed}.tsv.gz")
        metrics = report(spec["per_layer"], layer_metrics_of_run(
            passes, questions, layers, clock), {})
    else:
        values, notes = end_to_end_metrics(setup_s, passes, questions,
                                           rss_mb)
        metrics = report(spec["end_to_end"], values, notes)
        print(f"  {'host.calib_s':40s} {clock.median_sample_s():>16.6g} s")
        unscaled = statistics.median(sum(a.seconds for a in p.answers)
                                     for p in passes)
        print(f"  {'measured pass, unscaled':40s} {unscaled:>16.6g} s")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
