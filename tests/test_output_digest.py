"""Every benchmark question's and demo's output is byte-identical to the
committed seed-7 digest.

``tests/fixtures/output_digest_seed7.json`` was written by
``scripts/output_digest.py . tests/fixtures/output_digest_seed7.json
--seed 7``.  The test rebuilds it through the script's own ``digest()``
and compares it entry by entry: the exit code and the sha256 of standard
output and standard error of each question in both formats, and of each
demo.  A change meant to alter an output regenerates the file with that
command and lists the changed entries in CHANGES.md.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "output_digest_seed7.json"


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mismatches(expected: dict, actual: dict) -> list:
    lines = []
    for key in sorted(expected.keys() - actual.keys()):
        lines.append(f"{key}: no longer asked")
    for key in sorted(actual.keys() - expected.keys()):
        lines.append(f"{key}: not in the digest")
    for key in sorted(expected.keys() & actual.keys()):
        for fmt in sorted(expected[key].keys() | actual[key].keys()):
            want, got = expected[key].get(fmt), actual[key].get(fmt)
            if want is None or got is None:
                lines.append(f"{key} [{fmt}]: format missing on one side")
                continue
            differ = [part for part in ("exit", "stdout", "stderr", "error")
                      if want.get(part) != got.get(part)]
            if differ:
                lines.append(f"{key} [{fmt}]: {', '.join(differ)} differ"
                             + (f" ({got['error']})" if "error" in got
                                else ""))
    return lines


def test_outputs_equal_the_seed7_digest():
    expected = json.loads(FIXTURE.read_text())
    saved = list(sys.path)
    try:
        actual = _load_script().digest(ROOT, 7)
    finally:
        sys.path[:] = saved
    lines = _mismatches(expected, actual)
    assert not lines, (f"{len(lines)} of {len(expected)} digest entries "
                       "differ:\n" + "\n".join(lines[:40]))


def test_a_mismatch_names_the_question_format_and_stream():
    expected = {"q": {"json": {"exit": 0, "stdout": "a", "stderr": "b"},
                      "text": {"exit": 0, "stdout": "c", "stderr": "d"}}}
    actual = {"q": {"json": {"exit": 1, "stdout": "a", "stderr": "x"},
                    "text": {"exit": 0, "stdout": "c", "stderr": "d"}},
              "r": {}}
    assert _mismatches(expected, actual) == [
        "r: not in the digest", "q [json]: exit, stderr differ"]
