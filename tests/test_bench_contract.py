"""The benchmark run keeps its output contract.

``perfbench/run.py`` prints comment lines, then one JSON result as its last
line, which whoever runs the benchmark parses.  A change to a function that
the traced run wraps can break that contract while the run still exits 0:
by writing to stdout, by changing a call signature a probe reads, or by
removing a probed function.  One short traced run guards all three; one
untraced theorem run guards the same contract on the path whose metrics
are compared, and one untraced family-exact run on the workload that
drives only `family` commands.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def last_result(*args):
    """(comment lines, parsed JSON last line) of one perfbench/run.py run,
    which must exit 0, print nothing but `# ` comments before its result,
    and end in strict JSON."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    *notes, last = done.stdout.splitlines()
    assert [note for note in notes if not note.startswith("# ")] == []
    return notes, json.loads(last, parse_constant=refuse_constant)


def test_traced_run_ends_in_a_strict_json_result():
    notes, result = last_result("--workload", "theorem-n16-l12", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["trace.missing_spans"]["value"] == 0
    assert [note for note in notes if note.startswith("# missing spans")] == []


def test_untraced_theorem_run_ends_in_a_strict_json_result():
    _, result = last_result("--workload", "theorem-n16-l12", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["peak_rss_mb"]["value"] > 0


def test_untraced_family_run_ends_in_a_strict_json_result():
    # family-exact drives `family sample` and `family check` through cli.main
    # alone, so it also guards how the CLI parses them.
    _, result = last_result("--workload", "family-exact", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0
