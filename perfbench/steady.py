"""Steadiness mode: run workloads N times and summarize every metric.

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seed0 1] [--trace 0|1]

Each run is ``perfbench/run.py`` in a fresh process with its own seed
(seed0, seed0+1, ...).  For every metric the table gives the median, the
quartiles (``statistics.quantiles(values, n=4)``), the IQR as a share of
the median and, for end-to-end metrics, whether that spread is within
the bound in BENCHMARK.json.  It also prints the error rate (failed over
attempted operations) and checks that one set of build flags gave the
same MCIRC sha256 in every run.  ``--runs 1`` prints every metric of
every workload once.  ``--json PATH`` also writes the runs and summary.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_LINE = re.compile(r"^# build (.*): sha256 (\w+) gates (\d+) depth (\d+)$", re.M)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, str]:
    """(result JSON, {build flags: sha256}, other output) of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    shas = {m[1]: m[2] for m in BUILD_LINE.finditer(done.stdout)}
    return json.loads(lines[-1]), shas, "\n".join(lines[:-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write runs and summary to this file")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {}
    steady = True
    for workload in args.workloads.split(","):
        results, shas = [], {}
        for k in range(args.runs):
            result, run_shas, notes = run_once(workload, args.seed0 + k, args.seconds, args.trace)
            results.append(result)
            for flags, sha in run_shas.items():
                shas.setdefault(flags, set()).add(sha)
            if not result["correct"]:
                print(notes)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n== {workload}: {args.runs} run(s), seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"error_rate {failed / attempted:.3g} ({failed} of {attempted})")
        for flags, found in shas.items():
            same = len(found) == 1
            steady &= same
            print(f"   sha256 {'stable' if same else 'CHANGED'} for build {flags}: {' '.join(sorted(found))}")
        print(f"   {'metric':36s} {'unit':8s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s}  bound")
        summary = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = rel <= bound / 3
                steady &= ok
                verdict = f"{bound:<5g} {'ok' if ok else 'WIDE'}"
            print(f"   {name:36s} {first['unit']:8s} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f}  {verdict}")
            summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3, "iqr_over_median": rel,
                             "values": values}
        record[workload] = {"error_rate": failed / attempted, "sha256": {f: sorted(s) for f, s in shas.items()},
                            "metrics": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
