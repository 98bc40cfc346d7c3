"""Run one monoreach benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` and driven through ``monoreach.cli.main`` in this one process.
The workload repeats until ``--seconds`` have passed (at least once).
Times are converted to a reference CPU speed by ``gauge.SpeedGauge``.
With ``--trace 0`` the result holds the end-to-end metrics: medians over
the iterations, and for ``setup_s`` the median of nine fresh-interpreter
imports taken before and after the loop.  With ``--trace 1`` every
iteration runs once untraced and once traced, and the result holds the
per-layer metrics (medians over traced iterations, in measured seconds)
and the tracing overhead.  The last line of standard output is the JSON
result; the lines before it say what was built and what failed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import ExpectedVerdicts, Family, counterexample_problem  # noqa: E402
from gauge import MARGIN_S, SpeedGauge  # noqa: E402
from layers import PER_LAYER, install, layer_metrics  # noqa: E402
from tracing import Patcher, Tracer, capture_wrapper  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = (5, 4)  # taken before and after the workload loop
END_TO_END = {  # name: (unit, better)
    "wall_ref_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "build_ref_s": ("s", "lower"),
    "checked_ref_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


class Bench:
    """State of one benchmark process: the program, the checks and their tally."""

    def __init__(self, cli, work: Path, seed: int):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None
        self.steps: list[tuple[str, float, float]] = []  # (step, start, end) of each command
        self.verdicts: list = []  # (args, result) of every check_family_exact call
        self.sampled: list = []  # (args, result) of every sample_family call
        self.builds: dict[str, tuple[str, int, int]] = {}
        self.expected = ExpectedVerdicts(work / f"families-seed{seed}.json")

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def graphs(self, count: int, ok: bool, problem: str) -> None:
        """Count `count` checked graphs; a mismatch report fails at least one."""
        self.attempted += max(count, 1)
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def command(self, argv: list[str], step: str):
        """Run one monoreach command in-process as a timed ``step``: (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open("cli." + argv[0]) if self.tracer is not None else None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an uncaught exception is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            self.steps.append((step, start, time.perf_counter()))
            if span is not None:
                self.tracer.close(span)
        self.check(rc == 0, f"monoreach {' '.join(argv)} -> {rc}: {err.getvalue().strip()[-300:]}")
        return rc, out.getvalue()

    def record_build(self, flags: str, sha256: str, gates: int, depth: int) -> None:
        """Same flags must rebuild the same bytes within this process."""
        first = self.builds.setdefault(flags, (sha256, gates, depth))
        self.check(first[0] == sha256, f"rebuild with '{flags}' changed sha256 {first[0]} -> {sha256}")

    def audit_families(self) -> float:
        """Check every verdict check_family_exact returned in this iteration against
        the brute-force enumerator; return verified sampled families per sampled one."""
        sampled = {id(result) for _, result in self.sampled}
        verified = 0
        for args, result in self.verdicts:
            obj = args[0]
            p = obj.params
            fam = Family(p.n, p.m, p.s, p.l, p.d, tuple(tuple(st) for st in obj.sets))
            expected = self.expected.verdict(fam)
            if result is None:
                self.check(expected is None, f"family {p} passed, but D={expected} violates it")
                verified += id(obj) in sampled
                continue
            problem = counterexample_problem(fam, result.d_subset, result.set_indices, result.disjoint_count)
            self.check(problem is None, f"family {p}: {problem}")
            self.check(
                tuple(result.d_subset) == expected,
                f"family {p}: reported D={tuple(result.d_subset)}, first violation is {expected}",
            )
        ratio = verified / len(self.sampled) if self.sampled else 0.0
        self.verdicts.clear()
        self.sampled.clear()
        return ratio


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(start, ready) of interpreter start to ``import monoreach.cli`` done,
    each in a fresh interpreter as a user's CLI call would be."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import time, monoreach.cli; print(time.perf_counter())"
    intervals = []
    for _ in range(samples):
        start = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child on Linux
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"importing monoreach failed: {done.stderr.strip()[-300:]}")
        intervals.append((start, float(done.stdout.split()[-1])))
    return intervals


def one_iteration(workload, bench: Bench, traced: bool) -> dict:
    patcher = Patcher()
    for target, sink in (
        ("monoreach.families:check_family_exact", bench.verdicts),
        ("monoreach.families:sample_family", bench.sampled),
    ):
        bench.check(patcher.wrap(target, capture_wrapper(sink)), f"cannot audit family verdicts: {target} is gone")
    if traced:
        bench.tracer = Tracer()
        install(patcher, bench.tracer)
    bench.steps = []
    try:
        values = workload.iteration(bench)
    finally:
        patcher.restore()
        tracer, bench.tracer = bench.tracer, None
    values["steps"] = bench.steps
    values["families.useful_ratio"] = bench.audit_families()
    bench.expected.save()
    if traced:
        values.update(layer_metrics(tracer.spans, patcher.missing))
        if patcher.missing:
            print("# missing spans (functions gone): " + ", ".join(patcher.missing))
    return values


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def summarize(row: dict, builds: int, seconds) -> dict:
    """End-to-end values of one iteration, timing each step with ``seconds(start, end)``."""
    times = [(step, seconds(start, end)) for step, start, end in row["steps"]]
    return {
        "wall_ref_s": sum(t for _, t in times),
        "build_ref_s": sum(t for step, t in times if step == "make") / builds,
        "checked_ref_per_s": row["checked"] / sum(t for step, t in times if step == "check"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "monoreach" / "__init__.py").is_file():
        print(f"error: no monoreach sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # One CPU for this process and the set-up interpreters it starts, so that
    # the speed gauge times the CPU that does the measured work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedGauge() as gauge:
        setup = measure_setup(SETUP_SAMPLES[0])
        sys.path.insert(0, str(SRC))
        import monoreach.cli

        if Path(monoreach.cli.__file__).resolve().parent != (SRC / "monoreach").resolve():
            print(f"error: imported monoreach from {monoreach.cli.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        work = WORK / args.workload
        work.mkdir(parents=True, exist_ok=True)
        bench = Bench(monoreach.cli, work, args.seed)
        plain: list[dict] = []
        traced: list[dict] = []
        deadline = time.perf_counter() + args.seconds
        try:
            while True:
                order = [False]
                if args.trace:
                    # Alternate which of each pair goes first, so that the first
                    # iteration's cold start is not always charged to one side.
                    order = [True, False] if len(traced) % 2 else [False, True]
                for is_traced in order:
                    (traced if is_traced else plain).append(one_iteration(workload, bench, traced=is_traced))
                if time.perf_counter() >= deadline:
                    break
        finally:
            for path in work.glob("*.mcirc*"):
                path.unlink()
        setup += measure_setup(SETUP_SAMPLES[1])
        time.sleep(MARGIN_S)  # let probes describe the end of the last interval

    builds = workload.builds_per_iteration
    for row in plain + traced:
        row.update(summarize(row, builds, gauge.reference_seconds))
        row["raw"] = summarize(row, builds, lambda start, end: end - start)
    if args.trace:
        layer = {k: median_of(traced, k) for k in PER_LAYER if all(k in row for row in traced)}
        layer["trace.overhead_s"] = median_of(traced, "wall_ref_s") - median_of(plain, "wall_ref_s")
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER if k in layer}
    else:
        values = {k: median_of(plain, k) for k in ("wall_ref_s", "build_ref_s", "checked_ref_per_s")}
        values["setup_s"] = statistics.median(gauge.reference_seconds(*interval) for interval in setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in END_TO_END.items()}

    for flags, (sha, gates, depth) in bench.builds.items():
        print(f"# build {flags}: sha256 {sha} gates {gates} depth {depth}")
    print(f"# {args.workload} seed {args.seed}: {len(plain)} iteration(s), "
          f"{bench.failed} of {bench.attempted} operations failed")
    print("# wall seconds per iteration, measured / at reference speed: "
          + " ".join(f"{row['raw']['wall_ref_s']:.3f}/{row['wall_ref_s']:.3f}" for row in plain))
    for problem in bench.problems[:20]:
        print(f"# FAILED: {problem}")
    result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
