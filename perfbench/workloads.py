"""The four workloads: the monoreach commands each runs, and the checks on
what those commands return.

Every workload iteration is a closed loop with one client: each command
starts when the previous one has returned.  Commands run through
``bench.command(argv, step)``, which records when each "make" step (the
command that builds the artifact) and "check" step ran.  An iteration
returns how many items its check steps checked, plus the exact counts the
per-layer report needs.
"""

from __future__ import annotations

import re
from math import comb
from pathlib import Path

from checks import ledger_totals, mcirc_facts, mcirc_gates, read_family_file, waste_counts


def fresh(*paths: Path) -> None:
    """Remove outputs of the previous iteration, so every command writes a new
    file instead of overwriting one whose pages may still be written back."""
    for path in paths:
        path.unlink(missing_ok=True)


WROTE = re.compile(r"^wrote .*: (\d+) gates, depth (\d+)$", re.M)
CHECKED = re.compile(r"^checked (\d+) graphs, skipped (\d+) outside the promise$", re.M)


class CircuitWorkload:
    """``monoreach build`` to an MCIRC file, the same build again, then
    ``monoreach verify`` on it.  Each rebuild checks that the same flags give
    byte-identical output, and its time is another sample of the build."""

    def __init__(self, name, why, mode, n, l, verify, samples, depth_ceiling, seeded_build, builds=2):
        self.name = name
        self.why = why
        self.mode = mode
        self.n = n
        self.l = l
        self.verify = verify
        self.samples = samples
        # Depth of this build at the commit that defined the benchmark.  Depth
        # is exact and must never rise, so a deeper circuit is a failure.
        self.depth_ceiling = depth_ceiling
        self.seeded_build = seeded_build
        self.builds_per_iteration = builds

    def build_flags(self, seed: int) -> list[str]:
        flags = ["--mode", self.mode, "--n", str(self.n)]
        if self.l is not None:
            flags += ["--l", str(self.l)]
        if self.seeded_build:
            flags += ["--seed", str(seed)]
        return flags

    def iteration(self, bench) -> dict:
        """Build, rebuild (the bytes must not change) and verify once."""
        mcirc = bench.work / f"{self.name}.mcirc"
        values = [self._build(bench, mcirc, check_outputs=k == 0) for k in range(self.builds_per_iteration)][0]
        verify = ["verify", "--circuit", str(mcirc), "--n", str(self.n), *self.verify]
        verify += ["--samples", str(self.samples), "--seed", str(bench.seed)]
        rc, out = bench.command(verify, "check")
        checked = CHECKED.search(out)
        graphs = int(checked[1]) if checked else 0
        bench.graphs(graphs, rc == 0 and "no mismatches" in out, f"verify reported: {out.strip()[:300]!r}")
        bench.check(graphs == self.samples, f"verify checked {graphs} of {self.samples} graphs")
        bench.check(checked is not None and checked[2] == "0", "verify skipped graphs")
        values["checked"] = graphs
        return values

    def _build(self, bench, mcirc: Path, check_outputs: bool) -> dict:
        """Run ``build`` into a fresh file, check what it wrote and return its counts."""
        from monoreach.build import predict_gate_count

        flags = self.build_flags(bench.seed)
        fresh(mcirc, Path(f"{mcirc}.ledger.csv"))
        rc, out = bench.command(["build", *flags, "--out", str(mcirc)], "make")
        counts = {"build.gates": 0, "build.depth": 0, "build.dead_gates": 0, "build.zero_operand_gates": 0}
        wrote = WROTE.search(out)
        if not bench.check(rc == 0 and wrote is not None, f"build printed no gate count: {out.strip()!r}"):
            return counts
        gates, depth = int(wrote[1]), int(wrote[2])
        counts.update({"build.gates": gates, "build.depth": depth})
        try:
            facts = mcirc_facts(mcirc)
            predicted, measured = ledger_totals(f"{mcirc}.ledger.csv")
        except (OSError, ValueError) as exc:
            bench.check(False, f"unreadable build output: {exc}")
            return counts
        bench.record_build(" ".join(flags), facts.sha256, gates, depth)
        if not check_outputs:
            return counts
        bench.check(
            gates == predict_gate_count(self.mode, self.n, self.l),
            f"predict_gate_count({self.mode}, {self.n}, {self.l}) differs from the {gates} gates built",
        )
        bench.check(depth <= self.depth_ceiling, f"depth {depth} rose above {self.depth_ceiling}")
        bench.check(
            predicted == measured == depth, f"ledger predicted {predicted}, measured {measured}, circuit depth {depth}"
        )
        bench.check(len(facts.outputs) == 1, f"circuit has {len(facts.outputs)} outputs, not one")
        bench.check(facts.num_vertices == self.n, f"circuit has {facts.num_vertices} vertices")
        if bench.tracer is not None:
            dead, zero = waste_counts(*mcirc_gates(mcirc))
            counts.update({"build.dead_gates": dead, "build.zero_operand_gates": zero})
        return counts


class FamilyWorkload:
    """``family sample`` then ``family check --mode exact`` on fixed shapes."""

    builds_per_iteration = 1

    def __init__(self, name, why, shapes, attempts, fixed_seeds):
        self.name = name
        self.why = why
        self.shapes = shapes
        # A shape whose sampler retries needs 1 to 36 attempts depending on
        # the seed, which moved build_ref_s by 20% between seeds.  Such a shape
        # keeps one seed, chosen so that its first attempts hit counterexamples.
        self.fixed_seeds = fixed_seeds
        # The sampler retries until a family passes; the default of 10
        # attempts runs out on about a third of seeds for (48,48,16,8,4).
        self.attempts = attempts

    def iteration(self, bench) -> dict:
        subsets = 0
        for shape in self.shapes:
            path = bench.work / ("family-" + "-".join(map(str, shape)) + ".txt")
            flags = [t for flag, v in zip("nmsld", shape) for t in (f"--{flag}", str(v))]
            fresh(path)
            seed = self.fixed_seeds.get(shape, bench.seed)
            sample = ["family", "sample", *flags, "--seed", str(seed), "--attempts", str(self.attempts)]
            bench.command([*sample, "--out", str(path)], "make")
            rc, out = bench.command(["family", "check", "--file", str(path), "--mode", "exact"], "check")
            subsets += comb(shape[0], shape[4])
            try:
                fam = read_family_file(path)
            except (OSError, ValueError) as exc:
                bench.check(False, f"unreadable family file: {exc}")
                continue
            bench.check((fam.n, fam.m, fam.s, fam.l, fam.d) == shape, f"{path} declares other parameters")
            expected = bench.expected.verdict(fam)
            bench.check(
                out.strip() == "pass" and expected is None,
                f"family check printed {out.strip()!r}; brute force finds {expected or 'no violation'}",
            )
        return {
            "checked": subsets,
            "build.gates": 0,
            "build.depth": 0,
            "build.dead_gates": 0,
            "build.zero_operand_gates": 0,
        }


WORKLOADS = {
    w.name: w
    for w in (
        CircuitWorkload(
            "explicit-n64",
            "largest circuit users build (3.6M gates, 73 MB MCIRC); MCIRC write/parse and per-gate evaluation dominate",
            "explicit", 64, None, ["--mode", "random"], 16384, depth_ceiling=55, seeded_build=False,
        ),
        CircuitWorkload(
            "theorem-n16-l12",
            "recursive build through a sampled, exactly checked family; 96% dead gates; planted verify without BFS",
            "theorem", 16, 12, ["--mode", "planted", "--l", "12"], 16384, depth_ceiling=33, seeded_build=True,
        ),
        CircuitWorkload(
            "squaring-n16-bulk",
            "small circuit on 393,216 random graphs; Bernoulli masks, transpose and BFS oracle do most of the work",
            "squaring", 16, None, ["--mode", "random"], 393216, depth_ceiling=20, seeded_build=False,
            builds=8,  # one build takes 15 ms; eight keep its mean steady
        ),
        FamilyWorkload(
            "family-exact",
            "no circuit: family sample plus exact check on four shapes, one of which retries past counterexamples",
            ((79, 79, 195, 7, 4), (56, 56, 129, 5, 4), (40, 40, 12, 8, 5), (48, 48, 16, 8, 4)),
            attempts=200,
            fixed_seeds={(48, 48, 16, 8, 4): 0},  # passes on the 4th attempt
        ),
    )
}
