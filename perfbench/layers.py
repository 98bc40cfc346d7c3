"""Which monoreach functions the traced run wraps, and the per-layer metrics.

Layers are named by module: cli, build, circuit, oracles, families,
exactmath, plus mem (resident memory at two points) and trace (the
tracing itself).  Times are inclusive of nested spans of other names;
``*.self_s`` metrics subtract every child span.
"""

from __future__ import annotations

import os
import resource

from tracing import Patcher, Tracer, count_totals, outer_totals, self_times, span_wrapper


def rss_mb() -> float:
    """Resident set size of this process now, in MiB."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _parse_counts(args, kwargs, result):
    return {"gates": result.gate_count, "rss_mb": rss_mb()}


def _evaluate_counts(args, kwargs, result):
    return {"calls": 1, "gate_chunks": args[0].gate_count, "rss_mb": rss_mb()}


def _one_call(args, kwargs, result):
    return {"calls": 1}


def _graphs(args, kwargs, result):
    return {"graphs": len(args[0])}


# (function as module:qualname, span name, counter)
PROBES = (
    ("monoreach.build:build_reach_leq", "build.builder", None),
    ("monoreach.build:build_explicit", "build.builder", None),
    ("monoreach.build:build_recursive", "build.builder", None),
    ("monoreach.build:_walk_power_entries", "build.closure", None),
    ("monoreach.build:_splice", "build.splice", _one_call),
    ("monoreach.circuit:or_tree", "build.or", None),
    ("monoreach.circuit:write_circuit", "circuit.write", _write_counts),
    ("monoreach.circuit:read_circuit", "circuit.read", None),
    ("monoreach.circuit:circuit_from_text", "circuit.parse", _parse_counts),
    ("monoreach.circuit:MonotoneCircuit.wire_depths", "circuit.wire_depths", None),
    ("monoreach.circuit:MonotoneCircuit.evaluate_batch", "circuit.evaluate", _evaluate_counts),
    ("monoreach.oracles:run_random_check", "oracles.driver", None),
    ("monoreach.oracles:run_planted_check", "oracles.driver", None),
    ("monoreach.oracles:bernoulli_entry_masks", "oracles.masks", None),
    ("monoreach.oracles:masks_to_graph_ints", "oracles.transpose", None),
    ("monoreach.oracles:graph_ints_to_masks", "oracles.transpose", None),
    ("monoreach.oracles:_oracle_masks", "oracles.bfs", _graphs),
    ("monoreach.oracles:planted_path_graph", "oracles.planted_gen", None),
    ("monoreach.oracles:no_path_graph", "oracles.planted_gen", None),
    ("monoreach.exactmath:bernoulli_mask", "exactmath.bernoulli", None),
    ("monoreach.families:sample_family", "families.sample", None),
    ("monoreach.families:check_family_exact", "families.exact", _one_call),
)

# name: (unit, better); the order is the order BENCHMARK.json lists them.
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "build.self_s": ("s", "lower"),
    "build.closure_s": ("s", "lower"),
    "build.splice_s": ("s", "lower"),
    "build.splice_clones": ("count", "lower"),
    "build.or_s": ("s", "lower"),
    "build.gates": ("count", "lower"),
    "build.depth": ("count", "lower"),
    "build.dead_gates": ("count", "lower"),
    "build.zero_operand_gates": ("count", "lower"),
    "circuit.write_s": ("s", "lower"),
    "circuit.write_mb_per_s": ("MB/s", "higher"),
    "circuit.read_s": ("s", "lower"),
    "circuit.parse_s": ("s", "lower"),
    "circuit.parse_gates_per_s": ("gates/s", "higher"),
    "circuit.wire_depths_s": ("s", "lower"),
    "circuit.evaluate_s": ("s", "lower"),
    "circuit.evaluate_calls": ("count", "lower"),
    "circuit.evaluate_ns_per_gate_chunk": ("ns", "lower"),
    "oracles.driver_self_s": ("s", "lower"),
    "oracles.masks_s": ("s", "lower"),
    "oracles.transpose_s": ("s", "lower"),
    "oracles.bfs_s": ("s", "lower"),
    "oracles.bfs_graphs": ("count", "lower"),
    "oracles.planted_gen_s": ("s", "lower"),
    "exactmath.bernoulli_s": ("s", "lower"),
    "families.sample_s": ("s", "lower"),
    "families.exact_s": ("s", "lower"),
    "families.exact_calls": ("count", "lower"),
    "families.useful_ratio": ("ratio", "higher"),
    "mem.rss_after_parse_mb": ("MB", "lower"),
    "mem.rss_after_evaluate_mb": ("MB", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.missing_spans": ("count", "lower"),
}


def install(patcher: Patcher, tracer: Tracer) -> None:
    for target, span, counter in PROBES:
        patcher.wrap(target, span_wrapper(tracer, span, counter))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, missing_targets) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.  A metric that needs a span
    whose function is missing is left out, so it cannot read as zero."""
    missing = {span for target, span, _ in PROBES if target in missing_targets}
    inc = outer_totals(spans)
    counts = count_totals(spans)
    own = self_times(spans)

    def self_of(prefix: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name.startswith(prefix))

    def peak(name: str) -> float:
        return max((s.counts.get("rss_mb", 0.0) for s in spans if s.name == name), default=0.0)

    t = inc.get
    evaluate_s = t("circuit.evaluate", 0.0)
    values = {
        "cli.self_s": (self_of("cli."), ()),
        "build.self_s": (self_of("build.builder"), ("build.builder",)),
        "build.closure_s": (t("build.closure", 0.0), ("build.closure",)),
        "build.splice_s": (t("build.splice", 0.0), ("build.splice",)),
        "build.splice_clones": (counts.get("build.splice:calls", 0), ("build.splice",)),
        "build.or_s": (t("build.or", 0.0), ("build.or",)),
        "circuit.write_s": (t("circuit.write", 0.0), ("circuit.write",)),
        "circuit.write_mb_per_s": (
            _ratio(counts.get("circuit.write:bytes", 0) / 1e6, t("circuit.write", 0.0)),
            ("circuit.write",),
        ),
        "circuit.read_s": (t("circuit.read", 0.0), ("circuit.read",)),
        "circuit.parse_s": (t("circuit.parse", 0.0), ("circuit.parse",)),
        "circuit.parse_gates_per_s": (
            _ratio(counts.get("circuit.parse:gates", 0), t("circuit.parse", 0.0)),
            ("circuit.parse",),
        ),
        "circuit.wire_depths_s": (t("circuit.wire_depths", 0.0), ("circuit.wire_depths",)),
        "circuit.evaluate_s": (evaluate_s, ("circuit.evaluate",)),
        "circuit.evaluate_calls": (counts.get("circuit.evaluate:calls", 0), ("circuit.evaluate",)),
        "circuit.evaluate_ns_per_gate_chunk": (
            _ratio(evaluate_s * 1e9, counts.get("circuit.evaluate:gate_chunks", 0)),
            ("circuit.evaluate",),
        ),
        "oracles.driver_self_s": (self_of("oracles.driver"), ("oracles.driver",)),
        "oracles.masks_s": (t("oracles.masks", 0.0), ("oracles.masks",)),
        "oracles.transpose_s": (t("oracles.transpose", 0.0), ("oracles.transpose",)),
        "oracles.bfs_s": (t("oracles.bfs", 0.0), ("oracles.bfs",)),
        "oracles.bfs_graphs": (counts.get("oracles.bfs:graphs", 0), ("oracles.bfs",)),
        "oracles.planted_gen_s": (t("oracles.planted_gen", 0.0), ("oracles.planted_gen",)),
        "exactmath.bernoulli_s": (t("exactmath.bernoulli", 0.0), ("exactmath.bernoulli",)),
        "families.sample_s": (t("families.sample", 0.0), ("families.sample",)),
        "families.exact_s": (t("families.exact", 0.0), ("families.exact",)),
        "families.exact_calls": (counts.get("families.exact:calls", 0), ("families.exact",)),
        "mem.rss_after_parse_mb": (peak("circuit.parse"), ("circuit.parse",)),
        "mem.rss_after_evaluate_mb": (peak("circuit.evaluate"), ("circuit.evaluate",)),
        "trace.missing_spans": (sum(1 for target, _, _ in PROBES if target in missing_targets), ()),
    }
    return {k: v for k, (v, deps) in values.items() if not missing.intersection(deps)}
