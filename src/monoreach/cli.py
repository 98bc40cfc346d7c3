"""Command-line front end: build, evaluate, verify, families, predictions.

All randomness flows from the --seed flag through the stdlib Mersenne
Twister (random.Random): draws read its 32-bit words through getrandbits,
or, for Bernoulli masks, through numpy's MT19937 started from its state;
sub-streams are derived by SHA-256 of seed and purpose label.  Identical
flags and seed reproduce byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .build import (
    MODE_EXACT,
    MODE_EXPLICIT,
    MODE_SQUARING,
    MODE_THEOREM,
    DepthLedger,
    _build_shape,
    _shape_ledger,
    build_explicit,
    build_reach_exact,
    build_reach_leq,
    build_recursive,
    depth_ratio,
    ledger_csv_lines,
    predict_depth,
    predict_gate_count,
    trend_table,
)
from .circuit import read_circuit, write_circuit
from .errors import BudgetExceededError, ConstructionFailedError, InvalidParameterError, MonoreachError
from .exactmath import parse_int
from .families import (
    SAMPLE_ENTRY_BUDGET,
    FamilyParams,
    check_family_exact,
    check_family_sampled,
    plane_family,
    read_family,
    sample_verified_family,
    write_family,
)
from .oracles import (
    MAX_CHECK_VERTICES,
    graph_to_text,
    random_batch_width,
    read_graph,
    run_exhaustive_check,
    run_planted_check,
    run_random_check,
)


def _parse_n(text: str) -> int:
    """Accept plain integers or power-of-two exponents written as 2^E,
    0 <= E <= 1024; E is checked before any shift.  Both read by the files'
    one number rule, exactmath.parse_int."""
    power = text.startswith("2^")
    try:
        value = parse_int(text[2:] if power else text, 0)
    except InvalidParameterError:
        raise InvalidParameterError(f"--n takes an integer or 2^E, got {text!r}") from None
    if not power:
        return value
    if not 0 <= value <= 1024:
        raise InvalidParameterError(f"--n 2^E needs 0 <= E <= 1024, got E = {value}")
    return 1 << value


def _parse_densities(text: str) -> tuple[float, ...]:
    """The comma-separated edge densities of --p, each as a float."""
    densities = []
    for token in text.split(","):
        try:
            densities.append(float(token))
        except ValueError:
            raise InvalidParameterError(f"--p takes comma-separated numbers, got {token!r}") from None
    return tuple(densities)


def _count_text(count: int) -> str:
    """A count in decimal, or as the power of ten it exceeds when it is too
    long for str() (over about 3,000 digits)."""
    if count.bit_length() <= 10_000:
        return str(count)
    return f"over 10^{int((count.bit_length() - 1) * math.log10(2))}"


def _write_ledger(path, ledger: DepthLedger, argv, seed=None):
    comments = [f"monoreach {__version__}", "command: " + " ".join(argv)]
    if seed is not None:
        comments.append(f"seed: {seed}")
    with open(path, "w", newline="\n") as fh:
        for line in ledger_csv_lines(ledger, comments):
            fh.write(line)
            fh.write("\n")


def _cmd_build(args, argv) -> int:
    n = _parse_n(args.n)
    l = _build_shape(args.mode, n, args.l).l
    expected_gates = predict_gate_count(args.mode, n, l)
    if expected_gates > args.max_gates:
        raise BudgetExceededError(
            f"build would emit {_count_text(expected_gates)} gates, over the --max-gates budget of {args.max_gates}"
        )
    if args.mode == "squaring":
        circuit = build_reach_leq(n, l)
    elif args.mode == "exact":
        circuit = build_reach_exact(n, l)
    elif args.mode == "explicit":
        circuit, ledger = build_explicit(n)
    elif args.mode == "theorem":
        circuit, ledger = build_recursive(n, l, args.seed, attempt_budget=args.attempts)
    else:  # pragma: no cover - argparse restricts choices
        return 2
    depth = circuit.depth()
    if args.mode in (MODE_SQUARING, MODE_EXACT):
        ledger = predict_depth(args.mode, n, l)
        ledger.stages[0].measured = depth
    write_circuit(circuit, args.out)
    _write_ledger(args.out + ".ledger.csv", ledger, argv, seed=args.seed)
    print(f"wrote {args.out}: {circuit.gate_count} gates, depth {depth}")
    return 0


def _cmd_eval(args, argv) -> int:
    circuit = read_circuit(args.circuit)
    graph = read_graph(args.graph)
    bits = circuit.evaluate_all(graph)
    print(" ".join(str(b) for b in bits))
    return 0


def _cmd_verify(args, argv) -> int:
    if args.walks is not None and (args.mode == "planted" or args.l is not None):
        raise InvalidParameterError("--walks takes --mode random or exhaustive, and no --l")
    circuit = read_circuit(args.circuit)
    n = _parse_n(args.n)
    if args.mode == "exhaustive":
        report = run_exhaustive_check(circuit, n, walks=args.walks, l=args.l)
    elif args.mode == "random":
        densities = _parse_densities(args.p)
        report = run_random_check(
            circuit, n, args.samples, args.seed, densities=densities, l=args.l, walks=args.walks
        )
    else:
        report = run_planted_check(circuit, n, args.samples, args.seed, l=args.l)
    print(f"checked {report.checked} graphs, skipped {report.skipped} outside the promise")
    if report.ok:
        print("no mismatches")
        return 0
    graph, expected, got = report.mismatches[0]
    print(f"MISMATCH: expected {expected}, circuit returned {got}, on graph:")
    sys.stdout.write(graph_to_text(graph))
    return 1


def _cmd_family(args, argv) -> int:
    if args.family_cmd == "plane":
        fam = plane_family(_parse_n(args.n))
        write_family(fam, args.out)
        p = fam.params
        print(f"wrote {args.out}: ({p.n},{p.m},{p.s},{p.l},{p.d}) family")
        return 0
    if args.family_cmd == "sample":
        params = FamilyParams(args.n, args.m, args.s, args.l, args.d)
        if params.m * params.s > SAMPLE_ENTRY_BUDGET:
            raise BudgetExceededError(
                f"sampling m={params.m} sets of s={params.s} entries is over the budget of "
                f"{SAMPLE_ENTRY_BUDGET} entries"
            )
        try:
            fam, attempts = sample_verified_family(params, args.seed, args.attempts, max_subsets=args.budget)
        except ConstructionFailedError:
            print(f"no verified family within {args.attempts} attempts", file=sys.stderr)
            return 1
        write_family(fam, args.out)
        print(f"wrote {args.out} after {attempts} attempt(s)")
        return 0
    # check
    fam = read_family(args.file)
    if args.mode == "exact":
        bad = check_family_exact(fam, max_subsets=args.budget)
    else:
        bad = check_family_sampled(fam, args.trials, args.seed)
    if bad is None:
        print("pass" if args.mode == "exact" else "no-violation-found")
        return 0
    print(f"counterexample: D={bad.d_subset} avoided by {bad.disjoint_count} sets (threshold {bad.threshold})")
    print(f"set indices: {' '.join(str(i) for i in bad.set_indices)}")
    return 1


def _cmd_predict(args, argv) -> int:
    if args.table:
        print("e,squaring,explicit,theorem")
        for e, sq, ex, th in trend_table():
            print(f"{e},{float(sq):.6f},{float(ex):.6f},{float(th):.6f}")
        return 0
    if args.n is None:
        raise InvalidParameterError("predict requires --n (or --table)")
    n = _parse_n(args.n)
    ledger = predict_depth(args.mode, n, args.l)
    for line in ledger_csv_lines(ledger, [f"monoreach {__version__}", "command: " + " ".join(argv)]):
        print(line)
    ratio = depth_ratio(ledger.total_predicted, n)
    print(f"# ratio to (log2 n)^2: {float(ratio):.6f}")
    if n.bit_length() <= 28:  # gate counts only meaningful at buildable sizes
        print(f"# gate count if built: {predict_gate_count(args.mode, n, args.l)}")
    if args.mode == MODE_THEOREM:
        built = _shape_ledger(_build_shape(MODE_THEOREM, n, args.l))
        print(f"# integer depth if built: {built.total_predicted}")
        for line in ledger_csv_lines(built):
            print(f"# {line}")
    return 0


def _cmd_stats(args, argv) -> int:
    circuit = read_circuit(args.circuit)  # a circuit that reads is well-formed
    print(f"vertices: {circuit.num_vertices}")
    print(f"inputs: {circuit.num_inputs}")
    print(f"gates: {circuit.gate_count}")
    print(f"dead gates: {circuit.gate_count - int(circuit.live_gates().sum())}")
    print(f"zero-wire operands: {circuit.zero_wire_operands()}")
    print(f"outputs: {len(circuit.outputs)}")
    # The plan behind these is sized by the inputs, and no check takes more
    # than MAX_CHECK_VERTICES vertices.  It is made before the depth scan,
    # so that the cached depths do not add to its peak memory.
    if circuit.num_vertices <= MAX_CHECK_VERTICES:
        plan = [
            f"eval peak values: {circuit.live_peak()}",
            f"random-check batch: {random_batch_width(circuit)} graphs",
            f"eval steps: {circuit.eval_steps()}",
        ]
    else:
        plan = [f"random-check batch: none, over {MAX_CHECK_VERTICES} vertices"]
    print(f"depth: {circuit.depth()}")
    print(*plan, sep="\n")
    print("valid: yes")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose flag errors are one `error:` line and exit 2,
    like every other refusal, and whose `type=int` flags are read by the
    files' one number rule, exactmath.parse_int (its refusal is a
    ValueError, which argparse words as an invalid int value); its
    subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, lambda text: parse_int(text, 0))

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def _build_flags(p):
    p.add_argument("--mode", required=True, choices=["squaring", "exact", "explicit", "theorem"])
    p.add_argument("--n", required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=10)
    p.add_argument("--max-gates", type=int, default=200_000_000, help="refuse builds above this gate count")
    p.add_argument("--out", required=True)


def _eval_flags(p):
    p.add_argument("--circuit", required=True)
    p.add_argument("--graph", required=True)


def _verify_flags(p):
    p.add_argument("--circuit", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--mode", required=True, choices=["exhaustive", "random", "planted"])
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l", type=int, help="length budget; restricts checks to promise instances")
    p.add_argument("--walks", type=int, help="expect walks of exactly this many edges from 1 to n (exact builds)")
    p.add_argument("--p", default="0.02,0.1,0.5", help="comma-separated edge densities for random mode")


def _plane_flags(p):
    p.add_argument("--n", required=True)
    p.add_argument("--out", required=True)


def _sample_flags(p):
    for flag in ("--n", "--m", "--s", "--l", "--d"):
        p.add_argument(flag, required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=10)
    p.add_argument(
        "--budget", type=int, default=10_000_000, help="subsets the exact check may visit before refusing"
    )
    p.add_argument("--out", required=True)


def _check_flags(p):
    p.add_argument("--file", required=True)
    p.add_argument("--mode", required=True, choices=["exact", "sampled"])
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--budget", type=int, default=10_000_000, help="subsets the exact check may visit before refusing"
    )


def _predict_flags(p):
    p.add_argument("--mode", choices=[MODE_SQUARING, MODE_EXACT, MODE_EXPLICIT, MODE_THEOREM], default=MODE_SQUARING)
    p.add_argument("--n", help="size, or 2^E up to 2^1024")
    p.add_argument("--l", type=int)
    p.add_argument("--table", action="store_true", help="emit the ratio trend table for all modes")


def _stats_flags(p):
    p.add_argument("--circuit", required=True)


# Each command's help line and the function that adds its flags to its
# parser; family's entry holds its sub-commands, in the same shape, which
# parse into `family_cmd`.
_COMMANDS = {
    "build": ("build a reachability circuit", _build_flags),
    "eval": ("evaluate a circuit on one graph", _eval_flags),
    "verify": ("compare a circuit against the BFS oracle", _verify_flags),
    "family": (
        "generate or check covering families",
        {
            "plane": ("affine-plane family", _plane_flags),
            "sample": ("sampled family with exact validation", _sample_flags),
            "check": ("check a family file", _check_flags),
        },
    ),
    "predict": ("depth predictions without building gates", _predict_flags),
    "stats": ("depth, gate count, validation of a circuit file", _stats_flags),
}


def _add_commands(parser, dest, table, named) -> None:
    """A sub-command of `parser` for each entry of `table`, parsed into
    `dest`; those whose name is in `named` get their flags too.  argparse
    reaches a command only through its name, so a tree given the words of
    an argv parses that argv as the tree with every flag would."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_line, flags) in table.items():
        command = sub.add_parser(name, help=help_line)
        if isinstance(flags, dict):
            _add_commands(command, f"{name}_cmd", flags, named)
        elif name in named:
            flags(command)


def _command_tree(named) -> argparse.ArgumentParser:
    """The tree of every command and its help line, which prints the top
    help, the version and the refusals of a missing or unknown command;
    the commands whose name is in `named` get their flags too."""
    top = _Parser(prog="monoreach", description=__doc__)
    top.add_argument("--version", action="version", version=f"monoreach {__version__}")
    _add_commands(top, "cmd", _COMMANDS, named)
    return top


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the command tree parses it.  When argv starts with a
    command (for family, and a sub-command), only that command's parser is
    built, with the prog the tree gives it: the tree hands the rest of such
    an argv to that parser alone, and building all ten parsers takes about
    1 ms, as long as a small command's own work."""
    names, flags, rest = [], _COMMANDS, argv
    while isinstance(flags, dict):
        if not rest or rest[0] not in flags:
            return _command_tree(set(argv)).parse_args(argv)
        names.append(rest[0])
        flags, rest = flags[rest[0]][1], rest[1:]
    parser = _Parser(prog=" ".join(["monoreach", *names]))
    flags(parser)
    args = parser.parse_args(rest)
    args.cmd = names[0]
    if len(names) > 1:
        setattr(args, f"{names[0]}_cmd", names[1])
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    handlers = {
        "build": _cmd_build,
        "eval": _cmd_eval,
        "verify": _cmd_verify,
        "family": _cmd_family,
        "predict": _cmd_predict,
        "stats": _cmd_stats,
    }
    try:
        return handlers[args.cmd](args, ["monoreach"] + argv)
    except (MonoreachError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
