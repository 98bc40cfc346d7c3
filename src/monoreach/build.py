"""Circuit builders for directed reachability, with exact depth ledgers.

Three families of constructions:

* repeated squaring of the edge matrix (walk powers),
* composition through a covering set family: a shallow closure block, one
  clone of an inner circuit per set, and a final OR,
* the explicit affine-plane build and the recursive sampled-family build,
  both instances of the composition.

The squaring step uses the recurrence  next[i][j] = OR_k leaf_k  where
leaf_k is  cur[i][k] AND cur[k][j]  for k != j and leaf_j is cur[i][j]
itself (the k = j term is absorbed by it).  This computes walks of length
1..2**t without a constant-one wire, keeps the all-zero input at zero, and
adds exactly 1 + ceil(log2 n) depth per squaring for n >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circuit import (
    MonotoneCircuit,
    _banded_product,
    or_tree,
)
from .errors import InvalidParameterError
from .exactmath import (
    PREC,
    floor_pow2,
    isqrt,
    ln_scaled,
    log2_fraction,
    log2_scaled,
)
from .families import (
    CoveringFamily,
    FamilyParams,
    minimal_deficiency,
    minimal_prime_q,
    plane_family,
    sample_verified_family,
)


def ceil_log2(x: int) -> int:
    if x < 1:
        raise InvalidParameterError("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()


# -- depth ledger ---------------------------------------------------------------


@dataclass
class Stage:
    label: str
    predicted: "int | Fraction"
    measured: int | None = None


@dataclass
class DepthLedger:
    """Per-stage depth terms: predictions are per-stage upper bounds and the
    measured column is the stage's contribution to the longest path."""

    stages: list[Stage] = field(default_factory=list)

    @property
    def total_predicted(self):
        return sum(s.predicted for s in self.stages)

    @property
    def total_measured(self) -> int | None:
        total = 0
        for s in self.stages:
            if s.measured is None:
                return None
            total += s.measured
        return total


def ledger_csv_lines(ledger: DepthLedger, comments=()):
    for c in comments:
        yield f"# {c}"
    yield "stage,label,predicted,measured"
    for idx, s in enumerate(ledger.stages):
        pred = s.predicted if isinstance(s.predicted, int) else f"{float(s.predicted):.6f}"
        meas = "" if s.measured is None else str(s.measured)
        yield f"{idx},{s.label},{pred},{meas}"


# -- matrix-power builders ---------------------------------------------------------


# Entries of a walk matrix fall into classes by the roles of their row and
# column vertex: "1" is vertex 1, "n" is vertex n and "m" is any other
# (middle) vertex; a middle row splits into its own diagonal entry ("m",
# "m") and the entries of other middle columns ("m", "m'").  Which entries
# a builder needs is closed under relabelling the middle vertices, so a
# set of classes (a pattern) names it exactly, at any n.
ROLE_CLASSES = (
    ("1", "1"), ("1", "m"), ("1", "n"),
    ("m", "1"), ("m", "m"), ("m", "n"),
    ("n", "1"), ("n", "m"), ("n", "n"),
    ("m", "m'"),
)
TERMINAL_ENTRY = frozenset({("1", "n")})


def _class_size(cls: tuple[str, str], n: int) -> int:
    """Entries of an n-vertex matrix in one role class."""
    middle = max(n - 2, 0)
    size = {"1": 1, "m": middle, "n": 1, "m'": max(middle - 1, 0)}
    return middle if cls == ("m", "m") else size[cls[0]] * size[cls[1]]


def _needs(plan: list[tuple[int, int]], last: frozenset, n: int, absorb: bool) -> list[frozenset]:
    """Needed role classes of matrices 0..len(plan) of a product plan (matrix
    0 is the input, product k from 1 is matrix k, with operands plan[k - 1])
    when the last matrix is needed at the classes `last`.

    Counting back: entry (i, j) of a product reads row i of its left operand
    and column j of its right one; with `absorb` (squaring) it skips the
    diagonal entry (j, j) of that column, since its leaf k = j is the left
    operand's entry (i, j) itself.  Classes with no entry at this n are
    dropped before their rows and columns are taken.
    """
    live = lambda classes: frozenset(c for c in classes if _class_size(c, n) > 0)
    needs = [set() for _ in plan] + [last]
    for k in range(len(plan), 0, -1):
        needs[k] = live(needs[k])
        rows = {r for r, _ in needs[k]}
        cols = {c.rstrip("'") for _, c in needs[k]}
        left, right = plan[k - 1]
        needs[left].update(c for c in ROLE_CLASSES if c[0] in rows)
        needs[right].update(c for c in ROLE_CLASSES if c[1].rstrip("'") in cols and not (absorb and c[0] == c[1]))
    needs[0] = live(needs[0])
    return needs


def _squaring_plan(steps: int) -> list[tuple[int, int]]:
    """Square the input `steps` times: walk lengths 1..L become 1..2L each time."""
    return [(k, k) for k in range(steps)]


def _role_classes(n: int) -> np.ndarray:
    """Index into ROLE_CLASSES of every entry of an n-vertex matrix."""
    role = np.ones(n, dtype=np.int64)  # 0: vertex 1, 1: middle, 2: vertex n
    role[0], role[-1] = 0, 2
    classes = 3 * role[:, None] + role[None, :]
    classes[(classes == 4) & ~np.eye(n, dtype=bool)] = 9
    return classes


def _pattern_mask(pattern: frozenset, n: int) -> np.ndarray:
    return np.isin(_role_classes(n), [ROLE_CLASSES.index(c) for c in pattern])


def _read_pattern(circuit: MonotoneCircuit) -> frozenset:
    """Role classes of the inputs some gate or output of `circuit` reads."""
    _, lefts, rights = circuit.gates()
    wires = np.concatenate((lefts, rights, circuit.outputs))
    read = np.unique(wires[wires < circuit.num_inputs])
    return frozenset(ROLE_CLASSES[c] for c in np.unique(_role_classes(circuit.num_vertices).ravel()[read]))


def _emit_plan(circuit: MonotoneCircuit, plan: list[tuple[int, int]], last: frozenset, absorb: bool) -> np.ndarray:
    """Emit the products of `plan` on the circuit's input matrix, each only
    at the entries `_needs` gives it; returns the last matrix, -1 where
    nothing is emitted.  With `absorb` leaf k = j of entry (i, j) is the
    left operand's (i, j) itself, not an AND gate."""
    n = circuit.num_vertices
    mats = [np.arange(n * n, dtype=np.int64).reshape(n, n)]
    and_leaves = ~np.eye(n, dtype=bool) if absorb else np.ones((n, n), dtype=bool)
    for (left, right), need in zip(plan, _needs(plan, last, n, absorb)[1:]):
        mats.append(_banded_product(circuit, mats[left], mats[right], and_leaves, _pattern_mask(need, n)))
    return mats[-1]


def _walk_power_entries(circuit: MonotoneCircuit, steps: int, last: frozenset) -> np.ndarray:
    """The walk matrix squared `steps` times, emitted at the classes `last`."""
    return _emit_plan(circuit, _squaring_plan(steps), last, absorb=True)


def build_reach_leq(n: int, l: int) -> MonotoneCircuit:
    """Bounded-length reachability promise circuit: outputs 1 whenever some
    1 -> n path of at most l edges exists, 0 whenever no path exists.

    Emits only the gates the output reads."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if l < 1:
        raise InvalidParameterError("l must be >= 1")
    circuit = MonotoneCircuit(n)
    cur = _walk_power_entries(circuit, ceil_log2(l), TERMINAL_ENTRY)
    circuit.set_outputs([int(cur[0, n - 1])])
    return circuit


def build_reach_exact(n: int, l: int) -> MonotoneCircuit:
    """Exact-length circuit: 1 iff a walk 1 -> n of exactly l edges exists.

    Emits the products of `_exact_plan`, each only at the entries a later
    product or the output reads."""
    plan = _exact_plan(n, l)
    circuit = MonotoneCircuit(n)
    out = _emit_plan(circuit, plan, TERMINAL_ENTRY, absorb=False)
    circuit.set_outputs([int(out[0, n - 1])])
    return circuit


def _exact_plan(n: int, l: int) -> list[tuple[int, int]]:
    """The product plan of build_reach_exact: the operands of each product,
    in emission order.

    The l-th power of the input: square it once per binary digit of l, then
    multiply the set-bit powers in a balanced tree that pairs neighbours
    left to right and carries an odd straggler up.  The last product (the
    input for l = 1) is the output matrix, read only at entry (1, n).
    """
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if l < 1:
        raise InvalidParameterError(f"l must be at least 1, got {l}")
    operands: list[tuple[int, int]] = []

    def multiply(a: int, b: int) -> int:
        operands.append((a, b))
        return len(operands)

    power = 0
    factors = []
    top = l.bit_length() - 1
    for i in range(top + 1):
        if (l >> i) & 1:
            factors.append(power)
        if i < top:
            power = multiply(power, power)
    while len(factors) > 1:
        pairs = [multiply(factors[t], factors[t + 1]) for t in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            pairs.append(factors[-1])
        factors = pairs
    return operands


def build_reach(n: int) -> MonotoneCircuit:
    """Total reachability circuit (shortest paths have at most n-1 edges)."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    return build_reach_leq(n, n - 1)


# -- family composition ------------------------------------------------------------


def _splice(circuit: MonotoneCircuit, inner: MonotoneCircuit, input_map: np.ndarray) -> int:
    """Append a clone of `inner`, rewiring its inputs through input_map
    (index: inner wire id over inputs+zero).  Returns the clone's output wire."""
    base = circuit.num_wires
    wire = np.concatenate((input_map, np.arange(base, base + inner.gate_count)))  # inner wire -> wire here
    ops, lefts, rights = inner.gates()
    circuit.append_gates(ops, wire[lefts], wire[rights])
    return int(wire[inner.outputs[0]])


def compose_family(family: CoveringFamily, inner: MonotoneCircuit):
    """Compose an inner bounded-length circuit through a covering family.

    Steps: build the closure block (walk powers up to 2**ceil(log2 2d) >= 2d
    edges); clone the inner circuit once per set, with slot 1 on vertex 1,
    the last slot on vertex n and the set's other vertices in between, its
    inputs the closure entries between the slots' vertices and the zero
    wire on unused slots; OR the clone outputs.

    The closure holds only the cone of the entries a clone can read, taken
    by slot role from the inner circuit's reads: slot 1 stands for vertex
    1, the last slot for vertex n and a middle slot for every other vertex.
    So its size depends on the inner circuit, never on the sampled sets; a
    vertex that no set holds leaves its entries dead.

    Returns (circuit, ledger); the ledger's measured stage contributions sum
    to the measured depth exactly.
    """
    p = family.params
    if len(inner.outputs) != 1:
        raise InvalidParameterError("inner circuit must have exactly one output")
    if inner.num_vertices != p.s + 2:
        raise InvalidParameterError(
            f"inner circuit has {inner.num_vertices} vertices, family needs s+2 = {p.s + 2}"
        )
    n = p.n
    if n < 2:
        raise InvalidParameterError("family universe must have n >= 2")
    slots = inner.num_vertices
    circuit = MonotoneCircuit(n)
    closure = _walk_power_entries(circuit, ceil_log2(2 * p.d), _read_pattern(inner))

    clone_outs = []
    for s in family.sets:  # sorted, so middle slots follow vertex order
        middle = np.array([v for v in s if v not in (1, n)], dtype=np.int64)
        slot = np.concatenate(([0], np.arange(1, 1 + middle.size), [slots - 1]))
        vertex = np.concatenate(([0], middle - 1, [n - 1]))
        input_map = np.full(inner.num_inputs + 1, circuit.zero, dtype=np.int64)
        input_map[slot[:, None] * slots + slot] = closure[np.ix_(vertex, vertex)]
        clone_outs.append(_splice(circuit, inner, input_map))

    out = or_tree(circuit, clone_outs)
    circuit.set_outputs([out])

    # Where the closure, the clones and the OR end.
    ends = [circuit.depth(closure[closure >= 0]), circuit.depth(clone_outs), circuit.depth([out])]
    ledger = DepthLedger(_composition_stages(p, inner.depth()))
    for stage, start, end in zip(ledger.stages, [0] + ends, ends):
        stage.measured = end - start
    return circuit, ledger


def _composition_stages(p: FamilyParams, inner_depth: int | None, label: str = "") -> list[Stage]:
    """Predicted stages of compose_family over a family of shape p and an
    inner circuit of depth inner_depth: the closure, ceil(log2 2d)
    squarings of 1 + ceil(log2 n) each, the clones, and an OR over the m
    clone outputs."""
    return [
        Stage(label + "closure", ceil_log2(2 * p.d) * (1 + ceil_log2(p.n))),
        Stage(label + "blocks", inner_depth),
        Stage(label + "or", ceil_log2(p.m)),
    ]


def _compose_levels(shape: _BuildShape, family_of):
    """Build a composed shape inside out: its base circuit, then per level
    the family family_of(i, params) composed over what is built so far.

    Returns (circuit, ledger): the shape's ledger with the measured column
    filled from the base depth and each compose_family ledger, by label.
    """
    circuit = build_reach_leq(shape.vertices, shape.length)
    measured = {f"level{len(shape.levels)}.squaring": circuit.depth()}
    for i in reversed(range(len(shape.levels))):
        circuit, level = compose_family(family_of(i, shape.levels[i]), circuit)
        prefix = f"level{i}." if shape.mode == MODE_THEOREM else ""
        measured.update((prefix + stage.label, stage.measured) for stage in level.stages)
    ledger = _shape_ledger(shape)
    for stage in ledger.stages:
        stage.measured = measured[stage.label]
    return circuit, ledger


def build_explicit(n: int):
    """Reachability circuit from the affine-plane family over the smallest
    fitting prime; returns (circuit, ledger)."""
    return _compose_levels(_build_shape(MODE_EXPLICIT, n, None), lambda i, p: plane_family(n))


# -- recursive schedule ------------------------------------------------------------


def recursion_schedule(n: int, l: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The paper's schedule as (d, levels), levels[i] = (n_i, l_i) for
    i = 0..k: d = floor(2**sqrt(log2 n)), k = floor(log_d l),
    l_i = floor(l / d**i), n_i = floor(n * g**i / d**i) with the
    per-level universe growth g = 2 ln n + 3.

    Evaluated in scaled-integer arithmetic (96 fractional bits), so the
    schedule is identical on every platform.
    """
    if not 2 <= l < n:
        raise InvalidParameterError(f"need 2 <= l < n, got l={l}, n={n}")
    sqrt_log = isqrt(log2_scaled(n) << PREC)  # sqrt(log2 n) * 2**PREC
    d = floor_pow2(sqrt_log)
    if d < 2:
        d = 2
    k = 0
    while d ** (k + 1) <= l:
        k += 1
    growth_scaled = 2 * ln_scaled(n) + (3 << PREC)
    levels = []
    for i in range(k + 1):
        l_i = l // d**i
        n_i = (n * growth_scaled**i) // (d**i << (PREC * i))
        levels.append((int(n_i), l_i))
    assert levels[0] == (n, l)
    assert levels[k][1] <= d
    assert all(a[1] > b[1] for a, b in zip(levels, levels[1:]))  # l_i strictly falls
    return d, tuple(levels)


def build_recursive(n: int, l: int, seed: int, attempt_budget: int = 10):
    """Recursive composed build: squaring at the deepest level, then one
    sampled covering family and composition per level, inside out.

    Every family is verified with the exact checker before it is composed;
    a check over its default budget refuses the build.  An attempt budget
    below 1 is refused before any gate, whether or not a level samples a
    family.  Returns (circuit, ledger).
    """
    if attempt_budget < 1:
        raise InvalidParameterError(f"attempts must be at least 1, got {attempt_budget}")
    return _compose_levels(
        _build_shape(MODE_THEOREM, n, l),
        lambda i, p: sample_verified_family(p, seed, attempt_budget, label=f"level{i}:")[0],
    )


# -- gate-count and depth prediction ---------------------------------------------------

MODE_SQUARING = "squaring"
MODE_EXACT = "exact"
MODE_EXPLICIT = "explicit"
MODE_THEOREM = "theorem"


def _plan_gates(plan: list[tuple[int, int]], last: frozenset, n: int, absorb: bool) -> tuple[int, frozenset]:
    """(gates, input classes read) of `_emit_plan(circuit, plan, last,
    absorb)` on n vertices, from class sizes alone: an entry costs 2n - 1
    gates, one fewer when absorbing."""
    needs = _needs(plan, last, n, absorb)
    entries = sum(_class_size(c, n) for need in needs[1:] for c in need)
    return entries * (2 * n - 1 - absorb), needs[0]


@dataclass(frozen=True)
class _BuildShape:
    """What a build of `mode` is made of, all of it fixed before any gate:
    the length budget l it uses, the FamilyParams of its composition levels,
    outermost first, and its base circuit on `vertices` vertices, for walks
    of at most `length` edges (by squaring, with `absorb`) or of exactly
    `length` edges, emitted by the product plan `plan`."""

    mode: str
    l: int | None
    levels: tuple[FamilyParams, ...]
    vertices: int
    length: int
    plan: list[tuple[int, int]]
    absorb: bool


def _build_shape(mode: str, n: int, l: int | None) -> _BuildShape:
    """The shape of a build of `mode`, l = n - 1 by default for squaring and
    theorem; refuses what the mode cannot build."""
    if l is None and mode in (MODE_SQUARING, MODE_THEOREM):
        l = n - 1
    if mode == MODE_EXACT:
        if l is None:
            raise InvalidParameterError("exact mode needs a length l (--l)")
        return _BuildShape(mode, l, (), n, l, _exact_plan(n, l), absorb=False)
    if mode == MODE_SQUARING:
        if n < 2 or l < 1:
            raise InvalidParameterError("squaring mode needs n >= 2 and l >= 1")
        levels, base = (), (n, l)
    elif mode == MODE_EXPLICIT:
        if n < 2:
            raise InvalidParameterError("explicit mode needs n >= 2")
        q = minimal_prime_q(n)
        d = minimal_deficiency(q)
        levels, base = (FamilyParams(n, q * (q + 1), q, n, d),), (q + 2, n // d)
    elif mode == MODE_THEOREM:
        d, schedule = recursion_schedule(n, l)
        pairs = zip(schedule, schedule[1:])  # a level's universe and its inner one
        levels = tuple(FamilyParams(n_i, n_i, n_next - 2, l_i, d) for (n_i, l_i), (n_next, _) in pairs)
        base = schedule[-1]
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    vertices, length = base
    return _BuildShape(mode, l, levels, vertices, length, _squaring_plan(ceil_log2(length)), absorb=True)


def _shape_ledger(shape: _BuildShape) -> DepthLedger:
    """The integer depth ledger a build of this shape reaches, predicted
    column only.  squaring and exact: one stage, the base plan replayed
    (every product adds 1 + ceil(log2 n)); explicit: closure, blocks and
    OR; theorem: each level's closure and OR, outermost first, then the
    base squaring."""
    depth = [0]  # of matrix k of the base plan
    for a, b in shape.plan:
        depth.append(max(depth[a], depth[b]) + 1 + ceil_log2(shape.vertices))
    if shape.mode == MODE_THEOREM:
        stages = []
        for i, p in enumerate(shape.levels):
            closure, _, orstage = _composition_stages(p, None, f"level{i}.")
            stages += [closure, orstage]
        return DepthLedger(stages + [Stage(f"level{len(shape.levels)}.squaring", depth[-1])])
    if shape.levels:
        return DepthLedger(_composition_stages(shape.levels[0], depth[-1]))
    return DepthLedger([Stage("exact-power" if shape.mode == MODE_EXACT else "squaring", depth[-1])])


def predict_gate_count(mode: str, n: int, l: int | None = None) -> int:
    """Exact gate count of a build without materializing it.

    Counts depend only on the mode parameters.  Every build holds only its
    output cone.  A composed build's closure holds the cone of the role
    classes its inner circuit reads (`_needs`), so clone and closure sizes
    are fixed by the declared family shape, not by which sets get sampled.
    Each count is a closed form over role classes, cheap at any n: the base
    plan's, then per level, inside out, the closure, m inner clones and an
    OR of m - 1 gates.
    """
    shape = _build_shape(mode, n, l)
    gates, reads = _plan_gates(shape.plan, TERMINAL_ENTRY, shape.vertices, shape.absorb)
    for p in reversed(shape.levels):
        closure, reads = _plan_gates(_squaring_plan(ceil_log2(2 * p.d)), reads, p.n, absorb=True)
        gates = closure + p.m * gates + (p.m - 1)
    return gates


def predict_depth(mode: str, n: int, l: int | None = None) -> DepthLedger:
    """Stage-by-stage depth predictions without materializing gates.

    squaring, exact and explicit use the integer depths the builders
    achieve; squaring defaults to l = n - 1, as the builder does.
    theorem uses the idealized recursion main terms (level products of
    dyadic log2 values, 96 fractional bits): the per-level order-log
    overheads vanish against (log2 n)**2 and are excluded, so the numbers
    trace the construction's limiting trajectory.
    """
    shape = _build_shape(mode, n, l)
    if mode == MODE_THEOREM:
        stages = [Stage(f"level{i}", log2_fraction(p.d) * log2_fraction(p.n)) for i, p in enumerate(shape.levels)]
        base = log2_fraction(shape.length) * log2_fraction(shape.vertices)
        return DepthLedger(stages + [Stage(f"level{len(shape.levels)}.squaring", base)])
    return _shape_ledger(shape)


def depth_ratio(total, n: int) -> Fraction:
    """total / (log2 n)**2 as an exact rational (exact exponent for powers
    of two, dyadic log otherwise)."""
    if n & (n - 1) == 0:
        e = n.bit_length() - 1
        denom = Fraction(e * e)
    else:
        denom = log2_fraction(n) ** 2
    value = total if isinstance(total, Fraction) else Fraction(total)
    return value / denom


TREND_EXPONENTS = (10, 20, 40, 80, 160, 320, 640, 1024)


def trend_table(exponents=TREND_EXPONENTS):
    """Ratio-to-(log2 n)**2 rows for n = 2**e: (e, squaring, explicit, theorem).

    The squaring column uses l = n and the theorem column l = n - 1 (both
    realize plain reachability at that size).  All entries are exact
    Fractions.
    """
    rows = []
    for e in exponents:
        n = 1 << e
        sq = depth_ratio(predict_depth(MODE_SQUARING, n, n).total_predicted, n)
        ex = depth_ratio(predict_depth(MODE_EXPLICIT, n).total_predicted, n)
        th = depth_ratio(predict_depth(MODE_THEOREM, n, n - 1).total_predicted, n)
        rows.append((e, sq, ex, th))
    return rows
