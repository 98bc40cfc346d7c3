"""Circuit IR: construction, the checked append, evaluation, depth, serialization."""

import re
from array import array
from functools import reduce
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoreach as mr
import monoreach.circuit as circuit_module
from monoreach import AND, OR, cli
from monoreach.build import ROLE_CLASSES, _walk_power_entries, build_recursive, predict_gate_count
from monoreach.circuit import MAX_WIRES, AdjacencyMatrix, _banded_product, _mcirc_chunks

ALL_ENTRIES = frozenset(ROLE_CLASSES)


def inputs(c):
    n = c.num_vertices
    return np.arange(n * n, dtype=np.int64).reshape(n, n)


def product(c, a, b):
    """Every entry of the boolean product a b, each leaf an AND gate."""
    n = a.shape[0]
    return _banded_product(c, a, b, np.ones((n, n), dtype=bool))


def set_edge(m, i, j):
    """Add the edge i -> j (1-based vertices) to an AdjacencyMatrix."""
    m._check(i, j)
    m.rows[i - 1] |= 1 << (j - 1)


def matrix_of(n, *edges):
    """The n-vertex graph with the given (i, j) edges."""
    m = AdjacencyMatrix(n)
    for i, j in edges:
        set_edge(m, i, j)
    return m


def input_wire(c, i, j):
    """Wire id of the edge variable for i -> j (1-based vertices)."""
    n = c.num_vertices
    if not (1 <= i <= n and 1 <= j <= n):
        raise mr.InvalidParameterError(f"vertex pair ({i},{j}) out of range 1..{n}")
    return (i - 1) * n + (j - 1)


def evaluate(c, matrix):
    """The one output of a single-output circuit on one graph: the
    one-graph reference for evaluate_batch."""
    if len(c.outputs) != 1:
        raise mr.InvalidParameterError("evaluate requires exactly one output")
    return c.evaluate_all(matrix)[0]


def prune(c):
    """Drop every gate no output of c reads, in place.  Kept gates keep
    their order and are renumbered densely, so the result depends only on
    the circuit; both of its caches are reset.  The reference that shows a
    builder emits only its output cone."""
    live = c.live_gates()
    if live.all():
        return
    n0 = c.num_inputs + 1
    keep = np.flatnonzero(live)
    # renumber[g] is the new wire id of gate g (meaningful where live).
    renumber = np.cumsum(live, dtype=np.int64) + (n0 - 1)

    def wire(ids):
        return np.where(ids < n0, ids, renumber[np.maximum(ids - n0, 0)])

    ops, lefts, rights = c.gates()
    c._ops = bytearray(ops[keep].tobytes())
    c._lefts = array("i", wire(lefts[keep].astype(np.int64)).astype(np.intc).tobytes())
    c._rights = array("i", wire(rights[keep].astype(np.int64)).astype(np.intc).tobytes())
    c.outputs = wire(np.asarray(c.outputs, dtype=np.int64)).tolist()
    c._depths_cache = None
    c._plan_cache = None


def gate_of(c, g):
    """Gate g of a circuit as (op, left, right)."""
    return c._ops[g], c._lefts[g], c._rights[g]


def circuit_to_text(circuit):
    """A circuit's MCIRC file as text: the bytes write_circuit writes."""
    return b"".join(_mcirc_chunks(circuit)).decode("ascii")


def build_walk_power(n, t):
    """Multi-output circuit: entry (i, j) is 1 iff a walk i -> j with between
    1 and 2**t edges exists.  Depth is exactly t * (1 + ceil(log2 n)) for
    n >= 2 (and 0 otherwise); diagonal entries report cycles, not the empty
    walk, so the all-zero input stays zero."""
    circuit = mr.MonotoneCircuit(n)
    circuit.set_outputs(int(w) for w in _walk_power_entries(circuit, t, ALL_ENTRIES).ravel())
    return circuit


class TestNewCircuit:
    def test_input_counts(self):
        assert mr.MonotoneCircuit(2).num_inputs == 4
        assert mr.MonotoneCircuit(1).num_inputs == 1
        assert mr.MonotoneCircuit(5).num_inputs == 25

    def test_fresh_circuit_shape(self):
        c = mr.MonotoneCircuit(3)
        assert c.gate_count == 0
        assert c.outputs == []
        assert c.zero == 9

    def test_zero_vertices_rejected(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.MonotoneCircuit(0)


class TestAddGate:
    def test_returns_fresh_wire(self):
        c = mr.MonotoneCircuit(2)
        w = c.add_gate(AND, input_wire(c, 1, 1), input_wire(c, 1, 2))
        assert w == c.num_inputs + 1  # first wire after inputs and zero

    def test_or_with_zero_is_identity(self):
        c = mr.MonotoneCircuit(2)
        g12 = input_wire(c, 1, 2)
        c.set_outputs([c.add_gate(OR, c.zero, g12)])
        for t in range(16):
            m = AdjacencyMatrix(2, [t & 3, (t >> 2) & 3])
            assert evaluate(c, m) == m.entry(1, 2)

    def test_and_with_zero_annihilates(self):
        c = mr.MonotoneCircuit(2)
        c.set_outputs([c.add_gate(AND, c.zero, input_wire(c, 1, 2))])
        for t in range(16):
            m = AdjacencyMatrix(2, [t & 3, (t >> 2) & 3])
            assert evaluate(c, m) == 0

    def test_dangling_reference(self):
        c = mr.MonotoneCircuit(2)
        with pytest.raises(mr.InvalidReferenceError):
            c.add_gate(AND, 0, 99)

    def test_bad_op(self):
        c = mr.MonotoneCircuit(2)
        with pytest.raises(mr.InvalidParameterError):
            c.add_gate(7, 0, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_append_gates(self, data):
        # The same result, or the same refusal with the same message, and
        # the same gate table after.
        n = data.draw(st.integers(1, 3))
        prior = data.draw(st.integers(0, 3))
        circuits = [mr.MonotoneCircuit(n) for _ in range(2)]
        for c in circuits:
            for g in range(prior):
                c.append_gates([OR], [g], [c.zero])
        w = circuits[0].num_wires
        op = data.draw(st.integers(-2, 3))
        a, b = (data.draw(st.integers(-3, w + 2) | st.integers(-(2**40), 2**40)) for _ in range(2))
        limit = data.draw(st.sampled_from([MAX_WIRES, w, w + 1]))

        def outcome(append):
            try:
                return append()
            except (mr.InvalidParameterError, mr.InvalidReferenceError) as e:
                return type(e), str(e)

        with patch("monoreach.circuit.MAX_WIRES", limit):
            one = outcome(lambda: circuits[0].add_gate(op, a, b))
            block = outcome(lambda: circuits[1].append_gates([op], [a], [b]))
        assert one == block
        assert [list(t) for t in circuits[0].gates()] == [list(t) for t in circuits[1].gates()]


class TestOrTree:
    def test_singleton_is_identity(self):
        c = mr.MonotoneCircuit(2)
        w = input_wire(c, 1, 1)
        assert mr.or_tree(c, [w]) == w
        assert c.gate_count == 0

    def test_six_wires_depth_three(self):
        c = mr.MonotoneCircuit(3)
        out = mr.or_tree(c, list(range(6)))
        c.set_outputs([out])
        assert c.depth() == 3  # ceil(log2 6)

    def test_empty_rejected(self):
        c = mr.MonotoneCircuit(2)
        with pytest.raises(mr.InvalidParameterError):
            mr.or_tree(c, [])

    def test_eight_wires_matches_fold(self):
        # Oracle: a left fold of OR gates over the same wires.
        tree = mr.MonotoneCircuit(3)
        tree.set_outputs([mr.or_tree(tree, list(range(8)))])
        fold = mr.MonotoneCircuit(3)
        fold.set_outputs([reduce(lambda a, b: fold.add_gate(OR, a, b), range(8))])
        for one_hot in range(9):
            bits = [0] * 9
            if one_hot < 8:
                bits[one_hot] = 1
            m = AdjacencyMatrix(3, [bits[0] | bits[1] << 1 | bits[2] << 2,
                                    bits[3] | bits[4] << 1 | bits[5] << 2,
                                    bits[6] | bits[7] << 1 | bits[8] << 2])
            assert evaluate(tree, m) == evaluate(fold, m)
            if one_hot < 8:
                assert evaluate(tree, m) == 1


class TestBandedProduct:
    def test_single_vertex(self):
        c = mr.MonotoneCircuit(1)
        a = inputs(c)
        prod = product(c, a, a)
        c.set_outputs([int(prod[0, 0])])
        assert c.gate_count == 1
        assert c.depth() == 1

    def test_added_depth_n4(self):
        c = mr.MonotoneCircuit(4)
        a = inputs(c)
        prod = product(c, a, a)
        c.set_outputs(int(w) for w in prod.ravel())
        assert c.depth() == 3  # 1 + ceil(log2 4)

    def test_matches_brute_force_product(self):
        def oracle_product(x, y, n):
            return [
                [any(x[i][k] and y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]

        c = mr.MonotoneCircuit(3)
        a = inputs(c)
        sq = product(c, a, a)
        cube = product(c, sq, a)
        c.set_outputs(int(w) for w in np.concatenate((sq.ravel(), cube.ravel())))
        for t in (0, 5, 73, 218, 511, 340, 129):
            m = AdjacencyMatrix(3, [(t >> (3 * i)) & 7 for i in range(3)])
            bits = [[m.entry(i + 1, j + 1) for j in range(3)] for i in range(3)]
            want_sq = oracle_product(bits, bits, 3)
            want_cube = oracle_product(want_sq, bits, 3)
            got = c.evaluate_all(m)
            for i in range(3):
                for j in range(3):
                    assert got[3 * i + j] == int(want_sq[i][j])
                    assert got[9 + 3 * i + j] == int(want_cube[i][j])


class TestEvaluate:
    def test_projection(self):
        c = mr.MonotoneCircuit(2)
        c.set_outputs([input_wire(c, 1, 2)])
        assert evaluate(c, matrix_of(2, (1, 2))) == 1
        assert evaluate(c, matrix_of(2, (2, 1))) == 0

    def test_all_zero_matrix_gives_zero(self):
        for circuit in (mr.build_reach(3), build_walk_power(3, 2), mr.build_reach_exact(3, 3)):
            got = circuit.evaluate_all(AdjacencyMatrix(3))
            assert set(got) == {0}

    def test_reach_on_small_path(self):
        c = mr.build_reach(3)
        assert evaluate(c, matrix_of(3, (1, 2), (2, 3))) == 1

    def test_dimension_mismatch(self):
        c = mr.build_reach(3)
        with pytest.raises(mr.InvalidParameterError):
            evaluate(c, AdjacencyMatrix(4))

    def test_single_output_required(self):
        c = build_walk_power(2, 1)
        with pytest.raises(mr.InvalidParameterError):
            evaluate(c, AdjacencyMatrix(2))
        assert len(c.evaluate_all(AdjacencyMatrix(2))) == 4


class TestDepth:
    def test_no_gates(self):
        c = mr.MonotoneCircuit(2)
        c.set_outputs([input_wire(c, 1, 2)])
        assert c.depth() == 0

    def test_single_gate(self):
        c = mr.MonotoneCircuit(2)
        c.set_outputs([c.add_gate(AND, 0, 1)])
        assert c.depth() == 1

    def test_reach_leq_4_3(self):
        # Two squarings at 1 + ceil(log2 4) levels each.
        assert mr.build_reach_leq(4, 3).depth() == 6


def well_formed(c):
    """What is wrong with a circuit, or None.  Reads gates() and checks the
    rules here, apart from the append's own check: every op is AND or OR,
    every operand is a wire below its gate's own id, and there are outputs,
    each an existing wire."""
    ops, lefts, rights = c.gates()
    own = c.num_inputs + 1 + np.arange(c.gate_count)
    bad_op = np.flatnonzero((ops != AND) & (ops != OR))
    if bad_op.size:
        return f"gate {bad_op[0]} has non-monotone op code {ops[bad_op[0]]}"
    bad_read = np.flatnonzero((np.minimum(lefts, rights) < 0) | (np.maximum(lefts, rights) >= own))
    if bad_read.size:
        return f"gate {bad_read[0]} references wire >= its own id (forward or dangling)"
    if not c.outputs:
        return "circuit has no outputs"
    for o in c.outputs:
        if not 0 <= o < c.num_wires:
            return f"output references missing wire {o}"
    return None


class TestWellFormed:
    def test_fresh_build_is_valid(self):
        assert well_formed(mr.build_reach_leq(5, 4)) is None

    def test_forward_reference_caught(self):
        c = mr.build_reach_leq(4, 3)
        text = circuit_to_text(c)
        w = c.num_wires
        # (lefts, the operands of the first gate that reads a missing wire)
        for lefts, fault in (([0, 1, w + 2], (w + 2, 0)), ([0, w + 1, 1], (w + 1, w)), ([w, 0, 1], (w, 1)),
                             ([0, -1, 1], (-1, w))):
            with pytest.raises(mr.InvalidReferenceError, match=f"^{re.escape(f'gate references missing wire {fault}')}$"):
                c.append_gates([AND, OR, AND], lefts, [1, w, 0])
            assert circuit_to_text(c) == text  # the block appends nothing
        with pytest.raises(mr.InvalidReferenceError, match=f"^gate references missing wire \\(0, {w}\\)$"):
            c.add_gate(AND, 0, w)
        assert circuit_to_text(c) == text

    def test_no_outputs_caught(self):
        c = mr.MonotoneCircuit(2)
        c.add_gate(AND, 0, 1)
        assert well_formed(c) == "circuit has no outputs"

    def test_bad_op_caught(self):
        c = mr.MonotoneCircuit(2)
        for ops, op in (([AND, 9], 9), ([2, OR], 2), ([-1, AND], -1)):
            with pytest.raises(mr.InvalidParameterError, match=f"^unknown gate op {op}$"):
                c.append_gates(ops, [0, 1], [1, 2])
        with pytest.raises(mr.InvalidParameterError, match="^unknown gate op 9$"):
            c.add_gate(9, 0, 1)
        assert c.gate_count == 0

    def test_gate_views_are_read_only(self):
        c = mr.build_reach_leq(4, 3)
        for view in c.gates():
            with pytest.raises(ValueError):
                view[0] = 1
        assert well_formed(c) is None


def test_only_circuit_py_names_the_gate_table():
    """Every other module reads gates() and appends through append_gates()."""
    for path in sorted(Path(mr.__file__).parent.glob("*.py")):
        if path.name != "circuit.py":
            names = sorted(set(re.findall(r"\b_(?:ops|lefts|rights)\b", path.read_text())))
            assert not names, (path.name, names)


def random_circuit(data, max_gates=40):
    """A random circuit whose operands lean on recent wires, so it has
    single-reader trees; outputs may be inputs, the zero wire, repeats, or
    gates that later gates read."""
    c = mr.MonotoneCircuit(data.draw(st.integers(1, 3)))
    for _ in range(data.draw(st.integers(0, max_gates))):
        op = data.draw(st.sampled_from([AND, OR]))
        w = c.num_wires
        a = data.draw(st.integers(max(0, w - 6), w - 1) | st.integers(0, w - 1))
        b = data.draw(st.just(a) | st.integers(max(0, w - 6), w - 1) | st.integers(0, w - 1))
        c.add_gate(op, a, b)
    outs = data.draw(st.lists(st.integers(0, c.num_wires - 1), min_size=1, max_size=4))
    c.set_outputs(outs + data.draw(st.lists(st.sampled_from(outs), max_size=2)))
    return c


def file_order_eval(c, masks):
    """Reference evaluator: every gate in file order, nothing released."""
    vals = list(masks) + [0]
    for op, a, b in zip(c._ops, c._lefts, c._rights):
        vals.append(vals[a] | vals[b] if op == OR else vals[a] & vals[b])
    return [vals[o] for o in c.outputs]


def per_gate_folds(c):
    """(root, joins) of every gate by per-gate loops: a gate whose only
    reader gate is an OR gate, and that is not an output, joins that
    reader's fold; root follows the joins to the top.  joins ends with a
    spare False."""
    n0 = c.num_inputs + 1
    readers = [set() for _ in range(c.gate_count)]
    for g, (a, b) in enumerate(zip(c._lefts, c._rights)):
        for w in (a, b):
            if w >= n0:
                readers[w - n0].add(g)
    outs = set(c.outputs)
    parent = [-1] * c.gate_count
    for g, r in enumerate(readers):
        if len(r) == 1 and c._ops[min(r)] == OR and g + n0 not in outs:
            parent[g] = min(r)
    root = list(range(c.gate_count))
    for g in range(c.gate_count - 1, -1, -1):
        if parent[g] >= 0:
            root[g] = root[parent[g]]
    return root, [p >= 0 for p in parent] + [False]


def per_gate_plan(c):
    """The fields of c._plan() by per-gate loops.  Each gate that joins no
    fold is one step, in file order, over its fold's AND gates (in file
    order) and the operands of its OR gates that join no fold (in file
    order, left before right).  Each value is freed after the last step
    that reads it, unless it is an output."""
    n0 = c.num_inputs + 1
    root, joins = per_gate_folds(c)
    steps = [g for g in range(c.gate_count) if not joins[g]]
    slot = list(range(n0)) + [None] * c.gate_count
    for t, g in enumerate(steps):
        slot[n0 + g] = n0 + t
    folds = {g: [] for g in steps}
    for g in range(c.gate_count):
        folds[root[g]].append(g)
    plan = dict(and_counts=[], plain_counts=[], free_counts=[], and_lefts=[], and_rights=[], plains=[], frees=[],
                outputs=[slot[o] for o in c.outputs])
    reads = []
    for g in steps:
        pairs = [(slot[c._lefts[m]], slot[c._rights[m]]) for m in folds[g] if c._ops[m] == AND]
        plains = [slot[w] for m in folds[g] if c._ops[m] == OR for w in (c._lefts[m], c._rights[m])
                  if w < n0 or not joins[w - n0]]
        plan["and_counts"].append(len(pairs))
        plan["plain_counts"].append(len(plains))
        plan["and_lefts"] += [a for a, _ in pairs]
        plan["and_rights"] += [b for _, b in pairs]
        plan["plains"] += plains
        reads.append([v for pair in pairs for v in pair] + plains)
    last_use = {}
    for t, vs in enumerate(reads):
        for v in vs:
            last_use[v] = t
    for o in plan["outputs"]:
        last_use.pop(o, None)
    for t, vs in enumerate(reads):
        freed = sorted({v for v in vs if last_use.get(v) == t})
        plan["frees"] += freed
        plan["free_counts"].append(len(freed))
    return plan


def plan_fields(c):
    """c._plan() without its peak, as lists."""
    p = c._plan()
    return {k: list(getattr(p, k)) for k in ("and_counts", "plain_counts", "free_counts", "and_lefts", "and_rights",
                                             "plains", "frees", "outputs")}


def per_gate_codes(lefts, rights, ops, outputs, num_wires):
    """Each gate's evaluation code in file order by a per-gate last-use
    loop: bit 0 and bit 1 mark the last read of the left and right
    operand, bit 2 an OR."""
    last_use = [-1] * num_wires
    for i, (a, b) in enumerate(zip(lefts, rights)):
        last_use[a] = i
        last_use[b] = i
    for o in outputs:
        last_use[o] = len(ops)
    return [
        (last_use[a] == i) + 2 * (last_use[b] == i) + 4 * (op == OR)
        for i, (op, a, b) in enumerate(zip(ops, lefts, rights))
    ]


def peak_live(num_inputs, codes, lefts, rights):
    """Most values held at once by an evaluation of one gate a step that
    frees each value at the read its code marks, counted after each gate's
    releases; the inputs and the zero wire start live."""
    live = peak = num_inputs + 1
    for code, a, b in zip(codes, lefts, rights):
        released = {w for w, bit in ((a, 1), (b, 2)) if code & bit}
        live += 1 - len(released)
        peak = max(peak, live)
    return peak


def replayed_peak(c):
    """Most non-None values of evaluate_batch's value list, before the first
    step or after any step's releases, by replaying the plan step by step
    with placeholder values.  Every step reads at least one value, every
    value a step reads, and every output, must not have been freed."""
    p = c._plan()
    and_lefts, and_rights, plains, frees = map(iter, (p.and_lefts, p.and_rights, p.plains, p.frees))
    vals = [object() for _ in range(c.num_inputs + 1)]
    peak = len(vals)
    for a, b, f in zip(p.and_counts, p.plain_counts, p.free_counts):
        reads = [next(it) for it, k in ((and_lefts, a), (and_rights, a), (plains, b)) for _ in range(k)]
        assert reads and all(vals[v] is not None for v in reads)
        vals.append(object())
        for _ in range(f):
            vals[next(frees)] = None
        peak = max(peak, sum(v is not None for v in vals))
    assert all(vals[o] is not None for o in p.outputs)
    return peak


def sop_circuit(data, max_trees=6):
    """A random circuit built from OR trees over leaves that are new AND
    gates or earlier wires, so most of its trees are sum-of-products
    trees.  The draws give leaves shared between trees, AND gates with
    a == b or the zero wire, pure OR trees, a balanced or_tree or a random
    OR shape, an AND gate over an OR gate of its own tree, AND roots, and
    outputs on any wire, a tree's leaves included; zero trees and so zero
    gates too."""
    c = mr.MonotoneCircuit(data.draw(st.integers(1, 3)))
    wires = list(range(c.num_wires))
    for _ in range(data.draw(st.integers(0, max_trees))):
        def wire():
            return data.draw(st.sampled_from(wires) | st.just(c.zero))

        leaves = []
        for _ in range(data.draw(st.integers(1, 6))):
            kind = data.draw(st.sampled_from(["and", "and", "plain", "and over or"]))
            a = wire()
            b = data.draw(st.just(a) | st.sampled_from(wires))
            if kind == "and":
                leaves.append(c.add_gate(AND, a, b))
            elif kind == "plain":
                leaves.append(a)
            else:
                leaves.append(c.add_gate(AND, c.add_gate(OR, a, b), wire()))
        wires += [w for w in leaves if w > c.zero]
        if data.draw(st.booleans()):
            top = mr.or_tree(c, leaves)
        else:
            while len(leaves) > 1:
                i = data.draw(st.integers(0, len(leaves) - 1))
                x = leaves.pop(i)
                y = leaves.pop(data.draw(st.integers(0, len(leaves) - 1)))
                leaves.append(c.add_gate(data.draw(st.sampled_from([OR, OR, OR, AND])), x, y))
            top = c.add_gate(OR, leaves[0], leaves[0]) if data.draw(st.booleans()) else leaves[0]
        wires.append(top)
    outs = data.draw(st.lists(st.sampled_from(wires), min_size=1, max_size=4))
    c.set_outputs(outs + [w for w in wires[c.zero + 1 :] if data.draw(st.booleans())][-2:])
    return c


class TestPlan:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_live_peak_matches_a_replay(self, data):
        # Both draws give gates with a == b and outputs that later gates read.
        c = data.draw(st.sampled_from([random_circuit, sop_circuit]))(data)
        assert c.live_peak() == replayed_peak(c)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_file_order_evaluation(self, data):
        c = random_circuit(data, max_gates=60)
        masks = [data.draw(st.integers(0, 2**70 - 1)) for _ in range(c.num_inputs)]
        assert c.evaluate_batch(masks) == file_order_eval(c, masks)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_folded_trees_match_file_order_evaluation(self, data):
        c = sop_circuit(data)
        masks = [data.draw(st.integers(0, 2**70 - 1)) for _ in range(c.num_inputs)]
        assert c.evaluate_batch(masks) == file_order_eval(c, masks)

    def test_covers_the_corner_cases(self):
        # a == b, outputs on an input, the zero wire and a repeated gate,
        # and an output gate that a later gate reads.
        c = mr.MonotoneCircuit(2)  # inputs 0..3, zero wire 4
        g5 = c.add_gate(AND, 1, 1)
        g6 = c.add_gate(OR, g5, g5)
        g7 = c.add_gate(AND, 0, 2)
        g8 = c.add_gate(OR, g6, g7)
        g9 = c.add_gate(AND, g8, 3)
        c.set_outputs([g9, 2, c.zero, g8, g9, g6])
        for t in range(16):
            masks = [t >> e & 1 for e in range(4)]
            assert c.evaluate_batch(masks) == file_order_eval(c, masks)
        masks = [0b1100, 0b1010, 0b0110, 0b1111]
        assert c.evaluate_batch(masks) == file_order_eval(c, masks)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_order_is_a_topological_permutation(self, data):
        # Every gate runs once, inside the step of its fold, and every value
        # a step reads is stored by an earlier step, not freed.
        c = data.draw(st.sampled_from([random_circuit, sop_circuit]))(data)
        root, joins = c._folds()
        assert (root.tolist(), joins.tolist()) == per_gate_folds(c)
        assert plan_fields(c) == per_gate_plan(c)
        replayed_peak(c)

    def test_runs_each_tree_before_its_root(self):
        c = mr.MonotoneCircuit(2)
        leaf = c.add_gate(AND, 0, 1)  # read only by the last gate
        first = c.add_gate(AND, 2, 3)
        c.set_outputs([first, c.add_gate(OR, leaf, 2)])
        # The first gate joins the fold of the last, one step after the other.
        assert plan_fields(c) == dict(and_counts=[1, 1], plain_counts=[0, 1], free_counts=[1, 3], and_lefts=[2, 0],
                                      and_rights=[3, 1], plains=[2], frees=[3, 0, 1, 2], outputs=[5, 6])
        assert c.eval_steps() == 2

    def test_shapes_that_fold(self):
        # Inputs 0..8, zero wire 9.
        cases = {  # name: (gates, steps)
            "or_tree over inputs": (lambda c: mr.or_tree(c, range(7)), 1),
            "sum of products": (lambda c: mr.or_tree(c, [c.add_gate(AND, a, a + 1) for a in range(5)]), 1),
            "AND root": (lambda c: c.add_gate(AND, c.add_gate(OR, 0, 1), 2), 2),
            # The AND joins the top OR; the OR it reads is a step of its own.
            "AND over its own tree": (lambda c: c.add_gate(OR, c.add_gate(AND, c.add_gate(OR, 0, 1), 2), 3), 2),
            "one OR gate": (lambda c: c.add_gate(OR, 0, c.zero), 1),
        }
        for name, (build, steps) in cases.items():
            c = mr.MonotoneCircuit(3)
            c.set_outputs([build(c)])
            assert c.eval_steps() == steps, name
            for t in range(2**9):
                masks = [t >> e & 1 for e in range(9)]
                assert c.evaluate_batch(masks) == file_order_eval(c, masks), name

    def test_an_output_inside_a_tree_is_its_own_step(self):
        c = mr.MonotoneCircuit(2)
        inner = c.add_gate(AND, 0, 1)
        top = c.add_gate(OR, c.add_gate(OR, inner, 2), 3)
        c.set_outputs([top, inner])
        # inner is a step of its own, and the fold that reads it keeps it.
        fields = plan_fields(c)
        assert (fields["and_counts"], fields["plain_counts"]) == ([1, 0], [0, 3])
        assert fields["plains"] == [5, 2, 3]
        assert fields["frees"] == [0, 1, 2, 3]
        assert c.evaluate_batch([1, 1, 0, 0]) == [1, 1]

    def test_a_circuit_without_gates(self):
        c = mr.MonotoneCircuit(2)
        c.set_outputs([3, c.zero, 0])
        assert c.eval_steps() == 0
        assert c.live_peak() == replayed_peak(c) == 5
        assert c.evaluate_batch([1, 2, 4, 8]) == [8, 0, 1]

    def test_an_or_gate_reading_one_joined_gate_twice(self):
        # Inputs 0..3, zero wire 4.  Each gate's one reader is the OR after
        # it, which reads it twice, so the whole circuit is one fold.
        c = mr.MonotoneCircuit(2)
        x = c.add_gate(AND, 0, 1)
        y = c.add_gate(OR, x, x)
        z = c.add_gate(OR, c.add_gate(OR, 2, 3), y)
        c.set_outputs([c.add_gate(OR, z, z)])
        assert plan_fields(c) == dict(and_counts=[1], plain_counts=[2], free_counts=[4], and_lefts=[0],
                                      and_rights=[1], plains=[2, 3], frees=[0, 1, 2, 3], outputs=[5])
        for t in range(16):
            masks = [t >> e & 1 for e in range(4)]
            assert c.evaluate_batch(masks) == file_order_eval(c, masks)

    def test_a_theorem_build_is_few_steps(self):
        # The single-reader region above its closures, where AND gates read
        # OR gates of the same region, once ran one step per gate (70,494
        # steps in all).
        c = build_recursive(16, 12, 0)[0]
        assert (c.gate_count, c.eval_steps(), c.live_peak()) == (93777, 1824, 1264)
        rng = np.random.default_rng(5)
        masks = [int.from_bytes(rng.bytes(8), "little") for _ in range(c.num_inputs)]
        assert c.evaluate_batch(masks) == file_order_eval(c, masks)

    def test_peak_live_values(self):
        # File order keeps a whole band's AND leaves live before its OR
        # trees; the plan runs each entry's tree as one step.
        for circuit, in_file_order, in_plan_order, steps in (
            (mr.build_explicit(16)[0], 4097, 482, 798),
            (mr.build_reach_leq(16, 15), 4097, 482, 542),
        ):
            file_codes = per_gate_codes(circuit._lefts, circuit._rights, circuit._ops, circuit.outputs, circuit.num_wires)
            assert peak_live(circuit.num_inputs, file_codes, circuit._lefts, circuit._rights) == in_file_order
            assert replayed_peak(circuit) == circuit.live_peak() == in_plan_order
            assert circuit.eval_steps() == steps


class TestGateCodes:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_per_gate_last_use(self, data):
        c = mr.MonotoneCircuit(data.draw(st.integers(1, 3)))
        for _ in range(data.draw(st.integers(0, 40))):
            op = data.draw(st.sampled_from([AND, OR]))
            c.add_gate(op, data.draw(st.integers(0, c.num_wires - 1)), data.draw(st.integers(0, c.num_wires - 1)))
        c.set_outputs(data.draw(st.lists(st.integers(0, c.num_wires - 1), min_size=1, max_size=3)))
        assert plan_fields(c) == per_gate_plan(c)

    def test_add_gate_invalidates(self):
        c = mr.MonotoneCircuit(2)
        g = c.add_gate(AND, 0, 1)
        c.set_outputs([g])
        assert plan_fields(c)["frees"] == [0, 1]
        c.add_gate(OR, 0, 2)  # now the last reader of wire 0
        assert plan_fields(c) == per_gate_plan(c)
        assert (plan_fields(c)["free_counts"], plan_fields(c)["frees"]) == ([1, 2], [1, 0, 2])
        assert evaluate(c, matrix_of(2, (1, 1), (1, 2))) == 1

    def test_set_outputs_invalidates(self):
        # The first output's last reader releases it; a later evaluation
        # with it as the output must not find it released.
        c = mr.MonotoneCircuit(2)
        g = c.add_gate(OR, 0, 1)
        h = c.add_gate(AND, g, 2)
        c.set_outputs([h])
        assert evaluate(c, matrix_of(2, (1, 1))) == 0
        c.set_outputs([g])
        assert plan_fields(c) == per_gate_plan(c)
        assert (plan_fields(c)["free_counts"], plan_fields(c)["frees"]) == ([2, 1], [0, 1, 2])
        assert evaluate(c, matrix_of(2, (1, 1))) == 1

    def test_prune_invalidates(self):
        c = mr.MonotoneCircuit(2)
        dead = c.add_gate(AND, 0, 1)
        g = c.add_gate(OR, 0, 1)
        c.set_outputs([c.add_gate(AND, g, 3)])
        assert plan_fields(c) == per_gate_plan(c)
        c.add_gate(OR, dead, 2)  # a second dead gate keeps the count at 4 after pruning two
        prune(c)
        assert c.gate_count == 2
        assert plan_fields(c) == per_gate_plan(c)
        assert (plan_fields(c)["free_counts"], plan_fields(c)["frees"]) == ([2, 2], [0, 1, 3, 5])


class TestDepthCache:
    def test_one_scan_per_explicit_build(self, tmp_path, monkeypatch):
        scanned = []
        scan = mr.MonotoneCircuit._depth_scan

        def counting_scan(self):
            scanned.append(self)
            return scan(self)

        monkeypatch.setattr(mr.MonotoneCircuit, "_depth_scan", counting_scan)
        assert cli.main(["build", "--mode", "explicit", "--n", "16", "--out", str(tmp_path / "c.mc")]) == 0
        # The inner squaring circuit and the composed circuit, once each.
        assert len(scanned) == len({id(c) for c in scanned}) == 2
        assert max(c.gate_count for c in scanned) == predict_gate_count("explicit", 16)

    def test_add_gate_and_prune_invalidate(self):
        c = mr.MonotoneCircuit(2)
        c.add_gate(AND, 0, 1)  # read by nothing
        g = c.add_gate(OR, 0, 1)
        h = c.add_gate(AND, g, 2)
        c.set_outputs([h])
        assert c.depth() == 2
        assert c._gate_depths().dtype == np.int32
        c.set_outputs([c.add_gate(OR, h, 3)])
        assert c.depth() == 3
        assert c.wire_depths().tolist() == [0] * 5 + [1, 1, 2, 3]
        prune(c)
        c.add_gate(AND, 0, 0)  # four gates again, so only prune's reset shows this one
        assert c.wire_depths().tolist() == [0] * 5 + [1, 2, 3, 1]


def per_gate_depths(c):
    """Every wire's depth by one pass over the gates."""
    depth = [0] * (c.num_inputs + 1)
    for a, b in zip(c._lefts, c._rights):
        depth.append(max(depth[a], depth[b]) + 1)
    return depth


class TestBands:
    """Depth scans, live-gate walks and plans run a band of SCAN_BAND gates
    at a time.  Bands of a few gates put band edges everywhere in small
    circuits."""

    @pytest.mark.parametrize("band", [1, 2, 3, 7])
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_match_per_gate_loops(self, band, data):
        c = data.draw(st.sampled_from([random_circuit, sop_circuit]))(data)
        with patch.object(circuit_module, "SCAN_BAND", band):
            assert c.wire_depths().tolist() == per_gate_depths(c)
            root, joins = c._folds()
            assert (root.tolist(), joins.tolist()) == per_gate_folds(c)
            assert plan_fields(c) == per_gate_plan(c)
            assert c.live_peak() == replayed_peak(c)
            assert c.live_gates().tolist() == per_gate_live(c)
            masks = [data.draw(st.integers(0, 2**70 - 1)) for _ in range(c.num_inputs)]
            assert c.evaluate_batch(masks) == file_order_eval(c, masks)

    def test_builds_match_per_gate_loops(self):
        # At the default band size: explicit n=16 in one band, theorem 16/12 in two.
        for c in (mr.build_explicit(16)[0], build_recursive(16, 12, 0)[0]):
            root, joins = c._folds()
            assert (root.tolist(), joins.tolist()) == per_gate_folds(c)
            assert plan_fields(c) == per_gate_plan(c)

    def test_a_build_in_many_bands(self):
        def facts(c, ledger):
            root, joins = c._folds()
            return (c.wire_depths().tolist(), root.tolist(), joins.tolist(), plan_fields(c), c.live_peak(),
                    c.live_gates().tolist(), [(s.label, s.measured) for s in ledger.stages])

        whole = facts(*mr.build_explicit(16))
        with patch.object(circuit_module, "SCAN_BAND", 1000):
            assert facts(*mr.build_explicit(16)) == whole


def per_gate_live(c):
    """Which gates some output reads, by one backward pass per gate."""
    n0 = c.num_inputs + 1
    live = [False] * c.gate_count
    for o in c.outputs:
        if o >= n0:
            live[o - n0] = True
    for g in range(c.gate_count - 1, -1, -1):
        if live[g]:
            for w in gate_of(c, g)[1:]:
                if w >= n0:
                    live[w - n0] = True
    return live


class TestPrune:
    def test_drops_dead_gates_and_renumbers(self):
        c = mr.MonotoneCircuit(2)  # inputs 0..3, zero wire 4
        c.add_gate(AND, 0, 1)  # wire 5, read by nothing
        g = c.add_gate(OR, 0, 1)  # wire 6
        c.add_gate(AND, 5, 6)  # wire 7, read by nothing
        out = c.add_gate(AND, g, 3)  # wire 8
        c.set_outputs([out])
        assert c.live_gates().tolist() == [False, True, False, True]
        prune(c)
        assert [gate_of(c, i) for i in range(c.gate_count)] == [(OR, 0, 1), (AND, 5, 3)]
        assert c.outputs == [6]

    def test_outputs_on_inputs_keep_no_gate(self):
        c = mr.MonotoneCircuit(2)
        c.add_gate(AND, 0, 1)
        c.set_outputs([input_wire(c, 1, 2), c.zero])
        prune(c)
        assert c.gate_count == 0
        assert c.outputs == [1, 4]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_keeps_outputs_and_depth(self, data):
        c = mr.MonotoneCircuit(data.draw(st.integers(1, 3)))
        for _ in range(data.draw(st.integers(0, 40))):
            op = data.draw(st.sampled_from([AND, OR]))
            c.add_gate(op, data.draw(st.integers(0, c.num_wires - 1)), data.draw(st.integers(0, c.num_wires - 1)))
        c.set_outputs(data.draw(st.lists(st.integers(0, c.num_wires - 1), min_size=1, max_size=3)))
        masks = [data.draw(st.integers(0, 2**64 - 1)) for _ in range(c.num_inputs)]
        live = per_gate_live(c)
        assert c.live_gates().tolist() == live
        before = (c.evaluate_batch(masks), c.depth())
        prune(c)
        assert c.gate_count == sum(live)
        assert well_formed(c) is None
        assert (c.evaluate_batch(masks), c.depth()) == before
        assert c.live_gates().all()


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_monotonicity(self, g_bits, h_bits):
        c = mr.build_reach(4)
        g = AdjacencyMatrix(4, [(g_bits >> (4 * i)) & 15 for i in range(4)])
        ug = AdjacencyMatrix(4, [((g_bits | h_bits) >> (4 * i)) & 15 for i in range(4)])
        assert evaluate(c, g) <= evaluate(c, ug)

    def test_depth_additivity(self):
        c = mr.MonotoneCircuit(4)
        a = inputs(c)
        p1 = product(c, a, a)
        c.set_outputs([int(p1[0, 3])])
        d1 = c.depth()
        p2 = product(c, p1, p1)
        c.set_outputs([int(p2[0, 3])])
        assert c.depth() == d1 + 3
        out = mr.or_tree(c, p2[:, 3])
        c.set_outputs([out])
        assert c.depth() == d1 + 3 + 2

    def test_construction_determinism(self):
        a = mr.build_reach_leq(6, 5)
        b = mr.build_reach_leq(6, 5)
        assert bytes(a._ops) == bytes(b._ops)
        assert a._lefts.tobytes() == b._lefts.tobytes()
        assert a._rights.tobytes() == b._rights.tobytes()
        assert a.outputs == b.outputs


class TestTextFormat:
    def test_round_trip(self):
        c = mr.build_reach_leq(3, 2)
        text = circuit_to_text(c)
        back = mr.circuit_from_text(text)
        assert circuit_to_text(back) == text
        assert back.depth() == c.depth()
        assert back.gate_count == c.gate_count

    def test_header_and_layout(self):
        c = mr.MonotoneCircuit(2)
        c.set_outputs([c.add_gate(OR, 0, 3)])
        text = circuit_to_text(c)
        assert text == "MCIRC 1 2\nG OR 0 3\nOUT 5\n"

    def test_bad_inputs_rejected(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.circuit_from_text("MCIRC 2 4\nOUT 0\n")
        with pytest.raises(mr.InvalidParameterError):
            mr.circuit_from_text("MCIRC 1 2\nG NAND 0 1\nOUT 4\n")
        with pytest.raises(mr.InvalidParameterError):
            mr.circuit_from_text("MCIRC 1 2\nG OR 0 1\n")

    def test_file_round_trip(self, tmp_path):
        c = mr.build_reach_exact(4, 5)
        path = tmp_path / "c.mc"
        mr.write_circuit(c, path)
        back = mr.read_circuit(path)
        assert back.gate_count == c.gate_count
        assert back.depth() == c.depth()
        g = matrix_of(4, (1, 2), (2, 3), (3, 4), (4, 1))
        assert evaluate(back, g) == evaluate(c, g)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_circuit_round_trip(self, data):
        n = data.draw(st.integers(1, 4))
        c = mr.MonotoneCircuit(n)
        for _ in range(data.draw(st.integers(0, 30))):
            op = data.draw(st.sampled_from([AND, OR]))
            a = data.draw(st.integers(0, c.num_wires - 1))
            b = data.draw(st.integers(0, c.num_wires - 1))
            c.add_gate(op, a, b)
        out_count = data.draw(st.integers(1, 3))
        c.set_outputs(data.draw(st.lists(
            st.integers(0, c.num_wires - 1), min_size=out_count, max_size=out_count)))
        text = circuit_to_text(c)
        back = mr.circuit_from_text(text)
        assert circuit_to_text(back) == text
        assert back.depth() == c.depth()
        g = AdjacencyMatrix(n, [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n)])
        assert back.evaluate_all(g) == c.evaluate_all(g)
