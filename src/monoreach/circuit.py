"""Monotone fan-in-2 circuit IR: construction, evaluation, depth, serialization.

Wire numbering is fixed by the on-disk format and never changes:

* wires ``0 .. n*n-1`` are the edge-variable inputs ``g[i][j]`` in row-major
  order with 1-based vertices (wire ``(i-1)*n + (j-1)``),
* wire ``n*n`` is the constant-zero wire,
* every gate appends one new wire.

There is deliberately no constant-one wire, so every circuit built here maps
the all-zero input to 0 by structure alone.  Gates are append-only and may
only reference earlier wires, which makes the gate list a topological order.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidReferenceError

AND = 0
OR = 1

# Gate blocks are emitted in bands of this many matrix entries so that
# bit-parallel evaluation only ever holds a band of transient values live.
EMIT_BAND = 256


@contextmanager
def _gc_paused():
    # The evaluation loop allocates millions of short-lived ints; cyclic GC
    # passes over the value table dominate runtime if left on.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


_OP_NAMES = {AND: "AND", OR: "OR"}
_OP_CODES = {"AND": AND, "OR": OR}


@dataclass
class Violation:
    gate_index: int | None
    reason: str


class MonotoneCircuit:
    """Append-only DAG of AND/OR gates over n*n edge variables plus a zero wire."""

    def __init__(self, num_vertices: int):
        if num_vertices < 1:
            raise InvalidParameterError("num_vertices must be >= 1")
        self.num_vertices = num_vertices
        self.num_inputs = num_vertices * num_vertices
        self.zero = self.num_inputs
        self._ops = bytearray()
        self._lefts = array("i")
        self._rights = array("i")
        self.outputs: list[int] = []
        self._last_use_cache: tuple[int, list[int]] | None = None

    # -- structure ----------------------------------------------------------

    @property
    def gate_count(self) -> int:
        return len(self._ops)

    @property
    def num_wires(self) -> int:
        return self.num_inputs + 1 + len(self._ops)

    def input_wire(self, i: int, j: int) -> int:
        """Wire id of the edge variable for i -> j (1-based vertices)."""
        n = self.num_vertices
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidParameterError(f"vertex pair ({i},{j}) out of range 1..{n}")
        return (i - 1) * n + (j - 1)

    def gate(self, index: int) -> tuple[int, int, int]:
        return (self._ops[index], self._lefts[index], self._rights[index])

    def add_gate(self, op: int, a: int, b: int) -> int:
        if op not in (AND, OR):
            raise InvalidParameterError(f"unknown gate op {op!r}")
        w = self.num_wires
        if not (0 <= a < w and 0 <= b < w):
            raise InvalidReferenceError(f"gate references missing wire ({a}, {b})")
        self._ops.append(op)
        self._lefts.append(a)
        self._rights.append(b)
        return w

    def set_outputs(self, wires) -> None:
        wires = list(wires)
        w = self.num_wires
        for o in wires:
            if not 0 <= o < w:
                raise InvalidReferenceError(f"output references missing wire {o}")
        self.outputs = wires

    def _emit_bulk(self, op: int, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Append many gates of one op; operands must all be existing wires."""
        base = self.num_wires
        count = lefts.size
        if count == 0:
            return np.empty(0, dtype=np.int64)
        lo = int(min(lefts.min(), rights.min()))
        hi = int(max(lefts.max(), rights.max()))
        if lo < 0 or hi >= base:
            raise InvalidReferenceError("bulk gate block references a missing wire")
        self._ops.extend(bytes([op]) * count)
        self._lefts.frombytes(np.ascontiguousarray(lefts, dtype=np.intc).tobytes())
        self._rights.frombytes(np.ascontiguousarray(rights, dtype=np.intc).tobytes())
        return np.arange(base, base + count, dtype=np.int64)

    def or_reduce_columns(self, cols: np.ndarray) -> np.ndarray:
        """Balanced OR over each row of a (rows, k) wire-id array.

        Pairwise reduction rounds, ties broken left to right; the odd
        straggler carries into the next round.  Adds exactly ceil(log2 k)
        levels above equal-depth columns.
        """
        cols = np.asarray(cols, dtype=np.int64)
        if cols.ndim != 2 or cols.shape[1] == 0:
            raise InvalidParameterError("or_reduce_columns needs a non-empty 2d block")
        while cols.shape[1] > 1:
            k = cols.shape[1]
            pairs = k // 2
            ids = self._emit_bulk(OR, cols[:, 0 : 2 * pairs : 2].ravel(), cols[:, 1 : 2 * pairs : 2].ravel())
            ids = ids.reshape(cols.shape[0], pairs)
            if k % 2:
                cols = np.concatenate([ids, cols[:, -1:]], axis=1)
            else:
                cols = ids
        return cols[:, 0]

    # -- analysis -----------------------------------------------------------

    def validate(self) -> Violation | None:
        """First structural violation, or None for a well-formed circuit."""
        n0 = self.num_inputs + 1
        ng = len(self._ops)
        if ng:
            ops = np.frombuffer(self._ops, dtype=np.uint8)
            bad = np.nonzero(ops > 1)[0]
            if bad.size:
                g = int(bad[0])
                return Violation(g, f"gate {g} has non-monotone op code {self._ops[g]}")
            lefts = np.frombuffer(self._lefts, dtype=np.intc)
            rights = np.frombuffer(self._rights, dtype=np.intc)
            limit = np.arange(n0, n0 + ng)
            bad = np.nonzero((lefts < 0) | (lefts >= limit) | (rights < 0) | (rights >= limit))[0]
            if bad.size:
                g = int(bad[0])
                return Violation(g, f"gate {g} references wire >= its own id (forward or dangling)")
        if not self.outputs:
            return Violation(None, "circuit has no outputs")
        for o in self.outputs:
            if not 0 <= o < self.num_wires:
                return Violation(None, f"output references missing wire {o}")
        return None

    def wire_depths(self) -> np.ndarray:
        """Gate-count depth of every wire (inputs and the zero wire are 0)."""
        n0 = self.num_inputs + 1
        ng = len(self._ops)
        depth = np.zeros(n0 + ng, dtype=np.int64)
        if ng == 0:
            return depth
        lefts = np.frombuffer(self._lefts, dtype=np.intc).astype(np.int64)
        rights = np.frombuffer(self._rights, dtype=np.intc).astype(np.int64)
        if ng < 20000:
            dl = depth.tolist()
            ll = lefts.tolist()
            rl = rights.tolist()
            for i in range(ng):
                a = dl[ll[i]]
                b = dl[rl[i]]
                dl[n0 + i] = (a if a > b else b) + 1
            return np.asarray(dl, dtype=np.int64)
        # Chunked scan: a run of gates that only reads wires created before
        # the run relaxes in one vectorized step.  Run ends are found by a
        # galloping probe so total scan work stays linear in the gate count.
        mo = np.maximum(lefts, rights)
        start = 0
        while start < ng:
            bound = n0 + start
            span = 512
            while True:
                limit = min(ng, start + span)
                conflict = mo[start:limit] >= bound
                if conflict.any():
                    end = start + int(conflict.argmax())
                    break
                if limit == ng:
                    end = ng
                    break
                span *= 2
            if end == start:
                raise InvalidReferenceError(f"gate {start} references a later wire")
            seg = slice(start, end)
            depth[n0 + start : n0 + end] = np.maximum(depth[lefts[seg]], depth[rights[seg]]) + 1
            start = end
        return depth

    def depth(self) -> int:
        """Length in gates of the longest path from any input to any output."""
        if not self.outputs:
            return 0
        depths = self.wire_depths()
        return int(max(depths[o] for o in self.outputs))

    # -- evaluation ---------------------------------------------------------

    def _last_use(self) -> list[int]:
        ng = len(self._ops)
        cached = self._last_use_cache
        if cached is not None and cached[0] == ng:
            return cached[1]
        lu = [-1] * self.num_wires
        for i, (a, b) in enumerate(zip(self._lefts, self._rights)):
            lu[a] = i
            lu[b] = i
        for o in self.outputs:
            lu[o] = ng
        self._last_use_cache = (ng, lu)
        return lu

    def evaluate_batch(self, input_masks) -> list[int]:
        """Evaluate on many assignments at once, bit-parallel over Python ints.

        ``input_masks[e]`` packs one bit per assignment for input wire e.
        Returns one packed mask per output.  Intermediate values are freed
        at their last use, so memory stays near two live wire layers.
        """
        if len(input_masks) != self.num_inputs:
            raise InvalidParameterError(f"expected {self.num_inputs} input masks, got {len(input_masks)}")
        if not self.outputs:
            raise InvalidParameterError("circuit has no outputs")
        lu = self._last_use()
        vals: list = [None] * self.num_wires
        vals[: self.num_inputs] = [int(m) for m in input_masks]
        vals[self.zero] = 0
        n0 = self.num_inputs + 1
        with _gc_paused():
            for i, (op, a, b) in enumerate(zip(self._ops, self._lefts, self._rights)):
                x = vals[a]
                y = vals[b]
                vals[n0 + i] = (x & y) if op == AND else (x | y)
                if lu[a] == i:
                    vals[a] = None
                if lu[b] == i:
                    vals[b] = None
        return [vals[o] for o in self.outputs]

    def evaluate_all(self, matrix: "AdjacencyMatrix") -> tuple[int, ...]:
        """Output bit vector under the assignment g[i][j] := matrix(i, j)."""
        if matrix.n != self.num_vertices:
            raise InvalidParameterError(
                f"matrix is {matrix.n}x{matrix.n} but circuit has {self.num_vertices} vertices"
            )
        return tuple(self.evaluate_batch(matrix.input_bits()))

    def evaluate(self, matrix: "AdjacencyMatrix") -> int:
        """Single-output evaluation; use evaluate_all for multi-output circuits."""
        if len(self.outputs) != 1:
            raise InvalidParameterError("evaluate requires exactly one output")
        return self.evaluate_all(matrix)[0]


def new_circuit(num_vertices: int) -> MonotoneCircuit:
    return MonotoneCircuit(num_vertices)


def or_tree(circuit: MonotoneCircuit, wires) -> int:
    """OR of all given wires as a balanced pairwise tree.

    The one-row case of ``or_reduce_columns``: adds exactly ceil(log2 k)
    depth above equal-depth inputs; a singleton is returned unchanged.
    """
    return int(circuit.or_reduce_columns(np.array([list(wires)], dtype=np.int64))[0])


@dataclass
class WireMatrix:
    """An n x n matrix of wires of one circuit (a boolean matrix in flight)."""

    circuit: MonotoneCircuit
    entries: np.ndarray  # (n, n) int64 wire ids

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def entry(self, i: int, j: int) -> int:
        return int(self.entries[i - 1, j - 1])


def input_matrix(circuit: MonotoneCircuit) -> WireMatrix:
    n = circuit.num_vertices
    ids = np.arange(n * n, dtype=np.int64).reshape(n, n)
    return WireMatrix(circuit, ids)


def _banded_product(circuit: MonotoneCircuit, a: np.ndarray, b: np.ndarray, and_leaves: np.ndarray) -> np.ndarray:
    """Banded AND-then-OR emission: out[i][j] = OR_k leaf(i, j, k).

    leaf(i, j, k) is a new gate a[i][k] AND b[k][j] where and_leaves[j][k]
    holds, and the wire a[i][k] itself otherwise.  Per band of entries the
    AND gates are emitted in (entry, k) order, then each entry's leaves go
    through one balanced OR, so emission order is fixed by the operands.
    """
    n = a.shape[0]
    n2 = n * n
    lefts_full = np.repeat(a, n, axis=0)  # [e=(i,j), k] = a[i,k]
    rights_full = np.tile(b.T, (n, 1))  # [e=(i,j), k] = b[k,j]
    ands_full = np.tile(and_leaves, (n, 1))
    out = np.empty(n2, dtype=np.int64)
    for lo in range(0, n2, EMIT_BAND):
        hi = min(lo + EMIT_BAND, n2)
        leaves = lefts_full[lo:hi].copy()
        ands = ands_full[lo:hi]
        leaves[ands] = circuit._emit_bulk(AND, leaves[ands], rights_full[lo:hi][ands])
        out[lo:hi] = circuit.or_reduce_columns(leaves)
    return out.reshape(n, n)


def bool_matrix_product(circuit: MonotoneCircuit, a: WireMatrix, b: WireMatrix) -> WireMatrix:
    """Boolean matrix product: out[i][j] = OR_k (a[i][k] AND b[k][j]).

    Adds exactly 1 + ceil(log2 n) depth above equal-depth operands.
    """
    if a.circuit is not circuit or b.circuit is not circuit:
        raise InvalidParameterError("operand matrices must belong to the target circuit")
    n = a.n
    if b.n != n:
        raise InvalidParameterError(f"dimension mismatch: {n} vs {b.n}")
    return WireMatrix(circuit, _banded_product(circuit, a.entries, b.entries, np.ones((n, n), dtype=bool)))


class AdjacencyMatrix:
    """n x n bit matrix; vertices are 1..n and entry (i, j) means edge i -> j.

    Rows are stored as bitmask integers (bit j-1 of row i-1).
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows=None):
        if n < 1:
            raise InvalidParameterError("n must be >= 1")
        self.n = n
        if rows is None:
            self.rows = [0] * n
        else:
            rows = [int(r) for r in rows]
            if len(rows) != n:
                raise InvalidParameterError(f"expected {n} rows, got {len(rows)}")
            full = (1 << n) - 1
            for r in rows:
                if r < 0 or r > full:
                    raise InvalidParameterError("row mask out of range")
            self.rows = rows

    @classmethod
    def from_edges(cls, n: int, edges) -> "AdjacencyMatrix":
        m = cls(n)
        for i, j in edges:
            m.set_edge(i, j)
        return m

    def set_edge(self, i: int, j: int) -> None:
        self._check(i, j)
        self.rows[i - 1] |= 1 << (j - 1)

    def entry(self, i: int, j: int) -> int:
        self._check(i, j)
        return (self.rows[i - 1] >> (j - 1)) & 1

    def _check(self, i: int, j: int) -> None:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise InvalidParameterError(f"vertex pair ({i},{j}) out of range 1..{self.n}")

    def input_bits(self) -> list[int]:
        """Row-major bit list matching the circuit input wire order."""
        out = []
        for r in self.rows:
            out.extend((r >> j) & 1 for j in range(self.n))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, AdjacencyMatrix) and self.n == other.n and self.rows == other.rows

    def __repr__(self) -> str:
        return f"AdjacencyMatrix({self.n}, {self.rows})"


# -- circuit text format ------------------------------------------------------
#
# Line 1: "MCIRC 1 <n>".  Wires 0..n*n-1 are the inputs in row-major 1-based
# (i, j) order, wire n*n is the zero wire.  Each "G <AND|OR> <a> <b>" line
# defines the next wire.  Final line: "OUT <w1> [<w2> ...]".


def circuit_to_lines(circuit: MonotoneCircuit):
    yield f"MCIRC 1 {circuit.num_vertices}"
    for op, a, b in zip(circuit._ops, circuit._lefts, circuit._rights):
        yield f"G {_OP_NAMES[op]} {a} {b}"
    yield "OUT " + " ".join(str(o) for o in circuit.outputs)


def circuit_to_text(circuit: MonotoneCircuit) -> str:
    return "\n".join(circuit_to_lines(circuit)) + "\n"


def write_circuit(circuit: MonotoneCircuit, path) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in circuit_to_lines(circuit):
            fh.write(line)
            fh.write("\n")


def circuit_from_text(text: str) -> MonotoneCircuit:
    lines = text.splitlines()
    if not lines:
        raise InvalidParameterError("empty circuit file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "MCIRC" or head[1] != "1":
        raise InvalidParameterError(f"bad circuit header: {lines[0]!r}")
    circuit = MonotoneCircuit(int(head[2]))
    outputs = None
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            raise InvalidParameterError(f"line {ln}: blank line in circuit file")
        if parts[0] == "G":
            if outputs is not None:
                raise InvalidParameterError(f"line {ln}: gate after OUT line")
            if len(parts) != 4 or parts[1] not in _OP_CODES:
                raise InvalidParameterError(f"line {ln}: bad gate line {line!r}")
            circuit.add_gate(_OP_CODES[parts[1]], int(parts[2]), int(parts[3]))
        elif parts[0] == "OUT":
            if outputs is not None:
                raise InvalidParameterError(f"line {ln}: duplicate OUT line")
            outputs = [int(t) for t in parts[1:]]
        else:
            raise InvalidParameterError(f"line {ln}: unknown record {parts[0]!r}")
    if outputs is None:
        raise InvalidParameterError("circuit file has no OUT line")
    circuit.set_outputs(outputs)
    bad = circuit.validate()
    if bad is not None:
        raise InvalidParameterError(f"circuit file is not well-formed: {bad.reason}")
    return circuit


def read_circuit(path) -> MonotoneCircuit:
    with open(path, "r") as fh:
        return circuit_from_text(fh.read())
