"""Monotone fan-in-2 circuit IR: construction, evaluation, depth, serialization.

Wire numbering is fixed by the on-disk format and never changes:

* wires ``0 .. n*n-1`` are the edge-variable inputs ``g[i][j]`` in row-major
  order with 1-based vertices (wire ``(i-1)*n + (j-1)``),
* wire ``n*n`` is the constant-zero wire,
* every gate appends one new wire.

There is deliberately no constant-one wire, so every circuit built here maps
the all-zero input to 0 by structure alone.  Gates are append-only and may
only reference earlier wires, which makes the gate list a topological order.
Every gate enters through ``MonotoneCircuit.append_gates``, which checks that
rule and the op codes, so every circuit is valid by construction.
"""

from __future__ import annotations

import gc
import io
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice
from operator import and_, or_
from typing import BinaryIO

import numpy as np

from .errors import InvalidParameterError, InvalidReferenceError
from .exactmath import parse_int

AND = 0
OR = 1

# Gate blocks are emitted in bands of this many matrix entries: a band's AND
# leaves, then its OR trees.  Evaluation runs gates in its own plan order
# (`_plan`), so the band size does not bound how many values are live;
# it only fixes the gate order, and so the MCIRC bytes the golden digests pin.
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


_OP_CODES = {"AND": AND, "OR": OR}


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
        # Both caches are keyed by the gate count they were made at, since
        # gates are only appended; set_outputs() also resets the plan.
        self._depths_cache: tuple[int, np.ndarray] | None = None
        self._plan_cache: tuple[int, _Plan] | None = None

    # -- structure ----------------------------------------------------------

    @property
    def gate_count(self) -> int:
        return len(self._ops)

    @property
    def num_wires(self) -> int:
        return self.num_inputs + 1 + len(self._ops)

    def gates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (ops, lefts, rights) views of the gate table: gate g
        applies ops[g] to wires lefts[g] and rights[g].  The circuit cannot
        grow while a view of it is alive."""
        views = (
            np.frombuffer(self._ops, dtype=np.uint8),
            np.frombuffer(self._lefts, dtype=np.intc),
            np.frombuffer(self._rights, dtype=np.intc),
        )
        for view in views:
            view.flags.writeable = False
        return views

    def add_gate(self, op: int, a: int, b: int) -> int:
        """Append one gate op of wires a and b; returns its wire id.  The
        checks and refusals of append_gates, on plain ints."""
        base = self.num_wires
        if base + 1 > MAX_WIRES:
            raise InvalidParameterError(f"a circuit has at most {MAX_WIRES} wires")
        if op != AND and op != OR:
            raise InvalidParameterError(f"unknown gate op {op}")
        if min(a, b) < 0 or max(a, b) >= base:
            raise InvalidReferenceError(f"gate references missing wire ({a}, {b})")
        self._ops.append(op)
        self._lefts.append(a)
        self._rights.append(b)
        return base

    def append_gates(self, ops, lefts, rights) -> int:
        """Append gates g = 0, 1, ..., each ops[g] of wires lefts[g] and
        rights[g]; returns the wire id of the first.

        The one way gates enter a circuit.  Each op must be AND or OR and
        each operand an existing wire below the gate's own id, so the gate
        list stays a topological order of monotone gates, and every wire id
        fits int32.  A block with a fault appends nothing and names its
        first faulty gate.
        """
        ops, lefts, rights = np.asarray(ops), np.asarray(lefts), np.asarray(rights)
        base = self.num_wires
        if base + ops.size > MAX_WIRES:
            raise InvalidParameterError(f"a circuit has at most {MAX_WIRES} wires")
        bad = (ops != AND) & (ops != OR)
        if np.count_nonzero(bad):
            raise InvalidParameterError(f"unknown gate op {ops[bad.argmax()]}")
        bad = (np.minimum(lefts, rights) < 0) | (np.maximum(lefts, rights) >= np.arange(base, base + ops.size))
        if np.count_nonzero(bad):
            g = bad.argmax()
            raise InvalidReferenceError(f"gate references missing wire ({lefts[g]}, {rights[g]})")
        self._ops += ops.astype(np.uint8).tobytes()
        for table, wires in ((self._lefts, lefts), (self._rights, rights)):
            table.frombytes(memoryview(np.ascontiguousarray(wires, dtype=np.intc)).cast("B"))
        return base

    def set_outputs(self, wires) -> None:
        wires = list(wires)
        w = self.num_wires
        for o in wires:
            if not 0 <= o < w:
                raise InvalidReferenceError(f"output references missing wire {o}")
        self.outputs = wires
        self._plan_cache = None

    def _emit_bulk(self, op: int, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Append many gates of one op; returns their wire ids."""
        base = self.append_gates(np.full(lefts.size, op, dtype=np.uint8), lefts, rights)
        return np.arange(base, base + lefts.size, dtype=np.int64)

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

    def _gate_depths(self) -> np.ndarray:
        """Gate-count depth of every gate's wire, indexed by gate, as a
        read-only int32 array scanned once per gate count."""
        ng = len(self._ops)
        cached = self._depths_cache
        if cached is None or cached[0] != ng:
            depths = self._depth_scan()
            depths.flags.writeable = False
            cached = self._depths_cache = (ng, depths)
        return cached[1]

    def _depth_scan(self) -> np.ndarray:
        n0 = self.num_inputs + 1
        ng = len(self._ops)
        # Slot 0 holds depth 0 for every input and the zero wire, and slot
        # g + 1 holds gate g, so nothing is allocated per input wire.
        depth = np.zeros(ng + 1, dtype=np.int32)
        _, lefts, rights = self.gates()
        # Chunked scan: a run of gates that only reads wires created before
        # the run relaxes in one vectorized step.  Run ends are found by a
        # galloping probe so total scan work stays linear in the gate count.
        # Slot ids are made once per band, as intp, which indexes without a
        # cast; a run ends with its band.
        for lo, hi in _bands(ng):
            left = np.maximum(lefts[lo:hi] - (n0 - 1), 0).astype(np.intp)
            right = np.maximum(rights[lo:hi] - (n0 - 1), 0).astype(np.intp)
            mo = np.maximum(left, right)
            size = hi - lo
            start = 0
            while start < size:
                bound = lo + start + 1
                span = 512
                while True:
                    limit = min(size, start + span)
                    conflict = mo[start:limit] >= bound
                    if conflict.any():
                        end = start + int(conflict.argmax())
                        break
                    if limit == size:
                        end = size
                        break
                    span *= 2
                if end == start:
                    raise InvalidReferenceError(f"gate {lo + start} references a later wire")
                seg = slice(start, end)
                depth[lo + start + 1 : lo + end + 1] = np.maximum(depth[left[seg]], depth[right[seg]]) + 1
                start = end
        return depth[1:]

    def wire_depths(self) -> np.ndarray:
        """Gate-count depth of every wire (inputs and the zero wire are 0)."""
        return np.concatenate((np.zeros(self.num_inputs + 1, dtype=np.int32), self._gate_depths()))

    def depth(self, wires=None) -> int:
        """Length in gates of the longest path from any input to any of the
        wires, the outputs by default."""
        gates = np.asarray(self.outputs if wires is None else wires, dtype=np.int64) - (self.num_inputs + 1)
        return int(self._gate_depths()[gates[gates >= 0]].max(initial=0))

    def live_gates(self) -> np.ndarray:
        """Per gate, whether some output reads it, directly or through
        other gates.

        Every reader of a gate comes after it, so the bands are walked from
        the last.  Once the later bands are done, the gates of a band that
        they or the outputs read are marked, and a walk back from those, one
        frontier at a time, marks the band's other live gates and the gates
        of earlier bands they read.  Ids are int32, and every temporary holds
        one band.
        """
        n0 = self.num_inputs + 1
        ng = len(self._ops)
        live = np.zeros(ng, dtype=bool)
        live[[o - n0 for o in self.outputs if o >= n0]] = True
        _, lefts, rights = self.gates()
        for lo, hi in reversed(_bands(ng)):
            # Deduplicates a frontier without sorting: of equal gates only
            # the one whose position ends up in `stamp` survives.
            stamp = np.empty(hi - lo, dtype=np.int32)
            frontier = _nonzero(live[lo:hi]) + lo
            while frontier.size:
                reads = np.concatenate((lefts[frontier], rights[frontier])) - n0
                reads = reads[reads >= 0]
                reads = reads[~live[reads]]
                live[reads] = True
                reads = reads[reads >= lo] - lo
                at = np.arange(reads.size, dtype=np.int32)
                stamp[reads] = at
                frontier = reads[stamp[reads] == at] + lo
        return live

    def zero_wire_operands(self) -> int:
        """Number of gates with the zero wire as an operand."""
        _, lefts, rights = self.gates()
        return int(np.count_nonzero((lefts == self.zero) | (rights == self.zero)))

    # -- evaluation ---------------------------------------------------------

    def _folds(self) -> tuple[np.ndarray, np.ndarray]:
        """(root, joins) of every gate: an int32 and a bool array.

        A gate joins its reader's fold when exactly one gate reads it, that
        reader is an OR gate, and the gate is not an output.  root is the
        gate whose fold each gate is in, itself for a gate that joins no
        fold.  joins has a spare last entry, False, for reads of an input or
        the zero wire.
        """
        n0 = self.num_inputs + 1
        ops, lefts, rights = self.gates()
        ng = len(self._ops)
        # root first holds the last gate that reads each gate, or -1, and
        # -2 for an output.  parent then gets the first, from the top down:
        # every reader of a gate comes after it, so once a band's reads are
        # seen, its own gates are complete.  A gate whose first and last
        # readers are one OR gate has it as parent.  A read of an input or
        # the zero wire goes to a spare last entry.
        root = np.full(ng + 1, -1, dtype=np.int32)
        for lo, hi in _bands(ng):
            gates = np.arange(lo, hi, dtype=np.int32)
            for wires in (lefts, rights):
                np.maximum.at(root, np.maximum(wires[lo:hi] - n0, -1), gates)
        root[[o - n0 for o in self.outputs if o >= n0]] = -2
        parent = np.full(ng + 1, ng, dtype=np.int32)
        for lo, hi in reversed(_bands(ng)):
            gates = np.arange(lo, hi, dtype=np.int32)
            for wires in (lefts, rights):
                np.minimum.at(parent, np.maximum(wires[lo:hi] - n0, -1), gates)
            up = parent[lo:hi]
            up[(up != root[lo:hi]) | (ops.take(up, mode="clip") != OR)] = -1
            # Pointer jumping: a gate points at a root of a later band or at
            # a gate of its own, and each pass doubles how far it looks up
            # its fold.
            up = np.where(up >= 0, up, gates)
            while True:
                root[lo:hi] = up
                jumped = root[up]
                if np.array_equal(jumped, up):
                    break
                up = jumped
        joins = parent >= 0
        joins[ng] = False
        return root[:ng], joins

    def _plan(self) -> _Plan:
        """The steps evaluate_batch runs, cached per gate count.

        Each gate that joins no fold (see ``_folds``) is one step, in file
        order.  The step stores the OR of its fold's leaves: its AND gates,
        each the AND of two values, and the operands of its OR gates that
        join no fold.  An operand joins a fold only through the OR gate that
        reads it, so every value a step reads was stored by an earlier step:
        the order is topological.  Values are numbered by step: the inputs
        and the zero wire keep their ids, and step t stores value n0 + t.

        Arrays with one entry per gate are int32 or smaller, and every
        temporary holds one band of gates (``SCAN_BAND``).
        """
        ng = len(self._ops)
        cached = self._plan_cache
        if cached is not None and cached[0] == ng:
            return cached[1]
        n0 = self.num_inputs + 1
        ops, lefts, rights = self.gates()
        root, joins = self._folds()
        num_steps = ng - int(np.count_nonzero(joins))

        def leaves(lo, hi):
            """Which gates of a band are AND, the step of each AND gate, and
            the step and wire of each operand of its OR gates that joins no
            fold, in file order, left before right."""
            step = root[lo:hi]
            is_and = ops[lo:hi] == AND
            ors = ~is_and
            operands = np.stack((lefts[lo:hi][ors], rights[lo:hi][ors]), axis=1).ravel()
            plain = ~joins[np.maximum(operands - n0, -1)]
            return is_and, step[is_and], np.repeat(step[ors], 2)[plain], operands[plain]

        def values(wires):
            return np.where(wires < n0, wires, n0 + root[np.maximum(wires - n0, 0)])

        # The steps are numbered down the bands, from the last: each band's
        # own steps first, then its joined gates take their root's step,
        # which is in this band or a later one.  root[g] becomes the step of
        # gate g, and each step's leaves are counted.
        plan_and_counts, and_counts = _int_buffer(num_steps)
        plan_plain_counts, plain_counts = _int_buffer(num_steps)
        first = num_steps
        for lo, hi in reversed(_bands(ng)):
            step, inside = root[lo:hi], joins[lo:hi]
            own = np.flatnonzero(~inside)
            first -= own.size
            step[own] = np.arange(first, first + own.size, dtype=np.int32)
            step[inside] = root[step[inside]]
            _, ands, plains, _ = leaves(lo, hi)
            _count(and_counts, ands)
            _count(plain_counts, plains)
        outputs = [o if o < n0 else n0 + int(root[o - n0]) for o in self.outputs]

        # Each step's leaves, in file order, claimed by a stable counting
        # sort a band at a time.  last_use[v] is the last step that reads
        # value v, or num_steps for an output or a value nothing reads:
        # never freed.
        plan_and_lefts, and_lefts = _int_buffer(int(and_counts.sum()))
        plan_and_rights, and_rights = _int_buffer(and_lefts.size)
        plan_plains, plain_values = _int_buffer(int(plain_counts.sum()))
        and_claims = np.cumsum(and_counts, dtype=np.int32) - and_counts
        plain_claims = np.cumsum(plain_counts, dtype=np.int32) - plain_counts
        last_use = np.full(n0 + num_steps, -1, dtype=np.int32)
        for lo, hi in _bands(ng):
            is_and, ands, plains, operands = leaves(lo, hi)
            at = _claim(ands, and_claims)
            for placed, wires in ((and_lefts, lefts), (and_rights, rights)):
                reads = values(wires[lo:hi][is_and])
                placed[at] = reads
                np.maximum.at(last_use, reads, ands)
            reads = values(operands)
            plain_values[_claim(plains, plain_claims)] = reads
            np.maximum.at(last_use, reads, plains)
        del root, joins, and_claims, plain_claims
        last_use[outputs] = num_steps
        last_use[last_use < 0] = num_steps

        # The values each step reads for the last time, freed after it, in
        # step order.  evaluate_batch starts out holding the n0 inputs and
        # zero wire.  Step t stores one value, then frees the values it reads
        # for the last time, so after step t it holds n0 - lag[t] values,
        # where lag[t] is the values freed at steps <= t less t + 1.
        lag = np.zeros(num_steps + 1, dtype=np.int32)
        _count(lag, last_use)
        plan_free_counts, free_counts = _int_buffer(num_steps)
        free_counts[:] = lag[:num_steps]
        frees = _nonzero(last_use < num_steps)
        plan_frees, freed = _int_buffer(frees.size)
        claims = np.cumsum(free_counts, dtype=np.int32) - free_counts
        for lo, hi in _bands(frees.size):
            freed[_claim(last_use[frees[lo:hi]], claims)] = frees[lo:hi]
        del freed, frees, claims, last_use
        lag = lag[:num_steps] - 1
        np.cumsum(lag, out=lag)
        plan = _Plan(
            plan_and_counts,
            plan_plain_counts,
            plan_free_counts,
            plan_and_lefts,
            plan_and_rights,
            plan_plains,
            plan_frees,
            outputs,
            n0 - int(lag.min(initial=0)),
        )
        self._plan_cache = (ng, plan)
        return plan

    def live_peak(self) -> int:
        """Most values one evaluate_batch call holds at once: the inputs and
        the zero wire before the first step, or after any step the values
        not yet freed, inputs included.  Kept with the cached plan, so
        evaluate_batch reuses the plan this builds."""
        return self._plan().peak

    def eval_steps(self) -> int:
        """Steps of the plan evaluate_batch runs: one per gate that joins no
        fold."""
        return len(self._plan().and_counts)

    def evaluate_batch(self, input_masks) -> list[int]:
        """Evaluate on many assignments at once, bit-parallel over Python ints.

        ``input_masks[e]`` packs one bit per assignment for input wire e, so
        one call walks the gates once for every assignment its masks hold.
        Returns one packed mask per output.  The steps run in the order of
        ``_plan``: each is one OR over its fold's leaves, and each value is
        freed after the last step that reads it, so few values are live at
        once.
        """
        if len(input_masks) != self.num_inputs:
            raise InvalidParameterError(f"expected {self.num_inputs} input masks, got {len(input_masks)}")
        if not self.outputs:
            raise InvalidParameterError("circuit has no outputs")
        plan = self._plan()
        and_lefts, and_rights, plains, frees = map(iter, (plan.and_lefts, plan.and_rights, plan.plains, plan.frees))
        vals = [int(m) for m in input_masks]
        vals.append(0)  # the zero wire
        put = vals.append
        get = vals.__getitem__
        with _gc_paused():
            for a, b, f in zip(plan.and_counts, plan.plain_counts, plan.free_counts):
                ands = map(and_, map(get, islice(and_lefts, a)), map(get, islice(and_rights, a)))
                put(reduce(or_, chain(ands, map(get, islice(plains, b)))))
                for w in islice(frees, f):
                    vals[w] = None
        return [vals[o] for o in plan.outputs]

    def evaluate_all(self, matrix: "AdjacencyMatrix") -> tuple[int, ...]:
        """Output bit vector under the assignment g[i][j] := matrix(i, j)."""
        if matrix.n != self.num_vertices:
            raise InvalidParameterError(
                f"matrix is {matrix.n}x{matrix.n} but circuit has {self.num_vertices} vertices"
            )
        return tuple(self.evaluate_batch(matrix.input_bits()))


@dataclass(frozen=True)
class _Plan:
    """The steps of evaluate_batch, in order, and their live-value peak.

    Step t stores the OR of its and_counts[t] AND leaves, the pairs read in
    turn from and_lefts and and_rights, and of its plain_counts[t] plain
    leaves, read in turn from plains.  Then it frees free_counts[t] values,
    read in turn from frees.  Outputs are never freed.
    """

    and_counts: array
    plain_counts: array
    free_counts: array
    and_lefts: array
    and_rights: array
    plains: array
    frees: array
    outputs: list[int]
    peak: int


# Depth scans and evaluation plans hold int32 arrays with one entry per
# gate, and temporaries of at most one band of this many entries.
SCAN_BAND = 1 << 16

def _bands(size: int) -> list[tuple[int, int]]:
    """(lo, hi) of each band of SCAN_BAND entries of range(size)."""
    return [(lo, min(lo + SCAN_BAND, size)) for lo in range(0, size, SCAN_BAND)]


def _claim(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """For each key in turn, counters[key], which the claim then advances by
    one: the places of a stable counting sort, for one band of keys."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    groups = sorted_keys[starts]
    sizes = np.diff(starts, append=keys.size)
    claimed = counters[groups]
    counters[groups] = claimed + sizes
    out = np.empty(keys.size, dtype=np.int32)
    out[order] = np.repeat(claimed - starts, sizes) + np.arange(keys.size)
    return out


def _count(counts: np.ndarray, keys: np.ndarray) -> None:
    """Add one to counts[k] for each key k, a band at a time."""
    for lo, hi in _bands(keys.size):
        np.add.at(counts, keys[lo:hi], np.ones(hi - lo, dtype=counts.dtype))


def _nonzero(mask: np.ndarray) -> np.ndarray:
    """The int32 indices where mask holds, a band at a time."""
    out = np.empty(np.count_nonzero(mask), dtype=np.int32)
    k = 0
    for lo, hi in _bands(mask.size):
        at = np.flatnonzero(mask[lo:hi])
        out[k : k + at.size] = at + lo
        k += at.size
    return out


def _int_buffer(size: int) -> tuple[array, np.ndarray]:
    """A zeroed array('i') of size entries, and an int32 view that writes it."""
    out = array("i", [0]) * size
    return out, np.frombuffer(out, dtype=np.intc)


def or_tree(circuit: MonotoneCircuit, wires) -> int:
    """OR of all given wires as a balanced pairwise tree.

    The one-row case of ``or_reduce_columns``: adds exactly ceil(log2 k)
    depth above equal-depth inputs; a singleton is returned unchanged.
    """
    return int(circuit.or_reduce_columns(np.array([list(wires)], dtype=np.int64))[0])


def _banded_product(
    circuit: MonotoneCircuit, a: np.ndarray, b: np.ndarray, and_leaves: np.ndarray, need: np.ndarray | None = None
) -> np.ndarray:
    """Banded AND-then-OR emission: out[i][j] = OR_k leaf(i, j, k).

    leaf(i, j, k) is a new gate a[i][k] AND b[k][j] where and_leaves[j][k]
    holds, and the wire a[i][k] itself otherwise.  Per band of entries the
    AND gates are emitted in (entry, k) order, then each entry's leaves go
    through one balanced OR, so emission order is fixed by the operands.
    With every leaf an AND gate it adds exactly 1 + ceil(log2 n) depth
    above equal-depth operands.

    Only entries where `need` holds (all by default) are emitted, in the
    same bands, so the gates are those of emitting every entry and pruning
    the others.  An entry left out is -1 in the result.
    """
    n = a.shape[0]
    n2 = n * n
    entries = np.arange(n2) if need is None else np.flatnonzero(need)
    rows, cols = np.divmod(entries, n)
    lefts = a[rows]  # [e=(i,j), k] = a[i,k]
    rights = b.T[cols]  # [e=(i,j), k] = b[k,j]
    ands = and_leaves[cols]
    out = np.full(n2, -1, dtype=np.int64)
    bounds = np.searchsorted(entries, np.arange(0, n2 + EMIT_BAND, EMIT_BAND))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        leaves = lefts[lo:hi]
        band_ands = ands[lo:hi]
        leaves[band_ands] = circuit._emit_bulk(AND, leaves[band_ands], rights[lo:hi][band_ands])
        out[entries[lo:hi]] = circuit.or_reduce_columns(leaves)
    return out.reshape(n, n)


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
#
# Files are written with single spaces and "\n" line ends.  The reader takes
# any ASCII text that str.splitlines() and str.split() cut into those lines
# and tokens (so CRLF, tabs and runs of spaces too), with each number an
# optionally signed run of decimal digits.  Both work on bands of gates, so
# no Python call is made per gate, and the reader holds one block of input
# at a time.

# Wire ids are stored as int32, so a circuit has at most this many wires.
MAX_WIRES = 2**31 - 1
# Gates per band the writer formats.  Its temporaries and the band's bytes
# come to about 120 bytes a gate, some 4 MB; bands of 2**13 gates made
# explicit n=64 builds slower.
_IO_BAND = 1 << 15
# Gate lines per band the reader parses.  Its temporaries (token bounds,
# per-width digit selections, int64 values) come to about 250 bytes a line,
# some 2 MB, and parse no slower than bands four times as large.
_READ_BAND = 1 << 13
# Bytes the reader takes from a file at a time, about 200,000 explicit gate
# lines.  Much smaller blocks leave no large block to free, so later phases
# fault fresh pages in and run slower.
_READ_BLOCK = 1 << 22
# The writer formats a gate line as fixed-width little-endian uint32 words
# padded with NUL bytes, which it then deletes (no MCIRC byte is NUL):
# "G AN" "D \0\0" or "G OR" " \0\0\0", the left operand's 4-digit groups,
# " \0\0\0", the right operand's groups, "\n\0\0\0".  _OP_WORDS[op] is a
# line's two op words, as one uint64.
_OP_WORDS = np.frombuffer(b"G AND \0\0G OR \0\0\0", dtype="<u8")
_END_WORDS = np.frombuffer(b" \0\0\0\n\0\0\0", dtype="<u4")


def _group_words() -> np.ndarray:
    """The word of each 4-digit group v: [v] zero-padded ("0042"), [10000 + v]
    as the leading group, its leading zeros NUL ("\\0\\0" "42", and "\\0\\0\\0" "0"
    for the value 0), and [20000] four NULs, for a group above the leading one.

    Built a digit place at a time: the place's digit of v = 0 .. 9999 in
    turn, and as the leading group the same with the first `place` values,
    those below it, NUL (never the ones digit, for the value 0)."""
    words = bytearray(4 * 20001)
    for i, place in enumerate((1000, 100, 10, 1)):
        digits = b"".join(bytes([ord("0") + d]) * place for d in range(10)) * (1000 // place)
        words[i:40000:4] = digits
        blank = place if place > 1 else 0
        words[40000 + i : 80000 : 4] = bytes(blank) + digits[blank:]
    return np.frombuffer(bytes(words), dtype="<u4")


_GROUP_WORDS = _group_words()

# The ASCII bytes str.split() separates tokens at, and str.splitlines() lines at.
_SEPARATOR = np.zeros(256, dtype=bool)
_SEPARATOR[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_LINE_BREAK = np.zeros(256, dtype=bool)
_LINE_BREAK[[10, 11, 12, 13, 28, 29, 30]] = True


def _gate_lines(ops: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> bytes:
    """The "G <op> <a> <b>\\n" lines of a non-empty band of gates, as one
    bytes object, built from rows of _OP_WORDS, _GROUP_WORDS and _END_WORDS."""
    operands = np.stack((lefts, rights), axis=1).astype(np.uint32)
    top = int(operands.max())
    groups = 1 + (top >= 10**4) + (top >= 10**8)  # wire ids are below 2**31
    words = np.empty((ops.size, 2 + 2 * (groups + 1)), dtype="<u4")
    words.view("<u8")[:, 0] = _OP_WORDS.take(ops)  # a row is a whole number of uint64s
    # [gate, operand, slot]: an operand's groups, most significant first,
    # then the word after it.
    body = words[:, 2:].reshape(ops.size, 2, groups + 1)
    body[:, :, groups] = _END_WORDS
    q = operands
    for slot in range(groups - 1, -1, -1):
        rest = q // 10000
        # The group, +10000 where it leads, and +10000 more where it is
        # above the leading group: q is 0 there, and in the last slot only
        # for the value 0, whose one group leads.
        at = q - rest * 10000
        at += (rest == 0) * np.uint32(10000)
        if slot < groups - 1:
            at += (q == 0) * np.uint32(10000)
        body[:, :, slot] = _GROUP_WORDS.take(at)
        q = rest
    return words.tobytes().translate(None, b"\0")


def _mcirc_chunks(circuit: MonotoneCircuit):
    """The bytes of a circuit's MCIRC file, in order."""
    yield f"MCIRC 1 {circuit.num_vertices}\n".encode()
    ops, lefts, rights = circuit.gates()
    for lo in range(0, ops.size, _IO_BAND):
        hi = lo + _IO_BAND
        yield _gate_lines(ops[lo:hi], lefts[lo:hi], rights[lo:hi])
    yield ("OUT " + " ".join(str(o) for o in circuit.outputs) + "\n").encode()


def write_circuit(circuit: MonotoneCircuit, path) -> None:
    with open(path, "wb") as fh:
        for chunk in _mcirc_chunks(circuit):
            fh.write(chunk)


def _block_lines(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(starts, stops, glue, ascii_lines) of a block of whole lines.

    Lines span raw[starts[i]:stops[i]], cut as str.splitlines() cuts them;
    `glue` holds the offsets of the control bytes that str.split() keeps
    inside tokens, and the first `ascii_lines` lines are ASCII.
    """
    ctrl = np.flatnonzero(raw < 32)  # every line break and every glue byte is a control byte
    kind = raw[ctrl]
    glue = ctrl[~_SEPARATOR[kind]]
    breaks = ctrl[_LINE_BREAK[kind]]
    del ctrl, kind
    # "\r\n" is one line break: its "\n" ends no line, and the next line starts after it.
    cr = np.flatnonzero(raw[breaks[:-1]] == ord("\r"))
    crlf = cr[(breaks[cr + 1] == breaks[cr] + 1) & (raw[breaks[cr + 1]] == ord("\n"))]
    nexts = breaks + 1
    nexts[crlf] += 1
    starts = np.concatenate(([0], np.delete(nexts, crlf + 1)))
    stops = np.concatenate((np.delete(breaks, crlf + 1), [raw.size]))
    if starts[-1] == raw.size:  # a break at the very end starts no further line
        starts, stops = starts[:-1], stops[:-1]
    ascii_lines = starts.size
    if raw.max() >= 0x80:
        ascii_lines = int(np.searchsorted(starts, int(np.argmax(raw >= 0x80)), side="right")) - 1
    return starts, stops, glue, ascii_lines


# Digits int() reads in one string, 0 for no limit (Python 3.10.7 and later).
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _token_ints(seg: np.ndarray, at: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, well-formed) of each token seg[at:at+length] read as [+-]?[0-9]+.

    The value is read from the last 11 digits at most.  A token with more
    digits is left not well-formed unless all the digits before those are
    0, so every value fits int64 and a line with a larger one takes the
    per-line path, which names it exactly; so is one that int() refuses
    for its length.
    """
    lead = seg[at]
    body = at + ((lead == ord("+")) | (lead == ord("-")))
    end = at + length
    width = np.minimum(end - body, 11)  # 0 for a lone sign, which stays not well-formed
    values = np.zeros(at.size, dtype=np.int64)
    ok = np.zeros(at.size, dtype=bool)
    counts = np.bincount(width, minlength=12)
    for k in range(1, 12):
        if not counts[k]:
            continue
        sel = np.flatnonzero(width == k)
        pos = end[sel] - k
        good = np.ones(sel.size, dtype=bool)
        v = np.zeros(sel.size, dtype=np.int64)
        for c in range(k):
            digit = np.subtract(seg[pos + c], ord("0"), dtype=np.uint8)
            good &= digit < 10
            v *= 10
            v += digit
        values[sel] = v
        ok[sel] = good
    values[lead == ord("-")] *= -1
    long = np.flatnonzero(end - body > 11)
    if long.size:  # each [body, end - 11) is non-empty, so reduceat reads exactly it
        heads = np.stack((body[long], end[long] - 11), axis=1).ravel()
        ok[long] &= ~np.logical_or.reduceat(seg != ord("0"), heads)[0::2]
        if max_digits := _int_max_str_digits():  # int() refuses more, so parse_int does
            ok[long] &= end[long] - body[long] <= max_digits
    return values, ok


def _read_gate_lines(
    circuit: MonotoneCircuit, raw: np.ndarray, starts: np.ndarray, stops: np.ndarray, glue: np.ndarray
) -> int:
    """Append the gates of the leading lines that are well-formed gate lines;
    return how many lines that is.  A gate over a missing wire raises from
    the append.  `glue` holds the offsets of the control bytes that
    str.split() keeps inside tokens."""
    base, stop = int(starts[0]), int(stops[-1])
    seg = raw[base:stop]
    # in_token[1 + i] says whether seg[i] is part of a token; the ends are padding.
    in_token = np.zeros(seg.size + 2, dtype=bool)
    np.greater(seg, 32, out=in_token[1:-1])
    in_token[glue[np.searchsorted(glue, base) : np.searchsorted(glue, stop)] - (base - 1)] = True
    edges = np.flatnonzero(in_token[1:] != in_token[:-1])
    tok_at = edges[0::2]
    tok_len = edges[1::2] - tok_at
    first = np.searchsorted(tok_at, starts - base)
    lines = np.flatnonzero(np.diff(first, append=tok_at.size) == 4)
    t = first[lines]
    op_at, op_len = tok_at[t + 1], tok_len[t + 1]
    # op_at + 2 stays inside seg: two more tokens follow the op token.
    c0, c1 = seg[op_at], seg[op_at + 1]
    is_and = (op_len == 3) & (c0 == ord("A")) & (c1 == ord("N")) & (seg[op_at + 2] == ord("D"))
    is_or = (op_len == 2) & (c0 == ord("O")) & (c1 == ord("R"))
    lefts, left_ok = _token_ints(seg, tok_at[t + 2], tok_len[t + 2])
    rights, right_ok = _token_ints(seg, tok_at[t + 3], tok_len[t + 3])
    fine = (
        (tok_len[t] == 1) & (seg[tok_at[t]] == ord("G")) & (is_and | is_or)
        & left_ok & right_ok & (circuit.num_wires + lines < MAX_WIRES)
    )
    clean = np.zeros(starts.size, dtype=bool)
    clean[lines] = fine
    run = starts.size if clean.all() else int(clean.argmin())
    circuit.append_gates(is_or[:run], lefts[:run], rights[:run])
    return run


def _read_record(circuit: MonotoneCircuit, ln: int, line: str, outputs):
    """Read one line that _read_gate_lines did not take: append a gate
    line's gate, return the outputs of a first OUT line, or raise what is
    wrong with the line."""
    parts = line.split()
    if not parts:
        raise InvalidParameterError(f"line {ln}: blank line in circuit file")
    if parts[0] == "G":
        if outputs is not None:
            raise InvalidParameterError(f"line {ln}: gate after OUT line")
        if len(parts) != 4 or parts[1] not in _OP_CODES:
            raise InvalidParameterError(f"line {ln}: bad gate line {line!r}")
        a, b = parse_int(parts[2], ln), parse_int(parts[3], ln)
        if circuit.num_wires >= MAX_WIRES:
            raise InvalidParameterError(f"line {ln}: a circuit has at most {MAX_WIRES} wires")
        circuit.add_gate(_OP_CODES[parts[1]], a, b)
        return outputs
    if parts[0] == "OUT":
        if outputs is not None:
            raise InvalidParameterError(f"line {ln}: duplicate OUT line")
        return [parse_int(t, ln) for t in parts[1:]]
    raise InvalidParameterError(f"line {ln}: unknown record {parts[0]!r}")


def _read_header(line: str) -> MonotoneCircuit:
    head = line.split()
    if len(head) != 3 or head[0] != "MCIRC" or head[1] != "1":
        raise InvalidParameterError(f"bad circuit header: {line!r}")
    circuit = MonotoneCircuit(parse_int(head[2], 1))
    if circuit.num_wires > MAX_WIRES:
        raise InvalidParameterError(
            f"line 1: {circuit.num_vertices} vertices need more than {MAX_WIRES} wires"
        )
    return circuit


def _blocks(fh: BinaryIO):
    """The input as uint8 arrays of whole lines, in order: a block of about
    _READ_BLOCK bytes, read on to the end of the line it stops in.  A binary
    readline() stops only after a "\\n", so a "\\r\\n" break is never
    split, and a line longer than a block comes whole (input with no "\\n"
    at all is one block)."""
    while block := fh.read(_READ_BLOCK):
        block += fh.readline()
        yield np.frombuffer(block, dtype=np.uint8)


def _read_block(raw: np.ndarray, circuit: MonotoneCircuit | None, outputs, lines_before: int):
    """Parse a block of whole lines that follows `lines_before` lines; the
    circuit is None before the header is read.  Returns (circuit, outputs,
    lines read so far)."""
    starts, stops, glue, ascii_lines = _block_lines(raw)

    def line(i: int) -> str:
        if i >= ascii_lines:
            raise InvalidParameterError(f"line {lines_before + i + 1}: non-ASCII byte in circuit file")
        return raw[starts[i] : stops[i]].tobytes().decode("ascii")

    i = 0
    if circuit is None:
        circuit = _read_header(line(0))
        i = 1
    while i < starts.size:
        if outputs is None and i < ascii_lines:
            hi = min(i + _READ_BAND, ascii_lines)
            i += _read_gate_lines(circuit, raw, starts[i:hi], stops[i:hi], glue)
            if i == hi:
                continue
        outputs = _read_record(circuit, lines_before + i + 1, line(i), outputs)
        i += 1
    return circuit, outputs, lines_before + starts.size


def circuit_from_text(text: str | bytes | BinaryIO) -> MonotoneCircuit:
    """Parse MCIRC input: str, bytes, or a binary file read a block at a
    time.  Malformed input raises a ValueError subclass; a fault in one
    line's syntax names that line."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    if isinstance(text, (bytes, bytearray, memoryview)):
        text = io.BytesIO(text)
    circuit = outputs = None
    lines = 0
    for raw in _blocks(text):
        circuit, outputs, lines = _read_block(raw, circuit, outputs, lines)
    if circuit is None:
        raise InvalidParameterError("empty circuit file")
    if outputs is None:
        raise InvalidParameterError("circuit file has no OUT line")
    circuit.set_outputs(outputs)
    if not outputs:
        raise InvalidParameterError("circuit file is not well-formed: circuit has no outputs")
    return circuit


def read_circuit(path) -> MonotoneCircuit:
    with open(path, "rb") as fh:
        return circuit_from_text(fh)
