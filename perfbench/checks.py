"""Checks of monoreach's outputs that share no code with monoreach.

The MCIRC and FAMILY readers here follow the documented text formats;
the liveness pass and the family enumerator are separate implementations
of what the program computes, so a defect in one does not hide in both.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


# -- circuits -------------------------------------------------------------------


@dataclass
class McircFacts:
    num_vertices: int
    outputs: list[int]
    sha256: str


def mcirc_facts(path) -> McircFacts:
    """Header, OUT line and sha256 of an MCIRC file, read in one streaming pass."""
    digest = hashlib.sha256()
    head = b""
    tail = b""
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
            if not head:
                head = block.partition(b"\n")[0]
            tail = (tail + block)[-65536:]
    parts = head.split()
    if len(parts) != 3 or parts[0] != b"MCIRC":
        raise ValueError(f"bad MCIRC header {head[:40]!r}")
    last = tail.rstrip(b"\n").rpartition(b"\n")[2].split()
    if not last or last[0] != b"OUT":
        raise ValueError("MCIRC file does not end with an OUT line it can read")
    return McircFacts(int(parts[2]), [int(t) for t in last[1:]], digest.hexdigest())


def mcirc_gates(path) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """(number of inputs, is-OR flags, left operands, right operands, outputs) of an MCIRC file."""
    with open(path, "rb") as fh:
        data = fh.read()
    head, _, rest = data.partition(b"\n")
    body, _, out = rest.rstrip(b"\n").rpartition(b"\n")
    raw = np.frombuffer(body, dtype=np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(raw == ord("\n")) + 1)) if body else np.empty(0, np.int64)
    is_or = raw[starts + 2] == ord("O")  # "G OR a b" / "G AND a b"
    nums = np.fromstring(body.replace(b"G AND ", b"").replace(b"G OR ", b""), dtype=np.int64, sep=" ")
    if nums.size != 2 * starts.size:
        raise ValueError(f"expected {2 * starts.size} operands in {path}, read {nums.size}")
    pairs = nums.reshape(starts.size, 2)
    n = int(head.split()[2])
    return n * n, is_or, pairs[:, 0], pairs[:, 1], [int(t) for t in out.split()[1:]]


def _runs(lefts: np.ndarray, rights: np.ndarray, n0: int) -> list[tuple[int, int]]:
    """Maximal stretches of gates that read only wires made before the stretch."""
    newest = np.maximum(lefts, rights)
    ng = newest.size
    runs = []
    start = 0
    while start < ng:
        span = 512
        while True:
            limit = min(ng, start + span)
            late = np.flatnonzero(newest[start:limit] >= n0 + start)
            if late.size:
                end = start + int(late[0])
                break
            if limit == ng:
                end = ng
                break
            span *= 2
        if end == start:
            raise ValueError(f"gate {start} reads a wire that is not older than itself")
        runs.append((start, end))
        start = end
    return runs


def waste_counts(num_inputs: int, is_or, lefts, rights, outputs) -> tuple[int, int]:
    """(gates no output reads, gates with an operand that is constant zero).

    Wires 0..num_inputs-1 are inputs, wire num_inputs is the zero wire and
    gate g defines wire num_inputs + 1 + g.  A wire is constant zero when it
    is the zero wire, an AND with a constant-zero operand, or an OR of two.
    Both passes go one run at a time: no gate in a run reads another gate
    of the same run, so a run is decided by the runs before it (constant
    zero, forwards) or after it (liveness, backwards).
    """
    is_or = np.asarray(is_or, dtype=bool)
    lefts = np.asarray(lefts, dtype=np.int64)
    rights = np.asarray(rights, dtype=np.int64)
    n0 = num_inputs + 1
    runs = _runs(lefts, rights, n0)
    zero = np.zeros(n0 + lefts.size, dtype=bool)
    zero[num_inputs] = True
    zero_operand = 0
    for start, end in runs:
        zl = zero[lefts[start:end]]
        zr = zero[rights[start:end]]
        zero[n0 + start : n0 + end] = np.where(is_or[start:end], zl & zr, zl | zr)
        zero_operand += int(np.count_nonzero(zl | zr))
    live = np.zeros(n0 + lefts.size, dtype=bool)
    live[np.asarray(outputs, dtype=np.int64)] = True
    for start, end in reversed(runs):
        idx = start + np.flatnonzero(live[n0 + start : n0 + end])
        live[lefts[idx]] = True
        live[rights[idx]] = True
    return lefts.size - int(np.count_nonzero(live[n0:])), zero_operand


def ledger_totals(path) -> tuple[int, int]:
    """(sum of predicted, sum of measured) over the stages of a ledger CSV."""
    predicted = measured = 0
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not rows or rows[0] != "stage,label,predicted,measured":
        raise ValueError(f"{path} has no ledger header")
    for row in rows[1:]:
        _, _, pred, meas = row.split(",")
        predicted += int(pred)
        measured += int(meas)
    return predicted, measured


# -- families --------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    n: int
    m: int
    s: int
    l: int
    d: int
    sets: tuple[tuple[int, ...], ...]

    def key(self) -> str:
        text = f"{self.n} {self.m} {self.s} {self.l} {self.d}\n" + "\n".join(
            " ".join(map(str, st)) for st in self.sets
        )
        return hashlib.sha256(text.encode()).hexdigest()


def read_family_file(path) -> Family:
    with open(path) as fh:
        lines = fh.read().split("\n")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "FAMILY":
        raise ValueError(f"bad FAMILY header in {path}")
    n, m, s, l, d = (int(t) for t in head[1:])
    sets = tuple(tuple(sorted(int(t) for t in ln.split())) for ln in lines[1 : 1 + m])
    return Family(n, m, s, l, d, sets)


def first_violation(fam: Family) -> tuple[int, ...] | None:
    """Lexicographically first d-subset D of 1..n that at least m*d/l sets avoid.

    Brute force over every D: a prefix of d-2 elements is extended by all
    later pairs at once, with the sets meeting D held as bit rows.
    """
    n, m, l, d = fam.n, fam.m, fam.l, fam.d
    words = max(1, (m + 63) // 64)
    meets = np.zeros((n + 1, words), dtype=np.uint64)
    for idx, st in enumerate(fam.sets):
        for v in st:
            meets[v, idx >> 6] |= np.uint64(1) << np.uint64(idx & 63)

    def violates(rows: np.ndarray) -> np.ndarray:
        hit = _POPCOUNT[rows.view(np.uint8)].reshape(len(rows), -1).sum(axis=1)
        return (m - hit) * l >= m * d

    if d == 1:
        bad = np.flatnonzero(violates(meets[1:]))
        return (int(bad[0]) + 1,) if bad.size else None
    pi, pj = np.triu_indices(n, k=1)  # pairs i < j in lexicographic order, 0-based
    pi += 1
    pj += 1
    pair_rows = meets[pi] | meets[pj]
    first_with_i = np.searchsorted(pi, np.arange(n + 2))
    for prefix in combinations(range(1, n + 1), d - 2):
        start = int(first_with_i[prefix[-1] + 1]) if prefix else 0
        if start == pi.size:
            continue
        rows = pair_rows[start:]
        if prefix:
            rows = rows | np.bitwise_or.reduce(meets[list(prefix)], axis=0)
        bad = np.flatnonzero(violates(rows))
        if bad.size:
            k = start + int(bad[0])
            return prefix + (int(pi[k]), int(pj[k]))
    return None


def counterexample_problem(fam: Family, d_subset, set_indices, disjoint_count) -> str | None:
    """Why a reported counterexample is wrong, or None when it holds."""
    dset = set(d_subset)
    if len(d_subset) != fam.d or len(dset) != fam.d or not all(1 <= v <= fam.n for v in dset):
        return f"D={tuple(d_subset)} is not a {fam.d}-subset of 1..{fam.n}"
    avoiding = tuple(i for i, st in enumerate(fam.sets) if dset.isdisjoint(st))
    if avoiding != tuple(set_indices) or len(avoiding) != disjoint_count:
        return f"D={tuple(d_subset)} is avoided by sets {avoiding}, reported {tuple(set_indices)} ({disjoint_count})"
    if len(avoiding) * fam.l < fam.m * fam.d:
        return f"D={tuple(d_subset)} is avoided by only {len(avoiding)} sets, below m*d/l"
    return None


class ExpectedVerdicts:
    """Brute-force verdicts (None for pass, else the first violating D),
    kept in one file per workload seed so each family is enumerated once."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._verdicts: dict = json.loads(self.path.read_text()) if self.path.exists() else {}
        self._dirty = False

    def verdict(self, fam: Family) -> tuple[int, ...] | None:
        key = fam.key()
        if key not in self._verdicts:
            bad = first_violation(fam)
            self._verdicts[key] = "pass" if bad is None else list(bad)
            self._dirty = True
        v = self._verdicts[key]
        return None if v == "pass" else tuple(v)

    def save(self) -> None:
        if self._dirty:
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self._verdicts, sort_keys=True))
            os.replace(tmp, self.path)
            self._dirty = False
