"""Covering set families: sampling, exact/sampled checking, affine planes.

A family (S_1..S_m) of subsets of {1..n} with declared parameters
(n, m, s, l, d) is *covering* when every subfamily of at least m*d/l sets
covers at least n-d+1 elements.  The checkers work through the equivalent
dual form: no d-element set D may be avoided by m*d/l or more of the S_i.
The threshold is compared as an exact rational, never rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from .errors import (
    BudgetExceededError,
    ConstructionFailedError,
    FamilyViolationError,
    InvalidParameterError,
)
from .exactmath import _uniform_below, child_seed, comb, is_prime, isqrt, parse_int, parse_ints, sample_distinct

# Points over all q(q+1) lines of q points each that affine_lines may build:
# q <= 31, about 30 ms with the incidence check.
PLANE_POINT_BUDGET = 1 << 15
# Entries m*s that `family sample` may draw.  Drawing n = m = 4096, s = 256
# takes about 0.35 s on a 2-vCPU host, and the process peaks at 86 MB of
# RSS; 104 MB for n >= 2**64, where every entry is a Python int.  Theorem
# builds are bounded by --max-gates instead.
SAMPLE_ENTRY_BUDGET = 1 << 20
# Bits d * (m + 576) that a family check may hold for its d levels: the
# exact search keeps an m-bit mask and an element per level, at about 72
# bytes of object headers and list slots each.  The largest shape in use,
# plane_family(961) with m = 992 and d = 145, needs 227,360.
CHECK_BIT_BUDGET = 1 << 24
# Bits that a family check's element masks may hold: each element's mask
# has one bit per set up to the last set holding it, plus the same 576.
# 2**30 bits (128 MiB) of singleton masks built in 0.1 s and added 141 MB
# to peak RSS.  The largest shape in use, plane_family(961), needs at most
# 961 * (992 + 576) = 1,506,848.
MASK_BIT_BUDGET = 1 << 30


@dataclass(frozen=True)
class FamilyParams:
    n: int
    m: int
    s: int
    l: int
    d: int

    def __post_init__(self):
        if min(self.n, self.m, self.s, self.l, self.d) < 1:
            raise InvalidParameterError(f"family parameters must be positive: {self}")
        if self.d > self.n:
            raise InvalidParameterError(f"deficiency d={self.d} exceeds universe n={self.n}")

    def threshold(self) -> Fraction:
        """Subfamily-size threshold m*d/l as an exact rational."""
        return Fraction(self.m * self.d, self.l)


class CoveringFamily:
    """Ordered list of subsets of {1..n} plus declared parameters.

    The cheap conditions (set sizes, element range, count) are enforced at
    construction.  The covering condition itself is established by
    check_family_exact / check_family_sampled.
    """

    def __init__(self, params: FamilyParams, sets):
        sets = tuple(tuple(sorted(set(s))) for s in sets)
        if len(sets) != params.m:
            raise InvalidParameterError(f"declared m={params.m} but got {len(sets)} sets")
        for idx, s in enumerate(sets):
            if len(s) > params.s:
                raise InvalidParameterError(f"set {idx} has {len(s)} > s={params.s} elements")
            if s and not (1 <= s[0] and s[-1] <= params.n):
                raise InvalidParameterError(f"set {idx} leaves the universe 1..{params.n}")
        self.params = params
        self.sets = sets

    def element_set_masks(self) -> dict[int, int]:
        """For each element v in some set, the bitmask of set indices containing v.

        Keyed by the elements the sets hold, so its size never follows the
        declared n; an element in no set has mask 0.
        """
        masks: dict[int, int] = {}
        for idx, s in enumerate(self.sets):
            bit = 1 << idx
            for v in s:
                masks[v] = masks.get(v, 0) | bit
        return masks

    def __eq__(self, other):
        return (
            isinstance(other, CoveringFamily)
            and self.params == other.params
            and self.sets == other.sets
        )

    def __repr__(self):
        return f"CoveringFamily({self.params}, {len(self.sets)} sets)"


@dataclass(frozen=True)
class FamilyCounterexample:
    """A d-subset avoided by at least m*d/l sets (a covering violation)."""

    d_subset: tuple[int, ...]
    set_indices: tuple[int, ...]
    disjoint_count: int
    threshold: Fraction


def _violation_at(family: CoveringFamily, d_subset, elem_masks, full_mask) -> FamilyCounterexample | None:
    p = family.params
    avoid = 0
    for v in d_subset:
        avoid |= elem_masks.get(v, 0)
    disjoint = full_mask & ~avoid
    count = disjoint.bit_count()
    if count * p.l >= p.m * p.d:
        indices = tuple(i for i in range(p.m) if (disjoint >> i) & 1)
        return FamilyCounterexample(tuple(d_subset), indices, count, p.threshold())
    return None


def _check_budget(family: CoveringFamily, mode: str) -> None:
    """Refuse a check whose d levels of m-bit masks exceed CHECK_BIT_BUDGET,
    or whose element masks exceed MASK_BIT_BUDGET."""
    p = family.params
    bits = p.d * (p.m + 576)
    if bits > CHECK_BIT_BUDGET:
        raise BudgetExceededError(
            f"{mode} check with d={p.d} and m={p.m} needs d * (m + 576) = {bits} bits, "
            f"over the budget of {CHECK_BIT_BUDGET}"
        )
    if sum(map(len, family.sets)) * (p.m + 576) <= MASK_BIT_BUDGET:  # one mask per entry at most
        return
    last = {v: idx for idx, s in enumerate(family.sets) for v in s}  # the last set holding v
    bits = sum(last.values()) + len(last) * (1 + 576)
    if bits > MASK_BIT_BUDGET:
        raise BudgetExceededError(
            f"{mode} check of m={p.m} sets over {len(last)} elements needs {bits} bits of element masks, "
            f"over the budget of {MASK_BIT_BUDGET}"
        )


def check_family_exact(family: CoveringFamily, max_subsets: int = 10_000_000) -> FamilyCounterexample | None:
    """Decide the covering condition by branch and bound over d-subsets of {1..n}.

    A lexicographic depth-first search ORs in each element's set mask as it
    goes deeper.  It prunes a branch once fewer than m*d/l sets avoid it,
    since adding elements can only lower that count; so the first leaf it
    reaches is the lexicographically first counterexample.  Returns that
    counterexample, or None on pass.  Refuses (never samples) a search over
    the bit budgets before it starts, and once it has visited more than
    max_subsets subsets of size 1..d.
    """
    p = family.params
    n, m, l, d = p.n, p.m, p.l, p.d
    need = m * d  # a subset avoided by `count` sets violates once count * l >= need
    if l < d:  # then need > count * l for every count <= m: no subset violates
        return None
    _check_budget(family, "exact")
    elem_masks = family.element_set_masks()
    path: list[int] = []  # the elements chosen so far
    meets = [0]  # meets[k]: bitmask of the sets that meet path[:k]
    v = 1  # next candidate for position len(path)
    visited = 0
    while True:
        k = len(path)
        if v > n - d + k + 1:  # too few elements left to fill the subset
            if not k:
                return None
            v = path.pop() + 1
            meets.pop()
            continue
        visited += 1
        if visited > max_subsets:
            raise BudgetExceededError(
                f"exact check over C({n},{d}) subsets found no verdict within {max_subsets} visited subsets"
            )
        meet = meets[k] | elem_masks.get(v, 0)
        if (m - meet.bit_count()) * l < need:
            v += 1
        elif k + 1 == d:
            return _violation_at(family, (*path, v), elem_masks, (1 << m) - 1)
        else:
            path.append(v)
            meets.append(meet)
            v += 1


def check_family_sampled(family: CoveringFamily, trials: int, seed: int) -> FamilyCounterexample | None:
    """Monte Carlo falsification over uniform d-subsets.

    Finding nothing is not a proof; any counterexample returned is real.
    Refuses a family over the bit budgets before the first draw.
    """
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    p = family.params
    _check_budget(family, "sampled")
    elem_masks = family.element_set_masks()
    full = (1 << p.m) - 1
    rng = Random(seed)
    for _ in range(trials):
        d_subset = sample_distinct(rng, p.d, p.n)
        bad = _violation_at(family, d_subset, elem_masks, full)
        if bad is not None:
            return bad
    return None


def sampling_log_failure_bound(n: int, m: int, s: int, l: int, d: int) -> float:
    """Log of the failure-probability bound for the uniform row sampler.

    Negative values guarantee a covering family exists among the sampled
    candidates; exp of this value bounds the per-sample failure probability.
    Takes plain integers so out-of-domain probes (s = 0, d > n) evaluate too.
    """
    return d * m * math.log(m) / l + d * math.log(n) - s * m * d * d / (n * l)


def sampling_failure_bound(n: int, m: int, s: int, l: int, d: int) -> float:
    try:
        return math.exp(sampling_log_failure_bound(n, m, s, l, d))
    except OverflowError:
        return math.inf


def sampling_guarantee_holds(n: int, m: int, s: int, l: int, d: int) -> bool:
    """Sufficient condition for the sampler: m = n, l < n, s > 2n ln(n)/d."""
    return m == n and l < n and d <= n and s > 2.0 * n * math.log(n) / d


def sample_family(params: FamilyParams, seed: int) -> CoveringFamily:
    """Draw an m x s matrix of uniform elements of {1..n}, one set per row.

    Duplicates within a row collapse, so sets may have fewer than s
    elements.  Entries are drawn row-major from a fresh generator, each as
    randbelow(rng, n) + 1 would draw it, so a fixed seed reproduces the
    family exactly.
    """
    entries = _uniform_below(Random(seed), params.n, params.m * params.s)
    entries += 1
    return CoveringFamily(params, entries.reshape(params.m, params.s).tolist())


def sample_verified_family(
    params: FamilyParams, seed: int, attempts: int, label: str = "", max_subsets: int = 10_000_000
) -> tuple[CoveringFamily, int]:
    """Sample families until one passes check_family_exact.

    Attempt k draws from child_seed(seed, f"{label}attempt{k}").  Returns
    the family and the number of attempts it took; raises
    ConstructionFailedError carrying the last counterexample when every
    attempt fails, and InvalidParameterError for attempts below 1.
    """
    if attempts < 1:
        raise InvalidParameterError(f"attempts must be at least 1, got {attempts}")
    last = None
    for attempt in range(attempts):
        family = sample_family(params, child_seed(seed, f"{label}attempt{attempt}"))
        last = check_family_exact(family, max_subsets=max_subsets)
        if last is None:
            return family, attempt + 1
    raise ConstructionFailedError(
        f"no covering family for {params} within {attempts} attempts",
        last_counterexample=last,
    )


@dataclass(frozen=True)
class HittingWitness:
    """Block-hitting witness for one vertex sequence against one family.

    indices = 0 = i_0 < i_1 < ... < i_k = l', with every interior sequence
    element in the chosen set, k <= l/d, and consecutive gaps <= 2d.
    """

    set_index: int
    indices: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.indices) - 1


def hitting_decomposition(family: CoveringFamily, vertex_sequence) -> HittingWitness:
    """Pick a set meeting every d-block of the sequence and one index per block.

    For sequences no longer than 2d the trivial two-endpoint witness with
    the first set suffices.  Failure to find a hitting set is itself a
    covering-condition counterexample and is raised as such.
    """
    seq = list(vertex_sequence)
    p = family.params
    lp = len(seq) - 1
    if lp < 1:
        raise InvalidParameterError("vertex sequence needs at least two elements")
    if lp > p.l:
        raise InvalidParameterError(f"sequence length {lp} exceeds the family budget l={p.l}")
    if len(set(seq)) != len(seq):
        raise InvalidParameterError("vertex sequence elements must be distinct")
    d = p.d
    if lp <= 2 * d:
        return HittingWitness(0, (0, lp))
    k = lp // d
    blocks = [set(seq[i * d : i * d + d]) for i in range(1, k)]
    for set_index, s in enumerate(family.sets):
        sset = set(s)
        if all(block & sset for block in blocks):
            indices = [0]
            for j, block in enumerate(blocks, start=1):
                base = j * d
                pick = next(t for t in range(base, base + d) if seq[t] in sset)
                indices.append(pick)
            indices.append(lp)
            return HittingWitness(set_index, tuple(indices))
    # No set hits every block, so some block is avoided by >= m*d/l sets.
    worst_block, worst_sets = None, ()
    for j, block in enumerate(blocks, start=1):
        avoiding = tuple(i for i, s in enumerate(family.sets) if not (block & set(s)))
        if len(avoiding) > len(worst_sets):
            worst_block, worst_sets = sorted(block), avoiding
    raise FamilyViolationError(
        f"no set meets every block; block {worst_block} is avoided by {len(worst_sets)} of {p.m} sets",
        block=worst_block,
        set_indices=worst_sets,
    )


# -- affine planes ------------------------------------------------------------


def minimal_prime_q(n: int) -> int:
    """Smallest prime q with q*q >= n."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    q = max(2, 1 + isqrt(n - 1))  # ceil(sqrt(n)), floored at the first prime
    while not is_prime(q):
        q += 1
    return q


def minimal_deficiency(q: int) -> int:
    """Smallest natural d with d*d + 2*q*d - q**3 > 0 (strict)."""
    if q < 2:
        raise InvalidParameterError("q must be >= 2")
    d = max(1, isqrt(q**3 + q * q) - q)
    while d * d + 2 * q * d <= q**3:
        d += 1
    while d > 1 and (d - 1) * (d - 1) + 2 * q * (d - 1) > q**3:
        d -= 1
    return d


@dataclass(frozen=True)
class AffinePlaneFamily:
    """All q(q+1) lines of the affine plane over GF(q), on labelled points.

    Point (x, y) gets label x*q + y + 1, so labels 1..q*q enumerate the
    plane row-major by x.
    """

    q: int
    lines: tuple[tuple[int, ...], ...]
    d: int


def affine_lines(q: int) -> AffinePlaneFamily:
    """Enumerate the plane over GF(q), q prime, one line per (a, b, c) class.

    Non-vertical lines are normalized to b = 1 (ordered by a then c),
    followed by the q vertical lines x = -c (ordered by c).  Refuses a
    plane of more than PLANE_POINT_BUDGET points before building a line.
    """
    if not is_prime(q):
        raise InvalidParameterError(f"q = {q} is not prime")
    if q * (q + 1) * q > PLANE_POINT_BUDGET:
        raise BudgetExceededError(
            f"the plane over GF({q}) has {q * (q + 1)} lines of {q} points, "
            f"over the budget of {PLANE_POINT_BUDGET} points"
        )
    label = lambda x, y: x * q + y + 1
    lines = []
    for a in range(q):
        for c in range(q):
            lines.append(tuple(sorted(label(x, (-(a * x + c)) % q) for x in range(q))))
    for c in range(q):
        x = (-c) % q
        lines.append(tuple(sorted(label(x, y) for y in range(q))))
    _check_incidence(q, lines)
    return AffinePlaneFamily(q, tuple(lines), minimal_deficiency(q))


def _check_incidence(q: int, lines) -> None:
    """Each unordered point pair must lie on exactly one line.

    Pair (a, b) of a line is counted by its code (a-1)*q*q + (b-1) in one
    bincount; the first fault in line order (a short line, a point off the
    plane, or a pair seen on an earlier line) is located only once a count
    is wrong."""
    size = q * q
    bad = next(
        (idx for idx, line in enumerate(lines) if len(line) != q or min(line) < 1 or max(line) > size),
        len(lines),
    )
    points = np.array(lines[:bad], dtype=np.int64).reshape(bad, q) - 1
    left, right = np.triu_indices(q, 1)
    codes = (points[:, left] * size + points[:, right]).ravel()
    counts = np.bincount(codes, minlength=size * size)
    if counts.max() > 1:
        first_line = {}
        for at in np.flatnonzero(counts[codes] > 1).tolist():
            code = int(codes[at])
            if code in first_line:
                pair = (code // size + 1, code % size + 1)
                raise InvalidParameterError(f"pair {pair} on two lines ({first_line[code]}, {at // left.size})")
            first_line[code] = at // left.size
    if bad < len(lines):
        if len(lines[bad]) != q:
            raise InvalidParameterError(f"line {bad} has {len(lines[bad])} points, expected {q}")
        raise InvalidParameterError(f"line {bad} has a point outside 1..{size}")
    if codes.size != comb(size, 2):
        raise InvalidParameterError("some point pair lies on no line")


def line_cover_bound(q: int, u: int) -> Fraction:
    """Max number of distinct lines whose union misses u of the q*q points."""
    if not 0 <= u <= q * q:
        raise InvalidParameterError(f"u = {u} out of range 0..{q * q}")
    return Fraction((q + 1) * (q * q - u), u + q)


def verify_line_cover_bound(q: int, max_lines: int = 20):
    """Check the line-cover bound over every subset of lines, exhaustively.

    Only feasible for tiny planes (2**(q(q+1)) subsets).  Returns None on
    pass, else (subset_size, u, bound, line_indices).
    """
    plane = affine_lines(q)
    m = len(plane.lines)
    if m > max_lines:
        raise BudgetExceededError(f"2**{m} subsets is over the exhaustive budget")
    masks = []
    for line in plane.lines:
        pm = 0
        for p in line:
            pm |= 1 << (p - 1)
        masks.append(pm)
    unions = [0] * (1 << m)
    for bits in range(1, 1 << m):
        low = bits & -bits
        unions[bits] = unions[bits ^ low] | masks[low.bit_length() - 1]
    total = q * q
    for bits in range(1 << m):
        size = bits.bit_count()
        u = total - unions[bits].bit_count()
        if size > line_cover_bound(q, u):
            lines = tuple(i for i in range(m) if (bits >> i) & 1)
            return (size, u, line_cover_bound(q, u), lines)
    return None


def plane_family(n: int) -> CoveringFamily:
    """Covering family for {1..n} from the lines of the smallest fitting plane.

    Uses the first n points in row-major label order and intersects every
    line with them; declared parameters are (n, q(q+1), q, n, d).
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    q = minimal_prime_q(n)
    plane = affine_lines(q)
    params = FamilyParams(n, q * (q + 1), q, n, plane.d)
    sets = [tuple(p for p in line if p <= n) for line in plane.lines]
    return CoveringFamily(params, sets)


# -- family text format --------------------------------------------------------
#
# Line 1: "FAMILY <n> <m> <s> <l> <d>"; then m lines, each one set as sorted
# space-separated elements (an empty set is an empty line).


def family_to_text(family: CoveringFamily) -> str:
    p = family.params
    lines = [f"FAMILY {p.n} {p.m} {p.s} {p.l} {p.d}"]
    for s in family.sets:
        lines.append(" ".join(str(v) for v in s))
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> CoveringFamily:
    lines = text.splitlines()
    if not lines:
        raise InvalidParameterError("empty family file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "FAMILY":
        raise InvalidParameterError(f"bad family header: {lines[0]!r}")
    params = FamilyParams(*(parse_int(t, 1) for t in head[1:]))
    body = lines[1:]
    if len(body) != params.m:
        raise InvalidParameterError(f"expected {params.m} set lines, got {len(body)}")
    sets = [parse_ints(line, ln) for ln, line in enumerate(body, start=2)]
    return CoveringFamily(params, sets)


def write_family(family: CoveringFamily, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(family_to_text(family))


def read_family(path) -> CoveringFamily:
    with open(path, "r") as fh:
        return family_from_text(fh.read())
