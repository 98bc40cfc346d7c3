"""Ground-truth graph oracles, graph generators, and batch comparison drivers.

The oracles are one BFS and one walk DP, both bit-sliced over a chunk of
graphs and kept independent of the circuit constructions they check.  The
batch helpers pack one bit per graph into Python integers, so a circuit and
an oracle run on tens of thousands of graphs in one pass; every driver
feeds its chunks of graphs to one comparison loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random

import numpy as np

from .circuit import AdjacencyMatrix, MonotoneCircuit
from .errors import BudgetExceededError, InvalidParameterError
from .exactmath import _uniform_below, bernoulli_masks, child_seed, parse_int, twister_words

CHUNK_BITS = 16384  # graphs per draw chunk
# Bits of masks one evaluate_batch call of the random check may hold: a
# batch packs as many whole draw chunks as keep its input masks and
# circuit.live_peak() values, each of its width, within this, and at least
# one chunk.
EVAL_VALUE_BITS = 5 * 2**23
# Most walk-oracle steps a check may take: walks * n * n, each one AND and
# one OR over a batch's masks.
WALK_STEP_BUDGET = 1 << 22
# Most vertices a comparison driver accepts: one chunk at 256 vertices
# already holds 65,536 input masks of CHUNK_BITS bits.
MAX_CHECK_VERTICES = 256
PLANTED_NOISE_PROB = 0.05  # noise edge density of run_planted_check's planted graphs
NO_PATH_EDGE_PROB = 0.3  # edge density of run_planted_check's no-path graphs


# -- oracles -------------------------------------------------------------------


def _bfs_rounds(masks, width: int, n: int):
    """A layered BFS from vertex 1 on every graph of a chunk at once.

    Reads the per-entry masks: bit t of masks[(u-1)*n + (v-1)] is edge
    u -> v of graph t.  Yields, for rounds 0, 1, 2, ..., the graphs whose
    vertex n is first reached in that round, so round r's graphs are those
    at distance r; with n = 1 the source is the target, reached in round 0.
    frontier maps each vertex to the graphs whose BFS first reached it in
    the last round; n never enters it, and the graphs that reached n leave
    it.  Stops when no graph has a frontier left.
    """
    full = (1 << width) - 1
    d = n - 1
    if n == 1:
        yield full
        return
    yield 0
    seen = [0] * n
    seen[0] = seen[d] = full
    frontier = {0: full}
    reach = 0
    while frontier:
        new = _step(masks, n, frontier)
        yield new[d]
        reach |= new[d]
        live = full & ~reach
        frontier = {}
        for v in range(n):
            fv = new[v] & live & ~seen[v]
            if fv:
                seen[v] |= fv
                frontier[v] = fv


def _step(masks, n: int, frontier: dict) -> list[int]:
    """One edge on from a frontier, on every graph of a chunk at once:
    frontier maps vertex u (0-based) to a mask of graphs, and entry v of the
    result holds the graphs in which some frontier u has the edge u -> v."""
    new = [0] * n
    for u, fu in frontier.items():
        new = [acc | (e & fu) for acc, e in zip(new, masks[u * n : u * n + n])]
    return new


def _walk_masks(masks, width: int, n: int, walks: int) -> int:
    """Packed bits of the graphs of a chunk with a walk of exactly `walks`
    edges from 1 to n, by `walks` steps of the walk DP bit-sliced: the
    graphs whose walks so far can end at v, for every v at once."""
    ends = {0: (1 << width) - 1}
    for _ in range(walks):
        ends = {v: graphs for v, graphs in enumerate(_step(masks, n, ends)) if graphs}
        if not ends:
            return 0
    return ends.get(n - 1, 0)


# -- generators ----------------------------------------------------------------


def planted_path_graph(n: int, path_len: int, noise_prob: float, seed: int) -> AdjacencyMatrix:
    """A 1 -> n path of exactly path_len edges, then independent noise edges.

    Intermediate vertices are distinct and drawn from 2..n-1, so the planted
    path is simple; noise can only shorten the 1 -> n distance.  The graph
    is _planted_masks of one graph over Random(seed).
    """
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if not 1 <= path_len <= n - 1:
        raise InvalidParameterError(f"path_len {path_len} out of range 1..{n - 1}")
    if not 0.0 <= noise_prob <= 1.0:
        raise InvalidParameterError("noise_prob must be in [0, 1]")
    return _graphs_at(_planted_masks(Random(seed), n, [path_len], noise_prob), 1, n, [0])[0]


def no_path_graph(n: int, edge_prob: float, seed: int) -> AdjacencyMatrix:
    """Random graph with no 1 -> n path: vertices are split into a source
    side and a sink side and source->sink edges are withheld.  The graph is
    _no_path_masks of one graph over Random(seed)."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if not 0.0 <= edge_prob <= 1.0:
        raise InvalidParameterError("edge_prob must be in [0, 1]")
    return _graphs_at(_no_path_masks(Random(seed), n, 1, edge_prob), 1, n, [0])[0]


def _planted_masks(rng: Random, n: int, path_lens, noise_prob: float) -> list[int]:
    """Per-entry masks of len(path_lens) planted graphs: graph t holds a
    1 -> n path of path_lens[t] edges, ORed into noise edges of density
    noise_prob.

    Draws one 64-bit key per (graph, middle vertex), the words a single
    getrandbits would read, then the noise by bernoulli_entry_masks.  A
    stable sort of a graph's keys orders its middle vertices uniformly; the
    path runs from 1 through the first path_lens[t] - 1 of them to n.
    """
    k, m = len(path_lens), n - 2
    with twister_words(rng) as draw:  # each key's low word first, as getrandbits reads them
        keys = draw(2 * k * m).astype("<u4", copy=False).view("<u8")
    verts = np.full((k, n), n - 1)  # 0-based: 1, the middle vertices in key order, n
    verts[:, 0] = 0
    verts[:, 1 : n - 1] = np.argsort(keys.reshape(k, m), axis=1, kind="stable") + 1
    graphs, lens = np.arange(k), np.asarray(path_lens)
    verts[graphs, lens] = n - 1  # the path ends at n after its lens[t] edges
    on_path = np.arange(n - 1) < lens[:, None]
    entries = (verts[:, :-1] * n + verts[:, 1:])[on_path]
    at = np.broadcast_to(graphs[:, None], on_path.shape)[on_path]
    path = np.zeros((n * n, (k + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(path, (entries, at >> 3), (1 << (at & 7)).astype(np.uint8))
    del keys, verts, on_path, entries, at  # freed before the noise is drawn
    masks = bernoulli_entry_masks(rng, n, k, noise_prob)
    for e, bits in enumerate(path):  # in place, so each noise mask is freed as it is replaced
        masks[e] |= int.from_bytes(bits.tobytes(), "little")
    return masks


def _no_path_masks(rng: Random, n: int, width: int, edge_prob: float) -> list[int]:
    """Per-entry masks of `width` graphs with no 1 -> n path.

    Draws a sink-side mask for each vertex by bernoulli_masks(rng, n,
    width, 0.5), then the edges by bernoulli_entry_masks.  Vertex 1 is on
    the source side and n on the sink side, whatever their draws; an edge
    from the source side to the sink side is withheld.
    """
    sink = bernoulli_masks(rng, n, width, 0.5)
    sink[0], sink[n - 1] = 0, (1 << width) - 1
    edges = bernoulli_entry_masks(rng, n, width, edge_prob)
    for e in range(n * n):
        edges[e] &= ~(~sink[e // n] & sink[e % n])
    return edges


# -- graph text format ----------------------------------------------------------
#
# Line 1: "GRAPH <n>" with n >= 1; then n lines of n characters in {0,1};
# row i lists the out-edges of vertex i.  A blank line is an error, as in
# MCIRC files.


def graph_to_text(matrix: AdjacencyMatrix) -> str:
    lines = [f"GRAPH {matrix.n}"]
    for i in range(1, matrix.n + 1):
        lines.append("".join(str(matrix.entry(i, j)) for j in range(1, matrix.n + 1)))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> AdjacencyMatrix:
    lines = text.splitlines()
    if not lines:
        raise InvalidParameterError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "GRAPH":
        raise InvalidParameterError(f"bad graph header: {lines[0]!r}")
    n = parse_int(head[1], 1)
    if n < 1:
        raise InvalidParameterError(f"line 1: a graph needs n >= 1 vertices, got n = {n}")
    for ln, row in enumerate(lines[1:], start=2):
        if not row.strip():
            raise InvalidParameterError(f"line {ln}: blank line in graph file")
    if len(lines) != n + 1:
        raise InvalidParameterError(f"expected {n} rows, got {len(lines) - 1}")
    m = AdjacencyMatrix(n)
    for i, row in enumerate(lines[1:]):
        if len(row) != n or set(row) - {"0", "1"}:
            raise InvalidParameterError(f"bad graph row {i + 1}: {row!r}")
        m.rows[i] = int(row[::-1], 2)
    return m


def read_graph(path) -> AdjacencyMatrix:
    with open(path, "r") as fh:
        return graph_from_text(fh.read())


# -- bit-parallel packing --------------------------------------------------------


def exhaustive_input_masks(n: int) -> tuple[list[int], int]:
    """Input masks covering all 2**(n*n) graphs at once (bit t = graph t)."""
    if n > 4:
        raise BudgetExceededError(f"2**{n * n} graphs is over the exhaustive budget (n <= 4)")
    e_count = n * n
    width = 1 << e_count
    ones = (1 << width) - 1
    masks = []
    for e in range(e_count):
        block = 1 << e
        rep = ones // ((1 << (2 * block)) - 1)  # one bit every 2*block positions
        masks.append(rep * (((1 << block) - 1) << block))
    return masks, width


def _transpose_bits(rows, row_bits: int) -> list[int]:
    """Transpose a bit matrix held as ints: bit b of result c is bit c of rows[b]."""
    count = len(rows)
    if count == 0:
        return [0] * row_bits
    nbytes = (row_bits + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(count, nbytes)
    bits = np.unpackbits(arr, axis=1, bitorder="little")[:, :row_bits]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(packed[c].tobytes(), "little") for c in range(row_bits)]


def graph_ints_to_masks(graph_ints, n: int) -> list[int]:
    """Transpose per-graph packed matrices into per-entry masks."""
    return _transpose_bits(graph_ints, n * n)


def masks_to_graph_ints(masks, width: int) -> list[int]:
    """Inverse of graph_ints_to_masks for a chunk of `width` graphs."""
    return _transpose_bits(masks, width)


def bernoulli_entry_masks(rng: Random, n: int, width: int, p: float) -> list[int]:
    """Per-entry Bernoulli masks for a chunk of `width` random graphs.

    Entry order is the input wire order; the draw schedule (entry-major) is
    part of the documented sampling scheme.
    """
    return bernoulli_masks(rng, n * n, width, p)


def _graph_int_rows(g: int, n: int) -> list[int]:
    """The n row masks of a graph packed into one int, bit (i-1)*n + (j-1)
    for edge i -> j."""
    full = (1 << n) - 1
    return [(g >> (i * n)) & full for i in range(n)]


# -- comparison drivers -----------------------------------------------------------


@dataclass
class CheckReport:
    checked: int
    skipped: int
    mismatches: list  # (AdjacencyMatrix, expected, got)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _oracle_masks(masks, width: int, n: int, l: int | None):
    """Packed reachability bits for 1 -> n, plus the promise mask for budget l:
    the graphs whose 1 -> n distance is at most l, or that never reach n."""
    reach = 0
    outside = 0  # reachable, but only by paths longer than l
    for dist, hit in enumerate(_bfs_rounds(masks, width, n)):
        reach |= hit
        if l is not None and dist > l:
            outside |= hit
    return reach, ((1 << width) - 1) & ~outside


def _check_circuit(circuit: MonotoneCircuit, n: int) -> None:
    """Precondition of every comparison driver: n is the circuit's size
    (checked first, so a refusal never prints a huge n), within the vertex
    budget, and one output."""
    if circuit.num_vertices != n:
        raise InvalidParameterError("circuit size does not match n")
    if n > MAX_CHECK_VERTICES:
        raise BudgetExceededError(
            f"checking circuits over {n} vertices is over the budget of {MAX_CHECK_VERTICES} vertices"
        )
    if len(circuit.outputs) != 1:
        raise InvalidParameterError(
            f"comparison needs a circuit with exactly one output, got {len(circuit.outputs)}"
        )


def _graphs_at(masks, width: int, n: int, picks: list[int]) -> list[AdjacencyMatrix]:
    """The graphs at positions `picks` of a chunk of `width` graphs, read
    from its per-entry masks: the chunk is laid out as bytes once, and only
    the picked graphs' bits are read from it, so nothing is transposed."""
    nbytes = (width + 7) // 8
    grid = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), dtype=np.uint8)
    grid = grid.reshape(len(masks), nbytes)
    at = np.array(picks)
    bits = (grid[:, at >> 3] >> (at & 7).astype(np.uint8)) & 1  # [entry, pick]
    packed = np.packbits(bits, axis=0, bitorder="little")
    return [AdjacencyMatrix(n, _graph_int_rows(int.from_bytes(col.tobytes(), "little"), n)) for col in packed.T]


def _compare(circuit: MonotoneCircuit, chunks, max_report: int) -> CheckReport:
    """Evaluate each (masks, width, expected, promise) chunk and collect the
    mismatches inside the promise, in graph order, up to max_report.  Only
    the graphs reported are read out of a chunk's masks."""
    n = circuit.num_vertices
    checked = 0
    skipped = 0
    mism: list = []
    for masks, width, expected, promise in chunks:
        out = circuit.evaluate_batch(masks)[0]
        bad = (out ^ expected) & promise
        checked += width
        skipped += width - promise.bit_count()
        picks = []
        while bad and len(mism) + len(picks) < max_report:
            low = bad & -bad
            picks.append(low.bit_length() - 1)
            bad ^= low
        if picks:
            graphs = _graphs_at(masks, width, n, picks)
            mism += [(g, (expected >> t) & 1, (out >> t) & 1) for g, t in zip(graphs, picks)]
        del masks  # not held while the next chunk is drawn
    return CheckReport(checked, skipped, mism)


def _expected(masks, width: int, n: int, l: int | None, walks: int | None) -> tuple[int, int]:
    """(expected, promise) of a chunk: 1 -> n reachability under the
    promise of budget l, or, with `walks`, whether a walk of exactly that
    many edges runs 1 -> n, on every graph."""
    if walks is None:
        return _oracle_masks(masks, width, n, l)
    return _walk_masks(masks, width, n, walks), (1 << width) - 1


def run_exhaustive_check(
    circuit: MonotoneCircuit, n: int, max_report: int = 4, walks: int | None = None, l: int | None = None
) -> CheckReport:
    """Compare the circuit against BFS on every graph over n vertices, or,
    with `walks`, against the walks of exactly that many edges.  With a
    length budget l, graphs whose shortest 1 -> n path exceeds l are
    outside the promise and are skipped."""
    _check_circuit(circuit, n)
    _check_budget(l)
    _check_walks(n, walks, l)
    masks, width = exhaustive_input_masks(n)
    return _compare(circuit, [(masks, width, *_expected(masks, width, n, l, walks))], max_report)


def _check_budget(l: int | None) -> None:
    """Precondition on the length budget of every driver: a promise that
    no graph could meet must not pass."""
    if l is not None and l < 1:
        raise InvalidParameterError(f"length budget l must be at least 1, got {l}")


def _check_draws(samples: int, l: int | None) -> None:
    """Precondition on the sample count and length budget of the random and
    planted drivers: a check that would run no graph must not pass."""
    if samples < 1:
        raise InvalidParameterError(f"samples must be at least 1, got {samples}")
    _check_budget(l)


def _check_walks(n: int, walks: int | None, l: int | None) -> None:
    """Precondition on the walk length of the exhaustive and random drivers:
    at least one edge, no length budget beside it, and within
    WALK_STEP_BUDGET steps."""
    if walks is None:
        return
    if walks < 1:
        raise InvalidParameterError(f"walk length must be at least 1, got {walks}")
    if l is not None:
        raise InvalidParameterError("a walk length and a length budget l do not combine")
    if walks * n * n > WALK_STEP_BUDGET:
        raise BudgetExceededError(
            f"walks of {walks} edges over {n} vertices take {walks * n * n} steps, "
            f"over the budget of {WALK_STEP_BUDGET}"
        )


def _random_chunks(n: int, samples: int, seed: int, densities):
    """(masks, width) of each draw chunk of the random check, in draw order.

    Each density draws its share from its own seeded Random, CHUNK_BITS
    graphs at a time; the first density takes the remainder.
    """
    share = samples // len(densities)
    for pi, p in enumerate(densities):
        todo = samples - share * (len(densities) - 1) if pi == 0 else share
        rng = Random(child_seed(seed, f"random:n={n}:p={p}"))
        while todo > 0:
            width = min(todo, CHUNK_BITS)
            yield bernoulli_entry_masks(rng, n, width, p), width
            todo -= width


def random_batch_width(circuit: MonotoneCircuit) -> int:
    """Most graphs the random check evaluates in one evaluate_batch call:
    the whole draw chunks whose input masks and circuit.live_peak() values
    fit in EVAL_VALUE_BITS, and at least one chunk."""
    masks = circuit.num_inputs + circuit.live_peak()
    return CHUNK_BITS * max(1, EVAL_VALUE_BITS // (masks * CHUNK_BITS))


def _joined(held: list) -> list[int]:
    """Per entry, the masks of the consecutive (masks, width) chunks in held
    joined into one int, each chunk's graphs after those of the chunks
    before it.  Neighbours join pairwise, so k chunks take ceil(log2 k)
    rounds, each copying every bit once.  Empties held as it goes, so the
    chunks are freed once joined."""
    while len(held) > 1:
        pairs = [
            ([a | (b << wa) for a, b in zip(ma, mb)], wa + wb)
            for (ma, wa), (mb, wb) in zip(held[0::2], held[1::2])
        ]
        held[:] = pairs + held[len(pairs) * 2 :]
    return held.pop()[0]


def _batches(chunks, limit: int):
    """Pack consecutive (masks, width) chunks into batches of at most limit
    graphs: a chunk's graphs follow the batch's earlier graphs, and a chunk
    that would overflow the batch flushes it first.  A batch of limit
    graphs is yielded as soon as it fills, before the next chunk is drawn."""
    held, width = [], 0
    for masks, w in chunks:
        if width + w > limit:
            yield _joined(held), width
            width = 0
        held.append((masks, w))
        del masks  # only held keeps the chunk, so joining it frees it
        width += w
        if width == limit:
            yield _joined(held), width
            width = 0
    if held:
        yield _joined(held), width


def run_random_check(
    circuit: MonotoneCircuit,
    n: int,
    samples: int,
    seed: int,
    densities=(0.02, 0.1, 0.5),
    l: int | None = None,
    max_report: int = 4,
    walks: int | None = None,
) -> CheckReport:
    """Compare against BFS on seeded random graphs at the given densities.

    With a length budget l, graphs whose shortest 1 -> n path exceeds l are
    outside the promise and are skipped, not counted as mismatches.  With
    `walks`, the expected bit is whether a walk of exactly that many edges
    runs 1 -> n instead.  The draws of consecutive densities share
    evaluation batches of up to random_batch_width(circuit) graphs, so the
    graphs and the report do not depend on how they are batched.
    """
    _check_circuit(circuit, n)
    _check_draws(samples, l)
    _check_walks(n, walks, l)
    if not densities:
        raise InvalidParameterError("densities must not be empty")
    for p in densities:
        if not 0.0 <= p <= 1.0:  # also refuses NaN
            raise InvalidParameterError(f"edge density p must be in [0, 1], got {p}")
    chunks = _random_chunks(n, samples, seed, densities)
    # The first chunk is drawn before the plan that sizes the batches is
    # built: planned first, checking explicit n=64 peaked at 174 MB RSS
    # instead of 156 MB (CPython 3.11, glibc malloc).  Only _batches keeps
    # the chunk once it is passed on.
    chunks = itertools.chain(iter([next(chunks)]), chunks)
    batches = _batches(chunks, random_batch_width(circuit))
    return _compare(circuit, ((m, w, *_expected(m, w, n, l, walks)) for m, w in batches), max_report)


def run_planted_check(
    circuit: MonotoneCircuit,
    n: int,
    samples: int,
    seed: int,
    l: int | None = None,
    max_report: int = 4,
) -> CheckReport:
    """Planted-path graphs (expected 1) in the first half of each chunk and
    no-path graphs (expected 0) in the second; path lengths stay within the
    budget l, and each planted graph adds noise edges with probability
    PLANTED_NOISE_PROB."""
    _check_circuit(circuit, n)
    _check_draws(samples, l)
    if n < 2:
        raise InvalidParameterError(f"planted graphs need at least 2 vertices, got n = {n}")
    return _compare(circuit, _planted_chunks(n, samples, seed, l), max_report)


def _planted_chunks(n: int, samples: int, seed: int, l: int | None):
    """(masks, width, expected, promise) of each chunk of the planted check.

    One Random draws every chunk in turn.  In a chunk of w graphs, the
    first ceil(w / 2) plant a path of 1..min(l, n - 1) edges and the rest
    have none; every graph is inside the promise.
    """
    limit = min(l, n - 1) if l is not None else n - 1
    rng = Random(child_seed(seed, f"planted:n={n}:l={limit}"))
    for done in range(0, samples, CHUNK_BITS):
        width = min(samples - done, CHUNK_BITS)
        k = (width + 1) // 2
        path_lens = _uniform_below(rng, limit, k) + 1
        planted = _planted_masks(rng, n, path_lens, PLANTED_NOISE_PROB)
        no_path = _no_path_masks(rng, n, width - k, NO_PATH_EDGE_PROB)
        for e, mask in enumerate(no_path):
            planted[e] |= mask << k
        del no_path  # not held while the chunk is evaluated
        yield planted, width, (1 << k) - 1, (1 << width) - 1
        del planted  # nor the chunk while the next one is drawn
