"""Ground-truth graph oracles, generators, and batch comparison drivers.

Oracles are one bit-sliced BFS and a walk DP over adjacency bitmasks, kept
independent of the circuit constructions they check.  The batch helpers
pack one bit per graph into Python integers, so a circuit and the BFS run
on tens of thousands of graphs in one pass; every driver feeds its chunks
of graphs to one comparison loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from .circuit import AdjacencyMatrix, MonotoneCircuit
from .errors import BudgetExceededError, InvalidParameterError
from .exactmath import bernoulli_digits, bernoulli_mask, child_seed, parse_int, randbelow

CHUNK_BITS = 16384  # graphs per evaluation batch
# Most vertices a comparison driver accepts: one chunk at 256 vertices
# already holds 65,536 input masks of CHUNK_BITS bits.
MAX_CHECK_VERTICES = 256
PLANTED_NOISE_PROB = 0.05  # noise edge density of run_planted_check's planted graphs
NO_PATH_EDGE_PROB = 0.3  # edge density of run_planted_check's no-path graphs


# -- oracles -------------------------------------------------------------------


def _check_vertex(matrix: AdjacencyMatrix, v: int) -> None:
    if not 1 <= v <= matrix.n:
        raise InvalidParameterError(f"vertex {v} out of range 1..{matrix.n}")


def bfs_reachable(matrix: AdjacencyMatrix, src: int, dst: int) -> bool:
    _check_vertex(matrix, src)
    _check_vertex(matrix, dst)
    return any(_bfs_rounds(matrix.input_bits(), 1, matrix.n, src, dst))


def shortest_path_length(matrix: AdjacencyMatrix, src: int, dst: int) -> int | None:
    """BFS distance in edges, or None when dst is unreachable from src."""
    _check_vertex(matrix, src)
    _check_vertex(matrix, dst)
    for dist, hit in enumerate(_bfs_rounds(matrix.input_bits(), 1, matrix.n, src, dst)):
        if hit:
            return dist
    return None


def _bfs_rounds(masks, width: int, n: int, src: int, dst: int):
    """A layered BFS from src on every graph of a chunk at once.

    Reads the per-entry masks: bit t of masks[(u-1)*n + (v-1)] is edge
    u -> v of graph t.  Yields, for rounds 0, 1, 2, ..., the graphs whose
    dst is first reached in that round, so round r's graphs are those at
    distance r.  frontier maps each vertex to the graphs whose BFS first
    reached it in the last round; dst never enters it, and the graphs that
    reached dst leave it.  Stops when no graph has a frontier left.
    """
    full = (1 << width) - 1
    s, d = src - 1, dst - 1
    if s == d:
        yield full
        return
    yield 0
    seen = [0] * n
    seen[s] = seen[d] = full
    frontier = {s: full}
    reach = 0
    while frontier:
        new = [0] * n
        for u, fu in frontier.items():
            new = [acc | (e & fu) for acc, e in zip(new, masks[u * n : u * n + n])]
        yield new[d]
        reach |= new[d]
        live = full & ~reach
        frontier = {}
        for v in range(n):
            fv = new[v] & live & ~seen[v]
            if fv:
                seen[v] |= fv
                frontier[v] = fv


def exact_length_walk_exists(matrix: AdjacencyMatrix, src: int, dst: int, l: int) -> bool:
    """Whether some walk of exactly l edges runs src -> dst (vertices may repeat).

    A walk DP, not a BFS: vertices may be revisited, so there is no visited set.
    """
    _check_vertex(matrix, src)
    _check_vertex(matrix, dst)
    if l < 0:
        raise InvalidParameterError("l must be >= 0")
    frontier = 1 << (src - 1)
    for _ in range(l):
        nxt = 0  # the OR of the frontier's rows: every vertex one edge on
        while frontier:
            low = frontier & -frontier
            nxt |= matrix.rows[low.bit_length() - 1]
            frontier ^= low
        if not nxt:
            return False
        frontier = nxt
    return bool(frontier & (1 << (dst - 1)))


# -- generators ----------------------------------------------------------------


def enumerate_graphs(n: int):
    """All 2**(n*n) adjacency matrices in index order (bit e of the index is
    input entry e).  Guarded to n <= 4."""
    if n > 4:
        raise BudgetExceededError(f"2**{n * n} graphs is over the exhaustive budget (n <= 4)")
    for t in range(1 << (n * n)):
        yield graph_from_index(n, t)


def graph_from_index(n: int, t: int) -> AdjacencyMatrix:
    return AdjacencyMatrix(n, _graph_int_rows(t, n))


def random_graph(n: int, edge_prob: float, seed: int) -> AdjacencyMatrix:
    """Independent edges with probability edge_prob (quantized to 2**-24)."""
    if not 0.0 <= edge_prob <= 1.0:
        raise InvalidParameterError("edge_prob must be in [0, 1]")
    rng = Random(seed)
    bits = bernoulli_mask(rng, n * n, edge_prob)
    return AdjacencyMatrix(n, _graph_int_rows(bits, n))


def planted_path_graph(n: int, path_len: int, noise_prob: float, seed: int) -> AdjacencyMatrix:
    """A 1 -> n path of exactly path_len edges, then independent noise edges.

    Intermediate vertices are distinct and drawn from 2..n-1, so the planted
    path is simple; noise can only shorten the 1 -> n distance.  The graph
    is one lane of planted_entry_masks.
    """
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if not 1 <= path_len <= n - 1:
        raise InvalidParameterError(f"path_len {path_len} out of range 1..{n - 1}")
    if not 0.0 <= noise_prob <= 1.0:
        raise InvalidParameterError("noise_prob must be in [0, 1]")
    return _one_lane(n, seed, path_len, noise_prob)


def no_path_graph(n: int, edge_prob: float, seed: int) -> AdjacencyMatrix:
    """Random graph with no 1 -> n path: vertices are split into a source
    side and a sink side and source->sink edges are withheld.  The graph is
    one lane of planted_entry_masks."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if not 0.0 <= edge_prob <= 1.0:
        raise InvalidParameterError("edge_prob must be in [0, 1]")
    return _one_lane(n, seed, 0, edge_prob)


def _one_lane(n: int, seed: int, path_len: int, p: float) -> AdjacencyMatrix:
    masks = planted_entry_masks(n, [seed], [path_len], p, p)
    return AdjacencyMatrix(n, [sum(masks[i * n + j] << j for j in range(n)) for i in range(n)])


# -- planted graphs, a chunk at a time ---------------------------------------------
#
# Graph t of a chunk seeds its own Random with seeds[t] and draws, in order:
#   planted (path_lens[t] >= 1): sample_distinct(rng, path_len - 1, n - 2),
#     then the Fisher-Yates swaps of the sorted picks (randbelow(rng, i + 1)
#     for i from path_len - 2 down to 1), then bernoulli_mask(rng, n*n, noise);
#   no-path (path_lens[t] == 0): bernoulli_mask(rng, n, 0.5) for its sink
#     side, then bernoulli_mask(rng, n*n, edge_prob).
# CPython's getrandbits(k) takes ceil(k / 32) Mersenne Twister (MT19937)
# words, least significant first, and shifts the top one down to the bits
# it keeps, so one getrandbits(32 * W) per graph yields every word the
# graph reads.  The draws then run lane-parallel over those words, one
# cursor per lane.

_DRAW_WORDS = 2  # MT words budgeted per randbelow draw of a planted path
_MAX_LANES = 2048  # graphs per generation sub-batch
_LANE_WORDS = 1 << 20  # MT words held per sub-batch, so large n takes fewer lanes


def _word_budget(n: int, path_lens: np.ndarray, noise_prob: float, edge_prob: float) -> int:
    """MT words drawn per graph: every word a no-path graph reads, and a
    planted graph's noise words plus _DRAW_WORDS per randbelow draw."""
    entry_words = (n * n + 31) // 32
    need = 1
    top = int(path_lens.max(initial=0))
    if top:
        draws = max(2 * top - 3, 0)  # sample_distinct, then the Fisher-Yates swaps
        need = max(need, _DRAW_WORDS * draws + len(bernoulli_digits(noise_prob)) * entry_words)
    if not path_lens.all():
        need = max(need, (n + 31) // 32 + len(bernoulli_digits(edge_prob)) * entry_words)
    return need


def _lane_randbelow(words, cursor, k, active, over) -> np.ndarray:
    """randbelow(rng, k) of every active lane, k one bound or one per lane.

    Each try reads the word at the lane's cursor and advances it.  A lane
    whose cursor runs past its words is marked in `over` and stops drawing.
    """
    k = np.broadcast_to(k, cursor.shape)
    shift = (32 - np.frexp(k)[1]).astype(np.uint32)  # 32 - k.bit_length()
    got = np.zeros(cursor.shape, dtype=np.int64)
    todo = np.flatnonzero(active & ~over)
    while todo.size:
        c = cursor[todo]
        fits = c < words.shape[1]
        over[todo[~fits]] = True
        todo, c = todo[fits], c[fits]
        r = words[todo, c] >> shift[todo]
        cursor[todo] += 1
        ok = r < k[todo]
        got[todo[ok]] = r[ok]
        todo = todo[~ok]
    return got


def _lane_bernoulli(words, cursor, k: int, p: float, over) -> np.ndarray:
    """bernoulli_mask(rng, k, p) of every lane, as bools (lanes, k), read from
    each lane's cursor on.  Advances the cursors past the words it reads and
    marks in `over` the lanes that run past their words."""
    digits = bernoulli_digits(p)
    if not digits:
        return np.full((len(cursor), k), p >= 1.0)
    m = (k + 31) // 32
    idx = cursor[:, None] + np.arange(len(digits) * m)
    cursor += len(digits) * m
    over |= cursor > words.shape[1]
    draws = np.take_along_axis(words, np.minimum(idx, words.shape[1] - 1), axis=1).reshape(-1, len(digits), m)
    draws[:, :, -1] >>= np.uint32(32 * m - k)
    acc = draws[:, 0]
    for d, digit in enumerate(digits[1:], 1):
        acc = (acc | draws[:, d]) if digit else (acc & draws[:, d])
    acc = np.ascontiguousarray(acc, dtype="<u4").view(np.uint8)
    return np.unpackbits(acc, axis=1, count=k, bitorder="little").view(bool)


def _planted_lanes(words, n: int, path_lens: np.ndarray, noise_prob: float):
    """Planted graphs as bools (lanes, n*n), and the lanes that ran out of words."""
    lanes = len(path_lens)
    rows = np.arange(lanes)
    cursor = np.zeros(lanes, dtype=np.int64)
    over = np.zeros(lanes, dtype=bool)
    counts = path_lens - 1  # intermediate vertices
    top = int(counts.max())
    # sample_distinct: a partial Fisher-Yates over labels 0..n-3, dense
    perm = np.tile(np.arange(n - 2), (lanes, 1))
    picked = np.full((lanes, top), n - 2)  # past a lane's count: sorts last
    for i in range(top):
        act = counts > i
        j = i + _lane_randbelow(words, cursor, n - 2 - i, act, over)
        a, ja = rows[act], j[act]
        picked[a, i] = perm[a, ja]
        perm[a, ja] = perm[a, i]
    picked.sort(axis=1)
    # Fisher-Yates over each lane's sorted picks, from its last one down
    for t in range(top - 1):
        i = counts - 1 - t
        act = i >= 1
        j = _lane_randbelow(words, cursor, i + 1, act, over)
        a, ia, ja = rows[act], i[act], j[act]
        picked[a, ia], picked[a, ja] = picked[a, ja], picked[a, ia]
    # path 1 -> picks -> n, as 0-based vertices: label x is vertex x + 2
    verts = np.empty((lanes, top + 2), dtype=np.int64)
    verts[:, 0] = 0
    verts[:, 1:-1] = picked + 1
    verts[rows, counts + 1] = n - 1
    on_path = np.arange(top + 1) <= counts[:, None]
    graphs = _lane_bernoulli(words, cursor, n * n, noise_prob, over)
    entries = verts[:, :-1] * n + verts[:, 1:]
    graphs[np.broadcast_to(rows[:, None], on_path.shape)[on_path], entries[on_path]] = True
    return graphs, over


def _no_path_lanes(words, n: int, edge_prob: float):
    """No-path graphs as bools (lanes, n*n), and the lanes that ran out of words."""
    lanes = len(words)
    cursor = np.zeros(lanes, dtype=np.int64)
    over = np.zeros(lanes, dtype=bool)
    sink = _lane_bernoulli(words, cursor, n, 0.5, over)
    sink[:, n - 1] = True  # vertex n is on the sink side, vertex 1 is not
    sink[:, 0] = False
    graphs = _lane_bernoulli(words, cursor, n * n, edge_prob, over)
    cut = ~sink[:, :, None] & sink[:, None, :]  # source side -> sink side
    graphs &= ~cut.reshape(lanes, n * n)
    return graphs, over


def _lane_graphs(n: int, seeds, path_lens: np.ndarray, noise_prob: float, edge_prob: float, words: int):
    """Graphs of one lane per seed as bools (lanes, n*n), entry (i-1)*n + (j-1)
    for edge i -> j; path_lens[t] is lane t's planted path, 0 for no-path.

    Each lane reads the first `words` MT words of Random(seeds[t]).  A lane
    that needs more is drawn again with twice the words, never cut short.
    """
    rng = Random()

    def draw(s: int) -> bytes:
        rng.seed(s)
        return rng.getrandbits(32 * words).to_bytes(4 * words, "little")

    mt = np.frombuffer(b"".join(map(draw, seeds)), dtype="<u4").reshape(len(seeds), words)
    graphs = np.empty((len(seeds), n * n), dtype=bool)
    over = np.zeros(len(seeds), dtype=bool)
    planted = np.flatnonzero(path_lens)
    no_path = np.flatnonzero(path_lens == 0)
    if planted.size:
        graphs[planted], over[planted] = _planted_lanes(mt[planted], n, path_lens[planted], noise_prob)
    if no_path.size:
        graphs[no_path], over[no_path] = _no_path_lanes(mt[no_path], n, edge_prob)
    if over.any():
        redo = np.flatnonzero(over)
        graphs[redo] = _lane_graphs(n, [seeds[t] for t in redo], path_lens[redo], noise_prob, edge_prob, 2 * words)
    return graphs


def planted_entry_masks(n: int, seeds, path_lens, noise_prob: float, edge_prob: float) -> list[int]:
    """Per-entry masks of a chunk of planted and no-path graphs: bit t of
    masks[(i-1)*n + (j-1)] is edge i -> j of the graph seeded by seeds[t],
    which plants a path of path_lens[t] edges, or none when it is 0.

    Lane t holds the graph planted_path_graph(n, path_lens[t], noise_prob,
    seeds[t]) or no_path_graph(n, edge_prob, seeds[t]) returns, bit for bit.
    """
    path_lens = np.asarray(path_lens, dtype=np.int64)
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if not 0 <= path_lens.min(initial=0) <= path_lens.max(initial=0) <= n - 1:
        raise InvalidParameterError(f"path lengths must be in 0..{n - 1}")
    words = _word_budget(n, path_lens, noise_prob, edge_prob)
    step = max(8, min(_MAX_LANES, _LANE_WORDS // words) // 8 * 8)
    packed = np.empty((n * n, (len(seeds) + 7) // 8), dtype=np.uint8)
    for s in range(0, len(seeds), step):
        graphs = _lane_graphs(n, seeds[s : s + step], path_lens[s : s + step], noise_prob, edge_prob, words)
        packed[:, s // 8 : (s + len(graphs) + 7) // 8] = np.packbits(graphs, axis=0, bitorder="little").T
    return [int.from_bytes(entry.tobytes(), "little") for entry in packed]


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


def write_graph(matrix: AdjacencyMatrix, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(graph_to_text(matrix))


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
    digits = bernoulli_digits(p)
    return [bernoulli_mask(rng, width, p, digits) for _ in range(n * n)]


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
    for dist, hit in enumerate(_bfs_rounds(masks, width, n, 1, n)):
        reach |= hit
        if l is not None and dist > l:
            outside |= hit
    return reach, ((1 << width) - 1) & ~outside


def _check_circuit(circuit: MonotoneCircuit, n: int) -> None:
    """Precondition of every comparison driver: n vertices, within the
    vertex budget, and one output."""
    if n > MAX_CHECK_VERTICES:
        raise BudgetExceededError(
            f"checking circuits over {n} vertices is over the budget of {MAX_CHECK_VERTICES} vertices"
        )
    if circuit.num_vertices != n:
        raise InvalidParameterError("circuit size does not match n")
    if len(circuit.outputs) != 1:
        raise InvalidParameterError(
            f"comparison needs a circuit with exactly one output, got {len(circuit.outputs)}"
        )


def _compare(circuit: MonotoneCircuit, chunks, max_report: int) -> CheckReport:
    """Evaluate each (masks, width, expected, promise) chunk and collect the
    mismatches inside the promise, in graph order, up to max_report.  A
    chunk is transposed into per-graph ints only when it has a mismatch
    left to report."""
    n = circuit.num_vertices
    checked = 0
    skipped = 0
    mism: list = []
    for masks, width, expected, promise in chunks:
        out = circuit.evaluate_batch(masks)[0]
        bad = (out ^ expected) & promise
        checked += width
        skipped += width - promise.bit_count()
        if not bad or len(mism) >= max_report:
            continue
        graph_ints = masks_to_graph_ints(masks, width)
        while bad and len(mism) < max_report:
            low = bad & -bad
            t = low.bit_length() - 1
            mism.append((AdjacencyMatrix(n, _graph_int_rows(graph_ints[t], n)), (expected >> t) & 1, (out >> t) & 1))
            bad ^= low
    return CheckReport(checked, skipped, mism)


def run_exhaustive_check(circuit: MonotoneCircuit, n: int, max_report: int = 4) -> CheckReport:
    """Compare the circuit against BFS on every graph over n vertices."""
    _check_circuit(circuit, n)
    masks, width = exhaustive_input_masks(n)
    return _compare(circuit, [(masks, width, *_oracle_masks(masks, width, n, None))], max_report)


def _check_draws(samples: int, l: int | None) -> None:
    """Precondition on the sample count and length budget of the random and
    planted drivers: a check that would run no graph must not pass."""
    if samples < 1:
        raise InvalidParameterError(f"samples must be at least 1, got {samples}")
    if l is not None and l < 1:
        raise InvalidParameterError(f"length budget l must be at least 1, got {l}")


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


def _batches(chunks):
    """Pack consecutive (masks, width) chunks into batches of at most
    CHUNK_BITS graphs: a chunk's graphs follow the batch's earlier graphs,
    and a chunk that would overflow the batch flushes it first."""
    batch, width = None, 0
    for masks, w in chunks:
        if width + w > CHUNK_BITS:
            yield batch, width
            batch, width = None, 0
        batch = masks if batch is None else [m | (c << width) for m, c in zip(batch, masks)]
        width += w
    if width:
        yield batch, width


def run_random_check(
    circuit: MonotoneCircuit,
    n: int,
    samples: int,
    seed: int,
    densities=(0.02, 0.1, 0.5),
    l: int | None = None,
    max_report: int = 4,
) -> CheckReport:
    """Compare against BFS on seeded random graphs at the given densities.

    With a length budget l, graphs whose shortest 1 -> n path exceeds l are
    outside the promise and are skipped, not counted as mismatches.  The
    draws of consecutive densities share evaluation batches, so the graphs
    and the report do not depend on how they are batched.
    """
    _check_circuit(circuit, n)
    _check_draws(samples, l)
    if not densities:
        raise InvalidParameterError("densities must not be empty")
    for p in densities:
        if not 0.0 <= p <= 1.0:  # also refuses NaN
            raise InvalidParameterError(f"edge density p must be in [0, 1], got {p}")
    batches = _batches(_random_chunks(n, samples, seed, densities))
    return _compare(circuit, ((m, w, *_oracle_masks(m, w, n, l)) for m, w in batches), max_report)


def run_planted_check(
    circuit: MonotoneCircuit,
    n: int,
    samples: int,
    seed: int,
    l: int | None = None,
    max_report: int = 4,
) -> CheckReport:
    """Planted-path graphs (expected 1) alternating with no-path graphs
    (expected 0); path lengths stay within the budget l, and each planted
    graph adds noise edges with probability PLANTED_NOISE_PROB."""
    _check_circuit(circuit, n)
    _check_draws(samples, l)
    if n < 2:
        raise InvalidParameterError(f"planted graphs need at least 2 vertices, got n = {n}")
    return _compare(circuit, _planted_chunks(n, samples, seed, l), max_report)


def _planted_chunks(n: int, samples: int, seed: int, l: int | None):
    """(masks, width, expected, promise) of each chunk of the planted check:
    even graphs plant a path of 1..min(l, n - 1) edges, odd graphs have none,
    and every graph is inside the promise."""
    limit = min(l, n - 1) if l is not None else n - 1
    rng = Random(child_seed(seed, f"planted:n={n}:l={limit}"))
    for done in range(0, samples, CHUNK_BITS):
        chunk = range(done, min(samples, done + CHUNK_BITS))
        path_lens = [1 + randbelow(rng, limit) if idx % 2 == 0 else 0 for idx in chunk]
        seeds = [child_seed(seed, f"planted:{idx}") for idx in chunk]
        masks = planted_entry_masks(n, seeds, path_lens, PLANTED_NOISE_PROB, NO_PATH_EDGE_PROB)
        expected = int.from_bytes(np.packbits(np.array(path_lens) > 0, bitorder="little").tobytes(), "little")
        yield masks, len(chunk), expected, (1 << len(chunk)) - 1
