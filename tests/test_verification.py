"""Oracles and graph generators."""

import ast
import hashlib
import importlib
import itertools
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_circuit_core import build_walk_power, evaluate, matrix_of, set_edge
from test_exactmath import reference_bernoulli_masks
from test_mcirc_io import traced_peak

import monoreach as mr
import monoreach.exactmath
import monoreach.oracles
from monoreach.circuit import AdjacencyMatrix
from monoreach.exactmath import bernoulli_mask, child_seed, randbelow
from monoreach.oracles import (
    CHUNK_BITS,
    MAX_CHECK_VERTICES,
    NO_PATH_EDGE_PROB,
    PLANTED_NOISE_PROB,
    WALK_STEP_BUDGET,
    _batches,
    _bfs_rounds,
    _graph_int_rows,
    _no_path_masks,
    _oracle_masks,
    _planted_masks,
    _walk_masks,
    bernoulli_entry_masks,
    exhaustive_input_masks,
    graph_ints_to_masks,
    graph_to_text,
    masks_to_graph_ints,
    random_batch_width,
    run_exhaustive_check,
    run_planted_check,
    run_random_check,
)


def graph_of(n, g):
    """The graph packed into the int g, bit (i-1)*n + (j-1) for edge i -> j:
    graph g of exhaustive_input_masks(n)."""
    return AdjacencyMatrix(n, _graph_int_rows(g, n))


def bernoulli_graph(n, p, seed):
    """A graph of independent edges with probability p, from Random(seed)."""
    return graph_of(n, bernoulli_mask(Random(seed), n * n, p))


def reference_distance(rows, src, dst):
    """BFS distance src -> dst over one graph's row masks, or None: the
    per-graph reference for the bit-sliced BFS."""
    visited = frontier = 1 << (src - 1)
    dist = 0
    while not frontier & (1 << (dst - 1)):
        nxt = 0
        for v in range(len(rows)):
            if (frontier >> v) & 1:
                nxt |= rows[v]
        frontier = nxt & ~visited
        if not frontier:
            return None
        visited |= frontier
        dist += 1
    return dist


def per_graph_oracle(masks, width, n, l):
    """Reference for _oracle_masks: transpose the chunk into per-graph ints
    and run one reference_distance BFS per graph."""
    reach = 0
    outside = 0
    for t, g in enumerate(masks_to_graph_ints(masks, width)):
        dist = reference_distance(_graph_int_rows(g, n), 1, n)
        if dist is not None:
            reach |= 1 << t
            if l is not None and dist > l:
                outside |= 1 << t
    return reach, ((1 << width) - 1) & ~outside


def exact_length_walk_exists(rows, src, dst, l):
    """Whether some walk of exactly l edges runs src -> dst over one graph's
    row masks (vertices may repeat): the per-graph reference for the
    bit-sliced walk DP.  A walk DP, not a BFS, so there is no visited set."""
    frontier = 1 << (src - 1)
    for _ in range(l):
        nxt = 0  # the OR of the frontier's rows: every vertex one edge on
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        if not nxt:
            return False
        frontier = nxt
    return bool(frontier & (1 << (dst - 1)))


def per_graph_walks(masks, width, n, walks):
    """Reference for _walk_masks: one exact_length_walk_exists per graph."""
    hits = 0
    for t, g in enumerate(masks_to_graph_ints(masks, width)):
        if exact_length_walk_exists(_graph_int_rows(g, n), 1, n, walks):
            hits |= 1 << t
    return hits


def reference_planted_graphs(rng, n, path_lens, noise_prob):
    """Plain-Python reader of the planted stream: one 64-bit key per (graph,
    middle vertex) from a single getrandbits, a path from 1 through the
    middle vertices of least key to n, then the noise masks of all entries
    by the Bernoulli reader."""
    m = n - 2
    keys = rng.getrandbits(64 * len(path_lens) * m)
    graphs = []
    for t, path_len in enumerate(path_lens):
        row = [(keys >> (64 * (t * m + j))) & (2**64 - 1) for j in range(m)]
        order = [v for _, v in sorted((row[j], j + 2) for j in range(m))]
        path = [1] + order[: path_len - 1] + [n]
        g = AdjacencyMatrix(n)
        for a, b in zip(path, path[1:]):
            set_edge(g, a, b)
        graphs.append(g)
    for e, noise in enumerate(reference_bernoulli_masks(rng, n * n, len(path_lens), noise_prob)):
        for t, g in enumerate(graphs):
            if (noise >> t) & 1:
                set_edge(g, e // n + 1, e % n + 1)
    return graphs


def reference_no_path_graphs(rng, n, width, edge_prob):
    """Plain-Python reader of the no-path stream: one sink-side mask per
    vertex, then one edge mask per entry, each by the Bernoulli reader; 1
    is on the source side and n on the sink side, and no edge runs from the
    source side to the sink side."""
    sides = reference_bernoulli_masks(rng, n, width, 0.5)
    graphs = [AdjacencyMatrix(n) for _ in range(width)]
    for e, edges in enumerate(reference_bernoulli_masks(rng, n * n, width, edge_prob)):
        u, v = e // n + 1, e % n + 1
        for t, g in enumerate(graphs):
            sink_u = u == n or (u != 1 and (sides[u - 1] >> t) & 1)
            sink_v = v == n or (v != 1 and (sides[v - 1] >> t) & 1)
            if (edges >> t) & 1 and not (sink_v and not sink_u):
                set_edge(g, u, v)
    return graphs


def reference_planted_path_graph(n, path_len, noise_prob, seed):
    return reference_planted_graphs(Random(seed), n, [path_len], noise_prob)[0]


def reference_no_path_graph(n, edge_prob, seed):
    return reference_no_path_graphs(Random(seed), n, 1, edge_prob)[0]


def reference_graph_int(matrix):
    return sum(row << (i * matrix.n) for i, row in enumerate(matrix.rows))


def reference_planted_chunks(n, samples, seed, l):
    """The planted driver from the plain-Python readers: (masks, width,
    expected) of each chunk, its first half planted, the rest no-path."""
    limit = min(l, n - 1) if l is not None else n - 1
    rng = Random(child_seed(seed, f"planted:n={n}:l={limit}"))
    chunks = []
    for done in range(0, samples, CHUNK_BITS):
        width = min(samples - done, CHUNK_BITS)
        k = (width + 1) // 2
        path_lens = [1 + randbelow(rng, limit) for _ in range(k)]
        graphs = reference_planted_graphs(rng, n, path_lens, PLANTED_NOISE_PROB)
        graphs += reference_no_path_graphs(rng, n, width - k, NO_PATH_EDGE_PROB)
        chunks.append((graph_ints_to_masks([reference_graph_int(g) for g in graphs], n), width, (1 << k) - 1))
    return chunks


def planted_chunks(n, samples, seed, l):
    """(masks, width, expected) of each chunk run_planted_check evaluates,
    on a circuit that is never evaluated."""
    chunks = []

    def capture(circuit, chunk_iter, max_report):
        for masks, width, expected, promise in chunk_iter:
            assert promise == (1 << width) - 1
            chunks.append((list(masks), width, expected))
        return monoreach.oracles.CheckReport(sum(width for _, width, _ in chunks), 0, [])

    circuit = mr.MonotoneCircuit(n)
    circuit.set_outputs([circuit.zero])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monoreach.oracles, "_compare", capture)
        assert run_planted_check(circuit, n, samples, seed, l=l).checked == samples
    return chunks


def chunks_digest(chunks):
    h = hashlib.sha256()
    for masks, width, expected in chunks:
        nbytes = (width + 7) // 8
        h.update(f"{width} {len(masks)}\n".encode())
        for m in masks:
            h.update(m.to_bytes(nbytes, "little"))
        h.update(expected.to_bytes(nbytes, "little"))
    return h.hexdigest()


def one_graph_masks(matrix):
    """Per-entry masks of a chunk that holds one graph."""
    return matrix.input_bits(), 1


def sliced_distance(matrix):
    """The 1 -> n distance of one graph by the rounds of _bfs_rounds, or None."""
    for dist, hit in enumerate(_bfs_rounds(*one_graph_masks(matrix), matrix.n)):
        if hit:
            return dist
    return None


class TestBfs:
    def test_two_hop(self):
        g = matrix_of(3, (1, 2), (2, 3))
        assert _oracle_masks(*one_graph_masks(g), 3, None) == (1, 1)
        assert list(_bfs_rounds(*one_graph_masks(g), 3)) == [0, 0, 1]

    def test_edgeless(self):
        assert _oracle_masks(*one_graph_masks(AdjacencyMatrix(2)), 2, None) == (0, 1)

    def test_self_reachable(self):
        # With one vertex the source is the target: both graphs, with and
        # without the loop, are reached in round 0, and no round follows.
        masks, width = exhaustive_input_masks(1)
        assert list(_bfs_rounds(masks, width, 1)) == [0b11]

    def test_range_check(self):
        for edge in ((0, 2), (1, 4), (4, 1)):
            with pytest.raises(mr.InvalidParameterError):
                matrix_of(3, edge)


class TestShortestPath:
    def test_direct_edge_wins(self):
        assert sliced_distance(matrix_of(3, (1, 2), (2, 3), (1, 3))) == 1

    def test_self_distance_zero(self):
        assert sliced_distance(AdjacencyMatrix(1)) == 0
        assert sliced_distance(matrix_of(1, (1, 1))) == 0

    def test_five_cycle(self):
        g = matrix_of(5, (1, 2), (2, 3), (3, 4), (4, 5), (5, 1))
        assert sliced_distance(g) == 4

    def test_unreachable_is_none(self):
        g = matrix_of(3, (2, 1), (1, 1), (3, 2))
        assert sliced_distance(g) is None
        assert _oracle_masks(*one_graph_masks(g), 3, 1) == (0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_graph_bfs_on_every_graph_and_pair(self, n):
        # Relabel every graph so that src is vertex 1 and dst is vertex n:
        # round r of _bfs_rounds then holds the graphs at src -> dst distance
        # r, and no graph is in two rounds.
        masks, width = exhaustive_input_masks(n)
        pairs = [(1, 1)] if n == 1 else [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
        for src, dst in pairs:
            order = [src, *(v for v in range(1, n + 1) if v not in (src, dst)), dst][:n]
            relabelled = [masks[(order[a] - 1) * n + order[b] - 1] for a in range(n) for b in range(n)]
            rounds = list(_bfs_rounds(relabelled, width, n))
            union = 0
            for hit in rounds:
                assert not hit & union, (src, dst)
                union |= hit
            for t in range(width):
                dist = reference_distance(_graph_int_rows(t, n), src, dst)
                assert next((r for r, hit in enumerate(rounds) if hit >> t & 1), None) == dist, (t, src, dst)


class TestExactWalk:
    def test_length_zero(self):
        # A walk of no edges ends where it starts: from 1 to n only if n = 1.
        assert _walk_masks(*one_graph_masks(matrix_of(3, (1, 3))), 3, 0) == 0
        assert _walk_masks(*one_graph_masks(AdjacencyMatrix(1)), 1, 0) == 1

    def test_revisit_walk(self):
        g = matrix_of(3, (1, 2), (2, 1), (2, 3))
        assert _walk_masks(*one_graph_masks(g), 3, 4) == 1  # 1-2-1-2-3
        assert _walk_masks(*one_graph_masks(g), 3, 3) == 0

    def test_edgeless_positive_lengths(self):
        g = AdjacencyMatrix(3)
        for l in (1, 2, 5):
            assert _walk_masks(*one_graph_masks(g), 3, l) == 0

    def test_consistency_with_bfs(self):
        # On every graph, the shortest walk 1 -> 6 is as long as the BFS
        # distance: some walk of 1..l edges exists iff the distance is <= l.
        masks = bernoulli_entry_masks(Random(6), 6, 1000, 0.25)
        walks = 0
        for l in range(1, 6):
            walks |= _walk_masks(masks, 1000, 6, l)
            reach, promise = _oracle_masks(masks, 1000, 6, l)
            assert walks == reach & promise
        assert walks == reach

    def test_some_walk_length_iff_reachable_exhaustive(self):
        # Over every graph with up to 4 vertices: some walk 1 -> n of 1..n-1
        # edges exists iff the BFS oracle reaches n, iff the reference BFS
        # does.  The set of all graphs is closed under relabelling vertices,
        # so the pair 1 -> n stands for every pair src != dst.
        for n in (2, 3, 4):
            masks, width = exhaustive_input_masks(n)
            walks = 0
            for l in range(1, n):
                walks |= _walk_masks(masks, width, n, l)
            reach, _ = _oracle_masks(masks, width, n, None)
            assert walks == reach
            full = (1 << n) - 1
            rows = ([(t >> (i * n)) & full for i in range(n)] for t in range(width))
            assert reach == sum(1 << t for t, g in enumerate(rows) if reference_distance(g, 1, n) is not None)


class TestEnumerate:
    def test_counts(self):
        assert [exhaustive_input_masks(n)[1] for n in (1, 2, 3, 4)] == [2, 16, 512, 65536]

    def test_deterministic_order(self):
        # Graph t holds edge i -> j when bit (i-1)*n + (j-1) of t is set.
        masks, _ = exhaustive_input_masks(2)
        assert [m & 1 for m in masks] == [0, 0, 0, 0]
        assert [(m >> 2) & 1 for m in masks] == [0, 1, 0, 0]
        assert exhaustive_input_masks(2) == (masks, 16)

    def test_budget_guard(self):
        with pytest.raises(mr.BudgetExceededError):
            exhaustive_input_masks(5)


class TestGenerators:
    def test_edge_prob_extremes(self):
        assert bernoulli_entry_masks(Random(3), 4, 64, 0.0) == [0] * 16
        assert bernoulli_entry_masks(Random(3), 4, 64, 1.0) == [(1 << 64) - 1] * 16
        assert mr.no_path_graph(4, 0.0, 3).rows == [0] * 4
        assert sum(row.bit_count() for row in mr.planted_path_graph(8, 3, 0.0, 3).rows) == 3

    def test_seed_determinism(self):
        assert bernoulli_entry_masks(Random(12), 6, 100, 0.3) == bernoulli_entry_masks(Random(12), 6, 100, 0.3)
        assert mr.planted_path_graph(8, 4, 0.3, 12) == mr.planted_path_graph(8, 4, 0.3, 12)
        assert mr.no_path_graph(8, 0.3, 12) == mr.no_path_graph(8, 0.3, 12)
        assert mr.no_path_graph(8, 0.3, 12) != mr.no_path_graph(8, 0.3, 13)

    def test_planted_path_exact_length(self):
        for seed in range(50):
            g = mr.planted_path_graph(8, 3, 0.0, seed)
            assert reference_distance(g.rows, 1, 8) == 3

    def test_planted_path_with_noise_keeps_promise(self):
        for seed in range(50):
            g = mr.planted_path_graph(8, 5, 0.2, seed)
            d = reference_distance(g.rows, 1, 8)
            assert d is not None and d <= 5

    def test_no_path_graphs_never_reach(self):
        for seed in range(200):
            g = mr.no_path_graph(7, 0.45, seed)
            assert reference_distance(g.rows, 1, 7) is None

    def test_parameter_checks(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.planted_path_graph(8, 8, 0.0, 1)

    @pytest.mark.parametrize("edge_prob", [1.5, -2.0, float("nan")])
    def test_no_path_graph_refuses_a_density_outside_0_1(self, edge_prob):
        with pytest.raises(mr.InvalidParameterError, match=r"^edge_prob must be in \[0, 1\]$"):
            mr.no_path_graph(4, edge_prob, 0)


class TestBitPacking:
    def test_exhaustive_masks_match_index_decoding(self):
        masks, width = exhaustive_input_masks(2)
        assert width == 16
        for t in range(width):
            bits = graph_of(2, t).input_bits()
            for e in range(4):
                assert (masks[e] >> t) & 1 == bits[e]

    def test_transpose_round_trip(self):
        from random import Random

        rng = Random(5)
        masks = bernoulli_entry_masks(rng, 5, 1000, 0.37)
        graph_ints = masks_to_graph_ints(masks, 1000)
        back = graph_ints_to_masks(graph_ints, 5)
        assert back == masks

    def test_batch_matches_single_evaluation(self):
        c = mr.build_reach(4)
        mats = [bernoulli_graph(4, 0.4, seed) for seed in range(64)]
        out = c.evaluate_batch(graph_ints_to_masks([reference_graph_int(g) for g in mats], 4))[0]
        for t, g in enumerate(mats):
            assert (out >> t) & 1 == evaluate(c, g)


class TestGraphText:
    def test_round_trip(self):
        g = matrix_of(3, (1, 2), (3, 1))
        text = mr.graph_to_text(g)
        assert text == "GRAPH 3\n010\n000\n100\n"
        assert mr.graph_from_text(text) == g

    def test_file_round_trip(self, tmp_path):
        g = bernoulli_graph(6, 0.5, 9)
        path = tmp_path / "g.gr"
        path.write_text(mr.graph_to_text(g))
        assert mr.read_graph(path) == g

    def test_bad_rows_rejected(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.graph_from_text("GRAPH 2\n01\n")
        with pytest.raises(mr.InvalidParameterError):
            mr.graph_from_text("GRAPH 2\n0x\n00\n")

    @pytest.mark.parametrize(
        "text, line",
        [("GRAPH 2\n\n01\n00\n", 2), ("GRAPH 2\n01\n \t\n00\n", 3), ("GRAPH 2\n01\n00\n\n", 4)],
    )
    def test_blank_line_rejected(self, text, line):
        with pytest.raises(mr.InvalidParameterError, match=f"^line {line}: blank line in graph file$"):
            mr.graph_from_text(text)

    def test_final_newline_is_not_a_blank_line(self):
        assert mr.graph_from_text("GRAPH 2\n01\n00\n") == mr.graph_from_text("GRAPH 2\n01\n00")


class TestComparisonDrivers:
    def test_multi_output_circuit_rejected(self):
        walk = build_walk_power(3, 2)
        with pytest.raises(mr.InvalidParameterError):
            run_random_check(walk, 3, 100, 0)
        with pytest.raises(mr.InvalidParameterError):
            run_planted_check(walk, 3, 100, 0)
        with pytest.raises(mr.InvalidParameterError):
            run_exhaustive_check(walk, 3)

    def test_vertex_budget(self):
        wide = mr.MonotoneCircuit(MAX_CHECK_VERTICES + 1)
        wide.set_outputs([wide.zero])
        for check in (
            lambda: run_random_check(wide, wide.num_vertices, 100, 0),
            lambda: run_planted_check(wide, wide.num_vertices, 100, 0),
            lambda: run_exhaustive_check(wide, wide.num_vertices),
        ):
            with pytest.raises(mr.BudgetExceededError, match=str(MAX_CHECK_VERTICES)):
                check()

    @pytest.mark.parametrize("driver", [run_random_check, run_planted_check])
    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_refused(self, driver, samples):
        # A check that runs no graph must not report a pass.
        with pytest.raises(mr.InvalidParameterError, match=f"^samples must be at least 1, got {samples}$"):
            driver(mr.build_reach(4), 4, samples, 0)

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan"), float("inf")])
    def test_density_outside_the_unit_interval_refused(self, p):
        with pytest.raises(mr.InvalidParameterError, match=r"^edge density p must be in \[0, 1\]"):
            run_random_check(mr.build_reach(4), 4, 100, 0, densities=(0.1, p))

    def test_no_densities_refused(self):
        with pytest.raises(mr.InvalidParameterError, match="densities"):
            run_random_check(mr.build_reach(4), 4, 100, 0, densities=())

    @pytest.mark.parametrize("driver", [run_random_check, run_planted_check])
    @pytest.mark.parametrize("l", [0, -1])
    def test_empty_length_budget_refused(self, driver, l):
        with pytest.raises(mr.InvalidParameterError, match=f"^length budget l must be at least 1, got {l}$"):
            driver(mr.build_reach(4), 4, 100, 0, l=l)

    @pytest.mark.parametrize("l", [0, -1])
    def test_empty_length_budget_refused_exhaustively(self, monkeypatch, l):
        # Refused before the masks of every graph are built.
        monkeypatch.setattr(monoreach.oracles, "exhaustive_input_masks", None)
        with pytest.raises(mr.InvalidParameterError, match=f"^length budget l must be at least 1, got {l}$"):
            run_exhaustive_check(mr.build_reach(4), 4, l=l)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_exhaustive_check_keeps_the_length_budget(self, l):
        report = run_exhaustive_check(mr.build_reach_leq(4, l), 4, l=l)
        beyond = sum(
            (reference_distance(_graph_int_rows(t, 4), 1, 4) or 0) > l for t in range(2**16)
        )
        assert (report.ok, report.checked, report.skipped) == (True, 2**16, beyond)
        assert run_exhaustive_check(mr.build_reach_leq(4, l), 4).ok == (l == 3)

    def test_planted_check_refuses_one_vertex(self, monkeypatch):
        # Refused before any draw, naming the vertex count.
        monkeypatch.setattr(monoreach.oracles, "child_seed", None)
        circuit = mr.MonotoneCircuit(1)
        circuit.set_outputs([circuit.zero])
        with pytest.raises(mr.InvalidParameterError, match="^planted graphs need at least 2 vertices, got n = 1$"):
            run_planted_check(circuit, 1, 100, 0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(mr.InvalidParameterError):
            run_random_check(mr.build_reach(4), 5, 100, 0)

    @pytest.mark.parametrize(
        "driver, l", [(run_random_check, None), (run_random_check, 4), (run_planted_check, 4)]
    )
    def test_mismatches_are_real_and_inside_the_promise(self, driver, l):
        # build_reach_leq(10, 2) misses every graph whose distance is 3..9.
        c = mr.build_reach_leq(10, 2)
        report = driver(c, 10, 3000, 1, l=l, max_report=9)
        assert report.checked == 3000
        assert len(report.mismatches) == 9
        for g, expected, got in report.mismatches:
            dist = reference_distance(g.rows, 1, 10)
            assert expected == int(dist is not None) != got == evaluate(c, g)
            assert l is None or dist <= l

    def test_exhaustive_mismatches_in_graph_order(self):
        c = mr.build_reach_leq(3, 1)
        report = run_exhaustive_check(c, 3, max_report=1000)
        indices = [sum(row << (3 * i) for i, row in enumerate(g.rows)) for g, _, _ in report.mismatches]
        assert indices == sorted(indices)
        assert indices == [t for t in range(512) if reference_distance(_graph_int_rows(t, 3), 1, 3) == 2]


class TestSlicedOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 20),
        p=st.sampled_from([0, 0.02, 0.1, 0.3, 0.5, 1]),
        l_kind=st.sampled_from(["none", "one", "half", "n-1"]),
        width=st.one_of(st.sampled_from([1, 7, 8, 64, 1000]), st.integers(1, 300)),
        seed=st.integers(0, 2**32),
    )
    def test_matches_per_graph_bfs(self, n, p, l_kind, width, seed):
        l = {"none": None, "one": 1, "half": n // 2, "n-1": n - 1}[l_kind]
        masks = bernoulli_entry_masks(Random(seed), n, width, p)
        assert _oracle_masks(masks, width, n, l) == per_graph_oracle(masks, width, n, l)

    @pytest.mark.parametrize("p", [0.02, 0.05, 0.1, 0.5])
    @pytest.mark.parametrize("l", [None, 1, 32, 63])
    def test_matches_per_graph_bfs_at_n64(self, p, l):
        masks = bernoulli_entry_masks(Random(64), 64, 700, p)
        assert _oracle_masks(masks, 700, 64, l) == per_graph_oracle(masks, 700, 64, l)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_per_graph_bfs_on_every_graph(self, n):
        # With l = None and every budget l: the graphs with a 1 -> n path, and
        # those whose distance is at most l or that never reach n.
        masks, width = exhaustive_input_masks(n)
        dists = [reference_distance(_graph_int_rows(t, n), 1, n) for t in range(width)]
        reach = sum(1 << t for t, d in enumerate(dists) if d is not None)
        for l in (None, *range(n + 1)):
            inside = sum(1 << t for t, d in enumerate(dists) if d is None or l is None or d <= l)
            assert _oracle_masks(masks, width, n, l) == (reach, inside), l


def report_digest(report):
    h = hashlib.sha256(f"{report.checked} {report.skipped}\n".encode())
    for g, expected, got in report.mismatches:
        h.update((graph_to_text(g) + f"{expected} {got}\n").encode())
    return h.hexdigest()


class TestReportGoldens:
    # Pinned from the plain-Python Bernoulli reader, the per-graph BFS and
    # file-order evaluation: the reports of a wrong circuit (it misses every
    # distance above 3) must not move.
    @pytest.mark.parametrize(
        "l, skipped, digest",
        [
            (None, 0, "c7994b0e918441b959b5941093ab5bb8869d1f49c03e55aebbedf2dd355a6aff"),
            (5, 287, "612dd37e6ad71c5d866db873cdf4810b66e8c38f38f99244d3543f30aaef7008"),
        ],
    )
    def test_random_report_digest(self, l, skipped, digest):
        report = run_random_check(mr.build_reach_leq(16, 3), 16, 40000, seed=7, l=l, max_report=6)
        assert (report.checked, report.skipped, len(report.mismatches)) == (40000, skipped, 6)
        assert report_digest(report) == digest


class TestPackedBatches:
    # Pinned from the plain-Python Bernoulli reader, the per-graph BFS and
    # file-order evaluation, each density's draws on their own, over sample
    # counts whose draws pack differently: 16,384 fills one batch, 20,000
    # two, 50,000 six, and 1 graph leaves two densities empty.  With seed 11
    # the wrong circuit's first density holds no mismatch at 16,384 or
    # 20,000 samples and 1 at 50,000: a cut of 3 falls inside the second
    # density at 16,384 and 20,000 and across a density boundary at 50,000,
    # as a cut of 8 does, and 10**6 reports every mismatch.
    @pytest.mark.parametrize(
        "samples, l, max_report, skipped, found, digest",
        [
            (16384, None, 3, 0, 3, "6fbb245d1960751cbc371baf453f6f5e27a2aaf09309dfb5449b0e0be134766b"),
            (16384, None, 8, 0, 8, "6b8365c78a5a97c34088b49535779cd57401a7d4a2c6a7b181531daa399d99ce"),
            (16384, None, 10**6, 0, 305, "e38578e8039f4754e26567c98553ac53703ebaa4bfe3a51f5ad186efa52c0cbd"),
            (16384, 5, 3, 130, 3, "bd3519d15311f4bb071906fc59da7858af91380dbdf6d68d78d99ea8f2b594a3"),
            (16384, 5, 8, 130, 8, "a95728e39e7d34f87125bb61678f18a7f85060714c8a1aeb5d2ae3b91e8e4de1"),
            (16384, 5, 10**6, 130, 175, "a2fa3998e3f4afa42f26b3f1d993cceef04708123e2746a9b40c690c0fd3a5ec"),
            (20000, None, 3, 0, 3, "d9818bdc645f64660f96ef41abf65edaa7abc0d3fdcea8a3de5c3a03970257dd"),
            (20000, None, 10**6, 0, 404, "e759eb88beb68a5d1866270bff8247e0bd0adfb94900ccdf4729c1920a9f3c21"),
            (20000, 5, 3, 172, 3, "c2a9e02d5f61e10f5197203238211b42414efcf5db9be5effade991265685dc0"),
            (20000, 5, 10**6, 172, 232, "c3ab5854511aab25898d12d4027805e0b4e9f3c228936ad5ceadf6b381c986d2"),
            (50000, None, 3, 0, 3, "2faaeec19661cdd9d7e1c6889b46e84c07624f27521257f3df07c4c4b23cb9b8"),
            (50000, None, 8, 0, 8, "cf2b8af120bcf44affc36ea656d8f992d27d4b610e91eaeefb3d466ece84075a"),
            (50000, None, 10**6, 0, 913, "e5c06ab6e7da6eb89bd2ab7d333d278c459259e49dfd7df0803ecbf5c7544a76"),
            (50000, 5, 3, 385, 3, "ca1cf419d3748aefddbfdb5746ba2087806a029979bd51a8bca381adb9eeaaf8"),
            (50000, 5, 8, 385, 8, "2fb0ee87f270dd37d1433ef75a046bdc38c44e053497bf0c8017212b27be0995"),
            (50000, 5, 10**6, 385, 528, "e31376ea9adfd8071f15ee542959deb7d08ab2a966f1abf73dd4b8cbd81bfa7b"),
            (1, None, 3, 0, 0, "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),
            (1, 5, 3, 0, 0, "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),
        ],
    )
    def test_wrong_circuit_report_digest(self, samples, l, max_report, skipped, found, digest):
        report = run_random_check(mr.build_reach_leq(16, 3), 16, samples, seed=11, l=l, max_report=max_report)
        assert (report.checked, report.skipped, len(report.mismatches)) == (samples, skipped, found)
        assert report_digest(report) == digest

    @pytest.mark.parametrize(
        "samples, l, skipped, digest",
        [
            (16384, None, 0, "d5e6d271a7129c745f419e78ace7a0cccc304a072451ae804a805b8f156c19a0"),
            (16384, 5, 130, "80670f83577bb135b348eeba5c2e357a13d9afb3492d3df8dc352e7d4cefaa87"),
            (20000, None, 0, "ed80930cbac300bdb3300c87fcab8073239cd953efac375ff3ba3ad74debdff3"),
            (20000, 5, 172, "51327c8945679851a7a0da6bfb70d1b1ba889127f5f7c052c9d6509d331872a7"),
            (50000, None, 0, "594ad4a45a28d07865bac4998f36573188eff44b915b4ed817d7ce0d1246dd0d"),
            (50000, 5, 385, "be787f06c35db8c95c40157cbec32b7d6f8886a2eef98e300772bd32fcecbcfc"),
        ],
    )
    def test_correct_circuit_report_digest(self, samples, l, skipped, digest):
        report = run_random_check(mr.build_reach_leq(16, 15), 16, samples, seed=11, l=l)
        assert (report.checked, report.skipped, report.ok) == (samples, skipped, True)
        assert report_digest(report) == digest

    @pytest.mark.parametrize(
        "value_bits, samples, widths",
        [
            # A budget of one chunk packs draws as before the value budget.
            (1, 1, [1]),
            (1, 16384, [16384]),
            (1, 20000, [13334, 6666]),
            (1, 50000, [16384, 284, 16384, 282, 16384, 282]),
            (1, 393216, [16384] * 24),
            # By default this circuit of 4 inputs and 5 values takes 284 chunks a batch.
            (None, 1, [1]),
            (None, 20000, [20000]),
            (None, 50000, [50000]),
            (None, 393216, [393216]),
        ],
    )
    def test_one_evaluation_per_batch(self, monkeypatch, value_bits, samples, widths):
        if value_bits is not None:
            monkeypatch.setattr(monoreach.oracles, "EVAL_VALUE_BITS", value_bits)
        calls = []
        seen = []
        evaluate = mr.MonotoneCircuit.evaluate_batch
        oracle = monoreach.oracles._oracle_masks

        def counted(self, masks):
            calls.append(len(masks))
            return evaluate(self, masks)

        def sized(masks, width, n, l):
            seen.append(width)
            return oracle(masks, width, n, l)

        monkeypatch.setattr(mr.MonotoneCircuit, "evaluate_batch", counted)
        monkeypatch.setattr(monoreach.oracles, "_oracle_masks", sized)
        assert run_random_check(mr.build_reach_leq(2, 1), 2, samples, seed=1).checked == samples
        assert (len(calls), seen) == (len(widths), widths)


class TestValueBudget:
    def test_batch_widths(self):
        # 256 input masks and 482 values at peak fit three chunks in
        # EVAL_VALUE_BITS; 4 inputs and 5 values fit 284.
        squaring = mr.build_reach_leq(16, 15)
        assert (squaring.live_peak(), random_batch_width(squaring)) == (482, 3 * CHUNK_BITS)
        tiny = mr.build_reach_leq(2, 1)
        assert (tiny.live_peak(), random_batch_width(tiny)) == (5, 284 * CHUNK_BITS)

    @pytest.mark.parametrize("circuit_l", [15, 3])
    @pytest.mark.parametrize("samples", [1, 20000, 50000])
    @pytest.mark.parametrize("max_report", [3, 10**6])
    @pytest.mark.parametrize("l", [None, 5])
    def test_report_does_not_depend_on_the_budget(self, monkeypatch, circuit_l, samples, max_report, l):
        circuit = mr.build_reach_leq(16, circuit_l)
        chunk_bits = (circuit.num_inputs + circuit.live_peak()) * CHUNK_BITS
        reports = []
        for value_bits, chunks in ((1, 1), (3 * chunk_bits, 3), (10**30, 10**30 // chunk_bits)):
            monkeypatch.setattr(monoreach.oracles, "EVAL_VALUE_BITS", value_bits)
            assert random_batch_width(circuit) == chunks * CHUNK_BITS
            reports.append(run_random_check(circuit, 16, samples, seed=11, l=l, max_report=max_report))
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].checked == samples

    @settings(max_examples=200, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 40), min_size=1, max_size=30),
        limit=st.integers(40, 130),
        entries=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    def test_batches_match_shift_or_packing(self, widths, limit, entries, seed):
        rng = Random(seed)
        chunks = [([rng.getrandbits(w) for _ in range(entries)], w) for w in widths]
        expected = []  # the shift-OR packing: each chunk after the batch's graphs so far
        for masks, w in chunks:
            if expected and expected[-1][1] + w <= limit:
                batch, width = expected[-1]
                expected[-1] = ([m | (c << width) for m, c in zip(batch, masks)], width + w)
            else:
                expected.append((masks, w))
        drawn = []

        def draw():
            for chunk in chunks:
                drawn.append(chunk)
                yield list(chunk[0]), chunk[1]

        got = []
        for batch, width in _batches(draw(), limit):
            got.append((batch, width))
            if width == limit:  # a full batch is yielded before the next chunk is drawn
                assert sum(w for _, w in drawn) == sum(w for _, w in got)
        assert got == expected


class TestWalkOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 9),
        p=st.sampled_from([0, 0.1, 0.3, 0.5, 1]),
        width=st.integers(1, 300),
        walks=st.integers(1, 12),
        seed=st.integers(0, 2**32),
    )
    def test_matches_per_graph_walks(self, n, p, width, walks, seed):
        masks = bernoulli_entry_masks(Random(seed), n, width, p)
        assert _walk_masks(masks, width, n, walks) == per_graph_walks(masks, width, n, walks)

    @pytest.mark.parametrize("l", range(1, 7))
    def test_exact_circuits_pass_exhaustively(self, l):
        report = run_exhaustive_check(mr.build_reach_exact(4, l), 4, walks=l)
        assert (report.checked, report.skipped, report.ok) == (65536, 0, True)

    def test_exact_circuit_passes_random_graphs(self):
        report = run_random_check(mr.build_reach_exact(6, 3), 6, 2000, seed=1, walks=3)
        assert (report.checked, report.skipped, report.ok) == (2000, 0, True)
        # Against reachability, the same circuit fails.
        assert not run_random_check(mr.build_reach_exact(6, 3), 6, 2000, seed=1).ok

    def test_reachability_circuit_fails_exact_walks(self):
        c = mr.build_reach_leq(4, 3)
        report = run_exhaustive_check(c, 4, max_report=10**6, walks=3)
        assert report.mismatches
        for g, expected, got in report.mismatches:
            assert expected == int(exact_length_walk_exists(g.rows, 1, 4, 3)) != got == evaluate(c, g)

    @pytest.mark.parametrize("walks", [0, -1])
    def test_walks_below_one_refused(self, walks):
        for check in (
            lambda: run_random_check(mr.build_reach(4), 4, 100, 0, walks=walks),
            lambda: run_exhaustive_check(mr.build_reach(4), 4, walks=walks),
        ):
            with pytest.raises(mr.InvalidParameterError, match=f"^walk length must be at least 1, got {walks}$"):
                check()

    def test_walks_with_a_length_budget_refused(self):
        with pytest.raises(mr.InvalidParameterError, match="^a walk length and a length budget l do not combine$"):
            run_random_check(mr.build_reach(4), 4, 100, 0, l=3, walks=3)

    def test_walk_steps_over_the_budget_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(monoreach.oracles, "child_seed", None)
        monkeypatch.setattr(monoreach.oracles, "exhaustive_input_masks", None)
        over = WALK_STEP_BUDGET // 16 + 1
        for check in (
            lambda: run_random_check(mr.build_reach(4), 4, 100, 0, walks=over),
            lambda: run_exhaustive_check(mr.build_reach(4), 4, walks=over),
        ):
            with pytest.raises(mr.BudgetExceededError, match=f"over the budget of {WALK_STEP_BUDGET}$"):
                check()


class TestPlantedGoldens:
    # Pinned from the plain-Python readers of the planted stream: n**2 = 25
    # and 1089 are not multiples of 32, n = 2 leaves no middle vertex and
    # n = 3 one, 203 graphs are not a multiple of 8 and have one more planted
    # graph than no-path ones, 16,393 and 16,390 take two chunks, and
    # l = None or 100 clamp to n - 1.
    @pytest.mark.parametrize(
        "n, samples, seed, l, widths, digest",
        [
        (2, 203, 3, 1, [203], "3b9730d97329a72a1eceb815b7f6f38488726210f79154fc9754bf71fa1cf667"),
        (5, 203, 3, 1, [203], "f985afdde03b19e0fd0273fa6132510e1d0ab1917a65fdafcfdb107536848277"),
        (5, 203, 3, 2, [203], "a9e12360d4bb87b268301cd2182c1f265e21705a06cd87a7f197d44f2bbd591b"),
        (5, 203, 3, 4, [203], "1137ead67cac2f1d53c772174ad4aa09fef8d54c93fc3e194c651e42bdd39c42"),
        (16, 203, 3, 1, [203], "51223e91f2cc24fd8e1b431dc2f9f273f3cd6f16f73abe0e1909488dc67df030"),
        (16, 203, 3, 8, [203], "40c270cafa84af420718bd811e5307a08c1f862867273c62fc574d024080f3ef"),
        (16, 203, 3, 15, [203], "8165471fde233a6200b29a5495a3ffbc2c1e152a00a5531afcf31a1000aa0168"),
        (25, 203, 3, 1, [203], "bd5e51e8714bad2e6baf4aeeb01397bc4b0ea43648a528c3ff5e22146b7b24a0"),
        (25, 203, 3, 12, [203], "649a1cd14bf20e1b31c77c62cbbf6cab85189093b1bef37818f90fbd55466624"),
        (25, 203, 3, 24, [203], "24558fa952f07de325b4d756a63965156f3f9c4997958c4e33441f07ca810691"),
        (33, 203, 3, 1, [203], "c71cf1769c5562fe42a6c532c46383a38e13979293e8a5df808dfb94c3f8c62c"),
        (33, 203, 3, 16, [203], "39c709f0edf9398d6646759b4063deca335608e3f362447872fbc4107ba1a304"),
        (33, 203, 3, 32, [203], "c108cbf7b8241a2a839c01a8c2eaa9bea424918a744d7a2294a9b0e3ba537ef8"),
        (64, 203, 3, 1, [203], "93879de3bf5996062ebf0d8c6b01c8627595273688d0619a3d85d67604808dde"),
        (64, 203, 3, 32, [203], "c25c3a2853454021fb0811947a97bdf8b99c01978771d83712067430b48e6cbb"),
        (64, 203, 3, 63, [203], "d1b704f54cd37bf2c21bfc1aac153bb42f2d3ef41dadf25771ccce44f7b3cac7"),
        (16, 1, 0, 12, [1], "f959b57da60d52253c10e66710808d96e737ac640fce7919f0958ed38ce594a7"),
        (2, 1, 0, 1, [1], "33af51d8ee87208bc0e96280793ce57a8ba70cd2567dcc9e0745bcd8886c7ae1"),
        (16, 16393, 5, 12, [16384, 9], "75e6ad3756493ad20a0870797ff0a7c41de3f1eb41e72297097051e317d46107"),
        (5, 16390, 0, 4, [16384, 6], "5873bbead928d60f4690f4881dd6d12768ecfddf4808461055f857a9d435abd0"),
        (16, 203, 3, None, [203], "8165471fde233a6200b29a5495a3ffbc2c1e152a00a5531afcf31a1000aa0168"),
        (16, 203, 3, 100, [203], "8165471fde233a6200b29a5495a3ffbc2c1e152a00a5531afcf31a1000aa0168"),
        (9, 1000, 0, 3, [1000], "4cd52ab29dc1f6556a97b2995a4782b3646d93ef8dd3461a8c24df6f7b54c54d"),
        (3, 203, 3, 1, [203], "1b0c21bfe1bb6b929a300ea55678f29de5bad45a9add82b8ce6796a5e2809328"),
        (3, 203, 3, 2, [203], "bc56f775e639fbae2a954804693fcacd60cd1eb63cb616400c8ec299b7bd3cd7"),
        (3, 77, 0, 2, [77], "da46ac4b2c0653701de339db3e1f20a882961347ec4e57a18ab72a3527958811"),
        ],
    )
    def test_chunk_digest(self, n, samples, seed, l, widths, digest):
        chunks = planted_chunks(n, samples, seed, l)
        assert [width for _, width, _ in chunks] == widths
        assert chunks_digest(chunks) == digest

    # The reports of a correct circuit and of one that misses every distance
    # above 3, over two chunks, pinned from the plain-Python readers, the
    # per-graph BFS and file-order evaluation: the 993 mismatches at l = 5
    # span both (811 and 182).
    @pytest.mark.parametrize(
        "circuit_l, l, max_report, found, digest",
        [
        (15, None, 6, 0, "ed80930cbac300bdb3300c87fcab8073239cd953efac375ff3ba3ad74debdff3"),
        (3, None, 1, 1, "67994f7951538980ac397eec8a556b865ed6941a0edbfc109f2845d217d2526e"),
        (3, None, 6, 6, "5aa461c62f83ec5c73bb93cc56a4e2769e45f4e579040139a719ff8265a9a87b"),
        (3, 12, 1, 1, "009f1706efc580bb37776a425ef59aef2f8b50dd29059cb344adfb57e25d7f22"),
        (3, 12, 6, 6, "d65d82196a226f70a61c862ae8f295f62018292553e0aa20c3a98f52702e4f98"),
        (3, 5, 1000000, 993, "ee8d16022d00dcf9d10fd3dce02dcfd62cc82dd0bded800019121b69335b038e"),
        ],
    )
    def test_report_digest(self, circuit_l, l, max_report, found, digest):
        report = run_planted_check(mr.build_reach_leq(16, circuit_l), 16, 20000, seed=3, l=l, max_report=max_report)
        assert (report.checked, report.skipped, len(report.mismatches)) == (20000, 0, found)
        assert report_digest(report) == digest


class TestPlantedChunks:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 40),
        l_kind=st.sampled_from(["none", "one", "half", "n-1", "big"]),
        samples=st.one_of(st.sampled_from([1, 2, 7, 8, 9]), st.integers(1, 200)),
        seed=st.integers(0, 2**64),
    )
    def test_matches_per_graph_driver(self, n, l_kind, samples, seed):
        l = {"none": None, "one": 1, "half": max(1, n // 2), "n-1": n - 1, "big": 10 * n}[l_kind]
        assert planted_chunks(n, samples, seed, l) == reference_planted_chunks(n, samples, seed, l)

    @pytest.mark.parametrize("p", [0.0, 1.0, 0.2])
    @pytest.mark.parametrize("n", [2, 3, 5, 16, 25, 33])
    def test_one_lane_generators_match_per_graph(self, p, n):
        for seed in range(6):
            for path_len in sorted({1, max(1, n // 2), n - 1}):
                got = mr.planted_path_graph(n, path_len, p, seed)
                assert got == reference_planted_path_graph(n, path_len, p, seed), (path_len, seed)
            assert mr.no_path_graph(n, p, seed) == reference_no_path_graph(n, p, seed), seed

    @pytest.mark.parametrize("noise_prob", [0.0, 1.0, 0.2])
    @pytest.mark.parametrize("edge_prob", [0.0, 1.0, 0.2])
    def test_lanes_match_per_graph_at_every_density(self, noise_prob, edge_prob):
        n = 9
        rng = Random(noise_prob + 2 * edge_prob)
        path_lens = [randbelow(rng, n - 1) + 1 for _ in range(61)]
        seed = rng.getrandbits(64)
        ours, ref = Random(seed), Random(seed)
        graphs = reference_planted_graphs(ref, n, path_lens, noise_prob)
        assert _planted_masks(ours, n, path_lens, noise_prob) == graph_ints_to_masks(
            [reference_graph_int(g) for g in graphs], n
        )
        graphs = reference_no_path_graphs(ref, n, 37, edge_prob)
        assert _no_path_masks(ours, n, 37, edge_prob) == graph_ints_to_masks(
            [reference_graph_int(g) for g in graphs], n
        )
        assert ours.getstate() == ref.getstate()  # both read the same words

    @pytest.mark.parametrize("path_lens", [[0, 9], [-1], [1, 2, 10]])
    def test_path_lengths_outside_the_graph_refused(self, path_lens):
        # A path of n or more edges cannot be simple, and a planted path has an edge.
        for path_len in path_lens:
            if not 1 <= path_len <= 8:
                with pytest.raises(mr.InvalidParameterError, match=rf"^path_len {path_len} out of range 1\.\.8$"):
                    mr.planted_path_graph(9, path_len, 0.1, 0)

    @pytest.mark.parametrize("path_len", [2, 3, 4])
    def test_middle_vertex_orders_are_uniform(self, path_len):
        # With n = 5 and no noise, graph t is the path 1 -> a -> ... -> 5
        # through one of the ordered tuples of path_len - 1 distinct
        # vertices of 2..4, each with the same chance.
        count = 6000
        masks = _planted_masks(Random(5), 5, [path_len] * count, 0.0)
        seen = {}
        for middle in itertools.permutations(range(2, 5), path_len - 1):
            path = (1, *middle, 5)
            hits = (1 << count) - 1
            for a, b in zip(path, path[1:]):
                hits &= masks[(a - 1) * 5 + (b - 1)]
            seen[middle] = hits.bit_count()
        assert sum(seen.values()) == count
        assert sum(m.bit_count() for m in masks) == path_len * count
        share = 1 / len(seen)
        sigma = (count * share * (1 - share)) ** 0.5
        for middle, hits in seen.items():
            assert abs(hits - count * share) < 5 * sigma, (middle, hits)

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_sink_sides_read_back_and_are_uniform(self, n):
        # At edge density 1 only the source -> sink edges are missing, so the
        # sink side of graph t is the set of vertices 1 has no edge to.
        sides_count = 2 ** (n - 2)
        width = 1000 * sides_count
        full = (1 << width) - 1
        masks = _no_path_masks(Random(n), n, width, 1.0)
        sink = [full & ~masks[v] for v in range(n)]  # vertex 1 lacks the edge 1 -> v + 1
        assert (sink[0], sink[n - 1]) == (0, full)
        for u in range(n):
            for v in range(n):
                assert masks[u * n + v] == full & ~(~sink[u] & sink[v]), (u, v)
        sides = Counter(tuple((sink[v] >> t) & 1 for v in range(1, n - 1)) for t in range(width))
        assert len(sides) == sides_count
        sigma = (width / sides_count * (1 - 1 / sides_count)) ** 0.5
        for side, seen in sides.items():
            assert abs(seen - width / sides_count) < 5 * sigma, (side, seen)

    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("samples", [1, 2, 3])
    def test_first_half_planted(self, n, samples):
        # n = 2 has no middle vertex, so its keys are getrandbits(0); n = 3
        # has one.
        [(masks, width, expected)] = planted_chunks(n, samples, 0, None)
        assert (width, expected) == (samples, (1 << (samples + 1) // 2) - 1)
        assert _oracle_masks(masks, width, n, None) == (expected, (1 << width) - 1)

    @pytest.mark.parametrize("n, l", [(2, 1), (3, 2), (5, 1), (9, 3), (16, 12), (33, 32), (64, 63)])
    def test_planted_graphs_keep_the_promise(self, n, l):
        # Every planted graph reaches n within its budget, and no other does;
        # without noise, graph t is its path alone: L edges, at distance L.
        for masks, width, expected in planted_chunks(n, 501, 12, l):
            assert _oracle_masks(masks, width, n, l) == (expected, (1 << width) - 1)
        rng = Random(n)
        path_lens = [1 + randbelow(rng, n - 1) for _ in range(200)]
        masks = _planted_masks(Random(l), n, path_lens, 0.0)
        graphs = masks_to_graph_ints(masks, len(path_lens))
        for path_len, g in zip(path_lens, graphs):
            assert g.bit_count() == path_len
            assert reference_distance(_graph_int_rows(g, n), 1, n) == path_len

    def test_a_chunk_is_freed_before_the_next_is_drawn(self):
        # Three chunks peak within a quarter chunk of one: neither the check
        # nor the chunk generator holds a chunk while the next is drawn.
        circuit = mr.build_reach_leq(16, 15)
        circuit.live_peak()  # the cached plan is in neither peak
        chunk_bytes = 16 * 16 * CHUNK_BITS // 8
        peaks = [traced_peak(lambda: run_planted_check(circuit, 16, k * CHUNK_BITS, seed=1)) for k in (1, 3)]
        assert peaks[1] < peaks[0] + chunk_bytes / 4, peaks


class TestOracleIndependence:
    def test_oracles_import_nothing_from_the_builders(self):
        # The oracle checks the builders, so it must share no code with them.
        # The package root re-exports every builder, so it is off limits too.
        tree = ast.parse(Path(monoreach.oracles.__file__).read_text())
        imported = []  # (absolute module, name or None for a whole module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    module = "monoreach" + (f".{module}" if module else "")
                imported += [(module, alias.name) for alias in node.names]
        ours = [(module, name) for module, name in imported if module.split(".")[0] == "monoreach"]
        assert ours, "found no package imports: the scan is broken"
        for module, name in ours:
            assert module != "monoreach", f"imports {name} from the package root"
            assert module.split(".")[:2] != ["monoreach", "build"], f"imports {name or module} from the builders"
            if module == "monoreach.circuit":
                assert name in ("AdjacencyMatrix", "MonotoneCircuit"), f"imports {name or module} from circuit"

    @pytest.mark.parametrize("module", [monoreach.oracles, monoreach.exactmath])
    def test_draws_never_use_numpy_random(self, module):
        # Every documented draw comes from random.Random (MT19937); no graph
        # or mask may drift to numpy's generators.  The one exception is
        # exactmath.twister_words, which runs numpy's MT19937 from the
        # Random's own state for Bernoulli masks and planted keys: checked
        # here to take that state and scanned no further, while
        # test_bernoulli_masks_match_the_reader and
        # test_lanes_match_per_graph_at_every_density check masks, keys and
        # final states against getrandbits.
        tree = ast.parse(Path(module.__file__).read_text())
        if module is monoreach.exactmath:
            tree.body.remove(checked_numpy_handoff(tree))
        numpy_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[:2] != ["numpy", "random"], f"imports {alias.name}"
                    if alias.name == "numpy":
                        numpy_names.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.module:
                assert node.module.split(".")[:2] != ["numpy", "random"], f"imports from {node.module}"
                if node.module == "numpy":
                    assert "random" not in [alias.name for alias in node.names], "imports numpy's random"
        assert numpy_names == {"np"}, "the import scan is broken"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "random":
                assert not (isinstance(node.value, ast.Name) and node.value.id in numpy_names), (
                    f"line {node.lineno} uses {node.value.id}.random"
                )


def checked_numpy_handoff(tree):
    """The def of twister_words in exactmath's tree, once checked to import
    MT19937 and Generator from numpy.random, which no other statement
    names; to make one unseeded MT19937, wrapped in one Generator, bound to
    a module name only it and a None default bind; and, before it yields,
    to set that generator's state once, to the Mersenne Twister key and
    position that rng.getstate() returns, which nothing rebinds."""
    func = next(node for node in tree.body if getattr(node, "name", None) == "twister_words")
    inside = list(ast.walk(func))
    rest = ast.Module([node for node in tree.body if node is not func], [])
    imports = [node for node in inside if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [(node.module, [(a.name, a.asname) for a in node.names]) for node in imports] == [
        ("numpy.random", [("MT19937", None), ("Generator", None)])
    ]
    assert not {"MT19937", "Generator"} & {use for use, _ in name_uses(rest)}
    assigns = {ast.unparse(node.value): node.targets for node in inside if isinstance(node, ast.Assign)}
    (generator,) = map(ast.unparse, assigns["Generator(MT19937())"])
    calls = [ast.unparse(node) for node in inside if isinstance(node, ast.Call)]
    numpy_calls = [call for call in calls if call.startswith(("MT19937(", "Generator("))]
    assert numpy_calls == ["Generator(MT19937())", "MT19937()"]
    elsewhere = [node for node in ast.walk(rest) if isinstance(node, ast.Assign)]
    assert [ast.unparse(node.value) for node in elsewhere if generator in map(ast.unparse, node.targets)] == ["None"]
    (bits,) = map(ast.unparse, assigns[f"{generator}.bit_generator"])
    (from_rng,) = assigns["rng.getstate()"]
    _, key, _ = map(ast.unparse, from_rng.elts)
    state = f"{{'bit_generator': 'MT19937', 'state': {{'key': {key}[:-1], 'pos': {key}[-1]}}}}"
    state = ast.unparse(ast.parse(state))
    (set_state,) = [
        node for node in inside if isinstance(node, ast.Assign) and f"{bits}.state" in map(ast.unparse, node.targets)
    ]
    assert ast.unparse(set_state.value) == state
    (handed,) = [node for node in inside if isinstance(node, ast.Yield)]
    assert set_state.lineno < handed.lineno
    stores = [node.id for node in inside if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    assert stores.count(key) == 1, f"rebinds {key}, which rng.getstate() bound"
    return func


SRC = Path(monoreach.__file__).parent


def name_uses(tree):
    """(name, enclosing function nodes) of every Name and Attribute in tree."""
    uses = []

    def visit(node, scope):
        if isinstance(node, ast.Name):
            uses.append((node.id, scope))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return uses


class TestOneBfsOneLoop:
    def test_one_function_evaluates_circuits(self):
        # Every driver hands its chunks to _compare; none evaluates on its own.
        tree = ast.parse(Path(monoreach.oracles.__file__).read_text())
        callers = {
            func.name
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and node.attr == "evaluate_batch"
        }
        assert callers == {"_compare"}

    def test_no_per_graph_bfs_in_the_library(self):
        for path in SRC.glob("*.py"):
            names = {getattr(node, "name", None) for node in ast.walk(ast.parse(path.read_text()))}
            assert "_rows_distance" not in names, path.name

    def test_every_private_function_has_a_caller(self):
        # A private function or method nothing else in the package names is an
        # unused helper.
        count, unused = functions_without_caller(
            lambda tree: (
                (node.name, node)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not (node.name.startswith("__") and node.name.endswith("__"))
            )
        )
        assert count > 20, "found few private functions: the scan is broken"
        assert unused == []

    def test_every_public_function_has_a_caller(self):
        # So is a module-level public function, but for those on
        # PUBLIC_WITHOUT_CALLER, kept for the reason given there.
        count, unused = functions_without_caller(
            lambda tree: (
                (node.name, node)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
            )
        )
        assert count > 40, "found few public functions: the scan is broken"
        assert sorted(set(unused) - set(PUBLIC_WITHOUT_CALLER)) == []
        assert sorted(set(PUBLIC_WITHOUT_CALLER) - set(unused)) == [], "has a caller now: take it off the list"

    def test_every_public_method_has_a_caller(self):
        # So is a public method in a class body, but for those on
        # METHODS_WITHOUT_CALLER; dunder methods are called by Python itself.
        count, unused = functions_without_caller(
            lambda tree: (
                (f"{cls.name}.{node.name}", node)
                for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef)
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
            )
        )
        assert count > 20, "found few public methods: the scan is broken"
        assert sorted(set(unused) - set(METHODS_WITHOUT_CALLER)) == []
        assert sorted(set(METHODS_WITHOUT_CALLER) - set(unused)) == [], "has a caller now: take it off the list"


class TestBenchmarkProbes:
    def test_every_probe_names_a_function(self):
        # The traced benchmark wraps each module:qualname of PROBES in
        # perfbench/layers.py, and one that names nothing drops its metrics
        # from the result, so every probed function must stay.
        layers = ast.parse((Path(__file__).parents[1] / "perfbench" / "layers.py").read_text())
        (probes,) = [
            node.value
            for node in layers.body
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["PROBES"]
        ]
        targets = [probe.elts[0].value for probe in probes.elts]
        assert len(targets) > 10, "found few probes: the scan is broken"
        for target in targets:
            module, _, qualname = target.partition(":")
            found = importlib.import_module(module)
            for part in qualname.split("."):
                found = getattr(found, part, None)
            assert callable(found), f"{target} names no function"


def functions_without_caller(select):
    """How many functions select(tree) finds in the package's modules, as
    (label, node) pairs, and module:label of those that nothing else in
    the package names.  A recursive call from a function's own body and an
    export from __init__.py do not count as callers."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [use for module, tree in trees.items() if module != "__init__.py" for use in name_uses(tree)]
    defined = [(module, label, node) for module, tree in trees.items() for label, node in select(tree)]
    unused = [
        f"{module}:{label}"
        for module, label, node in defined
        if not any(used == node.name and node not in scope for used, scope in uses)
    ]
    return len(defined), sorted(unused)


# Module-level public functions that no other part of the package calls,
# each with the reason it stays.
PUBLIC_WITHOUT_CALLER = {
    "build.py:build_reach": "acceptance-test API: tests/test_acceptance.py calls it through the package root",
    "families.py:verify_line_cover_bound": "acceptance-test API, as build_reach",
    "families.py:sampling_guarantee_holds": "acceptance-test API, as build_reach",
    "families.py:sampling_failure_bound": "acceptance-test API, as build_reach",
    "families.py:hitting_decomposition": "acceptance-test API, as build_reach",
    "oracles.py:planted_path_graph": "perfbench/layers.py PROBES wraps it; waits for the probe refresh",
    "oracles.py:no_path_graph": "perfbench/layers.py PROBES wraps it; waits for the probe refresh",
    "oracles.py:masks_to_graph_ints": "perfbench/layers.py PROBES wraps it; waits for the probe refresh",
    "oracles.py:graph_ints_to_masks": "perfbench/layers.py PROBES wraps it; waits for the probe refresh",
    "exactmath.py:bernoulli_mask": "perfbench/layers.py PROBES wraps it",
}


# Public methods that no other part of the package calls, each with the
# reason it stays.
METHODS_WITHOUT_CALLER = {
    "circuit.py:MonotoneCircuit.wire_depths": "perfbench/layers.py PROBES wraps it",
    "build.py:DepthLedger.total_measured": "the acceptance invariant reads it",
    "cli.py:_Parser.error": "argparse calls it: the override of ArgumentParser.error",
}
