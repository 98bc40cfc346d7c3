"""Oracles and graph generators."""

import ast
import hashlib
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoreach as mr
import monoreach.oracles
from monoreach.circuit import AdjacencyMatrix
from monoreach.oracles import (
    MAX_CHECK_VERTICES,
    _graph_int_rows,
    _oracle_masks,
    _rows_distance,
    bernoulli_entry_masks,
    bfs_reachable,
    exhaustive_input_masks,
    graph_from_index,
    graph_ints_to_masks,
    graph_to_text,
    masks_to_graph_ints,
    run_exhaustive_check,
    run_planted_check,
    run_random_check,
    shortest_path_length,
)


def matrix_of(n, *edges):
    return AdjacencyMatrix.from_edges(n, edges)


def per_graph_oracle(masks, width, n, l):
    """Reference for _oracle_masks: transpose the chunk into per-graph ints
    and run one _rows_distance BFS per graph."""
    reach = 0
    outside = 0
    for t, g in enumerate(masks_to_graph_ints(masks, width, n)):
        dist = _rows_distance(_graph_int_rows(g, n), 1, n)
        if dist is not None:
            reach |= 1 << t
            if l is not None and dist > l:
                outside |= 1 << t
    return reach, ((1 << width) - 1) & ~outside


class TestBfs:
    def test_two_hop(self):
        assert mr.bfs_reachable(matrix_of(3, (1, 2), (2, 3)), 1, 3)

    def test_edgeless(self):
        assert not mr.bfs_reachable(AdjacencyMatrix(2), 1, 2)

    def test_self_reachable(self):
        g = matrix_of(4, (1, 2))
        for v in range(1, 5):
            assert mr.bfs_reachable(g, v, v)

    def test_range_check(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.bfs_reachable(AdjacencyMatrix(3), 0, 2)


class TestShortestPath:
    def test_direct_edge_wins(self):
        g = matrix_of(3, (1, 2), (2, 3), (1, 3))
        assert mr.shortest_path_length(g, 1, 3) == 1

    def test_self_distance_zero(self):
        assert mr.shortest_path_length(AdjacencyMatrix(3), 2, 2) == 0

    def test_five_cycle(self):
        g = matrix_of(5, (1, 2), (2, 3), (3, 4), (4, 5), (5, 1))
        assert mr.shortest_path_length(g, 1, 4) == 3

    def test_unreachable_is_none(self):
        assert mr.shortest_path_length(matrix_of(3, (2, 1)), 1, 3) is None


class TestExactWalk:
    def test_length_zero(self):
        g = AdjacencyMatrix(3)
        assert mr.exact_length_walk_exists(g, 2, 2, 0)
        assert not mr.exact_length_walk_exists(g, 1, 2, 0)

    def test_revisit_walk(self):
        g = matrix_of(3, (1, 2), (2, 1), (2, 3))
        assert mr.exact_length_walk_exists(g, 1, 3, 4)
        assert not mr.exact_length_walk_exists(g, 1, 3, 3)

    def test_edgeless_positive_lengths(self):
        g = AdjacencyMatrix(3)
        for l in (1, 2, 5):
            assert not mr.exact_length_walk_exists(g, 1, 3, l)

    def test_consistency_with_bfs(self):
        for seed in range(1000):
            g = mr.random_graph(6, 0.25, seed).matrix
            dist = mr.shortest_path_length(g, 1, 6)
            hits = [l for l in range(6) if mr.exact_length_walk_exists(g, 1, 6, l)]
            if dist is None:
                assert not hits
            else:
                assert hits and hits[0] == dist

    def test_some_walk_length_iff_reachable_exhaustive(self):
        # Over every graph with up to 4 vertices: a walk of some length
        # 1..n-1 exists from src to dst (src != dst) iff BFS reaches dst.
        for n in (2, 3, 4):
            full = (1 << n) - 1
            for t in range(1 << (n * n)):
                rows = [(t >> (i * n)) & full for i in range(n)]
                for src in range(1, n + 1):
                    seen = 0
                    frontier = 1 << (src - 1)
                    for _ in range(n - 1):
                        nxt = 0
                        f = frontier
                        while f:
                            low = f & -f
                            nxt |= rows[low.bit_length() - 1]
                            f ^= low
                        frontier = nxt
                        seen |= nxt
                    seen &= ~(1 << (src - 1))
                    m = AdjacencyMatrix(n, rows)
                    for dst in range(1, n + 1):
                        if dst == src:
                            continue
                        assert bool((seen >> (dst - 1)) & 1) == mr.bfs_reachable(m, src, dst)


class TestEnumerate:
    def test_counts(self):
        assert sum(1 for _ in mr.enumerate_graphs(2)) == 16
        assert sum(1 for _ in mr.enumerate_graphs(3)) == 512
        assert sum(1 for _ in mr.enumerate_graphs(4)) == 65536

    def test_deterministic_order(self):
        first = next(iter(mr.enumerate_graphs(2)))
        assert first.rows == [0, 0]
        third = list(mr.enumerate_graphs(2))[2]
        assert third.entry(1, 2) == 1

    def test_budget_guard(self):
        with pytest.raises(mr.BudgetExceededError):
            list(mr.enumerate_graphs(5))


class TestGenerators:
    def test_edge_prob_extremes(self):
        assert mr.random_graph(4, 0.0, 3).matrix.rows == [0] * 4
        assert mr.random_graph(4, 1.0, 3).matrix.rows == [15] * 4

    def test_planted_path_exact_length(self):
        for seed in range(50):
            s = mr.planted_path_graph(8, 3, 0.0, seed)
            assert mr.shortest_path_length(s.matrix, 1, 8) == 3

    def test_planted_path_with_noise_keeps_promise(self):
        for seed in range(50):
            s = mr.planted_path_graph(8, 5, 0.2, seed)
            d = mr.shortest_path_length(s.matrix, 1, 8)
            assert d is not None and d <= 5

    def test_no_path_graphs_never_reach(self):
        for seed in range(200):
            s = mr.no_path_graph(7, 0.45, seed)
            assert not mr.bfs_reachable(s.matrix, 1, 7)

    def test_seed_determinism(self):
        a = mr.random_graph(6, 0.3, 12).matrix
        b = mr.random_graph(6, 0.3, 12).matrix
        assert a == b

    def test_parameter_checks(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.planted_path_graph(8, 8, 0.0, 1)
        with pytest.raises(mr.InvalidParameterError):
            mr.random_graph(4, 1.5, 1)


class TestBitPacking:
    def test_exhaustive_masks_match_index_decoding(self):
        masks, width = exhaustive_input_masks(2)
        assert width == 16
        for t in range(width):
            g = graph_from_index(2, t)
            bits = g.input_bits()
            for e in range(4):
                assert (masks[e] >> t) & 1 == bits[e]

    def test_transpose_round_trip(self):
        from random import Random

        rng = Random(5)
        masks = bernoulli_entry_masks(rng, 5, 1000, 0.37)
        graph_ints = masks_to_graph_ints(masks, 1000, 5)
        back = graph_ints_to_masks(graph_ints, 5)
        assert back == masks

    def test_batch_matches_single_evaluation(self):
        c = mr.build_reach(4)
        mats = [mr.random_graph(4, 0.4, seed).matrix for seed in range(64)]
        from monoreach.oracles import matrices_to_masks

        out = c.evaluate_batch(matrices_to_masks(mats))[0]
        for t, g in enumerate(mats):
            assert (out >> t) & 1 == c.evaluate(g)


class TestGraphText:
    def test_round_trip(self):
        g = matrix_of(3, (1, 2), (3, 1))
        text = mr.graph_to_text(g)
        assert text == "GRAPH 3\n010\n000\n100\n"
        assert mr.graph_from_text(text) == g

    def test_file_round_trip(self, tmp_path):
        g = mr.random_graph(6, 0.5, 9).matrix
        path = tmp_path / "g.gr"
        mr.write_graph(g, path)
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
        walk = mr.build_walk_power(3, 2)
        with pytest.raises(mr.InvalidParameterError):
            run_random_check(walk, 3, 100, 0)
        with pytest.raises(mr.InvalidParameterError):
            run_planted_check(walk, 3, 100, 0)
        with pytest.raises(mr.InvalidParameterError):
            run_exhaustive_check(walk, 3)

    def test_vertex_budget(self):
        wide = mr.new_circuit(MAX_CHECK_VERTICES + 1)
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
            assert expected == int(bfs_reachable(g, 1, 10)) != got == c.evaluate(g)
            assert l is None or shortest_path_length(g, 1, 10) <= l

    def test_exhaustive_mismatches_in_graph_order(self):
        c = mr.build_reach_leq(3, 1)
        report = run_exhaustive_check(c, 3, max_report=1000)
        indices = [sum(row << (3 * i) for i, row in enumerate(g.rows)) for g, _, _ in report.mismatches]
        assert indices == sorted(indices)
        assert indices == [t for t in range(512) if shortest_path_length(graph_from_index(3, t), 1, 3) == 2]


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
        masks, width = exhaustive_input_masks(n)
        for l in (None, 1, n - 1):
            assert _oracle_masks(masks, width, n, l) == per_graph_oracle(masks, width, n, l)


def report_digest(report):
    h = hashlib.sha256(f"{report.checked} {report.skipped}\n".encode())
    for g, expected, got in report.mismatches:
        h.update((graph_to_text(g) + f"{expected} {got}\n").encode())
    return h.hexdigest()


class TestReportGoldens:
    # Pinned from the per-graph oracle the sliced one replaced: the reports
    # of a wrong circuit (it misses every distance above 3) must not move.
    @pytest.mark.parametrize(
        "l, skipped, digest",
        [
            (None, 0, "e56810a0e9ab5e9cc17fe3a808a4a9f800fbafa4df5460f664c88cfc23c94826"),
            (5, 291, "befbc1e759b95fcee7ebc39572093ee2a46601ae8ecb859d2825ef3f5433e6ff"),
        ],
    )
    def test_random_report_digest(self, l, skipped, digest):
        report = run_random_check(mr.build_reach_leq(16, 3), 16, 40000, seed=7, l=l, max_report=6)
        assert (report.checked, report.skipped, len(report.mismatches)) == (40000, skipped, 6)
        assert report_digest(report) == digest


class TestPackedBatches:
    # Pinned from the driver that evaluated each density's draws on their
    # own, over sample counts whose draws pack differently: 16,384 fills one
    # batch, 20,000 two, 50,000 six, and 1 graph leaves two densities empty.
    # With seed 11 the wrong circuit's first density holds 1 mismatch at
    # 16,384 samples, none at 20,000 and 5 at 50,000: a cut of 3 falls
    # inside it at 50,000 and across a density boundary at 16,384, a cut of
    # 8 falls across one at 50,000, and 10**6 reports every mismatch.
    @pytest.mark.parametrize(
        "samples, l, max_report, skipped, found, digest",
        [
            (16384, None, 3, 0, 3, "12d20e39a888583d025e36fd843dc78a226c6b26dfba9a89dbc4ef74a98119a8"),
            (16384, None, 8, 0, 8, "a7dd9e158e9e7bfea8a070dab5c68f9b0f996c571e11d57070d69bc910108113"),
            (16384, None, 10**6, 0, 300, "09ec3308f7f64e53fbe657c803c25e67436f2cc144fed40ecd5cac142084e148"),
            (16384, 5, 3, 131, 3, "ed53488dd75d36d51696ca8a1bfe7c78961e7854ed1e279faf17a2b0871c06e8"),
            (16384, 5, 8, 131, 8, "91563e2b3cf806ebfe0c067f9dbecd300e8c31a31a4cf043a092473051a8da17"),
            (16384, 5, 10**6, 131, 169, "c5a780882a21d3e6019418c7fde3cbb0b2eb1bbb18253cb7e7cfabb149b47b6a"),
            (20000, None, 3, 0, 3, "929a932d8bd8a6f64f5285d32b9562a2c3e3eac1bc32c14f86e17972f81561fd"),
            (20000, None, 10**6, 0, 370, "edbfb3526abfca1c6c50879edde2734e2e853c19fa1685956d82686eb6412404"),
            (20000, 5, 3, 171, 3, "220d7685c34d1fb27c0d28afd7d06b156e6e00ad5a5d3b553b641d0b4a3bb038"),
            (20000, 5, 10**6, 171, 199, "935c27070a4aa1f15d45f5b26fb53bfba6e64302ef9a14a88e1b818963fe7b14"),
            (50000, None, 3, 0, 3, "45b3dc74c8708b7922a0318612bdb802eecef2a499907718787c4699abb0e81b"),
            (50000, None, 8, 0, 8, "ec31854017247bb41ec853cbcdddf054995a38326a0205ef08c4c2a481782865"),
            (50000, None, 10**6, 0, 938, "362d61e417b6778b4b8c5424d047176538911663f54bd58b2afaa24741409698"),
            (50000, 5, 3, 397, 3, "218c037a126ffd285747a256390c48121ce3d698b6e39a7965dff5e26e280919"),
            (50000, 5, 8, 397, 8, "208a6bc04a324be25e9bb10de6767f1d4a0beddb8ec8f67385be63d34ba41a44"),
            (50000, 5, 10**6, 397, 541, "071a7de46ddf420fc6d3d74a2f03ebd2d2508f27dfd2e4bd759959ac3be8af5a"),
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
            (16384, 5, 131, "026b739a20744eaf2176e9a5d2af8b5e83a73732b184cce9d3d31e2f55088925"),
            (20000, None, 0, "ed80930cbac300bdb3300c87fcab8073239cd953efac375ff3ba3ad74debdff3"),
            (20000, 5, 171, "7cac03c55f8cd099b8e1d7586edb1a99bf64e699d61f49944b6e711457ea270e"),
            (50000, None, 0, "594ad4a45a28d07865bac4998f36573188eff44b915b4ed817d7ce0d1246dd0d"),
            (50000, 5, 397, "89858a4d2945f36754330641452bf4eaa859cf97075a7b5a85d77273ac4d098d"),
        ],
    )
    def test_correct_circuit_report_digest(self, samples, l, skipped, digest):
        report = run_random_check(mr.build_reach_leq(16, 15), 16, samples, seed=11, l=l)
        assert (report.checked, report.skipped, report.ok) == (samples, skipped, True)
        assert report_digest(report) == digest

    @pytest.mark.parametrize(
        "samples, widths",
        [
            (1, [1]),
            (16384, [16384]),
            (20000, [13334, 6666]),
            (50000, [16384, 284, 16384, 282, 16384, 282]),
            (393216, [16384] * 24),
        ],
    )
    def test_one_evaluation_per_batch(self, monkeypatch, samples, widths):
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
