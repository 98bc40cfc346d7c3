"""Builders: walk powers, reachability circuits, composition, predictions."""

import ast
import hashlib
import math
import re
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest
from test_circuit_core import (
    ALL_ENTRIES,
    build_walk_power,
    circuit_to_text,
    evaluate,
    matrix_of,
    per_gate_live,
    prune,
    well_formed,
)
from test_verification import bernoulli_graph, exact_length_walk_exists, reference_distance

import monoreach as mr
import monoreach.build
import monoreach.families
from monoreach.build import (
    ROLE_CLASSES,
    _build_shape,
    _exact_plan,
    _needs,
    _pattern_mask,
    _shape_ledger,
    _walk_power_entries,
    ledger_csv_lines,
    predict_gate_count,
)
from monoreach.circuit import AdjacencyMatrix, _banded_product
from monoreach.exactmath import child_seed
from monoreach.families import CoveringFamily, FamilyParams
from monoreach.oracles import run_exhaustive_check, run_planted_check, run_random_check


class TestWalkPower:
    def test_t0_is_the_input_matrix(self):
        c = build_walk_power(3, 0)
        assert c.gate_count == 0
        assert c.depth() == 0
        assert list(c.outputs) == list(range(9))

    def test_depth_n4_t2(self):
        c = build_walk_power(4, 2)
        assert c.depth() == 6  # 2 * (1 + ceil(log2 4))

    def test_three_cycle_closure(self):
        c = build_walk_power(3, 2)
        got = c.evaluate_all(matrix_of(3, (1, 2), (2, 3), (3, 1)))
        assert got == (1,) * 9  # every pair joined by a walk of length <= 4

    def test_matches_walk_oracle(self):
        c = build_walk_power(4, 2)
        for seed in range(40):
            g = bernoulli_graph(4, 0.3, seed)
            got = c.evaluate_all(g)
            for i in range(1, 5):
                for j in range(1, 5):
                    want = any(exact_length_walk_exists(g.rows, i, j, l) for l in range(1, 5))
                    assert got[(i - 1) * 4 + (j - 1)] == int(want)

    def test_single_vertex(self):
        c = build_walk_power(1, 3)
        assert c.gate_count == 0
        assert evaluate(c, AdjacencyMatrix(1, [1])) == 1
        assert evaluate(c, AdjacencyMatrix(1, [0])) == 0


class TestReachLeq:
    def test_n2_equals_edge_variable(self):
        c = mr.build_reach_leq(2, 3)
        for t in range(16):
            m = AdjacencyMatrix(2, [t & 3, (t >> 2) & 3])
            assert evaluate(c, m) == m.entry(1, 2)

    def test_path_graph_hits(self):
        for n in (3, 5, 8):
            c = mr.build_reach_leq(n, n - 1)
            g = matrix_of(n, *[(i, i + 1) for i in range(1, n)])
            assert evaluate(c, g) == 1

    def test_edgeless_is_zero(self):
        assert evaluate(mr.build_reach_leq(5, 4), AdjacencyMatrix(5)) == 0

    def test_depth_formula(self):
        for n, l in ((4, 3), (5, 5), (8, 2), (16, 9)):
            t = mr.ceil_log2(l)
            assert mr.build_reach_leq(n, l).depth() == t * (1 + mr.ceil_log2(n))

    def test_parameter_checks(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.build_reach_leq(1, 1)
        with pytest.raises(mr.InvalidParameterError):
            mr.build_reach_leq(3, 0)


class TestReachExact:
    def test_l1_is_the_edge_variable(self):
        c = mr.build_reach_exact(3, 1)
        assert c.gate_count == 0
        assert c.depth() == 0
        assert evaluate(c, matrix_of(3, (1, 3))) == 1
        assert evaluate(c, matrix_of(3, (1, 2))) == 0

    def test_length_two(self):
        c = mr.build_reach_exact(3, 2)
        assert evaluate(c, matrix_of(3, (1, 2), (2, 3))) == 1
        assert evaluate(c, matrix_of(3, (1, 3))) == 0

    def test_walk_with_revisits(self):
        c = mr.build_reach_exact(3, 4)
        g = matrix_of(3, (1, 2), (2, 1), (2, 3))
        assert exact_length_walk_exists(g.rows, 1, 3, 4)  # 1-2-1-2-3
        assert evaluate(c, g) == 1

    def test_matches_walk_oracle(self):
        for l in (3, 5, 6, 7):
            c = mr.build_reach_exact(4, l)
            for seed in range(25):
                g = bernoulli_graph(4, 0.35, child_seed(l, str(seed)))
                assert evaluate(c, g) == int(exact_length_walk_exists(g.rows, 1, 4, l))


class TestReach:
    def test_exhaustive_small(self):
        for n in (2, 3):
            report = run_exhaustive_check(mr.build_reach(n), n)
            assert report.ok

    def test_all_ones(self):
        for n in (2, 5, 9):
            full = AdjacencyMatrix(n, [(1 << n) - 1] * n)
            assert evaluate(mr.build_reach(n), full) == 1


class TestComposeFamily:
    def test_degenerate_family_is_reachability(self):
        # One set covering everything; the clone sees the whole closure.
        fam = CoveringFamily(FamilyParams(8, 1, 6, 7, 3), [tuple(range(2, 8))])
        assert mr.check_family_exact(fam) is None
        circuit, ledger = mr.compose_family(fam, mr.build_reach_leq(8, 7))
        for seed in range(1000):
            g = bernoulli_graph(8, (seed % 5) * 0.1 + 0.05, seed)
            assert evaluate(circuit, g) == int(reference_distance(g.rows, 1, 8) is not None)
        assert ledger.total_measured == ledger.total_predicted

    def test_plane9_composition(self):
        fam = mr.plane_family(9)
        inner = mr.build_reach_leq(fam.params.s + 2, fam.params.l // fam.params.d)
        circuit, ledger = mr.compose_family(fam, inner)
        report = run_random_check(circuit, 9, 10_000, seed=5)
        assert report.ok
        # every graph with at most 3 edges, checked bit-parallel in chunks
        from itertools import chain, combinations

        from monoreach.oracles import CHUNK_BITS, _oracle_masks, graph_ints_to_masks

        graph_ints = [0]
        for edges in chain.from_iterable(combinations(range(81), r) for r in (1, 2, 3)):
            g = 0
            for e in edges:
                g |= 1 << e
            graph_ints.append(g)
        assert len(graph_ints) == 1 + 81 + 3240 + 85320
        for lo in range(0, len(graph_ints), CHUNK_BITS):
            chunk = graph_ints[lo : lo + CHUNK_BITS]
            masks = graph_ints_to_masks(chunk, 9)
            out = circuit.evaluate_batch(masks)[0]
            reach, _ = _oracle_masks(masks, len(chunk), 9, None)
            assert out == reach

    def test_ledger_identity(self):
        fam = mr.plane_family(9)
        p = fam.params
        inner = mr.build_reach_leq(p.s + 2, p.l // p.d)
        circuit, ledger = mr.compose_family(fam, inner)
        want = (
            mr.ceil_log2(p.m)
            + mr.ceil_log2(2 * p.d) * (1 + mr.ceil_log2(p.n))
            + inner.depth()
        )
        assert circuit.depth() == want
        assert ledger.total_measured == want
        assert ledger.total_predicted == want

    def test_splice_refuses_an_input_past_the_circuit(self):
        circuit = mr.MonotoneCircuit(9)
        inner = mr.build_reach_leq(4, 3)
        input_map = np.arange(inner.num_inputs + 1, dtype=np.int64)
        _, lefts, rights = inner.gates()
        past = circuit.num_wires + inner.gate_count  # past every wire the clone makes
        input_map[lefts[0]] = past  # gate 0 reads only inputs and the zero wire
        fault = (past, int(input_map[rights[0]]))
        with pytest.raises(mr.InvalidReferenceError, match=f"^{re.escape(f'gate references missing wire {fault}')}$"):
            monoreach.build._splice(circuit, inner, input_map)
        assert circuit.gate_count == 0

    def test_inner_size_mismatch_rejected(self):
        fam = mr.plane_family(9)
        with pytest.raises(mr.InvalidParameterError):
            mr.compose_family(fam, mr.build_reach_leq(9, 2))

    def test_sampled_family_composition_with_long_paths(self):
        # An irregular verified family over 6 vertices with l = 5 and d = 2:
        # planted paths of length 5 exceed the closure reach 2d = 4, so
        # completeness must come from the multi-block witness path.
        from monoreach.exactmath import child_seed

        params = FamilyParams(6, 8, 3, 5, 2)
        fam = mr.sample_family(params, child_seed(99, "37"))
        assert mr.check_family_exact(fam) is None
        circuit, ledger = mr.compose_family(fam, mr.build_reach_leq(5, 2))
        assert ledger.total_measured == ledger.total_predicted
        assert run_planted_check(circuit, 6, 2000, seed=4, l=5).ok
        assert run_random_check(circuit, 6, 3000, seed=4, l=5).ok

    def test_promise_soundness_no_path(self):
        fam = mr.plane_family(9)
        inner = mr.build_reach_leq(fam.params.s + 2, fam.params.l // fam.params.d)
        circuit, _ = mr.compose_family(fam, inner)
        from monoreach.oracles import no_path_graph

        for seed in range(300):
            g = no_path_graph(9, 0.4, seed)
            assert reference_distance(g.rows, 1, 9) is None
            assert evaluate(circuit, g) == 0


class TestHittingIntegration:
    def test_planted_paths_decompose_into_closure_edges(self):
        # The executable core of the composition argument: for a planted
        # shortest path, some family set gives indices whose consecutive
        # pairs are closure edges and whose interior points lie in the set.
        from monoreach.oracles import planted_path_graph

        fam = mr.plane_family(25)
        p = fam.params
        t_c = mr.ceil_log2(2 * p.d)
        closure = build_walk_power(p.n, t_c)
        for seed in range(40):
            length = 2 + seed % 20
            g = planted_path_graph(25, length, 0.0, seed)
            lp = reference_distance(g.rows, 1, 25)
            assert lp == length
            # recover the unique planted path by following edges
            path = [1]
            while path[-1] != 25:
                row = g.rows[path[-1] - 1]
                path.append(row.bit_length())
            w = mr.hitting_decomposition(fam, path)
            closure_bits = closure.evaluate_all(g)
            chosen = set(fam.sets[w.set_index])
            for t in w.indices[1:-1]:
                assert path[t] in chosen
            for a, b in zip(w.indices, w.indices[1:]):
                u, v = path[a], path[b]
                assert closure_bits[(u - 1) * p.n + (v - 1)] == 1


class TestBuildExplicit:
    def test_n4_exhaustive(self):
        circuit, _ = mr.build_explicit(4)
        assert run_exhaustive_check(circuit, 4).ok

    def test_n16_ledger_stages(self):
        circuit, ledger = mr.build_explicit(16)
        labels = {s.label: (s.predicted, s.measured) for s in ledger.stages}
        assert labels["or"] == (5, 5)  # ceil(log2 30)
        assert labels["closure"] == (20, 20)  # ceil(log2 16) * (1 + 4)
        assert labels["blocks"] == (4, 4)  # inner: 1 squaring over 7 vertices
        assert circuit.depth() == 29

    def test_n9_random_agreement(self):
        circuit, _ = mr.build_explicit(9)
        assert run_random_check(circuit, 9, 4000, seed=2).ok

    def test_n49_random_agreement(self):
        # First size whose plane uses q = 7 and a length-3 inner budget.
        circuit, ledger = mr.build_explicit(49)
        assert ledger.total_measured == ledger.total_predicted
        assert run_random_check(circuit, 49, 3000, seed=8).ok

    def test_validates(self):
        for n in (2, 3, 7, 12):
            circuit, _ = mr.build_explicit(n)
            assert well_formed(circuit) is None

    def test_deficiency_never_exceeds_n(self):
        # So the inner length budget n // d is at least 1 with no guard.
        for n in range(2, 20_001):
            assert mr.minimal_deficiency(mr.minimal_prime_q(n)) <= n, n

    def test_one_vertex_is_refused_before_the_inner_length(self):
        # minimal_deficiency(minimal_prime_q(1)) = 2 > 1 would give n // d = 0.
        for predict in (predict_gate_count, mr.predict_depth):
            with pytest.raises(mr.InvalidParameterError, match="^explicit mode needs n >= 2$"):
                predict("explicit", 1)


class TestSquaringPredictionRefusals:
    # The count used to read 0 on input that predict_depth and the builder
    # refuse.
    @pytest.mark.parametrize("n, l", [(5, -3), (1, 5), (5, 0)])
    def test_gate_count_refuses_what_the_builder_refuses(self, n, l):
        for refuse in (predict_gate_count, mr.predict_depth):
            with pytest.raises(mr.InvalidParameterError, match="^squaring mode needs n >= 2 and l >= 1$"):
                refuse("squaring", n, l)
        with pytest.raises(mr.InvalidParameterError):
            mr.build_reach_leq(n, l)


class TestRecursionSchedule:
    def test_big_power_of_two_example(self):
        n = 1 << 16
        d, levels = mr.recursion_schedule(n, 1 << 15)
        assert d == 16
        assert len(levels) == 3 + 1  # k = 3
        # n_1 = floor(n * g / d) with the per-level growth g = 2 ln n + 3.
        assert levels[1][0] == math.floor(n * (2 * math.log(n) + 3) / d)
        assert levels[0] == (n, 1 << 15)
        assert levels[3][1] == (1 << 15) // 16**3

    def test_degenerate_when_l_below_d(self):
        _, levels = mr.recursion_schedule(16, 3)
        assert levels == ((16, 3),)  # k = 0

    def test_growth_inequality(self):
        # d * (n_{i+1} - 2) must strictly dominate 2 * ln(n) * n_i, compared
        # in scaled integers; the cushion dwarfs the certified log error.
        from monoreach.exactmath import PREC, ln_scaled

        for n, l in ((1 << 16, 1 << 15), (1 << 10, 1 << 9), (16, 12)):
            d, levels = mr.recursion_schedule(n, l)
            assert len(levels) > 1
            ln_n = ln_scaled(n)
            cushion = 1 << 40
            for (n_i, _), (n_next, _) in zip(levels, levels[1:]):
                lhs = d * (n_next - 2) << PREC
                rhs = 2 * n_i * (ln_n + cushion)
                assert lhs > rhs
                assert d * (n_next - 2) > 2.0 * n_i * math.log(n)

    def test_level_parameters(self):
        shape = _build_shape("theorem", 16, 12)
        assert shape.levels == (FamilyParams(16, 16, 32, 12, 4),)
        assert shape.levels[0].m == 16
        assert _shape_ledger(shape).total_predicted == 4 + 3 * 5 + 2 * (1 + 6)  # or + closure + inner

    def test_precondition(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.recursion_schedule(16, 16)


class TestBuildRecursive:
    def test_k0_matches_plain_squaring(self):
        circuit, ledger = mr.build_recursive(16, 3, seed=1)
        assert _build_shape("theorem", 16, 3).levels == ()  # k = 0
        plain = mr.build_reach_leq(16, 3)
        assert bytes(circuit._ops) == bytes(plain._ops)
        assert circuit._lefts.tobytes() == plain._lefts.tobytes()
        assert circuit.outputs == plain.outputs
        assert ledger.total_measured == plain.depth()

    def test_nondegenerate_build(self):
        circuit, ledger = mr.build_recursive(16, 12, seed=42)
        assert len(_build_shape("theorem", 16, 12).levels) == 1  # k = 1
        assert ledger.total_measured == circuit.depth()
        assert ledger.total_measured == ledger.total_predicted
        assert run_planted_check(circuit, 16, 600, seed=9, l=12).ok

    def test_random_promise_instances(self):
        # Random graphs with the promise filter: graphs whose only 1 -> n
        # paths are longer than l are skipped, everything else must match.
        circuit, _ = mr.build_recursive(16, 12, seed=42)
        report = run_random_check(circuit, 16, 4000, seed=31, l=12)
        assert report.ok
        assert report.checked == 4000

    def test_ledger_reassembles_from_level_formulas(self):
        circuit, ledger = mr.build_recursive(16, 12, seed=42)
        d, (*outer, (n_k, l_k)) = mr.recursion_schedule(16, 12)
        assert outer
        total = 0
        for n_i, _ in outer:
            total += mr.ceil_log2(n_i)  # or stage (m_i = n_i)
            total += mr.ceil_log2(2 * d) * (1 + mr.ceil_log2(n_i))
        total += mr.ceil_log2(max(1, l_k)) * (1 + mr.ceil_log2(n_k))
        assert ledger.total_predicted == total
        assert circuit.depth() == total

    def test_determinism(self):
        a, _ = mr.build_recursive(9, 4, seed=7)
        b, _ = mr.build_recursive(9, 4, seed=7)
        assert bytes(a._ops) == bytes(b._ops)
        assert a._lefts.tobytes() == b._lefts.tobytes()

    def test_failed_build_carries_the_last_attempts_counterexample(self, monkeypatch):
        # Every sampled family is emptied, so every attempt fails its check.
        sampled = []

        def empty_family(params, seed):
            sampled.append(CoveringFamily(params, [()] * params.m))
            return sampled[-1]

        monkeypatch.setattr(monoreach.families, "sample_family", empty_family)
        with pytest.raises(mr.ConstructionFailedError) as err:
            mr.build_recursive(16, 12, seed=42, attempt_budget=3)
        assert len(sampled) == 3
        assert err.value.last_counterexample is not None
        assert err.value.last_counterexample == mr.check_family_exact(sampled[-1])


class TestFormerlySampledLevels:
    # The 20 level families with the largest C(n_i, d) among the theorem
    # pairs under the default --max-gates, from a sweep of all 4,174 pairs
    # with some C(n_i, d) > 1e7, which builds once validated by sampling.
    PAIRS = [(292, l) for l in range(20, 6, -1)] + [(291, l) for l in range(20, 14, -1)]

    @pytest.mark.parametrize("n, l", PAIRS)
    def test_first_attempt_passes_the_exact_check(self, n, l):
        assert predict_gate_count("theorem", n, l) <= 200_000_000
        levels = _build_shape("theorem", n, l).levels
        assert levels
        for i, params in enumerate(levels):
            assert math.comb(params.n, params.d) > 10_000_000
            family = mr.sample_family(params, child_seed(0, f"level{i}:attempt0"))
            assert mr.check_family_exact(family) is None


class TestSampleVerifiedFamily:
    PARAMS = FamilyParams(48, 48, 16, 8, 4)  # seed 0 passes on its 4th attempt

    def test_gives_up_with_the_last_counterexample(self):
        with pytest.raises(mr.ConstructionFailedError) as err:
            mr.sample_verified_family(self.PARAMS, 0, 3)
        last = mr.check_family_exact(mr.sample_family(self.PARAMS, child_seed(0, "attempt2")))
        assert last is not None
        assert err.value.last_counterexample == last

    def test_returns_the_first_verified_attempt(self):
        family, attempts = mr.sample_verified_family(self.PARAMS, 0, 10)
        assert attempts == 4
        assert family == mr.sample_family(self.PARAMS, child_seed(0, "attempt3"))

    @pytest.mark.parametrize("attempts", [0, -5])
    def test_attempts_below_one_are_refused(self, attempts, monkeypatch):
        monkeypatch.setattr(monoreach.families, "sample_family", fail)
        with pytest.raises(mr.InvalidParameterError, match=f"^attempts must be at least 1, got {attempts}$"):
            mr.sample_verified_family(self.PARAMS, 0, attempts)

    def test_label_prefixes_the_seed_stream(self):
        params = _build_shape("theorem", 16, 12).levels[0]
        family, attempts = mr.sample_verified_family(params, 42, 10, "level0:")
        assert family == mr.sample_family(params, child_seed(42, f"level0:attempt{attempts - 1}"))


class TestPredictGateCount:
    def test_matches_actual_builds_exactly(self):
        from monoreach.build import predict_gate_count

        cases = [
            ("squaring", 4, 3, mr.build_reach_leq(4, 3)),
            ("squaring", 16, 8, mr.build_reach_leq(16, 8)),
            ("exact", 4, 5, mr.build_reach_exact(4, 5)),
            ("exact", 9, 4, mr.build_reach_exact(9, 4)),
            ("explicit", 9, None, mr.build_explicit(9)[0]),
            ("explicit", 16, None, mr.build_explicit(16)[0]),
            ("theorem", 9, 4, mr.build_recursive(9, 4, seed=1)[0]),
        ]
        for mode, n, l, circuit in cases:
            assert predict_gate_count(mode, n, l) == circuit.gate_count, (mode, n, l)

    def test_squaring_matches_every_small_build(self):
        for n in range(2, 21):
            for l in range(1, 41):
                assert predict_gate_count("squaring", n, l) == mr.build_reach_leq(n, l).gate_count, (n, l)

    def test_exact_matches_every_small_build(self):
        for n in range(2, 10):
            for l in range(1, 40):
                assert predict_gate_count("exact", n, l) == mr.build_reach_exact(n, l).gate_count, (n, l)

    def test_explicit_matches_every_small_build(self):
        for n in range(2, 41):
            assert predict_gate_count("explicit", n) == mr.build_explicit(n)[0].gate_count, n

    @pytest.mark.parametrize("n, l", [(16, 12), (8, 4)])
    def test_theorem_matches_builds_at_every_seed(self, n, l):
        for seed in range(3):
            assert predict_gate_count("theorem", n, l) == mr.build_recursive(n, l, seed)[0].gate_count, seed

    def test_exact_cone_is_smaller_than_the_product_tree(self):
        assert predict_gate_count("exact", 9, 4) == 306  # 2,754 before pruning

    def test_astronomic_sizes_stay_cheap(self):
        from monoreach.build import predict_gate_count

        assert predict_gate_count("squaring", 1 << 20, None) > 10**18


def unpruned_reach_leq(n, l):
    c = mr.MonotoneCircuit(n)
    cur = _walk_power_entries(c, mr.ceil_log2(l), ALL_ENTRIES)
    c.set_outputs([int(cur[0, n - 1])])
    return c


def unpruned_reach_exact(n, l):
    """Every entry of every product of the exact plan."""
    c = mr.MonotoneCircuit(n)
    mats = [np.arange(n * n).reshape(n, n)]
    for a, b in _exact_plan(n, l):
        mats.append(_banded_product(c, mats[a], mats[b], np.ones((n, n), dtype=bool), need=None))
    c.set_outputs([int(mats[-1][0, n - 1])])
    return c


def dead_gate_count(c):
    return per_gate_live(c).count(False)


PRUNED_BUILDS = [
    ("squaring", n, l, mr.build_reach_leq, unpruned_reach_leq) for n in range(2, 10) for l in (1, 2, 3, 4, 5, 8, 9)
] + [
    ("exact", n, l, mr.build_reach_exact, unpruned_reach_exact) for n in range(2, 10) for l in (1, 2, 3, 5, 6, 7, 13)
]


class TestPrunedBuilds:
    @pytest.mark.parametrize("mode, n, l, build, unpruned", PRUNED_BUILDS)
    def test_same_outputs_and_depth_as_the_whole_circuit(self, mode, n, l, build, unpruned):
        pruned, whole = build(n, l), unpruned(n, l)
        rng = Random(child_seed(n * 100 + l, mode))
        masks = []  # 64 assignments at each edge density 1/2, 1/4 and 1/8
        for _ in range(n * n):
            half = rng.getrandbits(64)
            quarter = half & rng.getrandbits(64)
            eighth = quarter & rng.getrandbits(64)
            masks.append(half | quarter << 64 | eighth << 128)
        assert pruned.evaluate_batch(masks) == whole.evaluate_batch(masks)
        assert pruned.depth() == whole.depth()
        assert pruned.gate_count <= whole.gate_count

    @pytest.mark.parametrize("mode, n, l, build, unpruned", PRUNED_BUILDS[::5])
    def test_pruning_twice_is_pruning_once(self, mode, n, l, build, unpruned):
        once = unpruned(n, l)
        prune(once)
        text = circuit_to_text(once)
        assert text == circuit_to_text(build(n, l))
        prune(once)
        assert circuit_to_text(once) == text

    @pytest.mark.parametrize("mode, n, l, build, unpruned", PRUNED_BUILDS)
    def test_no_dead_gates(self, mode, n, l, build, unpruned):
        assert dead_gate_count(build(n, l)) == 0

    def test_composed_ledgers_are_unchanged(self):
        for n in (9, 16):
            family = mr.plane_family(n)
            q, d = family.params.s, family.params.d
            pruned = mr.compose_family(family, mr.build_reach_leq(q + 2, n // d))
            whole = mr.compose_family(family, unpruned_reach_leq(q + 2, n // d))
            assert pruned[1] == whole[1]
            assert pruned[0].depth() == whole[0].depth() == pruned[1].total_measured

    def test_walk_power_keeps_every_gate(self):
        c = build_walk_power(5, 3)
        text = circuit_to_text(c)
        prune(c)
        assert circuit_to_text(c) == text


def entry_cone(last, steps):
    """Needed entries of walk-power steps 0..steps, counted back entry by
    entry: (i, j) needs row i and column j, less (j, j), of the step before."""
    needs = [last]
    for _ in range(steps):
        rows, cols = needs[0].any(axis=1), needs[0].any(axis=0)
        earlier = rows[:, None] | cols[None, :]
        np.fill_diagonal(earlier, rows)
        needs.insert(0, earlier)
    return needs


def clone_reads(family, inner):
    """Closure entries that the clones of `inner` over the family's sets read."""
    n, slots = family.params.n, inner.num_vertices
    wires = {*inner._lefts, *inner._rights, *inner.outputs}
    pairs = [divmod(w, slots) for w in wires if w < inner.num_inputs]
    read = np.zeros((n, n), dtype=bool)
    for s in family.sets:
        middle = [v for v in s if v not in (1, n)]
        vertex = {0: 1, slots - 1: n, **{t + 1: v for t, v in enumerate(middle)}}
        for a, b in pairs:
            if a in vertex and b in vertex:
                read[vertex[a] - 1, vertex[b] - 1] = True
    return read


def uncovered_vertex_build(n=16, v=7):
    """build_explicit(n) with vertex v taken out of every set of its plane
    family: (circuit, family, inner)."""
    plane = mr.plane_family(n)
    family = CoveringFamily(plane.params, [[u for u in s if u != v] for s in plane.sets])
    inner = mr.build_reach_leq(plane.params.s + 2, n // plane.params.d)
    return mr.compose_family(family, inner)[0], family, inner


def fail(*args, **kwargs):
    raise AssertionError("not expected to run")


class TestClosureCone:
    def test_role_cone_is_the_entry_cone(self):
        rng = Random(5)
        for n in range(2, 9):
            for _ in range(20):
                last = frozenset(c for c in ROLE_CLASSES if rng.random() < 0.3)
                roles = [_pattern_mask(p, n) for p in _needs([(k, k) for k in range(3)], last, n, True)]
                entries = entry_cone(_pattern_mask(last, n), 3)
                assert all((a == b).all() for a, b in zip(roles, entries)), (n, last)

    def test_explicit_builds_have_no_dead_gates(self):
        for n in [*range(2, 41), 49, 64]:
            assert mr.build_explicit(n)[0].live_gates().all(), n

    @pytest.mark.parametrize("seed", range(3))
    def test_theorem_builds_have_no_dead_gates(self, seed):
        for n, l in THEOREM_GRID:
            assert mr.build_recursive(n, l, seed)[0].live_gates().all(), (n, l)

    COMPOSED = {
        "explicit(5)": lambda: mr.build_explicit(5)[0],
        "explicit(16)": lambda: mr.build_explicit(16)[0],
        "explicit(33)": lambda: mr.build_explicit(33)[0],
        "recursive(16, 12, 0)": lambda: mr.build_recursive(16, 12, 0)[0],
        "recursive(9, 5, 0)": lambda: mr.build_recursive(9, 5, 0)[0],
        "recursive(5, 4, 0)": lambda: mr.build_recursive(5, 4, 0)[0],
        "uncovered vertex": lambda: uncovered_vertex_build()[0],
    }

    @pytest.mark.parametrize("name", sorted(COMPOSED))
    def test_cone_is_the_pruned_whole_closure(self, name, monkeypatch):
        cone = self.COMPOSED[name]()
        with monkeypatch.context() as whole_closure:
            whole_closure.setattr(monoreach.build, "_read_pattern", lambda inner: ALL_ENTRIES)
            whole = self.COMPOSED[name]()
        assert whole.gate_count > cone.gate_count
        prune(whole)
        if name == "uncovered vertex":  # its entries are emitted, and dead
            prune(cone)
        assert circuit_to_text(whole) == circuit_to_text(cone)

    def test_uncovered_vertex_leaves_exactly_its_entries_dead(self):
        n, v = 16, 7
        circuit, family, inner = uncovered_vertex_build(n, v)
        assert predict_gate_count("explicit", n) == circuit.gate_count
        m = family.params.m
        closure_gates = circuit.gate_count - m * inner.gate_count - (m - 1)
        steps = mr.ceil_log2(2 * family.params.d)
        emitted = entry_cone(clone_reads(mr.plane_family(n), inner), steps)[1:]
        read = entry_cone(clone_reads(family, inner), steps)[1:]
        assert sum(int(e.sum()) for e in emitted) * (2 * n - 2) == closure_gates
        dead = [e & ~r for e, r in zip(emitted, read)]
        for step in dead:
            rows, cols = np.nonzero(step)
            assert ((rows == v - 1) | (cols == v - 1)).all()
        live = circuit.live_gates()
        assert live[closure_gates:].all()
        assert np.count_nonzero(~live) == sum(int(d.sum()) for d in dead) * (2 * n - 2) > 0

    @pytest.mark.parametrize("n, l", [(n, l) for n in (2, 3, 5, 9, 16) for l in (1, 2, 3, 5, 9, 15)])
    def test_reach_leq_emits_no_gate_it_drops(self, n, l):
        circuit = mr.build_reach_leq(n, l)
        assert circuit.live_gates().all()
        whole = unpruned_reach_leq(n, l)
        prune(whole)
        assert circuit_to_text(whole) == circuit_to_text(circuit)

    def test_counts_come_from_the_closed_form(self, monkeypatch):
        monkeypatch.setattr(mr.MonotoneCircuit, "_emit_bulk", fail)
        assert predict_gate_count("theorem", 24, 23) == 8_650_271
        assert predict_gate_count("explicit", 64) == 2_599_529


EXACT_CONES = [(n, l) for mode, n, l, _, _ in PRUNED_BUILDS if mode == "exact"] + [(16, 15), (13, 100), (5, 10**22)]


class TestExactPlan:
    @pytest.mark.parametrize("n, l", EXACT_CONES)
    def test_reach_exact_emits_no_gate_it_drops(self, n, l):
        circuit = mr.build_reach_exact(n, l)
        assert circuit.live_gates().all()
        whole = unpruned_reach_exact(n, l)
        prune(whole)
        assert circuit_to_text(whole) == circuit_to_text(circuit)

    def test_counts_come_from_the_plan(self, monkeypatch):
        monkeypatch.setattr(mr.MonotoneCircuit, "_emit_bulk", fail)
        assert predict_gate_count("exact", 64, 63) == 2_633_599
        assert predict_gate_count("exact", 5, 10**22) == 20_529
        assert predict_gate_count("exact", 1 << 20, 1000) == 20_752_585_983_409_520_639

    @pytest.mark.parametrize("absorb", [False, True])
    def test_needs_are_the_per_entry_reads(self, absorb):
        # Counted back entry by entry: (i, j) needs row i of its left operand
        # and column j of its right one, less (j, j) only when absorbing.
        rng = Random(int(absorb))
        for n in range(2, 9):
            for _ in range(25):
                if absorb:
                    plan = [(k, k) for k in range(rng.randrange(5))]
                else:
                    plan = _exact_plan(n, rng.randrange(1, 200))
                last = frozenset(c for c in ROLE_CLASSES if rng.random() < 0.3)
                want = [np.zeros((n, n), dtype=bool) for _ in range(len(plan))] + [_pattern_mask(last, n)]
                for k in range(len(plan), 0, -1):
                    left, right = plan[k - 1]
                    for i, j in zip(*np.nonzero(want[k])):
                        want[left][i] = True
                        want[right][np.arange(n) != j if absorb else slice(None), j] = True
                got = [_pattern_mask(need, n) for need in _needs(plan, last, n, absorb)]
                assert len(got) == len(want)
                assert all((a == b).all() for a, b in zip(got, want)), (n, plan, last)

    @pytest.mark.parametrize("l", [0, -1])
    def test_length_below_one_is_refused(self, l):
        for predict in (predict_gate_count, mr.predict_depth):
            with pytest.raises(mr.InvalidParameterError, match=f"^l must be at least 1, got {l}$"):
                predict("exact", 5, l)
        with pytest.raises(mr.InvalidParameterError, match=f"^l must be at least 1, got {l}$"):
            mr.build_reach_exact(5, l)

    def test_builders_never_prune(self):
        # Every builder emits only its output cone; the tests' prune() is a reference.
        tree = ast.parse(Path(monoreach.build.__file__).read_text())
        methods = {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "set_outputs" in methods, "found no method calls: the scan is broken"
        assert "prune" not in methods

    def test_one_build_shape(self):
        # Each mode's plane shape and base plan are fixed in one function,
        # and gate counts are folded over that shape in one other.
        tree = ast.parse(Path(monoreach.build.__file__).read_text())
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        callers = {"minimal_prime_q": set(), "minimal_deficiency": set(), "_plan_gates": set()}
        for func in funcs:
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                    callers[node.func.id].add(func.name)
        assert {name: len(funcs) for name, funcs in callers.items()} == dict.fromkeys(callers, 1), callers
        assert not {"_mode_l", "_composed_gates"} & {func.name for func in funcs}

    def test_one_composition_loop(self):
        # Both composed builders share one loop over the shape's levels,
        # which alone takes a family, and one rule gives every integer
        # ledger: no schedule class, no ledger filled by stage index, and no
        # stages but compose_family's and the ledger rule's.
        tree = ast.parse(Path(monoreach.build.__file__).read_text())
        names = {getattr(node, "name", None) for node in ast.walk(tree)} | {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        assert "compose_family" in names, "found no names: the scan is broken"
        assert "RecursionSchedule" not in names
        callers = {"sample_verified_family": [], "plane_family": [], "_composition_stages": []}
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                    callers[node.func.id].append(func.name)
        assert len(callers.pop("sample_verified_family")) == len(callers.pop("plane_family")) == 1
        assert set(callers["_composition_stages"]) == {"_shape_ledger", "compose_family"}
        indexed = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) and node.value.attr == "stages"
        ]
        assert indexed == []


class TestPredictDepth:
    def test_squaring_formula(self):
        ledger = mr.predict_depth("squaring", 1 << 10, 1 << 10)
        assert ledger.total_predicted == 10 * 11
        assert mr.depth_ratio(ledger.total_predicted, 1 << 10) == Fraction(110, 100)

    def test_squaring_ratio_tends_to_one(self):
        ratios = [
            mr.depth_ratio(mr.predict_depth("squaring", 1 << e, 1 << e).total_predicted, 1 << e)
            for e in (10, 40, 160, 640)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(r > 1 for r in ratios)

    def test_explicit_matches_build_ledger(self):
        for n in (9, 16, 25):
            built, ledger = mr.build_explicit(n)
            predicted = mr.predict_depth("explicit", n)
            assert predicted.total_predicted == ledger.total_predicted == built.depth()

    def test_explicit_stages_match_every_small_build(self):
        for n in range(2, 41):
            predicted = mr.predict_depth("explicit", n).stages
            built = mr.build_explicit(n)[1].stages
            assert [(s.label, s.predicted) for s in predicted] == [(s.label, s.predicted) for s in built], n

    def test_squaring_default_is_the_builders_l(self):
        for n in (16, 17):
            assert mr.predict_depth("squaring", n).total_predicted == mr.build_reach(n).depth()

    def test_exact_replays_the_product_tree(self):
        for n in range(2, 10):
            for l in range(1, 40):
                predicted = mr.predict_depth("exact", n, l).total_predicted
                assert predicted == mr.build_reach_exact(n, l).depth(), (n, l)

    def test_exact_needs_l(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.predict_depth("exact", 5)

    def test_theorem_stage_count(self):
        _, levels = mr.recursion_schedule(1 << 16, (1 << 16) - 1)
        ledger = mr.predict_depth("theorem", 1 << 16)
        assert len(ledger.stages) == len(levels)  # k + 1

    def test_unknown_mode(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.predict_depth("magic", 16)

    def test_trend_rows_are_exact_fractions(self):
        rows = mr.trend_table(exponents=(10, 20))
        for _, sq, ex, th in rows:
            assert isinstance(sq, Fraction)
            assert isinstance(ex, Fraction)
            assert isinstance(th, Fraction)


class TestGoldenBytes:
    """MCIRC bytes pinned by sha256; a refactor of the emission code must
    reproduce them exactly."""

    GOLDEN = {
        "reach_leq(16, 15)": (
            lambda: mr.build_reach_leq(16, 15),
            "97f4fe05d9d18971cbaa37827bf7c6e6546c216a630c84bde22f7dd2a049ce50",
        ),
        "reach_leq(17, 16)": (
            lambda: mr.build_reach_leq(17, 16),
            "71b528857eeec8a3a67552cb762bbba3d5a823b39b4beccabc50e8fc04602228",
        ),
        "reach_exact(9, 5)": (
            lambda: mr.build_reach_exact(9, 5),
            "8b7950ba12c6fd3b90dec1dce4a01bc7a33bd48152bf693bde10f0d96879fa2e",
        ),
        "reach_exact(7, 13)": (
            lambda: mr.build_reach_exact(7, 13),
            "f91e8f664539b460aa26847f4bda3aaa3d0c43848a857e04509aa005ccf436a5",
        ),
        "walk_power(5, 3)": (
            lambda: build_walk_power(5, 3),
            "264fe84e85722cf372de4163c423c31f0ebc887359aec3a1b2901e2ebc4fd5d5",
        ),
        "explicit(16)": (
            lambda: mr.build_explicit(16)[0],
            "53c932a4896215a53c9261a26f15cec937fbfaabf0439c784d565fa00aa6c491",
        ),
        "recursive(8, 4, 0)": (
            lambda: mr.build_recursive(8, 4, 0)[0],
            "49f427d8833ee42cc3ff8bc2bb735b294b38bb902ce809945bd2ae2a2a9284b0",
        ),
        # k = 2 over a 0-gate base circuit; 4,526 gates.
        "recursive(5, 4, 0)": (
            lambda: mr.build_recursive(5, 4, 0)[0],
            "246ee7f5c45dd1a1601df7ceb6872f8d0e234e7ed86fd62b66afa45c07b72e67",
        ),
        # Sets shorter than s and sets that hold a terminal; 521 gates.
        "compose(short sets)": (
            lambda: mr.compose_family(
                mr.sample_family(FamilyParams(6, 8, 3, 5, 2), child_seed(99, "37")), mr.build_reach_leq(5, 2)
            )[0],
            "c1ee48d304d8aa7a4203592c6a587c7232c3051e1416076e51967a8744af0476",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_sha256(self, name):
        build, digest = self.GOLDEN[name]
        text = circuit_to_text(build())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestGoldenLedgers:
    """Ledger CSV bytes (no comment lines) pinned by sha256."""

    GOLDEN = {
        "explicit(16)": (
            lambda: mr.build_explicit(16)[1],
            "1d31d2f5b1ce5739c9d0e16863654c27312c148d73509c0541e3290f8e1cdc6e",
        ),
        "explicit(64)": (
            lambda: mr.build_explicit(64)[1],
            "91c91275f188b95bcfd4118f8410cdf4e4b11b642e247ea726c334a0722a963d",
        ),
        "recursive(8, 4, 0)": (
            lambda: mr.build_recursive(8, 4, 0)[1],
            "46dec9897456787c8b6b25130d269aefe93abaa59567725667b885ad5fa16f73",
        ),
        "recursive(16, 12, 0)": (
            lambda: mr.build_recursive(16, 12, 0)[1],
            "4312bfeeaf63fb4930189b81e2f60a0c442e5af902fc277315ec8b23739954cc",
        ),
        "recursive(5, 4, 0)": (
            lambda: mr.build_recursive(5, 4, 0)[1],
            "cf8def5f9a05ac3df422c8f87b10d1575d5b12d7b26d94b9014dbec651c65fe1",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_sha256(self, name):
        build, digest = self.GOLDEN[name]
        text = "".join(line + "\n" for line in ledger_csv_lines(build()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# Every theorem pair with 3 <= n <= 24 and a build of at most 20,000 gates
# (k = 0, 1 or 2).
THEOREM_GRID = [(n, l) for n in range(3, 25) for l in range(2, n) if predict_gate_count("theorem", n, l) <= 20_000]


class TestScheduleLedger:
    def test_grid_covers_k_0_1_and_2(self):
        assert len(THEOREM_GRID) == 116
        assert {len(_build_shape("theorem", n, l).levels) for n, l in THEOREM_GRID} == {0, 1, 2}

    def test_predicted_column_only(self):
        ledger = _shape_ledger(_build_shape("theorem", 5, 4))
        assert [s.label for s in ledger.stages] == [
            "level0.closure", "level0.or", "level1.closure", "level1.or", "level2.squaring",
        ]
        assert all(s.measured is None for s in ledger.stages)
        assert ledger.total_measured is None

    @pytest.mark.parametrize("seed", range(3))
    def test_schedule_ledger_is_the_built_ledger(self, seed):
        for n, l in THEOREM_GRID:
            circuit, built = mr.build_recursive(n, l, seed)
            stages = _shape_ledger(_build_shape("theorem", n, l)).stages
            assert [(s.label, s.predicted) for s in stages] == [(s.label, s.predicted) for s in built.stages], (n, l)
            assert [s.predicted for s in stages] == [s.measured for s in built.stages], (n, l)
            assert built.total_measured == circuit.depth()
