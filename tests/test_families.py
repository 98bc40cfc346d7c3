"""Covering families: checkers, sampler bounds, planes, hitting witnesses."""

import math
import re
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoreach as mr
import monoreach.families
from monoreach.build import _build_shape
from monoreach.exactmath import _uniform_below, child_seed, randbelow
from monoreach.families import CoveringFamily, FamilyCounterexample, FamilyParams, _check_incidence


def gf2_plane_sets():
    return mr.affine_lines(2).lines  # the six 2-subsets of the 4 points


def enumerated_first_violation(fam):
    """Reference for check_family_exact: enumerate every d-subset in
    lexicographic order and return the first one avoided by at least
    m*d/l sets, or None."""
    p = fam.params
    sets_of = {v: 0 for v in range(1, p.n + 1)}  # element -> bitmask of sets holding it
    for i, s in enumerate(fam.sets):
        for v in s:
            sets_of[v] |= 1 << i
    for d_subset in combinations(range(1, p.n + 1), p.d):
        meets = 0
        for v in d_subset:
            meets |= sets_of[v]
        count = p.m - meets.bit_count()
        if count * p.l >= p.m * p.d:
            avoiders = tuple(i for i in range(p.m) if not (meets >> i) & 1)
            return FamilyCounterexample(d_subset, avoiders, count, p.threshold())
    return None


@st.composite
def small_families(draw):
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 8))
    sets = draw(st.lists(st.frozensets(st.integers(1, n), max_size=n), min_size=m, max_size=m))
    s = max([1] + [len(x) for x in sets])
    return CoveringFamily(FamilyParams(n, m, s, draw(st.integers(1, 12)), draw(st.integers(1, n))), sets)


class TestExactChecker:
    def test_gf2_plane_family_passes(self):
        # For every 2-point set D exactly one line avoids it (the complement
        # pair), and 1 < 6*2/4.
        fam = CoveringFamily(FamilyParams(4, 6, 2, 4, 2), gf2_plane_sets())
        assert mr.check_family_exact(fam) is None
        masks = fam.element_set_masks()
        full = (1 << 6) - 1
        from itertools import combinations

        for d_subset in combinations(range(1, 5), 2):
            avoid = masks[d_subset[0]] | masks[d_subset[1]]
            assert (full & ~avoid).bit_count() == 1

    def test_gf2_plane_with_deficiency_one_fails(self):
        # Each point misses 3 of the 6 lines and 3 >= 6*1/4, so the first
        # singleton is already a counterexample.
        fam = CoveringFamily(FamilyParams(4, 6, 2, 4, 1), gf2_plane_sets())
        bad = mr.check_family_exact(fam)
        assert bad is not None
        assert bad.d_subset == (1,)
        assert bad.disjoint_count == 3
        assert bad.threshold == Fraction(6, 4)

    def test_identical_singletons_fail(self):
        fam = CoveringFamily(FamilyParams(2, 4, 1, 2, 1), [(1,)] * 4)
        bad = mr.check_family_exact(fam)
        assert bad is not None
        assert bad.d_subset == (2,)
        assert bad.disjoint_count == 4
        assert bad.set_indices == (0, 1, 2, 3)

    def test_budget_refusal_mentions_cost(self):
        fam = mr.plane_family(49)
        with pytest.raises(mr.BudgetExceededError) as err:
            mr.check_family_exact(fam, max_subsets=1000)
        assert "C(49,13)" in str(err.value)

    @settings(max_examples=400, deadline=None)
    @given(small_families())
    def test_matches_enumeration(self, fam):
        assert mr.check_family_exact(fam) == enumerated_first_violation(fam)

    @pytest.mark.parametrize(
        "shape",
        [(79, 79, 195, 7, 4), (56, 56, 129, 5, 4), (40, 40, 12, 8, 5), (48, 48, 16, 8, 4),
         (24, 24, 10, 6, 6), (34, 34, 20, 12, 4)],
    )
    def test_sampled_shapes_match_enumeration(self, shape):
        for seed in range(4):
            fam = mr.sample_family(FamilyParams(*shape), seed)
            assert mr.check_family_exact(fam) == enumerated_first_violation(fam), seed

    def test_deep_search_returns_the_whole_universe(self):
        # Two empty sets avoid everything, so the first leaf is {1..1500},
        # 1500 levels down: the search must not recurse.
        fam = mr.family_from_text("FAMILY 1500 2 1 1500 1500\n\n\n")
        bad = mr.check_family_exact(fam)
        assert bad == FamilyCounterexample(tuple(range(1, 1501)), (0, 1), 2, Fraction(2))

    def test_budget_counts_visited_subsets(self):
        # The deep search above visits exactly one subset per level.
        fam = mr.family_from_text("FAMILY 1500 2 1 1500 1500\n\n\n")
        assert mr.check_family_exact(fam, max_subsets=1500) is not None
        with pytest.raises(mr.BudgetExceededError, match="C\\(1500,1500\\)"):
            mr.check_family_exact(fam, max_subsets=1499)

    def test_budget_refusal_is_deterministic_and_never_samples(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the exact check sampled")

        for name in ("Random", "sample_distinct", "check_family_sampled"):
            monkeypatch.setattr(monoreach.families, name, no_sampling)
        fam = mr.plane_family(49)
        messages = set()
        for _ in range(2):
            with pytest.raises(mr.BudgetExceededError) as err:
                mr.check_family_exact(fam, max_subsets=1000)
            messages.add(str(err.value))
        assert len(messages) == 1
        assert mr.check_family_exact(mr.plane_family(9)) is None

    def test_l_below_d_passes_without_a_search(self):
        # A violating subset needs count * l >= m * d with count <= m, so
        # l < d rules every subset out before any is visited.
        fam = mr.family_from_text("FAMILY 1000000000 1 1 1 2\n1\n")
        assert mr.check_family_exact(fam, max_subsets=1) is None

    def test_element_masks_follow_the_sets_not_n(self):
        fam = CoveringFamily(FamilyParams(10**9, 2, 2, 1, 1), [(1, 10**9), (1,)])
        assert fam.element_set_masks() == {1: 0b11, 10**9: 0b01}


class TestSampledChecker:
    def test_sound_on_passing_family(self):
        fam = mr.plane_family(9)
        assert mr.check_family_exact(fam) is None
        assert mr.check_family_sampled(fam, 10_000, seed=3) is None

    def test_finds_planted_violation(self):
        fam = CoveringFamily(FamilyParams(2, 4, 1, 2, 1), [(1,)] * 4)
        bad = mr.check_family_sampled(fam, 100, seed=0)
        assert bad is not None
        assert bad.d_subset == (2,)

    def test_single_trial_deterministic(self):
        fam = CoveringFamily(FamilyParams(6, 3, 2, 3, 2), [(1, 2), (3, 4), (5, 6)])
        first = mr.check_family_sampled(fam, 1, seed=11)
        second = mr.check_family_sampled(fam, 1, seed=11)
        assert first == second

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_never_disagrees_with_exact_in_pass_direction(self, seed):
        params = FamilyParams(8, 6, 3, 4, 2)
        fam = mr.sample_family(params, seed)
        sampled = mr.check_family_sampled(fam, 300, seed=seed ^ 1)
        if sampled is not None:
            exact = mr.check_family_exact(fam)
            assert exact is not None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_counterexamples_recheck_by_direct_set_ops(self, seed):
        # Independent confirmation: the reported sets really avoid D and
        # their union really misses at least d elements.
        params = FamilyParams(9, 7, 3, 5, 3)
        fam = mr.sample_family(params, seed)
        bad = mr.check_family_exact(fam)
        if bad is None:
            return
        d_set = set(bad.d_subset)
        assert len(d_set) == params.d
        for idx in bad.set_indices:
            assert not (set(fam.sets[idx]) & d_set)
        union = set().union(*(fam.sets[i] for i in bad.set_indices))
        assert len(union) <= params.n - params.d
        assert bad.disjoint_count >= params.threshold()


class TestSamplerBounds:
    def test_reference_value(self):
        # Independent evaluation of the three terms.
        n = m = 64
        l, d, s = 32, 8, 67
        want = d * m * math.log(m) / l + d * math.log(n) - s * m * d * d / (n * l)
        got = mr.sampling_log_failure_bound(n, m, s, l, d)
        assert got == pytest.approx(want)
        assert got == pytest.approx(-34.19, abs=0.01)
        assert got < 0

    def test_zero_coverage_term_is_positive(self):
        assert mr.sampling_log_failure_bound(16, 16, 0, 8, 8) > 0

    def test_guarantee_examples(self):
        assert mr.sampling_guarantee_holds(16, 16, 12, 8, 8)  # 2*16*ln16/8 = 11.09 < 12
        assert not mr.sampling_guarantee_holds(16, 16, 12, 16, 8)  # l < n fails
        assert not mr.sampling_guarantee_holds(16, 16, 12, 8, 17)  # d <= n fails

    def test_guarantee_implies_negative_bound(self):
        for n, m, s, l, d in ((12, 12, 10, 6, 6), (16, 16, 12, 8, 8), (14, 14, 11, 7, 7)):
            assert mr.sampling_guarantee_holds(n, m, s, l, d)
            assert mr.sampling_log_failure_bound(n, m, s, l, d) < 0

    def test_failure_bound_is_exp(self):
        b = mr.sampling_log_failure_bound(12, 12, 10, 6, 6)
        assert mr.sampling_failure_bound(12, 12, 10, 6, 6) == pytest.approx(math.exp(b))


class TestSampleFamily:
    def test_single_column_gives_singletons(self):
        fam = mr.sample_family(FamilyParams(9, 5, 1, 3, 2), seed=4)
        assert all(len(s) == 1 for s in fam.sets)

    def test_seed_determinism(self):
        params = FamilyParams(10, 6, 4, 5, 2)
        assert mr.sample_family(params, 123).sets == mr.sample_family(params, 123).sets
        assert mr.sample_family(params, 123).sets != mr.sample_family(params, 124).sets

    def test_sets_stay_in_universe_and_size(self):
        fam = mr.sample_family(FamilyParams(7, 12, 5, 6, 3), seed=9)
        for s in fam.sets:
            assert len(s) <= 5
            assert all(1 <= v <= 7 for v in s)

    def test_library_sampler_has_no_entry_budget(self, monkeypatch):
        # Only `family sample` is refused by SAMPLE_ENTRY_BUDGET; theorem
        # builds are bounded by --max-gates.
        monkeypatch.setattr(monoreach.families, "SAMPLE_ENTRY_BUDGET", 1)
        assert len(mr.sample_family(FamilyParams(3, 2, 2, 2, 1), seed=0).sets) == 2
        circuit, _ = mr.build_recursive(9, 4, seed=0)
        assert circuit.gate_count > 0

    # The benchmark's family-exact shapes; every other shape the tests sample
    # directly is smaller than the first.
    SAMPLED_SHAPES = [(79, 79, 195, 7, 4), (56, 56, 129, 5, 4), (40, 40, 12, 8, 5), (48, 48, 16, 8, 4)]
    # Theorem builds of the tests and benchmark, and (368, 7), whose level-0
    # family has the most entries of any theorem build under --max-gates.
    THEOREM_PAIRS = [(5, 4), (9, 4), (9, 5), (16, 3), (16, 8), (16, 12), (24, 23), (291, 20), (292, 20), (368, 7)]

    def test_shapes_in_use_fit_the_budget(self):
        shapes = [FamilyParams(*shape) for shape in self.SAMPLED_SHAPES]
        for n, l in self.THEOREM_PAIRS:
            shapes += _build_shape("theorem", n, l).levels
        assert max(p.m * p.s for p in shapes) == 285_568  # (368, 7)
        assert all(p.m * p.s <= monoreach.families.SAMPLE_ENTRY_BUDGET for p in shapes)

    # 12, 15 and 255 are planted path-length limits: min(l, n - 1).
    @pytest.mark.parametrize("k", [1, 2, 3, 12, 15, 255, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 3])
    @pytest.mark.parametrize("count", [0, 1, 5000])
    def test_array_draw_matches_the_per_call_loop(self, k, count):
        ours, theirs = Random(k ^ count), Random(k ^ count)
        assert _uniform_below(ours, k, count).tolist() == [randbelow(theirs, k) for _ in range(count)]
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "params",
        [FamilyParams(*shape) for shape in SAMPLED_SHAPES]
        + list(_build_shape("theorem", 16, 12).levels),
        ids=str,
    )
    def test_same_sets_as_one_draw_per_entry(self, params):
        for seed in (0, child_seed(0, "level0:attempt0")):
            rng = Random(seed)
            rows = [[randbelow(rng, params.n) + 1 for _ in range(params.s)] for _ in range(params.m)]
            assert mr.sample_family(params, seed) == CoveringFamily(params, rows)

    def test_existence_within_ten_seeds(self):
        params = FamilyParams(16, 16, 12, 8, 8)
        assert mr.sampling_guarantee_holds(16, 16, 12, 8, 8)
        found = any(
            mr.check_family_exact(mr.sample_family(params, child_seed(5, str(i)))) is None
            for i in range(10)
        )
        assert found


class TestCheckBudget:
    """Both checkers refuse d * (m + 576) bits over CHECK_BIT_BUDGET, or
    element masks over MASK_BIT_BUDGET, up front."""

    def test_shapes_in_use_fit_the_budget(self):
        shapes = [FamilyParams(*shape) for shape in TestSampleFamily.SAMPLED_SHAPES]
        for n, l in TestSampleFamily.THEOREM_PAIRS:
            shapes += _build_shape("theorem", n, l).levels
        for n in range(2, 962):  # every plane family under PLANE_POINT_BUDGET
            q = mr.minimal_prime_q(n)
            shapes.append(FamilyParams(n, q * (q + 1), q, n, mr.minimal_deficiency(q)))
        assert mr.plane_family(961).params == shapes[-1]
        bits = [p.d * (p.m + 576) for p in shapes]
        assert max(bits) == bits[-1] == 145 * (992 + 576) == 227_360
        assert max(bits) <= monoreach.families.CHECK_BIT_BUDGET
        # A family holds at most min(n, m * s) distinct elements, each mask at most m bits.
        mask_bits = [min(p.n, p.m * p.s) * (p.m + 576) for p in shapes]
        assert max(mask_bits) == mask_bits[-1] == 961 * (992 + 576) == 1_506_848
        assert max(mask_bits) <= monoreach.families.MASK_BIT_BUDGET

    @pytest.mark.parametrize("check", ["exact", "sampled"])
    def test_refused_just_over_the_budget(self, check, monkeypatch):
        monkeypatch.setattr(monoreach.families, "sample_distinct", None)  # a draw would raise TypeError
        monkeypatch.setattr(CoveringFamily, "element_set_masks", None)
        # 1024 * (15808 + 576) == 2**24, so one more level is one too many.
        fam = CoveringFamily(FamilyParams(1025, 15808, 1, 1025, 1025), [()] * 15808)
        message = (
            f"{check} check with d=1025 and m=15808 needs d * (m + 576) = 16793600 bits, "
            "over the budget of 16777216"
        )
        with pytest.raises(mr.BudgetExceededError, match=f"^{re.escape(message)}$"):
            if check == "exact":
                mr.check_family_exact(fam)
            else:
                mr.check_family_sampled(fam, 1, seed=0)

    @pytest.mark.parametrize("check", ["exact", "sampled"])
    def test_element_masks_refused_just_over_the_budget(self, check, monkeypatch):
        m = (1 << 16) - 576

        def run(elements):  # the first and last of m sets hold `elements` elements, each mask m bits
            held = range(1, elements + 1)
            fam = CoveringFamily(FamilyParams(16385, m, elements, 10**12, 1), [held] + [()] * (m - 2) + [held])
            return mr.check_family_exact(fam) if check == "exact" else mr.check_family_sampled(fam, 1, seed=0)

        monkeypatch.setattr(CoveringFamily, "element_set_masks", None)  # building the masks raises TypeError
        # 16384 * (m + 576) == 2**30: the masks of 16384 elements fit, of 16385 do not.
        with pytest.raises(TypeError):
            run(16384)
        message = (
            f"{check} check of m={m} sets over 16385 elements needs 1073807360 bits of element masks, "
            "over the budget of 1073741824"
        )
        with pytest.raises(mr.BudgetExceededError, match=f"^{re.escape(message)}$"):
            run(16385)

    def test_a_sample_at_the_entry_budget_checks(self):
        params = FamilyParams(4096, 4096, 256, 1, 1)  # masks of about 4096 * (4096 + 576) bits
        assert params.m * params.s == monoreach.families.SAMPLE_ENTRY_BUDGET
        family, attempts = mr.sample_verified_family(params, seed=0, attempts=1)
        assert attempts == 1 and len(family.element_set_masks()) == 4096

    def test_at_the_budget_the_search_runs(self):
        fam = CoveringFamily(FamilyParams(1024, 15808, 1, 1024, 1024), [()] * 15808)
        assert mr.check_family_exact(fam).d_subset == tuple(range(1, 1025))
        assert mr.check_family_sampled(fam, 1, seed=0).d_subset == tuple(range(1, 1025))

    def test_l_below_d_still_passes_over_the_budget(self):
        fam = CoveringFamily(FamilyParams(10**9, 1, 1, 1, 10**9), [(1,)])
        assert mr.check_family_exact(fam) is None


class TestHittingDecomposition:
    def test_short_sequence_base_case(self):
        fam = CoveringFamily(FamilyParams(9, 3, 3, 9, 2), [(1, 2, 3), (4, 5, 6), (7, 8, 9)])
        w = mr.hitting_decomposition(fam, [5, 1, 9, 2])  # l' = 3 <= 2d
        assert w.set_index == 0
        assert w.indices == (0, 3)
        assert w.k == 1

    def test_gf3_plane_nine_element_sequence(self):
        # All twelve GF(3) lines with declared deficiency 2; for the identity
        # sequence only line (3,5,7) meets every interior block, which an
        # exhaustive scan over the twelve lines confirms.
        lines = mr.affine_lines(3).lines
        fam = CoveringFamily(FamilyParams(9, 12, 3, 9, 2), lines)
        seq = list(range(1, 10))
        blocks = [set(seq[i * 2 : i * 2 + 2]) for i in range(1, 4)]
        hits = [i for i, s in enumerate(lines) if all(b & set(s) for b in blocks)]
        assert hits == [4]
        assert lines[4] == (3, 5, 7)
        w = mr.hitting_decomposition(fam, seq)
        assert w.set_index == 4
        assert w.indices == (0, 2, 4, 6, 8)
        gaps = [b - a for a, b in zip(w.indices, w.indices[1:])]
        assert max(gaps) <= 2 * 2
        assert w.k * fam.params.d <= fam.params.l

    def test_disjoint_family_raises_violation(self):
        fam = CoveringFamily(
            FamilyParams(12, 3, 2, 12, 2), [(1, 2), (3, 4), (5, 6)]
        )
        # Sequence built from elements outside every set after index 2.
        seq = [1, 3, 7, 8, 9, 10, 11, 12, 5]
        with pytest.raises(mr.FamilyViolationError) as err:
            mr.hitting_decomposition(fam, seq)
        assert err.value.block is not None
        assert len(err.value.set_indices) * fam.params.l >= fam.params.m * fam.params.d

    def test_rejects_bad_sequences(self):
        fam = mr.plane_family(9)
        with pytest.raises(mr.InvalidParameterError):
            mr.hitting_decomposition(fam, [1])
        with pytest.raises(mr.InvalidParameterError):
            mr.hitting_decomposition(fam, [1, 1, 2])
        with pytest.raises(mr.InvalidParameterError):
            mr.hitting_decomposition(fam, list(range(1, 12)))  # l' > l

    def test_witness_invariants_on_random_inputs(self):
        from random import Random

        rng = Random(2024)
        families = [mr.plane_family(9), mr.plane_family(16), mr.plane_family(25)]
        for fam in families:
            p = fam.params
            for _ in range(80):
                lp = 1 + rng.randrange(min(p.l, p.n - 1))
                seq = rng.sample(range(1, p.n + 1), lp + 1)
                w = mr.hitting_decomposition(fam, seq)
                assert w.indices[0] == 0 and w.indices[-1] == lp
                assert all(a < b for a, b in zip(w.indices, w.indices[1:]))
                assert all(b - a <= 2 * p.d for a, b in zip(w.indices, w.indices[1:]))
                assert w.k * p.d <= p.l
                chosen = set(fam.sets[w.set_index])
                for t in w.indices[1:-1]:
                    assert seq[t] in chosen


class TestPlanePrimitives:
    def test_minimal_prime_examples(self):
        assert mr.minimal_prime_q(9) == 3
        assert mr.minimal_prime_q(10) == 5  # 3^2 < 10, 4 composite
        assert mr.minimal_prime_q(16) == 5  # 4 composite
        assert mr.minimal_prime_q(1) == 2

    def test_minimal_deficiency_examples(self):
        # Brute-force oracle over increasing d.
        def oracle(q):
            d = 1
            while d * d + 2 * q * d - q**3 <= 0:
                d += 1
            return d

        for q in (2, 3, 5, 7, 11, 13):
            assert mr.minimal_deficiency(q) == oracle(q)
        assert mr.minimal_deficiency(2) == 2
        assert mr.minimal_deficiency(3) == 4  # d=3 hits equality, not strict
        assert mr.minimal_deficiency(5) == 8

    def test_gf2_lines_are_all_pairs(self):
        plane = mr.affine_lines(2)
        assert len(plane.lines) == 6
        assert sorted(plane.lines) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_gf3_line_counts(self):
        plane = mr.affine_lines(3)
        assert len(plane.lines) == 12
        assert all(len(line) == 3 for line in plane.lines)

    def test_incidence_for_small_primes(self):
        # Pairwise uniqueness is asserted inside affine_lines; check the
        # per-point line count here.
        for q in (2, 3, 5, 7):
            plane = mr.affine_lines(q)
            counts = {p: 0 for p in range(1, q * q + 1)}
            for line in plane.lines:
                for p in line:
                    counts[p] += 1
            assert set(counts.values()) == {q + 1}

    def test_composite_q_rejected(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.affine_lines(4)

    def test_every_plane_in_budget_passes_incidence(self):
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert len(mr.affine_lines(q).lines) == q * (q + 1)

    def test_line_cover_bound_values(self):
        assert mr.line_cover_bound(3, 0) == 12
        assert mr.line_cover_bound(2, 2) == Fraction(3, 2)
        assert mr.line_cover_bound(2, 4) == 0

    def test_line_cover_bound_range_check(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.line_cover_bound(2, 5)


def dict_scan_incidence(q, lines):
    """The incidence check the pair count replaced: a dict of every pair."""
    seen = {}
    for idx, line in enumerate(lines):
        if len(line) != q:
            raise mr.InvalidParameterError(f"line {idx} has {len(line)} points, expected {q}")
        for pair in combinations(line, 2):
            if pair in seen:
                raise mr.InvalidParameterError(f"pair {pair} on two lines ({seen[pair]}, {idx})")
            seen[pair] = idx
    if len(seen) != math.comb(q * q, 2):
        raise mr.InvalidParameterError("some point pair lies on no line")


def incidence_verdict(check, q, lines):
    try:
        check(q, lines)
    except mr.InvalidParameterError as exc:
        return str(exc)
    return None


class TestIncidenceCheck:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_verdict_as_a_dict_scan(self, data):
        q = data.draw(st.sampled_from([2, 3, 5]))
        lines = [list(line) for line in mr.affine_lines(q).lines]
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(["move", "drop", "copy", "cut"]))
            i = data.draw(st.integers(0, len(lines) - 1))
            if kind == "move" and lines[i]:
                lines[i][data.draw(st.integers(0, len(lines[i]) - 1))] = data.draw(st.integers(1, q * q))
            elif kind == "drop" and len(lines) > 1:
                del lines[i]
            elif kind == "copy":
                lines.insert(data.draw(st.integers(0, len(lines))), list(lines[i]))
            elif kind == "cut" and lines[i]:
                lines[i].pop()
        lines = [tuple(line) for line in lines]
        assert incidence_verdict(_check_incidence, q, lines) == incidence_verdict(dict_scan_incidence, q, lines)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], None),
            ([(1, 2), (1, 3), (1, 2), (2, 3), (2, 4), (3, 4)], "pair (1, 2) on two lines (0, 2)"),
            ([(1, 2), (1, 3), (1,), (1, 2), (2, 4), (3, 4)], "line 2 has 1 points, expected 2"),
            ([(1, 2), (1, 2), (1,), (2, 3), (2, 4), (3, 4)], "pair (1, 2) on two lines (0, 1)"),
            ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], "some point pair lies on no line"),
            ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5)], "line 5 has a point outside 1..4"),
            ([(1, 2), (1, 3), (1, 4), (2, 3), (0, 4), (3, 4)], "line 4 has a point outside 1..4"),
        ],
    )
    def test_first_fault_in_line_order(self, lines, message):
        assert incidence_verdict(_check_incidence, 2, lines) == message


class TestPlaneFamily:
    def test_n4_is_the_full_pair_family(self):
        fam = mr.plane_family(4)
        assert fam.params == FamilyParams(4, 6, 2, 4, 2)
        assert sorted(fam.sets) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert mr.check_family_exact(fam) is None

    def test_n9(self):
        fam = mr.plane_family(9)
        assert fam.params == FamilyParams(9, 12, 3, 9, 4)
        assert mr.check_family_exact(fam) is None

    def test_n16_declared_parameters(self):
        fam = mr.plane_family(16)
        assert fam.params == FamilyParams(16, 30, 5, 16, 8)
        assert mr.check_family_sampled(fam, 20_000, seed=1) is None

    @pytest.mark.parametrize("n", [16, 25, 36])
    def test_passes_exactly(self, n):
        assert mr.check_family_exact(mr.plane_family(n)) is None


class TestCoverBoundExhaustive:
    def test_q2(self):
        assert mr.verify_line_cover_bound(2) is None

    def test_q3(self):
        assert mr.verify_line_cover_bound(3) is None

    def test_single_line_case(self):
        assert mr.line_cover_bound(2, 2) >= 1  # one line misses u = 2 points

    def test_budget_guard(self):
        with pytest.raises(mr.BudgetExceededError):
            mr.verify_line_cover_bound(5)


class TestFamilyText:
    def test_round_trip_with_empty_set(self):
        fam = CoveringFamily(FamilyParams(5, 3, 2, 4, 2), [(1, 5), (), (2, 3)])
        text = mr.family_to_text(fam)
        assert text == "FAMILY 5 3 2 4 2\n1 5\n\n2 3\n"
        assert mr.family_from_text(text) == fam

    def test_plane_family_round_trip(self, tmp_path):
        fam = mr.plane_family(9)
        path = tmp_path / "f.fam"
        mr.write_family(fam, path)
        assert mr.read_family(path) == fam

    def test_empty_line_is_an_empty_set(self):
        # The final newline ends the last set's line; it is not a further set.
        fam = mr.family_from_text("FAMILY 5 3 2 4 2\n\n1 5\n\n")
        assert fam.sets == ((), (1, 5), ())
        with pytest.raises(mr.InvalidParameterError):
            mr.family_from_text("FAMILY 5 3 2 4 2\n\n1 5\n\n\n")

    def test_bad_header(self):
        with pytest.raises(mr.InvalidParameterError):
            mr.family_from_text("FAM 1 2 3 4 5\n")
