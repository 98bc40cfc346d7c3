"""Tests of the benchmark's own helpers.  Run: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import Family, counterexample_problem, first_violation, ledger_totals, waste_counts  # noqa: E402
from tracing import Patcher, Span, Tracer, outer_totals, self_times, span_wrapper  # noqa: E402


def test_waste_counts_on_hand_built_circuit():
    # n = 2: wires 0..3 are inputs, wire 4 is the zero wire, gate g is wire 5 + g.
    is_or = [False, True, False, True, True]
    lefts = [0, 5, 2, 7, 6]
    rights = [1, 4, 3, 4, 0]
    # g0 = AND(0,1)   live
    # g1 = OR(g0, 0)  live, zero operand, not constant zero
    # g2 = AND(2,3)   dead
    # g3 = OR(g2, 0)  dead, zero operand
    # g4 = OR(g1, 0)  the output
    assert waste_counts(4, is_or, lefts, rights, [9]) == (2, 2)


def test_constant_zero_propagates_through_and_not_or():
    # g0 = AND(0, zero) is constant zero; g1 = OR(g0, 1) reads it; g2 = AND(g1, g0) reads it.
    is_or = [False, True, False]
    lefts = [0, 5, 6]
    rights = [4, 1, 5]
    assert waste_counts(4, is_or, lefts, rights, [7]) == (0, 3)
    # Taking g1 as the output leaves g2 dead.
    assert waste_counts(4, is_or, lefts, rights, [6]) == (1, 3)


def test_waste_counts_rejects_forward_reference():
    with pytest.raises(ValueError):
        waste_counts(4, [False], [5], [0], [5])


def test_family_rechecker_finds_and_confirms_counterexample():
    # m*d/l = 4*2/2 = 4: D is a violation when all four sets avoid it.
    fam = Family(4, 4, 2, 2, 2, ((1,), (1, 2), (2,), (1,)))
    assert first_violation(fam) == (3, 4)
    assert counterexample_problem(fam, (3, 4), (0, 1, 2, 3), 4) is None
    assert "avoided by sets" in counterexample_problem(fam, (3, 4), (0, 1, 2), 3)
    assert "below m*d/l" in counterexample_problem(fam, (2, 3), (0, 3), 2)
    assert "not a 2-subset" in counterexample_problem(fam, (3, 3), (0, 1, 2, 3), 4)


def test_family_rechecker_passes_covering_family():
    fam = Family(4, 4, 2, 2, 2, ((1, 2), (3, 4), (1, 3), (2, 4)))
    assert first_violation(fam) is None
    # d = 3 exercises a non-empty prefix; m*d/l = 3 means every set must avoid D.
    spread = Family(6, 3, 6, 3, 3, ((1, 2, 3, 4, 5, 6),) * 3)
    assert first_violation(spread) is None
    assert first_violation(Family(6, 3, 6, 3, 3, ((1, 2), (1, 2), (1, 2)))) == (3, 4, 5)


def test_first_violation_matches_direct_enumeration():
    from itertools import combinations
    from random import Random

    rng = Random(7)
    n, m, l, d = 9, 12, 6, 3
    sets = tuple(tuple(sorted(rng.sample(range(1, n + 1), 3))) for _ in range(m))
    fam = Family(n, m, 3, l, d, sets)
    direct = next(
        (D for D in combinations(range(1, n + 1), d) if sum(set(D).isdisjoint(s) for s in sets) * l >= m * d),
        None,
    )
    assert first_violation(fam) == direct


def test_self_times_of_nested_spans():
    spans = [
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 4.0, parent=0),
        Span("c", 2.0, 3.0, parent=1),
        Span("d", 5.0, 9.0, parent=0),
        Span("e", 8.0, 9.5, parent=0),  # overlaps d; the union counts once
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4.5, 2.0, 1.0, 4.0, 1.5])


def test_outer_totals_skip_same_name_nesting():
    spans = [Span("x", 0.0, 5.0), Span("x", 1.0, 2.0, parent=0), Span("y", 2.0, 3.0, parent=0)]
    assert outer_totals(spans) == {"x": 5.0, "y": 1.0}


def test_patcher_rebinds_every_namespace_and_reports_missing():
    import json
    import types

    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    sub.dumps = json.dumps
    pkg.dumps = json.dumps
    sys.modules["fakepkg"], sys.modules["fakepkg.sub"] = pkg, sub
    try:
        tracer = Tracer()
        patcher = Patcher("fakepkg")
        assert patcher.wrap("fakepkg.sub:dumps", span_wrapper(tracer, "dump"))
        assert not patcher.wrap("fakepkg.sub:gone", span_wrapper(tracer, "gone"))
        assert (pkg.dumps(1), sub.dumps(2)) == ("1", "2")
        assert [s.name for s in tracer.spans] == ["dump", "dump"]
        assert patcher.missing == ["fakepkg.sub:gone"]
        patcher.restore()
        assert pkg.dumps is json.dumps and sub.dumps is json.dumps
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]


def test_ledger_totals(tmp_path):
    path = tmp_path / "x.ledger.csv"
    path.write_text("# monoreach\nstage,label,predicted,measured\n0,closure,24,24\n1,blocks,20,20\n2,or,12,11\n")
    assert ledger_totals(path) == (56, 55)


def test_gauge_scales_by_probe_speed_and_drops_probe_time():
    from gauge import REFERENCE_PROBE_S, SpeedGauge

    gauge = SpeedGauge()
    # Probes twice as slow as the reference: the CPU ran at half speed.
    gauge.samples = [(t / 10, 2 * REFERENCE_PROBE_S) for t in range(0, 31)]
    inside = sum(d for t, d in gauge.samples if 1.0 <= t <= 2.0)
    assert gauge.reference_seconds(1.0, 2.0) == pytest.approx((1.0 - inside) / 2)
    with pytest.raises(RuntimeError):
        gauge.reference_seconds(10.0, 11.0)
