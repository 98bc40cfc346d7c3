"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them.  The heavy oracle comparisons use the bit-parallel batch
evaluator, so the whole module finishes in a few minutes.
"""

from test_circuit_core import well_formed

import monoreach as mr
from monoreach.exactmath import child_seed, comb
from monoreach.families import FamilyParams
from monoreach.oracles import run_exhaustive_check, run_planted_check, run_random_check

ACCEPT_SEED = 20240811


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}: {detail}"


def test_c01_exhaustive_oracle_equivalence():
    checked = 0
    for n in (2, 3, 4):
        for label, circuit in (("squaring", mr.build_reach(n)), ("explicit", mr.build_explicit(n)[0])):
            rep = run_exhaustive_check(circuit, n)
            assert rep.ok, f"{label} n={n}: {rep.mismatches[:1]}"
            checked += rep.checked
    report("exhaustive oracle equivalence (n=2,3,4, both builders)", True, f"{checked} evaluations")


def test_c02_randomized_oracle_equivalence():
    total = 0
    for n in (9, 16, 25, 64):
        circuit, _ = mr.build_explicit(n)
        rep = run_random_check(circuit, n, 100_000, seed=child_seed(ACCEPT_SEED, f"c2:{n}"))
        assert rep.ok, f"n={n}: {rep.mismatches[:1]}"
        assert rep.skipped == 0
        total += rep.checked
    report("randomized oracle equivalence (explicit, n=9,16,25,64)", True, f"{total} graphs")


def test_c03_promise_soundness_and_completeness():
    configs = []
    for n, l in ((16, 6), (32, 9)):
        configs.append((f"squaring n={n} l={l}", mr.build_reach_leq(n, l), n, l))
    for n, l in ((9, 4), (16, 12)):
        circuit, _ = mr.build_recursive(n, l, seed=child_seed(ACCEPT_SEED, f"c3:{n}:{l}"))
        configs.append((f"recursive n={n} l={l}", circuit, n, l))
    total = 0
    for label, circuit, n, l in configs:
        rep = run_planted_check(circuit, n, 20_000, seed=child_seed(ACCEPT_SEED, label), l=l)
        assert rep.ok, f"{label}: {rep.mismatches[:1]}"
        total += rep.checked
    report("promise soundness/completeness (planted + no-path)", True, f"{total} graphs over {len(configs)} configs")


def test_c04_depth_bound_and_ledger_identity():
    # Bounded-length circuits depend structurally only on (n, ceil(log2 l));
    # construction determinism lets one measurement stand for the class.
    depth_cache: dict[tuple[int, int], int] = {}
    for n in range(2, 65):
        for l in range(2, 65):
            t = mr.ceil_log2(l)
            if (n, t) not in depth_cache:
                depth_cache[(n, t)] = mr.build_reach_leq(n, l).depth()
            assert depth_cache[(n, t)] <= t * (2 + mr.ceil_log2(n)), (n, l)
    spot_a = mr.build_reach_leq(7, 5)
    spot_b = mr.build_reach_leq(7, 8)  # same ceil(log2 l) class
    assert bytes(spot_a._ops) == bytes(spot_b._ops)
    assert spot_a._lefts.tobytes() == spot_b._lefts.tobytes()

    ledgers = []
    for n in (4, 9, 16, 25):
        circuit, ledger = mr.build_explicit(n)
        ledgers.append((f"explicit {n}", circuit, ledger))
    circuit, ledger = mr.build_recursive(16, 12, seed=child_seed(ACCEPT_SEED, "c4"))
    ledgers.append(("recursive 16/12", circuit, ledger))
    for label, circuit, ledger in ledgers:
        assert well_formed(circuit) is None, label
        assert ledger.total_measured == circuit.depth() == ledger.total_predicted, label
    report("depth bound over n,l in 2..64 and exact ledger identities", True,
           f"{63 * 63} pairs, {len(ledgers)} composed ledgers")


def test_c05_line_cover_bound_exhaustive():
    for q in (2, 3):
        assert mr.verify_line_cover_bound(q) is None
    report("line-cover bound exhaustive (q=2: 64 subsets, q=3: 4096 subsets)", True)


def test_c06_plane_family_correctness():
    for n in (4, 9, 16, 25, 36):
        assert mr.check_family_exact(mr.plane_family(n)) is None
    for n in (16, 25, 49):
        fam = mr.plane_family(n)
        bad = mr.check_family_sampled(fam, 100_000, seed=child_seed(ACCEPT_SEED, f"c6:{n}"))
        assert bad is None, f"n={n}: {bad}"
    report("plane families (exact n=4,9,16,25,36; sampled 1e5 trials n=16,25,49)", True)


def test_c07_sampler_guarantee():
    parameter_sets = ((12, 12, 10, 6, 6), (14, 14, 11, 7, 7), (16, 16, 12, 8, 8))
    details = []
    for n, m, s, l, d in parameter_sets:
        assert mr.sampling_guarantee_holds(n, m, s, l, d)
        assert comb(n, d) <= 10_000_000
        params = FamilyParams(n, m, s, l, d)
        first_hit = None
        failures = 0
        for i in range(100):
            fam = mr.sample_family(params, child_seed(ACCEPT_SEED, f"c7:{n}:{i}"))
            if mr.check_family_exact(fam) is None:
                if first_hit is None:
                    first_hit = i
            else:
                failures += 1
        assert first_hit is not None and first_hit < 10, (n, first_hit)
        allowed = 10.0 * mr.sampling_failure_bound(n, m, s, l, d)
        assert failures / 100.0 <= allowed, (n, failures, allowed)
        details.append(f"({n},{m},{s},{l},{d}): {failures}/100 failures")
    report("sampled-family guarantee (3 parameter sets, 100 seeds each)", True, "; ".join(details))


def test_c08_hitting_witnesses():
    from random import Random

    rng = Random(child_seed(ACCEPT_SEED, "c8"))
    families = [mr.plane_family(9), mr.plane_family(16), mr.plane_family(25)]
    for n, m, s, l, d in ((12, 12, 10, 6, 6), (16, 16, 12, 8, 8)):
        fam = mr.sample_family(FamilyParams(n, m, s, l, d), child_seed(ACCEPT_SEED, f"c8:{n}"))
        assert mr.check_family_exact(fam) is None
        families.append(fam)
    count = 0
    for fam in families:
        p = fam.params
        for _ in range(200):
            lp = 1 + rng.randrange(min(p.l, p.n - 1))
            seq = rng.sample(range(1, p.n + 1), lp + 1)
            w = mr.hitting_decomposition(fam, seq)
            gaps = [b - a for a, b in zip(w.indices, w.indices[1:])]
            assert w.indices[0] == 0 and w.indices[-1] == lp
            assert max(gaps) <= 2 * p.d
            assert w.k * p.d <= p.l
            chosen = set(fam.sets[w.set_index])
            assert all(seq[t] in chosen for t in w.indices[1:-1])
            count += 1
    report("hitting decompositions (1000 planted pairs, gap and k bounds exact)", True, f"{count} witnesses")


def test_c09_depth_trend_report():
    rows = mr.trend_table()
    print("      e   squaring   explicit    theorem   (depth ratio to (log2 n)^2)")
    for e, sq, ex, th in rows:
        print(f"  {e:>5}  {float(sq):>9.5f}  {float(ex):>9.5f}  {float(th):>9.5f}")
    explicit = [r[2] for r in rows]
    assert all(a >= b for a, b in zip(explicit, explicit[1:])), "explicit ratio not monotone"
    for e, sq, _, th in rows:
        if e >= 20:
            assert th < sq, f"theorem ratio not below squaring at 2^{e}"
    report("depth trend report (explicit nonincreasing; theorem < squaring from 2^20)", True,
           f"explicit at 2^1024: {float(rows[-1][2]):.5f}, theorem: {float(rows[-1][3]):.5f}")


def test_c10_reproducible_builds(tmp_path):
    from monoreach.cli import main

    jobs = [
        ("squaring", ["--n", "16", "--l", "8"]),
        ("exact", ["--n", "9", "--l", "4"]),
        ("explicit", ["--n", "16"]),
        ("theorem", ["--n", "16", "--l", "12", "--seed", "77"]),
    ]
    for mode, extra in jobs:
        files = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{mode}-{run_id}.mc"
            code = main(["build", "--mode", mode, *extra, "--out", str(out)])
            assert code == 0
            files.append(out.read_bytes())
        assert files[0] == files[1], f"mode {mode} not byte-identical"
    report("byte-identical rebuilds (squaring/exact/explicit/theorem)", True)
