"""Command-line harness: round trips, exit codes, reproducibility."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_circuit_core import build_walk_power, gate_of, per_gate_live
from test_constructions import uncovered_vertex_build

import monoreach
from monoreach import cli
from monoreach.build import build_reach_exact, build_recursive, predict_depth, predict_gate_count
from monoreach.circuit import read_circuit, write_circuit
from monoreach.cli import main
from monoreach.exactmath import child_seed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, **kwargs):
    """Run the CLI in a fresh interpreter that imports this source tree."""
    src = os.path.dirname(os.path.dirname(monoreach.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "monoreach.cli", *argv], capture_output=True, text=True, env=env, **kwargs
    )


class TestBuildEvalStats:
    def test_build_then_stats(self, tmp_path, capsys):
        out = str(tmp_path / "c.mc")
        code, text, _ = run(capsys, "build", "--mode", "explicit", "--n", "16", "--out", out)
        assert code == 0
        assert "depth 29" in text
        code, text, _ = run(capsys, "stats", "--circuit", out)
        assert code == 0
        assert (
            "depth: 29\neval peak values: 482\nrandom-check batch: 49152 graphs\n"
            "eval steps: 798\nvalid: yes\n"
        ) in text
        assert (tmp_path / "c.mc.ledger.csv").exists()
        ledger = (tmp_path / "c.mc.ledger.csv").read_text()
        assert ledger.splitlines()[-1].startswith("2,or,5,5")

    def test_eval_single_edge(self, tmp_path, capsys):
        circ = str(tmp_path / "c2.mc")
        run(capsys, "build", "--mode", "squaring", "--n", "2", "--out", circ)
        graph = tmp_path / "g.gr"
        graph.write_text("GRAPH 2\n01\n00\n")
        code, text, _ = run(capsys, "eval", "--circuit", circ, "--graph", str(graph))
        assert code == 0
        assert text.strip() == "1"

    def test_build_exact_requires_l(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "--mode", "exact", "--n", "4", "--out", str(tmp_path / "x.mc"))
        assert code == 2
        assert "--l" in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("l", ["0", "-1"])
    def test_build_exact_refuses_l_below_1(self, tmp_path, capsys, l):
        out = tmp_path / "x.mc"
        code, text, err = run(capsys, "build", "--mode", "exact", "--n", "5", "--l", l, "--out", str(out))
        assert (code, text, err) == (2, "", f"error: l must be at least 1, got {l}\n")
        assert not out.exists()

    def test_stats_dead_gates(self, tmp_path, capsys):
        squaring = str(tmp_path / "s.mc")
        run(capsys, "build", "--mode", "squaring", "--n", "9", "--out", squaring)
        code, text, _ = run(capsys, "stats", "--circuit", squaring)
        assert code == 0
        assert "dead gates: 0\n" in text
        # A family that leaves a vertex out of every set leaves its closure
        # entries dead; composed builds over covering families have none.
        uncovered = tmp_path / "u.mc"
        write_circuit(uncovered_vertex_build()[0], str(uncovered))
        code, text, _ = run(capsys, "stats", "--circuit", str(uncovered))
        assert code == 0
        dead = per_gate_live(read_circuit(uncovered)).count(False)
        assert dead > 0
        assert f"dead gates: {dead}\n" in text

    def test_stats_zero_wire_operands(self, tmp_path, capsys):
        out = tmp_path / "t.mc"
        run(capsys, "build", "--mode", "explicit", "--n", "16", "--out", str(out))
        code, text, _ = run(capsys, "stats", "--circuit", str(out))
        assert code == 0
        circuit = read_circuit(out)
        zero = sum(circuit.zero in gate_of(circuit, g)[1:] for g in range(circuit.gate_count))
        assert zero == 66  # clone inputs on the slots of sets shorter than q
        assert f"zero-wire operands: {zero}\n" in text
        squaring = str(tmp_path / "s.mc")
        run(capsys, "build", "--mode", "squaring", "--n", "9", "--out", squaring)
        code, text, _ = run(capsys, "stats", "--circuit", squaring)
        assert "zero-wire operands: 0\n" in text

    def test_refusal_names_a_count_too_long_to_print(self, tmp_path, capsys):
        out = tmp_path / "big.mc"
        start = time.perf_counter()
        code, text, err = run(capsys, "build", "--mode", "theorem", "--n", "2^1000", "--out", str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert text == ""
        assert err == "error: build would emit over 10^6678 gates, over the --max-gates budget of 200000000\n"
        assert not out.exists()

    def test_max_gates_budget_refusal(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "build", "--mode", "squaring", "--n", "64", "--max-gates", "1000",
            "--out", str(tmp_path / "big.mc"),
        )
        assert code == 2
        assert "max-gates" in err
        assert not (tmp_path / "big.mc").exists()

    def test_exact_ledger_is_predicted(self, tmp_path, capsys):
        out = str(tmp_path / "e.mc")
        code, text, _ = run(capsys, "build", "--mode", "exact", "--n", "7", "--l", "13", "--out", out)
        assert code == 0
        predicted = predict_depth("exact", 7, 13).total_predicted
        assert f"depth {predicted}" in text
        ledger = (tmp_path / "e.mc.ledger.csv").read_text()
        assert ledger.splitlines()[-1] == f"0,exact-power,{predicted},{predicted}"

    @pytest.mark.parametrize("n", ["16", "17"])
    def test_predict_agrees_with_build(self, tmp_path, capsys, n):
        out = str(tmp_path / "s.mc")
        code, built, _ = run(capsys, "build", "--mode", "squaring", "--n", n, "--out", out)
        assert code == 0
        code, predicted, _ = run(capsys, "predict", "--mode", "squaring", "--n", n)
        assert code == 0
        row = [line for line in predicted.splitlines() if line.startswith("0,squaring,")]
        assert built.strip().endswith(f"depth {row[0].split(',')[2]}")

    def test_theorem_mode_build(self, tmp_path, capsys):
        out = str(tmp_path / "t.mc")
        code, text, _ = run(capsys, "build", "--mode", "theorem", "--n", "9", "--l", "4", "--seed", "3", "--out", out)
        assert code == 0
        code, _, _ = run(capsys, "verify", "--circuit", out, "--n", "9", "--mode", "planted", "--samples", "400", "--seed", "1", "--l", "4")
        assert code == 0


class TestVerify:
    def test_exhaustive_pass(self, tmp_path, capsys):
        out = str(tmp_path / "c.mc")
        run(capsys, "build", "--mode", "explicit", "--n", "4", "--out", out)
        code, text, _ = run(capsys, "verify", "--circuit", out, "--n", "4", "--mode", "exhaustive")
        assert code == 0
        assert "no mismatches" in text

    def test_exhaustive_keeps_the_length_budget(self, tmp_path, capsys):
        # Graphs whose 1 -> 4 paths are all longer than l are outside the promise.
        out = str(tmp_path / "c.mc")
        run(capsys, "build", "--mode", "squaring", "--n", "4", "--l", "2", "--out", out)
        code, text, _ = run(capsys, "verify", "--circuit", out, "--n", "4", "--mode", "exhaustive", "--l", "2")
        assert (code, text) == (0, "checked 65536 graphs, skipped 2048 outside the promise\nno mismatches\n")

    def test_random_pass(self, tmp_path, capsys):
        out = str(tmp_path / "c.mc")
        run(capsys, "build", "--mode", "explicit", "--n", "16", "--out", out)
        code, text, _ = run(
            capsys, "verify", "--circuit", out, "--n", "16", "--mode", "random",
            "--samples", "2000", "--seed", "7",
        )
        assert code == 0

    def test_mismatch_prints_graph_and_fails(self, tmp_path, capsys):
        # A circuit whose output is the zero wire claims nothing is reachable.
        bogus = tmp_path / "zero.mc"
        bogus.write_text("MCIRC 1 2\nOUT 4\n")
        code, text, _ = run(capsys, "verify", "--circuit", str(bogus), "--n", "2", "--mode", "exhaustive")
        assert code == 1
        assert "MISMATCH" in text
        assert "GRAPH 2" in text

    def test_multi_output_circuit_refused(self, tmp_path, capsys):
        walk = tmp_path / "walk.mc"
        write_circuit(build_walk_power(3, 2), walk)
        code, text, err = run(capsys, "verify", "--circuit", str(walk), "--n", "3", "--mode", "random")
        assert code == 2
        assert text == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("mode", ["random", "planted", "exhaustive"])
    def test_vertex_budget_refuses_a_tiny_wide_file(self, tmp_path, mode):
        # The header alone asks for 46340**2 input masks per chunk.
        path = tmp_path / "wide.mc"
        path.write_bytes(b"MCIRC 1 46340\nOUT 0\n")
        proc = run_process("verify", "--circuit", str(path), "--n", "46340", "--mode", mode, timeout=20)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error:")

    def test_promise_skip_counting(self, tmp_path, capsys):
        out = str(tmp_path / "c.mc")
        run(capsys, "build", "--mode", "squaring", "--n", "8", "--l", "2", "--out", out)
        code, text, _ = run(
            capsys, "verify", "--circuit", out, "--n", "8", "--mode", "random",
            "--samples", "3000", "--seed", "2", "--l", "2", "--p", "0.1",
        )
        assert code == 0
        assert "skipped" in text

    @pytest.mark.parametrize(
        "mode, flags, message",
        [
            ("random", ["--samples", "-5"], "samples must be at least 1, got -5"),
            ("random", ["--samples", "0"], "samples must be at least 1, got 0"),
            ("planted", ["--samples", "0"], "samples must be at least 1, got 0"),
            ("random", ["--p", "1.5"], "edge density p must be in [0, 1], got 1.5"),
            ("random", ["--p", "-0.1"], "edge density p must be in [0, 1], got -0.1"),
            ("random", ["--p", "nan"], "edge density p must be in [0, 1], got nan"),
            ("random", ["--p", "0.1,inf"], "edge density p must be in [0, 1], got inf"),
            ("planted", ["--l", "0"], "length budget l must be at least 1, got 0"),
            ("random", ["--l", "-1"], "length budget l must be at least 1, got -1"),
            ("planted", ["--walks", "3"], "--walks takes --mode random or exhaustive, and no --l"),
            ("exhaustive", ["--walks", "3", "--l", "3"], "--walks takes --mode random or exhaustive, and no --l"),
            ("exhaustive", ["--walks", "0"], "walk length must be at least 1, got 0"),
            ("exhaustive", ["--l", "0"], "length budget l must be at least 1, got 0"),
        ],
    )
    def test_a_check_that_runs_no_graph_is_refused(self, tmp_path, capsys, mode, flags, message):
        out = str(tmp_path / "c.mc")
        run(capsys, "build", "--mode", "squaring", "--n", "4", "--out", out)
        code, text, err = run(capsys, "verify", "--circuit", out, "--n", "4", "--mode", mode, *flags)
        assert (code, text, err) == (2, "", f"error: {message}\n")


    @pytest.mark.parametrize("p, token", [("abc", "'abc'"), (",", "''"), ("0.1,,0.2", "''"), ("0.1,x", "'x'")])
    def test_unreadable_density_names_the_flag(self, tmp_path, capsys, p, token):
        out = str(tmp_path / "c.mc")
        run(capsys, "build", "--mode", "squaring", "--n", "4", "--out", out)
        code, text, err = run(capsys, "verify", "--circuit", out, "--n", "4", "--mode", "random", "--p", p)
        assert (code, text, err) == (2, "", f"error: --p takes comma-separated numbers, got {token}\n")

    def test_exact_circuit_passes_with_walks(self, tmp_path, capsys):
        # An exact circuit decides walks of exactly l edges, not reachability.
        out = str(tmp_path / "e.mc")
        run(capsys, "build", "--mode", "exact", "--n", "6", "--l", "3", "--out", out)
        verify = ["verify", "--circuit", out, "--mode", "random", "--n", "6", "--samples", "2000", "--seed", "1"]
        code, text, _ = run(capsys, *verify)
        assert code == 1
        assert "MISMATCH" in text
        code, text, _ = run(capsys, *verify, "--walks", "3")
        assert (code, text) == (0, "checked 2000 graphs, skipped 0 outside the promise\nno mismatches\n")

    def test_planted_check_refuses_one_vertex(self, tmp_path, capsys):
        path = tmp_path / "one.mc"
        path.write_text("MCIRC 1 1\nOUT 1\n")
        code, text, err = run(capsys, "verify", "--circuit", str(path), "--n", "1", "--mode", "planted")
        assert (code, text, err) == (2, "", "error: planted graphs need at least 2 vertices, got n = 1\n")


class TestFamilyCommands:
    def test_plane_round_trip(self, tmp_path, capsys):
        fam = str(tmp_path / "f.fam")
        code, text, _ = run(capsys, "family", "plane", "--n", "4", "--out", fam)
        assert code == 0
        code, text, _ = run(capsys, "family", "check", "--file", fam, "--mode", "exact")
        assert code == 0
        assert text.strip() == "pass"

    def test_plane_over_budget_refused_before_any_line(self, tmp_path, capsys):
        fam = tmp_path / "f.fam"
        start = time.perf_counter()
        code, text, err = run(capsys, "family", "plane", "--n", "2^100", "--out", str(fam))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert text == ""
        assert err.startswith("error: the plane over GF(")
        assert "budget" in err
        assert len(err.strip().splitlines()) == 1
        assert not fam.exists()

    @pytest.mark.parametrize("m, s", [("99999999999", "2"), ("2", "99999999999"), ("1024", "1025")])
    def test_sample_over_budget_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, m, s):
        monkeypatch.setattr(monoreach.families, "_uniform_below", None)  # a draw would raise TypeError
        fam = tmp_path / "f.fam"
        start = time.perf_counter()
        code, text, err = run(
            capsys, "family", "sample", "--n", "3", "--m", m, "--s", s, "--l", "2", "--d", "1", "--out", str(fam)
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert text == ""
        assert err == f"error: sampling m={m} sets of s={s} entries is over the budget of 1048576 entries\n"
        assert not fam.exists()

    @pytest.mark.parametrize("attempts", ["0", "-5"])
    def test_sample_refuses_attempts_below_one(self, tmp_path, capsys, monkeypatch, attempts):
        monkeypatch.setattr(monoreach.families, "_uniform_below", None)  # a draw would raise TypeError
        fam = tmp_path / "f.fam"
        code, text, err = run(
            capsys, "family", "sample", "--n", "16", "--m", "16", "--s", "12", "--l", "8", "--d", "8",
            "--attempts", attempts, "--out", str(fam),
        )
        assert (code, text) == (2, "")
        assert err == f"error: attempts must be at least 1, got {attempts}\n"
        assert not fam.exists()

    def test_sample_and_check(self, tmp_path, capsys):
        fam = str(tmp_path / "s.fam")
        code, _, _ = run(
            capsys, "family", "sample", "--n", "16", "--m", "16", "--s", "12",
            "--l", "8", "--d", "8", "--seed", "5", "--out", fam,
        )
        assert code == 0
        code, text, _ = run(capsys, "family", "check", "--file", fam, "--mode", "sampled", "--trials", "5000")
        assert code == 0
        assert "no-violation-found" in text

    def test_check_reports_counterexample(self, tmp_path, capsys):
        fam = tmp_path / "bad.fam"
        fam.write_text("FAMILY 2 4 1 2 1\n1\n1\n1\n1\n")
        code, text, _ = run(capsys, "family", "check", "--file", str(fam), "--mode", "exact")
        assert code == 1
        assert "counterexample" in text

    def test_check_passes_when_l_is_below_d(self, tmp_path, capsys):
        fam = tmp_path / "wide.fam"
        fam.write_text("FAMILY 1000000000 1 1 1 2\n1\n")
        code, text, _ = run(capsys, "family", "check", "--file", str(fam), "--mode", "exact")
        assert code == 0
        assert text.strip() == "pass"

    SHAPE = ["--n", "48", "--m", "48", "--s", "16", "--l", "8", "--d", "4", "--seed", "0"]

    def test_sample_gives_up_after_its_attempts(self, tmp_path, capsys):
        # Seed 0's first three (48,48,16,8,4) families have counterexamples.
        fam = tmp_path / "f.fam"
        code, text, err = run(capsys, "family", "sample", *self.SHAPE, "--attempts", "3", "--out", str(fam))
        assert code == 1
        assert text == ""
        assert err == "no verified family within 3 attempts\n"
        assert not fam.exists()

    def test_sample_writes_the_first_verified_attempt(self, tmp_path, capsys):
        fam = tmp_path / "f.fam"
        code, text, _ = run(capsys, "family", "sample", *self.SHAPE, "--attempts", "4", "--out", str(fam))
        assert code == 0
        assert text == f"wrote {fam} after 4 attempt(s)\n"
        want = monoreach.sample_family(monoreach.FamilyParams(48, 48, 16, 8, 4), child_seed(0, "attempt3"))
        assert fam.read_text() == monoreach.family_to_text(want)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_hostile_universe_allocates_nothing_sized_by_n(self, tmp_path, mode):
        # 28 bytes declaring n = 10**9; the child may map only 1.5 GB.
        path = tmp_path / "huge.fam"
        path.write_bytes(b"FAMILY 1000000000 1 1 1 1\n1\n")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

        proc = run_process("family", "check", "--file", str(path), "--mode", mode, timeout=60, preexec_fn=cap_memory)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith("counterexample: ")
        if mode == "exact":
            assert proc.stdout.startswith("counterexample: D=(2,) ")


class TestPredict:
    def test_single_prediction(self, capsys):
        code, text, _ = run(capsys, "predict", "--mode", "explicit", "--n", "2^64")
        assert code == 0
        assert "ratio to (log2 n)^2" in text

    def test_table(self, capsys):
        code, text, _ = run(capsys, "predict", "--table")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "e,squaring,explicit,theorem"
        assert len(lines) == 9

    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "predict", "--mode", "squaring")
        assert code == 2
        assert "--n" in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_exact_requires_l(self, capsys):
        code, out, err = run(capsys, "predict", "--mode", "exact", "--n", "9")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:")
        assert " l" in err

    def test_theorem_shows_integer_depths_after_the_main_terms(self, capsys):
        code, text, _ = run(capsys, "predict", "--mode", "theorem", "--n", "16", "--l", "12")
        assert code == 0
        lines = text.splitlines()
        gates = lines.index(f"# gate count if built: {predict_gate_count('theorem', 16, 12)}")
        assert lines[3:gates - 1] == ["0,level0,8.000000,", "1,level1.squaring,8.063438,"]
        assert lines[gates + 1 :] == [
            "# integer depth if built: 33",
            "# stage,label,predicted,measured",
            "# 0,level0.closure,15,",
            "# 1,level0.or,4,",
            "# 2,level1.squaring,14,",
        ]
        circuit, _ = build_recursive(16, 12, 0)
        assert circuit.depth() == 33

    @pytest.mark.parametrize("n, l", [(9, 4), (7, 13)])
    def test_exact_matches_build(self, capsys, n, l):
        code, text, _ = run(capsys, "predict", "--mode", "exact", "--n", str(n), "--l", str(l))
        assert code == 0
        built = build_reach_exact(n, l)
        row = [line for line in text.splitlines() if line.startswith("0,exact-power,")]
        assert row == [f"0,exact-power,{built.depth()},"]
        assert f"# gate count if built: {predict_gate_count('exact', n, l)}" in text
        assert predict_gate_count("exact", n, l) == built.gate_count


class TestPowerOfTwoN:
    """--n 2^E takes 0 <= E <= 1024, checked before the shift sizes an int."""

    @pytest.mark.parametrize("exponent", ["-3", "1025", "1000000000"])
    @pytest.mark.parametrize("cmd", ["predict", "build"])
    def test_exponent_out_of_range_exits_2_at_once(self, tmp_path, capsys, cmd, exponent):
        out = tmp_path / "c.mc"
        argv = ["predict"] if cmd == "predict" else ["build", "--mode", "theorem", "--out", str(out)]
        start = time.perf_counter()
        code, text, err = run(capsys, *argv, "--n", f"2^{exponent}")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert text == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert f"E = {exponent}" in err
        assert not out.exists()

    def test_huge_exponent_allocates_nothing(self, tmp_path):
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))

        proc = run_process(
            "build", "--mode", "squaring", "--n", "2^1000000000", "--out", str(tmp_path / "c.mc"),
            timeout=60, preexec_fn=cap_memory,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_largest_exponent_still_predicts(self, capsys):
        code, text, err = run(capsys, "predict", "--n", "2^1024")
        assert code == 0
        assert err == ""
        assert f"0,squaring,{1024 * 1025}," in text
        assert "ratio to (log2 n)^2" in text


class TestReproducibility:
    def test_identical_builds_are_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.mc"
        b = tmp_path / "b.mc"
        for out in (a, b):
            code, _, _ = run(
                capsys, "build", "--mode", "theorem", "--n", "16", "--l", "8",
                "--seed", "99", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_family_file(self, tmp_path, capsys):
        a = tmp_path / "a.fam"
        b = tmp_path / "b.fam"
        for seed, out in ((1, a), (2, b)):
            run(capsys, "family", "sample", "--n", "12", "--m", "12", "--s", "10",
                "--l", "6", "--d", "6", "--seed", str(seed), "--out", str(out))
        assert a.read_bytes() != b.read_bytes()


# Help, version and refusal text (exit code, stdout, stderr at 80 columns)
# and the namespace of each accepted argv, as recorded from the CLI when it
# built its whole argparse tree on every call.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def argv_id(argv):
    return " ".join(argv) or "(none)"


class TestParsing:
    @pytest.mark.parametrize("case", GOLDEN["text"], ids=lambda case: argv_id(case["argv"]))
    def test_text_is_unchanged(self, case, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            main(case["argv"])
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out, captured.err) == (case["code"], case["out"], case["err"])

    @pytest.mark.parametrize("case", GOLDEN["namespaces"], ids=lambda case: argv_id(case["argv"]))
    def test_namespace_is_unchanged(self, case):
        every_name = [*cli._COMMANDS, *cli._COMMANDS["family"][1]]
        assert vars(cli._parse(case["argv"])) == case["namespace"]
        assert vars(cli._command_tree(every_name).parse_args(case["argv"])) == case["namespace"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--mode", "squaring", "--n", "2", "--out", "c.mc"],
            ["eval", "--circuit", "missing.mc", "--graph", "missing.gr"],
            ["verify", "--circuit", "missing.mc", "--n", "2", "--mode", "random"],
            ["family", "plane", "--n", "4", "--out", "f.fam"],
            ["family", "sample", "--n", "4", "--m", "4", "--s", "3", "--l", "2", "--d", "1", "--out", "f.fam"],
            ["family", "check", "--file", "missing.fam", "--mode", "exact"],
            ["predict", "--n", "16"],
            ["stats", "--circuit", "missing.mc"],
        ],
        ids=argv_id,
    )
    def test_a_command_builds_only_its_own_parser(self, argv, tmp_path, capsys, monkeypatch):
        built = []

        class CountedParser(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", CountedParser)
        monkeypatch.chdir(tmp_path)
        assert main(argv) in (0, 1, 2)
        command = argv[:2] if argv[0] == "family" else argv[:1]
        assert built == [" ".join(["monoreach", *command])]


class TestErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_build_has_no_sampled_validation_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["build", "--mode", "theorem", "--n", "9", "--l", "4", "--allow-sampled", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "--allow-sampled" in capsys.readouterr().err

    # --l 3 samples no family (k = 0), so the refusal cannot come from the sampler.
    @pytest.mark.parametrize(
        "attempts, l",
        [pytest.param("0", "12", id="0"), pytest.param("-5", "12", id="-5"), pytest.param("0", "3", id="0-l3")],
    )
    def test_theorem_build_refuses_attempts_below_one(self, tmp_path, capsys, monkeypatch, attempts, l):
        monkeypatch.setattr(monoreach.families, "_uniform_below", None)  # a draw would raise TypeError
        monkeypatch.setattr(monoreach.build, "build_reach_leq", None)  # so would a base circuit
        out = tmp_path / "t.mc"
        code, text, err = run(
            capsys, "build", "--mode", "theorem", "--n", "16", "--l", l, "--attempts", attempts, "--out", str(out)
        )
        assert (code, text) == (2, "")
        assert err == f"error: attempts must be at least 1, got {attempts}\n"
        assert not out.exists()

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "stats", "--circuit", "/nonexistent/c.mc")
        assert code == 2

    def test_bad_circuit_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mc"
        bad.write_text("MCIRC 9 9\n")
        code, _, err = run(capsys, "stats", "--circuit", str(bad))
        assert code == 2
        assert "error" in err

    def test_circuit_that_fails_validation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "no-outputs.mc"
        bad.write_text("MCIRC 1 2\nG AND 0 1\nOUT\n")
        code, out, err = run(capsys, "stats", "--circuit", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: circuit file is not well-formed: circuit has no outputs\n"

    def test_header_beyond_int32_wire_ids_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "huge.mc"
        bad.write_bytes(b"MCIRC 1 1000000\nOUT 0\n")
        code, out, err = run(capsys, "stats", "--circuit", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1: ")
        assert len(err.strip().splitlines()) == 1

    def test_largest_header_only_circuit_has_depth_0(self, tmp_path, capsys):
        path = tmp_path / "wide.mc"
        path.write_bytes(b"MCIRC 1 46340\nOUT 0\n")
        code, out, _ = run(capsys, "stats", "--circuit", str(path))
        assert code == 0
        assert "inputs: 2147395600" in out
        assert "depth: 0\nrandom-check batch: none, over 256 vertices\nvalid: yes\n" in out
        assert "valid: yes" in out
