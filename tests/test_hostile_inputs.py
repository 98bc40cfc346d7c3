"""The CLI under a memory cap: a small hostile file or flag ends in a normal
result or in one `error:` line, never in a traceback, a kill or a hang."""

import resource

import pytest
from test_cli import run_process

from monoreach.build import build_reach_leq
from monoreach.circuit import write_circuit

MEMORY_CAP = 768 << 20  # bytes of address space the child may map
TIMEOUT_S = 20


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_capped(*argv):
    """Run monoreach.cli.main in a child limited to MEMORY_CAP and TIMEOUT_S,
    and check that it ends cleanly: exit 0 or 1, or exit 2 with exactly one
    `error:` line.  Returns the finished process."""
    proc = run_process(*argv, timeout=TIMEOUT_S, preexec_fn=cap_memory)
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    if proc.returncode == 2:
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
    else:
        assert proc.returncode in (0, 1), (proc.returncode, proc.stderr[-2000:])
    return proc


def deep_family(path):
    """40,000 singleton sets and d = 39,999: an exact search d levels deep."""
    path.write_text("FAMILY 40000 40000 1 1000000000000 39999\n" + "".join(f"{v}\n" for v in range(1, 40001)))


def wide_family(path):
    """100,000 singleton sets and d = 1: one 100,000-bit mask per element."""
    path.write_text("FAMILY 100000 100000 1 1000000000000 1\n" + "".join(f"{v}\n" for v in range(1, 100001)))


def huge_d_family(path):
    """46 bytes declaring d = 10**9: one sampled trial draws d elements."""
    path.write_bytes(b"FAMILY 1000000000 1 1 1000000000 1000000000\n1\n")


def wide_circuit(path):
    path.write_bytes(b"MCIRC 1 1000000\nOUT 0\n")


def small_circuit(path):
    write_circuit(build_reach_leq(3, 2), path)


def header_only_circuit(path):
    """64 vertices and no gates: the output is input wire 0."""
    path.write_bytes(b"MCIRC 1 64\nOUT 0\n")


def huge_graph(path):
    path.write_bytes(b"GRAPH 1000000000\n")


def text_file(text):
    return lambda path: path.write_text(text, encoding="utf-8")


# Numbers in FAMILY and GRAPH files follow the MCIRC rule: an optionally
# signed run of ASCII digits.  (name, file text, the line and token refused)
BAD_FAMILY_NUMBERS = [
    ("family header with an underscore", "FAMILY 3 2 2 2 1_0\n1 2\n3\n", "line 1: bad integer '1_0'"),
    ("family set with a full-width digit", "FAMILY 3 2 2 2 1\n1 \uff13\n3\n", "line 2: bad integer '\uff13'"),
    ("family set with a word", "FAMILY 3 2 2 2 1\n1 2\nabc\n", "line 3: bad integer 'abc'"),
]
BAD_GRAPH_NUMBERS = [
    ("graph header with a word", "GRAPH abc\n", "line 1: bad integer 'abc'"),
    ("graph header with a full-width digit", "GRAPH \uff13\n", "line 1: bad integer '\uff13'"),
]

# (name, input files to write, argv with {file} names for them, the refusal's words)
CASES = [
    (
        "exact check of a deep family",
        {"fam": deep_family},
        ["family", "check", "--file", "{fam}", "--mode", "exact"],
        "exact check with d=39999 and m=40000",
    ),
    (
        "exact check of a wide family",
        {"fam": wide_family},
        ["family", "check", "--file", "{fam}", "--mode", "exact"],
        "exact check of m=100000 sets over 100000 elements",
    ),
    (
        "sampled check of a wide family",
        {"fam": wide_family},
        ["family", "check", "--file", "{fam}", "--mode", "sampled", "--trials", "1"],
        "sampled check of m=100000 sets over 100000 elements",
    ),
    (
        "sampled check of a huge d",
        {"fam": huge_d_family},
        ["family", "check", "--file", "{fam}", "--mode", "sampled", "--trials", "1"],
        "sampled check with d=1000000000 and m=1",
    ),
    ("stats of a wide header", {"mc": wide_circuit}, ["stats", "--circuit", "{mc}"], "1000000 vertices need more"),
    (
        "sample of a huge m",
        {},
        ["family", "sample", "--n", "3", "--m", "99999999999", "--s", "2", "--l", "2", "--d", "1", "--out", "{out}"],
        "sampling m=99999999999 sets",
    ),
    (
        "eval on a huge graph header",
        {"mc": small_circuit, "graph": huge_graph},
        ["eval", "--circuit", "{mc}", "--graph", "{graph}"],
        "expected 1000000000 rows, got 0",
    ),
]


CASES += [
    (name, {"fam": text_file(text)}, ["family", "check", "--file", "{fam}", "--mode", "exact"], words)
    for name, text, words in BAD_FAMILY_NUMBERS
]
CASES += [
    (name, {"mc": small_circuit, "graph": text_file(text)}, ["eval", "--circuit", "{mc}", "--graph", "{graph}"], words)
    for name, text, words in BAD_GRAPH_NUMBERS
]
CASES += [
    (
        f"eval on a graph header of {n} vertices",
        {"mc": small_circuit, "graph": text_file(f"GRAPH {n}\n")},
        ["eval", "--circuit", "{mc}", "--graph", "{graph}"],
        f"line 1: a graph needs n >= 1 vertices, got n = {n}",
    )
    for n in (-1, -2, 0)
]

# A flag argparse or --n refuses is one `error:` line too, naming the flag.
CASES += [
    (
        "build with a word for --l",
        {},
        ["build", "--mode", "squaring", "--n", "4", "--l", "abc", "--out", "{out}"],
        "error: argument --l: invalid int value: 'abc'",
    ),
    (
        "build with a word for --n",
        {},
        ["build", "--mode", "squaring", "--n", "abc", "--out", "{out}"],
        "error: --n takes an integer or 2^E, got 'abc'",
    ),
    (
        "build with a word for the exponent of --n",
        {},
        ["build", "--mode", "squaring", "--n", "2^x", "--out", "{out}"],
        "error: --n takes an integer or 2^E, got '2^x'",
    ),
    (
        "verify with a float for --samples",
        {"mc": small_circuit},
        ["verify", "--circuit", "{mc}", "--n", "3", "--mode", "random", "--samples", "1e3"],
        "error: argument --samples: invalid int value: '1e3'",
    ),
    (
        "sample with a word for --m",
        {},
        ["family", "sample", "--n", "3", "--m", "x", "--s", "2", "--l", "2", "--d", "1", "--out", "{out}"],
        "error: argument --m: invalid int value: 'x'",
    ),
]

# Flags read numbers by the files' rule too: no full-width digits, no underscores.
CASES += [
    (
        "predict with full-width digits for --n",
        {},
        ["predict", "--n", "\uff11\uff16"],
        "error: --n takes an integer or 2^E, got '\uff11\uff16'",
    ),
    (
        "predict with an underscore in --n",
        {},
        ["predict", "--n", "1_6"],
        "error: --n takes an integer or 2^E, got '1_6'",
    ),
    (
        "predict with a full-width exponent of --n",
        {},
        ["predict", "--n", "2^\uff11\uff10"],
        "error: --n takes an integer or 2^E, got '2^\uff11\uff10'",
    ),
    (
        "build with a full-width digit for --l",
        {},
        ["build", "--mode", "squaring", "--n", "5", "--l", "\uff13", "--out", "{out}"],
        "error: argument --l: invalid int value: '\uff13'",
    ),
    (
        "build with an underscore in --max-gates",
        {},
        ["build", "--mode", "squaring", "--n", "5", "--max-gates", "1_000", "--out", "{out}"],
        "error: argument --max-gates: invalid int value: '1_000'",
    ),
]

# --walks reads by the same rule, and a walk oracle over the step budget is
# refused before any graph is drawn.
VERIFY_WALKS = ["verify", "--circuit", "{mc}", "--n", "3", "--mode", "random", "--walks"]
CASES += [
    *(
        (
            f"verify with --walks {walks}",
            {"mc": small_circuit},
            [*VERIFY_WALKS, walks],
            f"error: walk length must be at least 1, got {walks}",
        )
        for walks in ("0", "-1")
    ),
    (
        "verify with an underscore in --walks",
        {"mc": small_circuit},
        [*VERIFY_WALKS, "1_0"],
        "error: argument --walks: invalid int value: '1_0'",
    ),
    (
        "verify with full-width digits for --walks",
        {"mc": small_circuit},
        [*VERIFY_WALKS, "\uff11\uff10"],
        "error: argument --walks: invalid int value: '\uff11\uff10'",
    ),
    (
        "verify with --walks over the step budget",
        {"mc": header_only_circuit},
        ["verify", "--circuit", "{mc}", "--n", "64", "--mode", "random", "--walks", str(10**12)],
        f"walks of {10**12} edges over 64 vertices take {10**12 * 64 * 64} steps, over the budget of",
    ),
    (
        "verify exhaustively with --l 0",
        {"mc": small_circuit},
        ["verify", "--circuit", "{mc}", "--n", "3", "--mode", "exhaustive", "--l", "0"],
        "error: length budget l must be at least 1, got 0",
    ),
    (
        "verify with --walks and --l",
        {"mc": small_circuit},
        [*VERIFY_WALKS, "3", "--l", "3"],
        "error: --walks takes --mode random or exhaustive, and no --l",
    ),
]

# A --n over the vertex budget that is not the circuit's size is refused
# for the mismatch, so the error line does not print a 302-digit number.
CASES += [
    (
        f"verify {mode} with --n 2^1000",
        {"mc": small_circuit},
        ["verify", "--circuit", "{mc}", "--n", "2^1000", "--mode", mode],
        "error: circuit size does not match n",
    )
    for mode in ("random", "planted", "exhaustive")
]


@pytest.mark.parametrize("name, files, argv, words", CASES, ids=[case[0] for case in CASES])
def test_refused_in_one_line(tmp_path, name, files, argv, words):
    paths = {key: tmp_path / key for key in (*files, "out")}
    for key, write in files.items():
        write(paths[key])
    proc = run_capped(*(arg.format(**paths) for arg in argv))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert words in proc.stderr
    assert len(proc.stderr) < 200, proc.stderr[:300]
    assert not paths["out"].exists()



def test_zero_padded_operands_read_in_bulk(tmp_path):
    """10**6 gate lines (21 MB) whose operand is zero-padded to 12 digits
    read on the bulk path, not one line at a time."""
    path = tmp_path / "padded.mc"
    path.write_bytes(b"MCIRC 1 2\n" + b"G AND 000000000003 0\n" * 10**6 + b"OUT 5\n")
    proc = run_capped("stats", "--circuit", str(path))
    assert proc.returncode == 0
    assert "gates: 1000000\n" in proc.stdout
