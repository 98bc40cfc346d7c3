"""MCIRC writer and parser: bytes written, the accepted grammar, and errors.

The parser reads whole bands of lines with numpy.  It is checked against
``reference_circuit_from_text``, the per-line parser it replaced, which is
kept here only as an oracle.  Input is read a block at a time, and parsing
in tiny blocks is checked against parsing the text whole.
"""

import io
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_circuit_core import circuit_to_text, gate_of, well_formed

import monoreach as mr
import monoreach.circuit as circuit_module
from monoreach import AND, OR
from monoreach.build import build_recursive
from monoreach.circuit import MAX_WIRES, MonotoneCircuit


def reference_circuit_from_text(text, where):
    """The line-by-line MCIRC parser that the bulk parser replaced, unchanged
    except that it records in ``where["line"]`` the line it is reading, so
    that an error from a bare int() can be tied to its line, and that it
    refuses a header whose input and zero wires alone pass MAX_WIRES, as
    the format has since wire ids became int32."""
    op_codes = {"AND": AND, "OR": OR}
    lines = text.splitlines()
    if not lines:
        raise mr.InvalidParameterError("empty circuit file")
    where["line"] = 1
    head = lines[0].split()
    if len(head) != 3 or head[0] != "MCIRC" or head[1] != "1":
        raise mr.InvalidParameterError(f"bad circuit header: {lines[0]!r}")
    circuit = MonotoneCircuit(int(head[2]))
    if circuit.num_wires > MAX_WIRES:
        raise mr.InvalidParameterError(f"line 1: {circuit.num_vertices} vertices need more than {MAX_WIRES} wires")
    outputs = None
    for ln, line in enumerate(lines[1:], start=2):
        where["line"] = ln
        parts = line.split()
        if not parts:
            raise mr.InvalidParameterError(f"line {ln}: blank line in circuit file")
        if parts[0] == "G":
            if outputs is not None:
                raise mr.InvalidParameterError(f"line {ln}: gate after OUT line")
            if len(parts) != 4 or parts[1] not in op_codes:
                raise mr.InvalidParameterError(f"line {ln}: bad gate line {line!r}")
            circuit.add_gate(op_codes[parts[1]], int(parts[2]), int(parts[3]))
        elif parts[0] == "OUT":
            if outputs is not None:
                raise mr.InvalidParameterError(f"line {ln}: duplicate OUT line")
            outputs = [int(t) for t in parts[1:]]
        else:
            raise mr.InvalidParameterError(f"line {ln}: unknown record {parts[0]!r}")
    where["line"] = None
    if outputs is None:
        raise mr.InvalidParameterError("circuit file has no OUT line")
    circuit.set_outputs(outputs)
    bad = well_formed(circuit)
    if bad is not None:
        raise mr.InvalidParameterError(f"circuit file is not well-formed: {bad}")
    return circuit


def arrays(c):
    return ("ok", c.num_vertices, bytes(c._ops), c._lefts.tobytes(), c._rights.tobytes(), c.outputs)


def outcome(parse, text):
    """What a parser makes of text: the circuit's arrays, or the error."""
    try:
        c = parse(text)
    except ValueError as exc:
        return ("error", type(exc), str(exc))
    return arrays(c)


def assert_same_verdict(text):
    where = {}
    expected = outcome(lambda t: reference_circuit_from_text(t, where), text)
    got = outcome(mr.circuit_from_text, text)
    assert outcome(mr.circuit_from_text, text.encode()) == got
    if expected[0] == "error" and expected[1] is ValueError:
        # A bare int() failure: the bulk parser names the line it is on.
        assert got[:2] == ("error", mr.InvalidParameterError), (text, got)
        assert got[2].startswith(f"line {where['line']}: bad integer "), (text, got)
    else:
        assert got == expected, text


def assert_same_verdict_in_blocks(text, folder):
    """read_circuit on a file holding text, and circuit_from_text on text,
    with tiny read blocks, give the verdict that parsing text whole gives."""
    whole = outcome(mr.circuit_from_text, text)
    path = folder / "blocks.mc"
    path.write_bytes(text.encode())
    for size in BLOCK_SIZES:
        with mock.patch.object(circuit_module, "_READ_BLOCK", size):
            assert outcome(mr.read_circuit, path) == whole, (size, text)
            assert outcome(mr.circuit_from_text, text) == whole, (size, text)


def random_circuit(draw, max_gates=12):
    c = mr.MonotoneCircuit(draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, max_gates))):
        op = draw(st.sampled_from([AND, OR]))
        c.add_gate(op, draw(st.integers(0, c.num_wires - 1)), draw(st.integers(0, c.num_wires - 1)))
    c.set_outputs(draw(st.lists(st.integers(0, c.num_wires - 1), min_size=1, max_size=3)))
    return c


def mutated_text(draw):
    """The text of a small random circuit with up to four bytes inserted,
    deleted or replaced."""
    text = circuit_to_text(random_circuit(draw))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        at = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(MUTATION_BYTES))
        if kind == "insert":
            text = text[:at] + ch + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + ch + text[at + 1 :]
    return text


MUTATION_BYTES = "0123456789 GANDORUT+-\t\r\n"
# Pieces of short texts, most of them only a few lines or none.
SHORT_PIECES = ["MCIRC 1 2", "MCIRC", "1", "2", "G AND 0 1", "G", "OR", "OUT 5", "OUT", "0", "+", "-",
                " ", "\t", "\r", "\n", "\r\n", "\x0b", "\x1c", "\x1f", "\x00"]


EDGE_CASES = [
    "",
    "\n",
    "MCIRC 1 2",
    "MCIRC 1 2\n",
    "MCIRC 1 2\nOUT\n",
    "MCIRC 1 2\nOUT 0",
    "MCIRC 1 2\r\nG AND 0 1\r\nOUT 5\r\n",
    "MCIRC 1 2\rG AND 0 1\rOUT 5\r",
    "MCIRC 1 2\r\n\r\nOUT 0\r\n",
    "MCIRC 1 2\r\r\nOUT 0\n",
    " MCIRC\t1  2 \nG\tOR   +0 -0\t\n  OUT   05 \n",
    "MCIRC 1 2\nG AND 0 1\n\n",
    "MCIRC 1 2\nG AND 0 1\nOUT 5\nG OR 0 1\n",
    "MCIRC 1 2\nOUT 0\nOUT 0\n",
    "MCIRC 1 2\nG XOR 0 1\nOUT 0\n",
    "MCIRC 1 2\nG AND 0\nOUT 0\n",
    "MCIRC 1 2\nG AND 0 1 2\nOUT 0\n",
    "MCIRC 1 2\nG AND 0 5\nOUT 0\n",
    "MCIRC 1 2\nG AND 5 0\nOUT 0\n",
    "MCIRC 1 2\nG AND 0 1\nG OR 6 0\nOUT 0\n",
    "MCIRC 1 2\nG AND -1 0\nOUT 0\n",
    "MCIRC 1 2\nG AND + 0\nOUT 0\n",
    "MCIRC 1 2\nG AND 0 1-\nOUT 0\n",
    "MCIRC 1 2\nG AND 000000000000000000000003 0\nOUT 5\n",
    "MCIRC 1 2\nG AND 99999999999999999999999 0\nOUT 5\n",
    "MCIRC 1 2\nG AND 0 1\nOUT 5 +6\n",
    "MCIRC 1 2\nG AND 0 1\nOUT x\n",
    "MCIRC 1 2\nGATE AND 0 1\nOUT 5\n",
    "MCIRC 1 0\nOUT 0\n",
    "MCIRC 1 211111",
    "MCIRC 1 46341\nOUT 0\n",
    "MCIRC 1 -2\nOUT 0\n",
    "MCIRC 1 +2\nOUT 0\n",
    "MCIRC 1 x\nOUT 0\n",
    "MCIRC 01 2\nOUT 0\n",
    "MCIRC 1 2 3\nOUT 0\n",
    # every ASCII byte str.split() or str.splitlines() treats specially
    "MCIRC 1 2\x0bG AND 0 1\x0cOUT 5\x1c",
    "MCIRC 1 2\x1dG\x1fAND 0\x1f1\x1eOUT 5\n",
    "MCIRC 1 2\nG AND 0\x001\nOUT 5\n",
    "MCIRC 1 2\nG AND 0 1\x07\nOUT 5\n",
    # control bytes but fewer than two line breaks
    "MCIRC 1 2\t",
    "MCIRC\t1 2",
    "MCIRC 1 2\x07",
    "MCIRC 1 2\r",
    "MCIRC 1 2\r\n",
    "MCIRC 1 2\tOUT 0\n",
]
# Read block sizes the block-edge tests patch in: 1 cuts a text at every
# byte, the others at offsets that drift against its lines.
BLOCK_SIZES = (1, 2, 3, 7, 64)


class TestDifferential:
    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_mutated_text_same_verdict_as_reference(self, data):
        assert_same_verdict(mutated_text(data.draw))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(SHORT_PIECES), max_size=12))
    def test_short_texts_same_verdict_as_reference(self, pieces):
        assert_same_verdict("".join(pieces))

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases_same_verdict_as_reference(self, text):
        assert_same_verdict(text)

    def test_first_fault_in_file_order_wins(self):
        gates = "".join(f"G AND 0 {w - 1}\n" for w in range(5, 103))
        lines = gates.splitlines()
        lines[4] = "G AND 0 99"  # gate 5 reads a wire that does not exist yet
        lines[97] = "G AND zero 1"  # line 99: not a number
        text = "MCIRC 1 2\n" + "\n".join(lines) + "\nOUT 5\n"
        with pytest.raises(mr.InvalidReferenceError, match=r"^gate references missing wire \(0, 99\)$"):
            mr.circuit_from_text(text)
        assert_same_verdict(text)

    def test_accepted_layouts_stay_on_the_bulk_path(self, monkeypatch):
        calls = []
        read_record = circuit_module._read_record
        monkeypatch.setattr(
            circuit_module, "_read_record", lambda *args: calls.append(args[1]) or read_record(*args)
        )
        layouts = ["G AND {} {}", "G\tOR  +{}\t{} ", " G OR 0{}\x1f+0{} ", "G\x1fAND {}\t\t+0{}"]
        body = [layouts[g % 4].format(g % 5, g + 4) for g in range(1000)]
        for newline in ("\n", "\r\n", "\r", "\x0b", "\x1e"):
            text = newline.join(["MCIRC 1 2"] + body + ["OUT 1004"]) + newline
            calls.clear()
            assert_same_verdict(text)
            assert calls == [1002, 1002]  # only the OUT line, once per parse of str and bytes
            assert mr.circuit_from_text(text).gate_count == 1000

    def test_fault_beyond_the_first_band(self):
        gates = (1 << 18) + 5
        text = "MCIRC 1 1\n" + "G OR 0 1\n" * gates + "G OR 0 1 \n" + "G OR 0 x\n" + "OUT 2\n"
        with pytest.raises(mr.InvalidParameterError, match=f"^line {gates + 3}: bad integer 'x'$"):
            mr.circuit_from_text(text)


def banded_text(gates):
    """The text of a circuit on 2 vertices whose gate g, on line g + 2, reads
    wires g % 5 and g + 4."""
    body = "".join(f"G {'OR' if g % 3 else 'AND'} {g % 5} {g + 4}\n" for g in range(gates))
    return f"MCIRC 1 2\n{body}OUT {gates + 4}\n"


class TestReadBands:
    """The reader parses _READ_BAND gate lines at a time.  Its first band
    starts after the header, so band b ends at line 1 + b * _READ_BAND."""

    def test_a_whole_number_of_bands_reads_as_the_reference(self):
        gates = 2 * circuit_module._READ_BAND
        text = banded_text(gates)
        assert_same_verdict(text)
        assert mr.circuit_from_text(text).gate_count == gates

    @pytest.mark.parametrize("edge", [0, 1], ids=["last line of a band", "first line of the next"])
    @pytest.mark.parametrize(
        "fault, message",
        [("G OR 0 x", "bad integer 'x'"), ("G NOR 0 1", "bad gate line 'G NOR 0 1'"), ("GATE OR 0 1", "unknown record 'GATE'")],
    )
    def test_fault_at_a_band_edge_names_its_line(self, edge, fault, message):
        ln = 1 + circuit_module._READ_BAND + edge
        lines = banded_text(2 * circuit_module._READ_BAND).splitlines()
        lines[ln - 1] = fault
        text = "\n".join(lines) + "\n"
        with pytest.raises(mr.InvalidParameterError, match=f"^line {ln}: {message}$"):
            mr.circuit_from_text(text)
        assert_same_verdict(text)

    @pytest.mark.parametrize("band", [1, 2, 3])
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_text_same_verdict_in_tiny_bands(self, band, data):
        with mock.patch.object(circuit_module, "_READ_BAND", band):
            assert_same_verdict(mutated_text(data.draw))


@pytest.fixture(scope="module")
def block_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks")


class TestBlocks:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_text_same_verdict_in_blocks(self, block_dir, data):
        assert_same_verdict_in_blocks(mutated_text(data.draw), block_dir)

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases_same_verdict_in_blocks(self, text, block_dir):
        assert_same_verdict_in_blocks(text, block_dir)

    def test_crlf_split_at_every_block_edge(self, tmp_path):
        text = "MCIRC 1 2\r\nG AND 0 1\r\nG OR 5 2\r\nOUT 6\r\n"
        path = tmp_path / "crlf.mc"
        path.write_bytes(text.encode())
        want = arrays(mr.circuit_from_text(text))
        for size in range(1, len(text) + 1):
            with mock.patch.object(circuit_module, "_READ_BLOCK", size):
                assert arrays(mr.read_circuit(path)) == want, size
        # A "\r" at the end of input is a whole line break.
        with mock.patch.object(circuit_module, "_READ_BLOCK", 2):
            assert outcome(mr.circuit_from_text, "MCIRC 1 2\r\n\r") == outcome(mr.circuit_from_text, "MCIRC 1 2\r\n\r\n")

    def test_line_longer_than_a_block(self, tmp_path):
        text = "MCIRC 1 2\nG AND " + "0" * 150 + "3 " + " " * 300 + "1\nOUT 5\n"
        assert gate_of(mr.circuit_from_text(text), 0) == (AND, 3, 1)
        assert_same_verdict_in_blocks(text, tmp_path)

    def test_out_line_and_faults_in_a_later_block(self, tmp_path):
        lines = ["MCIRC 1 2"] + [f"G OR {w - 1} {w % 4}" for w in range(5, 205)] + ["OUT 204"]
        good = "\n".join(lines) + "\n"
        assert mr.circuit_from_text(good).gate_count == 200
        assert_same_verdict_in_blocks(good, tmp_path)

        def with_lines(changed):  # {line number: new text}
            return "\n".join(changed.get(ln, line) for ln, line in enumerate(lines, start=1)) + "\n"

        for bad, message in (
            (good + "G OR 0 1\n", "^line 203: gate after OUT line$"),
            (with_lines({150: "G OR 150 x"}), "^line 150: bad integer 'x'$"),
            (with_lines({150: "G OR 150 \u0663"}), "^line 150: non-ASCII byte"),
            (with_lines({150: "G OR 150 \u0663", 96: ""}), "^line 96: blank line"),
        ):
            with pytest.raises(mr.InvalidParameterError, match=message):
                mr.circuit_from_text(bad)
            assert_same_verdict_in_blocks(bad, tmp_path)

    def test_binary_file_and_buffers(self):
        text = "MCIRC 1 2\nG AND 0 1\nOUT 5\n"
        want = arrays(mr.circuit_from_text(text))
        for source in (io.BytesIO(text.encode()), bytearray(text.encode()), memoryview(text.encode())):
            assert arrays(mr.circuit_from_text(source)) == want

    def test_read_circuit_parses_through_circuit_from_text(self, tmp_path, monkeypatch):
        # Tracing wraps circuit_from_text by name to time the parse.
        path = tmp_path / "c.mc"
        path.write_text("MCIRC 1 2\nOUT 0\n")
        sources = []
        parse = circuit_module.circuit_from_text
        monkeypatch.setattr(circuit_module, "circuit_from_text", lambda src: sources.append(src) or parse(src))
        assert mr.read_circuit(path).outputs == [0]
        assert len(sources) == 1 and sources[0].name == str(path)


# Gates of the circuits the memory tests build, and the vertex count of the
# file the read test parses: every wire id of a circuit on 40,000 vertices
# has ten digits.
MEMORY_GATES = 2_000_000
MEMORY_VERTICES = 40_000


@pytest.fixture(scope="module")
def big_circuit_file(tmp_path_factory):
    """An MCIRC file of MEMORY_GATES gates over wires of ten digits, and the
    bytes of its gate arrays."""
    c = mr.MonotoneCircuit(MEMORY_VERTICES)
    rng = np.random.default_rng(5)
    wires = c.num_wires + np.arange(MEMORY_GATES)
    lefts = rng.integers(10**9, wires).astype(np.intc)
    rights = (wires - 1 - rng.integers(0, 1000, MEMORY_GATES)).astype(np.intc)
    c.append_gates(rng.integers(0, 2, MEMORY_GATES, dtype=np.uint8), lefts, rights)
    c.set_outputs([c.num_wires - 1])
    path = tmp_path_factory.mktemp("memory") / "big.mc"
    mr.write_circuit(c, path)
    return path, arrays(c)


def traced_read(path):
    """read_circuit(path), and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        c = mr.read_circuit(path)
        return c, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReadMemory:
    def test_peak_is_the_arrays_plus_a_few_blocks(self, big_circuit_file):
        path, want = big_circuit_file
        c, peak = traced_read(path)
        assert arrays(c) == want
        held = sys.getsizeof(c._ops) + sys.getsizeof(c._lefts) + sys.getsizeof(c._rights)
        bound = held + 4 * circuit_module._READ_BLOCK
        assert bound < 0.7 * path.stat().st_size
        assert peak < bound, (peak, held)

    def test_theorem_text_peak_is_its_lines_and_one_band(self):
        text = circuit_to_text(build_recursive(16, 12, 0)[0]).encode()
        c = mr.circuit_from_text(text)
        held = sys.getsizeof(c._ops) + sys.getsizeof(c._lefts) + sys.getsizeof(c._rights)
        # The block of text read, the int64 bounds of its lines, the
        # circuit's arrays, and the temporaries of one band of lines, about
        # 250 bytes a line.  Bands of 2**15 lines peaked at 9.3 MiB.
        bound = len(text) + 16 * (c.gate_count + 2) + held + 256 * circuit_module._READ_BAND
        assert bound < 6 * 2**20
        assert traced_peak(lambda: mr.circuit_from_text(text)) < bound


@pytest.fixture(scope="module")
def sum_of_products():
    """About MEMORY_GATES gates on 8 vertices, shaped like a walk product:
    OR trees of 32 leaves each, three in four of them new AND gates over
    two earlier roots or inputs, the rest such wires read as they are."""
    c = mr.MonotoneCircuit(8)
    rng = np.random.default_rng(11)
    wires = np.arange(c.num_inputs)
    while c.gate_count < MEMORY_GATES:
        leaves = rng.choice(wires, (256, 32))
        ands = rng.random((256, 32)) < 0.75
        leaves[ands] = c._emit_bulk(AND, leaves[ands], rng.choice(wires, np.count_nonzero(ands)))
        wires = np.concatenate((wires, c.or_reduce_columns(leaves)))
    c.set_outputs([c.num_wires - 1])
    return c


def traced_peak(call):
    """The peak of memory traced while call() ran."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScanMemory:
    """Depth scans, live-gate walks and evaluation plans hold arrays of int32
    or smaller with one entry per gate, and temporaries of one band of
    SCAN_BAND gates."""

    def test_depths_hold_their_int32_depths_and_a_few_bands(self, sum_of_products):
        c = sum_of_products
        band = 64 * circuit_module.SCAN_BAND
        c._depths_cache = None
        assert traced_peak(c.depth) < 4 * c.gate_count + band
        # wire_depths copies the gate depths after the inputs' zeros.
        c._depths_cache = None
        assert traced_peak(c.wire_depths) < 4 * c.gate_count + 4 * c.num_wires + band

    def test_live_gates_hold_their_bools_and_a_few_bands(self, sum_of_products):
        c = sum_of_products
        assert traced_peak(c.live_gates) < c.gate_count + 64 * circuit_module.SCAN_BAND

    def test_plan_holds_a_few_bytes_per_gate(self, sum_of_products):
        c = sum_of_products
        c._plan_cache = None
        # The first and last readers in _folds take 8 bytes per gate, its
        # joins one more; the plan's AND leaf pairs alone take 8 bytes per
        # AND gate.
        peak = traced_peak(c._plan)
        assert c.eval_steps() < c.gate_count / 50  # one step per OR tree of some 55 gates
        assert peak < 12 * c.gate_count + 64 * circuit_module.SCAN_BAND, peak / c.gate_count


class TestBlankLines:
    def test_blank_line_rejected(self):
        for text, line in (("MCIRC 1 2\n\nOUT 0\n", 2), ("MCIRC 1 2\nOUT 0\n \t\n", 3)):
            with pytest.raises(mr.InvalidParameterError, match=f"^line {line}: blank line in circuit file$"):
                mr.circuit_from_text(text)

    def test_final_newline_is_not_a_blank_line(self):
        assert arrays(mr.circuit_from_text("MCIRC 1 2\nOUT 0\n")) == arrays(mr.circuit_from_text("MCIRC 1 2\nOUT 0"))


class TestNarrowing:
    def test_digit_separator_rejected_with_line(self):
        with pytest.raises(mr.InvalidParameterError, match=r"^line 2: bad integer '1_0'$"):
            mr.circuit_from_text("MCIRC 1 4\nG AND 1_0 1\nOUT 17\n")
        with pytest.raises(mr.InvalidParameterError, match=r"^line 1: bad integer '1_0'$"):
            mr.circuit_from_text("MCIRC 1 1_0\nOUT 0\n")

    @pytest.mark.parametrize("text", ["MCIRC 1 2\nG AND \u0663 1\nOUT 5\n", "MCIRC 1 2\nG\u00a0AND 0 1\nOUT 5\n"])
    def test_non_ascii_rejected_with_line(self, text):
        with pytest.raises(mr.InvalidParameterError, match=r"^line 2: non-ASCII byte"):
            mr.circuit_from_text(text)
        with pytest.raises(mr.InvalidParameterError, match=r"^line 2: non-ASCII byte"):
            mr.circuit_from_text(text.encode())

    def test_earlier_fault_beats_non_ascii(self):
        with pytest.raises(mr.InvalidParameterError, match=r"^line 2: blank line"):
            mr.circuit_from_text("MCIRC 1 2\n\nG AND \u0663 1\nOUT 5\n")


class TestWireIdLimit:
    def test_header_beyond_int32_rejected(self):
        with pytest.raises(mr.InvalidParameterError, match=r"^line 1: 1000000 vertices"):
            mr.circuit_from_text("MCIRC 1 1000000\nOUT 0\n")
        with pytest.raises(mr.InvalidParameterError, match=r"^line 1: 46341 vertices"):
            mr.circuit_from_text("MCIRC 1 46341\nOUT 0\n")

    def test_gates_up_to_the_limit(self):
        n = 46340
        n0 = n * n + 1
        room = MAX_WIRES - n0
        text = "MCIRC 1 46340\n" + "G AND 0 1\n" * room + f"OUT {MAX_WIRES - 1}\n"
        c = mr.circuit_from_text(text)
        assert c.num_wires == MAX_WIRES
        assert c.depth() == 1
        with pytest.raises(mr.InvalidParameterError, match=f"^line {room + 2}: a circuit has at most"):
            mr.circuit_from_text(text.replace("OUT", "G AND 0 1\nOUT"))


    def test_append_stops_at_the_limit(self):
        c = mr.MonotoneCircuit(46340)
        room = MAX_WIRES - c.num_wires
        c.append_gates(np.zeros(room, dtype=np.uint8), np.zeros(room, dtype=np.int64), np.ones(room, dtype=np.int64))
        assert c.num_wires == MAX_WIRES
        with pytest.raises(mr.InvalidParameterError, match=f"^a circuit has at most {MAX_WIRES} wires$"):
            c.add_gate(AND, 0, MAX_WIRES - 1)
        with pytest.raises(mr.InvalidParameterError, match=f"^a circuit has at most {MAX_WIRES} wires$"):
            mr.MonotoneCircuit(46341).add_gate(AND, 0, 1)
        assert c.num_wires == MAX_WIRES


# Wire ids at the edges of a digit or a 4-digit group, and the largest.
BOUNDARY_IDS = [0, 9, 10, 9_999, 10_000, 99_999_999, 100_000_000, MAX_WIRES - 1]


def reference_gate_lines(ops, lefts, rights):
    """The gate lines of a band, formatted one line at a time in Python."""
    return "".join(f"G {'AND' if op == AND else 'OR'} {a} {b}\n" for op, a, b in zip(ops, lefts, rights)).encode()


@st.composite
def gate_band(draw):
    """(ops, lefts, rights) of a band whose largest operand has 1, 2 or 3
    groups of 4 digits, with operands at group and digit boundaries."""
    groups = draw(st.integers(1, 3))
    low = 0 if groups == 1 else 10 ** (4 * groups - 4)
    high = min(10 ** (4 * groups) - 1, MAX_WIRES - 1)
    wire = st.one_of(st.sampled_from([v for v in BOUNDARY_IDS if v <= high]), st.integers(0, high))
    size = draw(st.integers(1, 40))
    ops = draw(st.lists(st.sampled_from([AND, OR]), min_size=size, max_size=size))
    operands = draw(st.lists(wire, min_size=2 * size, max_size=2 * size))
    operands[draw(st.integers(0, 2 * size - 1))] = draw(st.integers(low, high))
    return (
        np.array(ops, dtype=np.uint8),
        np.array(operands[:size], dtype=np.intc),
        np.array(operands[size:], dtype=np.intc),
    )


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(gate_band())
    def test_gate_lines_match_the_reference(self, band):
        assert bytes(circuit_module._gate_lines(*band)) == reference_gate_lines(*band)

    def test_round_trip_at_every_digit_boundary(self):
        # n = 46340 puts every input id below 10**9 and the zero wire at 2147395600.
        c = mr.MonotoneCircuit(46340)
        ids = [0] + [v for k in range(1, 10) for v in (10**k - 1, 10**k)] + [c.zero]
        for i, a in enumerate(ids):
            c.add_gate(OR if i % 2 else AND, a, ids[-1 - i])
        c.add_gate(AND, c.num_wires - 1, c.num_wires - 2)
        c.set_outputs([c.num_wires - 1, 9, 10])
        text = circuit_to_text(c)
        for a in ids:
            assert f" {a} " in text or f" {a}\n" in text
        back = mr.circuit_from_text(text)
        assert arrays(back) == arrays(c)
        assert circuit_to_text(back) == text

    @pytest.mark.parametrize("gates", [0, 1, 5, (1 << 18) + 3])
    def test_file_bytes_equal_text(self, tmp_path, gates):
        c = mr.MonotoneCircuit(2)
        g = np.arange(gates)  # gate g is wire 5 + g, over wires g and 4 + g
        c.append_gates(g % 2, g, g + 4)
        c.set_outputs([c.num_wires - 1])
        path = tmp_path / "c.mc"
        mr.write_circuit(c, path)
        text = circuit_to_text(c)
        assert path.read_bytes() == text.encode()
        assert text == "MCIRC 1 2\n" + "".join(
            f"G {'OR' if op else 'AND'} {a} {b}\n" for op, a, b in zip(c._ops, c._lefts, c._rights)
        ) + f"OUT {c.num_wires - 1}\n"
        assert arrays(mr.read_circuit(path)) == arrays(c)
