import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from avmodels import aut
from avmodels.aut import AutFormatError, _parse_label, export_aut, import_aut
from avmodels.kernel import Action, Lts
from avmodels.values import Nat, Pos, Sym

from oracles import import_aut_lines, lts_from_triples, random_lts, sorted_rows_aut

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def roundtrip(lts):
    buf = io.StringIO()
    export_aut(lts, buf)
    return import_aut(io.StringIO(buf.getvalue()))


def test_export_golden_bytes():
    lts = lts_from_triples(3, 0, (
        (1, Action("TICK"), 2),
        (0, Action("CAR_MOVE", (Sym("brakes"),)), 1),
        (0, Action("UPDATE_POSITION", (Pos(1, 2),)), 0),
    ))
    buf = io.StringIO()
    export_aut(lts, buf)
    assert buf.getvalue() == (
        'des (0, 3, 3)\n'
        '(0, "CAR_MOVE !brakes", 1)\n'
        '(0, "UPDATE_POSITION !Position(1,2)", 0)\n'
        '(1, "TICK", 2)\n'
    )


def test_roundtrip_preserves_structure_and_labels():
    lts = lts_from_triples(4, 1, (
        (1, Action("g", (Nat(0), Nat(1))), 2),
        (2, Action("i"), 3),
        (3, Action("STOP"), 0),
    ))
    back = roundtrip(lts)
    assert back.num_states == 4
    assert back.initial == 1
    assert sorted((s, a.text(), d) for s, a, d in back.transitions) == \
           sorted((s, a.text(), d) for s, a, d in lts.transitions)
    # parsed labels are structured again, not opaque strings
    acts = {a.text(): a for _, a, _ in back.transitions}
    assert acts["g !0 !1"].offers == (Nat(0), Nat(1))


def test_import_accepts_opaque_labels():
    src = 'des (0, 1, 2)\n(0, "not !a value, just text", 1)\n'
    lts = import_aut(io.StringIO(src))
    (s, a, d), = lts.transitions
    assert a.gate == "not !a value, just text"
    assert a.offers == ()
    # and such labels survive a round trip unchanged
    buf = io.StringIO()
    export_aut(lts, buf)
    assert buf.getvalue() == src


def test_import_rejects_bad_header():
    with pytest.raises(AutFormatError) as exc:
        import_aut(io.StringIO("res (0, 1, 2)\n"))
    assert exc.value.line == 1


def test_import_rejects_bad_transition_line():
    src = 'des (0, 2, 2)\n(0, "a", 1)\n(0 "b" 1)\n'
    with pytest.raises(AutFormatError) as exc:
        import_aut(io.StringIO(src))
    assert exc.value.line == 3


def test_import_rejects_out_of_range_states():
    src = 'des (0, 1, 2)\n(0, "a", 5)\n'
    with pytest.raises(AutFormatError):
        import_aut(io.StringIO(src))
    src2 = 'des (9, 0, 2)\n'
    with pytest.raises(AutFormatError):
        import_aut(io.StringIO(src2))


def test_import_rejects_more_states_than_the_transitions_can_name():
    # one transition and the initial state name at most 3 states
    assert import_aut(io.StringIO('des (0, 1, 3)\n(1, "a", 2)\n')).num_states == 3
    with pytest.raises(AutFormatError, match="4 states") as exc:
        import_aut(io.StringIO('des (0, 1, 4)\n(1, "a", 2)\n'))
    assert exc.value.line == 1


@pytest.mark.parametrize("text", [
    'des (0, 1073741824, 2147483649)\n(0, "a", 2147483648)\n',
    'des (0, 1073741824, 2147483649)\n(0,  "a", 2147483648)\n',
], ids=["exported", "loose"])
def test_a_state_count_past_array_i_is_a_format_error_at_the_header(text):
    # 2147483648 is in range for the header but does not fit an array('i') item
    for source in (io.StringIO(text), io.BytesIO(text.encode("ascii"))):
        with pytest.raises(AutFormatError, match="2147483649 states") as exc:
            import_aut(source)
        assert exc.value.line == 1


def test_import_rejects_count_mismatch():
    src = 'des (0, 2, 2)\n(0, "a", 1)\n'
    with pytest.raises(AutFormatError):
        import_aut(io.StringIO(src))


def test_export_rejects_unprintable_labels():
    lts = lts_from_triples(2, 0, ((0, Action('with"quote'), 1),))
    with pytest.raises(ValueError):
        export_aut(lts, io.StringIO())


@pytest.mark.parametrize("lts", [
    lts_from_triples(0, 0, ()), lts_from_triples(2, 0, ()),
    lts_from_triples(3, 5, ((0, Action("a"), 1),)),
], ids=["no-states", "more-than-2T+1-states", "initial-past-the-last"])
@pytest.mark.parametrize("sink", [io.StringIO, io.BytesIO])
def test_export_refuses_a_header_import_refuses_and_writes_nothing(lts, sink):
    sink = sink()
    with pytest.raises(ValueError, match="header not representable"):
        export_aut(lts, sink)
    assert not sink.getvalue()


@pytest.mark.parametrize("lines", [1, 2, 7])
def test_export_in_chunks_of_any_size_writes_the_same_bytes(monkeypatch, lines):
    # each chunk holds whole states, found on the offsets, where states with
    # no transitions repeat their successor's offset, and one state of each
    # Lts has more transitions than a chunk holds
    rng = random.Random(lines)
    labels = [Action(g) for g in "abc"] + [Action("G", (Nat(k),)) for k in (2, 10)]
    cases = []
    for _ in range(60):
        n = rng.randint(1, 12)
        triples = [(s, rng.choice(labels), rng.randrange(n))
                   for s in range(n) for _ in range(rng.choice((0, 0, 1, 3)))]
        wide = rng.randrange(n)
        triples += [(wide, rng.choice(labels), rng.randrange(n)) for _ in range(8)]
        rng.shuffle(triples)
        lts = lts_from_triples(n, rng.randrange(n), triples)
        buf = io.BytesIO()
        export_aut(lts, buf)
        cases.append((lts, triples, buf.getvalue()))
    assert any(lts.offsets[s] == lts.offsets[s + 1] < len(lts.dst)
               for lts, _, _ in cases for s in range(lts.num_states))
    monkeypatch.setattr(aut, "_WRITE_LINES", lines)
    for lts, triples, default in cases:
        buf = io.BytesIO()
        export_aut(lts, buf)
        assert buf.getvalue() == default == sorted_rows_aut(lts.num_states, lts.initial, triples)


LONG = "1" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("text, line", [
    (f"des (0, 1, {LONG})\n(0, \"a\", 1)\n", 1),
    (f"des (0,  1, {LONG})\n(0, \"a\", 1)\n", 1),
    (f'des (0, 1, 2)\n({LONG}, "a", 1)\n', 2),
    (f'des (0, 1, 2)\n(0, "a", {LONG})\n', 2),
], ids=["exported-header", "loose-header", "source", "target"])
def test_a_number_past_the_int_digit_limit_is_a_format_error_at_its_line(text, line):
    with pytest.raises(AutFormatError, match="Exceeds the limit") as exc:
        import_aut(io.BytesIO(text.encode("ascii")))
    with pytest.raises(AutFormatError) as ref:
        import_aut_lines(text)
    assert (str(exc.value), exc.value.line) == (str(ref.value), ref.value.line)
    assert exc.value.line == line


def test_a_label_with_a_natural_past_the_int_digit_limit_is_opaque():
    src = f'des (0, 1, 2)\n(0, "G !{LONG}", 1)\n'
    (_, act, _), = import_aut(io.StringIO(src)).transitions
    assert act == Action(f"G !{LONG}")


def test_empty_lts_roundtrip():
    lts = lts_from_triples(1, 0, ())
    back = roundtrip(lts)
    assert back.num_states == 1
    assert back.transitions == ()


def test_import_reports_the_line_of_the_first_non_ascii_byte(monkeypatch):
    src = 'des (0, 2, 2)\n(0, "a", 1)\n(1, "caf\u00e9", 0)\n'.encode("utf-8")
    with pytest.raises(AutFormatError) as exc:
        import_aut(io.BytesIO(src))
    assert exc.value.line == 3
    assert "not ascii" in str(exc.value)
    with pytest.raises(AutFormatError) as exc:
        import_aut(io.BytesIO(b"des (0, 0, 1)\n\xd9"))
    assert exc.value.line == 2
    # lines that end without a \n, read in chunks before the byte's own
    monkeypatch.setattr(aut, "_READ_CHUNK", 7)
    with pytest.raises(AutFormatError) as exc:
        import_aut(io.BytesIO(src.replace(b"\n", b"\x0b")))
    assert exc.value.line == 3


@pytest.mark.parametrize("text, line", [
    ('des (0, 1, 2)\n(0, "\u00e9", 1)\n', 2),
    ('des (0, 2, 3)\n(0, "a", 1)\n(1, "caf\u00e9", 2)\n', 3),
    ('des (0, 2, 3)\n(0,  "a", 1)\n(1, "a\u00e9", 2)\n', 3),
    ('des (0, 2, 3)\x0c(0, "a", 1)\x0c(1, "caf\u00e9", 2)\x0c', 3),
    ('des (0, 1, 2)\n(0,\u00a0"a", 1)\n', 2),
    ('des (0, 1, 2)\u2028(0, "a", 1)\n', 1),
    ('des\u3000(0, 1, 2)\n(0, "a", 1)\n', 1),
], ids=["exported", "later-line", "loose", "ff", "nbsp-spacing", "line-separator",
        "ideographic-space"])
def test_a_non_ascii_label_in_a_text_stream_is_refused_at_its_line(text, line):
    # export_aut cannot write such a text; a text stream is refused at the
    # first character past ASCII, labels, spacing and line ends alike, as
    # the per-line reader refuses it, and the same text read as bytes is
    # refused at the same line
    with pytest.raises(AutFormatError, match="not ascii") as exc:
        import_aut(io.StringIO(text))
    with pytest.raises(AutFormatError) as ref:
        import_aut_lines(text)
    assert (str(exc.value), exc.value.line) == (str(ref.value), line)
    with pytest.raises(AutFormatError, match="not ascii") as exc:
        import_aut(io.BytesIO(text.encode("utf-8")))
    assert exc.value.line == line


def test_equal_label_texts_share_one_action():
    src = ('des (0, 4, 3)\n(0, "CAR_MOVE !brakes", 1)\n(1, "CAR_MOVE !brakes", 2)\n'
           '(2, "opaque text", 0)\n(0, "opaque text", 2)\n')
    # the Lts sorts the transitions by source, stably
    (_, a, _), (_, d, _), (_, b, _), (_, c, _) = import_aut(io.StringIO(src)).transitions
    assert a is b and c is d
    assert a == Action("CAR_MOVE", (Sym("brakes"),))


def test_only_the_canonical_spelling_is_structured():
    src = 'des (0, 2, 2)\n(0, "G !7", 1)\n(1, "G !007", 0)\n'
    (_, canonical, _), (_, other, _) = import_aut(io.StringIO(src)).transitions
    assert canonical == Action("G", (Nat(7),))
    assert other == Action("G !007")  # opaque: the whole text is the gate


def reference_import(text: str) -> Lts:
    """import_aut without the shared-label table: one _parse_label per line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    initial, ntrans, nstates = (int(x) for x in lines[0][5:-1].split(","))
    transitions = []
    for line in lines[1:]:
        first, last = line.index('"'), line.rindex('"')
        transitions.append((int(line[1:first].rstrip(" ,")), _parse_label(line[first + 1:last]),
                            int(line[last + 1:].strip(" ,)"))))
    assert len(transitions) == ntrans
    return lts_from_triples(nstates, initial, tuple(transitions))


LABELS = ("a", "G !7", "G !007", "G !7 !7", "CAR_MOVE !brakes", "CAR_MOVE !turned_n(1)",
          "UPDATE_POSITION !A_bis", "UPDATE_POSITION !Position(1,2)", "not !a value", "i")


@pytest.mark.parametrize("name", ["control_tiny", "grid_tiny", "grid_random_car"])
def test_import_matches_a_per_line_parse_on_the_goldens(name):
    text = (GOLDEN / f"{name}.aut").read_text(encoding="ascii")
    assert import_aut(io.StringIO(text)) == reference_import(text)


def export_random(lts: Lts, sink) -> bool:
    """Export a random_lts draw into sink; False, with sink left empty, for a
    draw with more than 2T + 1 states, whose header export refuses as
    import_aut would."""
    if lts.num_states <= 2 * len(lts.transitions) + 1:
        export_aut(lts, sink)
        return True
    with pytest.raises(ValueError, match="header not representable"):
        export_aut(lts, sink)
    assert not sink.getvalue()
    return False


def test_import_matches_a_per_line_parse_on_random_ltss():
    rng = random.Random(11)
    for _ in range(60):
        buf = io.StringIO()
        if not export_random(random_lts(rng, max_states=40, labels=LABELS), buf):
            continue
        text = buf.getvalue()
        assert import_aut(io.StringIO(text)) == reference_import(text)


def read_or_error(read):
    try:
        return read()
    except AutFormatError as e:
        return str(e), e.line


def layouts(text: str) -> dict:
    """text as exported, with two spaces after each comma, with CRLF line
    ends, with CR line ends, with a vertical tab before each \n, which ends
    a line too, and with form feed line ends."""
    return {"exported": text, "loose": text.replace(", ", ",  "),
            "crlf": text.replace("\n", "\r\n"), "cr": text.replace("\n", "\r"),
            "vt": text.replace("\n", "\x0b\n"), "ff": text.replace("\n", "\x0c")}


@pytest.mark.parametrize("chunk", [7, 64])
def test_import_matches_a_per_line_parse_across_chunk_cuts(monkeypatch, chunk):
    # small chunks cut each file many times, after every kind of line, and
    # between the \r and the \n of a CRLF line end; loose, CRLF and CR chunks
    # are read line by line, with the line count carried from chunk to chunk
    monkeypatch.setattr(aut, "_READ_CHUNK", chunk)
    rng = random.Random(12)
    refused = 0
    for _ in range(60):
        buf = io.StringIO()
        if not export_random(random_lts(rng, max_states=40, labels=LABELS), buf):
            refused += 1
            continue
        for text in layouts(buf.getvalue()).values():
            expected = import_aut_lines(text)
            assert import_aut(io.StringIO(text)) == expected
            assert import_aut(io.BytesIO(text.encode("ascii"))) == expected
            # one transition too many: the count error names the last line
            extra = text + '(0, "a", 0)\n'
            assert read_or_error(lambda: import_aut(io.StringIO(extra))) == \
                read_or_error(lambda: import_aut_lines(extra))
    assert refused  # these draws include Ltss whose header export refuses


CANONICAL = ('des (0, 4, 3)\n(0, "CAR_MOVE !brakes", 1)\n(1, "not !a value", 2)\n'
             '(2, "G !7", 0)\n(2, "", 2)\n')


@pytest.mark.parametrize("text", [
    CANONICAL.replace(", ", ",\t"),
    CANONICAL.replace("(", "( ").replace(")", " ) "),
    CANONICAL.replace(", ", " ,  "),
    CANONICAL.replace("\n", "\n\n"),
    CANONICAL.replace("\n", "\n \t\n", 2),
    CANONICAL.replace("\n", "\r\n"),
    CANONICAL.replace("\n", "\x0b"),
    CANONICAL.replace("\n", "\x0c"),
    CANONICAL.replace("\n", "\x1c"),
    CANONICAL.rstrip("\n"),
    CANONICAL.replace("des (0, 4, 3)", "des (0,4,3)"),
], ids=["tabs", "spaces-in-parens", "spaces-around-commas", "blank-lines",
        "whitespace-line", "crlf", "x0b", "x0c", "x1c", "no-final-newline",
        "tight-header"])
def test_other_layouts_take_the_per_line_path_and_parse_the_same(text):
    canonical = import_aut(io.StringIO(CANONICAL))
    assert import_aut_lines(CANONICAL) == canonical
    assert import_aut(io.StringIO(text)) == canonical
    assert import_aut(io.BytesIO(text.encode("ascii"))) == canonical


@pytest.mark.parametrize("text", [
    'des (0, 2, 4)\n(0, "a", 1)2\n(, "b", 3)\n',
    'des (0, 1, 2)\n(, 0"a", 1)\n',
    'des (0, 1, 2)\n1(, "a", 1)\n',
    'des (0, 1, 2)\n(0, "a", 1)\n"x',
], ids=["digit-after-line", "digit-after-comma", "digit-before-paren", "open-quote-at-end"])
def test_digits_or_quotes_out_of_place_take_the_per_line_path_and_fail_the_same(text):
    # each skeleton has the exported punctuation and the right number of
    # digit runs, but not each run in its slot
    with pytest.raises(AutFormatError) as exc:
        import_aut(io.StringIO(text))
    with pytest.raises(AutFormatError) as ref:
        import_aut_lines(text)
    assert (str(exc.value), exc.value.line) == (str(ref.value), ref.value.line)


@pytest.mark.parametrize("text, line", [
    ("des (0, 0, ١)\n", 1),
    ('des (0, 1, 2)\n(٠, "a", 1)\n', 2),
    ('des (0, 1, 2)\n(0, "a", ١)\n', 2),
], ids=["header", "source", "target"])
def test_a_non_ascii_digit_in_a_text_stream_is_a_format_error_at_its_line(text, line):
    with pytest.raises(AutFormatError) as exc:
        import_aut(io.StringIO(text))
    assert exc.value.line == line
    with pytest.raises(AutFormatError) as ref:
        import_aut_lines(text)
    assert (str(exc.value), exc.value.line) == (str(ref.value), ref.value.line)


def long_chain(k: int) -> str:
    buf = io.StringIO()
    export_aut(lts_from_triples(k + 1, 0, ((i, Action("CAR_MOVE", (Sym("brakes"),)), i + 1)
                                            for i in range(k))), buf)
    return buf.getvalue()


@pytest.mark.parametrize("line, bad, message", [
    (-5, '(17, "a" 3)', "bad transition"),
    (-1, '(3, "a", 20001)', "state out of range"),  # one past the last state
    (-1, '(3, "x\x0by", 4)', "bad transition"),
])
def test_an_error_past_the_first_chunk_reports_the_per_line_readers_line(line, bad, message):
    lines = long_chain(20000).splitlines(keepends=True)
    assert sum(map(len, lines)) > 2 * aut._READ_CHUNK
    lines[line] = bad + "\n"
    text = "".join(lines)
    with pytest.raises(AutFormatError, match=message) as exc:
        import_aut(io.BytesIO(text.encode("ascii")))
    assert exc.value.line == len(lines) + 1 + line
    with pytest.raises(AutFormatError) as ref:
        import_aut_lines(text)
    assert (str(exc.value), exc.value.line) == (str(ref.value), ref.value.line)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), where=st.integers(0, 2**16),
       edit=st.sampled_from(("replace", "insert", "delete")),
       byte=st.one_of(st.sampled_from(b'0123456789"(), \t\n\r\x0b\x0c\x1c'),
                      st.integers(0, 127)))
def test_a_one_byte_mutation_reads_as_the_per_line_reader_reads_it(seed, where, edit, byte):
    buf = io.BytesIO()
    if not export_random(random_lts(random.Random(seed), max_states=12, labels=LABELS), buf):
        return
    data = bytearray(buf.getvalue())
    at = where % len(data)
    if edit == "delete":
        del data[at]
    elif edit == "insert":
        data.insert(at, byte)
    else:
        data[at] = byte
    text = data.decode("ascii")
    assert read_or_error(lambda: import_aut(io.BytesIO(bytes(data)))) == \
        read_or_error(lambda: import_aut_lines(text))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), digit=st.integers(0, 2**16), to=st.integers(0, 2**16))
def test_a_digit_moved_elsewhere_reads_as_the_per_line_reader_reads_it(seed, digit, to):
    buf = io.BytesIO()
    if not export_random(random_lts(random.Random(seed), max_states=12, labels=LABELS), buf):
        return
    data = bytearray(buf.getvalue())
    digits = [i for i, b in enumerate(data) if chr(b).isdigit()]
    moved = data.pop(digits[digit % len(digits)])
    data.insert(to % (len(data) + 1), moved)
    text = data.decode("ascii")
    assert read_or_error(lambda: import_aut(io.BytesIO(bytes(data)))) == \
        read_or_error(lambda: import_aut_lines(text))


def many_labels_aut(ntrans: int, nlabels: int = 50) -> bytes:
    """An exported .aut of ntrans transitions, two per state, over nlabels labels."""
    buf = io.BytesIO()
    export_aut(lts_from_triples(ntrans // 2 + 1, 0, tuple(
        (k // 2, Action("CAR_MOVE", (Nat(k * 7 % nlabels),)), k // 2 + 1 - k % 2)
        for k in range(ntrans))), buf)
    return buf.getvalue()


READ_LABELS = """
import json, sys
from avmodels.aut import import_aut
with open(sys.argv[1], "rb") as fh:
    lts = import_aut(fh)
print(json.dumps([[a.text() for a in lts.labels], *map(list, (lts.offsets, lts.lab, lts.dst))]))
"""


@pytest.mark.parametrize("layout", ["exported", "crlf"])
def test_label_ids_do_not_depend_on_the_hash_seed(tmp_path, layout):
    data = many_labels_aut(400)
    if layout == "crlf":  # read line by line
        data = data.replace(b"\n", b"\r\n")
    path = tmp_path / "labels.aut"
    path.write_bytes(data)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.append(subprocess.run([sys.executable, "-c", READ_LABELS, str(path)], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    labels, _, lab, _ = json.loads(outputs[0])
    assert len(labels) == 50
    assert labels == [labels[i] for i in dict.fromkeys(lab)]  # ids by first appearance


class Pipe(io.BufferedReader):
    """A binary stream that reads like a pipe: it cannot seek or tell."""

    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data))

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def test_a_stream_that_cannot_seek_reads_as_a_file_does():
    for text in layouts(long_chain(20000)).values():
        assert import_aut(Pipe(text.encode("ascii"))) == import_aut_lines(text)
    bad = 'des (0, 1, 2)\n(0, "a", 2)\n'
    with pytest.raises(AutFormatError, match="state out of range") as exc:
        import_aut(Pipe(bad.encode("ascii")))
    assert exc.value.line == 2


def test_a_bad_line_before_the_first_non_ascii_chunk_is_reported_first():
    lines = long_chain(20000).splitlines(keepends=True)
    lines[1] = '(0, "a" 1)\n'
    lines[-1] = '(19999, "caf\u00e9", 20000)\n'
    data = "".join(lines).encode("utf-8")
    assert data.index(b"\xc3") > aut._READ_CHUNK
    with pytest.raises(AutFormatError, match="bad transition") as exc:
        import_aut(io.BytesIO(data))
    assert exc.value.line == 2
    # without the bad line, the byte is reported at its line and its position
    # in the whole file
    lines[1] = '(0, "a", 1)\n'
    data = "".join(lines).encode("utf-8")
    with pytest.raises(AutFormatError, match="not ascii") as exc:
        import_aut(io.BytesIO(data))
    assert exc.value.line == len(lines)
    position = data.index("\u00e9".encode("utf-8"))
    assert f"byte 0xc3 in position {position}:" in str(exc.value)


def import_peak(source) -> int:
    tracemalloc.start()
    try:
        import_aut(source)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layout", ["exported", "loose", "crlf", "cr", "ff", "pipe"])
def test_import_memory_grows_by_at_most_40_bytes_per_transition(layout):
    def peak(ntrans: int) -> int:
        data = many_labels_aut(ntrans)
        if layout in ("loose", "crlf", "cr", "ff"):
            data = layouts(data.decode("ascii"))[layout].encode("ascii")
        return import_peak(Pipe(data) if layout == "pipe" else io.BytesIO(data))

    assert (peak(80_000) - peak(20_000)) / 60_000 <= 40
