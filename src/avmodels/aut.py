"""Aldebaran (.aut) interchange format.

    des (<initial>, <number of transitions>, <number of states>)
    (<src>, "<label>", <dst>)

One transition per line, sorted ascending by (source, label text, target) on
export so equal LTSs serialize to identical bytes. Labels are written in the
canonical action text form and parsed back into structured actions when they
are canonical; anything else round-trips as an opaque label. Export renders
each label of the Lts's table once; import parses each distinct label text
once, and transitions with equal text share one label id.

Export writes per source. The Lts keeps its transitions grouped by
source, so each run of whole states that holds about _WRITE_LINES
transitions is sorted by (source, rank of the label text, target) and
written as one chunk, with the sources read off the Lts's offsets: the file
never exists whole in memory, as one string or as a list of rows.

Import reads a stream in one pass over chunks of about _READ_CHUNK
characters, each cut at its last \n or \r (or, in a block with neither, at
its last other line break: \x0b, \x0c or \x1c-\x1e), and fills the Lts's
arrays chunk by chunk; it never seeks, so a pipe reads as a file does. A \r
that ends a block waits for the next one, as it may be the first half of a
\r\n. The header line is read with a grammar that accepts any spacing. A
chunk laid out as export writes it is read whole: the quotes split it into
labels and a label-free skeleton, which must be exactly one
`(digits, "", digits)` line per transition. Any other chunk (other spacing,
blank lines, other line breaks, no final newline, a range error) is read one
line at a time with the transition grammar, which accepts any spacing and
reports the first bad line; the line count is carried from chunk to chunk.
The first byte or character that is not ASCII, from a binary or a text
stream alike, is reported at its line when its chunk is read. Label ids
follow the order in which the texts first appear. Import takes a file in any
transition order: the sources are read into a temporary array, and the
transitions are sorted by them once.
"""
from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from typing import IO, Dict, List, Tuple

from . import values
from .kernel import Action, Lts, _by_source, _sources, parse_action

_HEADER_RE = re.compile(r"des\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\)\s*\Z")
_TRANS_RE = re.compile(r"\(\s*([0-9]+)\s*,\s*\"([^\"]*)\"\s*,\s*([0-9]+)\s*\)\s*\Z")
_READ_CHUNK = 1 << 18
_WRITE_LINES = 4096
# exported lines with their labels cut out
_SKELETON_RE = re.compile(r'(?:\([0-9]+, "", [0-9]+\)\n)+')
_NUMBER_SEPARATORS = str.maketrans('(,")\n', "     ")
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e"  # the ASCII line breaks of str.splitlines past \n and \r
_MAX_STATES = 2**31 - 1  # a state number must fit an array('i') item


class AutFormatError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


def export_aut(lts: Lts, sink: IO) -> None:
    """Write lts to a binary or text stream. ASCII only.

    Raises ValueError before writing anything if a label holds a quote or a
    non-ASCII character, or if import_aut would refuse the header: no
    states, an initial state past the last, or more than 2T + 1 states for T
    transitions."""
    nstates, ntrans = lts.num_states, len(lts.dst)
    if not 0 <= lts.initial < nstates <= 2 * ntrans + 1:
        raise ValueError(f"header not representable in aut: initial state {lts.initial}"
                         f" of {nstates} states with {ntrans} transitions")
    texts = [act.text() for act in lts.labels]
    for label in texts:
        if '"' in label or not label.isascii():
            raise ValueError(f"label not representable in aut: {label!r}")
    ordered = sorted(set(texts))
    rank = {label: r for r, label in enumerate(ordered)}
    ranks = [rank[label] for label in texts]  # label id -> rank of its text
    if hasattr(sink, "buffer"):
        sink = sink.buffer  # text wrapper around a binary stream
    header = f"des ({lts.initial}, {ntrans}, {nstates})\n"
    try:
        sink.write(header.encode("ascii"))
        encode = True
    except TypeError:
        sink.write(header)
        encode = False
    offsets, lab, dst = lts.offsets, lts.lab, lts.dst
    rank_of = ranks.__getitem__
    state = start = 0  # the first state and transition not written yet
    while start < ntrans:
        # whole states, up to the one that holds transition start +
        # _WRITE_LINES - 1; the sources ascend, so sorting the rows sorts
        # each source's group
        stop = bisect_left(offsets, start + _WRITE_LINES, state + 1, nstates)
        end = offsets[stop]
        rows = sorted(zip(_sources(offsets, state, stop), map(rank_of, lab[start:end]),
                          dst[start:end]))
        chunk = "".join([f'({s}, "{ordered[r]}", {d})\n' for s, r, d in rows])
        sink.write(chunk.encode("ascii") if encode else chunk)
        state, start = stop, end


def import_aut(source: IO) -> Lts:
    """Read an .aut file in any layout back into an Lts from a binary or
    text stream, in one pass that never seeks.

    Canonical labels become structured actions; other labels stay opaque
    (gate = full label text, no offers). Raises AutFormatError with the
    offending line number on malformed input, non-ASCII bytes or characters,
    count mismatches, and at line 1 when the header promises more than 2T + 1
    states for T transitions, which leaves states no transition names, or
    more states than an array('i') numbers.
    """
    src, lab, dst = array("i"), array("i"), array("i")
    labels: List[Action] = []
    ids: Dict[str, int] = {}  # label text -> its label id
    line = 0  # the lines of the chunks read so far; 0 until the header is read
    offset = 0  # the bytes read before this block
    rest: List[str] = []  # the pieces of the unfinished line read so far
    while True:
        block = source.read(_READ_CHUNK)
        raw = isinstance(block, bytes)
        block = block.decode("latin-1") if raw else block  # one character per byte
        if not block.isascii():
            # the text before the first other character is ASCII; with a
            # stand-in for it appended, its last line is that character's line
            k = next(k for k, c in enumerate(block) if c > "\x7f")
            before = "".join(rest) + block[:k] + "?"
            what = f"decode byte 0x{ord(block[k]):02x}" if raw else \
                f"encode character {ascii(block[k])}"
            raise AutFormatError(f"not ascii: 'ascii' codec can't {what} in position"
                                 f" {offset + k}: ordinal not in range(128)",
                                 line + len(before.splitlines()))
        offset += len(block)
        end = len(block) - block.endswith("\r")  # a last \r may start a \r\n
        cut = max(block.rfind("\n", 0, end), block.rfind("\r", 0, end)) + 1
        if not cut:
            cut = max(map(block.rfind, _OTHER_BREAKS)) + 1
        if block and not cut:
            rest.append(block)
            continue
        text = "".join(rest) + block[:cut]  # at the end, whatever follows the last cut
        rest = [block[cut:]]
        if not line:
            initial, ntrans, nstates, length = _read_header(text)
            text, line = text[length:], 1
        if _read_lines(text, nstates, src, lab, dst, labels, ids):
            line += text.count("\n")
        else:
            line = _read_each_line(text, line, nstates, src, lab, dst, labels, ids)
        if not block:
            break
    if len(src) != ntrans:
        raise AutFormatError(f"header promises {ntrans} transitions, file has {len(src)}", line)
    if nstates < 1 or initial >= nstates:
        raise AutFormatError("initial state out of range", 1)
    offsets, lab, dst = _by_source(nstates, src, lab, dst)
    return Lts.from_arrays(nstates, initial, offsets, lab, dst, tuple(labels))


def _read_header(text: str) -> Tuple[int, int, int, int]:
    """The initial state, transition count and state count of the header
    line that starts text, and the length of that line with its line break."""
    # the first line ends at or before the first \n
    first = text[:text.find("\n") + 1 or None].splitlines(keepends=True)
    if not first:
        raise AutFormatError("empty file", 1)
    m = _HEADER_RE.match(first[0].strip())
    if not m:
        raise AutFormatError(f"bad header {first[0].splitlines()[0]!r}", 1)
    try:
        initial, ntrans, nstates = (int(g) for g in m.groups())
    except ValueError as e:  # more digits than int() converts
        raise AutFormatError(f"bad header: {e}", 1)
    if nstates > 2 * ntrans + 1:
        # T transitions and the initial state name at most 2T + 1 states;
        # trusting a larger count would allocate per-state arrays for it
        raise AutFormatError(
            f"header promises {nstates} states, more than its {ntrans} transitions"
            f" and the initial state can name ({2 * ntrans + 1})", 1)
    if nstates > _MAX_STATES:  # before a state number could overflow an array
        raise AutFormatError(f"header promises {nstates} states, more than array('i') holds", 1)
    return initial, ntrans, nstates, len(first[0])


def _read_lines(text: str, nstates: int, src: array, lab: array, dst: array,
                labels: List[Action], ids: Dict[str, int]) -> bool:
    """Append the transitions of whole exported lines to the arrays; False
    if text is not laid out as export writes it."""
    pieces = text.split('"')
    if len(pieces) % 2 == 0:  # a quote opens a label the text never closes
        return False
    skeleton = '""'.join(pieces[::2])
    if not _SKELETON_RE.fullmatch(skeleton):
        return False
    # the skeleton holds exactly two digit runs per line, one per label
    numbers = skeleton.translate(_NUMBER_SEPARATORS).split()
    try:
        numbers = list(map(int, numbers))
    except ValueError:  # more digits than int() converts
        return False
    if max(numbers) >= nstates:
        return False
    texts = pieces[1::2]
    try:
        label_ids = list(map(ids.__getitem__, texts))
    except KeyError:  # new labels: number them in order of first appearance
        for label in dict.fromkeys(texts):
            if label not in ids:
                if label.splitlines() not in ([], [label]):
                    return False  # a line break inside the quotes
                ids[label] = len(labels)
                labels.append(_parse_label(label))
        label_ids = list(map(ids.__getitem__, texts))
    src.fromlist(numbers[::2])
    lab.fromlist(label_ids)
    dst.fromlist(numbers[1::2])
    return True


def _read_each_line(text: str, line: int, nstates: int, src: array, lab: array,
                    dst: array, labels: List[Action], ids: Dict[str, int]) -> int:
    """Append the transitions of text, read one line at a time in any
    layout, to the arrays; the number of its last line, counting on from
    line. Raises AutFormatError at the first bad line."""
    for line, raw in enumerate(text.splitlines(), start=line + 1):
        m = _TRANS_RE.match(raw.strip())
        if not m:
            if raw.strip():
                raise AutFormatError(f"bad transition {raw!r}", line)
            continue  # a blank line
        s, label, d = m.groups()
        try:
            s, d = int(s), int(d)
        except ValueError as e:  # more digits than int() converts
            raise AutFormatError(f"bad transition: {e}", line)
        if s >= nstates or d >= nstates:
            raise AutFormatError(f"state out of range in {raw!r}", line)
        if label not in ids:
            ids[label] = len(labels)
            labels.append(_parse_label(label))
        src.append(s)
        lab.append(ids[label])
        dst.append(d)
    return line


def _parse_label(label: str) -> Action:
    try:
        act = parse_action(label)
    except values.ValueError_:
        return Action(label, ())
    if act.text() != label:
        return Action(label, ())
    return act
