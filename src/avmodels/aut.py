"""Aldebaran (.aut) interchange format.

    des (<initial>, <number of transitions>, <number of states>)
    (<src>, "<label>", <dst>)

One transition per line, sorted ascending by (source, label text, target) on
export so equal LTSs serialize to identical bytes. Labels are written in the
canonical action text form and parsed back into structured actions when they
are canonical; anything else round-trips as an opaque label. Export writes
each action object's text once; import parses each distinct label text once,
and transitions with equal text share one action.

Export sorts its rows once and writes them in chunks of _WRITE_LINES lines,
so the file never exists whole in memory as one string or line list.

Import reads a file as export writes it in one pass over chunks of about
_READ_CHUNK characters, each cut at a line end: the quotes split a chunk into
labels and a label-free skeleton, which must be exactly one
`(digits, "", digits)` line per transition. Anything else (other spacing,
blank lines, other line breaks, no final newline, a count or range error)
sends the whole text to the per-line reader, which accepts the same files
and reports every error with its line; both readers give equal Lts.
"""
from __future__ import annotations

import re
from typing import IO, Dict, List, Optional, Tuple

from . import values
from .kernel import Action, Lts, parse_action

_HEADER_RE = re.compile(r"des\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\)\s*\Z")
_TRANS_RE = re.compile(r"\(\s*([0-9]+)\s*,\s*\"([^\"]*)\"\s*,\s*([0-9]+)\s*\)\s*\Z")
# the header exactly as export writes it
_EXPORTED_HEADER_RE = re.compile(r"des \(([0-9]+), ([0-9]+), ([0-9]+)\)\Z")
_READ_CHUNK = 1 << 18
_WRITE_LINES = 4096
# exported lines with their labels cut out
_SKELETON_RE = re.compile(r'(?:\([0-9]+, "", [0-9]+\)\n)+')
_NUMBER_SEPARATORS = str.maketrans('(,")\n', "     ")


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
    nstates, ntrans = lts.num_states, len(lts.transitions)
    if not 0 <= lts.initial < nstates <= 2 * ntrans + 1:
        raise ValueError(f"header not representable in aut: initial state {lts.initial}"
                         f" of {nstates} states with {ntrans} transitions")
    rows: List[Tuple[int, str, int]] = []
    # id(action) -> its checked label text; lts keeps every action alive,
    # and an id costs no hashing of offer values
    labels: Dict[int, str] = {}
    for src, act, dst in lts.transitions:
        label = labels.get(id(act))
        if label is None:
            label = labels[id(act)] = act.text()
            if '"' in label or not label.isascii():
                raise ValueError(f"label not representable in aut: {label!r}")
        rows.append((src, label, dst))
    rows.sort()
    if hasattr(sink, "buffer"):
        sink = sink.buffer  # text wrapper around a binary stream
    header = f"des ({lts.initial}, {len(rows)}, {lts.num_states})\n"
    try:
        sink.write(header.encode("ascii"))
        encode = True
    except TypeError:
        sink.write(header)
        encode = False
    for start in range(0, len(rows), _WRITE_LINES):
        chunk = "".join(f'({src}, "{label}", {dst})\n'
                        for src, label, dst in rows[start:start + _WRITE_LINES])
        sink.write(chunk.encode("ascii") if encode else chunk)


def import_aut(source: IO) -> Lts:
    """Read an .aut file back into an Lts.

    Canonical labels become structured actions; other labels stay opaque
    (gate = full label text, no offers). Raises AutFormatError with the
    offending line number on malformed input, non-ASCII bytes or count
    mismatches, and at line 1 when the header promises more than 2T + 1
    states for T transitions, which leaves states no transition names.
    """
    data = source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as e:
            # the text before the first bad byte is ASCII; with a stand-in
            # for the byte appended, its last line is the byte's line
            line = len((data[:e.start].decode("ascii") + "?").splitlines())
            raise AutFormatError(f"not ascii: {e}", line)
    lts = _import_exported(data)
    return lts if lts is not None else _import_lines(data)


def _import_exported(data: str) -> Optional[Lts]:
    """The Lts of a file laid out exactly as export_aut writes it, read in
    chunks; None for any other text, valid or not."""
    end = data.find("\n")
    m = _EXPORTED_HEADER_RE.match(data, 0, end) if end >= 0 else None
    if not m:
        return None
    try:
        initial, ntrans, nstates = (int(g) for g in m.groups())
    except ValueError:  # more digits than int() converts
        return None
    if nstates > 2 * ntrans + 1 or initial >= nstates:
        return None
    transitions: List[Tuple[int, Action, int]] = []
    actions: Dict[str, Action] = {}  # label text -> its action
    pos = end + 1
    while pos < len(data):
        end = data.find("\n", pos + _READ_CHUNK)
        end = len(data) if end < 0 else end + 1
        pieces = data[pos:end].split('"')
        pos = end
        if len(pieces) % 2 == 0:  # a quote opens a label the chunk never closes
            return None
        skeleton = '""'.join(pieces[::2])
        if not _SKELETON_RE.fullmatch(skeleton):
            return None
        # the skeleton holds exactly two digit runs per line, one per label
        numbers = skeleton.translate(_NUMBER_SEPARATORS).split()
        try:
            numbers = list(map(int, numbers))
        except ValueError:  # more digits than int() converts
            return None
        if max(numbers) >= nstates:
            return None
        labels = pieces[1::2]
        for label in set(labels).difference(actions):
            if label.splitlines() not in ([], [label]):
                return None  # a line break inside the quotes
            actions[label] = _parse_label(label)
        transitions.extend(zip(numbers[::2], map(actions.__getitem__, labels),
                               numbers[1::2]))
    if len(transitions) != ntrans:
        return None
    return Lts(nstates, initial, tuple(transitions))


def _import_lines(data: str) -> Lts:
    """Read an .aut text line by line; the reference reader, and the one
    that reports errors."""
    lines = data.splitlines()
    if not lines:
        raise AutFormatError("empty file", 1)
    m = _HEADER_RE.match(lines[0].strip())
    if not m:
        raise AutFormatError(f"bad header {lines[0]!r}", 1)
    try:
        initial, ntrans, nstates = (int(g) for g in m.groups())
    except ValueError as e:  # more digits than int() converts
        raise AutFormatError(f"bad header: {e}", 1)
    if nstates > 2 * ntrans + 1:
        # T transitions and the initial state name at most 2T + 1 states;
        # trusting a larger count would allocate per-state lists for it
        raise AutFormatError(
            f"header promises {nstates} states, more than its {ntrans} transitions"
            f" and the initial state can name ({2 * ntrans + 1})", 1)
    transitions = []
    actions: Dict[str, Action] = {}  # label text -> its action
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        m = _TRANS_RE.match(raw.strip())
        if not m:
            raise AutFormatError(f"bad transition {raw!r}", ln)
        try:
            src, label, dst = int(m.group(1)), m.group(2), int(m.group(3))
        except ValueError as e:  # more digits than int() converts
            raise AutFormatError(f"bad transition: {e}", ln)
        if src >= nstates or dst >= nstates:
            raise AutFormatError(f"state out of range in {raw!r}", ln)
        act = actions.get(label)
        if act is None:
            act = actions[label] = _parse_label(label)
        transitions.append((src, act, dst))
    if len(transitions) != ntrans:
        raise AutFormatError(
            f"header promises {ntrans} transitions, file has {len(transitions)}",
            len(lines),
        )
    if nstates < 1 or initial >= nstates:
        raise AutFormatError("initial state out of range", 1)
    return Lts(nstates, initial, tuple(transitions))


def _parse_label(label: str) -> Action:
    try:
        act = parse_action(label)
    except values.ValueError_:
        return Action(label, ())
    if act.text() != label:
        return Action(label, ())
    return act
