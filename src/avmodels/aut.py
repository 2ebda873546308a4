"""Aldebaran (.aut) interchange format.

    des (<initial>, <number of transitions>, <number of states>)
    (<src>, "<label>", <dst>)

One transition per line, sorted ascending by (source, label text, target) on
export so equal LTSs serialize to identical bytes. Labels are written in the
canonical action text form and parsed back into structured actions when they
are canonical; anything else round-trips as an opaque label. Export writes
each action object's text once; import parses each distinct label text once,
and transitions with equal text share one action.
"""
from __future__ import annotations

import re
from typing import IO, Dict, List, Tuple

from . import values
from .kernel import Action, Lts, parse_action

_HEADER_RE = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*\Z")
_TRANS_RE = re.compile(r"\(\s*(\d+)\s*,\s*\"([^\"]*)\"\s*,\s*(\d+)\s*\)\s*\Z")


class AutFormatError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


def export_aut(lts: Lts, sink: IO) -> None:
    """Write lts to a binary or text stream. ASCII only."""
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
    lines = [f"des ({lts.initial}, {len(rows)}, {lts.num_states})\n"]
    lines.extend(f'({src}, "{label}", {dst})\n' for src, label, dst in rows)
    data = "".join(lines)
    if hasattr(sink, "buffer"):
        sink = sink.buffer  # text wrapper around a binary stream
    try:
        sink.write(data.encode("ascii"))
    except TypeError:
        sink.write(data)


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
    lines = data.splitlines()
    if not lines:
        raise AutFormatError("empty file", 1)
    m = _HEADER_RE.match(lines[0].strip())
    if not m:
        raise AutFormatError(f"bad header {lines[0]!r}", 1)
    initial, ntrans, nstates = (int(g) for g in m.groups())
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
        src, label, dst = int(m.group(1)), m.group(2), int(m.group(3))
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
