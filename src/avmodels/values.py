"""Offer values exchanged on gates.

A value is one of: natural number, boolean, symbol, grid position, named
record, or list of values. Values are immutable and hashable. The canonical
text form is the one used in transition labels; parse_value reads it back:

    naturals    ASCII digits [0-9]+, at most as many as int() converts
    booleans    true / false
    symbols     a name [A-Za-z_][A-Za-z0-9_]* other than true/false/Position
    positions   Position(x,y) of two naturals
    records     Name(v1,v2) with Name() for zero fields
    lists       [v1,v2] with [] for empty

Any other text, non-ASCII digits included, raises ValueError_. Canonical
text never contains spaces or '!', which keeps label parsing a simple split.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple, Union

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# one atom of value text: a natural, a name with the '(' of a record, or '['
_ATOM_RE = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)(\()?|\[")

# Reserved spellings that would collide with other variants when parsed back.
_RESERVED = {"true", "false", "Position"}


class ValueError_(ValueError):
    """Raised for malformed values or unparsable value text."""


@dataclass(frozen=True)
class Nat:
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError_(f"Nat needs a nonnegative int, got {self.n!r}")


@dataclass(frozen=True)
class Bool:
    b: bool


@dataclass(frozen=True)
class Sym:
    name: str

    def __post_init__(self):
        if not _NAME_RE.match(self.name) or self.name in _RESERVED:
            raise ValueError_(f"bad symbol name {self.name!r}")


@dataclass(frozen=True)
class Pos:
    x: int
    y: int

    def __post_init__(self):
        # labels must round-trip, and the grammar has no negative literals
        if self.x < 0 or self.y < 0:
            raise ValueError_(f"Pos must be nonnegative, got ({self.x},{self.y})")


@dataclass(frozen=True)
class Rec:
    name: str
    fields: Tuple["Value", ...] = ()

    def __post_init__(self):
        if not _NAME_RE.match(self.name) or self.name in _RESERVED:
            raise ValueError_(f"bad record name {self.name!r}")


@dataclass(frozen=True)
class Seq:
    items: Tuple["Value", ...] = ()


Value = Union[Nat, Bool, Sym, Pos, Rec, Seq]

def text(v: Value) -> str:
    t = type(v)
    if t is Nat:
        return str(v.n)
    if t is Bool:
        return "true" if v.b else "false"
    if t is Sym:
        return v.name
    if t is Pos:
        return f"Position({v.x},{v.y})"
    if t is Rec:
        return v.name + "(" + ",".join(text(f) for f in v.fields) + ")"
    if t is Seq:
        return "[" + ",".join(text(i) for i in v.items) + "]"
    raise ValueError_(f"not a value: {v!r}")


def parse_value(s: str) -> Value:
    """Parse canonical value text back into a value. Inverse of text()."""
    try:
        v, pos = _parse(s, 0)
    except RecursionError:
        raise ValueError_(f"value text nested too deeply: {s[:40]!r}...")
    if pos != len(s):
        raise ValueError_(f"trailing junk at {pos} in {s!r}")
    return v


def _parse(s: str, pos: int):
    m = _ATOM_RE.match(s, pos)
    if not m:
        raise ValueError_(f"bad value text at {pos} in {s!r}")
    digits, name, paren = m.groups()
    pos = m.end()
    if digits:
        try:
            n = int(digits)
        except ValueError as e:  # more digits than int() converts
            raise ValueError_(f"bad natural at {m.start()}: {e}")
        return Nat(n), pos
    if name and not paren:
        if name == "true":
            return Bool(True), pos
        if name == "false":
            return Bool(False), pos
        return Sym(name), pos
    # a list or a record: comma-separated values up to the closing bracket,
    # read in this frame so that each nesting level costs one
    close = ")" if paren else "]"
    items = []
    if not s.startswith(close, pos):
        while True:
            v, pos = _parse(s, pos)
            items.append(v)
            if not s.startswith(",", pos):
                break
            pos += 1
        if not s.startswith(close, pos):
            raise ValueError_(f"expected ',' or '{close}' at {pos} in {s!r}")
    pos += 1
    if not name:
        return Seq(tuple(items)), pos
    if name == "Position":
        if len(items) != 2 or not all(isinstance(f, Nat) for f in items):
            raise ValueError_(f"Position needs two naturals in {s!r}")
        return Pos(items[0].n, items[1].n), pos
    return Rec(name, tuple(items)), pos
