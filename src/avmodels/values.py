"""Offer values exchanged on gates.

A value is one of: natural number, boolean, symbol, grid position, named
record, or list of values. Values are immutable and hashable. The canonical
text form is the one used in transition labels:

    naturals    decimal digits
    booleans    true / false
    symbols     the bare name
    positions   Position(x,y)
    records     Name(v1,v2) with Name() for zero fields
    lists       [v1,v2] with [] for empty

Canonical text never contains spaces or '!', which keeps label parsing a
simple split.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple, Union

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

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
    if pos >= len(s):
        raise ValueError_(f"unexpected end of value text in {s!r}")
    c = s[pos]
    if c.isdigit():
        j = pos
        while j < len(s) and s[j].isdigit():
            j += 1
        return Nat(int(s[pos:j])), j
    if c == "[":
        items = []
        pos += 1
        if pos < len(s) and s[pos] == "]":
            return Seq(()), pos + 1
        while True:
            v, pos = _parse(s, pos)
            items.append(v)
            if pos >= len(s):
                raise ValueError_(f"unterminated list in {s!r}")
            if s[pos] == ",":
                pos += 1
                continue
            if s[pos] == "]":
                return Seq(tuple(items)), pos + 1
            raise ValueError_(f"bad list separator at {pos} in {s!r}")
    m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", s[pos:])
    if not m:
        raise ValueError_(f"bad value text at {pos} in {s!r}")
    name = m.group(0)
    pos += len(name)
    if pos < len(s) and s[pos] == "(":
        fields = []
        pos += 1
        if pos < len(s) and s[pos] == ")":
            pos += 1
        else:
            while True:
                v, pos = _parse(s, pos)
                fields.append(v)
                if pos >= len(s):
                    raise ValueError_(f"unterminated record in {s!r}")
                if s[pos] == ",":
                    pos += 1
                    continue
                if s[pos] == ")":
                    pos += 1
                    break
                raise ValueError_(f"bad record separator at {pos} in {s!r}")
        if name == "Position":
            if len(fields) != 2 or not all(isinstance(f, Nat) for f in fields):
                raise ValueError_(f"Position needs two naturals in {s!r}")
            return Pos(fields[0].n, fields[1].n), pos
        return Rec(name, tuple(fields)), pos
    if name == "true":
        return Bool(True), pos
    if name == "false":
        return Bool(False), pos
    return Sym(name), pos
