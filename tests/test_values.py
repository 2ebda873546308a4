import pytest
from hypothesis import given, strategies as st

from avmodels.values import (
    Bool, Nat, Pos, Rec, Seq, Sym, ValueError_, parse_value, text,
)


def test_text_forms():
    assert text(Nat(7)) == "7"
    assert text(Bool(True)) == "true"
    assert text(Bool(False)) == "false"
    assert text(Sym("brakes")) == "brakes"
    assert text(Pos(3, 4)) == "Position(3,4)"
    assert text(Rec("Radar", (Seq((Sym("a"), Sym("b"))),))) == "Radar([a,b])"
    assert text(Seq(())) == "[]"
    assert text(Rec("Empty", ())) == "Empty()"


def test_parse_simple():
    assert parse_value("42") == Nat(42)
    assert parse_value("true") == Bool(True)
    assert parse_value("false") == Bool(False)
    assert parse_value("go") == Sym("go")
    assert parse_value("Position(1,2)") == Pos(1, 2)
    assert parse_value("[1,2,3]") == Seq((Nat(1), Nat(2), Nat(3)))
    assert parse_value("Turn(2)") == Rec("Turn", (Nat(2),))


def test_parse_rejects_garbage():
    for bad in ("", "  ", "1x", "[1", "Foo(", "Foo(1,)", "-3", "Position(1)",
                "Position(a,b)", "foo bar", "[1,]", "()"):
        with pytest.raises(ValueError_):
            parse_value(bad)


@pytest.mark.parametrize("bad", [
    "\u0663", "\u00b2", "1\u0663", "Position(5\u0663,1)", "[\uff11]",  # non-ASCII digits
    "1" * 5000, "[" + "1" * 5000 + "]", "Position(0," + "1" * 5000 + ")",  # past int()'s limit
], ids=["arabic-indic", "superscript", "mixed", "position", "fullwidth",
        "long-natural", "long-in-list", "long-in-position"])
def test_parse_reads_ascii_digits_only_and_fails_with_its_own_error(bad):
    with pytest.raises(ValueError_):
        parse_value(bad)


def test_nat_and_pos_validate():
    with pytest.raises(ValueError):
        Nat(-1)
    with pytest.raises(ValueError):
        Pos(-1, 0)
    with pytest.raises(ValueError):
        Sym("not a name")
    with pytest.raises(ValueError):
        Sym("true")  # reserved word


value_strategy = st.deferred(lambda: st.one_of(
    st.integers(min_value=0, max_value=999).map(Nat),
    st.booleans().map(Bool),
    st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}", fullmatch=True)
      .filter(lambda s: s not in ("true", "false", "Position")).map(Sym),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map(lambda p: Pos(*p)),
    st.lists(value_strategy, max_size=3).map(lambda it: Seq(tuple(it))),
    st.tuples(
        st.from_regex(r"[A-Z][a-zA-Z0-9_]{0,8}", fullmatch=True)
          .filter(lambda s: s != "Position"),
        st.lists(value_strategy, max_size=3),
    ).map(lambda t: Rec(t[0], tuple(t[1]))),
))


@given(value_strategy)
def test_text_round_trips(v):
    assert parse_value(text(v)) == v


@given(value_strategy)
def test_text_has_no_spaces_or_bangs(v):
    s = text(v)
    assert " " not in s and "!" not in s
