"""Reader and printer behavior.

Round-trips are checked against hand-computed renderings, and a
generated-value property confirms read(show(v)) is the identity on the
printable value universe.
"""

import pytest
from hypothesis import given, strategies as st

from stlisp import sexpr
from stlisp.errors import ReadError
from stlisp.sexpr import (Cons, MultiValue, NIL, T, balanced, equal, intern,
                          read, read_all, show)


def test_symbols_are_interned_and_upcased():
    assert read("foo") is read("FOO")
    assert read("foo") is intern("FOO")
    assert read("foo").name == "FOO"


def test_nil_and_t_are_the_canonical_objects():
    assert read("nil") is NIL
    assert read("t") is T
    assert read("()") is NIL


def test_integers():
    assert read("42") == 42
    assert read("-17") == -17
    assert read("+3") == 3
    assert read("0") == 0


def test_digit_led_tokens_that_are_not_integers_are_symbols():
    assert read("1+").name == "1+"
    assert read("1-").name == "1-"
    assert read("2x") is intern("2X")


def test_unsupported_numeric_literals_are_rejected():
    with pytest.raises(ReadError):
        read("1/2")
    with pytest.raises(ReadError):
        read("1.5")
    with pytest.raises(ReadError):
        read("-2/3")
    with pytest.raises(ReadError):
        read("1e5")


def test_quote_sugar():
    assert show(read("'x")) == "(QUOTE X)"
    assert show(read("''a")) == "(QUOTE (QUOTE A))"


def test_dotted_pairs():
    v = read("(a . 1)")
    assert isinstance(v, Cons)
    assert v.car is intern("A")
    assert v.cdr == 1
    assert show(v) == "(A . 1)"
    assert show(read("(a b . c)")) == "(A B . C)"


def test_cons_ending_in_nil_prints_as_list():
    v = Cons(intern("LST"), NIL)
    assert show(v) == "(LST)"
    assert equal(v, read("(LST . NIL)"))


def test_strings():
    assert read('"hello"') == "hello"
    assert show("hello") == '"hello"'
    assert read('"a\\"b"') == 'a"b'
    assert show('a"b') == '"a\\"b"'
    with pytest.raises(ReadError):
        read('"open')
    with pytest.raises(ReadError):
        read('"bad \\n escape"')


def test_comments_are_skipped():
    forms = read_all("; leading\n(+ 1 2) ; trailing\n3\n")
    assert len(forms) == 2
    assert show(forms[0]) == "(+ 1 2)"
    assert forms[1] == 3


def test_read_rejects_trailing_content():
    with pytest.raises(ReadError):
        read("(a) (b)")


def test_reader_errors_carry_positions():
    try:
        read_all("(a\n  1.5)")
    except ReadError as e:
        assert e.line == 2
        assert e.col == 3
    else:
        raise AssertionError("expected ReadError")


def test_nesting_past_the_recursion_limit_is_a_read_error():
    deep = "(" * 3000 + ")" * 3000
    with pytest.raises(ReadError) as exc:
        read("  " + deep)
    assert str(exc.value) == "nesting too deep at line 1, column 3"
    with pytest.raises(ReadError) as exc:
        read_all("(a)\n'" + deep)
    assert str(exc.value) == "nesting too deep at line 2, column 1"
    assert show(read("(" * 50 + ")" * 50)) == "(" * 49 + "NIL" + ")" * 49


def test_unbalanced_parens():
    with pytest.raises(ReadError):
        read("(a (b)")
    with pytest.raises(ReadError):
        read(")")


def test_dot_misuses():
    for text in ("(. a)", "(a . )", "(a . b c)", "(a . b . c)", "."):
        with pytest.raises(ReadError):
            read(text)


def test_keywords_read_as_symbols():
    k = read(":values")
    assert sexpr.is_keyword(k)
    assert k.name == ":VALUES"
    assert not sexpr.is_keyword(intern("VALUES"))


def test_multivalue_needs_two_components():
    mv = MultiValue([1, intern("A")])
    assert show(mv) == "(1 A)"
    with pytest.raises(AssertionError):
        MultiValue([1])


def test_equal_is_structural():
    assert equal(read("(1 (2 . x) \"s\")"), read("(1 (2 . x) \"s\")"))
    assert not equal(read("(1 2)"), read("(1 2 3)"))
    assert not equal(read("\"a\""), read("a"))
    assert equal(MultiValue([1, 2]), MultiValue([1, 2]))
    assert not equal(MultiValue([1, 2]), MultiValue([2, 1]))


def test_pylist_conversions():
    v = read("(1 2 3)")
    assert equal(sexpr.from_pylist([1, 2, 3]), v)
    assert sexpr.list_length(v) == 3


def test_balanced():
    assert balanced("(+ 1 2)")
    assert not balanced("(+ 1")
    assert not balanced('"open')
    assert balanced("(a) ; (unclosed in comment")
    assert balanced("")
    # a stray closer is "balanced" for REPL purposes: reading will error
    assert balanced("())")


_atoms = st.one_of(
    st.integers(min_value=-999, max_value=999),
    st.sampled_from("ABC XYZ FOO-1 <= NIL T :KEY 1+".split()).map(intern),
    st.text(alphabet="abc \"\\", min_size=0, max_size=5),
)


def _values(depth):
    if depth == 0:
        return _atoms
    sub = _values(depth - 1)
    return st.one_of(
        _atoms,
        st.lists(sub, min_size=0, max_size=3).map(sexpr.from_pylist),
        st.tuples(sub, sub).map(lambda p: Cons(p[0], p[1])),
    )


@given(_values(3))
def test_show_read_round_trip(v):
    assert equal(read(show(v)), v)
