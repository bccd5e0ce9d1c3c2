"""Reader and printer behavior.

Round-trips are checked against hand-computed renderings, and a
generated-value property confirms read(show(v)) is the identity on the
printable value universe.
"""

import re
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

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
    assert read("\u0663") == 3  # ARABIC-INDIC DIGIT THREE


def test_digit_led_tokens_that_are_not_integers_are_symbols():
    assert read("1+").name == "1+"
    assert read("1-").name == "1-"
    assert read("2x") is intern("2X")
    # digits that str.isdigit() admits but int() rejects
    for text in ("\u00b2", "+\u00b2", "1\u00b2", "\u1369"):
        assert read(text) is intern(text)


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


# Every ReadError text, with its position.  A quoted lone dot is a stray
# dot, placed as at top level; a dotted list cut off by the end of input
# is unterminated.
READ_ERRORS = [
    ("", "unexpected end of input at line 1, column 1"),
    ("'  ; note\n  ", "unexpected end of input at line 2, column 3"),
    ("(a '", "unexpected end of input at line 1, column 5"),
    (")", "unbalanced close parenthesis at line 1, column 1"),
    ("(a\n  (b)", "unterminated list at line 1, column 1"),
    ("(a . b", "unterminated list at line 1, column 1"),
    ("(. a)", "dot at start of list at line 1, column 1"),
    ("(a . )", "dotted pair missing tail at line 1, column 1"),
    ("(a . . b)", "multiple dots in list at line 1, column 1"),
    ("(a . b c)", "more than one form after dot at line 1, column 1"),
    ('(f "open', "unterminated string at line 1, column 4"),
    ('(f "open\\', "unterminated string at line 1, column 4"),
    ('"bad \\n escape"', "unknown string escape \\n at line 1, column 1"),
    ('(f "a\\q', "unknown string escape \\q at line 1, column 4"),
    ("1/2", "rational literals are not supported: 1/2 at line 1, column 1"),
    ("(x -2/3)",
     "rational literals are not supported: -2/3 at line 1, column 4"),
    ("1.5", "non-integer numeric literals are not supported: 1.5 at line 1, "
     "column 1"),
    (" .5e3", "non-integer numeric literals are not supported: .5e3 at line "
     "1, column 2"),
    ("(a)\n  )", "trailing content after form at line 2, column 3"),
    ('(a) "b', "trailing content after form at line 1, column 5"),
    (".", "stray dot at line 1, column 2"),
    ("'.", "stray dot at line 1, column 3"),
    ("(a '. b)", "stray dot at line 1, column 6"),
    ("(a . '.)", "stray dot at line 1, column 8"),
    ("\n '" + "(" * 3000, "nesting too deep at line 2, column 2"),
    ('; one\r\n; two ( "\r\n  1e5', "non-integer numeric literals are "
     "not supported: 1e5 at line 3, column 3"),
    ("(a\xa0.\u2028b\x1cc)",
     "more than one form after dot at line 1, column 1"),
    ("\xa0\u2028\x1c1.5", "non-integer numeric literals are not supported: "
     "1.5 at line 1, column 4"),
]


@pytest.mark.parametrize("text,message", READ_ERRORS)
def test_read_error_text_and_position(text, message):
    with pytest.raises(ReadError) as exc:
        read(text)
    assert str(exc.value) == message


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


# Texts over the characters the reader treats specially, blanks of every
# kind, and atoms that look numeric.
_HOSTILE = st.text(alphabet=st.sampled_from(
    list("()'\";.\\") + [" ", "\n", "\r", "\t", "\xa0", "\u2028", "\x1c",
                         "\u3000"] + list("abzAZ019+-/eE:|#,`")
    + ["\u00b2", "\u0663"]), max_size=30)


@seed(2026)
@settings(max_examples=1500, deadline=None, database=None)
@given(_HOSTILE)
def test_reader_raises_only_read_errors(text):
    try:
        forms = read_all(text)
    except ReadError as e:
        lines = text.split("\n")
        assert 1 <= e.line <= len(lines)
        assert 1 <= e.col <= len(lines[e.line - 1]) + 1
        return
    assert balanced(text)
    for form in forms:
        assert equal(read(show(form)), form)


# A text that holds no `"` is split at blanks; one that holds a `"` is
# cut by the token pattern.  A `"` in a comment on a line of its own
# sends a text down the second route and moves its errors down one line.
_VIA_PATTERN = ';"\n'
_CORPUS_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(
    (Path(__file__).resolve().parent.parent / "corpus").glob("*.lisp"))]
_STRINGLESS = st.text(alphabet=st.sampled_from(
    list("()';.+-1aA") + ["\n", "\r", "\t", "\xa0", "\x1c", "٣"]),
    max_size=40)


def _one_line_down(message):
    return re.sub(r"line (\d+)", lambda m: "line %d" % (int(m[1]) + 1),
                  message)


def _read_all_outcome(text):
    try:
        return read_all(text), None
    except ReadError as e:
        return None, e


def _with_corpus_examples(test):
    for text in _CORPUS_TEXTS:
        if '"' not in text:
            test = example(text)(test)
    return test


@_with_corpus_examples
@given(_STRINGLESS)
def test_both_token_routes_read_a_stringless_text_alike(text):
    assert sexpr._split(text) == sexpr._scan(text)
    forms, err = _read_all_outcome(text)
    forms_via, err_via = _read_all_outcome(_VIA_PATTERN + text)
    if err is None:
        assert err_via is None
        assert len(forms) == len(forms_via)
        assert all(equal(a, b) for a, b in zip(forms, forms_via))
    else:
        assert err_via is not None
        assert (err_via.message, err_via.line, err_via.col) == (
            err.message, err.line + 1, err.col)
    assert balanced(text) == balanced(_VIA_PATTERN + text)


def test_the_corpus_has_stringless_examples():
    assert sum('"' not in text for text in _CORPUS_TEXTS) >= 5


@pytest.mark.parametrize("text,message", [
    (text, message) for text, message in READ_ERRORS if '"' not in text])
def test_read_error_text_and_position_via_the_token_pattern(text, message):
    with pytest.raises(ReadError) as exc:
        read(_VIA_PATTERN + text)
    assert str(exc.value) == _one_line_down(message)


def test_nesting_800_deep_reads():
    deep = "(" * 800 + "x" + ")" * 800
    assert show(read(deep)) == deep.upper()
    assert show(read_all(_VIA_PATTERN + deep)[0]) == deep.upper()
