"""Evaluator tests: builtins against independent oracles, binding forms,
defun/guard/measure behavior, the event world, and undo."""

import io
import random

import pytest
from hypothesis import given, seed, settings, strategies as hs

from conftest import count_calls
from stlisp import sexpr
from stlisp.errors import (EvalError, GuardViolation, LinearityError,
                           MeasureViolation, ReadError)
from stlisp.kernel import Interp
from stlisp.sexpr import NIL, T, intern, read, show


def ev(text, **kw):
    interp = Interp(**kw)
    return interp.eval_text(text)[-1][1]


def ev_all(text, **kw):
    interp = Interp(**kw)
    return interp, interp.eval_text(text)


# ---------------------------------------------------------------- arithmetic

def test_arithmetic_matches_python_oracle():
    rng = random.Random(20260816)
    interp = Interp()
    for _ in range(300):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        c = rng.randint(-50, 50)
        got = interp.eval_text("(+ %d (* %d %d) (- %d))" % (a, b, c, a))[0][1]
        assert got == a + b * c - a
        got = interp.eval_text("(- %d %d)" % (a, b))[0][1]
        assert got == a - b
        assert interp.eval_text("(< %d %d)" % (a, b))[0][1] is \
            (T if a < b else NIL)
        assert interp.eval_text("(<= %d %d)" % (a, b))[0][1] is \
            (T if a <= b else NIL)
        assert interp.eval_text("(= %d %d)" % (a, b))[0][1] is \
            (T if a == b else NIL)


def test_variadic_identities():
    assert ev("(+)") == 0
    assert ev("(*)") == 1
    assert ev("(- 7)") == -7
    assert ev("(+ 1 2 3 4 5)") == 15
    assert ev("(* 2 3 4)") == 24


def test_arithmetic_guards_on_versus_off():
    interp = Interp(guard_check=True)
    with pytest.raises(GuardViolation) as exc:
        interp.eval_text("(+ 1 'a)")
    assert "guard violation in (+ 1 (QUOTE A)): A is not an integer" \
        in str(exc.value)
    # with guards off, non-integers coerce to 0
    off = Interp(guard_check=False)
    assert off.eval_text("(+ 1 'a)")[0][1] == 1
    assert off.eval_text("(* 5 \"x\")")[0][1] == 0
    assert off.eval_text("(- 'a)")[0][1] == 0
    assert off.eval_text("(< 'a 1)")[0][1] is T


def test_one_plus_one_minus():
    assert ev("(1+ 41)") == 42
    assert ev("(1- 43)") == 42
    off = Interp(guard_check=False)
    assert off.eval_text("(1+ 'a)")[0][1] == 1


# ------------------------------------------------------------------ lists

def test_car_cdr_cons_oracle():
    assert ev("(car '(1 2 3))") == 1
    assert sexpr.equal(ev("(cdr '(1 2 3))"), read("(2 3)"))
    assert ev("(car nil)") is NIL
    assert ev("(cdr nil)") is NIL
    assert show(ev("(cons 1 2)")) == "(1 . 2)"


def test_car_cdr_guard_violation_and_totalization():
    interp = Interp()
    with pytest.raises(GuardViolation) as exc:
        interp.eval_text("(car 5)")
    assert "5 is neither a cons nor NIL" in str(exc.value)
    off = Interp(guard_check=False)
    assert off.eval_text("(car 5)")[0][1] is NIL
    assert off.eval_text("(cdr \"s\")")[0][1] is NIL


def test_list_builtins_against_hand_oracles():
    assert ev("(len '(a b c d))") == 4
    assert ev("(len 'a)") == 0
    assert ev("(len '(a . b))") == 1
    assert ev("(consp '(1))") is T
    assert ev("(consp nil)") is NIL
    assert sexpr.equal(ev("(member-equal 3 '(1 2 3 4))"), read("(3 4)"))
    assert ev("(member-equal 9 '(1 2))") is NIL
    assert sexpr.equal(ev("(true-list-fix '(1 2 . 3))"), read("(1 2)"))
    assert sexpr.equal(ev("(hons-assoc-equal 'b '((a . 1) (b . 2)))"),
                       read("(b . 2)"))
    assert ev("(hons-assoc-equal 'z '((a . 1)))") is NIL
    assert sexpr.equal(ev("(assoc-eq-safe 'b '((a . 1) (b . 2)))"),
                       read("(b . 2)"))


def test_member_equal_uses_structural_equality():
    assert sexpr.equal(ev("(member-equal '(1 2) '((0) (1 2) (3)))"),
                       read("((1 2) (3))"))


def test_eq_and_equal():
    assert ev("(eq 'a 'a)") is T
    assert ev("(eq 'a 'b)") is NIL
    assert ev("(equal '(1 (2)) '(1 (2)))") is T
    assert ev("(equal \"x\" \"x\")") is T
    interp = Interp()
    with pytest.raises(GuardViolation) as exc:
        interp.eval_text("(eq 1 2)")
    assert "EQ needs a symbol argument" in str(exc.value)
    # guards off: eq falls back to structural comparison of the atoms
    off = Interp(guard_check=False)
    assert off.eval_text("(eq 1 1)")[0][1] is T


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_eq_with_a_symbol_is_identity(mode):
    # literal, quoted and LET-bound arguments, either side the symbol
    for text, want in [
            ("(eq 'a 'a)", T), ("(eq 'a 'b)", NIL),
            ("(eq 'a \"A\")", NIL), ("(eq \"A\" 'a)", NIL),
            ("(eq 'a 1)", NIL), ("(eq 1 'a)", NIL),
            ("(eq 'nil nil)", T), ("(eq nil 'nil)", T), ("(eq t 't)", T),
            ("(eq :k ':k)", T), ("(eq 'nil '(nil))", NIL),
            ("(let ((x 'a) (y \"A\")) (eq x y))", NIL),
            ("(let ((x 'a)) (let ((y 'a)) (eq x y)))", T)]:
        for guard_check in (True, False):
            assert ev(text, mode=mode, guard_check=guard_check) is want, text


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_eq_without_a_symbol_is_a_guard_or_equal(mode):
    with pytest.raises(GuardViolation) as exc:
        ev("(eq '(1) '(1))", mode=mode)
    assert str(exc.value) == (
        "guard violation in (EQ (QUOTE (1)) (QUOTE (1))): EQ needs a "
        "symbol argument in (EQ (QUOTE (1)) (QUOTE (1)))")
    for text, want in [("(eq '(1) '(1))", T), ("(eq '(1) '(2))", NIL),
                       ("(let ((x '(a b))) (eq x '(a b)))", T),
                       ("(eq \"x\" \"x\")", T), ("(eq 1 2)", NIL)]:
        assert ev(text, mode=mode, guard_check=False) is want, text


QUOTED_ARGS_PRELUDE = """
(defstobj st fld)
(defun pair (x y) (cons x y))
(defun tag (x) (cons 'tag x))
"""


@pytest.mark.parametrize("mode", ["logical", "native"])
@pytest.mark.parametrize("text,want", [
    # a builtin
    ("(cons 'nil 'nil)", "(NIL)"), ("(cons 'a '(b c))", "(A B C)"),
    ("(consp 'nil)", "NIL"), ("(car '(a b))", "A"), ("(car ''a)", "QUOTE"),
    ("(cdr ''a)", "(A)"), ("(len '(nil nil))", "2"),
    # a defun, at top level and from inside another defun's body
    ("(pair 'nil 'sym)", "(NIL . SYM)"), ("(pair '(1 2) 'nil)", "((1 2))"),
    ("(tag 'nil)", "(TAG)"), ("(tag '(a))", "(TAG A)"),
    # a generated op
    ("(update-fld 'nil st) (fld st)", "NIL"),
    ("(update-fld 'sym st) (fld st)", "SYM"),
    ("(update-fld '(a (b)) st) (fld st)", "(A (B))"),
    ("(stp '(nil))", "T"), ("(stp 'nil)", "NIL"),
    # APPLY$, its function and its argument list both quoted
    ("(apply$ 'pair '(nil sym))", "(NIL . SYM)"),
    ("(apply$ 'cons '((1 2) nil))", "((1 2))"),
    ("(apply$ 'tag '(quote))", "(TAG . QUOTE)"),
    ("(apply$ '(lambda (x) (pair x 'nil)) '((a)))", "((A))"),
])
def test_quoted_arguments_reach_each_kind_of_callee(mode, text, want):
    interp = Interp(mode=mode)
    interp.eval_text(QUOTED_ARGS_PRELUDE)
    assert show(interp.eval_text(text)[-1][1]) == want


def test_natp_nfix_zp():
    assert ev("(natp 3)") is T
    assert ev("(natp -1)") is NIL
    assert ev("(natp 'a)") is NIL
    assert ev("(nfix -4)") == 0
    assert ev("(nfix 6)") == 6
    assert ev("(nfix 'a)") == 0
    assert ev("(zp 0)") is T
    assert ev("(zp 3)") is NIL
    interp = Interp()
    with pytest.raises(GuardViolation) as exc:
        interp.eval_text("(zp -1)")
    assert "-1 is not a natural number" in str(exc.value)
    off = Interp(guard_check=False)
    assert off.eval_text("(zp 'a)")[0][1] is T


def test_not():
    assert ev("(not nil)") is T
    assert ev("(not 0)") is NIL
    assert ev("(not t)") is NIL


# ----------------------------------------------------------- special forms

def test_if_one_and_two_armed():
    assert ev("(if t 1 2)") == 1
    assert ev("(if nil 1 2)") == 2
    assert ev("(if nil 1)") is NIL
    assert ev("(if 0 'yes 'no)") is intern("YES")


def test_quote():
    assert show(ev("'(a b)")) == "(A B)"
    with pytest.raises(EvalError):
        ev("(quote a b)")


def test_let_and_let_star():
    assert ev("(let ((x 1) (y 2)) (+ x y))") == 3
    # let binds in parallel: inner x must come from outside
    assert ev("(let ((x 1)) (let ((x 2) (y x)) (+ x y)))") == 3
    assert ev("(let* ((x 1) (y (+ x 1))) (+ x y))") == 3


def test_let_body_count_and_binding_shape_errors():
    with pytest.raises(EvalError):
        ev("(let ((x 1)))")
    with pytest.raises(EvalError):
        ev("(let ((x 1)) x x)")
    with pytest.raises(EvalError):
        ev("(let (x 1) x)")


@pytest.mark.parametrize("text,offending", [
    ("(+ 1 . 2)", "(+ 1 . 2)"),
    ("(mv 1 . 2)", "(MV 1 . 2)"),
    ("(let ((x . 1)) x)", "(LET ((X . 1)) X)"),
    ("(stobj-let ((a . b)) (a) 1 2)", "(STOBJ-LET ((A . B)) (A) 1 2)"),
    ("(loop$ with x = 0 do :values (nil . st) (return x))",
     "(LOOP$ WITH X = 0 DO :VALUES (NIL . ST) (RETURN X))"),
    ("(loop$ with x = 0 with y = 0 do :measure 0 "
     "(mv-setq (x . y) (mv 1 2)))", "(MV-SETQ (X . Y) (MV 1 2))"),
    ("(defun f x x)", "(DEFUN F X X)"),
    ("(apply$ 'car '(1 . 2))", "(APPLY$ (QUOTE CAR) (QUOTE (1 . 2)))"),
    ("(apply$ '(lambda (1) 1) '(5))",
     "(APPLY$ (QUOTE (LAMBDA (1) 1)) (QUOTE (5)))"),
    ("(if 1 2 . 3)", "(IF 1 2 . 3)"), ("(if 1 2 3 4)", "(IF 1 2 3 4)"),
    ("(quote a . b)", "(QUOTE A . B)"),
    ("(let ((x 1)) . x)", "(LET ((X 1)) . X)"),
    ("(stobj-let ((a b) . c) (a) 1 2)", "(STOBJ-LET ((A B) . C) (A) 1 2)"),
    ("(car 1 2 . 3)", "(CAR 1 2 . 3)"),
])
def test_syntax_errors_name_the_form_in_both_modes(text, offending):
    classes = set()
    for mode in ("logical", "native"):
        with pytest.raises(EvalError) as exc:
            ev(text, mode=mode)
        assert not isinstance(exc.value, ReadError)
        assert offending in str(exc.value)
        classes.add(type(exc.value))
    assert len(classes) == 1


MALFORMED_SPECIAL_FORMS = [
    ("(quote 1 2)", "QUOTE takes one argument"),
    ("(if 1)", "IF takes a test and one or two branches"),
    ("(if 1 2 3 4)", "IF takes a test and one or two branches"),
    ("(let ((y 1)))", "LET takes bindings and a single body form"),
    ("(let (y) 1)", "malformed LET bindings"),
    ("(let* ((y . 1)) y)", "malformed LET* bindings"),
    ("(mv 1)", "MV needs at least two values"),
    ("(mv-let (a) (mv 1 2) a)", "MV-LET needs two or more variable names"),
    ("(mv-let (a b) (mv 1 2))", "MV-LET takes variables, a form, and a body"),
    ("(if 1 2 . 3)", "argument list is not a proper list"),
    ("(quote a . b)", "argument list is not a proper list"),
    ("(let ((x 1)) . x)", "argument list is not a proper list"),
    ("(let ((x 1) (x 2)) x)", "duplicate LET variable X"),
    ("(mv-let (a a) (mv 1 2) a)", "duplicate MV-LET variable A"),
]


@pytest.mark.parametrize("text,message", MALFORMED_SPECIAL_FORMS,
                         ids=[t for t, _ in MALFORMED_SPECIAL_FORMS])
def test_malformed_special_form_has_one_text(text, message):
    # the analyzer rejects it with one text, in a DO body too
    want = "R1: %s in %s" % (message, show(read(text)))
    with pytest.raises(LinearityError) as exc:
        ev(text)
    assert exc.value.violations == [want]
    with pytest.raises(LinearityError) as exc:
        ev("(loop$ with x = 0 do :measure 0 (setq x %s))" % text)
    assert exc.value.violations == [want]


# Each form, the class of the error that admitting it raises, and its
# text: a call's own check raises directly, and a special form's is its
# one R1 violation.
ADMISSION_TEXTS = [
    # a dotted argument list is reported before the arity
    ("(car 1 2 . 3)", EvalError,
     "argument list is not a proper list in (CAR 1 2 . 3)"),
    ("(if 1 2 . 3)", LinearityError,
     "argument list is not a proper list in (IF 1 2 . 3)"),
    ("(if 1 2 3 4)", LinearityError,
     "IF takes a test and one or two branches in (IF 1 2 3 4)"),
    ("(quote a . b)", LinearityError,
     "argument list is not a proper list in (QUOTE A . B)"),
    ("(let ((x 1)) . x)", LinearityError,
     "argument list is not a proper list in (LET ((X 1)) . X)"),
    ("(stobj-let ((a b) . c) (a) 1 2)", LinearityError, "stobj-let bindings "
     "is not a proper list in (STOBJ-LET ((A B) . C) (A) 1 2)"),
]


@pytest.mark.parametrize("text,cls,message", ADMISSION_TEXTS,
                         ids=["%s-%s" % (t, m) for t, _, m in ADMISSION_TEXTS])
def test_evaluator_error_texts_in_both_modes(text, cls, message):
    for mode in ("logical", "native"):
        with pytest.raises(EvalError) as exc:
            ev(text, mode=mode)
        assert type(exc.value) is cls
        if cls is LinearityError:
            assert exc.value.violations == ["R1: " + message]
        else:
            assert str(exc.value) == message


# ------------------------------------------- the call path's argument reads

CALLS_PRELUDE = """
(defstobj st val)
(defstobj switch fld)
(defstobj top (tbl :type (stobj-table)))
(defun inc (x) (1+ x))
(defun half (n) (declare (xargs :guard (natp n))) n)
"""

# a stobj-let producer body, where admission hides TOP
PRODUCER = "(stobj-let ((switch (tbl-get 'switch top (create-switch)))) " \
    "(flg) %s flg)"
HIDDEN = "R1: stobj TOP is used without being declared or bound here"
TOP_FORM = "single-threadedness violation in this top-level form:\n  "

# A hidden stobj, or a stobj or multiple values in an ordinary slot: each
# form with the text of the error that admitting it raises, before any
# argument runs and whether guards are on or off.  Evaluation does not
# check these again.
CALL_REJECTIONS = [
    # in the innermost frame and in an outer one
    (PRODUCER % "(+ top 1)", LinearityError, TOP_FORM + HIDDEN),
    (PRODUCER % "(inc top)", LinearityError, TOP_FORM + HIDDEN),
    (PRODUCER % "(let ((k 1)) (+ k top))", LinearityError,
     TOP_FORM + HIDDEN),
    (PRODUCER % "(let ((k 1)) (inc top))", LinearityError,
     TOP_FORM + HIDDEN),
    # admission raises an arity error as it meets it
    (PRODUCER % "(+ top (car 1 2))", EvalError,
     "CAR takes 1 argument, got 2 in (CAR 1 2)"),
    ("(+ st 1)", LinearityError,
     TOP_FORM + "R1: stobj ST passed where + expects an ordinary value"),
    ("(let ((st st)) (+ 'a st))", LinearityError,
     TOP_FORM + "R1: stobj ST passed where + expects an ordinary value\n  "
     "R2: stobj ST is bound in this LET but is not among the values of its "
     "body; the update would be discarded"),
    ("(let ((st st)) (inc st))", LinearityError,
     TOP_FORM + "R1: stobj ST passed where INC expects an ordinary value\n"
     "  R2: stobj ST is bound in this LET but is not among the values of "
     "its body; the update would be discarded"),
    ("(+ 1 (mv 1 2))", LinearityError,
     TOP_FORM + "R2: multiple values are not a single value in an argument "
     "of +"),
    ("(inc (mv 1 2))", LinearityError,
     TOP_FORM + "R2: multiple values are not a single value in an argument "
     "of INC"),
]


@pytest.mark.parametrize("mode", ["logical", "native"])
@pytest.mark.parametrize("text,cls,message", CALL_REJECTIONS)
def test_call_argument_rejections_in_both_modes(mode, text, cls, message):
    for guard_check in (True, False):
        interp = Interp(mode=mode, guard_check=guard_check)
        interp.eval_text(CALLS_PRELUDE)
        with pytest.raises(EvalError) as exc:
            interp.eval_text(text)
        assert (type(exc.value), str(exc.value)) == (cls, message)


# Each form, read through Interp.eval so no static check comes first, with
# its error class and text (or its value, as shown) with guards on, and
# with guards off.  A builtin call and a defun call take their arguments
# in the same order, with the same checks.
# Each form, with the class and text of its error with guards on, then
# with guards off.  Admission checks argument lists and arity once; the
# call path checks each builtin's precondition and each defun's guard.
CALL_CHECKS = [
    # arguments are checked left to right: an error comes before a later
    # argument
    (PRODUCER % "(+ (car 1 2) top)", EvalError,
     "CAR takes 1 argument, got 2 in (CAR 1 2)", EvalError,
     "CAR takes 1 argument, got 2 in (CAR 1 2)"),
    # a dotted argument list, reported before the arity
    ("(1+ 1 2 . 3)", EvalError,
     "argument list is not a proper list in (1+ 1 2 . 3)", EvalError,
     "argument list is not a proper list in (1+ 1 2 . 3)"),
    ("(inc 1 2 . 3)", EvalError,
     "argument list is not a proper list in (INC 1 2 . 3)", EvalError,
     "argument list is not a proper list in (INC 1 2 . 3)"),
    # the arity, before any argument is checked
    ("(1+ 1 (undefined-fn))", EvalError,
     "1+ takes 1 argument, got 2 in (1+ 1 (UNDEFINED-FN))", EvalError,
     "1+ takes 1 argument, got 2 in (1+ 1 (UNDEFINED-FN))"),
    ("(inc 1 (undefined-fn))", EvalError,
     "INC takes 1 argument, got 2 in (INC 1 (UNDEFINED-FN))", EvalError,
     "INC takes 1 argument, got 2 in (INC 1 (UNDEFINED-FN))"),
    # a non-integer argument; guards off, it counts as 0
    ("(+ 1 'a)", GuardViolation,
     "guard violation in (+ 1 (QUOTE A)): A is not an integer "
     "in (+ 1 (QUOTE A))", None, "1"),
    ("(let ((x 'a)) (1- x))", GuardViolation,
     "guard violation in (1- X): A is not an integer in (1- X)", None, "-1"),
    ("(< 1 \"s\")", GuardViolation,
     "guard violation in (< 1 \"s\"): \"s\" is not an integer "
     "in (< 1 \"s\")", None, "NIL"),
    ("(zp -1)", GuardViolation,
     "guard violation in (ZP -1): -1 is not a natural number in (ZP -1)",
     None, "T"),
    ("(inc 'a)", GuardViolation,
     "guard violation in (1+ X): A is not an integer in (1+ X)", None, "1"),
    ("(let ((x 'a)) (inc x))", GuardViolation,
     "guard violation in (1+ X): A is not an integer in (1+ X)", None, "1"),
    ("(half 'a)", GuardViolation,
     "guard violation calling HALF: :guard (NATP N) failed "
     "in (HALF (QUOTE A))", None, "A"),
]


@pytest.mark.parametrize("mode", ["logical", "native"])
@pytest.mark.parametrize("text,cls,message,off_cls,off", CALL_CHECKS)
def test_call_argument_checks_in_both_modes(mode, text, cls, message,
                                            off_cls, off):
    for guard_check, want_cls, want in ((True, cls, message),
                                        (False, off_cls, off)):
        interp = Interp(mode=mode, guard_check=guard_check)
        interp.eval_text(CALLS_PRELUDE)
        if want_cls is None:
            assert show(interp.eval_text(text)[-1][1]) == want
            continue
        with pytest.raises(EvalError) as exc:
            interp.eval_text(text)
        assert (type(exc.value), str(exc.value)) == (want_cls, want)


# The integer builtins against a Python model, on ints (literal, quoted or
# bound by an enclosing LET) mixed with symbols, conses and strings.
ARITIES = {"+": (0, 4), "-": (1, 2), "*": (0, 4), "1+": (1, 1),
           "1-": (1, 1), "<": (2, 2), "<=": (2, 2), "=": (2, 2),
           "ZP": (1, 1), "NATP": (1, 1), "NFIX": (1, 1)}


def _int_builtin_model(op, vals, call, guard_check):
    """('value', v) or ('error', text) for the call of op on vals."""
    if op in ("NATP", "NFIX"):
        x = vals[0]
        nat = type(x) is int and x >= 0
        if op == "NATP":
            return "value", T if nat else NIL
        return "value", x if nat else 0
    if op == "ZP":
        x = vals[0]
        if type(x) is int and x >= 0:
            return "value", T if x == 0 else NIL
        if guard_check:
            return "error", "guard violation in %s: %s is not a natural " \
                "number in %s" % (show(call), show(x), show(call))
        return "value", T
    bad = [x for x in vals if type(x) is not int]
    if bad and guard_check:
        return "error", "guard violation in %s: %s is not an integer in %s" \
            % (show(call), show(bad[0]), show(call))
    xs = [x if type(x) is int else 0 for x in vals]
    if op == "+":
        return "value", sum(xs)
    if op == "*":
        out = 1
        for x in xs:
            out *= x
        return "value", out
    if op == "-":
        return "value", -xs[0] if len(xs) == 1 else xs[0] - xs[1]
    if op in ("1+", "1-"):
        return "value", xs[0] + (1 if op == "1+" else -1)
    a, b = xs
    test = {"<": a < b, "<=": a <= b, "=": a == b}[op]
    return "value", T if test else NIL


_ints = hs.one_of(hs.integers(-5, 5), hs.integers(-2 ** 70, 2 ** 70),
                  hs.sampled_from([2 ** 64, 2 ** 64 + 1, -2 ** 64 - 1,
                                   2 ** 65 + 3]))
_others = hs.sampled_from([intern("A"), NIL, T, intern(":K"),
                           sexpr.Cons(1, 2), sexpr.Cons(intern("A"), NIL),
                           "", "s"])
# an argument: its value, and how it is written (0 literal, 1 quoted,
# 2 bound by the LET around the call)
_args = hs.tuples(hs.one_of(_ints, _ints, _others), hs.integers(0, 2))


def _call_form(op, drawn):
    """(the call of op on the drawn arguments, the form that runs it)."""
    bindings, args = [], []
    for i, (v, how) in enumerate(drawn):
        if how == 0 and type(v) is int or type(v) is str:
            args.append(v)
        elif how == 2:
            name = intern("X%d" % i)
            bindings.append(sexpr.from_pylist(
                [name, sexpr.from_pylist([intern("QUOTE"), v])]))
            args.append(name)
        else:
            args.append(sexpr.from_pylist([intern("QUOTE"), v]))
    call = sexpr.Cons(intern(op), sexpr.from_pylist(args))
    if not bindings:
        return call, call
    return call, sexpr.from_pylist([intern("LET"),
                                    sexpr.from_pylist(bindings), call])


@seed(20261018)
@settings(max_examples=200, database=None, deadline=None)
@given(hs.lists(_args, min_size=4, max_size=4), hs.integers(0, 4),
       hs.booleans())
def test_integer_builtins_match_a_model(drawn, count, guard_check):
    # every builtin on the first `count` arguments, clamped to its arity
    interps = [Interp(mode=mode, guard_check=guard_check)
               for mode in ("logical", "native")]
    for op, (lo, hi) in ARITIES.items():
        args = drawn[:min(max(count, lo), hi)]
        call, form = _call_form(op, args)
        want = _int_builtin_model(op, [v for v, _how in args], call,
                                  guard_check)
        for interp in interps:
            try:
                got = "value", interp.eval(form, None)
            except GuardViolation as exc:
                got = "error", str(exc)
            assert got == want, (interp.mode, show(form))


def test_mv_and_mv_let():
    interp = Interp()
    val = interp.eval_text("(mv 1 2 3)")[0][1]
    assert isinstance(val, sexpr.MultiValue)
    assert list(val.values) == [1, 2, 3]
    assert ev("(mv-let (a b) (mv 1 2) (+ a b))") == 3
    with pytest.raises(EvalError):
        ev("(mv 1)")
    with pytest.raises(LinearityError) as exc:
        ev("(mv-let (a b) 5 a)")
    assert "binds 2 names to 1 values" in str(exc.value)
    with pytest.raises(EvalError):
        ev("(mv-let (a) (mv 1 2) a)")
    # admission counts the values of a call through APPLY$ too: APPLY$
    # returns one value
    interp = Interp()
    interp.eval_text("(defun one () 5)")
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(mv-let (a b) (apply$ 'one nil) a)")
    assert exc.value.violations == [
        "R2: MV-LET binds 2 names to 1 values in "
        "(MV-LET (A B) (APPLY$ (QUOTE ONE) NIL) A)"]


def test_multiple_values_rejected_statically():
    # literal MV producers in single-value positions are caught before
    # evaluation by the top-level analysis pass
    with pytest.raises(LinearityError) as exc:
        ev("(let ((x (mv 1 2))) x)")
    assert "LET binds multiple values" in str(exc.value)
    with pytest.raises(LinearityError) as exc:
        ev("(if (mv 1 2) 1 2)")
    assert "not a single value in an IF test" in str(exc.value)
    with pytest.raises(LinearityError):
        ev("(+ (mv 1 2) 3)")


def test_multiple_values_rejected_dynamically():
    # route the producer through apply$ so the static pass cannot see the
    # arity; APPLY$ refuses a multi-valued function before it runs
    interp = Interp()
    interp.eval_text("(defun two () (mv 1 2))")
    for text in ("(let ((x (apply$ 'two nil))) x)",
                 "(if (apply$ 'two nil) 1 2)", "(+ (apply$ 'two nil) 3)",
                 "(mv (apply$ 'two nil) 3)"):
        with pytest.raises(EvalError) as exc:
            interp.eval_text(text)
        assert str(exc.value) == (
            "APPLY$ calls only a function of ordinary arguments that "
            "returns one ordinary value, not TWO in (APPLY$ (QUOTE TWO) NIL)")


def test_strings_and_integers_self_evaluate():
    assert ev("\"hi\"") == "hi"
    assert ev("-12") == -12
    assert ev(":kw") is intern(":KW")


def test_unbound_variable_and_undefined_function():
    with pytest.raises(EvalError) as exc:
        ev("some-var")
    assert "unbound variable SOME-VAR" in str(exc.value)
    with pytest.raises(EvalError) as exc:
        ev("(no-such-fn 1)")
    assert "undefined function NO-SUCH-FN" in str(exc.value)


def test_arity_errors():
    with pytest.raises(EvalError) as exc:
        ev("(car 1 2)")
    assert "CAR takes 1 argument, got 2" in str(exc.value)
    with pytest.raises(EvalError) as exc:
        ev("(- )")
    assert "- takes 1 to 2 arguments, got 0" in str(exc.value)
    with pytest.raises(EvalError) as exc:
        ev("(cons 1)")
    assert "CONS takes 2 arguments, got 1" in str(exc.value)


def test_do_only_forms_rejected_outside_loops():
    for bad, head in (("(progn 1 2)", "PROGN"), ("(setq x 1)", "SETQ"),
                      ("(return 3)", "RETURN"), ("(loop-finish)",
                                                 "LOOP-FINISH")):
        with pytest.raises(LinearityError) as exc:
            ev(bad)
        assert str(exc.value) == (
            "single-threadedness violation in this top-level form:\n"
            "  R1: %s is legal only inside DO and FINALLY bodies" % head)


def test_events_only_at_top_level():
    with pytest.raises(EvalError) as exc:
        ev("(let ((x 1)) (defun f (y) y))")
    assert "DEFUN is only legal at the top level" in str(exc.value)
    interp = Interp()
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(defun g (x) (defstobj st fld))")
    assert "DEFSTOBJ is only legal at the top level" in str(exc.value)


# ------------------------------------------------------------------- defun

def test_defun_and_call():
    interp, results = ev_all("""
      (defun square (x) (* x x))
      (square 7)
    """)
    assert results[0][1] is intern("SQUARE")
    assert results[1][1] == 49


def test_defun_recursion_with_measure():
    interp, results = ev_all("""
      (defun count-down (n)
        (declare (xargs :measure (nfix n) :guard (natp n)))
        (if (zp n) 0 (+ n (count-down (- n 1)))))
      (count-down 10)
    """)
    assert results[1][1] == 55


def test_recursion_without_measure_is_admitted_and_unchecked():
    interp = Interp(trace=True)
    interp.eval_text("""
      (defun tri (n) (if (zp n) 0 (+ n (tri (- n 1)))))
      (tri 5)
    """)
    # no measure declared, so nothing is recorded or enforced
    assert "TRI" not in interp.fn_measures


def test_dynamic_measure_violation_message():
    interp = Interp()
    interp.eval_text("""
      (defun run (n)
        (declare (xargs :measure (nfix n)))
        (if (zp n) 0 (run n)))
    """)
    with pytest.raises(MeasureViolation) as exc:
        interp.eval_text("(run 3)")
    assert str(exc.value).startswith(
        "measure of RUN failed to decrease: (3) is not below (3)")


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_measure_that_fails_only_at_the_first_recursive_call(mode):
    # the entry measure is compared too, not only those of later calls
    interp = Interp(mode=mode)
    interp.eval_text("(defun f (n) (declare (xargs :measure (nfix n))) "
                     "(if (equal n 5) 0 (f 5)))")
    assert interp.eval_text("(f 5)")[0][1] == 0
    with pytest.raises(MeasureViolation) as exc:
        interp.eval_text("(f 3)")
    assert str(exc.value).startswith(
        "measure of F failed to decrease: (5) is not below (3)")


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_guard_and_measure_terms_are_checked_at_admission(mode):
    interp = Interp(mode=mode)
    interp.eval_text("(defstobj st fld)")
    for text, violation in [
            ("(defun g (x) (declare (xargs :guard (mv x x))) x)",
             "R2: multiple values are not a single value in the :guard "
             "term"),
            ("(defun g (x) (declare (xargs :measure (nfix y))) x)",
             "R1: unbound variable Y in Y"),
            ("(defun g (st) (declare (xargs :stobjs (st) :measure st)) st)",
             "R1: stobj ST may not appear in the :measure term")]:
        with pytest.raises(LinearityError) as exc:
            interp.eval_text(text)
        assert exc.value.violations == [violation]
    assert not interp.world.functions


def test_defun_guard_checked_at_call():
    interp = Interp()
    interp.eval_text(
        "(defun half (n) (declare (xargs :guard (natp n))) n)")
    with pytest.raises(GuardViolation) as exc:
        interp.eval_text("(half -2)")
    assert "guard violation calling HALF: :guard (NATP N) failed" \
        in str(exc.value)
    off = Interp(guard_check=False)
    off.eval_text(
        "(defun half (n) (declare (xargs :guard (natp n))) n)")
    assert off.eval_text("(half -2)")[0][1] == -2


def test_defun_validation_errors():
    interp = Interp()
    with pytest.raises(EvalError):
        interp.eval_text("(defun f (x x) x)")
    with pytest.raises(EvalError):
        interp.eval_text("(defun f (x) x x)")
    with pytest.raises(EvalError):
        interp.eval_text("(defun car (x) x)")
    interp.eval_text("(defun g (x) x)")
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(defun g (x) x)")
    assert "the name G is already in use" in str(exc.value)


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_free_names_are_rejected_at_admission(monkeypatch, mode):
    # ACL2 admits no definition with a free variable, so no admitted
    # program fails at run time for an unbound name: not on a branch
    # that never runs, and not in a WITH init that reads a later WITH.
    interp = Interp(mode=mode)
    interp.eval_text("(defstobj st (tbl :type (stobj-table)))")
    evals = count_calls(monkeypatch, Interp, "eval")
    for text, name in [
            ("(defun g (x) (+ y x))", "Y"),
            ("(defun k () (loop$ with a = b with b = 1 do :measure 0 "
             "(return a)))", "B"),
            ("(defun s (l) (loop$ for x in l sum (+ x z)))", "Z"),
            ("(defun h (x) (if t x y))", "Y")]:
        with pytest.raises(LinearityError) as exc:
            interp.eval_text(text)
        assert exc.value.violations == ["R1: unbound variable %s in %s"
                                        % (name, name)]
    # A lambda is admitted when APPLY$ first meets it, with the text
    # that evaluating the name would give.
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(apply$ '(lambda (x) (+ x y)) '(1))")
    assert type(exc.value) is EvalError
    assert str(exc.value) == "unbound variable Y in Y"
    # A child that is its own parent hides the parent in the producer.
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(stobj-let ((st (tbl-get 'st st (create-st)))) "
                         "(n) (tbl-count st) n)")
    assert exc.value.violations == [
        "R1: TBL-COUNT expects the stobj ST in this position of "
        "(TBL-COUNT ST)"]
    assert not interp.world.functions
    # only the APPLY$ call ran: its quoted arguments are read in place
    assert [show(args[1]) for args in evals] == [
        "(APPLY$ (QUOTE (LAMBDA (X) (+ X Y))) (QUOTE (1)))"]


def test_stobj_formal_requires_declaration():
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(defun peek (st) (fld st))")
    assert ("the formal ST of PEEK is the name of a stobj; declare it "
            "with (declare (xargs :stobjs (ST)))") in str(exc.value)
    interp.eval_text(
        "(defun peek (st) (declare (xargs :stobjs (st))) (fld st))")
    assert interp.eval_text("(peek st)")[0][1] is NIL


def test_ignored_declare_clause_notes():
    out = io.StringIO()
    interp = Interp(out=out)
    interp.eval_text(
        "(defun f (x) (declare (ignore x) (xargs :mode :program)) 1)")
    text = out.getvalue()
    assert "; note: ignoring declare clause IGNORE in F" in text
    assert "; note: ignoring xargs :MODE in F" in text


# ------------------------------------------------------------------ apply$

def test_apply_with_quoted_lambda_and_symbol():
    assert ev("(apply$ '(lambda (x y) (+ x y)) '(3 4))") == 7
    interp = Interp()
    interp.eval_text("(defun twice (x) (* 2 x))")
    assert interp.eval_text("(apply$ 'twice '(21))")[0][1] == 42
    with pytest.raises(EvalError) as exc:
        ev("(apply$ '(lambda (x) x) '(1 2))")
    assert "lambda takes 1 argument, got 2" in str(exc.value)
    with pytest.raises(EvalError) as exc:
        ev("(apply$ '(1 2) '(3))")
    assert "not a function object" in str(exc.value)


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_a_lambda_without_formals_must_return_one_value(mode):
    with pytest.raises(LinearityError) as exc:
        ev("(apply$ '(lambda () (mv 1 2)) nil)", mode=mode)
    assert exc.value.violations == [
        "R2: multiple values are not a single value in a lambda body"]
    assert ev("(apply$ '(lambda () 7) nil)", mode=mode) == 7


# ----------------------------------------------------------- world and undo

def test_event_log_and_undo():
    interp = Interp()
    interp.eval_text("""
      (defun f (x) x)
      (defun g (x) (f x))
      (defstobj st fld)
    """)
    assert [ev_.kind for ev_ in interp.world.events] \
        == ["defun", "defun", "defstobj"]
    assert "ST" in interp.bank
    n = interp.undo(3)
    assert n == 1
    assert "ST" not in interp.bank
    assert interp.world.stobj_spec("ST") is None
    assert interp.eval_text("(g 5)")[0][1] == 5
    n = interp.undo(1)
    assert n == 2
    with pytest.raises(EvalError):
        interp.eval_text("(f 1)")
    with pytest.raises(EvalError):
        interp.undo(9)


def test_undo_frees_function_name_for_reuse():
    interp = Interp()
    interp.eval_text("(defun f (x) x)")
    interp.undo(1)
    interp.eval_text("(defun f (x) (+ x 1))")
    assert interp.eval_text("(f 1)")[0][1] == 2


# ------------------------------------------------------------------ latching

def test_top_level_update_latches_into_bank():
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    before = interp.bank["ST"]
    interp.eval_text("(update-fld 42 st)")
    assert interp.eval_text("(fld st)")[0][1] == 42
    if interp.mode == "logical":
        assert interp.bank["ST"] is not before


def test_top_level_discarded_update_rejected():
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(let ((st (update-fld 1 st))) (fld st))")
    assert "single-threadedness violation" in str(exc.value)
    assert "would be discarded" in str(exc.value)


def test_latch_through_mv():
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    # a stobj may only sit in an MV component as its own name
    interp.eval_text("(let ((st (update-fld 9 st))) (mv 'ok st))")
    assert interp.eval_text("(fld st)")[0][1] == 9
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(mv 'ok (update-fld 10 st))")
    assert "must be returned by name" in str(exc.value)


def test_call_head_must_be_symbol():
    with pytest.raises(LinearityError) as exc:
        ev("((lambda (x) x) 1)")
    assert str(exc.value) == (
        "single-threadedness violation in this top-level form:\n"
        "  R1: call head must be a symbol in ((LAMBDA (X) X) 1)")


def test_modes_agree_on_pure_programs():
    program = """
      (defun fib (n)
        (declare (xargs :guard (natp n) :measure (nfix n)))
        (if (zp n) 0 (if (zp (1- n)) 1 (+ (fib (1- n)) (fib (- n 2))))))
      (fib 12)
    """
    a = Interp(mode="logical")
    b = Interp(mode="native")
    va = a.eval_text(program)[-1][1]
    vb = b.eval_text(program)[-1][1]
    assert va == vb == 144
