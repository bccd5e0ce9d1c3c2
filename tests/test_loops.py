"""Loop tests: the measure algebra, measure guessing, the DO statement
grammar, both execution paths (checked against each other and against
Python reference evaluations), guards, traces, and FOR loops."""

import itertools
import random

import pytest
from hypothesis import given, seed, settings, strategies as hs

from conftest import count_calls
from stlisp import cli, loops, sexpr, stobjs
from stlisp.errors import (CapExceeded, EvalError, GuardViolation,
                           LinearityError, MeasureViolation)
from stlisp.kernel import Interp
from stlisp.loops import OfTypeViolation, l_less, lex_fix, lex_show
from stlisp.sexpr import NIL, T, MultiValue, intern, read, show


def run_both(text, setup="", **kw):
    """Evaluate in logical and native mode; insist the results agree."""
    outs = []
    for mode in ("logical", "native"):
        interp = Interp(mode=mode, **kw)
        if setup:
            interp.eval_text(setup)
        outs.append(interp.eval_text(text)[-1][1])
    a, b = outs
    if isinstance(a, MultiValue):
        assert isinstance(b, MultiValue) and len(a.values) == len(b.values)
        for x, y in zip(a.values, b.values):
            assert values_equal(x, y)
    else:
        assert values_equal(a, b)
    return a


def values_equal(x, y):
    from stlisp.stobjs import StobjInstance
    if isinstance(x, StobjInstance) or isinstance(y, StobjInstance):
        return (isinstance(x, StobjInstance) and isinstance(y, StobjInstance)
                and sexpr.equal(x.logical_view(), y.logical_view()))
    return sexpr.equal(x, y)


# ----------------------------------------------------------- measure algebra

def test_lex_fix_cases():
    assert lex_fix(4) == (4,)
    assert lex_fix(0) == (0,)
    assert lex_fix(-3) == (0,)
    assert lex_fix(NIL) == ()
    assert lex_fix(read("(4)")) == (4,)
    assert lex_fix(read("(2 x)")) == (2, 0)
    assert lex_fix(read("(3 1 2)")) == (3, 1, 2)
    assert lex_fix(read("(1 . 2)")) == (0,)
    assert lex_fix("text") == (0,)
    assert lex_fix(read("(-1 5)")) == (0, 5)


def test_l_less_spec_cases():
    assert l_less((2,), (1, 0))        # shorter always below longer
    assert not l_less((1, 0), (2,))
    assert l_less((), (0,))
    assert l_less((1, 1), (1, 2))
    assert not l_less((1, 2), (1, 2))
    assert l_less((0, 9, 9), (1, 0, 0))


def test_l_less_is_the_length_then_lex_order():
    # independent oracle: sort key (length, tuple)
    domain = [()]
    for n in (1, 2, 3):
        domain += list(itertools.product(range(4), repeat=n))
    key = lambda t: (len(t), t)
    for a in domain:
        assert not l_less(a, a)
        for b in domain:
            assert l_less(a, b) == (key(a) < key(b))
            if l_less(a, b):
                assert not l_less(b, a)
    # strict total order on a finite set has no infinite descending chain
    ranked = sorted(domain, key=key)
    for lo, hi in zip(ranked, ranked[1:]):
        assert l_less(lo, hi)


def test_lex_show():
    assert lex_show((3, 1)) == "(3 1)"
    assert lex_show(()) == "()"


# ---------------------------------------------------------- measure guessing

def plan(text, world=None):
    w = world or Interp().world
    return loops.make_do_plan(loops.parse_loop(read(text), w), w)


def guess(text):
    return show(plan(text).measure_form)


def test_guess_measure_numeric_and_cdr_steps():
    assert guess("(loop$ with i = 5 do (if (zp i) (return 0) "
                 "(setq i (1- i))))") == "(NFIX I)"
    assert guess("(loop$ with i = 9 do (if (zp i) (return 0) "
                 "(setq i (- i 3))))") == "(NFIX I)"
    assert guess("(loop$ with lst = '(1 2) do (if (consp lst) "
                 "(setq lst (cdr lst)) (return 0)))") == "(LEN LST)"


def test_guess_measure_counting_up_fails():
    assert "cannot guess a :MEASURE" in plan_error(
        "(loop$ with i = 0 do (if (= i 5) (return i) (setq i (1+ i))))")


def test_guess_measure_needs_exactly_one_candidate():
    # two stepped candidates
    assert "cannot guess a :MEASURE" in plan_error(
        "(loop$ with i = 5 with j = 5 do (if (zp i) (return j) "
        "(progn (setq i (1- i)) (setq j (1- j)))))")
    # no candidates at all
    assert "cannot guess a :MEASURE" in plan_error(
        "(loop$ with x = 0 do (return x))")


def test_guess_measure_skips_mv_setq_targets():
    # n is the only simple candidate; a and b step through MV-SETQ
    assert guess("(loop$ with n = 9 with a = 0 with b = 1 do "
                 "(if (zp n) (return a) (progn (mv-setq (a b) "
                 "(mv b (+ a b))) (setq n (1- n)))))") == "(NFIX N)"
    # the same pair without a simple companion is not guessable
    assert "cannot guess a :MEASURE" in plan_error(
        "(loop$ with a = 0 with b = 1 do (if (< 100 a) (return a) "
        "(mv-setq (a b) (mv b (+ a b)))))")
    # an MV-SETQ target stays out, before or after a SETQ that steps it
    for steps in ("(mv-setq (a b) (mv b a)) (setq a (1- a))",
                  "(setq a (1- a)) (mv-setq (a b) (mv b a))"):
        assert guess("(loop$ with n = 9 with a = 5 with b = 1 do "
                     "(if (zp n) (return a) (progn %s (setq n (1- n)))))"
                     % steps) == "(NFIX N)"


def test_guessed_measure_mixed_step_kinds_disqualify():
    assert "cannot guess a :MEASURE" in plan_error(
        "(loop$ with i = 5 do (if (zp i) (return 0) "
        "(if (consp i) (setq i (cdr i)) (setq i (1- i)))))")
    # in either order: beside it, the one clean variable is the guess
    for steps in ("(setq i (cdr i)) (setq i (1- i))",
                  "(setq i (1- i)) (setq i (cdr i))"):
        assert guess("(loop$ with n = 3 with i = 5 do (if (zp n) (return 0) "
                     "(progn (setq n (1- n)) (if (consp i) %s))))"
                     % steps) == "(NFIX N)"


def test_a_values_stobj_is_never_a_measure_candidate():
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    text = ("(loop$ with i = 3 do :values (nil st) (if (zp i) "
            "(return (mv i st)) (progn (setq st (1- st)) %s)))")
    assert show(plan(text % "(setq i (1- i))", interp.world).measure_form) \
        == "(NFIX I)"
    assert "cannot guess a :MEASURE" in plan_error(text % "(setq i i)",
                                                   interp.world)


# ----------------------------------------------------------- grammar errors

def plan_error(text, world=None):
    w = world or Interp().world
    spec = loops.parse_loop(read(text), w)
    with pytest.raises(EvalError) as exc:
        loops.make_do_plan(spec, w)
    assert type(exc.value) is EvalError
    return str(exc.value)


def parse_error(text, world=None):
    with pytest.raises(EvalError) as exc:
        loops.parse_loop(read(text), world or Interp().world)
    assert type(exc.value) is EvalError
    return str(exc.value)


def test_parse_errors():
    assert "duplicate WITH variable X" in parse_error(
        "(loop$ with x = 0 with x = 1 do (return x))")
    assert "expected DO after the WITH clauses" in parse_error(
        "(loop$ with x = 0 (return x))")
    assert "DO loop has no body" in parse_error(
        "(loop$ with x = 0 do :measure (nfix x))")
    assert "expected FINALLY and a body after the DO body" in parse_error(
        "(loop$ with x = 0 do (return x) (return x))")
    assert "unexpected trailing forms" in parse_error(
        "(loop$ with x = 0 do (return x) finally (return x) 3)")
    assert "OF-TYPE supports INTEGER and T only" in parse_error(
        "(loop$ with x of-type string = 0 do (return x))")
    assert "duplicate :MEASURE" in parse_error(
        "(loop$ with x = 0 do :measure 1 :measure 2 (return x))")
    assert ":VALUES may not be empty" in parse_error(
        "(loop$ with x = 0 do :values nil (return x))")
    assert ":VALUES entries must be NIL or a defined stobj, got FOO" \
        in parse_error("(loop$ with x = 0 do :values (foo) (return x))")
    assert "WITH X = needs a value" in parse_error("(loop$ with x =)")
    assert ":MEASURE needs a value" in parse_error(
        "(loop$ with x = 0 do :measure)")
    assert "bad WITH variable :K" in parse_error(
        "(loop$ with :k = 0 do (return 1))")


def test_with_may_not_bind_stobj_name():
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    msg = parse_error("(loop$ with st = 0 do (return st))", interp.world)
    assert "WITH may not bind the stobj name ST; stobjs enter a DO loop " \
        "through :VALUES" in msg


def test_statement_grammar_errors():
    assert "a bare variable is not a statement in a DO body: X" \
        in plan_error("(loop$ with x = 0 do :measure 0 x)")
    assert "is not a statement; a DO body is built from" \
        in plan_error("(loop$ with x = 0 do :measure 0 (+ x 1))")
    assert "RETURN must be the final form of its PROGN" \
        in plan_error("(loop$ with x = 0 do :measure 0 "
                      "(progn (return x) (setq x 1)))")
    assert "a LET before the end of a PROGN has no effect" \
        in plan_error("(loop$ with x = 0 do :measure 0 "
                      "(progn (let ((y 1)) (setq x y)) (return x)))")
    assert "only SETQ, MV-SETQ, IF, and PROGN may precede" \
        in plan_error("(loop$ with x = 0 do :measure 0 "
                      "(progn 5 (return x)))")
    assert "MV-SETQ needs two or more variables" \
        in plan_error("(loop$ with x = 0 with y = 0 do :measure 0 "
                      "(mv-setq (x) (mv 1)))")
    assert "duplicate MV-SETQ target" \
        in plan_error("(loop$ with x = 0 with y = 0 do :measure 0 "
                      "(mv-setq (x x) (mv 1 2)))")
    assert "RETURN takes exactly one form" \
        in plan_error("(loop$ with x = 0 do :measure 0 (return))")
    assert "LOOP-FINISH takes no arguments" \
        in plan_error("(loop$ with x = 0 do :measure 0 (loop-finish 3))")
    assert "LOOP-FINISH is not legal in a FINALLY clause" \
        in plan_error("(loop$ with x = 0 do :measure 0 (return x) "
                      "finally (loop-finish))")
    assert plan_error("(loop$ with i = 0 do :measure 0 (setq i))") == \
        "SETQ takes a variable and a value: (SETQ I) in (SETQ I)"


# A dotted PROGN or SETQ is refused before any statement in it is parsed.
@pytest.mark.parametrize("body, dotted", [
    ("(progn . 2)", "(PROGN . 2)"),
    ("(setq . 2)", "(SETQ . 2)"),
    ("(progn (setq i (1- i)) . 2)", "(PROGN (SETQ I (1- I)) . 2)"),
    ("(setq i (1- i) . 2)", "(SETQ I (1- I) . 2)"),
    ("(progn (return i) (setq i 0) . 2)", "(PROGN (RETURN I) (SETQ I 0) . 2)"),
    ("(progn (progn . 2) (return i))", "(PROGN . 2)")])
def test_a_dotted_progn_or_setq_is_not_a_proper_list(body, dotted):
    assert plan_error("(loop$ with i = 0 do :measure 0 %s)" % body) == \
        "argument list is not a proper list in %s" % dotted


# Which names a statement may set or bind is a scope rule, checked by the
# analyzer: one line for the one fault, and the rest of the statement is
# not checked.
@pytest.mark.parametrize("body, text", [
    ("(let ((x 1)) (return x))",
     "a statement-position LET may not rebind the settable variable X; use "
     "SETQ in (LET ((X 1)) (RETURN X))"),
    ("(let* ((y 1) (st 0)) (return (mv y st)))",
     "a statement-position LET* may not rebind the settable variable ST; "
     "use SETQ in (LET* ((Y 1) (ST 0)) (RETURN (MV Y ST)))"),
    ("(mv-let (x y) (mv 1 2) (return x))",
     "a statement-position MV-LET may not rebind the settable variable X; "
     "use MV-SETQ in (MV-LET (X Y) (MV 1 2) (RETURN X))"),
    ("(setq y (car st))",
     "SETQ target Y is not settable (settable variables here: X ST) in "
     "(SETQ Y (CAR ST))"),
    ("(mv-setq (x z) (mv 1 2))",
     "MV-SETQ target Z is not settable in (MV-SETQ (X Z) (MV 1 2))"),
])
def test_statement_scope_errors(body, text):
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(loop$ with x = 0 do :values (nil st) :measure 0 "
                         "%s)" % body)
    assert exc.value.violations == ["R1: " + text]


def test_a_statement_that_is_not_a_form_is_refused_at_admission():
    with pytest.raises(LinearityError) as exc:
        Interp().eval_text("(loop$ with x = 1 do ((x)))")
    assert exc.value.violations == [
        "R1: not a DO-body statement: ((X)) in ((X))"]


# A grammar fault stops the statement parser, so it is the one line for
# its body: the FINALLY body's non-settable Y goes unreported.  A DO body
# parsed before it keeps its own lines.
@pytest.mark.parametrize("do_setq, lines", [
    ("(setq i (1- i))", []),
    ("(setq z (1- i))", ["R1: SETQ target Z is not settable (settable "
                         "variables here: I J) in (SETQ Z (1- I))"]),
])
def test_a_grammar_fault_is_the_one_line_for_its_body(do_setq, lines):
    with pytest.raises(LinearityError) as exc:
        Interp().eval_text(
            "(loop$ with i = 4 with j = 0 do (if (zp i) (return j) %s) "
            "finally (progn (setq y (+ i 1)) (loop-finish)))" % do_setq)
    assert exc.value.violations == [
        "R1: LOOP-FINISH is not legal in a FINALLY clause in (LOOP-FINISH)"
    ] + lines


@pytest.mark.parametrize("branch, text", [
    ("(return x)", "RETURN must be the final form of its PROGN"),
    ("(progn (setq x 1) (loop-finish))",
     "LOOP-FINISH must be the final form of its PROGN"),
    ("(let ((y 1)) (setq x y))",
     "a LET before the end of a PROGN has no effect"),
    ("5", "only SETQ, MV-SETQ, IF, and PROGN may precede the final form of "
     "a PROGN, got 5"),
])
def test_statement_grammar_errors_inside_an_if_that_is_not_last(branch,
                                                                text):
    for body in ("(if (zp x) %s)" % branch,
                 "(if (zp x) (setq x 1) (if x %s))" % branch):
        assert text in plan_error("(loop$ with x = 0 do :measure 0 "
                                  "(progn %s (return x)))" % body)


def test_a_statement_let_binds_each_name_to_its_own_value():
    # a DO-body LET of two bindings, each read in its body
    assert run_both("(loop$ with x = 2 with y = 0 do :measure (nfix x) "
                    "(if (zp x) (return y) (let ((a 10) (b 1)) "
                    "(progn (setq y (+ y (- a b))) (setq x (1- x))))))") \
        == 18


def ifs_before_the_last_form(k):
    """A 3-iteration DO loop with k one-armed IFs before its last form."""
    return ("(loop$ with x = 3 with y = 0 do :measure (nfix x) "
            "(if (zp x) (return y) (progn %s (setq x (1- x)))))"
            % " ".join("(if (< x %d) (setq y (+ y 1)))" % (i % 5)
                       for i in range(k)))


def test_each_do_statement_is_parsed_once(monkeypatch):
    calls = count_calls(monkeypatch, loops, "if_parts")
    assert Interp().eval(read(ifs_before_the_last_form(12)), None) == 12
    # the outer IF and the 12 IFs of the PROGN, each read once
    assert len(calls) == 1 + 12


@pytest.mark.parametrize("k", [4, 8, 12])
def test_each_do_subexpression_is_analyzed_once(monkeypatch, k):
    calls = count_calls(monkeypatch, stobjs.Analyzer, "analyze")
    Interp().eval_text(ifs_before_the_last_form(k))
    # the loop 1, its two WITH values 2, (nfix x) 2, (zp x) 2,
    # (return y) 1, each IF's (< x i) 3 and (+ y 1) 3, (1- x) 2
    assert len(calls) == 1 + 2 + 2 + 2 + 1 + 6 * k + 2


def test_forty_ifs_run_alike_in_both_modes_and_diff(capsys, tmp_path):
    text = ifs_before_the_last_form(40)
    assert run_both(text) == sum(x < i % 5 for x in (1, 2, 3)
                                 for i in range(40))
    f = tmp_path / "ifs.lisp"
    f.write_text(text + "\n")
    assert cli.main(["diff", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] \
        == "equivalent (1 forms, 0 stobjs)"


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_do_if_test_has_the_evaluators_texts(mode):
    # an IF test in a DO body and outside one: one analyzer rule, one text
    interp = Interp(mode=mode)
    interp.eval_text("(defstobj st fld)")
    for form, text in [
            ("(if (mv 1 2) 1 2)",
             "R2: multiple values are not a single value in an IF test"),
            ("(loop$ with x = 0 do :measure 0 "
             "(if (mv 1 2) (return 1) (return 2)))",
             "R2: multiple values are not a single value in an IF test"),
            ("(loop$ with x = 0 do :measure 0 :values (st) "
             "(if st (return st) (return st)))",
             "R1: stobj ST may not appear in an IF test")]:
        with pytest.raises(LinearityError) as exc:
            interp.eval_text(form)
        assert exc.value.violations == [text]


def admission_error(text):
    """The text of the LinearityError that admitting text raises, the
    same in both modes."""
    texts = set()
    for mode in ("logical", "native"):
        with pytest.raises(LinearityError) as exc:
            Interp(mode=mode).eval_text(text)
        texts.add(str(exc.value))
    assert len(texts) == 1
    return texts.pop()


def test_expression_level_rejections():
    assert "R1: SETQ is a statement and may not appear inside a DO-body " \
        "expression" in admission_error(
            "(loop$ with x = 0 do :measure 0 (setq x (setq x 1)))")
    assert "R1: LOOP$ is not supported inside a DO body" in admission_error(
        "(loop$ with x = 0 do :measure 0 "
        "(setq x (loop$ for y in '(1) sum y)))")
    assert "R1: STOBJ-LET is not supported inside a DO body" \
        in admission_error(
            "(loop$ with x = 0 do :measure 0 (setq x (stobj-let "
            "((a (tbl-get 'a top (create-a)))) (v) (f a) v)))")
    msg = admission_error(
        "(loop$ with x = 0 do :measure 0 (setq x (+ x free)))")
    assert "R1: FREE is not bound in a DO-body expression " \
        "(settable variables: X)" in msg
    assert "R1: ZZ is not bound in :MEASURE" in admission_error(
        "(loop$ with x = 0 do :measure (nfix zz) (return x))")


FREE_EVERYWHERE = ("(loop$ with x = 3 do :guard (natp g) :measure (nfix m) "
                   "(if (zp x) (loop-finish) (setq x (- x d))) "
                   "finally (return (+ x f)))")


def test_every_scope_fault_of_a_loop_is_listed(capsys, tmp_path):
    assert admission_error(FREE_EVERYWHERE).splitlines()[1:] == [
        "  R1: G is not bound in :GUARD (settable variables: X) in G",
        "  R1: M is not bound in :MEASURE (settable variables: X) in M",
        "  R1: D is not bound in a DO-body expression (settable variables: "
        "X) in D",
        "  R1: F is not bound in a DO-body expression (settable variables: "
        "X) in F"]
    f = tmp_path / "free.lisp"
    f.write_text(FREE_EVERYWHERE + "\n")
    assert cli.main(["diff", str(f)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("form 1 skipped (LinearityError in both modes: "
                          "single-threadedness violation in this top-level "
                          "form:")
    assert out.splitlines()[-1] == "equivalent (1 forms, 0 stobjs)"


def test_an_unguessable_measure_is_reported_before_scope_faults():
    # ... and the body is still checked
    lines = admission_error("(loop$ with i = 0 do (if (= i 5) (return free) "
                            "(setq i (1+ i))))").splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("  R1: cannot guess a :MEASURE for this DO "
                               "loop")
    assert lines[2] == ("  R1: FREE is not bound in a DO-body expression "
                        "(settable variables: I) in FREE")


def test_a_loop_without_a_guessable_measure_still_has_its_body_checked():
    text = "(loop$ with i = 0 do (return (if i)))"
    assert admission_error(text).splitlines()[1:] == [
        "  R1: cannot guess a :MEASURE for this DO loop (no single WITH "
        "variable is stepped only by 1-/-/cdr of itself); supply :MEASURE "
        "in %s" % show(read(text)),
        "  R1: IF takes a test and one or two branches in (IF I)"]


def test_a_dotted_step_is_no_measure():
    text = "(loop$ with i = 3 do (if (zp i) (return 0) (setq i (1- i . 3))))"
    # in a defun the analyzer collects both: no measure is guessed from the
    # step, and the step is rejected as the evaluator rejects any dotted call
    with pytest.raises(LinearityError) as exc:
        Interp().eval_text("(defun f () %s)" % text)
    assert exc.value.violations == [
        "R1: cannot guess a :MEASURE for this DO loop (no single WITH "
        "variable is stepped only by 1-/-/cdr of itself); supply :MEASURE "
        "in %s" % show(read(text)),
        "R1: argument list is not a proper list in (1- I . 3)"]
    # at the top level the dotted call raises at once, with or without a
    # measure
    for mode in ("logical", "native"):
        for loop in (text, text.replace(" do ", " do :measure i ")):
            with pytest.raises(EvalError) as exc:
                Interp(mode=mode).eval_text(loop)
            assert str(exc.value) == ("argument list is not a proper list "
                                      "in (1- I . 3)")


RETURN_SHAPES = [
    ("", "(mv x 1)",
     ["R2: (RETURN (MV X 1)) needs values shaped (*), got (* *)"]),
    (":values (nil st)", "x",
     ["R2: (RETURN X) needs values shaped (* ST), got (*)"]),
    (":values (nil st)", "(mv x 1 2)",
     ["R2: (RETURN (MV X 1 2)) needs values shaped (* ST), got (* * *)"]),
    (":values (nil st)", "(mv x (update-fld 1 st))",
     ["R1: stobj ST may not appear in an MV component (a stobj must be "
      "returned by name)",
      "R2: (RETURN (MV X (UPDATE-FLD 1 ST))) needs values shaped (* ST), "
      "got (* *)"]),
]


def test_return_shape_validation():
    # the analyzer's R2 alone shapes a RETURN
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    for values, ret, texts in RETURN_SHAPES:
        with pytest.raises(LinearityError) as exc:
            interp.eval_text("(loop$ with x = 0 do %s :measure 0 "
                             "(return %s))" % (values, ret))
        assert exc.value.violations == texts
    assert "stobj ST appears twice in :VALUES" in parse_error(
        "(loop$ with x = 0 do :values (st st) :measure 0 "
        "(return (mv st st)))", interp.world)


@pytest.mark.parametrize("mode", ["logical", "native"])
@pytest.mark.parametrize("guards", [True, False])
def test_a_return_may_be_a_call_of_the_values_shape(mode, guards):
    interp = Interp(mode=mode, guard_check=guards)
    interp.eval_text("(defstobj st fld) "
                     "(defun two (x st) (declare (xargs :stobjs (st))) "
                     "(let ((st (update-fld x st))) (mv x st)))")
    out = interp.eval_text("(loop$ with x = 0 do :values (nil st) "
                           ":measure 0 (return (two 7 st)))")[-1][1]
    assert show(out) == "(7 <ST>)"
    assert show(interp.bank["ST"].logical_view()) == "(7)"


def test_loop_finish_without_finally_cannot_yield_stobjs():
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    msg = plan_error("(loop$ with x = 0 do :values (nil st) :measure 0 "
                     "(if (zp x) (loop-finish) (return (mv x st))))",
                     interp.world)
    assert "LOOP-FINISH without a FINALLY clause cannot produce the " \
        "stobjs named in :VALUES" in msg


def test_bad_loops_are_rejected_before_evaluation():
    # through the interpreter the static pass reports them
    interp = Interp()
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(loop$ with x = 0 do :measure 0 (setq y 1))")
    assert "SETQ target Y is not settable" in str(exc.value)


# ------------------------------------------------------------- DO execution

def test_countdown_sum():
    assert run_both("(loop$ with i = 10 with acc = 0 do "
                    "(if (zp i) (return acc) (progn (setq acc (+ acc i)) "
                    "(setq i (1- i)))))") == 55


def test_sum_of_squares_list_walk():
    v = run_both("""
      (loop$ with sum = 0
             with lst = '(1 2 3 4)
             do
             (if (consp lst)
                 (progn (setq sum (+ (* (car lst) (car lst)) sum))
                        (setq lst (cdr lst)))
               (return sum)))
    """)
    assert v == 30


def test_explicit_measure_and_finally():
    v = run_both("""
      (loop$ with i = 1 with sum = 0
             do :measure (nfix (- 6 i))
             (if (< 5 i) (loop-finish)
                 (progn (setq sum (+ sum (* 2 i))) (setq i (1+ i))))
             finally (return sum))
    """)
    assert v == 30


def test_finally_falls_through_to_nil():
    v = run_both("(loop$ with i = 2 do (if (zp i) (loop-finish) "
                 "(setq i (1- i))) finally (setq i 99))")
    assert v is NIL


def test_loop_finish_without_finally_returns_nil():
    v = run_both("(loop$ with i = 3 do (if (zp i) (loop-finish) "
                 "(setq i (1- i))))")
    assert v is NIL


def test_one_armed_if_keeps_looping():
    v = run_both("(loop$ with i = 4 with seen = nil do "
                 "(progn (if (equal i 2) (setq seen t)) "
                 "(if (zp i) (return seen) (setq i (1- i)))))")
    assert v is T


def test_fibonacci_with_mv_setq():
    v = run_both("(loop$ with n = 10 with a = 0 with b = 1 do "
                 "(if (zp n) (return a) (progn "
                 "(mv-setq (a b) (mv b (+ a b))) (setq n (1- n)))))")
    assert v == 55


def test_subtraction_gcd_with_explicit_measure():
    v = run_both("(loop$ with a = 12 with b = 18 do :measure (+ a b) "
                 "(if (= a b) (return a) "
                 "(if (< a b) (setq b (- b a)) (setq a (- a b)))))")
    assert v == 6


def test_let_and_mv_let_inside_bodies():
    v = run_both("""
      (loop$ with i = 3 with acc = 0
             do
             (if (zp i)
                 (return acc)
               (let* ((sq (* i i)) (bump (+ sq 1)))
                 (progn (setq acc (+ acc bump)) (setq i (1- i))))))
    """)
    assert v == 17  # (9+1) + (4+1) + (1+1)
    v = run_both("""
      (defun split (n) (mv (* 2 n) (1+ n)))
      (loop$ with i = 2 with acc = 0
             do
             (if (zp i)
                 (return acc)
               (mv-let (dub nxt) (split i)
                 (progn (setq acc (+ acc dub nxt)) (setq i (1- i))))))
    """)
    assert v == 11  # (4+3) + (2+2)


def test_mv_let_inside_a_do_body_expression():
    v = run_both("""
      (loop$ with i = 3 with acc = 0
             do
             (if (zp i)
                 (return acc)
               (progn (setq acc (mv-let (a b) (mv i 10) (+ acc a b)))
                      (setq i (1- i)))))
    """)
    assert v == 36  # (3+10) + (2+10) + (1+10)
    # the names it binds are not in scope after it
    with pytest.raises(LinearityError, match="A is not bound in a DO-body "
                                             "expression"):
        Interp().eval_text("(loop$ with i = 0 do :measure 0 (return (cons "
                           "(mv-let (a b) (mv 1 2) b) a)))")


def test_init_defaults_to_nil():
    v = run_both("(loop$ with x do :measure 0 (return x))")
    assert v is NIL


def test_multiple_plain_values():
    v = run_both("(loop$ with i = 1 do :values (nil nil) :measure (nfix i) "
                 "(if (zp i) (return (mv 7 8)) (setq i (1- i))))")
    assert isinstance(v, MultiValue)
    assert list(v.values) == [7, 8]


def test_quoted_data_is_inert_in_bodies():
    v = run_both("(loop$ with l = '(a b c) with n = 0 do "
                 "(if (consp l) (progn (setq n (1+ n)) (setq l (cdr l))) "
                 "(return (cons 'done n))))")
    assert show(v) == "(DONE . 3)"


# ------------------------------------------------- WITH scoping and exits

@pytest.mark.parametrize("mode", ["logical", "native"])
def test_a_with_init_sees_the_earlier_with_names_only(mode):
    interp = Interp(mode=mode)
    # the first init reads the formal B, the second the WITH variable A
    interp.eval_text("(defun f (b) (loop$ with a = b with b = (+ a 1) do "
                     ":measure 0 (return (+ (* 10 a) b))))")
    assert interp.eval_text("(f 5)")[0][1] == 56
    assert interp.eval_text("(loop$ with a = 1 with b = a do :measure 0 "
                            "(return (+ a b)))")[0][1] == 2
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(loop$ with a = b with b = 1 do :measure 0 "
                         "(return a))")
    assert str(exc.value) == "unbound variable B in B"


@pytest.mark.parametrize("mode", ["logical", "native"])
@pytest.mark.parametrize("finally_", ["", " finally (progn)"])
def test_plain_values_fall_through_to_nils(mode, finally_):
    out = Interp(mode=mode).eval_text(
        "(loop$ with i = 2 do :values (nil nil) :measure (nfix i) "
        "(if (zp i) (loop-finish) (setq i (1- i)))%s)" % finally_)[0][1]
    assert isinstance(out, MultiValue)
    assert show(out) == "(NIL NIL)"


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_a_finally_that_falls_through_cannot_yield_a_stobj(mode):
    interp = Interp(mode=mode)
    interp.eval_text(STOBJ_SETUP)
    text = ("(loop$ with i = 1 do :values (st) (if (zp i) (loop-finish) "
            "(setq i (1- i))) finally (setq i 0))")
    with pytest.raises(EvalError) as exc:
        interp.eval_text(text)
    assert str(exc.value) == (
        "the FINALLY clause fell through without RETURN, but :VALUES names "
        "stobjs in " + show(read(text)))


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_an_unadmitted_return_of_a_stobj_in_an_ordinary_slot(mode):
    interp = Interp(mode=mode)
    interp.eval_text(STOBJ_SETUP)
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(loop$ with i = 0 do :values (nil st) :measure 0 "
                         "(return (mv st st)))")
    assert exc.value.violations == [
        "R3: stobj ST appears twice in (MV ST ST)",
        "R2: (RETURN (MV ST ST)) needs values shaped (* ST), got (ST ST)"]


# --------------------------------------------------------------- stobj loops

STOBJ_SETUP = "(defstobj st fld)"


def test_stobj_loop_collects_into_field():
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        interp.eval_text(STOBJ_SETUP)
        out = interp.eval_text("""
          (loop$ with i = 4 with sum = 0
                 do :values (nil st)
                 (if (zp i)
                     (return (mv sum st))
                   (progn
                     (setq st (update-fld (cons (* i i) (fld st)) st))
                     (setq sum (+ sum i))
                     (setq i (1- i)))))
        """)[0][1]
        assert isinstance(out, MultiValue)
        assert out.values[0] == 10
        assert show(interp.eval_text("(fld st)")[0][1]) == "(1 4 9 16)"


def test_stobj_loop_single_stobj_signature():
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        interp.eval_text(STOBJ_SETUP)
        interp.eval_text("""
          (loop$ with i = 3
                 do :values (st)
                 (if (zp i)
                     (return st)
                   (progn (setq st (update-fld (cons i (fld st)) st))
                          (setq i (1- i)))))
        """)
        assert show(interp.eval_text("(fld st)")[0][1]) == "(1 2 3)"


def test_stobj_loop_finally_returns_stobj():
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        interp.eval_text(STOBJ_SETUP)
        out = interp.eval_text("""
          (loop$ with i = 2
                 do :values (nil st)
                 (if (zp i)
                     (loop-finish)
                   (progn (setq st (update-fld (cons i (fld st)) st))
                          (setq i (1- i))))
                 finally (return (mv (fld st) st)))
        """)[0][1]
        assert show(out.values[0]) == "(1 2)"


def test_stobj_loop_fallthrough_with_stobj_values_errors():
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        interp.eval_text(STOBJ_SETUP)
        with pytest.raises(EvalError) as exc:
            interp.eval_text("""
              (loop$ with i = 1
                     do :values (nil st)
                     (if (zp i) (loop-finish) (setq i (1- i)))
                     finally (setq i 0))
            """)
        assert "the FINALLY clause fell through without RETURN, but " \
            ":VALUES names stobjs" in str(exc.value)


def test_loop_inside_defun_with_stobj():
    text = STOBJ_SETUP + """
      (defun fill-squares (n st)
        (declare (xargs :stobjs (st) :guard (natp n)))
        (loop$ with i = n
               do :values (st) :guard (natp i)
               (if (zp i)
                   (return st)
                 (progn (setq st (update-fld (cons (* i i) (fld st)) st))
                        (setq i (1- i))))))
      (fill-squares 4 st)
      (fld st)
    """
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        vals = interp.eval_text(text)
        assert show(vals[-1][1]) == "(1 4 9 16)"


# ------------------------------------------------------- guards and of-type

def test_of_type_violation_same_class_and_message_both_modes():
    for step in ("(setq i (if (= i 2) 'oops (1- i)))",
                 "(mv-setq (i j) (mv (if (= i 2) 'oops (1- i)) j))"):
        msgs = []
        for mode in ("logical", "native"):
            interp = Interp(mode=mode)
            with pytest.raises(OfTypeViolation) as exc:
                interp.eval_text(
                    "(loop$ with i of-type integer = 3 with j = 0 do "
                    ":measure (nfix i) (if (zp i) (return i) %s))" % step)
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]
        assert "OF-TYPE violation: I = OOPS is not an INTEGER" in msgs[0]
        assert "(iteration 2)" in msgs[0]
        assert msgs[0].endswith(" in " + show(read(step)))


def test_of_type_checks_initial_value():
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        with pytest.raises(OfTypeViolation) as exc:
            interp.eval_text("(loop$ with i of-type integer = 'a do "
                             ":measure 0 (return i))")
        assert "(iteration 0)" in str(exc.value)


def test_of_type_t_is_unchecked():
    assert run_both("(loop$ with x of-type t = 'sym do :measure 0 "
                    "(return x))") is intern("SYM")


def test_of_type_off_when_guards_off():
    assert run_both(
        "(loop$ with i of-type integer = 'a do :measure 0 (return i))",
        guard_check=False) is intern("A")


def test_loop_guard_failure_both_modes():
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        with pytest.raises(GuardViolation) as exc:
            interp.eval_text(
                "(loop$ with i = 5 do :guard (< i 3) :measure (nfix i) "
                "(if (zp i) (return i) (setq i (1- i))))")
        assert "loop :GUARD (< I 3) failed entering iteration 1" \
            in str(exc.value)


def test_loop_guard_unchecked_when_guards_off():
    assert run_both("(loop$ with i = 5 do :guard (< i 3) :measure (nfix i) "
                    "(if (zp i) (return i) (setq i (1- i))))",
                    guard_check=False) == 0


def test_loop_guard_checked_each_entry():
    # passes at first, trips when i drops below the bound
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        with pytest.raises(GuardViolation) as exc:
            interp.eval_text(
                "(loop$ with i = 5 do :guard (< 3 i) :measure (nfix i) "
                "(if (zp i) (return i) (setq i (1- i))))")
        assert "failed entering iteration 3" in str(exc.value)


def test_mv_setq_of_type_checked():
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        with pytest.raises(OfTypeViolation):
            interp.eval_text(
                "(loop$ with a of-type integer = 0 with b = 0 do "
                ":measure 0 (progn (mv-setq (a b) (mv 'x 'y)) "
                "(return a)))")


# -------------------------------------------------- measure failure and cap

NONDEC = "(loop$ with x = 0 do :measure (nfix x) (setq x x))"


def test_measure_violation_diagnostic():
    interp = Interp()
    with pytest.raises(MeasureViolation) as exc:
        interp.eval_text(NONDEC)
    msg = str(exc.value)
    assert ("the measure (NFIX X) of this DO loop failed to decrease at "
            "iteration 1: (0) (from ((X . 0))) is not below (0) "
            "(from ((X . 0)))") in msg


def test_measure_violation_reports_later_iteration():
    interp = Interp()
    with pytest.raises(MeasureViolation) as exc:
        interp.eval_text("(loop$ with x = 3 do :measure (nfix x) "
                         "(if (zp x) (setq x 3) (setq x (1- x))))")
    assert "failed to decrease at iteration 4" in str(exc.value)
    assert "(3) (from ((X . 3))) is not below (0) (from ((X . 0)))" \
        in str(exc.value)


def test_native_cap_exceeded():
    interp = Interp(mode="native", cap=100)
    with pytest.raises(CapExceeded) as exc:
        interp.eval_text(NONDEC)
    assert ("DO loop passed the native iteration cap of 100 without "
            "returning; supply a decreasing :MEASURE and run the logical "
            "path, or raise the cap") in str(exc.value)


def test_terminating_loop_ignores_cap_limit():
    interp = Interp(mode="native", cap=100)
    v = interp.eval_text("(loop$ with i = 99 do (if (zp i) (return 'done) "
                         "(setq i (1- i))))")[0][1]
    assert v is intern("DONE")


def test_native_cap_allows_exactly_cap_iterations():
    loop = "(loop$ with i = %d do (if (zp i) (return 'done) (setq i (1- i))))"
    interp = Interp(mode="native", cap=3)
    # I = 2 returns in its third iteration, I = 3 needs a fourth
    assert interp.eval_text(loop % 2)[0][1] is intern("DONE")
    with pytest.raises(CapExceeded) as exc:
        interp.eval_text(loop % 3)
    assert "native iteration cap of 3 without returning" in str(exc.value)


# ---------------------------------------------------------- (LEN v) measures

def test_measure_var_is_kept_only_for_len_or_nfix_of_a_with_variable():
    body = "(if (consp xs) (setq xs (cdr xs)) (return 0))"
    for measure in ("", ":measure (len xs)", ":measure (nfix xs)"):
        assert plan("(loop$ with xs = nil do %s %s)"
                    % (measure, body)).measure_var == "XS"
    for measure in (":measure (len (cdr xs))", ":measure (nfix (len xs))",
                    ":measure (len xs xs)", ":measure (nfix xs xs)",
                    ":measure (+ xs 0)", ":measure 5"):
        assert plan("(loop$ with xs = nil do %s %s)"
                    % (measure, body)).measure_var is None
    assert plan("(loop$ with i = 3 do (if (zp i) (return 0) "
                "(setq i (1- i))))").measure_var == "I"


def walks(monkeypatch):
    """The length of every list walk of the LEN builtin or of run_do."""
    lengths = []
    real = sexpr.list_length

    def counted(v):
        n = real(v)
        lengths.append(n)
        return n
    monkeypatch.setattr(sexpr, "list_length", counted)
    monkeypatch.setattr(loops, "list_length", counted)
    return lengths


BIG_WALK = ("(loop$ with xs = '(%s) with acc = 0 do :values (nil st) "
            "(if (consp xs) (progn (setq acc (+ acc (car xs))) "
            "(setq st (update-fld (car xs) st)) (setq xs (cdr xs))) "
            "(return (mv acc st))))" % " ".join(map(str, range(10_000))))


def test_cdr_down_loop_walks_its_list_once(monkeypatch):
    results = {}
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        interp.eval_text("(defstobj st fld)")
        lengths = walks(monkeypatch)
        out = interp.eval_text(BIG_WALK)[0][1]
        # the guessed (LEN XS) is walked once, on entry, on the logical
        # path; the native path checks no measure
        assert lengths == ([10_000] if mode == "logical" else [])
        monkeypatch.undo()
        results[mode] = (out.values[0], show(interp.bank["ST"].logical_view()))
    assert results["logical"] == results["native"] \
        == (sum(range(10_000)), "(9999)")


LEN_LOOPS = {
    "cddr": "(loop$ with xs = '(1 2 3 4 5) with acc = 0 do :measure (len xs) "
            "(if (consp xs) (progn (setq acc (+ acc (car xs))) "
            "(setq xs (cdr (cdr xs)))) (return acc)))",
    "improper": "(loop$ with xs = '(1 2 . 3) with acc = 0 do (if (consp xs) "
                "(progn (setq acc (+ acc (car xs))) (setq xs (cdr xs))) "
                "(return (cons acc xs))))",
    "cons": "(loop$ with xs = '(1 2) do :measure (len xs) (if (consp xs) "
            "(setq xs (cons 0 xs)) (return xs)))",
    "stay": "(loop$ with xs = '(1 2 3) with i = 0 do (if (consp xs) "
            "(if (< i 1) (progn (setq i (1+ i)) (setq xs (cdr xs))) "
            "(setq i (1+ i))) (return i)))",
}


def test_len_measures_of_other_steps_still_hold():
    assert run_both(LEN_LOOPS["cddr"]) == 9
    assert show(run_both(LEN_LOOPS["improper"])) == "(3 . 3)"


def test_len_measure_violations_keep_their_texts():
    texts = {
        "cons": "the measure (LEN XS) of this DO loop failed to decrease at "
                "iteration 1: (3) (from ((XS 0 1 2))) is not below (2) "
                "(from ((XS 1 2))) in %s",
        "stay": "the measure (LEN XS) of this DO loop failed to decrease at "
                "iteration 2: (2) (from ((XS 2 3) (I . 2))) is not below "
                "(2) (from ((XS 2 3) (I . 1))) in %s",
    }
    for name, text in texts.items():
        with pytest.raises(MeasureViolation) as exc:
            Interp().eval_text(LEN_LOOPS[name])
        assert str(exc.value) == text % show(read(LEN_LOOPS[name]))
        with pytest.raises(CapExceeded):
            Interp(mode="native", cap=100).eval_text(LEN_LOOPS[name])


def test_len_measures_trace_as_before():
    expected = {"cddr": [(5,), (3,), (1,), (0,)],
                "improper": [(2,), (1,), (0,)],
                "cons": [(2,)],
                "stay": [(3,), (2,)]}
    for name, measures in expected.items():
        interp = Interp(trace=True)
        try:
            interp.eval_text(LEN_LOOPS[name])
        except MeasureViolation:
            pass
        assert interp.loop_measures == measures, name


# ------------------------------------------------------------------- traces

def test_do_trace_and_measures_for_sum_of_squares():
    interp = Interp(trace=True)
    v = interp.eval_text("""
      (loop$ with sum = 0
             with lst = '(1 2 3 4)
             do
             (if (consp lst)
                 (progn (setq sum (+ (* (car lst) (car lst)) sum))
                        (setq lst (cdr lst)))
               (return sum)))
    """)[0][1]
    assert v == 30
    assert len(interp.do_trace) == 5
    assert all(kind == "do" for kind, _, _ in interp.do_trace)
    # next-to-last application consumes the last list element
    kind, alist, triple = interp.do_trace[3]
    assert sexpr.equal(triple, read("(NIL NIL ((SUM . 30) (LST . NIL)))"))
    # the last application returns
    kind, alist, triple = interp.do_trace[4]
    assert sexpr.equal(triple, read("(:RETURN 30 ((SUM . 30) (LST . NIL)))"))
    assert interp.loop_measures == [(4,), (3,), (2,), (1,), (0,)]


def test_finally_trace_entry():
    interp = Interp(trace=True)
    interp.eval_text("(loop$ with i = 1 do (if (zp i) (loop-finish) "
                     "(setq i (1- i))) finally (return 'end))")
    kinds = [k for k, _, _ in interp.do_trace]
    assert kinds == ["do", "do", "finally"]


# --------------------------------------------- the alist, built only on need

# Two WITH variables and a :VALUES stobj, failing at a later iteration, so
# that the alist entering the failing iteration differs from the new one.
GUARD_LATE = ("(loop$ with i = 4 with acc = 0 do :values (nil st) "
              ":guard (< 1 i) :measure (nfix i) (if (zp i) (return (mv acc "
              "st)) (progn (setq acc (+ acc i)) (setq st (update-fld acc st)) "
              "(setq i (1- i)))))")
MEASURE_LATE = ("(loop$ with i = 3 with acc = 0 do :values (nil st) "
                ":measure (nfix i) (if (zp i) (return (mv acc st)) "
                "(progn (setq acc (+ acc i)) (setq st (update-fld acc st)) "
                "(setq i (if (= i 2) 7 (1- i))))))")


@pytest.mark.parametrize("trace", [False, True])
def test_violation_texts_show_the_alists_of_their_iteration(trace):
    texts = [
        (GUARD_LATE, GuardViolation,
         "loop :GUARD (< 1 I) failed entering iteration 4 with ((I . 1) "
         "(ACC . 9) (ST . <ST>)) in %s"),
        (MEASURE_LATE, MeasureViolation,
         "the measure (NFIX I) of this DO loop failed to decrease at "
         "iteration 2: (7) (from ((I . 7) (ACC . 5) (ST . <ST>))) is not "
         "below (2) (from ((I . 2) (ACC . 3) (ST . <ST>))) in %s"),
    ]
    for text, cls, expected in texts:
        interp = Interp(trace=trace)
        interp.eval_text(STOBJ_SETUP)
        with pytest.raises(cls) as exc:
            interp.eval_text(text)
        assert str(exc.value) == expected % show(read(text))
    native = Interp(mode="native")
    native.eval_text(STOBJ_SETUP)
    with pytest.raises(GuardViolation) as exc:
        native.eval_text(GUARD_LATE)
    assert str(exc.value) == texts[0][2] % show(read(GUARD_LATE))


@pytest.mark.parametrize("text, iterations, finally_", [
    ("(loop$ with i = 3 with acc = 0 do (if (zp i) (return acc) "
     "(progn (setq acc (+ acc i)) (setq i (1- i)))))", 4, 0),
    ("(loop$ with i = 1 do (if (zp i) (loop-finish) (setq i (1- i))) "
     "finally (return 'end))", 2, 1),
])
def test_only_the_trace_builds_alists(monkeypatch, text, iterations,
                                      finally_):
    for trace in (False, True):
        built = count_calls(monkeypatch, loops, "_build_alist")
        interp = Interp(trace=trace)
        interp.eval_text(text)
        # the trace keeps the entry alist, then one per application
        assert len(built) == (1 + iterations + finally_ if trace else 0)
        assert len(interp.do_trace) == (iterations + finally_
                                        if trace else 0)
        monkeypatch.undo()


def test_a_violation_builds_the_alists_of_its_text(monkeypatch):
    for text, cls, alists in ((GUARD_LATE, GuardViolation, 1),
                              (MEASURE_LATE, MeasureViolation, 2)):
        interp = Interp()
        interp.eval_text(STOBJ_SETUP)
        built = count_calls(monkeypatch, loops, "_build_alist")
        with pytest.raises(cls):
            interp.eval_text(text)
        assert len(built) == alists
        monkeypatch.undo()


def _logical_outcome(text, trace):
    interp = Interp(trace=trace)
    interp.eval_text(STOBJ_SETUP)
    try:
        out = interp.eval_text(text)[0][1]
    except EvalError as e:
        return type(e).__name__, str(e)
    if isinstance(out, MultiValue):
        return (show(sexpr.from_pylist(out.values)),
                show(interp.bank["ST"].logical_view()))
    return (show(out),)


# ----------------------------------- assignments and measures read in place

@pytest.mark.parametrize("values", ["", " :values (nil st)"])
def test_of_type_checks_a_setq_in_a_seq_of_effects(values):
    # the SETQ joins the PROGN's effects, which the walker assigns itself
    text = ("(loop$ with i of-type integer = 3 with j = 0 do%s :measure "
            "(nfix i) (if (zp i) (return %s) (progn (setq j (1+ j)) "
            "(setq i (if (= i 2) 'oops (1- i))))))"
            % (values, "(mv i st)" if values else "i"))
    msgs = []
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        interp.eval_text(STOBJ_SETUP)
        with pytest.raises(OfTypeViolation) as exc:
            interp.eval_text(text)
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1] == (
        "OF-TYPE violation: I = OOPS is not an INTEGER (iteration 2) in "
        "(SETQ I (IF (= I 2) (QUOTE OOPS) (1- I)))")


@pytest.mark.parametrize("init, shown", [
    ("-3", "(X . -3)"), ("'a", "(X . A)"), ("\"s\"", "(X . \"s\")"),
    ("'(1 2)", "(X 1 2)"), ("nil", "(X)"), ("4", "(X . 4)")])
def test_nfix_measure_reads_what_the_nfix_builtin_does(init, shown):
    v = Interp().eval_text(init)[0][1]
    nfix = Interp().eval_text("(nfix %s)" % init)[0][1]
    # one application: the measure is read once, on entry
    interp = Interp(trace=True, guard_check=False)
    out = interp.eval_text("(loop$ with x = %s do :measure (nfix x) "
                           "(return x))" % init)[0][1]
    assert sexpr.equal(out, v)
    assert interp.loop_measures == [(nfix,)]
    # and again after a step to the same value
    text = ("(loop$ with x = %s with k = 1 do :measure (nfix x) "
            "(if (zp k) (return x) (progn (setq k 0) (setq x %s))))"
            % (init, init))
    with pytest.raises(MeasureViolation) as exc:
        Interp(guard_check=False).eval_text(text)
    assert str(exc.value) == (
        "the measure (NFIX X) of this DO loop failed to decrease at "
        "iteration 1: (%d) (from (%s (K . 0))) is not below (%d) "
        "(from (%s (K . 1))) in %s"
        % (nfix, shown, nfix, shown, show(read(text))))


# ------------------------------------------------- randomized differential

def _mk_program(rng):
    a0 = rng.randint(0, 12)
    b0 = rng.randint(-5, 5)
    step_pool = [
        ("(+ b 1)", lambda a, b: b + 1),
        ("(+ b a)", lambda a, b: b + a),
        ("(* 2 b)", lambda a, b: 2 * b),
        ("(- b 1)", lambda a, b: b - 1),
        ("(+ (* 2 a) b)", lambda a, b: 2 * a + b),
    ]
    ret_pool = [
        ("b", lambda a, b: b),
        ("(+ a b)", lambda a, b: a + b),
        ("(* b b)", lambda a, b: b * b),
    ]
    step_s, step_f = rng.choice(step_pool)
    ret_s, ret_f = rng.choice(ret_pool)
    text = ("(loop$ with a = %d with b = %d do :measure (nfix a) "
            "(if (zp a) (return %s) (progn (setq b %s) (setq a (1- a)))))"
            % (a0, b0, ret_s, step_s))

    def reference():
        a, b = a0, b0
        while a > 0:
            b = step_f(a, b)
            a -= 1
        return ret_f(a, b)

    return text, reference


def test_random_counting_loops_match_reference():
    rng = random.Random(20260816)
    for _ in range(60):
        text, reference = _mk_program(rng)
        assert run_both(text) == reference(), text


def test_random_list_walks_match_reference():
    rng = random.Random(4242)
    for _ in range(40):
        items = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        text = ("(loop$ with lst = '(%s) with acc = 0 do "
                "(if (consp lst) (progn (setq acc (+ acc (car lst))) "
                "(setq lst (cdr lst))) (return acc)))"
                % " ".join(str(i) for i in items))
        assert run_both(text) == sum(items), text



# Generated DO loops: a countdown N, then 1-4 WITH variables W0.. whose
# inits are literals or (+ X k) over an earlier WITH name, stepped by SETQs
# in one PROGN until N reaches 0.  The model runs the same assignments on
# a Python dict, in the same order.  With the stobj ST, a step may also
# cons a WITH value onto its field.
@hs.composite
def do_loops(draw):
    n0 = draw(hs.integers(0, 5))
    withs, names = [], ["N"]
    for i in range(draw(hs.integers(1, 4))):
        if draw(hs.booleans()):
            init = (None, draw(hs.integers(-3, 3)))
        else:
            init = (draw(hs.sampled_from(names)), draw(hs.integers(-3, 3)))
        withs.append(("W%d" % i, draw(hs.booleans()), init))
        names.append("W%d" % i)
    use_st = draw(hs.booleans())
    ws = names[1:]
    step = hs.tuples(hs.sampled_from(ws + ["ST"] if use_st else ws),
                     hs.sampled_from(["+", "*", "sum"]),
                     hs.sampled_from(names), hs.sampled_from(names),
                     hs.integers(-2, 2))
    steps = draw(hs.lists(step, max_size=4))
    steps.insert(draw(hs.integers(0, len(steps))), ("N", "1-"))
    return (n0, withs, steps, use_st, draw(hs.booleans()),
            draw(hs.booleans()))


def _do_loop_text(n0, withs, steps, use_st, finish, explicit):
    clauses = ["with n = %d" % n0]
    for name, typed, (src, k) in withs:
        init = str(k) if src is None else "(+ %s %d)" % (src, k)
        clauses.append("with %s%s = %s" % (
            name, " of-type integer" if typed else "", init))
    setqs = []
    for target, op, *args in steps:
        if op == "1-":
            rhs = "(1- n)"
        elif target == "ST":
            rhs = "(update-fld (cons %s (fld st)) st)" % args[0]
        elif op == "+":
            rhs = "(+ %s %d)" % (args[0], args[2])
        elif op == "*":
            rhs = "(* %d %s)" % (args[2], args[0])
        else:
            rhs = "(+ %s %s)" % (args[0], args[1])
        setqs.append("(setq %s %s)" % (target, rhs))
    result = "nil"
    for name in reversed(["N"] + [w[0] for w in withs]):
        result = "(cons %s %s)" % (name, result)
    if use_st:
        result = "(mv %s st)" % result
    exit_ = "(loop-finish)" if finish else "(return %s)" % result
    return "(loop$ %s do%s%s (if (zp n) %s (progn %s))%s)" % (
        " ".join(clauses), " :values (nil st)" if use_st else "",
        " :measure (nfix n)" if explicit else "", exit_, " ".join(setqs),
        " finally (return %s)" % result if finish else "")


def _do_loop_model(n0, withs, steps, use_st, finish, explicit):
    env, fld = {"N": n0}, []
    for name, _typed, (src, k) in withs:
        env[name] = k if src is None else env[src] + k
    while env["N"] != 0:
        for target, op, *args in steps:
            if op == "1-":
                env["N"] -= 1
            elif target == "ST":
                fld.insert(0, env[args[0]])
            elif op == "+":
                env[target] = env[args[0]] + args[2]
            elif op == "*":
                env[target] = args[2] * env[args[0]]
            else:
                env[target] = env[args[0]] + env[args[1]]
    value = "(%s)" % " ".join(str(env[name]) for name in
                               ["N"] + [w[0] for w in withs])
    return value, "(%s)" % " ".join(map(str, fld)) if fld else "NIL"


# do_loops draws n0 <= 5, so a generated loop runs at most 6 iterations,
# the last of which exits.  Under a cap just above that, a native loop that
# does not exit (say, under a broken builtin) fails within a few
# iterations, and so does each example Hypothesis tries while shrinking.
GENERATED_CAP = 7


@seed(2026)
@settings(max_examples=150, deadline=None, database=None)
@given(do_loops())
def test_generated_do_loops_match_a_model(case):
    text = _do_loop_text(*case)
    runs = []
    for mode in ("logical", "native"):
        interp = Interp(mode=mode, cap=GENERATED_CAP)
        interp.eval_text(STOBJ_SETUP)
        try:
            out = interp.eval_text(text)[0][1]
        except EvalError as e:
            runs.append((type(e).__name__, str(e)))
            continue
        if isinstance(out, MultiValue):
            runs.append((show(out.values[0]),
                         show(interp.eval_text("(fld st)")[0][1]),
                         show(interp.bank["ST"].logical_view())))
        else:
            runs.append((show(out),))
    assert runs[0] == runs[1], text
    value, fld = _do_loop_model(*case)
    use_st = case[3]
    assert runs[0][:2] == ((value, fld) if use_st else (value,)), text


# The same loops, some with a :GUARD (< k N) or a :MEASURE (NFIX W0) that
# may fail at a later iteration, so that error texts are compared too.
@hs.composite
def failing_do_loops(draw):
    n0, withs, steps, use_st, finish, _explicit = draw(do_loops())
    text = _do_loop_text(n0, withs, steps, use_st, finish, False)
    extra = draw(hs.sampled_from(["", " :guard (< %d n)" % draw(
        hs.integers(-1, 3)), " :measure (nfix w0)"]))
    return text.replace(" do", " do" + extra, 1)


@seed(2028)
@settings(max_examples=60, deadline=None, database=None)
@given(failing_do_loops())
def test_generated_do_loops_agree_with_the_trace_on_and_off(text):
    assert _logical_outcome(text, False) == _logical_outcome(text, True), \
        text


# Generated list loops: a list XS of naturals stepped by one or two
# (setq xs (cdr xs)) in one PROGN until it is empty, under a guessed or an
# explicit (LEN XS) measure, with 1-3 WITH variables W0.. set to sums of
# W names, (NFIX (CAR XS)) and (LEN XS).  The model pops a Python list.
TERMS = ["(nfix (car xs))", "(len xs)"]


@hs.composite
def list_loops(draw):
    items = draw(hs.lists(hs.integers(0, 9), max_size=6))
    names = ["W%d" % i for i in range(draw(hs.integers(1, 3)))]
    inits = [draw(hs.integers(-3, 3)) for _ in names]
    step = hs.tuples(hs.sampled_from(names), hs.sampled_from(names + TERMS),
                     hs.sampled_from(names + TERMS))
    steps = draw(hs.lists(step, max_size=4))
    for _ in range(draw(hs.integers(1, 2))):
        steps.insert(draw(hs.integers(0, len(steps))), ("XS",))
    return items, inits, steps, draw(hs.booleans())


def _list_loop_text(items, inits, steps, explicit):
    clauses = ["with xs = '(%s)" % " ".join(map(str, items))]
    clauses += ["with w%d = %d" % (i, k) for i, k in enumerate(inits)]
    setqs = ["(setq xs (cdr xs))" if s == ("XS",)
             else "(setq %s (+ %s %s))" % s for s in steps]
    result = "nil"
    for i in reversed(range(len(inits))):
        result = "(cons w%d %s)" % (i, result)
    return "(loop$ %s do%s (if (consp xs) (progn %s) (return %s)))" % (
        " ".join(clauses), " :measure (len xs)" if explicit else "",
        " ".join(setqs), result)


def _list_loop_model(items, inits, steps, explicit):
    xs, measures = list(items), []
    env = {"W%d" % i: k for i, k in enumerate(inits)}
    value = {"(nfix (car xs))": lambda: xs[0] if xs else 0,
             "(len xs)": lambda: len(xs)}
    while True:
        measures.append((len(xs),))
        if not xs:
            break
        for s in steps:
            if s == ("XS",):
                xs = xs[1:]
            else:
                env[s[0]] = sum(env[a] if a in env else value[a]()
                                for a in s[1:])
    return "(%s)" % " ".join(str(env[n]) for n in sorted(env)), measures


@seed(2027)
@settings(max_examples=40, deadline=None, database=None)
@given(list_loops())
def test_generated_list_loops_match_a_model(case):
    text = _list_loop_text(*case)
    value, measures = _list_loop_model(*case)
    for mode in ("logical", "native"):
        interp = Interp(mode=mode, trace=True)
        assert show(interp.eval_text(text)[0][1]) == value, text
        assert interp.loop_measures == (measures if mode == "logical"
                                        else []), text

# --------------------------------------------------------------- FOR loops

def test_for_sum_and_collect():
    assert run_both("(loop$ for x in '(1 2 3 4) sum (* x x))") == 30
    v = run_both("(loop$ for x in '(1 2 3) collect (cons x x))")
    assert show(v) == "((1 . 1) (2 . 2) (3 . 3))"


def test_for_empty_range():
    assert run_both("(loop$ for x in nil sum x)") == 0
    assert run_both("(loop$ for x in nil collect x)") is NIL


def test_for_sum_guard_violation_and_totalization():
    interp = Interp()
    with pytest.raises(GuardViolation) as exc:
        interp.eval_text("(loop$ for x in '(1 a 3) sum x)")
    assert "guard violation in X: SUM accumulated the non-integer A" \
        in str(exc.value)
    off = Interp(guard_check=False)
    assert off.eval_text("(loop$ for x in '(1 a 3) sum x)")[0][1] == 4


def test_for_range_must_be_proper():
    interp = Interp()
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(loop$ for x in '(1 . 2) sum x)")
    assert "FOR range is not a proper list" in str(exc.value)


def test_for_parse_errors():
    assert "a FOR loop$ is (loop$ FOR v IN range SUM|COLLECT body)" \
        in parse_error("(loop$ for x in '(1))")
    assert "expected IN after the FOR variable" in parse_error(
        "(loop$ for x on '(1) sum x)")
    assert "FOR supports the SUM and COLLECT accumulators" in parse_error(
        "(loop$ for x in '(1) append x)")
    assert "bad FOR variable 5" in parse_error(
        "(loop$ for 5 in '(1) sum x)")


def test_for_body_sees_only_its_variable():
    interp = Interp()
    with pytest.raises(EvalError):
        interp.eval_text("(loop$ for x in '(1 2) sum (+ x other))")


def test_with_init_may_not_be_stobj_or_mv():
    interp = Interp()
    interp.eval_text("(defstobj st fld)\n(defun two () (mv 1 2))")
    for init, violation in (
            ("st", "R1: stobj ST may not appear in a WITH initial value"),
            ("(two)", "R2: multiple values are not a single value in a "
                      "WITH initial value")):
        with pytest.raises(LinearityError) as exc:
            interp.eval_text("(loop$ with x = %s do :measure 0 (return x))"
                             % init)
        assert exc.value.violations == [violation]
    # APPLY$ hides which function it calls, so the call itself is refused
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(loop$ with x = (apply$ 'two nil) do :measure 0 "
                         "(return x))")
    assert str(exc.value) == (
        "APPLY$ calls only a function of ordinary arguments that returns one "
        "ordinary value, not TWO in (APPLY$ (QUOTE TWO) NIL)")
