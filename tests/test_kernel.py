"""Evaluator tests: builtins against independent oracles, binding forms,
defun/guard/measure behavior, the event world, and undo."""

import io
import random

import pytest

from stlisp import loops, sexpr
from stlisp.errors import (EvalError, GuardViolation, LinearityError,
                           MeasureViolation, ReadError, TranslateError)
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


@pytest.mark.parametrize("text", [
    "(quote 1 2)", "(if 1)", "(if 1 2 3 4)", "(let ((y 1)))", "(let (y) 1)",
    "(let* ((y . 1)) y)", "(mv 1)", "(mv-let (a) (mv 1 2) a)",
    "(mv-let (a b) (mv 1 2))"])
def test_malformed_special_form_has_one_text(text):
    # the evaluator, the analyzer and the DO-body parser reject it alike
    with pytest.raises(EvalError) as exc:
        Interp().eval(read(text))
    want = str(exc.value)
    with pytest.raises(LinearityError) as exc:
        ev(text)
    assert "R1: " + want in str(exc.value)
    world = Interp().world
    spec = loops.parse_loop(
        read("(loop$ with x = 0 do :measure 0 (setq x %s))" % text), world)
    with pytest.raises(TranslateError) as exc:
        loops.make_do_plan(spec, world)
    assert str(exc.value) == want


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
    # the runtime layer keeps its own count check as a backstop below the
    # static pass; drive eval directly to reach it
    interp = Interp()
    interp.eval_text("(defun one () 5)")
    with pytest.raises(EvalError) as exc:
        interp.eval(read("(mv-let (a b) (apply$ 'one nil) a)"), None)
    assert "expected 2 values" in str(exc.value)


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
    # arity; the runtime checks must still refuse the binding
    prelude = "(defun two () (mv 1 2))"
    interp = Interp()
    interp.eval_text(prelude)
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(let ((x (apply$ 'two nil))) x)")
    assert "use MV-LET" in str(exc.value)
    interp = Interp()
    interp.eval_text(prelude)
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(if (apply$ 'two nil) 1 2)")
    assert "not a single value in an IF test" in str(exc.value)
    interp = Interp()
    interp.eval_text(prelude)
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(+ (apply$ 'two nil) 3)")
    assert "not a single argument of +" in str(exc.value)
    interp = Interp()
    interp.eval_text(prelude)
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(mv (apply$ 'two nil) 3)")
    assert "not a single MV component" in str(exc.value)


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
    for bad in ("(progn 1 2)", "(setq x 1)", "(return 3)", "(loop-finish)"):
        with pytest.raises(EvalError) as exc:
            ev(bad)
        assert "legal only inside DO and FINALLY bodies" in str(exc.value)


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


def test_free_variable_in_defun_body_fails_at_call_time():
    interp = Interp()
    interp.eval_text("(defun f (x) (+ x y))")
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(f 1)")
    assert "unbound variable Y" in str(exc.value)


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
    assert "lambda takes 1 arguments, got 2" in str(exc.value)
    with pytest.raises(EvalError) as exc:
        ev("(apply$ '(1 2) '(3))")
    assert "not a function object" in str(exc.value)


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
    with pytest.raises(EvalError) as exc:
        ev("((lambda (x) x) 1)")
    assert "call head must be a symbol" in str(exc.value)


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
