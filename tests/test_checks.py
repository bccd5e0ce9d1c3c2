"""The texts of the evaluator's checks, pinned in both modes; passing
checks that format nothing; stobj-let scoping; a passing path that lists
no form, and calls and DO-body SETQs that skip the generic call
path; one callee lookup shared by the analyzer and the evaluator; only
LispErrors from the failing forms of a corpus program; names that may
never be bound; deep recursion and deep values."""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stlisp import cli, kernel, loops, refinement, sexpr, stobjs
from stlisp.errors import EvalError, GuardViolation, LinearityError, LispError
from stlisp.kernel import Interp
from stlisp.sexpr import NIL, T, Cons, intern, read, show

MODES = ("logical", "native")

PRELUDE = """
(defstobj st val)
(defstobj switch fld)
(defstobj kid kfld)
(defstobj top (tbl :type (stobj-table)))
(encapsulate (((f *) => *)))
(defun g (x) x)
(defun half (n) (declare (xargs :guard (natp n))) n)
"""


def prelude(mode):
    interp = Interp(mode=mode)
    interp.eval_text(PRELUDE)
    return interp


def failure(interp, text):
    with pytest.raises(EvalError) as exc:
        interp.eval_text(text)
    return type(exc.value), str(exc.value)


def rejected(mode, text):
    """The text with which admission rejects text, before it runs."""
    with pytest.raises(LinearityError) as exc:
        prelude(mode).eval_text(text)
    return str(exc.value)


TOP_FORM = "single-threadedness violation in this top-level form:\n  "


# ----------------------------------------------- passing checks format nothing

PASSING = [
    ("(+ 1 2 3)", 6), ("(- 5 3)", 2), ("(- 4)", -4), ("(* 2 3)", 6),
    ("(1+ 1)", 2), ("(1- 1)", 0), ("(< 1 2)", T), ("(<= 2 2)", T),
    ("(= 3 4)", NIL), ("(zp 0)", T), ("(zp 4)", NIL), ("(car '(1 2))", 1),
    ("(car nil)", NIL), ("(cdr nil)", NIL), ("(eq 'a 'a)", T),
    ("(eq 'a 1)", NIL), ("(half 3)", 3),
    ("(flip-switch top)", None), ("(peek-switch top)", T),
    ("(loop$ with i of-type integer = 3 with acc of-type integer = 0 do "
     ":guard (natp i) (if (zp i) (return acc) "
     "(progn (setq acc (+ acc i)) (setq i (1- i)))))", 6),
]


@pytest.mark.parametrize("mode", MODES)
def test_passing_checks_format_nothing(mode, monkeypatch):
    interp = prelude(mode)
    interp.eval_text("""
      (defun flip-switch (top)
        (declare (xargs :stobjs (top)))
        (stobj-let ((switch (tbl-get 'switch top (create-switch))))
                   (switch)
                   (update-fld (not (fld switch)) switch)
                   top))
      (defun peek-switch (top)
        (declare (xargs :stobjs (top)))
        (stobj-let ((switch (tbl-get 'switch top (create-switch))))
                   (flg)
                   (fld switch)
                   flg))
    """)

    def no_show(v):
        raise AssertionError("show called on a passing check")

    for module in (kernel, stobjs, loops):
        monkeypatch.setattr(module, "show", no_show)
    for text, want in PASSING:
        got = interp.eval_text(text)[0][1]
        if want is not None:
            assert got is want or got == want, text
    cdr = interp.eval_text("(cdr '(1 2))")[0][1]
    assert isinstance(cdr, Cons) and cdr.car == 2


# ----------------------------------------------------- full texts, pinned

FAILING = [
    ("(+ 1 'a)", GuardViolation,
     "guard violation in (+ 1 (QUOTE A)): A is not an integer "
     "in (+ 1 (QUOTE A))"),
    ("(- 'x)", GuardViolation,
     "guard violation in (- (QUOTE X)): X is not an integer "
     "in (- (QUOTE X))"),
    ('(- 1 "s")', GuardViolation,
     'guard violation in (- 1 "s"): "s" is not an integer in (- 1 "s")'),
    ("(* 2 'y)", GuardViolation,
     "guard violation in (* 2 (QUOTE Y)): Y is not an integer "
     "in (* 2 (QUOTE Y))"),
    ("(1+ nil)", GuardViolation,
     "guard violation in (1+ NIL): NIL is not an integer in (1+ NIL)"),
    ("(1- '(1))", GuardViolation,
     "guard violation in (1- (QUOTE (1))): (1) is not an integer "
     "in (1- (QUOTE (1)))"),
    ("(< 'a 1)", GuardViolation,
     "guard violation in (< (QUOTE A) 1): A is not an integer "
     "in (< (QUOTE A) 1)"),
    ("(<= 1 'b)", GuardViolation,
     "guard violation in (<= 1 (QUOTE B)): B is not an integer "
     "in (<= 1 (QUOTE B))"),
    ("(= 'c 2)", GuardViolation,
     "guard violation in (= (QUOTE C) 2): C is not an integer "
     "in (= (QUOTE C) 2)"),
    ("(zp -1)", GuardViolation,
     "guard violation in (ZP -1): -1 is not a natural number in (ZP -1)"),
    ("(zp 'a)", GuardViolation,
     "guard violation in (ZP (QUOTE A)): A is not a natural number "
     "in (ZP (QUOTE A))"),
    ("(car 5)", GuardViolation,
     "guard violation in (CAR 5): 5 is neither a cons nor NIL in (CAR 5)"),
    ('(cdr "s")', GuardViolation,
     'guard violation in (CDR "s"): "s" is neither a cons nor NIL '
     'in (CDR "s")'),
    ("(eq 1 2)", GuardViolation,
     "guard violation in (EQ 1 2): EQ needs a symbol argument in (EQ 1 2)"),
    ("(half -2)", GuardViolation,
     "guard violation calling HALF: :guard (NATP N) failed in (HALF -2)"),
    ("(car 1 2)", EvalError, "CAR takes 1 argument, got 2 in (CAR 1 2)"),
    ("(- )", EvalError, "- takes 1 to 2 arguments, got 0 in (-)"),
    ("(cons 1)", EvalError, "CONS takes 2 arguments, got 1 in (CONS 1)"),
    ("(val)", EvalError, "VAL takes 1 argument, got 0 in (VAL)"),
    ("(update-val 1)", EvalError,
     "UPDATE-VAL takes 2 arguments, got 1 in (UPDATE-VAL 1)"),
    ("(f 1 2)", EvalError, "F takes 1 argument, got 2 in (F 1 2)"),
    ("(g)", EvalError, "G takes 1 argument, got 0 in (G)"),
    ("(nosuch 1)", EvalError, "undefined function NOSUCH in (NOSUCH 1)"),
    ("(apply$ 'car '(1 2))", EvalError,
     "CAR takes 1 argument, got 2 in (APPLY$ (QUOTE CAR) (QUOTE (1 2)))"),
    ("(apply$ 'val '())", EvalError,
     "VAL takes 1 argument, got 0 in (APPLY$ (QUOTE VAL) (QUOTE NIL))"),
    ("(apply$ 'f '(1 2))", EvalError,
     "F takes 1 argument, got 2 in (APPLY$ (QUOTE F) (QUOTE (1 2)))"),
    ("(apply$ 'g '())", EvalError,
     "G takes 1 argument, got 0 in (APPLY$ (QUOTE G) (QUOTE NIL))"),
    ("(apply$ 'nosuch '(1))", EvalError,
     "undefined function NOSUCH in (APPLY$ (QUOTE NOSUCH) (QUOTE (1)))"),
    ("(apply$ 'val '(5))", EvalError,
     "APPLY$ calls only a function of ordinary arguments that returns one "
     "ordinary value, not VAL in (APPLY$ (QUOTE VAL) (QUOTE (5)))"),
    # the ops only stobj-let may call are refused by the badge too
    ("(apply$ 'create-kid nil)", EvalError,
     "APPLY$ calls only a function of ordinary arguments that returns one "
     "ordinary value, not CREATE-KID in (APPLY$ (QUOTE CREATE-KID) NIL)"),
    ("(apply$ 'tbl-get '(k 1 2))", EvalError,
     "APPLY$ calls only a function of ordinary arguments that returns one "
     "ordinary value, not TBL-GET in (APPLY$ (QUOTE TBL-GET) "
     "(QUOTE (K 1 2)))"),
    ("(apply$ 'tbl-put '(k 1 2))", EvalError,
     "APPLY$ calls only a function of ordinary arguments that returns one "
     "ordinary value, not TBL-PUT in (APPLY$ (QUOTE TBL-PUT) "
     "(QUOTE (K 1 2)))"),
    ("(f 1)", EvalError, "constrained function F has no attachment in (F 1)"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text,cls,message", FAILING,
                         ids=[t for t, _, _ in FAILING])
def test_failing_check_text(mode, text, cls, message):
    assert failure(prelude(mode), text) == (cls, message)


VALUES_TOP = "(loop$ with i = 0 do :measure (nfix i) :values (top) " \
             "(return top))"
PEEK_TOP = "(stobj-let ((switch (tbl-get 'switch top (create-switch)))) " \
           "(switch) %s top)"
# A stobj-let hides each parent from its producer and each child from its
# consumer.  Admission alone enforces it.
POISONED = [
    ("(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
     "(flg) (tbl-count top) flg)",
     TOP_FORM + "R1: TBL-COUNT expects the stobj TOP in this position of "
     "(TBL-COUNT TOP)"),
    ("(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
     "(flg) (consp top) flg)",
     TOP_FORM + "R1: stobj TOP is used without being declared or bound "
     "here"),
    ("(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
     "(switch) (update-fld t switch) (fld switch))",
     TOP_FORM + "R1: FLD expects the stobj SWITCH in this position of "
     "(FLD SWITCH)\n  R2: stobj-let updates children of TOP, so its "
     "consumer must return TOP or the update would be discarded"),
    # a stobj-let parent and a :VALUES stobj
    (PEEK_TOP % "(stobj-let ((st (tbl-get 'st top (create-st)))) (st) st "
     "switch)",
     TOP_FORM + "R1: stobj-let parent TOP is not a live stobj here\n  R2: "
     "stobj-let updates children of TOP, so its consumer must return TOP "
     "or the update would be discarded"),
    (PEEK_TOP % VALUES_TOP,
     TOP_FORM + "R1: :VALUES stobj TOP is not a live stobj here\n  R2: "
     "stobj-let output SWITCH expects (SWITCH) but the producer returns "
     "(TOP)"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text,message", POISONED,
                         ids=["parent", "parent-builtin-arg", "child",
                              "stobj-let-parent", "values-stobj"])
def test_poison_text(mode, text, message):
    assert rejected(mode, text) == message


# Texts of checks on calls, read through eval_text: admission raises the
# arity, argument-list and slot texts once, so evaluation runs the call
# without them; an OF-TYPE check is made as the loop runs.
EVALUATED = [
    # arity is checked before any argument is checked
    ("(car 1 (undefined-fn))", EvalError,
     "CAR takes 1 argument, got 2 in (CAR 1 (UNDEFINED-FN))"),
    ("(car 1 . 2)", EvalError,
     "argument list is not a proper list in (CAR 1 . 2)"),
    # a SETQ that is a PROGN effect
    ("(loop$ with i of-type integer = 3 with j = 0 do :measure (nfix i) "
     "(if (zp i) (return i) "
     "(progn (setq i (if (= i 2) 'oops (1- i))) (setq j i))))",
     loops.OfTypeViolation,
     "OF-TYPE violation: I = OOPS is not an INTEGER (iteration 2) "
     "in (SETQ I (IF (= I 2) (QUOTE OOPS) (1- I)))"),
    # its shape needs PROC-IDS and RANK, which the prelude lacks
    ("(report-completion-or-error-and-return 'a 5)", EvalError,
     "REPORT-COMPLETION-OR-ERROR-AND-RETURN needs, for some stobj S, "
     "PROC-IDS with the shape () => (*) and RANK with the shape (* S) => "
     "(*) in (REPORT-COMPLETION-OR-ERROR-AND-RETURN (QUOTE A) 5)"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text,cls,message", EVALUATED,
                         ids=[t for t, _, _ in EVALUATED])
def test_evaluated_check_text(mode, text, cls, message):
    with pytest.raises(EvalError) as exc:
        prelude(mode).eval_text(text)
    assert (type(exc.value), str(exc.value)) == (cls, message)


# A stobj or multiple values where one ordinary value belongs, and a
# stobj-let or DO-loop value of the wrong shape: admission rejects each
# form, and evaluation does not check the shape again.
ADMITTED = [
    ("(car st)",
     "R1: stobj ST passed where CAR expects an ordinary value"),
    ("(let ((st st)) (car st))",
     "R1: stobj ST passed where CAR expects an ordinary value\n  R2: stobj "
     "ST is bound in this LET but is not among the values of its body; the "
     "update would be discarded"),
    ("(cons (g 1) (mv 1 2))",
     "R2: multiple values are not a single value in an argument of CONS"),
    ("(loop$ with i = 3 with j = 0 do :measure (nfix i) "
     "(if (zp i) (return i) (progn (setq j (mv i i)) (setq i (1- i)))))",
     "R2: (SETQ J (MV I I)) needs values shaped (*), got (* *)"),
    ("(loop$ with i = 3 do :measure (nfix i) :values (nil st) "
     "(if (zp i) (return (mv i st)) (progn (setq st i) (setq i (1- i)))))",
     "R2: (SETQ ST I) needs values shaped (ST), got (*)"),
    ("(loop$ with i = 1 with j = 0 do :measure (nfix i) "
     "(if (zp i) (return j) (mv-setq (i j) 0)))",
     "R2: (MV-SETQ (I J) 0) needs values shaped (* *), got (*)"),
    # a RETURN has the shape of :VALUES, whatever form gives it
    ("(loop$ with i = 0 do :measure (nfix i) "
     "(return (if (zp i) (mv i i) i)))",
     "R4: the branches of (IF (ZP I) (MV I I) I) return different stobjs "
     "((* *) vs (*))\n  R2: (RETURN (IF (ZP I) (MV I I) I)) needs values "
     "shaped (*), got (* *)"),
    ("(loop$ for x in '(1 2) collect (mv x x))",
     "R2: multiple values are not a single value in a FOR body"),
    ("(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
     "(switch flg) 5 top)",
     "R2: stobj-let producer returns 1 values for 2 outputs"),
    ("(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
     "(switch) 5 top)",
     "R2: stobj-let output SWITCH expects (SWITCH) but the producer "
     "returns (*)"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text,message", ADMITTED,
                         ids=[t for t, _ in ADMITTED])
def test_admission_rejects_a_misshapen_value(mode, text, message):
    assert rejected(mode, text) == TOP_FORM + message


# Stobj-let scoping, in the one frame each scope binds: the producer sees
# the outer scope and the children; the consumer sees the written-back
# parents and the outputs that are not children.  Admission hides the
# parents from the producer and the children from the consumer.
SCOPING = [
    # an outer LET variable stays visible inside the producer
    ("(let ((k 5)) (stobj-let ((switch (tbl-get 'switch top "
     "(create-switch)))) (switch) (update-fld k switch) top))",
     "<TOP>", "(((SWITCH 5)))"),
    # a non-child output shadows an outer variable of the same name
    ("(let ((flg 1)) (stobj-let ((switch (tbl-get 'switch top "
     "(create-switch)))) (flg) (fld switch) flg))", "NIL", "(NIL)"),
    # the consumer's parent is the instance the child was written back to
    ("(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
     "(switch) (update-fld 7 switch) (mv (tbl-count top) top))",
     "(1 <TOP>)", "(((SWITCH 7)))"),
]


@pytest.mark.parametrize("text,value,top", SCOPING,
                         ids=["producer-outer", "consumer-shadow",
                              "consumer-parent"])
def test_stobj_let_scoping(text, value, top):
    banks = []
    for mode in MODES:
        interp = prelude(mode)
        assert show(interp.eval_text(text)[0][1]) == value
        assert show(interp.bank["TOP"].logical_view()) == top
        banks.append({name: show(inst.logical_view())
                      for name, inst in interp.bank.items()})
    assert banks[0] == banks[1]


SCOPE_POISONED = [
    # the parent is hidden in the producer, an outer variable is not
    ("(let ((k 5)) (stobj-let ((switch (tbl-get 'switch top "
     "(create-switch)))) (flg) (mv k (tbl-count top)) flg))",
     TOP_FORM + "R1: TBL-COUNT expects the stobj TOP in this position of "
     "(TBL-COUNT TOP)\n  R2: stobj-let producer returns 2 values for 1 "
     "outputs"),
    # the child is hidden in the consumer, behind a shadowing output
    ("(let ((flg 1)) (stobj-let ((switch (tbl-get 'switch top "
     "(create-switch)))) (flg switch) (mv (fld switch) switch) "
     "(mv flg (fld switch))))",
     TOP_FORM + "R1: FLD expects the stobj SWITCH in this position of "
     "(FLD SWITCH)\n  R2: stobj-let updates children of TOP, so its "
     "consumer must return TOP or the update would be discarded"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text,message", SCOPE_POISONED,
                         ids=["producer-parent", "consumer-child"])
def test_stobj_let_scope_poison(mode, text, message):
    assert rejected(mode, text) == message


# A stobj-let parent and a :VALUES stobj whose name a LET binds to a value
# that is not the stobj.
BOUND = [
    (VALUES_TOP, "\n  R1: :VALUES stobj TOP is not a live stobj here"),
    (PEEK_TOP % "(update-fld 1 switch)",
     "\n  R1: stobj-let parent TOP is not a live stobj here\n  R2: "
     "stobj-let updates children of TOP, so its consumer must return TOP "
     "or the update would be discarded"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text,message", BOUND, ids=["values", "parent"])
def test_stobj_bound_to_a_value_text(mode, text, message):
    assert rejected(mode, "(let ((top 5)) %s)" % text) == (
        TOP_FORM + "R3: stobj name TOP may not be rebound to an ordinary "
        "value" + message)


@pytest.mark.parametrize("mode", MODES)
def test_stobj_let_output_shadows_the_parent(mode):
    # In the consumer an output that is not a child comes before the
    # parent of the same name.
    text = ("(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
            "(top) 5 top)")
    assert prelude(mode).eval(read(text), None) == 5


# ----------------------------------------- the passing path builds no lists

# Each form with its value.  The evaluator reads calls, QUOTE, IF, LET,
# LET*, MV and MV-LET in place, so none of them lists its form.
IN_PLACE = [
    ("(+ 1 (g 2) (car '(3 4)))", "6"), ("(quote (a . b))", "(A . B)"),
    ("(if (< 1 2) 'yes 'no)", "YES"), ("(if nil 1)", "NIL"),
    ("(if (g nil) 1 (half 3))", "3"),
    ("(let ((x 1) (y 2)) (+ x y))", "3"),
    ("(let ((x 1)) (declare (ignore x)) 2)", "2"),
    ("(let* ((x 1) (y (+ x 1))) (* x y))", "2"),
    ("(mv 1 (g 2) 3)", "(1 2 3)"),
    ("(mv-let (a b) (mv 1 2) (- a b))", "-1"),
    ("(mv-let (a b) (mv 1 2) (declare (ignore a)) b)", "2"),
    ("(val (update-val (let ((v 5)) v) st))", "5"),
]


@pytest.mark.parametrize("mode", MODES)
def test_passing_path_builds_no_lists(mode, monkeypatch):
    forms = [read(text) for text, _ in IN_PLACE]
    before = prelude(mode)
    want = [show(before.eval(f, None)) for f in forms]
    assert want == [value for _, value in IN_PLACE]
    interp = prelude(mode)

    def no_list(*args, **kwargs):
        raise AssertionError("a list was built on the passing path")

    originals = {"list_items": stobjs.list_items,
                 "_cons_args": stobjs._cons_args}
    for module in (sexpr, stobjs, kernel, loops, refinement):
        for name, fn in originals.items():
            if module.__dict__.get(name) is fn:
                monkeypatch.setattr(module, name, no_list)
    assert [show(interp.eval(f, None)) for f in forms] == want


@pytest.mark.parametrize("mode", MODES)
def test_calls_and_do_body_setqs_skip_the_generic_path(mode, monkeypatch):
    # a builtin, a DO loop, a defun, a generated op, a constrained function
    forms = [read("(+ 1 (car '(2)))"),
             read("(loop$ with a = 0 with n = 3 do (if (zp n) (return a) "
                  "(progn (setq a (+ a 1)) (setq n (1- n)))))"),
             read("(g 1)"), read("(val st)"), read("(f 1)")]
    interp = prelude(mode)
    interp.eval_text("(defattach f g)")

    def generic(*args, **kwargs):
        raise AssertionError("an evaluated call or a SETQ took the generic "
                             "path")

    monkeypatch.setattr(kernel.World, "callee", generic)
    monkeypatch.setattr(kernel.Interp, "_dispatch", generic)
    monkeypatch.setattr(loops, "_bind", generic)
    assert [interp.eval(f, None) for f in forms] == [3, 3, 1, NIL, 1]


# ------------------------------- the analyzer and the evaluator agree on calls

# One bad call of each kind of callee: builtin, generated op, constrained
# function, defun, and an undefined name, with the text of its error.
BAD_CALLS = [
    ("(car 1 2)", "CAR takes 1 argument, got 2"),
    ("(val)", "VAL takes 1 argument, got 0"),
    ("(f 1 2)", "F takes 1 argument, got 2"),
    ("(g)", "G takes 1 argument, got 0"),
    ("(nosuch 1)", "undefined function NOSUCH"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text,message", BAD_CALLS,
                         ids=[t for t, _ in BAD_CALLS])
def test_analyzer_and_evaluator_give_one_call_text(mode, text, message):
    interp = prelude(mode)
    form = read(text)
    # at top level the analyzer raises before evaluation
    assert failure(interp, text) == (EvalError,
                                     "%s in %s" % (message, show(form)))
    # APPLY$ of the name looks the callee up as the program runs
    call = "(apply$ '%s '%s)" % (show(form.car), show(form.cdr))
    assert failure(interp, call) == (EvalError, "%s in %s"
                                     % (message, show(read(call))))
    # inside a defun body the analyzer records it as an R1 violation
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(defun h (x) (if x %s x))" % text)
    assert exc.value.violations == ["R1: %s in %s" % (message, show(form))]


@pytest.mark.parametrize("mode", MODES)
def test_self_call_arity_text_matches_other_calls(mode):
    interp = prelude(mode)
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(defun r (x) (if x (r x x) x))")
    assert exc.value.violations == ["R1: R takes 1 argument, got 2 "
                                    "in (R X X)"]


@pytest.mark.parametrize("mode", MODES)
def test_a_dotted_call_in_a_defun_joins_the_violations(mode):
    interp = prelude(mode)
    # at top level it raises at once, as a wrong arity does
    assert failure(interp, "(g 1 . 2)") == (
        EvalError, "argument list is not a proper list in (G 1 . 2)")
    # in a defun it hides no later violation
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(defun both (x) (if (g x . 2) (g x x) x))")
    assert exc.value.violations == [
        "R1: argument list is not a proper list in (G X . 2)",
        "R1: G takes 1 argument, got 2 in (G X X)"]


# ------------------------------------------------------ the public boundary

CALL_CHECKS_LISP = (Path(__file__).resolve().parent.parent / "corpus"
                    / "call_checks.lisp")


@pytest.mark.parametrize("mode", MODES)
def test_call_checks_corpus_fails_only_with_lisp_errors(mode, tmp_path):
    # The evaluator does not check a form again once admission has, so
    # each failing form of the corpus program must still end in a
    # LispError, never another exception: through eval_text, as the body
    # of an APPLY$ lambda, and under `stlisp run`.
    interp = Interp(mode=mode)
    passing, failing = [], []
    for form in sexpr.read_all(CALL_CHECKS_LISP.read_text()):
        try:
            interp.eval_text(show(form))
            passing.append(form)
        except LispError:
            failing.append(form)
    assert (len(passing), len(failing)) == (15, 52)
    prefix = "\n".join(show(f) for f in passing) + "\n"
    for form in failing:
        body = sexpr.from_pylist([kernel.LAMBDA, read("(x)"), form])
        with pytest.raises(LispError):
            interp.apply_lambda(body, [1])
        path = tmp_path / "one.lisp"
        path.write_text(prefix + show(form))
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["run", "--mode", mode, str(path)])
        assert code == 1
        assert out.getvalue().splitlines()[len(passing)].startswith(
            "error: ")


# ------------------------------------------------ names that are never bound

UNBINDABLE = [
    ("(defun h (t) t)", EvalError, "bad defun formal T in (DEFUN H (T) T)"),
    ("(defun h (:k) 1)", EvalError,
     "bad defun formal :K in (DEFUN H (:K) 1)"),
    ("(let ((t 5)) t)", LinearityError,
     "single-threadedness violation in this top-level form:\n"
     "  R1: bad LET variable T in (LET ((T 5)) T)"),
    ("(let* ((nil 5)) nil)", LinearityError,
     "single-threadedness violation in this top-level form:\n"
     "  R1: bad LET* variable NIL in (LET* ((NIL 5)) NIL)"),
    ("(mv-let (a t) (mv 1 2) a)", LinearityError,
     "single-threadedness violation in this top-level form:\n"
     "  R1: bad MV-LET variable T in (MV-LET (A T) (MV 1 2) A)"),
    ("(defun h (x) (let ((:k x)) :k))", LinearityError,
     "single-threadedness violation in H:\n"
     "  R1: bad LET variable :K in (LET ((:K X)) :K)"),
    ("(apply$ '(lambda (t) t) '(5))", EvalError,
     "bad lambda formal T in (APPLY$ (QUOTE (LAMBDA (T) T)) (QUOTE (5)))"),
    ("(loop$ with x = 0 do (let ((t 1)) (return x)))", LinearityError,
     "single-threadedness violation in this top-level form:\n"
     "  R1: bad LET variable T in (LET ((T 1)) (RETURN X))"),
    ("(defstobj t fld)", EvalError, "bad stobj name T in (DEFSTOBJ T FLD)"),
    ("(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
     "(t) (fld switch) t)", LinearityError,
     "single-threadedness violation in this top-level form:\n"
     "  R1: bad stobj-let output T in (STOBJ-LET ((SWITCH (TBL-GET "
     "(QUOTE SWITCH) TOP (CREATE-SWITCH)))) (T) (FLD SWITCH) T)"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text,cls,message", UNBINDABLE,
                         ids=[t for t, _, _ in UNBINDABLE])
def test_constant_names_may_not_be_bound(mode, text, cls, message):
    assert failure(prelude(mode), text) == (cls, message)


def test_do_body_binding_of_a_constant_is_an_eval_error():
    interp = Interp()
    form = read("(loop$ with x = 0 do (mv-let (a nil) (mv 1 2) (return a)))")
    spec = loops.parse_loop(form, interp.world)
    with pytest.raises(EvalError) as exc:
        loops.make_do_plan(spec, interp.world)
    assert type(exc.value) is EvalError
    assert str(exc.value) == ("bad MV-LET variable NIL in "
                              "(MV-LET (A NIL) (MV 1 2) (RETURN A))")


@pytest.mark.parametrize("mode", MODES)
def test_constants_still_evaluate_to_themselves(mode):
    interp = prelude(mode)
    assert interp.eval_text("(let ((x 1)) t)")[0][1] is T
    assert interp.eval_text("(g nil)")[0][1] is NIL
    assert interp.eval_text("(g :k)")[0][1] is intern(":K")


@pytest.mark.parametrize("mode", MODES)
def test_duplicate_lambda_formals_rejected_like_defun(mode):
    interp = prelude(mode)
    assert failure(interp, "(defun d (x x) x)") == (
        EvalError, "duplicate formal in defun D in (DEFUN D (X X) X)")
    assert failure(interp, "(apply$ '(lambda (x x) x) '(1 2))") == (
        EvalError, "duplicate formal in this lambda in "
        "(APPLY$ (QUOTE (LAMBDA (X X) X)) (QUOTE (1 2)))")


# ------------------------------------------------------------ deep recursion

COUNT = """
(defun cnt (n acc)
  (declare (xargs :measure (nfix n)))
  (if (zp n) acc (cnt (1- n) (1+ acc))))
"""


@pytest.mark.parametrize("mode", MODES)
def test_deep_recursion_is_an_eval_error(mode):
    interp = Interp(mode=mode)
    interp.eval_text(COUNT)
    assert interp.eval_text("(cnt 50 0)")[0][1] == 50
    cls, message = failure(interp, "(cnt 2000 0)")
    assert cls is EvalError
    assert message.startswith("nesting too deep: evaluation exceeded "
                              "Python's recursion limit of ")
    assert message.endswith(" in (CNT 2000 0)")
    # the session is still usable, and no measure is left pending
    assert interp.eval_text("(cnt 50 0)")[0][1] == 50


@pytest.mark.parametrize("mode", MODES)
def test_a_call_300_deep_returns(mode):
    # A Lisp call takes three Python frames (eval, FunctionDef.run,
    # _call_defun), and the deepest CNT call that returns under pytest is
    # 317: a fourth frame per call would bring it under 240.
    interp = Interp(mode=mode)
    interp.eval_text(COUNT)
    assert interp.eval_text("(cnt 300 0)")[0][1] == 300


@pytest.mark.parametrize("mode", MODES)
def test_deep_values_compare_equal(mode):
    interp = Interp(mode=mode)
    interp.eval_text("(defun deep (k) (loop$ with n = k with x = nil do "
                     "(if (zp n) (return x) "
                     "(progn (setq x (cons x nil)) (setq n (1- n))))))")
    assert interp.eval_text("(equal (deep 10000) (deep 10000))")[0][1] is T
    assert interp.eval_text("(equal (deep 10000) (deep 9999))")[0][1] is NIL
