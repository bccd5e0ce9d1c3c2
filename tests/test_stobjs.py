"""Stobj tests: defstobj parsing, generated operations, the static
single-threadedness rules, stobj-let, and table retraction on undo."""

import functools

import pytest
from hypothesis import given, seed, settings, strategies as hs

from conftest import count_calls
from stlisp import kernel, loops, sexpr, stobjs
from stlisp.errors import EvalError, LinearityError
from stlisp.kernel import Interp
from stlisp.sexpr import NIL, T, read, show


SWITCH_DEMO = """
(defstobj switch fld)
(defstobj top (tbl :type (stobj-table)))
(defun flip-switch (top)
  (declare (xargs :stobjs (top)))
  (stobj-let ((switch (tbl-get 'switch top (create-switch))))
             (switch)
             (update-fld (not (fld switch)) switch)
             top))
(defun print-switch (top)
  (declare (xargs :stobjs (top)))
  (stobj-let ((switch (tbl-get 'switch top (create-switch))))
             (flg)
             (fld switch)
             (if flg "ON" "OFF")))
"""


def fixture(text, **kw):
    interp = Interp(**kw)
    interp.eval_text(text)
    return interp


# ----------------------------------------------------------------- defstobj

def test_defstobj_field_forms():
    interp = Interp()
    interp.eval_text(
        "(defstobj st a (b :type t) (c :initially 7) "
        "(d :type (stobj-table)))")
    spec = interp.world.stobj_spec("ST")
    assert [f.name for f in spec.fields] == ["A", "B", "C", "D"]
    assert [f.kind for f in spec.fields] \
        == ["scalar", "scalar", "scalar", "table"]
    assert interp.eval_text("(c st)")[0][1] == 7
    assert interp.eval_text("(a st)")[0][1] is NIL


def test_defstobj_rejections():
    cases = [
        ("(defstobj st)", "needs a name and at least one field"),
        ("(defstobj st f f)", "duplicate field F"),
        ("(defstobj st (f :type (array t (8))))", "array fields"),
        ("(defstobj st (f :type integer))", "unsupported field type"),
        ("(defstobj st (f :initially 0 :resizable t))",
         "unsupported field option"),
        ("(defstobj st (f :type (stobj-table) :initially 3))",
         ":initially is not meaningful"),
    ]
    for text, msg in cases:
        interp = Interp()
        with pytest.raises(EvalError) as exc:
            interp.eval_text(text)
        assert msg in str(exc.value), text


def test_defstobj_name_collisions():
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    with pytest.raises(EvalError):
        interp.eval_text("(defstobj st other)")
    # generated op names are claimed too
    with pytest.raises(EvalError):
        interp.eval_text("(defun fld (x) x)")
    with pytest.raises(EvalError):
        interp.eval_text("(defstobj update-fld x)")


# ------------------------------------------------------------ generated ops

def test_recognizer_on_logical_lists():
    interp = Interp()
    interp.eval_text("(defstobj st a b)")
    # logically a stobj is a proper list of its field values
    assert interp.eval_text("(stp '(1 2))")[0][1] is T
    assert interp.eval_text("(stp '(1))")[0][1] is NIL
    assert interp.eval_text("(stp '(1 2 3))")[0][1] is NIL
    assert interp.eval_text("(stp 5)")[0][1] is NIL
    # the recognizer takes an ordinary value, never the live instance
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(stp st)")
    assert "stobj ST passed where STP expects an ordinary value" \
        in str(exc.value)
    # fresh creator output satisfies its own recognizer
    assert sexpr.truthy(stobjs.recognizer_value(
        interp.world.stobj_spec("ST"), interp.bank["ST"].logical_view()))


def test_get_update_and_logical_view():
    interp = Interp()
    interp.eval_text("(defstobj st (a :initially 1) (b :initially 2))")
    interp.eval_text("(update-a 10 st)")
    assert interp.eval_text("(a st)")[0][1] == 10
    assert interp.eval_text("(b st)")[0][1] == 2
    inst = interp.bank["ST"]
    assert show(inst.logical_view()) == "(10 2)"
    assert inst.print_name == "<ST>"


# ST has a scalar field and a table that already holds KID; each entry of
# WRITES makes one kind of stobj write to ST.
WRITE_SETUP = """
(defstobj kid val)
(defstobj st fld (tbl :type (stobj-table)))
(defun put-kid (x st)
  (declare (xargs :stobjs (st)))
  (stobj-let ((kid (tbl-get 'kid st (create-kid))))
             (kid) (update-val x kid) st))
(put-kid 1 st)
"""
WRITES = {"update": "(update-fld 1 st)", "tbl-rem": "(tbl-rem 'kid st)",
          "tbl-clear": "(tbl-clear st)", "stobj-let": "(put-kid 2 st)"}


@pytest.mark.parametrize("write", WRITES)
def test_native_updates_in_place_logical_copies(write):
    log = fixture(WRITE_SETUP)
    before = log.bank["ST"]
    view, table = show(before.logical_view()), before.get_cell(1)
    entries = dict(table.data)
    log.eval_text(WRITES[write])
    after = show(log.bank["ST"].logical_view())
    assert log.bank["ST"] is not before
    assert after != view
    assert show(before.logical_view()) == view
    assert before.get_cell(1) is table and table.data == entries

    nat = fixture(WRITE_SETUP, mode="native")
    before = nat.bank["ST"]
    nat.eval_text(WRITES[write])
    assert nat.bank["ST"] is before
    assert show(before.logical_view()) == after


def test_create_blocked_outside_stobj_let():
    interp = fixture("(defstobj st fld)")
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(create-st)")
    assert "CREATE-ST may only be used as a stobj-table default inside " \
        "stobj-let" in str(exc.value)


# --------------------------------------------------------- linearity rules

def check(interp, text):
    with pytest.raises(LinearityError) as exc:
        interp.eval_text(text)
    return str(exc.value)


def test_rule_aliasing_rejected():
    interp = fixture("(defstobj st fld)")
    msg = check(interp, "(defun f (st) (declare (xargs :stobjs (st))) "
                        "(let ((x st)) x))")
    assert "must be rebound to the name ST, not X" in msg


def test_rule_discarded_update_rejected():
    interp = fixture("(defstobj st fld)")
    msg = check(interp, "(defun f (st) (declare (xargs :stobjs (st))) "
                        "(let ((st (update-fld 1 st))) (fld st)))")
    assert "bound in this LET but is not among the values of its body" in msg
    assert "would be discarded" in msg


def test_rule_branches_must_agree():
    interp = fixture("(defstobj st fld)")
    msg = check(interp, "(defun f (b st) (declare (xargs :stobjs (st))) "
                        "(if b (update-fld 1 st) (fld st)))")
    assert "return different stobjs" in msg
    assert "(ST) vs (*)" in msg


def test_rule_stobj_in_ordinary_slot():
    interp = fixture("(defstobj st fld)")
    msg = check(interp, "(defun f (st) (declare (xargs :stobjs (st))) "
                        "(car st))")
    assert "stobj ST passed where CAR expects an ordinary value" in msg


def test_rule_stobj_twice_in_mv():
    interp = fixture("(defstobj st fld)")
    msg = check(interp, "(defun f (st) (declare (xargs :stobjs (st))) "
                        "(mv st st))")
    assert "stobj ST appears twice" in msg


def test_rule_stobj_name_not_ordinary():
    interp = fixture("(defstobj st fld)")
    msg = check(interp, "(defun f (st) (declare (xargs :stobjs (st))) "
                        "(let ((st 5)) st))")
    assert "stobj name ST may not be rebound to an ordinary value" in msg
    msg = check(interp, "(defun g (x) (let ((st (+ x 1))) st))")
    assert "stobj name ST may not be used as an ordinary variable" in msg


@pytest.mark.parametrize("text,binder", [
    ("(defun g (l) (loop$ for st in l sum st))", "G"),
    ("(apply$ '(lambda (st) (cons st st)) '(5))", "this lambda"),
    ("(defun h (x) (let ((st x)) (cons st st)))", "H"),
])
@pytest.mark.parametrize("mode", ["logical", "native"])
def test_for_variables_and_lambda_formals_are_bound_like_let(text, binder,
                                                             mode):
    # where no stobj ST is live, binding the name to an ordinary value has
    # one text, whatever binds it
    interp = fixture("(defstobj st fld)", mode=mode)
    with pytest.raises(LinearityError) as exc:
        interp.eval_text(text)
    assert exc.value.name == binder
    assert exc.value.violations == [
        "R3: stobj name ST may not be used as an ordinary variable"]


def test_a_for_variable_may_not_rebind_a_live_stobj():
    interp = fixture("(defstobj st fld)")
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(defun g (st l) (declare (xargs :stobjs (st))) "
                         "(mv (loop$ for st in l sum st) st))")
    assert exc.value.violations == [
        "R3: stobj name ST may not be rebound to an ordinary value"]


def test_rule_parallel_let_update_and_read():
    interp = fixture("(defstobj st fld)")
    msg = check(interp, "(defun f (st) (declare (xargs :stobjs (st))) "
                        "(let ((st (update-fld 1 st)) (x (fld st))) "
                        "(mv x st)))")
    assert "parallel LET both updates and reads stobj ST" in msg


def test_parallel_let_right_hand_sides_see_the_enclosing_scope():
    # ST is bound as an ordinary variable, which is the one violation
    interp = fixture("(defstobj st fld)")
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(defun g (x) (let ((st (+ x 1))) "
                         "(let ((a st) (b 1)) a)))")
    assert exc.value.violations == [
        "R3: stobj name ST may not be used as an ordinary variable"]


TWICE = """(defun twice (st)
             (declare (xargs :stobjs (st)))
             (let ((st (update-fld (cons 1 (fld st)) st))
                   (st (update-fld (cons 2 (fld st)) st)))
               st))"""


def test_parallel_let_and_mv_let_bind_each_name_once():
    interp = fixture("(defstobj st fld)")
    with pytest.raises(LinearityError) as exc:
        interp.eval_text(TWICE)
    assert exc.value.violations == [
        "R1: duplicate LET variable ST in (LET ((ST (UPDATE-FLD (CONS 1 "
        "(FLD ST)) ST)) (ST (UPDATE-FLD (CONS 2 (FLD ST)) ST))) ST)"]
    with pytest.raises(EvalError, match="duplicate MV-LET variable A"):
        interp.eval_text("(mv-let (a b a) (mv 1 2 3) a)")
    # LET* binds in sequence, so a later binding may shadow an earlier one
    assert interp.eval_text("(let* ((x 1) (x (+ x 1))) x)")[0][1] == 2


def test_rule_undeclared_stobj_use():
    interp = fixture("(defstobj st fld)")
    # in a stobj slot: flagged as not live
    msg = check(interp, "(defun f (x) (fld st))")
    assert "FLD expects the stobj ST in this position" in msg
    # in an ordinary slot: flagged as an undeclared stobj use
    msg = check(interp, "(defun g (x) (car st))")
    assert "stobj ST is used without being declared or bound here" in msg


def test_multiple_violations_reported_together():
    interp = fixture("(defstobj st fld)")
    msg = check(interp, "(defun f (st) (declare (xargs :stobjs (st))) "
                        "(let ((x st)) (car st)))")
    assert "must be rebound to the name ST" in msg
    assert msg.count("R") >= 2


ANALYZER_PATHS = [
    ("(defun h (x) (report-completion-or-error-and-return x x))",
     "R1: REPORT-COMPLETION-OR-ERROR-AND-RETURN needs, for some stobj S, "
     "PROC-IDS with the shape () => (*) and RANK with the shape (* S) => "
     "(*) in (REPORT-COMPLETION-OR-ERROR-AND-RETURN X X)"),
    ("(defun h (x) (loop$ with i = x do :values (nil st) :measure (nfix i) "
     "(return (mv i st))))",
     "R1: :VALUES stobj ST is not a live stobj here"),
    ("(defun h (x) (stobj-let ((switch (tbl-get 'switch top "
     "(create-switch)))) (flg) (fld switch) flg))",
     "R1: stobj-let parent TOP is not a live stobj here"),
    ("(defun h (top) (declare (xargs :stobjs (top))) (stobj-let ((switch "
     "(tbl-get 'switch top (create-switch)))) (flg) (mv 1 2) flg))",
     "R2: stobj-let producer returns 2 values for 1 outputs"),
    ("(defun h (x) (cons (declare (ignore x)) x))",
     "R1: misplaced declare form (DECLARE (IGNORE X))"),
    ("(defun h (n) (declare (xargs :measure (nfix n))) (h (1- n)))",
     "R2: cannot infer what H returns; every path is self-recursive"),
]


@pytest.mark.parametrize("text,violation", ANALYZER_PATHS, ids=[
    "report-shape", "values-stobj", "stobj-let-parent", "producer-count",
    "declare", "self-recursive"])
def test_analyzer_path_has_its_text(text, violation):
    interp = fixture(SWITCH_DEMO + "(defstobj st sfld)")
    with pytest.raises(LinearityError) as exc:
        interp.eval_text(text)
    assert exc.value.violations == [violation]


def test_a_self_call_bound_to_its_stobj_takes_the_stobj_shape():
    # The first pass meets the self-call before any base case, so the LET
    # adopts the shape of the name it binds.
    text = ("(defun f (n st) (declare (xargs :stobjs (st) :measure (nfix n))) "
            "(if (not (zp n)) (let ((st (update-fld n st))) "
            "(let ((st (f (1- n) st))) st)) st))")
    for mode in ("logical", "native"):
        interp = fixture("(defstobj st fld)", mode=mode)
        interp.eval_text(text)
        assert interp.world.functions["F"].outputs == ("ST",)
        interp.eval_text("(f 3 st)")
        assert interp.eval_text("(fld st)")[0][1] == 1


def test_accepted_single_threaded_defuns():
    interp = fixture(SWITCH_DEMO)
    interp.eval_text("""
      (defstobj st fld2)
      (defun bump (st)
        (declare (xargs :stobjs (st)))
        (update-fld2 (cons 1 (fld2 st)) st))
      (defun read-then-write (st)
        (declare (xargs :stobjs (st)))
        (let ((old (fld2 st)))
          (let ((st (update-fld2 (cons old old) st)))
            st)))
      (defun two-values (st)
        (declare (xargs :stobjs (st)))
        (let ((st (update-fld2 0 st)))
          (mv (fld2 st) st)))
    """)
    out = interp.eval_text("(two-values st)")[0][1]
    assert isinstance(out, sexpr.MultiValue)


# Bodies over the stobj ST, by the kind of their result: an ordinary value,
# the stobj, or (MV value ST).  The self-call (f (1- n) st) appears only
# where the defun's own kind is wanted.  An ordinary value may misuse ST or
# drop an update of it, so some defuns are rejected.
LEAVES = {"val": ["n", "x", "0", "'a", "(fld st)", "st"],
          "st": ["st", "(update-fld n st)"],
          "mv": ["(mv (fld st) st)", "(mv n st)"]}


@functools.cache
def body(kind, out, depth):
    options = [hs.sampled_from(LEAVES[kind])]
    if kind == out:
        options.append(hs.just("(f (1- n) st)"))
    if depth:
        sub = lambda k: body(k, out, depth - 1)
        form = lambda fmt, *kinds: hs.tuples(*map(sub, kinds)).map(
            lambda parts: fmt % parts)
        options += [form("(if %s %s %s)", "val", kind, kind),
                    form("(let ((x %s)) %s)", "val", kind),
                    form("(let* ((st %s) (x (fld st))) %s)", "st", kind)]
        if kind == "val":
            options.append(form("(cons %s %s)", "val", "val"))
        else:
            options += [form("(mv-let (x st) %s %s)", "mv", kind),
                        form("(update-fld %s st)" if kind == "st"
                             else "(mv %s st)", "val")]
    return hs.one_of(options)


RECURSIVE_DEFUNS = hs.sampled_from(sorted(LEAVES)).flatmap(
    lambda out: hs.tuples(body(out, None, 1), body(out, out, 3).filter(
        lambda step: "(f (1- n) st)" in step)))


@seed(2026)
@settings(max_examples=200, deadline=None, database=None)
@given(RECURSIVE_DEFUNS)
def test_admitted_recursive_defuns_agree_in_both_modes(case):
    text = ("(defun f (n st) (declare (xargs :stobjs (st) "
            ":measure (nfix n))) (if (zp n) %s %s))" % case)
    runs = []
    for mode in ("logical", "native"):
        interp = fixture("(defstobj st fld)", mode=mode)
        run = []
        runs.append(run)
        try:
            interp.eval_text(text)
        except LinearityError as e:
            run.append(e.violations)
            continue
        for n in range(3):
            try:
                value = show(interp.eval_text("(f %d st)" % n)[0][1])
            except EvalError as e:
                # An update made before the error stays in the native bank
                # and not in the logical one (see ROADMAP), so the banks
                # are compared only after calls that return.  Admission
                # rejects every free name, so none is unbound here.
                assert "unbound variable" not in str(e)
                run.append((type(e).__name__, str(e)))
                break
            run.append((value, show(interp.bank["ST"].logical_view())))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------- stobj-let

def test_switch_demo_transcript():
    for mode in ("logical", "native"):
        interp = fixture(SWITCH_DEMO, mode=mode)
        vals = [v for _, v in interp.eval_text("""
          (print-switch top)
          (flip-switch top)
          (print-switch top)
          (flip-switch top)
          (print-switch top)
        """)]
        assert vals[0] == "OFF"
        assert vals[2] == "ON"
        assert vals[4] == "OFF"


def test_read_only_access_does_not_populate_table():
    interp = fixture(SWITCH_DEMO)
    assert interp.eval_text("(tbl-count top)")[0][1] == 0
    interp.eval_text("(print-switch top)")
    assert interp.eval_text("(tbl-count top)")[0][1] == 0
    assert interp.eval_text("(tbl-boundp 'switch top)")[0][1] is NIL
    interp.eval_text("(flip-switch top)")
    assert interp.eval_text("(tbl-count top)")[0][1] == 1
    assert interp.eval_text("(tbl-boundp 'switch top)")[0][1] is T


def test_table_ops_at_top_level():
    interp = fixture(SWITCH_DEMO)
    interp.eval_text("(flip-switch top)")
    assert interp.eval_text("(tbl-count top)")[0][1] == 1
    interp.eval_text("(tbl-rem 'switch top)")
    assert interp.eval_text("(tbl-count top)")[0][1] == 0
    assert interp.eval_text("(tbl-boundp 'switch top)")[0][1] is NIL
    interp.eval_text("(flip-switch top)")
    interp.eval_text("(tbl-clear top)")
    assert interp.eval_text("(tbl-count top)")[0][1] == 0


def test_table_key_must_be_symbol():
    interp = fixture(SWITCH_DEMO)
    with pytest.raises(EvalError) as exc:
        interp.eval_text("(tbl-boundp 3 top)")
    assert "stobj-table key must be a symbol" in str(exc.value)


def test_tbl_get_and_put_restricted_to_stobj_let():
    interp = fixture(SWITCH_DEMO)
    msg = check(interp, "(tbl-get 'switch top (create-switch))")
    assert "TBL-GET may only be used inside stobj-let bindings" in msg
    msg = check(interp, "(defun f (top) (declare (xargs :stobjs (top))) "
                        "(tbl-put 'switch nil top))")
    assert "TBL-PUT may only be used through stobj-let writeback" in msg


def test_stobj_let_accessor_validation():
    interp = fixture(SWITCH_DEMO)
    base = ("(defun f (top) (declare (xargs :stobjs (top))) "
            "(stobj-let (%s) (flg) (fld switch) flg))")
    msg = check(interp, base % "(switch (tbl-get 'switch top))")
    assert "must be (<table>-GET 'key parent default)" in msg
    msg = check(interp,
                base % "(switch (fld 'switch top (create-switch)))")
    assert "FLD is not a stobj-table get operation" in msg
    msg = check(interp,
                base % "(switch (tbl-get 'other top (create-switch)))")
    assert "binds SWITCH but looks up key OTHER" in msg
    msg = check(interp,
                base % "(switch (tbl-get 'switch other (create-switch)))")
    assert "TBL-GET reads the table of stobj TOP, not OTHER" in msg
    msg = check(interp,
                base % "(switch (tbl-get 'switch top (create-top)))")
    assert "default for key SWITCH must be (CREATE-SWITCH)" in msg
    msg = check(interp, base % "(nosuch (tbl-get 'nosuch top (create-nosuch)))")
    assert "binds NOSUCH, which is not a defined stobj" in msg


def test_stobj_let_binds_child_once():
    interp = fixture(SWITCH_DEMO)
    msg = check(interp,
                "(defun f (top) (declare (xargs :stobjs (top))) "
                "(stobj-let ((switch (tbl-get 'switch top (create-switch))) "
                "(switch (tbl-get 'switch top (create-switch)))) "
                "(flg) (fld switch) flg))")
    assert "binds SWITCH twice" in msg


def test_stobj_let_consumer_must_return_written_parent():
    interp = fixture(SWITCH_DEMO)
    msg = check(interp,
                "(defun f (top) (declare (xargs :stobjs (top))) "
                "(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
                "(switch) (update-fld t switch) 42))")
    assert "consumer must return TOP or the update would be discarded" in msg


def test_stobj_let_parent_unavailable_in_producer():
    interp = fixture(SWITCH_DEMO)
    msg = check(interp,
                "(defun f (top) (declare (xargs :stobjs (top))) "
                "(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
                "(flg) (tbl-count top) flg))")
    assert "TBL-COUNT expects the stobj TOP in this position" in msg
    # a top-level form is admitted by the same rule
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(stobj-let ((switch (tbl-get 'switch top "
                         "(create-switch)))) (flg) (tbl-count top) flg)")
    assert exc.value.violations == [
        "R1: TBL-COUNT expects the stobj TOP in this position of "
        "(TBL-COUNT TOP)"]


def test_stobj_let_child_unavailable_in_consumer():
    interp = fixture(SWITCH_DEMO)
    msg = check(interp,
                "(defun f (top) (declare (xargs :stobjs (top))) "
                "(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
                "(switch) (update-fld t switch) (mv (fld switch) top)))")
    assert "FLD expects the stobj SWITCH in this position" in msg


def test_stobj_let_updated_child_must_be_output():
    interp = fixture(SWITCH_DEMO)
    msg = check(interp,
                "(defun f (top) (declare (xargs :stobjs (top))) "
                "(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
                "(flg) (let ((switch (update-fld t switch))) "
                "(fld switch)) flg))")
    assert "child SWITCH is updated in the producer but is not among the " \
        "stobj-let outputs" in msg


def test_stobj_let_producer_is_walked_once(monkeypatch):
    interp = fixture(SWITCH_DEMO)
    calls = count_calls(monkeypatch, stobjs.Analyzer, "_shape_of")
    interp.eval_text(
        "(defun peek (top) (declare (xargs :stobjs (top))) "
        "(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
        "(flg) (cons (fld switch) (cons (fld switch) nil)) flg))")
    # one callee lookup per call in the producer: CONS, FLD, CONS, FLD
    assert [c[1] for c in calls] == ["CONS", "FLD", "CONS", "FLD"]


def test_default_creator_in_a_nested_stobj_let_is_not_an_update():
    # the inner stobj-let reads a SWITCH from MID; its default
    # (CREATE-SWITCH) does not update the outer child SWITCH
    text = """
    (defstobj switch fld)
    (defstobj mid (mtbl :type (stobj-table)))
    (defstobj top (tbl :type (stobj-table)))
    (defun peek (top)
      (declare (xargs :stobjs (top)))
      (stobj-let ((mid (tbl-get 'mid top (create-mid)))
                  (switch (tbl-get 'switch top (create-switch))))
                 (flg)
                 (stobj-let ((switch (mtbl-get 'switch mid (create-switch))))
                            (flg2) (fld switch) flg2)
                 flg))
    (peek top)"""
    for mode in ("logical", "native"):
        assert fixture(text, mode=mode).eval_text("(tbl-count top)")[0][1] \
            == 0


def nested_lets(k, inner):
    """k two-binding parallel LETs, each in the first right-hand side of
    the one around it, with inner at the bottom."""
    for _ in range(k):
        inner = "(let ((a %s) (b 1)) a)" % inner
    return inner


@pytest.mark.parametrize("k", [4, 8, 12])
def test_each_let_right_hand_side_is_analyzed_once(monkeypatch, k):
    interp = Interp()
    calls = count_calls(monkeypatch, stobjs.Analyzer, "analyze")
    interp.eval_text("(defun g (x) %s)" % nested_lets(k, "x"))
    # each LET, its second right-hand side and its body, then X
    assert len(calls) == 3 * k + 1
    assert interp.eval_text("(g 5)")[0][1] == 5


def test_a_loop_under_nested_lets_is_planned_once(monkeypatch):
    interp = Interp()
    calls = count_calls(monkeypatch, loops, "make_do_plan")
    interp.eval_text("(defun h (x) %s)" % nested_lets(
        10, "(loop$ with i = x do :measure (nfix i) "
            "(if (zp i) (return 7) (setq i (1- i))))"))
    assert len(calls) == 1
    assert interp.eval_text("(h 3)")[0][1] == 7


def test_stobj_let_output_may_not_rebind_a_stobj():
    interp = fixture(SWITCH_DEMO + "(defstobj st st-fld)")
    msg = check(interp,
                "(defun h (top) (declare (xargs :stobjs (top))) "
                "(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
                "(top) 5 top))")
    assert "R3: stobj name TOP may not be rebound to an ordinary value" \
        in msg
    msg = check(interp,
                "(defun h (top) (declare (xargs :stobjs (top))) "
                "(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
                "(st) 5 (mv st top)))")
    assert "R3: stobj name ST may not be used as an ordinary variable" in msg


def test_stobj_let_producer_output_mismatch():
    interp = fixture(SWITCH_DEMO)
    msg = check(interp,
                "(defun f (top) (declare (xargs :stobjs (top))) "
                "(stobj-let ((switch (tbl-get 'switch top (create-switch)))) "
                "(switch) (fld switch) top))")
    assert "output SWITCH expects (SWITCH) but the producer returns (*)" \
        in msg


def test_two_children_from_one_table():
    interp = fixture("""
      (defstobj a fld-a)
      (defstobj b fld-b)
      (defstobj top (tbl :type (stobj-table)))
      (defun poke-both (top)
        (declare (xargs :stobjs (top)))
        (stobj-let ((a (tbl-get 'a top (create-a)))
                    (b (tbl-get 'b top (create-b))))
                   (a b)
                   (let ((a (update-fld-a 1 a)))
                     (let ((b (update-fld-b 2 b)))
                       (mv a b)))
                   top))
    """)
    interp.eval_text("(poke-both top)")
    assert interp.eval_text("(tbl-count top)")[0][1] == 2
    assert interp.eval_text("(tbl-boundp 'a top)")[0][1] is T
    assert interp.eval_text("(tbl-boundp 'b top)")[0][1] is T


def test_modes_agree_on_stobj_let_programs():
    views = []
    for mode in ("logical", "native"):
        interp = fixture(SWITCH_DEMO, mode=mode)
        interp.eval_text("""
          (flip-switch top)
          (flip-switch top)
          (flip-switch top)
        """)
        views.append(interp.bank["TOP"].logical_view())
        assert interp.eval_text("(print-switch top)")[0][1] == "ON"
    assert sexpr.equal(views[0], views[1])


def test_logical_view_sorts_table_keys():
    interp = fixture("""
      (defstobj zeta z)
      (defstobj alpha a)
      (defstobj top (tbl :type (stobj-table)))
      (defun put-zeta (top)
        (declare (xargs :stobjs (top)))
        (stobj-let ((zeta (tbl-get 'zeta top (create-zeta))))
                   (zeta) (update-z 1 zeta) top))
      (defun put-alpha (top)
        (declare (xargs :stobjs (top)))
        (stobj-let ((alpha (tbl-get 'alpha top (create-alpha))))
                   (alpha) (update-a 2 alpha) top))
      (put-zeta top)
      (put-alpha top)
    """)
    view = interp.bank["TOP"].logical_view()
    assert show(view) == "(((ALPHA 2) (ZETA 1)))"


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_an_unchanged_child_is_written_back_again(mode):
    # Logical table versions share their children, and a native write-back
    # stores the child into the cell that already holds it.
    interp = fixture("""
      (defstobj kid val)
      (defstobj top (tbl :type (stobj-table)))
      (defun same-kid (top)
        (declare (xargs :stobjs (top)))
        (stobj-let ((kid (tbl-get 'kid top (create-kid))))
                   (kid) kid top))
    """, mode=mode)
    for _ in range(3):
        interp.eval_text("(same-kid top)")
    assert show(interp.bank["TOP"].logical_view()) == "(((KID NIL)))"


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_a_write_to_a_two_field_stobj_keeps_the_other_field(mode):
    # A logical write copies the cells and leaves the old version whole;
    # a native one writes the same instance.
    interp = fixture("(defstobj st a b) (update-b 2 st)", mode=mode)
    old = interp.bank["ST"]
    interp.eval_text("(update-a 1 st)")
    new = interp.bank["ST"]
    assert show(new.logical_view()) == "(1 2)"
    if mode == "logical":
        assert new is not old
        assert show(old.logical_view()) == "(NIL 2)"
    else:
        assert new is old


# Two outputs, a child and an ordinary value, in either order.
CHILD_AND_VALUE = """
(defstobj kid val)
(defstobj top (tbl :type (stobj-table)))
(defun bump (top)
  (declare (xargs :stobjs (top)))
  (stobj-let ((kid (tbl-get 'kid top (create-kid))))
             (old kid)
             (let* ((old (nfix (val kid)))
                    (kid (update-val (1+ old) kid)))
               (mv old kid))
             (mv old top)))
(defun bump-by-ten (top)
  (declare (xargs :stobjs (top)))
  (stobj-let ((kid (tbl-get 'kid top (create-kid))))
             (kid old)
             (let* ((old (nfix (val kid)))
                    (kid (update-val (+ 10 old) kid)))
               (mv kid old))
             (mv old top)))
"""


def test_a_stobj_let_writes_back_a_child_beside_a_value():
    runs = []
    for mode in ("logical", "native"):
        interp = fixture(CHILD_AND_VALUE, mode=mode)
        values = [show(v) for _f, v in interp.eval_text(
            "(bump top) (bump top) (bump-by-ten top) (bump top)")]
        runs.append((values, show(interp.bank["TOP"].logical_view())))
    assert runs[0] == runs[1]
    assert runs[0] == (["(0 <TOP>)", "(1 <TOP>)", "(2 <TOP>)", "(12 <TOP>)"],
                       "(((KID 13)))")


# A parent with a scalar field before its table, so the table is not the
# stobj's only cell.
TWO_FIELD_TOP = """
(defstobj kid val)
(defstobj top n (tbl :type (stobj-table)))
(defun poke-in-let (v top)
  (declare (xargs :stobjs (top)))
  (let ((w (1+ v)))
    (stobj-let ((kid (tbl-get 'kid top (create-kid))))
               (kid)
               (update-val w kid)
               top)))
(defun peek-outer (v top)
  (declare (xargs :stobjs (top)))
  (stobj-let ((kid (tbl-get 'kid top (create-kid))))
             (x)
             (val kid)
             v))
(defun peek-both (v top)
  (declare (xargs :stobjs (top)))
  (let ((w (cons v (n top))))
    (stobj-let ((kid (tbl-get 'kid top (create-kid))))
               (x)
               (val kid)
               (cons x (cons w (n top))))))
(defun peek-output (top)
  (declare (xargs :stobjs (top)))
  (stobj-let ((kid (tbl-get 'kid top (create-kid))))
             (x)
             (val kid)
             x))
"""


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_stobj_let_parents_and_consumers_in_every_scope(mode):
    interp = fixture(TWO_FIELD_TOP, mode=mode)
    steps = [
        # the parent comes from the bank: a top-level form has no frame
        ("(stobj-let ((kid (tbl-get 'kid top (create-kid)))) (x) (val kid) "
         "x)", "NIL"),
        ("(update-n 'm top)", "<TOP>"),
        ("(stobj-let ((kid (tbl-get 'kid top (create-kid)))) (kid) "
         "(update-val 3 kid) top)", "<TOP>"),
        ("(stobj-let ((kid (tbl-get 'kid top (create-kid)))) (x) (val kid) "
         "(cons x (n top)))", "(3 . M)"),
        # the parent lies in a frame outside the LET around the stobj-let
        ("(poke-in-let 6 top)", "<TOP>"),
        ("(peek-output top)", "7"),
        # consumers: an outer variable, and compound forms that read an
        # output, an outer variable and the parent
        ("(peek-outer 'v top)", "V"),
        ("(peek-both 'v top)", "(7 (V . M) . M)"),
        ("(let ((n 9)) (stobj-let ((kid (tbl-get 'kid top (create-kid)))) "
         "(x) (val kid) (+ x n)))", "16")]
    for text, want in steps:
        assert show(interp.eval_text(text)[-1][1]) == want, text
    assert show(interp.bank["TOP"].logical_view()) == "(M ((KID 7)))"
    assert show(interp.bank["KID"].logical_view()) == "(NIL)"


# A formal read inside a LET inside a stobj-let producer lies three
# scopes out: the LET's, the producer's and the defun's.  The LET's W
# shadows the formal W.
FORMAL_IN_PRODUCER = """
(defstobj kid val)
(defstobj top (tbl :type (stobj-table)))
(defun set-in-let (d w top)
  (declare (xargs :stobjs (top)))
  (stobj-let ((kid (tbl-get 'kid top (create-kid))))
             (kid)
             (let ((w (* 2 w)))
               (update-val (+ d w) kid))
             top))
"""


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_a_formal_is_read_in_a_let_in_a_stobj_let_producer(mode):
    interp = fixture(FORMAL_IN_PRODUCER, mode=mode)
    assert show(interp.eval_text("(set-in-let 100 3 top)")[0][1]) == "<TOP>"
    assert show(interp.bank["TOP"].logical_view()) == "(((KID 106)))"


# ------------------------------------------------ stobj-let parse per World

def counting_parser(monkeypatch):
    """Count parse_stobj_let calls, per form, at the binding that
    eval_stobj_let reads."""
    calls = []
    real = stobjs.parse_stobj_let

    def parse(form, world):
        calls.append(form)
        return real(form, world)
    monkeypatch.setattr(stobjs, "parse_stobj_let", parse)
    return calls


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_each_stobj_let_form_is_parsed_once(monkeypatch, mode):
    # admission parses the two defun bodies' forms and keeps the parses
    calls = counting_parser(monkeypatch)
    interp = fixture(SWITCH_DEMO, mode=mode)
    peek = read("(stobj-let ((switch (tbl-get 'switch top (create-switch))))"
                " (flg) (fld switch) flg)")
    for _ in range(4):
        interp.eval_text("(flip-switch top) (print-switch top)")
        interp.eval(peek, None)
    assert len(calls) == 3
    assert len(set(map(id, calls))) == 3
    assert peek in interp.world.stobj_lets
    assert interp.eval_text("(print-switch top)")[0][1] == "OFF"


CHILD_TABLE = "(defstobj top (tbl :type (stobj-table)))"
PUT_CHILD = ("(stobj-let ((child (tbl-get 'child top (create-child))))"
             " (child) (update-a 1 child) top)")


def bank_after(interp, form):
    interp.eval_top(form)
    return show(interp.bank["TOP"].logical_view())


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_undo_empties_the_stobj_let_table(mode):
    form = read(PUT_CHILD)
    interp = fixture(CHILD_TABLE + " (defstobj child a)", mode=mode)
    assert bank_after(interp, form) == "(((CHILD 1)))"
    interp.undo(interp.world.events[-1].index)
    assert interp.world.stobj_lets == {}
    interp.eval_text("(defstobj child (b :initially 7) a)")
    fresh = fixture(CHILD_TABLE + " (defstobj child (b :initially 7) a)",
                    mode=mode)
    assert bank_after(interp, form) == bank_after(fresh, form) \
        == "(((CHILD 7 1)))"


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_top_level_stobj_lets_leave_no_table_entries(monkeypatch, mode):
    interp = fixture(CHILD_TABLE + " (defstobj child a)", mode=mode)
    calls = counting_parser(monkeypatch)
    for _ in range(3):
        interp.eval_text(PUT_CHILD)
    # one parse per form read, none when it runs
    assert len(calls) == 3
    assert interp.world.stobj_lets == {}
    with pytest.raises(EvalError):
        interp.eval_text(PUT_CHILD.replace("(update-a 1 child)",
                                           "(update-a (car 5) child)"))
    assert interp.world.stobj_lets == {}
    assert show(interp.bank["TOP"].logical_view()) == "(((CHILD 1)))"
    # a form in a defun body is parsed once, when the defun is admitted
    calls.clear()
    interp.eval_text("(defun put-child (top) (declare (xargs :stobjs (top)))"
                     " %s)" % PUT_CHILD)
    for _ in range(3):
        interp.eval_text("(put-child top)")
    assert len(calls) == 1
    assert list(interp.world.stobj_lets) == calls


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_forms_that_fail_admission_keep_no_stobj_let_parses(monkeypatch,
                                                            mode):
    interp = fixture(CHILD_TABLE + " (defstobj child a) (defun put-child "
                     "(top) (declare (xargs :stobjs (top))) %s)" % PUT_CHILD,
                     mode=mode)
    before = dict(interp.world.stobj_lets)
    assert len(before) == 1
    # the first stobj-let is sound, the second discards its update (R2)
    lose = ("(let ((top %s)) %s)"
            % (PUT_CHILD, PUT_CHILD.replace("(update-a 1 child) top",
                                            "(update-a 2 child) 5")))
    calls = counting_parser(monkeypatch)
    for text in (lose, "(defun lose (top) (declare (xargs :stobjs (top)))"
                       " %s)" % lose):
        with pytest.raises(LinearityError) as exc:
            interp.eval_text(text)
        assert "its consumer must return TOP" in str(exc.value)
        assert interp.world.stobj_lets == before
    assert len(calls) == 4
    assert "LOSE" not in interp.world.functions
    assert show(interp.bank["TOP"].logical_view()) == "(NIL)"


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_self_recursive_defun_parses_each_stobj_let_once(monkeypatch, mode):
    interp = fixture(CHILD_TABLE + " (defstobj child a)", mode=mode)
    calls = counting_parser(monkeypatch)
    interp.eval_text(
        "(defun put-n (n top) (declare (xargs :stobjs (top) :measure "
        "(nfix n))) (if (zp n) top (let ((top %s)) (put-n (1- n) top))))"
        % PUT_CHILD)
    assert interp.world.functions["PUT-N"].outputs == ("TOP",)
    assert len(calls) == 1
    assert list(interp.world.stobj_lets) == calls
    interp.eval_text("(put-n 3 top)")
    assert len(calls) == 1
    assert show(interp.bank["TOP"].logical_view()) == "(((CHILD 1)))"


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_two_interps_keep_separate_stobj_let_tables(monkeypatch, mode):
    calls = counting_parser(monkeypatch)
    form = read(PUT_CHILD)
    one = fixture(CHILD_TABLE + " (defstobj child a)", mode=mode)
    two = fixture(CHILD_TABLE + " (defstobj child (b :initially 7) a)",
                  mode=mode)
    del calls[:]
    for _ in range(2):
        one.eval(form, None)
        two.eval(form, None)
    assert len(calls) == 2
    assert one.world.stobj_lets[form] is not two.world.stobj_lets[form]
    assert bank_after(one, form) == "(((CHILD 1)))"
    assert bank_after(two, form) == "(((CHILD 7 1)))"


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_malformed_stobj_let_raises_the_same_text_each_time(monkeypatch,
                                                            mode):
    interp = fixture(SWITCH_DEMO, mode=mode)
    calls = counting_parser(monkeypatch)
    form = read("(stobj-let ((switch (tbl-get 'other top (create-switch))))"
                " (flg) (fld switch) flg)")
    texts = []
    for _ in range(2):
        with pytest.raises(EvalError) as exc:
            interp.eval(form, None)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert "binds SWITCH but looks up key OTHER" in texts[0]
    assert len(calls) == 2
    assert form not in interp.world.stobj_lets


def test_analyzer_returns_the_callees_own_outputs():
    interp = fixture("(defstobj st fld) (defun f (st) "
                     "(declare (xargs :stobjs (st))) (update-fld 1 st)) "
                     "(defun proc-ids () nil) (defun rank (p st) "
                     "(declare (xargs :stobjs (st))) 0)")
    analyzer = stobjs.Analyzer(interp.world, None, (), stobjs.UNKNOWN)
    scope = {"ST": "ST"}
    shape = analyzer.analyze(read("(f st)"), scope)
    assert shape is interp.world.functions["F"].outputs
    shape = analyzer.analyze(read("(car x)"), {"ST": "ST", "X": None})
    assert shape is kernel.BUILTINS["CAR"].outputs
    # the stobj RANK takes second
    shape = analyzer.analyze(
        read("(report-completion-or-error-and-return 1 st)"), scope)
    assert shape == ("ST",)
    assert analyzer.violations == []


# After an R2+R3 violation the misnamed variable holds a stobj in the
# analyzer's scope; what later forms report about it stays fixed.
MISBOUND = "R2+R3: the result of a call returning stobj ST must be " \
           "rebound to the name ST, not X"


@pytest.mark.parametrize("body, more", [
    ("(let ((x (update-fld 1 st))) (mv x st))", []),
    ("(let ((x (update-fld 1 st))) (let ((x 3)) (mv x st)))",
     ["R3: stobj name X may not be rebound to an ordinary value"]),
    ("(let ((x (update-fld 1 st))) (stobj-let ((switch (tbl-get 'switch "
     "top (create-switch)))) (flg) (sfld switch) (mv x top)))", []),
    ("(let ((x (update-fld 1 st))) (stobj-let ((switch (tbl-get 'switch "
     "top (create-switch)))) (switch) (update-sfld x switch) (mv x top)))",
     ["R1: stobj X passed where UPDATE-SFLD expects an ordinary value"]),
    ("(let ((x (update-fld 1 st))) (mv (loop$ for y in x collect y) top))",
     ["R1: stobj ST may not appear in a FOR range",
      "R2: stobj ST is bound in this LET but is not among the values of "
      "its body; the update would be discarded"]),
    ("(let ((x (update-fld 1 st))) (mv (loop$ with i = x do (if (zp i) "
     "(return x) (setq i (1- i)))) top))",
     ["R1: stobj ST may not appear in a WITH initial value",
      "R1: X is not bound in a DO-body expression (settable variables: I) "
      "in X",
      "R2: stobj ST is bound in this LET but is not among the values of "
      "its body; the update would be discarded"]),
    ("(mv-let (x y) (mv st 1) (mv x top))", []),
])
def test_a_name_bound_to_the_wrong_stobj_reports_fixed_texts(body, more):
    interp = fixture("(defstobj st fld) (defstobj switch sfld) "
                     "(defstobj top (tbl :type (stobj-table)))")
    with pytest.raises(LinearityError) as exc:
        interp.eval_text("(defun h (x st top) (declare (xargs :stobjs "
                         "(st top))) %s)" % body)
    assert str(exc.value) == "\n  ".join(
        ["single-threadedness violation in H:", MISBOUND] + more)


# --------------------------------------------------------------- retraction

RETRACT_DEMO = """
(defstobj top1 (tbl1 :type (stobj-table)))
(defstobj top2 (tbl2 :type (stobj-table)))
(defstobj switch fld)
(defun put1 (top1)
  (declare (xargs :stobjs (top1)))
  (stobj-let ((switch (tbl1-get 'switch top1 (create-switch))))
             (switch) (update-fld 1 switch) top1))
(defun put2 (top2)
  (declare (xargs :stobjs (top2)))
  (stobj-let ((switch (tbl2-get 'switch top2 (create-switch))))
             (switch) (update-fld 2 switch) top2))
(put1 top1)
(put2 top2)
"""


def counts(interp):
    return (interp.eval_text("(tbl1-count top1)")[0][1],
            interp.eval_text("(tbl2-count top2)")[0][1])


def test_undo_of_defstobj_retracts_from_every_live_table():
    for mode in ("logical", "native"):
        interp = fixture(RETRACT_DEMO, mode=mode)
        assert counts(interp) == (1, 1)
        # event 3 is the switch definition; undoing it also drops the
        # put1/put2 definitions that came after
        interp.undo(3)
        assert counts(interp) == (0, 0)
        assert interp.eval_text("(tbl1-boundp 'switch top1)")[0][1] is NIL
        assert interp.eval_text("(tbl2-boundp 'switch top2)")[0][1] is NIL
        assert "SWITCH" not in interp.bank


def test_undo_in_one_session_leaves_another_sessions_tables():
    for mode in ("logical", "native"):
        first = fixture(RETRACT_DEMO, mode=mode)
        second = fixture(RETRACT_DEMO, mode=mode)
        first.undo(3)
        assert counts(first) == (0, 0)
        assert counts(second) == (1, 1)
        assert second.eval_text("(tbl1-boundp 'switch top1)")[0][1] is T


def test_undo_of_defun_leaves_tables_alone():
    interp = fixture(RETRACT_DEMO)
    interp.eval_text("(defun noop (x) x)")
    idx = interp.world.events[-1].index
    interp.undo(idx)
    assert counts(interp) == (1, 1)
    assert interp.eval_text("(tbl1-boundp 'switch top1)")[0][1] is T


def test_redefined_stobj_after_undo_starts_empty():
    interp = fixture(RETRACT_DEMO)
    interp.undo(3)
    interp.eval_text("(defstobj switch fld)")
    assert interp.eval_text("(fld switch)")[0][1] is NIL
    assert counts(interp) == (0, 0)
