"""Acceptance suite.  Each test covers one numbered criterion end to
end and reports a single pass/fail line through the terminal summary
(see conftest.py)."""

import contextlib
import io
import random
import re
import time
from pathlib import Path

import pytest

import conftest
from stlisp import cli, refinement, sexpr
from stlisp.errors import (CapExceeded, GuardViolation, LinearityError,
                           MeasureViolation)
from stlisp.kernel import Interp
from stlisp.loops import l_less
from stlisp.sexpr import NIL, MultiValue, read, show

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        conftest.record_criterion(number, name, "FAIL")
        raise
    conftest.record_criterion(number, name, "PASS")


def ev(interp, text):
    return interp.eval_text(text)[-1][1]


def decreasing(chain):
    return all(l_less(b, a) for a, b in zip(chain, chain[1:]))


# -------------------------------------------------------------- criterion 1

FOR_EXAMPLE = "(loop$ for i in '(1 2 3 4) sum (* i i))"


def test_criterion_01_for_sum_example():
    with criterion(1, "for-sum-example"):
        start = time.monotonic()
        for mode in ("logical", "native"):
            assert ev(Interp(mode=mode), FOR_EXAMPLE) == 30
        assert time.monotonic() - start < 1.0


# -------------------------------------------------------------- criterion 2

DO_EXAMPLE_1 = """
(loop$ with sum = 0
       with lst = '(1 2 3 4)
       do
       (if (consp lst)
           (progn (setq sum (+ (* (car lst) (car lst)) sum))
                  (setq lst (cdr lst)))
         (return sum)))
"""


def test_criterion_02_do_example_with_trace_triples():
    with criterion(2, "do-example-and-trace-triples"):
        start = time.monotonic()
        for mode in ("logical", "native"):
            assert ev(Interp(mode=mode), DO_EXAMPLE_1) == 30
        interp = Interp(mode="logical", trace=True)
        assert ev(interp, DO_EXAMPLE_1) == 30
        triples = [t for _, _, t in interp.do_trace]
        want_penultimate = read("(NIL NIL ((SUM . 30) (LST . NIL)))")
        want_final = read("(:RETURN 30 ((SUM . 30) (LST . NIL)))")
        assert any(sexpr.equal(t, want_penultimate) for t in triples)
        assert any(sexpr.equal(t, want_final) for t in triples)
        assert time.monotonic() - start < 1.0


# -------------------------------------------------------------- criterion 3

STOBJ_DO_EXAMPLE = """
(defstobj st fld)
(loop$ with sum = 0
       with lst = '(1 2 3 4)
       do
       :values (nil st)
       (if (consp lst)
           (let ((sq (* (car lst) (car lst))))
             (progn (mv-setq (sum st)
                             (let ((st (update-fld (cons sq (fld st)) st)))
                               (mv (+ sq sum) st)))
                    (setq lst (cdr lst))))
         (return (mv sum st))))
"""


def test_criterion_03_stobj_do_example():
    with criterion(3, "stobj-do-example"):
        start = time.monotonic()
        for mode in ("logical", "native"):
            interp = Interp(mode=mode)
            out = interp.eval_text(STOBJ_DO_EXAMPLE)[-1][1]
            assert show(out) == "(30 <ST>)"
            assert show(ev(interp, "(fld st)")) == "(16 9 4 1)"
        assert time.monotonic() - start < 1.0


# -------------------------------------------------------------- criterion 4

MEASURE_FINALLY_EXAMPLE = """
(loop$ with sum = 0
       with i = 1
       do
       :measure (nfix (- 5 i))
       (if (<= i 4)
           (let ((sq (* i i)))
             (progn (setq sum (+ sq sum))
                    (setq i (1+ i))))
         (loop-finish))
       finally (return sum))
"""


def test_criterion_04_measure_chain_over_five_applications():
    with criterion(4, "measure-and-finally-example"):
        for mode in ("logical", "native"):
            assert ev(Interp(mode=mode), MEASURE_FINALLY_EXAMPLE) == 30
        interp = Interp(mode="logical", trace=True)
        assert ev(interp, MEASURE_FINALLY_EXAMPLE) == 30
        chain = interp.loop_measures
        assert len(chain) == 5  # 4 summing iterations + 1 loop-finish
        assert chain == [(4,), (3,), (2,), (1,), (0,)]
        assert decreasing(chain)


# -------------------------------------------------------------- criterion 5

GUARDED_F = """
(defun f (n)
  (declare (xargs :guard (natp n)))
  (loop$ with sum of-type integer = 0
         with i = n
         do
         :guard (natp i)
         (if (zp i)
             (return sum)
           (let ((sq (* i i)))
             (progn (setq sum (+ sq sum))
                    (setq i (1- i)))))))
"""

UNGUARDED_F = """
(defun f2 (n)
  (loop$ with sum = 0
         with i = n
         do
         (if (zp i)
             (return sum)
           (let ((sq (* i i)))
             (progn (setq sum (+ sq sum))
                    (setq i (1- i)))))))
"""

SUM_POISONED = """
(defun g2 (n)
  (loop$ with sum = 'start
         with i = n
         do
         (if (zp i)
             (return sum)
           (progn (setq sum (+ i sum))
                  (setq i (1- i))))))
"""


def test_criterion_05_guarded_function():
    with criterion(5, "guarded-loop-function"):
        for mode in ("logical", "native"):
            interp = Interp(mode=mode)
            interp.eval_text(GUARDED_F)
            assert ev(interp, "(f 4)") == 30
            assert ev(interp, "(f 0)") == 0
        # stripped of OF-TYPE and :GUARD, a bad call surfaces as a
        # runtime diagnostic naming one of the loop variables
        interp = Interp()
        interp.eval_text(UNGUARDED_F)
        with pytest.raises(GuardViolation) as exc:
            interp.eval_text("(f2 'a)")
        assert re.search(r"\b(SUM|I)\b", str(exc.value))
        interp.eval_text(SUM_POISONED)
        with pytest.raises(GuardViolation) as exc:
            interp.eval_text("(g2 3)")
        assert "SUM" in str(exc.value)


# -------------------------------------------------------------- criterion 6

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


def test_criterion_06_switch_demo():
    with criterion(6, "flip-and-print-switch"):
        for mode in ("logical", "native"):
            interp = Interp(mode=mode)
            interp.eval_text(SWITCH_DEMO)
            assert ev(interp, "(print-switch top)") == "OFF"
            interp.eval_text("(flip-switch top)")
            assert ev(interp, "(print-switch top)") == "ON"
            interp.eval_text("(flip-switch top)")
            assert ev(interp, "(print-switch top)") == "OFF"


# -------------------------------------------------------------- criterion 7

TABLE_KEYS = ["C0", "C1", "C2", "C3", "C4"]


def table_setup():
    parts = []
    for i, _k in enumerate(TABLE_KEYS):
        parts.append("(defstobj c%d (v%d :initially 0))" % (i, i))
    parts.append("(defstobj t0 (tbl :type (stobj-table)))")
    for i, _k in enumerate(TABLE_KEYS):
        parts.append("""
          (defun put-c%d (x t0)
            (declare (xargs :stobjs (t0)))
            (stobj-let ((c%d (tbl-get 'c%d t0 (create-c%d))))
                       (c%d) (update-v%d x c%d) t0))""" % ((i,) * 7))
        parts.append("""
          (defun read-c%d (t0)
            (declare (xargs :stobjs (t0)))
            (stobj-let ((c%d (tbl-get 'c%d t0 (create-c%d))))
                       (val) (v%d c%d) val))""" % ((i,) * 6))
    return "\n".join(parts)


def test_criterion_07_table_laws_against_alist_model():
    with criterion(7, "stobj-table-laws-vs-alist-model"):
        setup = table_setup()
        for mode in ("logical", "native"):
            interp = Interp(mode=mode)
            interp.eval_text(setup)
            model = {}
            rng = random.Random(20260815)
            ops = 0
            while ops < 1050:
                i = rng.randrange(len(TABLE_KEYS))
                k = TABLE_KEYS[i]
                v = rng.randint(-999, 999)
                roll = rng.random()
                if roll < 0.45:
                    # read-over-write: a put is immediately visible
                    interp.eval_text("(put-c%d %d t0)" % (i, v))
                    model[k] = v
                    assert ev(interp, "(read-c%d t0)" % i) == v
                    ops += 2
                elif roll < 0.65:
                    # rem-cancels-put: put then rem leaves the key unbound
                    before = len(model)
                    interp.eval_text("(put-c%d %d t0)" % (i, v))
                    interp.eval_text("(tbl-rem 'c%d t0)" % i)
                    model.pop(k, None)
                    assert ev(interp, "(tbl-boundp 'c%d t0)" % i) is NIL
                    assert ev(interp, "(read-c%d t0)" % i) == 0
                    ops += 4
                elif roll < 0.9:
                    want = model.get(k, 0)
                    assert ev(interp, "(read-c%d t0)" % i) == want
                    bound = ev(interp, "(tbl-boundp 'c%d t0)" % i)
                    assert (bound is not NIL) == (k in model)
                    ops += 2
                else:
                    interp.eval_text("(tbl-rem 'c%d t0)" % i)
                    model.pop(k, None)
                    ops += 1
                # count consistency after every step
                assert ev(interp, "(tbl-count t0)") == len(model)
                ops += 1
            assert ops >= 1000


# -------------------------------------------------------------- criterion 8

RETRACT_SCRIPT = """
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


def test_criterion_08_undo_retracts_from_every_live_table():
    with criterion(8, "undo-retracts-table-entries"):
        for mode in ("logical", "native"):
            interp = Interp(mode=mode)
            interp.eval_text(RETRACT_SCRIPT)
            assert ev(interp, "(tbl1-count top1)") == 1
            assert ev(interp, "(tbl2-count top2)") == 1
            interp.undo(3)  # the (defstobj switch fld) event
            assert ev(interp, "(tbl1-boundp 'switch top1)") is NIL
            assert ev(interp, "(tbl2-boundp 'switch top2)") is NIL
            assert ev(interp, "(tbl1-count top1)") == 0
            assert ev(interp, "(tbl2-count top2)") == 0
        # same behavior through the repl's :ubt command
        args = cli.build_parser().parse_args(["repl"])
        out = io.StringIO()
        cli.cmd_repl(args, out,
                     inp=io.StringIO(RETRACT_SCRIPT
                                     + ":ubt 3\n"
                                     + "(tbl1-boundp 'switch top1)\n"
                                     + "(tbl1-count top1)\n:q\n"))
        full = out.getvalue()
        assert "; undid 3 events" in full
        assert full.endswith("> NIL\n> 0\n> ")


# -------------------------------------------------------------- criterion 9

def test_criterion_09_path_equivalence_over_corpus(capsys):
    with criterion(9, "logical-native-path-equivalence"):
        text = (CORPUS / "loops_corpus.lisp").read_text()
        assert text.count("(loop$") >= 25
        assert "mv-setq" in text and ":values" in text
        start = time.monotonic()
        code = cli.main(["diff", str(CORPUS / "loops_corpus.lisp")])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "equivalent (38 forms, 2 stobjs)"
        assert "divergence" not in out
        assert elapsed < 30.0


# ------------------------------------------------------------- criterion 10

NON_DECREASING = "(loop$ with x = 0 do :measure (nfix x) (setq x x))"


def test_criterion_10_measure_enforcement_both_paths(capsys, tmp_path):
    with criterion(10, "measure-enforcement-and-native-cap"):
        interp = Interp(mode="logical")
        with pytest.raises(MeasureViolation) as exc:
            interp.eval_text(NON_DECREASING)
        assert "failed to decrease" in str(exc.value)
        interp = Interp(mode="native", cap=500)
        with pytest.raises(CapExceeded) as exc:
            interp.eval_text(NON_DECREASING)
        assert "native iteration cap of 500" in str(exc.value)
        # both paths exit nonzero from the command line
        f = tmp_path / "spin.lisp"
        f.write_text(NON_DECREASING + "\n")
        assert cli.main(["run", "--mode", "logical", str(f)]) == 1
        assert cli.main(["run", "--mode", "native", "--cap", "500",
                         str(f)]) == 1
        capsys.readouterr()


# ------------------------------------------------------------- criterion 11

def scheduler_interp(path, **kw):
    interp = Interp(**kw)
    interp.eval_text(Path(path).read_text())
    return interp


def test_criterion_11_scheduler_demo():
    with criterion(11, "scheduler-demo-and-constraints"):
        # honest attachments: the corpus file ends by running the
        # scheduler, so loading it exercises the full trajectory
        out = io.StringIO()
        interp = scheduler_interp(CORPUS / "scheduler_demo.lisp",
                                  trace=True, out=out)
        assert "run complete: every rank is zero.\n" in out.getvalue()
        chain = interp.fn_measures["RUN"]
        assert chain == [(3,), (2,), (1,), (0,)]
        assert decreasing(chain)
        assert chain[0] == (3,)  # initial sum-rank
        report = refinement.check_constraints(interp, seed=0, trials=1000)
        assert report.ok() and not report.failures
        # the adversarial exec is caught both ways
        evil = scheduler_interp(CORPUS / "scheduler_adversarial.lisp",
                                out=io.StringIO())
        with pytest.raises(MeasureViolation):
            evil.eval_text("(run st)")
        evil_report = refinement.check_constraints(evil, seed=0, trials=1000)
        assert not evil_report.ok()
        assert evil_report.failure_count["exec-no-interfere"] > 0


# ------------------------------------------------------------- criterion 12

LINEARITY_FIXTURES = [
    # aliasing a stobj under another name
    """(defun bad-alias (st)
         (declare (xargs :stobjs (st)))
         (let ((x (update-fld 1 st))) x))""",
    # update whose result is discarded
    """(defun bad-discard (st)
         (declare (xargs :stobjs (st)))
         (let ((st (update-fld 1 st))) 0))""",
    # branches that disagree about returning the stobj
    """(defun bad-branch (c st)
         (declare (xargs :stobjs (st)))
         (if c (update-fld 1 st) 0))""",
    # lambda bodies that update a stobj no lambda can take
    "(consp (apply$ '(lambda (x) (update-fld x st)) '(5)))",
    "(let ((y (apply$ '(lambda (x) (let ((st (update-fld x st))) 7)) "
    "'(5)))) y)",
    # a parallel LET that binds the stobj twice: native execution would
    # keep both updates and logical execution only the second
    """(defun bad-twice (st)
         (declare (xargs :stobjs (st)))
         (let ((st (update-fld (cons 1 (fld st)) st))
               (st (update-fld (cons 2 (fld st)) st)))
           st))""",
    # DO-loop expressions that update a stobj and drop the result
] + ["(loop$ with i = 1 do :values (nil st) %s)" % rest for rest in (
    ":measure (nfix i) "
    "(if (fld (update-fld 5 st)) (return (mv 1 st)) (return (mv 2 st)))",
    ":measure (nfix i) "
    "(if (equal (update-fld 7 st) 3) (return (mv 1 st)) (return (mv 2 st)))",
    ":measure (nfix i) "
    "(progn (setq i (fld (update-fld 9 st))) (return (mv i st)))",
    ":measure 0 (progn (setq i (update-fld 4 st)) (return (mv i st)))",
    ":guard (fld (update-fld 3 st)) :measure (nfix i) "
    "(if (zp i) (return (mv 1 st)) (setq i (1- i)))")]

ACCEPTED_F = GUARDED_F


def test_criterion_12_linearity_fixtures_and_accepted_defuns():
    with criterion(12, "linearity-rejections-and-admissions"):
        for text in LINEARITY_FIXTURES:
            interp = Interp()
            interp.eval_text("(defstobj st fld)")
            with pytest.raises(LinearityError):
                interp.eval_text(text)
        # the running examples are all admitted
        interp = Interp()
        interp.eval_text(SWITCH_DEMO)
        interp.eval_text(ACCEPTED_F)
        assert "FLIP-SWITCH" in interp.world.functions
        assert "F" in interp.world.functions
        # the scheduler definitions, minus the trailing demo run
        scheduler = (CORPUS / "scheduler_demo.lisp").read_text()
        scheduler = scheduler.split("; Three exec steps")[0]
        interp = Interp()
        interp.eval_text(scheduler)
        assert "RUN" in interp.world.functions
        assert "MY-EXEC" in interp.world.functions
