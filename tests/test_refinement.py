"""Constrained-function tests: signature introduction, attachment,
the scheduler built against the constrained interface, its termination
measure, and the randomized contract checker."""

import io
import re

import pytest

from conftest import count_calls
from stlisp import cli, refinement
from stlisp.errors import EvalError, MeasureViolation
from stlisp.kernel import Interp, World
from stlisp.loops import l_less

# A scheduler written against five constrained functions, then two
# concrete processes stored in a stobj-table and attached afterwards.
SCHEDULER = """
(defstobj st (tbl :type (stobj-table)))

(encapsulate
  (((proc-ids) => *)
   ((pick st) => *)
   ((ready * st) => *)
   ((exec * st) => st)
   ((rank * st) => *))
  (defthm rank-is-natural (natp (rank p st)))
  (defthm pick-is-proc-id (member-equal (pick st) (proc-ids)))
  (defthm exec-no-interfere
    (implies (not (= p q)) (<= (rank p (exec q st)) (rank p st))))
  (defthm exec-rank-reduces
    (implies (ready p st) (< (rank p (exec p st)) (rank p st)))))

(defun sum-rank (ids st)
  (declare (xargs :stobjs (st) :measure (len ids)))
  (if (consp ids)
      (+ (rank (car ids) st) (sum-rank (cdr ids) st))
    0))

(defun run (st)
  (declare (xargs :measure (sum-rank (proc-ids) st) :stobjs (st)))
  (let ((p (pick st)))
    (if (ready p st)
        (let ((st (exec p st)))
          (run st))
      (report-completion-or-error-and-return p st))))

(defstobj proc1 (work1 :initially 2))

(defstobj proc2 (work2 :initially 1))

(defun my-proc-ids () '(proc1 proc2))

(defun my-rank (p st)
  (declare (xargs :stobjs (st)))
  (if (eq p 'proc1)
      (stobj-let ((proc1 (tbl-get 'proc1 st (create-proc1))))
                 (val)
                 (nfix (work1 proc1))
                 val)
    (if (eq p 'proc2)
        (stobj-let ((proc2 (tbl-get 'proc2 st (create-proc2))))
                   (val)
                   (nfix (work2 proc2))
                   val)
      0)))

(defun my-ready (p st)
  (declare (xargs :stobjs (st)))
  (< 0 (my-rank p st)))

(defun my-pick (st)
  (declare (xargs :stobjs (st)))
  (if (< 0 (my-rank 'proc1 st))
      'proc1
    (if (< 0 (my-rank 'proc2 st))
        'proc2
      'proc1)))

(defun my-exec (p st)
  (declare (xargs :stobjs (st)))
  (if (eq p 'proc1)
      (stobj-let ((proc1 (tbl-get 'proc1 st (create-proc1))))
                 (proc1)
                 (update-work1 (1- (work1 proc1)) proc1)
                 st)
    (if (eq p 'proc2)
        (stobj-let ((proc2 (tbl-get 'proc2 st (create-proc2))))
                   (proc2)
                   (update-work2 (1- (work2 proc2)) proc2)
                   st)
      st)))
"""

ATTACH_ALL = """
(defattach proc-ids my-proc-ids)
(defattach pick my-pick)
(defattach ready my-ready)
(defattach exec my-exec)
(defattach rank my-rank)
"""

# Dishonest variant: executing PROC1 also bumps PROC2's remaining work.
EVIL_EXEC = """
(defun evil-exec (p st)
  (declare (xargs :stobjs (st)))
  (if (eq p 'proc1)
      (let ((st (stobj-let ((proc1 (tbl-get 'proc1 st (create-proc1))))
                           (proc1)
                           (update-work1 (1- (work1 proc1)) proc1)
                           st)))
        (stobj-let ((proc2 (tbl-get 'proc2 st (create-proc2))))
                   (proc2)
                   (update-work2 (1+ (work2 proc2)) proc2)
                   st))
    (if (eq p 'proc2)
        (stobj-let ((proc2 (tbl-get 'proc2 st (create-proc2))))
                   (proc2)
                   (update-work2 (1- (work2 proc2)) proc2)
                   st)
      st)))
"""


def scheduler_interp(mode="native", attach=True, **kw):
    interp = Interp(mode=mode, **kw)
    interp.eval_text(SCHEDULER)
    if attach:
        interp.eval_text(ATTACH_ALL)
    return interp


def err(interp, text):
    with pytest.raises(EvalError) as exc:
        interp.eval_text(text)
    return str(exc.value)


# -------------------------------------------------------------- encapsulate

def test_encapsulate_parse_errors():
    interp = Interp()
    interp.eval_text("(defstobj st fld)")
    assert "encapsulate needs a signature list" in err(interp,
                                                       "(encapsulate)")
    assert "encapsulate needs at least one signature" in err(
        interp, "(encapsulate ())")
    assert "only defthm forms may follow the signature list, got " \
        "(DEFUN F (X) X)" in err(
            interp, "(encapsulate (((f *) => *)) (defun f (x) x))")
    assert "a signature looks like ((name arg ..) => out), got (F => *)" \
        in err(interp, "(encapsulate ((f => *)))")
    assert "a signature looks like" in err(
        interp, "(encapsulate (((f *) *)))")
    assert "duplicate signature F" in err(
        interp, "(encapsulate (((f *) => *) ((f * *) => *)))")
    assert "a signature argument must be * or a defined stobj, got X" \
        in err(interp, "(encapsulate (((f x) => *)))")
    assert "a signature result must be * or a defined stobj, got 5" \
        in err(interp, "(encapsulate (((f *) => 5)))")
    assert "stobj ST appears twice in the signature of F" in err(
        interp, "(encapsulate (((f st st) => st)))")
    assert "bad signature name" in err(interp, "(encapsulate (((3 *) => *)))")


def test_signature_names_must_be_fresh():
    interp = Interp()
    assert "the name CAR is already in use" in err(
        interp, "(encapsulate (((car *) => *)))")
    interp.eval_text("(defun g (x) x)")
    assert "the name G is already in use" in err(
        interp, "(encapsulate (((g *) => *)))")


def test_unattached_constrained_call():
    interp = Interp()
    interp.eval_text("(encapsulate (((f *) => *)))")
    assert "constrained function F has no attachment" in err(interp, "(f 1)")


def test_constrained_call_arity_checked():
    interp = Interp()
    interp.eval_text("(encapsulate (((f *) => *)))")
    assert "F takes 1 argument, got 2" in err(interp, "(f 1 2)")


# --------------------------------------------------------------- defattach

def test_defattach_validations():
    interp = Interp()
    interp.eval_text("""
      (defstobj st fld)
      (encapsulate (((f * st) => *)))
      (defun wrong-arity (x) x)
      (defun right-shape (x st) (declare (xargs :stobjs (st))) (fld st))
      (defun wrong-result (x st) (declare (xargs :stobjs (st)))
        (update-fld x st))
    """)
    assert "FOO is not a constrained function" in err(
        interp, "(defattach foo right-shape)")
    assert "NOSUCH is not a defined function" in err(
        interp, "(defattach f nosuch)")
    assert "cannot attach WRONG-ARITY to F: argument shapes differ " \
        "((*) vs (* ST))" in err(interp, "(defattach f wrong-arity)")
    assert "cannot attach WRONG-RESULT to F: result shapes differ " \
        "((ST) vs (*))" in err(interp, "(defattach f wrong-result)")
    assert "defattach takes a signature name and a function name" in err(
        interp, "(defattach f)")
    interp.eval_text("(defattach f right-shape)")
    interp.eval_text("(update-fld 7 st)")
    assert interp.eval_text("(f 0 st)")[0][1] == 7


def test_reattachment_swaps_the_implementation():
    interp = Interp()
    interp.eval_text("""
      (encapsulate (((f *) => *)))
      (defun double (x) (* 2 x))
      (defun triple (x) (* 3 x))
      (defattach f double)
    """)
    assert interp.eval_text("(f 5)")[0][1] == 10
    interp.eval_text("(defattach f triple)")
    assert interp.eval_text("(f 5)")[0][1] == 15


def test_undo_removes_attachment_then_signature():
    interp = Interp()
    interp.eval_text("""
      (encapsulate (((f *) => *)))
      (defun double (x) (* 2 x))
    """)
    interp.eval_text("(defattach f double)")
    attach_index = next(ev.index for ev in interp.world.events
                        if ev.kind == "defattach")
    assert interp.eval_text("(f 2)")[0][1] == 4
    interp.undo(attach_index)
    assert "constrained function F has no attachment" in err(interp, "(f 2)")
    sig_index = next(ev.index for ev in interp.world.events
                     if ev.kind == "signature")
    interp.undo(sig_index)
    assert "undefined function F" in err(interp, "(f 2)")


# ---------------------------------------------------------------- scheduler

def test_scheduler_runs_to_completion_both_modes():
    for mode in ("logical", "native"):
        out = io.StringIO()
        interp = scheduler_interp(mode=mode, out=out)
        interp.eval_text("(run st)")
        assert out.getvalue() == "run complete: every rank is zero.\n"
        assert interp.eval_text("(tbl-count st)")[0][1] == 2
        assert interp.eval_text("(rank 'proc1 st)")[0][1] == 0
        assert interp.eval_text("(rank 'proc2 st)")[0][1] == 0


def test_initial_total_rank_is_three():
    interp = scheduler_interp()
    assert interp.eval_text("(sum-rank (proc-ids) st)")[0][1] == 3


def test_run_measure_chain_decreases_strictly():
    interp = scheduler_interp(trace=True, out=io.StringIO())
    interp.eval_text("(run st)")
    chain = interp.fn_measures["RUN"]
    assert chain == [(3,), (2,), (1,), (0,)]
    assert all(l_less(b, a) for a, b in zip(chain, chain[1:]))


def test_children_materialize_lazily():
    interp = scheduler_interp()
    # rank reads the default child without storing it
    assert interp.eval_text("(tbl-count st)")[0][1] == 0
    assert interp.eval_text("(rank 'proc1 st)")[0][1] == 2
    assert interp.eval_text("(tbl-count st)")[0][1] == 0
    # exec writes the child back
    interp.eval_text("(exec 'proc1 st)")
    assert interp.eval_text("(tbl-count st)")[0][1] == 1
    assert interp.eval_text("(rank 'proc1 st)")[0][1] == 1


def test_deadlocked_run_reports_remaining_work():
    out = io.StringIO()
    interp = scheduler_interp(out=out)
    interp.eval_text("""
      (defun never-ready (p st) (declare (xargs :stobjs (st))) nil)
      (defattach ready never-ready)
      (run st)
    """)
    assert out.getvalue() == ("run stopped: picked process PROC1 is not "
                              "ready; total rank 3 remains.\n")
    assert interp.eval_text("(tbl-count st)")[0][1] == 0


def test_evil_exec_trips_the_run_measure():
    interp = scheduler_interp(attach=False, out=io.StringIO())
    interp.eval_text(EVIL_EXEC)
    interp.eval_text("""
      (defattach proc-ids my-proc-ids)
      (defattach pick my-pick)
      (defattach ready my-ready)
      (defattach exec evil-exec)
      (defattach rank my-rank)
    """)
    with pytest.raises(MeasureViolation) as exc:
        interp.eval_text("(run st)")
    assert "measure of RUN failed to decrease" in str(exc.value)
    assert "(3) is not below (3)" in str(exc.value)


# --------------------------------------------------------- check-constraints

def test_check_constraints_passes_on_the_honest_scheduler():
    interp = scheduler_interp()
    report = refinement.check_constraints(interp, seed=0, trials=1000)
    assert report.ok()
    assert report.failures == []
    assert report.checked["rank-is-natural"] == 1000
    assert report.checked["pick-is-proc-id"] == 1000
    assert report.checked["exec-no-interfere"] == 1000
    # only checked when the sampled process is ready
    assert 0 < report.checked["exec-rank-reduces"] < 1000
    assert report.lines()[-1] == "result: PASS"


def test_check_constraints_is_deterministic_for_a_seed():
    a = refinement.check_constraints(scheduler_interp(), seed=7, trials=200)
    b = refinement.check_constraints(scheduler_interp(), seed=7, trials=200)
    assert str(a) == str(b)
    c = refinement.check_constraints(scheduler_interp(), seed=8, trials=200)
    assert c.checked != a.checked or c.seed != a.seed


def test_check_constraints_agrees_across_modes():
    rep_l = refinement.check_constraints(scheduler_interp("logical"),
                                         seed=3, trials=150)
    rep_n = refinement.check_constraints(scheduler_interp("native"),
                                         seed=3, trials=150)
    assert rep_l.ok() and rep_n.ok()
    assert rep_l.checked == rep_n.checked


def test_check_constraints_catches_interference():
    interp = scheduler_interp(attach=False)
    interp.eval_text(EVIL_EXEC)
    interp.eval_text("""
      (defattach proc-ids my-proc-ids)
      (defattach pick my-pick)
      (defattach ready my-ready)
      (defattach exec evil-exec)
      (defattach rank my-rank)
    """)
    report = refinement.check_constraints(interp, seed=0, trials=1000)
    assert not report.ok()
    assert report.failure_count["exec-no-interfere"] > 0
    assert report.failure_count["rank-is-natural"] == 0
    assert report.failure_count["pick-is-proc-id"] == 0
    pat = re.compile(r"exec-no-interfere: trial \d+: rank of PROC2 rose "
                     r"from \d+ to \d+ across \(exec PROC1 st\)")
    assert any(pat.search(f) for f in report.failures)
    assert "result: FAIL" in report.lines()[-1]


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_check_constraints_catches_an_exec_that_keeps_the_rank(mode):
    # executing a ready PROC2 leaves its work as it was
    interp = scheduler_interp(mode, attach=False)
    interp.eval_text("""
      (defun idle-exec (p st)
        (declare (xargs :stobjs (st)))
        (if (eq p 'proc1)
            (stobj-let ((proc1 (tbl-get 'proc1 st (create-proc1))))
                       (proc1)
                       (update-work1 (1- (work1 proc1)) proc1)
                       st)
          (if (eq p 'proc2)
              (stobj-let ((proc2 (tbl-get 'proc2 st (create-proc2))))
                         (proc2)
                         proc2
                         st)
            st)))
      (defattach proc-ids my-proc-ids)
      (defattach pick my-pick)
      (defattach ready my-ready)
      (defattach exec idle-exec)
      (defattach rank my-rank)
    """)
    report = refinement.check_constraints(interp, seed=7, trials=200)
    assert report.failure_count["exec-rank-reduces"] > 0
    assert report.failure_count["exec-no-interfere"] == 0
    assert any("exec-rank-reduces" in f and "rank of PROC2 went 1 -> 1 "
               "across its own exec while ready" in f
               for f in report.failures)
    assert report.lines()[-1] == "result: FAIL"


def test_check_constraints_catches_non_natural_rank():
    interp = scheduler_interp(attach=False)
    interp.eval_text("""
      (defun bad-rank (p st) (declare (xargs :stobjs (st))) (- 0 1))
      (defattach proc-ids my-proc-ids)
      (defattach pick my-pick)
      (defattach ready my-ready)
      (defattach exec my-exec)
      (defattach rank bad-rank)
    """)
    report = refinement.check_constraints(interp, seed=0, trials=50)
    assert report.failure_count["rank-is-natural"] == 50
    assert len(report.failures) == 20  # detail lines are capped
    assert "(rank " in report.failures[0]


def test_check_constraints_catches_foreign_pick():
    interp = scheduler_interp(attach=False)
    interp.eval_text("""
      (defun bad-pick (st) (declare (xargs :stobjs (st))) 'nobody)
      (defattach proc-ids my-proc-ids)
      (defattach pick bad-pick)
      (defattach ready my-ready)
      (defattach exec my-exec)
      (defattach rank my-rank)
    """)
    report = refinement.check_constraints(interp, seed=0, trials=50)
    assert report.failure_count["pick-is-proc-id"] == 50
    assert "(pick st) = NOBODY is not a proc-id" in report.failures[0]


def test_check_constraints_requires_signatures_and_attachments():
    interp = Interp()
    with pytest.raises(EvalError) as exc:
        refinement.check_constraints(interp, trials=1)
    assert "check-constraints needs the PROC-IDS signature" in str(exc.value)
    interp = scheduler_interp(attach=False)
    with pytest.raises(EvalError) as exc:
        refinement.check_constraints(interp, trials=1)
    assert "constrained function PROC-IDS has no attachment" in str(exc.value)


def test_check_constraints_rejects_empty_proc_ids():
    interp = scheduler_interp(attach=False)
    interp.eval_text("""
      (defun no-ids () nil)
      (defattach proc-ids no-ids)
      (defattach pick my-pick)
      (defattach ready my-ready)
      (defattach exec my-exec)
      (defattach rank my-rank)
    """)
    with pytest.raises(EvalError) as exc:
        refinement.check_constraints(interp, trials=1)
    assert "PROC-IDS returned an empty list" in str(exc.value)


# The scheduler without RUN (which needs EXEC to return ST), with EXEC
# declared to return an ordinary value and attached to one that does.
EXEC_RETURNS_A_VALUE = (
    SCHEDULER[:SCHEDULER.index("(defun run ")].replace(
        "((exec * st) => st)", "((exec * st) => *)")
    + SCHEDULER[SCHEDULER.index("(defstobj proc1"):
                SCHEDULER.index("(defun my-exec ")]
    + "(defun my-exec (p st) (declare (xargs :stobjs (st))) (tbl-count st))"
    + ATTACH_ALL)

RANK_TAKES_THE_STOBJ_FIRST = """
(defstobj st (cnt :initially 0))
(encapsulate (((proc-ids) => *) ((pick st) => *) ((ready * st) => *)
              ((exec * st) => st) ((rank st *) => *)))
(defun my-proc-ids () '(a b))
(defun my-pick (st) (declare (xargs :stobjs (st))) 'a)
(defun my-ready (p st) (declare (xargs :stobjs (st))) t)
(defun my-exec (p st) (declare (xargs :stobjs (st))) st)
(defun my-rank (st p) (declare (xargs :stobjs (st))) 0)
""" + ATTACH_ALL


@pytest.mark.parametrize("mode", ["logical", "native"])
@pytest.mark.parametrize("program, line", [
    (EXEC_RETURNS_A_VALUE, "error: check-constraints needs EXEC to have "
     "the shape (* ST) => (ST), not (* ST) => (*)"),
    (RANK_TAKES_THE_STOBJ_FIRST, "error: check-constraints needs RANK to "
     "have the shape (* ST) => (*), not (ST *) => (*)"),
], ids=["exec-returns-a-value", "rank-takes-the-stobj-first"])
def test_misshapen_sampler_signature_is_one_error(capsys, tmp_path, mode,
                                                  program, line):
    f = tmp_path / "misshapen.lisp"
    f.write_text(program)
    code = cli.main(["check-constraints", "--mode", mode, str(f)])
    out = capsys.readouterr()
    assert code == 1
    assert [ln for ln in out.out.splitlines() if ln.startswith("error:")] \
        == [line]
    assert "Traceback" not in out.err


# REPORT-COMPLETION-OR-ERROR-AND-RETURN is typed at admission: (* S) => (S)
# only while PROC-IDS is () => (*) and RANK is (* S) => (*).
REPORT_BASE = """
(defstobj st fld)
(defstobj other ofld)
(defun proc-ids () '(a))
(defun rank (p st) (declare (xargs :stobjs st)) 0)
(defun rep (p st) (declare (xargs :stobjs st))
  (report-completion-or-error-and-return p st))
(rep 'a st)
"""
REPORT_NEEDS = ("R1: REPORT-COMPLETION-OR-ERROR-AND-RETURN needs, for some "
                "stobj S, PROC-IDS with the shape () => (*) and RANK with "
                "the shape (* S) => (*) in "
                "(REPORT-COMPLETION-OR-ERROR-AND-RETURN P ST)")


@pytest.mark.parametrize("mode", ["logical", "native"])
@pytest.mark.parametrize("program, violation", [
    (REPORT_BASE.replace("st)) 0)", "st)) (mv 1 st))"), REPORT_NEEDS),
    (REPORT_BASE.replace("(defun proc-ids () '(a))", ""), REPORT_NEEDS),
    (REPORT_BASE.replace("rank (p st)", "rank (st p)"), REPORT_NEEDS),
    (REPORT_BASE.replace("rank (p st) (declare (xargs :stobjs st))",
                         "rank (p q)"), REPORT_NEEDS),
    (REPORT_BASE.replace("rep (p st) (declare (xargs :stobjs st))\n  "
                         "(report-completion-or-error-and-return p st)",
                         "rep (p other) (declare (xargs :stobjs other))\n"
                         "  (report-completion-or-error-and-return p other)"),
     "R1: REPORT-COMPLETION-OR-ERROR-AND-RETURN expects the stobj ST in "
     "this position of (REPORT-COMPLETION-OR-ERROR-AND-RETURN P OTHER)"),
], ids=["rank-returns-mv", "no-proc-ids", "rank-takes-the-stobj-first",
        "rank-takes-no-stobj", "other-stobj"])
def test_report_without_its_shape_is_refused_at_admission(
        capsys, tmp_path, mode, program, violation):
    f = tmp_path / "report.lisp"
    f.write_text(program)
    assert cli.main(["run", "--mode", mode, str(f)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("error:")] \
        == ["error: single-threadedness violation in REP:"]
    assert lines[-1] == "  " + violation
    assert cli.main(["diff", str(f)]) == 0


def test_sampler_makes_no_checked_call_per_trial(monkeypatch):
    # Every trial calls the attached definitions directly.
    callees = count_calls(monkeypatch, World, "callee")
    seen = []
    for trials in (10, 40):
        interp = scheduler_interp()
        del callees[:]
        assert refinement.check_constraints(interp, seed=5,
                                            trials=trials).ok()
        seen.append(len(callees))
    assert seen[0] == seen[1]
