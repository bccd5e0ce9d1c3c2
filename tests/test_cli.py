"""Command line tests: run/diff/check-constraints/repl, exit codes,
and the STLISP_* environment defaults."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stlisp import cli, loops, stobjs
from stlisp.errors import EvalError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

LOOPS_BASIC_TRANSCRIPT = ["30", "30", "ST", "(30 <ST>)", "(16 9 4 1)",
                          "30", "F", "30", "0"]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for k in list(os.environ):
        if k.startswith("STLISP_"):
            monkeypatch.delenv(k)


def run_cli(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------- run

def test_run_loops_basic_both_modes(capsys):
    for mode in ("logical", "native"):
        code, out = run_cli(capsys, ["run", "--mode", mode,
                                     str(CORPUS / "loops_basic.lisp")])
        assert code == 0
        assert out.splitlines() == LOOPS_BASIC_TRANSCRIPT


def test_run_switch_demo(capsys):
    code, out = run_cli(capsys, ["run", str(CORPUS / "switch_demo.lisp")])
    assert code == 0
    states = [l for l in out.splitlines() if l in ('"OFF"', '"ON"')]
    assert states == ['"OFF"', '"ON"', '"OFF"']


def test_run_error_exits_1(capsys, tmp_path):
    f = tmp_path / "bad.lisp"
    f.write_text("(cons 1 2)\n(car)\n")
    code, out = run_cli(capsys, ["run", str(f)])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "(1 . 2)"
    assert lines[1].startswith("error: CAR takes 1 argument, got 0")


def test_run_missing_file_exits_1(capsys):
    code, out = run_cli(capsys, ["run", "/nonexistent/x.lisp"])
    assert code == 1
    assert out.startswith("error:")


def test_run_guard_check_flag(capsys, tmp_path):
    f = tmp_path / "g.lisp"
    f.write_text("(car 1)\n")
    code, out = run_cli(capsys, ["run", str(f)])
    assert code == 1 and "guard violation" in out
    code, out = run_cli(capsys, ["run", "--guard-check", "off", str(f)])
    assert code == 0 and out == "NIL\n"


def test_run_cap_flag(capsys, tmp_path):
    f = tmp_path / "spin.lisp"
    f.write_text("(loop$ with x = 0 do :measure (nfix x) (setq x x))\n")
    code, out = run_cli(capsys, ["run", "--mode", "native", "--cap", "50",
                                 str(f)])
    assert code == 1
    assert "native iteration cap of 50" in out


def test_run_measure_violation_logical(capsys):
    code, out = run_cli(capsys, ["run",
                                 str(CORPUS / "measure_violation.lisp")])
    assert code == 1
    assert "failed to decrease" in out


# --------------------------------------------------------------------- diff

# measure_violation.lisp stays out: it diverges in error class by design
DIFF_LINES = {
    "loops_basic": "equivalent (9 forms, 1 stobjs)",
    "loops_corpus": "equivalent (38 forms, 2 stobjs)",
    "scheduler_adversarial": "equivalent (16 forms, 3 stobjs)",
    "scheduler_demo": "equivalent (18 forms, 3 stobjs)",
    "switch_demo": "equivalent (9 forms, 2 stobjs)",
}


@pytest.mark.parametrize("name", list(DIFF_LINES))
def test_diff_corpus_equivalent(capsys, name):
    code, out = run_cli(capsys, ["diff", str(CORPUS / (name + ".lisp"))])
    assert code == 0
    assert out.splitlines()[-1] == DIFF_LINES[name]


def test_diff_reports_forced_divergence(capsys, monkeypatch):
    monkeypatch.setattr(loops, "native_exec",
                        lambda interp, spec, env, form: 999)
    code, out = run_cli(capsys, ["diff", str(CORPUS / "loops_basic.lisp")])
    assert code == 2
    assert "divergence at form 2" in out
    assert "logical: 30" in out
    assert "native:  999" in out


def test_diff_skips_errors_common_to_both_modes(capsys, tmp_path):
    f = tmp_path / "e.lisp"
    f.write_text("(cons 1 2)\n(car)\n(+ 1 2)\n")
    code, out = run_cli(capsys, ["diff", str(f)])
    assert code == 0
    assert "form 2 skipped (EvalError in both modes" in out
    assert out.splitlines()[-1] == "equivalent (3 forms, 0 stobjs)"


DEEP_COUNT = ("(defun cnt (n acc) (declare (xargs :measure (nfix n))) "
              "(if (zp n) acc (cnt (1- n) (1+ acc))))\n(cnt 2000 0)\n")
DEEP_ERROR = ("nesting too deep: evaluation exceeded Python's recursion "
              "limit of %d in (CNT 2000 0)" % sys.getrecursionlimit())


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_run_deep_recursion_ends_in_one_error_line(capsys, tmp_path, mode):
    f = tmp_path / "deep.lisp"
    f.write_text(DEEP_COUNT)
    code, out = run_cli(capsys, ["run", "--mode", mode, str(f)])
    assert code == 1
    assert out.splitlines() == ["CNT", "error: " + DEEP_ERROR]


def test_diff_deep_recursion_is_an_error_in_both_modes(capsys, tmp_path):
    f = tmp_path / "deep.lisp"
    f.write_text(DEEP_COUNT)
    code, out = run_cli(capsys, ["diff", str(f)])
    assert code == 0
    assert out.splitlines() == [
        "form 2 skipped (EvalError in both modes: %s)" % DEEP_ERROR,
        "equivalent (2 forms, 0 stobjs)"]


# The reader recurses once per nesting level: past Python's limit the file
# is one read error at the start of the form, not a traceback.
DEEP_NESTING = "(+ 1 2)\n(car '" + "(" * 3000 + ")" * 3000 + ")\n"


@pytest.mark.parametrize("argv", [["run"], ["run", "--mode", "native"],
                                  ["diff"], ["check-constraints"]],
                         ids=["run", "run-native", "diff", "check"])
def test_deeply_nested_input_is_one_read_error(capsys, tmp_path, argv):
    f = tmp_path / "nested.lisp"
    f.write_text(DEEP_NESTING)
    code, out = run_cli(capsys, argv + [str(f)])
    assert code == 1
    assert out.splitlines() == ["error: nesting too deep at line 2, column 1"]


# A digit that int() rejects reads as a symbol, and a quoted dot is a
# read error; neither ends in a traceback.
@pytest.mark.parametrize("text,argv,want", [
    ("(+ 1 \u00b2)\n", ["run"], "error: unbound variable \u00b2 in \u00b2"),
    ("(car '(a '. b))\n", ["run"], "error: stray dot at line 1, column 12"),
    ("(car '(a '. b))\n", ["diff"], "error: stray dot at line 1, column 12")],
    ids=["digit-run", "dot-run", "dot-diff"])
def test_odd_tokens_end_in_one_error_line(capsys, tmp_path, text, argv, want):
    f = tmp_path / "odd.lisp"
    f.write_text(text, encoding="utf-8")
    code, out = run_cli(capsys, argv + [str(f)])
    assert code == 1
    assert out.splitlines() == [want]


# A value nested deeper than Python's recursion limit prints.
DEEP_VALUE = ("(loop$ with n = 3000 with x = nil do (if (zp n) (return x) "
              "(progn (setq x (cons x nil)) (setq n (1- n)))))\n")
DEEP_SHOWN = "(" * 3000 + "NIL" + ")" * 3000


@pytest.mark.parametrize("argv,want", [
    (["run"], DEEP_SHOWN), (["run", "--mode", "native"], DEEP_SHOWN),
    (["diff"], "equivalent (1 forms, 0 stobjs)")],
    ids=["run", "run-native", "diff"])
def test_deeply_nested_value_prints(capsys, tmp_path, argv, want):
    f = tmp_path / "deep_value.lisp"
    f.write_text(DEEP_VALUE)
    code, out = run_cli(capsys, argv + [str(f)])
    assert code == 0
    assert out.splitlines() == [want]


def test_diff_missing_file(capsys):
    code, out = run_cli(capsys, ["diff", "/nonexistent/x.lisp"])
    assert code == 1 and out.startswith("error:")


def test_diff_reports_a_split_in_error_class(capsys):
    code, out = run_cli(capsys, ["diff", "--cap", "50",
                                 str(CORPUS / "measure_violation.lisp")])
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == ("divergence at form 1: (LOOP$ WITH X = 0 DO "
                        ":MEASURE (NFIX X) (SETQ X X))")
    assert lines[1].startswith("  logical error: MeasureViolation: the "
                               "measure (NFIX X) of this DO loop failed")
    assert lines[2].startswith("  native error:  CapExceeded: DO loop "
                               "passed the native iteration cap of 50")
    assert len(lines) == 3


def test_diff_reports_a_value_against_an_error(capsys, monkeypatch):
    def native_exec(interp, spec, env, form):
        raise EvalError("native path failed", form=form)
    monkeypatch.setattr(loops, "native_exec", native_exec)
    code, out = run_cli(capsys, ["diff", str(CORPUS / "loops_basic.lisp")])
    assert code == 2
    lines = out.splitlines()
    assert lines[0].startswith("divergence at form 2: (LOOP$ ")
    assert lines[1:] == ["  logical: 30", "  native:  EvalError: native path "
                         "failed in %s" % lines[0].split(": ", 1)[1]]


def test_diff_reports_banks_that_differ_when_every_form_agrees(
        capsys, monkeypatch, tmp_path):
    # native UPDATE-FLD writes another value; the form still prints <ST>
    real = stobjs.StobjInstance.set_cell
    monkeypatch.setattr(stobjs.StobjInstance, "set_cell",
                        lambda inst, i, v: real(inst, i, 99))
    f = tmp_path / "bank.lisp"
    f.write_text("(defstobj st fld)\n(update-fld 1 st)\n")
    code, out = run_cli(capsys, ["diff", str(f)])
    assert code == 2
    assert out.splitlines() == ["divergence in final stobj banks:",
                                "  logical: {'ST': '(1)'}",
                                "  native:  {'ST': '(99)'}"]


def test_diff_reports_a_native_update_left_by_a_shared_error(capsys,
                                                             tmp_path):
    # F updates ST in place, then fails in both modes; only the native
    # bank keeps the update, so form 3 diverges although both modes fail
    f = tmp_path / "update_then_fail.lisp"
    f.write_text("(defstobj st fld)\n"
                 "(defun f (n st) (declare (xargs :stobjs (st) "
                 ":measure (nfix n))) (if (zp n) (mv (car 5) st) "
                 "(let ((st (update-fld n st))) (f (1- n) st))))\n"
                 "(f 1 st)\n(fld st)\n")
    code, out = run_cli(capsys, ["diff", str(f)])
    assert code == 2
    assert out.splitlines() == [
        "divergence at form 3: (F 1 ST)",
        "  GuardViolation in both modes: guard violation in (CAR 5): 5 "
        "is neither a cons nor NIL in (CAR 5)",
        "  logical bank: {'ST': '(NIL)'}",
        "  native bank:  {'ST': '(1)'}"]


def test_diff_skips_stobj_names_bound_by_for_and_lambda(capsys, tmp_path):
    f = tmp_path / "r3.lisp"
    f.write_text("(defstobj st fld)\n"
                 "(defun g (l) (loop$ for st in l sum st))\n"
                 "(apply$ '(lambda (st) (cons st st)) '(5))\n")
    code, out = run_cli(capsys, ["diff", str(f)])
    assert code == 0
    r3 = "R3: stobj name ST may not be used as an ordinary variable"
    assert out.splitlines() == [
        "form 2 skipped (LinearityError in both modes: single-threadedness "
        "violation in G:", "  %s)" % r3,
        "form 3 skipped (LinearityError in both modes: single-threadedness "
        "violation in this lambda:", "  %s)" % r3,
        "equivalent (3 forms, 1 stobjs)"]


@pytest.mark.parametrize("command", ["run", "diff", "check-constraints"])
def test_invalid_utf8_is_one_error_line(tmp_path, command):
    f = tmp_path / "bad.lisp"
    f.write_bytes(b"(+ 1 2)\n\xff\n")
    proc = subprocess.run(
        [sys.executable, "-m", "stlisp", command, str(f)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == [
        "error: 'utf-8' codec can't decode byte 0xff in position 8: "
        "invalid start byte"]


# -------------------------------------------------------- check-constraints

def test_check_constraints_pass(capsys):
    code, out = run_cli(capsys, ["check-constraints",
                                 str(CORPUS / "scheduler_demo.lisp")])
    assert code == 0
    assert "run complete: every rank is zero." in out
    assert "check-constraints: 1000 trials, seed 0" in out
    assert re.search(r"rank-is-natural\s+checked 1000\s+failures 0", out)
    assert re.search(r"exec-no-interfere\s+checked 1000\s+failures 0", out)
    assert out.splitlines()[-1] == "result: PASS"


def test_check_constraints_fail(capsys):
    code, out = run_cli(capsys, ["check-constraints",
                                 str(CORPUS / "scheduler_adversarial.lisp")])
    assert code == 2
    m = re.search(r"exec-no-interfere\s+checked 1000\s+failures (\d+)", out)
    assert m and int(m.group(1)) > 0
    assert "FAIL exec-no-interfere:" in out
    assert out.splitlines()[-1] == "result: FAIL"


def test_check_constraints_seed_and_trials_flags(capsys):
    code, out = run_cli(capsys, ["check-constraints", "--seed", "5",
                                 "--trials", "40",
                                 str(CORPUS / "scheduler_demo.lisp")])
    assert code == 0
    assert "check-constraints: 40 trials, seed 5" in out


def test_check_constraints_eval_error(capsys, tmp_path):
    f = tmp_path / "none.lisp"
    f.write_text("(+ 1 2)\n")
    code, out = run_cli(capsys, ["check-constraints", str(f)])
    assert code == 1
    assert "error: check-constraints needs the PROC-IDS signature" in out


# ------------------------------------------------------ environment defaults

def test_env_mode_default_and_flag_override(capsys, monkeypatch, tmp_path):
    # only the native path has an iteration cap; the logical path stops
    # the same loop at its measure
    f = tmp_path / "spin.lisp"
    f.write_text("(loop$ with x = 0 do :measure (nfix x) (setq x x))\n")
    monkeypatch.setenv("STLISP_MODE", "native")
    code, out = run_cli(capsys, ["run", "--cap", "50", str(f)])
    assert code == 1 and "native iteration cap of 50" in out
    # an explicit flag beats the environment
    code, out = run_cli(capsys, ["run", "--mode", "logical", "--cap", "50",
                                 str(f)])
    assert code == 1 and "measure" in out and "cap" not in out


def test_env_trials_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("STLISP_TRIALS", "17")
    monkeypatch.setenv("STLISP_SEED", "3")
    code, out = run_cli(capsys, ["check-constraints",
                                 str(CORPUS / "scheduler_demo.lisp")])
    assert "check-constraints: 17 trials, seed 3" in out
    code, out = run_cli(capsys, ["check-constraints", "--trials", "9",
                                 str(CORPUS / "scheduler_demo.lisp")])
    assert "check-constraints: 9 trials, seed 3" in out


def test_env_guard_check_default(capsys, monkeypatch, tmp_path):
    f = tmp_path / "g.lisp"
    f.write_text("(car 1)\n")
    monkeypatch.setenv("STLISP_GUARD_CHECK", "off")
    code, out = run_cli(capsys, ["run", str(f)])
    assert code == 0 and out == "NIL\n"


def test_env_cap_default(capsys, monkeypatch, tmp_path):
    f = tmp_path / "spin.lisp"
    f.write_text("(loop$ with x = 0 do :measure (nfix x) (setq x x))\n")
    monkeypatch.setenv("STLISP_CAP", "75")
    monkeypatch.setenv("STLISP_MODE", "native")
    code, out = run_cli(capsys, ["run", str(f)])
    assert code == 1
    assert "native iteration cap of 75" in out


def test_diff_rejects_a_let_binding_the_stobj_twice_in_both_modes(
        capsys, tmp_path):
    f = tmp_path / "twice.lisp"
    f.write_text("(defstobj st fld)\n"
                 "(defun twice (st) (declare (xargs :stobjs (st)))\n"
                 "  (let ((st (update-fld (cons 1 (fld st)) st))\n"
                 "        (st (update-fld (cons 2 (fld st)) st))) st))\n"
                 "(twice st)\n(fld st)\n")
    code, out = run_cli(capsys, ["diff", str(f)])
    assert code == 0
    assert out.startswith("form 2 skipped (LinearityError in both modes: ")
    assert "R1: duplicate LET variable ST in (LET " in out
    assert out.splitlines()[-1] == "equivalent (4 forms, 1 stobjs)"


# --------------------------------------------------------------------- repl

def repl(text, argv=()):
    args = cli.build_parser().parse_args(["repl", *argv])
    out = io.StringIO()
    code = cli.cmd_repl(args, out, inp=io.StringIO(text))
    return code, out.getvalue()


def test_repl_evaluates_and_exits_on_eof():
    code, out = repl("(+ 1 2)\n")
    assert code == 0
    assert "> 3\n" in out


def test_repl_quit_command():
    code, out = repl(":q\n(+ 1 2)\n")
    assert code == 0
    assert "3" not in out


def test_repl_multiline_continuation_prompt():
    code, out = repl("(+ 1\n2)\n")
    assert ".. " in out
    assert "3\n" in out


def test_repl_survives_errors():
    code, out = repl("(car)\n(+ 2 2)\n")
    assert code == 0
    assert "error: CAR takes 1 argument, got 0" in out
    assert "4\n" in out


def test_repl_events_listing():
    code, out = repl("(defun g (x) x)\n(defstobj st fld)\n:events\n:q\n")
    assert re.search(r"\d+\s+defun\s+G", out)
    assert re.search(r"\d+\s+defstobj\s+ST", out)


def test_repl_ubt():
    code, out = repl("(defun g (x) x)\n(g 5)\n:ubt 1\n(g 5)\n:q\n")
    assert "; undid 1 event" in out
    assert "error: undefined function G" in out
    code, out = repl(":ubt\n:q\n")
    assert "error: usage :ubt <event-index>" in out
    code, out = repl(":ubt 9\n:q\n")
    assert "error: no event has index 9" in out


def test_repl_mode_command_is_unknown():
    # a session keeps the mode it starts in: the runaway loop still
    # fails its measure, as only the logical path checks one
    code, out = repl(":mode native\n(loop$ with x = 0 do :measure (nfix x) "
                     "(setq x x))\n:q\n", argv=["--cap", "100"])
    assert "error: unknown command :mode (try :events :ubt :q)" in out
    assert "failed to decrease at iteration 1" in out
    assert "iteration cap" not in out


# each write-back stores the child back into the table it was bound from;
# once a REPL could switch modes between the second and third forms, and
# the third then failed a false ownership check
KID = "(stobj-let ((kid (tbl-get 'kid top (create-kid)))) "
TABLE_WRITE_BACKS = "".join([
    "(defstobj kid fld)\n",
    "(defstobj top (tbl :type (stobj-table)))\n",
    KID + "(kid) (update-fld 1 kid) top)\n",
    KID + "(kid) kid top)\n",
    KID + "(kid) (update-fld 3 kid) top)\n",
    KID + "(v) (fld kid) v)\n",
])


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_repl_stobj_table_write_backs(mode):
    code, out = repl(TABLE_WRITE_BACKS, argv=["--mode", mode])
    assert code == 0
    assert out == "> KID\n> TOP\n" + "> <TOP>\n" * 3 + "> 3\n> \n"


def test_repl_unknown_command():
    code, out = repl(":frobnicate\n:q\n")
    assert "error: unknown command :frobnicate" in out


def test_repl_rejects_diff_mode(capsys):
    # a usage error: the repl runs one interpreter
    with pytest.raises(SystemExit) as exc:
        repl("", argv=["--mode", "diff"])
    assert exc.value.code == 1
    assert "'diff' is not one of logical, native" in capsys.readouterr().err


def test_repl_blank_lines_ignored():
    code, out = repl("\n\n(+ 1 1)\n")
    assert "2\n" in out


# --------------------------------------------------------------- subprocess

def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "stlisp.cli", "run",
         str(CORPUS / "loops_basic.lisp")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == LOOPS_BASIC_TRANSCRIPT


def test_repl_subprocess_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "stlisp.cli", "repl"],
        input="(defstobj st fld)\n(update-fld 41 st)\n(fld st)\n:q\n",
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "41" in proc.stdout


LOOPS_BASIC = str(CORPUS / "loops_basic.lisp")
SCHEDULER = str(CORPUS / "scheduler_demo.lisp")


@pytest.mark.parametrize("env,argv", [
    ({"STLISP_CAP": "abc"}, ["run", LOOPS_BASIC]),
    ({"STLISP_CAP": "0"}, ["run", LOOPS_BASIC]),
    ({"STLISP_MODE": "bogus"}, ["run", LOOPS_BASIC]),
    ({"STLISP_MODE": "diff"}, ["run", LOOPS_BASIC]),
    ({"STLISP_MODE": "diff"}, ["check-constraints", SCHEDULER]),
    ({"STLISP_MODE": "diff"}, ["repl"]),
    ({"STLISP_GUARD_CHECK": "maybe"}, ["run", LOOPS_BASIC]),
    ({"STLISP_SEED": "abc"}, ["check-constraints", SCHEDULER]),
    ({"STLISP_TRIALS": "abc"}, ["check-constraints", SCHEDULER]),
    ({"STLISP_TRIALS": "-3"}, ["check-constraints", SCHEDULER]),
    ({}, ["check-constraints", "--trials", "-3", SCHEDULER]),
    ({}, ["check-constraints", "--trials", "0", SCHEDULER]),
    ({}, ["run", "--cap", "0", LOOPS_BASIC]),
    ({}, ["run", "--mode", "bogus", LOOPS_BASIC]),
    # diff runs both modes, and every other command runs one
    ({}, ["run", "--mode", "diff", LOOPS_BASIC]),
    ({}, ["check-constraints", "--mode", "diff", SCHEDULER]),
    ({}, ["diff", "--mode", "native", LOOPS_BASIC]),
    ({}, ["run", "--guard-check", "maybe", LOOPS_BASIC]),
    ({}, ["run"]),
    ({}, []),
], ids=lambda v: " ".join("%s=%s" % kv for kv in v.items())
    if isinstance(v, dict) else " ".join(Path(a).name for a in v))
def test_usage_errors_exit_1_with_one_error_line(env, argv):
    # exit code 2 is a divergence or a failed property, never a usage error
    proc = subprocess.run(
        [sys.executable, "-m", "stlisp", *argv], env={**os.environ, **env},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0] == proc.stderr.splitlines()[-1]
    for name in env:
        assert name in errors[0]


def test_environment_value_is_checked_only_when_no_flag_is_given(capsys,
                                                                 monkeypatch):
    monkeypatch.setenv("STLISP_TRIALS", "abc")
    code, out = run_cli(capsys, ["check-constraints", "--trials", "4",
                                 SCHEDULER])
    assert code == 0 and "check-constraints: 4 trials, seed 0" in out
