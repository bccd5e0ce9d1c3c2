"""Command line front end.

Subcommands: run (evaluate a file), repl (commands :events, :ubt N and
:q), diff (evaluate under both execution modes and compare),
check-constraints (load a file, then sample the scheduler contracts).
--mode fixes the one mode of a run, REPL session or check; diff is the
way to compare the modes.  Exit codes: 0 ok, 1 evaluation or usage
error, 2 divergence or property failure.  Every flag has an STLISP_*
environment default; an explicit flag wins.
"""

import argparse
import os
import re
import sys

from . import sexpr
from .errors import LispError
from .kernel import Interp
from .refinement import check_constraints
from .sexpr import show


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error exits 1: exit code 2 reports a divergence
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _flag(parser, name, fallback, choices=(), least=None):
    """Add --name, by default $STLISP_NAME or else fallback: one of
    choices, or without them an integer (at least least, if given).
    argparse types a string default as it types a flag's text, so an
    environment value is checked exactly as the flag is."""
    env = "STLISP_" + name.upper().replace("-", "_")
    what = ("one of " + ", ".join(choices) if choices else "an integer"
            if least is None else "an integer of at least %d" % least)

    def value(text):
        if choices and text in choices:
            return text
        if not choices and re.fullmatch(r"[-+]?\d+", text) \
                and (least is None or int(text) >= least):
            return int(text)
        raise argparse.ArgumentTypeError("%r is not %s (from --%s or %s)"
                                         % (text, what, name, env))
    parser.add_argument("--" + name, type=value,
                        default=os.environ.get(env, fallback),
                        metavar="{%s}" % ",".join(choices) if choices else "N")


def build_parser():
    parser = _Parser(
        prog="stlisp",
        description="a miniature applicative Lisp with single-threaded "
                    "objects and measured DO loops")
    # --mode only where one interpreter runs: diff runs both
    mode = argparse.ArgumentParser(add_help=False)
    _flag(mode, "mode", "logical", ("logical", "native"))
    common = argparse.ArgumentParser(add_help=False)
    _flag(common, "guard-check", "on", ("on", "off"))
    _flag(common, "cap", "10000000", least=1)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[mode, common],
                           help="evaluate a file of forms")
    p_run.add_argument("path")
    sub.add_parser("repl", parents=[mode, common],
                   help="interactive session")
    p_diff = sub.add_parser("diff", parents=[common],
                            help="compare logical and native execution")
    p_diff.add_argument("path")
    p_chk = sub.add_parser("check-constraints", parents=[mode, common],
                           help="load a file, then sample the scheduler "
                                "contracts")
    p_chk.add_argument("path")
    _flag(p_chk, "seed", "0")
    _flag(p_chk, "trials", "1000", least=1)
    return parser


def make_interp(args, mode=None):
    return Interp(mode=mode or args.mode,
                  guard_check=args.guard_check == "on", cap=args.cap)


def cmd_run(args, out):
    forms = _load(args.path, out)
    if forms is None:
        return 1
    interp = make_interp(args)
    interp.out = out
    for form in forms:
        try:
            val = interp.eval_top(form)
        except LispError as e:
            out.write("error: %s\n" % e)
            return 1
        out.write(show(val) + "\n")
    return 0


def _load(path, out):
    """The forms of the file at path, or None once one error line is
    written to out."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return sexpr.read_all(fh.read())
    except (OSError, UnicodeError, LispError) as e:
        out.write("error: %s\n" % e)
        return None


def _attempt(interp, form):
    """('ok', rendered result) or ('error', class name, message)."""
    try:
        return ("ok", show(interp.eval_top(form)))
    except LispError as e:
        return ("error", type(e).__name__, str(e))


def _bank_view(interp):
    return {name: show(inst.logical_view())
            for name, inst in sorted(interp.bank.items())}


def _diverge(out, idx, form, *details):
    """Report that the modes diverge at form idx, one line per detail;
    the exit code is 2."""
    out.write("divergence at form %d: %s\n" % (idx, show(form)))
    for line in details:
        out.write("  %s\n" % line)
    return 2


def cmd_diff(args, out):
    forms = _load(args.path, out)
    if forms is None:
        return 1
    ilog = make_interp(args, "logical")
    ilog.out = _Null()
    inat = make_interp(args, "native")
    inat.out = _Null()
    for idx, form in enumerate(forms, 1):
        a = _attempt(ilog, form)
        b = _attempt(inat, form)
        if a[0] == "error" and b[0] == "error":
            if a[1] != b[1]:
                return _diverge(out, idx, form,
                                "logical error: %s: %s" % a[1:],
                                "native error:  %s: %s" % b[1:])
            # an in-place update made before the error stays in the
            # native bank only
            banks = (_bank_view(ilog), _bank_view(inat))
            if banks[0] != banks[1]:
                return _diverge(out, idx, form,
                                "%s in both modes: %s" % a[1:],
                                "logical bank: %s" % banks[0],
                                "native bank:  %s" % banks[1])
            out.write("form %d skipped (%s in both modes: %s)\n"
                      % (idx, a[1], a[2]))
        elif a != b:
            # a value, or "class: message" for an error
            return _diverge(out, idx, form, "logical: " + ": ".join(a[1:]),
                            "native:  " + ": ".join(b[1:]))
    banks = (_bank_view(ilog), _bank_view(inat))
    if banks[0] != banks[1]:
        out.write("divergence in final stobj banks:\n")
        out.write("  logical: %s\n  native:  %s\n" % banks)
        return 2
    out.write("equivalent (%d forms, %d stobjs)\n"
              % (len(forms), len(banks[0])))
    return 0


class _Null:
    def write(self, _text):
        pass


def cmd_check_constraints(args, out):
    forms = _load(args.path, out)
    if forms is None:
        return 1
    interp = make_interp(args)
    interp.out = out
    try:
        for form in forms:
            interp.eval_top(form)
        report = check_constraints(interp, seed=args.seed,
                                   trials=args.trials)
    except LispError as e:
        out.write("error: %s\n" % e)
        return 1
    for line in report.lines():
        out.write(line + "\n")
    return 0 if report.ok() else 2


def cmd_repl(args, out, inp=None):
    inp = inp or sys.stdin
    interp = make_interp(args)
    interp.out = out
    buf = ""
    while True:
        out.write("> " if not buf else ".. ")
        out.flush()
        line = inp.readline()
        if line == "":
            out.write("\n")
            return 0
        if not buf and line.strip().startswith(":"):
            code = _repl_command(interp, line.strip(), out)
            if code is not None:
                return code
            continue
        buf += line
        if not sexpr.balanced(buf):
            continue
        text, buf = buf, ""
        if not text.strip():
            continue
        try:
            for form in sexpr.read_all(text):
                out.write(show(interp.eval_top(form)) + "\n")
        except LispError as e:
            out.write("error: %s\n" % e)
    return 0


def _repl_command(interp, line, out):
    parts = line.split()
    cmd = parts[0].upper()
    if cmd == ":Q":
        return 0
    if cmd == ":EVENTS":
        for ev in interp.world.events:
            out.write("%4d  %-10s %s\n" % (ev.index, ev.kind, ev.name))
        return None
    if cmd == ":UBT":
        try:
            n = int(parts[1])
        except (IndexError, ValueError):
            out.write("error: usage :ubt <event-index>\n")
            return None
        try:
            removed = interp.undo(n)
        except LispError as e:
            out.write("error: %s\n" % e)
            return None
        out.write("; undid %d event%s\n" % (removed,
                                            "" if removed == 1 else "s"))
        return None
    out.write("error: unknown command %s (try :events :ubt :q)\n" % parts[0])
    return None


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = sys.stdout
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "repl":
        return cmd_repl(args, out)
    if args.command == "diff":
        return cmd_diff(args, out)
    return cmd_check_constraints(args, out)


if __name__ == "__main__":
    sys.exit(main())
