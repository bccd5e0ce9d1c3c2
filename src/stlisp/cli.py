"""Command line front end.

Subcommands: run (evaluate a file), repl, diff (evaluate under both
execution modes and compare), check-constraints (load a file, then
sample the scheduler contracts).  Exit codes: 0 ok, 1 evaluation or
usage error, 2 divergence or property failure.  Every flag has an
STLISP_* environment default; an explicit flag wins.
"""

import argparse
import os
import sys

from . import sexpr
from .errors import LispError
from .kernel import Interp
from .refinement import check_constraints
from .sexpr import show


def _env(name, fallback):
    return os.environ.get("STLISP_" + name, fallback)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stlisp",
        description="a miniature applicative Lisp with single-threaded "
                    "objects and measured DO loops")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=["logical", "native", "diff"],
                        default=_env("MODE", "logical"))
    common.add_argument("--guard-check", choices=["on", "off"],
                        default=_env("GUARD_CHECK", "on"))
    common.add_argument("--cap", type=int,
                        default=int(_env("CAP", "10000000")))
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common],
                           help="evaluate a file of forms")
    p_run.add_argument("path")
    sub.add_parser("repl", parents=[common], help="interactive session")
    p_diff = sub.add_parser("diff", parents=[common],
                            help="compare logical and native execution")
    p_diff.add_argument("path")
    p_chk = sub.add_parser("check-constraints", parents=[common],
                           help="load a file, then sample the scheduler "
                                "contracts")
    p_chk.add_argument("path")
    p_chk.add_argument("--seed", type=int, default=int(_env("SEED", "0")))
    p_chk.add_argument("--trials", type=int,
                       default=int(_env("TRIALS", "1000")))
    return parser


def make_interp(args, mode=None):
    m = mode or args.mode
    return Interp(mode=m, guard_check=args.guard_check == "on",
                  cap=args.cap)


def cmd_run(args, out):
    if args.mode == "diff":
        return cmd_diff(args, out)
    interp = make_interp(args)
    interp.out = out
    try:
        forms = sexpr.read_all(_read_file(args.path))
    except (OSError, LispError) as e:
        out.write("error: %s\n" % e)
        return 1
    for form in forms:
        try:
            val = interp.eval_top(form)
        except LispError as e:
            out.write("error: %s\n" % e)
            return 1
        out.write(show(val) + "\n")
    return 0


def _read_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _attempt(interp, form):
    """('ok', rendered result) or ('error', class name, message)."""
    try:
        return ("ok", show(interp.eval_top(form)))
    except LispError as e:
        return ("error", type(e).__name__, str(e))


def _bank_view(interp):
    return {name: show(inst.logical_view())
            for name, inst in sorted(interp.bank.items())}


def cmd_diff(args, out):
    try:
        forms = sexpr.read_all(_read_file(args.path))
    except (OSError, LispError) as e:
        out.write("error: %s\n" % e)
        return 1
    ilog = make_interp(args, "logical")
    ilog.out = _Null()
    inat = make_interp(args, "native")
    inat.out = _Null()
    for idx, form in enumerate(forms, 1):
        a = _attempt(ilog, form)
        b = _attempt(inat, form)
        if a[0] == "ok" and b[0] == "ok":
            if a[1] != b[1]:
                out.write("divergence at form %d: %s\n" % (idx, show(form)))
                out.write("  logical: %s\n  native:  %s\n" % (a[1], b[1]))
                return 2
        elif a[0] == "error" and b[0] == "error":
            if a[1] != b[1]:
                out.write("divergence at form %d: %s\n" % (idx, show(form)))
                out.write("  logical error: %s: %s\n" % (a[1], a[2]))
                out.write("  native error:  %s: %s\n" % (b[1], b[2]))
                return 2
            out.write("form %d skipped (%s in both modes: %s)\n"
                      % (idx, a[1], a[2]))
        else:
            out.write("divergence at form %d: %s\n" % (idx, show(form)))
            out.write("  logical: %s\n" % (a[1] if a[0] == "ok"
                                           else "%s: %s" % (a[1], a[2])))
            out.write("  native:  %s\n" % (b[1] if b[0] == "ok"
                                           else "%s: %s" % (b[1], b[2])))
            return 2
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
    interp = make_interp(args, "logical" if args.mode == "diff"
                         else args.mode)
    interp.out = out
    try:
        for form in sexpr.read_all(_read_file(args.path)):
            interp.eval_top(form)
        report = check_constraints(interp, seed=args.seed,
                                   trials=args.trials)
    except (OSError, LispError) as e:
        out.write("error: %s\n" % e)
        return 1
    for line in report.lines():
        out.write(line + "\n")
    return 0 if report.ok() else 2


def cmd_repl(args, out, inp=None):
    if args.mode == "diff":
        out.write("error: the repl runs one interpreter; pick logical or "
                  "native\n")
        return 1
    inp = inp or sys.stdin
    interp = make_interp(args)
    interp.out = out
    buf = ""
    while True:
        out.write("> " if not buf else ".. ")
        try:
            out.flush()
        except AttributeError:
            pass
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
    if cmd == ":MODE":
        if len(parts) == 2 and parts[1] in ("logical", "native"):
            interp.mode = parts[1]
            out.write("; mode = %s\n" % parts[1])
        else:
            out.write("error: usage :mode logical|native\n")
        return None
    out.write("error: unknown command %s (try :events :ubt :mode :q)\n"
              % parts[0])
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
