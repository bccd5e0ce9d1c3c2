"""Mutation check of the tier-1 suite.

Each entry below names a file of the tree, an exact text in it, the text
that replaces it, and what the change breaks.  For each entry the script
copies the tree, applies that one replacement (an entry whose text does
not occur exactly once is an error) and runs tier-1 with -x.  An
unmutated copy runs first, with no time limit, and must pass; each
mutant's run may take SLOWDOWN times as long, and at least FLOOR
seconds.  The mutant is killed when the suite fails, timed out when the
suite runs past that limit, and survived when it passes.  The
EQUIVALENT entries change nothing a program can observe, so they are
expected to survive.

A change that deletes a check adds here the mutants of the checks that
now enforce its rule.  Run from the repository root; it is not part of
tier-1:

    python tools/mutants.py

Exit status 0 when every mutant is killed or timed out and every
equivalent one survives, 1 otherwise, 2 when the unmutated suite fails
or an entry does not match.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A mutant's suite is cut after SLOWDOWN times the unmutated suite's
# wall-clock time, and never before FLOOR seconds.
SLOWDOWN = 3
FLOOR = 30.0
KERNEL = "src/stlisp/kernel.py"
STOBJS = "src/stlisp/stobjs.py"
LOOPS = "src/stlisp/loops.py"
REFINEMENT = "src/stlisp/refinement.py"
SEXPR = "src/stlisp/sexpr.py"
STOBJ_TABLE = "src/stlisp/stobj_table.py"

# (file, old text, new text, what the mutant breaks)
MUTANTS = [
    # defun measures and guards
    (KERNEL, "if stack and not loops.l_less(m, stack[-1]):",
     "if len(stack) > 1 and not loops.l_less(m, stack[-1]):",
     "a defun's entry measure is never compared with its first "
     "recursive call's"),
    # the callee's frame
    (KERNEL, "frame[name] = vals[i]", "frame[name] = vals[0]",
     "a defun binds every formal to its first argument"),
    (KERNEL, "if fd.guard is not None and self.guard_check:",
     "if fd.guard is not None:",
     "a defun's :guard is checked with guards off"),
    # the APPLY$ badge
    (KERNEL, "if outputs != (None,) or any(slot is not None "
             "for slot in inputs):",
     "if outputs != (None,):",
     "APPLY$ calls a function that takes a stobj"),
    (KERNEL, "if nargs < lo or (hi is not None and nargs > hi):",
     "if form is None and (nargs < lo or (hi is not None and nargs > hi)):",
     "APPLY$ calls a function with the wrong number of arguments"),
    # the special forms' handlers
    (KERNEL, "    return form.cdr.car\n", "    return form.cdr\n",
     "QUOTE gives the list of its arguments"),
    # what an admitted call reads without eval
    (KERNEL, "vals.append(x.cdr.car)", "vals.append(x.cdr)",
     "a quoted argument is passed as the list of QUOTE's arguments"),
    (KERNEL, "elif type(x) is Cons and x.car is QUOTE:", "elif False:",
     "a quoted argument costs a call of eval, which the eval calls "
     "pinned by test_free_names_are_rejected_at_admission show"),
    (KERNEL, "return T if a is b else NIL", "return T",
     "EQ with a symbol argument always holds"),
    (STOBJS, "            if env is not None and pname in env[0]:",
     "            if env is not None:",
     "a stobj-let parent is looked for in the innermost frame only"),
    (STOBJS, "if type(consumer) is Symbol and consumer.name in parents:",
     "if type(consumer) is Symbol:",
     "a stobj-let consumer that names an outer variable is looked for "
     "in the written-back frame only"),
    (STOBJS, "        return parents[consumer.name]\n",
     "        return parent\n",
     "a stobj-let consumer that names an output gives the last parent"),
    (STOBJS, "val = values[i]", "val = values[0]",
     "every stobj-let output gets the producer's first value"),
    (STOBJS, "values = result.values if len(outputs) > 1 else (result,)",
     "values = (result,)",
     "a stobj-let of several outputs gets the producer's MultiValue as "
     "its first output"),
    (STOBJS, "else inst.cells[self.findex]", "else inst.cells",
     "a field of a stobj of several fields reads as all its fields"),
    (STOBJS, "else inst.cells[self.findex]", "else inst.cells[0]",
     "a get op reads field 0 for every field"),
    # the scope chain
    (KERNEL, "frame, e = e\n", "frame, e = e[0], None\n",
     "a variable lookup never steps to the enclosing scope"),
    # IF's branch, which Interp.eval goes on with in its own frame
    (KERNEL, "if self.eval(rest.car, env) is NIL:",
     "if self.eval(rest.car, env) is not NIL:",
     "IF takes the wrong branch"),
    (KERNEL, "return NIL\n                form = rest.cdr.car",
     "return T\n                form = rest.cdr.car",
     "an IF without an else branch gives T when its test fails"),
    (KERNEL, "kind = type(form)\n                continue", "continue",
     "an IF's branch is run as a call whatever its type"),
    # the binding forms' handlers
    (KERNEL, "scope = inner if form.car is LETSTAR else env", "scope = inner",
     "a LET right-hand side sees the bindings before it"),
    (KERNEL, "scope = inner if form.car is LETSTAR else env", "scope = env",
     "a LET* right-hand side does not see the bindings before it"),
    (KERNEL, "        frame[vars_.car.name] = v\n        vars_ = vars_.cdr\n",
     "        frame[vars_.car.name] = v\n",
     "MV-LET binds every value to its first variable"),
    (KERNEL, "rest.car if rest.cdr is NIL else _one_body(rest)",
     "rest.car", "a LET with a declare runs the declare as its body"),
    (KERNEL, "body.car if body.cdr is NIL else _one_body(body)",
     "body.car", "an MV-LET with a declare runs the declare as its body"),
    # the three callers of stobjs.admit
    (KERNEL, "form, names, names,", "form, names, (None,) * len(names),",
     "a top-level form sees the bank's stobjs as ordinary names"),
    (KERNEL, "self.world.stobj_lets.update(lets)\n            try:",
     "try:",
     "a top-level form's stobj-lets are parsed again when they run"),
    (KERNEL, "self.world.stobj_lets.pop(f, None)", "pass",
     "a top-level form's stobj-let parses pile up"),
    (KERNEL, 'want="a lambda body")', "want=None)",
     "an APPLY$ lambda body may return several values"),
    (KERNEL, "names, (None,) * len(names),", "names, names,",
     "an APPLY$ lambda's formals are live stobjs"),
    (KERNEL, "inputs, name=name,", "inputs, name=None,",
     "a defun's self-calls are not typed by its own formals"),
    (KERNEL, "name=name, guard=guard,\n"
             "                                     measure=measure)",
     "name=name)",
     "a defun's :guard and :measure terms are not checked"),
    # definitions
    (KERNEL, 'name in _RESERVED or name[:1] == ":" or name in w.functions',
     "name in w.functions",
     "a definition may take a special form's or a constant's name"),
    # the analyzer's scope map: a name -> its stobj, or None
    (STOBJS, "        scope = dict(scope)\n        scope[name] = slot\n",
     "        scope[name] = slot\n",
     "_bind_one adds its binding to its caller's scope"),
    (STOBJS, "        scope[name] = slot\n        return scope",
     "        scope[name] = slot or scope.get(name)\n        return scope",
     "an ordinary rebinding of a name keeps its stobj"),
    (STOBJS, "prod = {k: v for k, v in scope.items()\n"
             "                if v is None or k not in parents}",
     "prod = dict(scope)",
     "a stobj-let producer sees the parents"),
    (STOBJS, "scope = dict(scope)   # each WITH init",
     "scope = dict(scope, **{n: None for n, _t, _i in spec.withs})  #",
     "a WITH init sees the loop's later WITH names"),
    # stobjs.admit's branches
    (STOBJS, "            if s is None:", "            if False:",
     "an ordinary formal skips R3, so a lambda formal may take a stobj's "
     "name"),
    (STOBJS, "            if s is None:", "            if True:",
     "a stobj formal is bound as an ordinary value"),
    (STOBJS, "        if want is None:\n            shape = analyzer.analyze",
     "        if True:\n            shape = analyzer.analyze",
     "a lambda body's one-value rule is skipped"),
    (STOBJS, "if guard is not None:", "if False:",
     "a defun's :guard term is not checked"),
    (STOBJS, "if measure is not None:", "if False:",
     "a defun's :measure term is not checked"),
    (STOBJS, "if not analyzer.saw_self or self_output is not UNKNOWN:",
     "if True:",
     "a self-recursive defun gets no second pass"),
    (STOBJS, "        if shape is UNKNOWN:\n            raise LinearityError",
     "        if False:\n            raise LinearityError",
     "a defun whose every path recurses is admitted"),
    (STOBJS, "        self_output = shape\n",
     "        self_output = (None,)\n",
     "the second pass does not know the defun's own shape"),
    (STOBJS, "    if analyzer.violations:\n        raise LinearityError(what",
     "    if False:\n        raise LinearityError(what",
     "no violation is ever raised"),
    (STOBJS, "LinearityError(what or name,", "LinearityError(what,",
     "a defun's violations are not labelled with its name"),
    (STOBJS, "analyzer.stobj_lets = parses", "pass",
     "a defun's stobj-let parses are not kept"),
    # one copy-on-write rule
    (STOBJS, '    if interp.mode == "native":\n        inst.set_cell(i, v)',
     '    if True:\n        inst.set_cell(i, v)',
     "a logical-mode stobj write updates in place"),
    (STOBJS, 'return cell if interp.mode == "native" else cell.copy()',
     "return cell",
     "a logical-mode table write updates the old table"),
    (STOBJS, "            return StobjInstance(self.spec, v)\n",
     "            self.cells = v\n            return self\n",
     "a logical-mode write to a one-field stobj updates it in place"),
    (STOBJS, "        return _write(interp, vals[1], self.findex, vals[0])\n",
     "        vals[1].set_cell(self.findex, vals[0])\n"
     "        return vals[1]\n",
     "an update op writes in place in logical mode"),
    (STOBJS, "    def fresh(self):\n"
             "        if self.single:\n"
             "            f = self.fields[0]\n"
             "            return StobjInstance(self, TableCell({}) if",
     "    def fresh(self, _shared=TableCell({})):\n"
     "        if self.single:\n"
     "            f = self.fields[0]\n"
     "            return StobjInstance(self, _shared if",
     "every fresh one-field table stobj shares one TableCell"),
    (STOBJS, "cells = list(self.cells)", "cells = self.cells",
     "a logical-mode write to a stobj of several fields changes the old "
     "version's cells"),
    (STOBJ_TABLE, "TableCell(self.data.copy())", "TableCell(self.data)",
     "a logical-mode table copy shares its entries with the old table"),
    # loop measures, guards and the cap
    # the walker's LET
    (LOOPS, "frame[names[i]] = interp.eval(r, env)",
     "frame[names[0]] = interp.eval(r, env)",
     "a statement-position LET binds every value to its first name"),
    (LOOPS, "    return a < b\n", "    return a <= b\n",
     "an equal measure counts as a decrease"),
    (LOOPS, "if not l_less(m_new, m_cur):", "if l_less(m_cur, m_new):",
     "a DO loop whose measure stays put runs on"),
    (LOOPS, "held[1] = held[1] - 1 if", "held[1] = held[1] if",
     "a (LEN v) measure stepped by CDR stays put"),
    (LOOPS, "        if n > interp.cap:", "        if n > interp.cap + 1:",
     "the native path runs one iteration past its cap"),
    (LOOPS, "        if spec.guard is not None and interp.guard_check:\n"
            "            _check_guard(interp, spec, env, n, form)",
     "        if spec.guard is not None:\n"
     "            _check_guard(interp, spec, env, n, form)",
     "a logical DO loop's :GUARD is checked with guards off"),
    # the sampler's contracts
    (REFINEMENT, "if not after < before:", "if not after <= before:",
     "an EXEC that keeps a ready process's rank passes exec-rank-reduces"),
    (REFINEMENT, "if after > before and not sexpr.equal(p, q):",
     "if after > before + 1 and not sexpr.equal(p, q):",
     "a rank that rises by one passes exec-no-interfere"),
    (REFINEMENT, "if not (isinstance(r, int) and r >= 0):",
     "if not isinstance(r, int):",
     "a negative rank passes rank-is-natural"),
    (REFINEMENT, "return rng.choice(ids)", "return rng.choice(ids[::-1])",
     "the sampler maps each random draw to the other process id"),
    # the reader's two token routes, its atoms and its error positions
    (SEXPR, '.replace("\'", " \' ").split()', ".split()",
     "a quote that touches its form is read into a symbol"),
    (SEXPR, '_COMMENT.sub("", text).replace(', "text.replace(",
     "a comment in a text without a string is read as forms"),
    (SEXPR, 'if c in "+-." or c.isdecimal():', 'if c in "+-.":',
     "a token that starts with a digit is read as a symbol"),
    (SEXPR, "length_hint(self.rest) - 1", "length_hint(self.rest)",
     "an error is placed at the token after the one that failed"),
    (SEXPR, "                depth += 1\n", "                pass\n",
     "an unterminated list is placed at a list it holds"),
]

# Mutants that no program can tell from the original.
EQUIVALENT = [
    (LOOPS, "return len(a) < len(b)", "return len(a) <= len(b)",
     "the lengths differ here, so < and <= agree"),
    (LOOPS, "return (v,) if v >= 0 else (0,)", "return (v,) if v > 0 else (0,)",
     "both give (0,) for 0"),
    (LOOPS, "items.append(x if isinstance(x, int) and x >= 0 else 0)",
     "items.append(x if isinstance(x, int) and x > 0 else 0)",
     "both give 0 for 0"),
    (KERNEL, "elif type(x) is Symbol and env is not None \\\n"
             "                        and x.name in env[0]:",
     "elif False:",
     "eval looks a variable up in the innermost frame first"),
    (KERNEL, "target = (w.functions.get(name) or w.genops.get(name)\n"
             "                          or w.signatures.get(name))",
     "target = (w.signatures.get(name) or w.genops.get(name)\n"
     "                          or w.functions.get(name))",
     "Interp._check_fresh keeps the three tables' names distinct"),
    (STOBJS, "            if env is not None and pname in env[0]:",
     "            if False:",
     "eval looks the parent up in the innermost frame first"),
    (STOBJS, "if type(consumer) is Symbol and consumer.name in parents:",
     "if False:",
     "eval looks the consumer up in the written-back frame first"),
    (SEXPR, "return _scan(text) if '\"' in text else _split(text)",
     "return _scan(text)",
     "the token pattern cuts a text without a string as split does"),
    (SEXPR, 'if c in "+-." or c.isdecimal():',
     'if c in "+-." or c.isdigit():',
     "a digit that is not decimal cannot start an integer, ratio or "
     "float, so number() reads the token as the same symbol"),
    (SEXPR, "        self.atoms[token] = form\n", "        pass\n",
     "an atom token read again gives an equal symbol or integer"),
]

# Left out of each copy: version control, caches, benchmark output, and
# the test that every entry's text occurs once, which a mutated copy
# fails whatever the mutant does.
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                              ".pytest_cache", ".benchmarks", "out",
                              "test_mutants.py")


def mutated(tree, entry):
    """The text of entry's file in tree, with its one replacement."""
    path, old, new, _why = entry
    text = (Path(tree) / path).read_text()
    count = text.count(old)
    if count != 1:
        raise ValueError("%s: %r occurs %d times, not once"
                         % (path, old, count))
    return text.replace(old, new)


def run_suite(tree, timeout):
    """'passed', 'failed' or 'timed out', and the seconds it took; a
    timeout of None waits for the suite to end."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("STLISP_")}
    env["PYTHONPATH"] = str(Path(tree) / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out", time.monotonic() - start
    return ("passed" if code == 0 else "failed"), time.monotonic() - start


def check(entry, timeout):
    """run_suite on a fresh copy of the tree, with entry applied unless it
    is None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if entry is not None:
            (Path(tree) / entry[0]).write_text(mutated(tree, entry))
        return run_suite(tree, timeout)


def describe(entry):
    """The file and the first line where an entry's two texts differ,
    stripped; a text that has no such line shows as nothing."""
    path, old, new, _why = entry
    olds, news = old.splitlines(), new.splitlines()
    k = 0
    while k < len(olds) and k < len(news) and olds[k] == news[k]:
        k += 1
    first = [lines[k].strip() if k < len(lines) else ""
             for lines in (olds, news)]
    return "%s: %s -> %s" % (Path(path).name, first[0], first[1])


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)

    entries = [(e, False) for e in MUTANTS] + [(e, True) for e in EQUIVALENT]
    started = time.monotonic()
    try:
        for entry, _eq in entries:
            mutated(ROOT, entry)
    except ValueError as e:
        print("bad entry: %s" % e)
        return 2
    outcome, secs = check(None, None)
    timeout = max(FLOOR, SLOWDOWN * secs)
    print("unmutated  %6.1fs  %s; each mutant gets %.0fs"
          % (secs, outcome, timeout), flush=True)
    if outcome != "passed":
        return 2

    counts = {"killed": 0, "timed out": 0, "survived": 0, "equivalent": 0}
    wrong = []
    for entry, equivalent in entries:
        outcome, secs = check(entry, timeout)
        verdict = {"passed": "survived", "failed": "killed"}.get(outcome,
                                                                 outcome)
        if equivalent:
            if verdict == "survived":
                verdict = "equivalent"
            else:
                wrong.append(entry)
        elif verdict == "survived":
            wrong.append(entry)
        counts[verdict] += 1
        print("%-10s %6.1fs  %s" % (verdict, secs, describe(entry)),
              flush=True)
        if entry in wrong:
            print("           (%s)" % entry[3])
    print("%d mutants in %.0fs: %d killed, %d timed out, %d survived, "
          "%d equivalent (of %d listed)"
          % (len(entries), time.monotonic() - started, counts["killed"],
             counts["timed out"], counts["survived"], counts["equivalent"],
             sum(eq for _e, eq in entries)))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
