"""Constrained functions.

A signature introduces a function known only by shape; defattach binds
it to a defined function of the same shape.  The four scheduler
contracts the surrounding system relies on are checked dynamically:
sampled over randomized states by check_constraints, and on the actual
trajectory by the measure check on any function whose :measure calls
the constrained rank.

check_constraints checks the five signatures' _SHAPES once, against the
argument kinds it passes, and then runs each attachment directly: no
event runs while it samples, and defattach made each attached
definition's shape its signature's, so no per-call check could fire
there.  report_shape types the REPORT builtin from the same table.
"""

import random

from . import sexpr
from .errors import EvalError
from .sexpr import Cons, Symbol, intern, show, truthy
from .stobjs import _cons_args, _shape_str, list_items, target_shape

ARROW = intern("=>")
DEFTHM = intern("DEFTHM")
REPORT = "REPORT-COMPLETION-OR-ERROR-AND-RETURN"


class Signature:
    __slots__ = ("name", "inputs", "outputs")

    def __init__(self, name, inputs, outputs):
        self.name = name
        self.inputs = inputs
        self.outputs = outputs

    def attached(self, interp, form=None):
        """The FunctionDef that interp's world attaches to this function."""
        name = interp.world.attachments.get(self.name)
        if name is None:
            raise EvalError("constrained function %s has no attachment"
                            % self.name, form=form)
        return interp.world.functions[name]

    def run(self, interp, vals, form):
        return interp._call_defun(self.attached(interp, form), vals, form)


def _parse_slot(x, world, form, what):
    if isinstance(x, Symbol):
        if x.name == "*":
            return None
        if world.stobj_spec(x.name) is not None:
            return x.name
    raise EvalError("%s must be * or a defined stobj, got %s"
                    % (what, show(x)), form=form)


def parse_encapsulate(form, world):
    args = _cons_args(form, "encapsulate form")
    if not args:
        raise EvalError("encapsulate needs a signature list", form=form)
    sig_forms = list_items(args[0], "signature list", form)
    if not sig_forms:
        raise EvalError("encapsulate needs at least one signature",
                        form=form)
    for extra in args[1:]:
        # Exported theorems are accepted as documentation of the intended
        # contracts; they are not checked here (check-constraints samples
        # them dynamically instead).
        if not (isinstance(extra, Cons) and extra.car is DEFTHM):
            raise EvalError("only defthm forms may follow the signature "
                            "list, got %s" % show(extra), form=form)
    sigs = []
    seen = set()
    for sf in sig_forms:
        parts = list_items(sf, "signature", form)
        if len(parts) != 3 or parts[1] is not ARROW \
                or not isinstance(parts[0], Cons):
            raise EvalError("a signature looks like ((name arg ..) => out), "
                            "got %s" % show(sf), form=form)
        head = list_items(parts[0], "signature head", form)
        if not head or not isinstance(head[0], Symbol):
            raise EvalError("bad signature name in %s" % show(sf), form=form)
        name = head[0].name
        if name in seen:
            raise EvalError("duplicate signature %s" % name, form=form)
        seen.add(name)
        inputs = []
        for x in head[1:]:
            slot = _parse_slot(x, world, form, "a signature argument")
            if slot is not None and slot in inputs:
                raise EvalError("stobj %s appears twice in the signature of "
                                "%s" % (slot, name), form=form)
            inputs.append(slot)
        output = _parse_slot(parts[2], world, form, "a signature result")
        sigs.append(Signature(name, tuple(inputs), (output,)))
    return sigs


def parse_defattach(form, world):
    args = _cons_args(form, "defattach form")
    if len(args) != 2 or not all(isinstance(a, Symbol) for a in args):
        raise EvalError("defattach takes a signature name and a function "
                        "name", form=form)
    sig = world.signatures.get(args[0].name)
    if sig is None:
        raise EvalError("%s is not a constrained function" % args[0].name,
                        form=form)
    fd = world.functions.get(args[1].name)
    if fd is None:
        raise EvalError("%s is not a defined function" % args[1].name,
                        form=form)
    if fd.inputs != sig.inputs:
        raise EvalError(
            "cannot attach %s to %s: argument shapes differ (%s vs %s)"
            % (args[1].name, args[0].name, _shape_str(fd.inputs),
               _shape_str(sig.inputs)), form=form)
    if fd.outputs != sig.outputs:
        raise EvalError(
            "cannot attach %s to %s: result shapes differ (%s vs %s)"
            % (args[1].name, args[0].name, _shape_str(fd.outputs),
               _shape_str(sig.outputs)), form=form)
    return args[0].name, args[1].name


# Each scheduler function's (inputs, outputs), given the state's stobj s.
_SHAPES = {"PROC-IDS": lambda s: ((), (None,)),
           "PICK": lambda s: ((s,), (None,)),
           "READY": lambda s: ((None, s), (None,)),
           "EXEC": lambda s: ((None, s), (s,)),
           "RANK": lambda s: ((None, s), (None,))}


def report_shape(world, form):
    """(inputs, outputs) of REPORT, (* S) => (S), while PROC-IDS and RANK
    (no builtin's names) have their _SHAPES for the stobj S that RANK takes
    second, as report_completion calls them; else EvalError naming form."""
    ids, rank = world.target("PROC-IDS"), world.target("RANK")
    if ids is not None and rank is not None:
        inputs, outputs = target_shape(rank)
        s = inputs[-1] if inputs else None
        if s is not None and target_shape(ids) == _SHAPES["PROC-IDS"](s) \
                and (inputs, outputs) == _SHAPES["RANK"](s):
            return inputs, inputs[1:]
    raise EvalError("%s needs, for some stobj S, PROC-IDS with the shape "
                    "() => (*) and RANK with the shape (* S) => (*)"
                    % REPORT, form=form)


def report_completion(interp, args, form):
    """One-line run report: completion when every rank is zero, else a
    stopped-with-work-remaining diagnostic.  Returns the stobj unchanged.
    Admission gave PROC-IDS and RANK the shapes report_shape needs."""
    p, st = args
    target = interp.world.target
    rank = target("RANK")
    total = 0
    for pid in _proc_ids(interp, target("PROC-IDS"), form):
        r = interp._dispatch(rank, [pid, st], form)
        total += r if isinstance(r, int) and r >= 0 else 0
    if total == 0:
        interp.write_line("run complete: every rank is zero.")
    else:
        interp.write_line("run stopped: picked process %s is not ready; "
                          "total rank %d remains." % (show(p), total))
    return st


def _proc_ids(interp, target, form):
    return list_items(interp._dispatch(target, [], form),
                      "the PROC-IDS result", form)


_CONTRACTS = ("rank-is-natural", "pick-is-proc-id", "exec-no-interfere",
              "exec-rank-reduces")


class ConstraintReport:
    def __init__(self, seed, trials):
        self.seed = seed
        self.trials = trials
        self.checked = {c: 0 for c in _CONTRACTS}
        self.failure_count = {c: 0 for c in _CONTRACTS}
        self.failures = []

    def ok(self):
        return not self.failures

    def fail(self, contract, msg):
        self.failure_count[contract] += 1
        if len(self.failures) < 20:
            self.failures.append("%s: %s" % (contract, msg))

    def lines(self):
        out = ["check-constraints: %d trials, seed %d"
               % (self.trials, self.seed)]
        for c in _CONTRACTS:
            out.append("  %-18s checked %-6d failures %d"
                       % (c, self.checked[c], self.failure_count[c]))
        out.extend("  FAIL %s" % f for f in self.failures)
        out.append("result: %s" % ("PASS" if self.ok() else "FAIL"))
        return out

    def __str__(self):
        return "\n".join(self.lines())


def _nfix(v):
    return v if isinstance(v, int) and v >= 0 else 0


def check_constraints(interp, seed=0, trials=1000):
    """Sample the four scheduler contracts over randomized states."""
    world = interp.world
    exec_sig = world.signatures.get("EXEC")
    sname = exec_sig and next((s for s in exec_sig.inputs if s is not None),
                              None)
    attached = {}
    for name, shape in _SHAPES.items():
        sig = world.signatures.get(name)
        if sig is None:
            raise EvalError("check-constraints needs the %s signature" % name)
        attached[name] = sig.attached(interp)
        inputs, outputs = shape(sname)
        if sname and (sig.inputs, sig.outputs) != (inputs, outputs):
            raise EvalError("check-constraints needs %s to have the shape "
                            "%s => %s, not %s => %s"
                            % (name, _shape_str(inputs), _shape_str(outputs),
                               _shape_str(sig.inputs),
                               _shape_str(sig.outputs)))
    if sname is None:
        raise EvalError("the EXEC signature takes no stobj")
    # Every shape is known, so an attached definition may run now.
    call = interp._call_defun
    ids = _proc_ids(interp, attached["PROC-IDS"], None)
    if not ids:
        raise EvalError("PROC-IDS returned an empty list; nothing to check")
    spec = world.stobj_spec(sname)
    rng = random.Random(seed)
    pick, ready, exec_, rank = (attached[n] for n in
                                ("PICK", "READY", "EXEC", "RANK"))

    def pick_id():
        return ids[rng.randrange(len(ids))]

    def random_state():
        st = spec.fresh()
        for _ in range(rng.randrange(7)):
            st = call(exec_, [pick_id(), st], None)
        return st

    report = ConstraintReport(seed, trials)
    for trial in range(trials):
        p = pick_id()
        q = pick_id()

        st = random_state()
        r = call(rank, [p, st], None)
        report.checked["rank-is-natural"] += 1
        if not (isinstance(r, int) and r >= 0):
            report.fail("rank-is-natural",
                        "trial %d: (rank %s st) = %s with st = %s"
                        % (trial, show(p), show(r),
                           show(st.logical_view())))

        st = random_state()
        pk = call(pick, [st], None)
        report.checked["pick-is-proc-id"] += 1
        if not any(sexpr.equal(pk, i) for i in ids):
            report.fail("pick-is-proc-id",
                        "trial %d: (pick st) = %s is not a proc-id, st = %s"
                        % (trial, show(pk), show(st.logical_view())))

        st = random_state()
        before = _nfix(call(rank, [p, st], None))
        st2 = call(exec_, [q, st], None)
        after = _nfix(call(rank, [p, st2], None))
        report.checked["exec-no-interfere"] += 1
        if after > before and not sexpr.equal(p, q):
            report.fail("exec-no-interfere",
                        "trial %d: rank of %s rose from %d to %d across "
                        "(exec %s st)" % (trial, show(p), before, after,
                                          show(q)))

        st = random_state()
        if truthy(call(ready, [p, st], None)):
            before = _nfix(call(rank, [p, st], None))
            st2 = call(exec_, [p, st], None)
            after = _nfix(call(rank, [p, st2], None))
            report.checked["exec-rank-reduces"] += 1
            if not after < before:
                report.fail("exec-rank-reduces",
                            "trial %d: rank of %s went %d -> %d across its "
                            "own exec while ready" % (trial, show(p), before,
                                                      after))
    return report
