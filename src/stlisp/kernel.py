"""Evaluator core.

The world is an ordered log of definition events (defun, defstobj,
signature, defattach) plus registries derived from it; undo removes a
suffix of the log, rebuilds the registries, and retracts undone stobj
names from every table reachable from this session's stobj bank.
Evaluation is pure except through live stobj instances, and in logical
mode even those are copied on write.  Interp.mode is read only by
stobjs._write and _table, to write a stobj, and by loops.eval_loop.
"""

import sys

from . import loops, refinement, sexpr, stobjs, stobj_table
from .errors import EvalError, GuardViolation, MeasureViolation
from .sexpr import (NIL, T, Cons, MultiValue, Symbol, from_bool,
                    intern, show, truthy)
from .stobjs import (EVENT_HEADS, IF, LETSTAR, QUOTE, StobjInstance,
                     _cons_args, _one_body, arity_error, bindable,
                     generated_ops, list_items, target_shape)


class FunctionDef:
    __slots__ = ("name", "formals", "guard", "measure", "body", "inputs",
                 "outputs")

    def __init__(self, name, formals, inputs, outputs, guard, measure, body):
        self.name = name
        self.formals = formals    # names
        self.inputs = inputs      # per formal: its stobj name, or None
        self.outputs = outputs    # the shape the static check found
        self.guard = guard
        self.measure = measure
        self.body = body

    def run(self, interp, vals, form):
        return interp._call_defun(self, vals, form)


class Event:
    __slots__ = ("index", "kind", "name", "payload")

    def __init__(self, index, kind, name, payload):
        self.index = index
        self.kind = kind
        self.name = name
        self.payload = payload


class World:
    def __init__(self):
        self.events = []
        self.next_index = 1
        # Equal formals and shape tuples of defuns, kept once: many small
        # defuns would otherwise each hold their own copies.
        self.shapes = {}
        self.rebuild()

    def shared(self, shape):
        return self.shapes.setdefault(shape, shape)

    def stobj_spec(self, name):
        return self.stobjs.get(name)

    def target(self, name):
        """The FunctionDef, GeneratedOp, Signature or Builtin named name,
        or None.  Interp._check_fresh keeps these names distinct.
        Interp.eval writes this lookup out, finding builtins in _SPECIAL."""
        return (self.functions.get(name) or self.genops.get(name)
                or self.signatures.get(name) or BUILTINS.get(name))

    def callee(self, name, nargs, form=None):
        """(target, inputs, outputs) of a callable, checking arity.

        The target is as for target().  Raises EvalError naming form for
        unknown names, wrong argument counts, and a call of
        REPORT-COMPLETION-OR-ERROR-AND-RETURN while the functions it
        calls lack its shapes (see refinement.report_shape).
        """
        target = self.target(name)
        if target is None:
            raise EvalError("undefined function %s" % name, form=form)
        if type(target) is Builtin:
            lo, hi = target.min_args, target.max_args
            inputs, outputs = (None,) * nargs, target.outputs
        else:
            inputs, outputs = target_shape(target)
            lo = hi = len(inputs)
        if nargs < lo or (hi is not None and nargs > hi):
            arity_error(name, nargs, lo, hi, form)
        if name == refinement.REPORT:
            inputs, outputs = refinement.report_shape(self, form)
        return target, inputs, outputs

    def add_event(self, kind, name, payload):
        ev = Event(self.next_index, kind, name, payload)
        self.next_index += 1
        self.events.append(ev)
        self.register(ev)
        return ev.index

    def register(self, ev):
        if ev.kind == "defun":
            self.functions[ev.name] = ev.payload
        elif ev.kind == "defstobj":
            spec = ev.payload
            self.stobjs[spec.name] = spec
            for op in generated_ops(spec):
                self.genops[op.name] = op
        elif ev.kind == "signature":
            for sig in ev.payload:
                self.signatures[sig.name] = sig
        elif ev.kind == "defattach":
            self.attachments[ev.name] = ev.payload

    def rebuild(self):
        self.functions = {}
        self.genops = {}
        self.stobjs = {}
        self.signatures = {}
        self.attachments = {}
        for ev in self.events:
            self.register(ev)


### builtins

class Builtin:
    __slots__ = ("name", "min_args", "max_args", "run")
    outputs = (None,)

    def __init__(self, name, min_args, max_args, run):
        self.name = name
        self.min_args = min_args
        self.max_args = max_args
        self.run = run


def _guard(interp, form, fmt, *values):
    """A builtin's precondition failed: raise unless guards are off.
    Callers test the precondition, so a passing check formats nothing."""
    if interp.guard_check:
        raise GuardViolation("guard violation in %s: %s"
                             % (show(form), fmt % tuple(map(show, values))),
                             form=form)


def _the_ints(interp, form, args):
    for a in args:
        if not isinstance(a, int):
            _guard(interp, form, "%s is not an integer", a)
            return [x if isinstance(x, int) else 0 for x in args]
    return args


def _bi_car(interp, args, form):
    x = args[0]
    if isinstance(x, Cons):
        return x.car
    if x is not NIL:
        _guard(interp, form, "%s is neither a cons nor NIL", x)
    return NIL


def _bi_cdr(interp, args, form):
    x = args[0]
    if isinstance(x, Cons):
        return x.cdr
    if x is not NIL:
        _guard(interp, form, "%s is neither a cons nor NIL", x)
    return NIL


def _bi_cons(interp, args, form):
    return Cons(args[0], args[1])


def _bi_consp(interp, args, form):
    return from_bool(isinstance(args[0], Cons))


def _bi_add(interp, args, form):
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            return a + b
    return sum(_the_ints(interp, form, args))


def _bi_sub(interp, args, form):
    vals = _the_ints(interp, form, args)
    if len(vals) == 1:
        return -vals[0]
    return vals[0] - vals[1]


def _bi_mul(interp, args, form):
    out = 1
    for v in _the_ints(interp, form, args):
        out *= v
    return out


def _bi_add1(interp, args, form):
    x = args[0]
    return (x if type(x) is int else _the_ints(interp, form, args)[0]) + 1


def _bi_sub1(interp, args, form):
    x = args[0]
    return (x if type(x) is int else _the_ints(interp, form, args)[0]) - 1


def _bi_lt(interp, args, form):
    a, b = args
    if type(a) is not int or type(b) is not int:
        a, b = _the_ints(interp, form, args)
    return T if a < b else NIL


def _bi_le(interp, args, form):
    a, b = args
    if type(a) is not int or type(b) is not int:
        a, b = _the_ints(interp, form, args)
    return T if a <= b else NIL


def _bi_numeq(interp, args, form):
    a, b = args
    if type(a) is not int or type(b) is not int:
        a, b = _the_ints(interp, form, args)
    return T if a == b else NIL


def _bi_not(interp, args, form):
    return from_bool(args[0] is NIL)


def _bi_eq(interp, args, form):
    a, b = args
    # Symbols are interned, so a symbol is EQUAL only to itself.
    if type(a) is Symbol or type(b) is Symbol:
        return T if a is b else NIL
    _guard(interp, form, "EQ needs a symbol argument")
    return from_bool(sexpr.equal(a, b))


def _bi_equal(interp, args, form):
    return from_bool(sexpr.equal(args[0], args[1]))


def _bi_natp(interp, args, form):
    x = args[0]
    return from_bool(isinstance(x, int) and x >= 0)


def _bi_nfix(interp, args, form):
    x = args[0]
    return x if isinstance(x, int) and x >= 0 else 0


def _bi_zp(interp, args, form):
    x = args[0]
    if isinstance(x, int) and x >= 0:
        return T if x == 0 else NIL
    _guard(interp, form, "%s is not a natural number", x)
    return T


def _bi_len(interp, args, form):
    return sexpr.list_length(args[0])


def _bi_member_equal(interp, args, form):
    x, lst = args
    while isinstance(lst, Cons):
        if sexpr.equal(lst.car, x):
            return lst
        lst = lst.cdr
    return NIL


def _bi_true_list_fix(interp, args, form):
    items = list(sexpr.iter_conses(args[0]))
    return sexpr.from_pylist(items)


def _bi_hons_assoc_equal(interp, args, form):
    key, alist = args
    for entry in sexpr.iter_conses(alist):
        if isinstance(entry, Cons) and sexpr.equal(entry.car, key):
            return entry
    return NIL


def _bi_apply(interp, args, form):
    fn, arglist = args
    call_args = list_items(arglist, "apply$ argument list", form)
    if not isinstance(fn, Symbol):
        return interp.apply_lambda(fn, call_args, form=form)
    target, inputs, outputs = interp.world.callee(fn.name, len(call_args),
                                                  form)
    # The badge: admission cannot see which function a symbol names, so
    # APPLY$ calls only one that takes ordinary values and returns one.
    if outputs != (None,) or any(slot is not None for slot in inputs):
        raise EvalError("APPLY$ calls only a function of ordinary arguments "
                        "that returns one ordinary value, not %s" % fn.name,
                        form=form)
    return interp._dispatch(target, call_args, form)


BUILTINS = {}
for _name, _lo, _hi, _fn in [
        ("CAR", 1, 1, _bi_car), ("CDR", 1, 1, _bi_cdr),
        ("CONS", 2, 2, _bi_cons), ("CONSP", 1, 1, _bi_consp),
        ("+", 0, None, _bi_add), ("-", 1, 2, _bi_sub),
        ("*", 0, None, _bi_mul), ("1+", 1, 1, _bi_add1),
        ("1-", 1, 1, _bi_sub1), ("<", 2, 2, _bi_lt),
        ("<=", 2, 2, _bi_le), ("=", 2, 2, _bi_numeq),
        ("NOT", 1, 1, _bi_not), ("EQ", 2, 2, _bi_eq),
        ("EQUAL", 2, 2, _bi_equal), ("NATP", 1, 1, _bi_natp),
        ("NFIX", 1, 1, _bi_nfix), ("ZP", 1, 1, _bi_zp),
        ("LEN", 1, 1, _bi_len), ("MEMBER-EQUAL", 2, 2, _bi_member_equal),
        ("TRUE-LIST-FIX", 1, 1, _bi_true_list_fix),
        ("HONS-ASSOC-EQUAL", 2, 2, _bi_hons_assoc_equal),
        ("ASSOC-EQ-SAFE", 2, 2, _bi_hons_assoc_equal),
        ("APPLY$", 2, 2, _bi_apply),
        (refinement.REPORT, 2, 2, refinement.report_completion)]:
    BUILTINS[_name] = Builtin(_name, _lo, _hi, _fn)


### special forms

LAMBDA = intern("LAMBDA")


def _sf_quote(interp, form, env):
    return form.cdr.car


def _sf_let(interp, form, env):
    """LET and LET*: one frame.  A LET right-hand side runs in env; a
    LET* one runs in the frame as it fills, so it sees the bindings
    before it, as a WITH init does (loops.initial_bindings)."""
    bindings, rest = form.cdr.car, form.cdr.cdr
    frame = {}
    inner = (frame, env)
    scope = inner if form.car is LETSTAR else env
    while bindings is not NIL:
        b = bindings.car
        frame[b.car.name] = interp.eval(b.cdr.car, scope)
        bindings = bindings.cdr
    # an admitted LET's last form is its body, so only a LET with a
    # declare has more than one
    return interp.eval(rest.car if rest.cdr is NIL else _one_body(rest),
                       inner)


def _sf_mv(interp, form, env):
    return MultiValue([interp.eval(x, env)
                       for x in sexpr.iter_conses(form.cdr)])


def _sf_mv_let(interp, form, env):
    vars_, rest = form.cdr.car, form.cdr.cdr
    frame = {}
    for v in interp.eval(rest.car, env).values:
        frame[vars_.car.name] = v
        vars_ = vars_.cdr
    body = rest.cdr
    return interp.eval(body.car if body.cdr is NIL else _one_body(body),
                       (frame, env))


# Looks stobjs.eval_stobj_let up on each call, so bench/tracer.py can wrap it.
def _sf_stobj_let(interp, form, env):
    return stobjs.eval_stobj_let(interp, form, env)


# Each special form's handler but IF's (Interp.eval runs IF itself) and
# each builtin's Builtin, so such a head is found in one lookup, without
# World.target.  Interp._check_fresh keeps every event from binding one
# of these names, so no head found here is shadowed.  No handler checks
# its form, since admission did (see Interp.eval): each reads it in place.
_SPECIAL = {
    "QUOTE": _sf_quote, "LET": _sf_let, "LET*": _sf_let,
    "MV": _sf_mv, "MV-LET": _sf_mv_let, "LOOP$": loops.eval_loop,
    "STOBJ-LET": _sf_stobj_let,
}
_SPECIAL.update(BUILTINS)

# Names no event may define: the heads that admission or Interp.eval reads
# before any callee, and the constants NIL and T (keywords by their colon).
_RESERVED = frozenset(_SPECIAL).union(("IF", "DECLARE", "NIL", "T"),
                                      stobjs.DO_ONLY_HEADS, EVENT_HEADS)


### the interpreter

DEFAULT_CAP = 10_000_000    # native DO iterations before CapExceeded


class Interp:
    def __init__(self, mode="logical", guard_check=True, cap=None,
                 out=None, trace=False):
        if mode not in ("logical", "native"):
            raise ValueError("mode must be 'logical' or 'native'")
        self.mode = mode
        self.guard_check = guard_check
        self.cap = DEFAULT_CAP if cap is None else cap
        self.out = out
        self.trace = trace
        self.world = World()
        self.bank = {}
        # Logical DO loops only: one (kind, alist, exit triple) per walk
        # of a DO ("do") or FINALLY ("finally") statement tree, and the
        # lex-fixed measure entering each DO walk.
        self.do_trace = []
        self.loop_measures = []
        self.fn_measures = {}     # fn name -> entry measures, when tracing
        self._measure_stack = {}

    def write_line(self, text):
        (self.out or sys.stdout).write(text + "\n")

    ### evaluation

    def eval_top(self, form):
        try:
            if isinstance(form, Cons) and isinstance(form.car, Symbol) \
                    and form.car.name in EVENT_HEADS:
                return self._event(form)
            # the bank's stobjs are the form's formals, each its own input
            names = tuple(self.bank)
            stobjs.admit(self.world, form, names, names, "this top-level form")
            val = self.eval(form, None)
        except RecursionError:
            raise EvalError("nesting too deep: evaluation exceeded Python's "
                            "recursion limit of %d" % sys.getrecursionlimit(),
                            form=form) from None
        self.latch(val)
        return val

    def eval_text(self, text):
        return [(f, self.eval_top(f)) for f in sexpr.read_all(text)]

    def eval(self, form, env=None):
        """The value of form in env.

        Precondition: form was admitted by stobjs.admit, as a top-level
        form by eval_top, as part of a defun, or as the body of an APPLY$
        lambda.  Admission is the only check of single-threadedness, of
        value shapes, of each call's argument list and arity, and of each
        special form's shape, so form is not checked again here.  An IF
        goes on with its branch in this frame, and one argument loop
        serves every call, each target then running itself.
        """
        # Dispatch on the exact type, calls first: no class derives from
        # Cons, Symbol or int.
        kind = type(form)
        while kind is Cons:
            head = form.car
            if head is IF:
                rest = form.cdr
                if self.eval(rest.car, env) is NIL:
                    rest = rest.cdr
                    if rest.cdr is NIL:
                        return NIL
                form = rest.cdr.car
                kind = type(form)
                continue
            name = head.name
            target = _SPECIAL.get(name)
            if target is None:
                # World.target without its frame: builtins are in _SPECIAL.
                w = self.world
                target = (w.functions.get(name) or w.genops.get(name)
                          or w.signatures.get(name))
                if target is None:
                    w.callee(name, 0, form)  # raises: undefined
            elif type(target) is not Builtin:
                return target(self, form, env)
            vals = []
            node = form.cdr
            while node is not NIL:
                x = node.car
                # An integer leaf, a variable of the innermost frame, or a
                # quoted form is read here, saving a call of eval.
                if type(x) is int:
                    vals.append(x)
                elif type(x) is Symbol and env is not None \
                        and x.name in env[0]:
                    vals.append(env[0][x.name])
                elif type(x) is Cons and x.car is QUOTE:
                    vals.append(x.cdr.car)
                else:
                    vals.append(self.eval(x, env))
                node = node.cdr
            return target.run(self, vals, form)
        if kind is Symbol:
            # NIL, T and keywords are never bound (see stobjs.bindable),
            # so variables are looked up first.
            name = form.name
            e = env
            while e is not None:
                frame, e = e
                if name in frame:
                    return frame[name]
            if form is NIL or form is T or name[:1] == ":":
                return form
            inst = self.bank.get(name)
            if inst is not None:
                return inst
            raise EvalError("unbound variable %s" % name, form=form)
        if isinstance(form, (int, str)):
            return form
        raise EvalError("cannot evaluate host object %r" % (form,))

    def _dispatch(self, target, vals, form):
        """A call on evaluated values: from APPLY$, REPORT and the sampler."""
        return target.run(self, vals, form)

    def _call_defun(self, fd, vals, form):
        # An index loop that fills {} costs less than half of a zip loop
        # that fills it, and a third of dict(zip(..)).
        frame = {}
        i = 0
        for name in fd.formals:
            frame[name] = vals[i]
            i += 1
        env = (frame, None)
        if fd.guard is not None and self.guard_check:
            if not truthy(self.eval(fd.guard, env)):
                raise GuardViolation(
                    "guard violation calling %s: :guard %s failed"
                    % (fd.name, show(fd.guard)), form=form)
        if fd.measure is None:
            return self.eval(fd.body, env)
        m = loops.lex_fix(self.eval(fd.measure, env))
        stack = self._measure_stack.setdefault(fd.name, [])
        if stack and not loops.l_less(m, stack[-1]):
            raise MeasureViolation(
                "measure of %s failed to decrease: %s is not below %s"
                % (fd.name, loops.lex_show(m), loops.lex_show(stack[-1])),
                form=form)
        if self.trace:
            self.fn_measures.setdefault(fd.name, []).append(m)
        stack.append(m)
        try:
            return self.eval(fd.body, env)
        finally:
            stack.pop()

    def apply_lambda(self, fn, args, form=None):
        parts = list_items(fn, "function object", form) \
            if isinstance(fn, Cons) else None
        if not parts or len(parts) != 3 or parts[0] is not LAMBDA:
            raise EvalError("not a function object: %s" % show(fn), form=form)
        names = _formal_names(parts[1], "lambda", "this lambda", form)
        if len(names) != len(args):
            arity_error("lambda", len(args), len(names), len(names), form)
        # A function object takes no stobj, so none is live in its body.
        stobjs.admit(self.world, parts[2], names, (None,) * len(names),
                     "this lambda", want="a lambda body")
        return self.eval(parts[2], (dict(zip(names, args)), None))

    ### stobj plumbing

    def latch(self, val):
        items = val.values if isinstance(val, MultiValue) else (val,)
        for item in items:
            if isinstance(item, StobjInstance):
                self.bank[item.spec.name] = item

    ### events

    def _event(self, form):
        kind = form.car.name
        if kind == "DEFUN":
            return self._defun(form)
        if kind == "DEFSTOBJ":
            return self._defstobj(form)
        if kind == "ENCAPSULATE":
            return self._encapsulate(form)
        return self._defattach(form)

    def _check_fresh(self, name, form):
        w = self.world
        if (name in _RESERVED or name[:1] == ":" or name in w.functions
                or name in w.genops or name in w.signatures
                or name in w.stobjs):
            raise EvalError("the name %s is already in use" % name, form=form)

    def _defun(self, form):
        a = _cons_args(form, "defun form")
        if len(a) < 3 or not isinstance(a[0], Symbol):
            raise EvalError("defun takes a name, formals, and a body",
                            form=form)
        name = a[0].name
        fnames = _formal_names(a[1], "defun", "defun " + name, form)
        guard = measure = None
        stobjs_in = []
        body_forms = []
        for x in a[2:]:
            if stobjs._is_declare(x):
                g, m, s = self._parse_declare(x, name)
                guard = g if g is not None else guard
                measure = m if m is not None else measure
                stobjs_in.extend(s)
            else:
                body_forms.append(x)
        if len(body_forms) != 1:
            raise EvalError("defun %s needs exactly one body form" % name,
                            form=form)
        self._check_fresh(name, form)
        for s in stobjs_in:
            if self.world.stobj_spec(s) is None:
                raise EvalError("xargs :stobjs names %s, which is not a "
                                "defined stobj" % s, form=form)
            if s not in fnames:
                raise EvalError("declared stobj %s is not a formal of %s"
                                % (s, name), form=form)
        for f in fnames:
            if f not in stobjs_in and self.world.stobj_spec(f) is not None:
                raise EvalError(
                    "the formal %s of %s is the name of a stobj; declare it "
                    "with (declare (xargs :stobjs (%s)))" % (f, name, f),
                    form=form)
        inputs = tuple(f if f in stobjs_in else None for f in fnames)
        outputs = stobjs.admit(self.world, body_forms[0], fnames,
                               inputs, name=name, guard=guard,
                               measure=measure)
        shared = self.world.shared
        fd = FunctionDef(name, shared(tuple(fnames)), shared(inputs),
                         shared(outputs), guard, measure, body_forms[0])
        self.world.add_event("defun", name, fd)
        return intern(name)

    def _parse_declare(self, form, fname):
        guard = measure = None
        stobjs_in = []
        for clause in _cons_args(form, "declare clauses"):
            if not (isinstance(clause, Cons) and isinstance(clause.car,
                                                            Symbol)):
                raise EvalError("malformed declare clause %s" % show(clause),
                                form=form)
            cname = clause.car.name
            if cname != "XARGS":
                self.write_line("; note: ignoring declare clause %s in %s"
                                % (cname, fname))
                continue
            items = _cons_args(clause, "xargs")
            if len(items) % 2 != 0:
                raise EvalError("xargs expects keyword/value pairs", form=form)
            for key, val in zip(items[::2], items[1::2]):
                if not sexpr.is_keyword(key):
                    raise EvalError("xargs expects keywords, got %s"
                                    % show(key), form=form)
                if key.name == ":GUARD":
                    guard = val
                elif key.name == ":MEASURE":
                    measure = val
                elif key.name == ":STOBJS":
                    if isinstance(val, Symbol) and val is not NIL:
                        stobjs_in.append(val.name)
                    else:
                        for s in list_items(val, ":stobjs", form):
                            if not isinstance(s, Symbol):
                                raise EvalError(":stobjs names must be "
                                                "symbols", form=form)
                            stobjs_in.append(s.name)
                else:
                    self.write_line("; note: ignoring xargs %s in %s"
                                    % (key.name, fname))
        return guard, measure, stobjs_in

    def _defstobj(self, form):
        spec = stobjs.parse_defstobj(form)
        self._check_fresh(spec.name, form)
        for op in generated_ops(spec):
            self._check_fresh(op.name, form)
        self.world.add_event("defstobj", spec.name, spec)
        self.bank[spec.name] = spec.fresh()
        return intern(spec.name)

    def _encapsulate(self, form):
        sigs = refinement.parse_encapsulate(form, self.world)
        for sig in sigs:
            self._check_fresh(sig.name, form)
        self.world.add_event("signature",
                             " ".join(s.name for s in sigs), sigs)
        return T

    def _defattach(self, form):
        name, target = refinement.parse_defattach(form, self.world)
        self.world.add_event("defattach", name, target)
        return T

    ### undo

    def undo(self, index):
        if not any(ev.index == index for ev in self.world.events):
            raise EvalError("no event has index %d" % index)
        keep = [ev for ev in self.world.events if ev.index < index]
        cut = [ev for ev in self.world.events if ev.index >= index]
        self.world.events = keep
        self.world.rebuild()
        undone = [ev.name for ev in cut if ev.kind == "defstobj"
                  and ev.name not in self.world.stobjs]
        for name in undone:
            self.bank.pop(name, None)
        stobj_table.retract(self.bank.values(), undone)
        return len(cut)


def _formal_names(formals, what, owner, form):
    """The names of a defun's or a lambda's formals: symbols that may be
    bound, none twice."""
    items = list_items(formals, what + " formals", form)
    if not all(isinstance(f, Symbol) for f in items):
        raise EvalError("%s formals must be symbols" % what, form=form)
    names = [bindable(f, what + " formal", form).name for f in items]
    if len(set(names)) != len(names):
        raise EvalError("duplicate formal in %s" % owner, form=form)
    return names

