"""Evaluator core.

The world is an ordered log of definition events (defun, defstobj,
signature, defattach) plus registries derived from it; undo removes a
suffix of the log, rebuilds the registries, and retracts undone stobj
names from every table reachable from this session's stobj bank.
Evaluation is pure except through live stobj instances, and in logical
mode even those are copied on write.
"""

import sys

from . import loops, refinement, sexpr, stobjs, stobj_table
from .errors import (EvalError, GuardViolation, LinearityError,
                     MeasureViolation)
from .sexpr import (NIL, T, Cons, MultiValue, Symbol, from_bool, intern,
                    is_keyword, show, truthy)
from .stobjs import (DO_ONLY_HEADS, EVENT_HEADS, FOLLOW, POLY, UNKNOWN,
                     GeneratedOp, Poison, StobjInstance, _cons_args,
                     generated_ops, if_parts, let_parts, list_items,
                     mv_let_parts, mv_parts, op_shape, quote_parts)


class Env:
    """Chained lexical scope.  Frames are never mutated after binding,
    except the native loop executor's slots frame, which owns its dict."""

    __slots__ = ("vars", "parent")

    def __init__(self, vars, parent=None):
        self.vars = vars
        self.parent = parent


class FunctionDef:
    __slots__ = ("name", "formals", "stobjs_in", "guard", "measure", "body",
                 "inputs", "out_shape")

    def __init__(self, name, formals, stobjs_in, guard, measure, body):
        self.name = name
        self.formals = tuple(formals)
        self.stobjs_in = tuple(stobjs_in)
        self.guard = guard
        self.measure = measure
        self.body = body
        self.inputs = tuple(f if f in self.stobjs_in else None
                            for f in self.formals)
        self.out_shape = None  # filled in after the static check


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
        self.functions = {}
        self.genops = {}
        self.stobjs = {}
        self.signatures = {}
        self.attachments = {}

    def stobj_spec(self, name):
        return self.stobjs.get(name)

    def generated_op(self, name):
        return self.genops.get(name)

    def name_taken(self, name):
        return (name in self.functions or name in self.genops
                or name in self.signatures or name in BUILTINS)

    def shape_of(self, name, nargs):
        """(inputs, outputs) of a callable, checking arity.

        Raises EvalError for unknown names or wrong argument counts.
        """
        fd = self.functions.get(name)
        if fd is not None:
            _check_arity(name, nargs, len(fd.inputs), len(fd.inputs))
            return fd.inputs, fd.out_shape
        op = self.genops.get(name)
        if op is not None:
            ins, outs = op_shape(op)
            _check_arity(name, nargs, len(ins), len(ins))
            return ins, outs
        sig = self.signatures.get(name)
        if sig is not None:
            _check_arity(name, nargs, len(sig.inputs), len(sig.inputs))
            return sig.inputs, (sig.output,)
        b = BUILTINS.get(name)
        if b is not None:
            _check_arity(name, nargs, b.min_args, b.max_args)
            if b.poly_stobj:
                return (None, POLY), (FOLLOW,)
            return (None,) * nargs, (None,)
        raise EvalError("undefined function %s" % name)

    def add_event(self, kind, name, payload):
        ev = Event(self.next_index, kind, name, payload)
        self.next_index += 1
        self.events.append(ev)
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


def _check_arity(name, got, lo, hi):
    if got < lo or (hi is not None and got > hi):
        if hi == lo:
            want = str(lo)
        elif hi is None:
            want = "at least %d" % lo
        else:
            want = "%d to %d" % (lo, hi)
        raise EvalError("%s takes %s argument%s, got %d"
                        % (name, want, "" if want == "1" else "s", got))


### builtins

class Builtin:
    __slots__ = ("name", "min_args", "max_args", "fn", "poly_stobj")

    def __init__(self, name, min_args, max_args, fn, poly_stobj=False):
        self.name = name
        self.min_args = min_args
        self.max_args = max_args
        self.fn = fn
        self.poly_stobj = poly_stobj


def _guard(interp, form, ok, msg):
    if interp.guard_check and not ok:
        raise GuardViolation("guard violation in %s: %s" % (show(form), msg),
                             form=form)


def _the_ints(interp, form, args):
    out = []
    for a in args:
        _guard(interp, form, isinstance(a, int),
               "%s is not an integer" % show(a))
        out.append(a if isinstance(a, int) else 0)
    return out


def _bi_car(interp, args, form):
    x = args[0]
    if isinstance(x, Cons):
        return x.car
    _guard(interp, form, x is NIL, "%s is neither a cons nor NIL" % show(x))
    return NIL


def _bi_cdr(interp, args, form):
    x = args[0]
    if isinstance(x, Cons):
        return x.cdr
    _guard(interp, form, x is NIL, "%s is neither a cons nor NIL" % show(x))
    return NIL


def _bi_cons(interp, args, form):
    return Cons(args[0], args[1])


def _bi_consp(interp, args, form):
    return from_bool(isinstance(args[0], Cons))


def _bi_add(interp, args, form):
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
    return _the_ints(interp, form, args)[0] + 1


def _bi_sub1(interp, args, form):
    return _the_ints(interp, form, args)[0] - 1


def _bi_lt(interp, args, form):
    a, b = _the_ints(interp, form, args)
    return from_bool(a < b)


def _bi_le(interp, args, form):
    a, b = _the_ints(interp, form, args)
    return from_bool(a <= b)


def _bi_numeq(interp, args, form):
    a, b = _the_ints(interp, form, args)
    return from_bool(a == b)


def _bi_not(interp, args, form):
    return from_bool(args[0] is NIL)


def _bi_eq(interp, args, form):
    a, b = args
    _guard(interp, form,
           isinstance(a, Symbol) or isinstance(b, Symbol),
           "EQ needs a symbol argument")
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
    natural = isinstance(x, int) and x >= 0
    _guard(interp, form, natural, "%s is not a natural number" % show(x))
    if not natural:
        return T
    return from_bool(x == 0)


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


def _bi_assoc_eq_safe(interp, args, form):
    key, alist = args
    for entry in sexpr.iter_conses(alist):
        if isinstance(entry, Cons):
            if entry.car is key or sexpr.equal(entry.car, key):
                return entry
    return NIL


def _bi_apply(interp, args, form):
    fn, arglist = args
    call_args = list_items(arglist, "apply$ argument list", form)
    if isinstance(fn, Symbol):
        return interp.call(fn.name, call_args, form=form)
    return interp.apply_lambda(fn, call_args, form=form)


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
        ("ASSOC-EQ-SAFE", 2, 2, _bi_assoc_eq_safe),
        ("APPLY$", 2, 2, _bi_apply)]:
    BUILTINS[_name] = Builtin(_name, _lo, _hi, _fn)

BUILTINS["REPORT-COMPLETION-OR-ERROR-AND-RETURN"] = Builtin(
    "REPORT-COMPLETION-OR-ERROR-AND-RETURN", 2, 2,
    refinement.report_completion, poly_stobj=True)


### special forms

LAMBDA = intern("LAMBDA")


def _sf_quote(interp, form, env):
    return quote_parts(form)


def _sf_if(interp, form, env):
    a = if_parts(form)
    test = interp.eval(a[0], env)
    _value_check(test, "an IF test", form)
    if truthy(test):
        return interp.eval(a[1], env)
    if len(a) == 3:
        return interp.eval(a[2], env)
    return NIL


def _value_check(v, what, form):
    if isinstance(v, MultiValue):
        raise EvalError("multiple values are not a single value in %s" % what,
                        form=form)
    if isinstance(v, StobjInstance):
        raise EvalError("stobj %s may not appear in %s" % (v.spec.name, what),
                        form=form)


def _sf_let(interp, form, env):
    pairs, body = let_parts(form)
    frame = {}
    for var, rhs in pairs:
        val = interp.eval(rhs, env)
        interp.check_binding(var.name, val, form)
        frame[var.name] = val
    return interp.eval(body, Env(frame, env))


def _sf_letstar(interp, form, env):
    pairs, body = let_parts(form)
    cur = env
    for var, rhs in pairs:
        val = interp.eval(rhs, cur)
        interp.check_binding(var.name, val, form)
        cur = Env({var.name: val}, cur)
    return interp.eval(body, cur)


def _sf_mv(interp, form, env):
    vals = []
    for x in mv_parts(form):
        v = interp.eval(x, env)
        if isinstance(v, MultiValue):
            raise EvalError("multiple values are not a single MV component",
                            form=form)
        vals.append(v)
    return MultiValue(vals)


def _sf_mv_let(interp, form, env):
    vars_, rhs, body = mv_let_parts(form)
    val = interp.eval(rhs, env)
    if not isinstance(val, MultiValue) or len(val.values) != len(vars_):
        raise EvalError("MV-LET expected %d values from %s"
                        % (len(vars_), show(rhs)), form=form)
    frame = {}
    for var, v in zip(vars_, val.values):
        interp.check_binding(var.name, v, form)
        frame[var.name] = v
    return interp.eval(body, Env(frame, env))


def _sf_loop(interp, form, env):
    return loops.eval_loop(interp, form, env)


def _sf_stobj_let(interp, form, env):
    return stobjs.eval_stobj_let(interp, form, env)


_SPECIAL = {
    "QUOTE": _sf_quote, "IF": _sf_if, "LET": _sf_let, "LET*": _sf_letstar,
    "MV": _sf_mv, "MV-LET": _sf_mv_let, "LOOP$": _sf_loop,
    "STOBJ-LET": _sf_stobj_let,
}


### the interpreter

class Interp:
    def __init__(self, mode="logical", guard_check=True, cap=10_000_000,
                 out=None, trace=False):
        if mode not in ("logical", "native"):
            raise ValueError("mode must be 'logical' or 'native'")
        self.mode = mode
        self.guard_check = guard_check
        self.cap = cap
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

    def in_place(self):
        return self.mode == "native"

    def write_line(self, text):
        (self.out or sys.stdout).write(text + "\n")

    ### evaluation

    def eval_top(self, form):
        if isinstance(form, Cons) and isinstance(form.car, Symbol) \
                and form.car.name in EVENT_HEADS:
            return self._event(form)
        self._check(form, {name: name for name in self.bank}, set(),
                    "this top-level form")
        val = self.eval(form, None)
        self.latch(val)
        return val

    def _check(self, form, live, bound, what):
        """Single-threadedness check for a top-level form or a lambda body.

        Same rules as a defun body, over the given live stobjs and bound
        names.  An update whose result never reaches the top of the form
        would be kept by in-place execution and lost by logical
        execution, so such forms are rejected before either mode runs them.
        """
        analyzer = stobjs.Analyzer(self.world, None, (), stobjs.UNKNOWN,
                                   raise_call_errors=True)
        analyzer.analyze(form, live, bound, tail=True)
        if analyzer.violations:
            raise LinearityError(what, analyzer.violations)

    def eval_text(self, text):
        return [(f, self.eval_top(f)) for f in sexpr.read_all(text)]

    def eval(self, form, env=None):
        if isinstance(form, Symbol):
            if form is NIL or form is T or is_keyword(form):
                return form
            e = env
            while e is not None:
                if form.name in e.vars:
                    v = e.vars[form.name]
                    if isinstance(v, Poison):
                        raise EvalError(v.reason, form=form)
                    return v
                e = e.parent
            inst = self.bank.get(form.name)
            if inst is not None:
                return inst
            raise EvalError("unbound variable %s" % form.name, form=form)
        if isinstance(form, (int, str)):
            return form
        if not isinstance(form, Cons):
            raise EvalError("cannot evaluate host object %r" % (form,))
        head = form.car
        if not isinstance(head, Symbol):
            raise EvalError("call head must be a symbol in %s" % show(form),
                            form=form)
        handler = _SPECIAL.get(head.name)
        if handler is not None:
            return handler(self, form, env)
        if head.name in EVENT_HEADS:
            raise EvalError("%s is only legal at the top level" % head.name,
                            form=form)
        if head.name in DO_ONLY_HEADS:
            raise EvalError("%s is legal only inside DO and FINALLY bodies"
                            % head.name, form=form)
        return self._eval_call(form, env)

    def _eval_call(self, form, env):
        name = form.car.name
        arg_forms = _cons_args(form)
        op = self.world.genops.get(name)
        if op is not None and op.kind in ("create", "tbl-get", "tbl-put"):
            # Blocked before argument evaluation: a tbl-get default must
            # not run outside stobj-let.
            stobjs.apply_generated(self, op, [], form)
        inputs, _outputs = self._shape(name, len(arg_forms), form)
        vals = []
        for aform, slot in zip(arg_forms, inputs):
            v = self.eval(aform, env)
            _slot_check(name, slot, v, form)
            vals.append(v)
        return self._dispatch(name, vals, form)

    def call(self, name, args, form=None):
        """Apply a named function to already-evaluated arguments."""
        inputs, _outputs = self._shape(name, len(args), form)
        for slot, v in zip(inputs, args):
            _slot_check(name, slot, v, form)
        return self._dispatch(name, list(args), form)

    def _shape(self, name, nargs, form):
        try:
            return self.world.shape_of(name, nargs)
        except EvalError as e:
            raise EvalError(e.message, form=form)

    def _dispatch(self, name, vals, form):
        fd = self.world.functions.get(name)
        if fd is not None:
            return self._call_defun(fd, vals, form)
        op = self.world.genops.get(name)
        if op is not None:
            return stobjs.apply_generated(self, op, vals, form)
        sig = self.world.signatures.get(name)
        if sig is not None:
            target = self.world.attachments.get(name)
            if target is None:
                raise EvalError("constrained function %s has no attachment"
                                % name, form=form)
            return self._call_defun(self.world.functions[target], vals, form)
        b = BUILTINS.get(name)
        if b is not None:
            return b.fn(self, vals, form)
        raise EvalError("undefined function %s" % name, form=form)

    def _call_defun(self, fd, vals, form):
        env = Env(dict(zip(fd.formals, vals)))
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
        formals = list_items(parts[1], "lambda formals", form)
        if not all(isinstance(f, Symbol) for f in formals):
            raise EvalError("lambda formals must be symbols", form=form)
        if len(formals) != len(args):
            raise EvalError("lambda takes %d arguments, got %d"
                            % (len(formals), len(args)), form=form)
        names = [f.name for f in formals]
        # A function object takes no stobj, so none is live in its body.
        self._check(parts[2], {}, set(names), "this lambda")
        return self.eval(parts[2], Env(dict(zip(names, args))))

    ### stobj plumbing

    def resolve_stobj(self, name, env, form):
        e = env
        while e is not None:
            if name in e.vars:
                v = e.vars[name]
                if isinstance(v, Poison):
                    raise EvalError(v.reason, form=form)
                break
            e = e.parent
        else:
            v = self.bank.get(name)
        if not (isinstance(v, StobjInstance) and v.spec.name == name):
            raise EvalError("%s is not a live stobj here" % name, form=form)
        return v

    def latch(self, val):
        items = val.values if isinstance(val, MultiValue) else (val,)
        for item in items:
            if isinstance(item, StobjInstance):
                self.bank[item.spec.name] = item
                item.owner = "bank"

    def check_binding(self, name, val, form):
        if isinstance(val, MultiValue):
            raise EvalError("a multiple value cannot be LET-bound; use MV-LET",
                            form=form)
        if isinstance(val, StobjInstance):
            if val.spec.name != name:
                raise EvalError(
                    "stobj %s must be rebound to its own name, not %s"
                    % (val.spec.name, name), form=form)
        elif self.world.stobj_spec(name) is not None:
            raise EvalError("stobj name %s may not be bound to an ordinary "
                            "value" % name, form=form)

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
        if self.world.name_taken(name) or self.world.stobj_spec(name):
            raise EvalError("the name %s is already in use" % name, form=form)

    def _defun(self, form):
        a = _cons_args(form, "defun form")
        if len(a) < 3 or not isinstance(a[0], Symbol):
            raise EvalError("defun takes a name, formals, and a body",
                            form=form)
        name = a[0].name
        formals = list_items(a[1], "defun formals", form)
        if not all(isinstance(f, Symbol) for f in formals):
            raise EvalError("defun formals must be symbols", form=form)
        fnames = [f.name for f in formals]
        if len(set(fnames)) != len(fnames):
            raise EvalError("duplicate formal in defun %s" % name, form=form)
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
        fd = FunctionDef(name, fnames, stobjs_in, guard, measure,
                         body_forms[0])
        fd.out_shape = stobjs.check_defun(
            self.world, name, fd.formals, fd.stobjs_in, fd.body, guard,
            measure)
        self.world.add_event("defun", name, fd)
        self.world.register(self.world.events[-1])
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
        self.world.register(self.world.events[-1])
        inst = spec.fresh()
        inst.owner = "bank"
        self.bank[spec.name] = inst
        return intern(spec.name)

    def _encapsulate(self, form):
        sigs = refinement.parse_encapsulate(form, self.world)
        for sig in sigs:
            self._check_fresh(sig.name, form)
        self.world.add_event("signature",
                             " ".join(s.name for s in sigs), sigs)
        self.world.register(self.world.events[-1])
        return T

    def _defattach(self, form):
        name, target = refinement.parse_defattach(form, self.world)
        self.world.add_event("defattach", name, target)
        self.world.register(self.world.events[-1])
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


def _slot_check(name, slot, v, form):
    if slot is None:
        if isinstance(v, StobjInstance):
            raise EvalError("stobj %s passed where %s expects an ordinary "
                            "value" % (v.spec.name, name), form=form)
        if isinstance(v, MultiValue):
            raise EvalError("multiple values are not a single argument of %s"
                            % name, form=form)
    elif slot is POLY:
        if not isinstance(v, StobjInstance):
            raise EvalError("%s expects a live stobj argument" % name,
                            form=form)
    else:
        if not (isinstance(v, StobjInstance) and v.spec.name == slot):
            raise EvalError("%s expects the stobj %s in this position"
                            % (name, slot), form=form)
