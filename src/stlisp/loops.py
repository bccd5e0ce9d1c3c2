"""Iteration: loop$ parsing, the DO statement tree, and both executors.

make_do_plan parses and validates a DO body and its FINALLY body once,
into a tree of if/let/mv-let/setq/mv-setq/return/loop-finish nodes, and
two walkers run that one tree.  The logical path (run_do) is the
specification: the DO body is a one-formal function of an alist of the
settable variables, applied once per iteration to yield an exit triple
(token value new-alist), under a strictly decreasing lexicographic
measure.  It walks the tree without assignment, binding each SETQ in a
new frame and building the new alist at the leaf.  The native path
(native_exec) walks the same tree and assigns into mutable slots, with
no measure, under an iteration cap.  Both paths share parsing, grammar
validation, and result decoding, so any disagreement between them is a
bug in one of the two walkers and not in the front end.
"""

from . import stobjs
from .errors import (CapExceeded, EvalError, GuardViolation,
                     MeasureViolation, TranslateError)
from .stobjs import (DO_ONLY_HEADS, MV, _cons_args, if_parts, let_parts,
                     list_items, mv_let_parts, mv_parts, quote_parts)
from .sexpr import (NIL, T, Cons, MultiValue, Symbol, from_pylist, intern,
                    is_keyword, show, to_pylist, truthy)

WITH = intern("WITH")
FOR = intern("FOR")
DO = intern("DO")
IN = intern("IN")
SUM = intern("SUM")
COLLECT = intern("COLLECT")
FINALLY = intern("FINALLY")
OF_TYPE = intern("OF-TYPE")
EQUALS = intern("=")
INTEGER = intern("INTEGER")
K_VALUES = intern(":VALUES")
K_MEASURE = intern(":MEASURE")
K_GUARD = intern(":GUARD")
K_RETURN = intern(":RETURN")
K_FINISH = intern(":LOOP-FINISH")
CDR = intern("CDR")


class OfTypeViolation(GuardViolation):
    pass


class LoopSpec:
    def __init__(self, form):
        self.form = form
        self.kind = None
        self.for_var = None
        self.for_range = None
        self.for_acc = None
        self.for_body = None
        self.withs = []          # (name: str, type: str or None, init form)
        self.values = (None,)    # None or stobj name, per slot
        self.measure = None
        self.guard = None
        self.do_body = None
        self.finally_body = None

    def value_stobjs(self):
        return [s for s in self.values if s is not None]

    def settables(self):
        names = [w[0] for w in self.withs]
        return names + self.value_stobjs()

    def integer_vars(self):
        return {name for name, typ, _init in self.withs if typ == "INTEGER"}


def parse_loop(form, world):
    items = list_items(form, "loop$ form", form, TranslateError)
    spec = LoopSpec(form)
    if len(items) >= 2 and items[1] is FOR:
        return _parse_for(spec, items)
    return _parse_do(spec, items, world)


def _parse_for(spec, items):
    # (loop$ FOR v IN range SUM|COLLECT body)
    spec.kind = "FOR"
    if len(items) != 7:
        raise TranslateError("a FOR loop$ is (loop$ FOR v IN range "
                             "SUM|COLLECT body)", form=spec.form)
    var = items[2]
    if not isinstance(var, Symbol) or var is NIL or var is T \
            or is_keyword(var):
        raise TranslateError("bad FOR variable %s" % show(var),
                             form=spec.form)
    if items[3] is not IN:
        raise TranslateError("expected IN after the FOR variable",
                             form=spec.form)
    if items[5] not in (SUM, COLLECT):
        raise TranslateError("FOR supports the SUM and COLLECT accumulators",
                             form=spec.form)
    spec.for_var = var
    spec.for_range = items[4]
    spec.for_acc = items[5].name
    spec.for_body = items[6]
    return spec


def _parse_do(spec, items, world):
    spec.kind = "DO"
    i = 1
    seen = set()
    while i < len(items) and items[i] is WITH:
        if i + 1 >= len(items) or not isinstance(items[i + 1], Symbol):
            raise TranslateError("WITH needs a variable name", form=spec.form)
        var = items[i + 1]
        if var is NIL or var is T or is_keyword(var):
            raise TranslateError("bad WITH variable %s" % show(var),
                                 form=spec.form)
        if world.stobj_spec(var.name) is not None:
            raise TranslateError("WITH may not bind the stobj name %s; "
                                 "stobjs enter a DO loop through :VALUES"
                                 % var.name, form=spec.form)
        if var.name in seen:
            raise TranslateError("duplicate WITH variable %s" % var.name,
                                 form=spec.form)
        seen.add(var.name)
        i += 2
        typ = None
        if i < len(items) and items[i] is OF_TYPE:
            if i + 1 >= len(items) or items[i + 1] not in (INTEGER, T):
                raise TranslateError("OF-TYPE supports INTEGER and T only",
                                     form=spec.form)
            typ = items[i + 1].name
            i += 2
        init = None
        if i < len(items) and items[i] is EQUALS:
            if i + 1 >= len(items):
                raise TranslateError("WITH %s = needs a value" % var.name,
                                     form=spec.form)
            init = items[i + 1]
            i += 2
        spec.withs.append((var.name, typ, init))
    if i >= len(items) or items[i] is not DO:
        raise TranslateError("expected DO after the WITH clauses",
                             form=spec.form)
    i += 1
    seen_kw = set()
    while i < len(items) and items[i] in (K_VALUES, K_MEASURE, K_GUARD):
        kw = items[i]
        if kw.name in seen_kw:
            raise TranslateError("duplicate %s" % kw.name, form=spec.form)
        seen_kw.add(kw.name)
        if i + 1 >= len(items):
            raise TranslateError("%s needs a value" % kw.name, form=spec.form)
        arg = items[i + 1]
        if kw is K_MEASURE:
            spec.measure = arg
        elif kw is K_GUARD:
            spec.guard = arg
        else:
            spec.values = _parse_values(arg, spec, world)
        i += 2
    if i >= len(items):
        raise TranslateError("DO loop has no body", form=spec.form)
    spec.do_body = items[i]
    i += 1
    if i < len(items):
        if items[i] is not FINALLY or i + 1 >= len(items):
            raise TranslateError("expected FINALLY and a body after the DO "
                                 "body", form=spec.form)
        spec.finally_body = items[i + 1]
        i += 2
    if i != len(items):
        raise TranslateError("unexpected trailing forms in loop$",
                             form=spec.form)
    return spec


def _parse_values(arg, spec, world):
    slots = []
    for x in list_items(arg, ":VALUES", spec.form, TranslateError):
        if x is NIL:
            slots.append(None)
        elif isinstance(x, Symbol) and world.stobj_spec(x.name) is not None:
            if x.name in [s for s in slots if s]:
                raise TranslateError("stobj %s appears twice in :VALUES"
                                     % x.name, form=spec.form)
            slots.append(x.name)
        else:
            raise TranslateError(":VALUES entries must be NIL or a defined "
                                 "stobj, got %s" % show(x), form=spec.form)
    if not slots:
        raise TranslateError(":VALUES may not be empty", form=spec.form)
    return tuple(slots)


### parsing DO and FINALLY bodies into statement trees

# Statement tree nodes.  Each node holds all that runs after it, so the
# walkers below run a tree with a plain loop and never return to a
# parent node:
#
#   ("if", test, then, else, form)
#   ("let", names, rhs forms, body, form)   LET* nests one-binding LETs
#   ("mv-let", names, rhs form, body, form)
#   ("setq", (name,), rhs form, rest, form)
#   ("mv-setq", names, rhs form, rest, form)
#   ("return", expr, form)     FINISH     FALL
#
# PROGN does not survive parsing: a SETQ or MV-SETQ carries the
# statements after it as `rest`, and an IF that precedes other
# statements gets them appended to each of its branches.
FINISH = ("finish",)
FALL = ("fall",)


class DoPlan:
    __slots__ = ("do_tree", "finally_tree", "measure_form", "settables",
                 "integer_vars")


def make_do_plan(spec, world):
    """Parse and validate the DO and FINALLY bodies into statement trees."""
    settables = spec.settables()
    parser = _Parser(settables, spec.values)
    plan = DoPlan()
    plan.settables = settables
    plan.integer_vars = spec.integer_vars()
    plan.do_tree = parser.stmt(spec.do_body, set(settables))
    plan.finally_tree = None
    if spec.finally_body is not None:
        plan.finally_tree = _Parser(settables, spec.values,
                                    finally_mode=True).stmt(
            spec.finally_body, set(settables))
    elif parser.saw_loop_finish and spec.value_stobjs():
        raise TranslateError(
            "LOOP-FINISH without a FINALLY clause cannot produce the stobjs "
            "named in :VALUES", form=spec.form)
    plan.measure_form = spec.measure
    if plan.measure_form is None:
        plan.measure_form = guess_measure(spec, parser.steps)
    _scan_expr(plan.measure_form, set(settables), settables, ":MEASURE")
    if spec.guard is not None:
        _scan_expr(spec.guard, set(settables), settables, ":GUARD")
    return plan


class _Parser:
    def __init__(self, settables, values, finally_mode=False):
        self.settables = settables
        self.values = values
        self.finally_mode = finally_mode
        self.saw_loop_finish = False
        # settable name -> right-hand side of each SETQ of it, or None
        # for an MV-SETQ of it; read by guess_measure
        self.steps = {}

    def stmt(self, s, scope):
        if isinstance(s, (int, str)):
            return FALL
        if isinstance(s, Symbol):
            if s is NIL or s is T or is_keyword(s):
                return FALL
            raise TranslateError(
                "a bare variable is not a statement in a DO body: %s"
                % show(s), form=s)
        if not isinstance(s, Cons) or not isinstance(s.car, Symbol):
            raise TranslateError("not a DO-body statement: %s" % show(s),
                                 form=s)
        name = s.car.name
        if name == "IF":
            return self._stmt_if(s, [], scope)
        if name in ("LET", "LET*"):
            return self._stmt_let(s, scope, sequential=name == "LET*")
        if name == "MV-LET":
            return self._stmt_mv_let(s, scope)
        if name == "PROGN":
            return self._stmt_progn(_cons_args(s, error=TranslateError),
                                    scope)
        if name == "SETQ":
            return self._setq_step(s, [], scope)
        if name == "MV-SETQ":
            return self._mv_setq_step(s, [], scope)
        if name == "RETURN":
            return self._stmt_return(s, scope)
        if name == "LOOP-FINISH":
            if _cons_args(s, error=TranslateError):
                raise TranslateError("LOOP-FINISH takes no arguments", form=s)
            if self.finally_mode:
                raise TranslateError("LOOP-FINISH is not legal in a FINALLY "
                                     "clause", form=s)
            self.saw_loop_finish = True
            return FINISH
        raise TranslateError(
            "%s is not a statement; a DO body is built from if/let/let*/"
            "mv-let/progn/setq/mv-setq/return/loop-finish" % show(s), form=s)

    def _stmt_if(self, s, rest, scope):
        args = if_parts(s, TranslateError)
        test = self.expr(args[0], scope)
        tbr = self._stmt_progn([args[1]] + rest, scope)
        fbr = self._stmt_progn(args[2:] + rest, scope)
        return ("if", test, tbr, fbr, s)

    def _stmt_let(self, s, scope, sequential):
        pairs, body = let_parts(s, TranslateError)
        cur_scope = set(scope)
        names, rhss = [], []
        for var, rhs in pairs:
            if var.name in self.settables:
                raise TranslateError(
                    "a statement-position %s may not rebind the settable "
                    "variable %s; use SETQ" % (s.car.name, var.name), form=s)
            rhss.append(self.expr(rhs, cur_scope if sequential else scope))
            names.append(var.name)
            cur_scope.add(var.name)
        body = self.stmt(body, cur_scope)
        if not sequential:
            return ("let", tuple(names), tuple(rhss), body, s)
        for name, rhs in reversed(list(zip(names, rhss))):
            body = ("let", (name,), (rhs,), body, s)
        return body

    def _stmt_mv_let(self, s, scope):
        vars_, rhs, body = mv_let_parts(s, TranslateError)
        for v in vars_:
            if v.name in self.settables:
                raise TranslateError(
                    "a statement-position MV-LET may not rebind the settable "
                    "variable %s; use MV-SETQ" % v.name, form=s)
        rhs = self.expr(rhs, scope)
        body = self.stmt(body, set(scope) | {v.name for v in vars_})
        return ("mv-let", tuple(v.name for v in vars_), rhs, body, s)

    def _stmt_progn(self, items, scope):
        if not items:
            return FALL
        if len(items) == 1:
            return self.stmt(items[0], scope)
        s0, rest = items[0], items[1:]
        if isinstance(s0, Cons) and isinstance(s0.car, Symbol):
            h = s0.car.name
            if h == "PROGN":
                return self._stmt_progn(
                    _cons_args(s0, error=TranslateError) + rest, scope)
            if h == "IF":
                return self._stmt_if(s0, rest, scope)
            if h == "SETQ":
                return self._setq_step(s0, rest, scope)
            if h == "MV-SETQ":
                return self._mv_setq_step(s0, rest, scope)
            if h in ("RETURN", "LOOP-FINISH"):
                raise TranslateError(
                    "%s must be the final form of its PROGN" % h, form=s0)
            if h in ("LET", "LET*", "MV-LET"):
                raise TranslateError(
                    "a %s before the end of a PROGN has no effect on the "
                    "settable variables; bind locals around the whole PROGN "
                    "instead" % h, form=s0)
        raise TranslateError(
            "only SETQ, MV-SETQ, IF, and PROGN may precede the final form "
            "of a PROGN, got %s" % show(s0), form=s0)

    def _setq_step(self, s, rest, scope):
        args = _cons_args(s, error=TranslateError)
        if len(args) != 2 or not isinstance(args[0], Symbol):
            raise TranslateError("SETQ takes a variable and a value: %s"
                                 % show(s), form=s)
        var = args[0]
        if var.name not in self.settables:
            raise TranslateError(
                "SETQ target %s is not settable (settable variables here: "
                "%s)" % (var.name, " ".join(self.settables) or "none"),
                form=s)
        rhs = self.expr(args[1], scope)
        self.steps.setdefault(var.name, []).append(rhs)
        body = self._stmt_progn(rest, scope)
        return ("setq", (var.name,), rhs, body, s)

    def _mv_setq_step(self, s, rest, scope):
        args = _cons_args(s, error=TranslateError)
        if len(args) != 2:
            raise TranslateError("MV-SETQ takes a variable list and a form",
                                 form=s)
        vars_ = list_items(args[0], "MV-SETQ variables", s, TranslateError)
        if len(vars_) < 2 or not all(isinstance(v, Symbol) for v in vars_):
            raise TranslateError("MV-SETQ needs two or more variables",
                                 form=s)
        names = tuple(v.name for v in vars_)
        if len(set(names)) != len(names):
            raise TranslateError("duplicate MV-SETQ target in %s" % show(s),
                                 form=s)
        for n in names:
            if n not in self.settables:
                raise TranslateError(
                    "MV-SETQ target %s is not settable" % n, form=s)
            self.steps.setdefault(n, []).append(None)
        rhs = self.expr(args[1], scope)
        body = self._stmt_progn(rest, scope)
        return ("mv-setq", names, rhs, body, s)

    def _stmt_return(self, s, scope):
        args = _cons_args(s, error=TranslateError)
        if len(args) != 1:
            raise TranslateError("RETURN takes exactly one form", form=s)
        e = args[0]
        sig = self.values
        if len(sig) == 1:
            if isinstance(e, Cons) and e.car is MV:
                raise TranslateError(
                    "RETURN of multiple values requires a :VALUES signature",
                    form=s)
            return ("return", self.expr(e, scope), s)
        if not (isinstance(e, Cons) and e.car is MV):
            raise TranslateError(
                "with :VALUES of length %d, RETURN needs a literal (MV ..) "
                "of that arity" % len(sig), form=s)
        comps = mv_parts(e, TranslateError)
        if len(comps) != len(sig):
            raise TranslateError(
                "RETURN supplies %d values for %d :VALUES slots"
                % (len(comps), len(sig)), form=s)
        for slot, comp in zip(sig, comps):
            if slot is None:
                self.expr(comp, scope)
            elif not (isinstance(comp, Symbol) and comp.name == slot):
                raise TranslateError(
                    "this RETURN slot must be the stobj %s, got %s"
                    % (slot, show(comp)), form=s)
        return ("return", e, s)

    def expr(self, e, scope):
        _scan_expr(e, scope, self.settables, "a DO-body expression")
        return e


def _scan_expr(e, scope, settables, what):
    if isinstance(e, (int, str)):
        return
    if isinstance(e, Symbol):
        if e is NIL or e is T or is_keyword(e):
            return
        if e.name not in scope:
            raise TranslateError(
                "%s is not bound in %s (settable variables: %s)"
                % (e.name, what, " ".join(settables) or "none"), form=e)
        return
    if not isinstance(e, Cons):
        raise TranslateError("cannot translate %r" % (e,))
    head = e.car
    if not isinstance(head, Symbol):
        raise TranslateError("call head must be a symbol in %s" % show(e),
                             form=e)
    name = head.name
    if name == "QUOTE":
        quote_parts(e, TranslateError)
        return
    if name in DO_ONLY_HEADS:
        raise TranslateError(
            "%s is a statement and may not appear inside %s" % (name, what),
            form=e)
    if name in ("LOOP$", "STOBJ-LET"):
        raise TranslateError("%s is not supported inside a DO body" % name,
                             form=e)
    if name in ("LET", "LET*"):
        pairs, body = let_parts(e, TranslateError)
        cur = set(scope)
        for var, rhs in pairs:
            _scan_expr(rhs, cur if name == "LET*" else scope, settables,
                       what)
            cur.add(var.name)
        _scan_expr(body, cur, settables, what)
        return
    if name == "MV-LET":
        vars_, rhs, body = mv_let_parts(e, TranslateError)
        _scan_expr(rhs, scope, settables, what)
        _scan_expr(body, set(scope) | {v.name for v in vars_}, settables,
                   what)
        return
    if name == "IF":
        args = if_parts(e, TranslateError)
    elif name == "MV":
        args = mv_parts(e, TranslateError)
    else:
        args = _cons_args(e, error=TranslateError)
    for a in args:
        _scan_expr(a, scope, settables, what)


### measure guessing

def guess_measure(spec, steps):
    """A measure from the DO body's SETQ record (see _Parser.steps)."""
    candidates = []
    for name, _typ, _init in spec.withs:
        ups = steps.get(name)
        if not ups:
            continue
        if all(_is_numeric_step(r, name) for r in ups):
            candidates.append(from_pylist([intern("NFIX"), intern(name)]))
        elif all(_is_cdr_step(r, name) for r in ups):
            candidates.append(from_pylist([intern("LEN"), intern(name)]))
    if len(candidates) == 1:
        return candidates[0]
    raise TranslateError(
        "cannot guess a :MEASURE for this DO loop (no single WITH variable "
        "is stepped only by 1-/-/cdr of itself); supply :MEASURE",
        form=spec.form)


def _is_numeric_step(r, name):
    if not (isinstance(r, Cons) and isinstance(r.car, Symbol)):
        return False
    args = _cons_args(r)
    if r.car.name == "1-":
        return len(args) == 1 and isinstance(args[0], Symbol) \
            and args[0].name == name
    if r.car.name == "-":
        return (len(args) == 2 and isinstance(args[0], Symbol)
                and args[0].name == name and isinstance(args[1], int)
                and args[1] > 0)
    return False


def _is_cdr_step(r, name):
    return (isinstance(r, Cons) and r.car is CDR
            and isinstance(r.cdr, Cons) and isinstance(r.cdr.car, Symbol)
            and r.cdr.car.name == name and r.cdr.cdr is NIL)


### measures

def lex_fix(v):
    if isinstance(v, int):
        return (v,) if v >= 0 else (0,)
    if v is NIL:
        return ()
    if isinstance(v, Cons):
        items = []
        node = v
        while isinstance(node, Cons):
            x = node.car
            items.append(x if isinstance(x, int) and x >= 0 else 0)
            node = node.cdr
        if node is not NIL:
            return (0,)
        return tuple(items)
    return (0,)


def l_less(a, b):
    if len(a) != len(b):
        return len(a) < len(b)
    return a < b


def lex_show(t):
    return "(" + " ".join(str(x) for x in t) + ")"


### guards

def check_of_type(interp, var, value, form, iteration):
    """OF-TYPE INTEGER on a WITH variable, checked while guards are on."""
    if interp.guard_check and not isinstance(value, int):
        raise OfTypeViolation(
            "OF-TYPE violation: %s = %s is not an INTEGER (iteration %d)"
            % (var, show(value), iteration), form=form)


### shared setup and result decoding

def initial_bindings(interp, spec, env, form):
    from .kernel import Env
    entries = []
    cur = env
    for name, typ, init in spec.withs:
        v = interp.eval(init, cur) if init is not None else NIL
        if typ == "INTEGER":
            check_of_type(interp, name, v, form, 0)
        if isinstance(v, (MultiValue, stobjs.StobjInstance)):
            raise EvalError("WITH %s may not be initialized to a stobj or "
                            "multiple values" % name, form=form)
        entries.append((name, v))
        cur = Env({name: v}, cur)
    for sname in spec.value_stobjs():
        entries.append((sname, interp.resolve_stobj(sname, env, form)))
    return entries


def decode_result(spec, value, form):
    sig = spec.values
    if len(sig) == 1:
        if isinstance(value, MultiValue):
            raise EvalError("this DO loop returns a single value", form=form)
        _sig_check(sig[0], value, form)
        return value
    if not isinstance(value, MultiValue) or len(value.values) != len(sig):
        raise EvalError("this DO loop returns %d values" % len(sig),
                        form=form)
    for slot, v in zip(sig, value.values):
        _sig_check(slot, v, form)
    return value


def _sig_check(slot, v, form):
    if slot is None:
        if isinstance(v, stobjs.StobjInstance):
            raise EvalError("a stobj came back in an ordinary :VALUES slot",
                            form=form)
    else:
        if not (isinstance(v, stobjs.StobjInstance) and v.spec.name == slot):
            raise EvalError("the :VALUES slot for stobj %s did not receive "
                            "it" % slot, form=form)


def _default_result(spec, form):
    if spec.value_stobjs():
        raise EvalError("the FINALLY clause fell through without RETURN, "
                        "but :VALUES names stobjs", form=form)
    if len(spec.values) == 1:
        return NIL
    return MultiValue([NIL] * len(spec.values))


### the two walkers

def _if_test(interp, node, env):
    test = interp.eval(node[1], env)
    if isinstance(test, (MultiValue, stobjs.StobjInstance)):
        raise EvalError("bad value in an IF test", form=node[4])
    return truthy(test)


def _frame(interp, node, env, plan, n):
    """The checked {name: value} that a LET, MV-LET, SETQ or MV-SETQ node
    binds, its right-hand sides evaluated in env."""
    tag, names, rhs, _next, form = node
    if tag == "let":
        vals = [interp.eval(r, env) for r in rhs]
    elif tag == "setq":
        vals = [interp.eval(rhs, env)]
    else:
        val = interp.eval(rhs, env)
        if not isinstance(val, MultiValue) or len(val.values) != len(names):
            raise EvalError("%s expected %d values"
                            % (form.car.name, len(names)), form=form)
        vals = val.values
    frame = {}
    for name, v in zip(names, vals):
        # only settables have types, and only SETQ and MV-SETQ bind them
        if name in plan.integer_vars:
            check_of_type(interp, name, v, form, n)
        interp.check_binding(name, v, form)
        frame[name] = v
    return frame


def _walk_logical(interp, node, env, plan, n):
    """Run a statement tree without assignment: each SETQ or MV-SETQ
    binds a new frame.  Returns (token, value, env at the leaf)."""
    from .kernel import Env
    while True:
        tag = node[0]
        if tag == "if":
            node = node[2] if _if_test(interp, node, env) else node[3]
        elif tag == "return":
            return K_RETURN, interp.eval(node[1], env), env
        elif tag == "finish":
            return K_FINISH, NIL, env
        elif tag == "fall":
            return NIL, NIL, env
        else:
            env = Env(_frame(interp, node, env, plan, n), env)
            node = node[3]


def _walk_native(interp, node, env, slots, plan, n):
    """Run a statement tree, assigning each SETQ and MV-SETQ into the
    slots frame at the root of env.  Returns (token, value)."""
    from .kernel import Env
    while True:
        tag = node[0]
        if tag == "if":
            node = node[2] if _if_test(interp, node, env) else node[3]
        elif tag == "return":
            return K_RETURN, interp.eval(node[1], env)
        elif tag == "finish":
            return K_FINISH, NIL
        elif tag == "fall":
            return NIL, NIL
        elif tag == "setq" or tag == "mv-setq":
            slots.update(_frame(interp, node, env, plan, n))
            node = node[3]
        else:
            env = Env(_frame(interp, node, env, plan, n), env)
            node = node[3]


def _result(spec, token, value, form):
    if token is K_RETURN:
        return decode_result(spec, value, form)
    return _default_result(spec, form)


### the measured recursive path

# The alist always lists the settables in plan order, one (name . value)
# entry each, so the environment is read from it by position.

def _alist_env(interp, plan, alist):
    from .kernel import Env
    if interp.trace:
        assert [e.car.name for e in to_pylist(alist)] == plan.settables
    frame = {}
    for name in plan.settables:
        frame[name] = alist.car.cdr
        alist = alist.cdr
    return Env(frame)


def _alist(plan, env):
    entries = []
    for name in plan.settables:
        e = env
        while name not in e.vars:
            e = e.parent
        entries.append((name, e.vars[name]))
    return _build_alist(entries)


def _build_alist(entries):
    return from_pylist([Cons(intern(name), v) for name, v in entries])


def _triple(token, value, alist):
    if isinstance(value, MultiValue):
        value = from_pylist(value.values)
    return from_pylist([token, value, alist])


def run_do(interp, spec, plan, env, form):
    alist = _build_alist(initial_bindings(interp, spec, env, form))
    env = _alist_env(interp, plan, alist)
    n = 0
    m_cur = None
    while True:
        n += 1
        if spec.guard is not None and interp.guard_check:
            if not truthy(interp.eval(spec.guard, env)):
                raise GuardViolation(
                    "loop :GUARD %s failed entering iteration %d with %s"
                    % (show(spec.guard), n, show(alist)), form=form)
        if m_cur is None:
            m_cur = lex_fix(interp.eval(plan.measure_form, env))
        if interp.trace:
            interp.loop_measures.append(m_cur)
        token, val, leaf = _walk_logical(interp, plan.do_tree, env, plan, n)
        new_alist = _alist(plan, leaf)
        if interp.trace:
            interp.do_trace.append(("do", alist,
                                    _triple(token, val, new_alist)))
        if token is K_RETURN:
            return decode_result(spec, val, form)
        env = _alist_env(interp, plan, new_alist)
        if token is K_FINISH:
            if plan.finally_tree is not None:
                token, val, leaf = _walk_logical(interp, plan.finally_tree,
                                                 env, plan, n)
                if interp.trace:
                    interp.do_trace.append(
                        ("finally", new_alist,
                         _triple(token, val, _alist(plan, leaf))))
            return _result(spec, token, val, form)
        m_new = lex_fix(interp.eval(plan.measure_form, env))
        if not l_less(m_new, m_cur):
            raise MeasureViolation(
                "the measure %s of this DO loop failed to decrease at "
                "iteration %d: %s (from %s) is not below %s (from %s)"
                % (show(plan.measure_form), n, lex_show(m_new),
                   show(new_alist), lex_show(m_cur), show(alist)), form=form)
        alist, m_cur = new_alist, m_new


### the native imperative path

def native_exec(interp, spec, plan, env, form):
    from .kernel import Env
    slots = dict(initial_bindings(interp, spec, env, form))
    base = Env(slots)
    n = 0
    while True:
        n += 1
        if n > interp.cap:
            raise CapExceeded(
                "DO loop passed the native iteration cap of %d without "
                "returning; supply a decreasing :MEASURE and run the "
                "logical path, or raise the cap" % interp.cap, form=form)
        if spec.guard is not None and interp.guard_check:
            if not truthy(interp.eval(spec.guard, base)):
                raise GuardViolation(
                    "loop :GUARD %s failed entering iteration %d"
                    % (show(spec.guard), n), form=form)
        token, val = _walk_native(interp, plan.do_tree, base, slots, plan, n)
        if token is K_RETURN:
            return decode_result(spec, val, form)
        if token is K_FINISH:
            if plan.finally_tree is not None:
                token, val = _walk_native(interp, plan.finally_tree, base,
                                          slots, plan, n)
            return _result(spec, token, val, form)


### FOR loops

def for_exec(interp, spec, env, form):
    from .kernel import Env
    rng = interp.eval(spec.for_range, env)
    items = []
    node = rng
    while isinstance(node, Cons):
        items.append(node.car)
        node = node.cdr
    if node is not NIL:
        raise EvalError("FOR range is not a proper list: %s" % show(rng),
                        form=form)
    acc = 0 if spec.for_acc == "SUM" else []
    for x in items:
        v = interp.eval(spec.for_body, Env({spec.for_var.name: x}, env))
        if spec.for_acc == "SUM":
            if not isinstance(v, int):
                if interp.guard_check:
                    raise GuardViolation(
                        "guard violation in %s: SUM accumulated the "
                        "non-integer %s" % (show(spec.for_body), show(v)),
                        form=form)
                v = 0
            acc += v
        else:
            if isinstance(v, (MultiValue, stobjs.StobjInstance)):
                raise EvalError("bad value under COLLECT", form=form)
            acc.append(v)
    if spec.for_acc == "SUM":
        return acc
    return from_pylist(acc)


### entry point

def eval_loop(interp, form, env):
    spec = parse_loop(form, interp.world)
    if spec.kind == "FOR":
        return for_exec(interp, spec, env, form)
    plan = make_do_plan(spec, interp.world)
    if interp.in_place():
        return native_exec(interp, spec, plan, env, form)
    return run_do(interp, spec, plan, env, form)
