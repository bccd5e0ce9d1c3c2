"""Iteration: loop$ parsing, the DO statement tree, and both executors.

A LoopSpec is the one record of a loop$ form: parse_loop fills in its
clauses, and for a DO loop make_do_plan adds the settable variables, the
measure (given or guessed), and the DO and FINALLY bodies as trees of
seq/if/let/mv-let/setq/mv-setq/return/loop-finish nodes.  It checks only
the statement grammar; stobjs.Analyzer checks the expressions, :GUARD
and :MEASURE before the loop runs, and lets them name only the
settables and the locals they bind.  The WITH values bind into the
loop's own frame of settables, and one walker runs the trees over it on
both paths.  The logical path (run_do) is the specification: the DO body
is a one-formal function of an alist of the settables, applied once per
iteration to yield an exit triple (token value new-alist), under a
strictly decreasing lexicographic measure.  run_do walks one frame of
slots for the whole loop, as native_exec does, and conses the alist only
for the trace and for the text of a :GUARD or measure violation.  A
measure of (NFIX v), v a WITH variable, is read in place; one of (LEN v)
is checked in O(1) while v steps by CDR: run_do keeps the last list seen
in v and its length.  The native path (native_exec) walks one frame for
the whole loop, with no measure, under an iteration cap.  Both share the
record, the walker and the exit decoding (_result), so they differ only
in how stobjs are written (copied or in place) and in what ends a
runaway loop (measure or cap).
"""

from . import stobjs
from .errors import (CapExceeded, EvalError, GuardViolation,
                     MeasureViolation)
from .stobjs import (MV, _cons_args, bindable, if_parts, let_pairs,
                     let_parts, list_items, mv_let_parts, mv_parts)
from .sexpr import (NIL, T, Cons, Env, MultiValue, Symbol, from_pylist,
                    intern, is_keyword, iter_conses, list_length, show,
                    truthy)

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
LEN = intern("LEN")
NFIX = intern("NFIX")
ONE_MINUS = intern("1-")
MINUS = intern("-")


class OfTypeViolation(GuardViolation):
    pass


class LoopSpec:
    # slots keep the record small: they pay for settable_symbols
    __slots__ = ("form", "kind", "for_var", "for_range", "for_acc", "for_body",
                 "withs", "values", "measure_form", "guard", "do_body",
                 "finally_body", "value_stobjs", "settables",
                 "settable_symbols", "integer_vars", "measure_var", "do_tree",
                 "finally_tree")

    def __init__(self, form):
        self.form = form
        self.kind = None
        self.for_var = None
        self.for_range = None
        self.for_acc = None
        self.for_body = None
        self.withs = []          # (name: str, type: str or None, init form)
        self.values = (None,)    # None or stobj name, per slot
        self.measure_form = None  # :MEASURE, or else guessed by make_do_plan
        self.guard = None
        self.do_body = None
        self.finally_body = None
        # set by make_do_plan
        self.value_stobjs = None  # the stobj names in values, in order
        self.settables = None     # WITH names, then value_stobjs
        self.settable_symbols = None  # the same, as Symbols
        self.integer_vars = None  # the WITH names of type INTEGER
        self.measure_var = None   # v, when the measure is (LEN v) or (NFIX v)
        self.do_tree = None
        self.finally_tree = None


def parse_loop(form, world):
    items = list_items(form, "loop$ form", form)
    spec = LoopSpec(form)
    if len(items) >= 2 and items[1] is FOR:
        return _parse_for(spec, items)
    return _parse_do(spec, items, world)


def _parse_for(spec, items):
    # (loop$ FOR v IN range SUM|COLLECT body)
    spec.kind = "FOR"
    if len(items) != 7:
        raise EvalError("a FOR loop$ is (loop$ FOR v IN range "
                        "SUM|COLLECT body)", form=spec.form)
    var = items[2]
    if not isinstance(var, Symbol) or var is NIL or var is T \
            or is_keyword(var):
        raise EvalError("bad FOR variable %s" % show(var), form=spec.form)
    if items[3] is not IN:
        raise EvalError("expected IN after the FOR variable", form=spec.form)
    if items[5] not in (SUM, COLLECT):
        raise EvalError("FOR supports the SUM and COLLECT accumulators",
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
            raise EvalError("WITH needs a variable name", form=spec.form)
        var = bindable(items[i + 1], "WITH variable", spec.form)
        if world.stobj_spec(var.name) is not None:
            raise EvalError("WITH may not bind the stobj name %s; "
                            "stobjs enter a DO loop through :VALUES"
                            % var.name, form=spec.form)
        if var.name in seen:
            raise EvalError("duplicate WITH variable %s" % var.name,
                            form=spec.form)
        seen.add(var.name)
        i += 2
        typ = None
        if i < len(items) and items[i] is OF_TYPE:
            if i + 1 >= len(items) or items[i + 1] not in (INTEGER, T):
                raise EvalError("OF-TYPE supports INTEGER and T only",
                                form=spec.form)
            typ = items[i + 1].name
            i += 2
        init = None
        if i < len(items) and items[i] is EQUALS:
            if i + 1 >= len(items):
                raise EvalError("WITH %s = needs a value" % var.name,
                                form=spec.form)
            init = items[i + 1]
            i += 2
        spec.withs.append((var.name, typ, init))
    if i >= len(items) or items[i] is not DO:
        raise EvalError("expected DO after the WITH clauses", form=spec.form)
    i += 1
    seen_kw = set()
    while i < len(items) and items[i] in (K_VALUES, K_MEASURE, K_GUARD):
        kw = items[i]
        if kw.name in seen_kw:
            raise EvalError("duplicate %s" % kw.name, form=spec.form)
        seen_kw.add(kw.name)
        if i + 1 >= len(items):
            raise EvalError("%s needs a value" % kw.name, form=spec.form)
        arg = items[i + 1]
        if kw is K_MEASURE:
            spec.measure_form = arg
        elif kw is K_GUARD:
            spec.guard = arg
        else:
            spec.values = _parse_values(arg, spec, world)
        i += 2
    if i >= len(items):
        raise EvalError("DO loop has no body", form=spec.form)
    spec.do_body = items[i]
    i += 1
    if i < len(items):
        if items[i] is not FINALLY or i + 1 >= len(items):
            raise EvalError("expected FINALLY and a body after the DO "
                            "body", form=spec.form)
        spec.finally_body = items[i + 1]
        i += 2
    if i != len(items):
        raise EvalError("unexpected trailing forms in loop$", form=spec.form)
    return spec


def _parse_values(arg, spec, world):
    slots = []
    for x in list_items(arg, ":VALUES", spec.form):
        if x is NIL:
            slots.append(None)
        elif isinstance(x, Symbol) and world.stobj_spec(x.name) is not None:
            if x.name in [s for s in slots if s]:
                raise EvalError("stobj %s appears twice in :VALUES"
                                % x.name, form=spec.form)
            slots.append(x.name)
        else:
            raise EvalError(":VALUES entries must be NIL or a defined "
                            "stobj, got %s" % show(x), form=spec.form)
    if not slots:
        raise EvalError(":VALUES may not be empty", form=spec.form)
    return tuple(slots)


### parsing DO and FINALLY bodies into statement trees

# Statement tree nodes.  A walker runs a tree with a plain loop and
# returns at a leaf; only the effects of a "seq" are walked on their own.
#
#   ("seq", effects, last)     a PROGN: the effects in order, then last
#   ("if", test, then, else, form)
#   ("let", names, rhs forms, body, form)   LET* nests one-binding LETs
#   ("mv-let", names, rhs form, body, form)
#   ("setq", (name,), rhs form, form)
#   ("mv-setq", names, rhs form, form)
#   ("return", expr, form)     FINISH     FALL
#
# An effect is a statement before the last form of a PROGN.  It can
# only assign: a SETQ, an MV-SETQ, or an IF or PROGN built of effects,
# so its walk always falls through.  A SETQ or MV-SETQ falls through
# after assigning, wherever it stands, so a SETQ that ends a PROGN joins
# its effects and the walker assigns each of them in the seq's own loop.
FINISH = ("finish",)
FALL = ("fall",)


def make_do_plan(spec, world):
    """Complete the record of a parsed DO loop: its settable variables,
    its DO and FINALLY bodies as statement trees, and its measure."""
    spec.value_stobjs = [s for s in spec.values if s is not None]
    spec.settables = [w[0] for w in spec.withs] + spec.value_stobjs
    spec.settable_symbols = tuple([intern(name) for name in spec.settables])
    spec.integer_vars = {name for name, typ, _init in spec.withs
                         if typ == "INTEGER"}
    parser = _Parser(spec.settables, spec.values)
    spec.do_tree = parser.stmt(spec.do_body)
    if spec.finally_body is not None:
        spec.finally_tree = _Parser(spec.settables, spec.values,
                                    finally_mode=True).stmt(spec.finally_body)
    elif parser.saw_loop_finish and spec.value_stobjs:
        raise EvalError(
            "LOOP-FINISH without a FINALLY clause cannot produce the stobjs "
            "named in :VALUES", form=spec.form)
    if spec.measure_form is None:
        spec.measure_form = guess_measure(spec, parser.steps)
    for name, _typ, _init in spec.withs:
        if (_is_unary(spec.measure_form, LEN, name)
                or _is_unary(spec.measure_form, NFIX, name)):
            spec.measure_var = name
    return spec


class _Parser:
    def __init__(self, settables, values, finally_mode=False):
        self.settables = settables
        self.values = values
        self.finally_mode = finally_mode
        self.saw_loop_finish = False
        # settable name -> right-hand side of each SETQ of it, or None
        # for an MV-SETQ of it; read by guess_measure
        self.steps = {}

    def stmt(self, s, effect=False):
        """The tree of the statement s; with effect set, s precedes the
        last form of a PROGN and must be an effect (see FALL)."""
        name = s.car.name if isinstance(s, Cons) \
            and isinstance(s.car, Symbol) else None
        if name == "IF":
            test, then, els = if_parts(s)
            return ("if", test, self.stmt(then, effect),
                    FALL if els is None else self.stmt(els, effect), s)
        if name == "PROGN":
            items = _cons_args(s)
            if not items:
                return FALL
            effects = [self.stmt(x, True) for x in items[:-1]]
            last = self.stmt(items[-1], effect)
            if effects and last[0] == "setq":
                effects.append(last)
                last = FALL
            return ("seq", tuple(effects), last) if effects else last
        if name == "SETQ":
            args = _cons_args(s)
            if len(args) != 2 or not isinstance(args[0], Symbol):
                raise EvalError("SETQ takes a variable and a value: %s"
                                % show(s), form=s)
            var = args[0].name
            if var not in self.settables:
                raise EvalError(
                    "SETQ target %s is not settable (settable variables "
                    "here: %s)" % (var, " ".join(self.settables) or "none"),
                    form=s)
            self.steps.setdefault(var, []).append(args[1])
            return ("setq", (var,), args[1], s)
        if name == "MV-SETQ":
            args = _cons_args(s)
            if len(args) != 2:
                raise EvalError("MV-SETQ takes a variable list and a "
                                "form", form=s)
            vars_ = list_items(args[0], "MV-SETQ variables", s)
            if len(vars_) < 2 or not all(isinstance(v, Symbol)
                                         for v in vars_):
                raise EvalError("MV-SETQ needs two or more variables", form=s)
            names = tuple(v.name for v in vars_)
            if len(set(names)) != len(names):
                raise EvalError("duplicate MV-SETQ target in %s"
                                % show(s), form=s)
            for n in names:
                if n not in self.settables:
                    raise EvalError(
                        "MV-SETQ target %s is not settable" % n, form=s)
                self.steps.setdefault(n, []).append(None)
            return ("mv-setq", names, args[1], s)
        if effect:
            if name in ("RETURN", "LOOP-FINISH"):
                raise EvalError(
                    "%s must be the final form of its PROGN" % name, form=s)
            if name in ("LET", "LET*", "MV-LET"):
                raise EvalError(
                    "a %s before the end of a PROGN has no effect on the "
                    "settable variables; bind locals around the whole PROGN "
                    "instead" % name, form=s)
            raise EvalError(
                "only SETQ, MV-SETQ, IF, and PROGN may precede the final "
                "form of a PROGN, got %s" % show(s), form=s)
        if name is None:
            if isinstance(s, (int, str)):
                return FALL
            if not isinstance(s, Symbol):
                raise EvalError("not a DO-body statement: %s" % show(s),
                                form=s)
            if s is NIL or s is T or is_keyword(s):
                return FALL
            raise EvalError(
                "a bare variable is not a statement in a DO body: %s"
                % show(s), form=s)
        if name in ("LET", "LET*"):
            bindings, body = let_parts(s)
            pairs = let_pairs(bindings)
            for var, _rhs in pairs:
                if var.name in self.settables:
                    raise EvalError(
                        "a statement-position %s may not rebind the settable "
                        "variable %s; use SETQ" % (name, var.name), form=s)
            body = self.stmt(body)
            if name == "LET":
                return ("let", tuple(v.name for v, _rhs in pairs),
                        tuple(rhs for _v, rhs in pairs), body, s)
            for var, rhs in reversed(pairs):   # LET* nests one-binding LETs
                body = ("let", (var.name,), (rhs,), body, s)
            return body
        if name == "MV-LET":
            vars_, rhs, body = mv_let_parts(s)
            names = tuple(v.name for v in iter_conses(vars_))
            for n in names:
                if n in self.settables:
                    raise EvalError(
                        "a statement-position MV-LET may not rebind the "
                        "settable variable %s; use MV-SETQ" % n, form=s)
            return ("mv-let", names, rhs, self.stmt(body), s)
        if name == "RETURN":
            args = _cons_args(s)
            if len(args) != 1:
                raise EvalError("RETURN takes exactly one form", form=s)
            e, sig = args[0], self.values
            mv = isinstance(e, Cons) and e.car is MV
            if len(sig) == 1 and mv:
                raise EvalError("RETURN of multiple values requires a "
                                ":VALUES signature", form=s)
            if len(sig) > 1:
                if not mv:
                    raise EvalError(
                        "with :VALUES of length %d, RETURN needs a literal "
                        "(MV ..) of that arity" % len(sig), form=s)
                comps = list(iter_conses(mv_parts(e)))
                if len(comps) != len(sig):
                    raise EvalError(
                        "RETURN supplies %d values for %d :VALUES slots"
                        % (len(comps), len(sig)), form=s)
                for slot, comp in zip(sig, comps):
                    if slot is not None and not (isinstance(comp, Symbol)
                                                 and comp.name == slot):
                        raise EvalError(
                            "this RETURN slot must be the stobj %s, got %s"
                            % (slot, show(comp)), form=s)
            return ("return", e, s)
        if name == "LOOP-FINISH":
            if _cons_args(s):
                raise EvalError("LOOP-FINISH takes no arguments", form=s)
            if self.finally_mode:
                raise EvalError("LOOP-FINISH is not legal in a FINALLY "
                                "clause", form=s)
            self.saw_loop_finish = True
            return FINISH
        raise EvalError(
            "%s is not a statement; a DO body is built from if/let/let*/"
            "mv-let/progn/setq/mv-setq/return/loop-finish" % show(s), form=s)


### measure guessing

def guess_measure(spec, steps):
    """A measure from the DO body's SETQ record (see _Parser.steps)."""
    candidates = []
    for name, _typ, _init in spec.withs:
        ups = steps.get(name)
        if not ups:
            continue
        if all(_is_numeric_step(r, name) for r in ups):
            candidates.append(from_pylist([NFIX, intern(name)]))
        elif all(_is_unary(r, CDR, name) for r in ups):
            candidates.append(from_pylist([LEN, intern(name)]))
    if len(candidates) == 1:
        return candidates[0]
    raise EvalError(
        "cannot guess a :MEASURE for this DO loop (no single WITH variable "
        "is stepped only by 1-/-/cdr of itself); supply :MEASURE",
        form=spec.form)


def _is_numeric_step(r, name):
    """Whether r is (1- name) or (- name k) with k a positive integer,
    read in place: a step reaches here unchecked, and may be dotted."""
    if not (isinstance(r, Cons) and isinstance(r.cdr, Cons)):
        return False
    var, rest = r.cdr.car, r.cdr.cdr
    if not (isinstance(var, Symbol) and var.name == name):
        return False
    if r.car is ONE_MINUS:
        return rest is NIL
    return (r.car is MINUS and isinstance(rest, Cons) and rest.cdr is NIL
            and isinstance(rest.car, int) and rest.car > 0)


def _is_unary(r, head, name):
    """Whether r is (head name): a CDR step, or a LEN or NFIX measure."""
    return (isinstance(r, Cons) and r.car is head
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
    """The loop's frame: the settables, in order, to their first values.
    Each WITH init runs while the frame holds only the earlier WITH
    names, so a later name still resolves outward, in env."""
    slots = {}
    inits = Env(slots, env)
    for name, typ, init in spec.withs:
        v = interp.eval(init, inits) if init is not None else NIL
        if typ == "INTEGER":
            check_of_type(interp, name, v, form, 0)
        if isinstance(v, (MultiValue, stobjs.StobjInstance)):
            raise EvalError("WITH %s may not be initialized to a stobj or "
                            "multiple values" % name, form=form)
        slots[name] = v
    for ssym in spec.settable_symbols[len(spec.withs):]:
        slots[ssym.name] = interp.resolve_stobj(ssym, env, form)
    return slots


def _result(spec, token, value, form):
    """The loop's value, from the token and value of the walk that ended
    it: a RETURN's value checked against :VALUES, else NIL per slot."""
    sig = spec.values
    if token is not K_RETURN:
        if spec.value_stobjs:
            raise EvalError("the FINALLY clause fell through without "
                            "RETURN, but :VALUES names stobjs", form=form)
        return NIL if len(sig) == 1 else MultiValue([NIL] * len(sig))
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


### the walker

def _bind(interp, node, env, frame, spec, n):
    """Store into frame the checked values that a LET, MV-LET, SETQ or
    MV-SETQ node binds, its right-hand sides evaluated in env first."""
    tag, names, rhs, form = node[0], node[1], node[2], node[-1]
    if tag == "let":
        vals = [interp.eval(r, env) for r in rhs]
    elif tag == "setq":
        vals = (interp.eval(rhs, env),)
    else:
        val = interp.eval(rhs, env)
        if not isinstance(val, MultiValue) or len(val.values) != len(names):
            raise EvalError("%s expected %d values"
                            % (form.car.name, len(names)), form=form)
        vals = val.values
    for name, v in zip(names, vals):
        # only settables have types, and only SETQ and MV-SETQ bind them
        if name in spec.integer_vars:
            check_of_type(interp, name, v, form, n)
        interp.check_binding(name, v, form)
        frame[name] = v


def _walk(interp, node, env, slots, spec, n):
    """Run a statement tree, assigning each SETQ and MV-SETQ into slots,
    the frame at the root of env.  Returns (token, value)."""
    while True:
        tag = node[0]
        if tag == "seq":
            for effect in node[1]:
                if effect[0] != "setq":
                    _walk(interp, effect, env, slots, spec, n)
                    continue
                # _bind's SETQ case, without the call.  An integer passes
                # both checks when no stobj is settable: _parse_do keeps
                # stobj names out of WITH, and no event runs in a loop.
                name, form = effect[1][0], effect[3]
                v = interp.eval(effect[2], env)
                if spec.value_stobjs or not isinstance(v, int):
                    if name in spec.integer_vars:
                        check_of_type(interp, name, v, form, n)
                    interp.check_binding(name, v, form)
                slots[name] = v
            node = node[2]
        elif tag == "if":
            test = interp.eval(node[1], env)
            if isinstance(test, (MultiValue, stobjs.StobjInstance)):
                stobjs.value_check(test, "an IF test", node[4])
            node = node[2] if truthy(test) else node[3]
        elif tag == "setq" or tag == "mv-setq":
            _bind(interp, node, env, slots, spec, n)
            return NIL, NIL
        elif tag == "return":
            return K_RETURN, interp.eval(node[1], env)
        elif tag == "finish":
            return K_FINISH, NIL
        elif tag == "fall":
            return NIL, NIL
        else:
            frame = {}
            _bind(interp, node, env, frame, spec, n)
            env = Env(frame, env)
            node = node[3]


### the measured recursive path

# The alist of a DO loop lists the settables in order, one (name . value)
# entry each.  run_do walks one frame of slots for the whole loop, whose
# keys stay in that order, and conses an alist from its values only for
# the trace and for the texts of a :GUARD or measure violation.

def _build_alist(spec, values):
    """The alist of the settables to values, given in settable order."""
    return from_pylist([Cons(sym, v) for sym, v
                        in zip(spec.settable_symbols, values)])


def _triple(token, value, alist):
    if isinstance(value, MultiValue):
        value = from_pylist(value.values)
    return from_pylist([token, value, alist])


def _measure(interp, spec, env, held):
    """The loop's measure in env.  A (NFIX v) measure reads v in place.
    A (LEN v) measure reads held, the list last seen in v and its length,
    and updates it, so stepping v by CDR costs O(1) per check.  No event
    can rebind NFIX or LEN, and a WITH variable never holds a stobj or
    multiple values."""
    if spec.measure_var is None:
        return interp.eval(spec.measure_form, env)
    v = env.vars[spec.measure_var]
    if held is None:
        return v if isinstance(v, int) and v >= 0 else 0
    last = held[0]
    if v is not last:
        held[1] = held[1] - 1 if isinstance(last, Cons) and v is last.cdr \
            else list_length(v)
        held[0] = v
    return held[1]


def run_do(interp, spec, env, form):
    slots = initial_bindings(interp, spec, env, form)
    env = Env(slots)
    values = slots.values()   # a live view, in settable order
    alist = _build_alist(spec, values) if interp.trace else None
    n = 0
    m_cur = None
    # a (LEN v) measure's [list last seen in v, its length]; see _measure
    held = [None, 0] if spec.measure_var is not None \
        and spec.measure_form.car is LEN else None
    while True:
        n += 1
        if spec.guard is not None and interp.guard_check:
            if not truthy(interp.eval(spec.guard, env)):
                raise GuardViolation(
                    "loop :GUARD %s failed entering iteration %d with %s"
                    % (show(spec.guard), n, show(_build_alist(spec, values))),
                    form=form)
        if m_cur is None:
            m_cur = lex_fix(_measure(interp, spec, env, held))
        if interp.trace:
            interp.loop_measures.append(m_cur)
        entry = tuple(values)
        token, val = _walk(interp, spec.do_tree, env, slots, spec, n)
        if interp.trace:
            new_alist = _build_alist(spec, values)
            interp.do_trace.append(("do", alist,
                                    _triple(token, val, new_alist)))
            alist = new_alist
        if token is K_RETURN:
            return _result(spec, token, val, form)
        if token is K_FINISH:
            if spec.finally_tree is not None:
                token, val = _walk(interp, spec.finally_tree, env, slots,
                                   spec, n)
                if interp.trace:
                    interp.do_trace.append(
                        ("finally", alist,
                         _triple(token, val, _build_alist(spec, values))))
            return _result(spec, token, val, form)
        m_new = lex_fix(_measure(interp, spec, env, held))
        if not l_less(m_new, m_cur):
            raise MeasureViolation(
                "the measure %s of this DO loop failed to decrease at "
                "iteration %d: %s (from %s) is not below %s (from %s)"
                % (show(spec.measure_form), n, lex_show(m_new),
                   show(_build_alist(spec, values)), lex_show(m_cur),
                   show(_build_alist(spec, entry))), form=form)
        m_cur = m_new


### the native imperative path

def native_exec(interp, spec, env, form):
    slots = initial_bindings(interp, spec, env, form)
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
        token, val = _walk(interp, spec.do_tree, base, slots, spec, n)
        if token is K_RETURN:
            return _result(spec, token, val, form)
        if token is K_FINISH:
            if spec.finally_tree is not None:
                token, val = _walk(interp, spec.finally_tree, base, slots,
                                   spec, n)
            return _result(spec, token, val, form)


### FOR loops

def for_exec(interp, spec, env, form):
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
    make_do_plan(spec, interp.world)
    if interp.mode == "native":
        return native_exec(interp, spec, env, form)
    return run_do(interp, spec, env, form)
