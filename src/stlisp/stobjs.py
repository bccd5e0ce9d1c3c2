"""Single-threaded objects.

A stobj has a dual nature: logically it is a proper list of its field
values; during evaluation it is a mutable instance updated in place
(native mode) or copied on write (logical mode).  _write and _table
are the only places a stobj write reads the mode.  The two views stay
interchangeable because every body (a defun's, a top-level form, an
APPLY$ lambda's) passes admit, a static check, before it runs:

  R1  every name is bound where the evaluator reads it (a formal, a
      local or a live stobj), and a DO loop's :GUARD, :MEASURE and
      statements see only the loop's settables and their own locals; a
      stobj name may appear only in a stobj argument position of a call
      typed for it (or be returned); a DO loop's expressions may hold no
      statement, LOOP$ or STOBJ-LET;
  R2  a call returning a stobj must have its result rebound to the
      same name, or be in return position;
  R3  a stobj is never bound to a different name, never passed twice
      in one argument list, and its name is never bound to an
      ordinary value (by LET, LET*, MV-LET, a stobj-let output, a FOR
      variable or a lambda formal); a LET or MV-LET binds each name
      once;
  R4  both branches of an IF must agree on which stobjs they return.

Fields are either scalars or stobj-tables; arrays and strings are out
of scope and rejected up front.
"""

from . import sexpr, stobj_table
from .sexpr import NIL, T, Cons, Env, Symbol, intern, show, from_bool
from .errors import EvalError, LinearityError
from .stobj_table import TableCell

QUOTE = intern("QUOTE")
IF = intern("IF")
LET = intern("LET")
LETSTAR = intern("LET*")
MV = intern("MV")
MV_LET = intern("MV-LET")
LOOPS = intern("LOOP$")
STOBJ_LET = intern("STOBJ-LET")

# Shape vocabulary for callable signatures.  An input slot is None
# (ordinary value) or a stobj name; an output is a tuple of None / stobj
# names, or UNKNOWN while self-recursive shapes are being inferred.
# UNKNOWN is empty, so every length check rejects it.
UNKNOWN = ()

SCALAR = "scalar"
TABLE = "table"


class FieldSpec:
    __slots__ = ("name", "kind", "initial")

    def __init__(self, name, kind, initial=NIL):
        self.name = name
        self.kind = kind
        self.initial = initial


class StobjSpec:
    __slots__ = ("name", "fields", "single")

    def __init__(self, name, fields):
        self.name = name
        self.fields = tuple(fields)
        self.single = len(self.fields) == 1

    def fresh(self):
        return StobjInstance(self, [TableCell({}) if f.kind == TABLE
                                    else f.initial for f in self.fields])


class StobjInstance:
    """Live execution view of a stobj.

    A one-field stobj stores the field directly in `cells` with no
    list around it, which is invisible to every accessor.  This saves
    memory, not time: with 128 one-field children in one table, giving
    each child a one-element list raised the benchmark's `table_mix`
    peak by about 7%.
    """

    __slots__ = ("spec", "cells")

    def __init__(self, spec, cells):
        self.spec = spec
        self.cells = cells[0] if spec.single else cells

    @property
    def print_name(self):
        return "<%s>" % self.spec.name

    def get_cell(self, i):
        if self.spec.single:
            return self.cells
        return self.cells[i]

    def set_cell(self, i, v):
        if self.spec.single:
            self.cells = v
        else:
            self.cells[i] = v

    def with_cell(self, i, v):
        cells = [self.get_cell(j) for j in range(len(self.spec.fields))]
        cells[i] = v
        return StobjInstance(self.spec, cells)

    def logical_view(self):
        out = NIL
        for i in reversed(range(len(self.spec.fields))):
            cell = self.get_cell(i)
            if self.spec.fields[i].kind == TABLE:
                out = Cons(stobj_table.logical_view(cell), out)
            else:
                out = Cons(cell, out)
        return out

    def __repr__(self):
        return self.print_name


### defstobj parsing

_SUPPORTED = "supported field kinds: scalar (:type t) and (:type (stobj-table))"


def parse_defstobj(form):
    args = list_items(form, "defstobj form", form)
    if len(args) < 3:
        raise EvalError("defstobj needs a name and at least one field",
                        form=form)
    name = args[1]
    if not isinstance(name, Symbol):
        raise EvalError("defstobj name must be a symbol", form=form)
    bindable(name, "stobj name", form)
    fields = []
    seen = set()
    for fform in args[2:]:
        field = _parse_field(fform, form)
        if field.name in seen:
            raise EvalError("duplicate field %s in defstobj %s"
                            % (field.name, name.name), form=form)
        seen.add(field.name)
        fields.append(field)
    return StobjSpec(name.name, fields)


def _parse_field(fform, whole):
    if isinstance(fform, Symbol):
        return FieldSpec(fform.name, SCALAR, NIL)
    parts = list_items(fform, "field spec", whole)
    if not parts or not isinstance(parts[0], Symbol):
        raise EvalError("malformed field spec %s" % show(fform), form=whole)
    fname = parts[0].name
    kind = SCALAR
    initial = NIL
    i = 1
    while i < len(parts):
        key = parts[i]
        if not sexpr.is_keyword(key) or i + 1 >= len(parts):
            raise EvalError("malformed field spec %s" % show(fform), form=whole)
        val = parts[i + 1]
        if key.name == ":TYPE":
            kind = _parse_type(val, fform, whole)
        elif key.name == ":INITIALLY":
            initial = val
        else:
            raise EvalError("unsupported field option %s; %s"
                            % (key.name, _SUPPORTED), form=whole)
        i += 2
    if kind == TABLE and initial is not NIL:
        raise EvalError(":initially is not meaningful for a stobj-table field",
                        form=whole)
    return FieldSpec(fname, kind, initial)


def _parse_type(spec, fform, whole):
    if isinstance(spec, Symbol):
        if spec is T:
            return SCALAR
        raise EvalError("unsupported field type %s in %s; %s"
                        % (show(spec), show(fform), _SUPPORTED), form=whole)
    if isinstance(spec, Cons) and isinstance(spec.car, Symbol):
        head = spec.car.name
        if head == "STOBJ-TABLE":
            # An optional size hint is accepted and ignored.
            return TABLE
        if head == "ARRAY":
            raise EvalError("array fields are not supported; %s" % _SUPPORTED,
                            form=whole)
    raise EvalError("unsupported field type %s in %s; %s"
                    % (show(spec), show(fform), _SUPPORTED), form=whole)


### generated operations

class GeneratedOp:
    __slots__ = ("kind", "spec", "findex", "name")

    def __init__(self, kind, spec, findex, name):
        self.kind = kind
        self.spec = spec
        self.findex = findex
        self.name = name

    def run(self, interp, vals, form):
        return apply_generated(interp, self, vals, form)


# Kinds of generated op that only stobj-let may call.
STOBJ_LET_ONLY = frozenset(("create", "tbl-get", "tbl-put"))


def generated_ops(spec):
    ops = [GeneratedOp("create", spec, None, "CREATE-" + spec.name),
           GeneratedOp("recognize", spec, None, spec.name + "P")]
    for i, f in enumerate(spec.fields):
        if f.kind == SCALAR:
            ops.append(GeneratedOp("get", spec, i, f.name))
            ops.append(GeneratedOp("update", spec, i, "UPDATE-" + f.name))
        else:
            for suffix, kind in (("GET", "tbl-get"), ("PUT", "tbl-put"),
                                 ("BOUNDP", "tbl-boundp"), ("REM", "tbl-rem"),
                                 ("COUNT", "tbl-count"), ("CLEAR", "tbl-clear")):
                ops.append(GeneratedOp(kind, spec, i, f.name + "-" + suffix))
    return ops


# kind -> (inputs, outputs) of a generated op of the stobj named s.  Built
# per call: kept on every op, the tuples cost memory in stobj-heavy
# programs.
_OP_SHAPES = {
    "create": lambda s: ((), (s,)),
    "recognize": lambda s: ((None,), (None,)),
    "get": lambda s: ((s,), (None,)),
    "update": lambda s: ((None, s), (s,)),
    "tbl-get": lambda s: ((None, s, None), (None,)),    # stobj-let only
    "tbl-put": lambda s: ((None, None, s), (s,)),       # writeback only
    "tbl-boundp": lambda s: ((None, s), (None,)),
    "tbl-rem": lambda s: ((None, s), (s,)),
    "tbl-count": lambda s: ((s,), (None,)),
    "tbl-clear": lambda s: ((s,), (s,)),
}


def target_shape(target):
    """(inputs, outputs) of a defun, signature or generated op, for the
    static checker and call dispatch."""
    if type(target) is GeneratedOp:
        return _OP_SHAPES[target.kind](target.spec.name)
    return target.inputs, target.outputs


def recognizer_value(spec, x):
    # Logically a stobj is a proper list of the right arity.  Field
    # values themselves are unconstrained (scalar fields are untyped
    # and a table field's recognizer is constant truth), so arity and
    # proper-list-ness are the whole check.
    if isinstance(x, StobjInstance):
        return from_bool(x.spec is spec)
    return from_bool(_proper_length(x) == len(spec.fields))


def _write(interp, inst, i, v):
    """inst with field i set to v: inst itself in native mode, a new
    instance in logical mode."""
    if interp.mode == "native":
        inst.set_cell(i, v)
        return inst
    return inst.with_cell(i, v)


def _table(interp, inst, i):
    """Field i's table, to change and store back with _write: the live
    cell in native mode, a copy in logical mode."""
    cell = inst.get_cell(i)
    return cell if interp.mode == "native" else cell.copy()


def apply_generated(interp, op, args, form):
    kind = op.kind
    if kind == "get":
        inst = args[0]    # get_cell, read in place
        return inst.cells if inst.spec.single else inst.cells[op.findex]
    if kind == "update":
        return _write(interp, args[1], op.findex, args[0])
    if kind == "recognize":
        return recognizer_value(op.spec, args[0])
    if kind == "tbl-boundp":
        key = stobj_table.check_key(args[0], form)
        return from_bool(key in args[1].get_cell(op.findex).data)
    if kind == "tbl-count":
        return len(args[0].get_cell(op.findex).data)
    if kind == "tbl-rem":
        key = stobj_table.check_key(args[0], form)
        cell = _table(interp, args[1], op.findex)
        cell.data.pop(key, None)
        return _write(interp, args[1], op.findex, cell)
    # tbl-clear: admission and the APPLY$ badge refuse every call of a
    # create, tbl-get or tbl-put op (STOBJ_LET_ONLY), so none comes here.
    return _write(interp, args[0], op.findex, TableCell({}))


### stobj-let

class StobjLetSpec:
    __slots__ = ("bindings", "outputs", "producer", "consumer")

    def __init__(self, bindings, outputs, producer, consumer):
        # ((child Symbol, parent Symbol, tbl-get op, create op), ..)
        self.bindings = bindings
        self.outputs = outputs      # (Symbol, ..)
        self.producer = producer
        self.consumer = consumer


def parse_stobj_let(form, world):
    """The checked parts of a stobj-let.  The evaluator keeps the result
    per form in its World (see eval_stobj_let)."""
    args = list_items(form, "stobj-let form", form)
    if len(args) != 5:
        raise EvalError(
            "stobj-let takes bindings, outputs, a producer, and a consumer",
            form=form)
    _, bindings_form, outputs_form, producer, consumer = args
    bindings = []
    for bform in list_items(bindings_form, "stobj-let bindings", form):
        parts = list_items(bform, "stobj-let binding", form)
        if len(parts) != 2 or not isinstance(parts[0], Symbol):
            raise EvalError("malformed stobj-let binding %s" % show(bform),
                            form=form)
        child, accessor = parts
        if world.stobj_spec(child.name) is None:
            raise EvalError("stobj-let binds %s, which is not a defined stobj"
                            % child.name, form=form)
        if any(b[0] is child for b in bindings):
            raise EvalError(
                "stobj-let binds %s twice; one binding per child, and the "
                "same child may not be drawn from two tables" % child.name,
                form=form)
        bindings.append(_parse_accessor(child, accessor, world, form))
    outputs = list_items(outputs_form, "stobj-let outputs", form)
    if not outputs or not all(isinstance(o, Symbol) for o in outputs):
        raise EvalError("stobj-let outputs must be a non-empty list of names",
                        form=form)
    for o in outputs:
        bindable(o, "stobj-let output", form)
    if len(set(outputs)) != len(outputs):
        raise EvalError("duplicate stobj-let output", form=form)
    return StobjLetSpec(tuple(bindings), tuple(outputs), producer, consumer)


def _parse_accessor(child, accessor, world, form):
    parts = (list_items(accessor, "stobj-let accessor", form)
             if isinstance(accessor, Cons) else None)
    if not parts or len(parts) != 4 or not isinstance(parts[0], Symbol):
        raise EvalError(
            "stobj-let accessor for %s must be (<table>-GET 'key parent "
            "default)" % child.name, form=form)
    opname, keyform, parentform, default = parts
    entry = world.genops.get(opname.name)
    if entry is None or entry.kind != "tbl-get":
        raise EvalError("%s is not a stobj-table get operation" % opname.name,
                        form=form)
    key = quote_parts(keyform) if isinstance(keyform, Cons) \
        and keyform.car is QUOTE else None
    if not isinstance(key, Symbol):
        raise EvalError("stobj-let key must be a quoted symbol in %s"
                        % show(accessor), form=form)
    if key is not child:
        raise EvalError("stobj-let binds %s but looks up key %s; the bound "
                        "name and the key must agree" % (child.name, key.name),
                        form=form)
    parent = entry.spec.name
    if not isinstance(parentform, Symbol) or parentform.name != parent:
        raise EvalError("%s reads the table of stobj %s, not %s"
                        % (opname.name, parent, show(parentform)), form=form)
    creator = _creator_call(default, world)
    if creator is None or creator.spec.name != child.name:
        raise EvalError(
            "stobj-table default for key %s must be (CREATE-%s); a creator "
            "for a different stobj does not match the key"
            % (key.name, key.name), form=form)
    return (child, parentform, entry, creator)


def _creator_call(form, world):
    if isinstance(form, Cons) and isinstance(form.car, Symbol) \
            and form.cdr is NIL:
        entry = world.genops.get(form.car.name)
        if entry is not None and entry.kind == "create":
            return entry
    return None


def eval_stobj_let(interp, form, env):
    # One parse per form per World, kept only if it succeeds; admission
    # keeps the parses of the forms it checks.  Only undo can change what
    # a parse read, and World.rebuild empties the table.  A parent bound
    # in the innermost frame, each child's table cell, and a consumer
    # that names an entry of the written-back frame are read in place,
    # without eval, get_cell or a consumer Env.
    world = interp.world
    spec = world.stobj_lets.get(form)
    if spec is None:
        spec = world.stobj_lets[form] = parse_stobj_let(form, world)

    # The producer's frame holds the children.  Admission has hidden the
    # parents from the producer, and the children from the consumer, so
    # neither frame needs to shadow them, and each output has the shape
    # the analyzer's R2 gave it: a child output is that child's stobj.
    parents = {}     # parent name -> instance
    frame = {}
    for child, parent_sym, op, creator in spec.bindings:
        pname = parent_sym.name
        parent = parents.get(pname)
        if parent is None:
            if env is not None and pname in env.vars:
                parent = env.vars[pname]
            else:
                parent = interp.eval(parent_sym, env)
            parents[pname] = parent
        cell = parent.cells if parent.spec.single else parent.cells[op.findex]
        hit = cell.data.get(child)
        # A miss creates the default child; nothing else runs it.
        frame[child.name] = creator.spec.fresh() if hit is None else hit

    result = interp.eval(spec.producer, Env(frame, env))
    values = result.values if isinstance(result, sexpr.MultiValue) \
        else (result,)

    # The consumer's frame: the written-back parents, then the outputs
    # that are not children.
    for out, val in zip(spec.outputs, values):
        for child, parent_sym, op, _creator in spec.bindings:
            if child is out:
                break
        else:
            parents[out.name] = val
            continue
        parent = parents[parent_sym.name]
        cell = _table(interp, parent, op.findex)
        cell.data[out] = val
        parents[parent_sym.name] = _write(interp, parent, op.findex, cell)
    consumer = spec.consumer
    if type(consumer) is Symbol and consumer.name in parents:
        return parents[consumer.name]
    return interp.eval(consumer, Env(parents, env))


### static single-threadedness analysis

class Analyzer:
    def __init__(self, world, fname=None, self_inputs=(), self_output=None):
        self.world = world
        self.fname = fname
        self.self_inputs = self_inputs
        self.self_output = self_output
        self.violations = []
        self.saw_self = False
        # form -> StobjLetSpec, for each stobj-let that World.stobj_lets
        # lacks: kept there only once the form is admitted
        self.stobj_lets = {}
        self.produced = None    # stobjs returned by calls in a producer
        # (what, settables) inside a DO loop's :GUARD, :MEASURE and
        # statements: it bars statement heads there, and _free's text
        # names the scope and its settables
        self.loop_scope = None

    def err(self, rule, msg):
        text = "%s: %s" % (rule, msg)
        if text not in self.violations:
            self.violations.append(text)

    # live: name -> stobj name for stobjs in scope
    # bound: set of ordinary variable names in scope
    def analyze(self, expr, live, bound):
        if isinstance(expr, Symbol):
            if expr.name in live:
                return (live[expr.name],)
            if expr.name not in bound and not self._free(expr, live, bound) \
                    and self.world.stobj_spec(expr.name) is not None:
                self.err("R1", "stobj %s is used without being declared or "
                               "bound here" % expr.name)
            return (None,)
        if not isinstance(expr, Cons):
            return (None,)
        head = expr.car
        if not isinstance(head, Symbol):
            self.err("R1", "call head must be a symbol in %s" % show(expr))
            return (None,)
        name = head.name
        if head is QUOTE:
            self._parse(quote_parts, expr)
            return (None,)
        if head is IF:
            return self._analyze_if(expr, live, bound)
        if head is LET or head is LETSTAR:
            return self._analyze_let(expr, live, bound,
                                     sequential=head is LETSTAR)
        if head is MV:
            return self._analyze_mv(expr, live, bound)
        if head is MV_LET:
            return self._analyze_mv_let(expr, live, bound)
        if self.loop_scope is not None:
            if head is STOBJ_LET or head is LOOPS:
                self.err("R1", "%s is not supported inside a DO body in %s"
                         % (name, show(expr)))
                return (None,)
            if name in DO_ONLY_HEADS:
                self.err("R1", "%s is a statement and may not appear inside "
                               "%s in %s" % (name, self.loop_scope[0],
                                             show(expr)))
                return (None,)
        if head is STOBJ_LET:
            return self._analyze_stobj_let(expr, live, bound)
        if head is LOOPS:
            return self._analyze_loop(expr, live, bound)
        if name in DO_ONLY_HEADS:
            self.err("R1", "%s is legal only inside DO and FINALLY bodies"
                     % name)
            return (None,)
        if name in EVENT_HEADS:
            self.err("R1", "%s is only legal at the top level" % name)
            return (None,)
        if name == "DECLARE":
            self.err("R1", "misplaced declare form %s" % show(expr))
            return (None,)
        return self._analyze_call(expr, live, bound)

    def _free(self, expr, live, bound):
        """Record, and return True for, a name that nothing binds here; a
        stobj name outside a loop is left to the caller, by its position."""
        if not isinstance(expr, Symbol) or expr.name in live \
                or expr.name in bound or expr is NIL or expr is T \
                or sexpr.is_keyword(expr):
            return False
        scope = self.loop_scope
        if scope is not None:
            text = "%s is not bound in %s (settable variables: %s)" % (
                expr.name, scope[0], " ".join(scope[1]) or "none")
        elif self.world.stobj_spec(expr.name) is not None:
            return False
        elif self.fname is None:
            raise EvalError("unbound variable %s" % expr.name, form=expr)
        else:
            text = "unbound variable %s" % expr.name
        self.err("R1", "%s in %s" % (text, expr.name))
        return True

    def _parse(self, parse, *args):
        """parse(*args), or None with its error recorded under R1."""
        try:
            return parse(*args)
        except EvalError as e:
            self.err("R1", str(e))
            return None

    def want_value(self, expr, live, bound, what):
        sh = self.analyze(expr, live, bound)
        if len(sh) != 1:
            self.err("R2", "multiple values are not a single value in %s"
                     % what)
            return
        if sh[0] is not None:
            self.err("R1", "stobj %s may not appear in %s" % (sh[0], what))

    def _analyze_if(self, expr, live, bound):
        args = self._parse(if_parts, expr)
        if args is None:
            return (None,)
        test, then, els = args
        self.want_value(test, live, bound, "an IF test")
        sh_t = self.analyze(then, live, bound)
        sh_f = (None,) if els is None else self.analyze(els, live, bound)
        return self._unify(sh_t, sh_f, expr)

    def _unify(self, a, b, expr):
        if a is UNKNOWN:
            return b
        if b is UNKNOWN:
            return a
        if a != b:
            self.err("R4", "the branches of %s return different stobjs "
                           "(%s vs %s)" % (show(expr), _shape_str(a),
                                           _shape_str(b)))
        return a

    def _bind_one(self, name, shape, live, bound, expr):
        """Extend scope maps for one binding of name; enforces R2/R3."""
        if shape is UNKNOWN:
            # Self-recursive call: adopt the binding name's own typing.
            shape = (live.get(name),)
        if len(shape) != 1:
            self.err("R2", "LET binds multiple values in %s" % show(expr))
            shape = (None,)
        slot = shape[0]
        live = dict(live)
        bound = set(bound)
        if slot is not None:
            if name != slot:
                self.err("R2+R3",
                         "the result of a call returning stobj %s must be "
                         "rebound to the name %s, not %s" % (slot, slot, name))
            live[name] = slot
        else:
            if name in live:
                self.err("R3", "stobj name %s may not be rebound to an "
                               "ordinary value" % name)
                live.pop(name)
            elif self.world.stobj_spec(name) is not None:
                self.err("R3", "stobj name %s may not be used as an ordinary "
                               "variable" % name)
            bound.add(name)
        return live, bound

    def _analyze_let(self, expr, live, bound, sequential):
        parts = self._parse(let_parts, expr)
        if parts is None:
            return (None,)
        bindings, body = let_pairs(parts[0]), parts[1]
        if not sequential:
            # each right-hand side sees the scope outside the LET
            shapes = [self.analyze(rhs, live, bound) for _var, rhs in bindings]
            if len(bindings) > 1:
                self._check_parallel(bindings, shapes)
        cur_live, cur_bound = live, bound
        rebound = []
        for i, (var, rhs) in enumerate(bindings):
            sh = (self.analyze(rhs, cur_live, cur_bound) if sequential
                  else shapes[i])
            cur_live, cur_bound = self._bind_one(var.name, sh, cur_live,
                                                 cur_bound, expr)
            if var.name in cur_live:
                rebound.append(cur_live[var.name])
        bsh = self.analyze(body, cur_live, cur_bound)
        self._require_returned(rebound, bsh, "LET")
        return bsh

    def _require_returned(self, rebound, body_shape, binder):
        for sname in rebound:
            if sname not in body_shape:
                self.err("R2", "stobj %s is bound in this %s but is not "
                               "among the values of its body; the update "
                               "would be discarded" % (sname, binder))

    def _check_parallel(self, bindings, shapes):
        # In a parallel LET, a binding that consumes a stobj must be the
        # only binding mentioning that stobj, or evaluation order would
        # be observable.  shapes are those of the right-hand sides.
        returning = [sh[0] for sh in shapes if len(sh) == 1
                     and sh[0] is not None]
        for var, rhs in bindings:
            for name in returning:
                if var.name != name and _mentions(rhs, name):
                    self.err("R3", "parallel LET both updates and reads "
                                   "stobj %s" % name)

    def _analyze_mv(self, expr, live, bound):
        args = self._parse(mv_parts, expr)
        if args is None:
            return (None,)
        slots = []
        seen = set()
        for a in sexpr.iter_conses(args):
            if isinstance(a, Symbol) and a.name in live:
                if a.name in seen:
                    self.err("R3", "stobj %s appears twice in %s"
                             % (a.name, show(expr)))
                seen.add(a.name)
                slots.append(live[a.name])
            else:
                self.want_value(a, live, bound, "an MV component (a stobj "
                                                "must be returned by name)")
                slots.append(None)
        return tuple(slots)

    def _analyze_mv_let(self, expr, live, bound):
        parts = self._parse(mv_let_parts, expr)
        if parts is None:
            return (None,)
        vars_, rhs, body = parts
        vars_ = list(sexpr.iter_conses(vars_))
        sh = self._mv_shape(rhs, [v.name for v in vars_], live, bound, expr)
        cur_live, cur_bound = live, bound
        for var, slot in zip(vars_, sh):
            cur_live, cur_bound = self._bind_one(var.name, (slot,), cur_live,
                                                 cur_bound, expr)
        bsh = self.analyze(body, cur_live, cur_bound)
        self._require_returned([s for s in sh if s is not None], bsh,
                               "MV-LET")
        return bsh

    def _mv_shape(self, rhs, names, live, bound, expr):
        """The shape of an MV-LET right-hand side binding names."""
        sh = self.analyze(rhs, live, bound)
        if len(sh) != len(names):
            self.err("R2", "MV-LET binds %d names to %d values in %s"
                     % (len(names), len(sh), show(expr)))
            sh = tuple(live.get(n) for n in names)
        return sh

    def _analyze_stobj_let(self, expr, live, bound):
        spec = self.world.stobj_lets.get(expr) or self.stobj_lets.get(expr)
        if spec is None:
            spec = self._parse(parse_stobj_let, expr, self.world)
            if spec is None:
                return (None,)
            self.stobj_lets[expr] = spec
        parents = set()
        children = {}
        for child, parent_sym, _op, _creator in spec.bindings:
            pname = parent_sym.name
            if pname not in live:
                self.err("R1", "stobj-let parent %s is not a live stobj here"
                         % pname)
            parents.add(pname)
            children[child.name] = child.name
        body_live = {k: v for k, v in live.items() if k not in parents}
        # a child that is its own parent stays hidden
        body_live.update((c, c) for c in children if c not in parents)
        outer, self.produced = self.produced, set()
        psh = self.analyze(spec.producer, body_live, bound)
        produced, self.produced = self.produced, outer
        if outer is not None:
            outer |= produced
        out_names = [o.name for o in spec.outputs]
        expected = tuple(children.get(n) for n in out_names)
        if len(psh) != len(expected):
            self.err("R2", "stobj-let producer returns %d values for %d "
                           "outputs" % (len(psh), len(expected)))
        else:
            for slot, want, n in zip(psh, expected, out_names):
                if slot != want:
                    self.err("R2", "stobj-let output %s expects %s but the "
                                   "producer returns %s"
                             % (n, _shape_str((want,)), _shape_str((slot,))))
        written = set(n for n in out_names if n in children)
        for cname in children:
            if cname not in written and cname in produced:
                self.err("R2", "child %s is updated in the producer but is "
                               "not among the stobj-let outputs" % cname)
        # An output that is not a child binds an ordinary value, as a LET
        # variable does.
        cons_live = {k: v for k, v in live.items() if k not in children}
        cons_bound = bound
        for out in spec.outputs:
            if out.name not in children:
                cons_live, cons_bound = self._bind_one(
                    out.name, (None,), cons_live, cons_bound, expr)
        csh = self.analyze(spec.consumer, cons_live, cons_bound)
        if written:
            for pname in parents:
                if pname not in csh:
                    self.err("R2", "stobj-let updates children of %s, so its "
                                   "consumer must return %s or the update "
                                   "would be discarded" % (pname, pname))
        return csh

    def _analyze_loop(self, expr, live, bound):
        from . import loops
        spec = self._parse(loops.parse_loop, expr, self.world)
        if spec is None:
            return (None,)
        if spec.kind == "FOR":
            self.want_value(spec.for_range, live, bound, "a FOR range")
            live, bound = self._bind_one(spec.for_var.name, (None,), live,
                                         bound, expr)
            self.want_value(spec.for_body, live, bound, "a FOR body")
            return (None,)
        bound = set(bound)   # each WITH init sees the earlier WITH names
        for name, _typ, init in spec.withs:
            if init is not None:
                self.want_value(init, live, bound, "a WITH initial value")
            bound.add(name)
        for sname in spec.values:
            if sname is not None and live.get(sname) != sname:
                self.err("R1", ":VALUES stobj %s is not a live stobj here"
                         % sname)
        # A plan that failed after its statement trees were built (say, no
        # :MEASURE could be guessed) still has what it built checked.
        self._parse(loops.make_do_plan, spec, self.world)
        if spec.do_tree is None:
            return tuple(spec.values)
        # The loop sees the settables only: :VALUES stobjs and WITH names.
        live = {s: s for s in spec.value_stobjs}
        bound = {name for name, _typ, _init in spec.withs}
        outer = self.loop_scope
        if spec.guard is not None:
            self.loop_scope = (":GUARD", spec.settables)
            self.want_value(spec.guard, live, bound, "a loop :GUARD")
        if spec.measure_form is not None:
            self.loop_scope = (":MEASURE", spec.settables)
            self.want_value(spec.measure_form, live, bound,
                            "a loop :MEASURE")
        self.loop_scope = ("a DO-body expression", spec.settables)
        for tree in (spec.do_tree, spec.finally_tree):
            if tree is not None:
                self._analyze_stmt(tree, live, bound, spec.values)
        self.loop_scope = outer
        return tuple(spec.values)

    def _analyze_stmt(self, node, live, bound, values):
        """Check a DO or FINALLY statement tree (see loops.make_do_plan).

        An assignment must keep the shape of its targets and a RETURN
        must have the shape of :VALUES, so an update the native path
        keeps is never one the logical path drops.
        """
        tag = node[0]
        if tag == "seq":
            for effect in node[1]:
                self._analyze_stmt(effect, live, bound, values)
            self._analyze_stmt(node[2], live, bound, values)
        elif tag == "if":
            self.want_value(node[1], live, bound, "an IF test")
            self._analyze_stmt(node[2], live, bound, values)
            self._analyze_stmt(node[3], live, bound, values)
        elif tag == "let" or tag == "mv-let":
            _tag, names, rhs, body, form = node
            if tag == "let":
                shapes = [self.analyze(r, live, bound) for r in rhs]
            else:
                shapes = [(s,) for s in self._mv_shape(rhs, names, live,
                                                       bound, form)]
            for name, sh in zip(names, shapes):
                live, bound = self._bind_one(name, sh, live, bound, form)
            self._analyze_stmt(body, live, bound, values)
        elif tag == "setq" or tag == "mv-setq":
            want = tuple(live.get(n) for n in node[1])
            self._want_shape(node[2], want, live, bound, node[3])
        elif tag == "return":
            self._want_shape(node[1], tuple(values), live, bound, node[2])

    def _want_shape(self, expr, want, live, bound, stmt):
        sh = self.analyze(expr, live, bound)
        if sh != want:
            self.err("R2", "%s needs values shaped %s, got %s"
                     % (show(stmt), _shape_str(want), _shape_str(sh)))

    def _analyze_call(self, expr, live, bound):
        name = expr.car.name
        args = ()
        try:
            args = _cons_args(expr)
            entry = self.world.genops.get(name)
            if entry is not None and entry.kind in STOBJ_LET_ONLY:
                where = {"create": "as a stobj-table default inside stobj-let",
                         "tbl-get": "inside stobj-let bindings",
                         "tbl-put": "through stobj-let writeback"}[entry.kind]
                self.err("R1", "%s may only be used %s" % (name, where))
                return (None,)
            inputs, outputs = self._shape_of(name, len(args))
        except EvalError as e:
            # Top-level checking (no fname) raises dotted-list,
            # undefined-function and arity problems directly; inside a
            # defun they are collected as violations so a bad definition
            # reports everything at once.
            if self.fname is None:
                raise EvalError(e.message, form=expr)
            self.err("R1", "%s in %s" % (e.message, show(expr)))
            for a in args:
                if not (isinstance(a, Symbol) and a.name in live):
                    self.want_value(a, live, bound,
                                    "an argument of %s" % name)
            return (None,)
        for arg, slot in zip(args, inputs):
            if slot is None:
                if isinstance(arg, Symbol) and arg.name in live:
                    self.err("R1", "stobj %s passed where %s expects an "
                                   "ordinary value" % (arg.name, name))
                else:
                    self.want_value(arg, live, bound,
                                    "an argument of %s" % name)
            elif not (isinstance(arg, Symbol) and arg.name == slot
                      and live.get(slot) == slot) \
                    and not self._free(arg, live, bound):
                self.err("R1", "%s expects the stobj %s in this position of "
                               "%s" % (name, slot, show(expr)))
        if outputs is UNKNOWN:
            self.saw_self = True
            return UNKNOWN
        if self.produced is not None:
            self.produced.update(outputs)
        return outputs

    def _shape_of(self, name, nargs):
        """(inputs, outputs) of a call, checking arity as World.callee
        does: the evaluator does not check it again."""
        if name == self.fname:
            n = len(self.self_inputs)
            if nargs != n:
                arity_error(name, nargs, n, n)
            return (self.self_inputs, self.self_output)
        return self.world.callee(name, nargs)[1:]


def list_items(v, what, form):
    """The elements of the proper list v, read from source as part of
    form; raises EvalError naming form when v is not a proper list."""
    out = []
    while isinstance(v, Cons):
        out.append(v.car)
        v = v.cdr
    if v is not NIL:
        raise EvalError("%s is not a proper list" % what, form=form)
    return out


def _cons_args(expr, what="argument list"):
    return list_items(expr.cdr, what, expr)


def _proper_length(v):
    """The length of v if it is a proper list, else -1."""
    n = 0
    while isinstance(v, Cons):
        n += 1
        v = v.cdr
    return n if v is NIL else -1


def arity_error(name, got, lo, hi, form=None):
    """Raise the error for a call of name with got arguments, outside lo
    to hi (None: no upper bound)."""
    if hi == lo:
        want = str(lo)
    elif hi is None:
        want = "at least %d" % lo
    else:
        want = "%d to %d" % (lo, hi)
    raise EvalError("%s takes %s argument%s, got %d"
                    % (name, want, "" if want == "1" else "s", got),
                    form=form)


def bindable(var, what, form):
    """var, unless it is NIL, T or a keyword, which name constants and so
    may never be bound; then EvalError naming what binds it and form."""
    if var is NIL or var is T or sexpr.is_keyword(var):
        raise EvalError("bad %s %s" % (what, var.name), form=form)
    return var


def _is_declare(form):
    return (isinstance(form, Cons) and isinstance(form.car, Symbol)
            and form.car.name == "DECLARE")


# Heads legal only as DO or FINALLY statements, and event heads, which
# are legal only at the top level.
DO_ONLY_HEADS = frozenset(("PROGN", "SETQ", "MV-SETQ", "RETURN",
                           "LOOP-FINISH"))
EVENT_HEADS = frozenset(("DEFUN", "DEFSTOBJ", "ENCAPSULATE", "DEFATTACH"))

# One parser per special form, shared by the analyzer and the DO-body
# parser, so both accept the same forms and reject the rest with the
# same EvalError and text.  The evaluator reads an admitted form in
# place, without them.  Each reads a well-formed form in place; a
# malformed one is listed by _cons_args, so a dotted form raises that
# error before any count check.  A name is tested as bindable does,
# inline, so a good name costs no call.


def quote_parts(form):
    """(QUOTE x) -> x."""
    a = form.cdr
    if isinstance(a, Cons) and a.cdr is NIL:
        return a.car
    _cons_args(form)
    raise EvalError("QUOTE takes one argument", form=form)


def if_parts(form):
    """(IF test then [else]) -> (test, then, else), else None if absent."""
    a = form.cdr
    if isinstance(a, Cons):
        b = a.cdr
        if isinstance(b, Cons):
            c = b.cdr
            if c is NIL:
                return a.car, b.car, None
            if isinstance(c, Cons) and c.cdr is NIL:
                return a.car, b.car, c.car
    _cons_args(form)
    raise EvalError("IF takes a test and one or two branches", form=form)


def let_parts(form):
    """(LET|LET* ((var rhs) ..) [declare ..] body) -> (bindings, body),
    bindings the checked spine of (var rhs) lists, with distinct vars in
    a LET; see let_pairs."""
    a = form.cdr
    body = _one_body(a.cdr) if isinstance(a, Cons) else None
    if body is None:
        _cons_args(form)
        raise EvalError("%s takes bindings and a single body form"
                        % form.car.name, form=form)
    bindings = rest = a.car
    while isinstance(rest, Cons):
        b = rest.car
        if not (isinstance(b, Cons) and isinstance(b.car, Symbol)
                and isinstance(b.cdr, Cons) and b.cdr.cdr is NIL):
            break
        var = b.car
        if var is NIL or var is T or var.name[:1] == ":":
            bindable(var, form.car.name + " variable", form)
        seen = bindings if form.car is LET else rest  # LET* may shadow
        while seen is not rest and seen.car.car is not var:
            seen = seen.cdr
        if seen is not rest:
            raise EvalError("duplicate LET variable %s" % var.name, form=form)
        rest = rest.cdr
    if rest is not NIL:
        raise EvalError("malformed %s bindings" % form.car.name, form=form)
    return bindings, body


def let_pairs(bindings):
    """[(var, rhs)] of a bindings spine checked by let_parts."""
    return [(b.car, b.cdr.car) for b in sexpr.iter_conses(bindings)]


def mv_parts(form):
    """(MV x y ..) -> the spine of x y .., two or more forms."""
    if _proper_length(form.cdr) >= 2:
        return form.cdr
    _cons_args(form)
    raise EvalError("MV needs at least two values", form=form)


def mv_let_parts(form):
    """(MV-LET (var var ..) rhs [declare ..] body) -> (vars, rhs, body),
    vars the checked spine of two or more distinct names."""
    a = form.cdr
    b = a.cdr if isinstance(a, Cons) else None
    body = _one_body(b.cdr) if isinstance(b, Cons) else None
    if body is None:
        _cons_args(form)
        raise EvalError("MV-LET takes variables, a form, and a body",
                        form=form)
    vars_, rhs = a.car, b.car
    n = 0
    rest = vars_
    while isinstance(rest, Cons) and isinstance(rest.car, Symbol):
        var = rest.car
        if var is NIL or var is T or var.name[:1] == ":":
            bindable(var, "MV-LET variable", form)
        seen = vars_
        while seen is not rest and seen.car is not var:
            seen = seen.cdr
        if seen is not rest:
            raise EvalError("duplicate MV-LET variable %s" % var.name,
                            form=form)
        n += 1
        rest = rest.cdr
    if rest is not NIL or n < 2:
        raise EvalError("MV-LET needs two or more variable names", form=form)
    return vars_, rhs, body


def _one_body(rest):
    """The one form on the spine rest that is not a declare; None when
    there is not exactly one or rest is not a proper list."""
    body = None
    while isinstance(rest, Cons):
        if not _is_declare(rest.car):
            if body is not None:
                return None
            body = rest.car
        rest = rest.cdr
    return body if rest is NIL else None


def _mentions(expr, name):
    if isinstance(expr, Symbol):
        return expr.name == name
    if isinstance(expr, Cons):
        if expr.car is QUOTE:
            return False
        node = expr
        while isinstance(node, Cons):
            if _mentions(node.car, name):
                return True
            node = node.cdr
        return _mentions(node, name)
    return False


def _shape_str(shape):
    return "(" + " ".join("*" if s is None else s for s in shape) + ")"


def admit(world, body, formals, inputs, what=None, name=None, guard=None,
          measure=None, want=None):
    """The shape of body and the stobj-let parses made (see
    Analyzer.stobj_lets), which the caller keeps once it admits body; or
    LinearityError, labelled what (by default name).  This is the one
    static check of the rules above, of call arity and of special-form
    shapes.

    Formal i is the live stobj inputs[i] or, where that is None,
    ordinary and bound as a LET binds it.  A top-level form's formals are
    the bank's stobjs; an APPLY$ lambda's are ordinary, and want names
    its body, which must return one ordinary value.  A defun gives its
    name, which types its self-calls, :guard and :measure.
    """
    parses = {}
    self_output = UNKNOWN
    for _pass in range(2):  # the second only for a self-recursive defun
        analyzer = Analyzer(world, name, inputs, self_output)
        analyzer.stobj_lets = parses    # both passes parse a form once
        live, bound = {}, set()
        for f, s in zip(formals, inputs):
            if s is None:
                live, bound = analyzer._bind_one(f, (None,), live, bound,
                                                 body)
            else:
                live[f] = s
        if guard is not None:
            analyzer.want_value(guard, live, bound, "the :guard term")
        if measure is not None:
            analyzer.want_value(measure, live, bound, "the :measure term")
        if want is None:
            shape = analyzer.analyze(body, live, bound)
        else:
            analyzer.want_value(body, live, bound, want)
            shape = (None,)
        if not analyzer.saw_self or self_output is not UNKNOWN:
            break
        # Only a self-call has an UNKNOWN shape, so a second pass that
        # knows it finds every shape.  The first pass's violations are
        # dropped, so UNKNOWN is read only where it sets a shape.
        if shape is UNKNOWN:
            raise LinearityError(name, ["R2: cannot infer what %s returns; "
                                        "every path is self-recursive" % name])
        self_output = shape
    if analyzer.violations:
        raise LinearityError(what or name, analyzer.violations)
    return shape, parses
