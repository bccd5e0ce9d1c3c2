"""Single-threaded objects.

A stobj has a dual nature: logically it is a proper list of its field
values; during evaluation it is a mutable instance updated in place
(native mode) or copied on write (logical mode).  The two views stay
interchangeable because definitions pass a static single-threadedness
check before they are accepted:

  R1  a stobj name may appear only in a stobj argument position of a
      call typed for it (or be returned);
  R2  a call returning a stobj must have its result rebound to the
      same name, or be in return position;
  R3  a stobj is never bound to a different name, never passed twice
      in one argument list, and its name is never bound to an
      ordinary value;
  R4  both branches of an IF must agree on which stobjs they return.

Fields are either scalars or stobj-tables; arrays and strings are out
of scope and rejected up front.
"""

from . import sexpr, stobj_table
from .sexpr import NIL, T, Cons, Symbol, intern, show, from_bool, truthy
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
# (ordinary value), a stobj name, POLY (any stobj), or a restriction
# marker; an output is a tuple of None / stobj names, FOLLOW (same
# stobj as the POLY input), or UNKNOWN while self-recursive shapes are
# being inferred.
POLY = "#poly"
FOLLOW = "#follow"
UNKNOWN = "#unknown"

SCALAR = "scalar"
TABLE = "table"


class FieldSpec:
    __slots__ = ("name", "kind", "initial")

    def __init__(self, name, kind, initial=NIL):
        self.name = name
        self.kind = kind
        self.initial = initial


class StobjSpec:
    def __init__(self, name, fields):
        self.name = name
        self.fields = tuple(fields)
        self.single = len(self.fields) == 1

    def fresh(self):
        return StobjInstance(self, [self._initial_cell(f) for f in self.fields])

    @staticmethod
    def _initial_cell(field):
        if field.kind == TABLE:
            return TableCell({})
        return field.initial


class StobjInstance:
    """Live execution view of a stobj.

    A one-field stobj stores the field directly in `cells` with no
    list around it, which is invisible to every accessor.  This saves
    memory, not time: with 128 one-field children in one table, giving
    each child a one-element list raised the benchmark's `table_mix`
    peak by about 7%.
    """

    __slots__ = ("spec", "cells", "owner")

    def __init__(self, spec, cells):
        self.spec = spec
        self.cells = cells[0] if spec.single else cells
        self.owner = None

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


class Poison:
    """Binding that makes a name unusable inside a scope."""

    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason


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


def op_shape(op):
    """(inputs, outputs) for the static checker and call dispatch."""
    s = op.spec.name
    return {
        "create": ((), (s,)),
        "recognize": ((None,), (None,)),
        "get": ((s,), (None,)),
        "update": ((None, s), (s,)),
        "tbl-get": ((None, s, None), (FOLLOW,)),   # restricted to stobj-let
        "tbl-put": ((None, None, s), (s,)),        # internal writeback only
        "tbl-boundp": ((None, s), (None,)),
        "tbl-rem": ((None, s), (s,)),
        "tbl-count": ((s,), (None,)),
        "tbl-clear": ((s,), (s,)),
    }[op.kind]


def recognizer_value(spec, x):
    # Logically a stobj is a proper list of the right arity.  Field
    # values themselves are unconstrained (scalar fields are untyped
    # and a table field's recognizer is constant truth), so arity and
    # proper-list-ness are the whole check.
    if isinstance(x, StobjInstance):
        return from_bool(x.spec is spec)
    n = 0
    while isinstance(x, Cons):
        n += 1
        x = x.cdr
    return from_bool(x is NIL and n == len(spec.fields))


def apply_generated(interp, op, args, form):
    in_place = interp.in_place()
    kind = op.kind
    if kind == "get":
        return args[0].get_cell(op.findex)
    if kind == "update":
        v, inst = args
        if in_place:
            inst.set_cell(op.findex, v)
            return inst
        return inst.with_cell(op.findex, v)
    if kind == "recognize":
        return recognizer_value(op.spec, args[0])
    if kind == "tbl-boundp":
        key = stobj_table.check_key(args[0], form)
        cell = args[1].get_cell(op.findex)
        return stobj_table.table_boundp(cell, key)
    if kind == "tbl-count":
        return stobj_table.table_count(args[0].get_cell(op.findex))
    if kind == "tbl-rem":
        key = stobj_table.check_key(args[0], form)
        inst = args[1]
        cell = stobj_table.table_rem(inst.get_cell(op.findex), key,
                                     in_place=in_place)
        return inst if in_place else inst.with_cell(op.findex, cell)
    if kind == "tbl-clear":
        inst = args[0]
        cell = stobj_table.table_clear(inst.get_cell(op.findex),
                                       in_place=in_place)
        return inst if in_place else inst.with_cell(op.findex, cell)
    if kind == "create":
        raise EvalError("%s may only appear as a stobj-table default inside "
                        "stobj-let" % op.name, form=form)
    # tbl-get / tbl-put reach here only outside stobj-let.
    raise EvalError("%s may only be used through stobj-let" % op.name,
                    form=form)


### stobj-let

class StobjLetSpec:
    __slots__ = ("bindings", "outputs", "producer", "consumer")

    def __init__(self, bindings, outputs, producer, consumer):
        self.bindings = bindings    # [(child Symbol, parent Symbol, op, default form)]
        self.outputs = outputs      # [Symbol]
        self.producer = producer
        self.consumer = consumer


def parse_stobj_let(form, world):
    args = list_items(form, "stobj-let form", form)
    if len(args) != 5:
        raise EvalError(
            "stobj-let takes bindings, outputs, a producer, and a consumer",
            form=form)
    _, bindings_form, outputs_form, producer, consumer = args
    bindings = []
    seen_children = set()
    for bform in list_items(bindings_form, "stobj-let bindings", form):
        parts = list_items(bform, "stobj-let binding", form)
        if len(parts) != 2 or not isinstance(parts[0], Symbol):
            raise EvalError("malformed stobj-let binding %s" % show(bform),
                            form=form)
        child, accessor = parts
        if world.stobj_spec(child.name) is None:
            raise EvalError("stobj-let binds %s, which is not a defined stobj"
                            % child.name, form=form)
        if child.name in seen_children:
            raise EvalError(
                "stobj-let binds %s twice; one binding per child, and the "
                "same child may not be drawn from two tables" % child.name,
                form=form)
        seen_children.add(child.name)
        bindings.append(_parse_accessor(child, accessor, world, form))
    outputs = list_items(outputs_form, "stobj-let outputs", form)
    if not outputs or not all(isinstance(o, Symbol) for o in outputs):
        raise EvalError("stobj-let outputs must be a non-empty list of names",
                        form=form)
    if len(set(o.name for o in outputs)) != len(outputs):
        raise EvalError("duplicate stobj-let output", form=form)
    return StobjLetSpec(bindings, outputs, producer, consumer)


def _parse_accessor(child, accessor, world, form):
    parts = (list_items(accessor, "stobj-let accessor", form)
             if isinstance(accessor, Cons) else None)
    if not parts or len(parts) != 4 or not isinstance(parts[0], Symbol):
        raise EvalError(
            "stobj-let accessor for %s must be (<table>-GET 'key parent "
            "default)" % child.name, form=form)
    opname, keyform, parentform, default = parts
    entry = world.generated_op(opname.name)
    if entry is None or entry.kind != "tbl-get":
        raise EvalError("%s is not a stobj-table get operation" % opname.name,
                        form=form)
    key = quote_parts(keyform) if isinstance(keyform, Cons) \
        and keyform.car is QUOTE else None
    if not isinstance(key, Symbol):
        raise EvalError("stobj-let key must be a quoted symbol in %s"
                        % show(accessor), form=form)
    if key.name != child.name:
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
    return (child, intern(parent), entry, default)


def _creator_call(form, world):
    if isinstance(form, Cons) and isinstance(form.car, Symbol) \
            and form.cdr is NIL:
        entry = world.generated_op(form.car.name)
        if entry is not None and entry.kind == "create":
            return entry
    return None


def eval_stobj_let(interp, form, env):
    from .kernel import Env
    spec = parse_stobj_let(form, interp.world)
    in_place = interp.in_place()

    parents = {}     # parent name -> instance
    extracted = []   # (child Symbol, parent name, op, child instance)
    for child, parent_sym, op, default in spec.bindings:
        pname = parent_sym.name
        if pname not in parents:
            parents[pname] = interp.resolve_stobj(pname, env, form)
        cell = parents[pname].get_cell(op.findex)
        hit = stobj_table.table_get(cell, child)
        if hit is None:
            # Default is evaluated lazily, only on a miss.
            hit = _creator_call(default, interp.world).spec.fresh()
        extracted.append((child, pname, op, hit))

    body_env = Env({c.name: inst for c, _, _, inst in extracted}, env)
    poison = {p: Poison("%s is not available inside a stobj-let body that "
                        "extracts from it" % p) for p in parents}
    body_env = Env(poison, body_env)

    result = interp.eval(spec.producer, body_env)
    values = result.values if isinstance(result, sexpr.MultiValue) \
        else (result,)
    if len(values) != len(spec.outputs):
        raise EvalError("stobj-let producer returned %d values for %d outputs"
                        % (len(values), len(spec.outputs)), form=form)

    child_map = {c.name: (pname, op) for c, pname, op, _ in extracted}
    consumer_bindings = {}
    for out, val in zip(spec.outputs, values):
        if out.name in child_map:
            pname, op = child_map[out.name]
            if not (isinstance(val, StobjInstance)
                    and val.spec.name == out.name):
                raise EvalError(
                    "stobj-let output %s does not satisfy the recognizer for "
                    "its key" % out.name, form=form)
            parent = parents[pname]
            cell = parent.get_cell(op.findex)
            newcell = stobj_table.table_put(
                cell, intern(out.name), val, in_place=in_place,
                check_owner=in_place)
            if not in_place:
                parents[pname] = parent.with_cell(op.findex, newcell)
        else:
            consumer_bindings[out.name] = val

    consumer_env = Env(dict(poison), env)
    consumer_env = Env(parents, consumer_env)
    consumer_env = Env(consumer_bindings, consumer_env)
    # Children stay poisoned in the consumer: they may not escape.
    child_poison = {c.name: Poison("%s has been written back and is not "
                                   "available in the consumer" % c.name)
                    for c, _, _, _ in extracted}
    consumer_env = Env(child_poison, consumer_env)
    return interp.eval(spec.consumer, consumer_env)


### static single-threadedness analysis

class Analyzer:
    def __init__(self, world, fname, self_inputs, self_output,
                 raise_call_errors=False):
        self.world = world
        self.fname = fname
        self.self_inputs = self_inputs
        self.self_output = self_output
        self.violations = []
        self.saw_self = False
        # Top-level checking raises undefined-function and arity problems
        # directly; inside a defun they are collected as violations so a
        # bad definition reports everything at once.
        self.raise_call_errors = raise_call_errors

    def err(self, rule, msg):
        text = "%s: %s" % (rule, msg)
        if text not in self.violations:
            self.violations.append(text)

    # live: name -> stobj name for stobjs in scope
    # bound: set of ordinary variable names in scope
    def analyze(self, expr, live, bound, tail):
        if isinstance(expr, Symbol):
            if expr.name in live:
                return (live[expr.name],)
            if expr.name in bound or expr is NIL or expr is T \
                    or sexpr.is_keyword(expr):
                return (None,)
            if self.world.stobj_spec(expr.name) is not None:
                self.err("R1", "stobj %s is used without being declared or "
                               "bound here" % expr.name)
            return (None,)
        if isinstance(expr, (int, str)):
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
            return self._analyze_if(expr, live, bound, tail)
        if head is LET or head is LETSTAR:
            return self._analyze_let(expr, live, bound, tail,
                                     sequential=head is LETSTAR)
        if head is MV:
            return self._analyze_mv(expr, live, bound)
        if head is MV_LET:
            return self._analyze_mv_let(expr, live, bound, tail)
        if head is STOBJ_LET:
            return self._analyze_stobj_let(expr, live, bound, tail)
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
        return self._analyze_call(expr, live, bound, tail)

    def _parse(self, parse, *args):
        """parse(*args), or None with its error recorded under R1."""
        try:
            return parse(*args)
        except EvalError as e:
            self.err("R1", str(e))
            return None

    def want_value(self, expr, live, bound, what):
        sh = self.analyze(expr, live, bound, tail=False)
        if sh is UNKNOWN:
            self.err("R2", "recursive stobj-returning call may not appear "
                           "in %s" % what)
            return
        if len(sh) != 1:
            self.err("R2", "multiple values are not a single value in %s"
                     % what)
            return
        if sh[0] is not None:
            self.err("R1", "stobj %s may not appear in %s" % (sh[0], what))

    def _analyze_if(self, expr, live, bound, tail):
        args = self._parse(if_parts, expr)
        if args is None:
            return (None,)
        self.want_value(args[0], live, bound, "an IF test")
        sh_t = self.analyze(args[1], live, bound, tail)
        sh_f = self.analyze(args[2], live, bound, tail) if len(args) == 3 \
            else (None,)
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

    def _bind_one(self, var, shape, live, bound, expr):
        """Extend scope maps for one binding; enforces R2/R3."""
        if shape is UNKNOWN:
            # Self-recursive call: adopt the binding name's own typing.
            shape = (live.get(var.name),) if var.name in live else (None,)
        if len(shape) != 1:
            self.err("R2", "LET binds multiple values in %s" % show(expr))
            shape = (None,)
        slot = shape[0]
        live = dict(live)
        bound = set(bound)
        if slot is not None:
            if var.name != slot:
                self.err("R2+R3",
                         "the result of a call returning stobj %s must be "
                         "rebound to the name %s, not %s"
                         % (slot, slot, var.name))
            live[var.name] = slot
        else:
            if var.name in live:
                self.err("R3", "stobj name %s may not be rebound to an "
                               "ordinary value" % var.name)
                live.pop(var.name)
            elif self.world.stobj_spec(var.name) is not None:
                self.err("R3", "stobj name %s may not be used as an ordinary "
                               "variable" % var.name)
            bound.add(var.name)
        return live, bound

    def _analyze_let(self, expr, live, bound, tail, sequential):
        parts = self._parse(let_parts, expr)
        if parts is None:
            return (None,)
        bindings, body = parts
        if not sequential and len(bindings) > 1:
            self._check_parallel(bindings, live, expr)
        cur_live, cur_bound = live, bound
        rebound = []
        for var, rhs in bindings:
            rhs_env = (cur_live, cur_bound) if sequential else (live, bound)
            sh = self.analyze(rhs, rhs_env[0], rhs_env[1], tail=False)
            if sh is UNKNOWN:
                slot = cur_live.get(var.name)
            else:
                slot = sh[0] if len(sh) == 1 else None
            if slot is not None:
                rebound.append(slot)
            cur_live, cur_bound = self._bind_one(var, sh, cur_live, cur_bound,
                                                 expr)
        bsh = self.analyze(body, cur_live, cur_bound, tail)
        self._require_returned(rebound, bsh, "LET")
        return bsh

    def _require_returned(self, rebound, body_shape, binder):
        if body_shape is UNKNOWN:
            return
        for sname in rebound:
            if sname not in body_shape:
                self.err("R2", "stobj %s is bound in this %s but is not "
                               "among the values of its body; the update "
                               "would be discarded" % (sname, binder))

    def _check_parallel(self, bindings, live, expr):
        # In a parallel LET, a binding that consumes a stobj must be the
        # only binding mentioning that stobj, or evaluation order would
        # be observable.
        returning = {}
        for var, rhs in bindings:
            sh = self.analyze(rhs, live, set(), tail=False)
            if sh is not UNKNOWN and len(sh) == 1 and sh[0] is not None:
                returning[var.name] = sh[0]
        for var, rhs in bindings:
            for name in returning.values():
                if var.name != name and _mentions(rhs, name):
                    self.err("R3", "parallel LET both updates and reads "
                                   "stobj %s" % name)

    def _analyze_mv(self, expr, live, bound):
        args = self._parse(mv_parts, expr)
        if args is None:
            return (None,)
        slots = []
        seen = set()
        for a in args:
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

    def _analyze_mv_let(self, expr, live, bound, tail):
        parts = self._parse(mv_let_parts, expr)
        if parts is None:
            return (None,)
        vars_, rhs, body = parts
        sh = self._mv_shape(rhs, [v.name for v in vars_], live, bound, expr)
        cur_live, cur_bound = live, bound
        for var, slot in zip(vars_, sh):
            cur_live, cur_bound = self._bind_one(var, (slot,), cur_live,
                                                 cur_bound, expr)
        bsh = self.analyze(body, cur_live, cur_bound, tail)
        self._require_returned([s for s in sh if s is not None], bsh,
                               "MV-LET")
        return bsh

    def _mv_shape(self, rhs, names, live, bound, expr):
        """The shape of an MV-LET right-hand side binding names."""
        sh = self.analyze(rhs, live, bound, tail=False)
        if sh is UNKNOWN:
            self.err("R2", "cannot infer the shape of %s here" % show(rhs))
            sh = tuple(live.get(n) for n in names)
        if len(sh) != len(names):
            self.err("R2", "MV-LET binds %d names to %d values in %s"
                     % (len(names), len(sh), show(expr)))
            sh = tuple(live.get(n) for n in names)
        return sh

    def _analyze_stobj_let(self, expr, live, bound, tail):
        spec = self._parse(parse_stobj_let, expr, self.world)
        if spec is None:
            return (None,)
        parents = set()
        children = {}
        for child, parent_sym, op, _default in spec.bindings:
            pname = parent_sym.name
            if pname not in live:
                self.err("R1", "stobj-let parent %s is not a live stobj here"
                         % pname)
            parents.add(pname)
            children[child.name] = child.name
        body_live = {k: v for k, v in live.items() if k not in parents}
        body_live.update(children)
        psh = self.analyze(spec.producer, body_live, bound, tail=False)
        out_names = [o.name for o in spec.outputs]
        expected = tuple(children.get(n) for n in out_names)
        if psh is UNKNOWN:
            self.err("R2", "cannot infer producer shape in %s" % show(expr))
        elif len(psh) != len(expected):
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
            if cname not in written and self._updates_stobj(spec.producer,
                                                            cname):
                self.err("R2", "child %s is updated in the producer but is "
                               "not among the stobj-let outputs" % cname)
        cons_live = {k: v for k, v in live.items() if k not in children}
        cons_bound = set(bound) | set(n for n in out_names
                                      if n not in children)
        csh = self.analyze(spec.consumer, cons_live, cons_bound, tail)
        if written:
            returned = set() if csh is UNKNOWN else set(
                s for s in csh if s is not None)
            for pname in parents:
                if pname not in returned:
                    self.err("R2", "stobj-let updates children of %s, so its "
                                   "consumer must return %s or the update "
                                   "would be discarded" % (pname, pname))
        return csh

    def _updates_stobj(self, expr, sname):
        """Does any call inside expr return stobj sname?"""
        if isinstance(expr, Cons):
            head = expr.car
            if head is QUOTE:
                return False
            if isinstance(head, Symbol):
                try:
                    _ins, outs = self._shape_of(head.name,
                                                len(_cons_args(expr)))
                except EvalError:
                    outs = ()
                if isinstance(outs, tuple) and sname in outs:
                    return True
            node = expr
            while isinstance(node, Cons):
                if self._updates_stobj(node.car, sname):
                    return True
                node = node.cdr
        return False

    def _analyze_loop(self, expr, live, bound):
        from . import loops
        spec = self._parse(loops.parse_loop, expr, self.world)
        if spec is None:
            return (None,)
        if spec.kind == "FOR":
            self.want_value(spec.for_range, live, bound, "a FOR range")
            inner = dict(live)
            if spec.for_var.name in inner:
                self.err("R3", "FOR variable shadows stobj %s"
                         % spec.for_var.name)
            self.want_value(spec.for_body, inner,
                            set(bound) | {spec.for_var.name}, "a FOR body")
            return (None,)
        for name, _typ, init in spec.withs:
            if init is not None:
                self.want_value(init, live, bound,
                                "a WITH initial value")
        for sname in spec.value_stobjs():
            if live.get(sname) != sname:
                self.err("R1", ":VALUES stobj %s is not a live stobj here"
                         % sname)
        plan = self._parse(loops.make_do_plan, spec, self.world)
        if plan is None:
            return tuple(spec.values)
        # The body sees the settables only: :VALUES stobjs and WITH names.
        live = {s: s for s in spec.value_stobjs()}
        bound = {name for name, _typ, _init in spec.withs}
        if spec.guard is not None:
            self.want_value(spec.guard, live, bound, "a loop :GUARD")
        self.want_value(plan.measure_form, live, bound, "a loop :MEASURE")
        for tree in (plan.do_tree, plan.finally_tree):
            if tree is not None:
                self._analyze_stmt(tree, live, bound, spec.values)
        return tuple(spec.values)

    def _analyze_stmt(self, node, live, bound, values):
        """Check a DO or FINALLY statement tree (see loops.make_do_plan).

        An assignment must keep the shape of its targets and a RETURN
        must have the shape of :VALUES, so an update the native path
        keeps is never one the logical path drops.
        """
        tag = node[0]
        if tag == "if":
            self.want_value(node[1], live, bound, "an IF test")
            self._analyze_stmt(node[2], live, bound, values)
            self._analyze_stmt(node[3], live, bound, values)
        elif tag == "let" or tag == "mv-let":
            _tag, names, rhs, body, form = node
            if tag == "let":
                shapes = [self.analyze(r, live, bound, tail=False)
                          for r in rhs]
            else:
                shapes = [(s,) for s in self._mv_shape(rhs, names, live,
                                                       bound, form)]
            for name, sh in zip(names, shapes):
                live, bound = self._bind_one(intern(name), sh, live, bound,
                                             form)
            self._analyze_stmt(body, live, bound, values)
        elif tag == "setq" or tag == "mv-setq":
            want = tuple(live.get(n) for n in node[1])
            self._want_shape(node[2], want, live, bound, node[4])
            self._analyze_stmt(node[3], live, bound, values)
        elif tag == "return":
            self._want_shape(node[1], tuple(values), live, bound, node[2])

    def _want_shape(self, expr, want, live, bound, stmt):
        sh = self.analyze(expr, live, bound, tail=False)
        if sh is not UNKNOWN and sh != want:
            self.err("R2", "%s needs values shaped %s, got %s"
                     % (show(stmt), _shape_str(want), _shape_str(sh)))

    def _analyze_call(self, expr, live, bound, tail):
        name = expr.car.name
        args = _cons_args(expr)
        entry = self.world.generated_op(name)
        if entry is not None and entry.kind in ("create", "tbl-get",
                                                "tbl-put"):
            where = {"create": "as a stobj-table default inside stobj-let",
                     "tbl-get": "inside stobj-let bindings",
                     "tbl-put": "through stobj-let writeback"}[entry.kind]
            self.err("R1", "%s may only be used %s" % (name, where))
            return (None,)
        try:
            inputs, outputs = self._shape_of(name, len(args))
        except EvalError as e:
            if self.raise_call_errors:
                raise EvalError(e.message, form=expr)
            self.err("R1", "%s in %s" % (e.message, show(expr)))
            for a in args:
                if not (isinstance(a, Symbol) and a.name in live):
                    self.want_value(a, live, bound,
                                    "an argument of %s" % name)
            return (None,)
        seen_stobjs = set()
        follow = None
        for arg, slot in zip(args, inputs):
            if slot is POLY:
                if isinstance(arg, Symbol) and arg.name in live:
                    follow = live[arg.name]
                    if arg.name in seen_stobjs:
                        self.err("R3", "stobj %s appears twice in %s"
                                 % (arg.name, show(expr)))
                    seen_stobjs.add(arg.name)
                else:
                    self.err("R1", "%s needs a live stobj argument in %s"
                             % (name, show(expr)))
            elif slot is None:
                if isinstance(arg, Symbol) and arg.name in live:
                    self.err("R1", "stobj %s passed where %s expects an "
                                   "ordinary value" % (arg.name, name))
                else:
                    self.want_value(arg, live, bound,
                                    "an argument of %s" % name)
            else:
                if not (isinstance(arg, Symbol) and arg.name == slot
                        and live.get(slot) == slot):
                    self.err("R1", "%s expects the stobj %s in this position "
                                   "of %s" % (name, slot, show(expr)))
                else:
                    if slot in seen_stobjs:
                        self.err("R3", "stobj %s appears twice in %s"
                                 % (slot, show(expr)))
                    seen_stobjs.add(slot)
        if outputs is UNKNOWN:
            self.saw_self = True
            return UNKNOWN
        return tuple(follow if o is FOLLOW else o for o in outputs)

    def _shape_of(self, name, nargs):
        if name == self.fname:
            if nargs != len(self.self_inputs):
                raise EvalError("%s takes %d arguments, got %d"
                                % (name, len(self.self_inputs), nargs))
            return (self.self_inputs, self.self_output)
        return self.world.shape_of(name, nargs)


def list_items(v, what, form, error=EvalError):
    """The elements of the proper list v, read from source as part of
    form; raises error naming form when v is not a proper list."""
    return sexpr.to_pylist(v, what, form, error)


def _cons_args(expr, what="argument list", error=EvalError):
    return sexpr.to_pylist(expr.cdr, what, expr, error)


def _is_declare(form):
    return (isinstance(form, Cons) and isinstance(form.car, Symbol)
            and form.car.name == "DECLARE")


# Heads legal only as DO or FINALLY statements, and event heads, which
# are legal only at the top level.
DO_ONLY_HEADS = frozenset(("PROGN", "SETQ", "MV-SETQ", "RETURN",
                           "LOOP-FINISH"))
EVENT_HEADS = frozenset(("DEFUN", "DEFSTOBJ", "ENCAPSULATE", "DEFATTACH"))

# One parser per special form, shared by the evaluator, the analyzer and
# the DO-body parser (which passes TranslateError), so all three accept
# the same forms and reject the rest with the same text.


def quote_parts(form, error=EvalError):
    """(QUOTE x) -> x."""
    a = _cons_args(form, error=error)
    if len(a) != 1:
        raise error("QUOTE takes one argument", form=form)
    return a[0]


def if_parts(form, error=EvalError):
    """(IF test then [else]) -> [test, then] or [test, then, else]."""
    a = _cons_args(form, error=error)
    if len(a) not in (2, 3):
        raise error("IF takes a test and one or two branches", form=form)
    return a


def let_parts(form, error=EvalError):
    """(LET|LET* ((var rhs) ..) [declare ..] body) -> ([(var, rhs)], body)."""
    name = form.car.name
    a = _cons_args(form, error=error)
    body = [x for x in a[1:] if not _is_declare(x)]
    if len(a) < 2 or len(body) != 1:
        raise error("%s takes bindings and a single body form" % name,
                    form=form)
    pairs = []
    rest = a[0]
    while isinstance(rest, Cons):
        b = rest.car
        if not (isinstance(b, Cons) and isinstance(b.car, Symbol)
                and isinstance(b.cdr, Cons) and b.cdr.cdr is NIL):
            break
        pairs.append((b.car, b.cdr.car))
        rest = rest.cdr
    if rest is not NIL:
        raise error("malformed %s bindings" % name, form=form)
    return pairs, body[0]


def mv_parts(form, error=EvalError):
    """(MV x y ..) -> [x, y, ..], two or more forms."""
    a = _cons_args(form, error=error)
    if len(a) < 2:
        raise error("MV needs at least two values", form=form)
    return a


def mv_let_parts(form, error=EvalError):
    """(MV-LET (var var ..) rhs [declare ..] body) -> ([var ..], rhs, body)."""
    a = _cons_args(form, error=error)
    body = [x for x in a[2:] if not _is_declare(x)]
    if len(a) < 3 or len(body) != 1:
        raise error("MV-LET takes variables, a form, and a body", form=form)
    vars_ = []
    rest = a[0]
    while isinstance(rest, Cons) and isinstance(rest.car, Symbol):
        vars_.append(rest.car)
        rest = rest.cdr
    if rest is not NIL or len(vars_) < 2:
        raise error("MV-LET needs two or more variable names", form=form)
    return vars_, a[1], body[0]


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


def check_defun(world, name, formals, stobjs_decl, body, guard, measure):
    """Run the single-threadedness analysis over a definition.

    Returns the derived output shape.  Raises LinearityError when any
    rule is violated.
    """
    live0 = {s: s for s in stobjs_decl}
    bound0 = set(f for f in formals if f not in live0)
    self_inputs = tuple(f if f in live0 else None for f in formals)

    analyzer = Analyzer(world, name, self_inputs, UNKNOWN)
    for label, extra in (("guard", guard), ("measure", measure)):
        if extra is not None:
            analyzer.want_value(extra, live0, bound0, "the :%s term" % label)
    shape = analyzer.analyze(body, live0, bound0, tail=True)
    if analyzer.saw_self:
        if shape is UNKNOWN:
            raise LinearityError(name, ["R2: cannot infer what %s returns; "
                                        "every path is self-recursive" % name])
        second = Analyzer(world, name, self_inputs, shape)
        for label, extra in (("guard", guard), ("measure", measure)):
            if extra is not None:
                second.want_value(extra, live0, bound0, "the :%s term" % label)
        shape2 = second.analyze(body, live0, bound0, tail=True)
        analyzer = second
        shape = shape2
    if shape is UNKNOWN:
        raise LinearityError(name, ["R2: cannot infer what %s returns" % name])
    if analyzer.violations:
        raise LinearityError(name, analyzer.violations)
    return shape
