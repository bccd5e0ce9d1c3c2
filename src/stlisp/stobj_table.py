"""Tables mapping stobj names to stobj instances.

Logically a table is an association list looked up with
hons-assoc-equal (first match wins); the execution view is a hash
table keyed by interned symbol.  A table belongs to the stobj instance
whose field holds it, so undoing a stobj definition unbinds that name
by walking the session's stobj bank down through every table.

The mode is read in stobjs, not here: stobjs._table hands a write the
live cell in native mode and a copy in logical mode.  A stobj-let writes
a child back with a plain store into that cell: admission lets a child
leave its producer only by name, as an output written back to its own
table, so no child is ever held by two live cells.
"""

from . import sexpr
from .sexpr import NIL, Cons, intern
from .errors import EvalError


class TableCell:
    """Execution view of one stobj-table field: Symbol -> StobjInstance."""

    __slots__ = ("data",)

    def __init__(self, data=None):
        self.data = {} if data is None else data

    def copy(self):
        return TableCell(self.data.copy())


def check_key(key, form=None):
    if not isinstance(key, sexpr.Symbol):
        raise EvalError("stobj-table key must be a symbol, got %s"
                        % sexpr.show(key), form=form)
    return key


def retract(instances, undone_names):
    """Unbind every undone stobj name from every table held by the given
    stobj instances or, recursively, by the children in those tables."""
    from .stobjs import StobjInstance
    keys = {intern(n) for n in undone_names}
    todo = list(instances)
    while todo:
        inst = todo.pop()
        for i in range(len(inst.spec.fields)):
            cell = inst.get_cell(i)
            if isinstance(cell, TableCell):
                for key in keys:
                    cell.data.pop(key, None)
                todo.extend(v for v in cell.data.values()
                            if isinstance(v, StobjInstance))


def logical_view(cell):
    """Canonical alist rendering: entries sorted by key name.

    Duplicate keys cannot occur in the execution view, so the sorted
    alist is a faithful normal form of the logical alist.
    """
    out = NIL
    for key in sorted(cell.data, key=lambda s: s.name, reverse=True):
        out = Cons(Cons(key, cell.data[key].logical_view()), out)
    return out
