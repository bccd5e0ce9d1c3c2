"""Tables mapping stobj names to stobj instances.

Logically a table is an association list looked up with
hons-assoc-equal (first match wins); the execution view is a hash
table keyed by interned symbol.  A table belongs to the stobj instance
whose field holds it, so undoing a stobj definition unbinds that name
by walking the session's stobj bank down through every table.

The mode is read in stobjs, not here: stobjs._table hands a write the
live cell in native mode and a copy in logical mode.
"""

from . import sexpr
from .sexpr import NIL, Cons, intern
from .errors import EvalError, OwnershipError


class TableCell:
    """Execution view of one stobj-table field: Symbol -> StobjInstance.

    A child stored in place is marked as owned with the cell's `mark`,
    not the cell itself, so a stored child makes no reference cycle.
    """

    __slots__ = ("data", "mark")

    def __init__(self, data=None):
        self.data = {} if data is None else data
        self.mark = object()

    def copy(self):
        return TableCell(dict(self.data))


def table_put(cell, key, child, own):
    """Store child under key in cell, in place.  An owning store marks
    child as held by cell and refuses a child that another cell holds.
    Only a live cell, written in place, owns its children: a logical
    table version shares them with the versions before it.  Invariant:
    an interpreter keeps the mode it was built with, so a logical one
    never marks a child and a native one stores only into live cells;
    a child's mark is that of the one live cell that holds it."""
    if own:
        if child.owner is not None and child.owner is not cell.mark:
            raise OwnershipError(
                "stobj %s is already owned by another location and cannot "
                "be stored in a second table" % child.print_name)
        child.owner = cell.mark
    cell.data[key] = child


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
