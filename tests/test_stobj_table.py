"""Stobj-table semantics, differentially tested against a pure Python
mapping model, plus the algebraic laws and undo retraction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from stlisp import sexpr, stobj_table, stobjs
from stlisp.errors import EvalError
from stlisp.kernel import Interp
from stlisp.sexpr import NIL, T, intern, show

KEYS = ["C0", "C1", "C2", "C3", "C4"]

SETUP = "(defstobj t0 (tbl :type (stobj-table)))\n" + "\n".join(
    """
    (defstobj %(k)s %(f)s)
    (defun put-%(k)s (x t0)
      (declare (xargs :stobjs (t0)))
      (stobj-let ((%(k)s (tbl-get '%(k)s t0 (create-%(k)s))))
                 (%(k)s) (update-%(f)s x %(k)s) t0))
    (defun read-%(k)s (t0)
      (declare (xargs :stobjs (t0)))
      (stobj-let ((%(k)s (tbl-get '%(k)s t0 (create-%(k)s))))
                 (out) (%(f)s %(k)s) out))
    """ % {"k": k, "f": "V" + k[1]} for k in KEYS)


def table_interp(mode="logical"):
    interp = Interp(mode=mode)
    interp.eval_text(SETUP)
    return interp


class ModelTable:
    """Independent oracle: a plain dict from key name to field value."""

    def __init__(self):
        self.data = {}

    def put(self, k, v):
        self.data[k] = v

    def rem(self, k):
        self.data.pop(k, None)

    def clear(self):
        self.data.clear()

    def read(self, k):
        return self.data.get(k, NIL)

    def boundp(self, k):
        return k in self.data

    def count(self):
        return len(self.data)

    def view(self):
        # an entry is (key . child-view); the child is a one-field stobj,
        # so its view is a one-element list and the pair prints undotted
        if not self.data:
            return "NIL"
        items = ["(%s %s)" % (k, show(v))
                 for k, v in sorted(self.data.items())]
        return "(" + " ".join(items) + ")"


def apply_op(interp, model, op, k, v):
    if op == "put":
        interp.eval_text("(put-%s %d t0)" % (k, v))
        model.put(k, v)
    elif op == "rem":
        interp.eval_text("(tbl-rem '%s t0)" % k)
        model.rem(k)
    elif op == "clear":
        interp.eval_text("(tbl-clear t0)")
        model.clear()
    elif op == "read":
        got = interp.eval_text("(read-%s t0)" % k)[0][1]
        want = model.read(k)
        assert (got == want if isinstance(want, int) else got is want)


def assert_agree(interp, model, full):
    assert interp.eval_text("(tbl-count t0)")[0][1] == model.count()
    if full:
        for k in KEYS:
            got = interp.eval_text("(tbl-boundp '%s t0)" % k)[0][1]
            assert got is (T if model.boundp(k) else NIL)
        view = interp.bank["T0"].logical_view()
        assert show(view) == "(%s)" % model.view()


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_thousand_random_ops_match_model(mode):
    rng = random.Random(1789 if mode == "logical" else 1793)
    interp = table_interp(mode)
    model = ModelTable()
    for i in range(1000):
        op = rng.choice(["put", "put", "put", "read", "read", "rem",
                         "boundp", "clear" if i % 97 == 0 else "rem"])
        k = rng.choice(KEYS)
        v = rng.randint(-999, 999)
        if op == "boundp":
            got = interp.eval_text("(tbl-boundp '%s t0)" % k)[0][1]
            assert got is (T if model.boundp(k) else NIL)
        else:
            apply_op(interp, model, op, k, v)
        assert_agree(interp, model, full=(i % 10 == 0))
    assert_agree(interp, model, full=True)


def test_read_over_write_law():
    interp = table_interp()
    model = ModelTable()
    rng = random.Random(42)
    for _ in range(60):
        k = rng.choice(KEYS)
        v = rng.randint(0, 99)
        apply_op(interp, model, "put", k, v)
        # reading the written key sees the new value
        assert interp.eval_text("(read-%s t0)" % k)[0][1] == v
        # every other key is untouched
        for j in KEYS:
            if j != k:
                apply_op(interp, model, "read", j, 0)


def test_rem_cancels_put_law():
    interp = table_interp()
    model = ModelTable()
    rng = random.Random(43)
    for _ in range(60):
        k = rng.choice(KEYS)
        apply_op(interp, model, "put", k, rng.randint(0, 99))
        apply_op(interp, model, "rem", k, 0)
        assert interp.eval_text("(tbl-boundp '%s t0)" % k)[0][1] is NIL
        assert_agree(interp, model, full=True)


def test_count_consistency_law():
    interp = table_interp()
    bound = set()
    rng = random.Random(44)
    for _ in range(80):
        k = rng.choice(KEYS)
        if rng.random() < 0.6:
            interp.eval_text("(put-%s 1 t0)" % k)
            bound.add(k)
        else:
            interp.eval_text("(tbl-rem '%s t0)" % k)
            bound.discard(k)
        n = 0
        for j in KEYS:
            if interp.eval_text("(tbl-boundp '%s t0)" % j)[0][1] is T:
                n += 1
        assert n == len(bound)
        assert interp.eval_text("(tbl-count t0)")[0][1] == len(bound)


_op = st.tuples(st.sampled_from(["put", "read", "rem", "clear"]),
                st.sampled_from(KEYS),
                st.integers(min_value=-50, max_value=50))


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_op, max_size=25))
def test_property_model_equivalence(ops):
    interp = table_interp()
    model = ModelTable()
    for op, k, v in ops:
        apply_op(interp, model, op, k, v)
    assert_agree(interp, model, full=True)


def test_reads_never_populate():
    interp = table_interp()
    for k in KEYS:
        assert interp.eval_text("(read-%s t0)" % k)[0][1] is NIL
    assert interp.eval_text("(tbl-count t0)")[0][1] == 0


def test_rem_and_clear_of_missing_keys_are_noops():
    interp = table_interp()
    interp.eval_text("(tbl-rem 'c0 t0)")
    interp.eval_text("(tbl-clear t0)")
    assert interp.eval_text("(tbl-count t0)")[0][1] == 0
    interp.eval_text("(put-c1 5 t0)")
    interp.eval_text("(tbl-rem 'c0 t0)")
    assert interp.eval_text("(tbl-count t0)")[0][1] == 1


# --------------------------------------------------------------- retraction

def test_retract_reaches_both_fields_of_one_stobj():
    interp = Interp()
    interp.eval_text("""
      (defstobj pair (ta :type (stobj-table)) (tb :type (stobj-table)))
      (defstobj kid val)
      (defun fill-both (pair)
        (declare (xargs :stobjs (pair)))
        (let ((pair (stobj-let ((kid (ta-get 'kid pair (create-kid))))
                               (kid) (update-val 1 kid) pair)))
          (stobj-let ((kid (tb-get 'kid pair (create-kid))))
                     (kid) (update-val 2 kid) pair)))
      (fill-both pair)
    """)
    assert interp.eval_text("(ta-count pair)")[0][1] == 1
    assert interp.eval_text("(tb-count pair)")[0][1] == 1
    interp.undo(2)  # the kid definition
    assert interp.eval_text("(ta-count pair)")[0][1] == 0
    assert interp.eval_text("(tb-count pair)")[0][1] == 0


def test_retract_helper_on_raw_cells():
    a = stobj_table.TableCell({intern("X"): "left"})
    b = stobj_table.TableCell({intern("X"): "right", intern("Y"): "keep"})
    holder = stobjs.StobjSpec("HOLDER",
                              [stobjs.FieldSpec("TBL", stobjs.TABLE)])
    stobj_table.retract([stobjs.StobjInstance(holder, a),
                         stobjs.StobjInstance(holder, b)], ["X"])
    assert intern("X") not in a.data
    assert intern("X") not in b.data
    assert b.data[intern("Y")] == "keep"


def test_retract_reaches_tables_inside_table_children():
    for mode in ("logical", "native"):
        interp = Interp(mode=mode)
        interp.eval_text("""
          (defstobj mid (mt :type (stobj-table)))
          (defstobj top (tt :type (stobj-table)))
          (defun leaves (top)
            (declare (xargs :stobjs (top)))
            (stobj-let ((mid (tt-get 'mid top (create-mid))))
                       (n) (mt-count mid) n))
          (defstobj leaf v)
          (defun put-leaf (mid)
            (declare (xargs :stobjs (mid)))
            (stobj-let ((leaf (mt-get 'leaf mid (create-leaf))))
                       (leaf) (update-v 1 leaf) mid))
          (defun put-mid (top)
            (declare (xargs :stobjs (top)))
            (stobj-let ((mid (tt-get 'mid top (create-mid))))
                       (mid) (put-leaf mid) top))
          (put-mid top)
        """)
        assert interp.eval_text("(leaves top)")[0][1] == 1
        interp.undo(4)  # the leaf definition
        assert interp.eval_text("(leaves top)")[0][1] == 0


@pytest.mark.parametrize("mode", ["logical", "native"])
def test_fresh_one_field_table_stobjs_hold_distinct_cells(mode):
    # The bank's MID and the MID a stobj-let draws on a miss are both
    # fresh instances of a one-field table stobj.
    interp = Interp(mode=mode)
    interp.eval_text("""
      (defstobj leaf v)
      (defstobj mid (mt :type (stobj-table)))
      (defstobj top (tt :type (stobj-table)))
      (defun put-leaf (mid)
        (declare (xargs :stobjs (mid)))
        (stobj-let ((leaf (mt-get 'leaf mid (create-leaf))))
                   (leaf) (update-v 1 leaf) mid))
      (defun put-mid (top)
        (declare (xargs :stobjs (top)))
        (stobj-let ((mid (tt-get 'mid top (create-mid))))
                   (mid) (put-leaf mid) top))
      (put-mid top)
    """)
    own = interp.bank["MID"]
    drawn = interp.bank["TOP"].get_cell(0).data[intern("MID")]
    assert own.get_cell(0) is not drawn.get_cell(0)
    assert show(own.logical_view()) == "(NIL)"
    assert show(drawn.logical_view()) == "(((LEAF 1)))"
    spec = own.spec
    assert spec.fresh().get_cell(0) is not spec.fresh().get_cell(0)


def test_logical_view_is_sorted_alist():
    cell = stobj_table.TableCell({})

    class FakeInst:
        def logical_view(self):
            return NIL

    cell.data[intern("ZU")] = FakeInst()
    cell.data[intern("AB")] = FakeInst()
    cell.data[intern("MM")] = FakeInst()
    assert show(stobj_table.logical_view(cell)) \
        == "((AB) (MM) (ZU))"
