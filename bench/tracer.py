"""Spans around stlisp's layers, installed from outside the package.

The tracer replaces selected functions and methods with wrappers that
record one span per call: what was called, the span that was open when
it was called, and start and end times.  Spans are kept in memory in
flat arrays and turned into per-layer calls and self time after each
repetition; a layer's self time is its span's duration minus the
durations of its direct child spans.
"""

import time
from array import array

from stlisp import (cli, kernel, loops, refinement, sexpr, stobj_table,
                    stobjs)

# Every stlisp module whose namespace may hold a binding of a traced
# function; `from .sexpr import show` copies the function object into the
# importing module, so each binding is replaced.
MODULES = (sexpr, stobjs, stobj_table, loops, refinement, kernel, cli)

# layer name -> (owner object, attribute).  Module-level functions are
# replaced in every module that binds them; methods on their class.
TARGETS = {
    "sexpr.show": (sexpr, "show"),
    "sexpr.read_all": (sexpr, "read_all"),
    "stobjs.stobj_let": (stobjs, "eval_stobj_let"),
    "stobjs.with_cell": (stobjs.StobjInstance, "with_cell"),
    "stobjs.apply_generated": (stobjs, "apply_generated"),
    "stobjs.analyze": (stobjs.Analyzer, "analyze"),
    "stobj_table.copy": (stobj_table.TableCell, "copy"),
    "loops.parse_loop": (loops, "parse_loop"),
    "loops.make_do_plan": (loops, "make_do_plan"),
    "loops.run_do": (loops, "run_do"),
    "loops.native_exec": (loops, "native_exec"),
    "loops.lex_fix": (loops, "lex_fix"),
    "kernel.eval": (kernel.Interp, "eval"),
    "kernel.dispatch": (kernel.Interp, "_dispatch"),
    "kernel.call_defun": (kernel.Interp, "_call_defun"),
    "kernel.apply_lambda": (kernel.Interp, "apply_lambda"),
    "kernel.event": (kernel.Interp, "_event"),
    "refinement.check_constraints": (refinement, "check_constraints"),
}

# Extra work counts: layer -> function of the call's arguments.
ENTRIES = {"stobj_table.copy": lambda cell, *a, **k: len(cell.data)}


class Tracer:
    def __init__(self):
        self.layers = list(TARGETS)
        self._installed = []
        self.codes = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.entries = {name: 0 for name in ENTRIES}
        self._stack = [-1]

    def reset(self):
        """Forget every span recorded so far."""
        for a in (self.codes, self.parents, self.starts, self.ends):
            del a[:]
        for name in self.entries:
            self.entries[name] = 0

    def _wrap(self, code, layer, fn):
        codes, parents, starts, ends = (self.codes, self.parents,
                                        self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter_ns
        count = ENTRIES.get(layer)
        entries = self.entries

        def traced(*args, **kwargs):
            sid = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0)
            if count is not None:
                entries[layer] += count(*args, **kwargs)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target; `remove` restores the originals."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for code, layer in enumerate(self.layers):
            owner, attr = TARGETS[layer]
            fn = owner.__dict__[attr]
            wrapper = self._wrap(code, layer, fn)
            owners = [owner] if isinstance(owner, type) else \
                [m for m in MODULES if m.__dict__.get(attr) is fn]
            for o in owners:
                self._installed.append((o, attr, fn))
                setattr(o, attr, wrapper)

    def remove(self):
        for o, attr, fn in reversed(self._installed):
            setattr(o, attr, fn)
        self._installed = []

    def summary(self):
        """Per-layer {"calls", "self_ns"} (plus "entries" where counted)
        for the spans recorded since the last reset, and the sum of all
        self times."""
        n = len(self.codes)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        parents = self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        out = {layer: {"calls": 0, "self_ns": 0} for layer in self.layers}
        total = 0
        for i in range(n):
            own = dur[i] - child[i]
            total += own
            rec = out[self.layers[self.codes[i]]]
            rec["calls"] += 1
            rec["self_ns"] += own
        for layer, v in self.entries.items():
            out[layer]["entries"] = v
        return out, total

    def spans(self, limit):
        """The first `limit` spans as [layer, parent, start_ns, end_ns],
        with times relative to the first span's start."""
        n = min(limit, len(self.codes))
        t0 = self.starts[0] if n else 0
        return [[self.layers[self.codes[i]], self.parents[i],
                 self.starts[i] - t0, self.ends[i] - t0] for i in range(n)]
