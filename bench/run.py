"""stlisp benchmark: four seeded workloads on both execution paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the interpreter is imported from `src/`.
Load is one closed loop in one thread: each repetition starts after the
previous one ends, on a fresh Interp, alternating the logical and native
paths.  Every repetition's result and final stobj bank are checked
against a reference computed in Python (see workloads.py), and the
generated program must pass `stlisp diff`.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the layers
(see tracer.py) and prints the per-layer split.  Human-readable lines
come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Samples, metadata and
the spans of one traced repetition go to `<out>/<workload>-seed<N>-
trace<T>.json`.  The exit code is 0 only if every check passed.
"""

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WARMUP_PAIRS = {"full": 3, "smoke": 1}
MIN_REPS = {"full": 100, "smoke": 2}      # per mode; p90 then has >= 10 above
TRACE_MIN_REPS = {"full": 5, "smoke": 1}  # traced repetitions per mode
SETUPS = {"full": 21, "smoke": 3}
TAIL_PCT = 90
# The calibration loop's time on a quiet 2-CPU x86 host with Python 3.11
# (its 5th percentile there was 1.9-2.1 ms).  Timings are reported as if
# the calibration loop took this long.
REFERENCE_CALIBRATION_NS = 2_000_000
SPAN_LIMIT = 20000
MODES = ("logical", "native")

# Per-layer metrics: (layer, statistics).  Each is reported per mode as
# <mode>.<layer>.<stat>, next to <mode>.trace.overhead.
LAYER_METRICS = [
    ("loops.make_do_plan", ("calls", "self_ms")),
    ("loops.parse_loop", ("calls", "self_ms")),
    ("kernel.apply_lambda", ("calls", "self_ms")),
    ("loops.run_do", ("self_ms",)),
    ("loops.native_exec", ("self_ms",)),
    ("sexpr.show", ("calls",)),
    ("stobjs.stobj_let", ("calls", "self_ms")),
    ("stobjs.with_cell", ("calls",)),
    ("stobj_table.copy", ("calls", "entries", "self_ms")),
    ("stobjs.apply_generated", ("calls",)),
    ("kernel.eval", ("calls", "self_ms")),
    ("kernel.dispatch", ("calls", "self_ms")),
    ("kernel.call_defun", ("calls", "self_ms")),
    ("loops.lex_fix", ("calls",)),
    ("stobjs.analyze", ("calls", "self_ms")),
    ("kernel.event", ("self_ms",)),
    ("sexpr.read_all", ("self_ms",)),
    ("refinement.check_constraints", ("self_ms",)),
]
STAT_UNITS = {"calls": "count", "entries": "count", "self_ms": "ms"}


def fail(msg):
    print("bench: " + msg, file=sys.stderr)
    sys.exit(2)


if not (SRC / "stlisp" / "__init__.py").is_file():
    fail("no stlisp sources under %s; run from a full checkout" % SRC)
sys.path.insert(0, str(SRC))

import stlisp  # noqa: E402
from stlisp import cli, sexpr  # noqa: E402
from stlisp.kernel import Interp  # noqa: E402

if Path(stlisp.__file__).resolve().parent != SRC / "stlisp":
    fail("imported stlisp from %s, not from %s" % (stlisp.__file__, SRC))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class _Node:
    __slots__ = ("head", "rest")

    def __init__(self, head, rest):
        self.head = head
        self.rest = rest


def calibrate():
    """Fixed pure-Python work in the interpreter's style: small objects,
    attribute reads, dict lookups and isinstance tests."""
    env = {}
    node = None
    acc = 0
    for i in range(6000):
        node = _Node(i, node if i & 31 else None)
        env[i & 127] = node
        hit = env.get((i * 7) & 127)
        if isinstance(hit, _Node) and isinstance(hit.rest, _Node):
            acc += hit.rest.head & 15
    return acc


def timed_calibration():
    t0 = time.perf_counter_ns()
    calibrate()
    return time.perf_counter_ns() - t0


class Bracket:
    """Calibration timings around a sequence of measurements.  Each
    measurement is paired with the mean of the calibration timed just
    before it and the one timed just after it, which is also the next
    measurement's "before"."""

    def __init__(self):
        gc.collect()
        self.last = timed_calibration()

    def around(self, fn, *args):
        before = self.last
        out = fn(*args)
        gc.collect()
        self.last = timed_calibration()
        return out, (before + self.last) / 2


class Run:
    """State of one benchmark invocation: the workload, its parsed
    forms, and the tallies of attempted and failed operations."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.events, self.body = workloads.split_forms(
            sexpr.read_all(wl.text))
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, ops, errors):
        self.attempted += ops
        if errors:
            self.failed += ops
            for e in errors:
                if len(self.errors) < 20:
                    self.errors.append(e)
                    lines = e.strip().splitlines()
                    print("bench: FAIL " + " ... ".join(
                        dict.fromkeys([lines[0], lines[-1]])),
                        file=sys.stderr)

    def admit(self, mode, read=False):
        interp = Interp(mode=mode)
        interp.out = io.StringIO()
        events = workloads.split_forms(sexpr.read_all(self.wl.text))[0] \
            if read else self.events
        for form in events:
            interp.eval_top(form)
        return interp

    def rep(self, mode, index, full_cycle=False):
        """Run one repetition; returns (ns, (result, bank)).

        Times the workload's timed part alone, or, with full_cycle, also
        the fresh Interp, the read, the definitions and the untimed
        preparation (the traced run's scope).
        """
        errors = []
        outcome = None
        ns = 0
        try:
            t0 = time.perf_counter_ns()
            interp = self.admit(mode, read=full_cycle)
            self.wl.prepare(interp, self.body)
            if not full_cycle:
                t0 = time.perf_counter_ns()
            result = self.wl.run(interp, self.body, index)
            ns = time.perf_counter_ns() - t0
            errors = self.wl.check(interp, result, index)
            outcome = (result, workloads.bank_view(interp))
        except Exception:
            errors = ["%s rep %d (%s) raised:\n%s"
                      % (self.wl.name, index, mode, traceback.format_exc())]
        self.record(self.wl.ops, errors)
        return ns, outcome

    def compare_paths(self, index, outcomes):
        """Both paths must give the same result and final bank."""
        a, b = outcomes["logical"], outcomes["native"]
        if a is not None and b is not None and a != b:
            self.record(1, ["%s rep %d: logical %r differs from native %r"
                            % (self.wl.name, index, a, b)])

    def diff_check(self, out_dir, scheduler_path):
        """`stlisp diff` on the generated program, through cli.main."""
        if self.wl.name == "scheduler_check":
            path = scheduler_path
        else:
            path = out_dir / ("%s-seed%d.lisp" % (self.wl.name, self.seed))
            path.write_text(self.wl.text, encoding="utf-8")
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(["diff", str(path)])
        except Exception:
            code = "exception: " + traceback.format_exc()
        errors = [] if code == 0 else [
            "stlisp diff %s: exit %s: %s" % (path.name, code, buf.getvalue())]
        self.record(1, errors)
        return buf.getvalue().strip()

    def setups(self, count, bracket):
        """`count` set-ups (fresh Interp, read, admit):
        [(set-up ns, calibration ns)]."""
        def one():
            t0 = time.perf_counter_ns()
            self.admit("logical", read=True)
            return time.perf_counter_ns() - t0
        return [bracket.around(one) for _ in range(count)]

    def peak_kb(self):
        """tracemalloc peak of one whole repetition per path, untimed."""
        peaks = {}
        for mode in MODES:
            gc.collect()
            tracemalloc.start()
            try:
                self.rep(mode, 0)
                peaks[mode] = tracemalloc.get_traced_memory()[1] / 1024
            finally:
                tracemalloc.stop()
        return max(peaks.values()), peaks


def pairs():
    """Repetition indices, each with the path order, which alternates."""
    for i in itertools.count():
        yield i, MODES if i % 2 == 0 else MODES[::-1]


def tail(values, pct=TAIL_PCT):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, -(-pct * len(s) // 100) - 1)
    return s[k]


def measure(run, seconds, size, bracket):
    """The untraced closed loop: returns per-mode rep and calibration
    times in ns, warm-up pairs excluded."""
    samples = {m: {"rep_ns": [], "calib_ns": []} for m in MODES}
    start = time.perf_counter()
    hard_stop = start + max(3 * seconds, 30)
    for i, order in pairs():
        outcomes = {}
        for mode in order:
            (ns, outcomes[mode]), calib = bracket.around(run.rep, mode, i)
            if i >= WARMUP_PAIRS[size]:
                samples[mode]["rep_ns"].append(ns)
                samples[mode]["calib_ns"].append(calib)
        run.compare_paths(i, outcomes)
        now = time.perf_counter()
        n = len(samples["logical"]["rep_ns"])
        if (now - start >= seconds and n >= MIN_REPS[size]) \
                or now >= hard_stop:
            return samples


def end_to_end(run, seconds, size):
    """The end-to-end metrics.

    The host's speed drifts: other tenants slow the calibration loop,
    and the program with it, by up to 1.8x for seconds or whole runs at
    a time.  Each timing is therefore divided by its calibration time
    (the mean of the calibrations just before and after it) and
    expressed at REFERENCE_CALIBRATION_NS, the calibration loop's time
    on a quiet host.  A slower program still shows, since its own time
    is the numerator; the unscaled wall times are printed and saved
    beside the metrics, for calibration changes that are not load.
    """
    wl = run.wl
    bracket = Bracket()
    setups = run.setups(SETUPS[size], bracket)
    samples = measure(run, seconds, size, bracket)
    peak, peaks = run.peak_kb()
    ref = REFERENCE_CALIBRATION_NS
    metrics = {}
    raw = {}
    for mode in MODES:
        reps = samples[mode]["rep_ns"]
        cal = samples[mode]["calib_ns"]
        rel = [r / c for r, c in zip(reps, cal)]
        per_op = [x * ref / 1000 / wl.ops for x in rel]
        metrics[mode + "_us_per_op"] = (statistics.median(per_op), "us")
        metrics[mode + "_us_per_op_tail"] = (tail(per_op), "us")
        metrics[mode + "_rel"] = (statistics.median(rel), "ratio")
        unscaled = [r / 1000 / wl.ops for r in reps]
        raw[mode + "_us_per_op_unscaled"] = (statistics.median(unscaled),
                                             "us")
        raw[mode + "_us_per_op_tail_unscaled"] = (tail(unscaled), "us")
    metrics["setup_s"] = (statistics.median(
        t / c * ref / 1e9 for t, c in setups), "s")
    metrics["peak_kb"] = (peak, "KiB")
    raw["setup_s_unscaled"] = (statistics.median(t for t, _c in setups) / 1e9,
                               "s")
    calibs = sorted([c for m in MODES for c in samples[m]["calib_ns"]]
                    + [c for _s, c in setups])
    raw["calibration_us_p5"] = (calibs[len(calibs) // 20] / 1000, "us")
    raw["calibration_us_median"] = (statistics.median(calibs) / 1000, "us")
    extra = {
        "samples": {m: len(samples[m]["rep_ns"]) for m in MODES},
        "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "peak_kb_by_mode": peaks,
        "setups_ns": setups,
        "raw": samples,
    }
    return metrics, raw, extra


def traced(run, seconds, size):
    """Alternate untraced and traced full-cycle repetitions per path."""
    tracer = Tracer()
    walls = {m: [] for m in MODES}
    traced_walls = {m: [] for m in MODES}
    summaries = {m: [] for m in MODES}
    spans = {}
    start = time.perf_counter()
    hard_stop = start + max(3 * seconds, 30)
    for i, order in pairs():
        outcomes = {}
        for mode in order:
            gc.collect()
            ns, outcomes[mode] = run.rep(mode, i, full_cycle=True)
            if i == 0:
                continue  # warm-up
            walls[mode].append(ns)
            gc.collect()
            tracer.reset()
            tracer.install()
            try:
                tns, _ = run.rep(mode, i, full_cycle=True)
            finally:
                tracer.remove()
            layers, total_self = tracer.summary()
            traced_walls[mode].append(tns)
            summaries[mode].append((layers, total_self))
            if total_self > tns:
                run.record(1, ["%s rep %d (%s): self times sum to %d ns, "
                               "more than the traced wall time %d ns"
                               % (run.wl.name, i, mode, total_self, tns)])
            if mode not in spans:
                spans[mode] = tracer.spans(SPAN_LIMIT)
        run.compare_paths(i, outcomes)
        now = time.perf_counter()
        n = len(summaries["logical"])
        if (now - start >= seconds and n >= TRACE_MIN_REPS[size]) \
                or now >= hard_stop:
            break

    metrics = {}
    for mode in MODES:
        overhead = statistics.median(traced_walls[mode]) \
            / statistics.median(walls[mode])
        selfs = [t for _l, t in summaries[mode]]
        bound = statistics.median(walls[mode]) * overhead * (1 + 1e-9)
        if statistics.median(selfs) > bound:
            run.record(1, ["%s (%s): median self time %d ns exceeds the "
                           "untraced wall time times the overhead, %d ns"
                           % (run.wl.name, mode, statistics.median(selfs),
                              bound)])
        for layer, stats in LAYER_METRICS:
            for stat in stats:
                key = "self_ns" if stat == "self_ms" else stat
                vals = [l[layer][key] for l, _t in summaries[mode]]
                v = statistics.median(vals)
                if stat == "self_ms":
                    v /= 1e6
                metrics["%s.%s.%s" % (mode, layer, stat)] = (
                    v, STAT_UNITS[stat])
        metrics[mode + ".trace.overhead"] = (overhead, "ratio")
    extra = {
        "traced_reps": {m: len(summaries[m]) for m in MODES},
        "untraced_wall_ns": walls,
        "traced_wall_ns": traced_walls,
        "self_ns_total": {m: [t for _l, t in summaries[m]] for m in MODES},
        "spans_first_traced_rep": spans,
    }
    return metrics, extra


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES),
                    default="full", help="smoke: tiny inputs for tests")
    ap.add_argument("--out", default=str(HERE / "out"),
                    help="directory for the samples file")
    args = ap.parse_args(argv)

    scheduler_path = ROOT / "corpus" / "scheduler_demo.lisp"
    try:
        scheduler_text = scheduler_path.read_text(encoding="utf-8")
    except OSError as e:
        fail("cannot read the scheduler demo: %s" % e)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    wl = workloads.make(args.workload, args.seed, args.size, scheduler_text)
    run = Run(wl, args.seed)
    diff_out = run.diff_check(out_dir, scheduler_path)
    metrics, raw, extra = {}, {}, {}
    try:
        if args.trace:
            metrics, extra = traced(run, args.seconds, args.size)
        else:
            metrics, raw, extra = end_to_end(run, args.seconds, args.size)
    except Exception:
        # A failed repetition can leave nothing to take a median of.
        run.record(1, ["measurement aborted:\n" + traceback.format_exc()])

    correct = run.failed == 0
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "ops_per_rep": wl.ops,
        "tail_percentile": TAIL_PCT, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": git_commit(ROOT),
        "diff": diff_out, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "errors": run.errors,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record.update(extra)
    path = out_dir / ("%s-seed%d-trace%d.json"
                      % (wl.name, args.seed, args.trace))
    path.write_text(json.dumps(record), encoding="utf-8")

    print("%s seed %d: %s, commit %s, python %s, nproc %s"
          % (wl.name, args.seed, "traced" if args.trace else "untraced",
             record["commit"][:12], record["python"], record["nproc"]))
    if "samples" in extra:
        print("samples per path: %d logical, %d native; tails are p%d"
              % (extra["samples"]["logical"], extra["samples"]["native"],
                 TAIL_PCT))
    for name, (value, unit) in list(metrics.items()) + list(raw.items()):
        print("%-44s %14.6g %s" % (name, value, unit))
    print("%-44s %14.6g %s" % ("fail_ratio", run.failed / run.attempted,
                               "ratio"))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
