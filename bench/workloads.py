"""The benchmark's workloads: seeded program generators and references.

Each workload turns a seed into Lisp text, splits it into definition
events (admitted during set-up) and the forms one repetition evaluates,
and checks a repetition's result against a reference computed here in
plain Python, never by the interpreter under test.
"""

import random

from stlisp import refinement, sexpr
from stlisp.sexpr import show

EVENT_HEADS = ("DEFUN", "DEFSTOBJ", "ENCAPSULATE", "DEFATTACH")

# Sizes of one repetition.  "full" is what the benchmark measures; one
# logical repetition takes 50-100 ms on a 2-CPU x86 host, so a 25 s run
# gives at least 100 repetitions per path.  "smoke" is for the
# benchmark's own tests.
SIZES = {
    "full": {"wide_do": 150, "loop_in_defun": 100, "table_mix": (128, 320),
             "scheduler_check": 80},
    "smoke": {"wide_do": 5, "loop_in_defun": 4, "table_mix": (8, 16),
              "scheduler_check": 3},
}


def split_forms(forms):
    """(definition events, the remaining top-level forms)."""
    def is_event(f):
        return isinstance(f, sexpr.Cons) and isinstance(f.car, sexpr.Symbol) \
            and f.car.name in EVENT_HEADS
    return [f for f in forms if is_event(f)], \
        [f for f in forms if not is_event(f)]


def bank_view(interp):
    return {name: show(inst.logical_view())
            for name, inst in sorted(interp.bank.items())}


class Workload:
    """One generated program.

    `text` is everything the interpreter reads.  `ops` is the number of
    operations one repetition performs.  `run(interp, body, rep)`
    evaluates the timed part of one repetition, on an interpreter that
    has admitted the definitions and run `prepare`; `check(interp,
    result, rep)` compares it with `expected(rep)` (by default the
    precomputed `answer`) and the final bank with `expected_bank`, and
    returns a list of mismatch descriptions, empty when correct.
    """

    name = None
    text = ""
    ops = 0
    expected_bank = {}

    def prepare(self, interp, body):
        """Untimed work between the definitions and the timed part."""

    def run(self, interp, body, rep):
        result = None
        for form in body:
            result = interp.eval_top(form)
        return show(result)

    def expected(self, rep):
        return self.answer

    def check(self, interp, result, rep):
        errors = []
        want = self.expected(rep)
        if result != want:
            errors.append("%s rep %d (%s): result %s, expected %s"
                          % (self.name, rep, interp.mode, result, want))
        bank = bank_view(interp)
        if bank != self.expected_bank:
            errors.append("%s rep %d (%s): final bank %s, expected %s"
                          % (self.name, rep, interp.mode, bank,
                             self.expected_bank))
        return errors


class WideDo(Workload):
    """One top-level DO loop: a countdown plus 12 accumulators.

    Every variable read in the logical path is an ASSOC-EQ-SAFE over the
    13-entry alist, and every `+` and `1-` formats its integer guard
    message eagerly, so the loop drivers and `show` dominate while the
    loop is translated once.  One op is one application of the body.
    """

    name = "wide_do"

    def __init__(self, seed, iterations):
        rng = random.Random(seed)
        inits = [rng.randrange(1000, 100000) for _ in range(12)]
        steps = [rng.randrange(1, 1000) for _ in range(12)]
        withs = "".join("       with a%02d = %d\n" % (i, v)
                        for i, v in enumerate(inits))
        sets = "".join("           (setq a%02d (+ a%02d %d))\n" % (i, i, k)
                       for i, k in enumerate(steps))
        total = " ".join("a%02d" % i for i in range(12))
        self.text = (
            "(loop$ with n = %d\n%s"
            "       do\n"
            "       (if (zp n)\n"
            "           (return (+ %s))\n"
            "         (progn\n%s"
            "           (setq n (1- n)))))\n"
            % (iterations, withs, total, sets))
        self.ops = iterations + 1
        self.answer = str(sum(inits) + iterations * sum(steps))


class LoopInDefun(Workload):
    """A guarded defun whose body is a 3-iteration typed DO loop, called
    from a 2-variable DO driver.  The inner loop is parsed and planned
    again on every call.  One op is one call of BUMP."""

    name = "loop_in_defun"

    def __init__(self, seed, calls):
        rng = random.Random(seed)
        start = rng.randrange(0, 1000000)
        step = rng.randrange(1, 1000)
        self.text = """\
(defun bump (x d)
  (declare (xargs :guard (natp x)))
  (loop$ with i of-type integer = 3
         with acc of-type integer = x
         with k of-type integer = d
         do
         :guard (natp i)
         (if (zp i)
             (return acc)
           (progn (setq acc (+ acc k))
                  (setq i (1- i))))))

(loop$ with n = %d
       with total = %d
       do
       (if (zp n)
           (return total)
         (progn (setq total (bump total %d))
                (setq n (1- n)))))
""" % (calls, start, step)
        self.ops = calls
        self.answer = str(start + calls * 3 * step)


class TableMix(Workload):
    """Child stobjs C000.. stored as keys of TOP's stobj-table, accessed
    through stobj-let.  An untimed first loop writes every key once, so
    each logical write then copies a full table.  The timed loop makes
    one write-back flip to every three read-only peeks, in seeded order.
    Key dispatch is a balanced IF tree, so every key costs the same.
    One op is one table access."""

    name = "table_mix"

    def __init__(self, seed, size):
        keys, nops = size
        rng = random.Random(seed)
        parts = ["(defstobj c%03d (f%03d :initially nil))" % (i, i)
                 for i in range(keys)]
        parts.append("(defstobj top (tbl :type (stobj-table)))")
        for i in range(keys):
            parts.append(
                "(defun peek-%03d (top)\n"
                "  (declare (xargs :stobjs (top)))\n"
                "  (stobj-let ((c%03d (tbl-get 'c%03d top (create-c%03d))))\n"
                "             (v)\n"
                "             (f%03d c%03d)\n"
                "             v))" % ((i,) * 6))
            parts.append(
                "(defun flip-%03d (top)\n"
                "  (declare (xargs :stobjs (top)))\n"
                "  (stobj-let ((c%03d (tbl-get 'c%03d top (create-c%03d))))\n"
                "             (c%03d)\n"
                "             (update-f%03d (not (f%03d c%03d)) c%03d)\n"
                "             top))" % ((i,) * 9))
        for fn in ("peek", "flip"):
            parts.append("(defun %s (i top)\n"
                         "  (declare (xargs :stobjs (top)))\n"
                         "  %s)" % (fn, _dispatch_tree(fn, 0, keys)))
        order = list(range(keys))
        rng.shuffle(order)
        parts.append(
            "(loop$ with ks = '(%s)\n"
            "       do\n"
            "       :values (top)\n"
            "       (if (consp ks)\n"
            "           (progn (setq top (flip (car ks) top))\n"
            "                  (setq ks (cdr ks)))\n"
            "         (return top)))" % " ".join(map(str, order)))

        # The Python model of the table: key -> field value.
        model = {k: True for k in range(keys)}
        codes = []
        hits = 0
        for _group in range(nops // 4):
            kinds = ["w", "r", "r", "r"]
            rng.shuffle(kinds)
            for kind in kinds:
                k = rng.randrange(keys)
                if kind == "w":
                    model[k] = not model[k]
                    codes.append(keys + k)
                else:
                    hits += model[k]
                    codes.append(k)
        parts.append(
            "(loop$ with ops = '(%s)\n"
            "       with hits = 0\n"
            "       do\n"
            "       :values (nil top)\n"
            "       (if (consp ops)\n"
            "           (let ((i (car ops)))\n"
            "             (if (< i %d)\n"
            "                 (progn (setq hits\n"
            "                              (if (peek i top) (1+ hits) hits))\n"
            "                        (setq ops (cdr ops)))\n"
            "               (progn (setq top (flip (- i %d) top))\n"
            "                      (setq ops (cdr ops)))))\n"
            "         (return (mv hits top))))"
            % (" ".join(map(str, codes)), keys, keys))
        self.text = "\n\n".join(parts) + "\n"
        self.ops = len(codes)
        self.answer = "(%d <TOP>)" % hits
        bank = {"C%03d" % i: "(NIL)" for i in range(keys)}
        bank["TOP"] = "((%s))" % " ".join(
            "(C%03d %s)" % (k, "T" if model[k] else "NIL")
            for k in sorted(model))
        self.expected_bank = bank

    def prepare(self, interp, body):
        interp.eval_top(body[0])

    def run(self, interp, body, rep):
        return show(interp.eval_top(body[1]))


def _dispatch_tree(fn, lo, hi):
    if hi - lo == 1:
        return "(%s-%03d top)" % (fn, lo)
    mid = (lo + hi) // 2
    return "(if (< i %d) %s %s)" % (mid, _dispatch_tree(fn, lo, mid),
                                    _dispatch_tree(fn, mid, hi))


class SchedulerCheck(Workload):
    """The scheduler demo: evaluate (run st) and (tbl-count st), then
    sample the four scheduler contracts.  Each repetition uses its own
    sampling seed, derived from the run's seed.  One op is one trial."""

    name = "scheduler_check"
    expected_bank = {"PROC1": "(2)", "PROC2": "(1)",
                     "ST": "(((PROC1 0) (PROC2 0)))"}

    def __init__(self, seed, trials, text):
        self.seed = seed
        self.trials = trials
        self.text = text
        self.ops = trials

    def rep_seed(self, rep):
        return self.seed * 100003 + rep

    def run(self, interp, body, rep):
        values = [show(interp.eval_top(f)) for f in body]
        report = refinement.check_constraints(interp, seed=self.rep_seed(rep),
                                              trials=self.trials)
        return {"values": values, "printed": interp.out.getvalue(),
                "verdict": report.lines()[-1], "checked": report.checked}

    def expected(self, rep):
        return {"values": ["<ST>", "2"],
                "printed": "run complete: every rank is zero.\n",
                "verdict": "result: PASS",
                "checked": scheduler_counts(self.rep_seed(rep), self.trials)}


def scheduler_counts(seed, trials):
    """Per-contract check counts of the sampler on the scheduler demo.

    A model of the two demo processes (PROC1 needs 2 steps, PROC2 needs
    1; EXEC decrements the picked one's work; RANK is the work clamped
    at zero), drawing from the random stream in the sampler's order.
    """
    rng = random.Random(seed)
    ids = ("PROC1", "PROC2")

    def pick():
        return ids[rng.randrange(2)]

    def state():
        work = {"PROC1": 2, "PROC2": 1}
        for _ in range(rng.randrange(7)):
            work[pick()] -= 1
        return work

    ready = 0
    for _ in range(trials):
        p = pick()
        pick()
        state()
        state()
        state()
        ready += state()[p] > 0
    return {"rank-is-natural": trials, "pick-is-proc-id": trials,
            "exec-no-interfere": trials, "exec-rank-reduces": ready}


NAMES = ("wide_do", "loop_in_defun", "table_mix", "scheduler_check")


def make(name, seed, size, scheduler_text):
    n = SIZES[size][name]
    if name == "wide_do":
        return WideDo(seed, n)
    if name == "loop_in_defun":
        return LoopInDefun(seed, n)
    if name == "table_mix":
        return TableMix(seed, n)
    return SchedulerCheck(seed, n, scheduler_text)
