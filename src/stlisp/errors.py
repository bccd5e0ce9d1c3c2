"""Error types shared across the runtime.

Every error raised while reading or evaluating a form derives from
LispError, so drivers (CLI, REPL, test harnesses) can catch one type.
"""


class LispError(Exception):
    def __init__(self, message, form=None, line=None, col=None):
        super().__init__(message)
        self.message = message
        self.form = form
        self.line = line
        self.col = col

    def __str__(self):
        parts = [self.message]
        if self.form is not None:
            from .sexpr import show
            parts.append("in %s" % show(self.form))
        if self.line is not None:
            parts.append("at line %d, column %d" % (self.line, self.col))
        return " ".join(parts)


class ReadError(LispError):
    """Lexical or syntactic error while reading source text."""


class EvalError(LispError):
    """Evaluation failed, or admission rejected a form: unbound variable,
    bad arity, misuse of a form.  Arity and form shape are checked at
    admission only."""


class GuardViolation(EvalError):
    """A dynamic guard, type spec, or builtin precondition failed."""


class MeasureViolation(EvalError):
    """A measured recursion failed to decrease."""


class CapExceeded(EvalError):
    """The native loop executor ran past the iteration cap."""


class LinearityError(EvalError):
    """Static single-threadedness check rejected a definition."""

    def __init__(self, name, violations):
        self.name = name
        self.violations = list(violations)
        msg = "single-threadedness violation in %s:\n  %s" % (
            name, "\n  ".join(self.violations))
        super().__init__(msg)
