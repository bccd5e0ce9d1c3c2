"""A miniature applicative Lisp with single-threaded objects, stobj
tables, and measured DO loops, executable along a pure logical path and
a native in-place path that are kept observably equivalent."""

from .errors import (CapExceeded, EvalError, GuardViolation, LinearityError,
                     LispError, MeasureViolation, ReadError)
from .kernel import Interp
from .sexpr import read, read_all, show

__version__ = "0.1.0"

__all__ = [
    "Interp", "read", "read_all", "show", "LispError", "ReadError",
    "EvalError", "GuardViolation", "MeasureViolation", "CapExceeded",
    "LinearityError", "__version__",
]
