"""S-expression values, the evaluator's scope chain, reader, and printer.

Value universe: interned symbols, Python ints, Python strings, and
Cons pairs.  NIL doubles as the false value and the empty list; T is
the canonical true value.  Symbol names are upcased on read, and two
reads of the same name yield the identical Symbol object, so `eq` is
name equality.
"""

import re
from itertools import islice
from operator import length_hint

from .errors import ReadError

_SYMBOLS = {}


class Symbol:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


def intern(name):
    sym = _SYMBOLS.get(name)
    if sym is None:
        sym = Symbol(name)
        _SYMBOLS[name] = sym
    return sym


NIL = intern("NIL")
T = intern("T")


class Cons:
    __slots__ = ("car", "cdr")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr

    def __repr__(self):
        return show(self)


class MultiValue:
    """Tuple of two or more values returned together (mv).

    Never built with fewer than two components; a one-component tuple
    would be indistinguishable from a plain value.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(values)
        assert len(vals) >= 2
        self.values = vals

    def __repr__(self):
        return show(self)


# A lexical scope is the pair (frame, parent): a dict of name -> value,
# and the enclosing scope, or None at the root.  A frame is never mutated
# after binding, except a DO loop's frame of settables, which its
# executor owns.  A LET* frame, like a DO loop's, fills while it binds:
# each right-hand side runs in it and sees the bindings before its own.
# A tuple costs about 34 ns to build on CPython 3.11, an instance of a
# two-slot class about 211 ns.


def is_keyword(v):
    return isinstance(v, Symbol) and v.name.startswith(":")


def truthy(v):
    return v is not NIL


def from_bool(b):
    return T if b else NIL


def from_pylist(items, tail=NIL):
    out = tail
    for item in reversed(items):
        out = Cons(item, out)
    return out


def iter_conses(v):
    """Yield the cars of the cons spine of v, stopping at any atom tail."""
    while isinstance(v, Cons):
        yield v.car
        v = v.cdr


def list_length(v):
    n = 0
    while isinstance(v, Cons):
        n += 1
        v = v.cdr
    return n


def equal(a, b):
    """Structural equality.  Symbols are interned, so identity suffices.
    The pairs still to compare wait on an explicit stack, so nesting
    depth is not bounded by Python's recursion limit."""
    pending = []
    while True:
        if a is not b:
            if isinstance(a, Cons) and isinstance(b, Cons):
                pending.append((a.cdr, b.cdr))
                a, b = a.car, b.car
                continue
            if isinstance(a, MultiValue) and isinstance(b, MultiValue):
                if len(a.values) != len(b.values):
                    return False
                pending.extend(zip(a.values, b.values))
            elif not ((isinstance(a, int) and isinstance(b, int)
                       or isinstance(a, str) and isinstance(b, str))
                      and a == b):
                return False
        if not pending:
            return True
        a, b = pending.pop()


### reader

# The tokens of a text are strings: an atom, a string, `(`, `)`, `'`, a
# lone `"` that opens an unterminated string, and "" for the end of the
# text.  A text that holds no `"` holds no string, so each `;` in it
# starts a comment: blanking the comments, spacing out `(`, `)` and `'`
# and splitting at blanks gives its tokens.  A text that holds a `"` is
# cut by _TOKEN, whose one group is the token after the blanks and `;`
# comments before it.  Every position matches, so finditer yields the
# tokens back to back; it runs again to find a token's offset only when
# an error is raised.  `\s` is exactly str.isspace(), which str.split()
# cuts at, and `\d` exactly str.isdecimal(), which int() accepts.
_TOKEN = re.compile(r"""\s*(?:;[^\n]*\s*)*(
    [^\s()'";]+
  | "(?:[^"\\]|\\.)*"
  | [()'"]
  | \Z)""", re.X | re.S)
_COMMENT = re.compile(r";[^\n]*")

_INT_RX = re.compile(r"[+-]?\d+")
_RATIO_RX = re.compile(r"[+-]?\d+/\d+\Z")
_FLOAT_RX = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][+-]?\d+)?\Z")
_ESCAPE_RX = re.compile(r"\\(.)", re.S)
_QUOTE_SYM = intern("QUOTE")


def _scan(text):
    """The tokens of text as _TOKEN cuts them, ending in one ""."""
    tokens = _TOKEN.findall(text)
    if len(tokens) > 1 and not tokens[-2]:
        tokens.pop()  # after trailing blanks the end matches twice
    return tokens


def _split(text):
    """The tokens of a text that holds no `"`, as _scan cuts them."""
    tokens = _COMMENT.sub("", text).replace("(", " ( ").replace(
        ")", " ) ").replace("'", " ' ").split()
    tokens.append("")
    return tokens


def _tokens(text):
    return _scan(text) if '"' in text else _split(text)


class _Reader:
    """A pass over text's tokens.  The reader recurses once per list
    level, so input nested past Python's recursion limit is a ReadError
    at the start of its top-level form.  An atom token in a list is
    turned into its symbol or integer once per read.  A token's line and
    column are worked out only when an error is raised."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokens(text)
        self.rest = iter(self.tokens)
        self.atoms = {}

    def index(self):
        """The index of the token read last."""
        return len(self.tokens) - length_hint(self.rest) - 1

    def match(self, index=None):
        """_TOKEN's match of the token at index, by default the one read
        last."""
        if index is None:
            index = self.index()
        return next(islice(_TOKEN.finditer(self.text), index, None))

    def error(self, msg, index=None, end=False):
        """Raise msg at the start of the token at index, or at its end;
        the token is by default the one read last."""
        m = self.match(index)
        pos = m.end() if end else m.start(1)
        text = self.text
        raise ReadError(msg, line=text.count("\n", 0, pos) + 1,
                        col=pos - text.rfind("\n", 0, pos))

    def list_error(self, msg):
        """Raise msg at the `(` of the list being read: the last one
        before the token read last that no `)` closes."""
        tokens = self.tokens
        i = self.index()
        depth = 0
        while True:
            i -= 1
            if tokens[i] == ")":
                depth += 1
            elif tokens[i] == "(":
                if not depth:
                    self.error(msg, i)
                depth -= 1

    def top(self, token):
        """The top-level form whose first token is token."""
        start = self.index()
        try:
            return self.form(token)
        except RecursionError:
            pass
        self.error("nesting too deep", start)

    def form(self, token):
        """The form whose first token is token, quoted once per leading
        quote."""
        quotes = 0
        while token == "'":
            quotes += 1
            token = next(self.rest)
        form = self.read_list() if token == "(" else self.atom(token)
        for _ in range(quotes):
            form = Cons(_QUOTE_SYM, Cons(form, NIL))
        return form

    def read_list(self):
        items = []
        atoms = self.atoms
        for token in self.rest:
            if token == "(":
                items.append(self.read_list())
            elif token == ")":
                return from_pylist(items)
            elif token in atoms:
                items.append(atoms[token])
            elif token == ".":
                return self.dotted(items)
            elif not token:
                self.list_error("unterminated list")
            else:
                items.append(self.form(token))

    def dotted(self, items):
        """The rest of a list whose items are read up to its dot."""
        if not items:
            self.list_error("dot at start of list")
        token = next(self.rest)
        if token == ")" or not token:
            self.list_error("dotted pair missing tail")
        if token == ".":
            self.list_error("multiple dots in list")
        tail = self.form(token)
        token = next(self.rest)
        if not token:
            self.list_error("unterminated list")
        if token != ")":
            self.list_error("more than one form after dot")
        return from_pylist(items, tail=tail)

    def atom(self, token):
        """The form of a token other than `(` and `'`: a string, an error,
        or a symbol or integer, which read_list takes from self.atoms at
        the token's next use."""
        if token[:1] == '"':
            return self.string(token)
        if token == ")":
            self.error("unbalanced close parenthesis")
        if not token:
            self.error("unexpected end of input", end=True)
        if token == ".":
            self.error("stray dot", end=True)
        c = token[0]
        if c in "+-." or c.isdecimal():
            form = self.number(token)
        else:
            form = intern(token.upper())
        self.atoms[token] = form
        return form

    def number(self, token):
        """An atom that starts with a sign, digit or dot: an integer, a
        rejected ratio or float, or else a symbol, such as 1+ or 2X."""
        if _INT_RX.fullmatch(token):
            return int(token)
        if _RATIO_RX.match(token):
            self.error("rational literals are not supported: %s" % token)
        if _FLOAT_RX.match(token):
            self.error("non-integer numeric literals are not supported: %s"
                       % token)
        return intern(token.upper())

    def string(self, token):
        """A string, or the error of an unterminated one (a lone `"`).
        Escapes are checked first, so an unknown one is reported even
        then."""
        if token == '"':
            body = self.text[self.match().end():]
        else:
            body = token[1:-1]
            if "\\" not in body:
                return body
        for e in _ESCAPE_RX.finditer(body):
            if e[1] not in '"\\':
                self.error("unknown string escape \\%s" % e[1])
        if token == '"':
            self.error("unterminated string")
        return _ESCAPE_RX.sub(r"\1", body)


def read(text):
    """Read a single form from text; trailing content is an error."""
    r = _Reader(text)
    form = r.top(next(r.rest))
    if next(r.rest):
        r.error("trailing content after form")
    return form


def read_all(text):
    r = _Reader(text)
    forms = []
    for token in r.rest:
        if not token:
            return forms
        forms.append(r.top(token))


def balanced(text):
    """True when text contains no open parens, strings, or partial tokens.

    Used by the REPL to decide whether to keep reading lines.  It counts
    the reader's own tokens, so the two agree on where a string or
    comment ends.
    """
    tokens = _tokens(text)
    return '"' not in tokens and tokens.count("(") <= tokens.count(")")


### printer

class _Text(str):
    """Punctuation that show writes as it is, unlike a Lisp string."""


_SPACE, _DOT_SEP, _CLOSE = _Text(" "), _Text(" . "), _Text(")")


def show(v):
    """The printed text of v.  What is still to print waits on an
    explicit stack, so nesting depth is not bounded by Python's recursion
    limit."""
    out = []
    todo = [v]
    while todo:
        v = todo.pop()
        if isinstance(v, Symbol):
            out.append(v.name)
        elif isinstance(v, int):
            out.append(str(v))
        elif type(v) is _Text:
            out.append(v)
        elif isinstance(v, str):
            out.append('"%s"' % v.replace("\\", "\\\\").replace('"', '\\"'))
        elif isinstance(v, (Cons, MultiValue)):
            out.append("(")
            todo.append(_CLOSE)
            if isinstance(v, Cons):
                items = []
                while isinstance(v, Cons):
                    items.append(v.car)
                    v = v.cdr
                if v is not NIL:
                    todo += (v, _DOT_SEP)
            else:
                items = v.values
            for i in range(len(items) - 1, 0, -1):
                todo += (items[i], _SPACE)
            todo.append(items[0])
        elif hasattr(v, "print_name"):
            out.append(v.print_name)
        else:
            raise TypeError("cannot print host object %r" % (v,))
    return "".join(out)
