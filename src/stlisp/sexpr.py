"""S-expression values, the evaluator's scope chain, reader, and printer.

Value universe: interned symbols, Python ints, Python strings, and
Cons pairs.  NIL doubles as the false value and the empty list; T is
the canonical true value.  Symbol names are upcased on read, and two
reads of the same name yield the identical Symbol object, so `eq` is
name equality.
"""

import re

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


class Env:
    """Chained lexical scope.  A frame is never mutated after binding,
    except a DO loop's frame of settables, which its executor owns.  A
    LET* frame, like a DO loop's, fills while it binds: each right-hand
    side runs in it and sees the bindings before its own."""

    __slots__ = ("vars", "parent")

    def __init__(self, vars, parent=None):
        self.vars = vars
        self.parent = parent


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

# One token per match: the blanks and `;` comments before it, then an
# atom (a symbol that cannot be numeric, or one that starts with a sign,
# digit or dot), a string, a parenthesis or quote, an unterminated string
# (its opening quote), or the end of the text.  Every position matches,
# so finditer yields the tokens back to back.  `\s` is exactly
# str.isspace() and `\d` exactly str.isdecimal(), which int() accepts.
_TOKEN = re.compile(r"""\s*(?:;[^\n]*\s*)*(?:
    ([^\s()'";+\-.\d][^\s()'";]*)
  | ([^\s()'";]+)
  | ("(?:[^"\\]|\\.)*")
  | (\()
  | (\))
  | (')
  | (")
  | \Z)""", re.X | re.S)
_SYM, _NUM, _STR, _LPAREN, _RPAREN, _QUOTE, _OPEN_STR = range(1, 8)
_END = None  # lastindex of the end-of-text match

_INT_RX = re.compile(r"[+-]?\d+")
_RATIO_RX = re.compile(r"[+-]?\d+/\d+\Z")
_FLOAT_RX = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][+-]?\d+)?\Z")
_ESCAPE_RX = re.compile(r"\\(.)", re.S)
_QUOTE_SYM = intern("QUOTE")


class _Reader:
    """A scan of text's tokens.  The reader recurses once per list level,
    so input nested past Python's recursion limit is a ReadError at the
    start of its top-level form.  Line and column are worked out from a
    token's offset only when an error is raised."""

    def __init__(self, text):
        self.text = text
        self.tokens = _TOKEN.finditer(text)

    def error(self, msg, pos):
        text = self.text
        raise ReadError(msg, line=text.count("\n", 0, pos) + 1,
                        col=pos - text.rfind("\n", 0, pos))

    def top(self, m):
        """The top-level form whose first token is m."""
        try:
            return self.form(m)
        except RecursionError:
            pass
        self.error("nesting too deep", m.start(m.lastindex))

    def form(self, m):
        """The form whose first token is m, quoted once per leading quote."""
        quotes = 0
        while m.lastindex == _QUOTE:
            quotes += 1
            m = next(self.tokens)
        kind = m.lastindex
        if kind == _SYM:
            form = intern(m[_SYM].upper())
        elif kind == _NUM:
            if m[_NUM] == ".":
                self.error("stray dot", m.end())
            form = self.number(m)
        elif kind == _LPAREN:
            form = self.read_list(m)
        elif kind == _STR or kind == _OPEN_STR:
            form = self.string(m)
        elif kind == _RPAREN:
            self.error("unbalanced close parenthesis", m.start(_RPAREN))
        else:
            self.error("unexpected end of input", m.end())
        for _ in range(quotes):
            form = Cons(_QUOTE_SYM, Cons(form, NIL))
        return form

    def read_list(self, start):
        items = []
        for m in self.tokens:
            kind = m.lastindex
            if kind == _SYM:
                items.append(intern(m[_SYM].upper()))
            elif kind == _LPAREN:
                items.append(self.read_list(m))
            elif kind == _RPAREN:
                return from_pylist(items)
            elif kind == _NUM and m[_NUM] == ".":
                return self.dotted(start.start(_LPAREN), items)
            elif kind == _END:
                self.error("unterminated list", start.start(_LPAREN))
            else:
                items.append(self.form(m))

    def dotted(self, where, items):
        """The rest of a list whose items are read up to its dot."""
        if not items:
            self.error("dot at start of list", where)
        m = next(self.tokens)
        if m.lastindex in (_RPAREN, _END):
            self.error("dotted pair missing tail", where)
        if m.lastindex == _NUM and m[_NUM] == ".":
            self.error("multiple dots in list", where)
        tail = self.form(m)
        m = next(self.tokens)
        if m.lastindex == _END:
            self.error("unterminated list", where)
        if m.lastindex != _RPAREN:
            self.error("more than one form after dot", where)
        return from_pylist(items, tail=tail)

    def number(self, m):
        """An atom that starts with a sign, digit or dot: an integer, a
        rejected ratio or float, or else a symbol, such as 1+ or 2X."""
        token = m[_NUM]
        if _INT_RX.fullmatch(token):
            return int(token)
        if _RATIO_RX.match(token):
            self.error("rational literals are not supported: %s" % token,
                       m.start(_NUM))
        if _FLOAT_RX.match(token):
            self.error("non-integer numeric literals are not supported: %s"
                       % token, m.start(_NUM))
        return intern(token.upper())

    def string(self, m):
        """A string, or the error of an unterminated one.  Escapes are
        checked first, so an unknown one is reported even then."""
        if m.lastindex == _STR:
            body = m[_STR][1:-1]
            if "\\" not in body:
                return body
        else:
            body = self.text[m.end():]
        for e in _ESCAPE_RX.finditer(body):
            if e[1] not in '"\\':
                self.error("unknown string escape \\%s" % e[1],
                           m.start(m.lastindex))
        if m.lastindex == _OPEN_STR:
            self.error("unterminated string", m.start(_OPEN_STR))
        return _ESCAPE_RX.sub(r"\1", body)


def read(text):
    """Read a single form from text; trailing content is an error."""
    r = _Reader(text)
    form = r.top(next(r.tokens))
    m = next(r.tokens)
    if m.lastindex != _END:
        r.error("trailing content after form", m.start(m.lastindex))
    return form


def read_all(text):
    r = _Reader(text)
    forms = []
    for m in r.tokens:
        if m.lastindex == _END:
            return forms
        forms.append(r.top(m))


def balanced(text):
    """True when text contains no open parens, strings, or partial tokens.

    Used by the REPL to decide whether to keep reading lines.  It scans
    the reader's own tokens, so the two agree on where a string or
    comment ends.
    """
    depth = 0
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind == _LPAREN:
            depth += 1
        elif kind == _RPAREN:
            depth -= 1
        elif kind == _OPEN_STR:
            return False
        elif kind == _END:
            break
    return depth <= 0


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
