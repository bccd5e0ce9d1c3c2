"""S-expression values, reader, and printer.

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


def to_pylist(v, what="list", form=None, error=ReadError):
    """Proper list -> Python list.  Raises error, naming form, on an
    improper tail."""
    out = []
    while isinstance(v, Cons):
        out.append(v.car)
        v = v.cdr
    if v is not NIL:
        raise error("%s is not a proper list" % what, form=form)
    return out


def list_length(v):
    n = 0
    while isinstance(v, Cons):
        n += 1
        v = v.cdr
    return n


def equal(a, b):
    # Structural equality. Symbols are interned so identity suffices.
    while True:
        if a is b:
            return True
        if isinstance(a, Cons) and isinstance(b, Cons):
            if not equal(a.car, b.car):
                return False
            a, b = a.cdr, b.cdr
            continue
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        if isinstance(a, str) and isinstance(b, str):
            return a == b
        if isinstance(a, MultiValue) and isinstance(b, MultiValue):
            return (len(a.values) == len(b.values)
                    and all(equal(x, y) for x, y in zip(a.values, b.values)))
        return False


### reader

_DELIMS = set("()'\";")
_INT_CHARS = set("0123456789+-")


class _Reader:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, msg, line=None, col=None):
        raise ReadError(msg,
                        line=self.line if line is None else line,
                        col=self.col if col is None else col)

    def peek(self):
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def next(self):
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_blank(self):
        while self.pos < len(self.text):
            ch = self.peek()
            if ch == ";":
                while self.pos < len(self.text) and self.peek() != "\n":
                    self.next()
            elif ch.isspace():
                self.next()
            else:
                return

    def at_eof(self):
        self.skip_blank()
        return self.pos >= len(self.text)

    def read_form(self):
        self.skip_blank()
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        line, col = self.line, self.col
        ch = self.peek()
        if ch == "(":
            self.next()
            return self.read_tail(line, col)
        if ch == ")":
            self.error("unbalanced close parenthesis")
        if ch == "'":
            self.next()
            return from_pylist([intern("QUOTE"), self.read_form()])
        if ch == '"':
            return self.read_string()
        return self.read_atom()

    def read_tail(self, line, col):
        items = []
        while True:
            self.skip_blank()
            if self.pos >= len(self.text):
                self.error("unterminated list", line, col)
            if self.peek() == ")":
                self.next()
                return from_pylist(items)
            form = self.read_form()
            if form is _DOT:
                if not items:
                    self.error("dot at start of list", line, col)
                self.skip_blank()
                if self.pos >= len(self.text) or self.peek() == ")":
                    self.error("dotted pair missing tail", line, col)
                tail = self.read_form()
                if tail is _DOT:
                    self.error("multiple dots in list", line, col)
                self.skip_blank()
                if self.pos >= len(self.text) or self.peek() != ")":
                    self.error("more than one form after dot", line, col)
                self.next()
                return from_pylist(items, tail=tail)
            items.append(form)

    def read_string(self):
        line, col = self.line, self.col
        self.next()
        chars = []
        while True:
            if self.pos >= len(self.text):
                self.error("unterminated string", line, col)
            ch = self.next()
            if ch == '"':
                return "".join(chars)
            if ch == "\\":
                if self.pos >= len(self.text):
                    self.error("unterminated string", line, col)
                esc = self.next()
                if esc not in ('"', "\\"):
                    self.error("unknown string escape \\%s" % esc, line, col)
                chars.append(esc)
            else:
                chars.append(ch)

    def read_atom(self):
        line, col = self.line, self.col
        chars = []
        while self.pos < len(self.text):
            ch = self.peek()
            if ch.isspace() or ch in _DELIMS:
                break
            chars.append(self.next())
        token = "".join(chars)
        if token == ".":
            return _DOT
        return classify_atom(token, line, col)


_DOT = object()


_RATIO_RX = re.compile(r"[+-]?\d+/\d+\Z")
_FLOAT_RX = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][+-]?\d+)?\Z")


def classify_atom(token, line=None, col=None):
    body = token[1:] if token[:1] in "+-" else token
    if body and all(c.isdigit() for c in body):
        return int(token)
    # Numeric syntax we deliberately reject; everything else that fails to
    # parse as an integer is a symbol (so 1+ and 1- read as symbols).
    if _RATIO_RX.match(token):
        raise ReadError("rational literals are not supported: %s" % token,
                        line=line, col=col)
    if _FLOAT_RX.match(token):
        raise ReadError("non-integer numeric literals are not supported: %s"
                        % token, line=line, col=col)
    return intern(token.upper())


def read(text):
    """Read a single form from text; trailing content is an error."""
    r = _Reader(text)
    form = r.read_form()
    if form is _DOT:
        r.error("stray dot")
    if not r.at_eof():
        r.error("trailing content after form")
    return form


def read_all(text):
    r = _Reader(text)
    forms = []
    while not r.at_eof():
        form = r.read_form()
        if form is _DOT:
            r.error("stray dot")
        forms.append(form)
    return forms


def balanced(text):
    """True when text contains no open parens, strings, or partial tokens.

    Used by the REPL to decide whether to keep reading lines.
    """
    depth = 0
    in_string = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            if ch == "\\":
                i += 1
            elif ch == '"':
                in_string = False
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch == '"':
            in_string = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        i += 1
    return depth <= 0 and not in_string


### printer

def show(v):
    out = []
    _show(v, out)
    return "".join(out)


def _show(v, out):
    if isinstance(v, Symbol):
        out.append(v.name)
    elif isinstance(v, int):
        out.append(str(v))
    elif isinstance(v, str):
        out.append('"%s"' % v.replace("\\", "\\\\").replace('"', '\\"'))
    elif isinstance(v, Cons):
        out.append("(")
        _show(v.car, out)
        v = v.cdr
        while isinstance(v, Cons):
            out.append(" ")
            _show(v.car, out)
            v = v.cdr
        if v is not NIL:
            out.append(" . ")
            _show(v, out)
        out.append(")")
    elif isinstance(v, MultiValue):
        out.append("(")
        for i, item in enumerate(v.values):
            if i:
                out.append(" ")
            _show(item, out)
        out.append(")")
    elif hasattr(v, "print_name"):
        out.append(v.print_name)
    else:
        raise TypeError("cannot print host object %r" % (v,))
