"""Propositional object language: named atoms, absurdity, and &, |, ->.

Negation is never a primitive node; ~A abbreviates A -> bot everywhere,
both in values and in the concrete syntax.
"""

from __future__ import annotations

import re
from operator import attrgetter

__all__ = [
    "FormulaError",
    "MAX_NESTING",
    "Atom",
    "BOT",
    "Conj",
    "Disj",
    "Impl",
    "FVar",
    "Formula",
    "negation",
    "atoms_of",
    "parse_formula",
    "render_formula",
]

_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_BOT_NAME = "_|_"
# words that lex as the absurdity constant, never as atom names
_BOT_WORDS = {"bot"}


class FormulaError(ValueError):
    """Malformed formula text or construction."""


def _repr(x) -> str:
    """The repr of a frozen value, Cls(field=value, ...), written with an
    explicit stack: the _fields of an object whose class has this repr are
    written in turn, as are the items of a tuple, and any other value by
    its own repr. A _Record has it, so a deep one prints without
    recursion."""
    out: list[str] = []
    stack: list = [(False, x)]
    while stack:
        text, x = stack.pop()
        if text:
            out.append(x)
        elif type(x).__repr__ is _repr:
            parts = [(True, type(x).__qualname__ + "(")]
            for i, name in enumerate(x._fields):
                parts += [(True, (", " if i else "") + name + "="), (False, getattr(x, name))]
            parts.append((True, ")"))
            stack += reversed(parts)
        elif type(x) is tuple:
            parts = [(True, "(")]
            for i, item in enumerate(x):
                if i:
                    parts.append((True, ", "))
                parts.append((False, item))
            parts.append((True, ",)" if len(x) == 1 else ")"))
            stack += reversed(parts)
        else:
            out.append(repr(x))
    return "".join(out)


_set = object.__setattr__  # how an __init__ sets the fields of a _Record


class _Record:
    """A frozen value, as a frozen dataclass is: its class names its fields,
    in constructor order, in _fields and __match_args__, and its __init__
    sets them with _set. == and the hash are those of the tuple of
    the fields, the repr is _repr's, and assignment is refused."""

    _fields = __match_args__ = ()
    __repr__ = _repr

    def __init_subclass__(cls, **kwargs):
        """Give the class one getter of the tuple of its fields, _values."""
        super().__init_subclass__(**kwargs)
        names = cls._fields
        if len(names) == 1:  # attrgetter of one name gives the bare value
            one = attrgetter(names[0])
            cls._values = staticmethod(lambda x: (one(x),))
        elif names:
            cls._values = staticmethod(attrgetter(*names))
        else:
            cls._values = staticmethod(lambda x: ())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Leaf(_Record):
    """Equality and hashing of a named leaf: the hash of (name,), computed
    once and kept outside its fields."""

    _fields = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.name == other.name


class _Binary(_Record):
    """Equality and hashing of a connective. The hash is hash((left, right)),
    computed once from the operands' kept hashes when the node is built;
    equality stops at identical operands and at unequal hashes, and walks
    the rest with an explicit stack, so neither recurses; nor does its repr."""

    _fields = __match_args__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((left, right)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same(self, other)


def _same(f, g) -> bool:
    """Formula equality, walked with an explicit stack."""
    pairs = [(f, g)]
    while pairs:
        f, g = pairs.pop()
        if f is g:
            continue
        if f.__class__ is not g.__class__ or f._hash != g._hash:
            return False
        if isinstance(f, _Binary):
            pairs.append((f.right, g.right))
            pairs.append((f.left, g.left))
        elif f.name != g.name:
            return False
    return True


class Atom(_Leaf):
    def __init__(self, name: str):
        if name != _BOT_NAME and (name in _BOT_WORDS or not _NAME_RE.match(name)):
            raise FormulaError(f"bad atom name {name!r}")
        _Leaf.__init__(self, name)

    @property
    def is_bottom(self) -> bool:
        return self.name == _BOT_NAME

    def __str__(self) -> str:
        return render_formula(self)


BOT = Atom(_BOT_NAME)


class Conj(_Binary):
    def __str__(self) -> str:
        return render_formula(self)


class Disj(_Binary):
    def __str__(self) -> str:
        return render_formula(self)


class Impl(_Binary):
    def __str__(self) -> str:
        return render_formula(self)


class FVar(_Leaf):
    """Formula metavariable; appears only inside rewrite patterns."""

    def __str__(self) -> str:
        return "?" + self.name


Formula = Atom | Conj | Disj | Impl


def negation(f: Formula) -> Impl:
    return Impl(f, BOT)


def atoms_of(f: Formula) -> frozenset[Atom]:
    out, stack = set(), [f]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            out.add(f)
        elif isinstance(f, _Binary):
            stack += (f.right, f.left)
        elif not isinstance(f, FVar):
            raise FormulaError(f"not a formula: {f!r}")
    return frozenset(out)


# ---------------------------------------------------------------------------
# concrete syntax
#
# precedence: ~ binds tightest, then &, then |, then ->;
# -> associates right, & and | associate left.
#
# Nesting: an atom is at level 0, and each connective (~ included) and
# each pair of parentheses is one level above the deepest part it
# encloses. The reader refuses text nested deeper than MAX_NESTING, which
# keeps the recursive reader well inside Python's default recursion limit
# (it takes at most four frames a level). Everything else that walks a
# formula (equality, the renderer, the evaluators) uses an explicit stack,
# so formulas built in code may be nested deeper.

MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<bot>_\|_|⊥|bot\b)
      | (?P<name>[a-z][a-zA-Z0-9_]*)
      | (?P<meta>\?[A-Za-z][A-Za-z0-9_]*)
      | (?P<imp>->)
      | (?P<and>&)
      | (?P<or>\|)
      | (?P<not>~)
      | (?P<lp>\()
      | (?P<rp>\))
    """,
    re.VERBOSE,
)


def _tokenize(text: str, metavars: bool):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaError(f"syntax error at column {pos + 1}: unexpected {text[pos]!r}")
        kind = m.lastgroup
        if kind != "ws":
            if kind == "meta" and not metavars:
                raise FormulaError(f"syntax error at column {pos + 1}: metavariable not allowed here")
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", pos))
    return out


class _Parser:
    """Recursive descent; each method returns a formula and its nesting."""

    def __init__(self, tokens, text):
        self.toks = tokens
        self.text = text
        self.i = 0
        self.level = 0  # enclosing ~, ( and -> right sides, checked on the way down

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, want):
        kind, val, pos = self.peek()
        got = "end of input" if kind == "eof" else repr(val)
        raise FormulaError(f"syntax error at column {pos + 1}: expected {want}, got {got}")

    def too_deep(self):
        raise FormulaError(
            f"formula nested more than {MAX_NESTING} levels deep at column {self.peek()[2] + 1}"
        )

    def enter(self):
        self.level += 1
        if self.level > MAX_NESTING:
            self.too_deep()

    def node(self, f, *depths):
        depth = max(depths) + 1
        if depth > MAX_NESTING:
            self.too_deep()
        return f, depth

    def formula(self):
        left, d = self.disj()
        if self.peek()[0] == "imp":
            self.take()
            self.enter()
            right, e = self.formula()
            self.level -= 1
            return self.node(Impl(left, right), d, e)
        return left, d

    def disj(self):
        f, d = self.conj()
        while self.peek()[0] == "or":
            self.take()
            g, e = self.conj()
            f, d = self.node(Disj(f, g), d, e)
        return f, d

    def conj(self):
        f, d = self.unary()
        while self.peek()[0] == "and":
            self.take()
            g, e = self.unary()
            f, d = self.node(Conj(f, g), d, e)
        return f, d

    def unary(self):
        kind, val, _pos = self.peek()
        if kind == "not":
            self.take()
            self.enter()
            f, d = self.unary()
            self.level -= 1
            return self.node(Impl(f, BOT), d)
        if kind == "bot":
            self.take()
            return BOT, 0
        if kind == "name":
            self.take()
            return Atom(val), 0
        if kind == "meta":
            self.take()
            return FVar(val[1:]), 0
        if kind == "lp":
            self.take()
            self.enter()
            f, d = self.formula()
            self.level -= 1
            if self.peek()[0] != "rp":
                self.fail("')'")
            self.take()
            return self.node(f, d)
        self.fail("a formula")


def parse_formula(text: str, *, metavars: bool = False) -> Formula:
    """Parse concrete syntax; with metavars=True, ?X tokens become FVar.
    Text nested more than MAX_NESTING levels deep is refused."""
    p = _Parser(_tokenize(text, metavars), text)
    f, _depth = p.formula()
    if p.peek()[0] != "eof":
        p.fail("end of input")
    return f


_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3, 4


def _remember(f) -> str:
    """Write f's text from its operands' kept texts and keep it on f."""
    match f:
        case Atom(name):
            text = name
        case FVar(name):
            text = "?" + name
        case Impl(l, r) if r == BOT:
            text = "~" + _part(l, _PREC_NOT)  # prefix ~ never needs outer parens
        case Conj(l, r):
            text = _part(l, _PREC_AND) + " & " + _part(r, _PREC_AND + 1)
        case Disj(l, r):
            text = _part(l, _PREC_OR) + " | " + _part(r, _PREC_OR + 1)
        case Impl(l, r):
            text = _part(l, _PREC_IMP + 1) + " -> " + _part(r, _PREC_IMP)
        case _:
            raise FormulaError(f"not a formula: {f!r}")
    object.__setattr__(f, "_text", text)
    return text


def _part(f, prec: int) -> str:
    """f's kept text as an operand at the given precedence, parenthesised if it binds looser."""
    text = f._text
    match f:
        case Impl(_, r) if r == BOT:
            return text
        case Conj():
            own = _PREC_AND
        case Disj():
            own = _PREC_OR
        case Impl():
            own = _PREC_IMP
        case _:
            return text
    return "(" + text + ")" if prec > own else text


def render_formula(f: Formula) -> str:
    """Canonical text; parse_formula(render_formula(f)) == f. The text is
    written once per formula object and kept on it, outside its fields:
    operands first, from an explicit stack."""
    text = getattr(f, "_text", None)
    if text is not None:
        return text
    stack = [f]
    while stack:
        g = stack[-1]
        if getattr(g, "_text", None) is not None:
            stack.pop()
            continue
        todo = [h for h in (g.right, g.left) if getattr(h, "_text", None) is None] if isinstance(g, _Binary) else ()
        if todo:
            stack += todo
        else:
            _remember(stack.pop())
    return f._text
