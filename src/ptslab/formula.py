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
    the fields, the repr is _repr's, and assignment is refused. A copy or
    an unpickled record is built again from its fields, so whatever a
    constructor computes (a kept hash too) is computed afresh."""

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

    def __reduce__(self):
        return self.__class__, self._values(self)

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
    if not isinstance(f, (Atom, _Binary, FVar)):
        raise FormulaError(f"f must be a Formula, not {type(f).__name__}")
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

# One token per match, after any whitespace: an operator, absurdity, a
# name, a metavariable, or any other single character, which is an error.
_TOKEN_RE = re.compile(r"\s*(->|[&|~()]|_\|_|⊥|bot\b|[a-z][a-zA-Z0-9_]*|\?[A-Za-z][A-Za-z0-9_]*|\S)")
_IMP, _OR, _AND, _NOT, _LP, _RP, _END = "->", "|", "&", "~", "(", ")", ""
# what a token reads as: an operator stands for itself, absurdity for BOT
_SYMBOLS = {t: t for t in (_IMP, _OR, _AND, _NOT, _LP, _RP)} | {"_|_": BOT, "⊥": BOT, "bot": BOT}


def _misread(text: str, items: list, want: str | None = None):
    """Refuse text at the token on top of items, the reader's stack of what
    is left: as nested too deep, or as not what was wanted there. Its column
    is found by matching the text again."""
    found = list(_TOKEN_RE.finditer(text))
    k = len(found) + 1 - len(items)  # items holds the rest of the tokens and _END
    column = (found[k].start(1) if k < len(found) else len(text)) + 1
    if want is None:
        raise FormulaError(f"formula nested more than {MAX_NESTING} levels deep at column {column}")
    got = repr(found[k][1]) if k < len(found) else "end of input"
    raise FormulaError(f"syntax error at column {column}: expected {want}, got {got}")


def parse_formula(text: str, *, metavars: bool = False) -> Formula:
    """Parse concrete syntax; with metavars=True, ?X tokens become FVar.
    Text nested more than MAX_NESTING levels deep is refused.

    One findall splits the text into tokens, and each distinct token is read
    once: an operator as itself, absurdity as BOT, a name as one Atom for
    the whole call (the token pattern is Atom's name check), ?X as one FVar.
    A character that starts no token, or a metavariable where none is
    allowed, is refused at its first occurrence before anything is parsed.
    Recursive descent then takes the tokens off a stack, one function per
    precedence level, each returning a formula and its nesting; a column is
    found only for an error."""
    if not isinstance(text, str):
        raise FormulaError(f"text must be a str, not {type(text).__name__}")
    toks = _TOKEN_RE.findall(text)
    read, bad = dict(_SYMBOLS), []
    for t in set(toks).difference(read):
        if "a" <= t[0] <= "z":
            read[t] = x = object.__new__(Atom)
            _Leaf.__init__(x, t)
        elif t[0] == "?" and len(t) > 1 and metavars:
            read[t] = FVar(t[1:])
        else:
            bad.append(t)
    if bad:
        k = min(map(toks.index, bad))
        column = [m.start(1) for m in _TOKEN_RE.finditer(text)][k] + 1
        why = "metavariable not allowed here" if len(toks[k]) > 1 else f"unexpected {toks[k]!r}"
        raise FormulaError(f"syntax error at column {column}: {why}")
    items = [_END]
    items += map(read.__getitem__, reversed(toks))
    f, _depth = _formula(items, text, 0)
    if items[-1] is not _END:
        _misread(text, items, "end of input")
    return f


# The four precedence levels. Each takes its tokens off the top of items;
# level counts the enclosing ~, ( and -> right sides, checked on the way
# down, and the nesting each returns is checked on the way up.


def _formula(items: list, text: str, level: int):
    f, d = _disj(items, text, level)
    if items[-1] is not _IMP:
        return f, d
    del items[-1]
    if level >= MAX_NESTING:
        _misread(text, items)
    g, e = _formula(items, text, level + 1)
    d = (d if d > e else e) + 1
    if d > MAX_NESTING:
        _misread(text, items)
    return Impl(f, g), d


def _disj(items: list, text: str, level: int):
    f, d = _conj(items, text, level)
    while items[-1] is _OR:
        del items[-1]
        g, e = _conj(items, text, level)
        f, d = Disj(f, g), (d if d > e else e) + 1
        if d > MAX_NESTING:
            _misread(text, items)
    return f, d


def _conj(items: list, text: str, level: int):
    f, d = _unary(items, text, level)
    while items[-1] is _AND:
        del items[-1]
        g, e = _unary(items, text, level)
        f, d = Conj(f, g), (d if d > e else e) + 1
        if d > MAX_NESTING:
            _misread(text, items)
    return f, d


def _unary(items: list, text: str, level: int):
    x = items[-1]
    if type(x) is not str:
        del items[-1]
        return x, 0
    if x is not _NOT and x is not _LP:
        _misread(text, items, "a formula")
    del items[-1]
    if level >= MAX_NESTING:
        _misread(text, items)
    if x is _NOT:
        f, d = _unary(items, text, level + 1)
        f = Impl(f, BOT)
    else:
        f, d = _formula(items, text, level + 1)
        if items[-1] is not _RP:
            _misread(text, items, "')'")
        del items[-1]
    if d >= MAX_NESTING:
        _misread(text, items)
    return f, d + 1


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
