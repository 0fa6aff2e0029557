"""Tiny s-expression reader shared by the structure and rule syntaxes.

Quoted strings come back as plain str, integers as int, everything else
as Sym; lists nest, at most MAX_NESTING deep. Positions are found for
error messages.
"""

from __future__ import annotations

import re

from .formula import _Record, _set

__all__ = ["MAX_NESTING", "SexprError", "Sym", "read_sexpr", "read_all_sexprs"]


class SexprError(ValueError):
    pass


class Sym(_Record):
    _fields = __match_args__ = ("text",)

    def __init__(self, text: str):
        _set(self, "text", text)

    def __str__(self) -> str:
        return self.text


# One token per match, whitespace between them skipped: a comment, a paren, a
# string, an integer, a symbol, or a '"' that starts no string, which is an
# error. The first alternative that matches wins, so "12ab" is 12 then ab.
_TOKEN_RE = re.compile(r';[^\n]*|[()]|"(?:[^"\\]|\\.)*"|-?[0-9]+|[^\s()";]+|"')

# the texts read back as exactly one Sym: a sym token that no int token starts
_SYMBOL_RE = re.compile(r'(?!-?[0-9])[^\s()";]+')

# This reader does not recurse, but what walks its lists does: the tree
# reader (argument._read_tree) takes two frames per level, with the formula
# reader's own (formula.MAX_NESTING) below the deepest, and the rule compiler
# (justification._compile) one, two in a template. Text whose lists nest
# deeper than MAX_NESTING is refused, which keeps them all inside Python's
# default recursion limit: at this limit, with a formula at its own limit in
# the deepest leaf, reading a structure takes about 710 frames of the 1000.
MAX_NESTING = 150


def _value(tok: str):
    """What a token reads as; None for a paren, a comment or a lone '"'."""
    c = tok[0]
    if c == '"' and len(tok) > 1:
        return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if c in '();"':
        return None
    if "0" <= c <= "9" or c == "-" and "0" <= tok[1:2] <= "9":
        return int(tok)
    return Sym(tok)


def _too_long(tok: str) -> bool:
    """Is tok an integer token that int() refuses for its length?"""
    try:
        _value(tok)
    except ValueError:
        return True
    return False


def _refuse(text: str, k: int | None, why: str):
    """Refuse text at its k-th token, or at its end when k is None; the
    position is found by matching the text again."""
    pos = len(text) if k is None else [m.start() for m in _TOKEN_RE.finditer(text)][k]
    line, col = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    raise SexprError(f"{line}:{col}: {why}")


def _read(text: str, first: bool) -> list:
    """The top-level values of text; with first, only the first one, and a
    token after it is refused. One findall splits the text into tokens, each
    distinct token is read once, and the lists are built on a stack of the
    lists enclosing the one being filled."""
    if not isinstance(text, str):
        raise SexprError(f"text must be a str, not {type(text).__name__}")
    toks = _TOKEN_RE.findall(text)
    try:
        read = {t: _value(t) for t in set(toks)}
    except ValueError:  # an integer longer than int() converts
        k = next(k for k, t in enumerate(toks) if _too_long(t))
        _refuse(text, k, f"integer of {len(toks[k].lstrip('-'))} digits is too long to read")
    items = out = []
    stack: list = []
    for k, t in enumerate(toks):
        x = read[t]
        if x is not None:
            items.append(x)
        elif t == "(":
            if len(stack) == MAX_NESTING:
                _refuse(text, k, f"lists nested more than {MAX_NESTING} levels deep")
            stack.append(items)
            items.append([])
            items = items[-1]
            continue
        elif t == ")":
            if not stack:
                _refuse(text, k, "unexpected ')'")
            items = stack.pop()
        elif t == '"':
            _refuse(text, k, "unexpected character '\"'")
        else:  # a comment
            continue
        if first and not stack:
            for j in range(k + 1, len(toks)):
                if toks[j][0] != ";":
                    _refuse(text, j, "unexpected character '\"'" if toks[j] == '"' else "trailing input after expression")
            return out
    if stack:
        _refuse(text, None, "unbalanced '('")
    if first:
        _refuse(text, None, "unexpected end of input")
    return out


def read_sexpr(text: str):
    """Read exactly one s-expression."""
    return _read(text, True)[0]


def read_all_sexprs(text: str) -> list:
    return _read(text, False)
