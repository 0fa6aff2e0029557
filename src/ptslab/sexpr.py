"""Tiny s-expression reader shared by the structure and rule syntaxes.

Quoted strings come back as plain str, integers as int, everything else
as Sym; lists nest, at most MAX_NESTING deep. Positions are tracked for
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


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>;[^\n]*)
      | (?P<lp>\()
      | (?P<rp>\))
      | (?P<str>"(?:[^"\\]|\\.)*")
      | (?P<int>-?[0-9]+)
      | (?P<sym>[^\s()";]+)
    """,
    re.VERBOSE,
)

# the texts read back as exactly one Sym: a sym token that no int token starts
_SYMBOL_RE = re.compile(r'(?!-?[0-9])[^\s()";]+')

# The reader takes one frame per level of list nesting, and the structure and
# rule reader over what it returns takes two, with the formula reader's own
# frames (formula.MAX_NESTING) at the bottom. Text whose lists nest deeper than
# MAX_NESTING is refused, which keeps them all inside Python's default
# recursion limit: at this limit, with a formula at its own limit in the
# deepest leaf, reading a structure takes about 710 frames of the 1000.
MAX_NESTING = 150


def _line_col(text: str, pos: int) -> str:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return f"{line}:{col}"


def _tokenize(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SexprError(f"{_line_col(text, pos)}: unexpected character {text[pos]!r}")
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            yield kind, m.group(), pos
        pos = m.end()
    yield "eof", "", pos


def _parse(tokens, text, tok, depth=1):
    kind, val, pos = tok
    if kind == "lp":
        if depth > MAX_NESTING:
            raise SexprError(f"{_line_col(text, pos)}: lists nested more than {MAX_NESTING} levels deep")
        items = []
        while True:
            nxt = next(tokens)
            if nxt[0] == "rp":
                return items
            if nxt[0] == "eof":
                raise SexprError(f"{_line_col(text, nxt[2])}: unbalanced '('")
            items.append(_parse(tokens, text, nxt, depth + 1))
    if kind == "rp":
        raise SexprError(f"{_line_col(text, pos)}: unexpected ')'")
    if kind == "str":
        body = val[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")
    if kind == "int":
        return int(val)
    if kind == "sym":
        return Sym(val)
    raise SexprError(f"{_line_col(text, pos)}: unexpected end of input")


def read_sexpr(text: str):
    """Read exactly one s-expression."""
    tokens = _tokenize(text)
    tok = next(tokens)
    out = _parse(tokens, text, tok)
    trailing = next(tokens)
    if trailing[0] != "eof":
        raise SexprError(f"{_line_col(text, trailing[2])}: trailing input after expression")
    return out


def read_all_sexprs(text: str) -> list:
    tokens = _tokenize(text)
    out = []
    while True:
        tok = next(tokens)
        if tok[0] == "eof":
            return out
        out.append(_parse(tokens, text, tok))
