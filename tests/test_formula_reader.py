"""The formula reader against the reader it replaced.

`_TOKEN_RE`, `_tokenize` and `_Parser` below are the earlier reader, copied
verbatim: a tokenizer that matched one token at a time and a recursive
descent parser class. Every text must read as an equal formula under both,
or be refused by both with the same FormulaError message, with and without
metavariables.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab.formula import BOT, MAX_NESTING, Atom, Conj, Disj, FormulaError, FVar, Impl, parse_formula

# ---------------------------------------------------------------------------
# the reference reader


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


def _reference_parse(text: str, metavars: bool):
    p = _Parser(_tokenize(text, metavars), text)
    f, _depth = p.formula()
    if p.peek()[0] != "eof":
        p.fail("end of input")
    return f


def _outcome(parse, text, metavars):
    try:
        return "formula", parse(text, metavars)
    except FormulaError as e:
        return "error", str(e)


def _assert_agrees(text):
    for metavars in (False, True):
        want = _outcome(_reference_parse, text, metavars)
        got = _outcome(lambda t, m: parse_formula(t, metavars=m), text, metavars)
        assert got == want, (text, metavars)


# ---------------------------------------------------------------------------
# drawn texts, malformed pieces included

_PIECES = [
    "a", "b", "p1", "x_Y", "bot", "bot_", "botx", "_|_", "⊥", "->", "&", "|", "~", "(", ")",
    "?X", "?x1", "?", "?1", "-", "_", "_|", "A", "1", "ä", "bot" + "ä", ">", "\t", " ", "\n",
]


@settings(max_examples=800, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=14), st.lists(st.sampled_from(["", " ", "\t"]), max_size=14))
def test_reader_agrees_with_the_reference_on_drawn_texts(pieces, gaps):
    text = "".join(p + (gaps[i] if i < len(gaps) else "") for i, p in enumerate(pieces))
    _assert_agrees(text)


def test_reader_agrees_with_the_reference_on_every_text_of_three_pieces():
    pieces = ["a", "b", "bot", "?X", "->", "&", "|", "~", "(", ")", "-", "A", " "]
    texts = [""]
    for _ in range(3):
        texts += [t + p for t in texts for p in pieces]
    for text in dict.fromkeys(texts):
        _assert_agrees(text)


@pytest.mark.parametrize("n", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 2000])
def test_reader_agrees_with_the_reference_on_deep_chains(n):
    for text in [
        "~" * n + "a",
        "(" * n + "a" + ")" * n,
        "(" * n + "a",
        "(" * n + "a" + ")" * (n + 1),
        "a & " * n + "a",
        "a -> " * n + "a",
        "a | " * n + "a",
        "(" * n + "~" * n + "a" + ")" * n,
        "~(" * n + "a" + ")" * n,
        "a -> " * n + "A",
        # chains nested without levels, closed by one level more
        "(" + "a & " * n + "a)",
        "~(" + "a | " * n + "a)",
        "(" + "a -> " * (n - 1) + "a) & a",
    ]:
        _assert_agrees(text)


def test_each_distinct_atom_is_built_once_per_call():
    f = parse_formula("(a -> b) & (b -> a)")
    assert f.left.left is f.right.right and f.left.right is f.right.left
    assert f.left.left == Atom("a") and parse_formula("a") is not parse_formula("a")
    g = parse_formula("?X & ?X", metavars=True)
    assert g.left is g.right and g.left == FVar("X")
