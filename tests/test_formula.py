import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import (
    Atom,
    AtomicBase,
    BOT,
    Conj,
    Disj,
    FormulaError,
    Impl,
    atoms_of,
    classical_eval,
    logical_consequence,
    models,
    negation,
    parse_formula,
    render_formula,
)
from ptslab.formula import MAX_NESTING

from genlib import ATOMS, all_formulas, make_rng, random_formula

a, b, c = Atom("a"), Atom("b"), Atom("c")
p = Atom("p")


def test_parse_atom():
    assert parse_formula("p") == p


def test_parse_negation_sugar():
    assert parse_formula("~a") == Impl(a, BOT)


def test_parse_precedence():
    assert parse_formula("a -> b | c") == Impl(a, Disj(b, c))
    assert parse_formula("a & b | c") == Disj(Conj(a, b), c)
    assert parse_formula("~a & b") == Conj(Impl(a, BOT), b)
    assert parse_formula("a -> b -> c") == Impl(a, Impl(b, c))
    assert parse_formula("a & b & c") == Conj(Conj(a, b), c)
    assert parse_formula("a | b | c") == Disj(Disj(a, b), c)


def test_parse_bottom_aliases():
    assert parse_formula("bot") == BOT
    assert parse_formula("_|_") == BOT
    assert parse_formula("⊥") == BOT


def test_parse_errors_carry_position():
    with pytest.raises(FormulaError, match="column"):
        parse_formula("a & ")
    with pytest.raises(FormulaError, match="column"):
        parse_formula("a ) b")
    with pytest.raises(FormulaError):
        parse_formula("")


def test_render_examples():
    assert render_formula(p) == "p"
    assert render_formula(Impl(a, BOT)) == "~a"
    assert render_formula(Disj(a, Impl(a, BOT))) == "a | ~a"
    assert render_formula(Impl(a, Disj(b, c))) == "a -> b | c"
    assert render_formula(Conj(Impl(a, b), c)) == "(a -> b) & c"
    assert render_formula(negation(negation(a))) == "~~a"
    assert render_formula(Impl(Impl(a, b), c)) == "(a -> b) -> c"


def test_negation_definition():
    assert negation(a) == Impl(a, BOT)
    assert negation(BOT) == Impl(BOT, BOT)
    assert negation(Impl(a, BOT)) == Impl(Impl(a, BOT), BOT)


def test_no_negation_constructor_tilde_count():
    # every printed ~ is exactly one implication-to-bottom node
    f = parse_formula("~(a -> b) | ~~c & ~bot")
    rendered = render_formula(f)

    def bot_impls(g):
        match g:
            case Impl(l, r) if r == BOT:
                return 1 + bot_impls(l)
            case Conj(l, r) | Disj(l, r) | Impl(l, r):
                return bot_impls(l) + bot_impls(r)
            case _:
                return 0

    assert rendered.count("~") == bot_impls(f)


def test_atom_name_validation():
    with pytest.raises(FormulaError):
        Atom("P")
    with pytest.raises(FormulaError):
        Atom("")
    with pytest.raises(FormulaError):
        Atom("bot")  # reserved word
    Atom("p_1")  # fine


def test_exhaustive_roundtrip_small():
    for f in all_formulas([a, b, BOT], 3):
        assert parse_formula(render_formula(f)) == f


# an independent shunting-yard reference parser, for cross-checking the
# precedence table on randomly rendered inputs
def _reference_parse(text):
    import re

    toks = re.findall(r"_\|_|->|[a-z][a-zA-Z0-9_]*|[&|~()]", text)
    toks = [("bot" if t in ("_|_",) else t) for t in toks]
    prec = {"->": 1, "|": 2, "&": 3, "~": 4}
    out, ops = [], []

    def reduce_op(op):
        if op == "~":
            x = out.pop()
            out.append(Impl(x, BOT))
        else:
            r, l = out.pop(), out.pop()
            out.append({"&": Conj, "|": Disj, "->": Impl}[op](l, r))

    def should_pop(top, op):
        if top == "(":
            return False
        if prec[top] > prec[op]:
            return True
        # -> is right-associative, ~ is prefix
        return prec[top] == prec[op] and op not in ("->", "~")

    for t in toks:
        if t == "(":
            ops.append(t)
        elif t == ")":
            while ops[-1] != "(":
                reduce_op(ops.pop())
            ops.pop()
        elif t in prec:
            while ops and should_pop(ops[-1], t):
                reduce_op(ops.pop())
            ops.append(t)
        elif t == "bot":
            out.append(BOT)
        else:
            out.append(Atom(t))
    while ops:
        reduce_op(ops.pop())
    (result,) = out
    return result


def test_parser_agrees_with_reference_oracle():
    rng = make_rng(1)
    for _ in range(300):
        f = random_formula(rng, 4)
        text = render_formula(f)
        assert _reference_parse(text) == parse_formula(text) == f


@st.composite
def formulas(draw, depth=8):
    if depth <= 1 or draw(st.booleans()):
        return draw(st.sampled_from(ATOMS + [BOT]))
    ctor = draw(st.sampled_from([Conj, Disj, Impl]))
    return ctor(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_roundtrip_property(f):
    assert parse_formula(render_formula(f)) == f


def _at_depth(n):
    # one text per kind of level: ~, parentheses, left-nested & and
    # right-nested ->, each with its value on the empty base
    return [("~" * n + "a", n % 2 == 1), ("(" * n + "a" + ")" * n, False),
            ("a & " * n + "a", False), ("a -> " * n + "a", True)]


def test_formula_at_the_nesting_limit_parses_renders_and_evaluates():
    empty = AtomicBase(frozenset())
    for text, value in _at_depth(MAX_NESTING):
        f = parse_formula(text)
        assert parse_formula(render_formula(f)) == f
        assert models(empty, (), f) == value
        assert logical_consequence((), f, [empty]).holds == value
    assert render_formula(parse_formula("~" * MAX_NESTING + "a")) == "~" * MAX_NESTING + "a"


def test_formula_one_level_deeper_is_refused():
    deeper = [text for text, _ in _at_depth(MAX_NESTING + 1)]
    for text in deeper + ["~" * 2000 + "a", "(" * 2000 + "a" + ")" * 2000]:
        with pytest.raises(FormulaError, match=f"nested more than {MAX_NESTING} levels"):
            parse_formula(text)
    # parentheses count where they nest, not where they sit side by side
    group = "(" * (MAX_NESTING - 1) + "a" + ")" * (MAX_NESTING - 1)
    assert parse_formula(group + " | " + group) == Disj(a, a)


# ---------------------------------------------------------------------------
# stored hashes and equality without recursion


def _dataclass_hash(f):
    """The hash the frozen dataclasses computed, hash((left, right)), by recursion."""
    if isinstance(f, Atom):
        return hash((f.name,))
    return hash((_HashOf(_dataclass_hash(f.left)), _HashOf(_dataclass_hash(f.right))))


class _HashOf:
    """Stands in a tuple for an object whose hash is h."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def _equal(f, g):
    """The dataclass equality, by recursion."""
    if type(f) is not type(g):
        return False
    if isinstance(f, Atom):
        return f.name == g.name
    return _equal(f.left, g.left) and _equal(f.right, g.right)


@settings(max_examples=200, deadline=None)
@given(formulas(), formulas())
def test_stored_hash_and_equality_are_the_dataclass_ones(f, g):
    assert hash(f) == _dataclass_hash(f)
    copy = parse_formula(render_formula(f))
    assert copy == f and hash(copy) == hash(f)
    assert (f == g) == _equal(f, g) and (f != g) == (not _equal(f, g))
    if f == g:
        assert hash(f) == hash(g)


def test_a_deep_formula_built_in_code_is_compared_hashed_rendered_and_evaluated():
    def deep(n):
        f = a
        for _ in range(n):
            f = negation(f)
        return f

    f, g = deep(2000), deep(2000)
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != deep(1999) and f != Impl(deep(1999), a)
    assert {f: 1}[g] == 1
    assert render_formula(f) == render_formula(g) == "~" * 2000 + "a"
    assert classical_eval(f, {a: True, BOT: False}) and not classical_eval(f, {a: False, BOT: False})
    assert atoms_of(f) == {a, BOT}
    assert models(AtomicBase(frozenset()), (), negation(g)) and not models(AtomicBase(frozenset()), (), f)
