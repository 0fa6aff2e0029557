"""The s-expression and tree reader against the reader it replaced.

`_TOKEN_RE`, `_tokenize`, `_parse`, `_discharge_item` and `_read_tree` below
are the earlier reader, copied verbatim apart from their names: a generator
tokenizer that matched one token at a time, a recursive list parser, and a
recursive tree reader that read every formula text afresh. Every text must
read as the same lists under both, and as the same structure, pattern and
template (compared by `repr`, which shows labels as they are), or be refused
by both with the same exception type and message.

Every reader, formula and base readers included, refuses input that is not
text with its own error, which names the argument.
"""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlib import (
    random_case_analysis,
    random_closed_structure,
    random_detour_redex,
    random_formula,
    random_open_structure,
    random_scoped_structure,
)
from ptslab import (
    BaseError,
    FormulaError,
    JustificationError,
    StructureError,
    parse_base,
    parse_formula,
    parse_rules,
    parse_structure,
    parse_structures,
    render_structure,
)
from ptslab.argument import (
    Assumption,
    DSpec,
    EmptyTop,
    Inf,
    PAssume,
    PInf,
    Plug,
    PVar,
    _label,
    _metavar,
    _parse_tree,
    check_structure,
)
from ptslab.justification import _EM_REFUTE_TEXT, _OR_DETOUR_TEXT
from ptslab.sexpr import MAX_NESTING, SexprError, Sym, read_all_sexprs, read_sexpr

DATA = Path(__file__).parent / "data"
MODES = ("structure", "pattern", "template")

# ---------------------------------------------------------------------------
# the reference reader


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


def _reference_read_sexpr(text: str):
    tokens = _tokenize(text)
    tok = next(tokens)
    out = _parse(tokens, text, tok)
    trailing = next(tokens)
    if trailing[0] != "eof":
        raise SexprError(f"{_line_col(text, trailing[2])}: trailing input after expression")
    return out


def _reference_read_all_sexprs(text: str) -> list:
    tokens = _tokenize(text)
    out = []
    while True:
        tok = next(tokens)
        if tok[0] == "eof":
            return out
        out.append(_parse(tokens, text, tok))


def _discharge_item(item, mode: str):
    label = _label(item, mode)
    if label is not None:
        return label if mode == "structure" else DSpec(label)
    # (?l "F"): the leaves discharged as ?l must match F
    if mode == "pattern" and isinstance(item, list) and len(item) == 2:
        var, text = item
        if _metavar(var) and isinstance(text, str):
            return DSpec(_metavar(var), parse_formula(text, metavars=True))
    raise StructureError(f"bad discharge spec {item!r} in a {mode}")


def _read_tree(x, mode: str):
    meta = mode != "structure"
    var = _metavar(x)
    if meta and var:
        return PVar(var)
    if not isinstance(x, list) or not x or not isinstance(x[0], Sym):
        raise StructureError(f"expected a {mode} form, got {x!r}")
    head = x[0].text
    var = _metavar(x[0])
    if mode == "pattern" and var:
        if len(x) == 3 and x[1] == Sym(":concludes") and isinstance(x[2], str):
            return PVar(var, parse_formula(x[2], metavars=True))
        raise StructureError(f"bad structure-variable pattern {x!r}")
    if head == "empty":
        if len(x) != 1:
            raise StructureError("(empty) takes no arguments")
        return EmptyTop()
    if head == "plug" and mode == "template":
        if len(x) != 4 or not _metavar(x[1]) or not _metavar(x[2]):
            raise StructureError("(plug ?D ?l TEMPLATE) expected")
        return Plug(_metavar(x[1]), _metavar(x[2]), _read_tree(x[3], mode))
    if head == "assume":
        if len(x) < 2 or not isinstance(x[1], str):
            raise StructureError("(assume ...) needs a quoted formula")
        label = None
        rest = x[2:]
        if rest:
            label = _label(rest[1], mode) if len(rest) == 2 and rest[0] == Sym(":label") else None
            if label is None:
                raise StructureError(f"(assume ...) options: :label {'?l' if meta else 'N'}")
        f = parse_formula(x[1], metavars=meta)
        return PAssume(f, label) if meta else Assumption(f, label)
    if head == "inf":
        if len(x) < 3 or not isinstance(x[1], Sym) or not isinstance(x[2], str):
            raise StructureError('(inf TAG "FORMULA" CHILD...) expected')
        concl = parse_formula(x[2], metavars=meta)
        rest = list(x[3:])
        discharge = []
        if Sym(":discharge") in rest:
            k = rest.index(Sym(":discharge"))
            spec = rest[k + 1 :]
            if len(spec) != 1 or not isinstance(spec[0], list):
                raise StructureError(":discharge needs a list of labels")
            discharge = [_discharge_item(item, mode) for item in spec[0]]
            rest = rest[:k]
        if not rest:
            raise StructureError("inference nodes need at least one child; use (empty) for none")
        children = tuple(_read_tree(c, mode) for c in rest)
        if meta:
            return PInf(x[1].text, concl, children, tuple(discharge))
        return Inf(x[1].text, concl, children, frozenset(discharge))
    raise StructureError(f"unknown {mode} form {head!r}")


def _reference_parse_tree(text: str, mode: str):
    try:
        x = _reference_read_sexpr(text)
    except SexprError as e:
        raise StructureError(str(e)) from None
    return _read_tree(x, mode)


def _reference_parse_structures(text: str):
    try:
        forms = _reference_read_all_sexprs(text)
    except SexprError as e:
        raise StructureError(str(e)) from None
    out = []
    for x in forms:
        d = _read_tree(x, "structure")
        check_structure(d)
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# the comparison


def _outcome(read, text):
    try:
        return "value", repr(read(text))
    except Exception as e:  # the type and message are what is compared
        return type(e), str(e)


READERS = [
    (read_sexpr, _reference_read_sexpr),
    (read_all_sexprs, _reference_read_all_sexprs),
    (parse_structures, _reference_parse_structures),
] + [
    (lambda t, mode=mode: _parse_tree(t, mode), lambda t, mode=mode: _reference_parse_tree(t, mode))
    for mode in MODES
]


def _assert_agrees(text):
    for new, reference in READERS:
        assert _outcome(new, text) == _outcome(reference, text), text


# ---------------------------------------------------------------------------
# the texts: rendered random structures, rule sides made from them, and
# single-character edits of both


def _random_structure(rng):
    make = rng.choice([
        lambda: random_scoped_structure(rng, rng.randint(1, 5)),
        lambda: random_detour_redex(rng),
        lambda: random_case_analysis(rng),
        lambda: random_open_structure(rng, random_formula(rng, 3), rng.randint(1, 4)),
        lambda: random_closed_structure(rng, random_formula(rng, 3), rng.randint(1, 4)),
    ])
    return render_structure(make())


def _rule_side(rng, text):
    """A pattern- or template-like text from a structure's: atoms become ?A
    variables, labels ?l variables, some leaves ?D variables (some of them
    with :concludes), and the whole may be plugged."""
    text = re.sub(r'"[^"]*"', lambda m: re.sub(r"\b([abc])\b", lambda a: "?" + a[1].upper(), m[0]), text)
    text = re.sub(r":label (\d+)", r":label ?l\1", text)
    text = re.sub(r":discharge \(([\d ]+)\)", lambda m: ":discharge (" + " ".join(
        (f'(?l{l} "?A")' if rng.random() < 0.3 else f"?l{l}") for l in m[1].split()) + ")", text)
    leaves = iter(range(1000))
    text = re.sub(r'\(assume ("[^"]*")\)', lambda m: m[0] if rng.random() < 0.3 else (
        f"(?D{next(leaves)} :concludes {m[1]})" if rng.random() < 0.5 else f"?D{next(leaves)}"), text)
    return f"(plug ?D0 ?l1 {text})" if rng.random() < 0.2 else text


_EDITS = ["(", ")", '"', " ", "\n", ";", "?", ":", "1", "-", "\\", "a", "x", "~", "?D", ":label", ":discharge"]


def _edited(rng, text):
    """text with one character deleted or replaced, or one piece inserted."""
    i = rng.randrange(len(text) + 1)
    kind = rng.choice(("delete", "replace", "insert"))
    if kind == "insert" or i == len(text):
        return text[:i] + rng.choice(_EDITS) + text[i:]
    return text[:i] + (rng.choice(_EDITS) if kind == "replace" else "") + text[i + 1 :]


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.integers(0, 2))
def test_reader_agrees_with_the_reference_on_rendered_and_edited_texts(seed, rule, edits):
    rng = random.Random(seed)
    text = _random_structure(rng)
    if rule:
        text = _rule_side(rng, text)
    for _ in range(edits):
        text = _edited(rng, text)
    _assert_agrees(text)


def _fixed_texts():
    texts = [p.read_text(encoding="utf-8") for p in sorted(DATA.glob("*.struct"))]
    for rules in [_OR_DETOUR_TEXT, _EM_REFUTE_TEXT] + [p.read_text(encoding="utf-8") for p in DATA.glob("*.rules")]:
        for line in rules.splitlines():
            if "=>" in line:
                texts += line.split(":", 1)[1].split("=>")
    return texts


@pytest.mark.parametrize("text", _fixed_texts())
def test_reader_agrees_with_the_reference_on_every_truncation_and_deletion(text):
    for i in range(len(text) + 1):
        _assert_agrees(text[:i])
        _assert_agrees(text[:i] + text[i + 1 :])


@pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 3000])
def test_reader_agrees_with_the_reference_on_deep_texts(depth):
    chain = '(inf s "a" ' * (depth - 1) + '(assume "a")' + ")" * (depth - 1)
    for text in [chain, chain[:-1], chain + ")", chain + " (empty)", "(" * depth, "(" * depth + '"']:
        _assert_agrees(text)


def test_reader_agrees_with_the_reference_on_tokens():
    for text in ["", " ; only a comment", "12ab -5x - a-1 ;c\n", '"q\\"r\\\\"', '"a\\\nb"', "(a) b", "(a) ;c\n )",
                 '(a) "', "a b", "(empty)(empty)", "((empty))", '(assume "a" :label -0)']:
        _assert_agrees(text)


@pytest.mark.parametrize("text", [None, 3, b"(empty)", ["(empty)"]], ids=["None", "int", "bytes", "list"])
@pytest.mark.parametrize("read,error", [
    (parse_formula, FormulaError),
    (parse_structure, StructureError),
    (parse_structures, StructureError),
    (parse_rules, JustificationError),
    (parse_base, BaseError),
    (read_sexpr, SexprError),
    (read_all_sexprs, SexprError),
], ids=lambda x: x.__name__)
def test_every_reader_refuses_non_text_with_its_own_error(read, error, text):
    with pytest.raises(error, match=rf"^text must be a str, not {type(text).__name__}$"):
        read(text)


@pytest.mark.parametrize("sign", ["", "-"])
def test_an_integer_too_long_to_convert_is_refused_where_it_stands(sign):
    digits = sign + "9" * 5000
    text = f'(assume "a"\n :label {digits})'
    for read, error in ((read_sexpr, SexprError), (read_all_sexprs, SexprError), (parse_structure, StructureError)):
        with pytest.raises(error, match=r"^2:9: integer of 5000 digits is too long to read$"):
            read(text)
    assert read_sexpr(f"(x {sign}{'9' * 4300})")[1] == int(sign + "9" * 4300)  # at the limit it reads
