"""The tree syntax, pinned case by case.

Structure texts and the two sides of a rule line are read by one
reader; each side accepts its own forms. Every case names its text and
its outcome: accepted, or the exception raised. Rule-file errors are
JustificationErrors that name the offending line.
"""

from pathlib import Path

import pytest

from ptslab import (
    JustificationError,
    StructureError,
    parse_rules,
    parse_structure,
    parse_structures,
)
from ptslab.argument import size_of
from ptslab.formula import MAX_NESTING as FORMULA_NESTING
from ptslab.justification import _EM_REFUTE_TEXT, _OR_DETOUR_TEXT
from ptslab.sexpr import MAX_NESTING, SexprError, read_all_sexprs, read_sexpr

DATA = Path(__file__).parent / "data"

OK = None

RULE_CASES = [
    # id, rule-file text, outcome (OK, or (exception, line number))
    ("packaged-or-detour", _OR_DETOUR_TEXT, OK),
    ("packaged-em-refute", _EM_REFUTE_TEXT, OK),
    ("fixture-detour-rules", (DATA / "detour.rules").read_text(encoding="utf-8"), OK),
    ("concludes-in-pattern", 'r: (inf f "?A" (?D :concludes "?A")) => ?D', OK),
    ("concludes-in-template", 'r: (inf f "?A" ?D) => (?D :concludes "?A")', (JustificationError, 1)),
    ("plug-in-template",
     'r: (inf e "?B" ?D (?E :concludes "?A") :discharge ((?l "?A"))) => (plug ?D ?l ?E)', OK),
    ("plug-in-pattern", "r: (plug ?D ?l ?E) => ?D", (JustificationError, 1)),
    ("formula-dspec-in-pattern",
     'r: (inf i "?A -> ?B" ?D :discharge ((?l "?A"))) => (inf i "?A -> ?B" ?D :discharge (?l))', OK),
    ("formula-dspec-in-template",
     'r: (inf i "?A -> ?B" ?D :discharge (?l)) => (inf i "?A -> ?B" ?D :discharge ((?l "?A")))',
     (JustificationError, 1)),
    ("int-label-in-pattern-leaf",
     'r: (inf i "?A -> ?A" (assume "?A" :label 1) :discharge (?l)) => ?D', (JustificationError, 1)),
    ("int-label-in-pattern-discharge",
     'r: (inf i "?A -> ?B" ?D :discharge (1)) => ?D', (JustificationError, 1)),
    ("int-label-in-template-discharge",
     'r: (inf i "?A -> ?B" ?D) => (inf i "?A -> ?B" ?D :discharge (1))', (JustificationError, 1)),
    ("metavar-label-in-template-leaf",
     'r: (inf ax "?A" (empty)) => (inf i "?A" (inf s "_|_" (assume "?A" :label ?l)) :discharge (?l))',
     OK),
    ("error-names-its-line",
     '# comment\n\nr: (inf f "?A" ?D) => ?D\nr: (inf g "?A" ?D) => (?D :concludes "?A")\n',
     (JustificationError, 4)),
    ("no-arrow", "r: (inf f \"?A\" ?D)", (JustificationError, 1)),
    # tightened: the parent read both of these and failed later or never
    ("childless-template", 'r: (inf f "?A" ?D) => (inf g "?A")', (JustificationError, 1)),
    ("childless-pattern", 'r: (inf f "?A") => (inf g "?A" (empty))', (JustificationError, 1)),
    ("empty-with-argument-in-rule", 'r: (inf f "?A" (empty junk)) => (inf g "?A" (empty))',
     (JustificationError, 1)),
    ("plug-label-unbound-by-pattern",
     'r: (inf f "?A" ?D) => (plug ?D ?m (inf g "?A" (empty)))', (JustificationError, 1)),
    # a discharge constraint binds nothing: a vacuous discharge leaves ?C unset
    ("formula-var-bound-only-by-discharge-constraint",
     'r: (inf impI "?A -> ?B" ?D :discharge ((?l "?C"))) => '
     '(inf impI "?A -> ?B" (inf k "?B" ?D (inf ax "?C | ~?C" (empty))) :discharge (?l))',
     (JustificationError, 1)),
]

STRUCTURE_CASES = [
    # id, structure text, outcome (OK or the exception type)
    ("fixture-redex", (DATA / "redex.struct").read_text(encoding="utf-8"), OK),
    ("fixture-contractum", (DATA / "contractum.struct").read_text(encoding="utf-8"), OK),
    ("int-labels", '(inf impI "a -> a" (inf s "a" (assume "a" :label 3)) :discharge (3))', OK),
    ("metavar-label-on-leaf", '(inf impI "a -> a" (assume "a" :label ?l) :discharge (1))', StructureError),
    ("metavar-label-in-discharge", '(inf impI "a -> a" (assume "a" :label 1) :discharge (?l))',
     StructureError),
    ("structure-variable", '(inf s "a" ?D)', StructureError),
    ("concludes-in-structure", '(inf s "a" (?D :concludes "a"))', StructureError),
    ("plug-in-structure", '(plug ?D ?l (empty))', StructureError),
    ("formula-dspec-in-structure", '(inf impI "a -> a" (assume "a" :label 1) :discharge ((1 "a")))',
     StructureError),
    ("empty-with-argument", '(inf s "a" (empty junk))', StructureError),
    ("childless-inference", '(inf s "a")', StructureError),
    ("unknown-form", '(bogus "a")', StructureError),
]


@pytest.mark.parametrize("text,outcome", [c[1:] for c in RULE_CASES], ids=[c[0] for c in RULE_CASES])
def test_rule_syntax(text, outcome):
    if outcome is OK:
        assert len(parse_rules(text)) >= 1
        return
    exc, line = outcome
    with pytest.raises(exc, match=rf"\bline {line}\b"):
        parse_rules(text)


@pytest.mark.parametrize("text,outcome", [c[1:] for c in STRUCTURE_CASES],
                         ids=[c[0] for c in STRUCTURE_CASES])
def test_structure_syntax(text, outcome):
    if outcome is OK:
        parse_structure(text)
        return
    with pytest.raises(outcome):
        parse_structure(text)


def _chain(depth: int, formula: str = "a") -> str:
    """A structure text whose lists nest depth levels deep: depth - 1
    inferences over one leaf."""
    return '(inf s "a" ' * (depth - 1) + f'(assume "{formula}")' + ")" * (depth - 1)


def test_text_nested_to_the_limit_is_read():
    # the deepest leaf holds a formula at the formula reader's own limit, in its most frame-hungry form
    deepest = "(" * FORMULA_NESTING + "a" + ")" * FORMULA_NESTING
    assert size_of(parse_structure(_chain(MAX_NESTING, deepest))) == MAX_NESTING
    assert len(parse_structures(_chain(MAX_NESTING) * 2)) == 2
    assert len(parse_rules(f"r: {_chain(MAX_NESTING)} => ?D".replace('(assume "a")', '?D', 1))) == 1


def test_text_nested_past_the_limit_is_an_input_error():
    for depth in (MAX_NESTING + 1, 3000):
        text = _chain(depth)
        message = f"nested more than {MAX_NESTING} levels deep"
        with pytest.raises(SexprError, match=message):
            read_sexpr(text)
        with pytest.raises(SexprError, match=message):
            read_all_sexprs(text)
        with pytest.raises(StructureError, match=message):
            parse_structure(text)
        with pytest.raises(StructureError, match=message):
            parse_structures(text)
        with pytest.raises(JustificationError, match=rf"line 1: .*{message}"):
            parse_rules(f"r: {text} => ?D")
