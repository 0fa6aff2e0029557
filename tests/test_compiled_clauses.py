"""Rewrite clauses compiled once (justification._compile) against the
interpreter they replace, kept in `reference_rewrite`: binding for binding,
reduct for reduct, refusal for refusal."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import (
    Atom,
    FVar,
    Inf,
    JustificationError,
    SchematicRewrite,
    apply_justification,
    em_refutation_rule,
    or_detour,
    parse_rules,
    parse_structure,
    positions,
    render_structure,
)
from ptslab.argument import DSpec, PAssume, PInf, Plug, PVar, cut_subtree
from ptslab.sexpr import MAX_NESTING
from ptslab.validity import _projection_rule

import reference_rewrite as ref
from genlib import (
    random_case_analysis,
    random_detour_redex,
    random_rule,
    random_rule_redex,
    random_scoped_structure,
)

HERE = Path(__file__).resolve().parent


def _outcome(apply):
    """The reduct's text with its labels, None, or the error's type and message."""
    try:
        out = apply()
    except Exception as e:  # the record is the exception's type and message
        return type(e).__name__, str(e)
    return None if out is None else render_structure(out)


def _compiled_bindings(clause, d):
    """What a compiled clause's match of d binds, as the interpreter's four dicts, or None."""
    match, _build, (fvars, svars, lvars) = clause
    s = match(d)
    if s is None:
        return None
    sites = {name: s[i] for name, i in lvars.items() if s[i] is not None}
    return (
        {name: s[i] for name, i in fvars.items() if s[i] is not None},
        {name: s[i] for name, i in svars.items()},
        {name: site[1] for name, site in sites.items()},
        sites,
    )


def _reference_bindings(pat, d):
    b = ref.match(pat, d, ref.Bindings())
    return None if b is None else (b.fvars, b.svars, b.lvars, b.sites)


def _same_bindings(got, want) -> bool:
    if got is None or want is None:
        return got is want
    fv, sv, lv, sites = got
    rfv, rsv, rlv, rsites = want
    # the same formulas and labels, and the very nodes of d
    return (fv, lv, sites) == (rfv, rlv, rsites) and sv.keys() == rsv.keys() and all(sv[k] is rsv[k] for k in sv)


def _agree(rule, structures) -> int:
    """Check the compiled rule against the interpreter on the subtree cut
    at every position of each structure; return how many reducts it built."""
    built = 0
    for d in structures:
        for pos in positions(d):
            try:
                sub, _ = cut_subtree(d, pos)
            except Exception:  # an empty node, or a leaf whose label nothing discharges
                continue
            for clause, (pat, _tmpl) in zip(rule._compiled, rule.clauses):
                got, want = _compiled_bindings(clause, sub), _reference_bindings(pat, sub)
                assert _same_bindings(got, want), (rule, render_structure(sub), got, want)
            got = _outcome(lambda: apply_justification(rule, sub))
            assert got == _outcome(lambda: ref.reference_apply(rule, sub)), (rule, render_structure(sub))
            built += isinstance(got, str)
    return built


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compiled_clauses_agree_with_the_interpreter(seed):
    rng = random.Random(seed)
    rule = random_rule(rng)
    assert all(ref.clause_problem(pat, tmpl) is None for pat, tmpl in rule.clauses)
    structures = [random_rule_redex(rng, rule) for _ in range(3)] + [random_scoped_structure(rng)]
    _agree(rule, structures)


def test_random_rules_build_reducts_and_refuse_others():
    # the property above is not vacuous: its rules fire, build and break the contract
    outcomes = set()
    for seed in range(60):
        rng = random.Random(seed)
        rule = random_rule(rng)
        d = random_rule_redex(rng, rule)
        got = _outcome(lambda: apply_justification(rule, d))
        outcomes.add("reduct" if isinstance(got, str) else "none" if got is None else got[0])
    assert outcomes == {"reduct", "none", "JustificationContractError"}


DETOUR_RULES = (HERE / "data" / "detour.rules").read_text()
SITE_RULES = """
site: (inf wrap "?C" (inf impI "?A -> ?B" (inf t "?B" (assume "?A" :label ?l) ?E) :discharge ((?l "?A"))) :discharge (?m)) => (inf wrap "?C" (inf impI "?A -> ?B" (inf t "?B" (assume "?A" :label ?l) ?E) :discharge (?l)) :discharge (?m))
vacuous: (inf impI "?A -> ?B" (?D :concludes "?B") :discharge ((?l "?A"))) => (inf impI "?A -> ?B" (inf k "?B" ?D) :discharge (?l))
empty: (inf ax "?A" (empty)) => (inf ax "?A" (empty))
plug: (inf impE "?B" (inf impI "?A -> ?B" (?D :concludes "?B") :discharge ((?l "?A"))) (?E :concludes "?A")) => (plug ?D ?l ?E)
shadow: (inf r "?A" (inf s "?A" (assume "?A" :label ?l) :discharge (?l)) :discharge (?m)) => (inf s "?A" (assume "?A" :label ?l) :discharge (?l))
"""


def test_the_packaged_and_written_rules_agree_with_the_interpreter():
    rng = random.Random(7)
    structures = [random_detour_redex(rng) for _ in range(12)]
    structures += [random_case_analysis(rng, (random_detour_redex(rng),)) for _ in range(6)]
    structures += [parse_structure(
        '(inf impE "b" (inf impI "a -> b" (inf t "b" (assume "a" :label 1) (assume "a" :label 1)) :discharge (1))'
        ' (inf ax "a" (empty)))'
    ), parse_structure('(inf impI "a -> b" (inf atm "b" (empty)) :discharge (3))')]
    # the leaf's label is discharged twice above it: its site is the nearer inference
    structures.append(Inf("r", Atom("a"), (parse_structure('(inf s "a" (assume "a" :label 1) :discharge (1))'),),
                          frozenset({1})))
    rules = [or_detour(), em_refutation_rule(), _projection_rule(1), _projection_rule(2)]
    rules += parse_rules(DETOUR_RULES).members + parse_rules(SITE_RULES).members
    assert sum(_agree(rule, structures) for rule in rules) > 20


@pytest.mark.parametrize("pat, tmpl", [
    (PInf("r", Atom("a"), (PVar("D"), PVar("D"))), PVar("D")),
    (PInf("r", FVar("A"), (PVar("D"),)), PInf("s", FVar("B"), (PVar("D"),))),
    (PInf("r", Atom("a"), (PVar("D"),), (DSpec("l", FVar("A")),)), PAssume(FVar("A"))),
    (PInf("r", Atom("a"), (PVar("D"),)), PVar("E")),
    (PInf("r", Atom("a"), (PVar("D"),)), Plug("D", "l", PVar("D"))),
    (PInf("r", FVar("A"), (PVar("D"), PVar("D"), PVar("E"), PVar("E"))), PInf("s", FVar("B"), (PVar("F"),))),
], ids=["nonlinear", "formula", "constraint-only", "structure", "plugged", "first-problem"])
def test_a_clause_is_refused_as_the_interpreter_refuses_it(pat, tmpl):
    problem = ref.clause_problem(pat, tmpl)
    assert problem is not None
    with pytest.raises(JustificationError, match=f"^rule r: {re.escape(problem)}$"):
        SchematicRewrite("r", ((pat, tmpl),))


@pytest.mark.parametrize("pat, tmpl, word", [
    (PInf("r", "a", (PVar("D"),)), PVar("D"), "bad formula pattern"),
    (Plug("D", "l", PVar("D")), PVar("D"), "bad pattern"),
    (PInf("r", Atom("a"), (PVar("D"),)), PInf("s", 3, (PVar("D"),)), "bad formula template"),
    (PInf("r", Atom("a"), (PVar("D"),)), "?D", "bad template"),
], ids=["formula-pattern", "pattern", "formula-template", "template"])
def test_a_clause_that_is_no_tree_is_refused_when_the_rule_is_built(pat, tmpl, word):
    # the interpreter refused it only when a structure reached the bad node
    with pytest.raises(JustificationError, match=f"^rule r: {word} "):
        SchematicRewrite("r", ((pat, tmpl),))


def _rules() -> list:
    return [or_detour(), em_refutation_rule(), _projection_rule(2), *parse_rules(SITE_RULES).members]


def _redexes() -> list:
    return [random_detour_redex(random.Random(3)), parse_structure('(inf ax "a | ~a" (empty))')]


def _applied(rules) -> list:
    return [_outcome(lambda: apply_justification(r, d)) for r in rules for d in _redexes()]


def test_a_copied_or_pickled_rule_equals_hashes_and_applies_like_a_fresh_one():
    fresh = _rules()
    for again in (copy.deepcopy(fresh), [copy.copy(r) for r in fresh], pickle.loads(pickle.dumps(fresh))):
        for x, y in zip(again, fresh):
            assert x is not y and x == y and hash(x) == hash(y) == hash((y.name, y.clauses))
            assert x._compiled is not y._compiled
        assert _applied(again) == _applied(fresh)


_LOAD_RULES = """
import pickle, sys
from test_compiled_clauses import _applied, _rules

loaded, fresh = pickle.loads(sys.stdin.buffer.read()), _rules()
print(all(x == y and hash(x) == hash(y) == hash((y.name, y.clauses)) for x, y in zip(loaded, fresh)))
print(_applied(loaded) == _applied(fresh))
"""


def test_a_rule_unpickled_under_another_hash_seed_equals_hashes_and_applies_like_a_fresh_one():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]),
               PYTHONDONTWRITEBYTECODE="1")
    dump = "import pickle, sys; from test_compiled_clauses import _rules; sys.stdout.buffer.write(pickle.dumps(_rules()))"
    done = subprocess.run([sys.executable, "-c", dump], capture_output=True, env=dict(env, PYTHONHASHSEED="1"),
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    again = subprocess.run([sys.executable, "-c", _LOAD_RULES], input=done.stdout, capture_output=True,
                           env=dict(env, PYTHONHASHSEED="2"), timeout=120)
    assert again.returncode == 0, again.stderr.decode()
    assert again.stdout.decode().split() == ["True", "True"]


def test_a_pattern_nested_to_the_reader_limit_compiles_and_applies():
    # MAX_NESTING lists deep in the rule text, one frame a level for the compiler
    # and none for the compiled forms, with a discharge at the innermost level
    def nest(inner, formula):
        for _ in range(MAX_NESTING - 2):
            inner = f'(inf s "{formula}" {inner})'
        return inner

    core = '(inf impI "{0} -> {0}" (assume "{0}" :label {1}) :discharge ({1}))'
    clause = nest(core.format("?A", "?l"), "?B")
    rule = parse_rules(f"deep: {clause} => {clause}").members[0]
    d = parse_structure(nest(core.format("a", 1), "b"))
    assert apply_justification(rule, d) == d
    assert apply_justification(rule, parse_structure(nest(core.format("a", 1).replace("impI", "impJ"), "b"))) is None
