import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import base_semantics

from ptslab import (
    Atom,
    AtomicBase,
    BOT,
    Disj,
    SemanticsError,
    atomic_closure,
    atoms_of,
    base_valuation,
    classical_eval,
    derives,
    em_valid,
    enumerate_bases,
    logical_consequence,
    models,
    negation,
    parse_base,
    parse_formula,
    search_counterexample,
)

from genlib import all_formulas, make_rng, random_formula

a, b, c, p, q, s = map(Atom, "abcpqs")
PQ = parse_base("-> p\np -> q\n")
EMPTY = AtomicBase(frozenset())


def test_models_examples():
    assert models(PQ, (), parse_formula("q | s"))
    assert models(EMPTY, (), parse_formula("a | ~a"))
    # nonempty context is a material condition: an unobtainable member
    # makes the sequent hold outright
    assert models(EMPTY, [p], BOT)


def test_models_hand_oracle_disjunction():
    # left disjunct via the derivable atom, computed clause by clause
    f = parse_formula("q | s")
    assert derives(PQ, (), q) is True
    assert models(PQ, (), q)
    assert not models(PQ, (), s)
    assert models(PQ, (), f)


def test_models_bottom_is_an_atom():
    assert not models(PQ, (), BOT)
    inconsistent = parse_base("-> p\np -> bot\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert models(inconsistent, (), BOT)


def test_models_warns_on_inconsistent_base():
    inconsistent = parse_base("-> bot\n")
    with pytest.warns(UserWarning, match="inconsistent"):
        models(inconsistent, (), p)


def test_classical_eval_examples():
    v = {a: True, b: False, BOT: False}
    assert classical_eval(parse_formula("a | ~a"), v)
    assert classical_eval(parse_formula("a | ~a"), {a: False, BOT: False})
    assert not classical_eval(parse_formula("a & b"), v)
    with pytest.raises(SemanticsError):
        classical_eval(parse_formula("a & c"), v)


def test_classical_eval_truth_table_oracle():
    # exhaustive truth tables for formulas over up to three atoms
    rng = make_rng(3)
    atoms = [a, b, p]
    for _ in range(100):
        f = random_formula(rng, 3, atoms=atoms)
        names = sorted(atoms_of(f) - {BOT}, key=lambda x: x.name)
        for bits in range(1 << len(names)):
            v = {x: bool(bits >> i & 1) for i, x in enumerate(names)}
            v[BOT] = False

            def table(g):
                match g:
                    case Atom():
                        return v[g]
                    case _:
                        l, r = table(g.left), table(g.right)
                        return {
                            "Conj": l and r,
                            "Disj": l or r,
                            "Impl": (not l) or r,
                        }[type(g).__name__]

            assert classical_eval(f, v) == table(f)


def test_classical_collapse_spot():
    # on a consistent base, empty-context consequence is classical
    # evaluation under the derivability valuation
    fam = list(enumerate_bases([a, b], 2))
    rng = make_rng(4)
    for base in fam[:40]:
        for _ in range(20):
            f = random_formula(rng, 3, atoms=[a, b])
            v = base_valuation(base, atoms_of(f))
            assert models(base, (), f) == classical_eval(f, v)


def test_em_valid_examples():
    assert em_valid(EMPTY, p)  # right disjunct, vacuously
    assert em_valid(parse_base("-> p\n"), p)  # left disjunct
    for base in enumerate_bases([a, b], 2):
        for f in all_formulas([a, b, BOT], 2):
            assert em_valid(base, f)


def test_logical_consequence():
    fam = list(enumerate_bases([a], 2))
    v = logical_consequence((), Disj(a, negation(a)), fam)
    assert v.holds and v.counterexample is None

    v = logical_consequence((), p, [EMPTY, PQ])
    assert not v.holds and v.counterexample == "{}"

    v = logical_consequence([p], p, [EMPTY, PQ])
    assert v.holds


def test_counterexample_rechecks():
    fam = list(enumerate_bases([p, q], 1))
    v = logical_consequence((), parse_formula("p -> q"), fam)
    assert not v.holds
    failing = next(b for b in fam if b.id == v.counterexample)
    assert not models(failing, (), parse_formula("p -> q"))


def test_monotone_mode_differs_from_plain():
    # p -> q holds on the empty base in the plain reading (vacuous), but a
    # rule extension that obtains p without q falsifies it, so the plain
    # reading is not monotone under adding rules
    f = parse_formula("p -> q")
    assert models(EMPTY, (), f)
    assert models(EMPTY, [p], q)
    p_only = parse_base("-> p\n")
    assert not models(p_only, (), f)
    assert not models(p_only, [p], q)
    assert models(PQ, [p], q)


@pytest.mark.parametrize("scan", ["logical_consequence", "search_counterexample"])
def test_family_scan_evaluates_each_closure_once(monkeypatch, scan):
    # 4887 consistent bases over a, b, c with at most three rules, but at
    # most 8 distinct closures: a tautology is evaluated once per closure
    family = list(enumerate_bases([a, b, c], 3))
    closures = {atomic_closure(base) for base in family}
    assert len(family) == 4887 and len(closures) == 8
    calls = []
    real = base_semantics.models
    monkeypatch.setattr(base_semantics, "models", lambda *x: calls.append(x[0]) or real(*x))
    goal = parse_formula("(a -> b) | (b -> a)")
    if scan == "logical_consequence":
        assert logical_consequence((), goal, family).holds
    else:
        assert search_counterexample((), goal, [a, b, c], 3) is None
    assert len(calls) == len({atomic_closure(base) for base in calls}) == 8


def _per_base(context, goal, family):
    for base in family:
        if not models(base, context, goal):
            return base
    return None


def _scan_with_warnings(scan, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = scan(*args)
    return found, [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_closure_memo_agrees_with_a_per_base_scan(seed, max_rules):
    # inconsistent bases included and the family shuffled, so closures
    # repeat in any order and the warnings interleave with the verdicts
    rng = random.Random(seed)
    atoms = [a, b, c][: rng.randint(1, 3)]
    family = list(enumerate_bases(atoms, max_rules, consistent_only=False))
    rng.shuffle(family)
    context = [random_formula(rng, 3, atoms=atoms) for _ in range(rng.randint(0, 2))]
    goal = random_formula(rng, 4, atoms=atoms)
    want, want_warnings = _scan_with_warnings(_per_base, context, goal, family)
    got, got_warnings = _scan_with_warnings(base_semantics._first_failing, context, goal, family)
    assert got is want
    assert got_warnings == want_warnings
    verdict, _ = _scan_with_warnings(logical_consequence, context, goal, family)
    assert verdict.holds == (want is None) and verdict.counterexample == (want and want.id)
