import functools
import itertools
import random
import types
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import atomic_base, base_semantics

from ptslab import (
    Atom,
    AtomicBase,
    BOT,
    BaseError,
    Conj,
    Disj,
    EnumerationCapError,
    FVar,
    FormulaError,
    Impl,
    JustificationError,
    SemanticsError,
    ValidityError,
    atomic_closure,
    atoms_of,
    base_valuation,
    choice_justification,
    classical_eval,
    derives,
    em_valid,
    enumerate_bases,
    graph_of,
    logical_consequence,
    models,
    negation,
    or_detour,
    parse_base,
    parse_formula,
    parse_structure,
    reduces,
    search_counterexample,
)

from genlib import all_formulas, make_rng, random_formula

a, b, c, d, p, q, s = map(Atom, "abcdpqs")
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


@pytest.mark.parametrize("scan", ["logical_consequence"])
def test_family_scan_evaluates_each_closure_once(monkeypatch, scan):
    # 4887 consistent bases over a, b, c with at most three rules, but at
    # most 8 distinct closures: a tautology is evaluated once per closure
    family = list(enumerate_bases([a, b, c], 3))
    closures = {atomic_closure(base) for base in family}
    assert len(family) == 4887 and len(closures) == 8
    calls = []
    real = base_semantics._follows  # the evaluation the scan makes per new closure, on the closure it read
    monkeypatch.setattr(base_semantics, "_follows", lambda *x: calls.append(x[2]) or real(*x))
    goal = parse_formula("(a -> b) | (b -> a)")
    assert logical_consequence((), goal, family).holds
    assert len(calls) == len(set(calls)) == 8 and set(calls) == closures


def test_search_evaluates_each_closure_once_and_builds_only_its_answer(monkeypatch):
    # the same 4887 bases: a tautology is evaluated once on each of the 8
    # subsets of {a, b, c}, their closures, and no base is built; a failing
    # goal builds exactly the base it returns, handed its closure, through
    # the private path and not the constructor
    evaluated, built, constructed = [], [], []
    real_holds = base_semantics._holds
    monkeypatch.setattr(base_semantics, "_holds", lambda f, d: evaluated.append(d) or real_holds(f, d))
    real_build = base_semantics._with_closure
    monkeypatch.setattr(base_semantics, "_with_closure", lambda *x: built.append(real_build(*x)) or built[-1])
    real_init = AtomicBase.__init__
    monkeypatch.setattr(AtomicBase, "__init__", lambda base, *x: constructed.append(base) or real_init(base, *x))
    goal = parse_formula("(a -> b) | (b -> a)")
    assert search_counterexample((), goal, [a, b, c], 3) is None
    subsets = {frozenset(s) for k in range(4) for s in itertools.combinations([a, b, c], k)}
    assert len(evaluated) == 8 and set(evaluated) == subsets
    assert built == []
    found = search_counterexample((), parse_formula("a -> b"), [a, b, c], 3)
    assert built == [found] and found.id == "{-> a}" and atomic_closure(found) == {a}
    assert constructed == []


def test_evaluation_of_a_deep_formula_built_in_code():
    # 2000 negations of an atom: far deeper than the reader admits, and
    # than recursion would reach; an even number of them is the atom itself
    deep = a
    for _ in range(2000):
        deep = negation(deep)
    assert models(parse_base("-> a\n"), (), deep) and not models(EMPTY, (), deep)
    assert models(EMPTY, (), negation(deep)) and models(EMPTY, [deep], BOT)
    fam = list(enumerate_bases([a], 1))
    assert logical_consequence((), deep, fam) == logical_consequence((), a, fam)
    assert logical_consequence((), Disj(deep, negation(deep)), fam).holds
    assert search_counterexample((), deep, [a], 1).id == "{}"
    assert search_counterexample((), Impl(deep, deep), [a, b], 2) is None
    with pytest.raises(SemanticsError, match="not a formula"):
        models(PQ, (), Impl(negation(deep), Impl(p, FVar("A"))))


@pytest.mark.parametrize("conn, deciding, value", [(Conj, False, False), (Disj, True, True), (Impl, False, True)])
def test_evaluation_reads_the_right_operand_only_when_the_left_does_not_decide(conn, deciding, value):
    # the left operand is evaluated first; its deciding value settles the
    # connective without reaching the non-formula on the right
    f = conn(a, FVar("X"))
    assert classical_eval(f, {a: deciding}) is value
    with pytest.raises(SemanticsError, match="not a formula"):
        classical_eval(f, {a: not deciding})


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


# the search against its definition before closures: the first base of
# the consistent enumeration on which the goal fails, by a per-base scan

def _reference_search(context, goal, atoms, max_rules, cap=200_000):
    for base in enumerate_bases(atoms, max_rules, consistent_only=True, cap=cap):
        if not models(base, context, goal):
            return base
    return None


def _outcome(search, *args):
    try:
        found = search(*args)
    except (BaseError, EnumerationCapError) as e:
        return type(e)
    return found and (found.rules_text(), found.id, atomic_closure(found))


# bottom, and atoms a signature may leave out (d always), among the leaves
_formulas = st.recursive(
    st.sampled_from([a, b, c, d, BOT]),
    lambda sub: st.builds(Conj, sub, sub) | st.builds(Disj, sub, sub) | st.builds(Impl, sub, sub),
    max_leaves=8,
)
_signatures = st.lists(st.sampled_from([a, b, c]), max_size=3)  # duplicates included


@settings(max_examples=100, deadline=None)
@given(_signatures, st.integers(0, 3), st.lists(_formulas, max_size=2), _formulas)
def test_search_agrees_with_a_per_base_scan(atoms, max_rules, context, goal):
    want = _outcome(_reference_search, context, goal, atoms, max_rules)
    assert _outcome(search_counterexample, context, goal, atoms, max_rules) == want


_TAUTOLOGY = parse_formula("a | ~a")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([a, b, c, BOT]), max_size=3),
    st.integers(-2, 3),
    st.integers(0, 60),
    st.sampled_from([_TAUTOLOGY, parse_formula("a -> b"), BOT]),
)
def test_search_rejects_what_the_enumeration_rejects(atoms, max_rules, cap, goal):
    # a negative rule count, bottom in the signature and a cap below the
    # count raise as the enumeration does, in its order, whatever the goal
    want = _outcome(_reference_search, (), goal, atoms, max_rules, cap)
    assert _outcome(search_counterexample, (), goal, atoms, max_rules, cap) == want


def test_search_checks_its_arguments_before_any_evaluation():
    # not a generator: the call itself raises, even for a tautology
    with pytest.raises(BaseError, match="non-negative"):
        search_counterexample((), _TAUTOLOGY, [a, BOT], -1)
    with pytest.raises(BaseError, match="named atoms"):
        search_counterexample((), _TAUTOLOGY, [a, BOT], 1)
    with pytest.raises(EnumerationCapError):
        search_counterexample((), _TAUTOLOGY, [a, b, c], 3, cap=4886)
    assert search_counterexample((), _TAUTOLOGY, [a, b, c], 3, cap=32_000) is None


@pytest.mark.parametrize("call", [lambda base: models(base, (), a), base_valuation], ids=["models", "base_valuation"])
@pytest.mark.parametrize("base", [None, "-> a\n", frozenset()], ids=["None", "str", "frozenset"])
def test_a_base_that_is_no_atomic_base_is_refused(call, base):
    with pytest.raises(SemanticsError, match=f"base must be an AtomicBase, not {type(base).__name__}$"):
        call(base)


LEAF = parse_structure('(inf atm "a" (empty))')


@pytest.mark.parametrize("call, error, message", [
    (lambda: logical_consequence(3, a, [parse_base("-> a\n")]), SemanticsError,
     "context must be an iterable of formulas, not int"),
    (lambda: logical_consequence((), a, [parse_base("-> a\n"), "-> a\n"]), SemanticsError,
     "family must hold AtomicBases only, not str"),
    (lambda: logical_consequence((), a, [None]), SemanticsError, "family must hold AtomicBases only, not NoneType"),
    # an error the family's iterator raises itself comes through as it is, also before a first member
    (lambda: logical_consequence((), a, (x.foo for x in [1])), AttributeError, "'int' object has no attribute 'foo'"),
    (lambda: logical_consequence((), a, 3), SemanticsError, "family must be an iterable of AtomicBases, not int"),
    (lambda: models(parse_base("-> a\n"), 3, a), SemanticsError, "context must be an iterable of formulas, not int"),
    (lambda: search_counterexample(3, a, [a], 1), SemanticsError, "context must be an iterable of formulas, not int"),
    (lambda: classical_eval(a, [a]), SemanticsError, "valuation must be a mapping, not list"),
    (lambda: base_valuation(parse_base("-> a\n"), ["b"]), SemanticsError, "extra_atoms: an Atom expected, not str"),
    (lambda: base_valuation(parse_base("-> a\n"), 3), SemanticsError,
     "extra_atoms must be an iterable of Atoms, not int"),
    (lambda: negation([]), FormulaError, "f must be a Formula, not list"),
    # a structure reduces to itself in zero steps, which answered True before src was looked at
    (lambda: reduces(3, LEAF, LEAF, 1), JustificationError, "src must be a JustificationSet or RSystem, not int"),
    (lambda: graph_of(or_detour(), 3), JustificationError, "domain must be an iterable of structures, not int"),
    (lambda: choice_justification(a, 3), ValidityError, "family must be an iterable of AtomicBase, not int"),
    (lambda: choice_justification(a, [None]), ValidityError, "family must hold AtomicBase values only, not NoneType"),
], ids=["logical_consequence-context", "logical_consequence-family", "logical_consequence-family-None",
        "logical_consequence-family-iterator", "logical_consequence-family-int", "models-context",
        "search_counterexample-context", "classical_eval-valuation", "base_valuation-member", "base_valuation-int",
        "negation", "reduces-src", "graph_of-domain",
        "choice_justification-family", "choice_justification-family-None"])
def test_an_entry_refuses_bad_input_naming_the_argument(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_search_raises_where_the_scan_first_meets_a_non_formula():
    # a goal that fails on the empty closure before its metavariable is
    # reached: the scan stops there, as the per-base definition does
    goal = Conj(Impl(b, FVar("A")), a)
    assert _reference_search((), goal, [a, b], 1).id == "{}"
    assert search_counterexample((), goal, [a, b], 1).id == "{}"
    goal = Disj(Impl(b, FVar("A")), a)
    for search in (_reference_search, search_counterexample):
        with pytest.raises(SemanticsError, match="not a formula"):
            search((), goal, [a, b], 1)


def test_search_builds_no_rule_universe_unless_a_closure_fails(monkeypatch):
    # nor when one fails: the answer is the `-> x` axioms of the first
    # failing closure, handed that closure, with no rule chained
    universes, chained = [], []
    real_universe, real_forward = atomic_base.rule_universe, atomic_base._forward
    monkeypatch.setattr(atomic_base, "rule_universe", lambda atoms: universes.append(atoms) or real_universe(atoms))
    monkeypatch.setattr(atomic_base, "_forward", lambda *x: chained.append(x) or real_forward(*x))
    atoms = [Atom(n) for n in "abcdefghijkl"]  # 12 atoms: 53,248 rules in the universe
    assert search_counterexample((), parse_formula("a | ~a"), atoms, 1) is None
    assert search_counterexample((), parse_formula("a"), atoms[:3], 1).id == "{}"
    found = search_counterexample((), parse_formula("~(b & d)"), atoms, 2, cap=10**10)
    assert found.rules_text() == "{-> b; -> d}" and found._closure == {b, d}
    assert universes == [] and chained == []


def _false_exactly_at(closure, atoms):
    """A formula that fails on this closure and holds on every other one."""
    state = [x if x in closure else negation(x) for x in atoms]
    return negation(functools.reduce(Conj, state))


def _axioms_text(closure):
    return "{" + "; ".join(f"-> {x.name}" for x in sorted(closure, key=lambda x: x.name)) + "}"


def test_search_returns_the_axioms_of_the_first_failing_closure():
    atoms = [a, b, c, d]
    for size in range(3):
        for chosen in itertools.combinations(atoms, size):
            goal = _false_exactly_at(set(chosen), atoms)
            want = _outcome(_reference_search, (), goal, atoms, 2)
            assert _outcome(search_counterexample, (), goal, atoms, 2) == want
            assert want[0] == _axioms_text(chosen)


def test_search_takes_the_closure_first_in_signature_order():
    # false at {a, c} and at {b, d}: the signature's order picks one
    for atoms, first in (([a, b, c, d], {a, c}), ([d, c, b, a], {b, d})):
        goal = Conj(_false_exactly_at({a, c}, atoms), _false_exactly_at({b, d}, atoms))
        want = _outcome(_reference_search, (), goal, atoms, 2)
        assert _outcome(search_counterexample, (), goal, atoms, 2) == want
        assert want[0] == _axioms_text(first) and want[2] == first


def test_a_scan_draws_bases_only_up_to_the_first_failing_one():
    # over a generator, the bases after the first failing one are never
    # drawn, and every inconsistent base drawn warns, repeated closures too
    drawn = []

    def drawing(bases):
        for base in bases:
            drawn.append(base)
            yield base

    every = list(enumerate_bases([a, b], 2, consistent_only=False))
    inconsistent = [base for base in every if BOT in atomic_closure(base)]
    family = inconsistent + [base for base in every if BOT not in atomic_closure(base)]
    goal = parse_formula("~(a & b)")  # holds on each inconsistent closure
    first, want_warnings = _scan_with_warnings(_per_base, (), goal, family)
    verdict, got_warnings = _scan_with_warnings(logical_consequence, (), goal, drawing(family))
    assert verdict == base_semantics.ConsequenceVerdict(False, first.id)
    assert drawn[-1] is first and len(drawn) == [x is first for x in family].index(True) + 1 < len(family)
    assert got_warnings == want_warnings
    assert len(got_warnings) == len(inconsistent) > len({atomic_closure(base) for base in inconsistent})


def test_a_scan_reads_the_family_only_up_to_its_counterexample():
    # the family is read lazily: a member that is no base is refused where the
    # scan reaches it, and one after the failing base is never drawn
    fails = parse_base("-> b\n")
    verdict = base_semantics.ConsequenceVerdict(False, fails.id)
    assert logical_consequence((), a, [fails, "junk"]) == verdict
    with pytest.raises(SemanticsError, match="^family must hold AtomicBases only, not str$"):
        logical_consequence((), a, [parse_base("-> a\n"), "junk", fails])
    # a member that carries a closure of its own is no base either, where its closure is new
    with pytest.raises(SemanticsError, match="^family must hold AtomicBases only, not SimpleNamespace$"):
        logical_consequence((), a, [parse_base("-> a\n"), types.SimpleNamespace(_closure=frozenset(), id="fake")])
    drawn = []

    def family():
        for member in (parse_base("-> a\n"), fails, "junk", None):
            drawn.append(member)
            yield member

    members = family()
    assert logical_consequence((), a, members) == verdict
    assert drawn[-1] is fails and len(drawn) == 2 and next(members) == "junk"
