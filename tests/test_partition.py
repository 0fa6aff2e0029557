"""A family is checked once per class of bases: bases with equal live rules
(AtomicBase._live, the rules whose premises the base derives) answer every
read of a check alike, so `consequence` makes each check on the first base
of each class, and a check whose steps hold a choice function on every base.

The per-base `consequence` this replaced is kept below as the reference: the
property compares the two on shuffled slices of enumerated families, and
mutants keyed by a coarser fact than the live rules fail it."""

import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import (
    Argument,
    Atom,
    AtomicBase,
    Bounds,
    ConstantMap,
    Disj,
    Impl,
    JustificationSet,
    RSystem,
    ValidityError,
    axiom_structure,
    choice_justification,
    conclusion_of,
    consequence,
    em_refutation_rule,
    enumerate_bases,
    is_derivation_structure,
    is_schematic,
    logical_consequence,
    models,
    negation,
    or_detour,
    parse_base,
    parse_rules,
    parse_structure,
)
from ptslab import validity
from ptslab.validity import (
    CONSEQUENCE_VARIANTS,
    Verdict,
    _delta_witness,
    _meet,
    _projection_rule,
    _Search,
    _uniform_instances,
    _uniform_structure,
    render_formula,
    valid,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")
EM_A = Disj(a, negation(a))
FAM_AB = list(enumerate_bases([a, b], 2))
FAM_ABC = list(enumerate_bases([a, b, c], 2))

# ---------------------------------------------------------------------------
# the reference: consequence as it was before the grouping, one check per base


def _reference_consequence(variant, context, goal, family, bounds=Bounds(), candidates=()):
    if variant not in CONSEQUENCE_VARIANTS:
        raise ValidityError(f"unknown variant {variant!r}; pick one of {CONSEQUENCE_VARIANTS}")
    context = sorted(set(context), key=render_formula)
    family = list(dict.fromkeys(family))
    candidates = list(candidates)
    if not family:
        return Verdict.unknown("empty family")

    failing = logical_consequence(context, goal, family).counterexample
    if failing is not None:
        return Verdict.invalid(f"the goal does not follow from the context on {failing}", witness=failing)

    search = _Search(bounds)
    if variant == "delta":
        no_steps = JustificationSet()
        projection = JustificationSet((_projection_rule(len(context)),)) if context else no_steps
        for b in family:
            if any(valid(cand, b, bounds, _search=search).is_valid for cand in candidates):
                continue
            v = valid(_delta_witness(search, b, context, goal, no_steps, projection), b, bounds, _search=search)
            if not v.is_valid:
                return Verdict.unknown(f"constructed witness did not verify on {b.id}: {v.reason}")
        return Verdict.valid(f"per-base witnesses verified on all {len(family)} base(s)")

    if variant != "delta-s":
        d = _uniform_structure(context, goal)
        per_base = _uniform_instances(search, d, context, goal, family)
    if variant == "delta-star":
        maps = tuple(ConstantMap(f"pooled[{b.rules_text()}]", ((inst, target),)) for b, inst, target in per_base)
        pool = [cand for cand in candidates if isinstance(cand.steps, JustificationSet)]
        pool.append(Argument(d, JustificationSet(maps)))
        label = "pooled per-base justification sets"
    elif variant == "delta-sh":
        pairs = tuple((inst, target) for _b, inst, target in per_base)
        pool = [cand for cand in candidates if isinstance(cand.steps, RSystem)]
        pool.append(Argument(d, RSystem(pairs)))
        label = "pooled per-base reduction pairs"
    else:
        pool = [
            cand
            for cand in candidates
            if isinstance(src := cand.steps, JustificationSet) and all(is_schematic(j) for j in src.members)
        ]
        if isinstance(goal, Disj) and goal.right == negation(goal.left) and not context:
            pool.append(Argument(axiom_structure(goal), JustificationSet((em_refutation_rule(),))))
        label = "schematic candidates only (rewrite-rule schematicity test)"

    saw_unknown = False
    for cand in pool:
        status = _meet(valid(cand, b, bounds, _search=search) for b in family)
        if status == "valid":
            return Verdict.valid(f"uniform witness valid on all {len(family)} base(s); {label}")
        if status == "unknown":
            saw_unknown = True
    if variant == "delta-s":
        return Verdict.unknown("no schematic witness found")
    if saw_unknown:
        return Verdict.unknown("uniform witness checks hit bounds")
    return Verdict.unknown("no uniform witness found in pool")


# ---------------------------------------------------------------------------
# candidates that read the base through atomic inferences, and through the
# base itself


def _arg(text, steps=JustificationSet()):
    return Argument(parse_structure(text), steps)


ATM_A_TWICE = '(inf atm "a" (inf atm "a" (empty)))'  # a by -> a, then a again by a -> a
ATM_B_FROM_A = '(inf atm "b" (inf atm "a" (empty)))'  # b by a -> b
EM_IMAGE = f'(inf orI1 "a | ~a" {ATM_A_TWICE})'
ATM_REWRITE = parse_rules(
    'atm_em: (inf ax "?A | ~?A" (empty)) => (inf orI1 "?A | ~?A" (inf atm "?A" (empty)))'
).members[0]
CHOOSE_A = choice_justification(a, enumerate_bases([a], 1))

CANDIDATES = [
    _arg(ATM_A_TWICE),
    _arg(ATM_B_FROM_A),
    Argument(axiom_structure(EM_A), ConstantMap("atm_map", ((axiom_structure(EM_A), parse_structure(EM_IMAGE)),))),
    Argument(axiom_structure(EM_A), RSystem(((axiom_structure(EM_A), parse_structure(EM_IMAGE)),))),
    Argument(axiom_structure(EM_A), JustificationSet((ATM_REWRITE,))),  # its template builds atm a
    Argument(axiom_structure(EM_A), JustificationSet((CHOOSE_A, or_detour()))),
]
CHOICE_EXTENSION = Bounds(extensions=(JustificationSet((CHOOSE_A,)),))

GOALS = [
    ((), EM_A),
    ((), a),
    ((), b),
    ((), Impl(a, a)),
    ((a,), Disj(a, b)),
    ((a, Impl(a, b)), b),
]


def _outcome(check, *args, **kwargs):
    try:
        return repr(check(*args, **kwargs))
    except Exception as e:  # the type and message are what is compared
        return f"{type(e).__name__}: {e}"


def _agrees(variant, context, goal, family, bounds, candidates) -> bool:
    got = _outcome(consequence, variant, context, goal, family, bounds, candidates)
    return got == _outcome(_reference_consequence, variant, context, goal, family, bounds, candidates)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(CONSEQUENCE_VARIANTS),
    st.sampled_from(GOALS),
    st.sampled_from([FAM_AB, FAM_ABC]),
    st.randoms(use_true_random=False),
    st.integers(1, 40),
    st.booleans(),
    st.lists(st.sampled_from(range(len(CANDIDATES))), max_size=3, unique=True),
    st.booleans(),
)
def test_the_classes_give_the_per_base_verdict(variant, goal, family, rng, size, holding, chosen, extended):
    context, goal = goal
    if holding:  # a slice of the bases where the goal follows, so that checks run
        family = [x for x in family if models(x, context, goal)]
    family = rng.sample(family, min(size, len(family)))
    candidates = [CANDIDATES[i] for i in chosen if conclusion_of(CANDIDATES[i].structure) == goal]
    bounds = CHOICE_EXTENSION if extended else Bounds()
    assert _agrees(variant, context, goal, family, bounds, candidates)


@pytest.mark.parametrize("variant", CONSEQUENCE_VARIANTS)
@pytest.mark.parametrize("family", [FAM_AB, list(reversed(FAM_AB))], ids=["enumerated", "reversed"])
def test_the_classes_give_the_per_base_verdict_on_the_whole_family(variant, family):
    for context, goal in GOALS:
        candidates = [cand for cand in CANDIDATES if conclusion_of(cand.structure) == goal]
        for bounds in (Bounds(), CHOICE_EXTENSION):
            assert _agrees(variant, context, goal, family, bounds, candidates)


class _InOrder:
    """A stand-in for the property's random source that keeps the family's order."""

    def sample(self, xs, k):
        return xs[:k]


# bases with one closure and one support that differ in a live rule: -> b derives b on both,
# but a derivation of b from a by a -> b holds on the first only
MUTANT_FAMILY = [parse_base("-> a\n-> b\na -> b\n"), parse_base("-> a\n-> b\n")]


@pytest.mark.parametrize("key", [
    lambda x: frozenset(x._support.items()),
    lambda x: x._closure,
], ids=["support", "closure"])
def test_a_coarser_key_than_the_live_rules_fails_the_property(monkeypatch, key):
    (cand,) = [cand for cand in CANDIDATES if cand.structure == parse_structure(ATM_B_FROM_A)]
    first, second = MUTANT_FAMILY
    assert first._support == second._support and first._closure == second._closure
    assert first._live != second._live
    prop = test_the_classes_give_the_per_base_verdict.hypothesis.inner_test
    example = ("delta-s", ((), b), MUTANT_FAMILY, _InOrder(), 2, True, [CANDIDATES.index(cand)], False)
    prop(*example)
    monkeypatch.setattr(AtomicBase, "_live", property(key))
    with pytest.raises(AssertionError):
        prop(*example)
    assert consequence("delta-s", (), b, MUTANT_FAMILY, candidates=[cand]).is_valid  # the wrong verdict


def test_the_live_rules_determine_what_a_base_derives():
    classes: dict = {}
    family = list(enumerate_bases([a, b, c], 3))
    assert len(family) == 4887
    for x in family:
        first = classes.setdefault(x._live, x)
        assert (x._derived, x._support, x._closure) == (first._derived, first._support, first._closure)
    assert len(classes) == 89


def test_a_derivation_holds_on_a_base_iff_it_holds_on_its_live_rules():
    derivations = [parse_structure(t) for t in (ATM_A_TWICE, ATM_B_FROM_A, '(inf atm "a" (empty))',
                                                 '(inf atm "c" (inf atm "a" (empty)) (inf atm "b" (empty)))')]
    for x in FAM_ABC:
        live = AtomicBase(x._live)
        assert [is_derivation_structure(d, x) for d in derivations] == [
            is_derivation_structure(d, live) for d in derivations]


# ---------------------------------------------------------------------------
# the classes are built only for a call that checks, once, and reasons still
# speak of every base


def _count_groupings(monkeypatch) -> list:
    grouped = []
    real = validity._representatives
    monkeypatch.setattr(validity, "_representatives", lambda family: grouped.append(len(family)) or real(family))
    return grouped


def test_a_call_that_checks_nothing_groups_nothing(monkeypatch):
    grouped = _count_groupings(monkeypatch)
    for variant in CONSEQUENCE_VARIANTS:
        assert consequence(variant, (), a, FAM_AB).is_invalid  # the goal fails on a base
    assert consequence("delta-s", (), Impl(a, a), FAM_AB).is_unknown  # an empty pool
    assert grouped == []
    for variant in ("delta", "delta-star", "delta-sh"):
        consequence(variant, (), Impl(a, a), FAM_AB)
    assert grouped == [65, 65, 65]


def test_a_choice_candidate_is_checked_on_every_base(monkeypatch):
    checked = []
    real = validity.valid
    monkeypatch.setattr(validity, "valid", lambda arg, base, *rest, **kw: checked.append((arg, base)) or real(
        arg, base, *rest, **kw))
    cand = CANDIDATES[-1]
    assert consequence("delta", (), EM_A, FAM_AB, candidates=[cand]).is_valid
    assert [x for arg, x in checked if arg is cand] == FAM_AB
    # delta-star tries it base by base up to the first where it is Invalid, one outside its table
    checked.clear()
    assert consequence("delta-star", (), EM_A, FAM_AB, candidates=[cand]).is_valid
    tried = [x for arg, x in checked if arg is cand]
    assert tried == FAM_AB[: len(tried)] and len(tried) > len(list(validity._representatives(tried)))


def test_a_choice_extension_makes_every_check_per_base(monkeypatch):
    checked = []
    real = validity.valid
    monkeypatch.setattr(validity, "valid", lambda arg, base, *rest, **kw: checked.append(base) or real(
        arg, base, *rest, **kw))
    assert consequence("delta", (a,), Disj(a, b), FAM_AB, CHOICE_EXTENSION).is_valid
    assert checked == FAM_AB
    checked.clear()
    assert consequence("delta", (a,), Disj(a, b), FAM_AB).is_valid
    assert checked == list(validity._representatives(FAM_AB))


def _warned(check, *args) -> list[tuple[str, str]]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert check(*args).is_valid
    return [(Path(w.filename).name, str(w.message)) for w in caught]


def test_delta_warns_once_per_class_of_inconsistent_bases():
    # two inconsistent bases with equal live rules: logical_consequence warns on each, and
    # delta's witness step, which evaluates the context on the first base of each class, on
    # the first only, where the per-base loop warned on both
    family = [parse_base("-> _|_\n"), parse_base("-> _|_\nb -> a\n"), parse_base("-> a\n")]
    assert family[0]._live == family[1]._live
    first, second = (f"evaluating on inconsistent base {x.id}" for x in family[:2])
    semantics = [("base_semantics.py", first), ("base_semantics.py", second)]
    assert _warned(consequence, "delta", (a,), Disj(a, b), family) == semantics + [("validity.py", first)]
    assert _warned(_reference_consequence, "delta", (a,), Disj(a, b), family) == semantics + [
        ("validity.py", first), ("validity.py", second)]


# ---------------------------------------------------------------------------
# the input contract


@pytest.mark.parametrize("variant", CONSEQUENCE_VARIANTS)
@pytest.mark.parametrize("kwargs, message", [
    ({"family": [parse_base("-> a\n"), "-> a"]}, "family must hold AtomicBase values only, not str"),
    ({"family": None}, "family must be an iterable of AtomicBase, not NoneType"),
    ({"bounds": 3}, "bounds must be a Bounds, not int"),
    ({"candidates": [None]}, "candidates must hold Argument values only, not NoneType"),
    ({"candidates": None}, "candidates must be an iterable of Argument, not NoneType"),
    ({"context": None}, "context must be an iterable of Formula, not NoneType"),
    ({"context": [a, None]}, "context must hold Formula values only, not NoneType"),
    ({"context": ["a"]}, "context must hold Formula values only, not str"),
    ({"goal": None}, "goal must be a Formula, not NoneType"),
    ({"goal": "a | ~a"}, "goal must be a Formula, not str"),
], ids=["member", "family-None", "bounds", "candidate", "candidates-None", "context-None", "context-member",
        "context-str", "goal-None", "goal-str"])
def test_consequence_refuses_a_malformed_argument_by_name(variant, kwargs, message):
    args = {"context": (), "goal": EM_A, "family": FAM_AB, "bounds": Bounds(), "candidates": (), **kwargs}
    with pytest.raises(ValidityError, match=f"^{message}$"):
        consequence(variant, **args)


# a candidate for b, and one for a | ~a from a: each is refused where it would certify a | ~a
# from no assumptions, which it did on every base named here
FOR_B = Argument(parse_structure('(inf atm "b" (empty))'), JustificationSet())
FROM_A = Argument(parse_structure('(inf orI1 "a | ~a" (assume "a"))'), JustificationSet())


@pytest.mark.parametrize("variant", CONSEQUENCE_VARIANTS)
@pytest.mark.parametrize("cand, family, message", [
    (FOR_B, [parse_base("-> a\n-> b\n"), parse_base("-> b\n")], "candidate 0 argues for b from no assumptions"),
    (FROM_A, FAM_AB, "candidate 0 argues for a | ~a from a"),
], ids=["other-goal", "more-than-the-context"])
def test_consequence_refuses_a_candidate_that_argues_for_something_else(variant, cand, family, message):
    with pytest.raises(ValidityError, match=f"^candidates must argue for the goal from the context, but {message}$"):
        consequence(variant, (), EM_A, family, candidates=[cand])
    # the refusal names the candidate, and comes before any answer, even over an empty family
    with pytest.raises(ValidityError, match=message.replace("candidate 0", "candidate 1")):
        consequence(variant, (), EM_A, iter([]), candidates=[Argument(axiom_structure(EM_A), JustificationSet()), cand])


def test_consequence_takes_a_candidate_from_the_context_to_the_goal():
    # from a, a | b: an open assumption in the context, and a discharged one, are no refusal
    cand = Argument(parse_structure('(inf orI1 "a | b" (assume "a"))'), JustificationSet())
    assert consequence("delta-s", (a,), Disj(a, b), FAM_AB, candidates=[cand]).is_valid
    impl = Argument(parse_structure('(inf impI "a -> a" (assume "a" :label 1) :discharge (1))'), JustificationSet())
    assert consequence("delta-s", (), Impl(a, a), FAM_AB, candidates=[impl]).is_valid


def test_a_shuffled_family_keeps_its_verdicts():
    rng = random.Random(3)
    family = FAM_ABC[:]
    rng.shuffle(family)
    candidates = [cand for cand in CANDIDATES if conclusion_of(cand.structure) == EM_A]
    for variant in CONSEQUENCE_VARIANTS:
        for bounds in (Bounds(), CHOICE_EXTENSION):
            assert _agrees(variant, (), EM_A, family[:120], bounds, candidates)
