import copy
import itertools
import pickle
import random
import timeit
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import (
    Argument,
    Assumption,
    Atom,
    AtomicBase,
    BOT,
    Bounds,
    Conj,
    ConstantMap,
    Disj,
    EmptyTop,
    ExhaustedSearch,
    FailingInstance,
    FVar,
    Impl,
    InconsistentBaseError,
    Inf,
    JustificationSet,
    RSystem,
    StructureError,
    Verdict,
    axiom_structure,
    logical_consequence,
    analyze,
    apply_justification,
    atomic_derivation,
    atoms_of,
    canonical_key,
    choice_justification,
    conclusion_of,
    consequence,
    em_assertion_map,
    em_refutation_rule,
    em_witness,
    enumerate_bases,
    is_derivation_structure,
    is_schematic,
    models,
    negation,
    or_detour,
    parse_base,
    parse_formula,
    parse_rules,
    parse_structure,
    recheck_invalid,
    render_structure,
    structures_equal,
    synthesize_closed,
    valid,
)
from ptslab import argument, validity

from genlib import make_rng, random_formula

a, b, c, p, q, r, s = map(Atom, "abcpqrs")
EMPTY = AtomicBase(frozenset())
PQ = parse_base("-> p\np -> q\n")


# --- synthesis --------------------------------------------------------------


def test_synthesize_atoms_yield_derivations():
    d = synthesize_closed(PQ, q)
    assert is_derivation_structure(d, PQ)
    assert synthesize_closed(EMPTY, p) is None


def test_synthesizing_an_atom_walks_its_support_not_the_whole_base():
    # 1000 facts: the atom the base derives last is built as fast as the first
    base = parse_base("".join(f"-> a{i:04d}\n" for i in range(1000)))
    first, last = Atom("a0000"), Atom("a0999")
    assert [*base._derived][0] == first and [*base._derived][-1] == last
    best = [min(timeit.repeat(lambda x=x: synthesize_closed(base, x), number=200, repeat=5)) for x in (first, last)]
    assert best[1] <= 2 * best[0], best


def test_synthesize_matches_base_consequence():
    rng = make_rng(11)
    fam = list(enumerate_bases([a, b], 2))
    for base in fam[:30]:
        for _ in range(15):
            f = random_formula(rng, 3, atoms=[a, b])
            built = synthesize_closed(base, f)
            assert (built is not None) == models(base, (), f)
            if built is not None:
                info = analyze(built)
                assert info.closed and info.conclusion == f
                v = valid(Argument(built, JustificationSet()), base)
                assert v.is_valid, (base.id, str(f), v)


def _synthesize_closed_recursive(base, f):
    """synthesize_closed as it was written before its explicit stack: the reference."""
    counter = itertools.count(1)

    def derivation(x):  # read off the base's derived map, one tree node per use
        rule = base._derived[x]
        return Inf("atm", x, tuple(derivation(y) for y in rule.premises) or (EmptyTop(),))

    def go(g):
        match g:
            case Atom():
                return derivation(g) if g in base._derived else None
            case Conj(l, r):
                x, y = go(l), go(r)
                return Inf("andI", g, (x, y)) if x is not None and y is not None else None
            case Disj(l, r):
                x = go(l)
                if x is not None:
                    return Inf("orI1", g, (x,))
                y = go(r)
                return Inf("orI2", g, (y,)) if y is not None else None
            case Impl(l, r):
                y = go(r)
                if y is not None:
                    return Inf("impI", g, (y,))
                if go(l) is None:
                    n = next(counter)
                    body = Inf("step", r, (Assumption(l, n),))
                    return Inf("impI", g, (body,), frozenset({n}))
                return None
        raise validity.ValidityError(f"not a formula: {g!r}")

    return go(f)


FAMILY_AB = list(enumerate_bases([a, b], 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_synthesize_closed_agrees_with_the_recursive_reference(seed):
    # the repr shows the labels too, so the refutations must be numbered alike
    rng = random.Random(seed)
    base = rng.choice(FAMILY_AB)
    f = random_formula(rng, rng.randint(1, 5))
    assert repr(synthesize_closed(base, f)) == repr(_synthesize_closed_recursive(base, f))


def test_synthesize_closed_on_a_formula_deeper_than_the_recursion_limit():
    f = a
    for _ in range(2000):
        f = negation(f)
    base = parse_base("-> a")
    built = synthesize_closed(base, f)
    assert built is not None and analyze(built).closed and analyze(built).conclusion == f
    assert valid(Argument(built, JustificationSet()), base).is_valid
    assert synthesize_closed(base, negation(f)) is None
    with pytest.raises(validity.ValidityError, match="not a formula"):
        synthesize_closed(base, Conj(a, FVar("A")))


# --- the witness table -------------------------------------------------------

WITNESS_FORMULAS = [
    parse_formula(t) for t in ("a & ~b", "~~a", "((a -> b) -> a) -> a", "(a | _|_) & (b -> _|_)", "_|_ -> a & b")
]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_shared_search_builds_what_a_fresh_synthesis_builds(seed):
    # one search for every base and formula, so most keys are met again on other bases
    rng = random.Random(seed)
    formulas = WITNESS_FORMULAS + [random_formula(rng, rng.randint(1, 5), atoms=[a, b]) for _ in range(3)]
    search = validity._Search(Bounds())
    for base in FAMILY_AB:
        for f in formulas:
            assert repr(search.closed(base, f)) == repr(synthesize_closed(base, f))


def test_the_witness_table_keeps_bases_with_different_supports_apart():
    search = validity._Search(Bounds())
    chained = search.closed(parse_base("-> a\na -> b\n"), b)
    direct = search.closed(parse_base("-> b\n"), b)
    assert chained != direct
    assert repr(chained) == repr(synthesize_closed(parse_base("-> a\na -> b\n"), b))
    assert repr(direct) == repr(synthesize_closed(parse_base("-> b\n"), b))
    # a rule outside the support leaves the key alone
    assert search.closed(parse_base("-> b\n-> a\n"), b) is direct


def test_one_consequence_call_builds_one_witness_per_support(monkeypatch):
    built, asked = [], []
    synthesize, closed = validity.synthesize_closed, validity._Search.closed

    def counted_synthesize(base, f):
        built.append((base, f))
        return synthesize(base, f)

    def counted_closed(search, base, f):
        asked.append((base, f))
        return closed(search, base, f)

    monkeypatch.setattr(validity, "synthesize_closed", counted_synthesize)
    monkeypatch.setattr(validity._Search, "closed", counted_closed)
    goal = Disj(Conj(a, b), negation(Conj(a, b)))
    assert consequence("delta-star", (), goal, FAMILY_AB).is_valid

    def support(base, f):
        return f, tuple(atomic_derivation(base, (), x) for x in sorted(atoms_of(f), key=lambda x: x.name))

    supports = {support(base, f) for base, f in asked}
    assert len(built) == len(supports) < len(asked)
    # the next call reads the shared search's witnesses, and a cold search builds them again
    built.clear()
    assert consequence("delta-star", (), goal, FAMILY_AB).is_valid
    assert built == []
    validity._shared.clear()
    assert consequence("delta-star", (), goal, FAMILY_AB).is_valid
    assert len(built) == len(supports)


def test_the_witness_table_still_refuses_a_formula_variable():
    search = validity._Search(Bounds())
    for _ in range(2):  # a failed build keeps no entry
        with pytest.raises(validity.ValidityError, match="not a formula"):
            search.closed(PQ, FVar("A"))
    with pytest.raises(validity.ValidityError, match="not a formula"):
        search.closed(PQ, Conj(p, FVar("A")))


# --- closed arguments -------------------------------------------------------


def test_closed_atomic_derivation_is_valid():
    d = synthesize_closed(PQ, q)
    v = valid(Argument(d, JustificationSet()), PQ)
    assert v.is_valid


def test_closed_atomic_exhaustion_is_invalid_with_witness():
    d = Inf("atm", p, (EmptyTop(),))
    v = valid(Argument(d, JustificationSet()), EMPTY)
    assert v.is_invalid
    assert isinstance(v.witness, ExhaustedSearch)
    assert recheck_invalid(Argument(d, JustificationSet()), EMPTY, Bounds(), v)


def test_closed_bottom_argument_invalid_on_consistent_base():
    d = Inf("boom", BOT, (Inf("atm", p, (EmptyTop(),)),))
    v = valid(Argument(d, JustificationSet()), PQ)
    assert v.is_invalid


def test_closed_nonatomic_needs_canonical_reduct():
    ax = axiom_structure(Disj(p, negation(p)))
    v = valid(Argument(ax, JustificationSet()), PQ)
    assert v.is_invalid  # no steps, the axiom is not canonical
    v = valid(Argument(ax, JustificationSet((em_refutation_rule(),))), PQ)
    assert v.is_invalid  # p holds here, so the refutation arm cannot close
    v = valid(Argument(ax, JustificationSet((em_refutation_rule(),))), EMPTY)
    assert v.is_valid


def test_unknown_on_bound_hit():
    # r never becomes derivable and the reducts keep growing, so the
    # bounded search cannot conclude either way
    grow = parse_rules('grow: (inf g "r" ?D) => (inf g "r" (inf g "r" ?D))').members[0]
    d = Inf("g", r, (Assumption(p),))
    v = valid(Argument(d, JustificationSet((grow,))), PQ, Bounds(max_reduction_steps=3))
    assert v.is_unknown


# --- open arguments ---------------------------------------------------------


def test_vacuous_refutation_argument():
    refute = Inf("step", BOT, (Assumption(a),))
    v = valid(Argument(refute, JustificationSet()), EMPTY)
    assert v.is_valid and "vacuous" in v.reason


def test_assumption_leaf_is_valid_open_argument():
    v = valid(Argument(Assumption(p), JustificationSet()), PQ)
    assert v.is_valid


def test_open_invalid_carries_recheckable_instance():
    # q follows from p on PQ, but this structure steps to r which never obtains
    d = Inf("bad", r, (Assumption(p),))
    arg = Argument(d, JustificationSet())
    v = valid(arg, PQ)
    assert v.is_invalid
    assert isinstance(v.witness, FailingInstance)
    assert recheck_invalid(arg, PQ, Bounds(), v)


def test_recheck_refuses_an_extension_index_outside_the_step_sources():
    # a negative index took a step source from the end, one past it raised IndexError
    arg = Argument(Inf("bad", r, (Assumption(p),)), JustificationSet())
    v = valid(arg, PQ)
    w = v.witness
    assert w.extension_index == 0
    for index, rechecks in [(0, True), (-1, False), (3, False)]:
        moved = Verdict.invalid(v.reason, FailingInstance(w.sigma, index, w.inner))
        assert recheck_invalid(arg, PQ, Bounds(), moved) is rechecks


def test_open_argument_user_pool():
    d = Inf("use", q, (Assumption(p),))
    chain = parse_rules(
        'collapse: (inf use "q" (?D :concludes "p")) => (inf atm "q" ?D)'
    )
    v = valid(Argument(d, chain), PQ)
    assert v.is_valid
    # an extra pool candidate only adds obligations, and they hold here too
    stray = Inf("cls", p, (EmptyTop(),))
    v = valid(Argument(d, chain), PQ, Bounds(sigma_candidates=(stray,)))
    assert v.is_valid


def test_extension_pool_strengthens_the_requirement():
    # extending the steps can only add obligations: a substitution that is
    # valid only under the extension must still keep the instance valid; the
    # steps and the extension are rules, or reduction pairs
    base = parse_base("-> c\n")
    d = Inf("use", r, (Assumption(c),))
    derivation = Inf("atm", c, (EmptyTop(),))
    boxed = Inf("boxed", c, (derivation,))
    unbox_rule = parse_rules("unbox: (inf boxed \"c\" ?D) => ?D")
    for arg, unbox in ((Argument(d, JustificationSet()), unbox_rule),
                       (Argument(d, RSystem()), RSystem(((boxed, derivation),)))):
        plain = Bounds(synthesize_sigma=False, sigma_candidates=(boxed,))
        v_plain = valid(arg, base, plain)
        assert v_plain.is_valid and "vacuous" in v_plain.reason
        extended = Bounds(
            synthesize_sigma=False, sigma_candidates=(boxed,), extensions=(unbox,)
        )
        v_ext = valid(arg, base, extended)
        assert v_ext.is_invalid
        assert isinstance(v_ext.witness, FailingInstance)
        assert v_ext.witness.extension_index == 1
        assert recheck_invalid(arg, base, extended, v_ext)


# --- excluded-middle witnesses ----------------------------------------------


def test_em_witness_arms():
    w = em_witness(EMPTY, p)
    assert w.steps.members[0].name == "em_refute"
    assert valid(w, EMPTY).is_valid

    base = parse_base("-> p\n")
    w = em_witness(base, p)
    assert w.steps.members[0].name.startswith("em_assert")
    assert valid(w, base).is_valid
    assert not is_schematic(w.steps.members[0])


def test_em_witness_rejects_inconsistent_base():
    with pytest.raises(InconsistentBaseError):
        em_witness(parse_base("-> bot\n"), p)


def test_em_witness_graph_mode():
    base = parse_base("-> p\n")
    w = em_witness(base, p, mode="graph")
    assert isinstance(w.steps, RSystem) and len(w.steps) == 1
    frm, to = w.steps.pairs[0]
    assert structures_equal(frm, axiom_structure(Disj(p, negation(p))))
    assert valid(w, base).is_valid
    # the pair is the graph of the chosen device
    j = em_assertion_map(base, p)
    assert structures_equal(to, apply_justification(j, frm))


def test_em_family_recheck():
    fam = list(enumerate_bases([a, b], 2))[:50]
    for base in fam:
        w = em_witness(base, a)
        assert valid(w, base, Bounds(max_reduction_steps=10)).is_valid, base.id


def test_choice_justification_selects_per_base():
    fam = [EMPTY, parse_base("-> a\n")]
    ch = choice_justification(a, fam)
    assert not is_schematic(ch)
    g = Disj(a, negation(a))
    for base in fam:
        v = valid(Argument(axiom_structure(g), JustificationSet((ch,))), base)
        assert v.is_valid, base.id
    assert ch.selection(axiom_structure(g), EMPTY).members[0].name == "em_refute"


# --- the worked case-analysis argument --------------------------------------


def _case_argument():
    d2 = Inf("atm", c, (Assumption(a, 1),))
    d3 = Inf("atm", c, (Assumption(b, 2),))
    d = Inf("orE", c, (Assumption(Disj(a, b)), d2, d3), frozenset({1, 2}))
    return Argument(d, JustificationSet((or_detour(),)))


def test_case_analysis_valid_on_three_bases():
    bases = [
        parse_base("-> a\na -> c\nb -> c\n"),
        parse_base("-> b\na -> c\nb -> c\n"),
        parse_base("-> a\n-> b\na -> c\nb -> c\n"),
    ]
    assert len({x.id for x in bases}) == 3
    for base in bases:
        assert valid(_case_argument(), base).is_valid, base.id


def test_case_analysis_graph_agrees_with_functions():
    # replacing the justification set by its one-step graph over the
    # reachable set preserves the closed verdict
    base = parse_base("-> a\na -> c\nb -> c\n")
    arg = _case_argument()
    sigma = {Disj(a, b): synthesize_closed(base, Disj(a, b))}
    from ptslab import instantiate
    from ptslab.justification import reach

    closed = instantiate(arg.structure, sigma)
    reached, _ = reach(arg.steps, closed, base, max_steps=10, max_size=400)
    pairs = []
    for d, _depth in reached.values():
        from ptslab.justification import step_candidates

        for nxt in step_candidates(arg.steps, d, base).values():
            pairs.append((d, nxt))
    graph = RSystem(tuple(pairs))
    v_fun = valid(Argument(closed, arg.steps), base)
    v_gra = valid(Argument(closed, graph), base)
    assert v_fun.status == v_gra.status == "valid"


# --- consequence variants ---------------------------------------------------


def test_consequence_em_all_variants():
    fam = list(enumerate_bases([a], 1))
    g = Disj(a, negation(a))
    assert consequence("delta", (), g, fam).is_valid
    assert consequence("delta-star", (), g, fam).is_valid
    assert consequence("delta-sh", (), g, fam).is_valid
    v = consequence("delta-s", (), g, fam)
    assert v.is_unknown and "schematic" in v.reason


def test_consequence_schematic_succeeds_on_refutation_only_family():
    fam = [EMPTY, parse_base("b -> a\n")]  # a fails on both
    g = Disj(a, negation(a))
    assert consequence("delta-s", (), g, fam).is_valid


FAMILY_AB = list(enumerate_bases([a, b], 2))
IDENTITY_GOALS = [((), "a | ~a"), ((), "a"), ((), "a -> b"), (("a",), "a | b"), ((), "a | b")]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_verdicts_ignore_base_ids_and_family_order(data):
    fam = data.draw(st.lists(st.sampled_from(FAMILY_AB), min_size=1, max_size=8))
    ctx, goal = data.draw(st.sampled_from(IDENTITY_GOALS))
    ctx, goal = [parse_formula(f) for f in ctx], parse_formula(goal)
    names = data.draw(st.lists(st.sampled_from("xyz"), min_size=len(fam), max_size=len(fam)))
    renamed = data.draw(st.permutations([AtomicBase(x.rules, id=n) for x, n in zip(fam, names)]))
    assert logical_consequence(ctx, goal, fam).holds == logical_consequence(ctx, goal, renamed).holds
    for variant in ("delta", "delta-star", "delta-sh", "delta-s"):
        want = consequence(variant, ctx, goal, fam).status
        assert consequence(variant, ctx, goal, renamed).status == want, variant


def test_consequence_definite_failure():
    v = consequence("delta", (), p, [PQ, EMPTY])
    assert v.is_invalid and v.witness == "{}"
    v2 = consequence("delta-sh", (), p, [PQ, EMPTY])
    assert v2.is_invalid


def test_consequence_with_context():
    fam = list(enumerate_bases([p, q], 1))
    assert consequence("delta", [p], p, fam).is_valid
    assert consequence("delta", [p, Impl(p, q)], q, fam).is_valid
    assert consequence("delta-star", [p], p, fam).is_valid
    assert consequence("delta-sh", [p], p, fam).is_valid


def test_consequence_user_candidate(monkeypatch):
    fam = [EMPTY, parse_base("b -> a\n")]
    g = Disj(a, negation(a))
    cand = Argument(axiom_structure(g), JustificationSet((em_refutation_rule(),)))
    v = consequence("delta-star", (), g, fam, candidates=[cand])
    assert v.is_valid
    # delta builds no witness on a base where a candidate is valid
    monkeypatch.setattr(validity, "_delta_witness", None)
    v = consequence("delta", (), g, fam, candidates=[cand])
    assert v.is_valid and v.reason == "per-base witnesses verified on all 2 base(s)"


# em_refute refutes a on the bases that do not derive it, em_affirm asserts it
# on those that do; with em_b the assertion also derives b. All three pass
# is_schematic, so delta-s takes the pair as a candidate.
EM_AFFIRM = parse_rules(
    'em_affirm: (inf ax "?A | ~?A" (empty)) => (inf orI1 "?A | ~?A" (inf atm "?A" (empty)))'
)
EM_B = parse_rules(
    'em_b: (inf ax "?A | ~?A" (empty)) => (inf orI1 "?A | ~?A" (inf atm "?A" (inf atm "b" (empty))))'
)
EM_PAIR = JustificationSet((em_refutation_rule(),)) | EM_AFFIRM


def test_delta_s_takes_schematic_candidates():
    g = Disj(a, negation(a))
    assert all(is_schematic(j) for j in (EM_PAIR | EM_B).members)
    pair = Argument(axiom_structure(g), EM_PAIR)
    v = consequence("delta-s", (), g, enumerate_bases([a], 1), candidates=[pair])
    assert v.is_valid and "all 4 base(s)" in v.reason
    # over two atoms the pair fails on one base only: there a is derived from b
    fam = list(enumerate_bases([a, b], 2))
    assert [x.id for x in fam if not valid(pair, x).is_valid] == ["{b -> a; -> b}"]
    v = consequence("delta-s", (), g, fam, candidates=[pair])
    assert v.is_unknown and v.reason == "no schematic witness found"
    with_b = Argument(axiom_structure(g), EM_PAIR | EM_B)
    v = consequence("delta-s", (), g, fam, candidates=[with_b])
    assert v.is_valid and "all 65 base(s)" in v.reason


@pytest.mark.parametrize("variant", ["delta-star", "delta-sh"])
def test_a_pooled_candidate_cut_by_the_bound_is_unknown(variant):
    fam = enumerate_bases([a], 1)
    v = consequence(variant, (), Disj(a, negation(a)), fam, Bounds(max_reduction_steps=0))
    assert v.is_unknown and v.reason == "uniform witness checks hit bounds"


def test_a_lone_justification_is_a_set_of_one():
    d = axiom_structure(Disj(a, negation(a)))
    rule = em_refutation_rule()
    fam = list(enumerate_bases([a], 1))
    verdicts = [valid(Argument(d, rule), x) for x in fam]
    assert verdicts == [valid(Argument(d, JustificationSet((rule,))), x) for x in fam]
    assert {v.status for v in verdicts} == {"valid", "invalid"}


IDENT_A = parse_structure('(inf impI "a -> a" (assume "a" :label 1) :discharge (1))')
BARE_OR_SET = pytest.mark.parametrize(
    "steps", [or_detour(), JustificationSet((or_detour(),))], ids=["bare", "set"]
)


@BARE_OR_SET
def test_delta_s_pools_a_lone_justification_as_a_set_of_one(steps):
    fam = list(enumerate_bases([a], 1))
    cand = Argument(IDENT_A, steps)
    assert all(valid(cand, x).is_valid for x in fam)
    v = consequence("delta-s", (), Impl(a, a), fam, candidates=[cand])
    assert v.is_valid and "all 4 base(s)" in v.reason


@BARE_OR_SET
def test_delta_star_pools_a_lone_justification_as_a_set_of_one(monkeypatch, steps):
    fam = list(enumerate_bases([a], 1))
    cand = Argument(IDENT_A, steps)
    checked = []
    real = validity.valid
    monkeypatch.setattr(validity, "valid", lambda arg, *rest, **kw: checked.append(arg) or real(arg, *rest, **kw))
    assert consequence("delta-star", (), Impl(a, a), fam, candidates=[cand]).is_valid
    # the candidate decides before the pooled witness is tried, on each class of bases with
    # equal live rules: {} with {a -> a} and {a -> _|_}, whose rules are dead, and {-> a}
    assert checked == [cand] * len(list(validity._representatives(fam))) == [cand] * 2


def test_consequence_unknown_variant_rejected():
    with pytest.raises(Exception):
        consequence("nope", (), p, [PQ])


# --- verdict monotonicity ---------------------------------------------------


def test_bound_monotonicity_spot():
    rng = make_rng(12)
    fam = list(enumerate_bases([a, b], 2))
    steps_options = [
        JustificationSet(),
        JustificationSet((or_detour(),)),
        JustificationSet((or_detour(), em_refutation_rule())),
    ]
    flips = []
    for i in range(120):
        base = rng.choice(fam)
        f = random_formula(rng, 2, atoms=[a, b])
        kind = rng.random()
        if kind < 0.4:
            d = axiom_structure(Disj(f, negation(f)))
        elif kind < 0.7:
            built = synthesize_closed(base, f)
            d = built if built is not None else Inf("step", f, (Assumption(c),))
        else:
            d = Inf("step", f, (Assumption(rng.choice([a, b, c])),))
        steps = rng.choice(steps_options)
        k = rng.randint(1, 4)
        v1 = valid(Argument(d, steps), base, Bounds(max_reduction_steps=k))
        v2 = valid(Argument(d, steps), base, Bounds(max_reduction_steps=2 * k))
        if {v1.status, v2.status} == {"valid", "invalid"}:
            flips.append((base.id, v1.status, v2.status))
    assert not flips


def test_enlarging_the_numeric_bounds_never_flips_a_verdict():
    # both numeric bounds only cut a search short, pools or not: enlarging them can
    # resolve Unknown, but never turns Valid and Invalid into each other
    rng = make_rng(21)
    fam = list(enumerate_bases([a, b], 2))
    steps_options = [JustificationSet(), JustificationSet((or_detour(),)), JustificationSet((em_refutation_rule(),))]
    flips, resolved = [], 0
    for _ in range(120):
        base = rng.choice(fam)
        f = random_formula(rng, 2, atoms=[a, b])
        if rng.random() < 0.5:
            d = axiom_structure(Disj(f, negation(f)))
        else:
            d = Inf("step", f, (Assumption(rng.choice([a, b, Disj(a, b)])),))
        pool = [synthesize_closed(base, g) for g in (a, b, Disj(a, b), random_formula(rng, 2, atoms=[a, b]))]
        pool = tuple(x for x in pool if x is not None and rng.random() < 0.5)
        arg, k, n = Argument(d, rng.choice(steps_options)), rng.randint(0, 3), rng.choice([2, 4, 8])
        v1 = valid(arg, base, Bounds(max_reduction_steps=k, max_structure_size=n, sigma_candidates=pool))
        v2 = valid(arg, base, Bounds(max_reduction_steps=2 * k + 1, max_structure_size=4 * n, sigma_candidates=pool))
        if {v1.status, v2.status} == {"valid", "invalid"}:
            flips.append((base.id, render_structure(d), v1.status, v2.status))
        resolved += v1.status == "unknown" != v2.status
    assert not flips and resolved > 0


def test_enlarging_the_pool_can_flip_valid_to_invalid():
    # a pool-relative Valid holds for the pool it names: a further candidate that is itself
    # valid can refute it, on cold searches and on the held ones in either order
    steps = parse_rules('r: (inf step "b" (inf orI1 "a | a" ?D)) => (inf atm "b" (empty))\n')
    base = parse_base("-> a\n-> b\n")
    arg = Argument(parse_structure('(inf step "b" (assume "a | a"))'), steps)
    candidate = parse_structure('(inf orI2 "a | a" (inf atm "a" (empty)))')
    assert valid(Argument(candidate, JustificationSet()), base).is_valid
    both = (Bounds(), Bounds(sigma_candidates=(candidate,)))
    cold = []
    for bounds in both:
        validity._shared.clear()
        cold.append(valid(arg, base, bounds))
    assert [v.status for v in cold] == ["valid", "invalid"] and cold[0].reason.startswith("pool-relative")
    assert recheck_invalid(arg, base, both[1], cold[1])
    for order in ((0, 1), (1, 0)):
        validity._shared.clear()
        warm = {i: valid(arg, base, both[i]) for i in order}
        assert [repr(warm[i]) for i in (0, 1)] == list(map(repr, cold))


def test_delta_holds_on_fifty_base_family():
    fam = list(enumerate_bases([a, b], 2))[:50]
    v = consequence("delta", (), Disj(a, negation(a)), fam)
    assert v.is_valid


def test_choice_justification_reads_rules_not_ids():
    derives_a, empty = parse_base("-> a\n", id="x"), AtomicBase(frozenset(), id="x")
    ch = choice_justification(a, [derives_a, empty])
    ax = axiom_structure(Disj(a, negation(a)))
    assert ch.selection(ax, empty).members[0].name == "em_refute"
    assert ch.selection(ax, derives_a).members[0].name.startswith("em_assert")


def test_step_sources_hash_by_content():
    fam = [EMPTY, parse_base("-> a\n")]
    steps = JustificationSet((choice_justification(a, fam),))
    again = JustificationSet((choice_justification(a, [AtomicBase(x.rules, id="other") for x in fam]),))
    assert steps == again and hash(steps) == hash(again)
    graph = em_witness(PQ, p, mode="graph").steps
    assert hash(graph) == hash(em_witness(PQ, p, mode="graph").steps)


def test_step_sources_compare_as_sets_of_entries():
    fam = [EMPTY, parse_base("-> a\n")]
    ch, rev = choice_justification(a, fam), choice_justification(a, fam[::-1])
    assert ch == rev and hash(ch) == hash(rev)
    assert len(JustificationSet((ch,)) | JustificationSet((rev,))) == 1
    target = synthesize_closed(PQ, q)
    pairs = tuple((Inf(tag, q, (target,)), target) for tag in ("f", "g"))
    for make in (lambda ps: ConstantMap("t", ps), RSystem):
        one, two = make(pairs), make(pairs[::-1])
        assert one == two and hash(one) == hash(two)
        assert one != make(pairs[:1])
    # entries are compared by the class keys of their keys and images: relabelled ones are the same entry
    lam = Inf("impI", Impl(q, q), (Assumption(q, 1),), frozenset({1}))
    key = Inf("f", Impl(q, q), (lam,))
    moved = argument.relabel(key, {1: 5}), argument.relabel(lam, {1: 7})
    assert all(argument.render_structure(x) != argument.render_structure(y) for x, y in zip(moved, (key, lam)))
    for make in (lambda ps: ConstantMap("t", ps), RSystem):
        one, two = make(((key, lam),)), make((moved,))
        assert one == two and hash(one) == hash(two)
        assert one != make(((Inf("g", Impl(q, q), (lam,)), lam),))  # a key of another class
        assert one != make(((key, key),))  # an image of another class


def test_choice_selection_arms():
    fam = [EMPTY, parse_base("-> a\n")]
    ch = choice_justification(a, fam)
    ax = axiom_structure(Disj(a, negation(a)))
    assert ch.selection(ax, EMPTY).members[0].name == "em_refute"
    assert ch.selection(ax, parse_base("-> a\n")).members[0].name.startswith("em_assert")


def test_extension_kind_must_match_steps():
    d = Inf("use", q, (Assumption(p),))
    rpairs = RSystem()
    with pytest.raises(Exception, match="same kind"):
        valid(Argument(d, rpairs), PQ, Bounds(extensions=(JustificationSet(),)))


def test_valid_is_deterministic_and_label_invariant():
    from ptslab.argument import relabel

    rng = make_rng(22)
    fam = list(enumerate_bases([a, b], 2))
    steps = JustificationSet((or_detour(), em_refutation_rule()))
    for _ in range(60):
        base = rng.choice(fam)
        d2 = Inf("atm", c, (Assumption(a, 1),))
        d3 = Inf("atm", c, (Assumption(b, 2),))
        d = Inf("orE", c, (Assumption(Disj(a, b)), d2, d3), frozenset({1, 2}))
        v1 = valid(Argument(d, steps), base)
        v2 = valid(Argument(d, steps), base)
        v3 = valid(Argument(relabel(d, {1: 7, 2: 5}), steps), base)
        assert v1.status == v2.status == v3.status


def test_refutation_argument_fails_where_the_atom_holds():
    # the one-step refutation of a is vacuously valid only while no closed
    # valid argument for a exists; a base deriving a defeats it
    refute = Inf("step", BOT, (Assumption(a),))
    arg = Argument(refute, JustificationSet())
    assert valid(arg, EMPTY).is_valid
    base = parse_base("-> a\n")
    v = valid(arg, base)
    assert v.is_invalid
    assert isinstance(v.witness, FailingInstance)


def test_consequence_tolerates_duplicate_family_entries():
    fam = [EMPTY, parse_base("-> a\n"), EMPTY, parse_base("-> a\n")]
    g = Disj(a, negation(a))
    assert consequence("delta-star", (), g, fam).is_valid
    assert consequence("delta-sh", (), g, fam).is_valid


def test_delta_star_key_computations_grow_linearly(monkeypatch):
    # one pooled table per base: the dispatch index must keep delta-star's
    # canonical-key work linear in the family (quadrupling it, not 16x)
    from ptslab import argument, justification, validity

    calls = [0]
    key = argument.canonical_key

    def counted(d):
        calls[0] += 1
        return key(d)

    for module in (argument, justification, validity):
        monkeypatch.setattr(module, "canonical_key", counted)
    fam = sorted(enumerate_bases([a, b], 2), key=lambda base: base.id)
    assert len(fam) == 65
    counts = {}
    for k in (16, 65):
        calls[0] = 0
        assert consequence("delta-star", [], Disj(a, negation(a)), fam[:k]).is_valid
        counts[k] = calls[0]
    assert counts[65] <= 8 * counts[16], counts


def test_the_checker_counts_no_open_assumptions_but_still_checks_its_inputs(monkeypatch):
    from ptslab import argument, justification, validity

    def refused(d):
        raise AssertionError("analyze builds a Counter no internal caller needs")

    for module in (argument, justification, validity):
        if hasattr(module, "analyze"):
            monkeypatch.setattr(module, "analyze", refused)
    d = Inf("use", q, (Assumption(p),))
    chain = parse_rules('collapse: (inf use "q" (?D :concludes "p")) => (inf atm "q" ?D)')
    stray = Inf("cls", p, (EmptyTop(),))
    assert valid(Argument(d, chain), PQ, Bounds(sigma_candidates=(stray,))).is_valid
    fam = enumerate_bases([a], 1)
    for variant in ("delta", "delta-star", "delta-sh", "delta-s"):
        consequence(variant, (a,), Disj(a, b), fam)
    # a sigma candidate and a structure argument are checked all the same
    stray_label = Inf("cls", p, (Assumption(p, 3),))
    with pytest.raises(StructureError, match="label 3 on assumption p has 0"):
        valid(Argument(d, chain), PQ, Bounds(sigma_candidates=(stray_label,)))
    with pytest.raises(StructureError, match="label 3 on assumption p has 0"):
        valid(Argument(stray_label, chain), PQ)
    with pytest.raises(StructureError, match="cannot stand alone"):
        valid(Argument(EmptyTop(), chain), PQ)


# --- deep structures and witness text -----------------------------------------


def test_a_derivation_deeper_than_the_recursion_limit_is_valid():
    d = EmptyTop()
    for _ in range(3000):
        d = Inf("atm", a, (d,))
    base = parse_base("-> a\na -> a\n")
    assert is_derivation_structure(d, base)
    assert valid(Argument(d, JustificationSet()), base).is_valid
    # and the same depth over an open assumption leaf, checked without recursion
    der = Assumption(a)
    for _ in range(3000):
        der = Inf("atm", a, (der,))
    assert is_derivation_structure(der, base, frozenset({a})) and not is_derivation_structure(der, base)
    # and synthesized from a 3000-rule chain base
    chain = _chain_base(2999)
    d = EmptyTop()
    for i in range(3000):
        d = Inf("atm", Atom(f"p{i}"), (d,))
    assert synthesize_closed(chain, Atom("p2999")) == d


def test_bounds_must_be_integers():
    for bad in ({"max_reduction_steps": 2.5}, {"max_reduction_steps": True}, {"max_structure_size": None},
                {"max_structure_size": "400"}):
        with pytest.raises(validity.ValidityError, match="bounds must be integers"):
            Bounds(**bad)
    with pytest.raises(validity.ValidityError, match="bounds must be non-negative"):
        Bounds(max_reduction_steps=-1)
    assert Bounds(max_reduction_steps=0, max_structure_size=0).max_structure_size == 0


AX_A = axiom_structure(a)


@pytest.mark.parametrize("kwargs, message", [
    ({"sigma_candidates": 3}, "sigma_candidates must be an iterable of ArgStructure, not int"),
    ({"sigma_candidates": [AX_A, a]}, "sigma_candidates must hold ArgStructure values only, not Atom"),
    ({"sigma_candidates": "ab"}, "sigma_candidates must hold ArgStructure values only, not str"),
    ({"extensions": None}, "extensions must be an iterable of JustificationSet or RSystem, not NoneType"),
    ({"extensions": [1]}, "extensions must hold JustificationSet or RSystem values only, not int"),
    ({"extensions": [or_detour()]},
     "extensions must hold JustificationSet or RSystem values only, not SchematicRewrite"),
], ids=["candidates-int", "candidate-formula", "candidates-str", "extensions-None", "extension-int", "extension-rule"])
def test_bounds_refuse_a_malformed_pool_by_name(kwargs, message):
    with pytest.raises(validity.ValidityError, match=f"^{message}$"):
        Bounds(**kwargs)


def test_bounds_are_a_value():
    # the pools are held as tuples, so bounds built from lists are equal to, and hash as, those built from tuples
    ext = JustificationSet((or_detour(),))
    listed = Bounds(sigma_candidates=[AX_A], extensions=[ext])
    assert listed.sigma_candidates == (AX_A,) and listed.extensions == (ext,)
    assert listed == Bounds(sigma_candidates=(AX_A,), extensions=(ext,))
    assert hash(listed) == hash(Bounds(sigma_candidates=iter([AX_A]), extensions=(ext,)))
    assert Bounds(extensions=[RSystem(((AX_A, AX_A),))]).extensions[0].__class__ is RSystem


EXHAUSTED_A = Argument(axiom_structure(Disj(a, negation(a))), JustificationSet((em_refutation_rule(),)))
INVALID_ON_A = valid(EXHAUSTED_A, parse_base("-> a\n"))


@pytest.mark.parametrize("call, args, message", [
    (valid, (None, PQ), "arg must be an Argument, not NoneType"),
    (valid, (EXHAUSTED_A, None), "base must be an AtomicBase, not NoneType"),
    (valid, (EXHAUSTED_A, "x"), "base must be an AtomicBase, not str"),
    (valid, (EXHAUSTED_A, PQ, None), "bounds must be a Bounds, not NoneType"),
    (valid, (EXHAUSTED_A, PQ, 3), "bounds must be a Bounds, not int"),
    (recheck_invalid, (None, PQ, Bounds(), INVALID_ON_A), "arg must be an Argument, not NoneType"),
    (recheck_invalid, (EXHAUSTED_A, "x", Bounds(), INVALID_ON_A), "base must be an AtomicBase, not str"),
    (recheck_invalid, (EXHAUSTED_A, PQ, None, INVALID_ON_A), "bounds must be a Bounds, not NoneType"),
    (recheck_invalid, (EXHAUSTED_A, PQ, Bounds(), None), "verdict must be a Verdict, not NoneType"),
    (synthesize_closed, (None, a), "base must be an AtomicBase, not NoneType"),
    (synthesize_closed, ("-> a\n", a), "base must be an AtomicBase, not str"),
    (em_assertion_map, (None, a), "base must be an AtomicBase, not NoneType"),
    (em_witness, (None, a), "base must be an AtomicBase, not NoneType"),
    (em_witness, (frozenset(), a, "graph"), "base must be an AtomicBase, not frozenset"),
], ids=["valid-arg-None", "valid-base-None", "valid-base-str", "valid-bounds-None", "valid-bounds-int",
        "recheck-arg-None", "recheck-base-str", "recheck-bounds-None", "recheck-verdict-None",
        "synthesize-base-None", "synthesize-base-str", "em-assertion-base-None", "em-witness-base-None",
        "em-witness-base-frozenset"])
def test_valid_and_recheck_invalid_refuse_a_malformed_argument_by_name(call, args, message):
    with pytest.raises(validity.ValidityError, match=f"^{message}$"):
        call(*args)


def _chain_base(n):
    """-> p0 and p_i -> p_{i+1} for i < n: p_n's derivation is n + 1 deep."""
    return parse_base("-> p0\n" + "".join(f"p{i} -> p{i + 1}\n" for i in range(n)))


def _shared_base(n):
    """-> x0, x_i -> y_i and x_i y_i -> x_{i+1} for i < n: x_i is a premise
    twice over in x_{i+1}'s derivation, whose tree doubles with each i."""
    return parse_base("-> x0\n" + "".join(f"x{i} -> y{i}\nx{i} y{i} -> x{i + 1}\n" for i in range(n)))


def test_a_derivation_longer_than_the_recursion_limit_is_synthesized_and_valid():
    chain, goal = _chain_base(1500), Atom("p1500")
    d = synthesize_closed(chain, goal)
    assert d is not None and argument.size_of(d) == 1502 and is_derivation_structure(d, chain)
    assert valid(Argument(d, JustificationSet()), chain).is_valid
    der = atomic_derivation(chain, (), goal)
    assert der == d and hash(der) == hash(d) and is_derivation_structure(der, chain)
    # from p0, whose leaf is an open assumption where the rule -> p0 stood
    der = atomic_derivation(chain, {Atom("p0")}, goal)
    assert argument.size_of(der) == 1501 and der != d and is_derivation_structure(der, chain, frozenset({Atom("p0")}))
    bounds = Bounds(max_structure_size=2000)  # the pooled variants' witnesses hold the whole derivation
    for variant in ("delta", "delta-star", "delta-sh"):
        assert consequence(variant, (), goal, [chain], bounds).is_valid, variant


def _distinct_nodes(d):
    seen, stack = set(), [d]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, "children", ()))
    return len(seen)


def test_a_shared_premise_is_built_once():
    n = 12
    base, goal = _shared_base(n), Atom(f"x{n}")
    d = synthesize_closed(base, goal)
    assert _distinct_nodes(d) <= 2 * n + 2 and argument.size_of(d) == 2 ** (n + 2) - 2
    assert is_derivation_structure(d, base) and valid(Argument(d, JustificationSet()), base).is_valid
    der = atomic_derivation(base, (), goal)
    assert _distinct_nodes(der) <= 2 * n + 2 and der == d and is_derivation_structure(der, base)  # atoms and (empty)
    # a tree of 2^42 nodes, checked once per distinct node, hashed and compared by its class key
    assert consequence("delta", (), Atom("x40"), [_shared_base(40)]).is_valid
    big = _shared_base(40)
    der = atomic_derivation(big, (), Atom("x40"))
    assert hash(der) == hash(synthesize_closed(big, Atom("x40"))) and der == synthesize_closed(big, Atom("x40"))


def test_a_shared_premise_stays_shared_in_a_pickle_or_a_copy():
    # a node is written once, not once per tree position: this tree has 2^42 - 2 positions
    base = _shared_base(40)
    d = atomic_derivation(base, (), Atom("x40"))
    assert len(pickle.dumps(d)) < 20_000
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        assert min(timeit.repeat(lambda: copy_of(d), number=1, repeat=3)) < 0.01
        copied = copy_of(d)
        assert copied == d and is_derivation_structure(copied, base)
        assert copied.children[0] is copied.children[1].children[0]


def test_an_argument_holds_a_step_source():
    # a step source that is none was once taken, and a closed derivation checked Valid with it
    d = parse_structure('(inf atm "a" (empty))')
    with pytest.raises(validity.ValidityError, match="steps"):
        Argument(d, "junk")
    rule = or_detour()
    assert Argument(d, rule).steps == JustificationSet((rule,))
    assert valid(Argument(d, rule), parse_base("-> a")).is_valid


def test_an_invalid_verdict_writes_its_witness_text_when_read(monkeypatch):
    written = []
    real = argument.render_structure
    monkeypatch.setattr(argument, "render_structure", lambda *args: written.append(args[0]) or real(*args))
    arg = Argument(parse_structure('(inf atm "p" (empty))'), JustificationSet((or_detour(),)))
    v = valid(arg, parse_base("-> a\n"))
    assert v.is_invalid and isinstance(v.witness, ExhaustedSearch) and written == []
    assert v.witness.max_steps == 10 and written == []
    assert v.witness.explored == ('(inf atm "p" (empty))',) and len(written) == 2  # start and explored
    assert v.witness.start == '(inf atm "p" (empty))' and len(written) == 2
    assert v.witness == ExhaustedSearch('(inf atm "p" (empty))', ('(inf atm "p" (empty))',), 10)
    assert repr(v.witness) == repr(ExhaustedSearch(v.witness.start, v.witness.explored, 10))


DETOUR_ON_C = parse_structure(
    '(inf orE "c" (inf orI1 "a | b" (inf atm "a" (empty)))'
    ' (inf atm "c" (assume "a" :label 1)) (inf atm "c" (assume "b" :label 2)) :discharge (1 2))'
)


def test_rechecking_a_checker_witness_writes_no_key_text(monkeypatch):
    written = []
    real = argument.render_structure
    monkeypatch.setattr(argument, "render_structure", lambda *args: written.append(args[0]) or real(*args))
    arg, base = Argument(DETOUR_ON_C, JustificationSet((or_detour(),))), parse_base("-> a\n")
    v = valid(arg, base)
    assert v.is_invalid and isinstance(v.witness, ExhaustedSearch)
    assert recheck_invalid(arg, base, Bounds(), v) and written == []
    assert len(v.witness.explored) == 2 and len(written) == 3  # start and explored, written when read


def test_a_witness_built_from_texts_rechecks_by_its_texts():
    arg, base = Argument(DETOUR_ON_C, JustificationSet((or_detour(),))), parse_base("-> a\n")
    w = valid(arg, base).witness
    same = ExhaustedSearch(w.start, w.explored, w.max_steps)
    assert recheck_invalid(arg, base, Bounds(), Verdict.invalid("rebuilt", same))
    dropped = ExhaustedSearch(w.start, w.explored[1:], w.max_steps)
    assert not recheck_invalid(arg, base, Bounds(), Verdict.invalid("one reduct short", dropped))


def test_a_witness_of_another_start_or_step_cap_does_not_recheck():
    other = Inf("atm", b, (EmptyTop(),))
    leaf = Argument(Inf("atm", a, (EmptyTop(),)), JustificationSet((or_detour(),)))
    detour = Argument(DETOUR_ON_C, JustificationSet((or_detour(),)))
    for arg, base in ((leaf, parse_base("-> b\n")), (detour, parse_base("-> a\n"))):
        v = valid(arg, base)
        w = v.witness
        start, explored = w._structures
        same = ExhaustedSearch(w.start, w.explored, w.max_steps)
        assert recheck_invalid(arg, base, Bounds(), v)
        assert recheck_invalid(arg, base, Bounds(), Verdict.invalid(v.reason, same))
        # from texts, as a caller builds a witness, and from structures, as the checker does
        forged = [ExhaustedSearch(w.start, w.explored, 99), ExhaustedSearch._of(start, explored, 99)]
        for s in (other, explored[-1]):  # a start outside the explored reducts, and one of them
            if s != start:
                forged += [
                    ExhaustedSearch(canonical_key(s), w.explored, w.max_steps),
                    ExhaustedSearch(canonical_key(s), w.explored, 99),
                    ExhaustedSearch._of(s, explored, w.max_steps),
                ]
        assert len(forged) == (5 if arg is leaf else 8)
        for bad in forged:
            assert not recheck_invalid(arg, base, Bounds(), Verdict.invalid(v.reason, bad)), bad


# --- an Invalid part decides its loop -----------------------------------------


def _nested_detour(x, y, depth, labels):
    """An or-detour on x nested depth deep over a derivation leaf for x; it
    takes depth or_detour steps to reduce."""
    d = Inf("atm", x, (EmptyTop(),))
    for _ in range(depth):
        l1, l2 = next(labels), next(labels)
        major = Inf("orI1", Disj(x, y), (d,))
        side = Inf("k", x, (Assumption(y, l2),))
        d = Inf("orE", x, (major, Assumption(x, l1), side), frozenset({l1, l2}))
    return d


# c & (a -> b) on the base -> b: c has no derivation, and a -> b is Unknown
# at bound 10, since its only pool member for a needs 11 steps to reduce
REFUTED_C = Inf("atm", c, (EmptyTop(),))
REFUTED_IMP = Inf("impI", Impl(a, b), (Inf("step", b, (Assumption(a, 1),)),), frozenset({1}))
REFUTED_POOL = (_nested_detour(a, b, 11, itertools.count(10)),)


@pytest.mark.parametrize("swap", [False, True])
def test_an_invalid_substructure_refutes_its_reduct(swap):
    kids = (REFUTED_IMP, REFUTED_C) if swap else (REFUTED_C, REFUTED_IMP)
    d = Inf("andI", Conj(conclusion_of(kids[0]), conclusion_of(kids[1])), kids)
    arg, base = Argument(d, JustificationSet((or_detour(),))), parse_base("-> b\n")
    for steps in (10, 12):  # the check-every loops said Unknown at 10
        bounds = Bounds(max_reduction_steps=steps, sigma_candidates=REFUTED_POOL)
        imp = valid(Argument(REFUTED_IMP, arg.steps), base, bounds)
        assert imp.status == ("unknown" if steps == 10 else "valid")
        v = valid(arg, base, bounds)
        assert v.is_invalid and isinstance(v.witness, ExhaustedSearch)
        assert v.reason == "search exhausted: no canonical reduct with valid substructures among 1 reduct(s)"
        assert recheck_invalid(arg, base, bounds, v)


def test_a_refuted_pool_member_no_longer_taints_an_open_argument():
    # the structure above as the only pool member for its conclusion: it is
    # Invalid now, so the open argument is vacuously valid at both bounds
    # (the check-every loops said Unknown at 10, the member being Unknown)
    d = Inf("andI", Conj(c, Impl(a, b)), (REFUTED_C, REFUTED_IMP))
    arg = Argument(Assumption(conclusion_of(d)), JustificationSet((or_detour(),)))
    for steps in (10, 12):
        bounds = Bounds(max_reduction_steps=steps, sigma_candidates=(d,) + REFUTED_POOL)
        v = valid(arg, parse_base("-> b\n"), bounds)
        assert v.is_valid and v.reason.startswith("vacuous")


class _CheckEveryChecker(validity._Checker):
    """The checker's loops as they were before an Invalid part stopped them:
    every immediate substructure of a canonical reduct and every member of a
    substitution is checked, and an Unknown one leaves the verdict Unknown
    even beside an Invalid one."""

    def _closed(self, d, steps, atomic):
        stream = self.search.stream(steps, d, self.base)
        saw_unknown = False
        for r, depth in stream:
            if atomic:
                if is_derivation_structure(r, self.base):
                    return Verdict.valid(f"reduces to a derivation on the base in {depth} step(s)")
                continue
            subs = self.search.canonical_subs(r)
            if subs is None:
                continue
            sub_verdicts = [self.check(s, steps) for s in subs]
            if all(v.is_valid for v in sub_verdicts):
                return Verdict.valid(f"canonical reduct at depth {depth} with valid immediate substructures")
            if any(v.is_unknown for v in sub_verdicts):
                saw_unknown = True
        if saw_unknown or stream.bound:
            return Verdict.unknown("reduction bound hit before a qualifying reduct was found")
        return Verdict.invalid("search exhausted")

    def _open(self, d, steps, assumptions):
        extensions = self._extensions_for(steps)
        pools = {f: self._sigma_candidates(f) for f in assumptions}
        tainted, checked = False, 0
        for ext in extensions:
            for combo in itertools.product(*(pools[f] for f in assumptions)):
                member_verdicts = [self.check(s, ext) for s in combo]
                if any(v.is_invalid for v in member_verdicts):
                    continue
                if any(v.is_unknown for v in member_verdicts):
                    tainted = True
                    continue
                v = self.check(validity.instantiate(d, dict(zip(assumptions, combo))), ext)
                if v.is_invalid:
                    return Verdict.invalid("a valid substitution instance fails")
                if v.is_unknown:
                    tainted = True
                else:
                    checked += 1
        if tainted:
            return Verdict.unknown("some pool instantiation hit a bound")
        if checked == 0:
            names = ", ".join(validity.render_formula(f) for f in assumptions)
            return Verdict.valid(f"vacuous: the pool offers no valid closed argument for {names}")
        return Verdict.valid(
            f"pool-relative: {checked} substitution(s) over {len(extensions)} step source(s) hold"
        )


REFUTE_RULES = ("-> a", "-> b", "-> c", "a -> b", "b -> c", "c -> a")
REFUTE_STEPS = JustificationSet((or_detour(), em_refutation_rule()))


def _random_piece(rng, labels, depth):
    """A closed structure over a, b and c built from derivation leaves,
    nested or-detours, excluded-middle axioms, and introductions of a
    conjunction, an implication over an open step, and a disjunction."""
    x, y = rng.sample([a, b, c], 2)
    kind = rng.choice((0, 1, 2, 3, 3, 3, 3, 3, 4, 5) if depth else (0, 0, 1, 2, 4, 4))
    if kind == 0:
        return Inf("atm", x, (EmptyTop(),))
    if kind == 1:
        return _nested_detour(x, y, rng.randint(1, 4), labels)
    if kind == 2:
        return axiom_structure(Disj(x, negation(x)))
    if kind == 3:
        left, right = _random_piece(rng, labels, depth - 1), _random_piece(rng, labels, depth - 1)
        return Inf("andI", Conj(conclusion_of(left), conclusion_of(right)), (left, right))
    if kind == 4:
        n = next(labels)
        return Inf("impI", Impl(y, x), (Inf("step", x, (Assumption(y, n),)),), frozenset({n}))
    inner = _random_piece(rng, labels, depth - 1)
    return Inf("orI1", Disj(conclusion_of(inner), x), (inner,))


def _random_refutation_case(rng):
    """An argument, a base and bounds whose pool holds atomic structures only,
    so a pool member's verdict is the same under either loop."""
    labels = itertools.count(1)
    if rng.random() < 0.2:
        x, y = rng.sample([a, b, c], 2)
        d = Inf("use", x, (Assumption(y),))
    else:
        d = _random_piece(rng, labels, rng.randint(1, 2))
    base = parse_base("".join(line + "\n" for line in REFUTE_RULES if rng.random() < 0.4))
    pool = tuple(_nested_detour(x, a if x != a else b, rng.randint(1, 5), labels) for x in (a, b, c) if rng.random() < 0.6)
    return Argument(d, REFUTE_STEPS), base, Bounds(max_reduction_steps=rng.randint(0, 4), sigma_candidates=pool)


def _both_loops(seed):
    arg, base, bounds = _random_refutation_case(random.Random(seed))
    got = valid(arg, base, bounds)
    want = _CheckEveryChecker(base, validity._Search(bounds)).check(arg.structure, arg.steps)
    return arg, base, bounds, got, want


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_an_invalid_part_changes_only_unknowns_to_invalid(seed):
    arg, base, bounds, got, want = _both_loops(seed)
    if want.is_invalid or (want.is_unknown and got.is_invalid):
        assert got.is_invalid and recheck_invalid(arg, base, bounds, got)
    else:
        assert (got.status, got.reason) == (want.status, want.reason)
    more = Bounds(max_reduction_steps=bounds.max_reduction_steps + 2, sigma_candidates=bounds.sigma_candidates)
    assert {got.status, valid(arg, base, more).status} != {"valid", "invalid"}


def test_the_refutation_cases_reach_every_outcome():
    # the property above is only as good as the verdict pairs its inputs reach
    seen = Counter()
    for seed in range(150):
        _arg, _base, _bounds, got, want = _both_loops(seed)
        seen[(want.status, got.status)] += 1
    assert set(seen) == {("valid", "valid"), ("invalid", "invalid"), ("unknown", "unknown"), ("unknown", "invalid")}, seen


def test_a_candidate_falls_at_its_first_invalid_base():
    # the user candidate, an argument for a from a, is Invalid on -> a (its
    # instance over the derivation of a reduces to no derivation of a, since
    # the base has no rule a -> a) and Unknown on -> b (its one pool member for
    # a needs 11 steps); the pooled candidate is Invalid on -> a, where the
    # pool member `other` makes an instance that no pooled entry rewrites
    other = Inf("other", a, (EmptyTop(),))
    cand = Argument(Inf("step", a, (Assumption(a),)), JustificationSet((or_detour(),)))
    fam = [parse_base("-> a\n"), parse_base("-> b\n")]
    bounds = Bounds(sigma_candidates=REFUTED_POOL + (other,))
    assert [valid(cand, base, bounds).status for base in fam] == ["invalid", "unknown"]
    v = consequence("delta-star", [a], a, fam, bounds, candidates=[cand])
    assert v.is_unknown and v.reason == "no uniform witness found in pool"
