from collections import Counter

import pytest

from ptslab import (
    Assumption,
    AssumptionEscape,
    Atom,
    BOT,
    ConclusionMismatch,
    Conj,
    Disj,
    EmptyTop,
    Impl,
    Inf,
    StructureError,
    analyze,
    canonical_key,
    check_structure,
    immediate_substructures,
    instantiate,
    is_canonical,
    negation,
    parse_formula,
    parse_structure,
    positions,
    render_structure,
    structures_equal,
    substitute,
    subtree_at,
)
from ptslab.argument import cut_subtree, freshen, labels_of, relabel

from genlib import make_rng, random_open_structure, random_sigma

a, b, c, p = Atom("a"), Atom("b"), Atom("c"), Atom("p")


def _case_analysis():
    # assume a|b, close each case by an inference to c
    d2 = Inf("atm", c, (Assumption(a, 1),))
    d3 = Inf("atm", c, (Assumption(b, 2),))
    return Inf("orE", c, (Assumption(Disj(a, b)), d2, d3), frozenset({1, 2}))


def test_analyze_single_assumption():
    info = analyze(Assumption(a))
    assert info.conclusion == a
    assert info.open_assumptions == Counter({a: 1})
    assert not info.closed


def test_analyze_negation_intro_closed():
    body = Inf("step", BOT, (Assumption(a, 1),))
    d = Inf("impI", negation(a), (body,), frozenset({1}))
    info = analyze(d)
    assert info.conclusion == negation(a)
    assert info.closed


def test_analyze_case_structure_open_major():
    info = analyze(_case_analysis())
    assert info.open_assumptions == Counter({Disj(a, b): 1})


def test_dangling_label_is_malformed():
    with pytest.raises(StructureError, match="label"):
        check_structure(Assumption(a, 7))
    with pytest.raises(StructureError):
        analyze(Inf("t", b, (Assumption(a, 1),)))  # nobody discharges 1


def test_double_discharge_is_malformed():
    inner = Inf("t", b, (Assumption(a, 1),), frozenset({1}))
    outer = Inf("t", c, (inner,), frozenset({1}))
    with pytest.raises(StructureError):
        check_structure(outer)


def test_empty_node_cannot_stand_alone():
    with pytest.raises(StructureError):
        analyze(EmptyTop())


def test_instantiate_identity_on_closed():
    body = Inf("step", BOT, (Assumption(a, 1),))
    d = Inf("impI", negation(a), (body,), frozenset({1}))
    assert instantiate(d, {}) == d


def test_instantiate_missing_mapping():
    with pytest.raises(StructureError, match="no instance"):
        instantiate(Assumption(a), {})


def test_instantiate_conclusion_check():
    with pytest.raises(StructureError, match="concludes"):
        instantiate(Assumption(a), {a: Inf("cls", b, (EmptyTop(),))})


def test_instantiate_opens_are_union_of_image_opens():
    rng = make_rng(5)
    for _ in range(100):
        d = random_open_structure(rng, parse_formula("a & b"), 3)
        info = analyze(d)
        sigma = {
            f: random_open_structure(rng, f, 2) for f in info.open_assumptions
        }
        inst = instantiate(d, sigma)
        expected = Counter()
        for f, n in info.open_assumptions.items():
            image_opens = analyze(sigma[f]).open_assumptions
            for g, m in image_opens.items():
                expected[g] += n * m
        assert analyze(inst).open_assumptions == expected


def test_instantiate_composition():
    d = Assumption(a)
    tau = {a: Inf("mk", a, (Assumption(b),))}
    sigma = {b: Inf("cls", b, (EmptyTop(),))}
    composed = {a: instantiate(tau[a], sigma)}
    assert structures_equal(
        instantiate(instantiate(d, tau), sigma), instantiate(d, composed)
    )


def test_substitute_whole_structure():
    d = _case_analysis()
    repl = Inf("other", c, (Assumption(Disj(a, b)),))
    assert substitute(d, (), repl) == repl


def test_substitute_checks_conclusion():
    d = _case_analysis()
    with pytest.raises(ConclusionMismatch):
        substitute(d, (), Assumption(b))


def test_substitute_checks_assumption_escape():
    d = _case_analysis()
    with pytest.raises(AssumptionEscape):
        substitute(d, (), Inf("other", c, (Assumption(p),)))


def test_substitute_rebinds_context_discharge():
    d = _case_analysis()
    # replace case branch 2 by a different inference from the same assumption
    repl = Inf("alt", c, (Assumption(a),))
    out = substitute(d, (1,), repl)
    info = analyze(out)
    assert info.open_assumptions == Counter({Disj(a, b): 1})  # a is recaptured
    assert isinstance(out, Inf) and out.children[1].tag == "alt"


def test_substitute_freshens_against_capture():
    d = _case_analysis()
    # replacement internally uses label 1; grafting must not collide with
    # the context's label 1
    body = Inf("step", BOT, (Assumption(c, 1),))
    repl = Inf("impI2", c, (Inf("wrap", c, (Inf("impI", negation(c), (body,), frozenset({1})),)),))
    out = substitute(d, (1,), repl)
    check_structure(out)


def test_substitute_disjoint_positions_commute():
    for _ in range(60):
        d = _case_analysis()
        r1 = Inf("alt1", c, (Assumption(a),))
        r2 = Inf("alt2", c, (Assumption(b),))
        one = substitute(substitute(d, (1,), r1), (2,), r2)
        two = substitute(substitute(d, (2,), r2), (1,), r1)
        assert structures_equal(one, two)


def test_substitute_never_enlarges_open_set():
    rng = make_rng(7)
    for _ in range(100):
        d = random_open_structure(rng, parse_formula("a | b"), 3)
        pos = rng.choice(positions(d))
        target, _ = cut_subtree(d, pos)
        repl_source = target  # relabel to force freshening paths
        out = substitute(d, pos, repl_source)
        assert set(analyze(out).open_assumptions) <= set(analyze(d).open_assumptions)
        assert analyze(out).conclusion == analyze(d).conclusion


def test_is_canonical_examples():
    intro = Inf("orI1", Disj(a, b), (Assumption(a),))
    assert is_canonical(intro)
    assert not is_canonical(Assumption(a))
    assert not is_canonical(Inf("atm", a, (EmptyTop(),)))  # atoms have no introduction
    # shape matters, tags do not
    odd_tag = Inf("whatever", Conj(a, b), (Assumption(a), Assumption(b)))
    assert is_canonical(odd_tag)
    wrong_child = Inf("andI", Conj(a, b), (Assumption(a), Assumption(c)))
    assert not is_canonical(wrong_child)
    imp = Inf("impI", Impl(a, b), (Inf("t", b, (Assumption(a, 1),)),), frozenset({1}))
    assert is_canonical(imp)
    imp_bad = Inf("impI", Impl(a, b), (Inf("t", b, (Assumption(c, 1),)),), frozenset({1}))
    assert not is_canonical(imp_bad)
    vacuous = Inf("impI", Impl(a, b), (Assumption(b),))
    assert is_canonical(vacuous)


def test_structures_equal_up_to_relabelling():
    d = _case_analysis()
    assert structures_equal(d, relabel(d, {1: 40, 2: 17}))
    assert canonical_key(d) == canonical_key(relabel(d, {1: 40, 2: 17}))
    other = Inf("orI2", Disj(a, b), (Assumption(b),))
    one = Inf("orI1", Disj(a, b), (Assumption(a),))
    assert not structures_equal(one, other)


def test_relabel_roundtrip_random():
    rng = make_rng(8)
    for _ in range(100):
        d = _case_analysis()
        mapping = {1: rng.randint(3, 50), 2: rng.randint(51, 90)}
        assert structures_equal(d, relabel(d, mapping))


def test_freshen_avoids_used_labels():
    d = _case_analysis()
    out = freshen(d, frozenset({1, 2, 3}))
    assert labels_of(out).isdisjoint({1, 2, 3})
    assert structures_equal(out, d)


def test_immediate_substructures_open_the_discharge():
    d = _case_analysis()
    subs = immediate_substructures(d)
    assert [analyze(s).conclusion for s in subs] == [Disj(a, b), c, c]
    assert analyze(subs[1]).open_assumptions == Counter({a: 1})
    assert analyze(subs[2]).open_assumptions == Counter({b: 1})


def test_text_roundtrip():
    d = _case_analysis()
    assert parse_structure(render_structure(d)) == d
    ax = Inf("ax", parse_formula("a | ~a"), (EmptyTop(),))
    assert parse_structure(render_structure(ax)) == ax
    leaf = Assumption(parse_formula("a & b"), 3)
    d2 = Inf("t", a, (leaf,), frozenset({3}))
    assert parse_structure(render_structure(d2)) == d2


def test_parse_structure_errors():
    with pytest.raises(StructureError):
        parse_structure("(assume)")
    with pytest.raises(StructureError):
        parse_structure("(inf x)")
    with pytest.raises(StructureError):
        parse_structure('(inf t "a")')  # no children
    with pytest.raises(StructureError):
        parse_structure('(bogus "a")')


def test_subtree_and_positions():
    d = _case_analysis()
    assert subtree_at(d, ()) == d
    assert subtree_at(d, (1,)).tag == "atm"
    post = positions(d)
    assert post[-1] == ()  # whole structure comes last innermost-first
    with pytest.raises(StructureError):
        subtree_at(d, (9,))


def test_roundtrip_random_structures():
    rng = make_rng(9)
    for _ in range(80):
        d = random_open_structure(rng, parse_formula("(a -> b) | c"), 3)
        assert parse_structure(render_structure(d)) == d
        sigma = random_sigma(rng, d)
        inst = instantiate(d, sigma)
        assert analyze(inst).conclusion == analyze(d).conclusion
