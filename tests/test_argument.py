import copy
import gc
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import (
    Argument,
    Assumption,
    AssumptionEscape,
    Atom,
    AtomicRule,
    BOT,
    Bounds,
    ConclusionMismatch,
    ConsequenceVerdict,
    ConstantMap,
    Conj,
    Disj,
    EmptyTop,
    ExhaustedSearch,
    FailingInstance,
    Impl,
    Inf,
    JustificationSet,
    RSystem,
    SchematicRewrite,
    StructureError,
    StructureInfo,
    Verdict,
    analyze,
    axiom_structure,
    em_refutation_rule,
    canonical_key,
    check_structure,
    immediate_substructures,
    instantiate,
    is_canonical,
    negation,
    or_detour,
    parse_base,
    parse_formula,
    parse_structure,
    positions,
    render_structure,
    structures_equal,
    substitute,
    subtree_at,
    valid,
)
from ptslab import argument
from ptslab.formula import FVar
from ptslab.argument import (
    DSpec,
    PAssume,
    PInf,
    Plug,
    PVar,
    _facts,
    canonical_form,
    conclusion_of,
    cut_subtree,
    freshen,
    labels_of,
    relabel,
    size_of,
)
from ptslab.sexpr import _SYMBOL_RE, SexprError, Sym, read_sexpr

from ptslab.justification import reach, step_candidates

from genlib import (
    make_rng,
    random_case_analysis,
    random_closed_structure,
    random_detour_redex,
    random_formula,
    random_open_structure,
    random_scoped_structure,
    random_sigma,
)

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
    out = instantiate(d, {})
    assert out == d and render_structure(out) == render_structure(d)


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
    out = substitute(d, (), repl)
    assert out == repl and render_structure(out) == render_structure(repl)


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


def test_impl_intro_shape_reads_only_the_leaves_it_binds():
    # a leaf bound further out, or by a nearer inference, does not count
    inner = Inf("impI", Impl(c, b), (Assumption(c, 3),), frozenset({3}))
    premise = Inf("t", b, (Assumption(a, 1), Assumption(c, 2), inner))
    imp = Inf("impI", Impl(a, b), (premise,), frozenset({1}))
    assert is_canonical(imp)
    assert is_canonical(Inf("wrap", Impl(a, b), (imp,), frozenset({2})).children[0])
    wrong = Inf("impI", Impl(c, b), (premise,), frozenset({1}))
    assert not is_canonical(wrong)


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
    ax = Inf("ax", parse_formula("a | ~a"), (EmptyTop(),))
    leaf = Assumption(parse_formula("a & b"), 3)
    d2 = Inf("t", a, (leaf,), frozenset({3}))
    for x in (d, ax, d2):
        back = parse_structure(render_structure(x))
        assert back == x and render_structure(back) == render_structure(x)


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
    assert subtree_at(d, ()) is d
    assert subtree_at(d, (1,)).tag == "atm"
    post = positions(d)
    assert post[-1] == ()  # whole structure comes last innermost-first
    with pytest.raises(StructureError):
        subtree_at(d, (9,))


@pytest.mark.parametrize("call, message", [
    (lambda d: subtree_at(d, None), "path must be a tuple of integers, not NoneType"),
    (lambda d: subtree_at(d, ("0",)), "path must hold integers only, not '0'"),
    (lambda d: subtree_at(d, (True,)), "path must hold integers only, not True"),
    (lambda d: substitute(d, 3, d), "path must be a tuple of integers, not int"),
], ids=["subtree_at-None", "subtree_at-str", "subtree_at-bool", "substitute-int"])
def test_a_path_that_is_no_sequence_of_integers_is_refused(call, message):
    with pytest.raises(StructureError, match=re.escape(message)):
        call(_case_analysis())


def test_roundtrip_random_structures():
    rng = make_rng(9)
    for _ in range(80):
        d = random_open_structure(rng, parse_formula("(a -> b) | c"), 3)
        back = parse_structure(render_structure(d))
        assert back == d and render_structure(back) == render_structure(d)
        sigma = random_sigma(rng, d)
        inst = instantiate(d, sigma)
        assert analyze(inst).conclusion == analyze(d).conclusion


# The leaf's label 1 is bound by the root; the inner impI, in a sibling
# subtree, discharges 1 vacuously.
_SHADOW = (
    '(inf impI "a -> a" (inf k "a" (assume "a" :label 1)'
    ' (inf impI "b -> a" (inf x "a" (empty)) :discharge (1))) :discharge (1))'
)


def test_cut_opens_a_leaf_whose_binder_is_outside_despite_a_vacuous_inner_discharge():
    d = parse_structure(_SHADOW)
    sub, context = cut_subtree(d, (0,))
    check_structure(sub)
    want = '(inf k "a" (assume "a") (inf impI "b -> a" (inf x "a" (empty)) :discharge (1)))'
    assert sub == parse_structure(want) and render_structure(sub) == want
    assert context == [(1, frozenset({a}))]
    assert analyze(immediate_substructures(d)[0]).open_assumptions == Counter({a: 1})
    verdict = valid(Argument(d, JustificationSet()), parse_base("-> a"))
    assert verdict.status in ("valid", "invalid", "unknown")


def test_cut_that_opens_nothing_returns_the_subtree_itself():
    d = parse_structure(_SHADOW)
    sub, context = cut_subtree(d, (0, 1))  # the vacuous impI binds nothing outside
    assert sub is subtree_at(d, (0, 1)) and context == []
    rng = make_rng(23)
    for _ in range(100):
        d = random_scoped_structure(rng)
        for pos in positions(d):
            sub, context = cut_subtree(d, pos)
            node = subtree_at(d, pos)
            assert (sub is node) == (not context) == (sub == node)  # opened leaves lose their label
            if not context:
                assert canonical_key(substitute(d, pos, sub)) == canonical_key(d)


def test_check_and_analyze_a_deep_chain():
    # deeper than the interpreter's recursion limit
    d = Assumption(a, 1)
    for _ in range(3000):
        d = Inf("s", a, (d,))
    d = Inf("impI", Impl(a, a), (d,), frozenset({1}))
    check_structure(d)
    assert analyze(d).closed
    with pytest.raises(StructureError, match="0 discharging"):
        check_structure(d.children[0])
    assert size_of(d) == 3002 and labels_of(d) == {1}
    text = render_structure(d)
    chain = '(inf s "a" ' * 3000 + '(assume "a" :label 1)' + ")" * 3000
    assert text == '(inf impI "a -> a" ' + chain + " :discharge (1))"
    assert canonical_key(d) == text
    sub, context = cut_subtree(d, ())
    assert sub is d and context == []


def _preorder(d):
    yield d
    if isinstance(d, Inf):
        for ch in d.children:
            yield from _preorder(ch)


def _binders(d):
    """(position, inference, labels its ancestors discharge) for every
    inference with a discharge set; positions count every node in pre-order."""
    out = []
    count = itertools.count()

    def walk(node, above):
        i = next(count)
        if isinstance(node, Inf):
            if node.discharges:
                out.append((i, node, above))
            for ch in node.children:
                walk(ch, above | node.discharges)

    walk(d, frozenset())
    return out


def _rename_binder(d, target, old, new):
    """d with the inference at pre-order position target discharging new
    instead of old, and exactly the leaves it binds relabelled to match."""
    count = itertools.count()

    def walk(node, inside):
        i = next(count)
        match node:
            case Assumption(f, l) if inside and l == old:
                return Assumption(f, new)
            case Inf(tag, concl, kids, dis):
                if i == target:
                    inside, dis = True, (dis - {old}) | {new}
                elif old in dis:
                    inside = False  # a nearer binder of old
                return Inf(tag, concl, tuple(walk(ch, inside) for ch in kids), dis)
        return node

    return walk(d, False)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_key_is_unchanged_by_renaming_one_binder(seed, data):
    d = random_scoped_structure(random.Random(seed))
    key = canonical_key(d)
    assert canonical_key(parse_structure(key)) == key
    binders = _binders(d)
    if not binders:
        return
    pos, node, above = data.draw(st.sampled_from(binders))
    old = data.draw(st.sampled_from(sorted(node.discharges)))
    # no enclosing or enclosed inference discharges the new value
    new = data.draw(st.sampled_from(sorted(set(range(1, 8)) - above - labels_of(node))))
    renamed = _rename_binder(d, pos, old, new)
    check_structure(renamed)
    assert canonical_key(renamed) == key
    assert structures_equal(renamed, d)


def _by_value_key(d):
    """The key as it was when labels were numbered by value: by first leaf
    in pre-order, then first discharging inference, then the value."""
    first_leaf, first_node = {}, {}
    for i, n in enumerate(_preorder(d)):
        match n:
            case Assumption(_, lbl) if lbl is not None:
                first_leaf.setdefault(lbl, i)
            case Inf(_, _, _, dis):
                for l in dis:
                    first_node.setdefault(l, i)
    big = 1 << 30
    ordered = sorted(
        set(first_leaf) | set(first_node),
        key=lambda l: (first_leaf.get(l, big), first_node.get(l, big), l),
    )
    return render_structure(relabel(d, {l: i + 1 for i, l in enumerate(ordered)}))


def _discharged_twice(d):
    values = [l for n in _preorder(d) if isinstance(n, Inf) for l in n.discharges]
    return len(values) != len(set(values))


def test_key_agrees_with_by_value_numbering_without_reuse():
    rng = make_rng(12)
    checked = 0
    for _ in range(600):
        d = random_scoped_structure(rng, labels=range(1, 9))
        if _discharged_twice(d):
            continue
        assert canonical_key(d) == _by_value_key(d)
        checked += 1
    for _ in range(100):
        d = random_detour_redex(rng)
        assert canonical_key(d) == _by_value_key(d)
    assert checked >= 100


def test_key_numbers_each_discharging_inference():
    # disjoint subtrees reusing one label, and an inner vacuous discharge
    # of an outer label, number like their fresh-label twins
    d = parse_structure(_SHADOW)
    twin = parse_structure(_SHADOW.replace("discharge (1)))", "discharge (7)))"))
    assert canonical_key(d) == canonical_key(twin) == (
        '(inf impI "a -> a" (inf k "a" (assume "a" :label 1)'
        ' (inf impI "b -> a" (inf x "a" (empty)) :discharge (2))) :discharge (1))'
    )
    pair = Inf("k", a, (Inf("impI", Impl(a, a), (Assumption(a, 1),), frozenset({1})),) * 2)
    fresh = Inf("k", a, (pair.children[0], relabel(pair.children[1], {1: 2})))
    assert canonical_key(pair) == canonical_key(fresh) == render_structure(fresh)
    assert render_structure(canonical_form(pair)) == canonical_key(pair)


# ---------------------------------------------------------------------------
# The facts a node keeps against the whole-tree walks they replace. The
# oracles below are the scope walk and the two-pass key the library used
# before nodes kept their facts.


def _oracle_scope(d):
    """(leaf, binder, count) per leaf in pre-order, binder the pre-order
    position of the nearest enclosing inference discharging its label (None
    if none) and count how many do; and (position, discharges) per binder."""
    leaves, binders = [], []
    count = itertools.count()

    def walk(node, scope):
        pos = next(count)
        if isinstance(node, Inf):
            if node.discharges:
                binders.append((pos, node.discharges))
                scope = dict(scope)
                for l in node.discharges:
                    scope[l] = (pos, scope.get(l, (None, 0))[1] + 1)
            for ch in node.children:
                walk(ch, scope)
        elif isinstance(node, Assumption):
            leaves.append((node, *scope.get(node.label, (None, 0))))

    walk(d, {})
    return leaves, binders


def _oracle_check(d):
    """The well-formedness error of d, as a message, or None."""
    if isinstance(d, EmptyTop):
        return "an empty node cannot stand alone"
    for leaf, _, n in _oracle_scope(d)[0]:
        if leaf.label is not None and n != 1:
            return (
                f"label {leaf.label} on assumption {leaf.formula} has "
                f"{n} discharging inferences below it (need exactly 1)"
            )
    return None


def _oracle_render(d, label, discharged):
    match d:
        case Assumption(f, lbl):
            tail = f" :label {label(d)}" if lbl is not None else ""
            return f'(assume "{f}"{tail})'
        case EmptyTop():
            return "(empty)"
        case Inf(tag, concl, children, dis):
            tail = " :discharge (" + " ".join(map(str, discharged(dis))) + "))" if dis else ")"
            kids = " ".join(_oracle_render(ch, label, discharged) for ch in children)
            return f'(inf {tag} "{concl}" {kids}{tail}'


def _oracle_numbering(d):
    leaves, binders = _oracle_scope(d)
    number = {}
    leaf_numbers = iter([
        number.setdefault((binder, leaf.label), len(number) + 1)
        for leaf, binder, _ in leaves
        if leaf.label is not None
    ])
    for pos, dis in binders:
        for l in sorted(dis):
            number.setdefault((pos, l), len(number) + 1)
    sets = iter([sorted(number[pos, l] for l in dis) for pos, dis in binders])
    return lambda n: next(leaf_numbers), lambda dis: next(sets)


def _oracle_key(d):
    return _oracle_render(d, *_oracle_numbering(d))


def _oracle_form(d):
    label, discharged = _oracle_numbering(d)
    return _oracle_relabel(d, label, discharged)


def _oracle_relabel(d, label, discharged):
    match d:
        case Assumption(f, lbl):
            return d if lbl is None else Assumption(f, label(d))
        case Inf(tag, concl, children, dis):
            dis = frozenset(discharged(dis)) if dis else dis
            return Inf(tag, concl, tuple(_oracle_relabel(ch, label, discharged) for ch in children), dis)
    return d


def _agrees_with_the_oracles(d):
    """Every fact of d, every well-formedness verdict and message, and both
    texts equal what the whole-tree walks give."""
    leaves, _ = _oracle_scope(d)
    facts = _facts(d)
    assert facts.size == size_of(d) == sum(1 for _ in _preorder(d))
    labelled = {leaf.label for leaf, _, _ in leaves if leaf.label is not None}
    discharged = {l for n in _preorder(d) if isinstance(n, Inf) for l in n.discharges}
    assert facts.labels == labels_of(d) == labelled | discharged
    assert list(facts.free) == [
        (leaf.label, leaf.formula) for leaf, binder, _ in leaves if leaf.label is not None and binder is None
    ]
    assert facts.bound == {
        leaf.label for leaf, binder, _ in leaves if leaf.label is not None and binder is not None
    }
    assert facts.double == any(n > 1 for leaf, _, n in leaves if leaf.label is not None)
    assert list(facts.opens) == [leaf.formula for leaf, _, _ in leaves if leaf.label is None]
    problem = _oracle_check(d)
    if problem is None:
        check_structure(d)
        info = analyze(d)
        assert info.conclusion == (d.formula if isinstance(d, Assumption) else d.conclusion)
        assert info.open_assumptions == Counter(leaf.formula for leaf, _, _ in leaves if leaf.label is None)
    else:
        with pytest.raises(StructureError) as err:
            check_structure(d)
        assert str(err.value) == problem
        with pytest.raises(StructureError):
            analyze(d)
    assert render_structure(d) == _oracle_render(d, lambda n: n.label, sorted)
    assert canonical_key(d) == _oracle_key(d)
    assert render_structure(canonical_form(d)) == render_structure(_oracle_form(d))


def _random_tree(rng, depth=4, labels=(1, 2, 3)):
    """A structure with any label anywhere: multi-label and vacuous
    discharge sets, double binders and unbound labels all turn up."""
    if depth <= 1 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return EmptyTop()
        return Assumption(random_formula(rng, 2), rng.choice(list(labels) + [None, None]))
    dis = frozenset(l for l in labels if rng.random() < 0.3)
    kids = tuple(_random_tree(rng, depth - 1, labels) for _ in range(rng.randint(1, 3)))
    return Inf(rng.choice(("r", "s", "t")), random_formula(rng, 2), kids, dis)


_GRAFTING = JustificationSet((or_detour(), em_refutation_rule()))


def _detour_over(rng, inner, labels):
    """An or-detour whose major premise introduces a disjunction over inner."""
    l1, l2 = next(labels), next(labels)
    x, y, z = conclusion_of(inner), random_formula(rng, 1), random_formula(rng, 1)
    cases = (Inf("br", z, (Assumption(x, l1),)), Inf("bs", z, (Assumption(y, l2),)))
    return Inf("orE", z, (Inf("orI1", Disj(x, y), (inner,)),) + cases, frozenset({l1, l2}))


def _grafted_host(rng):
    """A reduct, one to three steps in, of a host whose label-closed parts
    are stepped by grafting: detours nested in detours' major premises, side
    by side under andI nodes (a wide detour), under a closed node with
    several children, or in a case branch below the labels it discharges."""
    labels = itertools.count(3)  # 1 and 2 are the case analysis's
    parts = []
    for _ in range(rng.randint(1, 3)):
        part = relabel(random_detour_redex(rng), {1: next(labels), 2: next(labels)})
        for _ in range(rng.randint(0, 2)):
            part = _detour_over(rng, part, labels)
        parts.append(part)
    host = parts[0]
    for part in parts[1:]:
        host = Inf("andI", Conj(conclusion_of(part), conclusion_of(host)), (part, host))
    if rng.random() < 0.4:
        em = Inf("ax", Disj(a, negation(a)), (EmptyTop(),))
        host = Inf("pair", c, tuple(rng.sample([host, em, EmptyTop(), Assumption(b)], rng.randint(2, 4))))
    if rng.random() < 0.3:
        host = random_case_analysis(rng, [host])
    for _ in range(rng.randint(1, 3)):
        reducts = list(step_candidates(_GRAFTING, host).values())
        if not reducts:
            break
        host = rng.choice(reducts)
    return host


def test_grafted_hosts_cover_the_fast_paths():
    # the property below is only as good as its grafted hosts: they must hold nodes with
    # several label-closed children, with labels and without, and nodes that discharge
    rng = make_rng(29)
    seen = Counter()
    for _ in range(30):
        for node in _preorder(_grafted_host(rng)):
            if isinstance(node, Inf):
                kids = [_facts(ch) for ch in node.children]
                closed = len(kids) > 1 and not any(k.free for k in kids)
                seen["closed, labelled" if closed and any(k.labels for k in kids) else "closed" if closed else ""] += 1
                seen["discharges"] += bool(node.discharges)
    assert min(seen["closed, labelled"], seen["closed"], seen["discharges"]) >= 10, seen


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["any", "scoped", "detour", "open", "grafted"]), st.data())
def test_node_facts_agree_with_the_whole_tree_walks(seed, kind, data):
    rng = random.Random(seed)
    make = {
        "any": _random_tree,
        "scoped": random_scoped_structure,
        "detour": random_detour_redex,
        "open": lambda rng: random_open_structure(rng, random_formula(rng, 2), 3),
        "grafted": _grafted_host,
    }[kind]
    d = make(rng)
    # ask some subtrees first, so that the root is built on kept facts
    nodes = list(_preorder(d))
    for node in data.draw(st.lists(st.sampled_from(nodes), max_size=4)):
        _agrees_with_the_oracles(node)
    _agrees_with_the_oracles(d)
    # a structure sharing d (twice) and parts of it, built after d's facts
    part = data.draw(st.sampled_from(nodes))
    dis = frozenset(data.draw(st.sets(st.sampled_from((1, 2, 3, 4)), max_size=2)))
    shared = Inf("k", a, (d, part, d), dis)
    _agrees_with_the_oracles(shared)
    _agrees_with_the_oracles(Inf("k", b, (shared, _random_tree(rng)), frozenset({1})))


def test_facts_cover_the_edge_cases():
    one, two = Assumption(a, 1), Assumption(b, 2)
    cases = [
        Inf("t", a, (one, two), frozenset({1, 2})),  # a multi-label set
        Inf("t", a, (Assumption(c),), frozenset({1, 2})),  # a vacuous set
        Inf("t", a, (one,), frozenset({1, 2})),  # partly vacuous
        Inf("u", a, (Inf("t", a, (one,), frozenset({1})),), frozenset({1})),  # two binders
        # one leaf object, bound once and twice
        Inf("u", a, (one, Inf("t", a, (one,), frozenset({1}))), frozenset({1})),
        Inf("t", a, (one, two), frozenset({1})),  # an unbound label
        two,
        EmptyTop(),
        Inf("t", a, (EmptyTop(),)),
        parse_structure(_SHADOW),
    ]
    for d in cases:
        _agrees_with_the_oracles(d)
    with pytest.raises(StructureError, match="label 1 on assumption a has 2 discharging"):
        check_structure(cases[3])
    with pytest.raises(StructureError, match="label 2 on assumption b has 0 discharging"):
        analyze(cases[5])


def test_facts_of_reducts_that_share_subtrees_with_their_parent():
    rng = make_rng(31)
    steps = JustificationSet((or_detour(),))
    shared_somewhere = 0
    for _ in range(60):
        host = Inf("wrap", random_formula(rng, 2), (random_detour_redex(rng), random_scoped_structure(rng)))
        _agrees_with_the_oracles(host)
        parts = {id(n) for n in _preorder(host)}
        reducts = list(step_candidates(steps, host).values())
        assert reducts
        for r in reducts:
            shared_somewhere += any(id(n) in parts for n in _preorder(r))
            _agrees_with_the_oracles(r)
            for node in _preorder(r):
                _agrees_with_the_oracles(node)
    assert shared_somewhere >= 60


def test_valid_builds_each_node_s_facts_once(monkeypatch):
    built = []  # holds every node, so no id is reused while counting
    real = argument._node_facts
    monkeypatch.setattr(argument, "_node_facts", lambda node: built.append(node) or real(node))
    text = '(inf atm "a" (empty))'
    for l in range(1, 17, 2):  # eight detours: with substructures stepped once, six build only 41 nodes
        text = (
            f'(inf orE "a" (inf orI1 "a | b" {text}) (assume "a" :label {l})'
            f' (inf k "a" (assume "b" :label {l + 1})) :discharge ({l} {l + 1}))'
        )
    arg = Argument(parse_structure(text), JustificationSet((or_detour(), em_refutation_rule())))
    verdict = valid(arg, parse_base("-> a\n-> b\n"))
    assert verdict.status == "valid"
    counts = Counter(id(node) for node in built)
    assert len(counts) > 50 and max(counts.values()) == 1


def _every_node_has_its_facts(d):
    for node in _preorder(d):
        # set when the node was built; every empty node has its class's
        own = EmptyTop._facts if isinstance(node, EmptyTop) else vars(node)["_facts"]
        assert _facts(node) is own


def test_every_constructor_leaves_its_facts_set():
    rng = make_rng(41)
    for d in (Assumption(a), Assumption(a, 1), EmptyTop(), _case_analysis(), parse_structure(_SHADOW)):
        _every_node_has_its_facts(d)
    steps = JustificationSet((or_detour(),))
    for _ in range(20):
        redex = random_detour_redex(rng)
        d = random_scoped_structure(rng)
        pos = rng.choice(positions(d))
        sub, context = cut_subtree(d, pos)
        built = [relabel(d, {1: 7, 2: 1}), canonical_form(d), sub, parse_structure(render_structure(redex))]
        built += step_candidates(steps, redex).values()
        if not context:
            built.append(substitute(d, pos, sub))
        for node in built:
            _every_node_has_its_facts(node)
    # a child that is not a structure is refused when its parent is built
    for bad in (PVar("D"), "a", None):
        with pytest.raises(StructureError, match="not a structure"):
            Inf("t", a, (Assumption(a), bad))
    with pytest.raises(StructureError, match="not a structure"):
        check_structure(PVar("D"))


def test_the_text_writers_refuse_what_is_not_a_structure():
    # a str once passed for one of the closing texts the writer stacks, and lost its first
    # character; a tuple for the leaf walk's rebuild marker, and 42 came back as it was
    marker = (Inf("t", a, (EmptyTop(),)), frozenset())
    for bad in ('(assume "a")', "xyz", 42, ("x",), marker):
        for write in (render_structure, canonical_key, canonical_form, lambda d: relabel(d, {})):
            with pytest.raises(StructureError, match="not a structure"):
                write(bad)


def test_a_tag_that_would_not_read_back_is_refused():
    e = EmptyTop()
    # one tag that prints as a second sibling would have keyed these two alike
    with pytest.raises(StructureError, match="rule tag"):
        Inf("p", a, (Inf('u "a" (empty)) (inf u', a, (e,)),))
    Inf("p", a, (Inf("u", a, (e,)), Inf("u", a, (e,))))
    for tag in ("", "a b", "x)", "(", '"q"', "t;c", "12", "-3x", " s", "s\n", 7, Sym("s"), ["s"]):
        with pytest.raises(StructureError, match="rule tag"):
            Inf(tag, a, (e,))
    for tag in ("orE", "-", "-x", "?t", ":label", "x-1", "a1", "\\"):
        assert parse_structure(render_structure(Inf(tag, a, (e,)))).tag == tag
    # an accepted tag is not matched again, but what is not a str is still refused, unhashable or not
    for tag in (["s"], ["orE"], Sym("orE"), 'u "a" (empty)) (inf u'):
        with pytest.raises(StructureError, match="rule tag"):
            Inf(tag, a, (e,))


@pytest.mark.parametrize(
    "make, value",
    [
        (Assumption, None),
        (Assumption, "a"),
        (lambda f: Assumption(f, 1), FVar("A")),  # metavariables belong to patterns
        (lambda f: Inf("t", f, (EmptyTop(),)), None),
        (lambda f: Inf("t", f, (EmptyTop(),)), FVar("A")),
        (axiom_structure, None),
    ],
    ids=["leaf-None", "leaf-str", "leaf-FVar", "inference-None", "inference-FVar", "axiom-None"],
)
def test_a_node_refuses_what_is_not_a_formula(make, value):
    # Assumption("a") once analyzed to the conclusion 'a', and valid on it failed deep in the search
    with pytest.raises(StructureError, match=re.escape(f"not {value!r}")):
        make(value)


def test_an_inference_keeps_its_children_as_a_tuple():
    # a list given as the children once stayed the node's own: changing it changed the text
    # but not the key, and a cut or a graft on the node failed on list + tuple
    kids = [Inf("k", a, (Assumption(b, 1),)), Assumption(a, 2)]
    d = Inf("s", a, kids, [1, 2])
    kids[0] = Assumption(a)
    assert d.children.__class__ is tuple and d.discharges == frozenset({1, 2})
    assert render_structure(d) == '(inf s "a" (inf k "a" (assume "b" :label 1)) (assume "a" :label 2) :discharge (1 2))'
    assert d == parse_structure(render_structure(d)) and analyze(d).closed
    assert render_structure(substitute(d, (1,), Inf("w", a, (Assumption(a),)))) == (
        '(inf s "a" (inf k "a" (assume "b" :label 1)) (inf w "a" (assume "a" :label 2)) :discharge (1 2))'
    )
    sub, context = cut_subtree(d, (0,))
    assert render_structure(sub) == '(inf k "a" (assume "b"))' and context == [(1, frozenset({b}))]


def test_labels_are_integers():
    # a label that the text form would not read back as itself is refused, as a tag is:
    # "x" wrote a text the reader refused, True equalled 1 and wrote True, 1.0 wrote 1.0
    for label in ("x", "1", True, 1.0):
        with pytest.raises(StructureError, match="labels are integers"):
            Assumption(a, label)
        with pytest.raises(StructureError, match="labels are integers"):
            Inf("s", a, (Assumption(a),), frozenset({label}))
        with pytest.raises(StructureError, match="labels are integers"):
            relabel(Inf("s", a, (Assumption(a, 1),), frozenset({1})), {1: label})
    for bad in (5, None, [[1]]):  # not iterable, or a label that is not hashable
        with pytest.raises(StructureError, match="bad children or discharge set"):
            Inf("s", a, (Assumption(a),), bad)
    for bad in (5, None):
        with pytest.raises(StructureError, match="bad children or discharge set"):
            Inf("s", a, bad)
    for label in (0, -3, 2**70):
        d = Inf("s", a, (Assumption(a, label),), frozenset({label}))
        assert parse_structure(render_structure(d)).discharges == {label}


def test_the_walks_refuse_what_is_not_a_structure():
    for bad in ("x", 42, ("x",), None):
        for walk in (positions, lambda d: subtree_at(d, ()), lambda d: step_candidates(JustificationSet(()), d)):
            with pytest.raises(StructureError, match="not a structure"):
                walk(bad)
        with pytest.raises(StructureError, match="not a structure"):
            list(reach(JustificationSet((or_detour(),)), bad))
    assert positions(EmptyTop()) == [] and subtree_at(EmptyTop(), ()) == EmptyTop()


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.sampled_from(' \t\n\xa0()";-019az?:\\'), max_size=5) | st.text(max_size=4))
def test_the_tag_pattern_accepts_what_reads_back_as_one_symbol(text):
    try:
        reads_back = read_sexpr(text) == Sym(text)
    except SexprError:
        reads_back = False
    assert bool(_SYMBOL_RE.fullmatch(text)) == reads_back


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["scoped", "detour", "open", "closed"]))
def test_render_then_parse_gives_the_structure_back(seed, kind):
    rng = random.Random(seed)
    d = {
        "scoped": random_scoped_structure,
        "detour": random_detour_redex,
        "open": lambda rng: random_open_structure(rng, random_formula(rng, 2), 3),
        "closed": lambda rng: random_closed_structure(rng, random_formula(rng, 2), 3),
    }[kind](rng)
    back = parse_structure(render_structure(d))
    assert back == d and render_structure(back) == render_structure(d)


def test_tree_walks_on_a_deep_chain():
    # deeper than the interpreter's recursion limit; compared by text, which shows the labels too
    depth = 3000
    d = Assumption(a, 1)
    for _ in range(depth):
        d = Inf("s", a, (d,))
    d = Inf("impI", Impl(a, a), (d,), frozenset({1}))
    chain = '(inf s "a" ' * depth
    ps = positions(d)
    assert len(ps) == depth + 2 and ps[0] == (0,) * (depth + 1) and ps[-1] == ()
    assert render_structure(relabel(d, {1: 4})) == render_structure(d).replace("1", "4")
    sub, context = cut_subtree(d, (0,))
    assert render_structure(sub) == chain + '(assume "a")' + ")" * depth and context == [(1, frozenset({a}))]
    assert [render_structure(s) for s in immediate_substructures(d)] == [render_structure(sub)]
    # replace the leaf at the bottom by a closed proof of a
    proof = Inf("atm", a, (EmptyTop(),))
    out = substitute(d, (0,) * (depth + 1), proof)
    assert render_structure(out) == (
        '(inf impI "a -> a" ' + chain + '(inf atm "a" (empty))' + ")" * depth + " :discharge (1))"
    )
    open_chain = Assumption(a)
    for _ in range(depth):
        open_chain = Inf("s", a, (open_chain,))
    inst = instantiate(open_chain, {a: proof})
    assert render_structure(inst) == chain + '(inf atm "a" (empty))' + ")" * depth
    assert size_of(inst) == depth + 2 and not _facts(inst).opens


# ---------------------------------------------------------------------------
# equality and hashing up to relabelling, kept from construction


def _renamed(rng, d):
    """d under a random label map: one-to-one (an equal structure) or not
    (one that may bind differently)."""
    labels = sorted(labels_of(d))
    if rng.random() < 0.6:
        image = rng.sample(range(1, 40), len(labels))
    else:
        image = [rng.choice((1, 2, 3)) for _ in labels]
    return relabel(d, dict(zip(labels, image)))


def _nudged(rng, d):
    """d with one small change to its labels: one leaf gets another label
    or none, or one discharge set gains or drops a label."""
    pick = rng.choice((None, 1, 2, 3, 4))
    if rng.random() < 0.5:
        nodes = [n for n in _preorder(d) if isinstance(n, Assumption)]
        target = rng.choice(nodes) if nodes else None
        return argument._map_leaves(d, lambda n: Assumption(n.formula, pick) if n is target else n)
    sets = sum(1 for n in _preorder(d) if isinstance(n, Inf))
    which, count = rng.randrange(max(sets, 1)), itertools.count()
    return argument._map_leaves(d, lambda n: n, lambda dis: dis ^ {pick or 1} if next(count) == which else dis)


_MAKERS = {
    "any": _random_tree,
    "scoped": random_scoped_structure,
    "detour": random_detour_redex,
    "open": lambda rng: random_open_structure(rng, random_formula(rng, 2), 3),
    "closed": lambda rng: random_closed_structure(rng, random_formula(rng, 2), 3),
}


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(_MAKERS)), st.sampled_from(["renamed", "nudged", "other"]))
def test_equality_is_key_equality_and_equal_structures_hash_alike(seed, kind, how):
    rng = random.Random(seed)
    d1 = _MAKERS[kind](rng)
    if how == "renamed":
        d2 = _renamed(rng, d1)
    elif how == "nudged":
        d2 = _nudged(rng, d1)
    else:  # small trees over few labels often come out equal
        d2 = _MAKERS[kind](rng)
    same = canonical_key(d1) == canonical_key(d2)
    assert (d1 == d2) == same == (d2 == d1) == structures_equal(d1, d2)
    assert (d1 != d2) == (not same)
    if same:
        assert hash(d1) == hash(d2)
        assert len({d1, d2}) == 1 and {d1: 0}.get(d2) == 0
    if not isinstance(d1, EmptyTop) and not _facts(d1).free and not _facts(d1).double:
        assert parse_structure(canonical_key(d1)) == d1  # its canonical form


def test_equality_sees_how_labels_bind():
    one, two = Assumption(a, 1), Assumption(a, 2)
    both = Inf("t", a, (one, two), frozenset({1, 2}))
    assert both == Inf("t", a, (Assumption(a, 5), Assumption(a, 4)), frozenset({4, 5}))
    assert both != Inf("t", a, (one, one), frozenset({1, 2}))  # one label for both leaves
    assert both != Inf("t", a, (one, two), frozenset({1, 2, 3}))  # one more vacuous label
    assert both != Inf("t", a, (one, Assumption(a)), frozenset({1, 2}))  # an open leaf
    inner = Inf("s", a, (one,), frozenset({1}))
    # the leaf is bound by the inner inference, whatever the outer one discharges
    assert Inf("u", a, (inner,), frozenset({1})) == Inf("u", a, (inner,), frozenset({2}))
    assert Inf("u", a, (inner, one), frozenset({1})) != Inf("u", a, (inner, two), frozenset({1}))
    # labels no inference binds are named alike throughout
    assert Inf("k", a, (one, one)) == Inf("k", a, (two, two)) != Inf("k", a, (one, two))
    assert Inf("k", a, (one, two)) == Inf("k", a, (two, one))
    assert EmptyTop() == EmptyTop() and hash(EmptyTop()) == hash(EmptyTop())
    assert one != "(assume \"a\" :label 1)" and Assumption(a) != PVar("D")


def _chain(depth, label):
    d = Assumption(a, label)
    for _ in range(depth):
        d = Inf("s", a, (d,))
    return Inf("impI", Impl(a, a), (d,), frozenset({label}))


def test_deep_structures_are_compared_hashed_analyzed_and_keyed():
    # two 3000-deep chains built apart, deeper than the recursion limit
    d1, d2 = _chain(3000, 1), _chain(3000, 2)
    assert d1 == d2 and hash(d1) == hash(d2) and {d1: 1}[d2] == 1
    assert analyze(d1).closed and analyze(d2).closed
    assert canonical_key(d1) == canonical_key(d2)
    assert d1 != _chain(2999, 1) and d1 != Inf("impI", Impl(a, a), (d1.children[0],), frozenset({1, 2}))
    open_leaf = Inf("impI", Impl(a, a), (_chain(3000, 1).children[0],))  # nothing binds the leaf
    assert d1 != open_leaf


def test_a_detour_step_grafts_the_host_s_subtree_as_it_is():
    host = parse_structure(
        '(inf wrap "a" (inf orE "a" (inf orI1 "a | b" (inf impE "a" (assume "c") (inf atm "c -> a" (empty))))'
        ' (assume "a" :label 1) (inf k "a" (assume "b" :label 2)) :discharge (1 2)))'
    )
    inner = host.children[0].children[0].children[0]
    (reduct,) = step_candidates(JustificationSet((or_detour(),)), host).values()
    assert reduct.children[0] is inner


def test_substitute_still_renames_a_label_an_enclosing_inference_discharges():
    # the root discharges 1; the replacement binds 1 inside itself
    d = parse_structure('(inf impI "a -> c" (inf k "c" (assume "a" :label 1)) :discharge (1))')
    body = Inf("impI", Impl(b, b), (Assumption(b, 1),), frozenset({1}))
    repl = Inf("m", c, (Assumption(a), body))
    out = substitute(d, (0,), repl)
    check_structure(out)
    renamed = out.children[0].children[1]
    assert renamed.discharges != {1} and renamed == body
    assert out.children[0].children[0] == Assumption(a, 1)  # recaptured by the root
    assert render_structure(out) == (
        '(inf impI "a -> c" (inf m "c" (assume "a" :label 1)'
        f' (inf impI "b -> b" (assume "b" :label {min(renamed.discharges)}) :discharge ({min(renamed.discharges)})))'
        " :discharge (1))"
    )


def test_a_dropped_labelled_leaf_is_freed_at_once():
    gc.disable()
    try:
        leaf = Assumption(a, 1)
        gone = weakref.ref(leaf)
        del leaf
        assert gone() is None
        leaf = Assumption(a, 1)
        node = Inf("impI", Impl(a, a), (leaf,), frozenset({1}))
        gone_leaf, gone_node = weakref.ref(leaf), weakref.ref(node)
        del leaf, node
        assert gone_leaf() is None and gone_node() is None  # no cycle holds either
    finally:
        gc.enable()


def test_a_dropped_structure_and_its_key_are_freed_at_once():
    gc.disable()
    try:
        before, u = len(argument._KEYS), Atom("unshared")  # no other structure has these classes

        def build():
            return Inf("dropped", Impl(u, u), (Inf("kept", u, (Assumption(u, 1), Assumption(u))),), frozenset({1}))

        node = build()
        assert len(argument._KEYS) == before + 4  # the two leaves, the inner and the outer inference
        entry = argument._KEYS[(u, False)]  # the unlabelled leaf's: a shape that holds no key
        gone_node, gone_key = weakref.ref(node), weakref.ref(node._facts.key)
        del node
        assert gone_node() is None and gone_key() is None and entry() is None
        assert len(argument._KEYS) == before
        # the shape built again after its class died gets a fresh key, which a late
        # callback of the dead entry leaves filed
        node = build()
        assert len(argument._KEYS) == before + 4 and argument._KEYS[entry.shape] is not entry
        argument._forget(entry)
        leaf = node.children[0].children[1]
        assert argument._KEYS[entry.shape]() is leaf._facts.key is build().children[0].children[1]._facts.key
        del node, leaf
        assert len(argument._KEYS) == before
    finally:
        gc.enable()


def test_copies_and_unpickled_structures_keep_their_key():
    inner = Inf("s", a, (Assumption(a, 1), Assumption(b, 2)), frozenset({2}))
    host = Inf("impI", Impl(a, a), (inner,), frozenset({1}))
    for d in [Assumption(a), Assumption(a, 3), EmptyTop(), Inf("t", a, (EmptyTop(),)), host, relabel(host, {1: 7, 2: 1})]:
        for copied in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
            assert copied == d and d == copied and hash(copied) == hash(d)
            assert render_structure(copied) == render_structure(d)


def test_a_deep_chain_pickles_and_copies():
    # deeper than the recursion limit: a node reduces to its flat records, not to its children
    d = _chain(3000, 1)
    for copied in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert copied == d and hash(copied) == hash(d)
        assert render_structure(copied) == render_structure(d)


_DROP_CHAINS = """
import sys
from ptslab import Assumption, Atom, Impl, Inf, argument

a = Atom("a")

def chain(depth, label, tag):
    d = Assumption(a, label)
    for _ in range(depth):
        d = Inf(tag, a, (d,))
    return Inf("impI", Impl(a, a), (d,), frozenset({label}))

start = len(argument._KEYS)
for depth in (10, 1000, 20000):
    for order in ((0, 1, 2), (2, 1, 0)):
        chains = [chain(depth, 1, "s"), chain(depth, 2, "s"), chain(depth, 1, "t")]  # two equal, one not
        assert chains[0] == chains[1] != chains[2]
        grown = len(argument._KEYS) - start
        for i in order:
            chains[i] = None
        print(depth, grown, len(argument._KEYS) - start)
"""


def test_the_key_table_forgets_dropped_deep_chains():
    # in a child interpreter, whose table holds nothing else, and whose stderr shows any
    # exception a weakref callback ignored
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _DROP_CHAINS], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and "Exception ignored" not in done.stderr, done.stderr
    rows = [tuple(map(int, line.split())) for line in done.stdout.splitlines()]
    # per depth n: n + 1 keys of the shared chain, n + 1 of the other, and the one leaf class
    assert rows == [(n, 2 * n + 3, 0) for n in (10, 1000, 20000) for _ in range(2)]


# ---------------------------------------------------------------------------
# repr: the dataclass text, written without recursion


# the fields each class's repr writes, in the order the frozen dataclasses declared them
_REPR_FIELDS = {
    Assumption: ("formula", "label"),
    EmptyTop: (),
    Inf: ("tag", "conclusion", "children", "discharges"),
    Atom: ("name",),
    FVar: ("name",),
    Conj: ("left", "right"),
    Disj: ("left", "right"),
    Impl: ("left", "right"),
}


def _reference_repr(x) -> str:
    """The dataclass repr, written recursively from the pinned field table."""
    if type(x) in _REPR_FIELDS:
        inner = ", ".join(f"{name}={_reference_repr(getattr(x, name))}" for name in _REPR_FIELDS[type(x)])
        return f"{type(x).__qualname__}({inner})"
    if type(x) is tuple:
        items = [_reference_repr(v) for v in x]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return repr(x)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["scoped", "detour", "open", "closed"]))
def test_repr_is_the_dataclass_repr(seed, kind):
    rng = random.Random(seed)
    d = {
        "scoped": random_scoped_structure,
        "detour": random_detour_redex,
        "open": lambda rng: random_open_structure(rng, random_formula(rng, 2), 3),
        "closed": lambda rng: random_closed_structure(rng, random_formula(rng, 2), 3),
    }[kind](rng)
    assert repr(d) == _reference_repr(d)
    f = random_formula(rng, 4)
    assert repr(f) == _reference_repr(f)
    assert repr(EmptyTop()) == "EmptyTop()" and repr(FVar("A")) == "FVar(name='A')"


def test_repr_of_a_deep_chain_and_a_deep_formula():
    # deeper than the interpreter's recursion limit
    d = EmptyTop()
    for _ in range(3000):
        d = Inf("atm", a, (d,))
    node = "Inf(tag='atm', conclusion=Atom(name='a'), children=("
    assert repr(d) == node * 3000 + "EmptyTop()" + ",), discharges=frozenset())" * 3000
    f = a
    for _ in range(2000):
        f = negation(f)
    assert repr(f) == "Impl(left=" * 2000 + "Atom(name='a')" + ", right=Atom(name='_|_'))" * 2000


_ax = Inf("ax", a, (EmptyTop(),))
_AX = "Inf(tag='ax', conclusion=Atom(name='a'), children=(EmptyTop(),), discharges=frozenset())"

# records built by keyword, leaving defaults out, and their repr texts when they were frozen dataclasses
_RECORDS = [
    (Verdict(status="invalid"), "Verdict(status='invalid', reason='', witness=None)"),
    (
        Bounds(max_reduction_steps=3, sigma_candidates=(Assumption(a),), extensions=()),
        "Bounds(max_reduction_steps=3, max_structure_size=400, sigma_candidates=(Assumption(formula=Atom(name='a'),"
        " label=None),), extensions=(), synthesize_sigma=True)",
    ),
    (
        ExhaustedSearch(start="s", explored=("t",), max_steps=2),
        "ExhaustedSearch(start='s', explored=('t',), max_steps=2)",
    ),
    (
        FailingInstance(sigma=((a, _ax),), extension_index=0, inner=Verdict("unknown")),
        f"FailingInstance(sigma=((Atom(name='a'), {_AX}),), extension_index=0,"
        " inner=Verdict(status='unknown', reason='', witness=None))",
    ),
    (
        Argument(structure=Assumption(a), steps=RSystem()),
        "Argument(structure=Assumption(formula=Atom(name='a'), label=None), steps=RSystem(pairs=()))",
    ),
    (ConsequenceVerdict(holds=False), "ConsequenceVerdict(holds=False, counterexample=None)"),
    (
        StructureInfo(conclusion=a, open_assumptions=Counter({a: 2})),
        "StructureInfo(conclusion=Atom(name='a'), open_assumptions=Counter({Atom(name='a'): 2}))",
    ),
    (Sym(text=":label"), "Sym(text=':label')"),
    (PAssume(formula=FVar("A"), labelvar="l"), "PAssume(formula=FVar(name='A'), labelvar='l')"),
    (DSpec(labelvar="l"), "DSpec(labelvar='l', formula=None)"),
    (
        Plug(source="D", labelvar="l", filler=PVar("E")),
        "Plug(source='D', labelvar='l', filler=PVar(name='E', concludes=None))",
    ),
    (
        SchematicRewrite(name="w", clauses=((PInf("s", FVar("A"), (PVar("D", FVar("A")),)), PVar(name="D")),)),
        "SchematicRewrite(name='w', clauses=((PInf(tag='s', conclusion=FVar(name='A'), children=(PVar(name='D',"
        " concludes=FVar(name='A')),), discharge=()), PVar(name='D', concludes=None)),))",
    ),
    (ConstantMap(name="m", pairs=((_ax, _ax),)), f"ConstantMap(name='m', pairs=(({_AX}, {_AX}),))"),
    (JustificationSet(members=(ConstantMap("m", ()),)), "JustificationSet(members=(ConstantMap(name='m', pairs=()),))"),
]


def _pickled_values() -> list:
    """The records of the repr table, and the values that kept a hash from
    the interpreter that pickled them: formulas, a rule, a base and a
    structure over them."""
    return [r for r, _ in _RECORDS] + [
        Atom("a"),
        Conj(a, Impl(b, BOT)),
        AtomicRule((a,), b),
        parse_base("-> a\na -> b\n"),
        parse_structure('(inf atm "a" (empty))'),
    ]


_LOAD_AND_COMPARE = """
import pickle, sys
from test_argument import _pickled_values

loaded, fresh = pickle.loads(sys.stdin.buffer.read()), _pickled_values()
assert len(loaded) == len(fresh)
for x, y in zip(loaded, fresh):
    try:
        hashed = hash(x) == hash(y) and x in {y}
    except TypeError:  # StructureInfo holds a Counter
        hashed = True
    print(type(y).__name__, x == y and y == x and hashed)
"""


def test_a_value_unpickled_under_another_hash_seed_equals_a_fresh_one():
    # pickled in one child interpreter and loaded in another with a different string hash seed
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    dump = "import pickle, sys; from test_argument import _pickled_values as v; sys.stdout.buffer.write(pickle.dumps(v()))"
    done = subprocess.run(
        [sys.executable, "-c", dump], capture_output=True, env=dict(env, PYTHONHASHSEED="1"), timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    again = subprocess.run(
        [sys.executable, "-c", _LOAD_AND_COMPARE], input=done.stdout, capture_output=True,
        env=dict(env, PYTHONHASHSEED="2"), timeout=120,
    )
    assert again.returncode == 0, again.stderr.decode()
    names = [type(x).__name__ for x in _pickled_values()]
    assert again.stdout.decode().splitlines() == [f"{name} True" for name in names]


def _positional(x) -> tuple:
    """What a class pattern with one capture per match arg binds from x."""
    cls = type(x)
    match len(cls.__match_args__), x:
        case 1, cls(f1):
            return (f1,)
        case 2, cls(f1, f2):
            return (f1, f2)
        case 3, cls(f1, f2, f3):
            return (f1, f2, f3)
        case 5, cls(f1, f2, f3, f4, f5):
            return (f1, f2, f3, f4, f5)


@pytest.mark.parametrize("record, text", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_records_behave_as_the_frozen_dataclasses_did(record, text):
    assert repr(record) == text
    fields = tuple(getattr(record, name) for name in type(record).__match_args__)
    assert _positional(record) == fields
    again = type(record)(*fields)
    assert again is not record and again == record and repr(again) == text
    if isinstance(record, StructureInfo):  # its Counter field makes it unhashable
        with pytest.raises(TypeError):
            hash(record)
    elif not isinstance(record, (ConstantMap, JustificationSet)):  # these compare their entries as a set
        assert hash(record) == hash(again) == hash(fields)
    assert record != fields and record != object()
    with pytest.raises(AttributeError):
        setattr(record, type(record).__match_args__[0], None)
    with pytest.raises(AttributeError):
        delattr(record, type(record).__match_args__[0])
