import gc
import itertools
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import atomic_base
from ptslab import (
    Assumption,
    Atom,
    AtomicBase,
    AtomicRule,
    BOT,
    BaseError,
    Conj,
    EmptyTop,
    EnumerationCapError,
    Inf,
    atomic_closure,
    atomic_derivation,
    conclusion_of,
    derives,
    enumerate_bases,
    is_consistent,
    is_derivation_structure,
    parse_base,
    render_base,
    search_counterexample,
)

from genlib import make_rng

p, q, r = Atom("p"), Atom("q"), Atom("r")
a, b = Atom("a"), Atom("b")

PQ = parse_base("-> p\np -> q\n")
EMPTY = AtomicBase(frozenset())


def _oracle_closure(base, assumptions):
    # independent fixpoint: one functional pass at a time over rule tuples
    facts = frozenset(assumptions)
    while True:
        new = facts | frozenset(
            rule.conclusion
            for rule in base.rules
            if frozenset(rule.premises) <= facts
        )
        if new == facts:
            return facts
        facts = new


def test_closure_examples():
    assert atomic_closure(PQ, ()) == frozenset({p, q})
    assert atomic_closure(EMPTY, {a}) == frozenset({a})


def test_derives_examples():
    assert derives(PQ, (), q)
    assert not derives(EMPTY, (), p)
    assert derives(EMPTY, {a}, a)  # assumptions are reflexively derivable


def test_closure_rejects_bottom_assumption():
    with pytest.raises(BaseError):
        atomic_closure(PQ, {BOT})


def test_rule_rejects_bottom_premise():
    with pytest.raises(BaseError):
        AtomicRule((BOT,), p)


def test_closure_against_oracle_random():
    rng = make_rng(2)
    atoms = [p, q, r]
    for _ in range(200):
        rules = set()
        for _ in range(rng.randint(0, 5)):
            prem = tuple(x for x in atoms if rng.random() < 0.4)
            concl = rng.choice(atoms + [BOT])
            rules.add(AtomicRule(prem, concl))
        base = AtomicBase(frozenset(rules))
        assumptions = frozenset(x for x in atoms if rng.random() < 0.3)
        assert atomic_closure(base, assumptions) == _oracle_closure(base, assumptions)


def test_derivation_examples():
    t = atomic_derivation(PQ, (), q)
    assert t is not None and t.conclusion == q
    assert is_derivation_structure(t, PQ)
    assert t.children and t.children[0].conclusion == p

    leaf = atomic_derivation(PQ, {a}, a)
    assert isinstance(leaf, Assumption) and leaf.formula == a and leaf.label is None
    assert is_derivation_structure(leaf, PQ, frozenset({a})) and not is_derivation_structure(leaf, PQ)


def test_derivation_iff_derives_exhaustive_small():
    # every base over two atoms with at most two rules, goals across the signature
    for base in enumerate_bases([p, q], 2, consistent_only=False, cap=10**6):
        for goal in (p, q, BOT):
            t = atomic_derivation(base, (), goal)
            assert (t is not None) == derives(base, (), goal)
            if t is not None:
                assert is_derivation_structure(t, base)


def test_consistency():
    assert not is_consistent(parse_base("-> p\np -> bot\n"))
    assert is_consistent(EMPTY)
    assert is_consistent(PQ)


def test_enumerate_single_atom():
    got = [b.id for b in enumerate_bases([p], 1, consistent_only=False)]
    assert got == ["{}", "{-> p}", "{p -> p}", "{-> _|_}", "{p -> _|_}"]


def test_enumerate_empty_signature():
    # with no named atoms only the absurdity rule exists, and the default
    # consistency filter leaves just the empty base
    assert [b.id for b in enumerate_bases([], 3)] == ["{}"]
    assert [b.id for b in enumerate_bases([], 3, consistent_only=False)] == ["{}", "{-> _|_}"]


def test_enumerate_consistency_filter_matches_oracle():
    allb = list(enumerate_bases([p, q], 2, consistent_only=False))
    kept = list(enumerate_bases([p, q], 2, consistent_only=True))
    assert [b.id for b in kept] == [b.id for b in allb if is_consistent(b)]


def test_enumerate_rejects_negative_rule_count():
    # like a negative bound, a negative rule count is an input error
    with pytest.raises(BaseError, match="non-negative"):
        list(enumerate_bases([p], -1))
    assert [x.id for x in enumerate_bases([p], 0)] == ["{}"]


def test_enumerate_with_no_rules_builds_no_rule_universe(monkeypatch):
    # 20 atoms have 21 * 2**20 rules; asking for none must not build them
    calls = []
    real = atomic_base.rule_universe
    monkeypatch.setattr(atomic_base, "rule_universe", lambda atoms: calls.append(atoms) or real(atoms))
    atoms = [Atom(chr(ord("a") + i)) for i in range(20)]
    got = list(enumerate_bases(atoms, 0))
    assert len(got) == 1 and got[0].rules == frozenset() and atomic_closure(got[0]) == frozenset()
    assert calls == []
    assert [b.id for b in enumerate_bases([p], 1)] == ["{}", "{-> p}", "{p -> p}", "{p -> _|_}"]
    assert len(calls) == 1


def test_enumerate_cap():
    with pytest.raises(EnumerationCapError):
        list(enumerate_bases([p, q, r], 4, cap=10))


@pytest.mark.parametrize("max_rules, cap, message", [
    (1, None, "cap must be an integer, not None"),
    (None, 200_000, "max_rules must be an integer, not None"),
    ("1", 200_000, "max_rules must be an integer, not '1'"),
    (2.5, 200_000, "max_rules must be an integer, not 2.5"),
    (True, 200_000, "max_rules must be an integer, not True"),
], ids=["cap-None", "max_rules-None", "max_rules-str", "max_rules-float", "max_rules-bool"])
@pytest.mark.parametrize("count", [
    lambda max_rules, cap: list(enumerate_bases([p, q], max_rules, cap=cap)),
    lambda max_rules, cap: search_counterexample((), p, [p, q], max_rules, cap=cap),
], ids=["enumerate_bases", "search_counterexample"])
def test_a_count_that_is_no_integer_is_refused(count, max_rules, cap, message):
    with pytest.raises(BaseError, match=re.escape(message)):
        count(max_rules, cap)


@pytest.mark.parametrize("call", [
    atomic_closure,
    lambda base: derives(base, (), p),
    render_base,
    lambda base: is_derivation_structure(Inf("atm", p, (EmptyTop(),)), base),
    lambda base: atomic_derivation(base, (), p),
    is_consistent,
], ids=["atomic_closure", "derives", "render_base", "is_derivation_structure", "atomic_derivation", "is_consistent"])
@pytest.mark.parametrize("base", [None, "-> p\n", frozenset()], ids=["None", "str", "frozenset"])
def test_a_base_that_is_no_atomic_base_is_refused(call, base):
    with pytest.raises(BaseError, match=f"base must be an AtomicBase, not {type(base).__name__}$"):
        call(base)


def test_base_file_roundtrip():
    text = "# comment\n-> p\np q -> r\n\nq -> bot\n"
    base = parse_base(text)
    again = parse_base(render_base(base))
    assert again.rules == base.rules


def test_base_identity_is_its_rules():
    # the id is a display name: equal rules make one base, different rules two
    assert parse_base("-> p\n", id="one") == parse_base("-> p\n", id="two")
    assert len({parse_base("-> p\n", id="one"), parse_base("-> p\n", id="two")}) == 1
    assert parse_base("-> p\n", id="x") != parse_base("", id="x")
    assert len({parse_base("-> p\n", id="x"), parse_base("", id="x")}) == 2


def test_base_file_errors():
    with pytest.raises(BaseError, match="line 1"):
        parse_base("p q r\n")
    with pytest.raises(BaseError, match="line 2"):
        parse_base("-> p\nbot -> q\n")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_monotone(data):
    atoms = [p, q, r]
    rules = data.draw(
        st.frozensets(
            st.builds(
                AtomicRule,
                st.tuples().map(tuple) | st.tuples(st.sampled_from(atoms)).map(tuple),
                st.sampled_from(atoms + [BOT]),
            ),
            max_size=5,
        )
    )
    more = data.draw(
        st.frozensets(
            st.builds(
                AtomicRule,
                st.tuples(st.sampled_from(atoms), st.sampled_from(atoms)).map(tuple),
                st.sampled_from(atoms),
            ),
            max_size=3,
        )
    )
    small = data.draw(st.frozensets(st.sampled_from(atoms), max_size=2))
    bigger = small | data.draw(st.frozensets(st.sampled_from(atoms), max_size=2))
    b1 = AtomicBase(rules)
    b2 = AtomicBase(rules | more)
    assert atomic_closure(b1, small) <= atomic_closure(b1, bigger)
    assert atomic_closure(b1, small) <= atomic_closure(b2, small)


def _first_rules(base, assumptions):
    # each derived atom with the first rule, in sorted order and pass by
    # pass, whose premises were all derived
    derived = dict.fromkeys(assumptions)
    changed = True
    while changed:
        changed = False
        for rule in base.sorted_rules():
            if rule.conclusion not in derived and all(x in derived for x in rule.premises):
                derived[rule.conclusion] = rule
                changed = True
    return derived


def _chain_agrees(base, assumptions, goals):
    closure = atomic_closure(base, assumptions)
    assert closure == _oracle_closure(base, assumptions)
    first = _first_rules(base, assumptions)
    for goal in goals:
        t = atomic_derivation(base, assumptions, goal)
        assert (t is not None) == (goal in closure) == derives(base, assumptions, goal)
        if t is not None:
            assert is_derivation_structure(t, base, assumptions)
            rule = first[goal]  # the witness is the first rule to fire, or an assumption leaf
            if rule is None:
                assert isinstance(t, Assumption) and t.formula == goal and t.label is None
            else:
                premises = tuple(conclusion_of(x) for x in t.children if not isinstance(x, EmptyTop))
                assert (t.conclusion, premises) == (rule.conclusion, rule.premises)


def test_forward_chain_agrees_with_oracle_exhaustive():
    # every base over a, b with at most three rules, under every assumption set
    for base in enumerate_bases([a, b], 3, consistent_only=False):
        for k in range(3):
            for assumptions in itertools.combinations([a, b], k):
                _chain_agrees(base, frozenset(assumptions), (a, b, BOT))


def test_forward_chain_agrees_with_oracle_random():
    rng = make_rng(7)
    atoms = [Atom(x) for x in "abcd"]
    for _ in range(200):
        rules = set()
        for _ in range(rng.randint(0, 7)):
            prem = tuple(x for x in atoms if rng.random() < 0.3)
            rules.add(AtomicRule(prem, rng.choice(atoms + [BOT])))
        base = AtomicBase(frozenset(rules))
        assumptions = frozenset(x for x in atoms if rng.random() < 0.3)
        _chain_agrees(base, assumptions, atoms + [BOT])
        _chain_agrees(base, frozenset(), atoms + [BOT])


def test_base_chains_and_sorts_once(monkeypatch):
    chains, keys = [], []
    forward, rule_key = atomic_base._forward, atomic_base._rule_key
    monkeypatch.setattr(atomic_base, "_forward", lambda *x: chains.append(x) or forward(*x))
    monkeypatch.setattr(atomic_base, "_rule_key", lambda r: keys.append(r) or rule_key(r))
    base = parse_base("-> p\np -> q\nq r -> bot\n")
    for _ in range(2):
        assert atomic_closure(base) == {p, q} and derives(base, (), q) and is_consistent(base)
        assert is_derivation_structure(atomic_derivation(base, (), q), base)
        assert base.id == base.rules_text() == "{-> p; p -> q; q r -> _|_}"
        assert base.sorted_rules() == base.sorted_rules()
    assert len(chains) == 1 and len(keys) == 3
    # closures under assumptions are computed afresh, never stored
    assert atomic_closure(base, {r}) == {p, q, r, BOT} and derives(base, {r}, BOT)
    assert len(chains) == 3


def test_base_releases_what_it_computed():
    # atoms no other test uses, so no equal base was built before
    base = parse_base("-> held\nheld -> freed\n")
    assert atomic_closure(base) == {Atom("held"), Atom("freed")}
    assert base.id == "{held -> freed; -> held}"
    assert atomic_derivation(base, (), Atom("freed")) is not None and is_consistent(base)
    assert len(base._support[Atom("freed")]) == 2 and (Atom("freed"), ("held",)) in base._rule_index
    ref = weakref.ref(base)
    del base
    gc.collect()
    assert ref() is None

    # an enumerated base, built with its closure, is freed once the enumeration is
    bases = list(enumerate_bases([Atom("gone")], 1))
    base = bases[1]
    del bases
    assert atomic_closure(base) == {Atom("gone")}
    assert base.id == "{-> gone}"
    assert atomic_derivation(base, (), Atom("gone")) is not None and is_consistent(base)
    ref = weakref.ref(base)
    del base
    gc.collect()
    assert ref() is None


def _reference_enumeration(atoms, max_rules, consistent_only):
    # the plain combination loop over rule objects, each base built and
    # chained from its rules
    universe = atomic_base.rule_universe(atoms)
    for size in range(min(max_rules, len(universe)) + 1):
        for combo in itertools.combinations(universe, size):
            base = AtomicBase(frozenset(combo))
            if consistent_only and not is_consistent(base):
                continue
            yield base


def _enumeration_agrees(atoms, max_rules):
    for consistent_only in (True, False):
        got = list(enumerate_bases(atoms, max_rules, consistent_only))
        want = list(_reference_enumeration(atoms, max_rules, consistent_only))
        assert got == want
        assert [b.id for b in got] == [b.id for b in want]
        for base in got:
            closure = atomic_closure(base)
            assert closure == _oracle_closure(base, ()) == atomic_closure(AtomicBase(base.rules))
            assert is_consistent(base) == (BOT not in closure)
            for goal in (*atoms, BOT):
                t = atomic_derivation(base, (), goal)
                assert (t is not None) == (goal in closure)
                assert t is None or is_derivation_structure(t, base)


def test_enumeration_agrees_with_the_reference_loop():
    _enumeration_agrees([a, b], 3)


def test_enumeration_agrees_with_the_reference_loop_random_signatures():
    rng = make_rng(9)
    for _ in range(3):
        atoms = [Atom(x) for x in rng.sample("abcdefghpqrs", 4)]
        _enumeration_agrees(atoms, 2)


def test_rule_keeps_the_dataclass_hash():
    # computed once when the rule is built, the value the frozen dataclass
    # would compute, so every set of rules iterates in the same order
    rules = atomic_base.rule_universe([a, b, p])
    for rule in rules:
        assert hash(rule) == rule._hash == hash((rule.premises, rule.conclusion))
    shuffled = make_rng(5).sample(rules, len(rules))
    as_tuples = [(x.premises, x.conclusion) for x in frozenset(shuffled)]
    assert as_tuples == list(frozenset((x.premises, x.conclusion) for x in shuffled))
    # enumeration order and ids
    assert [x.id for x in enumerate_bases([p, q], 1)] == [
        "{}", "{-> p}", "{p -> p}", "{q -> p}", "{p q -> p}", "{-> q}", "{p -> q}",
        "{q -> q}", "{p q -> q}", "{p -> _|_}", "{q -> _|_}", "{p q -> _|_}",
    ]


def test_base_keeps_the_hash_of_its_rules():
    # computed on first use and kept, the value hash((rules,)) gives, whatever the id
    rules = frozenset(atomic_base.rule_universe([a, b])[:3])
    base, named = AtomicBase(rules), AtomicBase(rules, "named")
    assert "_hash" not in vars(base)
    assert hash(base) == base._hash == hash((rules,)) == hash(named)
    assert [x.id for x in dict.fromkeys([named, base])] == ["named"]  # equal bases count once, the first kept


def test_closures_of_a_family_are_the_small_subsets():
    # a consistent base with k rules derives at most k atoms, one rule each,
    # and the `-> x` axioms of any k atoms form such a base
    for n in range(4):
        atoms = [a, b, p][:n]
        for k in range(4):
            closures = {atomic_closure(x) for x in enumerate_bases(atoms, k)}
            small = {frozenset(s) for j in range(min(k, n) + 1) for s in itertools.combinations(atoms, j)}
            assert closures == small


# --- base facts: derivation supports and the rule index ----------------------

c = Atom("c")


def _walked_support(base, x):
    """x's derivation support as _Search.closed walked it before bases kept
    their supports: x's rule, closed under its premises' rules. The reference."""
    derived, support = base._derived, set()
    todo = [derived[x]]
    while todo:
        rule = todo.pop()
        if rule not in support:
            support.add(rule)
            todo += [derived[y] for y in rule.premises]
    return frozenset(support)


def _supports_agree(base):
    assert base._support == {x: _walked_support(base, x) for x in base._derived}


def test_supports_are_the_walked_supports_on_every_small_base():
    fam = list(enumerate_bases([a, b, c], 2))
    assert len(fam) == 494
    for base in fam:
        _supports_agree(base)
    # with a formula's atoms, the per-atom supports and their union tell the same bases apart
    for k in range(1, 4):
        for atoms in itertools.combinations([a, b, c], k):
            by_union, by_atom = {}, {}
            for i, base in enumerate(fam):
                union = frozenset().union(*[base._support.get(x, ()) for x in atoms])
                by_union.setdefault(union, set()).add(i)
                by_atom.setdefault(tuple(base._support.get(x) for x in atoms), set()).add(i)
            assert sorted(map(sorted, by_union.values())) == sorted(map(sorted, by_atom.values()))


_RULES = st.builds(
    AtomicRule,
    st.lists(st.sampled_from([p, q, r]), max_size=3).map(tuple),  # duplicated premises too
    st.sampled_from([p, q, r, BOT]),
)


@settings(max_examples=200, deadline=None)
@given(st.frozensets(_RULES, max_size=7))
def test_supports_are_the_walked_supports(rules):
    _supports_agree(AtomicBase(rules))


def _scanned_is_derivation_structure(d, base, assumptions=frozenset()):
    """is_derivation_structure as it was written before the rule index: every
    rule of the base scanned at every node, an unlabelled leaf on an
    assumption accepted. The reference."""
    stack = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, Assumption) and node.label is None and node.formula in assumptions:
            continue
        if not isinstance(node, Inf) or node.discharges or not isinstance(node.conclusion, Atom):
            return False
        kids = [ch for ch in node.children if not isinstance(ch, EmptyTop)]
        if not all(isinstance(conclusion_of(ch), Atom) for ch in kids):
            return False
        want = sorted([conclusion_of(ch) for ch in kids], key=lambda x: x.name)
        if not any(
            rule.conclusion == node.conclusion and sorted(rule.premises, key=lambda x: x.name) == want
            for rule in base.rules
        ):
            return False
        stack.extend(kids)
    return True


def _random_node(rng, base, depth, goal=None, shared=None):
    """Mostly a derivation of the goal (any atom when None) on the base, its
    premises permuted; sometimes a missing or extra premise, a non-atomic
    node, an assumption leaf or a discharge. Given a dict for shared, the
    inference first built for a (goal, depth) is mostly used again, the same
    object, where that pair recurs: premise subtrees are shared."""
    if shared is not None and (goal, depth) in shared and rng.random() < 0.8:
        return shared[goal, depth]
    roll = rng.random()
    if roll < 0.03:
        return Assumption(goal or p)
    if roll < 0.06:
        return Inf("andI", Conj(p, q), (EmptyTop(),))
    rules = sorted([x for x in base.rules if goal in (None, x.conclusion)], key=str)
    if not rules or not depth or roll > 0.95:
        return Inf("atm", goal or rng.choice([p, q, r, BOT]), (EmptyTop(),))
    rule = rng.choice(rules)
    premises = list(rule.premises)
    rng.shuffle(premises)
    if rng.random() < 0.05 and premises:
        premises.pop()
    if rng.random() < 0.05:
        premises.append(rng.choice([p, q, r]))
    kids = tuple(_random_node(rng, base, depth - 1, x, shared) for x in premises) or (EmptyTop(),)
    node = Inf("atm", rule.conclusion, kids, frozenset({1}) if rng.random() < 0.02 else frozenset())
    if shared is not None:
        shared.setdefault((goal, depth), node)
    return node


@settings(max_examples=200, deadline=None)
@given(st.frozensets(_RULES, max_size=6), st.integers(0, 2**32 - 1))
def test_is_derivation_structure_agrees_with_the_rule_scan(rules, seed):
    base, rng = AtomicBase(rules), make_rng(seed)
    for _ in range(10):
        d = _random_node(rng, base, rng.randint(0, 4))
        assert is_derivation_structure(d, base) == _scanned_is_derivation_structure(d, base)
        assert is_derivation_structure(d, base, {p, q}) == _scanned_is_derivation_structure(d, base, {p, q})


@settings(max_examples=200, deadline=None)
@given(st.frozensets(_RULES, max_size=6), st.integers(0, 2**32 - 1))
def test_is_derivation_structure_agrees_with_the_rule_scan_on_shared_premises(rules, seed):
    # a class accepted once is skipped after: a shared subtree, broken or not, must count alike everywhere
    base, rng, shared = AtomicBase(rules), make_rng(seed), {}
    for _ in range(10):
        d = _random_node(rng, base, rng.randint(0, 5), shared=shared)
        assert is_derivation_structure(d, base) == _scanned_is_derivation_structure(d, base)
        assert is_derivation_structure(d, base, {p, q}) == _scanned_is_derivation_structure(d, base, {p, q})


def test_is_derivation_structure_on_a_duplicated_premise_and_a_non_atomic_node():
    base = AtomicBase(frozenset({AtomicRule((p, p), q), AtomicRule((), p), AtomicRule((p, r), q)}))
    leaf = Inf("atm", p, (EmptyTop(),))
    cases = {
        Inf("atm", q, (leaf, leaf)): True,  # p p -> q
        Inf("atm", q, (leaf,)): False,  # p -> q is not a rule: the premise is not duplicated
        Inf("atm", q, (leaf, leaf, leaf)): False,
        Inf("atm", q, (Inf("atm", r, (EmptyTop(),)), leaf)): False,  # r is no derivation here
        Inf("atm", q, (leaf, Inf("andI", Conj(p, p), (leaf, leaf)))): False,  # a non-atomic premise
        Inf("andI", Conj(p, p), (leaf, leaf)): False,  # a non-atomic conclusion
    }
    for d, want in cases.items():
        assert is_derivation_structure(d, base) == _scanned_is_derivation_structure(d, base) == want
    # permuted premises of p r -> q, with r made derivable
    with_r = AtomicBase(base.rules | {AtomicRule((), r)})
    r_leaf = Inf("atm", r, (EmptyTop(),))
    for kids in ((leaf, r_leaf), (r_leaf, leaf)):
        d = Inf("atm", q, kids)
        assert is_derivation_structure(d, with_r) and _scanned_is_derivation_structure(d, with_r)
