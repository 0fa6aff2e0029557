import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import (
    Atom,
    AtomicBase,
    AtomicRule,
    BOT,
    BaseError,
    EnumerationCapError,
    atomic_closure,
    atomic_derivation,
    derives,
    enumerate_bases,
    is_consistent,
    parse_base,
    render_base,
)

from genlib import make_rng

p, q, r = Atom("p"), Atom("q"), Atom("r")
a = Atom("a")

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
    assert t.check(PQ)
    assert t.children and t.children[0].conclusion == p

    leaf = atomic_derivation(PQ, {a}, a)
    assert leaf is not None and leaf.rule is None
    assert leaf.check(PQ, frozenset({a}))


def test_derivation_iff_derives_exhaustive_small():
    # every base over two atoms with at most two rules, goals across the signature
    for base in enumerate_bases([p, q], 2, consistent_only=False, cap=10**6):
        for goal in (p, q, BOT):
            t = atomic_derivation(base, (), goal)
            assert (t is not None) == derives(base, (), goal)
            if t is not None:
                assert t.check(base)


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


def test_enumerate_cap():
    with pytest.raises(EnumerationCapError):
        list(enumerate_bases([p, q, r], 4, cap=10))


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
