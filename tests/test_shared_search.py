"""Successive `valid` and `consequence` calls with equal bounds share one
search (validity._shared_search): its tables are keyed by content, so a call
reads back what an earlier one computed and answers as it would from a cold
search. The module holds one search per `Bounds` value, so calls with other
bounds in between leave it be; a call replaces the search of its own value
for sigma candidates that differ in labels, and drops every held search once
their tables together pass validity._SHARED_LIMIT. `recheck_invalid` never
reads or fills any of them."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import (
    BOT,
    Argument,
    Assumption,
    Atom,
    Bounds,
    Conj,
    Disj,
    Impl,
    Inf,
    JustificationSet,
    axiom_structure,
    choice_justification,
    consequence,
    em_refutation_rule,
    enumerate_bases,
    negation,
    or_detour,
    parse_base,
    parse_structure,
    recheck_invalid,
    valid,
)
from ptslab import validity
from ptslab.validity import CONSEQUENCE_VARIANTS

from genlib import all_formulas

a, b = Atom("a"), Atom("b")
EM_A = Disj(a, negation(a))
FAM_AB = list(enumerate_bases([a, b], 2))
DEPTH_2 = all_formulas([a, b, BOT], 2)


def _em_candidate(kind: str, f) -> Argument:
    """The excluded-middle axiom for f, with the choice function over
    enumerate_bases([a], 1) and or_detour(), or with em_refutation_rule()."""
    ax = axiom_structure(Disj(f, negation(f)))
    if kind == "choice":
        return Argument(ax, JustificationSet((choice_justification(f, enumerate_bases([a], 1)), or_detour())))
    return Argument(ax, JustificationSet((em_refutation_rule(),)))


def _outcome(call) -> str:
    """The repr of a consequence call's verdict, or of a ("valid", arg, base,
    bounds) call's, or of a ("recheck", arg, base, bounds) call's verdict and
    recheck."""
    try:
        if call[0] == "valid":
            return repr(valid(*call[1:]))
        if call[0] == "recheck":
            v = valid(*call[1:])
            return repr((v, recheck_invalid(*call[1:], v)))
        return repr(consequence(*call))
    except Exception as e:  # a refusal is an outcome too, and must not depend on what came before
        return f"{type(e).__name__}: {e}"


def _cold(call) -> str:
    validity._shared.clear()
    return _outcome(call)


def _size(search) -> int:
    return len(search._verdicts) + sum(map(len, search._steps.values()))


def _held() -> list:
    """The held searches, in the order their bounds values were first held."""
    return list(validity._shared.values())


A_A = Impl(a, a)


def _identity(label: int):
    """a -> a introduced over the leaf a, discharged under the label."""
    return Inf("impI", A_A, (Assumption(a, label),), frozenset({label}))


def _pooled(label: int) -> Bounds:
    """Bounds whose one sigma candidate is _identity(label), and nothing synthesized."""
    return Bounds(synthesize_sigma=False, sigma_candidates=(_identity(label),))


# the last two are equal bounds whose pools differ in labels only: a failing instance's sigma holds the
# pool's structures; so the four make three Bounds values
BOUNDS = [Bounds(), Bounds(max_reduction_steps=2), _pooled(1), _pooled(7)]
VALUES = [BOUNDS[:1], BOUNDS[1:2], BOUNDS[2:]]


def _from_a_a(f) -> Argument:
    """An open argument for f from a -> a, with no steps: Invalid where f
    is not derived, through a failing instance on a -> a."""
    return Argument(Inf("step", f, (Assumption(A_A),)), JustificationSet())


@st.composite
def _calls(draw, value):
    """A consequence call, or a valid or recheck_invalid call on one of
    its candidates or on an open argument from a -> a, with bounds of the
    value."""
    variant = draw(st.sampled_from(CONSEQUENCE_VARIANTS))
    f = draw(st.sampled_from(DEPTH_2))
    context = tuple(draw(st.lists(st.sampled_from(DEPTH_2), max_size=1)))
    kind = draw(st.sampled_from([None, "choice", "em_refute", "from_a_a"]))
    if kind is None:
        goal, candidates = f, ()
    elif kind == "from_a_a":
        goal, candidates, context = f, (_from_a_a(f),), (*context, A_A)
    else:
        goal, candidates = Disj(f, negation(f)), (_em_candidate(kind, f),)
    family = draw(st.permutations(FAM_AB))[: draw(st.integers(1, len(FAM_AB)))]
    bounds = draw(st.sampled_from(value))
    call = draw(st.sampled_from(["consequence", "valid", "recheck"]))
    if call == "consequence":
        return variant, context, goal, family, bounds, candidates
    return call, candidates[0] if candidates else _from_a_a(f), family[0], bounds


@st.composite
def _sessions(draw):
    """Two to six calls with one, two or three Bounds values, interleaved:
    each value has a call in turn, then any of them, and the first value
    comes back last, so a value's search is read again after the others'."""
    values = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3, unique_by=id))
    middle = draw(st.lists(st.sampled_from(values), max_size=5 - len(values)))
    return [draw(_calls(value)) for value in [*values, *middle, values[0]]]


def _answers(calls, run) -> list:
    """Per call, run(call) and the reprs of the valid calls it made, in order."""
    nested, real = [], validity.valid

    def recorded(*args, **kwargs):
        v = real(*args, **kwargs)
        nested.append(repr(v))
        return v

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validity, "valid", recorded)
        for call in calls:
            nested.clear()
            out.append((run(call), list(nested)))
    return out


@settings(max_examples=160, deadline=None)
@given(st.one_of(st.lists(_calls(BOUNDS), min_size=2, max_size=6), _sessions()))
def test_a_call_on_the_shared_search_answers_as_on_a_cold_one(calls):
    validity._shared.clear()
    assert _answers(calls, _outcome) == _answers(calls, _cold)


def test_equal_bounds_whose_pools_differ_in_labels_answer_with_their_own_pool():
    assert _pooled(1) == _pooled(7)
    base, arg = parse_base("-> a\n-> b\n"), _from_a_a(b)
    for first, then in [
        (("delta", (A_A,), b, [base], _pooled(1), [arg]), ("delta", (A_A,), b, [base], _pooled(7), [arg])),
        (("valid", arg, base, _pooled(1)), ("valid", arg, base, _pooled(7))),
    ]:
        validity._shared.clear()
        warm = _answers([first, then], _outcome)[1]
        assert warm == _answers([then], _cold)[0]
        assert "label=7" in repr(warm) and "label=1" not in repr(warm)


CALLS = [
    ("delta-star", (), EM_A, FAM_AB),
    ("delta", (a,), Disj(a, b), FAM_AB),
    ("delta-sh", (), Impl(a, Conj(a, a)), FAM_AB),
    ("delta", (), Disj(Conj(a, b), negation(Conj(a, b))), FAM_AB),
    ("delta-s", (), EM_A, FAM_AB),
]


@pytest.mark.parametrize("name", ["is_derivation_structure", "synthesize_closed"])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_call_cut_short_leaves_the_shared_search_whole(monkeypatch, name, k):
    cold = [_cold(call) for call in CALLS]
    real, made = getattr(validity, name), []

    def cut(*args):
        made.append(args)
        if len(made) == k:
            raise RuntimeError("cut short")
        return real(*args)

    validity._shared.clear()
    assert _outcome(CALLS[0]) == cold[0]
    monkeypatch.setattr(validity, name, cut)
    with pytest.raises(RuntimeError, match="cut short"):
        consequence(*CALLS[3])
    monkeypatch.undo()
    assert [_outcome(call) for call in reversed(CALLS)] == cold[::-1]


def test_calls_with_equal_bounds_share_one_search():
    consequence(*CALLS[0], Bounds())
    [held] = _held()
    consequence(*CALLS[1], Bounds())  # an equal value, not the same object
    assert _held() == [held]
    consequence("delta", (), a, [parse_base("b -> a\n")])  # returns before a check: nothing is made
    assert _held() == [held]
    consequence(*CALLS[1], Bounds(max_reduction_steps=2))  # another value: a search of its own
    [first, other] = _held()
    assert first is held and other.bounds == Bounds(max_reduction_steps=2)
    consequence(*CALLS[2], Bounds())  # back to the first value: its search, tables and all
    assert _held() == [held, other]
    # a pool that differs in labels only replaces the search of its own value, and no other
    base, arg = parse_base("-> a\n-> b\n"), _from_a_a(b)
    valid(arg, base, _pooled(1))
    pooled = _held()[2]
    valid(arg, base, _pooled(7))
    [first, second, third] = _held()
    assert (first, second) == (held, other) and third is not pooled and third.bounds == _pooled(7)


# per field of Bounds, a value unequal to its default
OTHER = {"max_reduction_steps": 2, "max_structure_size": 50, "sigma_candidates": (_identity(1),),
         "extensions": (JustificationSet((or_detour(),)),), "synthesize_sigma": False}


def test_the_map_key_tells_apart_bounds_that_differ_in_any_field():
    assert set(OTHER) == set(Bounds._fields) and len(Bounds()._key) == len(Bounds._fields)
    for name, value in OTHER.items():
        other = Bounds(**{name: value})
        assert other != Bounds() and other._key != Bounds()._key, name
        consequence(*CALLS[1], other)
    assert len(_held()) == len(OTHER)
    # equal values key alike: built afresh, with a relabelled pool, or copied (the copy builds it again)
    assert Bounds()._key == Bounds()._key and _pooled(1)._key == _pooled(7)._key == copy.deepcopy(_pooled(1))._key


def test_a_search_past_the_limit_is_replaced(monkeypatch):
    # the cap counts the tables of every held search together, and drops them all
    small = ("delta", (), a, [parse_base("-> a\n")])
    two = Bounds(max_reduction_steps=2)
    calls = [small, (*small, two), small, CALLS[0], (*small, two), small, *CALLS[1:], (*CALLS[0], two)]
    cold = [_cold(call) for call in calls]
    monkeypatch.setattr(validity, "_SHARED_LIMIT", 5)
    validity._shared.clear()
    got, dropped, held_two = [], [], False
    for call in calls:
        before = _held()
        total = sum(map(_size, before))
        got.append(_outcome(call))
        kept = [s for s in before if any(s is t for t in _held())]
        assert kept == ([] if total > 5 else before)
        dropped.append(total > 5)
        held_two |= len(_held()) == 2
    assert got == cold
    assert any(dropped) and not all(dropped) and held_two


def test_a_session_that_alternates_two_bounds_builds_one_search_per_value(monkeypatch):
    made, real = [], validity._Search.__init__
    monkeypatch.setattr(validity._Search, "__init__", lambda self, bounds: made.append(bounds) or real(self, bounds))
    base, arg = parse_base("-> a\n"), _from_a_a(b)
    rechecks = 0
    for call in CALLS * 2:
        for bounds in (Bounds(), _pooled(1)):
            consequence(*call, bounds)
            v = valid(arg, base, bounds)
            assert v.is_invalid
            before = len(made)
            assert recheck_invalid(arg, base, bounds, v)
            assert len(made) == before + 1  # a recheck makes one search of its own
            rechecks += 1
    assert len(made) - rechecks == 2
    assert [s.bounds for s in _held()] == [Bounds(), _pooled(1)]


def _count_closed(monkeypatch) -> list:
    made = []
    real = validity._Checker._closed

    def counted(self, *args):
        made.append(args[0])
        return real(self, *args)

    monkeypatch.setattr(validity._Checker, "_closed", counted)
    return made


EXHAUSTED = Argument(axiom_structure(EM_A), JustificationSet((em_refutation_rule(),)))  # Invalid where a holds
FAILING = Argument(parse_structure('(inf step "b" (assume "a"))'), JustificationSet())  # Invalid on -> a, -> b


CASES = pytest.mark.parametrize("arg, base, call", [
    (EXHAUSTED, parse_base("-> a\n"), ("delta-s", (), EM_A, FAM_AB, Bounds(), [EXHAUSTED])),
    (FAILING, parse_base("-> a\n-> b\n"), ("delta", (a,), b, [parse_base("-> a\n-> b\n")], Bounds(), [FAILING])),
], ids=["exhausted", "failing-instance"])


@CASES
def test_recheck_invalid_never_reads_or_fills_the_shared_search(monkeypatch, arg, base, call):
    v = valid(arg, base)
    assert v.is_invalid
    made = _count_closed(monkeypatch)

    def rechecked() -> int:
        made.clear()
        assert recheck_invalid(arg, base, Bounds(), v)
        return len(made)

    def held() -> list:
        return [(s, _size(s)) for s in _held()]

    validity._shared.clear()
    cold = rechecked()
    assert validity._shared == {}
    consequence(*call)
    consequence(*call[:4], Bounds(max_reduction_steps=2), call[5])  # a second held search
    before = held()
    assert len(before) == 2 and all(size > 0 for _s, size in before)
    assert rechecked() == cold
    after = held()
    assert all(s is t and n == m for (s, n), (t, m) in zip(before, after)) and len(after) == 2


@CASES
def test_valid_answers_on_the_shared_search_as_on_a_cold_one(monkeypatch, arg, base, call):
    made = _count_closed(monkeypatch)
    cold = repr(valid(arg, base))
    computed = len(made)
    validity._shared.clear()
    consequence(*call)
    held = _held()
    made.clear()
    assert repr(valid(arg, base)) == cold
    # the consequence call filed the verdict, and valid reads it back from the held search
    assert len(made) == 0 < computed and _held() == held
