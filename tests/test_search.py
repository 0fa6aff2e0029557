"""The family search: a consequence call's bases share its step and verdict
tables, each check reads a fresh reduct stream once, the stream stops at the
first qualifying reduct, and a recheck of a verdict searches afresh."""

import gc
import os
import random
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import (
    Argument,
    Assumption,
    Atom,
    Bounds,
    Conj,
    Disj,
    EmptyTop,
    ExhaustedSearch,
    Impl,
    Inf,
    JustificationSet,
    analyze,
    axiom_structure,
    canonical_key,
    choice_justification,
    consequence,
    em_refutation_rule,
    enumerate_bases,
    immediate_substructures,
    instantiate,
    is_canonical,
    negation,
    or_detour,
    parse_base,
    parse_structure,
    recheck_invalid,
    valid,
)
from ptslab import argument, justification, validity
from ptslab.argument import relabel
from ptslab.justification import reach

from genlib import BOT, all_formulas, random_closed_structure, random_detour_redex, random_formula, random_sigma

a, b, p = Atom("a"), Atom("b"), Atom("p")
EM_A = Disj(a, negation(a))


def _count_step_candidates(monkeypatch) -> Counter:
    """Count the one-step searches (justification._one_step, the core under
    step_candidates) per (step source, structure key)."""
    seen: Counter = Counter()
    real = justification._one_step

    def counted(src, d, base, table, walk):
        seen[(src, canonical_key(d))] += 1
        return real(src, d, base, table, walk)

    monkeypatch.setattr(justification, "_one_step", counted)
    return seen


def _cold_valid(arg, base, bounds=Bounds()):
    """The verdict on a cold search of its own, not the held one."""
    return valid(arg, base, bounds, _search=validity._Search(bounds))


def _record_valid(monkeypatch) -> list:
    """Record (argument, base, verdict) for every valid call consequence makes."""
    out = []
    real = validity.valid

    def recorded(arg, base, bounds=Bounds(), **kwargs):
        v = real(arg, base, bounds, **kwargs)
        out.append((arg, base, v))
        return v

    monkeypatch.setattr(validity, "valid", recorded)
    return out


@pytest.mark.parametrize("variant", ["delta-star", "delta-sh"])
def test_family_searches_each_structure_once(monkeypatch, variant):
    seen = _count_step_candidates(monkeypatch)
    fam = list(enumerate_bases([a, b], 2))
    assert len(fam) == 65
    assert consequence(variant, [], EM_A, fam).is_valid
    ax = canonical_key(axiom_structure(EM_A))
    assert any(key == ax for _src, key in seen)  # the start was searched
    assert max(seen.values()) == 1, seen.most_common(3)


def test_choice_function_search_stays_per_base(monkeypatch):
    # the table covers every other base: a selection leaking across bases
    # would make the uncovered ones valid
    fam = list(enumerate_bases([a, b], 2))
    ch = choice_justification(a, fam[::2])
    cand = Argument(axiom_structure(EM_A), JustificationSet((ch,)))
    calls = _record_valid(monkeypatch)
    assert consequence("delta-star", [], EM_A, fam, candidates=[cand]).is_valid
    # the candidate falls at its first Invalid base, the first one the table leaves out
    assert [base for arg, base, _v in calls if arg == cand] == fam[:2]
    monkeypatch.undo()
    # so the family's shared search is driven over every base directly
    seen = _count_step_candidates(monkeypatch)
    search = validity._Search(Bounds())
    got = [valid(cand, base, _search=search) for base in fam]
    assert seen[(cand.steps, canonical_key(cand.structure))] == len(fam)
    monkeypatch.undo()
    fresh = [_cold_valid(cand, base) for base in fam]
    assert [repr(v) for v in got] == [repr(v) for v in fresh]
    assert {v.status for v in fresh} == {"valid", "invalid"}


class _DrainingChecker(validity._Checker):
    """The checker's closed clause as it was before the early stop: the whole
    search is drained with reach, then scanned for a qualifying reduct. Every
    immediate substructure of a canonical reduct is checked; an Invalid one
    refutes the reduct, whatever the others are."""

    def _closed(self, d, steps, atomic):
        reached, bound_hit = reach(
            steps,
            d,
            self.base,
            max_steps=self.bounds.max_reduction_steps,
            max_size=self.bounds.max_structure_size,
        )
        saw_unknown = bound_hit
        for r, depth in reached.values():
            if atomic:
                if validity.is_derivation_structure(r, self.base):
                    return validity.Verdict.valid(
                        f"reduces to a derivation on the base in {depth} step(s)"
                    )
                continue
            if not is_canonical(r) or not analyze(r).closed:
                continue
            sub_verdicts = [self.check(s, steps) for s in immediate_substructures(r)]
            if all(v.is_valid for v in sub_verdicts):
                return validity.Verdict.valid(
                    f"canonical reduct at depth {depth} with valid immediate substructures"
                )
            if not any(v.is_invalid for v in sub_verdicts):
                saw_unknown = True
        if saw_unknown:
            return validity.Verdict.unknown("reduction bound hit before a qualifying reduct was found")
        kind = "closed derivation" if atomic else "canonical reduct with valid substructures"
        return validity.Verdict.invalid(
            f"search exhausted: no {kind} among {len(reached)} reduct(s)",
            witness=ExhaustedSearch(canonical_key(d), tuple(reached), self.bounds.max_reduction_steps),
        )


TWO_BASES = [parse_base("-> a\na -> b\n"), parse_base("-> c\nc -> a\n")]
DETOUR_STEPS = JustificationSet((or_detour(), em_refutation_rule()))


def _random_argument(rng: random.Random) -> Argument:
    pick = rng.random()
    if pick < 0.4:
        d = random_detour_redex(rng)
    elif pick < 0.8:
        d = random_detour_redex(rng)
        d = instantiate(d, random_sigma(rng, d))
    elif pick < 0.9:
        g = random_formula(rng, 2)
        d = axiom_structure(Disj(g, negation(g)))
    else:
        d = random_closed_structure(rng, random_formula(rng, 2), rng.randint(1, 3))
    return Argument(d, DETOUR_STEPS)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0, 1, 2, 10]))
def test_early_stop_keeps_every_verdict(seed, max_steps):
    rng = random.Random(seed)
    arg = _random_argument(rng)
    bounds = Bounds(max_reduction_steps=max_steps)
    search = validity._Search(bounds)  # shared across the two bases, as consequence does
    for base in TWO_BASES:
        got = valid(arg, base, bounds, _search=search)
        want = _DrainingChecker(base, validity._Search(bounds)).check(arg.structure, arg.steps)
        assert repr(got) == repr(want)


def test_early_stop_reference_sees_every_status():
    # the property above is only as good as the verdicts its inputs reach
    statuses = Counter()
    for seed in range(120):
        arg = _random_argument(random.Random(seed))
        for base in TWO_BASES:
            for max_steps in (0, 10):
                bounds = Bounds(max_reduction_steps=max_steps)
                v = _DrainingChecker(base, validity._Search(bounds)).check(arg.structure, arg.steps)
                statuses[v.status] += 1
    assert all(statuses[s] for s in ("valid", "invalid", "unknown")), statuses


def test_recheck_invalid_searches_afresh(monkeypatch):
    seen = _count_step_candidates(monkeypatch)
    arg = Argument(Inf("atm", p, (EmptyTop(),)), JustificationSet((or_detour(),)))
    base = TWO_BASES[0]
    v = valid(arg, base)
    assert v.is_invalid and isinstance(v.witness, ExhaustedSearch)
    before = sum(seen.values())
    assert before > 0
    assert recheck_invalid(arg, base, Bounds(), v)
    assert sum(seen.values()) == 2 * before


def _wide(width: int) -> str:
    """The detour-search workload's wide shape: a right-nested andI tree over
    `width` or-detours on x, any subset of which a reduct may have removed."""

    def detour(label):
        return (
            f'(inf orE "x" (inf orI1 "x | y" (inf atm "x" (empty))) (assume "x" :label {label}) '
            f'(inf k "x" (assume "y" :label {label + 1})) :discharge ({label} {label + 1}))'
        )

    text, concl = detour(1), "x"
    for i in range(1, width):
        concl = f"x & ({concl})" if " " in concl else f"x & {concl}"
        text = f'(inf andI "{concl}" {detour(2 * i + 1)} {text})'
    return text


WIDE_4 = Argument(parse_structure(_wide(4)), JustificationSet((or_detour(),)))


def test_each_class_is_stepped_once_per_search(monkeypatch):
    # the substructures' streams meet reducts the outer stream has stepped
    seen = _count_step_candidates(monkeypatch)
    walked = Counter()
    real_walk = justification._positioned
    monkeypatch.setattr(
        justification, "_positioned", lambda d, **kw: walked.update([canonical_key(d)]) or real_walk(d, **kw)
    )
    search = validity._Search(Bounds())
    assert valid(WIDE_4, parse_base("-> y\n"), Bounds(), _search=search).is_invalid
    assert max(seen.values()) == 1, seen.most_common(3)
    # every stream stepping its own reducts made 55 one-step searches for 30 of these classes;
    # stepping substructures adds the 31st, the detours' major premise (inf orI1 ...)
    assert len(seen) == sum(seen.values()) == 31 < 55
    # one position walk per stepped class: the walk that finds a class's label-closed parts
    # is the one its step reads (there were two)
    assert walked == Counter(key for _src, key in seen)


def test_stepping_neither_hashes_nor_compares_a_structure(monkeypatch):
    # the step table is keyed by class key alone
    calls = Counter()
    for name in ("__hash__", "__eq__"):
        real = getattr(argument._Node, name)
        monkeypatch.setattr(argument._Node, name, lambda *x, _name=name, _real=real: calls.update([_name]) or _real(*x))
    reached, _bound = reach(WIDE_4.steps, WIDE_4.structure)
    assert len(reached) > 1 and calls == Counter()


def _watch_reducts(monkeypatch) -> list:
    """Weak references to every reduct a one-step search returns."""
    refs = []
    real = justification._one_step

    def watched(src, d, base, table, walk):
        out = real(src, d, base, table, walk)
        refs.extend(weakref.ref(r) for r in out)
        return out

    monkeypatch.setattr(justification, "_one_step", watched)
    return refs


def test_a_search_leaves_no_cycle(monkeypatch):
    # a reference cycle through a search would keep its reducts until the cyclic collector runs
    refs = _watch_reducts(monkeypatch)
    fam = list(enumerate_bases([a, b], 2))
    gc.disable()
    try:
        # a fresh argument and a verdict dropped at once: the caller keeps no reduct
        wide = Argument(parse_structure(_wide(4)), WIDE_4.steps)
        assert valid(wide, parse_base("-> y\n")).is_invalid
        del wide
        kept = len(refs)
        assert kept > 0
        # the reducts of a valid call and a consequence call are held by the shared search, and freed with it
        assert consequence("delta-star", [], EM_A, fam).is_valid
        assert len(refs) > kept
        validity._shared.clear()
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# --- the verdict table: one verdict per read set -----------------------------

FAM_AB = list(enumerate_bases([a, b], 2))
DEPTH_2 = all_formulas([a, b, BOT], 2)


@pytest.mark.parametrize("variant", ["delta", "delta-star", "delta-sh"])
def test_a_shared_verdict_is_the_fresh_verdict(monkeypatch, variant):
    # every goal with no context and with each one-formula context: most verdicts come from the table
    calls = _record_valid(monkeypatch)
    for goal in DEPTH_2:
        for context in [()] + [(h,) for h in DEPTH_2]:
            consequence(variant, context, goal, FAM_AB)
    monkeypatch.undo()
    assert len(calls) > len(DEPTH_2) * len(FAM_AB)
    for arg, base, v in calls:
        assert repr(v) == repr(_cold_valid(arg, base))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_a_search_shared_by_the_family_gives_the_fresh_verdicts(seed):
    # a part's verdict differs between bases more often here than in a consequence call
    rng = random.Random(seed)
    args = [_random_argument(rng) for _ in range(3)]
    search = validity._Search(Bounds())
    for arg in args:
        for base in FAM_AB:
            assert repr(valid(arg, base, _search=search)) == repr(_cold_valid(arg, base))


def test_a_choice_verdict_is_the_fresh_verdict(monkeypatch):
    # the selection differs between bases, so a verdict shared across them would differ from a fresh one
    calls = _record_valid(monkeypatch)
    for f in DEPTH_2:
        em = Disj(f, negation(f))
        cand = Argument(axiom_structure(em), JustificationSet((choice_justification(f, enumerate_bases([a], 1)),)))
        consequence("delta-star", [], em, FAM_AB, candidates=[cand])
    monkeypatch.undo()
    chosen = [(arg, base, v) for arg, base, v in calls if arg.steps._dispatch.choice]
    assert {v.status for _arg, _base, v in chosen} == {"valid", "invalid"}
    for arg, base, v in calls:
        assert repr(v) == repr(_cold_valid(arg, base))


def _count_checks(monkeypatch) -> tuple[Counter, Counter]:
    """Count check calls and computed verdicts (_closed and _open calls) per (structure, steps)."""
    checked, computed = Counter(), Counter()
    for name, seen in (("check", checked), ("_closed", computed), ("_open", computed)):

        def counted(self, d, steps, *rest, _real=getattr(validity._Checker, name), _seen=seen):
            _seen[(d, steps)] += 1
            return _real(self, d, steps, *rest)

        monkeypatch.setattr(validity._Checker, name, counted)
    return checked, computed


def test_a_family_computes_each_verdict_once_per_read_set(monkeypatch):
    checked, computed = _count_checks(monkeypatch)
    goal = Disj(Conj(a, b), negation(Conj(a, b)))
    assert consequence("delta-star", [], goal, FAM_AB).is_valid
    (pooled,) = [key for key in checked if key[0] == axiom_structure(goal)]
    # checked once per class of bases with equal live rules, 8 of the 65
    assert checked[pooled] == len(list(validity._representatives(FAM_AB))) == 8 and computed[pooled] < 8
    assert sum(computed.values()) < sum(checked.values())
    # a choice function's steps read the base itself: its verdicts stay per base
    checked.clear()
    computed.clear()
    cand = Argument(axiom_structure(goal), JustificationSet((choice_justification(Conj(a, b), FAM_AB),)))
    assert consequence("delta-star", [], goal, FAM_AB, candidates=[cand]).is_valid
    assert computed[(cand.structure, cand.steps)] == checked[(cand.structure, cand.steps)] == len(FAM_AB)


# --- pooled instances, pairs and images: each distinct one once ------------

WEAKEN = ([a], Disj(a, b))  # X |- X | Y


def test_pooled_instances_are_built_once_per_distinct_sigma(monkeypatch):
    built = []
    real = validity.instantiate
    monkeypatch.setattr(validity, "instantiate", lambda d, sigma: built.append(sigma) or real(d, sigma))
    context, goal = WEAKEN
    search = validity._Search(Bounds())
    d = validity._uniform_structure(context, goal)
    per_base = validity._uniform_instances(search, d, context, goal, FAM_AB)
    sigmas = {tuple(map(id, sigma.values())) for sigma in built}
    assert len(built) == len(sigmas) == 2 < len(per_base)
    # bases whose sigmas are one object share one instance, the one a fresh instantiation gives
    for base, inst, _target in per_base:
        sigma = validity._default_sigma(search, base, context)
        assert repr(inst) == repr(real(d, sigma))


def test_an_instance_is_built_once_per_sigma_up_to_relabelling(monkeypatch):
    built = []
    real = validity.instantiate
    monkeypatch.setattr(validity, "instantiate", lambda d, sigma: built.append(sigma) or real(d, sigma))
    f = Impl(a, a)
    s = Inf("impI", f, (Assumption(a, 1),), frozenset({1}))
    d = Inf("k", b, (Assumption(f),))
    search = validity._Search(Bounds())
    inst = search.instance(d, {f: s})
    assert search.instance(d, {f: relabel(s, {1: 7})}) is inst and len(built) == 1


@pytest.mark.parametrize("variant", ["delta-star", "delta-sh"])
def test_the_checker_takes_the_pooled_instances_from_the_search(monkeypatch, variant):
    # the open pooled structure is instantiated by the checker with the sigmas the pool was built from
    built = []
    real = validity.instantiate
    monkeypatch.setattr(validity, "instantiate", lambda d, sigma: built.append((d, tuple(map(id, sigma.values()))))
                        or real(d, sigma))
    context, goal = WEAKEN
    assert consequence(variant, context, goal, FAM_AB).is_valid
    assert len(built) == len(set(built)) == 2


@pytest.mark.parametrize("variant", ["delta-star", "delta-sh"])
@pytest.mark.parametrize("context, goal", [WEAKEN, ([], EM_A)])
def test_pooled_pairs_and_images_are_checked_once_each(monkeypatch, variant, context, goal):
    checked = []
    real = justification._check_contract
    monkeypatch.setattr(justification, "_check_contract", lambda *x: checked.append(x[1:]) or real(*x))
    assert consequence(variant, context, goal, FAM_AB).is_valid
    assert len(checked) == len(set(checked))  # pairs and images equal up to relabelling count as one


POOL_TEXT = '(inf orI2 "a | a" (inf atm "a" (empty)))'


def test_no_table_hashes_or_compares_a_structure(monkeypatch):
    # every table of the library keys a structure by its class key: neither
    # the search's tables, nor the map of held searches (keyed by bounds that
    # hold sigma candidates), nor the step sources' call _Node.__hash__ or __eq__;
    # nor does building a step source, whose rewrite rules keep their hashes
    # though their patterns hold (empty) nodes
    pooled, again = (Bounds(sigma_candidates=(parse_structure(POOL_TEXT),)) for _ in range(2))
    extended = Bounds(extensions=(JustificationSet((em_refutation_rule(),)),))
    assert pooled == again and pooled.sigma_candidates[0] is not again.sigma_candidates[0]
    open_arg = Argument(parse_structure('(inf step "b" (assume "a | a"))'), JustificationSet((or_detour(),)))
    package, calls = os.path.dirname(validity.__file__), Counter()
    for name in ("__hash__", "__eq__"):
        def counted(*x, _name=name, _real=getattr(argument._Node, name)):
            caller = sys._getframe(1).f_code
            if caller.co_filename.startswith(package):
                calls[(_name, caller.co_name)] += 1
            return _real(*x)
        monkeypatch.setattr(argument._Node, name, counted)
    context, goal = WEAKEN
    for variant in ("delta-star", "delta-sh"):
        assert consequence(variant, context, goal, FAM_AB).is_valid
    assert valid(WIDE_4, parse_base("-> x\n")).is_valid
    base = parse_base("-> y\n")
    v = valid(WIDE_4, base)
    assert v.is_invalid and recheck_invalid(WIDE_4, base, Bounds(), v)
    # candidate bounds as one object and as an equal one of re-parsed candidates, between default bounds
    ab = parse_base("-> a\n-> b\n")
    for bounds in (pooled, Bounds(), again, Bounds(), pooled, again):
        assert valid(open_arg, ab, bounds).is_invalid
        assert valid(WIDE_4, parse_base("-> x\n"), bounds).is_valid
    assert len(validity._shared) == 2
    # delta-s pools em_refute, and an open check steps with its steps and each extension together
    assert consequence("delta-s", (), Disj(a, negation(a)), FAM_AB).is_unknown
    assert valid(open_arg, ab, extended).is_invalid
    assert calls == Counter()
