"""Consequence defined directly over a base, with atoms read as derivability.

For an empty context the goal is evaluated structurally; a
nonempty context is a material condition: if every member holds on the
base, the goal must hold on the same base (the non-extension reading).
On production-rule bases this collapses to classical evaluation under
the valuation sending each atom to its derivability.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Mapping
from typing import Iterable

from .atomic_base import AtomicBase, AtomicRule, _checked_signature, _require_base, atomic_closure
from .formula import BOT, Atom, Conj, Disj, Formula, Impl, _Record, _set, negation

__all__ = [
    "SemanticsError",
    "ConsequenceVerdict",
    "base_valuation",
    "classical_eval",
    "models",
    "em_valid",
    "logical_consequence",
    "search_counterexample",
]


class SemanticsError(ValueError):
    pass


class ConsequenceVerdict(_Record):
    _fields = __match_args__ = ("holds", "counterexample")

    def __init__(self, holds: bool, counterexample: str | None = None):  # id of the first failing base
        _set(self, "holds", holds)
        _set(self, "counterexample", counterexample)


def base_valuation(base: AtomicBase, extra_atoms: Iterable[Atom] = ()) -> dict[Atom, bool]:
    """Valuation sending each atom to its derivability from no assumptions."""
    _require_base(base, SemanticsError)
    derivable = atomic_closure(base, ())
    cover = set(base.atoms()) | set(extra_atoms) | {BOT}
    return {a: a in derivable for a in cover}


def classical_eval(f: Formula, valuation: dict[Atom, bool]) -> bool:
    """Plain truth-table evaluation; absurdity is looked up like any atom."""
    if not isinstance(valuation, Mapping):
        raise SemanticsError(f"valuation must be a mapping, not {type(valuation).__name__}")
    return _holds(f, _Valuation(valuation))


class _Valuation:
    """A valuation read as the set of the atoms it makes true."""

    __slots__ = ("values",)

    def __init__(self, values: dict[Atom, bool]):
        self.values = values

    def __contains__(self, atom: Atom) -> bool:
        try:
            return self.values[atom]
        except KeyError:
            raise SemanticsError(f"valuation does not cover atom {atom}") from None


# (deciding left value, result): the left operand's value that decides a
# connective, and the connective's value then
_DECIDES = {Conj: (False, False), Disj: (True, True), Impl: (False, True)}


def _holds(f: Formula, derivable: frozenset[Atom] | _Valuation) -> bool:
    """Evaluation on a closure (or a valuation), left operand first, with an
    explicit stack rather than recursion, so a formula's depth is not
    bounded by Python's. Each connective g is dispatched on type(g) in
    _DECIDES: when its left operand has the deciding value, g has the
    result and its right operand is never evaluated; otherwise g has the
    value of its right operand. A non-formula is refused where the descent
    meets it."""
    pending: list[Conj | Disj | Impl] = []  # connectives whose left operand is evaluated
    while True:
        while (t := type(f)) is not Atom:
            if t not in _DECIDES:
                raise SemanticsError(f"not a formula: {f!r}")
            pending.append(f)
            f = f.left
        value = f in derivable
        while pending:
            g = pending.pop()
            decider, result = _DECIDES[type(g)]
            if value is decider:
                value = result
            else:
                f = g.right
                break
        else:
            return value


def _follows(context: Iterable[Formula], goal: Formula, derivable: frozenset[Atom]) -> bool:
    for c in context:
        if not _holds(c, derivable):
            return True
    return _holds(goal, derivable)


def _warn_inconsistent(base: AtomicBase, stacklevel: int) -> None:
    warnings.warn(f"evaluating on inconsistent base {base.id}", stacklevel=stacklevel + 1)


def _context(context: Iterable[Formula]) -> tuple[Formula, ...]:
    """The context as a tuple; a SemanticsError naming it unless it is iterable."""
    try:
        context = iter(context)
    except TypeError:
        raise SemanticsError(f"context must be an iterable of formulas, not {type(context).__name__}") from None
    return tuple(context)


def models(base: AtomicBase, context: Iterable[Formula], goal: Formula) -> bool:
    """Does the goal follow from the context on this base?"""
    return _models(base, _context(context), goal, 3)


def _models(base: AtomicBase, context: tuple[Formula, ...], goal: Formula, stacklevel: int = 2) -> bool:
    """models on a context that is a tuple; its warning names the caller stacklevel frames up."""
    _require_base(base, SemanticsError)
    derivable = atomic_closure(base, ())
    if BOT in derivable:
        _warn_inconsistent(base, stacklevel)
    return _follows(context, goal, derivable)


def em_valid(base: AtomicBase, f: Formula) -> bool:
    """Excluded middle for f, evaluated on the base."""
    return models(base, (), Disj(f, negation(f)))


def logical_consequence(
    context: Iterable[Formula], goal: Formula, family: Iterable[AtomicBase]
) -> ConsequenceVerdict:
    """Consequence over every base of a finite family."""
    failing = _first_failing(context, goal, family)
    return ConsequenceVerdict(True) if failing is None else ConsequenceVerdict(False, failing.id)


def _first_failing(
    context: Iterable[Formula], goal: Formula, family: Iterable[AtomicBase]
) -> AtomicBase | None:
    """The first base of the family on which the goal does not follow, or None.

    Whether it follows depends on a base only through its closure, so each
    distinct closure is evaluated once per call, on the first base that has
    it, and the scan files it in one of two sets: consistent closures where
    the goal holds, and inconsistent ones where it holds (a base with one
    warns again each time it is scanned). A closure where it fails stops the
    scan there. A base whose closure is consistent and already seen costs
    one set probe. A context or family that is not iterable, or a family
    member that is no base, is refused with an error naming it."""
    context = _context(context)
    try:
        family = iter(family)
    except TypeError:
        raise SemanticsError(f"family must be an iterable of AtomicBases, not {type(family).__name__}") from None
    holds: set[frozenset[Atom]] = set()  # consistent closures where the goal holds
    warns: set[frozenset[Atom]] = set()  # inconsistent closures where it holds
    try:  # around the loop, not in it, where a try costs the scan a few per cent
        for base in family:
            derivable = base._closure
            if derivable in holds:
                continue
            if derivable in warns:
                _warn_inconsistent(base, 1)
            elif not _models(base, context, goal):
                return base
            else:
                (warns if BOT in derivable else holds).add(derivable)
    except AttributeError as e:
        if e.name != "_closure" or isinstance(e.obj, AtomicBase):  # not the read of a member that is no base
            raise
        raise SemanticsError(f"family must hold AtomicBases only, not {type(e.obj).__name__}") from None
    return None


def search_counterexample(
    context: Iterable[Formula],
    goal: Formula,
    atoms: list[Atom],
    max_rules: int,
    cap: int = 200_000,
) -> AtomicBase | None:
    """First enumerated consistent base on which the goal fails, or None.

    The arguments are checked at the call, as enumerate_bases checks them
    when first iterated. A consistent base with k rules derives at most k
    atoms of the signature, each by its own rule, and the `-> x` axioms of
    any such set form a base with that closure: the family's closures are
    exactly the subsets of at most k atoms. The first enumerated base with
    closure M has |M| rules, each deriving its own atom, and M's axioms are
    the first such combination, so these first bases come in the order of
    itertools.combinations over the signature. The subsets are evaluated in
    that order, up to the first on which the goal fails (its axioms are
    returned, no rule universe is built) or whose evaluation raises.
    """
    context = _context(context)
    signature = _checked_signature(atoms, max_rules, cap)
    for size in range(min(max_rules, len(signature)) + 1):
        for chosen in itertools.combinations(signature, size):
            closure = frozenset(chosen)
            if not _follows(context, goal, closure):
                base = AtomicBase(frozenset([AtomicRule((), x) for x in chosen]))
                _set(base, "_closure", closure)
                return base
    return None
