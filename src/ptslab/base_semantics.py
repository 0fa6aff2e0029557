"""Consequence defined directly over a base, with atoms read as derivability.

For an empty context the goal is evaluated by structural recursion; a
nonempty context is a material condition: if every member holds on the
base, the goal must hold on the same base (the non-extension reading).
On production-rule bases this collapses to classical evaluation under
the valuation sending each atom to its derivability.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

from .atomic_base import AtomicBase, atomic_closure
from .formula import BOT, Atom, Conj, Disj, Formula, Impl, negation

__all__ = [
    "SemanticsError",
    "ConsequenceVerdict",
    "base_valuation",
    "classical_eval",
    "models",
    "em_valid",
    "logical_consequence",
]


class SemanticsError(ValueError):
    pass


@dataclass(frozen=True)
class ConsequenceVerdict:
    holds: bool
    counterexample: str | None = None  # id of the first failing base


def base_valuation(base: AtomicBase, extra_atoms: Iterable[Atom] = ()) -> dict[Atom, bool]:
    """Valuation sending each atom to its derivability from no assumptions."""
    derivable = atomic_closure(base, ())
    cover = set(base.atoms()) | set(extra_atoms) | {BOT}
    return {a: a in derivable for a in cover}


def classical_eval(f: Formula, valuation: dict[Atom, bool]) -> bool:
    """Plain truth-table evaluation; absurdity is looked up like any atom."""
    match f:
        case Atom():
            try:
                return valuation[f]
            except KeyError:
                raise SemanticsError(f"valuation does not cover atom {f}") from None
        case Conj(l, r):
            return classical_eval(l, valuation) and classical_eval(r, valuation)
        case Disj(l, r):
            return classical_eval(l, valuation) or classical_eval(r, valuation)
        case Impl(l, r):
            return (not classical_eval(l, valuation)) or classical_eval(r, valuation)
    raise SemanticsError(f"not a formula: {f!r}")


def _holds(f: Formula, derivable: frozenset[Atom]) -> bool:
    match f:
        case Atom():
            return f in derivable
        case Conj(l, r):
            return _holds(l, derivable) and _holds(r, derivable)
        case Disj(l, r):
            return _holds(l, derivable) or _holds(r, derivable)
        case Impl(l, r):
            # an implication holds when the consequent holds if the
            # antecedent does, all on this same base
            return (not _holds(l, derivable)) or _holds(r, derivable)
    raise SemanticsError(f"not a formula: {f!r}")


def _warn_inconsistent(base: AtomicBase, stacklevel: int) -> None:
    warnings.warn(f"evaluating on inconsistent base {base.id}", stacklevel=stacklevel + 1)


def models(base: AtomicBase, context: Iterable[Formula], goal: Formula) -> bool:
    """Does the goal follow from the context on this base?"""
    derivable = atomic_closure(base, ())
    if BOT in derivable:
        _warn_inconsistent(base, 2)
    return not all(_holds(c, derivable) for c in context) or _holds(goal, derivable)


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
    distinct closure is evaluated once per call; an inconsistent base still
    warns each time it is scanned."""
    context = tuple(context)
    verdicts: dict[frozenset[Atom], bool] = {}
    for base in family:
        derivable = base._closure
        holds = verdicts.get(derivable)
        if holds is None:
            holds = verdicts[derivable] = models(base, context, goal)
        elif BOT in derivable:
            _warn_inconsistent(base, 1)
        if not holds:
            return base
    return None

