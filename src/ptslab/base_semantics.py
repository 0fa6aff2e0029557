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
from typing import Iterable

from .atomic_base import AtomicBase, _atoms_in, _built, _combinations, atomic_closure
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
    derivable = atomic_closure(base, ())
    cover = set(base.atoms()) | set(extra_atoms) | {BOT}
    return {a: a in derivable for a in cover}


def classical_eval(f: Formula, valuation: dict[Atom, bool]) -> bool:
    """Plain truth-table evaluation; absurdity is looked up like any atom."""
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


def _holds(f: Formula, derivable: frozenset[Atom] | _Valuation) -> bool:
    """Evaluation on a closure (or a valuation), left operand first, with an
    explicit stack rather than recursion, so a formula's depth is not
    bounded by Python's."""
    pending: list[Conj | Disj | Impl] = []  # connectives whose left operand is evaluated
    while True:
        while not isinstance(f, Atom):
            if not isinstance(f, (Conj, Disj, Impl)):
                raise SemanticsError(f"not a formula: {f!r}")
            pending.append(f)
            f = f.left
        value = f in derivable
        while pending:
            g = pending.pop()
            # a false left operand decides a conjunction and an implication
            # (which then holds on this same base), a true one a
            # disjunction; otherwise g has the value of its right operand
            match g:
                case Conj() if not value:
                    continue
                case Disj() if value:
                    continue
                case Impl() if not value:
                    value = True
                    continue
            f = g.right
            break
        else:
            return value


def _follows(context: Iterable[Formula], goal: Formula, derivable: frozenset[Atom]) -> bool:
    return not all(_holds(c, derivable) for c in context) or _holds(goal, derivable)


def _warn_inconsistent(base: AtomicBase, stacklevel: int) -> None:
    warnings.warn(f"evaluating on inconsistent base {base.id}", stacklevel=stacklevel + 1)


def models(base: AtomicBase, context: Iterable[Formula], goal: Formula) -> bool:
    """Does the goal follow from the context on this base?"""
    derivable = atomic_closure(base, ())
    if BOT in derivable:
        _warn_inconsistent(base, 2)
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


def search_counterexample(
    context: Iterable[Formula],
    goal: Formula,
    atoms: list[Atom],
    max_rules: int,
    cap: int = 200_000,
) -> AtomicBase | None:
    """First enumerated consistent base on which the goal fails, or None.

    The arguments are checked at the call, as enumerate_bases checks them. A
    consistent base with k rules derives at most k atoms of the signature,
    each by its own rule, and the `-> x` axioms of any such set form a base
    with that closure: the family's closures are exactly the subsets of at
    most k atoms. The goal is evaluated once on each; only if it fails on
    one is the enumeration scanned, on masks, to the first combination with
    a failing closure, and that one base is built.
    """
    context = tuple(context)
    order, universe, combinations = _combinations(atoms, max_rules, True, cap)
    named = range(len(order) - 1)  # the signature's bits; bottom's is last
    stops: dict[int, SemanticsError | None] = {}  # failing masks, or masks that raise
    for size in range(min(max_rules, len(named)) + 1):
        for chosen in itertools.combinations(named, size):
            mask = sum(1 << i for i in chosen)
            try:
                if not _follows(context, goal, _atoms_in(mask, order)):
                    stops[mask] = None
            except SemanticsError as e:  # raised where the scan first meets it
                stops[mask] = e
    if stops:
        for combo, derived in combinations:
            if derived in stops:
                if stops[derived] is not None:
                    raise stops[derived]
                return _built(universe, combo, _atoms_in(derived, order))
    return None
