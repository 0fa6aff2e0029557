"""Atomic bases: finite sets of production rules over atoms.

A rule takes zero or more non-absurd atomic premises to an atomic
conclusion (absurdity allowed as conclusion). A base induces a
derivability relation via forward chaining to a fixpoint.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .formula import BOT, Atom, FormulaError

__all__ = [
    "BaseError",
    "EnumerationCapError",
    "AtomicRule",
    "AtomicBase",
    "AtomicDerivation",
    "atomic_closure",
    "derives",
    "atomic_derivation",
    "is_consistent",
    "enumerate_bases",
    "parse_base",
    "render_base",
]


class BaseError(ValueError):
    """Malformed rule, base file, or assumption set."""


class EnumerationCapError(RuntimeError):
    """Base enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class AtomicRule:
    premises: tuple[Atom, ...]
    conclusion: Atom

    def __post_init__(self):
        for p in self.premises:
            if p.is_bottom:
                raise BaseError("rule premises may not be the absurdity constant")

    def __str__(self) -> str:
        left = " ".join(p.name for p in self.premises)
        return (left + " -> " if left else "-> ") + self.conclusion.name


def _rule_key(r: AtomicRule):
    return (str(r.conclusion.is_bottom), r.conclusion.name, len(r.premises), tuple(p.name for p in r.premises))


@dataclass(frozen=True)
class AtomicBase:
    rules: frozenset[AtomicRule]
    id: str = field(default="", compare=False)  # a display name: a base is its rules

    def __post_init__(self):
        if not self.id:
            object.__setattr__(self, "id", self.rules_text())

    def rules_text(self) -> str:
        return "{" + "; ".join(str(r) for r in self.sorted_rules()) + "}"

    def sorted_rules(self) -> list[AtomicRule]:
        return sorted(self.rules, key=_rule_key)

    def atoms(self) -> frozenset[Atom]:
        out = set()
        for r in self.rules:
            out.update(r.premises)
            if not r.conclusion.is_bottom:
                out.add(r.conclusion)
        return frozenset(out)


@dataclass(frozen=True)
class AtomicDerivation:
    """Derivation tree: rule is None exactly on assumption leaves."""

    conclusion: Atom
    rule: AtomicRule | None
    children: tuple["AtomicDerivation", ...] = ()

    def check(self, base: AtomicBase, assumptions: frozenset[Atom] = frozenset()) -> bool:
        if self.rule is None:
            return not self.children and self.conclusion in assumptions
        if self.rule not in base.rules or self.rule.conclusion != self.conclusion:
            return False
        if tuple(c.conclusion for c in self.children) != self.rule.premises:
            return False
        return all(c.check(base, assumptions) for c in self.children)


def _check_assumptions(assumptions: Iterable[Atom]) -> frozenset[Atom]:
    out = frozenset(assumptions)
    if any(a.is_bottom for a in out):
        raise BaseError("assumption sets may not contain the absurdity constant")
    return out


@functools.lru_cache(maxsize=None)
def _closure(base: AtomicBase, assumptions: frozenset[Atom]) -> frozenset[Atom]:
    derived = set(assumptions)
    rules = base.sorted_rules()
    changed = True
    while changed:
        changed = False
        for r in rules:
            if r.conclusion not in derived and all(p in derived for p in r.premises):
                derived.add(r.conclusion)
                changed = True
    return frozenset(derived)


def atomic_closure(base: AtomicBase, assumptions: Iterable[Atom] = ()) -> frozenset[Atom]:
    """Least set of atoms containing the assumptions and closed under the rules."""
    return _closure(base, _check_assumptions(assumptions))


def derives(base: AtomicBase, assumptions: Iterable[Atom], goal: Atom) -> bool:
    return goal in atomic_closure(base, assumptions)


def atomic_derivation(
    base: AtomicBase, assumptions: Iterable[Atom], goal: Atom
) -> AtomicDerivation | None:
    """A derivation tree witnessing derivability, or None."""
    assumptions = _check_assumptions(assumptions)
    derived: dict[Atom, AtomicRule | None] = {a: None for a in assumptions}
    rules = base.sorted_rules()
    changed = True
    while changed:
        changed = False
        for r in rules:
            if r.conclusion not in derived and all(p in derived for p in r.premises):
                derived[r.conclusion] = r
                changed = True
    if goal not in derived:
        return None

    def build(atom: Atom) -> AtomicDerivation:
        rule = derived[atom]
        if rule is None:
            return AtomicDerivation(atom, None)
        return AtomicDerivation(atom, rule, tuple(build(p) for p in rule.premises))

    return build(goal)


def is_consistent(base: AtomicBase) -> bool:
    return not derives(base, (), BOT)


def rule_universe(atoms: list[Atom]) -> list[AtomicRule]:
    """All rules over the signature, conclusions in signature order then bottom."""
    seen: list[Atom] = []
    for a in atoms:
        if a.is_bottom:
            raise BaseError("the signature lists named atoms only")
        if a not in seen:
            seen.append(a)
    prem_sets: list[tuple[Atom, ...]] = []
    for size in range(len(seen) + 1):
        for combo in itertools.combinations(seen, size):
            prem_sets.append(combo)
    out = []
    for concl in seen + [BOT]:
        for prems in prem_sets:
            out.append(AtomicRule(prems, concl))
    return out


def enumerate_bases(
    atoms: list[Atom],
    max_rules: int,
    consistent_only: bool = True,
    cap: int = 200_000,
) -> Iterator[AtomicBase]:
    """All bases with at most max_rules rules over the signature.

    Deterministic and duplicate-free; raises EnumerationCapError up front
    when the raw count would exceed cap.
    """
    universe = rule_universe(atoms)
    total = sum(math.comb(len(universe), k) for k in range(min(max_rules, len(universe)) + 1))
    if total > cap:
        raise EnumerationCapError(f"{total} bases over this signature exceeds the cap of {cap}")
    for size in range(min(max_rules, len(universe)) + 1):
        for combo in itertools.combinations(universe, size):
            base = AtomicBase(frozenset(combo))
            if consistent_only and not is_consistent(base):
                continue
            yield base


# ---------------------------------------------------------------------------
# base files: one rule per line, "p q -> r"; zero premises written "-> p";
# "#" starts a comment; blank lines ignored.


def _parse_atom(tok: str, lineno: int, allow_bottom: bool) -> Atom:
    if tok in ("bot", "_|_", "⊥"):
        if not allow_bottom:
            raise BaseError(f"line {lineno}: absurdity cannot appear as a premise")
        return BOT
    try:
        return Atom(tok)
    except FormulaError as e:
        raise BaseError(f"line {lineno}: {e}") from None


def parse_base(text: str, id: str = "") -> AtomicBase:
    rules = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise BaseError(f"line {lineno}: expected 'p q -> r'")
        left, _, right = line.partition("->")
        concl_toks = right.split()
        if len(concl_toks) != 1:
            raise BaseError(f"line {lineno}: exactly one conclusion atom expected")
        prems = tuple(_parse_atom(t, lineno, allow_bottom=False) for t in left.split())
        concl = _parse_atom(concl_toks[0], lineno, allow_bottom=True)
        rules.add(AtomicRule(prems, concl))
    return AtomicBase(frozenset(rules), id)


def render_base(base: AtomicBase) -> str:
    return "\n".join(str(r) for r in base.sorted_rules()) + ("\n" if base.rules else "")
