"""Known answers, computed without ptslab.

Formulas are tuples: ("atom", name), ("bot",), and (op, left, right) with
op one of "and", "or", "imp". A base is read as a set of rules
(premise names, conclusion name), with BOT standing for absurdity; its
valuation is the set of atoms derivable from no assumptions by forward
chaining. On consistent bases, base-semantics consequence coincides with
classical evaluation under that valuation, which is what `holds` uses.
"""

from __future__ import annotations

import itertools

BOT = "_|_"


def atom(name: str):
    return ("atom", name)


FALSUM = ("bot",)


def neg(f):
    return ("imp", f, FALSUM)


def conj(l, r):
    return ("and", l, r)


def disj(l, r):
    return ("or", l, r)


def imp(l, r):
    return ("imp", l, r)


_PREC = {"imp": 1, "or": 2, "and": 3}


def render(f, prec: int = 0) -> str:
    """ptslab's concrete syntax, with enough parentheses to parse back."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "bot":
        return BOT
    if tag == "imp" and f[2] == FALSUM:
        return "~" + render(f[1], 4)
    mine = _PREC[tag]
    sym = {"imp": " -> ", "or": " | ", "and": " & "}[tag]
    if tag == "imp":
        text = render(f[1], mine + 1) + sym + render(f[2], mine)
    else:
        text = render(f[1], mine) + sym + render(f[2], mine + 1)
    return "(" + text + ")" if prec > mine else text


def holds(f, true_atoms: frozenset[str]) -> bool:
    tag = f[0]
    if tag == "atom":
        return f[1] in true_atoms
    if tag == "bot":
        return False
    if tag == "and":
        return holds(f[1], true_atoms) and holds(f[2], true_atoms)
    if tag == "or":
        return holds(f[1], true_atoms) or holds(f[2], true_atoms)
    return (not holds(f[1], true_atoms)) or holds(f[2], true_atoms)


def follows(context, goal, true_atoms: frozenset[str]) -> bool:
    """The material reading of context |= goal on one valuation."""
    return not all(holds(c, true_atoms) for c in context) or holds(goal, true_atoms)


def closure(rules) -> frozenset[str]:
    """Atoms (and BOT) derivable from no assumptions; rules are (premises, conclusion)."""
    derived: set[str] = set()
    changed = True
    while changed:
        changed = False
        for prems, concl in rules:
            if concl not in derived and all(p in derived for p in prems):
                derived.add(concl)
                changed = True
    return frozenset(derived)


def rules_of(base) -> list[tuple[tuple[str, ...], str]]:
    """A ptslab AtomicBase read as plain data."""
    return [(tuple(p.name for p in r.premises), r.conclusion.name) for r in base.rules]


def valuation(base) -> frozenset[str]:
    """Derivable atoms of a consistent ptslab base; raises on an inconsistent one."""
    derived = closure(rules_of(base))
    if BOT in derived:
        raise ValueError(f"inconsistent base {base.id}")
    return derived


def consistent_base_count(atoms: list[str], max_rules: int) -> int:
    """How many consistent bases of at most max_rules rules the signature has."""
    prem_sets = [c for k in range(len(atoms) + 1) for c in itertools.combinations(atoms, k)]
    universe = [(p, c) for c in atoms + [BOT] for p in prem_sets]
    return sum(
        BOT not in closure(combo)
        for k in range(max_rules + 1)
        for combo in itertools.combinations(universe, k)
    )
