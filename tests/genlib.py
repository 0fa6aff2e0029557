"""Seeded random generators shared by the property and acceptance tests.

Set PTSLAB_SEED to reproduce a run.
"""

from __future__ import annotations

import os
import random

from ptslab import (
    Assumption,
    Atom,
    BOT,
    Conj,
    Disj,
    EmptyTop,
    Impl,
    Inf,
    analyze,
)

ATOMS = [Atom(n) for n in ("a", "b", "c")]


def make_rng(offset: int = 0) -> random.Random:
    return random.Random(int(os.environ.get("PTSLAB_SEED", "0")) + offset)


def random_formula(rng: random.Random, depth: int, atoms=None, allow_bottom=True):
    atoms = atoms or ATOMS
    leaves = atoms + ([BOT] if allow_bottom else [])
    if depth <= 1 or rng.random() < 0.3:
        return rng.choice(leaves)
    ctor = rng.choice((Conj, Disj, Impl))
    return ctor(
        random_formula(rng, depth - 1, atoms, allow_bottom),
        random_formula(rng, depth - 1, atoms, allow_bottom),
    )


def all_formulas(leaves, depth: int):
    """Every formula of at most the given depth over the leaves."""
    tiers = [list(leaves)]
    for _ in range(depth - 1):
        prev = tiers[-1]
        below = [f for tier in tiers for f in tier]
        tier = []
        for ctor in (Conj, Disj, Impl):
            for l in below:
                for r in below:
                    tier.append(ctor(l, r))
        tiers.append(tier)
    seen = set()
    out = []
    for tier in tiers:
        for f in tier:
            if f not in seen:
                seen.add(f)
                out.append(f)
    return out


def random_closed_structure(rng: random.Random, conclusion, depth: int = 2):
    """A closed structure with the given conclusion and free-form inferences."""
    if depth <= 1 or rng.random() < 0.5:
        return Inf("cls", conclusion, (EmptyTop(),))
    inner = random_closed_structure(rng, random_formula(rng, 2), depth - 1)
    return Inf("cls", conclusion, (inner,))


def random_open_structure(rng: random.Random, conclusion, depth: int = 2):
    """An open structure concluding as asked, with assumption leaves."""
    if depth <= 1 or rng.random() < 0.4:
        return Assumption(conclusion)
    kids = tuple(
        random_open_structure(rng, random_formula(rng, 2), depth - 1)
        for _ in range(rng.randint(1, 2))
    )
    return Inf(rng.choice(("mk", "use", "step")), conclusion, kids)


def random_detour_redex(rng: random.Random):
    """An elimination-after-introduction structure for the disjunction rule,
    with discharge labels 1 and 2 on the case branches."""
    a1 = random_formula(rng, 2)
    a2 = random_formula(rng, 2)
    b = random_formula(rng, 2)
    d1 = random_open_structure(rng, a1, rng.randint(1, 2))
    extras2 = tuple(Assumption(random_formula(rng, 1)) for _ in range(rng.randint(0, 1)))
    extras3 = tuple(Assumption(random_formula(rng, 1)) for _ in range(rng.randint(0, 1)))
    d2 = Inf("br", b, (Assumption(a1, 1),) + extras2)
    d3 = Inf("br", b, (Assumption(a2, 2),) + extras3)
    major = Inf("orI1", Disj(a1, a2), (d1,))
    return Inf("orE", b, (major, d2, d3), frozenset({1, 2}))


def random_case_analysis(rng: random.Random, inside=()):
    """An elimination of an open disjunction whose case branches use the
    labels 1 and 2 it discharges; the structures given as inside are shared
    out among the branches, beside each branch's labelled leaf, so each sits
    below an inference that discharges a label."""
    a1, a2, b = random_formula(rng, 2), random_formula(rng, 2), random_formula(rng, 2)
    split = rng.randint(0, len(inside))
    d2 = Inf("br", b, (Assumption(a1, 1),) + tuple(inside[:split]))
    d3 = Inf("bs", b, tuple(inside[split:]) + (Assumption(a2, 2),))
    return Inf("orE", b, (Assumption(Disj(a1, a2)), d2, d3), frozenset({1, 2}))


def random_scoped_structure(rng: random.Random, depth: int = 4, labels=(1, 2, 3)):
    """A well-formed structure whose labels come from a small pool, so that
    disjoint subtrees reuse one label and inner inferences may discharge an
    enclosing label vacuously (no leaf below both carries it)."""

    def build(depth, scope, top):
        # scope: label -> how many enclosing inferences discharge it
        if depth <= 1 or rng.random() < 0.25:
            if not top and rng.random() < 0.1:
                return EmptyTop()
            usable = sorted(l for l, n in scope.items() if n == 1)
            return Assumption(random_formula(rng, 2), rng.choice(usable + [None]))
        dis = frozenset(l for l in labels if rng.random() < 0.3)
        inner = dict(scope)
        for l in dis:
            inner[l] = inner.get(l, 0) + 1
        kids = tuple(build(depth - 1, inner, False) for _ in range(rng.randint(1, 3)))
        return Inf(rng.choice(("r", "s", "t")), random_formula(rng, 2), kids, dis)

    return build(depth, {}, True)


def random_sigma(rng: random.Random, structure):
    """A closed instance map covering the structure's open assumptions."""
    return {
        f: random_closed_structure(rng, f, rng.randint(1, 2))
        for f in analyze(structure).open_assumptions
    }
