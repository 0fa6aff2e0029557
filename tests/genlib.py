"""Seeded random generators shared by the property and acceptance tests.

Set PTSLAB_SEED to reproduce a run.
"""

from __future__ import annotations

import itertools
import os
import random

from ptslab import (
    Assumption,
    Atom,
    BOT,
    Conj,
    Disj,
    EmptyTop,
    FVar,
    Impl,
    Inf,
    SchematicRewrite,
    analyze,
)
from ptslab.argument import DSpec, PAssume, PInf, Plug, PVar

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


RULE_TAGS = ("r", "s", "t")
RULE_FVARS = ("A", "B", "C")
RULE_LABELS = ("l0", "l1", "l2")  # few names, so binders and leaves reuse them


def random_formula_pattern(rng: random.Random, depth: int, fvars=RULE_FVARS):
    """A formula over the atoms, absurdity and the formula variables named in fvars."""
    if depth <= 1 or rng.random() < 0.35:
        if fvars and rng.random() < 0.6:
            return FVar(rng.choice(fvars))
        return rng.choice(ATOMS + [BOT])
    ctor = rng.choice((Conj, Disj, Impl))
    return ctor(random_formula_pattern(rng, depth - 1, fvars), random_formula_pattern(rng, depth - 1, fvars))


def _fvar_names(f) -> set[str]:
    if isinstance(f, FVar):
        return {f.name}
    if isinstance(f, (Conj, Disj, Impl)):
        return _fvar_names(f.left) | _fvar_names(f.right)
    return set()


def random_rule(rng: random.Random, name: str = "rand") -> SchematicRewrite:
    """A random one- or two-clause rewrite rule, each clause a rewrite clause
    by construction: a linear pattern of inferences, structure variables
    (some with :concludes), leaves with and without ?l (one of the labels
    discharged above, or one discharged nowhere in the pattern) and (empty),
    whose inferences discharge label variables, some constrained by a
    formula; and a template that reads only what a match binds, with
    inferences that discharge the pattern's labels or fresh ones, leaves
    labelled either way, and (plug ?D ?l TEMPLATE)."""
    return SchematicRewrite(name, tuple(_random_clause(rng) for _ in range(rng.randint(1, 2))))


def _random_clause(rng: random.Random):
    svars, lvars, bound = [], set(), set()

    def fpat(binds=True):
        f = random_formula_pattern(rng, rng.randint(1, 3))
        if binds:
            bound.update(_fvar_names(f))
        return f

    def pattern(depth, scope, root=False):
        kind = "inf" if root and rng.random() < 0.85 else rng.choice(("inf", "inf", "var", "var", "assume", "empty"))
        if kind == "empty" and root:
            kind = "var"
        if kind == "inf" and depth > 0:
            dspecs = tuple(
                DSpec(rng.choice(RULE_LABELS), fpat(False) if rng.random() < 0.4 else None)
                for _ in range(rng.choice((0, 0, 1, 1, 2)))
            )
            lvars.update(s.labelvar for s in dspecs)
            inner = scope + [s.labelvar for s in dspecs]
            kids = tuple(pattern(depth - 1, inner) for _ in range(rng.randint(1, 3)))
            return PInf(rng.choice(RULE_TAGS), fpat(), kids, dspecs)
        if kind == "assume":
            label = None
            if rng.random() < 0.7:
                label = rng.choice(scope) if scope and rng.random() < 0.85 else rng.choice(RULE_LABELS)
                lvars.add(label)
            return PAssume(fpat(), label)
        if kind == "empty":
            return EmptyTop()
        svars.append(f"D{len(svars)}")
        return PVar(svars[-1], fpat() if rng.random() < 0.5 else None)

    pat = pattern(rng.randint(1, 3), [], root=True)
    fvars, labels, fresh = sorted(bound), sorted(lvars), ("m0", "m1")

    def ftmpl():
        return random_formula_pattern(rng, rng.randint(1, 3), fvars)

    def template(depth, root=False):
        kinds = ["use", "inf", "assume", "empty"] + (["plug"] if labels and svars else [])
        kind = rng.choice(kinds) if depth > 0 else rng.choice(("use", "assume"))
        if root and isinstance(pat, PInf) and rng.random() < 0.7:
            kind = "inf"  # concluding as the pattern does, so most reducts keep the conclusion
        if kind == "use" and svars:
            return PVar(rng.choice(svars))
        if kind == "inf" or kind == "use" and root:
            dspecs = tuple(DSpec(rng.choice(labels + list(fresh))) for _ in range(rng.choice((0, 1, 1, 2))))
            kids = tuple(template(depth - 1) for _ in range(rng.randint(1, 2)))
            concl = pat.conclusion if root and isinstance(pat, PInf) else ftmpl()
            return PInf(rng.choice(RULE_TAGS), concl, kids, dspecs)
        if kind == "plug":
            return Plug(rng.choice(svars), rng.choice(labels), template(depth - 1))
        if kind == "empty" and not root:
            return EmptyTop()
        label = rng.choice(labels + list(fresh)) if rng.random() < 0.6 else None
        return PAssume(ftmpl(), label)

    return pat, template(rng.randint(1, 3), root=True)


def random_rule_redex(rng: random.Random, rule: SchematicRewrite):
    """A structure built from one of the rule's clause patterns: its formula
    variables read as random formulas, its structure variables as random
    structures (some holding leaves that an inference of the pattern
    discharges), its label variables as integer labels, now and then one
    that an enclosing inference discharges too, and a leaf whose ?l no
    enclosing inference discharges as a free label."""
    sigma, labels, fresh = {}, {}, itertools.count(1)

    def form(f):
        if isinstance(f, FVar):
            return sigma.setdefault(f.name, random_formula(rng, 2))
        if isinstance(f, (Conj, Disj, Impl)):
            return f.__class__(form(f.left), form(f.right))
        return f

    def inst(p, scope):
        if isinstance(p, PInf):
            inner = dict(scope)
            for spec in p.discharge:  # now and then an enclosing label again, so one binds over the other
                label = scope[rng.choice(sorted(scope))][0] if scope and rng.random() < 0.3 else next(fresh)
                inner[spec.labelvar] = (label, spec.formula)
            kids = tuple(inst(child, inner) for child in p.children)
            return Inf(p.tag, form(p.conclusion), kids, frozenset(inner[s.labelvar][0] for s in p.discharge))
        if isinstance(p, PAssume):
            if p.labelvar is None:
                return Assumption(form(p.formula))
            label = scope[p.labelvar][0] if p.labelvar in scope else labels.setdefault(p.labelvar, next(fresh))
            return Assumption(form(p.formula), label)
        if isinstance(p, EmptyTop):
            return p
        concl = form(p.concludes) if p.concludes is not None else random_formula(rng, 2)
        if scope and rng.random() < 0.5:
            label, fp = scope[rng.choice(sorted(scope))]
            leaf = Assumption(form(fp) if fp is not None else random_formula(rng, 1), label)
            return Inf("u", concl, (random_open_structure(rng, random_formula(rng, 1), 2), leaf))
        return random_open_structure(rng, concl, rng.randint(1, 2))

    pat, _tmpl = rng.choice(rule.clauses)
    return inst(pat, {})
