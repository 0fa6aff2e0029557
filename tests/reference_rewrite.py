"""The rewrite-clause interpreter, kept as the reference for the compiled
clauses of `justification._compile`.

It walks a clause's pattern against a structure with one `match` statement
per node, binding variables in four dicts, and walks its template the same
way to build the reduct. `reference_apply` applies a rule clause by clause
as `apply_justification` does, contract check included; `clause_problem`
says why a pattern => template pair is no rewrite clause, or None.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator

from ptslab import (
    ArgStructure,
    Assumption,
    Atom,
    Conj,
    Disj,
    EmptyTop,
    Formula,
    FVar,
    Impl,
    Inf,
    JustificationError,
    conclusion_of,
)
from ptslab.argument import Pattern, PAssume, PInf, Plug, PVar, _map_leaves, _slot_order, freshen, labels_of
from ptslab.justification import _check_contract


class Bindings:
    __slots__ = ("fvars", "svars", "lvars", "sites")

    def __init__(self, fvars=None, svars=None, lvars=None, sites=None):
        self.fvars: dict[str, Formula] = fvars or {}
        self.svars: dict[str, ArgStructure] = svars or {}
        self.lvars: dict[str, int] = lvars or {}
        # where each matched label is discharged: (path of the inference in
        # the match, or None if it is below the matched subtree, label)
        self.sites: dict[str, tuple[tuple[int, ...] | None, int]] = sites or {}

    def copy(self) -> "Bindings":
        return Bindings(dict(self.fvars), dict(self.svars), dict(self.lvars), dict(self.sites))

    def bind_label(self, var: str, site: tuple[tuple[int, ...] | None, int]) -> bool:
        """A label variable names one discharge: it binds the first site it
        meets and matches only that site again, whatever the labels' names."""
        if self.sites.setdefault(var, site) != site:
            return False
        self.lvars[var] = site[1]
        return True


def match_formula(pat, f: Formula, b: Bindings) -> bool:
    match pat:
        case FVar(name):
            if name in b.fvars:
                return b.fvars[name] == f
            b.fvars[name] = f
            return True
        case Atom():
            return pat == f
        case Conj(l, r):
            return isinstance(f, Conj) and match_formula(l, f.left, b) and match_formula(r, f.right, b)
        case Disj(l, r):
            return isinstance(f, Disj) and match_formula(l, f.left, b) and match_formula(r, f.right, b)
        case Impl(l, r):
            return isinstance(f, Impl) and match_formula(l, f.left, b) and match_formula(r, f.right, b)
    raise JustificationError(f"bad formula pattern {pat!r}")


def subst_formula(pat, b: Bindings) -> Formula:
    match pat:
        case FVar(name):
            return b.fvars[name]
        case Atom():
            return pat
        case Conj(l, r):
            return Conj(subst_formula(l, b), subst_formula(r, b))
        case Disj(l, r):
            return Disj(subst_formula(l, b), subst_formula(r, b))
        case Impl(l, r):
            return Impl(subst_formula(l, b), subst_formula(r, b))
    raise JustificationError(f"bad formula template {pat!r}")


def match(pat: Pattern, d: ArgStructure, b: Bindings, path=(), scope=()) -> Bindings | None:
    # scope: (path, discharges) of the matched inferences above d, outermost first
    match pat:
        case PVar(name, concludes):
            if isinstance(d, EmptyTop):
                return None
            if concludes is not None and not match_formula(concludes, conclusion_of(d), b):
                return None
            b.svars[name] = d
            return b
        case EmptyTop():
            return b if isinstance(d, EmptyTop) else None
        case PAssume(fpat, labelvar):
            if not isinstance(d, Assumption) or (labelvar is None) != (d.label is None):
                return None
            if labelvar is not None:
                site = next((p for p, dis in reversed(scope) if d.label in dis), None)
                if not b.bind_label(labelvar, (site, d.label)):
                    return None
            return b if match_formula(fpat, d.formula, b) else None
        case PInf(tag, cpat, children, dspecs):
            if not isinstance(d, Inf) or d.tag != tag or len(d.children) != len(children):
                return None
            if len(d.discharges) != len(dspecs):
                return None
            if not match_formula(cpat, d.conclusion, b):
                return None
            inner = scope + ((path, d.discharges),) if d.discharges else scope
            for i, (cp, ch) in enumerate(zip(children, d.children)):
                got = match(cp, ch, b, path + (i,), inner)
                if got is None:
                    return None
                b = got
            if not dspecs:
                return b
            # in slot order, so equal structures up to relabelling match alike
            for perm in itertools.permutations(_slot_order(d)):
                trial = b.copy()
                for spec, label in zip(dspecs, perm):
                    if not trial.bind_label(spec.labelvar, (path, label)) or (
                        spec.formula is not None
                        and not all(match_formula(spec.formula, f, trial) for l, f in d._facts.binds if l == label)
                    ):
                        break
                else:
                    return trial
            return None
    raise JustificationError(f"bad pattern {pat!r}")


def build(t: Pattern, b: Bindings, fresh: Iterator[int]) -> ArgStructure:
    # a matched pattern binds every variable and plugged label the template reads (clause_problem)
    match t:
        case PVar(name):
            return b.svars[name]
        case EmptyTop():
            return t
        case PAssume(fpat, labelvar):
            lbl = None
            if labelvar is not None:
                if labelvar not in b.lvars:
                    b.lvars[labelvar] = next(fresh)
                lbl = b.lvars[labelvar]
            return Assumption(subst_formula(fpat, b), lbl)
        case PInf(tag, cpat, children, discharge):
            labels = []
            for spec in discharge:
                if spec.labelvar not in b.lvars:
                    b.lvars[spec.labelvar] = next(fresh)
                labels.append(b.lvars[spec.labelvar])
            kids = tuple(build(ch, b, fresh) for ch in children)
            return Inf(tag, subst_formula(cpat, b), kids, frozenset(labels))
        case Plug(source, labelvar, filler):
            tree, label = b.svars[source], b.lvars[labelvar]
            fill = freshen(build(filler, b, fresh), labels_of(tree))
            return _map_leaves(tree, lambda n: fill if n.label == label else n)
    raise JustificationError(f"bad template {t!r}")


def tree_vars(t: Pattern) -> tuple[set[str], Counter, set[str], set[str]]:
    """Formula, structure (with use counts), label and plugged label variables.

    The formula variables are those a match binds: a discharge constraint
    (?l "F") only checks the leaves ?l labels, and binds nothing when the
    discharge is vacuous.
    """
    fv: set[str] = set()
    sv: Counter = Counter()
    lv: set[str] = set()
    plugged: set[str] = set()

    def fwalk(fp):
        match fp:
            case FVar(name):
                fv.add(name)
            case Conj(l, r) | Disj(l, r) | Impl(l, r):
                fwalk(l)
                fwalk(r)

    def walk(p):
        match p:
            case PVar(name, concludes):
                sv[name] += 1
                fwalk(concludes)
            case PAssume(fpat, labelvar):
                fwalk(fpat)
                lv.add(labelvar)
            case PInf(_, cpat, children, dspecs):
                fwalk(cpat)
                lv.update(spec.labelvar for spec in dspecs)
                for ch in children:
                    walk(ch)
            case Plug(source, labelvar, filler):
                sv[source] += 1
                plugged.add(labelvar)
                walk(filler)

    walk(t)
    return fv, sv, lv, plugged


def clause_problem(pat: Pattern, tmpl: Pattern) -> str | None:
    """Why pattern => template is not a rewrite clause, or None if it is."""
    pfv, psv, plv, _ = tree_vars(pat)
    for v, n in psv.items():
        if n > 1:
            return f"structure variable ?{v} bound {n} times (patterns are linear)"
    tfv, tsv, _, tplugged = tree_vars(tmpl)
    if not tfv <= pfv:
        return f"template formula variables {sorted(tfv - pfv)} unbound"
    if not tsv.keys() <= psv.keys():
        return f"template structure variables {sorted(tsv.keys() - psv.keys())} unbound"
    if not tplugged <= plv:
        return f"plugged label variables {sorted(tplugged - plv)} unbound"
    return None


def reference_apply(rule, d: ArgStructure) -> ArgStructure | None:
    """rule applied to the whole of d by the interpreter, as apply_justification applies it."""
    for pat, tmpl in rule.clauses:
        b = match(pat, d, Bindings())
        if b is None:
            continue
        out = build(tmpl, b, itertools.count(max(labels_of(d), default=0) + 1))
        _check_contract(rule.name, d, out)
        return out
    return None
