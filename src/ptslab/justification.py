"""Justifications: rewrite devices on argument structures.

Three realizations share one contract (output keeps the conclusion and
may only shrink the open assumptions):

  * SchematicRewrite -- pattern => template clauses over formula (?A),
    structure (?D) and discharge-label (?l) metavariables; closed under
    instantiation by construction.
  * ConstantMap -- a finite table of structure pairs.
  * ChoiceFunction -- selects a justification set per (structure, base).

A justification set induces one-step rewriting anywhere inside a
structure; an RSystem is the graph reading, a stored set of whole
structure pairs stepped at the root. Both feed one bounded search
engine, and both are hashable and compare by content.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterable, Iterator, Union

from .argument import (
    ArgStructure,
    Assumption,
    DSpec,
    EmptyTop,
    Inf,
    Pattern,
    PAssume,
    PInf,
    Plug,
    PVar,
    StructureError,
    _facts,
    _Key,
    _map_leaves,
    _parse_tree,
    _positioned,
    _require_contract,
    _slot_order,
    _splice,
    canonical_form,
    canonical_key,
    cut_subtree,
    freshen,
    instantiate,
    labels_of,
    render_structure,
    structures_equal,
)
from .atomic_base import AtomicBase
from .formula import (
    Atom,
    Conj,
    Disj,
    Formula,
    FormulaError,
    FVar,
    Impl,
    MAX_NESTING as _FORMULA_NESTING,
    _Record,
    _set,
)
from .sexpr import MAX_NESTING as _SEXPR_NESTING

__all__ = [
    "JustificationError",
    "JustificationContractError",
    "PVar",
    "PAssume",
    "PInf",
    "DSpec",
    "Plug",
    "SchematicRewrite",
    "ConstantMap",
    "ChoiceFunction",
    "Justification",
    "JustificationSet",
    "RSystem",
    "StepSource",
    "apply_justification",
    "step_candidates",
    "reach",
    "reduces",
    "graph_of",
    "check_closure",
    "is_schematic",
    "parse_rules",
    "or_detour",
    "em_refutation_rule",
]


class JustificationError(ValueError):
    pass


class JustificationContractError(JustificationError):
    """Output broke the same-conclusion / no-new-assumptions contract."""


# ---------------------------------------------------------------------------
# rewrite clauses, compiled once (the nodes live in argument.py)


def _binder(i: int):
    """A test (value, s) that binds slot i to the value where it is unbound, else compares."""

    def bind(value, s) -> bool:
        held = s[i]
        if held is None:
            s[i] = value
        return held is None or held == value

    return bind


def _test(part):
    """A formula test (f, s): the part itself, or a comparison with a formula that holds no variable."""
    return part if callable(part) else lambda f, s: part == f


def _discharged(path: tuple, specs: tuple, n: Inf, s: list) -> bool:
    """Bind what n discharges by the specs, (binder, formula test or None) each, in the first slot order that fits."""
    for perm in itertools.permutations(_slot_order(n)):
        trial = s.copy()
        for (bind, test), label in zip(specs, perm):
            if not bind((path, label), trial) or test is not None and not _fits(test, label, n._facts.binds, trial):
                break
        else:
            s[:] = trial
            return True
    return False


def _fits(test, label: int, binds: tuple, s: list) -> bool:
    """Does every leaf bound as label pass the test?"""
    for l, f in binds:
        if l == label and not test(f, s):
            return False
    return True


def _compile(pat: Pattern, tmpl: Pattern):
    """pattern => template as (match, build, names), from one walk of each
    side, or a JustificationError saying why it is no rewrite clause.
    match(d) runs a flat chain of checks over one slot list and returns the
    list, or None; build(s) fills the template into further slots from it;
    names maps each formula, structure and label variable to its slot. A
    formula variable is bound only outside a discharge constraint (?l "F"),
    which checks the leaves ?l labels. README's "Compiled clauses" says more."""
    blank: list = [None]
    fvars, svars, lvars = names = ({}, {}, {})
    bound: set[str] = set()  # the formula variables a match binds
    uses: Counter = Counter()  # of each structure variable in the pattern
    checks: list = []
    steps: list = []

    def new(value=None, make=None) -> int:
        """A new slot holding the value, or filled by make(s) at the next step of the builder."""
        blank.append(value)
        if make is not None:
            steps.append((len(blank) - 1, make))
        return len(blank) - 1

    def slot(table: dict[str, int], name: str) -> int:
        return table[name] if name in table else table.setdefault(name, new())

    def fpart(fp, binds: bool = True):
        """fp itself where it holds no variable, else a test (f, s) of a formula against it."""
        if isinstance(fp, FVar):
            if binds:
                bound.add(fp.name)
            return _binder(slot(fvars, fp.name))
        if isinstance(fp, Atom):
            return fp
        if isinstance(fp, (Conj, Disj, Impl)):
            left, right = fpart(fp.left, binds), fpart(fp.right, binds)
            if not (callable(left) or callable(right)):
                return fp
            cls, left, right = fp.__class__, _test(left), _test(right)
            return lambda f, s: isinstance(f, cls) and left(f.left, s) and right(f.right, s)
        raise JustificationError(f"bad formula pattern {fp!r}")

    def walk(p, r: int, path: tuple, scope: tuple) -> None:
        """Append the checks of pattern p on the node in slot r; scope holds
        (slot, path) of the enclosing inferences that discharge, nearest first."""
        if isinstance(p, PVar):
            uses[p.name] += 1
            svars.setdefault(p.name, r)
            test = p.concludes is not None and _test(fpart(p.concludes))
            check = lambda n, s: not isinstance(n, EmptyTop) and (
                not test or test(n.formula if isinstance(n, Assumption) else n.conclusion, s))
        elif isinstance(p, EmptyTop):
            check = lambda n, s: isinstance(n, EmptyTop)
        elif isinstance(p, PAssume) and p.labelvar is None:
            test = _test(fpart(p.formula))
            check = lambda n, s: isinstance(n, Assumption) and n.label is None and test(n.formula, s)
        elif isinstance(p, PAssume):
            bind, test = _binder(slot(lvars, p.labelvar)), _test(fpart(p.formula))
            site = lambda l, s: next((at for i, at in scope if l in s[i].discharges), None)
            check = lambda n, s: (isinstance(n, Assumption) and n.label is not None
                                  and bind((site(n.label, s), n.label), s) and test(n.formula, s))
        elif isinstance(p, PInf):
            tag, k, m, test = p.tag, len(p.children), len(p.discharge), _test(fpart(p.conclusion))
            kids = slice(len(blank), len(blank) + k)
            blank.extend([None] * k)

            def check(n, s):
                if not isinstance(n, Inf) or n.tag != tag or len(n.children) != k or len(n.discharges) != m:
                    return False
                s[kids] = n.children
                return test(n.conclusion, s)

            checks.append((r, check))
            for i, child in enumerate(p.children):
                walk(child, kids.start + i, path + (i,), ((r, path),) + scope if m else scope)
            if not m:
                return
            specs = tuple((_binder(slot(lvars, spec.labelvar)),
                           None if spec.formula is None else _test(fpart(spec.formula, False))) for spec in p.discharge)
            check = functools.partial(_discharged, path, specs)
        else:
            raise JustificationError(f"bad pattern {p!r}")
        checks.append((r, check))

    walk(pat, 0, (), ())
    for v, n in uses.items():
        if n > 1:
            raise JustificationError(f"structure variable ?{v} bound {n} times (patterns are linear)")
    made: dict[str, int] = {}  # the label variables only the template names, by their fresh labels' slots
    tfv, tsv, plugged = set(), set(), set()

    def fbuild(fp) -> int:
        """The slot the template formula fp is built in: a constant's where it holds no variable."""
        if isinstance(fp, FVar):
            tfv.add(fp.name)
            return fvars.get(fp.name, 0)
        if isinstance(fp, Atom):
            return new(fp)
        if isinstance(fp, (Conj, Disj, Impl)):
            cls, left, right = fp.__class__, fbuild(fp.left), fbuild(fp.right)
            if blank[left] is not None and blank[right] is not None:  # two constants, the last slots
                del blank[left:]
                return new(fp)
            return new(make=lambda s: cls(s[left], s[right]))
        raise JustificationError(f"bad formula template {fp!r}")

    def label(name) -> int:
        if name not in lvars and name not in made:  # fresh: the k-th takes the k-th label above the redex's
            k = len(made)
            made[name] = new(make=lambda s: (None, max(s[0]._facts.labels, default=0) + 1 + k))
        return lvars[name] if name in lvars else made[name]

    def emit(t) -> int:
        """Append the steps that build template t; the slot it is built in."""
        if isinstance(t, PVar) and t.concludes is None:  # a template's variable constrains nothing
            tsv.add(t.name)
            return svars.get(t.name, 0)
        if isinstance(t, EmptyTop):
            return new(t)
        if isinstance(t, PAssume):
            lbl = None if t.labelvar is None else label(t.labelvar)
            f = fbuild(t.formula)
            return new(make=lambda s: Assumption(s[f], None if lbl is None else s[lbl][1]))
        if isinstance(t, PInf):
            tag, labels = t.tag, [label(spec.labelvar) for spec in t.discharge]
            kids = [emit(child) for child in t.children]
            f = fbuild(t.conclusion)
            return new(make=lambda s: Inf(tag, s[f], tuple([s[k] for k in kids]), frozenset([s[l][1] for l in labels])))
        if isinstance(t, Plug):
            tsv.add(t.source)
            plugged.add(t.labelvar)
            tree, lbl, filler = svars.get(t.source, 0), lvars.get(t.labelvar, 0), emit(t.filler)
            return new(make=lambda s: _plug(s[tree], s[lbl][1], s[filler]))
        raise JustificationError(f"bad template {t!r}")

    out = emit(tmpl)
    for unbound, kind in ((tfv - bound, "template formula"), (tsv - svars.keys(), "template structure"),
                          (plugged - lvars.keys(), "plugged label")):
        if unbound:
            raise JustificationError(f"{kind} variables {sorted(unbound)} unbound")

    def match(d: ArgStructure) -> list | None:
        s = blank.copy()
        s[0] = d
        for r, check in checks:
            if not check(s[r], s):
                return None
        return s

    def build(s: list) -> ArgStructure:
        for i, make in steps:
            s[i] = make(s)
        return s[out]

    return match, build, names


def _plug(tree: ArgStructure, label: int, fill: ArgStructure) -> ArgStructure:
    """tree with fill, renamed away from tree's labels, at every leaf labelled label."""
    fill = freshen(fill, labels_of(tree))
    return _map_leaves(tree, lambda n: fill if n.label == label else n)


# ---------------------------------------------------------------------------
# the three justification kinds


class SchematicRewrite(_Record):
    """A named rewrite rule; clauses are tried in order, first match applies.
    Each clause is compiled (_compile) and the hash of the fields computed
    when the rule is built, both kept outside its fields."""

    _fields = __match_args__ = ("name", "clauses")

    def __init__(self, name: str, clauses: tuple[tuple[Pattern, Pattern], ...]):
        if not clauses:
            raise JustificationError(f"rule {name}: no clauses")
        try:
            compiled = tuple([_compile(pat, tmpl) for pat, tmpl in clauses])
        except JustificationError as e:
            raise JustificationError(f"rule {name}: {e}") from None
        _set(self, "name", name)
        _set(self, "clauses", clauses)
        _set(self, "_compiled", compiled)
        _set(self, "_hash", hash((name, clauses)))

    def __hash__(self) -> int:
        return self._hash


def _class_of(d: object, name: str) -> _Key:
    """d's class key; a JustificationError naming the argument unless d is a structure."""
    try:
        return d._facts.key
    except AttributeError:
        raise JustificationError(f"{name} must be a structure, not {type(d).__name__}") from None


class _ByContent(_Record):
    """Equality and hashing by the `_content` a constructor sets: a table's
    entries taken as a set, so their order makes no difference."""

    def __eq__(self, other):
        return type(other) is type(self) and self._content == other._content

    def __hash__(self):
        return self._hash

    def _set_content(self, content) -> None:
        _set(self, "_content", content)
        _set(self, "_hash", hash(content))


class ConstantMap(_ByContent):
    """A finite table of rewrites, looked up modulo label renaming: its index
    files each key's last image under the key's class key."""

    _fields = __match_args__ = ("name", "pairs")

    def __init__(self, name: str, pairs: tuple[tuple[ArgStructure, ArgStructure], ...]):
        _set(self, "name", name)
        _set(self, "pairs", pairs)
        index: dict[_Key, ArgStructure] = {}
        for k, v in pairs:
            for x in (k, v):
                if not isinstance(x, ArgStructure):
                    raise JustificationError(f"table {name}: a key or image must be a structure, not {x!r}")
            if index.setdefault(k._facts.key, v)._facts.key is not v._facts.key:
                raise JustificationError(f"table {name}: two images for one structure")
            index[k._facts.key] = v
        _set(self, "_index", index)
        self._set_content((name, frozenset([(kk, v._facts.key) for kk, v in index.items()])))

    def lookup(self, d: ArgStructure) -> ArgStructure | None:
        return self._index.get(_class_of(d, "d"))


class ChoiceFunction(_ByContent):
    """Selects a justification set per (structure, base): entries ((structure,
    base), set), filed under (class key, base) like a ConstantMap's."""

    _fields = __match_args__ = ("name", "table")

    def __init__(self, name: str, table: tuple[tuple[tuple[ArgStructure, AtomicBase], "JustificationSet"], ...]):
        for (k, base), sel in table:
            if not isinstance(k, ArgStructure):
                raise JustificationError(f"choice function {name}: a key must be a structure, not {k!r}")
            if not isinstance(base, AtomicBase):
                raise JustificationError(
                    f"choice function {name}: a base must be an AtomicBase, not {type(base).__name__}")
            if not isinstance(sel, JustificationSet):
                raise JustificationError(
                    f"choice function {name}: a selection must be a JustificationSet, not {type(sel).__name__}")
        _set(self, "name", name)
        _set(self, "table", table)
        _set(self, "_index", {(k._facts.key, base): sel for (k, base), sel in table})
        self._set_content((name, frozenset(self._index.items())))

    def selection(self, d: ArgStructure, base: AtomicBase) -> "JustificationSet | None":
        return self._index.get((_class_of(d, "d"), base))


Justification = Union[SchematicRewrite, ConstantMap, ChoiceFunction]


class JustificationSet(_ByContent):
    _fields = __match_args__ = ("members",)

    def __init__(self, members: tuple[Justification, ...] = ()):
        for j in members:
            if not isinstance(j, (SchematicRewrite, ConstantMap, ChoiceFunction)):
                raise JustificationError(f"members must hold justifications only, not {type(j).__name__}")
        ordered = tuple(sorted(members, key=lambda j: j.name))
        names = [j.name for j in ordered]
        if len(set(names)) != len(names):
            raise JustificationError(f"duplicate justification names: {names}")
        _set(self, "members", ordered)
        self._set_content(ordered)
        _set(self, "_dispatch", _Dispatch(ordered))

    def union(self, other: "JustificationSet") -> "JustificationSet":
        byname = {j.name: j for j in self.members}
        for j in other.members:
            if j.name in byname:
                if byname[j.name] != j:
                    raise JustificationError(f"conflicting justifications named {j.name}")
            else:
                byname[j.name] = j
        return JustificationSet(tuple(byname.values()))

    def __or__(self, other):
        return self.union(other)

    def __len__(self):
        return len(self.members)


def _root_tag(d: ArgStructure) -> str | None:
    """What a node shows before it is cut out: an inference's tag, None for an assumption."""
    return d.tag if isinstance(d, Inf) else None


class _Dispatch:
    """A justification set's members, indexed by the nodes they can fire at.

    A node's candidates are (member position, table image or None) pairs in
    member order. A rewrite whose every clause pattern is rooted in an
    inference can fire only at nodes with one of those tags; any other
    rewrite may fire anywhere. Table entries are filed under their key's
    class key; of the images one class receives, only the first of each
    image class is kept, since a later one splices to the same reduct with
    the same contract verdict. A choice function is filed, with no image,
    under the class key of each of its key structures, whatever their bases,
    so it is tried only at a node of one of those classes. choice says
    whether a member is a choice function: then stepping needs a base.
    """

    def __init__(self, members: tuple[Justification, ...]):
        anywhere: list[tuple[int, None]] = []
        tagged: dict[str, list[tuple[int, None]]] = {}
        # key class -> its root tag, and image class (a choice function's position for its hit) -> hit
        hits: dict[_Key, tuple[str | None, dict[object, tuple[int, ArgStructure | None]]]] = {}
        for i, j in enumerate(members):
            if isinstance(j, ConstantMap):
                for k, _v in j.pairs:
                    v = j._index[k._facts.key]  # the image the table keeps for the class
                    hits.setdefault(k._facts.key, (_root_tag(k), {}))[1].setdefault(v._facts.key, (i, v))
            elif isinstance(j, ChoiceFunction):
                for (k, _base), _sel in j.table:
                    hits.setdefault(k._facts.key, (_root_tag(k), {}))[1].setdefault(i, (i, None))
            elif isinstance(j, SchematicRewrite) and all(isinstance(p, PInf) for p, _ in j.clauses):
                for tag in dict.fromkeys(p.tag for p, _ in j.clauses):
                    tagged.setdefault(tag, []).append((i, None))
            else:
                anywhere.append((i, None))
        self.choice = any(isinstance(j, ChoiceFunction) for j in members)
        self._default = (tuple(anywhere), False)
        self._plans = {tag: (tuple(sorted(anywhere + ps)), False) for tag, ps in tagged.items()}
        for tag in {tag for tag, _images in hits.values()}:
            self._plans[tag] = (self.at(tag)[0], True)
        self.by_key = {
            kk: tuple(sorted(self.at(tag)[0] + tuple(images.values()), key=lambda c: c[0]))
            for kk, (tag, images) in hits.items()
        }

    def at(self, tag: str | None) -> tuple[tuple[tuple[int, ArgStructure | None], ...], bool]:
        """The candidates at a node with this root tag unless the node is a
        key of a table entry or a choice function, and whether it may be one."""
        return self._plans.get(tag, self._default)


class RSystem(_ByContent):
    """A set of whole-structure reduction pairs, stepped at the root."""

    _fields = __match_args__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[ArgStructure, ArgStructure], ...] = ()):
        kept = []
        index: dict[_Key, dict[_Key, ArgStructure]] = {}  # a's class key -> its first image per class key
        for a, z in pairs:
            if not (isinstance(a, ArgStructure) and isinstance(z, ArgStructure)):
                _check_contract("reduction pair", a, z)  # it names what is not a structure
            images = index.setdefault(a._facts.key, {})
            if z._facts.key not in images:  # the contract holds up to relabelling: check each class once
                _check_contract("reduction pair", a, z)
                images[z._facts.key] = z
                kept.append((a, z))
        _set(self, "pairs", tuple(kept))
        _set(self, "_index", index)
        self._set_content(frozenset([(ka, kz) for ka, images in index.items() for kz in images]))

    def union(self, other: "RSystem") -> "RSystem":
        return RSystem(self.pairs + other.pairs)

    def __or__(self, other):
        return self.union(other)

    def __len__(self):
        return len(self.pairs)


StepSource = Union[JustificationSet, RSystem]


def _check_contract(name: str, din: ArgStructure, dout: ArgStructure) -> None:
    try:
        _require_contract(din, dout)
    except StructureError as e:
        raise JustificationContractError(f"{name}: {e}") from None


def _apply_rewrite(rule: SchematicRewrite, d: ArgStructure) -> ArgStructure | None:
    for match, build, _names in rule._compiled:
        if (s := match(d)) is not None:
            out = build(s)
            _check_contract(rule.name, d, out)
            return out
    return None


def apply_justification(
    j: Justification, d: ArgStructure, base: AtomicBase | None = None
) -> ArgStructure | None:
    """Apply j to the whole structure d; None when d is outside j's domain."""
    _class_of(d, "d")  # JustificationError unless d is a structure
    match j:
        case SchematicRewrite():
            return _apply_rewrite(j, d)
        case ConstantMap():
            out = j.lookup(d)
            if out is None:
                return None
            _check_contract(j.name, d, out)
            return out
        case ChoiceFunction():
            if base is None:
                raise JustificationError(f"choice function {j.name} needs a base")
            sel = j.selection(d, base)
            if sel is None:
                return None
            for member in sel.members:
                out = apply_justification(member, d, base)
                if out is not None:
                    return out
            return None
    raise JustificationError(f"not a justification: {j!r}")


# ---------------------------------------------------------------------------
# one-step rewriting and bounded reduction search


def step_candidates(
    src: StepSource, d: ArgStructure, base: AtomicBase | None = None
) -> dict[str, ArgStructure]:
    """All one-step reducts by canonical key, innermost-leftmost positions
    first and members in order at each position: the text view of the
    reducts the search steps through."""
    _facts(d)  # StructureError unless d is a structure
    return {canonical_key(r): r for r in _stepped(src, d, base, {})}


def _one_step(
    src: StepSource, d: ArgStructure, base: AtomicBase | None, table: dict[_Key, list[ArgStructure]], walk: list
) -> list[ArgStructure]:
    """The one-step reducts of d, one per class up to relabelling (the
    first met, told apart by class key), in the order of step_candidates.

    A rewrite inside a label-closed proper substructure (one whose labels
    are all discharged inside it) does not depend on what is around it, so
    the walk does not descend into one: it grafts the substructure's own
    reducts, which the step table holds under its class key (_stepped
    enters them first), renamed away from the labels discharged above it.
    Every other position is cut out, matched and spliced back. The walk is
    the one _stepped made to find those substructures."""
    if isinstance(src, RSystem):
        return list(src._index.get(d._facts.key, {}).values())
    index = src._dispatch
    if index.choice and base is None:
        name = next(j.name for j in src.members if isinstance(j, ChoiceFunction))
        raise JustificationError(f"choice function {name} needs a base")
    out: dict[_Key, ArgStructure] = {}  # by class: the first reduct met of each
    for pos, node in walk:
        if pos and not node._facts.free:
            for r in table[node._facts.key]:
                r = _splice(d, pos, [], r)
                out.setdefault(r._facts.key, r)
            continue
        plan, keyed = index.at(_root_tag(node))
        if not plan and not keyed:
            continue  # no member can fire here
        sub, ctx = cut_subtree(d, pos)
        for i, image in index.by_key.get(sub._facts.key, plan) if keyed else plan:
            j = src.members[i]
            try:
                if image is not None:
                    _check_contract(j.name, sub, image)
                    r = image
                else:
                    r = apply_justification(j, sub, base)
            except JustificationContractError:
                continue
            if r is not None:
                # r was checked against sub: splice without a recheck
                r = _splice(d, pos, ctx, r)
                out.setdefault(r._facts.key, r)
    return list(out.values())


def _stepped(
    src: StepSource, d: ArgStructure, base: AtomicBase | None, table: dict[_Key, list[ArgStructure]]
) -> list[ArgStructure]:
    """d's one-step reducts from the step table, which files them under the
    class key. What the table lacks is stepped bottom-up from an explicit
    stack, each label-closed substructure _one_step reads before the
    structure around it, so every class is stepped once per table. A class
    is walked once: the walk that finds its label-closed substructures waits
    on the stack until they are stepped, and _one_step is handed it."""
    out = table.get(d._facts.key)
    if out is not None:
        return out
    positional = isinstance(src, JustificationSet)  # a reduction system steps at the root alone
    todo: list[tuple[ArgStructure, list | None]] = [(d, None)]
    while todo:
        node, walk = todo.pop()
        if walk is not None:
            out = table[node._facts.key] = _one_step(src, node, base, table, walk)
        elif node._facts.key not in table:
            walk = _positioned(node, into_closed=False) if positional else []
            todo.append((node, walk))
            todo += [(sub, None) for pos, sub in reversed(walk) if pos and not sub._facts.free]
    return out  # d's: it was stepped last


class _Reducts:
    """The search of reach as a stream of (reduct, depth), breadth-first,
    the start first, read once: a reader that stops early leaves the rest
    undone, and once the stream is drained, bound says whether a bound cut
    the search off. Reducts are told apart by class key (argument._Key), so
    no key text is written.

    Each structure is stepped through a step table (_stepped: from class
    key to one-step reducts, for one step source and, when the source
    selects by base, one base). A stream makes its own unless given one:
    streams that share it step each class up to relabelling, substructures
    included, once between them."""

    __slots__ = ("_args", "bound")

    def __init__(
        self,
        src: StepSource,
        start: ArgStructure,
        base,
        max_steps: int,
        max_size: int,
        table: dict[_Key, list[ArgStructure]] | None = None,
    ):
        for n in (max_steps, max_size):
            if n.__class__ is not int:  # True or 2.5 is no bound
                raise JustificationError(f"bounds must be integers, not {n!r}")
        if max_steps < 0 or max_size < 0:
            raise JustificationError("bounds must be non-negative")
        _facts(start)  # StructureError unless start is a structure
        self._args = (src, start, base, max_steps, max_size, {} if table is None else table)
        self.bound = False

    def __iter__(self) -> Iterator[tuple[ArgStructure, int]]:
        src, start, base, max_steps, max_size, table = self._args
        yield start, 0
        seen, frontier, hit, depth = {start._facts.key}, [start], False, 0
        while frontier and depth <= max_steps:
            depth += 1
            past = depth > max_steps  # this level yields nothing: can the search go on?
            nxt = []
            for d in frontier:
                if past and hit:
                    break
                for c in _stepped(src, d, base, table):
                    facts = c._facts
                    if facts.size > max_size or (past and facts.key not in seen):
                        hit = True
                        if past:
                            break
                    elif facts.key not in seen:
                        seen.add(facts.key)
                        nxt.append(c)
                        yield c, depth
            frontier = nxt
        self.bound = hit


def reach(
    src: StepSource,
    start: ArgStructure,
    base: AtomicBase | None = None,
    max_steps: int = 10,
    max_size: int = 400,
) -> tuple[dict[str, tuple[ArgStructure, int]], bool]:
    """Breadth-first reducts with depths by canonical key, plus a flag set
    when a bound cut the search off (depth cap with work left, or an
    oversize reduct)."""
    stream = _Reducts(src, start, base, max_steps, max_size)
    return {canonical_key(r): (r, depth) for r, depth in stream}, stream.bound


def reduces(
    src: StepSource,
    frm: ArgStructure,
    to: ArgStructure,
    max_steps: int,
    base: AtomicBase | None = None,
) -> bool:
    """Is there a chain of at most max_steps one-step rewrites from frm to to
    (equal up to relabelling)? Zero steps count: a structure reduces to
    itself. The search stops where it first meets to."""
    if not isinstance(src, (JustificationSet, RSystem)):  # else frm == to would answer without a step
        raise JustificationError(f"src must be a JustificationSet or RSystem, not {type(src).__name__}")
    return any(r == to for r, _depth in _Reducts(src, frm, base, max_steps, 1 << 30))


def graph_of(j: Justification, domain: Iterable[ArgStructure], base: AtomicBase | None = None) -> RSystem:
    """The graph of j over the domain, as a reduction system."""
    try:
        domain = iter(domain)
    except TypeError:
        raise JustificationError(f"domain must be an iterable of structures, not {type(domain).__name__}") from None
    pairs = []
    for d in domain:
        out = apply_justification(j, d, base)
        if out is None:
            raise JustificationError(f"{j.name} is not defined on {render_structure(d)}")
        pairs.append((d, out))
    return RSystem(tuple(pairs))


def check_closure(
    j: Justification,
    samples: Iterable[tuple[ArgStructure, dict[Formula, ArgStructure]]],
    base: AtomicBase | None = None,
) -> bool:
    """Is j closed under instantiation on these samples?

    For each (d, sigma): applying j to the sigma-instance of d must be
    defined and must equal the sigma-instance of j's output on d.
    """
    for d, sigma in samples:
        out = apply_justification(j, d, base)
        if out is None:
            return False
        inst = instantiate(d, sigma)
        lhs = apply_justification(j, inst, base)
        if lhs is None:
            return False
        rhs = instantiate(out, sigma)
        if not structures_equal(lhs, rhs):
            return False
    return True


# ---------------------------------------------------------------------------
# schematicity


def _scheme(entries: list[tuple[ArgStructure, ArgStructure]]) -> tuple[Pattern, Pattern] | None:
    """The least general linear pattern => template of which every entry
    is an instance, from one walk over the entries' columns with an
    explicit stack: the keys in lockstep, then the values.

    Where all entries agree, the scheme has their node: the same class, a
    leaf with the same label, an inference with the same tag, arity and
    discharge set, the same atom, the same connective. Where they differ it
    has a variable, one per distinct column, found by the column's exact
    content (the texts of its structures, its formulas); the two sides
    share the table, so a template column that a key column holds reads
    the pattern's variable. Patterns are linear, so a structure column the
    keys hold twice gets a fresh variable at each place, and the template
    reads the first one; a formula column may repeat.

    None when the scheme would nest more than sexpr.MAX_NESTING structure
    nodes or formula.MAX_NESTING connectives deep: no rule text that deep
    can be read, since those limits keep the recursive readers and the
    rule compiler (_compile) inside the recursion limit."""
    names: dict[tuple, str] = {}  # a column that differs -> its (first) variable
    made = itertools.count()
    done: list = []  # built scheme parts, the last ones on top
    # (kind, column, n): "s" and "f" walk a column of structures or formulas n deep,
    # "b" builds the scheme node of the column's class from the last n parts,
    # and "t" marks the end of the keys
    keys = tuple(k for k, _ in entries)
    todo: list = [("s", tuple(v for _, v in entries), 1), ("t", keys, 0), ("s", keys, 1)]
    in_keys = True
    while todo:
        kind, col, n = todo.pop()
        x = col[0]
        if kind == "t":
            in_keys = False
            continue
        if kind == "b":
            parts = done[-n:]
            del done[-n:]
            if isinstance(x, Inf):
                dspecs = tuple(DSpec(f"L{l}") for l in sorted(x.discharges))
                done.append(PInf(x.tag, parts[0], tuple(parts[1:]), dspecs))
            elif isinstance(x, Assumption):
                done.append(PAssume(parts[0], None if x.label is None else f"L{x.label}"))
            else:
                done.append(x.__class__(*parts))
            continue
        same = all(y.__class__ is x.__class__ for y in col)
        if kind == "f":
            if same and isinstance(x, Atom) and all(y == x for y in col):
                done.append(x)
            elif same and isinstance(x, (Conj, Disj, Impl)):
                if n > _FORMULA_NESTING:
                    return None
                todo.append(("b", col, 2))
                todo += [("f", tuple(y.right for y in col), n + 1), ("f", tuple(y.left for y in col), n + 1)]
            else:
                column = ("f", col)
                if column not in names:
                    names[column] = f"G{next(made)}"
                done.append(FVar(names[column]))
        elif same and (
            isinstance(x, EmptyTop)
            or isinstance(x, Assumption) and all(y.label == x.label for y in col)
            or isinstance(x, Inf) and all(
                y.tag == x.tag and len(y.children) == len(x.children) and y.discharges == x.discharges for y in col
            )
        ):
            if n > _SEXPR_NESTING:
                return None
            if isinstance(x, EmptyTop):
                done.append(x)
            elif isinstance(x, Assumption):
                todo += [("b", col, 1), ("f", tuple(y.formula for y in col), 1)]
            else:
                kids = len(x.children)
                todo.append(("b", col, kids + 1))
                todo += [("s", tuple(y.children[i] for y in col), n + 1) for i in reversed(range(kids))]
                todo.append(("f", tuple(y.conclusion for y in col), 1))
        else:
            column = ("s", tuple(render_structure(y) for y in col))
            name = names.get(column)
            if name is None or in_keys:
                name = f"G{next(made)}"
                names.setdefault(column, name)
            done.append(PVar(name))
    pat, tmpl = done
    return pat, tmpl


def _table_is_schematic(cm: ConstantMap) -> bool:
    # one entry per key class, in canonical form: their labels number alike
    entries = list({k._facts.key: (canonical_form(k), canonical_form(v)) for k, v in cm.pairs}.values())
    if len(entries) < 2:
        # a lone ground pair is a table entry, not a rewriting scheme
        return False
    scheme = _scheme(entries)
    if scheme is None:
        return False  # too deep
    try:  # nonlinear, the output not a function of the matched parts, or an entry breaking the contract
        rule = SchematicRewrite(cm.name + "~scheme", (scheme,))
        return all((out := _apply_rewrite(rule, k)) is not None and structures_equal(out, v) for k, v in entries)
    except JustificationError:
        return False


def is_schematic(j: Justification) -> bool:
    """Is j expressible as a base-independent structure-rewriting rule?

    Rewrite rules are schematic outright; choice functions are not (they
    are defined on structure/base pairs, not structures). A finite table
    counts when it has at least two distinct entries and their least
    general scheme (_scheme, over their canonical forms) is a rewrite
    clause that reproduces every entry. A table whose scheme would nest
    deeper than a rule line can be read is not schematic.
    """
    match j:
        case SchematicRewrite():
            return True
        case ChoiceFunction():
            return False
        case ConstantMap():
            return _table_is_schematic(j)
    raise JustificationError(f"not a justification: {j!r}")


# ---------------------------------------------------------------------------
# rule files:  name: PATTERN => TEMPLATE      (repeated names merge clauses)


def _split_arrow(line: str, lineno: int) -> tuple[str, str]:
    in_str = False
    i = 0
    while i < len(line) - 1:
        c = line[i]
        if c == '"' and (i == 0 or line[i - 1] != "\\"):
            in_str = not in_str
        elif not in_str and line[i] == "=" and line[i + 1] == ">":
            return line[:i], line[i + 2 :]
        i += 1
    raise JustificationError(f"line {lineno}: expected 'name: PATTERN => TEMPLATE'")


def parse_rules(text: str) -> JustificationSet:
    """Parse a rewrite-rule file into a set of schematic rewrites."""
    if not isinstance(text, str):
        raise JustificationError(f"text must be a str, not {type(text).__name__}")
    rules: dict[str, SchematicRewrite] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        name, colon, body = line.partition(":")
        if not colon or not name.strip():
            raise JustificationError(f"line {lineno}: expected 'name: PATTERN => TEMPLATE'")
        name = name.strip()
        lhs, rhs = _split_arrow(body, lineno)
        try:
            pat = _parse_tree(lhs, "pattern")
            tmpl = _parse_tree(rhs, "template")
            earlier = rules[name].clauses if name in rules else ()
            # the constructor checks the new clause, so its error can name this line
            rules[name] = SchematicRewrite(name, earlier + ((pat, tmpl),))
        except (FormulaError, StructureError, JustificationError) as e:
            raise JustificationError(f"line {lineno}: {e}") from None
    return JustificationSet(tuple(rules.values()))


_OR_DETOUR_TEXT = """
or_detour: (inf orE "?B" (inf orI1 "?A1 | ?A2" (?D1 :concludes "?A1")) (?D2 :concludes "?B") (?D3 :concludes "?B") :discharge ((?l1 "?A1") (?l2 "?A2"))) => (plug ?D2 ?l1 ?D1)
or_detour: (inf orE "?B" (inf orI2 "?A1 | ?A2" (?D1 :concludes "?A2")) (?D2 :concludes "?B") (?D3 :concludes "?B") :discharge ((?l1 "?A1") (?l2 "?A2"))) => (plug ?D3 ?l2 ?D1)
"""

_EM_REFUTE_TEXT = """
em_refute: (inf ax "?A | ~?A" (empty)) => (inf orI2 "?A | ~?A" (inf impI "~?A" (inf step "_|_" (assume "?A" :label ?l)) :discharge (?l)))
"""

@functools.cache
def or_detour() -> SchematicRewrite:
    """Removes a disjunction detour: an elimination whose major premise was
    just introduced collapses onto the matching case branch."""
    return parse_rules(_OR_DETOUR_TEXT).members[0]


@functools.cache
def em_refutation_rule() -> SchematicRewrite:
    """Rewrites an excluded-middle axiom node to the right-injection form
    built over a vacuous refutation of the left disjunct."""
    return parse_rules(_EM_REFUTE_TEXT).members[0]
