"""Argument structures: formula trees with assumption discharge.

A structure is an assumption leaf, an empty top marker, or an inference
node with a rule tag, a conclusion, premise subtrees and a set of
integer discharge labels. A labelled assumption leaf must be discharged
by exactly one inference node strictly below it; unlabelled leaves are
the open assumptions. An inference tag is any text the reader reads back
as one symbol: structures are not confined to any fixed rule set, only
canonicity singles out the four introduction shapes.

Rewrite rules are written in the same tree language: a pattern is a
structure whose formulas may hold ?A variables, whose leaves may be ?D
structure variables and whose labels are ?l variables; a template is a
pattern that may also hold (plug ...). One reader serves all three.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter

from .formula import Atom, Conj, Disj, Formula, FVar, Impl, _Record, _set, parse_formula, render_formula
from .sexpr import _SYMBOL_RE, SexprError, Sym, read_all_sexprs, read_sexpr

__all__ = [
    "StructureError",
    "ConclusionMismatch",
    "AssumptionEscape",
    "Assumption",
    "EmptyTop",
    "Inf",
    "ArgStructure",
    "PVar",
    "PAssume",
    "PInf",
    "DSpec",
    "Plug",
    "Pattern",
    "StructureInfo",
    "conclusion_of",
    "check_structure",
    "analyze",
    "size_of",
    "labels_of",
    "relabel",
    "freshen",
    "positions",
    "subtree_at",
    "cut_subtree",
    "substitute",
    "instantiate",
    "is_canonical",
    "immediate_substructures",
    "canonical_form",
    "canonical_key",
    "structures_equal",
    "parse_structure",
    "parse_structures",
    "render_structure",
]


class StructureError(ValueError):
    pass


class ConclusionMismatch(StructureError):
    pass


class AssumptionEscape(StructureError):
    pass


class _Facts:
    """What a node knows of itself, built with the node from its children's facts.

    size:   nodes, itself included;
    labels: the labels on its leaves and in its discharge sets;
    free:   (label, formula) of its labelled leaves that no inference inside
            it discharges, in pre-order;
    bound:  the labels of its leaves that an inference inside it discharges;
    double: whether some leaf has two discharging inferences inside it;
    opens:  the formulas of its unlabelled leaves, in pre-order;
    binds:  (label, formula) of the leaves it discharges itself, in pre-order;
    key:    its class up to relabelling, the _Key its shape finds in _KEYS.

    A node with one child and no discharge shares the child's sets and
    tuples, and empty ones are shared too. The records hold labels and
    formulas, never leaves, so no leaf is in a reference cycle with its facts.
    """

    __slots__ = ("size", "labels", "free", "bound", "double", "opens", "binds", "key")

    def __init__(self, size, labels, free, bound, double, opens, binds, key):
        self.size, self.labels, self.free, self.bound, self.double = size, labels, free, bound, double
        self.opens, self.binds, self.key = opens, binds, key


class _Key:
    """One class of structures equal up to relabelling: every node of the class holds this object."""

    __slots__ = ("__weakref__",)


class _KeyRef(weakref.ref):
    """A weak reference to a class's key, carrying the shape it is filed under."""

    __slots__ = ("shape",)


_KEYS: dict[tuple, _KeyRef] = {}
"""Each class's key by its shape, held weakly: (formula, labelled) for a leaf,
and (tag, conclusion, the children's keys, _wiring) for an inference. It
holds shapes, never a node, and an entry goes with the last node of its
class. Like the rest of the library, it assumes that one thread at a time
builds structures."""


def _forget(ref: _KeyRef, _keys: dict = _KEYS) -> None:
    """Drop a dead key's entry, unless its shape has been filed again since.
    The table is bound as a default, so a key that dies while the
    interpreter shuts down still finds it."""
    if _keys.get(ref.shape) is ref:
        del _keys[ref.shape]


def _key_of(shape: tuple) -> _Key:
    """The live key filed under the shape, or a new one filed there."""
    ref = _KEYS.get(shape)
    key = None if ref is None else ref()
    if key is None:
        key = _Key()
        ref = _KEYS[shape] = _KeyRef(key, _forget)
        ref.shape = shape
    return key


_NONE: frozenset[int] = frozenset()


class _Node(_Record):
    """Equality and hashing up to the renaming of discharge labels, the
    relation canonical_key equality tests: nodes are equal when they hold one
    key. A copy or an unpickled node is built again from its fields, so it
    finds its key too. The repr is _repr's, written with an explicit stack."""

    def __hash__(self) -> int:
        return hash(self._facts.key)

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self._facts.key is other._facts.key

    def __reduce__(self):
        """_rebuild and one record per distinct node, each after its children:
        its class and fields, an inference's children as record numbers. Flat,
        so nothing recurses, and a shared subtree is written once."""
        out, num, stack = [], {}, [self]
        while stack:
            node = stack.pop()
            if id(node) in num:
                continue
            if not isinstance(node, Inf):
                out.append((node.__class__, *node._values(node)))
            elif wait := [ch for ch in node.children if id(ch) not in num]:
                stack += [node, *wait]  # its children first, then itself again
                continue
            else:
                kids = tuple([num[id(ch)] for ch in node.children])
                out.append((Inf, node.tag, node.conclusion, kids, node.discharges))
            num[id(node)] = len(out) - 1
        return _rebuild, (tuple(out),)


class Assumption(_Node):
    _fields = __match_args__ = ("formula", "label")

    def __init__(self, formula: Formula, label: int | None = None):
        if label is not None and label.__class__ is not int:  # True or 1.0 would not read back
            raise StructureError(f"labels are integers, not {label!r}")
        _set(self, "formula", formula)
        _set(self, "label", label)
        _set(self, "_facts", _node_facts(self))


class EmptyTop(_Node):
    _facts = _Facts(1, _NONE, (), _NONE, False, (), (), _Key())  # every empty node has the same


_TAGS: set[str] = set()
"""Tags Inf has accepted, so that a tag is matched against _SYMBOL_RE once;
at most _MAX_TAGS of them are kept."""
_MAX_TAGS = 1024


class Inf(_Node):
    _fields = __match_args__ = ("tag", "conclusion", "children", "discharges")

    def __init__(
        self, tag: str, conclusion: Formula, children: tuple["ArgStructure", ...], discharges: frozenset[int] = _NONE
    ):
        if tag.__class__ is not str or tag not in _TAGS:
            _accept_tag(tag)
        try:
            children, discharges = tuple(children), frozenset(discharges)
        except TypeError as e:  # not iterable, or a label that is not hashable
            raise StructureError(f"bad children or discharge set for an inference node: {e}") from None
        if not children:
            raise StructureError("inference nodes need at least one child; use (empty) for none")
        for l in discharges:
            if l.__class__ is not int:
                raise StructureError(f"labels are integers, not {l!r}")
        _set(self, "tag", tag)
        _set(self, "conclusion", conclusion)
        _set(self, "children", children)
        _set(self, "discharges", discharges)
        _set(self, "_facts", _node_facts(self))


def _accept_tag(tag) -> None:
    """Raise StructureError unless the tag reads back as one symbol; file it in _TAGS."""
    if not isinstance(tag, str) or not _SYMBOL_RE.fullmatch(tag):
        raise StructureError(f"inference nodes need a one-symbol rule tag, not {tag!r}")
    if tag.__class__ is str and len(_TAGS) < _MAX_TAGS:
        _TAGS.add(tag)


ArgStructure = Assumption | EmptyTop | Inf


def _rebuild(records: tuple[tuple, ...]) -> ArgStructure:
    """The structure _Node.__reduce__ wrote, each node built after its children: the last is the root."""
    done: list[ArgStructure] = []
    for cls, *fields in records:
        if cls is Inf:
            fields[2] = tuple([done[i] for i in fields[2]])
        done.append(cls(*fields))
    return done[-1]


# rule trees: label variables stand where structures have integer labels


class PVar(_Record):
    """A structure variable ?D; in patterns it may constrain its conclusion."""

    _fields = __match_args__ = ("name", "concludes")

    def __init__(self, name: str, concludes: Formula | FVar | None = None):
        _set(self, "name", name)
        _set(self, "concludes", concludes)


class PAssume(_Record):
    _fields = __match_args__ = ("formula", "labelvar")

    def __init__(self, formula: Formula | FVar, labelvar: str | None = None):
        _set(self, "formula", formula)
        _set(self, "labelvar", labelvar)


class DSpec(_Record):
    """A discharged label variable; in patterns it may constrain the
    formulas of the leaves it binds."""

    _fields = __match_args__ = ("labelvar", "formula")

    def __init__(self, labelvar: str, formula: Formula | FVar | None = None):
        _set(self, "labelvar", labelvar)
        _set(self, "formula", formula)


class PInf(_Record):
    _fields = __match_args__ = ("tag", "conclusion", "children", "discharge")

    def __init__(
        self, tag: str, conclusion: Formula | FVar, children: tuple["Pattern", ...], discharge: tuple[DSpec, ...] = ()
    ):
        _set(self, "tag", tag)
        _set(self, "conclusion", conclusion)
        _set(self, "children", children)
        _set(self, "discharge", discharge)


class Plug(_Record):
    """Insert the filler at every leaf of `source` carrying label `labelvar`."""

    _fields = __match_args__ = ("source", "labelvar", "filler")

    def __init__(self, source: str, labelvar: str, filler: "Pattern"):
        _set(self, "source", source)
        _set(self, "labelvar", labelvar)
        _set(self, "filler", filler)


# a template is a pattern that may also hold Plug
Pattern = PVar | PAssume | EmptyTop | PInf | Plug


def conclusion_of(d: ArgStructure) -> Formula:
    match d:
        case Assumption(f, _):
            return f
        case Inf(_, c, _, _):
            return c
        case EmptyTop():
            raise StructureError("an empty top node has no conclusion")
    raise StructureError(f"not a structure: {d!r}")


def _map_leaves(d: ArgStructure, leaf, discharges=None) -> ArgStructure:
    """d rebuilt with every assumption leaf n replaced by leaf(n) and, when
    given, every discharge set s by discharges(s); both are called in
    pre-order, from one walk without recursion."""
    if not isinstance(d, _Node):  # a tuple would pass for the walk's own rebuild marker
        raise StructureError(f"not a structure: {d!r}")
    done: list[ArgStructure] = []  # rebuilt subtrees, the last ones on top
    stack: list = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, Assumption):
            done.append(leaf(node))
        elif isinstance(node, Inf):
            # rebuilt once its children are: a (node, discharges) pair
            stack.append((node, node.discharges if discharges is None else discharges(node.discharges)))
            stack.extend(reversed(node.children))
        elif isinstance(node, tuple):
            node, dis = node
            n = len(node.children)
            kids = tuple(done[-n:])
            del done[-n:]
            done.append(Inf(node.tag, node.conclusion, kids, dis))
        else:
            done.append(node)
    return done[0]


def _union(s: frozenset[int], t: frozenset[int]) -> frozenset[int]:
    """s | t, sharing s or t when it holds the other."""
    return s if t <= s else t if s <= t else s | t


def _node_facts(node: Assumption | Inf) -> _Facts:
    """The facts of a node being built, from one pass over its children's:
    a node with one child shares the child's sets and tuples, a child
    without labels adds only its size and open leaves, and a node that
    discharges nothing and whose children have no free labels is keyed
    without a wiring walk."""
    f = node.formula if isinstance(node, Assumption) else node.conclusion
    if not isinstance(f, (Atom, Conj, Disj, Impl)):  # an FVar too: metavariables belong to patterns
        raise StructureError(f"a structure node needs a formula, not {f!r}")
    if isinstance(node, Assumption):
        key = _key_of((f, node.label is not None))
        if node.label is None:
            return _Facts(1, _NONE, (), _NONE, False, (f,), (), key)
        return _Facts(1, frozenset((node.label,)), ((node.label, f),), _NONE, False, (), (), key)
    try:
        kids = [ch._facts for ch in node.children]
    except AttributeError:
        kids = [_facts(ch) for ch in node.children]  # names the child that is not a structure
    if len(kids) == 1:
        k = kids[0]
        size, labels, free, bound, double, opens = k.size + 1, k.labels, k.free, k.bound, k.double, k.opens
        keys = (k.key,)
    else:
        size, labels, free, bound, double, opens, keys = 1, _NONE, (), _NONE, False, (), []
        for k in kids:
            keys.append(k.key)
            size += k.size
            if k.opens:
                opens += k.opens
            if k.labels:  # a child without labels has no free leaves and binds none
                labels = labels | k.labels if labels else k.labels
                if k.bound:
                    bound = bound | k.bound if bound else k.bound
                if k.double:
                    double = True
                if k.free:
                    free += k.free
        keys = tuple(keys)
    dis = node.discharges
    binds = ()
    if dis:
        labels = _union(labels, dis)
        double = double or not dis.isdisjoint(bound)  # a leaf bound inside is bound here again
        binds = tuple([leaf for leaf in free if leaf[0] in dis])
        if binds:
            free = tuple([leaf for leaf in free if leaf[0] not in dis])
            bound = _union(bound, frozenset([l for l, _ in binds]))
    wiring = _wiring(kids, dis) if dis or (len(kids) > 1 and free) else ()
    key = _key_of((node.tag, node.conclusion, keys, wiring))
    return _Facts(size, labels, free, bound, double, opens, binds, key)


def _wiring(kids: list[_Facts], dis: frozenset[int]) -> tuple[int, ...]:
    """How a node's children's free labels attach to the node, in terms that
    no renaming changes: for each child, for each of its free labels in
    order of first use, the discharge slot it fills here (slots numbered by
    first use) or ~n when it is the node's n-th free label; then the number
    of discharged labels no child uses."""
    slots: dict[int, int] = {}
    up: dict[int, int] = {}
    out = []
    for k in kids:
        if not k.free:
            continue
        for l in dict.fromkeys([l for l, _ in k.free]):
            out.append(slots.setdefault(l, len(slots)) if l in dis else ~up.setdefault(l, len(up)))
    out.append(len(dis) - len(slots))
    return tuple(out)


def _slot_order(node: Inf) -> list[int]:
    """The labels node discharges in the order of their discharge slots (first
    use among the leaves it binds, as in _wiring), the unused ones last by
    value: an order no renaming changes, for code that must pick one label."""
    used = dict.fromkeys([l for l, _ in node._facts.binds])
    if len(used) == len(node.discharges):
        return list(used)
    return [*used, *sorted(node.discharges.difference(used))]


def _facts(d: ArgStructure) -> _Facts:
    """d's facts, which d got when it was built."""
    try:
        return d._facts
    except AttributeError:
        raise StructureError(f"not a structure: {d!r}") from None


def _scope(d: ArgStructure) -> tuple[list, list]:
    """Resolve each label of d to its discharging inference, without raising.
    Returns, in pre-order, (leaf, binder, count) per assumption leaf, binder the
    position of the nearest enclosing inference discharging its label (None if
    none) and count how many do; and (position, discharges) per binder. The
    facts say whether d is well formed; this walk names what is wrong,
    finds the leaves a cut opens and pairs each leaf with its binder for
    canonical_form."""
    leaves, binders = [], []
    stack, pos = [(d, {})], 0
    while stack:
        node, scope = stack.pop()
        if isinstance(node, Inf):
            if node.discharges:
                binders.append((pos, node.discharges))
                scope = dict(scope)
                for l in node.discharges:
                    scope[l] = (pos, scope.get(l, (None, 0))[1] + 1)
            stack.extend([(ch, scope) for ch in reversed(node.children)])
        elif isinstance(node, Assumption):
            leaves.append((node, *scope.get(node.label, (None, 0))))
        pos += 1
    return leaves, binders


def check_structure(d: ArgStructure) -> None:
    """Raise StructureError unless d is well formed: not an empty node alone,
    and every labelled leaf has exactly one discharging inference below it."""
    if isinstance(d, EmptyTop):
        raise StructureError("an empty node cannot stand alone")
    facts = _facts(d)
    if facts.free or facts.double:
        # name the first offending leaf in pre-order
        leaf, n = next((leaf, n) for leaf, _, n in _scope(d)[0] if leaf.label is not None and n != 1)
        raise StructureError(
            f"label {leaf.label} on assumption {render_formula(leaf.formula)} has "
            f"{n} discharging inferences below it (need exactly 1)"
        )


class StructureInfo(_Record):
    _fields = __match_args__ = ("conclusion", "open_assumptions")

    def __init__(self, conclusion: Formula, open_assumptions: Counter):  # Formula -> occurrence count
        _set(self, "conclusion", conclusion)
        _set(self, "open_assumptions", open_assumptions)

    @property
    def closed(self) -> bool:
        return not self.open_assumptions


def analyze(d: ArgStructure) -> StructureInfo:
    """Conclusion, open assumptions (with multiplicity) and closedness."""
    check_structure(d)
    return StructureInfo(conclusion_of(d), Counter(_facts(d).opens))


def size_of(d: ArgStructure) -> int:
    return _facts(d).size


def labels_of(d: ArgStructure) -> frozenset[int]:
    return _facts(d).labels


def relabel(d: ArgStructure, mapping: dict[int, int]) -> ArgStructure:
    return _map_leaves(
        d,
        lambda n: Assumption(n.formula, mapping.get(n.label, n.label)),
        lambda dis: frozenset(mapping.get(l, l) for l in dis),
    )


def freshen(d: ArgStructure, used: frozenset[int]) -> ArgStructure:
    """Rename d's labels away from the used set, deterministically."""
    own = labels_of(d)
    if own.isdisjoint(used):
        return d
    clashing = sorted(own & used)
    nxt = max(used | own) + 1
    mapping = {}
    for l in clashing:
        mapping[l] = nxt
        nxt += 1
    return relabel(d, mapping)


def positions(d: ArgStructure) -> list[tuple[int, ...]]:
    """Paths of all substructure positions in post order, innermost first."""
    if not isinstance(d, _Node):
        raise StructureError(f"not a structure: {d!r}")
    return [path for path, _node in _positioned(d)]


def _positioned(d: ArgStructure, into_closed: bool = True) -> list[tuple[tuple[int, ...], ArgStructure]]:
    """(path, node) for every position, in the order of positions(d): a
    pre-order walk without recursion, last child first, read backwards.
    Unless into_closed, the walk does not descend into a label-closed proper
    substructure (one whose labels are all discharged inside it)."""
    out: list[tuple[tuple[int, ...], ArgStructure]] = []
    stack = [((), d)]
    pop, push, keep = stack.pop, stack.append, out.append
    while stack:
        entry = pop()
        path, node = entry
        if isinstance(node, Inf):
            if into_closed or not path or node._facts.free:
                for i, child in enumerate(node.children):
                    push((path + (i,), child))
            keep(entry)
        elif not isinstance(node, EmptyTop):
            keep(entry)
    out.reverse()
    return out


def _checked_path(path) -> tuple[int, ...]:
    """path as a tuple, refused unless it is a sequence of integers (True is no position)."""
    if not isinstance(path, (tuple, list)):
        raise StructureError(f"path must be a tuple of integers, not {type(path).__name__}")
    for i in path:
        if i.__class__ is not int:
            raise StructureError(f"path must hold integers only, not {i!r}")
    return tuple(path)


def subtree_at(d: ArgStructure, path: tuple[int, ...]) -> ArgStructure:
    if not isinstance(d, _Node):
        raise StructureError(f"not a structure: {d!r}")
    node = d
    for i in _checked_path(path):
        if not isinstance(node, Inf) or not 0 <= i < len(node.children):
            raise StructureError(f"no substructure at position {path}")
        node = node.children[i]
    return node


def cut_subtree(
    d: ArgStructure, path: tuple[int, ...]
) -> tuple[ArgStructure, list[tuple[int, frozenset[Formula]]]]:
    """The substructure at path as a standalone structure.

    Leaves whose discharge sits outside the subtree are opened up; the
    returned context list maps each such outer label to the formulas it
    bound, ordered from the nearest enclosing inference outward and, within
    one, in the order of its discharge slots (_slot_order). When no
    leaf is bound outside, the subtree itself comes back, with no context.
    """
    node = d
    ancestors: list[Inf] = []
    for i in path:
        if not isinstance(node, Inf) or not 0 <= i < len(node.children):
            raise StructureError(f"no substructure at position {path}")
        ancestors.append(node)
        node = node.children[i]
    if isinstance(node, EmptyTop):
        raise StructureError("an empty node is not a substructure")

    # a labelled leaf with no discharging inference inside the cut is bound outside it
    if not _facts(node).free:
        return node, []
    outside = iter([leaf.label is not None and binder is None for leaf, binder, _ in _scope(node)[0]])
    outer_bound: dict[int, set[Formula]] = {}

    def opened(n):
        if not next(outside):
            return n
        outer_bound.setdefault(n.label, set()).add(n.formula)
        return Assumption(n.formula)

    standalone = _map_leaves(node, opened)
    context: list[tuple[int, frozenset[Formula]]] = []
    for anc in reversed(ancestors):  # nearest enclosing inference first, each in slot order
        for l in _slot_order(anc):
            if l in outer_bound:
                context.append((l, frozenset(outer_bound[l])))
    stray = set(outer_bound) - {l for l, _ in context}
    if stray:
        raise StructureError(f"labels {sorted(stray)} have no discharging inference")
    return standalone, context


def _require_contract(before: ArgStructure, after: ArgStructure) -> None:
    """Raise unless after keeps before's conclusion and opens no assumption
    before did not: ConclusionMismatch, AssumptionEscape, or StructureError
    when after is malformed."""
    if conclusion_of(after) != conclusion_of(before):
        raise ConclusionMismatch(
            f"conclusion changed from {render_formula(conclusion_of(before))} "
            f"to {render_formula(conclusion_of(after))}"
        )
    check_structure(after)
    check_structure(before)
    extra = set(after._facts.opens).difference(before._facts.opens)
    if extra:
        names = ", ".join(sorted(render_formula(f) for f in extra))
        raise AssumptionEscape(f"new open assumptions: {names}")


def _splice(
    d: ArgStructure,
    path: tuple[int, ...],
    context: list[tuple[int, frozenset[Formula]]],
    replacement: ArgStructure,
) -> ArgStructure:
    """Graft the replacement at path, given the context cut_subtree returned
    for that path: its labels are renamed away from those the inferences on
    the path discharge, and its open leaves whose formula a context label
    bound are recaptured by the nearest such label. The inferences on the
    path are rebuilt, innermost first.

    Only a label discharged above the cut can capture a leaf of the
    replacement or bind one twice, so a replacement that reuses none of
    them, a subtree of d included, is grafted as it is."""

    def capture(n):
        if n.label is None:
            for l, forms in context:
                if n.formula in forms:
                    return Assumption(n.formula, l)
        return n

    spine: list[Inf] = []
    above: set[int] = set()
    for i in path:
        spine.append(d)
        above |= d.discharges
        d = d.children[i]
    out = freshen(replacement, above) if above else replacement
    if context:
        out = _map_leaves(out, capture)
    for node, i in zip(reversed(spine), reversed(path)):
        kids = node.children
        out = Inf(node.tag, node.conclusion, kids[:i] + (out,) + kids[i + 1 :], node.discharges)
    check_structure(out)
    return out


def substitute(
    d: ArgStructure, path: tuple[int, ...], replacement: ArgStructure
) -> ArgStructure:
    """Replace the substructure at path, renaming labels to avoid capture.

    The replacement must share the target's conclusion and may not bring
    in open assumptions the target did not already have.
    """
    path = _checked_path(path)
    target, context = cut_subtree(d, path)
    _require_contract(target, replacement)
    return _splice(d, path, context, replacement)


def instantiate(d: ArgStructure, mapping: dict[Formula, ArgStructure]) -> ArgStructure:
    """Replace every open assumption leaf by the structure mapped to its formula."""
    check_structure(d)
    opens = dict.fromkeys(d._facts.opens)
    missing = [f for f in opens if f not in mapping]
    if missing:
        names = ", ".join(sorted(render_formula(f) for f in missing))
        raise StructureError(f"no instance given for open assumptions: {names}")
    used = set(labels_of(d))
    images: dict[Formula, ArgStructure] = {}
    for f in sorted(opens, key=render_formula):
        img = mapping[f]
        if conclusion_of(img) != f:
            raise StructureError(
                f"instance for {render_formula(f)} concludes "
                f"{render_formula(conclusion_of(img))}"
            )
        img = freshen(img, frozenset(used))
        used |= labels_of(img)
        images[f] = img
    out = _map_leaves(d, lambda n: images[n.formula] if n.label is None else n)
    check_structure(out)
    return out


def is_canonical(d: ArgStructure) -> bool:
    """Does the structure end with an introduction for its main connective?

    The check is by shape, not by tag: any inference whose premises and
    discharge fit one of the four introduction schemes counts.
    """
    if not isinstance(d, Inf):
        return False
    kids = d.children
    if any(isinstance(k, EmptyTop) for k in kids):
        return False
    match d.conclusion:
        case Conj(l, r):
            return (
                not d.discharges
                and len(kids) == 2
                and conclusion_of(kids[0]) == l
                and conclusion_of(kids[1]) == r
            )
        case Disj(l, r):
            return (
                not d.discharges
                and len(kids) == 1
                and conclusion_of(kids[0]) in (l, r)
            )
        case Impl(l, r):
            if len(kids) != 1 or conclusion_of(kids[0]) != r:
                return False
            return all(f == l for _, f in d._facts.binds)
        case _:
            return False


def immediate_substructures(d: ArgStructure) -> list[ArgStructure]:
    """The premise subtrees as standalone structures (discharges opened up)."""
    if not isinstance(d, Inf):
        return []
    out = []
    for i, ch in enumerate(d.children):
        if isinstance(ch, EmptyTop):
            continue
        sub, _ = cut_subtree(d, (i,))
        out.append(sub)
    return out


def canonical_form(d: ArgStructure) -> ArgStructure:
    """d with its labels renamed into the canonical numbering, so that
    structures equal up to relabelling become identical.

    Each (discharging inference, label) pair has its own number, given at
    the pair's first bound leaf in pre-order; the pairs no leaf uses are
    numbered after all others, by the inference's pre-order position, then
    the label. Leaves that no inference binds share one number per label.
    The pairs come from the scope walk (_scope), without recursion."""
    leaves, binders = _scope(d)
    number: dict[tuple[int | None, int], int] = {}  # (inference position, label) -> its number
    labels = [
        number.setdefault((binder, leaf.label), len(number) + 1)
        for leaf, binder, _count in leaves
        if leaf.label is not None
    ]
    sets = [
        frozenset([number.setdefault((pos, l), len(number) + 1) for l in sorted(dis)])
        for pos, dis in binders
    ]
    label, discharged = iter(labels), iter(sets)
    return _map_leaves(
        d,
        lambda n: n if n.label is None else Assumption(n.formula, next(label)),
        lambda dis: next(discharged) if dis else dis,
    )


def structures_equal(d1: ArgStructure, d2: ArgStructure) -> bool:
    """Equality up to renaming of discharge labels: structure ==, which
    holds exactly when the canonical keys are equal."""
    return d1 == d2


def canonical_key(d: ArgStructure) -> str:
    """A stable text key identifying d up to label renaming: canonical_form(d)'s text.
    The library keys by structures; only the outputs that return text write it."""
    return render_structure(canonical_form(d))


# ---------------------------------------------------------------------------
# text form:  (assume "a & b" :label 1) | (empty)
#             (inf orE "c" (child) ... :discharge (1 2))
_CONCLUDES, _LABEL, _DISCHARGE = Sym(":concludes"), Sym(":label"), Sym(":discharge")


def render_structure(d: ArgStructure) -> str:
    """The text of d, labels and discharge sets as they are, from one
    pre-order walk without recursion."""
    if not isinstance(d, _Node):  # a str would pass for one of the closing texts the walk stacks
        raise StructureError(f"not a structure: {d!r}")
    out: list[str] = []  # every node's text starts with the space that parts it from its left sibling
    stack: list = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, Assumption):
            label = "" if node.label is None else " :label " + str(node.label)
            out.append(' (assume "' + render_formula(node.formula) + '"' + label + ")")
        elif isinstance(node, Inf):
            out.append(" (inf " + node.tag + ' "' + render_formula(node.conclusion) + '"')
            dis = node.discharges
            if dis:
                stack.append(" :discharge (" + " ".join(map(str, sorted(dis))) + "))")
            else:
                stack.append(")")
            stack.extend(reversed(node.children))
        elif isinstance(node, str):
            out.append(node)
        elif isinstance(node, EmptyTop):
            out.append(" (empty)")
        else:
            raise StructureError(f"not a structure: {node!r}")
    return "".join(out)[1:]


def _metavar(x) -> str | None:
    if isinstance(x, Sym) and len(x.text) > 1 and x.text.startswith("?"):
        return x.text[1:]
    return None


def _label(x, mode: str):
    """An integer label in a structure, a ?l variable name in a rule; None otherwise."""
    if mode == "structure":
        return x if isinstance(x, int) else None
    return _metavar(x)


def _discharge_item(item, mode: str, formula):
    label = _label(item, mode)
    if label is not None:
        return label if mode == "structure" else DSpec(label)
    # (?l "F"): the leaves discharged as ?l must match F
    if mode == "pattern" and isinstance(item, list) and len(item) == 2:
        var, text = item
        if _metavar(var) and isinstance(text, str):
            return DSpec(_metavar(var), formula(text, metavars=True))
    raise StructureError(f"bad discharge spec {item!r} in a {mode}")


def _read_tree(x, mode: str, formula):
    """A tree from its s-expression; the mode decides which forms are allowed.
    formula is parse_formula behind a memo that lives for one reader call.

    structure: integer labels and ground formulas only.
    pattern:   ?A formulas, ?l labels, ?D leaves, (?D :concludes "F") and
               (?l "F") discharge constraints.
    template:  ?A formulas, ?l labels, ?D leaves and (plug ?D ?l TEMPLATE).
    """
    meta = mode != "structure"
    var = meta and _metavar(x)
    if var:
        return PVar(var)
    if not isinstance(x, list) or not x or not isinstance(x[0], Sym):
        raise StructureError(f"expected a {mode} form, got {x!r}")
    head = x[0].text
    var = mode == "pattern" and _metavar(x[0])
    if var:
        if len(x) == 3 and x[1] == _CONCLUDES and isinstance(x[2], str):
            return PVar(var, formula(x[2], metavars=True))
        raise StructureError(f"bad structure-variable pattern {x!r}")
    if head == "empty":
        if len(x) != 1:
            raise StructureError("(empty) takes no arguments")
        return EmptyTop()
    if head == "plug" and mode == "template":
        if len(x) != 4 or not _metavar(x[1]) or not _metavar(x[2]):
            raise StructureError("(plug ?D ?l TEMPLATE) expected")
        return Plug(_metavar(x[1]), _metavar(x[2]), _read_tree(x[3], mode, formula))
    if head == "assume":
        if len(x) < 2 or not isinstance(x[1], str):
            raise StructureError("(assume ...) needs a quoted formula")
        label = None
        rest = x[2:]
        if rest:
            label = _label(rest[1], mode) if len(rest) == 2 and rest[0] == _LABEL else None
            if label is None:
                raise StructureError(f"(assume ...) options: :label {'?l' if meta else 'N'}")
        f = formula(x[1], metavars=meta)
        return PAssume(f, label) if meta else Assumption(f, label)
    if head == "inf":
        if len(x) < 3 or not isinstance(x[1], Sym) or not isinstance(x[2], str):
            raise StructureError('(inf TAG "FORMULA" CHILD...) expected')
        concl = formula(x[2], metavars=meta)
        rest = x[3:]
        discharge = []
        if _DISCHARGE in rest:
            k = rest.index(_DISCHARGE)
            spec = rest[k + 1 :]
            if len(spec) != 1 or not isinstance(spec[0], list):
                raise StructureError(":discharge needs a list of labels")
            discharge = [_discharge_item(item, mode, formula) for item in spec[0]]
            rest = rest[:k]
        if not rest:
            raise StructureError("inference nodes need at least one child; use (empty) for none")
        children = tuple([_read_tree(c, mode, formula) for c in rest])
        if meta:
            return PInf(x[1].text, concl, children, tuple(discharge))
        return Inf(x[1].text, concl, children, frozenset(discharge))
    raise StructureError(f"unknown {mode} form {head!r}")


def _parse_tree(text: str, mode: str):
    try:
        x = read_sexpr(text)
    except SexprError as e:
        raise StructureError(str(e)) from None
    return _read_tree(x, mode, functools.cache(parse_formula))


def parse_structure(text: str) -> ArgStructure:
    d = _parse_tree(text, "structure")
    check_structure(d)
    return d


def parse_structures(text: str) -> list[ArgStructure]:
    """Read every structure in the text (e.g. a pool file)."""
    try:
        forms = read_all_sexprs(text)
    except SexprError as e:
        raise StructureError(str(e)) from None
    out, formula = [], functools.cache(parse_formula)
    for x in forms:
        d = _read_tree(x, "structure", formula)
        check_structure(d)
        out.append(d)
    return out
