"""Atomic bases: finite sets of production rules over atoms.

A rule takes zero or more non-absurd atomic premises to an atomic
conclusion (absurdity allowed as conclusion). A base induces a
derivability relation via forward chaining to a fixpoint, run on
integer masks: over a fixed order of atoms, a rule is a (premise mask,
conclusion bit) pair.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, Sequence

from .argument import ArgStructure, Assumption, EmptyTop, Inf
from .formula import BOT, Atom, FormulaError, _Record, _set

__all__ = [
    "BaseError",
    "EnumerationCapError",
    "AtomicRule",
    "AtomicBase",
    "atomic_closure",
    "derives",
    "atomic_derivation",
    "is_derivation_structure",
    "is_consistent",
    "enumerate_bases",
    "parse_base",
    "render_base",
]


class BaseError(ValueError):
    """Malformed rule, base file, or assumption set."""


class EnumerationCapError(RuntimeError):
    """Base enumeration would exceed the configured cap."""


class AtomicRule(_Record):
    _fields = __match_args__ = ("premises", "conclusion")

    def __init__(self, premises: tuple[Atom, ...], conclusion: Atom):
        for p in premises:
            if p.is_bottom:
                raise BaseError("rule premises may not be the absurdity constant")
        _set(self, "premises", premises)
        _set(self, "conclusion", conclusion)
        # the hash of the fields' tuple, computed once and kept outside them
        _set(self, "_hash", hash((premises, conclusion)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):  # a base's == compares its rules
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and (self.premises, self.conclusion) == (other.premises, other.conclusion)

    def __str__(self) -> str:
        left = " ".join(p.name for p in self.premises)
        return (left + " -> " if left else "-> ") + self.conclusion.name


def _rule_key(r: AtomicRule):
    return (str(r.conclusion.is_bottom), r.conclusion.name, len(r.premises), tuple(p.name for p in r.premises))


class AtomicBase(_Record):
    """A base is its rules; what is derived from them is computed once, on first use."""

    _fields = __match_args__ = ("rules",)
    __repr__ = object.__repr__
    _hash = None  # the hash of the fields' tuple, set on first use and kept outside them

    def __init__(self, rules: frozenset[AtomicRule], id: str = ""):
        _set(self, "rules", rules)
        if id:
            _set(self, "id", id)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rules == other.rules

    def __reduce__(self):  # its display name travels with it, given or computed
        return AtomicBase, (self.rules, vars(self).get("id", ""))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rules,))
            _set(self, "_hash", h)
        return h

    @functools.cached_property
    def id(self) -> str:  # a display name, outside equality; by default the rules text
        return self._text

    @functools.cached_property
    def _sorted(self) -> tuple[AtomicRule, ...]:
        return tuple(sorted(self.rules, key=_rule_key))

    @functools.cached_property
    def _derived(self) -> dict[Atom, AtomicRule | None]:
        return _chain(self._sorted, frozenset())

    @functools.cached_property
    def _closure(self) -> frozenset[Atom]:  # from no assumptions; enumerate_bases sets it
        return frozenset(self._derived)

    @functools.cached_property
    def _support(self) -> dict[Atom, frozenset[AtomicRule]]:
        """Each derived atom's derivation support: its rule in _derived and its
        premises' supports, built in derivation order (premises come first)."""
        support: dict[Atom, frozenset[AtomicRule]] = {}
        for x, rule in self._derived.items():
            support[x] = frozenset((rule,)).union(*[support[p] for p in rule.premises])
        return support

    @functools.cached_property
    def _live(self) -> frozenset[AtomicRule]:
        """The rules whose premises the base derives (the rules themselves
        when all are live). Two bases with equal live rules answer every
        question a validity check asks of a base alike, except for the base
        itself, which a choice function reads:
        - a dead rule never fires in _forward, so _derived, _support and
          _closure are functions of the live rules, and with them the
          witnesses synthesize_closed builds and what models says;
        - a closed derivation derives every premise it uses, so every rule
          it uses is live: for any r, is_derivation_structure(r, base) with
          no assumptions is what it is on a base of the live rules alone.
        So consequence checks one base per class of equal live rules."""
        closure = self._closure
        live = [r for r in self.rules if closure.issuperset(r.premises)]
        return self.rules if len(live) == len(self.rules) else frozenset(live)

    @functools.cached_property
    def _rule_index(self) -> frozenset[tuple[Atom, tuple[str, ...]]]:
        """(conclusion, sorted premise names) of each rule: a rule up to premise order."""
        return frozenset([(r.conclusion, tuple(sorted([p.name for p in r.premises]))) for r in self.rules])

    @functools.cached_property
    def _text(self) -> str:
        return "{" + "; ".join(str(r) for r in self._sorted) + "}"

    def rules_text(self) -> str:
        return self._text

    def sorted_rules(self) -> list[AtomicRule]:
        return list(self._sorted)

    def atoms(self) -> frozenset[Atom]:
        return frozenset(a for r in self.rules for a in (*r.premises, r.conclusion) if not a.is_bottom)


def _mask(atoms: Iterable[Atom], bit: dict[Atom, int]) -> int:
    m = 0
    for x in atoms:
        m |= bit[x]
    return m


def _forward(rules: Sequence[tuple[int, int]], derived: int, first: dict[int, int] | None = None) -> int:
    """Forward chaining to a fixpoint over (premise mask, conclusion bit)
    rules, starting from the mask of the assumptions; returns the derived
    mask. When given, first maps each conclusion bit a rule derived to the
    index of the first rule that derived it."""
    changed = True
    while changed:
        changed = False
        for i, (prem, concl) in enumerate(rules):
            if not derived & concl and prem & derived == prem:
                derived |= concl
                changed = True
                if first is not None:
                    first[concl] = i
    return derived


def _chain(rules: tuple[AtomicRule, ...], assumptions: frozenset[Atom]) -> dict[Atom, AtomicRule | None]:
    """Each atom derived from the assumptions mapped to the first rule that
    derived it, None for an assumption: _forward over the atoms the
    assumptions and rules mention."""
    order = list(dict.fromkeys([*assumptions, *(x for r in rules for x in (*r.premises, r.conclusion))]))
    bit = {x: 1 << i for i, x in enumerate(order)}
    first: dict[int, int] = {}
    _forward([(_mask(r.premises, bit), bit[r.conclusion]) for r in rules], _mask(assumptions, bit), first)
    derived: dict[Atom, AtomicRule | None] = dict.fromkeys(assumptions)
    for concl, i in first.items():
        derived[order[concl.bit_length() - 1]] = rules[i]
    return derived


def _require_base(base: object, error: type[ValueError] = BaseError) -> None:
    """Refuse base unless it is an AtomicBase, with the caller's module's error naming it."""
    if not isinstance(base, AtomicBase):
        raise error(f"base must be an AtomicBase, not {type(base).__name__}")


def _derivations(base: AtomicBase, assumptions: frozenset[Atom]) -> dict[Atom, AtomicRule | None]:
    """The base's own map for no assumptions; under any others, one computed afresh."""
    if BOT in assumptions:
        raise BaseError("assumption sets may not contain the absurdity constant")
    return _chain(base._sorted, assumptions) if assumptions else base._derived


def atomic_closure(base: AtomicBase, assumptions: Iterable[Atom] = ()) -> frozenset[Atom]:
    """Least set of atoms containing the assumptions and closed under the rules."""
    _require_base(base)
    return _closure_of(base, frozenset(assumptions))


def _closure_of(base: AtomicBase, assumptions: frozenset[Atom]) -> frozenset[Atom]:
    return frozenset(_derivations(base, assumptions)) if assumptions else base._closure


def derives(base: AtomicBase, assumptions: Iterable[Atom], goal: Atom) -> bool:
    _require_base(base)
    return goal in _closure_of(base, frozenset(assumptions))


def _derivation(derived: dict[Atom, AtomicRule | None], goal: Atom) -> ArgStructure | None:
    """The derivation of goal read off a derived map (None when goal is not
    in it), one node per atom of goal's support: an atm inference over its
    rule's premises, or an open leaf for an assumption. A walk back from goal
    over its rules' premises, on an explicit stack, builds each atom once its
    premises are built. An atom is on the stack only above the atoms that
    need it, since the map derives each atom from earlier ones, so none is
    pushed twice."""
    if goal not in derived:
        return None
    built: dict[Atom, ArgStructure] = {}
    stack = [goal]
    while stack:
        atom = stack[-1]
        rule = derived[atom]
        for p in () if rule is None else rule.premises:
            if p not in built:
                stack.append(p)
                break
        else:
            stack.pop()
            if rule is None:
                built[atom] = Assumption(atom)
            else:
                built[atom] = Inf("atm", atom, tuple(map(built.__getitem__, rule.premises)) or (EmptyTop(),))
    return built[goal]


def atomic_derivation(base: AtomicBase, assumptions: Iterable[Atom], goal: Atom) -> ArgStructure | None:
    """A derivation of goal from the assumptions on the base, as an atm
    structure with the assumptions it uses as open leaves, or None."""
    _require_base(base)
    return _derivation(_derivations(base, frozenset(assumptions)), goal)


def is_derivation_structure(d: ArgStructure, base: AtomicBase, assumptions: frozenset[Atom] = frozenset()) -> bool:
    """Is d (as a bare tree, tags aside) a derivation on the base from the
    assumptions? Every leaf must be (empty) or an unlabelled assumption leaf
    on an assumption, and every inference must conclude an atom by a rule of
    the base from its premises' conclusions, up to premise order (the base's
    rule index); the tree is walked with an explicit stack. What is tested of
    a node is shared by its class, so a class once accepted (a shared
    premise) is skipped."""
    _require_base(base)
    rules, accepted = base._rule_index, set()
    stack = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, Assumption) and node.label is None and node.formula in assumptions:
            continue
        if not isinstance(node, Inf) or node.discharges or not isinstance(node.conclusion, Atom):
            return False
        if node._facts.key in accepted:
            continue
        kids = [ch for ch in node.children if not isinstance(ch, EmptyTop)]
        premises = [ch.formula if isinstance(ch, Assumption) else ch.conclusion for ch in kids]
        if not all(isinstance(x, Atom) for x in premises):
            return False  # such a premise is no derivation
        if (node.conclusion, tuple(sorted([x.name for x in premises]))) not in rules:
            return False
        accepted.add(node._facts.key)
        stack.extend(kids)
    return True


def is_consistent(base: AtomicBase) -> bool:
    _require_base(base)
    return BOT not in base._closure


def _signature(atoms: list[Atom]) -> list[Atom]:
    if BOT in atoms:
        raise BaseError("the signature lists named atoms only")
    return list(dict.fromkeys(atoms))


def rule_universe(atoms: list[Atom]) -> list[AtomicRule]:
    """All rules over the signature, conclusions in signature order then bottom."""
    seen = _signature(atoms)
    prem_sets = [c for size in range(len(seen) + 1) for c in itertools.combinations(seen, size)]
    return [AtomicRule(prems, concl) for concl in seen + [BOT] for prems in prem_sets]


def _checked_signature(atoms: list[Atom], max_rules: int, cap: int) -> list[Atom]:
    """The signature without repeats, once the arguments pass the checks that
    enumerate_bases and search_counterexample share, in this order: integer
    counts, a non-negative rule count, named atoms only, a base count within
    the cap."""
    for name, n in (("max_rules", max_rules), ("cap", cap)):
        if n.__class__ is not int:  # True or 2.5 is no count
            raise BaseError(f"{name} must be an integer, not {n!r}")
    if max_rules < 0:
        raise BaseError(f"the number of rules must be non-negative, got {max_rules}")
    seen = _signature(atoms)
    n_rules = (len(seen) + 1) << len(seen)  # a conclusion and a premise set each
    total = sum(math.comb(n_rules, k) for k in range(min(max_rules, n_rules) + 1))
    if total > cap:
        raise EnumerationCapError(f"{total} bases over this signature exceeds the cap of {cap}")
    return seen


def enumerate_bases(
    atoms: list[Atom],
    max_rules: int,
    consistent_only: bool = True,
    cap: int = 200_000,
) -> Iterator[AtomicBase]:
    """All bases with at most max_rules rules over the signature.

    Deterministic and duplicate-free; raises EnumerationCapError when first
    iterated if the raw count would exceed cap. Each combination of rule
    indices is chained and checked for consistency on masks over the
    signature and then bottom; only a yielded base is built, with its
    closure, one frozenset per distinct closure.
    """
    order = _checked_signature(atoms, max_rules, cap) + [BOT]  # the masks' bit order
    universe = rule_universe(order[:-1]) if max_rules else []  # no rules, no universe
    bit = {x: 1 << i for i, x in enumerate(order)}
    pairs = [(_mask(r.premises, bit), bit[r.conclusion]) for r in universe]
    absurd = bit[BOT] if consistent_only else 0
    closures: dict[int, frozenset[Atom]] = {}
    for size in range(min(max_rules, len(pairs)) + 1):
        for combo in itertools.combinations(range(len(pairs)), size):
            derived = _forward([pairs[i] for i in combo], 0)
            if derived & absurd:
                continue
            closure = closures.get(derived)
            if closure is None:
                closure = closures[derived] = frozenset(x for i, x in enumerate(order) if derived >> i & 1)
            base = AtomicBase(frozenset([universe[i] for i in combo]))
            _set(base, "_closure", closure)
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
    if not isinstance(text, str):
        raise BaseError(f"text must be a str, not {type(text).__name__}")
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
    _require_base(base)
    return "\n".join(str(r) for r in base.sorted_rules()) + ("\n" if base.rules else "")
