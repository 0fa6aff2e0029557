"""Bounded proof-theoretic validity of arguments on a base.

A closed argument is valid when it reduces to a closed derivation on
the base (atomic conclusion) or to a closed canonical structure whose
immediate substructures are valid with the same steps (otherwise). An
open argument must stay valid under substitution of valid closed
arguments for its assumptions, for every extension of its steps.

The substitution and extension quantifiers are finitized by pools, so
verdicts are three-valued: Invalid always carries a recheckable
witness, and Valid on open arguments is explicitly pool-relative.

Every loop over the parts of a verdict stops once the verdict is fixed:
a canonical reduct falls at its first Invalid immediate substructure, a
substitution at its first Invalid member, and a pooled consequence
candidate at its first Invalid base. An Unknown part leaves a verdict
Unknown only where no part is Invalid.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Literal

from .atomic_base import AtomicBase, _derivation, _require_base, is_consistent, is_derivation_structure
from .argument import (
    ArgStructure,
    Assumption,
    EmptyTop,
    Inf,
    PInf,
    PVar,
    _Key,
    _facts,
    canonical_key,
    check_structure,
    conclusion_of,
    immediate_substructures,
    instantiate,
    is_canonical,
    render_structure,
)
from .base_semantics import logical_consequence, models
from .formula import Atom, Conj, Disj, Formula, FVar, Impl, _Record, _set, atoms_of, negation, render_formula
from .justification import (
    ChoiceFunction,
    ConstantMap,
    Justification,
    JustificationSet,
    RSystem,
    SchematicRewrite,
    StepSource,
    _Reducts,
    em_refutation_rule,
    graph_of,
    is_schematic,
)

__all__ = [
    "ValidityError",
    "InconsistentBaseError",
    "Argument",
    "Bounds",
    "Verdict",
    "ExhaustedSearch",
    "FailingInstance",
    "axiom_structure",
    "synthesize_closed",
    "valid",
    "recheck_invalid",
    "em_assertion_map",
    "em_witness",
    "choice_justification",
    "consequence",
    "CONSEQUENCE_VARIANTS",
]


class ValidityError(ValueError):
    pass


class InconsistentBaseError(ValidityError):
    pass


def _members(xs: Iterable, kind, name: str, what: str = "") -> tuple:
    """xs as a tuple, refused unless it is an iterable of kind (a class, or a union named what)."""
    what = what or kind.__name__
    try:
        xs = tuple(xs)
    except TypeError:
        raise ValidityError(f"{name} must be an iterable of {what}, not {type(xs).__name__}") from None
    for t in set(map(type, xs)):
        if not issubclass(t, kind):
            raise ValidityError(f"{name} must hold {what} values only, not {t.__name__}")
    return xs


def _require(x: object, kind: type, name: str) -> None:
    """Refuse x unless it is a kind, naming the argument it was passed as."""
    if not isinstance(x, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValidityError(f"{name} must be {article} {kind.__name__}, not {type(x).__name__}")


class Argument(_Record):
    _fields = __match_args__ = ("structure", "steps")

    def __init__(self, structure: ArgStructure, steps: StepSource | Justification):
        if isinstance(steps, (SchematicRewrite, ConstantMap, ChoiceFunction)):
            steps = JustificationSet((steps,))
        elif not isinstance(steps, (JustificationSet, RSystem)):
            raise ValidityError(f"an argument's steps must be a step source or a justification, not {steps!r}")
        _set(self, "structure", structure)
        _set(self, "steps", steps)


class Bounds(_Record):
    """A search's bounds and pools: a value, its pools held as tuples."""

    _fields = __match_args__ = (
        "max_reduction_steps", "max_structure_size", "sigma_candidates", "extensions", "synthesize_sigma"
    )

    def __init__(
        self,
        max_reduction_steps: int = 10,
        max_structure_size: int = 400,
        sigma_candidates: tuple[ArgStructure, ...] = (),
        extensions: tuple[StepSource, ...] = (),
        synthesize_sigma: bool = True,
    ):
        _set(self, "max_reduction_steps", max_reduction_steps)
        _set(self, "max_structure_size", max_structure_size)
        _set(self, "sigma_candidates", _members(sigma_candidates, ArgStructure, "sigma_candidates", "ArgStructure"))
        _set(self, "extensions", _members(extensions, StepSource, "extensions", "JustificationSet or RSystem"))
        _set(self, "synthesize_sigma", synthesize_sigma)
        for n in (max_reduction_steps, max_structure_size):
            if n.__class__ is not int:  # True or 2.5 is no bound
                raise ValidityError(f"bounds must be integers, not {n!r}")
        if max_reduction_steps < 0 or max_structure_size < 0:
            raise ValidityError("bounds must be non-negative")
        # the fields, each sigma candidate as its class key: equal for equal bounds, and hashing no structure
        _set(self, "_key", tuple([tuple([d._facts.key for d in v]) if n == "sigma_candidates" else v
                                  for n, v in zip(self._fields, self._values(self))]))


class ExhaustedSearch(_Record):
    """Every reduct of start within bounds was explored and none qualified;
    start is the checked structure or the one refuting it (_Checker._closed).

    The checker builds it from the structures themselves (_of) and it keeps
    them, outside its fields, for recheck_invalid to compare; the canonical
    key texts of start and explored are written when first read (by repr,
    == or a caller)."""

    _fields = __match_args__ = ("start", "explored", "max_steps")

    def __init__(self, start: str, explored: tuple[str, ...], max_steps: int):
        _set(self, "start", start)
        _set(self, "explored", explored)
        _set(self, "max_steps", max_steps)

    @classmethod
    def _of(cls, start: ArgStructure, explored: tuple[ArgStructure, ...], max_steps: int) -> "ExhaustedSearch":
        w = object.__new__(cls)
        _set(w, "max_steps", max_steps)
        _set(w, "_structures", (start, explored))
        return w

    def __getattr__(self, name):
        # only start and explored can be missing, and only while unwritten
        if name not in ("start", "explored") or "_structures" not in vars(self):
            raise AttributeError(name)
        start, explored = self._structures
        _set(self, "start", canonical_key(start))
        _set(self, "explored", tuple([canonical_key(r) for r in explored]))
        return getattr(self, name)


class FailingInstance(_Record):
    """A substitution whose members check valid while the instance does not."""

    _fields = __match_args__ = ("sigma", "extension_index", "inner")

    def __init__(self, sigma: tuple[tuple[Formula, ArgStructure], ...], extension_index: int, inner: "Verdict"):
        _set(self, "sigma", sigma)
        _set(self, "extension_index", extension_index)
        _set(self, "inner", inner)


class Verdict(_Record):
    _fields = __match_args__ = ("status", "reason", "witness")

    def __init__(self, status: Literal["valid", "invalid", "unknown"], reason: str = "", witness: object = None):
        _set(self, "status", status)
        _set(self, "reason", reason)
        _set(self, "witness", witness)

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"

    @property
    def is_invalid(self) -> bool:
        return self.status == "invalid"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"

    @staticmethod
    def valid(reason: str = "") -> "Verdict":
        return Verdict("valid", reason)

    @staticmethod
    def invalid(reason: str = "", witness: object = None) -> "Verdict":
        return Verdict("invalid", reason, witness)

    @staticmethod
    def unknown(reason: str = "") -> "Verdict":
        return Verdict("unknown", reason)


def axiom_structure(f: Formula) -> Inf:
    """A one-inference structure asserting f from no premises."""
    return Inf("ax", f, (EmptyTop(),))


def synthesize_closed(base: AtomicBase, f: Formula) -> ArgStructure | None:
    """A closed structure for f that is valid on the base with any steps,
    or None when f does not hold on the base.

    Atoms become derivations; conjunctions and disjunctions get their
    introductions; an implication is introduced over its consequent when
    that holds, and otherwise over a one-step refutation of its
    unobtainable antecedent, which is vacuously valid.

    Both conjuncts are tried, and a disjunction's right side or an
    implication's antecedent only when the side before it fails. The
    formula is walked with an explicit stack of (formula, visit) pairs,
    each answer pushed on done, so refutation labels are numbered in the
    order they are made.

    An atom's derivation is read off the base's derived map (_derivation):
    one atm node per atom, so a premise used twice is one shared node. That
    map is all it reads of the base, and only the rules that derive f's
    atoms from no assumptions, so two bases that derive them by the same
    rules get equal structures; a search's witness table (_Search.closed)
    builds one per such class.
    """
    _require_base(base, ValidityError)
    counter = itertools.count(1)
    done: list[ArgStructure | None] = []
    stack: list[tuple[Formula, int]] = [(f, 0)]
    while stack:
        g, visit = stack.pop()
        kind = g.__class__
        if kind is Atom:
            done.append(_derivation(base._derived, g))
        elif visit == 0:  # first try the side that is always tried
            if kind is Conj:
                stack += ((g, 1), (g.right, 0), (g.left, 0))
            elif kind is Disj:
                stack += ((g, 1), (g.left, 0))
            elif kind is Impl:
                stack += ((g, 1), (g.right, 0))
            else:
                raise ValidityError(f"not a formula: {g!r}")
        elif kind is Conj:
            b = done.pop()
            a = done.pop()
            done.append(Inf("andI", g, (a, b)) if a is not None and b is not None else None)
        elif visit == 1:  # a disjunction's left side or an implication's consequent is done
            a = done.pop()
            if a is not None:
                done.append(Inf("orI1" if kind is Disj else "impI", g, (a,)))
            else:  # then the right side, or the antecedent to refute
                stack += ((g, 2), (g.right if kind is Disj else g.left, 0))
        elif kind is Disj:
            b = done.pop()
            done.append(Inf("orI2", g, (b,)) if b is not None else None)
        elif done.pop() is None:  # the antecedent fails: introduce over its refutation
            n = next(counter)
            body = Inf("step", g.right, (Assumption(g.left, n),))
            done.append(Inf("impI", g, (body,), frozenset({n})))
        else:
            done.append(None)
    return done[0]


# ---------------------------------------------------------------------------
# the checker


def _extend(steps: StepSource, ext: StepSource) -> StepSource:
    if isinstance(steps, JustificationSet) and isinstance(ext, JustificationSet):
        return steps | ext
    if isinstance(steps, RSystem) and isinstance(ext, RSystem):
        return steps | ext
    raise ValidityError("an extension must be of the same kind as the steps source")


def _holds_choice(steps: StepSource) -> bool:
    """Does the step source hold a choice function, whose selection reads the base itself?"""
    return isinstance(steps, JustificationSet) and steps._dispatch.choice


class _Search:
    """The reduction searches of successive valid and consequence calls with
    equal bounds (_shared_search holds one search per Bounds value), or of
    one recheck_invalid call, shared by the checks they make on every base
    through its tables, which key structures by class key. An entry is
    filed once it is complete.

    Each check reads a fresh reduct stream (stream) once; the streams share
    the step table of their steps (per base too when the steps hold a
    choice function, whose selection depends on the base). It holds the
    one-step reducts of every structure a stream has stepped and of the
    label-closed substructures those were built from, so each class is
    stepped once per search. Per reduct, the search keeps its immediate
    substructures when it is closed and canonical.

    Its witness table holds every closed structure the search synthesizes
    (closed), keyed by the formula and the derivation supports of its atoms
    on the base (AtomicBase._support; None for an atom not derived).
    synthesize_closed reads the base only through the derivations of those
    atoms, rules the supports hold, so bases with one support share one
    witness.

    Its instance table holds every substitution instance the search builds
    (instance), for the checker's open arguments and the pooled uniform
    instances alike, keyed by the structure and sigma's structures.

    Its verdict table files each verdict a check computes under its reads:
    what the check and its parts asked of the base (_Checker._answer), with
    the answers. A check is deterministic given them, so one on another base
    that answers them alike takes the verdict; one that read the base itself
    (through a choice function, the stream reads it) is never filed."""

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        self._steps: dict[tuple, dict[_Key, list[ArgStructure]]] = {}
        self._subs: dict[_Key, list[ArgStructure] | None] = {}
        self._atoms: dict[Formula, tuple[Atom, ...]] = {}
        self._witnesses: dict[tuple[Formula, tuple], ArgStructure | None] = {}
        self._instances: dict[tuple[_Key, ...], ArgStructure] = {}
        self._verdicts: dict[tuple[_Key, StepSource], list[tuple[Verdict, dict]]] = {}

    def closed(self, base: AtomicBase, f: Formula) -> ArgStructure | None:
        """synthesize_closed(base, f), built once per (f, the supports of f's atoms)."""
        atoms = self._atoms.get(f)
        if atoms is None:
            atoms = self._atoms[f] = tuple(atoms_of(f))
        support = base._support
        key = (f, tuple([support.get(x) for x in atoms]))
        out = self._witnesses.get(key, False)
        if out is False:
            out = self._witnesses[key] = synthesize_closed(base, f)
        return out

    def instance(self, d: ArgStructure, sigma: dict[Formula, ArgStructure]) -> ArgStructure:
        """instantiate(d, sigma), built once per (d, sigma's structures) up to
        relabelling; sigma's keys are d's open assumptions, in one order."""
        key = (d._facts.key, *[s._facts.key for s in sigma.values()])
        hit = self._instances.get(key)
        if hit is None:
            hit = self._instances[key] = instantiate(d, sigma)
        return hit

    def stream(self, steps: StepSource, d: ArgStructure, base: AtomicBase | None) -> _Reducts:
        b, table = self.bounds, self._steps.setdefault((steps, base), {})
        return _Reducts(steps, d, base, b.max_reduction_steps, b.max_structure_size, table)

    def canonical_subs(self, r: ArgStructure) -> list[ArgStructure] | None:
        """r's immediate substructures if r is canonical and closed, else None."""
        subs = self._subs.get(r._facts.key, False)
        if subs is False:
            check_structure(r)
            ok = is_canonical(r) and not r._facts.opens
            subs = immediate_substructures(r) if ok else None
            self._subs[r._facts.key] = subs
        return subs


_SHARED_LIMIT = 4096  # verdict keys plus step classes the held searches may have together and still be kept
_shared: dict[tuple, _Search] = {}  # one search per Bounds value, of the last call with it that reached a check


def _shared_search(bounds: Bounds) -> _Search:
    """The search held for bounds equal to these (by Bounds._key, so finding
    it hashes no structure) whose sigma candidates are the same structures
    label for label, as a filed verdict's FailingInstance holds them;
    otherwise a fresh one, held for these bounds from now on in place of any
    other held for them. Once the tables of all held searches together pass
    _SHARED_LIMIT, every held search is dropped first."""
    if sum(len(s._verdicts) + sum(map(len, s._steps.values())) for s in _shared.values()) > _SHARED_LIMIT:
        _shared.clear()
    s = _shared.get(bounds._key)
    if s is None or any(x is not y and render_structure(x) != render_structure(y)
                        for x, y in zip(s.bounds.sigma_candidates, bounds.sigma_candidates)):
        s = _shared[bounds._key] = _Search(bounds)
    return s


def _meet(verdicts: Iterable[Verdict]) -> str:
    """The status of all the verdicts together, read in order: the first
    Invalid one decides it at once, and an Unknown one counts only when
    none is Invalid."""
    status = "valid"
    for v in verdicts:
        if v.status == "invalid":
            return "invalid"
        if v.status == "unknown":
            status = "unknown"
    return status


_BASE = ("base", None)  # the question whose answer is the base itself
_UNASKED = object()  # what a probe of _Checker._answers gets for a question not yet asked


class _Checker:
    def __init__(self, base: AtomicBase, search: _Search):
        self.base = base
        self.bounds = search.bounds
        self.search = search
        self._answers: dict[tuple, object] = {}
        self._frames: list[dict[tuple, tuple]] = [{}]  # the reads of each check being computed

    def check(self, d: ArgStructure, steps: StepSource) -> Verdict:
        key = (_facts(d).key, steps)
        answers = self._answers
        for hit in self.search._verdicts.get(key, ()):  # filed with reads this base answers alike?
            for q, (a, x) in hit[1].items():
                got = answers.get(q, _UNASKED)
                if got is _UNASKED:
                    got = self._answer(q, x)
                if got is not a:
                    break
            else:
                break
        else:
            check_structure(d)
            self._frames.append({})
            opens = d._facts.opens
            if not opens:
                verdict = self._closed(d, steps, isinstance(conclusion_of(d), Atom))
            else:
                verdict = self._open(d, steps, sorted(dict.fromkeys(opens), key=render_formula))
            hit = (verdict, self._frames.pop())
            if _BASE not in hit[1]:
                self.search._verdicts.setdefault(key, []).append(hit)
        self._frames[-1].update(hit[1])  # the enclosing check depends on them too
        return hit[0]

    def _answer(self, q: tuple, x: object) -> object:
        """The base's answer to q about x, not yet asked by this checker: every
        read of the base goes through here, and _answers keeps it. q is ("der",
        r's class key) about r: is r a closed derivation on the base; ("closed",
        f) about f: the search's witness for f, one object per support; or _BASE:
        the base. A frame files (answer, x) under q; a replay compares identities."""
        a = self._answers[q] = (
            is_derivation_structure(x, self.base) if q[0] == "der"
            else self.search.closed(self.base, x) if q[0] == "closed" else self.base
        )
        return a

    def _read(self, q: tuple, x: object = None) -> object:
        """The base's answer to q about x, recorded in the frame of the check being computed."""
        a = self._answers.get(q, _UNASKED)
        if a is _UNASKED:
            a = self._answer(q, x)
        self._frames[-1][q] = (a, x)
        return a

    def _extensions_for(self, steps: StepSource) -> list[StepSource]:
        return [steps] + [_extend(steps, e) for e in self.bounds.extensions]

    def _closed(self, d: ArgStructure, steps: StepSource, atomic: bool) -> Verdict:
        """The first qualifying reduct in the stream decides Valid; Invalid
        and Unknown read the stream to its end. A canonical reduct's
        immediate substructures are checked in order up to the first
        Invalid one, which refutes the reduct. The verdict is Unknown when
        the stream was cut by a bound or some reduct had an Unknown
        substructure and no Invalid one; otherwise it is Invalid.

        The canonical clause, at the start alone: if d discharges nothing
        (so its immediate substructures are label-closed) and no member of
        its justification set can fire at its root, every reduct is d's root
        over their reducts, so an Invalid one refutes d at once, with that
        one's witness. Past the start another reduct of it may be Valid."""
        stream = self.search.stream(steps, d, self._read(_BASE) if _holds_choice(steps) else None)
        saw_unknown, explored = False, []
        for r, depth in stream:
            explored.append(r)
            if atomic:
                if self._read(("der", r._facts.key), r):
                    return Verdict.valid(f"reduces to a derivation on the base in {depth} step(s)")
                continue
            subs = self.search.canonical_subs(r)
            if subs is None:
                continue
            status = "valid"  # their meet, read as _meet reads it; the i-th decided it
            for i, s in enumerate(subs, 1):
                v = self.check(s, steps)
                if v.status != "valid" and (status := v.status) == "invalid":
                    break
            if status == "valid":
                return Verdict.valid(
                    f"canonical reduct at depth {depth} with valid immediate substructures"
                )
            if status == "unknown":
                saw_unknown = True
            elif depth == 0 and not d.discharges and isinstance(steps, JustificationSet) and (
                    steps._dispatch.at(d.tag) == ((), False)):  # the canonical clause
                return Verdict.invalid(f"immediate substructure {i} of a canonical structure whose root no step"
                                       f" rewrites is invalid: {v.reason}", witness=v.witness)
        if saw_unknown or stream.bound:
            return Verdict.unknown("reduction bound hit before a qualifying reduct was found")
        kind = "closed derivation" if atomic else "canonical reduct with valid substructures"
        return Verdict.invalid(
            f"search exhausted: no {kind} among {len(explored)} reduct(s)",
            witness=ExhaustedSearch._of(d, tuple(explored), self.bounds.max_reduction_steps),
        )

    def _sigma_candidates(self, f: Formula) -> list[ArgStructure]:
        out: dict[_Key, ArgStructure] = {}  # the first of each class
        if self.bounds.synthesize_sigma:
            syn = self._read(("closed", f), f)
            if syn is not None:
                out[syn._facts.key] = syn
        for cand in self.bounds.sigma_candidates:
            if conclusion_of(cand) != f:
                continue
            check_structure(cand)
            if not cand._facts.opens:
                out.setdefault(cand._facts.key, cand)
        return list(out.values())

    def _open(self, d: ArgStructure, steps: StepSource, assumptions: list[Formula]) -> Verdict:
        extensions = self._extensions_for(steps)
        pools = {f: self._sigma_candidates(f) for f in assumptions}
        tainted = False
        checked = 0
        for ext_index, ext in enumerate(extensions):
            for combo in itertools.product(*(pools[f] for f in assumptions)):
                status = _meet(self.check(s, ext) for s in combo)
                if status == "invalid":
                    continue  # the conditional's antecedent fails for this sigma
                if status == "unknown":
                    tainted = True
                    continue
                sigma = dict(zip(assumptions, combo))
                inst = self.search.instance(d, sigma)
                v = self.check(inst, ext)
                if v.is_invalid:
                    return Verdict.invalid(
                        "a valid substitution instance fails: " + v.reason,
                        witness=FailingInstance(tuple(sigma.items()), ext_index, v),
                    )
                if v.is_unknown:
                    tainted = True
                else:
                    checked += 1
        if tainted:
            return Verdict.unknown("some pool instantiation hit a bound")
        if checked == 0:
            names = ", ".join(render_formula(f) for f in assumptions)
            return Verdict.valid(
                f"vacuous: the pool offers no valid closed argument for {names}"
            )
        return Verdict.valid(
            f"pool-relative: {checked} substitution(s) over {len(extensions)} step source(s) hold"
        )


def valid(
    arg: Argument, base: AtomicBase, bounds: Bounds = Bounds(), *, _search: _Search | None = None
) -> Verdict:
    """Bounded validity of the argument on the base, checked on the search
    held for its bounds value (_shared_search). A consequence or recheck_invalid
    call passes its own search, made with equal bounds, so one call stays on
    one search."""
    if _search is None:
        _require(arg, Argument, "arg")
        _require(base, AtomicBase, "base")
        _require(bounds, Bounds, "bounds")
        _search = _shared_search(bounds)
    return _Checker(base, _search).check(arg.structure, arg.steps)


def recheck_invalid(arg: Argument, base: AtomicBase, bounds: Bounds, verdict: Verdict) -> bool:
    """Confirm an Invalid verdict by checking it again from scratch, on one
    fresh search, which never reads or fills a held one (_shared_search).

    An exhausted search is rerun: valid is called again, on that search,
    and must exhaust the same explored reducts from the same start under the
    same max_steps; the witness of an immediate substructure, which the
    canonical clause hands up, by the rerun handing up the same one. Start
    and reducts are compared by class key (up to relabelling, as their key
    texts would be) when the checker made the witness, so no text is
    written, and by their key texts when a caller built it from texts. This
    shares every fault of the search it checks; an independent checker of
    the witness is still to come (ROADMAP item 4). A failing instance is checked on that search too:
    its extension index must name one of the step sources, every structure
    of its sigma must be valid, and the instance invalid."""
    for x, kind, name in ((arg, Argument, "arg"), (base, AtomicBase, "base"), (bounds, Bounds, "bounds"),
                          (verdict, Verdict, "verdict")):
        _require(x, kind, name)
    if not verdict.is_invalid:
        return False
    w, search = verdict.witness, _Search(bounds)
    if isinstance(w, ExhaustedSearch):
        again = valid(arg, base, bounds, _search=search)
        a = again.witness
        if not (again.is_invalid and isinstance(a, ExhaustedSearch)) or a.max_steps != w.max_steps:
            return False
        if "_structures" in vars(w):
            classes = [(s._facts.key, {r._facts.key for r in rs}) for s, rs in (a._structures, w._structures)]
            return classes[0] == classes[1]
        return a.start == w.start and set(a.explored) == set(w.explored)
    if isinstance(w, FailingInstance):
        checker = _Checker(base, search)
        exts = checker._extensions_for(arg.steps)
        if w.extension_index not in range(len(exts)):
            return False
        ext = exts[w.extension_index]
        for _f, s in w.sigma:
            if not checker.check(s, ext).is_valid:
                return False
        inst = instantiate(arg.structure, dict(w.sigma))
        return checker.check(inst, ext).is_invalid
    return False


# ---------------------------------------------------------------------------
# excluded-middle witnesses


def em_assertion_map(base: AtomicBase, f: Formula) -> ConstantMap:
    """Points the excluded-middle axiom for f at a left injection over a
    synthesized closed structure for f. Base-specific by construction."""
    _require_base(base, ValidityError)
    syn = synthesize_closed(base, f)
    if syn is None:
        raise ValidityError(f"{render_formula(f)} does not hold on {base.id}")
    g = Disj(f, negation(f))
    return ConstantMap(f"em_assert[{base.rules_text()}]", ((axiom_structure(g), Inf("orI1", g, (syn,))),))


def em_witness(base: AtomicBase, f: Formula, mode: str = "functions") -> Argument:
    """A closed argument for f-or-not-f valid on the base.

    Picks the refutation rewrite when f fails on the base and the
    base-specific assertion table otherwise; in graph mode the chosen
    device is replaced by its graph on the axiom.
    """
    _require_base(base, ValidityError)
    if mode not in ("functions", "graph"):
        raise ValidityError(f"unknown witness mode {mode!r}")
    if not is_consistent(base):
        raise InconsistentBaseError(f"base {base.id} derives absurdity")
    g = Disj(f, negation(f))
    ax = axiom_structure(g)
    j = em_assertion_map(base, f) if models(base, (), f) else em_refutation_rule()
    if mode == "graph":
        return Argument(ax, graph_of(j, [ax], base))
    return Argument(ax, JustificationSet((j,)))


def choice_justification(f: Formula, family: Iterable[AtomicBase]) -> ChoiceFunction:
    """Selects, per base, the justification set that makes the
    excluded-middle axiom for f valid there."""
    g = Disj(f, negation(f))
    ax = axiom_structure(g)
    table = []
    for b in _members(family, AtomicBase, "family"):
        j = em_assertion_map(b, f) if models(b, (), f) else em_refutation_rule()
        table.append(((ax, b), JustificationSet((j,))))
    return ChoiceFunction(f"em_choice[{render_formula(f)}]", tuple(table))


# ---------------------------------------------------------------------------
# logical-consequence variants over a finite family

CONSEQUENCE_VARIANTS = ("delta", "delta-star", "delta-sh", "delta-s")


def _projection_rule(n_context: int) -> SchematicRewrite:
    kids = tuple(PVar(f"X{i}") for i in range(n_context)) + (PVar("W", FVar("G")),)
    return SchematicRewrite(
        "project_last", ((PInf("step", FVar("G"), kids, ()), PVar("W")),)
    )


@functools.lru_cache(maxsize=16)
def _one_rule_steps(n_context: int | None) -> JustificationSet:
    """The step source of one rule, built once: delta's projection rule for
    n_context context formulas, or em_refute for None."""
    return JustificationSet((em_refutation_rule() if n_context is None else _projection_rule(n_context),))


def _context_structure(context: list[Formula], goal: Formula, extra: ArgStructure | None) -> Inf:
    kids: tuple[ArgStructure, ...] = tuple(Assumption(g) for g in context)
    if extra is not None:
        kids = kids + (extra,)
    return Inf("step", goal, kids)


def _delta_witness(
    search: _Search,
    base: AtomicBase,
    context: list[Formula],
    goal: Formula,
    no_steps: JustificationSet,
    projection: JustificationSet,
) -> Argument:
    # assumes the goal follows from the context on this base
    if not context:
        return Argument(search.closed(base, goal), no_steps)
    if any(not models(base, (), g) for g in context):
        return Argument(_context_structure(context, goal, None), no_steps)
    core = search.closed(base, goal)
    return Argument(_context_structure(context, goal, core), projection)


def _uniform_structure(context: list[Formula], goal: Formula) -> ArgStructure:
    if not context:
        return axiom_structure(goal)
    return _context_structure(context, goal, None)


def _default_sigma(
    search: _Search, base: AtomicBase, context: list[Formula]
) -> dict[Formula, ArgStructure] | None:
    sigma = {}
    for g in context:
        s = search.closed(base, g)
        if s is None:
            return None
        sigma[g] = s
    return sigma


def _uniform_instances(
    search: _Search, d: ArgStructure, context: list[Formula], goal: Formula, family: list[AtomicBase]
) -> list[tuple[AtomicBase, ArgStructure, ArgStructure]]:
    """Per base: the pool instance of d and the synthesized target it
    should rewrite to. Bases whose context fails contribute nothing. The
    sigmas' structures are the search's witness objects, so d is
    instantiated once per distinct sigma (_Search.instance)."""
    out = []
    for b in family:
        sigma = _default_sigma(search, b, context)
        if sigma is None:
            continue
        out.append((b, search.instance(d, sigma) if context else d, search.closed(b, goal)))
    return out


def _representatives(family: list[AtomicBase]) -> list[AtomicBase]:
    """The first base of each class of bases with equal live rules
    (AtomicBase._live), in family order."""
    firsts: dict[frozenset, AtomicBase] = {}
    for b in family:
        firsts.setdefault(b._live, b)
    return list(firsts.values())


def _visits(family: list[AtomicBase]) -> Callable[..., list[AtomicBase]]:
    """The rule for which bases a check visits, as a function of its step
    sources: every base when one of them holds a choice function, whose
    selection reads the base itself, and otherwise the first base of each
    class (_representatives), the classes built once, when first asked for."""
    reps: list[AtomicBase] = []

    def bases(*steps: StepSource) -> list[AtomicBase]:
        if any(map(_holds_choice, steps)):
            return family
        if not reps:
            reps.extend(_representatives(family))
        return reps

    return bases


def consequence(
    variant: str,
    context: Iterable[Formula],
    goal: Formula,
    family: Iterable[AtomicBase],
    bounds: Bounds = Bounds(),
    candidates: Iterable[Argument] = (),
) -> Verdict:
    """The four argument-based consequence readings over a finite family.

    delta       -- per base, some valid argument from context to goal;
    delta-star  -- one (structure, justification set) valid on every base,
                   built by pooling the per-base justifications;
    delta-sh    -- one (structure, reduction system) valid on every base,
                   pooling the per-base reduction pairs;
    delta-s     -- like delta-star but every justification must pass the
                   schematicity test; no fabricated positives.

    A candidate that does not conclude the goal, or has an open assumption
    outside the context, is refused with a ValidityError.

    Once the goal follows on every base and a check is about to run, the
    family is grouped into classes of bases with equal live rules
    (AtomicBase._live), and each check, witness and pooled instance is
    made on the first base of each class, which answers every read of a
    check as the others do. One rule (_visits) picks the bases: a check
    whose steps hold a choice function (the candidate's own, or any
    extension's) reads the base itself, so it is made on every base, and
    so is every check of delta's loop once one of its candidates holds one.
    Reasons count every base and name the first failing one, which is the
    first of its class.

    The call checks on the search held for its bounds value
    (_shared_search), as valid does, and hands it to every valid call it
    makes: its tables are keyed by content, so what one call computed the
    next with equal bounds reads back, whatever bounds came between.
    """
    if variant not in CONSEQUENCE_VARIANTS:
        raise ValidityError(f"unknown variant {variant!r}; pick one of {CONSEQUENCE_VARIANTS}")
    _require(bounds, Bounds, "bounds")
    scope = set(_members(context, Formula, "context", "Formula"))
    if not isinstance(goal, Formula):
        raise ValidityError(f"goal must be a Formula, not {type(goal).__name__}")
    family = list(dict.fromkeys(_members(family, AtomicBase, "family")))
    candidates = _members(candidates, Argument, "candidates")
    for i, cand in enumerate(candidates):  # its open leaves are read off its facts, with no walk
        d = cand.structure
        if conclusion_of(d) != goal or not scope.issuperset(d._facts.opens):
            opens = ", ".join(map(render_formula, dict.fromkeys(d._facts.opens))) or "no assumptions"
            raise ValidityError(f"candidates must argue for the goal from the context, but candidate {i} argues"
                                f" for {render_formula(conclusion_of(d))} from {opens}")
    context = sorted(scope, key=render_formula)
    if not family:
        return Verdict.unknown("empty family")

    failing = logical_consequence(context, goal, family).counterexample
    if failing is not None:
        return Verdict.invalid(
            f"the goal does not follow from the context on {failing}", witness=failing
        )

    search, bases = _shared_search(bounds), _visits(family)
    if variant == "delta":
        no_steps = JustificationSet()
        projection = _one_rule_steps(len(context)) if context else no_steps
        for b in bases(*[cand.steps for cand in candidates], *bounds.extensions):
            if any(valid(cand, b, bounds, _search=search).is_valid for cand in candidates):
                continue
            v = valid(_delta_witness(search, b, context, goal, no_steps, projection), b, bounds, _search=search)
            if not v.is_valid:
                return Verdict.unknown(f"constructed witness did not verify on {b.id}: {v.reason}")
        return Verdict.valid(f"per-base witnesses verified on all {len(family)} base(s)")

    if variant != "delta-s":  # delta-star and delta-sh pool these instances into the steps
        d = _uniform_structure(context, goal)
        per_class = _uniform_instances(search, d, context, goal, bases())
    if variant == "delta-star":
        maps = tuple(
            ConstantMap(f"pooled[{b.rules_text()}]", ((inst, target),)) for b, inst, target in per_class
        )
        pool = [cand for cand in candidates if isinstance(cand.steps, JustificationSet)]
        pool.append(Argument(d, JustificationSet(maps)))
        label = "pooled per-base justification sets"
    elif variant == "delta-sh":
        pairs = tuple((inst, target) for _b, inst, target in per_class)
        pool = [cand for cand in candidates if isinstance(cand.steps, RSystem)]
        pool.append(Argument(d, RSystem(pairs)))
        label = "pooled per-base reduction pairs"
    else:  # delta-s
        pool = [
            cand
            for cand in candidates
            if isinstance(cand.steps, JustificationSet) and all(is_schematic(j) for j in cand.steps.members)
        ]
        if isinstance(goal, Disj) and goal.right == negation(goal.left) and not context:
            pool.append(Argument(axiom_structure(goal), _one_rule_steps(None)))
        label = "schematic candidates only (rewrite-rule schematicity test)"

    saw_unknown = False
    for cand in pool:  # a candidate falls at its first Invalid base, the first of its class
        status = _meet(valid(cand, b, bounds, _search=search) for b in bases(cand.steps, *bounds.extensions))
        if status == "valid":
            return Verdict.valid(f"uniform witness valid on all {len(family)} base(s); {label}")
        if status == "unknown":
            saw_unknown = True
    if variant == "delta-s":
        return Verdict.unknown("no schematic witness found")
    if saw_unknown:
        return Verdict.unknown("uniform witness checks hit bounds")
    return Verdict.unknown("no uniform witness found in pool")
