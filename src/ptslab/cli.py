"""Command-line front end.

Exit codes: 0 the query holds / the argument is valid; 1 it fails /
is invalid; 2 the bounded check came back unknown; 3 usage, parse or
I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable

from .atomic_base import (
    AtomicBase,
    BaseError,
    EnumerationCapError,
    derives,
    enumerate_bases,
    parse_base,
)
from .argument import (
    Assumption,
    EmptyTop,
    Inf,
    StructureError,
    instantiate,
    parse_structure,
    parse_structures,
)
from .base_semantics import logical_consequence, models, search_counterexample
from .formula import Atom, Disj, Formula, FormulaError, negation, parse_formula, render_formula
from .justification import (
    JustificationError,
    JustificationSet,
    RSystem,
    or_detour,
    parse_rules,
    reduces,
)
from .sexpr import SexprError
from .validity import (
    Argument,
    Bounds,
    CONSEQUENCE_VARIANTS,
    ValidityError,
    Verdict,
    axiom_structure,
    consequence,
    em_witness,
    synthesize_closed,
    valid,
)

__all__ = ["main", "search_counterexample"]

_PARSE_ERRORS = (
    FormulaError,
    BaseError,
    EnumerationCapError,
    StructureError,
    JustificationError,
    SexprError,
    ValidityError,
    OSError,
)


class _Cli(argparse.ArgumentParser):
    _intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        """A command takes options between its positionals too: `models BASE CTX --format lines GOAL`."""
        if self._subparsers is not None or self._intermixing:
            return super().parse_known_args(args, namespace)
        self._intermixing = True  # parse_known_intermixed_args calls back in here
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _emit(args, text: str, **record) -> None:
    """Print one answer: its text line, or under --format lines its record as one JSON line."""
    if args.format == "lines":
        import json  # here, not at the top: only a --format lines record needs it
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _result(args, text: str, **fields) -> None:
    _emit(args, text, record="result", command=args.command, **fields)


def _demo(args, text: str, **fields) -> None:
    _emit(args, text, record="demo", name=args.name, **fields)


def _holds(args, ok: bool, text: str, **fields) -> int:
    """Report a yes/no answer: exit 0 if it holds, 1 if not."""
    _result(args, text, holds=ok, **fields)
    return 0 if ok else 1


def _verdict(args, v: Verdict, where: str, **fields) -> int:
    """Report a verdict as `where: status (reason)`: exit 0 valid, 1 invalid, 2 unknown."""
    _result(args, f"{where}: {v.status}" + (f" ({v.reason})" if v.reason else ""),
            status=v.status, reason=v.reason, **fields)
    return {"valid": 0, "invalid": 1, "unknown": 2}[v.status]


def _load(path: str, parse, error: type[Exception], **options):
    """Parse the file at path, naming the path in the parser's own error."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), **options)
    except error as e:
        raise error(f"{path}: {e}") from None


def _load_base(path: str) -> AtomicBase:
    return _load(path, parse_base, BaseError, id=Path(path).stem)


def _parse_enumerate_spec(spec: str) -> tuple[list[Atom], int]:
    body = spec.split(":", 1)[1]
    opts = dict(kv.split("=", 1) for kv in body.split(","))
    n_atoms = int(opts.pop("atoms"))
    n_rules = int(opts.pop("rules"))
    if opts:
        raise BaseError(f"unknown enumerate options: {sorted(opts)}")
    letters = "abcdefghijklmnopqrstuvwxyz"
    if not 0 <= n_atoms <= len(letters):
        raise BaseError(f"enumerate: atoms must be between 0 and {len(letters)}, got {n_atoms}")
    atoms = [Atom(c) for c in letters[:n_atoms]]
    return atoms, n_rules


def _load_family(specs: Iterable[str]) -> list[AtomicBase]:
    family: list[AtomicBase] = []
    for spec in specs:
        if spec.startswith("enumerate:"):
            atoms, n_rules = _parse_enumerate_spec(spec)
            family.extend(enumerate_bases(atoms, n_rules, consistent_only=True))
        else:
            family.append(_load_base(spec))
    return list(dict.fromkeys(sorted(family, key=lambda b: (b.id, b.rules_text()))))


def _bounds_from(args) -> Bounds:
    sigma = []
    for path in args.sigma_pool or []:
        sigma.extend(_load(path, parse_structures, StructureError))
    exts = tuple(_load(p, parse_rules, JustificationError) for p in args.extensions or [])
    return Bounds(
        max_reduction_steps=args.max_steps,
        sigma_candidates=tuple(sigma),
        extensions=exts,
    )


def _context_from(text: str | None) -> list[Formula]:
    """The formulas of a semicolon-separated context option."""
    if not text:
        return []
    return [parse_formula(part) for part in text.split(";") if part.strip()]


# ---------------------------------------------------------------------------
# commands


def _cmd_derive(args) -> int:
    base = _load_base(args.base)
    goal = parse_formula(args.goal)
    if not isinstance(goal, Atom):
        raise FormulaError("derivability is about atoms; give an atom goal")
    ok = derives(base, (), goal)
    return _holds(args, ok, f"{base.id} {'derives' if ok else 'does not derive'} {goal.name}",
                  base=base.id, goal=goal.name)


def _cmd_models(args) -> int:
    base = _load_base(args.base)
    goal = parse_formula(args.goal)
    ctx = _context_from(args.ctx)
    ok = models(base, ctx, goal)
    context = [render_formula(f) for f in ctx]
    shown = (", ".join(context) + " " if context else "") + "|= " + render_formula(goal)
    return _holds(args, ok, f"on {base.id}: {shown}: {'holds' if ok else 'fails'}",
                  base=base.id, context=context, goal=render_formula(goal))


def _cmd_consequence(args) -> int:
    goal = parse_formula(args.goal)
    ctx = _context_from(args.context)
    family = _load_family(args.family)
    if args.variant == "base":
        cv = logical_consequence(ctx, goal, family)
        v = Verdict("valid" if cv.holds else "invalid",
                    "" if cv.holds else f"fails on {cv.counterexample}", cv.counterexample)
    else:
        v = consequence(args.variant, ctx, goal, family, _bounds_from(args))
    return _verdict(args, v, f"{args.variant} over {len(family)} base(s)", variant=args.variant,
                    goal=render_formula(goal), context=[render_formula(f) for f in ctx],
                    family_size=len(family))


def _cmd_reduce(args) -> int:
    rules = _load(args.rules, parse_rules, JustificationError)
    frm = _load(args.frm, parse_structure, StructureError)
    to = _load(args.to, parse_structure, StructureError)
    ok = reduces(rules, frm, to, args.max_steps)
    return _holds(args, ok, f"reduces within {args.max_steps} step(s): {'yes' if ok else 'no'}",
                  max_steps=args.max_steps)


def _cmd_valid(args) -> int:
    structure = _load(args.structure, parse_structure, StructureError)
    rules = _load(args.rules, parse_rules, JustificationError)
    base = _load_base(args.base)
    v = valid(Argument(structure, rules), base, _bounds_from(args))
    return _verdict(args, v, f"on {base.id}", base=base.id)


def _cmd_search(args) -> int:
    goal = parse_formula(args.goal)
    ctx = _context_from(args.context)
    atoms = [Atom(name.strip()) for name in args.atoms.split(",") if name.strip()]
    try:
        found = search_counterexample(ctx, goal, atoms, args.max_rules, cap=args.cap)
    except EnumerationCapError as e:
        _result(args, f"enumeration cap exceeded: {e}", error="cap-exceeded", detail=str(e))
        return 3
    if found is None:
        _result(args, "no counterexample in the searched family", counterexample=None)
        return 0
    _result(args, f"counterexample: {found.id}", counterexample=found.id)
    return 1


# ---------------------------------------------------------------------------
# demos: executable versions of the worked examples


def _demo_detour(args) -> int:
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    branch1 = Inf("atm", c, (Assumption(a, 1),))
    branch2 = Inf("atm", c, (Assumption(b, 2),))
    d = Inf("orE", c, (Assumption(Disj(a, b)), branch1, branch2), frozenset({1, 2}))
    steps = JustificationSet((or_detour(),))
    bases = [
        parse_base("-> a\na -> c\nb -> c\n", id="left"),
        parse_base("-> b\na -> c\nb -> c\n", id="right"),
        parse_base("-> a\n-> b\na -> c\nb -> c\n", id="both"),
    ]
    ok = True
    for base in bases:
        v = valid(Argument(d, steps), base, _bounds_from(args))
        ok &= v.is_valid
        _demo(args, f"case analysis on {base.id}: {v.status}", base=base.id, status=v.status)
    closed = instantiate(d, {Disj(a, b): synthesize_closed(bases[0], Disj(a, b))})
    target = Inf("atm", c, (Inf("atm", a, (EmptyTop(),)),))
    one = reduces(steps, closed, target, 1) and not reduces(steps, closed, target, 0)
    ok &= one
    _demo(args, f"detour removed in exactly one step: {'yes' if one else 'no'}", one_step=one)
    return 0 if ok else 1


def _demo_em(args) -> int:
    family = _load_family(args.family or ["enumerate:atoms=2,rules=2"])
    f = Atom("a")
    ok = True
    for base in family:
        w = em_witness(base, f)
        v = valid(w, base, _bounds_from(args))
        ok &= v.is_valid
        arm = w.steps.members[0].name
        _demo(args, f"excluded middle on {base.id}: witness via {arm}: {v.status}",
              base=base.id, arm=arm, status=v.status)
    return 0 if ok else 1


def _demo_chain(args) -> int:
    p, q, r, s = map(Atom, "pqrs")
    qs = Disj(q, s)
    rules = parse_rules(
        'chain_rule: (inf step2 "q | s" (inf step1 "r" (inf atm "p" (empty)))) '
        '=> (inf orI1 "q | s" (inf atm "q" (inf atm "p" (empty))))'
    )
    base = parse_base("-> p\np -> q\n", id="two-rule")
    empty = AtomicBase(frozenset(), id="empty")
    open_chain = Inf("step2", qs, (Inf("step1", r, (Assumption(p),)),))
    closed_chain = Inf("step2", qs, (Inf("step1", r, (Inf("atm", p, (EmptyTop(),)),)),))
    bounds = _bounds_from(args)
    checks = [
        ("open chain on the two-rule base", valid(Argument(open_chain, rules), base, bounds), "valid"),
        ("closed chain on the two-rule base", valid(Argument(closed_chain, rules), base, bounds), "valid"),
        ("closed chain on the empty base", valid(Argument(closed_chain, rules), empty, bounds), "invalid"),
    ]
    ok = True
    for label, v, want in checks:
        ok &= (v.status == want) or (want == "invalid" and v.is_unknown)
        _demo(args, f"{label}: {v.status} (expected {want})", check=label, status=v.status, expected=want)
    return 0 if ok else 1


def _demo_graph(args) -> int:
    family = _load_family(args.family or ["enumerate:atoms=1,rules=1"])
    f = Atom("a")
    goal = Disj(f, negation(f))
    bounds = _bounds_from(args)
    ok = True
    union = RSystem(())
    for base in family:
        w = em_witness(base, f, mode="graph")
        union = union | w.steps
        v = valid(w, base, bounds)
        ok &= v.is_valid
        _demo(args, f"graph witness on {base.id}: {v.status}", base=base.id, status=v.status)
    for base in family:
        v = valid(Argument(axiom_structure(goal), union), base, bounds)
        ok &= v.is_valid
    v = consequence("delta-sh", (), goal, family, bounds)
    ok &= v.is_valid
    _demo(args, f"pooled reduction system ({len(union)} pair(s)) on every base: {v.status}",
          union_pairs=len(union), status=v.status)
    return 0 if ok else 1


_DEMOS = {"detour": _demo_detour, "em": _demo_em, "chain": _demo_chain, "graph": _demo_graph}


def _cmd_demo(args) -> int:
    return _DEMOS[args.name](args)


# ---------------------------------------------------------------------------


def _add_options(sp, *, steps=False, pools=False, family=""):
    """Register the options a command reads, and only those. family is the
    nargs of --family; "+" also makes the option required."""
    if steps:
        sp.add_argument("--max-steps", type=int, default=10, dest="max_steps")
    if pools:
        sp.add_argument("--sigma-pool", nargs="*", dest="sigma_pool", metavar="FILE")
        sp.add_argument("--extensions", nargs="*", dest="extensions", metavar="FILE")
    if family:
        sp.add_argument(
            "--family",
            nargs=family,
            required=family == "+",
            metavar="SPEC",
            help="base files and/or enumerate:atoms=K,rules=M",
        )
    sp.add_argument("--format", choices=("text", "lines"), default="text")


def build_parser() -> argparse.ArgumentParser:
    p = _Cli(prog="ptslab", description="proof-theoretic semantics at desk scale")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Cli)

    sp = sub.add_parser("derive", help="atomic derivability on a base")
    sp.add_argument("base")
    sp.add_argument("goal")
    _add_options(sp)
    sp.set_defaults(func=_cmd_derive)

    sp = sub.add_parser("models", help="base-semantics consequence on one base")
    sp.add_argument("base")
    sp.add_argument("ctx", nargs="?")
    sp.add_argument("goal")
    _add_options(sp)
    sp.set_defaults(func=_cmd_models)

    sp = sub.add_parser("consequence", help="consequence over a family of bases")
    sp.add_argument("variant", choices=("base",) + CONSEQUENCE_VARIANTS)
    sp.add_argument("goal")
    sp.add_argument("--context", help="semicolon-separated formulas")
    _add_options(sp, steps=True, pools=True, family="+")
    sp.set_defaults(func=_cmd_consequence)

    sp = sub.add_parser("reduce", help="bounded reduction between two structures")
    sp.add_argument("rules")
    sp.add_argument("frm", metavar="from")
    sp.add_argument("to")
    _add_options(sp, steps=True)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("valid", help="bounded validity of an argument on a base")
    sp.add_argument("structure")
    sp.add_argument("rules")
    sp.add_argument("base")
    _add_options(sp, steps=True, pools=True)
    sp.set_defaults(func=_cmd_valid)

    sp = sub.add_parser("search", help="first enumerated base refuting a consequence")
    sp.add_argument("goal")
    sp.add_argument("--context", help="semicolon-separated formulas")
    sp.add_argument("--atoms", required=True, help="comma-separated atom names")
    sp.add_argument("--max-rules", type=int, default=2, dest="max_rules")
    sp.add_argument("--cap", type=int, default=200_000)
    _add_options(sp)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("demo", help="run a packaged worked example")
    sp.add_argument("name", choices=sorted(_DEMOS))
    _add_options(sp, steps=True, pools=True, family="*")
    sp.set_defaults(func=_cmd_demo)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PARSE_ERRORS as e:
        print(f"ptslab: error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
