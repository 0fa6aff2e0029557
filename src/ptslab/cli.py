"""Proof-theoretic semantics at desk scale, from the command line.

`ptslab COMMAND -h` lists a command's arguments and options. An option may
stand anywhere among the arguments, as --opt VALUE or --opt=VALUE, and a
unique prefix names it; `--` ends the options. Exit codes: 0 the query
holds / the argument is valid; 1 it fails / is invalid; 2 the bounded
check came back unknown; 3 usage, parse or I/O errors.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from types import SimpleNamespace
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

_PARSE_ERRORS = (FormulaError, BaseError, EnumerationCapError, StructureError, JustificationError,
                 SexprError, ValidityError, OSError)


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
    return [Atom(c) for c in letters[:n_atoms]], n_rules


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
    sigma = tuple(s for path in args.sigma_pool or [] for s in _load(path, parse_structures, StructureError))
    exts = tuple(_load(path, parse_rules, JustificationError) for path in args.extensions or [])
    return Bounds(max_reduction_steps=args.max_steps, sigma_candidates=sigma, extensions=exts)


def _context_from(text: str | None) -> list[Formula]:
    """The formulas of a semicolon-separated context option."""
    return [parse_formula(part) for part in (text or "").split(";") if part.strip()]


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
    frm = _load(getattr(args, "from"), parse_structure, StructureError)
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
    bounds = _bounds_from(args)
    ok = True
    for base in bases:
        v = valid(Argument(d, steps), base, bounds)
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
    bounds = _bounds_from(args)
    ok = True
    for base in family:
        w = em_witness(base, Atom("a"))
        v = valid(w, base, bounds)
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
    ok, union = True, RSystem(())
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


# ---------------------------------------------------------------------------
# the command table, which the reader and -h both read

_ARGS = {  # kind (str, int, its choices, or list: the words up to the next option), default, metavar, help
    "VARIANT": (("base",) + CONSEQUENCE_VARIANTS, None, "", ""),
    "NAME": (tuple(sorted(_DEMOS)), None, "", ""),
    "--family": (list, None, "SPEC...", "base files and/or enumerate:atoms=K,rules=M"),
    "--context": (str, None, "FORMULAS", "semicolon-separated formulas"),
    "--atoms": (str, None, "ATOMS", "comma-separated atom names"),
    "--max-rules": (int, 2, "N", "rules per enumerated base"),
    "--cap": (int, 200_000, "N", "most rule combinations to enumerate"),
    "--max-steps": (int, 10, "N", "reduction steps per search"),
    "--sigma-pool": (list, None, "FILE...", "structure files: candidates for sigma"),
    "--extensions": (list, None, "FILE...", "justification files added to the steps"),
    "--format": (("text", "lines"), "text", "", "lines: one JSON record per line"),
}
_POOLS = " --max-steps --sigma-pool --extensions"
_COMMANDS = {  # name: (function, help, arguments, options; a required one ends in !)
    "derive": (_cmd_derive, "atomic derivability on a base", "BASE GOAL", ""),
    "models": (_cmd_models, "base-semantics consequence on one base", "BASE [CTX] GOAL", ""),
    "consequence": (_cmd_consequence, "consequence over a family of bases", "VARIANT GOAL",
                    "--family! --context" + _POOLS),
    "reduce": (_cmd_reduce, "bounded reduction between two structures", "RULES FROM TO", "--max-steps"),
    "valid": (_cmd_valid, "bounded validity of an argument on a base", "STRUCTURE RULES BASE", _POOLS),
    "search": (_cmd_search, "first enumerated base refuting a consequence", "GOAL",
               "--atoms! --context --max-rules --cap"),
    "demo": (lambda args: _DEMOS[args.name](args), "run a packaged worked example", "NAME", "--family" + _POOLS),
}


def _options(name: str) -> dict[str, bool]:
    """A command's options, each with whether it is required."""
    return {f.rstrip("!"): f.endswith("!") for f in (_COMMANDS[name][3] + " --format").split()}


def _usage(name: str | None) -> str:
    return f"usage: ptslab {name} {_COMMANDS[name][2]} [OPTIONS]" if name else "usage: ptslab COMMAND ..."


def _help(name: str | None):
    """Print -h of the program (name None) or of a command, and exit 0."""
    if name is None:
        lines = [__doc__ or "", *(f"  {n + ' ' + c[2]:<30}{c[1]}" for n, c in _COMMANDS.items())]
    else:
        rows = [(w, "one of " + ", ".join(_ARGS[w][0])) for w in _COMMANDS[name][2].split() if w in _ARGS]
        for flag, required in _options(name).items():
            kind, default, metavar, text = _ARGS[flag]
            shown = f" (default {default})" if default is not None else " (required)" if required else ""
            rows.append((f"{flag} {metavar or '{' + ','.join(kind) + '}'}", text + shown))
        lines = [_COMMANDS[name][1], "", *(f"  {a:<24}{b}" for a, b in rows)]
    print(_usage(name), "", *lines, sep="\n")
    sys.exit(0)


def _fail(name: str | None, message: str):
    print(_usage(name), f"ptslab{' ' + name if name else ''}: error: {message}", sep="\n", file=sys.stderr)
    sys.exit(3)


def _option(word: str, flags) -> list[str] | None:
    """The flags a word names ([] if none), or None if it is a value, as argparse read words."""
    if word[:1] != "-" or word == "-":
        return None
    flag = word.partition("=")[0]
    names = [flag] if flag in flags else [f for f in flags if f.startswith(flag)] if flag[:2] == "--" else []
    return None if not names and (re.match(r"-\d+$|-\d*\.\d+$", word) or " " in word) else names


def _value(name: str, what: str, kind, word: str):
    if isinstance(kind, tuple) and word not in kind:
        _fail(name, f"argument {what}: invalid choice: {word!r} (choose from {', '.join(map(repr, kind))})")
    try:
        return int(word) if kind is int else word
    except ValueError:
        _fail(name, f"argument {what}: invalid int value: {word!r}")


def _read(argv: list[str]) -> SimpleNamespace:
    """The command line as the _cmd functions read it, as argparse read it:
    the command, and an attribute per argument and option. Options may
    stand among the arguments, until `--`; the last of a repeated option
    counts. Exits 0 after -h and 3 after a usage error."""
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    if name is None:
        if argv and (argv[0] == "-h" or len(argv[0]) > 2 and "--help".startswith(argv[0])):
            _help(None)
        _fail(None, f"invalid command: {argv[0]!r} (choose from {', '.join(_COMMANDS)})" if argv else
              "the following arguments are required: command")
    options = _options(name)
    flags = (*options, "-h", "--help")
    args = {f[2:].replace("-", "_"): _ARGS[f][1] for f in options}
    shown, free, ended, i = _COMMANDS[name][2].split(), [], False, 1
    while i < len(argv):
        word, i = argv[i], i + 1
        names = None if ended else _option(word, flags)
        if word == "--" and not ended:
            ended = True
        elif names is None:
            free.append(word)
        elif len(names) != 1:
            _fail(name, f"ambiguous option: {word.partition('=')[0]} could match {', '.join(names)}"
                  if names else f"unrecognized arguments: {word}")
        elif names[0] in ("-h", "--help"):
            _help(name)
        else:
            flag, kind, (_, eq, value), n = names[0], _ARGS[names[0]][0], word.partition("="), i
            while not eq and n < len(argv) and _option(argv[n], flags) is None and (kind is list or n == i):
                n += 1
            values, i = [value] if eq else argv[i:n], n
            if not values and (kind is not list or options[flag]):
                _fail(name, f"argument {flag}: expected {'at least ' * (kind is list)}one argument")
            args[flag[2:].replace("-", "_")] = values if kind is list else _value(name, flag, kind, values[0])
    slots = [w for w in shown if w[0] != "[" or len(free) >= len(shown)]  # [CTX] only when all are given
    missing = [w.lower() for w in slots[len(free):]]
    missing += [f for f, need in options.items() if need and args[f[2:].replace("-", "_")] is None]
    if missing:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    if len(free) > len(slots):
        _fail(name, "unrecognized arguments: " + " ".join(free[len(slots):]))
    args |= {w.strip("[]").lower(): None for w in shown}
    args |= {w.strip("[]").lower(): _value(name, w, _ARGS.get(w, (str,))[0], v) for w, v in zip(slots, free)}
    return SimpleNamespace(command=name, **args)


def main(argv: list[str] | None = None) -> int:
    args = _read(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][0](args)
    except _PARSE_ERRORS as e:
        print(f"ptslab: error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
