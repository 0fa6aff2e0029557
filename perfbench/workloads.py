"""The benchmark's workloads: seeded inputs, the ops a user runs on them, and
each op's known answer.

`build(name, seed, workdir)` generates and parses a workload's inputs and
returns its ops in the order they run. Building is the set-up a run times
as `setup_s`. An op's `run` is one call a user makes (one library call,
or one CLI process on `cli-session`), and `check` compares what it
returned with the answer derived in `oracle` or from how the input was
built, never from running ptslab.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import string
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle as o
from ptslab import (
    Argument,
    Atom,
    Bounds,
    JustificationSet,
    consequence,
    em_refutation_rule,
    enumerate_bases,
    logical_consequence,
    or_detour,
    parse_base,
    parse_formula,
    parse_rules,
    parse_structure,
    recheck_invalid,
    search_counterexample,
    valid,
)

# Ops whose failure is a known defect at the time the benchmark was written.
# They count as failed, but do not make a run incorrect.
KNOWN_DEFECTS = {
    "cli-session": (
        "bad.spec-atoms-two",  # exits 1 with a traceback; the documented code is 3
        "bad.spec-bogus",  # same
        "stem.d1-first",  # bases are deduplicated by file stem, so the verdict
        "stem.d2-first",  # depends on the order of same-stem files
    ),
}

DECIDED = ("valid", "invalid")


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    # returns None when the observation is the known answer, else what differs
    check: Callable[[object], "str | None"]
    decided: Callable[[object], bool] = lambda obs: obs[0] in DECIDED
    # family size, on the ops whose cost is measured against it
    growth_size: int = 0
    command: str = ""


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"{name}:{seed}")
    make_ops = {
        "pooled-family": _pooled_family,
        "detour-search": _detour_search,
        "semantics-sweep": _semantics_sweep,
        "cli-session": _cli_session,
    }[name]
    ops = make_ops(rng, workdir)
    rng.shuffle(ops)
    return ops


def _letters(rng: random.Random, k: int) -> list[str]:
    """k distinct atom names in alphabetical order.

    Single lowercase letters sort the same way against every other
    character of a base id, so renaming keeps family order and work."""
    return sorted(rng.sample(string.ascii_lowercase, k))


def _expect(want):
    def check(obs):
        return None if obs == want else f"expected {want!r}, got {obs!r}"

    return check


# ---------------------------------------------------------------------------
# pooled-family: the four consequence variants and the base reading over
# prefixes of one enumerated family, so pooled tables are keyed again and
# again against the same few structures.

PREFIXES = (16, 32, 65)
VARIANTS = ("base", "delta", "delta-sh", "delta-s", "delta-star")
# the growth of delta-star with family size is measured on excluded middle
GROWTH_SERIES = ("delta-star", "em")


def _pooled_goals(x, y):
    """(name, context, goal) over two atoms; some hold on the family, some fail."""
    X, Y = o.atom(x), o.atom(y)
    return (
        ("em", (), o.disj(X, o.neg(X))),
        ("imp-refl", (), o.imp(X, X)),
        ("em-conj", (), o.disj(o.conj(X, Y), o.neg(o.conj(X, Y)))),
        ("weaken", (X,), o.disj(X, Y)),
        ("disj", (), o.disj(X, Y)),  # holds on the 16-base prefix only
        ("em-bot", (), o.disj(o.FALSUM, o.neg(o.FALSUM))),  # only refutations needed
        ("atom", (), X),
        ("imp", (), o.imp(X, Y)),
    )


def _pooled_expectation(variant, context, goal, family, vals):
    failing = [b for b, v in zip(family, vals) if not o.follows(context, goal, v)]
    if variant == "base":
        return ("invalid", failing[0].id) if failing else ("valid", None)
    if failing:
        return "invalid"
    if variant != "delta-s":
        return "valid"
    # delta-s finds a schematic witness only for excluded middle whose
    # disjunct fails on every base, where refutations suffice
    refutable = (
        not context
        and goal[0] == "or"
        and goal[2] == o.neg(goal[1])
        and not any(o.holds(goal[1], v) for v in vals)
    )
    return "valid" if refutable else "unknown"


def _pooled_family(rng, workdir):
    x, y = _letters(rng, 2)
    family = sorted(enumerate_bases([Atom(x), Atom(y)], 2), key=lambda b: b.id)
    if len(family) != 65:
        raise RuntimeError(f"expected 65 bases over two atoms, got {len(family)}")
    ops = []
    for gname, ctx, goal in _pooled_goals(x, y):
        ctx_p = tuple(parse_formula(o.render(c)) for c in ctx)
        goal_p = parse_formula(o.render(goal))
        for n in PREFIXES:
            fam = family[:n]
            for variant in VARIANTS:
                if variant == "base":
                    def run(ctx_p=ctx_p, goal_p=goal_p, fam=fam):
                        v = logical_consequence(ctx_p, goal_p, fam)
                        return ("valid", None) if v.holds else ("invalid", v.counterexample)
                else:
                    def run(variant=variant, ctx_p=ctx_p, goal_p=goal_p, fam=fam):
                        return consequence(variant, ctx_p, goal_p, fam).status

                def check(obs, variant=variant, ctx=ctx, goal=goal, fam=fam):
                    want = _pooled_expectation(variant, ctx, goal, fam, [o.valuation(b) for b in fam])
                    return None if obs == want else f"expected {want!r}, got {obs!r}"

                ops.append(
                    Op(
                        f"{variant}/{n}/{gname}",
                        run,
                        check,
                        decided=lambda obs: (obs[0] if isinstance(obs, tuple) else obs) in DECIDED,
                        growth_size=n if (variant, gname) == GROWTH_SERIES else 0,
                    )
                )
    return ops


# ---------------------------------------------------------------------------
# detour-search: `valid` with the schematic or-detour rule on generated
# structures, so every reduct is new and the search itself is the work.

MAX_STEPS = 10
NESTED_DEPTHS = range(1, 13)
WIDTHS = range(1, 7)


class _Labels:
    def __init__(self, rng):
        self.next = rng.randrange(1, 1000)

    def pair(self):
        self.next += 2
        return self.next - 2, self.next - 1


def _derivation(x):
    return f'(inf atm "{x}" (empty))'


def _detour(inner, x, y, tag, labels):
    """An or-detour concluding x: introduce x | y over `inner`, then
    eliminate it; one rewrite collapses it back onto `inner`."""
    l1, l2 = labels.pair()
    return (
        f'(inf orE "{x}" (inf orI1 "{x} | {y}" {inner}) '
        f'(assume "{x}" :label {l1}) '
        f'(inf {tag} "{x}" (assume "{y}" :label {l2})) :discharge ({l1} {l2}))'
    )


def _nested(depth, x, y, tag, labels):
    text = _derivation(x)
    for _ in range(depth):
        text = _detour(text, x, y, tag, labels)
    return text


def _wide(width, x, y, tag, labels):
    """A right-nested andI tree over `width` independent detours; the
    detours can be removed in any subset, so it has 2**width reducts."""
    text = _detour(_derivation(x), x, y, tag, labels)
    concl = x
    for _ in range(width - 1):
        concl = f"{x} & ({concl})" if " " in concl else f"{x} & {concl}"
        text = f'(inf andI "{concl}" {_detour(_derivation(x), x, y, tag, labels)} {text})'
    return text


def _case_analysis(x, y, z, labels):
    l1, l2 = labels.pair()
    return (
        f'(inf orE "{z}" (assume "{x} | {y}") '
        f'(inf atm "{z}" (assume "{x}" :label {l1})) '
        f'(inf atm "{z}" (assume "{y}" :label {l2})) :discharge ({l1} {l2}))'
    )


def _search_op(op_id, arg, base, bounds, want):
    def run():
        v = valid(arg, base, bounds)
        rechecked = recheck_invalid(arg, base, bounds, v) if v.is_invalid else None
        return (v.status, rechecked)

    return Op(op_id, run, _expect((want, True if want == "invalid" else None)))


def _detour_search(rng, workdir):
    x, y, z = rng.sample(string.ascii_lowercase, 3)
    tag = rng.choice(("step", "k", "aux", "via"))
    labels = _Labels(rng)
    steps = JustificationSet((or_detour(), em_refutation_rule()))
    closed_bounds = Bounds(max_reduction_steps=MAX_STEPS)
    bases = {"with": parse_base(f"-> {x}\n-> {y}\n"), "without": parse_base(f"-> {y}\n")}
    ops = []
    for depth in NESTED_DEPTHS:
        arg = Argument(parse_structure(_nested(depth, x, y, tag, labels)), steps)
        for bname, base in bases.items():
            # depth d needs d rewrites; past the bound the search is cut off
            if depth > MAX_STEPS:
                want = "unknown"
            else:
                want = "valid" if bname == "with" else "invalid"
            ops.append(_search_op(f"nested/{depth}/{bname}", arg, base, closed_bounds, want))
    for width in WIDTHS:
        arg = Argument(parse_structure(_wide(width, x, y, tag, labels)), steps)
        for bname, base in bases.items():
            want = "valid" if bname == "with" else "invalid"
            ops.append(_search_op(f"wide/{width}/{bname}", arg, base, closed_bounds, want))

    # an open case analysis, checked through its pool instantiations
    case = Argument(parse_structure(_case_analysis(x, y, z, labels)), steps)
    pool = (
        parse_structure(f'(inf orI1 "{x} | {y}" {_derivation(x)})'),
        parse_structure(f'(inf orI2 "{x} | {y}" {_derivation(y)})'),
    )
    extension = parse_rules(f'skip_{tag}: (inf {tag} "?A" (?D :concludes "?A")) => ?D')
    open_bounds = Bounds(max_reduction_steps=MAX_STEPS, sigma_candidates=pool, extensions=(extension,))
    open_bases = {
        "left": [((), x), ((x,), z), ((y,), z)],
        "right": [((), y), ((x,), z), ((y,), z)],
        "both": [((), x), ((), y), ((x,), z), ((y,), z)],
        "broken": [((), x), ((y,), z)],
        "vacuous": [((x,), z)],
    }
    for bname, rules in open_bases.items():
        base = parse_base("".join(f"{' '.join(p)} -> {c}\n" for p, c in rules))
        # each derivable disjunct v gives the instance orE(orI(v), ...), which
        # rewrites to z over a derivation of v: a derivation iff the base has v -> z
        derivable = {c for p, c in rules if not p}
        want = "valid" if all(((v,), z) in rules for v in derivable & {x, y}) else "invalid"
        ops.append(_search_op(f"open/{bname}", case, base, open_bounds, want))
    return ops


# ---------------------------------------------------------------------------
# semantics-sweep: random formula texts checked on enumerated families;
# all work is in formula, atomic_base and base_semantics.

SWEEP_ATOMS = ("a", "b", "c")
# formulas per class: the first valuation, by size and then by name, that
# falsifies the formula ("taut" when none does). Bases are enumerated in
# that order of their valuations, so the class fixes how far into the
# family the first counterexample sits, and with it the work of each op.
# The median op falls inside the "bc" block, where ops take milliseconds,
# not between two sub-millisecond classes where timer noise would move it.
CLASS_QUOTA = {"": 4, "a": 2, "b": 2, "c": 2, "ab": 2, "ac": 2, "bc": 8, "abc": 2, "taut": 8}
# formula sizes (nodes, with ~A as A -> bot) kept in a narrow band, since
# evaluating a formula on each base costs in proportion to its size
SIZE_BAND = (9, 13)
FAMILY_SIZES = {2: 494, 3: 4887}


def _random_formula(rng, depth):
    if depth <= 1 or rng.random() < 0.3:
        return o.atom(rng.choice(SWEEP_ATOMS))
    kind = rng.choice(("and", "or", "imp", "not"))
    if kind == "not":
        return o.neg(_random_formula(rng, depth - 1))
    return (kind, _random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def _size(f) -> int:
    return 1 + sum(_size(x) for x in f[1:] if isinstance(x, tuple))


def _falsifier_class(f) -> str:
    for k in range(len(SWEEP_ATOMS) + 1):
        for true in itertools.combinations(SWEEP_ATOMS, k):
            if not o.holds(f, frozenset(true)):
                return "".join(true)
    return "taut"


def _sweep_formulas(rng):
    quota = dict(CLASS_QUOTA)
    out = []
    while any(quota.values()):
        f = _random_formula(rng, 5)
        if not SIZE_BAND[0] <= _size(f) <= SIZE_BAND[1]:
            continue
        cls = _falsifier_class(f)
        if quota[cls]:
            quota[cls] -= 1
            out.append((cls, CLASS_QUOTA[cls] - quota[cls] - 1, f))
    return out


def _first_failing(goal, family, vals):
    for b, v in zip(family, vals):
        if not o.holds(goal, v):
            return b.id
    return None


def _semantics_sweep(rng, workdir):
    atoms = [Atom(a) for a in SWEEP_ATOMS]
    families = {k: list(enumerate_bases(atoms, k)) for k in FAMILY_SIZES}
    for k, fam in families.items():
        if len(fam) != FAMILY_SIZES[k]:
            raise RuntimeError(f"expected {FAMILY_SIZES[k]} bases with {k} rules, got {len(fam)}")
    vals: dict[int, list[frozenset[str]]] = {}

    def valuations(k):
        if k not in vals:
            vals[k] = [o.valuation(b) for b in families[k]]
        return vals[k]

    ops = []
    for cls, j, f in _sweep_formulas(rng):
        text = o.render(f)
        for k, fam in families.items():
            def lc(text=text, fam=fam):
                v = logical_consequence((), parse_formula(text), fam)
                return ("valid", None) if v.holds else ("invalid", v.counterexample)

            def search(text=text, k=k):
                found = search_counterexample((), parse_formula(text), atoms, k)
                return ("valid", None) if found is None else ("invalid", found.id)

            def check(obs, f=f, k=k):
                cex = _first_failing(f, families[k], valuations(k))
                want = ("valid", None) if cex is None else ("invalid", cex)
                return None if obs == want else f"expected {want!r}, got {obs!r}"

            label = cls or "none"
            ops.append(Op(f"consequence/{k}/{label}/{j}", lc, check))
            ops.append(Op(f"search/{k}/{label}/{j}", search, check))
    return ops


def check_family_sizes() -> str | None:
    """Independent count of the semantics-sweep families."""
    for k, n in FAMILY_SIZES.items():
        got = o.consistent_base_count(list(SWEEP_ATOMS), k)
        if got != n:
            return f"{k} rules: {got} consistent bases, benchmark expects {n}"
    return None


# ---------------------------------------------------------------------------
# cli-session: one `ptslab` process per op, as a shell user runs them.

CLI_CODE = "import sys; from ptslab.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 60
ROOT = Path(__file__).resolve().parent.parent
DATA = Path("tests") / "data"


def _cli_command(argv: list[str]) -> list[str]:
    """How the benchmark starts `ptslab ARGV`: the console script's body,
    run by this interpreter, since no console script is installed; in a
    traced sweep, the same through cli_child.py."""
    if os.environ.get("PERFBENCH_CHILD_TRACE"):
        return [sys.executable, str(Path(__file__).with_name("cli_child.py")), *argv]
    return [sys.executable, "-c", CLI_CODE, *argv]


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def _lines(out: str):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _cli_session(rng, workdir):
    p, q = _letters(rng, 2)
    workdir.mkdir(parents=True, exist_ok=True)
    files = {
        "two_rule.base": f"-> {p}\n{p} -> {q}\n",
        "bad.base": f"{p} {q}\n",
        "bad.rules": "phi: (inf orE \"?B\" => (plug\n",
        "d1/x.base": "-> a\n",
        "d2/x.base": "",
    }
    for rel, text in files.items():
        path = workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    env = _cli_env()

    def w(rel):
        return str(workdir / rel)

    def op(op_id, argv, code, out_check=None):
        def run():
            proc = subprocess.run(
                _cli_command(argv), cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            return (proc.returncode, proc.stdout, proc.stderr)

        def check(obs):
            got, out, err = obs
            if got != code:
                tail = (err.strip().splitlines() or [""])[-1]
                return f"exit {got}, documented {code}: {tail}"
            if out_check is not None:
                return out_check(out)
            return None

        # every documented outcome is a decision except unknown (2) and errors (3)
        return Op(op_id, run, check, decided=lambda obs: obs[0] in (0, 1), command=argv[0])

    def has(text):
        return lambda out: None if text in out else f"output lacks {text!r}"

    def records(status):
        def check(out):
            recs = _lines(out)
            if not recs or any(r.get("record") != "result" or r.get("status") != status for r in recs):
                return f"expected one result record with status {status}, got {out.strip()!r}"
            return None

        return check

    enum2 = "enumerate:atoms=2,rules=2"
    ops = [
        # the README example session, over a base with seeded atom names
        op("readme.models-em", ["models", w("two_rule.base"), f"{q} | ~{q}"], 0, has("holds")),
        op("readme.derive", ["derive", w("two_rule.base"), q], 0),
        op("readme.search", ["search", f"{p} -> {q}", "--atoms", f"{p},{q}"], 1,
           has(f"counterexample: {{-> {p}}}")),
        op("readme.consequence-delta-s", ["consequence", "delta-s", "a | ~a", "--family",
                                          "enumerate:atoms=1,rules=1"], 2),
        op("readme.demo-em", ["demo", "em", "--family", enum2], 0),
        # the packaged demos
        op("demo.detour", ["demo", "detour"], 0),
        op("demo.em", ["demo", "em"], 0),
        op("demo.chain", ["demo", "chain"], 0),
        op("demo.graph", ["demo", "graph"], 0),
        # the fixtures
        op("fixture.valid", ["valid", str(DATA / "redex.struct"), str(DATA / "detour.rules"),
                             str(DATA / "abc.base")], 0),
        op("fixture.reduce", ["reduce", str(DATA / "detour.rules"), str(DATA / "redex.struct"),
                              str(DATA / "contractum.struct"), "--max-steps", "1"], 0),
        op("fixture.valid-empty", ["valid", str(DATA / "redex.struct"), str(DATA / "detour.rules"),
                                   str(DATA / "empty.base")], 1),
        # JSON records
        op("lines.consequence-base", ["consequence", "base", f"{p} | ~{p}", "--family", enum2,
                                      "--format", "lines"], 0, records("valid")),
        op("lines.valid", ["valid", str(DATA / "redex.struct"), str(DATA / "detour.rules"),
                           str(DATA / "abc.base"), "--format", "lines"], 0, records("valid")),
        # malformed input: the documented exit code is 3
        op("bad.formula", ["derive", w("two_rule.base"), f"{p} &"], 3),
        op("bad.missing-file", ["derive", w("missing.base"), p], 3),
        op("bad.base-file", ["derive", w("bad.base"), p], 3),
        op("bad.rules-file", ["reduce", w("bad.rules"), str(DATA / "redex.struct"),
                              str(DATA / "contractum.struct")], 3),
        op("bad.command", ["prove", p], 3),
        op("bad.spec-atoms-two", ["consequence", "delta", "a", "--family",
                                  "enumerate:atoms=two"], 3),
        op("bad.spec-bogus", ["consequence", "delta", "a", "--family", "enumerate:bogus"], 3),
        # two base files with one stem: `a` fails on the empty one
        op("stem.d1-first", ["consequence", "delta", "a", "--family", w("d1/x.base"),
                             w("d2/x.base")], 1),
        op("stem.d2-first", ["consequence", "delta", "a", "--family", w("d2/x.base"),
                             w("d1/x.base")], 1),
    ]
    return ops

