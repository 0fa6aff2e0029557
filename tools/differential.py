"""Record every verdict the benchmark's in-process workloads produce, for a diff.

    python3 tools/differential.py --src PATH --out FILE

Imports ptslab from PATH (the directory that holds the `ptslab`
package, e.g. `src` of a checkout), builds the pooled-family,
detour-search and semantics-sweep workloads of this repository's
`perfbench/workloads.py` at seeds 0, 11 and 9001, runs every op once and
writes one line per call of `valid`, `recheck_invalid`, `consequence`,
`logical_consequence` and `search_counterexample`: the function name and
the `repr` of its result, except that a base is written as its rules
text, since an `AtomicBase` has no `repr` of its own. Calls made inside
other calls are recorded too (the `valid` calls of `consequence` and of
`recheck_invalid`), in the order they return, each indented by two
spaces per recorded call it was made in: a change that skips nested
calls shows as deleted indented lines.

Thirteen op groups follow. The first, `choice`, runs what no workload builds: a
`ChoiceFunction`. For each of the formulas a, b, a & b and a -> b it
makes `choice_justification` over `enumerate_bases([a], 1)` and, on every
base of `enumerate_bases([a, b], 2)`, calls `valid` on the
excluded-middle axiom of the formula with the steps (the choice
function, `or_detour()`), then `recheck_invalid` when the verdict is
Invalid, as it is on the bases outside the choice function's family.

The second, `schematic`, asks what no workload asks: whether a
finite table is schematic. For `em_refutation_rule()` and for the rule
`split` (`SPLIT_TEXT`), and for every 2- to 4-subset of that rule's
formula list in `SCHEMATIC_FORMULAS`, it writes `is_schematic` of the
rule's graph on the subset's redexes, as a `ConstantMap`.

The third, `refuted`, checks a conjunction one of whose immediate
substructures is Invalid and the other Unknown: on the base `-> b`, with
the steps `or_detour()`, `c & (a -> b)` over a derivation leaf for c
(which has none) and an introduction of a -> b over `(inf step "b"
(assume "a"))`, whose only pool member for a is an or-detour nested
`REFUTED_DEPTH` deep. It calls `valid` with the substructures in both
orders, at the reduction bounds in `REFUTED_BOUNDS`, then
`recheck_invalid` when the verdict is Invalid.

The fourth, `witness`, writes what `consequence` synthesizes: for each
goal and context formula of the pooled-family workload over the atoms a
and b, and for every base of `enumerate_bases([a, b], 2)` (65 bases, in
the workload's order), the `repr` of the closed witness, one `witness`
line per base after an `op` line per formula. One search, shared by the
whole group, builds every witness through its witness table; a tree
whose search has none synthesizes each afresh, so on such a tree the
group writes the reference a table must reproduce.

The fifth, `pooled-choice`, puts a `ChoiceFunction` through a search
shared across the bases of one `consequence` call, where the `choice`
group's `valid` calls check one base per call. For each `CHOICE_FORMULAS` formula f it calls `consequence` with
`delta` and with `delta-star` on f | ~f over the 65 bases, passing as
the one candidate the `choice` group's argument (the excluded-middle
axiom with the choice function and `or_detour()`); the nested `valid`
calls are recorded as above.

The sixth, `derivations`, puts long and shared derivations through
synthesis and the checker: on the chain base `-> p0`, `p_i -> p_{i+1}`
with `DERIVATION_CHAIN` rules after the first, and on the shared-premise
bases `-> x0`, `x_i -> y_i`, `x_i y_i -> x_{i+1}` for i < n, n in
`DERIVATION_SHARED`, whose derivation of x_n uses x_i twice for each i.
For the last atom of each base it writes the `repr` of `synthesize_closed`
(a `synthesize_closed` line), then calls `valid` on that structure with
no steps and `consequence` with `delta` on the atom over the base alone.

The seventh, `readers`, writes what the structure and rule readers make
of a fixed corpus: `tests/data/*.struct` and `*.rules`, the texts the
detour-search workload reads at seeds 0, 11 and 9001 (taken from its own
builders, through `parse_structure` and `parse_rules`, while it is built),
and the packaged rule texts; each as it is and in the malformed variants of
`_variants` (truncations, a dropped or extra paren, a bad label or
discharge, an unterminated string). A structure text is read by
`parse_structure` and `parse_structures`, a rule text by `parse_rules`;
each writes `render_structure` of the structures read, or the `repr` of
the rule set, or the exception's type and message.

The eighth, `partition`, runs `consequence` where bases differ in rules
that never fire: over `enumerate_bases([a, b, c], 2)` (494 bases, many of
them with a rule whose premises they do not derive), the four variants on
each `PARTITION_GOALS` goal, without candidates; on a | ~a also with the
candidates of `_partition_candidates` (a table and a reduction pair whose image
derives a twice, by -> a then a -> a, a rewrite rule whose template builds
an atomic inference, and the `choice` group's argument), and with them and
an extension that holds the `choice` group's choice function. An op that
raises writes an `error` line with the exception's type and message.

The ninth, `atomic-derivations`, writes what `atomic_derivation` builds on
the `derivations` group's bases: for the last atom of each, with no
assumptions and from the first atom (p0 or x0), the `render_structure` of
the derivation (an `atomic_derivation` line, or an `error` line where
that raises). It then writes the refusals
of `consequence`'s input contract, as `error` lines, for each variant: the
`REFUSED_CANDIDATES` (a candidate for another goal, or from more than the
context) and the `REFUSED_INPUTS` (a context or goal that is not one).

The tenth, `shared`, replays every `consequence` op of the pooled-family
workload at seed `SHARED_SEED` in reverse order, after every other group,
then every op of the detour-search workload at that seed in reverse
order, and writes their lines as those groups do, under `op shared/<op
id>` lines. `valid` and `consequence` calls with equal bounds share one
search across calls, and the module holds one search per `Bounds` value,
so these ops meet tables that other calls and the other order filled,
the detour-search ops with two bounds values interleaved; a verdict that
depends on what came before shows as a line that differs from the same
op's lines in its workload's group.

The eleventh, `applications`, applies rewrite rules where the search
would: for each structure, an `op` line, then for each position of it
(`positions`), for each rule, a line with the rule's name, the position
and what `apply_justification` makes of the subtree `cut_subtree` cuts
there: the reduct's `canonical_key`, `None`, or the exception's type and
message (a contract error).
The rules are `or_detour()`, `em_refutation_rule()`, the projection rule
`consequence` uses for one and for two context formulas, the rule of
`tests/data/detour.rules` and the `APPLICATION_RULES` lines (label
variables on leaves and discharges, a template that discharges a fresh
label vacuously, `(empty)`, a plug, a rule rooted in a structure
variable, and rules whose output breaks the contract). The structures
are those the detour-search workload reads at seeds 0, 11 and 9001, the
`APPLICATION_STRUCTURES` (excluded-middle axioms and context inferences),
and `APPLICATION_SEEDS` detours and case analyses of `tests/genlib`.

The twelfth, `root-stable`, checks wide detours past the workload's
widths: `perfbench/workloads.py`'s `_wide` at the `ROOT_STABLE_WIDTHS`
(on x and y, with the tag k), with the detour-search steps and bases and
its `max_reduction_steps`, then `recheck_invalid` when the verdict is
Invalid. The andI roots are canonical and no step rewrites them, so the
checker can refute the structure by its first detour on the base without
x; a checker that searches its 2^w reducts instead passes the step bound
at w = 12 and answers Unknown there.

The thirteenth, `scan-warnings`, scans families with inconsistent bases,
where the scan warns: `enumerate_bases` with `consistent_only=False` over
each `SCAN_WARNING_SIGNATURES` signature, passed to `logical_consequence`
as a list, a tuple and a generator, for each `SCAN_WARNING_GOALS` context
and goal; then `search_counterexample` over that signature. After each
call's recorded line come the warnings it raised, in order, one `warning`
line each, caught with `simplefilter("always")`.

Run it on two checkouts and compare the files with `cmp`: a change that
keeps every verdict and its details writes the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("pooled-family", "detour-search", "semantics-sweep")
SEEDS = (0, 11, 9001)
CHOICE_FORMULAS = ("a", "b", "a & b", "a -> b")
SPLIT_TEXT = (
    'split: (inf f "?A & ?B" (empty)) => '
    '(inf andI "?A & ?B" (inf ax "?A" (empty)) (inf ax "?B" (empty)))'
)
SCHEMATIC_FORMULAS = (
    ("em_refute", ("a", "a & b", "a & c", "d & c", "~a")),
    ("split", ("a & b", "a & c", "d & c", "b & b", "(a | b) & c")),
)
REFUTED_IMP = '(inf impI "a -> b" (inf step "b" (assume "a" :label 1)) :discharge (1))'
REFUTED_STRUCTURES = (
    f'(inf andI "c & (a -> b)" (inf atm "c" (empty)) {REFUTED_IMP})',
    f'(inf andI "(a -> b) & c" {REFUTED_IMP} (inf atm "c" (empty)))',
)
DERIVATION_CHAIN = 100
DERIVATION_SHARED = range(1, 7)
PARTITION_GOALS = ((), "a | ~a"), ((), "a -> a"), (("a",), "a | b"), (("a", "a -> b"), "b")
PARTITION_IMAGE = '(inf orI1 "a | ~a" (inf atm "a" (inf atm "a" (empty))))'
PARTITION_REWRITE = 'atm_em: (inf ax "?A | ~?A" (empty)) => (inf orI1 "?A | ~?A" (inf atm "?A" (empty)))'
REFUSED_CANDIDATES = (
    ("other-goal", '(inf atm "b" (empty))', ("-> a\n-> b\n", "-> b\n")),
    ("more-than-the-context", '(inf orI1 "a | ~a" (assume "a"))', None),  # None: enumerate_bases([a, b], 2)
)
REFUSED_INPUTS = (("context-None", None, "a | ~a"), ("context-member", [None], "a | ~a"), ("goal-None", (), None))
SHARED_SEED = 11
APPLICATION_SEEDS = range(4)
APPLICATION_STRUCTURES = (  # what em_refute and the projection rules fire on
    '(inf ax "a | ~a" (empty))',
    '(inf ax "(a -> b) | ~(a -> b)" (empty))',
    '(inf step "b" (assume "a") (inf atm "b" (empty)))',
    '(inf step "b & c" (assume "a") (assume "c") (inf andI "b & c" (inf atm "b" (empty)) (assume "c")))',
)
APPLICATION_RULES = """
sites: (inf orE "?B" ?M (assume "?B" :label ?l) (?D :concludes "?B") :discharge (?l ?m)) => (inf orE "?B" ?M (assume "?B" :label ?l) ?D :discharge (?l ?m))
outer: (inf orE "?B" ?M (assume "?B" :label ?k) ?D :discharge (?l ?m)) => (inf orE "?B" ?M (assume "?B" :label ?k) ?D :discharge (?l ?m))
vacuous: (inf orI1 "?A | ?B" ?D) => (inf orI1 "?A | ?B" (inf k "?A" ?D) :discharge (?n))
empty: (inf atm "?A" (empty)) => (inf atm "?A" (inf atm "?A" (empty)))
plug: (inf orE "?B" (inf orI1 "?A | ?C" ?D) (?E :concludes "?B") ?F :discharge ((?l "?A") ?m)) => (plug ?E ?l (inf k "?A" ?D))
anywhere: (?D :concludes "?A & ?B") => (inf andI "?A & ?B" (inf andE1 "?A" ?D) (inf andE2 "?B" ?D))
opens: (inf atm "?A" (empty)) => (assume "?A")
concludes: (inf orI1 "?A | ?B" ?D) => ?D
"""
REFUTED_DEPTH = 11
REFUTED_BOUNDS = (10, 12)
ROOT_STABLE_WIDTHS = (8, 10, 12)
SCAN_WARNING_SIGNATURES = (("a", "b"), ("a", "b", "c"))
SCAN_WARNING_RULES = 2
SCAN_WARNING_GOALS = ((), "a | ~a"), ((), "~(a & b)"), ((), "a -> b"), (("a",), "b"), (("~b",), "_|_")
RECORDED = (
    ("validity", "valid"),
    ("validity", "recheck_invalid"),
    ("validity", "consequence"),
    ("base_semantics", "logical_consequence"),
    ("cli", "search_counterexample"),
)


def _shown(result) -> str:
    return result.rules_text() if hasattr(result, "rules_text") else repr(result)


def _record_calls(out, counts: dict[str, int]) -> None:
    """Rebind each recorded function at every module binding inside ptslab."""
    import ptslab  # noqa: F401  (loads every module that binds a target)

    modules = [m for n, m in list(sys.modules.items()) if n == "ptslab" or n.startswith("ptslab.")]
    depth = [0]  # recorded calls under way
    for module, name in RECORDED:
        original = getattr(sys.modules[f"ptslab.{module}"], name)

        @functools.wraps(original)
        def recorded(*args, _fn=original, _name=name, **kwargs):
            depth[0] += 1
            try:
                result = _fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            out.write(f"{'  ' * depth[0]}{_name} {_shown(result)}\n")
            counts[_name] += 1
            return result

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, recorded)


def _run_choice_group(out) -> int:
    """Run the choice group, writing an `op` line before each op, and return
    its op count. ptslab is imported here, after the recorded functions are
    rebound, so the calls below are recorded."""
    from ptslab import Bounds, enumerate_bases, parse_formula, recheck_invalid, valid

    a, b = parse_formula("a"), parse_formula("b")
    bases = list(enumerate_bases([a, b], 2))
    for text in CHOICE_FORMULAS:
        arg = _choice_argument(parse_formula(text))
        for base in bases:
            out.write(f"op choice/{text}/{base.rules_text()}\n")
            v = valid(arg, base)
            if v.is_invalid:
                recheck_invalid(arg, base, Bounds(), v)
    return len(CHOICE_FORMULAS) * len(bases)


def _run_schematic_group(out) -> int:
    """Run the schematic group, writing an `op` line and an `is_schematic`
    line per op, and return its op count. The redex of a formula is the
    excluded-middle axiom for em_refute and `(inf f "F" (empty))` for split."""
    from ptslab import ConstantMap, Disj, EmptyTop, Inf, em_refutation_rule, graph_of, is_schematic, negation
    from ptslab import parse_formula, parse_rules

    rules = {"em_refute": em_refutation_rule(), "split": parse_rules(SPLIT_TEXT).members[0]}
    redex = {
        "em_refute": lambda f: Inf("ax", Disj(f, negation(f)), (EmptyTop(),)),
        "split": lambda f: Inf("f", f, (EmptyTop(),)),
    }
    ops = 0
    for name, texts in SCHEMATIC_FORMULAS:
        for sub in (sub for r in (2, 3, 4) for sub in itertools.combinations(texts, r)):
            table = ConstantMap(name, graph_of(rules[name], [redex[name](parse_formula(t)) for t in sub]).pairs)
            out.write(f"op schematic/{name}/{'; '.join(sub)}\n")
            out.write(f"is_schematic {is_schematic(table)}\n")
            ops += 1
    return ops


def _run_refuted_group(out) -> int:
    """Run the refuted group, writing an `op` line before each op, and return
    its op count."""
    from ptslab import Argument, Bounds, JustificationSet, or_detour, parse_base, parse_structure
    from ptslab import recheck_invalid, valid

    member = '(inf atm "a" (empty))'
    for i in range(REFUTED_DEPTH):
        member = (
            f'(inf orE "a" (inf orI1 "a | b" {member}) (assume "a" :label {2 * i + 10}) '
            f'(inf k "a" (assume "b" :label {2 * i + 11})) :discharge ({2 * i + 10} {2 * i + 11}))'
        )
    pool = (parse_structure(member),)
    base = parse_base("-> b\n")
    for order, text in zip(("c-first", "imp-first"), REFUTED_STRUCTURES):
        arg = Argument(parse_structure(text), JustificationSet((or_detour(),)))
        for steps in REFUTED_BOUNDS:
            out.write(f"op refuted/{order}/{steps}\n")
            bounds = Bounds(max_reduction_steps=steps, sigma_candidates=pool)
            v = valid(arg, base, bounds)
            if v.is_invalid:
                recheck_invalid(arg, base, bounds, v)
    return len(REFUTED_STRUCTURES) * len(REFUTED_BOUNDS)


def _choice_argument(f):
    """The choice group's argument for f: its excluded-middle axiom with the
    choice function over `enumerate_bases([a], 1)` and `or_detour()`."""
    from ptslab import Argument, Atom, Disj, JustificationSet, axiom_structure, choice_justification
    from ptslab import enumerate_bases, negation, or_detour

    steps = JustificationSet((choice_justification(f, enumerate_bases([Atom("a")], 1)), or_detour()))
    return Argument(axiom_structure(Disj(f, negation(f))), steps)


def _run_witness_group(out) -> int:
    """Run the witness group and return its op count, one op per formula."""
    import workloads
    from ptslab import Atom, Bounds, enumerate_bases, parse_formula, render_formula, validity

    family = sorted(enumerate_bases([Atom("a"), Atom("b")], 2), key=lambda b: b.id)
    goals = workloads._pooled_goals("a", "b")
    formulas = dict.fromkeys(parse_formula(workloads.o.render(f)) for _, ctx, goal in goals for f in (*ctx, goal))
    search = validity._Search(Bounds())
    closed = getattr(search, "closed", validity.synthesize_closed)
    for f in formulas:
        out.write(f"op witness/{render_formula(f)}\n")
        for base in family:
            out.write(f"witness {base.rules_text()} {closed(base, f)!r}\n")
    return len(formulas)


def _run_pooled_choice_group(out) -> int:
    """Run the pooled-choice group, writing an `op` line before each op, and
    return its op count."""
    from ptslab import Atom, consequence, enumerate_bases, parse_formula

    family = list(enumerate_bases([Atom("a"), Atom("b")], 2))
    variants = ("delta", "delta-star")
    for text in CHOICE_FORMULAS:
        cand = _choice_argument(parse_formula(text))
        for variant in variants:
            out.write(f"op pooled-choice/{text}/{variant}\n")
            consequence(variant, [], cand.structure.conclusion, family, candidates=[cand])
    return len(CHOICE_FORMULAS) * len(variants)


def _run_derivations_group(out) -> int:
    """Run the derivations group, writing an `op` line before each op, and
    return its op count."""
    from ptslab import Argument, Atom, JustificationSet, consequence, parse_base, synthesize_closed, valid

    cases = _derivation_cases()
    for name, text, _first, goal in cases:
        base, goal = parse_base(text), Atom(goal)
        out.write(f"op derivations/{name}\n")
        d = synthesize_closed(base, goal)
        out.write(f"synthesize_closed {d!r}\n")
        valid(Argument(d, JustificationSet()), base)
        consequence("delta", [], goal, [base])
    return len(cases)


def _derivation_cases() -> list[tuple[str, str, str, str]]:
    """The derivations group's bases: (name, base text, first atom, last atom)."""
    n = DERIVATION_CHAIN
    cases = [(f"chain/{n}", "-> p0\n" + "".join(f"p{i} -> p{i + 1}\n" for i in range(n)), "p0", f"p{n}")]
    for n in DERIVATION_SHARED:
        text = "-> x0\n" + "".join(f"x{i} -> y{i}\nx{i} y{i} -> x{i + 1}\n" for i in range(n))
        cases.append((f"shared/{n}", text, "x0", f"x{n}"))
    return cases


def _run_atomic_derivations_group(out) -> int:
    """Run the atomic-derivations group, writing an `op` line before each op,
    and return its op count."""
    from ptslab import Argument, Atom, JustificationSet, atomic_derivation, consequence, enumerate_bases
    from ptslab import parse_base, parse_formula, parse_structure, render_structure
    from ptslab.validity import CONSEQUENCE_VARIANTS

    ops = 0
    for name, text, first, goal in _derivation_cases():
        base, goal = parse_base(text), Atom(goal)
        for assumptions in ((), (Atom(first),)):
            out.write(f"op atomic-derivations/{name}/{{{', '.join(x.name for x in assumptions)}}}\n")
            try:  # a tree whose derivations are no structures writes why, and the group goes on
                out.write(f"atomic_derivation {render_structure(atomic_derivation(base, assumptions, goal))}\n")
            except Exception as e:
                out.write(f"error {type(e).__name__}: {str(e)[:200]}\n")
            ops += 1
    em, fam_ab = parse_formula("a | ~a"), list(enumerate_bases([Atom("a"), Atom("b")], 2))
    refused = []
    for name, cand, texts in REFUSED_CANDIDATES:
        family = fam_ab if texts is None else [parse_base(t) for t in texts]
        refused.append((f"candidate/{name}", (), em, family, [Argument(parse_structure(cand), JustificationSet())]))
    for name, context, goal in REFUSED_INPUTS:
        refused.append((f"input/{name}", context, goal and parse_formula(goal), fam_ab, ()))
    for name, context, goal, family, candidates in refused:
        for variant in CONSEQUENCE_VARIANTS:
            out.write(f"op atomic-derivations/{name}/{variant}\n")
            try:
                consequence(variant, context, goal, family, candidates=candidates)
            except Exception as e:  # the record is the exception's type and message
                out.write(f"error {type(e).__name__}: {e}\n")
            ops += 1
    return ops


def _run_shared_group(out) -> int:
    """Run the shared group, writing an `op` line before each op, and return
    its op count."""
    import workloads

    with tempfile.TemporaryDirectory() as work:
        ops = [op for op in workloads.build("pooled-family", SHARED_SEED, Path(work)) if not op.id.startswith("base/")]
        ops = ops[::-1] + workloads.build("detour-search", SHARED_SEED, Path(work))[::-1]
    for op in ops:
        out.write(f"op shared/{op.id}\n")
        op.run()
    return len(ops)


def _run_applications_group(out) -> int:
    """Run the applications group, writing an `op` line before each op, and
    return its op count: one op per structure."""
    import random

    from genlib import random_case_analysis, random_detour_redex
    from ptslab import apply_justification, canonical_key, em_refutation_rule, or_detour, parse_rules
    from ptslab import parse_structure, positions
    from ptslab.argument import cut_subtree
    from ptslab.validity import _projection_rule

    data = Path(__file__).resolve().parent.parent / "tests" / "data"
    rules = [or_detour(), em_refutation_rule(), _projection_rule(1), _projection_rule(2)]
    rules += parse_rules((data / "detour.rules").read_text(encoding="utf-8")).members
    rules += parse_rules(APPLICATION_RULES).members
    structures = [(name, parse_structure(text)) for name, kind, text in _reader_corpus()
                  if name.startswith("detour-search/") and kind == "structure"]
    structures += [(f"written/{i}", parse_structure(text)) for i, text in enumerate(APPLICATION_STRUCTURES)]
    for seed in APPLICATION_SEEDS:
        rng = random.Random(seed)
        structures += [(f"genlib/{seed}/detour", random_detour_redex(rng))]
        structures += [(f"genlib/{seed}/case", random_case_analysis(rng, (random_detour_redex(rng),)))]
    for name, d in structures:
        out.write(f"op applications/{name}\n")
        for pos in positions(d):
            for rule in rules:
                try:
                    result = apply_justification(rule, cut_subtree(d, pos)[0])
                    shown = "None" if result is None else canonical_key(result)
                except Exception as e:  # the record is the exception's type and message
                    shown = f"{type(e).__name__}: {e}"
                out.write(f"{rule.name} {pos} {shown}\n")
    return len(structures)


def _run_root_stable_group(out) -> int:
    """Run the root-stable group, writing an `op` line before each op, and
    return its op count."""
    import random

    import workloads
    from ptslab import Argument, Bounds, JustificationSet, em_refutation_rule, or_detour, parse_base
    from ptslab import parse_structure, recheck_invalid, valid

    steps = JustificationSet((or_detour(), em_refutation_rule()))
    bounds = Bounds(max_reduction_steps=workloads.MAX_STEPS)
    bases = {"with": parse_base("-> x\n-> y\n"), "without": parse_base("-> y\n")}
    for width in ROOT_STABLE_WIDTHS:
        text = workloads._wide(width, "x", "y", "k", workloads._Labels(random.Random(width)))
        arg = Argument(parse_structure(text), steps)
        for name, base in bases.items():
            out.write(f"op root-stable/{width}/{name}\n")
            v = valid(arg, base, bounds)
            if v.is_invalid:
                recheck_invalid(arg, base, bounds, v)
    return len(ROOT_STABLE_WIDTHS) * len(bases)


def _run_scan_warnings_group(out) -> int:
    """Run the scan-warnings group, writing an `op` line before each op, and
    return its op count: one per signature, goal and kind of family, and
    one per signature and goal for the search."""
    import warnings

    from ptslab import enumerate_bases, logical_consequence, parse_formula, search_counterexample

    def warned(call, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(*args)
        out.writelines(f"warning {w.message}\n" for w in caught)

    kinds = {"list": list, "tuple": tuple, "generator": lambda bases: (base for base in bases)}
    ops = 0
    for names in SCAN_WARNING_SIGNATURES:
        atoms = [parse_formula(x) for x in names]
        family = list(enumerate_bases(atoms, SCAN_WARNING_RULES, consistent_only=False))
        for texts, text in SCAN_WARNING_GOALS:
            context, goal = [parse_formula(x) for x in texts], parse_formula(text)
            name = f"scan-warnings/{''.join(names)}/{', '.join(texts)} |- {text}"
            for kind, make in kinds.items():
                out.write(f"op {name}/{kind}\n")
                warned(logical_consequence, context, goal, make(family))
            out.write(f"op {name}/search\n")
            warned(search_counterexample, context, goal, atoms, SCAN_WARNING_RULES)
            ops += len(kinds) + 1
    return ops


def _variants(text: str) -> dict[str, str]:
    """text and its malformed variants, by name; a variant that leaves the
    text as it is is left out."""
    t = text.rstrip()
    quote = t.rfind('"')
    out = {
        "as-is": text,
        "half": t[: len(t) // 2],
        "no-last-char": t[:-1],
        "no-first-paren": t.replace("(", "", 1),
        "no-last-paren": t[: t.rfind(")")] + t[t.rfind(")") + 1 :],
        "extra-open": "(" + t,
        "extra-close": t + ")",
        "bad-label": t.replace(":label ", ":label bad ", 1),
        "bad-discharge": t.replace(":discharge (", ":discharge (x ", 1),
        "open-string": t[:quote] + t[quote + 1 :] if quote >= 0 else t,
    }
    return {name: v for name, v in out.items() if name == "as-is" or v != t}


def _reader_corpus() -> list[tuple[str, str, str]]:
    """The readers group's texts: (name, "structure" or "rules", text)."""
    import workloads
    from ptslab.justification import _EM_REFUTE_TEXT, _OR_DETOUR_TEXT

    data = Path(__file__).resolve().parent.parent / "tests" / "data"
    corpus = [(f"data/{p.name}", "structure", p.read_text(encoding="utf-8")) for p in sorted(data.glob("*.struct"))]
    corpus += [(f"data/{p.name}", "rules", p.read_text(encoding="utf-8")) for p in sorted(data.glob("*.rules"))]
    saved = workloads.parse_structure, workloads.parse_rules
    for seed in SEEDS:
        read: list[tuple[str, str]] = []  # (kind, text) of each text the workload's set-up reads
        workloads.parse_structure = lambda text: read.append(("structure", text)) or saved[0](text)
        workloads.parse_rules = lambda text: read.append(("rules", text)) or saved[1](text)
        try:
            with tempfile.TemporaryDirectory() as work:
                workloads.build("detour-search", seed, Path(work))
        finally:
            workloads.parse_structure, workloads.parse_rules = saved
        corpus += [(f"detour-search/{seed}/{i}", kind, text) for i, (kind, text) in enumerate(read)]
    corpus += [("packaged/or_detour", "rules", _OR_DETOUR_TEXT), ("packaged/em_refute", "rules", _EM_REFUTE_TEXT)]
    return corpus


def _run_readers_group(out) -> int:
    """Run the readers group, writing an `op` line and one line per reader
    call, and return its op count."""
    from ptslab import parse_rules, parse_structure, parse_structures, render_structure

    shown = {
        parse_structure: render_structure,
        parse_structures: lambda ds: repr([render_structure(d) for d in ds]),
        parse_rules: repr,
    }
    ops = 0
    for name, kind, text in _reader_corpus():
        for variant, t in _variants(text).items():
            out.write(f"op readers/{name}/{variant}\n")
            for read in (parse_structure, parse_structures) if kind == "structure" else (parse_rules,):
                try:
                    result = shown[read](read(t))
                except Exception as e:  # the record is the exception's type and message
                    result = f"{type(e).__name__}: {e}"
                out.write(f"{read.__name__} {result}\n")
            ops += 1
    return ops


def _partition_candidates():
    """The partition group's candidates for a | ~a, and its extension."""
    from ptslab import Argument, Atom, ConstantMap, JustificationSet, RSystem, axiom_structure, choice_justification
    from ptslab import enumerate_bases, parse_formula, parse_rules, parse_structure

    ax, image = axiom_structure(parse_formula("a | ~a")), parse_structure(PARTITION_IMAGE)
    candidates = [
        Argument(ax, ConstantMap("atm_map", ((ax, image),))),
        Argument(ax, RSystem(((ax, image),))),
        Argument(ax, JustificationSet(parse_rules(PARTITION_REWRITE).members)),
        _choice_argument(parse_formula("a")),
    ]
    return candidates, JustificationSet((choice_justification(Atom("a"), enumerate_bases([Atom("a")], 1)),))


def _run_partition_group(out) -> int:
    """Run the partition group, writing an `op` line before each op, and
    return its op count."""
    from ptslab import Atom, Bounds, consequence, enumerate_bases, parse_formula
    from ptslab.validity import CONSEQUENCE_VARIANTS

    family = list(enumerate_bases([Atom("a"), Atom("b"), Atom("c")], 2))
    candidates, extension = _partition_candidates()
    ops = 0
    for context, goal in PARTITION_GOALS:
        runs = {"plain": ((), Bounds())}
        if goal == "a | ~a":
            runs.update({"candidates": (candidates, Bounds()), "extension": (candidates, Bounds(extensions=(extension,)))})
        for name, (cands, bounds) in runs.items():
            for variant in CONSEQUENCE_VARIANTS:
                out.write(f"op partition/{'; '.join(context)} |- {goal}/{name}/{variant}\n")
                try:
                    consequence(variant, [parse_formula(t) for t in context], parse_formula(goal), family, bounds, cands)
                except Exception as e:  # the record is the exception's type and message
                    out.write(f"error {type(e).__name__}: {e}\n")
                ops += 1
    return ops


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the ptslab package")
    ap.add_argument("--out", required=True, help="file to write the records to")
    args = ap.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCH), str(BENCH.parent / "tests")]

    ops = dict.fromkeys(WORKLOADS, 0)
    counts = {name: 0 for _, name in RECORDED}
    with open(args.out, "w") as out, tempfile.TemporaryDirectory() as work:
        _record_calls(out, counts)
        import workloads  # after the rebinding, so its imported names are recorded too

        for name in WORKLOADS:
            for seed in SEEDS:
                for op in workloads.build(name, seed, Path(work)):
                    out.write(f"op {name}/{seed}/{op.id}\n")
                    op.run()
                    ops[name] += 1
        ops["choice"] = _run_choice_group(out)
        ops["schematic"] = counts["is_schematic"] = _run_schematic_group(out)
        ops["refuted"] = _run_refuted_group(out)
        ops["witness"] = _run_witness_group(out)
        ops["pooled-choice"] = _run_pooled_choice_group(out)
        ops["derivations"] = _run_derivations_group(out)
        ops["readers"] = _run_readers_group(out)
        ops["partition"] = _run_partition_group(out)
        ops["atomic-derivations"] = _run_atomic_derivations_group(out)
        ops["shared"] = _run_shared_group(out)
        ops["applications"] = _run_applications_group(out)
        ops["root-stable"] = _run_root_stable_group(out)
        ops["scan-warnings"] = _run_scan_warnings_group(out)
    print(", ".join(f"{name} {n} ops" for name, n in ops.items()))
    print(", ".join(f"{name} {n} records" for name, n in counts.items()) + f" -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
