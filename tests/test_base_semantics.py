import warnings

import pytest

from ptslab import (
    Atom,
    AtomicBase,
    BOT,
    Disj,
    SemanticsError,
    atoms_of,
    base_valuation,
    classical_eval,
    derives,
    em_valid,
    enumerate_bases,
    logical_consequence,
    models,
    negation,
    parse_base,
    parse_formula,
)

from genlib import all_formulas, make_rng, random_formula

a, b, p, q, s = map(Atom, "abpqs")
PQ = parse_base("-> p\np -> q\n")
EMPTY = AtomicBase(frozenset())


def test_models_examples():
    assert models(PQ, (), parse_formula("q | s"))
    assert models(EMPTY, (), parse_formula("a | ~a"))
    # nonempty context is a material condition: an unobtainable member
    # makes the sequent hold outright
    assert models(EMPTY, [p], BOT)


def test_models_hand_oracle_disjunction():
    # left disjunct via the derivable atom, computed clause by clause
    f = parse_formula("q | s")
    assert derives(PQ, (), q) is True
    assert models(PQ, (), q)
    assert not models(PQ, (), s)
    assert models(PQ, (), f)


def test_models_bottom_is_an_atom():
    assert not models(PQ, (), BOT)
    inconsistent = parse_base("-> p\np -> bot\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert models(inconsistent, (), BOT)


def test_models_warns_on_inconsistent_base():
    inconsistent = parse_base("-> bot\n")
    with pytest.warns(UserWarning, match="inconsistent"):
        models(inconsistent, (), p)


def test_classical_eval_examples():
    v = {a: True, b: False, BOT: False}
    assert classical_eval(parse_formula("a | ~a"), v)
    assert classical_eval(parse_formula("a | ~a"), {a: False, BOT: False})
    assert not classical_eval(parse_formula("a & b"), v)
    with pytest.raises(SemanticsError):
        classical_eval(parse_formula("a & c"), v)


def test_classical_eval_truth_table_oracle():
    # exhaustive truth tables for formulas over up to three atoms
    rng = make_rng(3)
    atoms = [a, b, p]
    for _ in range(100):
        f = random_formula(rng, 3, atoms=atoms)
        names = sorted(atoms_of(f) - {BOT}, key=lambda x: x.name)
        for bits in range(1 << len(names)):
            v = {x: bool(bits >> i & 1) for i, x in enumerate(names)}
            v[BOT] = False

            def table(g):
                match g:
                    case Atom():
                        return v[g]
                    case _:
                        l, r = table(g.left), table(g.right)
                        return {
                            "Conj": l and r,
                            "Disj": l or r,
                            "Impl": (not l) or r,
                        }[type(g).__name__]

            assert classical_eval(f, v) == table(f)


def test_classical_collapse_spot():
    # on a consistent base, empty-context consequence is classical
    # evaluation under the derivability valuation
    fam = list(enumerate_bases([a, b], 2))
    rng = make_rng(4)
    for base in fam[:40]:
        for _ in range(20):
            f = random_formula(rng, 3, atoms=[a, b])
            v = base_valuation(base, atoms_of(f))
            assert models(base, (), f) == classical_eval(f, v)


def test_em_valid_examples():
    assert em_valid(EMPTY, p)  # right disjunct, vacuously
    assert em_valid(parse_base("-> p\n"), p)  # left disjunct
    for base in enumerate_bases([a, b], 2):
        for f in all_formulas([a, b, BOT], 2):
            assert em_valid(base, f)


def test_logical_consequence():
    fam = list(enumerate_bases([a], 2))
    v = logical_consequence((), Disj(a, negation(a)), fam)
    assert v.holds and v.counterexample is None

    v = logical_consequence((), p, [EMPTY, PQ])
    assert not v.holds and v.counterexample == "{}"

    v = logical_consequence([p], p, [EMPTY, PQ])
    assert v.holds


def test_counterexample_rechecks():
    fam = list(enumerate_bases([p, q], 1))
    v = logical_consequence((), parse_formula("p -> q"), fam)
    assert not v.holds
    failing = next(b for b in fam if b.id == v.counterexample)
    assert not models(failing, (), parse_formula("p -> q"))


def test_monotone_mode_differs_from_plain():
    # p -> q holds on the empty base in the plain reading (vacuous), but a
    # rule extension that obtains p without q falsifies it, so the plain
    # reading is not monotone under adding rules
    f = parse_formula("p -> q")
    assert models(EMPTY, (), f)
    assert models(EMPTY, [p], q)
    p_only = parse_base("-> p\n")
    assert not models(p_only, (), f)
    assert not models(p_only, [p], q)
    assert models(PQ, [p], q)
