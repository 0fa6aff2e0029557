"""The shared generators build well-formed structures: a property that draws
from them tests what it means to, not the reader's refusal of a bad label."""

import random

import pytest

from genlib import (
    random_case_analysis,
    random_closed_structure,
    random_detour_redex,
    random_formula,
    random_open_structure,
    random_scoped_structure,
)
from ptslab import check_structure
from ptslab.argument import labels_of, relabel

GENERATORS = {
    "closed": lambda rng: random_closed_structure(rng, random_formula(rng, 2), 3),
    "open": lambda rng: random_open_structure(rng, random_formula(rng, 2), 3),
    "detour": random_detour_redex,
    "scoped": random_scoped_structure,
    "case": random_case_analysis,
    # detours inside bind labels 1 and 2 too, as the case analysis around them does
    "case-of-detours": lambda rng: random_case_analysis(
        rng, [random_detour_redex(rng) for _ in range(rng.randint(1, 3))]
    ),
    "nested-cases": lambda rng: random_case_analysis(rng, (random_case_analysis(rng, (random_detour_redex(rng),)),)),
}


@pytest.mark.parametrize("kind", GENERATORS)
def test_every_generator_builds_well_formed_structures(kind):
    # random_rule_redex is left out: it builds a free label on purpose
    for seed in range(200):
        check_structure(GENERATORS[kind](random.Random(seed)))


def test_a_case_analysis_relabels_only_what_binds_its_labels():
    detour = random_detour_redex(random.Random(0))
    apart = relabel(detour, {1: 5, 2: 6})
    assert labels_of(random_case_analysis(random.Random(1), (detour,))) == {1, 2, 3, 4}
    d = random_case_analysis(random.Random(1), (apart,))
    assert labels_of(d) == {1, 2, 5, 6} and any(apart in branch.children for branch in d.children[1:])
