"""Proof-theoretic semantics at desk scale.

Atomic bases and derivability, base-semantics consequence, argument
structures with discharge, justification rewriting, and bounded
validity checking with three-valued verdicts.
"""

from .formula import (
    Atom,
    BOT,
    Conj,
    Disj,
    Formula,
    FormulaError,
    FVar,
    Impl,
    atoms_of,
    negation,
    parse_formula,
    render_formula,
)
from .atomic_base import (
    AtomicBase,
    AtomicRule,
    BaseError,
    EnumerationCapError,
    atomic_closure,
    atomic_derivation,
    derives,
    enumerate_bases,
    is_consistent,
    is_derivation_structure,
    parse_base,
    render_base,
)
from .base_semantics import (
    ConsequenceVerdict,
    SemanticsError,
    base_valuation,
    classical_eval,
    em_valid,
    logical_consequence,
    models,
)
from .argument import (
    ArgStructure,
    Assumption,
    AssumptionEscape,
    ConclusionMismatch,
    EmptyTop,
    Inf,
    StructureError,
    StructureInfo,
    analyze,
    canonical_key,
    check_structure,
    conclusion_of,
    immediate_substructures,
    instantiate,
    is_canonical,
    parse_structure,
    parse_structures,
    positions,
    render_structure,
    structures_equal,
    substitute,
    subtree_at,
)
from .justification import (
    ChoiceFunction,
    ConstantMap,
    JustificationContractError,
    JustificationError,
    JustificationSet,
    RSystem,
    SchematicRewrite,
    StepSource,
    apply_justification,
    check_closure,
    em_refutation_rule,
    graph_of,
    is_schematic,
    or_detour,
    parse_rules,
    reduces,
)
from .validity import (
    Argument,
    Bounds,
    ExhaustedSearch,
    FailingInstance,
    InconsistentBaseError,
    ValidityError,
    Verdict,
    axiom_structure,
    choice_justification,
    consequence,
    em_assertion_map,
    em_witness,
    recheck_invalid,
    synthesize_closed,
    valid,
)
# taken from .cli, not from .base_semantics where it is defined: perfbench/tracer.py traces
# it as ptslab.cli's and needs that module loaded (ROADMAP 6a)
from .cli import search_counterexample

__version__ = "0.1.0"
