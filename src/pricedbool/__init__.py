"""Evaluation of Boolean functions when every read has a price.

An evaluation strategy reads variables one at a time and pays each
variable's cost; it stops as soon as the function's value is forced.
Its quality is the worst-case ratio of what it paid to the cheapest
proof of that value.  This package provides exact machinery to measure
such ratios, closed forms and adversaries for symmetric functions,
lower-bound constructions for functions with short conjunctions, and a
covering-program evaluator with matching switch-family bounds.
"""

from .core import (
    PROOF_ENUM_CAP,
    SEARCH_CAP,
    TABLE_CAP,
    BooleanFunction,
    CapExceeded,
    ConstantFunctionError,
    ContractViolation,
    CostVector,
    Dnf,
    Literal,
    ParseError,
    PartialAssignment,
    PricedBoolError,
    Proof,
    Restriction,
    cheapest_proof,
    cheapest_proof_costs,
    certificates,
    cost_json,
    literal_set_key,
    looks_like_table_text,
    majority,
    max_proof_size,
    maxterms,
    minimal_witness_domains,
    minterms,
    parity,
    parse_cost_json,
    parse_dnf,
    parse_table_text,
    proof_variable_sets,
    random_cost_vector,
    random_function,
    table_to_text,
    term_text,
    unit_costs,
)
from .harness import (
    Adversary,
    EvaluationAlgorithm,
    EvaluationTranscript,
    FlipLastAdversary,
    GreedyStrategy,
    RatioReport,
    ReadRecord,
    adversarial_ratio,
    competitive_ratio_exhaustive,
    greedy_strategy,
    ratio_of,
    ratio_string,
    run,
)
from .lp import (
    FamilySpec,
    LpGuidedStrategy,
    LpSolution,
    ProofLp,
    SwitchAnalysis,
    build_lp,
    lp_guided_strategy,
    lp_objective,
    lp_solution,
    make_switch_family,
    max_restriction_objective,
    solve_lp,
    switch_example,
)
from .quadratic import (
    PivotPairs,
    PivotTwoPhase,
    QuadraticAnalysis,
    certificate_sizes,
    make_pivot_pairs,
    maxterm_adversary,
    maxterm_analysis,
    pivot_two_phase,
    random_quadratic,
)
from .symmetric import (
    Block,
    SymmetricAdversary,
    SymmetricProfile,
    block_of,
    blocks,
    cheapest_proof_by_counts,
    determined_by_counts,
    extremal_cost_vector,
    profile_of,
    ratio_formula,
    spread,
    symmetric_adversary,
)

__version__ = "0.1.0"
