"""Context-directed sorting of signed permutations.

The package implements the two context-directed operations used to model
ciliate micronuclear gene assembly -- cdr (a pointer-directed reversal with
negation) and cds (a pointer-pair-directed block swap) -- together with the
oriented overlap-graph calculus (local complementation and gcdr) that mirrors
cdr at the graph level, a polynomial sortability decision checked against
exhaustive search oracles, verification sweeps for the structure theorems
(rescue, parity, step counting, same-length, commutation), and solvers for the
normal/misere gcdr games.
"""

from .analysis import (
    BudgetExceededError,
    FixedPointEnumeration,
    RescuedFixedPoint,
    RescueReport,
    StepCounts,
    TheoremViolationError,
    cdr_sortable_criterion,
    cdr_sortable_search,
    cdr_sorting_lengths,
    cdr_steps,
    cds_maximal_lengths,
    cds_reachable_fixed_points,
    cds_sortable_greedy,
    classify_sequence,
    criterion_discrepancies,
    enumerate_cdr_fixed_points,
    extend_to_total,
    greedy_safe_total_sequence,
    indiscriminate_cdr_trace,
    maximal_sequence_lengths,
    parity,
    reverse_cdr_sortable_search,
    verify_rescue,
)
from .games import GameState, IllegalMoveError, legal_moves, play, playout, winner_by_minimax, winner_by_parity
from .graph import (
    Component,
    ComponentReport,
    OrientedGraph,
    build_overlap_graph,
    component_report,
    gcdr,
    graph_from_text,
    has_unoriented_component,
    is_terminal,
    is_total_terminal,
    local_complement,
    random_oriented_graph,
    to_dot,
    to_text,
    try_gcdr,
)
from .ops import (
    NotApplicableError,
    SortTrace,
    TraceStep,
    applicable_cdr_moves,
    applicable_cds_moves,
    apply_cdr,
    apply_cds,
    cdr_applicable,
    cds_applicable,
    is_cdr_fixed_point,
    is_cds_fixed_point,
    try_apply_cdr,
    try_apply_cds,
)
from .perm import (
    PermutationError,
    PointerOccurrence,
    SignedPermutation,
    all_signed_permutations,
    collapse_adjacencies,
    find_adjacencies,
    fixtures,
    format_entries,
    parse_entries,
    pointer_occurrences,
    random_signed_permutation,
    sigma,
    tau,
    validate_entries,
)

__version__ = "0.1.0"
