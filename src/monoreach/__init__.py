"""Monotone fan-in-2 circuits for directed reachability.

Builders for squaring, explicit affine-plane, and recursive composed
circuits; covering-family generation and checking; bit-sliced graph
oracles that check a circuit on chunks of graphs; and exact depth
accounting.
"""

__version__ = "0.1.0"

from .build import (
    DepthLedger,
    Stage,
    build_explicit,
    build_reach,
    build_reach_exact,
    build_reach_leq,
    build_recursive,
    ceil_log2,
    compose_family,
    depth_ratio,
    predict_depth,
    recursion_schedule,
    trend_table,
)
from .circuit import (
    AND,
    OR,
    AdjacencyMatrix,
    MonotoneCircuit,
    circuit_from_text,
    or_tree,
    read_circuit,
    write_circuit,
)
from .errors import (
    BudgetExceededError,
    ConstructionFailedError,
    FamilyViolationError,
    InvalidParameterError,
    InvalidReferenceError,
    MonoreachError,
)
from .families import (
    AffinePlaneFamily,
    CoveringFamily,
    FamilyCounterexample,
    FamilyParams,
    HittingWitness,
    affine_lines,
    check_family_exact,
    check_family_sampled,
    family_from_text,
    family_to_text,
    hitting_decomposition,
    line_cover_bound,
    minimal_deficiency,
    minimal_prime_q,
    plane_family,
    read_family,
    sample_family,
    sample_verified_family,
    sampling_failure_bound,
    sampling_guarantee_holds,
    sampling_log_failure_bound,
    verify_line_cover_bound,
    write_family,
)
from .oracles import (
    graph_from_text,
    graph_to_text,
    no_path_graph,
    planted_path_graph,
    read_graph,
    run_exhaustive_check,
    run_planted_check,
    run_random_check,
)
