"""sspforge: reduction compiler and verification toolkit for recoverable
robust hardness constructions.

The package builds the gadget reductions of the subset-search framework,
machine-checks the SSP equation, the blow-up biconditional, and the
preserving partition on small instances by exhaustive enumeration, and
evaluates the recoverable-robust formulations (combinatorial and cost)
plus the adjustable-SAT game end to end.
"""

from .core import (
    Bounds,
    CapacityError,
    CompositionError,
    DistanceMeasure,
    DomainError,
    FormatError,
    MEASURES,
    PreconditionError,
    SspError,
    UnsupportedKindError,
    distance,
    embed,
    indices_of,
    mask_of,
)
from .problems import ProblemKind
from .reductions import (
    ALL_EDGES,
    BLOWUP_EDGES,
    PRESERVING_EDGES,
    ReductionArtifact,
    build_blowup,
    build_preserving,
    check_blowup,
    check_preserving,
    check_ssp,
    compose,
    effective_beta,
    published_beta,
)
from .rr import (
    CombRrInstance,
    CostRrInstance,
    RAdjSatInstance,
    RrWitness,
    comb_to_cost_rr,
    enumerate_scenarios,
    eval_comb_rr,
    eval_cost_rr,
    pad_radjsat,
    radjsat_to_comb_rr,
    solve_eae_sat,
    solve_radjsat,
)

__version__ = "0.1.0"
