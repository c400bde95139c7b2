from .catalog import (
    KIND_SPECS,
    ProblemKind,
    clear_caches,
    element_labels,
    enumerate_feasible,
    enumerate_solutions,
    feasible_keys,
    is_lop,
    lop_cost,
    universe_size,
    verify,
)
from .cnf import CnfInstance
from .covering import HittingSetInstance, SetCoverInstance
from .facility import FacilityLocationInstance, PCenterInstance, PMedianInstance
from .graphs import (
    CliqueInstance,
    DominatingSetInstance,
    FeedbackArcSetInstance,
    FeedbackVertexSetInstance,
    IndependentSetInstance,
    VertexCoverInstance,
    connected_undirected,
)
from .numbers import (
    KnapsackInstance,
    PartitionInstance,
    SchedulingInstance,
    SubsetSumInstance,
)
from .paths import (
    DirectedHamCycleInstance,
    DirectedHamPathInstance,
    DisjointPathsInstance,
    TspInstance,
    UndirectedHamCycleInstance,
)
from .steiner import SteinerTreeInstance

__all__ = [
    "KIND_SPECS",
    "ProblemKind",
    "CnfInstance",
    "VertexCoverInstance",
    "IndependentSetInstance",
    "CliqueInstance",
    "DominatingSetInstance",
    "SetCoverInstance",
    "HittingSetInstance",
    "FeedbackVertexSetInstance",
    "FeedbackArcSetInstance",
    "FacilityLocationInstance",
    "PCenterInstance",
    "PMedianInstance",
    "SubsetSumInstance",
    "KnapsackInstance",
    "PartitionInstance",
    "SchedulingInstance",
    "DirectedHamPathInstance",
    "DirectedHamCycleInstance",
    "UndirectedHamCycleInstance",
    "TspInstance",
    "DisjointPathsInstance",
    "SteinerTreeInstance",
    "connected_undirected",
    "element_labels",
    "enumerate_solutions",
    "enumerate_feasible",
    "feasible_keys",
    "is_lop",
    "lop_cost",
    "universe_size",
    "verify",
    "clear_caches",
]
