"""Problem-kind registry: verifiers, enumerators, and LOP envelopes.

``enumerate_solutions`` realizes the solution family S(I) exactly at desk
scale; ``enumerate_feasible`` realizes F(I) for LOP kinds, ignoring the
cost threshold.  Results are cached per instance since the checkers ask
for the same families repeatedly.
"""

from __future__ import annotations

import enum
import functools

from ..core import Bounds, CapacityError, DEFAULT_BOUNDS, UnsupportedKindError
from .cnf import enumerate_cnf_solutions
from .covering import (
    hittingset_feasible,
    hittingset_solutions,
    setcover_feasible,
    setcover_solutions,
)
from .facility import facility_solutions
from .graphs import (
    covers_upto,
    dominating_upto,
    feedback_arcsets_upto,
    feedback_vertexsets_upto,
    independent_sets_atleast,
)
from .numbers import (
    knapsack_feasible,
    knapsack_solutions,
    partition_feasible,
    partition_solutions,
    scheduling_feasible,
    scheduling_solutions,
    subsetsum_feasible,
    subsetsum_solutions,
)
from .paths import (
    disjoint_path_systems,
    ham_cycles_directed,
    ham_cycles_undirected,
    ham_paths,
    tsp_tours,
)
from .steiner import steiner_trees_upto


class ProblemKind(enum.Enum):
    SAT = "sat"
    THREE_SAT = "3sat"
    VERTEX_COVER = "vc"
    INDEPENDENT_SET = "is"
    CLIQUE = "clique"
    DOMINATING_SET = "ds"
    SET_COVER = "sc"
    HITTING_SET = "hs"
    FEEDBACK_VERTEX_SET = "fvs"
    FEEDBACK_ARC_SET = "fas"
    UFL = "ufl"
    P_CENTER = "pcenter"
    P_MEDIAN = "pmedian"
    SUBSET_SUM = "subsetsum"
    KNAPSACK = "knapsack"
    PARTITION = "partition"
    SCHEDULING = "scheduling"
    DHAM_PATH = "dhampath"
    DHAM_CYCLE = "dhamcycle"
    UHAM_CYCLE = "uhamcycle"
    TSP = "tsp"
    TWO_DDP = "2ddp"
    K_DDP = "kddp"
    STEINER_TREE = "steinertree"


_PURE_SSP = {
    ProblemKind.SAT,
    ProblemKind.THREE_SAT,
    ProblemKind.UFL,
    ProblemKind.P_CENTER,
    ProblemKind.P_MEDIAN,
}

def is_lop(kind: ProblemKind) -> bool:
    return kind not in _PURE_SSP


def universe_labels(inst) -> tuple[str, ...]:
    return inst.universe_labels()


def universe_size(inst) -> int:
    return len(inst.universe_labels())


def verify(kind: ProblemKind, inst, mask: int) -> bool:
    if kind is ProblemKind.THREE_SAT:
        inst.require_width(3)
    return inst.verify(mask)


def _guard_universe(size, bounds):
    if size > bounds.max_universe:
        raise CapacityError(
            f"universe of size {size} exceeds the powerset bound {bounds.max_universe}"
        )


def _guard_vertices(n, bounds):
    if n > bounds.max_vertices:
        raise CapacityError(f"{n} vertices exceed the structural bound")


@functools.lru_cache(maxsize=4096)
def _solutions_cached(kind: ProblemKind, inst, bounds: Bounds) -> tuple[int, ...]:
    cap = bounds.max_solutions
    if kind in (ProblemKind.SAT, ProblemKind.THREE_SAT):
        # enumeration walks assignments (2^n), not literal subsets, so the
        # bound applies to the variable count
        if inst.n_vars > max(bounds.max_universe // 2, 16):
            raise CapacityError(
                f"{inst.n_vars} variables exceed the assignment bound"
            )
        if kind is ProblemKind.THREE_SAT:
            inst.require_width(3)
        return tuple(enumerate_cnf_solutions(inst, cap))
    if kind is ProblemKind.VERTEX_COVER:
        _guard_vertices(inst.n, bounds)
        return tuple(covers_upto(inst.n, inst.edges, inst.k, cap))
    if kind is ProblemKind.INDEPENDENT_SET:
        _guard_vertices(inst.n, bounds)
        return tuple(independent_sets_atleast(inst.n, inst.edges, inst.k, cap))
    if kind is ProblemKind.CLIQUE:
        _guard_vertices(inst.n, bounds)
        return tuple(
            independent_sets_atleast(inst.n, inst.complement_edges(), inst.k, cap)
        )
    if kind is ProblemKind.DOMINATING_SET:
        _guard_vertices(inst.n, bounds)
        return tuple(dominating_upto(inst, inst.k, cap))
    if kind is ProblemKind.SET_COVER:
        _guard_universe(len(inst.subsets), bounds)
        return tuple(setcover_solutions(inst, cap))
    if kind is ProblemKind.HITTING_SET:
        _guard_universe(inst.ground_size, bounds)
        return tuple(hittingset_solutions(inst, cap))
    if kind is ProblemKind.FEEDBACK_VERTEX_SET:
        _guard_universe(inst.n, bounds)
        return tuple(feedback_vertexsets_upto(inst, inst.k, cap))
    if kind is ProblemKind.FEEDBACK_ARC_SET:
        _guard_vertices(len(inst.arcs), bounds)
        return tuple(feedback_arcsets_upto(inst, inst.k, cap))
    if kind in (ProblemKind.UFL, ProblemKind.P_CENTER, ProblemKind.P_MEDIAN):
        _guard_universe(inst.n_facilities, bounds)
        return tuple(facility_solutions(inst, cap))
    if kind is ProblemKind.SUBSET_SUM:
        _guard_vertices(len(inst.values), bounds)
        return tuple(subsetsum_solutions(inst, cap))
    if kind is ProblemKind.KNAPSACK:
        _guard_vertices(len(inst.items), bounds)
        return tuple(knapsack_solutions(inst, cap))
    if kind is ProblemKind.PARTITION:
        _guard_vertices(len(inst.values), bounds)
        return tuple(partition_solutions(inst, cap))
    if kind is ProblemKind.SCHEDULING:
        _guard_vertices(len(inst.times), bounds)
        return tuple(scheduling_solutions(inst, cap))
    if kind is ProblemKind.DHAM_PATH:
        _guard_vertices(inst.n, bounds)
        return tuple(ham_paths(inst, cap))
    if kind is ProblemKind.DHAM_CYCLE:
        _guard_vertices(inst.n, bounds)
        return tuple(ham_cycles_directed(inst, cap))
    if kind is ProblemKind.UHAM_CYCLE:
        _guard_vertices(inst.n, bounds)
        return tuple(ham_cycles_undirected(inst, cap))
    if kind is ProblemKind.TSP:
        if inst.n > 10:
            raise CapacityError("TSP enumeration limited to 10 vertices")
        return tuple(m for m in tsp_tours(inst, cap) if inst.weight(m) <= inst.k)
    if kind in (ProblemKind.TWO_DDP, ProblemKind.K_DDP):
        _guard_vertices(inst.n, bounds)
        return tuple(disjoint_path_systems(inst, cap))
    if kind is ProblemKind.STEINER_TREE:
        _guard_vertices(len(inst.edges), bounds)
        return tuple(steiner_trees_upto(inst, inst.k, cap))
    raise UnsupportedKindError(f"no enumerator for {kind}")


def enumerate_solutions(kind: ProblemKind, inst, bounds: Bounds = DEFAULT_BOUNDS):
    return list(_solutions_cached(kind, inst, bounds))


@functools.lru_cache(maxsize=4096)
def _feasible_cached(kind: ProblemKind, inst, bounds: Bounds) -> tuple[int, ...]:
    if not is_lop(kind):
        raise UnsupportedKindError(f"{kind.value} has no feasible-set structure")
    cap = bounds.max_solutions
    if kind is ProblemKind.VERTEX_COVER:
        _guard_universe(inst.n, bounds)
        return tuple(covers_upto(inst.n, inst.edges, inst.n, cap))
    if kind is ProblemKind.INDEPENDENT_SET:
        _guard_universe(inst.n, bounds)
        return tuple(independent_sets_atleast(inst.n, inst.edges, 0, cap))
    if kind is ProblemKind.CLIQUE:
        _guard_universe(inst.n, bounds)
        return tuple(
            independent_sets_atleast(inst.n, inst.complement_edges(), 0, cap)
        )
    if kind is ProblemKind.DOMINATING_SET:
        _guard_universe(inst.n, bounds)
        return tuple(dominating_upto(inst, inst.n, cap))
    if kind is ProblemKind.SET_COVER:
        _guard_universe(len(inst.subsets), bounds)
        return tuple(setcover_feasible(inst, cap))
    if kind is ProblemKind.HITTING_SET:
        _guard_universe(inst.ground_size, bounds)
        return tuple(hittingset_feasible(inst, cap))
    if kind is ProblemKind.FEEDBACK_VERTEX_SET:
        _guard_universe(inst.n, bounds)
        return tuple(feedback_vertexsets_upto(inst, inst.n, cap))
    if kind is ProblemKind.FEEDBACK_ARC_SET:
        _guard_universe(len(inst.arcs), bounds)
        return tuple(feedback_arcsets_upto(inst, len(inst.arcs), cap))
    if kind is ProblemKind.SUBSET_SUM:
        _guard_universe(len(inst.values), bounds)
        return tuple(subsetsum_feasible(inst, cap))
    if kind is ProblemKind.KNAPSACK:
        _guard_universe(len(inst.items), bounds)
        return tuple(knapsack_feasible(inst, cap))
    if kind is ProblemKind.PARTITION:
        _guard_universe(len(inst.values), bounds)
        return tuple(partition_feasible(inst, cap))
    if kind is ProblemKind.SCHEDULING:
        _guard_universe(len(inst.times), bounds)
        return tuple(scheduling_feasible(inst, cap))
    if kind is ProblemKind.TSP:
        if inst.n > 10:
            raise CapacityError("TSP enumeration limited to 10 vertices")
        return tuple(tsp_tours(inst, cap))
    if kind is ProblemKind.STEINER_TREE:
        _guard_universe(len(inst.edges), bounds)
        return tuple(steiner_trees_upto(inst, sum(inst.costs), cap))
    if kind in (
        ProblemKind.DHAM_PATH,
        ProblemKind.DHAM_CYCLE,
        ProblemKind.UHAM_CYCLE,
        ProblemKind.TWO_DDP,
        ProblemKind.K_DDP,
    ):
        return _solutions_cached(kind, inst, bounds)
    raise UnsupportedKindError(f"no feasibility enumerator for {kind}")


def enumerate_feasible(kind: ProblemKind, inst, bounds: Bounds = DEFAULT_BOUNDS):
    return list(_feasible_cached(kind, inst, bounds))


def lop_cost(kind: ProblemKind, inst) -> tuple[tuple[int, ...], int]:
    """Element costs d and threshold t with S(I) = {F in F(I) : d(F) <= t}."""
    if not is_lop(kind):
        raise UnsupportedKindError(f"{kind.value} has no cost structure")
    if kind in (
        ProblemKind.VERTEX_COVER,
        ProblemKind.DOMINATING_SET,
    ):
        return (1,) * inst.n, inst.k
    if kind is ProblemKind.SET_COVER:
        return (1,) * len(inst.subsets), inst.k
    if kind is ProblemKind.HITTING_SET:
        return (1,) * inst.ground_size, inst.k
    if kind is ProblemKind.FEEDBACK_VERTEX_SET:
        return (1,) * inst.n, inst.k
    if kind is ProblemKind.FEEDBACK_ARC_SET:
        return (1,) * len(inst.arcs), inst.k
    if kind in (ProblemKind.INDEPENDENT_SET, ProblemKind.CLIQUE):
        return (-1,) * inst.n, -inst.k
    if kind is ProblemKind.SUBSET_SUM:
        return inst.values, inst.target
    if kind is ProblemKind.KNAPSACK:
        return tuple(w for _, w in inst.items), inst.weight_cap
    if kind is ProblemKind.PARTITION:
        return inst.values, sum(inst.values) // 2
    if kind is ProblemKind.SCHEDULING:
        return inst.times, inst.deadline
    if kind is ProblemKind.TSP:
        return inst.weights, inst.k
    if kind is ProblemKind.STEINER_TREE:
        return inst.costs, inst.k
    if kind is ProblemKind.DHAM_PATH:
        return (0,) * len(inst.arcs), 0
    if kind in (ProblemKind.DHAM_CYCLE, ProblemKind.TWO_DDP, ProblemKind.K_DDP):
        return (0,) * len(inst.arcs), 0
    if kind is ProblemKind.UHAM_CYCLE:
        return (0,) * len(inst.edges), 0
    raise UnsupportedKindError(f"no cost structure for {kind}")


def clear_caches():
    _solutions_cached.cache_clear()
    _feasible_cached.cache_clear()
