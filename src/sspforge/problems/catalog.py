"""Problem-kind registry: verifiers, enumerators, and LOP envelopes.

A kind's universe is named once, on its instance class: ``universe`` is
the field its elements are counted from, an int or a tuple with one entry
per element.  ``universe_size``, the labels of ``element_labels``, the
range check of ``verify`` and the registry's guards and cost envelopes
are all read from that field.

Each kind is declared once, by its ``KindSpec`` entry in ``KIND_SPECS``:
the instance class, the enumerator of the solution family S(I) and the
one capacity guard it runs behind, and, for the LOP kinds, the cost
envelope (d, t), with S(I) = {F in F(I) : d(F) <= t}.  An LOP kind states
one search of the members of F(I) within a cost budget,
``KindSpec.search``: S(I) is that search at t, the listed F(I) of
``enumerate_feasible`` that search at the sum of the positive costs,
which every set meets, and the cost-RR key stream of ``feasible_keys``
that search at growing budgets.  All are exact, at desk scale.  S(I) is
cached per instance, since the checkers ask for it repeatedly.  One
helper, ``cached``, builds every cache of the package (this one and the
blow-up targets of ``reductions.blowup``), and one call,
``clear_caches``, empties them all.

A guard answers to what its enumerator walks.  A bounded search answers
to ``max_vertices`` on the elements it walks, plus the solution cap; so
every family of an LOP kind, S(I), the listed F(I) and the stream,
answers to the one guard of S(I).  Only a scan answers to
``max_universe``: CNF assignments to max(max_universe // 2, 16)
variables, UFL and p-median masks to the powerset bound.

Every enumerator ``run(inst, cap)`` returns its family as a sorted list
of element masks, or an iterable of them in increasing order, and raises
``CapacityError`` when the family holds more than ``cap`` masks.  The
kernels state that limit once: they collect their solutions in
``core.Capped(cap)``, whose append raises.  ``feasible_keys`` streams
F(I) of any LOP kind priced by its own costs window by window of budgets,
and answers to the cap on each search it runs.
The route kinds share two searches: directed Hamiltonian cycles are
listed by the Hamiltonian path search, and TSP tours by the undirected
cycle search on the complete graph.  Dominating set, set cover, hitting
set, feedback vertex set, feedback arc set and p-center share one more:
``covering.hitting_sets_upto``, with each kind's constraints.
"""

from __future__ import annotations

import enum
import functools
import math
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from ..core import (
    Bounds,
    CapacityError,
    DEFAULT_BOUNDS,
    DomainError,
    UnsupportedKindError,
)
from . import cnf, covering, facility, graphs, numbers, paths, steiner


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


def _size(inst, field: str) -> int:
    """The instance's ``field``, or its length if it is a tuple."""
    v = getattr(inst, field)
    return v if type(v) is int else len(v)


def universe_size(inst) -> int:
    """The number of elements in the universe of ``inst``, counted from the
    field its class names."""
    return _size(inst, type(inst).universe)


class Guard(NamedTuple):
    """A capacity guard: the size of the instance's ``field`` may not
    exceed ``limit(bounds)``.  ``message`` is formatted with ``size`` and
    ``limit``."""

    field: str
    limit: Callable[[Bounds], int]
    message: str

    def check(self, inst, bounds: Bounds) -> None:
        size, limit = _size(inst, self.field), self.limit(bounds)
        if size > limit:
            raise CapacityError(self.message.format(size=size, limit=limit))


def _powerset(field: str) -> Guard:
    message = "universe of size {size} exceeds the powerset bound {limit}"
    return Guard(field, attrgetter("max_universe"), message)


_NOUNS = dict(n="vertices", ground_size="ground elements", n_facilities="facilities")


def _structural(field: str) -> Guard:
    """``max_vertices`` on the instance's ``field``, named in plain words."""
    message = f"{{size}} {_NOUNS.get(field, field)} exceed the structural bound"
    return Guard(field, attrgetter("max_vertices"), message)


class Guards(NamedTuple):
    """Several guards, checked in order; the first that fails raises."""

    parts: tuple[Guard, ...]

    def check(self, inst, bounds: Bounds) -> None:
        for guard in self.parts:
            guard.check(inst, bounds)


class KindSpec(NamedTuple):
    """Everything kind-specific about one problem kind: its S(I) is
    ``run(inst, cap)``, called once ``guard`` passes."""

    cls: type
    guard: Guard | Guards
    run: Callable[[Any, int], Iterable[int]]
    # the envelope: element costs d and threshold t of an instance
    cost: Callable[[Any], tuple[tuple[int, ...], int]] | None = None
    # the arity every instance must have: a CNF's clause width, or the
    # number of terminal pairs of a disjoint-paths instance
    width: int | None = None
    # for the LOP kinds, ``search(inst, budget, cap)``: the members of F(I)
    # whose element cost is at most ``budget``
    search: Callable[[Any, int, int], Iterable[int]] | None = None

    def admit(self, inst, bounds: Bounds | None = None) -> None:
        """Refuse ``inst`` if it lacks the kind's width or fails its guard
        under ``bounds``, when given."""
        if bounds is not None:
            self.guard.check(inst, bounds)
        if self.width:
            inst.require_width(self.width)


def _zero_cost(cls, run) -> KindSpec:
    """A route kind: enumerated behind its vertex count, with zero costs on
    its elements against threshold 0, so F(I) = S(I), which its search lists
    whole at every budget from 0 on."""

    def search(i, budget, cap):
        return run(i, cap) if budget >= 0 else []

    return KindSpec(
        cls, _structural("n"), run, lambda i: ((0,) * universe_size(i), 0), search=search
    )


def _lop(cls, search, cost, guard=None) -> KindSpec:
    """An LOP kind from its one search ``search(inst, budget, cap)``, the
    members of F(I) whose element cost is at most ``budget``: S(I) is the
    search at the threshold t, behind ``guard``, by default the structural
    bound on the kind's universe."""

    def run(i, cap):
        return search(i, cost(i)[1], cap)

    return KindSpec(cls, guard or _structural(cls.universe), run, cost, search=search)


def _hitting_kind(cls, unhit) -> KindSpec:
    """A hitting-set kind: its search lists the sets of at most ``budget``
    elements that hit every constraint ``unhit(inst)`` names, and every
    element costs 1 against threshold k."""
    return _lop(
        cls,
        lambda i, budget, cap: covering.hitting_sets_upto(
            universe_size(i), unhit(i), budget, cap
        ),
        lambda i: ((1,) * universe_size(i), i.k),
    )


def _threshold_kind(cls, threshold, cost) -> KindSpec:
    """A number kind whose F(I) is the sets whose weight sum reaches a
    threshold, as ``threshold`` gives them, costed by those weights: its
    search is the window from the threshold to the budget."""
    return _lop(
        cls,
        lambda i, budget, cap: numbers.sums_between(*threshold(i), budget, cap),
        cost,
    )


def _knapsacks(i, budget, cap):
    # the sets that reach the price goal, within the weight budget
    prices = tuple(p for p, _ in i.items)
    weights = tuple(w for _, w in i.items)
    return numbers.packings(prices, i.price_goal, weights, budget, cap)


# the scans, as (guard, run); CNF enumeration walks assignments (2^n), not
# literal subsets, so its bound applies to the variable count
_CNF = (
    Guard(
        "n_vars",
        lambda bounds: max(bounds.max_universe // 2, 16),
        "{size} variables exceed the assignment bound",
    ),
    cnf.enumerate_cnf_solutions,
)
_FACILITY = _powerset("n_facilities"), facility.facility_solutions


# in the enumerators and envelopes, ``i`` is the instance and ``cap`` the
# solution cap
KIND_SPECS: dict[ProblemKind, KindSpec] = {
    ProblemKind.SAT: KindSpec(cnf.CnfInstance, *_CNF),
    ProblemKind.THREE_SAT: KindSpec(cnf.CnfInstance, *_CNF, width=3),
    ProblemKind.VERTEX_COVER: _lop(
        graphs.VertexCoverInstance,
        lambda i, budget, cap: graphs.covers_upto(i.n, i.edges, budget, cap),
        lambda i: ((1,) * i.n, i.k),
    ),
    # the independent sets and cliques of at least k vertices: each vertex
    # costs -1 against threshold -k
    ProblemKind.INDEPENDENT_SET: _lop(
        graphs.IndependentSetInstance,
        lambda i, budget, cap: graphs.independent_sets_atleast(
            i.n, i.edges, -budget, cap
        ),
        lambda i: ((-1,) * i.n, -i.k),
    ),
    ProblemKind.CLIQUE: _lop(
        graphs.CliqueInstance,
        lambda i, budget, cap: graphs.independent_sets_atleast(
            i.n, i.complement_edges(), -budget, cap
        ),
        lambda i: ((-1,) * i.n, -i.k),
    ),
    ProblemKind.DOMINATING_SET: _hitting_kind(
        graphs.DominatingSetInstance,
        lambda i: covering.unhit_masks(i.closed_neighborhoods()),
    ),
    ProblemKind.SET_COVER: _hitting_kind(
        covering.SetCoverInstance,
        lambda i: covering.unhit_masks(i.element_masks()),
    ),
    ProblemKind.HITTING_SET: _hitting_kind(
        covering.HittingSetInstance,
        lambda i: covering.unhit_masks(i.subset_masks()),
    ),
    ProblemKind.FEEDBACK_VERTEX_SET: _hitting_kind(
        graphs.FeedbackVertexSetInstance, graphs.unhit_cycle_vertices
    ),
    ProblemKind.FEEDBACK_ARC_SET: _hitting_kind(
        graphs.FeedbackArcSetInstance, graphs.unhit_cycle_arcs
    ),
    ProblemKind.UFL: KindSpec(facility.FacilityLocationInstance, *_FACILITY),
    ProblemKind.P_CENTER: KindSpec(
        facility.PCenterInstance,
        _structural("n_facilities"),
        lambda i, cap: covering.hitting_sets_upto(
            i.n_facilities, covering.unhit_masks(i.client_masks()), i.p, cap
        ),
    ),
    ProblemKind.P_MEDIAN: KindSpec(facility.PMedianInstance, *_FACILITY),
    ProblemKind.SUBSET_SUM: _threshold_kind(
        numbers.SubsetSumInstance,
        lambda i: (i.values, i.target),
        lambda i: (i.values, i.target),
    ),
    ProblemKind.KNAPSACK: _lop(
        numbers.KnapsackInstance,
        _knapsacks,
        lambda i: (tuple(w for _, w in i.items), i.weight_cap),
    ),
    # the last element lies outside every set: 2 * sum reaches the total,
    # and the other machine's load, total - sum, is within the deadline
    ProblemKind.PARTITION: _threshold_kind(
        numbers.PartitionInstance,
        lambda i: (i.values[:-1], (sum(i.values) + 1) // 2),
        lambda i: (i.values, sum(i.values) // 2),
    ),
    ProblemKind.SCHEDULING: _threshold_kind(
        numbers.SchedulingInstance,
        lambda i: (i.times[:-1], sum(i.times) - i.deadline),
        lambda i: (i.times, i.deadline),
    ),
    ProblemKind.DHAM_PATH: _zero_cost(paths.DirectedHamPathInstance, paths.ham_paths),
    ProblemKind.DHAM_CYCLE: _zero_cost(
        paths.DirectedHamCycleInstance, paths.ham_cycles_directed
    ),
    ProblemKind.UHAM_CYCLE: _zero_cost(
        paths.UndirectedHamCycleInstance,
        lambda i, cap: paths.ham_cycles_undirected(
            i.n, i.edges, (0,) * len(i.edges), 0, cap
        ),
    ),
    ProblemKind.TSP: _lop(
        paths.TspInstance,
        lambda i, budget, cap: paths.ham_cycles_undirected(
            i.n, i.edge_order(), i.weights, budget, cap
        ),
        lambda i: (i.weights, i.k),
        _structural("n"),
    ),
    ProblemKind.TWO_DDP: _zero_cost(
        paths.DisjointPathsInstance, paths.disjoint_path_systems
    )._replace(width=2),
    ProblemKind.K_DDP: _zero_cost(
        paths.DisjointPathsInstance, paths.disjoint_path_systems
    ),
    # the Steiner kernel builds tables per vertex and terminal, so its
    # search also answers to the vertex count
    ProblemKind.STEINER_TREE: _lop(
        steiner.SteinerTreeInstance,
        steiner.steiner_trees_upto,
        lambda i: (i.costs, i.k),
        Guards((_structural("edges"), _structural("n"))),
    ),
}


def is_lop(kind: ProblemKind) -> bool:
    return KIND_SPECS[kind].search is not None


def _edge_names(edges):
    return (f"e{x}:{u}-{v}" for x, (u, v) in enumerate(edges))


# the element labels of each universe field, as instance documents write
# them
_LABELS: dict[str, Callable[[Any], Iterable[str]]] = {
    "n": lambda i: (f"v{x}" for x in range(i.n)),
    "arcs": lambda i: (f"a{x}:{u}->{v}" for x, (u, v) in enumerate(i.arcs)),
    "edges": lambda i: _edge_names(i.edges),
    "weights": lambda i: _edge_names(i.edge_order()),
    "subsets": lambda i: (f"S{x}" for x in range(len(i.subsets))),
    "ground_size": lambda i: (f"g{x}" for x in range(i.ground_size)),
    "n_facilities": lambda i: (f"f{x}" for x in range(i.n_facilities)),
    "values": lambda i: (f"n{x}={v}" for x, v in enumerate(i.values)),
    "items": lambda i: (f"it{x}=({p},{w})" for x, (p, w) in enumerate(i.items)),
    "times": lambda i: (f"j{x}={v}" for x, v in enumerate(i.times)),
    "n_literals": lambda i: (
        f"{sign}x{x + 1}" for sign in ("", "~") for x in range(i.n_vars)
    ),
}


def element_labels(inst) -> list[str]:
    """The labels of the instance's universe elements, in index order."""
    return list(_LABELS[type(inst).universe](inst))


def verify(kind: ProblemKind, inst, mask: int) -> bool:
    """Whether ``mask`` is a solution of ``inst``; a mask that is negative
    or holds an element past the universe is refused here, for every kind,
    so an instance's own ``verify`` tests only its property."""
    KIND_SPECS[kind].admit(inst)
    n = universe_size(inst)
    if mask >> n:
        raise DomainError(f"candidate outside the universe of {n} elements")
    return inst.verify(mask)


_CACHES = []


def cached(fn):
    """``fn`` behind an LRU cache of 4096 entries, which ``clear_caches``
    empties."""
    memo = functools.lru_cache(maxsize=4096)(fn)
    _CACHES.append(memo)
    return memo


@cached
def _solutions_cached(kind: ProblemKind, inst, bounds: Bounds) -> tuple[int, ...]:
    spec = KIND_SPECS[kind]
    spec.admit(inst, bounds)
    return tuple(spec.run(inst, bounds.max_solutions))


def enumerate_solutions(kind: ProblemKind, inst, bounds: Bounds = DEFAULT_BOUNDS):
    return list(_solutions_cached(kind, inst, bounds))


def enumerate_feasible(kind: ProblemKind, inst, bounds: Bounds = DEFAULT_BOUNDS):
    """F(I): the kind's search at the sum of the positive costs, which every
    set meets, behind the guard of S(I)."""
    spec = KIND_SPECS[kind]
    if spec.search is None:
        raise UnsupportedKindError(f"{kind.value} has no feasible-set structure")
    spec.admit(inst, bounds)
    return list(spec.search(inst, _top(spec.cost(inst)[0]), bounds.max_solutions))


def feasible_keys(
    kind: ProblemKind, inst, costs: tuple[int, ...], bounds: Bounds = DEFAULT_BOUNDS
) -> Iterator[tuple[int | float, list[int]]] | None:
    """F(I) as the keys c(S) << n | S, n = len(costs), in increasing order,
    read window by window of budgets from the kind's own search; None
    unless ``costs`` are the kind's own, ``lop_cost(kind, inst)[0]``.

    The first window is the search at the threshold t; each later one
    starts past the last, at width 1, and is four times as wide as the one
    before, up to the sum of the positive costs.  A window is yielded as
    (floor, keys): the sorted keys of the sets its search lists that no
    earlier window yielded, and the least cost any unread key can have.
    The stream answers to the guard of S(I) at the call, and to the
    solution cap on each search it runs."""
    spec = KIND_SPECS[kind]
    d, t = lop_cost(kind, inst)
    if costs != d:
        return None
    spec.admit(inst, bounds)
    return _windows(spec.search, inst, d, t, bounds.max_solutions)


def _top(costs) -> int:
    """The sum of the positive costs: a budget every set meets."""
    return sum(max(c, 0) for c in costs)


def _windows(search, inst, costs, budget, cap):
    n, top = len(costs), _top(costs)
    seen = set()
    width = 1
    while True:
        fresh = [m for m in search(inst, budget, cap) if m not in seen]
        seen.update(fresh)
        floor = budget + 1 if budget < top else math.inf
        yield floor, sorted(numbers._masked_sum(costs, m) << n | m for m in fresh)
        if budget >= top:
            return
        budget, width = budget + width, 4 * width


def lop_cost(kind: ProblemKind, inst) -> tuple[tuple[int, ...], int]:
    """Element costs d and threshold t with S(I) = {F in F(I) : d(F) <= t}."""
    cost = KIND_SPECS[kind].cost
    if cost is None:
        raise UnsupportedKindError(f"{kind.value} has no cost structure")
    return cost(inst)


def clear_caches():
    for memo in _CACHES:
        memo.cache_clear()
