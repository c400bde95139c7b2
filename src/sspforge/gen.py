"""Seeded random instance generators for fuzzing and the acceptance
corpus.

Threshold conventions: sources for the dominating-set and feedback-arc-set
reductions use the optimal cover size as threshold, and cycle-reduction
sources keep s source-only and t sink-only.  Those are the regimes the
reductions are stated for; see the package README.
"""

from __future__ import annotations

import random

from .core import MEASURES, mask_of
from .problems import (
    KIND_SPECS,
    CnfInstance,
    DirectedHamPathInstance,
    DirectedHamCycleInstance,
    DisjointPathsInstance,
    IndependentSetInstance,
    PartitionInstance,
    ProblemKind,
    SubsetSumInstance,
    TspInstance,
    UndirectedHamCycleInstance,
    VertexCoverInstance,
    connected_undirected,
    enumerate_solutions,
    universe_size,
)
from .reductions import build_preserving
from .rr import CombRrInstance, RAdjSatInstance


def random_cnf(rng: random.Random, max_vars=4, max_clauses=4, widths=(3,)) -> CnfInstance:
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        w = rng.choice(widths)
        clauses.append(tuple(rng.randrange(2 * n) for _ in range(w)))
    return CnfInstance(n, tuple(clauses))


def random_lb(rng: random.Random, cnf: CnfInstance) -> int:
    n = cnf.n_vars
    mask = 0
    for i in range(n):
        if rng.random() < 0.4:
            mask |= (1 << i) | (1 << (n + i))
    return mask


def random_graph(rng: random.Random, max_n=6, p=0.5, connected=False):
    while True:
        n = rng.randint(2, max_n)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        if not edges:
            continue
        if connected and not connected_undirected(n, edges):
            continue
        return n, tuple(edges)


def _at_optimum(kind, n, structure) -> int:
    """The least k at which the kind's instance (n, structure, k) has a
    solution: VC, DS and HS all have one at k = n."""
    cls = KIND_SPECS[kind].cls
    return next(
        k for k in range(n + 1) if enumerate_solutions(kind, cls(n, structure, k))
    )


def _near_optimum(rng, kind, n, structure):
    """The kind's instance (n, structure, k) at the optimal k, or at one
    below it in one draw in five."""
    k = _at_optimum(kind, n, structure)
    k = k if rng.random() < 0.8 else max(0, k - 1)
    return KIND_SPECS[kind].cls(n, structure, k)


def random_vc(rng, max_n=6, tight=False, connected=False) -> VertexCoverInstance:
    n, edges = random_graph(rng, max_n=max_n, connected=connected)
    if tight:
        k = _at_optimum(ProblemKind.VERTEX_COVER, n, edges)
    else:
        k = rng.randint(0, n)
    return VertexCoverInstance(n, edges, k)


def random_is(rng, max_n=6) -> IndependentSetInstance:
    n, edges = random_graph(rng, max_n=max_n)
    return IndependentSetInstance(n, edges, rng.randint(0, n))


def random_subsetsum(rng, max_n=6, max_value=9) -> SubsetSumInstance:
    n = rng.randint(1, max_n)
    values = tuple(rng.randint(1, max_value) for _ in range(n))
    if rng.random() < 0.7:
        # bias toward attainable targets
        target = sum(v for v in values if rng.random() < 0.5) or values[0]
    else:
        target = rng.randint(1, sum(values))
    return SubsetSumInstance(values, target)


def random_partition(rng, max_n=6, max_value=8) -> PartitionInstance:
    n = rng.randint(2, max_n)
    values = [rng.randint(1, max_value) for _ in range(n - 1)]
    if rng.random() < 0.7:
        side = sum(v for i, v in enumerate(values) if i % 2 == 0)
        rest = sum(values) - side
        filler = abs(side - rest)
        values.append(filler if filler > 0 else rng.randint(1, max_value))
    else:
        values.append(rng.randint(1, max_value))
    return PartitionInstance(tuple(values))


def random_dhp(rng, max_n=5, p=0.5) -> DirectedHamPathInstance:
    n = rng.randint(2, max_n)
    s, t = 0, n - 1
    arcs = []
    for u in range(n):
        for v in range(n):
            if u == v or u == t or v == s:
                continue  # keep t a sink and s a source
            if rng.random() < p:
                arcs.append((u, v))
    if not arcs:
        arcs = [(s, t)]
    return DirectedHamPathInstance(n, tuple(arcs), s, t)


def random_dhc(rng, max_n=5, p=0.5) -> DirectedHamCycleInstance:
    n = rng.randint(2, max_n)
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    if not arcs:
        arcs = [(0, 1), (1, 0)]
    return DirectedHamCycleInstance(n, tuple(arcs))


def random_uhc(rng, max_n=6, p=0.6) -> UndirectedHamCycleInstance:
    n = rng.randint(3, max_n)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    if not edges:
        edges = [(0, 1)]
    return UndirectedHamCycleInstance(n, tuple(edges))


def random_2ddp(rng, max_extra=4, p=0.4) -> DisjointPathsInstance:
    extra = rng.randint(2, max_extra)
    n = 4 + extra
    arcs = set()
    arcs.add((0, 4))
    arcs.add((2, 4 + extra - 1))
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if v in (0, 2) or u in (1, 3):
                continue  # sources stay sources, sinks stay sinks
            if rng.random() < p:
                arcs.add((u, v))
    return DisjointPathsInstance(n, tuple(sorted(arcs)), ((0, 1), (2, 3)))


def random_source_for_edge(edge: str, rng: random.Random):
    """A random valid source instance for a reduction edge."""
    if edge == "sat-3sat":
        # at most one wide clause: each one adds helper variables, and the
        # Hamming gadget multiplies them into the target variable count
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        clauses = []
        wide_at = rng.randrange(m) if rng.random() < 0.6 else -1
        for j in range(m):
            w = 4 if j == wide_at else rng.choice((1, 2, 3))
            clauses.append(tuple(rng.randrange(2 * n) for _ in range(w)))
        return CnfInstance(n, tuple(clauses))
    if edge in ("3sat-vc", "3sat-is", "3sat-subsetsum"):
        return random_cnf(rng, max_vars=4, max_clauses=4)
    if edge == "3sat-dhampath":
        return random_cnf(rng, max_vars=3, max_clauses=2)
    if edge == "3sat-2ddp":
        return random_cnf(rng, max_vars=2, max_clauses=1)
    if edge == "3sat-steinertree":
        return random_cnf(rng, max_vars=2, max_clauses=2)
    if edge in ("vc-sc", "vc-hs", "vc-fvs", "vc-ufl", "vc-pcenter", "vc-pmedian"):
        return random_vc(rng, max_n=6)
    if edge == "vc-ds":
        return random_vc(rng, max_n=6, tight=True, connected=True)
    if edge == "vc-fas":
        return random_vc(rng, max_n=4, tight=True)
    if edge == "is-clique":
        return random_is(rng, max_n=6)
    if edge in ("subsetsum-knapsack", "subsetsum-partition"):
        return random_subsetsum(rng, max_n=6)
    if edge == "partition-scheduling":
        return random_partition(rng, max_n=6)
    if edge == "dhampath-dhamcycle":
        return random_dhp(rng, max_n=5)
    if edge == "dhamcycle-uhamcycle":
        return random_dhc(rng, max_n=5)
    if edge == "uhamcycle-tsp":
        return random_uhc(rng, max_n=6)
    if edge == "2ddp-kddp":
        return random_2ddp(rng)
    raise ValueError(f"unknown edge {edge}")


def random_radjsat(rng, max_part=2, max_clauses=3, max_gamma=2):
    p = rng.randint(1, max_part)
    n = 3 * p
    m = rng.randint(1, max_clauses)
    clauses = tuple(
        tuple(rng.randrange(2 * n) for _ in range(3)) for _ in range(m)
    )
    cnf = CnfInstance(n, clauses)
    variables = list(range(n))
    rng.shuffle(variables)
    x, y, z = variables[:p], variables[p : 2 * p], variables[2 * p :]
    gamma = rng.randint(0, max_gamma)
    return RAdjSatInstance(cnf, tuple(x), tuple(y), tuple(z), gamma)


def _hitting_sets(rng, max_n):
    n = rng.randint(2, max_n)
    subsets = tuple(
        tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
        for _ in range(rng.randint(1, 4))
    )
    return n, subsets


def _optimal_tsp(rng, max_n):
    n = rng.randint(3, 5)
    weights = tuple(rng.randint(0, 3) for _ in range(n * (n - 1) // 2))
    loose = TspInstance(n, weights, sum(weights))
    best = min(map(loose.weight, enumerate_solutions(ProblemKind.TSP, loose)))
    return TspInstance(n, weights, best)


# the nominal kinds of random_comb_rr, in the order it chooses from, each
# with its draw from (rng, max_n)
_COMB_RR_DRAWS = {
    ProblemKind.VERTEX_COVER: lambda rng, m: _near_optimum(
        rng, ProblemKind.VERTEX_COVER, *random_graph(rng, max_n=m)
    ),
    ProblemKind.DOMINATING_SET: lambda rng, m: _near_optimum(
        rng, ProblemKind.DOMINATING_SET, *random_graph(rng, max_n=m)
    ),
    ProblemKind.HITTING_SET: lambda rng, m: _near_optimum(
        rng, ProblemKind.HITTING_SET, *_hitting_sets(rng, m)
    ),
    ProblemKind.SUBSET_SUM: lambda rng, m: random_subsetsum(rng, max_n=m),
    ProblemKind.PARTITION: lambda rng, m: random_partition(rng, max_n=m),
    ProblemKind.SCHEDULING: lambda rng, m: build_preserving(
        "partition-scheduling", random_partition(rng, max_n=m)
    ).target,
    ProblemKind.TSP: _optimal_tsp,
    ProblemKind.DHAM_PATH: lambda rng, m: random_dhp(rng, max_n=4),
}


def random_comb_rr(rng):
    """Random combinatorial-RR instance over an LOP nominal kind.

    Thresholds are set to the nominal optimum (the regime in which the
    cost simulation of blockable elements is exact; see README)."""
    kind = rng.choice(list(_COMB_RR_DRAWS))
    inst = _COMB_RR_DRAWS[kind](rng, 6)
    blockable = mask_of(
        i for i in range(universe_size(inst)) if rng.random() < 0.3
    )
    return CombRrInstance(
        kind=kind,
        instance=inst,
        blockable=blockable,
        gamma=rng.randint(0, 2),
        kappa=rng.randint(0, 4),
        measure=rng.choice(MEASURES),
    )
