"""Blow-up preserving reductions.

Every builder returns what it builds: the target, f (the target index of
each source element) and the split of the extra target elements into a
mask of always-selected elements (u_on) and never-selected elements
(u_off); the embedded source universe makes up the rest.
``build_preserving`` wraps them in the artifact, whose kinds are the
halves of the edge's name.
"""

from __future__ import annotations

import functools
from typing import Any, Iterable, NamedTuple

from ..core import PreconditionError, mask_of
from ..problems import (
    KIND_SPECS,
    CliqueInstance,
    DisjointPathsInstance,
    DirectedHamCycleInstance,
    DirectedHamPathInstance,
    DominatingSetInstance,
    FacilityLocationInstance,
    FeedbackArcSetInstance,
    FeedbackVertexSetInstance,
    HittingSetInstance,
    IndependentSetInstance,
    KnapsackInstance,
    PartitionInstance,
    ProblemKind,
    SchedulingInstance,
    SetCoverInstance,
    SubsetSumInstance,
    TspInstance,
    UndirectedHamCycleInstance,
    VertexCoverInstance,
    connected_undirected,
)
from ..problems.graphs import complement_edges, complete_edges
from .artifact import PRESERVING, ReductionArtifact, source_kinds


class _Built(NamedTuple):
    target: Any
    f: Iterable[int]
    u_on: int = 0
    u_off: int = 0


def _vc_ds(src: VertexCoverInstance):
    if not connected_undirected(src.n, src.edges):
        raise PreconditionError("dominating-set reduction needs a connected graph")
    n = src.n
    copies = n + 1
    edges = list(src.edges)
    mids = []
    nxt = n
    for u, v in src.edges:
        for _ in range(copies):
            edges.append((u, nxt))
            edges.append((v, nxt))
            mids.append(nxt)
            nxt += 1
    tgt = DominatingSetInstance(nxt, tuple(edges), src.k)
    return _Built(tgt, range(n), u_off=mask_of(mids))


def _vc_sc(src: VertexCoverInstance):
    subsets = []
    for v in range(src.n):
        subsets.append(tuple(i for i, e in enumerate(src.edges) if v in e))
    tgt = SetCoverInstance(len(src.edges), tuple(subsets), src.k)
    return _Built(tgt, range(src.n))


def _vc_hs(src: VertexCoverInstance):
    tgt = HittingSetInstance(src.n, tuple(tuple(e) for e in src.edges), src.k)
    return _Built(tgt, range(src.n))


def _vc_fvs(src: VertexCoverInstance):
    arcs = []
    for u, v in src.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    tgt = FeedbackVertexSetInstance(src.n, tuple(arcs), src.k)
    return _Built(tgt, range(src.n))


def _vc_fas(src: VertexCoverInstance):
    n = src.n
    copies = n + 1
    arcs = [(2 * v, 2 * v + 1) for v in range(n)]  # f-arcs first
    nxt = 2 * n
    extra = []
    for u, v in src.edges:
        for tail, head in ((u, v), (v, u)):
            for _ in range(copies):
                mid = nxt
                nxt += 1
                extra.append((2 * tail + 1, mid))
                extra.append((mid, 2 * head))
    all_arcs = arcs + extra
    tgt = FeedbackArcSetInstance(nxt, tuple(all_arcs), src.k)
    return _Built(tgt, range(n), u_off=mask_of(range(n, len(all_arcs))))


def _vc_facility(src: VertexCoverInstance, kind: ProblemKind):
    n, m = src.n, len(src.edges)
    service = tuple(
        tuple(0 if v in e else n + 1 for e in src.edges) for v in range(n)
    )
    if kind is ProblemKind.UFL:
        tgt = FacilityLocationInstance(n, m, (1,) * n, service, src.k)
    else:
        # p-center and p-median: p = k facilities, threshold 0
        tgt = KIND_SPECS[kind].cls(n, m, service, src.k, 0)
    return _Built(tgt, range(n))


def _is_clique(src: IndependentSetInstance):
    tgt = CliqueInstance(src.n, complement_edges(src.n, src.edges), src.k)
    return _Built(tgt, range(src.n))


def _ss_knapsack(src: SubsetSumInstance):
    items = tuple((a, a) for a in src.values)
    tgt = KnapsackInstance(items, src.target, src.target)
    return _Built(tgt, range(len(src.values)))


def _ss_partition(src: SubsetSumInstance):
    total = sum(src.values)
    if src.target > total:
        raise PreconditionError("subset-sum target exceeds the total")
    n = len(src.values)
    on_value = total + 1 - src.target
    off_value = src.target + 1
    tgt = PartitionInstance(tuple(src.values) + (on_value, off_value))
    return _Built(tgt, range(n), u_on=1 << n, u_off=1 << (n + 1))


def _partition_scheduling(src: PartitionInstance):
    total = sum(src.values)
    tgt = SchedulingInstance(tuple(src.values), total // 2)
    return _Built(tgt, range(len(src.values)))


def _dhp_dhc(src: DirectedHamPathInstance):
    if (src.t, src.s) in src.arcs:
        raise PreconditionError("closing arc already present")
    if any(u == src.t for u, _ in src.arcs) or any(v == src.s for _, v in src.arcs):
        raise PreconditionError(
            "cycle reduction needs t without out-arcs and s without in-arcs"
        )
    arcs = tuple(src.arcs) + ((src.t, src.s),)
    tgt = DirectedHamCycleInstance(src.n, arcs)
    return _Built(tgt, range(len(src.arcs)), u_on=1 << len(src.arcs))


def _dhc_uhc(src: DirectedHamCycleInstance):
    n = src.n
    edges = []
    for u, v in src.arcs:  # f-edges first
        edges.append((3 * u + 2, 3 * v))
    on = []
    for v in range(n):
        on.append(len(edges))
        edges.append((3 * v, 3 * v + 1))
        on.append(len(edges))
        edges.append((3 * v + 1, 3 * v + 2))
    tgt = UndirectedHamCycleInstance(3 * n, tuple(edges))
    return _Built(tgt, range(len(src.arcs)), u_on=mask_of(on))


def _uhc_tsp(src: UndirectedHamCycleInstance):
    # the missing edges cost 1, so a tour of weight 0 is a cycle of src
    idx = {e: i for i, e in enumerate(complete_edges(src.n))}
    f = [idx[(u, v) if u < v else (v, u)] for u, v in src.edges]
    off = mask_of(idx[e] for e in complement_edges(src.n, src.edges))
    tgt = TspInstance(src.n, tuple(off >> i & 1 for i in range(len(idx))), 0)
    return _Built(tgt, f, u_off=off)


def _ddp_kddp(src: DisjointPathsInstance, k: int = 3):
    if k < 2:
        raise PreconditionError("k-disjoint-path needs k >= 2")
    if len(src.pairs) != 2:
        raise PreconditionError("source must be a two-disjoint-path instance")
    n = src.n
    arcs = list(src.arcs)
    pairs = list(src.pairs)
    on = []
    nxt = n
    for _ in range(3, k + 1):
        s_i, t_i = nxt, nxt + 1
        nxt += 2
        on.append(len(arcs))
        arcs.append((s_i, t_i))
        pairs.append((s_i, t_i))
    tgt = DisjointPathsInstance(nxt, tuple(arcs), tuple(pairs))
    return _Built(tgt, range(len(src.arcs)), u_on=mask_of(on))


_BUILDERS = {
    "vc-ds": _vc_ds,
    "vc-sc": _vc_sc,
    "vc-hs": _vc_hs,
    "vc-fvs": _vc_fvs,
    "vc-fas": _vc_fas,
    "vc-ufl": functools.partial(_vc_facility, kind=ProblemKind.UFL),
    "vc-pcenter": functools.partial(_vc_facility, kind=ProblemKind.P_CENTER),
    "vc-pmedian": functools.partial(_vc_facility, kind=ProblemKind.P_MEDIAN),
    "is-clique": _is_clique,
    "subsetsum-knapsack": _ss_knapsack,
    "subsetsum-partition": _ss_partition,
    "partition-scheduling": _partition_scheduling,
    "dhampath-dhamcycle": _dhp_dhc,
    "dhamcycle-uhamcycle": _dhc_uhc,
    "uhamcycle-tsp": _uhc_tsp,
    "2ddp-kddp": _ddp_kddp,
}
PRESERVING_EDGES = tuple(_BUILDERS)


def build_preserving(edge: str, source, params: dict | None = None):
    """The artifact of ``edge`` on ``source``; ``params`` are keyword
    arguments of the edge's builder (2ddp-kddp takes ``k``, default 3)."""
    try:
        build = _BUILDERS[edge]
    except KeyError:
        raise PreconditionError(f"unknown preserving edge {edge}") from None
    source_kind, target_kind = source_kinds(edge, source)
    target, f, u_on, u_off = build(source, **(params or {}))
    return ReductionArtifact(
        edge=edge,
        kind=PRESERVING,
        source_kind=source_kind,
        source=source,
        target_kind=target_kind,
        target=target,
        f=tuple(f),
        u_on=u_on,
        u_off=u_off,
    )
