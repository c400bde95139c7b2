import dataclasses
import random

import pytest

from sspforge.core import DistanceMeasure, PreconditionError, mask_of
from sspforge.gen import random_lb, random_source_for_edge
from sspforge.problems import (
    KIND_SPECS,
    CnfInstance,
    DirectedHamPathInstance,
    IndependentSetInstance,
    ProblemKind,
    SubsetSumInstance,
    VertexCoverInstance,
    enumerate_solutions,
)
from sspforge.reductions import (
    ALL_EDGES,
    BLOWUP_EDGES,
    PRESERVING_EDGES,
    build_blowup,
    build_preserving,
    check_preserving,
    edge_kinds,
)

K3 = VertexCoverInstance(3, ((0, 1), (0, 2), (1, 2)), 2)


def test_subsetsum_partition_gadget():
    src = SubsetSumInstance((1, 2, 3), 3)
    art = build_preserving("subsetsum-partition", src)
    # two added numbers collide in value but are distinct elements
    assert art.target.values == (1, 2, 3, 4, 4)
    assert art.u_on == mask_of([3])  # sum + 1 - target
    assert art.u_off == mask_of([4])  # target + 1
    assert check_preserving(art).passed


def test_dhp_dhc_closing_arc():
    src = DirectedHamPathInstance(3, ((0, 1), (1, 2)), 0, 2)
    art = build_preserving("dhampath-dhamcycle", src)
    assert art.target.arcs[-1] == (2, 0)
    assert art.u_on == mask_of([2])
    assert art.u_off == 0
    assert check_preserving(art).passed


def test_is_clique_complement():
    src = IndependentSetInstance(3, ((0, 1), (1, 2)), 2)  # path P3
    art = build_preserving("is-clique", src)
    assert art.target.edges == ((0, 2),)
    assert art.target.k == 2
    assert art.u_on == 0 and art.u_off == 0
    assert check_preserving(art).passed


def test_vc_ds_midpoints_off():
    art = build_preserving("vc-ds", K3)
    assert art.u_off.bit_count() == 3 * 4  # |E| * (|V|+1) midpoints
    assert check_preserving(art).passed


def test_vc_ds_tampered_partition_fails():
    art = build_preserving("vc-ds", K3)
    first_mid = art.u_off & -art.u_off
    tampered = dataclasses.replace(
        art, u_on=art.u_on | first_mid, u_off=art.u_off & ~first_mid
    )
    verdict = check_preserving(tampered)
    assert not verdict.passed
    assert "always-on" in verdict.reason


def test_vc_ds_needs_connected_source():
    disconnected = VertexCoverInstance(4, ((0, 1), (2, 3)), 2)
    with pytest.raises(PreconditionError):
        build_preserving("vc-ds", disconnected)


def test_vc_ds_threshold_slack_breaks_partition():
    """With k above the optimal cover size the spare budget lets solutions
    pick up midpoint vertices, so the always-off property only holds on
    threshold-tight sources."""
    slack = VertexCoverInstance(2, ((0, 1),), 2)  # optimum is 1
    art = build_preserving("vc-ds", slack)
    verdict = check_preserving(art)
    assert not verdict.passed
    assert "always-off" in verdict.reason


def test_kddp_requires_k_at_least_2():
    src = random_source_for_edge("2ddp-kddp", random.Random(1))
    with pytest.raises(PreconditionError):
        build_preserving("2ddp-kddp", src, {"k": 1})
    art = build_preserving("2ddp-kddp", src, {"k": 4})
    assert len(art.target.pairs) == 4
    assert art.u_on.bit_count() == 2
    assert check_preserving(art).passed


def test_uhc_tsp_universe_is_complete_graph():
    from sspforge.problems import UndirectedHamCycleInstance

    src = UndirectedHamCycleInstance(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    art = build_preserving("uhamcycle-tsp", src)
    assert len(art.target.weights) == 6
    assert art.u_off.bit_count() == 2  # the two chords
    assert art.target.k == 0
    assert check_preserving(art).passed


@pytest.mark.parametrize("edge", PRESERVING_EDGES)
def test_preserving_edges_random_sources(edge):
    for i in range(10):
        rng = random.Random(repr((edge, i, "unit")))
        src = random_source_for_edge(edge, rng)
        params = {"k": rng.randint(2, 4)} if edge == "2ddp-kddp" else None
        art = build_preserving(edge, src, params)
        verdict = check_preserving(art)
        assert verdict.passed, (edge, i, verdict.reason)
        # solution-count bijection comes with the verdict
        src_sols = enumerate_solutions(art.source_kind, art.source)
        tgt_sols = enumerate_solutions(art.target_kind, art.target)
        assert len(src_sols) == len(tgt_sols)


# every edge, in the order the fuzz report lists them, with its source and
# target kinds written out by hand
EDGE_KINDS = {
    "sat-3sat": (ProblemKind.SAT, ProblemKind.THREE_SAT),
    "3sat-vc": (ProblemKind.THREE_SAT, ProblemKind.VERTEX_COVER),
    "3sat-is": (ProblemKind.THREE_SAT, ProblemKind.INDEPENDENT_SET),
    "3sat-subsetsum": (ProblemKind.THREE_SAT, ProblemKind.SUBSET_SUM),
    "3sat-dhampath": (ProblemKind.THREE_SAT, ProblemKind.DHAM_PATH),
    "3sat-2ddp": (ProblemKind.THREE_SAT, ProblemKind.TWO_DDP),
    "3sat-steinertree": (ProblemKind.THREE_SAT, ProblemKind.STEINER_TREE),
    "vc-ds": (ProblemKind.VERTEX_COVER, ProblemKind.DOMINATING_SET),
    "vc-sc": (ProblemKind.VERTEX_COVER, ProblemKind.SET_COVER),
    "vc-hs": (ProblemKind.VERTEX_COVER, ProblemKind.HITTING_SET),
    "vc-fvs": (ProblemKind.VERTEX_COVER, ProblemKind.FEEDBACK_VERTEX_SET),
    "vc-fas": (ProblemKind.VERTEX_COVER, ProblemKind.FEEDBACK_ARC_SET),
    "vc-ufl": (ProblemKind.VERTEX_COVER, ProblemKind.UFL),
    "vc-pcenter": (ProblemKind.VERTEX_COVER, ProblemKind.P_CENTER),
    "vc-pmedian": (ProblemKind.VERTEX_COVER, ProblemKind.P_MEDIAN),
    "is-clique": (ProblemKind.INDEPENDENT_SET, ProblemKind.CLIQUE),
    "subsetsum-knapsack": (ProblemKind.SUBSET_SUM, ProblemKind.KNAPSACK),
    "subsetsum-partition": (ProblemKind.SUBSET_SUM, ProblemKind.PARTITION),
    "partition-scheduling": (ProblemKind.PARTITION, ProblemKind.SCHEDULING),
    "dhampath-dhamcycle": (ProblemKind.DHAM_PATH, ProblemKind.DHAM_CYCLE),
    "dhamcycle-uhamcycle": (ProblemKind.DHAM_CYCLE, ProblemKind.UHAM_CYCLE),
    "uhamcycle-tsp": (ProblemKind.UHAM_CYCLE, ProblemKind.TSP),
    "2ddp-kddp": (ProblemKind.TWO_DDP, ProblemKind.K_DDP),
}


@pytest.mark.parametrize("edge", EDGE_KINDS)
def test_edge_name_gives_the_artifact_kinds(edge):
    want = EDGE_KINDS[edge]
    assert edge_kinds(edge) == want
    for i in range(5):
        rng = random.Random(repr((edge, i, "kinds")))
        src = random_source_for_edge(edge, rng)
        if edge in BLOWUP_EDGES:
            measure = rng.choice(list(DistanceMeasure))
            art = build_blowup(edge, src, random_lb(rng, src), measure)
        else:
            art = build_preserving(edge, src)
        assert (art.source_kind, art.target_kind) == want
        assert isinstance(art.source, KIND_SPECS[want[0]].cls)
        assert isinstance(art.target, KIND_SPECS[want[1]].cls)


def test_edge_order_is_the_listed_one():
    assert ALL_EDGES == tuple(EDGE_KINDS)


def test_builders_refuse_an_edge_of_the_other_family():
    cnf = CnfInstance(3, ((0, 1, 2),))
    with pytest.raises(PreconditionError, match="^unknown blow-up edge vc-ds$"):
        build_blowup("vc-ds", K3, 0, DistanceMeasure.HAMMING)
    with pytest.raises(PreconditionError, match="^unknown preserving edge 3sat-vc$"):
        build_preserving("3sat-vc", cnf)
