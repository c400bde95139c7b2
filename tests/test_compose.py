import random

import pytest

from sspforge.core import (
    MEASURES,
    Bounds,
    CapacityError,
    CompositionError,
    DistanceMeasure,
    mask_of,
)
from sspforge.gen import random_lb, random_source_for_edge
from sspforge.problems import CnfInstance, SubsetSumInstance, universe_size
from sspforge.reductions import (
    BLOWUP,
    PRESERVING,
    build_blowup,
    build_preserving,
    check_blowup,
    check_preserving,
    check_ssp,
    compose,
)

HAM = DistanceMeasure.HAMMING
PHI = CnfInstance(2, ((0, 1, 3),))


def test_compose_preserving_over_blowup_keeps_beta():
    inner = build_blowup("3sat-vc", PHI, mask_of([0, 2]), HAM)
    outer = build_preserving("vc-ds", inner.target)
    chained = compose(outer, inner)
    assert chained.kind == BLOWUP
    assert chained.beta == inner.beta
    assert chained.edge == "3sat-vc,vc-ds"
    assert check_ssp(chained).passed
    assert check_blowup(chained, HAM).passed


def test_compose_kind_mismatch():
    ss = SubsetSumInstance((1, 2, 3), 3)
    part = build_preserving("subsetsum-partition", ss)
    sched = build_preserving("partition-scheduling", part.target)
    with pytest.raises(CompositionError):
        compose(part, sched)  # wrong order


def test_compose_requires_matching_instances():
    ss1 = SubsetSumInstance((1, 2, 3), 3)
    ss2 = SubsetSumInstance((1, 2, 4), 3)
    inner = build_preserving("subsetsum-partition", ss1)
    outer = build_preserving(
        "partition-scheduling", build_preserving("subsetsum-partition", ss2).target
    )
    with pytest.raises(CompositionError):
        compose(outer, inner)


def test_compose_preserving_chain_merges_partition():
    ss = SubsetSumInstance((1, 2, 3), 3)
    inner = build_preserving("subsetsum-partition", ss)
    outer = build_preserving("partition-scheduling", inner.target)
    chained = compose(outer, inner)
    assert chained.kind == PRESERVING
    # the on element is the pushed-forward sum+1-target number
    assert chained.u_on == 1 << outer.f[3]
    assert chained.u_off == 1 << outer.f[4]
    assert check_preserving(chained).passed


def test_blowup_compose_blowup_rejected():
    sat = CnfInstance(2, ((0, 1), (2, 3, 1)))
    inner = build_blowup("sat-3sat", sat, 0, HAM)
    outer = build_blowup("3sat-vc", inner.target, 0, HAM)
    with pytest.raises(CompositionError):
        compose(outer, inner)


# the bench bounds; the chain targets below hold 5-80 elements, and their
# solution families answered to the powerset bound of 24 before they
# answered to the elements their search walks
CHAIN_BOUNDS = Bounds(max_universe=24, max_solutions=1 << 20, max_vertices=16384)
# feedback vertex sets of the 51-80-vertex chain targets take 1-10 s each
FVS_MAX_VERTICES = 48


def chain_from_3sat(i, chain, blowup="3sat-vc"):
    """``blowup`` on its i-th acceptance source, composed with each edge of
    the comma-separated ``chain`` in turn."""
    rng = random.Random(repr(("acceptance", blowup, i)))
    src = random_source_for_edge(blowup, rng)
    chained = build_blowup(blowup, src, random_lb(rng, src), HAM)
    for edge in chain.split(","):
        chained = compose(build_preserving(edge, chained.target), chained)
    return chained


@pytest.mark.parametrize(
    "edge, checked", [("vc-sc", 20), ("vc-hs", 20), ("vc-pcenter", 20), ("vc-fvs", 14)]
)
def test_chains_from_3sat_check_past_the_powerset_bound(edge, checked):
    sizes = []
    for i in range(20):
        chained = chain_from_3sat(i, edge)
        size = universe_size(chained.target)
        if edge == "vc-fvs" and size > FVS_MAX_VERTICES:
            continue
        assert check_ssp(chained, CHAIN_BOUNDS).passed, (edge, i)
        for measure in MEASURES:
            assert check_blowup(chained, measure, CHAIN_BOUNDS).passed, (edge, i)
        sizes.append(size)
    assert len(sizes) == checked
    assert max(sizes) > CHAIN_BOUNDS.max_universe


# (blow-up edge, chain): the uhamcycle and tsp targets of the route chains
# hold 36-282 vertices, the partition and scheduling targets of the number
# chains 10-46 values; every source must check, and none may stop at a
# capacity guard
ROUTE_AND_NUMBER_CHAINS = (
    ("3sat-dhampath", "dhampath-dhamcycle,dhamcycle-uhamcycle"),
    ("3sat-dhampath", "dhampath-dhamcycle,dhamcycle-uhamcycle,uhamcycle-tsp"),
    ("3sat-subsetsum", "subsetsum-partition"),
    ("3sat-subsetsum", "subsetsum-partition,partition-scheduling"),
)


@pytest.mark.parametrize(
    "blowup, chain",
    ROUTE_AND_NUMBER_CHAINS,
    ids=[chain for _, chain in ROUTE_AND_NUMBER_CHAINS],
)
def test_route_chains_from_3sat_check_on_every_source(blowup, chain):
    outcomes = {"pass": 0, "capacity": 0}
    for i in range(20):
        chained = chain_from_3sat(i, chain, blowup)
        try:
            assert check_ssp(chained, CHAIN_BOUNDS).passed, (chain, i)
            for measure in MEASURES:
                assert check_blowup(chained, measure, CHAIN_BOUNDS).passed, (chain, i)
        except CapacityError:
            outcomes["capacity"] += 1
        else:
            outcomes["pass"] += 1
    assert outcomes == {"pass": 20, "capacity": 0}
