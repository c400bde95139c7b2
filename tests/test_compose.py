import random

import pytest

from sspforge.core import (
    MEASURES,
    Bounds,
    CompositionError,
    DistanceMeasure,
    PreconditionError,
    UnsupportedKindError,
    mask_of,
)
from sspforge.gen import random_lb, random_radjsat, random_source_for_edge
from sspforge.problems import (
    CnfInstance,
    DominatingSetInstance,
    SubsetSumInstance,
    universe_size,
)
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
from sspforge.rr import (
    comb_to_cost_rr,
    eval_comb_rr,
    eval_cost_rr,
    radjsat_to_comb_rr,
    solve_radjsat,
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


def test_builders_refuse_a_source_of_another_kind():
    ds = DominatingSetInstance(3, ((0, 1), (1, 2)), 1)
    game = random_radjsat(random.Random(1), max_part=1, max_clauses=2, max_gamma=1)
    builds = (
        ("vc-hs expects a vc source, got DominatingSetInstance",
         lambda: build_preserving("vc-hs", ds)),
        ("subsetsum-partition expects a subsetsum source, got DominatingSetInstance",
         lambda: build_preserving("subsetsum-partition", ds)),
        ("vc-ds expects a vc source, got SubsetSumInstance",
         lambda: build_preserving("vc-ds", SubsetSumInstance((1, 2), 3))),
        ("3sat-vc expects a 3sat source, got DominatingSetInstance",
         lambda: build_blowup("3sat-vc", ds, 0, HAM)),
        ("subsetsum-partition expects a subsetsum source, got VertexCoverInstance",
         lambda: radjsat_to_comb_rr(
             game, "3sat-vc,subsetsum-partition", DistanceMeasure.KAPPA_ADDITION
         )),
    )
    for message, build in builds:
        with pytest.raises(CompositionError, match=f"^edge {message}$"):
            build()


# the bench bounds; the chain targets below hold 5-39,621 elements, and
# their families answer to the elements their search walks, not to the
# powerset bound of 24
CHAIN_BOUNDS = Bounds(max_universe=24, max_solutions=1 << 20, max_vertices=16384)
# feedback vertex sets of the 51-80-vertex chain targets take 1-10 s each
FVS_MAX_VERTICES = 48
GAMES = 8


def chain_from_3sat(i, chain):
    """The blow-up edge that starts the comma-separated ``chain``, on its
    i-th acceptance source, composed with each later edge in turn."""
    blowup, *rest = chain.split(",")
    rng = random.Random(repr(("acceptance", blowup, i)))
    src = random_source_for_edge(blowup, rng)
    chained = build_blowup(blowup, src, random_lb(rng, src), HAM)
    for edge in rest:
        chained = compose(build_preserving(edge, chained.target), chained)
    return chained


# every chain from 3SAT: each blow-up edge but sat-3sat, then each path of
# preserving edges out of its target kind.  Per chain: the sources of the
# first 20 that pass check_ssp and check_blowup under every measure; the
# comb-RR answers, of GAMES games under every measure, equal to the game's;
# and the cost-RR answers equal to it, or "refused" where comb_to_cost_rr
# refuses the kind (p-center has no costs; IS and clique have negative
# ones).  vc-fvs checks only its sources of at most FVS_MAX_VERTICES.  Left
# out: vc-ufl and vc-pmedian, whose facility scan stops at the powerset
# bound on most sources; vc-fas and vc-ds, whose n+1 copies of each edge
# gadget make targets that stop at a capacity limit, and vc-ds refuses
# disconnected sources as well.
CHAINS = {
    "3sat-vc": (20, 24, 24),
    "3sat-vc,vc-sc": (20, 24, 24),
    "3sat-vc,vc-hs": (20, 24, 24),
    "3sat-vc,vc-fvs": (14, 24, 24),
    "3sat-vc,vc-pcenter": (20, 24, "refused"),
    "3sat-is": (20, 24, "refused"),
    "3sat-is,is-clique": (20, 24, "refused"),
    "3sat-subsetsum": (20, 24, 24),
    "3sat-subsetsum,subsetsum-knapsack": (20, 24, 24),
    "3sat-subsetsum,subsetsum-partition": (20, 24, 24),
    "3sat-subsetsum,subsetsum-partition,partition-scheduling": (20, 24, 24),
    "3sat-dhampath": (20, 24, 24),
    "3sat-dhampath,dhampath-dhamcycle": (20, 24, 24),
    "3sat-dhampath,dhampath-dhamcycle,dhamcycle-uhamcycle": (20, 24, 24),
    "3sat-dhampath,dhampath-dhamcycle,dhamcycle-uhamcycle,uhamcycle-tsp": (20, 24, 24),
    "3sat-2ddp": (20, 24, 24),
    "3sat-2ddp,2ddp-kddp": (20, 24, 24),
    "3sat-steinertree": (20, 24, 24),
}


@pytest.mark.parametrize("chain", CHAINS)
def test_chain_from_3sat_checks_and_agrees_with_the_game(chain):
    checked = 0
    for i in range(20):
        chained = chain_from_3sat(i, chain)
        size = universe_size(chained.target)
        if chain.endswith("vc-fvs") and size > FVS_MAX_VERTICES:
            continue
        assert check_ssp(chained, CHAIN_BOUNDS).passed, (chain, i)
        for measure in MEASURES:
            verdict = check_blowup(chained, measure, CHAIN_BOUNDS)
            assert verdict.passed, (chain, i, measure)
        checked += 1
    comb_agree = cost_agree = refused = 0
    rng = random.Random(repr(("rr-chain", chain)))
    for _ in range(GAMES):
        game = random_radjsat(rng, max_part=1, max_clauses=2, max_gamma=1)
        want = solve_radjsat(game, CHAIN_BOUNDS)[0]
        for measure in MEASURES:
            comb = radjsat_to_comb_rr(game, chain, measure)
            assert eval_comb_rr(comb, CHAIN_BOUNDS)[0] == want, (chain, measure)
            comb_agree += 1
            try:
                cost = comb_to_cost_rr(comb)
            except (PreconditionError, UnsupportedKindError):
                refused += 1
                continue
            assert eval_cost_rr(cost, CHAIN_BOUNDS)[1] == want, (chain, measure)
            cost_agree += 1
    cost = "refused" if refused == GAMES * len(MEASURES) else cost_agree
    assert (checked, comb_agree, cost) == CHAINS[chain]
