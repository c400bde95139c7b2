import random
import re

import pytest

from sspforge.core import (
    Bounds,
    CapacityError,
    FormatError,
    UnsupportedKindError,
    indices_of,
    mask_of,
)
from sspforge.problems import (
    CnfInstance,
    DirectedHamCycleInstance,
    DirectedHamPathInstance,
    DisjointPathsInstance,
    DominatingSetInstance,
    FacilityLocationInstance,
    FeedbackArcSetInstance,
    FeedbackVertexSetInstance,
    HittingSetInstance,
    KnapsackInstance,
    PartitionInstance,
    PCenterInstance,
    PMedianInstance,
    ProblemKind,
    SchedulingInstance,
    SetCoverInstance,
    SteinerTreeInstance,
    SubsetSumInstance,
    TspInstance,
    UndirectedHamCycleInstance,
    VertexCoverInstance,
    enumerate_feasible,
    enumerate_solutions,
    feasible_keys,
    is_lop,
    lop_cost,
    universe_size,
    verify,
)
from sspforge.problems.graphs import complete_edges

K = ProblemKind


def lits(cnf, *names):
    """Literal mask from names like 'x1', '~x2'."""
    m = 0
    for s in names:
        neg = s.startswith("~")
        i = int(s.lstrip("~x")) - 1
        m |= 1 << (cnf.n_vars + i if neg else i)
    return m


TRIANGLE = VertexCoverInstance(3, ((0, 1), (0, 2), (1, 2)), 2)


def test_verify_vc_triangle():
    assert verify(K.VERTEX_COVER, TRIANGLE, mask_of([0, 1]))
    assert not verify(K.VERTEX_COVER, TRIANGLE, mask_of([0]))


def test_verify_3sat_single_clause():
    phi = CnfInstance(3, ((3, 4, 2),))  # (~x1 | ~x2 | x3)
    assert not verify(K.THREE_SAT, phi, lits(phi, "x1", "x2", "~x3"))
    assert verify(K.THREE_SAT, phi, lits(phi, "x1", "x2", "x3"))


def test_verify_partition_canonical_side():
    inst = PartitionInstance((1, 2, 3))
    assert verify(K.PARTITION, inst, mask_of([0, 1]))  # 1+2 = 3
    # the complement representative carries the last element and is not
    # a canonical solution
    assert not verify(K.PARTITION, inst, mask_of([2]))


def test_enumerate_3sat_single_clause():
    phi = CnfInstance(3, ((3, 4, 2),))
    sols = enumerate_solutions(K.THREE_SAT, phi)
    assert len(sols) == 7  # only the all-false-on-clause assignment fails
    assert lits(phi, "x1", "x2", "~x3") not in sols


def test_enumerate_subsetsum():
    inst = SubsetSumInstance((1, 2, 3), 3)
    assert enumerate_solutions(K.SUBSET_SUM, inst) == sorted(
        [mask_of([2]), mask_of([0, 1])]
    )


def test_enumerate_vc_triangle():
    assert len(enumerate_solutions(K.VERTEX_COVER, TRIANGLE)) == 3


def test_feasible_tsp_k4():
    inst = TspInstance(4, (1,) * 6, 0)
    assert len(enumerate_feasible(K.TSP, inst)) == 3  # (4-1)!/2 tours


def test_feasible_vc_ignores_threshold():
    inst = VertexCoverInstance(3, ((0, 1), (0, 2), (1, 2)), 0)
    feas = enumerate_feasible(K.VERTEX_COVER, inst)
    assert len(feas) == 4  # three pairs and the full vertex set
    assert enumerate_solutions(K.VERTEX_COVER, inst) == []


def test_feasible_knapsack_price_side():
    # feasibility keeps the price goal and drops the weight budget
    inst = KnapsackInstance(((1, 1),), 5, 0)
    assert enumerate_feasible(K.KNAPSACK, inst) == []
    inst2 = KnapsackInstance(((3, 1), (2, 4)), 3, 1)
    assert enumerate_feasible(K.KNAPSACK, inst2) == sorted(
        [mask_of([0]), mask_of([0, 1])]
    )
    assert enumerate_solutions(K.KNAPSACK, inst2) == [mask_of([0])]


def test_feasible_unsupported_for_pure_ssp():
    phi = CnfInstance(1, ((0, 0, 0),))
    with pytest.raises(UnsupportedKindError):
        enumerate_feasible(K.THREE_SAT, phi)
    assert not is_lop(K.UFL)


def test_2ddp_needs_exactly_two_terminal_pairs():
    # the 2ddp kind took any pair count; kddp still does
    pairs = ((0, 1), (2, 3), (4, 5))
    inst = DisjointPathsInstance(6, pairs, pairs)
    refusals = (
        lambda: enumerate_solutions(K.TWO_DDP, inst),
        lambda: enumerate_feasible(K.TWO_DDP, inst),
        lambda: feasible_keys(K.TWO_DDP, inst, (0, 0, 0)),
        lambda: verify(K.TWO_DDP, inst, 7),
    )
    for refusal in refusals:
        with pytest.raises(FormatError, match="^3 terminal pairs, expected 2$"):
            refusal()
    assert enumerate_solutions(K.K_DDP, inst) == [7]
    assert verify(K.K_DDP, inst, 7)


def test_capacity_error():
    big = CnfInstance(20, ((0, 1, 2),))
    with pytest.raises(CapacityError):
        enumerate_solutions(K.THREE_SAT, big, Bounds(max_universe=24))


def test_capacity_guards_keep_their_bound_size_and_message():
    """Each kind has one guard: vertex-cover solutions and feasible sets
    both answer to ``max_vertices``, and not to ``max_universe``, both TSP
    families to ``max_vertices`` and the solution cap, and CNF enumeration
    to max(max_universe // 2, 16) variables."""
    vc = VertexCoverInstance(3, ((0, 1),), 1)
    few_vertices = Bounds(max_universe=24, max_vertices=2)
    small_universe = Bounds(max_universe=2, max_vertices=100)
    for enumerate_family in (enumerate_solutions, enumerate_feasible):
        with pytest.raises(
            CapacityError, match="^3 vertices exceed the structural bound$"
        ):
            enumerate_family(K.VERTEX_COVER, vc, few_vertices)
    assert enumerate_solutions(K.VERTEX_COVER, vc, small_universe) == [1, 2]
    # every set that holds vertex 0 or vertex 1
    assert enumerate_feasible(K.VERTEX_COVER, vc, small_universe) == [
        1, 2, 3, 5, 6, 7
    ]
    tsp = TspInstance(11, (1,) * 55, 11)
    for enumerate_family in (enumerate_solutions, enumerate_feasible):
        with pytest.raises(
            CapacityError, match="^11 vertices exceed the structural bound$"
        ):
            enumerate_family(K.TSP, tsp, Bounds(max_universe=100, max_vertices=10))
    # K_11 holds 10!/2 tours, all of weight 11: F(I) overflows a small cap,
    # and S(I) within k = 10 is empty
    few_solutions = Bounds(max_universe=24, max_solutions=1000, max_vertices=100)
    with pytest.raises(CapacityError, match="^solution cap exceeded$"):
        enumerate_feasible(K.TSP, tsp, few_solutions)
    light = TspInstance(11, (1,) * 55, 10)
    assert enumerate_solutions(K.TSP, light, few_solutions) == []
    # 12 vertices, weight 0 on the cycle 0-1-...-11 and two chords: the two
    # tours within k = 0 are listed
    light = {(v, v + 1) for v in range(11)} | {(0, 11), (0, 2), (1, 3)}
    edges = complete_edges(12)
    tsp = TspInstance(12, tuple(int(e not in light) for e in edges), 0)
    tours = enumerate_solutions(K.TSP, tsp)
    assert [[edges[i] for i in indices_of(t)] for t in tours] == [
        [(0, 2), (0, 11), (1, 2), (1, 3)] + [(v, v + 1) for v in range(3, 11)],
        [(0, 1), (0, 11), (1, 2), (2, 3)] + [(v, v + 1) for v in range(3, 11)],
    ]
    # K_14 within k = 1 holds no tour: with one weight-0 edge every tour
    # weighs at least 13, and with weight 0 only inside {0..5} a tour uses
    # at most 5 weight-0 edges.  Both are answered without walking the
    # 13!/2 tours, though in the second every edge may start a tour
    edges = complete_edges(14)
    for weights in ((0,) + (1,) * 90, tuple(int(v > 5) for _, v in edges)):
        assert enumerate_solutions(K.TSP, TspInstance(14, weights, 1)) == []
    cnf = CnfInstance(17, ((0, 1, 2),))
    with pytest.raises(
        CapacityError, match="^17 variables exceed the assignment bound$"
    ):
        enumerate_solutions(K.SAT, cnf, Bounds(max_universe=32))


def test_bounded_searches_answer_to_the_elements_they_walk():
    """Set cover, hitting set, feedback vertex set and p-center solutions
    are listed by the hitting-set search, so they answer to
    ``max_vertices`` on the elements it walks and pass a powerset bound
    below their universe, and so does F(I), the same search at a budget
    every set meets; the UFL and p-median scans keep the powerset
    bound."""
    few_vertices = Bounds(max_universe=24, max_vertices=2)
    small_universe = Bounds(max_universe=2, max_vertices=100)
    powerset = "^universe of size 3 exceeds the powerset bound 2$"
    # facility i serves client j at cost service[i][j]; only f2 serves both
    # clients at cost 0
    service = ((0, 1), (1, 0), (0, 0))
    searches = (
        (K.SET_COVER, SetCoverInstance(2, ((0,), (1,), (0, 1)), 2), "subsets"),
        (K.HITTING_SET, HittingSetInstance(3, ((0, 1), (2,)), 2), "ground elements"),
        (
            K.FEEDBACK_VERTEX_SET,
            FeedbackVertexSetInstance(3, ((0, 1), (1, 2), (2, 0)), 1),
            "vertices",
        ),
        (K.P_CENTER, PCenterInstance(3, 2, service, 1, 0), "facilities"),
    )
    solutions = [[3, 4, 5, 6], [5, 6], [1, 2, 4], [4]]
    for (kind, inst, noun), want in zip(searches, solutions):
        with pytest.raises(
            CapacityError, match=f"^3 {noun} exceed the structural bound$"
        ):
            enumerate_solutions(kind, inst, few_vertices)
        assert enumerate_solutions(kind, inst, small_universe) == want
        if is_lop(kind):
            with pytest.raises(
                CapacityError, match=f"^3 {noun} exceed the structural bound$"
            ):
                enumerate_feasible(kind, inst, few_vertices)
            assert len(enumerate_feasible(kind, inst, small_universe)) > len(want)
    scans = (
        (K.UFL, FacilityLocationInstance(3, 2, (1, 1, 1), service, 1)),
        (K.P_MEDIAN, PMedianInstance(3, 2, service, 1, 0)),
    )
    for kind, inst in scans:
        with pytest.raises(CapacityError, match=powerset):
            enumerate_solutions(kind, inst, small_universe)
        assert enumerate_solutions(kind, inst, few_vertices) == [4]


def test_steiner_families_answer_to_the_vertex_count():
    """The Steiner kernel builds tables per vertex, so a path of 3 edges in
    a graph of 101 vertices is refused under a bound of 100 vertices by both
    families; the structural guards name what they count."""
    path = SteinerTreeInstance(101, ((0, 1), (1, 2), (2, 3)), (1, 1, 1), (0, 3), 3)
    few_vertices = Bounds(max_universe=24, max_vertices=100)
    for enumerate_family in (enumerate_solutions, enumerate_feasible):
        with pytest.raises(
            CapacityError, match="^101 vertices exceed the structural bound$"
        ):
            enumerate_family(K.STEINER_TREE, path, few_vertices)
        assert enumerate_family(K.STEINER_TREE, path, Bounds(max_vertices=101)) == [
            0b111
        ]
    with pytest.raises(CapacityError, match="^3 edges exceed the structural bound$"):
        enumerate_solutions(K.STEINER_TREE, path, Bounds(max_vertices=2))
    fas = FeedbackArcSetInstance(3, ((0, 1), (1, 2), (2, 0)), 1)
    with pytest.raises(CapacityError, match="^3 arcs exceed the structural bound$"):
        enumerate_solutions(K.FEEDBACK_ARC_SET, fas, Bounds(max_vertices=2))


@pytest.mark.parametrize("seed", range(30))
def test_lop_identity(seed):
    """S(I) must equal the feasible sets within the cost threshold."""
    rng = random.Random(seed)
    kind = rng.choice(
        [
            K.VERTEX_COVER,
            K.INDEPENDENT_SET,
            K.CLIQUE,
            K.DOMINATING_SET,
            K.SUBSET_SUM,
            K.KNAPSACK,
            K.PARTITION,
            K.SCHEDULING,
            K.TSP,
            K.HITTING_SET,
            K.SET_COVER,
        ]
    )
    inst = _random_lop_instance(kind, rng)
    d, t = lop_cost(kind, inst)
    feas = enumerate_feasible(kind, inst)
    want = sorted(
        f for f in feas if sum(d[i] for i in range(len(d)) if f >> i & 1) <= t
    )
    assert enumerate_solutions(kind, inst) == want


def _random_lop_instance(kind, rng):
    n = rng.randint(2, 5)
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    )
    k = rng.randint(0, n)
    if kind in (K.VERTEX_COVER,):
        return VertexCoverInstance(n, edges, k)
    if kind is K.INDEPENDENT_SET:
        from sspforge.problems import IndependentSetInstance

        return IndependentSetInstance(n, edges, k)
    if kind is K.CLIQUE:
        from sspforge.problems import CliqueInstance

        return CliqueInstance(n, edges, k)
    if kind is K.DOMINATING_SET:
        return DominatingSetInstance(n, edges, k)
    if kind is K.SUBSET_SUM:
        vals = tuple(rng.randint(1, 8) for _ in range(n))
        return SubsetSumInstance(vals, rng.randint(1, sum(vals)))
    if kind is K.KNAPSACK:
        items = tuple((rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n))
        return KnapsackInstance(
            items, rng.randint(1, 10), rng.randint(1, 10)
        )
    if kind is K.PARTITION:
        return PartitionInstance(tuple(rng.randint(1, 6) for _ in range(n)))
    if kind is K.SCHEDULING:
        times = tuple(rng.randint(1, 6) for _ in range(n))
        return SchedulingInstance(times, rng.randint(1, sum(times)))
    if kind is K.TSP:
        m = max(3, n)
        w = tuple(rng.randint(0, 4) for _ in range(m * (m - 1) // 2))
        return TspInstance(m, w, rng.randint(0, sum(w)))
    if kind is K.HITTING_SET:
        subsets = tuple(
            tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            for _ in range(rng.randint(1, 3))
        )
        return HittingSetInstance(n, subsets, k)
    subsets = tuple(
        tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        for _ in range(rng.randint(1, 4))
    )
    ground = sorted({x for s in subsets for x in s})
    remap = {x: i for i, x in enumerate(ground)}
    subsets = tuple(tuple(remap[x] for x in s) for s in subsets)
    return SetCoverInstance(len(ground), subsets, rng.randint(0, len(subsets)))


@pytest.mark.parametrize("seed", range(10))
def test_monotone_threshold(seed):
    """Raising k never removes a solution for the covering kinds."""
    rng = random.Random(seed + 100)
    n = rng.randint(2, 5)
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    )
    for k in range(n):
        lo = set(enumerate_solutions(K.VERTEX_COVER, VertexCoverInstance(n, edges, k)))
        hi = set(
            enumerate_solutions(K.VERTEX_COVER, VertexCoverInstance(n, edges, k + 1))
        )
        assert lo <= hi
        lo = set(
            enumerate_solutions(K.DOMINATING_SET, DominatingSetInstance(n, edges, k))
        )
        hi = set(
            enumerate_solutions(
                K.DOMINATING_SET, DominatingSetInstance(n, edges, k + 1)
            )
        )
        assert lo <= hi


def test_sat_solutions_are_assignments():
    phi = CnfInstance(2, ((0, 1, 1), (2, 3, 3)))
    for s in enumerate_solutions(K.THREE_SAT, phi):
        for i in range(2):
            assert ((s >> i) & 1) + ((s >> (2 + i)) & 1) == 1


@pytest.mark.parametrize(
    "edges, message",
    [
        (((7, 7),), "endpoint out of range in (7, 7)"),
        (((0, 1), (1, 0), (2, 2), (0, 9)), "duplicate edge (1, 0)"),
        (((0, 1), (2, 2), (1, 0), (0, 9)), "self-loop (2, 2)"),
        (((0, 1), (0, 9), (2, 2), (1, 0)), "endpoint out of range in (0, 9)"),
        (((2, 0), (1, 2), (0, 2)), "duplicate edge (0, 2)"),
    ],
)
def test_edge_check_names_the_first_bad_edge(edges, message):
    """Each edge is checked for range, then for a self-loop, then for a
    repeat of an earlier edge in either direction; the first bad edge in
    list order is the one reported."""
    for cls in (VertexCoverInstance, DominatingSetInstance):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            cls(3, edges, 1)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        UndirectedHamCycleInstance(3, edges)


def test_reversed_arc_is_not_a_duplicate_for_directed_kinds():
    arcs = ((0, 1), (1, 0))
    assert universe_size(FeedbackVertexSetInstance(2, arcs, 1)) == 2
    assert universe_size(FeedbackArcSetInstance(2, arcs, 1)) == 2
    for cls in (FeedbackVertexSetInstance, FeedbackArcSetInstance):
        with pytest.raises(FormatError, match=r"^duplicate edge \(0, 1\)$"):
            cls(2, arcs + ((0, 1),), 1)
    # the directed route kinds run the same check, with the same messages
    routes = (
        lambda arcs: DirectedHamPathInstance(4, arcs, 0, 1),
        lambda arcs: DirectedHamCycleInstance(4, arcs),
        lambda arcs: DisjointPathsInstance(4, arcs, ((0, 1), (2, 3))),
    )
    for make in routes:
        assert universe_size(make(arcs)) == 2
        for bad, message in (
            (arcs + ((0, 1),), "duplicate edge (0, 1)"),
            (arcs + ((2, 2),), "self-loop (2, 2)"),
            (arcs + ((3, 4),), "endpoint out of range in (3, 4)"),
            (((-1, 2),) + arcs, "endpoint out of range in (-1, 2)"),
        ):
            with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
                make(bad)
