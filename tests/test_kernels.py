"""Safety net for the enumeration kernels.

Every kind's enumerator must list exactly the sets its verifier accepts
on small universes, and the chain-step and bitset searches must list
exactly what the plain searches they replaced listed on large reduction
targets.  The plain searches are kept below as the reference, and so are
the unpruned chain-step search for disjoint paths and the Steiner walk
that computed its bound afresh at every step, which the pruned search and
the interned walk must equal past the generator's size ceilings, the
permutation walk that listed TSP tours before the undirected cycle search
did, the undirected cycle search before it turned back from a walk that
can no longer close and before it kept the degree rule and a weight
budget, and the three searches that listed dominating sets,
feedback arc sets and the other hitting-set kinds before the shared
hitting-set search did, and the four number-kind searches that ran one
include/exclude walk with per-kind prune and accept functions before the
window search did, the window search in index order before it took the
values largest first, the scan of every facility mask that listed
p-center before the hitting-set search did, and the cover search that took
its packing bound afresh at every node before it carried the bound down
the tree.
"""

import dataclasses
import gc
import heapq
import itertools
import math
import random

import pytest

from sspforge import serialize
from sspforge.core import (
    Bounds,
    CapacityError,
    Capped,
    DistanceMeasure,
    DomainError,
    indices_of,
    mask_of,
)
from sspforge.gen import random_lb, random_radjsat, random_source_for_edge
from sspforge.problems import (
    KIND_SPECS,
    CliqueInstance,
    CnfInstance,
    DirectedHamCycleInstance,
    DominatingSetInstance,
    FeedbackArcSetInstance,
    FeedbackVertexSetInstance,
    HittingSetInstance,
    IndependentSetInstance,
    KnapsackInstance,
    PartitionInstance,
    PCenterInstance,
    ProblemKind,
    SchedulingInstance,
    SetCoverInstance,
    SteinerTreeInstance,
    SubsetSumInstance,
    TspInstance,
    UndirectedHamCycleInstance,
    VertexCoverInstance,
    clear_caches,
    enumerate_feasible,
    enumerate_solutions,
    feasible_keys,
    is_lop,
    lop_cost,
    universe_size,
    verify,
)
from sspforge.problems import paths
from sspforge.problems.covering import _covers, _hits, _pad_supersets
from sspforge.problems.graphs import (
    _find_cycle_arcs,
    _out_arcs,
    complete_edges,
    covers_upto,
    independent_sets_atleast,
)
from sspforge.problems.numbers import _masked_sum, packings, sums_between
from sspforge.problems.paths import (
    _chains,
    disjoint_path_systems,
    ham_cycles_directed,
    ham_paths,
)
from sspforge.problems.steiner import steiner_trees_upto
from sspforge.reductions import ALL_EDGES, BLOWUP_EDGES, build_blowup, build_preserving
from sspforge.rr import radjsat_to_comb_rr
from test_rr import LADDER, LADDER_EDGES, ladder_games

BOUNDS = Bounds(max_universe=24, max_solutions=1 << 20, max_vertices=16384)
CAP = 1 << 20
SOURCES_PER_EDGE = 20
MAX_POWERSET = 16
# the LOP families answer to max_vertices alone, so they list at a powerset bound of 0
NO_POWERSET = Bounds(max_universe=0, max_solutions=CAP, max_vertices=BOUNDS.max_vertices)
# the two kinds the undirected cycle search lists, TSP at two budgets
UHC = KIND_SPECS[ProblemKind.UHAM_CYCLE]
TSP = KIND_SPECS[ProblemKind.TSP]


def small_instances():
    """Sources and targets of every edge's random corpus with at most
    MAX_POWERSET universe elements, each once."""
    found = {}
    for edge in ALL_EDGES:
        for i in range(SOURCES_PER_EDGE):
            rng = random.Random(repr(("kernels", edge, i)))
            src = random_source_for_edge(edge, rng)
            if edge in BLOWUP_EDGES:
                measure = rng.choice(list(DistanceMeasure))
                art = build_blowup(edge, src, random_lb(rng, src), measure)
            else:
                params = {"k": rng.randint(2, 4)} if edge == "2ddp-kddp" else None
                art = build_preserving(edge, src, params)
            for kind, inst in ((art.source_kind, src), (art.target_kind, art.target)):
                if universe_size(inst) <= MAX_POWERSET:
                    found.setdefault((kind, inst), None)
    return list(found)


def powerset_filter(kind, inst):
    return [m for m in range(1 << universe_size(inst)) if verify(kind, inst, m)]


def test_enumeration_equals_verify_filter_on_every_kind():
    instances = small_instances()
    assert {kind for kind, _ in instances} == set(ProblemKind)
    for kind, inst in instances:
        assert enumerate_solutions(kind, inst, BOUNDS) == powerset_filter(
            kind, inst
        ), (kind, inst)


def test_lop_identity_on_every_lop_kind():
    # S(I) = {F in F(I) : d(F) <= t}, where the registry lists S(I) and
    # F(I) by one search at two budgets behind one guard: F(I) lists at a
    # powerset bound of 0, and past max_vertices S(I), the listed F(I) and
    # the key stream raise the one message of S(I).  Outside the number
    # kinds, whose F(I) ``test_threshold_families_equal_powerset_filter``
    # checks, F(I) is the verify filter once the threshold k meets every set.
    number_kinds = {kind for kind, *_ in threshold_instances(random.Random(0))}
    kinds, raised = set(), set()
    for kind, inst in small_instances():
        if not is_lop(kind):
            continue
        d, t = lop_cost(kind, inst)
        feasible = enumerate_feasible(kind, inst, NO_POWERSET)
        want = [
            f for f in feasible if sum(d[i] for i in range(len(d)) if f >> i & 1) <= t
        ]
        assert enumerate_solutions(kind, inst, BOUNDS) == want, (kind, inst)
        top = sum(max(c, 0) for c in d)
        if kind not in number_kinds:
            every = dataclasses.replace(inst, k=top) if t < top else inst
            assert feasible == powerset_filter(kind, every), (kind, inst)
        for max_vertices in {max(len(d) - 1, 0), 0}:
            narrow = Bounds(max_universe=24, max_solutions=CAP, max_vertices=max_vertices)
            listed = outcome(lambda: enumerate_solutions(kind, inst, narrow))
            for other in (
                outcome(lambda: enumerate_feasible(kind, inst, narrow)),
                outcome(lambda: feasible_keys(kind, inst, d, narrow)),
            ):
                if type(listed) is str:
                    assert other == listed, (kind, inst, max_vertices)
                else:
                    assert type(other) is not str, (kind, inst, max_vertices)
            if type(listed) is str:
                raised.add(kind)
        kinds.add(kind)
    assert kinds == raised == {kind for kind in ProblemKind if is_lop(kind)}
    assert len(kinds) == 19


def test_verify_refuses_masks_outside_the_universe():
    # problems.verify checks the range once for every kind, before the
    # instance's own test; the universe it checks against is the one the
    # instance's document labels
    kinds = set()
    for kind, inst in small_instances():
        labels = serialize.instance_to_doc(kind, inst)["universe_labels"]
        assert universe_size(inst) == len(labels), (kind, inst)
        for mask in (1 << universe_size(inst), -1):
            with pytest.raises(DomainError):
                verify(kind, inst, mask)
        kinds.add(kind)
    assert kinds == set(ProblemKind)


def test_kernels_leave_no_cyclic_garbage():
    """A search's recursive closures must not outlive the call: with the
    cycle collector off, the largest small corpus instance of every kind,
    enumerated once (and its feasible family once, for LOP kinds), and
    once more with a solution cap it overflows, leaves nothing for
    ``gc.collect`` to free."""
    largest = {}
    for kind, inst in small_instances():
        if universe_size(inst) >= universe_size(largest.get(kind, inst)):
            largest[kind] = inst
    assert set(largest) == set(ProblemKind)
    gc.collect()
    gc.disable()
    try:
        for kind, inst in largest.items():
            clear_caches()
            count = len(enumerate_solutions(kind, inst, BOUNDS))
            if is_lop(kind):
                assert enumerate_feasible(kind, inst, BOUNDS) is not None
            assert gc.collect() == 0, kind
            if count:
                clear_caches()
                capped = Bounds(BOUNDS.max_universe, count - 1, BOUNDS.max_vertices)
                with pytest.raises(CapacityError):
                    enumerate_solutions(kind, inst, capped)
                assert gc.collect() == 0, (kind, "capped")
    finally:
        gc.enable()


def test_weighted_steiner_equals_verify_filter():
    # the corpus has unit costs only; the distance bound must also hold
    # with zero and uneven costs and on disconnected graphs
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = tuple(pairs[: rng.randint(0, min(len(pairs), 12))])
        costs = tuple(rng.randint(0, 3) for _ in edges)
        terminals = tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
        inst = SteinerTreeInstance(
            n, edges, costs, terminals, rng.randint(0, sum(costs) + 1)
        )
        assert enumerate_solutions(
            ProblemKind.STEINER_TREE, inst, BOUNDS
        ) == powerset_filter(ProblemKind.STEINER_TREE, inst), inst


def subdivided_steiner(rng):
    """A weighted graph on at most 7 junctions whose edges are randomly
    subdivided into runs of up to three edges, at most 16 edges in all,
    so the search folds degree-2 runs; terminals may sit inside a run."""
    n = rng.randint(3, 7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    edges = []
    for u, v in pairs[: rng.randint(2, min(len(pairs), 9))]:
        runs = rng.choice((1, 1, 2, 3))
        if len(edges) + runs > MAX_POWERSET:
            break
        for _ in range(runs - 1):
            edges.append((u, n))
            u, n = n, n + 1
        edges.append((u, v))
    costs = tuple(rng.randint(0, 3) for _ in edges)
    terminals = tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
    return n, tuple(edges), costs, terminals


def test_subdivided_weighted_steiner_equals_verify_filter():
    # at the feasible budget sum(costs), where the branch growth from the
    # cut does nearly all the work, and at a random budget below it
    rng = random.Random(13)
    folded = 0
    for _ in range(60):
        n, edges, costs, terminals = subdivided_steiner(rng)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        folded += any(d == 2 and x not in terminals for x, d in enumerate(degree))
        inst = SteinerTreeInstance(n, edges, costs, terminals, sum(costs))
        trees = powerset_filter(ProblemKind.STEINER_TREE, inst)
        assert steiner_trees_upto(inst, inst.k, CAP) == trees, inst
        k = rng.randint(0, sum(costs))
        assert steiner_trees_upto(inst, k, CAP) == [
            m for m in trees if inst.cost(m) <= k
        ], (inst, k)
    assert folded > 40


def test_packed_steiner_vectors_equal_references():
    # the walk keeps each vector of terminal distances as one int with a
    # field per terminal; check it where a field is wider than 64 bits
    # (costs up to 2**70), with zero-cost edges, with a terminal that no
    # edge reaches (its field holds inf) and with a single terminal
    rng = random.Random(17)
    seen = dict.fromkeys(("wide", "zero", "unreachable", "single"), 0)
    for case in range(160):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = tuple(pairs[: rng.randint(1, min(len(pairs), 11))])
        top = 1 << 70 if case % 2 else 3
        costs = tuple(rng.choice((0, rng.randint(1, top))) for _ in edges)
        if case % 5 == 0:
            terminals = (rng.randrange(n),)
        else:
            terminals = tuple(rng.sample(range(n), rng.randint(2, min(n, 4))))
        if case % 7 == 3:
            terminals += (n,)
            n += 1
        inst = SteinerTreeInstance(n, edges, costs, terminals, sum(costs))
        trees = powerset_filter(ProblemKind.STEINER_TREE, inst)
        budgets = {inst.k}
        if trees:
            c = inst.cost(rng.choice(trees))
            budgets |= {c, c - 1}
        for k in budgets:
            want = [m for m in trees if inst.cost(m) <= k]
            assert steiner_trees_upto(inst, k, CAP) == want, (inst, k)
            assert ref_ball_steiner_trees_upto(inst, k, CAP) == want, (inst, k)
        seen["wide"] += bool(trees) and (sum(costs) + 1).bit_length() + 1 > 64
        seen["zero"] += bool(trees) and 0 in costs
        seen["unreachable"] += case % 7 == 3 and not trees
        seen["single"] += len(terminals) == 1 and bool(trees)
    assert min(seen.values()) >= 10, seen


def threshold_instances(rng):
    """(kind, instance, summed values, acceptance of a value sum and the
    last element's bit) for each threshold kind."""
    n = rng.randint(1, 12)
    values = tuple(rng.randint(1, 9) for _ in range(n))
    total = sum(values)
    items = tuple((v, rng.randint(1, 5)) for v in values)
    subsetsum = SubsetSumInstance(values, rng.randint(0, total + 1))
    knapsack = KnapsackInstance(items, rng.randint(0, total + 1), rng.randint(1, 30))
    scheduling = SchedulingInstance(values, rng.randint(0, total + 1))
    return [
        (
            ProblemKind.SUBSET_SUM, subsetsum, values,
            lambda s, last: s >= subsetsum.target,
        ),
        (
            ProblemKind.KNAPSACK, knapsack, values,
            lambda s, last: s >= knapsack.price_goal,
        ),
        (
            ProblemKind.PARTITION, PartitionInstance(values), values,
            lambda s, last: not last and 2 * s >= total,
        ),
        (
            ProblemKind.SCHEDULING, scheduling, values,
            lambda s, last: not last and total - s <= scheduling.deadline,
        ),
    ]


def test_threshold_families_equal_powerset_filter():
    # F(I) is every set whose value sum reaches the threshold (partition and
    # scheduling keep the last element on the other side), and S(I) is the
    # part of F(I) within the LOP cost envelope
    rng = random.Random(17)
    for _ in range(150):
        for kind, inst, values, accepts in threshold_instances(rng):
            n = len(values)
            want = [
                m
                for m in range(1 << n)
                if accepts(
                    sum(v for i, v in enumerate(values) if m >> i & 1),
                    m >> (n - 1) & 1,
                )
            ]
            family = enumerate_feasible(kind, inst, NO_POWERSET)
            assert family == want, (kind, inst)
            cost, t = lop_cost(kind, inst)
            within = [
                m for m in family
                if sum(c for i, c in enumerate(cost) if m >> i & 1) <= t
            ]
            assert within == powerset_filter(kind, inst), (kind, inst)
            search, top = KIND_SPECS[kind].search, sum(max(c, 0) for c in cost)
            if want:
                with pytest.raises(CapacityError):
                    search(inst, top, len(want) - 1)
            assert search(inst, top, len(want)) == want


def stream_instances():
    """(kind, instance) of every LOP kind: the LOP instances of
    ``small_instances()``, among them the negative costs of independent set
    and clique, and random number-kind instances with repeated values,
    empty universes and thresholds from below 0 to above the total."""
    out = [(kind, inst) for kind, inst in small_instances() if is_lop(kind)]
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(0, 10)
        values = tuple(rng.choice((1, 2, 2, 3, 5, 8)) for _ in range(n))
        total = sum(values)
        out += [
            (ProblemKind.SUBSET_SUM, SubsetSumInstance(values, rng.randint(-2, total + 2))),
            (
                ProblemKind.KNAPSACK,
                KnapsackInstance(
                    tuple((v, rng.randint(1, 5)) for v in values),
                    rng.randint(-2, total + 2),
                    rng.randint(-1, 20),
                ),
            ),
        ]
        if n:
            out += [
                (ProblemKind.PARTITION, PartitionInstance(values)),
                (
                    ProblemKind.SCHEDULING,
                    SchedulingInstance(values, rng.randint(-1, total + 1)),
                ),
            ]
    return out


def listed_keys(kind, inst, costs, bounds=BOUNDS):
    n = len(costs)
    return sorted(
        (sum(c for i, c in enumerate(costs) if m >> i & 1) << n) | m
        for m in enumerate_feasible(kind, inst, bounds)
    )


def stream_budgets(t, costs):
    """The budgets the key stream searches at, in order: t, then windows
    that each start past the last, at width 1, each four times as wide as
    the one before, up to the sum of the positive costs."""
    top = sum(c for c in costs if c > 0)
    budget, width = t, 1
    yield budget
    while budget < top:
        budget, width = budget + width, 4 * width
        yield budget


def read_stream(stream):
    """The keys a stream yields before it ends or raises, and its error."""
    keys = []
    try:
        for _, window in stream:
            keys += window
    except CapacityError as e:
        return keys, str(e)
    return keys, None


def test_key_stream_equals_sorted_listing_on_every_lop_kind():
    # the stream reads F(I) from the kind's own search, window by window of
    # budgets, each window with the least cost its unread keys can have;
    # any cost vector but the kind's own takes the listed path
    kinds = set()
    seen = {"negative": 0, "tie": 0, "empty": 0, "one window": 0, "windows": 0}
    for kind, inst in stream_instances():
        d, t = lop_cost(kind, inst)
        n = len(d)
        want = listed_keys(kind, inst, d)
        windows = list(feasible_keys(kind, inst, d, BOUNDS))
        assert [key for _, keys in windows for key in keys] == want, (kind, inst)
        floors = [floor for floor, _ in windows]
        budgets = list(stream_budgets(t, d))
        assert floors == [b + 1 for b in budgets[:-1]] + [math.inf], (kind, inst)
        for floor, (_, keys) in zip(floors, windows[1:]):
            assert all(key >> n >= floor for key in keys), (kind, inst)
        if n:
            other = (d[0] + 1,) + d[1:]
            assert feasible_keys(kind, inst, other, BOUNDS) is None, (kind, inst)
        kinds.add(kind)
        prices = [key >> n for key in want]
        seen["negative"] += min(d, default=0) < 0 and len(want) > 1
        seen["tie"] += len(set(prices)) < len(prices)
        seen["empty"] += not want
        seen["one window"] += len(windows) == 1 and bool(want)
        seen["windows"] += sum(bool(keys) for _, keys in windows) > 2
    assert kinds == {kind for kind in ProblemKind if is_lop(kind)}
    assert min(seen.values()) > 10, seen


def test_key_stream_raises_on_what_it_reads():
    # the stream and the listed F(I) answer to the guard of S(I), so both
    # list F(I) at a powerset bound of 0 and raise the structural message
    # of S(I) past max_vertices; each window's search counts every set
    # within its budget against the cap, so the stream yields exactly the
    # windows whose search fits the cap and then raises "solution cap
    # exceeded".  Between two caps of ``caps`` the outcome cannot change.
    seen = {"listed": 0, "structural": 0, "cap": 0, "cheap end": 0}
    for kind, inst in stream_instances():
        d, t = lop_cost(kind, inst)
        n = len(d)
        want = listed_keys(kind, inst, d)
        assert read_stream(feasible_keys(kind, inst, d, NO_POWERSET)) == (want, None)
        masks = sorted(key & ((1 << n) - 1) for key in want)
        assert enumerate_feasible(kind, inst, NO_POWERSET) == masks, (kind, inst)
        seen["listed"] += bool(n and masks)
        narrow = Bounds(max_universe=24, max_solutions=CAP, max_vertices=0)
        listed = outcome(lambda: enumerate_solutions(kind, inst, narrow))
        if type(listed) is str:
            for family in (
                lambda: enumerate_feasible(kind, inst, narrow),
                lambda: feasible_keys(kind, inst, d, narrow),
            ):
                assert outcome(family) == listed, (kind, inst)
            seen["structural"] += 1
        within = [sum(key >> n <= b for key in want) for b in stream_budgets(t, d)]
        caps = {-1, 0, *within, *(count - 1 for count in within)}
        for cap in sorted(caps):
            bounds = Bounds(max_universe=24, max_solutions=cap)
            keys, error = read_stream(feasible_keys(kind, inst, d, bounds))
            read = 0
            for count in within:
                if count > max(cap, 0):
                    break
                read = count
            assert keys == want[:read], (kind, inst, cap)
            if read < len(want):
                assert error == "solution cap exceeded", (kind, inst, cap)
                seen["cap"] += 1
                seen["cheap end"] += read > 0
            else:
                assert error is None, (kind, inst, cap)
    assert min(seen.values()) > 10, seen


# ------------------------------------------------- large reduction targets

# (edge, acceptance-corpus index): among the largest targets of each
# edge's first 60 acceptance sources whose reference search takes about
# a second or less
LARGE = (
    ("3sat-2ddp", 11),
    ("3sat-vc", 55),
    ("3sat-is", 54),
    ("3sat-steinertree", 10),
    ("3sat-dhampath", 28),
)


def large_target(edge, i):
    rng = random.Random(repr(("acceptance", edge, i)))
    src = random_source_for_edge(edge, rng)
    return build_blowup(edge, src, random_lb(rng, src), DistanceMeasure.HAMMING).target


@pytest.mark.parametrize("edge,i", LARGE)
def test_kernels_equal_reference_on_large_targets(edge, i):
    t = large_target(edge, i)
    if edge == "3sat-2ddp":
        pairs = [
            (disjoint_path_systems(t, CAP), ref_disjoint_path_systems(t, CAP)),
        ]
        kddp = build_preserving("2ddp-kddp", t, {"k": 3}).target
        pairs.append(
            (disjoint_path_systems(kddp, CAP), ref_disjoint_path_systems(kddp, CAP))
        )
    elif edge == "3sat-vc":
        pairs = [
            (
                covers_upto(t.n, t.edges, t.k, CAP),
                ref_covers_upto(t.n, t.edges, t.k, CAP),
            )
        ]
    elif edge == "3sat-is":
        pairs = [
            (
                independent_sets_atleast(t.n, t.edges, t.k, CAP),
                ref_independent_sets_atleast(t.n, t.edges, t.k, CAP),
            )
        ]
    elif edge == "3sat-steinertree":
        pairs = [
            (steiner_trees_upto(t, t.k, CAP), ref_steiner_trees_upto(t, t.k, CAP))
        ]
    else:
        cyc = build_preserving("dhampath-dhamcycle", t).target
        pairs = [
            (ham_paths(t, CAP), ref_ham_paths(t, CAP)),
            (ham_cycles_directed(cyc, CAP), ref_ham_cycles_directed(cyc, CAP)),
        ]
    for got, want in pairs:
        assert want  # a target with no solutions would compare nothing
        assert got == want


# (max_part, max_clauses, games): the plain search takes about a second on
# a two-part game's 75-vertex cover target, and several on two clauses
COMB_RR_GAMES = ((1, 3, 8), (2, 1, 5))
# triangle-rich graphs drawn per COMB_RR_GAMES row, and their largest size
TRIANGLE_GRAPHS = 75
TRIANGLE_MAX_N = 13


def triangle_rich_graphs(rng, count, max_n):
    """``count`` graphs of up to ``max_n`` vertices, each with planted
    vertex-disjoint triangles and K4s over random sparse edges, as (n,
    edges, need): a cover takes all but one vertex of each planted clique,
    ``need`` vertices in all."""
    for _ in range(count):
        n = rng.randint(3, max_n)
        order = rng.sample(range(n), n)
        edges, need = set(), 0
        while len(order) >= 3 and rng.random() < 0.8:
            size = min(rng.choice((3, 3, 4)), len(order))
            clique = [order.pop() for _ in range(size)]
            edges.update(itertools.combinations(sorted(clique), 2))
            need += size - 1
        p = 0.3 * rng.random()
        edges.update(e for e in complete_edges(n) if rng.random() < p)
        yield n, tuple(edges), need


@pytest.mark.parametrize("max_part, max_clauses, games", COMB_RR_GAMES)
def test_cover_kernels_equal_reference_on_comb_rr_targets(max_part, max_clauses, games):
    """The cover search lists what the plain search lists on the comb-RR
    targets of random games, under every measure, and on triangle-rich
    random graphs at their planted need and one vertex more, where leaves
    pad; it overflows the solution cap exactly one below the family's
    size."""
    searches = {
        "3sat-vc": (covers_upto, ref_covers_upto),
        "3sat-is": (independent_sets_atleast, ref_independent_sets_atleast),
    }
    rng = random.Random(repr(("comb-rr targets", max_part)))
    game_list = [
        random_radjsat(rng, max_part=max_part, max_clauses=max_clauses)
        for _ in range(games)
    ]
    assert max(len(game.x_vars) for game in game_list) == max_part
    # the kappa measures often give one target; each is compared once
    targets = {
        (edge, radjsat_to_comb_rr(game, edge, measure).instance): None
        for game in game_list
        for edge in searches
        for measure in DistanceMeasure
    }
    graphs = random.Random(repr(("triangle-rich graphs", max_part)))
    for n, edges, need in triangle_rich_graphs(graphs, TRIANGLE_GRAPHS, TRIANGLE_MAX_N):
        for k in (need, need + 1):
            targets["3sat-vc", VertexCoverInstance(n, edges, k)] = None
            targets["3sat-is", IndependentSetInstance(n, edges, n - k)] = None
    sizes = []
    for edge, t in targets:
        kernel, ref = searches[edge]
        want = ref(t.n, t.edges, t.k, CAP)
        assert kernel(t.n, t.edges, t.k, CAP) == want
        assert kernel(t.n, t.edges, t.k, len(want)) == want
        if want:
            with pytest.raises(CapacityError):
                kernel(t.n, t.edges, t.k, len(want) - 1)
        sizes.append(len(want))
    assert max(sizes) > 1  # a family worth comparing


# the RR ladder's rows up to three variables per part and eight clauses:
# the plain search takes about a minute on one (2, 10) target
LADDER_TO_3_8 = tuple(LADDER)[:4]


@pytest.mark.parametrize("part, clauses", LADDER_TO_3_8)
def test_cover_search_equals_the_per_node_packing_on_ladder_targets(part, clauses):
    """The cover search lists what the search that packed afresh at every
    node listed on the cover targets of the RR ladder's games, under every
    measure, and both overflow the cap one below the family's size."""
    targets = {}
    for game in ladder_games(part, clauses):
        for edge in LADDER_EDGES:
            for measure in DistanceMeasure:
                t = radjsat_to_comb_rr(game, edge, measure).instance
                budget = t.k if edge == "3sat-vc" else t.n - t.k
                targets[t.n, t.edges, budget] = None
    for n, edges, k in targets:
        want = ref_packed_covers_upto(n, edges, k, CAP)
        assert want  # a target with no covers would compare nothing
        assert covers_upto(n, edges, k, CAP) == want
        for search in (covers_upto, ref_packed_covers_upto):
            with pytest.raises(CapacityError):
                search(n, edges, k, len(want) - 1)


def test_cover_kinds_equal_powerset_filter_on_every_small_graph():
    # isolated vertices, budget 0 with an edge left, and k past n
    kinds = (
        (ProblemKind.VERTEX_COVER, VertexCoverInstance),
        (ProblemKind.INDEPENDENT_SET, IndependentSetInstance),
        (ProblemKind.CLIQUE, CliqueInstance),
    )
    for n in range(5):
        pairs = complete_edges(n)
        for picked in range(1 << len(pairs)):
            edges = tuple(e for i, e in enumerate(pairs) if picked >> i & 1)
            for k in range(-1, n + 2):
                for kind, cls in kinds:
                    inst = cls(n, edges, k)
                    assert enumerate_solutions(kind, inst, BOUNDS) == powerset_filter(
                        kind, inst
                    ), (kind, inst)


# the largest 3sat-steinertree targets have one to nine minimum trees, but
# with 16 or more terminals one unit of slack admits tens of thousands of
# trees (65,566 at 64 edges), past what the reference lists in seconds;
# so two more of the largest targets (besides index 10 in LARGE) are
# compared at k, and the largest ones with 4 and 9 terminals, where slack
# makes the walk take detours and the branches grow, at k, k + 1 and k + 2
STEINER_AT_K = (3, 32)
STEINER_WITH_SLACK = (7, 15, 35)


@pytest.mark.parametrize(
    "i,slack",
    [(i, 0) for i in STEINER_AT_K]
    + [(i, d) for i in STEINER_WITH_SLACK for d in (0, 1, 2)],
)
def test_steiner_equals_reference_with_budget_slack(i, slack):
    t = large_target("3sat-steinertree", i)
    want = ref_steiner_trees_upto(t, t.k + slack, CAP)
    assert want
    assert steiner_trees_upto(t, t.k + slack, CAP) == want


# ------------------------------------------------- the 2ddp size frontier


def frontier_target(n_vars, n_clauses, draw, edge="3sat-2ddp"):
    """A target of ``edge`` whose source has exactly ``n_vars`` variables and
    ``n_clauses`` 3-literal clauses, past the generator's ceiling (for
    3sat-2ddp 2 variables and 1 clause)."""
    rng = random.Random(repr(("frontier", edge, n_vars, n_clauses, draw)))
    clauses = tuple(
        tuple(rng.randrange(2 * n_vars) for _ in range(3)) for _ in range(n_clauses)
    )
    src = CnfInstance(n_vars, clauses)
    return build_blowup(edge, src, random_lb(rng, src), DistanceMeasure.HAMMING).target


# (variables, clauses, draw) where the chain-step search finishes in about
# a second or less
FRONTIER_EQUAL = ((2, 2, 0), (3, 2, 3))
# (variables, clauses, draw): the number of systems the chain-step search
# listed, measured once (5 s to 20 min each, too long for the suite)
FRONTIER_COUNTS = {
    (2, 2, 1): 10,
    (2, 2, 2): 34,
    (3, 2, 0): 20,
    (3, 2, 1): 37,
    (3, 3, 3): 90,
}


def frontier_id(key):
    return "{}v{}c{}".format(*key)


@pytest.mark.parametrize("key", FRONTIER_EQUAL, ids=frontier_id)
def test_2ddp_frontier_equals_chain_search(key):
    t = frontier_target(*key)
    want = ref_chain_disjoint_path_systems(t, CAP)
    assert want
    assert disjoint_path_systems(t, CAP) == want
    if key == FRONTIER_EQUAL[0]:
        kddp = build_preserving("2ddp-kddp", t, {"k": 3}).target
        want = ref_chain_disjoint_path_systems(kddp, CAP)
        assert want
        assert disjoint_path_systems(kddp, CAP) == want


@pytest.mark.parametrize("key", sorted(FRONTIER_COUNTS), ids=frontier_id)
def test_2ddp_frontier_counts(key):
    t = frontier_target(*key)
    systems = disjoint_path_systems(t, CAP)
    assert len(systems) == FRONTIER_COUNTS[key]
    assert systems == sorted(set(systems))
    assert all(t.verify(m) for m in systems)


# ------------------------------------------------- the Steiner size frontier


def steiner_frontier_target(n_vars, n_clauses, draw):
    """A 3sat-steinertree target one step past the generator's ceiling of
    2 variables and 2 clauses."""
    return frontier_target(n_vars, n_clauses, draw, "3sat-steinertree")


# (variables, clauses, draw): trees at k, where the per-step-bound walk
# lists them in about a second or less
STEINER_FRONTIER_EQUAL = {(3, 2, 0): 6, (3, 2, 1): 10, (3, 2, 2): 4, (3, 3, 2): 17}
# (variables, clauses, draw): trees at k, which both walks list; the
# per-step-bound walk takes about 5 s, too long for the suite
STEINER_FRONTIER_COUNTS = {(3, 3, 0): 23}


@pytest.mark.parametrize("key", sorted(STEINER_FRONTIER_EQUAL), ids=frontier_id)
def test_steiner_frontier_equals_per_step_bound_walk(key):
    t = steiner_frontier_target(*key)
    want = ref_ball_steiner_trees_upto(t, t.k, CAP)
    assert len(want) == STEINER_FRONTIER_EQUAL[key]
    assert steiner_trees_upto(t, t.k, CAP) == want


@pytest.mark.parametrize("key", sorted(STEINER_FRONTIER_COUNTS), ids=frontier_id)
def test_steiner_frontier_counts(key):
    t = steiner_frontier_target(*key)
    trees = steiner_trees_upto(t, t.k, CAP)
    assert len(trees) == STEINER_FRONTIER_COUNTS[key]
    assert trees == sorted(set(trees))
    assert all(t.verify(m) for m in trees)


def test_cap_is_enforced_by_the_new_kernels():
    t = large_target("3sat-2ddp", 11)
    with pytest.raises(CapacityError):
        disjoint_path_systems(t, 9)
    assert len(disjoint_path_systems(t, 10)) == 10
    t = frontier_target(3, 2, 1)
    systems = disjoint_path_systems(t, CAP)
    with pytest.raises(CapacityError):
        disjoint_path_systems(t, len(systems) - 1)
    assert disjoint_path_systems(t, len(systems)) == systems
    t = large_target("3sat-steinertree", 15)
    for budget in (t.k, t.k + 1):  # the second overflows in branch growth
        trees = steiner_trees_upto(t, budget, CAP)
        with pytest.raises(CapacityError):
            steiner_trees_upto(t, budget, len(trees) - 1)
        assert steiner_trees_upto(t, budget, len(trees)) == trees
    # the same target with every cost shifted past 64 bits lists the same
    # trees and overflows at the same point
    wide = SteinerTreeInstance(
        t.n, t.edges, tuple(c << 70 for c in t.costs), t.terminals, t.k << 70
    )
    trees = steiner_trees_upto(t, t.k + 1, CAP)
    assert steiner_trees_upto(wide, wide.k + (1 << 70), CAP) == trees
    with pytest.raises(CapacityError):
        steiner_trees_upto(wide, wide.k + (1 << 70), len(trees) - 1)
    t = steiner_frontier_target(3, 2, 0)
    trees = steiner_trees_upto(t, t.k, CAP)
    with pytest.raises(CapacityError):
        steiner_trees_upto(t, t.k, len(trees) - 1)
    assert steiner_trees_upto(t, t.k, len(trees)) == trees
    # the route kinds that run another kind's search: directed cycles as
    # paths of the split graph, tours and undirected cycles each listed once
    cyc = build_preserving("dhampath-dhamcycle", large_target("3sat-dhampath", 28))
    complete = DirectedHamCycleInstance(
        5, tuple((u, v) for u in range(5) for v in range(5) if u != v)
    )
    uhc = build_preserving("dhamcycle-uhamcycle", complete)
    # only the 12 of K_7's 360 tours that use at most one edge of weight 1
    # count against the cap of S(I)
    heavy = TspInstance(7, (0, 1) * 10 + (1,), 1)
    for search, inst in (
        (ham_cycles_directed, cyc.target),
        (UHC.run, uhc.target),
        (TSP.run, TspInstance(7, (0,) * 21, 0)),
        (TSP.run, heavy),
    ):
        routes = search(inst, CAP)
        assert routes
        with pytest.raises(CapacityError):
            search(inst, len(routes) - 1)
        assert search(inst, len(routes)) == routes


def test_tsp_tours_equal_permutation_walk():
    """F(I) is every tour the permutation walk lists, whatever the weights;
    S(I) is the tours of F(I) within k, for weights of either sign and k
    below the cheapest tour, at it, between, at the dearest and above."""
    rng = random.Random("tsp-weights")
    # weights of either sign, and positive ones, which leave the search's
    # lower bound on the rest of a tour no slack to spare
    spans = ((-3, 5), (1, 9))
    for n in range(10):
        m = n * (n - 1) // 2
        want = ref_tsp_tours(TspInstance(n, (0,) * m, 0), CAP)
        assert len(want) == (math.factorial(n - 1) // 2 if n > 2 else 0)
        draws = [tuple(rng.randint(*span) for _ in range(m)) for span in spans]
        for weights in ((0,) * m, *draws):
            top = sum(max(w, 0) for w in weights)
            tours = TSP.search(TspInstance(n, weights, -1 << 40), top, CAP)
            assert tours == want
            cost = dict(zip(tours, map(TspInstance(n, weights, 0).weight, tours)))
            costs = sorted(cost.values()) or [0]
            low, high = costs[0], costs[-1]
            for k in (low - 1, low, costs[len(costs) // 2], high, high + 1):
                got = TSP.run(TspInstance(n, weights, k), CAP)
                assert got == [t for t in tours if cost[t] <= k], (n, weights, k)
        assert n < 3 or got == want


# the sources per edge of the acceptance corpus (tests/test_acceptance.py)
ACCEPTANCE_SOURCES = 500


def random_graphs(rng, count, max_n):
    """``count`` graphs of up to ``max_n`` vertices, of any density, with
    their edges in random order and orientation."""
    for _ in range(count):
        n = rng.randint(0, max_n)
        p = rng.random()
        edges = [e for e in complete_edges(n) if rng.random() < p]
        edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        rng.shuffle(edges)
        yield UndirectedHamCycleInstance(n, tuple(edges))


def test_undirected_cycles_equal_two_way_walk(monkeypatch):
    """The undirected cycle search turns back from a walk once every
    neighbour of 0 it may close on is visited, and where the degree rule
    leaves no cycle; it must append the cycles the two-way walk and the
    search before the degree rule appended, in the same order, so it
    reaches a cap at the same cycle."""
    appended = []

    class Recording(Capped):
        __slots__ = ()

        def append(self, mask):
            Capped.append(self, mask)
            appended.append(mask)

    monkeypatch.setattr(paths, "Capped", Recording)
    instances = {
        UndirectedHamCycleInstance(n, complete_edges(n)): None for n in range(3, 10)
    }
    for i in range(ACCEPTANCE_SOURCES):
        for edge in ("dhamcycle-uhamcycle", "uhamcycle-tsp"):
            rng = random.Random(repr(("acceptance", edge, i)))
            art = build_preserving(edge, random_source_for_edge(edge, rng))
            inst = art.target if edge == "dhamcycle-uhamcycle" else art.source
            instances.setdefault(inst, None)
    for inst in random_graphs(random.Random("uhc-graphs"), 300, 9):
        instances.setdefault(inst, None)
    counts = []
    for inst in instances:
        appended.clear()
        got = UHC.run(inst, CAP)
        want = ref_ham_cycles_undirected(inst, CAP)
        assert appended == want == ref_turning_back_cycles(inst, CAP), inst
        assert got == sorted(want), inst
        counts.append(len(want))
    assert 0 in counts and max(counts) == math.factorial(8) // 2


# ------------------------------------------------- the hitting-set kinds

HITTING_EDGES = ("vc-ds", "vc-hs", "vc-sc", "vc-fvs", "vc-fas")
# F(I) of the larger corpus targets holds up to 2^24 sets: it is compared
# up to this cap, past which both searches must raise alike; the guards
# read only the universe and vertex bounds
FAMILY_BOUNDS = Bounds(max_universe=24, max_solutions=4096, max_vertices=16384)


def ref_hitting(kind, inst, k, cap):
    """The family of at most k elements of a hitting-set kind, by the
    search that listed it before the shared one."""
    if kind is ProblemKind.DOMINATING_SET:
        return ref_dominating_upto(inst, k, cap)
    if kind is ProblemKind.FEEDBACK_ARC_SET:
        return ref_feedback_arcsets_upto(inst, k, cap)
    if kind is ProblemKind.SET_COVER:
        return ref_bounded_subsets(len(inst.subsets), k, _covers(inst), cap)
    if kind is ProblemKind.HITTING_SET:
        return ref_bounded_subsets(inst.ground_size, k, _hits(inst), cap)
    return ref_bounded_subsets(inst.n, k, inst.acyclic_after, cap)


def outcome(run):
    """What ``run()`` returns, or the message of the CapacityError it
    raises."""
    try:
        return run()
    except CapacityError as e:
        return str(e)


def hitting_families(kind, inst, solutions_cap=CAP, feasible_cap=CAP):
    """S(I) and F(I), each an outcome, by the shared search at k and at the
    universe size and by the reference; both run behind the kind's guard."""
    spec = KIND_SPECS[kind]
    families = ((inst.k, solutions_cap), (universe_size(inst), feasible_cap))

    def guarded(run):
        spec.guard.check(inst, FAMILY_BOUNDS)
        return run()

    shared = [
        outcome(lambda: guarded(lambda: spec.search(inst, k, cap)))
        for k, cap in families
    ]
    ref = [
        outcome(lambda: guarded(lambda: ref_hitting(kind, inst, k, cap)))
        for k, cap in families
    ]
    return shared, ref


@pytest.mark.parametrize("edge", HITTING_EDGES)
def test_hitting_set_kinds_equal_reference_on_corpus_targets(edge):
    kinds, sizes = set(), []
    for i in range(ACCEPTANCE_SOURCES):
        rng = random.Random(repr(("acceptance", edge, i)))
        art = build_preserving(edge, random_source_for_edge(edge, rng))
        kinds.add(art.target_kind)
        got, want = hitting_families(
            art.target_kind, art.target, feasible_cap=FAMILY_BOUNDS.max_solutions
        )
        assert got == want, (edge, i)
        sizes.append(got)
    assert len(kinds) == 1
    # the corpus has solutions, and feasible families that are listed or
    # overflow the cap (not only refused by the guard)
    assert any(s and not isinstance(s, str) for s, _ in sizes)
    assert any(not isinstance(f, str) or f.startswith("solution") for _, f in sizes)


def random_hitting_instances(rng):
    """One instance of each hitting-set kind, small enough for the
    brute-force references, with k from -1 to past the universe."""
    n = rng.randint(0, 7)
    edges = tuple(e for e in complete_edges(n) if rng.random() < 0.35)
    arcs = tuple(
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.25
    )
    ground = rng.randint(0, 7)
    subsets = tuple(
        tuple(rng.sample(range(ground), rng.randint(0, min(ground, 4))))
        for _ in range(rng.randint(0, 7))
    )

    def k(size):
        return rng.randint(-1, size + 1)

    return [
        (ProblemKind.DOMINATING_SET, DominatingSetInstance(n, edges, k(n))),
        (ProblemKind.SET_COVER, SetCoverInstance(ground, subsets, k(len(subsets)))),
        (ProblemKind.HITTING_SET, HittingSetInstance(ground, subsets, k(ground))),
        (ProblemKind.FEEDBACK_VERTEX_SET, FeedbackVertexSetInstance(n, arcs, k(n))),
        (ProblemKind.FEEDBACK_ARC_SET, FeedbackArcSetInstance(n, arcs, k(len(arcs)))),
    ]


def test_hitting_set_kinds_equal_reference_on_random_instances():
    rng = random.Random(29)
    seen = dict.fromkeys(("k<0", "k=0", "none", "capped"), 0)
    for _ in range(300):
        for kind, inst in random_hitting_instances(rng):
            got, want = hitting_families(kind, inst)
            assert got == want, (kind, inst)
            solutions, feasible = got
            assert solutions == powerset_filter(kind, inst), (kind, inst)
            if len(feasible) > 1:
                # one below the family's size, both raise alike
                cap = len(feasible) - 1
                got, want = hitting_families(kind, inst, cap, cap)
                assert got == want, (kind, inst)
                assert got[1] == "solution cap exceeded"
                seen["capped"] += 1
            seen["k<0"] += inst.k < 0
            seen["k=0"] += inst.k == 0
            seen["none"] += not feasible
    assert min(seen.values()) >= 20, seen


# (kind, instance, S(I)): the edge cases of the hitting-set search
HITTING_EDGE_CASES = (
    # an empty subset can be hit by nothing
    (ProblemKind.HITTING_SET, HittingSetInstance(3, ((0, 1), ()), 3), []),
    # nor can a ground element in no subset be covered
    (ProblemKind.SET_COVER, SetCoverInstance(3, ((0,), (1, 0)), 2), []),
    # on an empty universe the empty set is the one solution
    (ProblemKind.DOMINATING_SET, DominatingSetInstance(0, (), 0), [0]),
    (ProblemKind.SET_COVER, SetCoverInstance(0, (), 0), [0]),
    (ProblemKind.HITTING_SET, HittingSetInstance(0, (), 0), [0]),
    (ProblemKind.FEEDBACK_VERTEX_SET, FeedbackVertexSetInstance(0, (), 0), [0]),
    (ProblemKind.FEEDBACK_ARC_SET, FeedbackArcSetInstance(0, (), 0), [0]),
    # a digraph with no arcs needs nothing removed
    (ProblemKind.FEEDBACK_VERTEX_SET, FeedbackVertexSetInstance(4, (), 0), [0]),
    (ProblemKind.FEEDBACK_ARC_SET, FeedbackArcSetInstance(4, (), 2), [0]),
    # k = 0 with a constraint left
    (ProblemKind.DOMINATING_SET, DominatingSetInstance(1, (), 0), []),
    (ProblemKind.FEEDBACK_ARC_SET, FeedbackArcSetInstance(2, ((0, 1), (1, 0)), 0), []),
    # a negative k lists nothing, even with no constraint
    (ProblemKind.HITTING_SET, HittingSetInstance(2, (), -1), []),
    # a path's middle vertex dominates it; a 2-cycle loses either vertex
    (ProblemKind.DOMINATING_SET, DominatingSetInstance(3, ((0, 1), (1, 2)), 1), [2]),
    (
        ProblemKind.FEEDBACK_VERTEX_SET,
        FeedbackVertexSetInstance(3, ((0, 1), (1, 0)), 1),
        [1, 2],
    ),
)


@pytest.mark.parametrize("kind,inst,solutions", HITTING_EDGE_CASES)
def test_hitting_set_edge_cases(kind, inst, solutions):
    got, want = hitting_families(kind, inst)
    assert got == want
    assert got[0] == solutions
    feasible = got[1]
    assert feasible == powerset_filter_any_size(kind, inst)
    for cap in range(len(feasible)):
        got, want = hitting_families(kind, inst, feasible_cap=cap)
        assert got == want
        assert got[1] == "solution cap exceeded"


def powerset_filter_any_size(kind, inst):
    """F(I): the sets its verifier accepts once k is the universe size."""
    size = universe_size(inst)
    unbounded = dataclasses.replace(inst, k=size)
    return [m for m in range(1 << size) if verify(kind, unbounded, m)]


def test_cycle_finder_equals_rebuilding_reference():
    # the adjacency lists are built once per graph and removed arcs are
    # skipped in the walk: the same cycle in the same order, or None alike
    rng = random.Random(31)
    seen = {"cycle": 0, "none": 0, "removed": 0}
    for _ in range(300):
        n = rng.randint(0, 8)
        arcs = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))
        )
        out = _out_arcs(n, arcs)
        for _ in range(4):
            removed = rng.getrandbits(len(arcs) + 1) & rng.getrandbits(len(arcs) + 1)
            want = ref_find_cycle_arcs(n, arcs, removed)
            assert _find_cycle_arcs(out, removed) == want, (n, arcs, removed)
            seen["cycle" if want else "none"] += 1
            seen["removed"] += bool(want) and removed & (1 << len(arcs)) - 1 != 0
    assert min(seen.values()) >= 100, seen


# ------------------------------------------------- the number kinds

NUMBER_EDGES = (
    "3sat-subsetsum",
    "subsetsum-knapsack",
    "subsetsum-partition",
    "partition-scheduling",
)


def number_outcomes(kind, inst, cap):
    """S(I) by the window search and by the reference, each an outcome."""
    run = KIND_SPECS[kind].run
    return (
        outcome(lambda: run(inst, cap)),
        outcome(lambda: ref_number_solutions(kind, inst, cap)),
    )


def assert_number_family_equals_reference(kind, inst):
    got, want = number_outcomes(kind, inst, CAP)
    assert got == want, (kind, inst)
    if want:
        # one below the family's size, both raise alike
        got, want = number_outcomes(kind, inst, len(want) - 1)
        assert got == want == "solution cap exceeded", (kind, inst)
    return want


@pytest.mark.parametrize("edge", NUMBER_EDGES)
def test_number_kinds_equal_reference_on_corpus_targets(edge):
    sizes = []
    for i in range(ACCEPTANCE_SOURCES):
        rng = random.Random(repr(("acceptance", edge, i)))
        src = random_source_for_edge(edge, rng)
        if edge in BLOWUP_EDGES:
            lb = random_lb(rng, src)
            arts = [build_blowup(edge, src, lb, m) for m in DistanceMeasure]
        else:
            arts = [build_preserving(edge, src)]
        for art in arts:
            pairs = ((art.source_kind, art.source), (art.target_kind, art.target))
            for kind, inst in pairs:
                if kind is not ProblemKind.THREE_SAT:
                    sizes.append(len(assert_number_family_equals_reference(kind, inst)))
    assert 0 in sizes and max(sizes) > 1


def random_number_instances(rng):
    """One instance of each number kind, with repeated values, empty
    universes, odd partition totals and windows that are empty, lie below
    0 or above the total, or are reversed (lo > hi)."""
    n = rng.randint(0, 12)
    values = tuple(rng.choice((1, 2, 2, 3, 5, 8)) for _ in range(n))
    total = sum(values)
    items = tuple((v, rng.randint(1, 5)) for v in values)
    out = [
        (ProblemKind.SUBSET_SUM, SubsetSumInstance(values, rng.randint(-2, total + 2))),
        (
            ProblemKind.KNAPSACK,
            KnapsackInstance(items, rng.randint(-2, total + 2), rng.randint(1, 30)),
        ),
    ]
    if n:
        out += [
            (ProblemKind.PARTITION, PartitionInstance(values)),
            (
                ProblemKind.SCHEDULING,
                SchedulingInstance(values, rng.randint(-1, total + 1)),
            ),
        ]
    return out


def test_number_kinds_equal_reference_on_random_instances():
    rng = random.Random(37)
    seen = dict.fromkeys(("lo>hi", "odd", "empty", "listed"), 0)
    for _ in range(300):
        for kind, inst in random_number_instances(rng):
            family = assert_number_family_equals_reference(kind, inst)
            seen["empty"] += not family
            seen["listed"] += len(family) > 1
            if kind is ProblemKind.PARTITION:
                seen["odd"] += sum(inst.values) % 2
            if kind is ProblemKind.SCHEDULING:
                seen["lo>hi"] += sum(inst.times) - inst.deadline > inst.deadline
    assert min(seen.values()) >= 20, seen


def test_knapsack_counts_only_its_solutions_against_the_cap():
    # all 7 nonempty sets reach the price goal, but only the 3 singletons
    # stay within the weight cap, and the walk prunes on the weight: a cap
    # of 3 lists them, and only a cap of 2 is exceeded
    inst = KnapsackInstance(((1, 1), (1, 1), (1, 1)), 1, 1)
    assert KIND_SPECS[ProblemKind.KNAPSACK].run(inst, 3) == [1, 2, 4]
    with pytest.raises(CapacityError, match="solution cap exceeded"):
        KIND_SPECS[ProblemKind.KNAPSACK].run(inst, 2)


def test_packings_equal_powerset_filter():
    # the include/exclude walk lists the sets whose price reaches the goal
    # and whose weight is within the budget, and raises only once more
    # than the cap of them are listed
    rng = random.Random(43)
    seen = {"listed": 0, "weight cuts": 0, "empty": 0}
    for _ in range(400):
        n = rng.randint(0, 12)
        prices = tuple(rng.choice((1, 2, 2, 3, 5, 8, 13)) for _ in range(n))
        weights = tuple(rng.randint(1, 9) for _ in range(n))
        goal = rng.randint(-2, sum(prices) + 2)
        budget = rng.randint(-2, sum(weights) + 2)

        def total(values, m):
            return sum(v for i, v in enumerate(values) if m >> i & 1)

        reach = [m for m in range(1 << n) if total(prices, m) >= goal]
        want = [m for m in reach if total(weights, m) <= budget]
        assert packings(prices, goal, weights, budget, len(want)) == want
        if want:
            with pytest.raises(CapacityError, match="^solution cap exceeded$"):
                packings(prices, goal, weights, budget, len(want) - 1)
        seen["listed"] += len(want) > 1
        seen["weight cuts"] += len(want) < len(reach)
        seen["empty"] += not want
    assert min(seen.values()) >= 50, seen


def test_masked_sum_equals_bit_loop():
    # the mask's binary digits select the values, on masks up to 100 bits
    # wide; a negative mask is refused
    rng = random.Random(47)
    for _ in range(500):
        n = rng.randint(0, 100)
        values = tuple(rng.randint(-5, 1 << 70) for _ in range(n))
        mask = rng.getrandbits(n) if n else 0
        want = sum(v for i, v in enumerate(values) if mask >> i & 1)
        assert _masked_sum(values, mask) == want, (values, mask)
    with pytest.raises(DomainError, match="negative element set"):
        _masked_sum((1, 2), -1)


def test_largest_first_window_search_equals_index_order():
    rng = random.Random(41)
    listed = 0
    for _ in range(400):
        n = rng.randint(0, 14)
        values = tuple(rng.choice((1, 2, 2, 3, 5, 8, 13, 21)) for _ in range(n))
        total = sum(values)
        lo, hi = rng.randint(-2, total + 2), rng.randint(-2, total + 2)
        want = ref_sums_between(values, lo, hi, CAP)
        # the cap counts the whole family, whatever the branch order
        assert sums_between(values, lo, hi, len(want)) == want, (values, lo, hi)
        if want:
            with pytest.raises(CapacityError, match="^solution cap exceeded$"):
                sums_between(values, lo, hi, len(want) - 1)
        listed += len(want) > 1
    assert listed >= 100


# ------------------------------------------------- p-center

P_CENTER = ProblemKind.P_CENTER


def pcenter_outcomes(inst, cap):
    """S(I) of a p-center instance, or the message of its CapacityError, by
    the hitting-set search behind the kind's guard and by the scan."""

    def shared():
        spec = KIND_SPECS[P_CENTER]
        spec.guard.check(inst, BOUNDS)
        return list(spec.run(inst, cap))

    return outcome(shared), outcome(lambda: ref_facility_scan(inst, cap))


def assert_pcenter_equals_scan(inst):
    """Equal families, and equal errors one below the family's size; the
    family is returned."""
    family, want = pcenter_outcomes(inst, CAP)
    assert family == want, inst
    if family:
        got, want = pcenter_outcomes(inst, len(family) - 1)
        assert got == want == "solution cap exceeded", inst
    return family


def test_pcenter_equals_scan_on_corpus_targets():
    sizes = []
    for i in range(ACCEPTANCE_SOURCES):
        rng = random.Random(repr(("acceptance", "vc-pcenter", i)))
        art = build_preserving("vc-pcenter", random_source_for_edge("vc-pcenter", rng))
        assert art.target_kind is P_CENTER
        sizes.append(len(assert_pcenter_equals_scan(art.target)))
    assert 0 in sizes and max(sizes) > 1


def random_pcenter_instance(rng):
    """Up to 6 facilities and 5 clients, service costs from -2, and p and
    k from -1 and -2."""
    n_fac, n_clients = rng.randint(0, 6), rng.randint(0, 5)
    service = tuple(
        tuple(rng.randint(-2, 6) for _ in range(n_clients)) for _ in range(n_fac)
    )
    return PCenterInstance(
        n_fac, n_clients, service, rng.randint(-1, n_fac + 1), rng.randint(-2, 6)
    )


def test_pcenter_equals_scan_on_random_instances():
    rng = random.Random(37)
    seen = dict.fromkeys(("p<0", "k<0", "no clients", "no facilities", "capped"), 0)
    for _ in range(2000):
        inst = random_pcenter_instance(rng)
        family = assert_pcenter_equals_scan(inst)
        assert family == powerset_filter(P_CENTER, inst), inst
        seen["p<0"] += inst.p < 0
        seen["k<0"] += inst.k < 0
        seen["no clients"] += not inst.n_clients
        seen["no facilities"] += not inst.n_facilities
        seen["capped"] += bool(family)
    assert min(seen.values()) >= 50, seen


# ------------------------------------------------- reference searches
#
# The searches the chain-step and bitset kernels replaced: one recursive
# call per vertex, and a scan of the whole edge list per search node.


def ref_ham_paths(inst, cap):
    n = inst.n
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(inst.arcs):
        adj[u].append((i, v))
    full = (1 << n) - 1
    out = []

    def dfs(cur, visited, arcmask):
        if cur == inst.t:
            if visited == full:
                out.append(arcmask)
                if len(out) > cap:
                    raise CapacityError("solution cap exceeded")
            return
        for i, v in adj[cur]:
            if not visited >> v & 1:
                dfs(v, visited | 1 << v, arcmask | 1 << i)

    dfs(inst.s, 1 << inst.s, 0)
    out.sort()
    return out


def ref_ham_cycles_directed(inst, cap):
    n = inst.n
    if n < 2:
        return []
    adj = [[] for _ in range(n)]
    closing = {}
    for i, (u, v) in enumerate(inst.arcs):
        adj[u].append((i, v))
        if v == 0:
            closing[u] = i
    full = (1 << n) - 1
    out = []

    def dfs(cur, visited, arcmask):
        if visited == full:
            if cur in closing:
                out.append(arcmask | 1 << closing[cur])
                if len(out) > cap:
                    raise CapacityError("solution cap exceeded")
            return
        for i, v in adj[cur]:
            if v != 0 and not visited >> v & 1:
                dfs(v, visited | 1 << v, arcmask | 1 << i)

    dfs(0, 1, 0)
    out.sort()
    return out


def ref_tsp_tours(inst, cap):
    # every permutation of 1..n-1 after 0, each undirected tour once
    n = inst.n
    if n < 3:
        return []
    order = [(u, v) for u in range(n) for v in range(u + 1, n)]
    idx = {e: i for i, e in enumerate(order)}
    out = []
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        cycle = [0, *perm]
        mask = 0
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            mask |= 1 << idx[(min(a, b), max(a, b))]
        out.append(mask)
        if len(out) > cap:
            raise CapacityError("solution cap exceeded")
    out.sort()
    return out


def ref_adjacency(inst):
    adj = [[] for _ in range(inst.n)]
    for i, (u, v) in enumerate(inst.edges):
        adj[u].append((i, v))
        adj[v].append((i, u))
    return adj


def ref_ham_cycles_undirected(inst, cap):
    # the undirected cycle search that walked every cycle in both
    # directions and dropped one at the leaf; the cycles in append order
    n = inst.n
    if n < 3:
        return []
    adj = ref_adjacency(inst)
    closing = {v: i for i, v in adj[0]}
    full = (1 << n) - 1
    out = []

    def dfs(cur, visited, edgemask):
        if visited == full:
            if cur > first and cur in closing:
                out.append(edgemask | 1 << closing[cur])
                if len(out) > cap:
                    raise CapacityError("solution cap exceeded")
            return
        for i, v in adj[cur]:
            if not visited >> v & 1:
                dfs(v, visited | 1 << v, edgemask | 1 << i)

    for i, first in adj[0]:
        dfs(first, 1 | 1 << first, 1 << i)
    return out


def ref_turning_back_cycles(inst, cap):
    # the undirected cycle search before the degree rule and the weight
    # budget, which turned back once every neighbour of 0 above the first
    # was visited; the cycles in append order
    n = inst.n
    if n < 3:
        return []
    adj = ref_adjacency(inst)
    closing = {v: i for i, v in adj[0]}
    full = (1 << n) - 1
    out = Capped(cap)

    def dfs(cur, visited, edgemask):
        if visited == full:
            if above >> cur & 1:
                out.append(edgemask | 1 << closing[cur])
            return
        if not above & ~visited:
            return
        for i, v in adj[cur]:
            if not visited >> v & 1:
                dfs(v, visited | 1 << v, edgemask | 1 << i)

    for i, first in adj[0]:
        above = mask_of(v for v in closing if v > first)
        dfs(first, 1 | 1 << first, 1 << i)
    return list(out)


def ref_dominating_upto(inst, k, cap):
    # the dominating-set search the shared hitting-set search replaced
    if k < 0:
        return []
    n = inst.n
    nbs = inst.closed_neighborhoods()
    full = (1 << n) - 1
    out = []

    def lb(undominated, banned):
        cnt = 0
        taken = 0
        m = undominated
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            reach = nbs[u] & ~banned
            if reach and not (reach & taken):
                taken |= reach
                cnt += 1
        return cnt

    def rec(chosen, banned, undominated, budget):
        if not undominated:
            free = [i for i in range(n) if not ((chosen >> i | banned >> i) & 1)]
            _ref_pad_supersets(chosen, free, budget, out, cap)
            return
        if budget == 0 or lb(undominated, banned) > budget:
            return
        best_c = None
        m = undominated
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            cands = nbs[u] & ~banned
            if best_c is None or cands.bit_count() < best_c.bit_count():
                best_c = cands
        c = best_c
        while c:
            w = (c & -c).bit_length() - 1
            c &= c - 1
            rec(chosen | 1 << w, banned, undominated & ~nbs[w], budget - 1)
            banned |= 1 << w

    rec(0, 0, full, k)
    out.sort()
    return out


def ref_feedback_arcsets_upto(inst, k, cap):
    # the feedback-arc-set search the shared hitting-set search replaced:
    # the arcs of one cycle in cycle order
    if k < 0:
        return []
    n, arcs = inst.n, inst.arcs
    out = []

    def rec(removed, banned, budget):
        cyc = ref_find_cycle_arcs(n, arcs, removed)
        if cyc is None:
            free = [
                i for i in range(len(arcs)) if not ((removed >> i | banned >> i) & 1)
            ]
            _ref_pad_supersets(removed, free, budget, out, cap)
            return
        if budget == 0:
            return
        for idx in cyc:
            if banned >> idx & 1:
                continue
            rec(removed | 1 << idx, banned, budget - 1)
            banned |= 1 << idx

    rec(0, 0, k)
    out.sort()
    return out


def ref_find_cycle_arcs(n, arcs, removed_mask):
    # the cycle finder before it took adjacency lists built once per graph:
    # it rebuilt them without the removed arcs at every call
    out = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(arcs):
        if not (removed_mask >> idx) & 1:
            out[u].append((idx, v))
    color = [0] * n  # 0 white, 1 gray, 2 black
    stack_arcs = []
    path = []

    def dfs(u):
        color[u] = 1
        path.append(u)
        for idx, v in out[u]:
            if color[v] == 0:
                stack_arcs.append(idx)
                r = dfs(v)
                if r is not None:
                    return r
                stack_arcs.pop()
            elif color[v] == 1:
                pos = path.index(v)
                return stack_arcs[pos:] + [idx]
        color[u] = 2
        path.pop()
        return None

    for s in range(n):
        if color[s] == 0:
            res = dfs(s)
            if res is not None:
                return res
    return None


def ref_subset_dfs(values, accept, prune, cap):
    # the include/exclude walk the window search replaced: ``prune(cur, i,
    # suffix)`` may cut a branch after the first i elements, and
    # ``accept(cur)`` judges full selections
    n = len(values)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    out = Capped(cap)

    def rec(i, cur, mask):
        if prune(cur, i, suffix):
            return
        if i == n:
            if accept(cur):
                out.append(mask)
            return
        rec(i + 1, cur, mask)
        rec(i + 1, cur + values[i], mask | 1 << i)

    rec(0, 0, 0)
    out.sort()
    return out


def ref_sums_between(values, lo, hi, cap):
    # the window search before it took the values largest first: it
    # branches on the values in index order
    n = len(values)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    out = Capped(cap)

    def rec(i, cur, mask):
        if i == n:
            out.append(mask)
            return
        j = i + 1
        if cur + suffix[j] >= lo:
            rec(j, cur, mask)
        cur += values[i]
        if cur <= hi:
            rec(j, cur, mask | 1 << i)

    if 0 <= hi and suffix[0] >= lo:
        rec(0, 0, 0)
    out.sort()
    return out


def ref_subsetsum_solutions(inst, cap):
    M = inst.target
    return ref_subset_dfs(
        inst.values,
        accept=lambda cur: cur == M,
        prune=lambda cur, i, suf: cur > M or cur + suf[i] < M,
        cap=cap,
    )


def ref_knapsack_solutions(inst, cap):
    prices = tuple(p for p, _ in inst.items)
    sols = ref_subset_dfs(
        prices,
        accept=lambda cur: cur >= inst.price_goal,
        prune=lambda cur, i, suf: cur + suf[i] < inst.price_goal,
        cap=cap,
    )
    return [m for m in sols if inst.weight(m) <= inst.weight_cap]


def ref_partition_solutions(inst, cap):
    total = sum(inst.values)
    if total % 2:
        return []
    half = total // 2
    head = inst.values[:-1]
    return ref_subset_dfs(
        head,
        accept=lambda cur: cur == half,
        prune=lambda cur, i, suf: cur > half or cur + suf[i] < half,
        cap=cap,
    )


def ref_scheduling_solutions(inst, cap):
    total = sum(inst.times)
    T = inst.deadline
    head = inst.times[:-1]
    return ref_subset_dfs(
        head,
        accept=lambda cur: cur <= T and total - cur <= T,
        prune=lambda cur, i, suf: cur > T or cur + suf[i] < total - T,
        cap=cap,
    )


def ref_number_solutions(kind, inst, cap):
    """S(I) of a number kind, by the search that listed it before the
    window search."""
    return {
        ProblemKind.SUBSET_SUM: ref_subsetsum_solutions,
        ProblemKind.KNAPSACK: ref_knapsack_solutions,
        ProblemKind.PARTITION: ref_partition_solutions,
        ProblemKind.SCHEDULING: ref_scheduling_solutions,
    }[kind](inst, cap)


def ref_facility_scan(inst, cap):
    # the scan of every facility mask, filtered by verify, that listed
    # p-center solutions before the hitting-set search did
    out = Capped(cap)
    for mask in filter(inst.verify, range(1 << inst.n_facilities)):
        out.append(mask)
    return out


def ref_bounded_subsets(n, k, pred, cap):
    # the filter over every set of at most k elements that listed set
    # covers, hitting sets and feedback vertex sets
    out = []
    for size in range(min(k, n) + 1):
        for combo in itertools.combinations(range(n), size):
            m = mask_of(combo)
            if pred(m):
                out.append(m)
                if len(out) > cap:
                    raise CapacityError("solution cap exceeded")
    out.sort()
    return out


def ref_disjoint_path_systems(inst, cap):
    n = inst.n
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(inst.arcs):
        adj[u].append((i, v))
    terminals = set(x for p in inst.pairs for x in p)
    out = []
    pairs = inst.pairs

    def route(pi, usedv, arcmask):
        if pi == len(pairs):
            out.append(arcmask)
            if len(out) > cap:
                raise CapacityError("solution cap exceeded")
            return
        s, t = pairs[pi]
        if usedv >> s & 1:
            return

        def dfs(cur, usedv2, am):
            if cur == t:
                route(pi + 1, usedv2, am)
                return
            for i, v in adj[cur]:
                if usedv2 >> v & 1:
                    continue
                if v in terminals and v != t:
                    continue
                dfs(v, usedv2 | 1 << v, am | 1 << i)

        dfs(s, usedv | 1 << s, arcmask)

    route(0, 0, 0)
    out.sort()
    return out


def ref_chain_disjoint_path_systems(inst, cap):
    # the chain-step search the pruned one replaced: it routes each pair
    # in full and tests only at the start of a later pair that the pair
    # can still be joined
    pairs = inst.pairs
    terminals = set(x for p in pairs for x in p)
    steps = _chains(inst.n, inst.arcs, terminals)
    tmask = mask_of(terminals)
    out = []

    def reaches(s, t, blocked):
        seen, stack = 1 << s, [s]
        while stack:
            for v, _, _ in steps[stack.pop()]:
                if v == t:
                    return True
                if not (blocked | seen) >> v & 1:
                    seen |= 1 << v
                    stack.append(v)
        return False

    def route(pi, usedv, arcmask):
        if pi == len(pairs):
            out.append(arcmask)
            if len(out) > cap:
                raise CapacityError("solution cap exceeded")
            return
        s, t = pairs[pi]
        blocked = tmask & ~(1 << t)
        if pi and not reaches(s, t, usedv | blocked):
            return

        def dfs(cur, usedv2, am):
            if cur == t:
                route(pi + 1, usedv2, am)
                return
            for v, vm, sam in steps[cur]:
                if not (usedv2 | blocked) >> v & 1:
                    dfs(v, usedv2 | vm, am | sam)

        dfs(s, usedv | 1 << s, arcmask)

    route(0, 0, 0)
    out.sort()
    return out


def _ref_pad_supersets(base, free, budget, out, cap):
    out.append(base)
    if len(out) > cap:
        raise CapacityError("solution cap exceeded")
    if budget <= 0:
        return
    for i, v in enumerate(free):
        _ref_pad_supersets(base | 1 << v, free[i + 1 :], budget - 1, out, cap)


def ref_covers_upto(n, edges, k, cap):
    if k < 0:
        return []
    edges = list(edges)
    out = []

    def matching_lb(chosen):
        used = chosen
        cnt = 0
        for u, v in edges:
            if (used >> u | used >> v) & 1:
                continue
            used |= (1 << u) | (1 << v)
            cnt += 1
        return cnt

    def rec(chosen, banned, budget):
        while True:
            forced = -1
            for u, v in edges:
                if (chosen >> u | chosen >> v) & 1:
                    continue
                bu = banned >> u & 1
                bv = banned >> v & 1
                if bu and bv:
                    return
                if bu:
                    forced = v
                    break
                if bv:
                    forced = u
                    break
            if forced < 0:
                break
            if budget == 0:
                return
            chosen |= 1 << forced
            budget -= 1
        target = None
        for u, v in edges:
            if not ((chosen >> u | chosen >> v) & 1):
                target = (u, v)
                break
        if target is None:
            free = [i for i in range(n) if not ((chosen >> i | banned >> i) & 1)]
            _ref_pad_supersets(chosen, free, budget, out, cap)
            return
        if budget == 0 or matching_lb(chosen) > budget:
            return
        u, v = target
        rec(chosen | 1 << u, banned, budget - 1)
        rec(chosen, banned | 1 << u, budget)

    rec(0, 0, k)
    out.sort()
    return out


def ref_packed_covers_upto(n, edges, k, cap):
    """The cover search that took its greedy packing of triangles and edges
    afresh over the free vertices at every node where it could exceed the
    budget, and scanned for the branching vertex and for a free edge."""
    if k < 0:
        return []
    nb = [0] * n
    for u, v in edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    full = (1 << n) - 1
    out = Capped(cap)

    def rec(chosen, banned, budget):
        free = full & ~(chosen | banned)
        m = free
        while m:
            low = m & -m
            if nb[low.bit_length() - 1] & free:
                break
            m ^= low
        if not m:
            if budget:
                _pad_supersets(chosen, indices_of(free), budget, out)
            else:
                out.append(chosen)
            return
        if not budget:
            return
        x = low.bit_length() - 1
        if 3 * budget < 2 * m.bit_count():
            need = 0
            while m:
                low = m & -m
                m ^= low
                mates = nb[low.bit_length() - 1] & m
                if mates:
                    v = mates & -mates
                    m ^= v
                    common = mates & nb[v.bit_length() - 1]
                    if common:
                        m ^= common & -common
                        need += 2
                    else:
                        need += 1
                    if need > budget:
                        return
        rec(chosen | 1 << x, banned, budget - 1)
        forced = nb[x] & free
        if forced.bit_count() <= budget:
            rec(chosen | forced, banned | 1 << x, budget - forced.bit_count())

    try:
        rec(0, 0, k)
    finally:
        del rec
    out.sort()
    return out


def ref_independent_sets_atleast(n, edges, k, cap):
    full = (1 << n) - 1
    return sorted(full ^ c for c in ref_covers_upto(n, edges, n - k, cap))


def ref_steiner_trees_upto(inst, budget, cap):
    if budget < 0:
        return []
    n, edges, costs = inst.n, inst.edges, inst.costs
    terminals = tuple(dict.fromkeys(inst.terminals))
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((i, v))
        adj[v].append((i, u))
    out = []

    t_near, t_near_claim, t_far, t_far_claim, t_nbrs = {}, {}, {}, {}, {}
    for t in set(terminals):
        eset1 = 0
        cheapest = None
        nbrs = 0
        for i, y in adj[t]:
            eset1 |= 1 << i
            nbrs |= 1 << y
            if cheapest is None or costs[i] < cheapest:
                cheapest = costs[i]
        t_nbrs[t] = nbrs
        if cheapest is None:
            t_near[t] = None
            continue
        t_near[t], t_near_claim[t] = eset1, cheapest
        eset2 = eset1
        second = None
        for i, y in adj[t]:
            for i2, _ in adj[y]:
                eset2 |= 1 << i2
                if i2 != i and (second is None or costs[i2] < second):
                    second = costs[i2]
        t_far[t] = eset2
        t_far_claim[t] = cheapest + (second or 0)

    def remaining_lb(tree_v, skip):
        total = 0
        used = 0
        for t in terminals:
            if t == skip or tree_v >> t & 1:
                continue
            if t_near[t] is None:
                return None
            if t_nbrs[t] & tree_v:
                claim, eset = t_near_claim[t], t_near[t]
            else:
                claim, eset = t_far_claim[t], t_far[t]
            if eset & used:
                continue
            total += claim
            used |= eset
        return total

    def extensions(tree_v, mask, cost, banned):
        pivot, grow = -1, -1
        tv = tree_v
        while tv:
            x = (tv & -tv).bit_length() - 1
            tv &= tv - 1
            for i, y in adj[x]:
                if banned >> i & 1 or mask >> i & 1 or tree_v >> y & 1:
                    continue
                if pivot < 0 or i < pivot:
                    pivot, grow = i, y
        if pivot < 0:
            return
        if cost + costs[pivot] <= budget:
            out.append(mask | 1 << pivot)
            if len(out) > cap:
                raise CapacityError("solution cap exceeded")
            extensions(
                tree_v | 1 << grow, mask | 1 << pivot, cost + costs[pivot], banned
            )
        extensions(tree_v, mask, cost, banned | 1 << pivot)

    def attach_next(tree_v, mask, cost):
        t = next((x for x in terminals if not tree_v >> x & 1), None)
        if t is None:
            out.append(mask)
            if len(out) > cap:
                raise CapacityError("solution cap exceeded")
            extensions(tree_v, mask, cost, 0)
            return

        def dfs(cur, pv, pmask, pcost):
            lb = remaining_lb(tree_v | pv, t)
            if lb is None or cost + pcost + lb > budget:
                return
            if tree_v >> cur & 1:
                attach_next(tree_v | pv, mask | pmask, cost + pcost)
                return
            for i, y in adj[cur]:
                if pv >> y & 1 or mask >> i & 1:
                    continue
                dfs(y, pv | 1 << y, pmask | 1 << i, pcost + costs[i])

        dfs(t, 1 << t, 0, 0)

    attach_next(1 << terminals[0], 0, 0)
    out.sort()
    return out


# The Steiner walk before its distance vectors were interned: the same
# ball bound, evaluated afresh at every step off the tree, and the ball
# tables built from a sorted (distance, vertex) list.  The interned walk
# must list the same trees in the same order.
def ref_ball_steiner_trees_upto(inst, budget, cap):
    if budget < 0:
        return []
    n, edges, costs = inst.n, inst.edges, inst.costs
    terminals = tuple(dict.fromkeys(inst.terminals))
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((i, v))
        adj[v].append((i, u))
    out = []

    # Lower bound on the cost still to add.  Let P be the partial tree (the
    # tree plus the path being walked) and x a terminal outside it.  The
    # final tree joins x to P by a path whose part within distance r of x,
    # for any r <= d(x, P), costs at least r and uses only edges with an
    # endpoint closer than r to x, none of them in P.  Such balls around
    # several terminals, taken with disjoint edge sets, add up.  Each
    # terminal claims the largest radius up to d(x, P) whose ball misses
    # the balls already claimed.
    inf = sum(costs) + 1
    dist = [[inf] * len(terminals) for _ in range(n)]
    balls = []
    for j, x in enumerate(terminals):
        dist[x][j] = 0
        heap = [(0, x)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u][j]:
                continue
            for i, y in adj[u]:
                if d + costs[i] < dist[y][j]:
                    dist[y][j] = d + costs[i]
                    heapq.heappush(heap, (d + costs[i], y))
        # radius -> (edges with an endpoint closer than it, next smaller radius)
        ball, inside, prev = {}, 0, 0
        for r, u in sorted((dist[u][j], u) for u in range(n) if dist[u][j] < inf):
            if r > prev:
                ball[r] = (inside, prev)
                prev = r
            for i, _ in adj[u]:
                inside |= 1 << i
        balls.append(ball)
    dist = [tuple(row) for row in dist]
    # terminals close to another one claim first: their balls are small
    order = sorted(
        range(len(terminals)),
        key=lambda j: min(
            (dist[y][j] for y in terminals if y != terminals[j]), default=inf
        ),
    )

    def remaining_lb(near, pending):
        # near[j]: the distance from terminal j to P; pending: the
        # terminals, in claiming order, not in the tree
        total = used = 0
        for j in pending:
            r = near[j]
            if not r:
                continue
            if r == inf:
                return inf  # unreachable: no tree completes this one
            ball = balls[j]
            eset, smaller = ball[r]
            while eset & used and smaller:
                r = smaller
                eset, smaller = ball[r]
            if not eset & used:
                total += r
                used |= eset
        return total

    inc = [0] * n
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i

    def extensions(tree_v, mask, cost, cut, banned):
        # the caller emitted `mask`; grow it edge by edge, branching on the
        # smallest frontier edge (include vs ban) so every tree is created
        # exactly once.  `cut` holds the edges with exactly one endpoint in
        # the tree, so the frontier is `cut & ~banned`
        free = cut & ~banned
        if not free:
            return
        pivot = (free & -free).bit_length() - 1
        if cost + costs[pivot] <= budget:
            out.append(mask | 1 << pivot)
            if len(out) > cap:
                raise CapacityError("solution cap exceeded")
            u, v = edges[pivot]
            grow = v if tree_v >> u & 1 else u
            extensions(
                tree_v | 1 << grow,
                mask | 1 << pivot,
                cost + costs[pivot],
                cut ^ inc[grow],
                banned,
            )
        extensions(tree_v, mask, cost, cut, banned | 1 << pivot)

    # the attach walk stands only on terminals and vertices of degree other
    # than 2; a degree-2 non-terminal is in the tree only together with its
    # whole chain, so a walk that enters a chain always runs through it,
    # and the distance to a chain's inside is at least that to its ends
    inner = [len(adj[x]) == 2 for x in range(n)]
    for x in terminals:
        inner[x] = False
    steps = [[] for _ in range(n)]
    for x in range(n):
        if inner[x]:
            continue
        for i, y in adj[x]:
            vm, em, c = 0, 1 << i, costs[i]
            while inner[y]:
                vm |= 1 << y
                i, y = next(e for e in adj[y] if e[0] != i)
                em |= 1 << i
                c += costs[i]
            steps[x].append((y, vm | 1 << y, em, c))

    def attach_next(tree_v, mask, cost, near):
        # callers check the bound while the next terminal is still out
        t = next((x for x in terminals if not tree_v >> x & 1), None)
        if t is None:
            out.append(mask)
            if len(out) > cap:
                raise CapacityError("solution cap exceeded")
            cut = 0
            tv = tree_v
            while tv:
                low = tv & -tv
                cut ^= inc[low.bit_length() - 1]
                tv ^= low
            extensions(tree_v, mask, cost, cut, 0)
            return
        near = list(map(min, near, dist[t]))
        pending = [j for j in order if near[j]]

        def dfs(cur, pv, pmask, pcost, near, lb):
            # lb = remaining_lb(near, pending), computed by the caller
            for y, vm, em, c in steps[cur]:
                if pv >> y & 1:
                    continue
                if tree_v >> y & 1:
                    # every tree vertex outside a chain was a path start or
                    # a step end, so dist[y] is already folded into `near`:
                    # min(near, dist[y]) == near, and its bound is lb
                    if cost + pcost + c + lb <= budget:
                        attach_next(
                            tree_v | pv | vm, mask | pmask | em, cost + pcost + c, near
                        )
                    continue
                near_y = list(map(min, near, dist[y]))
                lb_y = remaining_lb(near_y, pending)
                if cost + pcost + c + lb_y <= budget:
                    dfs(y, pv | vm, pmask | em, pcost + c, near_y, lb_y)

        try:
            dfs(t, 1 << t, 0, 0, near, remaining_lb(near, pending))
        finally:
            del dfs

    # the searches recurse through their own closure cells; emptying the
    # cells frees the tables now instead of at a later cyclic collection
    try:
        attach_next(1 << terminals[0], 0, 0, dist[terminals[0]])
    finally:
        del attach_next, extensions
    out.sort()
    return out
