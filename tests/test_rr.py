import dataclasses
import random
import time

import pytest

from sspforge.core import (
    Bounds,
    CapacityError,
    DistanceMeasure,
    FormatError,
    UnsupportedKindError,
    distance,
    indices_of,
    mask_of,
    subsets_upto,
)
from sspforge.gen import random_comb_rr, random_radjsat
from sspforge.problems import (
    CnfInstance,
    KnapsackInstance,
    PartitionInstance,
    ProblemKind,
    SchedulingInstance,
    SubsetSumInstance,
    VertexCoverInstance,
    enumerate_feasible,
    enumerate_solutions,
    feasible_keys,
    lop_cost,
    universe_size,
)
from sspforge.problems.numbers import _masked_sum
from sspforge.rr import (
    INFEASIBLE,
    CombRrInstance,
    CostRrInstance,
    RAdjSatInstance,
    comb_to_cost_rr,
    enumerate_scenarios,
    eval_comb_rr,
    eval_cost_rr,
    pad_radjsat,
    radjsat_to_comb_rr,
    solve_eae_sat,
    solve_radjsat,
)

ADD = DistanceMeasure.KAPPA_ADDITION
DEL = DistanceMeasure.KAPPA_DELETION
HAM = DistanceMeasure.HAMMING
K3 = VertexCoverInstance(3, ((0, 1), (0, 2), (1, 2)), 2)
BOUNDS = Bounds(max_universe=24, max_solutions=1 << 20, max_vertices=16384)


def _cost_instance(inst, gamma, kappa, measure=HAM, raisable=0):
    d, t = lop_cost(ProblemKind.VERTEX_COVER, inst)
    hi = tuple(
        2 * t + 1 if raisable >> i & 1 else d[i] for i in range(len(d))
    )
    return CostRrInstance(
        ProblemKind.VERTEX_COVER, inst, d, d, hi, 2 * t, gamma, kappa, measure
    )


def test_scenarios_gamma_zero():
    inst = _cost_instance(K3, gamma=0, kappa=0, raisable=mask_of([0]))
    assert enumerate_scenarios(inst) == [(0, (1, 1, 1))]


def test_scenarios_degenerate_bounds():
    inst = _cost_instance(K3, gamma=2, kappa=0, raisable=0)
    assert len(enumerate_scenarios(inst)) == 1


def test_scenarios_single_budget():
    inst = _cost_instance(K3, gamma=1, kappa=0, raisable=mask_of([0, 1, 2]))
    assert len(enumerate_scenarios(inst)) == 4  # empty plus three singletons


def test_scenarios_over_cap_is_capacity_error():
    inst = _cost_instance(K3, gamma=1, kappa=0, raisable=mask_of([0, 1, 2]))
    with pytest.raises(CapacityError):
        enumerate_scenarios(inst, Bounds(max_solutions=3))
    assert len(enumerate_scenarios(inst, Bounds(max_solutions=4))) == 4


def _star_comb_rr():
    """A star's centre is its one cover of size 1.  All ten vertices are
    blockable, so gamma = 2 makes 1 + 10 + 45 = 56 blockers, as many as
    the scenarios of its cost-RR simulation."""
    star = VertexCoverInstance(10, tuple((0, v) for v in range(1, 10)), 1)
    return CombRrInstance(ProblemKind.VERTEX_COVER, star, (1 << 10) - 1, 2, 10, HAM)


def test_comb_rr_counts_its_blockers_against_the_cap():
    # the blockers were listed without a cap, so the star answered at a
    # cap of 10 where its cost-RR scenarios were refused
    comb = _star_comb_rr()
    cost = comb_to_cost_rr(comb)
    for cap in (10, 55):
        bounds = Bounds(max_solutions=cap)
        with pytest.raises(
            CapacityError, match="^blocker count exceeds the enumeration cap$"
        ):
            eval_comb_rr(comb, bounds)
        with pytest.raises(
            CapacityError, match="^scenario count exceeds the enumeration cap$"
        ):
            enumerate_scenarios(cost, bounds)
    bounds = Bounds(max_solutions=56)
    assert len(enumerate_scenarios(cost, bounds)) == 56
    # blocking the centre leaves no cover of size 1
    assert eval_comb_rr(comb, bounds) == eval_comb_rr(comb) == (False, None)


def test_comb_rr_gamma_zero_yes():
    comb = CombRrInstance(ProblemKind.VERTEX_COVER, K3, 0, 0, 0, HAM)
    ans, wit = eval_comb_rr(comb)
    assert ans and wit.recoveries[0] == wit.s1


def test_comb_rr_unsatisfiable_nominal():
    phi = CnfInstance(1, ((0, 0, 0), (1, 1, 1)))
    comb = CombRrInstance(ProblemKind.THREE_SAT, phi, mask_of([0]), 1, 3, HAM)
    ans, wit = eval_comb_rr(comb)
    assert not ans and wit is None


def test_comb_rr_triangle_example():
    comb = CombRrInstance(
        ProblemKind.VERTEX_COVER, K3, mask_of([0]), 1, 2, HAM
    )
    ans, wit = eval_comb_rr(comb)
    assert ans
    assert wit.s1 == mask_of([0, 1])  # lexicographically least winner
    assert wit.recoveries[mask_of([0])] == mask_of([1, 2])


def test_cost_rr_collapses_without_uncertainty():
    inst = _cost_instance(K3, gamma=0, kappa=0, measure=HAM)
    value, ok, wit = eval_cost_rr(inst)
    assert value == 4  # twice the optimal cover cost
    assert ok


def test_cost_rr_single_feasible_worst_case():
    # single-edge graph, only one cover once k pins the threshold: the
    # adversary raises every raisable element
    g = VertexCoverInstance(2, ((0, 1),), 1)
    d, t = lop_cost(ProblemKind.VERTEX_COVER, g)
    inst = CostRrInstance(
        ProblemKind.VERTEX_COVER, g, d, d, (5, 5), 100, 2, 0, HAM
    )
    value, ok, wit = eval_cost_rr(inst)
    assert value == 1 + 5


def test_cost_rr_rejects_pure_ssp_kind():
    phi = CnfInstance(1, ((0, 0, 0),))
    comb = CombRrInstance(ProblemKind.THREE_SAT, phi, 0, 0, 0, HAM)
    with pytest.raises(UnsupportedKindError):
        comb_to_cost_rr(comb)


def test_cost_rr_instance_refuses_a_kind_without_costs():
    # eval_cost_rr refused it, with an error the CLI took for a failure
    phi = CnfInstance(1, ((0, 0, 0),))
    message = "^cost recoverable robustness needs an LOP kind, got 3sat$"
    with pytest.raises(FormatError, match=message):
        CostRrInstance(ProblemKind.THREE_SAT, phi, (0, 0), (0, 0), (0, 0), 0, 0, 0, HAM)


def test_comb_to_cost_penalties():
    comb = CombRrInstance(
        ProblemKind.VERTEX_COVER, K3, mask_of([1]), 1, 2, HAM
    )
    cost = comb_to_cost_rr(comb)
    assert cost.c_hi == (1, 2 * K3.k + 1, 1)
    assert cost.t_rr == 2 * K3.k
    assert cost.c_lo == cost.c1 == (1, 1, 1)


def test_comb_to_cost_no_blockables():
    comb = CombRrInstance(ProblemKind.VERTEX_COVER, K3, 0, 2, 1, HAM)
    cost = comb_to_cost_rr(comb)
    assert cost.c_hi == cost.c_lo
    value, ok, _ = eval_cost_rr(cost)
    assert ok == eval_comb_rr(comb)[0]


def test_cost_simulation_needs_tight_threshold():
    """A star graph with threshold slack separates the two formulations:
    a cheap first stage can recover to an over-threshold feasible set that
    the combinatorial version may not use."""
    star = VertexCoverInstance(4, ((3, 0), (3, 1), (3, 2)), 2)  # optimum 1
    comb = CombRrInstance(
        ProblemKind.VERTEX_COVER, star, mask_of([3]), 1, 1, DEL
    )
    assert eval_comb_rr(comb)[0] is False
    value, ok, _ = eval_cost_rr(comb_to_cost_rr(comb))
    assert ok is True  # the simulation is exact only for t <= min d(F)


def test_radjsat_gamma_zero_is_satisfiability():
    phi = CnfInstance(3, ((0, 1, 2),))
    inst = RAdjSatInstance(phi, (0,), (1,), (2,), 0)
    assert solve_radjsat(inst)[0]
    unsat = CnfInstance(3, ((0, 0, 0), (3, 3, 3)))
    inst = RAdjSatInstance(unsat, (0,), (1,), (2,), 0)
    assert not solve_radjsat(inst)[0]


def test_radjsat_blocked_clause_dies():
    phi = CnfInstance(3, ((1, 1, 1),))  # (y | y | y) with y blockable
    inst = RAdjSatInstance(phi, (0,), (1,), (2,), 1)
    assert not solve_radjsat(inst)[0]


def test_radjsat_z_rescues():
    phi = CnfInstance(3, ((1, 2, 2),))  # (y | z | z)
    inst = RAdjSatInstance(phi, (0,), (1,), (2,), 1)
    ans, wit = solve_radjsat(inst)
    assert ans


def test_radjsat_requires_equal_parts():
    phi = CnfInstance(3, ((0, 1, 2),))
    with pytest.raises(Exception):
        RAdjSatInstance(phi, (0, 1), (2,), (), 0)
    padded = pad_radjsat(phi, (0, 1), (2,), (), 0)
    assert len(padded.x_vars) == len(padded.y_vars) == len(padded.z_vars) == 2
    assert solve_radjsat(padded)[0] == solve_radjsat(
        pad_radjsat(phi, (0,), (1,), (2,), 0)
    )[0]


def test_eae_sat_examples():
    taut = CnfInstance(1, ((0, 1, 0),))
    assert solve_eae_sat(taut, (0,), (), ())
    phi = CnfInstance(1, ((0, 0, 0),))
    assert not solve_eae_sat(phi, (), (0,), ())


def test_eae_sat_matches_truth_table():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        cnf = CnfInstance(
            n, tuple(tuple(rng.randrange(2 * n) for _ in range(3)) for _ in range(m))
        )
        variables = list(range(n))
        rng.shuffle(variables)
        a = rng.randint(0, n)
        b = rng.randint(a, n)
        xs, ys, zs = variables[:a], variables[a:b], variables[b:]
        got = solve_eae_sat(cnf, xs, ys, zs)
        want = _eae_by_table(cnf, xs, ys, zs)
        assert got == want


def _eae_by_table(cnf, xs, ys, zs):
    masks = cnf.clause_masks()
    n = cnf.n_vars
    table = {}
    for a in range(1 << n):
        m = cnf.assignment_mask(a)
        table[a] = all(m & cm for cm in masks)

    def bits_of(assign, variables):
        return tuple((assign >> v) & 1 for v in variables)

    for ax in range(1 << len(xs)):
        ok_all_y = True
        for ay in range(1 << len(ys)):
            found = False
            for az in range(1 << len(zs)):
                assign = 0
                for pos, v in enumerate(xs):
                    assign |= ((ax >> pos) & 1) << v
                for pos, v in enumerate(ys):
                    assign |= ((ay >> pos) & 1) << v
                for pos, v in enumerate(zs):
                    assign |= ((az >> pos) & 1) << v
                if table[assign]:
                    found = True
                    break
            if not found:
                ok_all_y = False
                break
        if ok_all_y:
            return True
    return False


def test_pipeline_gamma_zero_equals_satisfiability():
    rng = random.Random(5)
    for i in range(6):
        inst = random_radjsat(rng, max_part=1, max_clauses=2, max_gamma=0)
        comb = radjsat_to_comb_rr(inst, "3sat-vc", HAM)
        want = bool(
            __import__("sspforge.problems", fromlist=["enumerate_solutions"])
            .enumerate_solutions(ProblemKind.THREE_SAT, inst.cnf)
        )
        assert eval_comb_rr(comb)[0] == want


def test_pipeline_blockables_are_positive_y_images():
    phi = CnfInstance(3, ((1, 2, 2),))
    inst = RAdjSatInstance(phi, (0,), (1,), (2,), 1)
    comb = radjsat_to_comb_rr(inst, "3sat-vc", HAM)
    # image of positive literal of the y variable only
    assert comb.blockable.bit_count() == 1
    assert comb.kappa == 9  # base graph size: 6 literal + 3 clause vertices
    assert comb.gamma == 1


def test_monotone_kappa_and_gamma():
    rng = random.Random(9)
    for i in range(10):
        comb = random_comb_rr(rng)
        base = eval_comb_rr(comb)[0]
        import dataclasses

        wider = dataclasses.replace(comb, kappa=comb.kappa + 2)
        assert not (base and not eval_comb_rr(wider)[0])
        if comb.gamma > 0:
            calmer = dataclasses.replace(comb, gamma=comb.gamma - 1)
            assert not (base and not eval_comb_rr(calmer)[0])


def test_cost_rr_gamma_zero_two_copy_form():
    from sspforge.core import distance

    rng = random.Random(17)
    for i in range(8):
        comb = random_comb_rr(rng)
        import dataclasses

        comb = dataclasses.replace(comb, gamma=0)
        cost = comb_to_cost_rr(comb)
        value, ok, _ = eval_cost_rr(cost)
        feas = enumerate_feasible(cost.kind, cost.instance)
        best = None
        for s1 in feas:
            c1 = sum(cost.c1[i] for i in range(len(cost.c1)) if s1 >> i & 1)
            for s2 in feas:
                if distance(cost.measure, s1, s2) > cost.kappa:
                    continue
                c2 = sum(
                    cost.c_lo[i] for i in range(len(cost.c_lo)) if s2 >> i & 1
                )
                if best is None or c1 + c2 < best:
                    best = c1 + c2
        want = best if best is not None else float("inf")
        assert value == want


def test_cost_rr_single_feasible_full_raise():
    # the only feasible selection is the full set; with the whole budget
    # raised the value is c1(S) + c_hi(S)
    from sspforge.problems import SubsetSumInstance

    inst = SubsetSumInstance((2, 3), 5)
    cost = CostRrInstance(
        ProblemKind.SUBSET_SUM, inst, (2, 3), (2, 3), (7, 8), 100, 2, 0, HAM
    )
    value, ok, wit = eval_cost_rr(cost)
    assert value == 5 + 15
    assert wit.s1 == mask_of([0, 1])


def test_pipeline_unsat_formula_gives_no():
    phi = CnfInstance(3, ((0, 0, 0), (3, 3, 3)))  # x1 and ~x1
    inst = RAdjSatInstance(phi, (0,), (1,), (2,), 1)
    for edge in ("3sat-vc", "3sat-is"):
        comb = radjsat_to_comb_rr(inst, edge, HAM)
        assert eval_comb_rr(comb)[0] is False


def test_comb_rr_first_stage_may_touch_blockables():
    # the first-stage solution is allowed to intersect the blockable set
    from sspforge.problems import VertexCoverInstance

    g = VertexCoverInstance(2, ((0, 1),), 1)
    comb = CombRrInstance(
        ProblemKind.VERTEX_COVER, g, mask_of([0, 1]), 1, 2, HAM
    )
    ans, wit = eval_comb_rr(comb)
    assert ans
    assert wit.s1 & comb.blockable


def _eval_cost_rr_by_loop(inst):
    """The cost-RR evaluator before table pricing: a bit loop per set and
    per scenario cost vector, recoveries sorted as (c_lo, S2) pairs."""
    feas = enumerate_feasible(inst.kind, inst.instance)
    scenarios = enumerate_scenarios(inst)
    best = INFEASIBLE
    best_witness = None
    lo_costs = [(_masked_sum(inst.c_lo, s2), s2) for s2 in feas]
    lo_costs.sort()
    lo_floor = lo_costs[0][0] if lo_costs else 0
    for s1 in feas:
        c1v = _masked_sum(inst.c1, s1)
        if c1v + lo_floor >= best:
            continue
        worst = -INFEASIBLE
        recov = {}
        for raised, c2 in scenarios:
            inner = INFEASIBLE
            inner_s2 = None
            for lo, s2 in lo_costs:
                if c1v + lo >= inner:
                    break
                if distance(inst.measure, s1, s2) > inst.kappa:
                    continue
                val = c1v + _masked_sum(c2, s2)
                if val < inner:
                    inner = val
                    inner_s2 = s2
            if inner > worst:
                worst = inner
                if worst >= best:
                    break
            recov[raised] = inner_s2
        if worst < best:
            best = worst
            best_witness = (s1, worst, recov)
    return best, best <= inst.t_rr, best_witness


def _assert_cost_rr_equals_loop(inst):
    value, ok, wit = eval_cost_rr(inst)
    want = _eval_cost_rr_by_loop(inst)
    got = (value, ok, wit and (wit.s1, wit.objective, wit.recoveries))
    assert got == want, inst


def test_cost_rr_equals_loop_on_subsetsum_pipelines():
    rng = random.Random(31)
    checked = 0
    for _ in range(40):
        game = random_radjsat(rng, max_part=1, max_clauses=3, max_gamma=2)
        for measure in (ADD, DEL, HAM):
            comb = radjsat_to_comb_rr(game, "3sat-subsetsum", measure)
            if universe_size(comb.instance) > 16:
                continue
            _assert_cost_rr_equals_loop(comb_to_cost_rr(comb))
            checked += 1
    assert checked == 30


def test_cost_rr_equals_loop_on_comb_simulations():
    rng = random.Random(37)
    kinds = set()
    for _ in range(400):
        comb = random_comb_rr(rng)
        kinds.add(comb.kind)
        _assert_cost_rr_equals_loop(comb_to_cost_rr(comb))
    assert len(kinds) == 8  # every LOP kind random_comb_rr draws


def test_cost_rr_equals_loop_on_general_costs():
    rng = random.Random(41)
    for _ in range(1500):
        comb = random_comb_rr(rng)
        n = universe_size(comb.instance)
        c1 = tuple(rng.randint(-3, 5) for _ in range(n))
        c_lo = tuple(rng.randint(-3, 5) for _ in range(n))
        c_hi = tuple(lo + rng.choice((0, 0, 1, 4)) for lo in c_lo)
        inst = CostRrInstance(
            comb.kind, comb.instance, c1, c_lo, c_hi,
            rng.randint(-2, 12), rng.randint(0, 3), rng.randint(0, n),
            rng.choice((ADD, DEL, HAM)),
        )
        _assert_cost_rr_equals_loop(inst)


def test_cost_rr_equals_loop_with_one_stage_on_the_kinds_own_costs():
    # one stage priced by the kind's own costs reads F(I) from the kind's
    # search window by window, the other lists it as one window
    rng = random.Random(47)
    streamed = {"c1": 0, "c_lo": 0}
    for _ in range(400):
        cost = comb_to_cost_rr(random_comb_rr(rng))
        n = universe_size(cost.instance)
        other = tuple(c + rng.randint(0, 2) for c in cost.c1)
        if other == cost.c1:
            continue
        own = rng.choice(("c1", "c_lo"))
        if own == "c1":
            c_hi = tuple(h + o - lo for h, o, lo in zip(cost.c_hi, other, cost.c_lo))
            inst = dataclasses.replace(cost, c_lo=other, c_hi=c_hi)
        else:
            inst = dataclasses.replace(cost, c1=other)
        assert feasible_keys(inst.kind, inst.instance, getattr(inst, own)) is not None
        _assert_cost_rr_equals_loop(
            dataclasses.replace(inst, kappa=rng.randint(0, n), t_rr=rng.randint(0, 20))
        )
        streamed[own] += 1
    assert min(streamed.values()) > 150, streamed


def _cost_rr_by_brute_force(inst):
    """min over S1 of max over scenarios of min over S2 within kappa of
    c1(S1) + c2(S2), with no pruning and no ordering."""
    feas = enumerate_feasible(inst.kind, inst.instance)
    return min(
        (
            max(
                min(
                    (
                        _masked_sum(inst.c1, s1) + _masked_sum(c2, s2)
                        for s2 in feas
                        if distance(inst.measure, s1, s2) <= inst.kappa
                    ),
                    default=INFEASIBLE,
                )
                for _, c2 in enumerate_scenarios(inst)
            )
            for s1 in feas
        ),
        default=INFEASIBLE,
    )


def test_cost_rr_negative_worst_case_is_not_clipped_at_zero():
    # the only feasible set is {0, 1}: c1 + c2 = -5 - 5 in every scenario
    inst = CostRrInstance(
        ProblemKind.SUBSET_SUM, SubsetSumInstance((2, 3), 5),
        (-2, -3), (-2, -3), (-2, -3), 0, 0, 0, HAM,
    )
    value, ok, wit = eval_cost_rr(inst)
    assert value == _cost_rr_by_brute_force(inst) == -10
    assert ok and wit.s1 == mask_of([0, 1]) and wit.objective == -10


def test_cost_rr_equals_brute_force_on_negative_costs():
    rng = random.Random(43)
    below_zero = 0
    for _ in range(300):
        comb = random_comb_rr(rng)
        n = universe_size(comb.instance)
        c1 = tuple(rng.randint(-5, 2) for _ in range(n))
        c_lo = tuple(rng.randint(-5, 2) for _ in range(n))
        c_hi = tuple(lo + rng.choice((0, 1, 3)) for lo in c_lo)
        inst = CostRrInstance(
            comb.kind, comb.instance, c1, c_lo, c_hi, 0,
            rng.randint(0, 2), rng.randint(0, n), rng.choice((ADD, DEL, HAM)),
        )
        want = _cost_rr_by_brute_force(inst)
        assert eval_cost_rr(inst)[0] == want, inst
        below_zero += want < 0
    assert below_zero > 100


@pytest.mark.parametrize("field", ["gamma", "kappa"])
def test_negative_budgets_are_format_errors(field):
    import dataclasses

    comb = CombRrInstance(ProblemKind.VERTEX_COVER, K3, mask_of([0]), 1, 2, HAM)
    with pytest.raises(FormatError, match=field):
        dataclasses.replace(comb, **{field: -1})
    cost = comb_to_cost_rr(comb)
    with pytest.raises(FormatError, match=field):
        dataclasses.replace(cost, **{field: -1})
    if field == "gamma":
        game = RAdjSatInstance(CnfInstance(3, ((0, 1, 2),)), (0,), (1,), (2,), 1)
        with pytest.raises(FormatError, match=field):
            dataclasses.replace(game, gamma=-1)


def test_cost_rr_rejects_non_integer_costs():
    inst = SubsetSumInstance((2, 3), 5)
    with pytest.raises(FormatError, match="integers"):
        CostRrInstance(
            ProblemKind.SUBSET_SUM, inst, (2, 3), (2, 3), (2.5, 3), 10, 1, 0, HAM
        )


def _stream_path_instance(rng, kind):
    """A cost-RR instance of a threshold kind priced by its own weights in
    both stages, which eval_cost_rr reads as a stream."""
    n = rng.randint(1, 9)
    values = tuple(rng.choice((1, 2, 2, 3, 4, 7)) for _ in range(n))
    total = sum(values)
    if kind is ProblemKind.SUBSET_SUM:
        inst = SubsetSumInstance(values, rng.randint(0, total))
    elif kind is ProblemKind.KNAPSACK:
        inst = KnapsackInstance(
            tuple((v, v) for v in values), rng.randint(0, total), rng.randint(1, total)
        )
    elif kind is ProblemKind.PARTITION:
        inst = PartitionInstance(values)
    else:
        inst = SchedulingInstance(values, rng.randint(total // 2, total))
    c_lo = values
    c_hi = tuple(lo + rng.choice((0, 1, 3, 2 * total + 1)) for lo in c_lo)
    cost = CostRrInstance(
        kind, inst, c_lo, c_lo, c_hi, rng.randint(0, 3 * total),
        rng.randint(0, 3), rng.randint(0, n), rng.choice((ADD, DEL, HAM)),
    )
    assert feasible_keys(kind, inst, c_lo) is not None
    return cost


@pytest.mark.parametrize(
    "kind",
    [ProblemKind.SUBSET_SUM, ProblemKind.KNAPSACK, ProblemKind.PARTITION,
     ProblemKind.SCHEDULING],
)
def test_cost_rr_equals_loop_on_streamed_threshold_families(kind):
    rng = random.Random(repr(("stream", kind.value)))
    measures = set()
    for _ in range(100):
        inst = _stream_path_instance(rng, kind)
        measures.add(inst.measure)
        _assert_cost_rr_equals_loop(inst)
    assert len(measures) == 3


# (seed, draw, measure, checked by the loop) of 3sat-subsetsum pipelines
# whose subset-sum target has 18 elements, past the 16 the benchmark's
# rr-pipeline allows; the loop takes about a second on each, so it checks
# one yes and one no instance
LARGE_PIPELINES = (
    (3, 6, ADD, True), (3, 17, DEL, True), (5, 1, DEL, False), (13, 0, ADD, False),
)


@pytest.mark.parametrize("seed, draw, measure, by_loop", LARGE_PIPELINES)
def test_cost_rr_on_large_subsetsum_pipelines(seed, draw, measure, by_loop):
    rng = random.Random(seed)
    for _ in range(draw + 1):
        game = random_radjsat(rng, max_part=1, max_clauses=3, max_gamma=2)
    comb = radjsat_to_comb_rr(game, "3sat-subsetsum", measure)
    assert universe_size(comb.instance) == 18
    cost = comb_to_cost_rr(comb)
    if by_loop:
        _assert_cost_rr_equals_loop(cost)
    assert eval_cost_rr(cost)[1] == solve_radjsat(game)[0]


def test_cost_rr_raises_the_first_cap_each_path_reaches():
    # both the feasible family and the scenario set exceed the cap of 50;
    # the streamed family (c1 = c_lo) lists no window before the scenarios
    # are counted, while the listed family (c1 = hi) is counted first
    values = (5, 1, 5, 1, 6, 21, 5, 8, 19, 3, 2, 5)
    hi = tuple(v + 1 for v in values)
    bounds = Bounds(max_solutions=50)
    for c1, first in ((values, "scenario count"), (hi, "solution cap exceeded")):
        inst = CostRrInstance(
            ProblemKind.SUBSET_SUM, SubsetSumInstance(values, 19),
            c1, values, hi, 100, 3, 8, HAM,
        )
        with pytest.raises(CapacityError, match="scenario count"):
            enumerate_scenarios(inst, bounds)
        with pytest.raises(CapacityError, match="solution cap exceeded"):
            enumerate_feasible(inst.kind, inst.instance, bounds)
        with pytest.raises(CapacityError, match=first):
            eval_cost_rr(inst, bounds)


# the 3sat-subsetsum cost-RR targets of 20 elements and more that the
# games random_radjsat(Random(seed), max_part=2) for seeds 0-39 give under
# all three measures, by element count (all 92 are yes-instances)
WIDE_TARGETS = {
    20: 5, 22: 16, 26: 9, 32: 8, 34: 10, 40: 12, 46: 14, 54: 5, 64: 6, 74: 7
}


def test_cost_rr_agrees_with_the_game_on_wide_subsetsum_targets():
    # most are past the powerset bound, and the 22-element ones' threshold
    # families past the solution cap: the stream reads only their cheap ends
    bounds = Bounds(max_universe=24, max_solutions=1 << 20, max_vertices=16384)
    sizes = {}
    for seed in range(40):
        game = random_radjsat(
            random.Random(seed), max_part=2, max_clauses=3, max_gamma=2
        )
        want = solve_radjsat(game, bounds)[0]
        for measure in (ADD, DEL, HAM):
            comb = radjsat_to_comb_rr(game, "3sat-subsetsum", measure)
            n = universe_size(comb.instance)
            if n < 20:
                continue
            sizes[n] = sizes.get(n, 0) + 1
            got = eval_cost_rr(comb_to_cost_rr(comb), bounds)[1]
            assert got == want, (seed, measure)
    assert sizes == WIDE_TARGETS


def test_cost_rr_reads_no_window_past_the_one_that_settles_it():
    # a star's centre is its one cover of size 1, and the stream's second
    # window, the covers of at most 2 vertices, holds 5 sets: at a cap of 1
    # only the first window's floor can stop the recovery scan and the
    # first-stage walk before they list the second
    star = VertexCoverInstance(5, tuple((0, v) for v in range(1, 5)), 1)
    inst = _cost_instance(star, gamma=0, kappa=0)
    value, ok, wit = eval_cost_rr(inst, Bounds(max_solutions=1))
    assert (value, ok, wit.s1, wit.recoveries) == (2, True, 1, {0: 1})
    with pytest.raises(CapacityError, match="solution cap exceeded"):
        enumerate_feasible(inst.kind, star, Bounds(max_solutions=1))


# the 3sat-subsetsum cost-RR no-instances of 20 elements and more that the
# games random_radjsat(Random(seed), max_part=2, max_clauses=10) for seeds
# 0-59 give under all three measures, by element count
WIDE_NO_TARGETS = {38: 2, 46: 2, 50: 2, 56: 1, 68: 1, 74: 1}


def test_cost_rr_cuts_the_recovery_scans_of_wide_no_instances():
    # a first stage loses once one scenario's recoveries cannot come in
    # below the best value so far, so its scans stop there; without that
    # cut the three seed-19 targets took 7-10 s each
    bounds = Bounds(max_universe=24, max_solutions=1 << 20, max_vertices=16384)
    sizes = {}
    elapsed = 0.0
    for seed in range(60):
        game = random_radjsat(
            random.Random(seed), max_part=2, max_clauses=10, max_gamma=2
        )
        if solve_radjsat(game, bounds)[0]:
            continue
        for measure in (ADD, DEL, HAM):
            comb = radjsat_to_comb_rr(game, "3sat-subsetsum", measure)
            n = universe_size(comb.instance)
            if n < 20:
                continue
            sizes[n] = sizes.get(n, 0) + 1
            start = time.perf_counter()
            value, ok, wit = eval_cost_rr(comb_to_cost_rr(comb), bounds)
            elapsed += time.perf_counter() - start
            assert not ok and wit is not None and value > 2 * lop_cost(
                comb.kind, comb.instance
            )[1], (seed, measure)
    assert sizes == WIDE_NO_TARGETS
    assert elapsed < 5, elapsed


# the RR ladder: ten fixed-seed games per (max_part, max_clauses) row, each
# through the cover edges under every measure, comb-RR against the game,
# and cost-RR too on the vertex-cover targets (30 cases per edge and row,
# so 90 per row); per row, the cases that agree and those that end in
# capacity.  The (3, 8) row's largest target has 252 vertices and 8,640
# covers, the (3, 12) row's 336 vertices and 9,212 covers.
LADDER = {
    (1, 3): (90, 0),
    (2, 6): (90, 0),
    (2, 10): (90, 0),
    (3, 8): (90, 0),
    (3, 12): (90, 0),
}
LADDER_GAMES = 10
LADDER_EDGES = ("3sat-vc", "3sat-is")


def ladder_games(part, clauses):
    """The ladder row's games, with at most ``part`` variables per part."""
    for d in range(LADDER_GAMES):
        rng = random.Random(repr(("scale", part, clauses, d)))
        yield random_radjsat(rng, max_part=part, max_clauses=clauses, max_gamma=2)


def test_rr_ladder_agrees_with_the_game_on_the_cover_edges():
    start = time.perf_counter()
    counts = {}
    for part, clauses in LADDER:
        agree = capacity = 0
        for game in ladder_games(part, clauses):
            want = solve_radjsat(game, BOUNDS)[0]
            for edge in LADDER_EDGES:
                for measure in (ADD, DEL, HAM):
                    comb = radjsat_to_comb_rr(game, edge, measure)
                    runs = [lambda: eval_comb_rr(comb, BOUNDS)[0]]
                    if edge == "3sat-vc":
                        runs.append(
                            lambda: eval_cost_rr(comb_to_cost_rr(comb), BOUNDS)[1]
                        )
                    for run in runs:
                        try:
                            got = run()
                        except CapacityError:
                            capacity += 1
                            continue
                        assert got == want, (part, clauses, edge, measure, game)
                        agree += 1
        counts[part, clauses] = agree, capacity
    assert counts == LADDER
    assert time.perf_counter() - start < 10


# ----------------------------------------------------- the walks as loops


def _eval_comb_rr_by_loop(inst, bounds):
    """Comb-RR as its own quantifier loop, over the same blockers."""
    sols = enumerate_solutions(inst.kind, inst.instance, bounds)
    if not sols:
        return False, None
    blockers = list(subsets_upto(indices_of(inst.blockable), inst.gamma))
    for s1 in sols:
        recov = {}
        ok = True
        for b in blockers:
            found = None
            for s2 in sols:
                if s2 & b:
                    continue
                if distance(inst.measure, s1, s2) <= inst.kappa:
                    found = s2
                    break
            if found is None:
                ok = False
                break
            recov[b] = found
        if ok:
            return True, (s1, recov)
    return False, None


def _assert_comb_rr_equals_loop(comb, bounds=BOUNDS):
    ans, wit = eval_comb_rr(comb, bounds)
    got = ans, wit and (wit.s1, wit.recoveries)
    assert got == _eval_comb_rr_by_loop(comb, bounds), comb


def _game_literals(cnf, variables):
    """The literal masks of all assignments to ``variables``, in the order
    of the game's walk."""
    n = cnf.n_vars
    return [
        sum((1 << (n + v), 1 << v)[bits >> pos & 1] for pos, v in enumerate(variables))
        for bits in range(1 << len(variables))
    ]


def _solve_radjsat_by_loop(inst):
    """The adjustable-SAT game as its own quantifier loop."""
    masks = inst.cnf.clause_masks()
    zs = _game_literals(inst.cnf, inst.z_vars)
    yzs = [my | mz for my in _game_literals(inst.cnf, inst.y_vars) for mz in zs]
    blockers = list(subsets_upto(inst.y_vars, inst.gamma))
    for mx in _game_literals(inst.cnf, inst.x_vars):
        good = True
        for blocked_mask in blockers:
            found = False
            for myz in yzs:
                if myz & blocked_mask:
                    continue
                if all((mx | myz) & cm for cm in masks):
                    found = True
                    break
            if not found:
                good = False
                break
        if good:
            return True, mx
    return False, None


def _solve_eae_sat_by_loop(cnf, xs, ys, zs):
    """Exists-forall-exists SAT as its own quantifier loop."""
    masks = cnf.clause_masks()
    for mx in _game_literals(cnf, xs):
        good = True
        for ay in _game_literals(cnf, ys):
            my = mx | ay
            if not any(
                all((my | az) & cm for cm in masks) for az in _game_literals(cnf, zs)
            ):
                good = False
                break
        if good:
            return True
    return False


def test_comb_rr_equals_loop_on_random_draws():
    rng = random.Random(61)
    answers = set()
    for _ in range(600):
        comb = random_comb_rr(rng)
        _assert_comb_rr_equals_loop(comb)
        answers.add(eval_comb_rr(comb, BOUNDS)[0])
    assert answers == {False, True}


def test_comb_rr_equals_loop_on_pipelines():
    rng = random.Random(67)
    answers = set()
    for _ in range(60):
        game = random_radjsat(rng, max_part=1, max_clauses=3, max_gamma=2)
        for edge in ("3sat-vc", "3sat-is", "3sat-subsetsum"):
            for measure in (ADD, DEL, HAM):
                comb = radjsat_to_comb_rr(game, edge, measure)
                _assert_comb_rr_equals_loop(comb)
                answers.add(eval_comb_rr(comb, BOUNDS)[0])
    assert answers == {False, True}


def test_radjsat_equals_loop():
    rng = random.Random(71)
    answers = set()
    for _ in range(200):
        game = random_radjsat(rng, max_part=3, max_clauses=8, max_gamma=3)
        got = solve_radjsat(game, BOUNDS)
        assert got == _solve_radjsat_by_loop(game), game
        answers.add(got[0])
    assert answers == {False, True}


def test_eae_sat_equals_loop_on_15_variables():
    rng = random.Random(73)
    answers = set()
    for _ in range(30):
        m = rng.randint(10, 40)
        cnf = CnfInstance(
            15, tuple(tuple(rng.randrange(30) for _ in range(3)) for _ in range(m))
        )
        variables = list(range(15))
        rng.shuffle(variables)
        xs, ys, zs = variables[:5], variables[5:10], variables[10:]
        got = solve_eae_sat(cnf, xs, ys, zs, BOUNDS)
        assert got == _solve_eae_sat_by_loop(cnf, xs, ys, zs)
        answers.add(got)
    assert answers == {False, True}


def test_game_and_its_image_answer_to_one_blocker_cap():
    # unit clauses pin all six variables true, so the subset-sum image has
    # one solution, and gamma 2 on two Y variables makes 4 blockers; the
    # game listed its blockers with no cap
    phi = CnfInstance(6, tuple((v, v, v) for v in range(6)))
    game = RAdjSatInstance(phi, (0, 1), (2, 3), (4, 5), 2)
    comb = radjsat_to_comb_rr(game, "3sat-subsetsum", HAM)
    assert len(enumerate_solutions(comb.kind, comb.instance)) == 1
    for cap in (1, 3):
        bounds = Bounds(max_solutions=cap)
        message = "^blocker count exceeds the enumeration cap$"
        with pytest.raises(CapacityError, match=message):
            solve_radjsat(game, bounds)
        with pytest.raises(CapacityError, match=message):
            eval_comb_rr(comb, bounds)
    # blocking a pinned Y variable leaves no completion
    bounds = Bounds(max_solutions=4)
    assert solve_radjsat(game, bounds) == (False, None)
    assert eval_comb_rr(comb, bounds) == (False, None)
