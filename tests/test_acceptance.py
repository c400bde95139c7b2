"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its headline numbers and elapsed time.

The reduction corpus is shared between the equation, biconditional, and
partition criteria; it is generated deterministically from fixed seeds.
Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.
"""

import random
import time

from sspforge import serialize
from sspforge.core import Bounds, DistanceMeasure, distance, embed, mask_of
from sspforge.gen import (
    random_cnf,
    random_comb_rr,
    random_lb,
    random_radjsat,
    random_source_for_edge,
)
from sspforge.problems import CnfInstance
from sspforge.reductions import (
    BLOWUP_EDGES,
    PRESERVING_EDGES,
    build_blowup,
    build_preserving,
    check_blowup,
    check_preserving,
    check_ssp,
    compose,
    published_beta,
)
from sspforge.rr import (
    comb_to_cost_rr,
    eval_comb_rr,
    eval_cost_rr,
    radjsat_to_comb_rr,
    solve_eae_sat,
    solve_radjsat,
)

MEASURES = list(DistanceMeasure)
SOURCES_PER_EDGE = 500
BOUNDS = Bounds(max_universe=24, max_solutions=1 << 20, max_vertices=16384)

# edges whose published blow-up factor is known to miss a term; failures
# against the published value are expected there and documented in the
# package README (discovered by this very check)
DOCUMENTED_BETA_DEVIATIONS = {"sat-3sat", "3sat-dhampath", "3sat-2ddp"}


def _report(tag, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status} - {detail} ({elapsed:.1f}s)")


# ------------------------------------------------------------------ C1


def test_c1_distance_axioms():
    t0 = time.time()
    rng = random.Random(101)
    n = 16
    checks = 0
    for _ in range(10_000):
        a1 = rng.getrandbits(n)
        a2 = rng.getrandbits(n)
        perm = list(range(2 * n))
        rng.shuffle(perm)
        f = tuple(perm[:n])
        m = rng.choice(MEASURES)
        assert distance(m, a1, a2) == distance(m, embed(f, a1), embed(f, a2))
        free = [i for i in range(n) if not ((a1 | a2) >> i) & 1]
        if free:
            x = 1 << rng.choice(free)
            assert distance(m, a1, a2) == distance(m, a1 | x, a2 | x)
        assert distance(m, a1, a1) == 0
        assert distance(DistanceMeasure.HAMMING, a1, a2) == distance(
            DistanceMeasure.KAPPA_ADDITION, a1, a2
        ) + distance(DistanceMeasure.KAPPA_DELETION, a1, a2)
        checks += 1
    elapsed = time.time() - t0
    _report("C1", True, f"4 axioms on {checks} random tuples, |U|<=16", elapsed)
    assert elapsed < 5.0


# ------------------------------------------------------------------ C2


def test_c2_figure_exact_gadgets(tmp_path):
    import pathlib

    t0 = time.time()
    golden = pathlib.Path(__file__).parent / "golden"
    phi = CnfInstance(3, ((3, 4, 2),))
    fig1 = build_blowup("3sat-vc", phi, 0, DistanceMeasure.HAMMING)
    g1 = fig1.target
    # the published figure carries 3 pair edges, 3 triangle edges, and 3
    # literal-to-clause edges
    assert (g1.n, len(g1.edges), g1.k) == (9, 9, 5)
    assert serialize.dumps(serialize.artifact_to_doc(fig1)) == (
        golden / "fig1_vc.json"
    ).read_text()
    fig2 = build_blowup(
        "3sat-vc", phi, mask_of([2, 5]), DistanceMeasure.HAMMING, beta_override=2
    )
    g2 = fig2.target
    assert (g2.n, len(g2.edges), g2.k) == (13, 17, 7)
    assert serialize.dumps(serialize.artifact_to_doc(fig2)) == (
        golden / "fig2_vc.json"
    ).read_text()
    elapsed = time.time() - t0
    _report(
        "C2", True,
        "fig-1 graph 9 vertices/9 edges/k=5, fig-2 gadget 13/17/k'=7, goldens exact",
        elapsed,
    )


# ------------------------------------------------- shared reduction corpus

_corpus_cache = {}


def _blowup_corpus():
    if "blowup" in _corpus_cache:
        return _corpus_cache["blowup"]
    t0 = time.time()
    results = {
        edge: {"ssp_fail": [], "blowup_fail": [], "published_fail": [], "n": 0}
        for edge in BLOWUP_EDGES
    }
    for edge in BLOWUP_EDGES:
        for i in range(SOURCES_PER_EDGE):
            rng = random.Random(repr(("acceptance", edge, i)))
            src = random_source_for_edge(edge, rng)
            lb = random_lb(rng, src)
            res = results[edge]
            res["n"] += 1
            for measure in MEASURES:
                art = build_blowup(edge, src, lb, measure)
                if not check_ssp(art, BOUNDS).passed:
                    res["ssp_fail"].append((i, measure))
                    continue
                if not check_blowup(art, measure, BOUNDS).passed:
                    res["blowup_fail"].append((i, measure))
                pb = published_beta(edge, src, lb)[measure]
                if not check_blowup(art, measure, BOUNDS, beta=pb).passed:
                    res["published_fail"].append((i, measure))
    _corpus_cache["blowup"] = (results, time.time() - t0)
    return _corpus_cache["blowup"]


def _preserving_corpus():
    if "preserving" in _corpus_cache:
        return _corpus_cache["preserving"]
    t0 = time.time()
    results = {}
    for edge in PRESERVING_EDGES:
        fails_ssp = []
        fails_pre = []
        n = 0
        for i in range(SOURCES_PER_EDGE):
            rng = random.Random(repr(("acceptance", edge, i)))
            src = random_source_for_edge(edge, rng)
            params = {"k": rng.randint(2, 4)} if edge == "2ddp-kddp" else None
            art = build_preserving(edge, src, params)
            n += 1
            if not check_ssp(art, BOUNDS).passed:
                fails_ssp.append(i)
                continue
            if not check_preserving(art, BOUNDS).passed:
                fails_pre.append(i)
        results[edge] = {"ssp_fail": fails_ssp, "pre_fail": fails_pre, "n": n}
    _corpus_cache["preserving"] = (results, time.time() - t0)
    return _corpus_cache["preserving"]


# ------------------------------------------------------------------ C3


def test_c3_equation_on_all_edges():
    blow, t_blow = _blowup_corpus()
    pres, t_pres = _preserving_corpus()
    bad = {
        edge: res["ssp_fail"] for edge, res in blow.items() if res["ssp_fail"]
    }
    bad.update(
        {edge: res["ssp_fail"] for edge, res in pres.items() if res["ssp_fail"]}
    )
    total = sum(res["n"] for res in blow.values()) + sum(
        res["n"] for res in pres.values()
    )
    elapsed = t_blow + t_pres
    _report(
        "C3",
        not bad,
        f"equation holds on {total} random sources over "
        f"{len(BLOWUP_EDGES) + len(PRESERVING_EDGES)} edges, 3 measures each",
        elapsed,
    )
    assert not bad, f"equation counterexamples: {bad}"
    assert all(res["n"] >= SOURCES_PER_EDGE for res in blow.values())
    assert all(res["n"] >= SOURCES_PER_EDGE for res in pres.values())
    assert elapsed < 600.0


# ------------------------------------------------------------------ C4


def test_c4_blowup_biconditional():
    blow, t_blow = _blowup_corpus()
    effective_bad = {
        e: r["blowup_fail"] for e, r in blow.items() if r["blowup_fail"]
    }
    published_dev = {e: len(r["published_fail"]) for e, r in blow.items() if r["published_fail"]}
    undocumented = set(published_dev) - DOCUMENTED_BETA_DEVIATIONS
    for edge, count in sorted(published_dev.items()):
        print(
            f"[C4]   documented deviation: published factor fails on {count} "
            f"{edge} cases; adjusted factor passes (see README)"
        )
    ok = not effective_bad and not undocumented
    _report(
        "C4",
        ok,
        f"biconditional holds with table factors on every artifact; "
        f"published-value deviations only on {sorted(published_dev) or 'none'}",
        t_blow,
    )
    assert not effective_bad, f"biconditional failures: {effective_bad}"
    assert not undocumented, f"undocumented beta deviations: {undocumented}"


# ------------------------------------------------------------------ C5


def test_c5_preserving_partition():
    pres, t_pres = _preserving_corpus()
    bad = {e: r["pre_fail"] for e, r in pres.items() if r["pre_fail"]}
    total = sum(r["n"] for r in pres.values())
    _report(
        "C5",
        not bad,
        f"partition, always-on/off, and count bijection on {total} sources "
        f"over {len(PRESERVING_EDGES)} edges",
        t_pres,
    )
    assert not bad, f"preserving failures: {bad}"


# ------------------------------------------------------------------ C6


def test_c6_radjsat_pipeline():
    t0 = time.time()
    rng = random.Random(606)
    disagreements = []
    n_cases = 0
    main_edges = ("3sat-vc", "3sat-is")
    for i in range(200):
        # keep one-variable parts frequent; the two-variable targets carry
        # hundreds of vertices and thousands of solutions
        if i % 5 == 0:
            inst = random_radjsat(rng, max_part=2, max_clauses=2, max_gamma=2)
        else:
            inst = random_radjsat(rng, max_part=1, max_clauses=3, max_gamma=2)
        want, _ = solve_radjsat(inst, BOUNDS)
        for edge in main_edges:
            for measure in MEASURES:
                comb = radjsat_to_comb_rr(inst, edge, measure)
                got, _ = eval_comb_rr(comb, BOUNDS)
                n_cases += 1
                if got != want:
                    disagreements.append((i, edge, measure.value))
    sampled = ("3sat-subsetsum", "sat-3sat", "3sat-dhampath")
    for j, edge in enumerate(sampled):
        for i in range(12):
            inst = random_radjsat(rng, max_part=1, max_clauses=2, max_gamma=1)
            want, _ = solve_radjsat(inst, BOUNDS)
            measure = MEASURES[(i + j) % 3]
            comb = radjsat_to_comb_rr(inst, edge, measure)
            got, _ = eval_comb_rr(comb, BOUNDS)
            n_cases += 1
            if got != want:
                disagreements.append((edge, i, measure.value))
    elapsed = time.time() - t0
    _report(
        "C6",
        not disagreements,
        f"game answer equals pipeline answer on {n_cases} "
        f"(instance, edge, measure) cases",
        elapsed,
    )
    assert not disagreements, disagreements[:5]
    assert elapsed < 900.0


# ------------------------------------------------------------------ C7


def test_c7_cost_simulation():
    t0 = time.time()
    rng = random.Random(707)
    disagreements = []
    n_cases = 0
    while n_cases < 200:
        comb = random_comb_rr(rng)
        want, _ = eval_comb_rr(comb, BOUNDS)
        cost = comb_to_cost_rr(comb)
        value, got, _ = eval_cost_rr(cost, BOUNDS)
        n_cases += 1
        if got != want:
            disagreements.append((n_cases, comb.kind.value, want, value))
    elapsed = time.time() - t0
    _report(
        "C7",
        not disagreements,
        f"threshold verdicts agree on {n_cases} optimum-threshold instances "
        f"over LOP kinds",
        elapsed,
    )
    assert not disagreements, disagreements[:5]
    assert elapsed < 300.0


# ------------------------------------------------------------------ C8


def test_c8_composition():
    from sspforge.problems import connected_undirected

    t0 = time.time()
    failures = []
    n_ds = 0
    for i in range(30):
        rng = random.Random(repr(("c8-ds", i)))
        # the dominating-set step needs a connected graph, so draw formulas
        # until the cover target is connected (every variable must occur)
        while True:
            src = random_cnf(rng, max_vars=2, max_clauses=1)
            lb = random_lb(rng, src)
            inner = build_blowup("3sat-vc", src, lb, DistanceMeasure.HAMMING)
            if connected_undirected(inner.target.n, inner.target.edges):
                break
        outer = build_preserving("vc-ds", inner.target)
        chained = compose(outer, inner)
        assert chained.beta == inner.beta
        n_ds += 1
        for measure in MEASURES:
            if not check_blowup(chained, measure, BOUNDS).passed:
                failures.append(("vc-ds", i, measure.value))
        if not check_ssp(chained, BOUNDS).passed:
            failures.append(("vc-ds-ssp", i))
    n_chain = 0
    for i in range(60):
        rng = random.Random(repr(("c8-chain", i)))
        src = random_source_for_edge("subsetsum-partition", rng)
        inner = build_preserving("subsetsum-partition", src)
        outer = build_preserving("partition-scheduling", inner.target)
        chained = compose(outer, inner)
        n_chain += 1
        if not check_preserving(chained, BOUNDS).passed:
            failures.append(("ss-part-sched", i))
    elapsed = time.time() - t0
    _report(
        "C8",
        not failures,
        f"dominating-set composition keeps the inner factor on {n_ds} "
        f"sources; {n_chain} three-link number chains preserve",
        elapsed,
    )
    assert not failures, failures[:5]


# ------------------------------------------------------------------ C9


def test_c9_eae_oracle_consistency():
    t0 = time.time()
    rng = random.Random(909)
    n_cases = 0
    for _ in range(100):
        n = rng.randint(1, 9)
        m = rng.randint(1, 5)
        cnf = CnfInstance(
            n,
            tuple(tuple(rng.randrange(2 * n) for _ in range(3)) for _ in range(m)),
        )
        variables = list(range(n))
        rng.shuffle(variables)
        a = rng.randint(0, n)
        b = rng.randint(a, n)
        xs, ys, zs = variables[:a], variables[a:b], variables[b:]
        got = solve_eae_sat(cnf, xs, ys, zs)
        want = _truth_table_eae(cnf, xs, ys, zs)
        assert got == want, (cnf, xs, ys, zs)
        n_cases += 1
    elapsed = time.time() - t0
    _report("C9", True, f"game evaluation equals the truth table on {n_cases} formulas", elapsed)


def _truth_table_eae(cnf, xs, ys, zs):
    masks = cnf.clause_masks()
    n = cnf.n_vars
    table = [
        all(cnf.assignment_mask(a) & cm for cm in masks) for a in range(1 << n)
    ]

    def assign(ax, ay, az):
        v = 0
        for pos, var in enumerate(xs):
            v |= ((ax >> pos) & 1) << var
        for pos, var in enumerate(ys):
            v |= ((ay >> pos) & 1) << var
        for pos, var in enumerate(zs):
            v |= ((az >> pos) & 1) << var
        return v

    return any(
        all(
            any(table[assign(ax, ay, az)] for az in range(1 << len(zs)))
            for ay in range(1 << len(ys))
        )
        for ax in range(1 << len(xs))
    )
