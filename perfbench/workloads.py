"""Seeded case lists and known-answer verdicts for the three workloads.

A workload is a fixed list of cases drawn from the workload seed; a pass
runs every case once, one at a time, against cold caches.  Each case
returns whether its verdicts equal the known answer, plus a record that
goes into the run's verdict digest.

Every call into the package goes through ``api``, a namespace holding the
public functions the benchmark uses.  The traced run swaps wrapped copies
into it; the untraced run uses it as built here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from types import SimpleNamespace

from sspforge import gen, problems, reductions, rr, serialize
from sspforge.core import Bounds, DistanceMeasure, indices_of, mask_of
from sspforge.problems import CnfInstance

# One explicit bound for every call, so SSPFORGE_MAX_* cannot change the work.
BOUNDS = Bounds(max_universe=24, max_solutions=1 << 20, max_vertices=16384)
MEASURES = list(DistanceMeasure)

# Sources per edge in the acceptance corpus (C3-C5); the corpus workloads
# take their sources from it, so each source is one the acceptance suite
# also checks.
CORPUS_SOURCES = 500

# Edges whose published blow-up factor misses a term (see the package
# README); only there may the published-factor check fail.
DOCUMENTED_BETA_DEVIATIONS = frozenset({"sat-3sat", "3sat-dhampath", "3sat-2ddp"})
# Share of each edge's corpus, largest sources first, that blowup-corpus
# leaves out: their enumeration time swings up to 5x with the variable
# labelling alone, more than the benchmark's bounds.
BLOWUP_LEFT_OUT = 0.05
# Labellings of each blowup-corpus source per pass.  The cover and path
# searches branch in label order, so one source's time moves by up to 3x
# from one labelling to the next; several labellings average that out.
BLOWUP_RELABELS = 3

RR_EDGES = ("3sat-vc", "3sat-is", "3sat-subsetsum")
# Cost-RR walks every feasible set, 2^|U| of them on a subset-sum target.
# Subset-sum draws whose target universe exceeds this are skipped (and
# counted); comb-RR targets of the other edges are not capped.
RR_COST_MAX_UNIVERSE = 16
# Instances per pass for each (clause count, gamma), per unit of size.
# Both set the cost of a case, so fixed quotas keep the pass's work the
# same from seed to seed.
RR_QUOTAS = {(1, g): 4 for g in range(3)} | {(m, g): 1 for m in (2, 3) for g in range(3)}


def make_api() -> SimpleNamespace:
    """The package functions the workloads call, by name."""
    return SimpleNamespace(
        build_blowup=reductions.build_blowup,
        build_preserving=reductions.build_preserving,
        published_beta=reductions.published_beta,
        check_ssp=reductions.check_ssp,
        check_blowup=reductions.check_blowup,
        check_artifact=reductions.check_artifact,
        artifact_to_doc=serialize.artifact_to_doc,
        dumps=serialize.dumps,
        loads=json.loads,
        artifact_from_doc=serialize.artifact_from_doc,
        solve_radjsat=rr.solve_radjsat,
        radjsat_to_comb_rr=rr.radjsat_to_comb_rr,
        eval_comb_rr=rr.eval_comb_rr,
        comb_to_cost_rr=rr.comb_to_cost_rr,
        eval_cost_rr=rr.eval_cost_rr,
    )


def _corpus_rng(edge: str, i: int) -> random.Random:
    # the acceptance suite's per-source seed
    return random.Random(repr(("acceptance", edge, i)))


# ------------------------------------------------------------ blowup-corpus


def blowup_cases(seed: int, size: int):
    """``size`` sources per blow-up edge, each under BLOWUP_RELABELS
    labellings and all 3 measures, and no skipped draws.

    The sources are a fixed slice of the acceptance corpus: ranked by
    size (variables, literal occurrences, blown variables), the largest
    BLOWUP_LEFT_OUT of them left out, then every (total / size)-th.  The
    seed draws the labellings (variables, signs, clause and literal
    order), so every seed asks for the same structures under different
    labels."""
    rng = random.Random(repr(("blowup-corpus", seed)))
    cases = []
    for edge in reductions.BLOWUP_EDGES:
        corpus = []
        for i in range(CORPUS_SOURCES):
            src_rng = _corpus_rng(edge, i)
            src = gen.random_source_for_edge(edge, src_rng)
            lb = gen.random_lb(src_rng, src)
            size_key = src.n_vars + sum(map(len, src.clauses)) + lb.bit_count() // 2
            corpus.append((-size_key, i, src, lb))
        corpus.sort(key=lambda c: c[:2])
        kept = corpus[int(BLOWUP_LEFT_OUT * CORPUS_SOURCES):]
        for k in range(size):
            _, i, src, lb = kept[int((k + 0.5) * len(kept) / size)]
            for r in range(BLOWUP_RELABELS):
                src_r, lit = relabel_cnf(rng, src)
                lb_r = mask_of(lit(x) for x in indices_of(lb))
                for measure in MEASURES:
                    cases.append(
                        (f"{edge}/{i}/{r}/{measure.value}", (edge, src_r, lb_r, measure))
                    )
    return cases, 0


def relabel_cnf(rng, cnf, flip_signs=True):
    """An isomorphic copy of ``cnf``: variables permuted, signs flipped
    (unless ``flip_signs`` is false), clauses and their literals reordered.
    Returns the copy and its literal map."""
    n = cnf.n_vars
    perm = rng.sample(range(n), n)
    flip = [flip_signs and rng.random() < 0.5 for _ in range(n)]

    def lit(x):
        v, negated = (x, False) if x < n else (x - n, True)
        return perm[v] + n * (negated != flip[v])

    clauses = [tuple(rng.sample([lit(x) for x in c], len(c))) for c in cnf.clauses]
    rng.shuffle(clauses)
    return CnfInstance(n, tuple(clauses)), lit


def blowup_case(api, edge, src, lb, measure):
    art = api.build_blowup(edge, src, lb, measure)
    ssp = api.check_ssp(art, BOUNDS)
    effective = api.check_blowup(art, measure, BOUNDS)
    beta = api.published_beta(edge, src, lb)[measure]
    published = api.check_blowup(art, measure, BOUNDS, beta=beta)
    ok = (
        ssp.passed
        and effective.passed
        and (published.passed or edge in DOCUMENTED_BETA_DEVIATIONS)
    )
    return ok, [_verdict(v) for v in (ssp, effective, published)]


# ------------------------------------------------------- artifact-roundtrip


def artifact_cases(seed: int, size: int):
    """The first ``size`` acceptance-corpus sources of each preserving
    edge, relabelled by the seed, and no skipped draws."""
    rng = random.Random(repr(("artifact-roundtrip", seed)))
    cases = []
    for edge in reductions.PRESERVING_EDGES:
        for i in range(size):
            src_rng = _corpus_rng(edge, i)
            src = gen.random_source_for_edge(edge, src_rng)
            params = {"k": src_rng.randint(2, 4)} if edge == "2ddp-kddp" else None
            cases.append((f"{edge}/{i}", (edge, relabel_source(rng, src), params)))
    return cases, 0


def relabel_source(rng, src):
    """An isomorphic copy of a preserving-edge source: values reordered
    (number problems), or vertices permuted and edges reordered (graphs)."""
    if hasattr(src, "values"):
        return dataclasses.replace(src, values=tuple(rng.sample(src.values, len(src.values))))
    perm = rng.sample(range(src.n), src.n)
    changes = {}
    if hasattr(src, "edges"):
        edges = [tuple(sorted((perm[u], perm[v]))) for u, v in src.edges]
        changes["edges"] = tuple(rng.sample(edges, len(edges)))
    if hasattr(src, "arcs"):
        arcs = [(perm[u], perm[v]) for u, v in src.arcs]
        changes["arcs"] = tuple(rng.sample(arcs, len(arcs)))
    if hasattr(src, "pairs"):
        changes["pairs"] = tuple((perm[u], perm[v]) for u, v in src.pairs)
    if hasattr(src, "s"):
        changes["s"], changes["t"] = perm[src.s], perm[src.t]
    return dataclasses.replace(src, **changes)


def artifact_case(api, edge, src, params):
    art = api.build_preserving(edge, src, params)
    text = api.dumps(api.artifact_to_doc(art))
    back = api.artifact_from_doc(api.loads(text))
    same_bytes = api.dumps(api.artifact_to_doc(back)) == text
    results = api.check_artifact(back, "all", bounds=BOUNDS)
    ok = same_bytes and all(v.passed for _, v in results)
    return ok, [same_bytes] + [[name, *_verdict(v)] for name, v in results]


# ------------------------------------------------------------- rr-pipeline


def rr_cases(seed: int, size: int):
    """One-variable-per-part adjustable-SAT instances, ``size`` times
    RR_QUOTAS of them, each pushed through every RR edge under every
    measure.  The instances are one fixed draw; the seed relabels them
    (variables and clause and literal order; signs stay, since the
    adversary's blocking sets a Y variable false).  Returns the cases and
    the count of skipped draws: surplus instances of a full stratum plus
    subset-sum targets over RR_COST_MAX_UNIVERSE."""
    draw = random.Random("rr-pipeline")
    rng = random.Random(repr(("rr-pipeline", seed)))
    left = {key: n * size for key, n in RR_QUOTAS.items()}
    cases = []
    skipped = 0
    j = 0
    while any(left.values()):
        inst = gen.random_radjsat(draw, max_part=1, max_clauses=3, max_gamma=2)
        key = (len(inst.cnf.clauses), inst.gamma)
        if not left[key]:
            skipped += 1
            continue
        left[key] -= 1
        cnf, lit = relabel_cnf(rng, inst.cnf, flip_signs=False)
        inst = rr.RAdjSatInstance(
            cnf, *(tuple(map(lit, part)) for part in (inst.x_vars, inst.y_vars, inst.z_vars)),
            inst.gamma,
        )
        for edge in RR_EDGES:
            for measure in MEASURES:
                if edge == "3sat-subsetsum" and problems.universe_size(
                    rr.radjsat_to_comb_rr(inst, edge, measure).instance
                ) > RR_COST_MAX_UNIVERSE:
                    skipped += 1
                    continue
                cases.append((f"{j}/{edge}/{measure.value}", (inst, edge, measure)))
        j += 1
    return cases, skipped


def rr_case(api, inst, edge, measure):
    want, _ = api.solve_radjsat(inst, BOUNDS)
    comb = api.radjsat_to_comb_rr(inst, edge, measure)
    got, witness = api.eval_comb_rr(comb, BOUNDS)
    record = [want, got, witness.s1 if witness else None]
    ok = got == want
    if edge == "3sat-subsetsum":
        value, got_cost, _ = api.eval_cost_rr(api.comb_to_cost_rr(comb), BOUNDS)
        record += [got_cost, value if got_cost else None]
        ok = ok and got_cost == want
    return ok, record


def _verdict(v):
    return [v.passed, v.source_solutions, v.target_solutions]


WORKLOADS = {
    "blowup-corpus": (blowup_cases, blowup_case),
    "artifact-roundtrip": (artifact_cases, artifact_case),
    "rr-pipeline": (rr_cases, rr_case),
}


def make_cases(workload: str, seed: int, size: int):
    """The workload's case list and the count of skipped draws."""
    return WORKLOADS[workload][0](seed, size)


def case_runner(workload: str):
    """``run_case(api, case_id, args)`` for the workload: (ok, record)."""
    run = WORKLOADS[workload][1]

    def run_case(api, case_id, args):
        return run(api, *args)

    return run_case


def run_pass(api, run_case, cases, clock):
    """Run every case once against cold caches.

    Returns (latencies in seconds, failed count, verdict digest).  A case
    that raises counts as failed.
    """
    problems.clear_caches()
    latencies = []
    failed = 0
    digest = hashlib.sha256()
    for case_id, args in cases:
        t0 = clock()
        try:
            ok, record = run_case(api, case_id, args)
        except Exception as exc:  # a raising case is a failed case, not a crash
            ok, record = False, ["raised", type(exc).__name__, str(exc)]
        latencies.append(clock() - t0)
        failed += not ok
        digest.update(json.dumps([case_id, record]).encode())
        digest.update(b"\n")
    return latencies, failed, digest.hexdigest()
