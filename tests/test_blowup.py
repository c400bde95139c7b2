import pathlib
import random

import pytest

from sspforge.core import (
    DistanceMeasure,
    FormatError,
    PreconditionError,
    distance,
    embed,
    mask_of,
)
from sspforge.gen import random_cnf, random_lb
from sspforge.problems import (
    CnfInstance,
    ProblemKind,
    clear_caches,
    enumerate_solutions,
)
from sspforge.reductions import (
    BLOWUP_EDGES,
    build_blowup,
    check_blowup,
    check_ssp,
    published_beta,
)
from sspforge.reductions.artifact import CheckVerdict
from sspforge.reductions.checks import _groups_separated
from sspforge import serialize

ADD = DistanceMeasure.KAPPA_ADDITION
DEL = DistanceMeasure.KAPPA_DELETION
HAM = DistanceMeasure.HAMMING
GOLDEN = pathlib.Path(__file__).parent / "golden"

FIG_PHI = CnfInstance(3, ((3, 4, 2),))  # (~x1 | ~x2 | x3)


def test_fig1_vertex_cover_shape():
    art = build_blowup("3sat-vc", FIG_PHI, 0, HAM)
    g = art.target
    assert g.n == 9
    assert len(g.edges) == 9
    assert g.k == 5  # |L|/2 + 2|C|
    assert art.f == tuple(range(6))
    assert art.beta_for(HAM) == 9  # the base graph size


def test_negative_beta_override_is_refused():
    with pytest.raises(PreconditionError, match="negative blow-up factor -1"):
        build_blowup("3sat-vc", FIG_PHI, mask_of([2, 5]), HAM, beta_override=-1)


def test_fig1_golden():
    art = build_blowup("3sat-vc", FIG_PHI, 0, HAM)
    got = serialize.dumps(serialize.artifact_to_doc(art))
    want = (GOLDEN / "fig1_vc.json").read_text()
    assert got == want


def test_fig2_gadget_shape():
    art = build_blowup("3sat-vc", FIG_PHI, mask_of([2, 5]), HAM, beta_override=2)
    g = art.target
    assert g.n == 13  # 9 plus a K_{3,3} gadget sharing the pair vertices
    assert len(g.edges) == 17
    assert g.k == 7  # 3*1 + 2 + 2
    got = serialize.dumps(serialize.artifact_to_doc(art))
    assert got == (GOLDEN / "fig2_vc.json").read_text()


def test_fig3_independent_set_shape():
    art = build_blowup("3sat-is", FIG_PHI, 0, HAM)
    g = art.target
    assert g.n == 9
    assert g.k == 4  # |L|/2 + |C|
    # clause slots attach to the negated literal vertices
    assert (0, 6) in g.edges and (1, 7) in g.edges and (5, 8) in g.edges


def test_lb_must_be_negation_closed():
    with pytest.raises(PreconditionError):
        build_blowup("3sat-vc", FIG_PHI, mask_of([2]), HAM)


def test_3sat_edges_reject_wide_clauses():
    wide = CnfInstance(2, ((0, 1, 2, 3),))
    with pytest.raises(FormatError):
        build_blowup("3sat-vc", wide, 0, HAM)


def test_sat_3sat_splits_wide_clauses():
    wide = CnfInstance(2, ((0, 1, 2, 3),))
    art = build_blowup("sat-3sat", wide, 0, HAM)
    tgt = art.target
    assert all(len(c) == 3 for c in tgt.clauses)
    assert tgt.n_vars == 3  # one helper
    assert check_ssp(art).passed


def test_beta_tables_match_published_formulas():
    phi = CnfInstance(3, ((0, 1, 2), (3, 4, 5)))
    lb = mask_of([0, 3])  # pair x1
    assert published_beta("3sat-vc", phi, lb) == {ADD: 12, DEL: 12, HAM: 12}
    assert published_beta("3sat-is", phi, lb) == {ADD: 4, DEL: 4, HAM: 8}
    assert published_beta("3sat-subsetsum", phi, lb) == {ADD: 4, DEL: 4, HAM: 8}
    assert published_beta("3sat-dhampath", phi, lb) == {ADD: 24, DEL: 24, HAM: 48}
    assert published_beta("3sat-2ddp", phi, lb) == {ADD: 118, DEL: 118, HAM: 236}
    assert published_beta("3sat-steinertree", phi, lb) == {ADD: 22, DEL: 22, HAM: 44}
    assert published_beta("sat-3sat", phi, lb) == {ADD: 2, DEL: 2, HAM: 4}


def test_published_beta_misses_helper_slack():
    """Splitting a wide clause leaves the helper variable free on some
    assignments, so solutions agreeing on the blown literals can sit
    farther apart than the published factor."""
    src = CnfInstance(3, ((4, 0, 1, 4), (3, 3, 4)))
    lb = mask_of([0, 2, 3, 5])  # pairs x1, x3
    art = build_blowup("sat-3sat", src, lb, ADD)
    assert check_ssp(art).passed
    assert not check_blowup(art, ADD, beta=published_beta("sat-3sat", src, lb)[ADD])
    assert check_blowup(art, ADD).passed  # helper-adjusted factor


def test_published_beta_misses_detour_rehost():
    """Moving a clause detour between hosts swaps two detour arcs and one
    chain arc, one more than the published per-clause term."""
    src = CnfInstance(2, ((2, 1, 3),))
    lb = mask_of([0, 1, 2, 3])
    art = build_blowup("3sat-dhampath", src, lb, ADD)
    assert check_ssp(art).passed
    assert not check_blowup(art, ADD, beta=published_beta("3sat-dhampath", src, lb)[ADD])
    assert check_blowup(art, ADD).passed


def test_published_beta_misses_switch_freedom():
    """Switches crossed by neither service path can be traversed two ways,
    which the published constants do not account for."""
    src = CnfInstance(2, ((1, 2, 3),))
    lb = mask_of([0, 1, 2, 3])
    art = build_blowup("3sat-2ddp", src, lb, ADD)
    assert check_ssp(art).passed
    assert not check_blowup(art, ADD, beta=published_beta("3sat-2ddp", src, lb)[ADD])
    assert check_blowup(art, ADD).passed


def test_blowup_fails_with_zero_beta():
    art = build_blowup("3sat-vc", FIG_PHI, 0, HAM)
    verdict = check_blowup(art, HAM, beta=0)
    assert not verdict.passed
    assert verdict.counterexample


def test_blowup_empty_lb_checks_diameter():
    art = build_blowup("3sat-is", FIG_PHI, 0, ADD)
    assert check_blowup(art, ADD).passed
    assert not check_blowup(art, ADD, beta=1)


def test_tampered_threshold_fails_ssp():
    import dataclasses

    art = build_blowup("3sat-vc", FIG_PHI, 0, HAM)
    bad_target = dataclasses.replace(art.target, k=4)
    tampered = dataclasses.replace(art, target=bad_target)
    verdict = check_ssp(tampered)
    assert not verdict.passed


def test_identity_reduction_passes_ssp():
    from sspforge.reductions.artifact import ReductionArtifact, SSP

    phi = FIG_PHI
    art = ReductionArtifact(
        edge="identity",
        kind=SSP,
        source_kind=ProblemKind.THREE_SAT,
        source=phi,
        target_kind=ProblemKind.THREE_SAT,
        target=phi,
        f=tuple(range(6)),
    )
    assert check_ssp(art).passed


@pytest.mark.parametrize("edge", BLOWUP_EDGES)
def test_blowup_edges_random_sources(edge):
    """Equation and biconditional on a small random corpus per edge."""
    for i in range(8):
        rng = random.Random(repr((edge, i, "unit")))
        if edge == "sat-3sat":
            src = random_cnf(rng, max_vars=3, max_clauses=3, widths=(1, 2, 3, 4))
        elif edge in ("3sat-2ddp", "3sat-steinertree"):
            src = random_cnf(rng, max_vars=2, max_clauses=1)
        else:
            src = random_cnf(rng, max_vars=3, max_clauses=2)
        lb = random_lb(rng, src)
        for measure in DistanceMeasure:
            art = build_blowup(edge, src, lb, measure)
            assert check_ssp(art).passed, (edge, i, measure)
            assert check_blowup(art, measure).passed, (edge, i, measure)


# two clauses of width 3, with the pair x1 blown up
SHARED_SOURCE = CnfInstance(2, ((0, 1, 3), (2, 1, 1)))
SHARED_LB = mask_of([0, 2])


@pytest.mark.parametrize("edge", BLOWUP_EDGES)
def test_measures_with_one_factor_share_one_target(edge):
    """A build takes its target from a cache keyed by the gadget size, so
    the measures whose factors agree share one target object, which a
    cleared cache builds anew and equal."""
    clear_caches()
    arts = {
        m: build_blowup(edge, SHARED_SOURCE, SHARED_LB, m) for m in DistanceMeasure
    }
    kappa = arts[ADD]
    assert arts[DEL].target is kappa.target and arts[DEL].f is kappa.f
    assert (arts[HAM].target is kappa.target) == (edge == "3sat-vc")
    assert (arts[HAM].beta_for(HAM) == kappa.beta_for(ADD)) == (edge == "3sat-vc")
    clear_caches()
    again = build_blowup(edge, SHARED_SOURCE, SHARED_LB, ADD)
    assert again.target is not kappa.target and again.target == kappa.target
    assert (again.f, again.l_b, again.beta) == (kappa.f, kappa.l_b, kappa.beta)
    # an override sizes the gadget under every measure, so it keys the build
    beta = kappa.beta_for(ADD)
    same = build_blowup(edge, SHARED_SOURCE, SHARED_LB, HAM, beta_override=beta)
    assert same.target is again.target and same.beta_for(HAM) == beta
    wider = build_blowup(edge, SHARED_SOURCE, SHARED_LB, ADD, beta_override=beta + 1)
    assert wider.target != again.target
    widened = build_blowup(edge, SHARED_SOURCE, SHARED_LB, DEL, beta_override=beta + 1)
    assert widened.target is wider.target


# ------------------------------------------------- grouped biconditional


def ref_first_failing_pair(sols, f_lb, measure, beta):
    """The plain pair loop: the first ordered pair (i <= j) whose agreement
    on ``f_lb`` disagrees with a distance at most beta, as (reason, pair),
    or None."""
    for i, si in enumerate(sols):
        for sj in sols[i:]:
            agree = si & f_lb == sj & f_lb
            d1, d2 = distance(measure, si, sj), distance(measure, sj, si)
            if agree != (d1 <= beta) or agree != (d2 <= beta):
                reason = (
                    f"pair with agreement={agree} at distances "
                    f"({d1},{d2}) against beta={beta}"
                )
                return reason, (si, sj)
    return None


def ref_check_blowup(art, measure, beta):
    sols = enumerate_solutions(art.target_kind, art.target)
    stats = dict(source_solutions=0, target_solutions=len(sols))
    failing = ref_first_failing_pair(sols, embed(art.f, art.l_b), measure, beta)
    if failing is None:
        return CheckVerdict(True, **stats)
    reason, pair = failing
    return CheckVerdict(False, reason=reason, counterexample=pair, **stats)


def grouped_paths(sols, f_lb, measure, beta):
    """Which ways of the grouped check a family takes: a group decided by
    the bound within it (its varying bits for Hamming, the most bits a
    member holds beyond the group's AND for kappa), or by the exact pass
    (passing or failing); a pair of groups decided by the bound across
    them, or by the exact pass (passing or failing)."""
    groups = {}
    for s in sols:
        groups.setdefault(s & f_lb, []).append(s)
    groups = list(groups.values())
    summary = []
    for group in groups:
        all1 = any1 = group[0]
        for s in group:
            all1, any1 = all1 & s, any1 | s
        summary.append((all1, any1))
    paths = set()
    for group, (all1, any1) in zip(groups, summary):
        if measure == HAM:
            spread = (any1 ^ all1).bit_count()
        else:
            spread = max((s & ~all1).bit_count() for s in group)
        if spread <= beta:
            paths.add("in-group bound")
        else:
            ok = ref_first_failing_pair(group, f_lb, measure, beta) is None
            paths.add("in-group passes" if ok else "in-group fails")
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            (all_a, any_a), (all_b, any_b) = summary[a], summary[b]
            ab, ba = (all_a & ~any_b).bit_count(), (all_b & ~any_a).bit_count()
            if (ab + ba if measure == HAM else min(ab, ba)) > beta:
                paths.add("cross-group bound")
                continue
            ok = all(
                distance(measure, s, t) > beta and distance(measure, t, s) > beta
                for s in groups[a]
                for t in groups[b]
            )
            paths.add("cross-group passes" if ok else "cross-group fails")
    return paths


ALL_PATHS = {
    "in-group bound",
    "in-group passes",
    "in-group fails",
    "cross-group bound",
    "cross-group passes",
    "cross-group fails",
}


@pytest.mark.parametrize("measure", list(DistanceMeasure))
def test_groups_separated_equals_pair_loop_on_random_families(measure):
    # families over 7 bits with up to two signature bits, so groups
    # overlap in varying bits and the bounds leave pairs undecided
    rng = random.Random(repr(("groups", measure)))
    paths = set()
    for _ in range(600):
        sols = sorted(set(rng.randrange(1 << 7) for _ in range(rng.randint(0, 9))))
        f_lb = rng.choice((0, 1, 3, 65))
        beta = rng.randint(-1, 6)
        want = ref_first_failing_pair(sols, f_lb, measure, beta) is None
        assert _groups_separated(sols, f_lb, measure, beta) == want, (sols, f_lb, beta)
        paths |= grouped_paths(sols, f_lb, measure, beta)
    assert paths == ALL_PATHS


# (edge, source, blown literals): several signature groups of several
# solutions each, an empty family, a one-solution family, and the three
# published-factor failures above
GROUPED_CASES = (
    ("3sat-vc", FIG_PHI, mask_of([2, 5])),
    ("3sat-is", CnfInstance(2, ((0, 1, 2), (3, 2, 1))), mask_of([0, 2])),
    ("3sat-vc", CnfInstance(1, ((0, 0, 0), (1, 1, 1))), 0),
    ("sat-3sat", CnfInstance(1, ((0, 0, 0),)), mask_of([0, 1])),
    ("sat-3sat", CnfInstance(3, ((4, 0, 1, 4), (3, 3, 4))), mask_of([0, 2, 3, 5])),
    ("3sat-dhampath", CnfInstance(2, ((2, 1, 3),)), mask_of([0, 1, 2, 3])),
    ("3sat-2ddp", CnfInstance(2, ((1, 2, 3),)), mask_of([0, 1, 2, 3])),
    # at beta + 1, kappa leaves pairs of groups to the exact pass, which
    # separates them
    ("3sat-subsetsum", CnfInstance(3, ((1, 5, 0), (4, 3, 4), (2, 4, 4))), 36),
    # at beta // 2, kappa leaves the one group to the exact pass, which
    # passes it
    ("3sat-vc", CnfInstance(2, ((0, 0, 3), (1, 1, 3), (3, 1, 1))), 0),
)


@pytest.mark.parametrize("measure", list(DistanceMeasure))
def test_grouped_blowup_check_equals_pair_loop(measure):
    sizes, failures, paths = set(), set(), set()
    for edge, src, lb in GROUPED_CASES:
        art = build_blowup(edge, src, lb, measure)
        beta = art.beta_for(measure)
        published = published_beta(edge, src, lb)[measure]
        sols = enumerate_solutions(art.target_kind, art.target)
        # within-group failures below beta, cross-group ones above it
        for b in (beta, published, -1, 0, beta // 2, beta - 1, beta + 1, 10 * beta + 10):
            got = check_blowup(art, measure, beta=b)
            assert got == ref_check_blowup(art, measure, b), (edge, src, b)
            if not got.passed:
                failures.add(got.reason.split(" at ")[0])
            paths |= grouped_paths(sols, embed(art.f, art.l_b), measure, b)
        size = len(sols)
        sizes.add(min(size, 2))
        if edge in ("sat-3sat", "3sat-dhampath", "3sat-2ddp") and size > 1:
            assert not check_blowup(art, measure, beta=published).passed
    assert sizes == {0, 1, 2}
    assert failures == {"pair with agreement=True", "pair with agreement=False"}
    # no probed artifact leaves a separated pair of groups to Hamming's
    # exact pass; the random families above take that way
    assert paths == ALL_PATHS - ({"cross-group passes"} if measure == HAM else set())
