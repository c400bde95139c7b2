"""Exhaustive checkers for the SSP equation, the blow-up biconditional,
and the preserving partition.

All three enumerate the full solution families on both sides, so a
failing verdict always carries a concrete replayable counterexample.

The biconditional is checked by signature groups: the target solutions
that agree on the embedded blown literals form one group, and each
solution must lie within beta of every member of its group and beyond
beta of every other solution.  Bounds from each group's AND and OR of
its members settle most of that group against group: a group whose
members vary in at most beta bits needs no pair, and two groups whose
fixed bits already differ in more than beta places (for Hamming; for
kappa, in more than beta places each way) are separated.  The rest is
taken in passes of C-level ``map`` calls, one per solution.  Only when
the check fails does the checker walk the solution pairs in order, so a
failing verdict names the same first pair, with the same reason, as a
plain pair loop.
"""

from __future__ import annotations

from functools import reduce
from operator import add, and_, or_

from ..core import (
    Bounds,
    DEFAULT_BOUNDS,
    DistanceMeasure,
    FormatError,
    distance,
    embed,
)
from ..problems import enumerate_solutions, universe_size
from .artifact import BLOWUP, PRESERVING, CheckVerdict, ReductionArtifact


def _families(artifact: ReductionArtifact, bounds: Bounds):
    src = enumerate_solutions(artifact.source_kind, artifact.source, bounds)
    tgt = enumerate_solutions(artifact.target_kind, artifact.target, bounds)
    return src, tgt


def check_ssp(artifact: ReductionArtifact, bounds: Bounds = DEFAULT_BOUNDS) -> CheckVerdict:
    """Equation check: {f(S)} must equal {S' restricted to f(U)}."""
    src_sols, tgt_sols = _families(artifact, bounds)
    stats = dict(source_solutions=len(src_sols), target_solutions=len(tgt_sols))
    if bool(src_sols) != bool(tgt_sols):
        witness = (src_sols or tgt_sols)[0]
        return CheckVerdict(
            False,
            reason="yes-instance mismatch: one side has solutions, the other none",
            counterexample=(witness,),
            **stats,
        )
    f = artifact.f
    f_mask = artifact.f_image_mask()
    left = {embed(f, s) for s in src_sols}
    right = {s & f_mask for s in tgt_sols}
    if left == right:
        return CheckVerdict(True, **stats)
    missing = left - right
    if missing:
        bad = min(missing)
        witness = next(s for s in src_sols if embed(f, s) == bad)
        return CheckVerdict(
            False,
            reason="a source solution image is hit by no target solution",
            counterexample=(witness,),
            **stats,
        )
    bad = min(right - left)
    witness = next(s for s in tgt_sols if s & f_mask == bad)
    return CheckVerdict(
        False,
        reason="a target solution restricts to a non-solution of the source",
        counterexample=(witness,),
        **stats,
    )


# d(s, t) = bit_count(row(s)(t')) per measure, where t' is t itself or, for
# kappa-deletion, its complement
_ROWS = {
    DistanceMeasure.HAMMING: (False, lambda s: s.__xor__),
    DistanceMeasure.KAPPA_ADDITION: (False, lambda s: (~s).__and__),  # |t & ~s|
    DistanceMeasure.KAPPA_DELETION: (True, lambda s: s.__and__),  # |s & ~t|
}


def _groups_separated(sols, f_lb, measure, beta) -> bool:
    """Whether every solution lies within ``beta`` of each solution that
    agrees with it on ``f_lb``, and beyond ``beta`` of every other one.

    Every member of a group holds the bits its group's AND holds and no bit
    outside its group's OR.  So two members differ only on the group's
    varying bits, which bound their Hamming distance; their kappa distance
    counts only bits that one of them holds beyond the AND, so the most
    any member holds there bounds it.  Members s, t of groups A, B differ
    on the ab bits of allA & ~anyB and the ba bits of allB & ~anyA, so
    their Hamming distance is at least ab + ba and their kappa distance
    is at least ba one way and ab the other.  Groups and pairs of groups
    these bounds do not decide take the exact pass: every solution in
    turn as s, its distances, in the measure's own direction, to the
    solutions in question.  An unknown measure reads as a failure, which
    the pair loop reports."""
    if measure not in _ROWS:
        return False
    complemented, row = _ROWS[measure]
    groups: dict[int, list[int]] = {}
    for s in sols:
        groups.setdefault(s & f_lb, []).append(s)
    members = list(groups.values())
    all1 = [reduce(and_, group) for group in members]
    any1 = [reduce(or_, group) for group in members]
    out1 = [~x for x in any1]
    bit_count = int.bit_count
    hamming = measure == DistanceMeasure.HAMMING
    combine = add if hamming else min
    # near[a]: the groups whose distance bound to group a is within beta
    near = [[] for _ in members]
    for a in range(len(members)):
        bounds = list(
            map(
                combine,
                map(bit_count, map(all1[a].__and__, out1[a + 1 :])),
                map(bit_count, map(out1[a].__and__, all1[a + 1 :])),
            )
        )
        if bounds and min(bounds) <= beta:
            for b, bound in enumerate(bounds, a + 1):
                if bound <= beta:
                    near[a].append(b)
                    near[b].append(a)
    flip = (lambda ts: [~t for t in ts]) if complemented else list
    for a, group in enumerate(members):
        if hamming:
            spread = bit_count(any1[a] ^ all1[a])
        else:
            spread = max(map(bit_count, map((~all1[a]).__and__, group)))
        same = spread > beta and flip(group)
        other = flip([t for b in near[a] for t in members[b]])
        if not (same or other):
            continue
        for s in group:
            d = row(s)
            if same and max(map(bit_count, map(d, same))) > beta:
                return False
            if other and min(map(bit_count, map(d, other))) <= beta:
                return False
    return True


def check_blowup(
    artifact: ReductionArtifact,
    measure: DistanceMeasure,
    bounds: Bounds = DEFAULT_BOUNDS,
    beta: int | None = None,
) -> CheckVerdict:
    """Biconditional: agreement on the embedded blown literals must match
    distance at most beta, over all ordered solution pairs.

    The grouped check decides a pass; a failure is replayed by the pair
    loop, which returns the first failing pair in (i, j) order."""
    if artifact.beta is None:
        return CheckVerdict(False, reason="artifact carries no blow-up factor")
    if beta is None:
        beta = artifact.beta_for(measure)
    tgt_sols = enumerate_solutions(artifact.target_kind, artifact.target, bounds)
    stats = dict(source_solutions=0, target_solutions=len(tgt_sols))
    f_lb = embed(artifact.f, artifact.l_b)
    if _groups_separated(tgt_sols, f_lb, measure, beta):
        return CheckVerdict(True, **stats)
    sigs = [s & f_lb for s in tgt_sols]
    m = len(tgt_sols)
    for i in range(m):
        si, gi = tgt_sols[i], sigs[i]
        for j in range(i, m):
            sj, gj = tgt_sols[j], sigs[j]
            agree = gi == gj
            d1 = distance(measure, si, sj)
            d2 = distance(measure, sj, si)
            if agree != (d1 <= beta) or agree != (d2 <= beta):
                return CheckVerdict(
                    False,
                    reason=(
                        f"pair with agreement={agree} at distances "
                        f"({d1},{d2}) against beta={beta}"
                    ),
                    counterexample=(si, sj),
                    **stats,
                )
    return CheckVerdict(True, **stats)


def check_preserving(
    artifact: ReductionArtifact, bounds: Bounds = DEFAULT_BOUNDS
) -> CheckVerdict:
    """Partition property plus the SSP equation and the solution-count
    bijection."""
    if artifact.kind != PRESERVING:
        return CheckVerdict(False, reason="artifact is not a preserving reduction")
    n_t = universe_size(artifact.target)
    full = (1 << n_t) - 1
    f_mask = artifact.f_image_mask()
    if f_mask & artifact.u_on or f_mask & artifact.u_off or artifact.u_on & artifact.u_off:
        return CheckVerdict(False, reason="partition masks overlap")
    if f_mask | artifact.u_on | artifact.u_off != full:
        return CheckVerdict(False, reason="partition does not cover the target universe")
    src_sols, tgt_sols = _families(artifact, bounds)
    stats = dict(source_solutions=len(src_sols), target_solutions=len(tgt_sols))
    for s in tgt_sols:
        if s & artifact.u_on != artifact.u_on:
            return CheckVerdict(
                False,
                reason="a target solution misses an always-on element",
                counterexample=(s,),
                **stats,
            )
        if s & artifact.u_off:
            return CheckVerdict(
                False,
                reason="a target solution contains an always-off element",
                counterexample=(s,),
                **stats,
            )
    eq = check_ssp(artifact, bounds)
    if not eq.passed:
        return eq
    if len(src_sols) != len(tgt_sols):
        return CheckVerdict(
            False,
            reason=(
                f"solution counts differ: {len(src_sols)} source vs "
                f"{len(tgt_sols)} target"
            ),
            **stats,
        )
    return CheckVerdict(True, **stats)


def check_artifact(
    artifact: ReductionArtifact,
    what: str = "all",
    measure: DistanceMeasure | None = None,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> list[tuple[str, CheckVerdict]]:
    """Run the checks a given artifact supports."""
    results = []
    if what in ("all", "ssp"):
        results.append(("ssp", check_ssp(artifact, bounds)))
    if what in ("all", "blowup") and artifact.kind == BLOWUP:
        measures = [measure] if measure else list(DistanceMeasure)
        for m in measures:
            results.append((f"blowup[{m.value}]", check_blowup(artifact, m, bounds)))
    if what in ("all", "preserving") and artifact.kind == PRESERVING:
        results.append(("preserving", check_preserving(artifact, bounds)))
    if not results:
        raise FormatError(f"artifact kind {artifact.kind} supports no {what} check")
    return results
