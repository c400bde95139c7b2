"""Recoverable-robust layer: budgeted scenario sets, exhaustive
evaluators for the combinatorial and cost formulations, the adjustable-SAT
game solver, and the two hardness-pipeline constructions.

Evaluators are plain exhaustive quantifier searches over the enumerated
solution and feasible families; witnesses are deterministic (the
lexicographically least first-stage solution wins).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from .core import (
    Bounds,
    CapacityError,
    DEFAULT_BOUNDS,
    DistanceMeasure,
    FormatError,
    PreconditionError,
    UnsupportedKindError,
    distance,
)
from .problems import (
    CnfInstance,
    ProblemKind,
    enumerate_feasible,
    enumerate_solutions,
    is_lop,
    lop_cost,
    universe_size,
)
from .problems.numbers import subset_sums
from .reductions import build_blowup

INFEASIBLE = float("inf")


def _check_budget(name, value):
    if type(value) is not int or value < 0:
        raise FormatError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class CombRrInstance:
    kind: ProblemKind
    instance: Any
    blockable: int  # mask over the nominal universe
    gamma: int
    kappa: int
    measure: DistanceMeasure

    def __post_init__(self):
        if self.blockable >> universe_size(self.instance):
            raise FormatError("blockable set outside the universe")
        _check_budget("gamma", self.gamma)
        _check_budget("kappa", self.kappa)


@dataclass(frozen=True)
class CostRrInstance:
    kind: ProblemKind
    instance: Any
    c1: tuple[int, ...]
    c_lo: tuple[int, ...]
    c_hi: tuple[int, ...]
    t_rr: int
    gamma: int
    kappa: int
    measure: DistanceMeasure

    def __post_init__(self):
        n = universe_size(self.instance)
        if not len(self.c1) == len(self.c_lo) == len(self.c_hi) == n:
            raise FormatError("cost vectors must match the universe")
        if not all(type(c) is int for c in self.c1 + self.c_lo + self.c_hi):
            raise FormatError("costs must be integers")
        if type(self.t_rr) is not int:
            raise FormatError(f"t_rr must be an integer, got {self.t_rr!r}")
        if any(lo > hi for lo, hi in zip(self.c_lo, self.c_hi)):
            raise FormatError("lower costs must not exceed upper costs")
        _check_budget("gamma", self.gamma)
        _check_budget("kappa", self.kappa)


@dataclass(frozen=True)
class RAdjSatInstance:
    cnf: CnfInstance
    x_vars: tuple[int, ...]
    y_vars: tuple[int, ...]
    z_vars: tuple[int, ...]
    gamma: int

    def __post_init__(self):
        self.cnf.require_width(3)
        parts = (set(self.x_vars), set(self.y_vars), set(self.z_vars))
        all_vars = set(range(self.cnf.n_vars))
        if parts[0] | parts[1] | parts[2] != all_vars or sum(map(len, parts)) != len(
            all_vars
        ):
            raise FormatError("X, Y, Z must partition the variables")
        if not len(parts[0]) == len(parts[1]) == len(parts[2]):
            raise FormatError("X, Y, Z must have equal sizes")
        _check_budget("gamma", self.gamma)


@dataclass
class RrWitness:
    s1: int
    recoveries: dict = field(default_factory=dict)  # blocker/scenario -> s2
    objective: int | float | None = None


def _set_costs(costs, sets):
    """Costs of the sets in ``sets``, lazily in order: two tables of partial
    sums, over the low and the high half of the universe, give
    c(S) = low[S & m] + high[S >> half] with at most 2 * 2^ceil(n/2)
    table entries."""
    half = len(costs) // 2
    low, high = subset_sums(costs[:half]), subset_sums(costs[half:])
    m = (1 << half) - 1
    return (low[s & m] + high[s >> half] for s in sets)


def _lit_mask(n_vars, bits, variables):
    """Literal mask of the assignment that sets ``variables[pos]`` true
    exactly when bit ``pos`` of ``bits`` is set."""
    m = 0
    for pos, v in enumerate(variables):
        m |= 1 << (v if bits >> pos & 1 else n_vars + v)
    return m


def _subsets_upto(indices, gamma):
    for size in range(min(gamma, len(indices)) + 1):
        yield from itertools.combinations(indices, size)


def enumerate_scenarios(inst: CostRrInstance, bounds: Bounds = DEFAULT_BOUNDS):
    """All cost functions of the budgeted set, deduplicated: only elements
    with a strict gap can deviate."""
    gap = [i for i in range(len(inst.c_lo)) if inst.c_hi[i] > inst.c_lo[i]]
    out = []
    for combo in _subsets_upto(gap, inst.gamma):
        raised = 0
        for i in combo:
            raised |= 1 << i
        c2 = tuple(
            inst.c_hi[i] if raised >> i & 1 else inst.c_lo[i]
            for i in range(len(inst.c_lo))
        )
        out.append((raised, c2))
        if len(out) > bounds.max_solutions:
            raise CapacityError("scenario count exceeds the enumeration cap")
    return out


def eval_comb_rr(
    inst: CombRrInstance, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[bool, RrWitness | None]:
    """Exists S1, for all blockers of size <= gamma, exists S2 avoiding the
    blocker within distance kappa; all over the nominal solution set."""
    sols = enumerate_solutions(inst.kind, inst.instance, bounds)
    if not sols:
        return False, None
    blockers = []
    b_indices = [i for i in range(universe_size(inst.instance)) if inst.blockable >> i & 1]
    for combo in _subsets_upto(b_indices, inst.gamma):
        m = 0
        for i in combo:
            m |= 1 << i
        blockers.append(m)
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
            return True, RrWitness(s1=s1, recoveries=recov)
    return False, None


def eval_cost_rr(
    inst: CostRrInstance, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[int | float, bool, RrWitness | None]:
    """min over S1 of max over scenarios of min over S2 within kappa of
    c1(S1) + c2(S2); infeasible inner minimization yields infinity.

    Every feasible set is priced once under c1 and once under c_lo by
    half-universe lookup tables (``_set_costs``).  Recoveries are scanned
    in increasing (c_lo(S2), S2) order, sorted on the single integer key
    c_lo(S2) << n | S2, so the scan stops as soon as c1(S1) + c_lo(S2)
    reaches the best recovery so far; c2(S2) is c_lo(S2) plus the gaps of
    the at most gamma raised elements in S2.  First stages are taken in
    enumeration order and a later one wins only by a strict improvement;
    a first stage is skipped once c1(S1) plus the cheapest c_lo cannot
    beat the best value."""
    if not is_lop(inst.kind):
        raise UnsupportedKindError(
            f"cost recoverable robustness needs an LOP kind, got {inst.kind.value}"
        )
    feas = enumerate_feasible(inst.kind, inst.instance, bounds)
    n = len(inst.c_lo)
    raises = [
        (raised, [(1 << i, inst.c_hi[i] - inst.c_lo[i])
                  for i in range(n) if raised >> i & 1])
        for raised, _ in enumerate_scenarios(inst, bounds)
    ]
    best: int | float = INFEASIBLE
    best_witness = None
    # element i weighs (c_lo[i] << n) + 2^i, so a set's price is its sort
    # key c_lo(S2) << n | S2, the (c_lo(S2), S2) order in one integer
    order = sorted(
        _set_costs([(c << n) + (1 << i) for i, c in enumerate(inst.c_lo)], feas)
    )
    lo_floor = order[0] >> n if order else 0
    full = (1 << n) - 1
    for s1, c1v in zip(feas, _set_costs(inst.c1, feas)):
        if c1v + lo_floor >= best:
            continue
        worst: int | float = -INFEASIBLE
        recov = {}
        for raised, gaps in raises:
            inner: int | float = INFEASIBLE
            inner_s2 = None
            for key in order:
                val = c1v + (key >> n)
                if val >= inner:
                    break  # raising costs cannot beat this bound
                s2 = key & full
                if distance(inst.measure, s1, s2) > inst.kappa:
                    continue
                for bit, gap in gaps:
                    if s2 & bit:
                        val += gap
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
            best_witness = RrWitness(s1=s1, recoveries=recov, objective=worst)
    ok = best <= inst.t_rr
    return best, ok, best_witness


def solve_eae_sat(cnf: CnfInstance, x_vars, y_vars, z_vars) -> bool:
    """Truth of: exists X-assignment, for all Y-assignments, exists
    Z-assignment satisfying the formula."""
    n = cnf.n_vars
    masks = cnf.clause_masks()
    xs, ys, zs = list(x_vars), list(y_vars), list(z_vars)
    for ax in range(1 << len(xs)):
        mx = _lit_mask(n, ax, xs)
        good = True
        for ay in range(1 << len(ys)):
            my = mx | _lit_mask(n, ay, ys)
            if not any(
                all((my | _lit_mask(n, az, zs)) & cm for cm in masks)
                for az in range(1 << len(zs))
            ):
                good = False
                break
        if good:
            return True
    return False


def solve_radjsat(
    inst: RAdjSatInstance, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[bool, int | None]:
    """Exhaustive play of the adjustable-SAT game: commit an X-assignment,
    the adversary zeroes at most gamma Y-variables, then complete Y and Z.

    Returns the winning X-assignment as a literal mask when the answer is
    yes."""
    cnf = inst.cnf
    n = cnf.n_vars
    masks = cnf.clause_masks()
    xs, ys, zs = list(inst.x_vars), list(inst.y_vars), list(inst.z_vars)
    yz_assignments = [
        _lit_mask(n, ay, ys) | _lit_mask(n, az, zs)
        for ay in range(1 << len(ys))
        for az in range(1 << len(zs))
    ]
    blockers = list(_subsets_upto(ys, inst.gamma))
    for ax in range(1 << len(xs)):
        mx = _lit_mask(n, ax, xs)
        good = True
        for blocked in blockers:
            blocked_mask = 0
            for v in blocked:
                blocked_mask |= 1 << v  # positive literal of a zeroed var
            found = False
            for myz in yz_assignments:
                if myz & blocked_mask:
                    continue
                full = mx | myz
                if all(full & cm for cm in masks):
                    found = True
                    break
            if not found:
                good = False
                break
        if good:
            return True, mx
    return False, None


def radjsat_to_comb_rr(
    inst: RAdjSatInstance, edge: str, measure: DistanceMeasure
) -> CombRrInstance:
    """Hardness-pipeline step: blow up the X-literals, block the images of
    the positive Y-literals, and set the recovery radius to the blow-up
    factor."""
    cnf = inst.cnf
    n = cnf.n_vars
    l_b = 0
    for v in inst.x_vars:
        l_b |= 1 << v
        l_b |= 1 << (n + v)
    artifact = build_blowup(edge, cnf, l_b, measure)
    blockable = 0
    for v in inst.y_vars:
        blockable |= 1 << artifact.f[v]
    return CombRrInstance(
        kind=artifact.target_kind,
        instance=artifact.target,
        blockable=blockable,
        gamma=inst.gamma,
        kappa=artifact.beta_for(measure),
        measure=measure,
    )


def comb_to_cost_rr(comb: CombRrInstance) -> CostRrInstance:
    """Simulate blockable elements with budgeted costs: blocked elements
    jump to 2t+1, the threshold doubles."""
    if not is_lop(comb.kind):
        raise UnsupportedKindError(
            f"cost simulation needs an LOP nominal kind, got {comb.kind.value}"
        )
    d, t = lop_cost(comb.kind, comb.instance)
    if any(v < 0 for v in d):
        raise PreconditionError(
            "cost simulation is restricted to nonnegative nominal costs"
        )
    penalty = 2 * t + 1
    # an element whose nominal cost already exceeds the penalty can never
    # appear in a solution pair; keep the bound order intact for it
    c_hi = tuple(
        max(penalty, d[i]) if comb.blockable >> i & 1 else d[i]
        for i in range(len(d))
    )
    return CostRrInstance(
        kind=comb.kind,
        instance=comb.instance,
        c1=d,
        c_lo=d,
        c_hi=c_hi,
        t_rr=2 * t,
        gamma=comb.gamma,
        kappa=comb.kappa,
        measure=comb.measure,
    )


def pad_radjsat(
    cnf: CnfInstance, x_vars, y_vars, z_vars, gamma: int
) -> RAdjSatInstance:
    """Equalize the part sizes by appending fresh unconstrained variables
    to the short parts."""
    xs, ys, zs = list(x_vars), list(y_vars), list(z_vars)
    target = max(len(xs), len(ys), len(zs))
    nxt = cnf.n_vars
    extra = 0
    for part in (xs, ys, zs):
        while len(part) < target:
            part.append(nxt)
            nxt += 1
            extra += 1
    if extra:
        old_n = cnf.n_vars
        new_n = old_n + extra

        def remap(lit):
            return lit if lit < old_n else lit - old_n + new_n

        clauses = tuple(tuple(remap(x) for x in c) for c in cnf.clauses)
        cnf = CnfInstance(new_n, clauses)
    return RAdjSatInstance(cnf, tuple(xs), tuple(ys), tuple(zs), gamma)
