"""Recoverable-robust layer: budgeted scenario sets, exhaustive
evaluators for the combinatorial and cost formulations, the adjustable-SAT
game solver, and the two hardness-pipeline constructions, the first
through an edge chain from 3SAT.

Evaluators are exact quantifier searches over the solution and feasible
families; witnesses are deterministic (the least first-stage mask among
the optimal ones wins).

One walk, ``_exists_forall_exists``, decides comb-RR, the adjustable-SAT
game and exists-forall-exists SAT.  Cost-RR reads F(I) in cost order as
windows of keys: from the kind's search under its own costs, and as one
listed and sorted window under any other cost vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from .core import (
    Bounds,
    CapacityError,
    DEFAULT_BOUNDS,
    DistanceMeasure,
    FormatError,
    PreconditionError,
    UnsupportedKindError,
    distance,
    indices_of,
    mask_of,
    subsets_upto,
)
from .problems import (
    KIND_SPECS,
    CnfInstance,
    ProblemKind,
    enumerate_feasible,
    enumerate_solutions,
    feasible_keys,
    is_lop,
    lop_cost,
    universe_size,
)
from .problems.numbers import _masked_sum
from .reductions import build_blowup, build_preserving, compose

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
        if not is_lop(self.kind):
            raise FormatError(
                f"cost recoverable robustness needs an LOP kind, got {self.kind.value}"
            )
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


def check_partition(n_vars: int, *parts) -> None:
    """The variable lists ``parts`` must hold integers only (no bools) and
    name each of the variables 0..n_vars-1 exactly once between them."""
    names = [v for part in parts for v in part]
    if not all(type(v) is int for v in names) or sorted(names) != [*range(n_vars)]:
        raise FormatError("X, Y, Z must partition the variables")


@dataclass(frozen=True)
class RAdjSatInstance:
    cnf: CnfInstance
    x_vars: tuple[int, ...]
    y_vars: tuple[int, ...]
    z_vars: tuple[int, ...]
    gamma: int

    def __post_init__(self):
        self.cnf.require_width(3)
        check_partition(self.cnf.n_vars, self.x_vars, self.y_vars, self.z_vars)
        if not len(self.x_vars) == len(self.y_vars) == len(self.z_vars):
            raise FormatError("X, Y, Z must have equal sizes")
        _check_budget("gamma", self.gamma)


@dataclass
class RrWitness:
    s1: int
    recoveries: dict = field(default_factory=dict)  # blocker/scenario -> s2
    objective: int | float | None = None


def _assignments(n_vars, variables) -> Iterator[int]:
    """The literal masks of all assignments to the distinct ``variables``,
    lazily, in the order of the integers ``bits`` where bit ``pos`` of
    ``bits`` sets ``variables[pos]`` true."""
    literals = [(1 << (n_vars + v), 1 << v) for v in reversed(variables)]
    return map(sum, itertools.product(*literals))


def _budgeted(indices: Sequence[int], gamma: int, bounds: Bounds, what: str) -> list[int]:
    """The masks of the subsets of at most ``gamma`` of ``indices``, listed
    once their count is found within ``bounds.max_solutions``."""
    sizes = range(min(gamma, len(indices)) + 1)
    if sum(math.comb(len(indices), size) for size in sizes) > bounds.max_solutions:
        raise CapacityError(f"{what} count exceeds the enumeration cap")
    return list(subsets_upto(indices, gamma))


def enumerate_scenarios(inst: CostRrInstance, bounds: Bounds = DEFAULT_BOUNDS):
    """All cost functions of the budgeted set, deduplicated: only elements
    with a strict gap can deviate."""
    gap = [i for i in range(len(inst.c_lo)) if inst.c_hi[i] > inst.c_lo[i]]
    lo, hi = inst.c_lo, inst.c_hi
    return [
        (raised, tuple(hi[i] if raised >> i & 1 else lo[i] for i in range(len(lo))))
        for raised in _budgeted(gap, inst.gamma, bounds, "scenario")
    ]


def _exists_forall_exists(firsts, moves, responses, fits):
    """(x, {m: r}) for the first x of ``firsts`` that beats every move m of
    ``moves``, with the first r of ``responses`` per move such that
    ``r & m == 0`` and ``fits(x, m, r)``; None if no x does.  ``moves``
    and ``responses`` are walked again for each x."""
    for x in firsts:
        answers = {}
        for m in moves:
            for r in responses:
                if not r & m and fits(x, m, r):
                    answers[m] = r
                    break
            else:
                break  # m beats x
        else:
            return x, answers
    return None


def eval_comb_rr(
    inst: CombRrInstance, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[bool, RrWitness | None]:
    """Exists S1, for all blockers of size <= gamma, exists S2 avoiding the
    blocker within distance kappa; all over the nominal solution set."""
    sols = enumerate_solutions(inst.kind, inst.instance, bounds)
    if not sols:
        return False, None
    blockers = _budgeted(indices_of(inst.blockable), inst.gamma, bounds, "blocker")
    measure, kappa = inst.measure, inst.kappa
    won = _exists_forall_exists(
        sols, blockers, sols, lambda s1, b, s2: distance(measure, s1, s2) <= kappa
    )
    return (False, None) if won is None else (True, RrWitness(*won))


class _Prefix:
    """Keys c(S) << n | S of F(I) in increasing order, read from a stream
    of (floor, keys) windows: ``keys``, a plain list, holds the keys read
    so far, ``floor`` the least cost any unread key can have, and ``grow``
    appends the next non-empty window, if there is one."""

    __slots__ = ("keys", "floor", "_rest")

    def __init__(self, windows):
        self.keys = []
        self.floor = -INFEASIBLE  # nothing read yet
        self._rest = iter(windows)

    def grow(self) -> bool:
        """Read up to the next non-empty window; False once the stream has
        none left."""
        for self.floor, window in self._rest:
            if window:
                self.keys += window
                return True
        self.floor = INFEASIBLE
        return False


def _order(inst: CostRrInstance, costs: tuple[int, ...], bounds: Bounds) -> _Prefix:
    """F(I) in increasing (c(S), S) order: from the kind's search window by
    window (``feasible_keys``) under the kind's own ``costs``, and under
    any other listed, priced and sorted as one window with floor infinity."""
    windows = feasible_keys(inst.kind, inst.instance, costs, bounds)
    if windows is None:
        n = len(costs)
        feas = enumerate_feasible(inst.kind, inst.instance, bounds)
        windows = [(INFEASIBLE, sorted(_masked_sum(costs, s) << n | s for s in feas))]
    return _Prefix(windows)


def eval_cost_rr(
    inst: CostRrInstance, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[int | float, bool, RrWitness | None]:
    """min over S1 of max over scenarios of min over S2 within kappa of
    c1(S1) + c2(S2); infeasible inner minimization yields infinity.

    F(I) is read in two orders (``_order``), one when c1 = c_lo:
    recoveries in increasing (c_lo(S2), S2) order and first stages in
    increasing (c1(S1), S1) order.  Under the kind's own costs, as in every
    pipeline instance, an order is read window by window only as far as
    the walk needs, and counts against the solution cap only the searches
    it has run.

    Each first stage S1 sets a cut: the best value so far, or one above it
    when S1's mask is smaller than the best one's, since a first stage
    whose worst case reaches the cut loses.  A recovery scan stops as soon
    as c1(S1) + c_lo(S2) reaches the best recovery so far, starting from
    the cut, and it reads no further window once c1(S1) plus the stream's
    floor does; c2(S2) is c_lo(S2) plus the gaps of the at most gamma
    raised elements in S2.  A scan that finds nothing below the cut counts
    as the cut.  The first-stage walk stops once c1(S1) plus the cheapest
    c_lo exceeds the best value, since no later first stage can reach it.
    A first stage whose worst case ties the best value wins if its mask is
    smaller, so the witness is the least mask among the optimal first
    stages, as in a walk in mask order; an infinite worst case is never a
    witness."""
    lo = _order(inst, inst.c_lo, bounds)
    first = lo if inst.c1 == inst.c_lo else _order(inst, inst.c1, bounds)
    n = len(inst.c_lo)
    raises = [
        (raised, [(1 << i, inst.c_hi[i] - inst.c_lo[i])
                  for i in range(n) if raised >> i & 1])
        for raised, _ in enumerate_scenarios(inst, bounds)
    ]
    best: int | float = INFEASIBLE
    best_s1 = -1
    best_witness = None
    lo.grow()
    lo_keys, stages = lo.keys, first.keys
    lo_floor = lo_keys[0] >> n if lo_keys else 0
    full = (1 << n) - 1
    i = 0
    while i < len(stages) or first.floor + lo_floor <= best and first.grow():
        c1v, s1 = stages[i] >> n, stages[i] & full
        i += 1
        if c1v + lo_floor > best:
            break  # no later first stage is cheaper
        if c1v + lo_floor == best and s1 > best_s1:
            continue  # at most a tie, which the smaller mask holds
        worst: int | float = -INFEASIBLE
        recov = {}
        cut = best + 1 if s1 < best_s1 else best
        for raised, gaps in raises:
            inner = cut
            inner_s2 = None
            start = 0
            while True:
                for key in (lo_keys[start:] if start else lo_keys):
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
                else:
                    start = len(lo_keys)
                    if c1v + lo.floor < inner and lo.grow():
                        continue  # scan on through the keys just read
                break
            if inner > worst:
                worst = inner
                if worst > best or worst == best and s1 > best_s1:
                    break
            recov[raised] = inner_s2
        if worst < best or worst == best and s1 < best_s1:
            best, best_s1 = worst, s1
            best_witness = RrWitness(s1=s1, recoveries=recov, objective=worst)
    return best, best <= inst.t_rr, best_witness


def solve_eae_sat(
    cnf: CnfInstance, x_vars, y_vars, z_vars, bounds: Bounds = DEFAULT_BOUNDS
) -> bool:
    """Truth of: exists X-assignment, for all Y-assignments, exists
    Z-assignment satisfying the formula."""
    # a game walks assignments, as the 3SAT enumerator does, so its formula
    # answers to that enumerator's variable guard
    KIND_SPECS[ProblemKind.THREE_SAT].guard.check(cnf, bounds)
    n = cnf.n_vars
    masks = cnf.clause_masks()
    # a Z-assignment never meets a Y-assignment, so it always misses the move
    won = _exists_forall_exists(
        _assignments(n, x_vars),
        list(_assignments(n, y_vars)), list(_assignments(n, z_vars)),
        lambda mx, my, mz: 0 not in map((mx | my | mz).__and__, masks),
    )
    return won is not None


def solve_radjsat(
    inst: RAdjSatInstance, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[bool, int | None]:
    """Exhaustive play of the adjustable-SAT game: commit an X-assignment,
    the adversary zeroes at most gamma Y-variables, then complete Y and Z.

    Returns the winning X-assignment as a literal mask when the answer is
    yes."""
    cnf = inst.cnf
    KIND_SPECS[ProblemKind.THREE_SAT].guard.check(cnf, bounds)
    n = cnf.n_vars
    masks = cnf.clause_masks()
    # the Z-assignments under each Y-assignment in turn
    yz_assignments = list(_assignments(n, (*inst.z_vars, *inst.y_vars)))
    # a blocker zeroes its variables: their positive literals are barred
    blockers = _budgeted(inst.y_vars, inst.gamma, bounds, "blocker")
    won = _exists_forall_exists(
        _assignments(n, inst.x_vars), blockers, yz_assignments,
        lambda mx, blocked, myz: 0 not in map((mx | myz).__and__, masks),
    )
    return (False, None) if won is None else (True, won[0])


def radjsat_to_comb_rr(
    inst: RAdjSatInstance, chain: str, measure: DistanceMeasure
) -> CombRrInstance:
    """Hardness pipeline through ``chain`` (as ``reduce --chain``): blow up
    the X-literals, compose each preserving edge on, block the images of the
    positive Y-literals, and set the recovery radius to the blow-up factor."""
    cnf = inst.cnf
    n = cnf.n_vars
    l_b = mask_of([*inst.x_vars, *(n + v for v in inst.x_vars)])
    edge, *rest = chain.split(",")
    artifact = build_blowup(edge, cnf, l_b, measure)
    for edge in rest:
        artifact = compose(build_preserving(edge, artifact.target), artifact)
    return CombRrInstance(
        kind=artifact.target_kind,
        instance=artifact.target,
        blockable=mask_of(artifact.f[v] for v in inst.y_vars),
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
    parts = [list(x_vars), list(y_vars), list(z_vars)]
    size = max(map(len, parts))
    old_n = new_n = cnf.n_vars
    for part in parts:
        fresh = range(new_n, new_n + size - len(part))
        part += fresh
        new_n += len(fresh)
    if new_n > old_n:
        # the negative literals move up past the fresh variables
        def remap(lit):
            return lit if lit < old_n else lit - old_n + new_n

        cnf = CnfInstance(new_n, tuple(tuple(map(remap, c)) for c in cnf.clauses))
    return RAdjSatInstance(cnf, *map(tuple, parts), gamma)
