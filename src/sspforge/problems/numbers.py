"""Number problems: subset sum, knapsack, partition, two-machine
scheduling.

Element identity is positional; equal values are distinct universe
elements.  Partition and scheduling solutions are canonicalized: the last
universe element is required to lie on the complement side, so each
bipartition is represented exactly once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from ..core import CapacityError, DomainError, FormatError


def subset_sums(values):
    """sum(values[i] for i in S), indexed by the mask S."""
    table = [0]
    for v in values:
        table += [t + v for t in table]
    return table


def _masked_sum(values, mask):
    total = 0
    i = 0
    while mask:
        if mask & 1:
            total += values[i]
        mask >>= 1
        i += 1
    return total


@dataclass(frozen=True)
class SubsetSumInstance:
    values: tuple[int, ...]
    target: int

    def __post_init__(self):
        if any(v <= 0 for v in self.values):
            raise FormatError("values must be positive")

    def universe_labels(self):
        return tuple(f"n{i}={v}" for i, v in enumerate(self.values))

    def verify(self, mask: int) -> bool:
        if mask >> len(self.values):
            raise DomainError("candidate outside number universe")
        return _masked_sum(self.values, mask) == self.target


@dataclass(frozen=True)
class KnapsackInstance:
    items: tuple[tuple[int, int], ...]  # (price, weight)
    price_goal: int
    weight_cap: int

    def __post_init__(self):
        if any(p <= 0 or w <= 0 for p, w in self.items):
            raise FormatError("prices and weights must be positive")

    def universe_labels(self):
        return tuple(f"it{i}=({p},{w})" for i, (p, w) in enumerate(self.items))

    def price(self, mask):
        return _masked_sum(tuple(p for p, _ in self.items), mask)

    def weight(self, mask):
        return _masked_sum(tuple(w for _, w in self.items), mask)

    def verify(self, mask: int) -> bool:
        if mask >> len(self.items):
            raise DomainError("candidate outside item universe")
        return self.price(mask) >= self.price_goal and self.weight(mask) <= self.weight_cap


@dataclass(frozen=True)
class PartitionInstance:
    values: tuple[int, ...]

    def __post_init__(self):
        if any(v <= 0 for v in self.values):
            raise FormatError("values must be positive")
        if not self.values:
            raise FormatError("need at least one number")

    def universe_labels(self):
        return tuple(f"n{i}={v}" for i, v in enumerate(self.values))

    def verify(self, mask: int) -> bool:
        n = len(self.values)
        if mask >> n:
            raise DomainError("candidate outside number universe")
        if mask >> (n - 1) & 1:
            return False  # canonical side excludes the last element
        total = sum(self.values)
        return 2 * _masked_sum(self.values, mask) == total


@dataclass(frozen=True)
class SchedulingInstance:
    times: tuple[int, ...]
    deadline: int

    def __post_init__(self):
        if any(v <= 0 for v in self.times):
            raise FormatError("processing times must be positive")
        if not self.times:
            raise FormatError("need at least one job")

    def universe_labels(self):
        return tuple(f"j{i}={v}" for i, v in enumerate(self.times))

    def verify(self, mask: int) -> bool:
        n = len(self.times)
        if mask >> n:
            raise DomainError("candidate outside job universe")
        if mask >> (n - 1) & 1:
            return False  # canonical machine-1 set excludes the last job
        total = sum(self.times)
        s1 = _masked_sum(self.times, mask)
        return s1 <= self.deadline and total - s1 <= self.deadline


def _subset_dfs(values, accept, prune, cap) -> list[int]:
    """Generic include/exclude over positive values.

    ``prune(cur, i)`` may cut a branch where ``cur`` is the running sum after
    deciding the first i elements; ``accept(cur)`` judges full selections.
    """
    n = len(values)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    out = []

    def rec(i, cur, mask):
        if prune(cur, i, suffix):
            return
        if i == n:
            if accept(cur):
                out.append(mask)
                if len(out) > cap:
                    raise CapacityError("solution cap exceeded")
            return
        rec(i + 1, cur, mask)
        rec(i + 1, cur + values[i], mask | 1 << i)

    # rec recurses through its own closure cell and holds prune and accept;
    # emptying the cell frees them now instead of at a later cyclic
    # collection
    try:
        rec(0, 0, 0)
    finally:
        del rec
    out.sort()
    return out


def _sum_atleast(values, threshold, cap) -> list[int]:
    """All masks over ``values`` whose sum reaches ``threshold``, sorted.

    Two tables of subset sums, over the low h and the high n - h elements,
    meet in the middle: for each high mask H, in mask order, the low masks
    L with low[L] >= threshold - high[H] are a suffix of the low masks
    sorted by sum, and H << h | L for those L in mask order continues the
    sorted output.  The family is counted before it is built."""
    h = len(values) // 2
    low, high = subset_sums(values[:h]), subset_sums(values[h:])
    by_sum = sorted(range(len(low)), key=low.__getitem__)
    sums = [low[m] for m in by_sum]
    starts = [bisect_left(sums, threshold - s) for s in high]
    if len(high) * len(low) - sum(starts) > cap:
        raise CapacityError("solution cap exceeded")
    out: list[int] = []
    for hi, start in enumerate(starts):
        out += map((hi << h).__or__, sorted(by_sum[start:]))
    return out


def subsetsum_solutions(inst: SubsetSumInstance, cap) -> list[int]:
    M = inst.target
    return _subset_dfs(
        inst.values,
        accept=lambda cur: cur == M,
        prune=lambda cur, i, suf: cur > M or cur + suf[i] < M,
        cap=cap,
    )


def subsetsum_feasible(inst: SubsetSumInstance, cap) -> list[int]:
    return _sum_atleast(inst.values, inst.target, cap)


def knapsack_solutions(inst: KnapsackInstance, cap) -> list[int]:
    prices = tuple(p for p, _ in inst.items)
    sols = _subset_dfs(
        prices,
        accept=lambda cur: cur >= inst.price_goal,
        prune=lambda cur, i, suf: cur + suf[i] < inst.price_goal,
        cap=cap,
    )
    return [m for m in sols if inst.weight(m) <= inst.weight_cap]


def knapsack_feasible(inst: KnapsackInstance, cap) -> list[int]:
    return _sum_atleast(tuple(p for p, _ in inst.items), inst.price_goal, cap)


def partition_solutions(inst: PartitionInstance, cap) -> list[int]:
    total = sum(inst.values)
    if total % 2:
        return []
    half = total // 2
    head = inst.values[:-1]
    return _subset_dfs(
        head,
        accept=lambda cur: cur == half,
        prune=lambda cur, i, suf: cur > half or cur + suf[i] < half,
        cap=cap,
    )


def partition_feasible(inst: PartitionInstance, cap) -> list[int]:
    # 2 * sum >= total
    return _sum_atleast(inst.values[:-1], (sum(inst.values) + 1) // 2, cap)


def scheduling_solutions(inst: SchedulingInstance, cap) -> list[int]:
    total = sum(inst.times)
    T = inst.deadline
    head = inst.times[:-1]
    return _subset_dfs(
        head,
        accept=lambda cur: cur <= T and total - cur <= T,
        prune=lambda cur, i, suf: cur > T or cur + suf[i] < total - T,
        cap=cap,
    )


def scheduling_feasible(inst: SchedulingInstance, cap) -> list[int]:
    # the other machine's load, total - sum, is at most the deadline
    return _sum_atleast(inst.times[:-1], sum(inst.times) - inst.deadline, cap)
