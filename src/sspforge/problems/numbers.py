"""Number problems: subset sum, knapsack, partition, two-machine
scheduling.

Element identity is positional; equal values are distinct universe
elements.  Partition and scheduling solutions are canonicalized: the last
universe element is required to lie on the complement side, so each
bipartition is represented exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from ..core import Capped, DomainError, FormatError


# the binary digits of a mask, as the bytes 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _masked_sum(values, mask):
    """sum(values[i] for i in the non-negative ``mask``): its binary
    digits, lowest first, select the values."""
    if mask < 0:
        raise DomainError(f"negative element set {mask}")
    return sum(compress(values, f"{mask:b}".encode()[::-1].translate(_DIGITS)))


@dataclass(frozen=True)
class SubsetSumInstance:
    universe = "values"
    values: tuple[int, ...]
    target: int

    def __post_init__(self):
        if any(v <= 0 for v in self.values):
            raise FormatError("values must be positive")

    def verify(self, mask: int) -> bool:
        return _masked_sum(self.values, mask) == self.target


@dataclass(frozen=True)
class KnapsackInstance:
    universe = "items"
    items: tuple[tuple[int, int], ...]  # (price, weight)
    price_goal: int
    weight_cap: int

    def __post_init__(self):
        if any(p <= 0 or w <= 0 for p, w in self.items):
            raise FormatError("prices and weights must be positive")

    def price(self, mask):
        return _masked_sum(tuple(p for p, _ in self.items), mask)

    def weight(self, mask):
        return _masked_sum(tuple(w for _, w in self.items), mask)

    def verify(self, mask: int) -> bool:
        return self.price(mask) >= self.price_goal and self.weight(mask) <= self.weight_cap


@dataclass(frozen=True)
class PartitionInstance:
    universe = "values"
    values: tuple[int, ...]

    def __post_init__(self):
        if any(v <= 0 for v in self.values):
            raise FormatError("values must be positive")
        if not self.values:
            raise FormatError("need at least one number")

    def verify(self, mask: int) -> bool:
        if mask >> (len(self.values) - 1) & 1:
            return False  # canonical side excludes the last element
        total = sum(self.values)
        return 2 * _masked_sum(self.values, mask) == total


@dataclass(frozen=True)
class SchedulingInstance:
    universe = "times"
    times: tuple[int, ...]
    deadline: int

    def __post_init__(self):
        if any(v <= 0 for v in self.times):
            raise FormatError("processing times must be positive")
        if not self.times:
            raise FormatError("need at least one job")

    def verify(self, mask: int) -> bool:
        if mask >> (len(self.times) - 1) & 1:
            return False  # canonical machine-1 set excludes the last job
        total = sum(self.times)
        s1 = _masked_sum(self.times, mask)
        return s1 <= self.deadline and total - s1 <= self.deadline


def packings(prices, goal, weights, budget, cap) -> list[int]:
    """All masks over the positive ``prices`` and ``weights`` whose price
    reaches ``goal`` and whose weight is within ``budget``, sorted.  The
    include/exclude search enters a node only if its weight is within
    ``budget`` and its price plus the prices still pending reaches
    ``goal``, so only solutions count against ``cap``.  It takes the
    prices largest first: a large price still pending lets almost any
    prefix reach the goal."""
    n = len(prices)
    order = sorted(range(n), key=prices.__getitem__, reverse=True)
    weights = [weights[i] for i in order]
    prices = [prices[i] for i in order]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + prices[i]
    out = Capped(cap)

    def rec(i, price, weight, mask):
        if i == n:
            out.append(mask)
            return
        j = i + 1
        if price + suffix[j] >= goal:
            rec(j, price, weight, mask)
        weight += weights[i]
        if weight <= budget:
            rec(j, price + prices[i], weight, mask | 1 << order[i])

    # rec recurses through its own closure cell; emptying the cell frees it
    # now instead of at a later cyclic collection
    try:
        if goal <= suffix[0] and budget >= 0:
            rec(0, 0, 0, 0)
    finally:
        del rec
    out.sort()
    return out


def sums_between(values, lo, hi, cap) -> list[int]:
    """All masks over the positive ``values`` whose sum lies in [lo, hi],
    sorted: the packings priced and weighed by the values.  A window that
    holds no sum is answered without a walk."""
    return packings(values, lo, values, hi, cap) if lo <= hi else []
