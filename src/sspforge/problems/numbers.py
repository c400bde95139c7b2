"""Number problems: subset sum, knapsack, partition, two-machine
scheduling.

Element identity is positional; equal values are distinct universe
elements.  Partition and scheduling solutions are canonicalized: the last
universe element is required to lie on the complement side, so each
bipartition is represented exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Capped, FormatError, indices_of


def subset_sums(values):
    """sum(values[i] for i in S), indexed by the mask S."""
    table = [0]
    for v in values:
        table += [t + v for t in table]
    return table


def _masked_sum(values, mask):
    return sum(map(values.__getitem__, indices_of(mask)))


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


def sums_between(values, lo, hi, cap) -> list[int]:
    """All masks over the positive ``values`` whose sum lies in [lo, hi],
    sorted.  The include/exclude search takes the values largest first and
    cuts a branch once its sum passes ``hi`` or can no longer reach ``lo``:
    it enters a node only if cur <= hi and cur + suffix[i] >= lo, so every
    leaf it reaches is a solution.  A large value still pending lets
    almost any prefix reach the window, so it is decided first."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__, reverse=True)
    values = [values[i] for i in order]
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
            rec(j, cur, mask | 1 << order[i])

    # rec recurses through its own closure cell; emptying the cell frees it
    # now instead of at a later cyclic collection
    try:
        # a window that holds no reachable sum is answered without a walk
        if max(lo, 0) <= min(hi, suffix[0]):
            rec(0, 0, 0)
    finally:
        del rec
    out.sort()
    return out


def threshold_keys(values, threshold, shift, cap):
    """The masks S over the positive ``values`` whose sum reaches
    ``threshold``, as the keys sum(S) << shift | S in increasing order, that
    is in (sum, mask) order; ``shift`` is at least len(values).

    The family is listed lazily, window by window of sums, each by
    ``sums_between``: the first window holds the 16 sums from
    max(threshold, 0) on, each later one starts past the last and is four
    times as wide, and the walk ends past the sum of all values.  Only the
    windows a reader reaches are listed; they raise as one
    ``core.Capped(cap)`` would, once they hold more than ``cap`` masks
    between them."""
    lo, width, total = max(threshold, 0), 16, sum(values)
    while lo <= total:
        hi = lo + width - 1
        masks = sums_between(values, lo, hi, cap)
        cap -= len(masks)
        yield from sorted(_masked_sum(values, m) << shift | m for m in masks)
        lo, width = hi + 1, 4 * width
