"""Set cover and hitting set."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core import CapacityError, DomainError, FormatError, check_count


@dataclass(frozen=True)
class SetCoverInstance:
    ground_size: int
    subsets: tuple[tuple[int, ...], ...]  # elements 0..ground_size-1
    k: int

    def __post_init__(self):
        check_count("ground_size", self.ground_size)
        for s in self.subsets:
            for x in s:
                if not 0 <= x < self.ground_size:
                    raise FormatError(f"ground element {x} out of range")

    def universe_labels(self):
        return tuple(f"S{i}" for i in range(len(self.subsets)))

    def subset_masks(self):
        out = []
        for s in self.subsets:
            m = 0
            for x in s:
                m |= 1 << x
            out.append(m)
        return tuple(out)

    def covers_ground(self, mask: int) -> bool:
        got = 0
        for i, sm in enumerate(self.subset_masks()):
            if mask >> i & 1:
                got |= sm
        return got == (1 << self.ground_size) - 1

    def verify(self, mask: int) -> bool:
        if mask >> len(self.subsets):
            raise DomainError("candidate outside family universe")
        return mask.bit_count() <= self.k and self.covers_ground(mask)


@dataclass(frozen=True)
class HittingSetInstance:
    ground_size: int
    subsets: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self):
        check_count("ground_size", self.ground_size)
        for s in self.subsets:
            for x in s:
                if not 0 <= x < self.ground_size:
                    raise FormatError(f"ground element {x} out of range")

    def universe_labels(self):
        return tuple(f"g{i}" for i in range(self.ground_size))

    def hits_all(self, mask: int) -> bool:
        for s in self.subsets:
            sm = 0
            for x in s:
                sm |= 1 << x
            if not mask & sm:
                return False
        return True

    def verify(self, mask: int) -> bool:
        if mask >> self.ground_size:
            raise DomainError("candidate outside ground universe")
        return mask.bit_count() <= self.k and self.hits_all(mask)


def _bounded_subsets(n, k, pred, cap) -> list[int]:
    out = []
    for size in range(min(k, n) + 1):
        for combo in itertools.combinations(range(n), size):
            m = 0
            for x in combo:
                m |= 1 << x
            if pred(m):
                out.append(m)
                if len(out) > cap:
                    raise CapacityError("solution cap exceeded")
    out.sort()
    return out


def setcover_solutions(inst: SetCoverInstance, cap) -> list[int]:
    return _bounded_subsets(len(inst.subsets), inst.k, inst.covers_ground, cap)


def setcover_feasible(inst: SetCoverInstance, cap) -> list[int]:
    return _bounded_subsets(
        len(inst.subsets), len(inst.subsets), inst.covers_ground, cap
    )


def hittingset_solutions(inst: HittingSetInstance, cap) -> list[int]:
    return _bounded_subsets(inst.ground_size, inst.k, inst.hits_all, cap)


def hittingset_feasible(inst: HittingSetInstance, cap) -> list[int]:
    return _bounded_subsets(inst.ground_size, inst.ground_size, inst.hits_all, cap)
