"""Set cover and hitting set."""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Capped, DomainError, FormatError, check_count, mask_of, subsets_upto


@dataclass(frozen=True)
class _SetSystem:
    """Subsets of the ground set 0..ground_size-1 and a size bound k."""

    ground_size: int
    subsets: tuple[tuple[int, ...], ...]  # elements 0..ground_size-1
    k: int

    def __post_init__(self):
        check_count("ground_size", self.ground_size)
        for s in self.subsets:
            for x in s:
                if not 0 <= x < self.ground_size:
                    raise FormatError(f"ground element {x} out of range")

    def subset_masks(self):
        return tuple(map(mask_of, self.subsets))


class SetCoverInstance(_SetSystem):
    def universe_labels(self):
        return tuple(f"S{i}" for i in range(len(self.subsets)))

    def verify(self, mask: int) -> bool:
        if mask >> len(self.subsets):
            raise DomainError("candidate outside family universe")
        return mask.bit_count() <= self.k and _covers(self)(mask)


class HittingSetInstance(_SetSystem):
    def universe_labels(self):
        return tuple(f"g{i}" for i in range(self.ground_size))

    def verify(self, mask: int) -> bool:
        if mask >> self.ground_size:
            raise DomainError("candidate outside ground universe")
        return mask.bit_count() <= self.k and _hits(self)(mask)


def _covers(inst: SetCoverInstance):
    """The test that a family mask covers the ground set, over subset masks
    built once."""
    masks, full = inst.subset_masks(), (1 << inst.ground_size) - 1

    def covers(mask):
        got = 0
        for i, sm in enumerate(masks):
            if mask >> i & 1:
                got |= sm
        return got == full

    return covers


def _hits(inst: HittingSetInstance):
    """The test that a ground mask meets every subset, over subset masks
    built once."""
    masks = inst.subset_masks()
    return lambda mask: all(map(mask.__and__, masks))


def bounded_subsets(n, k, pred, cap) -> list[int]:
    """The sets of at most k of the elements 0..n-1 that pass ``pred``,
    sorted."""
    out = Capped(cap)
    for m in subsets_upto(range(n), k):
        if pred(m):
            out.append(m)
    out.sort()
    return out


def setcover_solutions(inst: SetCoverInstance, cap) -> list[int]:
    return bounded_subsets(len(inst.subsets), inst.k, _covers(inst), cap)


def setcover_feasible(inst: SetCoverInstance, cap) -> list[int]:
    return bounded_subsets(len(inst.subsets), len(inst.subsets), _covers(inst), cap)


def hittingset_solutions(inst: HittingSetInstance, cap) -> list[int]:
    return bounded_subsets(inst.ground_size, inst.k, _hits(inst), cap)


def hittingset_feasible(inst: HittingSetInstance, cap) -> list[int]:
    return bounded_subsets(inst.ground_size, inst.ground_size, _hits(inst), cap)
