"""Set cover and hitting set, and the hitting-set search they share with
dominating set, feedback vertex set, feedback arc set and p-center.

Each of these kinds asks for a bounded number of elements that hit every
constraint: a set cover's subsets hit every ground element, a hitting
set's ground elements every subset, a dominating set's vertices every
closed neighbourhood, a p-center's facilities every client, and a
feedback set's vertices or arcs every directed cycle.
``hitting_sets_upto`` is the bounded search tree for hitting set
(Niedermeier & Rossmanith, 2003); ``unhit_masks`` names the constraints
of the first four kinds, ``graphs.unhit_cycle_vertices`` and
``graphs.unhit_cycle_arcs`` those of the feedback kinds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Capped, FormatError, check_count, indices_of, mask_of


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

    def element_masks(self):
        """For each ground element, the mask of the subsets that hold it."""
        masks = [0] * self.ground_size
        for i, s in enumerate(self.subsets):
            for x in s:
                masks[x] |= 1 << i
        return tuple(masks)


class SetCoverInstance(_SetSystem):
    universe = "subsets"

    def verify(self, mask: int) -> bool:
        return mask.bit_count() <= self.k and _covers(self)(mask)


class HittingSetInstance(_SetSystem):
    universe = "ground_size"

    def verify(self, mask: int) -> bool:
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


def _pad_supersets(base: int, free: list[int], budget: int, out: Capped):
    """base plus every subset of `free` with at most `budget` extra elements."""
    out.append(base)
    if budget <= 0:
        return
    for i, v in enumerate(free):
        _pad_supersets(base | 1 << v, free[i + 1 :], budget - 1, out)


def hitting_sets_upto(n, unhit, k, cap) -> list[int]:
    """All sets of at most k of the elements 0..n-1 that hit every
    constraint, as sorted masks.

    ``unhit(chosen, banned, budget)`` returns None when ``chosen`` hits
    every constraint, and otherwise the candidates outside ``banned`` of
    one constraint that ``chosen`` leaves unhit; it may return 0 instead
    when no set of ``budget`` more elements outside ``banned`` completes
    ``chosen``.  Every solution holds a candidate of that constraint, so
    the search takes each candidate in turn and bans it in the branches
    after it, which lists every solution once.
    """
    if k < 0:
        return []
    full = (1 << n) - 1
    out = Capped(cap)

    def rec(chosen, banned, budget):
        cands = unhit(chosen, banned, budget)
        if cands is None:
            _pad_supersets(chosen, indices_of(full & ~(chosen | banned)), budget, out)
            return
        if not budget:
            return
        while cands:
            low = cands & -cands
            rec(chosen | low, banned, budget - 1)
            banned |= low
            cands ^= low

    # the search recurses through its own closure cell; emptying the cell
    # frees it now instead of at a later cyclic collection
    try:
        rec(0, 0, k)
    finally:
        del rec
    out.sort()
    return out


def unhit_masks(constraints):
    """The ``unhit`` of constraints given as the masks of the elements that
    hit them: the pending constraint with the fewest candidates, or 0 when
    a greedy set of pending constraints with pairwise disjoint candidates
    needs more than the budget."""

    def unhit(chosen, banned, budget):
        allowed = ~banned
        best = None
        taken = need = 0
        for c in constraints:
            if c & chosen:
                continue
            c &= allowed
            if not c:
                return 0
            if best is None or c.bit_count() < best.bit_count():
                best = c
            if not c & taken:
                taken |= c
                need += 1
        if best is None or need <= budget:
            return best
        return 0

    return unhit
