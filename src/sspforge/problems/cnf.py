"""SAT and 3SAT instances.

The universe of a formula with n variables is the 2n literals in the
canonical order x1..xn, ~x1..~xn; literal index i is the positive literal
of variable i, index n+i its negation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Capped, FormatError, check_count, mask_of


@dataclass(frozen=True)
class CnfInstance:
    universe = "n_literals"
    n_vars: int
    clauses: tuple[tuple[int, ...], ...]  # literal indices into the universe

    def __post_init__(self):
        check_count("n_vars", self.n_vars)
        for c in self.clauses:
            if not c:
                raise FormatError("empty clause")
            for lit in c:
                if not 0 <= lit < 2 * self.n_vars:
                    raise FormatError(f"literal {lit} out of range")

    @property
    def n_literals(self) -> int:
        return 2 * self.n_vars

    def require_width(self, w: int) -> None:
        for c in self.clauses:
            if len(c) != w:
                raise FormatError(f"clause {c} has width {len(c)}, expected {w}")

    def negate(self, lit: int) -> int:
        n = self.n_vars
        return lit + n if lit < n else lit - n

    def clause_masks(self) -> tuple[int, ...]:
        return tuple(map(mask_of, self.clauses))

    def verify(self, mask: int) -> bool:
        n = self.n_vars
        for i in range(n):
            if ((mask >> i) & 1) + ((mask >> (n + i)) & 1) != 1:
                return False
        for cm in self.clause_masks():
            if not mask & cm:
                return False
        return True

    def assignment_mask(self, true_vars: int) -> int:
        """Literal mask of the assignment encoded by a variable bitset."""
        n = self.n_vars
        full = (1 << n) - 1
        a = true_vars & full
        return a | (full ^ a) << n


def enumerate_cnf_solutions(inst: CnfInstance, max_solutions: int) -> list[int]:
    n = inst.n_vars
    full = (1 << n) - 1
    masks = inst.clause_masks()
    out = Capped(max_solutions)
    for a in range(1 << n):
        m = a | (full ^ a) << n
        if all(map(m.__and__, masks)):
            out.append(m)
    out.sort()
    return out
