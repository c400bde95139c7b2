"""Facility problems: uncapacitated facility location, p-center,
p-median.

These are pure subset-search kinds here (the objective is not linear in
the chosen facilities), so they carry no feasible/cost/threshold split.
UFL and p-median scan the facility masks; p-center is a hitting set.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Capped, FormatError, check_count

_INF = float("inf")


def _check_matrix(n_fac, n_clients, service):
    check_count("n_facilities", n_fac)
    check_count("n_clients", n_clients)
    if len(service) != n_fac:
        raise FormatError("service matrix must have one row per facility")
    for row in service:
        if len(row) != n_clients:
            raise FormatError("service matrix row length mismatch")


def _service_cost_columns(service, mask, n_clients):
    mins = []
    for j in range(n_clients):
        best = _INF
        for i, row in enumerate(service):
            if mask >> i & 1 and row[j] < best:
                best = row[j]
        mins.append(best)
    return mins


@dataclass(frozen=True)
class FacilityLocationInstance:
    universe = "n_facilities"
    n_facilities: int
    n_clients: int
    open_costs: tuple[int, ...]
    service: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self):
        _check_matrix(self.n_facilities, self.n_clients, self.service)
        if len(self.open_costs) != self.n_facilities:
            raise FormatError("one opening cost per facility required")

    def verify(self, mask: int) -> bool:
        mins = _service_cost_columns(self.service, mask, self.n_clients)
        if any(m is _INF for m in mins) and self.n_clients:
            return False
        opened = sum(
            self.open_costs[i] for i in range(self.n_facilities) if mask >> i & 1
        )
        return opened + sum(mins) <= self.k


@dataclass(frozen=True)
class _PInstance:
    """At most p open facilities whose service costs, combined by
    ``objective``, stay within k."""

    universe = "n_facilities"
    n_facilities: int
    n_clients: int
    service: tuple[tuple[int, ...], ...]
    p: int
    k: int

    def __post_init__(self):
        _check_matrix(self.n_facilities, self.n_clients, self.service)

    def verify(self, mask: int) -> bool:
        if mask.bit_count() > self.p:
            return False
        if not self.n_clients:
            return True
        mins = _service_cost_columns(self.service, mask, self.n_clients)
        return self.objective(mins) <= self.k


class PCenterInstance(_PInstance):
    objective = staticmethod(max)

    def client_masks(self):
        """For each client, the mask of the facilities within k of it."""
        return tuple(
            sum(1 << i for i, row in enumerate(self.service) if row[j] <= self.k)
            for j in range(self.n_clients)
        )


class PMedianInstance(_PInstance):
    objective = staticmethod(sum)


def facility_solutions(inst, cap) -> list[int]:
    n = inst.n_facilities
    out = Capped(cap)
    for mask in filter(inst.verify, range(1 << n)):
        out.append(mask)
    return out
