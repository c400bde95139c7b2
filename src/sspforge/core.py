"""Universe, element-set, and distance-measure primitives.

Element sets are plain Python ints used as bitsets over a universe indexed
0..n-1.  All quantities are exact integers; there is no floating point in
this layer.
"""

from __future__ import annotations

import enum
import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class SspError(Exception):
    """Base class for all library errors."""


class DomainError(SspError):
    """An element lies outside the relevant universe or map domain."""


class FormatError(SspError):
    """Malformed instance data (bad clause width, bad payload, ...)."""


class PreconditionError(SspError):
    """A builder precondition was violated."""


class CompositionError(SspError):
    """Two artifacts cannot be composed."""


class CapacityError(SspError):
    """An enumeration bound was exceeded."""


class UnsupportedKindError(SspError):
    """Operation not defined for this problem kind."""


class DistanceMeasure(enum.Enum):
    KAPPA_ADDITION = "kappa_addition"
    KAPPA_DELETION = "kappa_deletion"
    HAMMING = "hamming"


MEASURES = (
    DistanceMeasure.KAPPA_ADDITION,
    DistanceMeasure.KAPPA_DELETION,
    DistanceMeasure.HAMMING,
)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        if i < 0:
            raise DomainError(f"negative element index {i}")
        m |= 1 << i
    return m


def subsets_upto(indices: Iterable[int], k: int) -> Iterator[int]:
    """The masks of the subsets of at most ``k`` of the distinct ``indices``,
    by size and then in ``itertools.combinations`` order."""
    bits = [1 << i for i in indices]
    for size in range(min(k, len(bits)) + 1):
        yield from map(sum, itertools.combinations(bits, size))


class Capped(list):
    """The list a kernel collects its solutions in: the append that would
    make it hold more than ``cap`` masks raises CapacityError."""

    __slots__ = ("cap",)

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def append(self, mask: int) -> None:
        if len(self) >= self.cap:
            raise CapacityError("solution cap exceeded")
        list.append(self, mask)


def indices_of(mask: int) -> list[int]:
    """The element indices of ``mask`` in increasing order, taken lowest
    set bit first."""
    if mask < 0:
        raise DomainError(f"negative element set {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def check_count(name: str, value: int) -> None:
    """A vertex, variable, element or facility count may not be negative."""
    if value < 0:
        raise FormatError(f"{name} must be non-negative, got {value}")


def distance(measure: DistanceMeasure, a1: int, a2: int) -> int:
    """Distance between two element sets of a shared universe.

    kappa-addition counts |A2 \\ A1|, kappa-deletion |A1 \\ A2|, Hamming the
    symmetric difference.
    """
    if measure is DistanceMeasure.KAPPA_ADDITION:
        return (a2 & ~a1).bit_count()
    if measure is DistanceMeasure.KAPPA_DELETION:
        return (a1 & ~a2).bit_count()
    if measure is DistanceMeasure.HAMMING:
        return (a1 ^ a2).bit_count()
    raise DomainError(f"unknown measure {measure!r}")


def embed(f: Sequence[int], s: int) -> int:
    """Image of the element set ``s`` under the total embedding ``f``, given
    as an index tuple."""
    out = 0
    i = 0
    m = s
    while m:
        if m & 1:
            out |= 1 << f[i]
        m >>= 1
        i += 1
    return out


_ENV_MAX_UNIVERSE = "SSPFORGE_MAX_UNIVERSE"
_ENV_MAX_SOLUTIONS = "SSPFORGE_MAX_SOLUTIONS"


def _env_count(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        raise FormatError(f"{name}={text!r} is not an integer") from None
    if value < 0:
        raise FormatError(f"{name}={text!r} is negative")
    return value


@dataclass(frozen=True)
class Bounds:
    """Enumeration limits.

    Each family answers to what its enumerator walks.  A bounded search
    (covers, hitting sets, paths, cycles, trees, number windows) answers to
    ``max_vertices`` on the elements it walks, and so does every family of
    an LOP kind: S(I), the listed F(I) and the cost-RR key stream.  Only a
    scan answers to ``max_universe``: CNF assignments to max(max_universe
    // 2, 16) variables, UFL and p-median facility masks to
    ``max_universe``.  Every family stops at ``max_solutions``, a stream
    at the first search it runs that lists more.
    """

    max_universe: int = 24
    max_solutions: int = 1 << 20
    max_vertices: int = 4096

    @staticmethod
    def from_env() -> "Bounds":
        """The defaults, overridden by the environment; FormatError names a
        variable that is not a non-negative integer."""
        b = Bounds()
        return Bounds(
            max_universe=_env_count(_ENV_MAX_UNIVERSE, b.max_universe),
            max_solutions=_env_count(_ENV_MAX_SOLUTIONS, b.max_solutions),
            max_vertices=b.max_vertices,
        )


try:
    DEFAULT_BOUNDS = Bounds.from_env()
except FormatError:
    # importing must not fail on a malformed variable: the library keeps
    # the built-in limits, and the CLI reads the variables again and
    # reports the error
    DEFAULT_BOUNDS = Bounds()
