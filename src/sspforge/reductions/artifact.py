"""Reduction artifacts and check verdicts."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any

from ..core import CompositionError, DistanceMeasure, mask_of
from ..problems import KIND_SPECS, ProblemKind

SSP = "ssp"
BLOWUP = "blowup"
PRESERVING = "preserving"


@dataclass(frozen=True)
class ReductionArtifact:
    edge: str
    kind: str  # ssp | blowup | preserving
    source_kind: ProblemKind
    source: Any
    target_kind: ProblemKind
    target: Any
    f: tuple[int, ...]  # target universe index per source universe index
    l_b: int = 0  # blow-up literal mask over the source universe
    beta: tuple[tuple[DistanceMeasure, int], ...] | None = None
    u_on: int = 0  # preserving partition masks over the target universe
    u_off: int = 0

    def beta_for(self, measure: DistanceMeasure) -> int:
        if self.beta is None:
            raise ValueError(f"artifact {self.edge} carries no blow-up factor")
        for m, v in self.beta:
            if m is measure:
                return v
        raise ValueError(f"no blow-up factor for {measure}")

    def f_image_mask(self) -> int:
        return mask_of(self.f)


@functools.cache
def edge_kinds(edge: str) -> tuple[ProblemKind, ProblemKind]:
    """The source and target kinds of ``edge``: its name ``a-b`` reduces
    kind ``a`` to kind ``b``."""
    source, target = edge.split("-")
    return ProblemKind(source), ProblemKind(target)


def source_kinds(edge: str, source) -> tuple[ProblemKind, ProblemKind]:
    """``edge_kinds(edge)``, once ``source`` is of its source kind's class."""
    kinds = edge_kinds(edge)
    if not isinstance(source, KIND_SPECS[kinds[0]].cls):
        want, got = kinds[0].value, type(source).__name__
        raise CompositionError(f"edge {edge} expects a {want} source, got {got}")
    return kinds


@dataclass(frozen=True)
class CheckVerdict:
    passed: bool
    reason: str = ""
    counterexample: tuple[int, ...] = field(default_factory=tuple)
    source_solutions: int = 0
    target_solutions: int = 0

    def __bool__(self):
        return self.passed
