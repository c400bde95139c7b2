from .artifact import BLOWUP, PRESERVING, SSP, CheckVerdict, ReductionArtifact, edge_kinds
from .blowup import (
    BLOWUP_EDGES,
    build_blowup,
    effective_beta,
    published_beta,
)
from .checks import check_artifact, check_blowup, check_preserving, check_ssp
from .compose import compose
from .preserving import PRESERVING_EDGES, build_preserving

ALL_EDGES = BLOWUP_EDGES + PRESERVING_EDGES

__all__ = [
    "ReductionArtifact",
    "CheckVerdict",
    "SSP",
    "BLOWUP",
    "PRESERVING",
    "BLOWUP_EDGES",
    "PRESERVING_EDGES",
    "ALL_EDGES",
    "edge_kinds",
    "build_blowup",
    "build_preserving",
    "compose",
    "published_beta",
    "effective_beta",
    "check_ssp",
    "check_blowup",
    "check_preserving",
    "check_artifact",
]
