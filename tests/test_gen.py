"""Fixed-seed generator draws, pinned by one digest.

The fuzz report holds only edges, counts and failures, so it cannot see a
generator that draws a different instance or consumes a different number
of random values.  The digest covers the document of every draw and one
further ``rng.random()`` after it, so both show here.
"""

import hashlib
import random

from sspforge import serialize
from sspforge.core import DistanceMeasure
from sspforge.gen import (
    random_comb_rr,
    random_lb,
    random_radjsat,
    random_source_for_edge,
)
from sspforge.problems import ProblemKind
from sspforge.reductions import (
    ALL_EDGES,
    BLOWUP_EDGES,
    build_blowup,
    build_preserving,
    edge_kinds,
)

DRAWS = 20
DRAW_DIGEST = "05aff1a3d922eaaf87b7af51a0132df74196b756ac069fb4521b82ec4a76ca2b"
TARGET_DIGEST = "ee2a032a03d68f56254da9f69c6a902cbb06fc5b5e7b0f2af886510ba5ded959"


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def draw_texts():
    """The document text of each fixed-seed draw, then the next random
    value of its generator."""
    for edge in ALL_EDGES:
        kind = ProblemKind(edge.split("-")[0])
        for i in range(DRAWS):
            rng = random.Random(repr(("draws", edge, i)))
            src = random_source_for_edge(edge, rng)
            yield serialize.dumps(serialize.instance_to_doc(kind, src))
            if edge in BLOWUP_EDGES:
                yield repr(random_lb(rng, src))
            yield repr(rng.random())
    # two seed labels of DRAWS draws each, all under DRAW_DIGEST
    for label in (6, 8):
        for i in range(DRAWS):
            rng = random.Random(repr(("draws", "comb-rr", label, i)))
            comb = random_comb_rr(rng)
            yield serialize.dumps(serialize.comb_rr_to_doc(comb))
            yield repr(rng.random())
    for i in range(DRAWS):
        rng = random.Random(repr(("draws", "radjsat", i)))
        yield serialize.dumps(serialize.radjsat_to_doc(random_radjsat(rng)))
        yield repr(rng.random())


def test_fixed_seed_draws_are_pinned():
    assert digest(draw_texts()) == DRAW_DIGEST


def target_texts():
    """The document text, universe labels included, of the target that
    each fixed-seed draw's edge builds from it."""
    for edge in ALL_EDGES:
        for i in range(DRAWS):
            rng = random.Random(repr(("draws", edge, i)))
            src = random_source_for_edge(edge, rng)
            if edge in BLOWUP_EDGES:
                lb = random_lb(rng, src)
                art = build_blowup(edge, src, lb, DistanceMeasure.HAMMING)
            else:
                art = build_preserving(edge, src)
            doc = serialize.instance_to_doc(art.target_kind, art.target)
            yield serialize.dumps(doc)


def test_fixed_seed_targets_are_pinned():
    # with the draws above, the documents cover every kind's labels
    kinds = {kind for edge in ALL_EDGES for kind in edge_kinds(edge)}
    assert kinds == set(ProblemKind)
    assert digest(target_texts()) == TARGET_DIGEST
