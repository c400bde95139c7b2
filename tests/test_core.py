import itertools
import random

import pytest

from sspforge.core import (
    CapacityError,
    Capped,
    DistanceMeasure,
    DomainError,
    MEASURES,
    distance,
    embed,
    indices_of,
    mask_of,
    subsets_upto,
)

ADD = DistanceMeasure.KAPPA_ADDITION
DEL = DistanceMeasure.KAPPA_DELETION
HAM = DistanceMeasure.HAMMING


def test_distance_definitions():
    a = mask_of([0, 1])  # {a, b}
    b = mask_of([1, 2])  # {b, c}
    assert distance(HAM, a, b) == 2
    assert distance(ADD, a, a) == 0
    assert distance(DEL, mask_of([0, 1, 2]), mask_of([0])) == 2


def test_distance_axioms_random():
    rng = random.Random(0)
    n = 12
    for _ in range(2000):
        a1 = rng.getrandbits(n)
        a2 = rng.getrandbits(n)
        perm = list(range(2 * n))
        rng.shuffle(perm)
        f = tuple(perm[:n])
        for m in MEASURES:
            # invariance under injective maps
            assert distance(m, a1, a2) == distance(m, embed(f, a1), embed(f, a2))
            # invariance under union with a fresh element
            free = [i for i in range(n) if not ((a1 | a2) >> i) & 1]
            if free:
                x = 1 << rng.choice(free)
                assert distance(m, a1, a2) == distance(m, a1 | x, a2 | x)
            assert distance(m, a1, a1) == 0
        assert distance(HAM, a1, a2) == distance(ADD, a1, a2) + distance(DEL, a1, a2)


def test_mask_roundtrip():
    assert indices_of(mask_of([3, 1, 4])) == [1, 3, 4]


def test_indices_of_equals_the_bit_position_walk():
    rng = random.Random(0)
    masks = [0, 1, 2, 3, (1 << 200) - 1, 1 << 200, (1 << 200) | 1]
    masks += [rng.getrandbits(rng.randint(1, 200)) for _ in range(2000)]
    for mask in masks:
        want = [i for i in range(mask.bit_length()) if mask >> i & 1]
        assert indices_of(mask) == want, mask
        assert mask_of(indices_of(mask)) == mask


def test_indices_of_a_negative_mask_raises():
    # the bit walk never reaches zero on a negative int
    for mask in (-1, -3, -(1 << 70)):
        with pytest.raises(DomainError, match="negative element set"):
            indices_of(mask)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        a1=st.integers(min_value=0, max_value=(1 << 14) - 1),
        a2=st.integers(min_value=0, max_value=(1 << 14) - 1),
        offset=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_axioms_hypothesis(a1, a2, offset):
        shift = tuple(i + offset for i in range(14))
        for m in MEASURES:
            assert distance(m, a1, a2) == distance(
                m, embed(shift, a1), embed(shift, a2)
            )
            assert distance(m, a1, a1) == 0
        assert distance(HAM, a1, a2) == distance(ADD, a1, a2) + distance(
            DEL, a1, a2
        )
        assert distance(ADD, a1, a2) == distance(DEL, a2, a1)
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass


def test_capped_raises_on_the_append_past_its_cap():
    for cap in range(4):
        out = Capped(cap)
        for m in range(cap):
            out.append(m)
        assert out == list(range(cap))
        with pytest.raises(CapacityError, match="^solution cap exceeded$"):
            out.append(cap)
        assert out == list(range(cap))


def test_subsets_upto_walks_sizes_then_combinations():
    for indices in ([], [3], [0, 2, 5, 1], [7, 4, 0, 9, 2]):
        for k in range(-1, len(indices) + 2):
            want = [
                mask_of(c)
                for size in range(min(k, len(indices)) + 1)
                for c in itertools.combinations(indices, size)
            ]
            assert list(subsets_upto(indices, k)) == want
