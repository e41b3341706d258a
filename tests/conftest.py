import random
from fractions import Fraction

import pytest
from hypothesis import settings

from exactlab import DiscreteSet, ExactNumber, PHI, SQRT2, SQRT3

# Every property draws the same examples on every run: the seed comes from
# the test function, and there is no example database to replay.  Example
# times vary with the machine's load, so no deadline.
settings.register_profile("exactlab", derandomize=True, deadline=None)
settings.load_profile("exactlab")


@pytest.fixture
def rng():
    return random.Random(20260808)


def rand_fraction(rng, max_num=60, max_den=40, signed=True):
    num = rng.randrange(-max_num, max_num + 1) if signed else rng.randrange(max_num + 1)
    return Fraction(num, rng.randrange(1, max_den + 1))


def rand_quadratic(rng, m=5, signed=True):
    return ExactNumber(rand_fraction(rng, signed=signed),
                       rand_fraction(rng, signed=signed), m)


def rand_nat_segment(rng, max_len=40):
    n = rng.randrange(max_len + 1)
    return DiscreteSet.naturals(n - 1) if n else DiscreteSet([])


ROTATION_BASES = (PHI, SQRT2, SQRT3)
