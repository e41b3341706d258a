import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from exactlab import DiscreteSet, ExactNumber, PHI, SQRT2, SQRT3

# A property's seed comes from the test function, and there is no example
# database to replay.  Its examples still repeat only for an unchanged tree
# and command line: hypothesis mixes literal constants from every loaded
# module into its draws, so editing any test or library module, or
# collecting another set of test files, can change what a property draws.
# Example times vary with the machine's load, so no deadline.
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


SQUAREFREE = [m for m in range(2, 51)
              if all(m % (k * k) for k in range(2, 8))]


def root(n: int) -> ExactNumber:
    """sqrt(n) for a natural n that is not a square, as s*sqrt(m) with m
    square-free."""
    s, m, k = 1, n, 2
    while k * k <= m:
        while m % (k * k) == 0:
            m //= k * k
            s *= k
        k += 1
    return ExactNumber(0, s, m)


@st.composite
def alphas(draw):
    """An irrational alpha > 0 for a rotation, of one of four kinds:
    (p + q*sqrt(m)) / den with small coefficients; frac(alpha) within
    sqrt(m)/den of 0 or of 1 for den up to 2000; sqrt(k^2 + 1) =
    [k; 2k, 2k, ...] or sqrt(k^2 - 1) = [k - 1; 1, 2k - 2, ...], whose
    partial quotients are large, reflected to 1 - frac at times; and
    (p + q*sqrt(m)) / den with den and q far beyond 64 bits."""
    kind = draw(st.sampled_from(["small", "near", "quotients", "wide"]))
    m = draw(st.sampled_from(SQUAREFREE))
    if kind == "small":
        p = draw(st.integers(-20, 20))
        q = draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))
        alpha = ExactNumber(p, q, m) / draw(st.integers(1, 12))
    elif kind == "near":
        tiny = ExactNumber.sqrt(m) / draw(st.integers(50, 2000))
        whole = draw(st.integers(0, 3))
        alpha = whole + tiny if draw(st.booleans()) else whole + 1 - tiny
    elif kind == "quotients":
        k = draw(st.integers(2, 300))
        alpha = root(k * k + 1) if draw(st.booleans()) else root(k * k - 1)
        if draw(st.booleans()):
            alpha = alpha.floor() + 1 - alpha.frac()
    else:
        den = draw(st.sampled_from([10 ** 17, 10 ** 20, 3 ** 50]))
        q = draw(st.one_of(st.integers(1, 6), st.just(den + 1)))
        p = draw(st.integers(-20, 20))
        alpha = ExactNumber(Fraction(p, den),
                            Fraction(q * draw(st.sampled_from([1, -1])), den),
                            m)
    return alpha if alpha.sign() > 0 else -alpha
