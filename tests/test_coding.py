from fractions import Fraction as F

import pytest

from exactlab import (
    CallableOracle,
    CodedReal,
    DiscreteSet,
    ExactNumber,
    PHI,
    RotationOracle,
    SQRT2,
    SQRT3,
    beta,
    beta_encode,
    cantor_pair,
    cantor_unpair,
    cf_decode,
    cf_digits,
    cf_encode,
    discrete_sum,
    exact,
    image,
    interleave_encode,
    interleave_row,
    primitive_recursion,
    sum_commutes,
)
from exactlab.errors import (
    ExpansionTerminated,
    InsufficientDigits,
    NegativeSummand,
)


def test_pairing_examples():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 2) == 8
    assert cantor_unpair(8) == (1, 2)


def test_pairing_bijection_sampled(rng):
    for _ in range(2000):
        m, n = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
        assert cantor_unpair(cantor_pair(m, n)) == (m, n)
    for k in range(500):
        m, n = cantor_unpair(k)
        assert cantor_pair(m, n) == k


def test_beta_decode_contract():
    k = beta_encode([3, 1, 4])
    assert [beta(k, i) for i in range(3)] == [3, 1, 4]
    assert beta(beta_encode([0]), 0) == 0
    beta_encode([])  # vacuous contract, must not raise


def test_beta_random_sequences(rng):
    for _ in range(100):
        seq = [rng.randrange(10 ** 6) for _ in range(rng.randrange(1, 21))]
        k = beta_encode(seq)
        assert all(beta(k, i) == v for i, v in enumerate(seq))


def test_beta_canonical():
    assert beta_encode([3, 1, 4]) == beta_encode([3, 1, 4])


def test_cf_digits_examples():
    assert cf_digits(F(7, 3), 2) == [2, 3]
    assert cf_digits(PHI, 6) == [1] * 6
    assert cf_digits(SQRT2, 4) == [1, 2, 2, 2]
    assert cf_digits(SQRT3, 6) == [1, 1, 2, 1, 2, 1]


def test_cf_digits_termination():
    with pytest.raises(ExpansionTerminated) as err:
        cf_digits(F(7, 3), 5)
    assert err.value.digits == [2, 3]


def test_cf_digits_periodicity():
    assert cf_digits(PHI, 50) == [1] * 50
    assert cf_digits(SQRT2, 50) == [1] + [2] * 49


def test_cf_encode_shift_convention():
    coded = cf_encode([0, 0, 0])
    assert coded.tower == (1, 1, 1)
    assert cf_decode(coded) == [0, 0, 0]


def test_cf_encode_empty():
    assert cf_encode([]).value == exact(0)
    assert cf_decode(cf_encode([])) == []


def test_cf_round_trip_fixed():
    assert cf_decode(cf_encode([3, 1, 4, 1, 5])) == [3, 1, 4, 1, 5]


def test_cf_round_trip_random(rng):
    for _ in range(200):
        seq = [rng.randrange(50) for _ in range(rng.randrange(12))]
        assert cf_decode(cf_encode(seq)) == seq


def test_cf_value_matches_digits():
    coded = cf_encode([1, 2])
    # digits (2, 3) fold to 2 + 1/3
    assert coded.value == exact(F(7, 3))
    assert cf_digits(CodedReal.from_value(F(7, 3)), 2) == [2, 3]


def test_interleave_rows_recover_rationals():
    members = [CodedReal.from_value(F(1, 2)),
               CodedReal.from_value(F(2, 3)),
               CodedReal.from_value(F(3, 4))]
    packed = interleave_encode(members)
    for i, member in enumerate(members):
        row = interleave_row(packed, i)
        assert row.value == member.value


def test_interleave_singleton():
    packed = interleave_encode([CodedReal.from_value(F(5, 7))])
    row = interleave_row(packed, 0)
    assert row.value == exact(F(5, 7))


def test_interleave_row_beyond_family():
    packed = interleave_encode([CodedReal.from_value(F(1, 2))])
    with pytest.raises(InsufficientDigits):
        interleave_row(packed, 9)


def test_interleave_rejects_negative_digit_counts():
    members = [CodedReal.from_value(F(1, 3)), CodedReal.from_value(F(2, 5))]
    with pytest.raises(ValueError, match="digits_per_row"):
        interleave_encode(members, digits_per_row=-1)
    packed = interleave_encode(members)
    with pytest.raises(ValueError, match="upto"):
        interleave_row(packed, 0, upto=-2)
    # zero is a count, not an error: an empty row
    assert interleave_row(packed, 0, upto=0).tower == ()


def test_interleave_irrational_rows_need_budget():
    phi_row = CodedReal.from_value(PHI)
    with pytest.raises(ValueError):
        interleave_encode([phi_row])
    packed = interleave_encode([phi_row], digits_per_row=5)
    assert interleave_row(packed, 0, upto=5).tower == (1, 1, 1, 1, 1)


def test_interleave_random_rationals(rng):
    for _ in range(25):
        members = [CodedReal.from_value(F(rng.randrange(1, 40),
                                          rng.randrange(1, 40)))
                   for _ in range(rng.randrange(1, 5))]
        packed = interleave_encode(members)
        for i, member in enumerate(members):
            assert interleave_row(packed, i).value == member.value


def test_primitive_recursion_examples():
    assert primitive_recursion(lambda a: a, lambda a, v: v + a, 3, 5) == 18
    assert primitive_recursion(lambda a: a, lambda a, v: v + a, 3, 0) == 3


def test_primitive_recursion_factorial():
    # track the step index inside the state to fold the factorial
    value = primitive_recursion(
        lambda a: (0, 1), lambda a, s: (s[0] + 1, s[1] * (s[0] + 1)), None, 6)
    assert value == (6, 720)


def test_primitive_recursion_certificate():
    value, cert = primitive_recursion(
        lambda a: a, lambda a, v: v + a, 3, 5, certificate=True)
    assert value == 18
    assert [beta(cert, i) for i in range(6)] == [3, 6, 9, 12, 15, 18]


def test_primitive_recursion_certificate_needs_nats():
    with pytest.raises(ValueError):
        primitive_recursion(lambda a: F(1, 2), lambda a, v: v, None, 1,
                            certificate=True)


def test_primitive_recursion_agrees_with_iteration(rng):
    for _ in range(40):
        a = rng.randrange(1, 20)
        i = rng.randrange(12)
        got = primitive_recursion(lambda x: x, lambda x, v: 2 * v + 1, a, i)
        expect = a
        for _ in range(i):
            expect = 2 * expect + 1
        assert got == expect


def test_discrete_sum_examples():
    ones = CallableOracle(lambda x: ExactNumber(1))
    assert discrete_sum(DiscreteSet.naturals(2), ones) == exact(3)
    rot = RotationOracle(PHI)
    values = DiscreteSet(image(DiscreteSet.naturals(4), rot).elements)
    ident = CallableOracle(lambda x: x)
    assert discrete_sum(values, ident) == 10 * PHI - 14


def test_discrete_sum_rejects_negative():
    with pytest.raises(NegativeSummand):
        discrete_sum(DiscreteSet.naturals(1), CallableOracle(lambda x: x - 1))


def test_sum_commutes_reversal():
    D = DiscreteSet.naturals(3)
    ident = CallableOracle(lambda x: x)
    equal, lhs, rhs = sum_commutes(D, ident, {0: 3, 1: 2, 2: 1, 3: 0})
    assert equal and lhs == exact(6) and rhs == exact(6)


def test_sum_commutes_random_permutations(rng):
    ident = CallableOracle(lambda x: x * x)
    for _ in range(50):
        n = rng.randrange(1, 10)
        D = DiscreteSet.naturals(n)
        perm = list(range(n + 1))
        rng.shuffle(perm)
        equal, lhs, rhs = sum_commutes(D, ident, dict(enumerate(perm)))
        assert equal and lhs == rhs


def test_sum_commutes_rejects_non_bijection():
    D = DiscreteSet.naturals(2)
    with pytest.raises(ValueError):
        sum_commutes(D, CallableOracle(lambda x: x), {0: 0, 1: 0, 2: 2})
