from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from exactlab import ExactNumber, PHI, SQRT2, SQRT3, exact, parse_exact
from exactlab.errors import DivisionByZero, RadicandMismatch
from exactlab.qnum import MAX_RADICAND, _floor_pair, _sign_pair

from conftest import alphas, rand_quadratic


def test_rational_addition():
    assert exact(F(1, 2)) + exact(F(1, 3)) == exact(F(5, 6))


def test_conjugate_sum_is_rational():
    x = ExactNumber(F(1, 2), F(1, 2), 5)
    y = ExactNumber(F(1, 2), F(-1, 2), 5)
    assert x + y == exact(1)


def test_mixed_coefficient_sum():
    x = exact(2) + ExactNumber.sqrt(5)
    y = (exact(-3) + 2 * ExactNumber.sqrt(5)) / 7
    assert x + y == ExactNumber(F(11, 7), F(9, 7), 5)


def test_sqrt_squares_to_radicand():
    assert SQRT2 * SQRT2 == exact(2)


def test_golden_ratio_inverse():
    assert PHI.inverse() == PHI - 1
    assert PHI * PHI.inverse() == exact(1)


def test_division():
    assert exact(3) / exact(F(1, 4)) == exact(12)


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZero):
        exact(0).inverse()


def test_compare_rational_to_sqrt2():
    assert exact(F(7, 5)).compare(SQRT2) == -1


def test_compare_equal():
    assert SQRT2.compare(SQRT2) == 0


def test_compare_phi_above_eight_fifths():
    assert PHI.compare(F(8, 5)) == 1


def test_radicand_mismatch():
    with pytest.raises(RadicandMismatch):
        SQRT2 + SQRT3
    with pytest.raises(RadicandMismatch):
        SQRT2.compare(SQRT3)


def test_radicand_mismatch_message_names_the_smaller_radicand_first():
    for x, y in ((SQRT2, SQRT3), (SQRT3, SQRT2)):
        with pytest.raises(RadicandMismatch,
                           match=r"^cannot compare sqrt\(2\) with sqrt\(3\)$"):
            x.compare(y)
        for combine in (x.__add__, x.__sub__, x.__mul__):
            with pytest.raises(RadicandMismatch,
                               match=r"^cannot combine sqrt\(2\) with sqrt\(3\)$"):
                combine(y)


def test_rational_operand_adopts_radicand():
    assert exact(1) + SQRT2 == ExactNumber(1, 1, 2)


def test_floor_examples():
    assert exact(F(7, 3)).floor() == 2
    assert exact(F(-1, 2)).floor() == -1
    assert (3 * PHI).floor() == 4
    assert (-3 * PHI).floor() == -5
    assert (100 * SQRT2).floor() == 141


def test_floor_bracketing_property(rng):
    for _ in range(300):
        x = rand_quadratic(rng, m=rng.choice((2, 3, 5)))
        n = x.floor()
        assert exact(n) <= x < exact(n + 1)


def test_frac_in_unit_interval(rng):
    for _ in range(100):
        x = rand_quadratic(rng)
        f = x.frac()
        assert exact(0) <= f < exact(1)


def test_field_axioms_sampled(rng):
    for _ in range(200):
        a, b, c = (rand_quadratic(rng, m=3) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a - a == exact(0)
        if b.sign() != 0:
            assert (a / b) * b == a


def test_order_respects_arithmetic(rng):
    for _ in range(200):
        a, b, c = (rand_quadratic(rng, m=2) for _ in range(3))
        if a < b:
            assert a + c < b + c
            if c.sign() > 0:
                assert a * c < b * c


def test_total_order(rng):
    values = [rand_quadratic(rng) for _ in range(60)]
    sorted_vals = sorted(values)
    for x, y in zip(sorted_vals, sorted_vals[1:]):
        assert x <= y


def test_canonical_equality():
    assert ExactNumber(F(2, 4), F(6, 4), 5) == ExactNumber(F(1, 2), F(3, 2), 5)
    # radicand folds away when the coefficient vanishes
    assert ExactNumber(3, 0, 7) == exact(3)
    assert ExactNumber(1, 2, 1) == exact(3)


def test_square_free_validation():
    with pytest.raises(ValueError):
        ExactNumber(0, 1, 8)
    with pytest.raises(ValueError):
        ExactNumber.sqrt(12)
    with pytest.raises(ValueError):
        ExactNumber.sqrt(-2)


def _square_free(m: int) -> bool:
    return all(m % (p * p) for p in range(2, isqrt(m) + 1))


def test_radicand_check_matches_trial_division_to_the_root():
    for m in range(2, 5000):
        if _square_free(m):
            assert ExactNumber.sqrt(m).m == m
        else:
            with pytest.raises(ValueError, match="square-free"):
                ExactNumber.sqrt(m)


@pytest.mark.parametrize("m", [
    999983 ** 2 * 1000003,      # p^2 with p the last prime below 10^6
    1000003 ** 2,               # the square of a prime past 10^6
    999999937 ** 2,             # the square of the last prime below 10^9
    2 * 999983 ** 2,
    MAX_RADICAND,               # 2^18 * 5^18
], ids=str)
def test_a_square_factor_near_the_bound_is_caught(m):
    with pytest.raises(ValueError, match=f"square-free, got {m}$"):
        ExactNumber.sqrt(m)


@pytest.mark.parametrize("m", [
    10 ** 18 - 11,              # a prime just below the bound
    999983 * 1000003,           # two primes on either side of 10^6
    999983 * 1000003 * 2,
    100000000000031,
], ids=str)
def test_a_square_free_radicand_near_the_bound_is_accepted(m):
    assert ExactNumber.sqrt(m).m == m


def test_a_radicand_past_the_bound_is_refused_by_name():
    for m in (MAX_RADICAND + 1, 10 ** 114 + 7):
        with pytest.raises(ValueError, match="exceeds MAX_RADICAND = 10"):
            ExactNumber.sqrt(m)


def test_parse_format_round_trip(rng):
    for _ in range(150):
        x = rand_quadratic(rng, m=rng.choice((0, 2, 5, 7)))
        assert parse_exact(str(x)) == x


def test_parse_whitespace_insensitive():
    assert parse_exact(" 1/2 + 1/2 * sqrt( 5 ) ".replace(" ", "")) == PHI
    assert parse_exact("1/2+1/2*sqrt(5)") == PHI
    assert parse_exact("  3 / 4 ") == exact(F(3, 4))


def test_parse_bare_sqrt_and_signs():
    assert parse_exact("sqrt(2)") == SQRT2
    assert parse_exact("-sqrt(2)") == -SQRT2
    assert parse_exact("2-3/4*sqrt(7)") == ExactNumber(2, F(-3, 4), 7)


def test_parse_folds_sqrt_0_and_sqrt_1_into_the_rational_part():
    assert parse_exact("2*sqrt(1)") == exact(2)
    assert parse_exact("sqrt(1)") == exact(1)
    assert parse_exact("-sqrt(1)+1/2") == exact(F(-1, 2))
    assert parse_exact("3*sqrt(0)") == exact(0)
    assert parse_exact("-sqrt(0)+1/3") == exact(F(1, 3))
    # a folded term is no radicand, so it mixes with any other
    assert parse_exact("sqrt(1)+sqrt(2)+sqrt(0)") == 1 + SQRT2
    assert parse_exact("1/2*sqrt(1)+1/2*sqrt(5)") == PHI


def test_parse_rejects_garbage():
    for bad in ("", "one", "1//2", "sqrt(2)+sqrt(3)"):
        with pytest.raises((ValueError, RadicandMismatch)):
            parse_exact(bad)


def test_rational_round_trip_under_any_radicand():
    x = exact(F(21, 20))
    assert ExactNumber(F(21, 20), 0, 5) == x
    assert x + SQRT2 - SQRT2 == x


def test_str_of_rationals_matches_fraction():
    assert str(exact(F(21, 20))) == "21/20"
    assert str(exact(-3)) == "-3"
    assert str(PHI) == "1/2+1/2*sqrt(5)"


@given(num=st.integers(-10 ** 30, 10 ** 30),
       den=st.integers(1, 10 ** 20), sign=st.sampled_from([1, -1]))
def test_str_of_a_rational_is_its_fractions(num, den, sign):
    # the canonical form prints itself; Fraction reduces again
    x = ExactNumber._raw(num, 0, sign * den, 0)
    assert str(x) == str(F(num, sign * den))
    assert str(x / 7) == str(F(num, sign * den * 7))


# -- fast paths against their slow formulas ----------------------------------

# small denominators make equal denominators after normalization common
_coef = st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 12]))


def _numbers(m):
    """ExactNumbers over Q(sqrt(m)), rationals included."""
    return st.builds(lambda a, b: ExactNumber(a, b, m), _coef, _coef)


_pairs = st.sampled_from([0, 2, 3, 5]).flatmap(
    lambda m: st.tuples(_numbers(m), _numbers(m) | _numbers(0)))


def _slow_compare(x, y):
    m = x.m if x.q != 0 else y.m
    return _sign_pair(x.p * y.den - y.p * x.den, x.q * y.den - y.q * x.den, m)


def _fields(x):
    return (x.p, x.q, x.den, x.m)


@given(_pairs)
def test_compare_agrees_with_cross_multiplied_sign(pair):
    x, y = pair
    assert x.compare(y) == _slow_compare(x, y)
    assert y.compare(x) == _slow_compare(y, x)


# wide rationals: two of them are compared by one cross product
_wide_coef = st.builds(F, st.integers(-2 ** 90, 2 ** 90), st.integers(1, 2 ** 70))


@given(_coef | _wide_coef, _coef | _wide_coef)
def test_compare_agrees_with_fraction_order(a, b):
    d = a - b
    expected = (d > 0) - (d < 0)
    assert exact(a).compare(exact(b)) == expected
    assert exact(a).compare(b) == expected


@given(_pairs, st.integers(-9, 9))
def test_subtraction_is_addition_of_the_negation_and_canonical(pair, k):
    x, y = pair
    assert _fields(x - y) == _fields(x + (-y))
    assert _fields(y - x) == _fields(y + (-x))
    assert _fields(k - x) == _fields(exact(k) + (-x))
    assert _fields(x - k) == _fields(x + exact(-k))
    for z in (x - y, x * y, k - x):
        # canonical: positive denominator, no common factor left
        assert z.den > 0 and gcd(z.p, z.q, z.den) == 1


@given(st.sampled_from([(2, 3), (2, 5), (3, 5), (5, 2)]),
       _coef, _coef.filter(bool), _coef, _coef.filter(bool))
def test_mixed_radicands_still_rejected(ms, p1, q1, p2, q2):
    x, y = ExactNumber(p1, q1, ms[0]), ExactNumber(p2, q2, ms[1])
    with pytest.raises(RadicandMismatch):
        x.compare(y)
    with pytest.raises(RadicandMismatch):
        x - y


# Plain ints take their own branches in compare, ==, + - * and coerce; bool
# keeps the Fraction path.  Each must give what the int's ExactNumber gives.
_ints = st.one_of(st.sampled_from([0, 1, -1, True, False]),
                  st.integers(-10 ** 6, 10 ** 6), st.integers(-2 ** 80, 2 ** 80))


def _same(op, x, k):
    """op(x, k) against op(x, exact(Fraction(k))): equal fields, or the same
    error with the same message."""
    try:
        expected = op(x, exact(F(k)))
    except DivisionByZero as err:
        with pytest.raises(DivisionByZero, match=f"^{err}$"):
            op(x, k)
        return
    got = op(x, k)
    if isinstance(expected, ExactNumber):
        assert _fields(got) == _fields(expected)
        assert all(type(v) is int for v in _fields(got))
    else:
        assert got == expected


@given(st.sampled_from([0, 2, 3, 5]).flatmap(_numbers), _ints)
def test_int_operands_match_their_exact_number(x, k):
    assert _fields(exact(k)) == _fields(exact(F(k)))
    assert all(type(v) is int for v in _fields(exact(k)))
    for op in (lambda a, b: a.compare(b), lambda a, b: a == b,
               lambda a, b: a + b, lambda a, b: b + a,
               lambda a, b: a - b, lambda a, b: b - a,
               lambda a, b: a * b, lambda a, b: b * a,
               lambda a, b: a / b, lambda a, b: b / a):
        _same(op, x, k)


@given(_coef, _coef)
def test_rational_division_matches_fraction(a, b):
    if b == 0:
        with pytest.raises(DivisionByZero, match="^inverse of zero$"):
            exact(a) / exact(b)
        return
    z = exact(a) / exact(b)
    assert _fields(z) == (F(a / b).numerator, 0, F(a / b).denominator, 0)


# The lean lane: an int divisor, identity in == and !=, and _raw's own
# normalization, each against the general path.

# small, negative, and past 2^63 on either side
_divisors = st.one_of(st.integers(-12, 12).filter(bool),
                      st.integers(2 ** 63, 2 ** 80),
                      st.integers(-2 ** 80, -2 ** 63))
_dividends = st.one_of(alphas(), st.sampled_from([0, 2, 3, 5]).flatmap(_numbers),
                       st.builds(lambda a: -a, alphas()))


@given(_dividends, _divisors)
def test_int_divisor_matches_the_general_division(x, k):
    z = x / k
    assert _fields(z) == _fields(x / ExactNumber(k))
    assert z.den > 0 and gcd(z.p, z.q, z.den) == 1
    assert _fields(z * k) == _fields(x)


@given(_dividends)
def test_zero_and_bool_divisors_take_the_general_path(x):
    with pytest.raises(DivisionByZero, match="^inverse of zero$"):
        x / ExactNumber(0)
    with pytest.raises(DivisionByZero, match="^inverse of zero$"):
        x / 0
    with pytest.raises(DivisionByZero, match="^inverse of zero$"):
        x / False
    assert _fields(x / True) == _fields(x / ExactNumber(1)) == _fields(x)


def test_only_a_bool_divisor_is_coerced(monkeypatch):
    calls = []
    coerce = ExactNumber.coerce

    def counted(value):
        calls.append(value)
        return coerce(value)
    monkeypatch.setattr(ExactNumber, "coerce", staticmethod(counted))
    x = ExactNumber(F(3, 4), F(-1, 6), 7)
    assert _fields(x / 5) == _fields(x / ExactNumber(5))
    assert _fields(x / x) == (1, 0, 1, 0)
    assert calls == []
    x / True
    assert calls == [True]


@given(_dividends, st.integers(-3, 3))
def test_ne_is_not_eq(x, k):
    copy = ExactNumber._raw(x.p, x.q, x.den, x.m)
    assert copy is not x
    for y in (x, copy, x + k, x * 2, x / 3, x.p, k, F(k, 2), SQRT2):
        assert (x != y) is (not (x == y))
        assert (y != x) is (not (y == x))
    assert x == x and not x != x
    assert x == copy and not x != copy


def test_ne_gives_foreign_types_back():
    for foreign in (object(), 1.5, None, (1, 2)):
        assert PHI.__eq__(foreign) is NotImplemented
        assert PHI.__ne__(foreign) is NotImplemented
        assert PHI != foreign and not PHI == foreign


@given(st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70),
       st.integers(-2 ** 40, 2 ** 40), st.sampled_from([0, 2, 3, 5]))
def test_raw_normalizes_as_the_constructor_does(p, q, den, m):
    if m == 0:
        q = 0
    if den == 0:
        with pytest.raises(DivisionByZero, match="^zero denominator$"):
            ExactNumber._raw(p, q, den, m)
        return
    x = ExactNumber._raw(p, q, den, m)
    assert _fields(x) == _fields(ExactNumber(F(p, den), F(q, den), m))
    assert x.den > 0 and gcd(x.p, x.q, x.den) == 1
    assert x.m == (m if x.q else 0)


def _slow_floor(x):
    """floor of x = (p + q*sqrt(m)) / den from brackets of q*sqrt(m) by
    isqrt(q^2 m 4^k) / 2^k, refined until both ends of x's bracket share
    their floor."""
    p, q, den, m = x.p, x.q, x.den, x.m
    k = 0
    while True:
        s = isqrt(q * q * m << 2 * k)
        lo, hi = F(s, 1 << k), F(s + 1, 1 << k)  # lo <= |q| sqrt(m) < hi
        if q < 0:
            lo, hi = -hi, -lo
        n = (p + lo) / den // 1
        if (p + hi) / den // 1 == n:
            return int(n)
        k += 8


_wide = st.integers(-2 ** 100, 2 ** 100)


@st.composite
def _wide_irrationals(draw):
    """(p + q*sqrt(m)) / den with coefficients past 64 bits, half of them
    with p within a few units of -q*sqrt(m), so the value sits near an
    integer multiple of 1/den."""
    m = draw(st.sampled_from([2, 3, 5, 7, 13]))
    q = draw(_wide.filter(bool))
    den = draw(st.integers(1, 2 ** 80))
    if draw(st.booleans()):
        r = isqrt(q * q * m)
        p = (r if q < 0 else -r) + draw(st.integers(-3, 3))
    else:
        p = draw(_wide)
    return ExactNumber(F(p, den), F(q, den), m)


@given(_wide_irrationals())
def test_wide_floor_and_frac_match_a_slow_bracket(x):
    n = _slow_floor(x)
    assert x.floor() == n
    f = x.frac()
    assert _fields(f) == _fields(ExactNumber(F(x.p, x.den) - n,
                                             F(x.q, x.den), x.m))
    assert f.sign() >= 0 and f.compare(1) < 0


# small, past 64 bits, or of 300 digits and more
_any_int = st.integers(-9, 9) | _wide | st.integers(-10 ** 320, 10 ** 320)


@st.composite
def _floor_operands(draw):
    """(p, q, den, m) with den of either sign, q = 0 among them, half of
    the irrational ones with p within a few units of -q*sqrt(m)."""
    m = draw(st.sampled_from([2, 3, 5, 13, 10001, 90001]))
    q = draw(st.just(0) | _any_int)
    den = draw(_any_int.filter(bool))
    if q and draw(st.booleans()):
        r = isqrt(q * q * m)
        p = (r if q < 0 else -r) + draw(st.integers(-3, 3))
    else:
        p = draw(_any_int)
    return p, q, den, m


@given(_floor_operands())
def test_floor_pair_is_the_floor_of_its_number(operands):
    # the bare coefficients, unreduced and with either sign of den, floor
    # as the normalized number does, and as a slow bracket does
    x = ExactNumber._raw(*operands)
    assert _floor_pair(*operands) == x.floor() == _slow_floor(x)


@given(_floor_operands(), _any_int, _any_int, st.integers(1, 10 ** 40))
def test_floor_pair_of_a_quotient_of_two_pairs(operands, c, e, f):
    # floor((a + b*sqrt(m))/(f*(c + e*sqrt(m)))) as the first-hit engine
    # forms it: times the conjugate, over f times the divisor's norm; and
    # the ceiling as minus the floor over minus that
    a, b, _, m = operands
    assume(c or e)
    x = ExactNumber._raw(a, b, f, m) / ExactNumber._raw(c, e, 1, m)
    p, q, norm = a * c - b * e * m, b * c - a * e, f * (c * c - e * e * m)
    assert _floor_pair(p, q, norm, m) == x.floor()
    assert -_floor_pair(p, q, -norm, m) == -(-x).floor()


def _convergent_gap(k):
    """p_k - q_k*sqrt(2) for the k-th convergent p_k/q_k of sqrt(2),
    counting 1/1 as the 0th: of size about 1/(2.8 q_k), sign (-1)^(k+1)."""
    p, q = 1, 1
    for _ in range(k):
        p, q = p + 2 * q, p + q
    return ExactNumber(p, -q, 2)


def _float_is_close(x):
    f = float(x)
    assert (f > 0) - (f < 0) == x.sign()
    # |f - x| < 2^-50 |x|, decided exactly
    assert (abs(exact(F(f)) - x) * 2 ** 50).compare(abs(x)) < 0


def test_float_of_a_cancelling_value_keeps_its_sign():
    # p and q*sqrt(2) agree to 77 bits: evaluated in floats this gave
    # -16777216.0 for a value of about -1.6e-24
    x = _convergent_gap(60)
    assert x.sign() == -1
    _float_is_close(x)
    assert -1e-23 < float(x) < 0
    for k in range(100):
        _float_is_close(_convergent_gap(k))


@given(_wide_irrationals())
def test_float_of_wide_irrationals(x):
    _float_is_close(x)
