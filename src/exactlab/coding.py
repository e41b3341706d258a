"""Sequence-coding toolkit over exact arithmetic.

Natural-number sequences are packed into single naturals with the classical
chinese-remainder construction behind Goedel's beta function; reals carry
sequences through their continued-fraction digits; families of reals are
interleaved into one digit stream through the Cantor pairing.  Everything
round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    ExpansionTerminated,
    InsufficientDigits,
    NegativeSummand,
)
from .dsets import DiscreteSet, FunctionOracle
from .qnum import ExactNumber


def _check_nat(n: int, what: str = "argument") -> int:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {n!r}")
    return n


# -- pairing -------------------------------------------------------------

def cantor_pair(m: int, n: int) -> int:
    """(m + n)(m + n + 1)/2 + n, a bijection N x N -> N."""
    _check_nat(m, "m")
    _check_nat(n, "n")
    s = m + n
    return s * (s + 1) // 2 + n

def cantor_unpair(k: int) -> tuple[int, int]:
    _check_nat(k, "k")
    s = (isqrt(8 * k + 1) - 1) // 2
    n = k - s * (s + 1) // 2
    return s - n, n


# -- Goedel beta ---------------------------------------------------------

def _lcm_upto(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out = out * i // gcd(out, i)
    return out


def beta_encode(values: Sequence[int]) -> int:
    """Least canonical code k with beta(k, i) = values[i] for all i.

    The modulus step d is the least multiple of lcm(1..len-1) large enough
    for every entry; the residue part c is the least solution of the
    congruences.  Canonical, hence deterministic.
    """
    values = [_check_nat(v, "sequence entry") for v in values]
    n = len(values)
    if n == 0:
        return cantor_pair(0, 1)
    step = _lcm_upto(max(n - 1, 1))
    d_min = 1
    for i, v in enumerate(values):
        need = (v - 1) // (i + 1) + 1 if v >= 1 else 1
        d_min = max(d_min, need)
    d = ((d_min + step - 1) // step) * step
    moduli = [1 + (i + 1) * d for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            assert gcd(moduli[i], moduli[j]) == 1, "moduli must be coprime"
    c, modulus = 0, 1
    for m_i, v in zip(moduli, values):
        # lift c to also satisfy c = v (mod m_i)
        t = ((v - c) * pow(modulus, -1, m_i)) % m_i
        c += modulus * t
        modulus *= m_i
    return cantor_pair(c, d)


def beta(k: int, i: int) -> int:
    """Decode entry i from the code k: c mod (1 + (i+1)d)."""
    _check_nat(k, "k")
    _check_nat(i, "i")
    c, d = cantor_unpair(k)
    return c % (1 + (i + 1) * d)


# -- continued fractions --------------------------------------------------

@dataclass(frozen=True)
class CodedReal:
    """A real value together with an optional explicit digit tower.

    The tower keeps encode/decode exact even where the value alone is
    ambiguous (a trailing digit 1 collapses when recomputed from the value).
    """

    value: ExactNumber
    tower: Optional[tuple[int, ...]] = None

    @classmethod
    def from_value(cls, value) -> "CodedReal":
        return cls(value=ExactNumber.coerce(value))

    @classmethod
    def from_digits(cls, digits: Sequence[int]) -> "CodedReal":
        digits = tuple(int(d) for d in digits)
        for i, d in enumerate(digits):
            if i >= 1 and d < 1:
                raise ValueError(f"digit {d} at position {i} must be >= 1")
            if d < 0:
                raise ValueError("digits must be non-negative")
        return cls(value=_fold_digits(digits), tower=digits)


def _fold_digits(digits: Sequence[int]) -> ExactNumber:
    if not digits:
        return ExactNumber(0)
    x = ExactNumber(digits[-1])
    for d in reversed(digits[:-1]):
        x = ExactNumber(d) + x.inverse()
    return x


def cf_digits(a, upto: int) -> list[int]:
    """First ``upto`` continued-fraction digits, by the exact floor recurrence.

    Raises :class:`ExpansionTerminated` (carrying the digits produced) when
    a rational value runs out first.
    """
    _check_nat(upto, "upto")
    if isinstance(a, CodedReal):
        if a.tower is not None:
            if upto <= len(a.tower):
                return list(a.tower[:upto])
            raise ExpansionTerminated(
                f"expansion has only {len(a.tower)} digits", a.tower)
        x = a.value
    else:
        x = ExactNumber.coerce(a)
    digits: list[int] = []
    while len(digits) < upto:
        d = x.floor()
        digits.append(d)
        rest = x - d
        if rest.sign() == 0:
            if len(digits) < upto:
                raise ExpansionTerminated(
                    f"expansion has only {len(digits)} digits", digits)
            break
        x = rest.inverse()
    return digits


def cf_encode(values: Sequence[int]) -> CodedReal:
    """Pack naturals into a digit tower, storing n as digit n + 1 so every
    digit stays positive."""
    values = [_check_nat(v, "sequence entry") for v in values]
    return CodedReal.from_digits([v + 1 for v in values])


def cf_decode(a: CodedReal) -> list[int]:
    """Inverse of :func:`cf_encode`."""
    if a.tower is not None:
        digits = list(a.tower)
    else:
        digits = _all_digits(a.value)
    if any(d < 1 for d in digits):
        raise ValueError(f"{digits} is not an encoded sequence")
    return [d - 1 for d in digits]


def _all_digits(x: ExactNumber) -> list[int]:
    if not x.is_rational:
        raise ValueError("cannot exhaust the digits of an irrational value")
    digits: list[int] = []
    while True:
        d = x.floor()
        digits.append(d)
        rest = x - d
        if rest.sign() == 0:
            return digits
        x = rest.inverse()


# -- interleaved families --------------------------------------------------

def interleave_encode(members: Sequence[CodedReal],
                      digits_per_row: Optional[int] = None) -> CodedReal:
    """Pack a finite family of digit streams into one, row i digit j at
    stream position pair(i, j).

    Rational rows contribute their full expansions; rows with infinite
    expansions are cut at ``digits_per_row`` (required for them).  Unused
    positions hold a padding digit that cannot occur inside a real row.
    """
    if digits_per_row is not None:
        _check_nat(digits_per_row, "digits_per_row")
    rows: list[list[int]] = []
    for member in members:
        if member.tower is not None:
            row = list(member.tower)
        elif member.value.is_rational:
            row = _all_digits(member.value)
        elif digits_per_row is None:
            raise ValueError(
                "digits_per_row is required for irrational members")
        else:
            row = cf_digits(member, digits_per_row)
        if digits_per_row is not None:
            row = row[:digits_per_row]
        rows.append(row)
    length = 0
    for i, row in enumerate(rows):
        for j in range(len(row)):
            length = max(length, cantor_pair(i, j) + 1)
    stream = [0] * length
    for i, row in enumerate(rows):
        for j, digit in enumerate(row):
            stream[cantor_pair(i, j)] = digit
    return cf_encode(stream)


def interleave_row(packed: CodedReal, i: int,
                   upto: Optional[int] = None) -> CodedReal:
    """Recover row i of an interleaved stream as a digit tower.

    A row ends at the stream's edge or at the first padding digit; asking
    for a row whose first position lies beyond the stream is an error.
    """
    _check_nat(i, "row index")
    if upto is not None:
        _check_nat(upto, "upto")
    stream = cf_decode(packed)
    if cantor_pair(i, 0) >= len(stream):
        raise InsufficientDigits(
            f"row {i} starts beyond the {len(stream)}-digit stream")
    digits: list[int] = []
    j = 0
    while upto is None or j < upto:
        pos = cantor_pair(i, j)
        if pos >= len(stream):
            break
        digit = stream[pos]
        if j >= 1 and digit == 0:
            break  # padding: genuine digits past position 0 are >= 1
        digits.append(digit)
        j += 1
    return CodedReal.from_digits(digits)


# -- primitive recursion ---------------------------------------------------

def primitive_recursion(base: Callable, step: Callable, a, i: int,
                        certificate: bool = False):
    """The unique f with f(a, 0) = base(a) and f(a, j+1) = step(a, f(a, j)).

    With ``certificate=True`` (natural-valued orbits only) also returns a
    beta code that decodes to the whole orbit f(a, 0..i).
    """
    _check_nat(i, "i")
    v = base(a)
    orbit = [v]
    for _ in range(i):
        v = step(a, v)
        orbit.append(v)
    if not certificate:
        return v
    if not all(isinstance(x, int) and x >= 0 for x in orbit):
        raise ValueError("certificates need a natural-valued recursion")
    return v, beta_encode(orbit)


# -- exact summation ---------------------------------------------------------

def discrete_sum(D: DiscreteSet, h: FunctionOracle) -> ExactNumber:
    """Sum of h over D by the successor recursion, exactly.

    Summands must be non-negative.
    """
    total = ExactNumber(0)
    for d in D:
        v = h.eval(d)
        if v.sign() < 0:
            raise NegativeSummand(f"h({d}) = {v} < 0")
        total = total + v
    return total


def sum_commutes(D: DiscreteSet, h: FunctionOracle,
                 sigma: Mapping) -> tuple[bool, ExactNumber, ExactNumber]:
    """Compare the sum of h with the sum of h after the bijection sigma.

    Returns (equal, plain sum, permuted sum); equal is always True at finite
    scale and asserted by callers.
    """
    table = {ExactNumber.coerce(k): ExactNumber.coerce(v)
             for k, v in sigma.items()}
    if set(table) != set(D.elements) or set(table.values()) != set(D.elements):
        raise ValueError("sigma must be a bijection of D onto itself")
    lhs = discrete_sum(D, h)
    rhs = ExactNumber(0)
    for d in D:
        v = h.eval(table[d])
        if v.sign() < 0:
            raise NegativeSummand(f"h(sigma({d})) = {v} < 0")
        rhs = rhs + v
    return lhs == rhs, lhs, rhs
