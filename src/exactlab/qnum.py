"""Exact arithmetic over the rationals and real quadratic extensions.

An :class:`ExactNumber` is a value ``(p + q*sqrt(m)) / den`` with integer
``p, q, den`` and a square-free radicand ``m`` (``m = 0`` encodes a pure
rational, with ``q`` forced to zero).  All operations are exact; every
comparison is decided by integer sign logic, never by rounding.  Two
irrational operands must share the same radicand; a rational operand
combines with anything.

The hot paths branch on operand shape inside each method:

- an ``ExactNumber`` operand is used as it is, without ``coerce``;
- a plain ``int`` (not ``bool``) is coerced without a ``Fraction``, is
  compared by the sign of ``p - k*den`` and ``q``, is added, subtracted or
  multiplied straight into the coefficients, and as a nonzero divisor
  multiplies into ``den``;
- two rationals (``q == 0``) are added, subtracted, multiplied and divided
  without the radicand check or the ``q`` products, and compared by the
  sign of ``p*oden - op*den`` alone;
- ``==`` holds at once for the same object, and ``!=`` has its own method
  rather than the inherited one, which calls ``__eq__`` through a slot.

Everything else takes the general formulas.  Every value, whichever path
built it, is made by one constructor, ``_raw``, which normalizes in the
same call, so the canonical form is the same on every path; a rational
reduces by ``gcd(p, den)``.  ``<``, ``<=``, ``>`` and ``>=`` all go through
``compare``.  ``floor`` compares nothing: a rational is one integer
division, and an irrational adds ``s = isqrt(q*q*m)`` to ``p`` (``-s - 1``
when ``q < 0``) before it divides.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, ldexp
from typing import Union

from .errors import DivisionByZero, RadicandMismatch

Rationalish = Union[int, Fraction]


def _sign_pair(p: int, q: int, m: int) -> int:
    """Sign of p + q*sqrt(m), by case analysis on the coefficient signs."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    lhs = p * p
    rhs = q * q * m
    if p > 0:  # q < 0: positive iff p^2 > q^2 m
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


#: The largest radicand accepted: its square-freeness is decided by trial
#: division up to its cube root, at most 10^6.
MAX_RADICAND = 10 ** 18


@lru_cache(maxsize=None)
def _check_radicand(m: int) -> None:
    """Refuse m unless it is square-free (0 and 1 pass) and at most
    :data:`MAX_RADICAND`.

    Trial division takes out each prime p while p^3 is at most the
    cofactor r left so far; p^2 dividing m shows at once.  Every prime
    factor of the final r exceeds its cube root, so r has at most two,
    and a square factor only if it is a perfect square."""
    if m < 0:
        raise ValueError(f"radicand must be non-negative, got {m}")
    if m > MAX_RADICAND:
        raise ValueError("radicand exceeds MAX_RADICAND = 10^18, the "
                         "largest whose square factors are checked")
    r, p = m, 2
    while p * p * p <= r:
        if r % p == 0:
            r //= p
            if r % p == 0:
                raise ValueError(f"radicand must be square-free, got {m}")
        p += 1 if p == 2 else 2
    if r > 1 and isqrt(r) ** 2 == r:
        raise ValueError(f"radicand must be square-free, got {m}")


class ExactNumber:
    """An exactly represented element of Q or Q(sqrt(m))."""

    __slots__ = ("p", "q", "den", "m")

    def __new__(cls, a: Rationalish = 0, b: Rationalish = 0, m: int = 0):
        a = Fraction(a)
        b = Fraction(b)
        _check_radicand(m)
        if m == 1:
            # sqrt(1) folds into the rational part
            a, b, m = a + b, Fraction(0), 0
        if m == 0:
            b = Fraction(0)
        den = a.denominator * b.denominator
        p = a.numerator * b.denominator
        q = b.numerator * a.denominator
        return cls._raw(p, q, den, m)

    def __setattr__(self, name, value):
        raise AttributeError("ExactNumber is immutable")

    @classmethod
    def _raw(cls, p: int, q: int, den: int, m: int) -> "ExactNumber":
        # the one normalization: every value is built here, and a rational
        # reduces by the two-argument gcd
        if den <= 0:
            if den == 0:
                raise DivisionByZero("zero denominator")
            p, q, den = -p, -q, -den
        if q == 0:
            m = 0
            if den != 1:
                g = gcd(p, den)
                if g != 1:
                    p //= g
                    den //= g
        elif den != 1:
            g = gcd(p, q, den)
            if g != 1:
                p //= g
                q //= g
                den //= g
        self = object.__new__(cls)
        _set_p(self, p)
        _set_q(self, q)
        _set_den(self, den)
        _set_m(self, m)
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def sqrt(cls, m: int) -> "ExactNumber":
        _check_radicand(m)
        if m in (0, 1):
            return cls._raw(m, 0, 1, 0)
        return cls._raw(0, 1, 1, m)

    @classmethod
    def coerce(cls, value) -> "ExactNumber":
        if isinstance(value, ExactNumber):
            return value
        if type(value) is int:
            return cls._raw(value, 0, 1, 0)
        if isinstance(value, (int, Fraction)):
            f = Fraction(value)
            return cls._raw(f.numerator, 0, f.denominator, 0)
        if isinstance(value, str):
            return parse_exact(value)
        raise TypeError(f"cannot interpret {value!r} as an ExactNumber")

    # -- predicates -----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def is_integer(self) -> bool:
        return self.q == 0 and self.den == 1

    def sign(self) -> int:
        """Exact sign of the value: -1, 0 or 1."""
        return _sign_pair(self.p, self.q, self.m)

    # -- arithmetic -----------------------------------------------------

    def _merged_m(self, other: "ExactNumber") -> int:
        if self.q != 0 and other.q != 0 and self.m != other.m:
            lo, hi = sorted((self.m, other.m))
            raise RadicandMismatch(f"cannot combine sqrt({lo}) with sqrt({hi})")
        return self.m if self.q != 0 else other.m

    def __add__(self, other) -> "ExactNumber":
        if type(other) is not ExactNumber:
            if type(other) is int:
                return ExactNumber._raw(self.p + other * self.den, self.q,
                                        self.den, self.m)
            other = ExactNumber.coerce(other)
        if self.q == 0 == other.q:
            return ExactNumber._raw(self.p * other.den + other.p * self.den,
                                    0, self.den * other.den, 0)
        m = self._merged_m(other)
        return ExactNumber._raw(
            self.p * other.den + other.p * self.den,
            self.q * other.den + other.q * self.den,
            self.den * other.den, m)

    __radd__ = __add__

    def __neg__(self) -> "ExactNumber":
        return ExactNumber._raw(-self.p, -self.q, self.den, self.m)

    def __sub__(self, other) -> "ExactNumber":
        if type(other) is not ExactNumber:
            if type(other) is int:
                return ExactNumber._raw(self.p - other * self.den, self.q,
                                        self.den, self.m)
            other = ExactNumber.coerce(other)
        if self.q == 0 == other.q:
            return ExactNumber._raw(self.p * other.den - other.p * self.den,
                                    0, self.den * other.den, 0)
        m = self._merged_m(other)
        return ExactNumber._raw(
            self.p * other.den - other.p * self.den,
            self.q * other.den - other.q * self.den,
            self.den * other.den, m)

    def __rsub__(self, other) -> "ExactNumber":
        return ExactNumber.coerce(other) - self

    def __mul__(self, other) -> "ExactNumber":
        if type(other) is not ExactNumber:
            if type(other) is int:
                return ExactNumber._raw(self.p * other, self.q * other,
                                        self.den, self.m)
            other = ExactNumber.coerce(other)
        if self.q == 0 == other.q:
            return ExactNumber._raw(self.p * other.p, 0,
                                    self.den * other.den, 0)
        m = self._merged_m(other)
        p = self.p * other.p + self.q * other.q * m
        q = self.p * other.q + self.q * other.p
        return ExactNumber._raw(p, q, self.den * other.den, m)

    __rmul__ = __mul__

    def inverse(self) -> "ExactNumber":
        if self.p == 0 and self.q == 0:
            raise DivisionByZero("inverse of zero")
        if self.q == 0:
            return ExactNumber._raw(self.den, 0, self.p, 0)
        norm = self.p * self.p - self.q * self.q * self.m
        # norm != 0: otherwise sqrt(m) would be rational
        return ExactNumber._raw(self.den * self.p, -self.den * self.q, norm, self.m)

    def __truediv__(self, other) -> "ExactNumber":
        if type(other) is not ExactNumber:
            if type(other) is int:
                if other == 0:
                    raise DivisionByZero("inverse of zero")
                return ExactNumber._raw(self.p, self.q, self.den * other,
                                        self.m)
            other = ExactNumber.coerce(other)
        if self.q == 0 == other.q:
            if other.p == 0:
                raise DivisionByZero("inverse of zero")
            return ExactNumber._raw(self.p * other.den, 0,
                                    self.den * other.p, 0)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "ExactNumber":
        return ExactNumber.coerce(other) * self.inverse()

    def __abs__(self) -> "ExactNumber":
        return -self if self.sign() < 0 else self

    # -- order ----------------------------------------------------------

    def compare(self, other) -> int:
        """Exact three-way comparison: sign of ``self - other``.

        Works on raw coefficients; no normalization needed for a sign, so
        this stays cheap in search loops.  Two rationals are decided by one
        cross product.  Otherwise, as denominators are positive, equal ones
        cancel and the numerators can be subtracted directly.
        """
        if type(other) is not ExactNumber:
            if type(other) is int:
                # the sign of (p - other*den + q*sqrt(m)) / den
                return _sign_pair(self.p - other * self.den, self.q, self.m)
            other = ExactNumber.coerce(other)
        q, oq = self.q, other.q
        if q == 0 == oq:
            a = self.p * other.den - other.p * self.den
            return (a > 0) - (a < 0)
        if q != 0 and oq != 0 and self.m != other.m:
            lo, hi = sorted((self.m, other.m))
            raise RadicandMismatch(f"cannot compare sqrt({lo}) with sqrt({hi})")
        den, oden = self.den, other.den
        if den == oden:
            a = self.p - other.p
            b = q - oq
        else:
            a = self.p * oden - other.p * den
            b = q * oden - oq * den
        if b == 0:
            return (a > 0) - (a < 0)
        return _sign_pair(a, b, self.m if q != 0 else other.m)

    def __eq__(self, other) -> bool:
        # canonical form makes value equality structural: equal values have
        # equal fields, the radicand included (it is 0 when q is)
        if other is self:
            return True
        if type(other) is not ExactNumber:
            if type(other) is int:
                return self.q == 0 and self.den == 1 and self.p == other
            try:
                other = ExactNumber.coerce(other)
            except TypeError:
                return NotImplemented
        return (self.p == other.p and self.q == other.q
                and self.den == other.den and self.m == other.m)

    def __ne__(self, other) -> bool:
        # spelled out: the inherited __ne__ would call __eq__ through a slot
        if type(other) is ExactNumber:
            return other is not self and (
                self.p != other.p or self.q != other.q
                or self.den != other.den or self.m != other.m)
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.den))
        return hash((self.p, self.q, self.den, self.m))

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    # -- floor ----------------------------------------------------------

    def floor(self) -> int:
        """Greatest integer <= value, decided exactly."""
        p, q, den, m = self.p, self.q, self.den, self.m
        if q == 0:
            return p // den
        # m is square-free and not 1, so |q| sqrt(m) is irrational and
        # s < |q| sqrt(m) < s + 1: floor(q sqrt(m)) is s or -s - 1, and
        # floor((p + x)/den) = floor((p + floor(x))/den) for every real x
        s = isqrt(q * q * m)
        if q > 0:
            return (p + s) // den
        return (p - s - 1) // den

    __floor__ = floor

    def frac(self) -> "ExactNumber":
        """Fractional part, in [0, 1)."""
        return self - self.floor()

    # -- text -----------------------------------------------------------

    def __str__(self) -> str:
        if self.q == 0:
            # canonical: gcd(p, den) = 1 and den > 0, as Fraction prints it
            return str(self.p) if self.den == 1 else f"{self.p}/{self.den}"
        rat = Fraction(self.p, self.den)
        coef = Fraction(self.q, self.den)
        tail = f"{coef}*sqrt({self.m})" if coef > 0 else f"-{-coef}*sqrt({self.m})"
        if rat == 0:
            return tail
        if coef > 0:
            return f"{rat}+{tail}"
        return f"{rat}{tail}"

    def __repr__(self) -> str:
        return f"ExactNumber('{self}')"

    def __float__(self) -> float:
        """The value as a float, for display only; never used in library logic.

        An irrational value is read from n = floor(value * 2^k), taken with
        k large enough that n has at least 60 bits.  That floor is decided
        exactly, so p and q*sqrt(m) cannot cancel: the float has the
        value's sign and a relative error below 2^-52.
        """
        p, q, den, m = self.p, self.q, self.den, self.m
        if q == 0:
            return p / den  # int / int rounds correctly
        # 61 bits above the value's leading bit, when nothing cancels
        k = 61 + den.bit_length() - max(p.bit_length(),
                                        (q * q * m).bit_length() // 2)
        while True:
            if k >= 0:
                n = ExactNumber._raw(p << k, q << k, den, m).floor()
            else:
                n = ExactNumber._raw(p, q, den << -k, m).floor()
            if n.bit_length() >= 60:
                return ldexp(n, -k)
            k += 61 - n.bit_length()


# _raw writes the slots through their descriptors, saved once here:
# cheaper than object.__setattr__, and __setattr__ still refuses writes
_set_p = ExactNumber.p.__set__
_set_q = ExactNumber.q.__set__
_set_den = ExactNumber.den.__set__
_set_m = ExactNumber.m.__set__


_TERM_RE = re.compile(
    r"""^(?:
        (?P<coef>[+-]?\d+(?:/\d+)?)\*sqrt\((?P<m1>\d+)\)
      | (?P<sign>[+-]?)sqrt\((?P<m2>\d+)\)
      | (?P<rat>[+-]?\d+(?:/\d+)?)
    )$""",
    re.VERBOSE,
)


def parse_exact(text: str) -> ExactNumber:
    """Parse the textual format: ``p/q`` or ``p/q+r/s*sqrt(m)``.

    Whitespace-insensitive; also accepts bare ``sqrt(m)`` terms, and the
    whole-token aliases ``phi``, ``sqrt2`` and ``sqrt3`` in any case.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ValueError("empty number")
    if compact.lower() in _ALIASES:
        return _ALIASES[compact.lower()]
    terms = _split_terms(compact)
    rat = Fraction(0)
    coef = Fraction(0)
    m = 0
    for term in terms:
        match = _TERM_RE.match(term)
        if match is None:
            raise ValueError(f"cannot parse number {text!r}")
        if match.group("rat") is not None:
            rat += _fraction(match.group("rat"))
            continue
        if match.group("coef") is not None:
            c = _fraction(match.group("coef"))
            tm = int(match.group("m1"))
        else:
            c = Fraction(-1 if match.group("sign") == "-" else 1)
            tm = int(match.group("m2"))
        if tm in (0, 1):
            rat += c * tm
            continue
        if m == 0:
            m = tm
        elif m != tm:
            raise RadicandMismatch(f"mixed radicands in {text!r}")
        coef += c
    return ExactNumber(rat, coef, m)


def _fraction(token: str) -> Fraction:
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise DivisionByZero(f"zero denominator in {token!r}") from None


def _split_terms(compact: str) -> list[str]:
    terms = []
    depth = 0
    start = 0
    for i, ch in enumerate(compact):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            prev = compact[i - 1]
            if prev not in "*/+-":
                terms.append(compact[start:i])
                start = i
    terms.append(compact[start:])
    return [t for t in terms if t]


def exact(value) -> ExactNumber:
    """Shorthand coercion from int, Fraction or text."""
    return ExactNumber.coerce(value)


ZERO = ExactNumber(0)
ONE = ExactNumber(1)

#: the golden ratio (1 + sqrt(5)) / 2
PHI = ExactNumber(Fraction(1, 2), Fraction(1, 2), 5)
SQRT2 = ExactNumber.sqrt(2)
SQRT3 = ExactNumber.sqrt(3)
_ALIASES = {"phi": PHI, "sqrt2": SQRT2, "sqrt3": SQRT3}
