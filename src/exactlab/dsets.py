"""Finite discrete sets, evaluation oracles, and the unit-step-segment
calculus.

A :class:`DiscreteSet` is a strictly increasing finite sequence of
non-negative exact numbers.  A *nat segment* is a set that is empty or
contains 0 with every consecutive gap exactly 1; an *approximate segment up
to a* relaxes the gaps and endpoint distances to a strict tolerance.  All
tests here are decided exactly.
"""

from __future__ import annotations

import bisect
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    CapExceeded,
    EmptySet,
    EpsTooLarge,
    NoSuccessor,
    NotAMember,
    NotASegment,
    OracleDomainError,
    ShiftTooLarge,
    VerificationError,
)
from .qnum import ExactNumber, exact, _sign_pair

ONE = ExactNumber(1)
ZERO = ExactNumber(0)
_QUARTER = ExactNumber(Fraction(1, 4))


class _SortedExact:
    """Immutable sorted tuple of distinct exact numbers."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable):
        elems = sorted({ExactNumber.coerce(e) for e in elements})
        object.__setattr__(self, "elements", tuple(elems))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __iter__(self) -> Iterator[ExactNumber]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, idx):
        return self.elements[idx]

    def __contains__(self, value) -> bool:
        value = ExactNumber.coerce(value)
        i = bisect.bisect_left(self.elements, value)
        return i < len(self.elements) and self.elements[i] == value

    def __eq__(self, other) -> bool:
        if isinstance(other, _SortedExact):
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self) -> str:
        inner = ", ".join(str(e) for e in self.elements)
        return f"{type(self).__name__}({{{inner}}})"

    def min(self) -> ExactNumber:
        if not self.elements:
            raise EmptySet("empty set has no minimum")
        return self.elements[0]

    def max(self) -> ExactNumber:
        if not self.elements:
            raise EmptySet("empty set has no maximum")
        return self.elements[-1]

    def dist(self, a) -> ExactNumber:
        """Exact minimum of |d - a| over the set."""
        if not self.elements:
            raise EmptySet("dist over an empty set")
        a = ExactNumber.coerce(a)
        i = bisect.bisect_left(self.elements, a)
        best = None
        for j in (i - 1, i):
            if 0 <= j < len(self.elements):
                cand = abs(self.elements[j] - a)
                if best is None or cand < best:
                    best = cand
        return best


class ValueSet(_SortedExact):
    """A sorted set of exact values, signs unrestricted (e.g. oracle images)."""


class DiscreteSet(_SortedExact):
    """Strictly increasing finite set of non-negative exact numbers."""

    def __init__(self, elements: Iterable):
        super().__init__(elements)
        if self.elements and self.elements[0].sign() < 0:
            raise ValueError("DiscreteSet elements must be non-negative")

    @classmethod
    def naturals(cls, upto: int) -> "DiscreteSet":
        """The set {0, 1, ..., upto}."""
        return cls(ExactNumber(k) for k in range(upto + 1))

    @classmethod
    def parse(cls, text: str) -> "DiscreteSet":
        """Parse a brace literal of comma-separated exact numbers."""
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"set literal must be brace-wrapped: {text!r}")
        body = text[1:-1].strip()
        if not body:
            return cls([])
        return cls(exact(token) for token in body.split(","))

    def successor(self, d) -> ExactNumber:
        """Least element strictly above ``d``; errors at the maximum."""
        d = ExactNumber.coerce(d)
        if d not in self:
            raise NotAMember(f"{d} is not in the set")
        i = bisect.bisect_right(self.elements, d)
        if i == len(self.elements):
            raise NoSuccessor(f"{d} is the maximum")
        return self.elements[i]

    def restrict(self, bound) -> "DiscreteSet":
        """Subset of elements <= bound (inclusive; may be empty)."""
        bound = ExactNumber.coerce(bound)
        i = bisect.bisect_right(self.elements, bound)
        out = object.__new__(type(self))
        object.__setattr__(out, "elements", self.elements[:i])
        return out

    def mirror(self) -> ValueSet:
        """The symmetric set D U -D."""
        return ValueSet(list(self.elements) + [-e for e in self.elements])


# -- oracles ------------------------------------------------------------

class FunctionOracle:
    """A total evaluable map on queried exact numbers."""

    def eval(self, x: ExactNumber) -> ExactNumber:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class RotationOracle(FunctionOracle):
    """n -> frac(n * alpha) for a fixed irrational alpha > 0.

    Values lie in [0, 1).  Integer arguments are evaluated incrementally
    (one exact addition and comparison per new index), so growing prefixes
    stay cheap.
    """

    def __init__(self, alpha: ExactNumber):
        alpha = ExactNumber.coerce(alpha)
        if alpha.is_rational:
            raise ValueError("rotation oracle needs an irrational alpha")
        if alpha.sign() <= 0:
            raise ValueError("rotation oracle needs alpha > 0")
        self.alpha = alpha
        step = alpha.frac()
        # incremental state on raw coefficients over the step's denominator
        self._den = step.den
        self._sp, self._sq, self._m = step.p, step.q, step.m
        self._acc = (0, 0)
        self._cache = [ExactNumber(0)]

    def _ensure(self, n: int) -> None:
        cache = self._cache
        den, sp, sq, m = self._den, self._sp, self._sq, self._m
        rp, rq = self._acc
        while len(cache) <= n:
            rp += sp
            rq += sq
            if _sign_pair(rp - den, rq, m) >= 0:
                rp -= den
            cache.append(ExactNumber._raw(rp, rq, den, m))
        self._acc = (rp, rq)

    def eval(self, x: ExactNumber) -> ExactNumber:
        x = ExactNumber.coerce(x)
        if x.is_integer and x.sign() >= 0:
            n = x.floor()
            self._ensure(n)
            return self._cache[n]
        return (x * self.alpha).frac()

    def describe(self) -> str:
        return f"rot({self.alpha})"


class TableOracle(FunctionOracle):
    """Finite lookup table; querying a missing key is an error, not a default."""

    def __init__(self, pairs: Mapping):
        self.table = {ExactNumber.coerce(k): ExactNumber.coerce(v)
                      for k, v in pairs.items()}

    def eval(self, x: ExactNumber) -> ExactNumber:
        x = ExactNumber.coerce(x)
        try:
            return self.table[x]
        except KeyError:
            raise OracleDomainError(f"oracle undefined at {x}") from None

    def describe(self) -> str:
        return f"table({len(self.table)} entries)"


class CallableOracle(FunctionOracle):
    def __init__(self, fn: Callable[[ExactNumber], ExactNumber], name: str = "fn"):
        self.fn = fn
        self.name = name

    def eval(self, x: ExactNumber) -> ExactNumber:
        return ExactNumber.coerce(self.fn(ExactNumber.coerce(x)))

    def describe(self) -> str:
        return self.name


class ComposedOracle(FunctionOracle):
    """outer after inner; total wherever both stages are."""

    def __init__(self, outer: FunctionOracle, inner: FunctionOracle):
        self.outer = outer
        self.inner = inner

    def eval(self, x: ExactNumber) -> ExactNumber:
        return self.outer.eval(self.inner.eval(x))

    def describe(self) -> str:
        return f"{self.outer.describe()} o {self.inner.describe()}"


def image(D: _SortedExact, f: FunctionOracle) -> ValueSet:
    """The value set f(D): sorted, duplicates collapsed, signs unrestricted."""
    return ValueSet(f.eval(d) for d in D)


# -- segment calculus ----------------------------------------------------

def is_nat_segment(D: _SortedExact) -> bool:
    """True iff D is empty, or 0 is in D and every consecutive gap is exactly 1."""
    if len(D) == 0:
        return True
    if D[0] != ZERO:
        return False
    for a, b in zip(D.elements, D.elements[1:]):
        if b - a != ONE:
            return False
    return True


class SegmentOrder(Enum):
    D_SUB_E = "DSubE"
    E_SUB_D = "ESubD"
    EQUAL = "Equal"


def segment_order(D: DiscreteSet, E: DiscreteSet) -> SegmentOrder:
    """Containment relation between two nat segments; they are always nested."""
    if not is_nat_segment(D) or not is_nat_segment(E):
        raise NotASegment("segment_order needs two nat segments")
    if len(D) == len(E):
        return SegmentOrder.EQUAL
    return SegmentOrder.D_SUB_E if len(D) < len(E) else SegmentOrder.E_SUB_D


def segment_union(family: Sequence[DiscreteSet]) -> DiscreteSet:
    """Union of a family of nat segments; the union is again one."""
    merged: set = set()
    for member in family:
        if not is_nat_segment(member):
            raise NotASegment("segment_union needs nat segments")
        merged.update(member.elements)
    out = DiscreteSet(merged)
    if not is_nat_segment(out):
        raise NotASegment("union of nat segments failed its own check")
    return out


def is_approx_segment(D: _SortedExact, eps, upto) -> bool:
    """True iff every consecutive gap is within eps of 1 and the set comes
    within eps of both 0 and ``upto``.  Strict inequalities, decided exactly.
    """
    if len(D) == 0:
        raise EmptySet("approximate-segment test over an empty set")
    eps = ExactNumber.coerce(eps)
    upto = ExactNumber.coerce(upto)
    for a, b in zip(D.elements, D.elements[1:]):
        if abs(b - a - 1) >= eps:
            return False
    return D.dist(0) < eps and D.dist(upto) < eps


def perturb(D: _SortedExact, shift: FunctionOracle, eps, upto) -> ValueSet:
    """Shift every element by less than eps; the result is again an
    approximate segment at three times the tolerance.

    Requires eps < 1/4 and that D is an eps-segment up to ``upto``.  Order of
    elements is preserved; the 3*eps check on the output is re-verified here.
    Elements near zero may be shifted below it, so the result is a plain
    sorted value set.
    """
    eps = ExactNumber.coerce(eps)
    upto = ExactNumber.coerce(upto)
    if eps.compare(_QUARTER) >= 0:
        raise EpsTooLarge(f"eps must be < 1/4, got {eps}")
    if not is_approx_segment(D, eps, upto):
        raise NotASegment(f"input is not an {eps}-segment up to {upto}")
    shifted = []
    for d in D:
        s = shift.eval(d)
        if abs(s).compare(eps) >= 0:
            raise ShiftTooLarge(f"|shift({d})| = {abs(s)} >= {eps}")
        shifted.append(d + s)
    for a, b in zip(shifted, shifted[1:]):
        if a.compare(b) >= 0:
            raise VerificationError("perturbation broke the element order")
    out = ValueSet(shifted)
    if not is_approx_segment(out, 3 * eps, upto):
        raise VerificationError("perturbed set failed its 3*eps check")
    return out


# -- growable sets -------------------------------------------------------

class GrowableSet:
    """A finite window onto an unbounded strictly increasing discrete set.

    Elements are produced by ``generator(k)`` (default: the naturals) and
    cached; the ``cap`` bounds the largest index that may ever be
    materialized, and exhausting it raises :class:`CapExceeded` rather than
    silently truncating a search.  Not safe for concurrent mutation.
    """

    def __init__(self,
                 generator: Optional[Callable[[int], ExactNumber]] = None,
                 cap: int = 10 ** 6,
                 min_gap=1):
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        self.generator = generator or (lambda k: ExactNumber._raw(k, 0, 1, 0))
        self.cap = cap
        self.min_gap = ExactNumber.coerce(min_gap)
        self._elems: list[ExactNumber] = []

    @property
    def materialized_bound(self) -> int:
        return len(self._elems) - 1

    def element(self, k: int) -> ExactNumber:
        if k > self.cap:
            raise CapExceeded(f"index {k} exceeds cap {self.cap}")
        if k < 0:
            raise ValueError(f"index must be non-negative, got {k}")
        while len(self._elems) <= k:
            i = len(self._elems)
            e = ExactNumber.coerce(self.generator(i))
            if self._elems:
                gap = e - self._elems[-1]
                if gap.compare(self.min_gap) < 0:
                    raise ValueError(
                        f"generator gap {gap} below the discreteness witness "
                        f"{self.min_gap} at index {i}")
            elif e.sign() < 0:
                raise ValueError("generated elements must be non-negative")
            self._elems.append(e)
        return self._elems[k]

    def prefix(self, k: int) -> DiscreteSet:
        """The first k+1 elements as a DiscreteSet."""
        self.element(k)
        out = object.__new__(DiscreteSet)
        object.__setattr__(out, "elements", tuple(self._elems[: k + 1]))
        return out

    def materialized(self) -> DiscreteSet:
        if not self._elems:
            self.element(0)
        return self.prefix(len(self._elems) - 1)

    def grow(self, predicate: Callable[[DiscreteSet], bool]) -> DiscreteSet:
        """Shortest prefix satisfying the predicate; CapExceeded past the cap."""
        k = 0
        while True:
            if k > self.cap:
                raise CapExceeded(
                    f"no prefix within cap {self.cap} satisfies the predicate")
            candidate = self.prefix(k)
            if predicate(candidate):
                return candidate
            k += 1
