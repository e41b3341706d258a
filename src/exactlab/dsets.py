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
from typing import (Callable, Iterable, Iterator, Mapping, NoReturn, Optional,
                    Sequence)

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
from .qnum import ExactNumber, exact

ONE = ExactNumber(1)
ZERO = ExactNumber(0)
_QUARTER = ExactNumber(Fraction(1, 4))


class _SortedExact:
    """Immutable sorted tuple (or naturals view) of distinct exact numbers."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable):
        elems = sorted({ExactNumber.coerce(e) for e in elements})
        object.__setattr__(self, "elements", tuple(elems))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __iter__(self) -> Iterator[ExactNumber]:
        return iter(self.elements)

    def __len__(self) -> int:
        """The number of elements.  A prefix of the naturals may hold 2^63
        or more, where this raises OverflowError as ``len()`` does for any
        container that large; the other queries answer at every size."""
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __getitem__(self, idx):
        return self.elements[idx]

    def __contains__(self, value) -> bool:
        value = ExactNumber.coerce(value)
        i = _rank(self.elements, value)
        return i > 0 and self.elements[i - 1] == value

    @classmethod
    def _of(cls, elements: Sequence) -> "_SortedExact":
        """A set over ``elements`` as given: a sorted tuple or a naturals
        view, checked by the caller."""
        out = object.__new__(cls)
        object.__setattr__(out, "elements", elements)
        return out

    def __eq__(self, other) -> bool:
        # counts first, so no naturals view is walked past another's size
        if isinstance(other, _SortedExact):
            mine, theirs = self.elements, other.elements
            if _last(mine) != _last(theirs):
                return False
            if isinstance(mine, _Naturals) and isinstance(theirs, _Naturals):
                return True
            return tuple(mine) == tuple(theirs)
        return NotImplemented

    def __hash__(self):
        # the count and the two ends: equal for equal sets, at any size
        elems, last = self.elements, _last(self.elements)
        return hash((last, elems[0], elems[-1]) if last >= 0 else ())

    def __repr__(self) -> str:
        name, elems = type(self).__name__, self.elements
        if isinstance(elems, _Naturals):
            return f"{name}(<the first {elems.n} naturals>)"
        inner = ", ".join(str(e) for e in elems)
        return f"{name}({{{inner}}})"

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
        i, last = _rank(self.elements, a), _last(self.elements)
        return min(abs(self.elements[j] - a) for j in (i - 1, i)
                   if 0 <= j <= last)


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
        i = _rank(self.elements, d)
        if i > _last(self.elements):
            raise NoSuccessor(f"{d} is the maximum")
        return self.elements[i]

    def restrict(self, bound) -> "DiscreteSet":
        """Subset of elements <= bound (inclusive; may be empty); a naturals
        view stays a view."""
        i = _rank(self.elements, ExactNumber.coerce(bound))
        return self._of(self.elements[:i])

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
    """x -> frac(x * alpha) for a fixed irrational alpha > 0.

    Values lie in [0, 1).  The oracle holds only alpha: every value is
    computed in closed form, one product and one exact floor, for any
    exact x.  Searches over the naturals read the orbit through the
    first-hit engine (:class:`exactlab.orbit.Orbit`), not value by value.
    """

    def __init__(self, alpha: ExactNumber):
        alpha = ExactNumber.coerce(alpha)
        if alpha.is_rational:
            raise ValueError("rotation oracle needs an irrational alpha")
        if alpha.sign() <= 0:
            raise ValueError("rotation oracle needs alpha > 0")
        self.alpha = alpha

    def eval(self, x: ExactNumber) -> ExactNumber:
        return (ExactNumber.coerce(x) * self.alpha).frac()

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

class _Naturals:
    """The first ``n`` naturals as a read-only sequence of exact numbers,
    built on access; growing it is setting ``n``, and a prefix slice is
    again a view.  ``n`` may pass 2^63, where ``len()`` fails: read it,
    not the length."""

    __slots__ = ("n",)

    def __init__(self, n: int = 0):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __bool__(self) -> bool:
        return self.n > 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            r = range(self.n)[k]
            if r.start == 0 and r.step == 1:
                return _Naturals(r.stop)
            return [ExactNumber._raw(j, 0, 1, 0) for j in r]
        return ExactNumber._raw(range(self.n)[k], 0, 1, 0)


def _last(elems: Sequence) -> int:
    """The index of the last of ``elems``: a naturals view's count is read."""
    return (elems.n if isinstance(elems, _Naturals) else len(elems)) - 1


def _rank(elems: Sequence, x: ExactNumber) -> int:
    """How many of ``elems`` are <= x: arithmetic on a view, else bisect."""
    if isinstance(elems, _Naturals):
        return max(min(x.floor() + 1, elems.n), 0)
    return bisect.bisect_right(elems, x)


class GrowableSet:
    """A finite window onto an unbounded strictly increasing discrete set.

    Elements are produced by ``generator(k)`` (default: the naturals) and
    cached; the ``cap`` bounds the largest index that may ever be
    materialized, and exhausting it raises :class:`CapExceeded` rather than
    silently truncating a search.  The default naturals pass every gap
    check at ``min_gap <= 1``, so for them only the materialized count is
    kept and elements are built on access.  Not safe for concurrent
    mutation.
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
        self._elems: Sequence[ExactNumber] = (
            _Naturals() if generator is None and self.min_gap.compare(1) <= 0
            else [])

    @property
    def materialized_bound(self) -> int:
        return _last(self._elems)

    def index_of(self, e) -> int:
        """The index of a materialized element."""
        e = ExactNumber.coerce(e)
        i = _rank(self._elems, e) - 1
        if i >= 0 and self._elems[i] == e:
            return i
        raise ValueError(f"{e} is not materialized")

    def element(self, k: int) -> ExactNumber:
        self._materialize(k)
        return self._elems[k]

    def exhaust(self) -> NoReturn:
        """Grow to the cap, then raise the CapExceeded of a search past it."""
        self._materialize(self.cap)
        self._materialize(self.cap + 1)

    def _materialize(self, k: int) -> None:
        """Materialize every index up to k."""
        if k > self.cap:
            raise CapExceeded(f"index {k} exceeds cap {self.cap}")
        if k < 0:
            raise ValueError(f"index must be non-negative, got {k}")
        elems = self._elems
        if isinstance(elems, _Naturals):
            if elems.n <= k:
                elems.n = k + 1
            return
        while len(elems) <= k:
            i = len(elems)
            e = ExactNumber.coerce(self.generator(i))
            if elems:
                gap = e - elems[-1]
                if gap.compare(self.min_gap) < 0:
                    raise ValueError(
                        f"generator gap {gap} below the discreteness witness "
                        f"{self.min_gap} at index {i}")
            elif e.sign() < 0:
                raise ValueError("generated elements must be non-negative")
            elems.append(e)

    def prefix(self, k: int) -> DiscreteSet:
        """The first k+1 elements, as a view over the default naturals."""
        self._materialize(k)
        part = self._elems[: k + 1]
        return DiscreteSet._of(
            part if isinstance(part, _Naturals) else tuple(part))

    def materialized(self) -> DiscreteSet:
        """The elements materialized so far: none on a fresh set."""
        k = self.materialized_bound
        return self.prefix(k) if k >= 0 else DiscreteSet([])

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


# -- oracle queries ------------------------------------------------------
#
# A search reads the oracle values over the first indices of a set (index n
# stands for the set's n-th element) through four queries:
#
# - ``first_hit(n0, lo, hi, lo_open, hi_open, upto)``: the least index
#   >= n0 whose value lies between lo and hi (None: unbounded), each end
#   open or closed; None if there is none up to ``upto``;
# - ``hits(k, lo, hi)``: every index through k whose value lies in
#   [lo, hi];
# - ``chain(cut, k, below)``: the record chain of the cut below (or above)
#   it over indices <= k;
# - ``orbit_index(v)``: the least index whose value is v, or None;
#
# plus ``value(n)`` and ``elem(n)``.  A record chain lists the indices at
# which the value on one side of the cut comes at least as close to it as
# every earlier value on that side: its best approximations from that
# side, ties kept (a rotation's values never tie).  Over a growable set,
# an index past the cap raises CapExceeded.  A :class:`ValueColumn`
# answers them by scanning; the first-hit engine (:mod:`exactlab.orbit`)
# answers them for a rotation over the naturals, and
# :func:`exactlab.orbit.queries` picks between the two.  The column keeps
# only its values and answers each query by one loop over them.  The
# engine watches one window, the last one ``hits`` was asked for, keeps
# its visits from index 0 on, and steps from one visit to the next by the
# three-gap theorem.  Either one belongs to one extraction, like its set.


class ValueColumn:
    """Oracle values held as exact numbers, and the queries answered by
    scanning them: a fixed list, or, given ``f``, one value appended per
    newly read index, over the fixed ``elems`` or a growable set.

    Each query is one loop over the values it reads, in index order.  A
    column keeps nothing but its values: each index is evaluated once, and
    a fresh column holding the same values gives the same answers.
    """

    def __init__(self, elems: Sequence[ExactNumber], values: list,
                 G: Optional[GrowableSet] = None,
                 f: Optional[FunctionOracle] = None):
        self.elems = elems
        self._values = values
        self._G = G
        self._element = elems.__getitem__ if G is None else G.element
        self._f = f

    def _read(self, i: int) -> None:
        """Evaluate every index through i (CapExceeded past the cap)."""
        values = self._values
        while len(values) <= i:
            values.append(self._f.eval(self._element(len(values))))

    def value(self, n: int) -> ExactNumber:
        return self._values[n]

    def elem(self, n: int) -> ExactNumber:
        return self.elems[n]

    def first_hit(self, n0: int, lo, hi, lo_open: bool = False,
                  hi_open: bool = False, upto: Optional[int] = None
                  ) -> Optional[int]:
        lo = None if lo is None else ExactNumber.coerce(lo)
        hi = None if hi is None else ExactNumber.coerce(hi)
        values = self._values
        i = n0
        while upto is None or i <= upto:
            self._read(i)
            v = values[i]
            # an open end asks for a strict sign (True counts as 1)
            if ((lo is None or v.compare(lo) >= lo_open)
                    and (hi is None or v.compare(hi) <= -hi_open)):
                return i
            i += 1
        return None

    def hits(self, k: int, lo: ExactNumber, hi: ExactNumber) -> list[int]:
        self._read(k)
        values = self._values
        return [i for i in range(k + 1)
                if values[i].compare(lo) >= 0 and values[i].compare(hi) <= 0]

    def chain(self, cut, k: int, below: bool) -> list[int]:
        """One forward scan over the indices <= k, keeping ties: an index
        on the asked side of the cut that comes at least as close to it
        as the last record is itself a record."""
        self._read(k)
        cut, values = ExactNumber.coerce(cut), self._values
        # the sign of value(i) - cut on the asked side; a value with that
        # sign against the last record's lies farther from the cut
        want = -1 if below else 1
        chain: list[int] = []
        for i in range(k + 1):
            if values[i].compare(cut) == want and (
                    not chain
                    or values[i].compare(values[chain[-1]]) != want):
                chain.append(i)
        return chain

    def orbit_index(self, v) -> Optional[int]:
        """Reads on through the last of fixed elements; over a growable
        set, looks only at the indices already read."""
        for i in range(_last(self._values if self._G else self.elems) + 1):
            self._read(i)
            if self._values[i] == v:
                return i
        return None
