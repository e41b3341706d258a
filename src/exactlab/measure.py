"""Exact outer measure on finitely presented sets.

Covers are plain lists of open intervals whose total length is summed with
overlaps counted; finitely presented sets (interval unions plus isolated
points) are normalized so that their outer measure is the total length of
the merged components, computed in closed form.

Covers, probes and unions read their interval tokens the same way, through
:meth:`Interval.parse`: ``(a,b)`` or ``[a,b]``, where each end is any exact
number, ``sqrt(m)`` forms included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import UnboundedInterval
from .qnum import ExactNumber, exact


@dataclass(frozen=True)
class Interval:
    """An interval given by its endpoints; ``None`` marks an unbounded end.

    Open/closed flavor is irrelevant to measure and is not tracked.
    """

    lo: Optional[ExactNumber]
    hi: Optional[ExactNumber]

    def __post_init__(self):
        lo = None if self.lo is None else ExactNumber.coerce(self.lo)
        hi = None if self.hi is None else ExactNumber.coerce(self.hi)
        if lo is not None and hi is not None and lo.compare(hi) >= 0:
            raise ValueError(f"empty interval ({lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def parse(cls, token: str) -> "Interval":
        """``(a,b)`` or ``[a,b]``, split at its single comma (an exact
        number holds none); the bracket flavor is ignored."""
        ends = token[1:-1].split(",")
        if token[:1] not in ("(", "[") or token[-1:] not in (")", "]") \
                or len(ends) != 2:
            raise ValueError(f"cannot parse interval {token!r}")
        return cls(exact(ends[0]), exact(ends[1]))

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def width(self) -> ExactNumber:
        if not self.bounded:
            raise UnboundedInterval(f"{self} has no finite length")
        return self.hi - self.lo

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"({lo},{hi})"


def cover_mass(cover: Sequence[Interval]) -> ExactNumber:
    """Total length of a cover, overlaps counted multiply."""
    total = ExactNumber(0)
    for iv in cover:
        total = total + iv.width()
    return total


class FiniteUnion:
    """A finite union of bounded intervals and isolated points, normalized:
    touching or overlapping intervals are merged and absorbed points dropped."""

    __slots__ = ("intervals", "points")

    def __init__(self, intervals: Iterable = (), points: Iterable = ()):
        pairs = []
        for iv in intervals:
            if isinstance(iv, Interval):
                if not iv.bounded:
                    raise UnboundedInterval("finite unions are bounded")
                pairs.append((iv.lo, iv.hi))
            else:
                lo, hi = iv
                lo, hi = ExactNumber.coerce(lo), ExactNumber.coerce(hi)
                if lo >= hi:
                    raise ValueError(f"empty interval ({lo}, {hi})")
                pairs.append((lo, hi))
        pairs.sort()
        merged: list[tuple[ExactNumber, ExactNumber]] = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                last_lo, last_hi = merged[-1]
                if hi > last_hi:
                    merged[-1] = (last_lo, hi)
            else:
                merged.append((lo, hi))
        pts = sorted({ExactNumber.coerce(p) for p in points})
        kept = [p for p in pts
                if not any(lo <= p <= hi for lo, hi in merged)]
        object.__setattr__(self, "intervals", tuple(merged))
        object.__setattr__(self, "points", tuple(kept))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteUnion is immutable")

    def __eq__(self, other):
        if isinstance(other, FiniteUnion):
            return (self.intervals, self.points) == (other.intervals, other.points)
        return NotImplemented

    def __hash__(self):
        return hash((self.intervals, self.points))

    def __str__(self) -> str:
        parts = [f"({lo},{hi})" for lo, hi in self.intervals]
        parts += [f"{{{p}}}" for p in self.points]
        return " ".join(parts) if parts else "{}"

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "FiniteUnion":
        """Parse whitespace-separated tokens: ``{p}`` is a point, ``{}``
        the empty set (how the empty union prints), and every other token
        an interval read by :meth:`Interval.parse`, so ``(a,b)`` or
        ``[a,b]`` with any exact numbers as ends, bracket flavor ignored."""
        intervals = []
        points = []
        for token in text.split():
            if token == "{}":
                continue
            if token[0] == "{" and token[-1] == "}":
                points.append(exact(token[1:-1]))
            else:
                intervals.append(Interval.parse(token))
        return cls(intervals, points)

    def measure(self) -> ExactNumber:
        """Exact outer measure: total length of the merged components."""
        total = ExactNumber(0)
        for lo, hi in self.intervals:
            total = total + (hi - lo)
        return total

    def union(self, other: "FiniteUnion") -> "FiniteUnion":
        return FiniteUnion(list(self.intervals) + list(other.intervals),
                           list(self.points) + list(other.points))

    def intersect(self, lo, hi) -> "FiniteUnion":
        """Intersection with a bounded interval (lo, hi)."""
        lo, hi = ExactNumber.coerce(lo), ExactNumber.coerce(hi)
        ivs = []
        for a, b in self.intervals:
            c = a if a > lo else lo
            d = b if b < hi else hi
            if c < d:
                ivs.append((c, d))
        pts = [p for p in self.points if lo < p < hi]
        return FiniteUnion(ivs, pts)


def outer_measure(X: FiniteUnion) -> ExactNumber:
    return X.measure()


@dataclass(frozen=True)
class SubadditivityReport:
    mu_union: ExactNumber
    mu_sum: ExactNumber
    slack: ExactNumber
    holds: bool


def subadditivity_check(parts: Sequence[FiniteUnion]) -> SubadditivityReport:
    """Measure of the union against the sum of measures, with exact slack."""
    union = FiniteUnion()
    total = ExactNumber(0)
    for part in parts:
        union = union.union(part)
        total = total + part.measure()
    mu = union.measure()
    return SubadditivityReport(mu_union=mu, mu_sum=total,
                               slack=total - mu, holds=mu <= total)


@dataclass(frozen=True)
class ProbeResult:
    probe: Interval
    mu_inside: ExactNumber
    threshold: ExactNumber
    hypothesis_holds: bool


@dataclass(frozen=True)
class LocalNullReport:
    probes: tuple[ProbeResult, ...]
    violator: Optional[Interval]
    measure_zero: bool


def local_null_check(X: FiniteUnion, delta, probes: Sequence[Interval]
                     ) -> LocalNullReport:
    """Check mu(X within I) <= delta * |I| on each probe, and search for a
    refinement interval that violates it.

    Any set of positive measure contains a component interval on which the
    inequality fails outright (there the intersection is the whole probe),
    so the search returns such a component; a set of measure zero admits no
    violator.  That is the finite, contrapositive shape of the statement
    "locally delta-thin implies null".
    """
    delta = ExactNumber.coerce(delta)
    if delta.sign() < 0 or delta.compare(1) >= 0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    if not probes:
        raise ValueError("need at least one probe interval")
    results = []
    for probe in probes:
        inside = X.intersect(probe.lo, probe.hi).measure()
        threshold = delta * probe.width()
        results.append(ProbeResult(probe=probe, mu_inside=inside,
                                   threshold=threshold,
                                   hypothesis_holds=inside <= threshold))
    violator = None
    best = None
    for lo, hi in X.intervals:
        width = hi - lo
        if best is None or width > best:
            best = width
            violator = Interval(lo, hi)
    measure_zero = X.measure().sign() == 0
    if violator is not None:
        inside = X.intersect(violator.lo, violator.hi).measure()
        assert inside > delta * violator.width(), "component must violate"
        assert not measure_zero
    return LocalNullReport(probes=tuple(results), violator=violator,
                           measure_zero=measure_zero)
