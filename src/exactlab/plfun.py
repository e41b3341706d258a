"""Piecewise-linear functions with jump discontinuities, exactly represented.

A function is a sorted list of breakpoints, each carrying a left limit and
a right limit; between consecutive breakpoints the graph is the segment
from one right limit to the next left limit.  Evaluation at a breakpoint
returns the right limit (at the domain's right end that slot simply holds
the value).  First and last breakpoints are the domain.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import OutOfDomain
from .qnum import ExactNumber, exact

# The deepest staircase kept once built.  Depth k has 2^(k+1) breakpoints:
# depth 12 takes about 2.6 MiB (tracemalloc), and all depths up to it
# together about twice that.  The default budget admits depth 18, 64 times
# larger, which one ``sun --fn cantor:18`` would otherwise pin for the life
# of the process.  Deeper staircases are rebuilt on every call.
STAIRCASE_MEMO_DEPTH = 12

# depth -> the staircase built at that depth, shared by every caller
_staircases: dict[int, "PLFunction"] = {}


@dataclass(frozen=True)
class Breakpoint:
    x: ExactNumber
    left: ExactNumber   # limit from below (meaningless at the domain min)
    right: ExactNumber  # limit from above; also the value at the point


class PLFunction:
    """Exact piecewise-linear function on a closed interval.

    ``breakpoints`` is one sorted tuple of the breakpoint abscissae, built
    in the pass that checks strict increase; every positional query is a
    ``bisect`` on it, so locating a point costs O(log n) compares.  Each
    piece's slope is divided out at most once, on first use, into a
    per-piece memo; the function itself never changes.  The nondecreasing
    test and the rising sun compare a piece's two end values instead, and
    divide only at a piece the rising sun's ceiling crosses.

    A continuous breakpoint may hold one object for both limits, and the
    constructors make it so: an entry whose left and right are the same
    object is coerced once (``from_values``, ``linear``, ``step_function``
    and ``cantor_staircase`` all pass such entries, and the first
    breakpoint always shares its limits), and ``add_linear`` shifts a
    shared limit once and keeps it shared.  The sweeps skip the compare of
    two limits that are one object; equal limits held by two objects are
    still continuous, only compared.

    ``cantor_staircase`` builds each depth up to ``STAIRCASE_MEMO_DEPTH``
    once per process and hands every later caller the same object, its
    slope memo included; a deeper staircase is built afresh on each call.
    Each build runs the strict-increase check.  Sharing is safe across ops
    and threads because nothing changes a function but its slope memo, and
    each slot of that is only ever written with the same exact value.
    """

    __slots__ = ("points", "breakpoints", "_slopes")

    def __init__(self, points: Iterable):
        pts = []
        for entry in points:
            if isinstance(entry, Breakpoint):
                pts.append(entry)
            else:
                x, left, right = entry
                shared = right is left
                left = ExactNumber.coerce(left)
                right = left if shared else ExactNumber.coerce(right)
                pts.append(Breakpoint(ExactNumber.coerce(x), left, right))
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        xs = [pts[0].x]
        for p in pts[1:]:
            if xs[-1].compare(p.x) >= 0:
                raise ValueError("breakpoints must be strictly increasing")
            xs.append(p.x)
        first = pts[0]
        pts[0] = Breakpoint(first.x, first.right, first.right)
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "breakpoints", tuple(xs))
        object.__setattr__(self, "_slopes", [None] * (len(pts) - 1))

    def __setattr__(self, name, value):
        raise AttributeError("PLFunction is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_values(cls, pairs: Sequence) -> "PLFunction":
        """Continuous interpolant through (x, value) pairs."""
        return cls([(x, v, v) for x, v in pairs])

    @classmethod
    def linear(cls, a, b, slope, intercept=0) -> "PLFunction":
        a, b = ExactNumber.coerce(a), ExactNumber.coerce(b)
        slope = ExactNumber.coerce(slope)
        intercept = ExactNumber.coerce(intercept)
        return cls.from_values([(a, slope * a + intercept),
                                (b, slope * b + intercept)])

    @classmethod
    def constant(cls, a, b, value) -> "PLFunction":
        return cls.linear(a, b, 0, value)

    @classmethod
    def step_function(cls, a, b, jumps: Sequence, start=0) -> "PLFunction":
        """Flat function jumping by the given heights at the given points.

        ``jumps`` is a sequence of (x, height) with a < x <= b.
        """
        a, b = ExactNumber.coerce(a), ExactNumber.coerce(b)
        level = ExactNumber.coerce(start)
        pts = [(a, level, level)]
        for x, h in sorted((ExactNumber.coerce(x), ExactNumber.coerce(h))
                           for x, h in jumps):
            if not a < x <= b:
                raise ValueError(f"jump at {x} outside ({a}, {b}]")
            pts.append((x, level, level + h))
            level = level + h
        if pts[-1][0] != b:
            pts.append((b, level, level))
        return cls(pts)

    @classmethod
    def cantor_staircase(cls, depth: int) -> "PLFunction":
        """Finite middle-thirds staircase on [0, 1]: the depth-0 stage is the
        identity; each stage squeezes two half-size copies around a flat
        middle third.

        Built on integer numerators over 3^depth (abscissae) and 2^depth
        (values): stage k+1 is stage k followed by stage k shifted by 2*3^k
        and 2^k, so each breakpoint's numbers are made once, at the end.
        A depth up to ``STAIRCASE_MEMO_DEPTH`` is built once and shared.
        """
        if depth < 0:
            raise ValueError("depth must be >= 0")
        fn = _staircases.get(depth)
        if fn is not None:
            return fn
        xs, ys = [0, 1], [0, 1]
        for k in range(depth):
            shift_x, shift_y = 2 * 3 ** k, 2 ** k
            xs += [shift_x + x for x in xs]
            ys += [shift_y + y for y in ys]
        xden, yden = 3 ** depth, 2 ** depth
        pts = []
        for x, y in zip(xs, ys):
            value = ExactNumber._raw(y, 0, yden, 0)
            pts.append(Breakpoint(ExactNumber._raw(x, 0, xden, 0), value, value))
        fn = cls(pts)
        if depth <= STAIRCASE_MEMO_DEPTH:
            _staircases[depth] = fn
        return fn

    # -- basic queries ----------------------------------------------------

    @property
    def domain(self) -> tuple[ExactNumber, ExactNumber]:
        return (self.breakpoints[0], self.breakpoints[-1])

    def _locate(self, x: ExactNumber) -> int:
        """Largest index i with points[i].x <= x."""
        return bisect.bisect_right(self.breakpoints, x) - 1

    def _check_domain(self, x: ExactNumber) -> None:
        a, b = self.domain
        if x < a or x > b:
            raise OutOfDomain(f"{x} outside [{a}, {b}]")

    def slope(self, i: int) -> ExactNumber:
        """Slope of the piece between breakpoints i and i+1."""
        s = self._slopes[i]
        if s is None:
            p, q = self.points[i], self.points[i + 1]
            s = self._slopes[i] = (q.left - p.right) / (q.x - p.x)
        return s

    def _query(self, x, from_left: bool) -> ExactNumber:
        """The value at x, or at a breakpoint its left limit if asked for;
        every point query takes this path."""
        x = ExactNumber.coerce(x)
        self._check_domain(x)
        i = self._locate(x)
        p = self.points[i]
        if p.x != x:
            return p.right + self.slope(i) * (x - p.x)
        if not from_left:
            return p.right
        if i == 0:
            raise OutOfDomain("no left limit at the domain minimum")
        return p.left

    def eval(self, x) -> ExactNumber:
        return self._query(x, False)

    # the value at a breakpoint is its right limit, and at the domain
    # maximum the value itself
    __call__ = right_limit_or_value = eval

    def left_limit(self, x) -> ExactNumber:
        return self._query(x, True)

    def right_limit(self, x) -> ExactNumber:
        x = ExactNumber.coerce(x)
        if x == self.points[-1].x:
            raise OutOfDomain("no right limit at the domain maximum")
        return self._query(x, False)

    # -- shape predicates --------------------------------------------------

    def is_nondecreasing(self) -> bool:
        # a piece falls exactly when its end is below its start: widths are
        # positive, so this is the sign of its slope
        for p, q in zip(self.points, self.points[1:]):
            if q.left < p.right:
                return False
        for p in self.points:
            if p.right is not p.left and p.right < p.left:
                return False
        return True

    def is_strictly_increasing(self) -> bool:
        if not self.is_nondecreasing():
            return False
        return all(self.slope(i).sign() > 0
                   for i in range(len(self.points) - 1))

    # -- transforms ---------------------------------------------------------

    def add_linear(self, intercept, slope) -> "PLFunction":
        """Pointwise sum with ``intercept + slope * x``; a zero intercept
        is not added."""
        intercept = ExactNumber.coerce(intercept)
        slope = ExactNumber.coerce(slope)
        with_intercept = intercept.sign() != 0
        pts = []
        for p in self.points:
            shift = slope * p.x
            if with_intercept:
                shift = intercept + shift
            right = p.right + shift
            left = right if p.left is p.right else p.left + shift
            pts.append(Breakpoint(p.x, left, right))
        return PLFunction(pts)

    # -- text format ----------------------------------------------------------

    def to_text(self) -> str:
        a, b = self.domain
        lines = [f"domain {a} {b}"]
        for p in self.points:
            lines.append(f"{p.x} {p.left} {p.right}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "PLFunction":
        """Parse the line format: a ``domain a b`` header, then one
        ``x left right`` line per breakpoint."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("domain"):
            raise ValueError("missing 'domain a b' header")
        header = lines[0].split()
        if len(header) != 3:
            raise ValueError("domain header needs exactly two endpoints")
        a, b = exact(header[1]), exact(header[2])
        pts = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 3:
                raise ValueError(f"breakpoint line needs 3 fields: {ln!r}")
            pts.append(tuple(exact(t) for t in parts))
        fn = cls(pts)
        if fn.domain != (a, b):
            raise ValueError("breakpoints do not match the declared domain")
        return fn

    def __repr__(self) -> str:
        a, b = self.domain
        return f"PLFunction([{a}, {b}], {len(self.points)} breakpoints)"
