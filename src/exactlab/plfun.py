"""Piecewise-linear functions with jump discontinuities, exactly represented.

A function is a sorted list of breakpoints, each carrying a left limit and
a right limit; between consecutive breakpoints the graph is the segment
from one right limit to the next left limit.  Evaluation at a breakpoint
returns the right limit (at the domain's right end that slot simply holds
the value).  First and last breakpoints are the domain.

``CantorStaircase`` answers the same point queries for the middle-thirds
staircase from its self-similarity, and lists its breakpoint abscissae
only when a survey first reads them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import OutOfDomain
from .qnum import ONE, ZERO, ExactNumber, exact


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
    shared limit once and keeps it shared.  The monotonicity test and the
    rising sun skip the compare of two limits that are one object; equal
    limits held by two objects are still continuous, only compared.

    ``cantor_staircase`` spells out the staircase that
    :class:`CantorStaircase` reads from its self-similarity, and stands as
    its reference.
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

        Its abscissae are ``CantorStaircase(depth).breakpoints``, and
        breakpoint j takes the value ((j + 1) // 2) / 2^depth, since each
        even piece rises by 2^-depth and each odd one is flat.
        """
        yden = 2 ** depth
        pts = []
        for j, x in enumerate(CantorStaircase(depth).breakpoints):
            value = ExactNumber._raw((j + 1) // 2, 0, yden, 0)
            pts.append(Breakpoint(x, value, value))
        return cls(pts)

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


class CantorStaircase:
    """The depth-N middle-thirds staircase C_N on [0, 1], the function that
    ``PLFunction.cantor_staircase(N)`` spells out, read from its
    self-similarity instead of its 2^(N+1) breakpoints.

    C_N rises at ``slope`` = (3/2)^N across each of the 2^N triadic
    intervals of level N and is flat on every middle third removed above
    them; it has no jumps.  On a triadic node of level k, C_N is an affine
    copy of C_(N-k), its values scaled by 2^-k and its abscissae by 3^-k.
    A point query reads x's first N ternary digits in one loop, so it
    costs O(N) digit steps (see ``_read``).

    ``breakpoints``, the 2^(N+1) abscissae k/3^N in order, is filled on
    first read, for the mesh survey; piece i between breakpoints i and
    i + 1 rises when i is even and is flat when i is odd.  Nothing else is
    kept, and two threads that fill the tuple at once build equal ones, so
    one object serves any number of threads.
    """

    __slots__ = ("depth", "slope", "breakpoints")

    domain = (ZERO, ONE)

    def __init__(self, depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        object.__setattr__(self, "depth", depth)
        # (3/2)^N, the slope of every rising piece
        object.__setattr__(self, "slope",
                           ExactNumber._raw(3 ** depth, 0, 2 ** depth, 0))

    def __setattr__(self, name, value):
        raise AttributeError("CantorStaircase is immutable")

    def __getattr__(self, name):
        # called only while a slot is unset: ``breakpoints`` is filled here
        # on first read, and later reads find it in its slot
        if name != "breakpoints":
            raise AttributeError(name)
        # stage k+1 is stage k followed by stage k shifted by 2*3^k
        nums = [0, 1]
        for k in range(self.depth):
            shift = 2 * 3 ** k
            nums += [shift + x for x in nums]
        den = 3 ** self.depth
        xs = tuple(ExactNumber._raw(x, 0, den, 0) for x in nums)
        object.__setattr__(self, "breakpoints", xs)
        return xs

    def _read(self, x: ExactNumber):
        """(C_N(x), left, right) for x in [0, 1], where a side is True on a
        rising piece, False on a flat one and None past the domain's end.

        One loop reads the N ternary digits of floor(3^N x), most
        significant first: a rational x = p/den enters by divmod(p 3^N,
        den) in ints, an irrational one by one floor of 3^N x, and each
        digit 2 read adds its binary weight to 2^N C_N(x).  The first digit
        1 puts x on a flat piece, on its left end when nothing but zeros
        follows; N digits without one put x on a rising piece, on its left
        end (a flat piece's right end) when the remainder is zero, which
        only a rational leaves.
        """
        n = self.depth
        if x.q == 0:
            if x.p == 0:
                return ZERO, None, True
            if x.p == x.den:
                return ONE, True, None
            whole, rest = divmod(x.p * 3 ** n, x.den)
        else:
            scaled = x * 3 ** n
            whole = scaled.floor()
            rest = None
        digits, unit, y = whole, 3 ** n, 0
        for k in range(n):
            unit //= 3
            digit, digits = divmod(digits, unit)
            if digit == 1:
                value = ExactNumber._raw(y + (1 << (n - k - 1)), 0, 1 << n, 0)
                return value, digits == 0 and rest == 0, False
            if digit == 2:
                y += 1 << (n - k - 1)
        if rest == 0:
            return ExactNumber._raw(y, 0, 1 << n, 0), False, True
        if rest is None:
            return (scaled - whole + y) / (1 << n), True, True
        return ExactNumber._raw(y * x.den + rest, 0, x.den << n, 0), True, True

    def _checked(self, x) -> ExactNumber:
        x = ExactNumber.coerce(x)
        if x < 0 or x > 1:
            raise OutOfDomain(f"{x} outside [0, 1]")
        return x

    def eval(self, x) -> ExactNumber:
        return self._read(self._checked(x))[0]

    # continuous: the value is both limits wherever they exist
    __call__ = right_limit_or_value = eval

    def left_limit(self, x) -> ExactNumber:
        x = self._checked(x)
        if x.sign() == 0:
            raise OutOfDomain("no left limit at the domain minimum")
        return self._read(x)[0]

    def right_limit(self, x) -> ExactNumber:
        x = ExactNumber.coerce(x)
        if x == 1:
            raise OutOfDomain("no right limit at the domain maximum")
        return self._read(self._checked(x))[0]

    def slopes(self, x: ExactNumber) -> tuple[ExactNumber, ExactNumber]:
        """The slopes left and right of an x inside (0, 1): (3/2)^N on a
        rising piece, 0 on a flat one."""
        _, left, right = self._read(x)
        rise = self.slope if left or right else ZERO
        return (rise if left else ZERO), (rise if right else ZERO)

    def is_nondecreasing(self) -> bool:
        # every piece rises at ``slope`` or is flat, and no breakpoint jumps
        return self.slope.sign() >= 0

    def __repr__(self) -> str:
        return f"CantorStaircase(depth {self.depth})"
