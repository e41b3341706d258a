"""Exact analysis of piecewise-linear functions: discontinuity sets, Dini
derivatives, the rising-sun decomposition with its length bound, monotone
inverses, and a mesh-scale differentiability survey.

Everything is decided with exact arithmetic: the rising-sun set of a PL
function is a finite union of open intervals whose endpoints solve linear
equations, so the classical inequalities are verified with zero tolerance.

``dini``, ``rising_sun`` and ``sun_measure_bound`` also take a
:class:`~exactlab.plfun.CantorStaircase`, which they answer from its
self-similarity without listing its breakpoints.  The rising sun is
assembled in one place, :class:`_Walk`: a PL function feeds it its pieces
and breakpoints right to left, and the staircase's node walk the middle
thirds, leaves and points that its node rules do not settle.
``differentiability_report`` takes one too: it surveys the staircase's
breakpoint abscissae and reads each piece's Dini values off its parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import cycle
from math import lcm
from typing import NamedTuple, Optional, Union

from .errors import (
    CapExceeded,
    NotMonotone,
    NotStrictlyIncreasing,
    OutOfDomain,
    VerificationError,
)
from .dsets import ValueSet
from .plfun import CantorStaircase, PLFunction
from .qnum import ZERO, ExactNumber


class _Infinity(Enum):
    POS = 1
    NEG = -1

    def __repr__(self) -> str:
        return "+inf" if self is _Infinity.POS else "-inf"

    __str__ = __repr__


POS_INF = _Infinity.POS
NEG_INF = _Infinity.NEG

DiniValue = Union[ExactNumber, _Infinity]


def is_finite(v: DiniValue) -> bool:
    return isinstance(v, ExactNumber)


# -- discontinuities ---------------------------------------------------------

def jump_points(f: PLFunction, threshold) -> ValueSet:
    """Breakpoints of a monotone function whose jump exceeds the threshold.

    The family is nested: a larger threshold keeps a subset.
    """
    threshold = ExactNumber.coerce(threshold)
    if threshold.sign() <= 0:
        raise ValueError("threshold must be positive")
    if not f.is_nondecreasing():
        raise NotMonotone("jump_points needs a nondecreasing function")
    return ValueSet(p.x for p in f.points if p.right - p.left > threshold)


# -- Dini derivatives ---------------------------------------------------------

@dataclass(frozen=True)
class DiniValues:
    lower_left: DiniValue
    upper_left: DiniValue
    lower_right: DiniValue
    upper_right: DiniValue

    def as_tuple(self):
        return (self.lower_left, self.upper_left,
                self.lower_right, self.upper_right)

    def all_equal_finite(self) -> bool:
        first = self.lower_left
        return (is_finite(first) and self.upper_left == first
                and self.lower_right == first and self.upper_right == first)


def dini(f: Union[PLFunction, CantorStaircase], x) -> DiniValues:
    """The four one-sided extreme difference quotients at an interior point.

    Exact for PL functions: off breakpoints all four equal the piece slope;
    at a continuous breakpoint the pairs are the two adjacent slopes; at a
    jump the left pair is infinite with the sign the jump forces (the value
    at a breakpoint is its right limit, so the right pair stays finite).
    A staircase has no jumps and reads its two slopes off x's digits.
    """
    x = ExactNumber.coerce(x)
    a, b = f.domain
    if not a < x < b:
        raise OutOfDomain(f"{x} is not interior to [{a}, {b}]")
    if isinstance(f, CantorStaircase):
        left, right = f.slopes(x)
        return DiniValues(left, left, right, right)
    return _dini_on_piece(f, f._locate(x), x)


def _dini_on_piece(f: Union[PLFunction, CantorStaircase], i: int,
                   x: ExactNumber) -> DiniValues:
    """:func:`dini` at an interior x on piece i, breakpoints[i] <= x <
    breakpoints[i + 1], for callers that already know the piece."""
    if isinstance(f, CantorStaircase):
        # even pieces rise, odd ones are flat, and nothing jumps
        right, left = (ZERO, f.slope) if i & 1 else (f.slope, ZERO)
        if f.breakpoints[i] != x:
            return DiniValues(right, right, right, right)
        return DiniValues(left, left, right, right)
    p = f.points[i]
    if p.x != x:
        s = f.slope(i)
        return DiniValues(s, s, s, s)
    right_slope = f.slope(i)
    if p.left == p.right:
        left_slope = f.slope(i - 1)
        return DiniValues(left_slope, left_slope, right_slope, right_slope)
    inf = POS_INF if p.right > p.left else NEG_INF
    return DiniValues(inf, inf, right_slope, right_slope)


# -- rising sun ---------------------------------------------------------------

@dataclass(frozen=True)
class ShadowCheck:
    start: ExactNumber            # left end a' of a maximal component
    end: ExactNumber              # right end b'
    entry_limit: ExactNumber      # right limit of g at a'
    roof: ExactNumber             # G(b')
    holds: bool                   # entry_limit <= roof


@dataclass(frozen=True)
class SunResult:
    components: tuple[tuple[ExactNumber, ExactNumber], ...]
    shadows: tuple[ShadowCheck, ...]

    def measure(self) -> ExactNumber:
        return _total_width(self.components)


def _total_width(components) -> ExactNumber:
    total = ZERO
    for lo, hi in components:
        total = total + (hi - lo)
    return total


def _roof(g: Union[PLFunction, CantorStaircase],
          x: ExactNumber) -> ExactNumber:
    """max of the value and the two-sided limit superior at x, for x > a:
    a staircase has no jumps, so there it is the value, read once."""
    if isinstance(g, CantorStaircase):
        return g.eval(x)
    left = g.left_limit(x)
    right = g.right_limit_or_value(x)
    return left if left > right else right


def rising_sun(g: Union[PLFunction, CantorStaircase]) -> SunResult:
    """The open set of points from which some later point of g is strictly
    higher, as maximal components, each with its verified entry inequality.

    The components come from :func:`_sun`; each one's entry and roof come
    from g's own point queries.
    """
    components = _sun(g, ZERO)
    shadows = []
    for lo, hi in components:
        entry = g.right_limit(lo)
        roof = _roof(g, hi)
        shadows.append(ShadowCheck(start=lo, end=hi, entry_limit=entry,
                                   roof=roof, holds=entry <= roof))
    return SunResult(components=components, shadows=tuple(shadows))


def _sun(f: Union[PLFunction, CantorStaircase],
         c: ExactNumber) -> tuple[tuple[ExactNumber, ExactNumber], ...]:
    """The rising sun's components of g(x) = f(x) - c x.

    A PL function feeds its pieces and breakpoints to one :class:`_Walk`,
    right to left in one pass, each limit less c x and each slope less c,
    with no intermediate function; a staircase is walked node by node
    (:class:`StaircaseSun`), which feeds the walker what it does not
    settle whole.
    """
    if isinstance(f, CantorStaircase):
        return StaircaseSun(f, c).components
    if c.sign() == 0:
        def limits(p):
            return p.left, p.right
        slope = f.slope
    else:
        def limits(p):
            # a shared limit stays shared, so the walker skips its compare
            shift = c * p.x
            right = p.right - shift
            return (right if p.left is p.right else p.left - shift), right

        def slope(i):
            return f.slope(i) - c
    pts = f.points
    walk = _Walk()
    q = pts[-1]
    q_left, q_right = limits(q)
    # the domain's end is in no open set: its limits only start the ceiling
    walk.point(q.x, q_left, q_right)
    for i in range(len(pts) - 2, -1, -1):
        p = pts[i]
        left, right = limits(p)
        walk.piece(p.x, q.x, right, q_left, slope, i)
        if i:
            walk.point(p.x, left, right)
        q, q_left = p, left
    return walk.components()


class _Walk:
    """The rising sun's assembly.  It is fed the parts of g from right to
    left, and carries the ceiling, the exact sup of g to the right of where
    it stands (None before the first part).

    A linear piece, fed once the ceiling covers g at its right end, lies in
    the set where g is under the ceiling: none of it, all of it, or the
    part on its low side of the one crossing, the only place a piece is
    divided.  A breakpoint is in the set, and glues the parts on its two
    sides into one component, exactly when the ceiling exceeds both of its
    limits; a continuous one, whose limits are one object, costs one
    compare.  The ceiling is raised by assignment, with no compare: a piece
    or breakpoint not wholly in the set reaches it, so its top is the new
    ceiling.
    """

    __slots__ = ("ceiling", "glue", "current", "found")

    def __init__(self):
        self.ceiling: Optional[ExactNumber] = None
        self.glue = False           # the point just fed lies in the set
        self.current: Optional[tuple[ExactNumber, ExactNumber]] = None
        self.found: list[tuple[ExactNumber, ExactNumber]] = []

    def piece(self, x0: ExactNumber, x1: ExactNumber, v0: ExactNumber,
              v1: ExactNumber, slope, key) -> None:
        """g runs from v0 at x0 to v1 at x1, and the ceiling is at least
        v1; ``slope(key)``, g's slope there, is asked for only at a
        crossing."""
        c = self.ceiling
        rising = v0 < v1
        low, high = (v0, v1) if rising else (v1, v0)
        if c <= low:
            assert not self.glue, \
                "a point of the set must have the set on its left"
            self.ceiling = high
        elif c >= high:
            self.add(x0, x1)
        else:
            assert not rising, "a rising piece ends at v1 <= the ceiling"
            crossing = x0 + (c - v0) / slope(key)
            self.ceiling = high
            self.add(crossing, x1)

    def point(self, x: ExactNumber, left: ExactNumber,
              right: ExactNumber) -> None:
        """A breakpoint at x with these two limits, fed after the part on
        its right."""
        top = left
        if right is not left and right > left:
            top = right
        c = self.ceiling
        if c is not None and c > top:
            assert self.current is not None and self.current[0] == x, \
                "a point of the set must have the set on its right"
            self.glue = True
        else:
            self.ceiling = top

    def add(self, lo: ExactNumber, hi: ExactNumber) -> None:
        """The part (lo, hi) of the set, left of every part added before
        it."""
        assert lo < hi, "components of an open set have positive width"
        if self.glue:
            assert hi == self.current[0]
            self.current = (lo, self.current[1])
            self.glue = False
        else:
            if self.current is not None:
                self.found.append(self.current)
            self.current = (lo, hi)

    def components(self) -> tuple[tuple[ExactNumber, ExactNumber], ...]:
        if self.current is not None:
            self.found.append(self.current)
        return tuple(reversed(self.found))


class StaircaseSun:
    """The rising sun of g(x) = C_N(x) - c x on [0, 1], for a staircase C_N
    and a slope c >= 0, by a right-to-left walk over triadic nodes.

    On a node of level k starting at L, g is g(L) plus a copy of the
    level's own shape, C_(N-k)(y) - c (2/3)^k y scaled by 2^-k, so each
    level keeps, relative to g(L): the sup ``hi`` and inf ``lo`` of g on
    the node; ``at``, the one end (0 or 1) where the sup is reached if it
    is reached nowhere else, or None; and ``own``, the components of the
    node's rising sun with nothing to its right.  (The sup is never reached
    at both ends alone: that needs both children to reach it, and then the
    right child reaches it at its start, inside the node.)

    The walk keeps only the node rules, and hands the rest to a
    :class:`_Walk`, whose ceiling is the exact sup of g to the right.  A
    node is settled whole when the ceiling tops its sup, or meets it while
    the sup is reached only at an end (the open node lies in the set); it
    is settled as the level's ``own``, shifted, when the ceiling is at or
    below its inf, or when nothing lies to its right.  Any other node
    splits into its right child, its middle third, on which g falls at
    slope c, and its left child, taken in that order, with the points
    between them; a leaf, on which g is linear, goes to the walker as a
    piece, as the middle thirds and the points do.  The walk is an
    explicit stack, so a deep staircase takes no recursion.

    ``own`` at level k is that walk started at a split of a level-k node
    with no ceiling: its right child is then settled by ``own`` at level
    k + 1, so the levels are filled from N up, and the sun is ``own`` at
    level 0.  Every pruning is an exact compare, so the components are
    the explicit staircase's.  ``nodes`` counts the nodes visited: it
    grows with the number of components, not with the 2^N leaves.
    """

    def __init__(self, f: CantorStaircase, c: ExactNumber):
        n = f.depth
        self.nodes = 0
        half = [ExactNumber._raw(1, 0, 1 << k, 0) for k in range(n + 1)]
        third = [ExactNumber._raw(1, 0, 3 ** k, 0) for k in range(n + 1)]
        self._width = third
        # g(right end) - g(left end) of a level-k node
        self._end = [half[k] - c * third[k] for k in range(n + 1)]
        # g(start of the right child) - g(left end) of a level-k node
        self._rho = [half[k + 1] - c * third[k + 1] * 2 for k in range(n)]
        # g's slope on a leaf (key 0) and on a middle third (key 1)
        self._slope = (f.slope - c, -c).__getitem__
        rise = self._end[n]
        rises = rise.sign()
        hi, lo, at = [None] * (n + 1), [None] * (n + 1), [None] * (n + 1)
        hi[n], lo[n] = (rise, ZERO) if rises > 0 else (ZERO, rise)
        at[n] = None if rises == 0 else 1 if rises > 0 else 0
        for k in range(n - 1, -1, -1):
            rho = self._rho[k]
            side = rho.sign()
            # the sup is the higher child's: the right one's when rho > 0,
            # whose end 1 is the node's and whose end 0 lies inside it
            if side > 0:
                hi[k], lo[k] = hi[k + 1] + rho, lo[k + 1]
                at[k] = 1 if at[k + 1] == 1 else None
            elif side < 0:
                hi[k], lo[k] = hi[k + 1], lo[k + 1] + rho
                at[k] = 0 if at[k + 1] == 0 else None
            else:
                hi[k], lo[k] = hi[k + 1], lo[k + 1]
        self._hi, self._lo, self._at = hi, lo, at
        self._depth = n
        self._own: list = [None] * (n + 1)
        # a leaf's own sun: all of it when g rises there, else nothing
        self.nodes += 1
        self._own[n] = ((ZERO, third[n]),) if rises > 0 else ()
        for k in range(n - 1, -1, -1):
            self._own[k] = self._walk(k)
        self.components = self._own[0]

    def _walk(self, k: int) -> tuple[tuple[ExactNumber, ExactNumber], ...]:
        """``own`` at level k, from ``own`` at the levels below it."""
        n, width, own = self._depth, self._width, self._own
        hi, lo, at = self._hi, self._lo, self._at
        walk = _Walk()
        stack: list = []
        self.nodes += 1
        self._split(k, ZERO, ZERO, walk, stack)
        while stack:
            task = stack.pop()
            if len(task) == 2:
                task[0](*task[1])   # a middle third or a point between parts
                continue
            j, start, base = task
            self.nodes += 1
            ceiling = walk.ceiling
            if j == n and ceiling is not None:
                walk.piece(start, start + width[n], base,
                           base + self._end[n], self._slope, 0)
                continue
            top = base + hi[j]
            if ceiling is not None and (
                    ceiling > top or ceiling == top and at[j] is not None):
                walk.add(start, start + width[j])
            elif ceiling is None or ceiling <= base + lo[j]:
                for u, v in reversed(own[j]):
                    walk.add(start + u, start + v)
                walk.ceiling = top
            else:
                self._split(j, start, base, walk, stack)
        return walk.components()

    def _split(self, j: int, start: ExactNumber, base: ExactNumber,
               walk: _Walk, stack: list) -> None:
        """Push a level-j node's parts, so that its right child comes off
        the stack first and its left child last: a child as (level, start,
        g at its start), the rest as a walker step and its arguments."""
        w = self._width[j + 1]
        x0 = start + w
        x1 = x0 + w
        v0 = base + self._end[j + 1]
        v1 = base + self._rho[j]
        stack += ((j + 1, start, base), (walk.point, (x0, v0, v0)),
                  (walk.piece, (x0, x1, v0, v1, self._slope, 1)),
                  (walk.point, (x1, v1, v1)), (j + 1, x1, v1))


@dataclass(frozen=True)
class ComponentBound:
    start: ExactNumber
    end: ExactNumber
    scaled_width: ExactNumber     # c * (end - start)
    rise: ExactNumber             # f(end+) - f(start+)
    holds: bool


@dataclass(frozen=True)
class SunBoundResult:
    components: tuple[tuple[ExactNumber, ExactNumber], ...]
    mu: ExactNumber
    bound: ExactNumber
    per_component: tuple[ComponentBound, ...]
    holds: bool


def sun_measure_bound(f: Union[PLFunction, CantorStaircase],
                      c) -> SunBoundResult:
    """Rising-sun length bound for a nondecreasing f and a slope c > 0.

    Finds the rising sun of f(x) - c x by :func:`_sun`; the total length
    of the components is at most (f(b) - f(a)) / c, and each component
    separately satisfies c * width <= rise of f across it, read by f's own
    point queries.  Both checked exactly.
    """
    c = ExactNumber.coerce(c)
    if c.sign() <= 0:
        raise ValueError("c must be positive")
    if not f.is_nondecreasing():
        raise NotMonotone("sun_measure_bound needs a nondecreasing function")
    components = _sun(f, c)
    a, b = f.domain
    bound = (f.eval(b) - f.eval(a)) / c
    mu = _total_width(components)
    per = []
    for lo, hi in components:
        width = hi - lo
        rise = f.right_limit_or_value(hi) - f.right_limit_or_value(lo)
        per.append(ComponentBound(start=lo, end=hi,
                                  scaled_width=c * width, rise=rise,
                                  holds=c * width <= rise))
    result = SunBoundResult(components=components, mu=mu, bound=bound,
                            per_component=tuple(per),
                            holds=mu <= bound and all(p.holds for p in per))
    if not result.holds:
        raise VerificationError(
            f"rising-sun bound failed: mu = {mu}, bound = {bound}")
    return result


# -- monotone inverse -----------------------------------------------------------

def monotone_inverse(f: PLFunction) -> PLFunction:
    """Continuous nondecreasing inverse of a strictly increasing function:
    y -> sup of {t : f(t) <= y}.  Jumps of f become flat pieces.

    The round trip F(f(x)) = x is re-verified at every breakpoint and at
    piece midpoints before returning.
    """
    if not f.is_strictly_increasing():
        raise NotStrictlyIncreasing("monotone_inverse needs strict increase")
    ypts: list[tuple[ExactNumber, ExactNumber, ExactNumber]] = []
    for p in f.points:
        if p.left == p.right:
            ypts.append((p.right, p.x, p.x))
        else:
            ypts.append((p.left, p.x, p.x))
            ypts.append((p.right, p.x, p.x))
    inverse = PLFunction(ypts)
    assert all(q.left == q.right for q in inverse.points), \
        "inverse must be continuous"
    assert inverse.is_nondecreasing()
    probes = list(f.breakpoints)
    for p, q in zip(f.points, f.points[1:]):
        probes.append((p.x + q.x) / 2)
    for x in probes:
        if inverse.eval(f.eval(x)) != x:
            raise VerificationError(f"inverse round trip failed at {x}")
    return inverse


# -- differentiability survey ------------------------------------------------------

# the survey's cells walk integers over L unless L has more than this many
# times the bits of the widest denominator it is the lcm of: each integer
# cell reduces two values by a gcd with L, where a cell over exact values
# pays a few small adds and compares, and the two costs meet near L of a
# thousand bits for denominators of 10 to 40 bits
_LONG_SCALE = 32


# a survey builds one record per cell, so the records are named tuples,
# built by one tuple allocation where a frozen dataclass sets each field
class CellReport(NamedTuple):
    lo: ExactNumber
    hi: ExactNumber
    witness: ExactNumber
    derivative: ExactNumber


class NonDiffPoint(NamedTuple):
    x: ExactNumber
    values: DiniValues


@dataclass(frozen=True)
class DifferentiabilityReport:
    mesh: ExactNumber
    cells: tuple[CellReport, ...]
    nondifferentiable: tuple[NonDiffPoint, ...]
    all_cells_pass: bool


def differentiability_report(f: Union[PLFunction, CantorStaircase], mesh,
                             cap: Optional[int] = None) -> DifferentiabilityReport:
    """Split the domain into mesh-width cells and exhibit, in each, a point
    where all four Dini derivatives agree and are finite.

    For a PL function the witnesses always exist (breakpoints are finite),
    so the survey doubles as an exact certificate; interior points where
    the four values disagree are listed separately.

    The survey runs over its ``ceil((b - a)/mesh)`` cells, counted by the
    one floor the cap check reads; each cell starts where the last one
    ended, at ``a + mesh * k`` exactly, and only the last can be cut short
    by ``b``.  A cursor into ``f.breakpoints`` holds the first breakpoint
    above the cell's ``lo``, so a cell that ends below it has no breakpoint
    inside: that one compare settles it, on the piece under ``lo``, with
    witness ``lo + mesh/2``.  Any other cell walks a second cursor forward
    to the first breakpoint at or above its ``hi``; the breakpoints between
    the two are the cell's interior ones, the widest gap between them names
    the witness's piece and its midpoint (``(lo + hi)/2`` for a last cell
    that ``b`` cuts short), and the second cursor, stepped past a
    breakpoint at ``hi`` by one equality test, is the next cell's first.
    So the walk is O(cells + n) for n breakpoints.  Every cell checks that
    its witness lies strictly inside the piece it names.  There all four
    Dini values are the piece's slope, so each piece's values are read
    (from ``f``'s slope memo, or for a staircase off the piece's parity),
    and checked to agree, at its first witness only, and its later cells
    reuse them.

    When the mesh and every breakpoint are rational, the walk runs on
    integers: with L twice the least common multiple of their
    denominators, each edge, breakpoint and midpoint x is the integer
    x*L (every edge and breakpoint an even one, so a midpoint divides
    exactly), and the cells' adds, compares and equality tests are plain
    ``int`` ones.  Each cell then builds two values, its ``hi`` (the next
    cell's ``lo``) and its witness, and compares none: a survey costs the
    cap check's one division, an ``lcm`` over the denominators and a
    product per breakpoint.  Each of those values reduces by a gcd with L,
    so when L has more than ``_LONG_SCALE`` times the bits of the widest
    denominator, as many large coprime ones make it, the walk runs over
    the exact values themselves, as it does for an irrational mesh or
    breakpoint, at about three compares per cell.  The report is the same
    on either walk.

    Each cell is one :class:`CellReport`, a named tuple: its ``lo`` is
    the previous cell's ``hi`` object, and its ``derivative`` is one
    object shared by every cell on its piece, so a renderer can write the
    text of each once.  On a staircase the interior breakpoints' Dini
    values take two shapes, by the parity of the piece on the right, and
    their rows share one object per shape.
    With ``cap`` given, a survey of more than ``cap`` cells raises
    ``CapExceeded`` before any cell is built.
    """
    mesh = ExactNumber.coerce(mesh)
    if mesh.sign() <= 0:
        raise ValueError("mesh must be positive")
    a, b = f.domain
    count = -((a - b) / mesh).floor()  # ceil((b - a) / mesh)
    if cap is not None and count > cap:
        raise CapExceeded(f"{count} cells exceed cap {cap}")
    xs = f.breakpoints
    scale = None
    if mesh.q == 0 and all(x.q == 0 for x in xs):
        dens = [mesh.den, *(x.den for x in xs)]
        scale = 2 * lcm(*dens)
        if scale.bit_length() > _LONG_SCALE * max(dens).bit_length():
            scale = None
    if scale is not None:
        # x -> x*L: every mark is even, so each midpoint is an integer
        marks = [x.p * (scale // x.den) for x in xs]
        step = mesh.p * (scale // mesh.den)
        half = step // 2

        def middle(u, v):
            return (u + v) // 2

        def exact(n):
            return ExactNumber._raw(n, 0, scale, 0)
    else:
        marks, step, half = xs, mesh, mesh / 2

        def middle(u, v):
            return (u + v) / 2

        def exact(v):
            return v
    # piece k -> its Dini values, once a witness on it has passed the check
    piece_values: list[Optional[DiniValues]] = [None] * (len(xs) - 1)
    cells = []
    last = count - 1
    lo, lo_value, b_mark = marks[0], a, marks[-1]
    # marks[i] is the first breakpoint above lo; every cell has lo < b and
    # hi <= b, so no cursor runs off, and every cell but the last ends
    # below b
    i = 1
    for n in range(count):
        end = lo + step
        cut = n == last and b_mark < end
        hi = b_mark if cut else end
        if end < marks[i]:
            # nothing inside, and lo lies on piece i - 1
            witness, k = lo + half, i - 1
        else:
            j = i
            while marks[j] < hi:
                j += 1
            if i == j:
                # no interior breakpoint: the cell is its own widest gap, on
                # piece i - 1
                witness = middle(lo, hi) if cut else lo + half
                k = i - 1
            else:
                edges = [lo, *marks[i:j], hi]
                best, width = None, None
                for g, (u, v) in enumerate(zip(edges, edges[1:])):
                    gap = v - u
                    if best is None or gap > width:
                        best, width = g, gap
                witness = middle(edges[best], edges[best + 1])
                # the widest gap lies on piece k: edges[g] is marks[i + g - 1]
                # for g >= 1, and lo lies on piece i - 1
                k = i - 1 + best
            # marks[j] >= hi, so the next cell's first breakpoint is marks[j]
            # or, when that is its lo, the one after
            i = j + 1 if marks[j] == end else j
        hi_value = exact(hi)
        witness_value = exact(witness)
        values = None
        if marks[k] < witness < marks[k + 1]:
            values = piece_values[k]
            if values is None:
                values = _dini_on_piece(f, k, witness_value)
                if not values.all_equal_finite():
                    values = None
                piece_values[k] = values
        if values is None:
            raise VerificationError(
                f"cell [{lo_value}, {hi_value}] witness {witness_value} is "
                f"not a point of differentiability")
        cells.append(CellReport(lo_value, hi_value, witness_value,
                                values.lower_left))
        lo, lo_value = end, hi_value
    inner = xs[1:-1]
    if isinstance(f, CantorStaircase):
        # a breakpoint's values hang on its piece's parity alone: the first
        # two breakpoints decide them, each once, and every row of one
        # parity shares that object (None where the four values agree)
        shapes = [_dini_on_piece(f, k, xs[k])
                  for k in range(1, min(len(inner), 2) + 1)]
        shapes = [None if v.all_equal_finite() else v for v in shapes]
        bad = [NonDiffPoint(x, values)
               for x, values in zip(inner, cycle(shapes))
               if values is not None]
    else:
        bad = []
        for k, x in enumerate(inner, 1):
            values = _dini_on_piece(f, k, x)
            if not values.all_equal_finite():
                bad.append(NonDiffPoint(x, values))
    return DifferentiabilityReport(mesh=mesh, cells=tuple(cells),
                                   nondifferentiable=tuple(bad),
                                   all_cells_pass=True)


# -- factorial power series ---------------------------------------------------------

@dataclass(frozen=True)
class SeriesCheck:
    order: int
    coefficients: tuple[int, ...]   # a_1 .. a_order, with a_n = (n-1)!
    holds: bool


def factorial_series_check(order: int) -> SeriesCheck:
    """Verify coefficientwise, up to the given order, that the power series
    with a_n = (n-1)! solves f(x) = x^2 f'(x) + x with f(0) = 0, f'(0) = 1.

    The right side has [x^1] = 1 from the bare x, and
    [x^m] = (m-1) * a_{m-1} for m >= 2; both must reproduce a_m.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [1]                 # a_1 = 0! = 1
    for n in range(2, order + 1):
        coeffs.append(coeffs[-1] * (n - 1))
    if coeffs[0] != 1:
        raise VerificationError("a_1 must be 1")
    for m in range(2, order + 1):
        lhs = coeffs[m - 1]
        rhs = (m - 1) * coeffs[m - 2]
        if lhs != rhs:
            raise VerificationError(f"identity fails at order {m}")
    return SeriesCheck(order=order, coefficients=tuple(coeffs), holds=True)
