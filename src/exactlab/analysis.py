"""Exact analysis of piecewise-linear functions: discontinuity sets, Dini
derivatives, the rising-sun decomposition with its length bound, monotone
inverses, and a mesh-scale differentiability survey.

Everything is decided with exact arithmetic: the rising-sun set of a PL
function is a finite union of open intervals whose endpoints solve linear
equations, so the classical inequalities are verified with zero tolerance.

``dini``, ``rising_sun`` and ``sun_measure_bound`` also take a
:class:`~exactlab.plfun.CantorStaircase`, which they answer from its
self-similarity without listing its breakpoints.
``differentiability_report`` takes one too: it surveys the staircase's
breakpoint abscissae and reads each piece's Dini values off its parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Union

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


class _Infinity:
    __slots__ = ("sign",)

    def __init__(self, sign: int):
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def __repr__(self) -> str:
        return "+inf" if self.sign > 0 else "-inf"

    def __eq__(self, other):
        return isinstance(other, _Infinity) and other.sign == self.sign

    def __hash__(self):
        return hash(("inf", self.sign))


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)

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


def _roof(g: PLFunction, x: ExactNumber) -> ExactNumber:
    """max of the value and the two-sided limit superior at x, for x > a."""
    left = g.left_limit(x)
    right = g.right_limit_or_value(x)
    return left if left > right else right


def rising_sun(g: Union[PLFunction, CantorStaircase]) -> SunResult:
    """The open set of points from which some later point of g is strictly
    higher, as maximal components, each with its verified entry inequality.

    A PL function is swept breakpoint by breakpoint (``_sweep``); a
    staircase is walked node by node (:class:`StaircaseSun`).  Either way
    each component's entry and roof come from g's own point queries.
    """
    if isinstance(g, CantorStaircase):
        components = StaircaseSun(g, ZERO).components
    else:
        components = _sweep(g)
    shadows = []
    for lo, hi in components:
        assert lo < hi, "components of an open set have positive width"
        entry = g.right_limit(lo)
        roof = _roof(g, hi)
        shadows.append(ShadowCheck(start=lo, end=hi, entry_limit=entry,
                                   roof=roof, holds=entry <= roof))
    return SunResult(components=components, shadows=tuple(shadows))


def _sweep(g: PLFunction) -> tuple[tuple[ExactNumber, ExactNumber], ...]:
    """The rising sun's components by a right-to-left sweep carrying the
    supremum of g over the remaining interval.  Inside a piece the
    membership condition is a linear inequality: comparing that supremum
    with the piece's two end values settles it, and only a piece the
    supremum crosses divides out its crossing point.
    """
    pts = g.points
    n = len(pts) - 1
    # ceiling[i] = max of the limits of g at x_{i+1}, ..., x_n: the constant
    # part of the supremum of g over (x, b] seen from inside piece i; None
    # encodes the empty tail; a breakpoint whose limits are one object
    # offers one candidate
    ceiling: list[Optional[ExactNumber]] = [None] * (n + 1)
    for i in range(n - 1, -1, -1):
        p = pts[i + 1]
        c = p.left
        if p.right is not c and p.right > c:
            c = p.right
        tail = ceiling[i + 1]
        if tail is not None and tail > c:
            c = tail
        ceiling[i] = c

    components: list[tuple[ExactNumber, ExactNumber]] = []
    current: Optional[tuple[ExactNumber, ExactNumber]] = None
    for i in range(n):
        c = ceiling[i]
        x0, x1 = pts[i].x, pts[i + 1].x
        v0, v1 = pts[i].right, pts[i + 1].left
        rising = v0 < v1
        low, high = (v0, v1) if rising else (v1, v0)
        # the piece runs from v0 to v1, so the points under c are none of
        # it, all of it, or the part on the low side of one crossing
        if c <= low:
            sub = None
        elif c >= high:
            sub = (x0, x1)
        else:
            crossing = x0 + (c - v0) / g.slope(i)
            sub = (x0, crossing) if rising else (crossing, x1)
        # the supremum over (x_i, b] is max(right_i, c), so x_i is in the
        # set exactly when c exceeds both of its limits
        p = pts[i]
        if i > 0 and c > p.right and (p.left is p.right or c > p.left):
            # a qualifying breakpoint always glues two piece intervals
            assert current is not None and current[1] == x0, \
                "breakpoint in the sun set must extend a component"
            assert sub is not None and sub[0] == x0
            current = (current[0], sub[1])
            continue
        if current is not None:
            components.append(current)
        current = sub
    if current is not None:
        components.append(current)
    return tuple(components)


# the kinds of work on a StaircaseSun walk's stack
_NODE, _POINT, _PIECE = range(3)


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
    right child reaches it at its start, inside the node.)  The walk carries the ceiling, the exact sup of g to the
    right of where it stands, and settles a node without splitting it when
    the ceiling tops the node's sup, or meets it while the sup is reached
    only at an end (the open node lies in the set), or when the ceiling is
    at or below the node's inf (the set inside is the level's ``own``,
    shifted).  Any other node splits into its right child, its middle
    third, on which g falls at slope c, and its left child, taken in that
    order; a leaf, on which g is linear, divides out the ceiling's
    crossing instead.  A point between two of these parts is in the set
    exactly when the ceiling past it is above g there, and only such a
    point glues the parts on its two sides into one component.

    ``own`` at level k is that walk started at a split of a level-k node
    with no ceiling: its right child is then settled by ``own`` at level
    k + 1, so the levels are filled from N up, and the sun is ``own`` at
    level 0.  Every pruning is an exact compare, so the components are
    the explicit sweep's.  ``nodes`` counts the nodes visited: it grows
    with the number of components, not with the 2^N leaves.
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
        self._c = c
        self._leaf_slope = f.slope - c
        self._leaf_rises = self._end[n].sign() > 0
        hi, lo, at = [None] * (n + 1), [None] * (n + 1), [None] * (n + 1)
        rise = self._end[n]
        hi[n], lo[n] = (rise, ZERO) if self._leaf_rises else (ZERO, rise)
        at[n] = None if rise.sign() == 0 else 1 if self._leaf_rises else 0
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
        self._own[n] = ((ZERO, third[n]),) if self._leaf_rises else ()
        for k in range(n - 1, -1, -1):
            self._own[k] = self._walk(k)
        self.components = self._own[0]

    def _walk(self, k: int) -> tuple[tuple[ExactNumber, ExactNumber], ...]:
        """``own`` at level k, from ``own`` at the levels below it."""
        n, width, own = self._depth, self._width, self._own
        hi, lo, at = self._hi, self._lo, self._at
        stack: list = []
        self.nodes += 1
        self._split(k, ZERO, ZERO, stack)
        ceiling: Optional[ExactNumber] = None
        found: list[tuple[ExactNumber, ExactNumber]] = []
        current: Optional[tuple[ExactNumber, ExactNumber]] = None
        glue = False    # the point just passed lies in the set
        while stack:
            task = stack.pop()
            kind = task[0]
            if kind == _POINT:
                _, x, v = task
                glue = ceiling > v
                assert not glue or current is not None and current[0] == x, \
                    "a point of the set must have the set on its right"
                continue
            if kind == _PIECE:
                _, x0, x1, v0, v1 = task
                # g falls from v0 to v1, or stays flat when c = 0
                if ceiling <= v1:
                    parts = ()
                elif ceiling >= v0:
                    parts = ((x0, x1),)
                else:
                    parts = ((x0 + (v0 - ceiling) / self._c, x1),)
                if ceiling < v0:
                    ceiling = v0
            else:
                _, j, start, base = task
                self.nodes += 1
                top = base + hi[j]
                if ceiling is not None and (
                        ceiling > top or ceiling == top and at[j] is not None):
                    parts = ((start, start + width[j]),)
                elif ceiling is None or ceiling <= base + lo[j]:
                    parts = tuple((start + u, start + v) for u, v in own[j])
                elif j == n:
                    crossing = start + (ceiling - base) / self._leaf_slope
                    parts = ((start, crossing),) if self._leaf_rises else \
                        ((crossing, start + width[n]),)
                else:
                    self._split(j, start, base, stack)
                    continue
                if ceiling is None or top > ceiling:
                    ceiling = top
            assert parts or not glue, \
                "a point of the set must have the set on its left"
            for part in reversed(parts):
                assert part[0] < part[1], \
                    "components of an open set have positive width"
                if glue:
                    assert part[1] == current[0]
                    current = (part[0], current[1])
                    glue = False
                else:
                    if current is not None:
                        found.append(current)
                    current = part
        if current is not None:
            found.append(current)
        found.reverse()
        return tuple(found)

    def _split(self, j: int, start: ExactNumber, base: ExactNumber,
               stack: list) -> None:
        """Push a level-j node's parts, so that its right child comes off
        the stack first and its left child last."""
        w = self._width[j + 1]
        x0 = start + w
        x1 = x0 + w
        v0 = base + self._end[j + 1]
        v1 = base + self._rho[j]
        stack.append((_NODE, j + 1, start, base))
        stack.append((_POINT, x0, v0))
        stack.append((_PIECE, x0, x1, v0, v1))
        stack.append((_POINT, x1, v1))
        stack.append((_NODE, j + 1, x1, v1))


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

    Finds the rising sun of f(x) - c x, by the sweep over f.add_linear(0,
    -c) or, for a staircase, by the walk; the total length of the
    components is at most (f(b) - f(a)) / c, and each component separately
    satisfies c * width <= rise of f across it, read by f's own point
    queries.  Both checked exactly.
    """
    c = ExactNumber.coerce(c)
    if c.sign() <= 0:
        raise ValueError("c must be positive")
    if not f.is_nondecreasing():
        raise NotMonotone("sun_measure_bound needs a nondecreasing function")
    if isinstance(f, CantorStaircase):
        components = StaircaseSun(f, c).components
    else:
        components = _sweep(f.add_linear(0, -c))
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

@dataclass(frozen=True)
class CellReport:
    lo: ExactNumber
    hi: ExactNumber
    witness: ExactNumber
    derivative: ExactNumber


@dataclass(frozen=True)
class NonDiffPoint:
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
    so many large coprime denominators make a long L and slow every cell.
    Otherwise the same walk runs over the exact values themselves, at about
    three compares per cell.
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
    if mesh.q == 0 and all(x.q == 0 for x in xs):
        # x -> x*L: every mark is even, so each midpoint is an integer
        scale = 2 * lcm(mesh.den, *(x.den for x in xs))
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
        cells.append(CellReport(lo=lo_value, hi=hi_value,
                                witness=witness_value,
                                derivative=values.lower_left))
        lo, lo_value = end, hi_value
    bad = []
    for k, x in enumerate(xs[1:-1], 1):
        values = _dini_on_piece(f, k, x)
        if not values.all_equal_finite():
            bad.append(NonDiffPoint(x=x, values=values))
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
