"""Exact analysis of piecewise-linear functions: discontinuity sets, Dini
derivatives, the rising-sun decomposition with its length bound, monotone
inverses, and a mesh-scale differentiability survey.

Everything is decided with exact arithmetic: the rising-sun set of a PL
function is a finite union of open intervals whose endpoints solve linear
equations, so the classical inequalities are verified with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    CapExceeded,
    NotMonotone,
    NotStrictlyIncreasing,
    OutOfDomain,
    VerificationError,
)
from .dsets import ValueSet
from .plfun import PLFunction
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


def dini(f: PLFunction, x) -> DiniValues:
    """The four one-sided extreme difference quotients at an interior point.

    Exact for PL functions: off breakpoints all four equal the piece slope;
    at a continuous breakpoint the pairs are the two adjacent slopes; at a
    jump the left pair is infinite with the sign the jump forces (the value
    at a breakpoint is its right limit, so the right pair stays finite).
    """
    x = ExactNumber.coerce(x)
    a, b = f.domain
    if not a < x < b:
        raise OutOfDomain(f"{x} is not interior to [{a}, {b}]")
    return _dini_on_piece(f, f._locate(x), x)


def _dini_on_piece(f: PLFunction, i: int, x: ExactNumber) -> DiniValues:
    """:func:`dini` at an interior x on piece i, breakpoints[i] <= x <
    breakpoints[i + 1], for callers that already know the piece."""
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
        total = ZERO
        for lo, hi in self.components:
            total = total + (hi - lo)
        return total


def _roof(g: PLFunction, x: ExactNumber) -> ExactNumber:
    """max of the value and the two-sided limit superior at x, for x > a."""
    left = g.left_limit(x)
    right = g.right_limit_or_value(x)
    return left if left > right else right


def rising_sun(g: PLFunction) -> SunResult:
    """The open set of points from which some later point of g is strictly
    higher, as maximal components, each with its verified entry inequality.

    Computed by a right-to-left sweep carrying the supremum of g over the
    remaining interval.  Inside a piece the membership condition is a linear
    inequality: comparing that supremum with the piece's two end values
    settles it, and only a piece the supremum crosses divides out its
    crossing point.
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

    shadows = []
    for lo, hi in components:
        assert lo < hi, "components of an open set have positive width"
        entry = g.right_limit(lo)
        roof = _roof(g, hi)
        shadows.append(ShadowCheck(start=lo, end=hi, entry_limit=entry,
                                   roof=roof, holds=entry <= roof))
    return SunResult(components=tuple(components), shadows=tuple(shadows))


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


def sun_measure_bound(f: PLFunction, c) -> SunBoundResult:
    """Rising-sun length bound for a nondecreasing f and a slope c > 0.

    Applies the sweep to f(x) - c x; the total length of the resulting
    components is at most (f(b) - f(a)) / c, and each component separately
    satisfies c * width <= rise of f across it.  Both checked exactly.
    """
    c = ExactNumber.coerce(c)
    if c.sign() <= 0:
        raise ValueError("c must be positive")
    if not f.is_nondecreasing():
        raise NotMonotone("sun_measure_bound needs a nondecreasing function")
    sun = rising_sun(f.add_linear(0, -c))
    a, b = f.domain
    bound = (f.eval(b) - f.eval(a)) / c
    mu = sun.measure()
    per = []
    for lo, hi in sun.components:
        width = hi - lo
        rise = f.right_limit_or_value(hi) - f.right_limit_or_value(lo)
        per.append(ComponentBound(start=lo, end=hi,
                                  scaled_width=c * width, rise=rise,
                                  holds=c * width <= rise))
    result = SunBoundResult(components=sun.components, mu=mu, bound=bound,
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


def differentiability_report(f: PLFunction, mesh,
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
    witness ``lo + mesh/2`` (``mesh/2`` divided once per survey).  Any
    other cell walks a second cursor forward to the first breakpoint at or
    above its ``hi``; the breakpoints between the two are the cell's
    interior ones, the widest gap between them names the witness's piece
    and its midpoint (``(lo + hi)/2`` for a last cell that ``b`` cuts
    short), and the second cursor, stepped past a breakpoint at ``hi`` by
    one equality test, is the next cell's first.  So the walk costs about
    three compares per cell with no breakpoint inside, with the witness
    check, and O(cells + n) in all for n breakpoints.  Every cell checks
    that its witness lies strictly inside the piece it names.  There all
    four Dini values are the piece's slope, so each piece's values are read
    from ``f``'s slope memo, and checked to agree, at its first witness
    only, and its later cells reuse them.
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
    half = mesh / 2
    # piece k -> its Dini values, once a witness on it has passed the check
    piece_values: list[Optional[DiniValues]] = [None] * (len(xs) - 1)
    cells = []
    last = count - 1
    lo = a
    # xs[i] is the first breakpoint above lo; every cell has lo < b = xs[-1]
    # and hi <= b, so no cursor runs off, and every cell but the last ends
    # below b
    i = 1
    for n in range(count):
        end = lo + mesh
        if end < xs[i]:
            # nothing inside, and lo lies on piece i - 1
            hi, witness, k = end, lo + half, i - 1
        else:
            hi = b if n == last and end > b else end
            j = i
            while xs[j] < hi:
                j += 1
            if i == j:
                # no interior breakpoint: the cell is its own widest gap, on
                # piece i - 1
                witness = lo + half if hi is end else (lo + hi) / 2
                k = i - 1
            else:
                marks = [lo, *xs[i:j], hi]
                best, width = None, None
                for g, (u, v) in enumerate(zip(marks, marks[1:])):
                    gap = v - u
                    if best is None or gap > width:
                        best, width = g, gap
                witness = (marks[best] + marks[best + 1]) / 2
                # the widest gap lies on piece k: marks[g] is xs[i + g - 1]
                # for g >= 1, and lo lies on piece i - 1
                k = i - 1 + best
            # xs[j] >= hi, so the next cell's first breakpoint is xs[j] or,
            # when that is its lo, the one after
            i = j + 1 if xs[j] == end else j
        values = None
        if xs[k] < witness < xs[k + 1]:
            values = piece_values[k]
            if values is None:
                values = _dini_on_piece(f, k, witness)
                if not values.all_equal_finite():
                    values = None
                piece_values[k] = values
        if values is None:
            raise VerificationError(
                f"cell [{lo}, {hi}] witness {witness} is not a point of "
                f"differentiability")
        cells.append(CellReport(lo=lo, hi=hi, witness=witness,
                                derivative=values.lower_left))
        lo = end
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
