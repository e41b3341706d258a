"""A frozen reference for the PL queries, the mesh survey and the rising sun.

This restates point location, slopes, Dini values, the mesh survey and the
Cantor staircase as they stood before ``PLFunction`` kept a breakpoint
column and a slope memo: a point is located by a linear scan of the
breakpoints, each slope is divided out on every call, each cell's interior
breakpoints come from a scan of every breakpoint, four Dini values agree
when their set has one member, and the staircase is built stage by stage in
``Fraction`` arithmetic.

It also restates the one-sided limits, ``add_linear``, the rising-sun sweep
and its length bound as they stood before the point queries shared one
path: each limit has its own checks and interpolation, ``add_linear`` adds
the linear term to each limit separately, the sweep keeps a list of tail
suprema and a list of piece intervals, and the bound re-sums the component
widths.  Only ``PLFunction.points``, the ``PLFunction`` constructor and the
report records are shared with the library.  ``test_pl_reference.py`` runs
the library against it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from exactlab import ExactNumber, PLFunction
from exactlab.analysis import (
    NEG_INF,
    POS_INF,
    CellReport,
    ComponentBound,
    DifferentiabilityReport,
    DiniValues,
    NonDiffPoint,
    ShadowCheck,
    SunBoundResult,
    SunResult,
    is_finite,
)
from exactlab.errors import NotMonotone, OutOfDomain, VerificationError


def locate(f: PLFunction, x: ExactNumber) -> int:
    """Largest index i with f.points[i].x <= x (-1 below the domain)."""
    i = -1
    for p in f.points:
        if p.x > x:
            break
        i += 1
    return i


def slope(f: PLFunction, i: int) -> ExactNumber:
    p, q = f.points[i], f.points[i + 1]
    return (q.left - p.right) / (q.x - p.x)


def value(f: PLFunction, x) -> ExactNumber:
    """f(x) for x in the domain: the right limit at a breakpoint."""
    x = ExactNumber.coerce(x)
    i = locate(f, x)
    p = f.points[i]
    if p.x == x:
        return p.right
    return p.right + slope(f, i) * (x - p.x)


def all_equal_finite(values: DiniValues) -> bool:
    vals = values.as_tuple()
    return all(is_finite(v) for v in vals) and len({*vals}) == 1


def dini(f: PLFunction, x) -> DiniValues:
    x = ExactNumber.coerce(x)
    a, b = f.points[0].x, f.points[-1].x
    if not a < x < b:
        raise OutOfDomain(f"{x} is not interior to [{a}, {b}]")
    i = locate(f, x)
    p = f.points[i]
    if p.x != x:
        s = slope(f, i)
        return DiniValues(s, s, s, s)
    right_slope = slope(f, i)
    if p.left == p.right:
        left_slope = slope(f, i - 1)
        return DiniValues(left_slope, left_slope, right_slope, right_slope)
    inf = POS_INF if p.right > p.left else NEG_INF
    return DiniValues(inf, inf, right_slope, right_slope)


def differentiability_report(f: PLFunction, mesh) -> DifferentiabilityReport:
    mesh = ExactNumber.coerce(mesh)
    if mesh.sign() <= 0:
        raise ValueError("mesh must be positive")
    a, b = f.points[0].x, f.points[-1].x
    cells = []
    k = 0
    while True:
        lo = a + mesh * k
        if lo >= b:
            break
        hi = lo + mesh
        if hi > b:
            hi = b
        inner = [p.x for p in f.points if lo < p.x < hi]
        marks = [lo] + inner + [hi]
        best = None
        for u, v in zip(marks, marks[1:]):
            if best is None or v - u > best[1] - best[0]:
                best = (u, v)
        witness = (best[0] + best[1]) / 2
        values = dini(f, witness)
        if not all_equal_finite(values):
            raise VerificationError(
                f"cell [{lo}, {hi}] witness {witness} is not a point of "
                f"differentiability")
        cells.append(CellReport(lo=lo, hi=hi, witness=witness,
                                derivative=values.lower_left))
        k += 1
    bad = []
    for p in f.points[1:-1]:
        values = dini(f, p.x)
        if not all_equal_finite(values):
            bad.append(NonDiffPoint(x=p.x, values=values))
    return DifferentiabilityReport(mesh=mesh, cells=tuple(cells),
                                   nondifferentiable=tuple(bad),
                                   all_cells_pass=True)


def cantor_points(depth: int) -> list[tuple[Fraction, Fraction]]:
    """(x, value) pairs of the depth-``depth`` middle-thirds staircase."""
    xs = [Fraction(0), Fraction(1)]
    ys = [Fraction(0), Fraction(1)]
    for _ in range(depth):
        nxs, nys = [], []
        for x, y in zip(xs, ys):
            nxs.append(x / 3)
            nys.append(y / 2)
        if nxs[-1] != Fraction(1, 3):
            nxs.append(Fraction(1, 3))
            nys.append(Fraction(1, 2))
        nxs.append(Fraction(2, 3))
        nys.append(Fraction(1, 2))
        for x, y in zip(xs, ys):
            if x == 0:
                continue  # 2/3 already emitted
            nxs.append(Fraction(2, 3) + x / 3)
            nys.append(Fraction(1, 2) + y / 2)
        xs, ys = nxs, nys
    return list(zip(xs, ys))


# -- one-sided limits and add_linear ------------------------------------------

def check_domain(f: PLFunction, x: ExactNumber) -> None:
    a, b = f.points[0].x, f.points[-1].x
    if x < a or x > b:
        raise OutOfDomain(f"{x} outside [{a}, {b}]")


def checked_value(f: PLFunction, x) -> ExactNumber:
    x = ExactNumber.coerce(x)
    check_domain(f, x)
    return value(f, x)


def left_limit(f: PLFunction, x) -> ExactNumber:
    x = ExactNumber.coerce(x)
    check_domain(f, x)
    if x == f.points[0].x:
        raise OutOfDomain("no left limit at the domain minimum")
    i = locate(f, x)
    p = f.points[i]
    if p.x == x:
        return p.left
    return p.right + slope(f, i) * (x - p.x)


def right_limit(f: PLFunction, x) -> ExactNumber:
    x = ExactNumber.coerce(x)
    check_domain(f, x)
    if x == f.points[-1].x:
        raise OutOfDomain("no right limit at the domain maximum")
    i = locate(f, x)
    p = f.points[i]
    if p.x == x:
        return p.right
    return p.right + slope(f, i) * (x - p.x)


def right_limit_or_value(f: PLFunction, x) -> ExactNumber:
    x = ExactNumber.coerce(x)
    if x == f.points[-1].x:
        return f.points[-1].right
    return right_limit(f, x)


def add_linear(f: PLFunction, intercept, slope) -> PLFunction:
    intercept = ExactNumber.coerce(intercept)
    slope = ExactNumber.coerce(slope)
    return PLFunction([(p.x,
                        p.left + intercept + slope * p.x,
                        p.right + intercept + slope * p.x)
                       for p in f.points])


def is_nondecreasing(f: PLFunction) -> bool:
    return (all(slope(f, i).sign() >= 0 for i in range(len(f.points) - 1))
            and all(p.right >= p.left for p in f.points))


# -- rising sun -------------------------------------------------------------------

def rising_sun(g: PLFunction) -> SunResult:
    """The two-loop sweep: tail suprema first, then one interval per piece,
    then a merge that glues pieces across qualifying breakpoints."""
    pts = g.points
    n = len(pts) - 1
    future_sup: list[Optional[ExactNumber]] = [None] * (n + 1)
    for j in range(n - 1, -1, -1):
        cand = pts[j].right
        for v in (pts[j + 1].left, pts[j + 1].right, future_sup[j + 1]):
            if v is not None and v > cand:
                cand = v
        future_sup[j] = cand

    pieces = []
    for i in range(n):
        c = pts[i + 1].left
        for v in (pts[i + 1].right, future_sup[i + 1]):
            if v is not None and v > c:
                c = v
        x0, x1 = pts[i].x, pts[i + 1].x
        v0 = pts[i].right
        s = slope(g, i)
        if s.sign() == 0:
            pieces.append((x0, x1) if v0 < c else None)
            continue
        crossing = x0 + (c - v0) / s
        if s.sign() > 0:
            hi = crossing if crossing < x1 else x1
            pieces.append((x0, hi) if hi > x0 else None)
        else:
            lo = crossing if crossing > x0 else x0
            pieces.append((lo, x1) if lo < x1 else None)

    components = []
    current = None
    for i in range(n):
        sub = pieces[i]
        if i > 0:
            x = pts[i].x
            if future_sup[i] > max(pts[i].left, pts[i].right):
                assert current is not None and current[1] == x, \
                    "breakpoint in the sun set must extend a component"
                assert sub is not None and sub[0] == x
                current = (current[0], sub[1])
                continue
        if sub is None:
            if current is not None:
                components.append(current)
                current = None
        elif current is not None and current[1] == sub[0]:
            components.append(current)
            current = sub
        else:
            if current is not None:
                components.append(current)
            current = sub
    if current is not None:
        components.append(current)

    shadows = []
    for lo, hi in components:
        assert lo < hi, "components of an open set have positive width"
        entry = right_limit(g, lo)
        left, right = left_limit(g, hi), right_limit_or_value(g, hi)
        roof = left if left > right else right
        shadows.append(ShadowCheck(start=lo, end=hi, entry_limit=entry,
                                   roof=roof, holds=entry <= roof))
    return SunResult(components=tuple(components), shadows=tuple(shadows))


def sun_measure_bound(f: PLFunction, c) -> SunBoundResult:
    c = ExactNumber.coerce(c)
    if c.sign() <= 0:
        raise ValueError("c must be positive")
    if not is_nondecreasing(f):
        raise NotMonotone("sun_measure_bound needs a nondecreasing function")
    sun = rising_sun(add_linear(f, 0, -c))
    a, b = f.points[0].x, f.points[-1].x
    bound = (value(f, b) - value(f, a)) / c
    per = []
    total = ExactNumber(0)
    for lo, hi in sun.components:
        width = hi - lo
        total = total + width
        rise = right_limit_or_value(f, hi) - right_limit_or_value(f, lo)
        per.append(ComponentBound(start=lo, end=hi,
                                  scaled_width=c * width, rise=rise,
                                  holds=c * width <= rise))
    result = SunBoundResult(components=sun.components, mu=total, bound=bound,
                            per_component=tuple(per),
                            holds=total <= bound and all(p.holds for p in per))
    if not result.holds:
        raise VerificationError(
            f"rising-sun bound failed: mu = {total}, bound = {bound}")
    return result
