"""A frozen reference for the PL queries behind ``dini`` and the mesh survey.

This restates point location, slopes, Dini values, the mesh survey and the
Cantor staircase as they stood before ``PLFunction`` kept a breakpoint
column and a slope memo: a point is located by a linear scan of the
breakpoints, each slope is divided out on every call, each cell's interior
breakpoints come from a scan of every breakpoint, four Dini values agree
when their set has one member, and the staircase is built stage by stage in
``Fraction`` arithmetic.  Only ``PLFunction.points`` and the report records
are shared with the library.  ``test_pl_reference.py`` runs the library
against it.
"""

from __future__ import annotations

from fractions import Fraction

from exactlab import ExactNumber, PLFunction
from exactlab.analysis import (
    NEG_INF,
    POS_INF,
    CellReport,
    DifferentiabilityReport,
    DiniValues,
    NonDiffPoint,
    is_finite,
)
from exactlab.errors import OutOfDomain, VerificationError


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
