"""Exact analysis of piecewise-linear functions: rising sun, Dini
derivatives, monotone inverses, mesh-scale differentiability, and the
outer-measure toolkit.
"""

from fractions import Fraction as F

from exactlab import (
    FiniteUnion, Interval, PLFunction,
    cover_mass, differentiability_report, dini, factorial_series_check,
    jump_points, local_null_check, monotone_inverse, outer_measure,
    rising_sun, subadditivity_check, sun_measure_bound,
)
from exactlab.plfun import CantorStaircase

print("-- rising sun on a 3-piece example --")
g = PLFunction.from_values([(0, 0), (1, 2), (2, 1), (3, F(3, 2))])
sun = rising_sun(g)
for shadow in sun.shadows:
    print(f"component ({shadow.start}, {shadow.end}):",
          f"entry {shadow.entry_limit} <= roof {shadow.roof}")
print("total length         =", sun.measure())

print()
print("-- length bound for a monotone function --")
f = PLFunction.from_values([(0, 0), (F(1, 2), F(1, 10)), (1, 1)])
for c in (1, 2):
    res = sun_measure_bound(f, c)
    print(f"c={c}: mu(E_c) = {res.mu} <= {res.bound} = (f(1)-f(0))/c")

print()
print("-- Dini derivatives --")
absf = PLFunction.from_values([(-1, 1), (0, 0), (1, 1)])
print("|x| at 0             =", dini(absf, 0).as_tuple())
jumpy = PLFunction.step_function(0, 1, [(F(1, 2), 1)])
print("step at its jump     =", dini(jumpy, F(1, 2)).as_tuple())

print()
print("-- a strictly increasing function with a jump inverts to a flat piece --")
h = PLFunction([(0, 0, 0), (1, 1, 2), (2, 3, 3)])
inv = monotone_inverse(h)
print(inv.to_text().strip())

print()
print("-- jump survey of a staircase --")
stair = PLFunction.step_function(0, 3, [(1, F(1, 2)), (2, F(1, 4))])
print("jumps above 1/3      =", jump_points(stair, F(1, 3)))
print("jumps above 1/8      =", jump_points(stair, F(1, 8)))

print()
print("-- every mesh cell of the depth-6 staircase has a differentiable point --")
rep = differentiability_report(CantorStaircase(6), F(1, 64))
print("cells:", len(rep.cells), " all pass:", rep.all_cells_pass,
      " corner points:", len(rep.nondifferentiable))

print()
print("-- outer measure on finite unions --")
print("mass of {(0,1/2),(1/4,3/4)}   =",
      cover_mass([Interval(0, F(1, 2)), Interval(F(1, 4), F(3, 4))]))
print("mu((0,1/2] u [1/2,3/4))       =",
      outer_measure(FiniteUnion.parse("(0,1/2] [1/2,3/4)")))
sub = subadditivity_check([FiniteUnion([(0, F(2, 3))]),
                           FiniteUnion([(F(1, 3), 1)])])
print("subadditivity slack           =", sub.slack)
ln = local_null_check(FiniteUnion([(0, F(1, 2))]), F(1, 4), [Interval(0, 1)])
print("violating interval for (0,1/2), delta=1/4:", ln.violator)

print()
print("-- the factorial power series solves f = x^2 f' + x --")
check = factorial_series_check(10)
print("orders 1..10 verified:", check.holds,
      " coefficients:", check.coefficients)
