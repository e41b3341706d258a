from collections import Counter
from fractions import Fraction as F

import pytest

from exactlab import (
    ExactNumber,
    NEG_INF,
    POS_INF,
    PLFunction,
    differentiability_report,
    dini,
    exact,
    factorial_series_check,
    jump_points,
    monotone_inverse,
    rising_sun,
    sun_measure_bound,
)
from exactlab.errors import (
    NotMonotone,
    NotStrictlyIncreasing,
    OutOfDomain,
)

from exactlab import analysis
from exactlab.cli import run
from exactlab.plfun import CantorStaircase

from conftest import rand_fraction

WORKED = PLFunction.from_values([(0, 0), (1, 2), (2, 1), (3, F(3, 2))])


def random_pl(rng, monotone=False, jumps=False, lo=0, hi=4):
    xs = sorted({F(rng.randrange(1, 40), 10) for _ in range(rng.randrange(2, 7))})
    xs = [exact(lo)] + [exact(lo) + exact(x) for x in xs if lo + x < hi] + [exact(hi)]
    if monotone:
        pts = []
        level = exact(0)
        for x in xs:
            jump = F(rng.randrange(0, 3), 4) if jumps else 0
            pts.append((x, level, level + jump))
            level = level + jump + F(rng.randrange(0, 20), 8)
        return PLFunction(pts)
    pts = []
    for x in xs:
        left = rand_fraction(rng)
        right = rand_fraction(rng) if jumps else left
        pts.append((x, left, right))
    return PLFunction(pts)


# -- jump points -------------------------------------------------------------

def test_jump_points_examples():
    stair = PLFunction.step_function(0, 3, [(1, F(1, 2)), (2, F(1, 4))])
    assert list(jump_points(stair, F(1, 3))) == [exact(1)]
    assert list(jump_points(stair, F(1, 8))) == [exact(1), exact(2)]
    smooth = PLFunction.from_values([(0, 0), (1, 1)])
    assert len(jump_points(smooth, F(1, 10))) == 0


def test_jump_points_nested_family():
    stair = PLFunction.step_function(0, 5, [(1, F(1, 2)), (2, F(1, 4)),
                                            (3, F(1, 8)), (4, 1)])
    thresholds = [F(1, 16), F(1, 8), F(1, 4), F(1, 2), 2]
    families = [set(jump_points(stair, t).elements) for t in thresholds]
    for small, large in zip(families, families[1:]):
        assert large <= small


def test_jump_points_needs_monotone():
    with pytest.raises(NotMonotone):
        jump_points(WORKED, F(1, 10))


# -- Dini derivatives ---------------------------------------------------------

def test_dini_corner():
    absf = PLFunction.from_values([(-1, 1), (0, 0), (1, 1)])
    values = dini(absf, 0)
    assert values.as_tuple() == (exact(-1), exact(-1), exact(1), exact(1))
    assert not values.all_equal_finite()


def test_dini_linear():
    f = PLFunction.linear(0, 2, 3)
    values = dini(f, 1)
    assert values.as_tuple() == (exact(3),) * 4
    assert values.all_equal_finite()


def test_dini_upward_jump_is_infinite_on_the_jump_side():
    # value at a breakpoint is the right limit, so the jump shows on the left
    f = PLFunction([(0, 0, 0), (1, F(1, 2), 1), (2, F(3, 2), F(3, 2))])
    values = dini(f, 1)
    assert values.lower_left is POS_INF and values.upper_left is POS_INF
    assert values.lower_right == exact(F(1, 2))


def test_dini_downward_jump():
    f = PLFunction([(0, 1, 1), (1, 1, 0), (2, 0, 0)])
    values = dini(f, 1)
    assert values.lower_left is NEG_INF


def test_dini_agrees_with_difference_quotients(rng):
    f = PLFunction.from_values([(0, 0), (1, 2), (2, 1), (4, 5)])
    for x in (F(1, 2), F(3, 2), F(7, 2), 1, 2):
        values = dini(f, x)
        h = F(1, 10 ** 4)  # smaller than any breakpoint spacing here
        left = (f(exact(x) - h) - f(x)) / (-h)
        right = (f(exact(x) + h) - f(x)) / h
        assert values.upper_left == left
        assert values.upper_right == right


def test_dini_needs_interior_point():
    f = PLFunction.from_values([(0, 0), (1, 1)])
    with pytest.raises(OutOfDomain):
        dini(f, 0)
    with pytest.raises(OutOfDomain):
        dini(f, 1)


# -- rising sun -----------------------------------------------------------------

def test_rising_sun_worked_example():
    sun = rising_sun(WORKED)
    assert [(lo, hi) for lo, hi in sun.components] == \
        [(exact(0), exact(1)), (exact(F(3, 2)), exact(3))]
    first, second = sun.shadows
    assert (first.entry_limit, first.roof) == (exact(0), exact(2))
    assert (second.entry_limit, second.roof) == (exact(F(3, 2)), exact(F(3, 2)))
    assert first.holds and second.holds
    assert sun.measure() == exact(F(5, 2))


def test_rising_sun_monotone_extremes():
    assert rising_sun(PLFunction.from_values([(0, 5), (1, 3), (2, 0)])) \
        .components == ()
    up = rising_sun(PLFunction.from_values([(0, 0), (2, 4)]))
    assert up.components == ((exact(0), exact(2)),)


def brute_force_sun_membership(g, x):
    """Evaluate the defining condition of the sun set at one point, using
    limit values on a refinement of the breakpoint grid."""
    b = g.domain[1]
    roof = max(g.left_limit(x), g.right_limit_or_value(x)) \
        if x != g.domain[0] else g(x)
    candidates = [g(b)]
    for p in g.points:
        if x < p.x <= b:
            candidates.append(p.right)
            candidates.append(p.left)
    for p, q in zip(g.points, g.points[1:]):
        mid = (p.x + q.x) / 2
        if x < mid <= b:
            candidates.append(g(mid))
    # also look just right of x itself
    for p in g.points:
        if p.x > x:
            candidates.append(g((x + p.x) / 2))
            break
    return any(v > roof for v in candidates)


def test_rising_sun_matches_brute_force(rng):
    for trial in range(40):
        g = random_pl(rng, monotone=False, jumps=bool(trial % 2))
        sun = rising_sun(g)
        for lo, hi in sun.components:
            assert lo < hi  # openness: components are genuine intervals
        for shadow in sun.shadows:
            assert shadow.holds
        # grid check of membership against the definition
        a, b = g.domain
        grid = [p.x for p in g.points[1:-1]]
        for p, q in zip(g.points, g.points[1:]):
            grid.append((p.x + q.x) / 2)
            grid.append(p.x * F(1, 4) + q.x * F(3, 4))
        inside = lambda x: any(lo < x < hi for lo, hi in sun.components) or \
            any(x == lo or x == hi for lo, hi in ())  # open set: endpoints out
        for x in grid:
            if not (a < x < b):
                continue
            member = any(lo < x < hi for lo, hi in sun.components)
            assert member == brute_force_sun_membership(g, x), \
                f"disagreement at {x} for {g.to_text()!r}"


def test_rising_sun_outside_closure_nothing_higher(rng):
    for _ in range(20):
        g = random_pl(rng, monotone=False)
        sun = rising_sun(g)
        a, b = g.domain
        grid = [(p.x + q.x) / 2 for p, q in zip(g.points, g.points[1:])]
        grid += [p.x for p in g.points[1:-1]]
        for x in grid:
            if not (a < x < b):
                continue
            in_closure = any(lo <= x <= hi for lo, hi in sun.components)
            if in_closure:
                continue
            assert not brute_force_sun_membership(g, x)


def test_sun_measure_bound_worked_example():
    f = PLFunction.from_values([(0, 0), (F(1, 2), F(1, 10)), (1, 1)])
    result = sun_measure_bound(f, 1)
    assert result.components == ((exact(0), exact(1)),)
    assert result.mu == exact(1)
    assert result.bound == exact(1)
    result2 = sun_measure_bound(f, 2)
    assert result2.components == ()
    assert result2.mu == exact(0) and result2.bound == exact(F(1, 2))


def test_sun_measure_bound_constant():
    result = sun_measure_bound(PLFunction.constant(0, 1, 7), 1)
    assert result.mu == exact(0) and result.bound == exact(0)


def test_sun_measure_bound_randomized(rng):
    for _ in range(25):
        f = random_pl(rng, monotone=True, jumps=True)
        for c in (F(1, 2), 1, 2, 10):
            result = sun_measure_bound(f, c)
            assert result.holds
            assert result.mu <= result.bound
            for comp in result.per_component:
                assert comp.scaled_width <= comp.rise


def test_sun_measure_bound_needs_monotone():
    with pytest.raises(NotMonotone):
        sun_measure_bound(WORKED, 1)


# -- monotone inverse ------------------------------------------------------------

def test_inverse_linear():
    inv = monotone_inverse(PLFunction.linear(0, 1, 2))
    assert inv.domain == (exact(0), exact(2))
    assert inv(1) == exact(F(1, 2))


def test_inverse_with_jump_has_flat_piece():
    f = PLFunction([(0, 0, 0), (1, 1, 2), (2, 3, 3)])
    inv = monotone_inverse(f)
    assert inv.domain == (exact(0), exact(3))
    assert inv(F(1, 2)) == exact(F(1, 2))
    assert inv(1) == exact(1)
    assert inv(F(3, 2)) == exact(1)   # flat across the jump
    assert inv(F(5, 2)) == exact(F(3, 2))
    assert all(p.left == p.right for p in inv.points)


def test_inverse_round_trip_randomized(rng):
    for _ in range(25):
        pts = []
        level = exact(0)
        x = exact(0)
        for k in range(rng.randrange(2, 6)):
            jump = F(rng.randrange(0, 3), 4)
            pts.append((x, level, level + jump))
            level = level + jump + F(rng.randrange(1, 20), 8)
            x = x + F(rng.randrange(1, 15), 10)
        pts.append((x, level, level))
        f = PLFunction(pts)
        if not f.is_strictly_increasing():
            continue
        inv = monotone_inverse(f)
        for p, q in zip(f.points, f.points[1:]):
            mid = (p.x + q.x) / 2
            assert inv(f(mid)) == mid
        assert inv.is_nondecreasing()


def test_inverse_rejects_flat():
    with pytest.raises(NotStrictlyIncreasing):
        monotone_inverse(PLFunction.constant(0, 1, 3))
    with pytest.raises(NotStrictlyIncreasing):
        monotone_inverse(PLFunction.step_function(0, 2, [(1, 1)]))


# -- differentiability survey ------------------------------------------------------

def test_diffreport_linear():
    rep = differentiability_report(PLFunction.linear(0, 1, 3), F(1, 4))
    assert len(rep.cells) == 4
    assert all(cell.derivative == exact(3) for cell in rep.cells)
    assert rep.all_cells_pass
    assert rep.nondifferentiable == ()


def test_diffreport_cantor_depth5():
    rep = differentiability_report(PLFunction.cantor_staircase(5), F(1, 32))
    assert len(rep.cells) == 32
    assert rep.all_cells_pass


def test_diffreport_jump_function():
    f = PLFunction.step_function(0, 1, [(F(1, 2), 1)])
    rep = differentiability_report(f, F(1, 8))
    assert rep.all_cells_pass
    assert [p.x for p in rep.nondifferentiable] == [exact(F(1, 2))]
    assert rep.nondifferentiable[0].values.lower_left is POS_INF


def test_diffreport_ragged_last_cell():
    rep = differentiability_report(PLFunction.linear(0, 1, 1), F(3, 8))
    assert [(c.lo, c.hi) for c in rep.cells] == [
        (exact(0), exact(F(3, 8))),
        (exact(F(3, 8)), exact(F(3, 4))),
        (exact(F(3, 4)), exact(1))]


# -- factorial series ---------------------------------------------------------------

def test_series_examples():
    assert factorial_series_check(1).coefficients == (1,)
    six = factorial_series_check(6)
    assert six.holds and six.coefficients[5] == 120
    assert factorial_series_check(50).holds


def test_series_rejects_order_zero():
    with pytest.raises(ValueError):
        factorial_series_check(0)


def test_rising_sun_downward_jump_pins_component_ends():
    # drop at x=1 splits the sun set; the later rise reopens it
    g = PLFunction([(0, 0, 0), (1, 2, F(1, 2)), (2, F(3, 2), F(3, 2)),
                    (3, 1, 1)])
    sun = rising_sun(g)
    for lo, hi in sun.components:
        assert lo < hi
    for shadow in sun.shadows:
        assert shadow.holds
    a, b = g.domain
    grid = [F(k, 8) for k in range(1, 24)]
    for x in grid:
        if not (a < exact(x) < b):
            continue
        member = any(lo < x < hi for lo, hi in sun.components)
        assert member == brute_force_sun_membership(g, exact(x))


def test_rising_sun_upward_jump_inside():
    g = PLFunction([(0, 1, 1), (1, F(1, 2), 3), (2, 0, 0)])
    sun = rising_sun(g)
    assert sun.components == ((exact(0), exact(1)),)
    shadow = sun.shadows[0]
    # entry limit 1 against the roof at the jump point: max(1/2, 3) = 3
    assert shadow.roof == exact(3)
    assert shadow.holds


# -- cost of the PL sweeps ------------------------------------------------------

def _count_calls(monkeypatch):
    """Count the divisions, products and compares of ExactNumber (the
    operators <, <=, > and >= all go through compare), the values it
    builds (every one is made by _raw), and the texts it writes (str and
    f-strings both go through __str__)."""
    counts = Counter()
    for name in ("__truediv__", "__mul__", "compare", "_raw", "__str__"):
        method = getattr(ExactNumber, name)

        def counted(*args, _name=name, _method=method):
            counts[_name] += 1
            return _method(*args)
        # _raw is a classmethod, read off the class already bound
        monkeypatch.setattr(ExactNumber, name, staticmethod(counted)
                            if name == "_raw" else counted)
    return counts


# argv -> the calls one run of the op makes
SWEEP_COSTS = [
    # the walk over triadic nodes lists no breakpoint: it settles what its
    # node rules can and feeds the rising sun's one walker the rest, the
    # middle thirds, leaves and points between them; the walker divides
    # only where the ceiling crosses a piece, at the slope the walk holds
    # (one value, -c, for every middle third), and the 8 components' ends
    # are read by point queries
    (["sun", "--fn", "cantor:9", "--c", "2"],
     {"__truediv__": 8, "__mul__": 44, "compare": 172, "_raw": 286,
      "__str__": 35}),
    # one component, (0, 1); its roof is the staircase's value at 1, read
    # once, since nothing jumps
    (["sun", "--fn", "cantor:9"],
     {"__mul__": 28, "compare": 88, "_raw": 162, "__str__": 5}),
    # the mesh survey walks 2 187 cells against the staircase's 256
    # abscissae on integers over one denominator, L = 2 * 3^7: the cells
    # compare no values, and each builds two, its hi and its witness, so the
    # one division is the cell count's, and the values are the cells' 4 374,
    # the abscissae, the slope, the parsed mesh and the count's two; the
    # texts are each cell's hi and witness, the first lo, the mesh, the 254
    # nondifferentiable points and the two slopes, each written once
    (["diffreport", "--fn", "cantor:7", "--mesh", "1/2187"],
     {"__truediv__": 1, "_raw": 4634, "__str__": 4632}),
    # no breakpoint falls on a cell edge, L = 2 * 2185 * 3^7: the cell that
    # holds each of the 254 interior ones takes the midpoint of its widest
    # gap by an integer halving
    (["diffreport", "--fn", "cantor:7", "--mesh", "1/2185"],
     {"__truediv__": 1, "_raw": 4630, "__str__": 4628}),
    # the one digit reader enters the point by an integer divmod, and its
    # first digit, a 1 with no remainder, finds a breakpoint with a rising
    # piece on its left: the domain check's two compares, the staircase's
    # slope, the parsed point and its value
    (["dini", "--fn", "cantor:9", "--x", "1/3"],
     {"compare": 2, "_raw": 3, "__str__": 4}),
]
SWEEP_IDS = ["sun-9-c2", "sun-9", "diffreport-7-2187", "diffreport-7-2185",
             "dini-9"]


@pytest.mark.parametrize("argv, calls", SWEEP_COSTS, ids=SWEEP_IDS)
def test_pl_sweep_costs(monkeypatch, argv, calls):
    counts = _count_calls(monkeypatch)
    status, _ = run(argv)
    assert status == 0
    assert dict(counts) == calls


@pytest.mark.parametrize("argv, calls", SWEEP_COSTS, ids=SWEEP_IDS)
def test_pl_sweep_costs_on_a_shared_staircase(monkeypatch, argv, calls):
    # nothing is kept between ops on the same staircase: the second run
    # makes the first one's calls and gives its output
    counts = _count_calls(monkeypatch)
    first = run(argv)
    counts.clear()
    assert run(argv) == first
    assert first[0] == 0
    assert dict(counts) == calls


def test_sun_bound_reads_no_one_sided_limit(monkeypatch):
    # the bound reads each component's rise by values alone: the sweep
    # hands it the components, with no shadow check on their ends
    counts = Counter()
    for name in ("left_limit", "right_limit"):
        method = getattr(PLFunction, name)

        def counted(*args, _name=name, _method=method):
            counts[_name] += 1
            return _method(*args)
        monkeypatch.setattr(PLFunction, name, counted)
    result = sun_measure_bound(PLFunction.cantor_staircase(9), 10)
    assert len(result.components) == 128
    assert dict(counts) == {}


def test_sun_bound_builds_no_shifted_function(monkeypatch):
    # the walk reads each limit less c x and each slope less c off f
    # itself: a PLFunction for f - c x would re-check the strict increase
    # of its 200 abscissae by 199 more compares
    f = PLFunction.from_values([(F(i, 199), 3 * ((i + 1) // 2))
                                for i in range(200)])
    built = []
    init = PLFunction.__init__

    def counted_init(self, points):
        built.append(self)
        init(self, points)
    monkeypatch.setattr(PLFunction, "__init__", counted_init)
    counts = _count_calls(monkeypatch)
    result = sun_measure_bound(f, 310)
    # g = f - 310 x rises at 287 and falls at 310 by turns: each component
    # but the first starts at a crossing on a falling piece, and each
    # ends at the top of a rising one
    assert len(result.components) == 100
    assert built == []
    assert dict(counts) == {"__truediv__": 199, "__mul__": 499,
                            "compare": 3258, "_raw": 1993}


# (depth, c) -> nodes the staircase walk visits, and the components found
@pytest.mark.parametrize("depth, c, nodes, components", [
    (9, "3/2", 30, 4), (9, "2", 36, 8), (9, "4", 80, 32),
    (18, "3/2", 57, 4), (18, "2", 63, 8), (18, "4", 107, 32),
])
def test_staircase_walk_visits_nodes_by_components(depth, c, nodes,
                                                   components):
    # nine more levels add 27 nodes, three per level, and no component:
    # the work grows with depth and components, where the sweep it replaced
    # doubled with each level
    walk = analysis.StaircaseSun(CantorStaircase(depth), exact(c))
    assert (walk.nodes, len(walk.components)) == (nodes, components)
    assert walk.components == \
        sun_measure_bound(CantorStaircase(depth), exact(c)).components
