from fractions import Fraction as F

import pytest

from exactlab import PHI, PLFunction, exact
from exactlab.cli import run
from exactlab.errors import OutOfDomain
from exactlab.plfun import CantorStaircase
from test_golden_reports import workloads


def test_eval_linear_pieces():
    f = PLFunction.from_values([(0, 0), (1, 2), (2, 1)])
    assert f(F(1, 2)) == exact(1)
    assert f(F(3, 2)) == exact(F(3, 2))
    assert f(0) == exact(0)
    assert f(2) == exact(1)


def test_eval_at_jump_returns_right_limit():
    f = PLFunction([(0, 0, 0), (1, F(1, 2), 1), (2, F(3, 2), F(3, 2))])
    assert f(1) == exact(1)
    assert f.left_limit(1) == exact(F(1, 2))
    assert f.right_limit(1) == exact(1)


def test_limits_inside_pieces_match_value():
    f = PLFunction.from_values([(0, 0), (2, 4)])
    assert f.left_limit(1) == f(1) == f.right_limit(1) == exact(2)


def test_limits_at_domain_ends():
    f = PLFunction.from_values([(0, 0), (1, 1)])
    with pytest.raises(OutOfDomain):
        f.left_limit(0)
    with pytest.raises(OutOfDomain):
        f.right_limit(1)
    assert f.right_limit_or_value(1) == exact(1)


def test_out_of_domain():
    f = PLFunction.from_values([(0, 0), (1, 1)])
    with pytest.raises(OutOfDomain):
        f(2)
    with pytest.raises(OutOfDomain):
        f(F(-1, 2))


def test_monotone_flags():
    up = PLFunction.from_values([(0, 0), (1, 1), (2, 3)])
    assert up.is_nondecreasing() and up.is_strictly_increasing()
    flat = PLFunction.constant(0, 1, 5)
    assert flat.is_nondecreasing() and not flat.is_strictly_increasing()
    wiggle = PLFunction.from_values([(0, 0), (1, 2), (2, 1)])
    assert not wiggle.is_nondecreasing()
    jumpy = PLFunction([(0, 0, 0), (1, 1, 2), (2, 3, 3)])
    assert jumpy.is_strictly_increasing()
    drop = PLFunction([(0, 0, 0), (1, 1, F(1, 2)), (2, 1, 1)])
    assert not drop.is_nondecreasing()
    fall = PLFunction.from_values([(0, 1), (1, 0)])
    assert not fall.is_nondecreasing() and not fall.is_strictly_increasing()
    assert not wiggle.is_strictly_increasing()


def test_step_function_builder():
    f = PLFunction.step_function(0, 3, [(1, F(1, 2)), (2, F(1, 4))])
    assert f(F(1, 2)) == exact(0)
    assert f(1) == exact(F(1, 2))
    assert f.left_limit(1) == exact(0)
    assert f(F(5, 2)) == exact(F(3, 4))
    assert f.is_nondecreasing()


def test_cantor_staircase_shape():
    f1 = PLFunction.cantor_staircase(1)
    assert [(str(p.x), str(p.right)) for p in f1.points] == \
        [("0", "0"), ("1/3", "1/2"), ("2/3", "1/2"), ("1", "1")]
    f6 = PLFunction.cantor_staircase(6)
    assert f6.is_nondecreasing()
    assert f6(0) == exact(0) and f6(1) == exact(1)
    assert f6(F(1, 2)) == exact(F(1, 2))
    # stage self-similarity: left third squeezes the previous stage
    f5 = PLFunction.cantor_staircase(5)
    for x in (F(1, 4), F(5, 9), F(7, 8)):
        assert f6(x / 3) == f5(x) / 2


def test_add_linear():
    f = PLFunction.from_values([(0, 0), (1, 1)])
    g = f.add_linear(1, -2)
    assert g(0) == exact(1)
    assert g(1) == exact(0)
    assert g(F(1, 2)) == exact(F(1, 2))


def test_continuous_breakpoints_share_one_limit():
    # an int, a Fraction or an ExactNumber value is coerced once per entry
    for v in (2, F(2, 3), exact(F(2, 3)) + PHI):
        f = PLFunction.from_values([(0, v), (1, v), (2, 5)])
        assert all(p.left is p.right for p in f.points)
    for f in (PLFunction.linear(0, 2, F(1, 3), 1),
              PLFunction.step_function(0, 3, [(1, F(1, 2))]),
              PLFunction.cantor_staircase(2)):
        assert f.points[0].left is f.points[0].right
        assert f.points[-1].left is f.points[-1].right
    # a jump keeps two limits; equal limits in two objects stay two
    f = PLFunction([(0, 0, 0), (1, F(1, 2), 1), (2, exact(3), exact(3))])
    assert f.points[1].left is not f.points[1].right
    assert f.points[2].left is not f.points[2].right
    # add_linear shifts a shared limit once and keeps it shared
    g = PLFunction.from_values([(0, 0), (1, F(1, 2)), (3, 2)]).add_linear(1, -2)
    assert all(p.left is p.right for p in g.points)
    assert [p.right for p in g.points] == [exact(1), exact(F(-1, 2)), exact(-3)]
    jumpy = PLFunction([(0, 0, 0), (1, F(1, 2), 1), (3, 2, 2)]).add_linear(0, 1)
    assert (jumpy.points[1].left, jumpy.points[1].right) == \
        (exact(F(3, 2)), exact(2))


def test_text_round_trip():
    f = PLFunction([(0, 0, 0), (1, F(1, 2), 1), (3, 2, 2)])
    again = PLFunction.parse(f.to_text())
    assert again.to_text() == f.to_text()
    assert [(p.x, p.left, p.right) for p in again.points] == \
        [(p.x, p.left, p.right) for p in f.points]


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        PLFunction.parse("0 0 0\n1 1 1\n")
    with pytest.raises(ValueError):
        PLFunction.parse("domain 0 1\n0 0\n1 1\n")
    with pytest.raises(ValueError):
        PLFunction.parse("domain 0 2\n0 0 0\n1 1 1\n")


def test_construction_validation():
    with pytest.raises(ValueError):
        PLFunction([(0, 0, 0)])
    with pytest.raises(ValueError):
        PLFunction([(0, 0, 0), (0, 1, 1)])


# -- the staircase's breakpoints ----------------------------------------------

@pytest.mark.parametrize("depth", range(8))
def test_a_staircase_lists_its_abscissae_once_on_first_read(depth):
    s = CantorStaircase(depth)
    xs = s.breakpoints
    assert s.breakpoints is xs
    # the two ends of each level-N triadic interval whose ternary digits
    # are all 0 or 2, in order
    starts = [0]
    for _ in range(depth):
        starts = [3 * a + d for a in starts for d in (0, 2)]
    assert xs == tuple(exact(F(a + e, 3 ** depth))
                       for a in starts for e in (0, 1))


def test_staircase_ops_report_the_same_cold_and_warm():
    # every op of the benchmark's universe that names a staircase, run twice
    # in one process: nothing the first run leaves behind changes a report
    ops = [list(op) for op in workloads.universe()
           if any(arg.startswith("cantor:") for arg in op)]
    assert ops
    cold = [run(op) for op in ops]
    assert [run(op) for op in ops] == cold
