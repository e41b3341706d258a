from fractions import Fraction as F

import pytest

from exactlab import PHI, PLFunction, exact, plfun
from exactlab.cli import run
from exactlab.errors import OutOfDomain
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


# -- the staircase memo --------------------------------------------------------

@pytest.fixture
def cold_memo(monkeypatch):
    monkeypatch.setattr(plfun, "_staircases", {})


def _limits(f):
    return [(p.x, p.left, p.right) for p in f.points]


def test_a_staircase_is_built_once_up_to_the_memo_depth(cold_memo):
    assert plfun.STAIRCASE_MEMO_DEPTH == 12
    for depth in range(plfun.STAIRCASE_MEMO_DEPTH + 1):
        f = PLFunction.cantor_staircase(depth)
        assert PLFunction.cantor_staircase(depth) is f
        assert len(f.points) == 2 ** (depth + 1)


def test_a_staircase_past_the_memo_depth_is_built_each_time(cold_memo):
    depth = plfun.STAIRCASE_MEMO_DEPTH + 1
    f = PLFunction.cantor_staircase(depth)
    g = PLFunction.cantor_staircase(depth)
    assert f is not g
    assert _limits(f) == _limits(g)
    assert plfun._staircases == {}


def test_a_shared_staircase_equals_a_fresh_build(cold_memo, monkeypatch):
    shared = [PLFunction.cantor_staircase(depth) for depth in range(10)]
    xs = [F(k, 97) for k in range(98)]
    for f in shared:  # fill part of each slope memo
        for x in xs[::3]:
            f(x)
    # no memo: each call builds and checks a new staircase
    monkeypatch.setattr(plfun, "_staircases", {})
    monkeypatch.setattr(plfun, "STAIRCASE_MEMO_DEPTH", -1)
    for depth, f in enumerate(shared):
        fresh = PLFunction.cantor_staircase(depth)
        assert fresh is not f and PLFunction.cantor_staircase(depth) is not fresh
        assert _limits(f) == _limits(fresh)
        assert [f(x) for x in xs] == [fresh(x) for x in xs]
        assert [f.left_limit(x) for x in xs[1:]] == \
            [fresh.left_limit(x) for x in xs[1:]]
        assert [f.slope(i) for i in range(len(f.points) - 1)] == \
            [fresh.slope(i) for i in range(len(fresh.points) - 1)]


def test_staircase_ops_report_the_same_cold_and_warm(cold_memo):
    # every op of the benchmark's universe that names a staircase, run twice
    # in one process: the second run reads every staircase and slope the
    # first one left behind
    ops = [list(op) for op in workloads.universe()
           if any(arg.startswith("cantor:") for arg in op)]
    assert ops
    cold = [run(op) for op in ops]
    assert plfun._staircases
    assert [run(op) for op in ops] == cold
