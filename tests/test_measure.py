from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from exactlab import (
    ExactNumber,
    FiniteUnion,
    Interval,
    PHI,
    cover_mass,
    exact,
    local_null_check,
    outer_measure,
    subadditivity_check,
)
from exactlab.cli import run
from exactlab.errors import UnboundedInterval

from conftest import rand_fraction


def test_cover_mass_examples():
    assert cover_mass([Interval(0, F(1, 2)), Interval(F(1, 4), F(3, 4))]) \
        == exact(1)
    assert cover_mass([]) == exact(0)
    assert cover_mass([Interval(0, PHI - 1), Interval(PHI - 1, 1)]) == exact(1)


def test_cover_mass_unbounded_rejected():
    with pytest.raises(UnboundedInterval):
        cover_mass([Interval(0, None)])


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1, 1)
    with pytest.raises(ValueError):
        Interval(2, 1)


def test_outer_measure_examples():
    assert outer_measure(FiniteUnion([(0, 1)])) == exact(1)
    assert outer_measure(FiniteUnion(points=[F(1, 2)])) == exact(0)
    assert outer_measure(FiniteUnion.parse("(0,1/2] [1/2,3/4)")) == exact(F(3, 4))


def test_normalization_merges_touching():
    u = FiniteUnion([(0, F(1, 2)), (F(1, 2), 1)])
    assert u.intervals == ((exact(0), exact(1)),)
    v = FiniteUnion([(0, F(1, 2)), (F(1, 4), F(3, 4))])
    assert v.measure() == exact(F(3, 4))
    w = FiniteUnion([(0, 1)], points=[F(1, 2), 2])
    assert w.points == (exact(2),)


def test_outer_measure_monotone_and_subadditive(rng):
    for _ in range(80):
        def random_union():
            ivs = []
            for _ in range(rng.randrange(4)):
                a = rand_fraction(rng, signed=False)
                b = a + F(rng.randrange(1, 30), rng.randrange(1, 20))
                ivs.append((a, b))
            pts = [rand_fraction(rng, signed=False)
                   for _ in range(rng.randrange(3))]
            return FiniteUnion(ivs, pts)
        x = random_union()
        y = random_union()
        both = x.union(y)
        assert both.measure() <= x.measure() + y.measure()
        assert x.measure() <= both.measure()


def test_subadditivity_worked_example():
    report = subadditivity_check(
        [FiniteUnion([(0, F(2, 3))]), FiniteUnion([(F(1, 3), 1)])])
    assert report.mu_union == exact(1)
    assert report.slack == exact(F(1, 3))
    assert report.holds


def test_subadditivity_disjoint_and_null():
    disjoint = subadditivity_check(
        [FiniteUnion([(0, 1)]), FiniteUnion([(2, 3)])])
    assert disjoint.slack == exact(0)
    null = subadditivity_check(
        [FiniteUnion(points=[1]), FiniteUnion(points=[2])])
    assert null.mu_union == exact(0) and null.holds


def test_local_null_points_pass_everywhere():
    report = local_null_check(FiniteUnion(points=[0, 1, 2]), F(1, 4),
                              [Interval(-1, 3), Interval(0, 1)])
    assert report.measure_zero
    assert report.violator is None
    assert all(p.hypothesis_holds for p in report.probes)


def test_local_null_finds_violating_interval():
    report = local_null_check(FiniteUnion([(0, F(1, 2))]), F(1, 4),
                              [Interval(0, 1)])
    assert not report.measure_zero
    assert report.violator is not None
    lo, hi = report.violator.lo, report.violator.hi
    inside = FiniteUnion([(0, F(1, 2))]).intersect(lo, hi).measure()
    assert inside > exact(F(1, 4)) * report.violator.width()


def test_local_null_cantor_stage():
    # stage-2 middle-thirds set: retained ninths violate any delta < 1
    stage2 = FiniteUnion([(0, F(1, 9)), (F(2, 9), F(3, 9)),
                          (F(6, 9), F(7, 9)), (F(8, 9), 1)])
    report = local_null_check(stage2, F(1, 2), [Interval(0, 1)])
    assert report.violator is not None
    lo, hi = report.violator.lo, report.violator.hi
    assert (lo, hi) in stage2.intervals


def test_local_null_delta_range():
    with pytest.raises(ValueError):
        local_null_check(FiniteUnion(), 1, [Interval(0, 1)])
    with pytest.raises(ValueError):
        local_null_check(FiniteUnion(), F(1, 2), [])


def test_intersect():
    u = FiniteUnion([(0, 2), (3, 5)], points=[F(5, 2), 6])
    clipped = u.intersect(1, 4)
    assert clipped.intervals == ((exact(1), exact(2)), (exact(3), exact(4)))
    assert clipped.points == (exact(F(5, 2)),)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        FiniteUnion.parse("interval")


def _unions():
    """Finite unions over one radicand: rational or quadratic ends and
    points, overlapping draws merged by the constructor; the empty union
    too."""
    def number(m):
        rational = st.fractions(min_value=-5, max_value=5, max_denominator=30)
        return st.one_of(rational.map(exact),
                         st.builds(lambda a, b: ExactNumber(a, b, m),
                                   rational, rational))

    def union(m):
        ends = st.tuples(number(m), number(m)).filter(lambda p: p[0] != p[1])
        return st.builds(
            lambda pairs, points: FiniteUnion([sorted(p) for p in pairs],
                                              points),
            st.lists(ends, max_size=4), st.lists(number(m), max_size=3))
    return st.sampled_from([2, 3, 5]).flatmap(union)


@given(_unions())
def test_parse_reads_back_every_printed_union(X):
    assert FiniteUnion.parse(str(X)) == X


def test_the_empty_union_reads_back():
    assert str(FiniteUnion([], [])) == "{}"
    assert FiniteUnion.parse("{}") == FiniteUnion([], [])
    assert FiniteUnion.parse("{} (0,1)") == FiniteUnion([(0, 1)], [])
    assert run(["measure", "outer", "{}"]) == (0, ["0"])
