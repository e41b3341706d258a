from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from exactlab import (
    CallableOracle,
    ComposedOracle,
    DiscreteSet,
    ExactNumber,
    GrowableSet,
    PHI,
    RotationOracle,
    SegmentOrder,
    TableOracle,
    exact,
    image,
    is_approx_segment,
    is_nat_segment,
    perturb,
    segment_order,
    segment_union,
)
from exactlab.dsets import ValueColumn
from exactlab.orbit import Orbit
from exactlab.errors import (
    CapExceeded,
    EmptySet,
    EpsTooLarge,
    NoSuccessor,
    NotASegment,
    NotAMember,
    OracleDomainError,
    RadicandMismatch,
    ShiftTooLarge,
)

from conftest import alphas, rand_fraction, rand_nat_segment


def test_successor():
    D = DiscreteSet([0, 1, F(5, 2)])
    assert D.successor(1) == exact(F(5, 2))
    assert DiscreteSet([0, F(1, 3), F(1, 2), 2]).successor(F(1, 3)) == exact(F(1, 2))


def test_successor_errors():
    with pytest.raises(NoSuccessor):
        DiscreteSet([0]).successor(0)
    with pytest.raises(NotAMember):
        DiscreteSet([0, 1]).successor(F(1, 2))


def test_restrict():
    D = DiscreteSet.naturals(3)
    assert D.restrict(F(3, 2)) == DiscreteSet([0, 1])
    assert DiscreteSet.naturals(2).restrict(-1) == DiscreteSet([])
    assert DiscreteSet.naturals(2).restrict(2) == DiscreteSet.naturals(2)


def test_nonnegativity_enforced():
    with pytest.raises(ValueError):
        DiscreteSet([-1, 0])


def test_image_of_rotation():
    D = DiscreteSet.naturals(4)
    img = image(D, RotationOracle(PHI))
    expected = [exact(0), 2 * PHI - 3, 4 * PHI - 6, PHI - 1, 3 * PHI - 4]
    assert list(img) == expected
    assert img.min() == exact(0)
    assert img.max() == 3 * PHI - 4


def test_image_collapses_duplicates_and_empty():
    assert len(image(DiscreteSet([]), RotationOracle(PHI))) == 0
    img = image(DiscreteSet([0, 1]), TableOracle({0: 5, 1: 5}))
    assert list(img) == [exact(5)]


def test_image_achieves_min_max(rng):
    for _ in range(30):
        keys = sorted({rng.randrange(50) for _ in range(rng.randrange(1, 12))})
        table = {k: rand_fraction(rng) for k in keys}
        img = image(DiscreteSet(keys), TableOracle(table))
        values = [exact(v) for v in table.values()]
        assert img.min() == min(values)
        assert img.max() == max(values)


def test_table_oracle_partiality_is_an_error():
    with pytest.raises(OracleDomainError):
        image(DiscreteSet([0, 1, 2]), TableOracle({0: 1, 1: 2}))


def test_dist():
    assert DiscreteSet([0, 1, 2]).dist(2) == exact(0)
    assert DiscreteSet([F(1, 2), 3]).dist(0) == exact(F(1, 2))
    assert DiscreteSet([0, F(103, 100), F(202, 100)]).dist(2) == exact(F(2, 100))
    with pytest.raises(EmptySet):
        DiscreteSet([]).dist(0)


def test_is_nat_segment():
    assert is_nat_segment(DiscreteSet([]))
    assert is_nat_segment(DiscreteSet.naturals(3))
    assert not is_nat_segment(DiscreteSet([0, 1, F(5, 2)]))
    assert not is_nat_segment(DiscreteSet([1, 2]))


def test_segment_order():
    assert segment_order(DiscreteSet.naturals(1),
                         DiscreteSet.naturals(2)) is SegmentOrder.D_SUB_E
    assert segment_order(DiscreteSet([]),
                         DiscreteSet.naturals(0)) is SegmentOrder.D_SUB_E
    assert segment_order(DiscreteSet.naturals(2),
                         DiscreteSet.naturals(2)) is SegmentOrder.EQUAL
    assert segment_order(DiscreteSet.naturals(5),
                         DiscreteSet.naturals(1)) is SegmentOrder.E_SUB_D


def test_segment_order_rejects_non_segments():
    with pytest.raises(NotASegment):
        segment_order(DiscreteSet([0, 2]), DiscreteSet.naturals(1))


def test_segment_union():
    assert segment_union([DiscreteSet.naturals(1), DiscreteSet.naturals(3)]) \
        == DiscreteSet.naturals(3)
    assert segment_union([DiscreteSet([])]) == DiscreteSet([])
    family = [DiscreteSet.naturals(k) for k in range(3)]
    assert segment_union(family) == DiscreteSet.naturals(2)


def test_segment_calculus_random(rng):
    # segments are always nested and closed under union
    for _ in range(300):
        D = rand_nat_segment(rng)
        E = rand_nat_segment(rng)
        assert segment_order(D, E) in tuple(SegmentOrder)
        assert is_nat_segment(segment_union([D, E]))


def test_is_approx_segment_examples():
    D = DiscreteSet([F(1, 100), F(103, 100), F(202, 100)])
    assert is_approx_segment(D, F(5, 100), 2)
    assert is_approx_segment(DiscreteSet.naturals(2), F(1, 1000), 2)
    assert not is_approx_segment(DiscreteSet([0, F(3, 2)]), F(1, 4), F(3, 2))
    with pytest.raises(EmptySet):
        is_approx_segment(DiscreteSet([]), F(1, 10), 1)


def test_exact_segments_pass_every_tolerance(rng):
    for n in (0, 1, 5, 11):
        for eps in (F(1, 1000), F(1, 10), F(3, 4)):
            assert is_approx_segment(DiscreteSet.naturals(n), eps, n)


def test_perturb_worked_example():
    shifts = TableOracle({0: F(1, 20), 1: F(-1, 20), 2: F(2, 25)})
    out = perturb(DiscreteSet.naturals(2), shifts, F(1, 10), 2)
    assert out == DiscreteSet([F(1, 20), F(19, 20), F(52, 25)])
    assert is_approx_segment(out, F(3, 10), 2)


def test_perturb_identity():
    shifts = TableOracle({0: 0, 1: 0})
    assert perturb(DiscreteSet.naturals(1), shifts, F(1, 10), 1) \
        == DiscreteSet.naturals(1)


def test_perturb_shift_bound_is_strict():
    shifts = TableOracle({0: F(1, 5), 1: 0})
    with pytest.raises(ShiftTooLarge):
        perturb(DiscreteSet.naturals(1), shifts, F(1, 10), 1)


def test_perturb_eps_bound():
    shifts = TableOracle({0: 0, 1: 0})
    with pytest.raises(EpsTooLarge):
        perturb(DiscreteSet.naturals(1), shifts, F(1, 4), 1)


def test_perturb_requires_segment_input():
    shifts = TableOracle({0: 0, F(3, 2): 0})
    with pytest.raises(NotASegment):
        perturb(DiscreteSet([0, F(3, 2)]), shifts, F(1, 10), F(3, 2))


def test_perturb_preserves_order_randomized(rng):
    # random tolerances and shifts, all strictly inside their bounds
    for _ in range(200):
        n = rng.randrange(1, 10)
        base = DiscreteSet.naturals(n)
        eps = F(rng.randrange(1, 250), 1000)
        shifts = TableOracle({
            k: eps * F(rng.randrange(-999, 1000), 1000) for k in range(n + 1)})
        out = perturb(base, shifts, eps, n)
        assert len(out) == n + 1
        assert is_approx_segment(out, 3 * eps, n)


def test_growable_prefix_and_grow():
    G = GrowableSet()
    grown = G.grow(lambda p: len(p) > 0 and p.max() > 10)
    assert grown == DiscreteSet.naturals(11)
    assert G.materialized_bound == 11


def test_growable_cap():
    G = GrowableSet(cap=5)
    with pytest.raises(CapExceeded):
        G.grow(lambda p: p.max() > 100)
    with pytest.raises(CapExceeded):
        G.element(6)


def test_growable_rejects_negative_index():
    # a negative index must not wrap around to the last materialized element
    G = GrowableSet()
    with pytest.raises(ValueError, match="non-negative, got -1"):
        G.element(-1)
    G.element(3)
    with pytest.raises(ValueError, match="non-negative, got -1"):
        G.element(-1)
    with pytest.raises(ValueError, match="non-negative, got -3"):
        G.prefix(-3)
    assert G.materialized_bound == 3


def test_grow_rotation_window():
    G = GrowableSet()
    rot = RotationOracle(PHI)
    lo, hi = exact(F(23, 100)), exact(F(24, 100))
    found = G.grow(lambda p: any(lo < rot.eval(d) < hi for d in p))
    assert found == DiscreteSet.naturals(2)


def test_growable_generator_discreteness_witness():
    G = GrowableSet(generator=lambda k: ExactNumber(F(k, 10)), min_gap=1)
    with pytest.raises(ValueError):
        G.element(1)


def test_rotation_oracle_contract(rng):
    rot = RotationOracle(PHI)
    for n in range(50):
        v = rot.eval(ExactNumber(n))
        assert exact(0) <= v < exact(1)
        assert v == (ExactNumber(n) * PHI).frac()
    with pytest.raises(ValueError):
        RotationOracle(exact(F(3, 2)))


def test_rotation_oracle_non_integer_argument():
    rot = RotationOracle(PHI)
    x = exact(F(1, 2))
    assert rot.eval(x) == (x * PHI).frac()


def test_mirror():
    assert list(DiscreteSet([0, 1]).mirror()) == [exact(-1), exact(0), exact(1)]


def test_set_literal_parse():
    D = DiscreteSet.parse("{0, 1, 3/2, 1/2+1/2*sqrt(5)}")
    assert len(D) == 4 and D.max() == PHI
    assert DiscreteSet.parse("{}") == DiscreteSet([])
    with pytest.raises(ValueError):
        DiscreteSet.parse("0, 1")


def test_callable_oracle():
    double = CallableOracle(lambda x: x * 2)
    assert double.eval(exact(3)) == exact(6)


def test_composed_oracle():
    rot = RotationOracle(PHI)
    shifted = ComposedOracle(CallableOracle(lambda x: x + 1), rot)
    assert shifted.eval(exact(2)) == rot.eval(exact(2)) + 1
    with pytest.raises(OracleDomainError):
        ComposedOracle(TableOracle({}), rot).eval(exact(0))


@given(alpha=alphas(), data=st.data())
def test_rotation_values_match_exact_compares(alpha, data):
    # the oracle's values and the first-hit engine's against plain exact
    # arithmetic, and the engine's reading of a cut against its compares
    f = RotationOracle(alpha)
    top = data.draw(st.integers(0, 300))
    values = [f.eval(exact(i)) for i in range(top + 1)]
    q = Orbit(GrowableSet(cap=300), f)
    m = alpha.m
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=50)
    cuts = data.draw(st.lists(
        st.one_of(coef.map(exact),
                  st.builds(lambda a, b: ExactNumber(a, b, m), coef, coef)),
        min_size=1, max_size=4))
    indices = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=8))
    cuts.append(values[indices[0]])
    for i in indices:
        v = values[i]
        assert v == (i * alpha).frac() == q.value(i)
    for c in cuts:
        above = [i for i in range(top + 1) if values[i].compare(c) > 0]
        assert q.first_hit(0, c, None, lo_open=True, upto=top) == \
            (above[0] if above else None)
    other = (ExactNumber(-1, F(1, 2), 11) if m != 11
             else ExactNumber(-1, 1, 2))  # in (0, 1)
    for i in indices:
        if i > 0:
            with pytest.raises(RadicandMismatch):
                values[i].compare(other)
            with pytest.raises(RadicandMismatch):
                q.first_hit(i, other, None, upto=top)


def test_rotation_values_with_wide_coefficients():
    # the rational coefficient of frac(n * alpha) is about -n * 1.4 * 10^17,
    # which leaves 64 bits near n = 65
    alpha = ExactNumber(0, F(10 ** 17 + 1, 10 ** 17), 2)
    f = RotationOracle(alpha)
    q = Orbit(GrowableSet(cap=0), f)
    for i in range(201):
        assert f.eval(exact(i)) == (i * alpha).frac() == q.value(i)


@st.composite
def rotation_arguments(draw):
    """A natural past 2^63, a negative integer or a non-integer rational."""
    kind = draw(st.sampled_from(["large", "negative", "fraction"]))
    if kind == "large":
        return draw(st.sampled_from([2 ** 64, 10 ** 30])) + \
            draw(st.integers(0, 1000))
    if kind == "negative":
        return -draw(st.integers(1, 10 ** 30))
    x = draw(st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                          max_denominator=10 ** 6))
    return x if x.denominator > 1 else x + F(1, 2)


@given(alpha=alphas(), x=rotation_arguments())
def test_rotation_eval_is_the_fractional_part(alpha, x):
    f = RotationOracle(alpha)
    v = f.eval(exact(x))
    assert exact(0) <= v < exact(1)
    assert (exact(x) * alpha - v).is_integer
    if isinstance(x, int) and x >= 0:
        assert v == Orbit(GrowableSet(cap=0), f).value(x)


def test_counts_past_2_to_the_63():
    G = GrowableSet(cap=2 ** 70)
    n = 2 ** 64
    assert G.element(n) == exact(n)
    assert G.materialized_bound == n
    assert G.index_of(exact(n)) == n and G.index_of(exact(n - 5)) == n - 5
    with pytest.raises(ValueError, match="is not materialized"):
        G.index_of(exact(n + 1))
    with pytest.raises(ValueError, match="is not materialized"):
        G.index_of(exact(F(1, 2)))
    G = GrowableSet(cap=10)
    G.element(4)
    assert len(G._elems) == 5 and G.materialized_bound == 4


def test_naturals_keep_a_count_and_other_generators_a_list():
    G = GrowableSet(cap=10)
    G.element(4)
    assert len(G._elems) == 5 and tuple(G._elems) == DiscreteSet.naturals(4).elements
    assert G._elems[1:3] == [exact(1), exact(2)]
    assert G.materialized() == DiscreteSet.naturals(4)
    halves = GrowableSet(generator=lambda k: exact(F(k, 2)), min_gap=F(1, 2))
    assert halves.element(3) == exact(F(3, 2)) and len(halves._elems) == 4
    # a witness above the naturals' gap must still fail the gap check
    with pytest.raises(ValueError, match="discreteness witness"):
        GrowableSet(min_gap=2).element(1)


def test_a_fresh_set_has_nothing_materialized():
    calls = []

    def halves(k):
        calls.append(k)
        return exact(F(k, 2))
    for G in (GrowableSet(cap=10),
              GrowableSet(generator=halves, cap=10, min_gap=F(1, 2))):
        assert G.materialized() == DiscreteSet([])
        assert G.materialized_bound == -1 and calls == []
        G.element(2)
        assert G.materialized() == G.prefix(2)
        assert len(G.materialized()) == 3 and G.materialized_bound == 2
    assert calls == [0, 1, 2]


def test_a_naturals_prefix_is_a_view_equal_to_the_tuple_set():
    G = GrowableSet(cap=100)
    for k in (0, 1, 7, 50):
        view = G.prefix(k)
        assert view == DiscreteSet.naturals(k) == view
        assert hash(view) == hash(DiscreteSet.naturals(k))
        assert list(view) == list(DiscreteSet.naturals(k))
    assert G.prefix(3) != DiscreteSet([0, 1, 2, F(7, 2)])
    assert G.prefix(3) != G.prefix(4)


def test_a_prefix_handed_out_keeps_its_size_as_the_set_grows():
    G = GrowableSet(cap=100)
    early = G.prefix(4)
    G.element(60)
    assert len(early) == 5 and early.max() == exact(4)
    assert early == DiscreteSet.naturals(4)
    assert len(G.prefix(60)) == 61


def test_restrict_on_a_view_returns_a_view():
    view = GrowableSet(cap=100).prefix(20)
    for bound, size in [(F(15, 2), 8), (7, 8), (-1, 0), (F(-1, 2), 0),
                        (20, 21), (10 ** 40, 21), (PHI + 5, 7)]:
        part = view.restrict(bound)
        assert type(part.elements) is type(view.elements)
        assert part == DiscreteSet.naturals(20).restrict(bound)
        assert len(part) == size


def test_a_huge_prefix_builds_no_element(monkeypatch):
    G = GrowableSet(cap=10 ** 13)
    small = DiscreteSet.naturals(3)
    built = []
    raw = ExactNumber._raw
    monkeypatch.setattr(ExactNumber, "_raw", staticmethod(
        lambda *args: built.append(args) or raw(*args)))
    D = G.prefix(10 ** 12)
    # equality reads counts, and a view's repr names its count
    assert D == G.prefix(10 ** 12) != G.prefix(10 ** 12 - 1)
    assert D != small != D
    assert repr(D) == "DiscreteSet(<the first 1000000000001 naturals>)"
    assert built == []
    part = D.restrict(10 ** 9)
    assert G.materialized_bound == 10 ** 12
    assert D.elements.n == 10 ** 12 + 1 and part.elements.n == 10 ** 9 + 1
    assert D[-1] == exact(10 ** 12)


def test_a_prefix_past_2_to_the_63_answers_every_query():
    D = GrowableSet(cap=2 ** 70).prefix(2 ** 64)
    top = exact(2 ** 64)
    assert D and D.min() == exact(0) and D.max() == top
    assert 5 in D and top in D and F(5, 2) not in D
    assert exact(2 ** 64 + 1) not in D and -1 not in D
    assert D.successor(5) == exact(6)
    with pytest.raises(NoSuccessor):
        D.successor(top)
    assert D.dist(F(2 ** 65 + 1, 2)) == exact(F(1, 2))
    assert D.dist(2 ** 66) == exact(2 ** 66 - 2 ** 64)
    assert D.dist(-3) == exact(3)
    with pytest.raises(OverflowError):
        len(D)
    same = GrowableSet(cap=2 ** 70).prefix(2 ** 64)
    assert D == same and hash(D) == hash(same)
    assert D != D.restrict(2 ** 64 - 1) and D != DiscreteSet.naturals(5)
    assert D.restrict(2 ** 63) == same.restrict(2 ** 63 + F(1, 2))
    assert repr(D) == f"DiscreteSet(<the first {2 ** 64 + 1} naturals>)"
    empty = GrowableSet(cap=5).prefix(3).restrict(-1)
    assert not empty
    with pytest.raises(EmptySet):
        empty.max()


@st.composite
def column_queries(draw):
    """A list of values, rationals and numbers in one radicand drawn from
    a small pool so that values repeat, and queries to ask a column of
    them: each query's name, then its arguments."""
    m = draw(st.sampled_from([2, 3, 5]))
    coef = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    numbers = coef.map(exact) | st.builds(
        lambda p, q: ExactNumber(p, q, m), coef, coef)
    pool = draw(st.lists(numbers, min_size=1, max_size=5))
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    # a few cuts and windows, so that queries repeat them
    ends = st.sampled_from(draw(st.lists(numbers | st.sampled_from(values),
                                         min_size=1, max_size=3)))
    some = st.sampled_from(values)
    # and the window of all the values, so that some hold three or more
    windows = st.sampled_from(draw(st.lists(
        st.tuples(some, some).map(sorted), min_size=1, max_size=2))
        + [(min(values), max(values))])
    index = st.integers(0, len(values) - 1)

    def window_query(name, k, window):
        # a widest gap is asked only of a window holding two values
        if len(_inside(values, k, *window)) < 2:
            name = "second_hit"
        return name, k, *window
    query = (
        st.builds(window_query,
                  st.sampled_from(["second_hit", "widest_gap"]), index,
                  windows)
        | st.tuples(st.just("first_hit"), index, st.none() | ends,
                    st.none() | ends, st.booleans(), st.booleans(),
                    st.none() | index)
        | st.tuples(st.just("chain"), ends, index, st.booleans())
        | st.tuples(st.just("orbit_index"), ends))
    return values, draw(st.lists(query, min_size=1, max_size=20))


def _ask(col, query):
    name, *args = query
    try:
        return getattr(col, name)(*args)
    except (CapExceeded, IndexError) as err:
        return type(err)


def _inside(values, k, lo, hi):
    """The distinct values in [lo, hi] through index k, sorted."""
    return sorted({v for v in values[:k + 1] if lo <= v <= hi})


def _scan(values, query, seen, past):
    """The answer by a comprehension over ``values``.  ``orbit_index``
    looks at the first ``seen`` of them, and a first or second hit that
    reads past the last one gets ``past``, the error a column raises
    there."""
    name, *args = query
    if name == "second_hit":
        k, lo, hi = args
        return next((n for n in range(k, len(values))
                     if len(_inside(values, n, lo, hi)) > 1), past)
    if name == "widest_gap":
        inside = _inside(values, *args)
        return max(zip(inside, inside[1:]), key=lambda p: p[1] - p[0])
    if name == "first_hit":
        n0, lo, hi, lo_open, hi_open, upto = args
        top = len(values) - 1 if upto is None else upto
        found = [i for i in range(n0, top + 1)
                 if (lo is None or (lo < values[i] if lo_open
                                    else lo <= values[i]))
                 and (hi is None or (values[i] < hi if hi_open
                                     else values[i] <= hi))]
        return found[0] if found else None if upto is not None else past
    if name == "chain":
        cut, k, below = args
        side = [i for i in range(k + 1)
                if (values[i] < cut if below else values[i] > cut)]
        return [i for i in side
                if all(values[i] >= values[j] if below
                       else values[i] <= values[j]
                       for j in side if j < i)]
    (v,) = args
    return next((i for i in range(seen) if values[i] == v), None)


@given(case=column_queries(),
       kind=st.sampled_from(["whole", "lazy", "growable"]))
def test_a_column_remembers_nothing_but_its_values(case, kind):
    # a column evaluated whole, one that reads its fixed elements lazily,
    # and one that reads a growable set lazily, as an extraction's does:
    # after any queries, each answer is a fresh column's holding the same
    # values, and a plain scan's.  Over a growable set, orbit_index looks
    # only at the indices read so far, and reading past the cap raises.
    values, asked = case
    last = len(values) - 1
    elems = [exact(i) for i in range(last + 1)]
    f = TableOracle(dict(enumerate(values)))

    def fresh(read):
        if kind == "whole":
            return ValueColumn(elems, list(values), f=f)
        if kind == "lazy":
            return ValueColumn(elems, [], f=f)
        H = GrowableSet(cap=last)
        return ValueColumn(H._elems, [f.eval(H.element(i))
                                      for i in range(read + 1)], H, f)
    G = GrowableSet(cap=last)
    col = ValueColumn(G._elems, [], G, f) if kind == "growable" else fresh(-1)
    for query in asked:
        read = G.materialized_bound if kind == "growable" else last
        want = _scan(values, query, read + 1,
                     CapExceeded if kind == "growable" else IndexError)
        assert _ask(col, query) == _ask(fresh(read), query) == want, query
