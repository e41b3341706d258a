"""The first-hit engine against brute force over the rotation's column.

Each drawn rotation's first values come from the oracle's raw coefficient
column (itself checked against exact arithmetic in ``test_dsets.py``); a
query must return what a plain scan of those values returns, for every
closure of the interval's ends.
"""

import inspect
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from exactlab import (
    PHI, SQRT2, SQRT3, DiscreteSet, ExactNumber, GrowableSet, RotationOracle,
    approximate_target, exact, extract, trace_report,
)
from exactlab import extraction
from exactlab.cli import run
from exactlab.dsets import ValueColumn
from exactlab.errors import CapExceeded, ExactLabError, RadicandMismatch
from exactlab.orbit import Orbit

from conftest import alphas
from reference_orbit import hits as reference_hits
from reference_orbit import least as reference_least
from reference_orbit import record_chain as reference_chain

LIMIT = 1200


def _inside(v, lo, hi, lo_open, hi_open):
    if lo is not None:
        s = v.compare(lo)
        if s < 0 or (s == 0 and lo_open):
            return False
    if hi is not None:
        s = v.compare(hi)
        if s > 0 or (s == 0 and hi_open):
            return False
    return True


def _setup(alpha):
    f = RotationOracle(alpha)
    values = [f.eval(exact(n)) for n in range(LIMIT + 1)]
    return Orbit(GrowableSet(cap=LIMIT), f), values


def _ends(values):
    """Interval ends: none, a rational, an orbit value, or an orbit value
    moved by a hair."""
    orbit = st.integers(0, LIMIT).map(values.__getitem__)
    return st.one_of(
        st.none(),
        st.fractions(min_value=F(-1, 4), max_value=F(5, 4),
                     max_denominator=60).map(exact),
        orbit, orbit,
        st.builds(lambda v, h: v + F(h, 10 ** 9), orbit,
                  st.integers(-3, 3)))


@settings(max_examples=150)
@given(alpha=alphas(), data=st.data())
def test_first_hit_matches_brute_force(alpha, data):
    q, values = _setup(alpha)
    ends = _ends(values)
    lo, hi = data.draw(ends), data.draw(ends)
    n0 = data.draw(st.one_of(st.integers(0, 20), st.integers(0, LIMIT)))
    for lo_open in (False, True):
        for hi_open in (False, True):
            want = next((n for n in range(n0, LIMIT + 1)
                         if _inside(values[n], lo, hi, lo_open, hi_open)),
                        None)
            got = q.first_hit(n0, lo, hi, lo_open, hi_open, upto=LIMIT)
            assert got == want, (lo, hi, lo_open, hi_open, n0)


@settings(max_examples=60)
@given(alpha=alphas(), data=st.data())
def test_queries_match_a_column_scan(alpha, data):
    q, values = _setup(alpha)
    # a column that reads each value as a query first needs it
    col = ValueColumn([exact(n) for n in range(LIMIT + 1)], [],
                      f=RotationOracle(alpha))
    ends = _ends(values)
    cuts = ends.filter(lambda c: c is not None)
    k = data.draw(st.integers(0, LIMIT))
    # two windows, asked in turn: the engine takes a window inside [0, 1),
    # the column any.  A second hit is asked for when it is within LIMIT,
    # a widest gap when the window holds two values through k
    for _ in range(2):
        lo, hi = data.draw(cuts), data.draw(cuts)
        visits = [n for n in range(LIMIT + 1)
                  if _inside(values[n], lo, hi, False, False)]
        inside = sorted(values[n] for n in visits if n <= k)
        for engine in (q, col) if 0 <= lo < hi < 1 else (col,):
            if len(visits) > 1:
                assert engine.second_hit(k, lo, hi) == max(k, visits[1]), \
                    (k, lo, hi)
            if len(inside) > 1:
                assert engine.widest_gap(k, lo, hi) == _widest(inside), \
                    (k, lo, hi)
    # the four chains a ratio family reads: a's over k, b's over upto
    a, b = data.draw(cuts), data.draw(cuts)
    upto = data.draw(st.integers(k, LIMIT))
    for cut, bound in ((a, k), (b, upto)):
        for below in (True, False):
            assert q.chain(cut, bound, below) == \
                col.chain(cut, bound, below), (cut, bound, below)
    n = data.draw(st.integers(0, LIMIT))
    assert q.value(n) == values[n] == (n * alpha).frac()
    assert q.orbit_index(values[n]) == n
    assert q.orbit_index(values[n] + F(1, 10 ** 9)) is None


def _widest(inside):
    """The first widest gap between neighbours of a sorted list."""
    return max(zip(inside, inside[1:]), key=lambda p: p[1] - p[0])


def _public_methods(cls):
    return {name for name, _ in inspect.getmembers(cls, callable)
            if not name.startswith("_")}


def _parameters(method):
    return [(p.name, p.default)
            for p in inspect.signature(method).parameters.values()]


def test_both_engines_expose_the_same_queries():
    # a search runs on either engine, so neither may answer a query the
    # other lacks, and each query takes the same parameters on both
    queries = {"first_hit", "second_hit", "widest_gap", "chain",
               "orbit_index", "value", "elem"}
    assert _public_methods(Orbit) == _public_methods(ValueColumn) == queries
    q = Orbit(GrowableSet(), RotationOracle(SQRT2))
    col = ValueColumn([], [])
    for name in sorted(queries):
        assert _parameters(getattr(q, name)) == \
            _parameters(getattr(col, name)), name


@settings(max_examples=150)
@given(alpha=alphas(), data=st.data())
def test_least_matches_the_frozen_recursion(alpha, data):
    # deeper than brute force reaches: start points up to 10^30 steps out
    # on the orbit and arcs down to 10^-40 wide, three queries per engine,
    # so later ones read record tables the earlier ones built; under a
    # drawn limit, an answer within it is exact, and one past it stays
    # past it
    f = RotationOracle(alpha)
    ref, q = Orbit(GrowableSet(), f), Orbit(GrowableSet(), f)
    orbit = st.integers(0, 10 ** 30).map(q.value)
    below_one = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)
    tiny = st.integers(0, 40).map(lambda e: F(1, 10 ** e))
    for _ in range(3):
        beta = data.draw(orbit)
        lo = data.draw(st.one_of(below_one.filter(lambda x: x < 1).map(exact),
                                 orbit))
        width = data.draw(st.one_of(
            st.builds(lambda k, s: exact(k * s), st.integers(1, 999), tiny),
            st.builds(lambda v, s: v * s, orbit.filter(bool), tiny)))
        w = min(width, 1 - lo)
        t = reference_least(ref, beta, lo, w)
        limit = data.draw(st.one_of(
            st.integers(-2, 10 ** 45),
            st.integers(-3, 3).map(lambda step: t + step)))
        got = q._least(beta, lo, w, limit)
        if t <= limit:
            assert got == t, (beta, lo, w, limit)
        else:
            assert got > limit, (beta, lo, w, limit)
    assert q.first_hits == ref.first_hits == 3


@pytest.mark.parametrize("alpha", [SQRT2, PHI, SQRT3],
                         ids=["sqrt2", "phi", "sqrt3"])
def test_least_is_exact_at_its_own_limit(alpha, rng):
    # the walk stops once its next record would pass the limit, and a
    # batch of links may jump past it: at limit t the answer is still t,
    # and at limit t - 1 it is past t - 1
    q = Orbit(GrowableSet(), RotationOracle(alpha))
    for _ in range(400):
        beta = q.value(rng.randrange(10 ** 6))
        lo = exact(F(rng.randrange(10 ** 6), 10 ** 6))
        w = min(exact(F(rng.randrange(1, 1000), 10 ** rng.randrange(1, 5))),
                1 - lo)
        t = q._least(beta, lo, w, 10 ** 9)
        assert t <= 10 ** 9
        assert q._least(beta, lo, w, t) == t, (beta, lo, w)
        assert q._least(beta, lo, w, t - 1) > t - 1, (beta, lo, w)


TINY = ExactNumber(F(8, 3 ** 50), F(-1, 3 ** 50), 30)


@pytest.mark.parametrize("alpha, reads", [
    (ExactNumber.sqrt(90001), 36),      # {alpha} near 1/600: a_1 = 600
    (TINY, 15),                         # {alpha} near 3.5*10^-24
    (1 - TINY, 13),                     # {alpha} near 1
], ids=["sqrt90001", "tiny", "tiny_mirror"])
def test_a_first_hit_takes_a_records_links_in_one_batch(alpha, reads):
    # arcs far out on the orbit, whose left chains take one record up to
    # a_1 times in a row: about 600 times for sqrt(90001) and 2.8*10^23
    # for TINY (1 - TINY has a_1 = 1, and fewer repeats).  The walk reads
    # each record once and takes its links in one batch; one that took
    # them link by link reads 6 171 records on sqrt(90001) and 30 on
    # 1 - TINY, and does not end on TINY
    f = RotationOracle(alpha)
    ref, q = Orbit(GrowableSet(), f), Orbit(GrowableSet(), f)
    for k in range(10):
        # beta lies (k + 1)/11 below the arc, which is at most 1/3 wide,
        # or narrower than {alpha}, so the walk goes on to later records
        beta = q.value(10 ** 30 + k)
        lo = (beta + F(k + 1, 11)).frac()
        w = min(exact(F(1, 3 + k) if k % 2 else F(1, 10 ** (3 * k + 4))),
                1 - lo)
        assert q._least(beta, lo, w, 10 ** 60) == \
            reference_least(ref, beta, lo, w), (beta, lo, w)
    assert (q.first_hits, q.levels) == (10, reads)


def _k_bound(alpha, links=300):
    """The largest k <= 10^30 at which a record chain over indices <= k
    stays near ``links`` links: at least ``links``, else the last
    convergent denominator q_j of {alpha} with a_1 + ... + a_j <= links.
    A chain takes its links from the runs of record lows (or highs), one
    run per partial quotient, each record at most about a_i times in a
    row; the frozen walk spends a first hit on every link, and alpha near
    0 or 1 has a_1 near 1/{alpha}."""
    x, q0, q1, total = alpha.frac(), 0, 1, 0
    while q1 < 10 ** 30:
        x = x.inverse()
        a = x.floor()
        x = x - a
        total += a
        if total > links:
            break
        q0, q1 = q1, a * q1 + q0
    return max(links, min(q1, 10 ** 30))


def _link_count(chains):
    # every index of a chain but index 0 is a link
    return sum(len(c) - (c[:1] == [0]) for c in chains)


@settings(max_examples=100)
@given(alpha=alphas(), data=st.data())
def test_record_chains_match_the_first_hit_walk(alpha, data):
    # the record tables against the frozen walk, one first hit per link,
    # over indices up to 10^30 (bounded by _k_bound); cuts are rationals
    # around [0, 1), orbit values and orbit values moved by a hair
    f = RotationOracle(alpha)
    ref, q = Orbit(GrowableSet(), f), Orbit(GrowableSet(), f)
    e = data.draw(st.integers(0, 30))
    k = min(data.draw(st.integers(10 ** e // 10, 10 ** e)), _k_bound(alpha))
    orbit = st.integers(0, 10 ** 30).map(q.value)
    cuts = st.one_of(
        st.fractions(min_value=F(-1, 4), max_value=F(5, 4),
                     max_denominator=10 ** 6).map(exact),
        orbit,
        st.builds(lambda v, h, p: v + F(h, 10 ** p), orbit,
                  st.integers(-3, 3), st.sampled_from([9, 40])))
    chains = []
    for _ in range(2):
        cut = data.draw(cuts)
        for below in (True, False):
            chain = q.chain(cut, k, below)
            assert chain == reference_chain(ref, cut, k, below), \
                (cut, k, below)
            chains.append(chain)
    assert q.links == _link_count(chains)
    # the tips' denominators grow at least like the Fibonacci numbers
    assert q.runs <= 2 * k.bit_length() + 4
    assert q.first_hits == 0


def _closest(alpha, span):
    """A rational at most min ||d*alpha|| over 1 <= d <= span, the distance
    to the nearest integer, and above half of it: that minimum is
    ||q*alpha|| for the last convergent denominator q <= span of alpha's
    continued fraction (its best approximations).  Two visits to a window
    of width w among span + 1 consecutive indices are at least that far
    apart, so the window holds at most w/that + 1 of them."""
    x, q0, q1, p0, p1 = alpha, 0, 1, 1, alpha.floor()
    x = x - p1
    while True:
        x = x.inverse()
        a = x.floor()
        x = x - a
        if a * q1 + q0 > span:
            return exact(F(1, abs(q1 * alpha - p1).inverse().floor() + 1))
        q0, q1, p0, p1 = q1, a * q1 + q0, p1, a * p1 + p0


def _reference_hits(ref, k, lo, hi):
    """The frozen walk's hits from index 0 through k."""
    return reference_hits(ref, 0, k, lo, hi)


class _Frozen:
    """Phases 2 and 5 as they stood before their queries, on the frozen
    walk over an :class:`Orbit` ``ref``: its hits through k, then one
    first hit past them per missing visit; and the sorted values of its
    hits through k.  A second hit reads through k first, as the column's
    scan does, so it raises the scan's cap error for k past the cap."""

    def __init__(self, ref):
        self.ref, self._G = ref, ref._G
        self.first_hit = ref.first_hit

    def second_hit(self, k, lo, hi):
        if k > self._G.cap:
            self._G.exhaust()
        visits, n = _reference_hits(self.ref, k, lo, hi), k
        while len(visits) < 2:
            n = self.ref.first_hit(n + 1, lo, hi)
            visits.append(n)
        self._G._materialize(n)
        return n

    def widest_gap(self, k, lo, hi):
        return _widest(sorted(map(self.ref.value,
                                  _reference_hits(self.ref, k, lo, hi))))


def _outcome(engine, query, *args):
    """A query's answer, or the text of its CapExceeded, and the bound the
    engine's set grew to."""
    try:
        answer = getattr(engine, query)(*args)
    except CapExceeded as err:
        answer = str(err)
    return answer, engine._G.materialized_bound


# at most this many visits, plus the closed end's, per drawn window, so the
# frozen walk stays fast
VISITS = 30


@settings(max_examples=200)
@given(alpha=alphas(), data=st.data())
def test_stepped_hits_match_one_first_hit_per_visit(alpha, data):
    # the second hit's gap step and the widest gap's three classes against
    # the frozen walk, one recursion and one closed-end solve per visit,
    # over bounds up to 10^30; a window holds at most VISITS + 1 visits
    # through the bound (see _closest).  One end is a rational around
    # [0, 1), an orbit value within the bound (a high end there is a visit
    # only its solve finds), or one moved by a hair; the other end is that
    # end moved by the width.  Only windows inside [0, 1) are asked for,
    # two per engine.  A second visit past the bound may lie past the cap
    f = RotationOracle(alpha)
    cap = 10 ** 40
    q = Orbit(GrowableSet(cap=cap), f)
    frozen = _Frozen(Orbit(GrowableSet(cap=cap), f))
    e = data.draw(st.integers(0, 30))
    k = data.draw(st.integers(10 ** e // 10, 10 ** e))
    orbit = st.integers(0, k).map(q.value)
    for _ in range(2):
        end = data.draw(st.one_of(
            st.fractions(min_value=F(-1, 4), max_value=F(5, 4),
                         max_denominator=10 ** 6).map(exact),
            orbit, orbit,
            st.builds(lambda v, h, p: v + F(h, 10 ** p), orbit,
                      st.integers(-3, 3), st.sampled_from([9, 40]))))
        width = data.draw(st.integers(0, VISITS)) * _closest(alpha, k)
        lo, hi = ((end, end + width) if data.draw(st.booleans())
                  else (end - width, end))
        if not 0 <= lo < hi < 1:
            continue
        assert _outcome(q, "second_hit", k, lo, hi) == \
            _outcome(frozen, "second_hit", k, lo, hi), (k, lo, hi)
        if len(_reference_hits(frozen.ref, k, lo, hi)) > 1:
            assert q.widest_gap(k, lo, hi) == \
                frozen.widest_gap(k, lo, hi), (k, lo, hi)


@settings(max_examples=150)
@given(alpha=alphas(), data=st.data())
def test_queries_on_one_window_match_the_frozen_walk(alpha, data):
    # second hits, widest gaps, closed first hits and closed first hits up
    # to a bound, mixed on one window inside [0, 1), over a small cap: a
    # first hit may start inside the window's visits or past them, and a
    # query with no bound may run out of the cap.  Answers, cap errors and
    # the grown bound equal the frozen walk's, whose first hits each
    # recurse.  The window holds at most 3*VISITS + 1 visits up to twice
    # the cap
    cap = data.draw(st.integers(0, 3000))
    f = RotationOracle(alpha)
    q = Orbit(GrowableSet(cap=cap), f)
    frozen = _Frozen(Orbit(GrowableSet(cap=cap), f))
    orbit = st.integers(0, cap).map(q.value)
    width = (data.draw(st.integers(1, 3 * VISITS))
             * _closest(alpha, 2 * cap + 2))
    if data.draw(st.booleans()):
        lo = data.draw(st.one_of(
            st.fractions(min_value=0, max_value=F(9, 10),
                         max_denominator=10 ** 6).map(exact), orbit))
        hi = lo + width
    else:
        hi = data.draw(orbit)
        lo = hi - width
    assume(0 <= lo < hi < 1)
    starts = st.one_of(st.integers(0, cap + 2),
                       st.integers(max(cap - 20, 0), cap + 2))
    for _ in range(data.draw(st.integers(2, 8))):
        op = data.draw(st.sampled_from(["second", "widest", "first",
                                        "upto"]))
        n0 = data.draw(starts) if op in ("first", "upto") else 0
        bound = data.draw(st.integers(n0 - 1, 2 * cap + 2))
        if op == "second":
            args = ("second_hit", bound, lo, hi)
        elif op == "widest":
            if len(_reference_hits(frozen.ref, bound, lo, hi)) < 2:
                continue
            args = ("widest_gap", bound, lo, hi)
        elif op == "first":
            args = ("first_hit", n0, lo, hi)
        else:
            args = ("first_hit", n0, lo, hi, False, False, bound)
        assert _outcome(q, *args) == _outcome(frozen, *args), \
            (args, lo, hi)


# alphas whose partial quotients are large: [100; 200], [300; 600] and
# 1/3 + sqrt(7)/7, whose period holds 1, 1 and 4
QUOTIENTS = [ExactNumber.sqrt(10001), ExactNumber.sqrt(90001),
             exact(F(1, 3)) + ExactNumber.sqrt(7) / 7]


@settings(max_examples=150)
@given(alpha=st.sampled_from(QUOTIENTS) | alphas(), data=st.data())
def test_second_hits_and_widest_gaps_match_a_column_scan(alpha, data):
    # the engine's two window queries against a column over a growable
    # set, against the frozen walk and against brute force, at k up to 800
    # over a cap that may be smaller: past it, the error text and the
    # grown bound are the column's.  Four windows inside [0, 1) per draw,
    # asked in turn of the same engines; their ends are rationals, orbit
    # values and orbit values moved by a hair
    _, values = _setup(alpha)
    f = RotationOracle(alpha)
    cap = data.draw(st.integers(1, 1000))
    k = data.draw(st.integers(1, 800))
    G = GrowableSet(cap=cap)
    engines = (Orbit(GrowableSet(cap=cap), f), ValueColumn(G._elems, [], G, f),
               _Frozen(Orbit(GrowableSet(cap=cap), f)))
    ends = _ends(values).filter(lambda c: c is not None)
    for _ in range(4):
        lo, hi = sorted((data.draw(ends), data.draw(ends)))
        if not 0 <= lo < hi < 1:
            continue
        outcomes = [_outcome(engine, "second_hit", k, lo, hi)
                    for engine in engines]
        assert outcomes == outcomes[:1] * 3, (k, lo, hi)
        inside = sorted(v for v in values[:k + 1] if lo <= v <= hi)
        if len(inside) > 1:
            whole = ValueColumn(range(k + 1), values[:k + 1])
            assert [whole.widest_gap(k, lo, hi)] + \
                [engine.widest_gap(k, lo, hi) for engine in engines[::2]] \
                == [_widest(inside)] * 3, (k, lo, hi)


def _in_radicand(m):
    """Exact numbers |p + q*sqrt(m)|/den > 0, rational when q = 0, and
    1/den in place of 0."""
    return st.builds(
        lambda p, q, den: (abs(ExactNumber(F(p, den), F(q, den), m))
                           or exact(F(1, den))),
        st.integers(-20, 20), st.integers(-20, 20) | st.just(0),
        st.integers(1, 400))


@settings(max_examples=60)
@given(alpha=alphas(), data=st.data())
def test_every_window_a_step_lists_is_one_the_engine_steps(alpha, data):
    # each step's window lies inside the previous inner cut's bracket, two
    # orbit values in [0, 1), and a tolerance or target in another
    # radicand fails before any window exists; so every window that
    # reaches Orbit.second_hit or Orbit.widest_gap is one they take.
    # Tolerances and targets are rational or in alpha's radicand; the
    # windows are checked here, not through the queries' assertions
    m = alpha.frac().m
    numbers = _in_radicand(m)
    f = RotationOracle(alpha)
    windows = []

    def recorded(query):
        def ask(q, k, lo, hi):
            windows.append((lo, hi))
            return query(q, k, lo, hi)
        return ask
    n = data.draw(st.integers(1, 3))
    with pytest.MonkeyPatch.context() as patch:
        for name in ("second_hit", "widest_gap"):
            patch.setattr(Orbit, name, recorded(getattr(Orbit, name)))
        try:
            if data.draw(st.booleans()):
                extract(GrowableSet(cap=20000), f, n, data.draw(numbers))
            else:
                targets = data.draw(st.lists(numbers.map(lambda x: 1 + x),
                                             min_size=n, max_size=n,
                                             unique=True))
                approximate_target(GrowableSet(cap=20000), f,
                                   DiscreteSet(targets), data.draw(numbers))
            done = True
        except ExactLabError:
            done = False
    assert all(x.q == 0 or x.m == m for window in windows for x in window)
    # a run that took a second step asked about its window
    assert windows or n == 1 or not done
    assert all(0 <= lo < hi < 1 for lo, hi in windows)


def test_record_chains_of_a_tiny_rotation():
    # {alpha} is about 3.5*10^-24, so the record highs' first run holds
    # about 2.8*10^23 records, and a walk that stepped record by record
    # would not end; the tables skip each run with one floor.  Left chains
    # of cuts above {alpha} have about cut/{alpha} links on any walk, so
    # the left cuts here lie below it.
    alpha = TINY
    f = RotationOracle(alpha)
    ref, q = Orbit(GrowableSet(), f), Orbit(GrowableSet(), f)
    k = 10 ** 30
    under = q.value((1 / alpha).floor() + 1)    # in (0, {alpha})
    hair = F(1, 10 ** 40)
    cases = [(exact(F(1, 2)), False), (q.value(10 ** 29), False),
             (q.value(10 ** 29) - hair, False), (exact(F(1, 10 ** 30)), True),
             (under, True), (under + hair, True), (exact(F(-1, 4)), False),
             (exact(F(5, 4)), False), (exact(F(-1, 4)), True)]
    chains = [q.chain(cut, k, below) for cut, below in cases]
    assert chains == [reference_chain(ref, cut, k, below)
                      for cut, below in cases]
    # 15 runs of the tables and 492 links: one floor per link or skipped
    # run, no first hit
    assert q.links == _link_count(chains)
    assert (q.runs, q.links, q.first_hits) == (15, 492, 0)


def test_an_unbounded_hit_past_the_cap_is_the_scans_cap_error():
    G = GrowableSet(cap=1000)
    q = Orbit(G, RotationOracle(SQRT2))
    with pytest.raises(CapExceeded, match=r"^index 1001 exceeds cap 1000$"):
        q.first_hit(0, exact(F(1, 2)), exact(F(1, 2) + F(1, 10 ** 6)))
    assert G.materialized_bound == 1000
    # a hit within the cap grows the set to it, and no further
    G = GrowableSet(cap=1000)
    n = Orbit(G, RotationOracle(SQRT2)).first_hit(0, exact(F(1, 2)), exact(1))
    assert n == 2 and G.materialized_bound == 2


def test_a_closed_point_interval_is_its_orbit_solve():
    q, values = _setup(SQRT2)
    assert q.first_hit(0, values[700], values[700]) == 700
    assert q.first_hit(701, values[700], values[700], upto=LIMIT) is None
    assert q.first_hit(0, values[700], values[700], lo_open=True,
                       upto=LIMIT) is None


def _chain_or_refusal(chain, cut, k, below):
    try:
        return chain(cut, k, below)
    except RadicandMismatch as err:
        return str(err)


def _answer(engine, n0, lo, hi, upto, lo_open=False, hi_open=False):
    try:
        return engine.first_hit(n0, lo, hi, lo_open, hi_open, upto)
    except RadicandMismatch as err:
        return str(err)


@pytest.mark.parametrize("cut", [
    ExactNumber(-1, F(1, 2), 2),          # below 0
    ExactNumber(F(-1, 2), F(1, 2), 2),    # in (0, 1)
    ExactNumber(1, F(1, 2), 2),           # above 1
], ids=str)
def test_a_cut_in_another_radicand_is_refused_by_both_engines(cut):
    # the engine clamps a cut outside [0, 1) to the unit interval; it must
    # answer as the scan's compares do: value(0) = 0 is rational and
    # compares with any cut, every later value is irrational, and the scan
    # compares an index with hi only once it passes lo
    alpha = ExactNumber.sqrt(11)
    q, values = _setup(alpha)
    col = ValueColumn([exact(n) for n in range(LIMIT + 1)], values)
    refused = "cannot compare sqrt(2) with sqrt(11)"
    for lo, hi in ((cut, None), (None, cut), (cut, exact(1))):
        assert _answer(q, 1, lo, hi, LIMIT) == refused
        assert _answer(col, 1, lo, hi, LIMIT) == refused
    half, high = exact(F(1, 2)), exact(F(999999, 10 ** 6))
    for n0, lo, hi, upto in [
            (0, cut, None, 50), (0, None, cut, 50), (0, cut, exact(1), 50),
            (0, cut, None, 0), (5, cut, None, 3), (5, None, cut, 3),
            (1, half, cut, LIMIT), (0, half, cut, LIMIT),
            (1, high, cut, 40), (0, exact(-1), cut, 0)]:
        want = _answer(col, n0, lo, hi, upto)
        assert _answer(q, n0, lo, hi, upto) == want, (n0, lo, hi, upto)
    # index 0 answers a cut below 0 before any irrational compare
    assert (_answer(q, 0, cut, None, 50) == 0) == (cut.sign() < 0)
    assert q.first_hit(5, cut, None, upto=3) is None
    # an open or closed end at value(0) = 0, beside a foreign end or a
    # foreign low end below 0 (radicand 3)
    zero, below = exact(0), ExactNumber(-1, F(1, 2), 3)
    for lo, hi, lo_open, hi_open in [
            (zero, cut, True, False), (zero, cut, True, True),
            (below, zero, False, False), (below, zero, False, True),
            (cut, zero, False, False), (cut, zero, False, True)]:
        for upto in (0, 1, LIMIT):
            want = _answer(col, 0, lo, hi, upto, lo_open, hi_open)
            assert _answer(q, 0, lo, hi, upto, lo_open, hi_open) == want, \
                (lo, hi, lo_open, hi_open, upto)
    assert q.first_hit(0, below, zero, upto=LIMIT) == 0
    assert _answer(q, 0, below, zero, LIMIT, hi_open=True) == \
        "cannot compare sqrt(3) with sqrt(11)"
    # no value lies in another radicand, on either backend
    assert q.orbit_index(cut) is None and col.orbit_index(cut) is None
    # a chain over index 0 alone is [0] when 0 lies on its side of the
    # cut; any later index is refused
    ref = Orbit(GrowableSet(cap=LIMIT), RotationOracle(alpha))
    for k in (0, 1, LIMIT):
        for below in (True, False):
            want = ([0] if cut.sign() == (1 if below else -1) else []) \
                if k == 0 else refused
            for chain in (q.chain, col.chain,
                          lambda *args: reference_chain(ref, *args)):
                assert _chain_or_refusal(chain, cut, k, below) == want, \
                    (k, below)


def _engines(monkeypatch):
    """The engines the extractions run on, one per extraction."""
    engines = []
    build = extraction.queries

    def recorded(*args):
        q = build(*args)
        engines.append(q)
        return q
    monkeypatch.setattr(extraction, "queries", recorded)
    return engines


def _cost(monkeypatch, alpha):
    """The engine's counters over an extraction at N = 3, the run's count
    of ``ExactNumber.inverse`` calls and its count of ``Orbit.value``
    reads."""
    engines = _engines(monkeypatch)
    inverses, reads = [], []
    inverse, value = ExactNumber.inverse, Orbit.value

    def counted(x):
        inverses.append(x)
        return inverse(x)

    def read(self, n):
        reads.append(n)
        return value(self, n)
    monkeypatch.setattr(ExactNumber, "inverse", counted)
    monkeypatch.setattr(Orbit, "value", read)
    extract(GrowableSet(), RotationOracle(alpha), 3, F(1, 4))
    assert len(engines) == 1
    q = engines[0]
    return ((q.first_hits, q.levels, q.solves, q.runs, q.links),
            len(inverses), len(reads))


def test_sqrt2_n3_cost(monkeypatch):
    # one engine serves the bootstrap and steps 2 and 3: (first-hit walks,
    # records they read, orbit solves, continued-fraction runs built,
    # record links read); the bootstrap adds 2 solves and 2 links.  Each
    # step's second hit takes one walk, to the window's first visit up to
    # the budget, one gap step and one solve of its closed high end, and
    # phase 4 takes the other walk.  Each widest gap here takes one solve
    # and one right chain, in the first class it tries.  The engine takes
    # no inverse: its record tables and walks are int pairs.  The 13
    # inverses are irrational divisions outside the engine (a plain int
    # divisor multiplies into the denominator instead).  The run reads 38
    # orbit values
    assert _cost(monkeypatch, SQRT2) == ((4, 24, 14, 16, 78), 13, 38)


def test_phi_n3_cost(monkeypatch):
    # two walks per step, as for sqrt(2); each widest gap tries two
    # classes, a solve each.  {phi} > 1/2, so run 0 holds only the record
    # high d = 1, and every partial quotient is 1: a run per record,
    # settled by one sign with no norm.  The engine takes no inverse, and
    # the 13 are divisions outside it; 44 orbit values are read
    assert _cost(monkeypatch, PHI) == ((4, 23, 16, 24, 68), 13, 44)


def test_a_deeper_read_builds_no_more_exact_numbers(monkeypatch):
    # the record tables and the walks over them are int pairs, so once the
    # tables are grown, a chain over twice the digits, or a first-hit walk
    # to an arc of half the digits' width, builds as many ExactNumbers as
    # the shallower one: O(1) per query, not per link or record
    q = Orbit(GrowableSet(), RotationOracle(SQRT2))
    cut, beta = exact(F(1, 3)), q.value(10 ** 30)
    widths = [exact(F(1, 10 ** e)) for e in (40, 80)]
    q.chain(cut, 10 ** 80, below=True)
    q._least(beta, cut, widths[1], 10 ** 100)
    raw, built = ExactNumber._raw.__func__, []

    def counted(cls, *args):
        built.append(args)
        return raw(cls, *args)
    monkeypatch.setattr(ExactNumber, "_raw", classmethod(counted))

    def cost(read):
        built.clear()
        links, levels = q.links, q.levels
        read()
        return len(built), q.links - links, q.levels - levels
    chains = [cost(lambda: q.chain(cut, k, below=True))
              for k in (10 ** 40, 10 ** 80)]
    walks = [cost(lambda: q._least(beta, cut, w, 10 ** 100))
             for w in widths]
    assert chains[0][0] == chains[1][0] and chains[0][1] < chains[1][1]
    assert walks[0][0] == walks[1][0] and walks[0][2] < walks[1][2]


def test_a_hit_far_past_the_budget_ends_the_recursion_early(monkeypatch):
    # at N = 1280 the base step runs at eps/6^1279, so step 2's window is
    # about 10^-1000 wide and its first visit lies far past the 10^6
    # budget.  The second hit's one walk stops once its next record would
    # pass the budget, after 14 records, and raises the cap error with no
    # gap step; running it out to the exact visit, a 996-digit index,
    # takes 2 382 records and 4 764 continued-fraction runs (about 1 s)
    engines = _engines(monkeypatch)
    with pytest.raises(CapExceeded, match=r"^index 1000001 exceeds cap 1000000$"):
        extract(GrowableSet(), RotationOracle(PHI), 1280, F(1, 4))
    q = engines[0]
    assert (q.first_hits, q.levels) == (1, 14)


# d_index per step at --eps 1/4 with a budget that never binds.  The
# reference scan confirmed every index up to 6 630 850 (N = 4's first three
# steps and N = 5's first two); the larger ones rest on the engine alone.
D_INDEX = {
    ("phi", 4): [1, 1597, 1347866, 166928007],
    ("sqrt2", 4): [1, 5741, 6630850, 1318368971],
    ("sqrt3", 4): [1, 2131, 1544972, 300848173],
    ("phi", 5): [1, 4181, 24161998, 53340453171, 17221020630736],
    ("sqrt2", 5): [1, 33461, 225092142, 259942614991, 299973738924056],
    ("sqrt3", 5): [1, 7953, 80206004, 58143484157, 42095876668878],
}


@pytest.mark.parametrize("name, n", sorted(D_INDEX))
def test_deep_steps_land_on_their_known_indices(name, n):
    status, lines = run(["extract", "--oracle", f"rot({name})", "--n", str(n),
                         "--eps", "1/4", "--budget", str(10 ** 20)])
    assert status == 0
    steps = [line for line in lines if line.startswith("step=")]
    assert [int(re.search(r" d_index=(\d+) ", s).group(1)) for s in steps] \
        == D_INDEX[(name, n)]
    assert all(s.endswith(" check=pass") for s in steps)


@settings(max_examples=25)
@given(alpha=alphas(), n=st.sampled_from([2, 3]),
       eps=st.sampled_from([F(1, 2), F(1, 3), F(1, 4)]))
def test_extract_on_the_engine_matches_the_column_scan(alpha, n, eps):
    # deeper than the reference property reaches: a generated copy of the
    # naturals sends the same rotation to the column scan
    cap = 20000
    outcomes = []
    for G in (GrowableSet(cap=cap),
              GrowableSet(generator=ExactNumber, cap=cap)):
        try:
            outcomes.append(trace_report(extract(G, RotationOracle(alpha), n,
                                                 eps)))
        except CapExceeded as err:
            outcomes.append(str(err))
        outcomes.append(G.materialized_bound)
    assert outcomes[:2] == outcomes[2:]
