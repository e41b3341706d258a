"""The first-hit engine: the oracle queries of a search, answered exactly
for a rotation n -> {n*alpha} over the naturals (see :func:`queries`).

Every search of a step asks where the orbit of a rotation first enters an
interval, and every such query reads one expansion of alpha.  The next
left record of a cut c after n is n + d for the least d >= 1 with
{d*alpha} < c - {n*alpha} (the sum cannot wrap, as it stays below c <= 1),
so d is a record low of {d*alpha}: a value below every earlier one.  The
right chain steps by the least record high within {n*alpha} - c of 1.
Both record sequences depend on alpha alone: they are the convergent and
intermediate denominators of its regular continued fraction (Rockett and
Szüsz, *Continued Fractions*, 1992), whose runs, one per partial quotient,
make two *record tables*.  An :class:`Orbit` builds them run by run on
first use.  A link reads the least record under its gap off one run with
one floor, so a chain costs O(1) steps per link and per run, however long
a run is.

Every record distance is a lattice point |Q*alpha - P|.  So with {alpha}
written (p + q*sqrt(m))/den, it is (x + y*sqrt(m))/den for an int pair
(x, y), and the tables hold ints alone: each distance as its pair over
den, and each run step's norm x^2 - y^2*m.  A query puts its gap over D,
a multiple of den, once; a table pair is scaled to D as it is read.  So
a link is integer steps: a compare is the sign of an int pair, a gap
shrinks by two int subtractions, and a floor of a quotient multiplies by
the divisor's conjugate and takes the quadratic floor over its norm.  A
query builds O(1) exact numbers, however many links it reads.

A first hit is a link of such a chain (see Alessandri and Berthé,
*L'Enseignement Math.* 44, 1998).  Write a for {alpha}.  The least t >= 1
with {beta + t*a} in an arc [lo, lo + w) that beta lies outside puts {t*a}
in [gap - w, gap) for gap = 1 + w - {beta - lo}, and no earlier index has
its value there, so t is the first link of gap's left chain that comes
within w of gap.  :meth:`Orbit._least` walks that chain, taking all the
links a record makes in a row with two floors, so a first hit costs O(1)
steps per run crossed, however small w is.

Phases 2 and 5 of an extraction step ask two questions of a closed window
[lo, hi] with 0 <= lo < hi < 1, and neither lists the window's visits.
By the three-gap theorem (Slater, "Gaps and steps for the sequence
n*theta mod 1", *Proc. Cambridge Philos. Soc.* 63, 1967; same survey), the
return times of the orbit to [lo, lo + w) take only the values A, B and
A + B, where A is the least d >= 1 with {d*alpha} < w and B the least with
{d*alpha} > 1 - w.  From a visit n at x = {n*alpha} - lo the next one is
n + A if x + {A*alpha} < w, else n + B if x + {B*alpha} >= 1, else
n + A + B.  So :meth:`Orbit.second_hit` takes one walk to the first visit,
one gap step, with A and B read off the record tables, and the orbit solve
of the closed high end.

By the three-distance theorem (Sós, *Ann. Univ. Sci. Budapest. Eötvös
Sect. Math.* 1, 1958; same survey), the points {n*alpha} with 0 <= n < M
leave gaps of at most three lengths.  Let u and v be the indices in
[1, M - 1] of the least and the greatest value: the last record low and
the last record high below M.  The next point above n is n + u for
n < M - u, n - v for n >= v, and n + u - v in between, so its gap is
{u*alpha}, 1 - {v*alpha} or their sum.  Each class of n is a run of
consecutive indices, whose values are one value moved by the orbit of
alpha, so its lowest value at or above lo is read by one solve or one
record chain.  :meth:`Orbit.widest_gap` takes the classes from the widest
gap down; the first whose lowest such value keeps its gap inside the
window holds the first widest gap.

A closed or open end at c is settled by the orbit solve: {n*alpha} = c has
at most one solution n, read off c's irrational part.  Indices are plain
ints of any size; the growable set only follows the indices the step
needs, as a column scan would have read them.
"""

from __future__ import annotations

from math import lcm
from typing import Optional

from .dsets import GrowableSet, RotationOracle, ValueColumn, _Naturals
from .qnum import ExactNumber, _floor_pair, _sign_pair

ZERO = ExactNumber(0)
ONE = ExactNumber(1)


def queries(elems, f, G: Optional[GrowableSet] = None, whole: bool = False):
    """The oracle queries of f over ``elems``, the elements of G if given:
    an :class:`Orbit` for a rotation over a naturals view, at any index,
    and else a :class:`~exactlab.dsets.ValueColumn`, which evaluates all of
    ``elems`` first if ``whole``, and otherwise each index as a query first
    reads it."""
    if isinstance(f, RotationOracle) and isinstance(elems, _Naturals):
        return Orbit(GrowableSet(cap=0) if G is None else G, f)
    return ValueColumn(elems, [f.eval(e) for e in elems] if whole else [],
                       G, f)


class Orbit:
    """The oracle queries of a rotation over the naturals of ``G``.

    It answers the queries a :class:`exactlab.dsets.ValueColumn` answers by
    scanning.  ``first_hits`` counts the first-hit walks run, ``levels``
    the table records they read, ``solves`` the orbit solves, ``runs`` the
    continued-fraction runs built for the record tables, and ``links`` the
    record-chain links read off them.  Besides its counters it holds only
    the record tables, a cache of alpha's expansion filled run by run on
    first use, so each answer depends on the query and the set's cap
    alone.  A table is a list of runs ``(d0, s, v0, y, norm, J, end)``:
    ints, with each distance an int pair over den (see :meth:`_record`).
    It grows its set, so it belongs to one extraction, like the set.
    """

    def __init__(self, G: GrowableSet, f: RotationOracle):
        self._G = G
        a = self._a = f.alpha.frac()
        p, q, den = a.p, a.q, a.den
        self._p, self._sq, self._den, self._m = p, q, den, a.m
        # highs: the even runs; lows: d = 1 as a run of one, then the odd runs
        self._lows: list[tuple] = [(0, 1, (den, 0), (den - p, -q), None, 1,
                                    (p, q))]
        self._highs: list[tuple] = []
        self.first_hits = 0
        self.levels = 0
        self.solves = 0
        self.runs = 0
        self.links = 0

    def value(self, n: int) -> ExactNumber:
        p, q, den, m = n * self._p, n * self._sq, self._den, self._m
        return ExactNumber._raw(p - _floor_pair(p, q, den, m) * den, q, den, m)

    @staticmethod
    def elem(n: int) -> ExactNumber:
        return ExactNumber._raw(n, 0, 1, 0)

    # -- the queries ---------------------------------------------------------

    def first_hit(self, n0: int, lo: Optional[ExactNumber],
                  hi: Optional[ExactNumber], lo_open: bool = False,
                  hi_open: bool = False, upto: Optional[int] = None
                  ) -> Optional[int]:
        """Least n >= n0 with {n*alpha} between lo and hi (None: unbounded),
        each end open or closed.  With ``upto``, None when that n exceeds it;
        without, the set grows to n, and a scan's CapExceeded is raised if n
        passes the cap (or does not exist)."""
        n = self._first(n0, lo, hi, lo_open, hi_open, upto)
        if upto is not None:
            return n if n is not None and n <= upto else None
        return self._reach(n)

    def second_hit(self, k: int, lo: ExactNumber, hi: ExactNumber) -> int:
        """Least n >= k such that the indices through n have two values in
        the closed window [lo, hi], 0 <= lo < hi < 1 with no end in another
        radicand.  The set grows to n, and a scan's CapExceeded is raised
        if n passes the cap.

        The first visit to [lo, hi) is one walk up to the cap, and the
        second is one gap step from it (see the module docstring).  The
        solve of hi adds its index: below the walk's visit it is the first
        visit, and the walk's is the second."""
        assert (not self._alien(lo) and not self._alien(hi)
                and 0 <= lo < hi < 1), "a window inside [0, 1)"
        w, cap = hi - lo, self._G.cap
        n = self._least(ZERO, lo, w, cap)
        top = self.orbit_index(hi)
        if (top is None or top > n) and n <= cap:
            x, room = self.value(n) - lo, cap - n
            f, (wx, wy) = self._over(w)
            low = self._record(self._lows, 0, wx, wy, f, room)
            high = self._record(self._highs, 0, wx, wy, f, room)
            if low is not None and (x + self._exact(*low[2:])).compare(w) < 0:
                n += low[1]
            elif high is not None and x.compare(self._exact(*high[2:])) >= 0:
                n += high[1]
            elif low is not None and high is not None:
                n += low[1] + high[1]
            else:
                n = cap + 1
            if top is not None:
                n = min(n, top)
        return self._reach(max(n, k))

    def widest_gap(self, k: int, lo: ExactNumber, hi: ExactNumber
                   ) -> tuple[ExactNumber, ExactNumber]:
        """The first widest gap (w1, w2) between consecutive values of the
        indices through k in the closed window [lo, hi], 0 <= lo < hi < 1
        with no end in another radicand, which holds two of them.

        The gap above value(n) is one of three lengths, fixed by the class
        of n (see the module docstring).  In a class of indices
        [start, stop), value(start + t) is {value(start) + t*alpha}, so the
        lowest one at or above lo has the t whose value lies first at or
        above c = {lo - value(start)}: c's own index if it is below
        stop - start, else the last link of c's right chain, else 0, whose
        value 0 is the least once no value lies above c."""
        assert (not self._alien(lo) and not self._alien(hi)
                and 0 <= lo < hi < 1), "a window inside [0, 1)"
        m = k + 1
        u, low = self._last_record(self._lows, k)
        v, high = self._last_record(self._highs, k)
        # the classes of n by the gap above value(n), widest first
        classes = [(m - u, v, low + high), (0, m - u, low), (v, m, high)]
        if low.compare(high) < 0:
            classes[1], classes[2] = classes[2], classes[1]
        for start, stop, gap in classes:
            if start == stop:
                continue
            c = (lo - self.value(start)).frac()
            t = self.orbit_index(c)
            if t is None or t >= stop - start:
                right = self.chain(c, stop - start - 1, below=False)
                t = right[-1] if right else 0
            y = self.value(start + t)
            if y.compare(lo) >= 0 and (y + gap).compare(hi) <= 0:
                return y, y + gap

    def chain(self, cut: ExactNumber, k: int, below: bool) -> list[int]:
        """The record chain of ``cut`` below (or above) it over indices
        <= k.  The left chain starts at index 0 and steps by record lows
        within the gap up to the cut; the right one steps by record highs
        from index 0 read as the value 1, which it leaves out.  A cut
        outside [0, 1) is clamped as :meth:`_first` clamps it.  A cut in
        another radicand is answered by a scan of the column of value(0)
        and value(1) through min(k, 1) (see :meth:`_head`): its compares
        are the ones a scan of the whole orbit makes first, so it answers
        k = 0 and refuses any k >= 1."""
        if self._alien(cut):
            return self._head().chain(cut, min(k, 1), below)
        if below:
            if cut.sign() <= 0:
                return []
            gap = ONE if cut.compare(1) >= 0 else cut
            return self._links(self._lows, [0], gap, k)
        if cut.compare(1) >= 0:
            return []
        if cut.sign() < 0:
            return [0]
        return self._links(self._highs, [], ONE - cut, k)

    def orbit_index(self, v: ExactNumber) -> Optional[int]:
        """The n with {n*alpha} = v, or None: n is fixed by the irrational
        parts alone, then checked."""
        self.solves += 1
        v = ExactNumber.coerce(v)
        if v.q == 0:
            return 0 if v.p == 0 else None
        if self._alien(v):
            return None
        num, den = v.q * self._den, v.den * self._sq
        if num % den:
            return None
        n = num // den
        return n if n > 0 and self.value(n) == v else None

    def _reach(self, n: Optional[int]) -> int:
        """Grow the set to n, or raise a scan's CapExceeded if n passes the
        cap (or is None)."""
        G = self._G
        if n is None or n > G.cap:
            G.exhaust()
        G._materialize(n)
        return n

    # -- the first hit -------------------------------------------------------

    def _first(self, n0, lo, hi, lo_open, hi_open, upto=None
               ) -> Optional[int]:
        """:meth:`first_hit` up to its limit, ``upto`` or else the cap:
        [lo, hi) by the walk, then each end moved in or out by its
        orbit solve.  An answer past the limit may be any index past it.  A
        cut in another radicand is answered with a scan's compares by
        :meth:`_foreign`, before any clamping."""
        if self._alien(lo) or self._alien(hi):
            return self._foreign(n0, lo, hi, lo_open, hi_open, upto)
        if lo is None or lo.sign() < 0:
            lo, lo_open = ZERO, False
        if hi is None or hi.compare(1) >= 0:
            hi, hi_open = ONE, True
        s = lo.compare(hi)
        if s > 0 or (s == 0 and (lo_open or hi_open)):
            return None
        if s == 0:
            n = self.orbit_index(lo)
            return n if n is not None and n >= n0 else None
        w = hi - lo
        limit = self._G.cap if upto is None else upto
        n = n0 + self._least(self.value(n0), lo, w, limit - n0)
        if lo_open and self.orbit_index(lo) == n:
            # the orbit meets lo once, so the next hit is past it
            n += 1 + self._least(self.value(n + 1), lo, w, limit - n - 1)
        if not hi_open:
            m = self.orbit_index(hi)
            if m is not None and n0 <= m < n:
                n = m
        return n

    def _foreign(self, n0, lo, hi, lo_open, hi_open, upto
                 ) -> Optional[int]:
        """:meth:`_first` with a cut in another radicand, answered with a
        scan's compares: index 0 by :meth:`_head`, then the compare of
        value(n), which is irrational, with the foreign end, at the first
        n the scan compares with it: n0 for a foreign lo, else the first
        index from n0 past lo (a scan compares with hi only past lo).
        None if n is past ``upto`` (or the cap)."""
        if n0 == 0:
            if self._head().first_hit(0, lo, hi, lo_open, hi_open, 0) == 0:
                return 0
            n0 = 1
        if self._alien(lo):
            n, cut = n0, lo
        else:
            n = n0 if lo is None else self._first(n0, lo, None, lo_open,
                                                  False, upto)
            cut = hi
        limit = self._G.cap if upto is None else upto
        if n is None or n > limit:
            return None
        self.value(n).compare(cut)
        raise AssertionError(f"value({n}) compared with {cut}")

    def _alien(self, c: Optional[ExactNumber]) -> bool:
        """True for c irrational in another radicand than alpha's."""
        return c is not None and c.q != 0 and c.m != self._m

    def _head(self) -> ValueColumn:
        """value(0) = 0 and value(1) = {alpha} as a column to scan."""
        return ValueColumn([ZERO, ONE], [ZERO, self._a])

    # -- the record tables ---------------------------------------------------

    def _over(self, *xs: ExactNumber) -> tuple:
        """``(f, *pairs)``: each x as its int pair over D, the least common
        multiple of den and the xs' denominators, and f = D/den, the factor
        that puts a table's pairs over D."""
        D = lcm(self._den, *(x.den for x in xs))
        return (D // self._den,
                *((x.p * (D // x.den), x.q * (D // x.den)) for x in xs))

    def _exact(self, x: int, y: int) -> ExactNumber:
        """The table's pair (x, y) as the number (x + y*sqrt(m))/den."""
        return ExactNumber._raw(x, y, self._den, self._m)

    def _links(self, table: list[tuple], chain: list[int], gap: ExactNumber,
               k: int) -> list[int]:
        """Extend ``chain`` by the links from index 0 up to k: the next
        index is n + d for the table's least record d at distance below
        ``gap``, and the gap shrinks by that distance.  Records only get
        closer, so the search goes on from the run of the last link.  The
        gap is put over D once (see :meth:`_over`), so a link is two int
        subtractions on top of :meth:`_record`'s integer steps."""
        f, (gx, gy) = self._over(gap)
        n = r = 0
        while True:
            found = self._record(table, r, gx, gy, f, k - n)
            if found is None:
                return chain
            r, d, x, y = found
            self.links += 1
            n += d
            chain.append(n)
            gx, gy = gx - f * x, gy - f * y

    def _record(self, table: list[tuple], r: int, gx: int, gy: int, f: int,
                limit: int) -> Optional[tuple]:
        """The least record d of ``table`` at distance below the gap
        (gx + gy*sqrt(m))/D, D = f*den, from run r on: ``(its run, d, x, y)``
        with its distance (x + y*sqrt(m))/den, or None if d would pass
        ``limit``.

        A run ``(d0, s, v0, y, norm, J, end)`` holds the records d0 + j*s
        at distance v0 - j*y for 1 <= j <= J (``end`` the last distance,
        ``norm`` y's norm, or None when J = 1), below every earlier
        record's.  Each distance is an int pair over den, scaled by f as it
        is read.  The first run whose end lies below the gap (one
        ``_sign_pair``) holds the least such record, j = floor((v0 -
        gap)/y) + 1: the quotient times y's conjugate, over f*norm, and one
        quadratic floor.
        """
        m = self._m
        while True:
            while len(table) <= r:
                self._grow()
            d0, s, (x0, y0), (x1, y1), norm, J, (xe, ye) = table[r]
            if d0 + s > limit:
                return None
            if _sign_pair(f * xe - gx, f * ye - gy, m) >= 0:
                r += 1
                continue
            if J == 1:
                return r, d0 + s, xe, ye
            a, b = f * x0 - gx, f * y0 - gy
            j = _floor_pair(a * x1 - b * y1 * m, b * x1 - a * y1, f * norm,
                            m) + 1
            d = d0 + j * s
            if d > limit:
                return None
            if j == J:
                return r, d, xe, ye
            return r, d, x0 - j * x1, y0 - j * y1

    def _last_record(self, table: list[tuple], k: int) -> tuple:
        """The last record d <= k of ``table``, k >= 1, and its distance,
        one run at a time (see :meth:`_record`)."""
        r = 0
        while True:
            while len(table) <= r:
                self._grow()
            d0, s, (x0, y0), (x1, y1), _, J, end = table[r]
            if d0 + s > k:
                return last[0], self._exact(*last[1])
            j = min(J, (k - d0) // s)
            last = d0 + j * s, (end if j == J else (x0 - j * x1, y0 - j * y1))
            r += 1

    def _grow(self) -> None:
        """Append run s: ``(Q_(s-1), Q_s, delta_(s-1), delta_s, N_s, J,
        delta_(s+1))``, J = floor(delta_(s-1)/delta_s), from Q_(-1) = 0 at
        delta_(-1) = 1 and Q_0 = 1 at delta_0 = a.  Each delta is an int
        pair (x, y) for (x + y*sqrt(m))/den, and N_s = x^2 - y^2*m is
        delta_s's norm.  One ``_sign_pair``, of delta_(s-1) - 2*delta_s,
        settles J = 1, and such a run stores None for the norm it never
        needs; otherwise J is one floor of delta_(s-1) times delta_s's
        conjugate over N_s.  Q_s*alpha lies delta_s above an integer for
        even s and below one for odd s, so the run's records Q_(s-1) +
        j*Q_s at delta_(s-1) - j*delta_s, 1 <= j <= J, are highs for even
        s and lows for odd s."""
        s = self.runs
        self.runs += 1
        m = self._m
        # run s - 1 is the lows' (s // 2)th for even s, the highs' for odd s;
        # run -1 steps from Q_(-2) = 1 by Q_(-1) = 0
        d0, q, _, (x0, y0), _, J, (x1, y1) = (
            (self._highs if s % 2 else self._lows)[s // 2] if s else
            (1, 0, None, (self._den, 0), None, 0, (self._p, self._sq)))
        d0, q = q, d0 + J * q
        if _sign_pair(x0 - 2 * x1, y0 - 2 * y1, m) < 0:
            norm, J = None, 1
        else:
            norm = x1 * x1 - y1 * y1 * m
            J = _floor_pair(x0 * x1 - y0 * y1 * m, y0 * x1 - x0 * y1, norm, m)
        (self._lows if s % 2 else self._highs).append(
            (d0, q, (x0, y0), (x1, y1), norm, J, (x0 - J * x1, y0 - J * y1)))

    def _least(self, beta: ExactNumber, lo: ExactNumber, w: ExactNumber,
               limit: int) -> int:
        """Least t >= 0 with {beta + t*a} in [lo, lo + w), 0 < w <= 1, if
        it is at most ``limit``; else a value above ``limit``.

        With g = {beta - lo}, t = 0 if g < w.  Otherwise t >= 1 puts
        {t*a} in [gap - w, gap) for gap = 1 + w - g, which lies in (w, 1].
        Every earlier index has its value below gap - w or at least gap,
        so t is a left record of the cut gap, and it is the first link of
        gap's left chain (see :meth:`_links`) whose remaining gap is at
        most w.  The walk reads that chain off the lows.  A record d at
        distance ``dist`` stays the least record below the remaining gap
        while that gap exceeds ``dist``, so its links are taken in one
        batch: i = min(ceil((gap - w)/dist), ceil(gap/dist) - 1) of them,
        the first bound reaching the answer, the second the last link
        that d takes.  Each record read counts as a level.

        The gap, w and each distance are int pairs over one D (see
        :meth:`_over`), so a compare is one ``_sign_pair``, and a ceiling
        is minus the floor of the quotient times dist's conjugate over
        minus dist's norm.
        """
        self.first_hits += 1
        g = (beta - lo).frac()
        if g.compare(w) < 0:
            return 0
        m = self._m
        f, (gx, gy), (wx, wy) = self._over(ONE + w - g, w)
        n = r = 0
        while n <= limit:
            found = self._record(self._lows, r, gx, gy, f, limit - n)
            if found is None:
                break
            self.levels += 1
            r, d, x, y = found
            x, y = f * x, f * y
            a, b = gx - x, gy - y
            if _sign_pair(a - wx, b - wy, m) <= 0:
                return n + d
            if _sign_pair(a - x, b - y, m) <= 0:
                n, gx, gy = n + d, a, b
                continue
            neg = y * y * m - x * x
            a, b = gx - wx, gy - wy
            i = -_floor_pair(a * x - b * y * m, b * x - a * y, neg, m)
            last = -_floor_pair(gx * x - gy * y * m, gy * x - gx * y, neg,
                                m) - 1
            if i <= last:
                n += i * d
                return n if n <= limit else limit + 1
            n, gx, gy = n + last * d, gx - last * x, gy - last * y
        return limit + 1
