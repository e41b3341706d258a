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
first use, with one inverse per run of two or more records.  A link reads
the least record under its gap off one run with one floor, so a chain
costs O(1) exact steps per link and per run, however long a run is.

A first hit is a link of such a chain (see Alessandri and Berthé,
*L'Enseignement Math.* 44, 1998).  Write a for {alpha}.  The least t >= 1
with {beta + t*a} in an arc [lo, lo + w) that beta lies outside puts {t*a}
in [gap - w, gap) for gap = 1 + w - {beta - lo}, and no earlier index has
its value there, so t is the first link of gap's left chain that comes
within w of gap.  :meth:`Orbit._least` walks that chain, taking all the
links a record makes in a row with one division, so a first hit costs
O(1) exact steps per run crossed, however small w is.

Once one visit to a closed window [lo, hi] with 0 <= lo < hi < 1 is known,
the later ones follow without a walk, by the three-gap theorem (Slater,
"Gaps and steps for the sequence n*theta mod 1", *Proc. Cambridge Philos.
Soc.* 63, 1967; same survey): the return times of the orbit to
[lo, lo + w) take only the values A, B and A + B, where A is the least
d >= 1 with {d*alpha} < w and B the least with {d*alpha} > 1 - w.  From a
visit n at x = {n*alpha} - lo the next one is n + A if x + {A*alpha} < w,
else n + B if x + {B*alpha} >= 1, else n + A + B: one compare per visit.
A and B are read off the record tables, and the closed high end adds its
one orbit solve.  :meth:`Orbit.hits` watches one such window and keeps its
visits from index 0 on, so a closed first hit on it reads the same list.

A closed or open end at c is settled by the orbit solve: {n*alpha} = c has
at most one solution n, read off c's irrational part.  Indices are plain
ints of any size; the growable set only follows the indices the step
needs, as a column scan would have read them.
"""

from __future__ import annotations

import bisect
from typing import Optional

from .dsets import GrowableSet, RotationOracle, ValueColumn, _Naturals
from .qnum import ExactNumber

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
    the table records they read, ``steps`` the window visits reached by a
    gap step instead, ``solves`` the orbit solves, ``runs`` the
    continued-fraction runs built for the record tables, and ``links``
    the record-chain links read off them.  The runs and the watched
    window (see :meth:`hits`) are caches filled on first use, so an
    :class:`Orbit` belongs to one extraction, like its set.
    """

    def __init__(self, G: GrowableSet, f: RotationOracle):
        self._G = G
        a = self._a = f.alpha.frac()
        self._m, self._den, self._sq = a.m, a.den, a.q
        # highs: the even runs; lows: d = 1 as a run of one, then the odd runs
        self._lows: list[tuple] = [(0, 1, ONE, ONE - a, None, 1, a)]
        self._highs: list[tuple] = []
        self._watch: Optional[_Window] = None
        self.first_hits = 0
        self.levels = 0
        self.steps = 0
        self.solves = 0
        self.runs = 0
        self.links = 0

    def value(self, n: int) -> ExactNumber:
        return (n * self._a).frac()

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
        G = self._G
        if n is None or n > G.cap:
            G.exhaust()
        G._materialize(n)
        return n

    def hits(self, k: int, lo: ExactNumber, hi: ExactNumber) -> list[int]:
        """Every n through k with {n*alpha} in the closed [lo, hi], a window
        with 0 <= lo < hi < 1 and no end in another radicand.

        The window becomes the watched one, in place of the last: its
        visits are found by one first-hit walk and then by gap steps (see
        :meth:`_advance`) and kept, so a later query on it steps on from
        what is known."""
        assert self._steppable(lo, hi), "hits needs a window it can step"
        win = self._watch
        if win is None or win.lo != lo or win.hi != hi:
            win = self._watch = _Window(lo, hi, self.orbit_index(hi))
        reach = max(k, self._G.cap)
        while win.through < k:
            self._advance(win, reach)
        visits = win.visits
        out = visits[:bisect.bisect_right(visits, k)]
        if win.top is not None and win.top <= k:
            bisect.insort(out, win.top)
        return out

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

    # -- the first hit -------------------------------------------------------

    def _first(self, n0, lo, hi, lo_open, hi_open, upto=None
               ) -> Optional[int]:
        """:meth:`first_hit` up to its limit, ``upto`` or else the cap:
        [lo, hi) by the walk, then each end moved in or out by its
        orbit solve.  An answer past the limit may be any index past it.  A
        cut in another radicand is answered with a scan's compares by
        :meth:`_foreign`, before any clamping.  A closed window that
        :meth:`hits` watches is read off its visits when n0 lies within
        them or right after them."""
        win = self._watch
        if (win is not None and not (lo_open or hi_open)
                and n0 <= win.through + 1
                and win.lo == lo and win.hi == hi):
            return self._watched(win, n0, upto)
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

    # -- the watched window --------------------------------------------------

    def _steppable(self, lo: ExactNumber, hi: ExactNumber) -> bool:
        """True for a window that :meth:`hits` watches: 0 <= lo < hi < 1,
        neither end in another radicand."""
        return (not self._alien(lo) and not self._alien(hi)
                and lo.sign() >= 0 and hi.compare(1) < 0
                and lo.compare(hi) < 0)

    def _watched(self, win: _Window, n0: int, upto: Optional[int]
                 ) -> Optional[int]:
        """:meth:`_first` on the watched window, for n0 within its visits or
        right after them: the least visit >= n0 or the closed high end's
        index, whichever comes first; None, or an index past the limit, if
        neither is within it."""
        reach = self._G.cap if upto is None else max(upto, self._G.cap)
        visits = win.visits
        i = bisect.bisect_left(visits, n0)
        while i == len(visits) and win.through < reach:
            self._advance(win, reach)
        n = visits[i] if i < len(visits) else None
        top = win.top
        if top is not None and top >= n0 and (n is None or top < n):
            return top
        return n

    def _advance(self, win: _Window, reach: int) -> None:
        """Find the window's next visit to [lo, hi) after what it knows:
        the first by one first-hit walk from ``win.through + 1``, any later
        one by a gap step from the last (see the module docstring).  A
        visit past ``reach``, or a gap that would step past it, which
        counts as none, only moves ``win.through`` to ``reach``; a stepped
        visit past it is exact and is kept.  The gaps are read once per
        window, up to ``reach`` from the visit that first steps, and read
        again only if one was past that and a later step may go further."""
        lo, w, visits = win.lo, win.w, win.visits
        if not visits:
            n = win.through + 1
            n += self._least(self.value(n), lo, w, reach - n)
            if n > reach:
                win.through = reach
                return
            win.x = self.value(n) - lo
            win.through = n
            visits.append(n)
            return
        limit = reach - visits[-1]
        if win.gaps is None or win.gaps[0] < limit and None in win.gaps[1:]:
            win.gaps = (limit, self._record(self._lows, 0, w, limit),
                        self._record(self._highs, 0, w, limit))
        _, low, high = win.gaps
        x = win.x
        if low is not None and (x + low[2]).compare(w) < 0:
            d, x = low[1], x + low[2]
        elif high is not None and x.compare(high[2]) >= 0:
            d, x = high[1], x - high[2]
        elif low is not None and high is not None:
            d, x = low[1] + high[1], x + low[2] - high[2]
        else:
            win.through = reach
            return
        self.steps += 1
        win.x = x
        win.through = visits[-1] + d
        visits.append(win.through)

    # -- the record tables ---------------------------------------------------

    def _links(self, table: list[tuple], chain: list[int], gap: ExactNumber,
               k: int) -> list[int]:
        """Extend ``chain`` by the links from index 0 up to k: the next
        index is n + d for the table's least record d at distance below
        ``gap``, and the gap shrinks by that distance.  Records only get
        closer, so the search goes on from the run of the last link."""
        n = r = 0
        while True:
            found = self._record(table, r, gap, k - n)
            if found is None:
                return chain
            r, d, dist = found
            self.links += 1
            n += d
            chain.append(n)
            gap = gap - dist

    def _record(self, table: list[tuple], r: int, gap: ExactNumber,
                limit: int) -> Optional[tuple]:
        """The least record d of ``table`` at distance below ``gap``, from
        run r on: ``(its run, d, its distance)``, or None if d would pass
        ``limit``.

        A run ``(d0, s, v0, y, inv, J, end)`` holds the records d0 + j*s
        at distance v0 - j*y for 1 <= j <= J (``inv`` = 1/y, or None when
        J = 1, ``end`` the last distance), below every earlier record's;
        in the first run that reaches below the gap the least such record
        is j = floor((v0 - gap)/y) + 1.
        """
        while True:
            while len(table) <= r:
                self._grow()
            d0, s, v0, y, inv, J, end = table[r]
            if d0 + s > limit:
                return None
            if end.compare(gap) >= 0:
                r += 1
                continue
            j = 1 if J == 1 else ((v0 - gap) * inv).floor() + 1
            d = d0 + j * s
            if d > limit:
                return None
            return r, d, (end if j == J else v0 - j * y)

    def _grow(self) -> None:
        """Append run s: ``(Q_(s-1), Q_s, delta_(s-1), delta_s, 1/delta_s,
        J, delta_(s+1))``, J = floor(delta_(s-1)/delta_s), from Q_(-1) = 0
        at delta_(-1) = 1 and Q_0 = 1 at delta_0 = a.  One compare,
        delta_(s-1) - delta_s < delta_s, settles J = 1, and such a run
        stores None for the inverse it never needs.  Q_s*alpha lies
        delta_s above an integer for even s and below one for odd s, so
        the run's records Q_(s-1) + j*Q_s at delta_(s-1) - j*delta_s,
        1 <= j <= J, are highs for even s and lows for odd s."""
        s = self.runs
        self.runs += 1
        # run s - 1 is the lows' (s // 2)th for even s, the highs' for odd s;
        # run -1 steps from Q_(-2) = 1 by Q_(-1) = 0
        d0, q, _, x, _, J, y = (
            (self._highs if s % 2 else self._lows)[s // 2] if s else
            (1, 0, None, ONE, None, 0, self._a))
        d0, q = q, d0 + J * q
        end = x - y
        if end.compare(y) < 0:
            # J = 1: _record reads no inverse for a run of one record
            inv, J = None, 1
        else:
            inv = y.inverse()
            J = (x * inv).floor()
            end = x - J * y
        (self._lows if s % 2 else self._highs).append(
            (d0, q, x, y, inv, J, end))

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
        """
        self.first_hits += 1
        g = (beta - lo).frac()
        if g.compare(w) < 0:
            return 0
        gap = ONE + w - g
        n = r = 0
        while n <= limit:
            found = self._record(self._lows, r, gap, limit - n)
            if found is None:
                break
            self.levels += 1
            r, d, dist = found
            rest = gap - dist
            if rest.compare(w) <= 0:
                return n + d
            if rest.compare(dist) <= 0:
                n, gap = n + d, rest
                continue
            inv = dist.inverse()
            i = _ceil((gap - w) * inv)
            last = _ceil(gap * inv) - 1
            if i <= last:
                n += i * d
                return n if n <= limit else limit + 1
            n, gap = n + last * d, gap - last * dist
        return limit + 1


class _Window:
    """The closed window [lo, hi] an :class:`Orbit` watches: ``w`` = hi -
    lo; ``top``, the index whose value is hi, or None; ``visits``, every
    index from 0 through ``through`` whose value lies in [lo, hi); ``x``,
    the last visit's value minus lo; ``gaps``, None or ``(limit, A, B)``
    with A and B the step gaps as :meth:`Orbit._record` read them up to
    ``limit`` (None for one past it)."""

    __slots__ = ("lo", "hi", "w", "top", "through", "visits", "x", "gaps")

    def __init__(self, lo: ExactNumber, hi: ExactNumber, top: Optional[int]):
        self.lo, self.hi, self.w, self.top = lo, hi, hi - lo, top
        self.through, self.visits, self.x, self.gaps = -1, [], None, None


def _ceil(x: ExactNumber) -> int:
    return -(-x).floor()
