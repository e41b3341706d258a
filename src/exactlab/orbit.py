"""The first-hit engine: the oracle queries of a search, answered exactly
for a rotation n -> {n*alpha} over the naturals (see :func:`serves`).

Every search of a step asks where the orbit of a rotation first enters an
interval.  :meth:`Orbit.first_hit` answers that in a number of big-integer
steps logarithmic in the interval's width, by the continued-fraction
recursion behind the three-distance theorem (see Alessandri and Berthé,
*L'Enseignement Math.* 44, 1998).  Write a for {alpha}.  The least t >= 0
with {beta + t*a} in an arc of width w < a from a point wraps round the
circle j >= 0 times first, and j solves the same kind of problem for the
rotation {1/a} or {-1/a}, whichever is below 1/2, on an arc of width w/a.
Following the smaller rotation (the reflection a -> 1 - a) swaps which end
of the arc is closed and at least doubles the width per level, so the
recursion ends once the width reaches the rotation.

The chain of rotations a_0 = a, a_1, a_2, ... depends on alpha alone; for a
quadratic irrational it is the eventually periodic continued-fraction chain
(Lagrange).  Each :class:`Orbit` keeps it as a *rotation ladder*: rung k
holds a_k, 1/a_k and whether a_(k+1) is {1/a_k} (the circle is read
reflected).  A recursion walks down the ladder by level index, carrying
only the distance of its point above the arc's low end from level to
level, and unwinds by multiplying with the inverses the ladder holds; no
level inverts or floors a rotation.

A closed or open end at c is settled by the orbit solve: {n*alpha} = c has
at most one solution n, read off c's irrational part.

Record chains take no first hit.  The next left record of a cut c after n
is n + d for the least d >= 1 with {d*alpha} < c - {n*alpha} (the sum
cannot wrap, as it stays below c <= 1), so d is a record low of {d*alpha}:
a value below every earlier one.  The right chain steps by the least
record high within {n*alpha} - c of 1.  Both record sequences depend on
alpha alone: they are the convergent and intermediate denominators of its
regular continued fraction (Rockett and Szüsz, *Continued Fractions*,
1992), whose runs, one per partial quotient, make two *record tables*.
They are the one expansion of alpha an :class:`Orbit` builds, run by run
on first use: a run holds the inverse of a convergent denominator Q's
distance ||Q*alpha||, and a rung of the ladder is a ratio of two such
distances, read off the runs with two products.  A link reads the
least record under its gap off one run with one floor, so a chain costs
O(1) exact steps per link and per run, however long a run is.  Indices
are plain ints of any size; the growable set only follows the indices
the step needs, as a column scan would have read them.
"""

from __future__ import annotations

from typing import Optional

from .dsets import GrowableSet, RotationOracle, _Naturals, record_chain
from .errors import CapExceeded, RadicandMismatch
from .qnum import ExactNumber

ZERO = ExactNumber(0)
ONE = ExactNumber(1)


def serves(elems, f) -> bool:
    """True for a rotation over a naturals view, which an Orbit answers."""
    return isinstance(f, RotationOracle) and isinstance(elems, _Naturals)


class Orbit:
    """The oracle queries of a rotation over the naturals of ``G``.

    It answers the queries a :class:`exactlab.dsets.ValueColumn` answers by
    scanning.  ``first_hits`` counts the first-hit recursions run,
    ``levels`` the levels they descended, ``solves`` the orbit solves,
    ``runs`` the continued-fraction runs built, for the record tables and
    the ladder alike, and ``links`` the record-chain links read off them.
    The runs and the ladder are caches filled on first use, so an
    :class:`Orbit` belongs to one extraction, like its set.
    """

    def __init__(self, G: GrowableSet, f: RotationOracle):
        self._G = G
        a = self._a = f.alpha.frac()
        self._m, self._den, self._sq = a.m, a.den, a.q
        self._ladder: list[tuple] = []
        # highs: the even runs; lows: d = 1 as a run of one, then the odd runs
        self._lows: list[tuple] = [(0, 1, ONE, ONE - a, None, 1, a)]
        self._highs: list[tuple] = []
        self.first_hits = 0
        self.levels = 0
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
            G._materialize(G.cap)
            raise CapExceeded(f"index {G.cap + 1} exceeds cap {G.cap}")
        G._materialize(n)
        return n

    def hits(self, n0: int, k: int, lo: ExactNumber, hi: ExactNumber
             ) -> list[int]:
        """Every n from n0 through k with {n*alpha} in the closed [lo, hi]."""
        out: list[int] = []
        n = self.first_hit(n0, lo, hi, upto=k)
        while n is not None:
            out.append(n)
            n = self.first_hit(n + 1, lo, hi, upto=k)
        return out

    def records(self, a: ExactNumber, b: Optional[ExactNumber], k: int,
                upto: Optional[int] = None):
        """The left and right record chains of ``a`` over indices <= k and
        of ``b`` (None for no b: two Nones) over indices <= upto (default
        k), as index lists."""
        upto = k if upto is None else upto
        chains = [self.chain(a, k, below=True), self.chain(a, k, below=False)]
        if b is None:
            return (*chains, None, None)
        return (*chains, self.chain(b, upto, below=True),
                self.chain(b, upto, below=False))

    def chain(self, cut: ExactNumber, k: int, below: bool) -> list[int]:
        """The record chain of ``cut`` below (or above) it over indices
        <= k.  The left chain starts at index 0 and steps by record lows
        within the gap up to the cut; the right one steps by record highs
        from index 0 read as the value 1, which it leaves out.  A cut
        outside [0, 1) is clamped as :meth:`_first` clamps it; one in
        another radicand is walked by first hits, which refuse it as a scan
        does."""
        if cut.q and cut.m != self._m:
            return record_chain(self, cut, k, below)
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
        if v.m != self._m:
            return None
        num, den = v.q * self._den, v.den * self._sq
        if num % den:
            return None
        n = num // den
        return n if n > 0 and self.value(n) == v else None

    # -- the recursion -------------------------------------------------------

    def _first(self, n0, lo, hi, lo_open, hi_open, upto=None
               ) -> Optional[int]:
        """:meth:`first_hit` up to its limit, ``upto`` or else the cap:
        [lo, hi) by the recursion, then each end moved in or out by its
        orbit solve.  An answer past the limit may be any index past it.  A
        cut irrational in another radicand than alpha's goes to
        :meth:`_foreign` before any clamping."""
        m = self._m
        if (lo is not None and lo.q and lo.m != m
                or hi is not None and hi.q and hi.m != m):
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
        """:meth:`_first` with a cut in another radicand, answered as a
        scan answers it.  value(0) = 0 is rational and compares with any
        cut.  Every later value is irrational, and the scan compares it
        with lo first and with hi only if it passes lo, so it refuses at
        the first such compare with the foreign cut within ``upto`` (or
        the cap), and answers None if there is none."""
        if n0 == 0:
            s = 1 if lo is None else -lo.sign()     # sign of 0 - lo
            t = 1 if hi is None else hi.sign()      # sign of hi - 0
            if ((s > 0 or s == 0 and not lo_open)
                    and (t > 0 or t == 0 and not hi_open)):
                return 0
            n0 = 1
        m = self._m
        if lo is not None and lo.q and lo.m != m:
            n, cut = n0, lo
        else:
            n = n0 if lo is None else self._first(n0, lo, None, lo_open,
                                                  False, upto)
            cut = hi
        limit = self._G.cap if upto is None else upto
        if n is None or n > limit:
            return None
        _refuse(cut.m, m)

    # -- the record tables ---------------------------------------------------

    def _links(self, table: list[tuple], chain: list[int], gap: ExactNumber,
               k: int) -> list[int]:
        """Extend ``chain`` by the links from index 0 up to k: the next
        index is n + d for the table's least record d at distance below
        ``gap``, and the gap shrinks by that distance.

        A run ``(d0, s, v0, y, inv, J, end)`` holds the records d0 + j*s
        at distance v0 - j*y for 1 <= j <= J (``inv`` = 1/y, ``end`` the
        last distance), below every earlier record's.  Records only get
        closer, so the search goes on from the run of the last link; in it
        the least record under the gap is j = floor((v0 - gap)/y) + 1.
        """
        n = r = 0
        while True:
            while len(table) <= r:
                self._grow()
            d0, s, v0, y, inv, J, end = table[r]
            if d0 + s > k - n:
                return chain
            if end.compare(gap) >= 0:
                r += 1
                continue
            j = 1 if J == 1 else ((v0 - gap) * inv).floor() + 1
            d = d0 + j * s
            if d > k - n:
                return chain
            self.links += 1
            n += d
            chain.append(n)
            gap = gap - (end if j == J else v0 - j * y)

    def _run(self, s: int) -> tuple:
        """Run s of the continued fraction (see :meth:`_grow`)."""
        while self.runs <= s:
            self._grow()
        return (self._lows if s % 2 else self._highs)[(s + 1) // 2]

    def _grow(self) -> None:
        """Append run s: ``(Q_(s-1), Q_s, delta_(s-1), delta_s, 1/delta_s,
        J, delta_(s+1))``, J = floor(delta_(s-1)/delta_s), from Q_(-1) = 0
        at delta_(-1) = 1 and Q_0 = 1 at delta_0 = a.  Q_s*alpha lies
        delta_s above an integer for even s and below one for odd s, so
        the run's records Q_(s-1) + j*Q_s at delta_(s-1) - j*delta_s,
        1 <= j <= J, are highs for even s and lows for odd s."""
        s = self.runs
        self.runs += 1
        # run -1 steps from Q_(-2) = 1 by Q_(-1) = 0
        d0, q, _, x, _, J, y = (self._run(s - 1) if s else
                                (1, 0, None, ONE, None, 0, self._a))
        d0, q = q, d0 + J * q
        inv = y.inverse()
        J = (x * inv).floor()
        (self._lows if s % 2 else self._highs).append(
            (d0, q, x, y, inv, J, x - J * y))

    def _rung(self, k: int) -> tuple:
        """Rung k of the rotation ladder, read off the runs on first use:
        ``(a_k, 1/a_k, reflect_k, next (i, j))``.  a_(k+1) is {1/a_k} if
        that is below 1/2 (reflect_k), else {-1/a_k}.  In :meth:`_grow`'s
        distances a_k = delta_j/delta_i, with (i, j) = (-1, 0) at k = 0 and
        i = j - 1 or j - 2 later, so {1/a_k} = delta_(j+1)/delta_j.  Thus
        reflect_k holds when 2*delta_(j+1) < delta_j, with next pair
        (j, j + 1); else the next partial quotient is 1, and (j, j + 2)."""
        ladder = self._ladder
        while len(ladder) <= k:
            i, j = ladder[-1][3] if ladder else (-1, 0)
            _, _, _, dj, inv_j, _, after = self._run(j)
            di, inv_i = self._run(i)[3:5] if i >= 0 else (ONE, ONE)
            reflect = (after * 2).compare(dj) < 0
            ladder.append((dj * inv_i, di * inv_j, reflect,
                           (j, j + 1 if reflect else j + 2)))
        return ladder[k]

    def _least(self, beta: ExactNumber, lo: ExactNumber, w: ExactNumber,
               limit: int) -> int:
        """Least t >= 0 with {beta + t*a} in [lo, lo + w), 0 < w <= 1, if
        it is at most ``limit``; else some value above ``limit``.

        Level k solves it for the rotation a_k of rung k (see
        :meth:`_rung`) on an arc closed at its low end or at its high end,
        from the distance g = {beta - lo} of the point above the arc's low
        end.  If g is inside the arc, t = 0.  Otherwise c = {-g} is the
        distance up to the low end; t must put t*a in [c + j, c + j + w)
        (or (c + j, c + j + w]) for the least wrap count j >= 0, so
        t = ceil((c + j)/a) (or floor((c + j)/a) + 1).  j = 0 serves when
        w >= a.  Otherwise, with x = c/a and w' = w/a, j solves level
        k + 1: the arc [0, w') from {-x} for the rotation {-1/a}, so
        g = {-x}; or, on a reflecting rung, the arc (1 - w', 1] (or
        [1 - w', 1)) from {x} for {1/a}, so g = {x + w'} and the closed
        end swaps.  The stack unwinds as (c + j) * (1/a), each rung's
        inverse read off the ladder.

        The last level pushed unwinds to t >= 1, and every rung after
        rung 0 is at most 1/2, so each further unwinding but rung 0's at
        least doubles t: with s levels on the stack t >= 2^(s-2), and the
        descent stops once that passes ``limit``.
        """
        self.first_hits += 1
        rung = self._rung
        g, closed, k = (beta - lo).frac(), True, 0
        stack: list[tuple[ExactNumber, ExactNumber, bool]] = []
        while True:
            self.levels += 1
            if closed:
                if g.compare(w) < 0:
                    t = 0
                    break
            elif g.sign() > 0 and g.compare(w) <= 0:
                t = 0
                break
            c = ONE - g if g.sign() > 0 else g
            a, inv, reflect, _ = rung(k)
            x = c * inv
            if w.compare(a) >= 0:
                t = _ceil(x) if closed else x.floor() + 1
                break
            stack.append((c, inv, closed))
            if len(stack) > 2 and 1 << (len(stack) - 2) > limit:
                return limit + 1
            w = w * inv
            if reflect:
                g, closed = (x + w).frac(), not closed
            else:
                g = (-x).frac()
            k += 1
        for c, inv, closed in reversed(stack):
            x = (c + t) * inv
            t = _ceil(x) if closed else x.floor() + 1
        return t


def _refuse(m: int, other: int) -> None:
    small, big = sorted((m, other))
    raise RadicandMismatch(f"cannot compare sqrt({small}) with sqrt({big})")


def _ceil(x: ExactNumber) -> int:
    return -(-x).floor()
