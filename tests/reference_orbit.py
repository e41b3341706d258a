"""Frozen references for the first-hit engine.

:func:`record_chain` is the record-chain walk as it stood before the
record tables: one first hit per link, each asking for the first later
index whose value lies strictly between the last record's value and the
cut.  ``test_orbit.py`` runs ``Orbit.chain`` against it.

:func:`least` is ``Orbit._least`` as the continued-fraction recursion
that it was before it walked the record tables: every level inverts its
rotation, takes the fractional part of the inverse, compares it with 1/2,
and recomputes the distance {beta - lo} from a new start point and arc
end; the stack unwinds by dividing.  It is a plain function of an
:class:`exactlab.orbit.Orbit`, whose ``_a`` it reads and whose
``first_hits`` and ``levels`` it counts, a level per recursion level.
``test_orbit.py`` runs the library's walk against it.

:func:`hits` is ``Orbit.hits`` as it stood before the watched window: one
first hit per visit to the closed window, each up to the query's bound.
On an :class:`exactlab.orbit.Orbit` that :meth:`~exactlab.orbit.Orbit.hits`
was never asked for, every such first hit runs its own recursion and its
own solve of the closed high end.  ``test_orbit.py`` runs the stepped
``hits`` and the closed first hits on its window against it.
"""

from __future__ import annotations

from fractions import Fraction

from exactlab import ExactNumber

ZERO = ExactNumber(0)
ONE = ExactNumber(1)
_HALF = ExactNumber(Fraction(1, 2))


def record_chain(q, cut, k: int, below: bool) -> list[int]:
    """The record chain of ``cut`` below (or above) it over indices <= k,
    one first hit per link."""
    if below:
        n = q.first_hit(0, None, cut, hi_open=True, upto=k)
    else:
        n = q.first_hit(0, cut, None, lo_open=True, upto=k)
    chain: list[int] = []
    while n is not None:
        chain.append(n)
        v = q.value(n)
        if below:
            n = q.first_hit(n + 1, v, cut, True, True, upto=k)
        else:
            n = q.first_hit(n + 1, cut, v, True, True, upto=k)
    return chain


def hits(q, n0: int, k: int, lo: ExactNumber, hi: ExactNumber
         ) -> list[int]:
    """Every n from n0 through k with {n*alpha} in the closed [lo, hi],
    one first hit per visit."""
    out: list[int] = []
    n = q.first_hit(n0, lo, hi, upto=k)
    while n is not None:
        out.append(n)
        n = q.first_hit(n + 1, lo, hi, upto=k)
    return out


def least(self, beta: ExactNumber, lo: ExactNumber, w: ExactNumber
          ) -> int:
    """Least t >= 0 with {beta + t*a} in [lo, lo + w), 0 < w <= 1.

    A level solves it on an arc closed at its low end, [lo, lo + w),
    or at its high end, (lo, lo + w].  Let g = {beta - lo} and c =
    {-g}, the distance to the arc's low end; t must put t*a in
    [c + j, c + j + w) (or (c + j, c + j + w]) for the least wrap count
    j >= 0, so t = ceil((c + j)/a) (or floor((c + j)/a) + 1).  j = 0
    serves when w >= a.  Otherwise, with x = (c + j)/a, the condition
    on j reads {-x} in [0, w/a) (or (0, w/a]): an arc of width w/a for
    the rotation {-1/a} from {-c/a}, or, read through {x}, the arc
    (1 - w/a, 1] (or [1 - w/a, 1)) for {1/a} from {c/a}.
    """
    self.first_hits += 1
    a, closed = self._a, True
    stack: list[tuple[ExactNumber, ExactNumber, bool]] = []
    while True:
        self.levels += 1
        g = (beta - lo).frac()
        if closed:
            if g.compare(w) < 0:
                t = 0
                break
        elif g.sign() > 0 and g.compare(w) <= 0:
            t = 0
            break
        c = ONE - g if g.sign() > 0 else g
        if w.compare(a) >= 0:
            t = _ceil(c / a) if closed else (c / a).floor() + 1
            break
        stack.append((c, a, closed))
        inv = a.inverse()
        x = c * inv
        w = w * inv
        up = inv.frac()
        if up.compare(_HALF) < 0:
            beta, a, lo, closed = x.frac(), up, ONE - w, not closed
        else:
            beta, a, lo = (-x).frac(), ONE - up, ZERO
    for c, a, closed in reversed(stack):
        x = (c + t) / a
        t = _ceil(x) if closed else x.floor() + 1
    return t


def _ceil(x: ExactNumber) -> int:
    return -(-x).floor()
