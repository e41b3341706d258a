"""Best approximations of a cut from below and above, and the gap-ratio
families built from them.

For a cut ``c`` and a bound ``d``, an index ``e <= d`` is a *left best
approximation* if ``f(e) < c`` and no earlier index has a value strictly
between ``f(e)`` and ``c``; right best approximations are symmetric.  The
values of the two current record holders bracket the cut:
``l < c < r``.

A :class:`RatioFamily` attaches to each left best approximation ``e`` of an
outer cut ``a`` the ratio ``(r - l) / (b - l)`` of the bracket that a second
cut ``b`` has at bound ``e``.  The family is *admissible* when neither cut
lies on the materialized image and the ratios are strictly increasing; the
extraction pipeline drives these ratios onto 1, 2, 3, ...

Bracket convention: at the very first index the cut has one-sided data only
(there is a single value).  Whenever a bound fails to bracket the cut, the
bracket is taken at the first later index at which values exist on both
sides.  This is forced by the base case of the extraction (a two-element
prefix carries the first meaningful ratio) and depends only on the cut and
the anchor index, never on the ambient bound.

One family builder: :func:`_family` reads the record chains of both cuts
and their orbit indices through the oracle queries of :mod:`exactlab.dsets`,
so the entry points here and the extraction step build families alike, on
the queries :func:`exactlab.orbit.queries` picks: the first-hit engine for
a rotation over a naturals view (:meth:`GrowableSet.prefix`), at any bound;
else a column that evaluates D once: up to the bound in :func:`best_approx`
and :func:`stability_interval`, all of D in :func:`ratio_family`, and in
:func:`widen_interval` only to verify.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    CutInImage,
    EmptySet,
    EpsTooLarge,
    NoLeftValue,
    NoRightValue,
    NotASegment,
    NotInJ,
    VerificationError,
)
from .dsets import (
    DiscreteSet,
    FunctionOracle,
    _last,
    _rank,
    is_approx_segment,
)
from .orbit import queries
from .qnum import ExactNumber, exact

_QUARTER = exact("1/4")


@dataclass(frozen=True)
class ApproxState:
    """Best-approximation data of one cut at one bound."""

    L: DiscreteSet
    R: DiscreteSet
    l: ExactNumber
    r: ExactNumber
    cut: ExactNumber
    bound: ExactNumber

    def __post_init__(self):
        assert self.l < self.cut < self.r, "bracket must straddle the cut"


def gap_ratio(a, b, c) -> ExactNumber:
    """(c - a) / (b - a) when a < b < c, else 0."""
    a, b, c = (ExactNumber.coerce(v) for v in (a, b, c))
    if a < b < c:
        return (c - a) / (b - a)
    return ExactNumber(0)


def best_approx(D: DiscreteSet, f: FunctionOracle, cut, bound) -> ApproxState:
    """Left and right best approximations of ``cut`` among D-elements <= bound.

    Raises NoLeftValue / NoRightValue when all values within the bound lie on
    one side of the cut.
    """
    cut, bound = ExactNumber.coerce(cut), ExactNumber.coerce(bound)
    q, k, _ = _queries(D, f, bound)
    return _state(q, cut, bound, *_chains(q, cut, k))


def stability_interval(D: DiscreteSet, f: FunctionOracle, cut, bound,
                       verify_samples: int = 0, seed: int = 0
                       ) -> tuple[ExactNumber, ExactNumber]:
    """Open interval around the cut on which L and R do not change.

    Any cut drawn from the returned bracket reproduces identical L and R
    sets.  Requires the cut to lie off the image of the bounded prefix.
    ``verify_samples`` re-derives L and R at that many seeded random cuts
    inside the interval (a configuration knob, not part of the contract).
    """
    cut, bound = ExactNumber.coerce(cut), ExactNumber.coerce(bound)
    q, k, _ = _queries(D, f, bound)
    n = q.orbit_index(cut)
    if n is not None and n <= k:
        raise CutInImage(f"{cut} is an image value at or below {bound}")
    state = _state(q, cut, bound, *_chains(q, cut, k))
    lo, hi = state.l, state.r
    if verify_samples:
        rng = random.Random(seed)
        width = hi - lo
        for _ in range(verify_samples):
            b = lo + width * Fraction(rng.randrange(1, 10 ** 6), 10 ** 6 + 1)
            resampled = _state(q, b, bound, *_chains(q, b, k))
            if resampled.L != state.L or resampled.R != state.R:
                raise VerificationError(
                    f"approximations changed inside ({lo}, {hi}) at cut {b}")
    return (lo, hi)


@dataclass(frozen=True)
class RatioTerm:
    """One gap ratio of the inner cut, anchored at a left best approximation
    of the outer cut."""

    anchor: ExactNumber          # the left-best-approximation element e
    bound_used: ExactNumber      # first element >= anchor whose prefix brackets the cut
    left: ExactNumber
    right: ExactNumber
    value: ExactNumber           # (right - left) / (cut - left)


@dataclass(frozen=True)
class RatioFamily:
    """The candidate approximate integer set built from bracket ratios.

    ``bracket`` lies inside every term's ``(left, right)``, since each of
    those is b's running bracket at a bound within the checked prefix.
    """

    a: ExactNumber               # outer cut: its left best approximations anchor the terms
    b: ExactNumber               # inner cut: its brackets produce the ratios
    d: ExactNumber               # ambient bound
    yset: DiscreteSet            # {0} united with the term values, duplicates collapsed
    admissible: bool             # cuts off the materialized image, ratios strictly increasing
    terms: tuple[RatioTerm, ...]
    approx: ApproxState          # best-approximation state of the outer cut at d
    checked_bound: ExactNumber   # largest element used for the off-image checks
    bracket: tuple[ExactNumber, ExactNumber]  # b's bracket over the checked prefix


def _bracket_terms(D: DiscreteSet, f: FunctionOracle, cut: ExactNumber,
                   anchors: Sequence[ExactNumber]) -> list[RatioTerm]:
    """Bracket data of ``cut`` at each anchor, in one pass over D.

    Applies the first-bracketing-bound fallback where an anchor's prefix has
    values on one side only.  No entry point calls it: it stays as the
    tests' independent statement of the inner-cut brackets, and as a name
    that profiling tools wrap here and in :mod:`exactlab.extraction`.
    """
    terms: list[RatioTerm] = []
    pending = sorted(anchors)
    idx = 0
    best_l: Optional[ExactNumber] = None
    best_r: Optional[ExactNumber] = None
    for e in D:
        v = f.eval(e)
        side = v.compare(cut)
        if side < 0 and (best_l is None or best_l < v):
            best_l = v
        elif side > 0 and (best_r is None or best_r > v):
            best_r = v
        while idx < len(pending) and pending[idx] <= e:
            if best_l is None or best_r is None:
                break  # not bracketed yet: fall through to a later bound
            anchor = pending[idx]
            terms.append(RatioTerm(
                anchor=anchor, bound_used=e, left=best_l, right=best_r,
                value=gap_ratio(best_l, cut, best_r)))
            idx += 1
    if idx < len(pending):
        if best_l is None:
            raise NoLeftValue(
                f"no value below {cut} in the materialized prefix")
        raise NoRightValue(
            f"no value above {cut} in the materialized prefix")
    return terms


def ratio_family(D: DiscreteSet, f: FunctionOracle, a, b, d) -> RatioFamily:
    """Build the ratio family of cuts (a, b) at bound d.

    Anchors are the left best approximations of ``a`` at bound ``d``; each
    contributes the gap ratio of ``b`` at that anchor.  Membership of the
    cuts in the image is decided against the materialized prefix ``D`` and
    recorded via ``checked_bound``.

    The record chains of both cuts, one pass of a column or the engine's
    (see :func:`_queries`), find the anchors, their brackets and the flags.
    """
    a, b, d = (ExactNumber.coerce(v) for v in (a, b, d))
    q, k, upto = _queries(D, f, d, whole=True)
    return _family(q, a, b, d, k, upto)


def _queries(D: DiscreteSet, f: FunctionOracle, d: ExactNumber,
             whole: bool = False):
    """The oracle queries of f over D up to d, or over all of D if
    ``whole``, with the index of D's last element at or below d (EmptySet
    if none) and that of the last element queried.  The queries come from
    :func:`exactlab.orbit.queries`; the engine's queries here all carry
    their bound, and a column evaluated up to d reads each index as a
    query first needs it, so a cut on the image is refused before any
    later index."""
    k = _rank(D.elements, d) - 1
    elems = D.elements if whole else D.elements[:k + 1]
    q = queries(elems, f, whole=whole)
    if k < 0:
        raise EmptySet(f"no elements at or below {d}")
    return q, k, _last(elems)


def _chains(q, cut: ExactNumber, k: int) -> tuple[list[int], list[int]]:
    """``cut``'s left and right record chains over the indices <= k."""
    return q.chain(cut, k, below=True), q.chain(cut, k, below=False)


def _state(q, a: ExactNumber, d: ExactNumber, left: list[int],
           right: list[int]) -> ApproxState:
    """``a``'s :class:`ApproxState` at bound ``d`` from its record chains."""
    if not left:
        raise NoLeftValue(f"no value below {a} within bound {d}")
    if not right:
        raise NoRightValue(f"no value above {a} within bound {d}")
    # a chain's indices strictly increase, and so do the elements they
    # index, all of one set: each chain is the sorted tuple of distinct
    # non-negative elements that _of asks for.  A list sizes its tuple at
    # once; tuples grown from an iterator are resized, and pile up on the
    # interpreter's per-size free lists, so peak RSS crept up run by run
    return ApproxState(L=DiscreteSet._of(tuple([q.elem(j) for j in left])),
                       R=DiscreteSet._of(tuple([q.elem(j) for j in right])),
                       l=q.value(left[-1]), r=q.value(right[-1]),
                       cut=a, bound=d)


def _family(q, a: ExactNumber, b: ExactNumber, d: ExactNumber, k: int,
            upto: int) -> RatioFamily:
    """:func:`ratio_family` over the oracle queries ``q`` (see
    :mod:`exactlab.dsets`): ``a``'s records over the indices <= k (those at
    or below ``d``), ``b``'s brackets and the off-image checks over the
    indices <= upto.

    Each anchor's term reads ``b``'s bracket at the first bound from the
    anchor on at which ``b`` has values on both sides: its record chains'
    last entries at or below that bound, found by bisection.
    """
    a_left, a_right = _chains(q, a, k)
    b_left, b_right = _chains(q, b, upto)
    state = _state(q, a, d, a_left, a_right)
    if not b_left:
        raise NoLeftValue(f"no value below {b} in the materialized prefix")
    if not b_right:
        raise NoRightValue(f"no value above {b} in the materialized prefix")
    value, elem = q.value, q.elem
    first = max(b_left[0], b_right[0])
    terms = []
    for j in a_left:
        i = max(j, first)
        l = value(b_left[bisect.bisect_right(b_left, i) - 1])
        r = value(b_right[bisect.bisect_right(b_right, i) - 1])
        terms.append(RatioTerm(anchor=elem(j), bound_used=elem(i),
                               left=l, right=r, value=gap_ratio(l, b, r)))
    on_image = any(n is not None and n <= upto
                   for n in (q.orbit_index(a), q.orbit_index(b)))
    ratios = [t.value for t in terms]
    increasing = all(x < y for x, y in zip(ratios, ratios[1:]))
    yset = DiscreteSet([ExactNumber(0)] + ratios)
    return RatioFamily(a=a, b=b, d=d, yset=yset,
                       admissible=increasing and not on_image,
                       terms=tuple(terms), approx=state,
                       checked_bound=elem(upto),
                       bracket=(value(b_left[-1]), value(b_right[-1])))


def _window(fam: RatioFamily, eps: ExactNumber
            ) -> tuple[ExactNumber, ExactNumber]:
    """Open interval around the inner cut on which every term moves by less
    than eps, with no checks on the family's shape.

    Solved in closed form per term: for a fixed bracket (l, r) the ratio
    c -> (r - l)/(c - l) is strictly decreasing on (l, r), so each term's
    window is the preimage of (t0 - eps, t0 + eps), unbounded above when
    t0 - eps <= 1.  The intersection starts from ``fam.bracket``, which
    lies inside every term's bracket, so every cut in the window keeps
    identical bracket data at every anchor.
    """
    lo, hi = fam.bracket
    for term in fam.terms:
        l, t0 = term.left, term.value
        width = term.right - l
        t_lo = l + width / (t0 + eps)
        if lo < t_lo:
            lo = t_lo
        if (t0 - eps).compare(1) > 0:
            t_hi = l + width / (t0 - eps)
            if hi > t_hi:
                hi = t_hi
    assert lo < fam.b < hi, "inner cut must sit inside its own window"
    return lo, hi


def widen_interval(D: DiscreteSet, f: FunctionOracle, fam: RatioFamily,
                   eps, anchor_upto, verify_samples: int = 0, seed: int = 0
                   ) -> tuple[ExactNumber, ExactNumber]:
    """Open interval around the inner cut on which every term moves by less
    than eps: :func:`_window` after checking that eps < 1/4 and that the
    family is admissible and an eps-segment up to ``anchor_upto``.

    The window comes from ``fam`` alone; ``D`` feeds only
    ``verify_samples``, which rebuilds the family over ``D`` at that many
    seeded random cuts inside the window (skipping image values) and checks
    each is admissible and a 3*eps-segment; a failure raises, since the
    window computation would have to be wrong.
    """
    eps = ExactNumber.coerce(eps)
    anchor_upto = ExactNumber.coerce(anchor_upto)
    if eps.compare(_QUARTER) >= 0:
        raise EpsTooLarge(f"eps must be < 1/4, got {eps}")
    if not fam.admissible:
        raise NotInJ("widen_interval needs an admissible family")
    if not is_approx_segment(fam.yset, eps, anchor_upto):
        raise NotASegment(
            f"family set is not an {eps}-segment up to {anchor_upto}")
    lo, hi = _window(fam, eps)
    if verify_samples:
        rng = random.Random(seed)
        width = hi - lo
        q, k, upto = _queries(D, f, fam.d, whole=True)
        for _ in range(verify_samples):
            c = lo + width * Fraction(rng.randrange(1, 10 ** 6), 10 ** 6 + 1)
            n = q.orbit_index(c)
            if n is not None and n <= upto:
                continue
            moved = _family(q, fam.a, c, fam.d, k, upto)
            if not moved.admissible or \
                    not is_approx_segment(moved.yset, 3 * eps, anchor_upto):
                raise VerificationError(
                    f"window ({lo}, {hi}) failed at sampled cut {c}: "
                    f"{moved.yset}")
    return (lo, hi)
