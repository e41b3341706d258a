"""A frozen reference for the extraction pipeline.

This restates the extraction step and the ratio-family pass as they stood
before the value column: every value is an :class:`ExactNumber` returned by
an ``evaluate(element)`` function, kept in a plain list per step, and every
test is an ``ExactNumber`` compare.  The library's window, segment checker,
trace records and report are shared; the searches and the family pass are
not.  ``test_reference_pipeline.py`` runs the library against it.

It also restates the approx entry points as they stood before the one
record pass: :func:`best_approx` evaluates and compares one element at a
time, and the verification samples of :func:`stability_interval` and
:func:`widen_interval` evaluate D again for every sample.
``test_approx.py`` runs the library's entry points against these.

``evaluate`` defaults to ``f.eval``.  The differential tests pass an
independent one for rotation oracles, ``e -> frac(e * alpha)`` through
``ExactNumber.floor``, memoized per element, so the reference never calls
the oracle or the first-hit engine that the library reads.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from typing import Callable, Optional

from exactlab import DiscreteSet, ExactNumber, GrowableSet, is_approx_segment
from exactlab.approx import ApproxState, RatioFamily, RatioTerm, _window, gap_ratio
from exactlab.errors import (
    CutInImage,
    DegenerateOracle,
    EmptySet,
    EpsTooLarge,
    NoLeftValue,
    NoRightValue,
    NotASegment,
    NotInJ,
    PreconditionFailed,
    StepVerificationFailed,
    TargetBelowOne,
    VerificationError,
)
from exactlab.extraction import ExtractionTrace, TraceStep

ONE = ExactNumber(1)

Evaluate = Callable[[ExactNumber], ExactNumber]


def family_from_values(elems, values, a, b, d) -> RatioFamily:
    """The ratio family of cuts (a, b) at bound d over increasing elems."""
    a = ExactNumber.coerce(a)
    b = ExactNumber.coerce(b)
    d = ExactNumber.coerce(d)
    within = bisect.bisect_right(elems, d)
    if within == 0:
        raise EmptySet(f"no elements at or below {d}")
    left: list[ExactNumber] = []
    right: list[ExactNumber] = []
    a_l: Optional[ExactNumber] = None
    a_r: Optional[ExactNumber] = None
    b_l: Optional[ExactNumber] = None
    b_r: Optional[ExactNumber] = None
    terms: list[RatioTerm] = []
    on_image = False
    for i, (e, v) in enumerate(zip(elems, values)):
        if i < within:
            side = v.compare(a)
            if side < 0:
                if a_l is None or a_l <= v:
                    left.append(e)
                    a_l = v
            elif side > 0:
                if a_r is None or a_r >= v:
                    right.append(e)
                    a_r = v
            else:
                on_image = True
        elif v == a:
            on_image = True
        side = v.compare(b)
        if side < 0:
            if b_l is None or b_l < v:
                b_l = v
        elif side > 0:
            if b_r is None or b_r > v:
                b_r = v
        else:
            on_image = True
        while len(terms) < len(left) and b_l is not None and b_r is not None:
            terms.append(RatioTerm(
                anchor=left[len(terms)], bound_used=e, left=b_l, right=b_r,
                value=gap_ratio(b_l, b, b_r)))
    if a_l is None:
        raise NoLeftValue(f"no value below {a} within bound {d}")
    if a_r is None:
        raise NoRightValue(f"no value above {a} within bound {d}")
    state = ApproxState(L=DiscreteSet(left), R=DiscreteSet(right),
                        l=a_l, r=a_r, cut=a, bound=d)
    if len(terms) < len(left):
        if b_l is None:
            raise NoLeftValue(
                f"no value below {b} in the materialized prefix")
        raise NoRightValue(
            f"no value above {b} in the materialized prefix")
    ratios = [t.value for t in terms]
    increasing = all(x < y for x, y in zip(ratios, ratios[1:]))
    yset = DiscreteSet([ExactNumber(0)] + ratios)
    return RatioFamily(a=a, b=b, d=d, yset=yset,
                       admissible=increasing and not on_image,
                       terms=tuple(terms), approx=state,
                       checked_bound=elems[-1], bracket=(b_l, b_r))


def bootstrap_with_ratio(G: GrowableSet, evaluate: Evaluate,
                         ratio: ExactNumber) -> RatioFamily:
    e0, e1 = G.element(0), G.element(1)
    v0, v1 = evaluate(e0), evaluate(e1)
    if v0 == v1:
        raise DegenerateOracle(
            f"oracle is constant on the two smallest elements ({v0})")
    low = v0 if v0 < v1 else v1
    high = v1 if v0 < v1 else v0
    a = low + (high - low) / ratio
    D = G.prefix(1)
    fam = family_from_values(D.elements, [evaluate(e) for e in D], a, a, e1)
    expected = DiscreteSet([ExactNumber(0), ratio])
    if fam.yset != expected or not fam.admissible:
        raise StepVerificationFailed(
            f"bootstrap produced {fam.yset} instead of {expected}")
    return fam


def extension(G: GrowableSet, evaluate: Evaluate, prev: RatioFamily,
              ratio_target: ExactNumber, eps_move: ExactNumber
              ) -> RatioFamily:
    """One step: adjoin a ratio equal to ratio_target."""
    l_ue = prev.approx.l
    e_idx = G.index_of(prev.d)
    lo, hi = _window(prev, eps_move)
    vals: list[ExactNumber] = []

    found: dict[ExactNumber, int] = {}
    i = 0
    while True:
        v = evaluate(G.element(i))
        vals.append(v)
        if lo <= v <= hi and v not in found:
            found[v] = i
        if len(found) >= 2 and i >= e_idx:
            d0_idx = i
            break
        i += 1

    v_next: Optional[ExactNumber] = None
    for v in vals:
        if v > l_ue and (v_next is None or v < v_next):
            v_next = v
    a = (l_ue + v_next) / 2

    i = d0_idx
    while True:
        if i == len(vals):
            vals.append(evaluate(G.element(i)))
        v = vals[i]
        if v == a:
            a = (l_ue + a) / 2
        if lo <= v <= hi and v not in found:
            found[v] = i
        if l_ue < v < a:
            d_idx = i
            break
        i += 1
    d = G.element(d_idx)

    inside = sorted(found.items())
    pair = None
    for (w1, _), (w2, _) in zip(inside, inside[1:]):
        if pair is None or w2 - w1 > pair[1] - pair[0]:
            pair = (w1, w2)
    w1, w2 = pair
    b = w1 + (w2 - w1) / ratio_target

    fam = family_from_values(G._elems[:d_idx + 1], vals[:d_idx + 1], a, b, d)

    expected_anchors = tuple(prev.approx.L.elements) + (d,)
    if fam.approx.L.elements != expected_anchors:
        raise StepVerificationFailed(
            f"anchors changed: expected {list(expected_anchors)}, "
            f"got {list(fam.approx.L.elements)}")
    if not fam.admissible:
        raise StepVerificationFailed("extended family is not admissible")
    new_term = fam.terms[-1]
    if new_term.value != ratio_target:
        raise StepVerificationFailed(
            f"new ratio {new_term.value} is not the target {ratio_target}")
    for old, new in zip(prev.terms, fam.terms):
        drift = abs(new.value - old.value)
        if drift.compare(eps_move) >= 0:
            raise StepVerificationFailed(
                f"term at anchor {old.anchor} drifted by {drift} >= {eps_move}")
    return fam


def extract(G: GrowableSet, f, N: int, eps_final,
            evaluate: Optional[Evaluate] = None) -> ExtractionTrace:
    """The library's ``extract``, over the reference step."""
    evaluate = evaluate or f.eval
    eps_final = ExactNumber.coerce(eps_final)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if eps_final.sign() <= 0:
        raise ValueError(f"eps_final must be positive, got {eps_final}")
    eps_1 = eps_final / 6 ** (N - 1)
    fam = bootstrap_with_ratio(G, evaluate, ONE + eps_1 / 2)
    if not is_approx_segment(fam.yset, eps_1, 1):
        raise StepVerificationFailed("bootstrap set failed its segment check")
    steps = [TraceStep(n=1, eps=eps_1, fam=fam, d_index=G.index_of(fam.d),
                       max_index=G.materialized_bound, check_passed=True)]
    for k in range(2, N + 1):
        n = k - 1
        eps = eps_final / 6 ** (N - k)
        if not fam.admissible:
            raise PreconditionFailed("previous family is not admissible")
        if not is_approx_segment(fam.yset, eps / 6, n):
            raise PreconditionFailed(
                f"previous set is not an {eps}/6-segment up to {n}")
        fam = extension(G, evaluate, fam, ExactNumber(n + 1), eps / 6)
        if not is_approx_segment(fam.yset, eps, n + 1):
            raise StepVerificationFailed(
                f"extended set {fam.yset} failed its {eps}-segment "
                f"check up to {n + 1}")
        steps.append(TraceStep(n=k, eps=eps, fam=fam,
                               d_index=G.index_of(fam.d),
                               max_index=G.materialized_bound,
                               check_passed=True))
    return ExtractionTrace(steps=tuple(steps), oracle=f.describe(),
                           budget=G.cap)


def approximate_target(G: GrowableSet, f, F: DiscreteSet, eps,
                       evaluate: Optional[Evaluate] = None) -> RatioFamily:
    """The library's ``approximate_target``, over the reference step."""
    evaluate = evaluate or f.eval
    eps = ExactNumber.coerce(eps)
    if len(F) == 0:
        raise EmptySet("empty target set")
    if F.min().compare(1) < 0:
        raise TargetBelowOne(f"targets must be >= 1, got min {F.min()}")
    if eps.sign() <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    targets = list(F.elements)
    increments = [targets[0]] + [b - a for a, b in zip(targets, targets[1:])]
    scale = min([eps] + increments)
    k = len(targets)
    eps_1 = scale / 6 ** (k - 1)
    first = targets[0]
    ratio_1 = first if first.compare(1) > 0 else ONE + eps_1 / 2
    fam = bootstrap_with_ratio(G, evaluate, ratio_1)
    for j in range(2, k + 1):
        eps_j = scale / 6 ** (k - j)
        fam = extension(G, evaluate, fam, targets[j - 1], eps_j / 6)
    goal = DiscreteSet([ExactNumber(0)] + targets)
    worst = max(max(fam.yset.dist(t) for t in goal),
                max(goal.dist(y) for y in fam.yset))
    if worst.compare(eps) >= 0:
        raise StepVerificationFailed(
            f"final set {fam.yset} is {worst} away from {goal}, "
            f"beyond eps = {eps}")
    return fam


# -- the approx entry points, one element at a time ---------------------------


def best_approx(D: DiscreteSet, f, cut, bound) -> ApproxState:
    """Left and right best approximations of ``cut`` among D-elements <=
    bound: each element is evaluated and compared before the next one is
    evaluated."""
    cut = ExactNumber.coerce(cut)
    bound = ExactNumber.coerce(bound)
    Dd = D.restrict(bound)
    if len(Dd) == 0:
        raise EmptySet(f"no elements at or below {bound}")
    left: list[ExactNumber] = []
    right: list[ExactNumber] = []
    best_l: Optional[ExactNumber] = None
    best_r: Optional[ExactNumber] = None
    for e in Dd:
        v = f.eval(e)
        side = v.compare(cut)
        if side < 0:
            if best_l is None or best_l <= v:
                left.append(e)
                best_l = v
        elif side > 0:
            if best_r is None or best_r >= v:
                right.append(e)
                best_r = v
    if best_l is None:
        raise NoLeftValue(f"no value below {cut} within bound {bound}")
    if best_r is None:
        raise NoRightValue(f"no value above {cut} within bound {bound}")
    return ApproxState(L=DiscreteSet(left), R=DiscreteSet(right),
                       l=best_l, r=best_r, cut=cut, bound=bound)


def _samples(lo: ExactNumber, hi: ExactNumber, count: int, seed: int):
    """The seeded cuts the library draws inside (lo, hi)."""
    rng = random.Random(seed)
    width = hi - lo
    return [lo + width * Fraction(rng.randrange(1, 10 ** 6), 10 ** 6 + 1)
            for _ in range(count)]


def stability_interval(D: DiscreteSet, f, cut, bound, verify_samples: int = 0,
                       seed: int = 0) -> tuple[ExactNumber, ExactNumber]:
    """The bracket of ``cut`` after a pass that rejects a cut on the image;
    every verification sample evaluates D again through :func:`best_approx`."""
    cut = ExactNumber.coerce(cut)
    bound = ExactNumber.coerce(bound)
    for e in D.restrict(bound):
        if f.eval(e) == cut:
            raise CutInImage(f"{cut} is an image value at or below {bound}")
    state = best_approx(D, f, cut, bound)
    lo, hi = state.l, state.r
    if verify_samples:
        for b in _samples(lo, hi, verify_samples, seed):
            resampled = best_approx(D, f, b, bound)
            if resampled.L != state.L or resampled.R != state.R:
                raise VerificationError(
                    f"approximations changed inside ({lo}, {hi}) at cut {b}")
    return (lo, hi)


def widen_interval(D: DiscreteSet, f, fam: RatioFamily, eps, anchor_upto,
                   verify_samples: int = 0, seed: int = 0
                   ) -> tuple[ExactNumber, ExactNumber]:
    """The library's window after the same checks; every verification
    sample evaluates D again and rebuilds the family through
    :func:`family_from_values`."""
    eps = ExactNumber.coerce(eps)
    anchor_upto = ExactNumber.coerce(anchor_upto)
    if eps.compare(Fraction(1, 4)) >= 0:
        raise EpsTooLarge(f"eps must be < 1/4, got {eps}")
    if not fam.admissible:
        raise NotInJ("widen_interval needs an admissible family")
    if not is_approx_segment(fam.yset, eps, anchor_upto):
        raise NotASegment(
            f"family set is not an {eps}-segment up to {anchor_upto}")
    lo, hi = _window(fam, eps)
    if verify_samples:
        image_values = {f.eval(e) for e in D}
        for c in _samples(lo, hi, verify_samples, seed):
            if c in image_values:
                continue
            moved = family_from_values(D.elements, [f.eval(e) for e in D],
                                       fam.a, c, fam.d)
            if not moved.admissible or \
                    not is_approx_segment(moved.yset, 3 * eps, anchor_upto):
                raise VerificationError(
                    f"window ({lo}, {hi}) failed at sampled cut {c}: "
                    f"{moved.yset}")
    return (lo, hi)
