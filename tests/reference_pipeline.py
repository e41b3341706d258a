"""A frozen reference for the extraction pipeline.

This restates the extraction step and the ratio-family pass as they stood
before the value column: every value is an :class:`ExactNumber` returned by
an ``evaluate(element)`` function, kept in a plain list per step, and every
test is an ``ExactNumber`` compare.  The library's window, segment checker,
trace records and report are shared; the searches and the family pass are
not.  ``test_reference_pipeline.py`` runs the library against it.

``evaluate`` defaults to ``f.eval``.  The differential tests pass an
independent one for rotation oracles, ``e -> frac(e * alpha)`` through
``ExactNumber.floor``, so the library's raw coefficient column is checked
against plain exact arithmetic too.
"""

from __future__ import annotations

import bisect
from typing import Callable, Optional

from exactlab import DiscreteSet, ExactNumber, GrowableSet, is_approx_segment
from exactlab.approx import ApproxState, RatioFamily, RatioTerm, _window, gap_ratio
from exactlab.errors import (
    DegenerateOracle,
    EmptySet,
    NoLeftValue,
    NoRightValue,
    PreconditionFailed,
    StepVerificationFailed,
    TargetBelowOne,
)
from exactlab.extraction import ExtractionTrace, TraceStep, _index_of

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
    e_idx = _index_of(G, prev.d)
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
    steps = [TraceStep(n=1, eps=eps_1, fam=fam, d_index=_index_of(G, fam.d),
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
                               d_index=_index_of(G, fam.d),
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
