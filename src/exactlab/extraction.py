"""Constructive extraction of approximate integer segments from a dense
oracle image.

The pipeline starts from a two-element prefix (giving a single ratio close
to 1) and repeatedly adjoins one more ratio close to the next integer:

1. compute the window around the inner cut on which every existing ratio
   moves by less than a sixth of the step tolerance, in closed form from
   the previous family's terms and its inner-cut bracket;
2. grow the set until two image values land inside that window;
3. place a fresh outer cut just above the current best left value, at the
   midpoint of an image-free gap;
4. grow until some element's value falls between that best left value and
   the new cut - this element is the one new anchor;
5. pick the widest image-free gap inside the window at the new bound;
6. place the inner cut inside that gap so the new ratio is exact.

A step reads the oracle through a value column (see :mod:`exactlab.dsets`):
phase 1 scans nothing, the scans of phases 2 and 4 reach each new index
once, and phase 3 and the ratio family of the new cuts (anchors, brackets
and off-image checks in one pass) read what the scans reached.  For a
rotation oracle over the naturals the column is the oracle's own column of
raw integer coefficients, so each index is computed once per extraction
and every compare is an integer sign test; otherwise it is a list of exact
values, evaluated once per index and step.

Every free choice is canonical (midpoints, least indices, exact ratio
inversion), so identical inputs produce bit-identical traces.  Each step's
output is re-verified with the independent segment checker; a failed check
raises instead of returning.

The search cost compounds: the window of step k+1 is a sliver of the gap
found at step k, so the index needed grows super-exponentially with the
number of steps.  With the default geometric tolerance schedule and a
10^6-index budget, rotation oracles support about three steps; each further
step multiplies the required budget by roughly two orders of magnitude.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DegenerateOracle,
    EmptySet,
    PreconditionFailed,
    StepVerificationFailed,
    TargetBelowOne,
)
from .dsets import (
    DiscreteSet,
    FunctionOracle,
    GrowableSet,
    is_approx_segment,
    prefix_column,
)
from .approx import (
    RatioFamily,
    _bracket_terms,  # unused here; perfbench's tracer patches this name
    _family_from_values,
    _window,
    ratio_family,
)
from .qnum import ExactNumber

ONE = ExactNumber(1)


@dataclass(frozen=True)
class TraceStep:
    n: int                      # segment target reached at this step
    eps: ExactNumber            # tolerance the step was checked at
    fam: RatioFamily
    d_index: int                # index of the step's bound element
    max_index: int              # largest index materialized so far
    check_passed: bool


@dataclass(frozen=True)
class ExtractionTrace:
    steps: tuple[TraceStep, ...]
    oracle: str
    budget: int

    @property
    def final(self) -> RatioFamily:
        return self.steps[-1].fam


def _index_of(G: GrowableSet, e: ExactNumber) -> int:
    elems = G._elems
    i = bisect.bisect_left(elems, e)
    if i >= len(elems) or elems[i] != e:
        raise ValueError(f"{e} is not materialized")
    return i


def _bootstrap_with_ratio(G: GrowableSet, f: FunctionOracle,
                          ratio: ExactNumber) -> RatioFamily:
    """Two-element base instance: a single exact ratio from the first bracket."""
    e0, e1 = G.element(0), G.element(1)
    v0, v1 = f.eval(e0), f.eval(e1)
    if v0 == v1:
        raise DegenerateOracle(
            f"oracle is constant on the two smallest elements ({v0})")
    low = v0 if v0 < v1 else v1
    high = v1 if v0 < v1 else v0
    a = low + (high - low) / ratio
    fam = ratio_family(G.prefix(1), f, a, a, e1)
    expected = DiscreteSet([ExactNumber(0), ratio])
    if fam.yset != expected or not fam.admissible:
        raise StepVerificationFailed(
            f"bootstrap produced {fam.yset} instead of {expected}")
    return fam


def bootstrap(G: GrowableSet, f: FunctionOracle, eps) -> RatioFamily:
    """Base step: ratios {0, 1 + eps/2}, an eps-segment up to 1."""
    eps = ExactNumber.coerce(eps)
    if eps.sign() <= 0:
        raise PreconditionFailed(f"eps must be positive, got {eps}")
    fam = _bootstrap_with_ratio(G, f, ONE + eps / 2)
    if not is_approx_segment(fam.yset, eps, 1):
        raise StepVerificationFailed("bootstrap set failed its segment check")
    return fam


def _extension(G: GrowableSet, f: FunctionOracle, prev: RatioFamily,
               ratio_target: ExactNumber, eps_move: ExactNumber) -> RatioFamily:
    """One pipeline step: adjoin a ratio exactly equal to ratio_target while
    moving every existing ratio by less than eps_move."""
    col = prefix_column(G, f)
    value, side, cmp = col.value, col.side, col.cmp
    l_ue = prev.approx.l
    e_idx = _index_of(G, prev.d)

    # (1) window around the previous inner cut, from prev's terms and its
    #     bracket over the previous prefix (no scan)
    lo, hi = _window(prev, eps_move)
    above_lo, below_hi = side(lo), side(hi)

    # the scans read indices below `ready` and call col.reach to go on
    ready = 0

    # (2) least bound holding two image values inside the window
    found: dict[ExactNumber, int] = {}
    i = 0
    while True:
        if i == ready:
            ready = col.reach(i)
        if above_lo(i) >= 0 and below_hi(i) <= 0:
            found.setdefault(value(i), i)
        if i >= e_idx and len(found) >= 2:
            d0_idx = i
            break
        i += 1

    # (3) fresh outer cut: midpoint of the image-free gap above the
    #     previous best left value
    above_l = side(l_ue)
    nxt: Optional[int] = None
    for j in range(d0_idx + 1):
        if above_l(j) > 0 and (nxt is None or cmp(j, nxt) < 0):
            nxt = j
    a = (l_ue + value(nxt)) / 2
    below_a = side(a)

    # (4) least later element whose value lands between l and the new cut;
    #     should the midpoint collide with a later image value, the gap has
    #     shrunk: re-take its midpoint and keep scanning (a > l, so only a
    #     value above l can collide)
    i = d0_idx
    while True:
        if i == ready:
            ready = col.reach(i)
        if above_lo(i) >= 0 and below_hi(i) <= 0:
            found.setdefault(value(i), i)
        if above_l(i) > 0:
            s = below_a(i)
            if s < 0:
                d_idx = i
                break
            if s == 0:
                a = (l_ue + a) / 2
                below_a = side(a)
        i += 1
    d = G.element(d_idx)

    # (5) widest image-free gap inside the window at the new bound
    inside = sorted(found.items())
    pair = None
    for (w1, _), (w2, _) in zip(inside, inside[1:]):
        if pair is None or w2 - w1 > pair[1] - pair[0]:
            pair = (w1, w2)
    w1, w2 = pair

    # (6) inner cut placed so the new ratio is exact
    b = w1 + (w2 - w1) / ratio_target

    fam = _family_from_values(col, d_idx + 1, a, b, d)

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


def extend_step(G: GrowableSet, f: FunctionOracle, prev: RatioFamily,
                n: int, eps) -> RatioFamily:
    """Extend an (eps/6)-segment up to n into an eps-segment up to n + 1."""
    eps = ExactNumber.coerce(eps)
    if eps.sign() <= 0:
        raise PreconditionFailed(f"eps must be positive, got {eps}")
    if not prev.admissible:
        raise PreconditionFailed("previous family is not admissible")
    if not is_approx_segment(prev.yset, eps / 6, n):
        raise PreconditionFailed(
            f"previous set is not an {eps}/6-segment up to {n}")
    fam = _extension(G, f, prev, ExactNumber(n + 1), eps / 6)
    if not is_approx_segment(fam.yset, eps, n + 1):
        raise StepVerificationFailed(
            f"extended set {fam.yset} failed its {eps}-segment "
            f"check up to {n + 1}")
    return fam


def extract(G: GrowableSet, f: FunctionOracle, N: int, eps_final
            ) -> ExtractionTrace:
    """Run the pipeline to an eps_final-segment up to N.

    Step k is checked at tolerance eps_final / 6^(N-k): the base step is the
    tightest, and each extension relaxes by the factor the induction needs.
    """
    eps_final = ExactNumber.coerce(eps_final)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if eps_final.sign() <= 0:
        raise ValueError(f"eps_final must be positive, got {eps_final}")
    steps = []
    eps_1 = eps_final / 6 ** (N - 1)
    fam = bootstrap(G, f, eps_1)
    steps.append(TraceStep(n=1, eps=eps_1, fam=fam,
                           d_index=_index_of(G, fam.d),
                           max_index=G.materialized_bound,
                           check_passed=True))
    for k in range(2, N + 1):
        eps_k = eps_final / 6 ** (N - k)
        fam = extend_step(G, f, fam, n=k - 1, eps=eps_k)
        steps.append(TraceStep(n=k, eps=eps_k, fam=fam,
                               d_index=_index_of(G, fam.d),
                               max_index=G.materialized_bound,
                               check_passed=True))
    return ExtractionTrace(steps=tuple(steps), oracle=f.describe(),
                           budget=G.cap)


def approximate_target(G: GrowableSet, f: FunctionOracle, F: DiscreteSet,
                       eps) -> RatioFamily:
    """Drive the ratios onto an arbitrary finite target set with min >= 1.

    Generalizes the pipeline by aiming each new ratio at the next target
    element instead of the next integer.  The returned family's value set
    is within eps of {0} united with the targets, in both directions.
    """
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
    fam = _bootstrap_with_ratio(G, f, ratio_1)
    for j in range(2, k + 1):
        eps_j = scale / 6 ** (k - j)
        fam = _extension(G, f, fam, targets[j - 1], eps_j / 6)

    goal = DiscreteSet([ExactNumber(0)] + targets)
    worst = max(max(fam.yset.dist(t) for t in goal),
                max(goal.dist(y) for y in fam.yset))
    if worst.compare(eps) >= 0:
        raise StepVerificationFailed(
            f"final set {fam.yset} is {worst} away from {goal}, "
            f"beyond eps = {eps}")
    return fam


def trace_report(trace: ExtractionTrace) -> list[str]:
    """Line-oriented exact rendering of a trace, stable across runs."""
    lines = [f"oracle={trace.oracle}",
             f"budget={trace.budget}",
             f"steps={len(trace.steps)}"]
    for step in trace.steps:
        yvals = ",".join(str(y) for y in step.fam.yset)
        lines.append(
            f"step={step.n} eps={step.eps} a={step.fam.a} b={step.fam.b} "
            f"d={step.fam.d} d_index={step.d_index} "
            f"max_index={step.max_index} Y={{{yvals}}} "
            f"check={'pass' if step.check_passed else 'fail'}")
    return lines
