"""Constructive extraction of approximate integer segments, or of any
finite target set, from a dense oracle image.

One driver serves :func:`extract` (targets 1..N) and
:func:`approximate_target` (any finite targets >= 1).  Its base step puts
one exact ratio between the first two values; step j of k adjoins one
more, exactly the j-th target, at tolerance scale/6^(k-j):

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

A step reads the oracle only through four queries (see
:mod:`exactlab.dsets`): the first index from some index on whose value
lies in an interval, every index up to a bound whose value lies in a
closed window, the record chain of a cut on one side, and the index of a
value.  Phase 2 asks for the window's hits up to the previous bound, then
for first hits after it, and keeps the set of their values; phase 3 walks
the right-record chain of the best left value; phase 4 asks for one first
hit, plus one per midpoint collision; phase 5 lists the window's hits up
to the new bound and adds the values of those past phase 2's bound; the
ratio family of the new cuts reads four record chains and two value
indices.  The window lies inside the previous inner cut's bracket, so on
a rotation it holds two orbit values in [0, 1).

One query object from :func:`exactlab.orbit.queries` serves the whole
extraction.  For a rotation oracle over the default naturals it is the
first-hit engine, which builds the rotation's continued-fraction
expansion once; it answers every query exactly whatever its indices
(N = 9 reaches indices near 10^45 in under a second), and a needed index
past the budget still raises the scan's ``index <cap+1> exceeds cap
<cap>``.  For any other oracle it is a column scan that keeps its values,
so it evaluates each index once per extraction.  Both give identical
traces.

Every free choice is canonical (midpoints, least indices, exact ratio
inversion), so identical inputs produce bit-identical traces.  Each step
is checked once, and a failed check raises instead of returning: while the
targets so far are 1..j, by the independent segment checker up to j;
otherwise by the both-ways distance from the value set to {0} united with
those targets.

The indices compound: the window of step k+1 is a sliver of the gap found
at step k, so the index needed grows super-exponentially with the number of
steps.  With the default geometric tolerance schedule the default 10^6
budget still binds at N = 4 (phi's step 3 needs index 1 347 866), and such
a run fails in milliseconds; each further step multiplies the index by
roughly two to four orders of magnitude.
"""

from __future__ import annotations

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
)
from .approx import (
    RatioFamily,
    _bracket_terms,  # unused here; perfbench's tracer patches this name
    _family,
    _window,
    ratio_family,  # unused here; perfbench's tracer patches this name
)
from .orbit import queries
from .qnum import ExactNumber

ONE = ExactNumber(1)


@dataclass(frozen=True)
class TraceStep:
    n: int                      # step number (extract's segment target)
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


def _step(G: GrowableSet, f: FunctionOracle, prev: Optional[RatioFamily],
          target: ExactNumber, eps: ExactNumber, q) -> RatioFamily:
    """One step at tolerance eps, through the extraction's query object
    ``q`` (see :func:`exactlab.orbit.queries`).  The base step (no
    ``prev``) takes the target as its ratio if it is above 1, else
    1 + eps/2; a later step adjoins a ratio equal to the target, moving
    every earlier one by less than eps/6."""
    if prev is None:
        e0, e1 = G.element(0), G.element(1)
        v0, v1 = f.eval(e0), f.eval(e1)
        if v0 == v1:
            raise DegenerateOracle(
                f"oracle is constant on the two smallest elements ({v0})")
        low, high = (v0, v1) if v0 < v1 else (v1, v0)
        ratio = target if target.compare(1) > 0 else ONE + eps / 2
        a = low + (high - low) / ratio
        fam = _family(q, a, a, e1, 1, 1)
        expected = DiscreteSet([ExactNumber(0), ratio])
        if fam.yset != expected or not fam.admissible:
            raise StepVerificationFailed(
                f"bootstrap produced {fam.yset} instead of {expected}")
        return fam
    eps_move = eps / 6
    value = q.value
    l_ue = prev.approx.l
    e_idx = G.index_of(prev.d)

    # (1) window around the previous inner cut, from prev's terms and its
    #     bracket over the previous prefix (no search)
    lo, hi = _window(prev, eps_move)

    # (2) least bound from e_idx on holding two image values in the window
    seen = {value(i) for i in q.hits(e_idx, lo, hi)}
    d0_idx = e_idx
    while len(seen) < 2:
        d0_idx = q.first_hit(d0_idx + 1, lo, hi)
        seen.add(value(d0_idx))

    # (3) fresh outer cut: midpoint of the image-free gap above the
    #     previous best left value, closed by l's last right record
    nxt = q.chain(l_ue, d0_idx, below=False)[-1]
    a = (l_ue + value(nxt)) / 2

    # (4) least later index whose value lands between l and the new cut;
    #     should the midpoint be an image value met first, the gap has
    #     shrunk: re-take its midpoint and search on past that index
    d_idx = q.first_hit(d0_idx, l_ue, a, lo_open=True)
    while value(d_idx) == a:
        a = (l_ue + a) / 2
        d_idx = q.first_hit(d_idx + 1, l_ue, a, lo_open=True)
    d = G.element(d_idx)

    # (5) first widest image-free gap inside the window at the new bound;
    #     seen holds the values of every hit through d0_idx
    seen.update(value(i) for i in q.hits(d_idx, lo, hi) if i > d0_idx)
    inside = sorted(seen)
    w1, w2 = max(zip(inside, inside[1:]), key=lambda p: p[1] - p[0])

    # (6) inner cut placed so the new ratio is exact
    b = w1 + (w2 - w1) / target

    fam = _family(q, a, b, d, d_idx, d_idx)

    expected_anchors = tuple(prev.approx.L.elements) + (d,)
    if fam.approx.L.elements != expected_anchors:
        raise StepVerificationFailed(
            f"anchors changed: expected {list(expected_anchors)}, "
            f"got {list(fam.approx.L.elements)}")
    if not fam.admissible:
        raise StepVerificationFailed("extended family is not admissible")
    new_term = fam.terms[-1]
    if new_term.value != target:
        raise StepVerificationFailed(
            f"new ratio {new_term.value} is not the target {target}")
    for old, new in zip(prev.terms, fam.terms):
        drift = abs(new.value - old.value)
        if drift.compare(eps_move) >= 0:
            raise StepVerificationFailed(
                f"term at anchor {old.anchor} drifted by {drift} >= {eps_move}")
    return fam


def _check(fam: RatioFamily, targets, eps: ExactNumber,
           final: bool = False) -> None:
    """The one check of the step that reached ``targets``: the segment
    checker up to n while they are 1..n, else the both-ways distance from
    the value set to {0} united with them, which a ``final`` check takes."""
    n = len(targets)
    if not final and all(t == i for i, t in enumerate(targets, 1)):
        if not is_approx_segment(fam.yset, eps, n):
            raise StepVerificationFailed(
                f"extended set {fam.yset} failed its {eps}-segment "
                f"check up to {n}" if n > 1 else
                "bootstrap set failed its segment check")
        return
    goal = DiscreteSet([ExactNumber(0)] + list(targets))
    worst = max(max(fam.yset.dist(t) for t in goal),
                max(goal.dist(y) for y in fam.yset))
    if worst.compare(eps) >= 0:
        raise StepVerificationFailed(
            f"{'final' if final else f'step {n}'} set {fam.yset} is {worst} "
            f"away from {goal}, beyond eps = {eps}")


def bootstrap(G: GrowableSet, f: FunctionOracle, eps) -> RatioFamily:
    """Base step: ratios {0, 1 + eps/2}, an eps-segment up to 1, through
    its own query object."""
    eps = ExactNumber.coerce(eps)
    if eps.sign() <= 0:
        raise PreconditionFailed(f"eps must be positive, got {eps}")
    fam = _step(G, f, None, ONE, eps, queries(G._elems, f, G))
    _check(fam, [ONE], eps)
    return fam


def extend_step(G: GrowableSet, f: FunctionOracle, prev: RatioFamily,
                n: int, eps) -> RatioFamily:
    """Extend an (eps/6)-segment up to n into an eps-segment up to n + 1,
    through its own query object."""
    eps = ExactNumber.coerce(eps)
    if eps.sign() <= 0:
        raise PreconditionFailed(f"eps must be positive, got {eps}")
    if not prev.admissible:
        raise PreconditionFailed("previous family is not admissible")
    if not is_approx_segment(prev.yset, eps / 6, n):
        raise PreconditionFailed(
            f"previous set is not an {eps}/6-segment up to {n}")
    fam = _step(G, f, prev, ExactNumber(n + 1), eps,
                queries(G._elems, f, G))
    _check(fam, range(1, n + 2), eps)
    return fam


def _pipeline(G: GrowableSet, f: FunctionOracle, targets,
              scale: ExactNumber) -> ExtractionTrace:
    """The one loop behind both entry points: step j of k aims a ratio at
    targets[j-1] (a sequence of exact numbers or ints) at tolerance
    scale/6^(k-j), through one query object for the whole run (see
    :func:`exactlab.orbit.queries`), and passes its one check (see
    :func:`_check`).

    Step j's anchors strictly increase from index 0, so its bound has
    index >= j, and more targets than G's cap cannot fit it: that raises
    the cap error before any step, with G grown to the cap as a search
    past it leaves it.  The test slices, since a range of 2^63 or more
    targets has no ``len()``."""
    if targets[G.cap:]:
        G.exhaust()
    q = queries(G._elems, f, G)
    steps, fam = [], None
    for j, target in enumerate(targets, 1):
        eps = scale / 6 ** (len(targets) - j)
        fam = _step(G, f, fam, ExactNumber.coerce(target), eps, q)
        _check(fam, targets[:j], eps)
        steps.append(TraceStep(n=j, eps=eps, fam=fam,
                               d_index=G.index_of(fam.d),
                               max_index=G.materialized_bound,
                               check_passed=True))
    return ExtractionTrace(steps=tuple(steps), oracle=f.describe(),
                           budget=G.cap)


def extract(G: GrowableSet, f: FunctionOracle, N: int, eps_final
            ) -> ExtractionTrace:
    """Run the pipeline to an eps_final-segment up to N.

    Step k is checked at tolerance eps_final / 6^(N-k): the base step is the
    tightest, and each extension relaxes by the factor the induction needs.
    An N past G's cap raises the cap error before any step (see
    :func:`_pipeline`).
    """
    eps_final = ExactNumber.coerce(eps_final)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if eps_final.sign() <= 0:
        raise ValueError(f"eps_final must be positive, got {eps_final}")
    return _pipeline(G, f, range(1, N + 1), eps_final)


def approximate_target(G: GrowableSet, f: FunctionOracle, F: DiscreteSet,
                       eps) -> RatioFamily:
    """Drive the ratios onto an arbitrary finite target set with min >= 1.

    The pipeline aims step j's ratio at the j-th target, on the scale
    min(eps, least target, least gap between targets).  A final check
    confirms the value set within eps of {0} united with the targets.
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
    fam = _pipeline(G, f, targets, min([eps] + increments)).final
    _check(fam, targets, eps, final=True)
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
