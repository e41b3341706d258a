from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from exactlab import (
    DiscreteSet,
    ExactNumber,
    GrowableSet,
    PHI,
    RotationOracle,
    SQRT2,
    SQRT3,
    TableOracle,
    best_approx,
    exact,
    gap_ratio,
    is_approx_segment,
    ratio_family,
    stability_interval,
    widen_interval,
)
from exactlab.approx import RatioFamily, _bracket_terms, _window
from exactlab.errors import (
    CutInImage,
    EmptySet,
    EpsTooLarge,
    NoLeftValue,
    NoRightValue,
    NotInJ,
    OracleDomainError,
    RadicandMismatch,
)

import reference_pipeline as ref
from conftest import ROTATION_BASES, SQUAREFREE, alphas


def brute_force_check(D, f, state):
    """Re-verify a best-approximation state directly from the definition."""
    elems = list(D.restrict(state.bound))
    values = {e: f.eval(e) for e in elems}
    for e in elems:
        v = values[e]
        earlier = [values[x] for x in elems if x < e]
        left_ok = v < state.cut and not any(v < w < state.cut for w in earlier)
        right_ok = v > state.cut and not any(state.cut < w < v for w in earlier)
        assert (e in state.L) == left_ok
        assert (e in state.R) == right_ok
    assert state.l == values[state.L.max()]
    assert state.r == values[state.R.max()]
    assert state.l < state.cut < state.r


def test_best_approx_rotation_example():
    D = DiscreteSet.naturals(10)
    rot = RotationOracle(PHI)
    state = best_approx(D, rot, F(1, 2), 4)
    assert list(state.L) == [exact(0), exact(2), exact(4)]
    assert list(state.R) == [exact(1)]
    assert state.l == 4 * PHI - 6
    assert state.r == PHI - 1
    brute_force_check(D, rot, state)


def test_best_approx_two_point_table():
    D = DiscreteSet([0, 1])
    f = TableOracle({0: 0, 1: 1})
    state = best_approx(D, f, F(1, 2), 1)
    assert list(state.L) == [exact(0)]
    assert list(state.R) == [exact(1)]
    assert (state.l, state.r) == (exact(0), exact(1))


def test_best_approx_one_sided_errors():
    D = DiscreteSet([0, 1])
    with pytest.raises(NoRightValue):
        best_approx(D, TableOracle({0: 0, 1: F(1, 4)}), F(1, 2), 1)
    with pytest.raises(NoLeftValue):
        best_approx(D, TableOracle({0: 2, 1: 3}), F(1, 2), 1)
    with pytest.raises(EmptySet):
        best_approx(D, TableOracle({0: 0, 1: 1}), F(1, 2), -1)


def test_best_approx_left_values_improve(rng):
    # successive left best approximations strictly improve, and symmetrically
    for base in ROTATION_BASES:
        rot = RotationOracle(base)
        D = DiscreteSet.naturals(60)
        for _ in range(20):
            cut = F(rng.randrange(1, 99), 100)
            state = best_approx(D, rot, cut, rng.randrange(3, 60))
            lvals = [rot.eval(e) for e in state.L]
            assert all(x < y for x, y in zip(lvals, lvals[1:]))
            rvals = [rot.eval(e) for e in state.R]
            assert all(x > y for x, y in zip(rvals, rvals[1:]))
            brute_force_check(D, rot, state)


def test_gap_ratio():
    assert gap_ratio(0, F(1, 2), 1) == exact(2)
    assert gap_ratio(1, 0, 2) == exact(0)
    assert gap_ratio(0, 0, 1) == exact(0)
    quad = gap_ratio(4 * PHI - 6, F(1, 2), PHI - 1)
    assert quad == (5 - 3 * PHI) / (exact(F(13, 2)) - 4 * PHI)


def test_stability_interval_examples():
    D = DiscreteSet.naturals(10)
    rot = RotationOracle(PHI)
    lo, hi = stability_interval(D, rot, F(1, 2), 4)
    assert (lo, hi) == (4 * PHI - 6, PHI - 1)
    lo, hi = stability_interval(DiscreteSet([0, 1]),
                                TableOracle({0: 0, 1: 1}), F(1, 2), 1)
    assert (lo, hi) == (exact(0), exact(1))


def test_stability_interval_rejects_image_cut():
    with pytest.raises(CutInImage):
        stability_interval(DiscreteSet.naturals(10), RotationOracle(PHI),
                           2 * PHI - 3, 4)


def test_stability_resampling(rng):
    # any cut drawn inside the interval reproduces identical L and R
    rot = RotationOracle(SQRT2)
    D = DiscreteSet.naturals(40)
    state = best_approx(D, rot, F(1, 3), 25)
    lo, hi = stability_interval(D, rot, F(1, 3), 25)
    width = hi - lo
    for k in range(1, 50):
        b = lo + width * F(k, 50)
        resampled = best_approx(D, rot, b, 25)
        assert resampled.L == state.L
        assert resampled.R == state.R


def test_ratio_family_bootstrap_instance():
    a = (PHI - 1) * 20 / 21
    fam = ratio_family(DiscreteSet.naturals(1), RotationOracle(PHI), a, a, 1)
    assert fam.yset == DiscreteSet([0, F(21, 20)])
    assert fam.admissible
    assert fam.checked_bound == exact(1)


def test_ratio_family_singleton_anchor_uses_first_bracketing_bound():
    # the anchor 0 has no value above the cut in its own prefix; its term
    # comes from the first prefix that brackets the cut
    f = TableOracle({0: 0, 1: 1, 2: F(1, 4)})
    fam = ratio_family(DiscreteSet.naturals(2), f, F(1, 8), F(1, 2), 2)
    term = fam.terms[0]
    assert term.anchor == exact(0)
    assert term.bound_used == exact(1)
    assert (term.left, term.right) == (exact(0), exact(1))


def test_ratio_family_repeated_value_not_admissible():
    # two anchors whose brackets coincide produce equal ratios
    f = TableOracle({0: 0, 1: 10, 2: 4, 3: 8, 4: 20})
    fam = ratio_family(DiscreteSet.naturals(4), f, 11, 5, 4)
    assert [str(t.anchor) for t in fam.terms] == ["0", "1"]
    assert fam.terms[0].value == fam.terms[1].value
    assert not fam.admissible


def test_ratio_family_cut_on_image_not_admissible():
    rot = RotationOracle(PHI)
    fam = ratio_family(DiscreteSet.naturals(4), rot, F(1, 2), 2 * PHI - 3, 4)
    assert not fam.admissible


def test_ratio_family_same_anchors_same_set(rng):
    # perturbing the outer cut inside its stability interval leaves the
    # family unchanged
    rot = RotationOracle(PHI)
    D = DiscreteSet.naturals(40)
    a = F(1, 2)
    lo, hi = stability_interval(D, rot, a, 30)
    b = F(2, 5)
    fam = ratio_family(D, rot, a, b, 30)
    width = hi - lo
    for k in (1, 7, 49):
        a2 = lo + width * F(k, 50)
        fam2 = ratio_family(D, rot, a2, b, 30)
        assert fam2.approx.L == fam.approx.L
        assert fam2.yset == fam.yset


def test_widen_interval_bootstrap_and_samples():
    rot = RotationOracle(PHI)
    D = DiscreteSet.naturals(1)
    a = (PHI - 1) / (1 + F(1, 120))
    fam = ratio_family(D, rot, a, a, 1)
    eps = F(1, 60)
    lo, hi = widen_interval(D, rot, fam, eps, 1)
    assert lo < a < hi
    width = hi - lo
    for k in (1, 13, 37, 49):
        c = lo + width * F(k, 50)
        if any(rot.eval(e) == c for e in D):
            continue
        moved = ratio_family(D, rot, a, c, 1)
        assert moved.admissible
        assert is_approx_segment(moved.yset, 3 * eps, 1)


def test_widen_interval_rejects_large_eps_and_bad_family():
    rot = RotationOracle(PHI)
    D = DiscreteSet.naturals(1)
    a = (PHI - 1) / (1 + F(1, 120))
    fam = ratio_family(D, rot, a, a, 1)
    with pytest.raises(EpsTooLarge):
        widen_interval(D, rot, fam, F(1, 3), 1)
    f = TableOracle({0: 0, 1: 10, 2: 4, 3: 8, 4: 20})
    bad = ratio_family(DiscreteSet.naturals(4), f, 11, 5, 4)
    with pytest.raises(NotInJ):
        widen_interval(DiscreteSet.naturals(4), f, bad, F(1, 60), 1)


def test_widen_interval_skips_a_sampled_cut_on_the_image():
    # the window of a family over a two-value table, checked over a third
    # index whose value is the first seeded sample: that cut is skipped,
    # though the family moved to it would fail the check
    a, eps = exact(F(120, 121)), exact(F(1, 60))
    fam = ratio_family(DiscreteSet.naturals(1), TableOracle({0: 0, 1: 1}),
                       a, a, 1)
    c, = ref._samples(*_window(fam, eps), 1, 0)
    f, D = TableOracle({0: 0, 1: 1, 2: c}), DiscreteSet.naturals(2)
    assert not ratio_family(D, f, a, c, 1).admissible
    assert widen_interval(D, f, fam, eps, 1, verify_samples=1) == \
        ref.widen_interval(D, f, fam, eps, 1, verify_samples=1)


def test_cross_radicand_pipelines_share_nothing(rng):
    # the same machinery runs for each quadratic base independently
    for base in ROTATION_BASES:
        rot = RotationOracle(base)
        D = DiscreteSet.naturals(30)
        state = best_approx(D, rot, F(1, 2), 20)
        brute_force_check(D, rot, state)


def test_verified_postconditions_on_request():
    rot = RotationOracle(PHI)
    D = DiscreteSet.naturals(40)
    lo, hi = stability_interval(D, rot, F(1, 3), 25,
                                verify_samples=50, seed=7)
    assert lo < exact(F(1, 3)) < hi
    a = (PHI - 1) / (1 + F(1, 120))
    fam = ratio_family(DiscreteSet.naturals(1), rot, a, a, 1)
    lo, hi = widen_interval(DiscreteSet.naturals(1), rot, fam, F(1, 60), 1,
                            verify_samples=25, seed=7)
    assert lo < a < hi


def test_cut_equal_to_a_value_joins_neither_side():
    # a value exactly on the cut is neither below nor above it
    f = TableOracle({0: 0, 1: F(1, 2), 2: 1, 3: F(1, 4)})
    state = best_approx(DiscreteSet.naturals(3), f, F(1, 2), 3)
    assert exact(1) not in state.L and exact(1) not in state.R
    assert list(state.L) == [exact(0), exact(3)]
    assert list(state.R) == [exact(2)]


def test_best_approx_duplicate_values_all_qualify():
    # an earlier equal value is not strictly between, so the later index
    # still counts as a best approximation
    f = TableOracle({0: F(1, 4), 1: F(1, 4), 2: 1})
    state = best_approx(DiscreteSet.naturals(2), f, F(1, 2), 2)
    assert list(state.L) == [exact(0), exact(1)]
    assert state.l == exact(F(1, 4))


def reference_family(D, f, a, b, d):
    """ratio_family's fields from the separate passes: the reference
    best_approx for the anchors, _bracket_terms for their brackets and for
    b's bracket over all of D, the image set for the off-image flags."""
    a, b = exact(a), exact(b)
    state = ref.best_approx(D, f, a, d)
    terms = _bracket_terms(D, f, b, state.L.elements)
    whole = _bracket_terms(D, f, b, [D.max()])[0]
    ratios = [t.value for t in terms]
    image = {f.eval(e) for e in D}
    admissible = all(x < y for x, y in zip(ratios, ratios[1:])) \
        and a not in image and b not in image
    return (tuple(terms), state, DiscreteSet([0] + ratios), admissible,
            D.max(), (whole.left, whole.right))


def reference_window(terms, bracket, b, eps):
    """The window by the direct formula: b's bracket over all of D, each
    term's closed-form preimage, and an explicit cap at the term's r where
    t0 - eps <= 1 leaves the preimage open above."""
    lo, hi = bracket
    for t in terms:
        lo = max(lo, t.left + (t.right - t.left) / (t.value + eps))
        if t.value - eps > 1:
            hi = min(hi, t.left + (t.right - t.left) / (t.value - eps))
        else:
            hi = min(hi, t.right)
    assert lo < b < hi
    return lo, hi


def test_ratio_family_matches_reference_passes(rng):
    # small value pools force repeated image values; cuts are drawn from
    # the image itself, from inside the value range and from beyond it
    # (one-sided prefixes); bounds fall below min(D), inside D and above it
    seen = Counter()
    for _ in range(1000):
        keys = sorted(rng.sample(range(40), rng.randrange(1, 16)))
        pool = [F(k, 8) for k in range(rng.randrange(2, 9))]
        f = TableOracle({F(k, 2): rng.choice(pool) for k in keys})
        D = DiscreteSet(f.table)
        image = [f.eval(e) for e in D]

        def cut():
            if rng.random() < 0.3:
                return rng.choice(image)
            return F(rng.randrange(-1, 2 * len(pool)), 16)

        a, b = cut(), cut()
        d = rng.choice(list(D) * 2 + [F(rng.randrange(-2, 42), 4)])
        try:
            expected = reference_family(D, f, a, b, d)
        except (EmptySet, NoLeftValue, NoRightValue) as err:
            with pytest.raises(type(err)) as got:
                ratio_family(D, f, a, b, d)
            assert type(got.value) is type(err)
            assert str(got.value) == str(err)
            seen[type(err).__name__] += 1
            continue
        fam = ratio_family(D, f, a, b, d)
        terms, state, yset, admissible, checked, bracket = expected
        assert fam.terms == terms
        assert (fam.approx.L, fam.approx.R, fam.approx.l, fam.approx.r) == \
            (state.L, state.R, state.l, state.r)
        assert fam.yset == yset
        assert fam.admissible == admissible
        assert fam.checked_bound == checked
        assert fam.bracket == bracket
        # the window starts from fam.bracket, so it must sit inside every
        # term's bracket for the window's cap at a term's r to be redundant
        lo, hi = fam.bracket
        assert all(t.left <= lo and hi <= t.right for t in fam.terms)
        eps = exact(F(1, 60))
        assert _window(fam, eps) == reference_window(terms, bracket, b, eps)
        seen["admissible" if admissible else "not admissible"] += 1
        seen["d below max"] += d < D.max()
        seen["cut on image"] += exact(a) in image or exact(b) in image
        seen["repeated values"] += len(set(image)) < len(image)
        seen["fallback bound"] += any(t.bound_used != t.anchor for t in terms)
    for case in ("EmptySet", "NoLeftValue", "NoRightValue", "admissible",
                 "not admissible", "d below max", "cut on image",
                 "repeated values", "fallback bound"):
        assert seen[case] >= 5, (case, seen)


def _outcome(call):
    try:
        return call()
    except Exception as err:  # any failure must be the reference's failure
        return type(err), str(err)


@st.composite
def approx_cases(draw):
    """A set D with an oracle on it, two cuts, a bound and the knobs of the
    approx entry points.

    Tables draw their values from a small pool, so values repeat, and may
    mix radicands or leave elements of D off their domain.  Cuts come from
    the image, from off it (beyond the values too, so prefixes can be
    one-sided), from between two neighbouring values or from the bootstrap
    construction, whose families widen;
    bounds fall below min(D), on D and above it."""
    if draw(st.booleans()):
        keys = draw(st.lists(st.integers(0, 30), min_size=1, max_size=14,
                             unique=True))
        pool = [F(k, 8) for k in range(draw(st.integers(2, 8)))]
        # no k/8 lies between sqrt(2) - 1 and sqrt(3)/4
        pool += draw(st.sampled_from(
            [[], [SQRT2 - 1], [SQRT3 - 1], [SQRT2 - 1, SQRT3 / 4],
             [SQRT2 - 1, SQRT3 - 1]]))
        f = TableOracle({F(k, 2): draw(st.sampled_from(pool)) for k in keys})
        extra = draw(st.lists(st.integers(0, 30), max_size=2)) \
            if draw(st.integers(0, 3)) == 0 else []
        D = DiscreteSet(sorted({F(k, 2) for k in keys + extra}))
        image = [f.table[e] for e in sorted(f.table)]
        off_image = [F(k, 16) for k in range(-1, 2 * len(pool) + 2)]
    else:
        alpha = draw(st.sampled_from(ROTATION_BASES))
        f = RotationOracle(alpha)
        n = draw(st.integers(0, 24))
        D = DiscreteSet.naturals(n)
        image = [f.eval(e) for e in D]
        off_image = [F(k, 16) for k in range(-1, 18)]
        off_image += [(k * alpha).frac() for k in range(n + 1, n + 9)]
    # Half the draws take a rational cut between two neighbouring values,
    # so brackets across radicands occur.  The values are far enough apart
    # for floats to order them; the exact compare keeps only true cuts.
    ordered = sorted(set(image), key=float)
    between = [c for x, y in zip(ordered, ordered[1:])
               for c in [F((float(x) + float(y)) / 2).limit_denominator(1000)]
               if x < c < y] or off_image
    cuts = st.sampled_from(between) if draw(st.booleans()) else st.one_of(
        st.sampled_from(image), st.sampled_from(off_image), st.just(SQRT3 - 1))
    a, b = draw(cuts), draw(cuts)
    d = draw(st.one_of(st.sampled_from(D.elements),
                       st.sampled_from([F(k, 4) for k in range(-2, 64)])))
    anchor_upto = draw(st.sampled_from([1, F(3, 2), 2]))
    try:
        low, high = sorted(image[:2]) if len(image) > 1 else (None, None)
    except RadicandMismatch:  # values of two radicands: no bootstrap cut
        low = high = None
    if low is not None and low != high and draw(st.booleans()):
        # the bootstrap's cut: the first two values at a ratio near 1
        ratio = draw(st.sampled_from([F(21, 20), F(11, 10), F(6, 5)]))
        a = b = low + (high - low) / ratio
        d, anchor_upto = D.elements[1], 1
    return dict(
        D=D, f=f, a=a, b=b, d=d, anchor_upto=anchor_upto,
        eps=draw(st.sampled_from([F(1, 60), F(1, 10), F(1, 5), F(1, 4)])),
        samples=draw(st.integers(0, 4)), seed=draw(st.integers(0, 3)))


# The one intended difference: best_approx evaluates its bounded prefix
# before its first compare, so where the prefix leaves a table's domain it
# raises OracleDomainError even if the element-by-element reference first
# reached a compare across radicands (RadicandMismatch).
KNOWN_DIFFERENCE = dict(
    D=DiscreteSet([0, 1, 2]), f=TableOracle({0: SQRT2 - 1, 2: 0}),
    a=SQRT3 - 1, b=SQRT3 - 1, d=2, eps=F(1, 60), anchor_upto=1, samples=0,
    seed=0)

# A rational cut between values of two radicands: the records exist, but
# the bracket's width r - l does not.
MIXED_BRACKET = dict(
    D=DiscreteSet([0, 1]), f=TableOracle({0: SQRT2 - 1, 1: SQRT3 - 1}),
    a=F(1, 2), b=F(1, 2), d=1, eps=F(1, 60), anchor_upto=1, samples=0,
    seed=0)


# Two values tie below the cut a: a record chain keeps both, so L is
# {0, 2, 3}, where one that dropped ties would give {0, 2}.
TIES = dict(
    D=DiscreteSet([0, 1, 2, 3]),
    f=TableOracle({0: F(1, 5), 1: F(4, 5), 2: F(2, 5), 3: F(2, 5)}),
    a=F(1, 2), b=F(3, 5), d=3, eps=F(1, 60), anchor_upto=1, samples=2,
    seed=0)


@settings(max_examples=400)
@given(case=approx_cases())
@example(case=KNOWN_DIFFERENCE)
@example(case=MIXED_BRACKET)
@example(case=TIES)
def test_approx_entry_points_match_reference(case):
    D, f, a, b, d = (case[k] for k in "Dfabd")
    samples, seed = case["samples"], case["seed"]
    got = _outcome(lambda: best_approx(D, f, a, d))
    want = _outcome(lambda: ref.best_approx(D, f, a, d))
    if got != want:
        assert isinstance(want, tuple) and want[0] is RadicandMismatch, \
            (got, want)
        assert got == _outcome(lambda: [f.eval(e) for e in D.restrict(d)]), \
            (got, want)
        assert got[0] is OracleDomainError, (got, want)
    assert _outcome(lambda: stability_interval(D, f, a, d, samples, seed)) \
        == _outcome(lambda: ref.stability_interval(D, f, a, d, samples, seed))
    fam = _outcome(lambda: ratio_family(D, f, a, b, d))
    assert fam == _outcome(lambda: ref.family_from_values(
        D.elements, [f.eval(e) for e in D], a, b, d))
    if isinstance(fam, RatioFamily):
        args = (fam, case["eps"], case["anchor_upto"], samples, seed)
        assert _outcome(lambda: widen_interval(D, f, *args)) == \
            _outcome(lambda: ref.widen_interval(D, f, *args))


def test_best_approx_evaluates_the_bounded_prefix_first():
    case = KNOWN_DIFFERENCE
    D, f, cut = case["D"], case["f"], case["a"]
    with pytest.raises(RadicandMismatch):
        ref.best_approx(D, f, cut, 2)
    with pytest.raises(OracleDomainError, match="oracle undefined at 1"):
        best_approx(D, f, cut, 2)


def test_best_approx_with_a_bracket_across_radicands():
    case = MIXED_BRACKET
    D, f, cut = case["D"], case["f"], case["a"]
    state = best_approx(D, f, cut, 1)
    assert (state.l, state.r) == (SQRT2 - 1, SQRT3 - 1)
    assert state.L == DiscreteSet([0]) and state.R == DiscreteSet([1])
    assert stability_interval(D, f, cut, 1) == (SQRT2 - 1, SQRT3 - 1)
    with pytest.raises(RadicandMismatch):
        ratio_family(D, f, cut, cut, 1)


# -- the first-hit engine against the column scan ------------------------------
#
# G.prefix(k) holds a naturals view, so a rotation over it is read through
# the first-hit engine; DiscreteSet.naturals(k) holds a tuple, so the same
# rotation over it is scanned.  Each entry point must give the same result,
# or fail with the same exception class and message, on both.


def _cut_draws(alpha, k):
    """Cuts for a rotation by alpha over {0, ..., k}: rationals in
    [-1/4, 5/4], orbit values inside the prefix and past it, and cuts in a
    radicand other than alpha's."""
    foreign = [m for m in SQUAREFREE if m != alpha.m][:6]
    return st.one_of(
        st.integers(-25, 125).map(lambda n: F(n, 100)),
        st.integers(-1, 5).map(lambda n: F(n, 4)),
        st.integers(0, 2 * k + 2).map(lambda n: (n * alpha).frac()),
        st.sampled_from(foreign).map(lambda m: ExactNumber.sqrt(m).frac()))


def _bootstrap_cut(f, ratio):
    """The bootstrap's cut: the first two values at the given ratio."""
    low, high = sorted([f.eval(exact(0)), f.eval(exact(1))])
    return low + (high - low) / ratio


def _both(call, scanned):
    """call(D) on the engine's prefix and on the scanned tuple of the same
    naturals."""
    k = len(scanned) - 1
    return (_outcome(lambda: call(GrowableSet(cap=k).prefix(k))),
            _outcome(lambda: call(scanned)))


def _entry_points(f, a, b, d, samples, seed, eps, anchor_upto):
    """The four entry points, each as a function of D."""
    def widen(D):
        fam = ratio_family(D, f, a, b, d)
        return widen_interval(D, f, fam, eps, anchor_upto, samples, seed)
    return [lambda D: best_approx(D, f, a, d),
            lambda D: stability_interval(D, f, a, d, samples, seed),
            lambda D: ratio_family(D, f, a, b, d),
            widen]


@settings(max_examples=60)
@given(alpha=alphas(), data=st.data())
def test_engine_and_scan_agree_on_every_entry_point(alpha, data):
    f = RotationOracle(alpha)
    k = data.draw(st.one_of(
        st.integers(0, 9), st.integers(10, 99), st.integers(100, 999),
        st.integers(1000, 10 ** 4)), label="k")
    cuts = _cut_draws(alpha, k)
    a, b = data.draw(cuts, label="a"), data.draw(cuts, label="b")
    ends = st.integers(-1, k + 2)
    d = data.draw(st.one_of(ends, ends.map(lambda n: F(2 * n + 1, 2))),
                  label="d")
    samples = data.draw(st.integers(1, 3), label="samples")
    seed = data.draw(st.integers(0, 3), label="seed")
    if k >= 1 and data.draw(st.booleans(), label="bootstrap"):
        # a family that widen_interval accepts, so its samples run
        a = b = _bootstrap_cut(f, data.draw(
            st.sampled_from([F(21, 20), F(11, 10)]), label="ratio"))
        d = 1
    scanned = DiscreteSet.naturals(k)
    for call in _entry_points(f, a, b, d, samples, seed, F(1, 10), 1):
        engine, scan = _both(call, scanned)
        assert engine == scan, (k, a, b, d)


def test_engine_and_scan_agree_at_two_hundred_thousand():
    k, f = 200000, RotationOracle(SQRT2)
    scanned = DiscreteSet.naturals(k)
    boot = _bootstrap_cut(f, F(21, 20))
    best, stable, family, _ = _entry_points(
        f, F(1, 3), F(2, 5), F(2 * k - 1, 2), 1, 5, F(1, 10), 1)
    *_, widen = _entry_points(f, boot, boot, 1, 1, 5, F(1, 10), 1)
    for call in (best, stable, family, widen):
        engine, scan = _both(call, scanned)
        assert engine == scan
        # every call succeeds; the last is widen_interval's sample check
        assert not (isinstance(engine, tuple) and isinstance(engine[0], type))
