"""The extraction pipeline against the frozen reference in
``reference_pipeline.py``, on drawn oracles, depths, tolerances and caps.

Both sides must give identical trace reports, or raise the same exception
type with the same message, and must leave their sets at the same
materialized bound.  The library runs over the default naturals (count
only) or over a generated copy of them, the reference always over the
generated copy, so the two set representations are compared as well; on
the naturals a rotation's searches go to the first-hit engine, on the copy
to a column scan, so both are diffed against the reference.
Tables whose values mix radicands are drawn too: both sides must raise
``RadicandMismatch`` at the same compare, with the same message.  The one
intended difference: the library checks the budget first, so more steps
than a table's cap end in the cap error wherever the reference fails.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from exactlab import (
    DiscreteSet,
    ExactNumber,
    GrowableSet,
    RotationOracle,
    TableOracle,
    approximate_target,
    exact,
    extract,
    trace_report,
)
from exactlab import extraction
from exactlab.errors import CapExceeded

import reference_pipeline as ref
from conftest import alphas

EPS = [F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 10)]
DEPTHS = st.sampled_from([2, 3, 1])
# N = 3 on a rotation needs a few thousand indices at best (eps = 1/2)
CAPS = st.one_of(st.integers(1, 2500), st.integers(2500, 9000))


def rotations():
    """rot(alpha) over the first-hit engine's test draws (see conftest)."""
    return alphas().map(RotationOracle)


def _slow_rotation(f):
    """frac(e * alpha) by ExactNumber.floor, memoized per element."""
    memo = {}

    def evaluate(e):
        if e not in memo:
            memo[e] = (e * f.alpha).frac()
        return memo[e]
    return evaluate


@st.composite
def tables(draw):
    """A table over 0..k-1 with values in [0, 1): the fractions of a base's
    first stages, coarse to fine, each stage shuffled (dense enough for a
    second step), or drawn values j/den, repeats allowed when drawn so."""
    if draw(st.booleans()):
        base = draw(st.sampled_from([2, 3, 5, 7]))
        values = []
        for stage in range(1, draw(st.integers(1, 6)) + 1):
            den = base ** stage
            if den > 1000:
                break
            fresh = [F(num, den) for num in range(1, den) if num % base]
            values += draw(st.permutations(fresh))
    else:
        den = draw(st.integers(3, 400))
        values = [F(num, den) for num in draw(st.lists(
            st.integers(0, den - 1), min_size=2, max_size=250,
            unique=draw(st.booleans())))]
    return TableOracle(dict(enumerate(values)))


@st.composite
def mixed_tables(draw):
    """A table over 0..k-1 of fractional parts of (p + q*sqrt(m)) / den,
    with q = 0 or m drawn per value from two or three radicands."""
    radicands = draw(st.sampled_from([(2, 3), (2, 5), (3, 7), (2, 3, 5)]))
    values = []
    for _ in range(draw(st.integers(2, 120))):
        den = draw(st.integers(1, 30))
        q = draw(st.integers(-6, 6)) if draw(st.booleans()) else 0
        value = ExactNumber(F(draw(st.integers(-60, 60)), den), F(q, den),
                            draw(st.sampled_from(radicands)))
        values.append(value.frac())
    return TableOracle(dict(enumerate(values)))


def _outcome(run, G):
    try:
        result = run()
    except Exception as err:  # any failure must be the reference's failure
        return type(err), str(err), G.materialized_bound
    return result, G.materialized_bound


def _naturals_copy(cap):
    return GrowableSet(generator=ExactNumber, cap=cap)


def _family_lines(fam):
    return ([f"a={fam.a}", f"b={fam.b}", f"d={fam.d}", f"Y={fam.yset}",
             f"admissible={fam.admissible}"]
            + [f"{t.anchor} {t.bound_used} {t.left} {t.right} {t.value}"
               for t in fam.terms])


@settings(max_examples=120)
@given(f=rotations(), n=DEPTHS, eps=st.sampled_from(EPS), cap=CAPS)
def test_extract_matches_reference_on_rotations(f, n, eps, cap):
    G_ref = _naturals_copy(cap)
    want = _outcome(lambda: trace_report(
        ref.extract(G_ref, f, n, eps, evaluate=_slow_rotation(f))), G_ref)
    for G in (GrowableSet(cap=cap), _naturals_copy(cap)):
        assert _outcome(lambda: trace_report(extract(G, f, n, eps)), G) == want


# two draws in three are single-radicand tables, as before mixed ones
@settings(max_examples=200)
@given(f=st.one_of(tables(), tables(), mixed_tables()), n=DEPTHS,
       eps=st.sampled_from(EPS))
def test_extract_matches_reference_on_tables(f, n, eps):
    cap = len(f.table) - 1
    G = GrowableSet(cap=cap)
    got = _outcome(lambda: trace_report(extract(G, f, n, eps)), G)
    if n > cap:
        # the budget is checked before any step (step j's bound has index
        # >= j), where the reference may first meet an oracle constant on
        # its first two elements or values of two radicands
        want = (CapExceeded, f"index {cap + 1} exceeds cap {cap}", cap)
    else:
        G_ref = _naturals_copy(cap)
        want = _outcome(lambda: trace_report(ref.extract(G_ref, f, n, eps)),
                        G_ref)
    assert got == want


@settings(max_examples=50)
@given(f=rotations(),
       targets=st.lists(st.sampled_from([1, F(3, 2), 2, F(5, 2), 3]),
                        min_size=1, max_size=3, unique=True),
       eps=st.sampled_from(EPS), cap=st.integers(1, 2500))
def test_approximate_target_matches_reference(f, targets, eps, cap):
    F_set = DiscreteSet(targets)
    G = GrowableSet(cap=cap)
    got = _outcome(lambda: _family_lines(approximate_target(G, f, F_set, eps)), G)
    G_ref = _naturals_copy(cap)
    want = _outcome(lambda: _family_lines(ref.approximate_target(
        G_ref, f, F_set, eps, evaluate=_slow_rotation(f))), G_ref)
    assert got == want


def _as_approximate_target_runs_it(f, n, eps, cap):
    """``_pipeline`` on the targets 1..n at scale eps (approximate_target's
    scale for eps <= 1) and approximate_target's family, against extract:
    the same report and final family, or the same failure, each at the
    same materialized bound."""
    def run(call):
        G = GrowableSet(cap=cap)
        return _outcome(lambda: call(G), G)

    def rendered(trace):
        return trace_report(trace), _family_lines(trace.final)
    targets = DiscreteSet(range(1, n + 1))
    want = run(lambda G: rendered(extract(G, f, n, eps)))
    assert run(lambda G: rendered(extraction._pipeline(
        G, f, list(targets.elements), exact(eps)))) == want
    got = run(lambda G: _family_lines(approximate_target(G, f, targets, eps)))
    assert got == (want if len(want) == 3 else (want[0][1], want[1]))


@settings(max_examples=60)
@given(f=rotations(), n=DEPTHS, eps=st.sampled_from(EPS), cap=CAPS)
def test_pipeline_on_one_to_n_is_extract_on_rotations(f, n, eps, cap):
    _as_approximate_target_runs_it(f, n, eps, cap)


@settings(max_examples=100)
@given(f=st.one_of(tables(), tables(), mixed_tables()), n=DEPTHS,
       eps=st.sampled_from(EPS))
def test_pipeline_on_one_to_n_is_extract_on_tables(f, n, eps):
    _as_approximate_target_runs_it(f, n, eps, len(f.table) - 1)
