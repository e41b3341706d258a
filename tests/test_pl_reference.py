"""The PL queries against the frozen reference in ``reference_plfun.py``.

PL functions with 2-40 breakpoints are drawn with jumps, flat pieces and
some abscissae and values in Q(sqrt(2)), together with meshes that divide
the domain and meshes that leave a ragged last cell.  Some draw their values
in Q(sqrt(3)) over abscissae in Q(sqrt(2)): a piece whose rise and run are
both irrational then has a slope no ExactNumber holds.  Point location,
values, one-sided limits and Dini derivatives must agree with the reference
exactly, and the mesh survey must give equal cells, witnesses, derivatives
and nondifferentiable points, or raise the same exception type with the same
message; three fixed surveys of one function over coprime denominators take
the survey's integer walk with edges on breakpoints and with a ragged last
cell, and its walk over exact values at an irrational mesh, and a fourth,
over 198 primes near 10^12, takes the exact walk at a rational mesh, since
its common denominator is too long.  So must
``add_linear``, the monotonicity test, ``jump_points``, the rising-sun sweep
and its length bound, for arbitrary and for nondecreasing functions and
slopes c > 0.  The ``diffreport`` row writers must give the generic row's
lines for every survey drawn.

A ``CantorStaircase`` of depth 0 to 12 must answer every point query,
Dini value, rising sun and length bound as the explicit staircase of the
same depth and the reference on it do, for slopes c drawn as rationals, as
the ties (3/2)^k and in Q(sqrt(2)), and for points drawn as breakpoints,
ternary ends, irrationals, the domain's ends and points outside it.  One
of depth 0 to 10 must give the explicit staircase's mesh survey, and the
reference's where its cell-by-breakpoint scan stays small, for meshes
near 3^-k, above 1 and irrational, with and without a cap.

The one allowed difference comes from such slopes.  The reference divides
out every slope, so it raises ``RadicandMismatch`` where the library, which
compares end values and divides only where the rising sun crosses a piece,
may answer, or fail later at a compare with another message.  An answer
must then be the reference's answer for the same values on the abscissae
0, 1, 2, ..., mapped back to the function's own; for the length bound that
can only be ``NotMonotone``.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from exactlab import (
    ExactNumber,
    PLFunction,
    ValueSet,
    analysis,
    differentiability_report,
    dini,
    jump_points,
    rising_sun,
    sun_measure_bound,
)
from exactlab.analysis import DiniValues, SunResult
from exactlab.plfun import CantorStaircase
from exactlab.errors import (
    CapExceeded,
    NotMonotone,
    RadicandMismatch,
    VerificationError,
)

from exactlab.cli import _cell_rows, _nondiff_rows, _row, run

import reference_plfun as ref

SQRT2_UNIT = ExactNumber(0, F(1, 16), 2)
SQRT3_UNIT = ExactNumber(0, F(1, 16), 3)


@st.composite
def numbers(draw, irrational, unit=SQRT2_UNIT):
    """A small rational, or one shifted by a multiple of ``unit``."""
    v = ExactNumber(F(draw(st.integers(-30, 30)), draw(st.integers(1, 8))))
    if irrational and draw(st.integers(0, 2)) == 0:
        v = v + unit * draw(st.integers(-3, 3))
    return v


@st.composite
def pl_functions(draw, monotone=False):
    """With ``monotone``, every jump and every piece goes up or stays flat.
    A third of the irrational draws take their values in Q(sqrt(3)).

    In both modes a breakpoint's right limit is the left limit's own object
    (half the time), an equal value held by another object, or a value of
    its own, so the short cuts taken at shared limits meet all three."""
    n = draw(st.integers(2, 40))
    irrational = draw(st.booleans())
    unit = SQRT2_UNIT
    if irrational and draw(st.integers(0, 2)) == 0:
        unit = SQRT3_UNIT
    ks = sorted(draw(st.lists(st.integers(-200, 200), min_size=n, max_size=n,
                              unique=True)))
    den = draw(st.integers(1, 12))
    xs = []
    for k in ks:
        x = ExactNumber(F(k, den))
        if irrational and draw(st.booleans()):
            # distinct ks keep the abscissae distinct and increasing
            x = x + SQRT2_UNIT * draw(st.integers(0, 3)) / 100
        xs.append(x)
    pts = []
    level = draw(numbers(irrational, unit))
    for x in xs:
        left = level if draw(st.booleans()) else draw(numbers(irrational, unit))
        if monotone:
            left = level + abs(left - level)
        kind = draw(st.sampled_from(["shared", "shared", "equal", "own"]))
        if kind == "shared":
            right = left
        elif kind == "equal":
            right = ExactNumber._raw(left.p, left.q, left.den, left.m)
        else:
            right = draw(numbers(irrational, unit))
            if monotone:
                right = left + abs(right - left)
        pts.append((x, left, right))
        level = right
    return PLFunction(pts)


@st.composite
def meshes(draw, f):
    """A fraction of the width, so at most about 40 cells; the width over k
    for k up to 400, so that many cells share a piece; a gap between two
    breakpoints over an integer, which puts the later breakpoint, and often
    others, on cell edges; an irrational mesh, in Q(sqrt(3)) only over
    rational abscissae; sometimes a rational mesh, zero or a negative one."""
    a, b = f.domain
    xs = f.breakpoints
    kind = draw(st.sampled_from(["width", "width", "fine", "edge", "edge",
                                 "irrational", "rational", "bad"]))
    if kind == "width":
        return (b - a) * F(draw(st.integers(1, 30)), draw(st.integers(1, 40)))
    if kind == "fine":
        return (b - a) * F(1, draw(st.integers(1, 400)))
    if kind == "edge":
        i = draw(st.integers(1, len(xs) - 1))
        j = draw(st.integers(0, i - 1))
        return (xs[i] - xs[j]) * F(1, draw(st.integers(1, 12)))
    if kind == "irrational":
        unit = SQRT2_UNIT
        if all(x.q == 0 for x in xs) and draw(st.booleans()):
            unit = SQRT3_UNIT
        # a factor between 1 + 1/16 sqrt(m) and 1 + 1/2 sqrt(m)
        mesh = (b - a) * F(1, draw(st.integers(1, 200)))
        return mesh * (1 + unit * draw(st.integers(1, 8)))
    if kind == "rational":
        return ExactNumber(F((b - a).floor() + 1, draw(st.integers(1, 30))))
    return ExactNumber(draw(st.integers(-2, 0)))


@st.composite
def slopes(draw, f):
    """Mostly c > 0, a multiple k/8 of f's mean slope (so the sun set has
    several components), sometimes shifted in its own radicand, Q(sqrt(2))
    for a rational; rarely c <= 0.  Over values and abscissae in two
    radicands the mean is rounded to sixty-fourths first."""
    a, b = f.domain
    rise, run = f.eval(b) - f.eval(a), b - a
    if rise.q != 0 and run.q != 0 and rise.m != run.m:
        rise, run = (ExactNumber(F((v * 64).floor() + 1, 64)) for v in (rise, run))
    mean = rise / run
    c = (mean if mean.sign() > 0 else ExactNumber(1)) * F(draw(st.integers(1, 24)), 8)
    if draw(st.booleans()):
        c = c + (SQRT3_UNIT if c.m == 3 else SQRT2_UNIT) * draw(st.integers(0, 3))
    return c if draw(st.integers(0, 9)) < 9 else c * draw(st.integers(-1, 0))


# each point query with its reference; all four check the domain first
POINT_QUERIES = (("eval", ref.checked_value), ("left_limit", ref.left_limit),
                 ("right_limit", ref.right_limit),
                 ("right_limit_or_value", ref.right_limit_or_value))


def _outcome(run):
    """The result, or the type and message of what it raised."""
    try:
        return run()
    except Exception as err:  # any failure must be the reference's failure
        return type(err), str(err)


def _on_grid(g):
    """g with its i-th breakpoint moved to i: the same values in the same
    order over rational abscissae, so the reference divides every slope."""
    return PLFunction([(i, p.left, p.right) for i, p in enumerate(g.points)])


def _off_grid(g, u):
    """The point of g's domain that ``_on_grid(g)`` puts at u."""
    i = min(u.floor(), len(g.points) - 2)
    x0, x1 = g.points[i].x, g.points[i + 1].x
    return x0 + (u - i) * (x1 - x0)


def _sun_on_grid(g):
    """The reference's rising sun of g, computed on the grid and mapped
    back: moving the abscissae while keeping their order and every value
    moves the set and nothing else."""
    sun = ref.rising_sun(_on_grid(g))
    return SunResult(
        components=tuple((_off_grid(g, lo), _off_grid(g, hi))
                         for lo, hi in sun.components),
        shadows=tuple(replace(s, start=_off_grid(g, s.start),
                              end=_off_grid(g, s.end))
                      for s in sun.shadows))


def _jumps_on_grid(g, threshold):
    return ValueSet(_off_grid(g, u)
                    for u in _reference_jump_points(_on_grid(g), threshold))


def _bound_on_grid(g):
    """Only the bound's monotonicity test survives the reparametrisation."""
    if not ref.is_nondecreasing(_on_grid(g)):
        raise NotMonotone("sun_measure_bound needs a nondecreasing function")
    raise AssertionError("no grid answer for the bound of a monotone function")


def _reference_jump_points(f, threshold):
    """``jump_points`` on the reference's monotonicity test."""
    if not ref.is_nondecreasing(f):
        raise NotMonotone("jump_points needs a nondecreasing function")
    return ValueSet(p.x for p in f.points if p.right - p.left > threshold)


def _mismatch(err):
    return isinstance(err, tuple) and err[0] is RadicandMismatch


def _check(got, want, on_grid):
    """``got`` is ``want``, unless the reference raised RadicandMismatch
    from a slope: then the library raises it too, perhaps from a compare
    with another message, or answers as ``on_grid`` does."""
    if got != want and _mismatch(want):
        if not _mismatch(got):
            assert got == _outcome(on_grid)
    else:
        assert got == want


def _report(run):
    try:
        r = run()
    except Exception as err:  # any failure must be the reference's failure
        return type(err), str(err)
    return (r.mesh, r.all_cells_pass,
            [(c.lo, c.hi, c.witness, c.derivative) for c in r.cells],
            [(p.x, p.values.as_tuple()) for p in r.nondifferentiable])


def _cells(f, mesh):
    """How many cells of width mesh > 0 cover f's domain, counted one by one."""
    a, b = f.domain
    k = 0
    while a + mesh * k < b:
        k += 1
    return k


@st.composite
def surveys(draw):
    """A PL function, a mesh for it, and a cap: small, or within two of
    the cell count."""
    f = draw(pl_functions())
    mesh = draw(meshes(f))
    cells = _cells(f, mesh) if mesh.sign() > 0 else 0
    cap = draw(st.one_of(st.integers(0, 50),
                         st.integers(max(cells - 2, 0), cells + 2)))
    return f, mesh, cap


# breakpoints over the coprime denominators 7, 11 and 13, with a jump at
# 5/13: a rational survey runs on integers over L = 2 * lcm(7, 11, 13, the
# mesh's denominator), far from any one of them
COPRIME = PLFunction([(F(1, 7), 0, 0), (F(3, 11), 1, 1),
                      (F(5, 13), F(1, 2), 2), (1, 3, 3)])


def _is_prime(n):
    """Miller-Rabin on the first twelve prime bases, exact below 3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_above(n, count):
    found = []
    while len(found) < count:
        n += 1
        if _is_prime(n):
            found.append(n)
    return found


# 200 breakpoints on [0, 1], the 198 interior ones i/199 rounded down to a
# multiple of 1/p over the first 198 primes p above 10^12: L = 2 * lcm has
# 7 900 bits against the widest denominator's 40, so the survey walks the
# exact values, not integers over L
LONG_L = PLFunction.from_values(
    [(0, 0)]
    + [(F(i * p // 199, p), 37 * i % 11)
       for i, p in enumerate(_primes_above(10 ** 12, 198), 1)]
    + [(1, 37 * 199 % 11)])


@settings(max_examples=150)
@given(survey=surveys())
# 2/1001 divides every gap between breakpoints, so each one is a cell edge:
# 429 cells, run whole at a cap equal to the count
@example(survey=(COPRIME, ExactNumber(F(2, 1001)), 429))
# 1/10 leaves a ragged ninth cell, and the cells holding 3/11 and 5/13 take
# the midpoints of their widest gaps
@example(survey=(COPRIME, ExactNumber(F(1, 10)), 9))
# an irrational mesh walks the exact values themselves; 43 cells, and the
# cap one below the count stops the survey before a cell is built
@example(survey=(COPRIME, ExactNumber(0, F(1, 70), 2), 42))
# a rational survey whose L is too long to walk: 300 cells over exact values
@example(survey=(LONG_L, ExactNumber(F(1, 300)), 300))
def test_survey_matches_reference(survey):
    f, mesh, cap = survey
    want = _report(lambda: ref.differentiability_report(f, mesh))
    assert _report(lambda: differentiability_report(f, mesh)) == want
    # a cap at or above the cell count changes nothing; below it, the
    # survey stops with CapExceeded before building a cell
    cells = _cells(f, mesh) if mesh.sign() > 0 else 0
    got = _report(lambda: differentiability_report(f, mesh, cap=cap))
    if cells <= cap:
        assert got == want
    else:
        assert got == (CapExceeded, f"{cells} cells exceed cap {cap}")


def test_survey_over_a_long_L_builds_no_value_over_it(monkeypatch):
    # the walk over exact values builds its values over products of two
    # 40-bit denominators at most, never over the 7 900-bit L; a 3^k survey
    # still walks integers, as its compare-free costs in test_analysis pin
    dens = []
    raw = ExactNumber._raw

    def counted(p, q, den, m):
        dens.append(den)
        return raw(p, q, den, m)
    monkeypatch.setattr(ExactNumber, "_raw", staticmethod(counted))
    report = differentiability_report(LONG_L, F(1, 300))
    assert len(report.cells) == 300
    assert max(d.bit_length() for d in dens) <= 2 * 40


# three pieces, with slopes 2, -1 and 1/2
WORKED3 = PLFunction.from_values([(0, 0), (1, 2), (2, 1), (3, F(3, 2))])


def test_survey_checks_each_piece_once(monkeypatch):
    # strictly inside a piece the Dini values do not depend on the point,
    # so the survey reads them at the piece's first witness and reuses them
    read = []

    def dini_on_piece(g, k, x, _real=analysis._dini_on_piece):
        read.append((k, x))
        return _real(g, k, x)
    monkeypatch.setattr(analysis, "_dini_on_piece", dini_on_piece)
    report = differentiability_report(WORKED3, F(1, 4))
    assert len(report.cells) == 12
    assert [c.derivative for c in report.cells] == \
        [ExactNumber(v) for v in [2] * 4 + [-1] * 4 + [F(1, 2)] * 4]
    # one witness per piece, then the two interior breakpoints
    assert read == [(0, ExactNumber(F(1, 8))), (1, ExactNumber(F(9, 8))),
                    (2, ExactNumber(F(17, 8))), (1, ExactNumber(1)),
                    (2, ExactNumber(2))]


@pytest.mark.parametrize("bad_piece, message", [
    (0, "cell [0, 1/4] witness 1/8 is not a point of differentiability"),
    (2, "cell [2, 9/4] witness 17/8 is not a point of differentiability"),
])
def test_survey_raises_when_a_piece_has_unequal_dini_values(
        monkeypatch, bad_piece, message):
    def dini_on_piece(g, k, x, _real=analysis._dini_on_piece):
        if k != bad_piece:
            return _real(g, k, x)
        s = g.slope(k)
        return DiniValues(s, s, s, s + 1)
    monkeypatch.setattr(analysis, "_dini_on_piece", dini_on_piece)
    with pytest.raises(VerificationError) as err:
        differentiability_report(WORKED3, F(1, 4))
    assert str(err.value) == message


@settings(max_examples=150)
@given(data=st.data(), f=pl_functions())
def test_queries_match_reference(data, f):
    a, b = f.domain
    for _ in range(5):
        x = data.draw(st.one_of(
            st.sampled_from(f.breakpoints),
            st.builds(lambda u, v, t: u + (v - u) * t,
                      st.sampled_from(f.breakpoints),
                      st.sampled_from(f.breakpoints),
                      st.fractions(-1, 2, max_denominator=7))))
        assert f._locate(x) == ref.locate(f, x)
        if a <= x <= b:
            assert _outcome(lambda: f.eval(x)) == \
                _outcome(lambda: ref.value(f, x))
        if a < x < b:
            got = _outcome(lambda: dini(f, x))
            assert got == _outcome(lambda: ref.dini(f, x))
            if not _mismatch(got):
                assert got.all_equal_finite() == \
                    ref.all_equal_finite(ref.dini(f, x))
        for query, want in POINT_QUERIES:
            assert _outcome(lambda: getattr(f, query)(x)) == \
                _outcome(lambda: want(f, x))
    for x in (a - 1, a, b, b + 1):
        for query, want in POINT_QUERIES:
            assert _outcome(lambda: getattr(f, query)(x)) == \
                _outcome(lambda: want(f, x))
    for i in range(len(f.points) - 1):
        assert _outcome(lambda: f.slope(i)) == _outcome(lambda: ref.slope(f, i))


@settings(max_examples=150)
@given(data=st.data(), f=pl_functions(), up=pl_functions(monotone=True))
def test_sun_matches_reference(data, f, up):
    c = data.draw(slopes(up))
    intercept = data.draw(numbers(True))
    threshold = ExactNumber(F(data.draw(st.integers(1, 16)), 8))
    assert _outcome(lambda: f.add_linear(intercept, c).points) == \
        _outcome(lambda: ref.add_linear(f, intercept, c).points)
    gs = [f, up]
    for g in (f, up):
        try:
            gs.append(g.add_linear(0, -c))
        except RadicandMismatch:
            pass  # values and c*x in two radicands, as checked just above
    for g in gs:
        _check(_outcome(lambda: rising_sun(g)),
               _outcome(lambda: ref.rising_sun(g)),
               lambda: _sun_on_grid(g))
        _check(_outcome(g.is_nondecreasing),
               _outcome(lambda: ref.is_nondecreasing(g)),
               lambda: ref.is_nondecreasing(_on_grid(g)))
        _check(_outcome(lambda: jump_points(g, threshold)),
               _outcome(lambda: _reference_jump_points(g, threshold)),
               lambda: _jumps_on_grid(g, threshold))
    for g in (f, up):
        _check(_outcome(lambda: sun_measure_bound(g, c)),
               _outcome(lambda: ref.sun_measure_bound(g, c)),
               lambda: _bound_on_grid(g))


@pytest.mark.parametrize("depth", range(11))
def test_cantor_staircase_matches_fraction_build(depth):
    f = PLFunction.cantor_staircase(depth)
    want = ref.cantor_points(depth)
    assert [(p.x, p.left, p.right) for p in f.points] == \
        [(ExactNumber.coerce(x), ExactNumber.coerce(y), ExactNumber.coerce(y))
         for x, y in want]
    assert [str(x) for x in f.breakpoints] == [str(x) for x, _ in want]


def test_sun_over_abscissae_and_values_in_two_radicands():
    # both slopes live in Q(sqrt(2), sqrt(3)), which no ExactNumber holds;
    # the reference divides them and fails
    s2, s3 = ExactNumber.sqrt(2), ExactNumber.sqrt(3)
    g = PLFunction([(0, 0, 0), (s2 / 2, s3 / 4, s3 / 4), (1, 1, 1)])
    combine = r"^cannot combine sqrt\(2\) with sqrt\(3\)$"
    for run in (lambda: ref.rising_sun(g), lambda: ref.is_nondecreasing(g),
                lambda: ref.sun_measure_bound(g, 1), lambda: g.slope(0)):
        with pytest.raises(RadicandMismatch, match=combine):
            run()
    # compares of end values answer: the ceiling 1 tops both pieces
    sun = rising_sun(g)
    assert sun.components == ((ExactNumber(0), ExactNumber(1)),)
    assert [(s.entry_limit, s.roof, s.holds) for s in sun.shadows] == \
        [(ExactNumber(0), ExactNumber(1), True)]
    assert g.is_nondecreasing()
    assert jump_points(g, F(1, 8)) == ValueSet([])
    # what needs a slope or c*x still fails as before
    for run in (lambda: sun_measure_bound(g, 1),
                lambda: differentiability_report(g, F(1, 2))):
        with pytest.raises(RadicandMismatch, match=combine):
            run()


def test_sun_bound_in_two_radicands_fails_at_a_compare():
    # f - x has values in Q(sqrt(2)) and in Q(sqrt(3)); the library now
    # meets them at a compare, where the reference met them at a slope
    s2, s3 = ExactNumber.sqrt(2), ExactNumber.sqrt(3)
    up = PLFunction.from_values([(0, 0), (s2 / 2, F(1, 2)), (1, s3 / 2),
                                 (2, 2)])
    with pytest.raises(RadicandMismatch,
                       match=r"^cannot combine sqrt\(2\) with sqrt\(3\)$"):
        ref.sun_measure_bound(up, 1)
    with pytest.raises(RadicandMismatch,
                       match=r"^cannot compare sqrt\(2\) with sqrt\(3\)$"):
        sun_measure_bound(up, 1)


# -- the self-similar staircase against the explicit one ---------------------

SQRT2 = ExactNumber.sqrt(2)

# the irrational slopes of the deep golden reports, and two more
IRRATIONAL_SLOPES = (SQRT2 / 2, SQRT2, 1 + SQRT2)

staircase_slopes = st.one_of(
    st.fractions(min_value=F(1, 24), max_value=40, max_denominator=24),
    # the ties c = (3/2)^k, at which a level's copies reach equal heights
    st.integers(0, 13).map(lambda k: F(3 ** k, 2 ** k)),
    st.sampled_from(IRRATIONAL_SLOPES))


@st.composite
def staircase_points(draw, depth):
    """A breakpoint of the depth's staircase; a ternary end k/3^j, j up to
    two levels past the depth; any fraction in [0, 1]; an irrational inside
    [k/3^j, (k+1)/3^j]; the domain's ends; or a point outside."""
    kind = draw(st.sampled_from(["breakpoint", "ternary", "fraction",
                                 "irrational", "end", "outside"]))
    if kind == "breakpoint":
        return draw(st.sampled_from(
            PLFunction.cantor_staircase(depth).breakpoints))
    if kind == "fraction":
        return ExactNumber(draw(st.fractions(0, 1, max_denominator=3 ** 9)))
    if kind == "end":
        return ExactNumber(draw(st.integers(0, 1)))
    if kind == "outside":
        return draw(st.sampled_from([ExactNumber(F(-1, 3)), ExactNumber(F(4, 3)),
                                     -SQRT2_UNIT, 1 + SQRT2_UNIT]))
    j = draw(st.integers(0, depth + 2))
    if kind == "ternary":
        return ExactNumber(F(draw(st.integers(0, 3 ** j)), 3 ** j))
    start = ExactNumber(F(draw(st.integers(0, 3 ** j - 1)), 3 ** j))
    # at most 10/16 sqrt(2) < 1 of the 3^-j step
    return start + SQRT2_UNIT * draw(st.integers(1, 10)) / 3 ** j


def _staircase_queries_agree(depth, x):
    s, f = CantorStaircase(depth), PLFunction.cantor_staircase(depth)
    for query, want in POINT_QUERIES:
        got = _outcome(lambda: getattr(s, query)(x))
        assert got == _outcome(lambda: getattr(f, query)(x))
        assert got == _outcome(lambda: want(f, x))
    got = _outcome(lambda: dini(s, x))
    assert got == _outcome(lambda: dini(f, x))
    assert got == _outcome(lambda: ref.dini(f, x))


@settings(max_examples=100)
@given(data=st.data(), depth=st.integers(0, 12))
def test_staircase_queries_match_the_explicit_staircase(data, depth):
    assert CantorStaircase(depth).domain == \
        PLFunction.cantor_staircase(depth).domain
    for _ in range(4):
        _staircase_queries_agree(depth, data.draw(staircase_points(depth)))


@pytest.mark.parametrize("depth", range(13))
def test_staircase_queries_at_and_past_the_domain_ends(depth):
    # no left limit at 0, no right limit at 1, no Dini values at either
    for x in (F(-1, 3), 0, 1, F(4, 3)):
        _staircase_queries_agree(depth, ExactNumber(x))


@settings(max_examples=60)
@given(depth=st.integers(0, 12), c=staircase_slopes)
# the ties c = 3^(k+1)/2^(k+2), at which a level-k node's two children
# start at equal heights (rho = 0), one and four levels above the leaves
@example(depth=1, c=F(3, 4))
@example(depth=4, c=F(3, 4))
@example(depth=2, c=F(9, 8))
@example(depth=5, c=F(9, 8))
@example(depth=3, c=F(27, 16))
@example(depth=6, c=F(27, 16))
@example(depth=4, c=F(81, 32))
@example(depth=7, c=F(81, 32))
def test_staircase_sun_bound_matches_the_explicit_staircase(depth, c):
    s, f = CantorStaircase(depth), PLFunction.cantor_staircase(depth)
    got = sun_measure_bound(s, c)
    assert got == sun_measure_bound(f, c)
    assert got == ref.sun_measure_bound(f, c)


@pytest.mark.parametrize("depth", range(13))
def test_staircase_rising_sun_matches_the_explicit_staircase(depth):
    s, f = CantorStaircase(depth), PLFunction.cantor_staircase(depth)
    got = rising_sun(s)
    assert got == rising_sun(f)
    assert got == ref.rising_sun(f)


@pytest.mark.parametrize("c", [0, -1, F(-3, 2), -SQRT2])
def test_staircase_sun_refuses_a_slope_at_or_below_zero(c):
    for depth in (0, 5):
        s, f = CantorStaircase(depth), PLFunction.cantor_staircase(depth)
        assert _outcome(lambda: sun_measure_bound(s, c)) == \
            _outcome(lambda: ref.sun_measure_bound(f, c)) == \
            (ValueError, "c must be positive")
    assert run(["sun", "--fn", "cantor:5", f"--c={c}"]) == (
        2, ["error: c must be positive"])


@st.composite
def staircase_meshes(draw, depth):
    """A mesh near 3^-k, at it or a step or two off, which leaves a ragged
    last cell; one above 1, so one cell; an irrational one, sqrt(2) over an
    integer or shifted by it; or zero or a negative one."""
    kind = draw(st.sampled_from(["near", "near", "near", "above",
                                 "irrational", "bad"]))
    if kind == "near":
        k = draw(st.integers(0, min(depth + 2, 8)))
        step = draw(st.integers(-2, 2))
        if draw(st.booleans()):
            return ExactNumber(F(9 + step, 9 * 3 ** k))
        return ExactNumber(F(1, max(3 ** k + step, 1)))
    if kind == "above":
        return ExactNumber(1 + F(draw(st.integers(1, 20)),
                                 draw(st.integers(1, 10))))
    if kind == "irrational":
        mesh = SQRT2 / draw(st.integers(1, 300))
        return mesh + F(1, 3 ** draw(st.integers(1, 6))) \
            if draw(st.booleans()) else mesh
    return ExactNumber(draw(st.integers(-2, 0)))


@settings(max_examples=80)
@given(data=st.data(), depth=st.integers(0, 10))
def test_staircase_survey_matches_the_explicit_staircase(data, depth):
    s, f = CantorStaircase(depth), PLFunction.cantor_staircase(depth)
    mesh = data.draw(staircase_meshes(depth))
    cells = _cells(f, mesh) if mesh.sign() > 0 else 0
    # no cap, a cap at the cell count, and one below it
    cap = data.draw(st.sampled_from([None, cells, cells - 1]))
    got = _report(lambda: differentiability_report(s, mesh, cap=cap))
    assert got == _report(lambda: differentiability_report(f, mesh, cap=cap))
    if cap is not None and 0 <= cap < cells:
        assert got == (CapExceeded, f"{cells} cells exceed cap {cap}")
    elif cells * len(f.breakpoints) <= 2 ** 15:
        # the reference scans every breakpoint for each cell
        assert got == _report(lambda: ref.differentiability_report(f, mesh))


@settings(max_examples=150)
@given(data=st.data(), f=st.one_of(pl_functions(),
                                   st.integers(0, 6).map(CantorStaircase)))
def test_row_writers_match_the_generic_row(data, f):
    # diffreport writes each row as one f-string and each shared value's
    # text once; the lines are those the generic _row writes field by
    # field, on jumps, ragged last cells, both walks and staircases
    mesh = data.draw(staircase_meshes(f.depth)
                     if isinstance(f, CantorStaircase) else meshes(f))
    try:
        report = differentiability_report(f, mesh, cap=5000)
    except (ValueError, CapExceeded, RadicandMismatch):
        assume(False)
    texts = {}
    assert _cell_rows(report.cells, texts) == [
        _row("cell", lo=c.lo, hi=c.hi, witness=c.witness,
             derivative=c.derivative)
        for c in report.cells]
    assert _nondiff_rows(report.nondifferentiable, texts) == [
        _row("nondiff", x=p.x, dini=p.values.as_tuple())
        for p in report.nondifferentiable]
    # the records are immutable, so the rows stay what they were written as
    for cell in report.cells[:1]:
        with pytest.raises(AttributeError):
            cell.lo = mesh
    for point in report.nondifferentiable[:1]:
        with pytest.raises(AttributeError):
            point.x = mesh
