"""The PL queries against the frozen reference in ``reference_plfun.py``.

PL functions with 2-40 breakpoints are drawn with jumps, flat pieces and
some abscissae and values in Q(sqrt(2)), together with meshes that divide
the domain and meshes that leave a ragged last cell.  Some draw their values
in Q(sqrt(3)) over abscissae in Q(sqrt(2)): a piece whose rise and run are
both irrational then has a slope no ExactNumber holds.  Point location,
values, one-sided limits and Dini derivatives must agree with the reference
exactly, and the mesh survey must give equal cells, witnesses, derivatives
and nondifferentiable points, or raise the same exception type with the same
message.  So must ``add_linear``, the monotonicity test, ``jump_points``,
the rising-sun sweep and its length bound, for arbitrary and for
nondecreasing functions and slopes c > 0.

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
from hypothesis import given, settings, strategies as st

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
from exactlab.errors import (
    CapExceeded,
    NotMonotone,
    RadicandMismatch,
    VerificationError,
)

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


@settings(max_examples=150)
@given(data=st.data(), f=pl_functions())
def test_survey_matches_reference(data, f):
    mesh = data.draw(meshes(f))
    want = _report(lambda: ref.differentiability_report(f, mesh))
    assert _report(lambda: differentiability_report(f, mesh)) == want
    # a cap at or above the cell count changes nothing; below it, the
    # survey stops with CapExceeded before building a cell
    cells = _cells(f, mesh) if mesh.sign() > 0 else 0
    cap = data.draw(st.one_of(st.integers(0, 50),
                              st.integers(max(cells - 2, 0), cells + 2)))
    got = _report(lambda: differentiability_report(f, mesh, cap=cap))
    if cells <= cap:
        assert got == want
    else:
        assert got == (CapExceeded, f"{cells} cells exceed cap {cap}")


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
