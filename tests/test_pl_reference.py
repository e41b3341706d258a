"""The PL queries against the frozen reference in ``reference_plfun.py``.

PL functions with 2-40 breakpoints are drawn with jumps, flat pieces and
some abscissae and values in Q(sqrt(2)), together with meshes that divide
the domain and meshes that leave a ragged last cell.  Point location, values
and Dini derivatives must agree with the reference exactly, and the mesh
survey must give equal cells, witnesses, derivatives and nondifferentiable
points, or raise the same exception type with the same message.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exactlab import ExactNumber, PLFunction, differentiability_report, dini
from exactlab.errors import CapExceeded

import reference_plfun as ref

SQRT2_UNIT = ExactNumber(0, F(1, 16), 2)


@st.composite
def numbers(draw, irrational):
    """A small rational, or one shifted by a multiple of sqrt(2)/16."""
    v = ExactNumber(F(draw(st.integers(-30, 30)), draw(st.integers(1, 8))))
    if irrational and draw(st.integers(0, 2)) == 0:
        v = v + SQRT2_UNIT * draw(st.integers(-3, 3))
    return v


@st.composite
def pl_functions(draw):
    n = draw(st.integers(2, 40))
    irrational = draw(st.booleans())
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
    level = draw(numbers(irrational))
    for x in xs:
        left = level if draw(st.booleans()) else draw(numbers(irrational))
        right = draw(numbers(irrational)) if draw(st.integers(0, 3)) == 0 else left
        pts.append((x, left, right))
        level = right
    return PLFunction(pts)


@st.composite
def meshes(draw, f):
    """Mostly a fraction of the width, so at most about 40 cells; sometimes
    a rational mesh, zero or a negative one."""
    a, b = f.domain
    kind = draw(st.sampled_from(["width", "width", "width", "rational", "bad"]))
    if kind == "width":
        return (b - a) * F(draw(st.integers(1, 30)), draw(st.integers(1, 40)))
    if kind == "rational":
        return ExactNumber(F((b - a).floor() + 1, draw(st.integers(1, 30))))
    return ExactNumber(draw(st.integers(-2, 0)))


def _report(run):
    try:
        r = run()
    except Exception as err:  # any failure must be the reference's failure
        return type(err), str(err)
    return (r.mesh, r.all_cells_pass,
            [(c.lo, c.hi, c.witness, c.derivative) for c in r.cells],
            [(p.x, p.values.as_tuple()) for p in r.nondifferentiable])


@settings(max_examples=150)
@given(data=st.data(), f=pl_functions())
def test_survey_matches_reference(data, f):
    mesh = data.draw(meshes(f))
    want = _report(lambda: ref.differentiability_report(f, mesh))
    assert _report(lambda: differentiability_report(f, mesh)) == want
    # a cap at or above the cell count changes nothing; below it, the
    # survey stops with CapExceeded before building a cell
    cap = data.draw(st.integers(0, 50))
    got = _report(lambda: differentiability_report(f, mesh, cap=cap))
    if len(want) == 2 or len(want[2]) <= cap:  # raised, or within the cap
        assert got == want
    else:
        assert got == (CapExceeded, f"{len(want[2])} cells exceed cap {cap}")


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
            assert f.eval(x) == ref.value(f, x)
        if a < x < b:
            assert dini(f, x) == ref.dini(f, x)
            assert dini(f, x).all_equal_finite() == \
                ref.all_equal_finite(ref.dini(f, x))
    assert [f.slope(i) for i in range(len(f.points) - 1)] == \
        [ref.slope(f, i) for i in range(len(f.points) - 1)]


@pytest.mark.parametrize("depth", range(11))
def test_cantor_staircase_matches_fraction_build(depth):
    f = PLFunction.cantor_staircase(depth)
    want = ref.cantor_points(depth)
    assert [(p.x, p.left, p.right) for p in f.points] == \
        [(ExactNumber.coerce(x), ExactNumber.coerce(y), ExactNumber.coerce(y))
         for x, y in want]
    assert [str(x) for x in f.breakpoints] == [str(x) for x, _ in want]
