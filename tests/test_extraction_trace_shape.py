"""Trace-level structure of the pipeline: the value set grows by exactly
one ratio per step and earlier ratios barely move."""

from fractions import Fraction as F

import pytest

from exactlab import GrowableSet, PHI, RotationOracle, SQRT3, exact, extract
from exactlab.errors import CapExceeded


def test_yset_grows_one_ratio_per_step():
    trace = extract(GrowableSet(), RotationOracle(PHI), 3, F(1, 4))
    sizes = [len(step.fam.yset) for step in trace.steps]
    assert sizes == [2, 3, 4]
    for prev, step in zip(trace.steps, trace.steps[1:]):
        old = [t.value for t in prev.fam.terms]
        new = [t.value for t in step.fam.terms]
        assert len(new) == len(old) + 1
        # the shared anchors' ratios drift by less than a sixth of the
        # step tolerance
        for before, after in zip(old, new):
            assert abs(after - before) < step.eps / 6
        # the fresh ratio lands exactly on its integer target
        assert new[-1] == exact(step.n)


def test_anchor_chain_is_nested():
    trace = extract(GrowableSet(), RotationOracle(SQRT3), 3, F(1, 4))
    for prev, step in zip(trace.steps, trace.steps[1:]):
        prev_anchors = set(prev.fam.approx.L.elements)
        anchors = set(step.fam.approx.L.elements)
        assert prev_anchors < anchors
        assert len(anchors) == len(prev_anchors) + 1


def test_budget_error_leaves_growable_at_cap():
    G = GrowableSet(cap=10 ** 4)
    with pytest.raises(CapExceeded) as err:
        extract(G, RotationOracle(PHI), 4, F(1, 4))
    assert str(err.value) == "index 10001 exceeds cap 10000"
    assert G.materialized_bound == 10 ** 4
