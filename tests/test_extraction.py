import hashlib
from fractions import Fraction as F

import pytest

from exactlab import (
    CallableOracle,
    DiscreteSet,
    ExactNumber,
    GrowableSet,
    PHI,
    RotationOracle,
    SQRT2,
    SQRT3,
    TableOracle,
    approximate_target,
    bootstrap,
    exact,
    extend_step,
    extract,
    is_approx_segment,
    trace_report,
)
from exactlab import extraction
from exactlab.cli import run
from exactlab.errors import (
    CapExceeded,
    DegenerateOracle,
    EmptySet,
    PreconditionFailed,
    TargetBelowOne,
)


def test_bootstrap_phi_exact():
    fam = bootstrap(GrowableSet(), RotationOracle(PHI), F(1, 10))
    assert fam.yset == DiscreteSet([0, F(21, 20)])
    assert fam.a == (PHI - 1) * 20 / 21
    assert fam.b == fam.a
    assert fam.d == exact(1)
    assert is_approx_segment(fam.yset, F(1, 10), 1)


def test_bootstrap_unit_table():
    f = TableOracle({0: 0, 1: 1})
    fam = bootstrap(GrowableSet(cap=1), f, F(1, 10))
    assert fam.a == exact(F(20, 21))
    assert fam.yset == DiscreteSet([0, F(21, 20)])


def test_bootstrap_degenerate_oracle():
    with pytest.raises(DegenerateOracle):
        bootstrap(GrowableSet(cap=1), TableOracle({0: 3, 1: 3}), F(1, 10))


def test_bootstrap_handles_descending_first_values():
    fam = bootstrap(GrowableSet(cap=1), TableOracle({0: 1, 1: 0}), F(1, 10))
    assert fam.yset == DiscreteSet([0, F(21, 20)])


def test_extend_step_from_small_bootstrap():
    G = GrowableSet()
    rot = RotationOracle(PHI)
    prev = bootstrap(G, rot, F(1, 60))
    fam = extend_step(G, rot, prev, 1, F(1, 10))
    assert len(fam.yset) == 3
    assert is_approx_segment(fam.yset, F(1, 10), 2)
    for y, target in zip(fam.yset, (0, 1, 2)):
        assert abs(y - target) < exact(F(1, 10))


def test_extend_step_precondition():
    G = GrowableSet()
    rot = RotationOracle(PHI)
    prev = bootstrap(G, rot, F(1, 10))  # too loose to feed an eps=1/10 step
    with pytest.raises(PreconditionFailed):
        extend_step(G, rot, prev, 1, F(1, 10))


def test_extend_step_budget():
    G = GrowableSet(cap=3)
    rot = RotationOracle(PHI)
    prev = bootstrap(G, rot, F(1, 60))
    with pytest.raises(CapExceeded):
        extend_step(G, rot, prev, 1, F(1, 10))


def test_extract_single_step_is_bootstrap():
    trace = extract(GrowableSet(), RotationOracle(PHI), 1, F(1, 4))
    assert len(trace.steps) == 1
    assert trace.steps[0].fam.yset == DiscreteSet([0, F(9, 8)])


def test_extract_schedule_and_soundness_phi():
    trace = extract(GrowableSet(), RotationOracle(PHI), 3, F(1, 4))
    assert [s.eps for s in trace.steps] == \
        [exact(F(1, 144)), exact(F(1, 24)), exact(F(1, 4))]
    for step in trace.steps:
        # the independent checker, never the construction's own word
        assert is_approx_segment(step.fam.yset, step.eps, step.n)
        assert len(step.fam.yset) == step.n + 1
    final = trace.final.yset
    assert len(final) == 4
    for y, target in zip(final, range(4)):
        assert abs(y - target) < exact(F(1, 4))


def test_extract_sqrt2():
    trace = extract(GrowableSet(), RotationOracle(SQRT2), 2, F(1, 5))
    for step in trace.steps:
        assert is_approx_segment(step.fam.yset, step.eps, step.n)
    for y, target in zip(trace.final.yset, range(3)):
        assert abs(y - target) < exact(F(1, 5))


def test_extract_growth_is_strict():
    trace = extract(GrowableSet(), RotationOracle(SQRT3), 3, F(1, 4))
    indices = [s.d_index for s in trace.steps]
    assert indices == sorted(indices)
    assert all(x < y for x, y in zip(indices, indices[1:]))


def test_extract_deterministic():
    runs = [trace_report(extract(GrowableSet(), RotationOracle(PHI), 3, F(1, 4)))
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_extract_tolerance_chain():
    # a set passing at eps also passes at any larger tolerance
    trace = extract(GrowableSet(), RotationOracle(PHI), 2, F(1, 4))
    for step in trace.steps:
        for loosen in (2, 6, 24):
            assert is_approx_segment(step.fam.yset, step.eps * loosen, step.n)


def test_extract_rejects_bad_arguments():
    with pytest.raises(ValueError):
        extract(GrowableSet(), RotationOracle(PHI), 0, F(1, 4))
    with pytest.raises(ValueError):
        extract(GrowableSet(), RotationOracle(PHI), 2, F(-1, 4))


def test_extract_dense_table_oracle():
    # a hand-built table, dense enough in [0, 1), supports one extension;
    # ternary denominators keep exact midpoints off the image
    values = {}
    k = 0
    for stage in range(1, 9):
        for num in range(1, 3 ** stage):
            if num % 3:
                values[k] = F(num, 3 ** stage)
                k += 1
    oracle = TableOracle(values)
    G = GrowableSet(cap=len(values) - 1)
    trace = extract(G, oracle, 2, F(1, 2))
    for step in trace.steps:
        assert is_approx_segment(step.fam.yset, step.eps, step.n)


def test_extension_starves_on_midpoint_closed_image():
    # every dyadic midpoint is itself a table value, so the canonical
    # midpoint cut keeps colliding until the finite table is exhausted;
    # the failure is a loud budget error, never a silent truncation
    values = {}
    k = 0
    for stage in range(1, 13):
        for num in range(1, 2 ** stage, 2):
            values[k] = F(num, 2 ** stage)
            k += 1
    G = GrowableSet(cap=len(values) - 1)
    with pytest.raises(CapExceeded):
        extract(G, TableOracle(values), 2, F(1, 2))


def test_approximate_target_integer_targets():
    fam = approximate_target(GrowableSet(), RotationOracle(PHI),
                             DiscreteSet([1, 2, 3]), F(1, 4))
    goal = DiscreteSet([0, 1, 2, 3])
    assert len(fam.yset) == 4
    for y in fam.yset:
        assert goal.dist(y) < exact(F(1, 4))
    for t in goal:
        assert fam.yset.dist(t) < exact(F(1, 4))


def test_approximate_target_single_fraction():
    fam = approximate_target(GrowableSet(), RotationOracle(PHI),
                             DiscreteSet([F(3, 2)]), F(1, 10))
    assert len(fam.yset) == 2
    assert fam.yset.dist(F(3, 2)) < exact(F(1, 10))


def test_approximate_target_mixed_fractions_sqrt2():
    fam = approximate_target(GrowableSet(), RotationOracle(SQRT2),
                             DiscreteSet([F(3, 2), F(5, 2)]), F(1, 5))
    goal = DiscreteSet([0, F(3, 2), F(5, 2)])
    for t in goal:
        assert fam.yset.dist(t) < exact(F(1, 5))
    for y in fam.yset:
        assert goal.dist(y) < exact(F(1, 5))


def test_approximate_target_rejects_below_one():
    with pytest.raises(TargetBelowOne):
        approximate_target(GrowableSet(), RotationOracle(PHI),
                           DiscreteSet([F(1, 2)]), F(1, 10))
    with pytest.raises(EmptySet):
        approximate_target(GrowableSet(), RotationOracle(PHI),
                           DiscreteSet([]), F(1, 10))


def _segment_checks(monkeypatch):
    """The (eps, upto) of every segment check the pipeline runs."""
    calls = []
    check = extraction.is_approx_segment

    def counted(D, eps, upto):
        calls.append((eps, upto))
        return check(D, eps, upto)
    monkeypatch.setattr(extraction, "is_approx_segment", counted)
    return calls


def test_extract_checks_each_step_once(monkeypatch):
    # each step's set once, at its own tolerance: step k + 1 would test
    # step k's set again at eps_(k+1)/6 = eps_k
    calls = _segment_checks(monkeypatch)
    extract(GrowableSet(), RotationOracle(SQRT2), 3, F(1, 4))
    assert calls == [(F(1, 144), 1), (F(1, 24), 2), (F(1, 4), 3)]


def test_approximate_target_checks_each_step_once(monkeypatch):
    # the targets 1, 2, 3 get the segment checks extract gives them, then
    # the final check against the targets at eps
    calls = _segment_checks(monkeypatch)
    approximate_target(GrowableSet(), RotationOracle(PHI),
                       DiscreteSet([1, 2, 3]), F(1, 4))
    assert calls == [(F(1, 144), 1), (F(1, 24), 2), (F(1, 4), 3)]


def test_pipeline_checks_other_targets_by_their_distance(monkeypatch):
    # past the targets 1..j each step is checked by the both-ways distance
    # to {0} and the targets so far, at the step's own tolerance
    calls = _segment_checks(monkeypatch)
    targets = [exact(1), exact(F(3, 2)), exact(F(5, 2))]
    trace = extraction._pipeline(GrowableSet(), RotationOracle(SQRT2),
                                 targets, exact(F(1, 2)))
    assert calls == [(F(1, 72), 1)]
    assert [s.eps for s in trace.steps] == \
        [exact(F(1, 72)), exact(F(1, 12)), exact(F(1, 2))]
    for j, step in enumerate(trace.steps, 1):
        goal = DiscreteSet([0] + targets[:j])
        assert all(step.fam.yset.dist(t) < step.eps for t in goal)
        assert all(goal.dist(y) < step.eps for y in step.fam.yset)
        if j > 1:   # the base step's ratio is 1 + eps/2
            assert step.fam.terms[-1].value == targets[j - 1]


def test_a_column_reads_each_index_once_per_extraction(monkeypatch):
    # a generated copy of the naturals sends the rotation to the column
    # scan, which keeps its values from step to step; the base step reads
    # indices 0 and 1 once more before the column does.  The compares pin
    # the column's cost: one loop per query over the values it reads;
    # a best-approximation state takes its chains as the sorted tuples
    # they are, with no sort.
    compare = ExactNumber.compare
    compared = []
    monkeypatch.setattr(ExactNumber, "compare",
                        lambda x, y: compared.append(1) or compare(x, y))
    for alpha, bound, compares in ((PHI, 28890, 334621),
                                   (SQRT3, 29834, 328670)):
        rot = RotationOracle(alpha)
        evaluated = []

        def counted(x):
            evaluated.append(x)
            return rot.eval(x)
        G = GrowableSet(generator=exact)
        compared.clear()
        trace = extract(G, CallableOracle(counted), 3, F(1, 4))
        assert (G.materialized_bound, trace.steps[-1].d_index) == \
            (bound, bound)
        assert len(set(evaluated)) == bound + 1
        assert len(evaluated) == bound + 1 + 2
        assert len(compared) == compares, alpha


def test_trace_report_shape():
    trace = extract(GrowableSet(), RotationOracle(PHI), 2, F(1, 4))
    lines = trace_report(trace)
    assert lines[0].startswith("oracle=")
    assert lines[2] == "steps=2"
    assert all(line.endswith("check=pass") for line in lines[3:])


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Recorded before the extraction step read its prefix from a per-step
# value column; any change to the scans must leave these traces untouched.
GOLDEN_TRACES = {
    ("phi", 3): "d5b3350e230ab3265f2a5e9821699ccbde88497cd516d99434b97578cb95be4d",
    ("sqrt3", 3): "b84b563724ed0fb84e087967567271c05a0075cbb2e8b675e44ab116ee0bbe39",
    ("sqrt2", 2): "cc31da0c0def6e121fe6beb45e925e40ea84a7d3ebd8b8f2eac481ea23cf8da0",
    ("sqrt2", 3): "221df8a5baff375a9554af7882e7263f41ad556e10e8979192e8151344fb36d1",
}


@pytest.mark.parametrize("name, n", sorted(GOLDEN_TRACES))
def test_trace_report_matches_golden(name, n):
    base = {"phi": PHI, "sqrt2": SQRT2, "sqrt3": SQRT3}[name]
    trace = extract(GrowableSet(), RotationOracle(base), n, F(1, 4))
    assert _sha256(trace_report(trace)) == GOLDEN_TRACES[(name, n)]


# frac(alpha) has denominator 10^20, so the raw coefficients of the
# rotation column leave 64 bits at index 1; recorded before the column
WIDE_ALPHA = "100000000000000000001/100000000000000000000+sqrt(2)"
WIDE_TRACES = {
    2: "4c952140d548f462386b6959ddd5e516ebd4f0078171db0e23b0932b69a0a68d",
    3: "778254ac0b229d01fe33a35fc35b1c46c104b14d7ca0b9c3e6cb479a3016976e",
}


@pytest.mark.parametrize("n", sorted(WIDE_TRACES))
def test_wide_coefficient_trace_matches_golden(n):
    trace = extract(GrowableSet(), RotationOracle(exact(WIDE_ALPHA)), n, F(1, 4))
    assert _sha256(trace_report(trace)) == WIDE_TRACES[n]


def test_approximate_target_matches_golden():
    fam = approximate_target(GrowableSet(), RotationOracle(SQRT2),
                             DiscreteSet([F(3, 2), F(5, 2)]), F(1, 5))
    lines = [f"a={fam.a}", f"b={fam.b}", f"d={fam.d}",
             "Y=" + ",".join(str(y) for y in fam.yset)]
    lines += [f"{t.anchor} {t.bound_used} {t.left} {t.right} {t.value}"
              for t in fam.terms]
    assert _sha256(lines) == \
        "79252eb6f26226cd502d4dcc22c790de4de9abb3376ea2b1bb898b1ed32be678"


# `extract --oracle rot(<name>) --n 3 --eps 1/24 --budget 10000000`, which
# runs N = 4's first three steps, recorded once by the column scan (about
# 7, 8 and 33 s; sqrt2 needs index 6 630 850), far too slow to re-derive
# here.  The first-hit engine must reproduce every line.
EPS_24_REPORTS = {
    "phi": [
        "oracle=rot(1/2+1/2*sqrt(5))",
        "budget=10000000",
        "steps=3",
        "step=1 eps=1/864 a=-864/1729+864/1729*sqrt(5) b=-864/1729+864/1729*sqrt(5) d=1 d_index=1 max_index=1 Y={0,1729/1728} check=pass",
        "step=2 eps=1/144 a=-341+305/2*sqrt(5) b=-2209/4+989/4*sqrt(5) d=1597 d_index=1597 max_index=1597 Y={0,1368/2731+610/2731*sqrt(5),2} check=pass",
        "step=3 eps=1/24 a=-1156993/4+517423/4*sqrt(5) b=-2219135/6+992429/6*sqrt(5) d=1347866 d_index=1347866 max_index=1347866 Y={0,822903/1645198+1840059/8225990*sqrt(5),3003/3002+1347/3002*sqrt(5),3} check=pass",
    ],
    "sqrt3": [
        "oracle=rot(1*sqrt(3))",
        "budget=10000000",
        "steps=3",
        "step=1 eps=1/864 a=-1728/1729+1728/1729*sqrt(3) b=-1728/1729+1728/1729*sqrt(3) d=1 d_index=1 max_index=1 Y={0,1729/1728} check=pass",
        "step=2 eps=1/144 a=-989/2+571/2*sqrt(3) b=-4055/2+1171*sqrt(3) d=2131 d_index=2131 max_index=2131 Y={0,5942/11867+3426/11867*sqrt(3),2} check=pass",
        "step=3 eps=1/24 a=-1701539/2+491192*sqrt(3) b=-4503562/3+2600134/3*sqrt(3) d=1544972 d_index=1544972 max_index=1544972 Y={0,1236315/2470753+1427571/4941506*sqrt(3),4989/4994+2883/4994*sqrt(3),3} check=pass",
    ],
    "sqrt2": [
        "oracle=rot(1*sqrt(2))",
        "budget=10000000",
        "steps=3",
        "step=1 eps=1/864 a=-1728/1729+1728/1729*sqrt(2) b=-1728/1729+1728/1729*sqrt(2) d=1 d_index=1 max_index=1 Y={0,1729/1728} check=pass",
        "step=2 eps=1/144 a=-1393/2+985/2*sqrt(2) b=-4349+6151/2*sqrt(2) d=5741 d_index=5741 max_index=5741 Y={0,3604/7199+2547/7199*sqrt(2),2} check=pass",
        "step=3 eps=1/24 a=-1623759/2+1148171/2*sqrt(2) b=-8911534/3+2100469*sqrt(2) d=6630850 d_index=6630850 max_index=6630850 Y={0,5536920/11063071+7830381/22126142*sqrt(2),5622/5609+3969/5609*sqrt(2),3} check=pass",
    ],
}


@pytest.mark.parametrize("name", sorted(EPS_24_REPORTS))
def test_eps_24_report_matches_the_scan(name):
    assert run(["extract", "--oracle", f"rot({name})", "--n", "3",
                "--eps", "1/24", "--budget", "10000000"]) == \
        (0, EPS_24_REPORTS[name])


# SHA-256 of the report of `extract --oracle rot(<name>) --n <N> --eps 1/4
# --budget 10^100`, which exits 0, recorded before phase 5 stopped listing
# again the window's hits that phase 2 found.  The benchmark's golden
# reports stop at N = 4, so these guard the engine's answers at depth.
DEEP_REPORTS = {
    ("phi", 9): "64de88343721d591c0f16d3b988e8345ad75c7112c26c023ebb8e7998b1e5af4",
    ("sqrt2", 9): "01b1d3f0b0ee7df093dff2a7902004b2004d33fe0078274e92e91b9e776cd2e3",
    ("sqrt3", 9): "8385591bdc0b247daace52bc4f3aa68bf594cf0973d0dcaccc7d4fd33f9b798a",
    ("phi", 13): "28ff63434a90d4f4b91c8faf1ceb45eb3db3abfce3e035d18a375f50e2ba5d90",
    ("sqrt2", 13): "77ee9fb302f4d889e80710696359222047aedade851250a38a178b68a97a4763",
    ("sqrt3", 13): "2eef253c43b75aabefc6074bf9032f5714ae663076261470e4cf1f0ccc8ce66d",
}


@pytest.mark.parametrize("name, n", sorted(DEEP_REPORTS))
def test_deep_report_matches_golden(name, n):
    status, lines = run(["extract", "--oracle", f"rot({name})", "--n", str(n),
                         "--eps", "1/4", "--budget", str(10 ** 100)])
    assert (status, _sha256(lines)) == (0, DEEP_REPORTS[(name, n)])


# (status, SHA-256) of the report of `extract --oracle rot(<name>) --n 17
# --eps 1/4 --budget 10^300`, recorded before the first hits became walks
# over the record tables.  At 10^100, N = 17 runs out of budget (exit 3).
DEEP_300_REPORTS = {
    "phi": (0, "9bdc685d8ee07314cbf3344ef590c6f17a7b7086640d55e511f8f14f3cdbed7c"),
    "sqrt2": (0, "f286c3d62f82169567f4e62faafe92d2d943e7a17ef2ba4a176aea115408d57c"),
    "sqrt3": (0, "4bb77afad340104e15c43b9e925ebafb091f26f6c1f5195917962064c2740059"),
}


@pytest.mark.parametrize("name", sorted(DEEP_300_REPORTS))
def test_n17_report_matches_golden(name):
    status, lines = run(["extract", "--oracle", f"rot({name})", "--n", "17",
                         "--eps", "1/4", "--budget", str(10 ** 300)])
    assert (status, _sha256(lines)) == DEEP_300_REPORTS[name]


# SHA-256 of the report of `extract --oracle rot(<name>) --n <N> --eps 1/4
# --budget 10^100`, which exits 0, recorded while phase 5 still listed the
# window's hits.  sqrt(10001) = [100; 200] and sqrt(90001) = [300; 600]
# have large partial quotients, so a window holds many visits: these guard
# the three-distance answer where listing them was slow (sqrt(90001) at
# N = 5 visited 428 608 and took about 10 s).
LARGE_QUOTIENT_REPORTS = {
    ("sqrt(10001)", 3): "b4b85bb4b97b2f03cd1963faca61cd55d0edb1905728b279e810822e63d5c2b9",
    ("sqrt(10001)", 5): "c5eeb3e73dac775dd4aefd77bb28b2d691435d070547d5d68f153649803ac958",
    ("sqrt(10001)", 7): "447e90381d1c772c16495fa4ae87700fa38d90b7d446463d0e4122bf6e453e30",
    ("sqrt(10001)", 9): "7310e17956b85bc90464c47ba6e05e961de1560c7649fa5f88b7917ab7ed229c",
    ("sqrt(90001)", 3): "dfbcfcaad7b538a812585601eb863e6625cd456aaba6e159c82f36a4668c7125",
    ("sqrt(90001)", 5): "e4409071f6be8a56e46389d4f86acd220a39c9fb3a21adbf0a5e3f40e3abbd08",
    ("sqrt(90001)", 7): "c4f9572eea12861fdd2cb4e1cc3d7ad5b495290533b084457bbf5609c3512bd2",
    ("sqrt(90001)", 9): "28bde5863ad733583ecf2410b4971d17bb78a595f2b0961cbd112432a37c40f8",
}


@pytest.mark.parametrize("name, n", sorted(LARGE_QUOTIENT_REPORTS))
def test_large_quotient_report_matches_golden(name, n):
    status, lines = run(["extract", "--oracle", f"rot({name})", "--n", str(n),
                         "--eps", "1/4", "--budget", str(10 ** 100)])
    assert (status, _sha256(lines)) == (0, LARGE_QUOTIENT_REPORTS[(name, n)])
