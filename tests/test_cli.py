import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactlab import DiscreteSet, ExactNumber, PLFunction, analysis, coding
from exactlab.cli import _CODE_ARITY, _MEASURE_ARITY, _digits, _row, run

from fresh import python_env


def test_extract_reports_trace():
    status, lines = run(["extract", "--oracle", "rot(phi)",
                         "--n", "2", "--eps", "1/4"])
    assert status == 0
    assert lines[0] == "oracle=rot(1/2+1/2*sqrt(5))"
    assert lines[2] == "steps=2"
    assert all(line.endswith("check=pass") for line in lines[3:])


def test_extract_budget_exhaustion_is_status_3():
    status, lines = run(["extract", "--oracle", "rot(phi)",
                         "--n", "3", "--eps", "1/4", "--budget", "2"])
    assert status == 3
    assert "budget" in lines[0]


def test_bad_input_is_status_2():
    status, _ = run(["extract", "--oracle", "rot(3/2)",
                     "--n", "2", "--eps", "1/4"])
    assert status == 2
    status, _ = run(["approx", "--oracle", "rot(phi)",
                     "--cut", "nonsense", "--bound", "4"])
    assert status == 2
    status, _ = run(["sun", "--fn", "no_such_file.txt"])
    assert status == 2


def test_one_sided_cut_is_status_2():
    status, lines = run(["approx", "--oracle", "rot(phi)",
                         "--cut", "2", "--bound", "4"])
    assert status == 2
    assert "no value above" in lines[0]


def test_approx_report():
    status, lines = run(["approx", "--oracle", "rot(phi)",
                         "--cut", "1/2", "--bound", "4"])
    assert status == 0
    assert lines == ["cut=1/2", "bound=4", "L={0,2,4}", "R={1}",
                     "l=-4+2*sqrt(5)", "r=-1/2+1/2*sqrt(5)"]


def test_yfam_report():
    status, lines = run(["yfam", "--oracle", "rot(phi)",
                         "--a=-10/21+10/21*sqrt(5)",
                         "--b=-10/21+10/21*sqrt(5)", "--d", "1"])
    assert status == 0
    assert lines == [
        "a=-10/21+10/21*sqrt(5)", "b=-10/21+10/21*sqrt(5)", "d=1",
        "Y={0,21/20}", "inJ=true", "checked_bound=1",
        "term anchor=0 bound=1 l=0 r=-1/2+1/2*sqrt(5) value=21/20"]


def test_code_verbs():
    assert run(["code", "pair", "1", "2"]) == (0, ["8"])
    assert run(["code", "unpair", "8"]) == (0, ["1 2"])
    status, lines = run(["code", "beta-encode", "3,1,4"])
    assert status == 0
    k = lines[0]
    assert run(["code", "beta", k, "2"]) == (0, ["4"])
    assert run(["code", "cf", "7/3", "2"]) == (0, ["2,3"])
    assert run(["code", "cf", "phi", "5"]) == (0, ["1,1,1,1,1"])
    assert run(["code", "cf-encode", "3,1,4"]) == (
        0, ["value=49/11", "digits=4,2,5"])
    assert run(["code", "cf-decode", "4,2,5"]) == (0, ["3,1,4"])
    assert run(["code", "sum", "1/2,1/3"]) == (0, ["5/6"])


def test_code_delta_round_trip():
    assert run(["code", "delta-encode", "1/2;2/3"]) == (
        0, ["value=338/189", "digits=1,1,3,1,2,1,1,1,3"])
    assert run(["code", "delta-row", "1,1,3,1,2,1,1,1,3", "1"]) == (
        0, ["value=2/3", "digits=0,1,2"])


def test_sun_and_bound_reports():
    status, lines = run(["sun", "--fn", "worked3"])
    assert status == 0
    assert lines == [
        "components=2", "measure=5/2",
        "component start=0 end=1 entry=0 roof=2 shadow=ok",
        "component start=3/2 end=3 entry=3/2 roof=3/2 shadow=ok"]
    assert run(["sun", "--fn", "cantor:3", "--c", "1/2"]) == (0, [
        "c=1/2", "mu=1", "bound=2", "holds=true",
        "component start=0 end=1 scaled_width=1/2 rise=1 check=ok"])


def test_sun_bound_prints_c_as_its_value():
    status, lines = run(["sun", "--fn", "cantor:3", "--c", "4/2"])
    assert status == 0 and lines[0] == "c=2"
    assert run(["sun", "--fn", "cantor:3", "--c", " 2"]) == \
        run(["sun", "--fn", "cantor:3", "--c", "2"])


def test_dini_report():
    status, lines = run(["dini", "--fn", "worked3", "--x", "1"])
    assert status == 0
    assert lines == ["lower_left=2", "upper_left=2",
                     "lower_right=-1", "upper_right=-1"]


def test_measure_verbs():
    assert run(["measure", "mass", "(0,1/2) (1/4,3/4)"]) == (0, ["1"])
    assert run(["measure", "mass", "[0,1/2] (1/4,3/4]"]) == (0, ["1"])
    assert run(["measure", "outer", "(0,1/2] [1/2,3/4)"]) == (0, ["3/4"])
    assert run(["measure", "subadd", "(0,2/3)", "(1/3,1)"]) == (0, [
        "mu_union=1", "mu_sum=4/3", "slack=1/3", "holds=true"])
    assert run(["measure", "localnull", "--set", "(0,1/2)",
                "--delta", "1/4", "--probes", "(0,1)"]) == (0, [
        "measure_zero=false", "violator=(0,1/2)",
        "probe (0,1) mu=1/2 threshold=1/4 hypothesis=fails"])


def test_diffreport_and_hpcheck():
    status, lines = run(["diffreport", "--fn", "cantor:4", "--mesh", "1/16"])
    assert status == 0
    assert "all_cells_pass=true" in lines
    status, lines = run(["hpcheck", "--order", "8"])
    assert status == 0
    assert lines == ["order=8", "holds=true", "a_8=5040"]


def test_hpcheck_budget_and_long_coefficients():
    # a_1560 = 1559! has 4303 digits, past the interpreter's default limit
    # on int-to-text conversion: the report gives its digit count instead
    assert run(["hpcheck", "--order", "1560"]) == (
        0, ["order=1560", "holds=true", "a_1560_digits=4303"])
    assert run(["hpcheck", "--order", "5000"])[0] == 0
    assert run(["hpcheck", "--order", "5001"]) == (
        3, ["budget exhausted: order 5001 exceeds cap 5000"])
    assert run(["hpcheck", "--order", "8", "--budget", "7"]) == (
        3, ["budget exhausted: order 8 exceeds cap 7"])
    assert run(["hpcheck", "--order", "8", "--budget", "-1"]) == (
        2, ["error: cap must be non-negative, got -1"])
    full = run(["hpcheck", "--order", "300"])[1][-1]
    assert full.startswith("a_300=") and len(full) == len("a_300=") + 613


def test_code_cf_budget_is_checked_before_any_digit(monkeypatch):
    assert run(["code", "cf", "sqrt2", "5", "--budget", "5"]) == (
        0, ["1,2,2,2,2"])
    monkeypatch.setattr(coding, "cf_digits", _never)
    assert run(["code", "cf", "sqrt2", "100000000"]) == (
        3, ["budget exhausted: 100000000 digits exceed cap 1000000"])
    assert run(["code", "cf", "phi", "6", "--budget", "5"]) == (
        3, ["budget exhausted: 6 digits exceed cap 5"])
    assert run(["code", "cf", "phi", "--budget", "9"]) == (
        3, ["budget exhausted: 10 digits exceed cap 9"])
    assert run(["code", "cf", "phi", "5", "--budget", "-1"]) == (
        2, ["error: cap must be non-negative, got -1"])


@pytest.mark.parametrize("bound", [10 ** 30, 2 ** 64 + 1])
def test_approx_and_yfam_answer_a_huge_bound_without_a_prefix(bound):
    approx = ["approx", "--oracle", "rot(phi)", "--cut", "1/2",
              "--bound", str(bound)]
    yfam = ["yfam", "--oracle", "rot(phi)", "--a", "1/2", "--b", "2/5",
            "--d", str(bound)]
    for argv in (approx, yfam):
        start = time.perf_counter()
        status, lines = run(argv + ["--budget", str(10 * bound)])
        # a prefix of 10^30 elements would never finish
        assert time.perf_counter() - start < 10
        assert status == 0 and f"={bound}" in lines[2 if argv is yfam else 1]
    assert run(approx) == (3, [
        f"budget exhausted: index {bound} exceeds cap 1000000"])


def test_digit_count_matches_the_text():
    for n in [1, 9, 10, 11, 99, 100, 2 ** 64, 10 ** 640 - 1, 10 ** 640,
              3 ** 1000, 7 ** 3000 - 1]:
        assert _digits(n) == len(str(n))


@pytest.mark.parametrize("argv", [
    ["diffreport", "--fn", "worked3", "--mesh", "{}"],
    ["extract", "--oracle", "rot(phi)", "--n", "1", "--eps", "{}"],
    ["approx", "--oracle", "rot(phi)", "--cut", "1/2", "--bound", "{}"],
    ["yfam", "--oracle", "rot(phi)", "--a", "1/2", "--b", "1/3", "--d", "{}"],
    ["measure", "localnull", "--set", "(0,1)", "--delta", "{}",
     "--probes", "(0,1)"],
    ["measure", "localnull", "--set", "(0,1)", "--delta", "1/2",
     "--probes", "(0,{})"],
    ["measure", "subadd", "(0,1) {{}}"],
    ["code", "sum", "{},1"],
    ["measure", "outer", "(0,{})"],
    pytest.param(["measure", "subadd", "(0,{})"], id="measure subadd interval"),
    pytest.param(["measure", "localnull", "--set", "(0,{})", "--delta", "1/2",
                  "--probes", "(0,1)"], id="measure localnull set"),
    ["measure", "mass", "(0,{})"],
    ["sun", "--fn", "cantor:3", "--c", "{}"],
], ids=lambda argv: " ".join(argv[:2]))
@pytest.mark.parametrize("alias, spelled", [
    ("sqrt2", "sqrt(2)"), ("phi", "1/2+1/2*sqrt(5)"), ("SQRT3", "sqrt(3)")])
def test_number_aliases_read_at_every_number_input(argv, alias, spelled):
    status, lines = run([tok.replace("{}", alias) for tok in argv])
    assert (status, lines) == run([tok.replace("{}", spelled) for tok in argv])
    assert not any("cannot parse" in line for line in lines)


def test_number_aliases_in_interval_ends():
    for token in ("(0,sqrt2)", "(0,sqrt(2))"):
        assert run(["measure", "subadd", token, "(2,3)"]) == (0, [
            "mu_union=1+1*sqrt(2)", "mu_sum=1+1*sqrt(2)", "slack=0",
            "holds=true"])


def test_pl_function_from_file(tmp_path):
    path = tmp_path / "fn.txt"
    path.write_text("domain 0 2\n0 0 0\n1 1/2 1\n2 2 2\n")
    status, lines = run(["dini", "--fn", str(path), "--x", "1"])
    assert status == 0
    assert lines[0] == "lower_left=+inf"


def test_table_oracle_from_file(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("# index value\n0 0\n1 1\n")
    status, lines = run(["approx", "--oracle", f"table({path})",
                         "--cut", "1/2", "--bound", "1"])
    assert status == 0
    assert "l=0" in lines and "r=1" in lines


def test_table_oracle_bracket_across_radicands(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("0 -1+sqrt(2)\n1 -1+sqrt(3)\n")
    status, lines = run(["approx", "--oracle", f"table({path})",
                         "--cut", "1/2", "--bound", "1"])
    assert status == 0, lines
    assert "L={0}" in lines and "R={1}" in lines


def test_emit_text_and_json(tmp_path):
    text_path = tmp_path / "report.txt"
    status, lines = run(["--emit", str(text_path), "hpcheck", "--order", "3"])
    assert status == 0
    assert text_path.read_text() == "\n".join(lines) + "\n"
    json_path = tmp_path / "report.json"
    status, lines = run(["--emit", str(json_path), "hpcheck", "--order", "3"])
    assert json.loads(json_path.read_text()) == {"report": lines}


@pytest.mark.parametrize("name", ["x.txt", "x.json"])
def test_emit_to_unwritable_path_is_status_2(tmp_path, name):
    path = tmp_path / "missing" / name
    status, lines = run(["--emit", str(path), "code", "pair", "1", "2"])
    assert status == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(path) in lines[0]
    assert not path.parent.exists()


def test_reports_are_deterministic():
    first = run(["extract", "--oracle", "rot(sqrt2)", "--n", "2", "--eps", "1/4"])
    second = run(["extract", "--oracle", "rot(sqrt2)", "--n", "2", "--eps", "1/4"])
    assert first == second


@pytest.mark.parametrize("argv, message", [
    (["extract", "--oracle", "rot(phi)", "--n", "2", "--eps", "1/0"],
     "error: zero denominator in '1/0'"),
    (["extract", "--oracle", "rot(1/0)", "--n", "2", "--eps", "1/4"],
     "error: zero denominator in '1/0'"),
    (["approx", "--oracle", "rot(phi)", "--cut", "1/0*sqrt(2)",
      "--bound", "4"],
     "error: zero denominator in '1/0'"),
    (["measure", "localnull"],
     "error: measure localnull needs --set, --delta and --probes"),
    (["measure", "localnull", "--set", "(0,1/2)", "--delta", "1/4"],
     "error: measure localnull needs --set, --delta and --probes"),
    (["code", "cf", "7/3", "10"], "error: expansion has only 2 digits"),
    (["extract", "--oracle", "rot(phi)", "--n", "2", "--eps", "1/4",
      "--budget", "-5"],
     "error: cap must be non-negative, got -5"),
    (["approx", "--oracle", "rot(phi)", "--cut", "1/2", "--bound", "-3"],
     "error: index must be non-negative, got -3"),
    (["yfam", "--oracle", "rot(phi)", "--a", "1/2", "--b", "1/3",
      "--d", "-1"],
     "error: index must be non-negative, got -1"),
    (["code", "pair"], "error: code pair takes 2 argument(s), got 0"),
    (["code", "pair", "1", "2", "3"],
     "error: code pair takes 2 argument(s), got 3"),
    (["code", "unpair"], "error: code unpair takes 1 argument(s), got 0"),
    (["code", "beta-encode"],
     "error: code beta-encode takes 1 argument(s), got 0"),
    (["code", "cf"], "error: code cf takes 1 to 2 argument(s), got 0"),
    (["code", "delta-row", "1,2"],
     "error: code delta-row takes 2 argument(s), got 1"),
    (["measure", "mass"], "error: measure mass takes 1 argument(s), got 0"),
    (["measure", "outer"],
     "error: measure outer takes 1 argument(s), got 0"),
    (["measure", "localnull", "(0,1)", "--set", "(0,1/2)", "--delta", "1/4",
      "--probes", "(0,1)"],
     "error: measure localnull takes 0 argument(s), got 1"),
    (["code", "delta-encode", "1/3;2/5", "--digits", "-1"],
     "error: digits_per_row must be a non-negative integer, got -1"),
    (["code", "delta-row", "4,1,1,2,3", "0", "--digits", "-2"],
     "error: upto must be a non-negative integer, got -2"),
    (["extract", "--oracle", "table(three-fields.txt)", "--n", "1",
      "--eps", "1/4"],
     "error: table line needs 2 fields: '0 1/2 junk'"),
    (["extract", "--oracle", "table(one-field.txt)", "--n", "1",
      "--eps", "1/4"],
     "error: table line needs 2 fields: '0'"),
    (["measure", "mass", "(0,1"], "error: cannot parse interval '(0,1'"),
    (["measure", "outer", "(0,1/2,1)"],
     "error: cannot parse interval '(0,1/2,1)'"),
], ids=["eps-1/0", "rot-1/0", "cut-1/0-sqrt", "localnull-no-args",
        "localnull-no-probes", "cf-terminates", "negative-budget",
        "approx-negative-bound", "yfam-negative-d", "pair-no-args",
        "pair-extra-arg", "unpair-no-args", "beta-encode-no-args",
        "cf-no-args", "delta-row-one-arg", "mass-no-args", "outer-no-args",
        "localnull-extra-arg", "delta-encode-negative-digits",
        "delta-row-negative-digits", "table-line-three-fields",
        "table-line-one-field", "interval-unclosed", "interval-two-commas"])
def test_malformed_input_is_status_2_not_a_traceback(argv, message, tmp_path,
                                                     monkeypatch):
    # the table(...) cases read these files from the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "three-fields.txt").write_text("0 0\n0 1/2 junk\n")
    (tmp_path / "one-field.txt").write_text("# index value\n0\n")
    assert run(argv) == (2, [message])


# Argv for all nine subcommands, drawn from the README's input grammar plus
# junk.  Every job stays small: --budget <= 3000, --n <= 3, cantor:N with
# N <= 9 and at most 40 digits, with `code`'s --budget drawn from the same
# range as the digit counts, so that `code cf` exits 3 about as often as it
# runs.  --order reaches 6000, past every budget and past the orders whose
# coefficients outgrow the interpreter's int-to-text limit.  Free text holds
# no decimal digit, so it never reads as a large integer.
_TEXT = st.text(st.characters(exclude_categories=("Nd",)), max_size=8)


def _seldom(rare, common):
    """Values of ``common``, and of ``rare`` in about one draw in eight."""
    return st.integers(0, 7).flatmap(lambda k: rare if k == 0 else common)


_NUMBER = _seldom(_TEXT, st.sampled_from([
    "0", "1", "-3", "40", "1/8", "1/3", "1/2", "5/8", "-2/3", "7/3", "1/729",
    "phi", "sqrt2", "SQRT3", "sqrt(2)", "sqrt(3)", "1/2+1/2*sqrt(5)",
    "1+sqrt(5)", "-1+sqrt(2)", "-1+sqrt(7)", "1/0", "1/0*sqrt(2)", ""]))
_INTERVAL = st.builds("{}{},{}{}".format, st.sampled_from("(["), _NUMBER,
                      _NUMBER, st.sampled_from(")]"))
_UNION = st.lists(st.one_of(_INTERVAL, _NUMBER.map("{{{}}}".format)),
                  max_size=3).map(" ".join)


def _upto(most):
    return _seldom(_TEXT, st.integers(-2, most).map(str))


# a rotation needs an irrational base, so other numbers come seldom
_ORACLE = _seldom(_TEXT, _seldom(
    st.one_of(st.just("table(no-such-table.txt)"),
              _NUMBER.map("rot({})".format)),
    st.sampled_from(["phi", "sqrt2", "SQRT3", "sqrt(2)", "1/2+1/2*sqrt(5)",
                     "-1+sqrt(7)"]).map("rot({})".format)))
_PL = _seldom(_TEXT, st.sampled_from(
    ["worked3", "no-such-function.txt"] +
    [f"cantor:{n}" for n in range(-1, 10)]))
_INT_LIST = st.lists(st.integers(-1, 20), max_size=5).map(
    lambda xs: ",".join(map(str, xs)))
_POSITIONAL = st.one_of(_NUMBER, _INTERVAL, _UNION, _INT_LIST, _upto(40),
                        st.sampled_from(["1/2;2/3", "1/3;sqrt2;phi"]))
_BUDGET = _upto(3000)
_OPTIONS = {
    "extract": {"--oracle": _ORACLE, "--n": _upto(3), "--eps": _NUMBER,
                "--budget": _BUDGET},
    "approx": {"--oracle": _ORACLE, "--cut": _NUMBER, "--bound": _NUMBER,
               "--budget": _BUDGET},
    "yfam": {"--oracle": _ORACLE, "--a": _NUMBER, "--b": _NUMBER,
             "--d": _NUMBER, "--budget": _BUDGET},
    "code": {"--digits": _upto(40), "--budget": _upto(40)},
    "sun": {"--fn": _PL, "--c": _NUMBER, "--budget": _BUDGET},
    "dini": {"--fn": _PL, "--x": _NUMBER, "--budget": _BUDGET},
    "measure": {"--set": _UNION, "--delta": _NUMBER, "--probes": _UNION},
    "diffreport": {"--fn": _PL, "--mesh": _NUMBER, "--budget": _BUDGET},
    "hpcheck": {"--order": _upto(6000), "--budget": _BUDGET},
}
# options whose defaults keep a job small, so a draw may leave them out
_OMITTABLE = {"--c", "--digits", "--set", "--delta", "--probes"}
_VERBS = {"code": _CODE_ARITY, "measure": _MEASURE_ARITY}


def _status(argv):
    """run(argv), with an argparse usage error counted as its status 2."""
    try:
        return run(argv)
    except SystemExit as exit:
        return exit.code, []


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_subcommand_ends_in_status_0_2_3_or_4(data):
    command = data.draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, values in _OPTIONS[command].items():
        if flag not in _OMITTABLE or data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(values)}")
    if command in _VERBS:
        verb = data.draw(st.sampled_from(sorted(_VERBS[command])))
        least, most = _VERBS[command][verb]
        args = data.draw(_seldom(
            st.lists(_POSITIONAL, max_size=3),
            st.lists(_POSITIONAL, min_size=least, max_size=min(most, 3))))
        # "--" keeps drawn arguments such as "-3" from parsing as options
        argv += [verb, "--", *args]
    first = _status(argv)
    # measure has no budget, and neither it nor code has a self-check to fail
    allowed = {"measure": (0, 2), "code": (0, 2, 3)}.get(command, (0, 2, 3, 4))
    assert first[0] in allowed, (argv, first)
    assert _status(argv) == first


# approx and yfam over a rotation read the first-hit engine, which builds
# no prefix, so their bounds and budgets may be drawn far past the small
# ones above: up to 10^40, round 2^63 where len() gives out, and halves.
# Cuts are mostly rationals inside (0, 1), so most runs succeed.  They end
# in 0, 2 (a malformed or one-sided cut) or 3 (a bound past the budget),
# never in a traceback.
_HUGE = st.one_of(
    st.integers(-2, 10 ** 40),
    st.sampled_from([2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 + 1,
                     10 ** 30, 10 ** 40]))
_CUT = _seldom(_NUMBER, st.integers(1, 96).map("{}/97".format))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_approx_and_yfam_over_a_rotation_end_in_0_2_or_3_at_any_size(data):
    command = data.draw(st.sampled_from(["approx", "yfam"]))
    base = data.draw(st.sampled_from(["phi", "sqrt2", "SQRT3", "sqrt(7)",
                                      "-1+sqrt(7)", "1/3*sqrt(10)"]))
    n = data.draw(_HUGE)
    bound = f"{n}/2" if data.draw(st.booleans()) else str(n)
    budget = data.draw(st.one_of(_HUGE, st.integers(0, 2).map(n.__add__)))
    cuts = ["--cut"] if command == "approx" else ["--a", "--b"]
    argv = [command, f"--oracle=rot({base})", f"--budget={budget}",
            f"--{'bound' if command == 'approx' else 'd'}={bound}",
            *(f"{flag}={data.draw(_CUT)}" for flag in cuts)]
    first = _status(argv)
    assert first[0] in (0, 2, 3), (argv, first)
    assert _status(argv) == first


# the contract property seldom draws `code cf` with a well-formed count, so
# its budget gets a property of its own, on the same small draws
def _int(text):
    try:
        return int(text)
    except ValueError:
        return None


@given(_NUMBER, _upto(40), _upto(40))
def test_code_cf_ends_by_its_budget(x, count, budget):
    status, lines = _status(["code", "--budget", budget, "cf", "--", x, count])
    n, cap = _int(count), _int(budget)
    if n is None or cap is None:
        assert status == 2
    elif cap < 0:
        assert (status, lines) == (
            2, [f"error: cap must be non-negative, got {cap}"])
    elif n > cap:
        assert (status, lines) == (
            3, [f"budget exhausted: {n} digits exceed cap {cap}"])
    else:
        assert status in (0, 2)


# SHA-256 of the report lines, recorded before the breakpoint column
PL_GOLDEN_REPORTS = {
    ("diffreport", "--fn", "cantor:7", "--mesh", "1/2187"):
        "258aa241e51424e488a9811df8ba2ad5d72e27c782b06f4e5c63865dbce9a680",
    ("diffreport", "--fn", "cantor:7", "--mesh", "1/2185"):
        "646a5d60e7c25e7282c29a910b20e25d638907980486b265b7e0cd66e84abc4b",
    ("diffreport", "--fn", "cantor:5", "--mesh", "1/243"):
        "b4ba38fc27a54b99f4988c97d6e59886287a971b5cb12014293d6e5fff65e186",
    ("sun", "--fn", "cantor:9", "--c", "5/2"):
        "d4a6ece424573618ac5084f9397c6ee1de6de2d8a175309959a134613bdce8fb",
    ("sun", "--fn", "cantor:8"):
        "1fe6b676eb7133a15d76ed85c827115923ce3d2f6838d920f82ee1169d42279d",
    # a continuous breakpoint, inside a flat piece, inside a sloped piece
    ("dini", "--fn", "cantor:9", "--x", "1/3"):
        "3197dd1c6e351d3f99e0b6aa5586b225094e4dae74c7793003f6fdb060ba6d52",
    ("dini", "--fn", "cantor:9", "--x", "1/2"):
        "63d085321efd9bdbd205540c58d4f599c295e3c46a2f40fa73a260c3f4f67343",
    ("dini", "--fn", "cantor:9", "--x", "1/39366"):
        "d79ea77debfa8c82a9fed13f6142a4f751c637a5a56b28f1bfa46349136b178c",
}


@pytest.mark.parametrize("argv", sorted(PL_GOLDEN_REPORTS), ids=" ".join)
def test_pl_report_matches_golden(argv):
    status, lines = run(list(argv))
    assert status == 0
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PL_GOLDEN_REPORTS[argv]


def _never(*args, **kwargs):
    raise AssertionError("the budget check must come before any construction")


def test_oversized_cantor_is_status_3_before_building(monkeypatch):
    monkeypatch.setattr(PLFunction, "cantor_staircase", _never)
    assert run(["sun", "--fn", "cantor:40"]) == (
        3, ["budget exhausted: 2^41 breakpoints exceed cap 1000000"])
    assert run(["dini", "--fn", "cantor:3", "--x", "1/2", "--budget", "15"]) == (
        3, ["budget exhausted: 2^4 breakpoints exceed cap 15"])


def test_oversized_mesh_survey_is_status_3_before_any_cell(monkeypatch):
    monkeypatch.setattr(analysis, "dini", _never)
    assert run(["diffreport", "--fn", "cantor:2", "--mesh", "1/1000000000"]) == (
        3, ["budget exhausted: 1000000000 cells exceed cap 1000000"])
    assert run(["diffreport", "--fn", "cantor:2", "--mesh", "1/10",
                "--budget", "9"]) == (
        3, ["budget exhausted: 10 cells exceed cap 9"])


def test_pl_jobs_at_their_budget_run():
    assert run(["dini", "--fn", "cantor:3", "--x", "1/2", "--budget", "16"])[0] == 0
    # 2^2 breakpoints and a ragged fourth cell
    status, lines = run(["diffreport", "--fn", "cantor:1", "--mesh", "3/10",
                         "--budget", "4"])
    assert status == 0 and "cells=4" in lines
    for command in (["sun", "--fn", "worked3"],
                    ["dini", "--fn", "worked3", "--x", "1"],
                    ["diffreport", "--fn", "worked3", "--mesh", "1"]):
        assert run(command + ["--budget", "-1"]) == (
            2, ["error: cap must be non-negative, got -1"])


def test_a_reader_that_stops_early_ends_in_no_traceback():
    # about 400 kB of cell rows, more than a pipe holds, so the job is still
    # printing when its reader goes away
    argv = ["diffreport", "--fn", "cantor:8", "--mesh", "1/6561"]
    with subprocess.Popen([sys.executable, "-m", "exactlab.cli", *argv],
                          env=python_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as job:
        assert job.stdout.readline() == b"mesh=1/6561\n"
        job.stdout.close()
        err = job.stderr.read()
        status = job.wait(timeout=120)
    assert b"Traceback" not in err, err.decode()
    assert status == 0


def _frozen_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, DiscreteSet):
        return "{" + _frozen_text(value.elements) + "}"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _frozen_row(tag: str, **fields) -> str:
    """The row as it was written before ExactNumber fields went straight to
    str: every field through a keyword dict of lines and the isinstance
    chain."""
    lines = [f"{key}={_frozen_text(value)}" for key, value in fields.items()]
    return " ".join([tag] + lines)


exact_numbers = st.builds(
    lambda p, q, den, m: ExactNumber(Fraction(p, den),
                                     Fraction(q, den) if m else 0, m),
    st.integers(-10 ** 6, 10 ** 6), st.integers(-50, 50),
    st.integers(1, 3 ** 9), st.sampled_from([0, 0, 2, 3, 5]))
# a set's members are ordered, so they share one radicand
non_negative = st.builds(lambda p, den: ExactNumber(Fraction(p, den)),
                     st.integers(0, 10 ** 6), st.integers(1, 3 ** 9))


@settings(max_examples=300)
@given(st.lists(st.one_of(
    exact_numbers, st.booleans(), st.integers(-10 ** 30, 10 ** 30),
    st.lists(exact_numbers, max_size=4),
    st.lists(exact_numbers, max_size=4).map(tuple),
    st.lists(non_negative, max_size=4).map(DiscreteSet),
    st.sampled_from([analysis.POS_INF, analysis.NEG_INF, "ok", "VIOLATED"])),
    max_size=6))
def test_row_formats_every_field_as_before(values):
    fields = {f"k{i}": v for i, v in enumerate(values)}
    assert _row("cell", **fields) == _frozen_row("cell", **fields)
