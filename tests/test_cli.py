import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from exactlab import PLFunction, analysis
from exactlab.cli import _CODE_ARITY, _MEASURE_ARITY, run


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


def test_dini_report():
    status, lines = run(["dini", "--fn", "worked3", "--x", "1"])
    assert status == 0
    assert lines == ["lower_left=2", "upper_left=2",
                     "lower_right=-1", "upper_right=-1"]


def test_measure_verbs():
    assert run(["measure", "mass", "(0,1/2) (1/4,3/4)"]) == (0, ["1"])
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
], ids=["eps-1/0", "rot-1/0", "cut-1/0-sqrt", "localnull-no-args",
        "localnull-no-probes", "cf-terminates", "negative-budget",
        "approx-negative-bound", "yfam-negative-d", "pair-no-args",
        "pair-extra-arg", "unpair-no-args", "beta-encode-no-args",
        "cf-no-args", "delta-row-one-arg", "mass-no-args", "outer-no-args",
        "localnull-extra-arg", "delta-encode-negative-digits",
        "delta-row-negative-digits"])
def test_malformed_input_is_status_2_not_a_traceback(argv, message):
    assert run(argv) == (2, [message])


_ARGS = st.lists(st.one_of(
    st.integers(0, 50).map(str),
    st.sampled_from(["-3", "1/2", "-2/3", "7/3", "phi", "sqrt2", "1+sqrt(5)",
                     "3,1,4", "1/2;2/3", "(0,1/2)", "(0,1/2) (1/4,3/4)",
                     "(0,1/2] [1/2,3/4)", "1/0", ""]),
    st.text(max_size=8)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), args=_ARGS)
def test_code_and_measure_verbs_end_in_status_0_or_2(data, args):
    # "--" keeps drawn arguments such as "-3" from parsing as options
    command, arity = data.draw(st.sampled_from(
        [("code", _CODE_ARITY), ("measure", _MEASURE_ARITY)]))
    verb = data.draw(st.sampled_from(sorted(arity)))
    argv = [command, verb, "--", *args]
    first = run(argv)
    assert first[0] in (0, 2), (argv, first)
    assert run(argv) == first


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
