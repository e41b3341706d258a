import json

import pytest

from exactlab.cli import run


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
    assert "L={0,2,4}" in lines
    assert "R={1}" in lines
    assert "l=-4+2*sqrt(5)" in lines
    assert "r=-1/2+1/2*sqrt(5)" in lines


def test_yfam_report():
    status, lines = run(["yfam", "--oracle", "rot(phi)",
                         "--a=-10/21+10/21*sqrt(5)",
                         "--b=-10/21+10/21*sqrt(5)", "--d", "1"])
    assert status == 0
    assert "Y={0,21/20}" in lines
    assert "inJ=true" in lines


def test_code_verbs():
    assert run(["code", "pair", "1", "2"]) == (0, ["8"])
    assert run(["code", "unpair", "8"]) == (0, ["1 2"])
    status, lines = run(["code", "beta-encode", "3,1,4"])
    assert status == 0
    k = lines[0]
    assert run(["code", "beta", k, "2"]) == (0, ["4"])
    assert run(["code", "cf", "7/3", "2"]) == (0, ["2,3"])
    assert run(["code", "cf", "phi", "5"]) == (0, ["1,1,1,1,1"])
    status, lines = run(["code", "cf-encode", "3,1,4"])
    assert "digits=4,2,5" in lines
    assert run(["code", "cf-decode", "4,2,5"]) == (0, ["3,1,4"])
    assert run(["code", "sum", "1/2,1/3"]) == (0, ["5/6"])


def test_code_delta_round_trip():
    status, lines = run(["code", "delta-encode", "1/2;2/3"])
    assert status == 0
    digits = lines[1].split("=", 1)[1]
    status, lines = run(["code", "delta-row", digits, "1"])
    assert status == 0
    assert lines[0] == "value=2/3"


def test_sun_and_bound_reports():
    status, lines = run(["sun", "--fn", "worked3"])
    assert status == 0
    assert lines[0] == "components=2"
    assert "component start=0 end=1 entry=0 roof=2 shadow=ok" in lines
    status, lines = run(["sun", "--fn", "cantor:3", "--c", "1/2"])
    assert status == 0
    assert any(line.startswith("mu=") for line in lines)
    assert "holds=true" in lines


def test_dini_report():
    status, lines = run(["dini", "--fn", "worked3", "--x", "1"])
    assert status == 0
    assert lines == ["lower_left=2", "upper_left=2",
                     "lower_right=-1", "upper_right=-1"]


def test_measure_verbs():
    assert run(["measure", "mass", "(0,1/2) (1/4,3/4)"]) == (0, ["1"])
    assert run(["measure", "outer", "(0,1/2] [1/2,3/4)"]) == (0, ["3/4"])
    status, lines = run(["measure", "subadd", "(0,2/3)", "(1/3,1)"])
    assert status == 0
    assert "slack=1/3" in lines
    status, lines = run(["measure", "localnull", "--set", "(0,1/2)",
                         "--delta", "1/4", "--probes", "(0,1)"])
    assert status == 0
    assert lines[0] == "measure_zero=false"
    assert lines[1] == "violator=(0,1/2)"


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
], ids=["eps-1/0", "rot-1/0", "cut-1/0-sqrt", "localnull-no-args",
        "localnull-no-probes", "cf-terminates", "negative-budget"])
def test_malformed_input_is_status_2_not_a_traceback(argv, message):
    assert run(argv) == (2, [message])
