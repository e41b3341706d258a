"""The package's names load on first use, and a command runs only the
modules its job reads.

``import exactlab`` runs no submodule; ``exactlab.cli`` runs the modules
its parser and the discrete-set commands need and enters the rest in
``sys.modules`` unexecuted, to run on first attribute access.  Each check
runs in a new interpreter, since the test process has long loaded them all.
"""

import ast
import json
import re
from pathlib import Path

import pytest

import exactlab
from fresh import run_code

ROOT = Path(__file__).resolve().parent.parent

SUBMODULES = sorted("analysis approx coding dsets errors extraction measure "
                    "orbit plfun qnum".split())

# what ``from exactlab import *`` bound when the package ran every module
STAR_NAMES = sorted(SUBMODULES + """
    ApproxState Breakpoint CallableOracle CodedReal ComposedOracle DiniValues
    DiscreteSet ExactNumber ExtractionTrace FiniteUnion FunctionOracle
    GrowableSet Interval NEG_INF PHI PLFunction POS_INF RatioFamily RatioTerm
    RotationOracle SQRT2 SQRT3 SegmentOrder TableOracle TraceStep ValueSet
    approximate_target best_approx beta beta_encode bootstrap cantor_pair
    cantor_unpair cf_decode cf_digits cf_encode cover_mass
    differentiability_report dini discrete_sum exact extend_step extract
    factorial_series_check gap_ratio image interleave_encode interleave_row
    is_approx_segment is_nat_segment jump_points local_null_check
    monotone_inverse outer_measure parse_exact perturb primitive_recursion
    ratio_family rising_sun segment_order segment_union stability_interval
    subadditivity_check sum_commutes sun_measure_bound trace_report
    widen_interval""".split())

# prints {"ran": [...], "entered": [...]}: the exactlab submodules whose
# bodies ran, and all those in sys.modules; a lazy entry that has not run
# is of a subclass of the module type
LOADED = """
import json, sys, types
def loaded():
    names = {n: m for n, m in sys.modules.items() if n.startswith("exactlab.")}
    return json.dumps({
        "ran": sorted(n[9:] for n, m in names.items()
                      if type(m) is types.ModuleType),
        "entered": sorted(n[9:] for n in names)})
"""

# the modules cli runs at import: the parser's and the handlers' own imports
BASE = {"errors", "qnum", "dsets", "cli"}

# the engine, which only approx and extraction import, and cli does not name
ENGINE = {"approx", "orbit"}


def test_star_import_binds_the_same_names():
    out = run_code(LOADED + """
ns = {}
exec("from exactlab import *", ns)
print(json.dumps(sorted(k for k in ns if k != "__builtins__")))
print(loaded())""")
    star, ran = map(json.loads, out.splitlines())
    assert star == STAR_NAMES
    assert ran["ran"] == SUBMODULES


def test_all_lists_the_star_names_and_dir_covers_it():
    assert sorted(exactlab.__all__) == STAR_NAMES
    assert len(exactlab.__all__) == len(set(exactlab.__all__)) == 77
    assert set(dir(exactlab)) >= set(exactlab.__all__)


@pytest.mark.parametrize("first", ["exactlab", "exactlab.cli"])
def test_every_name_reads_through_the_package(first):
    """Each submodule and public name is an attribute of the package, the
    defining module's own object, whether or not cli entered it lazily."""
    out = run_code(f"""
import sys, exactlab, {first}
missing = []
for name in sorted(exactlab.__all__):
    value = getattr(exactlab, name)
    if name in exactlab._SUBMODULES:
        ok = value is sys.modules["exactlab." + name] and value.__name__ == "exactlab." + name
    else:
        ok = value is getattr(sys.modules["exactlab." + exactlab._OWNERS[name]], name)
    if not ok:
        missing.append(name)
try:
    exactlab.no_such_name
except AttributeError:
    pass
else:
    missing.append("no_such_name")
print(missing)""")
    assert out.strip() == "[]"


def _import_lines(source: str) -> str:
    return "\n".join(ast.unparse(node) for node in ast.parse(source).body
                     if isinstance(node, (ast.Import, ast.ImportFrom)))


def _readme_python() -> str:
    return "\n".join(re.findall(r"^```python\n(.*?)^```",
                                (ROOT / "README.md").read_text(),
                                re.MULTILINE | re.DOTALL))


IMPORT_SOURCES = {"README.md": _readme_python}
IMPORT_SOURCES.update({path.name: path.read_text
                       for path in sorted((ROOT / "demos").glob("*.py"))})


@pytest.mark.parametrize("name", IMPORT_SOURCES)
def test_readme_and_demo_imports_run_cold(name):
    code = _import_lines(IMPORT_SOURCES[name]())
    assert "exactlab" in code
    run_code(code)


@pytest.mark.parametrize("argv, extra", [
    (["extract", "--oracle", "rot(phi)", "--n", "3", "--eps", "1/4"],
     {"extraction"} | ENGINE),
    (["approx", "--oracle", "rot(phi)", "--cut", "1/2", "--bound", "100"],
     ENGINE),
    (["code", "pair", "1", "2"], {"coding"}),
    (["sun", "--fn", "worked3"], {"plfun", "analysis"}),
    (["measure", "subadd", "(0,2/3)", "(1/3,1)"], {"measure"}),
    (["--help"], set()),
], ids=["extract", "approx", "code", "sun", "measure", "help"])
def test_a_command_runs_only_the_modules_it_reads(argv, extra):
    out = run_code(LOADED + """
import contextlib, io
from exactlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        status = cli.run(sys.argv[1:])[0]
    except SystemExit as exit:
        status = exit.code
print(status)
print(loaded())""", *argv)
    status, modules = out.splitlines()
    assert status == "0"
    modules = json.loads(modules)
    assert set(modules["ran"]) == BASE | extra
    # cli enters every module but orbit unexecuted; orbit is entered when
    # approx or extraction runs it
    entered = {*SUBMODULES, "cli"} - ({"orbit"} - extra)
    assert modules["entered"] == sorted(entered)


def test_importing_one_module_runs_only_its_own_imports():
    out = run_code(LOADED + "import exactlab.qnum\nprint(loaded())")
    assert json.loads(out) == {"ran": ["errors", "qnum"],
                               "entered": ["errors", "qnum"]}
