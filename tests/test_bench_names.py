"""The package names that perfbench's tracer wraps must exist, and its
microbench must run.

``perfbench/tracer.py`` replaces functions by (module, qualified name), and
looks each one up in its owner's own namespace; a name that a refactor
renames or deletes breaks ``perfbench/run.py --trace 1`` while every other
test still passes.  ``perfbench/microbench.py`` calls the package's public
API, which a change can break the same way.  Both modules are only read
here: they import the standard library alone, and nothing is installed.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

import exactlab
from exactlab import approx, cli, extraction
from fresh import run_code

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
WRAPPED = sorted({*tracer.SPANS, *tracer.COUNTERS, tracer.EXTEND_STEP,
                  ("dsets", "GrowableSet.__init__")})


@pytest.mark.parametrize("module, qualname", WRAPPED)
def test_traced_name_resolves(module, qualname):
    owner = importlib.import_module(f"exactlab.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer reads the owner's own namespace, not an inherited one
    assert attr in vars(owner), f"{module}.{qualname}"
    assert callable(getattr(owner, attr))


def test_traced_modules_are_entered_by_the_cli_import():
    """The tracer reads its owners from sys.modules after set-up, which
    imports exactlab.cli alone; a module cli loads lazily must be entered
    there all the same, though its body may not have run."""
    traced = sorted({f"exactlab.{m}" for m, _ in [*tracer.SPANS, *tracer.COUNTERS,
                                                  tracer.EXTEND_STEP]})
    out = run_code("import sys, exactlab.cli\n"
                   "print(' '.join(n for n in sys.argv[1:] if n not in sys.modules))",
                   *traced)
    assert out.split() == []


def test_names_imported_by_name_are_the_same_objects():
    assert extraction._bracket_terms is approx._bracket_terms
    assert extraction.ratio_family is approx.ratio_family
    assert cli.best_approx is approx.best_approx
    assert cli.ratio_family is approx.ratio_family


def test_microbench_runs():
    metrics = _load("microbench").run(exactlab, "pl-survey", 1)
    for name in ("qnum.compare_us", "qnum.add_us", "qnum.mul_us",
                 "qnum.floor_us", "dsets.eval_cached_us",
                 "dsets.eval_grow_us"):
        assert math.isfinite(metrics[name]) and metrics[name] > 0, name
