"""The package names that perfbench's tracer wraps must exist.

``perfbench/tracer.py`` replaces functions by (module, qualified name), and
looks each one up in its owner's own namespace; a name that a refactor
renames or deletes breaks ``perfbench/run.py --trace 1`` while every other
test still passes.  The tracer module is only read here: it imports the
standard library alone, and nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from exactlab import approx, cli, extraction

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
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


def test_names_imported_by_name_are_the_same_objects():
    assert extraction._bracket_terms is approx._bracket_terms
    assert extraction.ratio_family is approx.ratio_family
    assert cli.best_approx is approx.best_approx
    assert cli.ratio_family is approx.ratio_family
