"""Every op the benchmark can draw still ends with its golden exit status and
report.

``perfbench/golden.json`` records ``[status, SHA-256 of the report lines]``
for each op of ``perfbench/workloads.py``'s finite universe.  Those files
are only read here: ``workloads.py`` imports the standard library alone and
is loaded by path, and nothing is installed.  The whole replay takes a few
seconds, most of it the N = 4 extractions that exhaust their budget.
"""

import importlib.util
import json
import sys
from pathlib import Path

from exactlab.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def test_every_benchmark_op_matches_its_golden_report():
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    ops = workloads.universe()
    assert {workloads.op_key(argv) for argv in ops} == set(golden)
    differ = []
    for argv in ops:
        status, lines = run(list(argv))
        if [status, workloads.digest(lines)] != golden[workloads.op_key(argv)]:
            differ.append(f"{' '.join(argv)} (status {status})")
    assert not differ, "\n".join(differ)
