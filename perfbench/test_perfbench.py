"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

They run the benchmark in its reduced-size smoke mode; the full suite takes
about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Count metrics: a traced run at one seed must reproduce them exactly.
COUNT_METRICS = [m["name"] for m in BENCHMARK["per_layer"]
                 if m["unit"] == "count"] + ["extraction.rescan_ratio"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(workload, trace, seed=7):
    proc = bench("--workload", workload, "--seed", seed, "--seconds", 0.1,
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_metric_and_counts_repeat(workload):
    untraced = result(workload, 0)
    first, second = result(workload, 1), result(workload, 1)
    for out, listed in ((untraced, "end_to_end"), (first, "per_layer")):
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert {k: v["unit"] for k, v in out["metrics"].items()} == \
            {m["name"]: m["unit"] for m in BENCHMARK[listed]}
    assert untraced["metrics"]["ok_ratio"]["value"] == 1.0
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "extract-rot", "--seed", 1, "--seconds", 1,
                 "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_op_has_a_golden_record():
    golden = json.loads((HERE / "golden.json").read_text())
    assert {workloads.op_key(op) for op in workloads.universe()} == set(golden)


def test_seed_picks_the_ops():
    for workload in workloads.WORKLOADS:
        assert workloads.op_list(workload, 3) == workloads.op_list(workload, 3)
        assert workloads.op_list(workload, 3) != workloads.op_list(workload, 4)


def test_tracer_patches_by_name_imports_and_restores_them():
    import exactlab.cli  # noqa: F401
    from exactlab import approx, cli, dsets, extraction

    originals = (approx.ratio_family, extraction.ratio_family,
                 extraction._bracket_terms, approx.is_approx_segment,
                 cli.best_approx, dsets.GrowableSet.element)
    tracer = Tracer()
    tracer.install()
    try:
        assert extraction.ratio_family is approx.ratio_family is cli.ratio_family
        assert extraction._bracket_terms is approx._bracket_terms
        assert extraction.is_approx_segment is approx.is_approx_segment \
            is dsets.is_approx_segment
        assert cli.best_approx is approx.best_approx
        assert approx.ratio_family is not originals[0]
    finally:
        tracer.uninstall()
    assert (approx.ratio_family, extraction.ratio_family,
            extraction._bracket_terms, approx.is_approx_segment,
            cli.best_approx, dsets.GrowableSet.element) == originals


def test_sqrt2_n3_counts():
    """The library call behind `extract --oracle rot(sqrt2) --n 3`."""
    import exactlab.cli  # noqa: F401
    from exactlab import SQRT2, GrowableSet, RotationOracle, extraction

    tracer = Tracer()
    tracer.install()
    try:
        G = GrowableSet(cap=10 ** 6)
        extraction.extract(G, RotationOracle(SQRT2), 3, Fraction(1, 4))
    finally:
        tracer.uninstall()
    tracer.end_op()
    assert tracer.counts["qnum.compare"] == 1_890_992
    assert tracer.counts["dsets.oracle_evals"] == 846_878
    assert tracer.counts["dsets.element_calls"] == 254_900
    assert tracer.counts["dsets.indices_grown"] == 196_011
    assert G.materialized_bound == 196_010
