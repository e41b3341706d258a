"""exactlab benchmark: one closed-loop client running ``exactlab.cli.run``
in-process, one command after another, on a seeded op list.

    python3 perfbench/run.py --workload extract-rot --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` repeats the op list (a *pass*) while
another pass still fits in ``--seconds`` and prints the end-to-end metrics;
set-up and pass times are scaled to a reference machine speed (see
speedref.py).
``--trace 1`` runs one untraced pass, one pass with spans and counters
installed, and the microbenchmark, and prints the per-layer metrics; the
spans go to ``.perfbench-out/``.  ``--smoke`` uses the reduced op lists.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import microbench
import speedref
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("indices_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("qnum.compare_calls", "count"),
    ("qnum.arith_calls", "count"),
    ("qnum.floor_calls", "count"),
    ("qnum.compare_us", "us"),
    ("qnum.add_us", "us"),
    ("qnum.mul_us", "us"),
    ("qnum.floor_us", "us"),
    ("dsets.oracle_evals", "count"),
    ("dsets.indices_grown", "count"),
    ("dsets.element_calls", "count"),
    ("dsets.eval_cached_us", "us"),
    ("dsets.eval_grow_us", "us"),
    ("dsets.segment_check_calls", "count"),
    ("dsets.segment_check_s", "s"),
    ("approx.best_approx_calls", "count"),
    ("approx.best_approx_s", "s"),
    ("approx.ratio_family_calls", "count"),
    ("approx.ratio_family_s", "s"),
    ("approx.prefix_indices", "count"),
    ("extraction.bootstrap_s", "s"),
    ("extraction.step2_s", "s"),
    ("extraction.step3_s", "s"),
    ("extraction.step_self_s", "s"),
    ("extraction.rescan_ratio", "ratio"),
    ("coding.cf_digits_s", "s"),
    ("coding.beta_encode_s", "s"),
    ("coding.interleave_s", "s"),
    ("plfun.query_calls", "count"),
    ("plfun.query_s", "s"),
    ("analysis.diffreport_s", "s"),
    ("analysis.dini_calls", "count"),
    ("analysis.rising_sun_s", "s"),
    ("analysis.sun_bound_s", "s"),
    ("measure.union_calls", "count"),
    ("measure.subadd_s", "s"),
    ("measure.local_null_s", "s"),
    ("cli.run_s", "s"),
    ("cli.self_s", "s"),
    ("bench.trace_overhead_s", "s"),
)


@dataclass
class PassResult:
    wall: float = 0.0
    slowdown: float = 1.0   # mean reference chunk time / speedref.CHUNK_S
    indices: int = 0
    attempted: int = 0
    problems: list = field(default_factory=list)

    @property
    def scaled_wall(self) -> float:
        """The pass time at the reference speed."""
        return self.wall / self.slowdown


def _purge_exactlab() -> None:
    for name in [n for n in sys.modules
                 if n == "exactlab" or n.startswith("exactlab.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, smoke: bool):
    """Import exactlab, build the seeded op list, load the golden records."""
    start = perf_counter()
    exactlab = importlib.import_module("exactlab")
    importlib.import_module("exactlab.cli")
    ops = workloads.op_list(workload, seed, smoke)
    golden = json.loads(GOLDEN.read_text())
    return perf_counter() - start, exactlab, ops, golden


def run_ops(exactlab, ops, tracer=None, chunks=None):
    """Time each op's cli.run call; return the summed time and the outcomes.

    With a ``chunks`` list, reference chunks run between ops (untimed as
    op time) until they add up to speedref.SHARE of the op time so far,
    and their times are appended to the list."""
    wall = 0.0
    outcomes = []
    for i, argv in enumerate(ops):
        if tracer:
            tracer.begin_op(i)
        start = perf_counter()
        try:
            status, lines = exactlab.cli.run(list(argv))
        except Exception as err:  # a crashing op is a failed op
            status, lines = None, [f"{type(err).__name__}: {err}"]
        wall += perf_counter() - start
        if tracer:
            tracer.end_op()
        outcomes.append((argv, status, lines))
        while chunks is not None and sum(chunks) < speedref.SHARE * wall:
            chunks.append(speedref.chunk())
    return wall, outcomes


def evaluate(exactlab, wall, outcomes, golden, chunks=None) -> PassResult:
    result = PassResult(wall=wall, attempted=len(outcomes))
    if chunks:
        result.slowdown = sum(chunks) / len(chunks) / speedref.CHUNK_S
    for argv, status, lines in outcomes:
        bad = workloads.check_op(exactlab, argv, status, lines, golden)
        if bad:
            result.problems.append((" ".join(argv), bad))
        else:
            result.indices += workloads.reported_indices(argv, status, lines)
    return result


def measure_untraced(exactlab, ops, golden, seconds: float) -> list[PassResult]:
    """Passes until the next one would probably end after ``seconds``."""
    passes, durations = [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        chunks: list[float] = []
        wall, outcomes = run_ops(exactlab, ops, chunks=chunks)
        passes.append(evaluate(exactlab, wall, outcomes, golden, chunks))
        durations.append(perf_counter() - began)
        if perf_counter() - start + median(durations) > seconds:
            return passes


def end_to_end(setups, setup_slowdown, passes) -> dict[str, float]:
    attempted = sum(p.attempted for p in passes)
    ok = attempted - sum(len(p.problems) for p in passes)
    return {
        "setup_s": median(setups) / setup_slowdown,
        "wall_s": median(p.scaled_wall for p in passes),
        "indices_per_s": median(p.indices / p.scaled_wall for p in passes),
        "ok_ratio": ok / attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, traced_wall: float, untraced_wall: float,
              micro: dict[str, float]) -> dict[str, float]:
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def spent(name):  # time in the outermost spans of that name
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):  # self time
        return totals.get(name, (0, 0.0, 0.0))[2]

    grown = counts["dsets.indices_grown"]
    steps = [n for n in totals if re.fullmatch(r"extraction\.step\d+", n)]
    values = {
        "qnum.compare_calls": counts["qnum.compare"],
        "qnum.arith_calls": counts["qnum.arith"],
        "qnum.floor_calls": counts["qnum.floor"],
        "dsets.oracle_evals": counts["dsets.oracle_evals"],
        "dsets.indices_grown": grown,
        "dsets.element_calls": counts["dsets.element_calls"],
        "dsets.segment_check_calls": calls("dsets.segment_check"),
        "dsets.segment_check_s": spent("dsets.segment_check"),
        "approx.best_approx_calls": calls("approx.best_approx"),
        "approx.best_approx_s": spent("approx.best_approx"),
        "approx.ratio_family_calls": calls("approx.ratio_family"),
        "approx.ratio_family_s": spent("approx.ratio_family"),
        "approx.prefix_indices": counts["approx.prefix_indices"],
        "extraction.bootstrap_s": spent("extraction.bootstrap"),
        "extraction.step2_s": spent("extraction.step2"),
        "extraction.step3_s": spent("extraction.step3"),
        "extraction.step_self_s": sum(own(n) for n in steps),
        "extraction.rescan_ratio": counts["dsets.oracle_evals"] / grown if grown else 0.0,
        "coding.cf_digits_s": spent("coding.cf_digits"),
        "coding.beta_encode_s": spent("coding.beta_encode"),
        "coding.interleave_s": spent("coding.interleave"),
        "plfun.query_calls": calls("plfun.query"),
        "plfun.query_s": spent("plfun.query"),
        "analysis.diffreport_s": spent("analysis.diffreport"),
        "analysis.dini_calls": calls("analysis.dini"),
        "analysis.rising_sun_s": spent("analysis.rising_sun"),
        "analysis.sun_bound_s": spent("analysis.sun_bound"),
        "measure.union_calls": counts["measure.union_calls"],
        "measure.subadd_s": spent("measure.subadd"),
        "measure.local_null_s": spent("measure.local_null"),
        "cli.run_s": spent("cli.run"),
        "cli.self_s": own("cli.run"),
        "bench.trace_overhead_s": traced_wall - untraced_wall,
    }
    values.update(micro)
    return values


def write_trace(tracer: Tracer, workload: str, seed: int, wall: float) -> None:
    layers = tracer.layer_self_times()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "wall_s": wall,
        "span_fields": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans, "counts": dict(tracer.counts),
        "layer_self_s": layers}) + "\n")
    for layer, own in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"self time {layer:<11} {own:9.3f} s  {own / wall:6.1%} of traced wall",
              file=sys.stderr)
    print(f"spans written to {path}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced op lists, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "exactlab" / "__init__.py").is_file():
        print(f"error: no exactlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups, chunks = [], []
    for _ in range(SETUP_REPEATS):
        _purge_exactlab()
        elapsed, exactlab, ops, golden = setup(args.workload, args.seed, args.smoke)
        setups.append(elapsed)
        chunks += [speedref.chunk(), speedref.chunk()]
    setup_slowdown = sum(chunks) / len(chunks) / speedref.CHUNK_S
    if Path(exactlab.__file__).resolve().parent != SRC / "exactlab":
        print(f"error: imported exactlab from {exactlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.trace:
        wall, outcomes = run_ops(exactlab, ops)
        reference = evaluate(exactlab, wall, outcomes, golden)
        tracer = Tracer()
        tracer.install()
        try:
            wall, outcomes = run_ops(exactlab, ops, tracer)
        finally:
            tracer.uninstall()
        passes = [reference, evaluate(exactlab, wall, outcomes, golden)]
        micro = microbench.run(exactlab, args.workload, args.seed)
        metrics = per_layer(tracer, wall, reference.wall, micro)
        write_trace(tracer, args.workload, args.seed, wall)
        units = PER_LAYER
    else:
        passes = measure_untraced(exactlab, ops, golden, args.seconds)
        metrics = end_to_end(setups, setup_slowdown, passes)
        units = END_TO_END
        print(f"unscaled: median set-up {median(setups):.4f} s at slowdown "
              f"{setup_slowdown:.3f}; {len(passes)} passes, median pass "
              f"{median(p.wall for p in passes):.3f} s at median slowdown "
              f"{median(p.slowdown for p in passes):.3f}", file=sys.stderr)

    failed = sum(len(p.problems) for p in passes)
    for p in passes:
        for op, bad in p.problems:
            print(f"FAILED {op}: {'; '.join(bad)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
