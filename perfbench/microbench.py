"""Per-operation timings of qnum arithmetic and rotation-oracle evaluation,
on operands sampled from the workload being measured.

The traced run's counting wrappers add a large share to calls this cheap,
so the microseconds per operation come from here, with tracing off.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter

SAMPLES = 2000
REPEATS = 5
GROW_INDICES = 20000

# Operands per workload: rotation values of this base up to this index, or,
# for pl-survey, rationals with denominator 3^k as in the Cantor staircases.
OPERANDS = {
    "extract-rot": ("SQRT2", 196010),
    "extract-exhaust": ("PHI", 200000),
    "pl-survey": ("PHI", 2000),
}
PL_DEPTH = 9


def _per_op_us(fn, items) -> float:
    runs = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn(items)
        runs.append(perf_counter() - start)
    return median(runs) / len(items) * 1e6


def _compare(pairs):
    for x, y in pairs:
        x.compare(y)


def _add(pairs):
    for x, y in pairs:
        x + y


def _mul(pairs):
    for x, y in pairs:
        x * y


def _floor(values):
    for x in values:
        x.floor()


def run(exactlab, workload: str, seed: int) -> dict[str, float]:
    qnum, dsets = exactlab.qnum, exactlab.dsets
    rng = random.Random(f"micro/{workload}/{seed}")
    base, depth = OPERANDS[workload]
    alpha = getattr(qnum, base)
    oracle = dsets.RotationOracle(alpha)
    oracle.eval(qnum.ExactNumber(depth))
    indices = [qnum.ExactNumber(rng.randrange(depth + 1)) for _ in range(SAMPLES)]

    if workload == "pl-survey":
        den = 3 ** PL_DEPTH
        values = [qnum.ExactNumber(rng.randrange(1, 4 * den)) / den
                  for _ in range(2 * SAMPLES)]
        floors = values[:SAMPLES]
    else:
        values = [oracle.eval(i) for i in indices]
        values += [oracle.eval(qnum.ExactNumber(rng.randrange(depth + 1)))
                   for _ in range(SAMPLES)]
        # the irrational floor of n * alpha, as a non-integer oracle query needs
        floors = [i * alpha for i in indices]
    pairs = list(zip(values[:SAMPLES], values[SAMPLES:]))

    def cached(items):
        for i in items:
            oracle.eval(i)

    grow_args = [qnum.ExactNumber(i) for i in range(1, min(depth, GROW_INDICES) + 1)]
    grow_runs = []
    for _ in range(REPEATS):
        fresh = dsets.RotationOracle(alpha)
        start = perf_counter()
        for i in grow_args:
            fresh.eval(i)
        grow_runs.append(perf_counter() - start)

    return {
        "qnum.compare_us": _per_op_us(_compare, pairs),
        "qnum.add_us": _per_op_us(_add, pairs),
        "qnum.mul_us": _per_op_us(_mul, pairs),
        "qnum.floor_us": _per_op_us(_floor, floors),
        "dsets.eval_cached_us": _per_op_us(cached, indices),
        "dsets.eval_grow_us": median(grow_runs) / len(grow_args) * 1e6,
    }
