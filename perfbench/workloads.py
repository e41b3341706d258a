"""Workload definitions: the finite op universe, seeded op lists, and the
per-op correctness checks.

Every workload is a list of strata.  A stratum is a fixed number of ops
drawn, by the run's seed, from a finite candidate list whose members cost
about the same.  The seed therefore picks the concrete inputs and their
order while the cost of an op list stays nearly the same from seed to
seed, which is what keeps run-to-run spreads small.  Because the candidate
lists are finite, every op a seed can produce has a golden record (see
``record_golden.py``).

An op is the argv of one ``exactlab.cli.run`` call.  Nothing here imports
exactlab; the checks receive the already imported modules.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("extract-rot", "extract-exhaust", "pl-survey")

# Rotation bases that finish N = 3 within the default 10^6 budget.  sqrt(5)
# and sqrt(10) exhaust it at N = 3 and are left out.
ROT_POOL = ("phi", "sqrt2", "sqrt3", "sqrt(6)", "sqrt(7)", "sqrt(11)", "sqrt(13)")

# d_index of each step at N = 3, eps = 1/4 (the known anchors).
ANCHORS_N3 = {
    "phi": (1, 233, 28890),
    "sqrt2": (1, 985, 196010),
    "sqrt3": (1, 153, 29834),
}

EPS = Fraction(1, 4)

# Candidate lists are built from this fixed generator seed, never from the
# run's seed, so the universe (and the golden file) is the same for all runs.
_UNIVERSE_SEED = 20131305


@dataclass(frozen=True)
class Stratum:
    name: str
    count: int
    candidates: tuple[tuple[str, ...], ...]


def _extract(alpha: str, n: int, budget: int = 10 ** 6) -> tuple[str, ...]:
    return ("extract", "--oracle", f"rot({alpha})", "--n", str(n),
            "--eps", "1/4", "--budget", str(budget))


def _near(center: int, radius: int = 2) -> range:
    return range(center - radius, center + radius + 1)


def _frac(rng: random.Random, den_choices, lo_num: int = 1) -> Fraction:
    den = rng.choice(den_choices)
    return Fraction(rng.randrange(lo_num, den), den)


def _union_text(rng: random.Random, parts: int, den: int) -> str:
    """Whitespace-separated FiniteUnion tokens with 3^k-style endpoints."""
    tokens = []
    for _ in range(parts):
        a = rng.randrange(0, den - 1)
        b = rng.randrange(a + 1, den + 1)
        tokens.append(f"({Fraction(a, den)},{Fraction(b, den)})")
    if rng.random() < 0.5:
        tokens.append(f"{{{Fraction(rng.randrange(0, den + 1), den)}}}")
    return " ".join(tokens)


def _pl_candidates() -> dict[str, tuple[tuple[str, ...], ...]]:
    rng = random.Random(_UNIVERSE_SEED)
    three = [3 ** j for j in range(1, 8)]
    cs = ("3/2", "2", "5/2", "3", "7/2", "4")

    def diff(k: int, j: int):
        return tuple(("diffreport", "--fn", f"cantor:{k}", "--mesh", f"1/{m}")
                     for m in _near(3 ** j))

    xs = sorted({_frac(rng, [3 ** j * s for j in range(1, 9) for s in (1, 2, 4)])
                 for _ in range(30)})
    cuts = sorted({_frac(rng, list(range(7, 60)), lo_num=1) for _ in range(20)})
    pairs = [(rng.choice(cuts), rng.choice(cuts)) for _ in range(10)]
    subadd = [tuple(_union_text(rng, rng.randint(1, 4), rng.choice(three))
                    for _ in range(rng.randint(2, 5)))
              for _ in range(30)]
    localnull = []
    for _ in range(30):
        den = rng.choice(three)
        probes = []
        for _ in range(rng.randint(1, 4)):
            a = rng.randrange(0, den)
            probes.append(f"({Fraction(a, den)},{Fraction(rng.randrange(a + 1, den + 1), den)})")
        localnull.append(("measure", "localnull",
                          "--set", _union_text(rng, rng.randint(1, 4), den),
                          "--delta", str(Fraction(rng.randrange(0, 9), 10)),
                          "--probes", " ".join(probes)))
    irrationals = []
    for _ in range(20):
        m = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
        c = rng.randint(1, 9)
        irrationals.append(f"{rng.randint(1, 20)}/{c}+{rng.randint(1, 9)}/{c}*sqrt({m})")
    beta_lists = [",".join(str(rng.randint(0, 20)) for _ in range(rng.randint(3, 10)))
                  for _ in range(20)]
    deltas = [";".join(str(_frac(rng, list(range(2, 200)))) for _ in range(rng.randint(2, 5)))
              for _ in range(20)]
    digit_lists = [",".join(str(rng.randint(1, 30)) for _ in range(rng.randint(3, 12)))
                   for _ in range(20)]
    return {
        "diff-7-2187": diff(7, 7),
        "diff-7-729": diff(7, 6),
        "diff-6-729": diff(6, 6),
        "diff-5-243": diff(5, 5),
        "sun-9-c": tuple(("sun", "--fn", "cantor:9", "--c", c) for c in cs),
        "sun-8-c": tuple(("sun", "--fn", "cantor:8", "--c", c) for c in cs),
        "sun-6-c": tuple(("sun", "--fn", "cantor:6", "--c", c) for c in cs),
        "sun": tuple(("sun", "--fn", f"cantor:{k}") for k in (8, 9)),
        "dini-9": tuple(("dini", "--fn", "cantor:9", "--x", str(x)) for x in xs),
        "dini-7": tuple(("dini", "--fn", "cantor:7", "--x", str(x)) for x in xs),
        "subadd": tuple(("measure", "subadd") + parts for parts in subadd),
        "localnull": tuple(localnull),
        "code-cf": tuple(("code", "cf", x, "40") for x in irrationals),
        "code-beta": tuple(("code", "beta-encode", v) for v in beta_lists),
        "code-delta": tuple(("code", "delta-encode", v) for v in deltas),
        "code-cf-decode": tuple(("code", "cf-decode", v) for v in digit_lists),
        "approx": tuple(("approx", "--oracle", f"rot({a})", "--cut", str(c),
                         "--bound", "2000")
                        for a in ("phi", "sqrt2") for c in cuts),
        "yfam": tuple(("yfam", "--oracle", f"rot({a})", f"--a={x}", f"--b={y}",
                       "--d", "500")
                      for a in ("phi", "sqrt2") for x, y in pairs),
    }


def strata(workload: str, smoke: bool = False) -> tuple[Stratum, ...]:
    """The strata of a workload; ``smoke`` gives a reduced-size variant."""
    if workload == "extract-rot":
        low = tuple(_extract(a, n) for a in ROT_POOL for n in (1, 2))
        if smoke:
            return (Stratum("n3", 1, (_extract("sqrt3", 3),)),
                    Stratum("n12", 4, low))
        # N = 3 costs 1 s (phi, sqrt3) to 5 s (sqrt2) per base, so a free
        # draw would make the list's cost depend on the seed: the three
        # anchored bases run every pass, plus one of two that cost alike
        return tuple(Stratum(a, 1, (_extract(a, 3),)) for a in ANCHORS_N3) + (
            Stratum("n3-extra", 1, tuple(_extract(a, 3)
                                         for a in ("sqrt(7)", "sqrt(13)"))),
            Stratum("n12", 8, low))
    if workload == "extract-exhaust":
        budgets = (2000, 2500) if smoke else range(199000, 201001, 500)
        return tuple(Stratum(a, 1, tuple(_extract(a, 4, b) for b in budgets))
                     for a in ("phi", "sqrt3"))
    if workload == "pl-survey":
        c = _pl_candidates()
        if smoke:
            counts = {"diff-5-243": 1, "sun-6-c": 1, "dini-7": 1, "subadd": 1,
                      "localnull": 1, "code-cf": 1, "code-beta": 1,
                      "code-delta": 1, "code-cf-decode": 1, "approx": 1,
                      "yfam": 1}
        else:
            counts = {"diff-7-2187": 2, "diff-7-729": 2, "diff-6-729": 4,
                      "diff-5-243": 6, "sun-9-c": 6, "sun-8-c": 4, "sun": 3,
                      "dini-9": 10, "dini-7": 10, "subadd": 10,
                      "localnull": 10, "code-cf": 5, "code-beta": 5,
                      "code-delta": 5, "code-cf-decode": 5, "approx": 4,
                      "yfam": 4}
        return tuple(Stratum(name, n, c[name]) for name, n in counts.items())
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def op_list(workload: str, seed: int, smoke: bool = False) -> list[tuple[str, ...]]:
    """The seeded op list: each stratum's draws, shuffled together."""
    rng = random.Random(f"{workload}/{seed}")
    ops: list[tuple[str, ...]] = []
    for s in strata(workload, smoke):
        ops.extend(rng.choice(s.candidates) for _ in range(s.count))
    rng.shuffle(ops)
    return ops


def universe() -> list[tuple[str, ...]]:
    """Every op any seed can produce, full and smoke sizes alike."""
    seen: dict[tuple[str, ...], None] = {}
    for workload in WORKLOADS:
        for smoke in (False, True):
            for s in strata(workload, smoke):
                seen.update(dict.fromkeys(s.candidates))
    return list(seen)


# -- per-op records and checks ------------------------------------------------

def op_key(argv) -> str:
    return "\x1f".join(argv)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _opt(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def expected_status(argv) -> int:
    """Exit status an op must end with: 3 for the N = 4 extractions, which
    run out of budget by design, 0 for everything else."""
    return 3 if argv[0] == "extract" and _opt(argv, "--n") == "4" else 0


_STEP_RE = re.compile(r"^step=(\d+) eps=(\S+) .* d_index=(\d+) "
                      r"max_index=(\d+) Y=\{([^}]*)\} check=(\w+)$")


def reported_indices(argv, status, lines) -> int:
    """Indices an op reports having covered: final max_index + 1 for a
    finished extraction, the budget for an exhausted one, the bound + 1 for
    approx / yfam prefixes, 0 otherwise.  Taken from the report, not from
    what was materialized."""
    cmd = argv[0]
    if cmd == "extract":
        if status == 3:
            return int(_opt(argv, "--budget"))
        return int(_STEP_RE.match(lines[-1]).group(4)) + 1
    key = {"approx": "bound=", "yfam": "checked_bound="}.get(cmd)
    if key is None:
        return 0
    value = next(line[len(key):] for line in lines if line.startswith(key))
    return int(value) + 1


def check_op(exactlab, argv, status, lines, golden) -> list[str]:
    """Problems with one op's outcome; an empty list means the op is ok."""
    problems = []
    expected = golden.get(op_key(argv))
    if expected is None:
        problems.append("no golden record")
    elif [status, digest(lines)] != expected:
        problems.append(f"status/report differ from golden (status {status})")
    if argv[0] == "extract" and not problems:
        if expected_status(argv) == 3:
            problems += _check_exhausted(argv, status, lines)
        else:
            problems += _check_steps(exactlab, argv, int(_opt(argv, "--n")), lines)
    return problems


def _check_exhausted(argv, status, lines) -> list[str]:
    budget = int(_opt(argv, "--budget"))
    want = [f"budget exhausted: index {budget + 1} exceeds cap {budget}"]
    if status != 3 or lines != want:
        return [f"expected exit 3 with {want[0]!r}"]
    return []


def _check_steps(exactlab, argv, n, lines) -> list[str]:
    """Re-check every step's Y at 1/4 / 6^(N-k), as acceptance criterion 2
    does, and the known anchors at N = 3."""
    dsets, qnum = exactlab.dsets, exactlab.qnum
    steps = [m for m in map(_STEP_RE.match, lines) if m]
    if len(steps) != n:
        return [f"{len(steps)} step lines for N = {n}"]
    problems = []
    for k, m in enumerate(steps, start=1):
        eps_k = EPS / 6 ** (n - k)
        ys = dsets.DiscreteSet(qnum.parse_exact(y) for y in m.group(5).split(","))
        if (int(m.group(1)) != k or Fraction(m.group(2)) != eps_k
                or m.group(6) != "pass"
                or not dsets.is_approx_segment(ys, eps_k, k)):
            problems.append(f"step {k} fails the independent re-check")
    alpha = _opt(argv, "--oracle")[4:-1]
    anchors = ANCHORS_N3.get(alpha)
    if n == 3 and anchors is not None:
        got = tuple(int(m.group(3)) for m in steps)
        if got != anchors:
            problems.append(f"anchors {got} != {anchors}")
    return problems
