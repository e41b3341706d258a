"""Command-line entry point.

One invocation runs one job; all numbers cross the boundary as exact-number
strings, never as floats, and identical invocations print byte-identical
reports.  Exit statuses: 0 success, 2 precondition or parse error, 3 budget
exhaustion, 4 failed internal verification (the report then carries the
exact counterexample).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import analysis, coding, extraction, measure
from .approx import best_approx, ratio_family
from .dsets import DiscreteSet, FunctionOracle, GrowableSet, RotationOracle, TableOracle
from .errors import BudgetError, PreconditionError, VerificationError
from .plfun import PLFunction
from .qnum import PHI, SQRT2, SQRT3, ExactNumber, exact

_ALIASES = {
    "phi": PHI,
    "sqrt2": SQRT2,
    "sqrt3": SQRT3,
}


def _parse_number(token: str) -> ExactNumber:
    key = token.strip().lower()
    if key in _ALIASES:
        return _ALIASES[key]
    return exact(token)


def parse_oracle(spec: str) -> FunctionOracle:
    spec = spec.strip()
    if spec.startswith("rot(") and spec.endswith(")"):
        return RotationOracle(_parse_number(spec[4:-1]))
    if spec.startswith("table(") and spec.endswith(")"):
        path = Path(spec[6:-1])
        pairs = {}
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, value = line.split()
            pairs[exact(key)] = exact(value)
        return TableOracle(pairs)
    raise ValueError(f"unknown oracle spec {spec!r}; use rot(...) or table(file)")


def parse_pl(spec: str) -> PLFunction:
    spec = spec.strip()
    if spec == "worked3":
        return PLFunction.from_values(
            [(0, 0), (1, 2), (2, 1), (3, Fraction(3, 2))])
    if spec.startswith("cantor:"):
        return PLFunction.cantor_staircase(int(spec.split(":", 1)[1]))
    return PLFunction.parse(Path(spec).read_text())


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def _parse_probes(text: str) -> list[measure.Interval]:
    out = []
    for token in text.split():
        if not (token.startswith("(") and token.endswith(")")):
            raise ValueError(f"probe {token!r} must look like (a,b)")
        lo, hi = token[1:-1].split(",")
        out.append(measure.Interval(exact(lo), exact(hi)))
    return out


# -- subcommand handlers -----------------------------------------------------


def _cmd_extract(args) -> list[str]:
    oracle = parse_oracle(args.oracle)
    G = GrowableSet(cap=args.budget)
    trace = extraction.extract(G, oracle, args.n, exact(args.eps))
    return extraction.trace_report(trace)


def _cmd_approx(args) -> list[str]:
    oracle = parse_oracle(args.oracle)
    bound = exact(args.bound)
    G = GrowableSet(cap=args.budget)
    D = G.prefix(bound.floor())
    state = best_approx(D, oracle, _parse_number(args.cut), bound)
    return [
        f"cut={state.cut}",
        f"bound={state.bound}",
        f"L={{{','.join(str(e) for e in state.L)}}}",
        f"R={{{','.join(str(e) for e in state.R)}}}",
        f"l={state.l}",
        f"r={state.r}",
    ]


def _cmd_yfam(args) -> list[str]:
    oracle = parse_oracle(args.oracle)
    d = exact(args.d)
    G = GrowableSet(cap=args.budget)
    D = G.prefix(d.floor())
    fam = ratio_family(D, oracle, _parse_number(args.a), _parse_number(args.b), d)
    lines = [
        f"a={fam.a}",
        f"b={fam.b}",
        f"d={fam.d}",
        f"Y={{{','.join(str(y) for y in fam.yset)}}}",
        f"inJ={'true' if fam.admissible else 'false'}",
        f"checked_bound={fam.checked_bound}",
    ]
    for term in fam.terms:
        lines.append(
            f"term anchor={term.anchor} bound={term.bound_used} "
            f"l={term.left} r={term.right} value={term.value}")
    return lines


def _cmd_code(args) -> list[str]:
    verb = args.verb
    argv = args.args
    if verb == "pair":
        return [str(coding.cantor_pair(int(argv[0]), int(argv[1])))]
    if verb == "unpair":
        m, n = coding.cantor_unpair(int(argv[0]))
        return [f"{m} {n}"]
    if verb == "beta-encode":
        return [str(coding.beta_encode(_parse_int_list(argv[0])))]
    if verb == "beta":
        return [str(coding.beta(int(argv[0]), int(argv[1])))]
    if verb == "cf":
        upto = int(argv[1]) if len(argv) > 1 else 10
        digits = coding.cf_digits(_parse_number(argv[0]), upto)
        return [",".join(str(d) for d in digits)]
    if verb == "cf-encode":
        coded = coding.cf_encode(_parse_int_list(argv[0]))
        return [f"value={coded.value}",
                f"digits={','.join(str(d) for d in coded.tower)}"]
    if verb == "cf-decode":
        coded = coding.CodedReal.from_digits(_parse_int_list(argv[0]))
        return [",".join(str(v) for v in coding.cf_decode(coded))]
    if verb == "delta-encode":
        members = [coding.CodedReal.from_value(exact(tok))
                   for tok in argv[0].split(";")]
        packed = coding.interleave_encode(
            members, digits_per_row=args.digits)
        return [f"value={packed.value}",
                f"digits={','.join(str(d) for d in packed.tower)}"]
    if verb == "delta-row":
        packed = coding.CodedReal.from_digits(_parse_int_list(argv[0]))
        row = coding.interleave_row(packed, int(argv[1]), upto=args.digits)
        return [f"value={row.value}",
                f"digits={','.join(str(d) for d in row.tower)}"]
    if verb == "sum":
        values = [exact(tok) for tok in argv[0].split(",")]
        D = DiscreteSet.naturals(len(values) - 1)
        table = TableOracle({ExactNumber(i): v for i, v in enumerate(values)})
        return [str(coding.discrete_sum(D, table))]
    raise ValueError(f"unknown code verb {verb!r}")


def _cmd_sun(args) -> list[str]:
    f = parse_pl(args.fn)
    if args.c is None:
        sun = analysis.rising_sun(f)
        lines = [f"components={len(sun.components)}",
                 f"measure={sun.measure()}"]
        for shadow in sun.shadows:
            lines.append(
                f"component start={shadow.start} end={shadow.end} "
                f"entry={shadow.entry_limit} roof={shadow.roof} "
                f"shadow={'ok' if shadow.holds else 'VIOLATED'}")
        return lines
    result = analysis.sun_measure_bound(f, _parse_number(args.c))
    lines = [f"c={args.c}",
             f"mu={result.mu}",
             f"bound={result.bound}",
             f"holds={'true' if result.holds else 'false'}"]
    for comp in result.per_component:
        lines.append(
            f"component start={comp.start} end={comp.end} "
            f"scaled_width={comp.scaled_width} rise={comp.rise} "
            f"check={'ok' if comp.holds else 'VIOLATED'}")
    return lines


def _cmd_dini(args) -> list[str]:
    f = parse_pl(args.fn)
    values = analysis.dini(f, _parse_number(args.x))
    return [f"lower_left={values.lower_left}",
            f"upper_left={values.upper_left}",
            f"lower_right={values.lower_right}",
            f"upper_right={values.upper_right}"]


def _cmd_measure(args) -> list[str]:
    verb = args.verb
    argv = args.args
    if verb == "mass":
        return [str(measure.cover_mass(_parse_probes(argv[0])))]
    if verb == "outer":
        return [str(measure.outer_measure(measure.FiniteUnion.parse(argv[0])))]
    if verb == "subadd":
        parts = [measure.FiniteUnion.parse(tok) for tok in argv]
        report = measure.subadditivity_check(parts)
        return [f"mu_union={report.mu_union}",
                f"mu_sum={report.mu_sum}",
                f"slack={report.slack}",
                f"holds={'true' if report.holds else 'false'}"]
    if verb == "localnull":
        if None in (args.set, args.delta, args.probes):
            raise ValueError(
                "measure localnull needs --set, --delta and --probes")
        X = measure.FiniteUnion.parse(args.set)
        report = measure.local_null_check(
            X, exact(args.delta), _parse_probes(args.probes))
        lines = [f"measure_zero={'true' if report.measure_zero else 'false'}",
                 f"violator={report.violator if report.violator else 'none'}"]
        for probe in report.probes:
            lines.append(
                f"probe {probe.probe} mu={probe.mu_inside} "
                f"threshold={probe.threshold} "
                f"hypothesis={'ok' if probe.hypothesis_holds else 'fails'}")
        return lines
    raise ValueError(f"unknown measure verb {verb!r}")


def _cmd_diffreport(args) -> list[str]:
    f = parse_pl(args.fn)
    report = analysis.differentiability_report(f, exact(args.mesh))
    lines = [f"mesh={report.mesh}",
             f"cells={len(report.cells)}",
             f"all_cells_pass={'true' if report.all_cells_pass else 'false'}",
             f"nondifferentiable={len(report.nondifferentiable)}"]
    for cell in report.cells:
        lines.append(f"cell lo={cell.lo} hi={cell.hi} "
                     f"witness={cell.witness} derivative={cell.derivative}")
    for point in report.nondifferentiable:
        values = point.values
        lines.append(
            f"nondiff x={point.x} dini={values.lower_left},"
            f"{values.upper_left},{values.lower_right},{values.upper_right}")
    return lines


def _cmd_hpcheck(args) -> list[str]:
    result = analysis.factorial_series_check(args.order)
    return [f"order={result.order}",
            f"holds={'true' if result.holds else 'false'}",
            f"a_{result.order}={result.coefficients[-1]}"]


# -- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactlab",
        description="exact-arithmetic experiments: extraction pipeline, "
                    "best approximations, sequence coding, PL analysis")
    parser.add_argument("--emit", help="also write the report to this path "
                        "(.json gets a structured dump)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="run the segment-extraction pipeline")
    p.add_argument("--oracle", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("approx", help="best approximations of a cut")
    p.add_argument("--oracle", required=True)
    p.add_argument("--cut", required=True)
    p.add_argument("--bound", required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("yfam", help="ratio family of a pair of cuts")
    p.add_argument("--oracle", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(handler=_cmd_yfam)

    p = sub.add_parser("code", help="sequence coding utilities")
    p.add_argument("verb", choices=["pair", "unpair", "beta-encode", "beta",
                                    "cf", "cf-encode", "cf-decode",
                                    "delta-encode", "delta-row", "sum"])
    p.add_argument("args", nargs="*")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(handler=_cmd_code)

    p = sub.add_parser("sun", help="rising-sun decomposition / length bound")
    p.add_argument("--fn", required=True,
                   help="PL function: a file, 'worked3', or 'cantor:N'")
    p.add_argument("--c", default=None)
    p.set_defaults(handler=_cmd_sun)

    p = sub.add_parser("dini", help="four Dini derivatives at a point")
    p.add_argument("--fn", required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(handler=_cmd_dini)

    p = sub.add_parser("measure", help="cover mass / outer measure checks")
    p.add_argument("verb", choices=["mass", "outer", "subadd", "localnull"])
    p.add_argument("args", nargs="*")
    p.add_argument("--set", default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--probes", default=None)
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("diffreport", help="mesh-scale differentiability survey")
    p.add_argument("--fn", required=True)
    p.add_argument("--mesh", required=True)
    p.set_defaults(handler=_cmd_diffreport)

    p = sub.add_parser("hpcheck", help="factorial power-series identity check")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=_cmd_hpcheck)

    return parser


def _emit(path: str, lines: Sequence[str]) -> None:
    if path.endswith(".json"):
        payload = {"report": list(lines)}
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    else:
        Path(path).write_text("\n".join(lines) + "\n")


def run(argv: Optional[Sequence[str]] = None) -> tuple[int, list[str]]:
    """Parse and dispatch; returns (exit status, report lines)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines = args.handler(args)
    except BudgetError as err:
        return 3, [f"budget exhausted: {err}"]
    except VerificationError as err:
        return 4, [f"verification failed: {err}"]
    except (PreconditionError, ValueError, OSError) as err:
        return 2, [f"error: {err}"]
    if args.emit:
        _emit(args.emit, lines)
    return 0, lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    status, lines = run(argv)
    out = sys.stdout if status == 0 else sys.stderr
    for line in lines:
        print(line, file=out)
    return status


if __name__ == "__main__":
    sys.exit(main())
