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
from .errors import BudgetError, CapExceeded, PreconditionError, VerificationError
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


def parse_pl(spec: str, budget: int = 10 ** 6) -> PLFunction:
    """A PL function by spec; ``cantor:N`` has 2^(N+1) breakpoints, which
    must not exceed the budget (CapExceeded, checked before building)."""
    if budget < 0:
        raise ValueError(f"cap must be non-negative, got {budget}")
    spec = spec.strip()
    if spec == "worked3":
        return PLFunction.from_values(
            [(0, 0), (1, 2), (2, 1), (3, Fraction(3, 2))])
    if spec.startswith("cantor:"):
        depth = int(spec.split(":", 1)[1])
        # 2^(depth+1) > budget, decided without building the power
        if depth >= 0 and depth + 1 >= budget.bit_length():
            raise CapExceeded(f"2^{depth + 1} breakpoints exceed cap {budget}")
        return PLFunction.cantor_staircase(depth)
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


# -- report rendering --------------------------------------------------------


def _text(value) -> str:
    """One report value: a bool as true/false, a set as {a,b}, a list or
    tuple comma-joined, anything else by str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, DiscreteSet):
        return "{" + _text(value.elements) + "}"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _lines(**fields) -> list[str]:
    """One key=value line per field, in the order given."""
    return [f"{key}={_text(value)}" for key, value in fields.items()]


def _row(tag: str, **fields) -> str:
    """One line: the tag, then space-separated key=value fields."""
    return " ".join([tag] + _lines(**fields))


# verb -> (least, most) positional arguments; also the parser's choices
_CODE_ARITY = {"pair": (2, 2), "unpair": (1, 1), "beta-encode": (1, 1),
               "beta": (2, 2), "cf": (1, 2), "cf-encode": (1, 1),
               "cf-decode": (1, 1), "delta-encode": (1, 1),
               "delta-row": (2, 2), "sum": (1, 1)}
_MEASURE_ARITY = {"mass": (1, 1), "outer": (1, 1), "subadd": (0, sys.maxsize),
                  "localnull": (0, 0)}


def _verb_args(args, arity: dict[str, tuple[int, int]]) -> list[str]:
    """The positional arguments of ``args.verb``, checked against its count."""
    least, most = arity[args.verb]
    if not least <= len(args.args) <= most:
        wanted = least if least == most else f"{least} to {most}"
        raise ValueError(f"{args.command} {args.verb} takes {wanted} "
                         f"argument(s), got {len(args.args)}")
    return args.args


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
    return _lines(cut=state.cut, bound=state.bound, L=state.L, R=state.R,
                  l=state.l, r=state.r)


def _cmd_yfam(args) -> list[str]:
    oracle = parse_oracle(args.oracle)
    d = exact(args.d)
    G = GrowableSet(cap=args.budget)
    D = G.prefix(d.floor())
    fam = ratio_family(D, oracle, _parse_number(args.a), _parse_number(args.b), d)
    return _lines(a=fam.a, b=fam.b, d=fam.d, Y=fam.yset, inJ=fam.admissible,
                  checked_bound=fam.checked_bound) + [
        _row("term", anchor=t.anchor, bound=t.bound_used, l=t.left,
             r=t.right, value=t.value)
        for t in fam.terms]


def _cmd_code(args) -> list[str]:
    verb = args.verb
    argv = _verb_args(args, _CODE_ARITY)
    if verb == "pair":
        return [_text(coding.cantor_pair(int(argv[0]), int(argv[1])))]
    if verb == "unpair":
        m, n = coding.cantor_unpair(int(argv[0]))
        return [f"{m} {n}"]
    if verb == "beta-encode":
        return [_text(coding.beta_encode(_parse_int_list(argv[0])))]
    if verb == "beta":
        return [_text(coding.beta(int(argv[0]), int(argv[1])))]
    if verb == "cf":
        upto = int(argv[1]) if len(argv) > 1 else 10
        return [_text(coding.cf_digits(_parse_number(argv[0]), upto))]
    if verb == "cf-decode":
        coded = coding.CodedReal.from_digits(_parse_int_list(argv[0]))
        return [_text(coding.cf_decode(coded))]
    if verb == "sum":
        values = [exact(tok) for tok in argv[0].split(",")]
        D = DiscreteSet.naturals(len(values) - 1)
        table = TableOracle({ExactNumber(i): v for i, v in enumerate(values)})
        return [_text(coding.discrete_sum(D, table))]
    if verb == "cf-encode":
        coded = coding.cf_encode(_parse_int_list(argv[0]))
    elif verb == "delta-encode":
        members = [coding.CodedReal.from_value(exact(tok))
                   for tok in argv[0].split(";")]
        coded = coding.interleave_encode(members, digits_per_row=args.digits)
    else:  # delta-row
        packed = coding.CodedReal.from_digits(_parse_int_list(argv[0]))
        coded = coding.interleave_row(packed, int(argv[1]), upto=args.digits)
    return _lines(value=coded.value, digits=coded.tower)


def _cmd_sun(args) -> list[str]:
    f = parse_pl(args.fn, args.budget)
    if args.c is None:
        sun = analysis.rising_sun(f)
        return _lines(components=len(sun.components),
                      measure=sun.measure()) + [
            _row("component", start=s.start, end=s.end, entry=s.entry_limit,
                 roof=s.roof, shadow="ok" if s.holds else "VIOLATED")
            for s in sun.shadows]
    result = analysis.sun_measure_bound(f, _parse_number(args.c))
    return _lines(c=args.c, mu=result.mu, bound=result.bound,
                  holds=result.holds) + [
        _row("component", start=c.start, end=c.end,
             scaled_width=c.scaled_width, rise=c.rise,
             check="ok" if c.holds else "VIOLATED")
        for c in result.per_component]


def _cmd_dini(args) -> list[str]:
    f = parse_pl(args.fn, args.budget)
    values = analysis.dini(f, _parse_number(args.x))
    return _lines(lower_left=values.lower_left, upper_left=values.upper_left,
                  lower_right=values.lower_right,
                  upper_right=values.upper_right)


def _cmd_measure(args) -> list[str]:
    verb = args.verb
    argv = _verb_args(args, _MEASURE_ARITY)
    if verb == "mass":
        return [_text(measure.cover_mass(_parse_probes(argv[0])))]
    if verb == "outer":
        return [_text(measure.outer_measure(
            measure.FiniteUnion.parse(argv[0])))]
    if verb == "subadd":
        report = measure.subadditivity_check(
            [measure.FiniteUnion.parse(tok) for tok in argv])
        return _lines(mu_union=report.mu_union, mu_sum=report.mu_sum,
                      slack=report.slack, holds=report.holds)
    if None in (args.set, args.delta, args.probes):
        raise ValueError("measure localnull needs --set, --delta and --probes")
    report = measure.local_null_check(
        measure.FiniteUnion.parse(args.set), exact(args.delta),
        _parse_probes(args.probes))
    return _lines(measure_zero=report.measure_zero,
                  violator=report.violator or "none") + [
        _row(f"probe {p.probe}", mu=p.mu_inside, threshold=p.threshold,
             hypothesis="ok" if p.hypothesis_holds else "fails")
        for p in report.probes]


def _cmd_diffreport(args) -> list[str]:
    f = parse_pl(args.fn, args.budget)
    report = analysis.differentiability_report(f, exact(args.mesh),
                                               cap=args.budget)
    return _lines(mesh=report.mesh, cells=len(report.cells),
                  all_cells_pass=report.all_cells_pass,
                  nondifferentiable=len(report.nondifferentiable)) + [
        _row("cell", lo=c.lo, hi=c.hi, witness=c.witness,
             derivative=c.derivative)
        for c in report.cells] + [
        _row("nondiff", x=p.x, dini=(p.values.lower_left,
                                     p.values.upper_left,
                                     p.values.lower_right,
                                     p.values.upper_right))
        for p in report.nondifferentiable]


def _cmd_hpcheck(args) -> list[str]:
    result = analysis.factorial_series_check(args.order)
    return _lines(order=result.order, holds=result.holds,
                  **{f"a_{result.order}": result.coefficients[-1]})


# -- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactlab",
        description="exact-arithmetic experiments: extraction pipeline, "
                    "best approximations, sequence coding, PL analysis")
    parser.add_argument("--emit", help="also write the report to this path: "
                        "its lines, or {\"report\": [lines]} for .json")
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
    p.add_argument("verb", choices=list(_CODE_ARITY))
    p.add_argument("args", nargs="*")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(handler=_cmd_code)

    p = sub.add_parser("sun", help="rising-sun decomposition / length bound")
    p.add_argument("--fn", required=True,
                   help="PL function: a file, 'worked3', or 'cantor:N'")
    p.add_argument("--c", default=None)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(handler=_cmd_sun)

    p = sub.add_parser("dini", help="four Dini derivatives at a point")
    p.add_argument("--fn", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(handler=_cmd_dini)

    p = sub.add_parser("measure", help="cover mass / outer measure checks")
    p.add_argument("verb", choices=list(_MEASURE_ARITY))
    p.add_argument("args", nargs="*")
    p.add_argument("--set", default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--probes", default=None)
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("diffreport", help="mesh-scale differentiability survey")
    p.add_argument("--fn", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(handler=_cmd_diffreport)

    p = sub.add_parser("hpcheck", help="factorial power-series identity check")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=_cmd_hpcheck)

    return parser


# the parser is fixed configuration, so one process builds it once; the
# handlers look library names up when they run
_PARSER = build_parser()


def _emit(path: str, lines: Sequence[str]) -> None:
    if path.endswith(".json"):
        payload = {"report": list(lines)}
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    else:
        Path(path).write_text("\n".join(lines) + "\n")


def run(argv: Optional[Sequence[str]] = None) -> tuple[int, list[str]]:
    """Parse and dispatch; returns (exit status, report lines)."""
    args = _PARSER.parse_args(argv)
    try:
        lines = args.handler(args)
        if args.emit:
            _emit(args.emit, lines)
    except BudgetError as err:
        return 3, [f"budget exhausted: {err}"]
    except VerificationError as err:
        return 4, [f"verification failed: {err}"]
    except (PreconditionError, ValueError, OSError) as err:
        return 2, [f"error: {err}"]
    return 0, lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    status, lines = run(argv)
    out = sys.stdout if status == 0 else sys.stderr
    for line in lines:
        print(line, file=out)
    return status


if __name__ == "__main__":
    sys.exit(main())
