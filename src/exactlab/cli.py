"""Command-line entry point.

One invocation runs one job; all numbers cross the boundary as exact-number
strings, never as floats, and identical invocations print byte-identical
reports.  Exit statuses: 0 success, 2 precondition or parse error, 3 budget
exhaustion, 4 failed internal verification (the report then carries the
exact counterexample).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .dsets import DiscreteSet, FunctionOracle, GrowableSet, RotationOracle, TableOracle
from .errors import BudgetError, CapExceeded, PreconditionError, VerificationError
from .qnum import ExactNumber, exact


def _lazy(name: str):
    """The package's submodule ``name``, entered in sys.modules and bound on
    the package now, its body run on first attribute access: each command
    runs only the modules its handler reads."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# bound to the entries themselves: an import statement naming an entered
# module reads its __spec__, which would run the body at once
analysis = _lazy("analysis")
approx = _lazy("approx")
coding = _lazy("coding")
extraction = _lazy("extraction")
measure = _lazy("measure")
plfun = _lazy("plfun")


def __getattr__(name: str):
    """``best_approx`` and ``ratio_family``, read off ``approx`` as the
    handlers read them, so that importing cli does not run it."""
    if name in ("best_approx", "ratio_family"):
        return getattr(approx, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def parse_oracle(spec: str) -> FunctionOracle:
    spec = spec.strip()
    if spec.startswith("rot(") and spec.endswith(")"):
        return RotationOracle(exact(spec[4:-1]))
    if spec.startswith("table(") and spec.endswith(")"):
        path = Path(spec[6:-1])
        pairs = {}
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"table line needs 2 fields: {line!r}")
            key = exact(fields[0])
            if key in pairs:
                raise ValueError(f"table key {key} appears twice")
            pairs[key] = exact(fields[1])
        return TableOracle(pairs)
    raise ValueError(f"unknown oracle spec {spec!r}; use rot(...) or table(file)")


def parse_pl(spec: str, budget: int = 10 ** 6
             ) -> plfun.PLFunction | plfun.CantorStaircase:
    """A PL function by spec: a ``PLFunction``, or for ``cantor:N`` a
    ``CantorStaircase``, which builds no ``PLFunction`` for any command:
    ``sun`` and ``dini`` read it by self-similarity, and ``diffreport``
    reads its breakpoint abscissae alone.  Its 2^(N+1) breakpoints must
    not exceed the budget (CapExceeded, checked first)."""
    if budget < 0:
        raise ValueError(f"cap must be non-negative, got {budget}")
    spec = spec.strip()
    if spec == "worked3":
        return plfun.PLFunction.from_values(
            [(0, 0), (1, 2), (2, 1), (3, Fraction(3, 2))])
    if spec.startswith("cantor:"):
        depth = int(spec.split(":", 1)[1])
        # 2^(depth+1) > budget, decided without building the power
        if depth >= 0 and depth + 1 >= budget.bit_length():
            raise CapExceeded(f"2^{depth + 1} breakpoints exceed cap {budget}")
        return plfun.CantorStaircase(depth)
    return plfun.PLFunction.parse(Path(spec).read_text())


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def _parse_probes(text: str) -> list[measure.Interval]:
    return [measure.Interval.parse(token) for token in text.split()]


# -- report rendering --------------------------------------------------------


def _text(value) -> str:
    """One report value: a bool as true/false, a set as {a,b}, a list or
    tuple comma-joined, anything else by str."""
    if type(value) is ExactNumber:
        return str(value)
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
    """One line: the tag, then space-separated key=value fields, each as
    ``_lines`` writes it; an ExactNumber goes straight to str."""
    return " ".join([tag] + [
        f"{key}={str(value) if type(value) is ExactNumber else _text(value)}"
        for key, value in fields.items()])


def _remember(texts: dict[int, str], value) -> str:
    """Write the text of a value that many rows of one report share into
    ``texts``, under the value's id, and return it.  The row writers read
    ``texts.get(id(value)) or _remember(texts, value)``: no text is empty.
    ``texts`` lives only while the report holds its values, so no id
    outlives its value."""
    text = texts[id(value)] = str(value)
    return text


def _cell_rows(cells, texts: dict[int, str]) -> list[str]:
    """The ``cell`` rows of a survey, as ``_row`` writes them, one f-string
    each.  A cell's lo is the last cell's hi, so its text is the one just
    written, and its derivative is shared by the cells of its piece."""
    get = texts.get
    rows = []
    hi = hi_text = None
    for lo, cell_hi, witness, d in cells:
        lo_text = hi_text if lo is hi else str(lo)
        hi, hi_text = cell_hi, str(cell_hi)
        rows.append(f"cell lo={lo_text} hi={hi_text} witness={witness} "
                    f"derivative={get(id(d)) or _remember(texts, d)}")
    return rows


def _nondiff_rows(points, texts: dict[int, str]) -> list[str]:
    """The ``nondiff`` rows of a survey, as ``_row`` writes them, one
    f-string each; the Dini values are slopes of pieces, or infinities,
    shared among the rows."""
    get = texts.get
    return [f"nondiff x={x} dini="
            f"{get(id(v.lower_left)) or _remember(texts, v.lower_left)},"
            f"{get(id(v.upper_left)) or _remember(texts, v.upper_left)},"
            f"{get(id(v.lower_right)) or _remember(texts, v.lower_right)},"
            f"{get(id(v.upper_right)) or _remember(texts, v.upper_right)}"
            for x, v in points]


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
    state = approx.best_approx(D, oracle, exact(args.cut), bound)
    return _lines(cut=state.cut, bound=state.bound, L=state.L, R=state.R,
                  l=state.l, r=state.r)


def _cmd_yfam(args) -> list[str]:
    oracle = parse_oracle(args.oracle)
    d = exact(args.d)
    G = GrowableSet(cap=args.budget)
    D = G.prefix(d.floor())
    fam = approx.ratio_family(D, oracle, exact(args.a), exact(args.b), d)
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
        if args.budget < 0:
            raise ValueError(f"cap must be non-negative, got {args.budget}")
        if upto > args.budget:
            raise CapExceeded(f"{upto} digits exceed cap {args.budget}")
        return [_text(coding.cf_digits(exact(argv[0]), upto))]
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
    c = exact(args.c)
    result = analysis.sun_measure_bound(f, c)
    return _lines(c=c, mu=result.mu, bound=result.bound,
                  holds=result.holds) + [
        _row("component", start=part.start, end=part.end,
             scaled_width=part.scaled_width, rise=part.rise,
             check="ok" if part.holds else "VIOLATED")
        for part in result.per_component]


def _cmd_dini(args) -> list[str]:
    f = parse_pl(args.fn, args.budget)
    values = analysis.dini(f, exact(args.x))
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
    texts: dict[int, str] = {}
    return (_lines(mesh=report.mesh, cells=len(report.cells),
                   all_cells_pass=report.all_cells_pass,
                   nondifferentiable=len(report.nondifferentiable))
            + _cell_rows(report.cells, texts)
            + _nondiff_rows(report.nondifferentiable, texts))


# the most digits a report prints of one integer: the least limit an
# interpreter can set on int-to-text conversion is 640
_FULL_DIGITS = 640


def _digits(n: int) -> int:
    """The decimal digit count of n > 0, without writing n out."""
    # 0.30102999 < log10(2), so this starts at or below the count
    count = (n.bit_length() - 1) * 30102999 // 10 ** 8 + 1
    while n >= 10 ** count:
        count += 1
    return count


def _cmd_hpcheck(args) -> list[str]:
    if args.budget < 0:
        raise ValueError(f"cap must be non-negative, got {args.budget}")
    if args.order > args.budget:
        raise CapExceeded(f"order {args.order} exceeds cap {args.budget}")
    result = analysis.factorial_series_check(args.order)
    a = result.coefficients[-1]
    digits = _digits(a)
    if digits > _FULL_DIGITS:
        coefficient = {f"a_{result.order}_digits": digits}
    else:
        coefficient = {f"a_{result.order}": a}
    return _lines(order=result.order, holds=result.holds, **coefficient)


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
    p.add_argument("--budget", type=int, default=10 ** 6,
                   help="the most digits cf computes")
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
    p.add_argument("--budget", type=int, default=5000,
                   help="the largest order checked")
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
    """Run one job and print its report; a reader that stops early, as
    ``| head`` does, ends the printing but not the job's status."""
    status, lines = run(argv)
    out = sys.stdout if status == 0 else sys.stderr
    try:
        for line in lines:
            print(line, file=out)
        out.flush()
    except BrokenPipeError:
        # the interpreter flushes the stream again at exit, which would
        # raise once more: let that flush write to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
