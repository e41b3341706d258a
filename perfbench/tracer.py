"""Spans and call counters wrapped around exactlab's public functions from
outside the package.

``Tracer.install`` replaces each wrapped function everywhere the package
holds a reference to it: in the defining module or class, and in every
module that imported it by name (``extraction`` imports ``ratio_family``,
``_bracket_terms`` and ``is_approx_segment``; ``approx`` imports
``is_approx_segment``; ``cli`` imports ``best_approx`` and
``ratio_family``).  ``uninstall`` puts every original back.

Functions called hundreds of thousands of times per op (the ``qnum``
operators, ``RotationOracle.eval``, ``GrowableSet.element``) only get a
counter; the rest record spans.  A span is ``[name, start, end, parent
span index, op index]``, kept in memory and written out at the end.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# Timed functions the CLI reaches, as (module, qualified name) -> span name.
SPANS = {
    ("cli", "run"): "cli.run",
    ("extraction", "extract"): "extraction.extract",
    ("extraction", "bootstrap"): "extraction.bootstrap",
    ("approx", "best_approx"): "approx.best_approx",
    ("approx", "ratio_family"): "approx.ratio_family",
    ("approx", "_bracket_terms"): "approx.bracket_terms",
    ("dsets", "is_approx_segment"): "dsets.segment_check",
    ("dsets", "GrowableSet.prefix"): "dsets.prefix",
    ("dsets", "GrowableSet.materialized"): "dsets.prefix",
    ("coding", "cf_digits"): "coding.cf_digits",
    ("coding", "cf_encode"): "coding.cf_encode",
    ("coding", "cf_decode"): "coding.cf_decode",
    ("coding", "beta_encode"): "coding.beta_encode",
    ("coding", "interleave_encode"): "coding.interleave",
    ("coding", "interleave_row"): "coding.interleave",
    ("coding", "discrete_sum"): "coding.discrete_sum",
    ("plfun", "PLFunction.eval"): "plfun.query",
    ("plfun", "PLFunction.left_limit"): "plfun.query",
    ("plfun", "PLFunction.right_limit"): "plfun.query",
    ("plfun", "PLFunction.right_limit_or_value"): "plfun.query",
    ("plfun", "PLFunction.slope"): "plfun.query",
    ("plfun", "PLFunction.cantor_staircase"): "plfun.build",
    ("plfun", "PLFunction.add_linear"): "plfun.build",
    ("plfun", "PLFunction.is_nondecreasing"): "plfun.shape",
    ("plfun", "PLFunction.is_strictly_increasing"): "plfun.shape",
    ("analysis", "differentiability_report"): "analysis.diffreport",
    ("analysis", "dini"): "analysis.dini",
    ("analysis", "rising_sun"): "analysis.rising_sun",
    ("analysis", "sun_measure_bound"): "analysis.sun_bound",
    ("analysis", "factorial_series_check"): "analysis.factorial_series",
    ("measure", "subadditivity_check"): "measure.subadd",
    ("measure", "local_null_check"): "measure.local_null",
    ("measure", "cover_mass"): "measure.cover_mass",
    ("measure", "outer_measure"): "measure.outer_measure",
}

# extend_step is one span per pipeline step: it extends step n to n + 1.
EXTEND_STEP = ("extraction", "extend_step")

# Counted, not timed, as (module, qualified name) -> counter name.
COUNTERS = {
    ("qnum", "ExactNumber.compare"): "qnum.compare",
    ("qnum", "ExactNumber.floor"): "qnum.floor",
    ("dsets", "RotationOracle.eval"): "dsets.oracle_evals",
    ("dsets", "GrowableSet.element"): "dsets.element_calls",
    ("measure", "FiniteUnion.union"): "measure.union_calls",
}
COUNTERS.update({("qnum", f"ExactNumber.{name}"): "qnum.arith"
                 for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                              "__mul__", "__rmul__", "__truediv__",
                              "__rtruediv__", "inverse")})

# Approx functions that make one pass over their prefix argument D.
PREFIX_PASSES = {"approx.best_approx", "approx.ratio_family",
                 "approx.bracket_terms"}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "exactlab" or name.startswith("exactlab."))]


def _resolve(module: str, qualname: str):
    owner = sys.modules[f"exactlab.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the wrappers; collects spans, counts and grown indices."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []
        self._wrappers: set = set()
        self._growables: list = []

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        """Add the indices the op's growable sets materialized."""
        self.counts["dsets.indices_grown"] += sum(
            len(g._elems) for g in self._growables)
        self._growables.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        named = callable(name)
        prefix_pass = not named and name in PREFIX_PASSES

        def wrapped(*args, **kwargs):
            label = name(args, kwargs) if named else name
            if prefix_pass:
                counts["approx.prefix_indices"] += len(args[0])
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = [label, start, end, parent, self.op]
        return wrapped

    def _counter(self, fn, key):
        counts = self.counts
        # these calls are too frequent to pack *args where the arity is known
        arity = fn.__code__.co_argcount
        if arity == 1:
            def wrapped(a):
                counts[key] += 1
                return fn(a)
        elif arity == 2:
            def wrapped(a, b):
                counts[key] += 1
                return fn(a, b)
        else:
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        return wrapped

    def _growable_init(self, fn):
        growables = self._growables

        def wrapped(g, *args, **kwargs):
            fn(g, *args, **kwargs)
            growables.append(g)
        return wrapped

    @staticmethod
    def _step_name(args, kwargs):
        n = kwargs["n"] if "n" in kwargs else args[3]
        return f"extraction.step{n + 1}"

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr, make):
        """Wrap owner.attr and every other package reference to it."""
        raw = vars(owner)[attr]
        if raw in self._wrappers:
            return  # an alias of a function wrapped already (__radd__ = __add__)
        original = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapper = make(original)
        self._wrappers.add(wrapper)
        targets = [(owner, a) for a, v in vars(owner).items() if v is raw]
        targets += [(m, a) for m in _package_modules()
                    for a, v in vars(m).items() if v is original]
        for target, name in targets:
            value = vars(target)[name]
            self._patches.append((target, name, value))
            setattr(target, name,
                    classmethod(wrapper) if isinstance(value, classmethod) else wrapper)

    def install(self) -> None:
        for (module, qualname), name in SPANS.items():
            owner, attr = _resolve(module, qualname)
            self._replace(owner, attr, lambda fn, name=name: self._span(fn, name))
        owner, attr = _resolve(*EXTEND_STEP)
        self._replace(owner, attr, lambda fn: self._span(fn, self._step_name))
        for (module, qualname), key in COUNTERS.items():
            owner, attr = _resolve(module, qualname)
            self._replace(owner, attr, lambda fn, key=key: self._counter(fn, key))
        owner, attr = _resolve("dsets", "GrowableSet.__init__")
        self._replace(owner, attr, self._growable_init)

    def uninstall(self) -> None:
        while self._patches:
            target, name, value = self._patches.pop()
            setattr(target, name, value)
        self._wrappers.clear()

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, time in outermost spans of that name, self time)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        own = self.self_times()
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            if parent < 0 or self.spans[parent][0] != name:
                row[1] += end - start
            row[2] += own[sid]
        return {k: tuple(v) for k, v in out.items()}

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer (the span name's first component)."""
        out: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[name.split(".")[0]] += own
        return dict(out)
