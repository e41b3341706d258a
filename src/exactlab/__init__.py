"""Exact-arithmetic toolkit for discrete-set and monotone-function
experiments: quadratic-field numbers, unit-step segment calculus, a
best-approximation extraction pipeline, sequence coding, and exact
piecewise-linear analysis.

Submodules load on first use.  ``import exactlab`` runs no submodule;
reading ``exactlab.extract`` or ``exactlab.coding`` imports the module that
owns the name, once, and ``from exactlab import *`` loads them all.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("analysis", "approx", "coding", "dsets", "errors",
               "extraction", "measure", "orbit", "plfun", "qnum")

# public name -> the submodule that defines it
_OWNERS = {name: module for module, names in (
    ("qnum", "PHI SQRT2 SQRT3 ExactNumber exact parse_exact"),
    ("dsets", "CallableOracle ComposedOracle DiscreteSet FunctionOracle "
              "GrowableSet RotationOracle SegmentOrder TableOracle ValueSet "
              "image is_approx_segment is_nat_segment perturb segment_order "
              "segment_union"),
    ("approx", "ApproxState RatioFamily RatioTerm best_approx gap_ratio "
               "ratio_family stability_interval widen_interval"),
    ("extraction", "ExtractionTrace TraceStep approximate_target bootstrap "
                   "extend_step extract trace_report"),
    ("coding", "CodedReal beta beta_encode cantor_pair cantor_unpair "
               "cf_decode cf_digits cf_encode discrete_sum interleave_encode "
               "interleave_row primitive_recursion sum_commutes"),
    ("plfun", "Breakpoint PLFunction"),
    ("measure", "FiniteUnion Interval cover_mass local_null_check "
                "outer_measure subadditivity_check"),
    ("analysis", "NEG_INF POS_INF DiniValues differentiability_report dini "
                 "factorial_series_check jump_points monotone_inverse "
                 "rising_sun sun_measure_bound"),
) for name in names.split()}

__all__ = [*_OWNERS, *_SUBMODULES]


def __getattr__(name: str):
    """A public name or submodule, imported on first read and then kept as
    a module global, so later reads do not come here."""
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OWNERS:
        owner = importlib.import_module(f"{__name__}.{_OWNERS[name]}")
        value = getattr(owner, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
