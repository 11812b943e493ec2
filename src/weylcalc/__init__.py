"""weylcalc: desk-scale Weyl symbol calculus.

Sharp products of formal symbol series, hypoelliptic parametrices,
Balakrishnan complex-power expansions, the heat parametrix, and a
Hermite-basis spectral oracle for validating all of it.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyWarning,
    DomainViolation,
    InvalidInput,
    InvalidParameter,
    NumericalFailure,
    UnsupportedOperation,
    UnsupportedSymbol,
    WeylcalcError,
)
from .qrat import QC
from .symalg import PhasePoint, Registry, SymExpr
from .fsring import CutoffConfig, FormalSeries, canonical, change_quantization, cutoff_chi, resum_evaluate, sharp, sharp_power, unit_series
from .weights import (
    ConditionReport,
    WeightSequence,
    associated_function,
    check_conditions,
    load_weight_table,
    make_gevrey,
)

__all__ = [
    "QC",
    "Registry",
    "SymExpr",
    "PhasePoint",
    "FormalSeries",
    "CutoffConfig",
    "canonical",
    "unit_series",
    "sharp",
    "sharp_power",
    "change_quantization",
    "cutoff_chi",
    "resum_evaluate",
    "WeightSequence",
    "ConditionReport",
    "make_gevrey",
    "check_conditions",
    "associated_function",
    "load_weight_table",
    "WeylcalcError",
    "InvalidParameter",
    "InvalidInput",
    "DomainViolation",
    "UnsupportedOperation",
    "UnsupportedSymbol",
    "NumericalFailure",
    "AccuracyWarning",
]
