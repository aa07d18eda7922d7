"""Direct systems of graded vector spaces, their limits, and tensor products.

The JSON form and the self-test (`system_to_json`, `system_from_json`,
`run_selftest`, `SelftestResult`) are imported on first access, so a process
that only builds systems loads neither them nor the exact layer.
"""

import importlib

from limfuse.dirlim.poset import DirectedPoset
from limfuse.dirlim.graded import GradedSpace, GradeMap
from limfuse.dirlim.system import (
    DirectSystem,
    IncompatibleTarget,
    InvalidSystem,
    Limit,
    Target,
    UnknownElement,
    ValidationReport,
    direct_limit,
    kernel_of_leg,
    kernel_union,
    universal_map,
    validate_system,
)
from limfuse.dirlim.inclusion import (
    InclusionSystem,
    NotASubspace,
    QMapResult,
    canonical_subspace,
    inclusion_system,
    q_map,
)
from limfuse.dirlim.tensor import FubiniReport, fubini_compare, tensor_system

_LAZY = {
    "system_to_json": "serialize",
    "system_from_json": "serialize",
    "SelftestResult": "selftest",
    "run_selftest": "selftest",
}

__all__ = [
    "DirectedPoset",
    "GradedSpace",
    "GradeMap",
    "DirectSystem",
    "Limit",
    "Target",
    "ValidationReport",
    "InvalidSystem",
    "IncompatibleTarget",
    "UnknownElement",
    "NotASubspace",
    "InclusionSystem",
    "QMapResult",
    "FubiniReport",
    "SelftestResult",
    "validate_system",
    "direct_limit",
    "universal_map",
    "kernel_of_leg",
    "kernel_union",
    "canonical_subspace",
    "inclusion_system",
    "q_map",
    "tensor_system",
    "fubini_compare",
    "system_to_json",
    "system_from_json",
    "run_selftest",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value
