"""Fusion-ring arithmetic, monodromy, and transparency scans."""

from limfuse.fusion.element import FusionElement
from limfuse.fusion.ring import CategoryMismatch, ring_mul
from limfuse.fusion.monodromy import (
    INTEGER,
    NON_INTEGER_CONSTANT,
    PARAMETER_DEPENDENT,
    MonodromyEntry,
    MonodromyReport,
    TransparencyCertificate,
    exponent_status,
    is_transparent,
    monodromy,
    mueger_scan,
)

__all__ = [
    "FusionElement",
    "CategoryMismatch",
    "ring_mul",
    "MonodromyEntry",
    "MonodromyReport",
    "TransparencyCertificate",
    "monodromy",
    "exponent_status",
    "is_transparent",
    "mueger_scan",
    "INTEGER",
    "NON_INTEGER_CONSTANT",
    "PARAMETER_DEPENDENT",
]
