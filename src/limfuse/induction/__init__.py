"""Algebra objects, induction, locality, and induced fusion."""

from limfuse.induction.algebra import (
    AffineExpr,
    AlgebraObject,
    FactorTemplate,
    algebra_by_name,
    algebra_from_json,
    osp_extension,
    parse_affine,
    svir_extension,
)
from limfuse.induction.induced import InducedModule, TruncationTooSmall, induce, min_weight_summand
from limfuse.induction.locality import LOCAL, NON_LOCAL, LocalityCertificate, locality
from limfuse.induction.frobenius import frobenius_dim
from limfuse.induction.fused import (
    NotLocal,
    induced_fusion,
    restrict_truncated,
    restriction_oracle_check,
)

__all__ = [
    "AlgebraObject",
    "FactorTemplate",
    "AffineExpr",
    "parse_affine",
    "svir_extension",
    "osp_extension",
    "algebra_by_name",
    "algebra_from_json",
    "InducedModule",
    "induce",
    "min_weight_summand",
    "TruncationTooSmall",
    "LocalityCertificate",
    "locality",
    "LOCAL",
    "NON_LOCAL",
    "frobenius_dim",
    "NotLocal",
    "induced_fusion",
    "restrict_truncated",
    "restriction_oracle_check",
]
