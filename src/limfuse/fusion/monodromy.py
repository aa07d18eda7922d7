"""Monodromy through the balancing equation, transparency, and the
transparent-object scan.

The double braiding acts on a simple summand Z of the fusion of X and Y by
e^{2*pi*i*(h_Z - h_X - h_Y)}.  Exponents are computed and classified as
`WeightVec`s, differences of the fixed-basis weight vectors; an exponent
counts as trivial only when it is an integer constant (the parameter is
generic, so a parameter-dependent exponent cannot be an integer).  The
`exponent` of an entry or certificate is the same value as an exact
`RatFunc` of the category parameter: the view its `WeightVec` builds on
first access and keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from limfuse.catdata.labels import SimpleLabel
from limfuse.catdata.params import WeightVec
from limfuse.exact import RatFunc
from limfuse.fusion.ring import CategoryMismatch

if TYPE_CHECKING:
    from limfuse.catdata.category import CategorySpec

INTEGER = "integer"
NON_INTEGER_CONSTANT = "non-integer-constant"
PARAMETER_DEPENDENT = "parameter-dependent"


def exponent_status(e: WeightVec) -> str:
    c = e.as_constant()
    if c is None:
        return PARAMETER_DEPENDENT
    return INTEGER if c.denominator == 1 else NON_INTEGER_CONSTANT


@dataclass(frozen=True)
class MonodromyEntry:
    summand: SimpleLabel
    exponent_vec: WeightVec
    status: str

    @property
    def exponent(self) -> RatFunc:
        return self.exponent_vec.to_ratfunc()

    @property
    def phase(self) -> Optional[Fraction]:
        """The exponent mod 1, in [0, 1), when it is constant."""
        c = self.exponent_vec.as_constant()
        return c % 1 if c is not None else None

    @property
    def trivial(self) -> bool:
        return self.status == INTEGER


@dataclass(frozen=True)
class MonodromyReport:
    x: SimpleLabel
    y: SimpleLabel
    parameter: str
    entries: tuple[MonodromyEntry, ...]

    def is_trivial(self) -> bool:
        return all(e.trivial for e in self.entries)

    def to_json(self) -> list[dict]:
        out = []
        for e in self.entries:
            phase = e.phase
            out.append(
                {
                    "summand": str(e.summand),
                    "exponent": e.exponent_vec.format(self.parameter),
                    "status": e.status,
                    "phase": str(phase) if phase is not None else None,
                }
            )
        return out


def monodromy(cat: CategorySpec, x: SimpleLabel, y: SimpleLabel) -> MonodromyReport:
    """Per-summand exponents of the double braiding of x with y."""
    if not cat.contains(x) or not cat.contains(y):
        raise CategoryMismatch(f"labels must come from {cat.name}")
    hxy = cat.weight_vec(x) + cat.weight_vec(y)
    entries = []
    for z, _ in cat.fusion_of(x, y):
        e = cat.weight_vec(z) - hxy
        entries.append(MonodromyEntry(z, e, exponent_status(e)))
    return MonodromyReport(x, y, cat.base_parameter, tuple(entries))


@dataclass(frozen=True)
class TransparencyCertificate(MonodromyEntry):
    """Evidence of non-transparency: the entry with non-trivial monodromy
    against `witness`."""

    witness: SimpleLabel


def is_transparent(
    cat: CategorySpec, x: SimpleLabel, witnesses: Sequence[SimpleLabel]
) -> tuple[bool, Optional[TransparencyCertificate]]:
    """True when every monodromy exponent of x against every witness is an
    integer constant; otherwise the first certificate in scan order."""
    for w in witnesses:
        report = monodromy(cat, x, w)
        for e in report.entries:
            if not e.trivial:
                return False, TransparencyCertificate(e.summand, e.exponent_vec, e.status, witness=w)
    return True, None


def mueger_scan(cat: CategorySpec, index_bound: int, witness_bound: int) -> list[SimpleLabel]:
    """All labels with indices <= index_bound transparent against every label
    with indices <= witness_bound, in canonical order (the order of
    `labels_up_to`).
    """
    if index_bound < 1 or witness_bound < 1:
        raise ValueError("scan bounds must be >= 1")
    witnesses = cat.labels_up_to(witness_bound)
    return [c for c in cat.labels_up_to(index_bound) if is_transparent(cat, c, witnesses)[0]]
