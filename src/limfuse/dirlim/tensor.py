"""Tensor products of direct systems and the iterated-vs-multiple limit
comparison.

The product of two systems lives over the product poset with Kronecker
transition maps.  For three systems the limit can be taken all at once or in
stages; because the tensor product of vector spaces is exact, the canonical
comparison map between the two results is always an isomorphism, and this
module computes that map explicitly, at the top stage where both limits
live, and checks it rank-by-grade.

A product is valid by construction when both factors are: the product of
directed posets is directed, its covers are a cover of one factor beside an
element of the other, each given one Kronecker map between the spaces
`GradedSpace.tensor` shares, and every square of covers commutes, both ways
round being f (x) g.  So `tensor_system` keeps an empty validation report on
the product of two valid factors, and leaves the product of an invalid factor
to the full check.  `fubini_compare` goes through `tensor_system` for its
iterated system too: the outer factor times the constant system of the
inner limit space on the one-stage chain.  Product posets and product
spaces are shared per pair of factors, so products over the same shapes
read the same derived data.
"""

from __future__ import annotations

from dataclasses import dataclass

from limfuse.dirlim.graded import GradeMap, Weight
from limfuse.dirlim.poset import DirectedPoset
from limfuse.dirlim.system import DirectSystem, Limit, ValidationReport, direct_limit, validate_system


def tensor_system(a: DirectSystem, b: DirectSystem) -> DirectSystem:
    """Componentwise tensor product over the product poset, given by its
    covers: a cover of one factor beside an element of the other.  Valid
    when both factors are, and then its report is empty from the start."""
    poset = a.poset.product(b.poset)
    spaces = {
        f"({i},{j})": a.space(i).tensor(b.space(j))
        for i in a.poset.elements
        for j in b.poset.elements
    }
    maps: dict[tuple[str, str], GradeMap] = {}
    # one identity per factor stage, shared by every cover beside it
    a_covers, b_covers = a.poset.covers(), b.poset.covers()
    ids_b = {j: GradeMap.identity(b.space(j)) for j in b.poset.elements} if a_covers else {}
    ids_a = {i: GradeMap.identity(a.space(i)) for i in a.poset.elements} if b_covers else {}
    for i, i2 in a_covers:
        fa = a.map(i, i2)
        for j, id_j in ids_b.items():
            maps[(f"({i},{j})", f"({i2},{j})")] = fa.tensor(id_j)
    for j, j2 in b_covers:
        fb = b.map(j, j2)
        for i, id_i in ids_a.items():
            maps[(f"({i},{j})", f"({i},{j2})")] = id_i.tensor(fb)
    product = DirectSystem(poset, spaces, maps)
    if validate_system(a).ok and validate_system(b).ok:
        product.__dict__["_validation"] = ValidationReport(())
    return product


@dataclass(frozen=True)
class FubiniReport:
    """Comparison of lim over IxJxK of W@(U@V) against lim over I of
    W @ (lim over JxK of U@V)."""

    multiple: Limit
    iterated: Limit
    comparison: GradeMap
    multiple_dims: dict[Weight, int]
    iterated_dims: dict[Weight, int]
    is_isomorphism: bool


def fubini_compare(a: DirectSystem, b: DirectSystem, c: DirectSystem) -> FubiniReport:
    """Build both limits and the canonical comparison map between them."""
    bc = tensor_system(b, c)
    multi = tensor_system(a, bc)
    lim_multi = direct_limit(multi)
    lim_inner = direct_limit(bc)

    lim_iter = direct_limit(tensor_system(a, DirectSystem.constant(DirectedPoset.chain(1), lim_inner.space)))
    top_a, top_bc = a.poset.greatest(), bc.poset.greatest()
    comparison = lim_iter.legs[f"({top_a},1)"] @ GradeMap.identity(a.space(top_a)).tensor(lim_inner.legs[top_bc])

    mdims = lim_multi.space.graded_dims()
    idims = lim_iter.space.graded_dims()
    iso = mdims == idims and comparison.rank() == lim_multi.space.dim
    return FubiniReport(lim_multi, lim_iter, comparison, mdims, idims, iso)
