"""Reference code the tests compare the engine against; nothing in `src/`
needs it.

- `interpolate` and `first_non_integer_positive`: the polynomial fit of the
  former locality route (`fit_oracle` in `test_induction.py`), and
  `int_family`, which writes its fitted `Poly` in the integer form of
  `LocalityCertificate.exponent_family`.
- `parse_ratfunc`: the inverse of `format_ratfunc`, for round trips.
- `central_charge_t` and `central_charge_super`: the two central charges of
  the coset identity.
- `hom_dim`: the multiplicity pairing of two fusion elements, the Frobenius
  oracle (`frobenius_dim` sums it over a window of summands).
- `sort_key`: the canonical label order, written out per kind from the
  named fields, against which the tuple labels' own order is checked.
- `restriction_sides`: the two routes of `restriction_oracle_check` summed
  as multiplicity maps, route two through `ring_mul`, against which the
  packed sides are checked.
- `label_at`, the four per-algebra dictionary functions and
  `cli_canonical_base`: the label of a factor template at summand r, the
  label dictionaries of svir-ext and osp-ext written out by hand, and the
  CLI's former base builder, the references for the dictionary and the
  canonical bases that `AlgebraObject` reads from its summand rule.
- `to_induced_by_rebuild`: the former `AlgebraObject.to_induced`, which
  rebuilt the canonical base from a base's constant slots and compared the
  two, against which the check on the flat indices is compared.
- `space_grades` and `grade_map_parts`: a graded space's grades sorted by
  Fraction comparison, and a dense matrix cut into weight blocks with
  per-grade column scans, beside its first entry that joins distinct
  weights, found by comparing the weights of every entry: the former
  `GradedSpace.grades` and `GradeMap.__init__`, against which the one-pass
  construction and its refusal are checked.
- `fubini_by_stages`: the former route of `fubini_compare`, the target map
  phi_(i,1) o (id (x) phi_jk) built at every stage (i, jk) and the
  comparison taken through `universal_map`, which checks their cocone.
- `inclusion_order`: the former inclusion order, the closure of the strict
  containments, each found by rank tests in both directions over all pairs.
- `inclusion_maps_by_solve`: the former cover maps of `inclusion_system`,
  extended to every strict pair: the coordinates of each smaller basis row
  in the larger basis, solved from the dense transposed system.
- `canonical_subspace_by_projection`: the former `canonical_subspace`, which
  projected every row onto each grade as a dense vector over the whole
  ambient dimension and reduced it there, against which the reduction on
  each grade's own columns is checked.
- `null_space_by_rref`: the former `linalg.null_space`, which read the
  kernel off the Fraction RREF of the column-reversed matrix, against which
  the kernel read off the integer elimination is checked.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from limfuse.catdata import (
    AffineVerma,
    CategorySpec,
    OspMod,
    Pair,
    SimpleLabel,
    SuperVir,
    VirasoroKp2,
    VirasoroT,
)
from limfuse.cli import ConfigError
from limfuse.dirlim import (DirectedPoset, DirectSystem, GradeMap, Limit, NotASubspace, Target, direct_limit, linalg,
                            tensor_system, universal_map)
from limfuse.exact import DivisionByZero, Poly, Rat, RatFunc
from limfuse.fusion import FusionElement
from limfuse.fusion.ring import _require_element, ring_mul
from limfuse.induction import restrict_truncated

_F = Fraction


def first_non_integer_positive(p: Poly) -> int | None:
    """Smallest r >= 1 with p(r) not an integer, or None if integer-valued.

    Integer values at deg(p)+1 consecutive integers force integrality on the
    whole integer lattice (write p in the binomial basis: the finite
    differences at those points are its integer coordinates).  So if p fails
    integrality anywhere on r >= 1, a witness occurs within the first
    deg(p)+2 points.
    """
    for r in range(1, max(p.degree, 0) + 3):
        if p.eval(r).denominator != 1:
            return r
    return None


def interpolate(points: Sequence[tuple[Union[int, Rat], Union[int, Rat]]]) -> Poly:
    """The polynomial of degree < n through n distinct-abscissa points.

    Newton form: divided differences give p = c0 + (x-x0)(c1 + (x-x1)(c2 +
    ...)), and Horner steps from the innermost bracket outwards expand it to
    monomial coefficients, O(n^2) Fraction operations in all.
    """
    xs = [Fraction(x) for x, _ in points]
    cs = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be distinct")
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - j])
    out: list[Rat] = []
    for k in range(n - 1, -1, -1):
        # out <- out * (x - x_k) + c_k, ascending coefficients
        xk = xs[k]
        out = [cs[k]] + out
        for i in range(len(out) - 1):
            out[i] -= xk * out[i + 1]
    return Poly(out)


def int_family(p: Poly) -> tuple[int, ...]:
    """p as (c0, c1, c2, den), (c0 + c1 r + c2 r^2)/den in lowest terms with
    den > 0, the form of `LocalityCertificate.exponent_family`; a p of higher
    degree gives a longer tuple, which no family equals."""
    coeffs = [Fraction(c) for c in p.coeffs] + [Fraction(0)] * (3 - len(p.coeffs))
    den = lcm(*(c.denominator for c in coeffs))
    return (*(int(c * den) for c in coeffs), den)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*\s*(?P<var1>[A-Za-z]\w*)\s*(?:\^\s*(?P<exp1>\d+))?)?
          | (?P<var2>[A-Za-z]\w*)\s*(?:\^\s*(?P<exp2>\d+))?
        )\s*""",
    re.VERBOSE,
)


def _parse_intpoly(text: str, var: Optional[str]) -> tuple[Poly, Optional[str]]:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        depth = 0
        for k, ch in enumerate(text):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and k < len(text) - 1:
                break
        else:
            text = text[1:-1].strip()
    if not text:
        raise ValueError("empty polynomial")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial syntax at {text[pos:]!r}")
        if not first and m.group("sign") is None:
            raise ValueError(f"missing +/- before {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        name = m.group("var1") or m.group("var2")
        if name is not None:
            if var is None:
                var = name
            elif name != var:
                raise ValueError(f"mixed variables {var!r} and {name!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        exp = 0
        if name is not None:
            exp_s = m.group("exp1") or m.group("exp2")
            exp = int(exp_s) if exp_s else 1
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
        pos = m.end()
        first = False
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Poly(out), var


def parse_ratfunc(text: str, var: Optional[str] = None) -> RatFunc:
    """Parse the canonical integer-coefficient fraction form.

    The variable letter is inferred when not supplied; a bare polynomial
    (no top-level '/') is accepted.
    """
    text = text.strip().replace("−", "-")
    depth = 0
    split = None
    for k, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "/" and depth == 0:
            if split is not None:
                raise ValueError("more than one top-level '/'")
            split = k
    if split is None:
        num, _ = _parse_intpoly(text, var)
        return RatFunc(num)
    num, var = _parse_intpoly(text[:split], var)
    den, _ = _parse_intpoly(text[split + 1 :], var)
    if den.is_zero():
        raise DivisionByZero("zero denominator in text form")
    return RatFunc(num, den)


def central_charge_t() -> RatFunc:
    """13 - 6t - 6/t, the Virasoro central charge in the t-parameter."""
    t = RatFunc.var()
    return 13 - 6 * t - 6 / t


def central_charge_super() -> RatFunc:
    """15/2 - 3s - 3/s, the N=1 central charge in the s-parameter."""
    s = RatFunc.var()
    return _F(15, 2) - 3 * s - 3 / s


def hom_dim(cat: CategorySpec, a: FusionElement, b: FusionElement) -> int:
    """Dimension of the Hom space between two semisimple decompositions:
    the multiplicity pairing over common simple summands."""
    _require_element(cat, a)
    _require_element(cat, b)
    return sum(ma * b.mult(x) for x, ma in a)


def sort_key(x) -> tuple:
    """(tag, *fields) for an index label, (5, key(left), key(right)) for a
    pair; tags 0-4 are Lt, Lk, V, S, M."""
    if isinstance(x, Pair):
        return (5, sort_key(x.left), sort_key(x.right))
    if isinstance(x, VirasoroT):
        return (0, x.r, x.s)
    if isinstance(x, VirasoroKp2):
        return (1, x.r, x.s)
    if isinstance(x, AffineVerma):
        return (2, x.r)
    if isinstance(x, SuperVir):
        return (3, x.n, x.m)
    if isinstance(x, OspMod):
        return (4, x.n)
    raise TypeError(f"not a label: {x!r}")


def _add_scaled(acc: dict, elem: FusionElement, k: int) -> None:
    for z, m in elem:
        acc[z] = acc.get(z, 0) + k * m


def restriction_sides(alg, base1, base2, truncate: int) -> tuple[dict, dict]:
    """The rule side and the monoidal side of the restriction oracle, each
    a plain multiplicity map: the induced rule on the induced labels, each
    summand restricted, against the restriction of every summand of
    `ring_mul` of the two bases."""
    rule_side: dict = {}
    prod_ind = alg.induced_category.fusion_of(alg.to_induced(base1), alg.to_induced(base2))
    for s_label, mult in prod_ind:
        _add_scaled(rule_side, restrict_truncated(alg, alg.from_induced(s_label), truncate), mult)
    monoidal_side: dict = {}
    for z, mult in ring_mul(alg.base_category, FusionElement.of(base1), FusionElement.of(base2)):
        _add_scaled(monoidal_side, restrict_truncated(alg, z, truncate), mult)
    return rule_side, monoidal_side


_LABEL_KINDS = {"virasoro-t": VirasoroT, "virasoro-kp2": VirasoroKp2, "kl-sl2": AffineVerma}


def label_at(factor, r: int) -> SimpleLabel:
    """The label of a factor template at summand r: its kind at its slots' values."""
    return _LABEL_KINDS[factor.kind](*(e.at(r) for e in factor.indices))


def svir_to_induced(base: SimpleLabel) -> SimpleLabel:
    if (
        isinstance(base, Pair)
        and isinstance(base.left, VirasoroKp2)
        and isinstance(base.right, VirasoroT)
        and base.left.s == 1
        and base.right.s == 1
    ):
        return SuperVir(base.left.r, base.right.r)
    raise ValueError(f"{base} is not a canonical first-row base")


def svir_from_induced(label: SimpleLabel) -> SimpleLabel:
    if isinstance(label, SuperVir):
        return Pair(VirasoroKp2(label.n, 1), VirasoroT(label.m, 1))
    raise ValueError(f"{label} is not a super-Virasoro label")


def osp_to_induced(base: SimpleLabel) -> SimpleLabel:
    if (
        isinstance(base, Pair)
        and isinstance(base.left, AffineVerma)
        and isinstance(base.right, VirasoroT)
        and base.left.r == 1
        and base.right.s == 1
    ):
        return OspMod(base.right.r)
    raise ValueError(f"{base} is not a canonical base of the form (unit, first-row)")


def osp_from_induced(label: SimpleLabel) -> SimpleLabel:
    if isinstance(label, OspMod):
        return Pair(AffineVerma(1), VirasoroT(label.n, 1))
    raise ValueError(f"{label} is not an osp label")


# algebra name -> (to_induced, from_induced)
DICTIONARIES = {"svir-ext": (svir_to_induced, svir_from_induced), "osp-ext": (osp_to_induced, osp_from_induced)}


def to_induced_by_rebuild(alg, base) -> SimpleLabel:
    """The induced simple of `base`, unmemoized: the canonical base with the
    base's constant slots as selectors is rebuilt and must equal it."""
    label_type = alg.induced_category.label_type
    flat = base.indices if isinstance(base, Pair) else ()
    values = [flat[k] for k, e in enumerate(alg.slots) if not e.a] if len(flat) == len(alg.slots) else None
    if values is None or alg.canonical_base(values) != base:
        raise ValueError(f"{base} is not a canonical base of {alg.name}")
    return label_type(*values)


def cli_canonical_base(alg, values: list[int | None]) -> SimpleLabel:
    """Fill the constant index slots of the summand family with the given
    selector values; growing slots take their first-stage value."""
    vals = [v for v in values if v is not None]
    factors = []
    pos = 0
    for f in alg.factors:
        idx = []
        for e in f.indices:
            if e.a == 0:
                if pos >= len(vals):
                    raise ConfigError(f"algebra {alg.name} needs {_selector_count(alg)} index selector(s)")
                idx.append(vals[pos])
                pos += 1
            else:
                idx.append(e.at(1))
        try:
            factors.append(type(label_at(f, 1))(*idx))
        except ValueError as e:
            raise ConfigError(str(e)) from None
    if pos != len(vals):
        raise ConfigError(f"algebra {alg.name} needs {_selector_count(alg)} index selector(s)")
    return Pair(factors[0], factors[1])


def _selector_count(alg) -> int:
    return sum(1 for e in alg.slots if e.a == 0)


def space_grades(space) -> dict[tuple[int, int], tuple[int, ...]]:
    """Basis indices per weight, weights ascending by Fraction comparison,
    keyed by (numerator, denominator)."""
    out: dict = {}
    for k, (_, w) in enumerate(space.basis):
        out.setdefault((w.numerator, w.denominator), (w, []))[1].append(k)
    return {key: tuple(ix) for key, (_, ix) in sorted(out.items(), key=lambda item: item[1][0])}


def grade_map_parts(source, target, matrix) -> tuple[dict, tuple | None]:
    """The weight blocks (integer rows over the least common denominator)
    of a dense matrix, one target grade at a time, and its first nonzero
    entry (row, col) in row-major order that joins distinct weights, or
    None, found by comparing the weights of every entry."""
    sgrades, blocks = space_grades(source), {}
    for key, rows in space_grades(target).items():
        cols = sgrades.get(key, ())
        if cols:
            values = [[matrix[r][c] for c in cols] for r in rows]
            den = lcm(1, *(v.denominator for row in values for v in row))
            blocks[key] = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in values), den
    joining = next(((r, c) for r in range(target.dim) for c in range(source.dim)
                    if matrix[r][c] and target.weight(r) != source.weight(c)), None)
    return blocks, joining


def fubini_by_stages(a, b, c) -> tuple[GradeMap, Limit, Limit]:
    """The comparison map, the multiple limit and the iterated limit of the
    triple, the comparison solved from a target map at every stage."""
    bc = tensor_system(b, c)
    lim_multi, lim_inner = direct_limit(tensor_system(a, bc)), direct_limit(bc)
    lim_iter = direct_limit(tensor_system(a, DirectSystem.constant(DirectedPoset.chain(1), lim_inner.space)))
    psis = {f"({i},{jk})": lim_iter.legs[f"({i},1)"] @ GradeMap.identity(a.space(i)).tensor(lim_inner.legs[jk])
            for i in a.poset.elements for jk in bc.poset.elements}
    return universal_map(lim_multi, Target(lim_iter.space, psis)), lim_multi, lim_iter


def inclusion_order(ambient, subspace_rows) -> DirectedPoset:
    """The poset of named canonical subspaces under inclusion, closed from
    the strict containments."""
    def contains(outer, inner) -> bool:
        return linalg.rank(outer + inner, ambient.dim) == linalg.rank(outer, ambient.dim)

    strict = [(i, j) for i, si in subspace_rows.items() for j, sj in subspace_rows.items()
              if i != j and contains(sj, si) and not contains(si, sj)]
    return DirectedPoset.from_covers(list(subspace_rows), strict)


def inclusion_maps_by_solve(incsys) -> dict:
    """The inclusion map S_i -> S_j for every strict pair i < j of the
    system's order, its columns solved from the transposed bases."""
    rows, spaces, dim = incsys.subspace_rows, incsys.system.spaces, incsys.ambient.dim
    maps = {}
    for i, j in incsys.system.poset.leq:
        if i != j:
            small, big = rows[i], rows[j]
            bt = tuple(tuple(row[c] for row in big) for c in range(dim))
            vt = tuple(tuple(row[c] for row in small) for c in range(dim))
            maps[(i, j)] = GradeMap(spaces[i], spaces[j], linalg.solve_matrix(bt, vt, len(big), len(small)))
    return maps


def canonical_subspace_by_projection(ambient, rows) -> tuple:
    """Canonical homogeneous basis of the span of `rows`: per grade, every
    row projected onto the grade's columns at full ambient length and row
    reduced over all columns.  NotASubspace as `canonical_subspace`."""
    dim, clean = ambient.dim, []
    for v in rows:
        v = tuple(Fraction(x) for x in v)
        if len(v) != dim:
            raise NotASubspace(f"vector of length {len(v)} in ambient of dimension {dim}")
        clean.append(v)
    comp_rows = []
    for cols in ambient.grades.values():
        proj = [tuple(x if c in cols else Fraction(0) for c, x in enumerate(v)) for v in clean]
        comp_rows.extend(linalg.rref(proj, dim)[0])
    if len(comp_rows) != linalg.rank(clean, dim):
        raise NotASubspace("span is not closed under the grading")
    return tuple(comp_rows)


def null_space_by_rref(rows, ncols: int) -> list:
    """Canonical RREF basis of the right kernel as (pivot, row) pairs, pivots
    ascending, from `linalg.rref` of the column-reversed matrix."""
    red, pivots = linalg.rref([tuple(reversed(r)) for r in rows], ncols)
    out = []
    for f in reversed(range(ncols)):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for m, p in enumerate(pivots):
                v[p] = -red[m][f]
            out.append((ncols - 1 - f, tuple(reversed(v))))
    return out
