"""Exact row reduction and subspace arithmetic over the rationals.

Elimination runs fraction-free: rows are scaled to integers and updated by
cross-multiplication with per-row gcd reduction, so no rational arithmetic
happens inside the pivot loops.  Pivot normalization back to Fractions occurs
once at the end, producing the canonical reduced row echelon form.  Matrix
products are likewise summed on integers and divided back once per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Vec = tuple[Fraction, ...]
Rows = tuple[Vec, ...]


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        scale = 1
        for c in row:
            d = c.denominator
            scale = scale * d // gcd(scale, d)
        out.append([c.numerator * (scale // c.denominator) for c in row])
    return out


def _reduce_content(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return [v // g for v in row]
    return row


def rref(rows: Sequence[Sequence[Fraction]], ncols: int) -> tuple[Rows, tuple[int, ...]]:
    """Canonical RREF (unit pivots, zero rows dropped) and pivot columns."""
    mat = [_reduce_content(r) for r in _int_rows(rows)]
    nrows = len(mat)
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, nrows):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[prow], mat[sel] = mat[sel], mat[prow]
        pivot_row = mat[prow]
        pv = pivot_row[col]
        for r in range(nrows):
            row = mat[r]
            if r == prow or row[col] == 0:
                continue
            rv = row[col]
            g = gcd(pv, rv)
            a, b = pv // g, rv // g
            mat[r] = _reduce_content([x * a - y * b for x, y in zip(row, pivot_row)])
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    out = []
    for m, col in enumerate(pivots):
        pv = mat[m][col]
        out.append(tuple(Fraction(v, pv) for v in mat[m]))
    return tuple(out), tuple(pivots)


def rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> Rows:
    """Basis of the right kernel (one vector per free column)."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    out = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for m, p in enumerate(pivots):
            v[p] = -red[m][c]
        out.append(tuple(v))
    return tuple(out)


def reduce_against(red: Rows, pivots: Sequence[int], v: Sequence[Fraction]) -> Vec:
    """Remainder of v modulo the row space given in canonical RREF."""
    out = list(v)
    for m, p in enumerate(pivots):
        c = out[p]
        if c != 0:
            row = red[m]
            out = [x - c * y for x, y in zip(out, row)]
    return tuple(out)


def in_row_space(red: Rows, pivots: Sequence[int], v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in reduce_against(red, pivots, v))


def solve_matrix(
    a_rows: Sequence[Sequence[Fraction]],
    b_rows: Sequence[Sequence[Fraction]],
    ncols_a: int,
    ncols_b: int,
) -> Optional[Rows]:
    """Solve A X = B exactly; None when inconsistent.

    Free variables (if any) are set to zero, so the result is deterministic;
    callers needing uniqueness check the rank themselves.
    """
    aug = [tuple(ra) + tuple(rb) for ra, rb in zip(a_rows, b_rows)]
    red, pivots = rref(aug, ncols_a + ncols_b)
    x = [[Fraction(0)] * ncols_b for _ in range(ncols_a)]
    for m, p in enumerate(pivots):
        if p >= ncols_a:
            return None
        x[p] = list(red[m][ncols_a:])
    return tuple(tuple(r) for r in x)


def matmul(a: Rows, b: Rows, ncols_b: int) -> Rows:
    """Product of row-major matrices; a is n x m, b is m x ncols_b.

    The products are summed as integers: b is scaled by the lcm of its
    denominators and each row of a by the lcm of its own, and every entry is
    divided back once at the end."""
    db = 1
    for brow in b:
        for x in brow:
            if x.denominator != 1:
                db = lcm(db, x.denominator)
    nonzero = [[(k, x.numerator * (db // x.denominator)) for k, x in enumerate(brow) if x] for brow in b]
    out = []
    for row in a:
        da = 1
        for v in row:
            if v.denominator != 1:
                da = lcm(da, v.denominator)
        acc = [0] * ncols_b
        for c, v in enumerate(row):
            if v:
                vi = v.numerator * (da // v.denominator)
                for k, x in nonzero[c]:
                    acc[k] += vi * x
        den = da * db
        if den == 1:
            out.append(tuple(map(Fraction, acc)))
        else:
            out.append(tuple(Fraction(s, den) for s in acc))
    return tuple(out)


def span_rows(rows: Sequence[Sequence[Fraction]], ncols: int) -> Rows:
    """Canonical basis (RREF rows) of the row space; the subspace fingerprint."""
    return rref(rows, ncols)[0]


def span_contains(outer: Sequence[Sequence[Fraction]], inner: Sequence[Sequence[Fraction]], ncols: int) -> bool:
    red, pivots = rref(outer, ncols)
    return all(in_row_space(red, pivots, v) for v in inner)
