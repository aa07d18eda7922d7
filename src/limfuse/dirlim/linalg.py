"""Exact row reduction and subspace arithmetic over the rationals.

Rows hold ints or Fractions; the graded maps pass their integer weight
blocks.  Elimination runs fraction-free, in one helper that `rref`, `rank`
and `null_space` share: rows are scaled to integers and updated by
cross-multiplication with per-row gcd reduction, so no rational arithmetic
happens inside the pivot loops.  `rref` normalizes the pivots back to
Fractions once at the end, producing the canonical reduced row echelon
form; `rank` counts pivots and builds no Fraction; `null_space` reads each
kernel vector off the integer rows and builds a Fraction only for a nonzero
entry.  Every zero entry of an output is one shared Fraction(0).

`injective_mod_p` certifies full column rank without it, by elimination of an
integer block modulo the prime P = 2^30 - 35: a minor nonzero mod P is a
nonzero integer, so rank mod P never exceeds rank over Q.  P is below 2^30,
so every residue is a one-digit CPython int and each multiply-and-reduce
stays on the small-int path.  A False answer proves nothing (a
rank-deficient block, or P divides each maximal minor); the caller then
reduces exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

Vec = tuple[Fraction, ...]
Rows = tuple[Vec, ...]

_ZERO, _ONE = Fraction(0), Fraction(1)


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


def _eliminate(rows: Sequence[Sequence[Fraction]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination: integer rows, the m-th nonzero
    at pivots[m] and zero in every other pivot column, zero rows dropped, and
    the pivot columns."""
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
    return mat[:prow], pivots


def rref(rows: Sequence[Sequence[Fraction]], ncols: int) -> tuple[Rows, tuple[int, ...]]:
    """Canonical RREF (unit pivots, zero rows dropped) and pivot columns."""
    mat, pivots = _eliminate(rows, ncols)
    red = tuple(tuple(Fraction(v, row[p]) if v else _ZERO for v in row) for row, p in zip(mat, pivots))
    return red, tuple(pivots)


def rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    return len(_eliminate(rows, ncols)[1])


P = (1 << 30) - 35  # the largest prime below 2^30


def injective_mod_p(rows: Sequence[Sequence[int]], ncols: int) -> bool:
    """True when the integer matrix has rank ncols modulo P, which proves
    rank ncols over Q; False proves nothing.  Entries are reduced mod P by
    the first elimination step that updates their row."""
    mat = list(rows)
    for col in range(ncols):
        for k, row in enumerate(mat):
            if row[col] % P:
                break
        else:
            return False
        pivot_row = mat.pop(k)
        inv, tail = pow(pivot_row[col], -1, P), pivot_row[col + 1:]
        for r, row in enumerate(mat):
            if f := row[col] * inv % P:
                mat[r] = [0] * (col + 1) + [(x - f * y) % P for x, y in zip(row[col + 1:], tail)]
    return True


def null_space(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[int, Vec]]:
    """Canonical RREF basis of the right kernel as (pivot, row) pairs, pivots
    ascending, from one integer elimination of the column-reversed matrix:
    the kernel vector of a free column f there is 1 at f and -row[f]/row[p]
    at the pivot p of each row, nonzero only at pivots left of f, so read
    back in order it is already reduced.  Only nonzero entries are built as
    Fractions."""
    mat, pivots = _eliminate([r[::-1] for r in rows], ncols)
    out = []
    for f in reversed(range(ncols)):
        if f not in pivots:
            v = [_ZERO] * ncols
            v[f] = _ONE
            for row, p in zip(mat, pivots):
                if row[f]:
                    v[p] = Fraction(-row[f], row[p])
            out.append((ncols - 1 - f, tuple(reversed(v))))
    return out


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
    x = [[_ZERO] * ncols_b for _ in range(ncols_a)]
    for m, p in enumerate(pivots):
        if p >= ncols_a:
            return None
        x[p] = list(red[m][ncols_a:])
    return tuple(tuple(r) for r in x)


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]], ncols_b: int) -> tuple[tuple, ...]:
    """Product of row-major matrices; a is n x m, b is m x ncols_b.

    Zero entries are skipped; on integer blocks every sum stays an int."""
    nonzero = [[(k, x) for k, x in enumerate(brow) if x] for brow in b]
    out = []
    for row in a:
        acc = [0] * ncols_b
        for v, nz in zip(row, nonzero):
            if v:
                for k, x in nz:
                    acc[k] += v * x
        out.append(tuple(acc))
    return tuple(out)
