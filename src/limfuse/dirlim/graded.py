"""Graded vector spaces over Q and grade-preserving linear maps.

A GradedSpace is a finite list of basis vectors, each carrying a rational
weight.  Its grades (basis indices per weight, weights ordered as integers
over the lcm of their denominators) and positions depend only on its
sequence of weight keys, so they are computed once per sequence in a bounded
cache, and every space with that sequence points at the same grading; the
grading also keeps the blocks of its identity map once one is asked for.  A
tensor product's weights and grading depend only on its factors' gradings
and are computed once per pair of them, with one sum of Fractions per pair
of factor grades; the product space itself is kept per factor.  Spaces are
compared, hashed and printed by their basis alone.  A GradeMap
holds, per weight of both spaces, one block of integers over the least
common denominator, keyed by the weight's (numerator, denominator), which
hashes far faster than a Fraction.  Composition, equality, rank, kernel,
image, tensor products and factoring act block by block; `.matrix` is the
dense Fraction view, derived on demand.  Every GradeMap preserves the
grading: a dense input with a nonzero entry that joins distinct weights is
refused with ValueError.  A dense input is read into its blocks in one pass,
counting the nonzero entries it reads; an all-int input needs no common
denominator, and the input is searched for the joining entry only when it
has more nonzero entries than its blocks.

Kernels skip exact elimination where a block's shape decides: an absent or
all-zero block gives its unit vectors, and a nonzero block of one column, an
identity block or one of full column rank modulo the prime 2^30 - 35 gives
none (a maximal minor nonzero mod the prime is a nonzero integer, so the
rank over Q is full too; `linalg.injective_mod_p`).  A block with fewer rows
than columns has a kernel and goes straight to exact elimination, as does
any block not certified.  The leg kernel pass of `system` has the grades it
proved injective skipped unread, and learns which grades may add kernel
vectors.

These stand in for the graded modules that the limit constructions act on;
only kernels, images, sums, and tensor products of the underlying spaces are
ever used.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter
from typing import Container, Optional, Sequence, Union

from limfuse.dirlim import linalg
from limfuse.dirlim.linalg import _ONE, _ZERO, Rows

Weight = Fraction
GradeKey = tuple[int, int]
Block = tuple[tuple[tuple[int, ...], ...], int]


class _Grading:
    """Grades and positions of one sequence of weight keys, shared through
    `_grading` by every space with that sequence, and the blocks of its
    identity map once one is asked for."""

    __slots__ = ("grades", "positions", "identity")

    def __init__(self, keys: tuple[GradeKey, ...]):
        found: dict[GradeKey, list[int]] = {}
        for k, key in enumerate(keys):
            found.setdefault(key, []).append(k)
        if len(found) > 1:  # weights in order, as integers over one denominator
            scale = lcm(*(d for _, d in found))
            found = {key: found[key] for key in sorted(found, key=lambda key: key[0] * (scale // key[1]))}
        self.grades = {key: tuple(ix) for key, ix in found.items()}
        positions: list = [None] * len(keys)
        for key, ix in self.grades.items():
            for p, k in enumerate(ix):
                positions[k] = (key, p)
        self.positions, self.identity = tuple(positions), None


_grading = lru_cache(maxsize=256)(_Grading)


@lru_cache(maxsize=256)
def _product(a: _Grading, b: _Grading) -> tuple[tuple[Weight, ...], _Grading]:
    """Weights and grading of the tensor product of spaces graded by a and b,
    with one sum of Fractions per pair of factor grades."""
    sums = {(k1, k2): Fraction(*k1) + Fraction(*k2) for k1 in a.grades for k2 in b.grades}
    weights = tuple(sums[k1, k2] for k1, _ in a.positions for k2, _ in b.positions)
    return weights, _grading(tuple([w.as_integer_ratio() for w in weights]))


class GradedSpace:
    """Basis ids with rational weights.  `grades` (basis indices per weight,
    weights ascending, indices in basis order, keyed by the weight's
    (numerator, denominator)) and `positions` ((grade key, position within
    the grade) of each basis index) are those of the space's shared grading;
    equality and hashing see `basis` only."""

    __slots__ = ("basis", "grades", "positions", "_grading", "_tensor")

    def __init__(self, basis: tuple[tuple[str, Weight], ...]):
        self._set(basis, _grading(tuple([w.as_integer_ratio() for _, w in basis])))

    def _set(self, basis, grading: _Grading) -> None:
        if len({b for b, _ in basis}) != len(basis):
            raise ValueError("duplicate basis ids")
        self.basis, self.grades, self.positions = basis, grading.grades, grading.positions
        self._grading, self._tensor = grading, None

    def __eq__(self, other) -> bool:
        return self.basis == other.basis if other.__class__ is GradedSpace else NotImplemented

    def __hash__(self) -> int:
        return hash((self.basis,))

    def __repr__(self) -> str:
        return f"GradedSpace(basis={self.basis!r})"

    @staticmethod
    def make(basis: Sequence[tuple[str, Union[int, Fraction]]]) -> "GradedSpace":
        return GradedSpace(tuple((str(b), w if isinstance(w, Fraction) else Fraction(w)) for b, w in basis))

    @staticmethod
    def zero() -> "GradedSpace":
        return GradedSpace(())

    @staticmethod
    def std(dim: int, weight: Union[int, Fraction] = 0, prefix: str = "e") -> "GradedSpace":
        return GradedSpace(tuple((f"{prefix}{k+1}", Fraction(weight)) for k in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def weight(self, idx: int) -> Weight:
        return self.basis[idx][1]

    def graded_dims(self) -> dict[Weight, int]:
        return {Fraction(*key): len(ix) for key, ix in self.grades.items()}

    def tensor(self, other: "GradedSpace") -> "GradedSpace":
        """Tensor product: basis pairs, weights add, weights and grading
        shared per pair of factor gradings.  Kept per factor, so the tensor
        maps between the same spaces share their source and target."""
        if self._tensor is None:
            self._tensor = {}
        hit = self._tensor.get(id(other))
        if hit is None or hit[0] is not other:
            weights, grading = _product(self._grading, other._grading)
            ids = [f"({a})*({b})" for a, _ in self.basis for b, _ in other.basis]
            product = object.__new__(GradedSpace)
            product._set(tuple(zip(ids, weights)), grading)
            hit = self._tensor[id(other)] = (other, product)
        return hit[1]


_INT, _EXACT = {int}, {int, Fraction}


def _block_of(values: Sequence[Sequence[Union[int, Fraction]]]) -> Block:
    """Integer block and least common denominator of rational entries."""
    den = lcm(1, *(v.denominator for row in values for v in row))
    return tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in values), den


def _lowest_terms(rows: tuple[tuple[int, ...], ...], den: int) -> Block:
    if den == 1 or (g := gcd(den, *(v for row in rows for v in row))) == 1:
        return rows, den
    return tuple(tuple(v // g for v in row) for row in rows), den // g


def _zero_block(nrows: int, ncols: int) -> Block:
    return ((0,) * ncols,) * nrows, 1


@lru_cache(maxsize=64)
def _identity_block(n: int) -> Block:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n)), 1


def _common_den(blocks: dict[GradeKey, Block]) -> tuple[dict[GradeKey, tuple[tuple[int, ...], ...]], int]:
    """The blocks' integer rows over one common denominator."""
    den = lcm(1, *(d for _, d in blocks.values()))
    return {key: rows if d == den else tuple(tuple(v * (den // d) for v in row) for row in rows)
            for key, (rows, d) in blocks.items()}, den


def _spread(found: list[tuple[int, Sequence[int], Sequence[Fraction]]], n: int) -> Rows:
    """Rows given as (pivot, coordinates, values), at length n, by pivot."""
    out = []
    for _, coords, values in sorted(found, key=lambda entry: entry[0]):
        row = [_ZERO] * n
        for k, x in zip(coords, values):
            row[k] = x
        out.append(tuple(row))
    return tuple(out)


class GradeMap:
    """Linear map from a dense matrix, rows over the target basis and columns
    over the source basis, held as integer weight blocks."""

    __slots__ = ("source", "target", "_blocks", "_matrix", "_kernel")

    def __init__(self, source: GradedSpace, target: GradedSpace, matrix: Sequence[Sequence[Fraction]]):
        if len(matrix) != target.dim:
            raise ValueError(f"expected {target.dim} rows, got {len(matrix)}")
        for row in matrix:
            if len(row) != source.dim:
                raise ValueError(f"expected {source.dim} columns, got {len(row)}")
        types: set = set()
        for row in matrix:
            types.update(map(type, row))
        ints = types <= _INT
        src = source.grades
        blocks: dict[GradeKey, Block] = {}
        inside = 0  # nonzero entries read into blocks
        for key, rows in target.grades.items():
            cols = src.get(key)
            if cols:
                if len(cols) == 1:
                    c = cols[0]
                    values = [(matrix[r][c],) for r in rows]
                else:
                    get = itemgetter(*cols)
                    values = [get(matrix[r]) for r in rows]
                blocks[key] = (tuple(values), 1) if ints else _block_of(values)
                inside += sum([len(v) - v.count(0) for v in values])
        # a nonzero entry outside the blocks joins distinct weights
        if inside != sum([len(row) - row.count(0) for row in matrix]):
            keys = [key for key, _ in source.positions]
            r, c = next((r, c) for r, (key, _) in enumerate(target.positions)
                        for c, v in enumerate(matrix[r]) if v and keys[c] != key)
            raise ValueError(f"entry ({r}, {c}) joins source weight {source.weight(c)} "
                             f"to target weight {target.weight(r)}")
        self._fill(source, target, blocks)

    def _fill(self, source, target, blocks) -> None:
        self.source, self.target = source, target
        self._blocks = blocks
        self._matrix = self._kernel = None

    @classmethod
    def _of(cls, source: GradedSpace, target: GradedSpace, blocks: dict[GradeKey, Block]) -> "GradeMap":
        out = object.__new__(cls)
        out._fill(source, target, blocks)
        return out

    @staticmethod
    def make(source: GradedSpace, target: GradedSpace, rows: Sequence[Sequence[Union[int, Fraction]]]) -> "GradeMap":
        """The map of `rows`, entries converted to Fraction unless int or
        Fraction already."""
        return GradeMap(source, target, [
            r if isinstance(r, (list, tuple)) and {*map(type, r)} <= _EXACT
            else [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in r]
            for r in rows])

    @staticmethod
    def identity(space: GradedSpace) -> "GradeMap":
        grading = space._grading
        if grading.identity is None:
            grading.identity = {key: _identity_block(len(ix)) for key, ix in grading.grades.items()}
        return GradeMap._of(space, space, grading.identity)

    @staticmethod
    def zero(source: GradedSpace, target: GradedSpace) -> "GradeMap":
        src = source.grades
        blocks = {k: _zero_block(len(ix), len(src[k])) for k, ix in target.grades.items() if k in src}
        return GradeMap._of(source, target, blocks)

    @property
    def matrix(self) -> Rows:
        """Dense view: rows over the target basis, Fraction entries."""
        if self._matrix is None:
            dense = [[_ZERO] * self.source.dim for _ in range(self.target.dim)]
            for key, (block, den) in self._blocks.items():
                for r, brow in zip(self.target.grades[key], block):
                    for c, v in zip(self.source.grades[key], brow):
                        if v:
                            dense[r][c] = Fraction(v, den)
            self._matrix = tuple(map(tuple, dense))
        return self._matrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradeMap):
            return NotImplemented
        return self is other or ((self._blocks, self.source, self.target)
                                 == (other._blocks, other.source, other.target))

    def __hash__(self) -> int:
        return hash((self.source, self.target))

    def __repr__(self) -> str:
        return f"GradeMap(source={self.source!r}, target={self.target!r}, matrix={self.matrix!r})"

    def __matmul__(self, other: "GradeMap") -> "GradeMap":
        """Composition self o other, block by block."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        blocks: dict[GradeKey, Block] = {}
        for key, cols in other.source.grades.items():
            rows = self.target.grades.get(key)
            if rows:
                a, b = self._blocks.get(key), other._blocks.get(key)
                blocks[key] = (_zero_block(len(rows), len(cols)) if a is None or b is None
                               else _lowest_terms(linalg.matmul(a[0], b[0], len(cols)), a[1] * b[1]))
        return GradeMap._of(other.source, self.target, blocks)

    def rank(self) -> int:
        return self.source.dim - len(self.kernel())

    def kernel(self) -> Rows:
        """Canonical basis of the kernel, as vectors in source coordinates:
        the block kernels side by side, ordered by pivot; computed once.
        Only blocks whose shape or certificate does not decide are reduced."""
        if self._kernel is None:
            self._solve_kernel(())
        return self._kernel

    def _solve_kernel(self, known: Container[GradeKey]) -> list[GradeKey]:
        """Fill the kernel memo, taking each grade in `known` to add no kernel
        vector without reading its block; returns the grades that may add
        some (every other grade adds none)."""
        found, open_grades = [], []
        for key, cols in self.source.grades.items():
            if key in known:
                continue
            block = self._blocks.get(key)  # None: no target vectors of this weight
            if block is None or not any(map(any, block[0])):
                found += [(c, (c,), (_ONE,)) for c in cols]
            elif len(cols) > 1 and (len(block[0]) < len(cols) or (
                    block != _identity_block(len(cols)) and not linalg.injective_mod_p(block[0], len(cols)))):
                found += [(cols[p], cols, v) for p, v in linalg.null_space(block[0], len(cols))]
            else:
                continue
            open_grades.append(key)
        self._kernel = _spread(found, self.source.dim)
        return open_grades

    def image(self) -> Rows:
        """Canonical basis of the image, as vectors in target coordinates."""
        found = []
        for key, (block, _) in self._blocks.items():
            rows = self.target.grades[key]
            red, pivots = linalg.rref(list(zip(*block)), len(rows))
            found += [(rows[p], rows, v) for p, v in zip(pivots, red)]
        return _spread(found, self.target.dim)

    def tensor(self, other: "GradeMap") -> "GradeMap":
        """Kronecker product, matching GradedSpace.tensor basis ordering.

        Entry ((r1, r2), (c1, c2)) is a[r1][c1] * b[r2][c2], nonzero only when
        r1, c1 share a weight block of `self` and r2, c2 one of `other`, so
        each product block is filled from those pairs of factor blocks."""
        src, tgt = self.source.tensor(other.source), self.target.tensor(other.target)
        a, da = _common_den(self._blocks)
        b, db = _common_den(other._blocks)
        in1, in2 = self.source.positions, other.source.positions
        out1, out2 = self.target.positions, other.target.positions
        n2, m2 = other.source.dim, other.target.dim
        blocks: dict[GradeKey, Block] = {}
        for key, cols in src.grades.items():
            rows = tgt.grades.get(key)
            if not rows:
                continue
            # columns of this weight grouped by the pair of factor blocks they lie in
            groups: dict[tuple[GradeKey, GradeKey], list[tuple[int, int, int]]] = {}
            for j, c in enumerate(cols):
                (k1, q1), (k2, q2) = in1[c // n2], in2[c % n2]
                groups.setdefault((k1, k2), []).append((j, q1, q2))
            out = []
            for r in rows:
                (k1, p1), (k2, p2) = out1[r // m2], out2[r % m2]
                row = [0] * len(cols)
                group = groups.get((k1, k2))
                if group:
                    arow, brow = a[k1][p1], b[k2][p2]
                    for j, q1, q2 in group:
                        row[j] = arow[q1] * brow[q2]
                out.append(tuple(row))
            blocks[key] = _lowest_terms(tuple(out), da * db)
        return GradeMap._of(src, tgt, blocks)

    def factor_through(self, other: "GradeMap") -> Optional["GradeMap"]:
        """F from other.target to self.target with F o other = self, or None
        when there is none; unique when `other` is onto.  Each block solves
        F_w A_w = B_w, and an identity block A_w gives F_w = B_w at once."""
        if other.source != self.source:
            raise ValueError("factoring needs a common source")
        blocks: dict[GradeKey, Block] = {}
        for key, mid in other.target.grades.items():
            rows = self.target.grades.get(key)
            if not rows:
                continue
            a, b = other._blocks.get(key), self._blocks.get(key)
            if a is None:  # no source vectors of this weight
                blocks[key] = _zero_block(len(rows), len(mid))
            elif a == _identity_block(len(mid)):
                blocks[key] = b
            else:  # F A/da = B/db  <=>  db A^T F^T = da B^T
                (arows, da), (brows, db) = a, b
                x = linalg.solve_matrix([[db * v for v in col] for col in zip(*arows)],
                                        [[da * v for v in col] for col in zip(*brows)], len(mid), len(rows))
                if x is None:
                    return None
                blocks[key] = _block_of(list(zip(*x)))
        return GradeMap._of(other.target, self.target, blocks)
