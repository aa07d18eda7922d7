"""Graded vector spaces over Q and grade-preserving linear maps.

A GradedSpace is a finite list of basis vectors, each carrying a rational
weight; a GradeMap is a matrix whose entries connect only equal weights.
These stand in for the graded modules that the limit constructions act on;
only kernels, images, sums, and tensor products of the underlying spaces are
ever used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from limfuse.dirlim import linalg
from limfuse.dirlim.linalg import Rows, Vec

Weight = Fraction


@dataclass(frozen=True)
class GradedSpace:
    basis: tuple[tuple[str, Weight], ...]

    def __post_init__(self):
        ids = [b for b, _ in self.basis]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate basis ids")

    @staticmethod
    def make(basis: Sequence[tuple[str, Union[int, Fraction]]]) -> "GradedSpace":
        return GradedSpace(tuple((str(b), Fraction(w)) for b, w in basis))

    @staticmethod
    def zero() -> "GradedSpace":
        return GradedSpace(())

    @staticmethod
    def line(weight: Union[int, Fraction] = 0, bid: str = "e") -> "GradedSpace":
        return GradedSpace(((bid, Fraction(weight)),))

    @staticmethod
    def std(dim: int, weight: Union[int, Fraction] = 0, prefix: str = "e") -> "GradedSpace":
        return GradedSpace(tuple((f"{prefix}{k+1}", Fraction(weight)) for k in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(b for b, _ in self.basis)

    def weight(self, idx: int) -> Weight:
        return self.basis[idx][1]

    def weights(self) -> list[Weight]:
        return sorted({w for _, w in self.basis})

    def blocks(self) -> dict[Weight, list[int]]:
        """Basis indices per weight, weights ascending, indices in basis order."""
        out: dict[Weight, list[int]] = {}
        for w in self.weights():
            out[w] = [k for k, (_, wk) in enumerate(self.basis) if wk == w]
        return out

    def graded_dims(self) -> dict[Weight, int]:
        return {w: len(ix) for w, ix in self.blocks().items()}

    def tensor(self, other: "GradedSpace") -> "GradedSpace":
        """Tensor product: basis pairs, weights add."""
        return GradedSpace(
            tuple(
                (f"({a})*({b})", wa + wb)
                for a, wa in self.basis
                for b, wb in other.basis
            )
        )


@dataclass(frozen=True)
class GradeMap:
    """Linear map given by a matrix with rows over the target basis and
    columns over the source basis."""

    source: GradedSpace
    target: GradedSpace
    matrix: Rows

    def __post_init__(self):
        if len(self.matrix) != self.target.dim:
            raise ValueError(f"expected {self.target.dim} rows, got {len(self.matrix)}")
        for row in self.matrix:
            if len(row) != self.source.dim:
                raise ValueError(f"expected {self.source.dim} columns, got {len(row)}")

    @staticmethod
    def make(source: GradedSpace, target: GradedSpace, rows: Sequence[Sequence[Union[int, Fraction]]]) -> "GradeMap":
        return GradeMap(source, target, tuple(tuple(Fraction(v) for v in r) for r in rows))

    @staticmethod
    def identity(space: GradedSpace) -> "GradeMap":
        n = space.dim
        return GradeMap(
            space,
            space,
            tuple(tuple(Fraction(1 if r == c else 0) for c in range(n)) for r in range(n)),
        )

    @staticmethod
    def zero(source: GradedSpace, target: GradedSpace) -> "GradeMap":
        return GradeMap(source, target, tuple(tuple(Fraction(0) for _ in range(source.dim)) for _ in range(target.dim)))

    def __matmul__(self, other: "GradeMap") -> "GradeMap":
        """Composition self o other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        return GradeMap(other.source, self.target, linalg.matmul(self.matrix, other.matrix, other.source.dim))

    def column(self, c: int) -> Vec:
        return tuple(row[c] for row in self.matrix)

    def grade_violations(self) -> list[tuple[int, int]]:
        """(row, col) positions connecting distinct weights with a nonzero entry."""
        out = []
        for r, row in enumerate(self.matrix):
            wr = self.target.weight(r)
            for c, v in enumerate(row):
                if v != 0 and self.source.weight(c) != wr:
                    out.append((r, c))
        return out

    def is_grade_preserving(self) -> bool:
        return not self.grade_violations()

    def rank(self) -> int:
        if self.source.dim == 0 or self.target.dim == 0:
            return 0
        cols = tuple(self.column(c) for c in range(self.source.dim))
        return linalg.rank(cols, self.target.dim)

    def kernel(self) -> Rows:
        """Canonical basis of the kernel, as vectors in source coordinates."""
        if self.source.dim == 0:
            return ()
        if self.target.dim == 0:
            return linalg.span_rows(
                tuple(
                    tuple(Fraction(1 if k == c else 0) for k in range(self.source.dim))
                    for c in range(self.source.dim)
                ),
                self.source.dim,
            )
        return linalg.span_rows(linalg.kernel_basis(self.matrix, self.source.dim), self.source.dim)

    def image(self) -> Rows:
        """Canonical basis of the image, as vectors in target coordinates."""
        if self.source.dim == 0 or self.target.dim == 0:
            return ()
        cols = tuple(self.column(c) for c in range(self.source.dim))
        return linalg.span_rows(cols, self.target.dim)

    def tensor(self, other: "GradeMap") -> "GradeMap":
        """Kronecker product, matching GradedSpace.tensor basis ordering."""
        src = self.source.tensor(other.source)
        tgt = self.target.tensor(other.target)
        rows = []
        for r1 in range(self.target.dim):
            row1 = self.matrix[r1]
            for r2 in range(other.target.dim):
                row2 = other.matrix[r2]
                rows.append(tuple(a * b for a in row1 for b in row2))
        return GradeMap(src, tgt, tuple(rows))
