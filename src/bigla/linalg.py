"""Exact elimination: one incremental echelon form, and small dense matrices.

Echelon works over CycloScalar, on sparse rows keyed by integer column.  No
command reaches it: it is the tests' elimination oracle for the equivariant
basis and the unitary2x2 coordinates, and the benchmark's layer trace
patches it by name.  Matrix holds the catalog representations; it never
inverts, since the one inverse the library needs, of an orthogonal group
element, is its transpose.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .scalars import ONE, ZERO, CycloScalar, as_scalar
from .sparse import add_scaled


class Echelon:
    """Incremental row echelon form over a field."""

    def __init__(self):
        self.pivots: dict[int, dict] = {}  # leading column -> normalized row

    def add_row(self, row: Mapping) -> Optional[int]:
        """Reduce a row against the pivots and insert what is left; returns
        its pivot column, or None if the row was dependent."""
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                inv = row[lead].inverse()
                self.pivots[lead] = {k: inv * v for k, v in row.items()}
                return lead
            add_scaled(row, piv, -row[lead])
        return None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def back_substitute(self):
        """Turn the echelon form into reduced echelon form in place."""
        for lead in sorted(self.pivots, reverse=True):
            prow = self.pivots[lead]
            for other_lead, row in self.pivots.items():
                if other_lead >= lead:
                    continue
                c = row.get(lead)
                if c:
                    add_scaled(row, prow, -c)

    def nullspace(self, ncols: int) -> list[dict]:
        """Basis of the solution space of (rows) x = 0 on columns 0..ncols-1.

        Returns sparse dicts col -> value with the free column set to one.
        """
        self.back_substitute()
        free = [c for c in range(ncols) if c not in self.pivots]
        basis = []
        for f in free:
            vec = {f: ONE}
            for lead, row in self.pivots.items():
                c = row.get(f)
                if c:
                    vec[lead] = -c
            basis.append(vec)
        return basis


class Matrix:
    """Small dense matrix over Q(zeta8) for the catalog representations."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if len({len(r) for r in self.rows}) > 1:
            raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "Matrix":
        return cls([[0] * n for _ in range(n)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(r1, r2, strict=True)]
                       for r1, r2 in zip(self.rows, other.rows, strict=True)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a - b for a, b in zip(r1, r2, strict=True)]
                       for r1, r2 in zip(self.rows, other.rows, strict=True)])

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        return Matrix([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shapes do not compose")
        cols = list(zip(*other.rows))
        return Matrix([[_dot(r, c) for c in cols] for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def __repr__(self):
        return "Matrix([" + ", ".join(
            "[" + ", ".join(x.pretty() for x in r) + "]" for r in self.rows) + "])"


def _dot(r, c) -> CycloScalar:
    out = ZERO
    for a, b in zip(r, c):
        if a and b:
            out = out + a * b
    return out
