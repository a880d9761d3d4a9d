"""Exact elimination helpers.

Works over any field whose elements support +, -, *, inverse()/division and
truthiness for zero tests, which here means CycloScalar or Fraction.  Rows
are sparse dicts keyed by integer column.  The incremental echelon form is
tuned for the nearly triangular systems PBW constraints produce: most rows
pivot immediately on their leading column.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .errors import Singular
from .scalars import CycloScalar, as_scalar
from .sparse import add_scaled


def _inv(x):
    if isinstance(x, CycloScalar):
        return x.inverse()
    return 1 / x


class Echelon:
    """Incremental row echelon form over a field."""

    def __init__(self):
        self.pivots: dict[int, dict] = {}  # leading column -> normalized row

    def reduce(self, row: Mapping) -> dict:
        """Fully reduce a row against the current pivots (row unchanged)."""
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row
            add_scaled(row, piv, -row[lead])
        return row

    def add_row(self, row: Mapping) -> Optional[int]:
        """Insert a row; returns its pivot column, or None if dependent."""
        red = self.reduce(row)
        if not red:
            return None
        lead = min(red)
        inv = _inv(red[lead])
        self.pivots[lead] = {k: inv * v for k, v in red.items()}
        return lead

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

    def nullspace(self, ncols: int, one) -> list[dict]:
        """Basis of the solution space of (rows) x = 0 on columns 0..ncols-1.

        Returns sparse dicts col -> value with the free column set to one.
        """
        self.back_substitute()
        free = [c for c in range(ncols) if c not in self.pivots]
        basis = []
        for f in free:
            vec = {f: one}
            for lead, row in self.pivots.items():
                c = row.get(f)
                if c:
                    vec[lead] = -c
            basis.append(vec)
        return basis


def rank_of_rows(rows: Sequence[Mapping]) -> int:
    ech = Echelon()
    for r in rows:
        ech.add_row(r)
    return ech.rank


def nullspace_of_rows(rows: Sequence[Mapping], ncols: int, one) -> list[dict]:
    ech = Echelon()
    for r in rows:
        ech.add_row(r)
    return ech.nullspace(ncols, one)


def solve_dense(matrix: Sequence[Sequence], rhs: Sequence):
    """Solve a square-or-tall exact system; raises Singular if inconsistent
    or underdetermined.  Entries are Fractions or CycloScalars."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        p = next((k for k in range(r, nrows) if aug[k][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = _inv(aug[r][c])
        aug[r] = [inv * x for x in aug[r]]
        for k in range(nrows):
            if k != r and aug[k][c]:
                f = aug[k][c]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    for k in range(r, nrows):
        if aug[k][ncols]:
            raise Singular("inconsistent linear system")
    if len(pivot_cols) < ncols:
        raise Singular("underdetermined linear system")
    sol = [None] * ncols
    for row_idx, c in enumerate(pivot_cols):
        sol[c] = aug[row_idx][ncols]
    return sol


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
    def zero(cls, n: int, m: Optional[int] = None) -> "Matrix":
        m = n if m is None else m
        return cls([[0] * m for _ in range(n)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

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

    def __hash__(self):
        return hash(self.rows)

    def inverse(self) -> "Matrix":
        n = self.nrows
        if n != self.ncols:
            raise Singular("only square matrices invert")
        aug = [list(self.rows[i]) + [CycloScalar.one() if i == j else CycloScalar.zero()
                                     for j in range(n)] for i in range(n)]
        for c in range(n):
            p = next((k for k in range(c, n) if aug[k][c]), None)
            if p is None:
                raise Singular("matrix is singular")
            aug[c], aug[p] = aug[p], aug[c]
            inv = aug[c][c].inverse()
            aug[c] = [inv * x for x in aug[c]]
            for k in range(n):
                if k != c and aug[k][c]:
                    f = aug[k][c]
                    aug[k] = [a - f * b for a, b in zip(aug[k], aug[c])]
        return Matrix([row[n:] for row in aug])

    def __repr__(self):
        return "Matrix([" + ", ".join(
            "[" + ", ".join(x.pretty() for x in r) + "]" for r in self.rows) + "])"


def _dot(r, c) -> CycloScalar:
    out = CycloScalar.zero()
    for a, b in zip(r, c):
        if a and b:
            out = out + a * b
    return out
