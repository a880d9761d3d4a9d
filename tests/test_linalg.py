"""Exact elimination over Q(zeta8), and the small dense matrices."""

import random
from fractions import Fraction

import pytest

from bigla.linalg import Echelon, Matrix
from bigla.scalars import ZERO, CycloScalar, I, ONE


def _rand_scalar(rng):
    return CycloScalar(*(Fraction(rng.randint(-3, 3)) for _ in range(4)))


def _rand_rows(rng, nrows, ncols, density=0.6):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                c = _rand_scalar(rng)
                if c:
                    row[j] = c
        rows.append(row)
    return rows


def _echelon(rows):
    ech = Echelon()
    for row in rows:
        ech.add_row(row)
    return ech


def test_rank_bounds_and_duplicates():
    rng = random.Random(0)
    for _ in range(30):
        ncols = rng.randint(1, 6)
        rows = _rand_rows(rng, rng.randint(1, 6), ncols)
        r = _echelon(rows).rank
        assert 0 <= r <= min(len(rows), ncols)
        # stacking scaled copies never raises the rank
        doubled = rows + [{j: c * 2 for j, c in row.items()} for row in rows]
        assert _echelon(doubled).rank == r


def test_nullspace_annihilates():
    rng = random.Random(1)
    for _ in range(30):
        ncols = rng.randint(1, 6)
        rows = _rand_rows(rng, rng.randint(1, 5), ncols)
        ech = _echelon(rows)
        null = ech.nullspace(ncols)
        assert len(null) == ncols - ech.rank
        for sol in null:
            for row in rows:
                acc = ZERO
                for j, c in row.items():
                    acc = acc + c * sol.get(j, ZERO)
                assert not acc


def test_echelon_incremental():
    ech = Echelon()
    assert ech.add_row({0: ONE, 1: ONE}) is not None
    assert ech.add_row({0: ONE * 2, 1: ONE * 2}) is None  # dependent
    assert ech.rank == 1
    assert ech.add_row({1: I}) is not None
    assert ech.rank == 2


def test_matrix_algebra():
    m = Matrix([[1, 2], [3, 4]])
    ident = Matrix.identity(2)
    assert m @ ident == m
    assert m + Matrix.zero(2) == m
    assert (m - m) == Matrix.zero(2)
    assert m.transpose() == Matrix([[1, 3], [2, 4]])
    assert Matrix([[1, 2, 3]]).transpose() == Matrix([[1], [2], [3]])


@pytest.mark.parametrize("other", [Matrix([[1]]), Matrix([[1, 2, 0], [3, 4, 0]]),
                                   Matrix([[1, 2]]), Matrix.zero(3)])
def test_matrix_sum_refuses_a_shape_mismatch(other):
    # zipping rows and columns would truncate to the common shape
    m = Matrix([[1, 2], [3, 4]])
    for combine in (Matrix.__add__, Matrix.__sub__):
        with pytest.raises(ValueError):
            combine(m, other)
        with pytest.raises(ValueError):
            combine(other, m)
    with pytest.raises(ValueError):
        m @ Matrix([[1, 2, 3]])


def test_matrix_cyclo_entries():
    j = Matrix([[I, ZERO], [ZERO, I]])
    assert j @ j == Matrix.identity(2).scale(-1)
    assert j.transpose() == j
