"""Exact elimination over Q(zeta8)."""

import random
from fractions import Fraction

import pytest

from bigla.errors import Singular
from bigla.linalg import Echelon, Matrix, solve_dense
from bigla.scalars import CycloScalar, I, ONE


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
                acc = CycloScalar.zero()
                for j, c in row.items():
                    acc = acc + c * sol.get(j, CycloScalar.zero())
                assert not acc


def test_echelon_incremental():
    ech = Echelon()
    assert ech.add_row({0: ONE, 1: ONE}) is not None
    assert ech.add_row({0: ONE * 2, 1: ONE * 2}) is None  # dependent
    assert ech.rank == 1
    assert ech.add_row({1: I}) is not None
    assert ech.rank == 2


def test_solve_dense():
    a = [[ONE, ONE], [ONE, -ONE]]
    b = [ONE * 3, ONE]
    x = solve_dense(a, b)
    assert x == [ONE * 2, ONE]
    # tall consistent system
    a = [[ONE, CycloScalar.zero()], [CycloScalar.zero(), ONE], [ONE, ONE]]
    x = solve_dense(a, [ONE, I, ONE + I])
    assert x == [ONE, I]
    with pytest.raises(Singular):
        solve_dense([[ONE, ONE], [ONE, ONE]], [ONE, CycloScalar.zero()])
    with pytest.raises(Singular):
        # underdetermined: a 1x2 system has no unique solution
        solve_dense([[ONE, ONE]], [ONE])
    # rational entries, as the catalog passes them; a zero coordinate stays
    # a Fraction
    a = [[Fraction(1, 2), Fraction(0), Fraction(1)],
         [Fraction(0), Fraction(3), Fraction(0)],
         [Fraction(1), Fraction(1), Fraction(0)],
         [Fraction(3, 2), Fraction(4), Fraction(1)]]
    x = solve_dense(a, [Fraction(1, 2), Fraction(3), Fraction(1), Fraction(9, 2)])
    assert x == [Fraction(0), Fraction(1), Fraction(1, 2)]
    assert all(type(v) is Fraction for v in x)
    with pytest.raises(Singular, match="inconsistent"):
        solve_dense(a, [Fraction(1, 2), Fraction(3), Fraction(1), Fraction(0)])
    with pytest.raises(ValueError):
        # one right-hand side per row
        solve_dense(a, [Fraction(1, 2), Fraction(3)])


def test_matrix_algebra():
    m = Matrix([[1, 2], [3, 4]])
    ident = Matrix.identity(2)
    assert m @ ident == m
    assert m + Matrix.zero(2) == m
    assert (m - m) == Matrix.zero(2)
    inv = m.inverse()
    assert m @ inv == ident
    assert inv @ m == ident
    with pytest.raises(Singular):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_matrix_cyclo_entries():
    j = Matrix([[I, CycloScalar.zero()], [CycloScalar.zero(), I]])
    assert j @ j == Matrix.identity(2).scale(-1)
    assert j.inverse() == j.scale(-1)


def test_matrix_random_inverse():
    rng = random.Random(2)
    found = 0
    while found < 15:
        m = Matrix([[_rand_scalar(rng) for _ in range(3)] for _ in range(3)])
        try:
            inv = m.inverse()
        except Singular:
            continue
        assert m @ inv == Matrix.identity(3)
        found += 1
