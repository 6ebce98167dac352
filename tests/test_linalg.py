"""Exact linear algebra: elimination, kernels, characteristic polynomials."""

import random
from fractions import Fraction

from orbitforms import linalg


def F(x, y=None):
    return Fraction(x) if y is None else Fraction(x, y)


def test_charpoly_2x2():
    m = [[F(1), F(2)], [F(3), F(4)]]
    # det(lambda I - m) = lambda^2 - 5 lambda - 2
    assert linalg.charpoly(m) == [F(1), F(-5), F(-2)]


def test_charpoly_matches_roots_of_triangular():
    m = [[F(2), F(0), F(0)], [F(5), F(3), F(0)], [F(1), F(7), F(3)]]
    assert linalg.charpoly(m) == linalg.poly_from_roots([F(2), F(3), F(3)])


def test_charpoly_fraction_entries():
    m = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]
    cp = linalg.charpoly(m)
    # trace and determinant read off the coefficients
    assert cp[1] == -(F(1, 2) + F(1, 7))
    assert cp[2] == F(1, 2) * F(1, 7) - F(1, 3) * F(1, 5)


def test_charpoly_vs_bareiss_det_random():
    rng = random.Random(4)
    for _ in range(5):
        n = rng.randint(2, 5)
        m = [[F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        cp = linalg.charpoly(m)
        # det(M) = (-1)^n * charpoly(0); two independent exact routes
        assert linalg.det_bareiss(m) == (-1) ** n * cp[-1]


def test_nullspace_exact():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = linalg.nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in m)


def test_poly_eval_horner():
    cp = [F(1), F(-5), F(6)]   # (x-2)(x-3)
    assert linalg.poly_eval(cp, F(2)) == 0
    assert linalg.poly_eval(cp, F(3)) == 0
    assert linalg.poly_eval(cp, F(0)) == 6
