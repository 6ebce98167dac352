"""Exact linear algebra: elimination, kernels, characteristic polynomials."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from orbitforms import linalg
from reference_kernels import rref as reference_rref
from reference_linalg import det_bareiss, poly_eval, poly_from_roots


def F(x, y=None):
    return Fraction(x) if y is None else Fraction(x, y)


def test_charpoly_2x2():
    m = [[F(1), F(2)], [F(3), F(4)]]
    # det(lambda I - m) = lambda^2 - 5 lambda - 2
    assert linalg.charpoly(m) == [F(1), F(-5), F(-2)]


def test_charpoly_matches_roots_of_triangular():
    m = [[F(2), F(0), F(0)], [F(5), F(3), F(0)], [F(1), F(7), F(3)]]
    assert linalg.charpoly(m) == poly_from_roots([F(2), F(3), F(3)])


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
        assert det_bareiss(m) == (-1) ** n * cp[-1]


def test_nullspace_exact():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = linalg.nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in m)


def test_poly_eval_horner():
    cp = [F(1), F(-5), F(6)]   # (x-2)(x-3)
    assert poly_eval(cp, F(2)) == 0
    assert poly_eval(cp, F(3)) == 0
    assert poly_eval(cp, F(0)) == 6


# -- the sparse rref against the dense Fraction loop it replaced --------------

ENTRIES = st.sampled_from([F(0)] * 6 + [F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(5, 7)])


@st.composite
def matrices(draw):
    """Sparse or dense, often rank-deficient: some rows combine earlier ones."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 8))
    entry = draw(st.sampled_from([ENTRIES, st.fractions(-5, 5, max_denominator=9)]))
    m = []
    for _ in range(rows):
        if m and draw(st.booleans()):
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            s = draw(st.fractions(-3, 3, max_denominator=4))
            m.append([x + s * y for x, y in zip(a, b)])
        else:
            m.append([draw(entry) for _ in range(cols)])
    return m


@settings(max_examples=300, deadline=None)
@given(m=matrices(), data=st.data())
def test_rref_matches_the_dense_loop(m, data):
    original = [row[:] for row in m]
    assert linalg.rref(m) == reference_rref(m)
    cols = len(m[0]) if m else 1
    ncols = data.draw(st.integers(0, cols), label="ncols")
    assert linalg.rref(m, ncols) == reference_rref(m, ncols)
    assert m == original   # the input is not touched
