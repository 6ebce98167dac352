"""Exact linear algebra: elimination, kernels, characteristic polynomials."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitforms import linalg
from reference_kernels import rref as reference_rref
from reference_linalg import (dense_kernel_basis, dense_nullspace, dense_vector,
                              det_bareiss, poly_eval, poly_from_roots)


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


@settings(max_examples=300, deadline=None)
@given(m=matrices())
def test_nullspace_matches_the_dense_loop(m):
    original = [row[:] for row in m]
    assert linalg.nullspace(m) == (dense_nullspace(m) if m else [])
    assert m == original


# -- the int kernel reduction against the dense rref it replaced ---------------

@st.composite
def solution_sets(draw):
    """(n, sparse int vectors of length n): some all zero, some combining
    earlier ones, so that the set is often dependent."""
    n = draw(st.integers(1, 8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 6, 35, -1024])
    vectors = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["new", "new", "zero", "combination"]))
        if kind == "combination" and vectors:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            v = {i: s * a.get(i, 0) + t * b.get(i, 0) for i in range(n)}
        elif kind == "zero":
            v = {}
        else:
            v = {i: draw(entry) for i in range(n)}
        vectors.append({i: x for i, x in v.items() if x})
    return n, vectors


@settings(max_examples=400, deadline=None)
@given(case=solution_sets())
def test_int_kernel_reduction_matches_the_dense_rref(case):
    n, vectors = case
    want = dense_kernel_basis([[F(v.get(i, 0)) for i in range(n)] for v in vectors])
    got = linalg._reduce_by_last_index([dict(v) for v in vectors])
    assert [dense_vector(v, n) for v in got] == want
    for nums, den in got:      # canonical: no stored zero, no common factor
        assert den > 0 and nums[max(nums)] == den
        assert all(nums.values()) and math.gcd(*nums.values()) == 1


# -- certified real roots of integer polynomials ------------------------------

BITS = 230


def times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def planted(roots, extra=(1,)):
    """extra * prod (q x - p)^m over roots = [(p/q, m), ...], as int
    coefficients in descending powers."""
    coeffs = list(extra)
    for r, m in roots:
        for _ in range(m):
            coeffs = times(coeffs, [r.denominator, -r.numerator])
    return coeffs


def assert_certified(coeffs, roots):
    """real_roots finds exactly the planted (root, multiplicity) pairs, in
    ascending order, each in a bracket at most one 2^-BITS step wide that
    the sign-change certificate accepts."""
    found = linalg.real_roots(coeffs, BITS)
    assert [m for _, _, m in found] == [m for _, m in sorted(roots)]
    for (lo, hi, _), (r, _) in zip(found, sorted(roots)):
        assert 0 <= hi - lo <= 1
        assert F(lo, 2 ** BITS) <= r <= F(hi, 2 ** BITS)
        assert (lo == hi) == ((r * 2 ** BITS).denominator == 1)
    return found


def test_real_roots_of_distinct_rationals():
    roots = [(F(1), 1), (F(2), 1), (F(3), 1), (F(7, 3), 1), (F(-2, 5), 1), (F(0), 1)]
    found = assert_certified(planted(roots), roots)
    assert found[1][0] == found[1][1] == 0      # the root 0 is exact


def square_free_factors(f):
    """Yun's square-free factors of f, from gcd(f, f')."""
    return linalg._yun(f, linalg._gcd(f, linalg._derivative(f)))


def test_real_roots_closer_than_the_isolation_grid():
    for r in (F(1), F(1, 3)):     # the first on the grid, the second not
        close = [(r, 1), (r + F(1, 2 ** 60), 1), (F(-3), 1)]
        assert_certified(planted(close), close)
        with pytest.raises(ArithmeticError):
            linalg.real_roots(planted(close), 40)


def test_real_roots_with_multiplicities():
    roots = [(F(1, 3), 2), (F(-2), 3), (F(7, 5), 1), (F(0), 4)]
    assert_certified(planted(roots), roots)
    assert square_free_factors(planted(roots)) == [
        ([5, -7], 1), ([3, -1], 2), ([1, 2], 3), ([1, 0], 4)]


def test_real_roots_leave_a_non_real_pair_out():
    roots = [(F(1), 1), (F(-3, 2), 2)]
    coeffs = planted(roots, extra=[1, 0, 1])        # a factor x^2 + 1
    found = assert_certified(coeffs, roots)
    assert sum(m for _, _, m in found) == len(coeffs) - 3


def test_certificate_fails_for_a_changed_coefficient():
    roots = [(F(1), 1), (F(5, 3), 1), (F(-7, 2), 1), (F(11), 1)]
    coeffs = planted(roots)
    found = assert_certified(coeffs, roots)
    for k in range(len(coeffs)):
        changed = coeffs[:k] + [coeffs[k] + 1] + coeffs[k + 1:]
        for lo, hi, _ in found:
            assert linalg.has_root(coeffs, lo, hi, BITS)
            assert not linalg.has_root(changed, lo, hi, BITS), (k, lo)


ROOTS = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(roots=st.dictionaries(ROOTS, st.integers(1, 3), min_size=1, max_size=6),
       pair=st.sampled_from([(1,), (1, 0, 1), (3, -2, 5)]), sign=st.sampled_from([1, -3]))
def test_real_roots_find_planted_roots(roots, pair, sign):
    coeffs = [sign * c for c in planted(list(roots.items()), extra=pair)]
    assert_certified(coeffs, list(roots.items()))
    product = [1]
    for g, m in square_free_factors(coeffs):
        for _ in range(m):
            product = times(product, g)
    unit = coeffs[0] // product[0]
    assert [unit * c for c in product] == coeffs   # the factors multiply back
