"""Exact helpers that only the tests use: independent routes to the
determinant and the characteristic polynomial, and the shifted matrix whose
kernel triangular_nullspace finds."""

from fractions import Fraction
from math import gcd
from typing import Sequence

Matrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def shift_diagonal(a: Matrix, c: Fraction) -> Matrix:
    """a - c*I."""
    n = len(a)
    return [[a[i][j] - (c if i == j else ZERO) for j in range(n)] for i in range(n)]


def det_bareiss(a: Matrix) -> Fraction:
    """Determinant by fraction-free elimination after clearing denominators."""
    n = len(a)
    if n == 0:
        return ONE
    scale = 1
    for row in a:
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
    m = [[int(x * scale) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return ZERO
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], scale ** n)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """Horner evaluation; coeffs in descending powers."""
    acc = ZERO
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_from_roots(roots: Sequence[Fraction]) -> list[Fraction]:
    """Monic polynomial with the given roots, descending coefficients."""
    coeffs = [ONE]
    for r in roots:
        new = coeffs + [ZERO]
        for i in range(len(coeffs)):
            new[i + 1] -= coeffs[i] * r
        coeffs = new
    return coeffs
