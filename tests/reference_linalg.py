"""Helpers that only the tests use: independent routes to the
determinant and the characteristic polynomial, the shifted matrix whose
kernel triangular_nullspace finds, the dense triangular order and
back-substitution that the sparse ones replaced, the dense nullspace and
kernel basis on the Fraction rref loop that the int reduction replaced
(reference_kernels.rref, so that no reference leans on the reduction
under test), the converters between a dense Fraction matrix or vector
and the sparse ints the engine reads and returns, and the numeric
eigensolve of the whole matrix, the reference for the converted diagonal
of a triangular matrix and for the certified QES roots."""

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import mpmath
from mpmath import mp

from orbitforms.diffop import ExactMatrix
from orbitforms.poly import FlagSpace, fdegree
from orbitforms.spectral import NUMERIC_DPS
from reference_kernels import rref

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


def sparse_columns(a: Matrix) -> tuple[int, list[dict[int, int]]]:
    """(den, columns) with a[i][j] == columns[j][i] / den, zeros left out."""
    den = lcm(1, *(x.denominator for row in a for x in row))
    return den, [{i: int(a[i][j] * den) for i in range(len(a)) if a[i][j]}
                 for j in range(len(a))]


def exact_matrix(a: Matrix) -> ExactMatrix:
    """The ExactMatrix whose column-action matrix is the square matrix `a`,
    on a one-variable flag of the same dimension."""
    den, columns = sparse_columns(a)
    return ExactMatrix(FlagSpace(1, (1,), len(a) - 1), den, columns)


def dense_action_matrix(matrix: ExactMatrix,
                        order: Sequence[int] | None = None) -> Matrix:
    """Column-action matrix M with op(basis_j) = sum_i M[i][j] basis_i, or,
    given an order of the indices, M with rows and columns taken in that
    order (a permutation of the indices)."""
    if order is None:
        order = range(matrix.dim)
    position = {i: k for k, i in enumerate(order)}
    dense = [[ZERO] * len(position) for _ in position]
    for j, col in enumerate(matrix.columns):
        for i, v in col.items():
            dense[position[i]][position[j]] = Fraction(v, matrix.den)
    return dense


def is_block_triangular(matrix: ExactMatrix) -> bool:
    """Every image reaches only monomials of equal or lower f-degree."""
    grades = [fdegree(e, matrix.space.f) for e in matrix.space.basis]
    return all(grades[i] <= grades[j]
               for j, col in enumerate(matrix.columns) for i in col)


def dense_triangular_order(a: Matrix) -> list[int] | None:
    """triangular_order read off a dense matrix: a topological order of the
    off-diagonal graph (edge j -> i when a[i][j] != 0), or None on a cycle."""
    n = len(a)
    later = [[i for i in range(n) if i != j and a[i][j]] for j in range(n)]
    waiting = [sum(1 for j in range(n) if j != i and a[i][j]) for i in range(n)]
    ready = [i for i in range(n) if not waiting[i]]
    order: list[int] = []
    while ready:
        j = ready.pop()
        order.append(j)
        for i in later[j]:
            waiting[i] -= 1
            if not waiting[i]:
                ready.append(i)
    return order if len(order) == n else None


def dense_triangular_nullspace(a: Matrix, order: Sequence[int],
                               c: Fraction) -> list[list[Fraction]]:
    """nullspace(a - cI) by back-substitution along `order`, walking every
    dense row in Fraction arithmetic.

    Row i fixes x_i when a[i][i] != c.  Otherwise x_i is a new free
    parameter, and the rest of row i is a linear constraint on the
    parameters met before it.  The solutions are reduced to the basis
    triangular_nullspace returns.
    """
    n = len(a)
    x: list[dict[int, Fraction]] = [{} for _ in range(n)]   # parameter -> coefficient
    constraints: list[dict[int, Fraction]] = []
    params = 0
    for i in order:
        acc: dict[int, Fraction] = {}
        for j, aij in enumerate(a[i]):
            if aij and j != i and x[j]:
                for p, coeff in x[j].items():
                    acc[p] = acc.get(p, ZERO) + aij * coeff
        acc = {p: v for p, v in acc.items() if v}
        pivot = a[i][i] - c
        if pivot:
            x[i] = {p: -v / pivot for p, v in acc.items()}
        else:
            if acc:
                constraints.append(acc)
            x[i] = {params: ONE}
            params += 1
    if not params:
        return []
    if constraints:
        solutions = dense_nullspace([[con.get(p, ZERO) for p in range(params)]
                                     for con in constraints])
    else:
        solutions = [[ONE if p == q else ZERO for q in range(params)]
                     for p in range(params)]
    return dense_kernel_basis([[sum((coeff * t[p] for p, coeff in x[i].items()), ZERO)
                                for i in range(n)] for t in solutions])


def dense_kernel_basis(vectors: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """The canonical basis of the span of `vectors` (dense, of one length),
    as triangular_nullspace returns it: each vector 1 at its last nonzero
    index and every other vector 0 there, in ascending order of that
    index.  It is the rref of the reversed vectors, which puts each
    vector's last nonzero entry first."""
    red, pivots = rref([list(v)[::-1] for v in vectors])
    return [row[::-1] for row in reversed(red[:len(pivots)])]


def dense_nullspace(a: Matrix) -> list[list[Fraction]]:
    """The basis linalg.nullspace returns, read off the dense rref: for each
    free column fc, 1 at fc and -red[r][fc] at the pivot of row r."""
    red, pivots = rref(a)
    cols = len(a[0])
    basis = []
    for fc in range(cols):
        if fc not in pivots:
            v = [ONE if c == fc else ZERO for c in range(cols)]
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][fc]
            basis.append(v)
    return basis


def dense_vector(vector: tuple[dict[int, int], int], n: int) -> list[Fraction]:
    """A kernel vector (numerators, den) of triangular_nullspace as n
    Fractions."""
    nums, den = vector
    return [Fraction(nums.get(i, 0), den) for i in range(n)]


def dense_numeric_eigenvalues(rows: Matrix) -> list:
    """The whole dense matrix through mpmath.eig at NUMERIC_DPS digits,
    each nonzero entry converted as mpf(numerator) / denominator."""
    with mp.workdps(NUMERIC_DPS):
        m = mpmath.matrix(len(rows), len(rows))
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                if c:
                    m[i, j] = mpmath.mpf(c.numerator) / c.denominator
        if len(rows) == 1:   # mpmath.eig returns a tuple for 1x1 whatever it is asked
            return [mpmath.mpc(m[0, 0])]
        return [mpmath.mpc(v) for v in mpmath.eig(m, left=False, right=False)]
