"""Exact linear algebra over Fraction matrices.

Matrices are plain lists of lists of Fractions.  Provides reduced row
echelon form (sparse: a pivot row updates the other rows on its nonzero
columns only), nullspaces, and characteristic polynomials by the
division-free Berkowitz algorithm run over integers after clearing
denominators.  For matrices that are triangular up to a permutation of the
indices it finds that order and the kernels of a - cI by back-substitution
along it.

Berkowitz follows the integer-numerator rule of poly: the denominators are
cleared once, the loops run on ints, and each result is reduced to a
Fraction once.  rref runs on Fractions, since its pivots divide; its cost
is held down by sparsity instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


Matrix = list[list[Fraction]]
Vector = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def rref(a: Matrix, ncols: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (exact).

    Pivots are sought in the first `ncols` columns only (all by default);
    the columns after them are carried along as right-hand sides.  A pivot
    row is zero before its pivot column, so it is scaled and subtracted on
    its nonzero columns only, found once per pivot.
    """
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if ncols is None:
        ncols = cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        inv = ONE / prow[c]
        nonzero = [j for j in range(c, cols) if prow[j]]
        for j in nonzero:
            prow[j] *= inv
        for i in range(rows):
            row = m[i]
            f = row[c]
            if f and i != r:
                for j in nonzero:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel {v : a v = 0}, exact."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[Vector] = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def triangular_order(a: Matrix) -> list[int] | None:
    """An order of the indices in which `a` is lower triangular, or None.

    This is a topological order of the off-diagonal graph (edge j -> i when
    a[i][j] != 0): row i has off-diagonal entries only in columns that come
    before i.  None means the graph has a cycle, so no such order exists.
    """
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


def triangular_nullspace(a: Matrix, order: Sequence[int], c: Fraction) -> list[Vector]:
    """nullspace(a - cI) by back-substitution along `order`,
    an order in which `a` is triangular (see triangular_order).

    Walking the order, row i fixes x_i when a[i][i] != c.  Otherwise x_i is
    a new free parameter, and the rest of row i is a linear constraint on
    the parameters met before it.  The solutions are then reduced to the
    basis nullspace returns: vector k is 1 at its free column f_k, 0 at the
    other free columns and 0 beyond f_k.
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
        solutions = nullspace([[con.get(p, ZERO) for p in range(params)]
                               for con in constraints])
    else:
        solutions = identity(params)
    # rref of the reversed vectors puts each vector's last nonzero entry first
    vectors = [[sum((coeff * t[p] for p, coeff in x[i].items()), ZERO)
                for i in reversed(range(n))] for t in solutions]
    red, pivots = rref(vectors)
    return [row[::-1] for row in reversed(red[:len(pivots)])]


def _berkowitz_int(m: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(lambda I - M) of an integer matrix.

    Returns coefficients in descending powers, leading coefficient 1.
    Division free, so all intermediates stay integral.
    """
    n = len(m)
    if n == 0:
        return [1]
    coeffs = [1, -m[0][0]]
    for i in range(1, n):
        row = [m[i][j] for j in range(i)]
        col = [m[j][i] for j in range(i)]
        sub = [[m[r][c] for c in range(i)] for r in range(i)]
        t = [1, -m[i][i]]
        v = col[:]
        for k in range(i):
            t.append(-sum(row[r] * v[r] for r in range(i)))
            if k < i - 1:
                v = [sum(sub[r][c] * v[c] for c in range(i)) for r in range(i)]
        new = [0] * (len(coeffs) + 1)
        for p, cp in enumerate(coeffs):
            if cp:
                for q, tq in enumerate(t):
                    if tq and p + q < len(new):
                        new[p + q] += cp * tq
        coeffs = new
    return coeffs


def charpoly(a: Matrix) -> list[Fraction]:
    """Exact characteristic polynomial det(lambda I - a).

    Returns monic coefficients in descending powers of lambda.
    """
    n = len(a)
    scale = 1
    for row in a:
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
    m = [[int(x * scale) for x in row] for row in a]
    raw = _berkowitz_int(m)
    # det(lambda I - a) = scale^-n * det((scale lambda) I - scale a)
    return [Fraction(raw[j], scale ** j) for j in range(n + 1)]
