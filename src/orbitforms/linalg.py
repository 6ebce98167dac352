"""Exact linear algebra over Fraction matrices and sparse int columns.

Dense matrices are plain lists of lists of Fractions.  Provides reduced row
echelon form (sparse: a pivot row updates the other rows on its nonzero
columns only), nullspaces, and characteristic polynomials by the
division-free Berkowitz algorithm run over integers after clearing
denominators.  For a matrix that is triangular up to a permutation of the
indices, given as sparse int columns over one denominator (the form
restrict_to_flag gives), it finds that order and the kernels of a - cI by
back-substitution along it, walking only the indices a kernel vector can
reach.

Berkowitz and the back-substitution follow the integer-numerator rule of
poly: the loops run on ints with one denominator per value, and Fractions
are made only where a pivot divides.  rref runs on Fractions, since its
pivots divide; its cost is held down by sparsity instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence


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


def triangular_order(columns: Sequence[Mapping[int, int]]) -> list[int] | None:
    """An order of the indices in which a sparse matrix is lower triangular,
    or None.

    columns[j] maps each row index i with a[i][j] != 0 to that entry (any
    nonzero value).  The order is a topological order of the off-diagonal
    graph (edge j -> i when a[i][j] != 0): row i has off-diagonal entries
    only in columns that come before i.  None means the graph has a cycle,
    so no such order exists.
    """
    n = len(columns)
    later = [sorted(i for i in col if i != j) for j, col in enumerate(columns)]
    waiting = [0] * n
    for targets in later:
        for i in targets:
            waiting[i] += 1
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


def triangular_nullspace(columns: Sequence[Mapping[int, int]], den: int,
                         order: Sequence[int], c: Fraction) -> list[Vector]:
    """nullspace(a - cI) for the matrix a[i][j] = columns[j][i] / den, by
    back-substitution along `order`, an order in which it is triangular
    (see triangular_order).

    The walk runs on the int matrix den*a - (c*den)*I.  A solution can be
    nonzero only at the indices the off-diagonal graph reaches from an
    index whose diagonal is c, so only those are walked, in `order`.  There
    x_j is fixed by its row when the diagonal is not c, and is a new free
    parameter otherwise, the rest of its row then being a linear constraint
    on the parameters met before it.  Each x_j is kept as int numerators
    per parameter over one denominator, and pushed down its column into the
    rows it reaches.  The solutions are then reduced to the basis nullspace
    returns: vector k is 1 at its free column f_k, 0 at the other free
    columns and 0 beyond f_k.
    """
    n = len(columns)
    shift = c * den
    if shift.denominator != 1:
        return []
    shift = shift.numerator
    reached = [j for j in range(n) if columns[j].get(j, 0) == shift]
    seen = set(reached)
    for j in reached:            # grows while it is walked
        for i in columns[j]:
            if i not in seen:
                seen.add(i)
                reached.append(i)
    # x[j]: (int numerators by parameter, denominator); acc[j] likewise, the
    # sum over the entries of row j met so far, as a [numerators, denominator]
    x: dict[int, tuple[dict[int, int], int]] = {}
    acc: dict[int, list] = {}
    constraints: list[dict[int, int]] = []
    params = 0
    for j in order:
        if j not in seen:
            continue
        col = columns[j]
        nums, d = acc.pop(j, ({}, 1))
        pivot = col.get(j, 0) - shift
        if pivot:
            if not nums:
                continue         # x_j = 0
            d *= -pivot          # x_j = -acc_j / pivot
            g = gcd(d, *nums.values())
            if d < 0:
                g = -g
            if g != 1:
                nums = {p: v // g for p, v in nums.items()}
                d //= g
        else:
            if nums:
                constraints.append(nums)
            nums, d = {params: 1}, 1
            params += 1
        x[j] = nums, d
        for i, aij in col.items():
            if i == j:
                continue
            entry = acc.get(i)
            if entry is None:
                acc[i] = [{p: aij * v for p, v in nums.items()}, d]
                continue
            total, di = entry
            common = lcm(di, d)
            if common != di:
                up = common // di
                for p in total:
                    total[p] *= up
                entry[1] = common
            mine = aij * (common // d)
            for p, v in nums.items():
                s = total.get(p, 0) + mine * v
                if s:
                    total[p] = s
                else:
                    del total[p]
    if not params:
        return []
    if constraints:
        solutions = nullspace([[Fraction(con.get(p, 0)) for p in range(params)]
                               for con in constraints])
    else:
        solutions = identity(params)
    # rref of the reversed vectors puts each vector's last nonzero entry first
    vectors = []
    for t in solutions:
        tden = lcm(*(tp.denominator for tp in t))
        used = [(p, tp.numerator * (tden // tp.denominator))
                for p, tp in enumerate(t) if tp]
        row = [ZERO] * n
        for i, (nums, d) in x.items():
            v = sum(nums[p] * tp for p, tp in used if p in nums)
            if v:
                row[n - 1 - i] = Fraction(v, d * tden)
        vectors.append(row)
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
