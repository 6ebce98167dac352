"""Exact linear algebra over Fraction matrices and sparse int columns.

Dense matrices are plain lists of lists of Fractions.  Every elimination is
one fraction-free reduction of sparse int rows (_row_reduce); rref and
nullspace scale each row to ints once (_int_row) and make Fractions only
for what they return, and the algebra span solve hands its sparse rows to
the reduction directly.  Characteristic polynomials come by the division-free
Berkowitz algorithm over integers after clearing denominators.  For a
matrix triangular up to a permutation of the indices, given as sparse int
columns over one denominator (the form restrict_to_flag gives), it finds
that order, checks an order apart from the search that found it, and
finds the kernels of a - cI by back-substitution along it over only the
indices a kernel vector can reach; the solutions and their constraints go
as int rows into the same reduction.  The real roots of an integer
polynomial come as dyadic brackets, each certified by an exact sign
change (real_roots).

Berkowitz, the root brackets, the back-substitution and the reduction
follow the integer-numerator rule of poly, the form in which a polynomial
is stored: the loops run on ints with one denominator per value, and a
kernel vector leaves as int numerators over one denominator, with no
Fraction made on its way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence


Matrix = list[list[Fraction]]
Vector = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(a: Matrix, ncols: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (exact).

    Pivots are sought in the first `ncols` columns only (all by default);
    the columns after them are carried along as right-hand sides: column c
    is key ncols - 1 - c of _row_reduce.  A row past the pivots is zero on
    the first ncols columns, so it is its original row o less
    sum_c o[c] P_c over the pivot rows P_c, each 1 at its pivot c.
    """
    cols = len(a[0]) if a else 0
    if ncols is None:
        ncols = cols
    reduced, rest = _row_reduce(_int_rows(a, ncols))
    red: Matrix = []
    carried: dict[int, list[tuple[int, Fraction]]] = {}
    for key, v in reversed(reduced.items()):
        row = [ZERO] * cols
        for k, x in v.items():
            row[ncols - 1 - k] = Fraction(x, v[key])
        red.append(row)
        carried[ncols - 1 - key] = [(j, row[j]) for j in range(ncols, cols) if row[j]]
    for i in rest:
        row = [ZERO] * ncols + a[i][ncols:]
        for pc, entries in carried.items():
            f = a[i][pc]
            if f:
                for j, x in entries:
                    row[j] -= f * x
        red.append(row)
    return red, list(carried)


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel {v : a v = 0}, exact: for each free column
    fc, ascending, 1 at fc and -P_c[fc] at each pivot c of rref."""
    cols = len(a[0]) if a else 0
    reduced, _ = _row_reduce(_int_rows(a, cols))
    basis: list[Vector] = []
    for free in reversed(range(cols)):       # keys down, so columns up
        if free not in reduced:
            v = [ZERO] * cols
            v[cols - 1 - free] = ONE
            for key, row in reduced.items():
                if free in row:
                    v[cols - 1 - key] = Fraction(-row[free], row[key])
            basis.append(v)
    return basis


def _int_rows(a: Matrix, ncols: int) -> list[dict[int, int]]:
    """Each row of `a` as `_int_row` of its nonzero entries."""
    return [_int_row([(c, x) for c, x in enumerate(row) if x], ncols) for row in a]


def _int_row(entries: Sequence[tuple[int, Fraction]], ncols: int) -> dict[int, int]:
    """A sparse row of nonzero (column, Fraction) entries times the lcm of
    their denominators, as ints keyed ncols - 1 - column: the row form of
    _row_reduce, pivots sought in the first ncols columns."""
    den = lcm(*(x.denominator for _, x in entries))
    return {ncols - 1 - c: x.numerator * (den // x.denominator) for c, x in entries}


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


def is_triangular_in(columns: Sequence[Mapping[int, int]], order: Sequence[int]) -> bool:
    """The certificate of triangular_order, checked apart from the search:
    `order` is a permutation of the indices, and every nonzero off-diagonal
    entry a[i][j] has j before i in it.  A stored zero is no entry."""
    position = {i: k for k, i in enumerate(order)}
    return (sorted(order) == list(range(len(columns)))
            and all(position[j] < position[i] for j, col in enumerate(columns)
                    for i, v in col.items() if v and i != j))


def triangular_nullspace(columns: Sequence[Mapping[int, int]], den: int,
                         order: Sequence[int], c: Fraction
                         ) -> list[tuple[dict[int, int], int]]:
    """The basis nullspace(a - cI) returns, for the matrix
    a[i][j] = columns[j][i] / den, found by back-substitution along
    `order`, an order in which it is triangular (see triangular_order).

    Each basis vector comes as (numerators, d) with d > 0: its entry at
    index i is numerators[i] / d, and the indices it leaves out are 0.
    Vector k is 1 at its pivot f_k, its last nonzero index, and every other
    vector is 0 there; the vectors come in ascending order of pivot.  This
    is the reduced row echelon form of the reversed vectors, so the basis
    is canonical.

    The walk runs on the int matrix den*a - (c*den)*I.  A solution can be
    nonzero only at the indices the off-diagonal graph reaches from an
    index whose diagonal is c, so only those are walked, in `order`.  There
    x_j is fixed by its row when the diagonal is not c, and is a new free
    parameter otherwise, the rest of its row then being a linear constraint
    on the parameters met before it.  Each x_j is kept as int numerators
    per parameter over one denominator, and pushed down its column into the
    rows it reaches.  Each parameter then gives one int row: its solution
    vector, and its coefficients in the constraints at keys past every
    index.  One reduction on the largest key (_reduce_by_last_index) clears
    the constraints first, so its rows with a pivot below n are the
    canonical basis of the solutions that meet them.
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
    rows: list[dict[int, int]] = []     # one per parameter
    key = n                             # the key of the next constraint
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
                for p, v in nums.items():
                    rows[p][key] = v
                key += 1
            nums, d = {len(rows): 1}, 1
            rows.append({})
        x[j] = nums, d
        for i, aij in col.items():
            if i == j:
                continue
            entry = acc.get(i)
            if entry is None:
                acc[i] = [{p: aij * v for p, v in nums.items()}, d]
                continue
            total, di = entry
            if d != di and d != 1:
                common = d if di == 1 else lcm(di, d)
                if common != di:
                    up = common // di
                    for p in total:
                        total[p] *= up
                    entry[1] = common
            mine = aij * (entry[1] // d)
            for p, v in nums.items():
                s = total.get(p, 0) + mine * v
                if s:
                    total[p] = s
                else:
                    del total[p]
    common = lcm(*(d for _, d in x.values()))
    for i, (nums, d) in x.items():
        up = common // d
        for p, v in nums.items():
            rows[p][i] = v * up
    return [(v, d) for v, d in _reduce_by_last_index(rows) if max(v) < n]


def _reduce_by_last_index(vectors: Sequence[dict[int, int]]
                          ) -> list[tuple[dict[int, int], int]]:
    """The reduced echelon basis of the span of sparse int vectors, keyed
    on the largest index: the pivot rows of _row_reduce, ascending, each
    as (numerators, d) with d its entry at its pivot."""
    return [(v, v[top]) for top, v in _row_reduce(vectors)[0].items()]


def _row_reduce(rows: Sequence[dict[int, int]]
                ) -> tuple[dict[int, dict[int, int]], list[int]]:
    """The reduced echelon form of sparse int rows (no stored zeros), the
    pivots on the largest keys: (pivot rows, rest).

    The pivot rows map each pivot, ascending, to its row: 0 at every other
    pivot, positive at its own, with no common factor.  Negative keys are
    only carried along.  Pivots are taken as the dense Fraction loop takes
    them, so that rref keeps its outputs: the next is the largest key of a
    row past the pivot rows, and the first such row that has it swaps
    places with the row just past them.  rest holds the indices in `rows`
    of the others, in the order the swaps leave them.

    Fraction-free: a row is cleared at a key by cross-multiplying with the
    pivot row of that key (_cleared), first below each new pivot, then, in
    ascending order of pivot, each pivot row at the lower pivots by the
    rows already reduced, which are 0 at every pivot but their own.
    """
    rows = list(rows)
    lead = [max(v, default=-1) for v in rows]
    place = list(range(len(rows)))
    r = 0
    while r < len(rows):
        top = max(lead[r:])
        if top < 0:
            break
        p = lead.index(top, r)
        rows[r], rows[p] = rows[p], rows[r]
        lead[r], lead[p] = lead[p], lead[r]
        place[r], place[p] = place[p], place[r]
        base = rows[r]
        for i in range(r + 1, len(rows)):
            if lead[i] == top:
                rows[i] = _cleared(rows[i], base, top)
                lead[i] = max(rows[i], default=-1)
        r += 1
    reduced: dict[int, dict[int, int]] = {}
    for top, v in zip(reversed(lead[:r]), reversed(rows[:r])):
        for low in [i for i in v if i in reduced]:
            v = _cleared(v, reduced[low], low)
        g = gcd(*v.values())
        if v[top] < 0:
            g = -g
        reduced[top] = {i: a // g for i, a in v.items()} if g != 1 else v
    return reduced, place[r:]


def _cleared(v: dict[int, int], base: Mapping[int, int], at: int) -> dict[int, int]:
    """base[at] v - v[at] base over its positive content: v made 0 at
    `at`, with no stored zeros."""
    s, t = base[at], v[at]
    out = {i: s * a for i, a in v.items()}
    for i, b in base.items():
        a = out.get(i, 0) - t * b
        if a:
            out[i] = a
        else:
            out.pop(i, None)
    g = gcd(*out.values())
    return {i: a // g for i, a in out.items()} if g > 1 else out


def _berkowitz_int(m: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(lambda I - M) of an integer matrix.

    Returns coefficients in descending powers, leading coefficient 1.
    Division free, so all intermediates stay integral.  The products with
    the leading blocks run over their nonzero entries only.
    """
    n = len(m)
    if n == 0:
        return [1]
    nonzero = [[(c, x) for c, x in enumerate(row) if x] for row in m]
    coeffs = [1, -m[0][0]]
    for i in range(1, n):
        row = [(c, x) for c, x in nonzero[i] if c < i]
        sub = [[(c, x) for c, x in nonzero[r] if c < i] for r in range(i)]
        t = [1, -m[i][i]]
        v = [m[j][i] for j in range(i)]
        for k in range(i):
            t.append(-sum(x * v[c] for c, x in row))
            if k < i - 1:
                v = [sum(x * v[c] for c, x in entries) for entries in sub]
        new = [0] * (len(coeffs) + 1)
        for p, cp in enumerate(coeffs):
            if cp:
                for q, tq in enumerate(t):
                    if tq and p + q < len(new):
                        new[p + q] += cp * tq
        coeffs = new
    return coeffs


def charpoly(a: Matrix) -> list[Fraction]:
    """Exact characteristic polynomial det(lambda I - a), a of Fractions or
    ints.

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


# ---------------------------------------------------------------------------
# Certified real roots of integer polynomials
# ---------------------------------------------------------------------------
# A polynomial is a list of int coefficients in descending powers with a
# nonzero leading one; [] is the zero polynomial.  Points are ints X on the
# grid X / 2^bits, where a polynomial p of degree d is read through the
# homogenized int P(X) = sum_i p_i X^(d-i) 2^(bits i) = 2^(bits d) p(X / 2^bits),
# which has the sign of p(X / 2^bits).


def real_roots(coeffs: Sequence[int], bits: int) -> list[tuple[int, int, int]]:
    """The real roots of the nonzero integer polynomial with `coeffs`
    (descending powers), as ascending (lo, hi, multiplicity).

    Each root lies in [lo, hi] / 2^bits with hi - lo <= 1, and lo == hi
    marks an exact root.  The polynomial is split into square-free factors
    (Yun); a Sturm chain of each factor isolates its roots by bisection from
    a power-of-two root bound, and Newton steps in integer fixed point, kept
    inside the bracket, refine each root.  Every bracket is certified by an
    exact sign change of its factor (has_root).  Non-real roots are left
    out, so the multiplicities sum to the degree exactly when every root is
    real.  ArithmeticError means two roots of a factor lie within 2^-bits.
    """
    f = _primitive(coeffs)
    if not f:
        raise ValueError("the zero polynomial has no isolated roots")
    if len(f) == 1:
        return []
    chain = _sturm_chain(f)
    common = chain[-1]           # gcd(f, f'), up to its sign
    if len(common) == 1:         # constant: f is square-free
        factors = [(f, 1, chain)]
    else:
        if common[0] < 0:
            common = [-c for c in common]
        factors = [(g, m, _sturm_chain(g)) for g, m in _yun(f, common)]
    roots = []
    for g, m, chain in factors:
        for a, b, scale in _isolate(chain, bits):
            lo, hi = _refine(g, a, b, scale, bits)
            if not has_root(g, lo, hi, bits):
                raise ArithmeticError(f"no sign change certifies the root in "
                                      f"[{lo}, {hi}] / 2^{bits}")
            roots.append((lo, hi, m))
    return sorted(roots)


def has_root(coeffs: Sequence[int], lo: int, hi: int, bits: int) -> bool:
    """The certificate: the polynomial is 0 at lo == hi, or takes values of
    strictly opposite signs at lo < hi (points on the 2^-bits grid), so it
    has a root in [lo, hi] / 2^bits."""
    scaled = _scaled(coeffs, bits)
    if lo == hi:
        return _value(scaled, lo) == 0
    return lo < hi and _value(scaled, lo) * _value(scaled, hi) < 0


def _yun(f: Sequence[int], a: Sequence[int]) -> list[tuple[list[int], int]]:
    """[(g, m), ...] with f = c prod g^m, each g square-free, primitive and
    of positive degree, pairwise coprime, m ascending (Yun 1976), given
    a = gcd(f, f'), primitive with a positive leading coefficient.

    Every division is exact over the ints: the divisor is a primitive
    factor of the dividend (Gauss's lemma), so no content is lost and
    d = c - b' keeps the scale that Yun's identity needs.
    """
    b, c = _divide(f, a), _divide(_derivative(f), a)
    factors = []
    m = 1
    while len(b) > 1:
        d = _subtract(c, _derivative(b))
        a = _gcd(b, d)
        if len(a) > 1:
            factors.append((a, m))
        b, c = _divide(b, a), _divide(d, a)
        m += 1
    return factors


def _primitive(p: Sequence[int]) -> list[int]:
    """p without leading zeros, divided by its (positive) content."""
    p = _strip(list(p))
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _derivative(p: Sequence[int]) -> list[int]:
    d = len(p) - 1
    return [c * (d - i) for i, c in enumerate(p[:-1])]


def _subtract(p: Sequence[int], q: Sequence[int]) -> list[int]:
    n = max(len(p), len(q))
    p = [0] * (n - len(p)) + list(p)
    q = [0] * (n - len(q)) + list(q)
    return _strip([x - y for x, y in zip(p, q)])


def _strip(p: list[int]) -> list[int]:
    """p without leading zeros."""
    k = next((i for i, c in enumerate(p) if c), len(p))
    return p[k:]


def _remainder(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """A positive multiple of the remainder of f by g: each step scales the
    running remainder by |lc(g)| before it cancels the leading term."""
    r = list(f)
    lead, dg = g[0], len(g) - 1
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    while len(r) > dg:
        q = sign * r[0]
        r = [scale * c for c in r]
        for i, c in enumerate(g):
            r[i] -= q * c
        r = _strip(r)
    return r


def _divide(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f / g for a g that divides f with an integer quotient."""
    r = list(f)
    quotient = []
    for _ in range(len(f) - len(g) + 1):
        q, rest = divmod(r[0], g[0])
        if rest:
            raise ArithmeticError("inexact polynomial division")
        quotient.append(q)
        for i, c in enumerate(g):
            r[i] -= q * c
        r.pop(0)
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return quotient


def _gcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient, by the primitive
    remainder sequence."""
    f, g = _primitive(f), _primitive(g)
    while g:
        f, g = g, _primitive(_remainder(f, g))
    return f if f[0] > 0 else [-c for c in f]


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """f, f', and the negated remainders, each divided by its positive
    content, down to the last nonzero one (a multiple of gcd(f, f'))."""
    chain = [f, _primitive(_derivative(f))]
    while True:
        r = _primitive(_remainder(chain[-2], chain[-1]))
        if not r:
            return chain
        chain.append([-c for c in r])


def _root_bound(f: Sequence[int]) -> int:
    """e with every root of f inside (-2^e, 2^e): the power of two at or
    above 2 max_i |f_i / f_0|^(1/i), from the bit lengths."""
    top = abs(f[0]).bit_length()
    e = 0
    for i, c in enumerate(f[1:], 1):
        if c:
            e = max(e, -(-(abs(c).bit_length() - top + 1) // i))
    return e + 1


def _scaled(p: Sequence[int], bits: int) -> list[int]:
    return [c << (bits * i) for i, c in enumerate(p)]


def _value(scaled: Sequence[int], x: int) -> int:
    acc = 0
    for c in scaled:
        acc = acc * x + c
    return acc


def _sign_changes(values) -> int:
    count, last = 0, 0
    for v in values:
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _isolate(chain: Sequence[Sequence[int]], bits: int) -> list[tuple[int, int, int]]:
    """Intervals (a, b] / 2^s as (a, b, s), each holding exactly one root of
    chain[0], by Sturm-counted bisection of (-2^e, 2^e] (e from
    _root_bound) with a first cut at 0, so that a root at 0 is an interval
    end and is found exactly.  An interval one grid step wide moves to the
    grid twice as fine, so the points stay as short as the roots allow;
    past 2^-bits, ArithmeticError.

    Sturm's theorem: the roots in (a, b] number V(a) - V(b), V the sign
    variations of the chain; V(+-2^e) are those at +-infinity, read off the
    leading coefficients, as no root lies beyond the bound.
    """
    scaled: dict[int, list[list[int]]] = {}

    def variations(x: int, s: int) -> int:
        if s not in scaled:
            scaled[s] = [_scaled(p, s) for p in chain]
        return _sign_changes(_value(p, x) for p in scaled[s])

    top = 1 << _root_bound(chain[0])
    v_low = _sign_changes(-p[0] if len(p) % 2 == 0 else p[0] for p in chain)
    v_high = _sign_changes(p[0] for p in chain)
    v_zero = _sign_changes(p[-1] for p in chain)
    stack = [(0, top, 0, v_zero, v_high), (-top, 0, 0, v_low, v_zero)]
    out = []
    while stack:
        a, b, s, va, vb = stack.pop()
        count = va - vb
        if count == 1:
            out.append((a, b, s))
        elif count > 1:
            if b - a == 1:
                if s == bits:
                    raise ArithmeticError(f"two roots lie within 2^-{bits}")
                a, b, s = 2 * a, 2 * b, s + 1
            m = (a + b) // 2
            vm = variations(m, s)
            stack += [(m, b, s, vm, vb), (a, m, s, va, vm)]
    return out


def _refine(g: Sequence[int], a: int, b: int, s: int, bits: int) -> tuple[int, int]:
    """Shrink (a, b] / 2^s, holding exactly one root of the square-free g,
    to one step of the 2^-bits grid, or to the root itself where it lies on
    that grid.

    Newton doubles the correct bits per step, so the bracket is first
    shrunk on the 2^-64 grid, with short ints, and then on the 2^-bits grid
    from there, where two steps suffice.
    """
    for t in (min(64, bits), bits):
        if t > s:
            a, b, s = a << (t - s), b << (t - s), t
        a, b = _newton(_scaled(g, s), a, b)
        if a == b:
            break
    return a << (bits - s), b << (bits - s)


def _newton(scaled: Sequence[int], a: int, b: int) -> tuple[int, int]:
    """Shrink the grid interval (a, b], holding exactly one root of the
    square-free polynomial, to one grid step, or to the root itself where
    it lies on the grid.

    The root is simple, so the sign at b is the sign right of the root and
    its opposite the sign left of it.  Each point taken replaces the end
    whose sign it shares.  The next point is the Newton step from the last
    one, x - P(X)/P'(X) in grid units, at least one unit; a step that leaves
    the bracket, or is more than half the step before the last, is replaced
    by bisection (the safeguard of rtsafe, Press et al.).
    """
    right = _value(scaled, b)
    if right == 0:
        return b, b
    if b - a <= 1:
        return a, b
    right = right > 0
    slope = _derivative(scaled)
    x = (a + b) // 2
    older = last = b - a
    while True:
        v = _value(scaled, x)
        if v == 0:
            return x, x
        if (v > 0) == right:
            b = x
        else:
            a = x
        if b - a <= 1:
            return a, b
        dv = _value(slope, x)
        step = v // dv if dv else 0
        if step == 0:
            step = 1 if x == b else -1
        t = x - step
        if not a < t < b or 2 * abs(step) > older:
            t = (a + b) // 2
        older, last, x = last, abs(t - x), t
