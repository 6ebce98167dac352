"""The Fraction loops that the integer-numerator kernels replaced, kept as
references for the differential tests.

Each function is the loop as it stood in the program, with `self` renamed
and the polynomial product inside `apply` and `compose` routed through
`mul` here, so that no reference leans on a kernel under test.  `rref` has
the `ncols` bound of the program's signature and nothing else new.  The
coefficient builders of the Sutherland and BC_N forms are the MultiPoly
loops that the pair tables replaced, with the closed-form eigenvalues as
they were written before the precomputed forms.  `restrict_to_flag` is the
per-monomial loop that applied the operator to each basis monomial, here
through `apply` above.
"""

from fractions import Fraction
from math import comb

from orbitforms.diffop import DiffOp
from orbitforms.errors import FlagViolation
from orbitforms.poly import MultiPoly

ZERO = Fraction(0)


def mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    res = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = res.get(e, ZERO) + c1 * c2
            if s:
                res[e] = s
            else:
                res.pop(e, None)
    return MultiPoly(a.nvars, res)


def apply(op: DiffOp, p: MultiPoly) -> MultiPoly:
    total = MultiPoly.zero(op.nvars)
    for k, c in op.terms.items():
        q = p
        for i, times in enumerate(k):
            if times:
                q = q.diff(i, times)
            if q.is_zero():
                break
        if not q.is_zero():
            total = total + mul(c, q)
    return total


def _multi_binom(alpha, gamma) -> int:
    b = 1
    for a, g in zip(alpha, gamma):
        b *= comb(a, g)
    return b


def _sub_indices(alpha):
    if not alpha:
        yield ()
        return
    head, rest = alpha[0], alpha[1:]
    for tail in _sub_indices(rest):
        for g in range(head + 1):
            yield (g,) + tail


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    acc = {}
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            for gamma in _sub_indices(alpha):
                coeff_b = cb
                for i, times in enumerate(gamma):
                    if times:
                        coeff_b = coeff_b.diff(i, times)
                if coeff_b.is_zero():
                    continue
                key = tuple(x - g + y for x, g, y in zip(alpha, gamma, beta))
                term = mul(ca, coeff_b) * _multi_binom(alpha, gamma)
                acc[key] = acc[key] + term if key in acc else term
    return DiffOp(a.nvars, acc)


def rref(a, ncols=None):
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols if ncols is None else ncols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def restrict_to_flag(op: DiffOp, space):
    """The rows of the restricted matrix, one apply per basis monomial."""
    rows = []
    for mono in space.basis:
        image = apply(op, MultiPoly.monomial(space.d, mono))
        row = [ZERO] * space.dim
        for e, c in image.terms.items():
            pos = space.index.get(e)
            if pos is None:
                raise FlagViolation(
                    f"operator maps {mono} to a term outside the flag: {e}",
                    mono, e)
            row[pos] = c
        rows.append(row)
    return rows


def _clipped_tau(nvars: int, k: int, top: int, top_is_one: bool) -> MultiPoly:
    if k == 0:
        return MultiPoly.const(nvars, 1)
    if k < 0 or k > top:
        return MultiPoly.zero(nvars)
    if k == top and top_is_one:
        return MultiPoly.const(nvars, 1)
    return MultiPoly.variable(nvars, k - 1)


def sutherland_coefficients(N: int, nu: Fraction):
    d = N - 1
    tau = lambda k: _clipped_tau(d, k, N, top_is_one=True)
    A = {}
    B = {}
    for i in range(1, N):
        for j in range(1, N):
            acc = Fraction((N - i) * j, N) * tau(i) * tau(j)
            l = max(1, j - i)
            while i + l <= N and j - l >= 0:
                acc = acc + (j - i - 2 * l) * tau(i + l) * tau(j - l)
                l += 1
            if not acc.is_zero():
                A[(i, j)] = acc
        B[i] = (Fraction(1, N) + nu) * i * (N - i) * tau(i)
    return A, B


def bcn_coefficients(N: int, nu: Fraction, nu2: Fraction, nu3: Fraction):
    d = N
    tau = lambda k: _clipped_tau(d, k, N, top_is_one=False)
    A = {}
    B = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            acc = -N * tau(i - 1) * tau(j - 1)
            for l in range(0, N + 2):
                part = ((i - l) * tau(i - l) * tau(j + l)
                        + (l + j - 1) * tau(i - l - 1) * tau(j + l - 1)
                        - (i - 2 - l) * tau(i - 2 - l) * tau(j + l)
                        - (l + j + 1) * tau(i - l - 1) * tau(j + l + 1))
                acc = acc + part
            if not acc.is_zero():
                A[(i, j)] = acc
        B[i] = ((1 + nu * (2 * N - i - 1) + 2 * nu2 + nu3) * i * tau(i)
                - nu3 * (i - N - 1) * tau(i - 1)
                + nu * (N - i + 1) * (N - i + 2) * tau(i - 2))
    return A, B


def sutherland_eigenvalue(N: int, nu: Fraction, p) -> Fraction:
    lin = sum(nu * N * i * (N - i) * p[i - 1] for i in range(1, N))
    quad = sum((N * min(i, j) - i * j) * p[i - 1] * p[j - 1]
               for i in range(1, N) for j in range(1, N))
    return Fraction(lin + quad, N)


def bcn_eigenvalue(N: int, nu: Fraction, nu2: Fraction, nu3: Fraction,
                   p) -> Fraction:
    lin = sum((nu * (2 * N - i - 1) + 2 * nu2 + nu3) * i * p[i - 1]
              for i in range(1, N + 1))
    quad = sum(min(i, j) * p[i - 1] * p[j - 1]
               for i in range(1, N + 1) for j in range(1, N + 1))
    return lin + quad
