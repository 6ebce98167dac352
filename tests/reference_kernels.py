"""The Fraction loops that the integer-numerator kernels replaced, kept as
references for the differential tests.

Each function is the loop as it stood in the program, with `self` renamed
and the polynomial product inside `apply` and `compose` routed through
`mul` here, so that no reference leans on a kernel under test.  `rref` has
the `ncols` bound of the program's signature and nothing else new.
"""

from fractions import Fraction
from math import comb

from orbitforms.diffop import DiffOp
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
