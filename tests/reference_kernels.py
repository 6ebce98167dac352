"""The Fraction loops that the integer-numerator kernels replaced, kept as
references for the differential tests.

Each function is the loop as it stood in the program, with `self` renamed
and the polynomial product inside `apply` and `compose` routed through
`mul` here, so that no reference leans on a kernel under test.  `add`,
`neg`, `scale`, `diff` and `content` are the `MultiPoly` loops over
Fraction term dicts from before the polynomial was stored as int
numerators over one denominator; each builds its result through the
`MultiPoly` constructor, which keeps the order of the dict it is given.  `rref` has
the `ncols` bound of the program's signature and nothing else new.  The
coefficient builders of the Sutherland and BC_N forms are the MultiPoly
loops that the pair tables replaced, with the closed-form eigenvalues as
they were written before the precomputed forms; the bc1 and g2 ones are
the closures that the shared quadratic form replaced, as are the printed
one-sided readings.  The ground energies are the closed forms that
`models.ground_energy` replaced, hand-typed in the program for bc1 and in
the gauge suite for BC_N.  The gauge data of bc1, bc1_qes, bc2 and bc3 are the
hand-derived ground factors and partial-fraction potentials that the
derivation from the root table replaced (`models.bc_gauge_data`), with the
printed potentials as they were written before their pair term was
derived.  `bc1_operator` and `bc1_qes_operator` are the hand-typed bc1 and
bc1_qes forms that the BC_N construction at N = 1 replaced, and
`g2_operator` is the hand-typed G2 form that the shared second-order
assembly replaced.
`restrict_to_flag` is the per-monomial loop that applied the
operator to each basis monomial, here through `apply` above.  The oracle functions are those from before the
per-check constants, each converting its Fractions anew on every call:
`invariants_map` runs the elementary-symmetric recursion once per
invariant.  `measured_energies` and `ttw_ground_check` are the residual
passes from before the exact derivatives: 4th-order central stencils at
step 10^-ceil(dps/6) (`stencil_step`), with Psi0, tau and the
monomials shared across the polynomials at each of the 4d + 1 points, and
the TTW ground factor at the 9 points of a polar stencil (`polar_residual`).
They agree with the exact pass to the stencil's error, about
10^(-2 dps/3), and they skip a point whose stencil meets a wall.  The TTW
point functions `ttw_ground_factor` and `ttw_potential` put the radial
factor on `psi0_cartesian` and `hamiltonian_potential` of the angular
spec, per call.  `exact_div` is the leading-term
division that rebuilt its Fraction remainder at every step, before the
integer-numerator loop, and `gauge_conjugate` with `common_denominator` and
`log_gradient_over_common` is the conjugation over the common denominator D
of the wall factors and its square, before the partial fractions over each
wall; its log gradient divides through `exact_div` here.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import mpmath
from mpmath import mp

from orbitforms.cartesian import (CheckGround, ResidualStats, SharedMonomials,
                                  _abs_sin_pow, _form_value,
                                  _inv_square, _laplacian, _node_floor,
                                  _relative, _second_difference, _shifted,
                                  kinetic_half, root_table,
                                  ttw_r2_coefficient, ttw_radial_power,
                                  ttw_sample)
from orbitforms.diffop import DiffOp, GaugeFactor
from orbitforms.errors import (DimensionMismatch, DomainError, FlagViolation,
                               UnsupportedOrder)
from orbitforms.poly import MultiPoly, RationalFn, to_mpf

ZERO = Fraction(0)
HALF = Fraction(1, 2)


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


def add(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    res = dict(a.terms)
    for e, c in b.terms.items():
        s = res.get(e, ZERO) + c
        if s:
            res[e] = s
        else:
            res.pop(e, None)
    return MultiPoly(a.nvars, res)


def neg(a: MultiPoly) -> MultiPoly:
    return MultiPoly(a.nvars, {e: -c for e, c in a.terms.items()})


def scale(a: MultiPoly, c) -> MultiPoly:
    c = Fraction(c)
    if not c:
        return MultiPoly.zero(a.nvars)
    return MultiPoly(a.nvars, {e: k * c for e, k in a.terms.items()})


def diff(a: MultiPoly, i: int, times: int = 1) -> MultiPoly:
    p = a
    for _ in range(times):
        res = {}
        for e, c in p.terms.items():
            if e[i]:
                shifted = list(e)
                shifted[i] -= 1
                res[tuple(shifted)] = c * e[i]
        p = MultiPoly(p.nvars, res)
    return p


def content(a: MultiPoly) -> Fraction:
    if not a.terms:
        return ZERO
    num = 0
    den = 1
    for c in a.terms.values():
        num = gcd(num, abs(c.numerator))
        den = den * c.denominator // gcd(den, c.denominator)
    cont = Fraction(num, den)
    lead = a.terms[max(a.terms, key=lambda e: (sum(e), e))]
    return cont if lead > 0 else -cont


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


def span_solve(word_ops, targets):
    """`algebra._span_solve` through the dense loop: one Fraction row per
    operator coefficient, the words its first columns, into `rref` above."""
    columns = [{(k, e): x for k, c in op.terms.items() for e, x in c.terms.items()}
               for op in (*word_ops, *targets)]
    ncols = len(word_ops)
    aug = [[v.get(k, ZERO) for v in columns] for k in sorted(set().union(*columns))]
    red, pivots = rref(aug, ncols)
    coefficients = [[ZERO] * ncols for _ in targets]
    for row, pc in zip(red, pivots):
        for j, solution in enumerate(coefficients):
            solution[pc] = row[ncols + j]
    escapes = [any(row[ncols + j] for row in red[len(pivots):])
               for j in range(len(targets))]
    return coefficients, escapes


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


def bc1_eigenvalue(nu2: Fraction, nu3: Fraction, p) -> Fraction:
    lin = 2 * nu2 + nu3
    (k,) = p
    return Fraction(k * k) + lin * k


def g2_eigenvalue(nu: Fraction, mu: Fraction, p) -> Fraction:
    p1, p2 = p
    return (Fraction(p1 * p1, 3) + p1 * p2 + p2 * p2
            + (mu + Fraction(2, 3) * nu) * p1 + (2 * mu + nu) * p2)


# -- the hand-typed ground energies kinetic |rho_k|^2 ------------------------------

def sutherland_e0(N: int, nu: Fraction) -> Fraction:
    return nu * nu * N * (N * N - 1) / 24


def bcn_e0(N: int, nu: Fraction, nu2: Fraction, nu3: Fraction) -> Fraction:
    return HALF * sum(((nu * (N - j) + nu2 + nu3 * HALF) ** 2
                       for j in range(1, N + 1)), ZERO)


def bc1_e0(nu2: Fraction, nu3: Fraction) -> Fraction:
    """bc1 and bc1_qes: BC_1 with the whole kinetic term."""
    return (nu2 + nu3 * HALF) ** 2


def g2_operator(nu: Fraction, mu: Fraction) -> DiffOp:
    t1, t2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    third = Fraction(1, 3)
    return DiffOp(2, {
        (2, 0): -(4 + t1 + third * t2 - third * t1 * t1),
        (1, 1): 12 + 4 * t2 + t1 * t2 - 2 * t1 * t1,
        (0, 2): 9 * t1 + 3 * t2 + 3 * t1 * t2 + t2 * t2 - t1 ** 3,
        (1, 0): MultiPoly.const(2, 2 * nu) + Fraction(1 + 3 * mu + 2 * nu, 3) * t1,
        (0, 1): MultiPoly.const(2, 6 * mu) + (1 + 2 * mu + nu) * t2 + 2 * nu * t1,
    })


def g2_e0(nu: Fraction, mu: Fraction) -> Fraction:
    return nu * nu + 3 * nu * mu + 3 * mu * mu


def sutherland_eigenvalue_printed(N: int, nu: Fraction, p) -> Fraction:
    lin = sum(nu * N * i * (N - i) * p[i - 1] for i in range(1, N))
    quad = sum((N - i) * j * p[i - 1] * p[j - 1]
               for i in range(1, N) for j in range(1, N))
    return Fraction(lin + quad, N)


def bcn_eigenvalue_printed(N: int, nu: Fraction, nu2: Fraction, nu3: Fraction,
                           p) -> Fraction:
    lin = sum((nu * (2 * N - i - 1) + 2 * nu2 + nu3) * i * p[i - 1]
              for i in range(1, N + 1))
    quad = sum(i * p[i - 1] * p[j - 1]
               for i in range(1, N + 1) for j in range(1, N + 1))
    return lin + quad


def g2_eigenvalue_printed(nu: Fraction, mu: Fraction, p) -> Fraction:
    p1, p2 = p
    return (Fraction(p1 * p1, 3) + p1 * p2 + p2 * p2
            + (mu + nu) * p1 + (2 * mu + nu) * p2)


# -- the hand-typed bc1 and bc1_qes operators ---------------------------------------

def _tau(nvars: int, i: int) -> MultiPoly:
    return MultiPoly.variable(nvars, i)


def bc1_operator(nu2: Fraction, nu3: Fraction) -> DiffOp:
    """(tau^2-1) d^2 + [(2 nu2 + nu3 + 1) tau + nu3] d."""
    t = _tau(1, 0)
    return DiffOp(1, {
        (2,): t * t - 1,
        (1,): (2 * nu2 + nu3 + 1) * t + nu3,
    })


def bc1_qes_operator(nu2: Fraction, nu3: Fraction, b: Fraction, n: int) -> DiffOp:
    """h_BC1 + 2b(tau^2-1) d - 2bn tau + 2b(n + nu2 + nu3 + 1/2)."""
    t = _tau(1, 0)
    delta = DiffOp(1, {
        (1,): 2 * b * (t * t - 1),
        (0,): -2 * b * n * t + MultiPoly.const(1, 2 * b * (n + nu2 + nu3 + HALF)),
    })
    return bc1_operator(nu2, nu3) + delta


# -- the hand-derived gauge data of bc1, bc1_qes, bc2 and bc3 ---------------------


def bc1_ground_factor(nu2: Fraction, nu3: Fraction) -> GaugeFactor:
    """(1+tau)^(nu2/2) (1-tau)^((nu2+nu3)/2)."""
    t = _tau(1, 0)
    return GaugeFactor(1, [(1 + t, nu2 * HALF), (1 - t, (nu2 + nu3) * HALF)])


def bc1_rational_potential(nu2: Fraction, nu3: Fraction) -> RationalFn:
    """g2/(2(1+tau)) + (g2+g3)/(2(1-tau)) with g2, g3 from nu2, nu3."""
    t = _tau(1, 0)
    g2 = nu2 * (nu2 - 1)
    g3 = nu3 * (nu3 + 2 * nu2 - 1)
    one = MultiPoly.const(1, 1)
    return (RationalFn(one * g2, 2 * (1 + t))
            + RationalFn(one * (g2 + g3), 2 * (1 - t)))


def bc1_qes_rational_potential(nu2: Fraction, nu3: Fraction, b: Fraction,
                               n: int) -> RationalFn:
    """g2/(1-tau^2) + g3/(2(1-tau)) + b^2(1-tau^2) + b(2n+2nu2+nu3+1)(1-tau)."""
    t = _tau(1, 0)
    g2 = nu2 * (nu2 - 1)
    g3 = nu3 * (nu3 + 2 * nu2 - 1)
    one = MultiPoly.const(1, 1)
    poly_part = b * b * (1 - t * t) + b * (2 * n + 2 * nu2 + nu3 + 1) * (1 - t)
    return (RationalFn(one * g2, 1 - t * t)
            + RationalFn(one * g3, 2 * (1 - t))
            + RationalFn.from_poly(poly_part))


def bc1_qes_ground_factor(nu2: Fraction, nu3: Fraction, b: Fraction,
                          orientation: int = +1) -> GaugeFactor:
    """BC1 factor times exp(orientation * b * tau)."""
    t = _tau(1, 0)
    base = bc1_ground_factor(nu2, nu3)
    return GaugeFactor(1, base.factors, t * (orientation * b))


def _bc2_discriminant() -> MultiPoly:
    t1, t2 = _tau(2, 0), _tau(2, 1)
    return t1 * t1 - 4 * t2


def _bc3_discriminant() -> MultiPoly:
    # discriminant of t^3 - tau1 t^2 + tau2 t - tau3 (cubic in the cosines);
    # the -4 tau2^3 term is cubic, restoring the weight-6 homogeneity
    t1, t2, t3 = _tau(3, 0), _tau(3, 1), _tau(3, 2)
    return (t1 * t1 * t2 * t2 - 4 * t1 ** 3 * t3 - 4 * t2 ** 3
            - 27 * t3 * t3 + 18 * t1 * t2 * t3)


def bc2_rational_potential(nu, nu2, nu3) -> RationalFn:
    """Rational potential of the two-variable model.

    Derived by exact partial fractions from the Cartesian sums
    (1/sin^2 walls); the pair term g(1-tau2)/disc matches the classical
    expression, the wall terms pair g2 with the (1+tau1+tau2) factor and
    g2+g3 with (1-tau1+tau2), mirroring the one-variable pattern.
    """
    g = nu * (nu - 1)
    g2 = nu2 * (nu2 - 1)
    g3 = nu3 * (nu3 + 2 * nu2 - 1)
    t1, t2 = _tau(2, 0), _tau(2, 1)
    return (RationalFn(g * (1 - t2), _bc2_discriminant())
            + RationalFn(g2 * (2 + t1) * Fraction(1, 4), 1 + t1 + t2)
            + RationalFn((g2 + g3) * (2 - t1) * Fraction(1, 4), 1 - t1 + t2))


def bc2_rational_potential_printed(nu, nu2, nu3) -> RationalFn:
    """The printed variant, as written before its pair term was derived."""
    g = nu * (nu - 1)
    g2 = nu2 * (nu2 - 1)
    g3 = nu3 * (nu3 + 2 * nu2 - 1)
    t1, t2 = _tau(2, 0), _tau(2, 1)
    return (RationalFn(g * (1 - t2), _bc2_discriminant())
            + RationalFn(g2 * (2 - t1) * Fraction(1, 4), 1 + t1 + t2)
            + RationalFn((2 * (g2 + g3) + g2 * t1 - g3 * t2) * Fraction(1, 4),
                         1 - t1 + t2))


def bc2_ground_factor(nu, nu2, nu3) -> GaugeFactor:
    t1, t2 = _tau(2, 0), _tau(2, 1)
    return GaugeFactor(2, [
        (_bc2_discriminant(), nu * HALF),
        (1 + t1 + t2, nu2 * HALF),
        (1 - t1 + t2, (nu2 + nu3) * HALF),
    ])


def _bc3_pair_numerator() -> MultiPoly:
    t1, t2, t3 = _tau(3, 0), _tau(3, 1), _tau(3, 2)
    return (t1 ** 4 - t1 ** 3 * t3 - 6 * t1 * t1 * t2 + 9 * t1 * t2 * t3
            + 9 * t2 * t2 - t2 ** 3 - 27 * t3 * t3)


def bc3_rational_potential(nu, nu2, nu3) -> RationalFn:
    """Rational potential of the three-variable model.

    The pair-term numerator equals the printed quartic (verified by an exact
    fit against the Cartesian sums); the wall terms follow the sum rules
    sum 1/(1 -+ c_i) = q'(+-1)/q(+-1) for q(t) = t^3 - tau1 t^2 + tau2 t - tau3,
    giving coefficients g2/4 and (g2+g3)/4.
    """
    g = nu * (nu - 1)
    g2 = nu2 * (nu2 - 1)
    g3 = nu3 * (nu3 + 2 * nu2 - 1)
    t1, t2, t3 = _tau(3, 0), _tau(3, 1), _tau(3, 2)
    return (RationalFn(g * _bc3_pair_numerator(), _bc3_discriminant())
            + RationalFn(g2 * (3 + 2 * t1 + t2) * Fraction(1, 4), 1 + t1 + t2 + t3)
            + RationalFn((g2 + g3) * (3 - 2 * t1 + t2) * Fraction(1, 4),
                         1 - t1 + t2 - t3))


def bc3_rational_potential_printed(nu, nu2, nu3) -> RationalFn:
    """The printed variant, as written before its pair term was derived."""
    g = nu * (nu - 1)
    g2 = nu2 * (nu2 - 1)
    g3 = nu3 * (nu3 + 2 * nu2 - 1)
    t1, t2, t3 = _tau(3, 0), _tau(3, 1), _tau(3, 2)
    return (RationalFn(g * _bc3_pair_numerator(), _bc3_discriminant())
            + RationalFn(g2 * (3 + 2 * t1 + t2) * HALF, 1 + t1 + t2 + t3)
            + RationalFn((g2 + 4 * g3) * (3 - 2 * t1 + t2) * Fraction(1, 4),
                         1 - t1 + t2 - t3))


def bc3_ground_factor(nu, nu2, nu3) -> GaugeFactor:
    t1, t2, t3 = _tau(3, 0), _tau(3, 1), _tau(3, 2)
    return GaugeFactor(3, [
        (_bc3_discriminant(), nu * HALF),
        (1 + t1 + t2 + t3, nu2 * HALF),
        (1 - t1 + t2 - t3, (nu2 + nu3) * HALF),
    ])


# -- the symmetric reduction on full expansions -------------------------------

def symmetric_reduce(nvars: int, terms) -> dict:
    """Leading-term elimination in lex order with every product of the e_k
    expanded in full, and every term of the polynomial kept."""
    def dominant(a):
        return all(x >= y for x, y in zip(a, a[1:]))

    elementary = [MultiPoly(nvars, {tuple(int(i in s) for i in range(nvars)): 1
                                    for s in combinations(range(nvars), k)})
                  for k in range(1, nvars + 1)]
    rest = MultiPoly(nvars, terms)
    reduced = {}
    while not rest.is_zero():
        a = max(rest.terms)
        assert dominant(a), "not symmetric"
        c = rest.terms[a]
        b = tuple(x - y for x, y in zip(a, a[1:] + (0,)))
        reduced[b] = int(c)
        product = MultiPoly.const(nvars, c)
        for e_k, power in zip(elementary, b):
            for _ in range(power):
                product = mul(product, e_k)
        rest = rest - product
    return reduced


def bc_pairs(N: int):
    """(disc, pair) of BC_N: every pair term multiplied out in full."""
    x = [MultiPoly.variable(N, i) for i in range(N)]
    pairs = list(combinations(range(N), 2))
    disc = MultiPoly.const(N, 1)
    pair = MultiPoly.zero(N)
    for i, j in pairs:
        disc = mul(disc, mul(x[i] - x[j], x[i] - x[j]))
        term = 4 - 4 * mul(x[i], x[j])
        for k, l in pairs:
            if (k, l) != (i, j):
                term = mul(term, mul(x[k] - x[l], x[k] - x[l]))
        pair = pair + term
    return tuple(MultiPoly(N, symmetric_reduce(N, {e: int(c) for e, c in p.terms.items()}))
                 for p in (disc, pair))


def _elementary_symmetric(vals, k):
    n = len(vals)
    e = [mp.mpf(0)] * (n + 1)
    e[0] = mp.mpf(1)
    for v in vals:
        for i in range(n, 0, -1):
            e[i] = e[i] + e[i - 1] * v
    return e[k]


def invariants_map(spec, x, beta=1):
    beta = to_mpf(beta)
    fam = spec.family
    if fam in ("BC1", "BC1_QES"):
        return [mpmath.cos(beta * x[0])]
    if fam == "SUTHERLAND":
        N = spec.N
        y = _relative(x)
        z = [mpmath.exp(1j * beta * yi) for yi in y]
        return [_elementary_symmetric(z, k) for k in range(1, N)]
    if fam == "BCN":
        c = [mpmath.cos(beta * xi) for xi in x]
        return [_elementary_symmetric(c, k) for k in range(1, spec.N + 1)]
    y = _relative(x)
    t1 = 2 * (mpmath.cos(beta * (y[0] - y[1]))
              + mpmath.cos(beta * (y[0] - y[2]))
              + mpmath.cos(beta * (y[1] - y[2])))
    t2 = 2 * sum(mpmath.cos(3 * beta * yi) for yi in y)
    return [t1, t2]


def psi0_cartesian(spec, x, beta=1):
    beta = to_mpf(beta)
    floor = _node_floor()
    v = mp.mpf(1)
    for orbit in root_table(spec):
        g = to_mpf(orbit.exponent)
        for form in orbit.forms:
            v *= _abs_sin_pow(beta * _form_value(form, x) / 2, g, floor)
    if spec.family == "BC1_QES":
        v *= mpmath.exp(to_mpf(spec.b) * mpmath.cos(beta * x[0]))
    return v


def hamiltonian_potential(spec, x, beta=1):
    beta = to_mpf(beta)
    b2 = beta * beta
    v = 0
    for orbit in root_table(spec):
        v += to_mpf(orbit.potential) * b2 * sum(
            _inv_square(mpmath.sin(beta * _form_value(form, x) / 2))
            for form in orbit.forms)
    if spec.family == "BC1_QES":
        bb = to_mpf(spec.b)
        v += (bb * bb * b2 * mpmath.sin(beta * x[0]) ** 2
              + 2 * bb * b2 * to_mpf(2 * spec.n + 2 * spec.nu2 + spec.nu3 + 1)
              * mpmath.sin(beta * x[0] / 2) ** 2)
    return v


def _ttw_radius(r):
    r = mpmath.mpf(r) if not isinstance(r, mpmath.mpf) else r
    if r <= 0:
        raise DomainError("radial coordinate must be positive")
    return r


def ttw_potential(desc, r, phi, dps):
    """The radial well plus `hamiltonian_potential` of the angular spec at
    phi over r^2."""
    with mp.workdps(dps):
        r = _ttw_radius(r)
        v = ttw_r2_coefficient(desc, dps) * r ** 2
        if desc.has_sextic:
            a, omega = to_mpf(desc.a), to_mpf(desc.omega)
            v += a * a * r ** 6 + 2 * a * omega * r ** 4
        return v + hamiltonian_potential(desc.angular_spec, [phi], desc.beta) / r ** 2


def ttw_ground_factor(desc, r, phi, dps):
    """r^gamma exp(-omega r^2/2 [- a r^4/4]) times `psi0_cartesian` of the
    angular spec at phi, with b -> -b in the printed convention."""
    with mp.workdps(dps):
        r = _ttw_radius(r)
        v = r ** ttw_radial_power(desc, dps)
        expo = -to_mpf(desc.omega) * r ** 2 / 2
        if desc.has_sextic:
            expo -= to_mpf(desc.a) * r ** 4 / 4
        spec = desc.angular_spec
        if desc.has_angular_qes and desc.convention == "printed":
            spec = dataclasses.replace(spec, b=-spec.b)
        return v * mpmath.exp(expo) * psi0_cartesian(spec, [phi], desc.beta)


def stencil_step():
    """h = 10^-ceil(dps/6): the stencil's h^4 truncation error then matches
    its 10^-dps / h^2 round-off at the working precision."""
    return mpmath.mpf(10) ** (-mp.dps // 6)


def measured_energies(bundle, polys, sample, *, beta=1, dps=40):
    """(H Psi)/Psi per polynomial and point by the stencil: a point is None
    for every polynomial when a stencil point meets a singular wall, and for
    one polynomial when its |Psi| there is below 10^(-dps/2)."""
    energies = [[] for _ in polys]
    shared = SharedMonomials(polys)
    with mp.workdps(dps):
        ground = CheckGround(bundle.spec, beta)

        def psi0_and_tau(y):
            return ground.psi0(y), ground.invariants(y)
        h = stencil_step()
        floor = mpmath.mpf(10) ** (-dps // 2)
        coeff = mpmath.mpf(1) / 2 if kinetic_half(bundle.spec) else mpmath.mpf(1)
        for x in sample:
            try:
                psi0, tau = psi0_and_tau(x)
                monomials = shared.at(tau)
                centres = [psi0 * shared.value(k, monomials)
                           for k in range(len(polys))]
                live = [abs(centre) >= floor for centre in centres]
                if any(live):
                    stencil = [[(g, shared.at(t))
                                for g, t in _shifted(psi0_and_tau, x, i, h)]
                               for i in range(len(x))]
                    potential = ground.potential(x)
            except DomainError:
                for measured in energies:
                    measured.append(None)
                continue
            for k, (centre, ok, measured) in enumerate(zip(centres, live, energies)):
                if not ok:
                    measured.append(None)
                    continue
                lap = _laplacian(([g * shared.value(k, m) for g, m in shifted]
                                  for shifted in stencil), centre, h)
                measured.append((-coeff * lap + potential * centre) / centre)
    return energies


def ttw_ground_check(desc, npoints, seed, dps):
    sample = ttw_sample(desc, npoints, seed)
    with mp.workdps(dps):
        h = stencil_step()
        values = []
        skipped = 0
        for (r, phi) in sample:
            try:
                values.append(polar_residual(desc, r, phi, h, dps))
            except DomainError:
                skipped += 1
        return ResidualStats.from_values(values, skipped, 0)


def polar_residual(desc, r, phi, h, dps):
    """(H Psi0)/Psi0 at (r, phi) for H = -d_r^2 - (1/r) d_r - (1/r^2) d_phi^2
    + V, by 4th-order stencils at step h on `ttw_ground_factor`.  d_r^2 and
    d_r read the same four radial points."""
    def factor(rr, pp):
        return ttw_ground_factor(desc, rr, pp, dps)
    centre = factor(r, phi)
    radial = [factor(r + k * h, phi) for k in (1, -1, 2, -2)]
    angular = [factor(r, phi + k * h) for k in (1, -1, 2, -2)]
    p1, m1, p2, m2 = radial
    lap_r = _second_difference(radial, centre, h)
    der_r = (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h)
    lap_phi = _second_difference(angular, centre, h)
    return (-lap_r - der_r / r - lap_phi / r ** 2
            + ttw_potential(desc, r, phi, dps) * centre) / centre


def exact_div(p: MultiPoly, divisor: MultiPoly):
    """`MultiPoly.exact_div` as the Fraction loop that rebuilt the whole
    remainder polynomial at every leading-term step."""
    if divisor.is_zero():
        raise DomainError("division by the zero polynomial")
    if p.is_zero():
        return MultiPoly.zero(p.nvars)

    def grlex(e):
        return (sum(e), e)

    de, dc = divisor.leading_term()
    quotient = {}
    rem = p
    while not rem.is_zero():
        re, rc = rem.leading_term()
        qe = tuple(a - b for a, b in zip(re, de))
        if any(x < 0 for x in qe):
            return None
        qc = rc / dc
        quotient[qe] = quotient.get(qe, ZERO) + qc
        rem = rem - mul(divisor, MultiPoly.monomial(p.nvars, qe, qc))
        if not rem.is_zero() and grlex(rem.leading_term()[0]) >= grlex(re):
            return None  # no progress: not divisible
    return MultiPoly(p.nvars, quotient)


def common_denominator(factor: GaugeFactor) -> MultiPoly:
    d = MultiPoly.const(factor.nvars, 1)
    for base, _ in factor.factors:
        d = d * base
    return d


def log_gradient_over_common(factor: GaugeFactor):
    """Numerators N_i and shared denominator D with G_i = N_i / D."""
    d = common_denominator(factor)
    nums = []
    for i in range(factor.nvars):
        n = MultiPoly.zero(factor.nvars)
        for base, expo in factor.factors:
            other = exact_div(d, base)
            n = n + expo * base.diff(i) * other
        n = n + factor.exp_arg.diff(i) * d
        nums.append(n)
    return nums, d


def gauge_conjugate(op: DiffOp, factor: GaugeFactor) -> DiffOp:
    """`diffop.gauge_conjugate` as it stood before the partial fractions:
    grad log F over the common denominator D = prod P_k, the first order
    over D and the zeroth order over D^2, added to C by cross
    multiplication."""
    if op.order() > 2:
        raise UnsupportedOrder("gauge conjugation implemented for order <= 2 only")
    if factor.nvars != op.nvars:
        raise DimensionMismatch("gauge factor variable count mismatch")
    n = op.nvars
    if not factor.factors and factor.exp_arg.is_zero():
        return op

    A = [[MultiPoly.zero(n) for _ in range(n)] for _ in range(n)]
    B = [MultiPoly.zero(n) for _ in range(n)]
    C = MultiPoly.zero(n)
    second = {}
    for k, c in op.terms.items():
        total = sum(k)
        if total and not isinstance(c, MultiPoly):
            raise DomainError("first- and second-order coefficients must be polynomial")
        if total == 2:
            second[k] = c
            idx = [i for i, p in enumerate(k) for _ in range(p)]
            i, j = idx[0], idx[1]
            if i == j:
                A[i][i] = A[i][i] + c
            else:
                half = c * HALF
                A[i][j] = A[i][j] + half
                A[j][i] = A[j][i] + half
        elif total == 1:
            i = k.index(1)
            B[i] = B[i] + c
        else:
            C = c

    nums, den = log_gradient_over_common(factor)
    den2 = den * den

    first_terms = {}
    for i in range(n):
        num = B[i] * den
        for j in range(n):
            if not A[i][j].is_zero() and not nums[j].is_zero():
                num = num + 2 * A[i][j] * nums[j]
        if num.is_zero():
            continue
        k = [0] * n
        k[i] = 1
        first_terms[tuple(k)] = RationalFn(num, den)

    zero_num = MultiPoly.zero(n)
    for i in range(n):
        for j in range(n):
            if A[i][j].is_zero():
                continue
            dg = nums[j].diff(i) * den - nums[j] * den.diff(i)
            zero_num = zero_num + A[i][j] * (dg + nums[i] * nums[j])
        if not B[i].is_zero() and not nums[i].is_zero():
            zero_num = zero_num + B[i] * nums[i] * den
    czero = C + RationalFn(zero_num, den2)

    terms = dict(second)
    terms.update(first_terms)
    if not czero.is_zero():
        terms[(0,) * n] = czero
    return DiffOp(n, terms)
