"""Constructors for the trigonometric model family in orbit variables.

Each exactly-solvable model is delivered as a ModelBundle: the algebraic-form
operator h (polynomial coefficients), its validated flags, the ground energy
in gauge units and a closed-form eigenvalue handle, built by build_*; and the
gauge data, built on first access: the ground-state factor in orbit
variables and, where available, the rational form (Laplace-Beltrami part plus
rational potential).  Only the gauge identity reads the gauge data, so the
spectra, flags, pi-integrals and algebras never pay for it.

Conventions, fixed once and verified by the suites:

* the rational form is  H(tau) = Delta_g + V(tau)  where Delta_g equals the
  algebraic operator at zero couplings; with this sign the conjugation by the
  ground factor reproduces the algebraic form exactly;
* ground energies are in gauge units (Cartesian energy = e0 * beta^2 for the
  families with unit kinetic normalization);
* every closed-form spectrum is one quadratic form, built by _quadratic_form
  once per bundle (for Sutherland and BC_N on the symmetric weight Gram
  matrices); the printed one-sided readings are kept alongside for the
  discrepancy reports.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .diffop import DiffOp, GaugeFactor
from .errors import DomainError, UnsupportedModel
from .poly import (CharVector, Exponents, FlagSpace, MultiPoly, RationalFn,
                   Scalar, from_integer_terms, integer_terms)

ZERO = Fraction(0)
HALF = Fraction(1, 2)

FAMILIES = ("BC1", "BC1_QES", "SUTHERLAND", "BCN", "G2", "MW",
            "TTW", "TTW_QES_RADIAL", "TTW_QES_ANGULAR", "TTW_QES_FULL")


@dataclass(frozen=True)
class ModelSpec:
    """Family tag plus exact rational parameters; single source of truth."""

    family: str
    N: int | None = None
    nu: Fraction | None = None
    nu2: Fraction | None = None
    nu3: Fraction | None = None
    mu: Fraction | None = None
    b: Fraction | None = None
    a: Fraction | None = None
    omega: Fraction | None = None
    beta: Fraction | None = None
    n: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown model family {self.family!r}")
        if self.n is not None and self.n < 0:
            raise DomainError("QES level n must be non-negative")
        if self.m is not None and self.m < 0:
            raise DomainError("QES level m must be non-negative")
        # hashed once: the oracle's root table is looked up per psi0 call
        object.__setattr__(self, "_hash", hash(astuple(self)))

    def __hash__(self):
        return self._hash


# (ground factor, rational form, rational potential); the last two None
# where the family has no rational form
GaugeData = tuple[GaugeFactor, DiffOp | None, RationalFn | None]


@dataclass(frozen=True)
class ModelBundle:
    """A model's algebraic operator, flags and spectrum, and its gauge data.

    gauge builds (ground_factor, rational_form, rational_potential), once
    per bundle object, when one of the three is first read; the result is
    kept on that object only.  gauge takes no part in ==, hash or repr, and
    dataclasses.replace gives a bundle with the same callable, nothing built.
    """

    spec: ModelSpec
    d: int
    h: DiffOp
    flags: tuple[CharVector, ...]  # preserved gradings, the first one default
    e0: Fraction | None          # gauge-unit ground energy; None => fitted
    eigenvalue: Callable[[Exponents], Fraction] | None
    gauge: Callable[[], GaugeData] = field(compare=False, repr=False)

    @cached_property
    def _gauge_data(self) -> GaugeData:
        return self.gauge()

    @property
    def ground_factor(self) -> GaugeFactor:
        return self._gauge_data[0]

    @property
    def rational_form(self) -> DiffOp | None:
        return self._gauge_data[1]

    @property
    def rational_potential(self) -> RationalFn | None:
        return self._gauge_data[2]

    @property
    def char_vector(self) -> CharVector:
        return self.flags[0]

    def flag(self, n: int, vector: CharVector | None = None) -> FlagSpace:
        return FlagSpace(self.d, vector or self.char_vector, n)


def _no_rational_form(d: int) -> Callable[[], GaugeData]:
    # the orbit-space factor is not polynomial; the Cartesian module owns it
    return lambda: (GaugeFactor(d), None, None)


def _tau(nvars: int, i: int) -> MultiPoly:
    return MultiPoly.variable(nvars, i)


def _clipped_taus(nvars: int, top: int, top_is_one: bool) -> dict[int, Exponents]:
    """Exponents of tau_k for the k where it is not zero, under the boundary
    convention tau_0 = 1, tau_k = 0 outside [0, top], and tau_top = 1 when
    top_is_one is set (relative invariants)."""
    const = (0,) * nvars
    taus = {0: const}
    for k in range(1, top + 1):
        taus[k] = const if k == top and top_is_one else const[:k - 1] + (1,) + const[k:]
    return taus


def _pair_sum(taus: dict[int, Exponents],
              pairs: Iterable[tuple[Scalar, int, int]],
              den: int = 1) -> MultiPoly:
    """sum c * tau_a * tau_b / den over the (c, a, b) contributions.

    With the clipped taus each product is one monomial, the constant 1 or
    zero, so the int or Fraction coefficients are summed straight into a
    term dict, deleting a key whose sum reaches zero, as MultiPoly addition
    does.  The terms therefore come in the order of the polynomial sum taken
    one pair at a time.  Zero contributions are skipped.
    """
    total: dict[Exponents, Scalar] = {}
    for c, a, b in pairs:
        if c and a in taus and b in taus:
            e = tuple(map(add, taus[a], taus[b]))
            s = total.get(e, 0) + c
            if s:
                total[e] = s
            else:
                del total[e]
    return from_integer_terms(len(taus[0]), den, total)


# ---------------------------------------------------------------------------
# BC1
# ---------------------------------------------------------------------------

def bc1_operator(nu2: Fraction, nu3: Fraction) -> DiffOp:
    """(tau^2-1) d^2 + [(2 nu2 + nu3 + 1) tau + nu3] d."""
    t = _tau(1, 0)
    return DiffOp(1, {
        (2,): t * t - 1,
        (1,): (2 * nu2 + nu3 + 1) * t + nu3,
    })


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


def build_bc1(nu2, nu3) -> ModelBundle:
    nu2, nu3 = Fraction(nu2), Fraction(nu3)
    spec = ModelSpec("BC1", nu2=nu2, nu3=nu3)
    h = bc1_operator(nu2, nu3)
    e0 = (nu2 + nu3 * HALF) ** 2

    def gauge() -> GaugeData:
        potential = bc1_rational_potential(nu2, nu3)
        delta_g = bc1_operator(Fraction(0), Fraction(0))
        return (bc1_ground_factor(nu2, nu3),
                delta_g + DiffOp(1, {(0,): potential}), potential)

    # eps = k^2 + (2 nu2 + nu3) k
    return ModelBundle(spec=spec, d=1, h=h, flags=((1,),), e0=e0,
                       eigenvalue=_quadratic_form([2 * nu2 + nu3], [[1]]),
                       gauge=gauge)


# ---------------------------------------------------------------------------
# QES BC1
# ---------------------------------------------------------------------------

def bc1_qes_operator(nu2: Fraction, nu3: Fraction, b: Fraction, n: int) -> DiffOp:
    """h_BC1 + 2b(tau^2-1) d - 2bn tau + 2b(n + nu2 + nu3 + 1/2)."""
    t = _tau(1, 0)
    delta = DiffOp(1, {
        (1,): 2 * b * (t * t - 1),
        (0,): -2 * b * n * t + MultiPoly.const(1, 2 * b * (n + nu2 + nu3 + HALF)),
    })
    return bc1_operator(nu2, nu3) + delta


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
    """BC1 factor times exp(orientation * b * tau).

    orientation +1 is the one that reproduces the rational QES form under
    conjugation (the opposite sign appears in some printed eigenfunctions;
    the gauge suite tests both and records the working one).
    """
    t = _tau(1, 0)
    base = bc1_ground_factor(nu2, nu3)
    return GaugeFactor(1, base.factors, t * (orientation * b))


def build_bc1_qes(nu2, nu3, b, n: int) -> ModelBundle:
    nu2, nu3, b = Fraction(nu2), Fraction(nu3), Fraction(b)
    if n < 0:
        raise DomainError("QES level must be non-negative")
    spec = ModelSpec("BC1_QES", nu2=nu2, nu3=nu3, b=b, n=n)
    h = bc1_qes_operator(nu2, nu3, b, n)

    def gauge() -> GaugeData:
        potential = bc1_qes_rational_potential(nu2, nu3, b, n)
        delta_g = bc1_operator(Fraction(0), Fraction(0))
        return (bc1_qes_ground_factor(nu2, nu3, b),
                delta_g + DiffOp(1, {(0,): potential}), potential)

    return ModelBundle(spec=spec, d=1, h=h, flags=((1,),),
                       e0=(nu2 + nu3 * HALF) ** 2, eigenvalue=None, gauge=gauge)


# ---------------------------------------------------------------------------
# Sutherland (A_{N-1})
# ---------------------------------------------------------------------------

def sutherland_coefficients(N: int, nu: Fraction):
    """Second- and first-order coefficient polynomials of the algebraic form.

    A_ij = ((N-i) j / N) tau_i tau_j
           + sum_{l >= max(1, j-i)} (j - i - 2l) tau_{i+l} tau_{j-l},
    B_i  = (1/N + nu) i (N-i) tau_i,
    with tau_0 = tau_N = 1 and tau_k = 0 outside [0, N].

    Pair-table form: A_ij is the list of its (c, a, b) pairs, each product
    tau_a tau_b one monomial, 1 or 0, summed by _pair_sum in ints over the
    denominator N (B_i pairs tau_i with tau_0 = 1).  Term order: the pairs
    are added one at a time in the order above, and a term whose running sum
    reaches zero is deleted and comes back last, so each A_ij lists its
    terms as the polynomial sum written above does.  A does not depend on nu.
    """
    taus = _clipped_taus(N - 1, N, top_is_one=True)
    A = {}
    for i in range(1, N):
        for j in range(1, N):
            pairs = [((N - i) * j, i, j)]
            l = max(1, j - i)
            while i + l <= N and j - l >= 0:
                pairs.append(((j - i - 2 * l) * N, i + l, j - l))
                l += 1
            acc = _pair_sum(taus, pairs, N)
            if not acc.is_zero():
                A[(i, j)] = acc
    B = {i: _pair_sum(taus, [((Fraction(1, N) + nu) * i * (N - i), i, 0)])
         for i in range(1, N)}
    return A, B


def _assemble_second_order(d: int, A: dict, B: dict) -> DiffOp:
    terms: dict[Exponents, MultiPoly] = {}
    for (i, j), coeff in A.items():
        k = [0] * d
        k[i - 1] += 1
        k[j - 1] += 1
        key = tuple(k)
        terms[key] = terms.get(key, MultiPoly.zero(d)) + coeff
    for i, coeff in B.items():
        if coeff.is_zero():
            continue
        k = [0] * d
        k[i - 1] = 1
        key = tuple(k)
        terms[key] = terms.get(key, MultiPoly.zero(d)) + coeff
    return DiffOp(d, terms)


def sutherland_operator(N: int, nu: Fraction) -> DiffOp:
    A, B = sutherland_coefficients(N, nu)
    return _assemble_second_order(N - 1, A, B)


def _quadratic_form(lin: Sequence[Fraction], gram: Sequence[Sequence[int]],
                    scale: int = 1) -> Callable[[Exponents], Fraction]:
    """p -> (sum_i lin_i p_i + sum_ij gram_ij p_i p_j) / scale.

    The linear coefficients are brought to int numerators over one
    denominator here, so each call sums ints and makes one Fraction.
    """
    den, nums = integer_terms(dict(enumerate(lin)))
    nums = tuple(nums.values())
    rows = tuple(map(tuple, gram))

    def form(p: Exponents) -> Fraction:
        quad = sum(x * sum(map(mul, row, p)) for x, row in zip(p, rows))
        return Fraction(sum(map(mul, nums, p)) + den * quad, den * scale)

    return form


def sutherland_eigenvalue(N: int, nu: Fraction) -> Callable[[Exponents], Fraction]:
    """p -> eps, where N eps = nu N sum_i i(N-i) p_i
                               + sum_ij [N min(i,j) - i j] p_i p_j.

    The quadratic form is the A_{N-1} weight Gram matrix; the one-sided
    printed reading (N-i) j agrees with it on i >= j.
    """
    return _quadratic_form(
        [nu * N * i * (N - i) for i in range(1, N)],
        [[N * min(i, j) - i * j for j in range(1, N)] for i in range(1, N)], N)


def sutherland_eigenvalue_printed(N: int, nu: Fraction, p: Exponents) -> Fraction:
    """Verbatim one-sided reading sum_ij (N-i) j p_i p_j, kept for reports."""
    lin = sum(nu * N * i * (N - i) * p[i - 1] for i in range(1, N))
    quad = sum((N - i) * j * p[i - 1] * p[j - 1]
               for i in range(1, N) for j in range(1, N))
    return Fraction(lin + quad, N)


def build_sutherland(N: int, nu) -> ModelBundle:
    if N < 2:
        raise DomainError("Sutherland model needs N >= 2")
    nu = Fraction(nu)
    spec = ModelSpec("SUTHERLAND", N=N, nu=nu)
    d = N - 1
    h = sutherland_operator(N, nu)
    return ModelBundle(spec=spec, d=d, h=h, flags=((1,) * d,), e0=None,
                       eigenvalue=sutherland_eigenvalue(N, nu),
                       gauge=_no_rational_form(d))


# ---------------------------------------------------------------------------
# BC_N
# ---------------------------------------------------------------------------

def bcn_coefficients(N: int, nu: Fraction, nu2: Fraction, nu3: Fraction):
    """Printed coefficient family with tau_0 = 1, tau_k = 0 outside [0, N]:

    A_ij = -N tau_{i-1} tau_{j-1} + sum_{l=0}^{N+1} [
               (i-l) tau_{i-l} tau_{j+l} + (l+j-1) tau_{i-l-1} tau_{j+l-1}
               - (i-2-l) tau_{i-2-l} tau_{j+l} - (l+j+1) tau_{i-l-1} tau_{j+l+1}],
    B_i  = [1 + nu(2N-i-1) + 2 nu2 + nu3] i tau_i - nu3 (i-N-1) tau_{i-1}
           + nu (N-i+1)(N-i+2) tau_{i-2}.

    Pair-table form: A_ij is the list of its (c, a, b) pairs, each product
    tau_a tau_b one monomial, 1 or 0, summed by _pair_sum in ints (B_i pairs
    its taus with tau_0 = 1).  Term order: the pairs are added one at a time
    in the order above, and a term whose running sum reaches zero is deleted
    and comes back last.  For every N up to the N ceiling this lists the
    terms of each A_ij as the bracketed polynomial sum above does (the
    tests compare them term by term).  A does not depend on the couplings,
    so build_bcn assembles h and Delta_g from one A.
    """
    return _bcn_second_order(N), _bcn_first_order(N, nu, nu2, nu3)


def _bcn_second_order(N: int) -> dict[tuple[int, int], MultiPoly]:
    """The coupling-free A of bcn_coefficients."""
    taus = _clipped_taus(N, N, top_is_one=False)
    A = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            pairs = [(-N, i - 1, j - 1)]
            for l in range(0, N + 2):
                pairs += [(i - l, i - l, j + l),
                          (l + j - 1, i - l - 1, j + l - 1),
                          (-(i - 2 - l), i - 2 - l, j + l),
                          (-(l + j + 1), i - l - 1, j + l + 1)]
            acc = _pair_sum(taus, pairs)
            if not acc.is_zero():
                A[(i, j)] = acc
    return A


def _bcn_first_order(N: int, nu: Fraction, nu2: Fraction, nu3: Fraction
                     ) -> dict[int, MultiPoly]:
    taus = _clipped_taus(N, N, top_is_one=False)
    return {i: _pair_sum(taus, [
        ((1 + nu * (2 * N - i - 1) + 2 * nu2 + nu3) * i, i, 0),
        (-(nu3 * (i - N - 1)), i - 1, 0),
        (nu * (N - i + 1) * (N - i + 2), i - 2, 0)]) for i in range(1, N + 1)}


def bcn_eigenvalue(N: int, nu: Fraction, nu2: Fraction, nu3: Fraction
                   ) -> Callable[[Exponents], Fraction]:
    """p -> eps = sum_i [nu(2N-i-1) + 2 nu2 + nu3] i p_i + sum_ij min(i,j) p_i p_j.

    min(i,j) is the C_N weight Gram matrix; the printed one-sided reading
    i p_i p_j agrees with it on i <= j.
    """
    return _quadratic_form(
        [(nu * (2 * N - i - 1) + 2 * nu2 + nu3) * i for i in range(1, N + 1)],
        [[min(i, j) for j in range(1, N + 1)] for i in range(1, N + 1)])


def bcn_eigenvalue_printed(N: int, nu: Fraction, nu2: Fraction, nu3: Fraction,
                           p: Exponents) -> Fraction:
    lin = sum((nu * (2 * N - i - 1) + 2 * nu2 + nu3) * i * p[i - 1]
              for i in range(1, N + 1))
    quad = sum(i * p[i - 1] * p[j - 1]
               for i in range(1, N + 1) for j in range(1, N + 1))
    return lin + quad


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
    """Verbatim printed variant, kept for the discrepancy reports."""
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
    gnum = (t1 ** 4 - t1 ** 3 * t3 - 6 * t1 * t1 * t2 + 9 * t1 * t2 * t3
            + 9 * t2 * t2 - t2 ** 3 - 27 * t3 * t3)
    return (RationalFn(g * gnum, _bc3_discriminant())
            + RationalFn(g2 * (3 + 2 * t1 + t2) * Fraction(1, 4), 1 + t1 + t2 + t3)
            + RationalFn((g2 + g3) * (3 - 2 * t1 + t2) * Fraction(1, 4),
                         1 - t1 + t2 - t3))


def bc3_rational_potential_printed(nu, nu2, nu3) -> RationalFn:
    """Verbatim printed variant, kept for the discrepancy reports."""
    g = nu * (nu - 1)
    g2 = nu2 * (nu2 - 1)
    g3 = nu3 * (nu3 + 2 * nu2 - 1)
    t1, t2, t3 = _tau(3, 0), _tau(3, 1), _tau(3, 2)
    gnum = (t1 ** 4 - t1 ** 3 * t3 - 6 * t1 * t1 * t2 + 9 * t1 * t2 * t3
            + 9 * t2 * t2 - t2 ** 3 - 27 * t3 * t3)
    return (RationalFn(g * gnum, _bc3_discriminant())
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


def build_bcn(N: int, nu, nu2, nu3) -> ModelBundle:
    if N < 1:
        raise DomainError("BC_N needs N >= 1")
    nu, nu2, nu3 = Fraction(nu), Fraction(nu2), Fraction(nu3)
    spec = ModelSpec("BCN", N=N, nu=nu, nu2=nu2, nu3=nu3)
    A, B = bcn_coefficients(N, nu, nu2, nu3)
    h = _assemble_second_order(N, A, B)

    # The algebraic form matches the 2/beta^2 gauge of the half-kinetic
    # Hamiltonian (at N=1 it reduces verbatim to the one-variable operator,
    # whose Cartesian form drops the 1/2); hence the rational form in gauge
    # units is Delta_g + 2V for N >= 2 and Delta_g + V for N = 1.
    def gauge() -> GaugeData:
        if N == 1:
            potential = bc1_rational_potential(nu2, nu3)
            ground = bc1_ground_factor(nu2, nu3)
            scale = 1
        elif N == 2:
            potential = bc2_rational_potential(nu, nu2, nu3)
            ground = bc2_ground_factor(nu, nu2, nu3)
            scale = 2
        else:
            potential = bc3_rational_potential(nu, nu2, nu3)
            ground = bc3_ground_factor(nu, nu2, nu3)
            scale = 2
        delta_g = _assemble_second_order(N, A, _bcn_first_order(N, ZERO, ZERO, ZERO))
        return ground, delta_g + DiffOp(N, {(0,) * N: potential * scale}), potential

    return ModelBundle(
        spec=spec, d=N, h=h, flags=((1,) * N,),
        e0=(nu2 + nu3 * HALF) ** 2 if N == 1 else None,
        eigenvalue=bcn_eigenvalue(N, nu, nu2, nu3),
        gauge=gauge if N <= 3 else _no_rational_form(N))


# ---------------------------------------------------------------------------
# G2
# ---------------------------------------------------------------------------

def g2_operator(nu: Fraction, mu: Fraction) -> DiffOp:
    t1, t2 = _tau(2, 0), _tau(2, 1)
    third = Fraction(1, 3)
    return DiffOp(2, {
        (2, 0): -(4 + t1 + third * t2 - third * t1 * t1),
        (1, 1): 12 + 4 * t2 + t1 * t2 - 2 * t1 * t1,
        (0, 2): 9 * t1 + 3 * t2 + 3 * t1 * t2 + t2 * t2 - t1 ** 3,
        (1, 0): MultiPoly.const(2, 2 * nu) + Fraction(1 + 3 * mu + 2 * nu, 3) * t1,
        (0, 1): MultiPoly.const(2, 6 * mu) + (1 + 2 * mu + nu) * t2 + 2 * nu * t1,
    })


def g2_eigenvalue(nu: Fraction, mu: Fraction) -> Callable[[Exponents], Fraction]:
    """p -> eps = p1^2/3 + p1 p2 + p2^2 + (mu + 2 nu/3) p1 + (2 mu + nu) p2,
    summed as 6 eps = (6 mu + 4 nu) p1 + (12 mu + 6 nu) p2
                      + 2 p1^2 + 6 p1 p2 + 6 p2^2.

    The p1 linear coefficient follows the operator (the printed closed form
    carries (mu + nu); the discrepancy is reported by the verify suite).
    """
    return _quadratic_form([6 * mu + 4 * nu, 12 * mu + 6 * nu],
                           [[2, 3], [3, 6]], 6)


def g2_eigenvalue_printed(nu: Fraction, mu: Fraction, p: Exponents) -> Fraction:
    p1, p2 = p
    return (Fraction(p1 * p1, 3) + p1 * p2 + p2 * p2
            + (mu + nu) * p1 + (2 * mu + nu) * p2)


def build_g2(nu, mu) -> ModelBundle:
    nu, mu = Fraction(nu), Fraction(mu)
    spec = ModelSpec("G2", nu=nu, mu=mu)
    h = g2_operator(nu, mu)
    return ModelBundle(spec=spec, d=2, h=h, flags=((1, 2), (3, 5), (5, 9)),
                       e0=None, eigenvalue=g2_eigenvalue(nu, mu),
                       gauge=_no_rational_form(2))


# ---------------------------------------------------------------------------
# Magnus-Winkler degenerations (printed generator words; see algebra module)
# ---------------------------------------------------------------------------

MW_VARIANTS = ("0+", "0-", "1-", "1+")


def mw_word_data(variant: str, b: Fraction, n: int):
    """Coefficients of the printed word for h^(qes, variant) over the
    generators (J0 J0, J- J-, J+, J0, J-, 1) at the representation level used.

    Returns (rep_level, coefficient map).
    """
    b = Fraction(b)
    if variant == "0+":
        return n, {"J0J0": Fraction(1), "J-J-": Fraction(-1), "J+": -2 * b,
                   "J0": Fraction(2 * n + 1), "J-": -2 * b,
                   "1": Fraction(n * (n + 1))}
    if variant == "0-":
        return n - 1, {"J0J0": Fraction(1), "J-J-": Fraction(-1), "J+": -2 * b,
                       "J0": Fraction(2 * n + 1), "J-": -2 * b,
                       "1": Fraction(n * (n + 2))}
    if variant == "1-":
        return n, {"J0J0": Fraction(1), "J-J-": Fraction(-1), "J+": -2 * b,
                   "J0": Fraction(2 * (n + 1)), "J-": 1 - 2 * b,
                   "1": Fraction(n * (n + 2))}
    if variant == "1+":
        return n, {"J0J0": Fraction(1), "J-J-": Fraction(-1), "J+": -2 * b,
                   "J0": Fraction(2 * (n + 1)), "J-": -(1 + 2 * b),
                   "1": Fraction(n * (n + 2))}
    raise DomainError(f"unknown MW variant {variant!r}; use one of {MW_VARIANTS}")


def build_mw_family(variant: str, b, n: int) -> DiffOp:
    """Assemble the printed gl2 word for the Magnus-Winkler variant."""
    from .algebra import evaluate_word, gl2_generators, GeneratorWord
    b = Fraction(b)
    if n < 0:
        raise DomainError("MW level must be non-negative")
    rep, coeffs = mw_word_data(variant, b, n)
    if rep < 0:
        raise DomainError("variant 0- acts at representation n-1; needs n >= 1")
    gs = gl2_generators(rep)
    word = GeneratorWord(
        terms=(
            (coeffs["J0J0"], ("J0", "J0")),
            (coeffs["J-J-"], ("J-", "J-")),
            (coeffs["J+"], ("J+",)),
            (coeffs["J0"], ("J0",)),
            (coeffs["J-"], ("J-",)),
        ),
        constant=coeffs["1"])
    return evaluate_word(gs, word)


# ---------------------------------------------------------------------------
# Closed-form spectra dispatch
# ---------------------------------------------------------------------------

def eigenvalue_formula(model: ModelBundle, p: Exponents) -> Fraction:
    """Exact closed-form eigenvalue; raises for QES families."""
    if model.eigenvalue is None:
        raise UnsupportedModel(
            f"{model.spec.family} has no global closed-form spectrum")
    if len(p) != model.d:
        raise DomainError("quantum multi-index has wrong length")
    if any(k < 0 for k in p):
        raise DomainError("quantum numbers must be non-negative")
    return model.eigenvalue(tuple(p))


# ---------------------------------------------------------------------------
# TTW family descriptors (numeric evaluation lives in the cartesian module)
# ---------------------------------------------------------------------------

TTW_VARIANTS = ("TTW", "TTW_QES_RADIAL", "TTW_QES_ANGULAR", "TTW_QES_FULL")


@dataclass(frozen=True)
class TTWDescriptor:
    """Point-evaluable description of a TTW-family Hamiltonian.

    convention "printed" keeps every coefficient verbatim; "consistent"
    replaces the radial power and the r^2 tuning by the values that make the
    ground factor an exact zero mode (recorded corrections):

        angular ground eigenvalue  lam0 = beta^2 [(nu2 + nu3/2)^2
                                         + 2 b (nu2 + nu3 + 1/2)],
        radial power               gamma = sqrt(lam0) / beta * beta,
        r^2 coefficient            omega^2 - 2a(2n + 2 + gamma).

    The exponential's angular sign is +b cos(beta phi) in consistent mode.
    """

    variant: str
    nu2: Fraction
    nu3: Fraction
    beta: Fraction
    omega: Fraction
    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    n: int = 0
    m: int = 0
    convention: str = "consistent"

    def __post_init__(self):
        if self.variant not in TTW_VARIANTS:
            raise DomainError(f"unknown TTW variant {self.variant!r}")
        if self.convention not in ("printed", "consistent"):
            raise DomainError("convention must be 'printed' or 'consistent'")
        if self.omega <= 0:
            raise DomainError("omega must be positive")
        if self.beta <= 0:
            raise DomainError("beta must be positive")
        if self.variant in ("TTW_QES_RADIAL", "TTW_QES_FULL") and self.a <= 0:
            raise DomainError("sextic variants need a > 0")

    @property
    def has_sextic(self) -> bool:
        return self.variant in ("TTW_QES_RADIAL", "TTW_QES_FULL")

    @property
    def has_angular_qes(self) -> bool:
        return self.variant in ("TTW_QES_ANGULAR", "TTW_QES_FULL")


def ttw_models(variant: str, *, nu2, nu3, beta, omega, a=0, b=0, n: int = 0,
               m: int = 0, convention: str = "consistent") -> TTWDescriptor:
    """Descriptor for the requested TTW-family model (potential + ground factor)."""
    return TTWDescriptor(variant, Fraction(nu2), Fraction(nu3), Fraction(beta),
                         Fraction(omega), Fraction(a), Fraction(b),
                         int(n), int(m), convention)


# ---------------------------------------------------------------------------
# Characteristic-vector table (stored data)
# ---------------------------------------------------------------------------

def char_vector_table() -> dict[tuple[str, str], object]:
    """Minimal characteristic vectors per model and column.

    Columns: "rational", "trig_minimal", "weyl", "co_weyl".  Parametric rows
    store descriptive strings ("1^N", "(1,k)"); absent cells are None.
    """
    table: dict[tuple[str, str], object] = {}

    def put(model, rational, trig, weyl, co_weyl):
        table[(model, "rational")] = rational
        table[(model, "trig_minimal")] = trig
        table[(model, "weyl")] = weyl
        table[(model, "co_weyl")] = co_weyl

    put("A_N", "1^N", "1^N", None, None)
    put("BC_N", "1^N", "1^N", None, None)
    put("G2", (1, 2), (1, 2), (3, 5), (5, 9))
    put("F4", (1, 2, 2, 3), (1, 2, 2, 3), (8, 11, 15, 21), (11, 16, 21, 30))
    put("E6", (1, 1, 2, 2, 2, 3), (1, 1, 2, 2, 2, 3),
        (8, 8, 11, 15, 15, 21), (8, 8, 11, 15, 15, 21))
    put("E7", (1, 2, 2, 2, 3, 3, 4), (1, 2, 2, 2, 3, 3, 4),
        (27, 34, 49, 52, 66, 75, 96), (27, 34, 49, 52, 66, 75, 96))
    put("E8", (1, 3, 5, 5, 7, 7, 9, 11), (2, 2, 3, 3, 4, 4, 5, 6),
        (29, 46, 57, 68, 84, 91, 110, 135), (29, 46, 57, 68, 84, 91, 110, 135))
    put("H3", (1, 2, 3), None, None, None)
    put("H4", (1, 5, 8, 12), None, None, None)
    put("I2(k)", "(1,k)", None, None, None)
    return table
