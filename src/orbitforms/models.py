"""Constructors for the trigonometric model family in orbit variables.

Each exactly-solvable model is delivered as a ModelBundle: the algebraic-form
operator h (polynomial coefficients), its validated flags, the exact ground
energy and a closed-form eigenvalue handle, built by build_*; and the
gauge data, built on first access: the ground-state factor in orbit
variables and, where available, the rational form (Laplace-Beltrami part plus
rational potential).  Only the gauge identity reads the gauge data, so the
spectra, flags, pi-integrals and algebras never pay for it.

bc1 is BC_N at N = 1: one BC construction, _build_bc, serves bc1, bc1_qes
and BC_N, whose build_* entry points only make the spec.

The positive roots of every family with their exponents and couplings
(Olshanetsky-Perelomov) are one table here, root_table, which the Cartesian
oracle reads too.  bc_gauge_data derives from it the exact gauge data of
bc1, bc1_qes and BC_N at every N; Sutherland and G2 have none yet.

The couplings weight whole root orbits, and enter the operator only through
its drift, affinely: the metric, the second-order symbol A, is a polynomial
in the orbit variables with integer pair coefficients fixed by N.  So what
no coupling enters is built once and cached, at most one entry per
(root system, N) up to the N ceiling:

* _operator_table: the symbol of Sutherland, BC_N (bc1 and bc1_qes share
  its N = 1 entry) and G2, read-only, with the drift as int columns over
  (1, g_1, ..., g_m), so that h(g) = h_0 + sum_k g_k h_k is the table
  itself; one evaluator, _operator, turns it into h at the couplings, and
  into Delta_g at zero couplings;
* the BC pair terms of _bc_pairs (the discriminant and the pair potential);
* weyl_tables: the roots of each orbit, the fundamental weights, each orbit's
  int sum of positive roots (read by rho_k) and the int pairings and Gram
  matrix of the weights (read by root_eigenvalue).

A build then computes only the drift's values at its couplings.

Conventions, fixed once and verified by the suites:

* the rational form is  H(tau) = Delta_g + V(tau) / kinetic  where Delta_g
  equals the algebraic operator at zero couplings, V is the potential of
  the Cartesian H = -kinetic sum d^2 + V and kinetic is 1 for the
  one-variable families and 1/2 for BC_N at every N; with this sign the
  conjugation by the ground factor reproduces the algebraic form exactly;
* every closed-form spectrum is (kinetic / KAPPA) (lambda, lambda + 2 rho_k)
  over root_table and the fundamental weights (Heckman-Opdam), derived by
  root_eigenvalue once per bundle; the printed one-sided readings are kept
  alongside for the discrepancy reports;
* the Cartesian energy of eps is beta^2 (e0 + KAPPA eps)
  = beta^2 kinetic |lambda + rho_k|^2, so every family has the exact ground
  energy e0 = kinetic |rho_k|^2 in units of beta^2 (ground_energy), from
  the positive-root sums the spectrum reads.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from operator import add, mul
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple, Sequence

from .diffop import DiffOp, GaugeFactor
from .errors import DomainError, UnsupportedModel
from .poly import (CharVector, Exponents, FlagSpace, MultiPoly, RationalFn,
                   add_integer_terms, from_integer_terms,
                   integer_product, integer_terms, symmetric_reduce)
from .report import CEILINGS

ZERO = Fraction(0)
HALF = Fraction(1, 2)

FAMILIES = ("BC1", "BC1_QES", "SUTHERLAND", "BCN", "G2")


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
    n: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown model family {self.family!r}")
        if self.n is not None and self.n < 0:
            raise DomainError("QES level n must be non-negative")
        # hashed once: the oracle's root table is looked up per psi0 call;
        # the tuple of the fields hashes as dataclasses.astuple does, without
        # its deep copy
        object.__setattr__(self, "_hash", hash((
            self.family, self.N, self.nu, self.nu2, self.nu3, self.mu, self.b,
            self.n)))

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
    e0: Fraction                 # ground energy kinetic |rho_k|^2, units of beta^2
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
    # not derived yet; the Cartesian oracle checks these families numerically
    return lambda: (GaugeFactor(d), None, None)


# ---------------------------------------------------------------------------
# Root data (Olshanetsky-Perelomov)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootOrbit:
    """One Weyl orbit of positive roots; g_alpha and c_alpha are constant on
    it, so its constants are exact Fractions kept once."""

    forms: tuple        # each root alpha as ((index, integer coefficient), ...)
    exponent: Fraction  # g_alpha, the power of |sin| in Psi0
    coupling: Fraction  # c_alpha, the strength of 1/sin^2 in V
    kinetic: Fraction   # H = -kinetic sum d^2 + V
    wall: Fraction = Fraction(1)   # alcove walls sit at |sin| = wall * min_sin

    @property
    def norm(self) -> int:
        """|alpha|^2, the same on the orbit."""
        return sum(c * c for _, c in self.forms[0])

    @property
    def potential(self) -> Fraction:
        """kinetic * c_alpha * |alpha|^2 / 4, times beta^2 / sin^2 in V."""
        return self.kinetic * self.coupling * self.norm / 4


def kinetic_half(spec: ModelSpec) -> bool:
    return spec.family not in ("BC1", "BC1_QES")


class WeylTables(NamedTuple):
    """The coupling-free root and weight data of a family at one N."""

    forms: tuple        # per orbit of root_table, its roots as ((index, int), ...)
    den: int            # the fundamental weights omega_a = weights[a] / den
    weights: tuple[tuple[int, ...], ...]
    pairing: tuple[tuple[int, ...], ...]   # per orbit, (omega_a, its positive sum) * den
    positive: tuple[tuple[int, ...], ...]  # per orbit, the sum of its positive roots
    gram: tuple[tuple[int, ...], ...]      # (omega_a, omega_b) * den^2


@lru_cache(maxsize=len(FAMILIES) * CEILINGS["N"])   # one entry per (family, N)
def weyl_tables(family: str, N: int | None) -> WeylTables:
    """The roots of each orbit, the fundamental weights and the int tables
    rho_k and root_eigenvalue read, built once per (family, N).

    No coupling enters them: the couplings only weight whole orbits.  The
    fundamental weights are, in Cartesian coordinates, for A_{N-1}
    e_1 + ... + e_a - (a/N) sum e, for BC_N e_1 + ... + e_a, for G2
    (1, 0, -1) and (2, -1, -1); the a-th orbit variable is the orbit sum of
    omega_a (times 2^-a for BC).  A root is positive when
    (alpha, sum_a omega_a) > 0; each orbit sums its positive roots in ints.
    """
    if family in ("SUTHERLAND", "G2"):
        n = 3 if family == "G2" else N
        forms = [tuple(((i, 1), (j, -1)) for i in range(n) for j in range(i + 1, n))]
        if family == "G2":
            forms.append(tuple(((i, 1), (j, 1), (k, -2))
                               for (i, j, k) in ((0, 1, 2), (0, 2, 1), (1, 2, 0))))
            den, weights = 1, ((1, 0, -1), (2, -1, -1))
        else:
            den, weights = n, tuple(tuple(n * (i < a) - a for i in range(n))
                                    for a in range(1, n))
    elif family in ("BC1", "BC1_QES", "BCN"):
        n = N if family == "BCN" else 1
        forms = [tuple(form for i in range(n) for j in range(i + 1, n)
                       for form in (((i, 1), (j, -1)), ((i, 1), (j, 1))))] if n > 1 else []
        forms += [tuple(((i, 2),) for i in range(n)), tuple(((i, 1),) for i in range(n))]
        den, weights = 1, tuple(tuple(int(i < a) for i in range(n))
                                for a in range(1, n + 1))
    else:
        raise UnsupportedModel(f"no root system for {family}")
    top = [sum(col) for col in zip(*weights)]
    positive = []
    for orbit in forms:
        total = [0] * n
        for form in orbit:
            sign = 1 if sum(c * top[i] for i, c in form) > 0 else -1
            for i, c in form:
                total[i] += sign * c
        positive.append(tuple(total))
    return WeylTables(tuple(forms), den, weights,
                      tuple(tuple(sum(map(mul, w, p)) for w in weights) for p in positive),
                      tuple(positive),
                      tuple(tuple(sum(map(mul, u, w)) for w in weights) for u in weights))


# `verify --suite all` meets 135 distinct specs and a pass of the benchmark's
# 132 spectrum queries 82 or 83 (seeds 1, 2, 3, 7), so 256 hold either.
@lru_cache(maxsize=256)
def root_table(spec: ModelSpec) -> tuple[RootOrbit, ...]:
    """The positive roots of the family of `spec`, built once per spec from
    the orbits of weyl_tables.

    c_alpha = g_alpha (g_alpha - 1), except nu3 (nu3 + 2 nu2 - 1) for the BC
    short root, whose wall also sits at half the margin.
    """
    fam = spec.family
    kinetic = Fraction(1, 2) if kinetic_half(spec) else Fraction(1)
    forms = weyl_tables(fam, spec.N).forms

    def orbit(forms, g, coupling=None, wall=Fraction(1)) -> RootOrbit:
        coupling = g * (g - 1) if coupling is None else coupling
        return RootOrbit(forms, g, coupling, kinetic, wall)

    if fam == "SUTHERLAND":
        return (orbit(forms[0], spec.nu),)
    if fam == "G2":
        return orbit(forms[0], spec.nu), orbit(forms[1], spec.mu)
    nu2, nu3 = spec.nu2, spec.nu3
    *pairs, long, short = forms
    return (*(orbit(f, spec.nu) for f in pairs), orbit(long, nu2),
            orbit(short, nu3, nu3 * (nu3 + 2 * nu2 - 1), Fraction(1, 2)))


# Cartesian energy E = beta^2 (e0 + kappa eps) of a closed-form eps
KAPPA = {
    "BC1": Fraction(1),
    "BC1_QES": Fraction(1),
    "SUTHERLAND": Fraction(1, 2),
    "BCN": Fraction(1, 2),
    "G2": Fraction(3),
}


def rho_k(spec: ModelSpec) -> tuple[Fraction, ...]:
    """rho_k = 1/2 sum_{alpha > 0} g_alpha alpha in Cartesian coordinates;
    the ground energy reads it.

    Each orbit's sum of positive roots is an int vector of weyl_tables,
    multiplied by g_alpha once.
    """
    positive = weyl_tables(spec.family, spec.N).positive
    rho = [ZERO] * len(positive[0])
    for orbit, total in zip(root_table(spec), positive):
        for i, x in enumerate(total):
            rho[i] += orbit.exponent * x / 2
    return tuple(rho)


def ground_energy(spec: ModelSpec) -> Fraction:
    """e0 = kinetic |rho_k|^2, the closed form kinetic |lambda + rho_k|^2 at
    lambda = 0, in units of beta^2."""
    return root_table(spec)[0].kinetic * sum(x * x for x in rho_k(spec))


def root_eigenvalue(spec: ModelSpec) -> Callable[[Exponents], Fraction]:
    """p -> eps = (kinetic / kappa) (lambda, lambda + 2 rho_k), with
    lambda = sum_a p_a omega_a and 2 (omega_a, rho_k) = sum over the orbits
    of g_alpha (omega_a, the orbit's positive sum), from the int pairing and
    Gram tables of weyl_tables."""
    tables = weyl_tables(spec.family, spec.N)
    orbits = root_table(spec)
    den = tables.den
    lin = [sum(orbit.exponent * row[a] for orbit, row in zip(orbits, tables.pairing))
           for a in range(len(tables.weights))]
    scale = den * den * KAPPA[spec.family] / orbits[0].kinetic
    return _quadratic_form(
        [x * den * scale.denominator for x in lin],
        [[scale.denominator * g for g in row] for row in tables.gram],
        scale.numerator)


# ---------------------------------------------------------------------------
# BC gauge data, derived from the root table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=CEILINGS["N"])
def _bc_pairs(N: int) -> tuple[MultiPoly, MultiPoly]:
    """(disc, pair) in tau_k = e_k(c) of N >= 2 cosines c_j, built once per
    N (no coupling enters them) and reduced by
    symmetric_reduce from their terms in the c_j with sorted exponents:
    disc = prod_{i<j} (c_i - c_j)^2 and pair / disc = sum_{i<j} 4 (1 - c_i c_j)
    / (c_i - c_j)^2.  With W = prod (c_i - c_j) over the pairs other than
    (0, 1), disc = ((c_0 - c_1) W)^2 and the (i, j) term of pair is
    F = 4 (1 - c_0 c_1) W^2 with c_0, c_1 moved to c_i, c_j; so a term of F
    sorted on places 0, 1 and on the rest counts once per pair of places of
    its sorted exponents that holds its (e_0, e_1).
    """
    def unit(*idx) -> Exponents:
        return tuple(idx.count(i) for i in range(N))

    W = {unit(): 1}
    for i, j in combinations(range(N), 2):
        if j > 1:
            W = integer_product(W, ((unit(i), 1), (unit(j), -1)))
    V = integer_product(W, ((unit(0), 1), (unit(1), -1)))
    pair: dict[Exponents, int] = {}
    for e, v in integer_product(integer_product(W, W.items()),
                                ((unit(), 4), (unit(0, 1), -4))).items():
        if e[0] >= e[1] and all(x >= y for x, y in zip(e[2:], e[3:])):
            m = tuple(sorted(e, reverse=True))
            a, b = m.count(e[0]), m.count(e[1])
            add_integer_terms(pair, {m: v * (a * b if e[0] > e[1] else a * (a - 1) // 2)})
    return tuple(from_integer_terms(N, 1, symmetric_reduce(N, p))
                 for p in (integer_product(V, V.items()), pair))


def bc_gauge_data(spec: ModelSpec, delta_g: DiffOp, exp_arg: MultiPoly | None = None,
                  extra: MultiPoly | int = 0) -> GaugeData:
    """Ground factor, rational form Delta_g + V / kinetic and potential V of
    a BC family, from root_table(spec).  With c_j = cos x_j (beta = 1):

        pair x_i -+ x_j: sin((x_i - x_j)/2) sin((x_i + x_j)/2) = (c_j - c_i)/2,
            and the two 1/sin^2 sum to 4 (1 - c_i c_j) / (c_i - c_j)^2;
        long 2 x_j: 1/sin^2 = (1/(1 - c_j) + 1/(1 + c_j)) / 2;  short x_j: 2/(1 - c_j).

    For q(t) = prod (t - c_j) = sum_k (-1)^k tau_k t^(N-k), the walls
    P = prod (1 + c_j) = (-1)^N q(-1) and M = prod (1 - c_j) = q(1) have
    sum 1/(1 + c_j) = dP / P and sum 1/(1 - c_j) = dM / M with dM = q'(1),
    dP = (-1)^(N+1) q'(-1).  So Psi0 = disc^(g/2) P^(g2/2) M^((g2+g3)/2) up
    to a constant, with disc from _bc_pairs, and V has one term per
    denominator.  exp_arg multiplies Psi0 by exp(exp_arg); extra is a
    polynomial added to V.
    """
    N = delta_g.nvars
    taus = [MultiPoly.const(N, 1)] + [MultiPoly.variable(N, k) for k in range(N)]
    P = sum(taus[1:], taus[0])
    dP = sum((taus[k] * (N - k) for k in range(1, N)), taus[0] * N)
    M = sum((taus[k] * (-1) ** k for k in range(1, N + 1)), taus[0])
    dM = sum((taus[k] * ((-1) ** k * (N - k)) for k in range(1, N)), taus[0] * N)
    orbits = {orbit.norm: orbit for orbit in root_table(spec)}
    long, short = orbits[4], orbits[1]
    ground = [(P, long.exponent / 2), (M, (long.exponent + short.exponent) / 2)]
    terms = [RationalFn(dP * (long.potential / 2), P),
             RationalFn(dM * (long.potential / 2 + 2 * short.potential), M)]
    if 2 in orbits:
        disc, pair = _bc_pairs(N)
        ground.insert(0, (disc, orbits[2].exponent / 2))
        terms.insert(0, RationalFn(pair * orbits[2].potential, disc))
    potential = sum(terms[1:], terms[0]) + extra
    rational_form = delta_g + DiffOp(N, {(0,) * N: potential * (1 / long.kinetic)})
    return GaugeFactor(N, ground, exp_arg), rational_form, potential


def _tau(nvars: int, i: int) -> MultiPoly:
    return MultiPoly.variable(nvars, i)


# ---------------------------------------------------------------------------
# Operator tables: the coupling-free symbol and the drift columns
# ---------------------------------------------------------------------------

def _clipped_taus(nvars: int, top: int, top_is_one: bool) -> dict[int, Exponents]:
    """Exponents of tau_k for the k where it is not zero, under the boundary
    convention tau_0 = 1, tau_k = 0 outside [0, top], and tau_top = 1 when
    top_is_one is set (relative invariants)."""
    const = (0,) * nvars
    taus = {0: const}
    for k in range(1, top + 1):
        taus[k] = const if k == top and top_is_one else const[:k - 1] + (1,) + const[k:]
    return taus


def _pair_sum(taus: dict[int, Exponents], pairs: Iterable[tuple[int, int, int]],
              den: int = 1) -> MultiPoly:
    """sum c * tau_a * tau_b / den over the int (c, a, b) contributions.

    With the clipped taus each product is one monomial, the constant 1 or
    zero, so the coefficients are summed straight into an int term dict,
    deleting a key whose sum reaches zero, as MultiPoly addition does.  The
    terms therefore come in the order of the polynomial sum taken one pair
    at a time.  Zero contributions are skipped.
    """
    total: dict[Exponents, int] = {}
    for c, a, b in pairs:
        if c and a in taus and b in taus:
            add_integer_terms(total, {tuple(map(add, taus[a], taus[b])): c})
    return from_integer_terms(len(taus[0]), den, total)


class ModelTable(NamedTuple):
    """The operators h(g) of one root system at one N, coupling-free:

        h = sum_k symbol[k] d^k + sum_i B_i d_i,

    where each term of B_i is (column . (1, g_1, ..., g_m)) / den tau^e for
    an (e, column) entry of drift.  So h(g) = h_0 + sum_k g_k h_k, with the
    symbol in h_0 at every coupling.
    """

    d: int
    symbol: Mapping[Exponents, MultiPoly]   # read-only, by second-order key
    den: int
    drift: tuple    # per d_i, (key, ((exponents, int column), ...)), printed order


@lru_cache(maxsize=2 * CEILINGS["N"] + 1)   # one entry per (root system, N)
def _operator_table(system: str, N: int | None) -> ModelTable:
    """The ModelTable of h for the root system "A" (Sutherland, couplings
    (nu,)), "BC" (BC_N, and bc1 and bc1_qes at N = 1, couplings
    (nu, nu2, nu3)) or "G2" (couplings (nu, mu); N unused), built once.

    The printed forms, with tau_0 = 1 and tau_k = 0 outside [0, N]:

    A_{N-1}, tau_N = 1, over the denominator N:
        A_ij = ((N-i) j / N) tau_i tau_j
               + sum_{l >= max(1, j-i)} (j - i - 2l) tau_{i+l} tau_{j-l},
        B_i  = (1/N + nu) i (N-i) tau_i;
    BC_N:
        A_ij = -N tau_{i-1} tau_{j-1} + sum_{l=0}^{N+1} [
                   (i-l) tau_{i-l} tau_{j+l} + (l+j-1) tau_{i-l-1} tau_{j+l-1}
                   - (i-2-l) tau_{i-2-l} tau_{j+l} - (l+j+1) tau_{i-l-1} tau_{j+l+1}],
        B_i  = [1 + nu(2N-i-1) + 2 nu2 + nu3] i tau_i - nu3 (i-N-1) tau_{i-1}
               + nu (N-i+1)(N-i+2) tau_{i-2};
    G2, over the denominator 3, the d1 d2 term typed whole:
        B_1 = 2 nu + ((1 + 3 mu + 2 nu) / 3) tau_1,
        B_2 = 6 mu + (1 + 2 mu + nu) tau_2 + 2 nu tau_1.

    Each A_ij is the list of its int (c, a, b) pairs, summed by _pair_sum
    in the order above; A_ij and A_ji are summed on their one key.  The
    terms of each B_i land on distinct monomials, so evaluating the columns
    in order and skipping zeros lists them as the printed sum does.  The
    tests compare every h with these sums, term by term.
    """
    if system == "G2":
        t1, t2 = _tau(2, 0), _tau(2, 1)
        third = Fraction(1, 3)
        return ModelTable(2, MappingProxyType({
            (2, 0): -(4 + t1 + third * t2 - third * t1 * t1),
            (1, 1): 12 + 4 * t2 + t1 * t2 - 2 * t1 * t1,
            (0, 2): 9 * t1 + 3 * t2 + 3 * t1 * t2 + t2 * t2 - t1 ** 3,
        }), 3, (((1, 0), (((0, 0), (0, 6, 0)), ((1, 0), (1, 2, 3)))),
                ((0, 1), (((0, 0), (0, 0, 18)), ((0, 1), (3, 3, 6)),
                          ((1, 0), (0, 6, 0))))))
    if system == "A":
        d, den, taus = N - 1, N, _clipped_taus(N - 1, N, top_is_one=True)
    else:
        d, den, taus = N, 1, _clipped_taus(N, N, top_is_one=False)
    symbol: dict[Exponents, MultiPoly] = {}
    drift = []
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if system == "A":
                pairs = [((N - i) * j, i, j)]
                l = max(1, j - i)
                while i + l <= N and j - l >= 0:
                    pairs.append(((j - i - 2 * l) * N, i + l, j - l))
                    l += 1
            else:
                pairs = [(-N, i - 1, j - 1)]
                for l in range(0, N + 2):
                    pairs += [(i - l, i - l, j + l),
                              (l + j - 1, i - l - 1, j + l - 1),
                              (-(i - 2 - l), i - 2 - l, j + l),
                              (-(l + j + 1), i - l - 1, j + l + 1)]
            coeff = _pair_sum(taus, pairs, den)
            if not coeff.is_zero():
                key = tuple((i == m) + (j == m) for m in range(1, d + 1))
                symbol[key] = symbol[key] + coeff if key in symbol else coeff
        if system == "A":
            columns = [(i, (i * (N - i), N * i * (N - i)))]
        else:
            columns = [(i, (i, (2 * N - i - 1) * i, 2 * i, i)),
                       (i - 1, (0, 0, 0, N + 1 - i)),
                       (i - 2, (0, (N - i + 1) * (N - i + 2), 0, 0))]
        drift.append((tuple(int(i == m) for m in range(1, d + 1)),
                       tuple((taus[a], column) for a, column in columns if a in taus)))
    return ModelTable(d, MappingProxyType(symbol), den, tuple(drift))


def _operator(table: ModelTable, couplings: Sequence[Fraction]) -> DiffOp:
    """h at the couplings: the table's symbol, then each B_i with a term
    (column . (1, g_1, ..., g_m)) / den per drift entry whose value is not
    zero, summed in ints over den times the couplings' common denominator.
    At zero couplings this is Delta_g."""
    scale = lcm(*(g.denominator for g in couplings))
    weights = (scale, *(g.numerator * (scale // g.denominator) for g in couplings))
    terms = dict(table.symbol)
    for key, entries in table.drift:
        nums = {}
        for e, column in entries:
            value = sum(map(mul, column, weights))
            if value:
                nums[e] = value
        if nums:
            terms[key] = from_integer_terms(table.d, table.den * scale, nums)
    return DiffOp(table.d, terms)


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


# ---------------------------------------------------------------------------
# Sutherland (A_{N-1})
# ---------------------------------------------------------------------------

def sutherland_eigenvalue_printed(N: int, nu: Fraction) -> Callable[[Exponents], Fraction]:
    """Verbatim one-sided reading, Gram matrix [(N-i) j] over N, kept for reports."""
    return _quadratic_form(
        [nu * N * i * (N - i) for i in range(1, N)],
        [[(N - i) * j for j in range(1, N)] for i in range(1, N)], N)


def build_sutherland(N: int, nu) -> ModelBundle:
    if N < 2:
        raise DomainError("Sutherland model needs N >= 2")
    nu = Fraction(nu)
    spec = ModelSpec("SUTHERLAND", N=N, nu=nu)
    d = N - 1
    h = _operator(_operator_table("A", N), (nu,))
    return ModelBundle(spec=spec, d=d, h=h, flags=((1,) * d,),
                       e0=ground_energy(spec), eigenvalue=root_eigenvalue(spec),
                       gauge=_no_rational_form(d))


# ---------------------------------------------------------------------------
# BC: BC_N, and bc1 and bc1_qes at N = 1
# ---------------------------------------------------------------------------

def bcn_eigenvalue_printed(N: int, nu: Fraction, nu2: Fraction, nu3: Fraction
                           ) -> Callable[[Exponents], Fraction]:
    """Verbatim one-sided reading, Gram matrix [i] (row i), kept for reports."""
    return _quadratic_form(
        [(nu * (2 * N - i - 1) + 2 * nu2 + nu3) * i for i in range(1, N + 1)],
        [[i] * N for i in range(1, N + 1)])


def bcn_rational_potential_printed(N: int, nu, nu2, nu3) -> RationalFn:
    """The printed bc2 and bc3 potentials, kept for the discrepancy reports:
    the derived pair term plus the printed wall terms, the only place the
    printed and derived potentials differ."""
    spec = ModelSpec("BCN", N=N, nu=Fraction(nu), nu2=Fraction(nu2), nu3=Fraction(nu3))
    orbits = {orbit.norm: orbit for orbit in root_table(spec)}
    g2, g3 = orbits[4].coupling, orbits[1].coupling
    disc, pair = _bc_pairs(N)
    pair_term = RationalFn(pair * orbits[2].potential, disc)
    if N == 2:
        t1, t2 = _tau(2, 0), _tau(2, 1)
        return (pair_term + RationalFn(g2 * (2 - t1) * Fraction(1, 4), 1 + t1 + t2)
                + RationalFn((2 * (g2 + g3) + g2 * t1 - g3 * t2) * Fraction(1, 4),
                             1 - t1 + t2))
    t1, t2, t3 = _tau(3, 0), _tau(3, 1), _tau(3, 2)
    return (pair_term + RationalFn(g2 * (3 + 2 * t1 + t2) * HALF, 1 + t1 + t2 + t3)
            + RationalFn((g2 + 4 * g3) * (3 - 2 * t1 + t2) * Fraction(1, 4),
                         1 - t1 + t2 - t3))


def bc1_qes_level(spec: ModelSpec) -> Fraction:
    """The level of the 2 b level sin^2(x/2) term of a BC1_QES potential."""
    return 2 * spec.n + 2 * spec.nu2 + spec.nu3 + 1


def _build_bc(spec: ModelSpec) -> ModelBundle:
    """h of the BC table; at N = 1 (bc1) nu drops out, as there is no pair
    orbit, nu (2N-i-1) = 0 and tau_{-1} = 0.  bc1_qes adds the drift of
    exp(b tau), 2b (tau^2-1) d, and the level terms -2bn tau
    + 2b(n + nu2 + nu3 + 1/2); its Psi0 carries exp(+b tau), the orientation
    that reproduces h, and V adds b^2 sin^2 x + 2 b level sin^2(x/2).
    """
    N, nu, nu2, nu3, b = spec.N or 1, spec.nu or ZERO, spec.nu2, spec.nu3, spec.b
    table = _operator_table("BC", N)
    h = _operator(table, (nu, nu2, nu3))
    if b is not None:
        t, n = _tau(1, 0), spec.n
        level_terms = -2 * b * n * t + MultiPoly.const(1, 2 * b * (n + nu2 + nu3 + HALF))
        h = h + DiffOp(1, {(1,): 2 * b * table.symbol[(2,)], (0,): level_terms})

    def gauge() -> GaugeData:
        delta_g = _operator(table, (ZERO, ZERO, ZERO))
        if b is None:
            return bc_gauge_data(spec, delta_g)
        return bc_gauge_data(spec, delta_g, exp_arg=t * b,
                             extra=b * b * (1 - t * t) + b * bc1_qes_level(spec) * (1 - t))

    return ModelBundle(
        spec=spec, d=N, h=h, flags=((1,) * N,),
        e0=ground_energy(spec),
        eigenvalue=root_eigenvalue(spec) if b is None else None,
        gauge=gauge)


def build_bcn(N: int, nu, nu2, nu3) -> ModelBundle:
    if N < 1:
        raise DomainError("BC_N needs N >= 1")
    return _build_bc(ModelSpec("BCN", N=N, nu=Fraction(nu), nu2=Fraction(nu2),
                               nu3=Fraction(nu3)))


def build_bc1(nu2, nu3) -> ModelBundle:
    return _build_bc(ModelSpec("BC1", nu2=Fraction(nu2), nu3=Fraction(nu3)))


def build_bc1_qes(nu2, nu3, b, n: int) -> ModelBundle:
    return _build_bc(ModelSpec("BC1_QES", nu2=Fraction(nu2), nu3=Fraction(nu3),
                               b=Fraction(b), n=n))


# ---------------------------------------------------------------------------
# G2
# ---------------------------------------------------------------------------

def g2_eigenvalue_printed(nu: Fraction, mu: Fraction) -> Callable[[Exponents], Fraction]:
    """Verbatim printed reading, with (mu + nu) p1, kept for reports."""
    return _quadratic_form([6 * mu + 6 * nu, 12 * mu + 6 * nu], [[2, 3], [3, 6]], 6)


def build_g2(nu, mu) -> ModelBundle:
    nu, mu = Fraction(nu), Fraction(mu)
    spec = ModelSpec("G2", nu=nu, mu=mu)
    h = _operator(_operator_table("G2", None), (nu, mu))
    table = char_vector_table()
    flags = tuple(table[("G2", column)] for column in ("trig_minimal", "weyl", "co_weyl"))
    return ModelBundle(spec=spec, d=2, h=h, flags=flags,
                       e0=ground_energy(spec), eigenvalue=root_eigenvalue(spec),
                       gauge=_no_rational_form(2))


# ---------------------------------------------------------------------------
# Magnus-Winkler degenerations (printed generator words; see algebra module)
# ---------------------------------------------------------------------------

MW_VARIANTS = ("0+", "0-", "1-", "1+")


def mw_word(variant: str, b, n: int):
    """(rep_level, word): the printed word for h^(qes, variant), the sum
    J0 J0 - J- J- - 2b J+ + c0 J0 + c- J- + c1 over the gl2 generators at
    the representation level rep_level."""
    from .algebra import GeneratorWord
    b = Fraction(b)
    if variant not in MW_VARIANTS:
        raise DomainError(f"unknown MW variant {variant!r}; use one of {MW_VARIANTS}")
    level, j0, jm, one = {
        "0+": (n, 2 * n + 1, -2 * b, n * (n + 1)),
        "0-": (n - 1, 2 * n + 1, -2 * b, n * (n + 2)),
        "1-": (n, 2 * (n + 1), 1 - 2 * b, n * (n + 2)),
        "1+": (n, 2 * (n + 1), -(1 + 2 * b), n * (n + 2)),
    }[variant]
    return level, GeneratorWord(
        terms=((Fraction(1), ("J0", "J0")), (Fraction(-1), ("J-", "J-")),
               (-2 * b, ("J+",)), (Fraction(j0), ("J0",)), (jm, ("J-",))),
        constant=Fraction(one))


def build_mw_family(variant: str, b, n: int) -> DiffOp:
    """Assemble the printed gl2 word for the Magnus-Winkler variant."""
    from .algebra import evaluate_word, gl2_generators
    if n < 0:
        raise DomainError("MW level must be non-negative")
    rep, word = mw_word(variant, b, n)
    if rep < 0:
        raise DomainError("variant 0- acts at representation n-1; needs n >= 1")
    return evaluate_word(gl2_generators(rep), word)


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

    @cached_property
    def angular_spec(self) -> ModelSpec:
        """The angular part in tau = cos(beta phi): bc1, or bc1_qes at level
        m for the angular QES variants; built once per descriptor."""
        if self.has_angular_qes:
            return ModelSpec("BC1_QES", nu2=self.nu2, nu3=self.nu3, b=self.b, n=self.m)
        return ModelSpec("BC1", nu2=self.nu2, nu3=self.nu3)

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
