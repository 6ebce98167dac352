"""Independent Cartesian oracle: invariants, ground factors, potentials and
Schroedinger residuals against the exact energies, from exact derivatives.

Everything numeric runs in mpmath working precision (default 40 digits, well
above double-double).  `measured_energies` is the one residual pass.  It
takes all k eigenpolynomials of a check at once and gives (H Psi)/Psi per
sample point for each of them; the residual statistics (`residual_stats`)
read its lists against the exact target beta^2 (E0 + kappa eps), whose
E0 = kinetic |rho_k|^2 every bundle carries (`models.ground_energy`), so no
check fits E0 or kappa.  The least-squares fit `fit_energy_affine` measures
them for the tests to compare with.  Psi = Psi0 * phi(tau), so with
L = log Psi0

    (H Psi)/Psi = -kinetic (Delta L + |grad L|^2 + 2 grad L . grad phi / phi
                            + Delta phi / phi) + V.

The Laplacian is taken exactly, with no stencil.  grad L and Delta L are
sums over the roots of g cot and -g / sin^2 of the angle beta alpha.x / 2
(`CheckGround.log_derivatives`).  tau is computed once per point as
Laplacian jets of the Cartesian point (`Jet`: value, gradient and
Laplacian), by the same formulas that give its values, and phi is summed on
those jets, each distinct monomial of the k polynomials once
(`SharedMonomials`).  So a point costs one Psi0 (for the node tests), one
tau-jet and one V for all k eigenpairs.  The TTW check (`TTWGround`) puts a
radial factor on this oracle: its angular half is the `CheckGround` of bc1
or bc1_qes in phi, so a point takes one closed-form radial pair of
log-derivatives, one `CheckGround.log_derivatives` and one potential, the
radial well plus the bc1 potential over r^2.  A 4th-order central
stencil (`laplacian_richardson`) is kept only for the convergence-order
record `fd_convergence_order`.
One rule, `poly.to_mpf`, puts an exact object into mpmath: a rational c
becomes mpf(c.numerator) / c.denominator of its reduced Fraction at the
working precision, never a binary float, and it is applied once per check,
never once per term per point.  Each check converts its constants once
(`CheckGround`, `TTWGround`), grouping every product as a per-call
conversion would, and its polynomials' coefficients once per working
precision (`SharedMonomials`), which `MultiPoly.evaluate` converts by the
same helper, so the values do not depend
on which path computed them; the public point functions build the same
objects.

Ground factors, potentials and alcove walls come from one table of positive
roots per family (`models.root_table`, built once per spec, from which the
exact BC gauge data are derived as well), in the Olshanetsky-Perelomov form

    Psi0 = prod_alpha |sin(beta alpha.x / 2)|^g_alpha
    V    = kinetic * sum_alpha c_alpha |alpha|^2 beta^2 / (4 sin^2(beta alpha.x / 2))

with c_alpha = g_alpha (g_alpha - 1), except nu3 (nu3 + 2 nu2 - 1) for the BC
short root, whose wall also sits at half the margin.  The only extra is the
BC1_QES factor exp(b cos beta x) and its two potential terms.  The hyperbolic
model is the same code at an imaginary beta: beta = i turns sin into i sinh,
cos into cosh and the target energy beta^2 (E0 + kappa eps) into its negative.

Per-model energy conventions (`models.KAPPA`), verified by the suites:

    family        kinetic       gauge prefactor     E = beta^2 (E0 + kappa eps)
    BC1           -d^2          1/beta^2            kappa = 1
    BC1_QES       -d^2          1/beta^2            kappa = 1
    SUTHERLAND    -1/2 sum d^2  2/beta^2            kappa = 1/2
    BCN           -1/2 sum d^2  2/beta^2            kappa = 1/2
    G2            -1/2 sum d^2  1/(3 beta^2)        kappa = 3
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import mpmath
from mpmath import mp

from .errors import (DimensionMismatch, DomainError, InconsistencyError,
                     UnsupportedModel)
from .models import (KAPPA, ModelBundle, ModelSpec, TTWDescriptor,
                     bc1_qes_level, ground_energy, kinetic_half, rho_k,
                     root_table)
from .poly import MultiPoly, to_mpf

DEFAULT_DPS = 40
IMAG_TOL = "1e-8"   # bound on the imaginary part of a measured energy
WALL_MARGIN = Fraction(1, 20)    # 5% of the alcove scale

@dataclass(frozen=True)
class ResidualStats:
    """Per-point residuals with deterministic summary statistics."""

    residuals: tuple
    mean: object
    max_abs: object
    std: object
    skipped: int
    max_imag: object

    @classmethod
    def from_values(cls, values, skipped=0, max_imag=0):
        n = len(values)
        if n == 0:
            raise DomainError("no usable sample points")
        mean = sum(values, mp.mpf(0)) / n
        var = sum(((v - mean) ** 2 for v in values), mp.mpf(0)) / n
        return cls(tuple(values), mean, max(abs(v) for v in values),
                   mpmath.sqrt(var), skipped, max_imag)


# ---------------------------------------------------------------------------
# Laplacian jets
# ---------------------------------------------------------------------------

def _dot(u, v):
    """sum u_i v_i, never conjugated."""
    return sum(a * b for a, b in zip(u, v))


class Jet:
    """A function of the Cartesian point to second order at one point: its
    value, its gradient (a tuple) and its Laplacian there, over mpf or mpc.

    Sums, products, int powers, cos and exp follow the chain rule exactly: a
    product f g has gradient f dg + g df and Laplacian
    f Lg + g Lf + 2 df.dg, and a function F of f has F'(f) df and
    F'(f) Lf + F''(f) df.df.  A number mixes in as a constant, and mpf and
    mpc defer to a jet's reflected operators, so one formula serves numbers
    and jets alike (`CheckGround.invariants`, `SharedMonomials`)."""

    __slots__ = ("value", "grad", "lap")

    def __init__(self, value, grad: tuple, lap):
        self.value, self.grad, self.lap = value, grad, lap

    @classmethod
    def coordinates(cls, x: Sequence) -> list:
        """The jets of the coordinate functions x_i at the point x."""
        zero, one = mp.mpf(0), mp.mpf(1)
        return [cls(xi, tuple(one if j == i else zero for j in range(len(x))), zero)
                for i, xi in enumerate(x)]

    def _chain(self, f, df, ddf):
        """F(self) from F, F' and F'' at self.value."""
        grad = self.grad
        return Jet(f, tuple(df * g for g in grad), df * self.lap + ddf * _dot(grad, grad))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value,
                       tuple(a + b for a, b in zip(self.grad, other.grad)),
                       self.lap + other.lap)
        return Jet(self.value + other, self.grad, self.lap)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, tuple(-a for a in self.grad), -self.lap)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Jet):
            u, v = self.value, other.value
            return Jet(u * v,
                       tuple(u * b + v * a for a, b in zip(self.grad, other.grad)),
                       u * other.lap + v * self.lap + 2 * _dot(self.grad, other.grad))
        return Jet(self.value * other, tuple(a * other for a in self.grad),
                   self.lap * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """By a number only."""
        return Jet(self.value / other, tuple(a / other for a in self.grad),
                   self.lap / other)

    def __pow__(self, n: int):
        """An int power n >= 1."""
        if n == 1:
            return self
        v = self.value
        below = v ** (n - 2)
        return self._chain(below * v * v, n * below * v, n * (n - 1) * below)

    def cos(self):
        c, s = mpmath.cos_sin(self.value)
        return self._chain(c, -s, -c)

    def exp(self):
        e = mpmath.exp(self.value)
        return self._chain(e, e, e)


def _cos(v):
    return v.cos() if isinstance(v, Jet) else mpmath.cos(v)


def _exp(v):
    return v.exp() if isinstance(v, Jet) else mpmath.exp(v)


def _as_jet(v, d: int) -> Jet:
    """v as a jet in d Cartesian dimensions: a number is a constant."""
    if isinstance(v, Jet):
        return v
    zero = mp.mpf(0)
    return Jet(v, (zero,) * d, zero)


# ---------------------------------------------------------------------------
# Invariants, ground factors, potentials
# ---------------------------------------------------------------------------

def _relative(x: Sequence) -> list:
    center = sum(x, mp.mpf(0)) / len(x)
    return [xi - center for xi in x]


def invariants_map(spec: ModelSpec, x: Sequence, beta=1) -> list:
    """Orbit variables at the Cartesian point (complex for the relative
    exponential invariants; conjugate-paired when sum y = 0).  At the
    coordinate jets (`Jet.coordinates`) they are the invariants' jets."""
    return CheckGround(spec, beta).invariants(x)


def _elementary_symmetric(vals: Sequence) -> list:
    """e_0, ..., e_n of `vals`, all from one recursion."""
    n = len(vals)
    e = [mp.mpf(0)] * (n + 1)
    e[0] = mp.mpf(1)
    for v in vals:
        for i in range(n, 0, -1):
            e[i] = e[i] + e[i - 1] * v
    return e


def _node_floor():
    """|sin| below this is a node of a ground factor at the working precision."""
    return mpmath.mpf(10) ** (-(mp.dps // 2))


def _abs_sin_pow(arg, expo, floor):
    """|sin(arg)|^expo for an mpf expo; a node below `floor` raises."""
    s = abs(mpmath.sin(arg))
    if s < floor:
        raise DomainError("evaluation at a node of the ground factor")
    return s ** expo


def _cos_sin_off_node(arg, floor):
    """(cos arg, sin arg); a node below `floor` raises as in `_abs_sin_pow`."""
    c, s = mpmath.cos_sin(arg)
    if abs(s) < floor:
        raise DomainError("evaluation at a node of the ground factor")
    return c, s


def _form_value(form, x):
    """alpha . x by adds and subtracts of c x_i (exact for |c| <= 2), in the
    order the terms are listed."""
    (i, c), *rest = form
    v = x[i] if c == 1 else c * x[i]
    for i, c in rest:
        if c > 0:
            v = v + (x[i] if c == 1 else c * x[i])
        else:
            v = v - (x[i] if c == -1 else -c * x[i])
    return v


class CheckGround:
    """Invariants, ground factor, its log-derivatives and potential of one
    check, with its constants converted once at the working precision in
    force when it is built: beta and beta^2, the node floor, each root
    orbit's exponent and potential constant times beta^2, the slopes
    g beta c_i / 2 and curvature -g beta^2 |alpha|^2 / 4 of its roots' log
    terms, and the BC1_QES constants.  Each product is grouped as the
    formulas below write it, so the values are those of a conversion at
    every call.  mpf values belong to one precision, so an instance lives
    for one check and is never stored."""

    def __init__(self, spec: ModelSpec, beta=1):
        self.spec = spec
        self.beta = to_mpf(beta)
        self.b2 = self.beta * self.beta
        self.floor = _node_floor()
        self.orbits, self.log_terms = [], []
        for orbit in root_table(spec):
            g = to_mpf(orbit.exponent)
            self.orbits.append((orbit.forms, g, to_mpf(orbit.potential) * self.b2))
            half = g * self.beta / 2
            slopes = [[(i, c * half) for i, c in form] for form in orbit.forms]
            self.log_terms.append((orbit.forms, slopes, -(g * self.b2 * orbit.norm / 4)))
        self.qes = None
        if spec.family == "BC1_QES":
            bb = to_mpf(spec.b)
            level = to_mpf(bc1_qes_level(spec))
            self.qes = (bb, bb * bb * self.b2, 2 * bb * self.b2 * level)
            self.qes_log = (bb * self.beta, bb * self.b2)

    def invariants(self, x: Sequence) -> list:
        """tau at x, numbers or `Jet`s alike."""
        beta = self.beta
        fam = self.spec.family
        if fam in ("BC1", "BC1_QES"):
            return [_cos(beta * x[0])]
        if fam == "SUTHERLAND":
            z = [_exp(1j * beta * yi) for yi in _relative(x)]
            return _elementary_symmetric(z)[1:self.spec.N]
        if fam == "BCN":
            return _elementary_symmetric([_cos(beta * xi) for xi in x])[1:]
        y = _relative(x)     # G2; `root_table` refuses any other family
        t1 = 2 * (_cos(beta * (y[0] - y[1]))
                  + _cos(beta * (y[0] - y[2]))
                  + _cos(beta * (y[1] - y[2])))
        t2 = 2 * sum(_cos(3 * beta * yi) for yi in y)
        return [t1, t2]

    def psi0(self, x: Sequence):
        beta, floor = self.beta, self.floor
        v = mp.mpf(1)
        for forms, g, _ in self.orbits:
            for form in forms:
                v *= _abs_sin_pow(beta * _form_value(form, x) / 2, g, floor)
        if self.qes:
            v *= mpmath.exp(self.qes[0] * mpmath.cos(beta * x[0]))
        return v

    def log_derivatives(self, x: Sequence) -> tuple:
        """(grad log Psi0, Laplacian of log Psi0) at x, off the nodes: each
        root adds its slopes times cot and its curvature over sin^2 of the
        angle that `psi0` takes, and the BC1_QES factor adds
        -b beta sin(beta x) and -b beta^2 cos(beta x), read off the long
        root, whose angle beta (2x) / 2 is beta x.  A node raises as in
        `psi0`."""
        beta, floor = self.beta, self.floor
        grad = [0] * len(x)
        lap = 0
        angles = []
        for forms, slopes, curvature in self.log_terms:
            for form, slope in zip(forms, slopes):
                c, s = _cos_sin_off_node(beta * _form_value(form, x) / 2, floor)
                angles.append((c, s))
                cot = c / s
                for i, k in slope:
                    grad[i] += k * cot
                lap += curvature / (s * s)
        if self.qes:
            (c, s), _ = angles          # the long root, then the short one
            b_beta, b_b2 = self.qes_log
            grad[0] -= b_beta * s
            lap -= b_b2 * c
        return grad, lap

    def potential(self, x: Sequence):
        """V = sum over orbits of orbit.potential * beta^2 * sum_alpha
        1/sin^2(beta alpha.x / 2), plus the BC1_QES terms in sin^2(beta x)
        and sin^2(beta x / 2), the long and the short root's sines;
        orbit.potential carries the kinetic factor (1 for the one-variable
        family, 1/2 for the others)."""
        beta = self.beta
        v = 0
        sines = []
        for forms, _, c in self.orbits:
            orbit = [mpmath.sin(beta * _form_value(form, x) / 2) for form in forms]
            v += c * sum(_inv_square(s) for s in orbit)
            sines += orbit
        if self.qes:
            _, c_sin, c_half = self.qes
            s_long, s_short = sines
            v += c_sin * s_long ** 2 + c_half * s_short ** 2
        return v


def psi0_cartesian(spec: ModelSpec, x: Sequence, beta=1):
    """Ground-state factor prod |sin(beta alpha.x / 2)|^g_alpha in high
    precision; sinh factors when beta is imaginary."""
    return CheckGround(spec, beta).psi0(x)


def _inv_square(s):
    """1/s^2 for the sine s of a root's angle; a wall (s = 0) raises."""
    if s == 0:
        raise DomainError("potential evaluated on a singular wall")
    return 1 / (s * s)


# ---------------------------------------------------------------------------
# Sampling inside the alcove
# ---------------------------------------------------------------------------

def sample_alcove(spec: ModelSpec, npoints: int, seed: int, beta=1,
                  min_sin=0.12) -> list[tuple]:
    """Seeded uniform rejection sampling away from all singular walls."""
    rng = random.Random(seed)
    betaf = float(Fraction(beta))
    points: list[tuple] = []
    guard = 0
    while len(points) < npoints:
        guard += 1
        if guard > 200000:
            raise DomainError("alcove sampling failed; margins too tight")
        x = _sample_candidate(spec, rng, betaf)
        if x is not None and _inside_alcove(spec, x, betaf, min_sin):
            points.append(tuple(mpmath.mpf(v) for v in x))
    return points


def _sample_candidate(spec: ModelSpec, rng: random.Random, beta: float):
    import math
    fam = spec.family
    if fam in ("BC1", "BC1_QES"):
        lo = float(WALL_MARGIN) * math.pi / beta
        return [rng.uniform(lo, math.pi / beta - lo)]
    if fam == "SUTHERLAND":
        return [rng.uniform(0, 2 * math.pi / beta) for _ in range(spec.N)]
    if fam == "BCN":
        lo = 0.03 * math.pi / beta
        vals = sorted((rng.uniform(lo, math.pi / beta - lo)
                       for _ in range(spec.N)), reverse=True)
        return vals
    if fam == "G2":
        return [rng.uniform(-1.2 / beta, 1.2 / beta) for _ in range(3)]
    raise UnsupportedModel(fam)


def _inside_alcove(spec: ModelSpec, x, beta: float, min_sin: float) -> bool:
    import math
    return all(abs(math.sin(beta * _form_value(form, x) / 2)) > orbit.wall * min_sin
               for orbit in root_table(spec) for form in orbit.forms)


# ---------------------------------------------------------------------------
# Finite differences, for the convergence-order record alone
# ---------------------------------------------------------------------------

def _shifted(fn: Callable, x: Sequence, axis: int, h) -> list:
    """fn at x + k h e_axis for k = 1, -1, 2, -2."""
    return [fn([xi + k * h if i == axis else xi for i, xi in enumerate(x)])
            for k in (1, -1, 2, -2)]


def _second_difference(shifted: list, centre, h):
    """4th-order central d^2/dx^2 from the `_shifted` values and the centre."""
    p1, m1, p2, m2 = shifted
    return (-p2 + 16 * p1 - 30 * centre + 16 * m1 - m2) / (12 * h * h)


def _laplacian(stencil, centre, h):
    """Sum over the axes of `_second_difference`; `stencil` holds the four
    `_shifted` values of each axis in turn."""
    return sum(_second_difference(shifted, centre, h) for shifted in stencil)


def laplacian_richardson(fn: Callable, x: Sequence, h, centre):
    """4th-order central Laplacian at step h; centre = fn(x).  It takes
    4 len(x) evaluations of fn.  The name is the one `perfbench/spans.py`
    wraps."""
    return _laplacian((_shifted(fn, x, i, h) for i in range(len(x))), centre, h)


# ---------------------------------------------------------------------------
# Residual checks against the exact energies, and the affine-energy fit
# ---------------------------------------------------------------------------

class SharedMonomials:
    """The polynomials of one check, evaluated together at one point.

    `at` raises each needed (variable, power) once and multiplies each
    distinct monomial once, in variable order, as `MultiPoly.evaluate`
    builds it.  Each coefficient is converted once per working precision,
    by `poly.to_mpf`, the first time `value` runs at that precision, so an
    instance used at two precisions never serves
    one precision's coefficients at the other.  `value` then sums one
    polynomial's converted coefficients times its monomials, in term order,
    from exact 0, the constant term included.  So each value is the one
    `MultiPoly.evaluate` gives, bit for bit.  At a point of `Jet`s the same
    products and sums give each polynomial's jet (a constant polynomial
    stays a number)."""

    def __init__(self, polys: Sequence[MultiPoly]):
        self.nvars = {phi.nvars for phi in polys}
        self.polys = polys
        self.converted = {}         # mp.prec -> [[(exponents, mpf)] per polynomial]
        monomials = {e: [(i, p) for i, p in enumerate(e) if p]
                     for phi in polys for e in phi.nums}
        self.monomials = list(monomials.items())
        self.powers = sorted({key for factors in monomials.values()
                              for key in factors})

    def at(self, point: Sequence) -> dict:
        """Each monomial of the check's polynomials at `point`."""
        if self.nvars - {len(point)}:
            raise DimensionMismatch("point has wrong dimension")
        power = {(i, p): point[i] ** p for i, p in self.powers}
        values = {}
        for e, factors in self.monomials:
            val = 1
            for key in factors:
                val = val * power[key]
            values[e] = val
        return values

    def value(self, k: int, monomials: dict):
        """Polynomial k from the monomial values `at` gave."""
        terms = self.converted.get(mp.prec)
        if terms is None:
            terms = self.converted[mp.prec] = [
                [(e, to_mpf(c)) for e, c in phi.terms.items()] for phi in self.polys]
        return sum((c * monomials[e] for e, c in terms[k]), 0)


def measured_energies(bundle: ModelBundle, polys: Sequence[MultiPoly],
                      sample: Sequence, *, beta=1,
                      dps: int = DEFAULT_DPS) -> list[list]:
    """(H Psi)/Psi at each sample point for each Psi = Psi0 * phi(tau), phi
    in `polys`: one list per polynomial, in sample order.

    The Laplacian is exact: with L = log Psi0,
    (H Psi)/Psi = -kinetic (Delta L + |grad L|^2 + 2 grad L . grad phi / phi
    + Delta phi / phi) + V.  Psi0, tau and V do not depend on phi.  So a
    point costs one `CheckGround.psi0` call (for the node tests), one
    `CheckGround.invariants` call on the coordinate jets, one
    `CheckGround.log_derivatives` and one `CheckGround.potential` call for
    all the polynomials, and each distinct monomial of the polynomials is
    one jet (`SharedMonomials`).  A point is None (skipped) for every
    polynomial when it lies on a node of Psi0 or a singular wall, and for
    one polynomial when its |Psi| there is below 10^(-dps/2), a node of
    Psi.  Values are complex where the invariants are; `residual_stats` and
    `fit_energy_affine` bound the imaginary part.
    """
    energies: list[list] = [[] for _ in polys]
    shared = SharedMonomials(polys)
    with mp.workdps(dps):
        ground = CheckGround(bundle.spec, beta)
        floor = mpmath.mpf(10) ** (-dps // 2)
        coeff = mpmath.mpf(1) / 2 if kinetic_half(bundle.spec) else mpmath.mpf(1)
        for x in sample:
            try:
                psi0 = ground.psi0(x)
                monomials = shared.at(ground.invariants(Jet.coordinates(x)))
                phis = [_as_jet(shared.value(k, monomials), len(x))
                        for k in range(len(polys))]
                live = [abs(psi0 * phi.value) >= floor for phi in phis]
                if any(live):
                    grad, lap = ground.log_derivatives(x)
                    ground_part = lap + _dot(grad, grad)
                    potential = ground.potential(x)
            except DomainError:
                for measured in energies:
                    measured.append(None)
                continue
            for phi, ok, measured in zip(phis, live, energies):
                if not ok:
                    measured.append(None)
                    continue
                cross = (2 * _dot(grad, phi.grad) + phi.lap) / phi.value
                measured.append(-coeff * (ground_part + cross) + potential)
    return energies


def residual_check(bundle: ModelBundle, eps, phi: MultiPoly,
                   sample: Sequence, *, beta=1,
                   dps: int = DEFAULT_DPS) -> ResidualStats:
    """Statistics of (H Psi)/Psi - beta^2 (E0 + kappa eps) over the sample,
    with the bundle's exact E0 and the family's kappa.

    Points too close to a node of Psi are skipped and counted.  For complex
    invariants, or an imaginary beta, the imaginary part must stay below
    IMAG_TOL.
    """
    (energies,) = measured_energies(bundle, [phi], sample, beta=beta, dps=dps)
    return residual_stats(bundle, eps, energies, beta=beta, dps=dps)


def residual_stats(bundle: ModelBundle, eps, energies: Sequence, *, beta=1,
                   dps: int = DEFAULT_DPS) -> ResidualStats:
    """`residual_check` on energies already measured by `measured_energies`."""
    kappa = KAPPA[bundle.spec.family]
    with mp.workdps(dps):
        betam = to_mpf(beta)
        target = to_mpf(bundle.e0) * betam ** 2 + to_mpf(kappa) * betam ** 2 * to_mpf(eps)
        values = []
        max_imag = mp.mpf(0)
        for energy in energies:
            if energy is None:
                continue
            ratio = energy - target
            if isinstance(ratio, mpmath.mpc):
                max_imag = max(max_imag, abs(ratio.imag))
                if abs(ratio.imag) > mpmath.mpf(IMAG_TOL):
                    raise InconsistencyError(
                        f"residual has imaginary part {ratio.imag}")
                ratio = ratio.real
            values.append(ratio)
        skipped = sum(energy is None for energy in energies)
        return ResidualStats.from_values(values, skipped, max_imag)


def fit_energy_affine(bundle: ModelBundle, eigenpairs: Sequence, sample,
                      *, beta=1, dps: int = DEFAULT_DPS):
    """Least-squares fit E_measured = beta^2 (E0 + kappa eps) over >= 2
    distinct eigenvalues; returns (e0_fit, kappa_fit, variance), e0_fit and
    kappa_fit in units of beta^2, directly comparable to the exact
    `bundle.e0` and `KAPPA`.  No check reads it: it measures both constants
    for the tests."""
    if len({eps for eps, _ in eigenpairs}) < 2:
        raise DomainError("need at least two distinct eigenvalues to fit")
    energies = measured_energies(bundle, [phi for _, phi in eigenpairs], sample,
                                 beta=beta, dps=dps)
    with mp.workdps(dps):
        betam = to_mpf(beta)
        xs, ys = [], []
        for (eps, _), measured in zip(eigenpairs, energies):
            acc = []
            for val in measured:
                if val is None:
                    continue
                if isinstance(val, mpmath.mpc):
                    if abs(val.imag) > mpmath.mpf(IMAG_TOL):
                        raise InconsistencyError("complex measured energy")
                    val = val.real
                acc.append(val)
            if not acc:
                raise DomainError("no usable points for an eigenpair")
            xs.append(to_mpf(eps))
            ys.append(sum(acc, mp.mpf(0)) / len(acc))
        n = len(xs)
        sx = sum(xs, mp.mpf(0))
        sy = sum(ys, mp.mpf(0))
        sxx = sum((v * v for v in xs), mp.mpf(0))
        sxy = sum((a * b for a, b in zip(xs, ys)), mp.mpf(0))
        det = n * sxx - sx * sx
        slope = (n * sxy - sx * sy) / det
        intercept = (sy * sxx - sx * sxy) / det
        var = sum(((y - intercept - slope * x) ** 2
                   for x, y in zip(xs, ys)), mp.mpf(0)) / n
        return (intercept / betam ** 2, slope / betam ** 2, var)


# ---------------------------------------------------------------------------
# Specific identities
# ---------------------------------------------------------------------------

def a2_groundstate_identity(nu, npoints: int = 20, seed: int = 11,
                            dps: int = DEFAULT_DPS):
    """|Psi0|^2 equals the tau-discriminant to the power nu up to the exact
    constant 64^-nu (three-body relative invariants).

    Returns (max relative deviation of the ratio from 64^-nu).
    """
    from .models import build_sutherland
    spec = build_sutherland(3, nu).spec
    disc = MultiPoly(2, {
        (3, 0): Fraction(4), (0, 3): Fraction(4), (1, 1): Fraction(-18),
        (2, 2): Fraction(-1), (0, 0): Fraction(27)})
    sample = sample_alcove(spec, npoints, seed)
    with mp.workdps(dps):
        target = mpmath.mpf(64) ** (-to_mpf(nu))
        imag_bound = mpmath.mpf(10) ** (15 - dps)   # round-off: 10^15 ulps
        ground = CheckGround(spec)
        worst = mp.mpf(0)
        for x in sample:
            val = disc.evaluate(ground.invariants(x))
            if abs(val.imag) > imag_bound:
                raise InconsistencyError("discriminant must be real on the alcove")
            psi2 = ground.psi0(x) ** 2
            ratio = psi2 / (val.real ** to_mpf(nu))
            worst = max(worst, abs(ratio - target) / target)
        return worst


def periodicity_check(bundle: ModelBundle, npoints: int = 10, seed: int = 3,
                      beta=1, dps: int = DEFAULT_DPS):
    """Spot-check Psi0 and V under the translation x -> x + 2 pi / beta."""
    spec = bundle.spec
    sample = sample_alcove(spec, npoints, seed, beta)
    with mp.workdps(dps):
        ground = CheckGround(spec, beta)
        period = 2 * mpmath.pi / ground.beta
        worst = mp.mpf(0)
        for x in sample:
            shifted = [xi + period for xi in x]
            worst = max(worst, abs(ground.psi0(x) - ground.psi0(shifted)))
            worst = max(worst, abs(ground.potential(x) - ground.potential(shifted)))
        return worst


def fd_convergence_order(bundle: ModelBundle, eps, phi: MultiPoly, *,
                         beta=1, seed: int = 5, dps: int = DEFAULT_DPS):
    """Observed order of the 4th-order stencil between steps h and h/2
    against the Richardson-extrapolated limit; expect >= 3.5."""
    spec = bundle.spec
    sample = sample_alcove(spec, 3, seed, beta)
    with mp.workdps(dps):
        ground = CheckGround(spec, beta)
        shared = SharedMonomials([phi])

        def psi(x):
            return ground.psi0(x) * shared.value(0, shared.at(ground.invariants(x)))
        orders = []
        for x in sample:
            centre = psi(list(x))
            h = mpmath.mpf(1) / 50
            d1, d2, d3 = (laplacian_richardson(psi, x, h / 2 ** k, centre)
                          for k in range(3))
            limit = (16 * d3 - d2) / 15
            e1 = abs(d1 - limit)
            e2 = abs(d2 - limit)
            if e2 == 0:
                continue
            orders.append(mpmath.log(e1 / e2) / mpmath.log(2))
        if not orders:
            raise InconsistencyError("could not measure convergence order")
        return min(orders)


# ---------------------------------------------------------------------------
# TTW family
# ---------------------------------------------------------------------------

def ttw_radial_power(desc: TTWDescriptor, dps: int = DEFAULT_DPS):
    """Exponent of r in the ground factor; exact Fraction when rational.

    printed: (nu2+nu3) beta.  consistent: beta sqrt(e0 + 2b(nu2+nu3+1/2))
    with e0 = rho_k^2 = (nu2+nu3/2)^2 the bc1 ground energy
    (`models.ground_energy`), which reduces to beta |rho_k| at b = 0, the
    limit of the b != 0 branch also where rho_k < 0.
    """
    if desc.convention == "printed":
        return desc.beta * (desc.nu2 + desc.nu3)
    spec = desc.angular_spec
    lam = ground_energy(spec) + 2 * desc.b * (desc.nu2 + desc.nu3 + Fraction(1, 2))
    if lam < 0:
        raise DomainError("angular sector eigenvalue is negative; no real power")
    if desc.b == 0:
        return desc.beta * abs(rho_k(spec)[0])
    with mp.workdps(dps):
        return to_mpf(desc.beta) * mpmath.sqrt(to_mpf(lam))


def ttw_r2_coefficient(desc: TTWDescriptor, dps: int = DEFAULT_DPS):
    """Coefficient of r^2 in the potential (sextic variants tie it to the
    radial power; the harmonic variants use omega^2).  Exact when rational."""
    if not desc.has_sextic:
        return desc.omega ** 2
    gamma = ttw_radial_power(desc, dps)
    if isinstance(gamma, Fraction):
        return desc.omega ** 2 - 2 * desc.a * (2 * desc.n + 2 + gamma)
    with mp.workdps(dps):
        return (to_mpf(desc.omega) ** 2
                - 2 * to_mpf(desc.a) * (2 * desc.n + 2 + gamma))


def _radius(r):
    r = mpmath.mpf(r) if not isinstance(r, mpmath.mpf) else r
    if r <= 0:
        raise DomainError("radial coordinate must be positive")
    return r


class TTWGround:
    """Ground factor and potential of one TTW check: a radial factor on top
    of the bc1 oracle.  The angular half is the descriptor's angular spec
    (bc1, or bc1_qes at level m) in phi at the TTW beta, read from
    `CheckGround`: `ground` gives the ground factor and its log-derivatives,
    with b -> -b in the printed convention, and `bc1` gives the potential,
    with +b in both (the printed defect).  The radial half keeps omega, the
    sextic constants and the r^2 coefficient, converted once at `dps`.  An
    instance lives for one check and is never stored.

    The residual (`energy`) reads the closed-form first and second
    derivatives of the log of the radial part (`radial_log`) and the bc1
    log-derivatives (`CheckGround.log_derivatives`)."""

    def __init__(self, desc: TTWDescriptor, dps: int):
        self.desc, self.dps = desc, dps
        omega, a = to_mpf(desc.omega), to_mpf(desc.a)
        self.neg_omega = -omega
        self.sextic = (a, a * a, 2 * a * omega) if desc.has_sextic else None
        spec = desc.angular_spec
        self.bc1 = self.ground = CheckGround(spec, desc.beta)
        if desc.has_angular_qes and desc.convention == "printed":
            self.ground = CheckGround(replace(spec, b=-spec.b), desc.beta)

    # The radial power and the r^2 coefficient are worked out at first use.
    # Where the power is not real, each use then raises as a per-call
    # evaluation does, and a harmonic potential, which needs no power, stays
    # defined.
    @functools.cached_property
    def gamma(self):
        return ttw_radial_power(self.desc, self.dps)

    @functools.cached_property
    def r2(self):
        return ttw_r2_coefficient(self.desc, self.dps)

    @functools.cached_property
    def gamma_mpf(self):
        return to_mpf(self.gamma)

    def radial(self, r) -> tuple:
        """(r^gamma, -omega r^2/2 [- a r^4/4])."""
        r = _radius(r)
        power = r ** self.gamma
        expo = self.neg_omega * r ** 2 / 2
        if self.sextic:
            expo -= self.sextic[0] * r ** 4 / 4
        return power, expo

    def radial_log(self, r) -> tuple:
        """(L', L'') of L = log of the radial part: gamma/r - omega r
        [- a r^3] and -gamma/r^2 - omega [- 3 a r^2]."""
        r = _radius(r)
        gamma = self.gamma_mpf
        d1 = gamma / r + self.neg_omega * r
        d2 = -gamma / r ** 2 + self.neg_omega
        if self.sextic:
            a = self.sextic[0]
            d1 -= a * r ** 3
            d2 -= 3 * a * r ** 2
        return d1, d2

    def factor(self, r, phi):
        """r^gamma exp(-omega r^2/2 [- a r^4/4]) times the bc1 Psi0 at phi."""
        power, expo = self.radial(r)
        return power * mpmath.exp(expo) * self.ground.psi0([phi])

    def energy(self, r, phi):
        """(H Psi0)/Psi0 at (r, phi) for H = -d_r^2 - (1/r) d_r
        - (1/r^2) d_phi^2 + V: -(L_rr + L_r^2 + L_r / r)
        - (L_phiphi + L_phi^2) / r^2 + V."""
        lr, lrr = self.radial_log(r)
        (lp,), lpp = self.ground.log_derivatives([phi])
        return (-(lrr + lr * lr + lr / r) - (lpp + lp * lp) / r ** 2
                + self.potential(r, phi))

    def potential(self, r, phi):
        """The radial well plus the bc1 potential at phi over r^2."""
        r = _radius(r)
        v = self.r2 * r ** 2
        if self.sextic:
            _, aa, two_a_omega = self.sextic
            v += aa * r ** 6 + two_a_omega * r ** 4
        return v + self.bc1.potential([phi]) / r ** 2


def ttw_sample(desc: TTWDescriptor, npoints: int, seed: int):
    rng = random.Random(seed)
    import math
    betaf = float(desc.beta)
    pts = []
    while len(pts) < npoints:
        r = rng.uniform(0.35, 1.4)
        phi = rng.uniform(0.08 * math.pi / betaf, 0.92 * math.pi / betaf)
        if abs(math.sin(betaf * phi)) > 0.1:
            pts.append((mpmath.mpf(r), mpmath.mpf(phi)))
    return pts


def ttw_ground_check(desc: TTWDescriptor, npoints: int = 50, seed: int = 17,
                     dps: int = DEFAULT_DPS) -> ResidualStats:
    """(H Psi0)/Psi0 must be constant across the sample; the mean is the
    fitted ground energy and std/|mean| the constancy ratio.  Each point
    takes the exact log-derivatives of the ground factor
    (`TTWGround.energy`); one on a node, at r <= 0 or with no real radial
    power is skipped."""
    sample = ttw_sample(desc, npoints, seed)
    with mp.workdps(dps):
        ground = TTWGround(desc, dps)
        values = []
        skipped = 0
        for (r, phi) in sample:
            try:
                values.append(ground.energy(r, phi))
            except DomainError:
                skipped += 1
        return ResidualStats.from_values(values, skipped, 0)

