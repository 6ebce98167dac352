"""Cartesian oracle: invariants, factors, potentials, residuals, fits."""

import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import reference_kernels
from orbitforms import cartesian as cart
from orbitforms import suites
from orbitforms.cli import main
from orbitforms.errors import DomainError
from orbitforms.poly import MultiPoly
from orbitforms.models import (ModelSpec, build_bc1, build_bc1_qes, build_bcn,
                               build_g2, build_sutherland, ttw_models)
from orbitforms.report import RunConfig
from orbitforms.spectral import spectrum
from orbitforms.suites import suite_cartesian, suite_ttw

HALF = Fraction(1, 2)


def test_invariants_bc1_origin():
    spec = build_bc1(0, 0).spec
    assert cart.invariants_map(spec, [mpmath.mpf(0)]) == [1]


def test_invariants_sutherland_origin():
    spec = build_sutherland(3, HALF).spec
    tau = cart.invariants_map(spec, [mpmath.mpf(2), mpmath.mpf(2), mpmath.mpf(2)])
    assert abs(tau[0] - 3) < mpmath.mpf("1e-12")
    assert abs(tau[1] - 3) < mpmath.mpf("1e-12")


def test_invariants_sutherland_conjugate_pairing():
    spec = build_sutherland(3, HALF).spec
    tau = cart.invariants_map(spec, [mpmath.mpf("0.3"), mpmath.mpf("0.9"),
                                     mpmath.mpf("2.1")])
    assert abs(tau[0] - mpmath.conj(tau[1])) < mpmath.mpf("1e-12")


def test_invariants_g2_origin():
    spec = build_g2(HALF, HALF).spec
    tau = cart.invariants_map(spec, [mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(1)])
    assert abs(tau[0] - 6) < mpmath.mpf("1e-12") and abs(tau[1] - 6) < mpmath.mpf("1e-12")


def test_psi0_bc1_peak():
    spec = build_bc1(1, 0).spec
    x = mpmath.pi / 2
    assert abs(cart.psi0_cartesian(spec, [x]) - 1) < mpmath.mpf("1e-12")


def test_psi0_node_error():
    spec = build_bc1(1, 0).spec
    with pytest.raises(DomainError):
        cart.psi0_cartesian(spec, [mpmath.pi])
    with pytest.raises(DomainError):
        cart.CheckGround(spec).log_derivatives([mpmath.pi])


def test_potential_bc1_single_coupling():
    nu3 = Fraction(2, 3)
    spec = build_bc1(0, nu3).spec     # g2 = 0
    g3 = nu3 * (nu3 - 1)
    x = mpmath.mpf("0.8")
    expected = mpmath.mpf(g3.numerator) / g3.denominator / 4 / mpmath.sin(x / 2) ** 2
    assert abs(cart.CheckGround(spec).potential([x]) - expected) < mpmath.mpf("1e-20")


def test_potential_sutherland_symmetric():
    spec = build_sutherland(2, HALF).spec
    a, b = mpmath.mpf("0.7"), mpmath.mpf("1.9")
    ground = cart.CheckGround(spec)
    assert abs(ground.potential([a, b]) - ground.potential([b, a])) < mpmath.mpf("1e-25")


def test_potential_singularity_error():
    spec = build_sutherland(2, HALF).spec
    with pytest.raises(DomainError):
        cart.CheckGround(spec).potential([mpmath.mpf(1), mpmath.mpf(1)])


# -- the root table against the per-family formulas it replaced ---------------

def _q(v):
    return mpmath.mpf(v.numerator) / v.denominator


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


G2_LONG = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def reference_psi0(spec, x, beta):
    """prod |sin|^g written out per family."""
    fam = spec.family

    def p(arg, g):
        return abs(mpmath.sin(arg)) ** _q(g)
    if fam in ("BC1", "BC1_QES"):
        v = p(beta * x[0], spec.nu2) * p(beta * x[0] / 2, spec.nu3)
        if fam == "BC1_QES":
            v *= mpmath.exp(_q(spec.b) * mpmath.cos(beta * x[0]))
        return v
    v = mpmath.mpf(1)
    if fam == "SUTHERLAND":
        for i, j in _pairs(spec.N):
            v *= p(beta * (x[i] - x[j]) / 2, spec.nu)
    elif fam == "BCN":
        for i, j in _pairs(spec.N):
            v *= p(beta * (x[i] - x[j]) / 2, spec.nu) * p(beta * (x[i] + x[j]) / 2, spec.nu)
        for xi in x:
            v *= p(beta * xi, spec.nu2) * p(beta * xi / 2, spec.nu3)
    else:
        for i, j in _pairs(3):
            v *= p(beta * (x[i] - x[j]) / 2, spec.nu)
        for i, j, k in G2_LONG:
            v *= p(beta * (x[i] + x[j] - 2 * x[k]) / 2, spec.mu)
    return v


def reference_potential(spec, x, beta):
    """The potential written out per family, with its kinetic convention."""
    fam = spec.family
    b2 = beta * beta

    def s2(arg):
        return 1 / mpmath.sin(arg) ** 2
    if fam in ("BC1", "BC1_QES"):
        nu2, nu3 = spec.nu2, spec.nu3
        v = (_q(nu2 * (nu2 - 1)) * b2 * s2(beta * x[0])
             + _q(nu3 * (nu3 + 2 * nu2 - 1)) * b2 / 4 * s2(beta * x[0] / 2))
        if fam == "BC1_QES":
            bb = _q(spec.b)
            v += (bb * bb * b2 * mpmath.sin(beta * x[0]) ** 2
                  + 2 * bb * b2 * _q(2 * spec.n + 2 * nu2 + nu3 + 1)
                  * mpmath.sin(beta * x[0] / 2) ** 2)
        return v
    if fam == "SUTHERLAND":
        return _q(spec.nu * (spec.nu - 1)) * b2 / 4 * sum(
            s2(beta * (x[i] - x[j]) / 2) for i, j in _pairs(spec.N))
    if fam == "BCN":
        nu, nu2, nu3 = spec.nu, spec.nu2, spec.nu3
        return (_q(nu * (nu - 1)) * b2 / 4 * sum(
                    s2(beta * (x[i] - x[j]) / 2) + s2(beta * (x[i] + x[j]) / 2)
                    for i, j in _pairs(spec.N))
                + _q(nu2 * (nu2 - 1)) * b2 / 2 * sum(s2(beta * xi) for xi in x)
                + _q(nu3 * (nu3 + 2 * nu2 - 1)) * b2 / 8 * sum(s2(beta * xi / 2) for xi in x))
    return (_q(spec.nu * (spec.nu - 1)) * b2 / 4 * sum(
                s2(beta * (x[i] - x[j]) / 2) for i, j in _pairs(3))
            + _q(3 * spec.mu * (spec.mu - 1)) * b2 / 4 * sum(
                s2(beta * (x[i] + x[j] - 2 * x[k]) / 2) for i, j, k in G2_LONG))


def reference_inside_alcove(spec, x, beta, min_sin):
    """Every wall |sin| above min_sin; the BC short-root walls above half of it."""
    fam = spec.family

    def s(a):
        return abs(math.sin(a))
    if fam in ("BC1", "BC1_QES"):
        return s(beta * x[0]) > min_sin and s(beta * x[0] / 2) > min_sin / 2
    if fam == "SUTHERLAND":
        return all(s(beta * (x[i] - x[j]) / 2) > min_sin for i, j in _pairs(spec.N))
    if fam == "BCN":
        return (all(s(beta * xi) > min_sin and s(beta * xi / 2) > min_sin / 2 for xi in x)
                and all(s(beta * (x[i] - x[j]) / 2) > min_sin
                        and s(beta * (x[i] + x[j]) / 2) > min_sin for i, j in _pairs(spec.N)))
    y = [xi - sum(x) / 3 for xi in x]
    return (all(s(beta * (y[i] - y[j]) / 2) > min_sin for i, j in _pairs(3))
            and all(s(beta * (y[i] + y[j] - 2 * y[k]) / 2) > min_sin for i, j, k in G2_LONG))


couplings = st.builds(Fraction, st.integers(-7, 9), st.integers(1, 6))


@st.composite
def model_specs(draw):
    family = draw(st.sampled_from(["BC1", "BC1_QES", "SUTHERLAND", "BCN", "G2"]))
    if family in ("BC1", "BC1_QES"):
        extra = dict(b=draw(couplings), n=draw(st.integers(0, 3))) \
            if family == "BC1_QES" else {}
        return ModelSpec(family, nu2=draw(couplings), nu3=draw(couplings), **extra)
    if family == "SUTHERLAND":
        return ModelSpec(family, N=draw(st.integers(2, 4)), nu=draw(couplings))
    if family == "BCN":
        return ModelSpec(family, N=draw(st.integers(1, 3)), nu=draw(couplings),
                         nu2=draw(couplings), nu3=draw(couplings))
    return ModelSpec(family, nu=draw(couplings), mu=draw(couplings))


@settings(max_examples=60, deadline=None)
@given(spec=model_specs(), beta=st.sampled_from([Fraction(1), Fraction(6, 5), Fraction(1, 2)]),
       seed=st.integers(0, 10 ** 6))
@example(spec=ModelSpec("BC1_QES", nu2=Fraction(1, 3), nu3=Fraction(2, 5),
                        b=Fraction(-5, 3), n=2), beta=Fraction(6, 5), seed=3)
def test_root_table_matches_per_family_formulas(spec, beta, seed):
    (x,) = cart.sample_alcove(spec, 1, seed, beta)
    with mp.workdps(40):
        betam = _q(beta)
        psi0, ref = cart.psi0_cartesian(spec, x, beta), reference_psi0(spec, x, betam)
        assert abs(psi0 - ref) <= mpmath.mpf("1e-35") * abs(ref)
        pot, ref = (cart.CheckGround(spec, beta).potential(x),
                    reference_potential(spec, x, betam))
        assert abs(pot - ref) <= mpmath.mpf("1e-35") * max(1, abs(ref))
        # and bit for bit the per-call functions the check constants replaced
        assert ((cart.invariants_map(spec, x, beta), psi0, pot)
                == (reference_kernels.invariants_map(spec, x, beta),
                    reference_kernels.psi0_cartesian(spec, x, beta),
                    reference_kernels.hamiltonian_potential(spec, x, beta)))
    rng = random.Random(seed)
    for _ in range(20):
        cand = cart._sample_candidate(spec, rng, float(beta))
        assert (cart._inside_alcove(spec, cand, float(beta), 0.12)
                == reference_inside_alcove(spec, cand, float(beta), 0.12))


@pytest.mark.parametrize("field", ["nu", "nu2", "nu3", "mu", "b"])
def test_model_spec_hash_eq_and_one_root_table_per_spec(field):
    spec = ModelSpec("BCN", N=2, nu=HALF, nu2=Fraction(1, 3), nu3=Fraction(1, 5))
    same = ModelSpec("BCN", N=2, nu=Fraction(2, 4), nu2=Fraction(1, 3), nu3=Fraction(1, 5))
    assert spec == same and hash(spec) == hash(same)
    assert cart.root_table(spec) is cart.root_table(same)
    other = dataclasses.replace(spec, **{field: Fraction(2, 7)})
    assert other != spec
    assert hash(other) == hash(dataclasses.replace(spec, **{field: Fraction(4, 14)}))


def test_imaginary_beta_gives_sinh_formulas():
    nu, nu2, nu3 = Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)
    g, g2, g3 = nu * (nu - 1), nu2 * (nu2 - 1), nu3 * (nu3 + 2 * nu2 - 1)
    i = mpmath.mpc(0, 1)
    with mp.workdps(40):
        x = [mpmath.mpf("0.7"), mpmath.mpf("1.3")]
        sh = mpmath.sinh
        # one variable: |sinh x|^nu2 |sinh x/2|^nu3 and g2/sinh^2 x + g3/(4 sinh^2 x/2)
        spec = build_bc1(nu2, nu3).spec
        assert abs(cart.invariants_map(spec, x[:1], i)[0] - mpmath.cosh(x[0])) < mpmath.mpf("1e-38")
        psi0 = abs(sh(x[0])) ** _q(nu2) * abs(sh(x[0] / 2)) ** _q(nu3)
        assert abs(cart.psi0_cartesian(spec, x[:1], i) - psi0) < mpmath.mpf("1e-38")
        pot = _q(g2) / sh(x[0]) ** 2 + _q(g3) / (4 * sh(x[0] / 2) ** 2)
        assert abs(cart.CheckGround(spec, i).potential(x[:1]) - pot) < mpmath.mpf("1e-38")
        # BC_2, with the half kinetic factor
        spec = build_bcn(2, nu, nu2, nu3).spec
        psi0 = (abs(sh((x[0] - x[1]) / 2) * sh((x[0] + x[1]) / 2)) ** _q(nu)
                * abs(sh(x[0]) * sh(x[1])) ** _q(nu2)
                * abs(sh(x[0] / 2) * sh(x[1] / 2)) ** _q(nu3))
        assert abs(cart.psi0_cartesian(spec, x, i) - psi0) < mpmath.mpf("1e-38")
        pot = (_q(g) / 4 * (1 / sh((x[0] - x[1]) / 2) ** 2 + 1 / sh((x[0] + x[1]) / 2) ** 2)
               + _q(g2) / 2 * (1 / sh(x[0]) ** 2 + 1 / sh(x[1]) ** 2)
               + _q(g3) / 8 * (1 / sh(x[0] / 2) ** 2 + 1 / sh(x[1] / 2) ** 2))
        assert abs(cart.CheckGround(spec, i).potential(x) - pot) < mpmath.mpf("1e-38")


def test_sampling_is_deterministic():
    spec = build_bcn(2, HALF, HALF, HALF).spec
    a = cart.sample_alcove(spec, 5, seed=3)
    b = cart.sample_alcove(spec, 5, seed=3)
    assert a == b


# -- residual checks (kept small; the verify suite runs the full versions) ------

def test_bc1_free_particle_energy():
    bundle = build_bc1(0, 0)
    rec = spectrum(bundle, 2, numeric_check=False)
    phi = [e for e in rec.entries if e.eigenvalue == 4][0].eigenpolynomials[0]
    pts = cart.sample_alcove(bundle.spec, 8, seed=5)
    st = cart.residual_check(bundle, Fraction(4), phi, pts)
    assert st.max_abs < mpmath.mpf("1e-8")


def test_bc1_excited_state_with_exact_e0():
    bundle = build_bc1(1, 2)           # E0 = +4 beta^2
    rec = spectrum(bundle, 1, numeric_check=False)
    phi = rec.entries[1].eigenpolynomials[0]
    pts = cart.sample_alcove(bundle.spec, 8, seed=6)
    st = cart.residual_check(bundle, rec.entries[1].eigenvalue, phi, pts)
    assert st.max_abs < mpmath.mpf("1e-6")


def test_sutherland_complex_residual_real():
    bundle = build_sutherland(3, HALF)
    rec = spectrum(bundle, 1, numeric_check=False)
    entry = [e for e in rec.entries if e.multiplicity == 2][0]
    pts = cart.sample_alcove(bundle.spec, 6, seed=7)
    st = cart.residual_check(bundle, entry.eigenvalue,
                             entry.eigenpolynomials[0], pts)
    assert bundle.e0 == Fraction(1, 4)
    assert st.max_abs < mpmath.mpf("1e-6")
    assert st.max_imag < mpmath.mpf("1e-8")


def test_fit_requires_two_eigenvalues():
    bundle = build_bc1(0, 0)
    rec = spectrum(bundle, 0, numeric_check=False)
    pts = cart.sample_alcove(bundle.spec, 4, seed=8)
    with pytest.raises(DomainError):
        cart.fit_energy_affine(
            bundle, [(Fraction(0), rec.entries[0].eigenpolynomials[0])], pts)


def test_hyperbolic_consistency():
    bundle = build_bc1(Fraction(1, 3), Fraction(2, 5))
    rec = spectrum(bundle, 2, numeric_check=False)
    pts = [(mpmath.mpf("0.5"),), (mpmath.mpf("0.9"),), (mpmath.mpf("1.4"),)]
    for entry in rec.entries:
        st = cart.residual_check(bundle, entry.eigenvalue,
                                 entry.eigenpolynomials[0], pts,
                                 beta=mpmath.mpc(0, 1))
        assert st.max_abs < mpmath.mpf("1e-6")


# 2 nu in [0, 10]; the examples are bc1 at beta = 6/5 where the old
# Richardson pair of fixed steps (1/100, 1/200) exceeded the suite's 1e-6
@settings(max_examples=12, deadline=None)
@given(two_nu2=st.fractions(0, 10, max_denominator=6),
       two_nu3=st.fractions(0, 10, max_denominator=6),
       n=st.integers(0, 12), beta=st.sampled_from([Fraction(1), Fraction(6, 5)]),
       seed=st.integers(0, 10 ** 6))
@example(two_nu2=Fraction(7), two_nu3=Fraction(9), n=6, beta=Fraction(6, 5), seed=3)
@example(two_nu2=Fraction(22, 3), two_nu3=Fraction(10), n=8, beta=Fraction(6, 5), seed=3)
@example(two_nu2=Fraction(2, 3), two_nu3=Fraction(4, 5), n=12, beta=Fraction(6, 5), seed=3)
def test_bc1_residuals_at_generic_couplings(two_nu2, two_nu3, n, beta, seed):
    bundle = build_bc1(two_nu2 / 2, two_nu3 / 2)
    record = spectrum(bundle, n, numeric_check=False)
    sample = cart.sample_alcove(bundle.spec, 30, seed, beta)
    worst = max(cart.residual_check(bundle, e.eigenvalue, e.eigenpolynomials[0],
                                    sample, beta=beta).max_abs
                for e in record.entries)
    assert worst < mpmath.mpf("1e-6")


def test_bcn_at_one_residuals_use_its_own_ground_energy():
    # BC_N at N = 1 has half the bc1 kinetic term, so half its ground energy
    bundle = build_bcn(1, HALF, Fraction(1, 3), Fraction(2, 5))
    sample = cart.sample_alcove(bundle.spec, 8, 5)
    for entry in spectrum(bundle, 3, numeric_check=False).entries:
        st = cart.residual_check(bundle, entry.eigenvalue,
                                 entry.eigenpolynomials[0], sample)
        assert st.max_abs < mpmath.mpf("1e-6")


# each builder takes three couplings and ignores those it has no use for
FITTED_MODELS = {
    "sutherland3": lambda nu, _, __: build_sutherland(3, nu),
    "bc2": lambda nu, nu2, nu3: build_bcn(2, nu, nu2, nu3),
    "g2": lambda nu, mu, _: build_g2(nu, mu),
}


@settings(max_examples=9, deadline=None)
@given(model=st.sampled_from(sorted(FITTED_MODELS)),
       couplings=st.lists(st.fractions(0, 3, max_denominator=7), min_size=3, max_size=3),
       seed=st.integers(0, 10 ** 6))
def test_fitted_residuals_at_random_couplings(model, couplings, seed):
    # the residuals against the exact target, and a free fit of (E0, kappa)
    # that lands on the exact constants
    bundle = FITTED_MODELS[model](*couplings)
    pairs = [(e.eigenvalue, phi) for e in spectrum(bundle, 2, numeric_check=False).entries
             for phi in e.eigenpolynomials]
    sample = cart.sample_alcove(bundle.spec, 6, seed)
    energies = cart.measured_energies(bundle, [phi for _, phi in pairs], sample)
    worst = max(cart.residual_stats(bundle, eps, measured).max_abs
                for (eps, _), measured in zip(pairs, energies))
    assert worst < mpmath.mpf("1e-6")
    e0f, kf, _ = cart.fit_energy_affine(bundle, pairs, sample)
    assert abs(e0f - _q(bundle.e0)) < mpmath.mpf("1e-6")
    assert abs(kf - _q(cart.KAPPA[bundle.spec.family])) < mpmath.mpf("1e-6")


def test_residual_step_follows_the_working_precision():
    bundle = build_bc1(Fraction(1, 3), Fraction(2, 5))
    beta = Fraction(6, 5)
    sample = cart.sample_alcove(bundle.spec, 10, 3, beta)
    worst = max(cart.residual_check(bundle, e.eigenvalue, e.eigenpolynomials[0],
                                    sample, beta=beta, dps=60).max_abs
                for e in spectrum(bundle, 4, numeric_check=False).entries)
    assert worst < mpmath.mpf("1e-30")


def test_a2_identity_small():
    dev = cart.a2_groundstate_identity(HALF, npoints=6, seed=9)
    assert dev < mpmath.mpf("1e-12")


def test_fd_convergence_order():
    bundle = build_bc1(0, 0)
    rec = spectrum(bundle, 3, numeric_check=False)
    phi = [e for e in rec.entries if e.eigenvalue == 9][0].eigenpolynomials[0]
    assert cart.fd_convergence_order(bundle, Fraction(9), phi) >= mpmath.mpf("3.5")


def test_cartesian_suite_follows_the_working_precision(tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    seen = []

    def spy(name):
        real = getattr(cart, name)

        def wrapped(*args, **kwargs):
            seen.append((name, kwargs.get("dps")))
            return real(*args, **kwargs)
        monkeypatch.setattr(cart, name, wrapped)
    for name in ("fd_convergence_order", "periodicity_check"):
        spy(name)
    assert main(["verify", "--suite", "cartesian", "--sample-points", "10",
                 "--seed", "1", "--dps", "20", "--out", str(tmp_path / "r")]) == 0
    assert sorted(seen) == [("fd_convergence_order", 20), ("periodicity_check", 20)]


# -- TTW family ----------------------------------------------------------------

BASE = dict(nu2=HALF, nu3=Fraction(1, 3), beta=Fraction(3, 2), omega=Fraction(1))


def test_ttw_plain_potential_formula():
    d = ttw_models("TTW", **BASE)
    g2 = HALF * (HALF - 1)
    g3 = Fraction(1, 3) * (Fraction(1, 3) + 1 - 1)
    with mp.workdps(40):
        r, phi = mpmath.mpf("0.9"), mpmath.mpf("0.7")
        beta = mpmath.mpf(3) / 2
        expected = (r * r
                    + (mpmath.mpf(g2.numerator) / g2.denominator * beta ** 2
                       / mpmath.sin(beta * phi) ** 2
                       + mpmath.mpf(g3.numerator) / g3.denominator * beta ** 2
                       / (4 * mpmath.sin(beta * phi / 2) ** 2)) / r ** 2)
        assert abs(cart.TTWGround(d, 40).potential(r, phi) - expected) < mpmath.mpf("1e-20")


def test_ttw_ground_factor_printed_term_by_term():
    d = ttw_models("TTW", convention="printed", **BASE)
    r, phi = mpmath.mpf(1), mpmath.pi / (2 * mpmath.mpf(3) / 2)
    with mp.workdps(40):
        val = cart.TTWGround(d, 40).factor(r, phi)
        beta = mpmath.mpf(3) / 2
        expected = (r ** (mpmath.mpf(5) / 6 * beta)
                    * abs(mpmath.sin(beta * phi)) ** mpmath.mpf("0.5")
                    * abs(mpmath.sin(beta * phi / 2)) ** (mpmath.mpf(1) / 3)
                    * mpmath.exp(-r * r / 2))
        assert abs(val - expected) < mpmath.mpf("1e-20")


def test_ttw_full_factor_exponent_signs():
    full_printed = ttw_models("TTW_QES_FULL", a=HALF, b=Fraction(2, 5),
                              convention="printed", **BASE)
    full = ttw_models("TTW_QES_FULL", a=HALF, b=Fraction(2, 5), **BASE)
    r, phi = mpmath.mpf("1.1"), mpmath.mpf("0.6")
    with mp.workdps(40):
        beta = mpmath.mpf(3) / 2
        b = mpmath.mpf(2) / 5
        ratio = (cart.TTWGround(full, 40).factor(r, phi)
                 / cart.TTWGround(full_printed, 40).factor(r, phi))
        # identical except r-power and the sign of b cos(beta phi)
        gamma_gap = (cart.ttw_radial_power(full)
                     - mpmath.mpf(5) / 6 * beta)
        expected = r ** gamma_gap * mpmath.exp(2 * b * mpmath.cos(beta * phi))
        assert abs(ratio - expected) < mpmath.mpf("1e-20")


def test_ttw_radial_power_is_continuous_at_b_zero():
    # rho_k = nu2 + nu3/2 = -4/3 < 0: the b = 0 power is beta |rho_k| = 2,
    # the limit of beta sqrt(lambda) as b -> 0, not beta rho_k = -2
    def power(b):
        return cart.ttw_radial_power(ttw_models(
            "TTW_QES_ANGULAR", nu2=Fraction(-3, 2), nu3=Fraction(1, 3),
            beta=Fraction(3, 2), omega=1, b=b))
    at_zero = power(0)
    assert isinstance(at_zero, Fraction) and at_zero == 2
    with mp.workdps(40):
        assert abs(power(Fraction(1, 10 ** 12)) - at_zero) < mpmath.mpf("1e-11")


def test_ttw_r_must_be_positive():
    d = ttw_models("TTW", **BASE)
    ground = cart.TTWGround(d, 40)
    with pytest.raises(DomainError):
        ground.potential(mpmath.mpf(0), mpmath.mpf(1))
    with pytest.raises(DomainError):
        ground.factor(mpmath.mpf(-1), mpmath.mpf(1))


def test_ttw_ground_constancy_quick():
    d = ttw_models("TTW", **BASE)
    st = cart.ttw_ground_check(d, npoints=8, seed=11)
    assert st.std / abs(st.mean) < mpmath.mpf("1e-6")


def test_ttw_angular_variant_quick():
    d = ttw_models("TTW_QES_ANGULAR", b=Fraction(2, 5), **BASE)
    st = cart.ttw_ground_check(d, npoints=8, seed=12)
    assert st.std / abs(st.mean) < mpmath.mpf("1e-6")


def test_fit_bc1_returns_exact_constants():
    bundle = build_bc1(Fraction(1, 3), Fraction(2, 5))
    rec = spectrum(bundle, 3, numeric_check=False)
    pairs = [(e.eigenvalue, e.eigenpolynomials[0]) for e in rec.entries]
    pts = cart.sample_alcove(bundle.spec, 8, seed=21)
    e0f, kf, var = cart.fit_energy_affine(bundle, pairs, pts, beta=Fraction(6, 5))
    e0 = bundle.e0
    assert abs(kf - 1) < mpmath.mpf("1e-6")
    assert abs(e0f - mpmath.mpf(e0.numerator) / e0.denominator) < mpmath.mpf("1e-6")
    assert var < mpmath.mpf("1e-12")


def test_qes_ground_state_in_cartesian_space():
    # level-0 algebraic state: Psi0 e^{+b cos(beta x)} with the exact eigenvalue
    nu2, nu3, b = Fraction(1, 3), Fraction(1, 5), Fraction(2, 3)
    from orbitforms.models import build_bc1_qes
    bundle = build_bc1_qes(nu2, nu3, b, 0)
    eps = 2 * b * (nu2 + nu3 + HALF)       # h_qes(1) at level 0
    pts = cart.sample_alcove(bundle.spec, 10, seed=23)
    st = cart.residual_check(bundle, eps, MultiPoly.const(1, 1), pts)
    assert st.max_abs < mpmath.mpf("1e-6")


# -- the shared measured-energy path ------------------------------------------------

# (check name, bundle, sample points)
RESIDUAL_CHECKS = {
    "sutherland": ("cartesian/sutherland3/residuals",
                   lambda: build_sutherland(3, HALF), 3),
    "bcn": ("cartesian/bc2/residuals",
            lambda: build_bcn(2, HALF, Fraction(1, 3), Fraction(1, 5)), 11),
    "g2": ("cartesian/g2/residuals", lambda: build_g2(HALF, Fraction(1, 3)), 3),
}


@pytest.mark.parametrize("model", sorted(RESIDUAL_CHECKS))
def test_suite_residuals_match_separate_fit_and_residual_passes(model):
    name, build, points = RESIDUAL_CHECKS[model]
    config = RunConfig.from_items({"command": "verify", "suite": "cartesian",
                                   "model": model, "sample_points": points})
    (record,) = [c for c in suite_cartesian(config) if c.name == name]
    # reference: each eigenpair measures H Psi itself against the exact
    # target, on the suite's sample (seed + 6) and level 2
    bundle = build()
    pairs = [(e.eigenvalue, phi) for e in spectrum(bundle, 2, numeric_check=False).entries
             for phi in e.eigenpolynomials]
    sample = cart.sample_alcove(bundle.spec, points, 7)
    worst = max(cart.residual_check(bundle, eps, phi, sample).max_abs
                for eps, phi in pairs)
    assert record.exact == {"e0": bundle.e0}
    assert record.numeric == {"max_residual": mpmath.nstr(worst, 3)}


def test_doubled_g2_operator_and_eigenvalue_fail_the_residuals(monkeypatch):
    # h and eps both doubled: the spectrum still matches its formula and the
    # eigenfunctions are unchanged, so only the exact E0 and kappa catch it
    real = suites.build_g2

    def doubled(nu, mu):
        bundle = real(nu, mu)
        return dataclasses.replace(bundle, h=bundle.h * 2,
                                   eigenvalue=lambda p: 2 * bundle.eigenvalue(p))
    monkeypatch.setattr(suites, "build_g2", doubled)
    config = RunConfig.from_items({"command": "verify", "suite": "cartesian",
                                   "model": "g2", "sample_points": 3})
    (record,) = [c for c in suite_cartesian(config)
                 if c.name == "cartesian/g2/residuals"]
    assert record.status == "fail"


@pytest.mark.parametrize("bundle", [build_bc1(Fraction(1, 3), Fraction(2, 5)),
                                    build_bcn(2, HALF, Fraction(1, 3), Fraction(1, 5)),
                                    build_g2(HALF, Fraction(1, 3))],
                         ids=["bc1", "bc2", "g2"])
def test_residual_point_evaluates_psi0_tau_jets_and_potential_once(bundle, monkeypatch):
    # one Psi0 (for the node tests), one tau on the coordinate jets, one pass
    # of log-derivatives of Psi0 and one potential per point, whether the
    # check has one eigenpolynomial or the whole level-2 flag
    point = cart.sample_alcove(bundle.spec, 1, seed=4)
    flag = [phi for e in spectrum(bundle, 2, numeric_check=False).entries
            for phi in e.eigenpolynomials]
    assert len(flag) > 1
    calls = dict.fromkeys(["psi0", "invariants", "log_derivatives", "potential"], 0)
    jet_points = []

    def count(name):
        real = getattr(cart.CheckGround, name)

        def counted(self, x, *args, **kwargs):
            calls[name] += 1
            if name == "invariants":
                jet_points.append(all(isinstance(xi, cart.Jet) for xi in x))
            return real(self, x, *args, **kwargs)
        monkeypatch.setattr(cart.CheckGround, name, counted)
    for name in calls:
        count(name)
    for polys in ([MultiPoly.const(bundle.d, 1)], flag):
        calls.update(dict.fromkeys(calls, 0))
        jet_points.clear()
        energies = cart.measured_energies(bundle, polys, point)
        assert len(energies) == len(polys)
        assert all(measured[0] is not None for measured in energies)
        assert calls == {"psi0": 1, "invariants": 1, "log_derivatives": 1,
                         "potential": 1}
        assert jet_points == [True]


def _node_of(phi, beta, dps):
    """A point x with tau = cos(beta x) at a real root of the one-variable
    phi inside (-1, 1), or None."""
    degree = max(e for (e,) in phi.terms)
    coeffs = [phi.coeff((k,)) for k in range(degree, -1, -1)]
    with mp.workdps(2 * dps):
        for root in mpmath.polyroots([_q(c) for c in coeffs], maxsteps=200,
                                     extraprec=4 * dps):
            if abs(mpmath.im(root)) < mpmath.mpf(10) ** -dps and -1 < mpmath.re(root) < 1:
                return (mpmath.acos(mpmath.re(root)) / _q(beta),)
    return None


# each model constructor takes three couplings and ignores those it has no use
# for; bc1_qes (b is the first coupling) has no closed-form eigenpolynomials,
# so its check takes those of bc1 at the same nu2, nu3, a basis of the same
# flag whose polynomials have simple roots
SHARED_PASS_MODELS = {
    "bc1": (lambda nu, nu2, nu3: build_bc1(nu2, nu3), 4),
    "bc1_qes": (lambda b, nu2, nu3: build_bc1_qes(nu2, nu3, b, 3), 3),
    "sutherland3": (lambda nu, _, __: build_sutherland(3, nu), 2),
    "sutherland4": (lambda nu, _, __: build_sutherland(4, nu), 2),
    "bc2": (lambda nu, nu2, nu3: build_bcn(2, nu, nu2, nu3), 2),
    "bc3": (lambda nu, nu2, nu3: build_bcn(3, nu, nu2, nu3), 2),
    "g2": (lambda nu, mu, _: build_g2(nu, mu), 2),
}


@settings(max_examples=16, deadline=None)
@given(model=st.sampled_from(sorted(SHARED_PASS_MODELS)),
       couplings=st.lists(st.fractions(0, 3, max_denominator=7), min_size=3, max_size=3),
       seed=st.integers(0, 10 ** 6),
       beta=st.sampled_from([Fraction(1), Fraction(6, 5), "i"]),
       dps=st.sampled_from([20, 40]))
@example(model="bc1", couplings=[HALF, Fraction(1, 3), Fraction(2, 5)], seed=3,
         beta="i", dps=40)
@example(model="bc1", couplings=[HALF, Fraction(1, 3), Fraction(2, 5)], seed=3,
         beta=Fraction(6, 5), dps=40)
@example(model="bc1_qes", couplings=[Fraction(2, 3), Fraction(1, 3), Fraction(2, 5)],
         seed=3, beta=Fraction(6, 5), dps=20)
@example(model="g2", couplings=[HALF, Fraction(1, 3), HALF], seed=3,
         beta="i", dps=40)
# the first polynomial's own pass meets two points below the node floor first
@example(model="bc3", couplings=[Fraction(3), Fraction(0), Fraction(8, 3)], seed=4,
         beta=Fraction(1), dps=20)
def test_shared_pass_matches_the_per_eigenpair_path(model, couplings, seed, beta, dps):
    # the shared pass against one pass per polynomial, bit for bit, against
    # the exact target within 10^(10 - dps) max(1, |E|, |V|, |Delta log Psi0|),
    # the last two being the terms that grow next to a wall, and against the
    # stencil reference within 10^(2 - dps/2) max(1, |E|): the stencil's own
    # error is about 10^(-2 dps/3), but near a node of phi it grows, up to
    # 2e-10 at 20 digits (Sutherland N=4 at nu = 0)
    build, level = SHARED_PASS_MODELS[model]
    bundle = build(*couplings)
    solvable = build_bc1(*couplings[1:]) if model == "bc1_qes" else bundle
    pairs = [(e.eigenvalue, phi)
             for e in spectrum(solvable, level, numeric_check=False).entries
             for phi in e.eigenpolynomials]
    polys = [phi for _, phi in pairs]
    real_beta = beta != "i"
    sample = cart.sample_alcove(bundle.spec, 3, seed, beta if real_beta else 1)
    one_variable = model in ("bc1", "bc1_qes")
    if one_variable:
        with mp.workdps(dps):
            # a stencil point of this point lies on the wall x = 0
            sample.append((2 * reference_kernels.stencil_step(),))
        node = _node_of(polys[-1], beta, dps) if real_beta else None
        if node is not None:
            sample.append(node)
    beta = beta if real_beta else mpmath.mpc(0, 1)
    shared = cart.measured_energies(bundle, polys, sample, beta=beta, dps=dps)
    assert shared == [cart.measured_energies(bundle, [phi], sample, beta=beta, dps=dps)[0]
                      for phi in polys]
    stencil = reference_kernels.measured_energies(bundle, polys, sample,
                                                  beta=beta, dps=dps)
    with mp.workdps(dps):
        exact_bound = mpmath.mpf(10) ** (10 - dps)
        stencil_bound = mpmath.mpf(10) ** (2 - mpmath.mpf(dps) / 2)
        ground = cart.CheckGround(bundle.spec, beta)
        scales = [max(1, abs(ground.potential(x)), abs(ground.log_derivatives(x)[1]))
                  for x in sample]
        for (eps, _), energies, reference in zip(pairs, shared, stencil):
            if model != "bc1_qes":
                residuals = iter(cart.residual_stats(bundle, eps, energies, beta=beta,
                                                     dps=dps).residuals)
                for energy, scale in zip(energies, scales):
                    if energy is not None:
                        assert abs(next(residuals)) <= exact_bound * max(scale, abs(energy))
            for energy, ref in zip(energies, reference):
                if ref is not None:
                    assert abs(energy - ref) <= stencil_bound * max(1, abs(energy))
    if one_variable:
        # the stencil skips the point next to the wall; the exact pass reads
        # it where |Psi| is above the node floor
        assert all(measured[3] is None for measured in stencil)
        with mp.workdps(dps):
            x = sample[3]
            psi0 = cart.psi0_cartesian(bundle.spec, x, beta)
            tau = cart.invariants_map(bundle.spec, x, beta)
            floor = mpmath.mpf(10) ** (-dps // 2)
            live = [abs(psi0 * phi.evaluate(tau)) >= floor for phi in polys]
        assert [measured[3] is not None for measured in shared] == live
        if len(sample) == 5:
            # the node of the last polynomial skips the point for it alone
            assert shared[-1][4] is None and stencil[-1][4] is None
            assert shared[0][4] is not None


def test_shared_monomials_convert_once_per_precision():
    # one instance serves dps 20, then 40, then 20 again: at each precision
    # its values are those of `MultiPoly.evaluate` there, bit for bit, so
    # no precision is served another precision's coefficients
    t1, t2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    polys = [Fraction(1, 3) * t1 * t1 * t2 - Fraction(4, 7) * t2 + Fraction(5, 11),
             Fraction(-2, 9) * t1 * t2 * t2 + Fraction(3, 13)]
    shared = cart.SharedMonomials(polys)
    for dps in (20, 40, 20):
        with mp.workdps(dps):
            x, y = mpmath.mpf(2) / 3, mpmath.mpf(-5) / 7
            for point in ([x, y], [mpmath.mpc(x, y), mpmath.mpc(y, x / 3)]):
                monomials = shared.at(point)
                for k, phi in enumerate(polys):
                    value = shared.value(k, monomials)
                    assert value == phi.evaluate(point)
                    assert type(value) is type(point[0])


def test_ttw_point_evaluates_one_radial_and_one_angular_log_derivative(monkeypatch):
    # each point takes the closed-form log-derivatives of the radial part
    # and the bc1 log-derivatives in phi once, and one potential, whose
    # angular half is the bc1 potential; the ground factor itself, and so
    # its exp, is never evaluated
    calls = {}

    def count(owner, name):
        key = f"{owner.__name__}.{name}"
        calls[key] = 0
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    for name in ("radial_log", "potential", "radial", "factor"):
        count(cart.TTWGround, name)
    for name in ("log_derivatives", "potential", "psi0"):
        count(cart.CheckGround, name)
    count(cart.mpmath, "exp")
    for variant, extra in (("TTW", {}), ("TTW_QES_FULL", dict(a=HALF, b=Fraction(2, 5)))):
        calls.update(dict.fromkeys(calls, 0))
        st = cart.ttw_ground_check(ttw_models(variant, **extra, **BASE),
                                   npoints=2, seed=11)
        assert st.skipped == 0
        assert calls == {"TTWGround.radial_log": 2, "CheckGround.log_derivatives": 2,
                         "TTWGround.potential": 2, "CheckGround.potential": 2,
                         "TTWGround.radial": 0, "TTWGround.factor": 0,
                         "CheckGround.psi0": 0, "mpmath.exp": 0}


def test_ttw_suite_honours_sample_points(tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    seen = set()
    real = cart.ttw_ground_check

    def spy(desc, npoints=50, **kwargs):
        seen.add(npoints)
        return real(desc, npoints=npoints, **kwargs)
    monkeypatch.setattr(cart, "ttw_ground_check", spy)
    assert main(["verify", "--suite", "ttw", "--sample-points", "60",
                 "--seed", "1", "--out", str(tmp_path / "r")]) == 0
    # the constancy checks take the option; the b -> 0 degeneration fixes 20
    assert seen == {60, 20}


CONSTANCY_CHECKS = ("ttw/plain/consistent", "ttw/plain/printed-nu3-zero",
                    "ttw/plain/printed-defect", "ttw/sextic/n0", "ttw/angular/m0",
                    "ttw/full/n0m0", "ttw/full/printed-defect")


def test_ttw_constancy_fails_on_one_point():
    """One point has no spread, so it can show neither constancy nor its
    absence: each constancy check fails and says so."""
    checks = {c.name: c for c in suite_ttw(RunConfig.from_items({"sample_points": 1}))}
    for name in CONSTANCY_CHECKS:
        assert checks[name].status == "fail"
        assert "constancy needs 2 points, 1 left after skips" in checks[name].details
        assert "constancy_ratio" not in checks[name].numeric


TTW_VARIANTS = {
    "TTW": {},
    "TTW_QES_RADIAL": {"a"},
    "TTW_QES_ANGULAR": {"b"},
    "TTW_QES_FULL": {"a", "b"},
}


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(sorted(TTW_VARIANTS)),
       convention=st.sampled_from(["printed", "consistent"]),
       dps=st.sampled_from([20, 40]),
       nu2=st.fractions(0, 3, max_denominator=9),
       nu3=st.fractions(0, 3, max_denominator=9),
       a=st.fractions(0, 2, max_denominator=9).filter(bool),
       b=st.fractions(-2, 3, max_denominator=9), seed=st.integers(0, 10 ** 6))
@example(variant="TTW_QES_ANGULAR", convention="consistent", dps=40,
         nu2=Fraction(0), nu3=Fraction(0), a=HALF, b=Fraction(-2), seed=3)
@example(variant="TTW_QES_FULL", convention="consistent", dps=40,
         nu2=Fraction(0), nu3=Fraction(0), a=HALF, b=Fraction(-2), seed=3)
def test_ttw_ground_check_matches_the_per_call_path(variant, convention, dps,
                                                    nu2, nu3, a, b, seed):
    # the exact log-derivatives against the polar stencil: the same points
    # skipped and the same raises, and each value within
    # 10^(-dps/2) max(1, |E|); the examples have no real radial power, so
    # every point raises.  The ground factor and the potential match the
    # per-call reference, which composes the bc1 point functions, bit for
    # bit.
    params = {"a": a, "b": b}
    desc = ttw_models(variant, nu2=nu2, nu3=nu3, beta=Fraction(3, 2),
                      omega=Fraction(1), convention=convention,
                      **{k: params[k] for k in TTW_VARIANTS[variant]})

    def outcome(call):
        try:
            return call()
        except DomainError as err:
            return str(err)

    def stats(check):
        st = check(desc, npoints=6, seed=seed, dps=dps)
        return st.residuals, st.skipped
    exact = outcome(lambda: stats(cart.ttw_ground_check))
    stencil = outcome(lambda: stats(reference_kernels.ttw_ground_check))
    if isinstance(stencil, str):
        assert exact == stencil
    else:
        (values, skipped), (ref_values, ref_skipped) = exact, stencil
        assert skipped == ref_skipped and len(values) == len(ref_values)
        with mp.workdps(dps):
            bound = mpmath.mpf(10) ** (-mpmath.mpf(dps) / 2)
            for value, ref in zip(values, ref_values):
                assert abs(value - ref) <= bound * max(1, abs(value))
    (r, phi), = cart.ttw_sample(desc, 1, seed)
    with mp.workdps(dps):
        ground = cart.TTWGround(desc, dps)
        values = [outcome(lambda: ground.factor(r, phi)),
                  outcome(lambda: ground.potential(r, phi))]
    assert values == [outcome(lambda: reference_kernels.ttw_ground_factor(desc, r, phi, dps)),
                      outcome(lambda: reference_kernels.ttw_potential(desc, r, phi, dps))]


@pytest.mark.parametrize("variant, family", [("TTW", "BC1"), ("TTW_QES_RADIAL", "BC1"),
                                             ("TTW_QES_ANGULAR", "BC1_QES"),
                                             ("TTW_QES_FULL", "BC1_QES")])
def test_ttw_reads_its_bc1_constants_from_one_spec_per_descriptor(variant, family):
    nu2, nu3, b = Fraction(2, 3), Fraction(-1, 5), Fraction(2, 5)
    desc = ttw_models(variant, nu2=nu2, nu3=nu3, beta=Fraction(3, 2), omega=1,
                      a=HALF if "RADIAL" in variant or "FULL" in variant else 0,
                      b=b if family == "BC1_QES" else 0, m=2)
    spec = desc.angular_spec
    assert spec is desc.angular_spec
    if family == "BC1":
        assert spec == ModelSpec("BC1", nu2=nu2, nu3=nu3)
    else:
        assert spec == ModelSpec("BC1_QES", nu2=nu2, nu3=nu3, b=b, n=2)
    # the level m reaches the potential as the per-call path writes it
    with mp.workdps(30):
        ground = cart.TTWGround(desc, 30)
        assert ground.bc1.spec is spec and ground.ground is ground.bc1
        for r, phi in cart.ttw_sample(desc, 3, 5):
            assert ground.potential(r, phi) == reference_kernels.ttw_potential(desc, r, phi, 30)


# -- accuracy of the exact derivatives --------------------------------------------

CONSISTENT_CONSTANCY_CHECKS = ("ttw/plain/consistent", "ttw/plain/printed-nu3-zero",
                               "ttw/sextic/n0", "ttw/angular/m0", "ttw/full/n0m0")


def test_oracle_residuals_sit_at_the_working_precision(monkeypatch):
    # the Laplacian is exact, so only round-off is left: each residual of the
    # shipped cartesian suite and each constancy ratio of a consistent ttw
    # factor (seed 1, 10 points) is below 10^(10 - dps), far under the 1e-6
    # tolerances; a 4th-order stencil leaves about 1e-24 at 40 digits
    dps = 40
    bound = mpmath.mpf(10) ** (10 - dps)
    config = RunConfig.from_items({"seed": 1, "sample_points": 10, "dps": dps})
    residuals = []
    real = cart.residual_stats

    def spy(bundle, eps, energies, **kwargs):
        stats = real(bundle, eps, energies, **kwargs)
        residuals.append((bundle.spec.family, stats.max_abs))
        return stats
    monkeypatch.setattr(cart, "residual_stats", spy)
    assert all(c.status == "pass" for c in suite_cartesian(config))
    assert {family for family, _ in residuals} == {"BC1", "SUTHERLAND", "BCN", "G2"}
    assert max(value for _, value in residuals) < bound
    checks = {c.name: c for c in suite_ttw(config)}
    for name in CONSISTENT_CONSTANCY_CHECKS:
        assert checks[name].status == "pass"
        assert mpmath.mpf(checks[name].numeric["constancy_ratio"]) < bound, name
