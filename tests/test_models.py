"""Model constructors: operators, spectra formulas, factors, table data."""

import dataclasses
import hashlib
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from orbitforms import cartesian as cart
from orbitforms import models
from orbitforms.cli import main
from orbitforms.diffop import DiffOp, apply, gauge_conjugate
from orbitforms.errors import DomainError, UnsupportedModel
from orbitforms.models import (_bc_pairs,
                               bcn_coefficients, bcn_eigenvalue_printed,
                               bcn_rational_potential_printed, build_bc1,
                               build_bc1_qes, build_bcn, build_g2, build_mw_family,
                               build_sutherland, char_vector_table,
                               eigenvalue_formula, g2_eigenvalue_printed,
                               sutherland_coefficients,
                               sutherland_eigenvalue_printed, ttw_models)
from orbitforms.poly import MultiPoly
from orbitforms.report import CEILINGS, RunConfig
from orbitforms.suites import suite_gauge
import reference_kernels as ref
from test_diffop import assert_same_op
from test_poly import assert_same_poly
from test_spectral import GOLDEN_SUITE_SHA256

t = MultiPoly.variable(1, 0)
HALF = Fraction(1, 2)


# -- BC1 ------------------------------------------------------------------------

def test_bc1_eigenvalue_formula():
    m = build_bc1(1, 2)
    assert eigenvalue_formula(m, (3,)) == 21          # 9 + 4*3
    assert eigenvalue_formula(m, (0,)) == 0


def test_bc1_free_case():
    m = build_bc1(0, 0)
    assert m.h == DiffOp(1, {(2,): t * t - 1, (1,): t})
    assert eigenvalue_formula(m, (5,)) == 25


def test_bc1_rational_potential_at_zero():
    nu2, nu3 = Fraction(1, 3), Fraction(2, 7)
    g2 = nu2 * (nu2 - 1)
    g3 = nu3 * (nu3 + 2 * nu2 - 1)
    m = build_bc1(nu2, nu3)
    assert m.rational_potential.evaluate([Fraction(0)]) == g2 / 2 + (g2 + g3) / 2


def test_bc1_ground_energy_positive_square():
    m = build_bc1(Fraction(1), Fraction(2))
    assert m.e0 == 4          # +(nu2 + nu3/2)^2; printed sign is negative


# -- QES BC1 ---------------------------------------------------------------------

def test_qes_reduces_to_bc1_at_b_zero():
    q = build_bc1_qes(Fraction(1, 3), Fraction(1, 5), 0, 4)
    m = build_bc1(Fraction(1, 3), Fraction(1, 5))
    assert q.h == m.h


def test_qes_constant_on_level_zero():
    nu2, nu3, b = Fraction(1, 3), Fraction(1, 5), Fraction(2, 3)
    q = build_bc1_qes(nu2, nu3, b, 0)
    image = apply(q.h, MultiPoly.const(1, 1))
    assert image == MultiPoly.const(1, 2 * b * (nu2 + nu3 + HALF))


def test_qes_uniqueness_brute_force():
    q = build_bc1_qes(0, 0, Fraction(1, 2), 1)
    # tau^2 escapes the level-2 space only through the raising term
    image = apply(q.h, t * t)
    assert image.coeff((3,)) == 2 * Fraction(1, 2) * (2 - 1)


# -- Sutherland -------------------------------------------------------------------

def test_sutherland_two_body_operator():
    nu = Fraction(1, 2)
    s = build_sutherland(2, nu)
    expected = DiffOp(1, {(2,): t * t * HALF - 2, (1,): (HALF + nu) * t})
    assert s.h == expected
    assert eigenvalue_formula(s, (3,)) == Fraction(9, 2) + 3 * nu


def test_sutherland_degenerate_pair():
    s = build_sutherland(3, Fraction(1, 2))
    val = 2 * Fraction(1, 2) + Fraction(2, 3)
    assert eigenvalue_formula(s, (1, 0)) == val
    assert eigenvalue_formula(s, (0, 1)) == val


def test_sutherland_mixed_index_vs_diagonal():
    # exact diagonalization oracle fixed the symmetric quadratic form
    s = build_sutherland(3, Fraction(0))
    assert eigenvalue_formula(s, (1, 1)) == 2      # printed one-sided reading gives 3


def test_sutherland_requires_three_bodies():
    with pytest.raises(DomainError):
        build_sutherland(1, Fraction(1, 2))


# -- BC_N ------------------------------------------------------------------------

def test_bcn_reduces_to_bc1():
    import random
    rng = random.Random(2)
    for _ in range(5):
        nu2 = Fraction(rng.randint(1, 9), rng.choice([2, 3, 5, 7]))
        nu3 = Fraction(rng.randint(1, 9), rng.choice([2, 3, 5, 7]))
        nu = Fraction(rng.randint(1, 9), 4)
        b1 = build_bcn(1, nu, nu2, nu3)
        m1 = build_bc1(nu2, nu3)
        assert b1.h == m1.h
        for p in range(4):
            assert eigenvalue_formula(b1, (p,)) == eigenvalue_formula(m1, (p,))


def test_bc2_paper_substitution():
    b2 = build_bcn(2, 1, 0, 0)
    assert eigenvalue_formula(b2, (1, 0)) == 3     # 2 + 1


def test_bc2_potential_pole_on_discriminant():
    V = build_bcn(2, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)).rational_potential
    with pytest.raises(DomainError):
        V.evaluate([Fraction(0), Fraction(0)])


def test_bc2_potential_at_corner():
    nu, nu2, nu3 = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
    g2 = nu2 * (nu2 - 1)
    g3 = nu3 * (nu3 + 2 * nu2 - 1)
    V = build_bcn(2, nu, nu2, nu3).rational_potential
    # derived wall terms: (g2/4)(2+tau1)/P + ((g2+g3)/4)(2-tau1)/M
    assert V.evaluate([Fraction(1), Fraction(1)]) == \
        g2 / 4 * Fraction(3, 3) + (g2 + g3) / 4 * Fraction(1, 1)
    printed = bcn_rational_potential_printed(2, nu, nu2, nu3)
    assert printed.evaluate([Fraction(1), Fraction(1)]) == \
        g2 / 12 + (2 * (g2 + g3) + g2 - g3) / 4


# -- G2 --------------------------------------------------------------------------

def test_g2_annihilates_constants():
    g = build_g2(Fraction(1, 2), Fraction(1, 3))
    assert apply(g.h, MultiPoly.const(2, 1)).is_zero()


def test_g2_paper_eigenvalue():
    g = build_g2(1, 1)
    assert eigenvalue_formula(g, (0, 1)) == 4


def test_g2_free_linear_action():
    g = build_g2(0, 0)
    t1 = MultiPoly.variable(2, 0)
    assert apply(g.h, t1) == t1 * Fraction(1, 3)
    assert eigenvalue_formula(g, (1, 0)) == Fraction(1, 3)


def test_g2_char_vectors():
    g = build_g2(Fraction(1, 2), Fraction(1, 3))
    assert list(g.flags) == [(1, 2), (3, 5), (5, 9)]


# -- MW family --------------------------------------------------------------------

def test_mw_word_expansion_b0_n0():
    op = build_mw_family("0+", 0, 0)
    assert op == DiffOp(1, {(2,): t * t - 1, (1,): 2 * t})


def test_mw_unknown_variant():
    with pytest.raises(DomainError):
        build_mw_family("2+", 1, 1)


def test_mw_zero_minus_level_guard():
    with pytest.raises(DomainError):
        build_mw_family("0-", 1, 0)


# -- dispatch and QES guards --------------------------------------------------------

def test_eigenvalue_formula_rejects_qes():
    q = build_bc1_qes(0, 0, 1, 2)
    with pytest.raises(UnsupportedModel):
        eigenvalue_formula(q, (1,))


def test_eigenvalue_formula_validates_index():
    m = build_bc1(0, 0)
    with pytest.raises(DomainError):
        eigenvalue_formula(m, (1, 2))


# -- TTW descriptors -----------------------------------------------------------------

def test_ttw_printed_r2_coefficient():
    d = ttw_models("TTW_QES_RADIAL", nu2=Fraction(1, 2), nu3=Fraction(1, 3),
                   beta=2, omega=3, a=Fraction(1, 2), n=1, convention="printed")
    from orbitforms.cartesian import ttw_r2_coefficient, ttw_radial_power
    # omega^2 - 2a(2n + 2 + beta(nu2+nu3)), exact in printed mode
    assert ttw_r2_coefficient(d) == \
        Fraction(9) - 2 * Fraction(1, 2) * (2 * 1 + 2 + 2 * Fraction(5, 6))
    assert ttw_radial_power(d) == 2 * Fraction(5, 6)


def test_ttw_variant_validation():
    with pytest.raises(DomainError):
        ttw_models("TTW_QES_RADIAL", nu2=0, nu3=0, beta=1, omega=1, a=0)
    with pytest.raises(DomainError):
        ttw_models("TTW", nu2=0, nu3=0, beta=1, omega=0)
    with pytest.raises(DomainError):
        ttw_models("NOPE", nu2=0, nu3=0, beta=1, omega=1)


# -- fundamental weights ---------------------------------------------------------------

def weyl_orbit(weight: tuple, roots: list) -> set:
    """The orbit of `weight` under the reflections in `roots`."""
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    orbit, frontier = {weight}, [weight]
    while frontier:
        mu = frontier.pop()
        for alpha in roots:
            k = 2 * dot(mu, alpha) / dot(alpha, alpha)
            image = tuple(m - k * a for m, a in zip(mu, alpha))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


@pytest.mark.parametrize("bundle", [
    *(build_sutherland(N, Fraction(2, 7)) for N in (2, 3, 4, 5)),
    build_bc1(Fraction(1, 3), Fraction(2, 5)),
    *(build_bcn(N, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)) for N in (1, 2, 3, 4)),
    build_g2(Fraction(1, 2), Fraction(1, 3)),
], ids=lambda b: f"{b.spec.family}-{b.spec.N}")
def test_orbit_variables_are_orbit_sums_of_the_fundamental_weights(bundle):
    spec = bundle.spec
    tables = models.weyl_tables(spec.family, spec.N)
    den, weights = tables.den, tables.weights
    assert len(weights) == bundle.d
    n = len(weights[0])
    roots = []
    for orbit in models.root_table(spec):
        for form in orbit.forms:
            alpha = [0] * n
            for i, c in form:
                alpha[i] = c
            roots.append(tuple(alpha))
    orbits = [weyl_orbit(tuple(Fraction(c, den) for c in w), roots) for w in weights]
    scale = [Fraction(1, 2 ** (a + 1)) if spec.family in ("BC1", "BCN") else 1
             for a in range(bundle.d)]
    with mpmath.workdps(30):
        for x in cart.sample_alcove(spec, 4, 13):
            got = cart.CheckGround(spec).invariants(x)
            for tau, orbit, s in zip(got, orbits, scale):
                want = sum(mpmath.expj(sum(cart._mpf(m) * xi for m, xi in zip(mu, x)))
                           for mu in orbit) * s
                assert abs(tau - want) < mpmath.mpf("1e-25")


# -- characteristic-vector table -------------------------------------------------------

def test_table_rows():
    table = char_vector_table()
    assert table[("G2", "trig_minimal")] == (1, 2)
    assert table[("G2", "co_weyl")] == (5, 9)
    assert table[("E8", "trig_minimal")] == (2, 2, 3, 3, 4, 4, 5, 6)
    assert table[("E7", "trig_minimal")] == (1, 2, 2, 2, 3, 3, 4)
    assert table[("A_N", "rational")] == table[("A_N", "trig_minimal")] == "1^N"
    assert table[("H4", "rational")] == (1, 5, 8, 12)
    assert table[("E8", "weyl")] == (29, 46, 57, 68, 84, 91, 110, 135)


# -- cross-model invariants --------------------------------------------------------

def test_every_solvable_model_annihilates_constants():
    bundles = [
        build_bc1(Fraction(1, 3), Fraction(1, 5)),
        build_sutherland(3, Fraction(1, 2)),
        build_bcn(2, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
        build_g2(Fraction(1, 2), Fraction(1, 3)),
    ]
    for bundle in bundles:
        assert apply(bundle.h, MultiPoly.const(bundle.d, 1)).is_zero()
        assert eigenvalue_formula(bundle, (0,) * bundle.d) == 0


# -- pair-table builders against the MultiPoly loops they replaced ----------------

def assert_same_table(got: dict, want: dict) -> None:
    """Equal keys in the same order, each polynomial equal term by term."""
    assert list(got) == list(want)
    for key in want:
        assert_same_poly(got[key], want[key])


def reference_operator(d: int, A: dict, B: dict) -> DiffOp:
    """sum A_ij d_i d_j + sum B_i d_i from reference tables, one operator
    sum per entry, so keys and terms come in the order of the tables."""
    op = DiffOp.zero(d)
    for (i, j), coeff in A.items():
        k = [0] * d
        k[i - 1] += 1
        k[j - 1] += 1
        op = op + DiffOp(d, {tuple(k): coeff})
    for i, coeff in B.items():
        k = [0] * d
        k[i - 1] = 1
        op = op + DiffOp(d, {tuple(k): coeff})
    return op


def reference_delta_g(N: int) -> DiffOp:
    """Delta_g of BC_N, h at zero couplings, from the reference A and B."""
    return reference_operator(N, *ref.bcn_coefficients(N, 0, 0, 0))


# generic rationals, with the values that zero a coefficient: 0 and -1/N
couplings = st.one_of(st.fractions(-4, 4, max_denominator=12),
                      st.sampled_from([Fraction(0), Fraction(-1, 2), Fraction(-1, 3),
                                       Fraction(-1, 4), Fraction(1, 2)]))


def exponents(d: int):
    return st.tuples(*[st.integers(0, 9)] * d)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), N=st.integers(2, 6), nu=couplings)
def test_sutherland_builder_matches_the_multipoly_loop(data, N, nu):
    A, B = sutherland_coefficients(N, nu)
    A_ref, B_ref = ref.sutherland_coefficients(N, nu)
    assert_same_table(A, A_ref)
    assert_same_table(B, B_ref)
    bundle = build_sutherland(N, nu)
    for _ in range(3):
        p = data.draw(exponents(N - 1), label="p")
        want = ref.sutherland_eigenvalue(N, nu, p)
        assert bundle.eigenvalue(p) == want


@settings(max_examples=60, deadline=None)
@given(data=st.data(), N=st.integers(1, 6),
       nus=st.tuples(couplings, couplings, couplings))
def test_bcn_builder_matches_the_multipoly_loop(data, N, nus):
    A, B = bcn_coefficients(N, *nus)
    A_ref, B_ref = ref.bcn_coefficients(N, *nus)
    assert_same_table(A, A_ref)
    assert_same_table(B, B_ref)
    bundle = build_bcn(N, *nus)
    if N <= 4:   # the gauge data of N = 5 and 6 take seconds to derive
        # Delta_g is h at zero couplings, assembled from the same A
        delta_g = reference_delta_g(N)
        derivatives = {k: c for k, c in bundle.rational_form.terms.items() if any(k)}
        assert_same_table(derivatives, delta_g.terms)
    for _ in range(3):
        p = data.draw(exponents(N), label="p")
        want = ref.bcn_eigenvalue(N, *nus, p)
        assert bundle.eigenvalue(p) == want


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nus=st.tuples(couplings, couplings))
def test_bc1_and_g2_quadratic_forms_match_the_closures(data, nus):
    bc1, g2 = build_bc1(*nus), build_g2(*nus)
    for _ in range(3):
        k = data.draw(exponents(1), label="k")
        assert bc1.eigenvalue(k) == ref.bc1_eigenvalue(*nus, k)
        p = data.draw(exponents(2), label="p")
        want = ref.g2_eigenvalue(*nus, p)
        assert g2.eigenvalue(p) == want


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nu2=couplings, nu3=couplings, b=couplings, n=st.integers(0, 6))
def test_bc1_and_bc1_qes_match_the_hand_typed_forms(data, nu2, nu3, b, n):
    # one BC construction at N = 1 against the operators typed by hand
    e0 = ref.bc1_e0(nu2, nu3)
    bc1 = build_bc1(nu2, nu3)
    assert bc1.h == ref.bc1_operator(nu2, nu3)
    assert bc1.e0 == e0
    for _ in range(3):
        k = data.draw(exponents(1), label="k")
        assert bc1.eigenvalue(k) == ref.bc1_eigenvalue(nu2, nu3, k)
    assert_same_factor(bc1.ground_factor, ref.bc1_ground_factor(nu2, nu3))
    assert bc1.rational_form == with_potential(
        ref.bc1_operator(0, 0), ref.bc1_rational_potential(nu2, nu3))
    qes = build_bc1_qes(nu2, nu3, b, n)
    assert qes.h == ref.bc1_qes_operator(nu2, nu3, b, n)
    assert qes.e0 == e0 and qes.eigenvalue is None
    assert_same_factor(qes.ground_factor, ref.bc1_qes_ground_factor(nu2, nu3, b))
    assert qes.rational_form == with_potential(
        ref.bc1_operator(0, 0), ref.bc1_qes_rational_potential(nu2, nu3, b, n))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nu=couplings, nu2=couplings, nu3=couplings)
def test_bcn_at_one_is_bc1_for_every_nu(data, nu, nu2, nu3):
    bcn, bc1 = build_bcn(1, nu, nu2, nu3), build_bc1(nu2, nu3)
    assert bcn.h == bc1.h
    # the same eps, but BC_N keeps its half kinetic term at N = 1, so its
    # Cartesian energies beta^2 (e0 + eps / 2) are those of bc1 halved
    assert bcn.e0 == bc1.e0 / 2
    k = data.draw(exponents(1), label="k")
    assert bcn.eigenvalue(k) == bc1.eigenvalue(k)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 6), nus=st.tuples(couplings, couplings, couplings),
       b=couplings, n=st.integers(0, 6))
def test_ground_energy_matches_the_closed_forms(N, nus, b, n):
    # kinetic |rho_k|^2 from the root table against each family's closed form
    nu, nu2, nu3 = nus
    pins = [(build_bcn(N, *nus), ref.bcn_e0(N, *nus)),
            (build_g2(nu, nu2), ref.g2_e0(nu, nu2)),
            (build_bc1(nu2, nu3), ref.bc1_e0(nu2, nu3)),
            (build_bc1_qes(nu2, nu3, b, n), ref.bc1_e0(nu2, nu3))]
    if N >= 2:
        pins.append((build_sutherland(N, nu), ref.sutherland_e0(N, nu)))
    for bundle, want in pins:
        assert type(bundle.e0) is Fraction and bundle.e0 == want
        assert models.ground_energy(bundle.spec) == want


def test_bcn_second_order_matches_the_multipoly_loop_to_the_ceiling():
    # A is coupling-free, so this covers the term order of every admitted N
    for N in range(1, CEILINGS["N"] + 1):
        assert_same_table(bcn_coefficients(N, 0, 0, 0)[0],
                          ref.bcn_coefficients(N, 0, 0, 0)[0])


# -- gauge data on demand ---------------------------------------------------------

def test_gauge_data_is_built_once_per_bundle(monkeypatch):
    calls = []
    real = models.bc_gauge_data

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(models, "bc_gauge_data", counted)
    nus = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    want = ref.bc3_rational_potential(*nus)
    bundle = build_bcn(3, *nus)
    assert not calls
    for _ in range(2):
        assert bundle.rational_potential == want
        assert bundle.rational_form.constant_part() == 2 * want
        assert bundle.ground_factor.nvars == 3
    assert len(calls) == 1
    # a replaced bundle builds its own, from the same callable
    other = dataclasses.replace(bundle, h=DiffOp.zero(3))
    assert other.h.is_zero() and len(calls) == 1
    assert other.rational_potential == bundle.rational_potential
    assert len(calls) == 2


def test_gauge_callable_is_left_out_of_eq_hash_and_repr():
    def broken():
        raise AssertionError("gauge data built")

    for bundle in (build_bc1(Fraction(1, 3), Fraction(2, 5)), build_bcn(2, 1, 2, 3),
                   build_sutherland(3, Fraction(1, 2)), build_g2(1, 1)):
        other = dataclasses.replace(bundle, gauge=broken)
        assert other == bundle and hash(other) == hash(bundle)
        assert "gauge" not in repr(other) and repr(other) == repr(bundle)
        with pytest.raises(AssertionError, match="gauge data built"):
            other.ground_factor


def test_families_without_a_rational_form():
    for bundle in (build_sutherland(3, Fraction(1, 2)), build_g2(1, 1)):
        assert bundle.rational_form is None and bundle.rational_potential is None
        assert not bundle.ground_factor.factors
        assert bundle.ground_factor.nvars == bundle.d


# -- BC gauge data derived from the root table --------------------------------------

def hand_gauge_data(N, nu, nu2, nu3):
    """(ground factor, V, Delta_g) of BC_N from the hand forms, with V the
    potential of H = -1/2 sum d^2 + V: at N = 1 half the one-variable
    potential, whose kinetic term has no 1/2."""
    if N == 1:
        return (ref.bc1_ground_factor(nu2, nu3), ref.bc1_rational_potential(nu2, nu3) * HALF,
                ref.bc1_operator(0, 0))
    hand = {2: (ref.bc2_ground_factor, ref.bc2_rational_potential),
            3: (ref.bc3_ground_factor, ref.bc3_rational_potential)}[N]
    delta_g = reference_delta_g(N)
    return hand[0](nu, nu2, nu3), hand[1](nu, nu2, nu3), delta_g


def assert_same_factor(got, want):
    assert got.nvars == want.nvars
    assert got.factors == want.factors
    assert got.exp_arg == want.exp_arg


def with_potential(delta_g: DiffOp, potential) -> DiffOp:
    return delta_g + DiffOp(delta_g.nvars, {(0,) * delta_g.nvars: potential})


@settings(max_examples=40, deadline=None)
@given(nus=st.tuples(couplings, couplings, couplings), b=couplings, n=st.integers(0, 4))
def test_derived_gauge_data_equals_the_hand_forms(nus, b, n):
    nu, nu2, nu3 = nus
    for N in (1, 2, 3):
        ground, potential, delta_g = hand_gauge_data(N, *nus)
        bundle = build_bcn(N, *nus)
        assert_same_factor(bundle.ground_factor, ground)
        assert bundle.rational_potential == potential
        assert bundle.rational_form == with_potential(delta_g, potential * 2)
    bc1 = build_bc1(nu2, nu3)
    ground, potential = ref.bc1_ground_factor(nu2, nu3), ref.bc1_rational_potential(nu2, nu3)
    delta_g = ref.bc1_operator(0, 0)
    assert_same_factor(bc1.ground_factor, ground)
    assert bc1.rational_potential == potential
    assert bc1.rational_form == with_potential(delta_g, potential)
    qes = build_bc1_qes(nu2, nu3, b, n)
    potential = ref.bc1_qes_rational_potential(nu2, nu3, b, n)
    assert_same_factor(qes.ground_factor, ref.bc1_qes_ground_factor(nu2, nu3, b))
    assert qes.rational_potential == potential
    assert qes.rational_form == with_potential(delta_g, potential)
    # the printed potentials equal their forms as written by hand
    assert bcn_rational_potential_printed(2, *nus) == ref.bc2_rational_potential_printed(*nus)
    assert bcn_rational_potential_printed(3, *nus) == ref.bc3_rational_potential_printed(*nus)


def test_pair_sums_match_the_full_expansion():
    for N in (2, 3, 4):
        for got, want in zip(_bc_pairs(N), ref.bc_pairs(N)):
            assert_same_poly(got, want)


def bcn_gauge_constant(N, nu, nu2, nu3):
    """e0 / kinetic: the rational form carries V / kinetic, kinetic = 1/2."""
    return 2 * ref.bcn_e0(N, nu, nu2, nu3)


def gauge_residual(bundle):
    """(F^-1 H F, F^-1 H F - h) for the bundle's rational form H and ground
    factor F."""
    conj = gauge_conjugate(bundle.rational_form, bundle.ground_factor)
    return conj, conj - bundle.h


def test_bc4_gauge_identity_is_exact():
    nus = (Fraction(3, 7), Fraction(2, 5), Fraction(-1, 3))
    conj, diff = gauge_residual(build_bcn(4, *nus))
    assert conj.polynomial
    const = diff.constant_part()
    assert diff.order() == 0 and const.is_constant()
    assert const.constant_value() == bcn_gauge_constant(4, *nus)


def test_bc5_gauge_identity_is_exact():
    # two sizes above the suite's bc3, in well under a second
    nus = (Fraction(3, 7), Fraction(2, 5), Fraction(-1, 3))
    conj, diff = gauge_residual(build_bcn(5, *nus))
    assert conj.polynomial
    const = diff.constant_part()
    assert diff.order() == 0 and const.is_constant()
    assert const.constant_value() == bcn_gauge_constant(5, *nus)


@pytest.mark.parametrize("orbit", [0, 1, 2])
def test_a_perturbed_root_coupling_fails_the_gauge_identity_and_the_oracle(
        monkeypatch, orbit):
    nus = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    real = models.root_table

    def checks():
        bundle = build_bcn(2, *nus)
        _, diff = gauge_residual(bundle)
        const = diff.constant_part()
        exact = (isinstance(const, MultiPoly) and const.is_constant()
                 and const.constant_value() == bcn_gauge_constant(2, *nus))
        # H Psi0 / Psi0 is the ground energy at every point
        sample = cart.sample_alcove(bundle.spec, 6, 5)
        with mpmath.workdps(40):
            (energies,) = cart.measured_energies(bundle, [MultiPoly.const(2, 1)],
                                                 sample, dps=40)
            energies = [e for e in energies if e is not None]
            spread = max(energies) - min(energies)
        return exact, spread

    exact, spread = checks()
    assert exact and spread < mpmath.mpf("1e-20")

    def perturbed(spec):
        orbits = list(real(spec))
        orbits[orbit] = dataclasses.replace(
            orbits[orbit], coupling=orbits[orbit].coupling + Fraction(1, 7))
        return tuple(orbits)

    monkeypatch.setattr(models, "root_table", perturbed)
    monkeypatch.setattr(cart, "root_table", perturbed)
    exact, spread = checks()
    assert not exact and spread > mpmath.mpf("1e-3")


GAUGE_POTENTIAL_CHECKS = ("gauge/potential-vs-cartesian/bc2",
                          "gauge/potential-vs-cartesian/bc3")


def test_gauge_potential_mismatch_is_bounded_by_the_working_precision(monkeypatch, tmp_path):
    # the bound is 10^(10 - dps): the shipped potentials pass at 20 digits,
    # and at 40 a BC short-root coupling off by one part in 10^20 on the
    # Cartesian side alone fails both checks
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    assert main(["verify", "--suite", "gauge", "--seed", "1", "--dps", "20",
                 "--out", str(tmp_path / "r")]) == 0
    def records(dps):
        config = RunConfig.from_items({"suite": "gauge", "seed": 1, "dps": dps})
        return {c.name: c for c in suite_gauge(config) if c.name in GAUGE_POTENTIAL_CHECKS}
    for dps in (20, 40):
        for rec in records(dps).values():
            assert rec.status in ("pass", "reported-offset"), (dps, rec.details)
            assert mpmath.mpf(rec.numeric["max_relative_mismatch"]) < mpmath.mpf(10) ** (10 - dps)
    real = cart.root_table

    def wrong_wall(spec):
        *rest, short = real(spec)
        return (*rest, dataclasses.replace(
            short, coupling=short.coupling * (1 + Fraction(1, 10 ** 20))))
    monkeypatch.setattr(cart, "root_table", wrong_wall)
    for rec in records(40).values():
        assert rec.status == "fail" and "potential mismatch" in rec.details


@settings(max_examples=60, deadline=None)
@given(data=st.data(), N=st.integers(1, 6), nus=st.tuples(couplings, couplings, couplings))
def test_printed_readings_match_the_closures(data, N, nus):
    nu, nu2, nu3 = nus
    for _ in range(3):
        if N >= 2:
            p = data.draw(exponents(N - 1), label="p")
            assert (sutherland_eigenvalue_printed(N, nu)(p)
                    == ref.sutherland_eigenvalue_printed(N, nu, p))
        p = data.draw(exponents(N), label="p")
        assert bcn_eigenvalue_printed(N, *nus)(p) == ref.bcn_eigenvalue_printed(N, *nus, p)
        p = data.draw(exponents(2), label="p")
        assert g2_eigenvalue_printed(nu, nu2)(p) == ref.g2_eigenvalue_printed(nu, nu2, p)


# -- the coupling-free tables, built once per (family, N) ------------------------

def clear_model_caches() -> None:
    """Empty every cache of the models module, the per-spec ones too."""
    for value in vars(models).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_every_model_cache_is_bounded_by_the_n_ceiling():
    caches = [v for v in vars(models).values() if hasattr(v, "cache_info")]
    assert {models._bcn_second_order, models._sutherland_second_order,
            models._bc_pairs, models.weyl_tables} <= set(caches)
    for cache in (models._bcn_second_order, models._sutherland_second_order,
                  models._bc_pairs):
        assert cache.cache_info().maxsize == CEILINGS["N"]
    assert models.weyl_tables.cache_info().maxsize == len(models.FAMILIES) * CEILINGS["N"]
    assert models._g2_second_order.cache_info().maxsize == 1


POISON_COUPLINGS = ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
                    (Fraction(-7, 3), Fraction(5, 2), Fraction(-1, 4)))


# per family: build, and the reference (A, B), e0 and eigenvalue at N, nus
POISON_FAMILIES = {
    "BCN": (lambda N, nus: build_bcn(N, *nus),
            lambda N, nus: ref.bcn_coefficients(N, *nus),
            lambda N, nus: ref.bcn_e0(N, *nus),
            lambda N, nus, p: ref.bcn_eigenvalue(N, *nus, p)),
    "SUTHERLAND": (lambda N, nus: build_sutherland(N, nus[0]),
                   lambda N, nus: ref.sutherland_coefficients(N, nus[0]),
                   lambda N, nus: ref.sutherland_e0(N, nus[0]),
                   lambda N, nus, p: ref.sutherland_eigenvalue(N, nus[0], p)),
}
POISON_CASES = [("BCN", N) for N in range(1, 5)] + [("SUTHERLAND", N) for N in range(2, 6)]
POISON_POINTS = [(0,) * 5, (1, 0, 2, 0, 1), (3, 1, 0, 2, 2), (2, 2, 2, 2, 2)]


def test_model_tables_are_not_poisoned_by_other_couplings():
    # couplings g1, then g2, then g1 again: each build equals the reference
    # forms and a build from emptied caches
    def readings(bundle):
        return bundle.e0, [bundle.eigenvalue(p[:bundle.d]) for p in POISON_POINTS]

    cold = {}
    for family, N in POISON_CASES:
        for nus in POISON_COUPLINGS:
            clear_model_caches()
            cold[family, N, nus] = readings(POISON_FAMILIES[family][0](N, nus))
    clear_model_caches()
    g1, g2 = POISON_COUPLINGS
    for family, N in POISON_CASES:
        build, coefficients, e0, eigenvalue = POISON_FAMILIES[family]
        for nus in (g1, g2, g1):
            bundle = build(N, nus)
            assert bundle.h == reference_operator(bundle.d, *coefficients(N, nus))
            assert readings(bundle) == cold[family, N, nus] == (
                e0(N, nus), [eigenvalue(N, nus, p[:bundle.d]) for p in POISON_POINTS])


def test_coefficient_tables_are_read_only():
    nus = POISON_COUPLINGS[0]
    want = build_bcn(3, *nus).h, build_sutherland(4, nus[0]).h
    for A, _ in (bcn_coefficients(3, *nus), sutherland_coefficients(4, nus[0])):
        key = next(iter(A))
        with pytest.raises(TypeError):
            A[key] = A[key] * 2
        with pytest.raises(TypeError):
            del A[key]
        assert not hasattr(A, "update") and not hasattr(A, "pop")
    assert (build_bcn(3, *nus).h, build_sutherland(4, nus[0]).h) == want


def test_g2_builds_share_one_second_order_and_keep_the_hand_typed_form():
    # couplings g1, then g2, then g1 again, and g1 from an emptied cache:
    # each h equals the hand-typed form key by key and term by term
    clear_model_caches()
    g1, g2 = POISON_COUPLINGS[0][:2], POISON_COUPLINGS[1][:2]
    for nus in (g1, g2, g1):
        assert_same_op(build_g2(*nus).h, ref.g2_operator(*nus))
    A = models._g2_second_order()
    assert models._g2_second_order.cache_info().misses == 1
    assert A[(1, 2)] == A[(2, 1)]
    with pytest.raises(TypeError):
        A[(1, 1)] = A[(1, 1)] * 2
    clear_model_caches()
    assert_same_op(build_g2(*g1).h, ref.g2_operator(*g1))
    assert models._g2_second_order() is not A


def test_exact_suites_keep_their_golden_bytes_cold_and_warm(tmp_path, monkeypatch):
    # cold: every cache emptied before each suite; warm: the same suites
    # again in the same process, reading the tables the cold runs left
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    out = tmp_path / "report"
    for warm in (False, True):
        for suite in ("flags", "spectral", "algebra", "gauge"):
            if not warm:
                clear_model_caches()
            assert main(["verify", "--suite", suite, "--seed", "1", "--out", str(out)]) == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == GOLDEN_SUITE_SHA256[suite], (suite, warm)


optional = st.one_of(st.none(), st.fractions(-5, 5, max_denominator=9))


@settings(max_examples=100, deadline=None)
@given(spec=st.builds(models.ModelSpec, family=st.sampled_from(models.FAMILIES),
                      N=st.one_of(st.none(), st.integers(1, 10)), nu=optional,
                      nu2=optional, nu3=optional, mu=optional, b=optional,
                      n=st.one_of(st.none(), st.integers(0, 40))))
def test_model_spec_hash_is_the_hash_of_its_fields(spec):
    assert hash(spec) == hash(dataclasses.astuple(spec))
