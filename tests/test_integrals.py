"""Particular integrals: construction and annihilation on flag levels."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforms.diffop import apply, commutator, preserves_flag
from orbitforms.errors import FlagViolation
from orbitforms.integrals import annihilation_check, build_pi_integral
from orbitforms.models import (build_bc1, build_bc1_qes, build_bcn, build_g2,
                               build_sutherland)
from orbitforms.poly import FlagSpace, MultiPoly
from orbitforms.report import RunConfig
from orbitforms.suites import pi_jobs

t = MultiPoly.variable(1, 0)


def test_level_one_product():
    # (tau d - 1)(tau d) annihilates {1, tau}
    ip = build_pi_integral((1,), 1, 1)
    assert apply(ip.expanded, MultiPoly.const(1, 1)).is_zero()
    assert apply(ip.expanded, t).is_zero()
    assert not apply(ip.expanded, t * t).is_zero()


def test_level_zero_is_euler():
    ip = build_pi_integral((2, 3), 2, 0)
    assert ip.expanded == ip.euler
    assert apply(ip.expanded, MultiPoly.const(2, 5)).is_zero()


def test_weighted_level_two():
    ip = build_pi_integral((1, 2), 2, 2)
    assert ip.expanded.order() == 3
    for mono in ((0, 0), (1, 0), (2, 0), (0, 1)):
        assert apply(ip.expanded, MultiPoly.monomial(2, mono)).is_zero()
    assert not apply(ip.expanded, MultiPoly.monomial(2, (3, 0))).is_zero()


def test_monomial_scalar_closed_form():
    ip = build_pi_integral((1, 2), 2, 3)
    space = FlagSpace(2, (1, 2), 7)
    for mono in space.basis:
        image = apply(ip.expanded, MultiPoly.monomial(2, mono))
        assert image == MultiPoly.monomial(2, mono) * ip.monomial_scalar(mono)


def test_bc1_annihilation():
    bundle = build_bc1(Fraction(1, 3), Fraction(1, 5))
    ip = build_pi_integral((1,), 1, 3)
    ok, witness = annihilation_check(bundle.h, ip, FlagSpace(1, (1,), 3))
    assert ok and witness is None


def test_bc1_negative_witness():
    bundle = build_bc1(Fraction(1, 3), Fraction(1, 5))
    ip = build_pi_integral((1,), 1, 2)
    ok, witness = annihilation_check(bundle.h, ip, FlagSpace(1, (1,), 3))
    assert not ok
    assert witness[0] == (3,)
    assert not witness[1].is_zero()


def test_qes_annihilation_at_own_level():
    n = 3
    bundle = build_bc1_qes(Fraction(1, 3), Fraction(1, 5), Fraction(2, 3), n)
    ip = build_pi_integral((1,), 1, n)
    ok, _ = annihilation_check(bundle.h, ip, FlagSpace(1, (1,), n))
    assert ok


def test_g2_both_gradings():
    bundle = build_g2(Fraction(1, 2), Fraction(1, 3))
    for f in ((1, 2), (5, 9)):
        ip = build_pi_integral(f, 2, 4)
        ok, _ = annihilation_check(bundle.h, ip, FlagSpace(2, f, 4))
        assert ok, f


def test_expanded_is_built_only_when_read():
    ip = build_pi_integral((1, 2), 2, 3)
    assert "expanded" not in vars(ip)
    assert ip.expanded is ip.expanded


# -- flag-matrix check against the expanded commutator ----------------------------

# (model constructor taking three rationals, grading f, max level)
ANNIHILATION_CASES = {
    "bc1": (lambda p: build_bc1(p[0], p[1]), (1,), 6),
    **{f"sutherland N={N}": (lambda p, N=N: build_sutherland(N, p[0]), (1,) * (N - 1), 3)
       for N in (2, 3, 4)},
    **{f"bcn N={N}": (lambda p, N=N: build_bcn(N, *p), (1,) * N, 3) for N in (1, 2, 3)},
    "g2 f=(1,2)": (lambda p: build_g2(p[0], p[1]), (1, 2), 5),
    "g2 f=(5,9)": (lambda p: build_g2(p[0], p[1]), (5, 9), 10),
}
rationals = st.builds(Fraction, st.integers(-3, 4), st.integers(1, 4))


def reference_annihilation(h, ip, space):
    """First basis monomial with a nonzero image under the expanded [h, ip]."""
    comm = commutator(h, ip.expanded)
    for mono in space.basis:
        image = apply(comm, MultiPoly.monomial(space.d, mono))
        if not image.is_zero():
            return False, (mono, image)
    return True, None


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(ANNIHILATION_CASES)),
       params=st.tuples(rationals, rationals, rationals), data=st.data())
def test_annihilation_matches_expanded_commutator(case, params, data):
    build, f, top = ANNIHILATION_CASES[case]
    level = data.draw(st.integers(0, top), label="space level")
    # an integral below the space level leaves a nonzero witness
    ip_level = data.draw(st.integers(max(0, level - 2), level), label="integral level")
    h = build(params).h
    ip = build_pi_integral(f, len(f), ip_level)
    space = FlagSpace(len(f), f, level)
    assert annihilation_check(h, ip, space) == reference_annihilation(h, ip, space)


@settings(max_examples=40, deadline=None)
@given(f=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       n=st.integers(0, 3), data=st.data())
def test_monomial_scalar_matches_expanded(f, n, data):
    d = len(f)
    ip = build_pi_integral(f, d, n)
    mono = data.draw(st.tuples(*[st.integers(0, 4)] * d), label="monomial")
    image = apply(ip.expanded, MultiPoly.monomial(d, mono))
    assert image == MultiPoly.monomial(d, mono) * ip.monomial_scalar(mono)


def test_pi_records_prove_flag_preservation_at_the_flag_level():
    # with the integral at the flag's own level every monomial scalar is 0,
    # so each pi/<model> record holds exactly when the flag is preserved
    jobs = pi_jobs(RunConfig.from_items({}))
    assert len(jobs) == 10
    for name, bundle, f, levels in jobs:
        for n in levels:
            space = FlagSpace(bundle.d, f, n)
            ip = build_pi_integral(f, bundle.d, n)
            assert all(ip.monomial_scalar(m) == 0 for m in space.basis), (name, n)
            try:
                annihilated = annihilation_check(bundle.h, ip, space)[0]
            except FlagViolation:
                annihilated = False
            assert annihilated == preserves_flag(bundle.h, space)[0], (name, n)
    # one level above the bc1_qes level, both refuse
    name, qes, f, (qn,) = jobs[1]
    space = FlagSpace(1, f, qn + 1)
    assert name == "pi/bc1_qes/n4" and not preserves_flag(qes.h, space)[0]
    with pytest.raises(FlagViolation):
        annihilation_check(qes.h, build_pi_integral(f, 1, qn + 1), space)
