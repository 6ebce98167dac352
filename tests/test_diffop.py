"""Differential operators: application, composition, conjugation, flags."""

import copy
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from orbitforms.diffop import (DiffOp, GaugeFactor, apply, commutator, compose,
                               gauge_conjugate, preserves_flag,
                               restrict_to_flag)
from orbitforms.errors import DomainError, FlagViolation, UnsupportedOrder
from orbitforms.models import build_bc1, g2_operator
from orbitforms.poly import FlagSpace, MultiPoly, RationalFn
import reference_kernels as ref
from reference_linalg import dense_action_matrix, is_block_triangular
from test_poly import assert_same_poly, small_polys

t = MultiPoly.variable(1, 0)
HALF = Fraction(1, 2)


def rows(matrix):
    """Row i: the expansion of op(basis[i]) over the basis."""
    return [list(row) for row in zip(*dense_action_matrix(matrix))]


def test_apply_annihilates_constants():
    h = build_bc1(Fraction(1, 3), Fraction(2, 5)).h
    assert apply(h, MultiPoly.const(1, 1)).is_zero()


def test_apply_linear_monomial():
    nu2, nu3 = Fraction(1, 3), Fraction(2, 5)
    h = build_bc1(nu2, nu3).h
    image = apply(h, t)
    assert image == (2 * nu2 + nu3 + 1) * t + nu3


def test_apply_square_free_case():
    # hand oracle: (tau^2-1)*2 + tau*2tau = 4 tau^2 - 2
    h = build_bc1(Fraction(0), Fraction(0)).h
    assert apply(h, t * t) == 4 * t * t - 2


def test_canonical_commutation():
    d = DiffOp.partial(1, 0)
    x = DiffOp.mul_by(t)
    assert commutator(d, x) == DiffOp.identity(1)


def test_compose_euler_square():
    # hand expansion oracle: (tau d)(tau d) = tau^2 d^2 + tau d
    e = DiffOp(1, {(1,): t})
    sq = compose(e, e)
    assert sq == DiffOp(1, {(2,): t * t, (1,): t})


def test_compose_identity_neutral():
    h = build_bc1(Fraction(1, 2), Fraction(1, 3)).h
    assert compose(h, DiffOp.identity(1)) == h
    assert compose(DiffOp.identity(1), h) == h


def test_compose_agrees_with_sequential_application():
    # independent oracle: action equality on monomials determines the operator
    a = DiffOp(2, {(1, 0): MultiPoly.variable(2, 1), (0, 1): MultiPoly.const(2, 2)})
    b = DiffOp(2, {(1, 1): MultiPoly.variable(2, 0), (0, 0): MultiPoly.variable(2, 1)})
    ab = compose(a, b)
    for e1 in range(4):
        for e2 in range(4):
            mono = MultiPoly.monomial(2, (e1, e2))
            assert apply(ab, mono) == apply(a, apply(b, mono))


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def polys(nvars, max_deg=2):
    exps = st.tuples(*[st.integers(0, max_deg)] * nvars)
    return st.dictionaries(exps, coeffs, max_size=3).map(lambda d: MultiPoly(nvars, d))


def ops(nvars):
    orders = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(orders, polys(nvars), max_size=3).map(
        lambda d: DiffOp(nvars, d))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 2))
def test_compose_acts_as_sequential_application(data, nvars):
    a, b = data.draw(ops(nvars), label="a"), data.draw(ops(nvars), label="b")
    p = data.draw(polys(nvars, 4), label="p")
    assert apply(compose(a, b), p) == apply(a, apply(b, p))


def test_commutator_lowering_euler():
    jminus = DiffOp.partial(1, 0)
    j0 = DiffOp(1, {(1,): t, (0,): MultiPoly.const(1, -4)})
    assert commutator(jminus, j0) == jminus


def test_commutator_antisymmetry():
    h = build_bc1(Fraction(1, 2), Fraction(1, 3)).h
    assert commutator(h, h).is_zero()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_jacobi_identity(k1, k2, k3, c1, c2, c3):
    def op(k, c):
        return DiffOp(1, {(k,): t * c + 1, (0,): MultiPoly.const(1, c)})
    a, b, c = op(k1, c1), op(k2, c2), op(k3, c3)
    total = (commutator(a, commutator(b, c))
             + commutator(b, commutator(c, a))
             + commutator(c, commutator(a, b)))
    assert total.is_zero()


# -- gauge conjugation ---------------------------------------------------------

def test_gauge_identity_factor():
    h = build_bc1(Fraction(1, 2), Fraction(1, 3)).h
    assert gauge_conjugate(h, GaugeFactor(1)) == h


def test_gauge_pure_exponential():
    # hand conjugation oracle: e^{-b tau} d^2 e^{b tau} = d^2 + 2b d + b^2
    b = Fraction(3, 7)
    op = DiffOp(1, {(2,): MultiPoly.const(1, 1)})
    factor = GaugeFactor(1, [], t * b)
    expected = DiffOp(1, {(2,): MultiPoly.const(1, 1),
                          (1,): MultiPoly.const(1, 2 * b),
                          (0,): MultiPoly.const(1, b * b)})
    assert gauge_conjugate(op, factor) == expected


def test_gauge_bc1_rational_to_algebraic():
    # full symbolic conjugation; the additive constant is +(nu2+nu3/2)^2
    nu2, nu3 = Fraction(1), Fraction(2)
    bundle = build_bc1(nu2, nu3)
    conj = gauge_conjugate(bundle.rational_form, bundle.ground_factor)
    diff = conj - bundle.h
    assert diff.order() == 0
    const = diff.constant_part()
    assert const.is_constant() and const.constant_value() == (nu2 + nu3 * HALF) ** 2


def test_gauge_roundtrip_inverse():
    op = build_bc1(Fraction(1, 3), Fraction(1, 5)).h
    factor = GaugeFactor(1, [(1 + t, Fraction(1, 2)), (1 - t, Fraction(2, 3))],
                         t * Fraction(1, 4))
    there = gauge_conjugate(op, factor)
    back = gauge_conjugate(there, factor.inverse())
    assert back == op


@st.composite
def gauge_cases(draw, max_vars=3):
    """(op, factor): an order <= 2 operator and a GaugeFactor in 1..max_vars
    variables.  A = M prod_{k in S} P_k over a drawn subset S of the bases,
    so P_k divides A grad P_k for k in S (tangent) and in general not for
    the others; the zeroth order is a polynomial or a quotient by a product
    of some bases, and the factor may carry an exp part."""
    n = draw(st.integers(1, max_vars), label="nvars")
    small = small_polys(n, max_deg=1, max_size=3)

    def product(polys):
        out = MultiPoly.const(n, 1)
        for p in polys:
            out = out * p
        return out

    bases = draw(st.lists(small.filter(bool), max_size=3), label="bases")
    alphas = draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                           min_size=len(bases), max_size=len(bases)), label="alphas")
    tangent = draw(st.lists(st.booleans(), min_size=len(bases), max_size=len(bases)),
                   label="tangent")
    walls = product(base for base, on in zip(bases, tangent) if on)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            k = [0] * n
            k[i] += 1
            k[j] += 1
            terms[tuple(k)] = draw(small, label=f"M{i}{j}") * walls
        k = [0] * n
        k[i] = 1
        terms[tuple(k)] = draw(small, label=f"B{i}")
    zeroth = draw(small, label="C")
    poles = draw(st.lists(st.sampled_from(bases), max_size=2) if bases
                 else st.just([]), label="poles")
    terms[(0,) * n] = RationalFn(zeroth, product(poles)) if poles else zeroth
    exp_arg = draw(st.one_of(st.just(MultiPoly.zero(n)), small), label="Q")
    return DiffOp(n, terms), GaugeFactor(n, list(zip(bases, alphas)), exp_arg)


@settings(max_examples=80, deadline=None)
@given(gauge_cases())
def test_gauge_conjugate_matches_the_common_denominator_path(case):
    op, factor = case
    conj = gauge_conjugate(op, factor)
    assert conj == ref.gauge_conjugate(op, factor)
    first_order_polynomial = all(isinstance(c, MultiPoly)
                                 for k, c in conj.terms.items() if sum(k))
    event(f"first order {'polynomial' if first_order_polynomial else 'rational'}, "
          f"result {'polynomial' if conj.polynomial else 'rational'}")
    # the inverse factor undoes it wherever the image is conjugable again
    if first_order_polynomial:
        assert gauge_conjugate(conj, factor.inverse()) == op


def test_rational_coefficients_add_and_compare():
    # 1/(1+t) + t = (t^2+t+1)/(1+t); (t^2-1)/(t-1) divides out to t+1
    inverse = DiffOp(1, {(0,): RationalFn(MultiPoly.const(1, 1), 1 + t)})
    total = inverse + DiffOp.mul_by(t)
    assert not total.polynomial
    assert total == DiffOp(1, {(0,): RationalFn(t * t + t + 1, 1 + t)})
    assert (total - inverse) == DiffOp.mul_by(t) and (total - inverse).polynomial
    assert DiffOp(1, {(0,): RationalFn(t * t - 1, t - 1)}) == DiffOp.mul_by(t + 1)


def test_apply_and_compose_refuse_rational_operators():
    rational = DiffOp(1, {(2,): MultiPoly.const(1, 1),
                          (0,): RationalFn(MultiPoly.const(1, 1), 1 + t)})
    with pytest.raises(DomainError):
        apply(rational, t)
    with pytest.raises(DomainError):
        compose(rational, DiffOp.partial(1, 0))
    with pytest.raises(DomainError):
        compose(DiffOp.partial(1, 0), rational)
    with pytest.raises(DomainError):
        restrict_to_flag(rational, FlagSpace(1, (1,), 2))


def test_gauge_order_cap():
    cubic = DiffOp(1, {(3,): MultiPoly.const(1, 1)})
    with pytest.raises(UnsupportedOrder):
        gauge_conjugate(cubic, GaugeFactor(1, [(1 + t, Fraction(1, 2))]))


# -- flag restriction ----------------------------------------------------------

def test_restrict_bc1_free_lower_triangular():
    h = build_bc1(Fraction(0), Fraction(0)).h
    m = restrict_to_flag(h, FlagSpace(1, (1,), 2))
    assert rows(m) == [[Fraction(0)] * 3,
                       [Fraction(0), Fraction(1), Fraction(0)],
                       [Fraction(-2), Fraction(0), Fraction(4)]]
    assert is_block_triangular(m)
    assert m.diagonal() == [0, 1, 4]


def test_restrict_raising_generator_violation():
    # J+_n tau^m = (m-n) tau^{m+1}: the top monomial of a level-m flag with
    # m < n escapes to tau^{m+1}
    n = 4
    jplus = DiffOp(1, {(1,): t * t, (0,): t * (-n)})
    with pytest.raises(FlagViolation) as err:
        restrict_to_flag(jplus, FlagSpace(1, (1,), 2))
    assert err.value.input_monomial == (2,)
    assert err.value.output_monomial == (3,)


def test_raising_generator_keeps_its_own_level():
    # J+_n tau^n = (n-n) tau^{n+1}: the two terms of the image cancel, so the
    # level-n flag is kept
    n = 2
    jplus = DiffOp(1, {(1,): t * t, (0,): t * (-n)})
    space = FlagSpace(1, (1,), n)
    assert preserves_flag(jplus, space) == (True, None)
    assert rows(restrict_to_flag(jplus, space)) == ref.restrict_to_flag(jplus, space)


def test_restrict_zero_operator():
    m = restrict_to_flag(DiffOp.zero(1), FlagSpace(1, (1,), 3))
    assert all(all(x == 0 for x in row) for row in rows(m))


def test_preserves_g2_flags():
    h = g2_operator(Fraction(1, 2), Fraction(1, 3))
    for f in ((1, 2), (3, 5), (5, 9)):
        ok, _ = preserves_flag(h, FlagSpace(2, f, 8))
        assert ok, f


def test_g2_unit_flag_violation():
    # the (1,1)-graded level-1 space is preserved (the image of tau2 is
    # affine), but level 2 breaks: tau2^2 picks up a tau1^3 term
    h = g2_operator(Fraction(1, 2), Fraction(1, 3))
    ok1, _ = preserves_flag(h, FlagSpace(2, (1, 1), 1))
    assert ok1
    ok2, witness = preserves_flag(h, FlagSpace(2, (1, 1), 2))
    assert not ok2
    assert witness == ((0, 2), (3, 0))


def test_dimension_mismatch_errors():
    from orbitforms.errors import DimensionMismatch
    one = DiffOp.partial(1, 0)
    two = DiffOp.partial(2, 0)
    with pytest.raises(DimensionMismatch):
        compose(one, two)
    with pytest.raises(DimensionMismatch):
        apply(one, MultiPoly.variable(2, 0))


# -- integer-numerator apply/compose against the Fraction loops they replaced --

def operators(nvars, top):
    """Operators of order <= top with up to 4 terms."""
    orders = st.tuples(*[st.integers(0, top)] * nvars).filter(lambda k: sum(k) <= top)
    return st.dictionaries(orders, small_polys(nvars), max_size=4).map(
        lambda d: DiffOp(nvars, d))


def order2_ops(nvars):
    return operators(nvars, 2)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 4))
def test_apply_matches_the_fraction_loop(data, nvars):
    op = data.draw(order2_ops(nvars), label="op")
    p = data.draw(small_polys(nvars, 3), label="p")
    assert_same_poly(apply(op, p), ref.apply(op, p))
    # the zero operator and the zero polynomial
    assert_same_poly(apply(op - op, p), ref.apply(op - op, p))
    assert_same_poly(apply(op, p - p), ref.apply(op, p - p))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_compose_matches_the_fraction_loop(data, nvars):
    a = data.draw(order2_ops(nvars), label="a")
    b = data.draw(order2_ops(nvars), label="b")
    for got, want in ((compose(a, b), ref.compose(a, b)),
                      (compose(b, a), ref.compose(b, a)),
                      (compose(a, b - b), ref.compose(a, b - b))):
        assert got == want
        assert list(got.terms) == list(want.terms)
        for k in want.terms:
            assert_same_poly(got.terms[k], want.terms[k])


def flag_ops(nvars):
    """Order <= 2 operators, half of them with deg C_k <= |k|, so that they
    keep the unit flag and often a weighted one."""
    def lower(op):
        return DiffOp(nvars, {k: MultiPoly(nvars, {e: c for e, c in p.terms.items()
                                                   if sum(e) <= sum(k)})
                              for k, p in op.terms.items()})
    return st.one_of(order2_ops(nvars), order2_ops(nvars).map(lower))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_restrict_matches_the_per_monomial_loop(data, nvars):
    op = data.draw(flag_ops(nvars), label="op")
    f = data.draw(st.tuples(*[st.integers(1, 3)] * nvars), label="f")
    space = FlagSpace(nvars, f, data.draw(st.integers(0, 4), label="n"))
    try:
        want = ref.restrict_to_flag(op, space)
    except FlagViolation as exc:
        event("leaves the flag")
        witness = (exc.input_monomial, exc.output_monomial)
        with pytest.raises(FlagViolation) as err:
            restrict_to_flag(op, space)
        assert (err.value.input_monomial, err.value.output_monomial) == witness
        # preserves_flag gives the reference verdict and its first witness
        assert preserves_flag(op, space) == (False, witness)
    else:
        event("keeps the flag")
        assert rows(restrict_to_flag(op, space)) == want
        assert preserves_flag(op, space) == (True, None)
    # a rational coefficient is refused, as apply refuses it
    wall = RationalFn(MultiPoly.const(nvars, 1), 1 + MultiPoly.variable(nvars, 0))
    rational = op + DiffOp(nvars, {(0,) * nvars: wall})
    with pytest.raises(DomainError):
        restrict_to_flag(rational, space)
    with pytest.raises(DomainError):
        preserves_flag(rational, space)
    with pytest.raises(DomainError):
        apply(rational, MultiPoly.monomial(nvars, space.basis[-1]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_commutator_matches_the_difference_of_fraction_loops(data, nvars):
    # the order of keys and terms is unspecified: test_algebra shows that no
    # report reads it
    either = st.one_of(order2_ops(nvars), operators(nvars, 3))
    a = data.draw(either, label="a")
    b = data.draw(st.one_of(either, st.just(a)), label="b")
    got, want = commutator(a, b), ref.compose(a, b) - ref.compose(b, a)
    event("zero" if want.is_zero() else "nonzero")
    assert got == want
    for k in want.terms:
        assert got.terms[k] == want.terms[k]
    # a rational operand is refused on either side
    wall = RationalFn(MultiPoly.const(nvars, 1), 1 + MultiPoly.variable(nvars, 0))
    rational = a + DiffOp(nvars, {(0,) * nvars: wall})
    with pytest.raises(DomainError):
        commutator(rational, b)
    with pytest.raises(DomainError):
        commutator(b, rational)


def test_apply_and_compose_keep_the_order_of_cancelling_terms():
    # t^2 (t^2 + t) gives t^4 + t^3; then (-t^2/2 + t^3) d(t^2 + t) sends
    # -t^3 first, which would zero the running t^3, and +t^3 last
    sq = MultiPoly(1, {(2,): 1})
    c1 = MultiPoly(1, {(2,): Fraction(-1, 2), (3,): 1})
    p = MultiPoly(1, {(2,): 1, (1,): 1})
    op = DiffOp(1, {(0,): sq, (1,): c1})
    got = apply(op, p)
    assert_same_poly(got, ref.apply(op, p))
    assert list(got.terms) == [(4,), (3,), (2,)]
    # the same sums land on the d coefficient of a.b
    a = DiffOp(1, {(0,): sq, (1,): c1})
    b = DiffOp(1, {(0,): MultiPoly(1, {(1,): 2, (0,): 1}), (1,): p})
    got, want = compose(a, b), ref.compose(a, b)
    assert list(got.terms) == list(want.terms)
    for k in want.terms:
        assert_same_poly(got.terms[k], want.terms[k])
    assert list(got.terms[(1,)].terms) == [(4,), (3,), (2,)]


# -- the int form kept on each operator against a fresh copy's -------------------

def assert_same_op(got: DiffOp, want: DiffOp) -> None:
    """Equal, with the same keys and coefficient terms in the same order."""
    assert got == want
    assert list(got.terms) == list(want.terms)
    for k in want.terms:
        assert_same_poly(got.terms[k], want.terms[k])


def int_form_readers(a: DiffOp, b: DiffOp, p: MultiPoly, space: FlagSpace):
    """What apply, compose, commutator and the flag functions give on a, b."""
    try:
        matrix = restrict_to_flag(a, space)
        restricted = (matrix.den, matrix.columns)
    except FlagViolation as exc:
        restricted = (exc.input_monomial, exc.output_monomial)
    return (apply(a, p), compose(a, b), compose(b, a), commutator(a, b),
            commutator(b, a), restricted, preserves_flag(a, space))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_the_kept_int_form_gives_what_a_fresh_operator_gives(data, nvars):
    a = data.draw(flag_ops(nvars), label="a")
    b = data.draw(st.one_of(order2_ops(nvars), st.just(a)), label="b")
    p = data.draw(small_polys(nvars, 3), label="p")
    f = data.draw(st.tuples(*[st.integers(1, 3)] * nvars), label="f")
    space = FlagSpace(nvars, f, data.draw(st.integers(0, 3), label="n"))
    apply(a, p), apply(b, p)           # the first caller fills each int form
    kept = copy.deepcopy((a._int_form, b._int_form))
    for _ in range(2):                 # the second round reads what the first left
        fresh_a, fresh_b = DiffOp(nvars, a.terms), DiffOp(nvars, b.terms)
        assert fresh_a._int_form is None
        got = int_form_readers(a, b, p, space)
        want = int_form_readers(fresh_a, fresh_b, p, space)
        assert_same_poly(got[0], want[0])
        for got_op, want_op in zip(got[1:5], want[1:5]):
            assert_same_op(got_op, want_op)
        assert got[5:] == want[5:]
        # no caller changed the numerators another caller will read
        assert (a._int_form, b._int_form) == kept
        assert fresh_a._int_form == kept[0]
    # the kept form takes no part in == or hash
    assert a == DiffOp(nvars, a.terms) and hash(a) == hash(DiffOp(nvars, a.terms))


def test_a_rational_operator_gets_no_int_form_and_is_refused_by_each_caller():
    rational = DiffOp(1, {(2,): MultiPoly.const(1, 1),
                          (0,): RationalFn(MultiPoly.const(1, 1), 1 + t)})
    d = DiffOp.partial(1, 0)
    space = FlagSpace(1, (1,), 2)
    callers = [("apply", lambda: apply(rational, t)),
               ("compose", lambda: compose(rational, d)),
               ("compose", lambda: compose(d, rational)),
               ("commutator", lambda: commutator(rational, d)),
               ("commutator", lambda: commutator(d, rational)),
               ("restrict_to_flag", lambda: restrict_to_flag(rational, space)),
               ("preserves_flag", lambda: preserves_flag(rational, space))]
    for _ in range(2):
        for name, call in callers:
            with pytest.raises(DomainError, match=rf"^{name} needs polynomial"):
                call()
    assert rational._int_form is None
    assert d._int_form is not None    # the polynomial operand was scaled
