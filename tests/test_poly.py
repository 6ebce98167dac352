"""Exact polynomial core: ring operations, rational functions, flag bases."""

import copy
import pickle
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from orbitforms import poly
from orbitforms.errors import DimensionMismatch, DomainError
from orbitforms.poly import (FlagSpace, MultiPoly, RationalFn,
                             enumerate_flag_basis, fdegree, flag_dimension,
                             from_integer_terms, qq, symmetric_reduce)
import reference_kernels
from reference_kernels import mul

t = MultiPoly.variable(1, 0)


def test_difference_of_squares():
    assert (t + 1) * (t - 1) == t * t - 1


def test_power_rule_derivative():
    t1, t2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = t1 * t1 * t2
    assert p.diff(0) == 2 * t1 * t2


def test_evaluate_at_point():
    t1, t2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = t1 * t1 - 4 * t2
    assert p.evaluate([Fraction(2), Fraction(1)]) == 0


def test_evaluate_is_exact_at_int_and_fraction_points():
    t1, t2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = Fraction(1, 3) * t1 * t1 * t2 - 4 * t2 + Fraction(5, 7)
    for point in ([2, 1], [Fraction(2), Fraction(-1, 2)], [3, Fraction(1, 3)]):
        value = p.evaluate(point)
        assert isinstance(value, Fraction)
        x, y = map(Fraction, point)
        assert value == Fraction(1, 3) * x * x * y - 4 * y + Fraction(5, 7)


def test_evaluate_goes_numeric_at_a_point_with_an_mpf():
    t1, t2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = Fraction(1, 3) * t1 * t1 * t2 - 4 * t2 + Fraction(5, 7)
    with mpmath.mp.workdps(30):
        x, y = Fraction(2, 3), mpmath.mpf("0.7")
        value = p.evaluate([x, y])
        assert isinstance(value, mpmath.mpf)
        xm = mpmath.mpf(2) / 3
        assert abs(value - (xm * xm * y / 3 - 4 * y + mpmath.mpf(5) / 7)) \
            < mpmath.mpf("1e-28")


def test_variable_count_mismatch():
    with pytest.raises(DimensionMismatch):
        MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)


def test_exact_division():
    p = (t + 1) * (t - 1) * (t + 2)
    assert p.exact_div(t + 2) == (t + 1) * (t - 1)
    assert p.exact_div(t + 3) is None


def test_qq_parses_rational_strings():
    assert qq("3/7") == Fraction(3, 7)
    assert qq("-2") == -2
    assert qq(1, 4) == Fraction(1, 4)


# -- rational functions -------------------------------------------------------

def test_ratfn_factorization_equality():
    lhs = RationalFn(t * t - 1, t - 1)
    rhs = RationalFn(t + 1, MultiPoly.const(1, 1))
    assert lhs == rhs


def test_ratfn_zero_canonical():
    z = RationalFn(MultiPoly.zero(1), 1 + t)
    assert z.is_zero()
    assert z.den == MultiPoly.const(1, 1)


def test_ratfn_content_normalization():
    r = RationalFn(2 * t, MultiPoly.const(1, 4))
    assert r.den == MultiPoly.const(1, 1)          # content removed
    assert r == RationalFn(t, MultiPoly.const(1, 2))


def test_ratfn_zero_denominator():
    with pytest.raises(DomainError):
        RationalFn(t, MultiPoly.zero(1))


def test_ratfn_derivative_quotient_rule():
    r = RationalFn(MultiPoly.const(1, 1), t)       # 1/tau
    assert r.diff(0) == RationalFn(MultiPoly.const(1, -1), t * t)


# -- flag spaces ---------------------------------------------------------------

def brute_force_lattice(d, f, n):
    """Independent oracle: scan the full exponent box."""
    out = []
    bound = n + 1
    def walk(prefix):
        if len(prefix) == d:
            if sum(w * p for w, p in zip(f, prefix)) <= n:
                out.append(tuple(prefix))
            return
        for p in range(bound):
            walk(prefix + [p])
    walk([])
    return sorted(out, key=lambda e: (fdegree(e, f), e))


def test_flag_count_unit_weights():
    # dim P_2^(2) = C(4,2) = 6
    assert enumerate_flag_basis(2, (1, 1), 2).dim == 6


def test_flag_basis_weighted():
    space = enumerate_flag_basis(2, (1, 2), 2)
    assert list(space.basis) == brute_force_lattice(2, (1, 2), 2)
    assert space.dim == 4
    assert set(space.basis) == {(0, 0), (1, 0), (2, 0), (0, 1)}


def test_flag_constants_only():
    space = enumerate_flag_basis(1, (1,), 0)
    assert list(space.basis) == [(0,)]


def test_flag_order_graded_then_lex():
    space = enumerate_flag_basis(2, (1, 1), 2)
    grades = [fdegree(e, (1, 1)) for e in space.basis]
    assert grades == sorted(grades)
    assert space.basis[0] == (0, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10))
def test_unit_flag_dimension_binomial(d, n):
    assert enumerate_flag_basis(d, (1,) * d, n).dim == comb(n + d, d)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(0, 14))
def test_flag_dimension_counts_the_basis(f, n):
    assert flag_dimension(f, n) == enumerate_flag_basis(len(f), f, n).dim


def test_flag_dimension_of_huge_flags():
    assert flag_dimension((1,) * 10, 40) == comb(50, 10) == 10272278170
    # for each a2 <= 20, the a1 with a1 + 2 a2 <= 40
    assert flag_dimension((1, 2), 40) == sum(41 - 2 * a2 for a2 in range(21))
    with pytest.raises(DomainError):
        flag_dimension((1, 0), 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5),
       st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_flag_nesting(d, n, f):
    f = tuple(f[:d])
    smaller = set(enumerate_flag_basis(d, f, n).basis)
    larger = set(enumerate_flag_basis(d, f, n + 1).basis)
    assert smaller <= larger


def test_bad_char_vector_rejected():
    with pytest.raises(DomainError):
        FlagSpace(2, (1, 0), 3)


def test_one_flag_space_is_shared_per_d_f_n():
    space = FlagSpace(2, [1, 2], 3)
    assert FlagSpace(2, (1, 2), 3) is space is enumerate_flag_basis(2, [1, 2], 3)
    assert space.f == (1, 2) and space.basis == tuple(
        sorted(((a, b) for a in range(4) for b in range(2) if a + 2 * b <= 3),
               key=lambda e: (fdegree(e, (1, 2)), e)))
    # another grade, level or variable count is another space
    for other, f in ((FlagSpace(2, (2, 1), 3), (2, 1)), (FlagSpace(2, [1, 1], 3), (1, 1)),
                     (FlagSpace(2, (1, 2), 4), (1, 2)), (FlagSpace(1, (1,), 3), (1,))):
        assert other is not space and other.f == f
        assert other.basis == tuple(sorted(
            (e for e in product(range(5), repeat=len(f)) if fdegree(e, f) <= other.n),
            key=lambda e: (fdegree(e, f), e)))
    # copies and pickles come back as the shared instance
    assert copy.deepcopy(space) is space and pickle.loads(pickle.dumps(space)) is space
    with pytest.raises(AttributeError):
        space.n = 4


@pytest.mark.parametrize("args, error", [
    ((0, (), 1), DomainError), ((1, (1,), -1), DomainError),
    ((2, (1,), 2), DimensionMismatch), ((1, [0], 2), DomainError),
    ((1, (1,), 2.0), TypeError)])
def test_a_refused_flag_space_raises_each_time_and_is_never_cached(args, error):
    poly._flag_space.cache_clear()
    for _ in range(2):
        with pytest.raises(error):
            FlagSpace(*args)
    assert poly._flag_space.cache_info().currsize == 0
    # it is refused also beside a cached space with equal arguments
    FlagSpace(1, (1,), 2), FlagSpace(1, (1,), 1)
    with pytest.raises(error):
        FlagSpace(*args)


def test_the_flag_space_cache_is_bounded():
    poly._flag_space.cache_clear()
    bound = poly._flag_space.cache_info().maxsize
    assert isinstance(bound, int)
    first = FlagSpace(1, (1,), 0)
    for n in range(bound + 5):
        FlagSpace(1, (1,), n)
    assert poly._flag_space.cache_info().currsize == bound
    assert FlagSpace(1, (1,), 0) is not first    # the oldest entry was dropped
    poly._flag_space.cache_clear()


# -- ring axioms via hypothesis ------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polys(nvars=2, max_deg=3):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda d: MultiPoly(nvars, d))


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=30, deadline=None)
@given(polys(), polys())
def test_derivative_leibniz(a, b):
    assert (a * b).diff(0) == a.diff(0) * b + a * b.diff(0)


@settings(max_examples=50, deadline=None)
@given(polys(), coeffs)
def test_ring_identities_and_scalars(a, c):
    zero, one = MultiPoly.zero(2), MultiPoly.const(2, 1)
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and a + (-a) == 0
    assert a + c == a + MultiPoly.const(2, c) == c + a
    assert a * c == a * MultiPoly.const(2, c) == c * a


# -- hash/eq contract ------------------------------------------------------------

def nonzero_polys(nvars=2, max_deg=2):
    return polys(nvars, max_deg).filter(lambda p: not p.is_zero())


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), coeffs)
def test_multipoly_equal_values_hash_equal(a, b, c):
    for lhs, rhs in ((a + b - b, a), (a * b, b * a),
                     (MultiPoly.const(2, c), c), (a - a, 0)):
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)


@settings(max_examples=50, deadline=None)
@given(polys(max_deg=2), nonzero_polys(), nonzero_polys())
def test_ratfn_equal_values_hash_equal(a, b, g):
    r = RationalFn(a, b)
    for other in (RationalFn(a * g, b * g), RationalFn(-a, -b), r + 0):
        assert r == other
        assert hash(r) == hash(other)
    # a quotient that divides out equals, and hashes like, its polynomial
    assert RationalFn(a * b, b * g) * g == a
    assert hash(RationalFn(a * b * g, b * g)) == hash(a)


@settings(max_examples=50, deadline=None)
@given(polys(max_deg=2), polys(max_deg=2), nonzero_polys())
def test_multipoly_mixes_with_ratfn_as_ratfn(p, a, b):
    # MultiPoly hands a mixed operation to RationalFn, which lifts p
    r, rp = RationalFn(a, b), RationalFn.from_poly(p)
    for got, want in ((p + r, rp + r), (p - r, rp - r), (p * r, rp * r),
                      (r - p, r - rp)):
        assert isinstance(got, RationalFn)
        assert got == want


def test_hash_eq_examples():
    assert MultiPoly.const(1, 3) == 3 and hash(MultiPoly.const(1, 3)) == hash(3)
    assert len({RationalFn(t + 1, t + 2), RationalFn(t * (t + 1), t * (t + 2))}) == 1


def test_ratfn_eq_across_variable_counts():
    x, y = MultiPoly.variable(1, 0), MultiPoly.variable(2, 1)
    assert RationalFn(x, x + 1) != RationalFn(y, y + 1)
    assert RationalFn(x, x + 1) != y
    assert not (RationalFn.const(1, 2) == RationalFn.const(2, 2))


# -- the integer-numerator product against the Fraction loop it replaced -------

# few exponents and small coefficients, so that products often cancel
SMALL = st.sampled_from([Fraction(c) for c in
                         ("1", "-1", "2", "-2", "1/2", "-1/2", "2/3", "-3/4", "5/6", "-7/12")])


def small_polys(nvars: int, max_deg: int = 2, max_size: int = 4):
    exps = st.tuples(*[st.integers(0, max_deg)] * nvars)
    coeffs = st.one_of(SMALL, st.fractions(max_denominator=30))
    return st.dictionaries(exps, coeffs, max_size=max_size).map(
        lambda d: MultiPoly(nvars, d))


def assert_same_poly(got: MultiPoly, want: MultiPoly) -> None:
    """Equal, and equal term by term in the same order."""
    assert got == want
    assert got.as_string() == want.as_string()
    assert list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=300, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 4))
def test_mul_matches_the_fraction_loop(data, nvars):
    a = data.draw(small_polys(nvars), label="a")
    b = data.draw(small_polys(nvars), label="b")
    assert_same_poly(a * b, mul(a, b))
    # a factor that cancels: a*(b - b) is zero, (a + b)*(a - b) = a^2 - b^2
    assert_same_poly(a * (b - b), mul(a, b - b))
    assert_same_poly((a + b) * (a - b), mul(a + b, a - b))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_exact_div_matches_the_fraction_loop(data, nvars):
    p = data.draw(small_polys(nvars), label="p")
    q = data.draw(small_polys(nvars).filter(bool), label="q")
    r = data.draw(small_polys(nvars, max_size=2), label="r")
    assert (p * q).exact_div(q) == p
    # p*q + r divides only now and then; where the Fraction loop gives None
    # so does the int loop, and elsewhere both give one quotient term by term
    for num in (p * q, p * q + r, r):
        got, want = num.exact_div(q), reference_kernels.exact_div(num, q)
        assert (got is None) == (want is None)
        if got is not None:
            assert_same_poly(got, want)


def test_exact_div_refuses_a_leading_numerator_that_lc_does_not_divide():
    # 4x + 6y is 2 (2x + 3y) with lc 2: x^2 + 3xy/2 = (2x + 3y) x/2 divides,
    # while in x^2 + xy the numerator 2 - 3 = -1 of xy is left for lc
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    divisor = 4 * x + 6 * y
    quotient = x * Fraction(1, 3) + y * Fraction(5, 7) + 1
    assert (divisor * quotient).exact_div(divisor) == quotient
    assert (x * x + x * y * Fraction(3, 2)).exact_div(divisor) == x * Fraction(1, 4)
    for num in (x * x + x * y, divisor * quotient + y, x + 1):
        assert num.exact_div(divisor) is None
        assert reference_kernels.exact_div(num, divisor) is None


def test_mul_keeps_the_order_of_a_term_that_cancels_and_returns():
    a = MultiPoly(1, {(2,): 1, (1,): 1, (0,): 1})
    b = MultiPoly(1, {(0,): 1, (1,): -1, (2,): 1})
    # tau^2 sums to 0 after two products and returns with the last one
    assert_same_poly(a * b, mul(a, b))
    assert list((a * b).terms) == [(4,), (0,), (2,)]


# -- the int storage against the Fraction-dict loops it replaced ----------------

def pow_by_mul(a: MultiPoly, k: int) -> MultiPoly:
    """`MultiPoly.__pow__`'s square-and-multiply over the Fraction `mul`."""
    result, base = MultiPoly.const(a.nvars, 1), a
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def grlex_max(terms):
    return max(terms, key=lambda e: (sum(e), e))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_every_operation_matches_the_fraction_loops(data, nvars):
    ref = reference_kernels
    a = data.draw(small_polys(nvars), label="a")
    b = data.draw(small_polys(nvars), label="b")
    c = data.draw(st.one_of(SMALL, st.integers(-3, 3)), label="c")
    i = data.draw(st.integers(0, nvars - 1), label="i")
    times = data.draw(st.integers(0, 3), label="times")
    k = data.draw(st.integers(0, 3), label="k")
    point = data.draw(st.lists(st.one_of(st.integers(-3, 3), SMALL),
                               min_size=nvars, max_size=nvars), label="point")
    const = MultiPoly.const(nvars, c)
    for got, want in ((a + b, ref.add(a, b)), (a + c, ref.add(a, const)),
                      (c + a, ref.add(a, const)), (-a, ref.neg(a)),
                      (a - b, ref.add(a, ref.neg(b))),
                      (a - c, ref.add(a, ref.neg(const))),
                      (c - a, ref.add(ref.neg(a), const)),
                      (a * c, ref.scale(a, c)), (c * a, ref.scale(a, c)),
                      (a * b, mul(a, b)), (a ** k, pow_by_mul(a, k)),
                      (a.diff(i, times), ref.diff(a, i, times)),
                      ((a + b).diff(i), ref.diff(ref.add(a, b), i))):
        assert_same_poly(got, want)
    # the queries read the same values from the ints as from the Fractions
    terms = a.terms
    assert a.content() == ref.content(a)
    for e in (*terms, (0,) * nvars, (3,) * nvars):
        assert a.coeff(e) == terms.get(e, 0)
    if terms:
        lead = grlex_max(terms)
        assert a.leading_term() == (lead, terms[lead])
    monomial = [Fraction(1)] * len(terms)
    for j, e in enumerate(terms):
        for x, p in zip(point, e):
            monomial[j] *= Fraction(x) ** p
    assert a.evaluate(point) == sum((t * m for t, m in zip(terms.values(), monomial)),
                                    Fraction(0))
    assert (a == b) == (terms == b.terms)
    assert a.is_zero() == (not terms) and a.is_constant() == all(not any(e) for e in terms)


def assert_canonical(p: MultiPoly) -> None:
    """den > 0, gcd(den, numerators) = 1, and every numerator a nonzero int;
    the Fraction view reads the same values in the same order."""
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.nums.values()) == 1
    assert all(type(v) is int and v for v in p.nums.values())
    assert list(p.terms.items()) == [(e, Fraction(v, p.den)) for e, v in p.nums.items()]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 3))
def test_equal_polynomials_have_one_canonical_form_and_one_hash(data, nvars):
    a = data.draw(small_polys(nvars), label="a")
    b = data.draw(small_polys(nvars), label="b")
    c = data.draw(st.one_of(SMALL, st.integers(-3, 3)).filter(bool), label="c")
    i = data.draw(st.integers(0, nvars - 1), label="i")
    for p in (a, b, a + b, a - b, -a, a * c, a * b, a ** 2, a.diff(i), a * 0,
              MultiPoly.const(nvars, c), (a * b).exact_div(b) if b else a):
        assert_canonical(p)
    # equal values reached along different paths: one form, one hash
    pairs = [(a + b - b, a), (a * b, b * a), (a * c * (1 / Fraction(c)), a),
             (MultiPoly(nvars, a.terms), a), (a - a, MultiPoly.zero(nvars)),
             ((a * 2).diff(i), a.diff(i) * 2)]
    if b:
        pairs.append(((a * b).exact_div(b), a))
    for lhs, rhs in pairs:
        assert lhs == rhs
        assert (lhs.den, lhs.nums) == (rhs.den, rhs.nums)
        assert hash(lhs) == hash(rhs)
    # a constant compares and hashes like its Fraction, or its int
    for value in (c, Fraction(c), 0):
        const = MultiPoly.const(nvars, value)
        assert const == value and hash(const) == hash(value)
        assert const == Fraction(value) and hash(const) == hash(Fraction(value))


def test_the_int_constructor_refuses_a_fraction_numerator():
    assert from_integer_terms(1, 4, {(1,): 2, (0,): -6}) == \
        MultiPoly(1, {(1,): Fraction(1, 2), (0,): Fraction(-3, 2)})
    with pytest.raises(TypeError):
        from_integer_terms(1, 1, {(1,): Fraction(1, 2)})
    with pytest.raises(TypeError):
        from_integer_terms(2, 3, {(1, 0): 1, (0, 1): Fraction(2)})


# -- the symmetric reduction ------------------------------------------------------

def in_elementary(nvars: int, g: MultiPoly) -> MultiPoly:
    """g(e_1, ..., e_n) expanded in x_1..x_n."""
    e = [MultiPoly(nvars, {tuple(int(i in s) for i in range(nvars)): 1
                           for s in combinations(range(nvars), k)})
         for k in range(1, nvars + 1)]
    total = MultiPoly.zero(nvars)
    for exps, c in g.terms.items():
        term = MultiPoly.const(nvars, c)
        for e_k, p in zip(e, exps):
            term = term * e_k ** p
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 4))
def test_symmetric_reduce_inverts_the_substitution(data, nvars):
    g = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * nvars), st.integers(-9, 9),
        max_size=5).map(lambda d: MultiPoly(nvars, d)), label="g")
    f = {e: int(c) for e, c in in_elementary(nvars, g).terms.items()}
    got = symmetric_reduce(nvars, f)
    assert MultiPoly(nvars, got) == g
    # and term for term as the elimination on full expansions gives it
    assert list(got.items()) == list(reference_kernels.symmetric_reduce(nvars, f).items())


def test_symmetric_reduce_of_a_discriminant():
    # (x - y)^2 = e1^2 - 4 e2, and the empty polynomial reduces to nothing
    assert symmetric_reduce(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1}) == {(2, 0): 1, (0, 1): -4}
    assert symmetric_reduce(3, {}) == {}
    assert symmetric_reduce(2, {(1, 0): 1, (0, 1): 1, (1, 1): 0}) == {(1, 0): 1}
