"""Hidden-algebra realizations, structure checks, word calculus, fitting."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels
from orbitforms import algebra
from orbitforms.algebra import (GeneratorWord, check_structure, evaluate_word,
                                fit_decomposition, g2_algebra_generators,
                                gl2_generators, gln_generators)
from orbitforms.cli import main
from orbitforms.diffop import DiffOp, _scaled, apply, commutator, compose
from orbitforms.errors import DomainError
from orbitforms.models import build_bc1, build_bc1_qes, build_sutherland
from orbitforms.poly import FlagSpace, MultiPoly, RationalFn
from test_poly import assert_canonical
from test_spectral import GOLDEN_SUITE_SHA256

t = MultiPoly.variable(1, 0)
HALF = Fraction(1, 2)
SPAN_SETS = {"gl2": lambda: gl2_generators(2), "gl3": lambda: gln_generators(2, 1),
             "g2": lambda: g2_algebra_generators(1)}


# -- gl2 ------------------------------------------------------------------------

def test_gl2_mixed_commutator():
    gs = gl2_generators(3)
    lhs = commutator(gs.op("J-"), gs.op("J+"))
    rhs = evaluate_word(gs, GeneratorWord.from_items(
        [(2, ("J0",)), (3, ("T0",))]))
    assert lhs == rhs


def test_gl2_raising_annihilates_top():
    n = 4
    gs = gl2_generators(n)
    assert apply(gs.op("J+"), MultiPoly.monomial(1, (n,))).is_zero()


def test_gl2_raising_at_zero_kills_constants():
    gs = gl2_generators(0)
    assert apply(gs.op("J+"), MultiPoly.const(1, 1)).is_zero()


def test_gl2_structure_all_levels():
    for n in range(6):
        assert check_structure(gl2_generators(n)).ok


# -- gl_{d+1} ---------------------------------------------------------------------

def test_gln_generator_count():
    for d in (1, 2, 3, 4):
        assert len(gln_generators(d, 2).names) == (d + 1) ** 2


def test_gln_lowering_mid_commutator():
    gs = gln_generators(3, 2)
    # [E-_i, E0_{jk}] = delta_ij E-_k
    got = commutator(gs.op("E-1"), gs.op("E0-1-3"))
    assert got == gs.op("E-3")
    assert commutator(gs.op("E-2"), gs.op("E0-1-3")).is_zero()


def test_gln_raising_preserves_top_monomials():
    d, n = 2, 3
    gs = gln_generators(d, n)
    space = FlagSpace(d, (1, 1), n)
    tops = [m for m in space.basis if sum(m) == n]
    for name in (f"E+{i + 1}" for i in range(d)):
        for m in tops:
            image = apply(gs.op(name), MultiPoly.monomial(d, m))
            assert all(space.contains(e) for e in image.terms)


def test_gln_structure_brute_force():
    assert check_structure(gln_generators(3, 4)).ok


def test_gln_brackets_cover_every_pair():
    for d in (1, 2, 3, 4):
        report = check_structure(gln_generators(d, 1))
        brackets = [r for r in report.results if r.name.startswith("commutator")]
        g = (d + 1) ** 2
        assert len(brackets) == g * (g - 1) // 2 and report.ok


# -- g2 algebra --------------------------------------------------------------------

def test_g2_chain_reproduces_second_order_generators():
    gs = g2_algebra_generators(3)
    c1 = commutator(gs.op("J4"), gs.op("T0"))
    # proportional to T1 (rational scale)
    report = check_structure(gs)
    names = {r.name: r for r in report.results}
    assert names["chain[J4,T0]~T1"].ok
    assert names["chain[J4,[J4,T0]]~T2"].ok
    assert names["nilpotency[[J4,[J4,[J4,T0]]]=0]"].ok


def test_a_zero_operator_is_not_proportional_to_a_generator():
    # scale 0 would let a zero commutator pass the chain checks
    gs = g2_algebra_generators(3)
    t1 = gs.op("T1")
    assert algebra._proportional(DiffOp.zero(2), t1) is None
    assert algebra._proportional(t1, DiffOp.zero(2)) is None
    assert algebra._proportional(t1 * Fraction(-5, 3), t1) == Fraction(-5, 3)
    assert algebra._proportional(t1 + gs.op("T0"), t1) is None


def test_g2_t_family_commutes():
    gs = g2_algebra_generators(2)
    for a in ("T0", "T1", "T2"):
        for b in ("T0", "T1", "T2"):
            assert commutator(gs.op(a), gs.op(b)).is_zero()


def test_g2_t2_matches_euler_product():
    gs = g2_algebra_generators(2)
    u = MultiPoly.variable(2, 1)
    j0 = gs.op("J0")
    built = compose(DiffOp.mul_by(u), compose(j0, j0 + DiffOp.identity(2)))
    assert built == gs.op("T2")


def test_g2_conjugation_pairings_random_levels():
    for n in (0, 1, 2, 5, 7):
        report = check_structure(g2_algebra_generators(n))
        pairing = [r for r in report.results if r.name.startswith("conjugation")]
        assert len(pairing) == 3 and all(r.ok for r in pairing)


# -- word calculus -------------------------------------------------------------------

def eager_word(gs, items, constant) -> DiffOp:
    """The word as a Fraction sum, one scaled product at a time."""
    total = DiffOp.zero(gs.d)
    for coeff, names in [*items, (constant, ())]:
        op = DiffOp.identity(gs.d)
        if names:
            op = gs.op(names[-1])
            for name in reversed(names[:-1]):
                op = compose(gs.op(name), op)
        total = total + op * coeff
    return total


def test_evaluate_word_matches_scaling_every_term():
    # terms with coefficient 1 join unscaled: the operator, its key order
    # and each coefficient's term order are those of scaling every term
    gs = gl2_generators(3)
    word = GeneratorWord.from_items(
        [(1, ("J+", "J-")), (2, ("J0",)), (Fraction(-1, 3), ("J+", "J0")),
         (1, ()), (Fraction(-1, 3), ())], constant=1)
    for constant in (1, 2, Fraction(-1, 3), 0):
        w = GeneratorWord(word.terms, Fraction(constant))
        want = eager_word(gs, w.terms, w.constant)
        got = evaluate_word(gs, w)
        assert got == want
        assert list(got.terms) == list(want.terms)
        for k in want.terms:
            assert list(got.terms[k].terms.items()) == list(want.terms[k].terms.items())


def assert_born_canonical(op: DiffOp) -> None:
    """op was born with its int form and its canonical coefficients: it
    equals an eager copy in ==, hash, repr, order, is_zero and the order of
    keys and terms, and the kept form is the one _scaled computes for that
    copy."""
    form = op._int_form
    assert form is not None and op.polynomial
    for c in op.terms.values():
        assert_canonical(c)
    eager = DiffOp(op.nvars, op.terms)
    assert (op.order(), op.is_zero(), hash(op)) == \
        (eager.order(), eager.is_zero(), hash(eager))
    assert op == eager and repr(op) == repr(eager)
    assert list(op.terms) == list(eager.terms)
    for k, c in eager.terms.items():
        assert list(op.terms[k].terms.items()) == list(c.terms.items())
    want = _scaled(eager, "test")
    assert form == want
    assert [(k, list(nums.items())) for k, nums in form[1]] == \
        [(k, list(nums.items())) for k, nums in want[1]]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SPAN_SETS)), data=st.data())
def test_products_sums_and_brackets_are_born_canonical(name, data):
    gs = SPAN_SETS[name]()
    names = st.sampled_from(gs.names)
    a, b = data.draw(names, label="a"), data.draw(names, label="b")
    items = data.draw(st.lists(st.tuples(
        st.fractions(-3, 3, max_denominator=7),
        st.lists(names, max_size=3).map(tuple)), max_size=4), label="word")
    constant = data.draw(st.fractions(-2, 2, max_denominator=5), label="constant")
    word = GeneratorWord.from_items(items, constant)
    made = [compose(gs.op(a), gs.op(b)), commutator(gs.op(a), gs.op(b)),
            evaluate_word(gs, word)]
    for op in made:
        assert_born_canonical(op)
    # the word sums as the Fraction loop does, key and term order too
    want = eager_word(gs, word.terms, word.constant)
    assert made[2] == want and list(made[2].terms) == list(want.terms)
    for k, c in want.terms.items():
        assert list(made[2].terms[k].terms.items()) == list(c.terms.items())
    # == between two born operators decides as == between the eager copies
    eager = [DiffOp(op.nvars, op.terms) for op in made]
    for x, ex in zip(made, eager):
        for y, ey in zip(made, eager):
            assert (x == y) == (ex == ey)


def test_evaluate_word_bc1_free():
    gs = gl2_generators(0)
    word = GeneratorWord.from_items([(1, ("J0", "J0")), (-1, ("J-", "J-"))])
    assert evaluate_word(gs, word) == DiffOp(1, {(2,): t * t - 1, (1,): t})


def test_evaluate_empty_word():
    gs = gl2_generators(0)
    assert evaluate_word(gs, GeneratorWord(())).is_zero()


def test_evaluate_unknown_generator():
    gs = gl2_generators(0)
    with pytest.raises(DomainError):
        evaluate_word(gs, GeneratorWord(((Fraction(1), ("nope",)),)))


# -- decompositions --------------------------------------------------------------------

def test_fit_trivial_lowering():
    gs = gl2_generators(1)
    fit = fit_decomposition(DiffOp.partial(1, 0), gs)
    assert fit.ok
    assert dict(fit.coefficients) == {("J-",): Fraction(1)}


def test_fit_bc1_canonical_word():
    nu2, nu3 = Fraction(1, 3), Fraction(1, 5)
    h = build_bc1(nu2, nu3).h
    gs = gl2_generators(0)
    fit = fit_decomposition(h, gs)
    assert fit.ok
    # the canonical decomposition holds as an operator identity
    canonical = GeneratorWord.from_items([
        (1, ("J0", "J0")), (-1, ("J-", "J-")),
        (2 * nu2 + nu3, ("J0",)), (nu3, ("J-",))])
    assert evaluate_word(gs, canonical) == h


def test_fit_qes_needs_linear_raising():
    nu2, nu3, b, n = Fraction(0), Fraction(0), Fraction(1, 2), 2
    h = build_bc1_qes(nu2, nu3, b, n).h
    fit = fit_decomposition(h, gl2_generators(n))
    assert fit.ok
    coeffs = dict(fit.coefficients)
    assert coeffs.get(("J+",)) == 2 * b


def test_fit_sutherland_non_raising_only():
    h = build_sutherland(3, Fraction(1, 2)).h
    gs = gln_generators(2, 2)
    fit = fit_decomposition(h, gs)
    assert fit.ok
    for names, _ in fit.coefficients:
        for name in names:
            assert not name.startswith("E+")


def test_fit_residual_certificate():
    # an operator outside the span: third-order
    gs = gl2_generators(0)
    op = DiffOp(1, {(3,): MultiPoly.const(1, 1)})
    fit = fit_decomposition(op, gs)
    assert not fit.ok
    assert ((3,), (0,)) in fit.unmatched


def test_fit_outside_the_span_returns_its_residual():
    # in-span part J0 J0 - 2 J- plus d^3, which no degree <= 2 word reaches
    gs = gl2_generators(1)
    inside = evaluate_word(gs, GeneratorWord.from_items(
        [(1, ("J0", "J0")), (-2, ("J-",))]))
    h = inside + DiffOp(1, {(3,): MultiPoly.const(1, 5)})
    fit = fit_decomposition(h, gs)
    assert not fit.ok
    # the in-span part is fitted and the residual is only the rest
    assert dict(fit.coefficients) == {("J0", "J0"): 1, ("J-",): -2}
    assert fit.residual == DiffOp(1, {(3,): MultiPoly.const(1, 5)})
    fitted = evaluate_word(gs, GeneratorWord.from_items(
        [(c, names) for names, c in fit.coefficients]))
    assert fit.residual == h - fitted
    assert fit.unmatched == (((3,), (0,)),)


nonzero_scales = st.fractions(-5, 5, max_denominator=9).filter(bool)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(SPAN_SETS)), data=st.data())
def test_span_solve_matches_the_dense_rref_path(name, data):
    # the sparse reduction gives the dense loop's coefficients and escapes:
    # the pairwise commutators, an in-span combination of the words, and
    # that combination plus a third-order term no word reaches; words and
    # targets are scaled apart, so that their int forms carry different
    # denominators and the column scaling x_c = z_c den_c / den_j is read
    gs = SPAN_SETS[name]()
    words = algebra.decomposition_words(gs)
    word_ops = algebra._word_ops(gs, words)
    scales = data.draw(st.dictionaries(st.integers(0, len(words) - 1), nonzero_scales,
                                       max_size=len(words)), label="word scales")
    word_ops = [op * scales[i] if i in scales else op for i, op in enumerate(word_ops)]
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(words) - 1),
                                         st.fractions(-3, 3, max_denominator=5)),
                               min_size=1, max_size=4))
    inside = DiffOp.zero(gs.d)
    for i, c in picks:
        inside = inside + word_ops[i] * c
    outside = inside + DiffOp(gs.d, {(3,) + (0,) * (gs.d - 1): MultiPoly.const(gs.d, 1)})
    targets = [commutator(gs.op(a), gs.op(b)) for i, a in enumerate(gs.names)
               for b in gs.names[i + 1:]] + [inside, outside]
    targets = [op * data.draw(st.one_of(st.just(1), nonzero_scales), label="target scale")
               for op in targets]
    coefficients, escapes = algebra._span_solve(word_ops, targets)
    assert (coefficients, escapes) == reference_kernels.span_solve(word_ops, targets)
    assert escapes[-2:] == [False, True]


def test_fitting_an_operator_with_a_rational_coefficient_is_refused():
    gs = gl2_generators(1)
    rational = DiffOp(1, {(1,): t, (0,): RationalFn(MultiPoly.const(1, 1), 1 + t)})
    with pytest.raises(DomainError, match="polynomial coefficients"):
        fit_decomposition(rational, gs)
    word_ops = algebra._word_ops(gs, algebra.decomposition_words(gs))
    with pytest.raises(DomainError, match="polynomial coefficients"):
        algebra._span_solve(word_ops, [rational])
    with pytest.raises(DomainError, match="polynomial coefficients"):
        algebra._span_solve([*word_ops, rational], [gs.op("J0")])


def test_g2_pairwise_closure_in_report():
    report = check_structure(g2_algebra_generators(3))
    closure = [r for r in report.results if r.name == "closure[pairwise]"]
    assert len(closure) == 1 and closure[0].ok


def test_the_pairwise_closure_makes_no_fraction_terms(monkeypatch):
    # word products, commutators and the span solve stay in ints: reading
    # the Fraction view of any coefficient on the way would raise
    gs = g2_algebra_generators(3)

    def refuse(poly):
        raise AssertionError("the closure check built a Fraction terms view")

    monkeypatch.setattr(MultiPoly, "terms", property(refuse))
    assert algebra._g2_pairwise_closure(gs).ok


def test_pairwise_closure_detects_escape():
    from orbitforms.algebra import GeneratorSet, _g2_pairwise_closure
    # B = d^4 is not first-order, so its products are excluded from the word
    # span and [tau, d^4] = -4 d^3 escapes {tau^2, tau, d^4, 1}
    fake = GeneratorSet(
        kind="g2", d=1, n=0, names=("A", "B"),
        ops={"A": DiffOp.mul_by(MultiPoly.variable(1, 0)),
             "B": DiffOp.partial(1, 0, 4)},
        roles={"A": "cartan", "B": "cartan"},
        flag_vector=(1,))
    result = _g2_pairwise_closure(fake)
    assert not result.ok
    assert "[A,B]" in result.detail


def test_no_report_reads_the_order_of_commutator_terms(tmp_path, monkeypatch):
    # commutator leaves the order of its keys and terms unspecified; with
    # both reversed the algebra suite writes the same bytes
    def reversed_commutator(a, b):
        c = commutator(a, b)
        return DiffOp(c.nvars, {k: MultiPoly(c.nvars, dict(reversed(c.terms[k].terms.items())))
                                for k in reversed(c.terms)})

    monkeypatch.setattr(algebra, "commutator", reversed_commutator)
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    out = tmp_path / "report"
    assert main(["verify", "--suite", "algebra", "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SUITE_SHA256["algebra"]
