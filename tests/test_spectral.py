"""Exact spectra, QES spectra, Jacobi references, orthogonality."""

import dataclasses
import hashlib
import json
from fractions import Fraction
from math import factorial, prod

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitforms import linalg, models, spectral
from orbitforms.cli import main
from orbitforms.diffop import DiffOp, ExactMatrix, apply, restrict_to_flag
from orbitforms.errors import (DomainError, FormulaMismatch, InconsistencyError,
                               UnsupportedModel)
from orbitforms.models import (build_bc1, build_bc1_qes, build_bcn, build_g2,
                               build_sutherland)
from orbitforms.poly import MultiPoly
from orbitforms.spectral import (NUMERIC_DPS, SpectralEntry, SpectrumRecord,
                                 _gram, _jacobi_polynomials, _weight_exponents,
                                 jacobi_reference, numeric_eigenvalues, orthogonality_check,
                                 proportional_scalar, qes_spectrum, spectrum)
from reference_linalg import (dense_action_matrix, dense_numeric_eigenvalues,
                              dense_triangular_nullspace, dense_triangular_order,
                              dense_vector, exact_matrix, is_block_triangular,
                              poly_from_roots, shift_diagonal, sparse_columns)

t = MultiPoly.variable(1, 0)
HALF = Fraction(1, 2)


def test_bc1_free_chebyshev_point():
    rec = spectrum(build_bc1(0, 0), 2, numeric_check=True)
    assert [e.eigenvalue for e in rec.entries] == [0, 1, 4]
    phi2 = [e for e in rec.entries if e.eigenvalue == 4][0].eigenpolynomials[0]
    assert proportional_scalar(phi2, 2 * t * t - 1) is not None


def test_bc1_linear_eigenpolynomial():
    nu2, nu3 = Fraction(1, 3), Fraction(2, 7)
    rec = spectrum(build_bc1(nu2, nu3), 1, numeric_check=False)
    phi1 = rec.entries[1].eigenpolynomials[0]
    expected = t + MultiPoly.const(1, nu3 / (2 * nu2 + nu3 + 1))
    assert proportional_scalar(phi1, expected) is not None


def test_bc1_eigenpolynomials_satisfy_equation():
    bundle = build_bc1(Fraction(1, 3), Fraction(2, 7))
    rec = spectrum(bundle, 5, numeric_check=False)
    for entry in rec.entries:
        for phi in entry.eigenpolynomials:
            assert apply(bundle.h, phi) == phi * entry.eigenvalue


def test_sutherland_degenerate_kernel():
    rec = spectrum(build_sutherland(3, Fraction(1, 2)), 1, numeric_check=False)
    degenerate = [e for e in rec.entries if e.multiplicity == 2]
    assert len(degenerate) == 1
    entry = degenerate[0]
    assert entry.kernel_dim == 2
    span = {tuple(sorted(p.terms)) for p in entry.eigenpolynomials}
    assert span == {((1, 0),), ((0, 1),)}
    assert not rec.defective


def test_spectrum_dim_counts():
    rec = spectrum(build_sutherland(3, Fraction(1, 2)), 2, numeric_check=False)
    assert rec.dim == 6
    rec = spectrum(build_g2(1, 1), 3, numeric_check=False)
    assert rec.dim == 6          # lattice points with p1 + 2 p2 <= 3


def test_formula_mismatch_detection():
    bundle = build_bc1(Fraction(1, 3), Fraction(2, 7))
    broken = dataclasses.replace(
        bundle, eigenvalue=lambda p: Fraction(p[0] * p[0] + 1))
    with pytest.raises(FormulaMismatch) as exc:
        spectrum(broken, 3, numeric_check=False)
    assert exc.value.quantum_index == "1"


def test_spectrum_rejects_qes():
    q = build_bc1_qes(0, 0, 1, 2)
    with pytest.raises(UnsupportedModel):
        spectrum(q, 2)


# -- QES spectra -----------------------------------------------------------------

def test_qes_level_zero_single_entry():
    q = build_bc1_qes(Fraction(1, 3), Fraction(1, 5), Fraction(2, 3), 0)
    rec = qes_spectrum(q)
    assert len(rec.eigenvalues) == 1
    exact = q.h.constant_part().constant_value()
    with mpmath.mp.workdps(50):
        target = mpmath.mpf(exact.numerator) / exact.denominator
        assert abs(rec.eigenvalues[0] - target) < mpmath.mpf("1e-40")


REAL_ROOTS = linalg.real_roots


def qes_with_brackets(monkeypatch, q, move=None):
    """qes_spectrum(q) and the (lo, hi, m) brackets linalg.real_roots gave
    it, after `move` (a function of the brackets and the flag dimension)."""
    seen = []

    def spied(coeffs, bits):
        roots = REAL_ROOTS(coeffs, bits)
        seen.append(move(roots, len(coeffs) - 1) if move else roots)
        return seen[-1]

    monkeypatch.setattr(linalg, "real_roots", spied)
    return qes_spectrum(q), seen[-1]


def holds_the_trace(rec, roots) -> bool:
    """The certificate: the brackets, with multiplicity, hold the exact
    trace of den M on the 2^-ROOT_BITS grid."""
    trace = int(rec.matrix.trace() * rec.matrix.den) << spectral.ROOT_BITS
    return (sum(m * lo for lo, _, m in roots) <= trace
            <= sum(m * hi for _, hi, m in roots))


def test_qes_two_level_trace(monkeypatch):
    q = build_bc1_qes(0, 0, 1, 1)
    rec, roots = qes_with_brackets(monkeypatch, q)
    assert rec.matrix.trace() == 7      # exact matrix [[3,-2],[-2,4]]
    assert holds_the_trace(rec, roots)
    assert rec.max_imag < mpmath.mpf("1e-40")


def test_qes_spectrum_refuses_eigenvalues_off_the_exact_trace(monkeypatch):
    q = build_bc1_qes(Fraction(1, 3), Fraction(1, 5), Fraction(2, 3), 3)
    rec, roots = qes_with_brackets(monkeypatch, q)
    assert holds_the_trace(rec, roots)
    for step in (1, -1):
        def moved(roots, dim):
            # one bracket dim + 1 grid steps up (or down): past the slack of
            # at most one step per eigenvalue that the brackets leave
            lo, hi, m = roots[1]
            shift = step * (dim + 1)
            return roots[:1] + [(lo + shift, hi + shift, m)] + roots[2:]

        with pytest.raises(InconsistencyError, match="exact trace"):
            qes_with_brackets(monkeypatch, q, moved)


@settings(max_examples=40, deadline=None)
@given(params=st.tuples(*[st.builds(Fraction, st.integers(1, 40), st.integers(1, 9))] * 3),
       level=st.integers(0, 6))
def test_qes_spectrum_matches_the_dense_solve(params, level):
    """At positive couplings the certified roots are the eigenvalues the
    whole-matrix mpmath.eig finds, to 1e-50, and print the same 15 digits."""
    bundle = build_bc1_qes(*params, level)
    rec = qes_spectrum(bundle)
    dense = dense_numeric_eigenvalues(dense_action_matrix(rec.matrix))
    with mpmath.mp.workdps(NUMERIC_DPS):
        assert max(abs(v.imag) for v in dense) < mpmath.mpf("1e-50")
        reference = sorted(v.real for v in dense)
        assert all(abs(a - b) < mpmath.mpf("1e-50") for a, b in zip(rec.eigenvalues, reference))
    assert len(rec.eigenvalues) == len(reference) == level + 1
    assert [str(v) for v in rec.eigenvalues] == [str(v) for v in reference]


def test_qes_path_calls_no_dense_solve(monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("mpmath.eig called")

    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    monkeypatch.setattr(mpmath, "eig", refused)
    monkeypatch.setattr(mpmath.mp, "eig", refused)
    for n in range(7):
        assert main(["spectrum", "--model", "bc1_qes", "--nu2", "1/3", "--nu3", "1/5",
                     "--b", "2/3", "--n", str(n)]) == 0
        assert len(json.loads(capsys.readouterr().out)["entries"]) == n + 1
    # nor does the numeric multiset check of a solvable spectrum
    for argv in (["--model", "bc1", "--nu2", "1/3", "--nu3", "2/5", "--n", "6"],
                 ["--model", "sutherland", "--N", "3", "--nu", "1/2", "--n", "4"],
                 ["--model", "bcn", "--N", "2", "--nu", "1/2", "--nu2", "1/3",
                  "--nu3", "1/5", "--n", "3"],
                 ["--model", "g2", "--nu", "1/2", "--mu", "1/3", "--n", "6"]):
        assert main(["spectrum", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["numeric_checked"] is True


def test_qes_reduces_to_closed_form_at_b_zero():
    nu2, nu3, n = Fraction(1, 3), Fraction(1, 5), 3
    q = build_bc1_qes(nu2, nu3, 0, n)
    rec = qes_spectrum(q)
    expected = sorted(Fraction(p * p) + (2 * nu2 + nu3) * p for p in range(n + 1))
    with mpmath.mp.workdps(50):
        for num, ex in zip(rec.eigenvalues, expected):
            target = mpmath.mpf(ex.numerator) / ex.denominator
            assert abs(num - target) < mpmath.mpf("1e-40")


def test_qes_reality_up_to_level_six():
    for n in range(7):
        q = build_bc1_qes(Fraction(1, 3), Fraction(1, 5), Fraction(3, 4), n)
        rec = qes_spectrum(q)
        assert rec.max_imag < mpmath.mpf("1e-30")


# -- Jacobi reference ---------------------------------------------------------------

def test_jacobi_base_cases():
    assert jacobi_reference(0, HALF, HALF) == MultiPoly.const(1, 1)
    a, b = Fraction(1, 3), Fraction(2, 7)
    p1 = jacobi_reference(1, a, b)
    assert p1 == (a + 1) + (a + b + 2) * (t - 1) * HALF


def per_degree_jacobi(p, a, b):
    """P_p^{(a,b)} by its own run of the recurrence from P_0, as
    jacobi_reference computed it before the shared pass."""
    p0 = MultiPoly.const(1, 1)
    if p == 0:
        return p0
    p1 = (a + 1) + (a + b + 2) * (t - 1) * HALF
    prev2, prev1 = p0, p1
    for k in range(2, p + 1):
        s = 2 * k + a + b
        lead = 2 * k * (k + a + b) * (s - 2)
        main = (s - 1) * ((s * (s - 2)) * t + (a * a - b * b))
        tail = 2 * (k + a - 1) * (k + b - 1) * s
        prev2, prev1 = prev1, (main * prev1 - tail * prev2) * (1 / Fraction(lead))
    return prev1


@settings(max_examples=20, deadline=None)
@given(a=st.builds(Fraction, st.integers(0, 9), st.integers(1, 7)),
       b=st.builds(Fraction, st.integers(0, 9), st.integers(1, 7)),
       pmax=st.integers(0, 10))
def test_jacobi_pass_matches_per_degree_recurrences(a, b, pmax):
    polys = _jacobi_polynomials(pmax, a, b)
    assert len(polys) == pmax + 1
    for p, poly in enumerate(polys):
        for other in (jacobi_reference(p, a, b), per_degree_jacobi(p, a, b)):
            assert list(poly.terms.items()) == list(other.terms.items())


def test_jacobi_chebyshev_specialization():
    p2 = jacobi_reference(2, -HALF, -HALF)
    assert proportional_scalar(p2, 2 * t * t - 1) is not None


def test_jacobi_identifies_bc1_eigenfunctions():
    nu2, nu3 = Fraction(1, 3), Fraction(2, 7)
    bundle = build_bc1(nu2, nu3)
    rec = spectrum(bundle, 6, numeric_check=False)
    for entry in rec.entries:
        (p,) = entry.quantum_indices[0]
        ref = jacobi_reference(p, nu2 + nu3 - HALF, nu2 - HALF)
        assert proportional_scalar(entry.eigenpolynomials[0], ref) is not None


# -- orthogonality --------------------------------------------------------------------

def test_orthogonality_chebyshev_parity():
    max_off, min_norm, norm_gap = orthogonality_check(0, 0, 2)
    assert max_off == 0
    assert min_norm > 0
    assert norm_gap == 0


def test_orthogonality_half_integer_weight():
    max_off, min_norm, norm_gap = orthogonality_check(HALF, HALF, 3)
    assert max_off == 0
    assert min_norm > 0
    assert norm_gap == 0


@pytest.mark.parametrize("nu2,nu3", [(Fraction(1, 3), Fraction(2, 5)),
                                     (Fraction(2, 7), Fraction(3, 4))])
def test_orthogonality_exact_at_generic_parameters(nu2, nu3):
    # weight exponents that are not integers: Gauss-Legendre in the angle
    # variable misses orthogonality here by ~1e-9
    max_off, min_norm, norm_gap = orthogonality_check(nu2, nu3, 8)
    assert max_off == 0
    assert min_norm > 0
    assert norm_gap == 0


def closed_form_norm(p: int, a: Fraction, b: Fraction) -> Fraction:
    """<P_p^2> under (1-tau)^a (1+tau)^b over its mass: Szego's
    2^(a+b+1) G(p+a+1) G(p+b+1) / ((2p+a+b+1) p! G(p+a+b+1)) over
    2^(a+b+1) G(a+1) G(b+1) / G(a+b+2), in rising factorials."""
    if p == 0:
        return Fraction(1)
    rising = lambda x, k: prod((x + i for i in range(k)), start=Fraction(1))
    return (rising(a + 1, p) * rising(b + 1, p)
            / ((2 * p + a + b + 1) * factorial(p) * rising(a + b + 2, p - 1)))


weight_exponent = st.fractions(-1, 3, max_denominator=7).filter(lambda e: e > -1)


@settings(max_examples=30, deadline=None)
@given(a=weight_exponent, b=weight_exponent, pmax=st.integers(1, 10))
def test_jacobi_gram_is_the_closed_form_diagonal(a, b, pmax):
    gram = _gram(a, b, _jacobi_polynomials(pmax, a, b))
    assert gram == [[closed_form_norm(i, a, b) if i == j else 0
                     for j in range(pmax + 1)] for i in range(pmax + 1)]
    # nu2 = b + 1/2 and nu3 = a - b give the weight exponents (a, b)
    max_off, _, norm_gap = orthogonality_check(b + HALF, a - b, pmax)
    assert max_off == norm_gap == 0


def test_orthogonality_rejects_nonintegrable():
    with pytest.raises(DomainError):
        orthogonality_check(Fraction(-3, 4), 0, 2)


def quadrature_gram(nu2, nu3, pmax):
    """Reference normalised Gram matrix by Gauss-Legendre quadrature in the
    angle variable tau = cos(theta), where the weight is
    sin(theta/2)^(2nu2+2nu3) cos(theta/2)^(2nu2); smooth only when both
    exponents are non-negative integers."""
    a, b = nu2 + nu3 - HALF, nu2 - HALF
    polys = [jacobi_reference(p, a, b) for p in range(pmax + 1)]
    e_sin, e_cos = 2 * (nu2 + nu3), 2 * nu2
    assert e_sin.denominator == e_cos.denominator == 1

    def integral(f):
        return mpmath.quad(
            lambda th: (f(mpmath.cos(th)) * mpmath.sin(th / 2) ** int(e_sin)
                        * mpmath.cos(th / 2) ** int(e_cos)),
            [0, mpmath.pi], method="gauss-legendre", maxdegree=8)

    mass = integral(lambda tau: 1)
    return [[integral(lambda tau: polys[i].evaluate([tau]) * polys[j].evaluate([tau]))
             / mass for j in range(pmax + 1)] for i in range(pmax + 1)]


@settings(max_examples=12, deadline=None)
@given(twice_nu2=st.integers(0, 4), twice_sum=st.integers(0, 5),
       pmax=st.integers(1, 4))
def test_jacobi_gram_matches_quadrature(twice_nu2, twice_sum, pmax):
    nu2 = Fraction(twice_nu2, 2)
    nu3 = Fraction(twice_sum, 2) - nu2
    a, b = _weight_exponents(nu2, nu3)
    exact = _gram(a, b, _jacobi_polynomials(pmax, a, b))
    with mpmath.mp.workdps(40):
        reference = quadrature_gram(nu2, nu3, pmax)
        for exact_row, ref_row in zip(exact, reference):
            for e, r in zip(exact_row, ref_row):
                value = mpmath.mpf(e.numerator) / e.denominator
                assert abs(value - r) < mpmath.mpf("1e-25") * max(1, abs(value))


def test_restricted_matrices_block_triangular():
    jobs = [(build_bc1(Fraction(1, 3), Fraction(1, 5)), 5),
            (build_sutherland(3, Fraction(1, 2)), 3),
            (build_g2(Fraction(1, 2), Fraction(1, 3)), 5)]
    for bundle, n in jobs:
        m = restrict_to_flag(bundle.h, bundle.flag(n))
        assert is_block_triangular(m)


def test_g2_spectrum_on_alternative_gradings():
    g = build_g2(Fraction(1, 2), Fraction(1, 3))
    for vec, dim in (((3, 5), 7), ((5, 9), 4)):
        rec = spectrum(g, 10, vector=vec, numeric_check=True)
        assert rec.dim == dim


def test_large_model_spectra_numeric():
    rec = spectrum(build_sutherland(5, Fraction(1, 3)), 2, numeric_check=True)
    assert rec.dim == 15


# -- triangular engine against charpoly and rref -----------------------------------

TRIANGULAR_CASES = {
    "bc1 n=6": (lambda p: build_bc1(p[0], p[1]), 6, None),
    "sutherland N=3 n=3": (lambda p: build_sutherland(3, p[0]), 3, None),
    "sutherland N=4 n=2": (lambda p: build_sutherland(4, p[0]), 2, None),
    "bcn N=2 n=3": (lambda p: build_bcn(2, *p), 3, None),
    "bcn N=3 n=2": (lambda p: build_bcn(3, *p), 2, None),
    "g2 n=5": (lambda p: build_g2(p[0], p[1]), 5, None),
    "g2 f=(3,5) n=10": (lambda p: build_g2(p[0], p[1]), 10, (3, 5)),
}
# small numerators and zero make eigenvalues collide, degenerate or defective
rationals = st.builds(Fraction, st.integers(-3, 4), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(TRIANGULAR_CASES)),
       params=st.tuples(rationals, rationals, rationals))
def test_triangular_engine_matches_charpoly_and_rref(case, params):
    build, n, vector = TRIANGULAR_CASES[case]
    bundle = build(params)
    matrix = restrict_to_flag(bundle.h, bundle.flag(n, vector))
    action = dense_action_matrix(matrix)
    order = linalg.triangular_order(matrix.columns)
    assert order is not None
    position = {i: k for k, i in enumerate(order)}
    assert all(position[j] < position[i] for i, row in enumerate(action)
               for j, x in enumerate(row) if x and i != j)
    diagonal = [action[i][i] for i in range(len(action))]
    assert matrix.diagonal() == diagonal
    assert linalg.charpoly(action) == poly_from_roots(diagonal)
    for c in set(diagonal):
        assert (kernel(matrix, order, c)
                == linalg.nullspace(shift_diagonal(action, c)))


def kernel(matrix, order, c):
    """triangular_nullspace of the restricted matrix at c, as dense
    Fraction vectors."""
    return [dense_vector(v, matrix.dim)
            for v in linalg.triangular_nullspace(matrix.columns, matrix.den, order, c)]


# every case has defective eigenvalues at couplings -1
DEFECTIVE = (Fraction(-1),) * 3


@pytest.mark.parametrize("case", sorted(TRIANGULAR_CASES))
@settings(max_examples=8, deadline=None)
@given(params=st.tuples(rationals, rationals, rationals))
@example(params=DEFECTIVE)
def test_sparse_kernels_match_the_dense_loop(case, params):
    build, n, vector = TRIANGULAR_CASES[case]
    bundle = build(params)
    matrix = restrict_to_flag(bundle.h, bundle.flag(n, vector))
    action = dense_action_matrix(matrix)
    order = linalg.triangular_order(matrix.columns)
    assert order == dense_triangular_order(action)
    diagonal = set(matrix.diagonal())
    # a value off the diagonal, and one whose multiple of den is no integer
    off = [max(diagonal) + 1, Fraction(1, 2 * matrix.den + 1)]
    for c in [*diagonal, *off]:
        assert kernel(matrix, order, c) == dense_triangular_nullspace(action, order, c)


def reference_spectrum(model, n, vector=None):
    """spectrum(model, n, vector=vector, numeric_check=False) on the dense
    path: dense rows, the dense order and back-substitution, and apply."""
    space = model.flag(n, vector)
    action = dense_action_matrix(restrict_to_flag(model.h, space))
    order = dense_triangular_order(action)
    predicted = {}
    for mono in space.basis:
        predicted.setdefault(models.eigenvalue_formula(model, mono), []).append(mono)
    entries, defective = [], []
    for val in sorted(predicted):
        monos = tuple(sorted(predicted[val], key=lambda e: (sum(e), e)))
        vectors = dense_triangular_nullspace(action, order, val)
        if len(vectors) < len(monos):
            defective.append(val)
        polys = tuple(MultiPoly(space.d, {space.basis[i]: c for i, c in enumerate(v) if c})
                      for v in vectors)
        assert all(apply(model.h, phi) == phi * val for phi in polys)
        entries.append(SpectralEntry(val, monos, len(monos), len(vectors), polys))
    return SpectrumRecord(model.spec.family, space.d, space.f, n,
                          tuple(entries), tuple(defective), False)


@pytest.mark.parametrize("case", sorted(TRIANGULAR_CASES))
@settings(max_examples=5, deadline=None)
@given(params=st.tuples(rationals, rationals, rationals))
@example(params=DEFECTIVE)
def test_spectrum_records_match_the_dense_path(case, params):
    build, n, vector = TRIANGULAR_CASES[case]
    bundle = build(params)
    record = spectrum(bundle, n, vector=vector, numeric_check=False)
    if params == DEFECTIVE:
        assert record.defective
    assert record == reference_spectrum(bundle, n, vector)


def assert_column_check(matrix, pick):
    """_check_eigenvector accepts every kernel vector of `matrix` and refuses
    the zero vector, and each kernel vector after one planted change of M or
    of v; pick(options, label) chooses where."""
    order = linalg.triangular_order(matrix.columns)
    for val in set(matrix.diagonal()):
        for vec in linalg.triangular_nullspace(matrix.columns, matrix.den, order, val):
            spectral._check_eigenvector(matrix, vec, val)
            nums, den = vec
            # the zero vector, for which M v = val v holds vacuously, with
            # no entries and with stored zeros
            for zero in ({}, dict.fromkeys(nums, 0)):
                with pytest.raises(InconsistencyError, match="is zero"):
                    spectral._check_eigenvector(matrix, (zero, den), val)
            # one entry of M moved, in a column that v reaches
            dense = dense_vector(vec, matrix.dim)
            j = pick([j for j, c in enumerate(dense) if c], "j")
            i = pick(range(matrix.dim), "i")
            columns = [dict(c) for c in matrix.columns]
            columns[j][i] = columns[j].get(i, 0) + pick([1, -1], "delta")
            with pytest.raises(InconsistencyError):
                spectral._check_eigenvector(
                    ExactMatrix(matrix.space, matrix.den, columns), vec, val)
            # one entry of v moved, where (M - val I) e_k is not zero
            moved = [k for k, c in enumerate(matrix.columns)
                     if c.get(k, 0) != val * matrix.den
                     or any(v for i, v in c.items() if i != k)]
            if moved:
                k = pick(moved, "k")
                step = pick([Fraction(2), Fraction(-1, 3)], "step")
                planted = {i: v * step.denominator for i, v in nums.items()}
                planted[k] = planted.get(k, 0) + step.numerator * den
                assert dense_vector((planted, den * step.denominator), matrix.dim) == [
                    c + step * (i == k) for i, c in enumerate(dense)]
                with pytest.raises(InconsistencyError):
                    spectral._check_eigenvector(
                        matrix, (planted, den * step.denominator), val)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), case=st.sampled_from(sorted(TRIANGULAR_CASES)),
       params=st.tuples(rationals, rationals, rationals))
def test_column_check_accepts_every_kernel_and_refuses_a_planted_entry(data, case, params):
    build, n, vector = TRIANGULAR_CASES[case]
    bundle = build(params)
    matrix = restrict_to_flag(bundle.h, bundle.flag(n, vector))
    assert_column_check(matrix, lambda options, label: data.draw(
        st.sampled_from(list(options)), label))


@pytest.mark.parametrize("case", sorted(TRIANGULAR_CASES))
def test_column_check_on_defective_kernels(case):
    build, n, vector = TRIANGULAR_CASES[case]
    bundle = build(DEFECTIVE)
    matrix = restrict_to_flag(bundle.h, bundle.flag(n, vector))
    assert_column_check(matrix, lambda options, label: list(options)[-1])


def test_cyclic_matrix_is_refused():
    F = Fraction
    _, columns = sparse_columns([[F(2), F(1)], [F(1), F(2)]])
    assert linalg.triangular_order(columns) is None
    # (1 - t^2) d/dt + 2 + t maps 1 -> 2 + t and t -> 1 + 2t on P_1: the
    # spectrum {1, 3} is right, but no order makes the matrix triangular
    h = DiffOp(1, {(1,): 1 - t * t, (0,): 2 + t})
    bundle = dataclasses.replace(build_bc1(0, 0), h=h,
                                 eigenvalue=lambda p: F(2 * p[0] + 1))
    with pytest.raises(UnsupportedModel, match="no dominance order"):
        spectrum(bundle, 1, numeric_check=False)


# -- numeric cross-check on the sparse columns --------------------------------------

NUMERIC_CASES = {
    "bc1 n=6": (lambda p: build_bc1(p[0], p[1]), 6),
    "sutherland N=2 n=4": (lambda p: build_sutherland(2, p[0]), 4),
    "sutherland N=3 n=3": (lambda p: build_sutherland(3, p[0]), 3),
    "sutherland N=4 n=3": (lambda p: build_sutherland(4, p[0]), 3),
    "bcn N=2 n=3": (lambda p: build_bcn(2, *p), 3),
    "bcn N=3 n=2": (lambda p: build_bcn(3, *p), 2),
    "g2 n=6": (lambda p: build_g2(p[0], p[1]), 6),
}
# positive couplings keep every eigenvalue semisimple, so the dense solve
# is accurate to the working precision even where eigenvalues collide
positive_rationals = st.builds(Fraction, st.integers(1, 7), st.integers(1, 5))


def by_value(values):
    return sorted(values, key=lambda v: (v.real, v.imag))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(NUMERIC_CASES)),
       params=st.tuples(positive_rationals, positive_rationals, positive_rationals))
def test_permuted_numeric_eigenvalues_match_the_dense_solve(case, params):
    """A solvable matrix is triangular in the engine's order, and its
    converted diagonal is the whole-matrix solve."""
    build, n = NUMERIC_CASES[case]
    bundle = build(params)
    matrix = restrict_to_flag(bundle.h, bundle.flag(n))
    assert linalg.is_triangular_in(matrix.columns, linalg.triangular_order(matrix.columns))
    with mpmath.mp.workdps(NUMERIC_DPS):
        dense = by_value(dense_numeric_eigenvalues(dense_action_matrix(matrix)))
        fast = by_value(numeric_eigenvalues(matrix.columns, matrix.den))
        assert len(dense) == len(fast) == matrix.dim
        assert max(abs(d - f) for d, f in zip(dense, fast)) < mpmath.mpf("1e-50")


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(NUMERIC_CASES)),
       params=st.tuples(rationals, rationals, rationals))
def test_numeric_eigenvalues_match_the_dense_solve_bit_for_bit(case, params):
    """The converted diagonal is exactly the values of the whole-matrix
    solve of the matrix in reverse dominance order, where it is upper
    triangular."""
    build, n = NUMERIC_CASES[case]
    bundle = build(params)
    matrix = restrict_to_flag(bundle.h, bundle.flag(n))
    order = linalg.triangular_order(matrix.columns)
    assert linalg.is_triangular_in(matrix.columns, order)
    assert (by_value(numeric_eigenvalues(matrix.columns, matrix.den))
            == by_value(dense_numeric_eigenvalues(dense_action_matrix(matrix, order[::-1]))))


COMPLEX_PAIR = [[Fraction(1), Fraction(1)], [Fraction(-1), Fraction(2)]]  # (3 +- i sqrt 3)/2


def test_numeric_check_does_not_trust_the_order(monkeypatch):
    # diagonal {1, 2} as claimed, but the eigenvalues are (3 +- i sqrt 3)/2:
    # no order exists, and the certificate refuses both orders
    columns = exact_matrix(COMPLEX_PAIR).columns
    assert linalg.triangular_order(columns) is None
    assert not linalg.is_triangular_in(columns, [0, 1])
    assert not linalg.is_triangular_in(columns, [1, 0])
    # the certificate is checked apart from the search: a faulty order is caught
    search = linalg.triangular_order
    monkeypatch.setattr(linalg, "triangular_order", lambda c: search(c)[::-1])
    with pytest.raises(InconsistencyError, match="does not make the restricted matrix"):
        spectrum(build_bc1(HALF, HALF), 3, numeric_check=False)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(NUMERIC_CASES)),
       params=st.tuples(rationals, rationals, rationals), data=st.data())
def test_certificate_holds_for_the_engine_order_and_fails_when_broken(case, params, data):
    """The engine's order passes; swapping the places of the two indices of
    one off-diagonal entry, or repeating or dropping an index, fails."""
    build, n = NUMERIC_CASES[case]
    bundle = build(params)
    columns = restrict_to_flag(bundle.h, bundle.flag(n)).columns
    order = linalg.triangular_order(columns)
    assert linalg.is_triangular_in(columns, order)
    entries = [(i, j) for j, col in enumerate(columns) for i in col if i != j]
    if entries:
        i, j = data.draw(st.sampled_from(entries))
        swapped = list(order)
        swapped[order.index(i)], swapped[order.index(j)] = j, i
        assert not linalg.is_triangular_in(columns, swapped)
    k = data.draw(st.integers(1, len(order) - 1))
    assert not linalg.is_triangular_in(columns, order[:k] + [order[k - 1]] + order[k + 1:])
    assert not linalg.is_triangular_in(columns, order[:k] + order[k + 1:])


def test_numeric_eigenvalues_of_diagonal_matrices_are_their_entries():
    F = Fraction
    with mpmath.mp.workdps(NUMERIC_DPS):
        assert numeric_eigenvalues([{0: 7}], 3) == [mpmath.mpf(7) / 3]
        entries = [F(2), F(-1, 7), F(0), F(2), F(5, 3)]
        diagonal = exact_matrix([[x if i == j else F(0) for j in range(5)]
                                 for i, x in enumerate(entries)])
        values = numeric_eigenvalues(diagonal.columns, diagonal.den)
        assert all(isinstance(v, mpmath.mpf) for v in values)
        assert values == [mpmath.mpf(x.numerator) / x.denominator for x in entries]
    # the certificate reads the exact zero pattern: a stored zero is no entry
    assert linalg.is_triangular_in([{0: 1, 1: 0}, {0: 0, 1: 2}], [0, 1])
    assert linalg.is_triangular_in([{0: 1, 1: 0}, {0: 0, 1: 2}], [1, 0])


# -- golden report bytes -------------------------------------------------------------

# Degenerate (nu = 0) and defective (negative parameters) points, a 1x1
# flag, every family and the largest g2 level the suites ship.
GOLDEN_SPECTRUM_QUERIES = [
    ["--model", "bc1", "--nu2", "1/3", "--nu3", "2/5", "--n", "0"],
    ["--model", "bc1", "--nu2", "0", "--nu3", "0", "--n", "6"],
    ["--model", "bc1", "--nu2", "1/3", "--nu3", "2/5", "--n", "8"],
    ["--model", "bc1", "--nu2=-1", "--nu3=-1", "--n", "5", "--no-numeric-check"],
    ["--model", "bc1_qes", "--nu2", "1/3", "--nu3", "1/5", "--b", "2/3", "--n", "0"],
    ["--model", "bc1_qes", "--nu2", "1/3", "--nu3", "1/5", "--b", "2/3", "--n", "4"],
    ["--model", "sutherland", "--N", "3", "--nu", "0", "--n", "3"],
    ["--model", "sutherland", "--N", "4", "--nu", "0", "--n", "2"],
    ["--model", "sutherland", "--N", "4", "--nu", "1/2", "--n", "3"],
    ["--model", "sutherland", "--N", "3", "--nu=-1/2", "--n", "3", "--no-numeric-check"],
    ["--model", "sutherland", "--N", "3", "--nu", "1/2", "--n", "3", "--format", "csv"],
    ["--model", "bcn", "--N", "2", "--nu", "0", "--nu2", "0", "--nu3", "0", "--n", "3"],
    ["--model", "bcn", "--N", "3", "--nu", "0", "--nu2", "1/3", "--nu3", "1/5", "--n", "2"],
    ["--model", "bcn", "--N", "2", "--nu", "1/2", "--nu2", "1/3", "--nu3", "1/5", "--n", "4"],
    ["--model", "g2", "--nu", "0", "--mu", "0", "--n", "6"],
    ["--model", "g2", "--nu", "1/2", "--mu", "1/3", "--n", "10", "--no-numeric-check"],
    ["--model", "g2", "--nu", "1/2", "--mu", "1/3", "--n", "10", "--f", "3,5"],
    ["--model", "g2", "--nu", "1/2", "--mu", "1/3", "--n", "12", "--f", "5,9"],
]
GOLDEN_SPECTRUM_SHA256 = "6002bb4f4b8e5120522ff4a140452ab287d33c5861b28f26319ae2e08c5fbba8"
# `verify --suite S --seed 1` reports, keyed by the --suite value and any
# further options
GOLDEN_SUITE_SHA256 = {
    "spectral": "2fdc65ac22be09ec861198cdffa78a6b0b58fff1905bd35e8e0599479aaf4669",
    "pi": "023ec4999ac3763448e4b6f6b8f05eaf14e0cda25f2ce94a4321071e94874210",
    "flags": "7b0ff848ce51482506e6118f1081acb560e65da08dafcd1ff904815cb9c5e47a",
    "algebra": "aa7074796dfb5c2cb98cfd2da13ec9e9aebc6fa3d7938e7bf46bec9cfd7b5d97",
    "gauge": "05fbc4a7ca4f2e9d7f32cd36f8da1b19498f731762a4df7b8fc463d56134c123",
    "ttw": "1b490fe556f051cb6826c3eb284b5265179fd4d2c5f4c83138b1f8ff53d924ff",
    "cartesian --sample-points 10":
        "42a4cab5524fa52b5238dd702897a7a8257348f9b6b6395cb4acdcc0bf131b25",
}


# bc1_qes reports: the shipped couplings, two other points (one in CSV) and
# a point whose eigenvalues -2 and 0 are double, in JSON and in CSV.  The
# digest is that of the 60-digit mpmath.eig spectra the certified roots
# must reproduce.
QES_SHIPPED = ["--model", "bc1_qes", "--nu2", "1/3", "--nu3", "1/5", "--b", "2/3"]
GOLDEN_QES_QUERIES = [
    *([*QES_SHIPPED, "--n", str(n)] for n in (1, 2, 3, 4, 5, 6, 20)),
    ["--model", "bc1_qes", "--nu2", "7/3", "--nu3", "5/2", "--b", "9/4", "--n", "5"],
    ["--model", "bc1_qes", "--nu2=-1/7", "--nu3", "3", "--b=-5/3", "--n", "6",
     "--format", "csv"],
    ["--model", "bc1_qes", "--nu2=-2", "--nu3", "1", "--b", "0", "--n", "6"],
    ["--model", "bc1_qes", "--nu2=-2", "--nu3", "1", "--b", "0", "--n", "6",
     "--format", "csv"],
]
GOLDEN_QES_SHA256 = "3f515be9ada6d59a6484e3862c2d015e7af9f8e9fdcfce310f16150c505110e6"


def test_qes_reports_match_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    out = tmp_path / "report"
    digest = hashlib.sha256()
    for query in GOLDEN_QES_QUERIES:
        assert main(["spectrum", *query, "--out", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == GOLDEN_QES_SHA256


def golden_digests(out) -> tuple[str, dict[str, str]]:
    """sha256 of the concatenated spectrum reports and of each suite report
    in GOLDEN_SUITE_SHA256, each written with --out to the file `out`."""
    def report(argv):
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()
    spectra = hashlib.sha256()
    for query in GOLDEN_SPECTRUM_QUERIES:
        spectra.update(report(["spectrum", *query]))
    suites = {key: hashlib.sha256(
                  report(["verify", "--suite", *key.split(), "--seed", "1"])).hexdigest()
              for key in GOLDEN_SUITE_SHA256}
    return spectra.hexdigest(), suites


def test_reports_match_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    assert golden_digests(tmp_path / "report") == (
        GOLDEN_SPECTRUM_SHA256, GOLDEN_SUITE_SHA256)


def test_kernels_of_spectra_take_no_dense_elimination(tmp_path, monkeypatch):
    # only a defective eigenvalue (negative couplings here) has constraints
    # on its parameters, and only those go through nullspace and so rref
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    queries = [q for q in GOLDEN_SPECTRUM_QUERIES if not any("=-" in a for a in q)]
    assert len(queries) == len(GOLDEN_SPECTRUM_QUERIES) - 2

    def dense(*args, **kwargs):
        raise AssertionError("rref on the kernel path")

    monkeypatch.setattr(linalg, "rref", dense)
    for query in queries:
        assert main(["spectrum", *query, "--out", str(tmp_path / "report")]) == 0, query


def test_spectra_and_exact_suites_build_no_gauge_data(tmp_path, monkeypatch):
    # only the gauge suite reads the rational potentials: with them broken,
    # the spectra and the other exact suites give the same bytes
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    out = tmp_path / "report"

    def report(argv):
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    queries = [q for q in GOLDEN_SPECTRUM_QUERIES
               if q[1] == "bc1_qes" or q[1:4] == ["bcn", "--N", "3"]]
    spectra = [report(["spectrum", *q]) for q in queries]

    def broken(*args):
        raise AssertionError("gauge data built")

    monkeypatch.setattr(models, "bc_gauge_data", broken)
    with pytest.raises(AssertionError, match="gauge data built"):
        build_bcn(3, 0, 0, 0).rational_form
    assert [report(["spectrum", *q]) for q in queries] == spectra
    for suite in ("flags", "spectral", "pi", "algebra"):
        digest = hashlib.sha256(report(["verify", "--suite", suite, "--seed", "1"]))
        assert digest.hexdigest() == GOLDEN_SUITE_SHA256[suite], suite
