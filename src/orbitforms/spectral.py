"""Exact spectra of flag-restricted operators and related special functions.

The headline check is exact.  The restricted matrix of every exactly
solvable family is triangular in the dominance order of its monomials, so
the engine finds such an order (a topological order of the off-diagonal
graph), checks it in a separate pass that reads only the columns and the
order (linalg.is_triangular_in), and requires the diagonal to equal the
closed-form eigenvalue multiset; for a triangular matrix this is the
identity charpoly(M) == prod_p (lambda - eps_p).  Kernels of (M - eps I),
the eigenpolynomials, come by back-substitution along that order, as int
numerators over one denominator per vector.  All of this reads the sparse
int columns of the restricted matrix, and each kernel vector is checked as
M v = eps v on those columns, in ints, not on the back-substitution's
state; only then is it made a polynomial, the one place the kernel path
makes Fractions.  A matrix with no such order is refused with
UnsupportedModel.

A QES family has no closed form, so its spectrum is proven from the exact
characteristic polynomial instead: the integer polynomial charpoly(den M)
(Berkowitz on the same columns) is split into square-free factors, and
each real root is isolated by a Sturm chain and refined by integer Newton
steps to a bracket 2^-ROOT_BITS wide on den lambda, certified by an exact
sign change (linalg.real_roots).  The brackets, with multiplicity, must
hold the exact integer trace of den M.  A spectrum with a non-real
eigenvalue is refused with DomainError; no QES step solves numerically.

The one-variable eigenpolynomials are Jacobi polynomials, and their Gram
matrix under the squared ground factor comes exactly from Beta moments: the
off-diagonal products must be 0 and each norm its closed form
(orthogonality_check).

On demand (on by default) the solvable multiset is also compared with the
NUMERIC_DPS-digit values of the certified triangular matrix, its diagonal
entries converted exactly.  No step builds a dense Fraction matrix, and
none solves numerically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

import mpmath
from mpmath import mp

from . import linalg
from .diffop import ExactMatrix, restrict_to_flag
from .errors import (DomainError, FormulaMismatch, InconsistencyError,
                     UnsupportedModel)
from .models import ModelBundle, eigenvalue_formula
from .poly import Exponents, FlagSpace, MultiPoly, from_integer_terms, to_mpf

ZERO = Fraction(0)
# numeric values: working digits, and the bound within which the numeric
# multiset must match an exact spectrum
NUMERIC_DPS = 60
NUMERIC_TOL = "1e-30"
# QES eigenvalues: bracket width 2^-ROOT_BITS on den lambda, past the
# 2^-199 of NUMERIC_DPS digits
ROOT_BITS = 230


@dataclass(frozen=True)
class SpectralEntry:
    eigenvalue: Fraction
    quantum_indices: tuple[Exponents, ...]
    multiplicity: int            # algebraic multiplicity (count of indices)
    kernel_dim: int              # geometric multiplicity found
    eigenpolynomials: tuple[MultiPoly, ...]


@dataclass(frozen=True)
class SpectrumRecord:
    d: int
    f: tuple[int, ...]
    n: int
    entries: tuple[SpectralEntry, ...]
    defective: tuple[Fraction, ...]      # eigenvalues with kernel_dim < multiplicity
    numeric_checked: bool

    @property
    def dim(self) -> int:
        return sum(e.multiplicity for e in self.entries)


def numeric_eigenvalues(columns: Sequence[Mapping[int, int]], den: int) -> list:
    """Eigenvalues, at NUMERIC_DPS digits, of the matrix
    M[i][j] = columns[j][i] / den, which must be triangular in some order
    (linalg.is_triangular_in): its diagonal entries, each converted
    exactly, as real mpf values."""
    with mp.workdps(NUMERIC_DPS):
        return [to_mpf(Fraction(col.get(j, 0), den)) for j, col in enumerate(columns)]


def spectrum(model: ModelBundle, n: int, *, vector: tuple[int, ...] | None = None,
             numeric_check: bool = True, with_vectors: bool = True) -> SpectrumRecord:
    """Exact spectrum of the model on its level-n flag.

    Finds an order in which the restricted matrix is triangular and checks
    that certificate (linalg.is_triangular_in), verifies that the
    closed-form eigenvalue multiset is the diagonal, so the exact spectrum,
    extracts exact kernel eigenpolynomials, and optionally compares the
    multiset with the NUMERIC_DPS-digit values numeric_eigenvalues gives,
    to within NUMERIC_TOL.
    """
    if model.eigenvalue is None:
        raise UnsupportedModel("use qes_spectrum for QES families")
    space = model.flag(n, vector)
    matrix = restrict_to_flag(model.h, space)
    predicted: dict[Fraction, list[Exponents]] = {}
    for mono in space.basis:
        val = eigenvalue_formula(model, mono)
        predicted.setdefault(val, []).append(mono)
    roots: list[Fraction] = []
    for val, monos in predicted.items():
        roots.extend([val] * len(monos))

    # Exact identity: charpoly(M) == prod_p (lambda - eps_p).  M is
    # triangular in the dominance order, so charpoly(M) is the product over
    # its diagonal.
    order = linalg.triangular_order(matrix.columns)
    if order is None:
        raise UnsupportedModel(
            f"{model.spec.family}: restricted matrix at n={n} has no dominance "
            f"order (its off-diagonal graph has a cycle)")
    if not linalg.is_triangular_in(matrix.columns, order):
        raise InconsistencyError(
            f"{model.spec.family}: the order found at n={n} does not make the "
            f"restricted matrix triangular")
    diagonal = Counter(matrix.diagonal())
    if diagonal != Counter(roots):
        offenders = [str(v) for v in sorted(predicted) if v not in diagonal]
        bad = offenders[0] if offenders else "multiplicity mismatch"
        raise FormulaMismatch(
            f"{model.spec.family}: predicted eigenvalue set is not the exact "
            f"spectrum at n={n} (offender: {bad})",
            quantum_index=bad)

    entries: list[SpectralEntry] = []
    defective: list[Fraction] = []
    for val in sorted(predicted):
        monos = tuple(sorted(predicted[val], key=lambda e: (sum(e), e)))
        kernel_polys: tuple[MultiPoly, ...] = ()
        kdim = len(monos)
        if with_vectors:
            basis_vecs = linalg.triangular_nullspace(matrix.columns, matrix.den,
                                                     order, val)
            if not basis_vecs:
                raise InconsistencyError(
                    f"empty kernel for verified eigenvalue {val}")
            kdim = len(basis_vecs)
            if kdim < len(monos):
                defective.append(val)
            for v in basis_vecs:
                _check_eigenvector(matrix, v, val)
            kernel_polys = tuple(_vector_to_poly(v, space) for v in basis_vecs)
        entries.append(SpectralEntry(val, monos, len(monos), kdim, kernel_polys))

    numeric_checked = False
    if numeric_check:
        _numeric_multiset_check(matrix, roots)
        numeric_checked = True
    return SpectrumRecord(space.d, space.f, n,
                          tuple(entries), tuple(defective), numeric_checked)


def _check_eigenvector(matrix: ExactMatrix, vec: tuple[Mapping[int, int], int],
                      val: Fraction) -> None:
    """M v == val v, or InconsistencyError, for a kernel vector
    v = (nums, vden) of triangular_nullspace: with M = columns / den and
    val = p / q, q sum_j columns[j][i] nums_j equals p den nums_i at every
    index i, in ints (vden cancels); the zero vector is refused."""
    nums = vec[0]
    if not any(nums.values()):
        raise InconsistencyError(f"kernel vector at {val} is zero")
    image: dict[int, int] = {}
    for j, v in nums.items():
        for i, a in matrix.columns[j].items():
            image[i] = image.get(i, 0) + a * v
    p, q = val.numerator * matrix.den, val.denominator
    if any(q * image.get(i, 0) != p * nums.get(i, 0) for i in image.keys() | nums.keys()):
        raise InconsistencyError(f"kernel vector is not an exact eigenvector at {val}")


def _vector_to_poly(vec: tuple[Mapping[int, int], int], space: FlagSpace) -> MultiPoly:
    """The polynomial of a kernel vector (nums, vden): the only Fractions
    made on the kernel path, one per term, in basis order."""
    nums, vden = vec
    basis = space.basis
    return from_integer_terms(space.d, vden, {basis[i]: nums[i] for i in sorted(nums)})


def _numeric_multiset_check(matrix: ExactMatrix, roots: Sequence[Fraction]) -> None:
    """The numeric eigenvalues of `matrix` equal `roots` within NUMERIC_TOL."""
    values = numeric_eigenvalues(matrix.columns, matrix.den)
    with mp.workdps(NUMERIC_DPS):
        bound = mpmath.mpf(NUMERIC_TOL)
        numeric = sorted(values)
        exact = sorted(roots)
        if len(numeric) != len(exact):
            raise InconsistencyError("numeric eigenvalue count mismatch")
        for nv, ev in zip(numeric, exact):
            if abs(nv - to_mpf(ev)) > bound:
                raise InconsistencyError(
                    f"numeric eigenvalue {nv} does not match exact {ev}")


@dataclass(frozen=True)
class QesSpectrumRecord:
    n: int
    matrix: ExactMatrix
    eigenvalues: tuple            # mpf values, ascending
    max_imag: object              # mpf 0: every eigenvalue is proven real


def qes_spectrum(model: ModelBundle) -> QesSpectrumRecord:
    """Spectrum of a QES model on its single invariant subspace, from the
    exact characteristic polynomial.

    There is no closed form (none exists), so the eigenvalues are the real
    roots of charpoly(den M), an integer polynomial, each proven by
    linalg.real_roots in a bracket 2^-ROOT_BITS wide on den lambda by an
    exact sign change.  A spectrum with a non-real eigenvalue is refused
    with DomainError, and max_imag is exactly 0.  The brackets (lo, hi, m)
    must hold the exact trace of den M, an int:
    sum m lo <= 2^ROOT_BITS sum_j den M[j][j] <= sum m hi, or
    InconsistencyError is raised.  Each value printed is a bracket midpoint
    over den at NUMERIC_DPS digits.
    """
    if model.eigenvalue is not None:
        raise UnsupportedModel("qes_spectrum is for QES families")
    n = model.spec.n
    matrix = restrict_to_flag(model.h, model.flag(n))
    rows = [[0] * matrix.dim for _ in range(matrix.dim)]
    for j, col in enumerate(matrix.columns):
        for i, v in col.items():
            rows[i][j] = v
    coeffs = [c.numerator for c in linalg.charpoly(rows)]   # den M is an int matrix
    try:
        roots = linalg.real_roots(coeffs, ROOT_BITS)
    except ArithmeticError as exc:
        raise InconsistencyError(f"QES eigenvalues not certified: {exc}") from None
    real = sum(m for _, _, m in roots)
    if real < matrix.dim:
        raise DomainError(f"{model.spec.family.lower()} at n={n}: {matrix.dim - real} "
                          f"of its {matrix.dim} eigenvalues are non-real")
    trace = sum(col.get(j, 0) for j, col in enumerate(matrix.columns)) << ROOT_BITS
    if not (sum(m * lo for lo, _, m in roots) <= trace <= sum(m * hi for _, hi, m in roots)):
        raise InconsistencyError(f"QES eigenvalue brackets miss the exact trace "
                                 f"{matrix.trace()}")
    with mp.workdps(NUMERIC_DPS):
        eigvals = tuple(mpmath.ldexp(mpmath.mpf(lo + hi), -ROOT_BITS - 1) / matrix.den
                        for lo, hi, m in roots for _ in range(m))
    return QesSpectrumRecord(n, matrix, eigvals, mp.mpf(0))


# ---------------------------------------------------------------------------
# Jacobi reference polynomials
# ---------------------------------------------------------------------------

def jacobi_reference(p: int, a: Fraction, b: Fraction) -> MultiPoly:
    """Jacobi polynomial P_p^{(a,b)} by the three-term recurrence, exact
    (see _jacobi_polynomials)."""
    if p < 0:
        raise DomainError("degree must be non-negative")
    return _jacobi_polynomials(p, a, b)[p]


def _jacobi_polynomials(pmax: int, a: Fraction, b: Fraction) -> list[MultiPoly]:
    """[P_0, ..., P_pmax] of P_p^{(a,b)}, by one pass of the recurrence.

    P_0 = 1, P_1 = (a+1) + (a+b+2)(tau-1)/2, and for p >= 2
    2p(p+a+b)(2p+a+b-2) P_p = (2p+a+b-1)[(2p+a+b)(2p+a+b-2) tau + a^2-b^2] P_{p-1}
                              - 2(p+a-1)(p+b-1)(2p+a+b) P_{p-2}.
    """
    a, b = Fraction(a), Fraction(b)
    t = MultiPoly.variable(1, 0)
    polys = [MultiPoly.const(1, 1), (a + 1) + (a + b + 2) * (t - 1) * Fraction(1, 2)]
    for k in range(2, pmax + 1):
        s = 2 * k + a + b
        lead = 2 * k * (k + a + b) * (s - 2)
        if lead == 0:
            raise DomainError(
                f"degenerate Jacobi recurrence at p={k} for a={a}, b={b}")
        main = (s - 1) * ((s * (s - 2)) * t + (a * a - b * b))
        tail = 2 * (k + a - 1) * (k + b - 1) * s
        polys.append((main * polys[-1] - tail * polys[-2]) * (1 / Fraction(lead)))
    return polys[:pmax + 1]


def proportional_scalar(p: MultiPoly, q: MultiPoly) -> Fraction | None:
    """c with p == c*q exactly, if any (q nonzero)."""
    if q.is_zero():
        return None
    e, c = q.leading_term()
    ratio = p.coeff(e) / c
    return ratio if p == q * ratio else None


# ---------------------------------------------------------------------------
# Orthogonality under the squared ground factor
# ---------------------------------------------------------------------------

def _weight_exponents(nu2, nu3) -> tuple[Fraction, Fraction]:
    """(a, b) of the weight (1-tau)^a (1+tau)^b; both must exceed -1."""
    nu2, nu3 = Fraction(nu2), Fraction(nu3)
    if nu2 + nu3 <= Fraction(-1, 2) or nu2 <= Fraction(-1, 2):
        raise DomainError("weight is not integrable for these parameters")
    return nu2 + nu3 - Fraction(1, 2), nu2 - Fraction(1, 2)


def _gram(a: Fraction, b: Fraction, polys: Sequence[MultiPoly]) -> list[list[Fraction]]:
    """Exact normalised Gram matrix <p_i p_j> of `polys` under the weight
    (1-tau)^a (1+tau)^b; for the Jacobi eigenpolynomials a = nu2+nu3-1/2
    and b = nu2-1/2 (squared ground factor times |dx/dtau|).

    With s = (1+tau)/2 the weight is the Beta density s^b (1-s)^a, whose
    normalised moments are <s^k> = (b+1)_k / (a+b+2)_k.  The moments of
    tau = 2s-1 follow by the binomial theorem, and <p_i p_j> is the sum of
    the coefficients of p_i p_j against them.
    """
    pmax = len(polys) - 1
    s_moments = [Fraction(1)]
    for k in range(2 * pmax):
        s_moments.append(s_moments[-1] * (b + 1 + k) / (a + b + 2 + k))
    tau_moments = [sum(comb(k, j) * 2 ** j * (-1) ** (k - j) * s_moments[j]
                       for j in range(k + 1))
                   for k in range(2 * pmax + 1)]

    def inner(p: MultiPoly, q: MultiPoly) -> Fraction:
        return sum((c * tau_moments[e[0]] for e, c in (p * q).terms.items()),
                   ZERO)

    gram = [[ZERO] * (pmax + 1) for _ in range(pmax + 1)]
    for i in range(pmax + 1):
        for j in range(i, pmax + 1):
            gram[i][j] = gram[j][i] = inner(polys[i], polys[j])
    return gram


def orthogonality_check(nu2, nu3, pmax: int):
    """Orthogonality of the one-variable eigenpolynomials p_0..p_pmax under
    the weight of `_gram`, decided exactly from its Beta moments.

    Returns (max |<p_i p_j>| over i != j, min <p_i p_i>, max norm gap), all
    exact Fractions.  The norm gap compares each <p_p^2> with the closed form
    (Szego, Orthogonal Polynomials, eq. (4.3.3), over the Beta mass)

        <P_p^2> = (a+1)_p (b+1)_p / ((2p+a+b+1) p! (a+b+2)_{p-1}),

    which is 1 at p = 0.  Orthogonality holds when the first value is 0 and
    the second positive; the norms are the closed form when the third is 0.
    """
    a, b = _weight_exponents(nu2, nu3)
    if pmax < 1:
        raise DomainError("need pmax >= 1")
    gram = _gram(a, b, _jacobi_polynomials(pmax, a, b))
    max_off = max(abs(gram[i][j]) for i in range(pmax + 1)
                  for j in range(pmax + 1) if i != j)
    min_norm = min(gram[i][i] for i in range(pmax + 1))
    norm, gap = Fraction(1), abs(gram[0][0] - 1)
    for p in range(1, pmax + 1):
        # (a+1)_p (b+1)_p / (p! (a+b+2)_{p-1}), one factor of each per step
        norm *= (a + p) * (b + p) / p
        if p > 1:
            norm /= a + b + p
        gap = max(gap, abs(gram[p][p] - norm / (2 * p + a + b + 1)))
    return max_off, min_norm, gap
