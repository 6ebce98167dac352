"""Linear differential operators with polynomial coefficients.

An operator is a finite sum  sum_k  C_k(tau) * d^k  over derivative
multi-indices k = (k_1,...,k_d), stored sparsely.  Application, composition
(exact Leibniz expansion), commutators, gauge conjugation by a ground-state
factor, and exact restriction to flag spaces are provided.  One loop images
each flag monomial: restriction keeps the images as the sparse int columns
of its matrix, and the flag-preservation test reads the same images for its
witness.

Rational coefficients serve the gauge identity only: gauge_conjugate builds
them, and addition and equality accept them, so that the conjugated rational
form can be compared with the algebraic one.  A coefficient that divides out
is stored as a polynomial; apply, compose, commutator and the flag functions
take polynomial operators only.

apply and compose follow the integer-numerator rule of poly: coefficients are
scaled once to integer numerators over the operator's common denominator,
derivatives are taken term by term as d^k tau^e = perm(e, k) tau^(e-k), the
Leibniz factors are ints, and each output term is reduced to a Fraction once.
The products of one operator term are summed before they join the total, so
the terms come in the order the Fraction loops gave them.  apply scales the
operator on each call; the flag loop scales it once and gives each basis
monomial's image as int numerators, which restrict_to_flag keys by basis
index and preserves_flag reads; neither makes a Fraction.  compose and
commutator share one int accumulation; commutator subtracts the b.a
numerators from the a.b ones and builds one operator.

Everything is a pure function over immutable values; results never depend on
evaluation order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, perm
from operator import add, sub
from typing import Mapping, Sequence, Union

from .errors import (DimensionMismatch, DomainError, FlagViolation,
                     UnsupportedOrder)
from .poly import (Exponents, FlagSpace, MultiPoly, RationalFn,
                   add_integer_terms, from_integer_terms, integer_product,
                   integer_terms)

Coefficient = Union[MultiPoly, RationalFn]
# a polynomial operator as (common denominator, [(k, int numerators of C_k)])
ScaledOp = tuple[int, list[tuple[Exponents, dict[Exponents, int]]]]

ZERO = Fraction(0)


class DiffOp:
    """Immutable differential operator; coefficients MultiPoly or RationalFn."""

    __slots__ = ("nvars", "terms", "polynomial")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Coefficient] | None = None):
        clean: dict[Exponents, Coefficient] = {}
        polynomial = True
        if terms:
            for k, c in terms.items():
                key = tuple(k)
                if len(key) != nvars or any(p < 0 for p in key):
                    raise DomainError(f"bad derivative multi-index {key}")
                if isinstance(c, (int, Fraction)):
                    c = MultiPoly.const(nvars, c)
                if c.nvars != nvars:
                    raise DimensionMismatch("coefficient variable count mismatch")
                if isinstance(c, RationalFn):
                    poly = c.as_poly()
                    if poly is None:
                        polynomial = False   # a zero would have divided out
                    else:
                        c = poly
                if not c.is_zero():
                    clean[key] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "polynomial", polynomial)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "DiffOp":
        return cls(nvars)

    @classmethod
    def identity(cls, nvars: int) -> "DiffOp":
        return cls(nvars, {(0,) * nvars: MultiPoly.const(nvars, 1)})

    @classmethod
    def partial(cls, nvars: int, i: int, times: int = 1) -> "DiffOp":
        k = [0] * nvars
        k[i] = times
        return cls(nvars, {tuple(k): MultiPoly.const(nvars, 1)})

    @classmethod
    def mul_by(cls, p: MultiPoly) -> "DiffOp":
        return cls(p.nvars, {(0,) * p.nvars: p})

    @classmethod
    def euler(cls, nvars: int, weights: Sequence[int], shift: Fraction = ZERO) -> "DiffOp":
        """sum_i w_i tau_i d_i - shift."""
        terms: dict[Exponents, Coefficient] = {}
        for i, w in enumerate(weights):
            k = [0] * nvars
            k[i] = 1
            terms[tuple(k)] = MultiPoly.variable(nvars, i) * w
        op = cls(nvars, terms)
        if shift:
            op = op - cls.identity(nvars) * shift
        return op

    # -- linear structure ----------------------------------------------------

    def _check(self, other: "DiffOp") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch("operator variable counts differ")

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        res: dict[Exponents, Coefficient] = dict(self.terms)
        for k, c in other.terms.items():
            res[k] = res[k] + c if k in res else c
        return DiffOp(self.nvars, res)

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __mul__(self, scalar) -> "DiffOp":
        scalar = Fraction(scalar)
        return DiffOp(self.nvars, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def order(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, k: Exponents) -> Coefficient:
        key = tuple(k)
        return self.terms.get(key, MultiPoly.zero(self.nvars))

    def constant_part(self) -> Coefficient:
        return self.coefficient((0,) * self.nvars)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms)))

    def __repr__(self):
        if not self.terms:
            return "DiffOp(0)"
        parts = []
        for k in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[k]
            body = c.as_string() if isinstance(c, MultiPoly) else repr(c)
            ds = "*".join(f"d{i + 1}^{p}" if p > 1 else f"d{i + 1}"
                          for i, p in enumerate(k) if p)
            parts.append(f"({body})" + (f"*{ds}" if ds else ""))
        return "DiffOp(" + " + ".join(parts) + ")"

    def as_string(self) -> str:
        return repr(self)[7:-1]


def apply(op: DiffOp, p: MultiPoly) -> MultiPoly:
    """Exact image op(p) of a polynomial under a polynomial operator.

    Rational coefficients exist for the gauge identity only, so an operator
    with one is refused with DomainError.
    """
    den, coefficients = _scaled(op, "apply")
    if op.nvars != p.nvars:
        raise DimensionMismatch("operator/polynomial variable counts differ")
    # each operator term is summed on its own and then added, so the terms
    # come in the order of adding the products c_k * d^k p one by one
    dp, pnum = integer_terms(p.terms)
    total: dict[Exponents, int] = {}
    for k, cnum in coefficients:
        q = _derivative_terms(pnum, k)
        if q:
            add_integer_terms(total, integer_product(cnum, q))
    return from_integer_terms(op.nvars, den * dp, total)


def _scaled(op: DiffOp, caller: str) -> ScaledOp:
    """The scaled form of a polynomial operator; a rational one is refused
    with DomainError, which names the caller."""
    if not op.polynomial:
        raise DomainError(f"{caller} needs polynomial coefficients; rational "
                          "ones serve gauge_conjugate only")
    den = lcm(*(c.denominator for coeff in op.terms.values()
                for c in coeff.terms.values()))
    return den, [(k, integer_terms(c.terms, den)[1]) for k, c in op.terms.items()]


def _derivative_terms(numerators: dict[Exponents, int], k: Exponents
                      ) -> list[tuple[Exponents, int]]:
    """Integer terms of d^k of a polynomial, in order:
    d^k tau^e = perm(e, k) tau^(e-k), one variable at a time."""
    out = []
    for e, v in numerators.items():
        for p, times in zip(e, k):
            if p < times:
                break
            if times:
                v *= perm(p, times)
        else:
            out.append((tuple(map(sub, e, k)), v))
    return out


def _multi_binom(alpha: Exponents, gamma: Exponents) -> int:
    b = 1
    for a, g in zip(alpha, gamma):
        b *= comb(a, g)
    return b


def _sub_indices(alpha: Exponents):
    """All gamma with 0 <= gamma <= alpha componentwise."""
    if not alpha:
        yield ()
        return
    head, rest = alpha[0], alpha[1:]
    for tail in _sub_indices(rest):
        for g in range(head + 1):
            yield (g,) + tail


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """Operator product a.b with exact Leibniz expansion.

    For every polynomial p: apply(compose(a, b), p) == apply(a, apply(b, p)).
    Both operators must be polynomial (DomainError otherwise).
    """
    a._check(b)
    (da, anums), (db, bnums) = _scaled(a, "compose"), _scaled(b, "compose")
    return _from_numerators(a.nvars, da * db, _product_numerators(anums, bnums))


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a.b - b.a, exact.

    Both products are summed in ints over the shared denominator da*db, and
    the b.a numerators are subtracted from the a.b ones, so one operator is
    built.  Keys and terms come in the order of compose(a, b) - compose(b, a):
    the keys of a.b first, then the keys only b.a has; within a coefficient a
    term that cancels is deleted and a new one is appended.  Both operators
    must be polynomial (DomainError otherwise).
    """
    a._check(b)
    (da, anums), (db, bnums) = _scaled(a, "commutator"), _scaled(b, "commutator")
    total = _product_numerators(anums, bnums)
    for key, nums in _product_numerators(bnums, anums).items():
        if nums:
            if not total.get(key):
                # a key that a.b lacks, or whose sum cancelled there, comes last
                total.pop(key, None)
            add_integer_terms(total.setdefault(key, {}),
                              {e: -v for e, v in nums.items()})
    return _from_numerators(a.nvars, da * db, total)


def _product_numerators(anums: list, bnums: list
                        ) -> dict[Exponents, dict[Exponents, int]]:
    """Integer numerators of a.b by derivative key, over da*db, from the
    scaled coefficients of a and b.

    A key whose sum cancels stays in place with no terms, so the operator
    terms keep their first-seen order.
    """
    acc: dict[Exponents, dict[Exponents, int]] = {}
    for alpha, anum in anums:
        subs = [(gamma, _multi_binom(alpha, gamma)) for gamma in _sub_indices(alpha)]
        for beta, bnum in bnums:
            for gamma, binom in subs:
                q = _derivative_terms(bnum, gamma)
                if not q:
                    continue
                if binom != 1:
                    q = [(e, v * binom) for e, v in q]
                key = tuple(x - g + y for x, g, y in zip(alpha, gamma, beta))
                add_integer_terms(acc.setdefault(key, {}), integer_product(anum, q))
    return acc


def _from_numerators(nvars: int, den: int,
                     acc: dict[Exponents, dict[Exponents, int]]) -> DiffOp:
    return DiffOp(nvars, {key: from_integer_terms(nvars, den, nums)
                          for key, nums in acc.items() if nums})


class GaugeFactor:
    """Product of polynomial powers times exp of a polynomial.

    F = prod_k P_k^{alpha_k} * exp(Q).  Only the logarithmic derivative is
    ever needed in exact arithmetic:  G_i = sum_k alpha_k dP_k/P_k + dQ/d tau_i.
    """

    __slots__ = ("nvars", "factors", "exp_arg")

    def __init__(self, nvars: int,
                 factors: Sequence[tuple[MultiPoly, Fraction]] = (),
                 exp_arg: MultiPoly | None = None):
        facs = []
        for base, expo in factors:
            if base.nvars != nvars:
                raise DimensionMismatch("factor base variable count mismatch")
            if base.is_zero():
                raise DomainError("gauge factor base is identically zero")
            expo = Fraction(expo)
            if expo:
                facs.append((base, expo))
        if exp_arg is None:
            exp_arg = MultiPoly.zero(nvars)
        if exp_arg.nvars != nvars:
            raise DimensionMismatch("exponential argument variable count mismatch")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "factors", tuple(facs))
        object.__setattr__(self, "exp_arg", exp_arg)

    def __setattr__(self, name, value):
        raise AttributeError("GaugeFactor is immutable")

    def inverse(self) -> "GaugeFactor":
        return GaugeFactor(self.nvars,
                           [(b, -e) for b, e in self.factors],
                           -self.exp_arg)

    def common_denominator(self) -> MultiPoly:
        d = MultiPoly.const(self.nvars, 1)
        for base, _ in self.factors:
            d = d * base
        return d

    def log_gradient_over_common(self) -> tuple[list[MultiPoly], MultiPoly]:
        """Numerators N_i and shared denominator D with G_i = N_i / D."""
        d = self.common_denominator()
        nums = []
        for i in range(self.nvars):
            n = MultiPoly.zero(self.nvars)
            for base, expo in self.factors:
                other = d.exact_div(base)
                n = n + expo * base.diff(i) * other
            n = n + self.exp_arg.diff(i) * d
            nums.append(n)
        return nums, d

    def __repr__(self):
        parts = [f"({b.as_string()})^({e})" for b, e in self.factors]
        if not self.exp_arg.is_zero():
            parts.append(f"exp({self.exp_arg.as_string()})")
        return "GaugeFactor(" + " * ".join(parts or ["1"]) + ")"


def gauge_conjugate(op: DiffOp, factor: GaugeFactor) -> DiffOp:
    """F^-1 op F for an order <= 2 operator, by the closed conjugation rule.

    Writing op = sum A_ij d_i d_j + sum B_i d_i + C with symmetric A and
    G = grad log F:  the second-order part is unchanged, the first-order part
    becomes B_i + 2 sum_j A_ij G_j and the zeroth part
    C + sum A_ij (d_i G_j + G_i G_j) + sum B_i G_i.  Denominator-free results
    are downgraded to polynomial coefficients.
    """
    if op.order() > 2:
        raise UnsupportedOrder("gauge conjugation implemented for order <= 2 only")
    if factor.nvars != op.nvars:
        raise DimensionMismatch("gauge factor variable count mismatch")
    n = op.nvars
    if not factor.factors and factor.exp_arg.is_zero():
        return op

    # Symmetric second-order matrix from the stored multi-indices.
    A = [[MultiPoly.zero(n) for _ in range(n)] for _ in range(n)]
    B = [MultiPoly.zero(n) for _ in range(n)]
    C: Coefficient = MultiPoly.zero(n)
    second: dict[Exponents, Coefficient] = {}
    for k, c in op.terms.items():
        total = sum(k)
        if total and not isinstance(c, MultiPoly):
            raise DomainError("first- and second-order coefficients must be polynomial")
        if total == 2:
            second[k] = c
            idx = [i for i, p in enumerate(k) for _ in range(p)]
            i, j = idx[0], idx[1]
            if i == j:
                A[i][i] = A[i][i] + c
            else:
                half = c * Fraction(1, 2)
                A[i][j] = A[i][j] + half
                A[j][i] = A[j][i] + half
        elif total == 1:
            i = k.index(1)
            B[i] = B[i] + c
        else:
            C = c

    nums, den = factor.log_gradient_over_common()
    den2 = den * den

    # First order: B_i + 2 sum_j A_ij N_j / D, assembled over denominator D.
    first_terms: dict[Exponents, Coefficient] = {}
    for i in range(n):
        num = B[i] * den
        for j in range(n):
            if not A[i][j].is_zero() and not nums[j].is_zero():
                num = num + 2 * A[i][j] * nums[j]
        if num.is_zero():
            continue
        k = [0] * n
        k[i] = 1
        first_terms[tuple(k)] = RationalFn(num, den)

    # Zeroth order over D^2:
    #   C D^2 + sum A_ij [(dN_j D - N_j dD) + N_i N_j] + sum B_i N_i D
    zero_num = MultiPoly.zero(n)
    for i in range(n):
        for j in range(n):
            if A[i][j].is_zero():
                continue
            dg = nums[j].diff(i) * den - nums[j] * den.diff(i)
            zero_num = zero_num + A[i][j] * (dg + nums[i] * nums[j])
        if not B[i].is_zero() and not nums[i].is_zero():
            zero_num = zero_num + B[i] * nums[i] * den
    czero = C + RationalFn(zero_num, den2)

    terms: dict[Exponents, Coefficient] = dict(second)
    terms.update(first_terms)
    if not czero.is_zero():
        terms[(0,) * n] = czero
    return DiffOp(n, terms)


class ExactMatrix:
    """Restriction of an operator to a flag basis, as sparse int columns.

    columns[j] holds the image op(basis[j]) as {basis index i: int numerator}
    over the common denominator `den`, so the column-action matrix is
    M[i][j] = columns[j][i] / den.  A flag-preserving operator's matrix is
    block lower triangular in the graded order: an image can only reach
    monomials of equal or lower f-degree.  Every reader takes the columns
    as they are; no dense form is built.
    """

    __slots__ = ("space", "den", "columns")

    def __init__(self, space: FlagSpace, den: int, columns: list[dict[int, int]]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @property
    def dim(self) -> int:
        return len(self.columns)

    def diagonal(self) -> list[Fraction]:
        return [Fraction(col.get(i, 0), self.den) for i, col in enumerate(self.columns)]

    def trace(self) -> Fraction:
        return sum(self.diagonal(), ZERO)


def restrict_to_flag(op: DiffOp, space: FlagSpace) -> ExactMatrix:
    """Exact matrix of op on the flag basis; FlagViolation with witness if
    the image of any basis monomial leaves the space.

    The columns are the int images of _flag_images, keyed by basis index,
    over the operator's denominator; no Fraction is made.  A rational
    operator is refused with DomainError, as apply refuses it.
    """
    den, images = _flag_images(op, space, "restrict_to_flag")
    index = space.index
    columns = []
    for mono, image in images:
        column = {}
        for e, v in image.items():
            pos = index.get(e)
            if pos is None:
                raise FlagViolation(
                    f"operator maps {mono} to a term outside the flag: {e}",
                    mono, e)
            column[pos] = v
        columns.append(column)
    return ExactMatrix(space, den, columns)


def preserves_flag(op: DiffOp, space: FlagSpace):
    """True iff op(m) stays in the space for every basis monomial.

    Returns (True, None) or (False, (input_monomial, offending_monomial)),
    the witness of the FlagViolation restrict_to_flag raises.  It reads the
    same int images and builds no Fraction and no row.
    """
    _, images = _flag_images(op, space, "preserves_flag")
    index = space.index
    for mono, image in images:
        for e in image:
            if e not in index:
                return False, (mono, e)
    return True, None


def _flag_images(op: DiffOp, space: FlagSpace, caller: str):
    """(den, images): the operator's common denominator and an iterator of
    (m, int numerators of op(m) over den) for each basis monomial m, in
    basis order.

    The operator is scaled to int numerators once.  Each term C_k d^k adds
    C_k times one int at one shift, by d^k tau^m = perm(m, k) tau^(m-k), and
    a key whose running sum cancels is deleted, so an image lists its terms
    as apply(op, tau^m) does.
    """
    if op.nvars != space.d:
        raise DimensionMismatch("operator/flag variable counts differ")
    den, coefficients = _scaled(op, caller)

    def images():
        for mono in space.basis:
            image: dict[Exponents, int] = {}
            get = image.get
            for k, cnum in coefficients:
                factor = 1
                for p, times in zip(mono, k):
                    if p < times:
                        break
                    if times:
                        factor *= perm(p, times)
                else:
                    shift = tuple(map(sub, mono, k))
                    for e, c in cnum.items():
                        key = tuple(map(add, e, shift))
                        s = get(key, 0) + c * factor
                        if s:
                            image[key] = s
                        else:
                            del image[key]
            yield mono, image

    return den, images()
