"""Linear differential operators with polynomial coefficients.

An operator is a finite sum  sum_k  C_k(tau) * d^k  over derivative
multi-indices k = (k_1,...,k_d), stored sparsely.  Application, composition
(exact Leibniz expansion), commutators, gauge conjugation by a ground-state
factor, and exact restriction to flag spaces are provided.  The flag
functions read an operator by shift: the term tau^e d^k maps tau^m to
perm(m, k) tau^(m + e - k), so the terms of one shift delta = e - k land on
one monomial, whose f-degree rises by f.delta.  restrict_to_flag builds
each column from one value per shift group; preserves_flag reads only the
raising groups (f.delta > 0) on the top layers they can push out of P_n.
Both take a witness from apply on the first monomial that leaves, so it is
the first term outside the flag in apply's term order.

Rational coefficients serve the gauge identity only: gauge_conjugate builds
them, and addition and equality accept them, so that the conjugated rational
form can be compared with the algebraic one.  A coefficient that divides out
is stored as a polynomial; apply, compose, commutator and the flag functions
take polynomial operators only.  gauge_conjugate sums partial fractions over
the wall factors P_k of F = exp(Q) prod P_k^alpha_k: each wall term
A grad P_k / P_k is divided once (a polynomial on every BC wall), and the
zeroth order gathers one residue per wall over P_k, so the poles land on the
denominator prod P_k that the rational potential already carries.  No common
denominator of grad log F and no square of it is formed.

apply and compose follow the integer-numerator rule of poly: a polynomial
operator's int form is its coefficients' int numerators over their common
denominator, derivatives are taken term by term as
d^k tau^e = perm(e, k) tau^(e-k), and the Leibniz factors are ints, their
(gamma, binom(alpha, gamma)) lists kept once per alpha.  The products of
one operator term are summed before they join the total, so the terms come
in the order the Fraction loops gave them.  An operator is scaled once:
the first of apply, compose, commutator and the flag functions to read it
fills a private slot with its int form, which every later call reads and
none changes (a rational operator has no int form and is refused on each
call).  The flag functions group that int form by shift and make no
Fraction.  compose and commutator share one int accumulation of
Leibniz products; commutator leaves out the plain products (gamma = 0),
which are equal in a.b and b.a, adds those of b.a with the sign of -b, and
builds one operator, with its key and term order unspecified (no report
reads it).

compose, commutator and linear_combination keep their sums in ints: they
divide the numerators and the denominator by one gcd, which is the int form
_scaled would compute, and return an operator that holds both that form and
its coefficients, each an int-backed MultiPoly built from its numerators.
So a chain of products, sums and span solves (the word calculus of algebra)
makes no Fraction.

Everything is a pure function over immutable values; results never depend on
evaluation order.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, perm
from operator import add, sub
from typing import Mapping, Sequence, Union

from .errors import (DimensionMismatch, DomainError, FlagViolation,
                     UnsupportedOrder)
from .poly import (Exponents, FlagSpace, MultiPoly, RationalFn,
                   add_integer_terms, fdegree, from_integer_terms,
                   integer_product)

Coefficient = Union[MultiPoly, RationalFn]
# a polynomial operator as (common denominator, ((k, int numerators of C_k), ...))
ScaledOp = tuple[int, tuple[tuple[Exponents, dict[Exponents, int]], ...]]

ZERO = Fraction(0)


class DiffOp:
    """Immutable differential operator; coefficients MultiPoly or RationalFn.

    `terms` maps each derivative multi-index k to its nonzero coefficient
    C_k.  _int_form holds the int form of a polynomial operator (see
    _scaled): from birth for an operator that compose, commutator or
    linear_combination built, otherwise once _scaled has computed it, and
    None before.  The form takes no part in what == and hash decide.
    """

    __slots__ = ("nvars", "terms", "polynomial", "_int_form")

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
        object.__setattr__(self, "_int_form", None)

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
    total: dict[Exponents, int] = {}
    for k, cnum in coefficients:
        q = _derivative_terms(p.nums, k)
        if q:
            add_integer_terms(total, integer_product(cnum, q))
    return from_integer_terms(op.nvars, den * p.den, total)


def _scaled(op: DiffOp, caller: str) -> ScaledOp:
    """The int form of a polynomial operator: the lcm den of its coefficient
    denominators and, per term C_k d^k, the int numerators of C_k over den.

    An operator that compose, commutator or linear_combination built holds
    it from birth; for any other, the first call computes it and keeps it
    in the operator's _int_form slot.  Later calls return that same object,
    so callers only read it.  A rational operator is never given one: each
    call refuses it with DomainError, which names the caller.
    """
    form = op._int_form
    if form is None:
        if not op.polynomial:
            raise DomainError(f"{caller} needs polynomial coefficients; rational "
                              "ones serve gauge_conjugate only")
        den = lcm(*(c.den for c in op.terms.values()))
        form = den, tuple((k, c.nums if c.den == den else
                           {e: v * (den // c.den) for e, v in c.nums.items()})
                          for k, c in op.terms.items())
        object.__setattr__(op, "_int_form", form)
    return form


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


@lru_cache(maxsize=256)
def _leibniz(alpha: Exponents) -> tuple[tuple[Exponents, Exponents, int], ...]:
    """(gamma, alpha - gamma, C(alpha, gamma)) for each 0 < gamma <= alpha,
    in the order of _sub_indices."""
    return tuple((gamma, tuple(map(sub, alpha, gamma)), _multi_binom(alpha, gamma))
                 for gamma in _sub_indices(alpha) if any(gamma))


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
    acc: dict[Exponents, dict[Exponents, int]] = {}
    _add_products(acc, anums, bnums, plain=True)
    return _from_numerators(a.nvars, da * db, acc)


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a.b - b.a, exact.

    The plain Leibniz products, a_alpha b_beta d^(alpha+beta) in a.b and
    b_beta a_alpha d^(beta+alpha) in b.a, are equal, since the coefficients
    commute, so neither is formed.  The others are summed in ints over the
    shared denominator da*db, those of b.a from the negated coefficients of
    b, and one operator is built.  The order of its keys and of the terms
    of a coefficient is unspecified.  Both operators must be polynomial
    (DomainError otherwise).
    """
    a._check(b)
    (da, anums), (db, bnums) = _scaled(a, "commutator"), _scaled(b, "commutator")
    acc: dict[Exponents, dict[Exponents, int]] = {}
    _add_products(acc, anums, bnums, plain=False)
    negated = [(k, {e: -v for e, v in nums.items()}) for k, nums in bnums]
    _add_products(acc, negated, anums, plain=False)
    return _from_numerators(a.nvars, da * db, acc)


def _add_products(acc: dict[Exponents, dict[Exponents, int]], anums: list,
                  bnums: list, plain: bool) -> None:
    """Add the int numerators of a.b, by derivative key over da*db, from
    the scaled coefficients of a and b, to acc: the Leibniz products
    C(alpha, gamma) a_alpha d^gamma(b_beta) d^(alpha-gamma+beta), those
    with gamma = 0 (the plain products) only when `plain`.

    A key whose sum cancels stays in place with no terms, so the operator
    terms keep their first-seen order.
    """
    for alpha, anum in anums:
        subs = _leibniz(alpha)
        for beta, bnum in bnums:
            if plain:            # gamma = 0 comes first
                key = tuple(map(add, alpha, beta))
                add_integer_terms(acc.setdefault(key, {}),
                                  integer_product(anum, bnum.items()))
            for gamma, rest, binom in subs:
                q = _derivative_terms(bnum, gamma)
                if not q:
                    continue
                if binom != 1:
                    q = [(e, v * binom) for e, v in q]
                key = tuple(map(add, rest, beta))
                add_integer_terms(acc.setdefault(key, {}), integer_product(anum, q))


def linear_combination(nvars: int, items: Sequence[tuple[Fraction, DiffOp]]
                       ) -> DiffOp:
    """sum c * op over the (c, op) items, summed in ints over one
    denominator.

    The terms come in the order of adding the c * op one by one with +: a
    key or a term whose running sum cancels is deleted and comes back last
    if a later item reaches it.  The operators must be polynomial
    (DomainError otherwise).
    """
    scaled = [(Fraction(c), _scaled(op, "linear_combination")) for c, op in items]
    den = lcm(*(c.denominator * d for c, (d, _) in scaled if c))
    acc: dict[Exponents, dict[Exponents, int]] = {}
    for c, (d, coefficients) in scaled:
        if not c:
            continue
        factor = c.numerator * (den // (c.denominator * d))
        for k, nums in coefficients:
            total = acc.setdefault(k, {})
            add_integer_terms(total, {e: v * factor for e, v in nums.items()}
                              if factor != 1 else nums)
            if not total:
                del acc[k]
    return _from_numerators(nvars, den, acc)


def _from_numerators(nvars: int, den: int,
                     acc: dict[Exponents, dict[Exponents, int]]) -> DiffOp:
    """The operator of the int numerators acc (by derivative key, over den),
    born with its int form: numerators and den divided by their gcd, which
    leaves den the lcm of the reduced coefficient denominators, as _scaled
    computes it.  Each coefficient is built from its numerators by
    from_integer_terms.  A key with no terms left is dropped."""
    coefficients = [(k, nums) for k, nums in acc.items() if nums]
    g = gcd(den, *(v for _, nums in coefficients for v in nums.values()))
    if g > 1:
        den //= g
        coefficients = [(k, {e: v // g for e, v in nums.items()})
                        for k, nums in coefficients]
    op = object.__new__(DiffOp)
    object.__setattr__(op, "nvars", nvars)
    object.__setattr__(op, "terms", {k: from_integer_terms(nvars, den, nums)
                                     for k, nums in coefficients})
    object.__setattr__(op, "polynomial", True)
    object.__setattr__(op, "_int_form", (den, tuple(coefficients)))
    return op


class GaugeFactor:
    """Product of polynomial powers times exp of a polynomial.

    F = prod_k P_k^{alpha_k} * exp(Q).  Only the logarithmic derivative is
    ever needed in exact arithmetic:  G_i = sum_k alpha_k dP_k/P_k + dQ/d tau_i,
    which gauge_conjugate reads wall by wall.
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

    def __repr__(self):
        parts = [f"({b.as_string()})^({e})" for b, e in self.factors]
        if not self.exp_arg.is_zero():
            parts.append(f"exp({self.exp_arg.as_string()})")
        return "GaugeFactor(" + " * ".join(parts or ["1"]) + ")"


def gauge_conjugate(op: DiffOp, factor: GaugeFactor) -> DiffOp:
    """F^-1 op F for an order <= 2 operator, by partial fractions over the
    wall factors of F.

    Write op = sum A_ij d_i d_j + sum B_i d_i + C with symmetric A, and
    F = exp(Q) prod_k P_k^alpha_k.  Then grad log F = grad Q + sum_k
    alpha_k grad P_k / P_k, and with the wall terms w_k = A grad P_k / P_k
    and W = sum_k alpha_k w_k:

        second order   A, unchanged;
        first order    B + 2 A grad Q + 2 W;
        zeroth order   C + A:hess Q + grad Q.A.grad Q + (B + 2 W).grad Q
                       + sum_l alpha_l [A:hess P_l + (B + W - w_l).grad P_l] / P_l.

    w_k is a polynomial when P_k divides A grad P_k, as every wall of the
    BC family does, and a rational function otherwise; the same sums serve
    both.  The last sum is a sum of RationalFn over the P_l, so it lands on
    the denominator prod P_l that a potential summed over the same walls
    carries, and C adds to it numerator to numerator.  Denominator-free
    coefficients are stored as polynomials.
    """
    if op.order() > 2:
        raise UnsupportedOrder("gauge conjugation implemented for order <= 2 only")
    if factor.nvars != op.nvars:
        raise DimensionMismatch("gauge factor variable count mismatch")
    n = op.nvars
    if not factor.factors and factor.exp_arg.is_zero():
        return op

    # Symmetric second-order matrix from the stored multi-indices.
    zero = MultiPoly.zero(n)
    A = [[zero] * n for _ in range(n)]
    B = [zero] * n
    C: Coefficient = zero
    terms: dict[Exponents, Coefficient] = {}
    for k, c in op.terms.items():
        total = sum(k)
        if total and not isinstance(c, MultiPoly):
            raise DomainError("first- and second-order coefficients must be polynomial")
        if total == 2:
            terms[k] = c
            i, j = [i for i, p in enumerate(k) for _ in range(p)]
            A[i][j] = A[j][i] = c if i == j else c * Fraction(1, 2)
        elif total == 1:
            B[k.index(1)] = c
        else:
            C = c
    pairs = [(i, j) for i in range(n) for j in range(n) if not A[i][j].is_zero()]

    def dot(u: Sequence[Coefficient], v: Sequence[MultiPoly]) -> Coefficient:
        return sum((a * b for a, b in zip(u, v) if not (a.is_zero() or b.is_zero())),
                   zero)

    def contract_hessian(p: MultiPoly) -> MultiPoly:
        """A : hess p."""
        return sum((A[i][j] * p.diff(i).diff(j) for i, j in pairs), zero)

    walls = []
    for base, alpha in factor.factors:
        grad = [base.diff(i) for i in range(n)]
        w = []   # A grad P / P, a polynomial where P divides it
        for row in A:
            num = dot(row, grad)
            q = num.exact_div(base)
            w.append(q if q is not None else RationalFn(num, base))
        walls.append((base, alpha, grad, w))
    W = [sum((alpha * w[i] for _, alpha, _, w in walls), zero) for i in range(n)]
    grad_q = [factor.exp_arg.diff(i) for i in range(n)]
    a_grad_q = [dot(row, grad_q) for row in A]
    drift = [b + 2 * x for b, x in zip(B, W)]

    for i in range(n):
        k = [0] * n
        k[i] = 1
        terms[tuple(k)] = drift[i] + 2 * a_grad_q[i]

    poles: Coefficient = zero
    for base, alpha, grad, w in walls:
        pull = [b + x - y for b, x, y in zip(B, W, w)]   # B + W - w_l
        residue = (contract_hessian(base) + dot(pull, grad)) * alpha
        poles = poles + residue * RationalFn(MultiPoly.const(n, 1), base)
    terms[(0,) * n] = (C + poles + contract_hessian(factor.exp_arg)
                       + dot(a_grad_q, grad_q) + dot(drift, grad_q))
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

    Column j holds, for each shift group with a nonzero value on
    m = basis[j] (see _shift_groups), that value at the basis index of
    tau^(m + delta), over the operator's denominator; no Fraction is made.
    The witness is the first basis monomial whose image leaves the space
    and the first term of that image outside it (_first_outside).  A rational
    operator is refused with DomainError, as apply refuses it.
    """
    den, derivatives, groups = _shift_groups(op, space, "restrict_to_flag")
    index = space.index
    columns = []
    for mono in space.basis:
        factors = _falling_factors(mono, derivatives)
        column = {}
        for shift, terms in groups:
            v = 0
            for i, c in terms:
                v += c * factors[i]
            if v:
                pos = index.get(tuple(map(add, mono, shift)))
                if pos is None:
                    e = _first_outside(op, space, mono)
                    raise FlagViolation(
                        f"operator maps {mono} to a term outside the flag: {e}",
                        mono, e)
                column[pos] = v
        columns.append(column)
    return ExactMatrix(space, den, columns)


def preserves_flag(op: DiffOp, space: FlagSpace):
    """True iff op(m) stays in the space for every basis monomial.

    Returns (True, None) or (False, (input_monomial, offending_monomial)),
    the witness of the FlagViolation restrict_to_flag raises.  A shift
    group moves tau^m to f-degree f.m + f.delta, so only the raising groups
    (f.delta > 0) can leave P_n, and only from the basis monomials with
    f.m > n - max f.delta; those alone are read.  An operator with no
    raising group is decided without imaging a monomial.
    """
    _, derivatives, groups = _shift_groups(op, space, "preserves_flag")
    f, n = space.f, space.n
    raising = []
    for shift, terms in groups:
        rise = fdegree(shift, f)
        if rise > 0:
            raising.append((rise, terms))
    if not raising:
        return True, None
    low = n - max(rise for rise, _ in raising)
    basis = space.basis
    for mono in basis[bisect_right(basis, low, key=lambda e: fdegree(e, f)):]:
        top = n - fdegree(mono, f)
        factors = _falling_factors(mono, derivatives)
        for rise, terms in raising:
            if rise > top:
                v = 0
                for i, c in terms:
                    v += c * factors[i]
                if v:
                    return False, (mono, _first_outside(op, space, mono))
    return True, None


def _shift_groups(op: DiffOp, space: FlagSpace, caller: str):
    """(den, derivatives, groups): the operator's int form, from _scaled,
    grouped by shift.

    The int term c tau^e d^k maps tau^m to c perm(m, k) tau^(m + delta),
    delta = e - k, so all the terms of one shift land on one monomial.
    derivatives lists each k as its (variable, order) pairs with a nonzero
    order; each group is (delta, [(index of k in derivatives, c), ...]),
    groups and terms in first-seen order.
    """
    if op.nvars != space.d:
        raise DimensionMismatch("operator/flag variable counts differ")
    den, coefficients = _scaled(op, caller)
    derivatives = [[(i, times) for i, times in enumerate(k) if times]
                   for k, _ in coefficients]
    groups: dict[Exponents, list[tuple[int, int]]] = {}
    for j, (k, cnum) in enumerate(coefficients):
        for e, c in cnum.items():
            groups.setdefault(tuple(map(sub, e, k)), []).append((j, c))
    return den, derivatives, list(groups.items())


def _falling_factors(mono: Exponents, derivatives: list) -> list[int]:
    """perm(m, k), the int with d^k tau^m = perm(m, k) tau^(m-k), for each
    k of _shift_groups; perm(p, t) is 0 for t > p."""
    factors = []
    for orders in derivatives:
        factor = 1
        for i, times in orders:
            factor *= perm(mono[i], times)
        factors.append(factor)
    return factors


def _first_outside(op: DiffOp, space: FlagSpace, mono: Exponents) -> Exponents:
    """The first term of apply(op, tau^mono), in its term order, outside
    the space."""
    image = apply(op, MultiPoly.monomial(space.d, mono))
    return next(e for e in image.nums if e not in space.index)
