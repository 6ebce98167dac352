"""Exact sparse multivariate polynomials, rational functions and flag bases.

A polynomial in d orbit variables tau_1..tau_d is a sparse map from exponent
tuples to nonzero Fractions:

    tau1^2*tau2 + 3  ->  {(2, 1): Fraction(1), (0, 0): Fraction(3)}

All arithmetic is exact.  The one exception is `MultiPoly.evaluate` at a
numeric point, which imports mpmath locally and converts each coefficient
once, from its integer numerator and denominator, at the working precision;
nothing here ever touches binary floating point.  Scalars
are `fractions.Fraction` throughout (arbitrary precision, canonical
coprime/positive-denominator form is maintained by the stdlib).

Integer-numerator rule: a hot kernel (the polynomial product and exact
division here, operator apply and compose in diffop) does its inner loop on
Python ints.  Each operand is scaled to integer numerators over one denominator
(`integer_terms`), products are accumulated as ints (`integer_product`,
`add_integer_terms`), and each output term is reduced to a Fraction exactly
once (`from_integer_terms`).  Accumulation deletes a key whose sum cancels
to zero, as the Fraction loop it replaced did, so the result keeps that
loop's term order as well as its values.

Monomial order: graded by f-degree for a characteristic vector f, ties broken
lexicographically on exponent tuples.  Plain polynomial arithmetic uses the
(1,...,1) grading.  This order makes flag-preserving operators block
triangular by construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DimensionMismatch, DomainError

Exponents = tuple[int, ...]
CharVector = tuple[int, ...]
Scalar = Union[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def qq(num: Union[int, str, Fraction], den: int | None = None) -> Fraction:
    """Exact rational from an int, a Fraction, or a "p/q" string."""
    if den is not None:
        return Fraction(num, den)
    if isinstance(num, str):
        return Fraction(num.strip())
    return Fraction(num)


def fdegree(exps: Exponents, f: CharVector | None = None) -> int:
    """f-weighted degree sum(f_i * p_i); total degree when f is None."""
    if f is None:
        return sum(exps)
    return sum(w * p for w, p in zip(f, exps))


def validate_char_vector(f: Sequence[int]) -> CharVector:
    vec = tuple(int(x) for x in f)
    if not vec or any(x < 1 for x in vec):
        raise DomainError(f"characteristic vector must have positive grades: {f}")
    return vec


def _monomial_at(point: Sequence, exps: Exponents):
    """prod x_i^p_i over the nonzero p_i, multiplied in variable order from
    the int 1."""
    val = 1
    for x, p in zip(point, exps):
        if p:
            val = val * x ** p
    return val


def _grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Scalar] | None = None):
        coeffs: dict[Exponents, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                if c:
                    e = tuple(exps)
                    if len(e) != nvars or any(p < 0 for p in e):
                        raise DomainError(f"bad exponent tuple {e} for {nvars} variables")
                    coeffs[e] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): ONE})

    @classmethod
    def monomial(cls, nvars: int, exps: Exponents, c: Scalar = 1) -> "MultiPoly":
        return cls(nvars, {tuple(exps): Fraction(c)})

    # -- ring operations -------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"variable count mismatch: {self.nvars} vs {other.nvars}")

    # An operand that is neither a scalar nor a MultiPoly gets NotImplemented,
    # so Python hands poly + ratfn, poly - ratfn and poly * ratfn to
    # RationalFn, the one place that knows how the two types mix.

    def __add__(self, other):
        if type(other) is not MultiPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(self.nvars, other)
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, ZERO) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return _raw(self.nvars, res)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not MultiPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = Fraction(other)
            if not c:
                return MultiPoly.zero(self.nvars)
            return _raw(self.nvars, {e: k * c for e, k in self.terms.items()})
        self._check(other)
        d1, n1 = integer_terms(self.terms)
        d2, n2 = integer_terms(other.terms)
        return from_integer_terms(self.nvars, d1 * d2,
                                  integer_product(n1, n2.items()))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative polynomial power")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def diff(self, i: int, times: int = 1) -> "MultiPoly":
        """Exact partial derivative d^times / d tau_i^times."""
        p = self
        for _ in range(times):
            res: dict[Exponents, Fraction] = {}
            for e, c in p.terms.items():
                if e[i]:
                    shifted = list(e)
                    shifted[i] -= 1
                    res[tuple(shifted)] = c * e[i]
            p = _raw(p.nvars, res)
        return p

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise DomainError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, ZERO)

    def coeff(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), ZERO)

    def leading_term(self) -> tuple[Exponents, Fraction]:
        """Leading term under graded lexicographic order."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def content(self) -> Fraction:
        """Signed content: gcd of coefficients, sign of the leading term."""
        if not self.terms:
            return ZERO
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        cont = Fraction(num, den)
        _, lead = self.leading_term()
        return cont if lead > 0 else -cont

    def evaluate(self, point: Sequence) -> object:
        """Evaluate at a point; an exact Fraction when every coordinate is an
        int or a Fraction, numeric otherwise.

        At a numeric point (any mpf/mpc coordinate) each coefficient c is
        converted once, as mpf(c.numerator) / c.denominator at the working
        precision, so it never passes through a binary float, and the value
        is the plain sum of converted coefficient times monomial, in term
        order, from exact 0.  `cartesian.SharedMonomials` sums the same way.
        """
        if len(point) != self.nvars:
            raise DimensionMismatch("point has wrong dimension")
        if all(isinstance(x, (int, Fraction)) for x in point):
            return sum((c * _monomial_at(point, e) for e, c in self.terms.items()),
                       ZERO)
        from mpmath import mpf
        return sum((mpf(c.numerator) / c.denominator * _monomial_at(point, e)
                    for e, c in self.terms.items()), 0)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Quotient self/divisor when the division is exact, else None.

        Leading-term division in grlex order, on int numerators: the
        remainder is kept as ints over one denominator and the divisor as
        its primitive int form with leading coefficient lc.  Each step
        subtracts a shifted multiple of the divisor's ints in place and
        makes one Fraction, the quotient term.  Grlex is a monomial order,
        so the leading term falls at every step.  If self is divisible, the
        int remainder is S * prim at every step for a polynomial S, which
        has int coefficients because prim is primitive (Gauss's lemma), so
        lc divides each leading numerator.  A leading numerator that lc does
        not divide, like a leading exponent that the divisor's does not
        divide, proves that self is not divisible and gives None.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise DomainError("division by the zero polynomial")
        if self.is_zero():
            return MultiPoly.zero(self.nvars)
        dden, dnum = integer_terms(divisor.terms)
        content = gcd(*dnum.values())
        prim = [(e, v // content) for e, v in dnum.items()]
        de, lc = max(prim, key=lambda term: _grlex_key(term[0]))
        # self / divisor = (rem / rden) * dden / (content * prim)
        rden, rem = integer_terms(self.terms)
        qden = rden * content
        quotient: dict[Exponents, Fraction] = {}
        get = rem.get
        while rem:
            re = max(rem, key=_grlex_key)
            qe = tuple(map(sub, re, de))
            m, r = divmod(rem[re], lc)
            if r or min(qe) < 0:
                return None
            quotient[qe] = Fraction(m * dden, qden)
            for e, v in prim:
                key = tuple(map(add, e, qe))
                s = get(key, 0) - m * v
                if s:
                    rem[key] = s
                else:
                    del rem[key]
        return _raw(self.nvars, quotient)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its Fraction, so it must hash like one
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.as_string()!r})"

    def as_string(self, names: Sequence[str] | None = None) -> str:
        """Human-readable form, canonical term order (descending grlex)."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"tau{i + 1}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = [
                f"{names[i]}^{p}" if p > 1 else names[i]
                for i, p in enumerate(e) if p
            ]
            if not factors:
                parts.append(str(c))
                continue
            mono = "*".join(factors)
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _raw(nvars: int, terms: dict[Exponents, Fraction]) -> MultiPoly:
    """Internal constructor skipping normalization (terms already canonical)."""
    obj = object.__new__(MultiPoly)
    object.__setattr__(obj, "nvars", nvars)
    object.__setattr__(obj, "terms", terms)
    return obj


def integer_terms(terms: Mapping, den: int | None = None
                  ) -> tuple[int, dict]:
    """(den, {key: int}) with terms[key] == numerators[key] / den.

    den defaults to the lcm of the coefficient denominators; a given den must
    be a multiple of each of them.
    """
    if den is None:
        den = lcm(*(c.denominator for c in terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def integer_product(left: Mapping[Exponents, int],
                    right: Iterable[tuple[Exponents, int]]) -> dict[Exponents, int]:
    """Integer terms of the product of two integer term maps.

    A key whose running sum cancels is deleted, so it comes back last if a
    later product reaches it again: the term order is that of summing the
    products one by one into a Fraction polynomial.
    """
    res: dict[Exponents, int] = {}
    get = res.get
    for e1, c1 in left.items():
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            s = get(e, 0) + c1 * c2
            if s:
                res[e] = s
            else:
                del res[e]
    return res


def add_integer_terms(total: dict[Exponents, int], part: Mapping[Exponents, int]
                      ) -> None:
    """total += part in place, with the deletion rule of integer_product."""
    get = total.get
    for e, v in part.items():
        s = get(e, 0) + v
        if s:
            total[e] = s
        else:
            del total[e]


def from_integer_terms(nvars: int, den: int, numerators: Mapping[Exponents, int]
                       ) -> MultiPoly:
    """The polynomial sum numerators[e] / den * tau^e, one reduction per term.

    The numerators must be nonzero; their order is the order of the terms.
    """
    return _raw(nvars, {e: Fraction(v, den) for e, v in numerators.items()})


def symmetric_reduce(nvars: int, terms: Mapping[Exponents, int]) -> dict[Exponents, int]:
    """Int terms in e_1..e_n of a symmetric polynomial with int terms in x_1..x_n.

    Leading-term elimination in lex order: the leading term c x^a has
    a_1 >= ... >= a_n and leads c e_1^(a_1-a_2) ... e_n^(a_n), whose
    subtraction lowers the leading term.  A symmetric polynomial is fixed by
    its terms with sorted exponents, so only those are read and built: the
    coefficient of a sorted x^m in f e_k sums that of sorted(m - 1_S) in f
    over the k-subsets S.  The result is keyed by the exponents of the e_k.
    """
    def ordered(e) -> Exponents:
        return tuple(sorted(e, reverse=True))

    subsets = [[tuple(int(i in s) for i in range(nvars))
                for s in combinations(range(nvars), k)] for k in range(nvars + 1)]
    products: dict[Exponents, dict[Exponents, int]] = {(0,) * nvars: {(0,) * nvars: 1}}

    def product(b: Exponents) -> dict[Exponents, int]:
        if b not in products:
            k = max(i for i, p in enumerate(b) if p)
            f = product(b[:k] + (b[k] - 1,) + b[k + 1:])
            tops = {ordered(map(add, m, s)) for m in f for s in subsets[k + 1]}
            products[b] = {m: c for m in tops if (c := sum(
                f.get(ordered(map(sub, m, s)), 0) for s in subsets[k + 1]))}
        return products[b]

    rest = {a: c for a, c in terms.items() if c and a == ordered(a)}
    reduced: dict[Exponents, int] = {}
    while rest:
        a = max(rest)
        c = rest[a]
        b = tuple(map(sub, a, a[1:] + (0,)))
        reduced[b] = c
        add_integer_terms(rest, {e: -c * v for e, v in product(b).items()})
    return reduced


class RationalFn:
    """Quotient of two MultiPoly with exact arithmetic.

    No polynomial gcd reduction is attempted (factorization is out of scope);
    the representative is normalized by rational content so the denominator
    has content 1 and a positive leading coefficient.  Equality is decided by
    cross multiplication, which is exact and order independent.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if num.nvars != den.nvars:
            raise DimensionMismatch("numerator/denominator variable counts differ")
        if den.is_zero():
            raise DomainError("zero denominator")
        if num.is_zero():
            den = MultiPoly.const(num.nvars, 1)
        else:
            cont = den.content()
            if cont != 1:
                den = den * (1 / cont)
                num = num * (1 / cont)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RationalFn":
        return cls(p, MultiPoly.const(p.nvars, 1))

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "RationalFn":
        return cls.from_poly(MultiPoly.const(nvars, c))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def __add__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise DomainError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def diff(self, i: int) -> "RationalFn":
        """Quotient rule, exact."""
        return RationalFn(self.num.diff(i) * self.den - self.num * self.den.diff(i),
                          self.den * self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> MultiPoly | None:
        """The equal polynomial if the denominator divides out, else None."""
        return self.num.exact_div(self.den)

    def evaluate(self, point: Sequence) -> object:
        den = self.den.evaluate(point)
        if den == 0:
            raise DomainError("evaluation at a pole")
        return self.num.evaluate(point) / den

    def __eq__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        if other.nvars != self.nvars:
            return False
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        poly = self.as_poly()
        if poly is not None:
            return hash(poly)
        # Leading terms multiply under grlex, so the quotient of the leading
        # terms is the same for every representative of an equal function.
        (ne, nc), (de, dc) = self.num.leading_term(), self.den.leading_term()
        return hash((self.nvars, tuple(a - b for a, b in zip(ne, de)), nc / dc))

    def __repr__(self):
        return f"RationalFn(({self.num.as_string()}) / ({self.den.as_string()}))"


def _coerce(value, nvars: int):
    if isinstance(value, RationalFn):
        return value
    if isinstance(value, MultiPoly):
        return RationalFn.from_poly(value)
    if isinstance(value, (int, Fraction)):
        return RationalFn.const(nvars, value)
    return NotImplemented


class FlagSpace:
    """Graded space P_n of monomials with f-weighted degree at most n.

    The basis is sorted ascending by f-degree, ties broken lexicographically,
    which is the canonical order used by every matrix restriction.
    """

    __slots__ = ("d", "f", "n", "basis", "index")

    def __init__(self, d: int, f: Sequence[int], n: int):
        if d < 1:
            raise DomainError("need at least one variable")
        if n < 0:
            raise DomainError("flag level must be non-negative")
        fvec = validate_char_vector(f)
        if len(fvec) != d:
            raise DimensionMismatch("characteristic vector length != variable count")
        basis: list[Exponents] = []
        exps = [0] * d

        def walk(pos: int, remaining: int) -> None:
            if pos == d:
                basis.append(tuple(exps))
                return
            for p in range(remaining // fvec[pos] + 1):
                exps[pos] = p
                walk(pos + 1, remaining - fvec[pos] * p)
            exps[pos] = 0

        walk(0, n)
        basis.sort(key=lambda e: (fdegree(e, fvec), e))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "f", fvec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "index", {e: i for i, e in enumerate(basis)})

    def __setattr__(self, name, value):
        raise AttributeError("FlagSpace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, exps: Exponents) -> bool:
        return fdegree(exps, self.f) <= self.n

    def __iter__(self) -> Iterator[Exponents]:
        return iter(self.basis)

    def __repr__(self):
        return f"FlagSpace(d={self.d}, f={self.f}, n={self.n}, dim={self.dim})"


def enumerate_flag_basis(d: int, f: Sequence[int], n: int) -> FlagSpace:
    """Every monomial with sum(f_i p_i) <= n, exactly once, canonical order."""
    return FlagSpace(d, f, n)


def flag_dimension(f: Sequence[int], n: int) -> int:
    """dim of the flag P_n for characteristic vector f, without its basis.

    counts[g] is the number of monomials of f-degree exactly g in the
    variables met so far.
    """
    fvec = validate_char_vector(f)
    if n < 0:
        raise DomainError("flag level must be non-negative")
    counts = [1] + [0] * n
    for w in fvec:
        for g in range(w, n + 1):
            counts[g] += counts[g - w]
    return sum(counts)
