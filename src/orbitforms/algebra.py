"""Hidden-algebra generator realizations, structure checks and decompositions.

Three families of first/second order differential operators are realized
exactly: gl2 on one variable, gl_{d+1} on d variables (degree-n row irrep),
and the eleven-generator algebra acting on the (1,2)-graded plane that hides
behind the two-variable dihedral model.  A small word calculus evaluates
formal linear combinations of generator products to operators, and one
exact span solve, shared by the dihedral closure check and the fits,
expresses operators in the span of degree <= 2 words of generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import linalg
from .diffop import (DiffOp, _scaled, commutator, compose, linear_combination,
                     preserves_flag)
from .errors import DomainError
from .poly import Exponents, FlagSpace, MultiPoly

ZERO = Fraction(0)


@dataclass(frozen=True)
class GeneratorSet:
    """Named generators with representation data.

    roles maps each name to one of "lowering", "cartan", "raising",
    "central"; raising generators are excluded from decomposition word bases.
    """

    kind: str
    d: int
    n: int
    names: tuple[str, ...]
    ops: Mapping[str, DiffOp]
    roles: Mapping[str, str]
    flag_vector: tuple[int, ...]

    def op(self, name: str) -> DiffOp:
        try:
            return self.ops[name]
        except KeyError:
            raise DomainError(f"unknown generator {name!r} in {self.kind}") from None

    def non_raising(self) -> list[str]:
        return [g for g in self.names if self.roles[g] != "raising"]

    def flag(self) -> FlagSpace:
        return FlagSpace(self.d, self.flag_vector, self.n)


@dataclass(frozen=True)
class GeneratorWord:
    """Formal sum of generator products with rational coefficients.

    terms: ((coefficient, (name_1, ..., name_k)), ...); products act right to
    left (the last name applies first), matching the written operator order.
    """

    terms: tuple[tuple[Fraction, tuple[str, ...]], ...]
    constant: Fraction = ZERO

    @classmethod
    def from_items(cls, items: Iterable[tuple[object, Sequence[str]]],
                   constant=0) -> "GeneratorWord":
        return cls(tuple((Fraction(c), tuple(names)) for c, names in items),
                   Fraction(constant))


def evaluate_word(gs: GeneratorSet, word: GeneratorWord) -> DiffOp:
    """Exact operator for a formal word (empty word -> zero operator).

    The products are summed in ints over one denominator and make one
    operator, whose terms come in the order of adding them one by one.
    """
    constant = ((word.constant, ()),) if word.constant else ()
    return linear_combination(gs.d, [(coeff, _product(gs, names))
                                     for coeff, names in (*word.terms, *constant)])


def _product(gs: GeneratorSet, names: Sequence[str]) -> DiffOp:
    """The operator of one generator product, the last name applied first;
    the empty product is the identity."""
    if not names:
        return DiffOp.identity(gs.d)
    op = gs.op(names[-1])
    for name in reversed(names[:-1]):
        op = compose(gs.op(name), op)
    return op


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------

def gl2_generators(n: int) -> GeneratorSet:
    """J- = d, J0 = tau d - n, T0 = 1, J+ = tau^2 d - n tau on one variable."""
    if n < 0:
        raise DomainError("representation level must be non-negative")
    t = MultiPoly.variable(1, 0)
    ops = {
        "J-": DiffOp.partial(1, 0),
        "J0": DiffOp(1, {(1,): t, (0,): MultiPoly.const(1, -n)}),
        "T0": DiffOp.identity(1),
        "J+": DiffOp(1, {(1,): t * t, (0,): t * (-n)}),
    }
    roles = {"J-": "lowering", "J0": "cartan", "T0": "central", "J+": "raising"}
    return GeneratorSet("gl2", 1, n, ("J-", "J0", "T0", "J+"), ops, roles, (1,))


def gln_generators(d: int, n: int) -> GeneratorSet:
    """The (d+1)^2 first-order generators of gl_{d+1} on degree <= n polynomials.

    Names: "E-i" = d_i, "E0-i-j" = tau_i d_j, "E0" = sum tau_i d_i - n,
    "E+i" = tau_i * E0.
    """
    if d < 1 or n < 0:
        raise DomainError("need d >= 1 and n >= 0")
    ops: dict[str, DiffOp] = {}
    roles: dict[str, str] = {}
    names: list[str] = []
    euler = DiffOp.euler(d, [1] * d, Fraction(n))
    for i in range(d):
        name = f"E-{i + 1}"
        ops[name] = DiffOp.partial(d, i)
        roles[name] = "lowering"
        names.append(name)
    for i in range(d):
        for j in range(d):
            name = f"E0-{i + 1}-{j + 1}"
            k = [0] * d
            k[j] = 1
            ops[name] = DiffOp(d, {tuple(k): MultiPoly.variable(d, i)})
            roles[name] = "cartan"
            names.append(name)
    ops["E0"] = euler
    roles["E0"] = "cartan"
    names.append("E0")
    for i in range(d):
        name = f"E+{i + 1}"
        ops[name] = compose(DiffOp.mul_by(MultiPoly.variable(d, i)), euler)
        roles[name] = "raising"
        names.append(name)
    return GeneratorSet("gl_{d+1}", d, n, tuple(names), ops, roles, (1,) * d)


def g2_algebra_generators(n: int) -> GeneratorSet:
    """Eleven generators acting on the (1,2)-graded plane (t, u).

    First order: J1 = dt, J2 = t dt - n/3, J3 = 2u du - n/3,
    J4 = t^2 dt + 2tu du - n t, R_i = t^i du.  Second order:
    T0 = u dt^2, T1 = u dt J0, T2 = u J0 (J0 + 1), with the Euler operator
    J0 = t dt + 2u du - n.
    """
    if n < 0:
        raise DomainError("representation level must be non-negative")
    d = 2
    t = MultiPoly.variable(d, 0)
    u = MultiPoly.variable(d, 1)
    third = Fraction(n, 3)
    dt = DiffOp.partial(d, 0)
    du = DiffOp.partial(d, 1)
    j0 = DiffOp.euler(d, [1, 2], Fraction(n))
    mul_u = DiffOp.mul_by(u)
    ops = {
        "J1": dt,
        "J2": DiffOp(d, {(1, 0): t, (0, 0): MultiPoly.const(d, -third)}),
        "J3": DiffOp(d, {(0, 1): 2 * u, (0, 0): MultiPoly.const(d, -third)}),
        "J4": DiffOp(d, {(1, 0): t * t, (0, 1): 2 * t * u, (0, 0): -Fraction(n) * t}),
        "R0": du,
        "R1": DiffOp(d, {(0, 1): t}),
        "R2": DiffOp(d, {(0, 1): t * t}),
        "T0": DiffOp(d, {(2, 0): u}),
        "T1": compose(compose(mul_u, dt), j0),
        "T2": compose(mul_u, compose(j0, j0 + DiffOp.identity(d))),
        "J0": j0,
    }
    roles = {
        "J1": "lowering", "J2": "cartan", "J3": "cartan", "J4": "raising",
        "R0": "lowering", "R1": "lowering", "R2": "lowering",
        "T0": "lowering", "T1": "raising", "T2": "raising",
        "J0": "cartan",
    }
    names = ("J1", "J2", "J3", "J4", "R0", "R1", "R2", "T0", "T1", "T2", "J0")
    return GeneratorSet("g2", d, n, names, ops, roles, (1, 2))


# ---------------------------------------------------------------------------
# Structure verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class StructureReport:
    kind: str
    n: int
    results: tuple[PropertyResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[PropertyResult]:
        return [r for r in self.results if not r.ok]


def _gl2_expected_table(gs: GeneratorSet) -> dict[tuple[str, str], GeneratorWord]:
    n = Fraction(gs.n)
    W = GeneratorWord.from_items
    return {
        ("J-", "J0"): W([(1, ("J-",))]),
        ("J-", "J+"): W([(2, ("J0",)), (n, ("T0",))]),
        ("J0", "J+"): W([(1, ("J+",))]),
        ("J-", "T0"): W([]),
        ("J0", "T0"): W([]),
        ("J+", "T0"): W([]),
    }


def _gln_unit(name: str) -> tuple[int, int, int]:
    """(sign, i, j) with generator == sign * e_ij, e_ij the matrix units of
    gl_{d+1}:  E-j = e_0j, E0-i-j = e_ij, E0 = -e_00, E+i = -e_i0."""
    if name == "E0":
        return -1, 0, 0
    if name.startswith("E0-"):
        _, i, j = name.split("-")
        return 1, int(i), int(j)
    if name.startswith("E-"):
        return 1, 0, int(name[2:])
    return -1, int(name[2:]), 0


def _gln_expected_table(gs: GeneratorSet) -> dict[tuple[str, str], GeneratorWord]:
    """Expected [a, b] for every pair of gl_{d+1} generators, a before b,
    from [e_ij, e_kl] = delta_jk e_il - delta_li e_kj."""
    units = {name: _gln_unit(name) for name in gs.names}
    named = {(i, j): (sign, name) for name, (sign, i, j) in units.items()}
    table = {}
    for pos, a in enumerate(gs.names):
        sa, i, j = units[a]
        for b in gs.names[pos + 1:]:
            sb, k, l = units[b]
            items = []
            for hit, sign, unit in ((j == k, 1, (i, l)), (l == i, -1, (k, j))):
                if hit:
                    su, name = named[unit]
                    items.append((sign * sa * sb * su, (name,)))
            table[(a, b)] = GeneratorWord.from_items(items)
    return table


def check_structure(gs: GeneratorSet) -> StructureReport:
    """Verify commutator closure, flag invariance and the extra claimed
    identities of the generator set; every failure carries a witness string."""
    results: list[PropertyResult] = []
    space = gs.flag()

    for name in gs.names:
        ok, witness = preserves_flag(gs.op(name), space)
        results.append(PropertyResult(
            f"flag-invariance[{name}]", ok,
            "" if ok else f"witness {witness[0]} -> {witness[1]}"))

    if gs.kind in ("gl2", "gl_{d+1}"):
        table = (_gl2_expected_table(gs) if gs.kind == "gl2"
                 else _gln_expected_table(gs))
        for (a, b), expected in table.items():
            lhs = commutator(gs.op(a), gs.op(b))
            rhs = evaluate_word(gs, expected)
            ok = lhs == rhs
            results.append(PropertyResult(f"commutator[{a},{b}]", ok,
                                          "" if ok else f"got {lhs!r}"))
    elif gs.kind == "g2":
        results.extend(_check_g2_structure(gs))
    return StructureReport(gs.kind, gs.n, tuple(results))


def _proportional(a: DiffOp, b: DiffOp) -> Fraction | None:
    """The nonzero c with a == c*b, if it exists; None when a or b is zero."""
    if b.is_zero():
        return None
    k, coeff = next(iter(b.terms.items()))   # stored coefficients are nonzero
    e, c = coeff.leading_term()
    ratio = a.coefficient(k).coeff(e) / c
    return ratio if ratio and a == b * ratio else None


def _g2_pairwise_closure(gs: GeneratorSet) -> PropertyResult:
    """Every pairwise commutator must lie in the span of the generators,
    degree <= 2 words of the *first-order* generators, and a constant.

    Products of the second-order generators are excluded, so commutators
    involving them carry real content (e.g. [R0, T0] must reduce to a word in
    the first-order family); with them included the check would be vacuous,
    since [a, b] = ab - ba is itself a pair word.  All 55 systems share the
    word matrix, so one span solve settles them together.
    """
    names = gs.names
    first_order = [g for g in names if gs.op(g).order() <= 1]
    words = [()] + [(g,) for g in names] \
        + [(a, b) for a in first_order for b in first_order]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    _, escapes = _span_solve(_word_ops(gs, words),
                             [commutator(gs.op(a), gs.op(b)) for a, b in pairs])
    for (a, b), escaped in zip(pairs, escapes):
        if escaped:
            return PropertyResult("closure[pairwise]", False,
                                  f"[{a},{b}] escapes the word span")
    return PropertyResult("closure[pairwise]", True)


def _check_g2_structure(gs: GeneratorSet) -> list[PropertyResult]:
    results: list[PropertyResult] = [_g2_pairwise_closure(gs)]
    j4 = gs.op("J4")
    t0 = gs.op("T0")

    # Commutator chain: [J4, T0] ~ T1, [J4, [J4, T0]] ~ T2, next one vanishes.
    c1 = commutator(j4, t0)
    r1 = _proportional(c1, gs.op("T1"))
    results.append(PropertyResult(
        "chain[J4,T0]~T1", r1 is not None,
        f"scale {r1}" if r1 is not None else f"got {c1!r}"))
    c2 = commutator(j4, c1)
    r2 = _proportional(c2, gs.op("T2"))
    results.append(PropertyResult(
        "chain[J4,[J4,T0]]~T2", r2 is not None,
        f"scale {r2}" if r2 is not None else f"got {c2!r}"))
    c3 = commutator(j4, c2)
    results.append(PropertyResult("nilpotency[[J4,[J4,[J4,T0]]]=0]", c3.is_zero(),
                                  "" if c3.is_zero() else f"got {c3!r}"))

    # Commutativity inside the T and R families.
    for fam in (("T0", "T1", "T2"), ("R0", "R1", "R2")):
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                c = commutator(gs.op(a), gs.op(b))
                results.append(PropertyResult(f"commute[{a},{b}]", c.is_zero(),
                                              "" if c.is_zero() else f"got {c!r}"))

    # Conjugation pairings: the t <-> dt, u <-> du swap image of R_i,
    # completed by Euler factors, equals T_{2-i}:
    #   du     <-> u J0 (J0+1),   t du <-> u dt J0,   t^2 du <-> u dt^2.
    d = gs.d
    j0 = gs.op("J0")
    ident = DiffOp.identity(d)
    u = MultiPoly.variable(d, 1)
    swaps = {
        "R0": DiffOp(d, {(0, 0): u}),          # swap of du is multiplication by u
        "R1": DiffOp(d, {(1, 0): u}),          # swap of t du is u dt
        "R2": DiffOp(d, {(2, 0): u}),          # swap of t^2 du is u dt^2
    }
    pairings = {
        "R0": ("T2", compose(swaps["R0"], compose(j0, j0 + ident))),
        "R1": ("T1", compose(swaps["R1"], j0)),
        "R2": ("T0", swaps["R2"]),
    }
    for rname, (tname, built) in pairings.items():
        ok = built == gs.op(tname)
        results.append(PropertyResult(f"conjugation[{rname}<->{tname}]", ok,
                                      "" if ok else f"got {built!r}"))
    return results


# ---------------------------------------------------------------------------
# Exact decomposition fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    coefficients: tuple[tuple[tuple[str, ...], Fraction], ...]
    residual: DiffOp
    unmatched: tuple[tuple[Exponents, Exponents], ...]

    @property
    def ok(self) -> bool:
        return self.residual.is_zero()


def _word_ops(gs: GeneratorSet, words: Sequence[tuple[str, ...]]) -> list[DiffOp]:
    """The operator of each word, the empty word being the identity."""
    return [_product(gs, w) for w in words]


def _span_solve(word_ops: Sequence[DiffOp], targets: Sequence[DiffOp]
                ) -> tuple[list[list[Fraction]], list[bool]]:
    """(coefficients, escapes): per target, its words' coefficients, free
    words 0, and whether a part of it lies outside their span.

    Each operator coefficient gives one sparse int row, the words its
    columns and the targets its right-hand sides, read straight from each
    operator's int form (den_c, numerators): column c holds den_c times the
    true entries.  Scaling a column scales no pivot choice and no
    cancellation, so one reduction (`linalg._row_reduce`) pivots on the
    word keys only as it would on the Fraction rows: a pivot row gives z_c
    for target j, and the coefficient is x_c = z_c den_c / den_j; an escape
    is a right-hand side left nonzero in a row past the pivots once the
    pivot rows clear its words.  No Fraction is made but the coefficients.
    A rational operator is refused with DomainError."""
    ncols = len(word_ops)
    forms = [_scaled(op, "_span_solve") for op in (*word_ops, *targets)]
    entries: dict[tuple[Exponents, Exponents], dict[int, int]] = {}
    for c, (_, form) in enumerate(forms):
        key = ncols - 1 - c
        for k, nums in form:
            for e, v in nums.items():
                entries.setdefault((k, e), {})[key] = v
    rows = [entries[k] for k in sorted(entries)]
    reduced, rest = linalg._row_reduce(rows)
    coefficients = [[ZERO] * ncols for _ in targets]
    for key, row in reduced.items():
        c = ncols - 1 - key
        for j, solution in enumerate(coefficients):
            z = row.get(-1 - j)
            if z:
                solution[c] = Fraction(z * forms[c][0], row[key] * forms[ncols + j][0])
    escaped = set()
    for i in rest:
        v = rows[i]
        for key in [k for k in v if k in reduced]:
            v = linalg._cleared(v, reduced[key], key)
        escaped.update(v)
    return coefficients, [-1 - j in escaped for j in range(len(targets))]


def decomposition_words(gs: GeneratorSet, max_word_degree: int = 2
                        ) -> list[tuple[str, ...]]:
    """Ordered degree <= 2 products of first-order non-raising generators,
    all generators linearly, and the empty (constant) word."""
    if max_word_degree > 2:
        raise DomainError("word degree is capped at 2")
    first_order = [g for g in gs.non_raising() if gs.op(g).order() <= 1
                   and gs.roles[g] != "central"]
    # constant and single generators first: the solver pins free variables to
    # zero, so simple words are preferred over redundant product combinations
    words: list[tuple[str, ...]] = [()]
    for g in gs.names:
        words.append((g,))
    if max_word_degree >= 2:
        for a in first_order:
            for b in first_order:
                words.append((a, b))
    return words


def fit_decomposition(h: DiffOp, gs: GeneratorSet, max_word_degree: int = 2
                      ) -> FitResult:
    """Express h exactly in the word span; zero residual iff representable.

    Linear dependence between words is immaterial: each word is reduced to
    its operator coefficient vector and the system is solved there, with free
    variables pinned to zero for determinism.
    """
    words = decomposition_words(gs, max_word_degree)
    word_ops = _word_ops(gs, words)
    (solution,), _ = _span_solve(word_ops, [h])
    residual = linear_combination(gs.d, [(1, h)] + [(-c, op) for c, op
                                                     in zip(solution, word_ops) if c])
    unmatched = tuple(sorted((k, e) for k, c in residual.terms.items() for e in c.terms))
    coeffs = tuple((words[i], solution[i]) for i in range(len(words)) if solution[i])
    return FitResult(coeffs, residual, unmatched)
