"""Particular integrals built from shifted Euler operators.

With the graded Euler operator J0 = sum_i f_i tau_i d_i - n, the product
prod_{j=0..n} (J0 + j) is an operator of order n+1 that annihilates every
monomial of f-degree at most n: on a monomial of f-degree s it acts as the
scalar prod_j (s - n + j).  On a flag basis the integral is therefore the
diagonal matrix diag(s), and for a model operator h with flag matrix
M = restrict_to_flag(h, space), h(m_i) = sum_j M_ji m_j, the commutator is
the matrix identity [h, ip] m_i = sum_j M_ji (s_i - s_j) m_j.  The
annihilation check reads [M, diag(s)] = 0 off the sparse int columns of that
matrix; the expanded operator of order n+1 is built only when read.  With
the integral at the flag's own level every s on P_n is 0 (its factor
j = n - deg vanishes), so there the check holds exactly when
restrict_to_flag succeeds: it proves flag preservation, and only an integral
below the flag's level meets a nonzero s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Sequence

from .diffop import DiffOp, compose, restrict_to_flag
from .errors import DomainError
from .poly import (CharVector, Exponents, FlagSpace, MultiPoly, fdegree,
                   validate_char_vector)


@dataclass(frozen=True)
class PiIntegral:
    """Particular integral of zero grading at level n."""

    f: CharVector
    d: int
    n: int
    euler: DiffOp       # J0 = sum f_i tau_i d_i - n

    @cached_property
    def expanded(self) -> DiffOp:
        """prod_{j=0..n} (J0 + j), order n+1, expanded exactly."""
        ident = DiffOp.identity(self.d)
        op = self.euler
        for j in range(1, self.n + 1):
            op = compose(op, self.euler + j * ident)
        return op

    def monomial_scalar(self, exps: Exponents) -> Fraction:
        """Closed-form action on a monomial: prod_j (deg_f - n + j)."""
        s = fdegree(exps, self.f)
        return Fraction(prod(s - self.n + j for j in range(self.n + 1)))


def build_pi_integral(f: Sequence[int], d: int, n: int) -> PiIntegral:
    """prod_{j=0}^{n} (J0 + j) for the grading f."""
    fvec = validate_char_vector(f)
    if len(fvec) != d:
        raise DomainError("characteristic vector length != variable count")
    if n < 0:
        raise DomainError("level must be non-negative")
    return PiIntegral(fvec, d, n, DiffOp.euler(d, list(fvec), Fraction(n)))


def annihilation_check(h: DiffOp, ip: PiIntegral, space: FlagSpace):
    """True iff [h, ip] maps every basis monomial of the space to zero.

    ip is diag(s) on the basis, s_i = ip.monomial_scalar(m_i), so with
    M = restrict_to_flag(h, space) the image of m_i is
    sum_j M_ji (s_i - s_j) m_j, read off column i of M, and the check is
    [M, diag(s)] = 0.
    Returns (True, None) or (False, (witness monomial, nonzero image));
    an h that leaves the space raises FlagViolation.
    """
    if h.nvars != ip.d:
        raise DomainError("operator/integral variable counts differ")
    matrix = restrict_to_flag(h, space)
    scalars = [ip.monomial_scalar(mono) for mono in space.basis]
    for mono, column, s_i in zip(space.basis, matrix.columns, scalars):
        image = {space.basis[j]: Fraction(v, matrix.den) * (s_i - scalars[j])
                 for j, v in sorted(column.items()) if scalars[j] != s_i}
        if image:
            return False, (mono, MultiPoly(space.d, image))
    return True, None
