"""Correctness gate for the outputs the benchmark collects.

Every item is a verify check or a spectrum query.  A gate function returns
the number of failed items and one line per failure.  Eigenpolynomials are
checked by the eigen-equation, never byte for byte, so any valid basis of an
eigenspace passes.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from fractions import Fraction
from math import perm

import mpmath

from orbitforms.models import (build_bc1, build_bc1_qes, build_bcn, build_g2,
                               build_sutherland, eigenvalue_formula)

# Checks whose report carries a numeric value that must stay below a known
# tolerance: (check-name pattern, numeric key, tolerance).  The tolerances are
# the RunConfig defaults (residual_tol, orthogonality_tol, constancy_tol) and
# the literals in suites.py.  The free-particle check records its tolerance
# but not its value, so it has no margin here.
MARGINS = [
    (r"cartesian/(bc1|sutherland3|bc2|g2)/residuals|cartesian/bc1/hyperbolic",
     "max_residual", "1e-6"),
    (r"cartesian/g2/residuals", "fit_variance", "1e-8"),
    (r"cartesian/orthogonality", "max_offdiag", "1e-10"),
    (r"cartesian/a2-ground-identity", "max_relative_deviation", "1e-12"),
    (r"gauge/potential-vs-cartesian/bc\d", "max_relative_mismatch", "1e-25"),
    (r"ttw/(plain/consistent|plain/printed-nu3-zero|sextic/n0|angular/m0|full/n0m0)",
     "constancy_ratio", "1e-6"),
    (r"ttw/degeneration/b-to-0", "e0_gap", "1e-8"),
    (r"ttw/degeneration/a-to-0", "max_gap", "1e-8"),
]


def check_verify(code: int, payload: str, expected: list[str]) -> tuple[int, list[str]]:
    """Failed checks of one verify report, counting missing and extra names."""
    try:
        checks = json.loads(payload)["checks"]
    except (ValueError, KeyError, TypeError):
        return len(expected), [f"exit {code}: report is not valid JSON"]
    errors = [f"{c['name']}: status fail ({c.get('details', '')})"
              for c in checks if c.get("status") == "fail"]
    names = [c["name"] for c in checks]
    missing = sorted(set(expected) - set(names))
    extra = sorted(set(names) - set(expected))
    errors += [f"{n}: missing from the report" for n in missing]
    errors += [f"{n}: not a check of this suite" for n in extra]
    if len(names) != len(set(names)):
        errors.append("duplicate check names")
    if code != (3 if any(c.get("status") == "fail" for c in checks) else 0):
        errors.append(f"exit code {code} does not match the report")
    return min(len(errors), max(len(expected), 1)), errors


def margin_max(payload: str) -> float:
    """Largest value/tolerance over the checks listed in MARGINS."""
    worst = 0.0
    for check in json.loads(payload)["checks"]:
        for pattern, key, tol in MARGINS:
            value = check["numeric"].get(key)
            if value is not None and re.fullmatch(pattern, check["name"]):
                worst = max(worst, float(value) / float(tol))
    return worst


# ---------------------------------------------------------------------------
# spectrum queries
# ---------------------------------------------------------------------------

def build_model(params: dict):
    """The model bundle a spectrum query asks for (params as CLI strings)."""
    f = {k: Fraction(v) for k, v in params.items()
         if k in ("nu", "nu2", "nu3", "mu", "b")}
    family = params["model"]
    if family == "bc1":
        return build_bc1(f["nu2"], f["nu3"])
    if family == "bc1_qes":
        return build_bc1_qes(f["nu2"], f["nu3"], f["b"], int(params["n"]))
    if family == "sutherland":
        return build_sutherland(int(params["N"]), f["nu"])
    if family == "bcn":
        return build_bcn(int(params["N"]), f["nu"], f["nu2"], f["nu3"])
    if family == "g2":
        return build_g2(f["nu"], f["mu"])
    raise ValueError(f"unknown model {family!r}")


def _parse_poly(terms: dict) -> dict:
    return {tuple(int(p) for p in key.split(",")): Fraction(c)
            for key, c in terms.items()}


# The gate does its own arithmetic on {exponents: Fraction} dicts, so that a
# faulty speed-up of poly, diffop.apply, linalg or restrict_to_flag cannot
# confirm its own wrong answer.  Only the models (h, the flag basis and the
# closed-form eigenvalues) come from the program.

def _apply(h, terms: dict) -> dict:
    """h applied to a polynomial with polynomial coefficients."""
    if not h.polynomial:
        raise ValueError("h has rational coefficients")
    out: dict = defaultdict(Fraction)
    for k, coeff in h.terms.items():
        for e, a in terms.items():
            if any(ei < ki for ei, ki in zip(e, k)):
                continue
            scale = a
            for ei, ki in zip(e, k):
                scale *= perm(ei, ki)
            base = tuple(ei - ki for ei, ki in zip(e, k))
            for ce, cc in coeff.terms.items():
                out[tuple(x + y for x, y in zip(base, ce))] += scale * cc
    return {e: v for e, v in out.items() if v}


def _matrix(h, space) -> list[list[Fraction]]:
    """Row i holds the image of basis monomial i on the flag basis."""
    rows = []
    for mono in space.basis:
        row = [Fraction(0)] * space.dim
        for e, c in _apply(h, {mono: Fraction(1)}).items():
            if e not in space.index:
                raise ValueError(f"h maps {mono} outside the flag")
            row[space.index[e]] = c
        rows.append(row)
    return rows


def rank(rows) -> int:
    """Rank by Fraction Gaussian elimination."""
    rows = [list(r) for r in rows]
    found = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(found, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found]
        for i in range(found + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / top[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        found += 1
    return found


def check_spectrum(params: dict, code: int, payload: str) -> list[str]:
    """Reasons a spectrum answer is wrong; empty when it is right."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(payload)
        bundle = build_model(params)
        space = bundle.flag(int(params["n"]))
        if params["model"] == "bc1_qes":
            return _check_qes(doc, bundle, space)
        return _check_exact(doc, bundle, space)
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]


def _check_exact(doc, bundle, space) -> list[str]:
    errors = []
    expected = Counter(eigenvalue_formula(bundle, m) for m in space.basis)
    got = Counter()
    for e in doc["entries"]:
        got[Fraction(e["eigenvalue"])] += e["multiplicity"]
    if got != expected:
        errors.append("eigenvalue multiset differs from eigenvalue_formula")
    if doc["dim"] != space.dim or not doc["numeric_checked"]:
        errors.append("flag dimension or numeric check flag is wrong")
    in_flag = set(space.basis)
    for e in doc["entries"]:
        eps = Fraction(e["eigenvalue"])
        polys = [_parse_poly(t) for t in e["eigenpolynomials"]]
        if not 1 <= len(polys) == e["kernel_dim"] <= e["multiplicity"]:
            errors.append(f"eigenvalue {eps}: kernel_dim does not match its vectors")
        elif e["kernel_dim"] < e["multiplicity"]:
            # independent eigenvectors bound the kernel from below; a short
            # kernel must be confirmed by the rank of (M - eps I)
            shifted = _matrix(bundle.h, space)
            for i, row in enumerate(shifted):
                row[i] -= eps
            kernel = space.dim - rank(shifted)
            if kernel != e["kernel_dim"]:
                errors.append(f"eigenvalue {eps}: kernel has dimension "
                              f"{kernel}, not {e['kernel_dim']}")
        for phi in polys:
            phi = {m: c for m, c in phi.items() if c}
            if not phi or not in_flag.issuperset(phi):
                errors.append(f"eigenvalue {eps}: eigenpolynomial outside the flag")
            elif _apply(bundle.h, phi) != {m: c * eps for m, c in phi.items() if eps}:
                errors.append(f"eigenvalue {eps}: apply(h, phi) != eps*phi")
        support = sorted({m for phi in polys for m in phi})
        if rank([[phi.get(m, 0) for m in support] for phi in polys]) != len(polys):
            errors.append(f"eigenvalue {eps}: eigenpolynomials are dependent")
    return errors


def _check_qes(doc, bundle, space) -> list[str]:
    """QES spectra are numeric and printed to 15 digits: they must match the
    eigenvalues of the exact matrix, found here by mpmath at 60 digits."""
    matrix = _matrix(bundle.h, space)
    if Fraction(doc["exact_trace"]) != sum(matrix[i][i] for i in range(len(matrix))):
        return ["QES exact trace is wrong"]
    values = sorted(mpmath.mpf(e["eigenvalue_numeric"]) for e in doc["entries"])
    with mpmath.workdps(60):
        # eig ignores right=False on a 1x1 matrix, so take the values from
        # the (values, right vectors) pair it returns for every size
        eigs, _ = mpmath.eig(mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator
                                             for x in row] for row in matrix]),
                             left=False)
        roots = sorted(mpmath.re(r) for r in eigs)
    if len(values) != len(roots):
        return ["QES eigenvalue count differs from the flag dimension"]
    return [f"QES value {mpmath.nstr(v, 15)} is not an eigenvalue"
            for v, r in zip(values, roots)
            if abs(v - r) > mpmath.mpf("1e-12") * max(1, abs(r))]
