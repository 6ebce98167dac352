"""Verification suites: named checks per subsystem, assembled into reports.

Every check is pure given (config, seed).  Known print-vs-engine offsets are
matched against the whitelist and reported as "reported-offset" rather than
silently corrected or failed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import mp

from . import cartesian as cart
from .algebra import (GeneratorWord, check_structure, evaluate_word,
                      fit_decomposition, g2_algebra_generators,
                      gl2_generators, gln_generators)
from .diffop import DiffOp, GaugeFactor, apply, gauge_conjugate, preserves_flag
from .errors import EngineError
from .integrals import annihilation_check, build_pi_integral
from .models import (ModelBundle, bcn_eigenvalue_printed,
                     bcn_rational_potential_printed, build_bc1, build_bc1_qes,
                     build_bcn, build_g2, build_mw_family, build_sutherland,
                     g2_eigenvalue_printed, mw_word_data, root_table,
                     sutherland_eigenvalue_printed, ttw_models)
from .poly import FlagSpace, MultiPoly
from .report import (FAIL, PASS, REPORTED, CheckRecord, RunConfig,
                     VerificationReport, load_whitelist)
from .spectral import (NUMERIC_TOL, _jacobi_polynomials, orthogonality_check,
                       proportional_scalar, spectrum)

HALF = Fraction(1, 2)
# bounds of the oracle's Cartesian residuals and of the TTW constancy ratio
RESIDUAL_TOL = "1e-6"
CONSTANCY_TOL = "1e-6"

SPECTRAL_RANGES = {
    "bc1": {None: 12},
    "sutherland": {2: 6, 3: 5, 4: 4, 5: 3},
    "bcn": {1: 6, 2: 5, 3: 4, 4: 3},
    "g2": {None: 10},
}


def _record(name: str, fn: Callable[[CheckRecord], None], *,
            whitelist_id: str | None = None) -> CheckRecord:
    rec = CheckRecord(name=name, status=PASS, whitelist_id=whitelist_id)
    start = time.perf_counter()
    try:
        fn(rec)
    except EngineError as exc:
        rec.status = FAIL
        rec.details = f"{type(exc).__name__}: {exc}"
        if hasattr(exc, "input_monomial"):
            rec.witness = (exc.input_monomial, exc.output_monomial)
    except Exception as exc:  # a crashed check is a failed check, not a crashed run
        rec.status = FAIL
        rec.details = f"unexpected {type(exc).__name__}: {exc}"
    rec.timing_ms = (time.perf_counter() - start) * 1000
    return rec


def _require(rec: CheckRecord, condition: bool, detail: str) -> bool:
    if not condition:
        rec.status = FAIL
        rec.details = (rec.details + "; " if rec.details else "") + detail
    return condition


def _rand_fraction(rng: random.Random, max_num: int = 5,
                   dens=(2, 3, 5, 7)) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.choice(dens)) + Fraction(rng.randint(0, 1))


def parameter_tuples(seed: int, count: int, nparams: int) -> list[tuple[Fraction, ...]]:
    rng = random.Random(seed)
    return [tuple(_rand_fraction(rng) for _ in range(nparams)) for _ in range(count)]


def _model_wanted(config: RunConfig, name: str) -> bool:
    want = config.get("model")
    return want in (None, "", "all", name)


# ---------------------------------------------------------------------------
# Spectral suite (exact spectra + Jacobi identification)
# ---------------------------------------------------------------------------

def _builders_for_spectra(config: RunConfig, seed: int):
    tuples = int(config.get("tuples", 5))
    jobs = []
    if _model_wanted(config, "bc1"):
        for i, (a, b) in enumerate(parameter_tuples(seed + 1, tuples, 2)):
            jobs.append((f"spectral/bc1/tuple{i}", build_bc1(a, b), 12))
    if _model_wanted(config, "sutherland"):
        for N, nmax in SPECTRAL_RANGES["sutherland"].items():
            for i, (a,) in enumerate(parameter_tuples(seed + 10 + N, tuples, 1)):
                jobs.append((f"spectral/sutherland/N{N}/tuple{i}",
                             build_sutherland(N, a), nmax))
    if _model_wanted(config, "bcn"):
        for N, nmax in SPECTRAL_RANGES["bcn"].items():
            for i, (a, b, c) in enumerate(parameter_tuples(seed + 20 + N, tuples, 3)):
                jobs.append((f"spectral/bcn/N{N}/tuple{i}",
                             build_bcn(N, a, b, c), nmax))
    if _model_wanted(config, "g2"):
        for i, (a, b) in enumerate(parameter_tuples(seed + 30, tuples, 2)):
            jobs.append((f"spectral/g2/tuple{i}", build_g2(a, b), 10))
    return jobs


def suite_spectral(config: RunConfig) -> list[CheckRecord]:
    seed = int(config.get("seed", 1))
    checks: list[CheckRecord] = []

    for name, bundle, nmax in _builders_for_spectra(config, seed):
        def run(rec: CheckRecord, bundle=bundle, nmax=nmax):
            record = spectrum(bundle, nmax, numeric_check=False, with_vectors=False)
            flag_dim = bundle.flag(nmax).dim
            _require(rec, record.dim == flag_dim,
                     f"multiset cardinality {record.dim} != flag dim {flag_dim}")
            rec.exact["flag_dim"] = flag_dim
            rec.exact["distinct_eigenvalues"] = len(record.entries)
        checks.append(_record(name, run))

    # numeric cross-check at spectral.NUMERIC_DPS (60) digits, one representative
    # per family
    numeric_jobs = []
    if config.get("numeric_check", True):
        if _model_wanted(config, "bc1"):
            numeric_jobs.append(("spectral/numeric/bc1",
                                 build_bc1(Fraction(1, 3), Fraction(2, 5)), 12))
        if _model_wanted(config, "sutherland"):
            numeric_jobs.append(("spectral/numeric/sutherland3",
                                 build_sutherland(3, Fraction(1, 2)), 4))
        if _model_wanted(config, "bcn"):
            numeric_jobs.append(("spectral/numeric/bc2",
                                 build_bcn(2, Fraction(1, 2), Fraction(1, 3),
                                           Fraction(1, 5)), 4))
        if _model_wanted(config, "g2"):
            numeric_jobs.append(("spectral/numeric/g2",
                                 build_g2(Fraction(1, 2), Fraction(1, 3)), 6))
        if _model_wanted(config, "sutherland"):
            numeric_jobs.append(("spectral/numeric/sutherland5",
                                 build_sutherland(5, Fraction(1, 3)), 2))
        if _model_wanted(config, "bcn"):
            numeric_jobs.append(("spectral/numeric/bc4",
                                 build_bcn(4, Fraction(1, 2), Fraction(1, 3),
                                           Fraction(1, 5)), 2))
    for name, bundle, nmax in numeric_jobs:
        def run(rec: CheckRecord, bundle=bundle, nmax=nmax):
            record = spectrum(bundle, nmax, numeric_check=True, with_vectors=False)
            rec.numeric["matched_within"] = NUMERIC_TOL
            rec.exact["dim"] = record.dim
        checks.append(_record(name, run))

    # Jacobi identification, p <= 10, five random tuples
    if _model_wanted(config, "bc1"):
        for i, (a, b) in enumerate(parameter_tuples(seed + 40, int(config.get("tuples", 5)), 2)):
            def run(rec: CheckRecord, nu2=a, nu3=b):
                bundle = build_bc1(nu2, nu3)
                record = spectrum(bundle, 10, numeric_check=False)
                refs = _jacobi_polynomials(10, nu2 + nu3 - HALF, nu2 - HALF)
                for entry in record.entries:
                    (p,) = entry.quantum_indices[0]
                    scalar = proportional_scalar(entry.eigenpolynomials[0], refs[p])
                    if not _require(rec, scalar is not None,
                                    f"eigenpolynomial at p={p} is not a rational "
                                    f"multiple of the Jacobi reference"):
                        return
                rec.exact["pmax"] = 10
            checks.append(_record(f"spectral/jacobi/bc1/tuple{i}", run))

    # printed one-sided quadratic readings, recorded against the whitelist
    half, third, fifth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
    readings = [
        ("sutherland", "sutherland-quadratic", "sutherland_quadratic_reading", (1, 1),
         lambda: build_sutherland(3, half), sutherland_eigenvalue_printed(3, half),
         "printed one-sided reading differs on mixed indices"),
        ("bcn", "bcn-quadratic", "bcn_quadratic_reading", (1, 1),
         lambda: build_bcn(2, half, third, fifth),
         bcn_eigenvalue_printed(2, half, third, fifth), ""),
        ("g2", "g2-linear", "g2_linear_p1", (1, 0),
         lambda: build_g2(half, third), g2_eigenvalue_printed(half, third),
         "operator-backed linear coefficient (mu+2nu/3) p1"),
    ]
    for model, label, whitelist_id, p, build, reading, details in readings:
        if not _model_wanted(config, model):
            continue

        def run(rec: CheckRecord, p=p, build=build, reading=reading, details=details):
            engine, printed = build().eigenvalue(p), reading(p)
            rec.exact.update(engine=engine, printed=printed)
            rec.status = REPORTED if printed != engine else PASS
            rec.details = details
        checks.append(_record(f"spectral/printed/{label}", run, whitelist_id=whitelist_id))
    return checks


# ---------------------------------------------------------------------------
# Flag suite (flag preservation + QES uniqueness)
# ---------------------------------------------------------------------------

def suite_flags(config: RunConfig) -> list[CheckRecord]:
    seed = int(config.get("seed", 1))
    tuples = int(config.get("tuples", 5))
    checks: list[CheckRecord] = []

    for name, bundle, nmax in _builders_for_spectra(config, seed + 100):
        flag_name = name.replace("spectral/", "flags/")
        def run(rec: CheckRecord, bundle=bundle, nmax=nmax):
            for vector in bundle.flags:
                ok, witness = preserves_flag(
                    bundle.h, FlagSpace(bundle.d, vector, nmax))
                if not _require(rec, ok, f"flag {vector} broken"):
                    rec.witness = witness
                    return
            rec.exact["vectors"] = [list(v) for v in bundle.flags]
            rec.exact["n_max"] = nmax
        checks.append(_record(flag_name, run))

    if _model_wanted(config, "bc1_qes"):
        rng = random.Random(seed + 200)
        for n in range(0, 7):
            b = _rand_fraction(rng)
            def run(rec: CheckRecord, n=n, b=b):
                bundle = build_bc1_qes(Fraction(1, 3), Fraction(1, 5), b, n)
                ok, _ = preserves_flag(bundle.h, FlagSpace(1, (1,), n))
                _require(rec, ok, f"level-{n} space not preserved")
                ok1, witness = preserves_flag(bundle.h, FlagSpace(1, (1,), n + 1))
                _require(rec, not ok1, f"level-{n + 1} space unexpectedly preserved")
                _require(rec, witness == ((n + 1,), (n + 2,)),
                         f"unexpected witness {witness}")
                rec.witness = witness
                rec.exact["b"] = b
            checks.append(_record(f"flags/bc1_qes/n{n}", run))
    return checks


# ---------------------------------------------------------------------------
# Algebra suite (closure, g2 structure, decompositions, printed words)
# ---------------------------------------------------------------------------

def suite_algebra(config: RunConfig) -> list[CheckRecord]:
    seed = int(config.get("seed", 1))
    checks: list[CheckRecord] = []
    rng = random.Random(seed + 300)

    for n in range(0, 6):
        def run(rec: CheckRecord, n=n):
            report = check_structure(gl2_generators(n))
            _require(rec, report.ok,
                     "; ".join(f"{r.name}: {r.detail}" for r in report.failures()))
        checks.append(_record(f"algebra/gl2/closure/n{n}", run))

    for d in range(1, 5):
        n = 5 if d <= 2 else 4
        def run(rec: CheckRecord, d=d, n=n):
            gs = gln_generators(d, n)
            _require(rec, len(gs.names) == (d + 1) ** 2,
                     f"generator count {len(gs.names)} != {(d + 1) ** 2}")
            report = check_structure(gs)
            _require(rec, report.ok,
                     "; ".join(f"{r.name}: {r.detail}" for r in report.failures()))
        checks.append(_record(f"algebra/gln/closure/d{d}", run))

    for i in range(5):
        n = rng.randint(0, 8)
        def run(rec: CheckRecord, n=n):
            report = check_structure(g2_algebra_generators(n))
            _require(rec, report.ok,
                     "; ".join(f"{r.name}: {r.detail}" for r in report.failures()))
            rec.exact["n"] = n
        checks.append(_record(f"algebra/g2/structure/sample{i}", run))

    # exact decompositions with zero residual
    fit_jobs = [
        ("algebra/fit/bc1",
         lambda: (build_bc1(Fraction(1, 3), Fraction(1, 5)).h, gl2_generators(0))),
        ("algebra/fit/bc1_qes",
         lambda: (build_bc1_qes(Fraction(1, 3), Fraction(1, 5), Fraction(2, 3), 3).h,
                  gl2_generators(3))),
        ("algebra/fit/sutherland/N2",
         lambda: (build_sutherland(2, Fraction(1, 2)).h, gln_generators(1, 2))),
        ("algebra/fit/sutherland/N3",
         lambda: (build_sutherland(3, Fraction(1, 2)).h, gln_generators(2, 2))),
        ("algebra/fit/sutherland/N4",
         lambda: (build_sutherland(4, Fraction(1, 3)).h, gln_generators(3, 2))),
        ("algebra/fit/bcn/N1",
         lambda: (build_bcn(1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)).h,
                  gln_generators(1, 2))),
        ("algebra/fit/bcn/N2",
         lambda: (build_bcn(2, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)).h,
                  gln_generators(2, 2))),
        ("algebra/fit/bcn/N3",
         lambda: (build_bcn(3, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)).h,
                  gln_generators(3, 2))),
        ("algebra/fit/g2",
         lambda: (build_g2(Fraction(1, 2), Fraction(1, 3)).h,
                  g2_algebra_generators(0))),
    ]
    for name, make in fit_jobs:
        def run(rec: CheckRecord, make=make):
            h, gs = make()
            fit = fit_decomposition(h, gs)
            _require(rec, fit.ok, f"nonzero residual on {len(fit.unmatched)} keys")
            rec.exact["words_used"] = len(fit.coefficients)
        checks.append(_record(name, run))

    checks.append(_record("algebra/printed/bc1-hidden", _printed_bc1_check,
                          whitelist_id="bc1_hidden_linear"))
    checks.append(_record("algebra/printed/qes-word", _printed_qes_check,
                          whitelist_id="qes_word_coefficients"))
    checks.append(_record("algebra/printed/g2-word", _printed_g2_check,
                          whitelist_id="g2_word_residual"))

    for variant, wid in (("0+", "mw_0_plus"), ("0-", "mw_0_minus"),
                         ("1-", "mw_1_minus"), ("1+", "mw_1_plus")):
        checks.append(_record(
            f"algebra/mw/{variant}",
            lambda rec, variant=variant: _mw_check(rec, variant),
            whitelist_id=wid))
    return checks


def _printed_qes_word(nu2, nu3, b, n: int) -> GeneratorWord:
    """The printed gl2 word of bc1_qes at level n; at b = 0, n = 0 it is
    the printed word of bc1."""
    return GeneratorWord.from_items([
        (1, ("J0", "J0")), (-1, ("J-", "J-")), (-2 * b, ("J+",)),
        (2 * n + 2 * nu2 + nu3 + 1, ("J0",)), (nu3 - 2 * b, ("J-",)),
    ], constant=n * (n + 2 * nu2 + nu3 + 1))


def _corrected_qes_word(nu2, nu3, b, n: int) -> GeneratorWord:
    """The gl2 word that reproduces bc1_qes at level n, and bc1 at b = 0,
    n = 0."""
    return GeneratorWord.from_items([
        (1, ("J0", "J0")), (-1, ("J-", "J-")), (2 * b, ("J+",)),
        (2 * n + 2 * nu2 + nu3, ("J0",)), (nu3 - 2 * b, ("J-",)),
    ], constant=n * (n + 2 * nu2 + nu3) + 2 * b * (n + nu2 + nu3 + HALF))


def _printed_word_check(rec: CheckRecord, h: DiffOp, nu2, nu3, b=0, n: int = 0) -> None:
    """The printed word's residual against h, and the corrected word must
    reproduce h exactly."""
    gs = gl2_generators(n)
    diff = evaluate_word(gs, _printed_qes_word(nu2, nu3, b, n)) - h
    rec.exact["residual"] = diff.as_string() if not diff.is_zero() else "0"
    rec.status = REPORTED if not diff.is_zero() else PASS
    if evaluate_word(gs, _corrected_qes_word(nu2, nu3, b, n)) != h:
        rec.status = FAIL
        rec.details = "corrected word does not reproduce the operator"


def _printed_bc1_check(rec: CheckRecord) -> None:
    nu2, nu3 = Fraction(1, 3), Fraction(1, 5)
    _printed_word_check(rec, build_bc1(nu2, nu3).h, nu2, nu3)


def _printed_qes_check(rec: CheckRecord) -> None:
    nu2, nu3, b, n = Fraction(1, 3), Fraction(1, 5), Fraction(2, 3), 3
    _printed_word_check(rec, build_bc1_qes(nu2, nu3, b, n).h, nu2, nu3, b, n)


def _printed_g2_check(rec: CheckRecord) -> None:
    nu, mu = Fraction(1, 2), Fraction(1, 3)
    h = build_g2(nu, mu).h
    gs = g2_algebra_generators(0)
    printed = GeneratorWord.from_items([
        (-4, ("J1", "J1")), (-1, ("J2", "J1")), (2, ("J3", "J1")),
        (12, ("R0", "J1")), (-2, ("R2", "J1")),
        (Fraction(1, 3), ("J2", "J2")), (HALF, ("J3", "J2")),
        (1, ("J3", "J3")), (Fraction(3, 2), ("R1", "J3")),
        (9, ("R0", "R1")), (-1, ("R2", "R1")),
        (-Fraction(1, 3), ("T0",)),
        (2 * nu, ("J1",)), (Fraction(3 * mu + 2 * nu, 3), ("J2",)),
        ((2 * mu + nu - 1) * HALF, ("J3",)),
        (6 * mu, ("R0",)), (2 * nu - Fraction(3, 2), ("R1",)),
    ])
    diff = evaluate_word(gs, printed) - h
    if diff.is_zero():
        rec.status = PASS
        rec.exact["residual"] = "0"
        return
    rec.status = REPORTED
    rec.exact["residual"] = diff.as_string()
    fit = fit_decomposition(diff, gs)
    if fit.ok:
        rec.exact["residual_word"] = "; ".join(
            f"{'*'.join(names)}: {coeff}" for names, coeff in fit.coefficients)


def _mw_check(rec: CheckRecord, variant: str) -> None:
    b, n = Fraction(2, 3), 3
    mw = build_mw_family(variant, b, n)
    mapping = {"0+": (Fraction(0), Fraction(0), n),
               "0-": (Fraction(1), Fraction(0), n - 1),
               "1-": (Fraction(0), Fraction(1), n),
               "1+": (Fraction(1), Fraction(-1), n)}
    nu2, nu3, level = mapping[variant]
    rec.exact["mapping"] = f"nu2={nu2}, nu3={nu3}, level={level}"

    best = None
    for sign in (1, -1):
        ref = build_bc1_qes(nu2, nu3, sign * b, level).h
        diff = mw - ref
        const = _constant_of(diff)
        if const is not None:
            rec.exact["offset"] = const
            rec.exact["b_sign"] = sign
            rec.status = REPORTED if (const != 0 or sign == -1) else PASS
            return
        if best is None or sign == -1:
            best = (sign, diff)
    # no constant match: report the exact first-order residual word
    sign, diff = best
    gs = gl2_generators(level)
    fit = fit_decomposition(diff, gs, max_word_degree=1)
    rec.status = REPORTED
    rec.exact["b_sign"] = sign
    rec.exact["residual_word"] = "; ".join(
        f"{'*'.join(names) if names else '1'}: {coeff}"
        for names, coeff in fit.coefficients)
    if not fit.ok:
        rec.status = FAIL
        rec.details = "residual not expressible in first-order words"
    # the printed words must at least coincide with the printed QES pattern
    rep, coeffs = mw_word_data(variant, b, n)
    gsr = gl2_generators(max(rep, 0))
    pattern_op = evaluate_word(gsr, _printed_qes_word(nu2, nu3, b, level))
    delta = mw - pattern_op
    cpart = delta.constant_part()
    if delta.order() == 0 and delta.polynomial:
        rec.exact["vs_printed_qes_pattern_offset"] = (
            cpart.constant_value() if cpart.is_constant() else cpart.as_string())
    else:
        rec.status = FAIL
        rec.details = "printed word does not match the printed QES pattern"


# ---------------------------------------------------------------------------
# Pi-integral suite
# ---------------------------------------------------------------------------

def pi_jobs(config: RunConfig) -> list[tuple[str, ModelBundle, tuple, list[int]]]:
    """(name, bundle, f, levels) of each pi/<model> record."""
    levels = list(range(0, 7))
    jobs = []
    if _model_wanted(config, "bc1"):
        jobs.append(("pi/bc1", build_bc1(Fraction(1, 3), Fraction(1, 5)), (1,), levels))
    if _model_wanted(config, "bc1_qes"):
        qn = 4
        jobs.append((f"pi/bc1_qes/n{qn}",
                     build_bc1_qes(Fraction(1, 3), Fraction(1, 5), Fraction(2, 3), qn),
                     (1,), [qn]))
    if _model_wanted(config, "sutherland"):
        for N in (2, 3, 4):
            jobs.append((f"pi/sutherland/N{N}",
                         build_sutherland(N, Fraction(1, 2)), (1,) * (N - 1), levels))
    if _model_wanted(config, "bcn"):
        for N in (1, 2, 3):
            jobs.append((f"pi/bcn/N{N}",
                         build_bcn(N, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
                         (1,) * N, levels))
    if _model_wanted(config, "g2"):
        g2 = build_g2(Fraction(1, 2), Fraction(1, 3))
        jobs += [("pi/g2/f12", g2, (1, 2), levels), ("pi/g2/f59", g2, (5, 9), levels)]
    return jobs


def suite_pi(config: RunConfig) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    for name, bundle, f, level_list in pi_jobs(config):
        def run(rec: CheckRecord, bundle=bundle, f=f, level_list=level_list):
            for n in level_list:
                ip = build_pi_integral(f, bundle.d, n)
                ok, witness = annihilation_check(
                    bundle.h, ip, FlagSpace(bundle.d, f, n))
                if not _require(rec, ok, f"commutator not zero on level {n}"):
                    rec.witness = (witness[0], witness[1].as_string())
                    return
            rec.exact["levels"] = level_list
        checks.append(_record(name, run))

    def negative(rec: CheckRecord):
        bundle = build_bc1(Fraction(1, 3), Fraction(1, 5))
        ip = build_pi_integral((1,), 1, 2)
        ok, witness = annihilation_check(bundle.h, ip, FlagSpace(1, (1,), 3))
        _require(rec, not ok, "level-2 integral unexpectedly annihilates level 3")
        _require(rec, witness is not None and witness[0] == (3,),
                 f"expected witness tau^3, got {witness}")
        rec.witness = (witness[0], witness[1].as_string())
    checks.append(_record("pi/bc1/negative-witness", negative))

    def closed_form(rec: CheckRecord):
        ip = build_pi_integral((1, 2), 2, 3)
        space = FlagSpace(2, (1, 2), 6)
        for mono in space.basis:
            image = apply(ip.expanded, MultiPoly.monomial(2, mono))
            expected = MultiPoly.monomial(2, mono) * ip.monomial_scalar(mono)
            if not _require(rec, image == expected,
                            f"closed form fails on {mono}"):
                return
    checks.append(_record("pi/closed-form", closed_form))
    return checks


# ---------------------------------------------------------------------------
# Gauge suite
# ---------------------------------------------------------------------------

def _constant_of(diff: DiffOp) -> Fraction | None:
    """The scalar an order-0 operator multiplies by, else None.  A rational
    coefficient is never constant: DiffOp stores any coefficient that divides
    out as a MultiPoly."""
    if diff.order() != 0 or not diff.polynomial:
        return None
    c = diff.constant_part()
    return c.constant_value() if c.is_constant() else None


def _conjugated(bundle: ModelBundle, factor: GaugeFactor | None = None):
    """(F^-1 H F, the constant it differs from h by or None) for the rational
    form H of the bundle and its ground factor F, or the one given."""
    conj = gauge_conjugate(bundle.rational_form, factor or bundle.ground_factor)
    return conj, _constant_of(conj - bundle.h)


def suite_gauge(config: RunConfig) -> list[CheckRecord]:
    seed = int(config.get("seed", 1))
    rng = random.Random(seed + 400)
    checks: list[CheckRecord] = []
    nu2, nu3 = _rand_fraction(rng), _rand_fraction(rng)
    nu = _rand_fraction(rng)

    # one bundle per model: its gauge data, derived once, serve every record
    bundle1 = build_bc1(nu2, nu3)
    bcn = {N: build_bcn(N, nu, nu2, nu3) for N in (2, 3)}

    def bc1(rec: CheckRecord):
        conj, const = _conjugated(bundle1)
        _require(rec, const is not None, "residual is not a constant")
        _require(rec, const == bundle1.e0,
                 f"gauge constant {const} != +(nu2+nu3/2)^2 = {bundle1.e0}")
        _require(rec, conj.polynomial, "denominators did not cancel")
        rec.exact["e0"] = const
        rec.exact["second_order_sign"] = "+(tau^2-1) d^2 (rational form = Delta_g + V)"
    checks.append(_record("gauge/bc1", bc1))

    for N in (2, 3):
        def run(rec: CheckRecord, N=N):
            conj, const = _conjugated(bcn[N])
            _require(rec, const is not None, "residual is not a constant")
            _require(rec, conj.polynomial, "denominators did not cancel")
            expected = bcn[N].e0 / root_table(bcn[N].spec)[0].kinetic
            _require(rec, const == expected,
                     f"constant {const} != sum of squared momenta {expected}")
            rec.exact["gauge_constant"] = const
            rec.exact["normalization"] = "rational form = Delta_g + 2V (half kinetic)"
        checks.append(_record(f"gauge/bc{N}", run))

    def qes(rec: CheckRecord):
        b = _rand_fraction(rng)
        n = 3
        bundle = build_bc1_qes(nu2, nu3, b, n)
        ground = bundle.ground_factor
        results = {}
        for orient in (+1, -1):
            factor = GaugeFactor(1, ground.factors, ground.exp_arg * orient)
            results[orient] = _conjugated(bundle, factor)[1]
        _require(rec, results[+1] is not None,
                 "exp(+b tau) orientation failed to reproduce the operator")
        _require(rec, results[-1] is None,
                 "exp(-b tau) orientation unexpectedly works too")
        expected = bundle.e0 / root_table(bundle.spec)[0].kinetic
        _require(rec, results[+1] == expected,
                 f"QES gauge constant {results[+1]} != {expected}")
        rec.exact["constant"] = results[+1]
        rec.exact["working_orientation"] = "+1 (exp(+b tau))"
        rec.status = REPORTED  # orientation and constant recorded vs print
    checks.append(_record("gauge/bc1_qes", qes, whitelist_id="qes_gauge_orientation"))

    def ground_energy_sign(rec: CheckRecord):
        rec.exact["printed"] = -(nu2 + nu3 * HALF) ** 2
        rec.exact["engine"] = _conjugated(bundle1)[1]
        rec.status = REPORTED
        rec.details = ("square spectrum E_p = beta^2 (p + nu2 + nu3/2)^2 forces "
                       "the positive sign")
    checks.append(_record("gauge/ground-energy-sign", ground_energy_sign,
                          whitelist_id="ground_energy_sign"))

    for N, wid in ((2, "bc2_potential_printed"), (3, "bc3_potential_printed")):
        def run(rec: CheckRecord, N=N):
            bundle = bcn[N]
            engine = bundle.rational_potential
            printed = bcn_rational_potential_printed(N, nu, nu2, nu3)
            rec.status = REPORTED if engine != printed else PASS
            rec.details = "wall-term coefficients corrected by exact partial fractions"
            # the engine potential must match the Cartesian sums pointwise
            pts = cart.sample_alcove(bundle.spec, 10, seed + N)
            dps = int(config.get("dps", 40))
            with mp.workdps(dps):
                ground = cart.CheckGround(bundle.spec)
                shared = cart.SharedMonomials([engine.num, engine.den])
                worst = mp.mpf(0)
                for x in pts:
                    monomials = shared.at(ground.invariants(x))
                    vtau = shared.value(0, monomials) / shared.value(1, monomials)
                    vcart = ground.potential(x)
                    worst = max(worst, abs(vtau - vcart) / max(1, abs(vcart)))
                if not _require(rec, worst < mpmath.mpf(10) ** (10 - dps),
                                f"potential mismatch {worst}"):
                    return
                rec.numeric["max_relative_mismatch"] = mpmath.nstr(worst, 3)
        checks.append(_record(f"gauge/potential-vs-cartesian/bc{N}", run,
                              whitelist_id=wid))
    return checks


# ---------------------------------------------------------------------------
# Cartesian suite
# ---------------------------------------------------------------------------

def suite_cartesian(config: RunConfig) -> list[CheckRecord]:
    seed = int(config.get("seed", 1))
    points = int(config.get("sample_points", 50))
    dps = int(config.get("dps", 40))
    tol = mpmath.mpf(RESIDUAL_TOL)
    checks: list[CheckRecord] = []

    def model_residuals(bundle: ModelBundle, n: int, sample, beta=1):
        """The largest residual over every eigenpair of the level-n spectrum,
        from one pass of exact derivatives (`cart.measured_energies`), each
        point checked against the exact target beta^2 (e0 + kappa eps)."""
        record = spectrum(bundle, n, numeric_check=False)
        pairs = [(entry.eigenvalue, phi) for entry in record.entries
                 for phi in entry.eigenpolynomials]
        energies = cart.measured_energies(bundle, [phi for _, phi in pairs],
                                          sample, beta=beta, dps=dps)
        return max(cart.residual_stats(bundle, eps, measured, beta=beta,
                                       dps=dps).max_abs
                   for (eps, _), measured in zip(pairs, energies))

    def free_particle(rec: CheckRecord):
        bundle = build_bc1(0, 0)
        worst = model_residuals(bundle, 4, cart.sample_alcove(bundle.spec, points,
                                                              seed + 1))
        if _require(rec, worst < mpmath.mpf("1e-8"), f"free residual {worst}"):
            rec.numeric["tolerance"] = "1e-8"
    if _model_wanted(config, "bc1"):
        checks.append(_record("cartesian/bc1/free-particle", free_particle))

        def bc1_residuals(rec: CheckRecord):
            beta = Fraction(6, 5)
            bundle = build_bc1(Fraction(1, 3), Fraction(2, 5))
            sample = cart.sample_alcove(bundle.spec, points, seed + 2, beta)
            worst = model_residuals(bundle, 4, sample, beta)
            _require(rec, worst < tol, f"max residual {worst}")
            rec.numeric["max_residual"] = mpmath.nstr(worst, 3)
        checks.append(_record("cartesian/bc1/residuals", bc1_residuals))

        def bc1_hyperbolic(rec: CheckRecord):
            rng = random.Random(seed + 3)
            sample = [(mpmath.mpf(rng.uniform(0.4, 1.6)),) for _ in range(12)]
            worst = model_residuals(build_bc1(Fraction(1, 3), Fraction(2, 5)), 3,
                                    sample, mpmath.mpc(0, 1))
            _require(rec, worst < tol, f"hyperbolic residual {worst}")
            rec.numeric["max_residual"] = mpmath.nstr(worst, 3)
        checks.append(_record("cartesian/bc1/hyperbolic", bc1_hyperbolic))

        def fd_order(rec: CheckRecord):
            bundle = build_bc1(0, 0)
            record = spectrum(bundle, 3, numeric_check=False)
            phi = [e for e in record.entries if e.eigenvalue == 9][0].eigenpolynomials[0]
            order = cart.fd_convergence_order(bundle, Fraction(9), phi,
                                             seed=seed + 4, dps=dps)
            _require(rec, order >= mpmath.mpf("3.5"), f"observed order {order}")
            rec.numeric["observed_order"] = mpmath.nstr(order, 4)
        checks.append(_record("cartesian/fd-convergence-order", fd_order))

        def orthogonality(rec: CheckRecord):
            worst_off = worst_gap = Fraction(0)
            for (a, b) in ((HALF, HALF), (Fraction(1), Fraction(2)),
                           (Fraction(3, 2), HALF)):
                max_off, min_norm, norm_gap = orthogonality_check(a, b, 8)
                _require(rec, min_norm > 0, "non-positive diagonal norm")
                worst_off = max(worst_off, max_off)
                worst_gap = max(worst_gap, norm_gap)
            _require(rec, worst_off == 0, f"off-diagonal product {worst_off}")
            _require(rec, worst_gap == 0, f"norm off its closed form by {worst_gap}")
            rec.numeric["max_offdiag"] = str(worst_off)
            rec.numeric["max_norm_gap"] = str(worst_gap)
        checks.append(_record("cartesian/orthogonality", orthogonality))

        def periodicity(rec: CheckRecord):
            bundle = build_bc1(Fraction(1, 3), Fraction(2, 5))
            worst = cart.periodicity_check(bundle, seed=seed + 5, dps=dps)
            _require(rec, worst < mpmath.mpf(10) ** (10 - dps),
                     f"periodicity defect {worst}")
        checks.append(_record("cartesian/periodicity", periodicity))

    def exact_target_residuals(rec: CheckRecord, bundle: ModelBundle, n: int):
        worst = model_residuals(bundle, n, cart.sample_alcove(bundle.spec, points,
                                                              seed + 6))
        _require(rec, worst < tol, f"max residual {worst}")
        rec.exact["e0"] = bundle.e0
        rec.numeric["max_residual"] = mpmath.nstr(worst, 3)

    if _model_wanted(config, "sutherland"):
        checks.append(_record(
            "cartesian/sutherland3/residuals",
            lambda rec: exact_target_residuals(
                rec, build_sutherland(3, Fraction(1, 2)), 2)))

        def a2_identity(rec: CheckRecord):
            dev = cart.a2_groundstate_identity(Fraction(1, 2), 20, seed + 7, dps=dps)
            _require(rec, dev < mpmath.mpf(10) ** (10 - dps), f"relative deviation {dev}")
            rec.numeric["max_relative_deviation"] = mpmath.nstr(dev, 3)
            rec.exact["ratio_constant"] = "64^-nu"
        checks.append(_record("cartesian/a2-ground-identity", a2_identity,
                              whitelist_id="sutherland_ground_power"))

    if _model_wanted(config, "bcn"):
        checks.append(_record(
            "cartesian/bc2/residuals",
            lambda rec: exact_target_residuals(
                rec, build_bcn(2, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), 2)))

    if _model_wanted(config, "g2"):
        checks.append(_record(
            "cartesian/g2/residuals",
            lambda rec: exact_target_residuals(
                rec, build_g2(Fraction(1, 2), Fraction(1, 3)), 2)))
    return checks


# ---------------------------------------------------------------------------
# TTW suite
# ---------------------------------------------------------------------------

def suite_ttw(config: RunConfig) -> list[CheckRecord]:
    seed = int(config.get("seed", 1))
    points = int(config.get("sample_points", 50))
    dps = int(config.get("dps", 40))
    ctol = mpmath.mpf(CONSTANCY_TOL)
    checks: list[CheckRecord] = []
    base = dict(nu2=Fraction(1, 2), nu3=Fraction(1, 3), beta=Fraction(3, 2),
                omega=Fraction(1))

    def constancy(rec: CheckRecord, desc, expect_pass=True):
        st = cart.ttw_ground_check(desc, npoints=points, seed=seed + 8, dps=dps)
        if not _require(rec, len(st.residuals) >= 2,
                        f"constancy needs 2 points, {len(st.residuals)} left after skips"):
            return
        ratio = st.std / abs(st.mean)
        rec.numeric["constancy_ratio"] = mpmath.nstr(ratio, 3)
        rec.numeric["e0_fit"] = mpmath.nstr(st.mean, 12)
        if expect_pass:
            _require(rec, ratio < ctol, f"constancy ratio {ratio}")
        else:
            _require(rec, ratio > ctol * 100,
                     "printed factor unexpectedly satisfies the equation")
            rec.status = REPORTED if rec.status == PASS else rec.status

    checks.append(_record("ttw/plain/consistent", lambda rec: constancy(
        rec, ttw_models("TTW", **base))))

    def plain_printed_nu3zero(rec: CheckRecord):
        params = dict(base, nu3=Fraction(0), convention="printed")
        rec.details = "printed factor is exact when the half-angle coupling vanishes"
        constancy(rec, ttw_models("TTW", **params))
    checks.append(_record("ttw/plain/printed-nu3-zero", plain_printed_nu3zero))

    checks.append(_record(
        "ttw/plain/printed-defect", lambda rec: constancy(
            rec, ttw_models("TTW", **dict(base, convention="printed")),
            expect_pass=False),
        whitelist_id="ttw_radial_power"))

    checks.append(_record("ttw/sextic/n0", lambda rec: constancy(
        rec, ttw_models("TTW_QES_RADIAL", a=Fraction(1, 2), **base))))

    checks.append(_record("ttw/angular/m0", lambda rec: constancy(
        rec, ttw_models("TTW_QES_ANGULAR", b=Fraction(2, 5), **base))))

    checks.append(_record("ttw/full/n0m0", lambda rec: constancy(
        rec, ttw_models("TTW_QES_FULL", a=Fraction(1, 2), b=Fraction(2, 5), **base))))

    checks.append(_record(
        "ttw/full/printed-defect", lambda rec: constancy(
            rec, ttw_models("TTW_QES_FULL", a=Fraction(1, 2), b=Fraction(2, 5),
                            convention="printed", **base),
            expect_pass=False),
        whitelist_id="qes_gauge_orientation"))

    def degeneration_b0(rec: CheckRecord):
        full = ttw_models("TTW_QES_FULL", a=Fraction(1, 2), b=Fraction(0), **base)
        sextic = ttw_models("TTW_QES_RADIAL", a=Fraction(1, 2), **base)
        st1 = cart.ttw_ground_check(full, npoints=20, seed=seed + 9, dps=dps)
        st2 = cart.ttw_ground_check(sextic, npoints=20, seed=seed + 9, dps=dps)
        gap = abs(st1.mean - st2.mean)
        _require(rec, gap < mpmath.mpf("1e-8"), f"E0 mismatch {gap}")
        rec.numeric["e0_gap"] = mpmath.nstr(gap, 3)
    checks.append(_record("ttw/degeneration/b-to-0", degeneration_b0))

    def degeneration_a0(rec: CheckRecord):
        tiny = Fraction(1, 10 ** 12)
        sextic = ttw_models("TTW_QES_RADIAL", a=tiny, **base)
        plain = ttw_models("TTW", **base)
        with mp.workdps(dps):
            grounds = cart.TTWGround(sextic, dps), cart.TTWGround(plain, dps)
            worst = mp.mpf(0)
            for (r, phi) in cart.ttw_sample(plain, 20, seed + 10):
                v_sextic, v_plain = (g.potential(r, phi) for g in grounds)
                f_sextic, f_plain = (g.factor(r, phi) for g in grounds)
                worst = max(worst, abs(v_sextic - v_plain), abs(f_sextic - f_plain))
            _require(rec, worst < mpmath.mpf("1e-8"), f"degeneration gap {worst}")
            rec.numeric["max_gap"] = mpmath.nstr(worst, 3)
    checks.append(_record("ttw/degeneration/a-to-0", degeneration_a0))

    def qes_b0_a0_reduction(rec: CheckRecord):
        full = ttw_models("TTW_QES_FULL", a=Fraction(1, 10 ** 12), b=Fraction(0), **base)
        plain = ttw_models("TTW", **base)
        with mp.workdps(dps):
            full_ground, plain_ground = cart.TTWGround(full, dps), cart.TTWGround(plain, dps)
            worst = mp.mpf(0)
            for (r, phi) in cart.ttw_sample(plain, 12, seed + 11):
                worst = max(worst, abs(full_ground.potential(r, phi)
                                       - plain_ground.potential(r, phi)))
            _require(rec, worst < mpmath.mpf("1e-8"), f"potential gap {worst}")
    checks.append(_record("ttw/potential/b0-a0-reduction", qes_b0_a0_reduction))
    return checks


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

SUITES = {
    "flags": suite_flags,
    "algebra": suite_algebra,
    "pi": suite_pi,
    "gauge": suite_gauge,
    "cartesian": suite_cartesian,
    "ttw": suite_ttw,
    "spectral": suite_spectral,
}


def run_suite(name: str, config: RunConfig) -> VerificationReport:
    if name == "all":
        checks: list[CheckRecord] = []
        for suite_name in sorted(SUITES):
            checks.extend(SUITES[suite_name](config))
    elif name in SUITES:
        checks = SUITES[name](config)
    else:
        raise EngineError(f"unknown suite {name!r}")
    whitelist = load_whitelist()
    for check in checks:
        if check.status == REPORTED and (check.whitelist_id not in whitelist):
            check.status = FAIL
            check.details = (check.details + "; " if check.details else "") + \
                "offset not covered by the whitelist"
    return VerificationReport(config=config, checks=checks)
