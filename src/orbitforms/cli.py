"""Command-line interface: spectrum computation, verification suites and the
characteristic-vector table dump.

Exact parameters are accepted as "p/q" strings (never floats).  Reports are
deterministic for a fixed (config, seed); cached runs return byte-identical
output (ORBITFORMS_CACHE or --cache-dir).

Exit codes: 0 success, 2 invalid configuration (among them a --f flag the
model does not preserve), 3 failed checks or internal inconsistency, 141
(128 + SIGPIPE, as a shell reports a command ended by a closed pipe) when
standard output is closed before the output is written, with nothing
printed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from pathlib import Path

from .errors import (DomainError, EngineError, FlagViolation, FormulaMismatch,
                     InconsistencyError)
from .models import (build_bc1, build_bc1_qes, build_bcn, build_g2,
                     build_sutherland, char_vector_table)
from .poly import flag_dimension
from .report import (FLAG_DIM_CEILING, SCHEMA, RunConfig, cache_lookup,
                     cache_store, parse_config_file)
from .spectral import qes_spectrum, spectrum
from .suites import SUITES, run_suite

SUITE_NAMES = tuple(sorted(SUITES)) + ("all",)
EXIT_CLOSED_STDOUT = 141
# argparse reads "-1/2" as an option string, since only plain negative
# numbers look numeric to it
_NEGATIVE_RATIONAL = re.compile(r"-\d+/\d+")


def _glue_negative_rationals(argv: list[str]) -> list[str]:
    """`--nu2 -1/2` as `--nu2=-1/2`, the form argparse takes as a value."""
    out: list[str] = []
    for arg in argv:
        if (out and _NEGATIVE_RATIONAL.fullmatch(arg)
                and out[-1].startswith("--") and "=" not in out[-1]):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it as
    it was, so every call of `main` may share it."""
    parser = argparse.ArgumentParser(
        prog="orbit-forms",
        description="Exact engine for trigonometric models in orbit-space "
                    "coordinates: spectra, flags, hidden algebras, integrals "
                    "and numerical cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--cache-dir", dest="cache_dir")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dps", type=int, default=None)

    sp = sub.add_parser("spectrum", help="exact spectrum on the level-n flag")
    common(sp)
    sp.add_argument("--model", required=False,
                    choices=("bc1", "bc1_qes", "sutherland", "bcn", "g2"))
    sp.add_argument("--N", type=int, default=None)
    for key in ("nu", "nu2", "nu3", "mu", "b"):
        sp.add_argument(f"--{key}", default=None, help="exact rational p/q")
    sp.add_argument("--n", type=int, default=None, help="flag level")
    sp.add_argument("--f", default=None, help="characteristic vector, e.g. 1,2")
    sp.add_argument("--no-numeric-check", action="store_true")

    vp = sub.add_parser("verify", help="run a verification suite")
    common(vp)
    vp.add_argument("--suite", required=True, choices=SUITE_NAMES)
    vp.add_argument("--model", default=None)
    vp.add_argument("--tuples", type=int, default=None)
    vp.add_argument("--sample-points", dest="sample_points", type=int, default=None)
    vp.add_argument("--include-timings", action="store_true")

    tp = sub.add_parser("table", help="characteristic-vector table dump")
    common(tp)
    return parser


def _collect_config(args: argparse.Namespace, command: str) -> RunConfig:
    items: dict[str, object] = {}
    if getattr(args, "config", None):
        items.update(parse_config_file(args.config))
    for key in ("model", "N", "nu", "nu2", "nu3", "mu", "b", "n", "f",
                "seed", "dps", "format", "out", "cache_dir", "suite",
                "tuples", "sample_points"):
        value = getattr(args, key, None)
        if value is not None:
            items[key] = value
    if getattr(args, "no_numeric_check", False):
        items["numeric_check"] = False
    if getattr(args, "include_timings", False):
        items["include_timings"] = True
    items["command"] = command
    return RunConfig.from_items(items)


def _emit(config: RunConfig, payload: bytes) -> None:
    out = config.get("out")
    if out:
        try:
            Path(str(out)).write_bytes(payload)
        except OSError as exc:
            raise DomainError(
                f"cannot write --out {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(payload.decode())
        if not payload.endswith(b"\n"):
            sys.stdout.write("\n")
        # a closed pipe shows here, inside `main`, not at interpreter exit
        sys.stdout.flush()


def _drop_stdout() -> None:
    """Point the stdout descriptor at the null device, so that the flush at
    interpreter exit does not meet the closed pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _spectrum_payload(config: RunConfig) -> bytes:
    family = config.get("model")
    if not family:
        raise DomainError("spectrum needs --model")
    n = config.get("n")
    if n is None:
        raise DomainError("spectrum needs --n (flag level)")
    numeric = config.get("numeric_check")
    if family == "bc1":
        bundle = build_bc1(config.fraction("nu2", 0), config.fraction("nu3", 0))
    elif family == "bc1_qes":
        bundle = build_bc1_qes(config.fraction("nu2", 0), config.fraction("nu3", 0),
                               config.fraction("b", 0), int(n))
    elif family == "sutherland":
        if config.get("N") is None:
            raise DomainError("sutherland needs --N")
        bundle = build_sutherland(int(config.get("N")), config.fraction("nu", 0))
    elif family == "bcn":
        if config.get("N") is None:
            raise DomainError("bcn needs --N")
        bundle = build_bcn(int(config.get("N")), config.fraction("nu", 0),
                           config.fraction("nu2", 0), config.fraction("nu3", 0))
    elif family == "g2":
        bundle = build_g2(config.fraction("nu", 0), config.fraction("mu", 0))
    else:
        raise DomainError(f"unknown model {family!r}")

    vector = None
    if config.get("f"):
        text = str(config.get("f"))
        try:
            vector = tuple(int(v) for v in text.split(","))
        except ValueError:
            raise DomainError(
                f"--f must be comma-separated integers, got {text!r}") from None
        if len(vector) != bundle.d:
            raise DomainError(f"--f needs {bundle.d} grades for {family}, "
                              f"got {len(vector)}")
    if family == "bc1_qes" and vector not in (None, (1,)):
        raise DomainError(f"bc1_qes has the single grade 1, got --f {vector[0]}")
    # counted, not enumerated: a huge flag is refused before it is built
    dim = flag_dimension(vector or bundle.char_vector, int(n))
    if dim > FLAG_DIM_CEILING:
        raise DomainError(f"the level-{n} flag has {dim} monomials; spectrum "
                          f"takes at most {FLAG_DIM_CEILING}")

    if family == "bc1_qes":
        record = qes_spectrum(bundle)
        if config.get("format") == "csv":
            return _spectrum_csv((str(val), 1, "") for val in record.eigenvalues)
        entries = [{
            "eigenvalue_numeric": str(val),
            "quantum_index": None,
            "multiplicity": 1,
        } for val in record.eigenvalues]
        body = {
            "schema": SCHEMA,
            "command": "spectrum",
            "config": config.canonical(),
            "model": family,
            "flag": {"d": 1, "f": [1], "n": record.n},
            "exact_trace": str(record.matrix.trace()),
            "max_imag": str(record.max_imag),
            "entries": entries,
        }
        return json.dumps(body, sort_keys=True, indent=1).encode()

    try:
        record = spectrum(bundle, int(n), vector=vector, numeric_check=numeric)
    except FlagViolation as exc:
        if vector in (None, *bundle.flags):   # a flag the model claims
            raise
        raise DomainError(f"{family} does not preserve the flag f={text}: it maps "
                          f"{exc.input_monomial} to {exc.output_monomial}") from None
    entries = []
    for e in record.entries:
        entries.append({
            "eigenvalue": str(e.eigenvalue),
            "quantum_indices": [list(p) for p in e.quantum_indices],
            "multiplicity": e.multiplicity,
            "kernel_dim": e.kernel_dim,
            "eigenpolynomials": [
                {"".join(f"{p}," for p in exps)[:-1] or "0": str(c)
                 for exps, c in poly.terms.items()}
                for poly in e.eigenpolynomials
            ],
        })
    body = {
        "schema": SCHEMA,
        "command": "spectrum",
        "config": config.canonical(),
        "model": family,
        "flag": {"d": record.d, "f": list(record.f), "n": record.n},
        "dim": record.dim,
        "numeric_checked": record.numeric_checked,
        "defective": [str(v) for v in record.defective],
        "entries": entries,
    }
    if config.get("format") == "csv":
        return _spectrum_csv(
            (str(e.eigenvalue), e.multiplicity,
             ";".join(str(tuple(p)) for p in e.quantum_indices))
            for e in record.entries)
    return json.dumps(body, sort_keys=True, indent=1).encode()


def _spectrum_csv(rows) -> bytes:
    """One (eigenvalue, multiplicity, quantum_indices) row per eigenvalue."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["eigenvalue", "multiplicity", "quantum_indices"])
    writer.writerows(rows)
    return buf.getvalue().encode()


def _table_payload(config: RunConfig) -> bytes:
    table = char_vector_table()
    if config.get("format") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["model", "column", "vector"])
        for (model, column), vec in sorted(table.items()):
            writer.writerow([model, column,
                             "" if vec is None else str(vec)])
        return buf.getvalue().encode()
    body = {
        "schema": SCHEMA,
        "command": "table",
        "rows": {f"{model}/{column}": (list(vec) if isinstance(vec, tuple) else vec)
                 for (model, column), vec in sorted(table.items())},
    }
    return json.dumps(body, sort_keys=True, indent=1).encode()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(
        _glue_negative_rationals(sys.argv[1:] if argv is None else list(argv)))
    try:
        config = _collect_config(args, args.command)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        cached = cache_lookup(config)
        if cached is not None:
            _emit(config, cached)
            if args.command == "verify":
                summary = json.loads(cached)["summary"]
                return 0 if summary.get("fail", 0) == 0 else 3
            return 0

        if args.command == "spectrum":
            payload = _spectrum_payload(config)
            cache_store(config, payload)
            _emit(config, payload)
            return 0
        if args.command == "table":
            payload = _table_payload(config)
            cache_store(config, payload)
            _emit(config, payload)
            return 0
        if args.command == "verify":
            report = run_suite(str(config.get("suite")), config)
            payload = report.to_bytes()
            cache_store(config, payload)
            _emit(config, payload)
            summary = report.summary()
            print(f"pass={summary['pass']} reported-offset={summary['reported-offset']} "
                  f"fail={summary['fail']}", file=sys.stderr)
            return 0 if report.ok else 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormulaMismatch, InconsistencyError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:    # the reader went away, as `| head` does
        _drop_stdout()
        return EXIT_CLOSED_STDOUT
    except Exception as exc:  # anything unexpected is an internal inconsistency
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    parser.error("unreachable")
    return 2


if __name__ == "__main__":
    sys.exit(main())
