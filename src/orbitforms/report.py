"""Run configuration, verification reports, whitelist and result cache.

Reports are deterministic for a fixed (config, seed): checks are sorted by
name, exact values are serialized as rational strings that round-trip, and
wall-clock timing is excluded unless explicitly requested (it would break
byte-identity).  JSON is the canonical format; CSV is a lossy convenience
export for spectra only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Mapping

from . import __version__
from .errors import DomainError

SCHEMA = "orbit-forms/1"
CACHE_ENV = "ORBITFORMS_CACHE"

_CONFIG_FIELDS = {
    "command": str,
    "suite": str,
    "model": str,
    "N": int,
    "nu": str, "nu2": str, "nu3": str, "mu": str,
    "b": str,
    "n": int,
    "f": str,
    "seed": int,
    "tuples": int,
    "sample_points": int,
    "dps": int,
    "format": str,
    "out": str,
    "cache_dir": str,
    "numeric_check": bool,
    "include_timings": bool,
}

MODELS = ("bc1", "bc1_qes", "sutherland", "bcn", "g2", "all")

# Far above every level the suites ship (g2 n=10, bcn N=4, 50 sample points,
# 60 digits), so that a huge value is refused before any work starts.
CEILINGS = {"n": 40, "N": 10, "tuples": 100, "sample_points": 1000, "dps": 500}
# A sweep of `verify --suite cartesian|ttw|gauge --sample-points 2 --dps d`,
# d = 1..20, ended in 0.35 s or less at every d, with exit 3 or 0.
FLOORS = {"tuples": 1, "sample_points": 1, "dps": 1}
# Values under those ceilings can still ask for a huge flag (bcn N=10 n=40
# has ~1e10 monomials), so spectrum also refuses a flag above this dimension.
# The time grows about as dim^2.2 to dim^2.3, and with the denominators of
# the couplings.  One run each on 2 cores, numeric check on, at the default
# zero couplings and at nu, nu2, nu3 = 1/2, 1/3, 1/5: Sutherland N=6 n=6
# (462 monomials) takes 0.7 s and 1.1 s; bcn N=6 n=6 (924), the slowest
# admitted query timed, 18 s and 56 s; bcn N=2 n=40 (861) 7 s at 101 MB and
# 25 s at 325 MB peak RSS.  2000 monomials would take ~2 and ~6 min.
FLAG_DIM_CEILING = 1000

_DEFAULTS = {
    "seed": 1,
    "tuples": 5,
    "sample_points": 50,
    "dps": 40,
    "format": "json",
    "numeric_check": True,
    "include_timings": False,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated key-value configuration; exact parameters stay strings."""

    values: Mapping[str, object]

    @classmethod
    def from_items(cls, items: Mapping[str, object]) -> "RunConfig":
        clean: dict[str, object] = dict(_DEFAULTS)
        for key, raw in items.items():
            if raw is None:
                continue
            if key not in _CONFIG_FIELDS:
                raise DomainError(f"unknown configuration key {key!r}")
            typ = _CONFIG_FIELDS[key]
            if typ is bool and isinstance(raw, str):
                lowered = raw.strip().lower()
                if lowered not in ("true", "false", "0", "1"):
                    raise DomainError(f"bad boolean for {key!r}: {raw!r}")
                clean[key] = lowered in ("true", "1")
            else:
                try:
                    clean[key] = typ(raw)
                except (TypeError, ValueError) as exc:
                    raise DomainError(f"bad value for {key!r}: {raw!r}") from exc
        for key in ("nu", "nu2", "nu3", "mu", "b"):
            if key in clean:
                try:
                    Fraction(clean[key])   # must round-trip exactly
                except (ValueError, ZeroDivisionError) as exc:
                    raise DomainError(
                        f"bad rational for {key!r}: {clean[key]!r}") from exc
        if "model" in clean and clean["model"] not in MODELS:
            raise DomainError(f"unknown model {clean['model']!r}; "
                              f"expected one of {', '.join(MODELS)}")
        for key, low in FLOORS.items():
            if clean[key] < low:
                raise DomainError(f"{key} must be at least {low}, got {clean[key]}")
        if clean.get("suite") in ("ttw", "all") and clean["sample_points"] < 2:
            raise DomainError(f"the ttw suite tests constancy, which needs at least "
                              f"2 sample points, got {clean['sample_points']}")
        for key, top in CEILINGS.items():
            if key in clean and clean[key] > top:
                raise DomainError(f"{key} must be at most {top}, got {clean[key]}")
        return cls(clean)

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def fraction(self, key: str, default=None) -> Fraction | None:
        raw = self.values.get(key)
        if raw is None:
            return Fraction(default) if default is not None else None
        return Fraction(str(raw))

    # where the report goes is not part of what it says
    _NON_SEMANTIC = ("out", "cache_dir")

    def canonical(self) -> dict:
        return {k: self.values[k] for k in sorted(self.values)
                if k not in self._NON_SEMANTIC}

    def digest(self) -> str:
        """Cache key: the config, the schema, the program version, the
        whitelist and the bytes of the program (`_source_digest`), so a
        changed program or whitelist never reads an old entry, also when
        the version string stayed.  Computed once per config (_digest)."""
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        payload = json.dumps({"schema": SCHEMA, "version": __version__,
                              "whitelist": _whitelist_text(),
                              "source": _source_digest(),
                              "config": self.canonical()},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value text; '#' starts a comment; unknown keys rejected later."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(
            f"cannot read config file {path}: {exc.strerror or exc}") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DomainError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Check records and the verification report
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"
REPORTED = "reported-offset"


@dataclass
class CheckRecord:
    name: str
    status: str
    exact: dict = field(default_factory=dict)
    numeric: dict = field(default_factory=dict)
    witness: object = None
    details: str = ""
    whitelist_id: str | None = None
    timing_ms: float | None = None

    def as_json(self, include_timings: bool) -> dict:
        payload = {
            "name": self.name,
            "status": self.status,
            "exact": {k: str(v) for k, v in sorted(self.exact.items())},
            "numeric": {k: str(v) for k, v in sorted(self.numeric.items())},
            "witness": _jsonable(self.witness),
            "details": self.details,
            "whitelist_id": self.whitelist_id,
        }
        if include_timings and self.timing_ms is not None:
            payload["timing_ms"] = round(self.timing_ms, 3)
        return payload


def _jsonable(value):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


@dataclass
class VerificationReport:
    config: RunConfig
    checks: list[CheckRecord]

    def summary(self) -> dict:
        counts = {PASS: 0, FAIL: 0, REPORTED: 0}
        for c in self.checks:
            counts[c.status] = counts.get(c.status, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return all(c.status in (PASS, REPORTED) for c in self.checks)

    def as_json(self) -> dict:
        include_timings = bool(self.config.get("include_timings"))
        return {
            "schema": SCHEMA,
            "command": self.config.get("command", "verify"),
            "config": self.config.canonical(),
            "checks": [c.as_json(include_timings)
                       for c in sorted(self.checks, key=lambda c: c.name)],
            "summary": self.summary(),
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.as_json(), sort_keys=True, indent=1).encode()


# ---------------------------------------------------------------------------
# Whitelist of recorded print-vs-engine offsets
# ---------------------------------------------------------------------------

@functools.cache   # package data: read once per process
def _whitelist_text() -> str:
    return resources.files("orbitforms").joinpath("data/whitelist.json").read_text()


@functools.cache   # the program's own bytes: read once per process
def _source_digest() -> str:
    """sha256 over the package's .py and data files, each by its path in
    the package and its length, in sorted order."""
    root = Path(__file__).parent
    h = hashlib.sha256()
    for path in sorted([*root.glob("*.py"), *root.glob("data/*")]):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def load_whitelist() -> dict:
    return json.loads(_whitelist_text())["entries"]


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

def cache_dir(config: RunConfig) -> Path | None:
    explicit = config.get("cache_dir")
    if explicit:
        return Path(str(explicit))
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


# An entry is the JSON object {"schema": SCHEMA, "payload": <output text>}.
# The payload may be CSV, so the entry wraps it instead of being it.

def cache_lookup(config: RunConfig) -> bytes | None:
    """The cached output for this config, or None on a miss.  A missing or
    unreadable entry, one that is not JSON and one with another schema are
    all misses."""
    directory = cache_dir(config)
    if directory is None:
        return None
    try:
        entry = json.loads((directory / f"{config.digest()}.json").read_bytes())
    except (OSError, ValueError):
        return None
    if (not isinstance(entry, dict) or entry.get("schema") != SCHEMA
            or not isinstance(entry.get("payload"), str)):
        return None
    return entry["payload"].encode()


def cache_store(config: RunConfig, payload: bytes) -> None:
    """Write the entry to a temporary file and rename it into place, so a
    reader sees the whole entry or none.  A directory that cannot be
    written is a DomainError, like any other bad path the user gives."""
    directory = cache_dir(config)
    if directory is None:
        return
    path = directory / f"{config.digest()}.json"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(json.dumps({"schema": SCHEMA,
                                        "payload": payload.decode()}).encode())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write to cache directory {directory}: "
                          f"{exc.strerror or exc}") from None
