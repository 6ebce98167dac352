"""In-memory span tracer for the orbitforms benchmark.

`Tracer.install()` wraps the public functions of each orbitforms layer at
every place the program can reach them: the defining module, every module
that imported the name (``spectral.restrict_to_flag`` as well as
``diffop.restrict_to_flag``), and class attributes (``MultiPoly.__mul__``
and its alias ``__rmul__``).  `Tracer.uninstall()` puts the originals back.
The program's source is never modified.

Each wrapped call records one span: name, start, end and the index of the
enclosing span.  Spans stay in flat arrays until the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from math import lcm


def _restrict_dim(args, kwargs, result):
    return args[1].dim


def _charpoly_bits(args, kwargs, result):
    """Largest coefficient bit length of the matrix after clearing denominators."""
    rows = args[0]
    scale = lcm(1, *(x.denominator for row in rows for x in row))
    bits = max((abs(x.numerator * (scale // x.denominator)).bit_length()
                for row in rows for x in row), default=0)
    return bits


def _residual_points(args, kwargs, result):
    sample = args[3] if len(args) > 3 else kwargs["sample"]
    return len(sample)


def _cache_hit(args, kwargs, result):
    return int(result is not None)


# (span name, module, attribute, size).  A size is (key, probe): the probe
# turns one call into a number, kept as a maximum when the key ends in
# "_max" and summed otherwise.
LAYERS = [
    ("poly.mul", "poly", "MultiPoly.__mul__", None),
    ("poly.evaluate", "poly", "MultiPoly.evaluate", None),
    ("diffop.compose", "diffop", "compose", None),
    ("diffop.apply", "diffop", "apply", None),
    ("diffop.restrict_to_flag", "diffop", "restrict_to_flag", ("dim_max", _restrict_dim)),
    ("diffop.preserves_flag", "diffop", "preserves_flag", None),
    ("diffop.gauge_conjugate", "diffop", "gauge_conjugate", None),
    ("linalg.charpoly", "linalg", "charpoly", ("bits_max", _charpoly_bits)),
    ("linalg.nullspace", "linalg", "nullspace", None),
    ("linalg.rref", "linalg", "rref", None),
    ("spectral.spectrum", "spectral", "spectrum", None),
    ("spectral.qes_spectrum", "spectral", "qes_spectrum", None),
    ("spectral.numeric_eigenvalues", "spectral", "numeric_eigenvalues", None),
    ("spectral.orthogonality_check", "spectral", "orthogonality_check", None),
    ("algebra.check_structure", "algebra", "check_structure", None),
    ("algebra.fit_decomposition", "algebra", "fit_decomposition", None),
    ("integrals.annihilation_check", "integrals", "annihilation_check", None),
    ("cartesian.residual_check", "cartesian", "residual_check", ("points", _residual_points)),
    ("cartesian.fit_energy_affine", "cartesian", "fit_energy_affine", None),
    ("cartesian.ttw_ground_check", "cartesian", "ttw_ground_check", None),
    ("cartesian.psi0_cartesian", "cartesian", "psi0_cartesian", None),
    ("cartesian.invariants_map", "cartesian", "invariants_map", None),
    ("cartesian.laplacian_richardson", "cartesian", "laplacian_richardson", None),
    ("report.cache_lookup", "report", "cache_lookup", ("hits", _cache_hit)),
    ("report.cache_store", "report", "cache_store", None),
    ("report.to_bytes", "report", "VerificationReport.to_bytes", None),
]
# every models.build_* constructor shares one span name
BUILD_SPAN = "models.build"
PROBE_SPAN = "trace.probe"
ROOT_SPAN = "cli.main"


def layer_keys() -> list[str]:
    """Every per-layer name a summary can produce, as "<span>.<key>"."""
    keys = []
    for span, _, _, size in LAYERS:
        keys += [f"{span}.calls", f"{span}.self_s"]
        if size:
            keys.append(f"{span}.{size[0]}")
    for span in (BUILD_SPAN, PROBE_SPAN, ROOT_SPAN):
        keys += [f"{span}.calls", f"{span}.self_s"]
    return keys


def _resolve(module, attr):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.sizes: list[tuple[int, str, int]] = []   # (span index, key, value)
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._id(name))
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, size):
        name_id = self._id(name)
        probe_id = self._id(PROBE_SPAN)
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack, sizes, clock = self.stack, self.sizes, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if size is not None:
                # the probe is its own span so no layer's self time pays for it
                name_ids.append(probe_id)
                parents.append(stack[-1])
                starts.append(clock())
                sizes.append((idx, size[0], size[1](args, kwargs, result)))
                ends.append(clock())
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if name.startswith("orbitforms") and mod is not None}
        targets = []
        for span, mod_name, attr, size in LAYERS:
            owner, name = _resolve(mods[f"orbitforms.{mod_name}"], attr)
            targets.append((getattr(owner, name), span, size))
        models = mods["orbitforms.models"]
        for name, value in sorted(vars(models).items()):
            if name.startswith("build_") and callable(value):
                targets.append((value, BUILD_SPAN, None))
        wrappers = {id(fn): (fn, self._wrap(fn, span, size))
                    for fn, span, size in targets}
        # every namespace that can hold a reference: module globals and the
        # dictionaries of classes defined in orbitforms
        spaces = []
        for mod in mods.values():
            spaces.append(mod)
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__.startswith("orbitforms"):
                    spaces.append(value)
        for space in spaces:
            for key, value in list(vars(space).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((space, key, value))
                    setattr(space, key, hit[1])

    def uninstall(self) -> None:
        for space, key, value in reversed(self._patches):
            setattr(space, key, value)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Self time of every span in [lo, hi); spans there must nest inside it."""
        hi = len(self.starts) if hi is None else hi
        own = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                own[p - lo] -= self.ends[i] - self.starts[i]
        return own

    def summary(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per span name: calls, self_s, and the sizes its probe recorded."""
        hi = len(self.starts) if hi is None else hi
        out: dict[str, dict] = {}
        for i, own in zip(range(lo, hi), self.self_times(lo, hi)):
            entry = out.setdefault(self.names[self.name_ids[i]],
                                   {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        for idx, key, value in self.sizes:
            if lo <= idx < hi:
                entry = out[self.names[self.name_ids[idx]]]
                if key.endswith("_max"):
                    entry[key] = max(entry.get(key, 0), value)
                else:
                    entry[key] = entry.get(key, 0) + value
        return out

    def write(self, path) -> None:
        """All spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w") as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name_ids[i]],
                    "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i]}) + "\n")
