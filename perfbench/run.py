"""orbitforms benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
        [--out results.jsonl] [--spans spans.jsonl]

Run from a checkout; the program is imported from its ``src`` directory.
Workloads (one client, closed loop: each CLI call starts when the previous
one returns; every call goes through ``orbitforms.cli.main`` in this process):

  exact-suites      verify --suite flags|algebra|pi|gauge|spectral
  oracle-suites     verify --suite cartesian|ttw
  spectrum-queries  seeded spectrum calls over every family, a fresh
                    --cache-dir per pass, a quarter of them repeats

A pass runs the workload's calls once; passes repeat while the next one is
expected to end within ``--seconds`` (at least one pass).  Every output is
checked (see gate.py).  Call times are scaled to a reference host speed
(see HostSpeed).  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` spends half the time untraced and half traced
and prints the per-layer metrics.  The last line of standard output is the
JSON result.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from spans import ROOT_SPAN, Tracer, layer_keys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

VERIFY_SUITES = {
    "exact-suites": ("flags", "algebra", "pi", "gauge", "spectral"),
    "oracle-suites": ("cartesian", "ttw"),
}
# The oracle suites sample 10 points per check instead of the shipped 50, so
# that a pass takes ~9 s and a run holds several passes.
VERIFY_ARGS = {"cartesian": ["--sample-points", "10"], "ttw": ["--sample-points", "10"]}
WORKLOADS = tuple(VERIFY_SUITES) + ("spectrum-queries",)
ALL_SUITES = sorted(s for suites in VERIFY_SUITES.values() for s in suites)

# Spectrum levels per (family, N), from 1 (0 for bc1_qes) up to the value:
# each suite's largest level, except where one query takes seconds (bcn N=3
# n=4, bcn N=4 n=3, g2 n>7).
LADDER = {("bc1", None): 12, ("bc1_qes", None): 6, ("sutherland", 2): 6,
          ("sutherland", 3): 5, ("sutherland", 4): 4, ("sutherland", 5): 3,
          ("bcn", 1): 6, ("bcn", 2): 5, ("bcn", 3): 3, ("bcn", 4): 2,
          ("g2", None): 7}
# Levels whose flag has at least HEAVY_DIM monomials are asked once, with the
# parameters the suites ship, so the costly tail is the same on every seed.
# The others are asked twice, each time with parameters drawn from the seed,
# so that a pass has enough queries for a 90th percentile with more than ten
# samples above it.
HEAVY_DIM = 10
SHIPPED = {"bc1": {"nu2": "1/3", "nu3": "2/5"},
           "bc1_qes": {"nu2": "1/3", "nu3": "1/5", "b": "2/3"},
           "sutherland": {"nu": "1/2"},
           "bcn": {"nu": "1/2", "nu2": "1/3", "nu3": "1/5"},
           "g2": {"nu": "1/2", "mu": "1/3"}}

# Host speed.  On a host whose cores other guests share, the same work can
# run up to 2x slower, in CPU time as well as wall time, and the speed can
# change within a second.  So a fixed exact elimination (stdlib Fractions
# only, none of the program's code) is timed at every call boundary and,
# from a SIGALRM handler in this same thread, every REF_EVERY_S inside the
# calls of untraced passes; the handler's time is taken off the call's time.
# A call's time is scaled by REF_S over the median of the reference times
# taken during it and nearest to it, at least REF_MIN of them.  Every call
# time the benchmark reports is thus in seconds on a host where the
# reference takes REF_S; samples keep the unscaled times as well.
REF_S = 0.0045
REF_EVERY_S = 0.25
REF_MIN = 6
_REF_RNG = random.Random(0)
REF_MATRIX = [[Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9))
               for _ in range(12)] for _ in range(12)]

SETUP_REPEATS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from orbitforms.cli import main; sys.exit(main(['table']))")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rand_fraction(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, 5), rng.choice((2, 3, 5, 7)))
               + rng.randint(0, 1))


def _query(family, N, n, params) -> dict:
    q = {"model": family, "n": str(n), **params}
    if N is not None:
        q["N"] = str(N)
    return q


def spectrum_queries(seed: int) -> list[dict]:
    """The queries of one pass: distinct ones in seeded order, with a
    quarter of the total repeating an earlier one."""
    from gate import build_model
    rng = random.Random(seed)
    distinct = []
    for (fam, N), top in LADDER.items():
        for n in range(0 if fam == "bc1_qes" else 1, top + 1):
            query = _query(fam, N, n, SHIPPED[fam])
            if build_model(query).flag(n).dim >= HEAVY_DIM:
                distinct.append(query)
                continue
            for _ in range(2):
                distinct.append(_query(fam, N, n, {k: _rand_fraction(rng)
                                                   for k in SHIPPED[fam]}))
    rng.shuffle(distinct)
    repeats = set(rng.sample(range(1, len(distinct)), len(distinct) // 3))
    out = []
    for i, query in enumerate(distinct):
        if i in repeats:
            out.append(rng.choice(distinct[:i]))
        out.append(query)
    return out


def _argv(query: dict) -> list[str]:
    argv = ["spectrum"]
    for key in ("model", "N", "nu", "nu2", "nu3", "mu", "b", "n"):
        if key in query:
            argv += [f"--{key}", query[key]]
    return argv


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

class HostSpeed:
    """Reference timings along one pass, as (start, seconds)."""

    def __init__(self):
        from gate import rank
        self.rank = rank
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.rank(REF_MATRIX)
        self.samples.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def during(self):
        """Sample every REF_EVERY_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, end: float) -> float:
        """Seconds the samples taken in [start, end] took."""
        return sum(d for t, d in self.samples if start <= t <= end)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median of the samples taken in [start, end] and
        the nearest others, REF_MIN at least."""
        def distance(sample):
            return max(start - sample[0], sample[0] - end, 0)
        near = sorted(self.samples, key=distance)
        count = max(REF_MIN, sum(distance(x) == 0 for x in near))
        return REF_S / statistics.median(d for _, d in near[:count])


def call_cli(main, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), time.perf_counter() - start


class Workload:
    def __init__(self, name: str, seed: int, scratch: Path):
        from orbitforms.cli import main
        self.name, self.seed, self.scratch, self.main = name, seed, scratch, main
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.margin = 0.0
        self._checked: dict[tuple, bool] = {}
        self._first: list[tuple] | None = None
        if name == "spectrum-queries":
            self.calls = [("spectrum", q) for q in spectrum_queries(seed)]
        else:
            self.calls = [("verify", s) for s in VERIFY_SUITES[name]]
            expected = json.loads((HERE / "expected_checks.json").read_text())
            self.expected = {s: expected[s] for s in VERIFY_SUITES[name]}

    def run_pass(self, tracer=None) -> list[tuple]:
        """One pass; returns (kind, item, code, stdout, seconds, unscaled
        seconds) per call.

        An output equal to the first pass's output of the same call is
        replaced by that one, so later passes hold no copies and the peak
        memory stays that of the program, whatever the number of passes."""
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        speed = HostSpeed()
        speed.sample()
        results, windows = [], []
        try:
            for i, (kind, item) in enumerate(self.calls):
                if kind == "verify":
                    argv = (["verify", "--suite", item, "--seed", str(self.seed)]
                            + VERIFY_ARGS.get(item, []))
                else:
                    argv = _argv(item) + ["--cache-dir", cache]
                span = tracer.open(ROOT_SPAN) if tracer else None
                start = time.perf_counter()
                with speed.during() if tracer is None else contextlib.nullcontext():
                    code, out, seconds = call_cli(self.main, argv)
                if tracer:
                    tracer.close(span)
                if self._first is not None and out == self._first[i][3]:
                    out = self._first[i][3]
                windows.append((start, start + seconds))
                results.append((kind, item, code, out,
                                seconds - speed.inside(start, start + seconds)))
                speed.sample()
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        results = [r[:4] + (r[4] * speed.scale(*window), r[4])
                   for r, window in zip(results, windows)]
        if self._first is None:
            self._first = results
        return results

    def check(self, results) -> None:
        """Gate every output of a pass; identical outputs are checked once."""
        import gate
        first_bytes: dict[tuple, str] = {}
        for kind, item, code, out, *_ in results:
            key = (kind, json.dumps(item, sort_keys=True))
            if kind == "verify":
                self.attempted += len(self.expected[item])
                memo = self._checked.get((key, code, out))
                if memo is None:
                    failed, errors = gate.check_verify(code, out, self.expected[item])
                    self.errors += errors
                    if code in (0, 3):
                        self.margin = max(self.margin, gate.margin_max(out))
                    memo = self._checked[(key, code, out)] = failed
                self.failed += memo
                continue
            self.attempted += 1
            if key in first_bytes:
                if out != first_bytes[key]:
                    self.failed += 1
                    self.errors.append(f"{_argv(item)}: cache hit bytes differ from the miss")
                continue
            first_bytes[key] = out
            ok = self._checked.get((key, code, out))
            if ok is None:
                errors = gate.check_spectrum(item, code, out)
                self.errors += [f"{_argv(item)}: {e}" for e in errors]
                ok = self._checked[(key, code, out)] = not errors
            self.failed += not ok


def run_budget(seconds: float, one_pass) -> list:
    """Passes while the next one is expected to end within the budget."""
    passes, durations, start = [], [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(one_pass())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return passes


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing orbitforms and running
    `table`; the first run only warms the bytecode cache.  These times are
    not scaled: process start and imports slow down less than the reference
    when the host is busy, so scaling them would add noise, not remove it."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or json.loads(proc.stdout)["command"] != "table":
            raise RuntimeError(f"setup call failed: {proc.stderr.strip()}")
        if i:
            times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def call_times(passes: list) -> list[float]:
    """Median time of each call over the passes (every pass makes the same
    calls), which damps the slow phases of a shared machine."""
    return [statistics.median(r[4] for r in same) for same in zip(*passes)]


def end_to_end(work: Workload, passes: list, setup: list[float],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """(values, samples) of the untraced metrics."""
    calls_ms = [t * 1000 for t in call_times(passes)]
    values = {
        "setup_s": statistics.median(setup),
        "run_s": sum(calls_ms) / 1000,
        "query_ms.p50": statistics.median(calls_ms),
        "query_ms.p90": _p90(calls_ms),
        "pass_ratio": 1 - work.failed / work.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": setup, "run_s": [sum(r[4] for r in p) for p in passes],
               "query_ms": calls_ms, "calls_s": [[r[4] for r in p] for p in passes],
               "unscaled_run_s": [sum(r[5] for r in p) for p in passes]}
    return values, samples


def per_layer(work: Workload, plain: list, traced: list, tracer, bounds) -> dict:
    """Per-layer metrics of the traced pass with the median total time (so
    its self times, scaled like the pass, add up to trace.run_s); suite wall
    times come from the untraced passes."""
    totals = [sum(r[4] for r in p) for p in traced]
    pick = sorted(range(len(traced)), key=totals.__getitem__)[(len(traced) - 1) // 2]
    scale = totals[pick] / sum(r[5] for r in traced[pick])
    values: dict[str, float] = dict.fromkeys(layer_keys(), 0)
    for name, entry in tracer.summary(*bounds[pick]).items():
        for key, value in entry.items():
            values[f"{name}.{key}"] = value * scale if key == "self_s" else value
    lookups = values.get("report.cache_lookup.calls", 0)
    values["report.cache.hit_ratio"] = (
        values.get("report.cache_lookup.hits", 0) / lookups if lookups else 0.0)
    values["trace.run_s"] = totals[pick]
    values["trace.overhead_ratio"] = (statistics.median(totals) /
                                      statistics.median(sum(r[4] for r in p) for p in plain))
    values["suites.margin_max"] = work.margin
    for suite in ALL_SUITES:
        walls = [r[4] for p in plain for r in p if r[0] == "verify" and r[1] == suite]
        values[f"cli.verify.{suite}.wall_s"] = statistics.median(walls) if walls else 0.0
    return values


def select(values: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans_path: str | None, scratch: Path) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = Workload(name, seed, scratch)
    if not trace:
        setup = measure_setup()
        passes = run_budget(seconds, work.run_pass)
        # read before the gate runs, so the gate's own work is not counted
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for p in passes:
            work.check(p)
        values, samples = end_to_end(work, passes, setup, peak_rss_mb)
        metrics = select(values, bench["end_to_end"])
    else:
        tracer = Tracer()
        plain = run_budget(seconds / 2, work.run_pass)
        bounds = []

        def traced_pass():
            lo = len(tracer.starts)
            tracer.install()
            try:
                results = work.run_pass(tracer)
            finally:
                tracer.uninstall()
            bounds.append((lo, len(tracer.starts)))
            return results

        traced = run_budget(seconds / 2, traced_pass)
        for p in plain + traced:
            work.check(p)
        values = per_layer(work, plain, traced, tracer, bounds)
        samples = {"passes_untraced": len(plain), "passes_traced": len(traced),
                   "spans": len(tracer.starts)}
        metrics = select(values, bench["per_layer"])
        if spans_path:
            tracer.write(spans_path)
    for line in work.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": work.failed == 0, "attempted": work.attempted,
              "failed": work.failed, "metrics": metrics}
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "result": result, "samples": samples}


# what each sample list in a record holds, for the printed table
SAMPLE_NOTES = {"setup_s": "median of {n} fresh interpreters",
                "run_s": "sum of per-call medians over {n} passes; pass totals",
                "query_ms": "over {n} calls, each the median over the passes"}


def _describe(record: dict) -> None:
    samples = record["samples"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['result']['attempted']} failed={record['result']['failed']}")
    for name, m in record["result"]["metrics"].items():
        line = f"{name:40s} {m['value']:.6g} {m['unit']}"
        base = name.split(".")[0]
        if base in SAMPLE_NOTES and base in samples:
            q1, _, q3 = quartiles(samples[base])
            note = SAMPLE_NOTES[base].format(n=len(samples[base]))
            line += f"  ({note} q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    others = {k: v for k, v in samples.items() if not isinstance(v, list)}
    if others:
        print("# " + ", ".join(f"{k}={v}" for k, v in others.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record to this JSON-lines file")
    parser.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args(argv)

    if not (SRC / "orbitforms" / "cli.py").is_file():
        print(f"error: no orbitforms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ORBITFORMS_CACHE", None)   # the program must not see a cache
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        started = time.time()
        record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.spans, scratch)
        record["started"] = started
        records.append(record)
        _describe(record)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
    with contextlib.suppress(OSError):
        scratch.rmdir()
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
