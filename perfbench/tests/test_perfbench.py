"""Tests of the benchmark's own machinery: the correctness gate rejects
corrupted outputs and accepts valid ones, the tracer reaches every import
site and accounts for all traced time, and compare gives the right verdicts.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from spans import Tracer, layer_keys  # noqa: E402

from orbitforms import diffop, linalg, spectral  # noqa: E402
from orbitforms.cli import main as cli_main  # noqa: E402
from orbitforms.poly import MultiPoly  # noqa: E402

EXPECTED = json.loads((BENCH / "expected_checks.json").read_text())
SUTHERLAND = {"model": "sutherland", "N": "3", "nu": "2/3", "n": "3"}
QES = {"model": "bc1_qes", "nu2": "1/3", "nu3": "1/5", "b": "2/3", "n": "3"}


def spectrum(query):
    code, out, _ = run.call_cli(cli_main, run._argv(query))
    return code, out


def rewrite(out, edit):
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc)


# -- spectrum gate -----------------------------------------------------------

def test_gate_accepts_a_real_spectrum():
    code, out = spectrum(SUTHERLAND)
    assert code == 0
    assert gate.check_spectrum(SUTHERLAND, code, out) == []


def test_gate_rejects_a_wrong_eigenvalue():
    code, out = spectrum(SUTHERLAND)

    def edit(doc):
        entry = doc["entries"][1]
        entry["eigenvalue"] = str(Fraction(entry["eigenvalue"]) + Fraction(1, 7))
    errors = gate.check_spectrum(SUTHERLAND, code, rewrite(out, edit))
    assert any("multiset" in e for e in errors)


def test_gate_rejects_a_corrupted_eigenpolynomial():
    code, out = spectrum(SUTHERLAND)

    def edit(doc):
        terms = doc["entries"][-1]["eigenpolynomials"][0]
        key = sorted(terms)[0]
        terms[key] = str(Fraction(terms[key]) + 1)
    errors = gate.check_spectrum(SUTHERLAND, code, rewrite(out, edit))
    assert any("apply(h, phi)" in e for e in errors)


def test_gate_accepts_another_basis_of_an_eigenspace():
    code, out = spectrum(SUTHERLAND)
    doc = json.loads(out)
    entry = next(e for e in doc["entries"] if e["kernel_dim"] >= 2)
    a, b = entry["eigenpolynomials"][:2]
    # (a, b) -> (3a + b, b): still a basis of the same eigenspace
    mixed = {k: Fraction(a.get(k, 0)) * 3 + Fraction(b.get(k, 0))
             for k in set(a) | set(b)}
    entry["eigenpolynomials"][0] = {k: str(v) for k, v in mixed.items() if v}
    assert gate.check_spectrum(SUTHERLAND, code, json.dumps(doc)) == []


def test_gate_rejects_dependent_eigenpolynomials():
    code, out = spectrum(SUTHERLAND)

    def edit(doc):
        entry = next(e for e in doc["entries"] if e["kernel_dim"] >= 2)
        entry["eigenpolynomials"][1] = entry["eigenpolynomials"][0]
    errors = gate.check_spectrum(SUTHERLAND, code, rewrite(out, edit))
    assert any("dependent" in e for e in errors)


def test_gate_rejects_an_incomplete_kernel():
    code, out = spectrum(SUTHERLAND)

    def edit(doc):
        entry = next(e for e in doc["entries"] if e["kernel_dim"] >= 2)
        entry["eigenpolynomials"].pop()
        entry["kernel_dim"] -= 1
    errors = gate.check_spectrum(SUTHERLAND, code, rewrite(out, edit))
    assert any("kernel has dimension" in e for e in errors)


def _overstating_rref(real):
    """rref that reports one free column as a pivot: kernels come out short
    but every vector in them is still a true eigenvector."""
    def rref(a):
        red, pivots = real(a)
        free = [c for c in range(len(a[0]) if a else 0) if c not in pivots]
        return red, pivots + free[-1:] if len(free) >= 2 else pivots
    return rref


def _dropping_rref(real):
    """rref that loses its last pivot."""
    def rref(a):
        red, pivots = real(a)
        return red, pivots[:-1]
    return rref


@pytest.mark.parametrize("fault, reason", [(_overstating_rref, "kernel has dimension"),
                                           (_dropping_rref, "exit code")])
def test_gate_rejects_a_faulty_rref_while_it_is_still_patched(monkeypatch, fault, reason):
    # the gate must not lean on the rref it is judging: with the patched
    # rref in its own rank checks it would take the short kernels as right
    monkeypatch.setattr(linalg, "rref", fault(linalg.rref))
    code, out = spectrum(SUTHERLAND)
    errors = gate.check_spectrum(SUTHERLAND, code, out)
    assert errors and all(reason in e for e in errors)


def test_gate_rejects_a_failed_call_and_garbage():
    assert gate.check_spectrum(SUTHERLAND, 3, "") == ["exit code 3"]
    assert gate.check_spectrum(SUTHERLAND, 0, "{truncated")


def test_gate_checks_qes_values_against_the_exact_matrix():
    code, out = spectrum(QES)
    assert gate.check_spectrum(QES, code, out) == []
    ground = {**QES, "n": "0"}
    assert gate.check_spectrum(ground, *spectrum(ground)) == []

    def bad_trace(doc):
        doc["exact_trace"] = str(Fraction(doc["exact_trace"]) + 1)
    assert gate.check_spectrum(QES, code, rewrite(out, bad_trace))

    def edit(doc):
        doc["entries"][0]["eigenvalue_numeric"] = str(
            float(doc["entries"][0]["eigenvalue_numeric"]) * (1 + 1e-9))
    assert gate.check_spectrum(QES, code, rewrite(out, edit))


def test_cache_hit_with_other_bytes_fails(tmp_path):
    work = run.Workload("spectrum-queries", 1, tmp_path)
    code, out = spectrum(SUTHERLAND)
    results = [("spectrum", SUTHERLAND, code, out, 0.1),
               ("spectrum", SUTHERLAND, code, out.replace("2/3", "2/3 "), 0.1)]
    work.check(results)
    assert (work.attempted, work.failed) == (2, 1)
    assert "cache hit" in work.errors[0]


def test_later_passes_hold_no_copies_of_equal_outputs(tmp_path):
    work = run.Workload("spectrum-queries", 1, tmp_path)
    work.calls = [("spectrum", SUTHERLAND), ("spectrum", SUTHERLAND)]
    first, second = work.run_pass(), work.run_pass()
    assert all(a[3] is b[3] for a, b in zip(first, second))
    assert all(len(r) == 6 and r[4] > 0 and r[5] > 0 for r in first + second)


def test_call_times_scale_by_the_reference_times_during_and_near_them():
    speed = run.HostSpeed()
    fast, slow = run.REF_S, 2 * run.REF_S
    speed.samples = [(t, fast) for t in range(10)] + [(t + 0.5, slow) for t in range(3, 9)]
    assert speed.scale(0, 0) == 1
    assert speed.scale(3.1, 8.9) == 0.5     # eleven inside, six of them slow
    # one inside; the six nearest are three slow and three fast
    assert speed.scale(8.4, 8.6) == pytest.approx(2 / 3)
    assert speed.inside(3.1, 5.9) == 3 * slow + 2 * fast


def test_samples_are_taken_during_a_call_and_taken_off_its_time(tmp_path):
    work = run.Workload("oracle-suites", 1, tmp_path)
    work.calls = [("verify", "ttw")]
    [result] = work.run_pass()
    assert result[5] > run.REF_EVERY_S        # long enough to be sampled
    speed = run.HostSpeed()
    with speed.during():
        end = time.perf_counter() + 3 * run.REF_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- verify gate -------------------------------------------------------------

@pytest.fixture(scope="module")
def gauge_report():
    code, out, _ = run.call_cli(cli_main, ["verify", "--suite", "gauge"])
    return code, out


def test_verify_gate_passes_a_clean_report(gauge_report):
    code, out = gauge_report
    assert gate.check_verify(code, out, EXPECTED["gauge"]) == (0, [])
    assert 0 < gate.margin_max(out) < 1


def test_verify_gate_counts_failed_missing_and_extra_checks(gauge_report):
    code, out = gauge_report

    def fail_one(doc):
        doc["checks"][0]["status"] = "fail"
    failed, errors = gate.check_verify(3, rewrite(out, fail_one), EXPECTED["gauge"])
    assert failed == 1 and "status fail" in errors[0]

    def drop_one(doc):
        doc["checks"].pop()
    failed, _ = gate.check_verify(code, rewrite(out, drop_one), EXPECTED["gauge"])
    assert failed == 1

    def rename_one(doc):
        doc["checks"][0]["name"] += "-renamed"
    failed, _ = gate.check_verify(code, rewrite(out, rename_one), EXPECTED["gauge"])
    assert failed == 2


def test_margin_uses_the_tolerance_of_each_check():
    report = {"checks": [
        {"name": "cartesian/bc1/residuals", "numeric": {"max_residual": "2.5e-7"}},
        {"name": "cartesian/orthogonality", "numeric": {"max_offdiag": "1e-11"}},
        {"name": "ttw/plain/printed-defect", "numeric": {"constancy_ratio": "0.5"}},
    ]}
    assert gate.margin_max(json.dumps(report)) == pytest.approx(0.25)


# -- tracer ------------------------------------------------------------------

def test_tracer_wraps_every_import_site_and_restores_them():
    originals = (diffop.restrict_to_flag, spectral.restrict_to_flag,
                 MultiPoly.__mul__, MultiPoly.__rmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert diffop.restrict_to_flag is spectral.restrict_to_flag
        assert diffop.restrict_to_flag is not originals[0]
        assert MultiPoly.__mul__ is MultiPoly.__rmul__
        assert MultiPoly.__mul__ is not originals[2]
        root = tracer.open("cli.main")
        code, out = spectrum(SUTHERLAND)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert (diffop.restrict_to_flag, spectral.restrict_to_flag,
            MultiPoly.__mul__, MultiPoly.__rmul__) == originals
    assert code == 0
    summary = tracer.summary()
    assert summary["spectral.spectrum"]["calls"] == 1
    assert summary["diffop.restrict_to_flag"]["dim_max"] == 10
    assert summary["linalg.rref"]["calls"] == summary["linalg.nullspace"]["calls"] > 0
    assert summary["report.cache_lookup"]["calls"] == 1
    # self times partition the root span exactly
    total = sum(entry["self_s"] for entry in summary.values())
    assert total == pytest.approx(tracer.ends[root] - tracer.starts[root], rel=1e-9)
    assert all(entry["self_s"] >= 0 for entry in summary.values())
    assert {f"{n}.{k}" for n, e in summary.items() for k in e} <= set(layer_keys())


def test_benchmark_json_names_only_metrics_the_run_produces():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(layer_keys()) | {
        "report.cache.hit_ratio", "trace.run_s", "trace.overhead_ratio",
        "suites.margin_max"} | {f"cli.verify.{s}.wall_s" for s in run.ALL_SUITES}
    assert {m["name"] for m in bench["per_layer"]} <= produced
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "run_s", "query_ms.p50", "query_ms.p90", "pass_ratio",
        "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


# -- inputs and the run itself -----------------------------------------------

def test_queries_depend_only_on_the_seed():
    first = run.spectrum_queries(5)
    assert first == run.spectrum_queries(5) != run.spectrum_queries(6)
    distinct = {json.dumps(q, sort_keys=True) for q in first}
    assert len(first) - len(distinct) == len(first) // 4


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-suites",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- compare -----------------------------------------------------------------

def records(values, start, trace=0):
    return [{"workload": "w", "trace": trace, "seed": i, "started": start + 10 * i,
             "result": {"metrics": {"run_s": {"value": v, "unit": "s"}}}}
            for i, v in enumerate(values)]


BENCH_SPEC = {"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower",
                              "bound": 0.1}], "per_layer": []}


def alternating(parent_values, change_values):
    parent = records(parent_values, 0)
    change = records(change_values, 0)
    for i, (p, c) in enumerate(zip(parent, change)):
        (p if i % 2 else c)["started"] += 5
    return parent, change


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in base]
    parent, change = alternating(base, faster)
    [header, row] = compare.compare(parent, change, BENCH_SPEC)
    assert "10 pairs, order alternated" in header and "improved" in row
    [_, row] = compare.compare(change, parent, BENCH_SPEC)
    assert "regressed" in row and "!bound" in row
    parent, change = alternating(base, base[1:] + base[:1])
    assert "unresolved" in compare.compare(parent, change, BENCH_SPEC)[1]
    # same numbers, but every change run started after its parent run
    parent, change = records(base, 0), records(faster, 5)
    header, row = compare.compare(parent, change, BENCH_SPEC)
    assert "NOT alternated" in header and "unresolved" in row
