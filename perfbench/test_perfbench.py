"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.pin_blas_threads()
run.import_library()

import numpy as np  # noqa: E402

import mcperturb  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _smoke(name: str) -> tuple[workloads.Workload, list]:
    wl = workloads.build(name, seed=1, size=workloads.SMOKE)
    return wl, run.run_ops(wl.ops)[0]


def test_benchmark_names_the_workloads_here():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(name, trace):
    out = _run_cli(run.ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(NAME_RE.fullmatch(k) for k in result["metrics"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_metric_names_are_well_formed():
    for section in ("end_to_end", "per_layer"):
        for metric in BENCH[section]:
            assert NAME_RE.fullmatch(metric["name"]), metric["name"]


def test_run_without_library_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_cli(tmp_path, "--workload", "catalog-dtmc", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_golden_check_accepts_its_own_record():
    wl, results = _smoke("catalog-dtmc")
    for op, result in zip(wl.ops, results):
        gold = json.loads(json.dumps(workloads.record(op.kind, result)))
        assert workloads.check(op, result, {op.name: gold}) == (0, [])
    assert workloads.check(wl.ops[0], results[0], {})[0] == 1     # no record: a failure


def test_golden_check_flags_a_perturbed_float():
    wl, results = _smoke("catalog-dtmc")
    op, result = wl.ops[0], results[0]
    gold = workloads.record(op.kind, result)
    gold[0]["bound_value"] *= 1.0 + 1e-6
    failed, reasons = workloads.check(op, result, {op.name: gold})
    assert failed == 1 and "bound_value" in reasons[0]


def test_golden_check_flags_a_flipped_valid():
    wl, results = _smoke("catalog-dtmc")
    op, result = wl.ops[0], results[0]
    gold = workloads.record(op.kind, result)
    assert result[0].valid is True
    flipped = [dataclasses.replace(result[0], valid=False)] + result[1:]
    assert workloads.check(op, flipped, {op.name: gold})[0] == 1
    assert workloads.check(op, flipped)[0] == 1        # the verdict alone catches it


def test_check_counts_an_exception_as_every_unit_failed():
    wl, _ = _smoke("verify-gallery")
    fuzz = next(op for op in wl.ops if op.kind == "fuzz")
    failed, reasons = workloads.check(fuzz, RuntimeError("injected"))
    assert failed == fuzz.units and "injected" in reasons[0]


def test_fuzz_violations_fail_their_cases():
    rec = {"n_cases": 3, "n_violations": 4, "violating_cases": 2}
    assert workloads.verdict_failures("fuzz", rec)[0] == 2


def test_traced_pass_leaves_no_wrapper_installed():
    wl = workloads.build("verify-gallery", seed=1, size=workloads.SMOKE)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(mcperturb.dtmc.hitting_times, tracing.WRAPPED)
        assert hasattr(mcperturb.catalog.hitting_time_bound, tracing.WRAPPED)
        assert hasattr(np.linalg.solve, tracing.WRAPPED)
        assert tracing.leftover_wrappers()
    finally:
        tracer.uninstall()
    results, times = run.run_ops(wl.ops, tracer)
    assert tracing.leftover_wrappers() == []
    assert all(not isinstance(r, BaseException) for r in results)
    metrics = tracer.metrics(1, sum(times))
    assert metrics["verify.fuzz_case.calls"][0] == sum(
        op.units for op in wl.ops if op.kind == "fuzz")
    assert metrics["verify.identity.calls"][0] == sum(op.kind == "identity" for op in wl.ops)
    assert all(s[tracing.END] is not None for s in tracer.spans)
