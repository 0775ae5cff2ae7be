"""The benchmark's records read the library's reports and fuzz summaries;
every timed operation of each workload, built small, must record and pass
the benchmark's own checks."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcperturb import McPerturbError, solvers

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_operations_pass_the_benchmark_checks(name, seed):
    workload = workloads.build(name, seed, workloads.SMOKE)
    assert workload.ops
    for op in workload.ops:
        result = op.bind()()
        json.dumps(workloads.record(op.kind, result))
        assert workloads.check(op, result) == (0, []), op.name


# About 100 states: every catalog-ctmc generator and the banded catalog-dtmc
# chains fall below the solvers' density cut, so the benchmark's checks run
# the CSR certification products (at SMOKE size most chains are above it).
CUT_SIZE = workloads.Size(dtmc_n=100, ctmc_n=100, gallery_n=24, fuzz_cases=3)


@pytest.mark.parametrize("name", ["catalog-dtmc", "catalog-ctmc"])
def test_operations_on_the_sparse_path_pass_the_benchmark_checks(monkeypatch, name):
    paths = []
    difference = solvers._difference

    def recorded(P):
        A = difference(P)
        paths.append(not isinstance(A, np.ndarray))
        return A

    monkeypatch.setattr(solvers, "_difference", recorded)
    workload = workloads.build(name, 0, CUT_SIZE)
    for op in workload.ops:
        result = op.bind()()
        assert workloads.check(op, result) == (0, []), op.name
    assert any(paths)


SMOKE_RECORDS = Path(__file__).resolve().parent / "data" / "smoke_records.json"


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_records_match_the_recorded_golden(name, seed):
    """Every operation's record at SMOKE size matches the records in
    ``tests/data/smoke_records.json`` at the benchmark's golden tolerances,
    so a change that moves a benchmark number fails tier-1 too."""
    golden = json.loads(SMOKE_RECORDS.read_text())["seeds"][str(seed)][name]
    workload = workloads.build(name, seed, workloads.SMOKE)
    assert sorted(op.name for op in workload.ops) == sorted(golden)
    for op in workload.ops:
        rec = workloads.record(op.kind, op.bind()())
        tol = ((0.0, workloads.RESIDUAL_ATOL) if op.kind == "identity"
               else (workloads.RTOL, workloads.ATOL))
        assert workloads.golden_diffs(rec, golden[op.name], *tol) == [], op.name


RECORDS_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "records.py"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_the_records_script_prints_every_operation_and_probe(name):
    out = subprocess.run([sys.executable, str(RECORDS_SCRIPT), "--workload", name,
                          "--seed", "0", "--smoke"],
                         capture_output=True, text=True, check=True, timeout=300)
    printed = json.loads(out.stdout)
    workload = workloads.build(name, 0, workloads.SMOKE)
    ops = workload.ops + workload.probes
    assert list(printed) == sorted(op.name for op in ops)
    for op in ops:
        try:
            rec = workloads.record(op.kind, op.bind()())
        except McPerturbError as exc:
            assert printed[op.name]["error"] == type(exc).__name__, op.name
            assert printed[op.name]["message"], op.name
            continue
        tol = ((0.0, workloads.RESIDUAL_ATOL) if op.kind == "identity"
               else (workloads.RTOL, workloads.ATOL))
        assert workloads.golden_diffs(printed[op.name], rec, *tol) == [], op.name
