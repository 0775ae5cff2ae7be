#!/usr/bin/env python3
"""Benchmark of the mcperturb library: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog-dtmc --seed 0 --seconds 36 --trace 0

Workloads (see ``workloads.py``):

* ``catalog-dtmc``: ``bound_catalog`` on three truncated gallery chains and a
  doubly stochastic chain at N=400, plus three small fixed-size models; the
  hitting-time scan dominates. Two known certification defects run as
  untimed probes after each pass.
* ``catalog-ctmc``: ``bound_catalog`` with drift weights on ``mm1`` and
  ``batch-arrival`` at N=800; ``Lambda1(Q)`` and the GTH solves dominate.
* ``verify-gallery``: identity residuals and the fuzz oracle on every gallery
  model at N=200; the per-case draw/validate/solve loop dominates.

A run builds the inputs from the seed, makes one checked warm-up pass, then
repeats timed passes until ``--seconds`` have passed. Every operation's
output is checked (``workloads.check``). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median, over fresh processes, of the time from the script's
  start to the first timed call (imports, inputs, golden record);
* ``pass_s``: median wall time of one timed pass;
* ``peak_rss_mb``: peak resident memory of the measuring process;
* ``ok_frac``: 1 - failed / attempted, over every pass and probe.

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics (``tracing.py``), per pass. ``correct`` is false when an operation of
the timed pass fails; probe failures count in ``failed`` only.

BLAS threads are pinned here, before numpy loads, never in the library. The
environment, the result and the spans of traced passes are also written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import glob
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3


class LibraryMissing(RuntimeError):
    pass


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_library():
    """Import mcperturb from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mcperturb" / "__init__.py").is_file():
        raise LibraryMissing(f"no library source under {src}")
    sys.path.insert(0, str(src))
    import mcperturb

    if Path(mcperturb.__file__).resolve().parent != (src / "mcperturb").resolve():
        raise LibraryMissing(f"mcperturb imported from {mcperturb.__file__}, not {src}")
    return mcperturb


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    import ctypes

    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mcperturb").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Attempted and failed operations, split into timed-pass and probe ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_timed = 0
        self.fuzz_cases = 0
        self.fuzz_rejected = 0
        self._reported = set()

    def add(self, ops, results, golden, probe=False) -> None:
        import workloads

        for op, result in zip(ops, results):
            failed, reasons = workloads.check(op, result, golden)
            self.attempted += op.units
            self.failed += failed
            if op.kind == "fuzz" and not isinstance(result, BaseException):
                self.fuzz_cases += op.units
                self.fuzz_rejected += result.n_rejected
            if not probe:
                self.failed_timed += failed
            if reasons and op.name not in self._reported:
                self._reported.add(op.name)
                print(f"{'probe' if probe else 'FAIL'} {op.name}: {'; '.join(reasons)}",
                      file=sys.stderr)


def run_ops(ops, tracer=None):
    """Run and time each operation on fresh inputs, traced when a tracer is given.
    A raised exception is the operation's result, counted as a failure."""
    calls = [op.bind() for op in ops]
    results, times = [], []
    if tracer is not None:
        tracer.install()
    try:
        for call in calls:
            t = time.perf_counter()
            try:
                results.append(call())
            except Exception as exc:      # the benchmark keeps going and reports the failure
                results.append(exc)
            times.append(time.perf_counter() - t)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, times


def checked_pass(wl, tally, golden, tracer=None) -> list[float]:
    """One pass, timed per operation; then, untimed, its checks and the probes."""
    results, times = run_ops(wl.ops, tracer)
    tally.add(wl.ops, results, golden)
    tally.add(wl.probes, run_ops(wl.probes)[0], None, probe=True)
    return times


def repeat_for(seconds: float, step, min_calls: int) -> list:
    """Call ``step`` at least ``min_calls`` times, and again while the next call is
    expected to end less than half a call past ``seconds``."""
    out = []
    start = time.perf_counter()
    while len(out) < min_calls or (
            time.perf_counter() - start + statistics.median(map(sum, out)) / 2 < seconds):
        out.append(step())
    return out


def setup_times(args) -> list[float]:
    """Set-up time of fresh processes, each building this run's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                             check=True, cwd=ROOT)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def build_inputs(args):
    import workloads

    size = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.build(args.workload, args.seed, size)
    golden = None
    if args.seed == workloads.DEFAULT_SEED and not args.smoke:
        golden = workloads.load_golden(args.workload)
    return wl, golden


def warm_up(args) -> None:
    """Run every library path once on small inputs, so lazy set-up is not timed."""
    import workloads

    run_ops(workloads.build(args.workload, args.seed, workloads.SMOKE).ops)


def measure(args, wl, golden, tally):
    """Untraced run: end-to-end metrics."""
    import resource

    setup = setup_times(args)
    warm_up(args)
    passes = repeat_for(args.seconds, lambda: checked_pass(wl, tally, golden), MIN_PASSES)
    times = [sum(p) for p in passes]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(times), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }, {"setup_s": setup, "op_s": passes}


def measure_traced(args, wl, golden, tally):
    """Alternating untraced and traced passes: per-layer metrics and trace overhead."""
    import tracing

    warm_up(args)
    tracer = tracing.Tracer()
    count = itertools.count()
    passes = repeat_for(
        args.seconds,
        lambda: checked_pass(wl, tally, golden, tracer if next(count) % 2 else None),
        2 * MIN_PASSES)
    plain = [sum(p) for p in passes[0::2]]
    traced = [sum(p) for p in passes[1::2]]
    metrics = tracer.metrics(len(traced), sum(traced))
    metrics["trace.pass_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0,
                                      "ratio")
    metrics["failed_frac"] = (tally.failed / tally.attempted, "ratio")
    metrics["verify.rejected_frac"] = (tally.fuzz_rejected / max(1, tally.fuzz_cases), "ratio")
    fuzz_cases = sum(op.units for op in wl.ops if op.kind == "fuzz")
    metrics["fuzz_cases_per_s"] = (fuzz_cases * len(plain) / sum(plain), "1/s")
    return metrics, {"op_s": passes[0::2], "trace.op_s": passes[1::2]}, tracer


def parse_args(argv):
    p = argparse.ArgumentParser(description="mcperturb benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced-size inputs, for self-tests")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time and exit")
    p.add_argument("--record-golden", action="store_true",
                   help="record golden.json from one pass of every workload at the default seed")
    args = p.parse_args(argv)
    if not args.workload and not args.record_golden:
        p.error("--workload is required")
    return args


def record_golden() -> int:
    import workloads

    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        recs = {}
        for op, result in zip(wl.ops, run_ops(wl.ops)[0]):
            if isinstance(result, BaseException):
                raise RuntimeError(f"{op.name} raised {result!r}; not recording") from result
            recs[op.name] = workloads.record(op.kind, result)
        out["workloads"][name] = recs
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        import_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    wl, golden = build_inputs(args)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env))
    tally = Tally()
    tracer = None
    if args.trace:
        metrics, samples, tracer = measure_traced(args, wl, golden, tally)
    else:
        metrics, samples = measure(args, wl, golden, tally)
    result = {
        "correct": tally.failed_timed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "samples": samples, "result": result}, fh, indent=1)
    if tracer is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for row in tracer.span_rows():
                fh.write(json.dumps(row) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
