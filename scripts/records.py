#!/usr/bin/env python3
"""Every benchmark record of one workload, as one JSON object.

Usage, from the root of a checkout:

    python3 scripts/records.py --workload catalog-dtmc --seed 0 [--smoke]

Builds the workload of ``perfbench/workloads.py`` at its FULL size (SMOKE
with ``--smoke``) and runs every operation and probe once through
``perfbench/run.py``'s ``run_ops``, with the benchmark's BLAS thread pinning
and this checkout's ``src``. It prints one object that maps each operation's
name to ``workloads.record`` of its result, or to ``{"error": <type>,
"message": <text>}`` when the call raised. Keys are sorted and floats are
printed at full precision, so the outputs of two checkouts compare with
``diff``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def records(workload: str, seed: int, smoke: bool) -> dict:
    """``{operation name: record or raised error}`` of one workload."""
    sys.path.insert(0, str(PERFBENCH))
    import run

    run.pin_blas_threads()
    run.import_library()
    import workloads

    wl = workloads.build(workload, seed, workloads.SMOKE if smoke else workloads.FULL)
    ops = wl.ops + wl.probes
    results = run.run_ops(ops)[0]
    return {op.name: ({"error": type(r).__name__, "message": str(r)}
                      if isinstance(r, Exception) else workloads.record(op.kind, r))
            for op, r in zip(ops, results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print every record of one benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="build the inputs at SMOKE size")
    args = parser.parse_args(argv)
    print(json.dumps(records(args.workload, args.seed, args.smoke), sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
