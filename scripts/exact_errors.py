#!/usr/bin/env python3
"""Each certified float's error against the exact rational oracle, as one JSON object.

Usage, from the root of a checkout:

    python3 scripts/exact_errors.py > exact_errors.json

With this checkout's ``src`` and the benchmark's BLAS thread pinning, it
prints ``tests/exact.py``'s ``compare`` for every chain of its
``ORACLE_CHAINS``: for each quantity the library certifies (pi by both
routes, the fundamental matrix, the group inverse or the deviation matrix,
hitting times, Lambda1 of P, P^2, A# or Q, and every catalog coefficient),
the library's error against the exact value, the bound derived in that
module's docstring and their ratio. Keys are sorted and floats are printed
at full precision, so the outputs of two checkouts compare with ``diff``: a
change that moves round-off shows which errors it moved, and how close each
comes to its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    run.pin_blas_threads()
    run.import_library()
    sys.path.insert(0, str(ROOT / "tests"))
    from exact import ORACLE_CHAINS, ExactChain, compare

    payload = {name: compare(ExactChain(build())) for name, build in ORACLE_CHAINS.items()}
    print(json.dumps(payload, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
