#!/usr/bin/env python3
"""Whether the working tree prints the same values as a git revision.

Usage, from the root of a checkout:

    python3 scripts/same_values.py REV

Unpacks REV with ``git archive`` into a temporary directory, which is
removed at the end; nothing is written under the checkout. Then runs, in
that tree and in the working tree, each with its own ``src`` and its own
scripts:

* ``catalogs.py``;
* ``exact_errors.py``;
* ``records.py`` on each benchmark workload at seeds 0 and 23.

Prints one line per output: ``same`` when the two outputs are
byte-identical, or else the first key (in sorted order) at which they
differ. Exits 1 on any difference or failed run, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("catalog-dtmc", "catalog-ctmc", "verify-gallery")
SEEDS = (0, 23)


def outputs() -> list[tuple[str, list[str]]]:
    """``(label, script and arguments)`` of every compared output."""
    runs = [("catalogs.py", ["catalogs.py"]), ("exact_errors.py", ["exact_errors.py"])]
    for workload in WORKLOADS:
        for seed in SEEDS:
            runs.append((f"records.py {workload} seed {seed}",
                         ["records.py", "--workload", workload, "--seed", str(seed)]))
    return runs


def unpack(rev: str, dest: Path) -> None:
    """The tree of ``rev`` under ``dest``, from ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def first_difference(a, b, path: str = "") -> str:
    """The first key path, in sorted key order, at which two parsed JSON
    values differ."""
    where = path or "the top level"
    if a == b:
        return f"{where} (same values, different text)"
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                return f"{path}[{key!r}] (only in {'REV' if key in a else 'the working tree'})"
            if a[key] != b[key]:
                return first_difference(a[key], b[key], f"{path}[{key!r}]")
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return first_difference(x, y, f"{path}[{i}]")
        return f"{where} (lengths {len(a)} and {len(b)})"
    return f"{where}: {json.dumps(a)[:80]} != {json.dumps(b)[:80]}"


def run_pair(trees: tuple[Path, Path], argv: list[str]) -> str:
    """``same``, or where the outputs of ``argv`` in the two trees differ."""
    procs = [subprocess.Popen([sys.executable, str(tree / "scripts" / argv[0]), *argv[1:]],
                              cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for tree in trees]
    results = [proc.communicate() + (proc.returncode,) for proc in procs]
    for (_, err, code), name in zip(results, ("REV", "the working tree")):
        if code != 0:
            last = err.strip().splitlines()[-1:] or [f"exit code {code}"]
            return f"failed in {name}: {last[0]}"
    (old, _, _), (new, _, _) = results
    if old == new:
        return "same"
    return "differs at " + first_difference(json.loads(old), json.loads(new))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the printed values of the working tree with those of a revision")
    parser.add_argument("rev", help="the git revision to compare with, e.g. HEAD")
    args = parser.parse_args(argv)
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        trees = (Path(tmp) / "rev", ROOT)
        unpack(args.rev, trees[0])
        for label, run in outputs():
            verdict = run_pair(trees, run)
            print(f"{label}: {verdict}", flush=True)
            differ |= verdict != "same"
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
