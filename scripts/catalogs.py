#!/usr/bin/env python3
"""Every catalog report and fuzz case of the gallery, as one JSON object.

Usage, from the root of a checkout:

    python3 scripts/catalogs.py > catalogs.json

With this checkout's ``src`` and the benchmark's BLAS thread pinning, it
prints the ``to_dict()`` of every report of ``bound_catalog`` on every
gallery model at N = 24 and N = 200 (fixed-size models at their own size):

* without a perturbed chain;
* with the model's canonical pair at seeds 0 and 23;
* with the model's drift weights (a band generator's batch-arrival weights,
  1 + hitting times onto state 0 for a transition matrix), without the pair
  and with each of those pairs;

every case of ``fuzz_bounds(n_cases=6, include_v_norm=True)`` on every
gallery model at N = 24; and the sha256 of the bytes of every matrix the
bounds are built from: ``fundamental_matrix`` and ``group_inverse`` of every
transition matrix, ``ctmc_deviation_matrix`` of every generator, at N = 24
and N = 200 and, for generators that take a truncation, N = 800. A call
that raises is printed as ``{"error": <type>, "message": <text>}``. Keys
are sorted and floats are printed at full precision, so the outputs of two
checkouts compare with ``cmp``, matrices included.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SIZES = (24, 200)
SEEDS = (0, 23)
GENERATOR_SIZES = SIZES + (800,)
FUZZ_SIZE = 24
FUZZ_CASES = 6


def _json_default(obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return str(obj)


def _outcome(fn):
    """``fn()``, or the error it raised."""
    try:
        return fn()
    except Exception as exc:     # every failure is part of the output
        return {"error": type(exc).__name__, "message": str(exc)}


def _model(mc, name, n):
    """Gallery model ``name`` at truncation n, or at its own size."""
    if mc.gallery._takes_truncation(name):
        return mc.gallery.build_model(name, truncation=n)
    return mc.gallery.build_model(name)


def _drift_weights(mc, model):
    if model.kind == "dtmc":
        return 1.0 + mc.hitting_times(model.chain, 0)
    return mc.batch_arrival_drift(model.extras["a"], model.extras["b"],
                                  n_states=model.chain.n).weights


def catalogs(mc) -> dict:
    """``{model[n]: {input: reports or raised error}}`` for every gallery model."""
    out = {}
    for name in mc.gallery.list_models():
        for n in SIZES:
            model = _model(mc, name, n)
            chain = model.chain

            def reports(**kwargs):
                return _outcome(lambda: [r.to_dict() for r in mc.bound_catalog(chain, **kwargs)])

            pairs = {f"pair{seed}": _outcome(lambda: mc.verify.canonical_pair(model, seed=seed))
                     for seed in SEEDS}
            weights = _outcome(lambda: _drift_weights(mc, model))
            entry = {"plain": reports()}
            for key, pair in pairs.items():
                entry[key] = pair if isinstance(pair, dict) else reports(perturbed=pair.perturbed)
            if isinstance(weights, dict):
                entry["weights"] = weights
            else:
                entry["weights"] = reports(weights=weights)
                for key, pair in pairs.items():
                    if not isinstance(pair, dict):
                        entry[f"weights+{key}"] = reports(perturbed=pair.perturbed,
                                                          weights=weights)
            out[f"{name}[{chain.n}]"] = entry
    return out


def fuzz_cases(mc) -> dict:
    """``{model[n]: fuzz summary or raised error}`` for every gallery model."""
    def summary(model):
        s = mc.verify.fuzz_bounds(model, n_cases=FUZZ_CASES, include_v_norm=True)
        return {"skipped_bounds": s.skipped_bounds, "n_rejected": s.n_rejected,
                "cases": [{"seed": c.seed, "delta_norm": c.delta_norm, "gap": c.gap,
                           "outcomes": [o.to_dict() for o in c.outcomes]} for c in s.cases]}

    out = {}
    for name in mc.gallery.list_models():
        model = _model(mc, name, FUZZ_SIZE)
        out[f"{name}[{model.chain.n}]"] = _outcome(lambda: summary(model))
    return out


def matrix_digests(mc) -> dict:
    """``{model[n]: {matrix function: sha256 or raised error}}`` for every
    gallery model, each matrix from a freshly built chain."""
    def digest(fn, chain):
        import numpy as np

        return hashlib.sha256(np.ascontiguousarray(fn(chain)).tobytes()).hexdigest()

    out = {}
    for name in mc.gallery.list_models():
        dtmc = _model(mc, name, SIZES[0]).kind == "dtmc"
        fns = ((mc.fundamental_matrix, mc.group_inverse) if dtmc
               else (mc.ctmc_deviation_matrix,))
        for n in SIZES if dtmc else GENERATOR_SIZES:   # a fixed size repeats its key
            key = f"{name}[{_model(mc, name, n).chain.n}]"
            out[key] = {fn.__name__: _outcome(lambda: digest(fn, _model(mc, name, n).chain))
                        for fn in fns}
    return out


def main() -> int:
    sys.path.insert(0, str(PERFBENCH))
    import run

    run.pin_blas_threads()
    mc = run.import_library()
    payload = {"catalogs": catalogs(mc), "fuzz": fuzz_cases(mc),
               "matrices": matrix_digests(mc)}
    print(json.dumps(payload, sort_keys=True, indent=1, default=_json_default))
    return 0


if __name__ == "__main__":
    sys.exit(main())
