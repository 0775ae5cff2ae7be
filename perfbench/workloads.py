"""The benchmark's workloads: seeded inputs, the library calls, and output checks.

Each workload is a list of operations. An operation calls one public entry
point of the library (``bound_catalog``, ``identity_residuals`` or
``fuzz_bounds``) on inputs generated here from the seed, and reduces the
result to a small record. Records are checked two ways:

* always, against the library's own verdicts: no report with
  ``valid is False``, no fuzz violation, no identity residual above the
  ``DEFAULT.identity`` gate;
* at the default seed and full size, against ``golden.json``, recorded
  from the unoptimised library. Discrete fields must match exactly and
  floats within the tolerances below, so a speed-up that changes a number
  counts as a failure.

Each pass calls the library on fresh copies of the input chains, and looks
its entry points up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import mcperturb as mp
from mcperturb import gallery as mpg
from mcperturb import verify as mpv
from mcperturb.settings import DEFAULT

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0

# Golden float tolerances, taken from the library's certification gates:
# solved quantities are certified to DEFAULT.inverse relative and
# DEFAULT.stationarity absolute; identity residuals are round-off, so they
# match when they differ by less than the DEFAULT.identity gate.
RTOL = DEFAULT.inverse
ATOL = DEFAULT.stationarity
RESIDUAL_ATOL = DEFAULT.identity

CATALOG_MAGNITUDE = 0.01
IDENTITY_MAGNITUDE = 0.01
FUZZ_MAGNITUDES = (0.001, 0.01)

WORKLOADS = ("catalog-dtmc", "catalog-ctmc", "verify-gallery")


@dataclass(frozen=True)
class Size:
    dtmc_n: int       # truncation of the catalog-dtmc models and the doubly stochastic chain
    ctmc_n: int       # truncation of the catalog-ctmc generators
    gallery_n: int    # truncation of the verify-gallery models
    fuzz_cases: int   # fuzz cases per (model, magnitude)


FULL = Size(dtmc_n=400, ctmc_n=800, gallery_n=200, fuzz_cases=120)
SMOKE = Size(dtmc_n=24, ctmc_n=24, gallery_n=24, fuzz_cases=3)


def _fresh(x):
    """A new chain object with the same entries, so no per-instance cache
    (period, or any later per-chain analysis) carries over between passes."""
    if isinstance(x, (mp.StochasticMatrix, mp.IntensityMatrix)):
        return type(x)(x.entries, settings=x.settings)
    if isinstance(x, mpg.GalleryModel):
        return dataclasses.replace(x, chain=_fresh(x.chain))
    return x


# entry points, looked up on their modules at call time
ENTRY = {
    "catalog": lambda *a, **k: mp.bound_catalog(*a, **k),
    "identity": lambda *a, **k: mpv.identity_residuals(*a, **k),
    "fuzz": lambda *a, **k: mpv.fuzz_bounds(*a, **k),
}


@dataclass
class Op:
    """One call of the ``kind`` entry point; ``kind`` also selects how its
    result is recorded and checked."""

    name: str
    kind: str                    # "catalog" | "identity" | "fuzz"
    args: tuple
    kwargs: dict = field(default_factory=dict)
    units: int = 1               # operations this call counts as (fuzz cases)

    def bind(self) -> Callable[[], object]:
        """The call on fresh copies of the input chains, ready to time."""
        fn = ENTRY[self.kind]
        args = [_fresh(a) for a in self.args]
        kwargs = {k: _fresh(v) for k, v in self.kwargs.items()}
        return lambda: fn(*args, **kwargs)


@dataclass
class Workload:
    name: str
    ops: list[Op]                # the timed pass
    probes: list[Op] = field(default_factory=list)   # untimed known-defect probes


# ---------------------------------------------------------------------------
# inputs


def _gallery(spec: str, n: int) -> mpg.GalleryModel:
    try:
        return mpg.build_model(spec, truncation=n)
    except mp.McPerturbError:
        return mpg.build_model(spec)        # fixed-size models keep their own size


def doubly_stochastic(seed: int, n: int) -> mpg.GalleryModel:
    """Convex mix of 4 random permutation matrices: uniform pi, so no candidate
    of the hitting-time scan can be pruned by its return-time floor."""
    rng = np.random.default_rng([seed, 4])
    weights = rng.dirichlet(np.full(4, 4.0))
    P = np.zeros((n, n))
    rows = np.arange(n)
    for w in weights:
        P[rows, rng.permutation(n)] += w
    chain = mp.StochasticMatrix(P)
    if not chain.irreducible:
        raise RuntimeError(f"doubly stochastic chain for seed {seed} is reducible")
    return mpg.GalleryModel(name="doubly-stochastic", kind="dtmc", chain=chain)


def _catalog_op(name, chain, perturbed, weights=None) -> Op:
    return Op(name, "catalog", (chain,), {"perturbed": perturbed, "weights": weights})


def catalog_dtmc(seed: int, size: Size) -> Workload:
    models = [_gallery(s, size.dtmc_n)
              for s in ("hessenberg-gi-m-1", "odd-even-p", "geometric-return")]
    models.append(doubly_stochastic(seed, size.dtmc_n))
    models += [_gallery(s, size.dtmc_n) for s in ("funderlic8", "meyer4", "birth-death(20)")]
    ops = []
    for model in models:
        pair = mpv.canonical_pair(model, magnitude=CATALOG_MAGNITUDE, seed=seed)
        ops.append(_catalog_op(f"{model.name}[n={model.chain.n}]", model.chain,
                               pair.perturbed))
    # Known certification defects: both abort bound_catalog with SolverFailure
    # (absolute inverse gates on ill-conditioned chains). They run outside the
    # timed pass, since a fix makes them run longer.
    bd = mpg.build_model("birth-death(400)")
    bd_pair = mpv.canonical_pair(bd, magnitude=CATALOG_MAGNITUDE, seed=seed)
    eps = 1e-9
    two_state = mp.StochasticMatrix([[1.0 - eps, eps], [eps, 1.0 - eps]])
    probes = [
        _catalog_op("probe:birth-death[n=401]", bd.chain, bd_pair.perturbed),
        _catalog_op("probe:two-state[coupling=1e-9]", two_state, None),
    ]
    return Workload("catalog-dtmc", ops, probes)


def catalog_ctmc(seed: int, size: Size) -> Workload:
    ops = []
    for spec in ("mm1", "batch-arrival"):
        model = _gallery(spec, size.ctmc_n)
        pair = mpv.canonical_pair(model, magnitude=CATALOG_MAGNITUDE, seed=seed)
        cert = mp.batch_arrival_drift(model.extras["a"], model.extras["b"],
                                      n_states=model.chain.n)
        ops.append(_catalog_op(f"{model.name}[n={model.chain.n}]", model.chain,
                               pair.perturbed, cert.weights))
    return Workload("catalog-ctmc", ops)


def verify_gallery(seed: int, size: Size) -> Workload:
    """Mirrors ``mcperturb verify gallery --all`` without the V-norm fuzz path."""
    ops = []
    for spec in mpg.list_models():
        model = _gallery(spec, size.gallery_n)
        tag = f"{model.name}[n={model.chain.n}]"
        ops.append(Op(f"identity:{tag}", "identity", (model,),
                      {"magnitude": IDENTITY_MAGNITUDE, "seed": seed}))
        for mag in FUZZ_MAGNITUDES:
            ops.append(Op(f"fuzz:{tag}[magnitude={mag}]", "fuzz", (model,),
                          {"n_cases": size.fuzz_cases, "magnitude": mag, "seed": seed,
                           "include_v_norm": False},
                          units=size.fuzz_cases))
    return Workload("verify-gallery", ops)


def build(name: str, seed: int, size: Size = FULL) -> Workload:
    by_name = {"catalog-dtmc": catalog_dtmc, "catalog-ctmc": catalog_ctmc,
               "verify-gallery": verify_gallery}
    if name not in by_name:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return by_name[name](seed, size)


# ---------------------------------------------------------------------------
# records and checks


def record(kind: str, result) -> dict | list:
    """The golden-comparable content of one operation's result."""
    if kind == "catalog":
        return [{"bound_name": r.bound_name, "hypotheses_hold": r.hypotheses_hold,
                 "ell": r.ell, "bound_value": r.bound_value,
                 "exact_gap": r.exact_gap, "valid": r.valid} for r in result]
    if kind == "identity":
        return {k: float(v) for k, v in sorted(result.items())}
    if kind == "fuzz":
        return {"n_cases": result.n_cases, "n_violations": result.n_violations,
                "violating_cases": sum(1 for c in result.cases if c.violations),
                "n_rejected": result.n_rejected,
                "skipped_bounds": sorted(result.skipped_bounds),
                "tightness": {k: {"min": v["min"], "mean": v["mean"]}
                              for k, v in result.tightness().items()}}
    raise ValueError(f"unknown operation kind {kind!r}")


def verdict_failures(kind: str, rec) -> tuple[int, list[str]]:
    """Failed units and reasons by the library's own verdicts."""
    if kind == "catalog":
        bad = [r["bound_name"] for r in rec if r["valid"] is False]
        return (1, [f"bounds below the exact gap: {bad}"]) if bad else (0, [])
    if kind == "identity":
        bad = {k: v for k, v in rec.items() if not v <= DEFAULT.identity}
        return (1, [f"identity residuals above {DEFAULT.identity:g}: {bad}"]) if bad else (0, [])
    if rec["violating_cases"]:
        return rec["violating_cases"], [f"{rec['n_violations']} fuzz violations"]
    return 0, []


def _close(a: float, g: float, rtol: float, atol: float) -> bool:
    if math.isnan(g):
        return math.isnan(a)
    if math.isinf(g):
        return a == g
    return abs(a - g) <= atol + rtol * abs(g)


def golden_diffs(rec, gold, rtol: float = RTOL, atol: float = ATOL, path: str = "") -> list[str]:
    """Field-by-field differences: discrete values exactly, floats within tolerance."""
    if isinstance(gold, dict):
        if not isinstance(rec, dict) or sorted(rec) != sorted(gold):
            return [f"{path}: keys {sorted(rec) if isinstance(rec, dict) else rec!r} "
                    f"!= {sorted(gold)}"]
        return [d for k in gold for d in golden_diffs(rec[k], gold[k], rtol, atol, f"{path}.{k}")]
    if isinstance(gold, list):
        if not isinstance(rec, list) or len(rec) != len(gold):
            return [f"{path}: {rec!r} != {gold!r}"]
        return [d for i, (a, g) in enumerate(zip(rec, gold))
                for d in golden_diffs(a, g, rtol, atol, f"{path}[{i}]")]
    if isinstance(gold, float) and not isinstance(rec, bool) and isinstance(rec, (int, float)):
        return [] if _close(float(rec), gold, rtol, atol) else [f"{path}: {rec!r} != {gold!r}"]
    if type(rec) is not type(gold) or rec != gold:
        return [f"{path}: {rec!r} != {gold!r}"]
    return []


def check(op: Op, result, golden: dict | None = None) -> tuple[int, list[str]]:
    """Failed units of one operation: all of them when it raised or its record
    differs from its entry in ``golden``, else those the library's verdicts reject."""
    if isinstance(result, BaseException):
        return op.units, [f"raised {type(result).__name__}: {result}"]
    rec = record(op.kind, result)
    if golden is not None:
        if op.name not in golden:
            return op.units, ["no golden record"]
        tol = (0.0, RESIDUAL_ATOL) if op.kind == "identity" else (RTOL, ATOL)
        diffs = golden_diffs(rec, golden[op.name], *tol)
        if diffs:
            return op.units, ["golden mismatch " + "; ".join(diffs[:5])]
    return verdict_failures(op.kind, rec)


def load_golden(workload: str) -> dict:
    with open(GOLDEN_PATH) as fh:
        data = json.load(fh)
    if data["seed"] != DEFAULT_SEED:
        raise ValueError(f"{GOLDEN_PATH} was recorded at seed {data['seed']}")
    return data["workloads"][workload]
