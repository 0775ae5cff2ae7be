"""Outside-in tracing: wrappers on the library's public functions, installed for
traced passes only and removed afterwards.

Every module attribute in ``mcperturb.*`` that binds a traced function is
replaced by a wrapper that records a span (layer name, start, end, parent).
A layer's self time is its spans' durations minus their children's.
``numpy.linalg.solve`` is counted across layers: its calls, the GFLOP its
shapes imply and its time are reported on their own and stay inside the
calling layer's self time. ``dtmc.hitting_times`` is counted, not timed, so
the hitting-time scan's own cost is the scan's self time.

A fuzz case has no function of its own. It is identified by the generator
object its draws use: a ``verify.fuzz_case`` span opens at a case's first
draw and closes at the next case's first draw, or when ``fuzz_bounds``
returns.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

from mcperturb.errors import DivergentHittingTimes, SolverFailure

WRAPPED = "__perfbench_original__"

# layer -> functions (module, qualified name) whose spans make up the layer
SPAN_LAYERS = {
    "catalog.self": [("mcperturb.catalog", "bound_catalog")],
    "chains.construct": [("mcperturb.chains", "StochasticMatrix.__init__"),
                         ("mcperturb.chains", "IntensityMatrix.__init__")],
    "chains.period": [("mcperturb.chains", "_period_by_bfs")],
    "solvers.fundamental": [("mcperturb.solvers", "fundamental_matrix")],
    "solvers.group_inverse": [("mcperturb.solvers", "group_inverse")],
    "dtmc.bounds": [("mcperturb.dtmc", f) for f in (
        "seneta_bound", "seneta_best_bound", "skeleton_bound", "unit_drift_bound",
        "fit_geometric_drift", "v_bound_with_stationary", "v_bound_drift_only")],
    "dtmc.lambda1": [("mcperturb.dtmc", "ergodicity_coefficient")],
    "dtmc.hitting_scan": [("mcperturb.dtmc", "hitting_time_bound")],
    "dtmc.small_set": [("mcperturb.dtmc", "small_set_bound")],
    "ctmc.bounds": [("mcperturb.ctmc", f) for f in (
        "ctmc_deviation_bound", "ctmc_lambda1_bound", "ctmc_small_set_bound",
        "ctmc_unit_drift_bound", "ctmc_v_bound_with_stationary", "ctmc_v_bound_drift_only")],
    "ctmc.lambda1": [("mcperturb.ctmc", "ctmc_ergodicity_coefficient")],
    "ctmc.deviation": [("mcperturb.ctmc", "ctmc_deviation_matrix")],
    "ctmc.drift": [("mcperturb.ctmc", "batch_arrival_drift"),
                   ("mcperturb.ctmc", "fit_ctmc_geometric_drift")],
    "ctmc.hitting": [("mcperturb.ctmc", "ctmc_hitting_times")],
    "verify.identity": [("mcperturb.verify", "identity_residuals")],
    "verify.fuzz": [("mcperturb.verify", "fuzz_bounds")],
}
# stationary solvers are split by their ``method`` argument (second positional);
# a method not listed counts as "solve"
METHOD_LAYERS = {
    ("mcperturb.solvers", "stationary_distribution"):
        {"solve": "solvers.stationary", "gth": "solvers.gth"},
    ("mcperturb.ctmc", "ctmc_stationary"):
        {"solve": "ctmc.stationary", "gth": "solvers.gth"},
}
SAMPLERS = [("mcperturb.verify", "sample_dtmc_delta"), ("mcperturb.verify", "sample_ctmc_delta")]
HITTING = ("mcperturb.dtmc", "hitting_times")
# which matrix Lambda1 is taken of, by the bound that asks for it
LAMBDA1_PARENTS = {"seneta_bound": "P", "skeleton_bound": "Pm", "seneta_best_bound": "Asharp"}

LAYERS = sorted({*SPAN_LAYERS, *(v for m in METHOD_LAYERS.values() for v in m.values()),
                 "verify.fuzz_case", "verify.sample"})

# span fields
NAME, DETAIL, START, END, PARENT, CHILD_S = range(6)


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mcperturb" or name.startswith("mcperturb."))]


class Tracer:
    """Spans and counters of the traced passes; ``install``/``uninstall`` swap
    the wrappers in and out."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.lambda1_s = {v: 0.0 for v in LAMBDA1_PARENTS.values()}
        self.case_ms: list[float] = []
        self.fuzz_setup_s = 0.0
        self.hitting_calls = 0
        self.hitting_skipped = 0
        self.hitting_max_per_scan = 0
        self.sample_calls = 0
        self.sample_none = 0
        self.solve_calls = 0
        self.solve_gflop = 0.0
        self.solve_s = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._case_rng = {}          # open fuzz span index -> generator of its current case
        self._scan_hits = {}         # open hitting-scan span index -> hitting solves so far

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, detail: str, t: float) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, detail, t, None, parent, 0.0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close_top(self, t: float) -> None:
        idx = self.stack.pop()
        span = self.spans[idx]
        span[END] = t
        dur = t - span[START]
        name = span[NAME]
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - span[CHILD_S]
        self.calls[name] = self.calls.get(name, 0) + 1
        if span[PARENT] >= 0:
            parent = self.spans[span[PARENT]]
            parent[CHILD_S] += dur
            if name == "dtmc.lambda1" and parent[DETAIL] in LAMBDA1_PARENTS:
                self.lambda1_s[LAMBDA1_PARENTS[parent[DETAIL]]] += dur - span[CHILD_S]
        if name == "verify.fuzz_case":
            self.case_ms.append(1e3 * dur)
        elif name == "verify.fuzz":
            self._case_rng.pop(idx, None)
        elif name == "dtmc.hitting_scan":
            self.hitting_max_per_scan = max(self.hitting_max_per_scan,
                                            self._scan_hits.pop(idx, 0))

    def _close_to(self, idx: int, t: float) -> None:
        # synthetic case spans left open above ``idx`` end with it
        while self.stack and self.stack[-1] != idx:
            self._close_top(t)
        if self.stack:
            self._close_top(t)

    def _span_wrapper(self, fn, layer):
        """``layer`` is a name, or a mapping from the ``method`` argument to one."""
        def wrapper(*args, **kwargs):
            if isinstance(layer, dict):
                method = kwargs.get("method", args[1] if len(args) > 1 else "solve")
                name = layer.get(method, layer["solve"])
            else:
                name = layer
            idx = self._open(name, fn.__name__, time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_to(idx, time.perf_counter())
        return wrapper

    def _sampler_wrapper(self, fn):
        def wrapper(rng, *args, **kwargs):
            t = time.perf_counter()
            top = self.stack[-1] if self.stack else -1
            if top >= 0 and self.spans[top][NAME] == "verify.fuzz_case":
                fuzz = self.spans[top][PARENT]
                if self._case_rng.get(fuzz) is not rng:
                    self._close_top(t)
                    top = fuzz
            if top >= 0 and self.spans[top][NAME] == "verify.fuzz":
                if top not in self._case_rng:
                    self.fuzz_setup_s += t - self.spans[top][START]
                self._case_rng[top] = rng
                self._open("verify.fuzz_case", "", t)
            idx = self._open("verify.sample", fn.__name__, t)
            try:
                out = fn(rng, *args, **kwargs)
            finally:
                self._close_to(idx, time.perf_counter())
            self.sample_calls += 1
            self.sample_none += out is None
            return out
        return wrapper

    def _hitting_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.hitting_calls += 1
            top = self.stack[-1] if self.stack else -1
            in_scan = top >= 0 and self.spans[top][NAME] == "dtmc.hitting_scan"
            if in_scan:
                self._scan_hits[top] = self._scan_hits.get(top, 0) + 1
            try:
                return fn(*args, **kwargs)
            except (DivergentHittingTimes, SolverFailure):
                self.hitting_skipped += in_scan
                raise
        return wrapper

    def _solve_wrapper(self, fn):
        def wrapper(a, b, *args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(a, b, *args, **kwargs)
            finally:
                self.solve_s += time.perf_counter() - t
                self.solve_calls += 1
                n = np.shape(a)[-1]
                k = np.shape(b)[-1] if np.ndim(b) == 2 else 1
                self.solve_gflop += (2.0 / 3.0 * n**3 + 2.0 * n**2 * k) / 1e9
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, module: str, qualname: str, wrap) -> None:
        owner, attr = _resolve(module, qualname)
        original = getattr(owner, attr)
        wrapper = wrap(original)
        setattr(wrapper, WRAPPED, original)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for mod in _library_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, targets in SPAN_LAYERS.items():
                for module, qualname in targets:
                    self._patch_everywhere(module, qualname,
                                           lambda fn, l=layer: self._span_wrapper(fn, l))
            for (module, qualname), names in METHOD_LAYERS.items():
                self._patch_everywhere(module, qualname,
                                       lambda fn, n=names: self._span_wrapper(fn, n))
            for module, qualname in SAMPLERS:
                self._patch_everywhere(module, qualname, self._sampler_wrapper)
            self._patch_everywhere(*HITTING, self._hitting_wrapper)
            solve = np.linalg.solve
            wrapper = self._solve_wrapper(solve)
            setattr(wrapper, WRAPPED, solve)
            self._patch(np.linalg, "solve", wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans left open")

    # -- results -----------------------------------------------------------

    def metrics(self, n_passes: int, traced_s: float) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics of ``n_passes`` traced passes lasting ``traced_s``."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls.get(layer, 0) / n_passes, "count")
            out[f"{layer}.s"] = (self.self_s.get(layer, 0.0) / n_passes, "s")
        for key, s in self.lambda1_s.items():
            out[f"dtmc.lambda1.{key}.s"] = (s / n_passes, "s")
        out["dtmc.hitting.calls"] = (self.hitting_calls / n_passes, "count")
        out["dtmc.hitting.skipped"] = (self.hitting_skipped / n_passes, "count")
        out["dtmc.hitting.max_per_scan"] = (float(self.hitting_max_per_scan), "count")
        case_ms = np.array(self.case_ms) if self.case_ms else np.zeros(1)
        out["verify.fuzz_setup.s"] = (self.fuzz_setup_s / n_passes, "s")
        out["verify.fuzz_case_ms.p50"] = (float(np.percentile(case_ms, 50)), "ms")
        out["verify.fuzz_case_ms.p99"] = (float(np.percentile(case_ms, 99)), "ms")
        out["verify.fuzz_case.share"] = (float(case_ms.sum()) / 1e3 / traced_s, "ratio")
        out["verify.sample.none_frac"] = (self.sample_none / max(1, self.sample_calls), "ratio")
        out["linalg.solve.calls"] = (self.solve_calls / n_passes, "count")
        out["linalg.solve.gflop"] = (self.solve_gflop / n_passes, "GFLOP")
        out["linalg.solve.s"] = (self.solve_s / n_passes, "s")
        attributed = sum(self.self_s.values())
        out["trace.unattributed_frac"] = (1.0 - attributed / traced_s, "ratio")
        return out

    def span_rows(self):
        """Spans as (name, detail, start, end, parent index) rows."""
        return [s[:PARENT + 1] for s in self.spans]


def leftover_wrappers() -> list[str]:
    """Attributes of the library and ``numpy.linalg`` still bound to a wrapper."""
    found = []
    owners = _library_modules() + [np.linalg]
    owners += [v for m in _library_modules() for v in vars(m).values() if isinstance(v, type)]
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if hasattr(value, WRAPPED):
                found.append(f"{getattr(owner, '__name__', owner)}.{name}")
    return found
