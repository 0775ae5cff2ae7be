"""The public API takes its tolerances and stationary distributions from the
chain: no exported callable takes a tolerance record or a tolerance of its
own, and no solver or bound takes the chain's own pi as an argument. A
bound returns its coefficient: only a report is given the perturbation norm
its coefficient is applied to."""

import inspect

import pytest

import mcperturb

TOLERANCE_PARAMETERS = {"settings", "tol", "power_tol", "power_max_iter"}

# the chain types are where the tolerances are set
SETTINGS_CONSTRUCTORS = {"StochasticMatrix", "IntensityMatrix", "Distribution"}

# an oracle's convergence threshold, not a certification gate: the iteration
# is the independent check on the certified hitting-time solve
ORACLE_TOLERANCES = {("value_iteration_hitting", "tol")}

# each of these reads pi from the chain it is given
NO_PI = [
    "fundamental_matrix",
    "group_inverse",
    "deviation_matrix",
    "seneta_best_bound",
    "hitting_time_bound",
    "fit_geometric_drift",
    "ctmc_deviation_matrix",
    "stationary_series_expansion",
]


def _exported_callables():
    """(name, callable) for every public function, and for every public class
    its constructor and its public methods."""
    out = []
    for name in sorted(dir(mcperturb)):
        obj = getattr(mcperturb, name)
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        if inspect.isclass(obj):
            if name not in SETTINGS_CONSTRUCTORS:
                out.append((name, obj))
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    out.append((f"{name}.{attr}", member))
        else:
            out.append((name, obj))
    return out


EXPORTED = _exported_callables()


def _parameters(fn):
    try:
        return set(inspect.signature(fn).parameters)
    except (TypeError, ValueError):       # builtins without a signature
        return set()


@pytest.mark.parametrize("name,fn", EXPORTED, ids=[name for name, _ in EXPORTED])
def test_no_tolerance_parameters(name, fn):
    found = {p for p in _parameters(fn) & TOLERANCE_PARAMETERS
             if (name, p) not in ORACLE_TOLERANCES}
    assert not found, f"{name} takes {sorted(found)}"


def test_the_scan_covers_the_certificate_validators():
    names = {name for name, _ in EXPORTED}
    assert {"UnitDriftCertificate.validate", "GeometricDriftCertificate.validate",
            "CtmcGeometricDriftCertificate.validate", "stationary_distribution",
            "uniformize", "batch_arrival_drift"} <= names
    assert not names & SETTINGS_CONSTRUCTORS


@pytest.mark.parametrize("name", NO_PI)
def test_no_pi_parameter(name):
    assert "pi" not in _parameters(getattr(mcperturb, name))


@pytest.mark.parametrize("name", ["v_bound_with_stationary", "ctmc_v_bound_with_stationary"])
def test_weighted_pair_keeps_its_pi(name):
    # the generator pair is given the state-reduction pi, not the chain's own
    assert "pi" in _parameters(getattr(mcperturb, name))


def test_only_a_report_takes_a_perturbation_norm():
    takers = {name for name, fn in EXPORTED if "delta_norm" in _parameters(fn)}
    assert takers == {"BoundReport", "BoundReport.with_exact_gap"}
