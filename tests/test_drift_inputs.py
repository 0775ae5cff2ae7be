"""One drift check serves both chain kinds.

The unit and geometric drift checks and the fits' input checks are written
once over the chain's drift image (P V or Q V) and its rate scale, and the
full ergodicity-coefficient scan is the hypothesis scan without its stop. Reference copies of the separate
transition-matrix and generator checks are kept here, and the shared ones
must raise the same errors, with the same states, amounts and messages. A
taboo state outside the chain is rejected by every drift entry point.
"""

import math

import numpy as np
import pytest

from mcperturb import (
    CtmcGeometricDriftCertificate,
    DriftViolated,
    GeometricDriftCertificate,
    InvalidParameters,
    UnitDriftCertificate,
    WeightFunction,
    batch_arrival_drift,
    bound_catalog,
    ctmc_hitting_times,
    ctmc_stationary,
    ctmc_unit_drift_bound,
    ctmc_v_bound_with_stationary,
    ergodicity_coefficient,
    fit_ctmc_geometric_drift,
    fit_geometric_drift,
    hitting_times,
    stationary_distribution,
    unit_drift_bound,
    unit_drift_from_hitting_times,
    v_bound_with_stationary,
)
from mcperturb.gallery import geometric_return, meyer4, mm1
from tests.conftest import random_irreducible_chain

# ---------------------------------------------------------------------------
# reference copies of the separate checks


def ref_unit_validate(P, taboo, V):
    tol = P.settings.drift
    if abs(V[taboo]) > tol:
        raise DriftViolated(taboo, float(abs(V[taboo])), "taboo value must be zero")
    if np.any(V < -tol):
        state = int(np.argmin(V))
        raise DriftViolated(state, float(-V[state]), "drift vector must be nonnegative")
    slack = P.entries @ V - (V - 1.0)
    slack[taboo] = -np.inf
    worst = int(np.argmax(slack))
    if slack[worst] > tol * max(1.0, float(V.max())):
        raise DriftViolated(worst, float(slack[worst]), "unit drift inequality violated")


def ref_ctmc_unit(Q, V, taboo):
    tol = Q.settings.drift
    if abs(V[taboo]) > tol:
        raise DriftViolated(taboo, float(abs(V[taboo])), "taboo value must be zero")
    if np.any(V < -tol):
        state = int(np.argmin(V))
        raise DriftViolated(state, float(-V[state]), "drift vector must be nonnegative")
    slack = Q.entries @ V + 1.0
    slack[taboo] = -np.inf
    worst = int(np.argmax(slack))
    if slack[worst] > tol * max(1.0, Q.uniformization_constant * float(V.max())):
        raise DriftViolated(worst, float(slack[worst]), "unit drift inequality violated")
    return float(V.max())


def ref_geometric_validate(P, cert):
    V = cert.weights.values
    rhs = cert.lam * V
    rhs[cert.taboo_state] += cert.b
    slack = P.entries @ V - rhs
    worst = int(np.argmax(slack))
    if slack[worst] > P.settings.drift * max(1.0, float(V.max())):
        raise DriftViolated(worst, float(slack[worst]), "geometric drift inequality violated")
    if not cert.lam < 1.0:
        raise DriftViolated(cert.taboo_state, cert.lam - 1.0, "decay rate must be below 1")


def ref_ctmc_geometric_validate(Q, cert):
    V = cert.weights.values
    rhs = -cert.lam * V
    rhs[cert.taboo_state] += cert.b
    slack = Q.entries @ V - rhs
    worst = int(np.argmax(slack))
    if slack[worst] > Q.settings.drift * max(1.0, Q.uniformization_constant * float(V.max())):
        raise DriftViolated(worst, float(slack[worst]), "generator drift inequality violated")
    if cert.lam <= 0:
        raise DriftViolated(cert.taboo_state, -cert.lam, "decay rate must be positive")


def _outcome(fn):
    try:
        return ("ok", fn())
    except DriftViolated as exc:
        return (type(exc).__name__, exc.state, exc.amount, str(exc))


def _unit_vectors(h):
    """The minimal drift vector, then copies that break each condition."""
    short = h.copy()
    short[-1] *= 0.5                     # too little drift at the last state
    off = h.copy()
    off[0] = 1e-3                        # nonzero taboo value
    negative = h.copy()
    negative[1] = -1e-3
    return [h, short, off, negative, 0.5 * h]


def test_unit_drift_checks_match_the_separate_forms():
    P = meyer4().chain
    for V in _unit_vectors(hitting_times(P, 0)):
        want = _outcome(lambda: ref_unit_validate(P, 0, V))
        assert _outcome(lambda: UnitDriftCertificate(0, V).validate(P)) == want
    Q = mm1(truncation=12).chain
    for V in _unit_vectors(ctmc_hitting_times(Q, 0)):
        want = _outcome(lambda: ref_ctmc_unit(Q, V, 0))
        got = _outcome(lambda: ctmc_unit_drift_bound(Q, V, 0).info["sup_value"])
        assert got == want


@pytest.mark.parametrize("scale_lam,scale_b", [(1.0, 1.0), (0.9, 1.0), (1.0, 0.5)])
def test_geometric_checks_match_the_separate_forms(scale_lam, scale_b):
    P = geometric_return(truncation=24).chain
    cert = fit_geometric_drift(P, WeightFunction(1.0 + hitting_times(P, 0)), 0)
    cert = GeometricDriftCertificate(0, cert.weights, cert.lam * scale_lam, cert.b * scale_b)
    assert (_outcome(lambda: cert.validate(P))
            == _outcome(lambda: ref_geometric_validate(P, cert)))
    model = mm1(truncation=24)
    Q = model.chain
    c = batch_arrival_drift(model.extras["a"], model.extras["b"], n_states=Q.n)
    c = CtmcGeometricDriftCertificate(0, c.weights, c.lam / scale_lam, c.b * scale_b)
    assert (_outcome(lambda: c.validate(Q))
            == _outcome(lambda: ref_ctmc_geometric_validate(Q, c)))


def _fsum_coefficient(B):
    """Half the largest l1 row distance, each distance a correctly rounded sum
    of the same |B_ik - B_jk| terms."""
    n = len(B)
    return 0.5 * max((math.fsum(np.abs(B[i] - B[j])) for i in range(n) for j in range(i + 1, n)),
                     default=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 63, 64, 65, 130, "meyer4"])
def test_full_scan_matches_a_correctly_rounded_reference(n):
    # the generator scan's reference loop is in test_ctmc.py. The block scan
    # sums each distance's terms in its own order: at most n - 1 roundings,
    # plus the reference's own, so it is within n units of roundoff.
    if n == "meyer4":
        B = meyer4().chain.entries
    else:
        B = random_irreducible_chain(np.random.default_rng([5, n]), n)
    ref = _fsum_coefficient(B)
    assert abs(ergodicity_coefficient(B) - ref) <= len(B) * 2.0**-53 * ref


def test_full_scan_is_exact_on_equal_and_disjoint_rows():
    assert ergodicity_coefficient(np.eye(3)) == 1.0
    assert ergodicity_coefficient(np.full((70, 5), 0.2)) == 0.0


def _eye_with(bad):
    B = np.eye(4)
    B[2, 1] = bad
    return B


@pytest.mark.parametrize("B", [_eye_with(np.nan), _eye_with(np.inf), _eye_with(-np.inf),
                               [0.5, 0.5], 1.0, np.ones((2, 2, 2))],
                         ids=["nan", "inf", "-inf", "1-D", "0-D", "3-D"])
def test_input_that_is_not_a_finite_matrix_is_rejected(B):
    # a NaN distance would drop out of the max and read as "all rows equal"
    with pytest.raises(InvalidParameters, match="finite 2-D"):
        ergodicity_coefficient(B)


# ---------------------------------------------------------------------------
# taboo states outside the chain


def _dtmc_entry_points():
    P = meyer4().chain
    h = hitting_times(P, 0)
    W = WeightFunction(1.0 + h)
    fit = fit_geometric_drift(P, W, 0)
    pi = stationary_distribution(P)

    def geometric(t):
        return GeometricDriftCertificate(t, W, fit.lam, fit.b)

    return P.n, {
        "UnitDriftCertificate.validate": lambda t: UnitDriftCertificate(t, h).validate(P),
        "unit_drift_bound": lambda t: unit_drift_bound(P, UnitDriftCertificate(t, h)),
        "unit_drift_from_hitting_times": lambda t: unit_drift_from_hitting_times(P, t),
        "fit_geometric_drift": lambda t: fit_geometric_drift(P, W, t),
        "GeometricDriftCertificate.validate": lambda t: geometric(t).validate(P),
        "v_bound_with_stationary": lambda t: v_bound_with_stationary(P, geometric(t), pi, 0.0),
        "bound_catalog, geometric weights": lambda t: bound_catalog(P, weights=W, taboo_state=t),
        "bound_catalog, unit weights": lambda t: bound_catalog(P, weights=h, taboo_state=t),
    }


def _ctmc_entry_points():
    model = mm1(truncation=12)
    Q = model.chain
    h = ctmc_hitting_times(Q, 0)
    fit = batch_arrival_drift(model.extras["a"], model.extras["b"], n_states=Q.n)
    pi = ctmc_stationary(Q, method="gth")

    def geometric(t):
        return CtmcGeometricDriftCertificate(t, fit.weights, fit.lam, fit.b)

    return Q.n, {
        "ctmc_hitting_times": lambda t: ctmc_hitting_times(Q, t),
        "ctmc_unit_drift_bound": lambda t: ctmc_unit_drift_bound(Q, h, t),
        "fit_ctmc_geometric_drift": lambda t: fit_ctmc_geometric_drift(Q, fit.weights, t),
        "CtmcGeometricDriftCertificate.validate": lambda t: geometric(t).validate(Q),
        "ctmc_v_bound_with_stationary":
            lambda t: ctmc_v_bound_with_stationary(Q, geometric(t), pi, 0.0),
        "bound_catalog": lambda t: bound_catalog(Q, weights=fit.weights, taboo_state=t),
        "bound_catalog, unit weights": lambda t: bound_catalog(Q, weights=h, taboo_state=t),
    }


@pytest.mark.parametrize("taboo", ["n", -1, 1.5, 1.0, True])
@pytest.mark.parametrize("entry_points", [_dtmc_entry_points, _ctmc_entry_points],
                         ids=["dtmc", "ctmc"])
def test_every_drift_entry_point_rejects_a_taboo_state_outside_the_chain(entry_points, taboo):
    n, calls = entry_points()
    t = n if taboo == "n" else taboo
    for name, call in calls.items():
        with pytest.raises(InvalidParameters, match=rf"state {t} out of range \[0, {n}\)"):
            call(t)
        call(0)                          # the same call with a state of the chain passes


@pytest.mark.parametrize("chain,hitting,name,amount", [
    (lambda: meyer4().chain, hitting_times, "unit_drift", "1.056e+00"),
    (lambda: mm1(truncation=12).chain, ctmc_hitting_times, "ctmc_unit_drift", "8.333e-01"),
], ids=["dtmc", "ctmc"])
def test_a_violated_unit_drift_is_rendered_inline_by_the_catalog(chain, hitting, name, amount):
    # halving the hitting time of state 1 breaks the drift inequality there;
    # the catalog reports it as a failed certificate and keeps every other report
    chain = chain()
    V = hitting(chain, 0)
    V[1] /= 2.0
    reports = {r.bound_name: r for r in bound_catalog(chain, weights=V)}
    plain = {r.bound_name: r for r in bound_catalog(chain)}
    failed = reports.pop(name)
    assert failed.ell is None and not failed.hypotheses_hold
    assert [(h.name, h.detail) for h in failed.hypotheses] == [
        ("certificate valid", f"unit drift inequality violated at state 1 by {amount}")]
    plain.pop(name, None)       # a generator's plain catalog has its own, from hitting times
    assert {k: r.to_dict() for k, r in reports.items()} == \
        {k: r.to_dict() for k, r in plain.items()}
