"""One-call aggregation of every applicable bound for a chain.

Hypothesis failures are rendered inline as reports with a failed
hypothesis, never raised, so a caller always gets the full table. The
bounds return coefficients; with a perturbed chain, the catalog's tail is
the one place where the perturbation meets them: every report with an
``ell`` or a ``direct_value`` gets ||Delta|| and the exact gap in its own
norm, and a validity verdict, through ``BoundReport.with_exact_gap``, the
call each fuzz case makes.

Transition matrices and generators differ only in their norm-wise bounds;
the weighted-norm drift certificate, the weighted-norm bound pair and the
gap attachment are shared, with a ``ctmc_`` prefix on generator names.
Every bound that needs the stationary distribution reads the chain's own,
which is solved once and cached on the chain.

Every exact gap, here, in the fuzz and in ``verify.exact_gap``, follows one
rule, ``_exact_gap``: the plain solve in total variation, the state-reduction
solve under weights, whose pi the weighted pair is given too. A gap is
solved only for a norm in which some report has a value, so a perturbed
chain whose weighted pair fails gets no state-reduction solve.
"""

from __future__ import annotations

import numpy as np

from .chains import IntensityMatrix, StochasticMatrix, WeightFunction, _check_pair
from .ctmc import (
    ctmc_deviation_bound,
    ctmc_hitting_times,
    ctmc_lambda1_bound,
    ctmc_small_set_bound,
    ctmc_unit_drift_bound,
    ctmc_v_bound_drift_only,
    ctmc_v_bound_with_stationary,
    fit_ctmc_geometric_drift,
)
from .dtmc import (
    UnitDriftCertificate,
    fit_geometric_drift,
    hitting_time_bound,
    seneta_best_bound,
    seneta_bound,
    skeleton_bound,
    small_set_bound,
    unit_drift_bound,
    v_bound_drift_only,
    v_bound_with_stationary,
)
from .errors import (
    DivergentHittingTimes,
    DriftViolated,
    HypothesisFailed,
    McPerturbError,
    NoPositiveLambda,
)
from .norms import matrix_norm, total_variation_norm, v_norm_matrix, v_norm_measure
from .reports import BoundReport, Hypothesis, failed_report
from .solvers import stationary_distribution

__all__ = ["bound_catalog"]

SKELETON_M = 2      # step count of the skeleton bound
SKELETON_MAX_N = 32     # largest transition matrix whose fuzz cases check the skeleton bound


def _guard(reports, name, fn):
    try:
        reports.append(fn())
    except HypothesisFailed as exc:
        reports.append(failed_report(name, exc.hypothesis, exc.detail))
    except (DriftViolated, DivergentHittingTimes, NoPositiveLambda) as exc:
        reports.append(failed_report(name, "certificate valid", str(exc)))


def _exact_gap(chain, perturbed, weights=None) -> float:
    """||nu - pi|| of ``perturbed`` and ``chain``: in total variation from the
    plain solve, or weighted from the state-reduction solve, since growing
    weights amplify the plain solve's absolute tail errors."""
    method = "solve" if weights is None else "gth"
    diff = (stationary_distribution(perturbed, method).values
            - stationary_distribution(chain, method).values)
    return total_variation_norm(diff) if weights is None else v_norm_measure(diff, weights)


def _v_norm_pair(chain, dv, cert) -> list[BoundReport]:
    """The two weighted-norm drift bounds of ``chain`` for a perturbation of
    weighted norm ``dv``, failures rendered inline.

    The catalog and the fuzz oracle both check the pair through this one
    function; each solves the weighted gap only when a report has a value.
    """
    pi = stationary_distribution(chain, "gth")
    if isinstance(chain, StochasticMatrix):
        prefix, with_pi, drift_only = "", v_bound_with_stationary, v_bound_drift_only
    else:
        prefix, with_pi, drift_only = ("ctmc_", ctmc_v_bound_with_stationary,
                                       ctmc_v_bound_drift_only)
    reports: list[BoundReport] = []
    _guard(reports, f"{prefix}v_norm_with_stationary", lambda: with_pi(chain, cert, pi, dv))
    _guard(reports, f"{prefix}v_norm_drift_only", lambda: drift_only(cert, dv))
    return reports


def _dtmc_reports(P, perturbed, m_max, unit, taboo_state):
    reports: list[BoundReport] = []
    _guard(reports, "seneta", lambda: seneta_bound(P))
    _guard(reports, "seneta_best", lambda: seneta_best_bound(P))
    _guard(reports, "small_set", lambda: small_set_bound(P, m_max=m_max, perturbed=perturbed)[0])
    _guard(reports, "hitting_time_drift", lambda: hitting_time_bound(P))
    if perturbed is not None:
        _guard(reports, f"skeleton[m={SKELETON_M}]",
               lambda: skeleton_bound(P, perturbed, SKELETON_M))
    if unit is not None:
        _guard(reports, "unit_drift",
               lambda: unit_drift_bound(P, UnitDriftCertificate(taboo_state, unit)))
    return reports


def _ctmc_reports(Q, unit, taboo_state):
    reports: list[BoundReport] = []
    _guard(reports, "ctmc_deviation", lambda: ctmc_deviation_bound(Q))
    _guard(reports, "ctmc_lambda1", lambda: ctmc_lambda1_bound(Q))
    _guard(reports, "ctmc_small_set", lambda: ctmc_small_set_bound(Q))
    _guard(reports, "ctmc_unit_drift",
           lambda: ctmc_unit_drift_bound(
               Q, ctmc_hitting_times(Q, taboo_state) if unit is None else unit, taboo_state))
    return reports


def bound_catalog(
    chain: StochasticMatrix | IntensityMatrix,
    perturbed=None,
    m_max: int = 8,
    weights: WeightFunction | None = None,
    taboo_state: int = 0,
) -> list[BoundReport]:
    """Every applicable bound for the chain, with failures rendered inline.

    ``weights`` switches on the drift-based bounds: strictly positive
    weights are fitted as a geometric drift certificate (weighted-norm
    bounds); a vector with zeros is treated as a unit-drift function with
    ``taboo_state`` as its zero (for a generator, in place of the hitting
    times onto ``taboo_state``). A perturbed chain must be of the chain's
    kind and size, as in a ``PerturbationPair``.
    """
    dtmc = isinstance(chain, StochasticMatrix)
    if not dtmc and not isinstance(chain, IntensityMatrix):
        raise McPerturbError(f"unsupported chain type {type(chain).__name__}")
    if perturbed is not None:
        _check_pair(chain, perturbed)
    unit = None
    if weights is not None and not isinstance(weights, WeightFunction):
        V = np.asarray(weights, dtype=float)
        if float(np.min(V)) <= 0:
            unit, weights = V, None         # a unit-drift function, not weights
    if dtmc:
        # raises here, before any bound, when pi cannot be certified
        stationary_distribution(chain)
        reports = _dtmc_reports(chain, perturbed, m_max, unit, taboo_state)
    else:
        reports = _ctmc_reports(chain, unit, taboo_state)
    for rep in reports:
        rep.info.setdefault("norm", "tv")

    prefix, drift = ("", "geometric") if dtmc else ("ctmc_", "generator")
    cert = None
    if weights is not None:
        try:
            cert = (fit_geometric_drift(chain, weights, taboo_state) if dtmc
                    else fit_ctmc_geometric_drift(chain, weights, taboo_state))
        except (DriftViolated, NoPositiveLambda) as exc:
            reports.append(failed_report(f"{prefix}v_norm_drift_fit", f"{drift} drift",
                                         str(exc)))

    if perturbed is None:
        if cert is not None:
            info = {"norm": "v", "lambda": cert.lam, "b": cert.b}
            if dtmc:
                info["pi_v"] = cert.pi_value
            reports.append(BoundReport(
                bound_name=f"{prefix}v_norm_certificate",
                hypotheses=[Hypothesis(f"{drift} drift certificate", True,
                                       f"lambda = {cert.lam:.6g}, b = {cert.b:.6g}")],
                info=info,
            ))
        return reports

    # the one place where the perturbation meets the coefficients: each
    # report with a value gets ||Delta|| and the exact gap in its own norm
    delta = perturbed.entries - chain.entries
    delta_norm = {"tv": matrix_norm(delta)}
    if cert is not None:
        delta_norm["v"] = v_norm_matrix(delta, cert.weights)
        reports += _v_norm_pair(chain, delta_norm["v"], cert)
    norms = {rep.info["norm"] for rep in reports
             if rep.ell is not None or rep.direct_value is not None}
    gap = {norm: _exact_gap(chain, perturbed, cert.weights if norm == "v" else None)
           for norm in ("tv", "v") if norm in norms}
    return [rep if rep.ell is None and rep.direct_value is None
            else rep.with_exact_gap(gap[rep.info["norm"]], delta_norm[rep.info["norm"]])
            for rep in reports]
