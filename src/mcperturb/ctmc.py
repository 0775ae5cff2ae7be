"""Perturbation bounds for continuous-time chains via step-h skeletons.

A bounded conservative generator Q is analyzed through its first-order
skeleton P_h = I + h Q, which is stochastic, irreducible, and aperiodic for
any step h below the reciprocal of the uniformization constant, and shares
Q's stationary distribution. All discrete-time machinery transfers:

* the continuous-time deviation matrix D (the integral of P^t - Pi) equals
  h times the skeleton's deviation matrix, independent of the admissible h.
  That is h A# for A = I - P_h = -h Q, so it is computed from Q itself,
  with Q's own certified pi, and no skeleton chain is built;
* Lambda1(P_h) = 1 - h Lambda1(Q), with the generator's ergodicity
  coefficient defined as half the minimal pairwise row defect;
* a drift inequality Q V <= -lambda V + b at the taboo state becomes
  P_h V <= (1 - lambda h) V + b h there.

Q's own pi comes from :func:`~mcperturb.solvers.stationary_distribution`,
the solve both chain kinds share (``ctmc_stationary`` names it for
generators); the default step is written once, in ``solvers._default_step``.

The bound catalog mirrors the discrete one: deviation-norm, ergodicity
coefficient, column-minima small set, unit drift, and the two
weighted-norm drift bounds. As there, a norm-wise bound returns its
coefficient alone, and the caller applies ||Delta|| with
:meth:`~mcperturb.reports.BoundReport.with_exact_gap`. The weighted bounds
are the discrete ones with the decay margin gamma = lambda in place of
1 - lambda, and share their code with :mod:`mcperturb.dtmc`. So do the
drift checks: Q V <= -1 and Q V <= -lambda V + b are checked by the
discrete checks on the drift image Q V, with the uniformization constant
as rate scale in the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .chains import (
    Distribution,
    IntensityMatrix,
    StochasticMatrix,
    WeightFunction,
    _inherit_irreducibility,
)
from .errors import (
    DriftViolated,
    HypothesisFailed,
    InvalidParameters,
    InvalidStep,
    NoPositiveLambda,
    NotErgodic,
    OutOfRadius,
)
from .dtmc import (
    GeometricDriftCertificate,
    _check_geometric_drift,
    _check_unit_drift,
    _drift_image,
    _off_taboo,
    _stationary_constant,
    _unit_drift_report,
    _v_bound_drift_only,
    _v_bound_with_stationary,
)
from .norms import _pair_blocks, matrix_norm, v_norm_matrix
from .reports import BoundReport, Hypothesis
from . import solvers
from .settings import DEFAULT
from .solvers import _default_step, _hitting_solve, stationary_distribution

__all__ = [
    "UniformizedChain",
    "uniformize",
    "pair_step",
    "ctmc_stationary",
    "ctmc_ergodicity_coefficient",
    "ctmc_deviation_matrix",
    "ctmc_deviation_bound",
    "ctmc_lambda1_bound",
    "ctmc_small_set_bound",
    "ctmc_hitting_times",
    "ctmc_unit_drift_bound",
    "CtmcGeometricDriftCertificate",
    "fit_ctmc_geometric_drift",
    "transfer_drift_to_skeleton",
    "ctmc_v_bound_with_stationary",
    "ctmc_v_bound_drift_only",
    "mm1_coefficients",
    "batch_arrival_drift",
    "stationary_series_expansion",
]

@dataclass
class UniformizedChain:
    """Step length, the skeleton transition matrix, and its source generator."""

    h: float
    matrix: StochasticMatrix
    source: IntensityMatrix


def uniformize(Q: IntensityMatrix, h: float | None = None) -> UniformizedChain:
    """Build the step-h skeleton P_h = I + h Q, validated under ``Q.settings``.

    ``h`` must satisfy 0 < h < 1 / max_i(-Q_ii) strictly; when omitted it
    defaults to 0.99 of that limit. The 1-state generator has no rate, so
    every h > 0 is admissible and the default is 0.99.
    """
    uc = Q.uniformization_constant
    limit = 1.0 / uc if uc > 0 else np.inf
    if h is None:
        h = _default_step(uc)
    if not 0.0 < h < limit:
        raise InvalidStep(f"step {h:g} outside the open interval (0, {limit:g})")
    P_h = StochasticMatrix(np.eye(Q.n) + h * Q.entries, settings=Q.settings)
    # P_h has Q's off-diagonal support unless some h * q_ij underflows to 0
    _inherit_irreducibility(Q, P_h)
    return UniformizedChain(h=h, matrix=P_h, source=Q)


def pair_step(Q: IntensityMatrix, Q_tilde: IntensityMatrix) -> float:
    """Common admissible step for a generator pair: ``uniformize``'s default
    step for the larger uniformization constant (0.99 for a 1-state pair)."""
    return _default_step(max(Q.uniformization_constant, Q_tilde.uniformization_constant))


def ctmc_stationary(Q: IntensityMatrix, method: str = "solve") -> Distribution:
    """Solve pi Q = 0, sum(pi) = 1 for an irreducible bounded generator:
    :func:`~mcperturb.solvers.stationary_distribution` of ``Q``."""
    return stationary_distribution(Q, method)


def ctmc_ergodicity_coefficient(Q: IntensityMatrix) -> float:
    """Generator ergodicity coefficient.

    Half the minimum over state pairs i != j of

        |Q_ii - Q_ji| + |Q_ij - Q_jj| - sum_{s != i, j} |Q_is - Q_js|,

    chosen so that the skeleton satisfies Lambda1(P_h) = 1 - h Lambda1(Q)
    for small enough h.
    """
    return _generator_coefficient(Q.entries)


def _generator_coefficient(Q: np.ndarray, margin: float | None = None) -> float:
    """``ctmc_ergodicity_coefficient`` of the generator entries ``Q``; given
    a margin, it must stay above it.

    Rows are scanned in the blocks of ``norms._pair_blocks``. The
    hypothesis scan stops at the first block holding a row whose defects
    already put the coefficient at or below the margin, raising
    HypothesisFailed with that upper bound and the first such row.
    """
    diag = Q.diagonal()
    best = np.inf
    for a, tot in _pair_blocks(Q):
        b = a + tot.shape[0]
        d_i = np.abs(diag[a:b, None] - Q[a + 1:, a:b].T)     # |Q_ii - Q_ji|
        d_j = np.abs(Q[a:b, a + 1:] - diag[a + 1:])          # |Q_ij - Q_jj|
        inner = tot - d_i - d_j
        v = d_i + d_j - inner
        v[np.tri(*v.shape, -1, dtype=bool)] = np.inf         # pairs j <= i
        d = v.min(axis=1)                   # row a + r's smallest defect with a later row
        if margin is not None:
            hit = np.flatnonzero(0.5 * d <= margin)
            if hit.size:
                r = int(hit[0])
                raise HypothesisFailed("Lambda1(Q) > 0",
                                       f"Lambda1(Q) <= {0.5 * float(d[r]):.12g} (row {a + r})")
        best = min(best, float(d.min()))
    return 0.5 * best


def ctmc_deviation_matrix(Q: IntensityMatrix) -> np.ndarray:
    """Deviation matrix of the generator: the integral of (P^t - Pi) dt.

    D = h A# for A = -h Q (Coolen-Schrijner & van Doorn 2002), h being
    ``uniformize``'s default step, and A# certified by
    ``solvers._certified_group_inverse``. Q's pi must also pass the
    skeleton's stationarity gate h max|pi Q| <= settings.stationarity, and
    D e = 0, pi D = 0 are certified.
    """
    pi = stationary_distribution(Q)
    h = _default_step(Q.uniformization_constant)
    solvers._gate("stationary residual", h * float(np.abs(pi.values @ Q.entries).max()),
                  Q.settings.stationarity)
    D = solvers._certified_group_inverse(Q)
    D *= h
    solvers._gate("deviation residual",
                  max(float(np.abs(D.sum(axis=1)).max()), float(np.abs(pi.values @ D).max())),
                  Q.settings.inverse, max(1.0, float(np.abs(D).max())))
    return D


def ctmc_deviation_bound(Q: IntensityMatrix) -> BoundReport:
    """Deviation-norm bound: ell = ||D||, for uniformly ergodic generators.

    On a finite state space the hypothesis holds automatically.
    """
    D = ctmc_deviation_matrix(Q)
    ell = matrix_norm(D)
    return BoundReport(
        bound_name="ctmc_deviation",
        hypotheses=[Hypothesis("||D|| finite", True, f"||D|| = {ell:.12g}")],
        ell=ell,
        info={"deviation_norm": ell},
    )


def ctmc_lambda1_bound(Q: IntensityMatrix) -> BoundReport:
    """Ergodicity-coefficient bound: ell = 1 / Lambda1(Q), needs Lambda1(Q) > 0.

    The row scan stops at the first row whose defects already put
    Lambda1(Q) at or below the margin; the failure then reports that upper
    bound on Lambda1(Q) and its row.
    """
    lam = _generator_coefficient(Q.entries, Q.settings.hypothesis_margin)
    return BoundReport(
        bound_name="ctmc_lambda1",
        hypotheses=[Hypothesis("Lambda1(Q) > 0", True, f"Lambda1(Q) = {lam:.12g}")],
        ell=1.0 / lam,
        info={"lambda1_Q": lam},
    )


def ctmc_small_set_bound(Q: IntensityMatrix) -> BoundReport:
    """Column-minimum bound: ell = 1 / sum_k inf_{i != k} Q_ik.

    The step length cancels structurally, so the value is h-free. Fails
    when every column has a zero off-diagonal infimum.
    """
    M = Q.entries.copy()
    np.fill_diagonal(M, np.inf)          # exclude the diagonal from column minima
    delta_k = M.min(axis=0)
    total = float(delta_k.sum())
    if total <= Q.settings.hypothesis_margin:
        raise HypothesisFailed(
            "sum_k inf_{i != k} Q_ik > 0", f"sum = {total:.12g}"
        )
    return BoundReport(
        bound_name="ctmc_small_set",
        hypotheses=[Hypothesis("positive common rate mass", True, f"sum = {total:.12g}")],
        ell=1.0 / total,
        info={"column_minima": delta_k},
    )


def ctmc_hitting_times(Q: IntensityMatrix, target: int) -> np.ndarray:
    """Mean hitting times onto ``target``: solve Q V = -1 off target, V(target) = 0.

    Certified like :func:`~mcperturb.dtmc.hitting_times`, against
    ``Q.settings.inverse``.
    """
    return _hitting_solve(Q, -Q.entries, target)


def ctmc_unit_drift_bound(Q: IntensityMatrix, drift_values, taboo_state: int) -> BoundReport:
    """Unit drift bound: ell = 2 (sup V)^2 under Q V <= -1 off the taboo state."""
    V = np.asarray(drift_values, dtype=float).ravel()
    _check_unit_drift(Q, V, taboo_state, -1.0, Q.uniformization_constant)
    return _unit_drift_report("ctmc_unit_drift", "Q V <= -1 off taboo", taboo_state,
                              float(V.max()))


@dataclass
class CtmcGeometricDriftCertificate:
    """Drift witness Q V <= -lambda V + b at the taboo state, lambda > 0."""

    taboo_state: int
    weights: WeightFunction
    lam: float
    b: float

    def validate(self, Q: IntensityMatrix) -> None:
        """Check the witness on ``Q`` to ``Q.settings.drift``."""
        _check_geometric_drift(Q, self, -self.lam, Q.uniformization_constant, "generator")
        if self.lam <= 0:
            raise DriftViolated(self.taboo_state, -self.lam, "decay rate must be positive")


def fit_ctmc_geometric_drift(
    Q: IntensityMatrix,
    weights,
    taboo_state: int,
) -> CtmcGeometricDriftCertificate:
    """Fit the largest decay rate lambda for given weights; b soaks the taboo row."""
    wf, qv = _drift_image(Q, weights, taboo_state)
    V = wf.values
    rates = -qv / V
    lam = float(_off_taboo(rates, taboo_state).min())
    if lam <= Q.settings.hypothesis_margin:
        raise NoPositiveLambda(f"best decay rate {lam:.3e} is not positive")
    b = max(0.0, float(qv[taboo_state] + lam * V[taboo_state]))
    return CtmcGeometricDriftCertificate(taboo_state, wf, lam, b)


def transfer_drift_to_skeleton(cert: CtmcGeometricDriftCertificate, h: float):
    """Discrete certificate induced on P_h: P_h V <= (1 - lambda h) V + b h."""
    return GeometricDriftCertificate(
        taboo_state=cert.taboo_state,
        weights=cert.weights,
        lam=1.0 - cert.lam * h,
        b=cert.b * h,
    )


def ctmc_v_bound_with_stationary(
    Q: IntensityMatrix,
    cert: CtmcGeometricDriftCertificate,
    pi: Distribution,
    delta_v_norm: float,
) -> BoundReport:
    """Weighted bound using pi(V): gap_V <= c ||pi||_V d / (lambda - c d).

    Requires d = ||Delta||_V < lambda / c with c = 1 + ||e||_V ||pi||_V.
    """
    cert.validate(Q)
    return _v_bound_with_stationary(
        cert, cert.lam, pi, delta_v_norm, name="ctmc_v_norm_with_stationary",
        drift="generator drift certificate", hypothesis="||Delta||_V < lambda / c",
    )


def ctmc_v_bound_drift_only(
    cert: CtmcGeometricDriftCertificate,
    delta_v_norm: float,
) -> BoundReport:
    """Weighted bound from drift parameters alone.

    Requires V >= 1 and d < lambda^2 / (b + lambda); reads
    gap_V <= b (b + lambda) d / (lambda^3 - lambda (b + lambda) d).
    """
    return _v_bound_drift_only(
        cert, cert.lam, delta_v_norm, name="ctmc_v_norm_drift_only",
        drift="generator drift certificate", hypothesis="||Delta||_V < lambda^2 / (b + lambda)",
    )


def mm1_coefficients(sigma: float, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-generating coefficient vectors of the single-server queue.

    Arrivals at rate sigma, service at rate mu; row 0 carries the arrival
    coefficients [-sigma, sigma] and rows i >= 1 the service/arrival band
    [mu, -(mu + sigma), sigma] centered on the diagonal.
    """
    if sigma <= 0 or mu <= 0:
        raise InvalidParameters("rates must be positive")
    a = np.array([-sigma, sigma])
    b = np.array([mu, -(mu + sigma), sigma])
    return a, b


def _validate_band_coefficients(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size < 2 or b.size < 2:
        raise InvalidParameters("coefficient vectors need at least two entries")
    if np.any(a[1:] < 0) or a[0] > 0:
        raise InvalidParameters("row-0 coefficients must be [diag <= 0, rates >= 0...]")
    if b[0] <= 0:
        raise InvalidParameters("downward rate b[0] must be positive")
    if b[1] > 0 or np.any(b[2:] < 0):
        raise InvalidParameters("band coefficients must be [b0 > 0, diag <= 0, rates >= 0...]")
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    if abs(a.sum()) > 1e-12 * scale or abs(b.sum()) > 1e-12 * scale:
        raise InvalidParameters("coefficient vectors must each sum to zero (conservative)")
    return a, b


def batch_arrival_drift(a, b, n_states: int = 200) -> CtmcGeometricDriftCertificate:
    """Geometric drift certificate for a batch-arrival band generator.

    The generator has row 0 equal to the ``a`` coefficients and every row
    i >= 1 equal to the ``b`` band starting one column left of the
    diagonal. With generating functions A(z) = sum a_k z^k and
    B(z) = sum b_k z^k, the weights V(i) = z0^i satisfy
    Q V = (B(z0)/z0) V off state 0, so the decay rate is
    lambda = max over z >= 1 of -B(z)/z. The maximizer z0 is the root of
    g(z) = z B'(z) - B(z), which is nondecreasing (g' = z B'' >= 0), starts
    negative (g(1) = B'(1) < 0) and grows without bound once the band has
    an upward rate: doubling from 2 brackets it, and bisection on the sign
    of g pins it to full precision (an argmax by value comparison alone
    cannot certify z0 beyond sqrt(eps)).
    The certificate uses b = A(z0) + lambda, taboo state 0.

    Requires the ergodicity condition B'(1) < 0 and at least one upward
    batch rate (otherwise B has no finite upper root and the weights would
    be unbounded). It is built before any generator exists, so lambda's
    positivity margin is ``DEFAULT.hypothesis_margin``.
    """
    a, b = _validate_band_coefficients(a, b)
    if n_states < 2:
        raise InvalidParameters("need at least two states")
    b_prime_at_1 = float(npoly.polyval(1.0, npoly.polyder(b)))
    if not b_prime_at_1 < 0:
        raise NotErgodic(f"mean band drift B'(1) = {b_prime_at_1:.6g} is not negative")
    if not np.any(b[2:] > 0):
        raise InvalidParameters(
            "no upward rates in the band: the drift weights would be unbounded"
        )

    def g(z):
        return z * npoly.polyval(z, npoly.polyder(b)) - npoly.polyval(z, b)

    hi = 2.0
    for _ in range(200):
        if g(hi) > 0:
            break
        hi *= 2.0
    else:
        raise InvalidParameters("band generating function never turns positive")
    lo = 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    z0 = 0.5 * (lo + hi)
    lam = float(-npoly.polyval(z0, b) / z0)
    if lam <= DEFAULT.hypothesis_margin:
        raise NoPositiveLambda(f"decay rate {lam:.3e} is not positive")
    with np.errstate(over="ignore"):
        V = z0 ** np.arange(n_states, dtype=float)
    finite = np.isfinite(V)
    if not finite.all():
        # z0 > 1, so the weights overflow from some state on
        raise InvalidParameters(
            f"weights z0^i overflow at {n_states} states (z0 = {z0:.6g}); "
            f"at most {int(finite.sum())} states are admissible"
        )
    b_const = float(npoly.polyval(z0, a)) + lam
    return CtmcGeometricDriftCertificate(
        taboo_state=0, weights=WeightFunction(V), lam=lam, b=b_const
    )


def stationary_series_expansion(
    Q: IntensityMatrix,
    G,
    eps: float,
    n_terms: int = 50,
    cert: CtmcGeometricDriftCertificate | None = None,
) -> Distribution:
    """Stationary measure of Q + eps G as the power series pi sum (eps G D)^n.

    ``G`` must be a conservative direction (G e = 0). Admissibility: with a
    drift certificate, eps must lie inside one of its radii
    lambda / (c g1) or lambda^2 / ((b + lambda) g1), where g1 = ||G||_V;
    without one, the spectral radius of eps G D must be below 1. The constant
    c = 1 + ||e||_V ||pi||_V reads the GTH pi, as every weighted quantity
    does; the series terms read the plain pi.
    Each partial sum has total mass exactly 1 because D e = 0.
    """
    Gm = np.asarray(G, dtype=float)
    if Gm.shape != (Q.n, Q.n):
        raise InvalidParameters("direction matrix must match the generator size")
    scale = max(1.0, float(np.abs(Gm).max()))
    if np.abs(Gm.sum(axis=1)).max() > Q.settings.validation * scale:
        raise InvalidParameters("direction matrix rows must sum to zero")
    pi = stationary_distribution(Q)
    M = eps * (Gm @ ctmc_deviation_matrix(Q))
    if eps != 0.0:
        if cert is not None:
            V = cert.weights.values
            g1 = v_norm_matrix(Gm, V)
            radii = [cert.lam**2 / ((cert.b + cert.lam) * g1)]
            c = _stationary_constant(stationary_distribution(Q, "gth").values, V)[1]
            radii.append(cert.lam / (c * g1))
            if not any(abs(eps) < r for r in radii):
                raise OutOfRadius(
                    f"|eps| = {abs(eps):.6g} outside admissible radii "
                    + ", ".join(f"{r:.6g}" for r in radii)
                )
        else:
            spec = float(np.abs(np.linalg.eigvals(M)).max())
            if spec >= 1.0 - 1e-9:
                raise OutOfRadius(f"spectral radius {spec:.6g} of eps G D not below 1")
    term = pi.values.copy()
    total = pi.values.copy()
    for _ in range(n_terms):
        term = term @ M
        total = total + term
    return Distribution(total, settings=Q.settings)
