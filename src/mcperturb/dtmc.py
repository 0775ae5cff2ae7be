"""Perturbation bounds for discrete-time chains.

Every bound returns a :class:`~mcperturb.reports.BoundReport`. Bounds whose
hypothesis fails raise :class:`~mcperturb.errors.HypothesisFailed` (or a
subclass); aggregation layers render those inline instead of failing.

A norm-wise bound returns its coefficient ``ell`` alone; the caller applies
||Delta|| and the gap with ``BoundReport.with_exact_gap``. The two
weighted-norm bounds, nonlinear in ||Delta||_V, take it and tag their
reports ``info["norm"] = "v"``.

The catalog:

* ``seneta_bound``        gap <= ||Delta|| / (1 - Lambda1(P)), needs Lambda1(P) < 1
* ``seneta_best_bound``   gap <= Lambda1(A#) ||Delta||, the optimal coefficient
* ``skeleton_bound``      gap <= ||P^m - Ptilde^m|| / (1 - Lambda1(P^m))
* ``small_set_bound``     gap <= m / nu_m ||Delta|| with nu_m the whole-space
                          common mass of the m-step kernel
* ``unit_drift_bound``    gap <= 2 (sup V)^2 ||Delta|| under the unit drift
                          condition P V <= V - 1 off the taboo state
* ``hitting_time_bound``  the same with the minimal drift function, scanning
                          taboo states in increasing proven lower bound on
                          sup_i m(i -> j): the return-time floor 1 / pi_j - 1
                          or the Kemeny-Snell estimate from the fundamental
                          matrix, less its certified error
* ``v_bound_with_stationary`` / ``v_bound_drift_only``
                          weighted-norm bounds under a geometric drift
                          condition P V <= lambda V + b at the taboo state

where ``Lambda1`` is the ergodicity coefficient (half the maximal l1
distance between rows) and ``A#`` the group inverse of I - P.

The two weighted-norm bounds are written once, in terms of the decay margin
gamma = 1 - lambda; the generator forms in :mod:`mcperturb.ctmc`, under
Q V <= -lambda V + b, reuse them with gamma = lambda. So are the drift
checks: the unit and geometric inequalities are checked on the drift image
(P V here, Q V for a generator) to ``settings.drift`` relative to
max(1, r sup V), with the rate scale r = 1 for P and the uniformization
constant for Q, and every drift entry point requires the taboo state to be
a state of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import (Distribution, StochasticMatrix, WeightFunction, _check_count, _check_pair,
                     _check_state, _weight_function)
from .errors import (
    DivergentHittingTimes,
    DriftViolated,
    HypothesisFailed,
    InvalidParameters,
    NoPositiveLambda,
    NoSmallSet,
    SolverFailure,
)
from .norms import _pair_blocks, _shared_column_maxima, matrix_norm, v_norm_measure
from .reports import BoundReport, Hypothesis
from .solvers import (_hitting_solve, _identity_minus, fundamental_matrix, group_inverse,
                      stationary_distribution)

__all__ = [
    "ergodicity_coefficient",
    "seneta_bound",
    "seneta_best_bound",
    "skeleton_bound",
    "SmallSetCertificate",
    "small_set_bound",
    "hitting_times",
    "birth_death_hitting_times",
    "UnitDriftCertificate",
    "unit_drift_from_hitting_times",
    "unit_drift_bound",
    "hitting_time_bound",
    "GeometricDriftCertificate",
    "fit_geometric_drift",
    "v_bound_with_stationary",
    "v_bound_drift_only",
]

_UNIT_ROUNDOFF = 2.0**-53


def ergodicity_coefficient(B) -> float:
    """Half the maximal l1 distance between rows of B.

    Zero for matrices with identical rows; at most 1 for stochastic
    matrices; computed over all row pairs. B must be a finite 2-D array.
    """
    M = np.asarray(B, dtype=float)
    if M.ndim != 2 or not np.isfinite(M).all():
        raise InvalidParameters("ergodicity coefficient needs a finite 2-D array")
    return _contraction_coefficient(M)


def _contraction_coefficient(M: np.ndarray, hypothesis: str | None = None, label: str = "",
                             margin: float = 0.0) -> float:
    """``ergodicity_coefficient(M)``; given a hypothesis, it must stay below
    1 by the margin.

    Row 0 is scanned against every later row first, the first block of
    ``norms._pair_blocks``. After it, a nonnegative M with little column
    work takes its other rows at once from the columns they share
    (``norms._shared_column_maxima``); any other M goes on in the pair
    scan's blocks. The hypothesis scan stops at the first block holding a
    row whose distances already put the coefficient at or above
    ``1 - margin``, raising HypothesisFailed with that lower bound and the
    first such row, so a hypothesis disproved at row 0 costs one row.
    """
    best = 0.0
    for a, d in _farthest_later_rows(M):
        if hypothesis is not None:
            hit = np.flatnonzero(0.5 * d >= 1.0 - margin)
            if hit.size:
                r = int(hit[0])
                raise HypothesisFailed(hypothesis, f"{label} >= {0.5 * float(d[r]):.12g} "
                                                   f"(row {a + r})")
        best = max(best, float(d.max()))
    return 0.5 * best


def _farthest_later_rows(M: np.ndarray):
    """Yield ``(a, d)`` for consecutive row blocks: ``d[r]`` is row a + r's
    largest l1 distance to a later row (or 0)."""
    for a, D in _pair_blocks(M):
        yield a, np.triu(D).max(axis=1)
        if a == 0 and M.shape[0] > 2:
            d = _shared_column_maxima(M)
            if d is not None:
                yield 1, d[1:]
                return


def seneta_bound(P: StochasticMatrix) -> BoundReport:
    """Ergodicity-coefficient bound: ell = 1 / (1 - Lambda1(P)).

    Raises HypothesisFailed when Lambda1(P) >= 1, up to a small margin that
    guards the division against rounding.
    """
    lam = _contraction_coefficient(
        P.entries, "one-step contraction Lambda1(P) < 1", "Lambda1(P)",
        P.settings.hypothesis_margin,
    )
    ell = 1.0 / (1.0 - lam)
    return BoundReport(
        bound_name="seneta",
        hypotheses=[Hypothesis("Lambda1(P) < 1", True, f"Lambda1(P) = {lam:.12g}")],
        ell=ell,
        info={"lambda1_P": lam},
    )


def seneta_best_bound(P: StochasticMatrix) -> BoundReport:
    """Optimal coefficient bound: ell = Lambda1(A#), A# the group inverse of I - P.

    Valid even when Lambda1(P) = 1; the group inverse exists for periodic
    irreducible chains as well, and the report uses it as-is.
    """
    A_sharp = group_inverse(P)
    ell = ergodicity_coefficient(A_sharp)
    return BoundReport(
        bound_name="seneta_best",
        hypotheses=[
            Hypothesis("irreducible", True),
            Hypothesis("aperiodic", P.aperiodic, f"period = {P.period}"),
        ],
        ell=ell,
        info={"lambda1_group_inverse": ell},
    )


def _skeleton_base(P: StochasticMatrix, m: int) -> tuple[np.ndarray, float]:
    """P^m and Lambda1(P^m), the part of ``skeleton_bound(P, ., m)`` that does
    not depend on the perturbed chain; HypothesisFailed unless Lambda1(P^m) < 1."""
    _check_count(m, "skeleton step count must be a positive integer", 1)
    Pm = P.power(m)
    lam = _contraction_coefficient(
        Pm, "m-step contraction Lambda1(P^m) < 1", f"m = {m}, Lambda1(P^m)",
        P.settings.hypothesis_margin,
    )
    return Pm, lam


def skeleton_bound(P: StochasticMatrix, perturbed: StochasticMatrix, m: int,
                   base: tuple[np.ndarray, float] | None = None) -> BoundReport:
    """m-step skeleton bound with the exact numerator ||P^m - Ptilde^m||.

    The looser relaxation ||P^m - Ptilde^m|| <= m ||Delta|| is reported in
    ``info`` but the bound value uses the actual m-step difference. ``base``,
    the value of ``_skeleton_base(P, m)``, spares a caller that checks many
    perturbations of one P its recomputation.
    """
    _check_pair(P, perturbed)
    Pm, lam = _skeleton_base(P, m) if base is None else base
    num = matrix_norm(Pm - perturbed.power(m))
    delta = matrix_norm(perturbed.entries - P.entries)
    return BoundReport(
        bound_name=f"skeleton[m={m}]",
        hypotheses=[Hypothesis("Lambda1(P^m) < 1", True, f"Lambda1(P^m) = {lam:.12g}")],
        direct_value=num / (1.0 - lam),
        delta_norm=delta,
        info={
            "m": m,
            "lambda1_Pm": lam,
            "m_step_difference_norm": num,
            "linear_relaxation": m * delta / (1.0 - lam),
        },
    )


@dataclass
class SmallSetCertificate:
    """Witness that the whole space is small at step m.

    ``per_state_minima[k]`` is the column minimum inf_i P^m(i, k); their sum
    ``nu_mass`` is the common measure mass, in (0, 1].
    """

    m: int
    nu_mass: float
    per_state_minima: np.ndarray


def _search_slack(P: StochasticMatrix, m_max: int) -> float:
    """s with every computed nu_m <= 1 + s for m <= m_max, rounding included;
    inf when the derivation below does not give a small s.

    With u = 2^-53, gamma_k = k u / (1 - k u) and tau = ``P.settings.validation``
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3):

    * P's rows were summed to within tau of 1 with nonnegative terms, so
      each exact row sum is at most rho = (1 + tau) / (1 - gamma_n);
    * each entry of a computed product of nonnegative matrices is at most
      (1 + gamma_n) times the exact one, in any summation order, dense or
      CSR, so the rows of the computed P^m sum to at most
      rho^m (1 + gamma_n)^(m - 1);
    * nu_m sums column minima, each at most an entry of row 0, and the
      computed sum adds at most a factor 1 + gamma_n.

    Hence nu_m <= c^m <= c^m_max with c = (1 + tau) / (1 - gamma_n)^2 and
    ln c^m_max <= x = m_max (tau + 3 g), g = gamma_(n+8), whenever x < 1/4.
    Then c^m_max <= 1 / (1 - x) <= 1 + 4x / 3, and s = 2x leaves 2x / 3 >= 2g
    for the few roundings of evaluating s and ``best * (1 + s)``.
    """
    g = (P.n + 8) * _UNIT_ROUNDOFF / (1.0 - (P.n + 8) * _UNIT_ROUNDOFF)
    x = m_max * (P.settings.validation + 3.0 * g)
    return 2.0 * x if x < 0.25 else np.inf


def small_set_bound(
    P: StochasticMatrix,
    m_max: int = 8,
    perturbed: StochasticMatrix | None = None,
) -> tuple[BoundReport, SmallSetCertificate]:
    """Search m = 1..m_max for the best whole-space small-set bound.

    For each m the common mass is nu_m = sum_k inf_i P^m(i, k); the bound
    coefficient is m / nu_m and the returned m minimizes it among steps with
    nu_m > 0, the smallest m on a tie. When a perturbed chain is supplied,
    the tighter direct form ||P^m - Ptilde^m|| / nu_m is the report's value,
    and ``info["linear_form"]`` holds the linear form m / nu_m ||Delta||,
    with ||Delta|| = ||Ptilde - P||.

    The powers come from ``StochasticMatrix.power``'s routine: right
    products with P, on its CSR form when P is sparse. The search keeps the
    P^m it chose, and Ptilde^m comes from the same routine, so the direct
    form subtracts matched products.

    The search stops early, and exactly: nu_m <= 1, so m / nu_m >= m, and
    once m reaches the best m / nu_m so far no later step can win. The stop
    waits until m >= best (1 + s), with s from ``_search_slack`` covering
    row sums up to ``P.settings.validation`` off 1 and the products'
    rounding, so it never changes the chosen m, nu_m or the coefficient.
    ``info["search_table"]`` lists the steps searched, (m, nu_m), and may
    end before m_max.

    An alternative route through the deviation-matrix norm (summing the
    geometric decay of ||P^n - Pi||) yields 2m / nu_m, twice this
    coefficient, and is therefore never worth computing.
    """
    _check_count(m_max, "m_max must be a positive integer", 1)
    if perturbed is not None:
        _check_pair(P, perturbed)
    stop = 1.0 + _search_slack(P, m_max)
    powers = P._powers()
    best = None
    table = []
    for m in range(1, m_max + 1):
        if best is not None and m >= best[0] * stop:
            break
        Pm = next(powers)
        minima = Pm.min(axis=0)
        nu = float(minima.sum())
        table.append((m, nu))
        if nu > 0.0 and (best is None or m / nu < best[0]):
            best = (m / nu, m, nu, minima, Pm)
    if best is None:
        raise NoSmallSet(f"nu_m = 0 for every m <= {m_max}")
    ell, m_star, nu_star, minima, Pm = best
    cert = SmallSetCertificate(m=m_star, nu_mass=nu_star, per_state_minima=minima)
    info = {"search_table": table, "m": m_star, "nu_mass": nu_star}
    direct_value = None
    if perturbed is not None:
        num = matrix_norm(Pm - perturbed.power(m_star))
        direct_value = num / nu_star
        info["m_step_difference_norm"] = num
        info["linear_form"] = ell * matrix_norm(perturbed.entries - P.entries)
    report = BoundReport(
        bound_name=f"small_set[m={m_star}]",
        hypotheses=[Hypothesis("nu_m > 0", True, f"nu_{m_star} = {nu_star:.12g}")],
        ell=ell,
        direct_value=direct_value,
        info=info,
    )
    return report, cert


def hitting_times(P: StochasticMatrix, target: int) -> np.ndarray:
    """Mean first hitting times onto ``target`` by dense linear solve.

    Solves m(i) = 1 + sum_{j != target} P(i, j) m(j) with m(target) = 0,
    certifying the residual against ``P.settings.inverse``. The minimality
    of the returned solution is the job of the value-iteration oracle in
    :mod:`mcperturb.verify`.
    """
    return _hitting_solve(P, _identity_minus(P.entries), target)


def birth_death_hitting_times(a, b, c, j: int) -> np.ndarray:
    """Closed-form mean hitting times onto state j for a birth-death chain.

    Parameters are per-state probabilities on states 0..n: ``a[i]`` down,
    ``b[i]`` up, ``c[i]`` stay, with a[0] = 0 and b[n] = 0. With the
    potential weights mu(0) = 1, mu(k) = (b_0 ... b_{k-1}) / (a_1 ... a_k),

        m(i -> j) = sum_{m=i}^{j-1} (1 / (b_m mu(m))) sum_{k=0}^{m} mu(k)    i < j
        m(i -> j) = sum_{m=j}^{i-1} (1 / (b_m mu(m))) sum_{l=m+1}^{n} mu(l)  i > j

    with empty sums equal to zero.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    n = a.size - 1
    if b.size != n + 1 or c.size != n + 1:
        raise InvalidParameters("a, b, c must all have length n + 1")
    if n < 1:
        raise InvalidParameters("need at least two states")
    _check_state(j, n + 1, "target state")
    if abs(a[0]) > 0 or abs(b[n]) > 0:
        raise InvalidParameters("boundary moves a[0] and b[n] must be zero")
    if np.any(a[1:] <= 0) or np.any(b[:n] <= 0):
        raise InvalidParameters("interior down/up probabilities must be positive")
    if np.any(np.abs(a + b + c - 1.0) > 1e-12):
        raise InvalidParameters("rows a[i] + b[i] + c[i] must sum to 1")
    mu = np.empty(n + 1)
    mu[0] = 1.0
    for k in range(1, n + 1):
        mu[k] = mu[k - 1] * b[k - 1] / a[k]
    prefix = np.cumsum(mu)                  # sum_{k<=m} mu(k)
    suffix = np.cumsum(mu[::-1])[::-1]      # sum_{l>=m} mu(l), summed forward
    m_times = np.zeros(n + 1)
    # below the target: climb terms accumulate from j-1 downward
    acc = 0.0
    for i in range(j - 1, -1, -1):
        acc += prefix[i] / (b[i] * mu[i])
        m_times[i] = acc
    # above the target: descent terms accumulate from j upward
    acc = 0.0
    for i in range(j + 1, n + 1):
        acc += suffix[i] / (b[i - 1] * mu[i - 1])
        m_times[i] = acc
    return m_times


@dataclass
class UnitDriftCertificate:
    """Unit drift witness: V >= 0 bounded, V(taboo) = 0, P V <= V - 1 off taboo."""

    taboo_state: int
    values: np.ndarray

    @property
    def sup_value(self) -> float:
        return float(self.values.max())

    def validate(self, P: StochasticMatrix) -> None:
        """Check the witness on ``P`` to ``P.settings.drift``."""
        _check_unit_drift(P, self.values, self.taboo_state, self.values - 1.0, 1.0)


def _check_drift_vector(chain, V: np.ndarray, taboo_state: int, what: str) -> None:
    """Every drift entry point's input check: one value per state of the
    chain, and a taboo state that is one of its states."""
    if V.shape != (chain.n,):
        raise InvalidParameters(f"{what} length must match the chain size")
    _check_state(taboo_state, chain.n, "taboo state")


def _check_slack(chain, V: np.ndarray, slack: np.ndarray, rate: float, message: str) -> None:
    """Raise DriftViolated at the largest ``slack`` when it exceeds
    ``chain.settings.drift`` relative to max(1, rate sup V)."""
    worst = int(np.argmax(slack))
    if slack[worst] > chain.settings.drift * max(1.0, rate * float(V.max())):
        raise DriftViolated(worst, float(slack[worst]), message)


def _check_unit_drift(chain, V: np.ndarray, taboo_state: int, rhs, rate: float) -> None:
    """V >= 0, V(taboo) = 0 and the unit drift inequality on the drift image,
    chain V <= rhs off the taboo state, with rhs = V - 1 for P and -1 for
    Q; ``rate`` is the rate scale, 1 for P and the uniformization constant
    for Q."""
    _check_drift_vector(chain, V, taboo_state, "drift vector")
    tol = chain.settings.drift
    if abs(V[taboo_state]) > tol:
        raise DriftViolated(taboo_state, float(abs(V[taboo_state])), "taboo value must be zero")
    if np.any(V < -tol):
        state = int(np.argmin(V))
        raise DriftViolated(state, float(-V[state]), "drift vector must be nonnegative")
    slack = chain.entries @ V - rhs      # require <= 0 off the taboo state
    slack[taboo_state] = -np.inf
    _check_slack(chain, V, slack, rate, "unit drift inequality violated")


def _unit_drift_report(name: str, inequality: str, taboo_state: int,
                       sup_v: float) -> BoundReport:
    """ell = 2 (sup V)^2 under a checked unit drift inequality."""
    return BoundReport(
        bound_name=name,
        hypotheses=[Hypothesis(inequality, True,
                               f"taboo state {taboo_state}, sup V = {sup_v:.12g}")],
        ell=2.0 * sup_v**2,
        info={"taboo_state": taboo_state, "sup_value": sup_v},
    )


def unit_drift_from_hitting_times(
    P: StochasticMatrix, taboo_state: int
) -> UnitDriftCertificate:
    """The minimal unit-drift vector: mean hitting times onto the taboo state."""
    return UnitDriftCertificate(taboo_state, hitting_times(P, taboo_state))


def unit_drift_bound(P: StochasticMatrix, cert: UnitDriftCertificate) -> BoundReport:
    """Drift-based bound ell = 2 (sup V)^2; valid for periodic chains too."""
    cert.validate(P)
    return _unit_drift_report("unit_drift", "P V <= V - 1 off taboo", cert.taboo_state,
                              cert.sup_value)


def _certified_lower_bounds(summary) -> np.ndarray | None:
    """max(floor_j, est_j - err_j) from a fundamental-matrix summary, as
    derived in ``hitting_time_bound``; None without a summary or when
    eta >= 1."""
    if summary is None:
        return None
    n = summary.diagonal.size
    g = (n + 8) * _UNIT_ROUNDOFF / (1.0 - (n + 8) * _UNIT_ROUNDOFF)
    norm = summary.norm * (1.0 + g)
    eta = summary.residual * (1.0 + g) + g * (4.0 * norm + 1.0)
    if not eta < 1.0:
        return None
    r_norm = norm / (1.0 - eta)
    delta = r_norm * eta
    eps = (summary.stationarity * (1.0 + g) + 3.0 * g) * r_norm
    s = float(summary.pi.sum()) * (1.0 - g)
    # inv_pi <= 1 / pi_j and num <= R_jj - min_i R_ij
    inv_pi = (1.0 - g) * s / (summary.pi + eps)
    num = (1.0 - g) * (summary.diagonal - summary.column_minima) - 2.0 * delta
    estimates = np.where(num > 0.0, (1.0 - g) * num * inv_pi, -np.inf)
    return np.fmax((1.0 - g) * (inv_pi - 1.0), estimates)


def _taboo_lower_bounds(P: StochasticMatrix, pi: Distribution) -> np.ndarray:
    """lower_j <= sup_i m(i -> j) for every candidate taboo state j; the
    floors 1 / pi_j - 1 alone when the fundamental matrix is not certified."""
    if P._fundamental is None:
        try:
            fundamental_matrix(P)       # leaves the summary on P
        except SolverFailure:
            pass
    lower = _certified_lower_bounds(P._fundamental)
    if lower is None:
        with np.errstate(divide="ignore"):
            lower = np.where(pi.values > 0.0, 1.0 / pi.values - 1.0, np.inf)
    return lower


def hitting_time_bound(P: StochasticMatrix) -> BoundReport:
    """Drift bound from the best taboo state: ell = 2 min_i0 (sup_i m(i -> i0))^2.

    Every candidate taboo state j gets a lower bound
    lower_j = max(floor_j, est_j - err_j) on sup_j = sup_i m(i -> j).
    Candidates are visited in increasing lower_j, each with its own
    certified dense hitting-time solve, and the scan stops once lower_j
    exceeds the lowest sup found so far by more than the relative
    ``P.settings.inverse`` the solves are certified to. Then the minimum is
    taken over the visited candidates in index order, ties breaking toward
    the smallest state index, so the result equals the exhaustive
    index-order scan. Candidates whose hitting times overflow the solver
    (hard-to-reach states on truncated climb chains) are skipped: the bound
    holds for each candidate separately, and an astronomically slow target
    can never realize the minimum.

    Both parts come from the Kemeny-Snell identities. Let p be a row vector
    with M = I - P + 1 p nonsingular, R = M^-1, and pi the exact stationary
    distribution (P is taken as exactly stochastic, as by the solves). The
    hitting times m = m(. -> j) solve (I - P) m = 1 - e_j / pi_j with
    m_j = 0, and R 1 = 1 / (p 1), so

        sup_j = (R_jj - min_i R_ij) / pi_j >= 1 / pi_j - 1,

    the floor being the return-time identity sum_k P(j, k) m(k -> j) =
    1 / pi_j - 1. ``fundamental_matrix`` computes G ~ R with p = pi-hat, the
    chain's certified pi, and leaves a summary on the chain (diag(G), the
    column minima of G, ||G||_inf, ||M G - I||_inf and ||pi-hat P - pi-hat||_1
    as computed). The estimate is est_j = (G_jj - min_i G_ij) / pi-hat_j.
    Its error is bounded with u = 2^-53 and g = (n + 8) u / (1 - (n + 8) u)
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3 and 7):

    * eta = ||M G - I||_inf is at most the computed residual norm plus
      g (4 ||G||_inf + 1). The residual is computed as A G + 1 (pi-hat G) - I
      with A = I - P (M G - I in exact arithmetic), each entry a sum of terms
      of (|A| + |1 pi-hat|) |G| and I rounded at most n + 3 times. Rows of |A|
      sum to 2 (1 - P_ii) <= 2 up to P's row-sum tolerance and ||pi-hat||_1 is
      1 up to rounding, so the error rows sum to at most g (4 ||G||_inf + 1);
    * if eta < 1, G - R = R (M G - I) gives ||R||_inf <= ||G||_inf / (1 - eta)
      and max_ij |G_ij - R_ij| <= delta = ||G||_inf eta / (1 - eta);
    * pi M = pi-hat and pi-hat M = s pi-hat - r, with s = sum(pi-hat) and the
      stationarity residual r = pi-hat P - pi-hat, give s pi - pi-hat = r R
      (pi-hat - (pi-hat 1) pi = -r A# in group-inverse terms), so
      pi_j <= (pi-hat_j + eps) / s with eps = ||r||_1 ||R||_inf, where
      ||r||_1 is at most its computed value plus 3 g.

    Hence sup_j >= (G_jj - min_i G_ij - 2 delta) s / (pi-hat_j + eps), which
    defines err_j, and floor_j = s / (pi-hat_j + eps) - 1. Every computed
    norm and sum is moved by a factor 1 +- g in the safe direction, and so
    is each step of the evaluation, which covers the rounding. On a
    truncated tail pi-hat_j is far below eps, so err_j swamps est_j (which
    may read NaN, inf or 1e42 there) and lower_j falls to the floor: the
    estimate only orders and prunes candidates, and is never reported.
    Without a certified G (a ``SolverFailure``, or eta >= 1) the scan uses
    the floors 1 / pi-hat_j - 1 alone (infinite for pi-hat_j <= 0).

    On a uniform-pi chain the floors tie but the estimates separate the
    candidates, so a few solves suffice; on a cycle, where every sup ties,
    all n run. ``seneta_best_bound`` certifies the same G, so in
    ``bound_catalog`` the scan reads the summary it left and solves nothing
    more than its hitting times.
    """
    pi = stationary_distribution(P)
    lower = _taboo_lower_bounds(P, pi)
    sups = {}
    lowest = np.inf
    for i0 in np.argsort(lower, kind="stable").tolist():
        if lower[i0] > lowest * (1.0 + P.settings.inverse):
            break
        try:
            sups[i0] = float(hitting_times(P, i0).max())
        except (DivergentHittingTimes, SolverFailure):
            continue
        lowest = min(lowest, sups[i0])
    best_sup = None
    best_state = None
    for i0 in sorted(sups):
        sup_m = sups[i0]
        if best_sup is None or sup_m < best_sup - 1e-15:
            best_sup = sup_m
            best_state = i0
    if best_sup is None:
        raise DivergentHittingTimes("no taboo state has stable finite hitting times")
    return BoundReport(
        bound_name="hitting_time_drift",
        hypotheses=[
            Hypothesis(
                "finite hitting times from every state",
                True,
                f"best taboo state {best_state}, sup m = {best_sup:.12g}",
            )
        ],
        ell=2.0 * best_sup**2,
        info={"taboo_state": best_state, "sup_hitting_time": best_sup},
    )


@dataclass
class GeometricDriftCertificate:
    """Geometric drift witness: P V <= lambda V + b at the taboo state only.

    ``pi_value`` stores pi(V) for the chain's own state-reduction pi, which
    every weighted quantity reads, when the chain the certificate was fitted
    to is irreducible; it always satisfies pi(V) <= b / (1 - lambda).
    """

    taboo_state: int
    weights: WeightFunction
    lam: float
    b: float
    pi_value: float | None = None

    def validate(self, P: StochasticMatrix) -> None:
        """Check the witness on ``P`` to ``P.settings.drift``."""
        _check_geometric_drift(P, self, self.lam, 1.0, "geometric")
        if not self.lam < 1.0:
            raise DriftViolated(self.taboo_state, self.lam - 1.0, "decay rate must be below 1")


def _check_geometric_drift(chain, cert, decay: float, rate: float, what: str) -> None:
    """chain V <= decay V + b at the taboo state, with decay = lambda for P
    and -lambda for Q, to ``chain.settings.drift``; ``rate`` as in
    ``_check_unit_drift``."""
    V = cert.weights.values
    _check_drift_vector(chain, V, cert.taboo_state, "weight")
    rhs = decay * V
    rhs[cert.taboo_state] += cert.b
    _check_slack(chain, V, chain.entries @ V - rhs, rate, f"{what} drift inequality violated")


def _drift_image(chain, weights, taboo_state: int) -> tuple[WeightFunction, np.ndarray]:
    """The fits' prologue: ``weights`` as a WeightFunction V, checked
    against the chain and the taboo state, and its image chain V."""
    wf = _weight_function(weights)
    _check_drift_vector(chain, wf.values, taboo_state, "weight")
    return wf, chain.entries @ wf.values


def _off_taboo(x: np.ndarray, taboo_state: int) -> np.ndarray:
    """``x`` without its taboo entry: the states a decay rate is fitted on."""
    if x.size == 1:
        raise NoPositiveLambda("no state off the taboo state to fit a decay rate")
    return np.delete(x, taboo_state)


def fit_geometric_drift(
    P: StochasticMatrix,
    weights: WeightFunction,
    taboo_state: int,
) -> GeometricDriftCertificate:
    """Fit the tightest geometric drift certificate for a given weight vector.

    lambda is the largest ratio (P V)(i) / V(i) off the taboo state; b soaks
    up whatever the taboo row needs. Raises DriftViolated when lambda >= 1
    (the weights are not a geometric drift function for this chain), and
    NoPositiveLambda on a 1-state chain, which has no state to fit on.
    """
    wf, pv = _drift_image(P, weights, taboo_state)
    V = wf.values
    ratios = pv / V
    lam = float(_off_taboo(ratios, taboo_state).max())
    if lam >= 1.0 - P.settings.hypothesis_margin:
        state = int(np.argmax(np.where(np.arange(P.n) == taboo_state, -np.inf, ratios)))
        raise DriftViolated(state, lam - 1.0, "no geometric decay for these weights")
    b = max(0.0, float(pv[taboo_state] - lam * V[taboo_state]))
    pi_value = float(stationary_distribution(P, "gth").values @ V) if P.irreducible else None
    return GeometricDriftCertificate(taboo_state, wf, lam, b, pi_value)


def _stationary_constant(pi_values: np.ndarray, V: np.ndarray) -> tuple[float, float]:
    """||pi||_V and c = 1 + ||e||_V ||pi||_V, where ||e||_V = sup_i 1 / V(i)."""
    pi_v = v_norm_measure(pi_values, V)
    return pi_v, 1.0 + float(1.0 / V.min()) * pi_v


def _v_bound_with_stationary(cert, gamma: float, pi: Distribution, d: float, *,
                             name: str, drift: str, hypothesis: str) -> BoundReport:
    """gap_V <= c ||pi||_V d / (gamma - c d), which needs d < gamma / c.

    ``gamma`` is the certificate's decay margin; ``name``, ``drift`` and
    ``hypothesis`` are the chain kind's report name, certificate wording
    and threshold wording.
    """
    V = cert.weights.values
    pi_v, c = _stationary_constant(pi.values, V)
    threshold = gamma / c
    if not d < threshold:
        raise HypothesisFailed(hypothesis, f"||Delta||_V = {d:.6g}, threshold = {threshold:.6g}")
    return BoundReport(
        bound_name=name,
        hypotheses=[
            Hypothesis(drift, True, f"lambda = {cert.lam:.6g}, b = {cert.b:.6g}"),
            Hypothesis("||Delta||_V below threshold", True, f"{d:.6g} < {threshold:.6g}"),
            Hypothesis("perturbed chain positive recurrent", True,
                       "implied by the drift margin"),
        ],
        direct_value=c * pi_v * d / (gamma - c * d),
        delta_norm=d,
        info={"c": c, "pi_v": pi_v, "threshold": threshold, "margin": threshold - d,
              "norm": "v"},
    )


def _v_bound_drift_only(cert, gamma: float, d: float, *,
                        name: str, drift: str, hypothesis: str) -> BoundReport:
    """gap_V <= b (b + gamma) d / (gamma^3 - gamma (b + gamma) d), which
    needs V >= 1 and d < gamma^2 / (b + gamma); arguments as in
    ``_v_bound_with_stationary``."""
    V = cert.weights.values
    if V.min() < 1.0 - 1e-12:
        raise HypothesisFailed("V >= 1", f"min V = {V.min():.6g}")
    b = cert.b
    threshold = gamma**2 / (b + gamma)
    if not d < threshold:
        raise HypothesisFailed(hypothesis, f"||Delta||_V = {d:.6g}, threshold = {threshold:.6g}")
    return BoundReport(
        bound_name=name,
        hypotheses=[
            Hypothesis(drift, True, f"lambda = {cert.lam:.6g}, b = {b:.6g}"),
            Hypothesis("V >= 1", True, f"min V = {V.min():.6g}"),
            Hypothesis("||Delta||_V below threshold", True, f"{d:.6g} < {threshold:.6g}"),
        ],
        direct_value=b * (b + gamma) * d / (gamma**3 - gamma * (b + gamma) * d),
        delta_norm=d,
        info={"threshold": threshold, "margin": threshold - d, "norm": "v"},
    )


def v_bound_with_stationary(
    P: StochasticMatrix,
    cert: GeometricDriftCertificate,
    pi: Distribution,
    delta_v_norm: float,
) -> BoundReport:
    """Weighted-norm bound using pi(V): the sharper of the two drift bounds.

    With c = 1 + ||e||_V ||pi||_V the bound requires
    ||Delta||_V < (1 - lambda) / c and reads

        gap_V <= c ||pi||_V ||Delta||_V / (1 - lambda - c ||Delta||_V).

    The same margin certifies that the perturbed chain is positive
    recurrent.
    """
    cert.validate(P)
    return _v_bound_with_stationary(
        cert, 1.0 - cert.lam, pi, delta_v_norm, name="v_norm_with_stationary",
        drift="geometric drift certificate", hypothesis="||Delta||_V < (1 - lambda) / c",
    )


def v_bound_drift_only(
    cert: GeometricDriftCertificate,
    delta_v_norm: float,
) -> BoundReport:
    """Weighted-norm bound from the drift parameters alone (no pi needed).

    Requires V >= 1 and ||Delta||_V < (1 - lambda)^2 / (b + 1 - lambda);
    looser than the pi(V) form by construction, since pi(V) and c are
    replaced by their drift upper bounds.
    """
    return _v_bound_drift_only(
        cert, 1.0 - cert.lam, delta_v_norm, name="v_norm_drift_only",
        drift="geometric drift certificate",
        hypothesis="||Delta||_V < (1 - lambda)^2 / (b + 1 - lambda)",
    )
