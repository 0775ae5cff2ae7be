"""Ground-truth oracles: exact gaps, identity residuals, and bound fuzzing.

Everything here is exact linear algebra on the finite (possibly truncated)
chain; no trajectory simulation. The identity checks certify the algebraic
backbone the bounds rest on:

* perturbation identity:  nu - pi = nu Delta R = nu Delta (R - Pi),
  valid for periodic chains too;
* deviation identity:     nu - pi = nu Delta D, aperiodic chains only;
* taboo-resolvent identity: with T equal to P with the taboo row zeroed,
  R - Pi = Pi [pi (I-T)^{-1} e I - (I-T)^{-1}] + (I-T)^{-1} (I - Pi).

The fuzzer draws row-sum-zero perturbations of exact target norm, solves
the perturbed stationary distribution exactly, and confirms that every
norm-wise bound of :func:`~mcperturb.catalog.bound_catalog` covers the
exact gap: the coefficients come from one catalog call per run, so the
oracle checks the same bound list users see, and each case judges them by
the catalog's own rule, :meth:`~mcperturb.reports.BoundReport.with_exact_gap`. Seeds are recorded per case
for bit-reproducible reruns; the summary lists the seeds of the cases with
a violation.

A case costs one dense solve of the perturbed chain plus O(k n) work on
the k <= 3 rows its draw touches, besides a few O(n^2) copies and scans
(the draw's n x n delta, the perturbed entries, I - P). The case finds
those rows once; only they are validated (``chains._perturbed_chain``),
compared for lost edges and summed into ||Delta||. No draw removes an edge,
so the perturbed chain inherits irreducibility from the base chain, and
the graph check runs only when an edge is removed. The skeleton bound's
P^m and Lambda1(P^m) are formed once per run, by the first case that
checks it. Every record is bit for bit that of the whole-matrix case.

The taboo-resolvent check brackets the spectral radius of its taboo matrix
by repeated squaring (``_perron_bracket``, a few dense products) rather
than computing every eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .catalog import SKELETON_M, _exact_gap, _v_norm_pair, bound_catalog
from .chains import (IntensityMatrix, PerturbationPair, StochasticMatrix, _check_count,
                     _check_state, _perturbed_chain)
from .ctmc import (
    fit_ctmc_geometric_drift,
    pair_step,
    transfer_drift_to_skeleton,
    uniformize,
)
from .dtmc import (
    _UNIT_ROUNDOFF,
    _skeleton_base,
    fit_geometric_drift,
    hitting_times,
    skeleton_bound,
    v_bound_with_stationary,
)
from .errors import (
    DivergentHittingTimes,
    DriftViolated,
    HypothesisFailed,
    InvalidParameters,
    NoPositiveLambda,
    NotErgodic,
    SeriesDivergent,
    ValidationError,
)
from .gallery import GalleryModel, _band_weights
from .norms import matrix_norm, v_norm_matrix
from .reports import BoundReport
from .solvers import (
    _TINY,
    _certified_group_inverse,
    _gate,
    _identity_minus,
    deviation_matrix,
    fundamental_matrix,
    stationary_distribution,
)

__all__ = [
    "exact_gap",
    "residual_perturbation_identity",
    "residual_deviation_identity",
    "residual_taboo_inverse_identity",
    "value_iteration_hitting",
    "canonical_pair",
    "skeleton_pair",
    "identity_residuals",
    "FuzzCase",
    "FuzzSummary",
    "sample_dtmc_delta",
    "sample_ctmc_delta",
    "fuzz_bounds",
]


def exact_gap(pair: PerturbationPair, weights=None) -> float:
    """Exactly computed stationary gap ||nu - pi||, weighted when asked.

    The gap ``bound_catalog`` and ``fuzz_bounds`` judge their bounds by:
    with weights the solves route through the componentwise-accurate
    state-reduction method, since growing weights amplify absolute tail
    errors of the plain solve.
    """
    return _exact_gap(pair.base, pair.perturbed, weights)


def _pair_stationary(pair: PerturbationPair):
    """``(pi, nu)`` of a transition-matrix pair, the base chain's solved first."""
    if pair.kind != "dtmc":
        raise InvalidParameters("identity applies to transition-matrix pairs")
    return stationary_distribution(pair.base), stationary_distribution(pair.perturbed)


def residual_perturbation_identity(pair: PerturbationPair) -> float:
    """Max residual of nu - pi = nu Delta R = nu Delta (R - Pi)."""
    pi, nu = _pair_stationary(pair)
    return _perturbation_residual(pair, pi, nu, fundamental_matrix(pair.base))


def _perturbation_residual(pair, pi, nu, R) -> float:
    """Both forms of the perturbation identity, the second in rank-one terms:
    nu Delta (R - Pi) = nu Delta R - (nu Delta 1) pi, as Pi = 1 pi."""
    lhs = nu.values - pi.values
    x = nu.values @ pair.delta
    xR = x @ R
    r1 = np.abs(lhs - xR).max()
    r2 = np.abs(lhs - (xR - x.sum() * pi.values)).max()
    return float(max(r1, r2))


def residual_deviation_identity(pair: PerturbationPair) -> float:
    """Max residual of nu - pi = nu Delta D (aperiodic base chain)."""
    pi, nu = _pair_stationary(pair)
    return _deviation_residual(pair, pi, nu, deviation_matrix(pair.base))


def _deviation_residual(pair, pi, nu, D) -> float:
    lhs = nu.values - pi.values
    return float(np.abs(lhs - nu.values @ pair.delta @ D).max())


def residual_taboo_inverse_identity(P: StochasticMatrix, taboo_state: int) -> float:
    """Max residual of the taboo-resolvent expression for R - Pi.

    T is P with the taboo row zeroed. Its spectral radius rho is bracketed
    rigorously (``_perron_bracket``). SeriesDivergent is raised when the
    bracket puts rho within 1e-12 of 1 or I - T is singular. The resolvent
    (I - T)^{-1} comes from a direct solve, cross-checked against a
    vector-probe partial sum of the series to ``P.settings.identity`` when
    the bracket puts rho below 0.95.
    """
    _check_state(taboo_state, P.n, "taboo state")
    N = _taboo_resolvent(P, taboo_state)
    return _taboo_residual(N, stationary_distribution(P), fundamental_matrix(P))


_SERIES_CUT = 0.95              # the series cross-check runs below this radius
_DIVERGENT = 1.0 - 1e-12        # a radius at or above this has no series
_MAX_SQUARINGS = 12             # T^(2^12) at most


def _taboo_resolvent(P: StochasticMatrix, taboo_state: int):
    """(I - T)^{-1}, checked as described in residual_taboo_inverse_identity."""
    n = P.n
    T = P.entries.copy()
    T[taboo_state, :] = 0.0
    lo, hi = _perron_bracket(T)
    if lo >= _DIVERGENT:
        raise SeriesDivergent(f"taboo matrix spectral radius at least {lo:.15g}, not below 1")
    try:
        N = np.linalg.solve(_identity_minus(T), np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SeriesDivergent(f"I - T is singular: {exc}") from exc
    if hi < _SERIES_CUT:
        probe = np.ones(n) / n
        acc = probe.copy()
        term = probe.copy()
        for _ in range(2000):
            term = term @ T
            acc += term
            if np.abs(term).max() < 1e-16:
                break
        _gate("resolvent series cross-check", np.abs(acc - probe @ N).max(),
              P.settings.identity, max(1.0, np.abs(N).max()), SeriesDivergent)
    return N


def _perron_bracket(T: np.ndarray) -> tuple[float, float]:
    """A certified bracket [lo, hi] on the Perron root rho of a nonnegative T.

    Rescaled repeated squaring: A_0 is T and A_(j+1) the computed A_j A_j
    times a power of two 2^-s that brings its largest row sum into [1/2, 1),
    so A_j stands for B_j = T^(2^j) 2^-E_j with E_j = 2 E_(j-1) + s exactly.
    Entries of each A_j below 2^-511 are set to zero, so that no product in
    the next step underflows. With g = gamma_n (Higham, ch. 3), every
    entry of a computed product of nonnegative matrices without underflow
    lies within the factors 1 -+ g of the exact one, in any summation order.
    By induction on j:

    * A_j <= (1 + g)^(2^j - 1) B_j entrywise, since zeroing only lowers A_j;
      as rho(B) >= max_i B_ii for a nonnegative B, rho^(2^j) 2^-E_j is at
      least max diag(A_j) / (1 + g)^(2^j - 1);
    * B_j <= a_j A_j + F_j with a_j = (1 - g)^-(2^j - 1) and a nonnegative
      F_j whose row sums are at most f_j: f_0 = n 2^-511 (the zeroed entries),
      f_(j+1) = 2^-s (2 a_j ||A_j|| f_j + f_j^2) + a_j^2 n 2^-511 / (1 - g);
      so rho^(2^j) 2^-E_j <= ||B_j||_inf <= a_j ||A_j||_inf + f_j.

    Norms are read as computed row sums over 1 - g; the constants round
    up by 8 ulps and the 2^j-th roots outward by a bound on their
    evaluation error. Squaring stops once the bracket settles the cross-check
    of ``_taboo_resolvent``: hi < 0.95, lo >= 1 - 1e-12, or lo >= 0.95 with
    hi < 1 - 1e-12, and after ``_MAX_SQUARINGS`` squarings at most. If hi
    is then at least 1 - 1e-12, lo also takes the greedy lower bound of
    ``_core_lower_bound``, which finds a stochastic principal submatrix.
    """
    n = T.shape[0]
    u = _UNIT_ROUNDOFF
    g = n * u / (1.0 - n * u)
    up, down = 1.0 + 8.0 * u, 1.0 - 8.0 * u
    A = np.where(T < _TINY, 0.0, T)
    E, a, f = 0, 1.0, n * _TINY * up
    for j in range(_MAX_SQUARINGS + 1):
        k = 2 ** j
        norm = float(A.sum(axis=1).max()) / (1.0 - g) * up
        hi = _root((a * norm + f) * up, E, k, 1.0)
        low_factor = math.exp((k - 1) * math.log1p(g)) * up      # >= (1 + g)^(k - 1)
        lo = _root(float(A.diagonal().max()) / low_factor * down, E, k, -1.0)
        if (hi < _SERIES_CUT or lo >= _DIVERGENT or (lo >= _SERIES_CUT and hi < _DIVERGENT)
                or j == _MAX_SQUARINGS):
            break
        C = A @ A
        s = int(np.frexp(C.sum(axis=1).max())[1])
        A = np.ldexp(C, -s)
        A[A < _TINY] = 0.0
        f = ((2.0 * a * norm * f + f * f) * math.ldexp(1.0, -s)
             + a * a * n * _TINY / (1.0 - g)) * up
        a = a * a / (1.0 - g) * up
        E = 2 * E + s
    if hi >= _DIVERGENT:
        lo = max(lo, _core_lower_bound(T, g))
    return lo, hi


def _root(v: float, E: int, k: int, direction: float) -> float:
    """(v 2^E)^(1/k), rounded up (``direction`` 1) or down (-1) by a bound on
    the error of its evaluation as 2^((log2 v + E) / k)."""
    if v == 0.0 or math.isinf(v):
        return v
    lv = math.log2(v)
    y = (lv + E) / k
    if y > 1000.0:
        return math.inf if direction > 0 else 0.0
    err = 4.0 * _UNIT_ROUNDOFF * ((2.0 * abs(lv) + abs(E)) / k + abs(y) + 2.0)
    return 2.0 ** y * (1.0 + direction * err)


def _core_lower_bound(T: np.ndarray, g: float) -> float:
    """A lower bound on the Perron root of a nonnegative T: the smallest row
    sum of a principal submatrix, which bounds its Perron root and so T's.

    The submatrix is found by greedy peeling: drop the row with the smallest
    sum inside the remaining set, and keep the set whose smallest sum was
    largest (a closed class of rows summing to 1 survives every earlier
    step). Its sums are then recomputed directly and rounded down.
    """
    n = T.shape[0]
    sums = T.sum(axis=1)
    alive = np.ones(n, dtype=bool)
    best, keep = -1.0, alive.copy()
    for _ in range(n):
        i = int(np.argmin(np.where(alive, sums, np.inf)))
        if sums[i] > best:
            best, keep = float(sums[i]), alive.copy()
        alive[i] = False
        sums -= T[:, i]
    least = float(T[np.ix_(keep, keep)].sum(axis=1).min())
    return least / (1.0 + g) * (1.0 - 8.0 * _UNIT_ROUNDOFF)


def _taboo_residual(N, pi, R) -> float:
    """The taboo-resolvent identity in rank-one terms, as Pi = 1 pi:
    R - Pi = N + 1 (kappa pi - pi N) - (N 1) pi with kappa = pi (N 1)."""
    p = pi.values
    n1 = N.sum(axis=1)
    rhs = N + (float(p @ n1) * p - p @ N) - np.outer(n1, p)
    return float(np.abs((R - p) - rhs).max())


def value_iteration_hitting(
    P: StochasticMatrix,
    target: int,
    cap: int = 1_000_000,
    tol: float = 1e-12,
    blowup: float = 1e12,
) -> np.ndarray:
    """Minimal nonnegative hitting times by monotone iteration from zero.

    Iterates m <- 1 + P m with m(target) pinned to 0. The iterates increase
    monotonically to the minimal nonnegative solution; divergence (cap
    exceeded, or values past ``blowup``) signals transient or truncation
    pathology.
    """
    n = P.n
    _check_state(target, n, "target state")
    m = np.zeros(n)
    Pe = P.entries
    for _ in range(cap):
        nxt = 1.0 + Pe @ m
        nxt[target] = 0.0
        inc = float(np.abs(nxt - m).max())
        m = nxt
        if inc <= tol * max(1.0, float(m.max())):
            return m
        if m.max() > blowup:
            raise DivergentHittingTimes(
                f"iterates exceeded {blowup:g}; chain looks transient toward {target}"
            )
    raise DivergentHittingTimes(f"no stabilization within {cap} iterations")


def canonical_pair(model: GalleryModel, magnitude: float = 0.01, seed: int = 0):
    """Deterministic seeded perturbation pair for a gallery model.

    Generator models are paired at generator level; use
    :func:`skeleton_pair` to study them through their common-step skeletons.
    """
    _check_magnitude(magnitude)
    _check_count(seed, f"seed must be a nonnegative integer, got {seed!r}", 0)
    rng = np.random.default_rng([seed, 987654321])
    perturbed = _draw(rng, model.chain, magnitude)[0]
    if perturbed is None:
        raise InvalidParameters(f"could not perturb model {model.name}")
    return PerturbationPair(model.chain, perturbed)


def _check_magnitude(magnitude: float) -> None:
    """A perturbation norm must be finite and at least 0: a negative one flips
    every drawn sign past the guard that keeps negative bumps off small
    entries, and NaN rejects every draw."""
    if not 0.0 <= magnitude < np.inf:
        raise InvalidParameters(
            f"perturbation magnitude must be finite and >= 0, got {magnitude!r}")


def skeleton_pair(pair: PerturbationPair) -> PerturbationPair:
    """Common-step skeleton pair of a generator pair."""
    h = pair_step(pair.base, pair.perturbed)
    return PerturbationPair(
        uniformize(pair.base, h).matrix,
        uniformize(pair.perturbed, h).matrix,
    )


def identity_residuals(
    model: GalleryModel,
    magnitude: float = 0.01,
    seed: int = 0,
) -> dict:
    """Residuals of the exact identities on a canonical perturbation.

    Returns the perturbation-identity and taboo-resolvent (taboo state 0)
    residuals for every model, plus the deviation-identity residual for
    aperiodic ones. Generator models are checked through their skeleton chains, where the
    identities live. Each call solves ``pi``, ``nu`` and the fundamental
    matrix once and shares them between the three residuals.
    """
    pair = canonical_pair(model, magnitude=magnitude, seed=seed)
    if isinstance(model.chain, IntensityMatrix):
        pair = skeleton_pair(pair)
    P = pair.base
    pi = stationary_distribution(P)
    nu = stationary_distribution(pair.perturbed)
    R = fundamental_matrix(P)
    out = {
        "perturbation_identity": _perturbation_residual(pair, pi, nu, R),
        "taboo_inverse_identity": _taboo_residual(_taboo_resolvent(P, 0), pi, R),
    }
    if P.aperiodic:
        # on an aperiodic chain the deviation matrix is the group inverse R - Pi
        D = _certified_group_inverse(P, R)
        out["deviation_identity"] = _deviation_residual(pair, pi, nu, D)
    return out


# ---------------------------------------------------------------------------
# fuzzing


@dataclass
class FuzzCase:
    """One drawn perturbation: its seed, its norm, the exact total-variation
    gap, and every checked bound as a report judged by
    :meth:`BoundReport.with_exact_gap`."""

    seed: tuple
    delta_norm: float
    gap: float
    outcomes: list[BoundReport] = field(default_factory=list)

    @property
    def violations(self) -> list[BoundReport]:
        return [o for o in self.outcomes if o.valid is False]


@dataclass
class FuzzSummary:
    model: str
    kind: str
    magnitude: float
    n_cases: int
    cases: list[FuzzCase]
    skipped_bounds: dict
    n_rejected: int = 0

    @property
    def n_violations(self) -> int:
        return sum(len(c.violations) for c in self.cases)

    @property
    def violation_seeds(self) -> list[tuple]:
        """Seeds of the cases with a violation, in case order. Case
        ``(seed, i)`` is replayed as the last case of
        ``fuzz_bounds(model, n_cases=i + 1, magnitude=magnitude, seed=seed)``."""
        return [c.seed for c in self.cases if c.violations]

    def tightness(self) -> dict:
        """Per-bound min/mean of bound_value / exact_gap over cases with a
        positive gap."""
        ratios: dict[str, list[float]] = {}
        for c in self.cases:
            for o in c.outcomes:
                if o.exact_gap > 0:
                    ratios.setdefault(o.bound_name, []).append(o.bound_value / o.exact_gap)
        return {
            k: {"min": float(np.min(v)), "mean": float(np.mean(v)), "n": len(v)}
            for k, v in sorted(ratios.items())
        }


def sample_dtmc_delta(rng, P: StochasticMatrix, magnitude: float) -> np.ndarray | None:
    """One attempt at a sparse signed perturbation of exact norm ``magnitude``.

    A few rows get 1-3 signed entries; each touched row is rebalanced
    through its largest off-diagonal entry so the row sums stay zero, then
    the whole matrix is scaled to the target max-absolute-row-sum norm.
    Entries too small to absorb a negative bump only receive positive ones.
    Returns None when the draw degenerates (caller retries), and always for
    a 1-state chain, which has no nonzero row-sum-zero perturbation.
    """
    return _sample_delta(rng, P, magnitude, generator=False)


def sample_ctmc_delta(rng, Q: IntensityMatrix, magnitude: float) -> np.ndarray | None:
    """Conservative perturbation of exact norm: off-diagonal bumps, scaled by
    the uniformization constant, balanced on the diagonal; negative bumps
    only where the rate can absorb them. None as for ``sample_dtmc_delta``."""
    return _sample_delta(rng, Q, magnitude, generator=True)


def _sample_delta(rng, chain, magnitude: float, generator: bool) -> np.ndarray | None:
    """The body of both samplers. A row is balanced on its diagonal for a
    generator, and on its largest off-diagonal entry for a transition
    matrix, which must absorb the balance (else None)."""
    _check_magnitude(magnitude)
    n = chain.n
    if n == 1:
        return None
    scale = chain.uniformization_constant if generator else 1.0
    floor = 1.5 * magnitude
    delta = np.zeros((n, n))
    n_rows = int(rng.integers(1, min(3, n) + 1))
    rows = rng.choice(n, size=n_rows, replace=False)
    for i in rows.tolist():
        entries, row = chain.entries[i], delta[i]
        if generator:
            j_star = i
        else:
            off = entries.copy()
            off[i] = -1.0
            j_star = int(np.argmax(off))
            if entries[j_star] < floor:
                return None
        k = int(rng.integers(1, min(3, n - 1) + 1))
        for idx in rng.choice(n - 1, size=k, replace=False).tolist():
            j = idx + (idx >= j_star)          # the idx-th column other than j_star
            v = rng.normal() * scale
            if entries[j] < floor:
                v = abs(v)
            row[j] += v
        row[j_star] -= row.sum()
    return _scaled(delta, rows, magnitude)


def _scaled(delta, rows, magnitude):
    """``delta`` scaled in place to norm ``magnitude``; only ``rows`` are nonzero,
    so the norm and the scaling need no other row. None for a zero draw."""
    nm = matrix_norm(delta[rows])
    if nm <= 0:
        return None
    delta[rows] *= magnitude / nm
    return delta


def _draw(rng, chain, magnitude):
    """Draw until a perturbation keeps the chain valid and irreducible:
    ``(perturbed, delta, rows)``, with the rows delta touches, or
    ``(None, None, None)`` after 50 draws.

    The rows are found once per draw and serve the validation of the
    perturbed chain, its irreducibility and the norm of delta. Every draw
    keeps each entry it lowers positive (a negative bump lands only on an
    entry of at least 1.5 * magnitude, and no scaled entry exceeds
    magnitude), so the perturbed chain inherits the base chain's
    irreducibility without a graph search.
    """
    sample = sample_dtmc_delta if isinstance(chain, StochasticMatrix) else sample_ctmc_delta
    for _ in range(50):
        delta = sample(rng, chain, magnitude)
        if delta is None:
            continue
        rows = np.flatnonzero(delta.any(axis=1))
        try:
            perturbed = _perturbed_chain(chain, delta, rows)
        except ValidationError:
            continue
        if perturbed.irreducible:
            return perturbed, delta, rows
    return None, None, None


def _skip_reason(rep: BoundReport) -> str:
    h = next(h for h in rep.hypotheses if not h.holds)
    return f"{h.name}: {h.detail}" if h.detail else h.name


def _v_norm_setup(model, skipped):
    """Drift certificate of the weighted-norm checks: fitted on 1 + hitting
    times onto state 0 for a transition matrix, and on a band generator's
    batch-arrival weights (``gallery._band_weights``, as ``bounds --v-norm``
    fits them) for a generator. None when it cannot be fitted, with the
    reason in ``skipped`` under the catalog's name."""
    chain = model.chain
    dtmc = isinstance(chain, StochasticMatrix)
    try:
        if dtmc:
            return fit_geometric_drift(chain, 1.0 + hitting_times(chain, 0), 0)
        weights = _band_weights(model)
        if weights is None:
            raise InvalidParameters("no band coefficients to build drift weights from")
        return fit_ctmc_geometric_drift(chain, weights, 0)
    except (DriftViolated, DivergentHittingTimes, InvalidParameters, NoPositiveLambda,
            NotErgodic) as exc:
        skipped["v_norm_drift_fit" if dtmc else "ctmc_v_norm_drift_fit"] = str(exc)
        return None


def _v_norm_outcomes(chain, perturbed, delta, cert, skipped):
    """Weighted-norm checks of one case: the catalog's bound pair and, for
    generators, the same certificate transferred to the skeleton chain."""
    dv = v_norm_matrix(delta, cert.weights)
    valued = []         # (report, its perturbation norm): the readers of the gap
    for rep in _v_norm_pair(chain, dv, cert):
        if rep.bound_value is None:
            skipped.setdefault(rep.bound_name, _skip_reason(rep))
        else:
            valued.append((rep, dv))
    if isinstance(chain, IntensityMatrix):
        # the step cancels in the transfer, so the skeleton value must
        # coincide with the continuous form; checked against the same gap
        h = pair_step(chain, perturbed)
        try:
            rep = v_bound_with_stationary(uniformize(chain, h).matrix,
                                          transfer_drift_to_skeleton(cert, h),
                                          stationary_distribution(chain, "gth"),
                                          h * dv)
            rep.bound_name = "v_norm_skeleton_transfer"
            valued.append((rep, h * dv))
        except HypothesisFailed as exc:
            skipped.setdefault("v_norm_skeleton_transfer", str(exc))
    if not valued:
        return []
    gap_v = _exact_gap(chain, perturbed, cert.weights)
    return [rep.with_exact_gap(gap_v, dn) for rep, dn in valued]


def fuzz_bounds(
    model: GalleryModel,
    n_cases: int = 1000,
    magnitude: float = 0.01,
    seed: int = 0,
    include_v_norm: bool = False,
) -> FuzzSummary:
    """Randomized bound-validity check against exactly solved perturbations.

    The norm-wise coefficients come from one
    ``bound_catalog(model.chain)`` call: every report with a
    coefficient ``ell`` is checked in each case as ``ell * ||Delta||``, and
    every other report is listed in ``skipped_bounds`` with its failed
    hypothesis. Per case: draw an admissible perturbation of exact norm
    ``magnitude``, solve the perturbed stationary distribution, and check
    each bound against the exact gap. Every check is a report judged by
    :meth:`~mcperturb.reports.BoundReport.with_exact_gap`, the catalog's
    rule: a violation is a report with ``valid`` false. Violations are
    recorded, not raised; the summary must show zero of them. Any
    total-variation value at or above 2 is flagged useless (the gap between
    two probability measures never exceeds it).

    Transition matrices with at most ``catalog.SKELETON_MAX_N`` states also
    check the catalog's skeleton bound, whose value depends on the perturbed
    chain itself.

    With ``include_v_norm`` the weighted-norm drift bounds run alongside,
    through ``_v_norm_setup``'s certificate; generators check them both in
    continuous form and transferred to the skeleton chain.
    """
    _check_magnitude(magnitude)
    _check_count(n_cases, f"n_cases must be a nonnegative integer, got {n_cases!r}", 0)
    _check_count(seed, f"seed must be a nonnegative integer, got {seed!r}", 0)
    chain = model.chain
    reports = bound_catalog(chain)
    linear = [rep for rep in reports if rep.ell is not None]
    skipped = {rep.bound_name: _skip_reason(rep) for rep in reports if rep.ell is None}
    v_cert = _v_norm_setup(model, skipped) if include_v_norm else None
    dtmc = isinstance(chain, StochasticMatrix)
    use_skeleton = dtmc and chain.n <= catalog.SKELETON_MAX_N
    skeleton_base = None        # P^m and Lambda1(P^m), formed by the first case that needs them

    cases: list[FuzzCase] = []
    n_rejected = 0
    for case_idx in range(n_cases):
        rng = np.random.default_rng([seed, case_idx])
        perturbed, delta, rows = _draw(rng, chain, magnitude)
        if perturbed is None:
            n_rejected += 1
            continue
        gap = _exact_gap(chain, perturbed)
        dn = matrix_norm(delta[rows])       # untouched rows add nothing
        outcomes = [rep.with_exact_gap(gap, dn) for rep in linear]
        if use_skeleton:
            try:
                if skeleton_base is None:
                    skeleton_base = _skeleton_base(chain, SKELETON_M)
                outcomes.append(skeleton_bound(chain, perturbed, SKELETON_M,
                                               base=skeleton_base).with_exact_gap(gap))
            except HypothesisFailed as exc:
                # the base's hypothesis fails alike in every case
                skipped.setdefault(f"skeleton[m={SKELETON_M}]", str(exc))
                use_skeleton = False
        if v_cert is not None:
            outcomes += _v_norm_outcomes(chain, perturbed, delta, v_cert, skipped)
        cases.append(FuzzCase(seed=(seed, case_idx), delta_norm=dn, gap=gap,
                              outcomes=outcomes))

    return FuzzSummary(
        model=model.name,
        kind="dtmc" if dtmc else "ctmc",
        magnitude=magnitude,
        n_cases=len(cases),
        cases=cases,
        skipped_bounds=skipped,
        n_rejected=n_rejected,
    )
