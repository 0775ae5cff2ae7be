"""Core chain types: transition matrices, generators, distributions, weights.

All types validate their structural invariants at construction and freeze
their numpy storage, so instances are immutable and safe to share across
threads. Irreducibility and (for discrete chains) the period are computed
once, on first read, and cached on the instance; so is the stationary
distribution, per solve method, by ``solvers.stationary_distribution``. A
chain's ``settings`` govern every gate applied to it, and a perturbed chain
or a uniformized skeleton takes the settings of the chain it is built from.
It also inherits irreducibility from that chain, without a graph search,
when no edge of that chain is lost.

The constructors check every row; ``_perturbed_chain`` runs the same row
checks on the rows a perturbation touches and reads the other rows' sums
from the base chain, so it accepts or rejects exactly what the constructor
would at O(k n) cost beyond one copy of the entries. A generator still
checks its whole diagonal and every row sum against its new rate scale.

Powers of a transition matrix come from one routine, ``_powers``: right
products with the matrix, through its CSR form below ``_SPARSE_DENSITY``
nonzeros. No power is cached on the chain.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import InvalidParameters, ValidationError
from .settings import DEFAULT, NumericSettings

__all__ = [
    "StochasticMatrix",
    "IntensityMatrix",
    "Distribution",
    "WeightFunction",
    "PerturbationPair",
]

# Share of nonzero entries below which a matrix is stored as CSR: group_inverse's break-even
# at n = 200-800 on two BLAS threads; on one it is higher and grows with n (BENCH_11.json).
# A product with a transition matrix's CSR form took 0.08-0.12x the dense product at 0.5-1%
# nonzeros and 3.7x at 50% (n = 400, one BLAS thread). ``solvers`` reads it under this name.
_SPARSE_DENSITY = 0.05


def _as_square_matrix(entries, name: str) -> np.ndarray:
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValidationError(f"{name} must have at least one state")
    return a


_ALL_ROWS = slice(None)


def _finite_rows(E: np.ndarray, rows, name: str) -> np.ndarray:
    """``E[rows]`` (a view when ``rows`` is ``_ALL_ROWS``), checked finite."""
    block = E[rows]
    if not np.isfinite(block).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return block


def _row_sums(block: np.ndarray, rows, base_sums: np.ndarray | None) -> np.ndarray:
    """Row sums of a matrix whose ``rows`` are ``block``: ``block``'s sums on
    those rows, and ``base_sums`` on the rest, where the matrix equals the
    one ``base_sums`` was summed from. A row sums alike alone or in a block,
    so the result is bit for bit the matrix's own ``sum(axis=1)``."""
    sums = block.sum(axis=1)
    if base_sums is None:
        return sums
    out = base_sums.copy()
    out[rows] = sums
    return out


def _nonzeros(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the True entries of ``mask = M != 0``, in
    row-major order: 5-9x faster than np.nonzero(M) at n = 800."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _sparse_form(A: np.ndarray, density: float) -> csr_array | None:
    """A as a CSR array, built by hand (6x faster than csr_array(A)), when
    fewer than ``density`` of its entries are nonzero; None otherwise."""
    nonzero = A != 0.0
    if np.count_nonzero(nonzero) >= density * A.size:
        return None
    return _csr(nonzero, A)[0]


def _csr(mask: np.ndarray,
         A: np.ndarray | None = None) -> tuple[csr_array, np.ndarray, np.ndarray]:
    """``(S, rows, cols)``: the CSR array S of A's entries on the True entries of
    ``mask`` (of ones for A None), built by hand from their row-major
    indices ``_nonzeros(mask)``, and those indices."""
    rows, cols = _nonzeros(mask)
    indptr = np.searchsorted(rows, np.arange(mask.shape[0] + 1))
    data = np.ones(rows.size, dtype=np.int8) if A is None else A[rows, cols]
    return csr_array((data, cols, indptr), shape=mask.shape), rows, cols


def _check_count(m, message: str, least: int) -> None:
    """Raise InvalidParameters(message) unless m is an integer of at least
    ``least``, not a bool."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < least:
        raise InvalidParameters(message)


def _check_state(i, n: int, what: str) -> None:
    """Raise InvalidParameters unless ``i`` is an integer state in [0, n), not a bool."""
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool) or not 0 <= i < n:
        raise InvalidParameters(f"{what} {i!r} out of range [0, {n})")


def _is_strongly_connected(support: np.ndarray) -> bool:
    n_comp, _ = connected_components(_csr(support)[0], directed=True, connection="strong")
    return n_comp == 1


def _period_by_bfs(support: np.ndarray) -> int:
    """Gcd of cycle-length differences seen from state 0 on a BFS tree.

    Exact for strongly connected graphs: the gcd of level[u] + 1 - level[v]
    over all edges (u, v), with levels from a BFS rooted at state 0, equals
    the gcd of all cycle lengths through state 0. Edges out of states the
    BFS does not reach are ignored; 0 means no edge gave a nonzero
    difference.
    """
    graph, u, v = _csr(support)
    # BFS levels are the unweighted shortest-path distances from state 0
    level = dijkstra(graph, indices=0, unweighted=True)
    reached = np.isfinite(level[u])      # an edge out of a reached state ends at one
    diff = level[u[reached]] + 1.0 - level[v[reached]]
    return int(np.gcd.reduce(np.abs(diff).astype(np.int64)))


class _Chain:
    """Frozen storage, settings and caches shared by both chain kinds."""

    def __init__(self, entries: np.ndarray, settings: NumericSettings, row_sums: np.ndarray):
        entries.setflags(write=False)
        row_sums.setflags(write=False)
        self.entries = entries
        self.n = entries.shape[0]
        self.settings = settings
        self._row_sums = row_sums        # entries.sum(axis=1), reused by _perturbed_chain
        self._irreducible: bool | None = None
        self._stationary: dict = {}      # method -> Distribution

    @property
    def irreducible(self) -> bool:
        """Whether the graph of positive entries is strongly connected;
        computed once, on demand. Self-loops (a transition matrix's or a
        generator's diagonal) do not change strong connectivity."""
        if self._irreducible is None:
            self._irreducible = _is_strongly_connected(self.entries > 0.0)
        return self._irreducible


class StochasticMatrix(_Chain):
    """Row-stochastic transition matrix of a discrete-time chain.

    Parameters
    ----------
    entries : array_like, shape (n, n)
        Transition probabilities. Every entry must be nonnegative and every
        row must sum to 1 within ``settings.validation``.
    settings : NumericSettings, optional
        Tolerance record used for validation and by every solver, bound and
        certificate gate applied to the chain.

    Attributes
    ----------
    entries : ndarray
        The validated matrix (read-only).
    n : int
        Number of states.
    irreducible : bool
        Whether the transition graph is strongly connected.
    period : int
        Gcd of cycle lengths through state 0 (1 for aperiodic chains).
    """

    def __init__(self, entries, settings: NumericSettings = DEFAULT):
        self._adopt(_as_square_matrix(entries, "transition matrix"), settings, _ALL_ROWS)

    def _adopt(self, P: np.ndarray, settings: NumericSettings, rows, base_sums=None):
        """Check ``rows`` of P as a transition matrix's and take P as this
        chain's entries. The other rows must have passed these checks before,
        in the chain whose row sums ``base_sums`` holds (see ``_row_sums``)."""
        block = _finite_rows(P, rows, "transition matrix")
        if (block < 0).any():
            i, j = np.argwhere(block < 0)[0]
            i = np.arange(P.shape[0])[rows][i]
            raise ValidationError(
                f"transition matrix has negative entry {P[i, j]:.3e} at ({i}, {j})"
            )
        row_sums = _row_sums(block, rows, base_sums)
        if (np.abs(row_sums[rows] - 1.0) > settings.validation).any():
            i = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValidationError(
                f"row {i} sums to {row_sums[i]:.15f}, not 1 within {settings.validation:g}"
            )
        super().__init__(P, settings, row_sums)
        self._period: int | None = None
        self._fundamental = None         # solvers._FundamentalSummary

    @property
    def period(self) -> int:
        """Gcd of cycle lengths through state 0; computed once, on demand."""
        if self._period is None:
            p = _period_by_bfs(self.entries > 0.0) if self.n > 1 else 1
            self._period = p if p != 0 else 1
        return self._period

    @property
    def aperiodic(self) -> bool:
        return self.period == 1

    def _powers(self):
        """Yield P, P^2, P^3, ...: each power the right product P^(m-1) P.

        Below ``_SPARSE_DENSITY`` nonzeros the product runs on P's CSR form:
        the iterate is kept as the C-ordered (P^m)^T = P^T (P^(m-1))^T, one
        product with the transposed CSR form, and P^m is yielded as the
        iterate's transpose. A denser P takes the dense product. Either way
        each entry of P^m is one sum over the states, so the two differ only
        by rounding.
        """
        P = self.entries
        yield P
        S = _sparse_form(P, _SPARSE_DENSITY)
        if S is None:
            Pm = P
            while True:
                Pm = Pm @ P
                yield Pm
        PT = S.T
        Tm = PT.toarray()
        while True:
            Tm = PT @ Tm
            yield Tm.T

    def power(self, m: int) -> np.ndarray:
        """P^m for an integer m >= 0 (the identity at m = 0), from ``_powers``."""
        _check_count(m, f"power must be a nonnegative integer, got {m!r}", 0)
        if m == 0:
            return np.eye(self.n)
        for k, Pm in enumerate(self._powers(), 1):
            if k == m:
                return Pm

    def __repr__(self):
        return (
            f"StochasticMatrix(n={self.n}, irreducible={self.irreducible}, "
            f"period={self.period})"
        )


class IntensityMatrix(_Chain):
    """Conservative generator of a continuous-time chain.

    Off-diagonal entries must be nonnegative and every row must sum to 0
    within ``settings.validation``. The uniformization constant
    ``max_i(-Q_ii)`` must be finite and strictly positive, except for the
    1-state generator ``[[0]]``, whose constant is 0.
    """

    def __init__(self, entries, settings: NumericSettings = DEFAULT):
        self._adopt(_as_square_matrix(entries, "intensity matrix"), settings, _ALL_ROWS)

    def _adopt(self, Q: np.ndarray, settings: NumericSettings, rows, base_sums=None):
        """Check Q as a generator and take it as this chain's entries: entries
        and off-diagonal signs on ``rows`` only, every row sum against the
        scale of the whole diagonal, and the rates and uniformization constant
        of the whole diagonal. ``rows`` and ``base_sums`` as for
        ``StochasticMatrix._adopt``."""
        block = _finite_rows(Q, rows, "intensity matrix")
        states = np.arange(Q.shape[0])[rows]
        negative = block < 0
        negative[np.arange(states.size), states] = False     # only off-diagonals must be >= 0
        if negative.any():
            i, j = np.argwhere(negative)[0]
            i = states[i]
            raise ValidationError(
                f"intensity matrix has negative off-diagonal {Q[i, j]:.3e} at ({i}, {j})"
            )
        row_sums = _row_sums(block, rows, base_sums)
        scale = max(1.0, float(np.abs(np.diag(Q)).max()))
        if (np.abs(row_sums) > settings.validation * scale).any():
            i = int(np.argmax(np.abs(row_sums)))
            raise ValidationError(
                f"row {i} sums to {row_sums[i]:.3e}, not conservative within "
                f"{settings.validation:g} (relative to rate scale {scale:g})"
            )
        rates = -np.diag(Q)
        if (rates < -settings.validation).any():
            i = int(np.argmin(rates))
            raise ValidationError(f"diagonal entry at state {i} is positive")
        uc = float(rates.max()) + 0.0     # + 0.0: a zero diagonal's -0.0 reads 0
        if not (np.isfinite(uc) and (uc > 0.0 or (uc == 0.0 and Q.shape[0] == 1))):
            raise ValidationError("uniformization constant must be finite and positive")
        super().__init__(Q, settings, row_sums)
        self.uniformization_constant = uc

    def __repr__(self):
        return (
            f"IntensityMatrix(n={self.n}, irreducible={self.irreducible}, "
            f"uniformization_constant={self.uniformization_constant:g})"
        )


def _inherit_irreducibility(base, chain, rows=slice(None)) -> None:
    """Mark ``chain`` irreducible when ``base`` is and no entry positive in
    ``base`` is zero or negative in ``chain`` on ``rows`` (the rows where the
    two can differ).

    The support of ``chain`` then contains the support of ``base``, so no
    graph search is needed. Otherwise ``chain.irreducible`` falls back to the
    graph check on first read. Comparing a generator's diagonal too can
    only send a chain to the fallback.
    """
    if base.irreducible and not ((base.entries[rows] > 0.0)
                                 & (chain.entries[rows] <= 0.0)).any():
        chain._irreducible = True


def _perturbed_chain(chain, delta: np.ndarray, rows: np.ndarray | None = None):
    """``chain.entries + delta`` as a new chain of the same kind, accepted or
    rejected exactly as ``type(chain)(chain.entries + delta, chain.settings)``.

    ``rows`` lists the rows ``delta`` touches (found here when not given).
    Only those rows are added, and only they can fail a per-row check: every
    other row passed it in ``chain``, with the same settings. Their row sums
    are ``chain``'s. A generator still checks every row sum against the scale
    of its new diagonal. The new chain inherits irreducibility when the
    touched rows lose no edge.
    """
    if rows is None:
        rows = np.flatnonzero(delta.any(axis=1))
    entries = chain.entries.copy()
    entries[rows] += delta[rows]
    perturbed = type(chain).__new__(type(chain))
    perturbed._adopt(entries, chain.settings, rows, chain._row_sums)
    _inherit_irreducibility(chain, perturbed, rows)
    return perturbed


class Distribution:
    """Probability row vector: nonnegative, summing to 1 within tolerance.

    Entries in ``[-validation_tol, 0)`` (solver round-off on underflowed
    components) are clamped to zero before normalization; anything more
    negative is rejected.
    """

    def __init__(self, values, settings: NumericSettings = DEFAULT):
        v = np.array(values, dtype=float).ravel()
        if v.size == 0 or not np.isfinite(v).all():
            raise ValidationError("distribution must be a finite, nonempty vector")
        if v.min() < 0.0:
            if v.min() < -settings.validation:
                i = int(np.argmin(v))
                raise ValidationError(f"distribution entry {v[i]:.3e} at {i} is negative")
            v[v < 0.0] = 0.0
        total = v.sum()
        if abs(total - 1.0) > settings.validation:
            raise ValidationError(f"distribution sums to {total:.15f}, not 1")
        v /= total                       # v is this instance's own copy
        v.setflags(write=False)
        self.values = v
        self.n = v.size

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.values > 0.0))

    def __repr__(self):
        return f"Distribution(n={self.n})"


class WeightFunction:
    """Per-state positive weights carrying the weighted norms.

    ``lower_bound`` is min_i V(i) and must be strictly positive.
    """

    def __init__(self, values):
        v = np.array(values, dtype=float).ravel()
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise ValidationError("weight function must be a finite, nonempty vector")
        lb = float(v.min())
        if lb <= 0.0:
            i = int(np.argmin(v))
            raise ValidationError(f"weight {v[i]:.3e} at state {i} is not positive")
        v.setflags(write=False)
        self.values = v
        self.n = v.size
        self.lower_bound = lb

    def __repr__(self):
        return f"WeightFunction(n={self.n}, lower_bound={self.lower_bound:g})"


def _weight_function(weights) -> WeightFunction:
    """``weights`` as a WeightFunction, validated by it unless it is one."""
    return weights if isinstance(weights, WeightFunction) else WeightFunction(weights)


def _check_pair(base, perturbed) -> None:
    """Raise ValidationError unless ``base`` and ``perturbed`` are chains of
    one kind and one size: the checks of a PerturbationPair and of a
    perturbed chain given to ``bound_catalog``."""
    if type(base) is not type(perturbed):
        raise ValidationError(
            f"pair members must be the same kind, got {type(base).__name__} "
            f"and {type(perturbed).__name__}"
        )
    if not isinstance(base, (StochasticMatrix, IntensityMatrix)):
        raise ValidationError("pair members must be StochasticMatrix or IntensityMatrix")
    if base.n != perturbed.n:
        raise ValidationError(f"pair sizes differ: {base.n} vs {perturbed.n}")


class PerturbationPair:
    """A base chain and a perturbed chain of the same kind and size.

    ``delta`` is the entrywise difference (perturbed - base); its rows sum
    to zero automatically because both members are row-stochastic (or both
    conservative).
    """

    def __init__(self, base, perturbed):
        _check_pair(base, perturbed)
        self.base = base
        self.perturbed = perturbed
        delta = perturbed.entries - base.entries
        delta.setflags(write=False)
        self.delta = delta

    @property
    def kind(self) -> str:
        return "dtmc" if isinstance(self.base, StochasticMatrix) else "ctmc"

    def __repr__(self):
        return f"PerturbationPair(kind={self.kind}, n={self.base.n})"
