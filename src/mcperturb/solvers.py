"""Stationary distributions and the fundamental/group-inverse/deviation matrices.

Every gate here reads the tolerances of the chain it is applied to
(``P.settings``). ``stationary_distribution`` is the one certified
stationary solve of both chain kinds, and the irreducibility check of all
that is built on pi. It solves pi at most once per chain and method and
caches it on the chain, so the matrices below, and every bound that needs
pi, reuse the chain's own certified pi.

A certified fundamental matrix G also leaves a small summary on the chain
(``P._fundamental``): diag(G), the column minima of G, ||G||_inf, the
residual norm ||(I - P + 1 pi) G - I||_inf and the stationarity residual
||pi P - pi||_1, which bound the error of the Kemeny-Snell hitting-time
estimates that screen ``hitting_time_bound``'s scan. It holds n-vectors and
scalars only: no n x n matrix is cached, so G and the group inverse are
recomputed by each call that returns them.

The default stationary solver replaces one equation of the singular system
``x (I - P) = 0`` with the normalization row and solves densely, certifying
the residual afterwards. The other route, ``method="gth"``, is
state-reduction (subtraction-free) elimination, which is componentwise
accurate and strictly positive even when tail probabilities underflow the
direct solve's absolute error. Weighted-norm computations with growing
weights need this route. Its cost follows the fill of the elimination:
O(n * bandwidth^2) on a banded chain, O(n^3) on a dense one.

The ergodicity-coefficient hypotheses of the bounds (``Lambda1(P) < 1``,
``Lambda1(Q) > 0``) stop their row scan at the first row that disproves
them: a failed hypothesis costs the rows up to that one, not the whole
O(n^3) pair scan. Both scans run in the row blocks of
``norms._pair_blocks``, one compiled pairwise-l1 call each (one row, then
doubling up to 16), so they stop at the end of the block holding the first
disproving row and report that row. After row 0, ``Lambda1`` of a sparse
nonnegative matrix takes its other rows from the columns they share
(``norms._shared_column_maxima``), at O(W + n^2) for W the sum of c^2 over
its columns of c >= 2 nonzeros.

G, the group inverse and the hitting times all come from one reduced solve,
``_reduced_solve``: I - P (or -Q) with one state k left out, a nonsingular
M-matrix U that keeps the chain's band. G takes k = argmax pi, so that U
stays well conditioned, and Meyer's formula A# = (I - 1 pi) Z (I - 1 pi),
with Z = U^-1 bordered by a zero row and column k. A banded U is solved on
its band, O(n^2 b) for a band of width b; any other U by one dense solve.
Certifying G and the group inverse costs that solve and one dense product,
X (A X). Every other residual product multiplies by A (with M = A + 1 pi
as A plus a rank-one term, added in place), a CSR array below
``_SPARSE_DENSITY``: O(nnz n) per product, not O(n^3). The group-inverse
certificate consumes the G it is handed, forming X = G - 1 pi in its place,
and frees each residual's buffer before forming the next: with X it holds
at most four n x n arrays, five with a dense A.

A is the chain's difference operator (``_difference``): I - P for a
transition matrix, -h Q for a generator at ``uniformize``'s default step h.
-h Q is the skeleton's I - P_h in its units, so ``_certified_group_inverse``
certifies A# of both kinds, and a generator's D = h A# needs no skeleton chain.

Mean hitting times of both chain kinds come from one certified solve,
``_hitting_solve``, the reduced solve of M = I - P or M = -Q with the target
left out. It makes its own entry checks, an irreducible chain (hitting times
read no pi) and a target that is one of its states; so does
``deviation_matrix``, whose irreducibility check precedes its period test.

Every solve here, dense or banded, goes through ``_solve``, which reports a
singular system as SolverFailure naming the system.

Every residual certificate of the package is one ``_gate`` call: it passes
when ``residual <= tolerance * scale`` (so a NaN fails) and otherwise raises
"<check> <residual> exceeds <tolerance * scale>". The tolerance is a field of
the chain's ``settings``:

=======================================  ============  ==============  =====================
check                                    tolerance     scale           error
=======================================  ============  ==============  =====================
stationary residual                      stationarity  max(1, rate)    SolverFailure
stationary solve produced negative mass  validation    1               SolverFailure
negative hitting time (...)              inverse       max(1, max|x|)  DivergentHittingTimes
hitting-time residual                    inverse       max(1, max|x|)  SolverFailure
fundamental matrix residual              inverse       1               SolverFailure
group-inverse axiom residual             inverse       1               SolverFailure
stationary residual of h Q (ctmc)        stationarity  1               SolverFailure
deviation residual (ctmc)                inverse       max(1, max|D|)  SolverFailure
resolvent series cross-check (verify)    identity      max(1, max|N|)  SeriesDivergent
=======================================  ============  ==============  =====================

The rate is 1 for a transition matrix and the uniformization constant for a
generator; x is the hitting times, D the deviation matrix that
``ctmc_deviation_matrix`` returns after its skeleton stationarity check
h max|pi Q|, and N the taboo resolvent. A sign gate's residual is the
negated minimum, -min pi or -min x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csr_array

from .chains import (_SPARSE_DENSITY, Distribution, IntensityMatrix, StochasticMatrix,
                     _check_state, _nonzeros, _sparse_form)
from .errors import DivergentHittingTimes, PeriodicChain, ReducibleChain, SolverFailure

__all__ = [
    "stationary_distribution",
    "stationary_matrix",
    "fundamental_matrix",
    "group_inverse",
    "deviation_matrix",
]


# Largest share (l + u + 1) / m of a reduced system's order m that its band (l, u) may fill for
# the banded solve: against m right-hand sides it cost 0.2-0.56x the dense solve up to about
# 0.17 and 0.6-0.7x near 0.32 (n = 200-800, one BLAS thread).
_BAND_FRACTION = 1.0 / 8.0
_TINY = 2.0 ** -511     # sqrt(smallest normal): no product of two larger underflows
DEFAULT_STEP_FRACTION = 0.99  # of the largest skeleton step: keeps its diagonal positive


def _default_step(uc: float) -> float:
    """The skeleton step ``uniformize`` defaults to for uniformization constant
    ``uc``, rounded as 0.99 * (1 / uc); 0.99 for the 1-state generator (uc = 0)."""
    return DEFAULT_STEP_FRACTION * (1.0 / uc) if uc > 0 else DEFAULT_STEP_FRACTION


def _identity_minus(E: np.ndarray) -> np.ndarray:
    """I - E in one allocation, bit for bit ``np.eye(n) - E``: 0 - e keeps the
    +0.0 that 0.0 - 0.0 gives, and (0 - e) + 1 rounds as 1 - e."""
    A = np.subtract(0.0, E)
    A.flat[::A.shape[0] + 1] += 1.0
    return A


def _difference(chain: StochasticMatrix | IntensityMatrix) -> np.ndarray | csr_array:
    """The chain's difference operator A = I - P, or A = -h Q for a generator at
    ``uniformize``'s default step h; CSR below this module's ``_SPARSE_DENSITY``."""
    if isinstance(chain, IntensityMatrix):
        A = -_default_step(chain.uniformization_constant) * chain.entries
    else:
        A = _identity_minus(chain.entries)
    S = _sparse_form(A, _SPARSE_DENSITY)
    return A if S is None else S


def _solve(A: np.ndarray, b: np.ndarray, system: str,
           band: tuple[int, int] | None = None) -> np.ndarray:
    """``np.linalg.solve(A, b)``, or LAPACK's banded solve of the ``band``
    (l, u) matrix stored in A (overwriting A and b); a singular ``system``
    raises SolverFailure."""
    try:
        if band is None:
            return np.linalg.solve(A, b)
        return solve_banded(band, A, b, overwrite_ab=True, overwrite_b=True,
                            check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"{system} system is singular: {exc}") from exc


def _gate(check: str, residual: float, tolerance: float, scale: float = 1.0,
          error: type[Exception] = SolverFailure) -> None:
    """Raise ``error`` unless ``residual <= tolerance * scale``; a NaN residual fails."""
    if not residual <= tolerance * scale:
        raise error(f"{check} {residual:.3e} exceeds {tolerance * scale:g}")


def _stationary_solve(M: np.ndarray) -> np.ndarray:
    """Solve x M = 0, sum(x) = 1 for the singular M = I - P or M = Q.

    The last equation is replaced with the normalization row, overwriting
    ``M``; the caller certifies the residual against its own gate.
    """
    n = M.shape[0]
    A = M.T
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return _solve(A, b, "stationary")


def _reduced_solve(M: np.ndarray, k: int, B: np.ndarray, system: str) -> np.ndarray:
    """Solve M with row and column ``k`` deleted against B with row k deleted.

    The solution comes back with a zero row k in place of the deleted one;
    B's row k and M's row and column k are never read. When the reduced
    matrix's band (l, u) has ``l + u + 1 <= _BAND_FRACTION * (n - 1)``, LAPACK's
    banded solver takes it at O(n (l + u) b) for b right-hand sides;
    otherwise row and column k of M become the identity's (overwriting M and
    B), which leaves the reduced system for one dense ``_solve``. A dense M
    is turned away by its nonzero count before its band is scanned.
    """
    n = M.shape[0]
    m = n - 1
    nonzero = M != 0.0
    # a reduced band that fits has at most m * _BAND_FRACTION * m nonzeros;
    # row and column k add at most 2 n
    if np.count_nonzero(nonzero) <= _BAND_FRACTION * m * m + 2 * n:
        rows, cols = _nonzeros(nonzero)
        kept = (rows != k) & (cols != k)
        rows, cols = rows[kept], cols[kept]
        values = M[rows, cols]
        rows -= rows > k                                # the reduced matrix's indices
        cols -= cols > k
        offsets = cols - rows
        lower, upper = -int(offsets.min(initial=0)), int(offsets.max(initial=0))
        if lower + upper + 1 <= _BAND_FRACTION * m:
            ab = np.zeros((lower + upper + 1, m))       # LAPACK's banded storage
            ab[upper - offsets, cols] = values
            Y = _solve(ab, np.delete(B, k, axis=0), system, (lower, upper))
            X = np.zeros(B.shape)
            X[:k], X[k + 1:] = Y[:k], Y[k:]
            return X
    M[k, :] = 0.0
    M[:, k] = 0.0
    M[k, k] = 1.0
    B[k] = 0.0
    return _solve(M, B, system)


def _hitting_solve(chain, M: np.ndarray, target: int) -> np.ndarray:
    """Mean hitting times onto ``target`` of an irreducible ``chain``:
    M x = 1 off the target and x(target) = 0, with M = I - P (steps) or
    M = -Q (time).

    One ``_reduced_solve`` with ``target`` left out, which may overwrite
    ``M``. Both gates are ``chain.settings.inverse`` relative to the largest
    time: a negative time raises DivergentHittingTimes, a residual off the
    target SolverFailure.
    """
    if not chain.irreducible:
        raise ReducibleChain("hitting times require an irreducible chain")
    n = chain.n
    _check_state(target, n, "target state")
    tol = chain.settings.inverse
    x = _reduced_solve(M, target, np.ones(n), "hitting-time")
    scale = max(1.0, float(np.abs(x).max()))
    _gate("negative hitting time (transient or truncation pathology)", -float(x.min()), tol,
          scale, DivergentHittingTimes)
    x[target] = 0.0                 # the residual is the reduced system's
    r = M @ x - 1.0
    r[target] = 0.0
    _gate("hitting-time residual", float(np.abs(r).max()), tol, scale)
    return x


def _stationary_gth(P: np.ndarray, h: float = 1.0) -> np.ndarray:
    """State-reduction elimination of h P; uses only additions of nonnegatives.

    The working array is formed once as h P: a generator's skeleton step h
    scales it, and h = 1 leaves a transition matrix exact.

    Eliminating state k adds the outer product of column ``A[:k, k]`` and row
    ``A[k, :k]`` to the leading block, and that fill stays inside P's
    envelope: no row i gains a nonzero right of its last one in P, no column
    j below its last one. So ``A[:k, k]`` is zero above ``top[k]``, the first
    row whose last nonzero is at or right of k, and ``A[k, :k]`` left of
    ``left[k]``, likewise for columns; only that box is updated. Every
    skipped term is an exact ``+0.0``, so the result is the dense update's,
    and a banded chain costs O(n * bandwidth^2).
    """
    A = h * P
    n = A.shape[0]
    nonzero, states = A != 0.0, np.arange(n)
    top = np.searchsorted(np.maximum.accumulate(n - 1 - nonzero[:, ::-1].argmax(axis=1)), states)
    left = np.searchsorted(np.maximum.accumulate(n - 1 - nonzero[::-1].argmax(axis=0)), states)
    scales = np.empty(n)
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0.0:
            raise SolverFailure(f"state-reduction stalled at state {k} (no exit mass)")
        scales[k] = s
        A[k, :k] /= s
        rows, cols = slice(top[k], k), slice(left[k], k)
        A[rows, cols] += np.outer(A[rows, k], A[k, cols])
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = np.dot(x[:k], A[:k, k]) / scales[k]
    return x / x.sum()


def stationary_distribution(chain: StochasticMatrix | IntensityMatrix,
                            method: str = "solve") -> Distribution:
    """Solve pi P = pi (pi Q = 0 for a generator), sum(pi) = 1 for an
    irreducible chain; solved once per chain and method and cached on it.

    ``method`` is "solve", the dense normalized solve (fast, absolute-error
    accurate), or "gth", componentwise accurate and strictly positive, for
    both chain kinds. A generator's "gth" eliminates h Q at
    ``ctmc.uniformize``'s default step h: state reduction reads only
    off-diagonal entries, so that is the skeleton I + h Q's solve. The
    residual max|pi P - pi| (max|pi Q|) and the negative mass are certified
    by the first two gates of the module's table.
    """
    if method in chain._stationary:
        return chain._stationary[method]
    settings = chain.settings
    if not chain.irreducible:
        raise ReducibleChain("stationary distribution requires an irreducible chain")
    E = chain.entries
    generator = isinstance(chain, IntensityMatrix)
    rate = chain.uniformization_constant if generator else 1.0
    if method == "solve":
        x = _stationary_solve(E.copy() if generator else _identity_minus(E))
    elif method == "gth":
        x = _stationary_gth(E, _default_step(rate) if generator else 1.0)
    else:
        raise ValueError(f"unknown method {method!r}")
    _gate("stationary residual", float(np.abs(x @ E if generator else x @ E - x).max()),
          settings.stationarity, max(1.0, rate))
    _gate("stationary solve produced negative mass", -float(x.min()), settings.validation)
    chain._stationary[method] = Distribution(x, settings=settings)
    return chain._stationary[method]


def stationary_matrix(pi: Distribution) -> np.ndarray:
    """The rank-one matrix with every row equal to pi."""
    return np.tile(pi.values, (pi.n, 1))


@dataclass(frozen=True)
class _FundamentalSummary:
    """What the hitting-time scan needs of a certified fundamental matrix G
    of P: n-vectors and scalars only, cached on P as ``P._fundamental``."""

    pi: np.ndarray              # the pi that built M = I - P + 1 pi
    diagonal: np.ndarray        # G_jj
    column_minima: np.ndarray   # min_i G_ij
    norm: float                 # ||G||_inf
    residual: float             # ||A G + 1 (pi G) - I||_inf, as computed (= M G - I)
    stationarity: float         # ||pi P - pi||_1, as computed


def fundamental_matrix(P: StochasticMatrix) -> np.ndarray:
    """Inverse of (I - P + Pi), certified on both sides.

    Well defined for periodic chains too, since I - P + Pi is nonsingular
    for any irreducible chain. Computed as A# + Pi by Meyer's formula from
    one reduced solve of I - P without its most probable state: on the
    band for a banded chain, dense otherwise. A certified result also
    leaves a ``_FundamentalSummary`` on ``P`` for the hitting-time scan.
    """
    return _fundamental_matrix(P, _difference(P))


def _fundamental_matrix(chain: StochasticMatrix | IntensityMatrix, A) -> np.ndarray:
    """(A + 1 pi)^-1 for the chain's difference operator A, certified as in
    fundamental_matrix; only a transition matrix keeps the summary."""
    settings = chain.settings
    pi = stationary_distribution(chain)
    n = chain.n
    # Meyer's route: Z = (A without state k)^-1 with a zero row and column k,
    # R = Z - 1 (pi Z) - (Z 1) pi + (1 + pi Z 1) 1 pi, formed in place of Z
    # (a Fortran-ordered identity stays so in np.delete, which spares
    # solve_banded a copy of the right-hand side)
    R = _reduced_solve(A.copy() if isinstance(A, np.ndarray) else A.toarray(),
                       int(np.argmax(pi.values)), np.eye(n, order="F"), "fundamental")
    piZ = pi.values @ R
    R += np.outer((1.0 + piZ.sum()) - R.sum(axis=1), pi.values)
    R -= piZ
    # M = A + 1 pi: M R = A R + 1 (pi R), R M = R A + (R 1) pi
    piR = pi.values @ R
    right = A @ R
    right += piR
    right[np.diag_indices(n)] -= 1.0
    np.abs(right, out=right)
    res, residual = float(right.max()), float(right.sum(axis=1).max())
    del right
    left = R @ A
    left += np.outer(R.sum(axis=1), pi.values)
    left[np.diag_indices(n)] -= 1.0
    res = max(res, float(np.abs(left, out=left).max()),
              float(np.abs(piR - pi.values).max()))
    _gate("fundamental matrix residual", res, settings.inverse)
    if isinstance(chain, StochasticMatrix):     # the hitting-time scan reads it
        chain._fundamental = _FundamentalSummary(
            pi=pi.values,
            diagonal=R.diagonal().copy(),
            column_minima=R.min(axis=0),
            norm=float(np.abs(R).sum(axis=1).max()),
            residual=residual,
            stationarity=float(np.abs(pi.values @ chain.entries - pi.values).sum()),
        )
    return R


def group_inverse(P: StochasticMatrix) -> np.ndarray:
    """Group inverse of A = I - P, computed as (fundamental matrix) - Pi,
    so from the fundamental matrix's one reduced solve.

    The three group-inverse axioms (A X A = A, X A X = X, A X = X A) plus
    X e = 0 and pi X = 0 are certified before returning.
    """
    return _certified_group_inverse(P)


def _certified_group_inverse(chain, R=None) -> np.ndarray:
    """A# = R - Pi of the chain's difference operator A, certified as in
    group_inverse: both kinds' one certified A#, whose irreducibility check
    is ``stationary_distribution``'s. R, A's fundamental matrix, is solved
    here unless passed in, and then consumed: A# takes its place.

    Each residual is reduced in a buffer that is freed before the next is
    formed (the module docstring counts them). In X (A X), the one dense
    product, operand entries below 2^-511 are zeroed first, so no term is a
    slow subnormal (a truncated tail of X is full of them); each entry moves
    by at most n 2^-511 max(||X||_max, ||A X||_max), 1.2e-148 on mm1(800).
    """
    pi = stationary_distribution(chain)
    A = _difference(chain)
    X = _fundamental_matrix(chain, A) if R is None else R
    X -= pi.values
    AX = A @ X
    XA = np.ascontiguousarray(X @ A)     # scipy forms X A as (A^T X^T)^T
    AXA = A @ XA
    if isinstance(A, np.ndarray):
        AXA -= A
    else:                               # A's nonzeros only: x - 0 is x
        entries = A.tocoo()
        AXA[entries.row, entries.col] -= entries.data
    axa = float(np.abs(AXA, out=AXA).max())
    del AXA
    np.subtract(AX, XA, out=XA)
    res = max(float(np.abs(XA, out=XA).max()), axa)
    del XA
    AX[np.abs(AX) < _TINY] = 0.0
    AX = np.where(np.abs(X) < _TINY, 0.0, X) @ AX     # X (A X), in A X's place
    AX -= X
    res = max(
        res,
        float(np.abs(AX, out=AX).max()),
        float(np.abs(X.sum(axis=1)).max()),
        float(np.abs(pi.values @ X).max()),
    )
    if not res <= chain.settings.inverse:   # the error's traceback keeps these locals
        X = AX = R = None
    _gate("group-inverse axiom residual", res, chain.settings.inverse)
    return X


def deviation_matrix(P: StochasticMatrix) -> np.ndarray:
    """Sum of (P^k - Pi) over k >= 0; exists only for aperiodic chains.

    Coincides with the group inverse of I - P on a finite irreducible
    aperiodic chain, which is how it is computed here.
    """
    if not P.irreducible:
        raise ReducibleChain("deviation matrix requires an irreducible chain")
    if P.period != 1:
        raise PeriodicChain(
            f"deviation matrix requires an aperiodic chain (period {P.period})"
        )
    return group_inverse(P)
