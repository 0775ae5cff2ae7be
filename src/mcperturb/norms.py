"""Measure, vector, and matrix norms, unweighted and weighted.

Conventions: signed measures are row vectors with the weighted l1 norm
``sum_i |mu(i)| V(i)``; functions are column vectors with the weighted sup
norm ``sup_i |x(i)| / V(i)``; matrices carry the induced operator norm
``sup_i V(i)^{-1} sum_j |L_ij| V(j)``. With V identically 1 these reduce to
the plain l1, sup, and max-absolute-row-sum norms.
"""

from __future__ import annotations

import numpy as np

from .chains import _nonzeros, _weight_function

__all__ = [
    "total_variation_norm",
    "matrix_norm",
    "v_norm_measure",
    "v_norm_vector",
    "v_norm_matrix",
]


def total_variation_norm(mu) -> float:
    """l1 norm of a signed measure: sum of absolute entries."""
    return float(np.abs(np.asarray(mu, dtype=float)).sum())


def matrix_norm(L) -> float:
    """Operator norm induced on measures: max absolute row sum (0 for no rows)."""
    return float(np.abs(np.asarray(L, dtype=float)).sum(axis=1).max(initial=0.0))


def v_norm_measure(mu, weights) -> float:
    V = _weight_function(weights).values
    return float(np.abs(np.asarray(mu, dtype=float)) @ V)


def v_norm_vector(x, weights) -> float:
    V = _weight_function(weights).values
    return float((np.abs(np.asarray(x, dtype=float)) / V).max())


def v_norm_matrix(L, weights) -> float:
    V = _weight_function(weights).values
    rows = np.abs(np.asarray(L, dtype=float)) @ V
    return float((rows / V).max())


# Most rows per pair-scan block: a block also computes its pairs j <= i, which are thrown
# away; Lambda1 of hessenberg-gi-m-1's P^2 at N = 400 took 12.0 ms at 16 rows against
# 12.7 ms at 64 (one BLAS thread).
_BLOCK_ROWS = 16
# Largest column work W, the sum of c^2 over the columns with c >= 2 nonzeros, as a share of
# the n^2 m entries a pair scan of an n x m matrix reads, for which ``_shared_column_maxima``
# takes a nonnegative matrix: at W = n^3 / 128 it took 0.44-0.76x the pair scan's time on
# banded and random sparse matrices and 0.1-0.15x with a few dense columns, at n = 200-800;
# at W = n^3 / 40 a banded one took 1.5-2.1x (one BLAS thread).
_SHARED_WORK = 1.0 / 128.0
_PAIR_CHUNK = 1 << 16   # column pairs per scatter-add (or one column's, if more)


def _pair_blocks(M: np.ndarray):
    """Yield ``(a, D)`` for consecutive row blocks ``a..b-1`` of M, every row
    but the last: ``D[r, k]`` is the l1 distance between rows ``a + r`` and
    ``a + 1 + k``.

    Each block is one compiled pairwise-l1 call on ``M[a:b]`` against
    ``M[a+1:]``; its entries with k < r are pairs j <= i, which callers
    mask. The first block is one row, and each later one doubles up to
    ``_BLOCK_ROWS`` rows, so a scan that stops at row 0 costs one row. A
    pair's distance does not depend on the block that holds it.
    """
    # deferred: scipy.spatial costs about 0.15 s and 6-10 MB to import, paid
    # only by processes that compute an ergodicity coefficient
    from scipy.spatial.distance import cdist

    M = np.ascontiguousarray(M, dtype=float)
    n = M.shape[0]
    a, rows = 0, 1
    while a < n - 1:
        b = min(a + rows, n - 1)
        yield a, cdist(M[a:b], M[a + 1:], "cityblock")
        a, rows = b, min(2 * rows, _BLOCK_ROWS)


def _shared_column_maxima(M: np.ndarray) -> np.ndarray | None:
    """``d[i] = max(0, max_{j > i} ||M_i - M_j||_1)`` for the rows i < n - 1 of
    a nonnegative M, from the columns that rows share; None for a signed M,
    or when the column work is above ``_SHARED_WORK``.

    For nonnegative rows, ||x - y||_1 = s_x + s_y - 2 sum_k min(x_k, y_k)
    with s the row sums. A column with a single nonzero adds min(x_k, 0) = 0
    to every pair, so only columns with c >= 2 nonzeros are read, at
    O(W + n^2) for W the sum of their c^2. A column with at least n / 2
    nonzeros adds one ``np.minimum.outer`` of itself to the n x n overlap;
    every shorter one is grouped with the columns of its count, whose pairs
    of nonzeros go in one scatter-add per ``_PAIR_CHUNK`` pairs. The
    overlap and at most one column's outer product are its only n x n
    float arrays. Each distance is within about 4 n u max(s) of the pair
    scan's, u the unit roundoff.
    """
    n = M.shape[0]
    if M.min() < 0.0:
        return None
    nonzero = M != 0.0
    counts = np.count_nonzero(nonzero, axis=0)
    shared = counts >= 2
    if np.dot(counts[shared], counts[shared]) > _SHARED_WORK * n * M.size:
        return None
    cols, rows = _nonzeros(nonzero.T)            # each column's rows, in increasing order
    values = M[rows, cols]
    starts = np.cumsum(counts) - counts
    overlap = np.zeros((n, n))
    wide = 2 * counts >= n
    for c in np.unique(counts[shared & ~wide]).tolist():
        first, second = np.triu_indices(c, 1)   # the pairs of a column's nonzeros, i < j
        at = starts[counts == c]
        step = max(1, _PAIR_CHUNK // first.size)
        for lo in range(0, at.size, step):
            x, y = at[lo:lo + step, None] + first, at[lo:lo + step, None] + second
            np.add.at(overlap.reshape(-1), rows[x] * n + rows[y],
                      np.minimum(values[x], values[y]))
    for k in np.flatnonzero(shared & wide).tolist():
        overlap += np.minimum.outer(M[:, k], M[:, k])
    s = M.sum(axis=1)
    overlap *= -2.0
    overlap += s                                 # s_j - 2 sum_k min(M_ik, M_jk)
    overlap[np.tri(n, dtype=bool)] = -np.inf     # pairs j <= i
    d = overlap[:-1].max(axis=1)
    d += s[:-1]
    return np.maximum(d, 0.0, out=d)
