"""Measure, vector, and matrix norms, unweighted and weighted.

Conventions: signed measures are row vectors with the weighted l1 norm
``sum_i |mu(i)| V(i)``; functions are column vectors with the weighted sup
norm ``sup_i |x(i)| / V(i)``; matrices carry the induced operator norm
``sup_i V(i)^{-1} sum_j |L_ij| V(j)``. With V identically 1 these reduce to
the plain l1, sup, and max-absolute-row-sum norms.
"""

from __future__ import annotations

import numpy as np

from .chains import _weight_function

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


_BLOCK_ROWS = 64


def _pair_blocks(M: np.ndarray):
    """Yield ``(a, D)`` for consecutive row blocks ``a..b-1`` of M, every row
    but the last: ``D[r, k]`` is the l1 distance between rows ``a + r`` and
    ``a + 1 + k``.

    Each block is one compiled pairwise-l1 call on ``M[a:b]`` against
    ``M[a+1:]``; its entries with k < r are pairs j <= i, which callers
    mask. The first block is one row, and each later one doubles up to
    ``_BLOCK_ROWS`` rows, so a scan that stops at row 0 costs one row.
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
