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


def _abs_row_differences(M: np.ndarray):
    """Yield ``(i, |M[i+1:] - M[i]|)`` for every row i but the last.

    Row k of the yielded block is ``|M[i+1+k] - M[i]|``. All blocks share one
    buffer, so each is valid only until the next is yielded.
    """
    n = M.shape[0]
    buf = np.empty_like(M)
    for i in range(n - 1):
        diff = buf[: n - 1 - i]
        np.subtract(M[i + 1 :], M[i], out=diff)
        yield i, np.abs(diff, out=diff)
