"""Exact rational values of a float chain: the tests' reference.

A float is a rational number and ``Fraction(x)`` holds it exactly, so a
chain given in floats has an exact stationary distribution, group inverse
and hitting times. ``ExactChain`` computes them with ``fractions.Fraction``
alone, by Gauss-Jordan elimination that skips zero entries; ``compare``
sets each float the library certifies beside its exact value and an error
bound.

What the reference solves. The rows of a float chain need not sum to
exactly 1 (0 for a generator). The oracle takes every off-diagonal entry
E_ij exactly and sets each diagonal entry so that its row sums to exactly
1 (0). Its difference operator, A = I - P or A = -Q, is then

    A_ij = -E_ij (i != j),    A_ii = sum_{j != i} E_ij,

for both chain kinds, and A 1 = 0 holds exactly. The library keeps the
float diagonal. The largest gap between the two, the row-sum defect
delta = max_i |sum_j E_ij - (1 or 0)|, enters every bound below. This is
also the exactly singular operator of the GTH trick, whose state reduction
reads off-diagonal entries only.

Every value is exact: pi, the group inverse A# (for a generator A# of -Q,
which is the deviation matrix D = h (-h Q)# for every step h), the
fundamental matrix R = A# + 1 pi, the mean hitting times
m(i -> j) = (A#_jj - A#_ij) / pi_j, the powers P^m, Lambda1 of any of
them, the generator coefficient Lambda1(Q), and each coefficient of the
catalog from its definition.

The bounds. Every gate of the library certifies a residual. A residual at
the level of a backward-stable solve, c n u ||A|| ||x||, bounds the error by
that residual times ||A#||, which gives the first-order bounds below, with
u = 2^-53, the constant c = ``C`` = 8 (set before the comparisons, not
fitted to them), the condition number kappa = ||A||_inf ||A#||_inf >= 1 and the
relative backward error eps = n u + delta / ||A||_inf of a stable solve
with A's float diagonal:

=====================  =========================================  ================================
quantity               error                                      bound
=====================  =========================================  ================================
pi (plain solve)       ||pi-hat - pi||_1                          c eps kappa
pi (state reduction)   max_i |pi-hat_i - pi_i| / pi_i             c n^3 u: no subtraction, so no
                                                                  more than its O(n^3) roundings
                                                                  of relative size u (O'Cinneide,
                                                                  Numer. Math. 65, 1993)
R, A#, D               ||X-hat - X||_inf                          c eps kappa ||X||_inf
m(. -> j)              max_i |m-hat(i -> j) - m(i -> j)|          c eps ||A||_inf s_j^2, s_j the
                                                                  largest m(i -> j): the reduced
                                                                  system's condition number is at
                                                                  most ||A||_inf s_j
Lambda1(P^m), m >= 1   |Lambda1-hat - Lambda1|                    c m (n u + delta)
Lambda1(A#)            |Lambda1-hat - Lambda1|                    the bound of A#
Lambda1(Q)             |Lambda1-hat - Lambda1|                    c (n u ||Q||_inf + delta)
nu_m                   |nu-hat_m - nu_m|                          c m (n u sum_k max_i P^m_ik
                                                                  + n delta)
sum_k min_(i!=k) Q_ik  relative                                   c n u
=====================  =========================================  ================================

A catalog coefficient ell = f(x) takes 2 |f'(x)| b from the bound b of
its argument x (first order, doubled); a minimum over candidates (the
small-set step m, the taboo state j) takes the largest bound among the
candidates that could realise it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from mcperturb import (
    IntensityMatrix,
    StochasticMatrix,
    bound_catalog,
    ctmc_deviation_matrix,
    ctmc_ergodicity_coefficient,
    ctmc_hitting_times,
    ergodicity_coefficient,
    fundamental_matrix,
    gallery,
    group_inverse,
    hitting_times,
    stationary_distribution,
)
from mcperturb.catalog import SKELETON_M

C = 8
U = 2.0 ** -53
EPSILON = 2.0 ** -30    # two-state coupling: the rows of [[1 - e, e], [e, 1 - e]] sum to 1

ORACLE_CHAINS = {
    "meyer4": lambda: gallery.meyer4().chain,
    "funderlic8": lambda: gallery.funderlic8().chain,
    "birth-death(20)": lambda: gallery.birth_death(20).chain,
    "odd-even-p(24)": lambda: gallery.odd_even(truncation=24).chain,
    "geometric-return(24)": lambda: gallery.geometric_return(truncation=24).chain,
    "hessenberg-gi-m-1(24)": lambda: gallery.hessenberg_gi_m_1(truncation=24).chain,
    "mm1(24)": lambda: gallery.mm1(truncation=24).chain,
    "batch-arrival(24)": lambda: gallery.batch_arrival(truncation=24).chain,
    "two-state(2^-30)": lambda: StochasticMatrix([[1.0 - EPSILON, EPSILON],
                                                  [EPSILON, 1.0 - EPSILON]]),
}


def _inverse(M: list[list]) -> list[list]:
    """M^-1 by Gauss-Jordan elimination on the diagonal, skipping zero
    entries. Every leading principal minor of a nonsingular M-matrix is
    positive, so no pivot is zero."""
    m = len(M)
    rows = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(M)]
    for c in range(m):
        pivot = rows[c]
        scale = 1 / pivot[c]
        nonzero = [(j, v * scale) for j, v in enumerate(pivot) if v]
        for j, v in nonzero:
            pivot[j] = v
        for r, row in enumerate(rows):
            f = row[c]
            if f and r != c:
                for j, v in nonzero:
                    row[j] -= f * v
    return [row[m:] for row in rows]


def _product(X: list[list], Y: list[list]) -> list[list]:
    """X Y, skipping zero entries."""
    columns = len(Y[0])
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in Y]
    out = []
    for row in X:
        z = [0] * columns
        for k, x in enumerate(row):
            if x:
                for j, y in nonzero[k]:
                    z[j] += x * y
        out.append(z)
    return out


def lambda1(X: list[list]) -> Fraction:
    """Half the largest l1 distance between two rows of X."""
    n = len(X)
    return Fraction(max((sum(abs(a - b) for a, b in zip(X[i], X[j]))
                         for i in range(n) for j in range(i + 1, n)), default=0), 2)


def _norm(X: list[list]) -> Fraction:
    """The largest absolute row sum."""
    return max(sum(abs(x) for x in row) for row in X)


class ExactChain:
    """The exact values of a float chain (a ``StochasticMatrix`` or an
    ``IntensityMatrix``), each computed when first read."""

    def __init__(self, chain):
        self.chain = chain
        self.generator = isinstance(chain, IntensityMatrix)
        E = [[Fraction(float(x)) for x in row] for row in chain.entries]
        n = self.n = len(E)
        self.A = [[sum(E[i][k] for k in range(n) if k != i) if j == i else -E[i][j]
                   for j in range(n)] for i in range(n)]
        self.defect = max(abs(sum(row) - (0 if self.generator else 1)) for row in E)
        self._powers = []

    @cached_property
    def _reduced_inverse(self) -> list[list]:
        """Z = U^-1 for U, A without state 0: a nonsingular M-matrix."""
        return _inverse([row[1:] for row in self.A[1:]])

    @cached_property
    def pi(self) -> list[Fraction]:
        """pi A = 0, sum(pi) = 1: pi U = -pi_0 A[0, 1:] off state 0."""
        a = self.A[0][1:]
        x = [Fraction(1)] + [-v for v in _product([a], self._reduced_inverse)[0]]
        total = sum(x)
        return [v / total for v in x]

    @cached_property
    def group_inverse(self) -> list[list]:
        """A# = (I - 1 pi) Z0 (I - 1 pi) (Meyer 1975), Z0 being Z bordered
        by a zero row and column 0; D = (-Q)# for a generator."""
        n, pi = self.n, self.pi
        Z0 = [[0] * n] + [[0] + row for row in self._reduced_inverse]
        piZ = _product([pi], Z0)[0]
        W = [[z - p for z, p in zip(row, piZ)] for row in Z0]
        return [[w - sum(row) * p for w, p in zip(row, pi)] for row in W]

    @cached_property
    def fundamental(self) -> list[list]:
        """R = A# + 1 pi, the inverse of A + 1 pi."""
        return [[x + p for x, p in zip(row, self.pi)] for row in self.group_inverse]

    @cached_property
    def hitting(self) -> list[list]:
        """m[i][j] = m(i -> j) = (A#_jj - A#_ij) / pi_j: mean steps for a
        transition matrix, mean time for a generator."""
        X, pi = self.group_inverse, self.pi
        return [[(X[j][j] - X[i][j]) / pi[j] for j in range(self.n)] for i in range(self.n)]

    def power(self, m: int) -> list[list]:
        """P^m of P = I - A."""
        if not self._powers:
            self._powers.append([[int(i == j) - a for j, a in enumerate(row)]
                                 for i, row in enumerate(self.A)])
        while len(self._powers) < m:
            self._powers.append(_product(self._powers[-1], self._powers[0]))
        return self._powers[m - 1]

    @cached_property
    def generator_coefficient(self) -> Fraction:
        """Lambda1(Q) of Q = -A: half the least pairwise row defect
        |Q_ii - Q_ji| + |Q_ij - Q_jj| - sum_{s != i, j} |Q_is - Q_js|."""
        Q = [[-a for a in row] for row in self.A]
        n = self.n
        return Fraction(min(
            abs(Q[i][i] - Q[j][i]) + abs(Q[i][j] - Q[j][j])
            - sum(abs(Q[i][s] - Q[j][s]) for s in range(n) if s != i and s != j)
            for i in range(n) for j in range(i + 1, n)), 2)

    def common_mass(self, m: int) -> Fraction:
        """nu_m = sum_k min_i P^m_ik."""
        return sum(min(column) for column in zip(*self.power(m)))


def _error(got, want) -> Fraction:
    """|got - want| of a float and an exact value."""
    return abs(Fraction(float(got)) - want)


def _matrix_error(got: np.ndarray, want: list[list]) -> Fraction:
    """||got - want||_inf of a float matrix and an exact one."""
    return max(sum(_error(g, w) for g, w in zip(grow, wrow)) for grow, wrow in zip(got, want))


def _row(error, bound) -> dict:
    error, bound = float(error), float(bound)
    return {"error": error, "bound": bound, "ratio": error / bound}


def compare(ex: ExactChain) -> dict[str, dict]:
    """``{quantity: {"error", "bound", "ratio"}}`` for every float the
    library certifies on ``ex.chain``, bounded as the module docstring says.

    ``hitting`` is the target with the largest ratio. A catalog
    coefficient is compared when its report has an ``ell``, under the key
    ``ell:<bound name>`` (the small-set bound without its step).
    """
    chain, n, delta, X = ex.chain, ex.n, ex.defect, ex.group_inverse
    norm_a, norm_x = _norm(ex.A), _norm(X)
    eps = n * U + delta / norm_a
    kappa = norm_a * norm_x
    matrix_bound = C * eps * kappa * norm_x
    rows = {}

    pi = stationary_distribution(chain).values
    rows["pi"] = _row(sum(_error(p, q) for p, q in zip(pi, ex.pi)), C * eps * kappa)
    gth = stationary_distribution(chain, "gth").values
    rows["pi_gth"] = _row(max(_error(p, q) / q for p, q in zip(gth, ex.pi)), C * n**3 * U)
    if ex.generator:
        rows["deviation"] = _row(_matrix_error(ctmc_deviation_matrix(chain), X), matrix_bound)
    else:
        rows["fundamental"] = _row(_matrix_error(fundamental_matrix(chain), ex.fundamental),
                                   C * eps * kappa * _norm(ex.fundamental))
        rows["group_inverse"] = _row(_matrix_error(group_inverse(chain), X), matrix_bound)

    solve = ctmc_hitting_times if ex.generator else hitting_times
    sups = [max(column) for column in zip(*ex.hitting)]            # s_j
    hit_bound = [C * eps * norm_a * s * s for s in sups]
    for j in range(n):
        row = _row(max(_error(g, m[j]) for g, m in zip(solve(chain, j), ex.hitting)),
                   hit_bound[j])
        if "hitting" not in rows or row["ratio"] > rows["hitting"]["ratio"]:
            rows["hitting"] = row

    if ex.generator:
        lam_q = ex.generator_coefficient
        lam_q_bound = C * (n * U * norm_a + delta)
        rows["lambda1_Q"] = _row(_error(ctmc_ergodicity_coefficient(chain), lam_q), lam_q_bound)
    else:
        lam_p, lam_p_bound = lambda1(ex.power(1)), C * (n * U + delta)
        rows["lambda1_P"] = _row(_error(ergodicity_coefficient(chain.entries), lam_p),
                                 lam_p_bound)
        rows[f"lambda1_P{SKELETON_M}"] = _row(
            _error(ergodicity_coefficient(chain.power(SKELETON_M)),
                   lambda1(ex.power(SKELETON_M))), SKELETON_M * lam_p_bound)
        rows["lambda1_group_inverse"] = _row(
            _error(ergodicity_coefficient(group_inverse(chain)), lambda1(X)), matrix_bound)

    def least_sup(candidates):
        """min_j s_j over the candidates, and the bound on its error."""
        s = min(sups[j] for j in candidates)
        return s, max(hit_bound[j] for j in candidates if sups[j] <= 2 * s)

    for rep in bound_catalog(chain):
        if rep.ell is None:
            continue
        name = rep.bound_name.split("[")[0]
        if name == "seneta":
            want, bound = 1 / (1 - lam_p), 2 * lam_p_bound / (1 - lam_p) ** 2
        elif name in ("seneta_best", "ctmc_deviation"):
            want, bound = (norm_x if ex.generator else lambda1(X)), matrix_bound
        elif name == "small_set":
            # the candidates are the steps the library searched
            nu = {m: ex.common_mass(m) for m, _ in rep.info["search_table"]}
            steps = [m for m in nu if nu[m] > 0]
            want = min(Fraction(m) / nu[m] for m in steps)
            bound = max(2 * m / nu[m] ** 2 * C * m
                        * (n * U * sum(max(c) for c in zip(*ex.power(m))) + n * delta)
                        for m in steps)
        elif name in ("hitting_time_drift", "ctmc_unit_drift"):
            s, b = least_sup(range(n) if name == "hitting_time_drift"
                             else [rep.info["taboo_state"]])
            want, bound = 2 * s * s, 2 * 4 * s * b
        elif name == "ctmc_lambda1":
            want, bound = 1 / lam_q, 2 * lam_q_bound / lam_q**2
        elif name == "ctmc_small_set":
            total = sum(min(-ex.A[i][k] for i in range(n) if i != k) for k in range(n))
            want, bound = 1 / total, 2 * C * n * U / total
        else:
            raise AssertionError(f"no exact coefficient for {rep.bound_name}")
        rows[f"ell:{name}"] = _row(_error(rep.ell, want), bound)
    return rows
