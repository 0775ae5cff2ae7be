import math

import numpy as np
import pytest

from mcperturb import (
    Distribution,
    IntensityMatrix,
    PerturbationPair,
    StochasticMatrix,
    ValidationError,
    WeightFunction,
)
from mcperturb.chains import _period_by_bfs


class TestStochasticMatrix:
    def test_accepts_valid_matrix(self):
        P = StochasticMatrix([[0.5, 0.5], [0.3, 0.7]])
        assert P.n == 2
        assert P.irreducible
        assert P.period == 1

    def test_rejects_negative_entry(self):
        with pytest.raises(ValidationError, match=r"negative entry"):
            StochasticMatrix([[1.1, -0.1], [0.5, 0.5]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError, match=r"row 1 sums"):
            StochasticMatrix([[0.5, 0.5], [0.5, 0.4]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            StochasticMatrix([[0.5, 0.5]])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            StochasticMatrix([[np.nan, 1.0], [0.5, 0.5]])

    def test_period_two_swap_chain(self):
        P = StochasticMatrix([[0, 1], [1, 0]])
        assert P.irreducible
        assert P.period == 2
        assert not P.aperiodic

    def test_period_of_cycle(self):
        n = 6
        P = np.zeros((n, n))
        for i in range(n):
            P[i, (i + 1) % n] = 1.0
        assert StochasticMatrix(P).period == n

    def test_positive_diagonal_gives_aperiodic(self):
        P = StochasticMatrix([[0.1, 0.9], [0.5, 0.5]])
        assert P.aperiodic

    def test_reducible_flag(self):
        P = StochasticMatrix([[1.0, 0.0], [0.5, 0.5]])
        assert not P.irreducible

    def test_entries_are_frozen(self):
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            P.entries[0, 0] = 0.4


class TestIntensityMatrix:
    def test_accepts_valid_generator(self):
        Q = IntensityMatrix([[-1.0, 1.0], [2.0, -2.0]])
        assert Q.uniformization_constant == 2.0
        assert Q.irreducible

    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(ValidationError, match="off-diagonal"):
            IntensityMatrix([[1.0, -1.0], [2.0, -2.0]])

    def test_rejects_nonconservative(self):
        with pytest.raises(ValidationError, match="conservative"):
            IntensityMatrix([[-1.0, 0.9], [2.0, -2.0]])

    def test_rejects_zero_generator(self):
        with pytest.raises(ValidationError, match="uniformization"):
            IntensityMatrix([[0.0, 0.0], [0.0, 0.0]])

    def test_reducible_flag(self):
        Q = IntensityMatrix([[0.0, 0.0], [1.0, -1.0]])
        assert not Q.irreducible


class TestDistribution:
    def test_accepts_and_normalizes(self):
        d = Distribution([0.5, 0.5])
        assert d.values.sum() == 1.0
        assert d.strictly_positive

    def test_clamps_solver_noise(self):
        d = Distribution([1.0, -1e-15])
        assert d.values[1] == 0.0
        assert not d.strictly_positive

    def test_rejects_genuine_negative(self):
        with pytest.raises(ValidationError, match="negative"):
            Distribution([1.1, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError, match="sums to"):
            Distribution([0.5, 0.4])


class TestWeightFunction:
    def test_lower_bound(self):
        w = WeightFunction([2.0, 3.0, 1.5])
        assert w.lower_bound == 1.5

    def test_rejects_zero_weight(self):
        with pytest.raises(ValidationError, match="not positive"):
            WeightFunction([1.0, 0.0])


class TestPerturbationPair:
    def test_delta_rows_sum_to_zero(self):
        P = StochasticMatrix([[0.5, 0.5], [0.3, 0.7]])
        Pt = StochasticMatrix([[0.6, 0.4], [0.3, 0.7]])
        pair = PerturbationPair(P, Pt)
        assert pair.kind == "dtmc"
        np.testing.assert_allclose(pair.delta.sum(axis=1), 0.0, atol=1e-15)

    def test_rejects_mixed_kinds(self):
        P = StochasticMatrix([[0.5, 0.5], [0.3, 0.7]])
        Q = IntensityMatrix([[-1.0, 1.0], [2.0, -2.0]])
        with pytest.raises(ValidationError, match="same kind"):
            PerturbationPair(P, Q)

    def test_rejects_size_mismatch(self):
        P = StochasticMatrix([[0.5, 0.5], [0.3, 0.7]])
        P3 = StochasticMatrix(np.full((3, 3), 1 / 3))
        with pytest.raises(ValidationError, match="sizes differ"):
            PerturbationPair(P, P3)

    def test_ctmc_pair(self):
        Q = IntensityMatrix([[-1.0, 1.0], [2.0, -2.0]])
        Qt = IntensityMatrix([[-1.2, 1.2], [2.0, -2.0]])
        pair = PerturbationPair(Q, Qt)
        assert pair.kind == "ctmc"
        np.testing.assert_allclose(pair.delta.sum(axis=1), 0.0, atol=1e-15)


def loop_period(support):
    """Reference period: a per-edge Python BFS with a running gcd."""
    n = support.shape[0]
    level = np.full(n, -1, dtype=int)
    level[0] = 0
    queue = [0]
    g = 0
    neighbors = [np.nonzero(support[i])[0] for i in range(n)]
    while queue:
        nxt = []
        for u in queue:
            for v in neighbors[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
                else:
                    g = math.gcd(g, level[u] + 1 - level[v])
        queue = nxt
    for u in range(n):
        if level[u] < 0:
            continue
        for v in neighbors[u]:
            if level[v] >= 0:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g != 0 else 0


def _cycle_support(n, length, offset=0):
    S = np.zeros((n, n), dtype=bool)
    nodes = [(offset + k) % n for k in range(length)]
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        S[a, b] = True
    return S


class TestPeriodByBfs:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop_on_random_sparse_supports(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        S = rng.random((n, n)) < rng.choice([0.02, 0.05, 0.1, 0.3])
        assert _period_by_bfs(S) == loop_period(S)

    @pytest.mark.parametrize("length", range(2, 8))
    def test_matches_loop_on_cycles(self, length):
        n = 9
        S = _cycle_support(n, length)
        assert _period_by_bfs(S) == loop_period(S) == length
        # a second cycle through state 0 leaves the gcd of the two lengths
        T = S | _cycle_support(n, 4, offset=0)
        assert _period_by_bfs(T) == loop_period(T) == math.gcd(length, 4)
        # a 2-cycle on states the first cycle never reaches (a reducible support)
        U = S | _cycle_support(n, 2, offset=length)
        assert _period_by_bfs(U) == loop_period(U)

    def test_reducible_supports(self):
        edgeless = np.zeros((5, 5), dtype=bool)
        assert _period_by_bfs(edgeless) == loop_period(edgeless) == 0
        absorbing = np.array([[1, 1, 0], [0, 0, 1], [0, 0, 1]], dtype=bool)
        assert _period_by_bfs(absorbing) == loop_period(absorbing) == 1
        # state 0 only feeds a 3-cycle it is not on
        feeder = _cycle_support(4, 3, offset=1)
        feeder[0, 1] = True
        assert _period_by_bfs(feeder) == loop_period(feeder) == 3
