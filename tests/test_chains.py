import math

import numpy as np
import pytest

from mcperturb import (
    Distribution,
    DriftViolated,
    HypothesisFailed,
    IntensityMatrix,
    InvalidParameters,
    NumericSettings,
    PerturbationPair,
    StochasticMatrix,
    UnitDriftCertificate,
    ValidationError,
    WeightFunction,
    bound_catalog,
    ctmc_lambda1_bound,
    ctmc_small_set_bound,
    ctmc_stationary,
    seneta_bound,
    skeleton_bound,
    small_set_bound,
    unit_drift_bound,
)
from mcperturb import chains
from mcperturb.chains import _period_by_bfs, _perturbed_chain
from mcperturb.ctmc import uniformize
from mcperturb.settings import DEFAULT
from tests.conftest import gallery_model


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

    @pytest.mark.parametrize("m", [-1, -3, 2.5, 1.0, "2", None])
    def test_power_rejects_what_is_not_a_nonnegative_integer(self, m):
        P = StochasticMatrix([[0.2, 0.8], [0.6, 0.4]])
        with pytest.raises(InvalidParameters, match="power must be a nonnegative integer"):
            P.power(m)

    def test_power_zero_is_the_identity_and_power_one_the_matrix(self):
        P = StochasticMatrix([[0.2, 0.8], [0.6, 0.4]])
        assert np.array_equal(P.power(0), np.eye(2))
        assert np.array_equal(P.power(np.int64(1)), P.entries)
        assert np.array_equal(P.power(3), P.entries @ P.entries @ P.entries)


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

    @pytest.mark.parametrize("base, perturbed, match", [
        ("P", "Q", "same kind, got StochasticMatrix and IntensityMatrix"),
        ("Q", "P", "same kind, got IntensityMatrix and StochasticMatrix"),
        ("P", "P3", "sizes differ: 2 vs 3"),
        ("Q", "Q3", "sizes differ: 2 vs 3"),
        ("P", "array", "same kind, got StochasticMatrix and ndarray"),
    ])
    def test_the_catalog_rejects_what_a_pair_rejects(self, base, perturbed, match):
        chains_by_name = {
            "P": StochasticMatrix([[0.5, 0.5], [0.3, 0.7]]),
            "P3": StochasticMatrix(np.full((3, 3), 1 / 3)),
            "Q": IntensityMatrix([[-1.0, 1.0], [2.0, -2.0]]),
            "Q3": IntensityMatrix([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]),
            "array": np.array([[0.5, 0.5], [0.3, 0.7]]),
        }
        base, perturbed = chains_by_name[base], chains_by_name[perturbed]
        with pytest.raises(ValidationError, match=match) as from_pair:
            PerturbationPair(base, perturbed)
        # as do the two bounds that take the perturbed chain itself
        for call in (lambda: bound_catalog(base, perturbed=perturbed),
                     lambda: skeleton_bound(base, perturbed, 2),
                     lambda: small_set_bound(base, perturbed=perturbed)):
            with pytest.raises(ValidationError) as raised:
                call()
            assert str(raised.value) == str(from_pair.value)


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


def csgraph_reference(support):
    """(strongly connected, period) from csgraph on ``csr_array`` of the support,
    with the edges of ``np.nonzero``: the graph checks' former construction."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components, dijkstra

    graph = csr_array(support.astype(np.int8))
    connected = connected_components(graph, directed=True, connection="strong")[0] == 1
    level = dijkstra(graph, indices=0, unweighted=True)
    u, v = np.nonzero(support)
    reached = np.isfinite(level[u])
    diff = level[u[reached]] + 1.0 - level[v[reached]]
    return connected, int(np.gcd.reduce(np.abs(diff).astype(np.int64)))


class TestGraphChecksAgainstCsgraph:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_supports(self, seed):
        # self-loops, reducible and strongly connected supports alike
        rng = np.random.default_rng([seed, 11])
        n = int(rng.integers(1, 60))
        S = rng.random((n, n)) < rng.choice([0.01, 0.03, 0.1, 0.5])
        if seed % 3 == 0:
            S |= _cycle_support(n, n)            # strongly connected
        if seed % 4 == 0:
            S[np.diag_indices(n)] = True         # every self-loop
        got = (chains._is_strongly_connected(S), _period_by_bfs(S))
        assert got == csgraph_reference(S)

    @pytest.mark.parametrize("S", [
        np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool),
        np.zeros((4, 4), dtype=bool), np.eye(3, dtype=bool),
        _cycle_support(6, 6), _cycle_support(6, 3) | np.eye(6, dtype=bool),
    ], ids=["loop-1", "edgeless-1", "edgeless-4", "loops-3", "cycle-6", "cycle-3-loops"])
    def test_small_supports(self, S):
        assert (chains._is_strongly_connected(S), _period_by_bfs(S)) == csgraph_reference(S)

    def test_the_gallery_chains(self):
        for name in ("hessenberg-gi-m-1", "odd-even-p", "mm1"):
            support = gallery_model(name, 200).chain.entries > 0.0
            got = (chains._is_strongly_connected(support), _period_by_bfs(support))
            assert got == csgraph_reference(support)


def reachable(support, start, reverse=False):
    """Reference reachability: a plain Python BFS over the support."""
    S = support.T if reverse else support
    seen = {start}
    queue = [start]
    while queue:
        u = queue.pop()
        for v in np.nonzero(S[u])[0]:
            if v not in seen:
                seen.add(int(v))
                queue.append(int(v))
    return seen


def loop_irreducible(support):
    n = support.shape[0]
    return len(reachable(support, 0)) == n and len(reachable(support, 0, reverse=True)) == n


def count_graph_checks(monkeypatch):
    """Record the shape of every support handed to the strong-connectivity check."""
    calls = []
    check = chains._is_strongly_connected

    def counted(support):
        calls.append(support.shape)
        return check(support)

    monkeypatch.setattr(chains, "_is_strongly_connected", counted)
    return calls


def _random_chain_pair(seed):
    """A transition matrix and a generator on the same random sparse support."""
    rng = np.random.default_rng([seed, 77])
    n = int(rng.integers(2, 30))
    S = rng.random((n, n)) < rng.choice([0.05, 0.1, 0.2, 0.4])
    S[np.arange(n), rng.integers(0, n, n)] = True          # no empty row
    W = np.where(S, rng.random((n, n)) + 0.1, 0.0)
    P = W / W.sum(axis=1, keepdims=True)
    off = W.copy()
    np.fill_diagonal(off, 0.0)
    if not off.any():
        off[0, 1] = 1.0
    Q = off - np.diag(off.sum(axis=1))
    return P, Q


class TestLazyIrreducibility:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_on_random_sparse_supports(self, seed, monkeypatch):
        calls = count_graph_checks(monkeypatch)
        P_entries, Q_entries = _random_chain_pair(seed)
        P, Q = StochasticMatrix(P_entries), IntensityMatrix(Q_entries)
        assert calls == []                       # nothing computed at construction
        off_support = Q_entries > 0
        np.fill_diagonal(off_support, False)
        assert P.irreducible == loop_irreducible(P_entries > 0)
        assert Q.irreducible == loop_irreducible(off_support)
        assert len(calls) == 2
        P.irreducible, Q.irreducible
        assert len(calls) == 2                   # cached

    def test_mix_of_verdicts(self):
        verdicts = {StochasticMatrix(_random_chain_pair(seed)[0]).irreducible
                    for seed in range(40)}
        assert verdicts == {True, False}


class TestInheritedIrreducibility:
    P = np.array([[0.5, 0.5, 0.0],
                  [0.0, 0.5, 0.5],
                  [0.5, 0.0, 0.5]])

    def base(self):
        P = StochasticMatrix(self.P)
        assert P.irreducible
        return P

    def test_kept_support_needs_no_graph_check(self, monkeypatch):
        P = self.base()
        calls = count_graph_checks(monkeypatch)
        delta = np.zeros((3, 3))
        delta[0] = [-0.1, -0.1, 0.2]             # lowers two edges, adds one
        perturbed = _perturbed_chain(P, delta)
        assert perturbed.irreducible
        assert calls == []
        np.testing.assert_array_equal(perturbed.entries, self.P + delta)

    def test_removed_edge_runs_the_graph_check(self, monkeypatch):
        P = self.base()
        calls = count_graph_checks(monkeypatch)
        delta = np.zeros((3, 3))
        delta[1] = [0.2, -0.5, 0.3]              # removes the self-loop 1 -> 1
        perturbed = _perturbed_chain(P, delta)
        assert perturbed.irreducible
        assert calls == [(3, 3)]

    def test_disconnecting_delta_is_reducible(self, monkeypatch):
        P = self.base()
        calls = count_graph_checks(monkeypatch)
        delta = np.zeros((3, 3))
        delta[2] = [-0.5, 0.0, 0.5]              # state 2 becomes absorbing
        perturbed = _perturbed_chain(P, delta)
        assert not perturbed.irreducible
        assert calls == [(3, 3)]

    def test_reducible_base_falls_back(self, monkeypatch):
        P = StochasticMatrix([[1.0, 0.0], [0.5, 0.5]])
        calls = count_graph_checks(monkeypatch)
        delta = np.array([[-0.1, 0.1], [0.0, 0.0]])
        assert _perturbed_chain(P, delta).irreducible
        assert len(calls) == 2                   # the base, then the perturbed chain

    def test_generator(self, monkeypatch):
        Q = IntensityMatrix([[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [3.0, 0.0, -3.0]])
        assert Q.irreducible
        calls = count_graph_checks(monkeypatch)
        keep = np.array([[0.0, 0.0, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 0.0]])
        assert _perturbed_chain(Q, keep).irreducible
        assert calls == []
        cut = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-3.0, 0.0, 3.0]])
        assert not _perturbed_chain(Q, cut).irreducible
        assert calls == [(3, 3)]

    def test_uniformized_skeleton_inherits(self, monkeypatch):
        Q = IntensityMatrix([[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [3.0, 0.0, -3.0]])
        assert Q.irreducible
        calls = count_graph_checks(monkeypatch)
        assert uniformize(Q).matrix.irreducible
        assert calls == []

    def test_skeleton_with_underflowed_rate_falls_back(self, monkeypatch):
        # h * 1e-320 underflows to 0 in P_h = I + h Q, which cuts the only
        # edge back to state 0: Q is irreducible, its skeleton is not
        Q = IntensityMatrix([[-1e10, 1e10], [1e-320, -1e-320]])
        assert Q.irreducible
        calls = count_graph_checks(monkeypatch)
        skeleton = uniformize(Q).matrix
        assert skeleton.entries[1, 0] == 0.0
        assert not skeleton.irreducible
        assert calls == [(2, 2)]


class TestSettingsGovernEveryGate:
    """A chain's NumericSettings govern every gate applied to it and to the
    chains derived from it."""

    LOOSE = NumericSettings(validation=1e-6)
    # a row defect of 1e-8 also leaves stationarity and inverse residuals of
    # that order, so a chain that carries one needs gates to match
    LOOSE_ALL = NumericSettings(validation=1e-6, stationarity=1e-6, inverse=1e-6)

    def _loose_generator(self, settings=LOOSE):
        # row 0 sums to 1e-8: conservative within 1e-6, not within 1e-12
        return IntensityMatrix([[-1.0, 1.0 + 1e-8], [1.0, -1.0]], settings=settings)

    def test_uniformize_keeps_the_generators_settings(self):
        Q = self._loose_generator()
        skeleton = uniformize(Q).matrix
        assert skeleton.settings is Q.settings
        assert abs(skeleton.entries[0].sum() - 1.0) > DEFAULT.validation

    def test_catalog_of_a_loose_generator_runs(self):
        reports = bound_catalog(self._loose_generator(self.LOOSE_ALL))
        assert [r.bound_name for r in reports][:2] == ["ctmc_deviation", "ctmc_lambda1"]
        assert reports[0].hypotheses_hold

    def test_stationary_distribution_carries_the_chains_settings(self):
        Q = self._loose_generator(self.LOOSE_ALL)
        assert ctmc_stationary(Q).n == 2
        assert ctmc_stationary(Q, method="gth").n == 2

    @pytest.mark.parametrize("bound,kind,entries,margin", [
        # 1 - Lambda1(P) = 0.2
        (seneta_bound, StochasticMatrix, [[0.9, 0.1], [0.1, 0.9]], 0.5),
        # Lambda1(Q) = 2, and the common rate mass is 2
        (ctmc_lambda1_bound, IntensityMatrix, [[-1.0, 1.0], [1.0, -1.0]], 3.0),
        (ctmc_small_set_bound, IntensityMatrix, [[-1.0, 1.0], [1.0, -1.0]], 3.0),
    ], ids=["seneta", "ctmc_lambda1", "ctmc_small_set"])
    def test_hypothesis_margin_is_the_chains(self, bound, kind, entries, margin):
        assert bound(kind(entries)).hypotheses_hold
        with pytest.raises(HypothesisFailed):
            bound(kind(entries, settings=NumericSettings(hypothesis_margin=margin)))

    def test_drift_tolerance_is_the_chains(self):
        # V = (0, 1.9) misses the unit drift at state 1 by 0.05
        cert = UnitDriftCertificate(0, np.array([0.0, 1.9]))
        entries = [[0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(DriftViolated):
            unit_drift_bound(StochasticMatrix(entries), cert)
        loose = StochasticMatrix(entries, settings=NumericSettings(drift=0.1))
        assert unit_drift_bound(loose, cert).ell == pytest.approx(2 * 1.9**2)

    def test_perturbed_chain_keeps_the_settings(self):
        P = StochasticMatrix([[0.5, 0.5], [0.3, 0.7]], settings=self.LOOSE)
        delta = np.array([[0.1, -0.1], [0.0, 0.0]])
        assert _perturbed_chain(P, delta).settings is P.settings
