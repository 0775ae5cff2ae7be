import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcperturb import (
    IntensityMatrix,
    PeriodicChain,
    ReducibleChain,
    SolverFailure,
    StochasticMatrix,
    bound_catalog,
    ctmc_stationary,
    deviation_matrix,
    fit_geometric_drift,
    fundamental_matrix,
    group_inverse,
    hitting_time_bound,
    hitting_times,
    seneta_best_bound,
    stationary_distribution,
    stationary_matrix,
    uniformize,
)
from mcperturb import ctmc, dtmc, gallery, solvers
from mcperturb.solvers import _stationary_gth
from mcperturb.verify import canonical_pair
from tests.conftest import gallery_model, random_irreducible_chain, sparse_irreducible_chain


class TestStationary:
    def test_identical_rows_uniform(self):
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        pi = stationary_distribution(P)
        np.testing.assert_allclose(pi.values, [0.5, 0.5], atol=1e-14)

    def test_two_state_closed_form(self):
        a, b = 0.3, 0.1
        P = StochasticMatrix([[1 - a, a], [b, 1 - b]])
        pi = stationary_distribution(P)
        np.testing.assert_allclose(pi.values, [b / (a + b), a / (a + b)], atol=1e-14)
        np.testing.assert_allclose(pi.values, [0.25, 0.75], atol=1e-14)

    def test_methods_agree_on_meyer(self, meyer):
        direct = stationary_distribution(meyer.chain, method="solve")
        power = stationary_distribution(meyer.chain, method="power")
        gth = stationary_distribution(meyer.chain, method="gth")
        np.testing.assert_allclose(direct.values, power.values, atol=1e-12)
        np.testing.assert_allclose(direct.values, gth.values, atol=1e-12)

    def test_residual_certified(self, funderlic):
        pi = stationary_distribution(funderlic.chain)
        res = np.abs(pi.values @ funderlic.chain.entries - pi.values).max()
        assert res <= 1e-10

    def test_reducible_rejected(self):
        P = StochasticMatrix([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ReducibleChain):
            stationary_distribution(P)

    def test_gth_strictly_positive_on_steep_tail(self):
        # geometric tail underflows the direct solve's absolute accuracy;
        # state reduction keeps every component positive
        from mcperturb.gallery import geometric_return

        model = geometric_return(p=0.75, truncation=120)
        pi = stationary_distribution(model.chain, method="gth")
        assert pi.strictly_positive

    def test_periodic_chain_still_solvable(self):
        P = StochasticMatrix([[0, 1], [1, 0]])
        pi = stationary_distribution(P)
        np.testing.assert_allclose(pi.values, [0.5, 0.5], atol=1e-14)


class TestFundamentalMatrix:
    def test_periodic_chain_has_fundamental_matrix(self):
        P = StochasticMatrix([[0, 1], [1, 0]])
        pi = stationary_distribution(P)
        R = fundamental_matrix(P)
        M = np.eye(2) - P.entries + stationary_matrix(pi)
        np.testing.assert_allclose(R @ M, np.eye(2), atol=1e-9)

    def test_identical_rows_give_identity(self):
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        R = fundamental_matrix(P)
        np.testing.assert_allclose(R, np.eye(2), atol=1e-12)

    def test_meyer_equals_group_inverse_plus_pi(self, meyer, meyer_group_inverse_exact):
        pi = stationary_distribution(meyer.chain)
        R = fundamental_matrix(meyer.chain)
        np.testing.assert_allclose(
            R, meyer_group_inverse_exact + stationary_matrix(pi), atol=1e-12
        )


class TestGroupInverse:
    def test_meyer_matches_exact_matrix(self, meyer, meyer_group_inverse_exact):
        X = group_inverse(meyer.chain)
        np.testing.assert_allclose(X, meyer_group_inverse_exact, atol=1e-9)

    def test_identical_rows(self):
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        pi = stationary_distribution(P)
        X = group_inverse(P)
        np.testing.assert_allclose(X, np.eye(2) - stationary_matrix(pi), atol=1e-12)

    def test_symmetric_two_state_closed_form(self):
        # A = I - P is idempotent here, so it is its own group inverse:
        # X = I - Pi. (Scaling it by 1/2 would break A X A = A.)
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        X = group_inverse(P)
        np.testing.assert_allclose(X, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
        A = np.eye(2) - P.entries
        np.testing.assert_allclose(A @ X @ A, A, atol=1e-15)

    def test_axioms_on_funderlic(self, funderlic):
        P = funderlic.chain
        pi = stationary_distribution(P)
        X = group_inverse(P)
        A = np.eye(P.n) - P.entries
        np.testing.assert_allclose(A @ X @ A, A, atol=1e-9)
        np.testing.assert_allclose(X @ A @ X, X, atol=1e-9)
        np.testing.assert_allclose(A @ X, X @ A, atol=1e-9)
        np.testing.assert_allclose(X.sum(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(pi.values @ X, 0.0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
    def test_axioms_property(self, seed, n):
        rng = np.random.default_rng(seed)
        P = StochasticMatrix(random_irreducible_chain(rng, n))
        X = group_inverse(P)
        A = np.eye(n) - P.entries
        assert np.abs(A @ X @ A - A).max() < 1e-9
        assert np.abs(X @ A @ X - X).max() < 1e-9
        assert np.abs(A @ X - X @ A).max() < 1e-9


class TestDeviationMatrix:
    def test_identical_rows(self):
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        pi = stationary_distribution(P)
        D = deviation_matrix(P)
        np.testing.assert_allclose(D, np.eye(2) - stationary_matrix(pi), atol=1e-12)

    def test_periodic_chain_rejected(self):
        P = StochasticMatrix([[0, 1], [1, 0]])
        with pytest.raises(PeriodicChain):
            deviation_matrix(P)

    def test_partial_sums_converge_on_meyer(self, meyer):
        P = meyer.chain
        pi = stationary_distribution(P)
        D = deviation_matrix(P)
        Pi = stationary_matrix(pi)
        acc = np.zeros_like(D)
        Pk = np.eye(P.n)
        errs = []
        for _ in range(200):
            acc += Pk - Pi
            errs.append(np.abs(acc - D).max())
            Pk = Pk @ P.entries
        assert errs[-1] < 1e-6
        # eventually monotone decrease
        tail = errs[-50:]
        assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))

    def test_gallery_wide_residual_invariants(self):
        # every irreducible gallery chain: stationarity residual at 1e-10,
        # normalization at 1e-12, fundamental-matrix residual at 1e-9
        # (periodic variants included)
        from mcperturb.gallery import (
            birth_death,
            funderlic8,
            geometric_return,
            hessenberg_gi_m_1,
            meyer4,
            odd_even,
        )

        pa = np.r_[0.0, np.full(9, 0.5), 1.0]
        pb = np.r_[1.0, np.full(9, 0.5), 0.0]
        models = [
            funderlic8(), meyer4(),
            hessenberg_gi_m_1(truncation=120),
            odd_even(truncation=120),
            odd_even(truncation=120, periodic=True),
            birth_death(n=10),
            birth_death(n=10, a=pa, b=pb, c=1 - pa - pb),
            geometric_return(truncation=120),
        ]
        for model in models:
            P = model.chain
            pi = stationary_distribution(P)
            assert np.abs(pi.values @ P.entries - pi.values).max() <= 1e-10, model.name
            assert abs(pi.values.sum() - 1.0) <= 1e-12, model.name
            R = fundamental_matrix(P)
            M = np.eye(P.n) - P.entries + stationary_matrix(pi)
            assert np.abs(R @ M - np.eye(P.n)).max() <= 1e-9, model.name

    def test_custom_settings_record_is_honored(self):
        from mcperturb import NumericSettings

        loose = NumericSettings(validation=1e-6)
        P = StochasticMatrix([[0.5, 0.5 + 3e-8], [0.4, 0.6]], settings=loose)
        assert P.n == 2
        from mcperturb import ValidationError

        with pytest.raises(ValidationError):
            StochasticMatrix([[0.5, 0.5 + 3e-8], [0.4, 0.6]])

    def test_partial_sums_on_aperiodic_gallery(self):
        from mcperturb.gallery import geometric_return, hessenberg_gi_m_1, odd_even

        for model in (
            hessenberg_gi_m_1(truncation=40),
            odd_even(truncation=40),
            geometric_return(truncation=40),
        ):
            P = model.chain
            pi = stationary_distribution(P)
            D = deviation_matrix(P)
            Pi = stationary_matrix(pi)
            acc = np.zeros_like(D)
            Pk = np.eye(P.n)
            for _ in range(400):
                acc += Pk - Pi
                Pk = Pk @ P.entries
            assert np.abs(acc - D).max() < 1e-6, model.name


def loop_gth(P):
    """The dense state-reduction loop: a full k x k update at every step."""
    A = P.copy()
    n = A.shape[0]
    scales = np.empty(n)
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0.0:
            raise SolverFailure(f"state-reduction stalled at state {k} (no exit mass)")
        scales[k] = s
        A[k, :k] /= s
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = np.dot(x[:k], A[:k, k]) / scales[k]
    return x / x.sum()


def _gth_input(chain):
    """The transition matrix GTH runs on: the chain, or a generator's skeleton."""
    if isinstance(chain, IntensityMatrix):
        return uniformize(chain).matrix.entries
    return chain.entries


class TestSparseGth:
    @pytest.mark.parametrize("truncation", [24, 200])
    @pytest.mark.parametrize("spec", gallery.list_models())
    def test_equals_dense_loop_on_gallery(self, spec, truncation):
        model = gallery_model(spec, truncation)
        pair = canonical_pair(model, magnitude=0.01, seed=0)
        for chain in (model.chain, pair.perturbed):
            P = _gth_input(chain)
            assert np.array_equal(_stationary_gth(P), loop_gth(P))

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_dense_loop_on_sparse_random_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        P = sparse_irreducible_chain(rng, n, density=rng.choice([0.0, 0.02, 0.1]))
        assert np.array_equal(_stationary_gth(P), loop_gth(P))

    def test_equals_dense_loop_on_dense_random_chain(self):
        P = random_irreducible_chain(np.random.default_rng(11), 150)
        assert np.array_equal(_stationary_gth(P), loop_gth(P))

    @pytest.mark.parametrize("closed", [(2,), (1, 2), (3, 5), (4,)])
    def test_stalls_at_the_same_state(self, closed):
        # the states in ``closed`` never leave it, so elimination runs out of
        # exit mass at a state the dense loop also stalls on
        rng = np.random.default_rng(len(closed))
        P = sparse_irreducible_chain(rng, 6, density=0.3)
        idx = list(closed)
        P[idx] = 0.0
        P[np.ix_(idx, idx)] = rng.random((len(idx), len(idx))) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        with pytest.raises(SolverFailure) as dense:
            loop_gth(P)
        with pytest.raises(SolverFailure, match="state-reduction stalled") as sparse:
            _stationary_gth(P)
        assert str(sparse.value) == str(dense.value)


def count_solves(monkeypatch):
    """Count the dense and state-reduction stationary solves of both chain kinds."""
    counts = {"solve": 0, "gth": 0}
    for module, name, key in ((solvers, "_stationary_solve", "solve"),
                              (ctmc, "_stationary_solve", "solve"),
                              (solvers, "_stationary_gth", "gth")):
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _key=key):
            counts[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


class TestStationaryCache:
    def test_solved_once_per_chain_and_method(self, monkeypatch):
        counts = count_solves(monkeypatch)
        P = gallery.meyer4().chain
        pi = stationary_distribution(P)
        assert stationary_distribution(P) is pi
        gth = stationary_distribution(P, method="gth")
        assert stationary_distribution(P, method="gth") is gth
        assert gth is not pi
        assert counts == {"solve": 1, "gth": 1}

    def test_generator_solved_once_per_method(self, monkeypatch):
        counts = count_solves(monkeypatch)
        Q = gallery.mm1(truncation=24).chain
        pi = ctmc_stationary(Q)
        assert ctmc_stationary(Q) is pi
        gth = ctmc_stationary(Q, method="gth")
        assert ctmc_stationary(Q, method="gth") is gth
        assert counts == {"solve": 1, "gth": 1}

    def test_every_quantity_of_a_chain_shares_one_solve(self, monkeypatch):
        counts = count_solves(monkeypatch)
        P = gallery.meyer4().chain
        fundamental_matrix(P)
        group_inverse(P)
        deviation_matrix(P)
        seneta_best_bound(P)
        hitting_time_bound(P)
        fit_geometric_drift(P, 1.0 + hitting_times(P, 0), 0)
        bound_catalog(P)
        assert counts == {"solve": 1, "gth": 0}

    def test_a_failed_solve_is_not_cached(self):
        P = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
        for _ in range(2):
            with pytest.raises(ReducibleChain):
                stationary_distribution(P)
        assert P._stationary == {}


def count_fundamental_solves(monkeypatch):
    """Count ``fundamental_matrix`` calls from the solvers (group inverse) and
    from the hitting-time scan."""
    calls = []
    solve = solvers.fundamental_matrix

    def counted(P):
        calls.append(P)
        return solve(P)

    monkeypatch.setattr(solvers, "fundamental_matrix", counted)
    monkeypatch.setattr(dtmc, "fundamental_matrix", counted)
    return calls


class TestFundamentalSummary:
    def test_catalog_solves_the_fundamental_matrix_once(self, monkeypatch):
        calls = count_fundamental_solves(monkeypatch)
        model = gallery_model("geometric-return", 200)
        P = model.chain
        bound_catalog(P, perturbed=canonical_pair(model, seed=0).perturbed)
        assert calls == [P]

    def test_seneta_best_bound_and_the_scan_share_one_solve(self, monkeypatch):
        calls = count_fundamental_solves(monkeypatch)
        P = gallery.meyer4().chain
        seneta_best_bound(P)
        hitting_time_bound(P)
        hitting_time_bound(P)
        assert len(calls) == 1

    def test_the_scan_alone_solves_it_once(self, monkeypatch):
        calls = count_fundamental_solves(monkeypatch)
        P = gallery.funderlic8().chain
        hitting_time_bound(P)
        hitting_time_bound(P)
        assert len(calls) == 1

    def test_the_summary_holds_no_matrix(self):
        P = gallery_model("odd-even-p", 60).chain
        R = fundamental_matrix(P)
        summary = P._fundamental
        assert summary.pi is stationary_distribution(P).values
        np.testing.assert_array_equal(summary.diagonal, R.diagonal())
        np.testing.assert_array_equal(summary.column_minima, R.min(axis=0))
        assert summary.norm == np.abs(R).sum(axis=1).max()
        for value in vars(summary).values():
            assert isinstance(value, float) or value.shape == (P.n,)
