import tracemalloc

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
from mcperturb import ctmc, gallery, solvers
from mcperturb.settings import NumericSettings
from mcperturb.solvers import _stationary_gth
from mcperturb.verify import canonical_pair, exact_gap, fuzz_bounds
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

    def test_methods_agree_on_meyer(self, meyer, exact_chains):
        exact = [float(p) for p in exact_chains["meyer4"].pi]
        for method in ("solve", "gth"):
            pi = stationary_distribution(meyer.chain, method=method)
            np.testing.assert_allclose(pi.values, exact, rtol=1e-15)

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


def tight_box_gth(P):
    """State reduction updating only the box between the first and last
    nonzeros of the eliminated column and row, found anew at every step."""
    def span(v):
        nz = np.flatnonzero(v)
        return slice(nz[0], nz[-1] + 1) if nz.size else None

    A = P.copy()
    n = A.shape[0]
    scales = np.empty(n)
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0.0:
            raise SolverFailure(f"state-reduction stalled at state {k} (no exit mass)")
        scales[k] = s
        A[k, :k] /= s
        rows, cols = span(A[:k, k]), span(A[k, :k])
        if rows is not None and cols is not None:
            A[rows, cols] += np.outer(A[rows, k], A[k, cols])
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


# every gallery model at 24 states, and at 200 and 800 where it is truncatable
GTH_CASES = [(spec, n) for spec in gallery.list_models() for n in (24, 200, 800)
             if n == 24 or gallery_model(spec, n).chain.n == n]


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

    @pytest.mark.parametrize("spec,truncation", GTH_CASES,
                             ids=[f"{spec}-{n}" for spec, n in GTH_CASES])
    def test_envelope_box_equals_tight_box_on_gallery(self, spec, truncation):
        """The envelope box holds every step's tight box, also on perturbed
        chains, whose perturbed rows reach outside the base chain's band."""
        model = gallery_model(spec, truncation)
        pair = canonical_pair(model, magnitude=0.01, seed=23)
        for chain in (model.chain, pair.perturbed):
            P = _gth_input(chain)
            assert np.array_equal(_stationary_gth(P), tight_box_gth(P))

    @pytest.mark.parametrize("seed", range(20))
    def test_envelope_box_equals_tight_box_on_sparse_random_chains(self, seed):
        rng = np.random.default_rng([seed, 17])
        n = int(rng.integers(2, 120))
        P = sparse_irreducible_chain(rng, n, density=rng.choice([0.0, 0.02, 0.1]))
        assert np.array_equal(_stationary_gth(P), tight_box_gth(P))

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
    for name, key in (("_stationary_solve", "solve"), ("_stationary_gth", "gth")):
        fn = getattr(solvers, name)

        def counted(*args, _fn=fn, _key=key):
            counts[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(solvers, name, counted)
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
        assert counts == {"solve": 1, "gth": 1}     # pi(V) of the drift fit reads gth

    def test_a_failed_solve_is_not_cached(self):
        P = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
        for _ in range(2):
            with pytest.raises(ReducibleChain):
                stationary_distribution(P)
        assert P._stationary == {}


class TestGapsAreSolvedWhenRead:
    """A perturbed chain's solve in a norm runs only when some report in that
    norm has a value for its exact gap."""

    def test_failed_weighted_reports_solve_no_weighted_gap(self, monkeypatch):
        counts = count_solves(monkeypatch)
        model = gallery.birth_death(20)
        P = model.chain
        reports = bound_catalog(P, perturbed=canonical_pair(model, seed=0).perturbed,
                                weights=1.0 + hitting_times(P, 0))
        weighted = [rep for rep in reports if rep.bound_name.startswith("v_norm_")]
        assert [rep.hypotheses_hold for rep in weighted] == [False, False]
        assert all(rep.exact_gap is None for rep in weighted)
        assert counts == {"solve": 2, "gth": 1}     # the chain's gth fits the drift

    def test_holding_weighted_reports_read_the_weighted_gap(self, monkeypatch):
        counts = count_solves(monkeypatch)
        model = gallery.mm1(truncation=24)
        pair = canonical_pair(model, seed=0)
        weights = gallery._band_weights(model)
        reports = bound_catalog(model.chain, perturbed=pair.perturbed, weights=weights)
        weighted = [rep for rep in reports if rep.bound_name.startswith("ctmc_v_norm_")]
        assert [rep.hypotheses_hold for rep in weighted] == [True, True]
        assert counts == {"solve": 2, "gth": 2}
        for rep in weighted:
            assert rep.exact_gap == exact_gap(pair, weights)

    def test_a_fuzz_run_that_skips_the_weighted_pair_solves_one_gth(self, monkeypatch):
        counts = count_solves(monkeypatch)
        summary = fuzz_bounds(gallery.birth_death(20), n_cases=6, include_v_norm=True)
        assert summary.n_cases == 6
        assert {"v_norm_with_stationary", "v_norm_drift_only"} <= set(summary.skipped_bounds)
        assert counts["gth"] == 1


class TestOneSolveForBothKinds:
    """``stationary_distribution`` certifies the stationary solve of a
    generator too; ``ctmc_stationary`` is that solve under its own name."""

    @pytest.mark.parametrize("seed", [0, 23])
    @pytest.mark.parametrize("n", [24, 200])
    @pytest.mark.parametrize("spec", ["mm1", "batch-arrival"])
    def test_generator_gth_is_the_skeletons_bit_for_bit(self, spec, n, seed):
        # state reduction reads only off-diagonal entries, so eliminating h Q
        # gives the skeleton I + h Q's result without building the skeleton
        model = gallery_model(spec, n)
        for Q in (model.chain, canonical_pair(model, seed=seed).perturbed):
            want = stationary_distribution(uniformize(Q).matrix, method="gth").values
            got = stationary_distribution(Q, method="gth")
            assert np.array_equal(got.values, want)
            assert ctmc_stationary(Q, method="gth") is got

    def test_unknown_method_is_refused_for_both_kinds(self, meyer):
        for chain in (meyer.chain, gallery.mm1(truncation=12).chain):
            with pytest.raises(ValueError, match="^unknown method 'power'$"):
                stationary_distribution(chain, method="power")

    def test_reducible_chains_of_both_kinds_raise_alike(self):
        P = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
        Q = IntensityMatrix([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        for solve, chain in ((stationary_distribution, P), (ctmc_stationary, Q)):
            with pytest.raises(ReducibleChain,
                               match="^stationary distribution requires an irreducible chain$"):
                solve(chain)

    def test_entries_built_on_pi_take_their_irreducibility_check_from_it(self):
        """The group inverse, its bound and a generator's deviation matrix
        check no irreducibility of their own: they reach the stationary
        solve first, and it raises."""
        P = StochasticMatrix([[1.0, 0.0], [0.5, 0.5]])
        Q = IntensityMatrix([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        for entry, chain in ((seneta_best_bound, P), (group_inverse, P),
                             (ctmc.ctmc_deviation_matrix, Q)):
            with pytest.raises(ReducibleChain,
                               match="^stationary distribution requires an irreducible chain$"):
                entry(chain)

    def test_generator_negative_mass_is_a_solver_failure(self, monkeypatch):
        # the residual gate is passed by a loose tolerance; the mass gate is
        # the one both kinds share
        Q = IntensityMatrix([[-1.0, 1.0], [1.0, -1.0]],
                            settings=NumericSettings(stationarity=10.0))
        monkeypatch.setattr(solvers, "_stationary_solve", lambda M: np.array([1.5, -0.5]))
        with pytest.raises(SolverFailure, match="negative mass"):
            ctmc_stationary(Q)

    def test_generator_residual_gate_scales_with_the_rate(self, monkeypatch):
        # pi Q for pi off by 1e-11 grows with the rates: 1e3 rates pass a
        # 1e-10 gate only because it is scaled by the uniformization constant
        pi = np.array([0.5 + 1e-11, 0.5 - 1e-11])
        monkeypatch.setattr(solvers, "_stationary_solve", lambda M: pi.copy())
        stationary_distribution(IntensityMatrix([[-1e3, 1e3], [1e3, -1e3]]))
        with pytest.raises(SolverFailure, match="stationary residual"):
            stationary_distribution(IntensityMatrix([[-1e3, 1e3], [1e3, -1e3]],
                                                    settings=NumericSettings(stationarity=1e-14)))


def count_fundamental_solves(monkeypatch):
    """Count fundamental-matrix solves from the solvers (group inverse) and
    from the hitting-time scan: both reach ``_fundamental_matrix``."""
    calls = []
    solve = solvers._fundamental_matrix

    def counted(P, A):
        calls.append(P)
        return solve(P, A)

    monkeypatch.setattr(solvers, "_fundamental_matrix", counted)
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


# ---------------------------------------------------------------------------
# Certification on the CSR path (sparse A = I - P) and on the dense path


def ref_fundamental_matrix(P):
    """The dense certification of ``fundamental_matrix``, every product with M."""
    pi = stationary_distribution(P)
    n = P.n
    M = np.eye(n) - P.entries + stationary_matrix(pi)
    R = np.linalg.solve(M, np.eye(n))
    res = max(np.abs(R @ M - np.eye(n)).max(), np.abs(M @ R - np.eye(n)).max(),
              np.abs(pi.values @ R - pi.values).max())
    if res > P.settings.inverse:
        raise SolverFailure(f"fundamental matrix residual {res:.3e}")
    return R


def ref_group_inverse(P):
    """The dense certification of ``group_inverse``, every product dense."""
    pi = stationary_distribution(P)
    X = ref_fundamental_matrix(P) - stationary_matrix(pi)
    A = np.eye(P.n) - P.entries
    AX, XA = A @ X, X @ A
    res = max(np.abs(A @ XA - A).max(), np.abs(X @ AX - X).max(), np.abs(AX - XA).max(),
              np.abs(X.sum(axis=1)).max(), np.abs(pi.values @ X).max())
    if res > P.settings.inverse:
        raise SolverFailure(f"group-inverse axiom residual {res:.3e}")
    return X


DENSE, SPARSE = 0.0, np.inf         # values of _SPARSE_DENSITY that force each path
U_ROUND = 2.0 ** -53                # unit round-off


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u), the relative error bound of an
    n-term dot product."""
    return n * U_ROUND / (1.0 - n * U_ROUND)


def _row_sum_norm(A):
    return float(np.abs(A).sum(axis=1).max())


def _inverse_residual(M, R):
    """A bound on ||M R - I||_inf in exact arithmetic, from the computed
    residual plus gamma_{n+1} |M| |R|, the rounding of forming it."""
    n = M.shape[0]
    return (_row_sum_norm(M @ R - np.eye(n))
            + _gamma(n + 1) * _row_sum_norm(np.abs(M) @ np.abs(R)))


_REFERENCES = {}


def _reference(tag, P, R):
    """(R_ref, X_ref, bound) for chain ``tag``: the dense references and a
    bound on ||R - R_ref||_inf. M R = I + E and M R_ref = I + E_ref give
    R - R_ref = M^-1 (E - E_ref), and M^-1 = R_ref (I + E_ref)^-1, so
    ||R - R_ref|| <= ||R_ref|| (e + e_ref) / (1 - e_ref) with e, e_ref the
    exact residual norms; the last factor covers the rounding of the norms."""
    if tag not in _REFERENCES:
        ref = _fresh(P)
        M = np.eye(P.n) - P.entries + stationary_matrix(stationary_distribution(ref))
        R_ref = ref_fundamental_matrix(ref)
        _REFERENCES[tag] = (M, R_ref, ref_group_inverse(ref), _inverse_residual(M, R_ref))
    M, R_ref, X_ref, e_ref = _REFERENCES[tag]
    e = _inverse_residual(M, R)
    bound = _row_sum_norm(R_ref) * (e + e_ref) / (1.0 - e_ref)
    return R_ref, X_ref, bound * (1.0 + _gamma(2 * P.n))


def _cut_chain(side):
    """A random chain just below (sparse) or above (dense) the density cut."""
    density = {"sparse": 0.04, "dense": 0.12}[side]
    rng = np.random.default_rng(11)
    return StochasticMatrix(sparse_irreducible_chain(rng, 200, density))


def _certified_chains():
    """(tag, chain, generator or None): every gallery model at 24 and 200
    states and the generators' skeletons at 800, a periodic chain, a dense
    random chain and one chain on each side of the density cut."""
    out = []
    for spec in gallery.list_models():
        for n in (24, 200, 800):
            model = gallery_model(spec, n)
            fixed_size = model.chain.n != n
            if (fixed_size and n != 24) or (n == 800 and model.kind == "dtmc"):
                continue
            Q = model.chain if model.kind == "ctmc" else None
            P = uniformize(Q).matrix if Q is not None else model.chain
            out.append((f"{spec}[{model.chain.n}]", P, Q))
    out.append(("odd-even-p periodic", gallery.build_model("odd-even-p(0.5, 40, True)").chain,
                None))
    rng = np.random.default_rng(5)
    out.append(("dense random", StochasticMatrix(random_irreducible_chain(rng, 120)), None))
    out += [(f"cut {side}", _cut_chain(side), None) for side in ("sparse", "dense")]
    return out


CERTIFIED_CHAINS = _certified_chains()


def _fresh(chain):
    return type(chain)(chain.entries, settings=chain.settings)


class TestSparseCertification:
    def test_the_cut_chains_sit_on_each_side(self):
        assert not isinstance(solvers._difference(_cut_chain("sparse")), np.ndarray)
        assert isinstance(solvers._difference(_cut_chain("dense")), np.ndarray)
        assert isinstance(solvers._difference(gallery_model("hessenberg-gi-m-1", 200).chain),
                          np.ndarray)

    @pytest.mark.parametrize("density", [DENSE, SPARSE, solvers._SPARSE_DENSITY],
                             ids=["dense", "sparse", "default"])
    @pytest.mark.parametrize("tag,P,Q", CERTIFIED_CHAINS, ids=[c[0] for c in CERTIFIED_CHAINS])
    def test_both_paths_give_the_same_matrices(self, monkeypatch, tag, P, Q, density):
        """How A is stored changes no bit of R or X, and both are the dense
        reference solve's within the bound their residuals certify."""
        monkeypatch.setattr(solvers, "_SPARSE_DENSITY", DENSE)
        dense_R, dense_X = fundamental_matrix(_fresh(P)), group_inverse(_fresh(P))
        monkeypatch.setattr(solvers, "_SPARSE_DENSITY", density)
        R, X = fundamental_matrix(_fresh(P)), group_inverse(_fresh(P))
        assert np.array_equal(R, dense_R)
        assert np.array_equal(X, dense_X)
        if P.aperiodic:
            assert np.array_equal(deviation_matrix(_fresh(P)), X)
        want_R, want_X, bound = _reference(tag, P, R)
        assert _row_sum_norm(R - want_R) <= bound
        # X = fl(R - Pi) and X_ref = fl(R_ref - Pi) add one rounding each
        assert _row_sum_norm(X - want_X) <= bound + U_ROUND * (_row_sum_norm(X)
                                                          + _row_sum_norm(want_X))

    @pytest.mark.parametrize("density", [DENSE, SPARSE], ids=["dense", "sparse"])
    @pytest.mark.parametrize("tag,P,Q", CERTIFIED_CHAINS, ids=[c[0] for c in CERTIFIED_CHAINS])
    def test_the_summary_residual_is_the_dense_one_within_rounding(self, monkeypatch, tag, P,
                                                                   Q, density):
        """hitting_time_bound allows g (4 ||G||_inf + 1) between a computed
        residual and ||M G - I||_inf, so two computed forms differ by at most
        twice that."""
        P = _fresh(P)
        monkeypatch.setattr(solvers, "_SPARSE_DENSITY", density)
        G = fundamental_matrix(P)
        M = np.eye(P.n) - P.entries + stationary_matrix(stationary_distribution(P))
        want = np.abs(M @ G - np.eye(P.n)).sum(axis=1).max()
        g = (P.n + 8) * 2.0 ** -53 / (1.0 - (P.n + 8) * 2.0 ** -53)
        assert abs(P._fundamental.residual - want) <= 2.0 * g * (4.0 * P._fundamental.norm + 1.0)

    @pytest.mark.parametrize("density", [DENSE, SPARSE], ids=["dense", "sparse"])
    def test_the_summary_residual_is_a_row_sum_norm(self, monkeypatch, density):
        """A defect d in row r != k of the reduced solve's Z changes R by
        d (e_r - pi_r 1)(1 - n pi) and so row a of M R - I by
        d (M_ar - pi_r)(1 - n pi_j) in column j, as M 1 = 1: a row sum of
        |d| |M_ar - pi_r| sum_j |1 - n pi_j|."""
        monkeypatch.setattr(solvers, "_SPARSE_DENSITY", density)
        P, r, d = gallery_model("geometric-return", 200).chain, 1, 1e-12
        pi = stationary_distribution(P).values  # solved before the defective solve goes in
        assert np.argmax(pi) != r
        _defective_reduced_solve(monkeypatch, (r, slice(None)), d)
        fundamental_matrix(P)
        M = np.eye(P.n) - P.entries + stationary_matrix(stationary_distribution(P))
        change = d * np.abs(M[:, r] - pi[r]).max() * np.abs(1.0 - P.n * pi).sum()
        assert P._fundamental.residual > 0.9 * change

    @pytest.mark.parametrize("tag,P,Q", [c for c in CERTIFIED_CHAINS if c[2] is not None],
                             ids=[c[0] for c in CERTIFIED_CHAINS if c[2] is not None])
    def test_generator_deviation_matrix_is_the_same(self, monkeypatch, tag, P, Q):
        want = ctmc.ctmc_deviation_matrix(_fresh(Q))
        monkeypatch.setattr(solvers, "_SPARSE_DENSITY", DENSE)
        assert np.array_equal(ctmc.ctmc_deviation_matrix(_fresh(Q)), want)

    @pytest.mark.parametrize("n", [24, 200])
    @pytest.mark.parametrize("spec", gallery.list_models())
    def test_catalog_is_the_same_on_the_dense_path(self, monkeypatch, spec, n):
        model = gallery_model(spec, n)
        pair = canonical_pair(model, magnitude=0.03, seed=0)

        def catalogs():
            return [[r.to_dict() for r in bound_catalog(_fresh(model.chain), perturbed=p)]
                    for p in (None, pair.perturbed)]

        want = catalogs()
        monkeypatch.setattr(solvers, "_SPARSE_DENSITY", DENSE)
        assert catalogs() == want

    @pytest.mark.parametrize("spec", ["mm1", "batch-arrival"])
    def test_catalog_is_the_same_on_800_state_generators(self, monkeypatch, spec):
        model = gallery_model(spec, 800)
        pair = canonical_pair(model, magnitude=0.01, seed=0)
        want = [r.to_dict() for r in bound_catalog(_fresh(model.chain), perturbed=pair.perturbed)]
        monkeypatch.setattr(solvers, "_SPARSE_DENSITY", DENSE)
        got = [r.to_dict() for r in bound_catalog(_fresh(model.chain), perturbed=pair.perturbed)]
        assert got == want


def _skeleton_deviation_matrix(Q):
    """The generator's deviation matrix by the skeleton: h times the deviation
    matrix of P_h = I + h Q at the default step, which takes Q's certified pi
    when that passes P_h's own stationarity gates."""
    chain = uniformize(Q)
    P, pi = chain.matrix, stationary_distribution(Q)
    if (np.abs(pi.values @ P.entries - pi.values).max() <= P.settings.stationarity
            and pi.values.min() >= -P.settings.validation):
        P._stationary["solve"] = pi
    return chain.h * deviation_matrix(P)


def _random_generator(seed):
    """A dense random generator of 3 to 120 states, rates 0.05 to 20 per row."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 121))
    Q = random_irreducible_chain(rng, n) * rng.uniform(0.05, 20.0, size=(n, 1))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return IntensityMatrix(Q)


class TestGeneratorGroupInverse:
    """A generator's deviation matrix is h A# for A = -h Q: the reduced solve
    and certificate of a transition matrix, with Q's own pi and no skeleton."""

    @pytest.mark.parametrize("n", [24, 200, 800])
    @pytest.mark.parametrize("spec", ["mm1", "batch-arrival"])
    def test_the_gallery_generators_keep_the_skeletons_bits(self, spec, n):
        Q = gallery_model(spec, n).chain
        assert np.array_equal(ctmc.ctmc_deviation_matrix(_fresh(Q)),
                              _skeleton_deviation_matrix(_fresh(Q)))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_generators_are_within_the_certified_distance(self, seed):
        """-h Q and I - P_h differ by the rounding of the diagonal, so R is the
        skeleton's dense reference within the distance its residual certifies."""
        Q = _random_generator(seed)
        A = solvers._difference(Q)
        R = solvers._fundamental_matrix(Q, A)
        chain = uniformize(Q)
        want_R, want_X, bound = _reference(f"random generator {seed}", chain.matrix, R)
        assert _row_sum_norm(R - want_R) <= bound
        # D = fl(h fl(R - Pi)) and h X_ref add two roundings each
        h, D = chain.h, ctmc.ctmc_deviation_matrix(Q)
        assert _row_sum_norm(D - h * want_X) <= h * (
            bound + 2.0 * U_ROUND * (_row_sum_norm(D) / h + _row_sum_norm(want_X)))


def _defective_reduced_solve(monkeypatch, cell, defect):
    """Make every reduced solve with a matrix of right-hand sides, the
    fundamental matrix's, add ``defect`` to its solution at ``cell``."""
    solve = solvers._reduced_solve

    def defective(M, k, B, system):
        X = solve(M, k, B, system)
        if X.ndim == 2:
            X[cell] += defect
        return X

    monkeypatch.setattr(solvers, "_reduced_solve", defective)


def _mm1_skeleton():
    return uniformize(gallery_model("mm1", 800).chain).matrix


class TestNoGateGotWeaker:
    DEFECT = 1e-8

    @pytest.mark.parametrize("density", [DENSE, SPARSE], ids=["dense", "sparse"])
    @pytest.mark.parametrize("make,cells", [
        (_mm1_skeleton, [(0, 799), (790, 795), (400, 798)]),
        (lambda: gallery_model("mm1", 800).chain, [(0, 799), (790, 795), (400, 798)]),
        (lambda: gallery_model("odd-even-p", 200).chain, [(0, 0), (150, 3)]),
        (lambda: _cut_chain("dense"), [(7, 120)]),
    ], ids=["mm1-800", "mm1-800-generator", "odd-even-p-200", "dense-random"])
    def test_a_defect_in_R_fails_the_group_inverse(self, monkeypatch, density, make, cells):
        """A generator's R is that of its operator -h Q, under the same gate."""
        monkeypatch.setattr(solvers, "_SPARSE_DENSITY", density)
        chain = make()
        A = solvers._difference(chain)
        R = solvers._fundamental_matrix(chain, A)
        solvers._certified_group_inverse(chain, R.copy())     # R is consumed
        for i, j in cells:
            bad = R.copy()
            bad[i, j] += self.DEFECT
            with pytest.raises(SolverFailure, match="group-inverse axiom residual"):
                solvers._certified_group_inverse(chain, bad)

    @pytest.mark.parametrize("density", [DENSE, SPARSE], ids=["dense", "sparse"])
    def test_a_row_sum_free_defect_in_the_tail_fails_the_products(self, monkeypatch, density):
        """+d and -d in one tail row of X leave X e = 0 and (up to pi's
        tail mass) pi X = 0: only the product axioms can see them."""
        monkeypatch.setattr(solvers, "_SPARSE_DENSITY", density)
        P = _mm1_skeleton()
        R = fundamental_matrix(P)
        bad = R.copy()
        bad[790, 795] += self.DEFECT
        bad[790, 799] -= self.DEFECT
        with pytest.raises(SolverFailure, match="group-inverse axiom residual"):
            solvers._certified_group_inverse(P, bad)

    def test_the_mm1_group_inverse_has_subnormal_entries(self):
        X = group_inverse(_mm1_skeleton())
        assert np.any((X != 0.0) & (np.abs(X) < np.finfo(float).tiny))
        assert np.any((X != 0.0) & (np.abs(X) < solvers._TINY))

    @pytest.mark.parametrize("density", [DENSE, SPARSE], ids=["dense", "sparse"])
    @pytest.mark.parametrize("make,cell", [
        (_mm1_skeleton, (1, 799)),
        (_mm1_skeleton, (790, 795)),
        (lambda: gallery_model("geometric-return", 200).chain, (1, 1)),
        (lambda: gallery_model("geometric-return", 200).chain, (199, 150)),
    ], ids=["mm1-800-head", "mm1-800-tail", "geometric-return-200-head",
            "geometric-return-200-tail"])
    def test_a_defect_in_the_solve_fails_the_fundamental(self, monkeypatch, density, make,
                                                         cell):
        """The cells avoid row and column k = argmax pi = 0, which the
        reduced solve leaves out."""
        monkeypatch.setattr(solvers, "_SPARSE_DENSITY", density)
        P = make()
        assert np.argmax(stationary_distribution(P).values) not in cell
        _defective_reduced_solve(monkeypatch, cell, self.DEFECT)
        with pytest.raises(SolverFailure, match="fundamental matrix residual"):
            fundamental_matrix(P)


class TestCertificateMemory:
    """The group inverse is formed in place of R, and each residual of its
    certificate is freed before the next is formed."""

    def test_the_certificate_consumes_R(self):
        P = gallery_model("odd-even-p", 60).chain
        A = solvers._difference(P)
        R = solvers._fundamental_matrix(P, A)
        want = R - stationary_matrix(stationary_distribution(P))
        X = solvers._certified_group_inverse(P, R)
        assert X is R
        assert np.array_equal(X, want)

    def test_a_failed_certificate_leaves_no_matrix_on_its_traceback(self):
        """A caller that keeps the error (and so its frames) keeps no n x n
        buffer of the certificate alive with it."""
        P = gallery_model("odd-even-p", 60).chain
        bad = fundamental_matrix(P)
        bad[30, 40] += 1e-6
        with pytest.raises(SolverFailure, match="group-inverse axiom residual") as info:
            solvers._certified_group_inverse(P, bad)
        del bad
        tb, held = info.value.__traceback__, []
        while tb is not None:
            if tb.tb_frame.f_code.co_filename == solvers.__file__:
                held += [name for name, value in tb.tb_frame.f_locals.items()
                         if isinstance(value, np.ndarray) and value.ndim == 2]
            tb = tb.tb_next
        assert held == []

    @pytest.mark.parametrize("spec,fn", [
        ("mm1", ctmc.ctmc_deviation_matrix),
        ("hessenberg-gi-m-1", group_inverse),
    ], ids=["mm1-deviation", "hessenberg-gi-m-1-group-inverse"])
    def test_traced_peak_is_five_matrices(self, spec, fn):
        """numpy reports its buffers to tracemalloc; the window opens after pi
        is solved and after a small call has loaded every code path."""
        n = 400
        fn(gallery_model(spec, 24).chain)
        chain = gallery_model(spec, n).chain
        stationary_distribution(chain)
        tracemalloc.start()
        try:
            fn(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (5 * n * n + 16 * n)


# ---------------------------------------------------------------------------
# The reduced solve behind the fundamental matrix and hitting times


def _count_routes(monkeypatch):
    """Count the banded and the dense solves."""
    calls = {"banded": 0, "dense": 0}
    for owner, name, route in ((solvers, "solve_banded", "banded"),
                               (np.linalg, "solve", "dense")):
        def counted(*args, _solve=getattr(owner, name), _route=route, **kwargs):
            calls[_route] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestReducedSolve:
    @pytest.mark.parametrize("make,route", [
        (_mm1_skeleton, "banded"),
        (lambda: gallery_model("hessenberg-gi-m-1", 200).chain, "dense"),
    ], ids=["mm1-800-banded", "hessenberg-gi-m-1-200-dense"])
    def test_each_side_of_the_band_cut(self, monkeypatch, make, route):
        """mm1's skeleton without state 0 has band (1, 1): 3 <= 799 / 8;
        hessenberg-gi-m-1's has band (198, 1): 200 > 199 / 8."""
        P = make()
        pi = stationary_distribution(P).values
        k = int(np.argmax(pi))
        calls = _count_routes(monkeypatch)
        R = fundamental_matrix(P)
        assert calls == {"banded": int(route == "banded"), "dense": int(route == "dense")}
        # the solve itself: zero row and column k, and a round-off residual
        A = np.eye(P.n) - P.entries
        Z = solvers._reduced_solve(A.copy(), k, np.eye(P.n), "fundamental")
        assert not Z[k].any() and not Z[:, k].any()
        U, Y = (np.delete(np.delete(A, k, 0), k, 1), np.delete(np.delete(Z, k, 0), k, 1))
        n = P.n
        assert _row_sum_norm(U @ Y - np.eye(n - 1)) <= 4 * n * U_ROUND * _row_sum_norm(
            np.abs(U) @ np.abs(Y))
        # and R is the reference's within its certified distance
        want_R, _, bound = _reference(f"reduced solve, {route}", P, R)
        assert _row_sum_norm(R - want_R) <= bound

    def test_the_left_out_state_is_the_most_probable(self, monkeypatch):
        """birth-death(20)'s pi peaks at its last state, not at state 0."""
        P = gallery.build_model("birth-death(20)").chain
        assert np.argmax(stationary_distribution(P).values) == P.n - 1
        left_out = []
        solve = solvers._reduced_solve

        def recorded(M, k, B, system):
            left_out.append(k)
            return solve(M, k, B, system)

        monkeypatch.setattr(solvers, "_reduced_solve", recorded)
        R = fundamental_matrix(P)
        assert left_out == [P.n - 1]
        want_R, _, bound = _reference("birth-death peak", P, R)
        assert _row_sum_norm(R - want_R) <= bound

    def test_the_one_state_chain(self):
        assert fundamental_matrix(StochasticMatrix([[1.0]])).tolist() == [[1.0]]
        assert group_inverse(StochasticMatrix([[1.0]])).tolist() == [[0.0]]
        assert ctmc.ctmc_deviation_matrix(IntensityMatrix([[0.0]])).tolist() == [[0.0]]
        assert hitting_times(StochasticMatrix([[1.0]]), 0).tolist() == [0.0]
        assert ctmc.ctmc_hitting_times(IntensityMatrix([[0.0]]), 0).tolist() == [0.0]

    @pytest.mark.parametrize("n,route", [(5, "dense"), (400, "banded")])
    @pytest.mark.parametrize("system", ["fundamental", "hitting-time"])
    def test_a_singular_reduced_system_raises(self, monkeypatch, n, route, system):
        """A zero row off the left-out state makes the reduced system singular."""
        M = np.eye(n) - 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
        M[2] = 0.0
        calls = _count_routes(monkeypatch)
        B = np.eye(n) if system == "fundamental" else np.ones(n)
        with pytest.raises(SolverFailure, match=f"^{system} system is singular"):
            solvers._reduced_solve(M, 0, B, system)
        assert calls[route] == 1
