import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcperturb.dtmc
from mcperturb import (
    DivergentHittingTimes,
    Distribution,
    DriftViolated,
    GeometricDriftCertificate,
    HypothesisFailed,
    NoSmallSet,
    SolverFailure,
    StochasticMatrix,
    UnitDriftCertificate,
    WeightFunction,
    ergodicity_coefficient,
    fit_geometric_drift,
    fundamental_matrix,
    group_inverse,
    hitting_time_bound,
    hitting_times,
    matrix_norm,
    seneta_best_bound,
    seneta_bound,
    skeleton_bound,
    small_set_bound,
    stationary_distribution,
    unit_drift_bound,
    unit_drift_from_hitting_times,
    v_bound_drift_only,
    v_bound_with_stationary,
)
from mcperturb import gallery
from mcperturb.gallery import birth_death, geometric_return, odd_even
from mcperturb.settings import DEFAULT
from tests.conftest import (
    count_scanned_rows,
    gallery_model,
    random_irreducible_chain,
    sparse_irreducible_chain,
)


def brute_lambda1(B):
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    best = 0.0
    for i in range(n):
        for j in range(n):
            best = max(best, 0.5 * float(np.abs(B[i] - B[j]).sum()))
    return best


class TestErgodicityCoefficient:
    def test_identical_rows_zero(self):
        B = np.tile([0.2, 0.8], (2, 1))
        assert ergodicity_coefficient(B) == 0.0

    def test_identity_is_one(self):
        assert ergodicity_coefficient(np.eye(2)) == 1.0

    def test_funderlic_group_inverse_value(self, funderlic):
        X = group_inverse(funderlic.chain)
        assert ergodicity_coefficient(X) == pytest.approx(11.3352, abs=1e-3)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
    def test_matches_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n, n))
        assert ergodicity_coefficient(B) == pytest.approx(brute_lambda1(B), rel=1e-13)


class TestSenetaBound:
    def test_identical_rows_ell_one(self):
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert seneta_bound(P).ell == pytest.approx(1.0)

    def test_periodic_swap_fails(self):
        P = StochasticMatrix([[0, 1], [1, 0]])
        with pytest.raises(HypothesisFailed):
            seneta_bound(P)

    def test_funderlic_value(self, funderlic):
        rep = seneta_bound(funderlic.chain)
        assert rep.info["lambda1_P"] == pytest.approx(0.912, abs=1e-12)
        assert rep.ell == pytest.approx(1 / 0.088, abs=1e-9)


class TestSenetaBestBound:
    def test_funderlic(self, funderlic):
        rep = seneta_best_bound(funderlic.chain)
        assert rep.ell == pytest.approx(11.3352, abs=1e-3)

    def test_meyer_exact_rational_value(self, meyer, meyer_group_inverse_exact):
        # independent oracle: brute-force coefficient of the exact integer-
        # scaled group inverse, 1368/1083
        rep = seneta_best_bound(meyer.chain)
        assert rep.ell == pytest.approx(brute_lambda1(meyer_group_inverse_exact), abs=1e-12)
        assert rep.ell == pytest.approx(1368.0 / 1083.0, abs=1e-12)

    def test_identical_rows(self):
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        X = group_inverse(P)
        rep = seneta_best_bound(P)
        assert rep.ell == pytest.approx(brute_lambda1(X), abs=1e-14)
        assert rep.ell == pytest.approx(1.0, abs=1e-14)

    def test_defined_for_periodic_chains(self):
        P = StochasticMatrix([[0, 1], [1, 0]])
        rep = seneta_best_bound(P)
        assert rep.ell >= 0
        assert not rep.hypotheses_hold  # aperiodicity hypothesis recorded as failed


class TestSkeletonBound:
    def test_m1_reduces_to_seneta_with_exact_numerator(self, funderlic):
        P = funderlic.chain
        rng = np.random.default_rng(5)
        delta = np.zeros((8, 8))
        delta[0, 0] = 0.01
        delta[0, 7] = -0.01
        Pt = StochasticMatrix(P.entries + delta)
        rep = skeleton_bound(P, Pt, m=1)
        sen = seneta_bound(P)
        assert rep.direct_value == pytest.approx(
            matrix_norm(delta) * sen.ell, rel=1e-12
        )

    def test_zero_perturbation_gives_zero(self, meyer):
        rep = skeleton_bound(meyer.chain, meyer.chain, m=2)
        assert rep.direct_value == 0.0

    def test_odd_even_two_step_contraction(self):
        model = odd_even(p=0.5, truncation=60)
        P = model.chain
        P2 = P.power(2)
        lam2 = ergodicity_coefficient(P2)
        nu2 = P2.min(axis=0).sum()
        assert lam2 <= 1 - nu2 + 1e-12       # m-step contraction vs common mass
        assert lam2 <= 1 - 0.25 + 1e-12
        rep = skeleton_bound(P, P, m=2)
        assert np.isfinite(rep.info["lambda1_Pm"])


class TestSmallSetBound:
    def test_meyer_two_step(self, meyer):
        rep, cert = small_set_bound(meyer.chain, m_max=2)
        assert cert.m == 2
        assert cert.nu_mass == pytest.approx(10 / 16, abs=1e-15)
        assert rep.ell == pytest.approx(3.2, abs=1e-12)

    def test_meyer_column_minima_by_hand(self, meyer):
        _, cert = small_set_bound(meyer.chain, m_max=2)
        P2 = meyer.chain.power(2)
        expected = [min(P2[i, k] for i in range(4)) for k in range(4)]
        np.testing.assert_allclose(cert.per_state_minima, expected, atol=1e-15)
        np.testing.assert_allclose(expected, np.array([3, 2, 4, 1]) / 16.0, atol=1e-15)

    def test_funderlic_one_step(self, funderlic):
        rep, cert = small_set_bound(funderlic.chain, m_max=1)
        assert cert.m == 1
        assert cert.nu_mass == pytest.approx(0.088, abs=1e-12)
        assert rep.ell == pytest.approx(11.3636, abs=1e-3)

    def test_odd_even_two_step(self):
        model = odd_even(p=0.5, truncation=200)
        rep, cert = small_set_bound(model.chain, m_max=2)
        assert cert.m == 2
        assert rep.ell == pytest.approx(8.0, abs=1e-12)

    def test_periodic_chain_has_no_small_set(self):
        model = birth_death(n=6, a=[0, *[0.5] * 5, 1.0], b=[1.0, *[0.5] * 5, 0],
                            c=[0.0] * 7)
        assert model.chain.period == 2
        with pytest.raises(NoSmallSet):
            small_set_bound(model.chain, m_max=6)

    def test_direct_form_reported_with_perturbed(self, meyer):
        P = meyer.chain
        delta = np.zeros((4, 4))
        delta[3, 0] = 0.01
        delta[3, 1] = -0.01
        Pt = StochasticMatrix(P.entries + delta)
        rep, _ = small_set_bound(P, m_max=2, perturbed=Pt)
        assert rep.direct_value is not None
        # direct m-step form is at least as tight as the linear relaxation
        assert rep.direct_value <= rep.info["linear_form"] + 1e-15

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_contraction_inequality_property(self, seed):
        # m-step coefficient is at most 1 - nu_m for every m up to 5
        rng = np.random.default_rng(seed)
        P = StochasticMatrix(random_irreducible_chain(rng, 6, sparsity=0.5))
        Pm = np.eye(6)
        for m in range(1, 6):
            Pm = Pm @ P.entries
            nu = Pm.min(axis=0).sum()
            assert ergodicity_coefficient(Pm) <= 1 - nu + 1e-12

    def test_contraction_inequality_on_gallery(self, meyer, funderlic):
        from mcperturb.gallery import geometric_return, hessenberg_gi_m_1

        chains = [meyer.chain, funderlic.chain,
                  odd_even(truncation=60).chain,
                  geometric_return(truncation=60).chain,
                  hessenberg_gi_m_1(truncation=60).chain]
        for P in chains:
            Pm = np.eye(P.n)
            for m in range(1, 6):
                Pm = Pm @ P.entries
                nu = Pm.min(axis=0).sum()
                assert ergodicity_coefficient(Pm) <= 1 - nu + 1e-12


class TestUnitDrift:
    def test_certificate_from_hitting_times_validates(self, meyer):
        cert = unit_drift_from_hitting_times(meyer.chain, 0)
        rep = unit_drift_bound(meyer.chain, cert)
        assert rep.ell == pytest.approx(2.0 * cert.sup_value**2, rel=1e-12)

    def test_violating_certificate_rejected(self, meyer):
        cert = UnitDriftCertificate(0, np.array([0.0, 0.1, 0.1, 0.1]))
        with pytest.raises(DriftViolated):
            unit_drift_bound(meyer.chain, cert)

    def test_taboo_value_must_be_zero(self, meyer):
        cert = UnitDriftCertificate(0, np.array([1.0, 5.0, 5.0, 5.0]))
        with pytest.raises(DriftViolated, match="taboo"):
            unit_drift_bound(meyer.chain, cert)

    def test_constant_drop_chain_constant_drift(self):
        # every state returns to 0 with probability at least 0.4, so the
        # constant vector 1/0.4 off the taboo state is a valid drift function
        from mcperturb.gallery import hessenberg_gi_m_1

        model = hessenberg_gi_m_1(truncation=50)
        s = 1.0 / (1.0 - model.extras["arrival_weight_sum"])
        V = np.full(50, s)
        V[0] = 0.0
        rep = unit_drift_bound(model.chain, UnitDriftCertificate(0, V))
        assert rep.ell == pytest.approx(2.0 * s**2, rel=1e-12)
        assert rep.ell == pytest.approx(12.5, rel=1e-12)

    def test_rank_one_chain_scaled_indicator_complement(self):
        # P with identical rows: V = s off the taboo state satisfies the
        # drift inequality exactly when s pi(taboo) >= 1
        pi = np.array([0.2, 0.3, 0.5])
        P = StochasticMatrix(np.tile(pi, (3, 1)))
        s = 1.0 / pi[0]
        V = np.full(3, s)
        V[0] = 0.0
        rep = unit_drift_bound(P, UnitDriftCertificate(0, V))
        assert rep.ell == pytest.approx(2.0 * s**2, rel=1e-12)
        shy = V * 0.98                       # below the critical scale: rejected
        with pytest.raises(DriftViolated):
            unit_drift_bound(P, UnitDriftCertificate(0, shy))


def exhaustive_hitting_scan(P):
    """Reference scan: every candidate in index order, skipping candidates
    whose hitting-time solve fails, ties toward the smallest index."""
    best_sup, best_state = None, None
    for i0 in range(P.n):
        try:
            sup_m = float(hitting_times(P, i0).max())
        except (DivergentHittingTimes, SolverFailure):
            continue
        if best_sup is None or sup_m < best_sup - 1e-15:
            best_sup, best_state = sup_m, i0
    return best_sup, best_state


def _scan_result(P, **kwargs):
    rep = hitting_time_bound(P, **kwargs)
    return rep.info["sup_hitting_time"], rep.info["taboo_state"]


DTMC_SPECS = [s for s in gallery.list_models() if gallery.build_model(s).kind == "dtmc"]


def _cycle(n):
    return StochasticMatrix(np.roll(np.eye(n), 1, axis=1))


def _periodic_chain(rng, sizes):
    """Random chain that moves block k -> block k+1 (mod len(sizes)): period len(sizes)."""
    n = sum(sizes)
    starts = np.cumsum([0, *sizes])
    P = np.zeros((n, n))
    for k in range(len(sizes)):
        nxt = (k + 1) % len(sizes)
        block = rng.random((sizes[k], sizes[nxt])) + 0.05
        P[starts[k]:starts[k + 1], starts[nxt]:starts[nxt + 1]] = block
    return StochasticMatrix(P / P.sum(axis=1, keepdims=True))


def _count_hitting_solves(monkeypatch):
    calls = []
    solve = mcperturb.dtmc.hitting_times

    def counted(P, target, *args, **kwargs):
        calls.append(target)
        return solve(P, target, *args, **kwargs)

    monkeypatch.setattr(mcperturb.dtmc, "hitting_times", counted)
    return calls


class TestHittingTimeBound:
    def test_geometric_return_value(self):
        from mcperturb.gallery import geometric_return

        model = geometric_return(p=0.5, truncation=120)
        rep = hitting_time_bound(model.chain)
        assert rep.info["taboo_state"] == 0
        assert rep.info["sup_hitting_time"] == pytest.approx(2.0, abs=1e-9)
        assert rep.ell == pytest.approx(8.0, abs=1e-6)

    def test_two_state_symmetric(self):
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        rep = hitting_time_bound(P)
        assert rep.ell == pytest.approx(8.0, abs=1e-12)  # sup m = 1/0.5 = 2

    def test_meyer_dominates_optimal_coefficient(self, meyer):
        rep = hitting_time_bound(meyer.chain)
        best = seneta_best_bound(meyer.chain)
        assert rep.ell >= best.ell

    @pytest.mark.parametrize("truncation", [24, 200])
    @pytest.mark.parametrize("spec", DTMC_SPECS)
    def test_pruned_scan_matches_exhaustive_scan_on_gallery(self, spec, truncation):
        P = gallery_model(spec, truncation).chain
        assert _scan_result(P) == exhaustive_hitting_scan(P)

    @pytest.mark.parametrize("seed", range(12))
    def test_pruned_scan_matches_exhaustive_scan_on_random_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        P = StochasticMatrix(random_irreducible_chain(rng, n, sparsity=0.6))
        assert _scan_result(P) == exhaustive_hitting_scan(P)

    @pytest.mark.parametrize("sizes", [(3, 4), (5, 5), (1, 2, 3), (2, 2, 2, 3), (4, 1, 3, 2, 2)])
    def test_pruned_scan_matches_exhaustive_scan_on_periodic_chains(self, sizes):
        P = _periodic_chain(np.random.default_rng(len(sizes)), sizes)
        assert P.period == len(sizes)
        assert _scan_result(P) == exhaustive_hitting_scan(P)

    def test_pruned_scan_matches_exhaustive_scan_on_periodic_gallery_chain(self):
        P = odd_even(truncation=60, periodic=True).chain
        assert not P.aperiodic
        assert _scan_result(P) == exhaustive_hitting_scan(P)

    @pytest.mark.parametrize("n", [2, 5, 7, 16, 31])
    def test_all_tied_cycle_keeps_state_zero(self, n, monkeypatch):
        # every candidate has sup m = n - 1, exactly its return-time floor
        calls = _count_hitting_solves(monkeypatch)
        assert _scan_result(_cycle(n)) == (n - 1.0, 0)
        assert sorted(calls) == list(range(n))

    def test_ties_break_by_index_whatever_the_visit_order(self, monkeypatch):
        # pi increasing in the index visits the cycle's tied candidates in
        # reverse; floors stay within the certification slack, so none is pruned
        n = 7
        w = 1.0 + 1e-12 * np.arange(n)
        pi = Distribution(w / w.sum())
        monkeypatch.setattr(mcperturb.dtmc, "stationary_distribution", lambda P: pi)
        assert _scan_result(_cycle(n)) == (n - 1.0, 0)

    def test_concentrated_mass_needs_at_most_two_solves(self, monkeypatch):
        calls = _count_hitting_solves(monkeypatch)
        rep = hitting_time_bound(geometric_return(truncation=400).chain)
        assert len(calls) <= 2
        assert rep.info["taboo_state"] == 0

    def test_uniform_stationary_mass_needs_at_most_three_solves(self, monkeypatch):
        # every floor ties; the Kemeny-Snell estimates separate the candidates
        chain = _uniform_pi_chain()
        np.testing.assert_allclose(stationary_distribution(chain).values, 1.0 / chain.n)
        calls = _count_hitting_solves(monkeypatch)
        assert _scan_result(chain) == exhaustive_hitting_scan(chain)
        assert len(calls) <= 3

    @pytest.mark.parametrize("seed", [0, 23])
    def test_doubly_stochastic_chain_needs_at_most_three_solves(self, seed, monkeypatch):
        chain = _doubly_stochastic(seed, 400)
        calls = _count_hitting_solves(monkeypatch)
        assert _scan_result(chain) == exhaustive_hitting_scan(chain)
        assert len(calls) <= 3

    def test_ties_break_by_index_when_the_lower_bounds_reverse_the_visit_order(
            self, monkeypatch):
        # lower bounds decreasing in the index, within the certification
        # slack of the tied sups, so every candidate is visited, last first
        n = 7
        lower = (n - 1.0) * (1.0 - 1e-12 * np.arange(1, n + 1))
        monkeypatch.setattr(mcperturb.dtmc, "_taboo_lower_bounds", lambda P, pi: lower)
        calls = _count_hitting_solves(monkeypatch)
        assert _scan_result(_cycle(n)) == (n - 1.0, 0)
        assert calls == list(range(n - 1, -1, -1))


def _uniform_pi_chain():
    """60 states, a cycle plus two random permutations: uniform pi."""
    rng = np.random.default_rng(3)
    n = 60
    P = 0.5 * np.roll(np.eye(n), 1, axis=1)
    for w in (0.3, 0.2):
        P[np.arange(n), rng.permutation(n)] += w
    return StochasticMatrix(P)


def _doubly_stochastic(seed, n):
    """Convex mix of 4 random permutation matrices, built as the benchmark's
    catalog-dtmc workload builds its doubly stochastic chain: uniform pi."""
    rng = np.random.default_rng([seed, 4])
    weights = rng.dirichlet(np.full(4, 4.0))
    P = np.zeros((n, n))
    for w in weights:
        P[np.arange(n), rng.permutation(n)] += w
    chain = StochasticMatrix(P)
    assert chain.irreducible
    return chain


def _assert_lower_bounds_hold(P):
    """lower_j <= the certified sup_j for every j whose dense solve succeeds."""
    lower = mcperturb.dtmc._taboo_lower_bounds(P, stationary_distribution(P))
    assert P._fundamental is not None      # the screen, not the floors alone
    solved = 0
    for j in range(P.n):
        try:
            sup_j = float(hitting_times(P, j).max())
        except (DivergentHittingTimes, SolverFailure):
            continue
        solved += 1
        assert lower[j] <= sup_j, (j, lower[j], sup_j)
    assert solved > 0


def _kemeny_snell_estimates(P):
    """est_j = (G_jj - min_i G_ij) / pi_j from the chain's fundamental matrix."""
    G = fundamental_matrix(P)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (G.diagonal() - G.min(axis=0)) / stationary_distribution(P).values


def _uncertified(P):
    raise SolverFailure("fundamental matrix residual too large")


class TestTabooLowerBounds:
    @pytest.mark.parametrize("truncation", [24, 200])
    @pytest.mark.parametrize("spec", DTMC_SPECS)
    def test_gallery(self, spec, truncation):
        _assert_lower_bounds_hold(gallery_model(spec, truncation).chain)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        _assert_lower_bounds_hold(StochasticMatrix(random_irreducible_chain(rng, n, sparsity=0.6)))

    @pytest.mark.parametrize("sizes", [(3, 4), (5, 5), (1, 2, 3), (2, 2, 2, 3), (4, 1, 3, 2, 2)])
    def test_periodic_chains(self, sizes):
        _assert_lower_bounds_hold(_periodic_chain(np.random.default_rng(len(sizes)), sizes))

    def test_periodic_gallery_chain(self):
        _assert_lower_bounds_hold(odd_even(truncation=60, periodic=True).chain)

    @pytest.mark.parametrize("n", [2, 5, 7, 16, 31])
    def test_cycles(self, n):
        _assert_lower_bounds_hold(_cycle(n))

    def test_uniform_pi_chains(self):
        _assert_lower_bounds_hold(_uniform_pi_chain())
        _assert_lower_bounds_hold(_doubly_stochastic(0, 120))

    @pytest.mark.parametrize("spec", ["geometric-return", "hessenberg-gi-m-1", "odd-even-p"])
    def test_truncated_tails_where_the_estimate_is_useless(self, spec):
        # the raw estimate reads NaN, inf or 1e42 times the sup on these tails;
        # its error bound swamps it there, so the lower bound stays sound
        P = gallery_model(spec, 200).chain
        est = _kemeny_snell_estimates(P)
        sups = np.full(P.n, np.nan)
        for j in range(P.n):
            try:
                sups[j] = hitting_times(P, j).max()
            except (DivergentHittingTimes, SolverFailure):
                pass
        with np.errstate(invalid="ignore"):
            useless = ~np.isfinite(est) | (est > 1e6 * sups)
        assert useless.any()
        _assert_lower_bounds_hold(P)

    def test_without_a_fundamental_matrix_the_scan_uses_the_floors(self, monkeypatch):
        monkeypatch.setattr(mcperturb.dtmc, "fundamental_matrix", _uncertified)
        calls = _count_hitting_solves(monkeypatch)
        chain = _uniform_pi_chain()
        assert _scan_result(chain) == exhaustive_hitting_scan(chain)
        assert sorted(calls) == list(range(chain.n))     # the tied floors prune nothing
        assert chain._fundamental is None

    @pytest.mark.parametrize("spec", ["geometric-return", "odd-even-p", "hessenberg-gi-m-1",
                                      "birth-death"])
    def test_floor_only_scan_gives_the_same_result(self, spec, monkeypatch):
        screened = _scan_result(gallery_model(spec, 200).chain)
        monkeypatch.setattr(mcperturb.dtmc, "fundamental_matrix", _uncertified)
        assert _scan_result(gallery_model(spec, 200).chain) == screened

    def test_uncertified_fundamental_matrix_falls_back_to_the_floors(self):
        eps = 1e-9
        P = StochasticMatrix([[1.0 - eps, eps], [eps, 1.0 - eps]])
        with pytest.raises(SolverFailure, match="fundamental matrix residual"):
            fundamental_matrix(P)
        assert _scan_result(P) == exhaustive_hitting_scan(P)
        assert P._fundamental is None


class TestGeometricDrift:
    def test_flat_weights_rejected_on_rank_one_chain(self):
        P = StochasticMatrix(np.tile([0.5, 0.5], (2, 1)))
        with pytest.raises(DriftViolated):
            fit_geometric_drift(P, WeightFunction([1.0, 1.0]), 0)

    def test_shaped_weights_accepted(self):
        P = StochasticMatrix(np.tile([0.5, 0.5], (2, 1)))
        cert = fit_geometric_drift(P, WeightFunction([1.0, 10.0]), 0)
        assert cert.lam == pytest.approx(5.5 / 10.0)
        assert cert.b == pytest.approx(5.5 - cert.lam)
        cert.validate(P)

    def test_hitting_time_weights_on_random_chain(self):
        rng = np.random.default_rng(11)
        P = StochasticMatrix(random_irreducible_chain(rng, 10, sparsity=0.4))
        V = 1.0 + hitting_times(P, 0)
        cert = fit_geometric_drift(P, WeightFunction(V), 0)
        cert.validate(P)
        assert cert.lam < 1
        # stationary weighted mass is controlled by the drift parameters
        assert cert.pi_value <= cert.b / (1 - cert.lam) + 1e-12


class TestVNormBounds:
    @pytest.fixture()
    def chain_and_cert(self):
        rng = np.random.default_rng(21)
        P = StochasticMatrix(random_irreducible_chain(rng, 8, sparsity=0.3))
        pi = stationary_distribution(P)
        V = 1.0 + hitting_times(P, 0)
        cert = fit_geometric_drift(P, WeightFunction(V), 0)
        return P, pi, cert

    def test_zero_perturbation_zero_bound(self, chain_and_cert):
        P, pi, cert = chain_and_cert
        assert v_bound_with_stationary(P, cert, pi, 0.0).direct_value == 0.0
        assert v_bound_drift_only(cert, 0.0).direct_value == 0.0

    def test_blowup_near_threshold(self, chain_and_cert):
        P, pi, cert = chain_and_cert
        thr = v_bound_with_stationary(P, cert, pi, 0.0).info["threshold"]
        v50 = v_bound_with_stationary(P, cert, pi, 0.50 * thr).direct_value
        v90 = v_bound_with_stationary(P, cert, pi, 0.90 * thr).direct_value
        v99 = v_bound_with_stationary(P, cert, pi, 0.99 * thr).direct_value
        assert v50 < v90 < v99
        assert v99 > 10 * v50

    def test_over_threshold_fails(self, chain_and_cert):
        P, pi, cert = chain_and_cert
        thr = v_bound_with_stationary(P, cert, pi, 0.0).info["threshold"]
        with pytest.raises(HypothesisFailed):
            v_bound_with_stationary(P, cert, pi, 1.01 * thr)

    def test_drift_only_is_looser(self, chain_and_cert):
        P, pi, cert = chain_and_cert
        thr2 = (1 - cert.lam) ** 2 / (cert.b + 1 - cert.lam)
        dv = 0.5 * thr2
        a = v_bound_with_stationary(P, cert, pi, dv).direct_value
        b = v_bound_drift_only(cert, dv).direct_value
        assert b >= a - 1e-12

    def test_drift_only_requires_unit_floor(self):
        cert = GeometricDriftCertificate(
            taboo_state=0, weights=WeightFunction([0.5, 2.0]), lam=0.5, b=1.0
        )
        with pytest.raises(HypothesisFailed, match="V >= 1"):
            v_bound_drift_only(cert, 1e-6)

    def test_zero_taboo_mass_degenerate(self):
        cert = GeometricDriftCertificate(
            taboo_state=0, weights=WeightFunction([1.0, 2.0]), lam=0.5, b=0.0
        )
        rep = v_bound_drift_only(cert, 0.1)
        assert rep.direct_value == 0.0


def _random_chain(seed):
    """Dense (contracting) or sparse (often not contracting) random chain."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    if seed % 2:
        return StochasticMatrix(random_irreducible_chain(rng, n))
    return StochasticMatrix(sparse_irreducible_chain(rng, n, rng.choice([0.05, 0.2, 0.5])))


def _expected_stop(M, label):
    """The detail of the first row whose distances give Lambda1(M) >= 1 - margin,
    found by an explicit loop over rows and pairs; None if no row does."""
    n = M.shape[0]
    for i in range(n - 1):
        half = 0.5 * max(float(np.abs(M[j] - M[i]).sum()) for j in range(i + 1, n))
        if half >= 1.0 - DEFAULT.hypothesis_margin:
            return half, f"{label} >= {half:.12g} (row {i})"
    return None


class TestLambda1ScanStop:
    @pytest.mark.parametrize("seed", range(30))
    def test_seneta_verdict_and_values_match_the_full_scan(self, seed):
        P = _random_chain(seed)
        full = ergodicity_coefficient(P.entries)
        if full < 1.0 - DEFAULT.hypothesis_margin:
            rep = seneta_bound(P, 0.1)
            assert rep.ell == 1.0 / (1.0 - full)
            assert rep.info == {"lambda1_P": full}
            assert rep.hypotheses[0].detail == f"Lambda1(P) = {full:.12g}"
            assert _expected_stop(P.entries, "Lambda1(P)") is None
        else:
            with pytest.raises(HypothesisFailed) as exc:
                seneta_bound(P, 0.1)
            v, detail = _expected_stop(P.entries, "Lambda1(P)")
            assert exc.value.detail == detail
            assert v <= full

    @pytest.mark.parametrize("seed", range(30))
    def test_skeleton_verdict_and_values_match_the_full_scan(self, seed):
        P = _random_chain(seed)
        full = ergodicity_coefficient(P.power(2))
        if full < 1.0 - DEFAULT.hypothesis_margin:
            rep = skeleton_bound(P, P, 2)
            assert rep.info["lambda1_Pm"] == full
            assert rep.direct_value == 0.0
            assert _expected_stop(P.power(2), "m = 2, Lambda1(P^m)") is None
        else:
            with pytest.raises(HypothesisFailed) as exc:
                skeleton_bound(P, P, 2)
            v, detail = _expected_stop(P.power(2), "m = 2, Lambda1(P^m)")
            assert exc.value.detail == detail
            assert v <= full

    def test_random_chains_cover_both_verdicts(self):
        for power in (1, 2):
            verdicts = {ergodicity_coefficient(_random_chain(s).power(power))
                        < 1.0 - DEFAULT.hypothesis_margin for s in range(30)}
            assert verdicts == {True, False}

    def test_seneta_stops_at_the_first_row_on_geometric_return(self, monkeypatch):
        P = geometric_return(truncation=400).chain
        rows = count_scanned_rows(monkeypatch, mcperturb.dtmc)
        with pytest.raises(HypothesisFailed) as exc:
            seneta_bound(P)
        assert len(rows) <= 1
        assert exc.value.detail.endswith("(row 0)")

    def test_stop_inside_a_block_names_the_first_disproving_row(self, monkeypatch):
        # rows are scanned in blocks [0], [1, 2], [3, 6], ...; rows 5 and 11 have
        # disjoint supports, every other row is uniform, so row 5 is the first
        # to disprove Lambda1(P) < 1, inside the third block
        P = np.full((20, 20), 1.0 / 20)
        P[5], P[11] = np.eye(20)[0], np.eye(20)[1]
        rows = count_scanned_rows(monkeypatch, mcperturb.dtmc)
        with pytest.raises(HypothesisFailed) as exc:
            seneta_bound(StochasticMatrix(P))
        assert exc.value.detail == _expected_stop(P, "Lambda1(P)")[1]
        assert exc.value.detail.endswith("(row 5)")
        assert rows == list(range(7))

    def test_group_inverse_coefficient_scans_every_row(self, monkeypatch, meyer):
        rows = count_scanned_rows(monkeypatch, mcperturb.dtmc)
        seneta_best_bound(meyer.chain)
        assert rows == [0, 1, 2]


def _reference_small_set_search(P, m_max):
    """The search loop started from the identity: (table, best) as
    ``small_set_bound`` reports them."""
    Pm = np.eye(P.n)
    best = None
    table = []
    for m in range(1, m_max + 1):
        Pm = Pm @ P.entries
        minima = Pm.min(axis=0)
        nu = float(minima.sum())
        table.append((m, nu))
        if nu > 0.0 and (best is None or m / nu < best[0]):
            best = (m / nu, m, nu, minima.copy())
    return table, best


class TestSmallSetPowerLoop:
    """The power loop starts from P itself; the identity product it replaced
    was exact, so every step, value and certificate is unchanged."""

    @pytest.mark.parametrize("n", [24, 200])
    @pytest.mark.parametrize("spec", ["birth-death", "funderlic8", "geometric-return",
                                      "hessenberg-gi-m-1", "meyer4", "odd-even-p"])
    def test_matches_the_identity_started_loop(self, spec, n):
        from mcperturb.verify import canonical_pair

        model = gallery_model(spec, n)
        P = model.chain
        table, best = _reference_small_set_search(P, 8)
        if best is None:
            with pytest.raises(NoSmallSet):
                small_set_bound(P)
            return
        perturbed = canonical_pair(model, seed=0).perturbed
        rep, cert = small_set_bound(P, perturbed=perturbed)
        assert rep.info["search_table"] == table
        assert (rep.ell, cert.m, cert.nu_mass) == best[:3]
        assert np.array_equal(cert.per_state_minima, best[3])
        assert rep.info["m_step_difference_norm"] == matrix_norm(
            P.power(best[1]) - perturbed.power(best[1]))

    def test_forms_no_identity(self, monkeypatch, funderlic):
        calls = []
        eye = np.eye

        def counting_eye(*args, **kwargs):
            calls.append(args)
            return eye(*args, **kwargs)

        monkeypatch.setattr(np, "eye", counting_eye)
        small_set_bound(funderlic.chain)
        assert calls == []
