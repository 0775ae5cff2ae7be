import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcperturb.chains as chains_mod
import mcperturb.dtmc
from mcperturb import (
    DivergentHittingTimes,
    Distribution,
    DriftViolated,
    GeometricDriftCertificate,
    HypothesisFailed,
    InvalidParameters,
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
from mcperturb.settings import DEFAULT, NumericSettings
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


def exhaustive_hitting_scan(P, solve=hitting_times):
    """Reference scan: every candidate in index order, skipping candidates
    whose hitting-time solve fails, ties toward the smallest index."""
    best_sup, best_state = None, None
    for i0 in range(P.n):
        try:
            sup_m = float(solve(P, i0).max())
        except (DivergentHittingTimes, SolverFailure):
            continue
        if best_sup is None or sup_m < best_sup - 1e-15:
            best_sup, best_state = sup_m, i0
    return best_sup, best_state


def _scan_result(P):
    rep = hitting_time_bound(P)
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

    @pytest.mark.parametrize("spec", DTMC_SPECS)
    def test_candidates_whose_solve_raises_are_skipped(self, spec, monkeypatch):
        """The exhaustive scan's best state and the next two candidates of the
        screened scan fail, one as a singular solve and two as divergent
        times; the scan skips them and still equals the exhaustive one."""
        P = gallery_model(spec, 24).chain
        best = exhaustive_hitting_scan(P)[1]
        lower = mcperturb.dtmc._taboo_lower_bounds(P, stationary_distribution(P))
        order = [int(j) for j in np.argsort(lower, kind="stable") if j != best]
        failing = {best: DivergentHittingTimes, order[0]: SolverFailure,
                   order[1]: DivergentHittingTimes}
        called = []

        def flaky(chain, target):
            called.append(target)
            if target in failing:
                raise failing[target]("forced")
            return hitting_times(chain, target)

        monkeypatch.setattr(mcperturb.dtmc, "hitting_times", flaky)
        got = _scan_result(P)
        assert set(failing) <= set(called)
        assert got == exhaustive_hitting_scan(P, flaky)
        assert got[1] not in failing

    def test_every_candidate_failing_raises(self, monkeypatch):
        def divergent(chain, target):
            raise DivergentHittingTimes("forced")

        monkeypatch.setattr(mcperturb.dtmc, "hitting_times", divergent)
        P = gallery_model("geometric-return", 24).chain
        assert exhaustive_hitting_scan(P, divergent) == (None, None)
        with pytest.raises(DivergentHittingTimes,
                           match="^no taboo state has stable finite hitting times$"):
            hitting_time_bound(P)

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

    @pytest.mark.parametrize("spec", DTMC_SPECS)
    def test_a_summary_with_eta_at_least_one_falls_back_to_the_floors(self, spec,
                                                                      monkeypatch):
        def uncertain(P):
            G = fundamental_matrix(P)
            P._fundamental = dataclasses.replace(P._fundamental, residual=1.0)
            return G

        monkeypatch.setattr(mcperturb.dtmc, "fundamental_matrix", uncertain)
        P = gallery_model(spec, 24).chain
        pi = stationary_distribution(P)
        lower = mcperturb.dtmc._taboo_lower_bounds(P, pi)
        assert mcperturb.dtmc._certified_lower_bounds(P._fundamental) is None
        np.testing.assert_array_equal(lower, 1.0 / pi.values - 1.0)
        assert _scan_result(P) == exhaustive_hitting_scan(P)

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
            rep = seneta_bound(P)
            assert rep.ell == 1.0 / (1.0 - full)
            assert rep.info == {"lambda1_P": full}
            assert rep.hypotheses[0].detail == f"Lambda1(P) = {full:.12g}"
            assert _expected_stop(P.entries, "Lambda1(P)") is None
        else:
            with pytest.raises(HypothesisFailed) as exc:
                seneta_bound(P)
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
    """The search loop started from the identity, by dense products and
    without the early stop: (table, best) as ``small_set_bound`` reports
    them, with P^m* last in best."""
    Pm = np.eye(P.n)
    best = None
    table = []
    for m in range(1, m_max + 1):
        Pm = Pm @ P.entries
        minima = Pm.min(axis=0)
        nu = float(minima.sum())
        table.append((m, nu))
        if nu > 0.0 and (best is None or m / nu < best[0]):
            best = (m / nu, m, nu, minima.copy(), Pm.copy())
    return table, best


def _identity_started_power(P, m):
    Pm = np.eye(P.n)
    for _ in range(m):
        Pm = Pm @ P.entries
    return Pm


_U = 2.0**-53


def _gamma(k):
    return k * _U / (1.0 - k * _U)


def _power_error(n, m):
    """delta_m = (1 + gamma_n)^m - 1 (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3).

    Each entry of a computed product of nonnegative n x n matrices is the
    exact product's times 1 + theta, |theta| <= gamma_n, in any summation
    order, dense or CSR. By induction every computed P^m, by any product
    tree of m - 1 products, lies entrywise within a factor 1 +- delta_(m-1)
    of the exact power of the stored P, and a computed nu_m, whose sum of
    n nonnegative minima adds one more such factor, within 1 +- delta_m.
    """
    return (1.0 + _gamma(n)) ** m - 1.0


def _assert_small_set_close(rep, ref_ell, ref_num, n, m):
    """ell = m / nu_m and ||P^m - Ptilde^m|| of two computations within
    their rounding bounds.

    Both nu_m lie within 1 +- d of the exact one, d = delta_m, so the two
    ell differ by at most ref_ell (2 d / (1 - d)) plus the two divisions'
    rounding, inside 4u. Each computed power differs from the exact one by
    at most delta_(m-1) P^m entrywise, so the two differences of powers
    differ by at most 2 delta_(m-1) (P^m + Ptilde^m), whose rows sum to
    about 4 delta_(m-1); the subtractions add u per entry and the norm's
    sum a factor 1 + gamma_n. 5 d covers the first two with the row sums'
    1e-12 slack, and 2 gamma_n (num + ref_num) the last.
    """
    d = _power_error(n, m)
    assert abs(rep.ell - ref_ell) <= ref_ell * (2.0 * d / (1.0 - d) + 4.0 * _U)
    num = rep.info["m_step_difference_norm"]
    assert abs(num - ref_num) <= 5.0 * d + 2.0 * _gamma(n) * (num + ref_num)


class TestSmallSetPowerLoop:
    """Against the identity-started dense loop, searched to m_max: the
    reported table is its prefix, and the chosen step, mass and column
    minima are its own; ell and the m-step difference norm agree within
    their rounding bounds, since sparse chains' powers come from CSR
    products."""

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
        searched = rep.info["search_table"]
        assert 1 <= len(searched) <= len(table)
        assert searched == table[:len(searched)]
        assert (cert.m, cert.nu_mass) == best[1:3]
        assert np.array_equal(cert.per_state_minima, best[3])
        ref_num = matrix_norm(best[4] - _identity_started_power(perturbed, best[1]))
        _assert_small_set_close(rep, best[0], ref_num, P.n, best[1])

    def test_forms_no_identity(self, monkeypatch, funderlic):
        calls = []
        eye = np.eye

        def counting_eye(*args, **kwargs):
            calls.append(args)
            return eye(*args, **kwargs)

        monkeypatch.setattr(np, "eye", counting_eye)
        small_set_bound(funderlic.chain)
        assert calls == []


def _full_search(P, m_max):
    """small_set_bound's search without its early stop, on the same powers:
    (table, (ell, m, nu, minima)) or (table, None) when every nu_m is 0."""
    best = None
    table = []
    for m in range(1, m_max + 1):
        minima = P.power(m).min(axis=0)
        nu = float(minima.sum())
        table.append((m, nu))
        if nu > 0.0 and (best is None or m / nu < best[0]):
            best = (m / nu, m, nu, minima)
    return table, best


def _doubly_stochastic(seed, n):
    """Convex mix of 4 random permutation matrices, as the catalog benchmark
    builds it: about 1% nonzeros at n = 400 and a uniform pi."""
    rng = np.random.default_rng([seed, 4])
    P = np.zeros((n, n))
    for w in rng.dirichlet(np.full(4, 4.0)):
        P[np.arange(n), rng.permutation(n)] += w
    return StochasticMatrix(P)


def _random_search_chain(seed):
    """Sparse (under 5% nonzeros at the larger sizes) or dense random chain."""
    rng = np.random.default_rng([seed, 19])
    n = int(rng.integers(2, 150))
    if seed % 2:
        return StochasticMatrix(random_irreducible_chain(rng, n, rng.choice([0.0, 0.9])))
    return StochasticMatrix(sparse_irreducible_chain(rng, n, rng.choice([0.0, 0.01, 0.03])))


_DTMC_GALLERY = ["birth-death", "funderlic8", "geometric-return", "hessenberg-gi-m-1",
                 "meyer4", "odd-even-p"]


def _gallery_chain(spec, n):
    if spec == "birth-death":
        return gallery.build_model(f"birth-death({n})").chain
    return gallery_model(spec, n).chain


class TestSmallSetEarlyStop:
    """The search stops once m reaches the best m / nu_m so far, less its
    rounding slack, and reports the full search's step, mass and ell."""

    @staticmethod
    def _assert_same_as_full_search(P, m_max=8):
        table, best = _full_search(P, m_max)
        if best is None:
            with pytest.raises(NoSmallSet):
                small_set_bound(P, m_max=m_max)
            return
        rep, cert = small_set_bound(P, m_max=m_max)
        searched = rep.info["search_table"]
        assert searched == table[:len(searched)]
        assert (rep.ell, cert.m, cert.nu_mass) == best[:3]
        assert np.array_equal(cert.per_state_minima, best[3])
        # every step left out could not have won
        assert all(m >= rep.ell for m, _ in table[len(searched):])

    @pytest.mark.parametrize("n", [24, 200, 400])
    @pytest.mark.parametrize("spec", _DTMC_GALLERY)
    def test_gallery(self, spec, n):
        self._assert_same_as_full_search(_gallery_chain(spec, n))

    @pytest.mark.parametrize("seed", range(6))
    def test_doubly_stochastic(self, seed):
        self._assert_same_as_full_search(_doubly_stochastic(seed, 400))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_chains(self, seed):
        P = _random_search_chain(seed)
        for m_max in (1, 3, 8, 20):
            self._assert_same_as_full_search(P, m_max)

    def test_random_chains_cover_both_product_forms_and_early_stops(self):
        chains = [_random_search_chain(s) for s in range(30)]
        sparse = {chains_mod._sparse_form(P.entries, chains_mod._SPARSE_DENSITY) is not None
                  for P in chains}
        assert sparse == {True, False}
        searched = []
        for P in chains:
            try:
                searched.append(len(small_set_bound(P)[0].info["search_table"]))
            except NoSmallSet:
                searched.append(8)
        assert min(searched) < 8 and max(searched) == 8

    def test_hessenberg_forms_one_product(self):
        rep, cert = small_set_bound(gallery_model("hessenberg-gi-m-1", 400).chain)
        assert cert.m == 1
        assert 2 < rep.ell < 3
        assert [m for m, _ in rep.info["search_table"]] == [1, 2]

    def test_odd_even_ties_keep_the_first_step(self):
        P = gallery_model("odd-even-p", 200).chain
        for m_max in (8, 12):
            rep, cert = small_set_bound(P, m_max=m_max)
            assert rep.info["search_table"][1:4] == [(2, 0.25), (3, 0.375), (4, 0.5)]
            assert (cert.m, rep.ell) == (2, 8.0)
        # m = 8 ties too and cannot be stopped at 8 = ell; m = 9 can
        assert [m for m, _ in rep.info["search_table"]] == list(range(1, 9))

    def test_the_slack_keeps_a_step_whose_mass_exceeds_one(self):
        # rows sum to 1 + eps, inside the validation tolerance; nu_1 = (1 + eps) / 2
        # gives ell_1 = 2 / (1 + eps) < 2, and nu_2 = 1 + 2 eps > 1 makes m = 2 win,
        # so a stop at m >= ell without slack would return m = 1
        eps = 2.0**-40
        assert eps <= DEFAULT.validation
        h = 0.5 * (1.0 + eps)
        P = StochasticMatrix([[h, 0.0, h], [h, 0.0, h], [0.0, h, h]])
        rep, cert = small_set_bound(P, m_max=2)
        assert rep.info["search_table"][0] == (1, h)
        assert 2.0 >= 1.0 / h
        assert cert.m == 2 and cert.nu_mass > 1.0
        assert rep.ell == 2.0 / cert.nu_mass

    def test_a_loose_validation_tolerance_turns_the_stop_off(self):
        P = StochasticMatrix(gallery_model("hessenberg-gi-m-1", 24).chain.entries,
                             settings=NumericSettings(validation=0.1))
        rep, cert = small_set_bound(P)
        assert len(rep.info["search_table"]) == 8
        assert cert.m == 1


class TestInvalidSteps:
    @pytest.mark.parametrize("m_max", [0, -1, 2.5, 2.0, "8", None])
    def test_small_set_rejects_a_step_bound_that_is_not_a_positive_integer(self, m_max, meyer):
        with pytest.raises(InvalidParameters, match="m_max must be a positive integer"):
            small_set_bound(meyer.chain, m_max=m_max)

    @pytest.mark.parametrize("m", [0, -2, 1.5])
    def test_skeleton_rejects_a_step_count_that_is_not_a_positive_integer(self, m, meyer):
        with pytest.raises(InvalidParameters, match="skeleton step count"):
            skeleton_bound(meyer.chain, meyer.chain, m)

    def test_numpy_integers_are_step_counts(self, meyer):
        rep, cert = small_set_bound(meyer.chain, m_max=np.int64(3))
        assert rep.info["search_table"] == small_set_bound(meyer.chain, m_max=3)[0].info[
            "search_table"]
        assert skeleton_bound(meyer.chain, meyer.chain, np.int32(2)).info["m"] == 2


class TestPowerPaths:
    """Powers by CSR products (sparse P) and by dense products agree within
    rounding, and the catalog reads the same on both paths."""

    @pytest.mark.parametrize("n", [24, 200])
    @pytest.mark.parametrize("spec", _DTMC_GALLERY + ["doubly-stochastic"])
    def test_every_catalog_bound_is_the_same_on_both_paths(self, monkeypatch, spec, n):
        from mcperturb import bound_catalog
        from mcperturb.verify import canonical_pair

        if spec == "doubly-stochastic":
            P = _doubly_stochastic(0, n)
            model = gallery.GalleryModel(name=spec, kind="dtmc", chain=P)
        else:
            model = gallery_model(spec, n)
            P = model.chain
        perturbed = canonical_pair(model, seed=0).perturbed
        runs = []
        for density in (0.0, np.inf):          # dense products, then CSR products
            monkeypatch.setattr(chains_mod, "_SPARSE_DENSITY", density)
            runs.append(bound_catalog(P, perturbed=perturbed))
        dense, sparse = runs
        assert [r.bound_name for r in dense] == [r.bound_name for r in sparse]
        for a, b in zip(dense, sparse):
            assert a.hypotheses_hold == b.hypotheses_hold
            assert a.valid == b.valid
            if a.bound_name.startswith("small_set") and a.hypotheses_hold:
                m = a.info["m"]
                assert a.info["search_table"][:1] == b.info["search_table"][:1]
                _assert_small_set_close(b, a.ell, a.info["m_step_difference_norm"], P.n, m)
            elif a.bound_name.startswith("skeleton") and a.hypotheses_hold:
                self._assert_skeleton_close(a, b, P.n)
            else:
                assert (a.ell, a.bound_value, a.info) == (b.ell, b.bound_value, b.info)

    @staticmethod
    def _assert_skeleton_close(a, b, n):
        """Lambda1(P^2) and ||P^2 - Ptilde^2|| / (1 - Lambda1(P^2)) within rounding.

        The two P^2 differ entrywise by at most 2 delta_1 P^2, so every row
        distance moves by at most 4 delta_1 times a row sum and Lambda1 by
        half that, plus each computed distance's own factor 1 + gamma_(n+1):
        3 delta_2 covers both. The quotient then moves by the numerator's
        bound over 1 - Lambda1, plus its value times Lambda1's bound over
        1 - Lambda1, plus the division's rounding.
        """
        tol_lam = 3.0 * _power_error(n, 2)
        lam_a, lam_b = a.info["lambda1_Pm"], b.info["lambda1_Pm"]
        assert abs(lam_a - lam_b) <= tol_lam
        num_a, num_b = a.info["m_step_difference_norm"], b.info["m_step_difference_norm"]
        tol_num = 5.0 * _power_error(n, 2) + 2.0 * _gamma(n) * (num_a + num_b)
        assert abs(num_a - num_b) <= tol_num
        va, vb = a.direct_value, b.direct_value
        assert abs(va - vb) <= ((tol_num + va * tol_lam) / (1.0 - max(lam_a, lam_b) - tol_lam)
                                + 4.0 * _U * (va + vb))

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_power_matches_a_dense_reference(self, seed, m):
        P = _random_search_chain(seed)
        ref = np.linalg.matrix_power(np.array(P.entries), m)
        # both lie within delta_(m-1) P^m of the exact power, and P^m <= ref / (1 - delta)
        d = _power_error(P.n, m - 1)
        assert np.all(np.abs(P.power(m) - ref) <= 2.0 * d / (1.0 - d) * ref)

    def test_a_sparse_chain_never_reaches_matrix_power(self, monkeypatch):
        from mcperturb import bound_catalog
        from mcperturb.verify import canonical_pair

        model = gallery_model("geometric-return", 200)
        P = model.chain
        perturbed = canonical_pair(model, seed=0).perturbed
        forms = []
        sparse_form = chains_mod._sparse_form

        def recording_form(A, density):
            S = sparse_form(A, density)
            forms.append(S is not None)
            return S

        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.matrix_power was called")

        monkeypatch.setattr(np.linalg, "matrix_power", refused)
        monkeypatch.setattr(chains_mod, "_sparse_form", recording_form)
        P.power(5)
        small_set_bound(P, perturbed=perturbed)
        skeleton_bound(P, perturbed, 2)
        bound_catalog(P, perturbed=perturbed)
        assert forms and all(forms)
