import math

import numpy as np
import pytest

import mcperturb.chains
import mcperturb.ctmc
import mcperturb.solvers

from mcperturb import (
    HypothesisFailed,
    IntensityMatrix,
    InvalidParameters,
    InvalidStep,
    NotErgodic,
    OutOfRadius,
    PerturbationPair,
    SolverFailure,
    StochasticMatrix,
    ValidationError,
    batch_arrival_drift,
    bound_catalog,
    ctmc_deviation_bound,
    ctmc_deviation_matrix,
    ctmc_ergodicity_coefficient,
    ctmc_hitting_times,
    ctmc_lambda1_bound,
    ctmc_small_set_bound,
    ctmc_stationary,
    ctmc_unit_drift_bound,
    ctmc_v_bound_drift_only,
    ctmc_v_bound_with_stationary,
    deviation_matrix,
    ergodicity_coefficient,
    exact_gap,
    fit_ctmc_geometric_drift,
    matrix_norm,
    mm1_coefficients,
    pair_step,
    stationary_distribution,
    stationary_series_expansion,
    transfer_drift_to_skeleton,
    uniformize,
    v_norm_matrix,
)
from mcperturb.gallery import batch_arrival, mm1
from mcperturb.settings import DEFAULT, NumericSettings
from mcperturb.verify import canonical_pair
from tests.conftest import count_scanned_rows


def two_state_generator(a=1.0, b=1.0):
    return IntensityMatrix([[-a, a], [b, -b]])


class TestUniformize:
    def test_half_step_two_state(self):
        Q = two_state_generator()
        chain = uniformize(Q, h=0.5)
        np.testing.assert_allclose(chain.matrix.entries, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_rows_sum_exactly_one(self):
        model = mm1(truncation=40)
        chain = uniformize(model.chain)
        np.testing.assert_allclose(chain.matrix.entries.sum(axis=1), 1.0, atol=1e-13)
        assert chain.matrix.aperiodic
        assert chain.matrix.irreducible

    def test_default_step(self):
        Q = two_state_generator(2.0, 1.0)
        chain = uniformize(Q)
        assert chain.h == pytest.approx(0.99 / 2.0)

    def test_pair_step_is_the_default_step(self):
        # 0.99 / 3 and 0.99 * (1 / 3) differ in the last bit; both read the latter
        Q = IntensityMatrix([[-3.0, 3.0], [1.0, -1.0]])
        assert uniformize(Q).h == 0.32999999999999996
        assert pair_step(Q, Q) == uniformize(Q).h

    def test_invalid_steps_rejected(self):
        Q = two_state_generator()
        with pytest.raises(InvalidStep):
            uniformize(Q, h=1.0)
        with pytest.raises(InvalidStep):
            uniformize(Q, h=0.0)

    def test_stationary_transfer_two_steps(self):
        model = mm1(truncation=60)
        pi_q = ctmc_stationary(model.chain)
        for h in (0.05, 0.15):
            pi_h = stationary_distribution(uniformize(model.chain, h).matrix)
            np.testing.assert_allclose(pi_h.values, pi_q.values, atol=1e-10)


class TestGeneratorErgodicityCoefficient:
    def test_two_state_value(self):
        assert ctmc_ergodicity_coefficient(two_state_generator(0.7, 1.3)) == pytest.approx(2.0)

    def test_skeleton_consistency_two_state(self):
        Q = two_state_generator()
        lam_q = ctmc_ergodicity_coefficient(Q)
        for h in (0.2, 0.3, 0.45):
            lam_h = ergodicity_coefficient(uniformize(Q, h).matrix.entries)
            assert lam_h == pytest.approx(1 - h * lam_q, abs=1e-12)

    def test_skeleton_consistency_queue(self):
        Q = mm1(truncation=30).chain
        lam_q = ctmc_ergodicity_coefficient(Q)
        for h in (0.02, 0.05, 0.1):
            lam_h = ergodicity_coefficient(uniformize(Q, h).matrix.entries)
            assert lam_h == pytest.approx(1 - h * lam_q, abs=1e-10)

    def test_zero_rows_give_zero_coefficient(self):
        Q = IntensityMatrix([[-1.0, 0.5, 0.5], [0, 0, 0], [0, 0, 0]])
        assert ctmc_ergodicity_coefficient(Q) == 0.0
        with pytest.raises(HypothesisFailed):
            ctmc_lambda1_bound(Q)


class TestDeviationMatrix:
    def test_two_state_closed_form(self):
        a, b = 1.5, 0.5
        Q = two_state_generator(a, b)
        pi = np.array([b, a]) / (a + b)
        Pi = np.tile(pi, (2, 1))
        D = ctmc_deviation_matrix(Q)
        np.testing.assert_allclose(D, (np.eye(2) - Pi) / (a + b), atol=1e-12)

    def test_step_invariance(self):
        # every admissible skeleton is an independent oracle: D = h D_h
        Q = mm1(truncation=40).chain
        D = ctmc_deviation_matrix(Q)
        for h in (0.05, 0.1, 0.19):
            np.testing.assert_allclose(D, h * deviation_matrix(uniformize(Q, h).matrix),
                                       atol=1e-8)

    def test_an_underflowed_skeleton_rate_leaves_d_defined(self):
        # h * 1e-320 underflows in I + h Q and cuts the skeleton's edge back to
        # state 0; -h Q keeps it, and pi = (0, 1) gives D = (I - Pi) / (a + b)
        a, b = 1e10, 1e-320
        Q = IntensityMatrix([[-a, a], [b, -b]])
        assert not uniformize(Q).matrix.irreducible
        Pi = np.tile([0.0, 1.0], (2, 1))
        np.testing.assert_allclose(ctmc_deviation_matrix(Q), (np.eye(2) - Pi) / (a + b),
                                   rtol=1e-15, atol=0.0)

    def test_no_skeleton_chain_is_built(self, monkeypatch):
        model = mm1(truncation=60)
        pair = canonical_pair(model, seed=0)
        cert = batch_arrival_drift(model.extras["a"], model.extras["b"], n_states=model.chain.n)
        built, periods = [], []
        init = StochasticMatrix.__init__

        def counted_init(self, entries, *args, **kwargs):
            built.append(np.shape(entries))
            init(self, entries, *args, **kwargs)

        period = mcperturb.chains._period_by_bfs
        monkeypatch.setattr(StochasticMatrix, "__init__", counted_init)
        monkeypatch.setattr(mcperturb.chains, "_period_by_bfs",
                            lambda *args: periods.append(args) or period(*args))
        ctmc_deviation_matrix(model.chain)
        bound_catalog(model.chain, perturbed=pair.perturbed, weights=cert.weights)
        assert (built, periods) == ([], [])

    def test_the_skeleton_stationarity_gate_still_holds(self, monkeypatch):
        # with rates 0.1 the step is h = 9.9: a pi whose residual max|pi Q| is
        # half the tolerance passes Q's own gate but not h max|pi Q| <= tol,
        # and it is not solved again
        tol = DEFAULT.stationarity
        pi = np.array([0.5 + 2.5 * tol, 0.5 - 2.5 * tol])
        solves = []
        monkeypatch.setattr(mcperturb.solvers, "_stationary_solve",
                            lambda M: solves.append(M) or pi.copy())
        Q = two_state_generator(0.1, 0.1)
        assert uniformize(Q).h == pytest.approx(9.9)
        assert np.abs(ctmc_stationary(Q).values @ Q.entries).max() == pytest.approx(0.5 * tol)
        with pytest.raises(SolverFailure, match="^stationary residual"):
            ctmc_deviation_matrix(Q)
        assert len(solves) == 1

    def test_partial_sum_oracle(self):
        # independent route: h * sum_k (P_h^k - Pi) accumulated explicitly
        Q = two_state_generator(0.8, 1.2)
        h = 0.3
        P_h = uniformize(Q, h).matrix
        pi = stationary_distribution(P_h)
        Pi = np.tile(pi.values, (2, 1))
        acc = np.zeros((2, 2))
        Pk = np.eye(2)
        for _ in range(2000):
            acc += Pk - Pi
            Pk = Pk @ P_h.entries
        np.testing.assert_allclose(h * acc, ctmc_deviation_matrix(Q), atol=1e-10)

    def test_null_vectors(self):
        Q = mm1(truncation=30).chain
        D = ctmc_deviation_matrix(Q)
        pi = ctmc_stationary(Q)
        np.testing.assert_allclose(D.sum(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(pi.values @ D, 0.0, atol=1e-9)


class TestCtmcNormBounds:
    def test_deviation_bound_two_state(self):
        rep = ctmc_deviation_bound(two_state_generator(1.0, 1.0))
        assert rep.ell == pytest.approx(0.5, abs=1e-12)

    def test_deviation_bound_covers_exact_two_state_gap(self):
        Q = two_state_generator(1.0, 1.0)
        Qt = two_state_generator(1.15, 0.95)
        pair = PerturbationPair(Q, Qt)
        gap = exact_gap(pair)
        rep = ctmc_deviation_bound(Q).with_exact_gap(gap, matrix_norm(pair.delta))
        assert rep.bound_value >= gap
        # closed form check of the exact gap itself
        nu = np.array([0.95, 1.15]) / 2.1
        pi = np.array([0.5, 0.5])
        assert gap == pytest.approx(np.abs(nu - pi).sum(), abs=1e-12)

    def test_lambda1_bound_two_state(self):
        a, b = 0.6, 0.9
        rep = ctmc_lambda1_bound(two_state_generator(a, b))
        assert rep.ell == pytest.approx(1 / (a + b), abs=1e-12)

    def test_small_set_bound_two_state(self):
        a, b = 0.6, 0.9
        rep = ctmc_small_set_bound(two_state_generator(a, b))
        np.testing.assert_allclose(rep.info["column_minima"], [b, a])
        assert rep.ell == pytest.approx(1 / (a + b), abs=1e-12)

    def test_small_set_constructed_six_state(self):
        # every state flows to 0 at rate at least c, no other common column
        c = 0.4
        n = 6
        Q = np.zeros((n, n))
        for i in range(1, n):
            Q[i, 0] = c + 0.1 * i
            Q[i, i + 1 if i + 1 < n else 1] = 0.3
            Q[i, i] = -Q[i].sum()
        Q[0, 1] = 1.0
        Q[0, 0] = -1.0
        rep = ctmc_small_set_bound(IntensityMatrix(Q))
        assert rep.ell == pytest.approx(1 / (c + 0.1), abs=1e-12)

    def test_small_set_fails_on_queue(self):
        with pytest.raises(HypothesisFailed):
            ctmc_small_set_bound(mm1(truncation=30).chain)

    def test_unit_drift_two_state(self):
        Q = two_state_generator(1.0, 1.0)
        rep = ctmc_unit_drift_bound(Q, [0.0, 1.0], 0)
        assert rep.ell == pytest.approx(2.0)

    def test_unit_drift_from_hitting_solve(self):
        rng = np.random.default_rng(4)
        n = 10
        M = rng.random((n, n)) * (rng.random((n, n)) > 0.4) + 0.05
        np.fill_diagonal(M, 0.0)
        Q = IntensityMatrix(M - np.diag(M.sum(axis=1)))
        V = ctmc_hitting_times(Q, 0)
        rep = ctmc_unit_drift_bound(Q, V, 0)
        assert rep.ell == pytest.approx(2 * V.max() ** 2, rel=1e-12)

    def test_time_rescaling(self):
        rng = np.random.default_rng(9)
        n = 6
        M = rng.random((n, n)) + 0.05
        np.fill_diagonal(M, 0.0)
        Q1 = IntensityMatrix(M - np.diag(M.sum(axis=1)))
        Q2 = IntensityMatrix(2 * (M - np.diag(M.sum(axis=1))))
        V1 = ctmc_hitting_times(Q1, 0)
        V2 = ctmc_hitting_times(Q2, 0)
        np.testing.assert_allclose(V2, V1 / 2, atol=1e-10)
        e1 = ctmc_unit_drift_bound(Q1, V1, 0).ell
        e2 = ctmc_unit_drift_bound(Q2, V2, 0).ell
        assert e2 == pytest.approx(e1 / 4, rel=1e-10)


class TestBatchArrivalDrift:
    @pytest.mark.parametrize("sigma,mu", [(1.0, 4.0), (0.5, 2.0), (2.0, 3.0)])
    def test_queue_closed_forms(self, sigma, mu):
        a, b = mm1_coefficients(sigma, mu)
        cert = batch_arrival_drift(a, b, n_states=30)
        z0 = np.sqrt(mu / sigma)
        assert cert.weights.values[1] == pytest.approx(z0, abs=1e-9)
        assert cert.lam == pytest.approx((np.sqrt(mu) - np.sqrt(sigma)) ** 2, abs=1e-9)
        assert cert.b == pytest.approx(mu - np.sqrt(mu * sigma), abs=1e-9)

    def test_specific_queue_values(self):
        a, b = mm1_coefficients(1.0, 4.0)
        cert = batch_arrival_drift(a, b, n_states=200)
        assert cert.weights.values[1] == pytest.approx(2.0, abs=1e-9)
        assert cert.lam == pytest.approx(1.0, abs=1e-9)
        assert cert.b == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("coefficients,expected", [
        (lambda: (batch_arrival().extras["a"], batch_arrival().extras["b"]),
         (0.648350561083426, 1.7882464561512563, 1.7366826026195485)),
        (lambda: mm1_coefficients(2.0, 3.0),
         (0.10102051443364374, 0.5505102572168217, 1.224744871391589)),
    ], ids=["batch-arrival", "mm1-2-3"])
    def test_certificate_bits_are_pinned(self, coefficients, expected):
        # (lambda, b, z0) as bisection on the sign of z B'(z) - B(z) gives them
        cert = batch_arrival_drift(*coefficients())
        assert (cert.lam, cert.b, float(cert.weights.values[1])) == expected

    def test_generic_batch_certificate_validates(self):
        a = np.array([-1.2, 1.0, 0.2])
        b = np.array([3.0, -3.5, 0.3, 0.2])
        N = 60
        cert = batch_arrival_drift(a, b, n_states=N)
        model = batch_arrival(a, b, truncation=N)
        cert.validate(model.chain)

    def test_not_ergodic_rejected(self):
        a = np.array([-1.0, 1.0])
        b = np.array([1.0, -3.0, 2.0])  # mean band drift is positive
        with pytest.raises(NotErgodic):
            batch_arrival_drift(a, b, n_states=20)

    def test_pure_death_band_rejected(self):
        a = np.array([-1.0, 1.0])
        b = np.array([2.0, -2.0])
        with pytest.raises(InvalidParameters, match="upward"):
            batch_arrival_drift(a, b, n_states=20)


class TestDriftTransfer:
    def test_skeleton_certificate_validates_entrywise(self):
        model = mm1(truncation=80)
        cert = batch_arrival_drift(*mm1_coefficients(1.0, 4.0), n_states=80)
        cert.validate(model.chain)
        for h in (0.05, 0.1, 0.19):
            d_cert = transfer_drift_to_skeleton(cert, h)
            assert d_cert.lam == pytest.approx(1 - cert.lam * h)
            assert d_cert.b == pytest.approx(cert.b * h)
            d_cert.validate(uniformize(model.chain, h).matrix)

    def test_fit_on_skeleton_recovers_transferred_rate(self):
        from mcperturb import fit_geometric_drift

        model = mm1(truncation=80)
        cert = batch_arrival_drift(*mm1_coefficients(1.0, 4.0), n_states=80)
        h = 0.99 / model.chain.uniformization_constant
        P_h = uniformize(model.chain, h).matrix
        fitted = fit_geometric_drift(P_h, cert.weights, 0)
        assert fitted.lam == pytest.approx(1 - cert.lam * h, abs=1e-12)
        assert fitted.b == pytest.approx(cert.b * h, abs=1e-12)


@pytest.fixture(scope="module")
def queue_setup():
    N = 80
    model = mm1(sigma=1.0, mu=4.0, truncation=N)
    cert = batch_arrival_drift(*mm1_coefficients(1.0, 4.0), n_states=N)
    pi = ctmc_stationary(model.chain, method="gth")
    return model, cert, pi


class TestCtmcVNormBounds:

    def test_zero_perturbation(self, queue_setup):
        model, cert, pi = queue_setup
        assert ctmc_v_bound_with_stationary(model.chain, cert, pi, 0.0).direct_value == 0.0
        assert ctmc_v_bound_drift_only(cert, 0.0).direct_value == 0.0

    def test_drift_only_formula_value(self, queue_setup):
        # lam = 1, b = 2: value must equal 6 d / (1 - 3 d)
        _, cert, _ = queue_setup
        d = 0.05
        rep = ctmc_v_bound_drift_only(cert, d)
        assert rep.direct_value == pytest.approx(6 * d / (1 - 3 * d), rel=1e-9)

    def test_bound_covers_exact_weighted_gap(self, queue_setup):
        model, cert, pi = queue_setup
        Q = model.chain
        N = Q.n
        # perturb the arrival rate upward by eps
        eps = 0.01
        delta = np.zeros((N, N))
        for i in range(N - 1):
            delta[i, i + 1] = eps
            delta[i, i] -= eps
        Qt = IntensityMatrix(Q.entries + delta)
        pair = PerturbationPair(Q, Qt)
        W = cert.weights
        dv = v_norm_matrix(delta, W)
        gap_v = exact_gap(pair, weights=W)
        rep1 = ctmc_v_bound_with_stationary(Q, cert, pi, dv)
        rep2 = ctmc_v_bound_drift_only(cert, dv)
        assert rep1.direct_value >= gap_v
        assert rep2.direct_value >= gap_v
        assert rep2.direct_value >= rep1.direct_value - 1e-12

    def test_threshold_rejection(self, queue_setup):
        _, cert, _ = queue_setup
        with pytest.raises(HypothesisFailed):
            ctmc_v_bound_drift_only(cert, 0.4)  # threshold is 1/3


class TestSeriesExpansion:
    def test_zero_direction_returns_stationary(self):
        Q = two_state_generator(1.0, 2.0)
        pi = ctmc_stationary(Q)
        nu = stationary_series_expansion(Q, np.zeros((2, 2)), eps=0.0)
        np.testing.assert_allclose(nu.values, pi.values, atol=1e-14)

    def test_two_state_matches_closed_form(self):
        a, b = 1.0, 2.0
        Q = two_state_generator(a, b)
        G = np.array([[-1.0, 1.0], [0.5, -0.5]])
        eps = 0.05
        nu = stationary_series_expansion(Q, G, eps=eps, n_terms=30)
        at, bt = a + eps, b + 0.5 * eps
        np.testing.assert_allclose(nu.values, [bt / (at + bt), at / (at + bt)],
                                   atol=1e-10)

    def test_queue_rate_perturbation_matches_exact(self):
        N = 60
        model = mm1(truncation=N)
        Q = model.chain
        G = np.zeros((N, N))
        for i in range(N - 1):
            G[i, i + 1] = 1.0
            G[i, i] = -1.0
        eps = 0.02
        cert = batch_arrival_drift(*mm1_coefficients(1.0, 4.0), n_states=N)
        nu = stationary_series_expansion(Q, G, eps=eps, n_terms=80, cert=cert)
        Qt = IntensityMatrix(Q.entries + eps * G)
        exact = ctmc_stationary(Qt)
        np.testing.assert_allclose(nu.values, exact.values, atol=1e-8)

    def test_out_of_radius_rejected(self):
        N = 40
        Q = mm1(truncation=N).chain
        G = np.zeros((N, N))
        for i in range(N - 1):
            G[i, i + 1] = 1.0
            G[i, i] = -1.0
        cert = batch_arrival_drift(*mm1_coefficients(1.0, 4.0), n_states=N)
        with pytest.raises(OutOfRadius):
            stationary_series_expansion(Q, G, eps=2.0, cert=cert)

    def test_radius_constant_reads_the_gth_pi_at_n_200(self):
        # the service direction G[i, i-1] = 1, G[i, i] = -1 (||G||_V = 1.5)
        # inside the stationary radius lambda / (c ||G||_V) = 0.267, whose
        # c = 1 + ||e||_V ||pi||_V = 2.5 the plain pi's tail errors inflate
        # past 1e42 under the geometric weights at N = 200
        N = 200
        Q = mm1(truncation=N).chain
        G = np.zeros((N, N))
        for i in range(1, N):
            G[i, i - 1] = 1.0
            G[i, i] = -1.0
        cert = batch_arrival_drift(*mm1_coefficients(1.0, 4.0), n_states=N)
        assert v_norm_matrix(G, cert.weights) == pytest.approx(1.5)
        nu = stationary_series_expansion(Q, G, eps=0.24, cert=cert)
        exact = ctmc_stationary(IntensityMatrix(Q.entries + 0.24 * G), method="gth")
        assert np.abs(nu.values - exact.values).sum() < 1e-14

    def test_direction_must_be_conservative(self):
        Q = two_state_generator()
        with pytest.raises(InvalidParameters):
            stationary_series_expansion(Q, np.array([[1.0, 0.0], [0.0, 1.0]]), eps=0.1)

    def test_conservativity_gate_reads_the_chain_settings(self):
        G = np.array([[-1.0, 1.0 + 1e-9], [0.5, -0.5]])    # row sums 1e-9, 0
        loose = IntensityMatrix([[-1.0, 1.0], [2.0, -2.0]],
                                settings=NumericSettings(validation=1e-6))
        nu = stationary_series_expansion(loose, G, eps=0.05, n_terms=30)
        assert nu.values.sum() == pytest.approx(1.0)
        with pytest.raises(InvalidParameters, match="rows must sum to zero"):
            stationary_series_expansion(two_state_generator(1.0, 2.0), G, eps=0.05)


class TestFitGeneratorDrift:
    def test_fit_matches_band_certificate(self):
        N = 50
        model = mm1(truncation=N)
        cert_band = batch_arrival_drift(*mm1_coefficients(1.0, 4.0), n_states=N)
        cert_fit = fit_ctmc_geometric_drift(model.chain, cert_band.weights, 0)
        assert cert_fit.lam == pytest.approx(cert_band.lam, rel=1e-12)
        assert cert_fit.b <= cert_band.b + 1e-12
        cert_fit.validate(model.chain)


def reference_generator_rows(Q):
    """Per row i but the last, half the smallest pair value over j > i of
    2 d_i + 2 d_j - sum_s |Q_is - Q_js|, with d_i = |Q_ii - Q_ji| and
    d_j = |Q_ij - Q_jj|, each correctly rounded by ``math.fsum`` from the
    rounded terms |Q_is - Q_js| the kernel sums; and the absolute error the
    kernel's value of any row may have against it.

    The error bound, to first order in the unit roundoff u, with T the pair's
    l1 distance sum_s |Q_is - Q_js|: the kernel sums the n terms in some
    order, at most (n - 1) u T. d_i and d_j are two of the terms, so
    D = d_i + d_j <= T, and each of the four roundings of
    (d_i + d_j) - ((T - d_i) - d_j) acts on a value at most T in size (the
    last on 2D - T): at most 4 u T. The reference rounds |V| <= T once, at
    most u T / 2. Halving is exact and a minimum moves by at most the largest
    error of its entries, so a row is off by at most (n + 3.5) u max T / 2;
    (n + 4) covers the second-order terms.
    """
    M = Q.entries
    n = Q.n
    rows, max_dist = [], 0.0
    for i in range(n - 1):
        best = math.inf
        for j in range(i + 1, n):
            terms = np.abs(M[i] - M[j])
            max_dist = max(max_dist, math.fsum(terms))
            best = min(best, math.fsum([2.0 * terms[i], 2.0 * terms[j], *(-terms)]))
        rows.append(0.5 * best)
    return rows, 0.5 * (n + 4) * 2.0**-53 * max_dist


def _random_dense_generator(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    R = rng.random((n, n)) * (rng.random((n, n)) < rng.choice([0.2, 0.5, 1.0]))
    R = (R + 0.01) * rng.choice([1e-3, 1.0, 1e3])
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
    return IntensityMatrix(R)


class TestGeneratorErgodicityCoefficientReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_a_correctly_rounded_reference(self, seed):
        Q = _random_dense_generator(seed)
        rows, tol = reference_generator_rows(Q)
        assert abs(ctmc_ergodicity_coefficient(Q) - min(rows)) <= tol
        assert tol < 1e-12 * abs(min(rows))       # far below the value itself

    @pytest.mark.parametrize("build,expected", [(mm1, 0.0), (batch_arrival, -2.0**-51)])
    def test_gallery_generators_keep_their_bits(self, build, expected):
        assert ctmc_ergodicity_coefficient(build(truncation=60).chain) == expected


def _random_generator(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    R = rng.random((n, n)) * (rng.random((n, n)) < rng.choice([0.1, 0.3, 1.0]))
    R = (R + rng.choice([0.0, 0.0, 1.0])) * rng.choice([1e-3, 1.0, 1e3])
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
    return IntensityMatrix(R)


def _expected_stop(Q):
    """(row, reference value of that row, tolerance) for the first row whose
    reference pair values give Lambda1(Q) <= margin; None if no row does."""
    rows, tol = reference_generator_rows(Q)
    for i, v in enumerate(rows):
        if v <= DEFAULT.hypothesis_margin:
            return i, v, tol
    return None


def _stop_row_and_value(detail):
    """Row and value of a ``Lambda1(Q) <= <value> (row <i>)`` detail."""
    value, row = detail.removeprefix("Lambda1(Q) <= ").removesuffix(")").split(" (row ")
    return int(row), float(value)


class TestLambda1ScanStop:
    @pytest.mark.parametrize("seed", range(30))
    def test_verdict_and_values_match_the_full_scan(self, seed):
        Q = _random_generator(seed)
        full = ctmc_ergodicity_coefficient(Q)
        if full > DEFAULT.hypothesis_margin:
            rep = ctmc_lambda1_bound(Q)
            assert rep.ell == 1.0 / full
            assert rep.info == {"lambda1_Q": full}
            assert rep.hypotheses[0].detail == f"Lambda1(Q) = {full:.12g}"
            assert _expected_stop(Q) is None
        else:
            with pytest.raises(HypothesisFailed) as exc:
                ctmc_lambda1_bound(Q)
            row, v, tol = _expected_stop(Q)
            got_row, got = _stop_row_and_value(exc.value.detail)
            assert got_row == row
            # the detail prints 12 significant digits: half a unit of the 12th more
            assert abs(got - v) <= tol + 5e-12 * abs(v)
            assert full <= v + tol

    def test_random_generators_cover_both_verdicts(self):
        verdicts = {ctmc_ergodicity_coefficient(_random_generator(s)) > DEFAULT.hypothesis_margin
                    for s in range(30)}
        assert verdicts == {True, False}

    @pytest.mark.parametrize("build", [mm1, batch_arrival])
    def test_stops_at_the_first_row_at_n800(self, build, monkeypatch):
        Q = build(truncation=800).chain
        rows = count_scanned_rows(monkeypatch, mcperturb.ctmc)
        with pytest.raises(HypothesisFailed) as exc:
            ctmc_lambda1_bound(Q)
        assert len(rows) <= 1
        assert exc.value.detail.endswith("(row 0)")

    @pytest.mark.parametrize("build,detail", [
        (mm1, "Lambda1(Q) <= 0 (row 0)"),
        (batch_arrival, "Lambda1(Q) <= -4.4408920985e-16 (row 0)"),
    ])
    def test_stopped_value_brackets_the_full_value(self, build, detail):
        Q = build(truncation=200).chain
        with pytest.raises(HypothesisFailed) as exc:
            ctmc_lambda1_bound(Q)
        assert exc.value.detail == detail
        assert ctmc_ergodicity_coefficient(Q) <= _stop_row_and_value(detail)[1]


class TestBatchArrivalOverflow:
    def test_message_names_the_largest_admissible_size(self):
        model = batch_arrival()
        a, b = model.extras["a"], model.extras["b"]
        # z0 = 1.73668: z0^1285 is about 1e308, z0^1286 overflows
        n_max = 1286
        with pytest.raises(InvalidParameters, match=f"at most {n_max} states"):
            batch_arrival_drift(a, b, n_states=2000)
        cert = batch_arrival_drift(a, b, n_states=n_max)
        assert np.isfinite(cert.weights.values).all()
        with pytest.raises(InvalidParameters, match=f"at most {n_max} states"):
            batch_arrival_drift(a, b, n_states=n_max + 1)


class TestOneStateGenerator:
    def test_zero_uniformization_constant_is_accepted(self):
        Q = IntensityMatrix([[0.0]])
        assert Q.uniformization_constant == 0.0
        assert not np.signbit(Q.uniformization_constant)

    def test_stationary_distribution(self):
        Q = IntensityMatrix([[0.0]])
        np.testing.assert_array_equal(ctmc_stationary(Q).values, [1.0])
        np.testing.assert_array_equal(ctmc_stationary(Q, method="gth").values, [1.0])

    def test_uniformize_takes_a_finite_step(self):
        Q = IntensityMatrix([[0.0]])
        chain = uniformize(Q)
        assert chain.h == 0.99
        np.testing.assert_array_equal(chain.matrix.entries, [[1.0]])
        assert uniformize(Q, h=5.0).h == 5.0
        assert pair_step(Q, IntensityMatrix([[0.0]])) == 0.99

    def test_bound_catalog_returns_a_table(self):
        Q = IntensityMatrix([[0.0]])
        reports = bound_catalog(Q)
        assert [r.bound_name for r in reports] == [
            "ctmc_deviation", "ctmc_lambda1", "ctmc_small_set", "ctmc_unit_drift"]
        assert all(r.hypotheses_hold for r in reports)
        paired = bound_catalog(Q, perturbed=IntensityMatrix([[0.0]]))
        assert all(r.valid for r in paired)

    def test_two_state_zero_generator_keeps_its_error(self):
        with pytest.raises(ValidationError,
                           match="^uniformization constant must be finite and positive$"):
            IntensityMatrix([[0.0, 0.0], [0.0, 0.0]])
