import numpy as np
import pytest

from scipy.linalg import eigvalsh_tridiagonal

from mcperturb import (
    InvalidParameters,
    PerturbationPair,
    SeriesDivergent,
    StochasticMatrix,
    exact_gap,
    fundamental_matrix,
    residual_deviation_identity,
    residual_perturbation_identity,
    residual_taboo_inverse_identity,
    stationary_distribution,
)
from mcperturb import solvers, verify
from mcperturb.gallery import (
    funderlic8,
    geometric_return,
    hessenberg_gi_m_1,
    list_models,
    odd_even,
)
from mcperturb.verify import canonical_pair, identity_residuals, skeleton_pair
from tests.conftest import gallery_model


class TestExactGap:
    def test_zero_perturbation(self, meyer):
        pair = PerturbationPair(meyer.chain, meyer.chain)
        assert exact_gap(pair) == 0.0

    def test_two_state_closed_form(self):
        a, b = 0.3, 0.1
        at, bt = 0.32, 0.11
        P = StochasticMatrix([[1 - a, a], [b, 1 - b]])
        Pt = StochasticMatrix([[1 - at, at], [bt, 1 - bt]])
        gap = exact_gap(PerturbationPair(P, Pt))
        expected = 2 * abs(b / (a + b) - bt / (at + bt))
        assert gap == pytest.approx(expected, rel=1e-12)

    def test_weighted_gap(self, meyer):
        delta = np.zeros((4, 4))
        delta[3, 0] = 0.01
        delta[3, 2] = -0.01
        Pt = StochasticMatrix(meyer.chain.entries + delta)
        pair = PerturbationPair(meyer.chain, Pt)
        W = np.array([1.0, 2.0, 3.0, 4.0])
        gv = exact_gap(pair, weights=W)
        pi = stationary_distribution(meyer.chain).values
        nu = stationary_distribution(Pt).values
        assert gv == pytest.approx(float(np.abs(nu - pi) @ W), rel=1e-10)


class TestPerturbationIdentity:
    def test_zero_delta(self, meyer):
        pair = PerturbationPair(meyer.chain, meyer.chain)
        assert residual_perturbation_identity(pair) <= 1e-12

    def test_periodic_base_chain(self):
        P = StochasticMatrix([[0, 1], [1, 0]])
        Pt = StochasticMatrix([[0.05, 0.95], [0.9, 0.1]])
        assert residual_perturbation_identity(PerturbationPair(P, Pt)) <= 1e-9

    def test_funderlic_pair(self, funderlic):
        pair = canonical_pair(funderlic8(), magnitude=0.01)
        assert residual_perturbation_identity(pair) <= 1e-9

    def test_gap_reconstruction_matches(self, meyer):
        # the identity reconstructs nu - pi, hence the exact gap
        pair = canonical_pair(
            type(meyer)(name="m", kind="dtmc", chain=meyer.chain), magnitude=0.02
        )
        pi = stationary_distribution(pair.base)
        nu = stationary_distribution(pair.perturbed)
        R = fundamental_matrix(pair.base)
        rebuilt = nu.values @ pair.delta @ R
        direct = nu.values - pi.values
        np.testing.assert_allclose(rebuilt, direct, atol=1e-10)
        assert abs(np.abs(rebuilt).sum() - exact_gap(pair)) <= 1e-10


class TestDeviationIdentity:
    def test_aperiodic_models(self):
        for model in (
            hessenberg_gi_m_1(truncation=60),
            odd_even(truncation=60),
            geometric_return(truncation=60),
        ):
            pair = canonical_pair(model, magnitude=0.01)
            assert residual_deviation_identity(pair) <= 1e-8, model.name


class TestTabooResolventIdentity:
    def test_two_state_closed_form(self):
        # flat chain: the resolvent expression collapses onto I - Pi exactly
        P = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert residual_taboo_inverse_identity(P, 0) <= 1e-14

    def test_meyer_every_taboo_state(self, meyer):
        for i0 in range(4):
            assert residual_taboo_inverse_identity(meyer.chain, i0) <= 1e-8

    def test_divergent_when_taboo_removal_leaves_closed_class(self):
        P = StochasticMatrix([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.1, 0.1, 0.8]])
        # zeroing row 2 keeps the closed class {0, 1} stochastic
        with pytest.raises(SeriesDivergent):
            residual_taboo_inverse_identity(P, 2)

    def test_divergent_when_the_solve_misses_the_closed_class(self):
        # states 1-5 leave only through state 0 and state 0 only through
        # them: T keeps {1, ..., 5} stochastic, yet I - T factors with no
        # zero pivot, so only the bracket's lower end can report it
        rng = np.random.default_rng(5)
        P = rng.random((12, 12))
        P[1:6, 6:] = 0.0
        P[1:6, 0] = 0.0
        P[0, 6:] = 0.0
        P /= P.sum(axis=1, keepdims=True)
        P[6:, 1:6] = 0.0
        P[6:] /= P[6:].sum(axis=1, keepdims=True)
        T = P.copy()
        T[0] = 0.0
        np.linalg.solve(np.eye(12) - T, np.eye(12))       # no LinAlgError
        with pytest.raises(SeriesDivergent, match="spectral radius"):
            residual_taboo_inverse_identity(StochasticMatrix(P), 0)

    def test_a_singular_resolvent_system_is_divergent(self, monkeypatch):
        # the closed-class chain again, with the bracket's lower end withheld:
        # its I - T has an exact zero pivot
        P = StochasticMatrix([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.1, 0.1, 0.8]])
        monkeypatch.setattr(verify, "_perron_bracket", lambda T: (0.0, 1.0))
        with pytest.raises(SeriesDivergent, match="singular"):
            residual_taboo_inverse_identity(P, 2)

    @pytest.mark.parametrize("taboo", [4, 7, -1, 1.5])
    def test_taboo_state_must_be_a_state(self, meyer, taboo):
        with pytest.raises(InvalidParameters, match="taboo state"):
            residual_taboo_inverse_identity(meyer.chain, taboo)


def taboo_matrix(P, taboo_state=0):
    T = P.entries.copy()
    T[taboo_state] = 0.0
    return T


def identity_chain(model):
    """The transition matrix whose taboo resolvent identity_residuals checks."""
    if model.kind == "dtmc":
        return model.chain
    return skeleton_pair(canonical_pair(model, magnitude=0.01, seed=0)).base


def runs_the_cross_check(P, monkeypatch):
    """Whether _taboo_resolvent compares its solve with the series: a solve off
    by 1e-6 relative fails the comparison when it runs."""
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, B: solve(A, B) * (1.0 + 1e-6))
    try:
        verify._taboo_resolvent(P, 0)
    except SeriesDivergent as exc:
        assert "cross-check" in str(exc)
        return True
    finally:
        monkeypatch.setattr(np.linalg, "solve", solve)
    return False


class TestPerronBracket:
    @pytest.mark.parametrize("N", [200, 400, 800])
    def test_mm1_bracket_holds_the_tridiagonal_root(self, N):
        # T without the taboo row and column is tridiagonal with positive off
        # diagonals, so it is similar to a symmetric one
        T = taboo_matrix(identity_chain(gallery_model("mm1", N)))
        R = T[1:, 1:]
        root = eigvalsh_tridiagonal(np.diag(R).copy(),
                                    np.sqrt(np.diag(R, 1) * np.diag(R, -1))).max()
        lo, hi = verify._perron_bracket(T)
        assert lo <= root <= hi
        if N <= 400:
            assert hi < 0.95

    def test_mm1_at_400_runs_the_cross_check(self, monkeypatch):
        # max |eigvals(T)| read 0.952 here, against a Perron root of 0.802
        assert runs_the_cross_check(identity_chain(gallery_model("mm1", 400)), monkeypatch)

    @pytest.mark.parametrize("truncation", [24, 200])
    @pytest.mark.parametrize("name", list_models())
    def test_run_or_skip_as_the_eigenvalue_estimate_decided(self, name, truncation,
                                                            monkeypatch):
        # the estimate used before the bracket: max |eigvals(T)| below 0.95
        P = identity_chain(gallery_model(name, truncation))
        estimate = np.abs(np.linalg.eigvals(taboo_matrix(P))).max()
        assert runs_the_cross_check(P, monkeypatch) == (estimate < 0.95)

    def test_random_matrices(self):
        rng = np.random.default_rng(17)
        for trial in range(40):
            n = int(rng.integers(1, 40))
            T = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 1.0))
            T *= rng.uniform(0.05, 1.5) / max(T.sum(axis=1).max(), 1e-300)
            if trial % 4 == 0:
                T[rng.random((n, n)) < 0.3] *= 1e-200      # entries the squaring zeroes
            rho = np.abs(np.linalg.eigvals(T)).max()
            lo, hi = verify._perron_bracket(T)
            assert lo <= rho * (1 + 1e-9) + 1e-12 and rho * (1 - 1e-9) <= hi, (trial, rho, lo, hi)

    def test_zero_and_nilpotent_matrices(self):
        assert verify._perron_bracket(np.zeros((3, 3)))[1] < 1e-100
        lo, hi = verify._perron_bracket(np.triu(np.ones((5, 5)), 1))
        assert lo == 0.0 and hi < 0.95


class TestModelSuite:
    def test_identity_residuals_dtmc(self):
        res = identity_residuals(odd_even(truncation=80), magnitude=0.01, seed=3)
        assert res["perturbation_identity"] <= 1e-8
        assert res["taboo_inverse_identity"] <= 1e-8
        assert res["deviation_identity"] <= 1e-8

    def test_identity_residuals_ctmc_via_skeleton(self):
        from mcperturb.gallery import mm1

        res = identity_residuals(mm1(truncation=60), magnitude=0.01, seed=3)
        assert res["perturbation_identity"] <= 1e-8
        assert res["taboo_inverse_identity"] <= 1e-8
        assert res["deviation_identity"] <= 1e-8

    def test_skeleton_pair_shares_step(self):
        from mcperturb.gallery import mm1

        pair = canonical_pair(mm1(truncation=40), magnitude=0.01)
        sk = skeleton_pair(pair)
        assert sk.kind == "dtmc"
        assert sk.base.aperiodic and sk.perturbed.aperiodic


def count_calls(monkeypatch, targets):
    """Count calls of each (module, name) pair under the name."""
    counts = {}
    for module, name in targets:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("truncation", [24, 200])
@pytest.mark.parametrize("name", list_models())
def test_identity_residuals_solve_once_and_equal_the_public_residuals(
        name, truncation, monkeypatch):
    model = gallery_model(name, truncation)
    pair = canonical_pair(model, magnitude=0.01, seed=0)
    if model.kind == "ctmc":
        pair = skeleton_pair(pair)
    want = {
        "perturbation_identity": residual_perturbation_identity(pair),
        "taboo_inverse_identity": residual_taboo_inverse_identity(pair.base, 0),
    }
    if pair.base.aperiodic:
        want["deviation_identity"] = residual_deviation_identity(pair)
    # solvers' own reads of the cached pi are not counted: they solve nothing
    counts = count_calls(monkeypatch, [
        (verify, "stationary_distribution"),
        (verify, "fundamental_matrix"), (solvers, "fundamental_matrix"),
    ])
    assert identity_residuals(model, magnitude=0.01, seed=0) == want
    # pi and nu once each, and one fundamental matrix for all three residuals
    assert counts == {"stationary_distribution": 2, "fundamental_matrix": 1}
