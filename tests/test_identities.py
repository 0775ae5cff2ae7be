import numpy as np
import pytest

from mcperturb import (
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
