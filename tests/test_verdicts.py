"""One verdict rule: ``BoundReport.with_exact_gap`` judges the catalog's
reports and every fuzz case alike. ``valid`` is set on every report with a
value, ``useless`` flags total-variation values of at least 2 only, and every
weighted report with a value gets the weighted gap."""

import numpy as np
import pytest

from mcperturb import (
    BoundReport,
    Hypothesis,
    WeightFunction,
    bound_catalog,
    ctmc_v_bound_drift_only,
    ctmc_v_bound_with_stationary,
    fit_ctmc_geometric_drift,
    fit_geometric_drift,
    hitting_times,
    stationary_distribution,
    v_bound_drift_only,
    v_bound_with_stationary,
)
from mcperturb.gallery import _band_weights, build_model, geometric_return, list_models
from mcperturb.verify import _draw, canonical_pair, fuzz_bounds
from tests.conftest import gallery_model


class TestWithExactGap:
    def test_fills_the_linear_value_from_a_perturbation_norm(self):
        rep = BoundReport("b", ell=4.0, info={"norm": "tv"})
        judged = rep.with_exact_gap(0.03, 0.01)
        assert (judged.delta_norm, judged.bound_value, judged.exact_gap) == (0.01, 0.04, 0.03)
        assert judged.valid is True
        assert rep.delta_norm is None and rep.exact_gap is None and rep.valid is None
        assert rep.with_exact_gap(0.05, 0.01).valid is False

    def test_a_report_without_a_value_gets_no_verdict(self):
        judged = BoundReport("b", ell=4.0).with_exact_gap(0.03)
        assert judged.exact_gap == 0.03 and judged.valid is None

    def test_a_failed_hypothesis_does_not_withhold_the_verdict(self):
        rep = BoundReport("b", hypotheses=[Hypothesis("aperiodic", False)], ell=1.0)
        assert rep.with_exact_gap(0.5, 1.0).valid is True

    @pytest.mark.parametrize("norm,useless", [("tv", True), ("v", False), (None, True)])
    def test_only_total_variation_values_are_useless(self, norm, useless):
        info = {} if norm is None else {"norm": norm}
        assert BoundReport("b", direct_value=2.0, info=info).useless is useless
        assert BoundReport("b", direct_value=1.5, info=info).useless is False
        assert BoundReport("b", info=info).useless is None


def test_periodic_seneta_best_gets_a_verdict():
    model = build_model("odd-even-p(0.5, 40, True)")
    assert not model.chain.aperiodic
    perturbed = canonical_pair(model, seed=0).perturbed
    rep = next(r for r in bound_catalog(model.chain, perturbed=perturbed)
               if r.bound_name == "seneta_best")
    assert not rep.hypotheses_hold            # the aperiodic entry is for information only
    assert rep.valid is True


def _weighted_geometric_return():
    model = geometric_return(truncation=10)
    P = model.chain
    perturbed = canonical_pair(model, magnitude=0.03, seed=0).perturbed
    return P, perturbed, 1.0 + hitting_times(P, 0)


def test_a_weighted_value_above_two_is_not_useless():
    P, perturbed, W = _weighted_geometric_return()
    reports = {r.bound_name: r for r in bound_catalog(P, perturbed=perturbed,
                                                      weights=WeightFunction(W))}
    rep = reports["v_norm_drift_only"]
    assert rep.bound_value == pytest.approx(6.4615, rel=1e-4)
    assert rep.useless is False and rep.valid is True


def test_plain_array_weights_get_the_weighted_gap():
    P, perturbed, W = _weighted_geometric_return()
    as_array = bound_catalog(P, perturbed=perturbed, weights=W)
    as_function = bound_catalog(P, perturbed=perturbed, weights=WeightFunction(W))
    assert [r.to_dict() for r in as_array] == [r.to_dict() for r in as_function]
    weighted = [r for r in as_array if r.info["norm"] == "v"]
    assert len(weighted) == 2
    assert all(r.exact_gap > 0 and r.valid is True for r in weighted)


def _drift_weights(model):
    """The weights the fuzz fits its certificate on: 1 + hitting times onto
    state 0 for a transition matrix, a band generator's batch-arrival weights."""
    if model.kind == "dtmc":
        return WeightFunction(1.0 + hitting_times(model.chain, 0))
    return _band_weights(model)


JUDGED_MODELS = [(spec, lambda spec=spec: gallery_model(spec, 24), 0.01) for spec in list_models()]
JUDGED_MODELS += [
    ("odd-even-p-periodic", lambda: build_model("odd-even-p(0.5, 40, True)"), 0.01),
    ("geometric-return-10", lambda: geometric_return(truncation=10), 0.03),
]


@pytest.mark.parametrize("model,magnitude", [m[1:] for m in JUDGED_MODELS],
                         ids=[m[0] for m in JUDGED_MODELS])
def test_the_catalog_and_the_fuzz_judge_alike(monkeypatch, model, magnitude):
    # the catalog, given a fuzz case's perturbed chain, reaches the case's
    # verdicts on every bound both check; the fuzz alone checks a generator's
    # certificate transferred to the skeleton chain
    monkeypatch.setattr("mcperturb.catalog.SKELETON_MAX_N", 0)
    model = model()
    P = model.chain
    W = _drift_weights(model)
    summary = fuzz_bounds(model, n_cases=4, magnitude=magnitude, seed=0,
                          include_v_norm=True)
    assert summary.n_cases > 0
    for case in summary.cases:
        perturbed = _draw(np.random.default_rng(case.seed), P, magnitude)[0]
        catalog = {r.bound_name: r for r in bound_catalog(P, perturbed=perturbed, weights=W)}
        assert {o.bound_name for o in case.outcomes} - catalog.keys() <= {
            "v_norm_skeleton_transfer"}
        for o in case.outcomes:
            rep = catalog.get(o.bound_name)
            if rep is None:
                continue
            assert (rep.valid, rep.useless) == (o.valid, o.useless), o.bound_name
            assert rep.exact_gap == pytest.approx(o.exact_gap, rel=1e-9, abs=1e-15)


def _weighted_direct_calls(spec):
    """Each of the chain kind's two weighted bounds as a function of d =
    ||Delta||_V, called directly, with its threshold on d."""
    model = gallery_model(spec, 24)
    chain = model.chain
    if model.kind == "dtmc":
        cert = fit_geometric_drift(chain, 1.0 + hitting_times(chain, 0), 0)
        with_pi, drift_only = v_bound_with_stationary, v_bound_drift_only
    else:
        cert = fit_ctmc_geometric_drift(chain, _band_weights(model), 0)
        with_pi, drift_only = ctmc_v_bound_with_stationary, ctmc_v_bound_drift_only
    pi = stationary_distribution(chain, "gth")
    return [lambda d: with_pi(chain, cert, pi, d), lambda d: drift_only(cert, d)]


@pytest.mark.parametrize("spec", ["geometric-return", "mm1"])
def test_a_weighted_bound_called_directly_is_judged_in_its_own_norm(spec):
    # near its threshold a weighted value is far above 2, and still not useless
    for bound in _weighted_direct_calls(spec):
        rep = bound(0.999 * bound(0.0).info["threshold"])
        assert rep.info["norm"] == "v"
        assert rep.bound_value >= 2.0
        assert rep.useless is False
