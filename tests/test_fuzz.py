from dataclasses import replace

import numpy as np
import pytest

from mcperturb import (
    IntensityMatrix,
    InvalidParameters,
    McPerturbError,
    StochasticMatrix,
    bound_catalog,
    chains,
    matrix_norm,
    verify,
)
from mcperturb.gallery import (
    GalleryModel,
    birth_death,
    build_model,
    list_models,
    meyer4,
    mm1,
    odd_even,
)
from mcperturb.verify import (
    canonical_pair,
    fuzz_bounds,
    identity_residuals,
    sample_ctmc_delta,
    sample_dtmc_delta,
)
from tests.conftest import gallery_model, shrink_coefficient


class TestDeltaSampling:
    def test_dtmc_delta_properties(self, meyer):
        rng = np.random.default_rng(0)
        for _ in range(50):
            delta = sample_dtmc_delta(rng, meyer.chain, 0.01)
            if delta is None:
                continue
            np.testing.assert_allclose(delta.sum(axis=1), 0.0, atol=1e-16)
            assert matrix_norm(delta) == pytest.approx(0.01, rel=1e-12)

    def test_ctmc_delta_properties(self):
        Q = mm1(truncation=30).chain
        rng = np.random.default_rng(0)
        for _ in range(50):
            delta = sample_ctmc_delta(rng, Q, 0.01)
            if delta is None:
                continue
            np.testing.assert_allclose(delta.sum(axis=1), 0.0, atol=1e-14)
            assert matrix_norm(delta) == pytest.approx(0.01, rel=1e-12)
            perturbed_off = Q.entries + delta
            mask = ~np.eye(Q.n, dtype=bool)
            assert np.all(perturbed_off[mask] >= -1e-15)

    def test_perturbed_chain_valid(self, funderlic):
        rng = np.random.default_rng(1)
        delta = None
        while delta is None:
            delta = sample_dtmc_delta(rng, funderlic.chain, 0.01)
        StochasticMatrix(funderlic.chain.entries + delta)  # validates


class TestFuzzHarness:
    def test_meyer_no_violations(self):
        summary = fuzz_bounds(meyer4(), n_cases=100, magnitude=0.01, seed=7)
        assert summary.n_cases == 100
        assert summary.n_violations == 0
        t = summary.tightness()
        assert set(t) >= {"seneta", "seneta_best", "small_set[m=2]"}
        # the optimal coefficient is the tightest norm-wise bound
        assert t["seneta_best"]["min"] <= t["small_set[m=2]"]["min"] + 1e-9
        assert all(stats["min"] >= 1.0 for stats in t.values())

    def test_determinism(self):
        s1 = fuzz_bounds(meyer4(), n_cases=20, magnitude=0.01, seed=11)
        s2 = fuzz_bounds(meyer4(), n_cases=20, magnitude=0.01, seed=11)
        assert [c.gap for c in s1.cases] == [c.gap for c in s2.cases]
        assert [c.delta_norm for c in s1.cases] == [c.delta_norm for c in s2.cases]

    def test_zero_magnitude_passes_vacuously(self):
        summary = fuzz_bounds(meyer4(), n_cases=15, magnitude=0.0, seed=1)
        assert summary.n_cases == 15
        assert summary.n_violations == 0
        assert all(c.gap == 0.0 and c.delta_norm == 0.0 for c in summary.cases)

    @pytest.mark.parametrize("magnitude", [-0.01, float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("model", [meyer4, lambda: mm1(truncation=24)], ids=["dtmc", "ctmc"])
    def test_negative_or_non_finite_magnitude_is_rejected(self, model, magnitude):
        with pytest.raises(InvalidParameters, match="magnitude"):
            fuzz_bounds(model(), n_cases=3, magnitude=magnitude)
        with pytest.raises(InvalidParameters, match="magnitude"):
            canonical_pair(model(), magnitude=magnitude)

    @pytest.mark.parametrize("magnitude", [-0.01, float("nan"), float("inf")])
    def test_samplers_reject_a_negative_or_non_finite_magnitude(self, magnitude):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameters, match="magnitude"):
            sample_dtmc_delta(rng, meyer4().chain, magnitude)
        with pytest.raises(InvalidParameters, match="magnitude"):
            sample_ctmc_delta(rng, mm1(truncation=24).chain, magnitude)

    @pytest.mark.parametrize("kwargs", [{"n_cases": -3}, {"n_cases": 2.5}, {"n_cases": "3"},
                                        {"seed": -1}, {"seed": 0.5}, {"seed": None},
                                        {"seed": True}])
    def test_case_count_and_seed_must_be_nonnegative_integers(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(InvalidParameters, match=name):
            fuzz_bounds(meyer4(), **kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_a_canonical_pair_takes_the_seeds_the_fuzz_takes(self, seed):
        with pytest.raises(InvalidParameters, match="seed must be a nonnegative integer"):
            canonical_pair(meyer4(), seed=seed)
        with pytest.raises(InvalidParameters, match="seed must be a nonnegative integer"):
            identity_residuals(meyer4(), seed=seed)

    def test_vacuous_bounds_flagged_useless(self):
        # the scan-based drift coefficient on this chain is enormous, so its
        # value exceeds the trivial cap of 2 and gets the useless flag
        a = np.r_[0.0, np.full(19, 0.3), 0.6]
        b = np.r_[0.6, np.full(19, 0.3), 0.0]
        model = birth_death(n=20, a=a, b=b, c=1 - a - b)
        summary = fuzz_bounds(model, n_cases=10, magnitude=0.01, seed=4)
        assert summary.n_violations == 0
        flags = [o.useless for c in summary.cases for o in c.outcomes
                 if o.bound_name == "hitting_time_drift"]
        assert flags and all(flags)

    def test_dtmc_v_norm_outcomes(self):
        summary = fuzz_bounds(meyer4(), n_cases=60, magnitude=0.01, seed=3,
                              include_v_norm=True)
        assert summary.n_violations == 0
        names = {o.bound_name for c in summary.cases for o in c.outcomes}
        assert "v_norm_with_stationary" in names
        assert "v_norm_drift_only" in names

    def test_ctmc_fuzz_with_v_norm(self):
        summary = fuzz_bounds(mm1(truncation=60), n_cases=40, magnitude=0.01,
                              seed=5, include_v_norm=True)
        assert summary.n_violations == 0
        names = {o.bound_name for c in summary.cases for o in c.outcomes}
        assert "ctmc_deviation" in names
        assert "ctmc_unit_drift" in names
        assert "ctmc_v_norm_with_stationary" in names
        assert "ctmc_v_norm_drift_only" in names
        assert "v_norm_skeleton_transfer" in names
        # queue hypotheses that cannot hold are skipped, not violated
        assert "ctmc_lambda1" in summary.skipped_bounds
        assert "ctmc_small_set" in summary.skipped_bounds

    def test_periodic_model_skips_one_step_contraction(self):
        a = np.r_[0.0, np.full(5, 0.5), 1.0]
        b = np.r_[1.0, np.full(5, 0.5), 0.0]
        model = birth_death(n=6, a=a, b=b, c=1 - a - b)
        summary = fuzz_bounds(model, n_cases=40, magnitude=0.005, seed=2)
        assert summary.n_violations == 0
        assert "seneta" in summary.skipped_bounds
        assert "small_set" in summary.skipped_bounds
        names = {o.bound_name for c in summary.cases for o in c.outcomes}
        assert "seneta_best" in names          # valid for periodic chains
        assert "hitting_time_drift" in names

    def test_m_step_difference_linear_relaxation(self):
        # the m-step kernel difference never exceeds m times the one-step norm
        model = odd_even(truncation=40)
        P = model.chain
        rng = np.random.default_rng(8)
        for _ in range(25):
            delta = sample_dtmc_delta(rng, P, 0.01)
            if delta is None:
                continue
            try:
                Pt = StochasticMatrix(P.entries + delta)
            except Exception:
                continue
            for m in (2, 3, 5):
                diff = matrix_norm(P.power(m) - Pt.power(m))
                assert diff <= m * matrix_norm(delta) * (1 + 1e-12) + 1e-15


@pytest.mark.parametrize("name", list_models())
def test_fuzz_checks_the_catalog_bounds(monkeypatch, name):
    # the fuzz takes its norm-wise coefficients from the catalog: every
    # report with a coefficient is checked, every failed one is skipped
    monkeypatch.setattr("mcperturb.catalog.SKELETON_MAX_N", 0)
    try:
        model = build_model(name, truncation=24)
    except McPerturbError:
        model = build_model(name)         # fixed-size models keep their own size
    summary = fuzz_bounds(model, n_cases=3, magnitude=0.01, seed=0,
                          include_v_norm=False)
    reports = bound_catalog(model.chain)
    assert summary.cases
    with_ell = [r.bound_name for r in reports if r.ell is not None]
    for case in summary.cases:
        assert [o.bound_name for o in case.outcomes] == with_ell
    failed = {r.bound_name: "; ".join(f"{h.name}: {h.detail}"
                                      for h in r.hypotheses if not h.holds)
              for r in reports if r.ell is None}
    assert summary.skipped_bounds == failed


# ---------------------------------------------------------------------------
# reference copies of the list-based samplers and the full-matrix norm


def full_matrix_norm(L):
    return float(np.abs(np.asarray(L, dtype=float)).sum(axis=1).max())


def list_sample_dtmc_delta(rng, P, magnitude):
    n = P.n
    delta = np.zeros((n, n))
    n_rows = int(rng.integers(1, min(3, n) + 1))
    rows = rng.choice(n, size=n_rows, replace=False)
    for i in rows:
        off = P.entries[i].copy()
        off[i] = -1.0
        j_star = int(np.argmax(off))
        if P.entries[i, j_star] < 1.5 * magnitude:
            return None
        others = [j for j in range(n) if j != j_star]
        k = int(rng.integers(1, min(3, len(others)) + 1))
        cols = rng.choice(len(others), size=k, replace=False)
        for idx in cols:
            j = others[int(idx)]
            v = rng.normal()
            if P.entries[i, j] < 1.5 * magnitude:
                v = abs(v)
            delta[i, j] += v
        delta[i, j_star] -= delta[i].sum()
    nm = full_matrix_norm(delta)
    if nm <= 0:
        return None
    return delta * (magnitude / nm)


def list_sample_ctmc_delta(rng, Q, magnitude):
    n = Q.n
    scale = Q.uniformization_constant
    delta = np.zeros((n, n))
    n_rows = int(rng.integers(1, min(3, n) + 1))
    rows = rng.choice(n, size=n_rows, replace=False)
    floor = 1.5 * magnitude
    for i in rows:
        others = [j for j in range(n) if j != i]
        k = int(rng.integers(1, min(3, len(others)) + 1))
        cols = rng.choice(len(others), size=k, replace=False)
        for idx in cols:
            j = others[int(idx)]
            v = rng.normal() * scale
            if Q.entries[i, j] < floor:
                v = abs(v)
            delta[i, j] += v
        delta[i, i] = -delta[i].sum()
    nm = full_matrix_norm(delta)
    if nm <= 0:
        return None
    return delta * (magnitude / nm)


@pytest.mark.parametrize("truncation", [24, 200])
@pytest.mark.parametrize("name", list_models())
def test_samplers_match_list_reference(name, truncation):
    model = gallery_model(name, truncation)
    new, ref = ((sample_dtmc_delta, list_sample_dtmc_delta) if model.kind == "dtmc"
                else (sample_ctmc_delta, list_sample_ctmc_delta))
    drawn = 0
    for magnitude in (0.001, 0.01):
        for seed in range(200):
            rng_new, rng_ref = (np.random.default_rng([seed, 31]) for _ in range(2))
            got = new(rng_new, model.chain, magnitude)
            want = ref(rng_ref, model.chain, magnitude)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
                drawn += 1
            # the same draws, in the same order
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert drawn > 0


@pytest.mark.parametrize("name", ["hessenberg-gi-m-1", "mm1", "odd-even-p"])
def test_fuzz_delta_norm_is_the_full_matrix_norm(name):
    model = gallery_model(name, 200)
    summary = fuzz_bounds(model, n_cases=20, magnitude=0.01, seed=4)
    assert summary.n_cases == 20
    for case in summary.cases:
        delta = verify._draw(np.random.default_rng(case.seed), model.chain, 0.01)[1]
        assert case.delta_norm == full_matrix_norm(delta)


@pytest.mark.parametrize("truncation", [24, 200])
@pytest.mark.parametrize("name", list_models())
def test_fuzz_runs_no_graph_check(name, truncation, monkeypatch):
    # every draw keeps the base chain's edges, so perturbed chains (and
    # generator skeletons) inherit irreducibility
    model = gallery_model(name, truncation)
    assert model.chain.irreducible           # the base chain's own check runs here
    calls = []
    check = chains._is_strongly_connected
    monkeypatch.setattr(chains, "_is_strongly_connected",
                        lambda support: calls.append(support.shape) or check(support))
    summary = fuzz_bounds(model, n_cases=15, magnitude=0.01, seed=2, include_v_norm=True)
    assert summary.n_cases > 0
    assert calls == []


def test_removed_edge_is_rejected_by_the_fuzz(monkeypatch):
    # a draw that disconnects a state fails the graph check and is redrawn
    model = meyer4()
    P = model.chain.entries
    cut = np.zeros_like(P)
    cut[0] = -P[0]
    cut[0, 0] += 1.0                          # state 0 becomes absorbing
    monkeypatch.setattr(verify, "sample_dtmc_delta", lambda rng, chain, magnitude: cut)
    drawn = verify._draw(np.random.default_rng(0), model.chain, 0.01)
    assert drawn == (None, None, None)
    summary = fuzz_bounds(model, n_cases=3, magnitude=0.01, seed=0)
    assert summary.n_cases == 0 and summary.n_rejected == 3


ONE_STATE = {
    "dtmc": (StochasticMatrix([[1.0]]), sample_dtmc_delta),
    "ctmc": (IntensityMatrix([[0.0]]), sample_ctmc_delta),
}


@pytest.mark.parametrize("kind", sorted(ONE_STATE))
class TestOneStateChain:
    # a 1-state chain has no nonzero row-sum-zero perturbation, of either kind

    def model(self, kind):
        return GalleryModel(name="one-state", kind=kind, chain=ONE_STATE[kind][0])

    def test_sampler_returns_none(self, kind):
        rng = np.random.default_rng(0)
        chain, sample = ONE_STATE[kind]
        assert sample(rng, chain, 0.01) is None

    def test_fuzz_rejects_every_case(self, kind):
        summary = fuzz_bounds(self.model(kind), n_cases=4, magnitude=0.01, seed=0)
        assert summary.n_cases == 0
        assert summary.n_rejected == 4
        assert summary.violation_seeds == []

    def test_canonical_pair_raises(self, kind):
        with pytest.raises(InvalidParameters, match="could not perturb model one-state"):
            canonical_pair(self.model(kind))


def test_violation_seeds_replay_the_violating_cases(monkeypatch):
    clean = fuzz_bounds(meyer4(), n_cases=30, magnitude=0.01, seed=7)
    assert clean.violation_seeds == []
    # cover about half the cases: below the median tightness of seneta_best
    ratios = [o.bound_value / o.exact_gap for c in clean.cases for o in c.outcomes
              if o.bound_name == "seneta_best"]
    shrink_coefficient(monkeypatch, "seneta_best", 1.0 / float(np.median(ratios)))
    summary = fuzz_bounds(meyer4(), n_cases=30, magnitude=0.01, seed=7)
    seeds = summary.violation_seeds
    assert seeds == [c.seed for c in summary.cases if c.violations]
    assert 0 < len(seeds) < summary.n_cases
    assert [i for _, i in seeds] == sorted(i for _, i in seeds)
    assert all(s == 7 for s, _ in seeds)
    by_seed = {c.seed: c for c in summary.cases}
    for seed, i in seeds:
        replay = fuzz_bounds(meyer4(), n_cases=i + 1, magnitude=0.01, seed=seed).cases[-1]
        assert replay.seed == (seed, i) and replay.violations
        assert replay.gap == by_seed[seed, i].gap


def test_dtmc_fuzz_solves_the_base_pi_once(monkeypatch):
    # the fuzz and its catalog call share the chain's cached pi; every case
    # solves its own perturbed chain
    from mcperturb import solvers

    solves = []
    solve = solvers._stationary_solve
    monkeypatch.setattr(solvers, "_stationary_solve",
                        lambda M: solves.append(M.shape[0]) or solve(M))
    summary = fuzz_bounds(meyer4(), n_cases=5)
    assert summary.n_cases == 5 and summary.n_rejected == 0
    assert len(solves) == 1 + summary.n_cases


@pytest.mark.parametrize("factory,label", [
    (meyer4, "ctmc"),
    (lambda: mm1(truncation=12), "dtmc"),
], ids=["meyer4-as-ctmc", "mm1-as-dtmc"])
class TestTheChainDecidesItsKind:
    """A model's ``kind`` is a description: the oracles read the chain's type,
    so a mislabelled model (extras kept) is checked as its twin."""

    def test_identity_residuals_match_the_twin(self, factory, label):
        assert (identity_residuals(replace(factory(), kind=label))
                == identity_residuals(factory()))

    def test_fuzz_summary_matches_the_twin(self, factory, label):
        twin = fuzz_bounds(factory(), n_cases=4, include_v_norm=True)
        summary = fuzz_bounds(replace(factory(), kind=label), n_cases=4, include_v_norm=True)
        assert summary.n_cases == twin.n_cases == 4
        assert summary.kind == twin.kind != label
        assert summary.tightness() == twin.tightness()
        assert summary.skipped_bounds == twin.skipped_bounds
