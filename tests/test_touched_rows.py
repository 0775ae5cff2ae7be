"""A fuzz case validates and measures only the rows its draw touches. These
tests hold it to a reference that builds the whole case: the n x n delta,
the public constructor on ``entries + delta``, and ``np.eye(n) - E``."""

import numpy as np
import pytest

from mcperturb import (
    Distribution,
    IntensityMatrix,
    StochasticMatrix,
    ValidationError,
    bound_catalog,
    solvers,
    verify,
)
from mcperturb.catalog import SKELETON_M
from mcperturb.chains import _perturbed_chain
from mcperturb.dtmc import skeleton_bound
from mcperturb.errors import HypothesisFailed
from mcperturb.gallery import birth_death, funderlic8, list_models
from mcperturb.norms import matrix_norm, total_variation_norm
from tests.conftest import gallery_model

N_CASES = 12


def reference_pi(chain) -> np.ndarray:
    """pi from the full-matrix system: Q itself, or np.eye(n) - P."""
    E = chain.entries
    M = E.copy() if isinstance(chain, IntensityMatrix) else np.eye(chain.n) - E
    return Distribution(solvers._stationary_solve(M), settings=chain.settings).values


def reference_case(chain, linear, magnitude, seed, case_idx, skeleton):
    """One fuzz case as a whole-matrix computation: (delta_norm, gap, outcomes),
    or None when every draw is rejected."""
    rng = np.random.default_rng([seed, case_idx])
    sample = (verify.sample_dtmc_delta if isinstance(chain, StochasticMatrix)
              else verify.sample_ctmc_delta)
    for _ in range(50):
        delta = sample(rng, chain, magnitude)
        if delta is None:
            continue
        try:
            perturbed = type(chain)(chain.entries + delta, settings=chain.settings)
        except ValidationError:
            continue
        if perturbed.irreducible:
            break
    else:
        return None
    gap = total_variation_norm(reference_pi(perturbed) - reference_pi(chain))
    dn = matrix_norm(delta)
    outcomes = [rep.with_exact_gap(gap, dn) for rep in linear]
    if skeleton:
        try:
            outcomes.append(skeleton_bound(chain, perturbed, SKELETON_M).with_exact_gap(gap))
        except HypothesisFailed:
            pass
    return dn, gap, outcomes


def outcome_values(reports):
    return [(r.bound_name, r.bound_value, r.exact_gap, r.valid, r.useless) for r in reports]


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("magnitude", [0.001, 0.01])
@pytest.mark.parametrize("name", list_models())
def test_fuzz_cases_match_the_full_matrix_reference(name, magnitude, seed):
    model = gallery_model(name, 24)
    chain = model.chain
    summary = verify.fuzz_bounds(model, n_cases=N_CASES, magnitude=magnitude, seed=seed)
    linear = [rep for rep in bound_catalog(chain) if rep.ell is not None]
    skeleton = model.kind == "dtmc"            # every model here has at most 32 states
    want = [reference_case(chain, linear, magnitude, seed, i, skeleton) for i in range(N_CASES)]
    got = {c.seed[1]: c for c in summary.cases}
    assert summary.n_rejected == sum(w is None for w in want)
    for i, w in enumerate(want):
        if w is None:
            assert i not in got
            continue
        dn, gap, outcomes = w
        case = got[i]
        assert case.delta_norm == dn
        assert case.gap == gap
        assert outcome_values(case.outcomes) == outcome_values(outcomes)


def test_identity_minus_is_eye_minus_e():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 200):
        E = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        E[0, -1] = -0.0
        assert solvers._identity_minus(E).tobytes() == (np.eye(n) - E).tobytes()


# ---------------------------------------------------------------------------
# _perturbed_chain against the public constructors


def same_verdict(chain, delta):
    """_perturbed_chain and the public constructor on entries + delta raise the
    same ValidationError, or build chains with the same entries and row sums."""
    try:
        want = type(chain)(chain.entries + delta, settings=chain.settings)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            _perturbed_chain(chain, delta)
        assert str(got.value) == str(exc)
        return False
    got = _perturbed_chain(chain, delta)
    assert got.entries.tobytes() == want.entries.tobytes()
    assert got._row_sums.tobytes() == want._row_sums.tobytes()
    if isinstance(chain, IntensityMatrix):
        assert got.uniformization_constant == want.uniformization_constant
    return True


P3 = np.array([[0.5, 0.3, 0.2],
               [0.1, 0.6, 0.3],
               [0.2, 0.2, 0.6]])


@pytest.mark.parametrize("row,values,accepted", [
    (0, [0.1, -0.05, -0.05], True),
    (1, [0.0, -0.7, 0.7], False),                  # a negative entry
    (2, [1e-9, 0.0, 0.0], False),                  # the row sums to 1 + 1e-9
    (2, [1e-13, 0.0, 0.0], True),                  # within the validation tolerance
    (0, [np.nan, 0.0, 0.0], False),                # a non-finite entry
    (1, [np.inf, -np.inf, 0.0], False),
])
def test_transition_rows_checked_as_the_constructor_does(row, values, accepted):
    P = StochasticMatrix(P3)
    delta = np.zeros((3, 3))
    delta[row] = values
    assert same_verdict(P, delta) is accepted


Q3 = np.array([[-2.0, 1.0, 1.0],
               [0.5, -1.0, 0.5],
               [1.0, 2.0, -3.0]])


@pytest.mark.parametrize("row,values,accepted", [
    (0, [-0.5, 0.25, 0.25], True),
    (1, [-1.0, 0.5, 0.5], False),                  # a negative off-diagonal entry
    (2, [0.0, 0.0, 1e-6], False),                  # not conservative
    (1, [-0.5, 1.0 + 2e-12, -0.5], False),         # a positive diagonal entry
    (0, [np.nan, 0.0, 0.0], False),
])
def test_generator_rows_checked_as_the_constructor_does(row, values, accepted):
    Q = IntensityMatrix(Q3)
    delta = np.zeros((3, 3))
    delta[row] = values
    assert same_verdict(Q, delta) is accepted


def test_lowering_the_largest_rate_rechecks_untouched_row_sums():
    # row 1 is off by 5e-10, inside 1e-12 times the rate scale 1000; a draw
    # on row 0 brings the scale down to 100, so untouched row 1 now fails
    Q = np.array([[-1000.0, 600.0, 400.0],
                  [1.0, -2.0, 1.0 + 5e-10],
                  [1.0, 1.0, -2.0]])
    chain = IntensityMatrix(Q)
    lower = np.zeros((3, 3))
    lower[0] = [900.0, -540.0, -360.0]
    assert same_verdict(chain, lower) is False
    with pytest.raises(ValidationError, match="row 1 sums to"):
        _perturbed_chain(chain, lower)
    keep = np.zeros((3, 3))
    keep[0] = [400.0, -240.0, -160.0]              # scale 600 still covers row 1
    assert same_verdict(chain, keep) is True


@pytest.mark.parametrize("name", ["mm1", "batch-arrival", "birth-death", "hessenberg-gi-m-1"])
def test_random_draws_get_the_constructors_verdict(name):
    # row-sum-zero draws balanced on the diagonal, some of them negative
    # enough to break an entry
    chain = gallery_model(name, 20).chain
    rng = np.random.default_rng(11)
    verdicts = set()
    for _ in range(60):
        delta = np.zeros((chain.n, chain.n))
        for i in rng.choice(chain.n, size=2, replace=False):
            v = np.abs(rng.normal(size=3)) * rng.choice([0.05, -0.05], p=[0.85, 0.15], size=3)
            delta[i, rng.choice(chain.n, size=3, replace=False)] += v
            delta[i, i] -= v.sum()
        verdicts.add(same_verdict(chain, delta))
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the skeleton bound's base part


def count_skeleton_bases(monkeypatch):
    calls = []
    base = verify._skeleton_base
    monkeypatch.setattr(verify, "_skeleton_base", lambda P, m: calls.append(m) or base(P, m))
    return calls


def test_the_skeleton_base_is_formed_once_per_run(monkeypatch):
    calls = count_skeleton_bases(monkeypatch)
    summary = verify.fuzz_bounds(funderlic8(), n_cases=6, magnitude=0.01, seed=4)
    assert calls == [SKELETON_M]
    assert all(any(o.bound_name == f"skeleton[m={SKELETON_M}]" for o in c.outcomes)
               for c in summary.cases)


def test_a_failed_skeleton_hypothesis_is_recorded_by_the_first_case(monkeypatch):
    model = birth_death(n=20)
    name = f"skeleton[m={SKELETON_M}]"
    calls = count_skeleton_bases(monkeypatch)
    assert name not in verify.fuzz_bounds(model, n_cases=0).skipped_bounds
    assert calls == []
    summary = verify.fuzz_bounds(model, n_cases=4)
    assert summary.n_cases == 4
    assert name in summary.skipped_bounds
    assert calls == [SKELETON_M]
    # a run whose every draw is rejected reaches no case either
    monkeypatch.setattr(verify, "sample_dtmc_delta", lambda rng, chain, magnitude: None)
    summary = verify.fuzz_bounds(model, n_cases=3)
    assert summary.n_rejected == 3
    assert name not in summary.skipped_bounds
