"""Every residual certificate goes through ``solvers._gate``: one comparison,
``residual <= tolerance * scale``, which a NaN residual fails, and one
message, "<check> <residual> exceeds <limit>".

Each of the nine gates passes at the default settings and is made to fail
once through its public entry point by tightening the ``NumericSettings``
field it reads. The two sign gates (negative mass, negative hitting time)
cannot fail on a correct solve, so there the solve is moved by a small
offset that only the tightened field rejects.
"""

import re

import numpy as np
import pytest

from mcperturb import (
    DivergentHittingTimes,
    IntensityMatrix,
    NumericSettings,
    SeriesDivergent,
    SolverFailure,
    StochasticMatrix,
    ctmc_deviation_matrix,
    ctmc_hitting_times,
    ctmc_stationary,
    fundamental_matrix,
    group_inverse,
    hitting_times,
    residual_taboo_inverse_identity,
    stationary_distribution,
)
from mcperturb import solvers
from mcperturb.gallery import birth_death, meyer4, mm1
from tests.conftest import random_irreducible_chain

RANDOM = random_irreducible_chain(np.random.default_rng(5), 12)
# pi ~ (1, 2e-14): a solve off by 1e-13 in the small entry keeps its residual near 6e-14
SMALL_MASS = [[1.0 - 1e-14, 1e-14], [0.5, 0.5]]


def _negative_mass(settings, monkeypatch):
    monkeypatch.setattr(solvers, "_stationary_solve", lambda M: np.array([1.0, -1e-13]))
    return lambda: stationary_distribution(StochasticMatrix(SMALL_MASS, settings=settings))


def _negative_time(settings, monkeypatch):
    solve = solvers._reduced_solve
    monkeypatch.setattr(solvers, "_reduced_solve", lambda *args: solve(*args) - 1e-12)
    return lambda: hitting_times(StochasticMatrix(meyer4().chain.entries, settings=settings), 0)


# uniformization constant 0.1, so the skeleton step is h = 9.9: h max|pi Q|
# fails a tolerance that max|pi Q| itself passes
SLOW = 0.02 * mm1(truncation=12).chain.entries


def _skeleton_stationarity(settings, monkeypatch):
    return lambda: ctmc_deviation_matrix(IntensityMatrix(SLOW, settings=settings))


def _stationarity_window():
    """A stationarity tolerance between the slow generator's own residual and
    its skeleton's, which is 9.9 times larger."""
    Q = IntensityMatrix(SLOW)
    residual = float(np.abs(ctmc_stationary(Q).values @ Q.entries).max())
    assert residual > 0.0 and solvers._default_step(Q.uniformization_constant) == 9.9
    return 3.0 * residual


# (check name, error, entry point, the field that makes it fail)
GATES = [
    ("stationary residual", SolverFailure,
     lambda s, mp: lambda: stationary_distribution(StochasticMatrix(RANDOM, settings=s)),
     {"stationarity": 1e-20}),
    ("stationary solve produced negative mass", SolverFailure, _negative_mass,
     {"validation": 1e-14}),
    ("negative hitting time (transient or truncation pathology)", DivergentHittingTimes,
     _negative_time, {"inverse": 1e-14}),
    ("hitting-time residual", SolverFailure,
     lambda s, mp: lambda: hitting_times(StochasticMatrix(RANDOM, settings=s), 0),
     {"inverse": 1e-20}),
    ("fundamental matrix residual", SolverFailure,
     lambda s, mp: lambda: fundamental_matrix(StochasticMatrix(RANDOM, settings=s)),
     {"inverse": 1e-20}),
    # birth-death(20): fundamental residual 2.0e-14, axiom residual 1.6e-13
    ("group-inverse axiom residual", SolverFailure,
     lambda s, mp: lambda: group_inverse(
         StochasticMatrix(birth_death(20).chain.entries, settings=s)),
     {"inverse": 5e-14}),
    ("stationary residual", SolverFailure, _skeleton_stationarity, None),
    # rates 0.01: fundamental and axiom residuals 2.2e-16, deviation 8.5e-16 of max(1, |D|)
    ("deviation residual", SolverFailure,
     lambda s, mp: lambda: ctmc_deviation_matrix(
         IntensityMatrix([[-0.01, 0.01], [0.01, -0.01]], settings=s)),
     {"inverse": 4e-16}),
    ("resolvent series cross-check", SeriesDivergent,
     lambda s, mp: lambda: residual_taboo_inverse_identity(
         StochasticMatrix(meyer4().chain.entries, settings=s), 0),
     {"identity": 1e-20}),
]
GATE_IDS = ["stationary", "negative-mass", "negative-time", "hitting", "fundamental",
            "group-inverse", "skeleton-stationary", "deviation", "series"]


@pytest.mark.parametrize("check,error,entry,tight", GATES, ids=GATE_IDS)
def test_each_gate_fails_through_its_entry_point(check, error, entry, tight, monkeypatch):
    entry(NumericSettings(), monkeypatch)()
    tight = tight or {"stationarity": _stationarity_window()}
    with pytest.raises(error) as failed:
        entry(NumericSettings(**tight), monkeypatch)()
    assert type(failed.value) is error
    assert re.fullmatch(rf"{re.escape(check)} \S+ exceeds \S+", str(failed.value))


def test_the_gate_compares_once_and_names_its_limit():
    solvers._gate("check", 2.0, 1.0, 2.0)               # at the limit passes
    with pytest.raises(SolverFailure, match=r"^check 2\.000e\+00 exceeds 1$"):
        solvers._gate("check", 2.0, 0.5, 2.0)
    with pytest.raises(SeriesDivergent, match=r"^check nan exceeds 1$"):
        solvers._gate("check", float("nan"), 1.0, error=SeriesDivergent)


def _nan_solve(M, k, B, system):
    return np.full(B.shape, np.nan)


@pytest.mark.parametrize("entry,error", [
    (lambda: fundamental_matrix(meyer4().chain), SolverFailure),
    (lambda: group_inverse(meyer4().chain), SolverFailure),
    (lambda: hitting_times(meyer4().chain, 0), DivergentHittingTimes),
    (lambda: ctmc_hitting_times(mm1(truncation=12).chain, 0), DivergentHittingTimes),
    (lambda: ctmc_deviation_matrix(mm1(truncation=12).chain), SolverFailure),
], ids=["fundamental", "group-inverse", "hitting", "ctmc-hitting", "deviation"])
def test_a_nan_solve_is_not_certified(entry, error, monkeypatch):
    monkeypatch.setattr(solvers, "_reduced_solve", _nan_solve)
    with pytest.raises(error, match=" nan exceeds "):
        entry()


@pytest.mark.xfail(strict=True, reason="a stationarity residual cannot see the forward "
                   "error of a nearly decomposable chain's plain pi; certified error bars "
                   "would")
@pytest.mark.parametrize("eps", [1e-16, 1e-17])
def test_a_certified_pi_of_a_nearly_decomposable_chain_is_accurate(eps):
    # the plain pi reads (0.4739, 0.5261) at 1e-16, residual 0, and (1, -0) at
    # 1e-17, residual 1e-17: both pass the 1e-10 stationarity gate
    P = StochasticMatrix([[1.0 - eps, eps], [eps, 1.0 - eps]])
    try:
        pi = stationary_distribution(P).values
    except SolverFailure:
        return                          # a gate that sees the error is enough
    assert np.abs(pi - 0.5).sum() <= 1e-8


@pytest.mark.parametrize("eps", [1e-16, 1e-17])
def test_state_reduction_solves_the_nearly_decomposable_chain(eps):
    P = StochasticMatrix([[1.0 - eps, eps], [eps, 1.0 - eps]])
    np.testing.assert_array_equal(stationary_distribution(P, "gth").values, [0.5, 0.5])
