import numpy as np
import pytest

from mcperturb import (
    DivergentHittingTimes,
    IntensityMatrix,
    InvalidParameters,
    NumericSettings,
    SolverFailure,
    StochasticMatrix,
    birth_death_hitting_times,
    bound_catalog,
    ctmc_hitting_times,
    hitting_times,
    value_iteration_hitting,
)
from mcperturb import solvers
from mcperturb.verify import residual_taboo_inverse_identity
from mcperturb.gallery import birth_death, build_model, geometric_return, list_models, meyer4, mm1
from tests.conftest import gallery_model, random_irreducible_chain


def drifted_birth_death_vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    a = np.r_[0.0, 0.25 + 0.15 * rng.random(n)]
    b = np.r_[0.2 + 0.1 * rng.random(n), 0.0]
    c = 1.0 - a - b
    return a, b, c


def balanced_birth_death_vectors(n, seed=0):
    # locally symmetric rates keep hitting times polynomial in n, so both
    # the dense solve and the closed form stay accurate to full precision
    rng = np.random.default_rng(seed)
    r = 0.2 + 0.15 * rng.random(n + 1)
    a = r.copy()
    b = r.copy()
    a[0] = 0.0
    b[n] = 0.0
    c = 1.0 - a - b
    return a, b, c


class TestLinearSolve:
    def test_target_state_is_zero(self, meyer):
        for t in range(4):
            m = hitting_times(meyer.chain, t)
            assert m[t] == 0.0

    def test_geometric_return_all_equal(self):
        model = geometric_return(p=0.5, truncation=100)
        m = hitting_times(model.chain, 0)
        np.testing.assert_allclose(m[1:], 2.0, atol=1e-9)

    def test_two_state_closed_form(self):
        a = 0.3
        P = StochasticMatrix([[1 - a, a], [0.5, 0.5]])
        m = hitting_times(P, 1)
        assert m[0] == pytest.approx(1 / a, rel=1e-12)

    def test_residual_equation(self, funderlic):
        P = funderlic.chain
        m = hitting_times(P, 7)
        for i in range(8):
            if i == 7:
                continue
            lhs = m[i]
            rhs = 1.0 + sum(P.entries[i, j] * m[j] for j in range(8) if j != 7)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_out_of_range_target(self, meyer):
        with pytest.raises(InvalidParameters):
            hitting_times(meyer.chain, 9)


class TestValueIterationOracle:
    def test_target_stays_zero(self, meyer):
        m = value_iteration_hitting(meyer.chain, 2)
        assert m[2] == 0.0

    def test_matches_linear_solve_on_meyer(self, meyer):
        direct = hitting_times(meyer.chain, 0)
        iterated = value_iteration_hitting(meyer.chain, 0)
        np.testing.assert_allclose(direct, iterated, atol=1e-8)

    def test_geometric_return_limit(self):
        model = geometric_return(p=0.5, truncation=60)
        m = value_iteration_hitting(model.chain, 0)
        np.testing.assert_allclose(m[1:], 2.0, atol=1e-9)

    def test_divergence_detected_on_transient_structure(self):
        # state 0 is absorbing, so times to reach state 1 are infinite
        P = StochasticMatrix([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(DivergentHittingTimes):
            value_iteration_hitting(P, 1, cap=5000, blowup=1e6)

    def test_monotone_from_below(self, meyer):
        # a few explicit iterates stay below the solution
        P = meyer.chain
        sol = hitting_times(P, 0)
        m = np.zeros(4)
        for _ in range(30):
            nxt = 1.0 + P.entries @ m
            nxt[0] = 0.0
            assert np.all(nxt >= m - 1e-15)
            assert np.all(nxt <= sol + 1e-12)
            m = nxt


class TestBirthDeathClosedForm:
    def test_target_itself_zero(self):
        a, b, c = drifted_birth_death_vectors(10)
        m = birth_death_hitting_times(a, b, c, 4)
        assert m[4] == 0.0

    def test_two_state_geometric(self):
        # single up/down pair: time from 1 to 0 is one geometric draw
        a = np.array([0.0, 0.4])
        b = np.array([0.7, 0.0])
        c = 1.0 - a - b
        m = birth_death_hitting_times(a, b, c, 0)
        assert m[1] == pytest.approx(1 / 0.4, rel=1e-12)
        assert m[0] == 0.0
        m_up = birth_death_hitting_times(a, b, c, 1)
        assert m_up[0] == pytest.approx(1 / 0.7, rel=1e-12)

    @pytest.mark.parametrize("target", [0, 3, 7, 20])
    def test_matches_linear_solve_n20(self, target):
        a, b, c = drifted_birth_death_vectors(20, seed=7)
        model = birth_death(n=20, a=a, b=b, c=c)
        closed = birth_death_hitting_times(a, b, c, target)
        solved = hitting_times(model.chain, target)
        np.testing.assert_allclose(closed, solved, atol=1e-9, rtol=1e-9)

    def test_matches_linear_solve_n100_balanced(self):
        a, b, c = balanced_birth_death_vectors(100, seed=3)
        model = birth_death(n=100, a=a, b=b, c=c)
        for target in (0, 50, 100):
            closed = birth_death_hitting_times(a, b, c, target)
            solved = hitting_times(model.chain, target)
            np.testing.assert_allclose(closed, solved, atol=1e-8, rtol=1e-8)

    def test_downhill_target_on_drifted_chain_n100(self):
        # down-drifted chain: descent times stay moderate and both routes
        # agree componentwise (uphill times grow like 1/mu and are a
        # conditioning stress test, not an agreement test)
        a, b, c = drifted_birth_death_vectors(100, seed=3)
        model = birth_death(n=100, a=a, b=b, c=c)
        closed = birth_death_hitting_times(a, b, c, 0)
        solved = hitting_times(model.chain, 0)
        np.testing.assert_allclose(closed, solved, atol=1e-8, rtol=1e-9)

    def test_periodic_birth_death_supported(self):
        # no holding probabilities: period two, closed form still exact
        n = 10
        a = np.r_[0.0, np.full(n - 1, 0.5), 1.0]
        b = np.r_[1.0, np.full(n - 1, 0.5), 0.0]
        c = 1.0 - a - b
        model = birth_death(n=n, a=a, b=b, c=c)
        assert model.chain.period == 2
        closed = birth_death_hitting_times(a, b, c, 0)
        solved = hitting_times(model.chain, 0)
        np.testing.assert_allclose(closed, solved, atol=1e-9)

    def test_invalid_parameters(self):
        a, b, c = drifted_birth_death_vectors(5)
        with pytest.raises(InvalidParameters):
            birth_death_hitting_times(a[:-1], b, c, 0)
        with pytest.raises(InvalidParameters):
            birth_death_hitting_times(a, b, c, 9)
        bad_a = a.copy()
        bad_a[0] = 0.1
        with pytest.raises(InvalidParameters):
            birth_death_hitting_times(bad_a, b, c, 0)


class TestPrintedFormulaDiscrepancy:
    def test_constant_return_rate_gives_constant_times(self):
        # the geometric-return chain's times onto 0 are exactly 1/p for every
        # start i >= 1; the often-quoted closed form 1/(1-q) - 1/q^i is
        # negative for small q^i and disagrees with both oracles
        p, q = 0.5, 0.5
        model = geometric_return(p=p, truncation=80)
        solved = hitting_times(model.chain, 0)
        iterated = value_iteration_hitting(model.chain, 0)
        np.testing.assert_allclose(solved[1:], 1 / p, atol=1e-9)
        np.testing.assert_allclose(iterated[1:], 1 / p, atol=1e-9)
        quoted = 1 / (1 - q) - 1 / q ** np.arange(1, 10)
        assert not np.allclose(quoted, solved[1:10], atol=1e-3)
        assert quoted[3] < 0  # the quoted expression cannot be a hitting time


def _reference_hitting_times(A, target):
    """The solve both chain kinds ran before they shared one: the target row
    of A = I - P or A = -Q replaced, then one dense solve."""
    A = A.copy()
    A[target, :] = 0.0
    A[target, target] = 1.0
    b = np.ones(A.shape[0])
    b[target] = 0.0
    v = np.linalg.solve(A, b)
    v[target] = 0.0
    return v


def _within_certified_distance(x, x_ref, A, target):
    """Two solutions of the reduced system U x = 1 (A = I - P or -Q without
    row and column ``target``) agree within what their residuals allow.

    U is a nonsingular M-matrix, so U^-1 >= 0 and U^-1 1 = x*, the exact
    times. With r = U x - 1, x - x_ref = U^-1 (r - r_ref), so
    |x - x_ref| <= (||r|| + ||r_ref||) x*, and max x* <= max x / (1 - ||r||).
    Each exact ||r|| is at most the computed one plus gamma_n (|U| |x| + 1),
    the rounding of forming it; a last gamma_n covers the norms' own."""
    U = np.delete(np.delete(A, target, 0), target, 1)
    n = A.shape[0]
    gamma = n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)

    def residual(v):
        v = np.delete(v, target)
        return float(np.abs(U @ v - 1.0).max() + gamma * (np.abs(U) @ np.abs(v) + 1.0).max())

    r, r_ref = residual(x), residual(x_ref)
    bound = float(x.max()) / (1.0 - r) * (r + r_ref) * (1.0 + gamma)
    assert x[target] == x_ref[target] == 0.0
    assert float(np.abs(x - x_ref).max()) <= bound


def _offset_solve(monkeypatch, offset):
    """Make every reduced solve return its solution plus ``offset``."""
    solve = solvers._reduced_solve
    monkeypatch.setattr(solvers, "_reduced_solve", lambda *args: solve(*args) + offset)


GENERATOR_SPECS = [s for s in list_models() if build_model(s).kind == "ctmc"]
CHAIN_SPECS = [s for s in list_models() if build_model(s).kind == "dtmc"]


class TestSharedHittingSolve:
    @pytest.mark.parametrize("truncation", [24, 200, 800])
    @pytest.mark.parametrize("spec", GENERATOR_SPECS)
    def test_generator_times_unchanged(self, spec, truncation):
        Q = gallery_model(spec, truncation).chain
        _within_certified_distance(ctmc_hitting_times(Q, 0),
                                   _reference_hitting_times(-Q.entries, 0), -Q.entries, 0)

    @pytest.mark.parametrize("truncation", [24, 200])
    @pytest.mark.parametrize("spec", CHAIN_SPECS)
    def test_chain_times_unchanged(self, spec, truncation):
        P = gallery_model(spec, truncation).chain
        A = np.eye(P.n) - P.entries
        _within_certified_distance(hitting_times(P, 0), _reference_hitting_times(A, 0), A, 0)

    def test_off_solution_fails_the_chain_residual_gate(self, monkeypatch, meyer):
        _offset_solve(monkeypatch, 1e-3)
        with pytest.raises(SolverFailure, match="hitting-time residual"):
            hitting_times(meyer.chain, 0)

    def test_off_solution_fails_the_generator_residual_gate(self, monkeypatch):
        Q = mm1(truncation=24).chain
        _offset_solve(monkeypatch, 1e-3)
        with pytest.raises(SolverFailure, match="hitting-time residual"):
            ctmc_hitting_times(Q, 0)

    def test_off_solution_fails_the_banded_residual_gate(self, monkeypatch):
        """mm1(200) without state 0 has band (1, 1), so the banded solve runs.
        A constant offset is in the kernel of -Q; the gate sees it because it
        reads the reduced system's residual, with the target's time at 0."""
        Q = mm1(truncation=200).chain
        banded = []
        solve_banded = solvers.solve_banded
        monkeypatch.setattr(solvers, "solve_banded",
                            lambda *a, **k: banded.append(1) or solve_banded(*a, **k))
        _offset_solve(monkeypatch, 1e-3)
        with pytest.raises(SolverFailure, match="hitting-time residual"):
            ctmc_hitting_times(Q, 0)
        assert banded == [1]

    def test_negative_generator_time_uses_the_shared_wording(self, monkeypatch):
        Q = mm1(truncation=24).chain
        _offset_solve(monkeypatch, -1.0)
        with pytest.raises(DivergentHittingTimes, match="transient or truncation pathology"):
            ctmc_hitting_times(Q, 0)

    def test_chain_gate_reads_the_chains_own_inverse_tolerance(self):
        entries = random_irreducible_chain(np.random.default_rng(5), 12)
        hitting_times(StochasticMatrix(entries), 0)     # residual ~3e-15 passes 1e-9
        strict = StochasticMatrix(entries, settings=NumericSettings(inverse=1e-20))
        with pytest.raises(SolverFailure, match="hitting-time residual"):
            hitting_times(strict, 0)

    def test_generator_gate_reads_the_generators_own_inverse_tolerance(self):
        entries = mm1(truncation=24).chain.entries
        strict = IntensityMatrix(entries, settings=NumericSettings(inverse=1e-20))
        with pytest.raises(SolverFailure, match="hitting-time residual"):
            ctmc_hitting_times(strict, 0)


@pytest.mark.parametrize("state", [4, -1, 1.5, 1.0, True])
def test_every_target_and_taboo_state_is_an_integer_state_of_the_chain(state):
    # a float or bool state must not reach numpy indexing
    P = meyer4().chain
    Q = mm1(truncation=4).chain
    a, b, c = drifted_birth_death_vectors(3)
    calls = {
        "hitting_times": lambda t: hitting_times(P, t),
        "ctmc_hitting_times": lambda t: ctmc_hitting_times(Q, t),
        "value_iteration_hitting": lambda t: value_iteration_hitting(P, t),
        "birth_death_hitting_times": lambda t: birth_death_hitting_times(a, b, c, t),
        "residual_taboo_inverse_identity": lambda t: residual_taboo_inverse_identity(P, t),
        "bound_catalog": lambda t: bound_catalog(Q, taboo_state=t),
    }
    for name, call in calls.items():
        with pytest.raises(InvalidParameters, match=rf"state {state} out of range \[0, 4\)"):
            call(state)
            pytest.fail(f"{name} took the state {state!r}")
        call(np.int64(1))                # a numpy integer is a state
