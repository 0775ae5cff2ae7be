"""Lambda1 of a nonnegative matrix from the columns its rows share, against
the pair scan it replaces: the same row distances up to round-off, the same
verdicts, and the same first disproving row."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import mcperturb
from mcperturb import (
    HypothesisFailed,
    IntensityMatrix,
    StochasticMatrix,
    ergodicity_coefficient,
    seneta_bound,
    skeleton_bound,
    uniformize,
)
from mcperturb import norms
from mcperturb.gallery import geometric_return, list_models
from tests.conftest import gallery_model, sparse_irreducible_chain

U = 2.0 ** -53


def pair_scan_maxima(M):
    """Each row's largest l1 distance to a later row, or 0, by the pair scan."""
    D = cdist(M, M, "cityblock")
    return np.triu(D, 1)[:-1].max(axis=1, initial=0.0)


def assert_close_to_the_pair_scan(M):
    d = norms._shared_column_maxima(M)
    want = pair_scan_maxima(M)
    assert d.shape == want.shape
    bound = 4 * M.shape[0] * U * float(M.sum(axis=1).max(initial=0.0))
    assert np.abs(d - want).max(initial=0.0) <= bound


def transition_matrix(model):
    chain = model.chain
    return uniformize(chain).matrix if isinstance(chain, IntensityMatrix) else chain


def doubly_stochastic(seed, n):
    """A convex mix of 4 random permutation matrices: n nonzeros per ~4 columns' worth."""
    rng = np.random.default_rng([seed, 4])
    P = np.zeros((n, n))
    for w in rng.dirichlet(np.full(4, 4.0)):
        P[np.arange(n), rng.permutation(n)] += w
    return P


@pytest.mark.parametrize("truncation", [24, 200, 400])
@pytest.mark.parametrize("name", list_models())
def test_gallery_powers_match_the_pair_scan(monkeypatch, name, truncation):
    P = transition_matrix(gallery_model(name, truncation))
    if P.n <= 24:       # every small power takes the route, however dense
        monkeypatch.setattr(norms, "_SHARED_WORK", np.inf)
    taken = 0
    for m in range(1, 9):
        Pm = P.power(m)
        if norms._shared_column_maxima(Pm) is not None:
            assert_close_to_the_pair_scan(Pm)
            taken += 1
    if P.n <= 24:
        assert taken == 8


def test_the_route_takes_the_sparse_catalog_squares():
    # P^2 of the sparse N = 400 chains: the matrices this route is for
    for name in ("odd-even-p", "geometric-return"):
        P2 = gallery_model(name, 400).chain.power(2)
        assert norms._shared_column_maxima(P2) is not None
        assert_close_to_the_pair_scan(P2)
    assert norms._shared_column_maxima(gallery_model("hessenberg-gi-m-1", 400).chain.entries) \
        is None


@pytest.mark.parametrize("seed", range(4))
def test_doubly_stochastic_matches_the_pair_scan(seed):
    P = doubly_stochastic(seed, 400)
    for M in (P, P @ P):
        assert norms._shared_column_maxima(M) is not None
        assert_close_to_the_pair_scan(M)


@pytest.mark.parametrize("seed", range(20))
def test_random_sparse_matrices_with_empty_rows_and_a_dense_column(monkeypatch, seed):
    monkeypatch.setattr(norms, "_SHARED_WORK", np.inf)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 120))
    M = rng.random((n, n)) * (rng.random((n, n)) < rng.choice([0.01, 0.05, 0.1]))
    M[rng.integers(n)] = 0.0                             # a zero row
    M[:, rng.integers(n)] = 0.0                          # a zero column
    M[:, rng.integers(n)] = rng.random(n) * rng.choice([1e-3, 1.0, 1e3])
    M[:, rng.integers(n)] += (rng.random(n) < 0.3) * rng.random(n)   # one of < n / 2
    assert_close_to_the_pair_scan(M)
    # a rectangular matrix reads its columns alike
    assert_close_to_the_pair_scan(M[:, : n // 2 + 1])


@pytest.mark.parametrize("M", [
    np.zeros((1, 1)), np.ones((1, 3)), np.eye(2), np.array([[0.2, 0.8], [0.2, 0.8]]),
    np.eye(3), np.ones((3, 3)) / 3, np.array([[1.0, 0, 0], [0.5, 0.5, 0], [0, 0, 1.0]]),
    np.zeros((3, 3)),
], ids=lambda M: f"{M.shape[0]}x{M.shape[1]}")
def test_tiny_matrices(monkeypatch, M):
    monkeypatch.setattr(norms, "_SHARED_WORK", np.inf)
    assert_close_to_the_pair_scan(M)
    assert ergodicity_coefficient(M) == 0.5 * float(pair_scan_maxima(M).max(initial=0.0))


def test_a_signed_matrix_keeps_the_pair_scan():
    M = np.eye(5)
    M[0, 1] = -1e-300
    assert norms._shared_column_maxima(M) is None


def test_identical_sparse_rows_give_zero():
    M = np.zeros((400, 400))
    M[:, 3] = 1.0
    assert norms._shared_column_maxima(M).tolist() == [0.0] * 399
    assert ergodicity_coefficient(M) == 0.0


def pair_scan_only(monkeypatch):
    monkeypatch.setattr(mcperturb.dtmc, "_shared_column_maxima", lambda M: None)


def outcome(call):
    """The value a bound reports, or the detail of its failed hypothesis."""
    try:
        return call()
    except HypothesisFailed as exc:
        return exc.detail


def stop_row(detail):
    return int(detail.rsplit("(row ", 1)[1].rstrip(")"))


def test_both_routes_stop_at_the_same_row(monkeypatch):
    """Random sparse chains and their squares: each bound passes or fails
    alike on both routes, a failure names the same row with a value within
    round-off, and the cases cover a pass, a stop at row 0 and a later one."""
    seen = set()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        P = StochasticMatrix(sparse_irreducible_chain(rng, n, rng.choice([0.02, 0.1, 0.3])))
        for call in (lambda: seneta_bound(P).ell, lambda: skeleton_bound(P, P, 2).info["lambda1_Pm"]):
            got = outcome(call)
            with monkeypatch.context() as m:
                pair_scan_only(m)
                want = outcome(call)
            assert type(got) is type(want)
            if isinstance(want, str):
                assert stop_row(got) == stop_row(want)
                value = lambda detail: float(detail.split(">= ")[1].split(" ")[0])
                assert value(got) == pytest.approx(value(want), rel=0, abs=1e-11)
                seen.add("row 0" if stop_row(want) == 0 else "later row")
            else:
                assert got == pytest.approx(want, rel=8 * n * U)
                seen.add("pass")
    assert seen == {"pass", "row 0", "later row"}


def test_a_later_stop_names_the_first_disproving_row(monkeypatch):
    # every row shares a column with every other, but rows 7 and 30, which
    # share none with each other, so row 7 is the first to disprove Lambda1(P) < 1
    n = 400
    P = np.eye(n) / 3
    P[:, :2] += 1.0 / 3
    P[7], P[30] = np.eye(n)[1], np.eye(n)[0]
    P[0] = 1.0 / n
    calls = []
    shared = norms._shared_column_maxima
    monkeypatch.setattr(mcperturb.dtmc, "_shared_column_maxima",
                        lambda M: calls.append(M.shape) or shared(M))
    with pytest.raises(HypothesisFailed) as exc:
        seneta_bound(StochasticMatrix(P))
    assert calls == [(n, n)]
    assert shared(P) is not None
    assert exc.value.detail == "Lambda1(P) >= 1 (row 7)"
    pair_scan_only(monkeypatch)
    with pytest.raises(HypothesisFailed) as dense:
        seneta_bound(StochasticMatrix(P))
    assert dense.value.detail == exc.value.detail


def test_a_stop_at_row_0_forms_no_overlap_matrix(monkeypatch):
    P = geometric_return(truncation=400).chain
    calls = []
    monkeypatch.setattr(mcperturb.dtmc, "_shared_column_maxima",
                        lambda M: calls.append(M.shape))
    with pytest.raises(HypothesisFailed, match=r"\(row 0\)$"):
        seneta_bound(P)
    assert calls == []
