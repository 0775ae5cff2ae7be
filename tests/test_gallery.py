import numpy as np
import pytest

from mcperturb import InvalidParameters
from mcperturb.gallery import (
    _takes_truncation,
    batch_arrival,
    birth_death,
    build_model,
    funderlic8,
    geometric_return,
    hessenberg_gi_m_1,
    list_models,
    meyer4,
    mm1,
    odd_even,
)


def test_funderlic_entries_exact():
    P = funderlic8().chain.entries
    assert P[4, 7] == 0.088
    assert P[7, 0] == 0.15
    assert P[1, 1] == 0.689
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=0)


def test_meyer_entries_exact():
    P = meyer4().chain.entries
    np.testing.assert_allclose(
        4 * P, [[0, 2, 2, 0], [2, 0, 2, 0], [2, 1, 0, 1], [1, 1, 1, 1]], atol=0
    )
    assert meyer4().chain.aperiodic


def test_hessenberg_structure():
    model = hessenberg_gi_m_1(truncation=30, base=0.3, ratio=0.5)
    P = model.chain.entries
    # row i: climbing weights a_0.. placed from column i+1 leftward
    assert P[0, 1] == pytest.approx(0.3)
    assert P[3, 4] == pytest.approx(0.3)
    assert P[3, 3] == pytest.approx(0.15)
    assert P[3, 1] == pytest.approx(0.0375)
    assert model.chain.irreducible
    assert model.chain.aperiodic
    # drop-to-zero mass is at least 1 - sum of arrival weights
    assert P[:, 0].min() >= 1 - model.extras["arrival_weight_sum"] - 1e-12


def test_hessenberg_parameter_validation():
    with pytest.raises(InvalidParameters):
        hessenberg_gi_m_1(base=0.6, ratio=0.5)  # weights sum to 1.2


def test_odd_even_rules():
    model = odd_even(p=0.3, truncation=50)
    P = model.chain.entries
    assert P[0, 0] == pytest.approx(0.3)
    assert P[0, 1] == pytest.approx(0.7)
    assert P[3, 0] == pytest.approx(0.3)      # odd resets to 0
    assert P[4, 1] == pytest.approx(0.3)      # even feeds 1
    assert P[3, 4] == pytest.approx(0.7)
    assert model.chain.aperiodic


def test_odd_even_periodic_variant():
    model = odd_even(p=0.5, truncation=200, periodic=True)
    P = model.chain.entries
    assert P[0, 1] == 1.0
    assert model.chain.period == 2
    # odd truncation level is bumped to keep the boundary wrap parity-safe
    bumped = odd_even(p=0.5, truncation=199, periodic=True)
    assert bumped.chain.n == 200
    assert bumped.chain.period == 2


def test_geometric_return_structure():
    model = geometric_return(p=0.4, truncation=50)
    P = model.chain.entries
    assert P[0, 1] == 1.0
    assert P[7, 0] == pytest.approx(0.4)
    assert P[7, 8] == pytest.approx(0.6)
    assert P[49, 49] == pytest.approx(0.6)    # boundary self-loop
    assert model.chain.irreducible


def test_birth_death_scalar_and_vector():
    m1 = birth_death(n=5, a=0.3, b=0.3, c=0.4)
    P = m1.chain.entries
    assert P[0, 0] == pytest.approx(0.7)
    assert P[2, 1] == pytest.approx(0.3)
    assert P[5, 5] == pytest.approx(0.7)
    a = np.r_[0.0, np.full(4, 0.5), 1.0]
    b = np.r_[1.0, np.full(4, 0.5), 0.0]
    m2 = birth_death(n=5, a=a, b=b, c=1 - a - b)
    assert m2.chain.period == 2


def test_mm1_structure():
    model = mm1(sigma=1.0, mu=4.0, truncation=40)
    Q = model.chain.entries
    assert Q[0, 0] == -1.0
    assert Q[0, 1] == 1.0
    assert Q[5, 4] == 4.0
    assert Q[5, 5] == -5.0
    assert Q[5, 6] == 1.0
    # boundary: climb rate folds into column 0
    assert Q[39, 0] == 1.0
    np.testing.assert_allclose(Q.sum(axis=1), 0.0, atol=1e-13)
    with pytest.raises(InvalidParameters):
        mm1(sigma=4.0, mu=1.0)


def test_batch_arrival_band_placement():
    a = np.array([-1.2, 1.0, 0.2])
    b = np.array([3.0, -3.5, 0.3, 0.2])
    model = batch_arrival(a, b, truncation=30)
    Q = model.chain.entries
    np.testing.assert_allclose(Q[0, :3], a)
    np.testing.assert_allclose(Q[4, 3:7], b)
    np.testing.assert_allclose(Q.sum(axis=1), 0.0, atol=1e-13)
    assert model.chain.irreducible


def test_registry_and_parser():
    assert "mm1" in list_models()
    assert "odd-even-p" in list_models()
    m = build_model("mm1(1, 4)", truncation=25)
    assert m.chain.n == 25
    assert m.params == {"sigma": 1, "mu": 4}
    m = build_model("geometric-return(0.25)")
    assert m.params["p"] == 0.25
    with pytest.raises(InvalidParameters):
        build_model("unknown-model")
    with pytest.raises(InvalidParameters):
        build_model("mm1(bad syntax !)")
    with pytest.raises(InvalidParameters):
        build_model("meyer4", truncation=10)


def test_truncation_is_rejected_by_any_factory_without_the_parameter(monkeypatch):
    # the rule is read from the factory's signature, so a new fixed-size
    # model needs no entry in a hard-coded list
    from mcperturb import gallery

    monkeypatch.setitem(gallery.GALLERY, "fixed-size", lambda k=2: meyer4())
    assert build_model("fixed-size(3)").chain.n == 4
    with pytest.raises(InvalidParameters, match="does not take a truncation level"):
        build_model("fixed-size", truncation=10)
    for name in ("funderlic8", "meyer4", "birth-death"):
        with pytest.raises(InvalidParameters):
            build_model(name, truncation=10)
    for name in ("hessenberg-gi-m-1", "odd-even-p", "geometric-return", "batch-arrival", "mm1"):
        assert build_model(name, truncation=12).truncation == 12


# the smallest size each truncatable model builds
SMALLEST = {"hessenberg-gi-m-1": 1, "odd-even-p": 2, "geometric-return": 2,
            "batch-arrival": 4, "mm1": 3}


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_a_truncation_is_an_integer_size_the_model_can_take(name):
    assert set(SMALLEST) == {m for m in list_models() if _takes_truncation(m)}
    least = SMALLEST[name]
    for truncation in (-1, 0, 1, 1.5, True, least - 1, least):
        if type(truncation) is int and truncation >= least:
            assert build_model(name, truncation=truncation).chain.n == truncation
        else:
            with pytest.raises(InvalidParameters,
                               match=rf"truncation must be an integer of at least {least}, "
                                     rf"got {truncation}"):
                build_model(name, truncation=truncation)
