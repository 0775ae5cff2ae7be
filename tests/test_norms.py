import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcperturb import (
    ValidationError,
    WeightFunction,
    matrix_norm,
    total_variation_norm,
    v_norm_matrix,
    v_norm_measure,
    v_norm_vector,
)


def brute_measure(mu, V):
    return sum(abs(m) * v for m, v in zip(mu, V))


def brute_vector(x, V):
    return max(abs(xi) / vi for xi, vi in zip(x, V))


def brute_matrix(L, V):
    return max(
        sum(abs(L[i][j]) * V[j] for j in range(len(V))) / V[i] for i in range(len(V))
    )


def test_zero_measure():
    assert total_variation_norm(np.zeros(4)) == 0.0


def test_signed_measure_sum():
    assert total_variation_norm([0.2, -0.2]) == pytest.approx(0.4, abs=1e-15)


def test_accumulation_order_oracle():
    rng = np.random.default_rng(3)
    mu = rng.normal(size=57)
    # independent order: sort ascending by magnitude before summing
    oracle = float(np.sort(np.abs(mu)).sum())
    assert total_variation_norm(mu) == pytest.approx(oracle, rel=1e-14)


def test_unit_weights_reduce_to_plain_norms():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=5)
    x = rng.normal(size=5)
    L = rng.normal(size=(5, 5))
    ones = np.ones(5)
    assert v_norm_measure(mu, ones) == pytest.approx(total_variation_norm(mu))
    assert v_norm_vector(x, ones) == pytest.approx(np.abs(x).max())
    assert v_norm_matrix(L, ones) == pytest.approx(matrix_norm(L))


def test_weighted_measure_example():
    assert v_norm_measure([1.0, -1.0], [2.0, 3.0]) == pytest.approx(5.0, abs=1e-15)


def test_weight_function_object_accepted():
    w = WeightFunction([2.0, 3.0])
    assert v_norm_measure([1.0, -1.0], w) == pytest.approx(5.0)


@pytest.mark.parametrize("norm", [v_norm_measure, v_norm_vector, v_norm_matrix])
def test_weight_arrays_are_validated_as_weight_functions(norm):
    arg = [[1.0, 0.0], [0.0, 1.0]] if norm is v_norm_matrix else [1.0, -1.0]
    with pytest.raises(ValidationError, match=r"^weight 0\.000e\+00 at state 1 is not positive$"):
        norm(arg, [1.0, 0.0])
    with pytest.raises(ValidationError, match="^weight function must be a finite"):
        norm(arg, [1.0, np.inf])


def test_brute_force_agreement():
    rng = np.random.default_rng(7)
    V = np.array([1.0, 2.0, 4.0, 8.0])
    L = rng.normal(size=(4, 4))
    mu = rng.normal(size=4)
    x = rng.normal(size=4)
    assert v_norm_measure(mu, V) == pytest.approx(brute_measure(mu, V), rel=1e-14)
    assert v_norm_vector(x, V) == pytest.approx(brute_vector(x, V), rel=1e-14)
    assert v_norm_matrix(L, V) == pytest.approx(brute_matrix(L, V), rel=1e-14)


def test_submultiplicative_fixed_example():
    rng = np.random.default_rng(42)
    V = np.array([1.0, 2.0, 4.0, 8.0])
    A = rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4))
    assert v_norm_matrix(A @ B, V) <= v_norm_matrix(A, V) * v_norm_matrix(B, V) + 1e-12


finite_floats = st.floats(min_value=-5, max_value=5, allow_nan=False)
positive_floats = st.floats(min_value=0.1, max_value=10, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    A=arrays(np.float64, (4, 4), elements=finite_floats),
    B=arrays(np.float64, (4, 4), elements=finite_floats),
    V=arrays(np.float64, (4,), elements=positive_floats),
)
def test_submultiplicativity_property(A, B, V):
    lhs = v_norm_matrix(A @ B, V)
    rhs = v_norm_matrix(A, V) * v_norm_matrix(B, V)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    mu=arrays(np.float64, (4,), elements=finite_floats),
    L=arrays(np.float64, (4, 4), elements=finite_floats),
    x=arrays(np.float64, (4,), elements=finite_floats),
    V=arrays(np.float64, (4,), elements=positive_floats),
)
def test_triple_product_property(mu, L, x, V):
    lhs = abs(float(mu @ L @ x))
    rhs = v_norm_measure(mu, V) * v_norm_matrix(L, V) * v_norm_vector(x, V)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12
