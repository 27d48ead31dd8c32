"""Evaluation conventions and exact-oracle agreement of the kernels."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersplines import kernels
from hiersplines.univariate import dyadic_refine, make_open_knot_vector, uniform_open_knot_vector

from .oracles import bspline_value_exact


def _example_knots():
    return [
        uniform_open_knot_vector(1, 4),
        uniform_open_knot_vector(2, 5),
        uniform_open_knot_vector(3, 4),
        make_open_knot_vector(2, ["0", "1/5", "1/2", "4/5", "1"], [3, 2, 1, 1, 3]),
    ]


def test_find_spans_conventions():
    kv = make_open_knot_vector(2, ["0", "1/4", "1/2", "1"], [3, 1, 2, 3])
    knots = kv.floats()
    xs = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    spans = kernels.find_spans(knots, 2, xs)
    n = kv.num_basis
    for x, s in zip(xs, spans):
        assert 2 <= s <= n - 1
        if x < 1.0:
            assert knots[s] <= x < knots[s + 1]
        else:
            # the right end evaluates on the last nonempty span
            assert knots[s] < knots[s + 1] == 1.0


def test_local_values_match_exact_oracle():
    rng = np.random.default_rng(5)
    for kv in _example_knots():
        xs_exact = [Fraction(k, 17) for k in range(18)]
        xs = np.array([float(x) for x in xs_exact])
        for j in range(kv.num_basis):
            tau = kv.floats()[j:j + kv.degree + 2]
            got = kernels.local_values(tau, kv.degree, xs, 1.0)
            want = [float(bspline_value_exact(kv.local(j).knots, x))
                    for x in xs_exact]
            assert np.abs(got - np.array(want)).max() < 1e-14


def test_basis_columns_sum_to_one():
    rng = np.random.default_rng(3)
    for kv in _example_knots():
        knots = kv.floats()
        xs = np.concatenate([rng.random(200), [0.0, 1.0]])
        spans = kernels.find_spans(knots, kv.degree, xs)
        cols = kernels.basis_columns(knots, kv.degree, xs, spans)
        assert np.abs(cols.sum(axis=1) - 1.0).max() < 1e-14


def test_tensor_kernel_matches_product_of_locals():
    rng = np.random.default_rng(9)
    kvx = uniform_open_knot_vector(2, 4)
    kvy = uniform_open_knot_vector(1, 3)
    from hiersplines.tensor import TensorLevel, TensorSplineEvaluator
    level = TensorLevel(0, (kvx, kvy))
    ev = TensorSplineEvaluator(level)
    coeffs = rng.random(ev.size)
    pts = rng.random((400, 2))
    got = kernels.tensor_spline_values(coeffs, ev.knots_flat, ev.knot_offsets,
                                    ev.degrees, ev.strides, ev.offsets_table,
                                    pts)
    want = np.zeros(400)
    for ix in range(kvx.num_basis):
        vx = kernels.local_values(kvx.floats()[ix:ix + 4], 2, pts[:, 0], 1.0)
        for iy in range(kvy.num_basis):
            vy = kernels.local_values(kvy.floats()[iy:iy + 3], 1, pts[:, 1], 1.0)
            want += coeffs[ev.linear_index((ix, iy))] * vx * vy
    assert np.abs(got - want).max() < 1e-13


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(1, 3), intervals=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1))
def test_partition_of_unity_random_refined(degree, intervals, seed):
    kv = uniform_open_knot_vector(degree, intervals)
    kv = dyadic_refine(kv)
    xs = np.random.default_rng(seed).random(64)
    total = np.zeros_like(xs)
    for j in range(kv.num_basis):
        total += kv.local(j).evaluate(xs)
    assert np.abs(total - 1.0).max() < 1e-12
