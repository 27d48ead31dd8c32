"""Evaluation conventions and exact-oracle agreement of the kernels."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersplines import kernels
from hiersplines.tensor import iter_box
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
    knots = kv.floats
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
            tau = kv.floats[j:j + kv.degree + 2]
            got = kernels.local_values(tau, kv.degree, xs)
            want = [float(bspline_value_exact(kv.local(j).knots, x))
                    for x in xs_exact]
            assert np.abs(got - np.array(want)).max() < 1e-14


def test_basis_columns_sum_to_one():
    rng = np.random.default_rng(3)
    for kv in _example_knots():
        knots = kv.floats
        xs = np.concatenate([rng.random(200), [0.0, 1.0]])
        spans = kernels.find_spans(knots, kv.degree, xs)
        cols = kernels.basis_columns(knots, kv.degree, xs, spans)
        assert np.abs(cols.sum(axis=1) - 1.0).max() < 1e-14


def test_tensor_kernel_matches_product_of_locals():
    rng = np.random.default_rng(9)
    kvx = uniform_open_knot_vector(2, 4)
    kvy = uniform_open_knot_vector(1, 3)
    coeffs = rng.random(kvx.num_basis * kvy.num_basis)
    pts = rng.random((400, 2))
    got = kernels.tensor_spline_values(coeffs, [kvx.floats, kvy.floats], (2, 1),
                                       points=pts)
    want = np.zeros(400)
    for ix in range(kvx.num_basis):
        vx = kernels.local_values(kvx.floats[ix:ix + 4], 2, pts[:, 0])
        for iy in range(kvy.num_basis):
            vy = kernels.local_values(kvy.floats[iy:iy + 3], 1, pts[:, 1])
            want += coeffs[ix + kvx.num_basis * iy] * vx * vy
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


def _reference_basis(knots, p, xs, spans):
    # the unblocked triangle, column by column
    m = xs.shape[0]
    out = np.ones((m, p + 1))
    left = np.empty((m, p))
    right = np.empty((m, p))
    for j in range(1, p + 1):
        left[:, j - 1] = xs - knots[spans + 1 - j]
        right[:, j - 1] = knots[spans + j] - xs
        saved = np.zeros(m)
        for r in range(j):
            tmp = out[:, r] / (right[:, r] + left[:, j - r - 1])
            out[:, r] = saved + right[:, r] * tmp
            saved = left[:, j - r - 1] * tmp
        out[:, j] = saved
    return out


def _reference_tensor_values(level, coeffs, points):
    # one pass over all points, one full-length weight and index per term
    m, d = points.shape
    strides = [math.prod(level.num_basis[:i]) for i in range(d)]
    offsets_table = list(iter_box([range(p + 1) for p in level.degrees]))
    spans, bases = [], []
    for i in range(d):
        kn = level.kvs[i].floats
        p = level.degrees[i]
        s = kernels.find_spans(kn, p, points[:, i])
        spans.append(s)
        bases.append(_reference_basis(kn, p, points[:, i], s))
    out = np.zeros(m)
    for offsets in offsets_table:
        w = np.ones(m)
        idx = np.zeros(m, dtype=np.int64)
        for i in range(d):
            o = offsets[i]
            w *= bases[i][:, o]
            idx += (spans[i] - level.degrees[i] + o) * strides[i]
        out += w * coeffs[idx]
    return out


def _reference_local_values(tau, p, x):
    at_right = x == 1.0
    n = np.empty((x.shape[0], p + 1))
    for i in range(p + 1):
        half_open = (tau[i] <= x) & (x < tau[i + 1])
        left_limit = (tau[i] < x) & (x <= tau[i + 1])
        n[:, i] = np.where(at_right, left_limit, half_open)
    for k in range(1, p + 1):
        for i in range(p + 1 - k):
            d1 = tau[i + k] - tau[i]
            d2 = tau[i + k + 1] - tau[i + 1]
            acc = np.zeros_like(x)
            if d1 > 0.0:
                acc += (x - tau[i]) / d1 * n[:, i]
            if d2 > 0.0:
                acc += (tau[i + k + 1] - x) / d2 * n[:, i + 1]
            n[:, i] = acc
    return n[:, 0]


def _blocking_level(dim, degree):
    # a double internal knot at 1/3 in every direction
    kv = make_open_knot_vector(degree, ["0", "1/3", "1/2", "1"], [degree + 1, 2, 1, degree + 1])
    from hiersplines.tensor import TensorLevel
    return TensorLevel(0, (kv,) * dim)


def _blocking_points(dim, m, seed):
    pts = np.random.default_rng(seed).random((m, dim))
    # the domain ends and the double knot, each in every direction
    marks = np.array([0.0, 1.0, 1.0 / 3.0])
    for r in range(min(m, 3 * dim)):
        pts[r, r % dim] = marks[r // dim]
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_blocked_evaluation_equals_concatenated_splits(dim, degree):
    from hiersplines.tensor import eval_function
    level = _blocking_level(dim, degree)
    knots = [kv.floats for kv in level.kvs]
    coeffs = np.random.default_rng(degree).uniform(-1.0, 1.0, math.prod(level.num_basis))
    fid = tuple(n // 2 for n in level.num_basis)
    b = kernels.BLOCK
    for m in (1, b - 1, b, b + 1, 3 * b + 7):
        pts = _blocking_points(dim, m, m)
        whole = kernels.tensor_spline_values(coeffs, knots, level.degrees, points=pts)
        single = eval_function(level, fid, pts)
        cuts = sorted({0, m, min(m, 1), m // 3, min(m, b + 5)})
        pieces = list(zip(cuts, cuts[1:]))
        split = np.concatenate([kernels.tensor_spline_values(coeffs, knots, level.degrees,
                                                             points=pts[a:z])
                                for a, z in pieces])
        split_single = np.concatenate([eval_function(level, fid, pts[a:z]) for a, z in pieces])
        assert whole.tobytes() == split.tobytes()
        assert single.tobytes() == split_single.tobytes()
        # the blocked kernels keep the unblocked arithmetic, bit for bit
        assert whole.tobytes() == _reference_tensor_values(level, coeffs, pts).tobytes()
        for kv in level.kvs[:1]:
            for j in range(kv.num_basis):
                tau = kv.floats[j:j + degree + 2]
                got = kernels.local_values(tau, degree, pts[:, 0])
                want = _reference_local_values(tau, degree, pts[:, 0])
                assert got.tobytes() == want.tobytes()
