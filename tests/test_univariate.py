"""Knot vectors, dyadic refinement and the two-scale machinery."""

from fractions import Fraction as F
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersplines.errors import KnotVectorError, RefinementMismatchError
from hiersplines.univariate import (
    KnotVector,
    LocalKnotVector,
    children_with_coefficients,
    dyadic_refine,
    is_child_of,
    make_open_knot_vector,
    parents_of,
    uniform_open_knot_vector,
)

from .oracles import bspline_value_exact


class TestKnotVector:
    def test_valid_construction(self):
        kv = make_open_knot_vector(2, ["0", "1/2", "1"])
        assert kv.num_basis == 4
        assert kv.breakpoints.multiplicities == (3, 1, 3)

    def test_rejects_wrong_end_multiplicity(self):
        with pytest.raises(KnotVectorError):
            KnotVector(2, tuple(map(F, "0 0 1/2 1 1 1".split())))

    def test_rejects_decreasing(self):
        with pytest.raises(KnotVectorError):
            KnotVector(1, (F(0), F(0), F(1, 2), F(1, 4), F(1), F(1)))

    def test_rejects_excess_internal_multiplicity(self):
        with pytest.raises(KnotVectorError):
            make_open_knot_vector(1, ["0", "1/2", "1"], [2, 3, 2])

    def test_rejects_too_few_functions(self):
        with pytest.raises(KnotVectorError):
            KnotVector(2, (F(0), F(0), F(0), F(1), F(1), F(1))[:5])

    def test_interval_support_extension(self):
        kv = uniform_open_knot_vector(2, 8)
        cell = kv.intervals[4]
        assert cell.extension == (F(2, 8), F(7, 8))
        # boundary interval is clipped by the repeated end knots
        assert kv.intervals[0].extension == (F(0), F(3, 8))

    def test_quasi_uniformity_diagnostic(self):
        # intervals 1/8, 3/8, 1/2: adjacent ratios 3 and 4/3
        kv = make_open_knot_vector(1, ["0", "1/8", "1/2", "1"])
        assert kv.quasi_uniformity == pytest.approx(3.0)


class TestEvalBspline:
    def test_hat_peak(self):
        local = LocalKnotVector(1, (F(0), F(1, 2), F(1)))
        assert local.value_at(0.5) == 1.0

    def test_uniform_quadratic_midpoint(self):
        # frozen from the exact recursion on {0, 1/3, 2/3, 1} at x = 1/2
        local = LocalKnotVector(2, (F(0), F(1, 3), F(2, 3), F(1)))
        assert local.value_at(0.5) == pytest.approx(0.75, abs=1e-15)
        assert bspline_value_exact(local.knots, F(1, 2)) == F(3, 4)

    def test_outside_support(self):
        local = LocalKnotVector(2, (F(0), F(0), F(0), F(1, 2)))
        assert local.value_at(0.75) == 0.0

    def test_right_end_left_limit(self):
        kv = uniform_open_knot_vector(2, 4)
        last = kv.local(kv.num_basis - 1)
        assert last.value_at(1.0) == 1.0

    def test_matches_exact_oracle_at_rationals(self):
        kv = make_open_knot_vector(3, ["0", "1/4", "1/2", "3/4", "1"],
                                   [4, 1, 2, 1, 4])
        for j in range(kv.num_basis):
            local = kv.local(j)
            for x in [F(k, 13) for k in range(14)]:
                want = float(bspline_value_exact(local.knots, x))
                assert local.value_at(float(x)) == pytest.approx(want, abs=1e-14)


class TestDyadicRefine:
    def test_midpoint_insertion(self):
        kv = make_open_knot_vector(1, ["0", "1/2", "1"])
        out = dyadic_refine(kv)
        assert out.knots == tuple(map(F, "0 0 1/4 1/2 3/4 1 1".split()))

    def test_multiplicity_preserved(self):
        kv = KnotVector(2, tuple(map(F, "0 0 0 1/2 1/2 1 1 1".split())))
        out = dyadic_refine(kv)
        assert out.knots == tuple(map(F, "0 0 0 1/4 1/2 1/2 3/4 1 1 1".split()))

    def test_mesh_size_halves(self):
        kv = uniform_open_knot_vector(2, 4)
        out = dyadic_refine(kv)
        assert out.max_interval_length == kv.max_interval_length / 2

    def test_nested(self):
        kv = make_open_knot_vector(2, ["0", "1/3", "1"])
        assert dyadic_refine(kv).contains_as_subsequence(kv)


class TestChildren:
    def test_linear_interior_mask(self):
        kv = uniform_open_knot_vector(1, 4)
        fine = dyadic_refine(kv)
        kids = children_with_coefficients(kv.local(1), fine)
        assert [c for _, c in kids] == [F(1, 2), F(1), F(1, 2)]
        assert [k.index for k, _ in kids] == [1, 2, 3]

    def test_quadratic_interior_mask(self):
        kv = uniform_open_knot_vector(2, 8)
        fine = dyadic_refine(kv)
        kids = children_with_coefficients(kv.local(4), fine)
        assert [c for _, c in kids] == [F(1, 4), F(3, 4), F(3, 4), F(1, 4)]

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_interior_mask_is_scaled_binomial(self, degree):
        kv = uniform_open_knot_vector(degree, 8)
        fine = dyadic_refine(kv)
        j = kv.num_basis // 2
        kids = children_with_coefficients(kv.local(j), fine)
        masks = [F(comb(degree + 1, k), 2 ** degree)
                 for k in range(degree + 2)]
        assert [c for _, c in kids] == masks

    def test_boundary_single_insertion(self):
        kv = uniform_open_knot_vector(2, 1)
        fine = dyadic_refine(kv)
        kids = children_with_coefficients(kv.local(0), fine)
        assert [(tuple(map(str, k.knots)), c) for k, c in kids] == [
            (("0", "0", "0", "1/2"), F(1)),
            (("0", "0", "1/2", "1"), F(1, 2)),
        ]

    def test_pointwise_reproduction(self):
        kv = make_open_knot_vector(2, ["0", "1/4", "1/2", "3/4", "1"],
                                   [3, 2, 1, 1, 3])
        fine = dyadic_refine(kv)
        xs = np.random.default_rng(2).random(1000)
        for j in range(kv.num_basis):
            parent = kv.local(j)
            kids = children_with_coefficients(parent, fine)
            acc = np.zeros_like(xs)
            for child, c in kids:
                acc += float(c) * child.evaluate(xs)
            assert np.abs(parent.evaluate(xs) - acc).max() < 1e-12

    def test_exact_reproduction_at_rationals(self):
        kv = uniform_open_knot_vector(3, 4)
        fine = dyadic_refine(kv)
        parent = kv.local(2)
        kids = children_with_coefficients(parent, fine)
        for x in [F(k, 7) for k in range(8)]:
            want = bspline_value_exact(parent.knots, x)
            got = sum(c * bspline_value_exact(child.knots, x)
                      for child, c in kids)
            assert got == want

    def test_refinement_mismatch_raises(self):
        kv = uniform_open_knot_vector(1, 4)
        other = uniform_open_knot_vector(1, 3)
        with pytest.raises(RefinementMismatchError):
            children_with_coefficients(kv.local(1), other)

    def test_child_supports_inside_parent(self):
        kv = uniform_open_knot_vector(3, 5)
        fine = dyadic_refine(kv)
        for j in range(kv.num_basis):
            parent = kv.local(j)
            lo, hi = parent.support
            for child, c in children_with_coefficients(parent, fine):
                assert c > 0
                clo, chi = child.support
                assert lo <= clo and chi <= hi


class TestParents:
    def test_mutual_consistency(self):
        kv = make_open_knot_vector(2, ["0", "1/4", "1/2", "3/4", "1"],
                                   [3, 1, 2, 1, 3])
        fine = dyadic_refine(kv)
        children = {j: {k.index for k, _ in
                        children_with_coefficients(kv.local(j), fine)}
                    for j in range(kv.num_basis)}
        for i in range(fine.num_basis):
            parents = {p.index for p in parents_of(fine.local(i), kv)}
            derived = {j for j, kids in children.items() if i in kids}
            assert parents == derived

    def test_characterization_endpoint_multiplicity(self):
        parent = LocalKnotVector(2, (F(0), F(0), F(0), F(1, 2)))
        inside = LocalKnotVector(2, (F(0), F(0), F(1, 4), F(1, 2)))
        too_many = LocalKnotVector(2, (F(0), F(1, 2), F(1, 2), F(1, 2)))
        assert is_child_of(inside, parent)
        assert not is_child_of(too_many, parent)


@settings(max_examples=30, deadline=None)
@given(degree=st.integers(1, 3), intervals=st.integers(1, 5),
       steps=st.integers(1, 2), seed=st.integers(0, 2**31 - 1))
def test_two_scale_property_random(degree, intervals, steps, seed):
    kv = uniform_open_knot_vector(degree, intervals)
    fine = kv
    for _ in range(steps):
        fine = dyadic_refine(fine)
    xs = np.random.default_rng(seed).random(50)
    for j in range(kv.num_basis):
        parent = kv.local(j)
        kids = children_with_coefficients(parent, fine)
        acc = np.zeros_like(xs)
        for child, c in kids:
            assert c > 0
            acc += float(c) * child.evaluate(xs)
        assert np.abs(parent.evaluate(xs) - acc).max() < 1e-12
