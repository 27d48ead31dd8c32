"""Knot vectors, dyadic refinement and the two-scale machinery."""

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersplines import univariate
from hiersplines.errors import KnotVectorError, RefinementMismatchError
from hiersplines.univariate import (
    KnotVector,
    LocalKnotVector,
    as_knot,
    children_table,
    dyadic_refine,
    is_child_of,
    make_open_knot_vector,
    parent_table,
    uniform_open_knot_vector,
)

from .conftest import random_refinement
from .oracles import bspline_value_exact, local_values, oslo_children


class TestKnotVector:
    def test_valid_construction(self):
        kv = make_open_knot_vector(2, ["0", "1/2", "1"])
        assert kv.num_basis == 4
        assert kv.breakpoints.multiplicities == (3, 1, 3)

    def test_rejects_wrong_end_multiplicity(self):
        with pytest.raises(KnotVectorError):
            KnotVector(2, (0, 0, 1, 2, 2, 2), 2)

    def test_rejects_decreasing(self):
        with pytest.raises(KnotVectorError):
            KnotVector(1, (0, 0, 2, 1, 4, 4), 4)

    def test_rejects_numerators_sharing_a_factor_with_the_denominator(self):
        # the stored form is unique: 1/2 is (1, 2), never (2, 4)
        with pytest.raises(KnotVectorError, match="share a factor"):
            KnotVector(1, (0, 0, 2, 4, 4), 4)

    def test_rejects_excess_internal_multiplicity(self):
        with pytest.raises(KnotVectorError):
            make_open_knot_vector(1, ["0", "1/2", "1"], [2, 3, 2])

    def test_rejects_too_few_functions(self):
        with pytest.raises(KnotVectorError):
            KnotVector(2, (0, 0, 0, 1, 1), 1)

    def test_interval_support_extension(self):
        kv = uniform_open_knot_vector(2, 8)
        cell = kv.intervals[4]
        assert cell.extension == (F(2, 8), F(7, 8))
        # boundary interval is clipped by the repeated end knots
        assert kv.intervals[0].extension == (F(0), F(3, 8))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       "1/0", "abc", True, None],
                             ids=["nan", "inf", "-inf", "zero-denominator", "word", "bool",
                                  "none"])
    def test_refuses_values_that_are_no_knot(self, value):
        message = f"^{re.escape(f'cannot interpret {value!r} as a knot')}$"
        with pytest.raises(KnotVectorError, match=message):
            as_knot(value)
        with pytest.raises(KnotVectorError, match=message):
            make_open_knot_vector(1, [0, value, 1])

    @pytest.mark.parametrize("intervals", [2.5, True, "4", 4.0, 0, -1])
    def test_uniform_refuses_a_count_that_is_no_positive_integer(self, intervals):
        with pytest.raises(KnotVectorError, match=f"got {intervals!r}$"):
            uniform_open_knot_vector(2, intervals)

    def test_uniform_takes_numpy_integers(self):
        assert uniform_open_knot_vector(2, np.int64(3)) == uniform_open_knot_vector(2, 3)

    @pytest.mark.parametrize("kv", [uniform_open_knot_vector(2, 6),
                                    make_open_knot_vector(3, ["0", "1/8", "1/3", "1/2", "1"],
                                                          [4, 2, 1, 4, 4])],
                             ids=["uniform", "repeated"])
    def test_integer_knots_and_mesh_size(self, kv):
        knots, d = kv.knot_numerators, kv.knot_denominator
        assert [F(k, d) for k in knots] == list(kv.knots)
        assert d == lcm(*(k.denominator for k in kv.knots))
        assert kv.max_interval_length == max(c.right - c.left for c in kv.intervals)

    def test_quasi_uniformity_diagnostic(self):
        # intervals 1/8, 3/8, 1/2: adjacent ratios 3 and 4/3
        kv = make_open_knot_vector(1, ["0", "1/8", "1/2", "1"])
        assert kv.quasi_uniformity == pytest.approx(3.0)


def _value_at(local, x):
    return float(local_values(local, [x])[0])


class TestEvalBspline:
    def test_hat_peak(self):
        local = LocalKnotVector(1, (F(0), F(1, 2), F(1)))
        assert _value_at(local, 0.5) == 1.0

    def test_uniform_quadratic_midpoint(self):
        # frozen from the exact recursion on {0, 1/3, 2/3, 1} at x = 1/2
        local = LocalKnotVector(2, (F(0), F(1, 3), F(2, 3), F(1)))
        assert _value_at(local, 0.5) == pytest.approx(0.75, abs=1e-15)
        assert bspline_value_exact(local.knots, F(1, 2)) == F(3, 4)

    def test_outside_support(self):
        local = LocalKnotVector(2, (F(0), F(0), F(0), F(1, 2)))
        assert _value_at(local, 0.75) == 0.0

    def test_right_end_left_limit(self):
        kv = uniform_open_knot_vector(2, 4)
        last = kv.local(kv.num_basis - 1)
        assert _value_at(last, 1.0) == 1.0

    def test_matches_exact_oracle_at_rationals(self):
        kv = make_open_knot_vector(3, ["0", "1/4", "1/2", "3/4", "1"],
                                   [4, 1, 2, 1, 4])
        for j in range(kv.num_basis):
            local = kv.local(j)
            for x in [F(k, 13) for k in range(14)]:
                want = float(bspline_value_exact(local.knots, x))
                assert _value_at(local, float(x)) == pytest.approx(want, abs=1e-14)


class TestDyadicRefine:
    def test_midpoint_insertion(self):
        kv = make_open_knot_vector(1, ["0", "1/2", "1"])
        out = dyadic_refine(kv)
        assert out.knots == tuple(map(F, "0 0 1/4 1/2 3/4 1 1".split()))

    def test_multiplicity_preserved(self):
        kv = KnotVector(2, (0, 0, 0, 1, 1, 2, 2, 2), 2)
        out = dyadic_refine(kv)
        assert out.knots == tuple(map(F, "0 0 0 1/4 1/2 1/2 3/4 1 1 1".split()))

    def test_mesh_size_halves(self):
        kv = uniform_open_knot_vector(2, 4)
        out = dyadic_refine(kv)
        assert out.max_interval_length == kv.max_interval_length / 2

    def test_nested(self):
        kv = make_open_knot_vector(2, ["0", "1/3", "1"])
        assert dyadic_refine(kv).contains_as_subsequence(kv)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_contains_as_subsequence_matches_bisection(self, degree):
        # two chains of random refinements, multiplicities raised up to
        # degree+1, compared pairwise in both directions
        rng = np.random.default_rng(degree)
        kvs = []
        for start in (2, 3):
            kv = uniform_open_knot_vector(degree, start)
            kvs.append(kv)
            for _ in range(3):
                kv = random_refinement(rng, kv)
                kvs.append(kv)

        def by_bisection(fine, coarse):
            bp = coarse.breakpoints
            return all(bisect_right(fine.knots, v) - bisect_left(fine.knots, v) >= m
                       for v, m in zip(bp.values, bp.multiplicities))

        verdicts = [(a.contains_as_subsequence(b), by_bisection(a, b))
                    for a in kvs for b in kvs]
        assert all(got == want for got, want in verdicts)
        assert {want for _, want in verdicts} == {False, True}


class TestChildren:
    def test_linear_interior_mask(self):
        kv = uniform_open_knot_vector(1, 4)
        fine = dyadic_refine(kv)
        kids = children_table(kv, fine)[1]
        assert [c for _, c in kids] == [F(1, 2), F(1), F(1, 2)]
        assert [i for i, _ in kids] == [1, 2, 3]

    def test_quadratic_interior_mask(self):
        kv = uniform_open_knot_vector(2, 8)
        fine = dyadic_refine(kv)
        kids = children_table(kv, fine)[4]
        assert [c for _, c in kids] == [F(1, 4), F(3, 4), F(3, 4), F(1, 4)]

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_interior_mask_is_scaled_binomial(self, degree):
        kv = uniform_open_knot_vector(degree, 8)
        fine = dyadic_refine(kv)
        j = kv.num_basis // 2
        kids = children_table(kv, fine)[j]
        masks = [F(comb(degree + 1, k), 2 ** degree)
                 for k in range(degree + 2)]
        assert [c for _, c in kids] == masks

    def test_boundary_single_insertion(self):
        kv = uniform_open_knot_vector(2, 1)
        fine = dyadic_refine(kv)
        kids = children_table(kv, fine)[0]
        assert [(tuple(map(str, fine.local(i).knots)), c) for i, c in kids] == [
            (("0", "0", "0", "1/2"), F(1)),
            (("0", "0", "1/2", "1"), F(1, 2)),
        ]

    def test_pointwise_reproduction(self):
        kv = make_open_knot_vector(2, ["0", "1/4", "1/2", "3/4", "1"],
                                   [3, 2, 1, 1, 3])
        fine = dyadic_refine(kv)
        xs = np.random.default_rng(2).random(1000)
        for j in range(kv.num_basis):
            acc = np.zeros_like(xs)
            for i, c in children_table(kv, fine)[j]:
                acc += float(c) * local_values(fine.local(i), xs)
            assert np.abs(local_values(kv.local(j), xs) - acc).max() < 1e-12

    def test_exact_reproduction_at_rationals(self):
        kv = uniform_open_knot_vector(3, 4)
        fine = dyadic_refine(kv)
        kids = children_table(kv, fine)[2]
        for x in [F(k, 7) for k in range(8)]:
            want = bspline_value_exact(kv.local(2).knots, x)
            got = sum(c * bspline_value_exact(fine.local(i).knots, x)
                      for i, c in kids)
            assert got == want

    def test_refinement_mismatch_raises(self):
        kv = uniform_open_knot_vector(1, 4)
        other = uniform_open_knot_vector(1, 3)
        with pytest.raises(RefinementMismatchError):
            children_table(kv, other)

    def test_child_supports_inside_parent(self):
        kv = uniform_open_knot_vector(3, 5)
        fine = dyadic_refine(kv)
        for j in range(kv.num_basis):
            parent = kv.local(j).knots
            for i, c in children_table(kv, fine)[j]:
                assert c > 0
                child = fine.local(i).knots
                assert parent[0] <= child[0] and child[-1] <= parent[-1]


class TestParents:
    def test_mutual_consistency(self):
        kv = make_open_knot_vector(2, ["0", "1/4", "1/2", "3/4", "1"],
                                   [3, 1, 2, 1, 3])
        fine = dyadic_refine(kv)
        children = {j: {i for i, _ in row} for j, row in enumerate(children_table(kv, fine))}
        for i in range(fine.num_basis):
            parents = set(parent_table(kv, fine)[i])
            derived = {j for j, kids in children.items() if i in kids}
            assert parents == derived

    def test_characterization_endpoint_multiplicity(self):
        parent = LocalKnotVector(2, (F(0), F(0), F(0), F(1, 2)))
        inside = LocalKnotVector(2, (F(0), F(0), F(1, 4), F(1, 2)))
        too_many = LocalKnotVector(2, (F(0), F(1, 2), F(1, 2), F(1, 2)))
        assert is_child_of(inside, parent)
        assert not is_child_of(too_many, parent)


def _parents_by_full_scan(child, coarse):
    """Reference: every coarse function tested with the endpoint route."""
    return [j for j in range(coarse.num_basis) if is_child_of(child, coarse.local(j))]


def _random_pairs(n):
    """Coarse/fine pairs: one random refinement of a random knot vector,
    and a refinement of that refinement (a two-step jump)."""
    rng = np.random.default_rng(61)
    for k in range(n):
        degree = int(rng.integers(1, 4))
        coarse = random_refinement(
            rng, uniform_open_knot_vector(degree, int(rng.integers(1, 4))))
        fine = random_refinement(rng, coarse)
        yield pytest.param(coarse, fine, id=f"p{degree}-{k}-one-step")
        yield pytest.param(coarse, random_refinement(rng, fine),
                           id=f"p{degree}-{k}-two-step")


RANDOM_PAIRS = list(_random_pairs(20))


class TestTwoScaleRandom:
    @pytest.mark.parametrize("coarse,fine", RANDOM_PAIRS)
    def test_children_reproduce_parent_exactly(self, coarse, fine):
        p = fine.degree
        xs = [F(0), F(1)]
        for cell in fine.intervals:
            xs.extend(cell.left + (cell.right - cell.left) * F(k, p + 3) for k in range(1, p + 3))
        for j, row in enumerate(children_table(coarse, fine)):
            kids = [(fine.local(i).knots, c) for i, c in row]
            assert kids and all(c > 0 for _, c in kids)
            for x in xs:
                # a B-spline vanishes outside its closed support
                got = sum(c * bspline_value_exact(knots, x) for knots, c in kids
                          if knots[0] <= x <= knots[-1])
                assert got == bspline_value_exact(coarse.local(j).knots, x), (j, x)

    @pytest.mark.parametrize("coarse,fine", RANDOM_PAIRS)
    def test_parents_are_the_transpose_of_children(self, coarse, fine):
        children = {j: {i for i, _ in row} for j, row in enumerate(children_table(coarse, fine))}
        for i, parents in enumerate(parent_table(coarse, fine)):
            assert list(parents) == _parents_by_full_scan(fine.local(i), coarse)
            assert set(parents) == {j for j, kids in children.items() if i in kids}

    @pytest.mark.parametrize("coarse,fine", RANDOM_PAIRS)
    def test_table_rows_equal_direct_oslo_runs(self, coarse, fine):
        table = children_table(coarse, fine)
        assert len(table) == coarse.num_basis
        for j, row in enumerate(table):
            want = oslo_children(coarse.local(j), fine)
            assert [i for i, _ in row] == [i for i, _ in want]
            assert [c for _, c in row] == [c for _, c in want]
            assert all(type(c) is F for _, c in row)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_oslo_runs_once_per_local_knot_pattern(degree):
    """On a uniform knot vector only the p+1 functions at each end see a
    repeated knot; every other function shares one interior pattern. The
    patterns are scale-free, so a finer uniform pair runs none anew."""
    univariate._oslo_run.cache_clear()
    coarse = uniform_open_knot_vector(degree, 64)
    table = children_table(coarse, dyadic_refine(coarse))
    assert univariate._oslo_run.cache_info().misses == 2 * (degree + 1) + 1
    interior = [[(i - 2 * j, c) for i, c in row] for j, row in enumerate(table)]
    assert all(row == interior[degree + 1] for row in interior[degree + 1:-(degree + 1)])
    coarse = uniform_open_knot_vector(degree, 128)
    children_table(coarse, dyadic_refine(coarse))
    assert univariate._oslo_run.cache_info().misses == 2 * (degree + 1) + 1


@settings(max_examples=30, deadline=None)
@given(degree=st.integers(1, 3), intervals=st.integers(1, 5),
       steps=st.integers(1, 2), seed=st.integers(0, 2**31 - 1))
def test_two_scale_property_random(degree, intervals, steps, seed):
    kv = uniform_open_knot_vector(degree, intervals)
    fine = kv
    for _ in range(steps):
        fine = dyadic_refine(fine)
    xs = np.random.default_rng(seed).random(50)
    for j, row in enumerate(children_table(kv, fine)):
        acc = np.zeros_like(xs)
        for i, c in row:
            assert c > 0
            acc += float(c) * local_values(fine.local(i), xs)
        assert np.abs(local_values(kv.local(j), xs) - acc).max() < 1e-12
