"""Tensor-product levels, nesting, children products and cell geometry."""

from bisect import bisect_left
from fractions import Fraction as F

import numpy as np
import pytest

from hiersplines.errors import NestingError
from hiersplines.tensor import (
    TensorLevel,
    build_level_sequence,
    cell_ancestor,
    cell_descendant_ranges,
    eval_function,
    extend_level_sequence,
    id_sort_key,
    iter_box,
    level_evaluator,
    tensor_children,
    tensor_parents,
)
from hiersplines.univariate import (
    children_with_coefficients,
    make_open_knot_vector,
    uniform_open_knot_vector,
)

from .conftest import FIXTURE_DIR, make_levels, random_explicit_levels, repo_fixture


class TestLevelSequence:
    def test_dyadic_counts(self):
        levels = make_levels(2, 2, 4, 3)
        assert [lv.num_cells for lv in levels] == [(4, 4), (8, 8), (16, 16)]

    def test_single_level(self):
        levels = make_levels(2, 2, 4, 1)
        assert len(levels) == 1

    def test_explicit_nested_ok(self):
        kv0 = uniform_open_knot_vector(2, 2)
        kv1 = make_open_knot_vector(2, ["0", "1/4", "1/2", "1"])
        levels = build_level_sequence([kv0], 2, [(kv1,)])
        assert levels[1].kvs[0] is kv1

    def test_explicit_dropped_knot_rejected(self):
        kv0 = uniform_open_knot_vector(2, 2)
        bad = make_open_knot_vector(2, ["0", "1/4", "3/4", "1"])
        with pytest.raises(NestingError, match="level 1, direction 0"):
            build_level_sequence([kv0], 2, [(bad,)])

    def test_extend_by_dyadic(self):
        levels = make_levels(1, 1, 2, 1)
        out = extend_level_sequence(levels, 3)
        assert [lv.num_cells[0] for lv in out] == [2, 4, 8]


def _item5_levels():
    """Explicit non-uniform levels raising the multiplicity of 1/2 at
    level 1 and of 3/4 at level 2, with a dyadic second direction."""
    x = [make_open_knot_vector(2, ["0", "1/3", "1/2", "1"]),
         make_open_knot_vector(2, ["0", "1/9", "2/9", "1/3", "1/2", "3/4", "1"],
                               [3, 1, 1, 1, 2, 1, 3]),
         make_open_knot_vector(2, ["0", "1/27", "1/9", "2/9", "1/3", "1/2", "5/8",
                                   "3/4", "1"], [3, 1, 1, 1, 1, 3, 1, 2, 3])]
    y = [uniform_open_knot_vector(1, 2 ** ell) for ell in range(3)]
    return build_level_sequence([x[0], y[0]], 3, [(x[1], y[1]), (x[2], y[2])])


class TestParentMaps:
    LEVELS = [_item5_levels()] + [
        random_explicit_levels(np.random.default_rng(seed), [
            uniform_open_knot_vector(p, m) for p, m in ((1, 3), (3, 2))], 4)
        for seed in range(3)]

    @pytest.mark.parametrize("case", range(len(LEVELS)))
    def test_maps_match_interval_containment(self, case):
        levels = self.LEVELS[case]
        for fine in range(1, len(levels)):
            for coarse in range(fine):
                for i in range(levels[0].dim):
                    cells_f = levels[fine].kvs[i].intervals
                    cells_c = levels[coarse].kvs[i].intervals
                    inside = {c.index: [f.index for f in cells_f
                                        if c.left <= f.left and f.right <= c.right]
                              for c in cells_c}
                    for c, kids in inside.items():
                        cell = [0] * levels[0].dim
                        cell[i] = c
                        ranges = cell_descendant_ranges(levels, coarse, fine, tuple(cell))
                        assert list(ranges[i]) == kids
                        for k in kids:
                            cell[i] = k
                            assert cell_ancestor(levels, fine, coarse, tuple(cell))[i] == c

    def test_dyadic_build_and_extension_carry_equal_maps(self):
        initial = [make_open_knot_vector(2, ["0", "1/3", "1/2", "1"], [3, 2, 1, 3]),
                   uniform_open_knot_vector(1, 3)]
        built = build_level_sequence(initial, 4)
        for start in (1, 2):
            extended = extend_level_sequence(built[:start], 4)
            assert extended == built
            assert [lv.interval_parents for lv in extended] == \
                [lv.interval_parents for lv in built]
        assert built[0].interval_parents == ()
        assert built[1].interval_parents[0] == (0, 0, 1, 1, 2, 2)

    def test_level_without_maps_refused(self):
        levels = make_levels(2, 1, 2, 2)
        kvs = levels[1].kvs
        with pytest.raises(NestingError, match="level 1"):
            TensorLevel(1, kvs)
        with pytest.raises(NestingError, match="level 1"):
            TensorLevel(1, kvs, (levels[1].interval_parents[0],))
        with pytest.raises(NestingError, match="level 1"):
            TensorLevel(1, kvs, (levels[1].interval_parents[0], (0, 0, 1)))
        with pytest.raises(NestingError, match="level 0"):
            TensorLevel(0, levels[0].kvs, levels[1].interval_parents)
        assert TensorLevel(1, kvs, levels[1].interval_parents) == levels[1]


class TestTensorChildren:
    def test_interior_outer_product(self):
        levels = make_levels(2, 2, 8, 2)
        kids = tensor_children((4, 4), levels[0], levels[1])
        assert len(kids) == 16
        products = sorted({c for _, c in kids})
        assert products == [F(1, 16), F(3, 16), F(9, 16)]
        # for a fixed child the coefficients over its parents sum to one,
        # which is what preserves the partition of unity
        child = (9, 9)
        total = F(0)
        for p in tensor_parents(child, levels[0], levels[1]):
            row = dict(tensor_children(p, levels[0], levels[1]))
            total += row[child]
        assert total == 1

    def test_reduces_to_univariate_in_1d(self):
        levels = make_levels(1, 2, 5, 2)
        kids = tensor_children((2,), levels[0], levels[1])
        uni = children_with_coefficients(levels[0].kvs[0].local(2),
                                         levels[1].kvs[0])
        assert [(i[0], c) for i, c in kids] == [(k.index, c) for k, c in uni]

    def test_support_containment_and_pointwise(self):
        levels = make_levels(2, (2, 1), (4, 5), 2)
        rng = np.random.default_rng(0)
        pts = rng.random((300, 2))
        for idx in [(0, 0), (2, 3), (5, 4)]:
            kids = tensor_children(idx, levels[0], levels[1])
            pbox = levels[0].support_box(idx)
            acc = np.zeros(300)
            for cidx, c in kids:
                cbox = levels[1].support_box(cidx)
                for (plo, phi), (clo, chi) in zip(pbox, cbox):
                    assert plo <= clo and chi <= phi
                acc += float(c) * eval_function(levels[1], cidx, pts)
            want = eval_function(levels[0], idx, pts)
            assert np.abs(acc - want).max() < 1e-12

    def test_parents_and_children_consistent(self):
        levels = make_levels(2, (1, 2), 3, 2)
        for idx in iter_box([range(n) for n in levels[1].num_basis]):
            for p in tensor_parents(idx, levels[0], levels[1]):
                kids = {i for i, _ in tensor_children(p, levels[0], levels[1])}
                assert idx in kids


class TestCells:
    def test_support_extension_interior(self):
        levels = make_levels(1, 2, 8, 1)
        box = levels[0].support_extension_box((4,))
        assert box == ((F(2, 8), F(7, 8)),)

    def test_support_extension_boundary_clipped(self):
        levels = make_levels(1, 2, 8, 1)
        box = levels[0].support_extension_box((0,))
        assert box == ((F(0), F(3, 8)),)

    def test_support_extension_is_tensor_product(self):
        levels = make_levels(2, (2, 1), 6, 1)
        box = levels[0].support_extension_box((3, 2))
        bx = make_levels(1, 2, 6, 1)[0].support_extension_box((3,))
        by = make_levels(1, 1, 6, 1)[0].support_extension_box((2,))
        assert box == (bx[0], by[0])

    def test_ancestors_and_descendants(self):
        levels = make_levels(2, 1, 3, 3)
        assert cell_ancestor(levels, 2, 0, (11, 2)) == (2, 0)
        ranges = cell_descendant_ranges(levels, 0, 2, (2, 0))
        assert [tuple(r) for r in ranges] == [(8, 9, 10, 11), (0, 1, 2, 3)]

    def test_cell_volume(self):
        levels = make_levels(2, 1, (2, 4), 1)
        assert levels[0].cell_volume((0, 0)) == F(1, 8)

    def test_interval_ranges_match_bisection(self):
        # every knot vector of every fixture, plus an internal knot of
        # multiplicity degree+1
        kvs = {kv for path in sorted(FIXTURE_DIR.glob("*.json"))
               for lv in repo_fixture(path.stem).levels for kv in lv.kvs}
        kvs.add(make_open_knot_vector(2, ["0", "1/4", "1/2", "1"], [3, 3, 1, 3]))
        for kv in kvs:
            # the reference: bisection of the support ends in the interval lefts
            lefts = [c.left for c in kv.intervals]
            level = build_level_sequence([kv], 1)[0]
            for j in range(kv.num_basis):
                lo, hi = kv.support(j)
                want = (bisect_left(lefts, lo), bisect_left(lefts, hi) - 1)
                assert kv.function_interval_range(j) == want
            for c in kv.intervals:
                lo, hi = c.extension
                want = range(bisect_left(lefts, lo), bisect_left(lefts, hi))
                assert level.support_extension_cell_ranges((c.index,)) == [want]


class TestEvaluator:
    def test_partition_of_unity_multivariate(self):
        rng = np.random.default_rng(4)
        for dim, degrees in [(1, 2), (2, (2, 3)), (3, (1, 2, 1))]:
            levels = make_levels(dim, degrees, 2, 2)
            pts = rng.random((500, dim))
            for lv in levels:
                ev = level_evaluator(lv)
                vals = ev.evaluate_dense(np.ones(ev.size), pts)
                assert np.abs(vals - 1.0).max() < 1e-12

    def test_canonical_order_first_direction_fastest(self):
        levels = make_levels(2, 1, 2, 1)
        ids = list(levels[0].function_ids())
        assert ids[0] == (0, 0) and ids[1] == (1, 0)
        assert ids == sorted(ids, key=id_sort_key)

    def test_local_linear_independence_on_cell(self):
        rng = np.random.default_rng(8)
        levels = make_levels(2, 2, 4, 1)
        lv = levels[0]
        cell = (1, 2)
        funcs = list(iter_box(lv.functions_on_cell(cell)))
        box = lv.cell_box(cell)
        pts = np.column_stack([
            rng.uniform(float(lo), float(hi), len(funcs)) for lo, hi in box])
        mat = np.column_stack([eval_function(lv, f, pts) for f in funcs])
        assert np.linalg.matrix_rank(mat) == len(funcs)
