"""Hierarchies, the two bases, weights, expansion and enlargement."""

import re
from fractions import Fraction as F

import numpy as np
import pytest

from hiersplines.errors import HierarchyError, HierSplineError, InternalInvariantError
from hiersplines.fixtures import parse_fixture
from hiersplines.functions import get_function
from hiersplines.hierarchy import (
    HierSplineFunction,
    SubdomainGrids,
    SubdomainHierarchy,
    active_mesh,
    build_hierarchical_basis,
    build_refinable_basis,
    compute_weights,
    enlarge_hierarchy,
    expand_deactivated,
    express_over,
    partition_of_unity,
    subdomain_grids,
    support_in_subdomain,
    validate_hierarchy,
    zero_weight_by_characterization,
)
from hiersplines.quasiinterp import MultiscaleQuasiInterpolant
from hiersplines.tensor import (
    LevelSpline,
    TensorFunctionId as Fid,
    eval_function,
    extend_level_sequence,
    id_sort_key,
    iter_box,
    marked_indices,
    tensor_children,
    tensor_parents,
)

from .conftest import FIXTURE_DIR, make_levels, random_hierarchy, repo_fixture
from .oracles import bspline_value_exact
from .test_structure_equivalence import (
    _exact_coefficient,
    _float_coefficient,
    _random_coefficients,
    assert_same_expression,
    random_case,
    ref_express_over,
)


def _eval_over(levels, coeffs, pts):
    acc = np.zeros(pts.shape[0])
    for fid, c in coeffs.items():
        acc += float(c) * eval_function(levels[fid.level], fid.indices, pts)
    return acc


class TestConstruction:
    def test_depth_one_is_full_tensor_basis(self):
        levels = make_levels(2, 2, 4, 1)
        h = SubdomainHierarchy.from_cells([])
        basis, mesh = build_hierarchical_basis(h, levels)
        assert len(basis) == 36
        assert mesh.cell_count() == 16
        assert mesh.total_volume() == 1

    def test_single_interior_cell_changes_nothing_at_level0(self):
        levels = make_levels(2, 2, 4, 2)
        h = SubdomainHierarchy.from_cells([[(1, 1)]])
        basis, mesh = build_hierarchical_basis(h, levels)
        assert {f for f in basis.functions() if f.level == 0} \
            == {Fid(0, i) for i in levels[0].function_ids()}
        assert all(f.level == 0 for f in basis.functions())
        # the refined cell is replaced by its four children in the mesh
        assert mesh.cell_count() == 15 + 4

    def test_recursive_equals_closed_form_randomized(self, rng):
        for _ in range(8):
            levels, h = random_hierarchy(rng)
            basis, _ = build_hierarchical_basis(h, levels)
            assert len(basis) > 0

    def test_validation_rejects_out_of_range(self):
        levels = make_levels(2, 1, 2, 2)
        h = SubdomainHierarchy(2, (frozenset({(5, 5)}),))
        with pytest.raises(HierarchyError, match="out of range"):
            validate_hierarchy(h, levels)

    def test_validation_rejects_non_nested(self):
        levels = make_levels(1, 1, 4, 3)
        h = SubdomainHierarchy(3, (frozenset({(0,)}), frozenset({(7,)})))
        with pytest.raises(HierarchyError, match="nesting"):
            validate_hierarchy(h, levels)


class TestWeights:
    def test_level0_weights_are_one(self, rng):
        levels, h = random_hierarchy(rng)
        w = compute_weights(h, levels)
        for idx in levels[0].function_ids():
            assert w.weight(Fid(0, idx)) == 1

    def test_full_refinement_gives_unit_weights(self):
        levels = make_levels(2, 2, 3, 2)
        h = SubdomainHierarchy.from_cells([[c for c in levels[0].cell_ids()]])
        w = compute_weights(h, levels)
        lvl1 = [v for fid, v in w.values.items() if fid.level == 1]
        assert lvl1 and all(v == 1 for v in lvl1)

    def test_narrow_block_produces_zero_weights(self):
        levels = make_levels(2, 3, 8, 2)
        block = [(i, j) for i in range(2, 6) for j in range(3, 5)]
        h = SubdomainHierarchy.from_cells([block])
        w = compute_weights(h, levels)
        basis, _ = build_hierarchical_basis(h, levels, w)
        zero = [f for f in basis.functions() if basis.weight(f) == 0]
        assert zero
        for fid in zero:
            assert fid.level == 1
            # every parent is still active, which is exactly why the weight
            # vanished
            for p in tensor_parents(fid.indices, levels[0], levels[1]):
                assert Fid(0, p) in basis

    def test_characterization_matches_recursion(self, rng):
        for _ in range(6):
            levels, h = random_hierarchy(rng, dim=2, depth=2)
            w = compute_weights(h, levels)
            for fid, v in w.values.items():
                if fid.level == 0:
                    continue
                assert zero_weight_by_characterization(h, levels, fid, w) \
                    == (v == 0)

    def test_missing_weight_is_refused_by_name(self):
        fx = repo_fixture("d2_corner_admissible")
        basis, _ = build_hierarchical_basis(fx.hierarchy, fx.levels)
        for fid in (Fid(9, (0, 0)), Fid(0, (0,))):
            assert basis.weights.defined(fid) is False
            for read in (basis.weight, basis.weights.weight, basis.weights.is_positive):
                with pytest.raises(HierarchyError,
                                   match=re.escape(f"no weight for {fid}: it is no function "
                                                   f"of level {fid.level}")):
                    read(fid)

    @pytest.mark.parametrize("flat", [(3, 4), np.array([3, 4]), [[[3, 4]]]],
                             ids=["tuple", "array", "three-dimensional"])
    def test_index_of_another_shape_is_refused_with_the_level(self, flat):
        fx = repo_fixture("d2_corner_admissible")
        w = compute_weights(fx.hierarchy, fx.levels)
        message = re.escape("function indices of level 1 must form an (n, 2) array")
        for read in (w.positions, w.defined_positions):
            with pytest.raises(HierarchyError, match=message):
                read(1, flat)
            # empty input gives an empty result
            assert read(1, []).shape == read(1, np.zeros((0, 2), dtype=np.int64)).shape == (0,)
        # off-grid, short and non-int64 rows name no function
        for rows in ([[99, 99]], [[0]], np.array([[3, 4]], dtype=object)):
            assert w.positions(1, rows).tolist() == [-1]

    def test_escaped_child_is_named(self, monkeypatch):
        # drop two children of the level-0 functions inside subdomain 1
        # from the level-1 functions inside it: one of the first parent,
        # met first, and one that comes first in canonical order, named
        fx = repo_fixture("d2_corner_admissible")
        h, levels = fx.hierarchy, fx.levels
        grids = subdomain_grids(h, levels)
        kids = [{c for c, _ in tensor_children(p, levels[0], levels[1])}
                for p in marked_indices(grids.supports_inside(0, 1))]
        met = max(kids[0], key=id_sort_key)
        named = min(set().union(*kids) - kids[0], key=id_sort_key)
        assert id_sort_key(named) < id_sort_key(met)
        mask = grids.supports_inside(1, 1).copy()
        mask[tuple(np.array([met, named]).T)] = False
        real = SubdomainGrids.supports_inside
        monkeypatch.setattr(SubdomainGrids, "supports_inside", lambda self, level, ell:
                            mask if (level, ell) == (1, 1) else real(self, level, ell))
        with pytest.raises(InternalInvariantError,
                           match=re.escape(f"child {Fid(1, named)} escaped subdomain 1")):
            compute_weights(h, levels)

    def test_characterization_refuses_levels_outside_the_hierarchy(self):
        fx = repo_fixture("d2_corner_admissible")
        h = fx.hierarchy
        w = compute_weights(h, fx.levels)
        for level in (h.depth, 5, -1):
            fid = Fid(level, (0, 0))
            with pytest.raises(HierarchyError, match=re.escape(
                    f"{fid}: level {level} is outside 1..{h.depth - 1}")):
                zero_weight_by_characterization(h, fx.levels, fid, w)

    @pytest.mark.parametrize("indices", [(0, 0, 0), (10 ** 6, 0), (-1, 0)])
    def test_characterization_refuses_indices_off_the_function_grid(self, indices):
        fx = repo_fixture("d2_corner_admissible")
        h, levels = fx.hierarchy, fx.levels
        fid = Fid(1, indices)
        with pytest.raises(HierarchyError, match=re.escape(
                f"{fid} is outside the function grid {levels[1].num_basis} of level 1")):
            zero_weight_by_characterization(h, levels, fid, compute_weights(h, levels))

    def test_partition_of_unity_exact_at_rationals(self):
        levels = make_levels(1, 2, 2, 2)
        h = SubdomainHierarchy.from_cells([[(0,)]])
        basis, _ = build_hierarchical_basis(h, levels)
        for x in [F(1, 7), F(2, 7), F(1, 2), F(9, 11), F(1)]:
            total = F(0)
            for fid in basis.functions():
                lkv = levels[fid.level].kvs[0].local(fid.indices[0])
                total += basis.weight(fid) * bspline_value_exact(lkv.knots, x)
            assert total == 1


class TestRefinableBasis:
    def test_depth_one_equals_classical(self):
        levels = make_levels(2, 2, 3, 1)
        h = SubdomainHierarchy.from_cells([])
        classical, _ = build_hierarchical_basis(h, levels)
        refinable = build_refinable_basis(h, levels)
        assert classical.member_set == refinable.member_set

    def test_equals_positive_weight_part(self, rng):
        for _ in range(8):
            levels, h = random_hierarchy(rng)
            w = compute_weights(h, levels)
            classical, _ = build_hierarchical_basis(h, levels, w)
            refinable = build_refinable_basis(h, levels, w)
            assert refinable.member_set \
                == {f for f in classical.functions() if w.weight(f) > 0}
            assert refinable.member_set <= classical.member_set

    def test_narrow_block_drops_only_zero_weight(self):
        levels = make_levels(2, 3, 8, 2)
        block = [(i, j) for i in range(2, 6) for j in range(3, 5)]
        h = SubdomainHierarchy.from_cells([block])
        classical, _ = build_hierarchical_basis(h, levels)
        refinable = build_refinable_basis(h, levels)
        dropped = classical.member_set - refinable.member_set
        assert dropped == {f for f in classical.functions()
                           if classical.weight(f) == 0}

    def test_weighted_partition_of_unity(self, rng):
        levels, h = random_hierarchy(rng, dim=2, depth=3)
        pts = rng.random((400, 2))
        for build in (lambda: build_hierarchical_basis(h, levels)[0],
                      lambda: build_refinable_basis(h, levels)):
            basis = build()
            vals = partition_of_unity(basis).evaluate(pts)
            assert np.abs(vals - 1.0).max() < 1e-12


class TestExpansion:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_spline_gives_one_value_per_point(self, dim, rng):
        levels = make_levels(dim, 2, 4, 1)
        basis, _ = build_hierarchical_basis(SubdomainHierarchy.from_cells([]), levels)
        pts = rng.random(5) if dim == 1 else rng.random((5, dim))
        first = np.array([next(iter(basis.functions())).indices])
        one = HierSplineFunction(basis, [LevelSpline(levels[0], first,
                                                     np.array([F(1)], dtype=object))])
        empty = HierSplineFunction(basis, [LevelSpline(levels[0], first[:0], [])])
        assert one(pts).shape == (5,)
        assert np.array_equal(empty(pts), np.zeros(5))

    def test_single_step_is_child_list(self):
        levels = make_levels(1, 2, 4, 2)
        h = SubdomainHierarchy.from_cells([[(0,), (1,), (2,)]])
        refinable = build_refinable_basis(h, levels)
        deact = [Fid(0, i) for i in levels[0].function_ids()
                 if Fid(0, i) not in refinable]
        assert deact
        for fid in deact:
            exp = expand_deactivated(fid, refinable)
            kids = dict()
            for cidx, c in tensor_children(fid.indices, levels[0], levels[1]):
                kids[Fid(1, cidx)] = c
            assert exp == kids

    def test_multilevel_expansion_pointwise(self, rng):
        levels = make_levels(1, 2, 4, 3)
        h = SubdomainHierarchy.from_cells(
            [[(0,), (1,), (2,), (3,)], [(i,) for i in range(6)]])
        pts = rng.random((500, 1))
        for flavor_build in (build_refinable_basis,
                             lambda hh, lv: build_hierarchical_basis(hh, lv)[0]):
            basis = flavor_build(h, levels)
            deact = [Fid(0, i) for i in levels[0].function_ids()
                     if Fid(0, i) not in basis]
            assert deact
            for fid in deact:
                exp = expand_deactivated(fid, basis)
                levels_used = {g.level for g in exp}
                want = eval_function(levels[0], fid.indices, pts)
                assert np.abs(_eval_over(levels, exp, pts) - want).max() < 1e-12
            # the depth-3 fixture mixes two finer levels in at least one case
        refinable = build_refinable_basis(h, levels)
        mixed = any(
            len({g.level for g in expand_deactivated(Fid(0, i), refinable)}) > 1
            for i in levels[0].function_ids()
            if Fid(0, i) not in refinable)
        assert mixed


def reference_expand(fid, basis, memo):
    """The memoised recursive expansion the level sweep replaced, kept as
    the reference: each deactivated function is written exactly over the
    active functions, depth first."""
    if fid in basis:
        return {fid: F(1)}
    h, levels = basis.hierarchy, basis.levels
    if not support_in_subdomain(h, levels, fid.level, fid.indices, fid.level + 1):
        raise HierarchyError(f"{fid} is neither active nor deactivated in this basis")
    if fid in memo:
        return memo[fid]
    ell = fid.level
    out = {}
    for child_idx, c in tensor_children(fid.indices, levels[ell], levels[ell + 1]):
        child = Fid(ell + 1, child_idx)
        if child in basis:
            out[child] = out.get(child, F(0)) + c
        elif support_in_subdomain(h, levels, ell + 1, child_idx, ell + 2):
            for g, cg in reference_expand(child, basis, memo).items():
                out[g] = out.get(g, F(0)) + c * cg
        else:
            raise InternalInvariantError(f"child {child} is neither active nor deactivated")
    memo[fid] = out
    return out


def reference_express(parts, basis, memo, magnitude=False):
    """The per-coefficient float expansion the sweep replaced; with
    ``magnitude`` the sum of the terms' absolute values instead."""
    out = {}
    for part in parts:
        for idx, c in part.coefficients.items():
            c = abs(c) if magnitude else c
            fid = Fid(part.level.index, idx)
            terms = {fid: 1} if fid in basis else reference_expand(fid, basis, memo)
            for g, cg in terms.items():
                out[g] = out.get(g, 0.0) + c * float(cg)
    return out


def _sweep_cases():
    rng = np.random.default_rng(1507)
    for dim, degrees in ((1, None), (2, [1, 2])):
        for depth in (3, 4):
            for explicit in (False, True):
                for k in range(2):
                    levels, h = random_hierarchy(rng, dim, depth, degrees, explicit)
                    yield f"d{dim}-depth{depth}-{'explicit' if explicit else 'dyadic'}-{k}", levels, h
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        fx = repo_fixture(path.stem)
        yield path.stem, fx.levels, fx.hierarchy


SWEEP_CASES = list(_sweep_cases())
EXPLICIT_CASES = [(f"explicit-{k}", *random_case(k, True)) for k in range(0, 30, 5)]


class TestSweep:
    @pytest.mark.parametrize("name,levels,h", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
    def test_expansion_matches_recursion(self, name, levels, h):
        weights = compute_weights(h, levels)
        for basis in (build_hierarchical_basis(h, levels, weights)[0],
                      build_refinable_basis(h, levels, weights)):
            memo = {}
            deactivated = frozenset().union(*basis.stages) - basis.member_set
            for fid in sorted(deactivated, key=lambda f: (f.level, f.indices)):
                got = expand_deactivated(fid, basis)
                assert got == reference_expand(fid, basis, memo), fid
                assert all(isinstance(c, F) and c > 0 for c in got.values())
            # every other function sunk into the next subdomain: the sweep
            # agrees with the recursion, or both refuse
            for ell in range(h.depth - 1):
                for idx in levels[ell].function_ids():
                    fid = Fid(ell, idx)
                    if fid in deactivated or not support_in_subdomain(
                            h, levels, ell, idx, ell + 1):
                        continue
                    try:
                        want = reference_expand(fid, basis, memo)
                    except HierSplineError:
                        with pytest.raises(HierarchyError):
                            expand_deactivated(fid, basis)
                    else:
                        assert expand_deactivated(fid, basis) == want

    @pytest.mark.parametrize("name,levels,h", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
    def test_express_over_refinable_matches_recursion(self, name, levels, h):
        rng = np.random.default_rng(41)
        op = MultiscaleQuasiInterpolant(h, levels)
        basis = op.refinable
        alive = frozenset().union(*basis.stages)
        ordered = sorted(alive, key=lambda f: f.indices)
        parts = [LevelSpline(
            levels[ell],
            np.array([f.indices for f in ordered if f.level == ell],
                     dtype=np.int64).reshape(-1, levels[ell].dim),
            [float(rng.uniform(-1, 1)) for f in ordered if f.level == ell])
            for ell in range(h.depth)]
        got = op.express_over_refinable(parts).coefficients
        memo = {}
        want = reference_express(parts, basis, memo)
        scale = reference_express(parts, basis, memo, magnitude=True)
        assert got.keys() == want.keys()
        for fid, c in want.items():
            assert abs(got[fid] - c) <= 1e-14 * scale[fid], fid

    @pytest.mark.parametrize("name,levels,h", SWEEP_CASES + EXPLICIT_CASES,
                             ids=[c[0] for c in SWEEP_CASES + EXPLICIT_CASES])
    def test_operator_route_bit_for_bit(self, name, levels, h):
        # express_over_refinable on per-level arrays against the scalar
        # route on the same coefficients as one Fid dict
        rng = np.random.default_rng(43)
        op = MultiscaleQuasiInterpolant(h, levels)
        cases = [(_random_coefficients(rng, op.refinable, make), make is _exact_coefficient)
                 for make in (_float_coefficient, _exact_coefficient)]
        if op.report.omega_nested:
            f = get_function("sin", levels[0].dim)
            cases.append(({Fid(part.level.index, idx): c for part in op.apply_parts(f)
                           for idx, c in part.coefficients.items()}, False))
        for coeffs, exact in cases:
            parts = [LevelSpline(
                lv, np.array([g.indices for g in coeffs if g.level == ell],
                             dtype=np.int64).reshape(-1, lv.dim),
                np.array([c for g, c in coeffs.items() if g.level == ell],
                         dtype=object if exact else np.float64))
                for ell, lv in enumerate(op.levels)]
            try:
                want = ref_express_over(coeffs, op.refinable)
            except HierarchyError as exc:
                with pytest.raises(HierarchyError) as got:
                    op.express_over_refinable(parts)
                assert str(got.value) == str(exc)
            else:
                assert_same_expression(op.express_over_refinable(parts).coefficients, want)

    def test_part_on_another_level_refused(self):
        fx = repo_fixture("d2_corner_admissible")
        op = MultiscaleQuasiInterpolant(fx.hierarchy, fx.levels)
        coarse = make_levels(2, list(fx.degrees), 3, 1)[0]
        assert coarse.num_cells == (3, 3) and coarse != op.levels[0]
        deeper = extend_level_sequence(fx.levels, fx.hierarchy.depth + 1)[-1]
        parts = [LevelSpline(lv, np.zeros((0, 2), dtype=np.int64), []) for lv in op.levels]
        for ell, level in ((0, coarse), (len(parts) - 1, deeper)):
            wrong = parts[:ell] + [LevelSpline(level, np.array([[0, 0]]), [1.0])] + parts[ell + 1:]
            with pytest.raises(HierSplineError, match=r"on the operator's levels and coarsest "
                                                      r"first; got splines on levels \["):
                op.express_over_refinable(wrong)
        with pytest.raises(HierSplineError, match="one spline per level"):
            op.express_over_refinable(parts[:1])
        assert op.express_over_refinable(parts).coefficients == {}

    def test_neither_active_nor_deactivated_is_named(self):
        levels = make_levels(1, 2, 4, 3)
        h = SubdomainHierarchy.from_cells([[(0,), (1,)], [(0,)]])
        basis = build_refinable_basis(h, levels)
        outside = Fid(1, (7,))
        assert outside not in basis
        assert not support_in_subdomain(h, levels, 1, (7,), 2)
        for fid in (outside, Fid(2, (9,)), Fid(3, (0,))):
            with pytest.raises(HierarchyError, match=re.escape(str(fid))):
                express_over({Fid(0, (0,)): 1.0, fid: 1.0}, basis)

    @pytest.mark.parametrize("indices", [(-7, -7), (10, 10), (0,)],
                             ids=["negative", "past_the_end", "wrong_length"])
    def test_index_outside_the_function_grid_is_refused(self, indices):
        # level 0 is 10 x 10; a negative index must not wrap around to (3, 3)
        fx = repo_fixture("d2_corner_admissible")
        basis = build_refinable_basis(fx.hierarchy, fx.levels)
        assert fx.levels[0].num_basis == (10, 10)
        fid = Fid(0, indices)
        message = re.escape(f"{fid} is outside the function grid (10, 10) of level 0")
        with pytest.raises(HierarchyError, match=message):
            expand_deactivated(fid, basis)
        with pytest.raises(HierarchyError, match=message):
            express_over({Fid(0, (3, 3)): F(1), fid: F(1)}, basis)

    def test_multiplicity_raise_keeps_its_message(self):
        # the level-1 knot 1/2 goes from multiplicity 1 to 2
        fx = parse_fixture({
            "schema": "hiersplines-fixture-v1", "dimension": 1, "degrees": [2],
            "breakpoints": [["0", "1/3", "1/2", "1"]], "depth": 2,
            "refinement": {"explicit": [[{
                "breakpoints": ["0", "1/9", "2/9", "1/3", "1/2", "3/4", "1"],
                "multiplicities": [3, 1, 1, 1, 2, 1, 3]}]]},
            "subdomains": [{"level": 1, "cells": [[0], [1]]}]})
        op = MultiscaleQuasiInterpolant(fx.hierarchy, fx.levels)
        with pytest.raises(HierarchyError) as err:
            op.apply(lambda p: np.ones(p.shape[0]))
        assert str(err.value) == ("TensorFunctionId(level=1, indices=(4,)) is "
                                  "neither active nor deactivated in this basis")

    def test_repeated_level_refused(self):
        levels = make_levels(1, 2, 4, 2)
        op = MultiscaleQuasiInterpolant(SubdomainHierarchy.from_cells([[(0,)]]), levels)
        part = LevelSpline(levels[0], np.array([[0]]), [1.0])
        with pytest.raises(HierSplineError, match="one spline per level"):
            op.express_over_refinable([part, part])


class TestContainment:
    def test_coarse_function_against_finer_subdomain_refused(self):
        levels = make_levels(1, 2, 4, 3)
        h = SubdomainHierarchy.from_cells([[(0,), (1,)], [(0,), (1,)]])
        with pytest.raises(HierarchyError, match="coarser than"):
            support_in_subdomain(h, levels, 0, (0,), 2)
        assert support_in_subdomain(h, levels, 1, (0,), 2)


class TestEnlargement:
    def test_identity_enlargement(self, rng):
        levels, h = random_hierarchy(rng)
        out = enlarge_hierarchy(h, levels, {}, None)
        assert out == h

    def test_deactivating_a_parent_turns_weight_positive(self):
        levels = make_levels(2, 3, 8, 2)
        block = [(i, j) for i in range(2, 6) for j in range(3, 5)]
        h = SubdomainHierarchy.from_cells([block])
        w = compute_weights(h, levels)
        basis, _ = build_hierarchical_basis(h, levels, w)
        fid = next(f for f in basis.functions() if basis.weight(f) == 0)
        parent = tensor_parents(fid.indices, levels[0], levels[1])[0]
        cells = list(iter_box(levels[0].function_cell_ranges(parent)))
        h2 = enlarge_hierarchy(h, levels, {1: cells}, None)
        w2 = compute_weights(h2, levels)
        assert w2.weight(fid) > 0

    def test_new_deepest_level_extends_depth(self):
        levels = make_levels(1, 1, 4, 2)
        h = SubdomainHierarchy.from_cells([[(1,), (2,)]])
        h2 = enlarge_hierarchy(h, levels, {}, [(3,), (4,)])
        assert h2.depth == 3
        levels3 = extend_level_sequence(levels, 3)
        basis = build_refinable_basis(h2, levels3)
        assert any(f.level == 2 for f in basis.functions())

    def test_rejects_breaking_nesting(self):
        levels = make_levels(1, 1, 4, 3)
        h = SubdomainHierarchy.from_cells([[(0,), (1,)], [(0,), (1,)]])
        with pytest.raises(HierarchyError):
            enlarge_hierarchy(h, levels, {2: [(7,)]}, None)

    def test_monotone_weights_and_span_growth(self, rng):
        from .conftest import random_enlargement
        for _ in range(6):
            levels, h = random_hierarchy(rng, dim=1)
            adds, deepest = random_enlargement(rng, levels, h)
            h2 = enlarge_hierarchy(h, levels, adds, deepest)
            levels2 = extend_level_sequence(levels, h2.depth)
            w = compute_weights(h, levels)
            w2 = compute_weights(h2, levels2)
            for fid, v in w.values.items():
                if w2.defined(fid):
                    assert w2.weight(fid) >= v
            refinable = build_refinable_basis(h, levels, w)
            refinable2 = build_refinable_basis(h2, levels2, w2)
            pts = rng.random((200, 1))
            for fid in refinable.functions():
                want = eval_function(levels[fid.level], fid.indices, pts)
                if fid in refinable2:
                    continue
                exp = expand_deactivated(fid, refinable2)
                got = _eval_over(levels2, exp, pts)
                assert np.abs(got - want).max() < 1e-10


class TestMesh:
    def test_locate_and_tiling(self, rng):
        levels, h = random_hierarchy(rng, dim=2, depth=3)
        mesh = active_mesh(h, levels)
        assert mesh.total_volume() == 1
        active_sets = [set(a) for a in mesh.active]
        for _ in range(100):
            pt = rng.random(2)
            hits = sum(
                1 for ell in range(len(active_sets))
                if (loc := mesh.levels[ell].locate(pt)) is not None
                and loc in active_sets[ell])
            assert hits == 1
