"""Core domains, dual functionals, level operators and the multiscale one."""

import numpy as np
import pytest

from hiersplines import kernels, quasiinterp
from hiersplines.errors import AdmissibilityError, EvaluationError, HierSplineError
from hiersplines.functions import get_function
from hiersplines.hierarchy import (
    SubdomainHierarchy,
    active_mesh,
    build_refinable_basis,
)
from hiersplines.quasiinterp import (
    LevelQuasiInterpolant,
    LocalProjectionWorkspace,
    MultiscaleQuasiInterpolant,
    OperatorConfig,
    check_admissibility,
    compute_core_domains,
    error_norms,
    level_tables,
    lq_norm,
)
from hiersplines.tensor import (
    CellSet,
    LevelSpline,
    build_level_sequence,
    eval_function,
    iter_box,
)
from hiersplines.univariate import make_open_knot_vector

from .conftest import corner_hierarchy, make_levels, random_hierarchy, repo_fixture
from .test_invariant_equivalence import dual_pair_blocks


def _sin2(pts):
    out = np.ones(pts.shape[0])
    for i in range(pts.shape[1]):
        out *= np.sin(2 * np.pi * pts[:, i])
    return out


class TestCoreDomains:
    def test_level0_is_whole_domain(self, rng):
        levels, h = random_hierarchy(rng, dim=2)
        core = compute_core_domains(h, levels)
        assert len(core.cells(0)) == len(list(levels[0].cell_ids()))

    def test_single_cell_core_empty(self):
        levels = make_levels(2, 2, 4, 2)
        h = SubdomainHierarchy.from_cells([[(1, 1)]])
        core = compute_core_domains(h, levels)
        assert len(core.cells(1)) == 0
        rep = check_admissibility(h, levels, core)
        assert rep.strictly_admissible and rep.omega_nested

    def test_corner_widths(self):
        levels = make_levels(2, 2, 8, 3)
        h = corner_hierarchy(levels, [4, 4])
        core = compute_core_domains(h, levels)
        # extensions reach two cells beyond, leaving a 6x6 block at level 1
        assert core.cells(1) == frozenset(
            tuple(c) for c in iter_box([range(6)] * 2))

    def test_nested_but_not_admissible(self):
        levels = make_levels(2, 2, 8, 4)
        h = SubdomainHierarchy.from_cells([
            [tuple(c) for c in iter_box([range(6)] * 2)],
            [tuple(c) for c in iter_box([range(11)] * 2)],
            [tuple(c) for c in iter_box([range(21)] * 2)],
        ])
        core = compute_core_domains(h, levels)
        rep = check_admissibility(h, levels, core)
        assert core.nested and not rep.strictly_admissible

    def test_uniform_refinement_strictly_admissible(self):
        levels = make_levels(2, 2, 4, 3)
        h = SubdomainHierarchy.from_cells([
            [tuple(c) for c in levels[0].cell_ids()],
            [tuple(c) for c in levels[1].cell_ids()],
        ])
        rep = check_admissibility(h, levels)
        assert rep.strictly_admissible and rep.omega_nested


class TestDualFunctionals:
    def test_kronecker_pairs(self):
        levels = make_levels(2, 2, 8, 3)
        h = corner_hierarchy(levels, [4, 4])
        core = compute_core_domains(h, levels)
        op = LevelQuasiInterpolant(h, levels, 1, core)
        members = op.members
        worst = 0.0
        for mi in members:
            lam = op.dual_functional(mi)
            for mj in members:
                val = lam(lambda p, mj=mj: eval_function(op.level, mj, p))
                worst = max(worst, abs(val - (1.0 if mi == mj else 0.0)))
        assert worst < 1e-10

    def test_any_integer_sequence_names_a_member(self):
        levels = make_levels(2, 2, 8, 3)
        h = corner_hierarchy(levels, [4, 4])
        op = LevelQuasiInterpolant(h, levels, 1, compute_core_domains(h, levels))
        m = op.members[0]

        def f(p):
            return eval_function(op.level, m, p)

        want = op.dual_functional(m)(f)
        for name in (list(m), np.array(m), [np.int64(j) for j in m]):
            assert op.dual_functional(name)(f) == want
        for name in ([0.5, 0], 3, ["0", "0"]):
            with pytest.raises(TypeError):
                op.dual_functional(name)

    def test_pair_matrix_matches_brute_force(self):
        fx = repo_fixture("d2_single_cell")
        op = MultiscaleQuasiInterpolant(fx.hierarchy, fx.levels)
        stages = [stage for stage in op.stages if stage.members]
        assert stages
        for stage in stages:
            members = stage.members
            got = np.vstack([block for _, block in dual_pair_blocks(stage)])
            want = np.array([[stage.dual_functional(mi)(
                lambda p, mj=mj: eval_function(stage.level, mj, p))
                for mj in members] for mi in members])
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-13
            assert np.abs(got - np.eye(len(members))).max() < 1e-13

    def test_local_support(self):
        levels = make_levels(2, 2, 8, 3)
        h = corner_hierarchy(levels, [4, 4])
        core = compute_core_domains(h, levels)
        op = LevelQuasiInterpolant(h, levels, 1, core)
        m = op.members[0]
        cell = op.anchor_cells[m]
        box = op.level.cell_box(cell)

        def away(p):
            inside = np.ones(p.shape[0], dtype=bool)
            for i, (lo, hi) in enumerate(box):
                inside &= (p[:, i] >= float(lo)) & (p[:, i] <= float(hi))
            return np.where(inside, 0.0, 1.0)

        assert op.dual_functional(m)(away) == 0.0

    def test_constant_one_coefficients(self):
        levels = make_levels(2, 2, 6, 2)
        h = corner_hierarchy(levels, [4])
        core = compute_core_domains(h, levels)
        for ell in range(2):
            op = LevelQuasiInterpolant(h, levels, ell, core)
            out = op.apply(lambda p: np.ones(p.shape[0]))
            for idx, c in out.coefficients.items():
                assert c == pytest.approx(1.0, abs=1e-11)

    def test_nonfinite_callback_raises_with_location(self):
        levels = make_levels(1, 2, 4, 1)
        h = SubdomainHierarchy.from_cells([])
        core = compute_core_domains(h, levels)
        op = LevelQuasiInterpolant(h, levels, 0, core)

        def bad(p):
            out = np.ones(p.shape[0])
            out[p[:, 0] > 0.5] = np.nan
            return out

        with pytest.raises(EvaluationError, match="non-finite"):
            op.apply(bad)


def _explicit_levels(dim):
    """Two explicit non-uniform levels, different per direction; in d=3
    the second direction carries a double internal knot."""
    if dim == 2:
        coarse = [make_open_knot_vector(2, ["0", "1/5", "1/2", "1"]),
                  make_open_knot_vector(3, ["0", "1/3", "3/7", "1"])]
        fine = [make_open_knot_vector(2, ["0", "1/10", "1/5", "1/2", "2/3", "1"]),
                make_open_knot_vector(3, ["0", "1/3", "3/7", "5/7", "1"])]
    else:
        coarse = [make_open_knot_vector(1, ["0", "2/5", "1"]),
                  make_open_knot_vector(2, ["0", "1/3", "1"], [3, 2, 3]),
                  make_open_knot_vector(3, ["0", "1/4", "1"])]
        fine = [make_open_knot_vector(1, ["0", "1/5", "2/5", "1"]),
                make_open_knot_vector(2, ["0", "1/6", "1/3", "3/4", "1"], [3, 1, 2, 1, 3]),
                make_open_knot_vector(3, ["0", "1/4", "5/8", "1"])]
    return build_level_sequence(coarse, 2, [fine])


class TestTensorFactoredProjector:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("extra", [0, 2])
    def test_kronecker_factors_match_dense_reference(self, dim, extra):
        for level in _explicit_levels(dim):
            tables = level_tables(level, OperatorConfig(quad_increment=extra))
            for cell in level.cell_ids():
                ws = LocalProjectionWorkspace(level, cell, tables)
                assert ws.weights.sum() == pytest.approx(float(level.cell_volume(cell)),
                                                         rel=1e-14)
                vals = np.column_stack([eval_function(level, f, ws.nodes)
                                        for f in ws.local_functions])
                dense = vals.T @ (ws.weights[:, None] * vals)
                scale = np.abs(dense).max()
                assert np.abs(ws.mass - dense).max() <= 1e-13 * scale
                rows = quasiinterp._kron([tab.duals[j].T for tab, j in zip(tables, cell)])
                assert np.abs(rows @ vals - np.eye(vals.shape[1])).max() <= 1e-12


class TestLevelOperator:
    def test_preserves_member_span(self, rng):
        levels = make_levels(2, 2, 8, 2)
        h = corner_hierarchy(levels, [5])
        core = compute_core_domains(h, levels)
        op = LevelQuasiInterpolant(h, levels, 1, core)
        s = LevelSpline(levels[1], op.member_indices,
                        [float(rng.uniform(-1, 1)) for _ in op.members])
        out = op.apply(s.evaluate)
        pts = rng.random((300, 2))
        assert np.abs(out.evaluate(pts) - s.evaluate(pts)).max() < 1e-10

    def test_annihilates_outside_support(self):
        levels = make_levels(2, 2, 8, 2)
        h = corner_hierarchy(levels, [5])
        core = compute_core_domains(h, levels)
        op = LevelQuasiInterpolant(h, levels, 1, core)
        core_cells = core.cells(1)

        def f(p):
            out = np.ones(p.shape[0])
            for i in range(p.shape[0]):
                loc = levels[1].locate(p[i])
                if loc is not None and loc in core_cells:
                    out[i] = 0.0
            return out

        out = op.apply(f)
        assert all(abs(c) == 0.0 for c in out.coefficients.values())

    def test_full_space_reproduced_on_core_only(self, rng):
        levels = make_levels(1, 2, 8, 2)
        h = SubdomainHierarchy.from_cells([[(i,) for i in range(5)]])
        core = compute_core_domains(h, levels)
        op = LevelQuasiInterpolant(h, levels, 1, core)
        ids = np.array(list(levels[1].function_ids()))
        s = LevelSpline(levels[1], ids, [float(rng.uniform(-1, 1)) for _ in ids])
        out = op.apply(s.evaluate)
        inside = []
        for c in sorted(core.cells(1)):
            lo, hi = levels[1].cell_box(c)[0]
            inside.extend(np.linspace(float(lo) + 1e-6, float(hi) - 1e-6, 10))
        inside = np.array(inside).reshape(-1, 1)
        assert np.abs(out.evaluate(inside) - s.evaluate(inside)).max() < 1e-10
        # away from the core region the reproduction generally fails
        outside = np.array([[0.95]])
        assert np.abs(out.evaluate(outside) - s.evaluate(outside)).max() > 1e-6

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_level_without_members_has_no_rows(self, dim):
        degrees = [2, 1, 3][:dim]
        levels = make_levels(dim, degrees, 4, 2)
        h = SubdomainHierarchy.from_cells([[(1,) * dim]])
        core = compute_core_domains(h, levels)
        assert not core.masks[1].any()
        op = LevelQuasiInterpolant(h, levels, 1, core)
        assert len(op) == 0
        rows = op._dual_rows
        assert rows.shape == (0, np.prod([p + 1 for p in degrees]))
        assert rows.dtype == np.float64
        assert op.apply(_sin2).values.shape == (0,)
        with pytest.raises(HierSplineError, match="has no full cell inside the core domain"):
            op.dual_functional((0,) * dim)

    @pytest.mark.parametrize("name", ["d2_nested_not_admissible", "d1_depth3_blocks",
                                      "d3_depth2_corner"])
    def test_dual_rows_are_formed_once_and_match_the_functionals(self, monkeypatch, name):
        built = []

        class Counted(LocalProjectionWorkspace):
            def __init__(self, level, cell, tables):
                built.append(cell)
                super().__init__(level, cell, tables)

        monkeypatch.setattr(quasiinterp, "LocalProjectionWorkspace", Counted)
        fx = repo_fixture(name)
        f = get_function("sin", fx.dimension)
        for op in MultiscaleQuasiInterpolant(fx.hierarchy, fx.levels).stages:
            first = op.apply(f)
            anchors = set(op.anchor_cells.values())
            assert sorted(built) == sorted(anchors)
            second = op.apply(f)
            assert len(built) == len(anchors)
            assert first.values.tobytes() == second.values.tobytes()
            for k, m in enumerate(op.members):
                assert np.float64(op.dual_functional(m)(f)).tobytes() == first.values[k].tobytes()
            assert len(built) == len(anchors)
            built.clear()


class TestMultiscale:
    def test_reproduces_initial_space_and_polynomials(self, rng):
        levels = make_levels(2, 2, 8, 3)
        h = corner_hierarchy(levels, [4, 4])
        op = MultiscaleQuasiInterpolant(h, levels)
        pts = rng.random((400, 2))
        ids = np.array(list(levels[0].function_ids()))
        s0 = LevelSpline(levels[0], ids, [float(rng.uniform(-1, 1)) for _ in ids])
        out = op.apply(s0.evaluate)
        assert np.abs(out.evaluate(pts) - s0.evaluate(pts)).max() < 1e-10
        from hiersplines.functions import get_function
        poly = get_function("poly", 2, degrees=(2, 2))
        out_p = op.apply(poly)
        assert np.abs(out_p.evaluate(pts) - poly(pts)).max() < 1e-10

    def test_output_lies_in_refinable_basis(self):
        levels = make_levels(2, 2, 8, 3)
        h = corner_hierarchy(levels, [4, 4])
        refinable = build_refinable_basis(h, levels)
        op = MultiscaleQuasiInterpolant(h, levels, refinable)
        out = op.apply(_sin2)
        assert out.basis is refinable
        assert set(out.coefficients) <= refinable.member_set

    def test_decomposition_matches_recursion_on_core(self, rng):
        levels = make_levels(2, 2, 8, 3)
        h = corner_hierarchy(levels, [4, 4])
        op = MultiscaleQuasiInterpolant(h, levels)
        parts = op.apply_parts(_sin2)
        for ell in range(h.depth):
            cells = sorted(op.core.cells(ell))
            if not cells:
                continue
            pts = []
            for k in range(0, len(cells), max(1, len(cells) // 20)):
                box = levels[ell].cell_box(cells[k])
                pts.append([rng.uniform(float(lo) + 1e-9, float(hi) - 1e-9)
                            for lo, hi in box])
            pts = np.array(pts)
            dec = op.decomposition_parts(_sin2, ell)
            v_dec = sum(p.evaluate(pts) for p in dec)
            v_rec = sum(p.evaluate(pts) for p in parts)
            assert np.abs(v_dec - v_rec).max() < 1e-10

    @pytest.mark.parametrize("ell", [-1, 3, 9])
    def test_level_index_outside_the_operator_refused(self, ell):
        levels = make_levels(2, 2, 8, 3)
        op = MultiscaleQuasiInterpolant(corner_hierarchy(levels, [4, 4]), levels)
        for call in (op.stage_value, op.decomposition_parts):
            with pytest.raises(HierSplineError, match=rf"^level {ell} outside 0\.\.2 "):
                call(_sin2, ell)

    def test_refuses_non_nested(self):
        # the second subdomain sticks past the core of the first one, so the
        # chain of core domains breaks
        levels = make_levels(1, 2, 16, 3)
        h = SubdomainHierarchy.from_cells(
            [[(i,) for i in range(10)], [(i,) for i in range(8, 20)]])
        core = compute_core_domains(h, levels)
        assert not core.nested
        with pytest.raises(AdmissibilityError):
            MultiscaleQuasiInterpolant(h, levels).apply_parts(_sin2)


class TestCallbackShape:
    @pytest.mark.parametrize("bad,shape", [
        (lambda p: 1.0, r"\(\)"),
        (lambda p: np.ones((p.shape[0], 2)), r"\(\d+, 2\)"),
        (lambda p: np.ones(p.shape[0] + 1), r"\(\d+,\)"),
    ], ids=["scalar", "two_columns", "one_too_many"])
    def test_wrong_shape_refused(self, bad, shape):
        levels = make_levels(2, 2, 8, 3)
        h = corner_hierarchy(levels, [4, 4])
        message = rf"^callback returned shape {shape} for \d+ points"
        with pytest.raises(EvaluationError, match=message):
            lq_norm(bad, 2, active_mesh(h, levels))
        with pytest.raises(EvaluationError, match=message):
            MultiscaleQuasiInterpolant(h, levels).apply(bad)

    def test_one_column_accepted(self):
        levels = make_levels(2, 2, 8, 3)
        h = corner_hierarchy(levels, [4, 4])
        column = lambda p: _sin2(p).reshape(-1, 1)  # noqa: E731
        assert lq_norm(column, 2, active_mesh(h, levels)) == \
            lq_norm(_sin2, 2, active_mesh(h, levels))
        op = MultiscaleQuasiInterpolant(h, levels)
        assert op.apply(column).coefficients == op.apply(_sin2).coefficients


class TestNorms:
    def test_unit_constant(self):
        levels = make_levels(2, 2, 4, 1)
        h = SubdomainHierarchy.from_cells([])
        mesh = active_mesh(h, levels)
        one = lambda p: np.ones(p.shape[0])
        assert error_norms(one, None, 2, mesh=mesh) == pytest.approx(1.0, abs=1e-13)
        assert error_norms(one, None, 1, mesh=mesh) == pytest.approx(1.0, abs=1e-13)
        assert error_norms(one, None, "inf", mesh=mesh) == pytest.approx(1.0)

    def test_zero_for_reproduced_spline(self, rng):
        levels = make_levels(1, 2, 4, 1)
        h = SubdomainHierarchy.from_cells([])
        op = MultiscaleQuasiInterpolant(h, levels)
        ids = np.array(list(levels[0].function_ids()))
        s = LevelSpline(levels[0], ids, [float(rng.uniform(-1, 1)) for _ in ids])
        out = op.apply(s.evaluate)
        mesh = active_mesh(h, levels)
        assert error_norms(s.evaluate, out, 2, mesh=mesh) < 1e-12

    def test_sup_norm_of_hat_difference(self):
        # |hat| on a single cell: the maximum sits at the peak
        levels = make_levels(1, 1, 2, 1)
        h = SubdomainHierarchy.from_cells([])
        mesh = active_mesh(h, levels)
        hat = levels[0].kvs[0].local(1)
        f = lambda p: hat.evaluate(p[:, 0])
        region = CellSet(0, np.array([True, False]))
        got = lq_norm(f, "inf", mesh, region)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_region_restriction(self):
        levels = make_levels(1, 1, 4, 1)
        h = SubdomainHierarchy.from_cells([])
        mesh = active_mesh(h, levels)
        f = lambda p: np.where(p[:, 0] < 0.25, 1.0, 0.0)
        region = CellSet(0, np.array([True, False, False, False]))
        assert lq_norm(f, 2, mesh, region) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("block", [40, 100, 5000, "block-1", "block", "block+1"])
    def test_batch_size_leaves_norms_unchanged(self, monkeypatch, block):
        # 40 points hold one quadrature cell, 100 hold two, 5000 hold
        # four sampled cells of the sup norm and many quadrature cells;
        # around the grid block a batch of sampled cells, whose edge nodes
        # lie in the next cell's span, gains or loses a cell. Every size is
        # also checked against one cell per batch.
        fx = repo_fixture("cubic_lshape")
        f = get_function("sin", fx.dimension)
        s = MultiscaleQuasiInterpolant(fx.hierarchy, fx.levels).apply(f)
        mesh = active_mesh(fx.hierarchy, fx.levels)
        qs = (1, 2, "inf")
        size = {"block-1": kernels.GRID_BLOCK - 1, "block": kernels.GRID_BLOCK,
                "block+1": kernels.GRID_BLOCK + 1}.get(block, block)
        want = [error_norms(f, s, q, mesh=mesh) for q in qs]
        for patched in (1, size):
            monkeypatch.setattr(kernels, "GRID_BLOCK", patched)
            assert [error_norms(f, s, q, mesh=mesh) for q in qs] == want

    def test_rejects_unknown_q(self):
        levels = make_levels(1, 1, 2, 1)
        mesh = active_mesh(SubdomainHierarchy.from_cells([]), levels)
        with pytest.raises(HierSplineError, match=r"only q in \{1, 2, inf\} supported"):
            lq_norm(lambda p: np.ones(p.shape[0]), 3, mesh)

    @pytest.mark.parametrize("q", [True, False, np.True_, np.array([2]), np.array([1, 2]),
                                   np.array(2), 2 + 0j, "2", None],
                             ids=["true", "false", "numpy_true", "one_element_array",
                                  "two_element_array", "zero_dim_array", "complex", "string_two",
                                  "none"])
    def test_rejects_non_real_q(self, q):
        levels = make_levels(1, 1, 2, 1)
        mesh = active_mesh(SubdomainHierarchy.from_cells([]), levels)
        with pytest.raises(HierSplineError, match=r"only q in \{1, 2, inf\} supported"):
            lq_norm(lambda p: np.ones(p.shape[0]), q, mesh)

    @pytest.mark.parametrize("q,want", [(1, 1.0), (2.0, 2.0), (np.int64(2), 2.0),
                                        ("inf", np.inf), ("INF", np.inf), (np.inf, np.inf)])
    def test_accepts_known_q(self, q, want):
        from hiersplines.quasiinterp import _as_q
        assert _as_q(q) == want

    def test_study_refuses_bool_q_before_running(self):
        from hiersplines.study import run_convergence_study
        with pytest.raises(HierSplineError, match="only q in"):
            run_convergence_study([repo_fixture("d2_corner_admissible")], "sin", True)

    @pytest.mark.parametrize("q", [1, 2, "inf"])
    def test_test_function_and_plain_callable_give_equal_norms(self, q):
        fx = repo_fixture("cubic_lshape")
        f = get_function("gauss", fx.dimension)
        s = MultiscaleQuasiInterpolant(fx.hierarchy, fx.levels).apply(f)
        mesh = active_mesh(fx.hierarchy, fx.levels)
        region = CellSet(0, np.ones(fx.levels[0].num_cells, dtype=bool))
        plain = lambda p: f(p)  # noqa: E731
        for g in (f, f.directional_derivative(1, 2)):
            assert lq_norm(g, q, mesh) == lq_norm(lambda p: g(p), q, mesh)
        assert error_norms(f, s, q, mesh=mesh) == error_norms(plain, s, q, mesh=mesh)
        assert error_norms(f, s, q, mesh=mesh, region=region) == \
            error_norms(plain, s, q, mesh=mesh, region=region)
        assert error_norms(f, None, q, mesh=mesh) == error_norms(plain, None, q, mesh=mesh)

    @pytest.mark.parametrize("q", [2, "inf"])
    def test_nonfinite_callback_names_first_bad_point(self, monkeypatch, q):
        fx = repo_fixture("cubic_lshape")
        f = get_function("sin", fx.dimension)
        s = MultiscaleQuasiInterpolant(fx.hierarchy, fx.levels).apply(f)
        calls = []

        def bad(p):
            calls.append(p.copy())
            out = f(p)
            out[(p[:, 0] > 0.6) & (p[:, 1] > 0.3)] = np.nan
            return out

        with pytest.raises(EvaluationError, match="non-finite value at") as caught:
            error_norms(bad, s, q, mesh=active_mesh(fx.hierarchy, fx.levels))
        last = calls[-1]
        first_bad = last[int(np.argmax((last[:, 0] > 0.6) & (last[:, 1] > 0.3)))]
        assert str(caught.value) == f"callback returned a non-finite value at {tuple(first_bad)}"
        # every earlier batch was clean
        assert not any(((p[:, 0] > 0.6) & (p[:, 1] > 0.3)).any() for p in calls[:-1])

        # an integrand evaluated on grids, NaN at known nodes, in batches
        # of a few cells
        monkeypatch.setattr(kernels, "GRID_BLOCK", 200)

        class BadOnGrid:
            def __init__(self):
                self.batches = []

            def __call__(self, p):
                raise AssertionError("the norms evaluate it on grids")

            def on_grid(self, axes):
                pts = quasiinterp._tensor_grid(axes)
                self.batches.append(pts)
                vals = f.on_grid(axes)
                vals.reshape(-1)[(pts[:, 0] > 0.6) & (pts[:, 1] > 0.3)] = np.nan
                return vals

        grid_bad = BadOnGrid()
        with pytest.raises(EvaluationError) as caught:
            error_norms(grid_bad, s, q, mesh=active_mesh(fx.hierarchy, fx.levels))
        last = grid_bad.batches[-1]
        first_bad = last[int(np.argmax((last[:, 0] > 0.6) & (last[:, 1] > 0.3)))]
        assert str(caught.value) == f"callback returned a non-finite value at {tuple(first_bad)}"
        assert len(grid_bad.batches) > 1
        assert not any(((p[:, 0] > 0.6) & (p[:, 1] > 0.3)).any() for p in grid_bad.batches[:-1])

    @pytest.mark.parametrize("q", [2, "inf"])
    def test_on_grid_receives_float_axes_of_the_cells(self, monkeypatch, q):
        # a caller's on_grid gets d float64 arrays of shape (c, n_k) per
        # batch, whose points are those of the cells' own grids, and a
        # non-finite value is named at its first node
        from hiersplines.quasiinterp import _cells_geometry, _tensor_grid, integration_cells
        fx = repo_fixture("d2_corner_admissible")
        mesh = active_mesh(fx.hierarchy, fx.levels)
        f = get_function("sin", 2)
        monkeypatch.setattr(kernels, "GRID_BLOCK", 300)

        class Recording:
            def __init__(self, poisoned=None):
                self.batches, self.poisoned = [], poisoned

            def on_grid(self, axes):
                assert len(axes) == 2
                for a in axes:
                    assert isinstance(a, np.ndarray) and a.dtype == np.float64
                    assert a.ndim == 2 and a.shape[0] == len(axes[0])
                self.batches.append(_tensor_grid(axes))
                vals = f.on_grid(axes)
                if len(self.batches) == self.poisoned:
                    vals.reshape(-1)[[7, 9]] = np.nan
                return vals

        plain = Recording()
        want = lq_norm(f, q, mesh)
        assert lq_norm(plain, q, mesh) == want
        table, former = quasiinterp._CellRows(f, q, mesh), []
        for ell, idxs in integration_cells(mesh, None):
            lows, spans = _cells_geometry(mesh.levels[ell], idxs)
            former.append(_tensor_grid([lows[:, k, None] + spans[:, k, None] * nodes
                                        for k, (nodes, _) in enumerate(table.base(ell))]))
        assert len(plain.batches) > len(former)
        assert np.concatenate(plain.batches).tobytes() == np.concatenate(former).tobytes()
        bad = Recording(poisoned=3)
        with pytest.raises(EvaluationError) as caught:
            lq_norm(bad, q, mesh)
        assert str(caught.value) == ("callback returned a non-finite value at "
                                     f"{tuple(bad.batches[2][7])}")

    @pytest.mark.parametrize("level,shape,cell", [
        (5, None, (0, 0)),
        (0, (100, 1), (99, 0)),
        (0, (8,), (0,)),
        (-1, None, (0, 0)),
    ], ids=["level_too_deep", "cell_out_of_range", "grid_of_wrong_dimension",
            "negative_level"])
    def test_malformed_region_refused(self, level, shape, cell):
        fx = repo_fixture("d2_corner_admissible")
        mesh = active_mesh(fx.hierarchy, fx.levels)
        grid = np.zeros(shape or mesh.levels[0].num_cells, dtype=bool)
        grid[cell] = True
        region = CellSet(level, grid)
        one = lambda p: np.ones(p.shape[0])
        for q in (2, "inf"):
            with pytest.raises(HierSplineError, match="region of level"):
                lq_norm(one, q, mesh, region)
            with pytest.raises(HierSplineError, match="region of level"):
                error_norms(one, None, q, mesh=mesh, region=region)


class TestFunctionsOnGrids:
    @pytest.mark.parametrize("name", ["sin", "gauss", "poly"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_on_grid_equals_call(self, name, dim):
        from hiersplines.quasiinterp import _tensor_grid
        rng = np.random.default_rng(dim)
        degrees = [int(p) for p in rng.integers(1, 4, size=dim)]
        f = get_function(name, dim, degrees)
        # samples on breakpoints of a dyadic mesh, at both ends and random
        marks = np.array([0.0, 0.25, 0.5, 1.0])
        axes = [np.stack([rng.permutation(np.concatenate([marks, rng.random(2 + k)]))
                          for _ in range(3)]) for k in range(dim)]
        pts = _tensor_grid(axes)
        for direction in range(dim):
            for order in range(degrees[direction] + 2):
                g = f.directional_derivative(direction, order)
                assert (g.direction, g.order) == (direction, order)
                got = g.on_grid(axes)
                assert got.shape == (3,) + tuple(a.shape[1] for a in reversed(axes))
                assert np.array_equal(got.reshape(-1), g(pts))

    def test_derivative_of_derivative(self):
        f = get_function("sin", 2)
        pts = np.random.default_rng(0).random((7, 2))
        twice = f.directional_derivative(1, 1).directional_derivative(1, 2)
        assert np.array_equal(twice(pts), f.directional_derivative(1, 3)(pts))
        with pytest.raises(HierSplineError, match="mixed"):
            f.directional_derivative(1, 1).directional_derivative(0, 1)

    @pytest.mark.parametrize("direction,order,message", [
        (2, 1, "direction"), (-1, 1, "direction"), (0, -1, "order"), (0, 1.5, "order"),
        (0, True, "order")])
    def test_bad_derivative_refused(self, direction, order, message):
        with pytest.raises(HierSplineError, match=message):
            get_function("gauss", 2).directional_derivative(direction, order)

    def test_wrong_dimension_refused(self):
        f = get_function("sin", 2)
        with pytest.raises(HierSplineError, match="grid axes"):
            f.on_grid([np.zeros((1, 3))])
        for pts in (np.zeros((3, 1)), np.zeros((3, 3)), np.zeros(2), np.zeros((1, 2, 2))):
            with pytest.raises(HierSplineError, match="for a function of dimension 2"):
                f(pts)


@pytest.mark.parametrize("name,least,most", [
    ("quad_increment", 0, quasiinterp.MAX_INCREMENT),
    ("error_quad_increment", 0, quasiinterp.MAX_INCREMENT),
    ("sup_samples_per_cell", 1, quasiinterp.MAX_SUP_SAMPLES),
])
def test_operator_config_bounds(name, least, most):
    # the bounds are accepted; nothing is evaluated at them
    assert getattr(OperatorConfig(**{name: least}), name) == least
    assert getattr(OperatorConfig(**{name: most}), name) == most
    for value in (least - 1, most + 1, np.int64(most + 1), 10 ** 400, -10 ** 5000, 2.0, True):
        with pytest.raises(HierSplineError, match=f"^{name} must be an integer from "
                                                  f"{least} to {most}, got "):
            OperatorConfig(**{name: value})
