"""The invariants against the per-item routes they replaced.

The reference checks below are the former implementations: one
cell_ancestor call per cell of every support extension, one
LocalKnotVector per pair of functions, one evaluation per child and per
function (eval_function), one support test per parent and function, one
point at a time, the stages as Fid sets, expansions through the Fid
dicts of expand_deactivated, two-scale coefficients and supports as
Fractions, the zero-weight test one function and one parent at a time,
the dual functionals applied to every pair of members, a second
projection workspace per mass matrix, and random draws one number at a
time. Every rewritten invariant must give the same InvariantResult as
its former route: the verdict, the count, the worst residual bit for bit
and the detail, also on inputs where it fails. Where a reference walks a
set, it walks it in canonical order, the first direction fastest, as
the checks do.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from hiersplines import hierarchy, invariants, kernels, quasiinterp, tensor
from hiersplines.errors import HierSplineError
from hiersplines.fixtures import EnlargementSpec, Fixture, load_fixture
from hiersplines.functions import get_function
from hiersplines.hierarchy import (
    build_hierarchical_basis,
    build_refinable_basis,
    compute_weights,
    enlarge_hierarchy,
    expand_deactivated,
    support_in_subdomain,
)
from hiersplines.invariants import (
    TOL_EXACT,
    TOL_OPERATOR,
    InvariantResult,
    _Context,
    _LevelColumns,
    _univariate_values,
)
from hiersplines.quasiinterp import (
    MAX_INCREMENT,
    CoreDomains,
    LocalProjectionWorkspace,
    MultiscaleQuasiInterpolant,
    OperatorConfig,
    error_norms,
    level_tables,
)
from hiersplines.tensor import (
    LevelSpline,
    TensorFunctionId as Fid,
    cell_ancestor,
    cell_descendant_ranges,
    eval_function,
    extend_level_sequence,
    id_sort_key,
    iter_box,
    marked_indices,
    tensor_children,
    tensor_children_arrays,
    tensor_parents,
    two_scale_tables,
)
from hiersplines.univariate import children_table, is_child_of, parent_table

from .conftest import DATA_DIR, FIXTURE_DIR, random_enlargement, random_hierarchy

# ---------------------------------------------------------------------------
# reference implementations


def _result(name, worst, count, tol, detail=""):
    return InvariantResult(name, bool(worst <= tol), count, float(worst), detail)


class RefColumns(_LevelColumns):
    """_LevelColumns with the former Fid-keyed expansions and one column
    per function."""

    def function(self, fid):
        return self.columns(fid.level, [fid.indices])[:, 0]

    def combination(self, terms):
        by_level: dict[int, list] = {}
        for g, c in terms.items():
            by_level.setdefault(g.level, []).append((g.indices, float(c)))
        acc = np.zeros(self.pts.shape[0])
        for ell, pairs in sorted(by_level.items()):
            acc += self.columns(ell, [idx for idx, _ in pairs]) @ np.array([c for _, c in pairs])
        return acc

    def children(self, fids):
        out = [{} for _ in fids]
        by_level: dict[int, list[int]] = {}
        for k, fid in enumerate(fids):
            by_level.setdefault(fid.level, []).append(k)
        for ell, ks in by_level.items():
            rows, children, numerators, q = tensor_children_arrays(
                np.array([fids[k].indices for k in ks], dtype=np.int64).reshape(len(ks), -1),
                two_scale_tables(self.levels[ell], self.levels[ell + 1]))
            for r, child, n in zip(rows.tolist(), children.tolist(), numerators.tolist()):
                out[ks[r]][Fid(ell + 1, tuple(child))] = Fraction(n, q)
        return out


def ref_random_spline(level, indices, rng):
    return LevelSpline(level, indices, [float(rng.uniform(-1, 1)) for _ in range(len(indices))])


def ref_points_in_cells(self, tag, level, mask, count):
    cells = marked_indices(mask)
    if not cells:
        return None
    rng = self.rng(tag)
    lv = self.levels[level]
    picks = rng.integers(0, len(cells), size=count)
    pts = np.empty((count, self.dim))
    for i, c in enumerate(picks):
        box = lv.cell_box(cells[c])
        for k, (lo, hi) in enumerate(box):
            pts[i, k] = rng.uniform(float(lo), float(hi))
    return pts


def ref_total_volume(mesh):
    vol = Fraction(0)
    for ell, c in mesh.cells():
        vol += mesh.levels[ell].cell_volume(c)
    return vol


def ref_uni_two_scale(ctx):
    xs = ctx.rng("uni_two_scale").random(100)
    worst, count = 0.0, 0
    for ell, (coarse, fine) in enumerate(zip(ctx.levels, ctx.levels[1:])):
        for k, (ckv, fkv) in enumerate(zip(coarse.kvs, fine.kvs)):
            for j in range(ckv.num_basis):
                parent = ckv.local(j)
                kids = [(fkv.local(i), c) for i, c in children_table(ckv, fkv)[j]]
                lo, hi = parent.support
                for child, c in kids:
                    pair = (f"pair (parent {j} of level {ell}, child {child.index} "
                            f"of level {ell + 1}, direction {k})")
                    if c <= 0:
                        return InvariantResult("univariate_two_scale", False, count, 1.0,
                                               f"nonpositive coefficient {c} in {pair}")
                    clo, chi = child.support
                    if clo < lo or chi > hi:
                        return InvariantResult("univariate_two_scale", False, count, 1.0,
                                               f"child support escapes the parent in {pair}")
                vals = parent.evaluate(xs)
                acc = np.zeros_like(xs)
                for child, c in kids:
                    acc += float(c) * child.evaluate(xs)
                worst = max(worst, float(np.abs(vals - acc).max()))
                count += 1
    return _result("univariate_two_scale", worst, count, TOL_EXACT)


def ref_characterization(ctx):
    count = 0
    for ell, (coarse, fine) in enumerate(zip(ctx.levels, ctx.levels[1:])):
        for k, (ckv, fkv) in enumerate(zip(coarse.kvs, fine.kvs)):
            by_window = {j: {idx for idx, _ in children_table(ckv, fkv)[j]}
                         for j in range(ckv.num_basis)}
            ptab = parent_table(ckv, fkv)
            for j in range(ckv.num_basis):
                parent = ckv.local(j)
                for i in range(fkv.num_basis):
                    insertion = i in by_window[j]
                    endpoint = is_child_of(fkv.local(i), parent)
                    via_parents = j in ptab[i]
                    count += 1
                    if not insertion == endpoint == via_parents:
                        return InvariantResult(
                            "parent_child_characterization", False, count, 1.0,
                            f"pair (parent {j} of level {ell}, child {i} of level {ell + 1}, "
                            f"direction {k}) disagrees: "
                            f"insertion={insertion} endpoint={endpoint} "
                            f"parents={via_parents}")
    return InvariantResult("parent_child_characterization", True, count, 0.0)


def ref_tensor_two_scale(ctx):
    if len(ctx.levels) < 2:
        return InvariantResult("tensor_two_scale", True, 0, 0.0, "single level")
    cols = RefColumns(ctx.levels, ctx.points("tensor_two_scale", 120))
    rng = ctx.rng("tensor_two_scale_pick")
    worst, count = 0.0, 0
    for coarse in ctx.levels[:-1]:
        ids = list(coarse.function_ids())
        picks = [Fid(coarse.index, idx) for idx in
                 {tuple(ids[k]) for k in rng.integers(0, len(ids), size=min(50, len(ids)))}]
        for fid, kids in zip(picks, cols.children(picks)):
            acc = cols.combination(kids)
            worst = max(worst, float(np.abs(cols.function(fid) - acc).max()))
            count += 1
    return _result("tensor_two_scale", worst, count, TOL_EXACT)


def ref_partition(ctx):
    vol = ref_total_volume(ctx.mesh)
    if vol != 1:
        return InvariantResult("active_cells_partition", False, ctx.mesh.cell_count(), 1.0,
                               f"volumes sum to {vol}")
    rng = ctx.rng("cells_partition")
    count = 0
    for _ in range(200):
        pt = rng.random(ctx.dim)
        hits = 0
        for lv, mask in zip(ctx.mesh.levels, ctx.mesh.masks):
            loc = lv.locate(pt)
            if loc is not None and mask[loc]:
                hits += 1
        if hits != 1:
            return InvariantResult("active_cells_partition", False, count,
                                   1.0, f"point {pt} in {hits} active cells")
        count += 1
    return InvariantResult("active_cells_partition", True, count, 0.0)


def ref_coarse_in_refinable(ctx):
    cols = RefColumns(ctx.levels, ctx.points("v0_span", 150))
    worst, count = 0.0, 0
    for idx in ctx.levels[0].function_ids():
        fid = Fid(0, idx)
        count += 1
        if fid in ctx.refinable:
            continue
        acc = cols.combination(expand_deactivated(fid, ctx.refinable))
        worst = max(worst, float(np.abs(cols.function(fid) - acc).max()))
    return _result("coarse_space_in_refinable", worst, count, TOL_EXACT)


def ref_stage_nesting(ctx):
    cols = RefColumns(ctx.levels, ctx.points("stage_nesting", 100))
    basis = ctx.refinable
    worst, count = 0.0, 0
    for ell in range(len(basis.stages) - 1):
        gone = sorted(basis.stages[ell] - basis.stages[ell + 1],
                      key=lambda f: id_sort_key(f.indices))
        for fid, kids in zip(gone, cols.children(gone)):
            if not kids.keys() <= basis.stages[ell + 1]:
                return InvariantResult("refinable_stage_nesting", False, count, 1.0,
                                       f"child of {fid} missing from the next stage")
            acc = cols.combination(kids)
            worst = max(worst, float(np.abs(cols.function(fid) - acc).max()))
            count += 1
    return _result("refinable_stage_nesting", worst, count, TOL_EXACT)


def ref_support_in_cells(h, levels, level, indices, ell):
    """Is the support inside subdomain ell, through cell_ancestor and the
    stored cell set, with no grid?"""
    cells = h.subdomain_cells(ell)
    ranges = levels[level].function_cell_ranges(indices)
    lo = cell_ancestor(levels, level, ell - 1, tuple(r.start for r in ranges))
    hi = cell_ancestor(levels, level, ell - 1, tuple(r.stop - 1 for r in ranges))
    return all(c in cells for c in iter_box([range(a, b + 1) for a, b in zip(lo, hi)]))


def ref_zero_weight(h, levels, fid, weights):
    """The zero-weight test through the parents, one parent at a time."""
    ell = fid.level
    for p in tensor_parents(fid.indices, levels[ell - 1], levels[ell]):
        parent = Fid(ell - 1, p)
        if weights.defined(parent) and weights.weight(parent) > 0 \
                and ref_support_in_cells(h, levels, ell - 1, p, ell):
            return False
    return True


def ref_refinable_positive(ctx):
    positive = {fid for fid in ctx.classical.functions() if ctx.weights.weight(fid) > 0}
    if positive != ctx.refinable.member_set:
        # the first function in canonical order, the first direction fastest
        fid = min(positive ^ ctx.refinable.member_set, key=lambda f: (f.level, f.indices[::-1]))
        return InvariantResult("refinable_equals_positive_weights", False, len(positive), 1.0,
                               f"set mismatch: function {fid.indices} of level {fid.level}")
    count = len(positive)
    for fid, value in ctx.weights.values.items():
        if fid.level == 0:
            continue
        count += 1
        flag = ctx.weights.is_positive(fid)
        if (value > 0) != flag:
            return InvariantResult("refinable_equals_positive_weights", False,
                                   count, 1.0, f"flag disagrees at {fid}")
        assert ref_support_in_cells(ctx.hierarchy, ctx.levels, fid.level, fid.indices,
                                    fid.level)
        char = ref_zero_weight(ctx.hierarchy, ctx.levels, fid, ctx.weights)
        if char != (value == 0):
            return InvariantResult("refinable_equals_positive_weights", False,
                                   count, 1.0, f"parent test disagrees at {fid}")
    return InvariantResult("refinable_equals_positive_weights", True, count, 0.0)


def dual_pair_blocks(op):
    """lambda_i(b_j) for every pair of members of a level, in row blocks.

    Yields (first row, values) with values[r, c] = lambda_i(b_j) for
    i = members[first + r] and j = members[c]: per direction, the
    univariate dual column of i_k on the anchor interval applied to the
    values of every function of the direction at that interval's nodes,
    multiplied over the directions in order.
    """
    members, anchors = op.member_indices, op.anchor_indices
    factors = []
    for k, (kv, tab) in enumerate(zip(op.level.kvs, op.tables)):
        values = _univariate_values(kv, tab.nodes.ravel()).reshape((-1,) + tab.nodes.shape)
        # per interval, local function and univariate function j
        per_interval = np.einsum("iql,jiq->ilj", tab.duals, values)
        first = kv.first_functions
        # row i: member i's k-th dual applied to every function of direction k
        factors.append(per_interval[anchors[:, k], members[:, k] - first[anchors[:, k]]])
    step = max(1, kernels.BLOCK // max(1, len(members)))
    for r in range(0, len(members), step):
        block = factors[0][r:r + step][:, members[:, 0]]
        for k in range(1, len(factors)):
            block *= factors[k][r:r + step][:, members[:, k]]
        yield r, block


def ref_kronecker(ctx):
    worst, count = 0.0, 0
    for op in ctx.operator.stages:
        for r, block in dual_pair_blocks(op):
            rows = np.arange(block.shape[0])
            block[rows, r + rows] -= 1.0
            worst = max(worst, float(np.abs(block).max()))
        count += len(op) ** 2
    return _result("dual_basis_kronecker", worst, count, TOL_OPERATOR)


def ref_children_cover(ctx):
    if ctx.fixture.refinement != "dyadic":
        return InvariantResult("children_cover_core_functions", True, 0, 0.0,
                               "dyadic refinement only")
    count = 0
    for ell in range(ctx.hierarchy.depth - 1):
        for idx in map(tuple, ctx.operator.stages[ell + 1].member_indices.tolist()):
            count += 1
            parents = tensor_parents(idx, ctx.levels[ell], ctx.levels[ell + 1])
            if not any(support_in_subdomain(ctx.hierarchy, ctx.levels, ell, p, ell + 1)
                       for p in parents):
                return InvariantResult("children_cover_core_functions", False, count, 1.0,
                                       f"{idx} at level {ell + 1} has no parent sunk in "
                                       f"subdomain {ell + 1}")
    return InvariantResult("children_cover_core_functions", True, count, 0.0)


def ref_core(ctx):
    if not ctx.core.masks[0].all():
        return InvariantResult("core_domains_definition", False, 1, 1.0,
                               "level-0 core must cover the domain")
    count = 1
    for ell in range(1, ctx.hierarchy.depth):
        lv = ctx.levels[ell]
        stored = ctx.core.cells(ell)
        cells = ctx.hierarchy.subdomain_cells(ell)
        pool: set = set()
        for c in cells:
            pool.update(iter_box(cell_descendant_ranges(ctx.levels, ell - 1, ell, c)))
        if not stored <= pool:
            return InvariantResult("core_domains_definition", False, count,
                                   1.0, f"core of level {ell} escapes the subdomain")
        for c in sorted(pool, key=id_sort_key):
            ext = lv.support_extension_cell_ranges(c)
            inside = all(cell_ancestor(ctx.levels, ell, ell - 1, cc) in cells
                         for cc in iter_box(ext))
            count += 1
            if inside != (c in stored):
                return InvariantResult("core_domains_definition", False, count, 1.0,
                                       f"cell {c} of level {ell} misclassified")
    return InvariantResult("core_domains_definition", True, count, 0.0)


def ref_enlargement(ctx):
    spec = ctx.fixture.enlargement
    if spec is None:
        return InvariantResult("enlargement_monotonicity", True, 0, 0.0,
                               "no enlargement section")
    h2 = enlarge_hierarchy(ctx.hierarchy, ctx.levels, spec.additions, spec.new_deepest)
    levels2 = extend_level_sequence(ctx.levels, h2.depth)
    w2 = compute_weights(h2, levels2)
    count = 0
    for fid, value in ctx.weights.values.items():
        if w2.defined(fid):
            count += 1
            if w2.weight(fid) < value:
                return InvariantResult("enlargement_monotonicity", False,
                                       count, 1.0, f"weight dropped at {fid}")
    refinable2 = build_refinable_basis(h2, levels2, w2)
    cols = RefColumns(levels2, ctx.points("enlargement", 100))
    worst = 0.0
    for fid in ctx.refinable.functions():
        count += 1
        if fid in refinable2:
            continue
        acc = cols.combination(expand_deactivated(fid, refinable2))
        worst = max(worst, float(np.abs(cols.function(fid) - acc).max()))
    return _result("enlargement_monotonicity", worst, count, TOL_OPERATOR)


def ref_uni_pou(ctx):
    xs = ctx.rng("uni_pou").random(200)
    xs = np.concatenate([xs, [0.0, 1.0]])
    worst, count = 0.0, 0
    for lv in ctx.levels:
        for kv in lv.kvs:
            total = np.zeros_like(xs)
            for values in _univariate_values(kv, xs):
                total += values
            worst = max(worst, float(np.abs(total - 1.0).max()))
            count += xs.size
    return _result("univariate_partition_of_unity", worst, count, TOL_EXACT)


def ref_child_count(ctx):
    """The first interior function of level 0 with p+2 distinct local
    knots in every direction, from Fraction supports and local knots."""
    name = "interior_child_count"
    if ctx.fixture.refinement != "dyadic" or len(ctx.levels) < 2:
        return InvariantResult(name, True, 0, 0.0, "not applicable")
    coarse, fine = ctx.levels[0], ctx.levels[1]
    expected, interior = 1, []
    for kv in coarse.kvs:
        expected *= kv.degree + 2
        interior.append(next((j for j in range(kv.num_basis)
                              if kv.support(j)[0] > 0 and kv.support(j)[1] < 1
                              and len(set(kv.local(j).knots)) == kv.degree + 2), None))
    if None in interior:
        return InvariantResult(name, True, 0, 0.0, "no interior function at level 0")
    got = len(tensor_children(tuple(interior), coarse, fine))
    return InvariantResult(name, got == expected, 1, 0.0 if got == expected else 1.0,
                           f"got {got}, expected {expected}")


def ref_local_li(ctx):
    rng = ctx.rng("local_li")
    count = 0
    for lv in ctx.levels:
        cell = next(iter_box([range(n // 2, n // 2 + 1) for n in lv.num_cells]))
        funcs = list(iter_box(lv.functions_on_cell(cell)))
        pts = np.column_stack([rng.uniform(float(lo), float(hi), len(funcs))
                               for lo, hi in lv.cell_box(cell)])
        rank = np.linalg.matrix_rank(np.column_stack([eval_function(lv, f, pts) for f in funcs]))
        count += 1
        if rank != len(funcs):
            return InvariantResult("local_linear_independence", False, count, 1.0,
                                   f"rank {rank} < {len(funcs)} on level {lv.index}")
    return InvariantResult("local_linear_independence", True, count, 0.0)


def ref_mass(ctx):
    """The masses of the operator's workspace against those of a second
    workspace over a finer rule's tables."""
    name = "mass_matrix_quadrature"
    worst, count = 0.0, 0
    finer = OperatorConfig(quad_increment=min(ctx.config.quad_increment + 3, MAX_INCREMENT))
    for ell in range(ctx.hierarchy.depth):
        cells = marked_indices(ctx.core.masks[ell])
        if not cells:
            continue
        cell = cells[len(cells) // 2]
        ws = ctx.operator.stages[ell].workspace(cell)
        ws_fine = LocalProjectionWorkspace(ctx.levels[ell], cell,
                                           level_tables(ctx.levels[ell], finer))
        if not np.array_equal(ws.mass, ws.mass.T):
            return InvariantResult(name, False, count, 1.0, f"mass matrix of cell {cell} of "
                                   f"level {ell} not symmetric")
        eigmin = float(np.linalg.eigvalsh(ws.mass).min())
        if eigmin <= 0:
            return InvariantResult(name, False, count, 1.0, f"mass matrix of cell {cell} of "
                                   f"level {ell} not positive definite ({eigmin})")
        scale = float(np.abs(ws.mass).max())
        worst = max(worst, float(np.abs(ws.mass - ws_fine.mass).max()) / scale)
        count += 1
    return _result(name, worst, count, 1e-12)


def ref_core_in_refinable(ctx):
    name = "core_functions_in_refinable"
    if not ctx.report.omega_nested:
        return InvariantResult(name, True, 0, 0.0, "core domains not nested")
    count = 0
    for ell, (op, selected) in enumerate(zip(ctx.operator.stages, ctx.refinable.selected)):
        for idx in map(tuple, op.member_indices.tolist()):
            count += 1
            if not selected[idx]:
                return InvariantResult(name, False, count, 1.0,
                                       f"core function {idx} of level {ell} outside the stage")
    return InvariantResult(name, True, count, 0.0)


def ref_dense_independence(basis, mesh):
    """The collocation matrix one function and one cell at a time, through
    eval_function and the Fraction cell boxes."""
    members = [(lv, i) for lv, m in zip(basis.levels, basis.active) for i in marked_indices(m)]
    blocks = []
    for ell, idx in mesh.cells():
        lv = mesh.levels[ell]
        axes = [float(lo) + (float(hi) - float(lo)) * ((np.arange(p + 1) + 1.0) / (p + 2.0))
                for p, (lo, hi) in zip(lv.degrees, lv.cell_box(idx))]
        combos = list(iter_box([range(len(a)) for a in axes]))
        blocks.append(np.array([[a[i] for a, i in zip(axes, c)] for c in combos]))
    pts = np.vstack(blocks)
    rank = np.linalg.matrix_rank(np.column_stack([eval_function(lv, idx, pts)
                                                  for lv, idx in members]))
    ok = rank == len(members)
    return InvariantResult("linear_independence_active", ok, 1, 0.0 if ok else 1.0,
                           f"rank {rank} of {len(members)} at {pts.shape[0]} points")


REFERENCES = {
    "univariate_partition_of_unity": ref_uni_pou,
    "interior_child_count": ref_child_count,
    "local_linear_independence": ref_local_li,
    "mass_matrix_quadrature": ref_mass,
    "core_functions_in_refinable": ref_core_in_refinable,
    "univariate_two_scale": ref_uni_two_scale,
    "parent_child_characterization": ref_characterization,
    "tensor_two_scale": ref_tensor_two_scale,
    "active_cells_partition": ref_partition,
    "coarse_space_in_refinable": ref_coarse_in_refinable,
    "refinable_stage_nesting": ref_stage_nesting,
    "refinable_equals_positive_weights": ref_refinable_positive,
    "core_domains_definition": ref_core,
    "dual_basis_kronecker": ref_kronecker,
    "children_cover_core_functions": ref_children_cover,
    "enlargement_monotonicity": ref_enlargement,
}
# checks whose only change is in the random draws they take
DRAWING = ("level_operator_identities", "multiscale_identities")
CHECKS = dict(invariants._CHECKS)

# ---------------------------------------------------------------------------
# comparison


def _outcome(check, ctx):
    """A check's result with the worst residual as its bits, or the type
    and message of what it raised."""
    try:
        r = check(ctx)
    except HierSplineError as exc:
        return type(exc), str(exc)
    return r.name, bool(r.passed), int(r.count), float(r.worst).hex(), r.detail


def _drawing_outcome(name, ctx, monkeypatch, former):
    with monkeypatch.context() as m:
        if former:
            m.setattr(invariants, "_random_spline", ref_random_spline)
            m.setattr(_Context, "points_in_cells", ref_points_in_cells)
        return _outcome(CHECKS[name], ctx)


def assert_same_outcomes(ctx, monkeypatch):
    assert ctx.mesh.total_volume() == ref_total_volume(ctx.mesh)
    for name, ref in REFERENCES.items():
        assert _outcome(CHECKS[name], ctx) == _outcome(ref, ctx), name
    for name in DRAWING:
        assert _drawing_outcome(name, ctx, monkeypatch, False) == \
            _drawing_outcome(name, ctx, monkeypatch, True), name


def _context(fixture):
    return _Context(fixture, OperatorConfig())


FIXTURES = sorted(FIXTURE_DIR.glob("*.json")) + [DATA_DIR / "raised_multiplicity_on_boundary.json",
                                                  DATA_DIR / "repeated_initial_knot.json"]


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_invariants_match_former_routes(path, monkeypatch):
    assert_same_outcomes(_context(load_fixture(path)), monkeypatch)


@pytest.mark.parametrize("explicit", [False, True], ids=["dyadic", "explicit"])
def test_random_invariants_match_former_routes(rng, explicit, monkeypatch):
    # explicit draws raise multiplicities up to degree + 1
    for _ in range(8):
        levels, h = random_hierarchy(rng, explicit=explicit)
        additions, new_deepest = random_enlargement(rng, levels, h)
        fx = Fixture("random", levels[0].dim, levels[0].degrees, levels, h,
                     "explicit" if explicit else "dyadic",
                     EnlargementSpec(additions, new_deepest))
        assert_same_outcomes(_context(fx), monkeypatch)


@pytest.mark.parametrize("explicit", [False, True], ids=["dyadic", "explicit"])
def test_dense_independence_matches_former_route(rng, explicit):
    for _ in range(6):
        levels, h = random_hierarchy(rng, explicit=explicit)
        basis, mesh = build_hierarchical_basis(h, levels)
        assert invariants.dense_independence(basis, mesh) == ref_dense_independence(basis, mesh)


# ---------------------------------------------------------------------------
# fault injection: the rewritten routes still see a broken input


def _both(name, ctx):
    got = _outcome(CHECKS[name], ctx)
    assert got == _outcome(REFERENCES[name], ctx)
    return got


@pytest.mark.parametrize("name", ["d2_corner_admissible", "d2_nested_not_admissible",
                                  "d3_depth2_corner"])
@pytest.mark.parametrize("into_core", [False, True], ids=["drop", "add"])
def test_flipped_core_cell_is_named(name, into_core):
    ctx = _context(load_fixture(FIXTURE_DIR / f"{name}.json"))
    ell = 1
    pool = set()
    for c in ctx.hierarchy.subdomain_cells(ell):
        pool.update(iter_box(cell_descendant_ranges(ctx.levels, ell - 1, ell, c)))
    flip = min(c for c in pool if ctx.core.masks[ell][c] != into_core)
    masks = [m.copy() for m in ctx.core.masks]
    masks[ell][flip] = into_core
    ctx.core = CoreDomains(tuple(masks), ctx.core.nested)
    got = _both("core_domains_definition", ctx)
    assert got[1] is False
    assert got[4] == f"cell {flip} of level {ell} misclassified"


@pytest.mark.parametrize("name", ["d2_corner_admissible", "d2_nested_not_admissible",
                                  "d1_depth3_blocks"])
def test_child_dropped_from_a_stage_is_named(name):
    ctx = _context(load_fixture(FIXTURE_DIR / f"{name}.json"))
    basis = ctx.refinable
    # the first function gone from a stage, in canonical order, loses its
    # first child from the selection of the next level
    ell = next(k for k in range(len(basis.selected) - 1)
               if (basis.selected[k] & ~basis.active[k]).any())
    parent = marked_indices(basis.selected[ell] & ~basis.active[ell])[0]
    child = tensor_children(parent, ctx.levels[ell], ctx.levels[ell + 1])[0][0]
    selected = list(basis.selected)
    selected[ell + 1] = selected[ell + 1].copy()
    selected[ell + 1][child] = False
    ctx.refinable = dataclasses.replace(basis, selected=tuple(selected))
    got = _both("refinable_stage_nesting", ctx)
    assert got[1] is False
    assert got[4] == f"child of {Fid(ell, parent)} missing from the next stage"


@pytest.mark.parametrize("coarser", [False, True], ids=["one", "with_a_coarser_refusal"])
def test_descendant_dropped_from_the_active_set_is_named(coarser):
    # a level-2 function reached first by the expansion of deactivated
    # level-0 function A loses its active bit, and with a coarser refusal
    # also a level-1 function reached first by a later source B: the
    # per-function route refuses at A, naming the level-2 function, and
    # so must the one sweep over all sources, though B refuses a level
    # higher up
    ctx = _context(load_fixture(FIXTURE_DIR / "d2_nested_not_admissible.json"))
    basis = ctx.refinable
    reached = [expand_deactivated(Fid(0, idx), basis) for idx in marked_indices(~basis.active[0])]
    a = next(k for k, e in enumerate(reached) if any(fid.level == 2 for fid in e))
    dropped = [next(fid for fid in reached[a] if fid.level == 2)]
    if coarser:
        earlier = set().union(*reached[:a + 1])
        dropped.append(next(fid for e in reached[a + 1:] for fid in e
                            if fid.level == 1 and fid not in earlier))
    active = [mask.copy() for mask in basis.active]
    for fid in dropped:
        active[fid.level][fid.indices] = False
    ctx.refinable = dataclasses.replace(basis, active=tuple(active))
    got = _both("coarse_space_in_refinable", ctx)
    assert got == (hierarchy.HierarchyError,
                   f"{dropped[0]} is neither active nor deactivated in this basis")


@pytest.mark.parametrize("name", ["d2_corner_admissible", "d2_nested_not_admissible",
                                  "d3_depth2_corner"])
def test_flipped_weight_flag_is_named(name):
    ctx = _context(load_fixture(FIXTURE_DIR / f"{name}.json"))
    # the first defined function below level 0, in the order of the views
    ell = next(ell for ell, idx in enumerate(ctx.weights.indices) if ell > 0 and len(idx))
    fid = Fid(ell, tuple(ctx.weights.indices[ell][0].tolist()))
    flags = list(ctx.weights.flags)
    flags[ell] = flags[ell].copy()
    flags[ell][0] = not flags[ell][0]
    ctx.weights = dataclasses.replace(ctx.weights, flags=tuple(flags))
    got = _both("refinable_equals_positive_weights", ctx)
    assert got[1] is False
    assert got[4] == f"flag disagrees at {fid}"


@pytest.mark.parametrize("name", ["d2_corner_admissible", "d2_nested_not_admissible",
                                  "d3_depth2_corner"])
def test_zeroed_parent_weight_fails_the_parent_test(name):
    ctx = _context(load_fixture(FIXTURE_DIR / f"{name}.json"))
    w = ctx.weights
    # the first level-1 function with a single positive parent sunk in
    # subdomain 1; that parent is no classical member, so zeroing its
    # weight leaves the sets and the flags as they are
    fid, parent = next((Fid(1, idx), sunk[0]) for idx in map(tuple, w.indices[1].tolist())
                       for sunk in [[p for p in tensor_parents(idx, ctx.levels[0], ctx.levels[1])
                                     if ref_support_in_cells(ctx.hierarchy, ctx.levels, 0, p, 1)]]
                       if len(sunk) == 1)
    numerators = list(w.numerators)
    numerators[0] = numerators[0].copy()
    numerators[0][w.positions(0, [parent])[0]] = 0
    ctx.weights = dataclasses.replace(w, numerators=tuple(numerators))
    got = _both("refinable_equals_positive_weights", ctx)
    assert got[1] is False
    assert got[4] == f"parent test disagrees at {fid}"


def _first_stage(ctx):
    return next(op for op in ctx.operator.stages if len(op))


@pytest.mark.parametrize("name", ["d2_corner_admissible", "d2_nested_not_admissible",
                                  "d3_depth2_corner", "d1_depth3_blocks"])
def test_scaled_dual_fails_as_over_all_pairs(name):
    ctx = _context(load_fixture(FIXTURE_DIR / f"{name}.json"))
    op = _first_stage(ctx)
    # the direction-0 dual column of the first member on its anchor interval
    a = op.anchor_indices[0, 0]
    local = op.member_indices[0, 0] - op.level.kvs[0].first_functions[a]
    duals = op.tables[0].duals.copy()
    duals[a, :, local] *= 1.5
    op.tables = (op.tables[0]._replace(duals=duals),) + op.tables[1:]
    got = _both("dual_basis_kronecker", ctx)
    assert got[1] is False
    assert float.fromhex(got[3]) >= 0.5 - 1e-9


@pytest.mark.parametrize("name", ["d2_corner_admissible", "d1_depth3_blocks"])
def test_node_outside_its_interval_is_named(name):
    ctx = _context(load_fixture(FIXTURE_DIR / f"{name}.json"))
    op = _first_stage(ctx)
    k = op.level.dim - 1
    nodes = op.tables[k].nodes.copy()
    # node 1 of interval 2 moved to the middle of interval 3
    nodes[2, 1] = nodes[3].mean()
    op.tables = op.tables[:k] + (op.tables[k]._replace(nodes=nodes),)
    result = CHECKS["dual_basis_kronecker"](ctx)
    assert not result.passed
    assert result.detail == (f"node 1 of interval 2 of level {op.level_index}, "
                             f"direction {k}, outside its interval")


def test_rewritten_checks_take_no_per_item_route(monkeypatch):
    # the per-level checks reach neither the scalar parent, support and
    # cell queries nor, for the zero weights, the core domains, the
    # children cover and the active independence, the subdomain grids;
    # the mass check builds no workspace, the
    # independence checks evaluate no single function, and the
    # characterization runs is_child_of on the nested pairs alone
    ctx = _context(load_fixture(FIXTURE_DIR / "d2_nested_not_admissible.json"))
    expected = {name: _outcome(CHECKS[name], ctx) for name in (
        "refinable_equals_positive_weights", "children_cover_core_functions",
        "parent_child_characterization", "core_domains_definition",
        "mass_matrix_quadrature", "local_linear_independence", "linear_independence_active")}
    # the dense rank, on a basis small enough to take it twice
    fx = load_fixture(FIXTURE_DIR / "d2_corner_admissible.json")
    small = build_hierarchical_basis(fx.hierarchy, fx.levels)
    dense = invariants.dense_independence(*small)

    def refuse(*args, **kwargs):
        raise AssertionError("per-item route taken")

    with monkeypatch.context() as m:
        for module in (hierarchy, invariants, tensor):
            for attr in ("tensor_parents", "cell_ancestor", "cell_descendant_ranges",
                         "support_in_subdomain", "eval_function"):
                if hasattr(module, attr):
                    m.setattr(module, attr, refuse)
        m.setattr(quasiinterp.LocalProjectionWorkspace, "__init__", refuse)
        for name in ("mass_matrix_quadrature", "local_linear_independence"):
            assert _outcome(CHECKS[name], ctx) == expected[name], name
        assert invariants.dense_independence(*small) == dense
        for attr in ("__init__", "ancestor_maps", "boxes_inside", "cells_inside", "cell_inside",
                     "supports_inside"):
            m.setattr(hierarchy.SubdomainGrids, attr, refuse)
        for name in ("refinable_equals_positive_weights", "core_domains_definition",
                     "children_cover_core_functions", "linear_independence_active"):
            assert _outcome(CHECKS[name], ctx) == expected[name], name
    pairs = []
    real = invariants.is_child_of
    monkeypatch.setattr(invariants, "is_child_of",
                        lambda child, parent: pairs.append(1) or real(child, parent))
    got = _outcome(CHECKS["parent_child_characterization"], ctx)
    assert got == expected["parent_child_characterization"]
    assert got[1:3] == (True, 6072)
    assert 0 < len(pairs) < 6072


def _counted_sweeps(monkeypatch):
    """The pending levels of every invariants.express_arrays call, and the
    Fractions made, from here on."""
    sweeps, fractions = [], []
    real_sweep, real_new = invariants.express_arrays, Fraction.__new__

    def sweep(pending, *args, **kwargs):
        sweeps.append([len(indices) for indices, _ in pending])
        return real_sweep(pending, *args, **kwargs)

    def new(cls, *args, **kwargs):
        fractions.append(1)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(invariants, "express_arrays", sweep)
    monkeypatch.setattr(Fraction, "__new__", new)
    return sweeps, fractions


def test_expansion_checks_sweep_once_per_level_of_marks(monkeypatch):
    # every deactivated level-0 function in one exact sweep, which makes
    # no Fraction (a warm call, so the tables are built)
    ctx = _context(load_fixture(FIXTURE_DIR / "d2_nested_not_admissible.json"))
    expected = _outcome(CHECKS["coarse_space_in_refinable"], ctx)
    with monkeypatch.context() as m:
        sweeps, fractions = _counted_sweeps(m)
        got = _outcome(CHECKS["coarse_space_in_refinable"], ctx)
    assert got == expected and got[1:3] == (True, 100)
    assert sweeps == [[36, 0, 0, 0]]
    assert fractions == []
    # the functions gone from the enlarged refinable basis, one sweep per
    # level that has any
    ctx = _context(load_fixture(FIXTURE_DIR / "d1_linear_enlarge.json"))
    spec = ctx.fixture.enlargement
    h2 = enlarge_hierarchy(ctx.hierarchy, ctx.levels, spec.additions, spec.new_deepest)
    levels2 = extend_level_sequence(ctx.levels, h2.depth)
    refinable2 = build_refinable_basis(h2, levels2, compute_weights(h2, levels2))
    gone = [int((a & ~a2).sum()) for a, a2 in zip(ctx.refinable.active, refinable2.active)]
    with monkeypatch.context() as m:
        sweeps, _ = _counted_sweeps(m)
        assert _outcome(CHECKS["enlargement_monotonicity"], ctx)[1]
    assert sum(n > 0 for n in gone) > 0
    assert sweeps == [[n if ell == level else 0 for ell in range(h2.depth)]
                      for level, n in enumerate(gone) if n]


# ---------------------------------------------------------------------------
# the suite reads the per-level arrays


def test_the_suite_and_the_operator_build_no_views():
    # fresh fixtures, so no earlier test filled the knot vectors' caches
    ctx = _context(load_fixture(FIXTURE_DIR / "d2_nested_not_admissible.json"))
    for _, check in invariants._CHECKS:
        check(ctx)
    fx = load_fixture(FIXTURE_DIR / "d2_corner_admissible.json")
    op = MultiscaleQuasiInterpolant(fx.hierarchy, fx.levels)
    f = get_function("sin", fx.dimension)
    assert error_norms(f, op.apply(f), 2) > 0
    # no basis view is built at all
    assert [name for basis in (ctx.classical, ctx.refinable, op.refinable)
            for name in ("member_set", "stages") if name in vars(basis)] == []
    for owner, cache in [(ctx.weights, "_views"), (op.refinable.weights, "_views"),
                         (ctx.core, "_cellsets"), (op.core, "_cellsets")]:
        assert cache not in vars(owner)
    for stage in [*ctx.operator.stages, *op.stages]:
        assert not {"members", "anchor_cells"} & vars(stage).keys()
    for kv in [kv for lv in (*ctx.levels, *fx.levels) for kv in lv.kvs]:
        assert not vars(kv).get("_children_tables")


def test_the_suite_compares_and_hashes_no_knot_fractions(monkeypatch):
    # knots are integer numerators, so a suite on a freshly loaded fixture,
    # after a first one, compares one Fraction, the total volume of the
    # active cells against 1, and hashes none
    path = FIXTURE_DIR / "d2_nested_not_admissible.json"
    invariants.run_invariant_suite(load_fixture(path))
    fixture, calls = load_fixture(path), []
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__"):
        def counted(self, *args, _real=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(Fraction, name, counted)
    report = invariants.run_invariant_suite(fixture)
    monkeypatch.undo()
    assert report.passed
    assert calls in ([], ["__eq__"])


@pytest.mark.parametrize("name, calls", [("d2_nested_not_admissible", 1),
                                         ("d1_linear_enlarge", 2)])
def test_a_check_computes_the_weights_once(name, calls, monkeypatch):
    # once for the context, and once more for an enlargement section's
    # enlarged hierarchy
    seen = []
    real = hierarchy.compute_weights

    def counted(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "compute_weights", counted)
    monkeypatch.setattr(invariants, "compute_weights", counted)
    report = invariants.run_invariant_suite(load_fixture(FIXTURE_DIR / f"{name}.json"))
    assert next(r for r in report.results if r.name == "mesh_roundtrip").passed
    assert len(seen) == calls
