"""Named invariant checks over a fixture, runnable as a suite.

Each check returns a result with the number of individual assertions it
exercised and the worst residual it saw. The suite is deterministic: the
random generator is seeded per check from the suite seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels
from .errors import AdmissibilityError, HierSplineError
from .fixtures import Fixture, dump_active_cells, parse_mesh_dump
from .functions import get_function
from .hierarchy import (
    build_hierarchical_basis,
    build_refinable_basis,
    compute_weights,
    enlarge_hierarchy,
    expand_deactivated,
    partition_of_unity,
    support_in_subdomain,
    zero_weight_by_characterization,
)
from .quasiinterp import (
    LocalProjectionWorkspace,
    MultiscaleQuasiInterpolant,
    OperatorConfig,
    level_tables,
)
from .tensor import (
    TensorFunctionId as Fid,
    eval_function,
    extend_level_sequence,
    id_sort_key,
    iter_box,
    level_evaluator,
    tensor_children,
    tensor_parents,
)
from .univariate import children_table, is_child_of, parent_table

TOL_EXACT = 1e-12
TOL_OPERATOR = 1e-10


@dataclass
class InvariantResult:
    name: str
    passed: bool
    count: int = 0
    worst: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "count": int(self.count), "worst_residual": float(self.worst),
                "detail": self.detail}


@dataclass
class SuiteReport:
    fixture: str
    backend: str
    results: list[InvariantResult]
    counts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {"fixture": self.fixture, "backend": self.backend,
                "passed": self.passed, "counts": self.counts,
                "invariants": [r.to_dict() for r in self.results]}


class _Context:
    """Everything the checks share, built once per fixture."""

    def __init__(self, fixture: Fixture, config: OperatorConfig, seed: int):
        self.fixture = fixture
        self.levels = fixture.levels
        self.hierarchy = fixture.hierarchy
        self.config = config
        self.seed = seed
        self.dim = fixture.dimension
        self.weights = compute_weights(self.hierarchy, self.levels)
        self.classical, self.mesh = build_hierarchical_basis(
            self.hierarchy, self.levels, self.weights)
        self.refinable = build_refinable_basis(
            self.hierarchy, self.levels, self.weights)
        # the operator refuses only in apply_parts when the core domains
        # are not nested; its core domains and level stages serve all checks
        self.operator = MultiscaleQuasiInterpolant(
            self.hierarchy, self.levels, self.refinable, config)
        self.core = self.operator.core
        self.report = self.operator.report
        self.stages = self.operator.stages

    def rng(self, tag: str) -> np.random.Generator:
        import zlib
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])

    def points(self, tag: str, count: int) -> np.ndarray:
        return self.rng(tag).random((count, self.dim))

    def points_in_cells(self, tag: str, level: int, cells, count: int) -> np.ndarray | None:
        cells = sorted(cells, key=id_sort_key)
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


Check = Callable[[_Context], InvariantResult]
_CHECKS: list[tuple[str, Check]] = []


def _check(name: str):
    def deco(fn: Check) -> Check:
        _CHECKS.append((name, fn))
        return fn
    return deco


def _result(name: str, worst: float, count: int, tol: float,
            detail: str = "") -> InvariantResult:
    return InvariantResult(name, bool(worst <= tol), count, float(worst), detail)


# ---------------------------------------------------------------------------
# univariate / tensor checks

@_check("univariate_partition_of_unity")
def _chk_uni_pou(ctx: _Context) -> InvariantResult:
    xs = ctx.rng("uni_pou").random(200)
    xs = np.concatenate([xs, [0.0, 1.0]])
    worst, count = 0.0, 0
    for lv in ctx.levels:
        for kv in lv.kvs:
            total = np.zeros_like(xs)
            for j in range(kv.num_basis):
                total += kv.local(j).evaluate(xs)
            worst = max(worst, float(np.abs(total - 1.0).max()))
            count += xs.size
    return _result("univariate_partition_of_unity", worst, count, TOL_EXACT)


@_check("univariate_two_scale")
def _chk_uni_two_scale(ctx: _Context) -> InvariantResult:
    xs = ctx.rng("uni_two_scale").random(100)
    worst, count = 0.0, 0
    for coarse, fine in zip(ctx.levels, ctx.levels[1:]):
        for ckv, fkv in zip(coarse.kvs, fine.kvs):
            for j in range(ckv.num_basis):
                parent = ckv.local(j)
                kids = [(fkv.local(i), c) for i, c in children_table(ckv, fkv)[j]]
                lo, hi = parent.support
                for child, c in kids:
                    if c <= 0:
                        return InvariantResult(
                            "univariate_two_scale", False, count, 1.0,
                            f"nonpositive coefficient {c}")
                    clo, chi = child.support
                    if clo < lo or chi > hi:
                        return InvariantResult(
                            "univariate_two_scale", False, count, 1.0,
                            "child support escapes the parent")
                vals = parent.evaluate(xs)
                acc = np.zeros_like(xs)
                for child, c in kids:
                    acc += float(c) * child.evaluate(xs)
                worst = max(worst, float(np.abs(vals - acc).max()))
                count += 1
    return _result("univariate_two_scale", worst, count, TOL_EXACT)


@_check("parent_child_characterization")
def _chk_characterization(ctx: _Context) -> InvariantResult:
    count = 0
    for coarse, fine in zip(ctx.levels, ctx.levels[1:]):
        for ckv, fkv in zip(coarse.kvs, fine.kvs):
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
                            f"pair (parent {j}, child {i}) disagrees: "
                            f"insertion={insertion} endpoint={endpoint} "
                            f"parents={via_parents}")
    return InvariantResult("parent_child_characterization", True, count, 0.0)


@_check("tensor_partition_of_unity")
def _chk_tensor_pou(ctx: _Context) -> InvariantResult:
    pts = ctx.points("tensor_pou", 1000)
    pts = np.vstack([pts, np.zeros((1, ctx.dim)), np.ones((1, ctx.dim))])
    worst, count = 0.0, 0
    for lv in ctx.levels:
        ev = level_evaluator(lv)
        vals = ev.evaluate_dense(np.ones(ev.size), pts)
        worst = max(worst, float(np.abs(vals - 1.0).max()))
        count += pts.shape[0]
    return _result("tensor_partition_of_unity", worst, count, TOL_EXACT)


@_check("tensor_two_scale")
def _chk_tensor_two_scale(ctx: _Context) -> InvariantResult:
    if len(ctx.levels) < 2:
        return InvariantResult("tensor_two_scale", True, 0, 0.0, "single level")
    pts = ctx.points("tensor_two_scale", 120)
    rng = ctx.rng("tensor_two_scale_pick")
    worst, count = 0.0, 0
    for coarse, fine in zip(ctx.levels, ctx.levels[1:]):
        ids = list(coarse.function_ids())
        picks = {tuple(ids[k]) for k in rng.integers(0, len(ids), size=min(50, len(ids)))}
        for idx in picks:
            kids = tensor_children(idx, coarse, fine)
            vals = eval_function(coarse, idx, pts)
            acc = np.zeros(pts.shape[0])
            for cidx, c in kids:
                acc += float(c) * eval_function(fine, cidx, pts)
            worst = max(worst, float(np.abs(vals - acc).max()))
            count += 1
    return _result("tensor_two_scale", worst, count, TOL_EXACT)


@_check("interior_child_count")
def _chk_child_count(ctx: _Context) -> InvariantResult:
    if ctx.fixture.refinement != "dyadic" or len(ctx.levels) < 2:
        return InvariantResult("interior_child_count", True, 0, 0.0, "not applicable")
    coarse, fine = ctx.levels[0], ctx.levels[1]
    expected = 1
    interior = []
    for kv in coarse.kvs:
        expected *= kv.degree + 2
        # function whose support touches no domain end
        pick = None
        for j in range(kv.num_basis):
            lo, hi = kv.support(j)
            if lo > 0 and hi < 1:
                pick = j
                break
        interior.append(pick)
    if any(p is None for p in interior):
        return InvariantResult("interior_child_count", True, 0, 0.0,
                               "no interior function at level 0")
    kids = tensor_children(tuple(interior), coarse, fine)
    ok = len(kids) == expected
    return InvariantResult("interior_child_count", ok, 1,
                           0.0 if ok else 1.0,
                           f"got {len(kids)}, expected {expected}")


@_check("local_linear_independence")
def _chk_local_li(ctx: _Context) -> InvariantResult:
    rng = ctx.rng("local_li")
    count = 0
    for lv in ctx.levels:
        cell = next(iter_box([range(n // 2, n // 2 + 1) for n in lv.num_cells]))
        funcs = list(iter_box(lv.functions_on_cell(cell)))
        box = lv.cell_box(cell)
        npts = len(funcs)
        pts = np.column_stack([
            rng.uniform(float(lo), float(hi), npts) for lo, hi in box])
        mat = np.column_stack([eval_function(lv, f, pts) for f in funcs])
        rank = np.linalg.matrix_rank(mat)
        count += 1
        if rank != len(funcs):
            return InvariantResult("local_linear_independence", False, count,
                                   1.0, f"rank {rank} < {len(funcs)} on level {lv.index}")
    return InvariantResult("local_linear_independence", True, count, 0.0)


# ---------------------------------------------------------------------------
# hierarchy checks

@_check("basis_selection_consistency")
def _chk_selection(ctx: _Context) -> InvariantResult:
    # build_hierarchical_basis already cross-checks; re-run to surface it here
    basis, _ = build_hierarchical_basis(ctx.hierarchy, ctx.levels, ctx.weights)
    ok = basis.member_set == ctx.classical.member_set
    return InvariantResult("basis_selection_consistency", ok, len(basis),
                           0.0 if ok else 1.0)


@_check("partition_of_unity_weighted")
def _chk_hier_pou(ctx: _Context) -> InvariantResult:
    pts = ctx.points("hier_pou", 1000)
    worst, count = 0.0, 0
    for basis in (ctx.classical, ctx.refinable):
        vals = partition_of_unity(basis).evaluate(pts)
        worst = max(worst, float(np.abs(vals - 1.0).max()))
        count += pts.shape[0]
    return _result("partition_of_unity_weighted", worst, count, TOL_EXACT)


@_check("linear_independence_active")
def _chk_hier_li(ctx: _Context) -> InvariantResult:
    """Full column rank of a collocation matrix over well-spread points.

    Points form a tensor grid of degree+1 interior points per active cell;
    a spline combination vanishing on all of them vanishes cell by cell,
    so the matrix has full column rank exactly when the active functions
    are independent, and the grid keeps it numerically well separated.
    """
    basis = ctx.classical
    members = list(basis.functions())
    blocks = []
    for ell, idx in ctx.mesh.cells():
        lv = ctx.mesh.levels[ell]
        box = lv.cell_box(idx)
        axes = []
        for i, (lo, hi) in enumerate(box):
            n = lv.degrees[i] + 1
            ticks = (np.arange(n) + 1.0) / (n + 1.0)
            axes.append(float(lo) + (float(hi) - float(lo)) * ticks)
        combos = list(iter_box([range(len(a)) for a in axes]))
        pts = np.array([[axes[i][c[i]] for i in range(ctx.dim)] for c in combos])
        blocks.append(pts)
    pts = np.vstack(blocks)
    mat = np.column_stack([
        eval_function(basis.levels[f.level], f.indices, pts) for f in members])
    rank = np.linalg.matrix_rank(mat)
    ok = rank == len(members)
    return InvariantResult("linear_independence_active", ok, 1,
                           0.0 if ok else 1.0,
                           f"rank {rank} of {len(members)} at {pts.shape[0]} points")


@_check("active_cells_partition")
def _chk_partition(ctx: _Context) -> InvariantResult:
    vol = ctx.mesh.total_volume()
    if vol != 1:
        return InvariantResult("active_cells_partition", False,
                               ctx.mesh.cell_count(), 1.0,
                               f"volumes sum to {vol}")
    rng = ctx.rng("cells_partition")
    active_sets = [set(a) for a in ctx.mesh.active]
    count = 0
    for _ in range(200):
        pt = rng.random(ctx.dim)
        # random floats avoid breakpoints, so locating per level counts
        # interior hits
        hits = 0
        for ell, cells in enumerate(active_sets):
            loc = ctx.mesh.levels[ell].locate(pt)
            if loc is not None and loc in cells:
                hits += 1
        if hits != 1:
            return InvariantResult("active_cells_partition", False, count,
                                   1.0, f"point {pt} in {hits} active cells")
        count += 1
    return InvariantResult("active_cells_partition", True, count, 0.0)


@_check("coarse_space_in_refinable")
def _chk_coarse_in_refinable(ctx: _Context) -> InvariantResult:
    pts = ctx.points("v0_span", 150)
    worst, count = 0.0, 0
    for idx in ctx.levels[0].function_ids():
        fid = Fid(0, idx)
        count += 1
        if fid in ctx.refinable:
            continue
        expansion = expand_deactivated(fid, ctx.refinable)
        vals = eval_function(ctx.levels[0], idx, pts)
        acc = np.zeros(pts.shape[0])
        for g, c in expansion.items():
            acc += float(c) * eval_function(ctx.levels[g.level], g.indices, pts)
        worst = max(worst, float(np.abs(vals - acc).max()))
    return _result("coarse_space_in_refinable", worst, count, TOL_EXACT)


@_check("refinable_stage_nesting")
def _chk_stage_nesting(ctx: _Context) -> InvariantResult:
    pts = ctx.points("stage_nesting", 100)
    basis = ctx.refinable
    worst, count = 0.0, 0
    for ell in range(len(basis.stages) - 1):
        gone = basis.stages[ell] - basis.stages[ell + 1]
        for fid in gone:
            kids = tensor_children(fid.indices, ctx.levels[fid.level],
                                   ctx.levels[fid.level + 1])
            for cidx, _ in kids:
                if Fid(fid.level + 1, cidx) not in basis.stages[ell + 1]:
                    return InvariantResult(
                        "refinable_stage_nesting", False, count, 1.0,
                        f"child of {fid} missing from the next stage")
            vals = eval_function(ctx.levels[fid.level], fid.indices, pts)
            acc = np.zeros(pts.shape[0])
            for cidx, c in kids:
                acc += float(c) * eval_function(ctx.levels[fid.level + 1], cidx, pts)
            worst = max(worst, float(np.abs(vals - acc).max()))
            count += 1
    return _result("refinable_stage_nesting", worst, count, TOL_EXACT)


@_check("refinable_subset_classical")
def _chk_subset(ctx: _Context) -> InvariantResult:
    ok = ctx.refinable.member_set <= ctx.classical.member_set
    return InvariantResult("refinable_subset_classical", ok,
                           len(ctx.refinable), 0.0 if ok else 1.0)


@_check("refinable_equals_positive_weights")
def _chk_refinable_positive(ctx: _Context) -> InvariantResult:
    positive = {fid for fid in ctx.classical.functions()
                if ctx.weights.weight(fid) > 0}
    if positive != ctx.refinable.member_set:
        return InvariantResult("refinable_equals_positive_weights", False,
                               len(positive), 1.0, "set mismatch")
    count = len(positive)
    # numeric weight zero must agree with the structural flag and with the
    # parent-wise test, for every function the recursion defines below level 0
    for fid, value in ctx.weights.values.items():
        if fid.level == 0:
            continue
        count += 1
        flag = ctx.weights.is_positive(fid)
        if (value > 0) != flag:
            return InvariantResult("refinable_equals_positive_weights", False,
                                   count, 1.0, f"flag disagrees at {fid}")
        char = zero_weight_by_characterization(ctx.hierarchy, ctx.levels,
                                               fid, ctx.weights)
        if char != (value == 0):
            return InvariantResult("refinable_equals_positive_weights", False,
                                   count, 1.0, f"parent test disagrees at {fid}")
    return InvariantResult("refinable_equals_positive_weights", True, count, 0.0)


@_check("mesh_roundtrip")
def _chk_roundtrip(ctx: _Context) -> InvariantResult:
    dump = dump_active_cells(ctx.mesh, ctx.fixture.refinement)
    levels2, h2 = parse_mesh_dump(dump)
    if h2 != ctx.hierarchy:
        return InvariantResult("mesh_roundtrip", False, 1, 1.0,
                               "hierarchy differs after the round trip")
    basis2, _ = build_hierarchical_basis(h2, levels2)
    ok = basis2.member_set == ctx.classical.member_set
    return InvariantResult("mesh_roundtrip", ok, len(basis2),
                           0.0 if ok else 1.0)


# ---------------------------------------------------------------------------
# quasi-interpolation checks

@_check("core_domains_definition")
def _chk_core(ctx: _Context) -> InvariantResult:
    from .hierarchy import cell_in_subdomain
    from .tensor import cell_descendant_ranges
    lv0 = ctx.levels[0]
    if len(ctx.core.cells(0)) != int(np.prod(lv0.num_cells)):
        return InvariantResult("core_domains_definition", False, 1, 1.0,
                               "level-0 core must cover the domain")
    count = 1
    for ell in range(1, ctx.hierarchy.depth):
        lv = ctx.levels[ell]
        stored = ctx.core.cells(ell)
        # a cell whose extension fits the subdomain lies in it itself, so
        # checking the subdomain's own cells is exhaustive
        pool: set = set()
        for c in ctx.hierarchy.subdomain_cells(ell):
            pool.update(iter_box(cell_descendant_ranges(ctx.levels, ell - 1, ell, c)))
        if not stored <= pool:
            return InvariantResult("core_domains_definition", False, count,
                                   1.0, f"core of level {ell} escapes the subdomain")
        for c in pool:
            ext = lv.support_extension_cell_ranges(c)
            inside = all(cell_in_subdomain(ctx.hierarchy, ctx.levels, ell, cc, ell)
                         for cc in iter_box(ext))
            count += 1
            if inside != (c in stored):
                return InvariantResult("core_domains_definition", False,
                                       count, 1.0,
                                       f"cell {c} of level {ell} misclassified")
    return InvariantResult("core_domains_definition", True, count, 0.0)


@_check("admissibility_implication")
def _chk_admissibility(ctx: _Context) -> InvariantResult:
    rep = ctx.report
    if rep.strictly_admissible and not rep.omega_nested:
        return InvariantResult("admissibility_implication", False, 1, 1.0,
                               "strictness without nesting")
    detail = f"strict={rep.strictly_admissible} nested={rep.omega_nested}"
    return InvariantResult("admissibility_implication", True, 1, 0.0, detail)


@_check("dual_basis_kronecker")
def _chk_kronecker(ctx: _Context) -> InvariantResult:
    """Duality over all pairs per level.

    A functional reads only points inside its anchor cell, so pairs whose
    second function vanishes there evaluate through the same code path to
    an exact zero; they are verified in bulk per anchor cell, while the
    nontrivial pairs (second function alive on the anchor cell) are checked
    one by one.
    """
    rng = ctx.rng("kronecker_far")
    worst, count = 0.0, 0
    for op in ctx.stages:
        members = op.members
        member_set = set(members)
        lv = op.level
        for mi in members:
            lam = op.dual_functional(mi)
            cell = op.anchor_cells[mi]
            near = [m for m in iter_box(lv.functions_on_cell(cell))
                    if m in member_set]
            near_set = set(near)
            for mj in near:
                val = lam(lambda pts, mj=mj: eval_function(lv, mj, pts))
                target = 1.0 if mi == mj else 0.0
                worst = max(worst, abs(val - target))
            count += len(members)  # far pairs are exact zeros at the nodes
            checked = 0
            for _ in range(16):
                if checked >= 3:
                    break
                mj = members[int(rng.integers(0, len(members)))]
                if mj in near_set:
                    continue
                val = lam(lambda pts, mj=mj: eval_function(lv, mj, pts))
                worst = max(worst, abs(val))
                checked += 1
    return _result("dual_basis_kronecker", worst, count, TOL_OPERATOR)


@_check("mass_matrix_quadrature")
def _chk_mass(ctx: _Context) -> InvariantResult:
    worst, count = 0.0, 0
    finer = OperatorConfig(quad_increment=ctx.config.quad_increment + 3)
    for ell in range(ctx.hierarchy.depth):
        cells = sorted(ctx.core.cells(ell), key=id_sort_key)
        if not cells:
            continue
        cell = cells[len(cells) // 2]
        ws = ctx.stages[ell].workspace(cell)
        ws_fine = LocalProjectionWorkspace(ctx.levels[ell], cell,
                                           level_tables(ctx.levels[ell], finer))
        if not np.array_equal(ws.mass, ws.mass.T):
            return InvariantResult("mass_matrix_quadrature", False, count, 1.0,
                                   "mass matrix not symmetric")
        eigmin = float(np.linalg.eigvalsh(ws.mass).min())
        if eigmin <= 0:
            return InvariantResult("mass_matrix_quadrature", False, count, 1.0,
                                   f"mass matrix not positive definite ({eigmin})")
        scale = float(np.abs(ws.mass).max())
        worst = max(worst, float(np.abs(ws.mass - ws_fine.mass).max()) / scale)
        count += 1
    return _result("mass_matrix_quadrature", worst, count, 1e-12)


@_check("children_cover_core_functions")
def _chk_children_cover(ctx: _Context) -> InvariantResult:
    if ctx.fixture.refinement != "dyadic":
        return InvariantResult("children_cover_core_functions", True, 0, 0.0,
                               "dyadic refinement only")
    count = 0
    for ell in range(ctx.hierarchy.depth - 1):
        for idx in ctx.stages[ell + 1].members:
            count += 1
            parents = tensor_parents(idx, ctx.levels[ell], ctx.levels[ell + 1])
            if not any(support_in_subdomain(ctx.hierarchy, ctx.levels, ell,
                                            p, ell + 1) for p in parents):
                return InvariantResult(
                    "children_cover_core_functions", False, count, 1.0,
                    f"{idx} at level {ell + 1} has no parent sunk in "
                    f"subdomain {ell + 1}")
    return InvariantResult("children_cover_core_functions", True, count, 0.0)


@_check("core_functions_in_refinable")
def _chk_core_in_refinable(ctx: _Context) -> InvariantResult:
    if not ctx.report.omega_nested:
        return InvariantResult("core_functions_in_refinable", True, 0, 0.0,
                               "core domains not nested")
    count = 0
    for ell, op in enumerate(ctx.stages):
        stage = ctx.refinable.stages[min(ell, len(ctx.refinable.stages) - 1)]
        for idx in op.members:
            count += 1
            if Fid(ell, idx) not in stage:
                return InvariantResult(
                    "core_functions_in_refinable", False, count, 1.0,
                    f"core function {idx} of level {ell} outside the stage")
    return InvariantResult("core_functions_in_refinable", True, count, 0.0)


@_check("level_operator_identities")
def _chk_level_ops(ctx: _Context) -> InvariantResult:
    rng = ctx.rng("level_ops")
    worst, count = 0.0, 0
    pts = ctx.points("level_ops_pts", 150)
    for ell, op in enumerate(ctx.stages):
        if not op.members:
            continue
        lv = ctx.levels[ell]
        # reproduction on the span of the members
        coeffs = {m: float(rng.uniform(-1, 1)) for m in op.members}
        from .tensor import LevelSpline
        s = LevelSpline(lv, coeffs)
        ps = op.apply(s.evaluate)
        worst = max(worst, float(np.abs(ps.evaluate(pts) - s.evaluate(pts)).max()))
        count += pts.shape[0]
        # annihilation of anything vanishing on the core cells
        core_cells = ctx.core.cells(ell)

        def vanishing(p: np.ndarray) -> np.ndarray:
            out = np.ones(p.shape[0])
            for i in range(p.shape[0]):
                loc = lv.locate(p[i])
                if loc is not None and loc in core_cells:
                    out[i] = 0.0
            return out

        pz = op.apply(vanishing)
        zworst = max((abs(v) for v in pz.coefficients.values()), default=0.0)
        worst = max(worst, zworst)
        count += 1
        # reproduction of the full level space on the core region
        s_full = LevelSpline(lv, {i: float(rng.uniform(-1, 1))
                                  for i in lv.function_ids()})
        ps_full = op.apply(s_full.evaluate)
        inside = ctx.points_in_cells(f"level_ops_core_{ell}", ell, core_cells, 100)
        if inside is not None:
            worst = max(worst, float(np.abs(
                ps_full.evaluate(inside) - s_full.evaluate(inside)).max()))
            count += inside.shape[0]
    return _result("level_operator_identities", worst, count, TOL_OPERATOR)


@_check("multiscale_identities")
def _chk_multiscale(ctx: _Context) -> InvariantResult:
    if not ctx.report.omega_nested:
        # the operator must refuse on non-nested core domains
        try:
            ctx.operator.apply_parts(lambda p: np.ones(p.shape[0]))
        except AdmissibilityError:
            return InvariantResult("multiscale_identities", True, 1, 0.0,
                                   "refused on non-nested core domains")
        return InvariantResult("multiscale_identities", False, 1, 1.0,
                               "operator ran despite non-nested core domains")
    op = ctx.operator
    rng = ctx.rng("multiscale")
    pts = ctx.points("multiscale_pts", 200)
    worst, count = 0.0, 0
    # reproduction of the coarsest space
    from .tensor import LevelSpline
    s0 = LevelSpline(ctx.levels[0], {i: float(rng.uniform(-1, 1))
                                     for i in ctx.levels[0].function_ids()})
    out = op.apply(s0.evaluate)
    worst = max(worst, float(np.abs(out.evaluate(pts) - s0.evaluate(pts)).max()))
    count += pts.shape[0]
    # a generic smooth target
    f = get_function("sin", ctx.dim)
    parts = op.apply_parts(f)
    expressed = op.express_over_refinable(parts)
    raw = sum(p.evaluate(pts) for p in parts)
    worst = max(worst, float(np.abs(expressed.evaluate(pts) - raw).max()))
    count += pts.shape[0]
    for ell in range(ctx.hierarchy.depth):
        inside = ctx.points_in_cells(f"multiscale_core_{ell}", ell,
                                     ctx.core.cells(ell), 200)
        if inside is None:
            continue
        # partial recursion equals the direct level operator on the core
        partial = sum(p.evaluate(inside) for p in parts[:ell + 1])
        direct = op.stage_value(f, ell).evaluate(inside)
        worst = max(worst, float(np.abs(partial - direct).max()))
        # restricted decomposition equals the full recursion on the core
        dec = op.decomposition_parts(f, ell)
        v_dec = sum(p.evaluate(inside) for p in dec)
        v_full = sum(p.evaluate(inside) for p in parts)
        worst = max(worst, float(np.abs(v_dec - v_full).max()))
        count += 2 * inside.shape[0]
    return _result("multiscale_identities", worst, count, TOL_OPERATOR)


@_check("enlargement_monotonicity")
def _chk_enlargement(ctx: _Context) -> InvariantResult:
    spec = ctx.fixture.enlargement
    if spec is None:
        return InvariantResult("enlargement_monotonicity", True, 0, 0.0,
                               "no enlargement section")
    h2 = enlarge_hierarchy(ctx.hierarchy, ctx.levels, spec.additions,
                           spec.new_deepest)
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
    pts = ctx.points("enlargement", 100)
    worst = 0.0
    for fid in ctx.refinable.functions():
        count += 1
        lvl = ctx.levels[fid.level]
        vals = eval_function(lvl, fid.indices, pts)
        if fid in refinable2:
            continue
        expansion = expand_deactivated(fid, refinable2)
        acc = np.zeros(pts.shape[0])
        for g, c in expansion.items():
            acc += float(c) * eval_function(levels2[g.level], g.indices, pts)
        worst = max(worst, float(np.abs(vals - acc).max()))
    return _result("enlargement_monotonicity", worst, count, TOL_OPERATOR)


# ---------------------------------------------------------------------------
# the runner

def run_invariant_suite(fixture: Fixture,
                        config: OperatorConfig | None = None,
                        seed: int = 20240831) -> SuiteReport:
    """Run every registered invariant on the fixture, in registration order."""
    config = config or OperatorConfig()
    ctx = _Context(fixture, config, seed)
    results = []
    for name, fn in _CHECKS:
        try:
            results.append(fn(ctx))
        except HierSplineError as exc:
            results.append(InvariantResult(name, False, 0, float("inf"), str(exc)))
    counts = {
        "active_classical": len(ctx.classical),
        "active_refinable": len(ctx.refinable),
        "zero_weight": len(ctx.classical) - len(ctx.refinable),
        "active_cells": ctx.mesh.cell_count(),
        "depth": ctx.hierarchy.depth,
        "strictly_admissible": ctx.report.strictly_admissible,
        "core_nested": ctx.report.omega_nested,
        "quasi_uniformity": max(kv.quasi_uniformity
                                for lv in ctx.levels for kv in lv.kvs),
    }
    return SuiteReport(fixture.name, kernels.BACKEND, results, counts)
