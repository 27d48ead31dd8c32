"""Named invariant checks over a fixture, runnable as a suite.

Each check returns a result with the number of individual assertions it
exercised and the worst residual it saw. The suite is deterministic: the
random generator is seeded per check from the suite seed.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from . import kernels
from .errors import AdmissibilityError, HierSplineError
from .fixtures import Fixture, dump_active_cells, parse_mesh_dump
from .functions import get_function
from .hierarchy import (
    HierarchicalMesh,
    HierBasis,
    build_hierarchical_basis,
    build_refinable_basis,
    compute_weights,
    enlarge_hierarchy,
    expand_deactivated,
    partition_of_unity,
    subdomain_grids,
    support_in_subdomain,
    zero_weight_by_characterization,
)
from .quasiinterp import (
    LevelQuasiInterpolant,
    LocalProjectionWorkspace,
    MultiscaleQuasiInterpolant,
    OperatorConfig,
    level_tables,
)
from .tensor import (
    LevelSpline,
    TensorFunctionId as Fid,
    TensorLevel,
    cell_ancestor,
    cell_descendant_ranges,
    eval_function,
    extend_level_sequence,
    iter_box,
    marked_indices,
    tensor_children,
    tensor_children_arrays,
    tensor_parents,
    two_scale_tables,
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
    seconds: float = 0.0  # wall time of the check, set by the suite

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "count": int(self.count), "worst_residual": float(self.worst),
                "detail": self.detail, "seconds": float(self.seconds)}


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
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])

    def points(self, tag: str, count: int) -> np.ndarray:
        return self.rng(tag).random((count, self.dim))

    def points_in_cells(self, tag: str, level: int, mask: np.ndarray,
                        count: int) -> np.ndarray | None:
        """Random points in random cells among those marked on the level's grid."""
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


class _LevelColumns:
    """Functions of each level at fixed points, as columns of a matrix.

    Per level and direction, every univariate function is tabulated at the
    points once, with kernels.local_values on its local knots. A tensor
    function's column is the product of its directions' columns, taken in
    direction order as in eval_function, so it equals eval_function at the
    same points bit for bit. Only the gathered columns are formed, so a
    fine level costs its per-direction tables, not a points x functions
    matrix.
    """

    def __init__(self, levels, pts: np.ndarray):
        self.levels = levels
        self.pts = pts
        self._tables: dict[int, list[np.ndarray]] = {}

    def columns(self, ell: int, indices) -> np.ndarray:
        tables = self._tables.get(ell)
        if tables is None:
            tables = []
            for kv, x in zip(self.levels[ell].kvs, self.pts.T):
                p, knots, x = kv.degree, kv.floats, np.ascontiguousarray(x)
                tables.append(np.stack([kernels.local_values(knots[j:j + p + 2], p, x)
                                        for j in range(kv.num_basis)], axis=1))
            self._tables[ell] = tables
        idx = np.array(indices, dtype=np.int64).reshape(-1, len(tables))
        out = tables[0][:, idx[:, 0]]
        for k in range(1, len(tables)):
            out *= tables[k][:, idx[:, k]]
        return out

    def function(self, fid: Fid) -> np.ndarray:
        return self.columns(fid.level, [fid.indices])[:, 0]

    def combination(self, terms: Mapping[Fid, Fraction]) -> np.ndarray:
        """sum of c * g over the terms, one dot product per level."""
        by_level: dict[int, list] = {}
        for g, c in terms.items():
            by_level.setdefault(g.level, []).append((g.indices, float(c)))
        acc = np.zeros(self.pts.shape[0])
        for ell, pairs in sorted(by_level.items()):
            acc += self.columns(ell, [idx for idx, _ in pairs]) @ np.array([c for _, c in pairs])
        return acc

    def children(self, fids: list[Fid]) -> list[dict[Fid, Fraction]]:
        """The two-scale expansions of functions over the next level, in
        the order given, each in canonical order as from tensor_children;
        one tensor_children_arrays pass per level."""
        out: list[dict[Fid, Fraction]] = [{} for _ in fids]
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
        every = np.array(list(lv.function_ids()))
        vals = LevelSpline(lv, every, np.ones(len(every))).evaluate(pts)
        worst = max(worst, float(np.abs(vals - 1.0).max()))
        count += pts.shape[0]
    return _result("tensor_partition_of_unity", worst, count, TOL_EXACT)


@_check("tensor_two_scale")
def _chk_tensor_two_scale(ctx: _Context) -> InvariantResult:
    if len(ctx.levels) < 2:
        return InvariantResult("tensor_two_scale", True, 0, 0.0, "single level")
    cols = _LevelColumns(ctx.levels, ctx.points("tensor_two_scale", 120))
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
    return active_independence(ctx.classical, ctx.mesh)


def _ticks(degree: int) -> np.ndarray:
    """degree+1 interior points of the unit interval, (i+1)/(degree+2)."""
    n = degree + 1
    return (np.arange(n) + 1.0) / (n + 1.0)


def active_independence(basis: HierBasis, mesh: HierarchicalMesh) -> InvariantResult:
    """Full column rank of a collocation matrix over well-spread points.

    Points form a tensor grid of degree+1 interior points per active cell;
    a spline combination vanishing on all of them vanishes cell by cell,
    so the matrix has full column rank exactly when the active functions
    are independent, and the grid keeps it numerically well separated.

    The rank is certified level by level, as in the independence proof of
    Vuong, Giannelli, Juettler & Simeon (2011). Order the rows by the level
    of their active cell and the columns by function level: an active
    function of level k has its support in subdomain k, so it vanishes at
    the interior points of the active cells of every coarser level, and the
    matrix is block lower triangular. That zero structure is checked from
    the supports, with no floats. Full rank of every diagonal block then
    gives full rank of the whole. Block l has Gram matrix
    G_l = sum over the active cells c of level l of A_c^T A_c, restricted to
    the active functions of level l, where A_c is the Kronecker product of
    per-direction (p+1) x (p+1) collocation blocks; G_l counts as regular
    when its eigenvalues satisfy lambda_min > max(rows, cols) * eps *
    lambda_max. Since lambda = sigma^2, this is stricter than the
    max(rows, cols) * eps * sigma_max tolerance of numpy's matrix_rank.
    When the structure or a block fails, the dense collocation matrix and
    matrix_rank give the verdict and the rank in the detail.
    """
    levels, grids = basis.levels, subdomain_grids(basis.hierarchy, basis.levels)
    structured = not any((members & ~grids.supports_inside(ell, ell)).any()
                         for ell, members in enumerate(basis.active))
    if structured and all(_gram_block_regular(lv, cells, members)
                          for lv, cells, members in zip(levels, mesh.masks, basis.active)):
        n = len(basis)
        m = sum(int(np.count_nonzero(cells)) * math.prod(p + 1 for p in lv.degrees)
                for lv, cells in zip(levels, mesh.masks))
        return InvariantResult("linear_independence_active", True, 1, 0.0,
                               f"rank {n} of {n} at {m} points")
    return dense_independence(basis, mesh)


def _gram_block_regular(level: TensorLevel, cells: np.ndarray, members: np.ndarray) -> bool:
    """Is the level's diagonal block of the collocation matrix regular?

    ``cells`` and ``members`` mark the level's active cells and functions
    on its grids. See :func:`active_independence`. Per direction, the
    (p+1) x (p+1) Gram blocks B^T B of every interval come from one
    find_spans and basis_columns pass; a cell's A_c^T A_c is their
    Kronecker product, first direction fastest, and all cells scatter into
    G_l at once.
    """
    n = int(np.count_nonzero(members))
    if not n:
        return True
    if not cells.any():
        return False
    # both in canonical order, the first direction fastest
    cells = np.argwhere(cells.T)[:, ::-1]
    position = np.full(level.num_basis, -1, dtype=np.int64)
    position.T[members.T] = np.arange(n)
    local = np.ones((len(cells), 1, 1))
    flat = np.zeros((len(cells), 1), dtype=np.int64)
    stride = 1
    for k, kv in enumerate(level.kvs):
        p, knots, bps = kv.degree, kv.floats, kv.breakpoint_floats
        x = (bps[:-1, None] + (bps[1:] - bps[:-1])[:, None] * _ticks(p)).ravel()
        spans = kernels.find_spans(knots, p, x)
        block = kernels.basis_columns(knots, p, x, spans).reshape(-1, p + 1, p + 1)
        gram = np.einsum("iqa,iqb->iab", block, block)[cells[:, k]]
        first = kv.first_functions[cells[:, k]]
        # direction k varies slower than the directions before it
        local = np.einsum("cab,cij->caibj", gram, local).reshape(
            len(cells), (p + 1) * local.shape[1], (p + 1) * local.shape[2])
        flat = ((first[:, None] + np.arange(p + 1)) * stride)[:, :, None] + flat[:, None, :]
        flat = flat.reshape(len(cells), -1)
        stride *= kv.num_basis
    pos = position.ravel(order="F")[flat]
    keep = (pos[:, :, None] >= 0) & (pos[:, None, :] >= 0)
    keys = (pos[:, :, None] * n + pos[:, None, :])[keep]
    gram = np.bincount(keys, weights=local[keep], minlength=n * n).reshape(n, n)
    eig = np.linalg.eigvalsh(gram)
    rows = len(cells) * local.shape[1]
    return bool(eig[0] > max(rows, n) * np.finfo(float).eps * eig[-1])


def dense_independence(basis: HierBasis, mesh: HierarchicalMesh) -> InvariantResult:
    """The rank of the whole collocation matrix of active_independence."""
    members = list(basis.functions())
    blocks = []
    for ell, idx in mesh.cells():
        lv = mesh.levels[ell]
        axes = [float(lo) + (float(hi) - float(lo)) * _ticks(p)
                for p, (lo, hi) in zip(lv.degrees, lv.cell_box(idx))]
        combos = list(iter_box([range(len(a)) for a in axes]))
        blocks.append(np.array([[a[i] for a, i in zip(axes, c)] for c in combos]))
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
    count = 0
    for _ in range(200):
        pt = rng.random(ctx.dim)
        # random floats avoid breakpoints, so locating per level counts
        # interior hits
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


@_check("coarse_space_in_refinable")
def _chk_coarse_in_refinable(ctx: _Context) -> InvariantResult:
    cols = _LevelColumns(ctx.levels, ctx.points("v0_span", 150))
    worst, count = 0.0, 0
    for idx in ctx.levels[0].function_ids():
        fid = Fid(0, idx)
        count += 1
        if fid in ctx.refinable:
            continue
        acc = cols.combination(expand_deactivated(fid, ctx.refinable))
        worst = max(worst, float(np.abs(cols.function(fid) - acc).max()))
    return _result("coarse_space_in_refinable", worst, count, TOL_EXACT)


@_check("refinable_stage_nesting")
def _chk_stage_nesting(ctx: _Context) -> InvariantResult:
    cols = _LevelColumns(ctx.levels, ctx.points("stage_nesting", 100))
    basis = ctx.refinable
    worst, count = 0.0, 0
    for ell in range(len(basis.stages) - 1):
        gone = list(basis.stages[ell] - basis.stages[ell + 1])
        for fid, kids in zip(gone, cols.children(gone)):
            if not kids.keys() <= basis.stages[ell + 1]:
                return InvariantResult(
                    "refinable_stage_nesting", False, count, 1.0,
                    f"child of {fid} missing from the next stage")
            acc = cols.combination(kids)
            worst = max(worst, float(np.abs(cols.function(fid) - acc).max()))
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
    dump = dump_active_cells(ctx.mesh)
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
    if not ctx.core.masks[0].all():
        return InvariantResult("core_domains_definition", False, 1, 1.0,
                               "level-0 core must cover the domain")
    count = 1
    for ell in range(1, ctx.hierarchy.depth):
        lv = ctx.levels[ell]
        stored = ctx.core.cells(ell)
        # a cell whose extension fits the subdomain lies in it itself, so
        # checking the subdomain's own cells is exhaustive; cells are mapped
        # one by one, independently of the grids that built the core
        cells = ctx.hierarchy.subdomain_cells(ell)
        pool: set = set()
        for c in cells:
            pool.update(iter_box(cell_descendant_ranges(ctx.levels, ell - 1, ell, c)))
        if not stored <= pool:
            return InvariantResult("core_domains_definition", False, count,
                                   1.0, f"core of level {ell} escapes the subdomain")
        for c in pool:
            ext = lv.support_extension_cell_ranges(c)
            inside = all(cell_ancestor(ctx.levels, ell, ell - 1, cc) in cells
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


def dual_pair_blocks(op: LevelQuasiInterpolant):
    """lambda_i(b_j) for every pair of members of a level, in row blocks.

    Yields (first row, values) with values[r, c] = lambda_i(b_j) for
    i = members[first + r] and j = members[c]. Both the functional and the
    function are tensor products, so each value is the product over
    directions of the univariate dual column of i_k on the anchor interval
    applied to the values of b_{j_k} at that interval's nodes. The values
    come from kernels.local_values on each function's local knots, a route
    independent of the basis columns that built the duals.
    """
    members = np.array(op.members, dtype=np.int64).reshape(len(op.members), op.level.dim)
    anchors = np.array([op.anchor_cells[m] for m in op.members],
                       dtype=np.int64).reshape(members.shape)
    factors = []
    for k, (kv, tab) in enumerate(zip(op.level.kvs, op.tables)):
        p, knots = kv.degree, kv.floats
        nodes = tab.nodes.ravel()
        values = np.stack([kernels.local_values(knots[j:j + p + 2], p, nodes)
                           for j in range(kv.num_basis)]).reshape((-1,) + tab.nodes.shape)
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


@_check("dual_basis_kronecker")
def _chk_kronecker(ctx: _Context) -> InvariantResult:
    """Duality lambda_i(b_j) = delta_ij over all pairs of members per level."""
    worst, count = 0.0, 0
    for op in ctx.stages:
        for r, block in dual_pair_blocks(op):
            rows = np.arange(block.shape[0])
            block[rows, r + rows] -= 1.0
            worst = max(worst, float(np.abs(block).max()))
        count += len(op.members) ** 2
    return _result("dual_basis_kronecker", worst, count, TOL_OPERATOR)


@_check("mass_matrix_quadrature")
def _chk_mass(ctx: _Context) -> InvariantResult:
    worst, count = 0.0, 0
    finer = OperatorConfig(quad_increment=ctx.config.quad_increment + 3)
    for ell in range(ctx.hierarchy.depth):
        cells = marked_indices(ctx.core.masks[ell])
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
    # stage ell holds, of level ell, the functions selected when the level opened
    for ell, (op, selected) in enumerate(zip(ctx.stages, ctx.refinable.selected)):
        for idx in op.members:
            count += 1
            if not selected[idx]:
                return InvariantResult(
                    "core_functions_in_refinable", False, count, 1.0,
                    f"core function {idx} of level {ell} outside the stage")
    return InvariantResult("core_functions_in_refinable", True, count, 0.0)


def _random_spline(level: TensorLevel, indices: np.ndarray, rng) -> LevelSpline:
    """Coefficients drawn one at a time from U(-1, 1), in index order."""
    return LevelSpline(level, indices, [float(rng.uniform(-1, 1)) for _ in range(len(indices))])


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
        s = _random_spline(lv, op.member_indices, rng)
        ps = op.apply(s.evaluate)
        worst = max(worst, float(np.abs(ps.evaluate(pts) - s.evaluate(pts)).max()))
        count += pts.shape[0]
        # annihilation of anything vanishing on the core cells
        in_core = ctx.core.masks[ell]

        def vanishing(p: np.ndarray) -> np.ndarray:
            found, cells = lv.locate_all(p)
            return np.where(found & in_core[cells], 0.0, 1.0)

        pz = op.apply(vanishing)
        zworst = max((abs(v) for v in pz.coefficients.values()), default=0.0)
        worst = max(worst, zworst)
        count += 1
        # reproduction of the full level space on the core region
        s_full = _random_spline(lv, np.array(list(lv.function_ids())), rng)
        ps_full = op.apply(s_full.evaluate)
        inside = ctx.points_in_cells(f"level_ops_core_{ell}", ell, in_core, 100)
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
    s0 = _random_spline(ctx.levels[0], np.array(list(ctx.levels[0].function_ids())), rng)
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
        inside = ctx.points_in_cells(f"multiscale_core_{ell}", ell, ctx.core.masks[ell], 200)
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
    # levels2 extends ctx.levels, so one set of columns serves both
    cols = _LevelColumns(levels2, ctx.points("enlargement", 100))
    worst = 0.0
    for fid in ctx.refinable.functions():
        count += 1
        if fid in refinable2:
            continue
        acc = cols.combination(expand_deactivated(fid, refinable2))
        worst = max(worst, float(np.abs(cols.function(fid) - acc).max()))
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
        start = time.perf_counter()
        try:
            result = fn(ctx)
        except HierSplineError as exc:
            result = InvariantResult(name, False, 0, float("inf"), str(exc))
        result.seconds = time.perf_counter() - start
        results.append(result)
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
