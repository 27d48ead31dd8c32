"""Named invariant checks over a fixture, runnable as a suite.

Each check returns a result with the number of individual assertions it
exercised and the worst residual it saw. The suite is deterministic: the
random generator is seeded per check from the module's ``SEED``.

A check's name lives in its ``_check("...")`` registration only, which
stamps it on every result; the checks build unnamed results through
``_verdict`` and ``_within``. A failing check's detail names the level
and the function or cell where it failed, the first in canonical order.

The checks read the forms the library stores: the selected and active
grids of a basis (``HierBasis.selected``, ``.active``), the per-level
``indices``, ``numerators`` and ``flags`` of a ``WeightMap``, the slot
arrays of the two-scale tables, a level operator's interval ``tables``,
``member_indices`` and ``anchor_indices``, the core grids and a
``LevelSpline``'s ``values``. They build none of the ``Fid``, tuple or
``Fraction`` views of these, and each quantity they share has one
route:

- univariate B-splines at given points come from one table,
  ``_univariate_values``, one ``kernels.local_values`` call on the stack
  of a knot vector's local knot vectors, and tensor functions from its
  per-direction tables, as the columns of ``_LevelColumns``;
- exact expansions come from one ``express_arrays`` sweep per level of
  functions to expand, each function its own source, read as the floats
  nearest the sweep's integer numerators (``_expansion_residual``);
- children come from one ``tensor_children_arrays`` call per level,
  through ``_LevelColumns.two_scale`` where they are summed;
- knots are compared as integers over a common denominator
  (``univariate.common_knots``);
- local mass matrices are Kronecker products of the interval tables'
  masses;
- in the zero-weight, children-cover, active-independence and
  core-domain checks, cells of a level are carried to the previous one
  by the interval parent maps, and boxes of them meet the stored
  subdomain cells in one box test, ``hierarchy.boxes_in``; supports
  take it through ``hierarchy.supports_in_cells``, not through the
  subdomain grids that build the bases.

Where independence is the point, a check takes a route of its own, not
the builders', and runs it per level on index arrays:

- ``refinable_equals_positive_weights`` tests zero weights through the
  parents (``zero_weights_by_parents``): parents from the endpoint tests
  of ``parent_table``, supports against the stored subdomain cells by
  the box test; no two-scale table or subdomain grid.
- ``parent_child_characterization`` compares the two-scale slots, the
  parent table and ``is_child_of`` on ``LocalKnotVector``s cut from the
  common integer knots, which runs on the pairs whose supports nest; the
  other pairs fail its first test.
- ``children_cover_core_functions`` takes the parents from the endpoint
  tests too (``has_marked_parent``).
- ``refinable_stage_nesting`` takes the functions gone at each level from
  the masks and their children from the two-scale slots, not from the
  selection that built the masks.
- ``dual_basis_kronecker`` applies the duals to B-spline values from
  ``_univariate_values``, not to the basis columns that built them.
- ``core_domains_definition`` tests the support extensions with the box
  test, not with the summed-area tables that built the core.
- ``linear_independence_active`` tests the active functions' supports
  against the stored subdomain cells and against the active cells of
  their level with the box test, with no float; the dense rank
  (``dense_independence``) decides only when that fails.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .errors import AdmissibilityError, HierSplineError
from .fixtures import Fixture, dump_active_cells, parse_mesh_dump
from .functions import get_function
from .hierarchy import (
    HierarchicalMesh,
    HierBasis,
    boxes_in,
    build_hierarchical_basis,
    build_refinable_basis,
    compute_weights,
    enlarge_hierarchy,
    express_arrays,
    partition_of_unity,
    supports_in_cells,
    zero_weights_by_parents,
)
from .quasiinterp import (
    MAX_INCREMENT,
    MultiscaleQuasiInterpolant,
    OperatorConfig,
    _kron,
    _tensor_grid,
    level_tables,
)
from .tensor import (
    LevelSpline,
    TensorFunctionId as Fid,
    TensorLevel,
    extend_level_sequence,
    has_marked_parent,
    index_arrays,
    iter_box,
    marked_array,
    tensor_children_arrays,
    two_scale_tables,
)
from .univariate import (
    KnotVector,
    LocalKnotVector,
    common_knots,
    is_child_of,
    nearest_floats,
    parent_slots,
    two_scale_table,
)

TOL_EXACT = 1e-12
TOL_OPERATOR = 1e-10
SEED = 20240831


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

    def __init__(self, fixture: Fixture, config: OperatorConfig):
        self.fixture = fixture
        self.levels = fixture.levels
        self.hierarchy = fixture.hierarchy
        self.config = config
        self.dim = fixture.dimension
        self.weights = compute_weights(self.hierarchy, self.levels)
        self.classical, self.mesh = build_hierarchical_basis(
            self.hierarchy, self.levels, self.weights)
        self.refinable = build_refinable_basis(
            self.hierarchy, self.levels, self.weights)
        # the operator refuses only in apply_parts when the core domains
        # are not nested; its core domains and level operators serve all checks
        self.operator = MultiscaleQuasiInterpolant(
            self.hierarchy, self.levels, self.refinable, config)
        self.core = self.operator.core
        self.report = self.operator.report

    def rng(self, tag: str) -> np.random.Generator:
        return np.random.default_rng([SEED, zlib.crc32(tag.encode())])

    def points(self, tag: str, count: int) -> np.ndarray:
        return self.rng(tag).random((count, self.dim))

    def points_in_cells(self, tag: str, level: int, mask: np.ndarray,
                        count: int) -> np.ndarray | None:
        """Random points in random cells among those marked on the level's
        grid: the cells in one draw, then the coordinates in another, point
        by point and each point's directions in order."""
        cells = marked_array(mask)
        if not len(cells):
            return None
        rng = self.rng(tag)
        picks = cells[rng.integers(0, len(cells), size=count)]
        bps = [kv.breakpoint_floats for kv in self.levels[level].kvs]
        lo = np.column_stack([b[picks[:, k]] for k, b in enumerate(bps)])
        hi = np.column_stack([b[picks[:, k] + 1] for k, b in enumerate(bps)])
        return rng.uniform(lo, hi, size=(count, self.dim))


Check = Callable[[_Context], InvariantResult]
_CHECKS: list[tuple[str, Check]] = []


def _check(name: str):
    """Register a check under ``name``, which it stamps on its results."""
    def deco(fn: Check) -> Check:
        def named(ctx: _Context) -> InvariantResult:
            result = fn(ctx)
            result.name = name
            return result
        _CHECKS.append((name, named))
        return named
    return deco


def _verdict(ok: bool, count: int, detail: str = "") -> InvariantResult:
    """Passed, or failed with worst residual 1, after ``count`` assertions."""
    return InvariantResult("", bool(ok), count, 0.0 if ok else 1.0, detail)


def _within(worst: float, count: int, tol: float) -> InvariantResult:
    return InvariantResult("", bool(worst <= tol), count, float(worst))


def _univariate_values(kv: KnotVector, x) -> np.ndarray:
    """Every function of the knot vector at the points x, one row per
    function: one kernels.local_values call on the stack of its local knots."""
    return kernels.local_values(sliding_window_view(kv.floats, kv.degree + 2), kv.degree, x)


def _pair(ell: int, k: int, j: int, i: int) -> str:
    return f"pair (parent {j} of level {ell}, child {i} of level {ell + 1}, direction {k})"


def _same_masks(got, expected, count: int, what: str) -> InvariantResult:
    """Passed when the per-level function grids agree; else failed, naming
    the level and the first function where they differ, in canonical order."""
    for ell, (a, b) in enumerate(zip(got, expected)):
        if not np.array_equal(a, b):
            idx = tuple(marked_array(a != b)[0].tolist())
            return _verdict(False, count, f"{what}: function {idx} of level {ell}")
    return _verdict(True, count)


class _LevelColumns:
    """Functions of each level at fixed points, as columns of a matrix.

    Per level and direction, every univariate function is tabulated at the
    points once, by _univariate_values. A tensor function's column is the
    product of its directions' columns, taken in direction order as in
    eval_function, so it equals eval_function at the same points bit for
    bit. Only the gathered columns are formed, so a fine level costs its
    per-direction tables, not a points x functions matrix.
    """

    def __init__(self, levels, pts: np.ndarray):
        self.levels = levels
        self.pts = pts
        self._tables: dict[int, list[np.ndarray]] = {}

    def columns(self, ell: int, indices) -> np.ndarray:
        tables = self._tables.get(ell)
        if tables is None:
            # points x functions, C-contiguous as the gathers and matmuls expect
            tables = self._tables[ell] = [np.ascontiguousarray(_univariate_values(kv, x).T)
                                          for kv, x in zip(self.levels[ell].kvs, self.pts.T)]
        idx = np.array(indices, dtype=np.int64).reshape(-1, len(tables))
        out = tables[0][:, idx[:, 0]]
        for k in range(1, len(tables)):
            out *= tables[k][:, idx[:, k]]
        return out

    def block_sums(self, ell: int, indices: np.ndarray, coefficients: np.ndarray,
                   bounds: Sequence[int]) -> np.ndarray:
        """sum of c * g at the points over each block of rows, from
        ``bounds[r]`` to ``bounds[r + 1]``, of an (m, d) index array of
        level ell and m float coefficients, as a (blocks, points) array.
        The columns are gathered once; a block's matvec reads its slice of
        them, which has the layout of a gather of that block alone, so it
        takes the same BLAS route and gives the same bits."""
        columns = self.columns(ell, indices)
        return np.array([columns[:, a:b] @ coefficients[a:b] for a, b in zip(bounds, bounds[1:])])

    def two_scale(self, ell: int, parents: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """The children of the rows of an (n, d) array of functions of level
        ell, from one tensor_children_arrays call: per (parent, child) pair,
        parents in row order, the parent's row and the child as an (m, d)
        index array. Then the largest residual at the points when each
        parent is written over its children, with the floats nearest their
        coefficients n/q, in one matvec per parent."""
        rows, children, numerators, q = tensor_children_arrays(
            parents, two_scale_tables(self.levels[ell], self.levels[ell + 1]))
        sums = self.block_sums(ell + 1, children, nearest_floats(numerators, q),
                               np.searchsorted(rows, np.arange(len(parents) + 1)))
        return rows, children, float(np.abs(self.columns(ell, parents).T - sums).max())


# ---------------------------------------------------------------------------
# univariate / tensor checks

@_check("univariate_partition_of_unity")
def _chk_uni_pou(ctx: _Context) -> InvariantResult:
    xs = np.concatenate([ctx.rng("uni_pou").random(200), [0.0, 1.0]])
    worst, count = 0.0, 0
    for lv in ctx.levels:
        for kv in lv.kvs:
            # along the first axis the rows are added one after the other
            total = _univariate_values(kv, xs).sum(axis=0)
            worst = max(worst, float(np.abs(total - 1.0).max()))
            count += xs.size
    return _within(worst, count, TOL_EXACT)


@_check("univariate_two_scale")
def _chk_uni_two_scale(ctx: _Context) -> InvariantResult:
    xs = ctx.rng("uni_two_scale").random(100)
    worst, count = 0.0, 0
    for ell, (coarse, fine) in enumerate(zip(ctx.levels, ctx.levels[1:])):
        for k, (ckv, fkv) in enumerate(zip(coarse.kvs, fine.kvs)):
            p, tab = ckv.degree, two_scale_table(ckv, fkv)
            index, numerator, q = tab.index, tab.numerator, tab.denominator
            ck, fk = common_knots(ckv, fkv)
            # the slots that hold a child, and of those the first, row by
            # row, with a negative coefficient or a support off the parent's
            kid = numerator != 0
            bad = kid & ((numerator < 0) | (fk[index] < ck[:len(index), None])
                         | (fk[index + p + 1] > ck[p + 1:, None]))
            if bad.any():
                j, s = np.argwhere(bad)[0].tolist()
                n, pair = int(numerator[j, s]), _pair(ell, k, j, int(index[j, s]))
                return _verdict(False, count + j, f"nonpositive coefficient {Fraction(n, q)} "
                                f"in {pair}" if n < 0 else
                                f"child support escapes the parent in {pair}")
            parents, children = _univariate_values(ckv, xs), _univariate_values(fkv, xs)
            coefficients = nearest_floats(numerator.ravel(), q).reshape(numerator.shape)
            acc = np.zeros_like(parents)
            for s in range(index.shape[1]):
                rows = kid[:, s]
                acc[rows] += coefficients[rows, s, None] * children[index[rows, s]]
            worst = max(worst, float(np.abs(parents - acc).max()))
            count += len(index)
    return _within(worst, count, TOL_EXACT)


@_check("parent_child_characterization")
def _chk_characterization(ctx: _Context) -> InvariantResult:
    """Insertion (the two-scale slots), endpoints (is_child_of) and the
    parent table name the same (parent, child) pairs, per direction.

    is_child_of runs on the pairs whose supports nest alone, found from
    the integer knots of common_knots, on local knot vectors cut from
    them: on any other pair its first test answers False.
    """
    count = 0
    for ell, (coarse, fine) in enumerate(zip(ctx.levels, ctx.levels[1:])):
        for k, (ckv, fkv) in enumerate(zip(coarse.kvs, fine.kvs)):
            # pair (j, i) at [j, i]: row-major order is parent by parent, child by child
            shape = (ckv.num_basis, fkv.num_basis)
            tab = two_scale_table(ckv, fkv)
            insertion = np.zeros(shape, dtype=bool)
            insertion[np.nonzero(tab.present)[0], tab.index[tab.present]] = True
            index, present = parent_slots(ckv, fkv)
            via_parents = np.zeros(shape, dtype=bool)
            via_parents[index[present], np.nonzero(present)[0]] = True
            ck, fk = common_knots(ckv, fkv)
            # the pairs whose supports nest, then is_child_of on those alone
            endpoint = (ck[:shape[0], None] <= fk[:shape[1]]) \
                & (fk[fkv.degree + 1:] <= ck[ckv.degree + 1:, None])
            p, q, cl, fl = ckv.degree, fkv.degree, ck.tolist(), fk.tolist()
            endpoint[endpoint] = [is_child_of(LocalKnotVector(q, tuple(fl[i:i + q + 2])),
                                              LocalKnotVector(p, tuple(cl[j:j + p + 2])))
                                  for j, i in np.argwhere(endpoint).tolist()]
            bad = (insertion != endpoint) | (endpoint != via_parents)
            if bad.any():
                j, i = np.argwhere(bad)[0].tolist()
                return _verdict(False, count + j * shape[1] + i + 1,
                                f"{_pair(ell, k, j, i)} disagrees: "
                                f"insertion={bool(insertion[j, i])} "
                                f"endpoint={bool(endpoint[j, i])} "
                                f"parents={bool(via_parents[j, i])}")
            count += math.prod(shape)
    return _verdict(True, count)


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
    return _within(worst, count, TOL_EXACT)


@_check("tensor_two_scale")
def _chk_tensor_two_scale(ctx: _Context) -> InvariantResult:
    if len(ctx.levels) < 2:
        return _verdict(True, 0, "single level")
    # two draws: the points under the tag without "_pick", the picks under the tag
    tag = "tensor_two_scale_pick"
    cols = _LevelColumns(ctx.levels, ctx.points(tag.removesuffix("_pick"), 120))
    rng = ctx.rng(tag)
    worst, count = 0.0, 0
    for coarse in ctx.levels[:-1]:
        n = math.prod(coarse.num_basis)
        # the distinct draws as functions in canonical order, the first direction fastest
        picks = np.column_stack(np.unravel_index(np.unique(rng.integers(0, n, size=min(50, n))),
                                                 coarse.num_basis, order="F"))
        worst = max(worst, cols.two_scale(coarse.index, picks)[2])
        count += len(picks)
    return _within(worst, count, TOL_EXACT)


@_check("interior_child_count")
def _chk_child_count(ctx: _Context) -> InvariantResult:
    """Under dyadic refinement a function whose p+2 local knots are
    distinct has p+2 children per direction, so the first interior
    level-0 function with such knots in every direction has prod(p+2)."""
    if ctx.fixture.refinement != "dyadic" or len(ctx.levels) < 2:
        return _verdict(True, 0, "not applicable")
    coarse, fine = ctx.levels[0], ctx.levels[1]
    # per direction, the functions off both domain ends over p+1 nonempty intervals
    simple = [np.flatnonzero((a > 0) & (b < kv.num_intervals - 1) & (b - a == kv.degree))
              for kv in coarse.kvs for a, b in [kv.support_intervals]]
    if not all(map(len, simple)):
        return _verdict(True, 0, "no interior function at level 0")
    expected = math.prod(p + 2 for p in coarse.degrees)
    _, kids, _, _ = tensor_children_arrays(np.array([[f[0] for f in simple]]),
                                           two_scale_tables(coarse, fine))
    return _verdict(len(kids) == expected, 1, f"got {len(kids)}, expected {expected}")


@_check("local_linear_independence")
def _chk_local_li(ctx: _Context) -> InvariantResult:
    rng = ctx.rng("local_li")
    count = 0
    for lv in ctx.levels:
        cell = tuple(n // 2 for n in lv.num_cells)
        funcs = np.array(list(iter_box(lv.functions_on_cell(cell))))
        pts = np.column_stack([
            rng.uniform(kv.breakpoint_floats[c], kv.breakpoint_floats[c + 1], len(funcs))
            for kv, c in zip(lv.kvs, cell)])
        rank = np.linalg.matrix_rank(_LevelColumns(ctx.levels, pts).columns(lv.index, funcs))
        count += 1
        if rank != len(funcs):
            return _verdict(False, count, f"rank {rank} < {len(funcs)} on level {lv.index}")
    return _verdict(True, count)


# ---------------------------------------------------------------------------
# hierarchy checks

@_check("basis_selection_consistency")
def _chk_selection(ctx: _Context) -> InvariantResult:
    # a second build of the classical selection must give the context's
    basis, _ = build_hierarchical_basis(ctx.hierarchy, ctx.levels, ctx.weights)
    return _same_masks(basis.active, ctx.classical.active, len(basis), "selection mismatch")


@_check("partition_of_unity_weighted")
def _chk_hier_pou(ctx: _Context) -> InvariantResult:
    pts = ctx.points("hier_pou", 1000)
    worst, count = 0.0, 0
    for basis in (ctx.classical, ctx.refinable):
        vals = partition_of_unity(basis).evaluate(pts)
        worst = max(worst, float(np.abs(vals - 1.0).max()))
        count += pts.shape[0]
    return _within(worst, count, TOL_EXACT)


@_check("linear_independence_active")
def _chk_hier_li(ctx: _Context) -> InvariantResult:
    return active_independence(ctx.classical, ctx.mesh)


def _interval_ticks(kv: KnotVector) -> np.ndarray:
    """Per interval of the knot vector, the degree+1 interior points at
    (i+1)/(degree+2) of it, as a (J, degree+1) array."""
    n, bps = kv.degree + 1, kv.breakpoint_floats
    return bps[:-1, None] + (bps[1:] - bps[:-1])[:, None] * ((np.arange(n) + 1.0) / (n + 1.0))


def active_independence(basis: HierBasis, mesh: HierarchicalMesh) -> InvariantResult:
    """Full column rank of a collocation matrix over well-spread points.

    Points form a tensor grid of degree+1 interior points per active cell;
    a spline combination vanishing on all of them vanishes cell by cell,
    so the matrix has full column rank exactly when the active functions
    are independent.

    The rank is certified level by level from two exact facts, as in the
    independence proof of Vuong, Giannelli, Juettler & Simeon (2011).
    First, order the rows by the level of their active cell and the
    columns by function level: an active function of level k has its
    support in subdomain k, so it vanishes at the points of the active
    cells of every coarser level, and the matrix is block lower
    triangular. That zero structure is checked from the supports. Second,
    the B-splines of one level are locally linearly independent: on a
    cell, the (p+1)^d functions acting there, taken at its (p+1)^d points,
    form a nonsingular tensor collocation matrix. So a level's diagonal
    block has full column rank exactly when every active function of the
    level acts on an active cell of the level; a function that acts on
    none has a zero column. That cover is a box test of the supports
    against the level's active cells, with no floats. When the structure
    or a cover fails, the dense collocation matrix and matrix_rank give
    the verdict and the rank in the detail.
    """
    levels = basis.levels
    for ell, members in enumerate(basis.active):
        kvs, j = levels[ell].kvs, marked_array(members).T
        first = [kv.support_intervals[0][i] for kv, i in zip(kvs, j)]
        last = [kv.support_intervals[1][i] for kv, i in zip(kvs, j)]
        if (members & ~supports_in_cells(basis.hierarchy, levels, ell, ell)).any() \
                or boxes_in(~mesh.masks[ell], first, last).any():
            return dense_independence(basis, mesh)
    n = len(basis)
    m = sum(int(np.count_nonzero(cells)) * math.prod(p + 1 for p in lv.degrees)
            for lv, cells in zip(levels, mesh.masks))
    return InvariantResult("linear_independence_active", True, 1, 0.0,
                           f"rank {n} of {n} at {m} points")


# kept for the inputs whose cover test fails, which no fixture reaches
def dense_independence(basis: HierBasis, mesh: HierarchicalMesh) -> InvariantResult:
    """The rank of the whole collocation matrix of active_independence."""
    # per active cell, its tensor grid of tick points, first direction fastest
    pts = np.vstack([_tensor_grid([_interval_ticks(kv)[c] for kv, c in zip(lv.kvs, cells.T)])
                     for lv, cells in zip(mesh.levels, map(marked_array, mesh.masks))])
    cols = _LevelColumns(basis.levels, pts)
    mat = np.hstack([cols.columns(ell, marked_array(members))
                     for ell, members in enumerate(basis.active)])
    rank = np.linalg.matrix_rank(mat)
    ok = rank == mat.shape[1]
    return InvariantResult("linear_independence_active", ok, 1,
                           0.0 if ok else 1.0,
                           f"rank {rank} of {mat.shape[1]} at {pts.shape[0]} points")


@_check("active_cells_partition")
def _chk_partition(ctx: _Context) -> InvariantResult:
    vol = ctx.mesh.total_volume()
    if vol != 1:
        return _verdict(False, ctx.mesh.cell_count(), f"volumes sum to {vol}")
    pts = ctx.rng("cells_partition").random((200, ctx.dim))
    # random floats avoid breakpoints, so locating per level counts
    # interior hits
    hits = np.zeros(len(pts), dtype=np.int64)
    for lv, mask in zip(ctx.mesh.levels, ctx.mesh.masks):
        found, cells = lv.locate_all(pts)
        hits += found & mask[cells]
    bad = np.flatnonzero(hits != 1)
    if bad.size:
        count = int(bad[0])
        return _verdict(False, count, f"point {pts[count]} in {hits[count]} active cells")
    return _verdict(True, len(pts))


@_check("coarse_space_in_refinable")
def _chk_coarse_in_refinable(ctx: _Context) -> InvariantResult:
    cols = _LevelColumns(ctx.levels, ctx.points("v0_span", 150))
    deactivated = ~ctx.refinable.active[0]
    worst = _expansion_residual(cols, [deactivated], ctx.refinable)
    return _within(worst, deactivated.size, TOL_EXACT)


def _expansion_residual(cols: _LevelColumns, marks: Sequence[np.ndarray],
                        basis: HierBasis) -> float:
    """The largest residual at the columns' points when each function that
    ``marks[ell]`` marks on level ell's grid is written exactly over the
    active functions of the basis, as expand_deactivated writes it: one
    exact sweep per level of marks, each function its own source. A
    function's sum runs coarsest level first, one matvec per level on the
    floats nearest its coefficients; a level on which no source keeps an
    entry is skipped, since it would add +0.0 to sums that start at +0.0."""
    worst = 0.0
    for level, mask in enumerate(marks):
        marked = marked_array(mask)
        if not len(marked):
            continue
        empty = np.zeros(0, dtype=np.int64)
        pending = [(np.zeros((0, lv.dim), dtype=np.int64), empty) for lv in basis.levels]
        pending[level] = (marked, np.ones(len(marked), dtype=object))
        sources = [np.arange(len(marked)) if ell == level else empty for ell in range(len(pending))]
        acc = np.zeros((len(marked), len(cols.pts)))
        for ell, (indices, labels, numerators, q) in enumerate(
                express_arrays(pending, basis, sources=sources)):
            if not len(indices):
                continue
            order = np.argsort(labels, kind="stable")
            acc += cols.block_sums(ell, indices[order], nearest_floats(numerators[order], q),
                                   np.searchsorted(labels[order], np.arange(len(marked) + 1)))
        worst = max(worst, float(np.abs(cols.columns(level, marked).T - acc).max()))
    return worst


@_check("refinable_stage_nesting")
def _chk_stage_nesting(ctx: _Context) -> InvariantResult:
    """Each stage follows from the one before through the two-scale
    relation alone: a function gone at level ell, selected there but not
    active, has its children selected at level ell+1 and is their sum."""
    cols = _LevelColumns(ctx.levels, ctx.points("stage_nesting", 100))
    basis = ctx.refinable
    worst, count = 0.0, 0
    for ell, (selected, active) in enumerate(zip(basis.selected[:-1], basis.active)):
        gone = marked_array(selected & ~active)
        if not len(gone):
            continue
        rows, kids, residual = cols.two_scale(ell, gone)
        # the rows of the parents with a child outside the next stage
        missing = rows[~basis.selected[ell + 1][tuple(kids.T)]].tolist()
        if missing:
            fid = Fid(ell, tuple(gone[missing[0]].tolist()))
            return _verdict(False, count + missing[0],
                            f"child of {fid} missing from the next stage")
        worst = max(worst, residual)
        count += len(gone)
    return _within(worst, count, TOL_EXACT)


@_check("refinable_subset_classical")
def _chk_subset(ctx: _Context) -> InvariantResult:
    refinable = ctx.refinable.active
    return _same_masks([r & c for r, c in zip(refinable, ctx.classical.active)], refinable,
                       len(ctx.refinable), "refinable but not classical")


@_check("refinable_equals_positive_weights")
def _chk_refinable_positive(ctx: _Context) -> InvariantResult:
    weights = ctx.weights
    positive = [mask.copy() for mask in ctx.classical.active]
    for ell, mask in enumerate(positive):
        idx = marked_array(mask)
        mask[tuple(idx.T)] = weights.numerators[ell][weights.defined_positions(ell, idx)] > 0
    count = sum(int(np.count_nonzero(m)) for m in positive)
    mismatch = _same_masks(positive, ctx.refinable.active, count, "set mismatch")
    if not mismatch.passed:
        return mismatch
    # numeric weight zero must agree with the structural flag and with the
    # parent-wise test, for every function the recursion defines below
    # level 0, one level at a time; the flag is tested first
    levels = zip(weights.indices, weights.numerators, weights.flags)
    for ell, (indices, numerators, flags) in list(enumerate(levels))[1:]:
        flag_bad = (numerators > 0) != flags
        bad = flag_bad | (zero_weights_by_parents(ctx.hierarchy, ctx.levels, ell, indices,
                                                  weights) != (numerators == 0))
        if bad.any():
            k = int(bad.argmax())
            fid = Fid(ell, tuple(indices[k].tolist()))
            return _verdict(False, count + k + 1, f"flag disagrees at {fid}" if flag_bad[k]
                            else f"parent test disagrees at {fid}")
        count += len(indices)
    return _verdict(True, count)


@_check("mesh_roundtrip")
def _chk_roundtrip(ctx: _Context) -> InvariantResult:
    dump = dump_active_cells(ctx.mesh)
    levels2, h2 = parse_mesh_dump(dump)
    if h2 != ctx.hierarchy:
        return _verdict(False, 1, "hierarchy differs after the round trip")
    classical = build_hierarchical_basis(h2, levels2, ctx.weights)[0].active
    return _same_masks(classical, ctx.classical.active,
                       sum(int(np.count_nonzero(m)) for m in classical),
                       "selection mismatch after the round trip")


# ---------------------------------------------------------------------------
# quasi-interpolation checks

@_check("core_domains_definition")
def _chk_core(ctx: _Context) -> InvariantResult:
    if not ctx.core.masks[0].all():
        return _verdict(False, 1, "level-0 core must cover the domain")
    count = 1
    for ell in range(1, ctx.hierarchy.depth):
        lv = ctx.levels[ell]
        stored = ctx.core.masks[ell]
        grid = np.zeros(ctx.levels[ell - 1].num_cells, dtype=bool)
        grid[index_arrays(ctx.hierarchy.subdomain_cells(ell), lv.dim)] = True
        # the children of the subdomain's cells: a cell whose extension fits
        # the subdomain lies in it itself, so testing these is exhaustive
        pool = grid[np.ix_(*lv.parent_arrays)]
        if (stored & ~pool).any():
            return _verdict(False, count, f"core of level {ell} escapes the subdomain")
        cells = marked_array(pool)
        # per direction, the first and last interval of each cell's
        # extension, carried to the subdomain's grid by the parent maps
        first, last = zip(*((m[a[c]], m[b[c]]) for (a, b), m, c in
                            zip((kv.extension_intervals for kv in lv.kvs), lv.parent_arrays,
                                cells.T)))
        bad = boxes_in(grid, first, last) != stored[tuple(cells.T)]
        if bad.any():
            k = int(bad.argmax())
            return _verdict(False, count + k + 1,
                            f"cell {tuple(cells[k].tolist())} of level {ell} misclassified")
        count += len(cells)
    return _verdict(True, count)


@_check("admissibility_implication")
def _chk_admissibility(ctx: _Context) -> InvariantResult:
    rep = ctx.report
    if rep.strictly_admissible and not rep.omega_nested:
        return _verdict(False, 1, "strictness without nesting")
    return _verdict(True, 1, f"strict={rep.strictly_admissible} nested={rep.omega_nested}")


@_check("dual_basis_kronecker")
def _chk_kronecker(ctx: _Context) -> InvariantResult:
    """Duality lambda_i(b_j) = delta_ij over all pairs of members per level.

    Both the functional and the function are tensor products, so a value
    is the product over directions of the univariate dual column of i_k on
    the anchor interval applied to the values of b_{j_k} at that interval's
    nodes. The values come from _univariate_values, a route independent of
    the basis columns that built the duals. A B-spline is +0.0 at a point
    strictly inside an interval it does not act on, so once every node is
    checked to lie strictly inside its interval, lambda_i(b_j) is exactly
    zero unless b_j acts on the anchor cell of i. Only those prod_k (p_k + 1)
    functions per row are evaluated; the pairs counted are all of them.
    """
    worst, count = 0.0, 0
    for op in ctx.operator.stages:
        if not len(op):
            continue
        members, anchors = op.member_indices, op.anchor_indices
        near, keys = np.ones((len(op), 1)), np.zeros((len(op), 1), dtype=np.int64)
        stride = 1
        for k, (kv, tab) in enumerate(zip(op.level.kvs, op.tables)):
            bps = kv.breakpoint_floats
            outside = ~((bps[:-1, None] < tab.nodes) & (tab.nodes < bps[1:, None]))
            if outside.any():
                i, q = np.argwhere(outside)[0].tolist()
                return _verdict(False, count, f"node {q} of interval {i} of level "
                                f"{op.level_index}, direction {k}, outside its interval")
            values = _univariate_values(kv, tab.nodes.ravel()).reshape((-1,) + tab.nodes.shape)
            # per interval, local function and univariate function j
            per_interval = np.einsum("iql,jiq->ilj", tab.duals, values)
            first = kv.first_functions[anchors[:, k]]
            acting = first[:, None] + np.arange(kv.degree + 1)
            # row i: member i's k-th dual applied to the functions acting on its anchor
            factor = per_interval[anchors[:, k, None], (members[:, k] - first)[:, None], acting]
            # direction k varies slower than those before it; a product
            # commutes exactly, so each value is formed as in direction order
            near = (factor[:, :, None] * near[:, None, :]).reshape(len(op), -1)
            keys = ((acting * stride)[:, :, None] + keys[:, None, :]).reshape(len(op), -1)
            stride *= kv.num_basis
        position = np.full(stride, -1)
        position[np.ravel_multi_index(tuple(members.T), op.level.num_basis, order="F")] = \
            np.arange(len(op))
        column = position[keys]
        residual = np.where(column == np.arange(len(op))[:, None], near - 1.0, near)
        worst = max(worst, float(np.abs(residual[column >= 0]).max(initial=0.0)))
        count += len(op) ** 2
    return _within(worst, count, TOL_OPERATOR)


@_check("mass_matrix_quadrature")
def _chk_mass(ctx: _Context) -> InvariantResult:
    """The local mass matrix of a core cell per level, the Kronecker
    product of the operator's interval masses, against a finer rule's."""
    worst, count = 0.0, 0
    finer = OperatorConfig(quad_increment=min(ctx.config.quad_increment + 3, MAX_INCREMENT))
    for ell, op in enumerate(ctx.operator.stages):
        cells = marked_array(ctx.core.masks[ell])
        if not len(cells):
            continue
        cell = tuple(cells[len(cells) // 2].tolist())
        mass, fine = (_kron([tab.mass[j] for tab, j in zip(tables, cell)])
                      for tables in (op.tables, level_tables(op.level, finer)))
        what = f"mass matrix of cell {cell} of level {ell}"
        if not np.array_equal(mass, mass.T):
            return _verdict(False, count, f"{what} not symmetric")
        eigmin = float(np.linalg.eigvalsh(mass).min())
        if eigmin <= 0:
            return _verdict(False, count, f"{what} not positive definite ({eigmin})")
        worst = max(worst, float(np.abs(mass - fine).max()) / float(np.abs(mass).max()))
        count += 1
    return _within(worst, count, 1e-12)


@_check("children_cover_core_functions")
def _chk_children_cover(ctx: _Context) -> InvariantResult:
    if ctx.fixture.refinement != "dyadic":
        return _verdict(True, 0, "dyadic refinement only")
    count = 0
    for ell in range(ctx.hierarchy.depth - 1):
        members = ctx.operator.stages[ell + 1].member_indices
        covered = has_marked_parent(members, ctx.levels[ell], ctx.levels[ell + 1],
                                    supports_in_cells(ctx.hierarchy, ctx.levels, ell, ell + 1))
        if not covered.all():
            k = int(covered.argmin())
            return _verdict(False, count + k + 1, f"{tuple(members[k].tolist())} at level "
                            f"{ell + 1} has no parent sunk in subdomain {ell + 1}")
        count += len(members)
    return _verdict(True, count)


@_check("core_functions_in_refinable")
def _chk_core_in_refinable(ctx: _Context) -> InvariantResult:
    if not ctx.report.omega_nested:
        return _verdict(True, 0, "core domains not nested")
    count = 0
    # stage ell holds, of level ell, the functions selected when the level opened
    for ell, (op, selected) in enumerate(zip(ctx.operator.stages, ctx.refinable.selected)):
        outside = np.flatnonzero(~selected[tuple(op.member_indices.T)]).tolist()
        if outside:
            idx = tuple(op.member_indices[outside[0]].tolist())
            return _verdict(False, count + outside[0] + 1,
                            f"core function {idx} of level {ell} outside the stage")
        count += len(op)
    return _verdict(True, count)


def _random_spline(level: TensorLevel, indices: np.ndarray, rng) -> LevelSpline:
    """Coefficients from U(-1, 1) in index order, in one vector draw."""
    return LevelSpline(level, indices, rng.uniform(-1, 1, len(indices)))


@_check("level_operator_identities")
def _chk_level_ops(ctx: _Context) -> InvariantResult:
    rng = ctx.rng("level_ops")
    worst, count = 0.0, 0
    pts = ctx.points("level_ops_pts", 150)
    for ell, op in enumerate(ctx.operator.stages):
        if not len(op):
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
        zworst = float(np.abs(pz.values).max(initial=0.0))
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
    return _within(worst, count, TOL_OPERATOR)


@_check("multiscale_identities")
def _chk_multiscale(ctx: _Context) -> InvariantResult:
    if not ctx.report.omega_nested:
        # the operator must refuse on non-nested core domains
        try:
            ctx.operator.apply_parts(lambda p: np.ones(p.shape[0]))
        except AdmissibilityError:
            return _verdict(True, 1, "refused on non-nested core domains")
        return _verdict(False, 1, "operator ran despite non-nested core domains")
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
    return _within(worst, count, TOL_OPERATOR)


@_check("enlargement_monotonicity")
def _chk_enlargement(ctx: _Context) -> InvariantResult:
    spec = ctx.fixture.enlargement
    if spec is None:
        return _verdict(True, 0, "no enlargement section")
    h2 = enlarge_hierarchy(ctx.hierarchy, ctx.levels, spec.additions,
                           spec.new_deepest)
    levels2 = extend_level_sequence(ctx.levels, h2.depth)
    w2 = compute_weights(h2, levels2)
    w1, count = ctx.weights, 0
    for ell, (idx, numerators, d1) in enumerate(zip(w1.indices, w1.numerators, w1.denominators)):
        at = w2.positions(ell, idx)
        both = at >= 0
        # n2 / d2 < n1 / d1, compared exactly as Python ints
        dropped = w2.numerators[ell][at[both]].astype(object) * d1 \
            < numerators[both].astype(object) * w2.denominators[ell]
        if dropped.any():
            k = int(dropped.argmax())
            return _verdict(False, count + k + 1,
                            f"weight dropped at {Fid(ell, tuple(idx[both][k].tolist()))}")
        count += int(both.sum())
    refinable2 = build_refinable_basis(h2, levels2, w2)
    # levels2 extends ctx.levels, so one set of columns serves both
    cols = _LevelColumns(levels2, ctx.points("enlargement", 100))
    gone = [a & ~a2 for a, a2 in zip(ctx.refinable.active, refinable2.active)]
    worst = _expansion_residual(cols, gone, refinable2)
    return _within(worst, count + len(ctx.refinable), TOL_OPERATOR)


# ---------------------------------------------------------------------------
# the runner

def run_invariant_suite(fixture: Fixture, config: OperatorConfig | None = None) -> SuiteReport:
    """Run every registered invariant on the fixture, in registration order."""
    ctx = _Context(fixture, config or OperatorConfig())
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
