"""Local projectors, per-level quasi-interpolants and the multiscale operator.

Per level, the core domain collects the cells whose support extension
stays inside the level's subdomain; on it the full tensor-product space of
that level is exactly representable in the hierarchical space. Each basis
function acting there gets a dual functional from the local L2 projection
on an anchor cell, as weights on the cell's Gauss nodes; it is the tensor
product of univariate duals, tabulated per level, direction and interval.
The anchors of a whole level are found at once on integer interval ranges,
and an operator gathers the Gauss nodes of all its anchor cells from the
tables with one index per direction. The dual rows depend only on the
level and its core domain, never on the function applied, so an operator
forms its members' rows once, on its first application, and keeps them
stacked for every later one: one gather per direction takes each member's
univariate dual column on its anchor interval from the tables, and a
running outer product over the directions forms every row at once.
The per-level operators combine into the multiscale operator through
residual correction; when the core domains are nested its output lies in
the span of the refinable basis and is returned expressed over it.

Core domains and norm regions are stored as boolean grids over a level's
cells, and the cells a norm integrates over come per level as index
arrays.

Every node of a norm lies on a per-cell tensor grid, Gauss nodes for
finite q and an equispaced sample for q = inf, so the norms evaluate per
direction: a batch of cells becomes one (cells, n_k) axis per direction,
and splines and test functions take it through their ``on_grid`` method.
A test function evaluates each factor once per axis sample and forms the
grid by broadcasting, with the same scalar operations per point as its
call on the grid's points, which is what a plain callable gets; so the
norms of a test function do not depend on the route. A spline finds spans
and basis rows per axis row and contracts each cell's coefficient block
one direction at a time (sum factorisation, see
:mod:`hiersplines.kernels`), which rounds differently from evaluating it
at the grid's points, by a few ulps. The axis rows of a level repeat, one
per cell index in each direction, so they are formed once per distinct
cell index, and a batch's axes are a ``kernels.GridAxes`` that gathers
them and shares one cache of the kernel's windows with every batch of
the level: the spans, basis rows and windows of a level's rows are found
once per spline part and direction, not once per batch. A batch holds as
many whole cells as fit in ``kernels.GRID_BLOCK`` nodes, at least one,
and the grid kernel takes it in one call, so the kernel's fixed cost per
call is paid about once per dozen sampled cells of the sup norm, not once
per four. The integrand of a batch, ``f - s`` for an error, is checked
for finiteness once, and an error names its first non-finite node.

A norm reads its cells' values from a table of one integrand: per cell,
|f|^q at the Gauss nodes or the largest |f| of the sample, evaluated the
first time a norm asks for the cell. Norms of several regions over one
mesh that share a table evaluate each shared cell once, and since each
norm still reduces the rows of its own cells in its own order, its value
does not depend on which norms came before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral, Real
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import AdmissibilityError, EvaluationError, HierSplineError
from .hierarchy import (
    HierBasis,
    HierSplineFunction,
    HierarchicalMesh,
    SubdomainHierarchy,
    active_mesh,
    build_refinable_basis,
    express_arrays,
    subdomain_grids,
    validate_hierarchy,
)
from .tensor import (
    CellSet,
    Index,
    LevelSpline,
    TensorLevel,
    marked_array,
    marked_indices,
)
from .univariate import KnotVector, exact_dtype
from . import kernels

PointFunction = Callable[[np.ndarray], np.ndarray]


# caps of the OperatorConfig knobs
MAX_INCREMENT = 64
MAX_SUP_SAMPLES = 2 ** 20


@dataclass(frozen=True)
class OperatorConfig:
    """Quadrature and sampling knobs.

    quad_increment: extra Gauss points per direction for the dual
        functionals, beyond the degree+1 at which the local projection
        interpolates; more points make it a discrete least-squares fit.
    error_quad_increment: extra Gauss points per direction for error
        integrals.
    sup_samples_per_cell: point budget per cell for sup-norm sampling,
        split evenly across directions.

    Each knob is an integer between a floor and a fixed cap, and anything
    else is refused. The increments stop at ``MAX_INCREMENT``: a rule of n
    Gauss points solves an n x n eigenvalue problem, and 64 extra points
    already integrate polynomials of degree 2p + 129 exactly. The sample
    stops at ``MAX_SUP_SAMPLES``, about a million nodes per cell.
    """

    quad_increment: int = 0
    error_quad_increment: int = 2
    sup_samples_per_cell: int = 1000

    def __post_init__(self):
        for name, least, most in (("quad_increment", 0, MAX_INCREMENT),
                                  ("error_quad_increment", 0, MAX_INCREMENT),
                                  ("sup_samples_per_cell", 1, MAX_SUP_SAMPLES)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) \
                    or not least <= value <= most:
                # a huge integer is named by its size; its decimal string
                # may be refused
                got = f"an integer of {int(value).bit_length()} bits" \
                    if isinstance(value, Integral) and int(value).bit_length() > 64 \
                    else repr(value)
                raise HierSplineError(
                    f"{name} must be an integer from {least} to {most}, got {got}")


DEFAULT_CONFIG = OperatorConfig()


def checked_callable(f: PointFunction) -> PointFunction:
    """Wrap a callback so outputs of the wrong shape raise, and non-finite
    ones raise with the location."""

    def wrapped(pts: np.ndarray) -> np.ndarray:
        return _finite(_per_point(f, pts), lambda: pts)

    return wrapped


def _per_point(f: PointFunction, pts: np.ndarray) -> np.ndarray:
    """``f`` at the (m, d) array ``pts`` as m float64 values, or an error
    when it does not return one value per point."""
    vals = np.asarray(f(pts), dtype=np.float64)
    if vals.shape != (pts.shape[0],):
        if vals.shape != (pts.shape[0], 1):
            raise EvaluationError(f"callback returned shape {vals.shape} for "
                                  f"{pts.shape[0]} points, not one value per point")
        vals = vals.reshape(pts.shape[0])
    return vals


def _finite(vals: np.ndarray, points: Callable[[], np.ndarray]) -> np.ndarray:
    """``vals``, or an error naming the first point, of the (m, d) array
    ``points()`` in the order of the values, where a value is not finite."""
    ok = np.isfinite(vals)
    if not ok.all():
        where = points()[int(np.argmin(ok))]
        raise EvaluationError(f"callback returned a non-finite value at {tuple(where)}")
    return vals


def _grid_values(f, axes: Sequence[np.ndarray]) -> np.ndarray:
    """``f`` on c tensor grids, ``axes[k]`` holding the (c, n_k) coordinates
    of direction k, as a new float64 array of shape (c, nodes) with each
    grid's nodes first direction fastest; checked for its shape but not
    for finiteness, which the norms check once on their integrand.

    A function with an ``on_grid`` method is evaluated per direction by it,
    and the array it returns is the caller's to overwrite; any other
    callable is evaluated at the points of :func:`_tensor_grid`, and its
    values are copied.
    """
    c = len(axes[0])
    on_grid = getattr(f, "on_grid", None)
    if on_grid is None:
        return np.array(_per_point(f, _tensor_grid(axes)).reshape(c, -1))
    return np.asarray(on_grid(axes), dtype=np.float64).reshape(c, -1)


# ---------------------------------------------------------------------------
# core domains and admissibility

@dataclass(frozen=True, eq=False)
class CoreDomains:
    """Per level, the cells whose support extension stays inside the
    level's subdomain, plus whether the chain is nested top-down.
    ``masks[ell]`` marks them on the grid of level ell's cells."""

    masks: tuple[np.ndarray, ...]
    nested: bool


def compute_core_domains(h: SubdomainHierarchy,
                         levels: Sequence[TensorLevel]) -> CoreDomains:
    """Core cells level by level, each level's support extensions checked
    against its subdomain as one box query; nesting by parent lookup."""
    grids = subdomain_grids(h, levels)
    masks = [np.ones(levels[0].num_cells, dtype=bool)]
    for ell in range(1, h.depth):
        masks.append(grids.boxes_inside(ell, ell, *zip(*(kv.extension_intervals
                                                          for kv in levels[ell].kvs))))
    nested = all(not (fine & ~coarse[np.ix_(*grids.ancestor_maps(ell + 1, ell))]).any()
                 for ell, (coarse, fine) in enumerate(zip(masks, masks[1:])))
    return CoreDomains(tuple(masks), nested)


@dataclass(frozen=True)
class AdmissibilityReport:
    strictly_admissible: bool
    omega_nested: bool


def check_admissibility(h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                        core: CoreDomains | None = None) -> AdmissibilityReport:
    """Strict admissibility (each subdomain inside the previous core) and
    core nesting; strictness implies nesting, which is asserted."""
    if core is None:
        core = compute_core_domains(h, levels)
    grids = subdomain_grids(h, levels)
    strict = not any((grids.cells_inside(ell - 1, ell) & ~core.masks[ell - 1]).any()
                     for ell in range(1, h.depth))
    if strict and not core.nested:
        raise HierSplineError(
            "strictly admissible mesh with non-nested core domains; "
            "this should be impossible")
    return AdmissibilityReport(strict, core.nested)


# ---------------------------------------------------------------------------
# local projection workspaces

@lru_cache(maxsize=None)
def _gauss_base(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(count)
    return 0.5 * (t + 1.0), 0.5 * w


def _kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of per-direction factors, first direction fastest."""
    out = factors[0]
    for f in factors[1:]:
        # on vectors the outer product is np.kron at a tenth of its call cost
        out = np.kron(f, out) if f.ndim > 1 else np.multiply.outer(f, out).ravel()
    return out


def _tensor_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The (m, d) points of a tensor grid, first direction fastest.

    Axes of shape (c, n_k) give c grids, one after the other.
    """
    d = len(axes)
    lead = axes[0].shape[:-1]
    sizes = [a.shape[-1] for a in axes]
    out = np.empty(lead + tuple(reversed(sizes)) + (d,))
    for k, a in enumerate(axes):
        shape = [1] * d
        shape[d - 1 - k] = sizes[k]
        out[..., k] = a.reshape(lead + tuple(shape))
    return out.reshape(-1, d)


class IntervalTables(NamedTuple):
    """Local projector data of the J intervals of one knot vector.

    For an n-point Gauss rule: ``nodes`` and ``weights`` are (J, n), ``mass``
    is (J, p+1, p+1), and ``duals[j][:, i]`` holds the node coefficients of
    the functional dual to the i-th function alive on interval j.
    """

    nodes: np.ndarray
    weights: np.ndarray
    mass: np.ndarray
    duals: np.ndarray


def interval_tables(kv: KnotVector, count: int) -> IntervalTables:
    """The tables of all intervals of ``kv``, in one vectorised pass.

    With collocation matrix B and weights W, the dual rows (B^T W B)^{-1} B^T W
    equal R^{-1} Q^T W^{1/2} for the QR factorisation W^{1/2} B = QR, so the
    mass matrix, whose condition number is that of W^{1/2} B squared, is never solved.
    """
    t, w = _gauss_base(count)
    bp = kv.breakpoint_floats
    left, length = bp[:-1, None], np.diff(bp)[:, None]
    nodes = left + length * t
    weights = length * w
    spans = np.repeat(kv.first_functions + kv.degree, count)
    vals = kernels.basis_columns(kv.floats, kv.degree, nodes.ravel(), spans)
    vals = vals.reshape(nodes.shape + (kv.degree + 1,))
    mass = np.swapaxes(vals, 1, 2) @ (vals * weights[:, :, None])
    root = np.sqrt(weights)[:, :, None]
    q, r = np.linalg.qr(root * vals)
    duals = root * np.swapaxes(np.linalg.solve(r, np.swapaxes(q, 1, 2)), 1, 2)
    return IntervalTables(nodes, weights, 0.5 * (mass + np.swapaxes(mass, 1, 2)), duals)


def level_tables(level: TensorLevel, config: OperatorConfig
                 ) -> tuple[IntervalTables, ...]:
    """Per-direction interval tables of a level for the dual functionals."""
    return tuple(interval_tables(kv, kv.degree + 1 + config.quad_increment)
                 for kv in level.kvs)


class LocalProjectionWorkspace:
    """The local L2 projection of one anchor cell: its level, the cell and
    the level's interval tables, which hold all its data. Kept only
    because the benchmark counts one build per anchor cell
    (``perfbench/tracer.py``)."""

    def __init__(self, level: TensorLevel, cell: Index,
                 tables: Sequence[IntervalTables]):
        self.level = level
        self.cell = cell
        self._tables = tables


def _anchor_search(level: TensorLevel, core: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The functions with a core cell in their support, in canonical
    order, and the anchor cell of each, as two (members, d) index arrays.

    A function's candidates are, per direction, the offsets 0..W_k-1 from
    the first interval of its support that stay inside the support, kept
    where the cell is in the core. Of these only the cells of largest
    volume stay, compared exactly as products of the integer numerators of
    the interval lengths over the level's one denominator per direction.
    Among them the anchor minimises the squared distance of the doubled
    cell centre to the doubled support centre, ties going to the first
    candidate in canonical order: it minimises distance * prod(W) + offset
    rank, the rank first direction fastest. Only the functions whose
    support meets the core's bounding box are searched, on an array of
    shape (functions..., offsets...).
    """
    d = level.dim
    marked = np.nonzero(core)
    if marked[0].size == 0:
        empty = np.zeros((0, d), dtype=np.int64)
        return empty, empty
    box = [(int(m.min()), int(m.max())) for m in marked]
    lengths = [kv.interval_lengths[0].tolist() for kv in level.kvs]
    dtype = exact_dtype(math.prod(max(n) for n in lengths))
    firsts, lookup, widths = [], [], []
    inside, dist, rank, volume = True, 0, 0, 1
    for k, (kv, (lo, hi)) in enumerate(zip(level.kvs, box)):
        a, b = kv.support_intervals
        # the supports meeting [lo, hi], a run since both ends are nondecreasing
        start = int(np.searchsorted(b, lo))
        stop = int(np.searchsorted(a, hi, side="right"))
        a, b = a[start:stop], b[start:stop]
        w = int((b - a).max()) + 1
        cells = a[:, None] + np.arange(w)
        shape = [1] * (2 * d)
        shape[k], shape[d + k] = cells.shape
        inside = inside & ((cells <= b[:, None]) & (cells >= lo)
                           & (cells <= hi)).reshape(shape)
        dist = dist + ((2 * cells - (a + b)[:, None]) ** 2).reshape(shape)
        rank = rank + (np.arange(w) * math.prod(widths)).reshape(shape[d:])
        firsts.append((start, a))
        lookup.append((np.clip(cells, lo, hi) - lo).reshape(shape))
        volume = volume * np.array(lengths[k], dtype=dtype)[np.clip(cells, lo, hi)].reshape(shape)
        widths.append(w)
    crop = core[tuple(slice(lo, hi + 1) for lo, hi in box)]
    inside = inside & crop[tuple(lookup)]
    funcs = inside.shape[:d]
    inside = inside.reshape(funcs + (-1,))
    # every numerator is positive, so a cell off the candidates takes 0
    volume = np.where(inside, volume.reshape(inside.shape), 0)
    inside &= volume == volume.max(axis=-1, keepdims=True)
    key = np.where(inside, (dist * math.prod(widths) + rank).reshape(inside.shape),
                   np.iinfo(np.int64).max)
    best = np.unravel_index(key.argmin(axis=-1), widths)
    # canonical order: the last direction slowest
    found = np.nonzero(inside.any(axis=-1).T)[::-1]
    members = np.stack([start + f for (start, _), f in zip(firsts, found)], axis=1)
    anchors = np.stack([a[f] + o[found] for (_, a), f, o in zip(firsts, found, best)],
                       axis=1)
    return members, anchors


# ---------------------------------------------------------------------------
# per-level operators

class LevelQuasiInterpolant:
    """The quasi-interpolant of one level: dual functionals on anchor cells
    for every basis function that owns a full cell inside the core domain.

    Among a function's candidate cells of largest volume the anchor is the
    one whose center is closest to the support center (ties broken by the
    canonical cell order). Anchoring each function where it is substantial
    keeps the dual rows small: on a short cell the functions acting there
    are small, and the dual functional's coefficients grow with the ratio
    of the interval lengths, while on the largest interval of the support
    they stay bounded independently of the knots (de Boor, 1976).
    Anchoring by position alone drags boundary-heavy cells in and costs
    several digits for higher degrees.

    The members and their anchor cells are stored as two (members, d)
    index arrays in canonical order, ``member_indices`` and
    ``anchor_indices``. The members' dual rows are formed
    on the first :meth:`apply` and kept as one (members, nodes) array:
    each row is the Kronecker product of the member's univariate dual
    columns on its anchor intervals, so one gather per direction from the
    level's tables gives every member's column of that direction, and a
    running outer product over the directions forms all rows at once.
    Each application then takes one dot product per member.
    """

    def __init__(self, levels: Sequence[TensorLevel], ell: int, core: CoreDomains,
                 config: OperatorConfig = DEFAULT_CONFIG):
        self.level = levels[ell]
        self.level_index = ell
        self.member_indices, self.anchor_indices = _anchor_search(self.level, core.masks[ell])
        self.tables = level_tables(self.level, config)
        self._workspaces: dict[Index, LocalProjectionWorkspace] = {}

    def __len__(self) -> int:
        return len(self.member_indices)

    # read by the benchmark's one-build-per-anchor-cell assertion
    def workspace(self, cell: Index) -> LocalProjectionWorkspace:
        ws = self._workspaces.get(cell)
        if ws is None:
            ws = LocalProjectionWorkspace(self.level, cell, self.tables)
            self._workspaces[cell] = ws
        return ws

    @cached_property
    def _anchor_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct anchor cells in canonical order, as a (cells, d)
        array, and for each member the position of its anchor among them."""
        order = np.ravel_multi_index(tuple(self.anchor_indices.T), self.level.num_cells, order="F")
        _, first, groups = np.unique(order, return_index=True, return_inverse=True)
        return self.anchor_indices[first], groups

    @cached_property
    def _dual_rows(self) -> np.ndarray:
        """Row k: the dual row of member k on its anchor cell's nodes, the
        product of the same factors in the same order as ``_kron`` of its
        univariate dual columns, first direction fastest."""
        # Nothing reads these workspaces here; the cache is filled only
        # because perfbench counts one workspace build per anchor cell.
        for cell in self._anchor_groups[0].tolist():
            self.workspace(tuple(cell))
        intervals = self.anchor_indices.T
        # each member's position among the functions acting on its anchor, per direction
        local = self.member_indices - np.stack(
            [kv.first_functions[j] for kv, j in zip(self.level.kvs, intervals)], axis=-1)
        off = ((local < 0) | (local > self.level.degrees)).any(axis=1)
        if off.any():
            k = int(off.argmax())
            raise HierSplineError(
                f"function {tuple(self.member_indices[k].tolist())} of level {self.level_index}"
                f" does not act on cell {tuple(self.anchor_indices[k].tolist())}")
        rows = np.ones((len(self), 1))
        for tab, j, i in zip(self.tables, intervals, local.T):
            cols = tab.duals[j, :, i]
            # times 1.0 first, which is exact; an explicit shape, as -1 fails on no rows
            rows = (cols[:, :, None] * rows[:, None, :]).reshape(
                len(self), cols.shape[1] * rows.shape[1])
        return rows

    def apply(self, f: PointFunction) -> LevelSpline:
        """Coefficient-wise application, the values in the order of the
        members; the zero spline when no member.

        The callback is evaluated once, on the Gauss nodes of the distinct
        anchor cells in canonical order, gathered from the tables.
        """
        g = checked_callable(f)
        if not len(self):
            return LevelSpline(self.level, self.member_indices, np.zeros(0))
        cells, groups = self._anchor_groups
        nodes = _tensor_grid([tab.nodes[c] for tab, c in zip(self.tables, cells.T)])
        # every cell of a level carries the same number of nodes
        values = g(nodes).reshape(len(cells), -1)
        # one dot product per member, as row @ values[r] would take it
        coeffs = np.matmul(self._dual_rows[:, None, :], values[groups][:, :, None])
        return LevelSpline(self.level, self.member_indices, coeffs.reshape(len(self)))


# ---------------------------------------------------------------------------
# the multiscale operator

class MultiscaleQuasiInterpolant:
    """Residual-corrected composition of the per-level operators.

    Refuses to run when the core domains are not nested, because both the
    restricted decomposition and the output's membership in the refinable
    space hinge on that chain.
    """

    def __init__(self, h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                 refinable: HierBasis | None = None,
                 config: OperatorConfig = DEFAULT_CONFIG):
        validate_hierarchy(h, levels)
        self.hierarchy = h
        self.levels = tuple(levels[:h.depth])
        self.config = config
        self.core = compute_core_domains(h, levels)
        self.report = check_admissibility(h, levels, self.core)
        self.refinable = refinable if refinable is not None else build_refinable_basis(h, levels)
        self.stages = [LevelQuasiInterpolant(levels, ell, self.core, config)
                       for ell in range(h.depth)]

    def _require_nested(self):
        if not self.report.omega_nested:
            raise AdmissibilityError(
                "core domains are not nested; the multiscale operator is "
                "not defined on this hierarchy")

    def apply_parts(self, f: PointFunction) -> list[LevelSpline]:
        """One residual-corrected spline per level."""
        self._require_nested()
        g = checked_callable(f)
        parts: list[LevelSpline] = []

        def residual(pts: np.ndarray) -> np.ndarray:
            vals = g(pts)
            for part in parts:
                vals = vals - part.evaluate(pts)
            return vals

        for stage in self.stages:
            parts.append(stage.apply(residual))
        return parts

    def apply(self, f: PointFunction) -> HierSplineFunction:
        """The interpolant expressed over the refinable basis."""
        parts = self.apply_parts(f)
        return self.express_over_refinable(parts)

    def express_over_refinable(self, parts: Sequence[LevelSpline]) -> HierSplineFunction:
        """The sum of per-level splines, one on each level of the operator
        and coarsest first as from :meth:`apply_parts`, over the refinable
        basis."""
        if [part.level for part in parts] != list(self.levels):
            raise HierSplineError(
                "express_over_refinable takes one spline per level, on the operator's levels "
                f"and coarsest first; got splines on levels {[p.level.index for p in parts]}")
        return HierSplineFunction(self.refinable, [
            LevelSpline(lv, indices, values) for lv, (indices, _, values, _) in zip(
                self.levels, express_arrays([(p.indices, p.values) for p in parts],
                                            self.refinable))])

    def _check_level(self, ell: int) -> None:
        if not 0 <= ell < self.hierarchy.depth:
            raise HierSplineError(
                f"level {ell} outside 0..{self.hierarchy.depth - 1} of the operator")

    def stage_value(self, f: PointFunction, ell: int) -> LevelSpline:
        """Direct application of the level operator, outside the recursion."""
        self._check_level(ell)
        return self.stages[ell].apply(f)

    def decomposition_parts(self, f: PointFunction, ell: int) -> list[LevelSpline]:
        """The restricted form valid on the level's core domain: the level
        operator plus one correction per deeper level, each built from
        direct applications only."""
        self._check_level(ell)
        self._require_nested()
        g = checked_callable(f)
        parts = [self.stages[ell].apply(g)]
        for k in range(ell + 1, self.hierarchy.depth):
            prev = self.stages[k - 1].apply(g)

            def corrected(pts: np.ndarray, _prev=prev) -> np.ndarray:
                return g(pts) - _prev.evaluate(pts)

            parts.append(self.stages[k].apply(corrected))
        return parts


# ---------------------------------------------------------------------------
# norms

def _as_q(q) -> float:
    """1.0, 2.0 or inf; anything else, bools and arrays too, is refused."""
    if isinstance(q, str):
        if q in ("inf", "Inf", "INF"):
            return math.inf
    elif isinstance(q, Real) and not isinstance(q, bool):
        if q in (1, 2):
            return float(q)
        if q == math.inf:
            return math.inf
    raise HierSplineError(f"only q in {{1, 2, inf}} supported, got {q!r}")


def integration_cells(mesh: HierarchicalMesh, region: CellSet | None
                      ) -> list[tuple[int, np.ndarray]]:
    """Cells covering the region on each of which every hierarchical spline
    of this mesh is a single polynomial, per level as an (n, d) index array.

    A region cell sitting inside an active cell is used as is; otherwise it
    splits into its children until the pieces align with the active mesh.
    The split runs level by level on boolean grids. A depth-first descent
    through the region cells, each cell's children in canonical order,
    sorts the cells by the canonical ranks of their ancestors, coarsest
    first. The levels come in the order of their first cell in that
    descent, and each level's cells in the descent's order. Without a
    region, the active cells of each level in canonical order.
    """
    levels = mesh.levels
    if region is None:
        return [(ell, marked_array(m)) for ell, m in enumerate(mesh.masks) if m.any()]
    top = region.level
    if not 0 <= top < len(levels) or np.shape(region.mask) != levels[top].num_cells:
        raise HierSplineError(
            f"a region of level {top} with a grid of shape {np.shape(region.mask)} does not "
            f"fit a mesh of levels 0..{len(levels) - 1}")
    pending = np.array(region.mask, dtype=bool)
    found, keys = [], []
    for ell in range(top, len(levels)):
        covered = mesh.covered(ell)
        idx = np.nonzero(pending & covered)
        found.append((np.full(idx[0].size, ell), np.stack(idx, axis=1)))
        # ranks deepest first, np.lexsort's last key being the primary one;
        # no kept cell has a kept descendant, so the padding never decides
        ranks = [np.full(idx[0].size, -1)] * (len(levels) - 1 - ell)
        for k in range(ell, top - 1, -1):
            ranks.append(np.ravel_multi_index(idx[::-1], levels[k].num_cells[::-1]))
            idx = tuple(m[i] for m, i in zip(levels[k].parent_arrays, idx))
        keys.append(ranks)
        pending &= ~covered
        if not pending.any():
            break
        if ell + 1 == len(levels):
            raise HierSplineError(f"cell {marked_indices(pending)[0]} of level {ell} "
                                  "is not covered by the active mesh")
        pending = pending[np.ix_(*levels[ell + 1].parent_arrays)]
    order = np.lexsort([np.concatenate(column) for column in zip(*keys)])
    ells, cells = (np.concatenate(column)[order] for column in zip(*found))
    _, first = np.unique(ells, return_index=True)
    return [(int(ells[i]), cells[ells == ells[i]]) for i in np.sort(first)]


def _cells_geometry(level: TensorLevel, idxs: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Lower corners and edge lengths for an (n, d) array of cell indices."""
    n = idxs.shape[0]
    lows = np.empty((n, level.dim))
    spans = np.empty((n, level.dim))
    for i, kv in enumerate(level.kvs):
        bp = kv.breakpoint_floats
        lows[:, i] = bp[idxs[:, i]]
        spans[:, i] = bp[idxs[:, i] + 1] - bp[idxs[:, i]]
    return lows, spans


def _abs_batches(f, level: TensorLevel, idxs: np.ndarray,
                 base: Sequence[np.ndarray]):
    """|f| on the tensor grid of the per-direction base axes mapped into
    each of the (n, d) cells ``idxs`` of ``level``, as (first cell, values
    of shape (cells, nodes)), in batches of whole cells of at most
    ``kernels.GRID_BLOCK`` nodes and at least one cell. A batch's values
    are checked for finiteness once, before the absolute value is taken in
    place.

    Per direction the base axis is mapped once into each distinct cell
    row, with the arithmetic of :func:`_cells_geometry`, and a batch's axes
    gather their rows from these and share one cache of the grid kernel's
    windows."""
    found = [np.unique(i, return_inverse=True) for i in idxs.T]
    rows = [bp[u, None] + (bp[u + 1] - bp[u])[:, None] * t
            for (u, _), bp, t in zip(found, (kv.breakpoint_floats for kv in level.kvs), base)]
    chunk = max(1, kernels.GRID_BLOCK // math.prod(len(t) for t in base))
    cache = {}
    for k in range(0, idxs.shape[0], chunk):
        axes = kernels.GridAxes(rows, [at[k:k + chunk] for _, at in found], cache)
        vals = _finite(_grid_values(f, axes), lambda: _tensor_grid(axes))
        yield k, np.abs(vals, out=vals)


class _LevelRows(NamedTuple):
    """The rows kept for one level: the cells' ranks in the order the rows
    were added, that order sorted, and one row per cell."""

    ranks: np.ndarray
    order: np.ndarray
    rows: np.ndarray


def _positions(kept: _LevelRows | None, ranks: np.ndarray) -> np.ndarray:
    """Where the cells of the given ranks sit among the kept rows, -1 for
    the cells not kept."""
    if kept is None:
        return np.full(len(ranks), -1)
    at = kept.order[np.searchsorted(kept.ranks, ranks, sorter=kept.order)
                    .clip(max=len(kept.order) - 1)]
    return np.where(kept.ranks[at] == ranks, at, -1)


class _CellRows:
    """What the L^q norms of one integrand integrate, one row per cell,
    evaluated for the cells a norm asks for and kept for later norms.

    For finite q a cell's row holds |f|^q at its Gauss nodes; for q = inf
    it is the largest |f| over the cell's sample. A row is the same
    whichever batch its cell is evaluated in, so the norms of several
    regions over one mesh can share the rows of the cells they share.
    Rows are kept per level and looked up by the cells' canonical ranks.
    """

    __slots__ = ("f", "qv", "mesh", "config", "_levels")

    def __init__(self, f: PointFunction, q, mesh: HierarchicalMesh,
                 config: OperatorConfig = DEFAULT_CONFIG):
        self.f, self.qv, self.mesh, self.config = f, _as_q(q), mesh, config
        self._levels: dict[int, _LevelRows] = {}

    def base(self, ell: int) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Per direction, the nodes on [0, 1] of level ell's cells and
        their Gauss weights, None for the sup-norm sample."""
        if math.isinf(self.qv):
            d = self.mesh.levels[0].dim
            per_dir = max(2, math.ceil(self.config.sup_samples_per_cell ** (1.0 / d)))
            return [(np.linspace(0.0, 1.0, per_dir), None)] * d
        return [_gauss_base(kv.degree + 1 + self.config.error_quad_increment)
                for kv in self.mesh.levels[ell].kvs]

    def rows(self, ell: int, idxs: np.ndarray) -> np.ndarray:
        """The rows of the (n, d) cells ``idxs`` of level ell, in their
        order; the cells not yet kept are evaluated first, in that order."""
        lv = self.mesh.levels[ell]
        ranks = np.ravel_multi_index(tuple(idxs.T[::-1]), lv.num_cells[::-1])
        kept = self._levels.get(ell)
        at = _positions(kept, ranks)
        miss = at < 0
        if miss.any():
            rows, added = self._evaluate(ell, idxs[miss]), ranks[miss]
            if kept is not None:
                rows = np.concatenate([kept.rows, rows])
                added = np.concatenate([kept.ranks, added])
            kept = self._levels[ell] = _LevelRows(added, np.argsort(added, kind="stable"), rows)
            at = _positions(kept, ranks)
        # a whole level in the order it was added needs no gather
        return kept.rows if np.array_equal(at, np.arange(len(kept.ranks))) else kept.rows[at]

    def release(self, ell: int) -> None:
        """Forget the rows of level ell."""
        self._levels.pop(ell, None)

    def _evaluate(self, ell: int, idxs: np.ndarray) -> np.ndarray:
        nodes = [t for t, _ in self.base(ell)]
        inf = math.isinf(self.qv)
        out = np.empty(idxs.shape[:1] if inf else (idxs.shape[0], math.prod(map(len, nodes))))
        for k, vals in _abs_batches(self.f, self.mesh.levels[ell], idxs, nodes):
            if inf:
                vals.max(axis=1, out=out[k:k + vals.shape[0]])
            else:
                vals **= self.qv
                out[k:k + vals.shape[0]] = vals
        return out


def lq_norm(f: PointFunction, q, mesh: HierarchicalMesh,
            region: CellSet | None = None,
            config: OperatorConfig = DEFAULT_CONFIG) -> float:
    """L^q norm over a region by per-cell Gauss quadrature, or the maximum
    over a dense sample for q = inf. Cells are taken level by level.

    The norm gathers the rows of its integration cells from a table of
    per-cell values (|f|^q at the Gauss nodes, or the cell's largest |f|),
    which evaluates the cells it does not hold yet; a plain call fills a
    fresh one, and the convergence study passes one table per integrand
    to the norms of all its regions. For finite q the per-cell integrals
    are formed once per level from the gathered rows, in the order of
    :func:`integration_cells`: a matrix-vector product rounds a row
    differently depending on how many rows it is given and where, and so
    the norm depends neither on the batches nor on which norms shared the
    table.
    """
    qv = _as_q(q)
    shared = isinstance(f, _CellRows)
    table = f if shared else _CellRows(f, qv, mesh, config)
    if table.qv != qv or table.mesh is not mesh or table.config != config:
        raise HierSplineError("a table of cell values serves only norms of its own q, "
                              "mesh and configuration")
    groups = integration_cells(mesh, region)
    total = 0.0
    for ell, idxs in groups:
        rows = table.rows(ell, idxs)
        if math.isinf(qv):
            total = max(total, float(rows.max()))
        else:
            _, spans = _cells_geometry(mesh.levels[ell], idxs)
            base_w = _kron([w for _, w in table.base(ell)])
            total += float(spans.prod(axis=1) @ (rows @ base_w))
        if not shared:
            table.release(ell)
    return total if math.isinf(qv) else total ** (1.0 / qv)


class _Difference:
    """``f - s`` on tensor grids, for the norms."""

    __slots__ = ("f", "s")

    def __init__(self, f: PointFunction, s: HierSplineFunction):
        self.f, self.s = f, s

    def on_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        # the spline first, so that f's values are not held while the
        # kernel's buffers are
        s = self.s.on_grid(axes)
        vals = _grid_values(self.f, axes)
        return np.subtract(vals, s.reshape(vals.shape), out=vals)


def error_norms(f: PointFunction, s: HierSplineFunction | None, q,
                mesh: HierarchicalMesh | None = None,
                region: CellSet | None = None,
                config: OperatorConfig = DEFAULT_CONFIG) -> float:
    """``||f - s||`` in L^q over the region (the whole domain by default)."""
    if mesh is None:
        if s is None:
            raise HierSplineError("need either a spline or a mesh")
        mesh = active_mesh(s.basis.hierarchy, s.basis.levels)
    return lq_norm(f if s is None else _Difference(f, s), q, mesh, region, config)
