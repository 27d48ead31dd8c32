"""Local projectors, per-level quasi-interpolants and the multiscale operator.

Per level, the core domain collects the cells whose support extension
stays inside the level's subdomain; on it the full tensor-product space of
that level is exactly representable in the hierarchical space. Each basis
function acting there gets a dual functional from the local L2 projection
on an anchor cell, as weights on the cell's Gauss nodes; it is the tensor
product of univariate duals, tabulated per level, direction and interval.
The per-level operators combine into the multiscale operator through
residual correction; when the core domains are nested its output lies in
the span of the refinable basis and is returned expressed over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
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
    cell_in_subdomain,
    express_over,
    validate_hierarchy,
)
from .tensor import (
    CellSet,
    Index,
    LevelSpline,
    TensorFunctionId as Fid,
    TensorLevel,
    cell_ancestor,
    cell_descendant_ranges,
    id_sort_key,
    iter_box,
)
from .univariate import KnotVector
from . import kernels

PointFunction = Callable[[np.ndarray], np.ndarray]


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
    """

    quad_increment: int = 0
    error_quad_increment: int = 2
    sup_samples_per_cell: int = 1000

    def __post_init__(self):
        for name, least in (("quad_increment", 0), ("error_quad_increment", 0),
                            ("sup_samples_per_cell", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise HierSplineError(f"{name} must be an integer >= {least}, got {value!r}")


DEFAULT_CONFIG = OperatorConfig()


def checked_callable(f: PointFunction) -> PointFunction:
    """Wrap a callback so non-finite outputs raise with the location."""

    def wrapped(pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(f(pts), dtype=np.float64)
        if vals.shape != (pts.shape[0],):
            vals = vals.reshape(pts.shape[0])
        bad = ~np.isfinite(vals)
        if bad.any():
            where = pts[int(np.argmax(bad))]
            raise EvaluationError(
                f"callback returned a non-finite value at {tuple(where)}")
        return vals

    return wrapped


# ---------------------------------------------------------------------------
# core domains and admissibility

@dataclass(frozen=True)
class CoreDomains:
    """Per level, the cells whose support extension stays inside the
    level's subdomain, plus whether the chain is nested top-down."""

    cellsets: tuple[CellSet, ...]
    nested: bool

    def cells(self, ell: int) -> frozenset[Index]:
        return self.cellsets[ell].cells


def compute_core_domains(h: SubdomainHierarchy,
                         levels: Sequence[TensorLevel]) -> CoreDomains:
    validate_hierarchy(h, levels)
    sets: list[CellSet] = []
    for ell in range(h.depth):
        lv = levels[ell]
        if ell == 0:
            sets.append(CellSet(0, frozenset(lv.cell_ids())))
            continue
        pool: set[Index] = set()
        for c in h.subdomain_cells(ell):
            pool.update(iter_box(cell_descendant_ranges(levels, ell - 1, ell, c)))
        keep = set()
        for c in pool:
            ext = lv.support_extension_cell_ranges(c)
            inside = True
            for cc in iter_box(ext):
                if not cell_in_subdomain(h, levels, ell, cc, ell):
                    inside = False
                    break
            if inside:
                keep.add(c)
        sets.append(CellSet(ell, frozenset(keep)))
    nested = True
    for ell in range(h.depth - 1):
        fine = sets[ell + 1].cells
        coarse = sets[ell].cells
        for c in fine:
            if cell_ancestor(levels, ell + 1, ell, c) not in coarse:
                nested = False
                break
        if not nested:
            break
    return CoreDomains(tuple(sets), nested)


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
    strict = True
    for ell in range(1, h.depth):
        cells = h.subdomain_cells(ell)
        if not cells <= core.cells(ell - 1):
            strict = False
            break
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
    """The (m, d) points of a tensor grid, first direction fastest."""
    mesh = np.meshgrid(*axes[::-1], indexing="ij")
    return np.stack(mesh[::-1], axis=-1).reshape(-1, len(axes))


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
    bp = kv.breakpoint_floats()
    left, length = bp[:-1, None], np.diff(bp)[:, None]
    nodes = left + length * t
    weights = length * w
    spans = np.repeat([c.flat_index for c in kv.intervals], count)
    vals = kernels.basis_columns(kv.floats(), kv.degree, nodes.ravel(), spans)
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
    """L2 projection onto the local polynomial space of one cell.

    The local basis consists of the level functions not vanishing on the
    cell, in canonical order. Under the tensor Gauss rule the local mass
    matrix is the Kronecker product of the univariate ones, and each dual
    row is the Kronecker product of univariate dual columns, so the
    workspace is a view of its level's interval tables. Nodes, weights,
    mass and rows all run with the first direction fastest.
    """

    def __init__(self, level: TensorLevel, cell: Index,
                 tables: Sequence[IntervalTables]):
        self.level = level
        self.cell = cell
        self.local_functions: list[Index] = list(iter_box(level.functions_on_cell(cell)))
        # the cell's entry of every table field, one tuple per field
        nodes, weights, self._masses, self._duals = zip(
            *[[field[j] for field in tab] for tab, j in zip(tables, cell)])
        self.nodes = _tensor_grid(nodes)
        self.weights = _kron(weights)

    @property
    def mass(self) -> np.ndarray:
        return _kron(self._masses)

    def local_index(self, indices: Index) -> int:
        return self.local_functions.index(indices)

    def dual_row(self, i0: int) -> np.ndarray:
        """Quadrature-ready coefficients of the i0-th dual functional."""
        cols = []
        for duals in self._duals:
            i0, i = divmod(i0, duals.shape[1])
            cols.append(duals[:, i])
        return _kron(cols)


# ---------------------------------------------------------------------------
# per-level operators

class LevelQuasiInterpolant:
    """The quasi-interpolant of one level: dual functionals on anchor cells
    for every basis function that owns a full cell inside the core domain.

    Among a function's candidate cells the anchor is the one whose center
    is closest to the support center (ties broken by the canonical cell
    order). Anchoring each function where it is substantial keeps the dual
    rows small; anchoring by position alone drags boundary-heavy cells in
    and costs several digits for higher degrees.
    """

    def __init__(self, h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                 ell: int, core: CoreDomains,
                 config: OperatorConfig = DEFAULT_CONFIG):
        self.level = levels[ell]
        self.level_index = ell
        candidates: dict[Index, list[Index]] = {}
        for cell in sorted(core.cells(ell), key=id_sort_key):
            for fidx in iter_box(self.level.functions_on_cell(cell)):
                candidates.setdefault(fidx, []).append(cell)
        anchor: dict[Index, Index] = {}
        for fidx, cells in candidates.items():
            ranges = self.level.function_cell_ranges(fidx)
            center = [r.start + r.stop - 1 for r in ranges]  # doubled index

            def badness(cell: Index):
                dist = 0
                for i, j in enumerate(cell):
                    delta = 2 * j - center[i]
                    dist += delta * delta
                return (dist, id_sort_key(cell))

            anchor[fidx] = min(cells, key=badness)
        self.members: tuple[Index, ...] = tuple(sorted(anchor, key=id_sort_key))
        self.anchor_cells = anchor
        self.tables = level_tables(self.level, config)
        self._workspaces: dict[Index, LocalProjectionWorkspace] = {}

    def __len__(self) -> int:
        return len(self.members)

    def workspace(self, cell: Index) -> LocalProjectionWorkspace:
        ws = self._workspaces.get(cell)
        if ws is None:
            ws = LocalProjectionWorkspace(self.level, cell, self.tables)
            self._workspaces[cell] = ws
        return ws

    def dual_functional(self, indices: Index) -> Callable[[PointFunction], float]:
        """The functional dual to the given member on its anchor cell."""
        if indices not in self.anchor_cells:
            raise HierSplineError(
                f"function {indices} has no full cell inside the core domain "
                f"of level {self.level_index}")
        ws = self.workspace(self.anchor_cells[indices])
        row = ws.dual_row(ws.local_index(indices))

        def functional(f: PointFunction) -> float:
            return float(row @ checked_callable(f)(ws.nodes))

        return functional

    def apply(self, f: PointFunction) -> LevelSpline:
        """Coefficient-wise application; the zero spline when no member.

        The callback is evaluated once over the concatenated anchor nodes.
        """
        g = checked_callable(f)
        cells = sorted(set(self.anchor_cells.values()), key=id_sort_key)
        if not cells:
            return LevelSpline(self.level, {})
        # every cell of a level carries the same number of nodes
        all_vals = g(np.vstack([self.workspace(c).nodes for c in cells]))
        values = dict(zip(cells, all_vals.reshape(len(cells), -1)))
        coeffs: dict[Index, float] = {}
        for m in self.members:
            ws = self.workspace(self.anchor_cells[m])
            coeffs[m] = float(ws.dual_row(ws.local_index(m)) @ values[ws.cell])
        return LevelSpline(self.level, coeffs)


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
        self.stages = [LevelQuasiInterpolant(h, levels, ell, self.core, config)
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
        """The sum of per-level splines, one per level as from
        :meth:`apply_parts`, over the refinable basis."""
        if len({part.level.index for part in parts}) != len(parts):
            raise HierSplineError("express_over_refinable takes one spline per level")
        coeffs = {Fid(part.level.index, idx): c
                  for part in parts for idx, c in part.coefficients.items()}
        return HierSplineFunction(self.refinable, express_over(coeffs, self.refinable))

    def stage_value(self, f: PointFunction, ell: int) -> LevelSpline:
        """Direct application of the level operator, outside the recursion."""
        return self.stages[ell].apply(f)

    def decomposition_parts(self, f: PointFunction, ell: int) -> list[LevelSpline]:
        """The restricted form valid on the level's core domain: the level
        operator plus one correction per deeper level, each built from
        direct applications only."""
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
    if q in (1, 2):
        return float(q)
    if q in ("inf", "Inf", "INF", np.inf, math.inf, float("inf")):
        return math.inf
    raise HierSplineError(f"only q in {{1, 2, inf}} supported, got {q!r}")


def integration_cells(mesh: HierarchicalMesh, region: CellSet | None
                      ) -> list[tuple[int, Index]]:
    """Cells covering the region on each of which every hierarchical spline
    of this mesh is a single polynomial.

    A region cell sitting inside an active cell is used as is; otherwise it
    splits into its children until the pieces align with the active mesh.
    """
    if region is None:
        return list(mesh.cells())
    levels = mesh.levels
    active_sets = [set(a) for a in mesh.active]
    out: list[tuple[int, Index]] = []

    def resolve(level: int, idx: Index):
        for k in range(level, -1, -1):
            if cell_ancestor(levels, level, k, idx) in active_sets[k]:
                out.append((level, idx))
                return
        if level + 1 >= len(levels):
            raise HierSplineError(
                f"cell {idx} of level {level} is not covered by the active mesh")
        for child in iter_box(cell_descendant_ranges(levels, level, level + 1, idx)):
            resolve(level + 1, child)

    for idx in region.sorted():
        resolve(region.level, idx)
    return out


def _cells_geometry(level: TensorLevel, idxs: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Lower corners and edge lengths for an (n, d) array of cell indices."""
    n = idxs.shape[0]
    lows = np.empty((n, level.dim))
    spans = np.empty((n, level.dim))
    for i, kv in enumerate(level.kvs):
        bp = kv.breakpoint_floats()
        lows[:, i] = bp[idxs[:, i]]
        spans[:, i] = bp[idxs[:, i] + 1] - bp[idxs[:, i]]
    return lows, spans


def _grouped_cells(cells):
    groups: dict[int, list] = {}
    for ell, idx in cells:
        groups.setdefault(ell, []).append(idx)
    return groups


def _abs_batches(g: PointFunction, lows: np.ndarray, spans: np.ndarray,
                 base: np.ndarray):
    """|g| at the base nodes mapped into each cell, as (first cell, values
    of shape (cells, nodes)), in batches of whole cells of at most
    ``kernels.BLOCK`` points and at least one cell."""
    chunk = max(1, kernels.BLOCK // base.shape[0])
    for k in range(0, lows.shape[0], chunk):
        nodes = lows[k:k + chunk, None, :] + spans[k:k + chunk, None, :] * base[None, :, :]
        vals = g(nodes.reshape(-1, base.shape[1]))
        yield k, np.abs(vals).reshape(-1, base.shape[0])


def lq_norm(f: PointFunction, q, mesh: HierarchicalMesh,
            region: CellSet | None = None,
            config: OperatorConfig = DEFAULT_CONFIG) -> float:
    """L^q norm over a region by per-cell Gauss quadrature, or the maximum
    over a dense sample for q = inf. Cells are taken level by level.

    For finite q the batches only fill a level's table of |f|^q at the
    nodes, and the per-cell integrals are formed once per level: a
    matrix-vector product rounds a row differently depending on how many
    rows it is given, and so the norm does not depend on the batch size.
    """
    qv = _as_q(q)
    g = checked_callable(f)
    cells = integration_cells(mesh, region)
    if not cells:
        return 0.0
    groups = _grouped_cells(cells)
    if math.isinf(qv):
        d = mesh.levels[0].dim
        per_dir = max(2, math.ceil(config.sup_samples_per_cell ** (1.0 / d)))
        base = _tensor_grid([np.linspace(0.0, 1.0, per_dir)] * d)
        worst = 0.0
        for ell, idxs in groups.items():
            lows, spans = _cells_geometry(mesh.levels[ell], np.array(idxs, dtype=np.int64))
            for _, vals in _abs_batches(g, lows, spans, base):
                worst = max(worst, float(vals.max()))
        return worst
    total = 0.0
    for ell, idxs in groups.items():
        lv = mesh.levels[ell]
        counts = [kv.degree + 1 + config.error_quad_increment for kv in lv.kvs]
        rules = [_gauss_base(c) for c in counts]
        base = _tensor_grid([t for t, _ in rules])
        base_w = _kron([w for _, w in rules])
        lows, spans = _cells_geometry(lv, np.array(idxs, dtype=np.int64))
        powers = np.empty((lows.shape[0], base.shape[0]))
        for k, vals in _abs_batches(g, lows, spans, base):
            powers[k:k + vals.shape[0]] = vals ** qv
        total += float(spans.prod(axis=1) @ (powers @ base_w))
    return total ** (1.0 / qv)


def error_norms(f: PointFunction, s: HierSplineFunction | None, q,
                mesh: HierarchicalMesh | None = None,
                region: CellSet | None = None,
                config: OperatorConfig = DEFAULT_CONFIG) -> float:
    """``||f - s||`` in L^q over the region (the whole domain by default)."""
    if mesh is None:
        if s is None:
            raise HierSplineError("need either a spline or a mesh")
        mesh = active_mesh(s.basis.hierarchy, s.basis.levels)
    g = checked_callable(f)
    if s is None:
        diff = g
    else:
        def diff(pts: np.ndarray) -> np.ndarray:
            return g(pts) - s.evaluate(pts)
    return lq_norm(diff, q, mesh, region, config)
