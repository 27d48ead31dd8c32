"""Tensor-product levels: multivariate B-splines, cell meshes, two-scale.

Multi-indices run over d >= 1 directions. The canonical linearization is
lexicographic with the first direction varying fastest, i.e. the linear
index of (i_0, ..., i_{d-1}) over dims (n_0, ..., n_{d-1}) is
i_0 + n_0*(i_1 + n_1*(...)). All sorted listings and dense coefficient
layouts follow this order.

A set of cells or functions of one level is stored as a boolean grid over
the level's cells or functions, axis i for direction i (a
:class:`CellSet` is a level plus such a grid); :func:`marked_indices`
derives the multi-indices in canonical order where a reader needs them.

A :class:`TensorLevel` reads the index tables and float knots of its knot
vectors and owns, as a ``functools.cached_property``, its parent maps as
int64 arrays. It holds the one test that an index names one of its
functions or cells (:meth:`TensorLevel.holds`), which every scalar
per-index query passes its index through (:meth:`TensorLevel.check_index`).

Spline coefficients are stored per level as index and value arrays: a
:class:`LevelSpline` holds an (n, d) int64 array of distinct functions of
its level and an (n,) array of their values, float64 or, for exact
values, object; its ``coefficients`` dict is a view derived on first use,
in stored order. It hands its dense coefficients and the level's float
knots straight to the kernels: ``kernels.tensor_spline_values`` at
scattered points (``evaluate``) and ``kernels.tensor_grid_values`` on
per-cell tensor grids (``on_grid``). The children of a whole array of
coarse functions come from the slot arrays of the two-scale tables at
once (:func:`tensor_children_arrays`).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import kernels
from .errors import HierSplineError, LevelSizeError, NestingError
from .univariate import (
    KnotVector,
    LocalKnotVector,
    TwoScaleTable,
    dyadic_refine,
    exact_dtype,
    interval_parents,
    parent_slots,
    parent_table,
    two_scale_table,
)

Index = tuple[int, ...]

# the most cells a level may have: a level sequence refuses a deeper
# level before building it (the corner family at 256 cells per direction
# needs 2**20)
MAX_LEVEL_CELLS = 2 ** 22


def id_sort_key(indices: Index) -> Index:
    """Sort key realizing the first-direction-fastest canonical order."""
    return tuple(reversed(indices))


def iter_box(ranges: Sequence[range]) -> Iterator[Index]:
    """Multi-indices of a box in canonical order."""
    for combo in itertools.product(*reversed(ranges)):
        yield combo[::-1]


def marked_indices(mask: np.ndarray) -> list[Index]:
    """The True entries of a grid (axis i for direction i), as
    multi-indices in canonical order."""
    return list(zip(*(a.tolist() for a in reversed(np.nonzero(mask.T)))))


def marked_array(mask: np.ndarray) -> np.ndarray:
    """:func:`marked_indices` as an (n, d) index array."""
    return np.argwhere(mask.T)[:, ::-1]


def index_arrays(cells: Iterable[Index], dim: int) -> tuple[np.ndarray, ...]:
    """Per-direction index arrays of a collection of multi-indices, to
    index a grid with."""
    cells = list(cells)
    return tuple(np.array(cells, dtype=np.int64).reshape(len(cells), dim).T)


@dataclass(frozen=True)
class TensorFunctionId:
    """A basis function: level plus per-direction univariate indices."""

    level: int
    indices: Index


@dataclass(frozen=True, eq=False)
class CellSet:
    """A set of cells of one level, as a boolean grid over that level's
    cells (axis i for direction i)."""

    level: int
    mask: np.ndarray

    def sorted(self) -> list[Index]:
        return marked_indices(self.mask)


@dataclass(frozen=True)
class TensorLevel:
    """One level of the nested sequence: d knot vectors plus derived mesh.

    ``interval_parents[i][j]`` is the interval of the previous level's
    direction ``i`` that contains interval ``j`` here; level 0 has none.
    The maps follow from the knot vectors, so they take no part in
    comparison or hashing.
    """

    index: int
    kvs: tuple[KnotVector, ...]
    interval_parents: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False, repr=False)

    def __post_init__(self):
        want = () if self.index == 0 else self.num_cells
        got = tuple(map(len, self.interval_parents))
        if got != want:
            raise NestingError(f"level {self.index}: interval parent maps must "
                               f"have lengths {want}, got {got}")

    @property
    def dim(self) -> int:
        return len(self.kvs)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(kv.degree for kv in self.kvs)

    @cached_property
    def num_basis(self) -> tuple[int, ...]:
        return tuple(kv.num_basis for kv in self.kvs)

    @cached_property
    def num_cells(self) -> tuple[int, ...]:
        return tuple(kv.num_intervals for kv in self.kvs)

    @property
    def max_interval_lengths(self) -> tuple[Fraction, ...]:
        return tuple(kv.max_interval_length for kv in self.kvs)

    @cached_property
    def parent_arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(np.array(m, dtype=np.int64) for m in self.interval_parents)

    def holds(self, indices: Index, cells: bool = False) -> bool:
        """Is ``indices`` a function of this level, or with ``cells`` a
        cell: as many entries as directions, each inside its grid. The
        scalar queries run it thousands of times per check, so it is a
        plain loop."""
        grid = self.num_cells if cells else self.num_basis
        if len(indices) != len(grid):
            return False
        for j, n in zip(indices, grid):
            if not 0 <= j < n:
                return False
        return True

    def check_index(self, indices: Index, cells: bool = False) -> None:
        """Refuse what :meth:`holds` refuses, naming the level and the index."""
        if not self.holds(indices, cells):
            kind, grid = ("cell", self.num_cells) if cells else ("function", self.num_basis)
            raise HierSplineError(f"{kind} {tuple(indices)} is outside the {kind} grid "
                                  f"{grid} of level {self.index}")

    def function_ids(self) -> Iterator[Index]:
        return iter_box([range(n) for n in self.num_basis])

    def cell_ids(self) -> Iterator[Index]:
        return iter_box([range(n) for n in self.num_cells])

    def local(self, indices: Index) -> tuple[LocalKnotVector, ...]:
        return tuple(kv.local(j) for kv, j in zip(self.kvs, indices))

    def support_box(self, indices: Index) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(kv.support(j) for kv, j in zip(self.kvs, indices))

    def function_cell_ranges(self, indices: Index) -> list[range]:
        """Per-direction interval index ranges covered by the support."""
        out = []
        for kv, j in zip(self.kvs, indices):
            a, b = kv.function_interval_range(j)
            out.append(range(a, b + 1))
        return out

    def cell_box(self, indices: Index) -> tuple[tuple[Fraction, Fraction], ...]:
        out = []
        for kv, j in zip(self.kvs, indices):
            c = kv.intervals[j]
            out.append((c.left, c.right))
        return tuple(out)

    def cell_volume(self, indices: Index) -> Fraction:
        vol = Fraction(1)
        for kv, j in zip(self.kvs, indices):
            vol *= kv.intervals[j].length
        return vol

    def support_extension_box(self, indices: Index) -> tuple[tuple[Fraction, Fraction], ...]:
        """Closed region covered by the supports of all functions acting on the cell."""
        return tuple(kv.intervals[j].extension for kv, j in zip(self.kvs, indices))

    def support_extension_cell_ranges(self, indices: Index) -> list[range]:
        """The support extension of a cell, as per-direction interval ranges."""
        return [range(kv.extension_intervals[0].item(j), kv.extension_intervals[1].item(j) + 1)
                for kv, j in zip(self.kvs, indices)]

    def functions_on_cell(self, indices: Index) -> list[range]:
        return [kv.functions_on_interval(j) for kv, j in zip(self.kvs, indices)]

    def functions_supported_in_box(self, box) -> list[range]:
        return [kv.functions_supported_in(lo, hi)
                for kv, (lo, hi) in zip(self.kvs, box)]

    def locate(self, point: Sequence[float]) -> Index | None:
        """Cell whose closure contains the point, by right-continuous lookup."""
        found, cells = self.locate_all(np.array([point], dtype=np.float64))
        return tuple(int(c[0]) for c in cells) if found[0] else None

    def locate_all(self, points: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """:meth:`locate` for the rows of an (m, d) array: which points lie
        in the domain, and their cells as one index array per direction."""
        found = np.ones(points.shape[0], dtype=bool)
        cells = []
        for kv, x in zip(self.kvs, points.T):
            bps = kv.breakpoint_floats
            found &= ~((x < bps[0]) | (x > bps[-1]))
            cells.append(np.clip(np.searchsorted(bps, x, side="right") - 1, 0, bps.size - 2))
        return found, tuple(cells)


# ---------------------------------------------------------------------------
# level sequences

def build_level_sequence(initial: Sequence[KnotVector], depth: int,
                         rule="dyadic") -> list[TensorLevel]:
    """Levels 0..depth-1 from initial knot vectors plus a refinement rule.

    ``rule`` is "dyadic" or an explicit list of per-direction knot vectors
    for levels 1..depth-1. Explicit levels are checked for nestedness and
    a violation names the level and direction.
    """
    if depth < 1:
        raise HierSplineError("depth must be at least 1")
    levels = [TensorLevel(0, tuple(initial))]
    if rule == "dyadic":
        return extend_level_sequence(levels, depth)
    explicit = list(rule)
    if len(explicit) != depth - 1:
        raise NestingError(
            f"explicit rule must supply {depth - 1} levels, got {len(explicit)}")
    for ell, fine in enumerate(explicit, start=1):
        coarse = levels[-1]
        fine = tuple(fine)
        if len(fine) != coarse.dim:
            raise NestingError(f"level {ell}: expected {coarse.dim} directions")
        for i, (coarse_kv, fine_kv) in enumerate(zip(coarse.kvs, fine)):
            if fine_kv.degree != coarse_kv.degree:
                raise NestingError(
                    f"level {ell}, direction {i}: degree changed")
            if not fine_kv.contains_as_subsequence(coarse_kv):
                raise NestingError(
                    f"level {ell}, direction {i}: knot vector does not refine "
                    "the previous level")
        _refuse_oversized(ell, [kv.num_intervals for kv in fine])
        levels.append(_refined_level(coarse, fine))
    return levels


def extend_level_sequence(levels: Sequence[TensorLevel], depth: int) -> list[TensorLevel]:
    """Extend by dyadic refinement until ``depth`` levels exist."""
    out = list(levels)
    while len(out) < depth:
        _refuse_oversized(len(out), [2 * n for n in out[-1].num_cells])
        out.append(_refined_level(out[-1], tuple(dyadic_refine(kv) for kv in out[-1].kvs)))
    return out


def _refined_level(coarse: TensorLevel, kvs: tuple[KnotVector, ...]) -> TensorLevel:
    """The level after ``coarse`` with knot vectors ``kvs`` nesting it,
    with the coarse interval of every fine one."""
    return TensorLevel(coarse.index + 1, kvs, tuple(
        tuple(interval_parents(ckv, fkv).tolist()) for ckv, fkv in zip(coarse.kvs, kvs)))


def _refuse_oversized(ell: int, cells: Sequence[int]) -> None:
    """Refuse a level ``ell`` with ``cells`` intervals per direction when
    it would have more than MAX_LEVEL_CELLS cells."""
    if (count := math.prod(cells)) > MAX_LEVEL_CELLS:
        raise LevelSizeError(f"level {ell} would have {count} cells, more than "
                             f"the {MAX_LEVEL_CELLS} a level may have")


# ---------------------------------------------------------------------------
# parent/child across levels

def two_scale_tables(coarse: TensorLevel, fine: TensorLevel) -> tuple[TwoScaleTable, ...]:
    """Per direction, the two-scale table from ``coarse`` to ``fine``."""
    if fine.index != coarse.index + 1:
        raise HierSplineError(
            f"levels {coarse.index} and {fine.index} are not consecutive")
    return tuple(two_scale_table(ckv, fkv) for ckv, fkv in zip(coarse.kvs, fine.kvs))


def tensor_children_arrays(parents: np.ndarray, tables: Sequence[TwoScaleTable]
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The children of the rows of an (n, d) array of coarse functions,
    read from the slot arrays of the tables.

    Returns, one entry per (parent, child) pair, parents in row order and
    each parent's children in canonical order: the parent's row, the
    child as an (m, d) index array and the numerator of its coefficient;
    then the common denominator q, the product of the tables'. Every
    numerator is at most q, the bound of their :func:`exact_dtype`.
    """
    q = math.prod(tab.denominator for tab in tables)
    rows = np.arange(len(parents))
    children = np.zeros((len(parents), 0), dtype=np.int64)
    numerators = np.ones(len(parents), dtype=exact_dtype(q))
    # the last direction slowest: each direction splits the pairs so far
    for k in reversed(range(len(tables))):
        tab, j = tables[k], parents[rows, k]
        pair, slot = np.nonzero(tab.present[j])
        j, rows = j[pair], rows[pair]
        children = np.column_stack([tab.index[j, slot], children[pair]])
        numerators = numerators[pair] * tab.numerator[j, slot].astype(numerators.dtype)
    return rows, children, numerators, q


def tensor_children(indices: Index, coarse: TensorLevel, fine: TensorLevel
                    ) -> list[tuple[Index, Fraction]]:
    """Children of a coarse function with two-scale coefficients.

    Per-direction children combine as products; the coefficient of a
    combination is the product of the univariate coefficients, formed as
    one fraction of the products of their integer numerators and
    denominators.
    """
    coarse.check_index(indices)
    _, children, numerators, q = tensor_children_arrays(
        np.array([indices], dtype=np.int64), two_scale_tables(coarse, fine))
    return [(tuple(c), Fraction(n, q)) for c, n in zip(children.tolist(), numerators.tolist())]


def tensor_parents(indices: Index, coarse: TensorLevel, fine: TensorLevel) -> list[Index]:
    """Parents of a fine function, from the univariate endpoint tests."""
    fine.check_index(indices)
    per_dir = [parent_table(ckv, fkv)[j]
               for ckv, fkv, j in zip(coarse.kvs, fine.kvs, indices)]
    return [tuple(per_dir[i][c] for i, c in enumerate(combo))
            for combo in iter_box([range(len(r)) for r in per_dir])]


def has_marked_parent(indices: np.ndarray, coarse: TensorLevel, fine: TensorLevel,
                      mask: np.ndarray) -> np.ndarray:
    """Which rows of an (n, d) array of fine functions have a parent that
    ``mask`` marks on the coarse function grid. The parents are those of
    :func:`tensor_parents`, from the endpoint tests: per direction the
    padded slots of :func:`parent_slots`, then one gather of the mask per
    combination of slots."""
    per_dir = [(index[j], present[j]) for (index, present), j in
               zip((parent_slots(ckv, fkv) for ckv, fkv in zip(coarse.kvs, fine.kvs)),
                   indices.T)]
    hit = np.zeros(len(indices), dtype=bool)
    for slots in itertools.product(*(range(index.shape[1]) for index, _ in per_dir)):
        filled = np.logical_and.reduce([present[:, s] for (_, present), s in zip(per_dir, slots)])
        hit |= filled & mask[tuple(index[:, s] for (index, _), s in zip(per_dir, slots))]
    return hit


# ---------------------------------------------------------------------------
# cells across levels

def cell_ancestor(levels: Sequence[TensorLevel], from_level: int, to_level: int,
                  indices: Index) -> Index:
    """Map a cell of ``from_level`` to the cell of ``to_level`` containing it."""
    if to_level > from_level:
        raise HierSplineError("ancestor level must not be finer")
    levels[from_level].check_index(indices, cells=True)
    idx = indices
    for ell in range(from_level, to_level, -1):
        idx = tuple(m[j] for m, j in zip(levels[ell].interval_parents, idx))
    return idx


def cell_descendant_ranges(levels: Sequence[TensorLevel], from_level: int,
                           to_level: int, indices: Index) -> list[range]:
    """Per-direction fine interval ranges of a coarse cell's descendants.

    The parent maps are nondecreasing, so the children of a range of
    intervals are the fine intervals whose parents fall in it.
    """
    if to_level < from_level:
        raise HierSplineError("descendant level must not be coarser")
    levels[from_level].check_index(indices, cells=True)
    ranges = [range(j, j + 1) for j in indices]
    for ell in range(from_level + 1, to_level + 1):
        ranges = [range(bisect.bisect_left(m, r.start), bisect.bisect_right(m, r.stop - 1))
                  for m, r in zip(levels[ell].interval_parents, ranges)]
    return ranges


# ---------------------------------------------------------------------------
# spline evaluation over a level

def as_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise HierSplineError(f"points must have shape (m, {dim})")
    return np.ascontiguousarray(pts)


def as_axes(axes, dim: int) -> list[np.ndarray]:
    """The axes of c tensor grids: ``dim`` float arrays of shape (c, n_k),
    as a list, or the :class:`kernels.GridAxes` given, which keeps its
    distinct rows and its cache of windows."""
    arrs = [np.asarray(a, dtype=np.float64) for a in axes]
    if len(arrs) != dim or any(a.ndim != 2 or a.shape[0] != arrs[0].shape[0] for a in arrs):
        raise HierSplineError(f"grid axes must be {dim} arrays of shape (c, n_k)")
    return axes if isinstance(axes, kernels.GridAxes) else arrs


def eval_function(level: TensorLevel, indices: Index, points) -> np.ndarray:
    """Evaluate one tensor-product basis function at a batch of points."""
    pts = as_points(points, level.dim)
    out = None
    for i, (kv, j) in enumerate(zip(level.kvs, indices)):
        tau = kv.floats[j:j + kv.degree + 2]
        vals = kernels.local_values(tau, kv.degree, np.ascontiguousarray(pts[:, i]))
        out = vals if out is None else np.multiply(out, vals, out=out)
    return out


@dataclass(eq=False)
class LevelSpline:
    """A spline of one level: ``values[k]`` is the coefficient of the level
    function ``indices[k]``.

    ``indices`` is an (n, d) int64 array of distinct functions of the
    level and ``values`` an (n,) array, float64, or object for exact
    values; both are checked here. ``coefficients`` is the dict view, in
    stored order.
    """

    level: TensorLevel
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lv = self.level
        indices, values = np.asarray(self.indices), np.asarray(self.values)
        if indices.ndim != 2 or indices.shape[1] != lv.dim or indices.dtype.kind not in "iu" \
                or values.shape != (len(indices),):
            raise HierSplineError(
                f"a level-{lv.index} spline takes an (n, {lv.dim}) integer index array and n "
                f"values, got indices of shape {indices.shape} and dtype {indices.dtype} and "
                f"values of shape {values.shape}")
        self.indices = indices.astype(np.int64, copy=False)
        self.values = values if values.dtype == object else values.astype(np.float64, copy=False)
        refused = ~((self.indices >= 0) & (self.indices < lv.num_basis)).all(axis=1)
        twice = not refused.any() and np.unique(self._flat).size < len(indices)
        if twice:
            _, first = np.unique(self._flat, return_index=True)
            refused[np.setdiff1d(np.arange(len(indices)), first)] = True
        if refused.any():
            why = f"appears twice in a level-{lv.index} spline" if twice else \
                f"is outside the function grid {lv.num_basis} of level {lv.index}"
            raise HierSplineError(
                f"function {tuple(self.indices[refused.argmax()].tolist())} {why}")

    @cached_property
    def coefficients(self) -> dict[Index, float | Fraction]:
        return dict(zip(map(tuple, self.indices.tolist()), self.values.tolist()))

    @cached_property
    def _flat(self) -> np.ndarray:
        """The functions' linear indices, first direction fastest."""
        return np.ravel_multi_index(tuple(self.indices.T), self.level.num_basis, order="F")

    @cached_property
    def _dense(self) -> np.ndarray:
        arr = np.zeros(math.prod(self.level.num_basis))
        arr[self._flat] = self.values.astype(np.float64)
        return arr

    def evaluate(self, points) -> np.ndarray:
        lv = self.level
        # points by keyword: the benchmark tracer counts them from there
        return kernels.tensor_spline_values(
            self._dense, [kv.floats for kv in lv.kvs], lv.degrees,
            points=as_points(points, lv.dim))

    def on_grid(self, axes) -> np.ndarray:
        """The values on c tensor grids, ``axes[k]`` holding the (c, n_k)
        coordinates of direction k, as (c, n_{d-1}, ..., n_0)."""
        lv = self.level
        return kernels.tensor_grid_values(
            self._dense, [kv.floats for kv in lv.kvs], lv.degrees, as_axes(axes, lv.dim))

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)
