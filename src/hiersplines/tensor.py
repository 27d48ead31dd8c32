"""Tensor-product levels: multivariate B-splines, cell meshes, two-scale.

Multi-indices run over d >= 1 directions. The canonical linearization is
lexicographic with the first direction varying fastest, i.e. the linear
index of (i_0, ..., i_{d-1}) over dims (n_0, ..., n_{d-1}) is
i_0 + n_0*(i_1 + n_1*(...)). All sorted listings and dense coefficient
layouts follow this order.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import kernels
from .errors import HierSplineError, NestingError
from .univariate import (
    KnotVector,
    LocalKnotVector,
    children_table,
    dyadic_refine,
    parent_table,
)

Index = tuple[int, ...]


def id_sort_key(indices: Index) -> Index:
    """Sort key realizing the first-direction-fastest canonical order."""
    return tuple(reversed(indices))


def iter_box(ranges: Sequence[range]) -> Iterator[Index]:
    """Multi-indices of a box in canonical order."""
    for combo in itertools.product(*reversed(ranges)):
        yield combo[::-1]


@dataclass(frozen=True)
class TensorFunctionId:
    """A basis function: level plus per-direction univariate indices."""

    level: int
    indices: Index


@dataclass(frozen=True)
class CellSet:
    """A set of cells, all of one level."""

    level: int
    cells: frozenset[Index]

    def __contains__(self, indices: Index) -> bool:
        return indices in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def sorted(self) -> list[Index]:
        return sorted(self.cells, key=id_sort_key)



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

    @property
    def num_basis(self) -> tuple[int, ...]:
        return tuple(kv.num_basis for kv in self.kvs)

    @property
    def num_cells(self) -> tuple[int, ...]:
        return tuple(kv.num_intervals for kv in self.kvs)

    @property
    def max_interval_lengths(self) -> tuple[Fraction, ...]:
        return tuple(kv.max_interval_length for kv in self.kvs)

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
        out = []
        for kv, j in zip(self.kvs, indices):
            k, p = kv.intervals[j].flat_index, kv.degree
            bpi = kv.breakpoint_indices()
            out.append(range(bpi[k - p], bpi[k + p + 1]))
        return out

    def functions_on_cell(self, indices: Index) -> list[range]:
        return [kv.functions_on_interval(j) for kv, j in zip(self.kvs, indices)]

    def functions_supported_in_box(self, box) -> list[range]:
        return [kv.functions_supported_in(lo, hi)
                for kv, (lo, hi) in zip(self.kvs, box)]

    def locate(self, point: Sequence[float]) -> Index | None:
        """Cell whose closure contains the point, by right-continuous lookup."""
        idx = []
        for kv, x in zip(self.kvs, point):
            bps = kv.breakpoint_floats()
            x = float(x)
            if x < bps[0] or x > bps[-1]:
                return None
            j = int(np.searchsorted(bps, x, side="right")) - 1
            j = max(0, min(j, bps.size - 2))
            idx.append(j)
        return tuple(idx)


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
        levels.append(_refined_level(coarse, fine))
    return levels


def extend_level_sequence(levels: Sequence[TensorLevel], depth: int) -> list[TensorLevel]:
    """Extend by dyadic refinement until ``depth`` levels exist."""
    out = list(levels)
    while len(out) < depth:
        out.append(_refined_level(out[-1], tuple(dyadic_refine(kv) for kv in out[-1].kvs)))
    return out


def _refined_level(coarse: TensorLevel, kvs: tuple[KnotVector, ...]) -> TensorLevel:
    """The level after ``coarse`` with knot vectors ``kvs`` nesting it.

    Every fine interval lies in the coarse interval its left end falls in,
    so a bisection of the fine breakpoints gives the parent maps.
    """
    parents = []
    for ckv, fkv in zip(coarse.kvs, kvs):
        lefts = ckv.breakpoints.values
        parents.append(tuple(bisect.bisect_right(lefts, v) - 1
                             for v in fkv.breakpoints.values[:-1]))
    return TensorLevel(coarse.index + 1, kvs, tuple(parents))


# ---------------------------------------------------------------------------
# parent/child across levels

def tensor_children(indices: Index, coarse: TensorLevel, fine: TensorLevel
                    ) -> list[tuple[Index, Fraction]]:
    """Children of a coarse function with two-scale coefficients.

    Per-direction children combine as products; the coefficient of a
    combination is the product of the univariate coefficients.
    """
    if fine.index != coarse.index + 1:
        raise HierSplineError(
            f"levels {coarse.index} and {fine.index} are not consecutive")
    per_dir = [children_table(ckv, fkv)[j]
               for ckv, fkv, j in zip(coarse.kvs, fine.kvs, indices)]
    out = []
    for combo in itertools.product(*[range(len(row)) for row in reversed(per_dir)]):
        combo = combo[::-1]
        idx = tuple(per_dir[i][c][0] for i, c in enumerate(combo))
        coef = Fraction(1)
        for i, c in enumerate(combo):
            coef *= per_dir[i][c][1]
        out.append((idx, coef))
    return out


def tensor_parents(indices: Index, coarse: TensorLevel, fine: TensorLevel) -> list[Index]:
    """Parents of a fine function, from the univariate endpoint tests."""
    per_dir = [parent_table(ckv, fkv)[j]
               for ckv, fkv, j in zip(coarse.kvs, fine.kvs, indices)]
    return [tuple(per_dir[i][c] for i, c in enumerate(combo))
            for combo in iter_box([range(len(r)) for r in per_dir])]


# ---------------------------------------------------------------------------
# cells across levels

def cell_ancestor(levels: Sequence[TensorLevel], from_level: int, to_level: int,
                  indices: Index) -> Index:
    """Map a cell of ``from_level`` to the cell of ``to_level`` containing it."""
    if to_level > from_level:
        raise HierSplineError("ancestor level must not be finer")
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
    ranges = [range(j, j + 1) for j in indices]
    for ell in range(from_level + 1, to_level + 1):
        ranges = [range(bisect.bisect_left(m, r.start), bisect.bisect_right(m, r.stop - 1))
                  for m, r in zip(levels[ell].interval_parents, ranges)]
    return ranges


# ---------------------------------------------------------------------------
# spline evaluation over a level

class TensorSplineEvaluator:
    """Packed per-level arrays feeding the tensor evaluation kernel."""

    def __init__(self, level: TensorLevel):
        self.level = level
        knots = [kv.floats() for kv in level.kvs]
        self.knots_flat = np.concatenate(knots)
        offs = np.zeros(level.dim + 1, dtype=np.int64)
        offs[1:] = np.cumsum([k.size for k in knots])
        self.knot_offsets = offs
        self.degrees = np.array(level.degrees, dtype=np.int64)
        dims = level.num_basis
        strides = [1]
        for n in dims[:-1]:
            strides.append(strides[-1] * n)
        self.strides = np.array(strides, dtype=np.int64)
        self.size = int(np.prod(dims))
        table = list(iter_box([range(p + 1) for p in level.degrees]))
        self.offsets_table = np.array(table, dtype=np.int64).reshape(len(table), level.dim)

    def linear_index(self, indices: Index) -> int:
        return int(sum(i * s for i, s in zip(indices, self.strides)))

    def dense(self, coefficients: Mapping[Index, float]) -> np.ndarray:
        arr = np.zeros(self.size)
        for idx, c in coefficients.items():
            arr[self.linear_index(idx)] = float(c)
        return arr

    def evaluate_dense(self, dense: np.ndarray, points: np.ndarray) -> np.ndarray:
        pts = as_points(points, self.level.dim)
        return kernels.tensor_spline_values(
            dense, self.knots_flat, self.knot_offsets, self.degrees,
            self.strides, self.offsets_table, pts)

    def evaluate(self, coefficients: Mapping[Index, float], points) -> np.ndarray:
        return self.evaluate_dense(self.dense(coefficients), points)


def level_evaluator(level: TensorLevel) -> TensorSplineEvaluator:
    ev = level.__dict__.get("_evaluator")
    if ev is None:
        ev = TensorSplineEvaluator(level)
        level.__dict__["_evaluator"] = ev
    return ev


def as_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise HierSplineError(f"points must have shape (m, {dim})")
    return np.ascontiguousarray(pts)


def eval_function(level: TensorLevel, indices: Index, points) -> np.ndarray:
    """Evaluate one tensor-product basis function at a batch of points."""
    pts = as_points(points, level.dim)
    out = None
    for i, (kv, j) in enumerate(zip(level.kvs, indices)):
        tau = kv.floats()[j:j + kv.degree + 2]
        vals = kernels.local_values(tau, kv.degree, np.ascontiguousarray(pts[:, i]), 1.0)
        out = vals if out is None else np.multiply(out, vals, out=out)
    return out


@dataclass(eq=False)
class LevelSpline:
    """A spline of one level given by coefficients over a subset of its basis."""

    level: TensorLevel
    coefficients: dict[Index, float]

    _dense: np.ndarray | None = field(default=None, init=False, repr=False)

    def evaluate(self, points) -> np.ndarray:
        ev = level_evaluator(self.level)
        if self._dense is None:
            self._dense = ev.dense(self.coefficients)
        return ev.evaluate_dense(self._dense, points)

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)
