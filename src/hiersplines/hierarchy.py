"""Hierarchies of subdomains and hierarchical B-spline bases.

Two flavors of basis are built over the same hierarchy:

* ``classical``: level-wise selection of functions whose support sits in
  the level's subdomain but not in the next one.
* ``refinable``: the subset obtained by replacing each deactivated
  function by its children only. It equals the positive-weight part of
  the classical basis and can be maintained through parent/child
  relations alone, with no mesh traversal.

A spline given by coefficients on functions of several levels is written
over a basis by the same relations: one sweep from the coarsest level
down keeps the coefficients of active functions and passes those of
deactivated ones to their children, scaled by the two-scale coefficients.
The coefficients are stored per level as index and value arrays
(:class:`hiersplines.tensor.LevelSpline`), and the sweep runs on them
level by level (:func:`express_arrays`), which can carry a source per
entry and so write many combinations in one sweep; a
:class:`HierSplineFunction` holds one such spline per level, and the
``Fid``-keyed ``coefficients`` dicts of it and of :func:`express_over`
are views derived from them.

Partition-of-unity weights are exact rationals and positivity is decided
structurally (does the function inherit from a positive deactivated
parent?), never by comparing a float against zero. Subdomains are closed
unions of cells of the previous level, so the whole construction can be
rebuilt from the active cells alone; :mod:`hiersplines.fixtures` round
trips that.

Containment, weights and selections are computed for whole levels.
Each subdomain is a boolean grid over the previous level's cells
(:class:`SubdomainGrids`), and which supports, cells or support
extensions of a level lie in it is one box query per level; the
invariant suite tests supports on the stored cells instead
(:func:`supports_in_cells`). The
two-scale relation is applied in one way: the (parent, child) pairs of
:func:`hiersplines.tensor.tensor_children_arrays`, read from the integer
slot arrays of the two-scale tables. The sweep, the weights and the
refinable selection all take their children from it. A
:class:`WeightMap` stores, per level, the defined functions as an index
array with integer numerators over one denominator and positivity flags,
and looks functions up by their positions in those arrays; its
``Fid``-keyed dicts of Fractions are views made on first use. The
scalar queries (:func:`support_in_subdomain`, :func:`cell_in_subdomain`)
and the sweep look up the same cached level answers.

The results are stored as per-level boolean grids too: the active cells
of a :class:`HierarchicalMesh`, and the selected and active functions of
a :class:`HierBasis`. The package's own code reads these arrays. Their
tuple and frozenset views (``active``, ``member_set``, ``stages``) and
the weight dicts are derived on first use, for the dumps, the dict API
(:func:`express_over`, :func:`expand_deactivated`) and the tests;
:mod:`hiersplines.invariants` reads none of them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import HierarchyError, InternalInvariantError
from .tensor import (
    Index,
    LevelSpline,
    TensorFunctionId,
    TensorLevel,
    as_axes,
    as_points,
    extend_level_sequence,
    has_marked_parent,
    index_arrays,
    marked_array,
    marked_indices,
    tensor_children_arrays,
    two_scale_tables,
)
from .univariate import exact_dtype, nearest_floats

CLASSICAL = "classical"
REFINABLE = "refinable"

Fid = TensorFunctionId


@dataclass(frozen=True)
class SubdomainHierarchy:
    """Nested closed subdomains; entry ell-1 holds the cells of level ell-1
    whose union is subdomain ell. The root subdomain is the whole domain
    and the one past the deepest stored entry is empty.

    Trailing empty subdomains are trimmed so that equal hierarchies compare
    equal after a mesh round trip.
    """

    depth: int
    subdomains: tuple[frozenset[Index], ...]
    # SubdomainGrids per level sequence, see subdomain_grids
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.depth < 1:
            raise HierarchyError("depth must be at least 1")
        if len(self.subdomains) != self.depth - 1:
            raise HierarchyError(
                f"depth {self.depth} needs {self.depth - 1} stored subdomains, "
                f"got {len(self.subdomains)}")

    @staticmethod
    def from_cells(cells_per_level: Sequence[Iterable[Index]]) -> "SubdomainHierarchy":
        """Build from the cell lists of subdomains 1..n-1, trimming empty tails."""
        subs = [frozenset(tuple(c) for c in cells) for cells in cells_per_level]
        while subs and not subs[-1]:
            subs.pop()
        return SubdomainHierarchy(len(subs) + 1, tuple(subs))

    def subdomain_cells(self, ell: int) -> frozenset[Index] | None:
        """Cells (at level ell-1) of subdomain ell; None means the full domain."""
        if ell <= 0:
            return None
        if ell >= self.depth:
            return frozenset()
        return self.subdomains[ell - 1]


class SubdomainGrids:
    """A checked hierarchy over its levels, as per-level boolean grids.

    Subdomain ell is a boolean grid over the cells of level ell-1, with a
    summed-area table that counts its cells in any box with 2**d lookups.
    The interval parent maps, composed into integer arrays, carry cells of
    finer levels to that grid; being monotone and onto, they carry a box
    of intervals to the box between the ancestors of its ends. Queries
    answer for a whole level at once.
    """

    def __init__(self, h: SubdomainHierarchy, levels: Sequence[TensorLevel]):
        if len(levels) < h.depth:
            raise HierarchyError(
                f"hierarchy of depth {h.depth} needs {h.depth} levels, "
                f"got {len(levels)}")
        self.depth = h.depth
        self.levels = tuple(levels)
        self._maps: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self._masks: dict[tuple[int, int], np.ndarray] = {}
        self._grids: list[np.ndarray] = []
        self._sums: list[np.ndarray] = []
        for ell in range(1, h.depth):
            shape = levels[ell - 1].num_cells
            cells = h.subdomains[ell - 1]
            for c in cells:
                if not levels[ell - 1].holds(c, cells=True):
                    raise HierarchyError(
                        f"subdomain {ell}: cell {c} out of range for level "
                        f"{ell - 1} grid {shape}")
            grid = np.zeros(shape, dtype=bool)
            grid[index_arrays(cells, len(shape))] = True
            sums = np.zeros(tuple(n + 1 for n in shape), dtype=np.int32)
            acc = grid.astype(np.int32)
            for axis in range(len(shape)):
                acc = acc.cumsum(axis=axis)
            sums[(slice(1, None),) * len(shape)] = acc
            self._grids.append(grid)
            self._sums.append(sums)
        for ell in range(1, h.depth - 1):
            inner = list(h.subdomains[ell])
            parents = self.ancestor_maps(ell, ell - 1)
            cells = index_arrays(inner, len(parents))
            inside = self._grids[ell - 1][tuple(m[a] for m, a in zip(parents, cells))]
            if not inside.all():
                raise HierarchyError(
                    f"hierarchy nesting violated: cell {inner[int(np.argmin(inside))]} "
                    f"of subdomain {ell + 1} is not inside subdomain {ell}")

    def ancestor_maps(self, level: int, to_level: int) -> tuple[np.ndarray, ...]:
        """Per direction, the interval of ``to_level`` containing each
        interval of ``level``."""
        key = (level, to_level)
        maps = self._maps.get(key)
        if maps is None:
            if level == to_level:
                maps = tuple(np.arange(n) for n in self.levels[level].num_cells)
            else:
                below = self.ancestor_maps(level - 1, to_level)
                maps = tuple(b[m] for b, m in zip(below, self.levels[level].parent_arrays))
            self._maps[key] = maps
        return maps

    def boxes_inside(self, ell: int, level: int, lo: Sequence[np.ndarray],
                     hi: Sequence[np.ndarray]) -> np.ndarray:
        """Which boxes of intervals of ``level`` lie in subdomain ell,
        1 <= ell < depth and level >= ell-1.

        Direction i offers the ranges lo[i][a]..hi[i][a] (inclusive); the
        answer has one entry per combination of them, axis i for direction i.
        Many ranges share their ancestor range, so the boxes are counted
        once per distinct combination of ancestor ranges.
        """
        los, his, inverses = [], [], []
        for m, a, b, n in zip(self.ancestor_maps(level, ell - 1), lo, hi,
                              self._grids[ell - 1].shape):
            key, inverse = np.unique(m[a] * (n + 1) + m[b] + 1, return_inverse=True)
            los.append(key // (n + 1))
            his.append(key % (n + 1))
            inverses.append(inverse.ravel())
        sums = self._sums[ell - 1]
        d = len(los)
        count = np.zeros(tuple(map(len, los)), dtype=sums.dtype)
        for corner in itertools.product((False, True), repeat=d):
            term = sums[np.ix_(*[b if up else a for a, b, up in zip(los, his, corner)])]
            if (d - sum(corner)) % 2:
                count -= term
            else:
                count += term
        volume = functools.reduce(np.multiply.outer, [b - a for a, b in zip(los, his)])
        return (count == volume)[np.ix_(*inverses)]

    def cells_inside(self, level: int, ell: int) -> np.ndarray:
        """Which cells of ``level`` lie in subdomain ell (level >= ell-1)."""
        if ell <= 0 or ell >= self.depth:
            return np.full(self.levels[level].num_cells, ell <= 0)
        return self._grids[ell - 1][np.ix_(*self.ancestor_maps(level, ell - 1))]

    def cell_inside(self, level: int, indices: Index, ell: int) -> bool:
        """:meth:`cells_inside` for one cell, 1 <= ell < depth."""
        maps = self.ancestor_maps(level, ell - 1)
        return bool(self._grids[ell - 1][tuple(m[j] for m, j in zip(maps, indices))])

    def supports_inside(self, level: int, ell: int) -> np.ndarray:
        """Which functions of ``level`` have their support in subdomain ell
        (level >= ell-1). Cached: the scalar queries read it."""
        key = (level, ell)
        mask = self._masks.get(key)
        if mask is None:
            lv = self.levels[level]
            if ell <= 0 or ell >= self.depth:
                mask = np.full(lv.num_basis, ell <= 0)
            else:
                mask = self.boxes_inside(ell, level, *zip(*(kv.support_intervals
                                                            for kv in lv.kvs)))
            self._masks[key] = mask
        return mask


def subdomain_grids(h: SubdomainHierarchy, levels: Sequence[TensorLevel]) -> SubdomainGrids:
    """The grids of ``h`` over ``levels``, built once per level sequence.

    Building them checks the hierarchy and raises HierarchyError when it
    is invalid. The grids keep the levels alive, so their identities key
    the cache.
    """
    key = tuple(map(id, levels))
    grids = h._grids.get(key)
    if grids is None:
        grids = SubdomainGrids(h, levels)
        h._grids[key] = grids
    return grids


def validate_hierarchy(h: SubdomainHierarchy, levels: Sequence[TensorLevel]) -> None:
    """Check cell indices and the nesting chain; raise HierarchyError if bad."""
    subdomain_grids(h, levels)


# ---------------------------------------------------------------------------
# containment queries

def cell_in_subdomain(h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                      level: int, indices: Index, ell: int) -> bool:
    """Is the closed cell of ``level`` inside subdomain ``ell``?

    Requires level >= ell-1 so the cell maps to whole cells of the
    subdomain's granularity.
    """
    levels[level].check_index(indices, cells=True)
    cells = h.subdomain_cells(ell)
    if cells is None:
        return True
    if not cells:
        return False
    if level < ell - 1:
        raise HierarchyError("cell coarser than the subdomain's granularity")
    return subdomain_grids(h, levels).cell_inside(level, indices, ell)


def support_in_subdomain(h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                         level: int, indices: Index, ell: int) -> bool:
    """Is the support of function ``indices`` of ``level`` inside subdomain ell?

    Requires level >= ell-1, like :func:`cell_in_subdomain`.
    """
    levels[level].check_index(indices)
    cells = h.subdomain_cells(ell)
    if cells is None:
        return True
    if not cells:
        return False
    if level < ell - 1:
        raise HierarchyError("function coarser than the subdomain's granularity")
    return bool(subdomain_grids(h, levels).supports_inside(level, ell)[indices])


# ---------------------------------------------------------------------------
# hierarchical mesh

@dataclass(frozen=True, eq=False)
class HierarchicalMesh:
    """Active cells per level, as boolean grids over each level's cells;
    they tile the domain with disjoint interiors."""

    levels: tuple[TensorLevel, ...]
    masks: tuple[np.ndarray, ...]

    @functools.cached_property
    def active(self) -> tuple[tuple[Index, ...], ...]:
        """The active cells of each level in canonical order."""
        return tuple(tuple(marked_indices(m)) for m in self.masks)

    def cells(self) -> Iterator[tuple[int, Index]]:
        for ell, cells in enumerate(self.active):
            for c in cells:
                yield ell, c

    def cell_count(self) -> int:
        return sum(int(np.count_nonzero(m)) for m in self.masks)

    def total_volume(self) -> Fraction:
        """The active cells' volumes summed exactly: per level, the mask
        contracted with each direction's exact interval lengths."""
        vol = Fraction(0)
        for lv, mask in zip(self.levels, self.masks):
            total, denominator = mask.astype(object), 1
            # the last axis first: each product contracts it
            for kv in reversed(lv.kvs):
                lengths, d = kv.interval_lengths
                total = total @ lengths
                denominator *= d
            vol += Fraction(int(total), denominator)
        return vol

    def covered(self, level: int) -> np.ndarray:
        """Boolean grid over the cells of ``level``: which lie inside an
        active cell of that level or of a coarser one. A cell is covered
        when it is active or its parent is covered."""
        return self._covered[level]

    @functools.cached_property
    def _covered(self) -> tuple[np.ndarray, ...]:
        grids = self.masks[:1]
        for lv, mask in zip(self.levels[1:], self.masks[1:]):
            grids += (mask | grids[-1][np.ix_(*lv.parent_arrays)],)
        return grids


def active_mesh(h: SubdomainHierarchy, levels: Sequence[TensorLevel]) -> HierarchicalMesh:
    """The cells of each level inside its subdomain but not the next one."""
    grids = subdomain_grids(h, levels)
    return HierarchicalMesh(tuple(levels[:h.depth]), tuple(
        grids.cells_inside(ell, ell) & ~grids.cells_inside(ell, ell + 1)
        for ell in range(h.depth)))


# ---------------------------------------------------------------------------
# partition-of-unity weights

@dataclass(eq=False)
class WeightMap:
    """Exact weights for every function whose support sits in its level's
    subdomain, together with the structural positivity flag.

    Per level ell: ``indices`` holds the defined functions as an (n, d)
    index array in canonical order, ``numerators`` their weights' integer
    numerators over ``denominators[ell]`` and ``flags`` their positivity.
    :meth:`positions` finds functions among them, and ``weight``,
    ``is_positive`` and ``defined`` read one entry through it. ``values``
    (``Fid`` to ``Fraction``) and ``positive`` (``Fid`` to bool) are dict
    views in that order, both made on the first use of either.
    """

    indices: tuple[np.ndarray, ...]
    numerators: tuple[np.ndarray, ...]
    flags: tuple[np.ndarray, ...]
    denominators: tuple[int, ...]

    @functools.cached_property
    def _grids(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per level, each defined function's position on a grid over their
        bounding box widened by one on every side, -1 where none is
        defined, and the lower corner of that grid."""
        out = []
        for idx in self.indices:
            lo = (idx.min(axis=0) if len(idx) else 0) - 1
            grid = np.full(idx.max(axis=0, initial=-1) - lo + 2, -1)
            grid[tuple((idx - lo).T)] = np.arange(len(idx))
            out.append((lo, grid))
        return tuple(out)

    def positions(self, level: int, indices) -> np.ndarray:
        """Where the functions of an (n, d) index array of ``level`` sit
        among its defined ones, -1 for a function with no weight. Indices
        that are not int64 or rows of another length, such as Python ints
        beyond its range, name none; a non-empty array that is not
        two-dimensional, such as one function's flat index, is refused."""
        indices = np.asarray(indices)
        if indices.size and indices.ndim != 2:
            raise HierarchyError(f"function indices of level {level} must form an (n, "
                                 f"{self.indices[0].shape[1]}) array, got shape {indices.shape}")
        if indices.dtype != np.int64 or not 0 <= level < len(self.indices) \
                or indices.shape[1:] != self.indices[level].shape[1:]:
            return np.full(len(indices), -1)
        lo, grid = self._grids[level]
        # an index off the box is clipped to its border, where none is defined
        return grid.take(np.ravel_multi_index(tuple((indices - lo).T), grid.shape, mode="clip"))

    def defined_positions(self, level: int, indices) -> np.ndarray:
        """:meth:`positions`, refusing the first function with no weight by name."""
        at = self.positions(level, indices)
        if (at < 0).any():
            raise _no_weight(Fid(level, tuple(np.asarray(indices)[np.argmin(at)].tolist())))
        return at

    @functools.cached_property
    def _views(self) -> tuple[dict[Fid, Fraction], dict[Fid, bool]]:
        fids = [Fid(ell, tuple(i)) for ell, idx in enumerate(self.indices) for i in idx.tolist()]
        values = (Fraction(n, d) for nums, d in zip(self.numerators, self.denominators)
                  for n in nums.tolist())
        flags = (f for level in self.flags for f in level.tolist())
        return dict(zip(fids, values)), dict(zip(fids, flags))

    @property
    def values(self) -> dict[Fid, Fraction]:
        return self._views[0]

    @property
    def positive(self) -> dict[Fid, bool]:
        return self._views[1]

    def weight(self, fid: Fid) -> Fraction:
        at = self.defined_positions(fid.level, [fid.indices])[0]
        return Fraction(int(self.numerators[fid.level][at]), self.denominators[fid.level])

    def is_positive(self, fid: Fid) -> bool:
        at = self.defined_positions(fid.level, [fid.indices])[0]
        return bool(self.flags[fid.level][at])

    def defined(self, fid: Fid) -> bool:
        return bool(self.positions(fid.level, [fid.indices])[0] >= 0)


def _no_weight(fid: Fid) -> HierarchyError:
    return HierarchyError(f"no weight for {fid}: it is no function of level {fid.level} "
                          f"with its support in subdomain {fid.level}")


def compute_weights(h: SubdomainHierarchy, levels: Sequence[TensorLevel]) -> WeightMap:
    """Level-by-level weight recursion on integer numerators.

    Level-0 functions carry weight one. A function of the next level whose
    support lies in that level's subdomain collects weighted two-scale
    coefficients from every function of the previous level whose support
    also lies there; its children never leave the subdomain, since
    children supports shrink. Over the common denominator D_ell the
    numerators of level ell+1 are those of the coarse functions inside
    times the numerators of their (parent, child) pairs from
    :func:`tensor_children_arrays`, summed per child, and
    D_{ell+1} = D_ell * q_1 * ... * q_d. Weights lie in [0, 1] and every
    term is nonnegative, so every partial sum is at most D_{ell+1}, the
    bound of their :func:`exact_dtype`; sums of exact integers do not
    depend on their order. A child is positive when one of its parents
    inside is.

    Only the defined functions are stored, a small part of a deep level
    under local refinement.
    """
    grids = subdomain_grids(h, levels)
    indices = marked_array(np.ones(levels[0].num_basis, dtype=bool))
    numerators, denominator = np.ones(len(indices), dtype=np.int64), 1
    flags = numerators > 0
    out = [(indices, numerators, flags, denominator)]
    for ell in range(h.depth - 1):
        inside = grids.supports_inside(ell, ell + 1)[tuple(indices.T)]
        rows, children, factors, q = tensor_children_arrays(
            indices[inside], two_scale_tables(levels[ell], levels[ell + 1]))
        indices = marked_array(grids.supports_inside(ell + 1, ell + 1))
        # canonical order is ascending in the first-direction-fastest keys
        shape = levels[ell + 1].num_basis
        keys = np.ravel_multi_index(tuple(indices.T), shape, order="F")
        child_keys = np.ravel_multi_index(tuple(children.T), shape, order="F")
        slots = np.searchsorted(keys, child_keys)
        # a child past the last key meets the sentinel -1
        escaped = np.append(keys, -1)[slots] != child_keys
        if escaped.any():
            first = children[escaped][child_keys[escaped].argmin()]
            raise InternalInvariantError(
                f"child {Fid(ell + 1, tuple(first.tolist()))} escaped subdomain {ell + 1}")
        terms = _product(numerators[inside][rows], factors)
        denominator *= q
        numerators = np.zeros(len(indices), dtype=exact_dtype(denominator))
        np.add.at(numerators, slots, terms.astype(numerators.dtype))
        flags = np.bincount(slots[flags[inside][rows]], minlength=len(indices)) > 0
        out.append((indices, numerators, flags, denominator))
    return WeightMap(*map(tuple, zip(*out)))


def zero_weights_by_parents(h: SubdomainHierarchy, levels: Sequence[TensorLevel], ell: int,
                            indices, weights: WeightMap) -> np.ndarray:
    """Zero-weight test through the parents instead of the recursion, for
    the rows of an (n, d) array of functions of level ell, 0 < ell < depth.

    A row is True exactly when every parent with a positive weight keeps
    part of its support outside subdomain ell; it must agree with a zero
    numerator. Parents come from the endpoint tests
    (:func:`has_marked_parent`), and supports meet the stored cells in
    :func:`supports_in_cells`. Nothing here reads the two-scale tables or
    the subdomain grids that the recursion uses. The first row that is no
    function of the level, or whose support leaves subdomain ell, is
    refused.
    """
    rows = np.asarray(indices)
    if not 0 < ell < h.depth:
        named = f"{Fid(ell, tuple(rows[0].tolist()))}: " if len(rows) else ""
        raise HierarchyError("level-0 functions always have weight one" if ell == 0 else
                             f"{named}level {ell} is outside 1..{h.depth - 1}")
    fine, coarse = levels[ell], levels[ell - 1]
    off = np.ones(len(rows), dtype=bool) if rows.shape[1:] != (fine.dim,) else \
        ~((rows >= 0) & (rows < fine.num_basis)).all(axis=1)
    if off.any():
        fid = Fid(ell, tuple(rows[off.argmax()].tolist()))
        raise HierarchyError(f"{fid} is outside the function grid {fine.num_basis} "
                             f"of level {ell}")
    if not supports_in_cells(h, levels, ell, ell)[tuple(rows.T)].all():
        raise HierarchyError(
            "characterization applies only to functions supported inside "
            "their level's subdomain")
    positive = weights.indices[ell - 1][weights.numerators[ell - 1] > 0]
    sunk = np.zeros(coarse.num_basis, dtype=bool)
    sunk[tuple(positive.T)] = True
    return ~has_marked_parent(rows, coarse, fine, sunk & supports_in_cells(h, levels, ell - 1, ell))


def supports_in_cells(h: SubdomainHierarchy, levels: Sequence[TensorLevel], level: int,
                      ell: int) -> np.ndarray:
    """Which functions of ``level`` have their support in subdomain ell,
    0 <= ell < depth and level >= ell-1, as a boolean grid over them, by
    the stored cells: every cell of level ell-1 that a support meets,
    carried there by the interval parent maps, must be one of them
    (:func:`boxes_in`). No subdomain grid is read."""
    lv, cells = levels[level], h.subdomain_cells(ell)
    if cells is None:
        return np.ones(lv.num_basis, dtype=bool)
    grid = np.zeros(levels[ell - 1].num_cells, dtype=bool)
    grid[index_arrays(cells, lv.dim)] = True
    # per direction, the first and last interval of each support, in C order
    first, last = zip(*((a[j], b[j]) for (a, b), j in zip(
        (kv.support_intervals for kv in lv.kvs), np.indices(lv.num_basis).reshape(lv.dim, -1))))
    for finer in levels[level:ell - 1:-1]:
        first = [m[a] for m, a in zip(finer.parent_arrays, first)]
        last = [m[b] for m, b in zip(finer.parent_arrays, last)]
    return boxes_in(grid, first, last).reshape(lv.num_basis)


def boxes_in(grid: np.ndarray, first: Sequence[np.ndarray],
             last: Sequence[np.ndarray]) -> np.ndarray:
    """Which boxes of cells meet only marked cells of ``grid``, a boolean
    grid over the cells of one level: box r spans, in direction k, the
    cells first[k][r] to last[k][r]. Every cell of each box is tested,
    the offsets of a narrower box clipped to its last cell."""
    inside = np.ones(len(first[0]), dtype=bool)
    for offsets in itertools.product(*(range(int((b - a).max(initial=0)) + 1)
                                       for a, b in zip(first, last))):
        inside &= grid[tuple(np.minimum(a + o, b) for a, b, o in zip(first, last, offsets))]
    return inside


def zero_weight_by_characterization(h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                                    fid: Fid, weights: WeightMap) -> bool:
    """:func:`zero_weights_by_parents` for one function."""
    return bool(zero_weights_by_parents(h, levels, fid.level, [fid.indices], weights)[0])


# ---------------------------------------------------------------------------
# the two bases

@dataclass(eq=False)
class HierBasis:
    """An active set of functions across levels with their weights.

    Per level, ``selected`` marks the functions that the selection step
    opening the level brought in, and ``active`` those of them still
    active at the end; both are boolean grids over the level's functions.
    Stage k of the selection holds the active functions of the levels
    before k and the selected ones of level k.
    """

    flavor: str
    hierarchy: SubdomainHierarchy
    levels: tuple[TensorLevel, ...]
    selected: tuple[np.ndarray, ...]
    active: tuple[np.ndarray, ...]
    weights: WeightMap

    @functools.cached_property
    def member_set(self) -> frozenset[Fid]:
        return frozenset(self.functions())

    @functools.cached_property
    def stages(self) -> tuple[frozenset[Fid], ...]:
        """Stage k: every function alive after processing subdomain k."""
        stages, before = [], []
        for ell, (selected, active) in enumerate(zip(self.selected, self.active)):
            stages.append(frozenset(before + [Fid(ell, idx) for idx in marked_indices(selected)]))
            before += [Fid(ell, idx) for idx in marked_indices(active)]
        return tuple(stages)

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(m)) for m in self.active)

    def __contains__(self, fid: Fid) -> bool:
        return 0 <= fid.level < len(self.active) and self.levels[fid.level].holds(fid.indices) \
            and bool(self.active[fid.level][fid.indices])

    def functions(self) -> Iterator[Fid]:
        for ell, mask in enumerate(self.active):
            for idx in marked_indices(mask):
                yield Fid(ell, idx)

    def weight(self, fid: Fid) -> Fraction:
        return self.weights.weight(fid)


def _selections(h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                refinable: bool) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Run the recursive selection: per level, the functions selected when
    the level opens and those still active at the end.

    Level 0 opens with its whole basis. Each step removes the functions
    of the newest level whose support sank into the next subdomain, and
    opens the next level with either every function supported there
    (classical) or only the children of the removed ones (refinable).
    Nesting makes deeper subdomains subsets of earlier ones, so a function
    can only sink at the step after the one that opened its level.
    Building the grids first checks the hierarchy.
    """
    grids = subdomain_grids(h, levels)
    selected = [np.ones(levels[0].num_basis, dtype=bool)]
    active = []
    for ell in range(h.depth - 1):
        sunk = selected[ell] & grids.supports_inside(ell, ell + 1)
        active.append(selected[ell] & ~sunk)
        if refinable:
            _, kids, _, _ = tensor_children_arrays(
                marked_array(sunk), two_scale_tables(levels[ell], levels[ell + 1]))
            alive = np.zeros(levels[ell + 1].num_basis, dtype=bool)
            alive[tuple(kids.T)] = True
        else:
            alive = grids.supports_inside(ell + 1, ell + 1)
        selected.append(alive)
    active.append(selected[-1])
    return selected, active


def build_hierarchical_basis(h: SubdomainHierarchy,
                             levels: Sequence[TensorLevel],
                             weights: WeightMap | None = None
                             ) -> tuple[HierBasis, HierarchicalMesh]:
    """The classical basis plus the active-cell mesh."""
    selected, active = _selections(h, levels, refinable=False)
    return _basis(CLASSICAL, h, levels, selected, active, weights), active_mesh(h, levels)


def build_refinable_basis(h: SubdomainHierarchy,
                          levels: Sequence[TensorLevel],
                          weights: WeightMap | None = None) -> HierBasis:
    """The children-only basis; equals the positive-weight part of the
    classical one."""
    return _basis(REFINABLE, h, levels, *_selections(h, levels, refinable=True), weights)


def _basis(flavor: str, h: SubdomainHierarchy, levels: Sequence[TensorLevel],
           selected: list[np.ndarray], active: list[np.ndarray],
           weights: WeightMap | None) -> HierBasis:
    """A basis from its selections, with the weights computed if not given."""
    return HierBasis(flavor, h, tuple(levels[:h.depth]), tuple(selected), tuple(active),
                     compute_weights(h, levels) if weights is None else weights)


# ---------------------------------------------------------------------------
# functions over a basis

@dataclass(eq=False)
class HierSplineFunction:
    """A spline over the active functions of a basis, stored as one
    :class:`LevelSpline` per level of the basis, coarsest first;
    ``coefficients`` is the ``Fid``-keyed dict view, in stored order."""

    basis: HierBasis
    parts: Sequence[LevelSpline]

    @functools.cached_property
    def coefficients(self) -> dict[Fid, Fraction | float]:
        return {Fid(part.level.index, idx): c
                for part in self.parts for idx, c in part.coefficients.items()}

    def evaluate(self, points) -> np.ndarray:
        """The parts with coefficients, summed coarsest first."""
        total = _summed(part.evaluate(points) for part in self.parts if len(part.values))
        return np.zeros(len(as_points(points, self.basis.levels[0].dim))) \
            if total is None else total

    def on_grid(self, axes) -> np.ndarray:
        """The parts with coefficients on c tensor grids (see
        :meth:`LevelSpline.on_grid`), summed coarsest first."""
        total = _summed(part.on_grid(axes) for part in self.parts if len(part.values))
        if total is None:
            axes = as_axes(axes, self.basis.levels[0].dim)
            total = np.zeros((len(axes[0]),) + tuple(a.shape[1] for a in reversed(axes)))
        return total

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)


def _summed(arrays):
    """The new arrays summed in order into the first, each made when the
    sum reaches it, so that at most two are alive; None if there are none."""
    total = None
    for v in arrays:
        total = v if total is None else np.add(total, v, out=total)
    return total


def partition_of_unity(basis: HierBasis) -> HierSplineFunction:
    """The weighted combination of active functions that sums to one."""
    w, parts = basis.weights, []
    for ell, (lv, mask) in enumerate(zip(basis.levels, basis.active)):
        idx = marked_array(mask)
        numerators = w.numerators[ell][w.defined_positions(ell, idx)]
        parts.append(LevelSpline(lv, idx, np.array(
            [Fraction(n, w.denominators[ell]) for n in numerators.tolist()], dtype=object)))
    return HierSplineFunction(basis, parts)


def express_over(coefficients: Mapping[Fid, Fraction | float],
                 basis: HierBasis) -> dict[Fid, Fraction | float]:
    """Write a combination of level functions over the active ones.

    The coefficients are grouped into per-level index and value arrays,
    in the order given, for :func:`express_arrays`; a level's values are
    float64 when all of them are floats, else Python objects of the types
    given. A function that is neither active nor deactivated, or is no
    function of its level, raises.
    """
    h = basis.hierarchy
    grouped: list[dict[Index, Fraction | float]] = [{} for _ in range(h.depth)]
    for fid, c in coefficients.items():
        if not 0 <= fid.level < h.depth:
            raise _neither(fid)
        grouped[fid.level][fid.indices] = c
    # an index of another length is no function of the level
    pending = [(np.array([i if len(i) == lv.dim else (-1,) * lv.dim for i in row],
                         dtype=np.int64).reshape(-1, lv.dim),
                np.array(list(row.values()),
                         dtype=float if all(type(c) is float for c in row.values()) else object))
               for lv, row in zip(basis.levels, grouped)]
    parts = express_arrays(pending, basis, [list(row) for row in grouped])
    return HierSplineFunction(basis, parts).coefficients


def _neither(fid: Fid) -> HierarchyError:
    return HierarchyError(f"{fid} is neither active nor deactivated in this basis")


def express_arrays(pending: Sequence[tuple[np.ndarray, np.ndarray]], basis: HierBasis,
                   names: Sequence[Sequence[Index]] | None = None,
                   sources: Sequence[np.ndarray] | None = None) -> list:
    """Write per-level coefficients over the active functions of a basis,
    one :class:`LevelSpline` per level.

    ``pending[ell]`` holds the coefficients of level ell as an (n, d)
    index array and an (n,) value array. One sweep, coarsest level first,
    keeps the entries of active functions and passes those of deactivated
    ones, whose support sank into the next subdomain, to their children on
    the next level times the two-scale coefficients n/q, read from the
    slot arrays of the two-scale tables. A level's
    entries run in the order received, then the children added, in the
    order first reached; the first contribution to a new child is
    assigned (a -0.0 stays -0.0), later ones are added in parent order.
    A float value is multiplied by the float nearest n/q
    (:func:`nearest_floats`), which is what a product with the
    coefficient's Fraction gives.

    Exact values (ints and Fractions) stay exact. Every exact value the
    sweep meets on level ell is a multiple of 1/D_ell, where D_0 is the lcm
    of the denominators given and D_{ell+1} = D_ell * q, so a level whose
    values are all exact carries integer numerators over D_ell: they are
    scaled and merged by the same array operations as floats, each in the
    :func:`exact_dtype` of a bound on their size. Fractions are made only
    for the kept entries that children reached; a received entry no child
    reached keeps its own object, so an int stays an int. A level that
    mixes floats and exact values works on the objects one by one, as
    Python's arithmetic does.

    ``sources[ell]``, when given, labels each entry of ``pending[ell]``
    with its source, the row of a sparse coefficient matrix, and a child
    takes its parent's source. Entries merge on (source, function), so
    one sweep writes every row, each as a call with that row alone writes
    it: within a source a level's entries keep that call's order. The
    values must then be exact, and each level comes back as the kept
    entries' indices, sources and numerators over D_ell, and D_ell; no
    Fraction is made. Without ``sources`` every entry has one source.

    The first entry that is neither active nor deactivated, or is no
    function of its level, raises, named by ``names[ell][k]`` for the k-th
    received entry when given. Of several sources, the entry named is the
    one of the lowest source that refuses, at that source's coarsest
    refusing level, as a call on that source alone names it: a refusal is
    raised after the last level, the sources swept on.
    """
    levels = basis.levels
    grids = subdomain_grids(basis.hierarchy, levels)
    denominator = math.lcm(*(v.denominator for _, values in pending if values.dtype == object
                             for v in values.tolist() if isinstance(v, Fraction)))
    out, children, exact_terms, refusal = [], None, False, None
    for ell, (lv, active, (indices, values)) in enumerate(zip(levels, basis.active, pending)):
        labels = np.zeros(len(indices), np.int64) if sources is None else sources[ell]
        inside = ((indices >= 0) & (indices < active.shape)).all(axis=1)
        numerators = None
        if children is not None:
            both, mine = np.concatenate([indices, children]), np.concatenate([labels, born])
            inside = np.concatenate([inside, np.ones(len(children), dtype=bool)])
            # an entry outside the grid merges with none
            keys = np.where(inside, mine * active.size + np.ravel_multi_index(
                tuple(np.where(inside, both.T, 0)), active.shape, order="F"),
                -1 - np.arange(len(both)))
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            # slots in the order of first appearance: the received entries
            # are distinct and keep theirs, the new children follow
            slots = np.argsort(np.argsort(first))[inverse][len(indices):]
            firsts = first[inverse] == np.arange(len(both))
            new = firsts[len(indices):]
            if exact_terms and _all_exact(values):
                numerators = _merged(_numerators(values, denominator), terms, slots, new)
                reached = np.zeros(len(numerators), dtype=bool)
                reached[len(values):] = True
                reached[slots] = True
                values = np.concatenate([values.astype(object), np.empty(int(new.sum()), object)])
            else:
                if exact_terms:
                    terms = np.array([Fraction(t, denominator) for t in terms.tolist()],
                                     dtype=object)
                values = np.concatenate([values, terms[new]])
                np.add.at(values, slots[~new], terms[~new])
            indices, labels, inside = both[firsts], mine[firsts], inside[firsts]
        at = tuple(np.where(inside, indices.T, 0))
        keep = inside & active[at]
        sunk = inside & ~keep & grids.supports_inside(ell, ell + 1)[at]
        refused = ~(keep | sunk)
        if refused.any():
            k = int(np.flatnonzero(refused)[labels[refused].argmin()])
            if refusal is None or labels[k] < refusal[0]:
                fid = Fid(ell, names[ell][k] if names and k < len(names[ell])
                          else tuple(indices[k].tolist()))
                refusal = labels[k], _neither(fid) if inside[k] else HierarchyError(
                    f"{fid} is outside the function grid {active.shape} of level {ell}")
        if sources is not None:
            kept = numerators[keep] if numerators is not None else \
                _numerators(values[keep], denominator)
            out.append((indices[keep], labels[keep], kept, denominator))
        else:
            if numerators is not None:
                made = keep & reached
                values[made] = [Fraction(n, denominator) for n in numerators[made].tolist()]
            out.append(LevelSpline(lv, indices[keep], values[keep]))
        children = None
        # none sinks on the deepest level: its next subdomain is empty
        if sunk.any():
            rows, children, factors, q = tensor_children_arrays(
                indices[sunk], two_scale_tables(lv, levels[ell + 1]))
            born = labels[sunk][rows]
            exact_terms = numerators is not None or _all_exact(values[sunk])
            if exact_terms:
                coarse = numerators[sunk] if numerators is not None else \
                    _numerators(values[sunk], denominator)
                terms = _product(coarse[rows], factors)
            elif values.dtype == object:
                terms = np.array([c * (n / q) if isinstance(c, float) else c * Fraction(n, q)
                                  for c, n in zip(values[sunk][rows].tolist(),
                                                  factors.tolist())], dtype=object)
            else:
                terms = values[sunk][rows] * nearest_floats(factors, q)
            denominator *= q
    if refusal is not None:
        raise refusal[1]
    return out


def _all_exact(values: np.ndarray) -> bool:
    """Are all the values ints or Fractions (true of none)?"""
    return not len(values) or values.dtype == object and all(
        isinstance(v, (int, Fraction)) for v in values.tolist())


def _numerators(values: np.ndarray, denominator: int) -> np.ndarray:
    """The numerators over ``denominator`` of exact values whose own
    denominators divide it."""
    nums = [v.numerator * (denominator // v.denominator) for v in values.tolist()]
    return np.array(nums, dtype=exact_dtype(max(map(abs, nums), default=0)))


def _bound(numbers: np.ndarray) -> int:
    return int(np.abs(numbers).max(initial=0))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, in the dtype of the product of their bounds."""
    dtype = exact_dtype(_bound(a) * _bound(b))
    return a.astype(dtype) * b.astype(dtype)


def _merged(received: np.ndarray, terms: np.ndarray, slots: np.ndarray,
            new: np.ndarray) -> np.ndarray:
    """The received numerators, then those of the new children, with the
    other terms added into their slots: as the float merge does, in the
    dtype of the received plus all terms' magnitudes."""
    dtype = exact_dtype(_bound(received) + len(terms) * _bound(terms))
    merged = np.concatenate([received.astype(dtype), terms[new].astype(dtype)])
    np.add.at(merged, slots[~new], terms[~new].astype(dtype))
    return merged


def expand_deactivated(fid: Fid, basis: HierBasis) -> dict[Fid, Fraction]:
    """Write a deactivated function exactly over the active ones of finer
    levels; an active function is returned as itself."""
    return express_over({fid: Fraction(1)}, basis)


# ---------------------------------------------------------------------------
# enlargement

def enlarge_hierarchy(h: SubdomainHierarchy,
                      levels: Sequence[TensorLevel],
                      additions: Mapping[int, Iterable[Index]] | None = None,
                      new_deepest: Iterable[Index] | None = None
                      ) -> SubdomainHierarchy:
    """Grow subdomains cell-wise and optionally open one deeper level.

    ``additions`` maps subdomain index (1..depth-1) to extra cells at that
    subdomain's granularity. ``new_deepest`` supplies the cells (at level
    depth-1) of a new deepest subdomain. The result is validated; weights
    recomputed on it never decrease and the refinable space only grows.
    """
    additions = dict(additions or {})
    n = h.depth
    subs = [set(s) for s in h.subdomains]
    for ell, cells in additions.items():
        if not 1 <= ell <= n - 1:
            raise HierarchyError(
                f"additions level {ell} outside 1..{n - 1}; use new_deepest "
                "for a deeper subdomain")
        subs[ell - 1].update(tuple(c) for c in cells)
    deepest = {tuple(c) for c in new_deepest} if new_deepest else set()
    if deepest:
        subs.append(deepest)
    enlarged = SubdomainHierarchy.from_cells(subs)
    checked_levels = extend_level_sequence(levels, enlarged.depth)
    validate_hierarchy(enlarged, checked_levels)
    for ell in range(1, h.depth):
        if not h.subdomains[ell - 1] <= enlarged.subdomain_cells(ell):
            raise InternalInvariantError("enlargement lost cells")
    return enlarged
