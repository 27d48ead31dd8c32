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
level by level (:func:`express_arrays`); a :class:`HierSplineFunction`
holds one such spline per level, and the ``Fid``-keyed ``coefficients``
dicts of it and of :func:`express_over` are views derived from them.

Partition-of-unity weights are exact rationals and positivity is decided
structurally (does the function inherit from a positive deactivated
parent?), never by comparing a float against zero. Subdomains are closed
unions of cells of the previous level, so the whole construction can be
rebuilt from the active cells alone; :mod:`hiersplines.fixtures` round
trips that.

Containment, weights and selections are computed for whole levels.
Each subdomain is a boolean grid over the previous level's cells
(:class:`SubdomainGrids`), and which supports, cells or support
extensions of a level lie in it is one box query per level. Weights and
selections are per-level grids carried down through the integer
two-scale tables of :func:`hiersplines.univariate.two_scale_table`;
Fractions appear only in the results. The scalar queries
(:func:`support_in_subdomain`, :func:`cell_in_subdomain`) and the sweep
look up the same cached level answers.

The results are stored as per-level boolean grids too: the active cells
of a :class:`HierarchicalMesh`, and the selected and active functions of
a :class:`HierBasis`. Their tuple and frozenset views (``active``,
``members_by_level``, ``member_set``, ``stages``) are derived on first
use, for readers that want cells or function ids one by one.
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
    cell_ancestor,
    extend_level_sequence,
    index_arrays,
    iter_box,
    marked_array,
    marked_indices,
    tensor_children_arrays,
    tensor_parents,
    two_scale_tables,
)

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
                if len(c) != len(shape) or any(not 0 <= j < n for j, n in zip(c, shape)):
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
    cells = h.subdomain_cells(ell)
    if cells is None:
        return True
    if not cells:
        return False
    if level < ell - 1:
        raise HierarchyError("function coarser than the subdomain's granularity")
    return bool(subdomain_grids(h, levels).supports_inside(level, ell)[indices])


def _support_in_cells(h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                      level: int, indices: Index, ell: int) -> bool:
    """:func:`support_in_subdomain` through :func:`cell_ancestor` and the
    stored cell set, with no grid; a route independent of the grids.

    Ancestor maps are monotone and onto, so the support's interval ranges
    map to the ranges between their endpoints' ancestors.
    """
    cells = h.subdomain_cells(ell)
    if cells is None:
        return True
    ranges = levels[level].function_cell_ranges(indices)
    lo = cell_ancestor(levels, level, ell - 1, tuple(r.start for r in ranges))
    hi = cell_ancestor(levels, level, ell - 1, tuple(r.stop - 1 for r in ranges))
    return all(c in cells for c in iter_box([range(a, b + 1) for a, b in zip(lo, hi)]))


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
        contracted with each direction's interval lengths, as integer
        numerators over the lcm of the breakpoints' denominators."""
        vol = Fraction(0)
        for lv, mask in zip(self.levels, self.masks):
            total, denominator = mask.astype(object), 1
            # the last axis first: each product contracts it
            for kv in reversed(lv.kvs):
                bps = kv.breakpoints.values
                d = math.lcm(*(b.denominator for b in bps))
                total = total @ np.diff(np.array([b.numerator * (d // b.denominator)
                                                  for b in bps], dtype=object))
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
    subdomain, together with the structural positivity flag."""

    values: dict[Fid, Fraction]
    positive: dict[Fid, bool]

    def weight(self, fid: Fid) -> Fraction:
        return self.values[fid]

    def is_positive(self, fid: Fid) -> bool:
        return self.positive[fid]

    def defined(self, fid: Fid) -> bool:
        return fid in self.values


def compute_weights(h: SubdomainHierarchy, levels: Sequence[TensorLevel]) -> WeightMap:
    """Level-by-level weight recursion on integer numerators.

    Level-0 functions carry weight one. A function of the next level whose
    support lies in that level's subdomain collects weighted two-scale
    coefficients from every function of the previous level whose support
    also lies there; its children never leave the subdomain, since
    children supports shrink. Over the common denominator D_ell the
    numerators of level ell+1 are those of the coarse functions inside,
    multiplied along each direction by the integer two-scale table, and
    D_{ell+1} = D_ell * q_1 * ... * q_d. Weights lie in [0, 1] and every
    term is nonnegative, so every partial sum is at most D_{ell+1}: int64
    holds them below 2**62, Python ints beyond. Positivity is the pattern
    image of the positive coarse functions inside.

    The arrays cover only the bounding box of the functions involved, a
    small part of a deep level under local refinement.
    """
    grids = subdomain_grids(h, levels)
    values: dict[Fid, Fraction] = {}
    positive: dict[Fid, bool] = {}
    everything = np.ones(levels[0].num_basis, dtype=bool)
    box = _bounding_box(everything)
    numerators = everything.astype(np.int64)
    flags = everything
    denominator = 1
    _record_weights(values, positive, 0, everything, box, numerators, flags, denominator)
    for ell in range(h.depth - 1):
        tables = two_scale_tables(levels[ell], levels[ell + 1])
        coarse_inside = grids.supports_inside(ell, ell + 1)
        fine_inside = grids.supports_inside(ell + 1, ell + 1)
        sub = _bounding_box(coarse_inside)
        mask = coarse_inside[sub]
        denominator *= math.prod(tab.denominator for tab in tables)
        dtype = np.int64 if denominator < 2 ** 62 else object
        coarse = np.where(mask, _crop(numerators, box, sub), 0).astype(dtype)
        flags = _window_image(mask & _crop(flags, box, sub), sub, tables)[1]
        numerators = _window_image(coarse, sub, tables)[1]
        box, reached = _window_image(mask, sub, tables)
        escaped = marked_indices(reached & ~fine_inside[box])
        if escaped:
            idx = tuple(b.start + j for b, j in zip(box, escaped[0]))
            raise InternalInvariantError(
                f"child {Fid(ell + 1, idx)} escaped subdomain {ell + 1}")
        _record_weights(values, positive, ell + 1, fine_inside, box, numerators, flags,
                        denominator)
    return WeightMap(values, positive)


def _bounding_box(mask: np.ndarray) -> tuple[slice, ...]:
    """Per direction, the index range of the True entries (empty if none)."""
    out = []
    for axis in range(mask.ndim):
        hit = np.flatnonzero(mask.any(axis=tuple(a for a in range(mask.ndim) if a != axis)))
        out.append(slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0))
    return tuple(out)


def _crop(window: np.ndarray, box: tuple[slice, ...], sub: tuple[slice, ...]) -> np.ndarray:
    """The entries in ``sub`` of an array covering ``box``, zero outside it."""
    out = np.zeros(tuple(s.stop - s.start for s in sub), dtype=window.dtype)
    src, dst = [], []
    for b, s in zip(box, sub):
        lo, hi = max(b.start, s.start), min(b.stop, s.stop)
        if lo >= hi:
            return out
        src.append(slice(lo - b.start, hi - b.start))
        dst.append(slice(lo - s.start, hi - s.start))
    out[tuple(dst)] = window[tuple(src)]
    return out


def _window_image(window: np.ndarray, box: tuple[slice, ...], tables
                  ) -> tuple[tuple[slice, ...], np.ndarray]:
    """An array over ``box`` of one level carried to the next through the
    two-scale tables of every direction, with the box it then covers
    (boolean: the children of the marked functions)."""
    out_box = []
    for axis, (tab, s) in enumerate(zip(tables, box)):
        first, window = tab.image(window, axis, s.start)
        out_box.append(slice(first, first + window.shape[axis]))
    return tuple(out_box), window


def _record_weights(values: dict, positive: dict, ell: int, defined: np.ndarray,
                    box: tuple[slice, ...], numerators: np.ndarray, flags: np.ndarray,
                    denominator: int) -> None:
    """Enter the weights of the defined functions of a level, canonical
    order; ``numerators`` and ``flags`` cover ``box``."""
    sub = _bounding_box(defined)
    inside = defined[sub].T
    nums = _crop(numerators, box, sub).T[inside].tolist()
    pos = _crop(flags, box, sub).T[inside].tolist()
    for idx, n, f in zip(marked_indices(defined), nums, pos):
        fid = Fid(ell, idx)
        values[fid] = Fraction(n, denominator)
        positive[fid] = f


def zero_weight_by_characterization(h: SubdomainHierarchy,
                                    levels: Sequence[TensorLevel],
                                    fid: Fid,
                                    weights: WeightMap,
                                    sunk: dict[Fid, bool] | None = None) -> bool:
    """Zero-weight test through the parents instead of the recursion.

    True exactly when every parent with a defined positive weight keeps
    part of its support outside the function's subdomain. Must agree with
    ``weights.weight(fid) == 0``. Parents come from the endpoint tests and
    supports are checked cell by cell, so nothing here reads the two-scale
    tables or the subdomain grids that the recursion uses. ``sunk`` keeps
    the parents' support tests: one dict passed to the calls on the
    functions of one hierarchy tests each parent once.
    """
    ell = fid.level
    if ell == 0:
        raise HierarchyError("level-0 functions always have weight one")
    if not _support_in_cells(h, levels, ell, fid.indices, ell):
        raise HierarchyError(
            "characterization applies only to functions supported inside "
            "their level's subdomain")
    sunk = {} if sunk is None else sunk
    for p_idx in tensor_parents(fid.indices, levels[ell - 1], levels[ell]):
        parent = Fid(ell - 1, p_idx)
        if not weights.defined(parent) or weights.weight(parent) <= 0:
            continue
        if parent not in sunk:
            sunk[parent] = _support_in_cells(h, levels, ell - 1, p_idx, ell)
        if sunk[parent]:
            return False
    return True


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
    def members_by_level(self) -> tuple[tuple[Index, ...], ...]:
        return tuple(tuple(marked_indices(m)) for m in self.active)

    @functools.cached_property
    def member_set(self) -> frozenset[Fid]:
        return frozenset(self.functions())

    @functools.cached_property
    def stages(self) -> tuple[frozenset[Fid], ...]:
        """Stage k: every function alive after processing subdomain k."""
        stages, before = [], []
        for ell, (mask, members) in enumerate(zip(self.selected, self.members_by_level)):
            stages.append(frozenset(before + [Fid(ell, idx) for idx in marked_indices(mask)]))
            before += [Fid(ell, idx) for idx in members]
        return tuple(stages)

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(m)) for m in self.active)

    def __contains__(self, fid: Fid) -> bool:
        return 0 <= fid.level < len(self.active) \
            and _in_grid(fid.indices, self.active[fid.level].shape) \
            and bool(self.active[fid.level][fid.indices])

    def functions(self) -> Iterator[Fid]:
        for ell, ids in enumerate(self.members_by_level):
            for idx in ids:
                yield Fid(ell, idx)

    def weight(self, fid: Fid) -> Fraction:
        return self.weights.weight(fid)


def _in_grid(indices: Index, shape: tuple[int, ...]) -> bool:
    return len(indices) == len(shape) and all(0 <= j < n for j, n in zip(indices, shape))


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
    """
    grids = subdomain_grids(h, levels)
    selected = [np.ones(levels[0].num_basis, dtype=bool)]
    active = []
    for ell in range(h.depth - 1):
        sunk = selected[ell] & grids.supports_inside(ell, ell + 1)
        active.append(selected[ell] & ~sunk)
        if refinable:
            sub = _bounding_box(sunk)
            box, kids = _window_image(sunk[sub], sub,
                                      two_scale_tables(levels[ell], levels[ell + 1]))
            alive = np.zeros(levels[ell + 1].num_basis, dtype=bool)
            alive[box] = kids
        else:
            alive = grids.supports_inside(ell + 1, ell + 1)
        selected.append(alive)
    active.append(selected[-1])
    return selected, active


def _closed_form_classical(h: SubdomainHierarchy,
                           levels: Sequence[TensorLevel]) -> list[np.ndarray]:
    grids = subdomain_grids(h, levels)
    return [grids.supports_inside(ell, ell) & ~grids.supports_inside(ell, ell + 1)
            for ell in range(h.depth)]


def build_hierarchical_basis(h: SubdomainHierarchy,
                             levels: Sequence[TensorLevel],
                             weights: WeightMap | None = None
                             ) -> tuple[HierBasis, HierarchicalMesh]:
    """The classical basis plus the active-cell mesh.

    Both the recursive selection and the closed-form level-wise selection
    are computed; disagreement means corrupt input or a bug, so it raises.
    """
    validate_hierarchy(h, levels)
    selected, active = _selections(h, levels, refinable=False)
    if not all(map(np.array_equal, active, _closed_form_classical(h, levels))):
        raise InternalInvariantError(
            "recursive and closed-form selections disagree")
    if weights is None:
        weights = compute_weights(h, levels)
    basis = HierBasis(CLASSICAL, h, tuple(levels[:h.depth]), tuple(selected), tuple(active),
                      weights)
    return basis, active_mesh(h, levels)


def build_refinable_basis(h: SubdomainHierarchy,
                          levels: Sequence[TensorLevel],
                          weights: WeightMap | None = None) -> HierBasis:
    """The children-only basis; equals the positive-weight part of the
    classical one."""
    validate_hierarchy(h, levels)
    selected, active = _selections(h, levels, refinable=True)
    if weights is None:
        weights = compute_weights(h, levels)
    return HierBasis(REFINABLE, h, tuple(levels[:h.depth]), tuple(selected), tuple(active),
                     weights)


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
    return HierSplineFunction(basis, [
        LevelSpline(lv, marked_array(mask), np.array(
            [basis.weight(Fid(ell, idx)) for idx in marked_indices(mask)], dtype=object))
        for ell, (lv, mask) in enumerate(zip(basis.levels, basis.active))])


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
                   names: Sequence[Sequence[Index]] | None = None) -> list[LevelSpline]:
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
    A float value is multiplied by the float nearest n/q, which is what a
    product with the coefficient's Fraction gives, and which int64
    division gives while q < 2**53.

    Exact values (ints and Fractions) stay exact. Every exact value the
    sweep meets on level ell is a multiple of 1/D_ell, where D_0 is the lcm
    of the denominators given and D_{ell+1} = D_ell * q, so a level whose
    values are all exact carries integer numerators over D_ell: they are
    scaled and merged by the same array operations as floats, in int64
    while a bound on their size stays below 2**63 and as Python ints
    beyond. Fractions are made only for the kept entries that children
    reached; a received entry no child reached keeps its own object, so an
    int stays an int. A level that mixes floats and exact values works on
    the objects one by one, as Python's arithmetic does.

    The first entry that is neither active nor deactivated, or is no
    function of its level, raises, named by ``names[ell][k]`` for the k-th
    received entry when given.
    """
    levels = basis.levels
    grids = subdomain_grids(basis.hierarchy, levels)
    denominator = math.lcm(*(v.denominator for _, values in pending if values.dtype == object
                             for v in values.tolist() if isinstance(v, Fraction)))
    out, children, exact_terms = [], None, False
    for ell, (lv, active, (indices, values)) in enumerate(zip(levels, basis.active, pending)):
        inside = ((indices >= 0) & (indices < active.shape)).all(axis=1)
        numerators = None
        # an entry outside the grid refuses the level before any child is reached
        if children is not None and inside.all():
            both = np.concatenate([indices, children])
            keys = np.ravel_multi_index(tuple(both.T), active.shape, order="F")
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            # slots in the order of first appearance: the received entries
            # are distinct and keep theirs, the new children follow
            slots = np.argsort(np.argsort(first))[inverse][len(indices):]
            new = (first[inverse] == np.arange(len(both)))[len(indices):]
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
            indices = np.concatenate([indices, children[new]])
            inside = np.ones(len(indices), dtype=bool)
        at = tuple(np.where(inside, indices.T, 0))
        keep = inside & active[at]
        sunk = inside & ~keep & grids.supports_inside(ell, ell + 1)[at]
        refused = ~(keep | sunk)
        if refused.any():
            k = int(refused.argmax())
            fid = Fid(ell, names[ell][k] if names and k < len(names[ell])
                      else tuple(indices[k].tolist()))
            raise _neither(fid) if inside[k] else HierarchyError(
                f"{fid} is outside the function grid {active.shape} of level {ell}")
        if numerators is not None:
            made = keep & reached
            values[made] = [Fraction(n, denominator) for n in numerators[made].tolist()]
        out.append(LevelSpline(lv, indices[keep], values[keep]))
        children = None
        # none sinks on the deepest level: its next subdomain is empty
        if sunk.any():
            rows, children, factors, q = tensor_children_arrays(
                indices[sunk], two_scale_tables(lv, levels[ell + 1]))
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
                terms = values[sunk][rows] * (
                    factors / q if q < 2 ** 53 else np.array([n / q for n in factors.tolist()]))
            denominator *= q
    return out


def _all_exact(values: np.ndarray) -> bool:
    """Are all the values ints or Fractions (true of none)?"""
    return not len(values) or values.dtype == object and all(
        isinstance(v, (int, Fraction)) for v in values.tolist())


def _numerators(values: np.ndarray, denominator: int) -> np.ndarray:
    """The numerators over ``denominator`` of exact values whose own
    denominators divide it: int64 when all fit, else Python ints."""
    nums = [v.numerator * (denominator // v.denominator) for v in values.tolist()]
    fits = not nums or max(map(abs, nums)) < 2 ** 63
    return np.array(nums, dtype=np.int64 if fits else object)


def _bound(numbers: np.ndarray) -> int:
    return int(np.abs(numbers).max(initial=0))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, in int64 while the bound fits."""
    if a.dtype == b.dtype == np.int64 and _bound(a) * _bound(b) < 2 ** 63:
        return a * b
    return a.astype(object) * b.astype(object)


def _merged(received: np.ndarray, terms: np.ndarray, slots: np.ndarray,
            new: np.ndarray) -> np.ndarray:
    """The received numerators, then those of the new children, with the
    other terms added into their slots: as the float merge does, in int64
    while the received plus all terms' magnitudes stay below 2**63."""
    exact = received.dtype == terms.dtype == np.int64 and \
        _bound(received) + len(terms) * _bound(terms) < 2 ** 63
    dtype = np.int64 if exact else object
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
