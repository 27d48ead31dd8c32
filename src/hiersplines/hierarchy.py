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

Partition-of-unity weights are exact rationals and positivity is decided
structurally (does the function inherit from a positive deactivated
parent?), never by comparing a float against zero. Subdomains are closed
unions of cells of the previous level, so the whole construction can be
rebuilt from the active cells alone; :mod:`hiersplines.fixtures` round
trips that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import HierarchyError, InternalInvariantError
from .tensor import (
    CellSet,
    Index,
    TensorFunctionId,
    TensorLevel,
    cell_ancestor,
    cell_descendant_ranges,
    extend_level_sequence,
    id_sort_key,
    iter_box,
    level_evaluator,
    tensor_children,
    tensor_parents,
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

    def cellset(self, ell: int) -> CellSet:
        cells = self.subdomain_cells(ell)
        if cells is None:
            raise HierarchyError("subdomain 0 is the whole domain")
        return CellSet(ell - 1, cells)


def validate_hierarchy(h: SubdomainHierarchy, levels: Sequence[TensorLevel]) -> None:
    """Check cell indices and the nesting chain; raise HierarchyError if bad."""
    if len(levels) < h.depth:
        raise HierarchyError(
            f"hierarchy of depth {h.depth} needs {h.depth} levels, "
            f"got {len(levels)}")
    for ell in range(1, h.depth):
        grid = levels[ell - 1].num_cells
        for c in h.subdomains[ell - 1]:
            if len(c) != len(grid) or any(not 0 <= j < n for j, n in zip(c, grid)):
                raise HierarchyError(
                    f"subdomain {ell}: cell {c} out of range for level "
                    f"{ell - 1} grid {grid}")
    for ell in range(1, h.depth - 1):
        outer = h.subdomains[ell - 1]
        inner = h.subdomains[ell]
        for c in inner:
            if cell_ancestor(levels, ell, ell - 1, c) not in outer:
                raise HierarchyError(
                    f"hierarchy nesting violated: cell {c} of subdomain "
                    f"{ell + 1} is not inside subdomain {ell}")


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
    return cell_ancestor(levels, level, ell - 1, indices) in cells


def support_in_subdomain(h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                         level: int, indices: Index, ell: int) -> bool:
    """Is the support of function ``indices`` of ``level`` inside subdomain ell?

    Requires level >= ell-1, like :func:`cell_in_subdomain`. Ancestor maps
    are monotone and onto, so the support's interval ranges map to the
    ranges between their endpoints' ancestors.
    """
    cells = h.subdomain_cells(ell)
    if cells is None:
        return True
    if not cells:
        return False
    if level < ell - 1:
        raise HierarchyError("function coarser than the subdomain's granularity")
    ranges = levels[level].function_cell_ranges(indices)
    if level > ell - 1:
        lo = cell_ancestor(levels, level, ell - 1, tuple(r.start for r in ranges))
        hi = cell_ancestor(levels, level, ell - 1, tuple(r.stop - 1 for r in ranges))
        ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    for c in iter_box(ranges):
        if c not in cells:
            return False
    return True


def _functions_with_support_in(h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                               level: int, ell: int) -> list[Index]:
    """All functions of ``level`` whose support lies in subdomain ``ell``.

    Scans only the window of functions whose support fits the subdomain's
    bounding box.
    """
    cells = h.subdomain_cells(ell)
    if cells is None:
        return sorted(levels[level].function_ids(), key=id_sort_key)
    if not cells:
        return []
    lv = levels[level]
    base = levels[ell - 1]
    lo = [min(c[i] for c in cells) for i in range(lv.dim)]
    hi = [max(c[i] for c in cells) for i in range(lv.dim)]
    box = []
    for i in range(lv.dim):
        cao = base.kvs[i].intervals[lo[i]]
        cah = base.kvs[i].intervals[hi[i]]
        box.append((cao.left, cah.right))
    candidates = lv.functions_supported_in_box(box)
    out = []
    for idx in iter_box(candidates):
        if support_in_subdomain(h, levels, level, idx, ell):
            out.append(idx)
    return out


# ---------------------------------------------------------------------------
# hierarchical mesh

@dataclass(frozen=True)
class HierarchicalMesh:
    """Active cells per level; they tile the domain with disjoint interiors."""

    levels: tuple[TensorLevel, ...]
    active: tuple[tuple[Index, ...], ...]

    def cells(self) -> Iterator[tuple[int, Index]]:
        for ell, cells in enumerate(self.active):
            for c in cells:
                yield ell, c

    def cell_count(self) -> int:
        return sum(len(c) for c in self.active)

    def total_volume(self) -> Fraction:
        vol = Fraction(0)
        for ell, c in self.cells():
            vol += self.levels[ell].cell_volume(c)
        return vol


def active_cells_per_level(h: SubdomainHierarchy,
                           levels: Sequence[TensorLevel]) -> list[list[Index]]:
    out: list[list[Index]] = []
    for ell in range(h.depth):
        inner = h.subdomain_cells(ell + 1)
        if ell == 0:
            pool: Iterable[Index] = levels[0].cell_ids()
        else:
            cells = h.subdomain_cells(ell)
            pool_set: set[Index] = set()
            for c in cells:
                pool_set.update(iter_box(cell_descendant_ranges(levels, ell - 1, ell, c)))
            pool = pool_set
        active = [c for c in pool if c not in inner]
        out.append(sorted(active, key=id_sort_key))
    return out


def active_mesh(h: SubdomainHierarchy, levels: Sequence[TensorLevel]) -> HierarchicalMesh:
    return HierarchicalMesh(tuple(levels[:h.depth]), tuple(
        tuple(c) for c in active_cells_per_level(h, levels)))


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
    """Level-by-level weight recursion.

    Level-0 functions carry weight one. A function of the next level whose
    support lies in that level's subdomain collects weighted two-scale
    coefficients from every function of the previous level whose support
    also lies there. Scattering from those coarse functions reaches exactly
    the required sums because children supports shrink.
    """
    validate_hierarchy(h, levels)
    values: dict[Fid, Fraction] = {}
    positive: dict[Fid, bool] = {}
    for idx in levels[0].function_ids():
        fid = Fid(0, idx)
        values[fid] = Fraction(1)
        positive[fid] = True
    for ell in range(h.depth - 1):
        coarse_inside = _functions_with_support_in(h, levels, ell, ell + 1)
        fine_inside = _functions_with_support_in(h, levels, ell + 1, ell + 1)
        for idx in fine_inside:
            fid = Fid(ell + 1, idx)
            values[fid] = Fraction(0)
            positive[fid] = False
        for idx in coarse_inside:
            src = Fid(ell, idx)
            w = values[src]
            pos = positive[src]
            for child_idx, c in tensor_children(idx, levels[ell], levels[ell + 1]):
                dst = Fid(ell + 1, child_idx)
                if dst not in values:
                    raise InternalInvariantError(
                        f"child {dst} escaped subdomain {ell + 1}")
                values[dst] += w * c
                positive[dst] = positive[dst] or pos
    return WeightMap(values, positive)


def zero_weight_by_characterization(h: SubdomainHierarchy,
                                    levels: Sequence[TensorLevel],
                                    fid: Fid,
                                    weights: WeightMap) -> bool:
    """Zero-weight test through the parents instead of the recursion.

    True exactly when every parent with a defined positive weight keeps
    part of its support outside the function's subdomain. Must agree with
    ``weights.weight(fid) == 0``.
    """
    ell = fid.level
    if ell == 0:
        raise HierarchyError("level-0 functions always have weight one")
    if not support_in_subdomain(h, levels, ell, fid.indices, ell):
        raise HierarchyError(
            "characterization applies only to functions supported inside "
            "their level's subdomain")
    for p_idx in tensor_parents(fid.indices, levels[ell - 1], levels[ell]):
        parent = Fid(ell - 1, p_idx)
        if not weights.defined(parent) or weights.weight(parent) <= 0:
            continue
        if support_in_subdomain(h, levels, ell - 1, p_idx, ell):
            return False
    return True


# ---------------------------------------------------------------------------
# the two bases

@dataclass(eq=False)
class HierBasis:
    """An active set of functions across levels with their weights.

    ``stages`` records the intermediate selection after each level step;
    stage ell holds every function alive after processing subdomain ell.
    """

    flavor: str
    hierarchy: SubdomainHierarchy
    levels: tuple[TensorLevel, ...]
    members_by_level: tuple[tuple[Index, ...], ...]
    stages: tuple[frozenset[Fid], ...]
    weights: WeightMap
    _member_set: frozenset[Fid] = field(default=None, repr=False)

    def __post_init__(self):
        if self._member_set is None:
            ms = frozenset(Fid(ell, idx)
                           for ell, ids in enumerate(self.members_by_level)
                           for idx in ids)
            object.__setattr__(self, "_member_set", ms)

    @property
    def member_set(self) -> frozenset[Fid]:
        return self._member_set

    def __len__(self) -> int:
        return len(self._member_set)

    def __contains__(self, fid: Fid) -> bool:
        return fid in self._member_set

    def functions(self) -> Iterator[Fid]:
        for ell, ids in enumerate(self.members_by_level):
            for idx in ids:
                yield Fid(ell, idx)

    def weight(self, fid: Fid) -> Fraction:
        return self.weights.weight(fid)


def _selection_stages(h: SubdomainHierarchy, levels: Sequence[TensorLevel],
                      refinable: bool) -> list[set[Fid]]:
    """Run the recursive selection, returning the stage sets.

    Stage 0 is the whole coarsest basis. Each step removes the functions
    whose support sank into the next subdomain and adds either every next
    level function supported there (classical) or only the children of the
    removed ones (refinable).
    """
    stages: list[set[Fid]] = [{Fid(0, idx) for idx in levels[0].function_ids()}]
    for ell in range(h.depth - 1):
        current = stages[-1]
        # nesting makes deeper subdomains subsets of earlier ones, so a
        # function can only sink at the step matching its own level
        deact = {fid for fid in current
                 if fid.level == ell
                 and support_in_subdomain(h, levels, fid.level, fid.indices, ell + 1)}
        survivors = current - deact
        added: set[Fid] = set()
        if refinable:
            for fid in deact:
                for child_idx, _ in tensor_children(fid.indices, levels[ell], levels[ell + 1]):
                    added.add(Fid(ell + 1, child_idx))
        else:
            for idx in _functions_with_support_in(h, levels, ell + 1, ell + 1):
                added.add(Fid(ell + 1, idx))
        stages.append(survivors | added)
    return stages


def _closed_form_classical(h: SubdomainHierarchy,
                           levels: Sequence[TensorLevel]) -> set[Fid]:
    out: set[Fid] = set()
    for ell in range(h.depth):
        for idx in _functions_with_support_in(h, levels, ell, ell):
            if not support_in_subdomain(h, levels, ell, idx, ell + 1):
                out.add(Fid(ell, idx))
    return out


def _basis_from_members(flavor: str, h: SubdomainHierarchy,
                        levels: Sequence[TensorLevel],
                        members: set[Fid], stages: list[set[Fid]],
                        weights: WeightMap) -> HierBasis:
    by_level: list[tuple[Index, ...]] = []
    for ell in range(h.depth):
        ids = sorted((f.indices for f in members if f.level == ell), key=id_sort_key)
        by_level.append(tuple(ids))
    return HierBasis(flavor, h, tuple(levels[:h.depth]), tuple(by_level),
                     tuple(frozenset(s) for s in stages), weights)


def build_hierarchical_basis(h: SubdomainHierarchy,
                             levels: Sequence[TensorLevel],
                             weights: WeightMap | None = None
                             ) -> tuple[HierBasis, HierarchicalMesh]:
    """The classical basis plus the active-cell mesh.

    Both the recursive selection and the closed-form level-wise selection
    are computed; disagreement means corrupt input or a bug, so it raises.
    """
    validate_hierarchy(h, levels)
    stages = _selection_stages(h, levels, refinable=False)
    closed = _closed_form_classical(h, levels)
    if stages[-1] != closed:
        raise InternalInvariantError(
            "recursive and closed-form selections disagree")
    if weights is None:
        weights = compute_weights(h, levels)
    basis = _basis_from_members(CLASSICAL, h, levels, closed, stages, weights)
    return basis, active_mesh(h, levels)


def build_refinable_basis(h: SubdomainHierarchy,
                          levels: Sequence[TensorLevel],
                          weights: WeightMap | None = None) -> HierBasis:
    """The children-only basis; equals the positive-weight part of the
    classical one."""
    validate_hierarchy(h, levels)
    stages = _selection_stages(h, levels, refinable=True)
    if weights is None:
        weights = compute_weights(h, levels)
    return _basis_from_members(REFINABLE, h, levels, set(stages[-1]), stages, weights)


# ---------------------------------------------------------------------------
# functions over a basis

@dataclass(eq=False)
class HierSplineFunction:
    """Coefficients over the active functions of a basis, evaluable pointwise."""

    basis: HierBasis
    coefficients: dict[Fid, Fraction | float]
    _dense: list | None = field(default=None, init=False, repr=False)

    def _dense_parts(self):
        if self._dense is None:
            per_level: dict[int, dict[Index, float]] = {}
            for fid, c in self.coefficients.items():
                per_level.setdefault(fid.level, {})[fid.indices] = float(c)
            self._dense = []
            for ell, coeffs in sorted(per_level.items()):
                ev = level_evaluator(self.basis.levels[ell])
                self._dense.append((ev, ev.dense(coeffs)))
        return self._dense

    def evaluate(self, points) -> np.ndarray:
        out = None
        for ev, dense in self._dense_parts():
            vals = ev.evaluate_dense(dense, points)
            out = vals if out is None else out + vals
        if out is None:
            pts = np.asarray(points, dtype=np.float64)
            m = pts.shape[0] if pts.ndim == 2 else np.atleast_2d(pts).shape[0]
            out = np.zeros(m)
        return out

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)


def partition_of_unity(basis: HierBasis) -> HierSplineFunction:
    """The weighted combination of active functions that sums to one."""
    coeffs = {fid: basis.weight(fid) for fid in basis.functions()}
    return HierSplineFunction(basis, coeffs)


def express_over(coefficients: Mapping[Fid, Fraction | float],
                 basis: HierBasis) -> dict[Fid, Fraction | float]:
    """Write a combination of level functions over the active ones.

    One parent-to-children sweep, coarsest level first: the coefficient of
    an active function is kept, that of a deactivated one is passed to its
    children on the next level times the two-scale coefficients. Exact
    coefficients stay exact. A function that is neither raises.
    """
    h, levels = basis.hierarchy, basis.levels
    pending: list[dict[Index, Fraction | float]] = [{} for _ in range(h.depth)]

    def neither(fid: Fid) -> HierarchyError:
        return HierarchyError(f"{fid} is neither active nor deactivated in this basis")

    for fid, c in coefficients.items():
        if not 0 <= fid.level < h.depth:
            raise neither(fid)
        pending[fid.level][fid.indices] = c
    out: dict[Fid, Fraction | float] = {}
    for ell, row in enumerate(pending):
        for idx, c in row.items():
            fid = Fid(ell, idx)
            if fid in basis:
                out[fid] = c
            elif support_in_subdomain(h, levels, ell, idx, ell + 1):
                kids = pending[ell + 1]
                for child, cc in tensor_children(idx, levels[ell], levels[ell + 1]):
                    kids[child] = kids[child] + c * cc if child in kids else c * cc
            else:
                raise neither(fid)
    return out


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
