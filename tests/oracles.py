"""Reference implementations used only by tests: exact recursions on
Fractions, and the scalar per-function and per-cell routes that the
package's array routes replaced."""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Sequence

import numpy as np

from hiersplines import kernels
from hiersplines.quasiinterp import _tensor_grid, checked_callable
from hiersplines.tensor import TensorFunctionId as Fid, iter_box, marked_indices
from hiersplines.univariate import as_knot, parent_table

ONE = Fraction(1)


def bspline_value_exact(tau: Sequence[Fraction], x: Fraction,
                        domain_right: Fraction = ONE) -> Fraction:
    """Degree-raising recursion on exact rationals.

    Same conventions as the float kernels: half-open spans in the interior,
    limit from the left at the right end of the domain.
    """
    p = len(tau) - 2
    vals = []
    for i in range(p + 1):
        if x == domain_right:
            inside = tau[i] < x <= tau[i + 1]
        else:
            inside = tau[i] <= x < tau[i + 1]
        vals.append(Fraction(1) if inside else Fraction(0))
    for k in range(1, p + 1):
        nxt = []
        for i in range(p + 1 - k):
            acc = Fraction(0)
            d1 = tau[i + k] - tau[i]
            if d1 > 0:
                acc += (x - tau[i]) / d1 * vals[i]
            d2 = tau[i + k + 1] - tau[i + 1]
            if d2 > 0:
                acc += (tau[i + k + 1] - x) / d2 * vals[i + 1]
            nxt.append(acc)
        vals = nxt
    return vals[0]


def tensor_value_exact(locals_, point: Sequence[Fraction]) -> Fraction:
    out = Fraction(1)
    for lkv, x in zip(locals_, point):
        out *= bspline_value_exact(lkv.knots, x)
    return out


def oslo_children(parent, fine) -> list[tuple[int, Fraction]]:
    """The two-scale coefficients of a parent B-spline (a LocalKnotVector)
    over a fine KnotVector that contains its knots, by the Oslo recurrence
    on the real knots: per fine function i in the parent's support, the
    discrete B-spline of the parent's knots at t_i, ..., t_{i+p}. Returns
    the (fine index, coefficient) pairs with a positive coefficient."""
    p = parent.degree
    tau = parent.knots
    t = fine.knots
    out: list[tuple[int, Fraction]] = []
    for i in functions_supported_in(fine, tau[0], tau[-1]):
        alpha = [ONE if tau[j] <= t[i] < tau[j + 1] else Fraction(0) for j in range(p + 1)]
        for k in range(1, p + 1):
            x = t[i + k]
            nxt = []
            for j in range(p + 1 - k):
                acc = Fraction(0)
                d1 = tau[j + k] - tau[j]
                if d1 > 0:
                    acc += (x - tau[j]) / d1 * alpha[j]
                d2 = tau[j + k + 1] - tau[j + 1]
                if d2 > 0:
                    acc += (tau[j + k + 1] - x) / d2 * alpha[j + 1]
                nxt.append(acc)
            alpha = nxt
        if alpha[0] > 0:
            out.append((i, alpha[0]))
    return out


def functions_supported_in(kv, lo, hi) -> range:
    """Indices j of the functions of a knot vector with their support in
    [lo, hi], by bisection of the exact bounds in the Fraction knots."""
    lo, hi, knots = as_knot(lo), as_knot(hi), kv.knots
    # the first knot at or right of lo; the largest j with knots[j + p + 1] <= hi
    first = bisect.bisect_left(knots, lo)
    last = min(bisect.bisect_right(knots, hi) - kv.degree - 2, kv.num_basis - 1)
    return range(first, max(first, last + 1))


def local_values(local, xs) -> np.ndarray:
    """One B-spline, a LocalKnotVector, at float points: the kernel on the
    floats nearest its knots."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    return kernels.local_values(np.array([float(k) for k in local.knots]), local.degree, xs)


def function_cell_ranges(level, indices) -> list[range]:
    """Per direction, the intervals a function's support covers."""
    return [range(kv.support_intervals[0].item(j), kv.support_intervals[1].item(j) + 1)
            for kv, j in zip(level.kvs, indices)]


def support_extension_cell_ranges(level, indices) -> list[range]:
    """The support extension of a cell, as per-direction interval ranges."""
    return [range(kv.extension_intervals[0].item(j), kv.extension_intervals[1].item(j) + 1)
            for kv, j in zip(level.kvs, indices)]


def tensor_parents(indices, coarse, fine) -> list[tuple[int, ...]]:
    """The parents of a fine function in canonical order, from the
    univariate endpoint tests of ``parent_table``."""
    per_dir = [parent_table(ckv, fkv)[j] for ckv, fkv, j in zip(coarse.kvs, fine.kvs, indices)]
    return [tuple(per_dir[i][c] for i, c in enumerate(combo))
            for combo in iter_box([range(len(r)) for r in per_dir])]


def cell_descendant_ranges(levels, from_level, to_level, indices) -> list[range]:
    """Per direction, the intervals of ``to_level`` inside a cell of
    ``from_level``. The parent maps are nondecreasing, so the children of
    a range of intervals are the fine intervals whose parents fall in it."""
    ranges = [range(j, j + 1) for j in indices]
    for ell in range(from_level + 1, to_level + 1):
        ranges = [range(bisect.bisect_left(m, r.start), bisect.bisect_right(m, r.stop - 1))
                  for m, r in zip(levels[ell].interval_parents, ranges)]
    return ranges


def cell_volume(level, cell) -> Fraction:
    """The exact volume of a cell, from the Fraction interval ends."""
    vol = ONE
    for kv, j in zip(level.kvs, cell):
        vol *= kv.intervals[j].right - kv.intervals[j].left
    return vol


def locate(level, point) -> tuple[int, ...] | None:
    """The cell of a level whose closure holds one point, or None."""
    found, cells = level.locate_all(np.array([point], dtype=np.float64))
    return tuple(int(c[0]) for c in cells) if found[0] else None


def stages(basis) -> tuple[frozenset, ...]:
    """Stage k of a basis's selection as a set of function ids: the active
    functions of the levels before k and the selected ones of level k."""
    out, before = [], []
    for ell, (selected, active) in enumerate(zip(basis.selected, basis.active)):
        out.append(frozenset(before + [Fid(ell, idx) for idx in marked_indices(selected)]))
        before += [Fid(ell, idx) for idx in marked_indices(active)]
    return tuple(out)


def dual_functional(op, indices):
    """The functional dual to a member of a level operator on its anchor
    cell: the member's dual row applied to a callback's values at the
    anchor cell's Gauss nodes, taken from the level tables."""
    k = [tuple(m) for m in op.member_indices.tolist()].index(tuple(indices))
    row = op._dual_rows[k]
    nodes = _tensor_grid([tab.nodes[j] for tab, j in zip(op.tables, op.anchor_indices[k])])

    def functional(f) -> float:
        return float(row @ checked_callable(f)(nodes))

    return functional
