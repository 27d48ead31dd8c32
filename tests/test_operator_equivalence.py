"""The level operator built on integer index arrays against the per-cell
routes it replaced.

The references below are the former implementations: the anchor search
as a ``min`` over every candidate core cell of every function, and the
eager workspace that built each cell's node grid, weights and local
function list on construction. Members, anchors, workspace arrays and the
coefficients of an application must equal theirs exactly, and the
callback must see the same points in the same order.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from hiersplines.errors import HierSplineError
from hiersplines.quasiinterp import (
    LevelQuasiInterpolant,
    LocalProjectionWorkspace,
    _kron,
    checked_callable,
    compute_core_domains,
)
from hiersplines.tensor import id_sort_key, iter_box

from .conftest import FIXTURE_DIR, random_hierarchy, repo_fixture

# ---------------------------------------------------------------------------
# reference implementations


def ref_anchor_search(level, cells):
    """Members in canonical order and their anchors: among a function's
    core cells the one closest to its support centre, ties to the first
    in canonical order."""
    candidates = {}
    for cell in sorted(cells, key=id_sort_key):
        for fidx in iter_box(level.functions_on_cell(cell)):
            candidates.setdefault(fidx, []).append(cell)
    anchor = {}
    for fidx, cands in candidates.items():
        ranges = level.function_cell_ranges(fidx)
        center = [r.start + r.stop - 1 for r in ranges]  # doubled index

        def badness(cell, center=center):
            dist = 0
            for i, j in enumerate(cell):
                delta = 2 * j - center[i]
                dist += delta * delta
            return (dist, id_sort_key(cell))

        anchor[fidx] = min(cands, key=badness)
    return tuple(sorted(anchor, key=id_sort_key)), anchor


def ref_tensor_grid(axes):
    mesh = np.meshgrid(*axes[::-1], indexing="ij")
    return np.stack(mesh[::-1], axis=-1).reshape(-1, len(axes))


class RefWorkspace:
    """The eager workspace: every array built on construction."""

    def __init__(self, level, cell, tables):
        self.level = level
        self.cell = cell
        self.local_functions = list(iter_box(level.functions_on_cell(cell)))
        nodes, weights, self._masses, self._duals = zip(
            *[[field[j] for field in tab] for tab, j in zip(tables, cell)])
        self.nodes = ref_tensor_grid(nodes)
        self.weights = _kron(weights)

    @property
    def mass(self):
        return _kron(self._masses)

    def local_index(self, indices):
        return self.local_functions.index(indices)

    def dual_row(self, i0):
        cols = []
        for duals in self._duals:
            i0, i = divmod(i0, duals.shape[1])
            cols.append(duals[:, i])
        return _kron(cols)


def ref_apply(op, anchor, f):
    """Coefficients of the former apply, and the points it evaluated."""
    g = checked_callable(f)
    cells = sorted(set(anchor.values()), key=id_sort_key)
    if not cells:
        return {}, None
    spaces = {c: RefWorkspace(op.level, c, op.tables) for c in cells}
    points = np.vstack([spaces[c].nodes for c in cells])
    values = dict(zip(cells, g(points).reshape(len(cells), -1)))
    coeffs = {}
    for m in sorted(anchor, key=id_sort_key):
        ws = spaces[anchor[m]]
        coeffs[m] = float(ws.dual_row(ws.local_index(m)) @ values[ws.cell])
    return coeffs, points


# ---------------------------------------------------------------------------
# checks


def bits(values):
    return [repr(float(v)) for v in values]


class Recorder:
    """A smooth callback that keeps the points it is called on."""

    def __init__(self):
        self.calls = []

    def __call__(self, pts):
        self.calls.append(pts.copy())
        return np.sin(3.0 * pts.sum(axis=1)) + pts[:, 0] ** 2


def assert_same_operator(levels, h):
    core = compute_core_domains(h, levels)
    for ell in range(h.depth):
        op = LevelQuasiInterpolant(h, levels, ell, core)
        members, anchor = ref_anchor_search(op.level, core.cells(ell))
        assert op.members == members
        assert op.anchor_cells == anchor
        assert all(type(i) is int for m in op.members for i in m + op.anchor_cells[m])
        for cell in sorted(set(anchor.values()), key=id_sort_key):
            ws, ref = op.workspace(cell), RefWorkspace(op.level, cell, op.tables)
            assert ws.local_functions == ref.local_functions
            for name in ("nodes", "weights", "mass"):
                assert np.array_equal(getattr(ws, name), getattr(ref, name)), name
            for f in ref.local_functions:
                i = ref.local_index(f)
                assert ws.local_index(f) == i
                assert np.array_equal(ws.dual_row(i), ref.dual_row(i))
        got, want = Recorder(), Recorder()
        coeffs = op.apply(got).coefficients
        ref_coeffs, _ = ref_apply(op, anchor, want)
        assert list(coeffs) == list(ref_coeffs)
        assert bits(coeffs.values()) == bits(ref_coeffs.values())
        assert len(got.calls) == len(want.calls)
        for a, b in zip(got.calls, want.calls):
            assert np.array_equal(a, b)


FIXTURE_NAMES = sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))

# (dim, depth) per case; the degrees run through 1..3 per direction
SHAPES = [(1, 3), (2, 3), (3, 2)]
CASES = 18


def random_case(k: int, explicit: bool):
    rng = np.random.default_rng([20261019, k, explicit])
    dim, depth = SHAPES[k % len(SHAPES)]
    degrees = [1 + (k // len(SHAPES) + i) % 3 for i in range(dim)]
    return random_hierarchy(rng, dim=dim, depth=depth, degrees=degrees, explicit=explicit)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_match_per_cell_routes(name):
    fx = repo_fixture(name)
    assert_same_operator(fx.levels, fx.hierarchy)


@pytest.mark.parametrize("explicit", [False, True], ids=["dyadic", "explicit"])
@pytest.mark.parametrize("k", range(CASES))
def test_random_hierarchies_match_per_cell_routes(k, explicit):
    levels, h = random_case(k, explicit)
    assert_same_operator(levels, h)


def test_random_cases_cover_ties_short_supports_and_empty_cores():
    """The cases above include equidistant candidates, members whose
    support is shortened by a repeated knot, and levels without a core."""
    ties = short = empty = 0
    for explicit in (False, True):
        for k in range(CASES):
            levels, h = random_case(k, explicit)
            core = compute_core_domains(h, levels)
            for ell in range(h.depth):
                level = levels[ell]
                members, anchor = ref_anchor_search(level, core.cells(ell))
                empty += not members
                for m in members:
                    ranges = level.function_cell_ranges(m)
                    short += any(len(r) < kv.degree + 1 for r, kv in zip(ranges, level.kvs))
                    center = [r.start + r.stop - 1 for r in ranges]
                    dists = [sum((2 * j - c) ** 2 for j, c in zip(cell, center))
                             for cell in iter_box(ranges) if cell in core.cells(ell)]
                    ties += dists.count(min(dists)) > 1
    assert ties and short and empty


def test_local_index_names_level_cell_and_function():
    fx = repo_fixture("d2_corner_admissible")
    core = compute_core_domains(fx.hierarchy, fx.levels)
    op = LevelQuasiInterpolant(fx.hierarchy, fx.levels, 1, core)
    m = op.members[0]
    cell = op.anchor_cells[m]
    ws = op.workspace(cell)
    p = op.level.kvs[0].degree
    far = (m[0] + p + 1,) + m[1:]
    message = f"function {far} of level 1 does not act on cell {cell}"
    with pytest.raises(HierSplineError, match=f"^{re.escape(message)}$"):
        ws.local_index(far)
    with pytest.raises(HierSplineError, match="does not act on cell"):
        LocalProjectionWorkspace(op.level, cell, op.tables).local_index((-1,) + m[1:])
