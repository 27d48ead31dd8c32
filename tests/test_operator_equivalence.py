"""The level operator built on integer index arrays against the per-cell
routes it replaced.

The references below are the former implementations: the anchor search
as a ``min`` over every candidate core cell of largest volume of every
function, the volumes exact Fractions, and the eager workspace that built
each cell's node grid, weights and local function list on construction
and formed one dual row at a time. Members, anchors, the batched dual
rows and the coefficients of an application must equal theirs exactly,
and the callback must see the same points in the same order.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersplines.errors import HierSplineError
from hiersplines.quasiinterp import (
    CoreDomains,
    LevelQuasiInterpolant,
    OperatorConfig,
    _kron,
    checked_callable,
    compute_core_domains,
)
from hiersplines.tensor import TensorLevel, id_sort_key, iter_box, marked_indices
from hiersplines.univariate import make_open_knot_vector

from .conftest import FIXTURE_DIR, random_hierarchy, repo_fixture
from .oracles import cell_volume, dual_functional, function_cell_ranges

# ---------------------------------------------------------------------------
# reference implementations


def ref_candidates(level, cells):
    """Per function acting on a core cell, its core cells in canonical
    order."""
    candidates = {}
    for cell in sorted(cells, key=id_sort_key):
        for fidx in iter_box(level.functions_on_cell(cell)):
            candidates.setdefault(fidx, []).append(cell)
    return candidates


def ref_distance(level, fidx, cell):
    """The squared distance of a cell's doubled centre index to the
    doubled centre index of a function's support."""
    ranges = function_cell_ranges(level, fidx)
    return sum((2 * j - (r.start + r.stop - 1)) ** 2 for j, r in zip(cell, ranges))


def ref_largest(level, cands):
    """The candidates of largest volume, by exact Fraction volumes."""
    volumes = [cell_volume(level, cell) for cell in cands]
    return [cell for cell, v in zip(cands, volumes) if v == max(volumes)]


def ref_anchor_search(level, cells):
    """Members in canonical order and their anchors: among a function's
    core cells of largest volume the one closest to its support centre,
    ties to the first in canonical order."""
    anchor = {fidx: min(ref_largest(level, cands),
                        key=lambda cell, fidx=fidx: (ref_distance(level, fidx, cell),
                                                     id_sort_key(cell)))
              for fidx, cands in ref_candidates(level, cells).items()}
    return tuple(sorted(anchor, key=id_sort_key)), anchor


def ref_tensor_grid(axes):
    mesh = np.meshgrid(*axes[::-1], indexing="ij")
    return np.stack(mesh[::-1], axis=-1).reshape(-1, len(axes))


class RefWorkspace:
    """The eager workspace: the node grid and local functions built on
    construction."""

    def __init__(self, level, cell, tables):
        self.level = level
        self.cell = cell
        self.local_functions = list(iter_box(level.functions_on_cell(cell)))
        self.nodes = ref_tensor_grid([tab.nodes[j] for tab, j in zip(tables, cell)])
        self._duals = [tab.duals[j] for tab, j in zip(tables, cell)]

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


def members_and_anchors(op):
    """The members of a level operator and their anchor cells, as tuples."""
    return [tuple(map(tuple, a.tolist())) for a in (op.member_indices, op.anchor_indices)]


def assert_same_rows(op, refs=None):
    """Each member's batched dual row equals, byte for byte, the row the
    eager workspace of its anchor cell forms for it."""
    refs = {} if refs is None else refs
    assert op._dual_rows.shape[0] == len(op)
    for row, m, cell in zip(op._dual_rows, *members_and_anchors(op)):
        if cell not in refs:
            refs[cell] = RefWorkspace(op.level, cell, op.tables)
        ref = refs[cell]
        assert row.tobytes() == ref.dual_row(ref.local_index(m)).tobytes()


def assert_same_operator(levels, h):
    core = compute_core_domains(h, levels)
    for ell in range(h.depth):
        op = LevelQuasiInterpolant(levels, ell, core)
        members, anchor = ref_anchor_search(op.level, marked_indices(core.masks[ell]))
        assert [a.dtype for a in (op.member_indices, op.anchor_indices)] == [np.int64] * 2
        got_members, got_anchors = members_and_anchors(op)
        assert got_members == members
        assert dict(zip(got_members, got_anchors)) == anchor
        assert_same_rows(op)
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
    """The cases above include equidistant candidates of largest volume,
    anchors that the volume moves off the nearest candidate, members whose
    support is shortened by a repeated knot, and levels without a core."""
    ties = moved = short = empty = 0
    for explicit in (False, True):
        for k in range(CASES):
            levels, h = random_case(k, explicit)
            core = compute_core_domains(h, levels)
            for ell in range(h.depth):
                level = levels[ell]
                candidates = ref_candidates(level, marked_indices(core.masks[ell]))
                empty += not candidates
                for m, cands in candidates.items():
                    ranges = function_cell_ranges(level, m)
                    short += any(len(r) < kv.degree + 1 for r, kv in zip(ranges, level.kvs))
                    dists = [ref_distance(level, m, cell) for cell in ref_largest(level, cands)]
                    ties += dists.count(min(dists)) > 1
                    moved += min(dists) > min(ref_distance(level, m, cell) for cell in cands)
    assert ties and moved and short and empty


def test_member_off_its_anchor_cell_is_named():
    """A member whose anchor no longer lies in its support is refused by
    name, the first such member in canonical order, whether the anchor
    sits left or right of the support."""
    fx = repo_fixture("d2_corner_admissible")
    core = compute_core_domains(fx.hierarchy, fx.levels)
    first, last = fx.levels[1].kvs[0].support_intervals
    for step in (-1, 1):
        op = LevelQuasiInterpolant(fx.levels, 1, core)
        # the interval next to each member's support in direction 0
        outside = (first if step < 0 else last)[op.member_indices[:, 0]] + step
        fits = np.flatnonzero((outside >= 0) & (outside < op.level.num_cells[0]))
        assert len(fits) >= 4
        op.anchor_indices = op.anchor_indices.copy()
        for k in fits[[3, 1]]:
            op.anchor_indices[k, 0] = outside[k]
        k = fits[1]
        message = (f"function {tuple(op.member_indices[k].tolist())} of level 1 does not "
                   f"act on cell {tuple(op.anchor_indices[k].tolist())}")
        with pytest.raises(HierSplineError, match=f"^{re.escape(message)}$"):
            op.apply(lambda pts: pts[:, 0])
        with pytest.raises(HierSplineError, match=f"^{re.escape(message)}$"):
            dual_functional(op, op.member_indices[0])


@st.composite
def explicit_knots(draw):
    """An open knot vector of degree 0..4 on one to three intervals with
    breakpoints at sixtieths and interior multiplicities up to p+1."""
    p = draw(st.integers(0, 4))
    cuts = draw(st.lists(st.integers(1, 59), max_size=2, unique=True))
    mults = [draw(st.integers(1, p + 1)) for _ in cuts]
    return make_open_knot_vector(p, [0, *(Fraction(c, 60) for c in sorted(cuts)), 1],
                                 [p + 1, *mults, p + 1])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kvs=st.lists(explicit_knots(), min_size=1, max_size=3),
       extra=st.sampled_from([0, 2]), data=st.data())
def test_batched_rows_match_eager_workspaces(kvs, extra, data):
    """On a level of d = 1..3 explicit knot vectors and any core mask,
    every member's batched row equals the eager workspace's, bit for bit."""
    level = TensorLevel(0, tuple(kvs))
    cells = int(np.prod(level.num_cells))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    core = CoreDomains((mask.reshape(level.num_cells),), True)
    op = LevelQuasiInterpolant([level], 0, core, OperatorConfig(quad_increment=extra))
    assert op._dual_rows.shape == (len(op), np.prod([p + 1 + extra for p in level.degrees]))
    assert_same_rows(op)
