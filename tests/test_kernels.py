"""Evaluation conventions and exact-oracle agreement of the kernels."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersplines import kernels
from hiersplines.tensor import iter_box
from hiersplines.univariate import dyadic_refine, make_open_knot_vector, uniform_open_knot_vector

from .oracles import bspline_value_exact


def _example_knots():
    return [
        uniform_open_knot_vector(1, 4),
        uniform_open_knot_vector(2, 5),
        uniform_open_knot_vector(3, 4),
        make_open_knot_vector(2, ["0", "1/5", "1/2", "4/5", "1"], [3, 2, 1, 1, 3]),
    ]


def test_find_spans_conventions():
    kv = make_open_knot_vector(2, ["0", "1/4", "1/2", "1"], [3, 1, 2, 3])
    knots = kv.floats
    xs = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    spans = kernels.find_spans(knots, 2, xs)
    n = kv.num_basis
    for x, s in zip(xs, spans):
        assert 2 <= s <= n - 1
        if x < 1.0:
            assert knots[s] <= x < knots[s + 1]
        else:
            # the right end evaluates on the last nonempty span
            assert knots[s] < knots[s + 1] == 1.0


def test_local_values_match_exact_oracle():
    rng = np.random.default_rng(5)
    for kv in _example_knots():
        xs_exact = [Fraction(k, 17) for k in range(18)]
        xs = np.array([float(x) for x in xs_exact])
        for j in range(kv.num_basis):
            tau = kv.floats[j:j + kv.degree + 2]
            got = kernels.local_values(tau, kv.degree, xs)
            want = [float(bspline_value_exact(kv.local(j).knots, x))
                    for x in xs_exact]
            assert np.abs(got - np.array(want)).max() < 1e-14


def test_basis_columns_sum_to_one():
    rng = np.random.default_rng(3)
    for kv in _example_knots():
        knots = kv.floats
        xs = np.concatenate([rng.random(200), [0.0, 1.0]])
        spans = kernels.find_spans(knots, kv.degree, xs)
        cols = kernels.basis_columns(knots, kv.degree, xs, spans)
        assert np.abs(cols.sum(axis=1) - 1.0).max() < 1e-14


def test_tensor_kernel_matches_product_of_locals():
    rng = np.random.default_rng(9)
    kvx = uniform_open_knot_vector(2, 4)
    kvy = uniform_open_knot_vector(1, 3)
    coeffs = rng.random(kvx.num_basis * kvy.num_basis)
    pts = rng.random((400, 2))
    got = kernels.tensor_spline_values(coeffs, [kvx.floats, kvy.floats], (2, 1),
                                       points=pts)
    want = np.zeros(400)
    for ix in range(kvx.num_basis):
        vx = kernels.local_values(kvx.floats[ix:ix + 4], 2, pts[:, 0])
        for iy in range(kvy.num_basis):
            vy = kernels.local_values(kvy.floats[iy:iy + 3], 1, pts[:, 1])
            want += coeffs[ix + kvx.num_basis * iy] * vx * vy
    assert np.abs(got - want).max() < 1e-13


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(1, 3), intervals=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1))
def test_partition_of_unity_random_refined(degree, intervals, seed):
    kv = uniform_open_knot_vector(degree, intervals)
    kv = dyadic_refine(kv)
    xs = np.random.default_rng(seed).random(64)
    total = np.zeros_like(xs)
    for j in range(kv.num_basis):
        total += kv.local(j).evaluate(xs)
    assert np.abs(total - 1.0).max() < 1e-12


def _reference_basis(knots, p, xs, spans):
    # the unblocked triangle, column by column
    m = xs.shape[0]
    out = np.ones((m, p + 1))
    left = np.empty((m, p))
    right = np.empty((m, p))
    for j in range(1, p + 1):
        left[:, j - 1] = xs - knots[spans + 1 - j]
        right[:, j - 1] = knots[spans + j] - xs
        saved = np.zeros(m)
        for r in range(j):
            tmp = out[:, r] / (right[:, r] + left[:, j - r - 1])
            out[:, r] = saved + right[:, r] * tmp
            saved = left[:, j - r - 1] * tmp
        out[:, j] = saved
    return out


def _reference_tensor_values(level, coeffs, points):
    # one pass over all points, one full-length weight and index per term
    m, d = points.shape
    strides = [math.prod(level.num_basis[:i]) for i in range(d)]
    offsets_table = list(iter_box([range(p + 1) for p in level.degrees]))
    spans, bases = [], []
    for i in range(d):
        kn = level.kvs[i].floats
        p = level.degrees[i]
        s = kernels.find_spans(kn, p, points[:, i])
        spans.append(s)
        bases.append(_reference_basis(kn, p, points[:, i], s))
    out = np.zeros(m)
    for offsets in offsets_table:
        w = np.ones(m)
        idx = np.zeros(m, dtype=np.int64)
        for i in range(d):
            o = offsets[i]
            w *= bases[i][:, o]
            idx += (spans[i] - level.degrees[i] + o) * strides[i]
        out += w * coeffs[idx]
    return out


def _reference_local_values(tau, p, x):
    at_right = x == 1.0
    n = np.empty((x.shape[0], p + 1))
    for i in range(p + 1):
        half_open = (tau[i] <= x) & (x < tau[i + 1])
        left_limit = (tau[i] < x) & (x <= tau[i + 1])
        n[:, i] = np.where(at_right, left_limit, half_open)
    for k in range(1, p + 1):
        for i in range(p + 1 - k):
            d1 = tau[i + k] - tau[i]
            d2 = tau[i + k + 1] - tau[i + 1]
            acc = np.zeros_like(x)
            if d1 > 0.0:
                acc += (x - tau[i]) / d1 * n[:, i]
            if d2 > 0.0:
                acc += (tau[i + k + 1] - x) / d2 * n[:, i + 1]
            n[:, i] = acc
    return n[:, 0]


def _random_knot_floats(rng, degree):
    """A random knot vector of ``degree`` with interior multiplicities up
    to degree + 1, as its floats and breakpoint floats."""
    n = int(rng.integers(1, 7))
    values = [0] + sorted({Fraction(int(k), 3 * n) for k in rng.integers(1, 3 * n, size=n)}) + [1]
    mults = [degree + 1] + [int(m) for m in rng.integers(1, degree + 2, len(values) - 2)] \
        + [degree + 1]
    kv = make_open_knot_vector(degree, values, mults)
    return kv.floats, kv.breakpoint_floats


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("many", [False, True], ids=["block", "chunked"])
def test_stacked_local_values_equal_single_calls(degree, many):
    # one call on the stack of every function's local knots gives each
    # function's values of a call on its own knots, and of the former
    # per-function arithmetic, bit for bit: int64 views tell -0.0 from +0.0;
    # with more than GRID_BLOCK points the functions of each block of
    # points run a few to a chunk
    from numpy.lib.stride_tricks import sliding_window_view
    rng = np.random.default_rng(degree)
    for _ in range(4):
        knots, breakpoints = _random_knot_floats(rng, degree)
        count = kernels.GRID_BLOCK + 5 if many else 40
        x = np.concatenate([[0.0, 1.0], breakpoints, rng.random(count)])
        stacked = kernels.local_values(sliding_window_view(knots, degree + 2), degree, x)
        taus = [knots[j:j + degree + 2] for j in range(len(knots) - degree - 1)]
        single = np.array([kernels.local_values(tau, degree, x) for tau in taus])
        former = np.array([_reference_local_values(tau, degree, x) for tau in taus])
        assert stacked.shape == (len(taus), len(x))
        assert np.array_equal(stacked.view(np.int64), single.view(np.int64))
        assert np.array_equal(stacked.view(np.int64), former.view(np.int64))


def _assert_near_pointwise(grid, point, scale):
    """The grid route contracts each grid's coefficient block one direction
    at a time, so it rounds differently from the pointwise route: the two
    may differ by 64 eps times the pointwise value of the same spline with
    the absolute values of its coefficients."""
    assert grid.size == point.size
    assert np.all(np.abs(grid.reshape(-1) - point) <= 64 * np.finfo(float).eps * scale)


def _magnitude(s):
    """The level or hierarchical spline ``s`` with the absolute values of
    its coefficients, the scale of _assert_near_pointwise."""
    from hiersplines.hierarchy import HierSplineFunction
    from hiersplines.tensor import LevelSpline
    if isinstance(s, LevelSpline):
        return LevelSpline(s.level, s.indices, np.abs(s.values))
    return HierSplineFunction(s.basis, [_magnitude(part) for part in s.parts])


def _blocking_level(dim, degree):
    # a double internal knot at 1/3 in every direction
    kv = make_open_knot_vector(degree, ["0", "1/3", "1/2", "1"], [degree + 1, 2, 1, degree + 1])
    from hiersplines.tensor import TensorLevel
    return TensorLevel(0, (kv,) * dim)


def _blocking_points(dim, m, seed):
    pts = np.random.default_rng(seed).random((m, dim))
    # the domain ends and the double knot, each in every direction
    marks = np.array([0.0, 1.0, 1.0 / 3.0])
    for r in range(min(m, 3 * dim)):
        pts[r, r % dim] = marks[r // dim]
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_blocked_evaluation_equals_concatenated_splits(dim, degree):
    from hiersplines.tensor import eval_function
    level = _blocking_level(dim, degree)
    knots = [kv.floats for kv in level.kvs]
    coeffs = np.random.default_rng(degree).uniform(-1.0, 1.0, math.prod(level.num_basis))
    fid = tuple(n // 2 for n in level.num_basis)
    b = kernels.BLOCK
    for m in (1, b - 1, b, b + 1, 3 * b + 7):
        pts = _blocking_points(dim, m, m)
        whole = kernels.tensor_spline_values(coeffs, knots, level.degrees, points=pts)
        single = eval_function(level, fid, pts)
        cuts = sorted({0, m, min(m, 1), m // 3, min(m, b + 5)})
        pieces = list(zip(cuts, cuts[1:]))
        split = np.concatenate([kernels.tensor_spline_values(coeffs, knots, level.degrees,
                                                             points=pts[a:z])
                                for a, z in pieces])
        split_single = np.concatenate([eval_function(level, fid, pts[a:z]) for a, z in pieces])
        assert whole.tobytes() == split.tobytes()
        assert single.tobytes() == split_single.tobytes()
        # the blocked kernels keep the unblocked arithmetic, bit for bit
        assert whole.tobytes() == _reference_tensor_values(level, coeffs, pts).tobytes()
        for kv in level.kvs[:1]:
            for j in range(kv.num_basis):
                tau = kv.floats[j:j + degree + 2]
                got = kernels.local_values(tau, degree, pts[:, 0])
                want = _reference_local_values(tau, degree, pts[:, 0])
                assert got.tobytes() == want.tobytes()
    # whole grids of the sup-norm sample, 4 nodes a direction, whose edge
    # nodes lie in the next cell's span: one grid, and grids one short of,
    # exactly at and one over the grid block
    from hiersplines.quasiinterp import _tensor_grid
    per_grid, g = 4 ** dim, kernels.GRID_BLOCK
    for cells in (1, g // per_grid - 1, g // per_grid, g // per_grid + 1):
        axes = _sup_sample_axes(level, cells, 4)
        whole = kernels.tensor_grid_values(coeffs, knots, level.degrees, axes)
        split = np.concatenate([kernels.tensor_grid_values(coeffs, knots, level.degrees,
                                                           [a[r:r + 1] for a in axes])
                                for r in range(cells)])
        assert whole.tobytes() == split.tobytes()
        pts = _tensor_grid(axes)
        _assert_near_pointwise(whole, _reference_tensor_values(level, coeffs, pts),
                               _reference_tensor_values(level, np.abs(coeffs), pts))


def _grid_axes(rng, level, cells):
    """Per direction, ``cells`` rows of samples: every breakpoint of the
    level, 1.0 among them, and a few random values, shuffled per row."""
    axes = []
    for kv in level.kvs:
        samples = np.concatenate([kv.breakpoint_floats, rng.random(3)])
        axes.append(np.stack([rng.permutation(samples) for _ in range(cells)]))
    return axes


def _random_spline(rng, level):
    from hiersplines.tensor import LevelSpline
    ids = np.array(list(level.function_ids()))
    keep = ids[rng.random(len(ids)) < 0.7]
    return LevelSpline(level, keep, rng.uniform(-1.0, 1.0, len(keep)))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_level_spline_on_grid_equals_evaluate(dim, seed):
    # explicit, non-uniform levels with multiplicities up to p+1
    from hiersplines.quasiinterp import _tensor_grid
    from .conftest import random_explicit_levels
    rng = np.random.default_rng(seed)
    initial = [uniform_open_knot_vector(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
               for _ in range(dim)]
    for level in random_explicit_levels(rng, initial, 3):
        s = _random_spline(rng, level)
        axes = _grid_axes(rng, level, 4)
        got = s.on_grid(axes)
        assert got.shape == (4,) + tuple(a.shape[1] for a in reversed(axes))
        pts = _tensor_grid(axes)
        _assert_near_pointwise(got, s.evaluate(pts), _magnitude(s).evaluate(pts))
        # pointwise evaluation keeps the unblocked arithmetic, bit for bit
        dense = np.zeros(math.prod(level.num_basis))
        dense[np.ravel_multi_index(tuple(s.indices.T), level.num_basis, order="F")] = s.values
        assert s.evaluate(pts).tobytes() == _reference_tensor_values(level, dense, pts).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hier_spline_on_grid_equals_evaluate(dim):
    from hiersplines.hierarchy import HierSplineFunction, build_refinable_basis
    from hiersplines.quasiinterp import _tensor_grid
    from hiersplines.tensor import LevelSpline, marked_array
    from .conftest import random_hierarchy
    rng = np.random.default_rng(dim)
    levels, h = random_hierarchy(rng, dim=dim, depth=3, explicit=True)
    basis = build_refinable_basis(h, levels)
    parts = []
    for lv, mask in zip(basis.levels, basis.active):
        ids = marked_array(mask)
        parts.append(LevelSpline(lv, ids, rng.uniform(-1.0, 1.0, len(ids))))
    s = HierSplineFunction(basis, parts)
    assert sum(len(p.values) > 0 for p in parts) > 1
    axes = _grid_axes(rng, levels[h.depth - 1], 3)
    pts = _tensor_grid(axes)
    _assert_near_pointwise(s.on_grid(axes), s.evaluate(pts), _magnitude(s).evaluate(pts))
    empty = HierSplineFunction(basis, [LevelSpline(lv, np.zeros((0, dim), dtype=np.int64),
                                                   np.zeros(0)) for lv in basis.levels])
    assert np.array_equal(empty.on_grid(axes), np.zeros(s.on_grid(axes).shape))


def _sup_sample_axes(level, cells, per_dir):
    """Per direction, the sup norm's equispaced sample of ``per_dir`` nodes
    on each of ``cells`` cells, cycling through the level's intervals; a
    sample holds both ends of its interval, so its right edge node lies in
    the next interval's span."""
    t = np.linspace(0.0, 1.0, per_dir)
    axes = []
    for k, kv in enumerate(level.kvs):
        bp = kv.breakpoint_floats
        at = (np.arange(cells) // (k + 1)) % (len(bp) - 1)
        axes.append(bp[at, None] + (bp[at + 1] - bp[at])[:, None] * t)
    return axes


@pytest.mark.parametrize("block", [1, 7, 64, "block-1", "block", "block+1"])
def test_grid_batches_leave_values_unchanged(monkeypatch, block):
    from hiersplines.tensor import TensorLevel
    rng = np.random.default_rng(block if isinstance(block, int) else len(block))
    kvs = (make_open_knot_vector(2, ["0", "1/3", "1/2", "1"], [3, 2, 1, 3]),
           make_open_knot_vector(3, ["0", "1/4", "1"], [4, 4, 4]))
    s = _random_spline(rng, TensorLevel(0, kvs))
    if isinstance(block, int):
        size, axes = block, [rng.random((9, 5)), rng.random((9, 4))]
    else:
        # sup-norm samples of 32 x 32 nodes on enough cells for three
        # batches, at and around the grid block
        size = {"block-1": kernels.GRID_BLOCK - 1, "block": kernels.GRID_BLOCK,
                "block+1": kernels.GRID_BLOCK + 1}[block]
        axes = _sup_sample_axes(s.level, 2 * (kernels.GRID_BLOCK // 1024) + 1, 32)
    want = s.on_grid(axes)
    # one grid per batch, and the size under test
    for patched in (1, size):
        monkeypatch.setattr(kernels, "GRID_BLOCK", patched)
        assert s.on_grid(axes).tobytes() == want.tobytes()


def test_on_grid_refuses_malformed_axes():
    from hiersplines.errors import HierSplineError
    from hiersplines.tensor import TensorLevel
    level = TensorLevel(0, (uniform_open_knot_vector(2, 3),) * 2)
    s = _random_spline(np.random.default_rng(0), level)
    for axes in ([np.zeros((2, 3))], [np.zeros((2, 3)), np.zeros((3, 3))],
                 [np.zeros(3), np.zeros(3)]):
        with pytest.raises(HierSplineError, match="grid axes"):
            s.on_grid(axes)


def _random_hier_spline(rng, basis):
    """A spline of ``basis`` with random coefficients on its active functions."""
    from hiersplines.hierarchy import HierSplineFunction
    from hiersplines.tensor import LevelSpline, marked_array
    return HierSplineFunction(basis, [
        LevelSpline(lv, marked_array(mask), rng.uniform(-1.0, 1.0, int(mask.sum())))
        for lv, mask in zip(basis.levels, basis.active)])


@pytest.mark.parametrize("sizes", [(0, 3), (4, 0), (0, 0)])
@pytest.mark.parametrize("grids", [0, 2])
def test_on_grid_with_no_samples_returns_the_empty_grid(sizes, grids):
    # as the test functions do, instead of dividing by the node count
    from hiersplines.functions import get_function
    from hiersplines.hierarchy import build_refinable_basis
    from hiersplines.tensor import TensorLevel
    from .conftest import random_hierarchy
    rng = np.random.default_rng(0)
    level = TensorLevel(0, (uniform_open_knot_vector(2, 3),) * 2)
    levels, h = random_hierarchy(rng, dim=2, depth=2)
    basis = build_refinable_basis(h, levels)
    axes = [np.zeros((grids, n)) for n in sizes]
    want = get_function("sin", 2).on_grid(axes)
    assert want.shape == (grids, sizes[1], sizes[0])
    for f in (_random_spline(rng, level), _random_hier_spline(rng, basis)):
        assert f.on_grid(axes).shape == want.shape


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [0, 2])
def test_sup_sample_edge_node_takes_the_next_span(dim, degree):
    # direction 0 jumps at 1/4 and 1/2, whose multiplicity is p+1, and the
    # sup sample of the cells [1/4, 1/2] ends on the jump; the node there
    # lies in the next span, as in pointwise evaluation
    from hiersplines.quasiinterp import _tensor_grid
    from hiersplines.tensor import LevelSpline, TensorLevel
    jump = make_open_knot_vector(degree, ["0", "1/4", "1/2", "1"], [degree + 1] * 4)
    smooth = uniform_open_knot_vector(2, 3)
    level = TensorLevel(0, (jump,) + (smooth,) * (dim - 1))
    ids = np.array(list(level.function_ids()))
    # the coefficients rise by more than 1 from function to function in
    # direction 0, so the two sides of a jump differ by more than 1
    rng = np.random.default_rng(degree + dim)
    s = LevelSpline(level, ids, 2.0 * ids[:, 0] + rng.uniform(0.0, 1.0, len(ids)))
    cells, t = 3 ** (dim - 1), np.linspace(0.0, 1.0, 5)
    axes = [np.tile(0.25 + 0.25 * t, (cells, 1))]
    for k in range(1, dim):
        at = (np.arange(cells) // 3 ** (k - 1)) % 3
        axes.append((at[:, None] + t) / 3.0)
    got = s.on_grid(axes)
    pts = _tensor_grid(axes)
    _assert_near_pointwise(got, s.evaluate(pts), _magnitude(s).evaluate(pts))
    # the cell's own polynomial at its right edge is the left limit there
    left = pts.copy()
    left[left[:, 0] == 0.5, 0] = np.nextafter(0.5, 0.0)
    own = s.evaluate(left).reshape(got.shape)
    assert np.all(np.abs(got[..., -1] - own[..., -1]) > 1.0)


def test_sup_grids_of_a_three_dimensional_fixture():
    from hiersplines.hierarchy import active_mesh, build_refinable_basis
    from hiersplines.quasiinterp import _cells_geometry, _tensor_grid, integration_cells
    from .conftest import repo_fixture
    fx = repo_fixture("d3_depth2_corner")
    basis = build_refinable_basis(fx.hierarchy, fx.levels)
    s = _random_hier_spline(np.random.default_rng(3), basis)
    mesh = active_mesh(fx.hierarchy, fx.levels)
    t = np.linspace(0.0, 1.0, 4)
    for ell, idxs in integration_cells(mesh, None):
        lows, spans = _cells_geometry(mesh.levels[ell], idxs)
        axes = [lows[:, k, None] + spans[:, k, None] * t for k in range(3)]
        got = s.on_grid(axes)
        single = [s.on_grid([a[r:r + 1] for a in axes]) for r in range(len(idxs))]
        assert got.tobytes() == np.concatenate(single).tobytes()
        pts = _tensor_grid(axes)
        _assert_near_pointwise(got, s.evaluate(pts), _magnitude(s).evaluate(pts))


def test_windows_read_only_the_functions_alive_at_some_node():
    # the level-0 cell [0, 1/2]^2 evaluated with a part three levels finer,
    # whose 3 Gauss nodes a direction leave fine functions between them
    # alive at no node, in one call with two cells of the fine level
    from hiersplines.quasiinterp import _tensor_grid
    from hiersplines.tensor import LevelSpline
    from .conftest import make_levels
    fine = make_levels(2, 1, 2, 4)[3]
    ids = np.array(list(fine.function_ids()))
    rng = np.random.default_rng(7)
    s = LevelSpline(fine, ids, rng.uniform(-1.0, 1.0, len(ids)))
    gauss = (np.polynomial.legendre.leggauss(3)[0] + 1.0) / 2.0
    lows = np.array([[0.0, 0.0], [0.5, 0.25], [0.9375, 0.0]])
    sides = np.array([0.5, 0.0625, 0.0625])
    axes = [lows[:, k, None] + sides[:, None] * gauss for k in range(2)]
    whole = s.on_grid(axes)
    single = [s.on_grid([a[r:r + 1] for a in axes]) for r in range(3)]
    assert whole.tobytes() == np.concatenate(single).tobytes()
    pts = _tensor_grid(axes)
    _assert_near_pointwise(whole, s.evaluate(pts), _magnitude(s).evaluate(pts))
    # NaN for every function alive at no node of the coarse cell's grid
    alive = [np.unique(kernels.find_spans(kv.floats, kv.degree, a[0])[:, None]
                       - np.arange(kv.degree + 1)) for kv, a in zip(fine.kvs, axes)]
    assert all(np.diff(a).max() > 1 for a in alive)
    dead = ~(np.isin(ids[:, 0], alive[0]) & np.isin(ids[:, 1], alive[1]))
    poisoned = LevelSpline(fine, ids, np.where(dead, np.nan, s.values))
    for got in (poisoned.on_grid([a[:1] for a in axes]), poisoned.on_grid(axes)[:1]):
        assert np.isfinite(got).all()
        assert got.tobytes() == single[0].tobytes()


# ---------------------------------------------------------------------------
# windows on the distinct rows of a level


class _Parts:
    """Splines summed on the same axes, as in a hierarchical spline."""

    def __init__(self, parts):
        self.parts = parts

    def on_grid(self, axes):
        total = None
        for s in self.parts:
            v = s.on_grid(axes)
            total = v if total is None else np.add(total, v, out=total)
        return total


@st.composite
def _distinct_row_cases(draw):
    """Per direction of d = 1..3: cells between breakpoints at 24ths, a
    coarser part on some of them and a finer part on all of them and some
    48ths, each of degree 0..4 with interior multiplicities up to p+1;
    some of the cells in any order, and Gauss or sup-sample nodes."""
    from hiersplines.tensor import TensorLevel
    d = draw(st.integers(1, 3))
    cuts = [sorted(draw(st.sets(st.integers(1, 23), min_size=1, max_size=4))) for _ in range(d)]

    def level(points):
        kvs = []
        for at in points:
            p = draw(st.integers(0, 4))
            mults = [draw(st.integers(1, p + 1)) for _ in at]
            kvs.append(make_open_knot_vector(
                p, [0, *(Fraction(a, 48) for a in at), 1], [p + 1, *mults, p + 1]))
        return TensorLevel(0, tuple(kvs))

    cells = level([[2 * c for c in cut] for cut in cuts])
    coarse = level([[2 * c for c in sorted(draw(st.sets(st.sampled_from(cut))))] for cut in cuts])
    fine = level([sorted({2 * c for c in cut} | draw(st.sets(st.sampled_from(range(1, 48, 2)),
                                                             max_size=3)))
                  for cut in cuts])
    ranks = draw(st.permutations(range(math.prod(cells.num_cells))))
    ranks = ranks[:draw(st.integers(1, len(ranks)))]
    idxs = np.stack(np.unravel_index(ranks, cells.num_cells), axis=1)
    if draw(st.booleans()):
        from hiersplines.quasiinterp import _gauss_base
        base = [_gauss_base(draw(st.integers(1, 5)))[0] for _ in range(d)]
    else:
        # the sup sample, whose last node is the cell's right edge
        base = [np.linspace(0.0, 1.0, draw(st.integers(2, 6)))] * d
    return cells, (coarse, fine), idxs, base


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_distinct_row_cases(), data=st.data())
def test_distinct_row_windows_equal_per_grid_axes(case, data):
    """The norms' distinct-row route gives the values of per-grid (c, n_k)
    axes, bit for bit, whatever the batches."""
    from unittest import mock
    from hiersplines.quasiinterp import _abs_batches, _cells_geometry
    cells, levels, idxs, base = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    f = _Parts([_random_spline(rng, lv) for lv in levels])
    lows, spans = _cells_geometry(cells, idxs)
    plain = [lows[:, k, None] + spans[:, k, None] * t for k, t in enumerate(base)]
    want = f.on_grid(plain).reshape(len(idxs), -1)
    nodes = math.prod(map(len, base))
    with mock.patch.object(kernels, "GRID_BLOCK", data.draw(st.integers(1, 3 * nodes))):
        got = np.concatenate([v for _, v in _abs_batches(f, cells, idxs, base)])
    assert got.tobytes() == np.abs(want).tobytes()
    # the kernel on rows found by value, in batches cut at any grids
    found = [np.unique(a, axis=0, return_inverse=True) for a in plain]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(idxs) - 1))) if len(idxs) > 1 else [])
    cache, pieces = {}, []
    for a, z in zip([0, *cuts], [*cuts, len(idxs)]):
        axes = kernels.GridAxes([u for u, _ in found],
                                [i.reshape(-1)[a:z] for _, i in found], cache)
        assert all(x.tobytes() == p[a:z].tobytes() for x, p in zip(axes, plain))
        pieces.append(f.on_grid(axes).reshape(z - a, -1))
    assert np.concatenate(pieces).tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [2, "inf"])
def test_windows_formed_once_per_part_direction_and_distinct_row(monkeypatch, q):
    from hiersplines.functions import get_function
    from hiersplines.hierarchy import active_mesh, build_refinable_basis
    from hiersplines.quasiinterp import error_norms, integration_cells
    from .conftest import repo_fixture
    fx = repo_fixture("d2_corner_admissible")
    basis = build_refinable_basis(fx.hierarchy, fx.levels)
    s = _random_hier_spline(np.random.default_rng(5), basis)
    parts = [p for p in s.parts if len(p.values)]
    assert len(parts) > 1
    mesh = active_mesh(fx.hierarchy, fx.levels)
    received, grids = [], []
    windows, grid_values = kernels._windows, kernels.tensor_grid_values

    def counted_windows(knots, degree, x):
        received.append(x.copy())
        return windows(knots, degree, x)

    def counted_grid_values(coeffs, knots, degrees, axes):
        grids.append(len(axes[0]))
        return grid_values(coeffs, knots, degrees, axes)

    monkeypatch.setattr(kernels, "_windows", counted_windows)
    monkeypatch.setattr(kernels, "tensor_grid_values", counted_grid_values)
    monkeypatch.setattr(kernels, "GRID_BLOCK", 200)
    error_norms(get_function("sin", 2), s, q, mesh=mesh)
    groups = integration_cells(mesh, None)
    distinct = sum(len(np.unique(idxs[:, k])) for _, idxs in groups for k in range(2))
    assert sum(len(x) for x in received) == len(parts) * distinct
    assert len(received) == len(parts) * 2 * len(groups)
    assert all(len(np.unique(x, axis=0)) == len(x) for x in received)
    # the grid kernel ran on many more batches than windows were formed
    assert len(grids) > 2 * len(received)
    assert sum(grids) == len(parts) * sum(len(idxs) for _, idxs in groups)
