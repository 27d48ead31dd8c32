"""Float evaluation kernels, vectorized over blocks of points with numpy.

The hot loops of the package are evaluations: span lookup, the
nonzero-basis triangle, single B-splines from local knot vectors, and
tensor-product splines. Everything combinatorial (knot bookkeeping, exact
rational coefficients) lives in the higher-level modules; the kernels only
ever see float64 arrays.

Conventions: the domain is [0, 1] in every direction, as ``KnotVector``
guarantees. Spans are right-continuous in the interior and the value at
the right end 1.0 is the limit from the left, so partitions of unity hold
pointwise on the whole closed domain.

``local_values(tau, degree, xs)`` evaluates B-splines from their local
knot vectors by the Cox-de Boor triangle: one vector of degree+2 knots,
or an (m, degree+2) stack of them, one table row per vector, so that the
invariant suite tabulates every function of a knot vector in one call.
The points go in blocks of ``BLOCK`` and the vectors in chunks of at
most ``GRID_BLOCK // len(block)`` (at least one), so each temporary of
the triangle holds at most about ``GRID_BLOCK`` numbers, and memory
follows the returned table rather than degree+2 times it. The arithmetic
per vector and point does not depend on the stack, the block or the
chunk: a stacked call equals the calls on its rows, bit for bit.

Tensor-product splines with dense coefficients ``coeffs`` (first
direction fastest) over the per-direction knot arrays ``knots``
(``KnotVector.floats``) and ``degrees`` have two entries.

``tensor_spline_values(coeffs, knots, degrees, points)`` evaluates at the
rows of an (m, d) array ``points``, in blocks of ``BLOCK`` points. Per
point it sums the (p+1)^d terms of the tensor product in the order of the
coefficient offsets, each weight the product of the point's basis values
in direction order. The pointwise callers (``evaluate``, the level
operator, the invariant suite and so ``check``) have always summed in
that order, and keeping it keeps their outputs bit for bit.

``tensor_grid_values(coeffs, knots, degrees, axes)`` evaluates on c tensor
grids, ``axes[k]`` a (c, n_k) array whose row r holds the k-th coordinates
of grid r; the error norms, whose nodes all lie on per-cell grids, use it.
It sums the same terms by sum factorisation (Antolin, Buffa, Calabro,
Martinelli & Sangalli, CMAME 285, 2015). Per direction it finds the span
and the p+1 nonzero basis values of every sample of an axis row, as the
pointwise entry does; the sample on a cell's right edge keeps its
right-continuous span, which is the next cell's. The window of a row is
the ordered set of functions alive at some of its samples, so the
function of span s and offset o at a sample is one of s - p, ..., s; the
basis values widen to a (w_k, n_k) matrix over the window, zero where a
function is not alive at a sample. Each grid gathers the windows of its
rows; its coefficient block over its windows is gathered once, and
contracted with the widened matrices one direction at a time, the last
direction first, with ``np.matmul``. A function alive at no node of a
grid is not in its window, and its coefficient is not read. Work and
memory per grid follow its own windows. The contraction rounds
differently from the pointwise sum, by a few ulps of the sum of the
terms' magnitudes.

The windows are formed once per distinct axis row. Axes given as a
``GridAxes`` carry, per direction, their distinct rows and each grid's
index into them, and a cache of the windows per direction and knot
vector. The norms hand the kernel one ``GridAxes`` per batch, all the
batches of a level sharing the rows and the cache, so the rows of a level
are evaluated once per part and direction: an n x n level has n distinct
rows per direction for its n^2 cells. Plain (c, n_k) axes are their own
distinct rows.

Grids are contracted in runs of consecutive grids with windows of one
shape, and a run in parts whose coefficient blocks and partial
contractions hold at most about ``GRID_BLOCK`` numbers each. Each grid's
products are its own (``np.matmul`` multiplies the matrices of each grid
separately), so a grid's values do not depend on the other grids of a
call, bit for bit: the outputs on any split of the grids concatenate to
the output on all of them. The norms rely on that to share per-cell rows
between regions.

``quasiinterp.lq_norm`` hands the grid kernel its cells in batches of at
most ``GRID_BLOCK`` nodes (at least one cell). Why 12288 nodes per batch:
every full-size temporary of a batch is then one row of at most 12288
float64 values, 96 KiB, under the 128 KiB mmap threshold that the
benchmark fixes (glibc's default), so the rows come from the heap and are
not mapped, faulted in and unmapped per batch. Measured with
``perfbench/run.py`` (``--seconds 8``, interleaved runs) on
``study_uniform_sup`` with the former per-term grid kernel: against 4096,
8192 nodes took 17-19% less time, 12288 and 15360 26-32% less, and 16384,
whose 128 KiB rows are mapped, 20% less. For the same reason the triangle
keeps each basis row and temporary in its own array, and the grid kernel
takes its samples sample-major, so that its reductions and broadcasts over
the grids of a batch run along long rows. Why 4096 points per pointwise
block: a block keeps about fifteen rows of that length, and 12288 raised
the peak memory of the invariant suite (``check_nested``) by about 1 MB
with no gain in time, while 2048 took 7-10% more CPU time on the sup-norm
study before the grid batches existed. The arithmetic per point does not
depend on the block, so each pointwise output equals, bit for bit, the
concatenation of the outputs on any split of the points.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "BACKEND",
    "BLOCK",
    "GRID_BLOCK",
    "GridAxes",
    "find_spans",
    "basis_columns",
    "local_values",
    "tensor_grid_values",
    "tensor_spline_values",
]

# the one implementation; reported as "backend" in `check --report`
BACKEND = "numpy"

# points per block of the pointwise kernels
BLOCK = 4096
# nodes per batch of whole grids, in the grid kernel and the norms, and
# numbers per temporary of a stacked local_values
GRID_BLOCK = 12288


def find_spans(knots, degree, xs):
    out = np.empty(np.shape(xs), dtype=np.int64)
    np.subtract(np.searchsorted(knots, xs, side="right"), 1, out=out)
    # np.clip, without its wrapper's cost per call
    return np.minimum(np.maximum(out, degree, out=out), knots.shape[0] - degree - 2, out=out)


def basis_columns(knots, degree, xs, spans):
    return np.stack(_nonzero_basis(knots, degree, xs, spans), axis=1)


def _nonzero_basis(knots, degree, xs, spans):
    """The p+1 functions alive on each point's span, one row per function.
    Each row and each temporary of the triangle is its own array, so each
    stays as small as a block.

    The tensor kernels call this directly, so a wrapper installed on
    basis_columns (perfbench/tracer.py) counts only the outside callers.
    """
    p, m = degree, xs.shape[0]
    rows = [np.ones(m)] + [np.empty(m) for _ in range(p)]
    left, right = [np.empty(m) for _ in range(p)], [np.empty(m) for _ in range(p)]
    tmp, saved, index = np.empty(m), np.empty(m), np.empty(m, dtype=np.int64)
    # every take here reads in range; mode "clip" because the default
    # "raise" buffers a take's output instead of writing it in place
    for j in range(1, p + 1):
        # left = xs - knots[spans + 1 - j], right = knots[spans + j] - xs
        knots.take(np.add(spans, 1 - j, out=index), out=left[j - 1], mode="clip")
        np.subtract(xs, left[j - 1], out=left[j - 1])
        knots.take(np.add(spans, j, out=index), out=right[j - 1], mode="clip")
        np.subtract(right[j - 1], xs, out=right[j - 1])
        for r in range(j):
            np.add(right[r], left[j - r - 1], out=tmp)
            np.divide(rows[r], tmp, out=tmp)
            np.multiply(right[r], tmp, out=rows[r])
            if r:
                np.add(saved, rows[r], out=rows[r])
            np.multiply(left[j - r - 1], tmp, out=saved)
        rows[j][...] = saved
    return rows


def local_values(tau, degree, xs):
    """The B-splines of ``degree`` on local knot vectors at the points xs:
    for one vector ``tau`` of degree+2 knots its (n,) values, for an
    (m, degree+2) stack of them an (m, n) table, one row per vector.
    Points go in blocks of BLOCK and vectors in chunks of at most
    GRID_BLOCK numbers per temporary, as the module explains."""
    taus = np.asarray(tau, dtype=np.float64)
    stack, x_all = taus.reshape(-1, degree + 2), np.asarray(xs, dtype=np.float64)
    out = np.empty(taus.shape[:-1] + x_all.shape)
    table = out.reshape(len(stack), x_all.shape[0])
    for start in range(0, x_all.shape[0], BLOCK):
        x = x_all[start:start + BLOCK]
        step = max(1, GRID_BLOCK // x.shape[0])
        for first in range(0, table.shape[0], step):
            table[first:first + step, start:start + BLOCK] = \
                _local_block(stack[first:first + step], degree, x)
    return out


def _local_block(tau, degree, x):
    """The Cox-de Boor triangle of the rows of an (m, degree+2) stack of
    local knot vectors at the points x. A term over a zero knot span is
    masked out, after a division by 1.0 in its place, and each step adds
    its two terms, so every zero comes out +0.0."""
    p, t = degree, [tau[:, i, None] for i in range(degree + 2)]
    at_right = x == 1.0  # the right end of the domain
    n = []
    for i in range(p + 1):
        half_open = (t[i] <= x) & (x < t[i + 1])
        left_limit = (t[i] < x) & (x <= t[i + 1])
        n.append(np.where(at_right, left_limit, half_open))
    for k in range(1, p + 1):
        for i in range(p + 1 - k):
            d1, d2 = t[i + k] - t[i], t[i + k + 1] - t[i + 1]
            left, right = d1 > 0.0, d2 > 0.0
            n[i] = np.where(left, (x - t[i]) / np.where(left, d1, 1.0) * n[i], 0.0) \
                + np.where(right, (t[i + k + 1] - x) / np.where(right, d2, 1.0) * n[i + 1], 0.0)
    return n[0]


def tensor_spline_values(coeffs, knots, degrees, points):
    m, d = points.shape
    degs = [int(p) for p in degrees]
    strides = [math.prod(k.shape[0] - p - 1 for k, p in zip(knots[:i], degs)) for i in range(d)]
    out = np.zeros(m)
    for start in range(0, m, BLOCK):
        rows, lead = [], 0
        for k, p in enumerate(degs):
            x = np.ascontiguousarray(points[start:start + BLOCK, k])
            s = find_spans(knots[k], p, x)
            rows.append(_nonzero_basis(knots[k], p, x, s))
            lead = lead + (s - p) * strides[k]
        acc, taken = out[start:start + BLOCK], np.empty(lead.size)
        # term by term in the order of the coefficient offsets, first
        # direction fastest; a term's weight is the product of its basis
        # values in direction order
        for reverse in itertools.product(*(range(p + 1) for p in reversed(degs))):
            offsets = reverse[::-1]
            w = math.prod((r[o] for r, o in zip(rows[1:], offsets[1:])), start=rows[0][offsets[0]])
            shift = sum(o * t for o, t in zip(offsets, strides))
            acc += np.multiply(w, coeffs[shift:].take(lead, out=taken, mode="clip"), out=taken)
    return out


class GridAxes(list):
    """The d (c, n_k) axes of c tensor grids, ``self[k]`` gathered as
    ``rows[k][index[k]]`` from the distinct rows ``rows[k]`` of direction
    k, carrying the rows, the index and a dict ``cache`` of the grid
    kernel's windows on the rows. Axes that share rows and cache share the
    windows: the norms pass one per batch of a level."""

    def __init__(self, rows, index, cache):
        super().__init__(r[i] for r, i in zip(rows, index))
        self.rows, self.index, self.cache = rows, index, cache

    def windows(self, k, knots, degree):
        """The windows of direction k, per grid its first entry and its
        width, then per entry its function and its basis row, for a part
        on ``knots`` of ``degree``; formed on the distinct rows once per
        cache."""
        if (key := (k, degree, knots.tobytes())) not in self.cache:
            self.cache[key] = _windows(knots, degree, self.rows[k])
        first, width, funcs, rows = self.cache[key]
        return first[self.index[k]], width[self.index[k]], funcs, rows


def tensor_grid_values(coeffs, knots, degrees, axes):
    # plain axes are their own distinct rows
    axes = axes if isinstance(axes, GridAxes) else GridAxes(axes, [slice(None)] * len(axes), {})
    sizes = [a.shape[1] for a in axes]
    out = np.empty((axes[0].shape[0],) + tuple(reversed(sizes)))
    if not out.size:
        return out
    counts = [k.shape[0] - int(p) - 1 for k, p in zip(knots, degrees)]
    dirs = [axes.windows(k, kn, int(p)) for k, (kn, p) in enumerate(zip(knots, degrees))]
    # each run of grids whose windows have one shape is contracted in parts
    # whose blocks and partial contractions hold at most about GRID_BLOCK
    # numbers
    changes = np.any([np.diff(width) for _, width, _, _ in dirs], axis=0)
    ends = (np.flatnonzero(changes) + 1).tolist() + [len(out)]
    for first, last in zip([0] + ends, ends):
        widths = [int(width[first]) for _, width, _, _ in dirs]
        step = max(1, GRID_BLOCK // math.prod(map(max, sizes, widths)))
        for start in range(first, last, step):
            stop = min(last, start + step)
            out[start:stop] = _contract(coeffs, counts, widths, dirs, start, stop)
    return out


def _windows(knots, degree, x):
    """For c grids of n samples ``x`` in one direction, the window of each
    grid: the functions alive at some sample of the grid, in order, the
    windows laid end to end. Returns per grid its first entry and its
    width, and per entry its function and its (n,) values at the grid's
    samples, zero at the samples where it is not alive.

    The samples are taken sample-major, so that the reductions and
    broadcasts over the grids run along long rows."""
    c, n = x.shape
    x = np.ascontiguousarray(x.T).reshape(-1)
    s = find_spans(knots, degree, x)
    values = np.array(_nonzero_basis(knots, degree, x, s))
    # each grid's range from its lowest alive function to its highest, the
    # ranges laid end to end: function f of grid r sits at f + shift[r],
    # and a sample of span s marks the functions s - p, ..., s alive
    s = s.reshape(n, c)
    low, high = s.min(axis=0) - degree, s.max(axis=0)
    end = np.cumsum(high - low + 1)
    shift = end - high - 1
    at = (s + shift)[None] + np.arange(-degree, 1)[:, None, None]
    alive = np.zeros(end[-1], dtype=bool)
    alive[at] = True
    rank = np.cumsum(alive) - 1
    first = rank[low + shift]
    width = rank[end - 1] + 1 - first
    funcs = np.flatnonzero(alive) - np.repeat(shift, width)
    rows = np.zeros((funcs.size, n))
    rows.reshape(-1)[rank[at] * n + np.arange(n)[:, None]] = values.reshape(degree + 1, n, c)
    return first, width, funcs, rows


def _contract(coeffs, counts, widths, dirs, start, stop):
    """The values on the grids ``start`` to ``stop``, whose windows have
    the widths ``widths``: each grid's w entries from its first one give
    its window's functions and (w, n) basis rows, and its coefficient
    block over its windows, gathered once, is contracted with the basis
    rows of one direction after the other, the last direction first."""
    d, g, block, bases = len(dirs), stop - start, 0, []
    for k, ((first, _, funcs, rows), w) in enumerate(zip(dirs, widths)):
        entries = first[start:stop, None] + np.arange(w)
        bases.append(rows[entries])
        index = funcs[entries] * math.prod(counts[:k])
        block = block + index.reshape((g,) + (1,) * (d - 1 - k) + (w,) + (1,) * k)
    t = coeffs.take(block)
    for k in range(d - 1, 0, -1):
        # direction k, between the slower directions done and the faster ones
        t = np.matmul(bases[k].transpose(0, 2, 1)[:, None],
                      t.reshape(g, math.prod(b.shape[2] for b in bases[k + 1:]), widths[k], -1))
    t = np.matmul(t.reshape(g, -1, widths[0]), bases[0])
    return t.reshape((g,) + tuple(b.shape[2] for b in reversed(bases)))
