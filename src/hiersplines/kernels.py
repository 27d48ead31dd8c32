"""Float evaluation kernels, vectorized over blocks of points with numpy.

The hot loops of the package are pointwise evaluations: span lookup, the
nonzero-basis triangle, single B-splines from local knot vectors, and
tensor-product spline evaluation. Everything combinatorial (knot
bookkeeping, exact rational coefficients) lives in the higher-level
modules; the kernels only ever see float64 arrays.

Conventions: the domain is [0, 1] in every direction, as ``KnotVector``
guarantees. Spans are right-continuous in the interior and the value at
the right end 1.0 is the limit from the left, so partitions of unity hold
pointwise on the whole closed domain.

Tensor-product splines are evaluated by one kernel body with two entries.
``tensor_grid_values(coeffs, knots, degrees, axes)`` evaluates the spline
with dense coefficients ``coeffs`` (first direction fastest) over the
per-direction knot arrays ``knots`` (``KnotVector.floats``) and
``degrees`` on c tensor grids: ``axes[k]`` is a (c, n_k) array whose row
r holds the k-th coordinates of grid r. Spans and nonzero basis functions
are found once per axis sample, and each term's product of basis values
and its coefficient gather are formed by broadcasting over the grid, so
the error norms, whose nodes all lie on per-cell tensor grids, pay the
triangle per direction and not per point. ``tensor_spline_values(coeffs,
knots, degrees, points)`` is the entry for the rows of an (m, d) array
``points``: m grids of one node each. Either way every value is the same
sequence of scalar operations, term by term in the order of the
coefficient offsets, so a point's value does not depend on the grid it
was given in.

The kernels work in blocks. ``tensor_spline_values`` and ``local_values``
take blocks of ``BLOCK`` points; ``tensor_grid_values`` takes batches of
whole grids holding at most ``GRID_BLOCK`` nodes (at least one grid), and
``quasiinterp.lq_norm`` hands it its cells in batches of that size. The
tensor kernel writes a block's temporaries (spans, basis rows, products,
gathers) into buffers allocated once per call, and its table of terms
and strides is kept per degree and basis size, so what a block costs
beyond its nodes is numpy's per-call cost: two dozen small operations per
direction for the span search and the basis triangle, and four per term.
On a 64x64 quadratic level at the sup norm's 32x32 sample per cell that
is about 100 us per block, against about 26 us per cell (shared 2-CPU
Xeon, numpy 2.4): at 4096 nodes, four such cells, the fixed part took
half the kernel's time. Why 12288 nodes per grid batch: every temporary
of a batch is then one row of at most 12288 float64 or int64 values,
96 KiB, under the 128 KiB mmap threshold that the benchmark fixes
(glibc's default), so the rows come from the heap and are not mapped,
faulted in and unmapped per batch. Measured with ``perfbench/run.py``
(``--seconds 8``, interleaved runs) on ``study_uniform_sup``: against
4096, 8192 nodes took 17-19% less time, 12288 and 15360 26-32% less, and
16384, whose 128 KiB rows are mapped, 20% less. Of the two best, 12288
keeps a batch's rows smaller, and the peak memory of ``adaptive_enlarge``
with them. Why 4096 points per block: a block of points keeps about
fifteen rows of that length, one per basis function and direction
besides the products, and 12288 raised the peak memory of the invariant
suite (``check_nested``) by about 1 MB with no gain in time, while 2048
took 7-10% more CPU time on the sup-norm study before the grid batches
existed. The arithmetic per point does not depend on the block, so each
output equals, bit for bit, the concatenation of the outputs on any split
of the points or grids.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "BACKEND",
    "BLOCK",
    "GRID_BLOCK",
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
# nodes per batch of whole grids, in the grid kernel and the norms
GRID_BLOCK = 12288


def find_spans(knots, degree, xs):
    return _spans(knots, degree, xs, np.empty(np.shape(xs), dtype=np.int64))


def _spans(knots, degree, xs, out):
    n = knots.shape[0] - degree - 1
    np.subtract(np.searchsorted(knots, xs, side="right"), 1, out=out)
    # np.clip, without its wrapper's cost per call
    return np.minimum(np.maximum(out, degree, out=out), n - 1, out=out)


def basis_columns(knots, degree, xs, spans):
    m = xs.shape[0]
    work = [np.empty(m) for _ in range(3 * degree + 3)]
    return np.stack(_nonzero_basis(knots, degree, xs, spans, work,
                                   np.empty(m, dtype=np.int64)), axis=1)


def _nonzero_basis(knots, degree, xs, spans, work, index):
    """The p+1 functions alive on each point's span, one row per function:
    the first p+1 of the float rows ``work``, at least 3p+3, whose next 2p+2
    rows and the int row ``index`` take the triangle's temporaries. Each
    row is its own array, so each stays as small as a block.

    _blocked_grid_values calls this directly, so a wrapper installed on
    basis_columns (perfbench/tracer.py) counts only the outside callers.
    """
    p = degree
    rows, left, right = work[:p + 1], work[p + 1:2 * p + 1], work[2 * p + 1:3 * p + 1]
    tmp, saved = work[3 * p + 1], work[3 * p + 2]
    rows[0][...] = 1.0
    # every take here and in tensor_grid_values reads in range; mode "clip"
    # because the default "raise" buffers a take's output instead of
    # writing it in place
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
    x_all = np.asarray(xs, dtype=np.float64)
    out = np.empty(x_all.shape[0])
    for start in range(0, x_all.shape[0], BLOCK):
        x = x_all[start:start + BLOCK]
        # left of a support the triangle can leave -0.0; adding 0.0 makes
        # every zero +0.0
        np.add(_local_block(tau, degree, x), 0.0,
               out=out[start:start + BLOCK])
    return out


def _local_block(tau, degree, x):
    p = degree
    at_right = x == 1.0  # the right end of the domain
    n = []
    for i in range(p + 1):
        half_open = (tau[i] <= x) & (x < tau[i + 1])
        left_limit = (tau[i] < x) & (x <= tau[i + 1])
        n.append(np.where(at_right, left_limit, half_open))
    for k in range(1, p + 1):
        for i in range(p + 1 - k):
            d1 = tau[i + k] - tau[i]
            d2 = tau[i + k + 1] - tau[i + 1]
            acc = 0.0
            if d1 > 0.0:
                acc = (x - tau[i]) / d1 * n[i]
            if d2 > 0.0:
                acc = acc + (tau[i + k + 1] - x) / d2 * n[i + 1]
            n[i] = acc
    return n[0]


def tensor_spline_values(coeffs, knots, degrees, points):
    m, d = points.shape
    return _blocked_grid_values(coeffs, knots, degrees,
                                [points[:, k, None] for k in range(d)], BLOCK).reshape(m)


@lru_cache(maxsize=64)
def _terms(degrees, counts):
    """The stride of each direction in the dense coefficients (first
    direction fastest) and, per term of the tensor product in that order,
    its offset in each direction and the shift of its linear index."""
    strides = [1]
    for n in counts[:-1]:
        strides.append(strides[-1] * n)
    table = [row[::-1] for row in itertools.product(*(range(p + 1) for p in reversed(degrees)))]
    return tuple(strides), tuple((row, sum(o * s for o, s in zip(row, strides)))
                                 for row in table)


def tensor_grid_values(coeffs, knots, degrees, axes):
    return _blocked_grid_values(coeffs, knots, degrees, axes, GRID_BLOCK)


def _blocked_grid_values(coeffs, knots, degrees, axes, block):
    d = len(axes)
    cells = axes[0].shape[0]
    sizes = [a.shape[1] for a in axes]
    degs = tuple(int(p) for p in degrees)
    strides, terms = _terms(degs, tuple(k.shape[0] - p - 1 for k, p in zip(knots, degs)))
    grid = tuple(reversed(sizes))
    out = np.zeros((cells,) + grid)
    chunk = max(1, block // math.prod(sizes))
    # buffers for one batch of whole grids, allocated once per call
    full = (min(chunk, cells),) + grid
    weight, gathered = np.empty(full), np.empty(full)
    first = np.empty(full, dtype=np.int64)
    # per direction its basis rows; the samples, spans and the triangle's
    # temporaries are shared, as each direction is done with them before
    # the next one starts
    samples = [min(chunk, cells) * n for n in sizes]
    basis = [[np.empty(s) for _ in range(p + 1)] for p, s in zip(degs, samples)]
    most = max(samples)
    x_all, scratch = np.empty(most), [np.empty(most) for _ in range(2 * max(degs) + 2)]
    spans, index = np.empty(most, dtype=np.int64), np.empty(most, dtype=np.int64)
    for start in range(0, cells, chunk):
        stop = min(cells, start + chunk)
        c = stop - start
        rows = []
        lead = first[:c]
        for k in range(d):
            m = c * sizes[k]
            # the axis broadcast against the grid: its samples in place k
            # of the grid shape, counted from the last
            shape = [c] + [1] * d
            shape[d - k] = sizes[k]
            x = x_all[:m]
            x.reshape(c, sizes[k])[...] = axes[k][start:stop]
            s = _spans(knots[k], degs[k], x, spans[:m])
            work = [row[:m] for row in basis[k]] + [row[:m] for row in scratch]
            _nonzero_basis(knots[k], degs[k], x, s, work, index[:m])
            rows.append([row.reshape(shape) for row in work[:degs[k] + 1]])
            np.multiply(np.subtract(s, degs[k], out=s), strides[k], out=s)
            if k:
                np.add(lead, s.reshape(shape), out=lead)
            else:
                lead[...] = s.reshape(shape)
        acc, w, g = out[start:stop], weight[:c], gathered[:c]
        for offsets, shift in terms:
            if d == 1:
                w = rows[0][offsets[0]]
            else:
                np.multiply(rows[0][offsets[0]], rows[1][offsets[1]], out=w)
                for i in range(2, d):
                    np.multiply(w, rows[i][offsets[i]], out=w)
            # coeffs[lead + shift], read from the coefficients past the shift
            coeffs[shift:].take(lead, out=g, mode="clip")
            np.add(acc, np.multiply(w, g, out=g), out=acc)
    return out
