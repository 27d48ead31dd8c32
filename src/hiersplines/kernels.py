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

The kernels work in blocks: ``tensor_grid_values`` through batches of
whole grids holding at most ``BLOCK`` nodes (at least one grid), so
``BLOCK`` points for ``tensor_spline_values``; ``local_values`` through
blocks of ``BLOCK`` points; and ``quasiinterp.lq_norm`` batches its cells
by the same constant. Why 4096: every temporary of a block is then one
row of 4096 float64 or int64 values, 32 KiB, under 128 KiB, glibc's
default mmap threshold, and a block's working set of a few dozen rows,
around 1 MiB, stays in cache. Smaller blocks pay numpy's per-call cost
more often: 2048 took 7-10% more CPU time on the sup-norm study of the
benchmark, while 8192 was within the noise of 4096. The tensor kernel
writes its block temporaries (spans, basis rows, products, gathers) into
buffers allocated once per call, so the heap does not shrink and regrow
around them from block to block. The arithmetic per point does not depend
on the block, so each output equals, bit for bit, the concatenation of
the outputs on any split of the points or grids.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "BACKEND",
    "BLOCK",
    "find_spans",
    "basis_columns",
    "local_values",
    "tensor_grid_values",
    "tensor_spline_values",
]

# the one implementation; reported as "backend" in `check --report`
BACKEND = "numpy"

# nodes per block of the kernels and per batch of the quadrature norms
BLOCK = 4096


def find_spans(knots, degree, xs):
    return _spans(knots, degree, xs, np.empty(np.shape(xs), dtype=np.int64))


def _spans(knots, degree, xs, out):
    n = knots.shape[0] - degree - 1
    np.subtract(np.searchsorted(knots, xs, side="right"), 1, out=out)
    return np.clip(out, degree, n - 1, out=out)


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

    tensor_grid_values calls this directly, so a wrapper installed on
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
    return tensor_grid_values(coeffs, knots, degrees,
                              [points[:, k, None] for k in range(d)]).reshape(m)


def tensor_grid_values(coeffs, knots, degrees, axes):
    d = len(axes)
    cells = axes[0].shape[0]
    sizes = [a.shape[1] for a in axes]
    degs = [int(p) for p in degrees]
    strides = [1]
    for k, p in zip(knots[:-1], degs):
        strides.append(strides[-1] * (k.shape[0] - p - 1))
    # per term, first direction fastest: its offset in each direction and
    # the shift of its linear index
    table = [row[::-1] for row in itertools.product(*(range(p + 1) for p in reversed(degs)))]
    terms = [(row, sum(o * s for o, s in zip(row, strides))) for row in table]
    grid = tuple(reversed(sizes))
    out = np.zeros((cells,) + grid)
    chunk = max(1, BLOCK // math.prod(sizes))
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
