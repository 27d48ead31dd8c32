"""Float evaluation kernels, vectorized over blocks of points with numpy.

The hot loops of the package are pointwise evaluations: span lookup, the
nonzero-basis triangle, single B-splines from local knot vectors, and
tensor-product spline evaluation over batches of points. Everything
combinatorial (knot bookkeeping, exact rational coefficients) lives in the
higher-level modules; the kernels only ever see float64 arrays.

Conventions: spans are right-continuous in the interior and the value at
the right end of the domain is the limit from the left, so partitions of
unity hold pointwise on the whole closed domain.

``tensor_spline_values`` and ``local_values`` work through their points in
blocks of ``BLOCK`` points, and ``quasiinterp.lq_norm`` batches its
quadrature nodes by the same constant. Why 4096: every temporary of a
block is then one row of 4096 float64 or int64 values, 32 KiB, so the
largest one stays under 128 KiB, glibc's default mmap threshold. It comes
from the heap and is reused, instead of being mapped and page-faulted anew
on every call, and a block's working set of a few dozen rows, around
1 MiB, stays in cache. Smaller blocks pay numpy's per-call cost more often:
2048 took 7-10% more CPU time on the sup-norm study of the benchmark,
while 8192 was within the noise of 4096. The arithmetic per point does not
depend on the block, so each output equals, bit for bit, the concatenation
of the outputs on any split of the points.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "BLOCK",
    "find_spans",
    "basis_columns",
    "local_values",
    "tensor_spline_values",
]

# the one implementation; reported as "backend" in `check --report`
BACKEND = "numpy"

# points per block of the kernels and per batch of the quadrature norms
BLOCK = 4096


def find_spans(knots, degree, xs):
    n = knots.shape[0] - degree - 1
    spans = np.searchsorted(knots, xs, side="right").astype(np.int64) - 1
    np.clip(spans, degree, n - 1, out=spans)
    return spans


def basis_columns(knots, degree, xs, spans):
    return np.stack(_nonzero_basis(knots, degree, xs, spans), axis=1)


def _nonzero_basis(knots, degree, xs, spans):
    """The p+1 functions alive on each point's span, one row per function.

    tensor_spline_values calls this directly, so a wrapper installed on
    basis_columns (perfbench/tracer.py) counts only the outside callers.
    """
    p = degree
    rows = [np.ones(xs.shape[0])]
    left = []
    right = []
    for j in range(1, p + 1):
        left.append(xs - knots[spans + 1 - j])
        right.append(knots[spans + j] - xs)
        saved = None
        for r in range(j):
            tmp = rows[r] / (right[r] + left[j - r - 1])
            term = right[r] * tmp
            rows[r] = term if saved is None else saved + term
            saved = left[j - r - 1] * tmp
        rows.append(saved)
    return rows


def local_values(tau, degree, xs, domain_right):
    x_all = np.asarray(xs, dtype=np.float64)
    out = np.empty(x_all.shape[0])
    for start in range(0, x_all.shape[0], BLOCK):
        x = x_all[start:start + BLOCK]
        # left of a support the triangle can leave -0.0; adding 0.0 makes
        # every zero +0.0
        np.add(_local_block(tau, degree, x, domain_right), 0.0,
               out=out[start:start + BLOCK])
    return out


def _local_block(tau, degree, x, domain_right):
    p = degree
    at_right = x == domain_right
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


def tensor_spline_values(coeffs, knots_flat, knot_offsets, degrees,
                         strides, offsets_table, points):
    m, d = points.shape
    knots = [knots_flat[knot_offsets[i]:knot_offsets[i + 1]] for i in range(d)]
    degs = [int(p) for p in degrees]
    strides = [int(s) for s in strides]
    # per term: its offset in each direction and the shift of its linear index
    terms = [(row, sum(o * s for o, s in zip(row, strides)))
             for row in offsets_table.tolist()]
    out = np.zeros(m)
    for start in range(0, m, BLOCK):
        stop = min(m, start + BLOCK)
        rows = []
        first = 0  # linear index of each point's first term
        for i in range(d):
            x = np.ascontiguousarray(points[start:stop, i])
            spans = find_spans(knots[i], degs[i], x)
            rows.append(_nonzero_basis(knots[i], degs[i], x, spans))
            first = first + (spans - degs[i]) * strides[i]
        acc = out[start:stop]
        for offsets, shift in terms:
            w = rows[0][offsets[0]]
            for i in range(1, d):
                w = w * rows[i][offsets[i]]
            acc += w * coeffs[first + shift]
    return out
