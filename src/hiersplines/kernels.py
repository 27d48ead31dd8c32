"""Float evaluation kernels, vectorized over batches of points with numpy.

The hot loops of the package are pointwise evaluations: span lookup, the
nonzero-basis triangle, single B-splines from local knot vectors, and
tensor-product spline evaluation over batches of points. Everything
combinatorial (knot bookkeeping, exact rational coefficients) lives in the
higher-level modules; the kernels only ever see float64 arrays.

Conventions: spans are right-continuous in the interior and the value at
the right end of the domain is the limit from the left, so partitions of
unity hold pointwise on the whole closed domain.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "find_spans",
    "basis_columns",
    "local_values",
    "tensor_spline_values",
]

# the one implementation; reported as "backend" in `check --report`
BACKEND = "numpy"


def find_spans(knots, degree, xs):
    n = knots.shape[0] - degree - 1
    spans = np.searchsorted(knots, xs, side="right").astype(np.int64) - 1
    np.clip(spans, degree, n - 1, out=spans)
    return spans


def basis_columns(knots, degree, xs, spans):
    return _nonzero_basis(knots, degree, xs, spans)


def _nonzero_basis(knots, degree, xs, spans):
    # tensor_spline_values calls this directly, so a wrapper installed on
    # basis_columns (perfbench/tracer.py) counts only the outside callers
    m = xs.shape[0]
    p = degree
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


def local_values(tau, degree, xs, domain_right):
    p = degree
    x = np.asarray(xs, dtype=np.float64)
    at_right = x == domain_right
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


def tensor_spline_values(coeffs, knots_flat, knot_offsets, degrees,
                         strides, offsets_table, points):
    m, d = points.shape
    spans = []
    bases = []
    for i in range(d):
        kn = knots_flat[knot_offsets[i]:knot_offsets[i + 1]]
        p = int(degrees[i])
        s = find_spans(kn, p, points[:, i])
        spans.append(s)
        bases.append(_nonzero_basis(kn, p, points[:, i], s))
    out = np.zeros(m)
    for t in range(offsets_table.shape[0]):
        w = np.ones(m)
        idx = np.zeros(m, dtype=np.int64)
        for i in range(d):
            o = int(offsets_table[t, i])
            w *= bases[i][:, o]
            idx += (spans[i] - int(degrees[i]) + o) * int(strides[i])
        out += w * coeffs[idx]
    return out
