"""Exact-arithmetic reference implementations used only by tests."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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
    for i in fine.functions_supported_in(*parent.support):
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
