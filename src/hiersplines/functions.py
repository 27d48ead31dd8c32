"""Built-in smooth test functions with analytic directional derivatives.

Every catalog entry is a tensor product of univariate factors, so a mixed
directional derivative only differentiates one factor. The derivative
callbacks feed the right-hand sides of approximation-order reports; the
interpolation machinery itself never needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import hermite

from .errors import HierSplineError
from .tensor import as_axes

Factor = Callable[[np.ndarray, int], np.ndarray]


def _sine_factor(xs: np.ndarray, order: int) -> np.ndarray:
    w = 2.0 * math.pi
    return w ** order * np.sin(w * xs + order * math.pi / 2.0)


def _gaussian_factor(center: float, width: float) -> Factor:
    def factor(xs: np.ndarray, order: int) -> np.ndarray:
        t = (xs - center) / (math.sqrt(2.0) * width)
        base = np.exp(-t * t)
        if order == 0:
            return base
        coeff = np.zeros(order + 1)
        coeff[order] = 1.0
        herm = hermite.hermval(t, coeff)
        scale = (-1.0 / (math.sqrt(2.0) * width)) ** order
        return scale * herm * base

    return factor


def _poly_factor(coefficients: Sequence[float]) -> Factor:
    def factor(xs: np.ndarray, order: int) -> np.ndarray:
        c = np.polynomial.polynomial.polyder(np.asarray(coefficients, float), order) \
            if order else np.asarray(coefficients, float)
        return np.polynomial.polynomial.polyval(xs, c)

    return factor


@dataclass(frozen=True)
class TestFunction:
    """Product of per-direction factors, callable on (m, d) point arrays,
    with the factor of ``direction`` differentiated ``order`` times."""

    name: str
    dim: int
    factors: tuple[Factor, ...]
    direction: int = 0
    order: int = 0

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise HierSplineError(
                f"points of shape {pts.shape} for a function of dimension {self.dim}")
        return self._product([pts[:, i] for i in range(self.dim)], pts.shape[:1])

    def on_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """The values on c tensor grids, ``axes[k]`` holding the (c, n_k)
        coordinates of direction k, as (c, n_{d-1}, ..., n_0)."""
        axes = as_axes(axes, self.dim)
        c = axes[0].shape[0]
        coords = []
        for k, a in enumerate(axes):
            # direction k in place k of the grid shape, counted from the last
            shape = [c] + [1] * self.dim
            shape[self.dim - k] = a.shape[1]
            coords.append(a.reshape(shape))
        return self._product(coords, (c,) + tuple(a.shape[1] for a in reversed(axes)))

    def directional_derivative(self, direction: int, order: int) -> TestFunction:
        if not 0 <= direction < self.dim:
            raise HierSplineError(f"direction {direction} out of range")
        if isinstance(order, bool) or not isinstance(order, Integral) or order < 0:
            raise HierSplineError(f"derivative order must be an integer >= 0, got {order!r}")
        if self.order and direction != self.direction:
            raise HierSplineError("mixed derivatives are not supported")
        return replace(self, direction=direction, order=self.order + int(order))

    def _product(self, coords: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
        """The factors at the coordinates, in direction order, multiplied
        into the first one broadcast to ``shape``: the same values as from
        ones of ``shape``, since 1.0 * x == x, without the fill."""
        out = np.empty(shape)
        for i, (factor, x) in enumerate(zip(self.factors, coords)):
            vals = factor(x, self.order if i == self.direction else 0)
            if i:
                out *= vals
            else:
                out[...] = vals
        return out


def get_function(name: str, dim: int,
                 degrees: Sequence[int] | None = None) -> TestFunction:
    """Catalog lookup: ``sin``, ``gauss`` or ``poly``.

    ``poly`` builds a tensor polynomial with per-direction degree taken
    from ``degrees`` (so the interpolant reproduces it exactly).
    """
    key = name.strip().lower()
    if key in ("sin", "sine", "sinusoid"):
        return TestFunction(key, dim, tuple([_sine_factor] * dim))
    if key in ("gauss", "gaussian", "bump"):
        return TestFunction(key, dim, tuple(
            _gaussian_factor(0.5, 0.15) for _ in range(dim)))
    if key in ("poly", "polynomial"):
        if degrees is None:
            raise HierSplineError("poly needs the per-direction degrees")
        factors = []
        for p in degrees:
            coeffs = [1.0 / (k + 1.0) for k in range(p + 1)]
            factors.append(_poly_factor(coeffs))
        return TestFunction(key, dim, tuple(factors))
    raise HierSplineError(f"unknown test function {name!r}; "
                          "available: sin, gauss, poly")
