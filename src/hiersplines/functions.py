"""Built-in smooth test functions with analytic directional derivatives.

Every catalog entry is a tensor product of univariate factors, so a mixed
directional derivative only differentiates one factor. The derivative
callbacks feed the right-hand sides of approximation-order reports; the
interpolation machinery itself never needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import hermite

from .errors import HierSplineError

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
    """Product of per-direction factors, callable on (m, d) point arrays."""

    name: str
    dim: int
    factors: tuple[Factor, ...]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self._product(points, 0, 0)

    def directional_derivative(self, direction: int, order: int) -> Callable[[np.ndarray], np.ndarray]:
        if not 0 <= direction < self.dim:
            raise HierSplineError(f"direction {direction} out of range")
        return lambda points: self._product(points, direction, order)

    def _product(self, points: np.ndarray, direction: int, order: int) -> np.ndarray:
        """The factors at the points, in direction order, with the one of
        ``direction`` differentiated ``order`` times."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        out = np.ones(pts.shape[0])
        for i, factor in enumerate(self.factors):
            out *= factor(pts[:, i], order if i == direction else 0)
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
