"""Discretized curves on the sphere and their residual diagnostics."""

from __future__ import annotations

import numpy as np

from .frames import omega_eval
from .quaternions import norm

__all__ = [
    "SampledCurve",
    "fd_velocities",
    "omega_fd_residuals",
    "unit_norm_error",
]


class SampledCurve:
    """A sampled path on the sphere.

    s           : (n,) non-decreasing parameter grid
    points      : (n, 4) samples on the sphere
    velocities  : optional (n, 4) tangent vectors at the samples
    meta        : construction tag and parameters (a new dict if None)
    """

    def __init__(self, s, points, velocities=None, meta=None):
        self.s = np.atleast_1d(np.asarray(s, dtype=float))
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.velocities = None if velocities is None else np.atleast_2d(np.asarray(velocities, dtype=float))
        self.meta = {} if meta is None else meta
        if self.points.shape != (len(self.s), 4):
            raise ValueError("points must have shape (len(s), 4)")
        if self.velocities is not None and self.velocities.shape != self.points.shape:
            raise ValueError("velocities must match points in shape")
        if np.any(np.diff(self.s) < 0.0):
            raise ValueError("parameter grid must be non-decreasing")

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]


def _first_difference(s, p):
    """Central first differences on rows 1..n-2 of the grid s."""
    return (p[2:] - p[:-2]) / (s[2:] - s[:-2])[:, None]


def _second_difference(s, p):
    """Three-point second differences on rows 1..n-2 of the grid s (exact on quadratics)."""
    h0, h1 = (s[1:-1] - s[:-2])[:, None], (s[2:] - s[1:-1])[:, None]
    return 2.0 * ((p[2:] - p[1:-1]) / h1 - (p[1:-1] - p[:-2]) / h0) / (h0 + h1)


def fd_velocities(curve: SampledCurve) -> np.ndarray:
    """Finite-difference velocities at the grid scale.

    Central differences in the interior, one-sided at the two ends.
    Requires at least two samples and a strictly increasing grid.
    """
    s, p = curve.s, curve.points
    if curve.n < 2:
        raise ValueError("need at least 2 samples to difference")
    if np.any(np.diff(s) <= 0.0):
        raise ValueError("finite differences need a strictly increasing grid")
    v = np.empty_like(p)
    v[1:-1] = _first_difference(s, p)
    v[0] = (p[1] - p[0]) / (s[1] - s[0])
    v[-1] = (p[-1] - p[-2]) / (s[-1] - s[-2])
    return v


def omega_fd_residuals(curve: SampledCurve) -> np.ndarray:
    """|omega| applied to the finite-difference velocities, per sample."""
    v = fd_velocities(curve)
    return np.abs(omega_eval(curve.points, v))


def unit_norm_error(curve: SampledCurve) -> float:
    """max | |point| - 1 | over the samples."""
    return float(np.max(np.abs(norm(curve.points) - 1.0)))
