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

    Float arrays of either layout are kept without a copy: row-major
    (n, 4) samples, or the transposed view of (4, n) component rows that
    the integrators in geodesics return.  The kernels give the same bits
    on both.
    """

    def __init__(self, s, points, velocities=None, meta=None):
        s, points = np.asarray(s, dtype=float), np.asarray(points, dtype=float)
        self.s = s.reshape(1) if s.ndim == 0 else s  # as np.atleast_1d and np.atleast_2d shape them
        self.points = points.reshape(1, -1) if points.ndim < 2 else points
        vel = None if velocities is None else np.asarray(velocities, dtype=float)
        self.velocities = vel.reshape(1, -1) if vel is not None and vel.ndim < 2 else vel
        self.meta = {} if meta is None else meta
        if self.points.shape != (len(self.s), 4):
            raise ValueError("points must have shape (len(s), 4)")
        if self.velocities is not None and self.velocities.shape != self.points.shape:
            raise ValueError("velocities must match points in shape")
        if (self.s[1:] < self.s[:-1]).any():
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


def _grid_steps(s):
    """np.diff(s), after checking that the grid s is strictly increasing, as finite differences need."""
    steps = s[1:] - s[:-1]
    if (steps <= 0.0).any():
        raise ValueError("finite differences need a strictly increasing grid")
    return steps


def _second_difference(s, p):
    """Three-point second differences on rows 1..n-2 of a strictly increasing grid s, exact on quadratics.

    Returns the (n-2, 4) transpose of a (4, n-2) block with one component to a row:
    the slopes (p[k+1] - p[k]) / (s[k+1] - s[k]) sit on contiguous rows, and each
    difference of neighbouring slopes is divided by (s[k+2] - s[k]) / 2.
    """
    steps = _grid_steps(s)
    slopes = np.subtract(p[1:].T, p[:-1].T, out=np.empty((p.shape[1], len(p) - 1)))
    slopes /= steps
    acc = slopes[:, 1:] - slopes[:, :-1]
    acc *= 2.0
    acc /= steps[:-1] + steps[1:]
    return acc.T


def fd_velocities(curve: SampledCurve) -> np.ndarray:
    """Finite-difference velocities at the grid scale.

    Central differences in the interior, one-sided at the two ends.
    Requires at least two samples and a strictly increasing grid.
    """
    s, p = curve.s, curve.points
    if curve.n < 2:
        raise ValueError("need at least 2 samples to difference")
    _grid_steps(s)
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
    return float(np.abs(norm(curve.points) - 1.0).max())
