"""Angle chart on the unit 3-sphere.

A point is written with three angles (phi, psi, theta) through the
half-angle combinations alpha = (phi+psi)/2, beta = (phi-psi)/2:

    x1 = cos(alpha) cos(theta/2)      y1 = cos(beta) sin(theta/2)
    x2 = sin(alpha) cos(theta/2)      y2 = sin(beta) sin(theta/2)

with theta in [0, pi].  Restricted to the sphere the one-form omega
becomes (sin(theta) sin(psi) dphi + cos(psi) dtheta) / 2, so a curve in
chart coordinates is horizontal exactly when

    sin(theta) sin(psi) phi' + cos(psi) theta' = 0.

phi and psi are stored unnormalized (curves may wind); the chart is
singular on the circles theta = 0 and theta = pi, where one of alpha,
beta is undefined.

The chart map _chart_columns (points and velocities from one trig pass,
written column by column into two (..., 4) arrays) and its inverse
_angle_arrays are the vectorized kernels; to_cartesian, chart_velocity
and from_cartesian are their single-point forms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .quaternions import check_unit

__all__ = [
    "EulerAngles",
    "to_cartesian",
    "from_cartesian",
    "chart_velocity",
    "omega_euler",
    "wrap_angle",
]

# hypot(y1, y2) (or hypot(x1, x2)) below this flags a pole point
_POLE_EPS = 1e-9


class EulerAngles(NamedTuple):
    """Chart coordinates (phi, psi, theta), radians.

    ``pole`` is set by :func:`from_cartesian` when the input sits on a
    chart singularity and one angle had to be fixed arbitrarily.
    """

    phi: float
    psi: float
    theta: float
    pole: str | None = None


def wrap_angle(x):
    """Wrap into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x), 2.0 * np.pi)


def _chart_columns(phi, psi, theta, dphi=0.0, dpsi=0.0, dtheta=0.0):
    """Vectorized chart map and pushforward of chart rates, in one trig pass.

    Returns the points (x1, x2, y1, y2) and the velocities
    (x1', x2', y1', y2') as two (..., 4) arrays over the broadcast
    inputs, each column written in place.  The velocities reuse the
    point products, with the sign of a term moved onto its rate:
    x1' = x2 (-alpha') - cos(alpha) sin(theta/2) theta'/2, and so on.
    """
    alpha = 0.5 * (phi + psi)
    beta = 0.5 * (phi - psi)
    half = 0.5 * theta
    c, s = np.cos(half), np.sin(half)
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    da = 0.5 * (dphi + dpsi)
    db = 0.5 * (dphi - dpsi)
    dt = 0.5 * dtheta
    shape = np.broadcast(alpha, beta, c, da, db, dt).shape + (4,)
    pts, vel = np.empty(shape), np.empty(shape)
    x1, x2, y1, y2 = (pts[..., m] for m in range(4))
    v0, v1, v2, v3 = (vel[..., m] for m in range(4))
    np.multiply(ca, c, out=x1)
    np.multiply(sa, c, out=x2)
    np.multiply(cb, s, out=y1)
    np.multiply(sb, s, out=y2)
    np.multiply(x2, -da, out=v0)
    v0 -= ca * s * dt
    np.multiply(x1, da, out=v1)
    v1 -= sa * s * dt
    np.multiply(y2, -db, out=v2)
    v2 += cb * c * dt
    np.multiply(y1, db, out=v3)
    v3 += sb * c * dt
    return pts, vel


def to_cartesian(e: EulerAngles) -> np.ndarray:
    """Cartesian point of the chart triple.  theta must lie in [0, pi]."""
    if not 0.0 <= e.theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {e.theta}")
    return _chart_columns(e.phi, e.psi, e.theta)[0]


def _angle_arrays(q):
    """Vectorized chart inverse over a float (..., 4) array: (phi, psi, theta, rx, ry).

    rx = hypot(x1, x2) and ry = hypot(y1, y2); on a pole circle (either
    below _POLE_EPS) the undefined half-angle sum is set to 0.
    """
    x1, x2, y1, y2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    rx = np.hypot(x1, x2)
    ry = np.hypot(y1, y2)
    alpha = np.where(rx < _POLE_EPS, 0.0, np.arctan2(x2, x1))
    beta = np.where(ry < _POLE_EPS, 0.0, np.arctan2(y2, y1))
    return alpha + beta, alpha - beta, 2.0 * np.arctan2(ry, rx), rx, ry


def from_cartesian(q) -> EulerAngles:
    """Invert the chart at a unit point, | |q|^2 - 1 | <= UNIT_TOL = 1e-8.

    theta = 2*atan2(hypot(y1,y2), hypot(x1,x2)) is always well defined;
    at theta in {0, pi} one of the half-angle sums is undefined and is
    set to 0, with ``pole`` marking which circle was hit.
    """
    q = check_unit(q, what="chart point q")
    phi, psi, theta, rx, ry = _angle_arrays(q)
    pole = "theta=0" if ry < _POLE_EPS else "theta=pi" if rx < _POLE_EPS else None
    return EulerAngles(phi=float(phi), psi=float(psi), theta=float(theta), pole=pole)


def chart_velocity(e: EulerAngles, rates) -> np.ndarray:
    """Cartesian velocity of a chart curve with rates (phi', psi', theta')."""
    dphi, dpsi, dtheta = rates
    return _chart_columns(e.phi, e.psi, e.theta, dphi, dpsi, dtheta)[1]


def omega_euler(e: EulerAngles, rates) -> float:
    """The restricted one-form on chart rates: (sin th sin psi phi' + cos psi th')/2."""
    dphi, _, dtheta = rates
    return 0.5 * (np.sin(e.theta) * np.sin(e.psi) * dphi + np.cos(e.psi) * dtheta)
