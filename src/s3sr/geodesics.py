"""Geodesics of the horizontal metric: controls, closed form, checks.

A unit-speed geodesic has frame components of its velocity

    a(s) = r cos(2*lambda*s + theta0),   b(s) = r sin(2*lambda*s + theta0)

with the multiplier lambda constant, so the curve solves the
left-invariant equation q' = q * u(s) with pure control
u(s) = -a(s) i - b(s) k.  That equation has the closed-form solution
geodesic_point, and integrate_geodesic samples it on a uniform grid:
no step is integrated, so |q| stays 1 to rounding at any horizon.

The same flow also arises from the Hamiltonian

    H(q, xi) = ( <q I1, xi>^2 + <q I3, xi>^2 ) / 2

integrated here with a classical fourth-order one-step method on the
pair (q, xi), the numerical integrator that the closed form is checked
against: the right-hand side is written out inline for each of the
four stages, with the stage inputs and the update, on named Python
floats; the fourth stage is written into the update itself.  It
extends one flat list of floats by each step's row and writes a block
of rows to numpy with one np.fromiter call, and keeps the float
operations of a per-stage loop in their order, so trajectories are bit
for bit those of that loop.
Matching initial data must place -lambda in the <q I2, .> component
of the costate; the component along q itself is pure gauge.  The
checks at the bottom verify energy, horizontality and the linear law
for the angle between the velocity and the frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .curves import SampledCurve, unit_norm_error
from .frames import I1, I2, I3, frame_ab
from .quaternions import _row_sum, check_unit, norm, norm2, qexp_pure, qmul

__all__ = [
    "GeodesicParams",
    "ab_profile",
    "geodesic_point",
    "integrate_geodesic",
    "HamiltonianTrajectory",
    "match_costate",
    "integrate_hamiltonian",
    "verify_velocity_energy",
    "acceleration_T_residual",
    "angle_profile",
]

# steps of integrate_hamiltonian per numpy row write; it bounds the flat
# list of row floats held at once (a whole long horizon would cost
# several MB)
_BLOCK = 1024


class GeodesicParams(NamedTuple("GeodesicParams", [("r", float), ("theta0", float), ("lam", float)])):
    """Speed r >= 0, initial frame angle theta0 and multiplier lam."""

    __slots__ = ()

    def __new__(cls, r, theta0, lam):
        if not all(map(math.isfinite, (r, theta0, lam))):
            raise ValueError("r, theta0 and lambda must be finite")
        if r < 0.0:
            raise ValueError("speed r must be non-negative")
        return super().__new__(cls, r, theta0, lam)

    @classmethod
    def _make(cls, iterable):  # _replace calls it: both go through the checks
        return cls(*iterable)


def ab_profile(params: GeodesicParams, s):
    """Control components (a, b) = r*(cos, sin)(2*lam*s + theta0).

    Accepts scalar or array s; complex s is supported so derivatives
    can be checked by complex-step differentiation.
    """
    phase = 2.0 * params.lam * np.asarray(s) + params.theta0
    return params.r * np.cos(phase), params.r * np.sin(phase)


def geodesic_point(q0, params: GeodesicParams, s):
    """Closed-form geodesic point at parameter s.

    The rotating control straightens after conjugation by exp(j*phase/2),
    leaving a constant-coefficient flow:

        q(s) = q0 * e(-theta0/2 j) * exp(s*(-r i - lam j)) * e((lam s + theta0/2) j)

    Broadcasts over array-valued s.
    """
    s = np.asarray(s, dtype=float)
    r, th0, lam = params.r, params.theta0, params.lam
    left = qmul(np.asarray(q0, dtype=float), qexp_pure([0.0, -0.5 * th0, 0.0]))
    core = qexp_pure(np.stack([-r * s, -lam * s, np.zeros_like(s)], axis=-1))
    right = qexp_pure(
        np.stack([np.zeros_like(s), lam * s + 0.5 * th0, np.zeros_like(s)], axis=-1)
    )
    return qmul(left, qmul(core, right))


def _grid(T, h):
    """(nsteps, dt): the horizon T cut into equal steps of about h."""
    if not (math.isfinite(T) and math.isfinite(h)):
        raise ValueError("horizon T and step h must be finite")
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if T < 0.0:
        raise ValueError("horizon T must be non-negative")
    nsteps = max(1, int(round(T / h))) if T > 0.0 else 0
    return nsteps, (T / nsteps if nsteps else 0.0)


def integrate_geodesic(q0, params: GeodesicParams, T, h) -> SampledCurve:
    """The geodesic from q0 sampled over [0, T] at steps of about h.

    The points are geodesic_point on the grid s = k * T / round(T / h),
    so they stay unit to rounding at any horizon, and the stored
    velocities are the analytic a(s) X + b(s) Y.  meta["method"] records
    that the samples come from the closed form.
    """
    nsteps, dt = _grid(T, h)
    q0 = check_unit(q0, what="initial point q0")
    s = np.arange(nsteps + 1) * dt
    pts = geodesic_point(q0, params, s)
    a, b = ab_profile(params, s)
    vel = a[:, None] * (-(pts @ I1)) + b[:, None] * (-(pts @ I3))
    meta = {
        "tag": "geodesic",
        "r": params.r,
        "theta0": params.theta0,
        "lambda": params.lam,
        "T": T,
        "h": dt,
        "method": "closed_form",
    }
    return SampledCurve(s, pts, vel, meta)


class HamiltonianTrajectory(NamedTuple):
    """Phase-space samples of the Hamiltonian flow."""

    s: np.ndarray
    q: np.ndarray
    xi: np.ndarray

    def momenta(self):
        """(p1, p3) = (<q I1, xi>, <q I3, xi>), i.e. -(a, b) of xi as q I1 = -X, q I3 = -Y."""
        a, b = frame_ab(self.q, self.xi)
        return -a, -b

    def qdot(self):
        p1, p3 = self.momenta()
        return p1[:, None] * (self.q @ I1) + p3[:, None] * (self.q @ I3)

    def energy(self):
        p1, p3 = self.momenta()
        return 0.5 * (p1 * p1 + p3 * p3)


def match_costate(q0, params: GeodesicParams):
    """Costate reproducing the geodesic with the given parameters.

    Solves <q0 I1, xi> = -a(0), <q0 I3, xi> = -b(0) (the Hamiltonian
    velocity is built from q*i and q*k, which are -X and -Y) and places
    -lam along q0 I2; the component along q0 is gauge and set to 0.
    """
    q0 = np.asarray(q0, dtype=float)
    a0, b0 = ab_profile(params, 0.0)
    return -a0 * (q0 @ I1) - b0 * (q0 @ I3) - params.lam * (q0 @ I2)


def integrate_hamiltonian(q0, xi0, T, h) -> HamiltonianTrajectory:
    """Classical 4th-order one-step integration of the Hamiltonian system.

    The right-hand side at (q, xi) = (w, x, y, z, a, b, c, d) is, with
    p1 = <q I1, xi> and p3 = <q I3, xi>,

        q' = p1 q I1 + p3 q I3,   xi' = p1 xi I1 + p3 xi I3,

    where q I1 = (-x, w, z, -y) and q I3 = (-z, y, -x, w).
    """
    nsteps, dt = _grid(T, h)
    q0 = check_unit(q0, what="initial point q0")
    xi0 = np.asarray(xi0, dtype=float)
    if xi0.shape != (4,) or not np.isfinite(xi0).all():
        raise ValueError(f"initial costate xi0 must be one finite 4-vector, got {xi0.tolist()}")
    half = 0.5 * dt
    sixth = dt / 6.0
    ys = np.empty((nsteps + 1, 8))
    ys[0, :4] = q0
    ys[0, 4:] = xi0
    w, x, y, z, a, b, c, d = ys[0].tolist()
    # each step is one straight-line block: the four right-hand sides
    # written out on named floats, with the stage inputs u + half*k,
    # u + dt*k and the update u + sixth*(k1 + 2 k2 + 2 k3 + k4), where
    # k4 is written inline in the update, unnamed; a stage negates p1
    # once into n1, and n1 * u is the float -p1 * u
    for start in range(0, nsteps, _BLOCK):
        stop = min(start + _BLOCK, nsteps)
        rows = []
        for _ in range(stop - start):
            p1 = w * b - x * a + z * c - y * d
            p3 = w * d - z * a + y * b - x * c
            n1 = -p1
            k1w = n1 * x - p3 * z
            k1x = p1 * w + p3 * y
            k1y = p1 * z - p3 * x
            k1z = n1 * y + p3 * w
            k1a = n1 * b - p3 * d
            k1b = p1 * a + p3 * c
            k1c = p1 * d - p3 * b
            k1d = n1 * c + p3 * a
            sw = w + half * k1w
            sx = x + half * k1x
            sy = y + half * k1y
            sz = z + half * k1z
            sa = a + half * k1a
            sb = b + half * k1b
            sc = c + half * k1c
            sd = d + half * k1d
            p1 = sw * sb - sx * sa + sz * sc - sy * sd
            p3 = sw * sd - sz * sa + sy * sb - sx * sc
            n1 = -p1
            k2w = n1 * sx - p3 * sz
            k2x = p1 * sw + p3 * sy
            k2y = p1 * sz - p3 * sx
            k2z = n1 * sy + p3 * sw
            k2a = n1 * sb - p3 * sd
            k2b = p1 * sa + p3 * sc
            k2c = p1 * sd - p3 * sb
            k2d = n1 * sc + p3 * sa
            sw = w + half * k2w
            sx = x + half * k2x
            sy = y + half * k2y
            sz = z + half * k2z
            sa = a + half * k2a
            sb = b + half * k2b
            sc = c + half * k2c
            sd = d + half * k2d
            p1 = sw * sb - sx * sa + sz * sc - sy * sd
            p3 = sw * sd - sz * sa + sy * sb - sx * sc
            n1 = -p1
            k3w = n1 * sx - p3 * sz
            k3x = p1 * sw + p3 * sy
            k3y = p1 * sz - p3 * sx
            k3z = n1 * sy + p3 * sw
            k3a = n1 * sb - p3 * sd
            k3b = p1 * sa + p3 * sc
            k3c = p1 * sd - p3 * sb
            k3d = n1 * sc + p3 * sa
            sw = w + dt * k3w
            sx = x + dt * k3x
            sy = y + dt * k3y
            sz = z + dt * k3z
            sa = a + dt * k3a
            sb = b + dt * k3b
            sc = c + dt * k3c
            sd = d + dt * k3d
            p1 = sw * sb - sx * sa + sz * sc - sy * sd
            p3 = sw * sd - sz * sa + sy * sb - sx * sc
            n1 = -p1
            w = w + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + (n1 * sx - p3 * sz))
            x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + (p1 * sw + p3 * sy))
            y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + (p1 * sz - p3 * sx))
            z = z + sixth * (k1z + 2.0 * k2z + 2.0 * k3z + (n1 * sy + p3 * sw))
            a = a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + (n1 * sb - p3 * sd))
            b = b + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + (p1 * sa + p3 * sc))
            c = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + (p1 * sd - p3 * sb))
            d = d + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + (n1 * sc + p3 * sa))
            rows += (w, x, y, z, a, b, c, d)
        ys[start + 1 : stop + 1] = np.fromiter(rows, float, len(rows)).reshape(-1, 8)
    s = np.arange(nsteps + 1) * dt
    return HamiltonianTrajectory(s, ys[:, :4], ys[:, 4:])


def verify_velocity_energy(curve: SampledCurve):
    """max | |v|^2 - (a^2 + b^2) | with (a, b) recomputed from the frame.

    The frame matrix with rows (X, Y, T, N) satisfies M M^T = |q|^2 I, so
    it is checked through | |q| - 1 | <= max(1e-12, 2 n eps) over the n
    samples.  Sampled closed-form geodesics stay unit to rounding, but a
    stepped curve (a long Hamiltonian run, or a file written by a stepping
    integrator) drifts by rounding at each step, so the bound grows with
    the sample count.  That and
    velocities off the tangent space by more than 1e-6 max(1, |v|) raise,
    indicating off-sphere samples.
    """
    if curve.velocities is None:
        raise ValueError("curve carries no velocities")
    q = curve.points
    v = curve.velocities
    norm_dev = unit_norm_error(curve)
    if norm_dev > max(1e-12, 2.0 * curve.n * np.finfo(float).eps):
        raise ValueError(f"frame matrix degenerate: | |q| - 1 | = {norm_dev:.3e}")
    radial = np.abs(_row_sum(v * q))
    vv = norm2(v)
    if np.any(radial > 1e-6 * np.maximum(1.0, np.sqrt(vv))):
        raise ValueError(f"vector is not tangent: |<v, q>| = {float(np.max(radial)):.3e}")
    a, b = frame_ab(q, v)
    return float(np.max(np.abs(vv - (a * a + b * b))))


def acceleration_T_residual(curve: SampledCurve) -> float:
    """max |<gamma'', T>| with second differences on a uniform grid."""
    if curve.n < 3:
        raise ValueError("need at least 3 samples")
    ds = np.diff(curve.s)
    if not np.allclose(ds, ds[0], rtol=1e-9, atol=0.0):
        raise ValueError("second differences need a uniform grid")
    h = float(ds[0])
    p = curve.points
    acc = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (h * h)
    t_vec = -(p[1:-1] @ I2)
    return float(np.max(np.abs(_row_sum(acc * t_vec))))


def angle_profile(curve: SampledCurve) -> np.ndarray:
    """Unwrapped angle between the stored velocity and X along the curve.

    For sampled geodesics this is 2*lam*s + theta0 up to rounding.
    Raises on (numerically) zero velocities.
    """
    if curve.velocities is None:
        raise ValueError("curve carries no velocities")
    v = curve.velocities
    if np.any(norm(v) < 1e-15):
        raise ValueError("zero velocity has no direction")
    va, vb = frame_ab(curve.points, v)
    return np.unwrap(np.arctan2(vb, va))
