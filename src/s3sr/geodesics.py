"""Geodesics of the horizontal metric: controls, integrators, checks.

A unit-speed geodesic has frame components of its velocity

    a(s) = r cos(2*lambda*s + theta0),   b(s) = r sin(2*lambda*s + theta0)

with the multiplier lambda constant, so the curve solves the
left-invariant equation q' = q * u(s) with pure control
u(s) = -a(s) i - b(s) k.  The reference integrator advances q by group
exponentials of midpoint-sampled controls, which keeps |q| = 1 to
rounding; a triple-jump composition of that symmetric step raises the
order to four (pass order=2 for the plain midpoint scheme).  The
controls do not depend on q, so the exponentials of a block of steps
come from one vectorized qexp_pure call; the product chain itself runs
step by step, left to right, on Python floats (a tree-shaped product
reorders the rounding and drifts |q| further).

The same flow also arises from the Hamiltonian

    H(q, xi) = ( <q I1, xi>^2 + <q I3, xi>^2 ) / 2

integrated here with a classical fourth-order one-step method on the
pair (q, xi): its right-hand side, the four stage inputs and the update
are unrolled on eight named Python floats, one row written per step.
Matching initial data must place -lambda in the <q I2, .> component of
the costate; the component along q itself is pure gauge.  The checks
at the bottom verify energy, horizontality and the linear law for the
angle between the velocity and the frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import SampledCurve, unit_norm_error
from .frames import I1, I2, I3, frame_ab
from .quaternions import check_unit, qexp_pure, qmul

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

# triple-jump composition coefficients for a symmetric order-2 base step
_COMP4_A = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_COMP4_B = 1.0 - 2.0 * _COMP4_A
_COMP_WEIGHTS = {2: (1.0,), 4: (_COMP4_A, _COMP4_B, _COMP4_A)}

# steps per qexp_pure call in integrate_geodesic; it also bounds the
# Python lists of exponentials held at once (a whole long horizon would
# cost several MB)
_BLOCK = 1024


@dataclass(frozen=True)
class GeodesicParams:
    """Speed r >= 0, initial frame angle theta0 and multiplier lam."""

    r: float
    theta0: float
    lam: float

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError("speed r must be non-negative")


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


def integrate_geodesic(q0, params: GeodesicParams, T, h, order=4) -> SampledCurve:
    """Integrate q' = q * (-a(s) i - b(s) k) from q0 over [0, T].

    Every update has the form q <- q * qexp_pure(dt * u(midpoint)); with
    order=4 (default) each step chains three such substeps.  Samples
    stay unit without renormalization and the stored velocities are the
    analytic a(s) X + b(s) Y.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if T < 0.0:
        raise ValueError("horizon T must be non-negative")
    q0 = check_unit(np.asarray(q0, dtype=float), what="initial point")
    weights = _COMP_WEIGHTS.get(order)
    if weights is None:
        raise ValueError("order must be 2 or 4")

    nsteps = max(1, int(round(T / h))) if T > 0.0 else 0
    dt = T / nsteps if nsteps else 0.0
    pts = np.empty((nsteps + 1, 4))
    pts[0] = q0
    w, x, y, z = q0.tolist()
    coef = np.asarray(weights)
    for start in range(0, nsteps, _BLOCK):
        stop = min(start + _BLOCK, nsteps)
        # substep midpoints by the same float operations as a per-step loop
        t = np.arange(start, stop) * dt
        mids = np.empty((stop - start, len(weights)))
        for j, c in enumerate(weights):
            mids[:, j] = t + 0.5 * c * dt
            t += c * dt
        a, b = ab_profile(params, mids)
        v = np.stack([-a * coef * dt, np.zeros_like(a), -b * coef * dt], axis=-1)
        exps = qexp_pure(v).tolist()
        rows = []
        for step in exps:
            for ew, ex, ey, ez in step:
                w, x, y, z = (
                    w * ew - x * ex - y * ey - z * ez,
                    w * ex + x * ew + y * ez - z * ey,
                    w * ey + y * ew + z * ex - x * ez,
                    w * ez + z * ew + x * ey - y * ex,
                )
            rows.append((w, x, y, z))
        pts[start + 1 : stop + 1] = rows

    s = np.arange(nsteps + 1) * dt
    a, b = ab_profile(params, s)
    vel = a[:, None] * (-(pts @ I1)) + b[:, None] * (-(pts @ I3))
    meta = {
        "tag": "geodesic",
        "r": params.r,
        "theta0": params.theta0,
        "lambda": params.lam,
        "T": T,
        "h": dt,
        "order": order,
    }
    return SampledCurve(s, pts, vel, meta)


@dataclass
class HamiltonianTrajectory:
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


def _hamiltonian_rhs(w, x, y, z, a, b, c, d):
    """(q', xi') on floats for q = (w, x, y, z), xi = (a, b, c, d).

    With p1 = <q I1, xi> and p3 = <q I3, xi>: q' = p1 q I1 + p3 q I3 and
    xi' = p1 xi I1 + p3 xi I3, where q I1 = (-x, w, z, -y) and
    q I3 = (-z, y, -x, w).
    """
    p1 = w * b - x * a + z * c - y * d
    p3 = w * d - z * a + y * b - x * c
    return (
        -p1 * x - p3 * z,
        p1 * w + p3 * y,
        p1 * z - p3 * x,
        -p1 * y + p3 * w,
        -p1 * b - p3 * d,
        p1 * a + p3 * c,
        p1 * d - p3 * b,
        -p1 * c + p3 * a,
    )


def integrate_hamiltonian(q0, xi0, T, h) -> HamiltonianTrajectory:
    """Classical 4th-order one-step integration of the Hamiltonian system."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if T < 0.0:
        raise ValueError("horizon T must be non-negative")
    q0 = np.asarray(q0, dtype=float)
    xi0 = np.asarray(xi0, dtype=float)
    nsteps = max(1, int(round(T / h))) if T > 0.0 else 0
    dt = T / nsteps if nsteps else 0.0
    half = 0.5 * dt
    sixth = dt / 6.0
    ys = np.empty((nsteps + 1, 8))
    ys[0, :4] = q0
    ys[0, 4:] = xi0
    w, x, y, z, a, b, c, d = ys[0].tolist()
    rhs = _hamiltonian_rhs
    # the stages are unrolled on named floats (a zip over lists per stage
    # costs more than the arithmetic); each expression keeps the order of
    # u + half*k, u + dt*k and u + sixth*(k1 + 2 k2 + 2 k3 + k4)
    for i in range(nsteps):
        k1w, k1x, k1y, k1z, k1a, k1b, k1c, k1d = rhs(w, x, y, z, a, b, c, d)
        k2w, k2x, k2y, k2z, k2a, k2b, k2c, k2d = rhs(
            w + half * k1w, x + half * k1x, y + half * k1y, z + half * k1z,
            a + half * k1a, b + half * k1b, c + half * k1c, d + half * k1d,
        )
        k3w, k3x, k3y, k3z, k3a, k3b, k3c, k3d = rhs(
            w + half * k2w, x + half * k2x, y + half * k2y, z + half * k2z,
            a + half * k2a, b + half * k2b, c + half * k2c, d + half * k2d,
        )
        k4w, k4x, k4y, k4z, k4a, k4b, k4c, k4d = rhs(
            w + dt * k3w, x + dt * k3x, y + dt * k3y, z + dt * k3z,
            a + dt * k3a, b + dt * k3b, c + dt * k3c, d + dt * k3d,
        )
        w = w + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        z = z + sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        a = a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        c = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        d = d + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        ys[i + 1] = (w, x, y, z, a, b, c, d)
    s = np.arange(nsteps + 1) * dt
    return HamiltonianTrajectory(s, ys[:, :4], ys[:, 4:])


def verify_velocity_energy(curve: SampledCurve, m_tol=1e-12, tangent_tol=1e-6):
    """max | |v|^2 - (a^2 + b^2) | with (a, b) recomputed from the frame.

    The frame matrix with rows (X, Y, T, N) satisfies M M^T = |q|^2 I, so
    it is checked through | |q| - 1 | <= max(m_tol, 2 n eps) over the n
    samples: the engine's rounding drift grows with the step count (about
    0.5 eps per step on long runs), so the bound does too.  That and
    velocities off the tangent space beyond tangent_tol raise, indicating
    off-sphere samples.
    """
    if curve.velocities is None:
        raise ValueError("curve carries no velocities")
    q = curve.points
    v = curve.velocities
    norm_dev = unit_norm_error(curve)
    if norm_dev > max(m_tol, 2.0 * curve.n * np.finfo(float).eps):
        raise ValueError(f"frame matrix degenerate: | |q| - 1 | = {norm_dev:.3e}")
    radial = np.abs(np.sum(v * q, axis=1))
    if np.any(radial > tangent_tol * np.maximum(1.0, np.linalg.norm(v, axis=1))):
        raise ValueError(f"vector is not tangent: |<v, q>| = {float(np.max(radial)):.3e}")
    a, b = frame_ab(q, v)
    return float(np.max(np.abs(np.sum(v * v, axis=1) - (a * a + b * b))))


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
    return float(np.max(np.abs(np.sum(acc * t_vec, axis=1))))


def angle_profile(curve: SampledCurve) -> np.ndarray:
    """Unwrapped angle between the stored velocity and X along the curve.

    For engine geodesics this is 2*lam*s + theta0 up to rounding.
    Raises on (numerically) zero velocities.
    """
    if curve.velocities is None:
        raise ValueError("curve carries no velocities")
    v = curve.velocities
    if np.any(np.linalg.norm(v, axis=1) < 1e-15):
        raise ValueError("zero velocity has no direction")
    va, vb = frame_ab(curve.points, v)
    return np.unwrap(np.arctan2(vb, va))
