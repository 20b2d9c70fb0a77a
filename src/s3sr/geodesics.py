"""Geodesics of the horizontal metric: controls, integrators, checks.

A unit-speed geodesic has frame components of its velocity

    a(s) = r cos(2*lambda*s + theta0),   b(s) = r sin(2*lambda*s + theta0)

with the multiplier lambda constant, so the curve solves the
left-invariant equation q' = q * u(s) with pure control
u(s) = -a(s) i - b(s) k.  The reference integrator advances q by group
exponentials of midpoint-sampled controls, which keeps |q| = 1 to
rounding; a triple-jump composition of that symmetric step raises the
order to four.  The controls do not depend on q, so the exponentials of
a block of steps come from one vectorized call, read back as floats
straight from its buffer; the product chain itself runs step by step,
left to right, on Python floats (a tree-shaped product reorders the
rounding and drifts |q| further).  Each step is one loop body that writes its three
substep products out one after another, through named temporaries.
The controls have no j part, so the exponentials' j slots are signed
zeros: the engine writes only the other three slots of each exponential
(_exps_xz) and leaves the j terms out of its products (_chain4 says why
that is exact, and when a block falls back to the full products).

The same flow also arises from the Hamiltonian

    H(q, xi) = ( <q I1, xi>^2 + <q I3, xi>^2 ) / 2

integrated here with a classical fourth-order one-step method on the
pair (q, xi): the right-hand side is written out inline for each of the
four stages, with the stage inputs and the update, on named Python
floats; the fourth stage is written into the update itself.  Both
integrators extend one flat list of floats by each step's row and write
a block of rows to numpy with one np.fromiter call, and keep the float
operations of a per-substep, per-stage loop in their order, so
trajectories are bit for bit those of that loop.
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
from .quaternions import _exp_factors, _row_sum, check_unit, norm, norm2, qexp_pure, qmul

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
_COMP4 = (_COMP4_A, 1.0 - 2.0 * _COMP4_A, _COMP4_A)

# steps per exponential call in integrate_geodesic and per numpy row write
# in both integrators; it also bounds the flat list of row floats held
# at once (a whole long horizon would cost several MB)
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


def _chain(q, e):
    """Rows q * e[0], q * e[0] * e[1], ... for exponentials e of shape (m, 4), as an (m, 4) array.

    Each product is written out with all 16 terms, so the rounding and
    the signs of zero are those of qmul.  The components of e are read
    as floats straight from its buffer by one iterator zipped with itself.
    """
    w, x, y, z = q.tolist()
    comps = iter(memoryview(e.ravel()))
    rows = []
    for ew, ex, ey, ez in zip(comps, comps, comps, comps):
        w, x, y, z = (
            w * ew - x * ex - y * ey - z * ez,
            w * ex + x * ew + y * ez - z * ey,
            w * ey + y * ew + z * ex - x * ez,
            w * ez + z * ew + x * ey - y * ex,
        )
        rows += (w, x, y, z)
    return np.fromiter(rows, float, len(rows)).reshape(-1, 4)


def _exps_xz(va, vb):
    """The w, x, z slots of qexp_pure of the controls va i + vb k, as one array of shape va.shape + (3,).

    Bit for bit qexp_pure's on the stacked (va, 0, vb): its row sum
    ((va^2 + 0) + 0^2) + vb^2 is va^2 + vb^2, as adding +0.0 to a square
    changes nothing.  The j slot, sin|v|/|v| * 0, is never formed.
    """
    w, fac = _exp_factors(np.sqrt(va * va + vb * vb))
    e = np.empty(va.shape + (3,))
    e[..., 0] = w
    np.multiply(fac, va, out=e[..., 1])
    np.multiply(fac, vb, out=e[..., 2])
    return e


def _chain4(q, e, full):
    """q chained through order-4 steps: the (m, 4) rows _chain gives after each step.

    e is the C-contiguous (m, 3, 3) array of the substep exponentials'
    w, x, z slots (_exps_xz), read as floats straight from its buffer.
    The controls have no j part, so the exponentials' j slots are signed
    zeros, and the three substep products leave out their terms (60
    float operations a step instead of 84).  Leaving a +-0 term out of a
    left-to-right sum of finite terms can change only the sign of a sum
    that is exactly 0, and such a sign reaches only other exact zeros.
    So rows with no zero equal the full products bit for bit; if any row
    has a zero, the block is recomputed from q by _chain on full(), the
    (m, 3, 4) exponentials with their signed-zero j slots.
    """
    w, x, y, z = q.tolist()
    comps = iter(memoryview(e.ravel()))
    rows = []
    for aw, ax, az, bw, bx, bz, cw, cx, cz in zip(*[comps] * 9):
        w1 = w * aw - x * ax - z * az
        x1 = w * ax + x * aw + y * az
        y1 = y * aw + z * ax - x * az
        z1 = w * az + z * aw - y * ax
        w2 = w1 * bw - x1 * bx - z1 * bz
        x2 = w1 * bx + x1 * bw + y1 * bz
        y2 = y1 * bw + z1 * bx - x1 * bz
        z2 = w1 * bz + z1 * bw - y1 * bx
        w = w2 * cw - x2 * cx - z2 * cz
        x = w2 * cx + x2 * cw + y2 * cz
        y = y2 * cw + z2 * cx - x2 * cz
        z = w2 * cz + z2 * cw - y2 * cx
        rows += (w, x, y, z)
    out = np.fromiter(rows, float, len(rows)).reshape(-1, 4)
    if out.all():
        return out
    return _chain(q, full().reshape(-1, 4))[2::3]


def integrate_geodesic(q0, params: GeodesicParams, T, h) -> SampledCurve:
    """Integrate q' = q * (-a(s) i - b(s) k) from q0 over [0, T] to order four.

    Every update has the form q <- q * qexp_pure(dt * u(midpoint)), and
    each step chains three such substeps with the weights _COMP4.
    Samples stay unit without renormalization and the stored velocities
    are the analytic a(s) X + b(s) Y.
    """
    nsteps, dt = _grid(T, h)
    q0 = check_unit(q0, what="initial point q0")

    pts = np.empty((nsteps + 1, 4))
    pts[0] = q0
    coef = np.asarray(_COMP4)
    for start in range(0, nsteps, _BLOCK):
        stop = min(start + _BLOCK, nsteps)
        # substep midpoints by the same float operations as a per-step loop
        t = np.arange(start, stop) * dt
        mids = np.empty((stop - start, len(_COMP4)))
        for j, c in enumerate(_COMP4):
            mids[:, j] = t + 0.5 * c * dt
            t += c * dt
        a, b = ab_profile(params, mids)
        va = -a * coef * dt
        vb = -b * coef * dt

        def full():
            return qexp_pure(np.stack([va, np.zeros_like(va), vb], axis=-1))

        pts[start + 1 : stop + 1] = _chain4(pts[start], _exps_xz(va, vb), full)

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
        "order": 4,
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
    samples: the engine's rounding drift grows with the step count (about
    0.5 eps per step on long runs), so the bound does too.  That and
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

    For engine geodesics this is 2*lam*s + theta0 up to rounding.
    Raises on (numerically) zero velocities.
    """
    if curve.velocities is None:
        raise ValueError("curve carries no velocities")
    v = curve.velocities
    if np.any(norm(v) < 1e-15):
        raise ValueError("zero velocity has no direction")
    va, vb = frame_ab(curve.points, v)
    return np.unwrap(np.arctan2(vb, va))
