"""Geodesics of the horizontal metric: controls, closed form, checks.

A unit-speed geodesic has frame components of its velocity

    a(s) = r cos(2*lambda*s + theta0),   b(s) = r sin(2*lambda*s + theta0)

with the multiplier lambda constant, so the curve solves the
left-invariant equation q' = q * u(s) with pure control
u(s) = -a(s) i - b(s) k.  Its closed-form solution q0 exp(s (u(0) -
lambda j)) e(lambda s j) is evaluated in SU(2) complex pairs (see _pair_mul)
by geodesic_point, and with its velocity q u by integrate_geodesic on a
uniform grid: no step is integrated, so |q| stays 1 to rounding at any horizon.

The same flow also arises from the Hamiltonian

    H(q, xi) = ( <q I1, xi>^2 + <q I3, xi>^2 ) / 2,

which in the body costate eta = conj(q) xi of the left-invariant frame
is (eta1^2 + eta3^2) / 2.  integrate_hamiltonian runs the classical
fourth-order one-step method on the pair (q, eta), the numerical
integrator that the closed form is checked against.  There eta1 + i eta3
obeys a linear constant-coefficient equation, so its RK4 iterates are
powers of one complex factor, taken in closed form.  q moves by
q <- q (1 + D) with an increment D per step built in numpy; the running
product of the factors 1 + D is associative, so it is taken as a log-depth
scan over the horizon, and no step runs in Python; xi = q eta is a pair product.
Matching initial data must place -lambda in the <q I2, .> component
of the costate; the component along q itself is pure gauge.  The
checks at the bottom verify energy, horizontality and the linear law
for the angle between the velocity and the frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .curves import SampledCurve, _second_difference, unit_norm_error
from .frames import I1, I2, I3, frame_ab
from .quaternions import _conj_mul_floats, _row_sum, check_unit, norm, norm2

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

# steps of integrate_hamiltonian per block: a block's w_k and increments D,
# and later its q and costate rows, are numpy arithmetic on arrays of this
# length, which bounds their temporaries (whole-horizon ones would cost
# several MB on a long horizon); only the scan spans the horizon, in place in
# the output table with temporaries of half its length
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


def _pair_mul(a, b, c, d):
    """(A + i B)(C + i D) = (A C - conj(B) D) + i (conj(A) D + B C), as i B = conj(B) i.

    w + x i + y j + z k = A + i B with A, B in span{1, j} is held as the pair of
    complex numbers (A, B) = (w + y*1j, x + z*1j).  Scalars and arrays broadcast.
    """
    return a * c - b.conjugate() * d, a.conjugate() * d + b * c


def _rows(a, b, out=None):
    """The (..., 4) rows (w, x, y, z) of the quaternions held as pairs (a, b), in out if given."""
    out = np.empty(np.broadcast(a, b).shape + (4,)) if out is None else out
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = a.real, b.real, a.imag, b.imag
    return out


def _closed_form(q0, params: GeodesicParams, s, velocities=False):
    """Pairs of q(s) = q0 exp(s v) e(lam s j), v = u0 - lam j, and if asked of q(s) u(s).

    exp(s v) = cos(omega s) + f v, f = sin(omega s) / omega (s at omega = |v| = 0),
    e(lam s j) = (rho, 0) with rho = e^(i lam s), and e(lam s j) u(s) = u0 e(lam s j):
    so q = cos(omega s) rho q0 + f rho q0 v and q u = cos(omega s) rho q0 u0 + f rho q0 v u0.
    Only scalars are multiplied as quaternions; at s = 0 the factors are exactly 1 and 0.
    """
    q0, s = np.asarray(q0, dtype=float), np.asarray(s, dtype=float)
    u0 = -params.r * complex(math.cos(params.theta0), math.sin(params.theta0))  # u(0) = (0, u0)
    q = q0[..., 0] + 1j * q0[..., 2], q0[..., 1] + 1j * q0[..., 3]
    terms = [(q, _pair_mul(*q, -1j * params.lam, u0))]
    if velocities:
        terms.append(tuple(_pair_mul(*g, 0.0, u0) for g in terms[0]))
    omega = math.hypot(params.r, params.lam)
    rho = np.exp(1j * params.lam * s)
    cr = np.cos(omega * s) * rho
    fr = (np.sin(omega * s) / omega if omega else s) * rho
    return [(cr * ga + fr * ha, cr * gb + fr * hb) for (ga, gb), (ha, hb) in terms]


def geodesic_point(q0, params: GeodesicParams, s):
    """Closed-form geodesic point at parameter s.

        q(s) = q0 * exp(s*(u0 - lam j)) * e(lam s j),   u0 = -r (cos(theta0) i + sin(theta0) k)

    evaluated in SU(2) complex pairs (see _closed_form); q(0) is q0 bit
    for bit.  Broadcasts over array-valued s.
    """
    return _rows(*_closed_form(q0, params, s)[0])


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
    so they stay unit to rounding at any horizon and the first is q0; the
    velocities a(s) X + b(s) Y = q(s) u(s) come from the same pass.
    meta["method"] records that the samples come from the closed form.
    """
    nsteps, dt = _grid(T, h)
    q0 = check_unit(q0, what="initial point q0")
    s = np.arange(nsteps + 1) * dt
    pts, vel = (_rows(*pair) for pair in _closed_form(q0, params, s, velocities=True))
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


def _compose(a, b):
    """The two components of (1 + a)(1 + b) - 1, a and b pairs along the last axis."""
    a0, a1, b0, b1 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    p0, p1 = _pair_mul(a0, a1, b0, b1)
    return a0 + b0 + p0, a1 + b1 + p1


def _scan(e):
    """In place, e[k] <- e[0] o e[1] o ... o e[k] for the product o of _compose.

    o is associative, so the running products come from a tree: each odd
    entry absorbs the entry before it, the odd entries are scanned at half
    the length, and each even entry then absorbs the odd one before it.
    log2(len(e)) levels of array arithmetic, no per-entry work in Python.
    """
    odd = e[1::2]
    if len(odd):
        odd[:, 0], odd[:, 1] = _compose(e[:-1:2], odd)
        _scan(odd)
        even = e[2::2]
        even[:, 0], even[:, 1] = _compose(odd[: len(even)], even)


def integrate_hamiltonian(q0, xi0, T, h) -> HamiltonianTrajectory:
    """Classical 4th-order one-step integration of the Hamiltonian system.

    In the body costate eta = conj(q) xi the Hamiltonian is
    (eta1^2 + eta3^2) / 2, and Hamilton's equations split into

        q' = q U,  U = eta1 i + eta3 k,   eta0' = eta2' = 0,   w' = -2 i eta2 w

    for w = eta1 + i eta3.  RK4 on (q, eta) keeps eta0 and eta2, and its
    stage values of w are w g_s for fixed complex g_s, so a step turns w
    by a fixed R and w_k = w_0 R^k in polar form.  The q stages are
    q sigma_s, with sigma_2 = 1 + (h/2) U_1, sigma_3 = 1 + (h/2) sigma_2 U_2
    and sigma_4 = 1 + h sigma_3 U_3, and a step is q <- q (1 + D) with
    D = (h/6)(U_1 + 2 sigma_2 U_2 + 2 sigma_3 U_3 + sigma_4 U_4).  So
    q_k = q0 (1 + D_0) ... (1 + D_(k-1)): the running products come from
    _scan, whose tree order rounds less than a step-by-step fold, in place
    in the output table.  The costate samples are pair products
    xi_k = q_k eta_k (see _pair_mul), eta_k = (e0 + i e2, w_k).
    """
    nsteps, dt = _grid(T, h)
    q0 = check_unit(q0, what="initial point q0")
    xi0 = np.asarray(xi0, dtype=float)
    if xi0.shape != (4,) or not np.isfinite(xi0).all():
        raise ValueError(f"initial costate xi0 must be one finite 4-vector, got {xi0.tolist()}")
    e0, e1, e2, e3 = _conj_mul_floats(q0, xi0)
    # the stage factors g_s and the step factor R of w, polynomials in z = i t
    t = -2.0 * e2 * dt
    t2 = t * t
    g2 = complex(1.0, 0.5 * t)
    g3 = complex(1.0 - 0.25 * t2, 0.5 * t)
    g4 = complex(1.0 - 0.5 * t2, t - 0.25 * t * t2)
    log_r = complex(
        0.5 * math.log1p(t2 * t2 * t2 * (t2 / 576.0 - 1.0 / 72.0)),  # |R|^2 = 1 - t^6/72 + t^8/576
        math.atan2(t - t * t2 / 6.0, 1.0 - 0.5 * t2 + t2 * t2 / 24.0),
    )
    w0 = complex(e1, e3)
    ys = np.empty((nsteps + 1, 8))
    ys[0, :4] = q0
    ys[0, 4:] = xi0
    # in pairs (see _pair_mul) U_s = i w_s is (0, w_s): (A, B) U_s = (-conj(B) w_s, conj(A) w_s).
    # The table is the only buffer over the horizon: the q columns of row k + 1
    # hold the pair of D_k, then of C_k = (1 + D_0) ... (1 + D_k) - 1, until
    # q_(k+1) = q0 (1 + C_k) replaces it, and its xi columns hold w_(k+1) until xi_(k+1) does
    c = ys[1:, :4].view(complex)
    w_next = ys[1:, 4:6].view(complex)[:, 0]
    qa, qb = complex(q0[0], q0[2]), complex(q0[1], q0[3])
    eta_a = complex(e0, e2)
    half = 0.5 * dt
    sixth = dt / 6.0
    with np.errstate(all="ignore"):  # a huge costate runs to inf and NaN, as any RK4 would
        for start in range(0, nsteps, _BLOCK):
            stop = min(start + _BLOCK, nsteps)
            w = w0 * np.exp(np.arange(start, stop + 1) * log_r)  # w_k = w0 R^k, k = start..stop
            w_next[start:stop] = w[1:]
            w1 = w[:-1]
            w2, w3, w4 = w1 * g2, w1 * g3, w1 * g4
            p2 = -half * (w1.conj() * w2)  # sigma_2 U_2 = p2 + i w2
            p3a = -half * (w2.conj() * w3)  # sigma_3 U_3 = p3a + i p3b
            p3b = (1.0 + half * p2).conj() * w3
            a4 = 1.0 + dt * p3a  # sigma_4 = a4 + i dt p3b
            c[start:stop, 0] = sixth * (2.0 * (p2 + p3a) - dt * (p3b.conj() * w4))
            c[start:stop, 1] = sixth * (w1 + 2.0 * (w2 + p3b) + a4.conj() * w4)
        _scan(c)
        for start in range(0, nsteps, _BLOCK):
            stop = min(start + _BLOCK, nsteps)
            a, b = _pair_mul(qa, qb, c[start:stop, 0], c[start:stop, 1])
            a, b = qa + a, qb + b
            # xi_k = q_k eta_k, eta_k = (e0 + i e2, w_k), reads w_k before its columns are written
            xa, xb = _pair_mul(a, b, eta_a, w_next[start:stop])
            _rows(a, b, out=ys[start + 1 : stop + 1, :4])
            _rows(xa, xb, out=ys[start + 1 : stop + 1, 4:])
    s = np.arange(nsteps + 1) * dt
    return HamiltonianTrajectory(s, ys[:, :4], ys[:, 4:])


def verify_velocity_energy(curve: SampledCurve):
    """max | |v|^2 - (a^2 + b^2) | with (a, b) recomputed from the frame.

    The frame matrix with rows (X, Y, T, N) satisfies M M^T = |q|^2 I, so
    it is checked through | |q| - 1 | <= max(1e-12, 2 n eps) over the n
    samples, a rounding bound that grows with the sample count.  Sampled
    closed-form geodesics stay unit to rounding.  The q of a Hamiltonian
    run also leaves the sphere by its RK4 truncation error, which the
    bound does not allow for.  At h = 1e-3 with r = 1 and |lambda| <= 1
    that stays at rounding level, at most 2.2e-15 on 200 seeded geodesics
    of 10^4 steps, but a coarse step over a long horizon exceeds the
    bound: 1.2e-9 over 10^4 steps of h = 1e-2 at lambda = 1.
    That and velocities off the tangent space by more than
    1e-6 max(1, |v|) raise, indicating off-sphere samples.
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
    """max |<gamma'', T>| with three-point second differences on a strictly increasing grid."""
    if curve.n < 3:
        raise ValueError("need at least 3 samples")
    s, p = curve.s, curve.points
    if np.any(np.diff(s) <= 0.0):
        raise ValueError("finite differences need a strictly increasing grid")
    return float(np.max(np.abs(_row_sum(_second_difference(s, p) * -(p[1:-1] @ I2)))))


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
