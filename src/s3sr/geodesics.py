"""Geodesics of the horizontal metric: controls, closed form, checks.

A unit-speed geodesic has frame components of its velocity

    a(s) = r cos(2*lambda*s + theta0),   b(s) = r sin(2*lambda*s + theta0)

with the multiplier lambda constant, so the curve solves the
left-invariant equation q' = q * u(s) with pure control
u(s) = -a(s) i - b(s) k.  Its closed-form solution q0 exp(s (u(0) -
lambda j)) e(lambda s j) is evaluated by geodesic_point, and with its
velocity q u by integrate_geodesic on a uniform grid: no step is
integrated, so |q| stays 1 to rounding at any horizon.  In SU(2) complex
pairs (see _pair_mul) the point is c g + d h with constant pairs g, h and
two complex numbers c, d per sample, so each output is one product of a
fixed 4 x 4 matrix with a (4, n) float array (see _closed_form).  It
needs only the phases e^(i lambda s) and e^(i omega s); on the uniform
grid s = k dt they are powers, which _powers takes from two short tables.

Samples are stored by component: both integrators write (4, n) blocks, one
contiguous row per coordinate w, x, y, z, and return their (n, 4)
transposes, so the per-sample kernels (frames.frame_ab, frames.omega_eval,
norm2, the checks below) read each component as a contiguous column.
Only the strides differ from row-major samples, never the values.

The same flow also arises from the Hamiltonian

    H(q, xi) = ( <q I1, xi>^2 + <q I3, xi>^2 ) / 2,

which in the body costate eta = conj(q) xi of the left-invariant frame
is (eta1^2 + eta3^2) / 2.  integrate_hamiltonian runs the classical
fourth-order one-step method on the pair (q, eta), the numerical
integrator that the closed form is checked against.  There eta1 + i eta3
obeys a linear constant-coefficient equation, so its RK4 iterates are
powers of one complex factor, again from _powers.  q moves by
q <- q (1 + D), D a polynomial in |eta1 + i eta3|^2 with coefficients
fixed for the run; the associative product q0 (1 + D_0) (1 + D_1) ...
is a log-depth scan in place on two complex arrays that start with
q0 - 1, its short levels a fold on Python numbers, and xi = q eta is
formed in the same arrays: no loop over the steps runs in Python.
Matching initial data must place -lambda in the <q I2, .> component
of the costate; the component along q itself is pure gauge.  The
checks at the bottom verify energy, horizontality and the linear law
for the angle between the velocity and the frame; check_rows gives the
verdict of the CLI's check on any sampled curve.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .curves import SampledCurve, _first_difference, _second_difference, omega_fd_residuals, unit_norm_error
from .frames import I1, I2, I3, frame_ab, omega_eval
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
    "check_rows",
]

# the fine table's length in _powers: exp(z k) for n samples takes
# n / _POWERS_WIDTH + _POWERS_WIDTH complex exponentials
_POWERS_WIDTH = 128
# the length at or below which _scan folds on Python numbers: a numpy call on
# one of its strided levels costs about as much as a few dozen scalar products
_SCAN_TAIL = 64
# check_rows' bound on | |q| - 1 |
_UNIT_NORM_TOL = 1e-8


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
    complex numbers (A, B) = (w + y*1j, x + z*1j), as numbers or as arrays of one
    shape.  Each part accumulates into its first product by augmented assignment,
    which on arrays saves the temporary of the sum; the inputs are only read.
    """
    p0 = a * c
    p0 -= b.conjugate() * d
    p1 = a.conjugate() * d
    p1 += b * c
    return p0, p1


def _rows(a, b, out):
    """The (4, ...) component rows w, x, y, z of the quaternions held as pairs (a, b), written into out.

    Each component is one contiguous row; the (..., 4) samples are the transpose.
    """
    out[0], out[1], out[2], out[3] = a.real, b.real, a.imag, b.imag
    return out


def _closed_form(q0, params: GeodesicParams, rho, e_omega, velocities=False):
    """Samples (w, x, y, z) of q(s) = q0 exp(s v) e(lam s j), v = u0 - lam j, and if asked of q(s) u(s).

    rho = e^(i lam s) and e_omega = e^(i omega s), omega = |v|, are the caller's phases.
    exp(s v) = cos(omega s) + sin(omega s) v / omega, whose sine term vanishes at omega = 0
    (there v / omega is taken as 0), e(lam s j) = (rho, 0) and e(lam s j) u(s) = u0 e(lam s j):
    in pairs (see _pair_mul) q = c g + d h and q u = c g u0 + d h u0, with c = cos(omega s) rho,
    d = sin(omega s) rho and the constant pairs g = q0, h = q0 v / omega.  Each sample is
    therefore real-linear in (Re c, Im c, Re d, Im d), the four products of (cos, sin)(omega s)
    with (Re, Im) rho: they fill the four rows of one (4, n) block, n the size of rho, and a fixed
    4 x 4 matrix L (see _linear_map) times that block gives each output's (4, n) component
    rows, returned transposed to the shape of rho plus (4,).  At s = 0, c and d are exactly 1
    and 0, so the first sample is q0's.
    """
    q0 = np.asarray(q0, dtype=float)
    u0 = -params.r * complex(math.cos(params.theta0), math.sin(params.theta0))  # u(0) = (0, u0)
    omega = math.hypot(params.r, params.lam)
    v_unit = (complex(0.0, -params.lam / omega), u0 / omega) if omega else (0j, 0j)
    q = complex(q0[0], q0[2]), complex(q0[1], q0[3])
    pairs = [(q, _pair_mul(*q, *v_unit))]
    if velocities:
        pairs.append(tuple(_pair_mul(*x, 0.0, u0) for x in pairs[0]))
    shape = np.shape(rho)
    coords = np.empty((4, math.prod(shape)))
    for row, (trig, phase) in zip(coords, itertools.product((e_omega.real, e_omega.imag), (rho.real, rho.imag))):
        np.multiply(trig, phase, out=row.reshape(shape))
    return [(_linear_map(g, h) @ coords).T.reshape(shape + (4,)) for g, h in pairs]


def _linear_map(g, h):
    """The 4 x 4 matrix L with L @ (Re c, Im c, Re d, Im d) the components of c g + d h, for pairs g and h.

    L is laid out in Fortran order, as the transpose of the C-ordered matrix that multiplies
    (n, 4) rows: BLAS then reads the same memory, so the values are those of the row-major
    product, a single sample (matrix times vector) included.
    """
    (ga, gb), (ha, hb) = g, h
    out = np.empty((4, 4), order="F")
    return _rows(np.array([ga, 1j * ga, ha, 1j * ha]), np.array([gb, 1j * gb, hb, 1j * hb]), out=out)


def geodesic_point(q0, params: GeodesicParams, s):
    """Closed-form geodesic point at parameter s.

        q(s) = q0 * exp(s*(u0 - lam j)) * e(lam s j),   u0 = -r (cos(theta0) i + sin(theta0) k)

    evaluated by _closed_form, with its phases from np.exp at each s,
    which need not lie on a grid; q(0) is q0 bit for bit.  Broadcasts
    over array-valued s.
    """
    s = np.asarray(s, dtype=float)
    phases = np.exp(1j * params.lam * s), np.exp(1j * math.hypot(params.r, params.lam) * s)
    return _closed_form(q0, params, *phases)[0]


def _powers(z, n):
    """exp(z k) for k = 0, ..., n - 1, exactly 1 at k = 0.

    With k = _POWERS_WIDTH a + b, exp(z k) = exp(z _POWERS_WIDTH a) exp(z b): two short
    tables of exponentials and one complex product a sample.
    """
    fine = np.exp(np.arange(min(n, _POWERS_WIDTH)) * z)
    coarse = np.exp(np.arange(0, n, _POWERS_WIDTH) * z)
    return (coarse[:, None] * fine).ravel()[:n]


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

    The points are geodesic_point's closed form on the grid
    s = k * T / round(T / h), with the phases e^(i lam s) and e^(i omega s)
    taken as powers from _powers, so they stay unit to rounding at any
    horizon and the first is q0; the velocities a(s) X + b(s) Y = q(s) u(s)
    are a second matrix product on the same phases (see _closed_form).
    meta["method"] records that the samples come from the closed form.
    """
    nsteps, dt = _grid(T, h)
    q0 = check_unit(q0, what="initial point q0")
    s = np.arange(nsteps + 1) * dt
    omega = math.hypot(params.r, params.lam)
    phases = (_powers(complex(0.0, z * dt), nsteps + 1) for z in (params.lam, omega))
    pts, vel = _closed_form(q0, params, *phases, velocities=True)
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
    """Phase-space samples of the Hamiltonian flow, and how they were obtained."""

    s: np.ndarray
    q: np.ndarray
    xi: np.ndarray
    meta: dict

    def momenta(self):
        """(p1, p3) = (<q I1, xi>, <q I3, xi>), i.e. -(a, b) of xi as q I1 = -X, q I3 = -Y."""
        a, b = frame_ab(self.q, self.xi)
        return -a, -b

    def qdot(self):
        """p1 q i + p3 q k, with q i = (-x, w, z, -y) and q k = (-z, y, -x, w), as (4, n) rows transposed."""
        p1, p3 = self.momenta()
        w, x, y, z = self.q.T + 0.0  # a zero coordinate enters as +0, as in the BLAS products q @ I1, q @ I3
        _, nx, ny, nz = 0.0 - self.q.T
        out = np.empty((4, len(p1)))
        for row, c1, c3 in zip(out, (nx, w, z, ny), (nz, y, nx, w)):
            np.multiply(p1, c1, out=row)
            row += p3 * c3
        return out.T

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
    """The pair of (1 + a)(1 + b) - 1 for pairs a = (a0, a1), b = (b0, b1) of arrays or numbers.

    Written into b's arrays by augmented assignment and returned; on numbers, which
    are immutable, only returned.  The float operations are those of
    (a0 + b0 + p0, a1 + b1 + p1) with (p0, p1) = _pair_mul(a0, a1, b0, b1), whose
    products keep their operands in that order, as numpy's complex product is not
    bit-commutative; only a0 + b0 is taken as b0 + a0, which differs at most in
    the payload of a NaN.
    """
    (a0, a1), (b0, b1) = a, b
    p0, p1 = _pair_mul(a0, a1, b0, b1)
    b0 += a0
    b0 += p0
    b1 += a1
    b1 += p1
    return b0, b1


def _scan(a, b):
    """In place, c[k] <- c[0] o c[1] o ... o c[k] for the pairs c[k] = (a[k], b[k]) and o of _compose.

    o is associative, so the running products come from a tree: each odd
    entry absorbs the entry before it, the odd entries are scanned at half
    the length, and each even entry then absorbs the odd one before it
    (Blelloch's up- and down-sweep); the levels are strided views of a and b.
    A level of at most _SCAN_TAIL entries, where numpy's per-call cost
    outweighs the arithmetic, is a left fold on Python complex numbers.
    """
    if len(a) <= _SCAN_TAIL:
        xa, xb = a.tolist(), b.tolist()
        for k in range(1, len(xa)):
            xa[k], xb[k] = _compose((xa[k - 1], xb[k - 1]), (xa[k], xb[k]))
        a[:], b[:] = xa, xb
        return
    odd_a, odd_b = a[1::2], b[1::2]
    _compose((a[:-1:2], b[:-1:2]), (odd_a, odd_b))
    _scan(odd_a, odd_b)
    n_even = (len(a) - 1) // 2
    _compose((odd_a[:n_even], odd_b[:n_even]), (a[2::2], b[2::2]))


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
    D = (h/6)(U_1 + 2 sigma_2 U_2 + 2 sigma_3 U_3 + sigma_4 U_4).  With
    U_s = i w g_s these products collapse, exactly, to a polynomial in
    m = |w_k|^2: in pairs (see _pair_mul)

        D_k = (m K1 + m^2 K2, (L0 + L1 m) w_k),
        K1 = (h/6)(-h (g2 + conj(g2) g3) - h conj(g3) g4),
        K2 = (h/6) h (h/2)^2 g2 conj(g3) g4,
        L0 = (h/6)(1 + 2 g2 + 2 g3 + g4),
        L1 = (h/6)(-2 (h/2)^2 conj(g2) g3 - h (h/2) g2 conj(g3) g4),

    still the classical scheme for any h, |R| < 1 included.  So
    q_k = q0 (1 + D_0) ... (1 + D_(k-1)): _scan turns the pair of q0 - 1 and
    the D_k, built in one pass in two contiguous complex arrays, in place into
    the pairs of q_k - 1, in a tree order that rounds less than a step-by-step
    fold and with no 1 + D_k, which would round away D_k's low digits.  Then
    q_k and xi_k = q_k eta_k, eta_k = (e0 + i e2, w_k), are formed in place and
    written as the component rows of one (8, n) table, whose (n, 4) transposes
    are returned.
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
    # the coefficients K1, K2, L0 and L1 of the increments D_k
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = sixth * -dt * (g2 + g2.conjugate() * g3 + g3.conjugate() * g4)
    k2 = sixth * dt * half * half * g2 * g3.conjugate() * g4
    l0 = sixth * (1.0 + 2.0 * g2 + 2.0 * g3 + g4)
    l1 = sixth * -half * (2.0 * half * g2.conjugate() * g3 + dt * g2 * g3.conjugate() * g4)
    ys = np.empty((8, nsteps + 1))
    # the four xi rows hold w_k and conj(B_k) w_k, as one flat complex buffer,
    # until xi_k replaces them; a and b, allocated once the temporaries of w_k
    # and m are gone, hold the pairs of q0 - 1 and of the increments D_k, then
    # of q_k - 1 after the scan
    w, bw = ys[4:].reshape(-1).view(complex).reshape(2, -1)
    eta_a = complex(e0, e2)
    with np.errstate(all="ignore"):  # a huge costate runs to inf and NaN, as any RK4 would
        np.multiply(complex(e1, e3), _powers(log_r, nsteps + 1), out=w)  # w_k = w0 R^k
        wk = w[:-1]
        m = wk.real * wk.real + wk.imag * wk.imag
        a, b = np.empty((2, nsteps + 1), dtype=complex)
        a[0], b[0] = complex(q0[0] - 1.0, q0[2]), complex(q0[1], q0[3])
        da, db = a[1:], b[1:]
        np.multiply(m, k2, out=da)
        da += k1
        da *= m
        np.multiply(m, l1, out=db)
        db += l0
        db *= wk
        del m
        _scan(a, b)
        a += 1.0
        _rows(a, b, out=ys[:4])
        # xi_k = q_k eta_k = (A eta_a - conj(B) w_k, conj(A) w_k + B eta_a), eta_k = (eta_a, w_k)
        np.conjugate(b, out=bw)
        bw *= w
        np.multiply(a.conjugate(), w, out=w)
        a *= eta_a
        a -= bw
        b *= eta_a
        b += w
        _rows(a, b, out=ys[4:])
    ys[:4, 0], ys[4:, 0] = q0, xi0
    s = np.arange(nsteps + 1) * dt
    meta = {"tag": "hamiltonian", "method": "rk4_body", "T": T, "h": dt}
    return HamiltonianTrajectory(s, ys[:4].T, ys[4:].T, meta)


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
    if (radial > 1e-6 * np.maximum(1.0, np.sqrt(vv))).any():
        raise ValueError(f"vector is not tangent: |<v, q>| = {float(radial.max()):.3e}")
    a, b = frame_ab(q, v)
    vv -= a * a + b * b
    return float(np.abs(vv, out=vv).max())


def acceleration_T_residual(curve: SampledCurve) -> float:
    """max |<gamma'', T>| with three-point second differences on a strictly increasing grid."""
    if curve.n < 3:
        raise ValueError("need at least 3 samples")
    p = curve.points
    residual = omega_eval(p[1:-1], _second_difference(curve.s, p))
    return float(np.abs(residual, out=residual).max())


def angle_profile(curve: SampledCurve) -> np.ndarray:
    """Unwrapped angle between the stored velocity and X along the curve.

    For sampled geodesics this is 2*lam*s + theta0 up to rounding.
    Raises on (numerically) zero velocities.  np.unwrap bit for bit, with
    its correction computed only at the steps not below pi (NaN included).
    """
    if curve.velocities is None:
        raise ValueError("curve carries no velocities")
    v = curve.velocities
    if (norm(v) < 1e-15).any():
        raise ValueError("zero velocity has no direction")
    va, vb = frame_ab(curve.points, v)
    angles = np.arctan2(vb, va, out=va)
    steps = angles[1:] - angles[:-1]
    wraps = (~(np.abs(steps) < np.pi)).nonzero()[0]
    dd = steps[wraps]
    # np.unwrap's arithmetic at period 2 pi: ddmod is dd shifted into [-pi, pi),
    # with +pi kept for a positive dd that lands on -pi
    ddmod = np.mod(dd + np.pi, 2.0 * np.pi) - np.pi
    ddmod[(ddmod == -np.pi) & (dd > 0.0)] = np.pi
    correction = np.zeros_like(steps)
    correction[wraps] = ddmod - dd
    angles[1:] += correction.cumsum()
    return angles


def _extrapolated(diff, curve):
    """(estimates, rows): the central difference diff, Richardson-extrapolated where it fits.

    On a uniform grid (4 D_h - D_2h) / 3 cancels the h^2 term of D_h, so the estimate is
    accurate to O(h^4) on the rows two or more from either end, where the +-2h stencil fits;
    D_2h is diff on the even and on the odd rows.  Below 5 samples it is D_h on rows 1..n-2.
    """
    s, p = curve.s, curve.points
    d_h = diff(s, p)
    if curve.n < 5:
        return d_h, slice(1, -1)
    d_2h = np.empty_like(d_h[2:])
    for k in (0, 1):
        d_2h[k::2] = diff(s[k::2], p[k::2])
    return (4.0 * d_h[1:-1] - d_2h) / 3.0, slice(2, -2)


def check_rows(curve: SampledCurve, ab, lam, tol):
    """The CLI's check of a curve: (rows, skips) of (name, value, bound) and 'name (why it is left out)'.

    Velocity-energy compares |v|^2 with a^2 + b^2 from the per-sample ab = (a, b), and angle-linearity
    the slope of angle_profile with 2 lam, None for a curve with no lam.  Past unit norm the derivatives
    are _extrapolated central differences; a grid that is not strictly increasing raises first.
    """
    rows, skips = [("unit-norm", unit_norm_error(curve), _UNIT_NORM_TOL)], []
    if curve.n == 2:  # one chord, so only its one-sided difference
        rows.append(("horizontality", float(np.max(omega_fd_residuals(curve))), tol))
    if curve.n >= 3:
        acc, inner = _extrapolated(_second_difference, curve)  # raises before any division by a zero step
        vel, _ = _extrapolated(_first_difference, curve)
        pts = curve.points[inner]
        rows.append(("horizontality", float(np.max(np.abs(omega_eval(pts, vel)))), tol))
        a, b = (np.asarray(c)[inner] for c in ab)
        rows.append(("velocity-energy", float(np.max(np.abs(norm2(vel) - (a**2 + b**2)))), tol))
        rows.append(("acceleration-T", float(np.max(np.abs(omega_eval(pts, acc)))), tol))
    if lam is None:
        skips.append("angle-linearity (not a geodesic record)")
    elif curve.n < 7:  # fewer than 3 extrapolated velocities to fit a line to
        skips.append("angle-linearity (fewer than 7 samples)")
    else:
        try:
            angles = angle_profile(SampledCurve(curve.s[inner], pts, vel))
        except ValueError:  # a stationary curve's velocity has no direction
            skips.append("angle-linearity (zero velocity)")
        else:
            slope = np.polyfit(curve.s[inner], angles, 1)[0]
            rows.append(("angle-linearity", abs(float(slope) - 2.0 * float(lam)), tol))
    return rows, skips
