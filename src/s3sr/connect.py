"""Horizontal-curve construction between arbitrary points of the sphere.

The core construction works in the angle chart: with

    phi(s) = phi0 + k*s,   psi(s) = arctan(q(s)),   k = phi1 - phi0,

horizontality reduces to theta' = -k q(s) sin(theta), and the boundary
data pin q(0) = tan(psi0), q(1) = tan(psi1) and the integral of q.  A
cubic Hermite primitive F supplies the unique low-degree q = F' meeting
all three conditions, and theta has the closed form
theta(s) = 2 arctan(tan(theta0/2) exp(-k F(s))), exact at s = 1 by the
choice of the integral.  The leg's safety bounds, max |q| and max
|log tan(theta/2)| on [0, 1], come from closed-form critical points of
coefficient tuples.

The chart construction needs both endpoints at chart-friendly
positions: away from the circles theta in {0, pi} and with psi in the
principal branch (cos psi > 0).  Right translation by unit quaternions
of the form exp(chi*j), or those times i, preserves the horizontal
distribution, so the construction is run in a translated gauge chosen
by a deterministic score and mapped back afterwards.  The boundary data
of all 32 candidate gauges come from one array pass of the chart
inverse, on the 64 translated endpoints of one broadcast product.  A
gauge is kept only when min(sin(theta), cos(psi)) >= 0.02 at both
translated endpoints, which already puts them off the poles and psi in
the principal branch.  The leg is evaluated in one pass of the chart
kernel, which shares its trigonometry between points and velocities,
and the gauge g is undone inside that pass: conj(g) has two nonzero
components, so each component of the right product by conj(g) is a
sum of two terms, written straight into the output arrays.  When an
output holds an exact zero, the two zero terms are added as well, so
the sign of that zero, like every other bit, equals the full
quaternion product.  Pairs that no gauge makes chart-friendly (and
degenerate data such as k ~ 0) fall back to a waypoint route: two
one-parameter-subgroup arcs with horizontal axes, glued with a smooth
time warp whose first and second derivatives vanish at the junction.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .charts import EulerAngles, _angle_arrays, _chart_columns, to_cartesian, wrap_angle
from .curves import SampledCurve, omega_fd_residuals
from .quaternions import _conj_mul_floats, _qmul_terms, _right_terms, check_unit, conj, qexp_pure, qmul

__all__ = [
    "ConstructionError",
    "connect",
    "connect_constant_psi",
    "QMAX",
]

QMAX = 1e6          # |tan(psi)| guard along a constructed leg
_K_MIN = 1e-6       # smallest usable azimuth gap
_POLE_MARGIN = 5e-3   # min sin(theta) allowed along a chart leg
_LOG_TAN_MAX = float(np.arccosh(1.0 / _POLE_MARGIN))  # sin(theta) = 1/cosh(log tan(theta/2))
_SCORE_KEEP = 0.30    # identity-gauge margin below which gauges are searched
_SCORE_MIN = 0.02     # gauge score below which construction is hopeless
_ENDPOINT_TOL = 1e-8


class ConstructionError(RuntimeError):
    """Raised when no route meets the endpoint tolerance."""

    def __init__(self, message, endpoint_error=float("nan")):
        super().__init__(message)
        self.endpoint_error = endpoint_error


def _hermite_coeffs(alpha, beta, gamma):
    """Coefficients, lowest degree first, of the cubic f with f(0)=0, f(1)=alpha, f'(0)=beta, f'(1)=gamma."""
    return (0.0, beta, 3.0 * alpha - 2.0 * beta - gamma, beta + gamma - 2.0 * alpha)


def _leg_coeffs(integral, t0, t1, k, l0):
    """Coefficient tuples of q = F' and log_tan = l0 - k F for the Hermite cubic F of (integral, t0, t1)."""
    _, f1, f2, f3 = _hermite_coeffs(integral, t0, t1)
    return (f1, 2.0 * f2, 3.0 * f3), (l0, -k * f1, -k * f2, -k * f3)


def _horner(c, s):
    """The coefficient tuple c (lowest degree first) at s, in numpy polyval's order."""
    v = c[-1] + s * 0
    for ci in c[-2::-1]:
        v = ci + v * s
    return v


def _abs_max(c) -> float:
    """Exact max of |p| on [0, 1] for coefficients c of degree <= 3: at 0, 1 or a real root of p'."""
    _, d0, d1, d2 = (j * cj for j, cj in enumerate((*c, 0.0, 0.0, 0.0)[:4]))  # p' = d0 + d1 s + d2 s^2
    s = [0.0, 1.0]
    if d2 == 0.0:
        s += [-d0 / d1] if d1 != 0.0 else []
    elif (disc := d1 * d1 - 4.0 * d2 * d0) >= 0.0:  # a negative discriminant leaves p monotone
        # the stable quadratic formula; t = 0 only for a double root at 0
        t = -0.5 * (d1 + math.copysign(math.sqrt(disc), d1))
        s += [t / d2, d0 / t] if t != 0.0 else [0.0]
    return float(max(abs(_horner(c, min(max(x, 0.0), 1.0))) for x in s))


# ---------------------------------------------------------------------------
# legs: objects evaluable on any parameter array in [0, 1]


class _SubgroupLeg:
    """q(s) = q0 * exp(s*u*(cos(chi) i + sin(chi) k)): a horizontal arc."""

    def __init__(self, q0, axis3, angle):
        self.q0 = np.asarray(q0, dtype=float)
        self.axis3 = np.asarray(axis3, dtype=float)
        self.angle = float(angle)

    @property
    def end(self):
        return qmul(self.q0, qexp_pure(self.angle * self.axis3))

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        steps = qexp_pure(np.outer(s * self.angle, self.axis3))
        pts = qmul(self.q0, steps)
        gen = np.concatenate([[0.0], self.angle * self.axis3])
        vel = qmul(pts, gen)
        return pts, vel


class _ChartLeg:
    """The chart leg in a translated gauge, from the coefficient tuples of q and log tan(theta/2)."""

    def __init__(self, gauge, phi0, k, q, log_tan):
        self.undo = _right_terms(conj(gauge))    # conj(gauge) undoes the right translation
        self.phi0 = phi0
        self.k = k
        self.q = q
        self.log_tan = log_tan

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        qv = _horner(self.q, s)
        ell = _horner(self.log_tan, s)
        theta = 2.0 * np.arctan(np.exp(ell))
        phi = self.phi0 + self.k * s
        psi = np.arctan(qv)
        dpsi = _horner((self.q[1], 2.0 * self.q[2]), s) / (1.0 + qv * qv)
        dtheta = -self.k * qv / np.cosh(ell)
        pts, vel = _chart_columns(phi, psi, theta, self.k, dpsi, dtheta)
        shape = s.shape + (4,)
        return _qmul_terms(pts, self.undo, np.empty(shape)), _qmul_terms(vel, self.undo, np.empty(shape))


def _smoothstep(u):
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_d(u):
    return 30.0 * u * u * (1.0 - u) * (1.0 - u)


class _GluedLeg:
    """Two legs traversed on [0, 1/2] and [1/2, 1] with a C^2 time warp."""

    def __init__(self, leg_a, leg_b):
        self.leg_a = leg_a
        self.leg_b = leg_b

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        pts = np.empty(s.shape + (4,))
        vel = np.empty_like(pts)
        first = s <= 0.5
        for mask, leg, offset in ((first, self.leg_a, 0.0), (~first, self.leg_b, 0.5)):
            if not np.any(mask):
                continue
            u = 2.0 * (s[mask] - offset)
            p, v = leg.eval(_smoothstep(u))
            pts[mask] = p
            vel[mask] = v * (2.0 * _smoothstep_d(u))[:, None]
        return pts, vel


# ---------------------------------------------------------------------------
# route selection


def _as_point(p, name):
    if isinstance(p, EulerAngles):
        return to_cartesian(p)
    return check_unit(p, what=f"endpoint {name}")


def _sample_count(n):
    """n as an int of at least 2; ValueError otherwise."""
    try:
        count = operator.index(n)
    except TypeError:
        count = None
    if count is None or count < 2:
        raise ValueError(f"n must be an integer of at least 2 samples, got {n!r}")
    return count


def _single_arc(q_from, rel):
    """One horizontal subgroup arc reaching rel, when rel has no j part."""
    w, x, y, z = rel
    if abs(y) > 1e-13:
        return None
    r = float(np.hypot(x, z))
    if r < 1e-13:
        # rel ~ -1: a half-turn about any horizontal axis
        return _SubgroupLeg(q_from, (1.0, 0.0, 0.0), np.pi)
    u = float(np.arctan2(r, w))
    return _SubgroupLeg(q_from, (x / r, 0.0, z / r), u)


def _two_arc_legs(q_from, rel):
    """Split rel into exp(u1*i) * exp(u2*(cos(chi2) i + sin(chi2) k)).

    Always solvable: the j component of the product is carried entirely
    by the cross term of the two horizontal axes.
    """
    w, x, y, z = rel
    u1 = float(np.arctan2(-y, z))
    c1, s1 = np.cos(u1), np.sin(u1)
    c2 = c1 * w + s1 * x
    tau = c1 * x - s1 * w
    sig = c1 * z - s1 * y
    u2 = float(np.arctan2(np.hypot(tau, sig), c2))
    chi2 = float(np.arctan2(sig, tau))
    leg_a = _SubgroupLeg(q_from, (1.0, 0.0, 0.0), u1)
    leg_b = _SubgroupLeg(leg_a.end, (np.cos(chi2), 0.0, np.sin(chi2)), u2)
    return leg_a, leg_b, (u1, u2, chi2)


def _gauge_candidates():
    """Right translations preserving the horizontal distribution, stacked (32, 4)."""
    gauges = [np.array([1.0, 0.0, 0.0, 0.0])]
    for chi in np.linspace(0.0, np.pi, 16, endpoint=False):
        g = np.array([np.cos(chi), 0.0, np.sin(chi), 0.0])
        if chi != 0.0:
            gauges.append(g)
        gauges.append(qmul(g, np.array([0.0, 1.0, 0.0, 0.0])))
    return np.stack(gauges)


_GAUGES = _gauge_candidates()


def _gauge_scores(qt, rx, ry):
    """min(sin(theta), cos(psi)) row by row, from qt and its _angle_arrays rx, ry; -inf near poles."""
    x1, x2, y1, y2 = qt[..., 0], qt[..., 1], qt[..., 2], qt[..., 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_psi = (x1 * y1 + x2 * y2) / (rx * ry)
    near_pole = (rx < 1e-12) | (ry < 1e-12)
    return np.where(near_pole, -np.inf, np.minimum(2.0 * rx * ry, cos_psi))


def _single_leg(q_from, q_to, rel):
    arc = _single_arc(q_from, rel)
    if arc is not None:
        return arc, {"route": "subgroup-arc", "angle": arc.angle, "axis": tuple(arc.axis3)}
    # one array pass over the 32 gauges, row 0 for P and row 1 for Q, with
    # psi wrapped into (-pi, pi] and phi shifted to match
    qt = qmul(np.stack([q_from, q_to])[:, None], _GAUGES)
    phi, psi_raw, theta, rx, ry = _angle_arrays(qt)
    margins = _gauge_scores(qt, rx, ry).min(axis=0)
    psi = wrap_angle(psi_raw)
    phi = phi + 2.0 * np.pi * np.round((psi - psi_raw) / (2.0 * np.pi))
    k = phi[1] - phi[0]
    k -= 4.0 * np.pi * np.round(k / (4.0 * np.pi))
    # margin >= _SCORE_MIN forces 2 rx ry >= 0.02, so rx, ry >= 0.01 (far off
    # the poles), and cos(psi) >= 0.02, so the wrapped psi is principal
    idx = np.flatnonzero((margins >= _SCORE_MIN) & (np.abs(k) >= _K_MIN))
    phi0, psi, theta, k = phi[0, idx], psi[:, idx], theta[:, idx], k[idx]
    tan_psi = np.tan(psi)
    half_tan = np.tan(0.5 * theta)
    integral = np.log(half_tan[0] / half_tan[1]) / k
    # controls how hard the Hermite q and the azimuth sweep can whip the
    # curve around; ranks otherwise-valid gauges
    wildness = np.maximum(np.abs(tan_psi).max(axis=0), np.abs(integral)) + 0.25 * np.abs(k)
    order = np.lexsort((idx, wildness))
    # the untranslated construction is kept when it is comfortably tame;
    # otherwise gauges are tried from the tamest boundary data up
    identity_ok = idx.size and idx[0] == 0 and margins[0] >= _SCORE_KEEP
    if identity_ok and wildness[0] <= max(4.0 * wildness[order[0]], 3.0):
        order = np.concatenate([[0], order[order != 0]])
    for j in order[:6].tolist():
        kj = float(k[j])
        q, log_tan = _leg_coeffs(float(integral[j]), float(tan_psi[0, j]), float(tan_psi[1, j]),
                                 kj, float(np.log(half_tan[0, j])))
        # exact bounds: sin(theta) >= _POLE_MARGIN along the leg iff |log_tan| <= _LOG_TAN_MAX
        if _abs_max(q) > QMAX or _abs_max(log_tan) > _LOG_TAN_MAX:
            continue
        gauge = _GAUGES[idx[j]]
        meta = {
            "route": "chart",
            "k": kj,
            "q_coeffs": q,
            "q_integral": float(integral[j]),
            "theta0": float(theta[0, j]),
            "theta1": float(theta[1, j]),
            "psi0": float(psi[0, j]),
            "psi1": float(psi[1, j]),
            "gauge": tuple(float(g) for g in gauge),
        }
        return _ChartLeg(gauge, float(phi0[j]), kj, q, log_tan), meta
    return None, None


def connect(P, Q, n=256) -> SampledCurve:
    """Smooth horizontal curve from P to Q sampled at n parameter values.

    P and Q may be EulerAngles or unit 4-vectors.  The returned curve
    carries analytic velocities; its meta records the route taken, the
    endpoint error and the finite-difference horizontality residual.

    Raises ConstructionError if the endpoints cannot be met to 1e-8
    (not observed for unit inputs; the waypoint route is total).
    """
    n = _sample_count(n)
    q_from = _as_point(P, "P")
    q_to = _as_point(Q, "Q")
    s = np.linspace(0.0, 1.0, n)

    if float(np.linalg.norm(q_from - q_to)) < 1e-13:
        pts = np.tile(q_from, (n, 1))
        vel = np.zeros_like(pts)
        meta = {"tag": "connect", "route": "constant", "endpoint_error": 0.0, "max_omega_fd": 0.0}
        return SampledCurve(s, pts, vel, meta)

    rel = _conj_mul_floats(q_from, q_to)
    leg, meta = _single_leg(q_from, q_to, rel)
    if leg is None:
        leg_a, leg_b, arcs = _two_arc_legs(q_from, rel)
        leg = _GluedLeg(leg_a, leg_b)
        meta = {"route": "two-arc", "arcs": arcs}

    pts, vel = leg.eval(s)
    endpoint_error = max(
        float(np.linalg.norm(pts[0] - q_from)), float(np.linalg.norm(pts[-1] - q_to))
    )
    if not endpoint_error <= _ENDPOINT_TOL:  # NaN fails too
        raise ConstructionError(
            f"constructed curve misses the endpoints by {endpoint_error:.3e}",
            endpoint_error,
        )
    curve = SampledCurve(s, pts, vel, dict(meta, tag="connect"))
    curve.meta["endpoint_error"] = endpoint_error
    curve.meta["max_omega_fd"] = float(np.max(omega_fd_residuals(curve)))
    return curve


def connect_constant_psi(phi0, theta0, phi1, theta1, n):
    """Horizontal curve with constant psi joining (phi0, theta0) to (phi1, theta1).

    Returns (psi, curve).  The angle psi is fixed by the endpoints:

        psi = arctan( log(tan(theta1/2) / tan(theta0/2)) / (phi0 - phi1) )

    and the curve follows phi(theta) = phi0 - log(tan(theta/2) /
    tan(theta0/2)) / tan(psi).  For theta0 == theta1 the construction
    degenerates to psi = 0 with phi interpolated linearly at fixed
    theta, which is horizontal because sin(psi) = 0.
    """
    n = _sample_count(n)
    for th in (theta0, theta1):
        if not 0.0 < th < np.pi:
            raise ValueError(f"theta must lie strictly inside (0, pi), got {th}")
    if phi0 == phi1 and theta0 == theta1:
        raise ValueError("endpoints coincide")

    t = np.linspace(0.0, 1.0, n)
    if abs(theta1 - theta0) < 1e-14:
        psi = 0.0
        theta = np.full_like(t, theta0)
        phi = phi0 + t * (phi1 - phi0)
        dphi = np.full_like(t, phi1 - phi0)
        dtheta = np.zeros_like(t)
    else:
        ratio = float(np.log(np.tan(0.5 * theta1) / np.tan(0.5 * theta0)))
        if phi0 == phi1:
            # meridian: cos(psi) = 0 makes any theta motion horizontal
            psi = float(np.copysign(0.5 * np.pi, ratio))
        else:
            psi = float(np.arctan(ratio / (phi0 - phi1)))
        theta = theta0 + t * (theta1 - theta0)
        dtheta = np.full_like(t, theta1 - theta0)
        tan_psi = np.tan(psi)
        if np.isfinite(tan_psi) and abs(tan_psi) > 1e-15 and phi0 != phi1:
            phi = phi0 - (np.log(np.tan(0.5 * theta)) - np.log(np.tan(0.5 * theta0))) / tan_psi
            dphi = -dtheta / (tan_psi * np.sin(theta))
        else:
            phi = np.full_like(t, phi0)
            dphi = np.zeros_like(t)

    psi_arr = np.full_like(t, psi)
    dpsi = np.zeros_like(t)
    pts, vel = (np.stack(cols, axis=-1) for cols in _chart_columns(phi, psi_arr, theta, dphi, dpsi, dtheta))
    residual = float(
        np.max(np.abs(np.sin(theta) * np.sin(psi) * dphi + np.cos(psi) * dtheta))
    )
    curve = SampledCurve(
        t,
        pts,
        vel,
        {"tag": "constant-psi", "psi": psi, "max_sinth1_residual": residual},
    )
    return psi, curve
