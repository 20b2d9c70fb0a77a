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
principal branch (cos psi > 0).  Right translation by the T-flow turns
exp(chi*j) preserves the horizontal distribution, so the construction is
run in a translated gauge chosen by a deterministic score and mapped
back afterwards.  The boundary data of all 16 candidate gauges come from
one array pass of the chart inverse, on the 32 translated endpoints:
qmul's products bit for bit, formed without it from the endpoints'
factors times a table of signed gauge factors built at import, summed
term by term in qmul's order.  A gauge is kept only when
min(sin(theta), cos(psi)) >= 0.02 at both translated endpoints, which
puts them off the poles and psi in the principal branch.  The leg is
evaluated in one pass of the chart kernel, which shares its trigonometry
between points and velocities and writes both row arrays in place, and
the gauge g is undone by one product with the 4x4 matrix of right
multiplication by conj(g), built for each gauge at import.  Pairs that
no gauge makes chart-friendly (and degenerate data such as k ~ 0) fall
back to a waypoint route: two one-parameter-subgroup arcs with
horizontal axes, glued with a smooth time warp whose first and second
derivatives vanish at the junction.  Such an arc a * exp(t n), with n a
unit axis in span{i, k}, is the great circle cos(t) a + sin(t) (a n),
evaluated in closed form from one cos/sin pass and the single product
a n, taken on Python floats.  No route calls qmul at run time.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .charts import EulerAngles, _angle_arrays, _chart_columns, omega_euler, to_cartesian, wrap_angle
from .curves import SampledCurve, omega_fd_residuals
from .quaternions import QUAT_I, _conj_mul_floats, _mul_floats, check_unit, conj, qmul

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
_COINCIDENT_TOL = 1e-13  # endpoints closer than this take the constant route


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
    _, c1, c2, c3 = (*c, 0.0, 0.0, 0.0)[:4]
    d0, d1, d2 = c1, 2 * c2, 3 * c3  # p' = d0 + d1 s + d2 s^2
    roots = ()
    if d2 == 0.0:
        roots = (-d0 / d1,) if d1 != 0.0 else ()
    elif (disc := d1 * d1 - 4.0 * d2 * d0) >= 0.0:  # a negative discriminant leaves p monotone
        # the stable quadratic formula; t = 0 only for a double root at 0
        t = -0.5 * (d1 + math.copysign(math.sqrt(disc), d1))
        roots = (t / d2, d0 / t) if t != 0.0 else (0.0,)
    best = max(abs(_horner(c, 0.0)), abs(_horner(c, 1.0)))
    for x in roots:
        best = max(best, abs(_horner(c, min(max(x, 0.0), 1.0))))
    return float(best)


# ---------------------------------------------------------------------------
# legs: points and velocities on a parameter array s in [0, 1]


def _circle(a, an, angle, u, du):
    """a * exp(angle*u*n) = cos(angle*u) a + sin(angle*u) (a n) and its s-derivative, from a and an = a n.

    n is a unit pure quaternion in span{i, k}, so the arc is a
    horizontal great circle; du is the derivative of u with respect to s.
    """
    t = angle * u
    c, sn = np.cos(t), np.sin(t)
    rate = angle * du
    return c[:, None] * a + sn[:, None] * an, (rate * c)[:, None] * an - (rate * sn)[:, None] * a


def _chart_leg(undo, phi0, k, q, log_tan, s):
    """The chart leg in a translated gauge, from the coefficient tuples of q and log tan(theta/2).

    undo is the gauge's entry of _UNDO, which maps the leg back.
    """
    qv = _horner(q, s)
    ell = _horner(log_tan, s)
    theta = 2.0 * np.arctan(np.exp(ell))
    phi = phi0 + k * s
    psi = np.arctan(qv)
    dpsi = _horner((q[1], 2.0 * q[2]), s) / (1.0 + qv * qv)
    dtheta = -k * qv / np.cosh(ell)
    pts, vel = _chart_columns(phi, psi, theta, k, dpsi, dtheta)
    return pts @ undo, vel @ undo


def _smoothstep(u):
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_d(u):
    return 30.0 * u * u * (1.0 - u) * (1.0 - u)


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


def _dist(p, q):
    """float(np.linalg.norm(p - q)) for two (4,) arrays: the root of the difference's dot product."""
    d = p - q
    return math.sqrt(d.dot(d))


def _single_arc(rel):
    """(axis, angle) of the one horizontal subgroup arc reaching rel, when rel has no j part."""
    w, x, y, z = rel
    if abs(y) > 1e-13:
        return None
    r = float(np.hypot(x, z))
    if r < 1e-13:
        # rel ~ -1: a half-turn about any horizontal axis
        return (1.0, 0.0, 0.0), np.pi
    return (x / r, 0.0, z / r), float(np.arctan2(r, w))


def _two_arcs(q_from, rel, s):
    """Points, velocities and (u1, u2, chi2) of exp(u1*i) * exp(u2*(cos(chi2) i + sin(chi2) k)) = rel.

    Always solvable: the j component of the product is carried entirely
    by the cross term of the two horizontal axes.  The arcs are
    traversed on [0, 1/2] and [1/2, 1] with a C^2 time warp.
    """
    w, x, y, z = rel
    u1 = float(np.arctan2(-y, z))
    c1, s1 = np.cos(u1), np.sin(u1)
    c2 = c1 * w + s1 * x
    tau = c1 * x - s1 * w
    sig = c1 * z - s1 * y
    u2 = float(np.arctan2(np.hypot(tau, sig), c2))
    chi2 = float(np.arctan2(sig, tau))
    qi = _mul_floats(q_from, QUAT_I)
    mid = c1 * q_from + s1 * np.array(qi)
    mid_n = _mul_floats(mid, np.array([0.0, np.cos(chi2), 0.0, np.sin(chi2)]))
    pts = np.empty(s.shape + (4,))
    vel = np.empty_like(pts)
    first = s <= 0.5
    for mask, a, an, angle, offset in ((first, q_from, qi, u1, 0.0), (~first, mid, mid_n, u2, 0.5)):
        u = 2.0 * (s[mask] - offset)
        pts[mask], vel[mask] = _circle(a, an, angle, _smoothstep(u), 2.0 * _smoothstep_d(u))
    return pts, vel, (u1, u2, chi2)


def _gauge_candidates():
    """The T-flow turns exp(chi j) = (cos chi, 0, sin chi, 0), chi = m pi/16 for m = 0..15, as (16, 4).

    Right multiplication by -k maps the chart point (phi, psi, theta) to
    (phi - pi, -psi, pi - theta) and a chart leg to a chart leg, so the
    turns times -k would repeat these gauges' margins, wildness, |k| and curves.
    """
    chi = np.linspace(0.0, np.pi, 16, endpoint=False)
    return np.column_stack((np.cos(chi), np.zeros(16), np.sin(chi), np.zeros(16)))


_GAUGES = _gauge_candidates()
# p @ _UNDO[m] = p * conj(_GAUGES[m]) (row-vector convention): right
# multiplication by the inverse gauge, which undoes the translation
_UNDO = qmul(np.eye(4), conj(_GAUGES)[:, None])

# qmul's terms: component m of p * q is the sum over k of
# sign * p[_P_IDX[m][k]] * q[_Q_IDX[m][k]], added in k order as qmul adds them
_P_IDX = ((0, 1, 2, 3), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
_Q_IDX = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 0, 1, 3), (3, 0, 2, 1))
_SIGNS = ((1.0, -1.0, -1.0, -1.0), (1.0, 1.0, 1.0, -1.0), (1.0, 1.0, 1.0, -1.0), (1.0, 1.0, 1.0, -1.0))
# the signed gauge factors, (term k, component m, 1, gauge), and the indices of
# the point factors into [q_from, q_to] concatenated, (term k, component m, 2, 1)
_GAUGE_TERMS = (np.array(_SIGNS)[..., None] * _GAUGES.T[np.array(_Q_IDX)]).transpose(1, 0, 2)[:, :, None]
_POINT_TERMS = (np.array(_P_IDX).T[..., None] + np.array([0, 4]))[..., None]


def _gauge_batch(q_from, q_to):
    """qmul(np.stack([q_from, q_to])[:, None], _GAUGES) bit for bit, as a (2, 16, 4) view.

    One product of the point factors with _GAUGE_TERMS, summed term by
    term into a component-major (4, 2, 16) array.
    """
    terms = np.concatenate((q_from, q_to))[_POINT_TERMS] * _GAUGE_TERMS
    out = terms[0] + terms[1]
    out += terms[2]
    out += terms[3]
    return out.transpose(1, 2, 0)


def _gauge_scores(qt, rx, ry):
    """min(sin(theta), cos(psi)) row by row, from qt and its _angle_arrays rx, ry; -inf near poles."""
    x1, x2, y1, y2 = qt[..., 0], qt[..., 1], qt[..., 2], qt[..., 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_psi = (x1 * y1 + x2 * y2) / (rx * ry)
    near_pole = (rx < 1e-12) | (ry < 1e-12)
    return np.where(near_pole, -np.inf, np.minimum(2.0 * rx * ry, cos_psi))


def _single_leg(q_from, q_to, rel, s):
    """Points, velocities and meta of a subgroup arc or a chart leg from q_from to q_to, or None."""
    arc = _single_arc(rel)
    if arc is not None:
        axis, angle = arc
        pts, vel = _circle(q_from, _mul_floats(q_from, np.array([0.0, *axis])), angle, s, 1.0)
        return pts, vel, {"route": "subgroup-arc", "angle": angle, "axis": axis}
    # one array pass over the 16 gauges, row 0 for P and row 1 for Q, with
    # psi wrapped into (-pi, pi] and phi shifted to match
    qt = _gauge_batch(q_from, q_to)
    phi, psi_raw, theta, rx, ry = _angle_arrays(qt)
    margins = _gauge_scores(qt, rx, ry).min(axis=0)
    psi = wrap_angle(psi_raw)
    phi = phi + 2.0 * np.pi * ((psi - psi_raw) / (2.0 * np.pi)).round()
    k = phi[1] - phi[0]
    k -= 4.0 * np.pi * (k / (4.0 * np.pi)).round()
    # margin >= _SCORE_MIN forces 2 rx ry >= 0.02, so rx, ry >= 0.01 (far off
    # the poles), and cos(psi) >= 0.02, so the wrapped psi is principal
    idx = ((margins >= _SCORE_MIN) & (np.abs(k) >= _K_MIN)).nonzero()[0]
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
    for j in order[:3].tolist():
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
        return (*_chart_leg(_UNDO[idx[j]], float(phi0[j]), kj, q, log_tan, s), meta)
    return None


def connect(P, Q, n=256) -> SampledCurve:
    """Smooth horizontal curve from P to Q sampled at n parameter values.

    P and Q may be EulerAngles or unit 4-vectors.  The returned curve
    carries analytic velocities; its meta records the route taken, the
    endpoint error and the finite-difference horizontality residual.
    The fallback routes (one subgroup arc, or two glued ones) are great
    circles evaluated in closed form.

    Raises ConstructionError if the endpoints cannot be met to 1e-8
    (not observed for unit inputs; the waypoint route is total).
    """
    n = _sample_count(n)
    q_from = _as_point(P, "P")
    q_to = _as_point(Q, "Q")
    # np.linspace(0.0, 1.0, n) bit for bit, without its Python-level wrapper
    s = np.arange(n) * (1.0 / (n - 1))
    s[-1] = 1.0

    if _dist(q_from, q_to) < _COINCIDENT_TOL:
        pts = np.tile(q_from, (n, 1))
        vel = np.zeros_like(pts)
        meta = {"tag": "connect", "route": "constant", "endpoint_error": 0.0, "max_omega_fd": 0.0}
        return SampledCurve(s, pts, vel, meta)

    rel = _conj_mul_floats(q_from, q_to)
    leg = _single_leg(q_from, q_to, rel, s)
    if leg is None:
        pts, vel, arcs = _two_arcs(q_from, rel, s)
        meta = {"route": "two-arc", "arcs": arcs}
    else:
        pts, vel, meta = leg
    endpoint_error = max(_dist(pts[0], q_from), _dist(pts[-1], q_to))
    if not endpoint_error <= _ENDPOINT_TOL:  # NaN fails too
        raise ConstructionError(
            f"constructed curve misses the endpoints by {endpoint_error:.3e}",
            endpoint_error,
        )
    curve = SampledCurve(s, pts, vel, dict(meta, tag="connect"))
    curve.meta["endpoint_error"] = endpoint_error
    curve.meta["max_omega_fd"] = float(omega_fd_residuals(curve).max())
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
    pts, vel = _chart_columns(phi, psi_arr, theta, dphi, dpsi, dtheta)
    residual = 2.0 * float(np.max(np.abs(omega_euler(EulerAngles(phi, psi, theta), (dphi, 0.0, dtheta)))))
    curve = SampledCurve(
        t,
        pts,
        vel,
        {"tag": "constant-psi", "psi": psi, "max_sinth1_residual": residual},
    )
    return psi, curve
