"""Two-point geodesic boundary-value solver, exact on the cut-time loop.

Write rel = conj(P) Q, z = rel_w + i rel_j and beta = rel_x + i rel_z.
The closed-form geodesic point gives, for unit speed with
rho = T sqrt(1 + lam^2), T = rho cos(sigma) and lam = tan(sigma),

    z    = (cos rho - i sin(sigma) sin rho) e^{i rho sin(sigma)}
    beta = -sin(rho) cos(sigma) e^{i (theta0 + rho sin(sigma))}

so m = |beta| fixes sin(rho) cos(sigma) = m, and theta0 follows from
arg beta.  Minimisers have rho <= pi: at rho = pi every theta0 with the
same lambda reaches the same point of the vertical circle through P,
which is the cut time on SU(2) (Boscain & Rossi, SIAM J. Control Optim.
2008).  For m > 0 the pairs (rho, sigma) with rho in [0, pi] form one
loop, parametrised by phi in [-pi, pi] through

    cos rho = |z| cos phi,   sin(sigma) sin(rho) = |z| sin phi,

on which the z equation reads arg z = rho sin(sigma) - phi.  That phase
falls strictly from pi to -pi around the loop, so exactly one geodesic
with rho <= pi reaches Q, and it is the shortest.  Bisection to adjacent
floats finds it on Python floats; each quarter of the loop is bisected
in the angle to its own end (phi or pi - |phi|), which keeps the float
grid fine where the loop hugs rho = 0 or rho = pi (small m).  The
closed-form cases need no search: Q = P; the vertical circle m = 0,
taken for every m below the smallest normal float (rho = pi,
pi sin(sigma) = wrap(arg z - pi), theta0 free, 0 is used);
and arg z = 0, which holds for m = 1 (rho = pi/2, lam = 0).

The returned curve comes from the reference integrator, with the step
shortened where needed so the control turns by at most _TURN per step,
and the endpoint error is re-measured on it, so the two routes
cross-check each run.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .curves import SampledCurve
from .geodesics import GeodesicParams, geodesic_point, integrate_geodesic
from .quaternions import _conj_mul_floats, check_unit

__all__ = ["ShootingConfig", "ShootingResult", "shoot"]

# largest turn 2*|lam|*h of the control per step of the returned curve
_TURN = 0.1

# below the smallest normal float, sin rho = hypot(m, .) and
# cos sigma = m / sin rho lose their mantissa; the vertical circle's
# closed form reaches such a target to within m
_M_MIN = sys.float_info.min


class ShootingConfig(NamedTuple):
    """Solver settings.

    tol bounds the endpoint error of the returned curve, T_max its
    length and curve_step its integrator step.  seed is accepted and
    ignored: the exact solver has no random choices.
    """

    tol: float = 1e-6
    T_max: float = 2.0 * np.pi
    seed: int = 0
    curve_step: float = 1e-3    # step of the returned integrator curve


class ShootingResult(NamedTuple):
    """The shortest geodesic from P to Q and how it was found.

    meta records the "case" (trivial, vertical, m=1 or generic), the
    number of "geodesics" with rho <= pi reaching Q (1, or inf on the
    vertical circle, where theta0 is free), the "bisections" spent and
    the "closed_form_error" of the solution before integration.
    """

    params: GeodesicParams
    T: float
    endpoint_error: float
    curve: SampledCurve
    converged: bool
    meta: dict


def _loop_point(m, r0, v, top):
    """(rho, sin sigma, cos sigma, phi) on the loop, phi = pi - v if top else v."""
    sin_rho = math.hypot(m, r0 * math.sin(v))
    cos_rho = -r0 * math.cos(v) if top else r0 * math.cos(v)
    rho = math.atan2(sin_rho, cos_rho)
    return rho, r0 * math.sin(v) / sin_rho, m / sin_rho, math.pi - v if top else v


def _solve_loop(m, r0, psi):
    """The loop point with phase rho sin(sigma) - phi = psi, and the bisections spent.

    The phase is odd in phi and falls strictly, so the root has
    phi = -sign(psi) |phi| with phase(|phi|) = -|psi|; it lies on the
    top quarter (|phi| >= pi/2) iff the phase at pi/2 is >= -|psi|.
    """
    target = -abs(psi)

    def gap(v, top):
        rho, s, _, phi = _loop_point(m, r0, v, top)
        return rho * s - phi - target

    # gap(., top) rises with v, gap(., bottom) falls; lo keeps gap <= 0
    top = gap(0.5 * math.pi, False) >= 0.0
    lo, hi = (0.0, 0.5 * math.pi) if top else (0.5 * math.pi, 0.0)
    g_lo, g_hi = gap(lo, top), gap(hi, top)
    steps = 0
    while g_lo != 0.0 and g_hi != 0.0:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = gap(mid, top)
        steps += 1
        if g_mid <= 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    v = lo if abs(g_lo) <= abs(g_hi) else hi
    rho, s, c, _ = _loop_point(m, r0, v, top)
    return rho, -math.copysign(s, psi), c, steps


def shoot(P, Q, cfg: ShootingConfig | None = None) -> ShootingResult:
    """Find the shortest unit-speed geodesic from P to Q.

    Never raises on non-convergence: if the shortest length exceeds
    T_max, that geodesic is returned cut at T_max with converged=False,
    and a missed tolerance is reported with the achieved endpoint error.
    The solver has no random choices, so results are reproducible.
    """
    cfg = cfg or ShootingConfig()
    P = check_unit(P, what="shoot start P")
    Q = check_unit(Q, what="shoot target Q")

    if float(np.linalg.norm(P - Q)) < 1e-12:
        params = GeodesicParams(1.0, 0.0, 0.0)
        curve = integrate_geodesic(P, params, 0.0, cfg.curve_step)
        err = float(np.linalg.norm(curve.end - Q))
        meta = {"case": "trivial", "geodesics": 1, "bisections": 0, "closed_form_error": err}
        return ShootingResult(params, 0.0, err, curve, True, meta)

    rw, rx, ry, rz = _conj_mul_floats(P, Q)
    m = math.hypot(rx, rz)
    r0 = math.hypot(rw, ry)
    psi = math.atan2(ry, rw)
    case, geodesics, steps = ("m=1" if r0 == 0.0 else "generic"), 1, 0
    if psi == 0.0:
        rho, sin_s, cos_s = math.atan2(m, r0), 0.0, 1.0
    elif m < _M_MIN:
        # rho = pi and sin(sigma) = wrap(psi - pi) / pi = -sign(psi) (1 - a)
        case, geodesics = "vertical", math.inf
        a = abs(psi) / math.pi
        rho, cos_s = math.pi, math.sqrt(a * (2.0 - a))
        sin_s = a - 1.0 if psi > 0.0 else 1.0 - a
    else:
        rho, sin_s, cos_s, steps = _solve_loop(m, r0, psi)
    T = rho * cos_s
    lam = sin_s / cos_s
    theta0 = (math.atan2(-rz, -rx) - rho * sin_s) % (2.0 * math.pi) if m >= _M_MIN else 0.0
    params = GeodesicParams(1.0, theta0, lam)
    closed_form_error = float(np.linalg.norm(geodesic_point(P, params, T) - Q))

    cut = T > cfg.T_max
    T = min(T, cfg.T_max)
    h = min(cfg.curve_step, _TURN / (2.0 * abs(lam))) if lam else cfg.curve_step
    curve = integrate_geodesic(P, params, T, h)
    endpoint_error = float(np.linalg.norm(curve.end - Q))
    return ShootingResult(
        params=params,
        T=T,
        endpoint_error=endpoint_error,
        curve=curve,
        converged=bool(endpoint_error <= cfg.tol and not cut),
        meta={
            "case": case,
            "geodesics": geodesics,
            "bisections": steps,
            "closed_form_error": closed_form_error,
        },
    )
