import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.integrate import solve_ivp

from s3sr.charts import EulerAngles, _angle_arrays, from_cartesian, to_cartesian, wrap_angle
from s3sr.connect import (
    _GAUGES,
    _K_MIN,
    _LOG_TAN_MAX,
    _SCORE_KEEP,
    _SCORE_MIN,
    QMAX,
    _abs_max,
    _ChartLeg,
    _gauge_scores,
    _GluedLeg,
    _hermite_coeffs,
    _horner,
    _leg_coeffs,
    _two_arc_legs,
    ConstructionError,
    connect,
    connect_constant_psi,
)
from s3sr.curves import fd_velocities, omega_fd_residuals, unit_norm_error
from s3sr.frames import omega_eval
from s3sr.quaternions import _qmul_terms, _right_terms, conj, qmul
from conftest import _loaded_by_fresh_import, point_arrays_ref, random_unit, velocity_arrays_ref

connect_module = importlib.import_module("s3sr.connect")


# -- the polynomial building blocks -----------------------------------------
# numpy Polynomial is the reference that the coefficient tuples are checked against


def hermite_f(alpha, beta, gamma) -> Polynomial:
    """The unique cubic with f(0)=0, f(1)=alpha, f'(0)=beta, f'(1)=gamma."""
    return Polynomial(_hermite_coeffs(alpha, beta, gamma))


def q_with_integral(q0, q1, integral) -> Polynomial:
    """Quadratic q with q(0)=q0, q(1)=q1 and exact unit-interval integral.

    Constructed as the derivative of the Hermite cubic, so the integral
    condition holds identically in the coefficients.
    """
    return hermite_f(integral, q0, q1).deriv()


def test_hermite_zero():
    f = hermite_f(0.0, 0.0, 0.0)
    assert np.allclose(f.coef, 0.0, atol=0)


def test_hermite_bump():
    f = hermite_f(1.0, 0.0, 0.0)
    assert np.allclose(f.coef, [0.0, 0.0, 3.0, -2.0], atol=0)  # 3t^2 - 2t^3


def test_hermite_boundary_conditions():
    f = hermite_f(2.0, 1.0, 1.0)
    df = f.deriv()
    assert abs(f(0.0)) <= 1e-14
    assert abs(f(1.0) - 2.0) <= 1e-14
    assert abs(df(0.0) - 1.0) <= 1e-14
    assert abs(df(1.0) - 1.0) <= 1e-14


def test_q_with_integral_zero():
    q = q_with_integral(0.0, 0.0, 0.0)
    assert np.allclose(q.coef, 0.0, atol=0)


def test_q_with_integral_constant():
    q = q_with_integral(1.0, 1.0, 1.0)
    assert abs(q(0.3) - 1.0) <= 1e-14  # collapses to q == 1


def test_q_with_integral_parabola():
    q = q_with_integral(0.0, 0.0, 1.0)
    t = np.linspace(0, 1, 7)
    assert np.max(np.abs(q(t) - (6 * t - 6 * t * t))) <= 1e-13
    f = q.integ()
    assert abs((f(1.0) - f(0.0)) - 1.0) <= 1e-14


def test_q_with_integral_random(rng):
    for _ in range(50):
        q0, q1, integral = rng.uniform(-3, 3, 3)
        q = q_with_integral(q0, q1, integral)
        assert abs(q(0.0) - q0) <= 1e-13
        assert abs(q(1.0) - q1) <= 1e-13
        f = q.integ()
        assert abs((f(1.0) - f(0.0)) - integral) <= 1e-13


# -- connect -----------------------------------------------------------------


P_EX = EulerAngles(0.0, np.pi / 6, np.pi / 3)
Q_EX = EulerAngles(1.0, np.pi / 4, np.pi / 2)


def test_connect_identical_endpoints():
    c = connect(P_EX, P_EX, n=8)
    assert c.n == 8
    assert np.max(np.abs(c.points - c.points[0])) == 0.0
    assert c.meta["endpoint_error"] == 0.0
    assert c.meta["max_omega_fd"] == 0.0


def test_connect_worked_example_endpoints():
    c = connect(P_EX, Q_EX, n=256)
    assert c.meta["route"] == "chart"
    assert np.max(np.abs(c.start - to_cartesian(P_EX))) <= 1e-8
    assert np.max(np.abs(c.end - to_cartesian(Q_EX))) <= 1e-8
    assert unit_norm_error(c) <= 1e-10
    # velocities are analytic and exactly horizontal
    assert np.max(np.abs(omega_eval(c.points, c.velocities))) <= 1e-12
    # the FD residual is resolution-limited; at n=4096 it clears 1e-6
    fine = connect(P_EX, Q_EX, n=4096)
    assert fine.meta["max_omega_fd"] <= 1e-6


def test_connect_fd_residual_second_order():
    r256 = connect(P_EX, Q_EX, n=256).meta["max_omega_fd"]
    r512 = connect(P_EX, Q_EX, n=512).meta["max_omega_fd"]
    assert r256 / r512 >= 3.5


def test_connect_boundary_integral_identity():
    c = connect(P_EX, Q_EX, n=16)
    k = c.meta["k"]
    qpoly = Polynomial(list(c.meta["q_coeffs"]))
    f = qpoly.integ()
    integral = f(1.0) - f(0.0)
    th0, th1 = c.meta["theta0"], c.meta["theta1"]
    # signed form, valid on the whole chart
    signed = (np.arctanh(np.cos(th1)) - np.arctanh(np.cos(th0))) / k
    assert abs(integral - signed) <= 1e-10
    # absolute-value form on its domain (both angles below pi/2)
    assert th0 < np.pi / 2 and th1 <= np.pi / 2 + 1e-12
    absform = (np.arctanh(abs(np.cos(th1))) - np.arctanh(abs(np.cos(th0)))) / k
    assert abs(integral - absform) <= 1e-10


def _chart_theta_matches_ode(c):
    """On a chart route, theta read back in the construction gauge matches an ODE reference."""
    if c.meta["route"] != "chart":
        return False
    k = c.meta["k"]
    qpoly = Polynomial(list(c.meta["q_coeffs"]))
    ref = solve_ivp(
        lambda s, th: -k * qpoly(s) * np.sin(th),
        (0.0, 1.0),
        [c.meta["theta0"]],
        t_eval=c.s,
        rtol=1e-10,
        atol=1e-12,
    )
    in_gauge = qmul(c.points, np.array(c.meta["gauge"]))
    theta = np.array([from_cartesian(p).theta for p in in_gauge])
    assert np.max(np.abs(theta - ref.y[0])) <= 1e-7
    assert abs(theta[-1] - c.meta["theta1"]) <= 1e-12
    return True


def test_connect_random_pairs(rng):
    chart = 0
    for _ in range(20):
        e0 = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi, np.pi), rng.uniform(0.2, np.pi - 0.2))
        e1 = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi, np.pi), rng.uniform(0.2, np.pi - 0.2))
        c = connect(e0, e1, n=128)
        assert c.meta["endpoint_error"] <= 1e-8
        assert unit_norm_error(c) <= 1e-10
        assert np.max(np.abs(omega_eval(c.points, c.velocities))) <= 1e-10
        chart += _chart_theta_matches_ode(c)
    assert chart >= 15


def test_connect_uniform_cartesian_pairs(rng):
    # endpoints drawn on the whole sphere, including branch-crossing pairs
    chart = 0
    for _ in range(15):
        p, q = random_unit(rng), random_unit(rng)
        c = connect(p, q, n=128)
        assert c.meta["endpoint_error"] <= 1e-8
        assert np.max(np.abs(omega_eval(c.points, c.velocities))) <= 1e-10
        chart += _chart_theta_matches_ode(c)
    assert chart >= 10


def test_connect_hard_targets():
    one = np.array([1.0, 0.0, 0.0, 0.0])
    targets = [
        np.array([0.0, 0.0, 1.0, 0.0]),   # pure bracket direction
        np.array([-1.0, 0.0, 0.0, 0.0]),  # antipode
        np.array([0.0, 1.0, 0.0, 0.0]),   # single-arc reachable
    ]
    for t in targets:
        c = connect(one, t, n=256)
        assert c.meta["endpoint_error"] <= 1e-8
        assert np.max(omega_fd_residuals(c)) <= 1e-6


_ANGLE = st.floats(-np.pi, np.pi)
_THETA = st.floats(0.05, np.pi - 0.05)


@st.composite
def _degenerate_pairs(draw):
    """Endpoints near a chart pole, antipodal, |dphi| near _K_MIN, or coincident."""
    kind = draw(st.sampled_from(["pole", "antipodal", "k-min", "coincident"]))
    phi = draw(_ANGLE)
    p = to_cartesian(EulerAngles(phi, draw(_ANGLE), draw(_THETA)))
    if kind == "pole":
        # theta/2 is the distance to the circle theta = 0 (and likewise for pi)
        gaps = [2.0 * 10.0 ** draw(st.floats(-6.0, -1.0)) for _ in range(2)]
        near = [to_cartesian(EulerAngles(draw(_ANGLE), draw(_ANGLE), g if draw(st.booleans()) else np.pi - g))
                for g in gaps]
        q = near[0]
        p = near[1] if draw(st.booleans()) else p
        if draw(st.booleans()):
            p, q = q, p
    elif kind == "antipodal":
        q = -p
    elif kind == "k-min":
        dphi = draw(st.sampled_from([-1.0, 1.0])) * _K_MIN * 10.0 ** draw(st.floats(-2.0, 2.0))
        q = to_cartesian(EulerAngles(phi + dphi, draw(_ANGLE), draw(_THETA)))
    else:
        q = p.copy()
    return p, q


@given(_degenerate_pairs())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_connect_degenerate_endpoints(pair):
    p, q = pair
    c = connect(p, q, n=32)
    assert c.meta["route"] in ("constant", "subgroup-arc", "chart", "two-arc")
    assert np.max(np.abs(c.points[0] - p)) <= 1e-8
    assert np.max(np.abs(c.points[-1] - q)) <= 1e-8
    assert np.max(np.abs(omega_eval(c.points, c.velocities))) <= 1e-8


def test_connect_smoothness():
    c = connect(P_EX, Q_EX, n=512)
    h = c.s[1] - c.s[0]
    acc = (c.points[2:] - 2 * c.points[1:-1] + c.points[:-2]) / h**2
    assert np.max(np.linalg.norm(acc, axis=1)) < 1e3  # bounded, no corners


def test_connect_velocity_matches_fd():
    c = connect(P_EX, Q_EX, n=2048)
    v_fd = fd_velocities(c)
    gap = np.max(np.linalg.norm(v_fd[1:-1] - c.velocities[1:-1], axis=1))
    assert gap <= 1e-4  # second-order FD agreement with the analytic rates


def test_connect_needs_two_samples():
    with pytest.raises(ValueError):
        connect(P_EX, Q_EX, n=1)


def _tangency_error(curve):
    """max |<velocity, point>| over the samples."""
    return float(np.max(np.abs(np.sum(curve.velocities * curve.points, axis=1))))


def test_curve_invariants_validate(rng):
    c = connect(P_EX, Q_EX, n=64)
    assert unit_norm_error(c) <= 1e-10 and _tangency_error(c) <= 1e-8
    bad = connect(P_EX, Q_EX, n=64)
    bad.points[10] *= 1.001
    assert unit_norm_error(bad) > 1e-10
    worse = connect(P_EX, Q_EX, n=64)
    worse.velocities[10] += 1e-3 * worse.points[10]
    assert _tangency_error(worse) > 1e-8


# -- the closed-form chart leg -----------------------------------------------


def test_exact_leg_bounds_match_dense_sampling(rng):
    s = np.linspace(0.0, 1.0, 10_001)
    interior = 0
    for _ in range(200):
        t0, t1, integral = rng.uniform(-3.0, 3.0, 3)
        k = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
        theta0 = rng.uniform(0.05, np.pi - 0.05)
        fpoly = hermite_f(integral, t0, t1)
        qpoly = fpoly.deriv()
        log_tan = np.log(np.tan(0.5 * theta0)) - k * fpoly
        interior += bool(np.any(np.abs(log_tan(s)) > max(abs(log_tan(0.0)), abs(log_tan(1.0)))))
        # the QMAX bound: max |q| over [0, 1]
        dense = np.max(np.abs(qpoly(s)))
        exact = _abs_max(qpoly.coef)
        assert dense - 1e-12 <= exact <= dense + 1e-7 * (1.0 + dense)
        # the pole margin: min sin(theta) = 1 / cosh(max |log tan(theta/2)|)
        dense = np.min(np.sin(2.0 * np.arctan(np.exp(log_tan(s)))))
        exact = 1.0 / np.cosh(_abs_max(log_tan.coef))
        assert dense - 1e-7 <= exact <= dense + 1e-12
    assert interior >= 20  # extrema at roots of q inside (0, 1) are exercised


def _abs_max_roots(poly):
    """The bound from Polynomial roots: |poly| at 0, 1 and the clipped critical points."""
    # real parts of complex critical points are harmless extra samples
    s = np.clip(np.concatenate([[0.0, 1.0], poly.deriv().roots().real]), 0.0, 1.0)
    return float(np.max(np.abs(poly(s))))


def test_leg_coefficient_tuples_match_polynomial_path():
    rng = np.random.default_rng(77)
    s = np.linspace(0.0, 1.0, 64)
    zero_coeffs = 0
    for n in range(1200):
        if n % 3 == 0:
            # entries from a small set, so that Hermite coefficients vanish exactly
            integral, t0, t1, l0 = rng.choice([0.0, -0.0, 0.5, 1.0, -1.0, 2.0], 4).tolist()
        else:
            integral, t0, t1, l0 = rng.uniform(-5.0, 5.0, 4).tolist()
        k = (-1.0) ** n * 10.0 ** rng.uniform(-7.0, 1.2)
        q, log_tan = _leg_coeffs(integral, t0, t1, k, l0)
        fpoly = hermite_f(integral, t0, t1)
        qpoly, lpoly = fpoly.deriv(), l0 - k * fpoly
        zero_coeffs += 0.0 in fpoly.coef[1:]
        assert np.array(q).tobytes() == qpoly.coef.tobytes()
        # numpy trims trailing zeros and can flip the sign of an exact zero;
        # log_tan reaches the curve only through exp, cosh and |.|, where that sign is lost
        assert np.array_equal(log_tan, np.pad(lpoly.coef, (0, 4 - lpoly.coef.size)))
        assert _horner(q, s).tobytes() == qpoly(s).tobytes()
        assert _horner((q[1], 2.0 * q[2]), s).tobytes() == qpoly.deriv()(s).tobytes()
        ell, ell_ref = _horner(log_tan, s), lpoly(s)
        assert np.exp(ell).tobytes() == np.exp(ell_ref).tobytes()
        assert np.cosh(ell).tobytes() == np.cosh(ell_ref).tobytes()
    assert zero_coeffs >= 100


@pytest.mark.parametrize(
    "coef",
    [
        (0.0, 1.0, -1.0, 0.0),            # zero leading coefficient: max 1/4 at the root of p' = 1 - 2s
        (0.0, 1.0, -1.0),                 # the quadratic s - s^2, root -c1/(2 c2) = 1/2
        (0.3, 0.7, 0.0, 0.0),             # p' constant
        (0.0, 0.0, 0.0, 0.0),             # all zero
        (0.0, 0.0, 0.0),
        (-0.125, 0.75, -1.5, 1.0),        # (s - 1/2)^3: double root of p' at 1/2
        (0.0, 0.0, 0.0, -2.0),            # -2 s^3: double root at 0
        (1.0, 2.0, 1.0, 1.0),             # negative discriminant
        (0.0, 1.0, 0.0, 1.0),
        (0.0, 4.0, -1.0),                 # critical point 2, outside [0, 1]
        (0.0, -9.0, -3.0, 1.0),           # critical points -1 and 3
        (0.2, -0.5, 1e-9, 0.25),          # critical points 0.8165 and ~ -0.8165
        (0.0, -1.0, 5e7, 1.0 / 3.0),      # b^2 >> 4ac: roots ~ 1e-8 and -1e8
        (1e-3, 1e-3, -5e7, 1.0 / 3.0),    # roots ~ 1e-11 and 1e8
        (0.0, 1.0, 2.0, -3.0),            # max at the root t / d2 of the stable formula
        (0.0, 1.0, -2.0, 1.0),            # s (1 - s)^2: max 4/27 at the root d0 / t = 1/3
        (0.0, 1.0, -1.0, 1e-15 / 3.0),    # d1 < 0 and d1^2 >> 4 d2 d0: max ~1/4 at the root d0 / t ~ 1/2
    ],
)
def test_closed_form_abs_max_matches_roots_reference(coef):
    exact = _abs_max(coef)
    assert type(exact) is float
    ref = _abs_max_roots(Polynomial(coef))
    assert abs(exact - ref) <= 1e-14 * ref


def test_closed_form_abs_max_matches_roots_reference_random(rng):
    for n in range(2000):
        coef = rng.standard_normal(3 + n % 2) * 10.0 ** rng.uniform(-3.0, 3.0, 3 + n % 2)
        ref = _abs_max_roots(Polynomial(coef))
        assert abs(_abs_max(tuple(coef.tolist())) - ref) <= 1e-14 * ref


def _scalar_gauge_score(qt):
    x1, x2, y1, y2 = qt
    rx = np.hypot(x1, x2)
    ry = np.hypot(y1, y2)
    if rx < 1e-12 or ry < 1e-12:
        return -np.inf
    return min(2.0 * rx * ry, (x1 * y1 + x2 * y2) / (rx * ry))


def test_gauges_are_horizontal_right_translations():
    assert _GAUGES.shape == (32, 4)
    assert np.array_equal(_GAUGES[0], [1.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(np.linalg.norm(_GAUGES, axis=1) - 1.0)) <= 1e-15
    # each is exp(chi j) = (cos, 0, sin, 0) or exp(chi j) i = (0, cos, 0, -sin)
    assert np.all(_GAUGES[:, 2] * _GAUGES[:, 3] == 0.0)
    assert np.all(_GAUGES[:, 0] * _GAUGES[:, 1] == 0.0)
    assert len({tuple(g) for g in _GAUGES}) == 32


def test_batched_gauge_scores_match_scalar_scores(rng):
    pts = [random_unit(rng) for _ in range(20)] + [to_cartesian(EulerAngles(0.3, 0.2, 0.0))]
    for p in pts:
        qt = qmul(p, _GAUGES)
        ref = [_scalar_gauge_score(row) for row in qt]
        assert np.array_equal(_gauge_scores(qt, *_angle_arrays(qt)[3:]), ref)
    qt = qmul(pts[-1], _GAUGES)
    assert _gauge_scores(qt, *_angle_arrays(qt)[3:])[0] == -np.inf


def _principal(e):
    """(phi, psi) representative with psi wrapped into (-pi, pi]."""
    psi_w = float(wrap_angle(e.psi))
    n = round((psi_w - e.psi) / (2.0 * np.pi))
    return e.phi + 2.0 * np.pi * n, psi_w


def _chart_data(qp, qq, margin):
    """Boundary data of the chart construction for translated endpoints, or None."""
    e0 = from_cartesian(qp)
    e1 = from_cartesian(qq)
    if e0.pole or e1.pole:
        return None
    phi0, psi0 = _principal(e0)
    phi1, psi1 = _principal(e1)
    if abs(psi0) >= np.pi / 2 or abs(psi1) >= np.pi / 2:
        return None
    k_raw = phi1 - phi0
    k = k_raw - 4.0 * np.pi * round(k_raw / (4.0 * np.pi))
    if abs(k) < _K_MIN:
        return None
    t0, t1 = np.tan(psi0), np.tan(psi1)
    integral = float(np.log(np.tan(0.5 * e0.theta) / np.tan(0.5 * e1.theta))) / k
    wildness = max(abs(t0), abs(t1), abs(integral)) + 0.25 * abs(k)
    return {"theta0": e0.theta, "phi0": phi0, "k": k, "t0": t0, "t1": t1,
            "integral": integral, "margin": margin, "wildness": wildness}


def _reference_leg(p, q):
    """Gauge selection candidate by candidate: (leg, gauge index or None, attempts)."""
    qp, qq = qmul(p, _GAUGES), qmul(q, _GAUGES)
    margins = np.minimum([_scalar_gauge_score(r) for r in qp], [_scalar_gauge_score(r) for r in qq])
    candidates = []
    for idx in np.flatnonzero(margins >= _SCORE_MIN).tolist():
        data = _chart_data(qp[idx], qq[idx], float(margins[idx]))
        if data is not None:
            candidates.append((idx, data))
    order = sorted(candidates, key=lambda t: (t[1]["wildness"], t[0]))
    if candidates and candidates[0][0] == 0:
        ident = candidates[0]
        tame_enough = ident[1]["wildness"] <= max(4.0 * order[0][1]["wildness"], 3.0)
        if ident[1]["margin"] >= _SCORE_KEEP and tame_enough:
            order = [ident] + [c for c in order if c[0] != 0]
    attempts = 0
    for idx, d in order:
        if attempts >= 6:
            break
        attempts += 1
        fpoly = hermite_f(d["integral"], d["t0"], d["t1"])
        qpoly = fpoly.deriv()
        log_tan = float(np.log(np.tan(0.5 * d["theta0"]))) - d["k"] * fpoly
        if _abs_max_roots(qpoly) <= QMAX and _abs_max_roots(log_tan) <= _LOG_TAN_MAX:
            return _ChartLeg(_GAUGES[idx], d["phi0"], d["k"], qpoly.coef, log_tan.coef), idx, attempts
    leg_a, leg_b, _ = _two_arc_legs(p, qmul(conj(p), q))
    return _GluedLeg(leg_a, leg_b), None, attempts


def test_gauge_selection_matches_per_candidate_reference():
    pairs = random_unit(np.random.default_rng(1), 4000).reshape(2000, 2, 4)
    s = np.linspace(0.0, 1.0, 64)
    seen = set()
    for n in [*range(12), 16, 25, 148, 224, 698]:
        p, q = pairs[n]
        leg, idx, attempts = _reference_leg(p, q)
        c = connect(p, q, n=64)
        pts, vel = leg.eval(s)
        assert c.meta["route"] == ("two-arc" if idx is None else "chart")
        assert idx is None or c.meta["gauge"] == tuple(_GAUGES[idx])
        assert c.points.tobytes() == pts.tobytes()
        assert c.velocities.tobytes() == vel.tobytes()
        seen.add(("two-arc" if idx is None else "identity" if idx == 0 else "translated", attempts))
    # an identity-kept gauge, a translated one, legs found on attempts 3 and 5,
    # and the two-arc fallback after six failed attempts
    assert {("identity", 1), ("translated", 1), ("translated", 3), ("translated", 5), ("two-arc", 6)} <= seen


def _guard_pairs(rng):
    """Uniform, pole, antipodal, coincident and k ~ 0 endpoint pairs."""
    pairs = [tuple(random_unit(rng, 2)) for _ in range(80)]
    for _ in range(40):
        phi, psi = rng.uniform(-np.pi, np.pi, 2)
        gap = 10.0 ** rng.uniform(-12.0, -3.0)
        theta = gap if rng.random() < 0.5 else np.pi - gap
        pairs.append((random_unit(rng), to_cartesian(EulerAngles(phi, psi, theta))))
    pairs += [(p, -p) for p in random_unit(rng, 30)]
    pairs += [(p, p.copy()) for p in random_unit(rng, 30)]
    for _ in range(40):
        phi, psi0, psi1 = rng.uniform(-np.pi, np.pi, 3)
        theta0, theta1 = rng.uniform(0.1, np.pi - 0.1, 2)
        k = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -7.0)
        pairs.append((EulerAngles(phi, psi0, theta0), EulerAngles(phi + k, psi1, theta1)))
    return pairs


def test_connect_builds_no_polynomial_and_calls_no_moveaxis(monkeypatch):
    counts = {"Polynomial": 0, "moveaxis": 0}
    init, moveaxis = Polynomial.__init__, np.moveaxis
    qmul_shapes = []

    def counting_init(self, *args, **kwargs):
        counts["Polynomial"] += 1
        init(self, *args, **kwargs)

    def counting_moveaxis(*args, **kwargs):
        counts["moveaxis"] += 1
        return moveaxis(*args, **kwargs)

    def recording_qmul(p, q):
        out = qmul(p, q)
        qmul_shapes[-1].append(out.shape)
        return out

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    monkeypatch.setattr(np, "moveaxis", counting_moveaxis)
    monkeypatch.setattr(connect_module, "qmul", recording_qmul)
    routes = {}
    for p, q in _guard_pairs(np.random.default_rng(5)):
        qmul_shapes.append([])
        route = connect(p, q, n=40).meta["route"]
        routes.setdefault(route, []).append(qmul_shapes[-1])
    assert set(routes) == {"chart", "two-arc", "subgroup-arc", "constant"}
    assert counts == {"Polynomial": 0, "moveaxis": 0}
    # a chart-route connect makes one qmul, the gauge batch, and none on the
    # (n, 4) leg arrays: the gauge is undone inside the leg's own pass
    assert all(shapes == [(2, len(_GAUGES), 4)] for shapes in routes["chart"])
    assert all(shapes == [] for shapes in routes["constant"])
    # the counters see what they guard against: the subgroup arcs map their
    # (m, 4) samples with qmul
    assert all(any(len(shape) == 2 for shape in shapes) for shapes in routes["two-arc"] + routes["subgroup-arc"])
    hermite_f(1.0, 0.0, 0.0).deriv()
    assert counts["Polynomial"] == 2 and counts["moveaxis"] >= 1


def test_gauge_undo_matches_qmul_bit_for_bit(rng):
    points = random_unit(rng, 300)
    vectors = rng.standard_normal((300, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (300, 1))
    for g in _GAUGES:
        ginv = conj(g)
        terms = _right_terms(ginv)
        for p in (points, vectors):
            out = _qmul_terms(tuple(p.T), terms, np.empty_like(p))
            assert out.tobytes() == qmul(p, ginv).tobytes()


def test_gauge_undo_sign_of_zero_on_exact_zero_inputs():
    # every row with components in {+-0, +-0.5, +-1}: products vanish exactly
    p = np.array(list(itertools.product([0.0, -0.0, 0.5, -0.5, 1.0, -1.0], repeat=4)))
    negative_zeros = flips = 0
    for g in _GAUGES:
        ginv = conj(g)
        terms = _right_terms(ginv)
        ref = qmul(p, ginv)
        out = _qmul_terms(tuple(p.T), terms, np.empty_like(p))
        assert out.tobytes() == ref.tobytes()
        negative_zeros += int(np.sum((ref == 0.0) & np.signbit(ref)))
        # qmul's sum is -0.0 only when all four terms are; the two support
        # terms alone give -0.0 also where qmul gives +0.0
        two = np.stack([p[:, a] * ca + p[:, b] * cb for (a, ca), (b, cb), _, _ in terms], axis=-1)
        flips += int(np.sum(np.signbit(two) != np.signbit(ref)))
    assert negative_zeros > 0 and flips > 0


def _chart_leg_eval_ref(gauge, phi0, k, q, log_tan, s):
    """A chart leg evaluated as two chart passes and two qmul calls that undo the gauge."""
    qv = _horner(q, s)
    ell = _horner(log_tan, s)
    theta = 2.0 * np.arctan(np.exp(ell))
    phi = phi0 + k * s
    psi = np.arctan(qv)
    dphi = np.full_like(s, k)
    dpsi = _horner((q[1], 2.0 * q[2]), s) / (1.0 + qv * qv)
    dtheta = -k * qv / np.cosh(ell)
    pts = point_arrays_ref(phi, psi, theta)
    vel = velocity_arrays_ref(phi, psi, theta, dphi, dpsi, dtheta)
    return qmul(pts, conj(gauge)), qmul(vel, conj(gauge))


def test_chart_leg_eval_matches_two_pass_reference_on_all_gauges(rng):
    s = np.linspace(0.0, 1.0, 97)
    for g in _GAUGES:
        for _ in range(8):
            integral, t0, t1, l0 = rng.uniform(-3.0, 3.0, 4).tolist()
            phi0 = float(rng.uniform(-6.0, 6.0))
            k = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 1.0))
            q, log_tan = _leg_coeffs(integral, t0, t1, k, l0)
            pts, vel = _ChartLeg(g, phi0, k, q, log_tan).eval(s)
            pts_ref, vel_ref = _chart_leg_eval_ref(g, phi0, k, q, log_tan, s)
            assert pts.tobytes() == pts_ref.tobytes()
            assert vel.tobytes() == vel_ref.tobytes()


def test_connect_rejects_a_nan_curve(monkeypatch):
    class NanLeg:
        def eval(self, s):
            nan = np.full(s.shape + (4,), np.nan)
            return nan, nan

    monkeypatch.setattr(connect_module, "_single_leg", lambda *args: (NanLeg(), {"route": "chart"}))
    with pytest.raises(ConstructionError) as info:
        connect(P_EX, Q_EX)
    assert np.isnan(info.value.endpoint_error)


def test_import_leaves_numpy_polynomial_unloaded():
    assert not _loaded_by_fresh_import("numpy.polynomial", "from s3sr import *")
    assert not _loaded_by_fresh_import("numpy.polynomial", "import s3sr.cli")


def test_import_leaves_scipy_integrate_unloaded():
    assert not _loaded_by_fresh_import("scipy.integrate", "from s3sr import *")


def test_import_leaves_scipy_optimize_unloaded():
    assert not _loaded_by_fresh_import("scipy.optimize", "from s3sr import *")


# -- constant-psi curves -------------------------------------------------------


def test_constant_psi_equal_thetas():
    psi, c = connect_constant_psi(0.0, np.pi / 2, 1.0, np.pi / 2, n=64)
    assert psi == 0.0
    angles = [from_cartesian(p) for p in c.points]
    assert all(abs(a.theta - np.pi / 2) <= 1e-12 for a in angles)
    assert c.meta["max_sinth1_residual"] <= 1e-12


def test_constant_psi_example():
    psi, c = connect_constant_psi(0.0, np.pi / 3, 1.0, np.pi / 2, n=512)
    expected = np.arctan(np.log(np.tan(np.pi / 4) / np.tan(np.pi / 6)) / (0.0 - 1.0))
    assert psi == expected  # same formula, same floats
    assert abs(psi - (-0.5023103441691558)) <= 1e-12
    # endpoints
    assert np.max(np.abs(c.start - to_cartesian(EulerAngles(0.0, psi, np.pi / 3)))) <= 1e-12
    assert np.max(np.abs(c.end - to_cartesian(EulerAngles(1.0, psi, np.pi / 2)))) <= 1e-12
    assert c.meta["max_sinth1_residual"] <= 1e-9


def test_constant_psi_stays_in_psi_slice():
    psi, c = connect_constant_psi(0.3, 0.9, 2.1, 1.7, n=200)
    for p in c.points[:: 20]:
        e = from_cartesian(p)
        assert abs(wrap_angle(e.psi - psi)) <= 1e-9


def test_constant_psi_meridian():
    psi, c = connect_constant_psi(0.7, 0.6, 0.7, 1.9, n=64)
    assert abs(abs(psi) - np.pi / 2) <= 1e-15
    assert c.meta["max_sinth1_residual"] <= 1e-9
    angles = [from_cartesian(p) for p in c.points[::8]]
    assert all(abs(wrap_angle(a.phi - 0.7)) <= 1e-9 or a.pole for a in angles)


def test_constant_psi_rejects_poles():
    with pytest.raises(ValueError):
        connect_constant_psi(0.0, 0.0, 1.0, 1.0, n=64)
    with pytest.raises(ValueError):
        connect_constant_psi(0.0, 1.0, 1.0, np.pi, n=64)
    with pytest.raises(ValueError):
        connect_constant_psi(0.5, 1.0, 0.5, 1.0, n=64)


def test_constant_psi_residual_random(rng):
    for _ in range(20):
        th0, th1 = rng.uniform(0.1, np.pi - 0.1, 2)
        ph0, ph1 = rng.uniform(-3, 3, 2)
        if abs(ph0 - ph1) < 1e-3 and abs(th0 - th1) < 1e-3:
            continue
        _, c = connect_constant_psi(ph0, th0, ph1, th1, n=1000)
        assert c.meta["max_sinth1_residual"] <= 1e-9


def test_connect_agrees_with_constant_psi():
    # endpoints on a common constant-psi horizontal curve: connect should
    # reproduce that curve (its q polynomial collapses to a constant)
    ph0, th0, ph1, th1 = 0.2, 0.8, 1.4, 1.9
    psi, ccurve = connect_constant_psi(ph0, th0, ph1, th1, n=512)
    P = EulerAngles(ph0, psi, th0)
    Q = EulerAngles(ph1, psi, th1)
    c = connect(P, Q, n=512)
    assert c.meta["route"] == "chart"
    # compare phi at matched theta (both curves are monotone in theta here)
    th_c = np.array([from_cartesian(p).theta for p in c.points])
    ph_c = np.unwrap(np.array([from_cartesian(p).phi for p in c.points]))
    th_k = np.array([from_cartesian(p).theta for p in ccurve.points])
    ph_k = np.unwrap(np.array([from_cartesian(p).phi for p in ccurve.points]))
    grid = np.linspace(max(th_c.min(), th_k.min()) + 1e-6, min(th_c.max(), th_k.max()) - 1e-6, 100)
    phi_c = np.interp(grid, th_c, ph_c)
    phi_k = np.interp(grid, th_k, ph_k)
    shift = phi_c[0] - phi_k[0]
    assert abs(shift) <= 1e-6
    assert np.max(np.abs(phi_c - phi_k)) <= 1e-6
