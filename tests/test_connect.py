import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import solve_ivp

import s3sr
from s3sr.charts import EulerAngles, from_cartesian, to_cartesian, wrap_angle
from s3sr.connect import _GAUGES, _abs_max, _gauge_scores, connect, connect_constant_psi, hermite_f, q_with_integral
from s3sr.curves import fd_velocities, omega_fd_residuals, unit_norm_error
from s3sr.frames import omega_eval
from s3sr.quaternions import qmul
from conftest import random_unit


# -- the polynomial building blocks -----------------------------------------


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


def test_curve_invariants_validate(rng):
    c = connect(P_EX, Q_EX, n=64)
    c.validate()  # unit to 1e-10, tangent to 1e-8
    bad = connect(P_EX, Q_EX, n=64)
    bad.points[10] *= 1.001
    with pytest.raises(ValueError):
        bad.validate()
    worse = connect(P_EX, Q_EX, n=64)
    worse.velocities[10] += 1e-3 * worse.points[10]
    with pytest.raises(ValueError):
        worse.validate()


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
        exact = _abs_max(qpoly)
        assert dense - 1e-12 <= exact <= dense + 1e-7 * (1.0 + dense)
        # the pole margin: min sin(theta) = 1 / cosh(max |log tan(theta/2)|)
        dense = np.min(np.sin(2.0 * np.arctan(np.exp(log_tan(s)))))
        exact = 1.0 / np.cosh(_abs_max(log_tan))
        assert dense - 1e-7 <= exact <= dense + 1e-12
    assert interior >= 20  # extrema at roots of q inside (0, 1) are exercised


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
        assert np.array_equal(_gauge_scores(qt), ref)
    assert _gauge_scores(qmul(pts[-1], _GAUGES))[0] == -np.inf


def _loaded_by_fresh_import(module):
    """Whether `import s3sr` in a fresh interpreter loads the named module."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(s3sr.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, s3sr; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_integrate_unloaded():
    assert not _loaded_by_fresh_import("scipy.integrate")


def test_import_leaves_scipy_optimize_unloaded():
    # only shoot needs least_squares, and it imports it when called
    assert not _loaded_by_fresh_import("scipy.optimize")


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
        connect_constant_psi(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        connect_constant_psi(0.0, 1.0, 1.0, np.pi)
    with pytest.raises(ValueError):
        connect_constant_psi(0.5, 1.0, 0.5, 1.0)


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
