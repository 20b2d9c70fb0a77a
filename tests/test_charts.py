import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3sr.charts import (
    EulerAngles,
    _chart_columns,
    chart_velocity,
    from_cartesian,
    omega_euler,
    to_cartesian,
)
from s3sr.frames import frame_ab, omega_eval
from conftest import point_arrays_ref, random_unit, velocity_arrays_ref


def test_to_cartesian_examples():
    assert np.allclose(to_cartesian(EulerAngles(0, 0, 0)), [1, 0, 0, 0], atol=1e-15)
    assert np.allclose(to_cartesian(EulerAngles(np.pi, np.pi, 0)), [-1, 0, 0, 0], atol=1e-15)
    q = to_cartesian(EulerAngles(np.pi / 2, 0, np.pi / 2))
    assert np.allclose(q, [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_to_cartesian_unit_modulus(rng):
    for _ in range(200):
        e = EulerAngles(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(0, np.pi))
        assert abs(np.linalg.norm(to_cartesian(e)) - 1.0) <= 1e-14


def test_to_cartesian_rejects_bad_theta():
    with pytest.raises(ValueError):
        to_cartesian(EulerAngles(0, 0, -0.1))
    with pytest.raises(ValueError):
        to_cartesian(EulerAngles(0, 0, np.pi + 0.1))


def test_from_cartesian_examples():
    e = from_cartesian([1.0, 0.0, 0.0, 0.0])
    assert e.pole == "theta=0"
    assert abs(e.theta) <= 1e-12

    e = from_cartesian([0.5, 0.5, 0.5, 0.5])
    assert e.pole is None
    assert np.allclose((e.phi, e.psi, e.theta), (np.pi / 2, 0.0, np.pi / 2), atol=1e-15)

    e = from_cartesian([0.0, 0.0, 0.6, 0.8])
    assert e.pole == "theta=pi"


def test_from_cartesian_rejects_nonunit():
    with pytest.raises(ValueError):
        from_cartesian([1.0, 1.0, 0.0, 0.0])


@given(
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=0.05, max_value=np.pi - 0.05),
)
@settings(max_examples=300)
def test_round_trip_angles(phi, psi, theta):
    q = to_cartesian(EulerAngles(phi, psi, theta))
    back = to_cartesian(from_cartesian(q))
    assert np.max(np.abs(back - q)) <= 1e-10


def test_round_trip_points(rng):
    count = 0
    while count < 1000:
        q = random_unit(rng)
        e = from_cartesian(q)
        if not 0.05 < e.theta < np.pi - 0.05:
            continue
        count += 1
        assert np.max(np.abs(to_cartesian(e) - q)) <= 1e-10


def test_omega_euler_examples():
    # cos(psi) = 0 kills the theta term
    assert abs(omega_euler(EulerAngles(0, np.pi / 2, 1.0), (0.0, 0.0, 1.0))) <= 1e-16
    # direct read of the restricted form at theta = psi = pi/2
    val = omega_euler(EulerAngles(0, np.pi / 2, np.pi / 2), (1.0, 0.0, 0.0))
    assert abs(val - 0.5) <= 1e-15


def test_omega_euler_fd_pushforward_oracle(rng):
    # compare against omega in Cartesian coordinates on a finite-difference
    # pushforward of the chart rates
    eps = 1e-5
    for _ in range(200):
        e = EulerAngles(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, np.pi - 0.1))
        de = rng.uniform(-1, 1, 3)
        qp = to_cartesian(
            EulerAngles(e.phi + eps * de[0], e.psi + eps * de[1], e.theta + eps * de[2])
        )
        qm = to_cartesian(
            EulerAngles(e.phi - eps * de[0], e.psi - eps * de[1], e.theta - eps * de[2])
        )
        v_fd = (qp - qm) / (2 * eps)
        assert abs(omega_eval(to_cartesian(e), v_fd) - omega_euler(e, de)) <= 1e-10


def test_chart_velocity_consistency(rng):
    # analytic pushforward agrees with omega_euler and with the FD oracle
    eps = 1e-6
    for _ in range(1000):
        e = EulerAngles(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.05, np.pi - 0.05))
        de = rng.uniform(-1, 1, 3)
        v = chart_velocity(e, de)
        q = to_cartesian(e)
        assert abs(float(np.dot(v, q))) <= 1e-12  # tangent
        assert abs(omega_eval(q, v) - omega_euler(e, de)) <= 1e-10


def test_chart_velocity_fd(rng):
    eps = 1e-6
    for _ in range(50):
        e = EulerAngles(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, np.pi - 0.1))
        de = rng.uniform(-1, 1, 3)
        qp = to_cartesian(
            EulerAngles(e.phi + eps * de[0], e.psi + eps * de[1], e.theta + eps * de[2])
        )
        qm = to_cartesian(
            EulerAngles(e.phi - eps * de[0], e.psi - eps * de[1], e.theta - eps * de[2])
        )
        assert np.max(np.abs(chart_velocity(e, de) - (qp - qm) / (2 * eps))) <= 1e-9


def _horizontality_residual_euler(e, rates):
    """|sin(theta) sin(psi) phi' + cos(psi) theta'|: 2 |omega| in the chart, zero iff horizontal."""
    dphi, _, dtheta = rates
    return abs(np.sin(e.theta) * np.sin(e.psi) * dphi + np.cos(e.psi) * dtheta)


def _euler_ab(e, rates):
    """Frame components (a, b) of the pushforward of chart rates.

    a = -(cos(theta) phi' + psi')/2,
    b = -(sin(theta) cos(psi) phi' - sin(psi) theta')/2.
    """
    dphi, dpsi, dtheta = rates
    a = -0.5 * (np.cos(e.theta) * dphi + dpsi)
    b = -0.5 * (np.sin(e.theta) * np.cos(e.psi) * dphi - np.sin(e.psi) * dtheta)
    return a, b


def test_horizontality_residual_examples():
    e = EulerAngles(0.4, 0.8, 1.1)
    q = to_cartesian(e)
    # rest, and pure psi motion (no psi' term in the constraint), are horizontal
    for rates in ((0.0, 0.0, 0.0), (0.0, 3.7, 0.0)):
        assert _horizontality_residual_euler(e, rates) == 0.0
        assert abs(omega_eval(q, chart_velocity(e, rates))) <= 1e-15


def test_horizontality_residual_on_constant_psi_closed_form():
    # phi'(theta) = -1/(tan(psi) sin(theta)) makes the constraint vanish
    psi = 0.6
    for theta in np.linspace(0.3, 2.6, 25):
        dtheta = 1.0
        dphi = -dtheta / (np.tan(psi) * np.sin(theta))
        e = EulerAngles(0.0, psi, theta)
        assert _horizontality_residual_euler(e, (dphi, 0.0, dtheta)) <= 1e-12
        assert abs(omega_eval(to_cartesian(e), chart_velocity(e, (dphi, 0.0, dtheta)))) <= 1e-12


def test_euler_ab_matches_frame_components(rng):
    for _ in range(100):
        e = EulerAngles(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, np.pi - 0.1))
        de = rng.uniform(-1, 1, 3)
        a, b = frame_ab(to_cartesian(e), chart_velocity(e, de))
        a2, b2 = _euler_ab(e, de)
        assert abs(a - a2) <= 1e-12
        assert abs(b - b2) <= 1e-12


def test_chart_columns_match_separate_point_and_velocity_passes(rng):
    n = 400
    phi, psi = rng.uniform(-9.0, 9.0, (2, n))
    theta = rng.uniform(0.0, np.pi, n)
    rates = rng.standard_normal((3, n))
    # exact zeros and the pole circles, where products vanish and signs of zero matter
    phi[:40], psi[:20], psi[20:40] = 0.0, 0.0, -0.0
    theta[:10], theta[10:20], theta[20:30] = 0.0, np.pi, -0.0
    rates[:, 30:60] = rng.choice([0.0, -0.0], (3, 30))
    pts, vel = _chart_columns(phi, psi, theta, *rates)
    assert pts.shape == vel.shape == (n, 4)
    assert pts.tobytes() == point_arrays_ref(phi, psi, theta).tobytes()
    assert vel.tobytes() == velocity_arrays_ref(phi, psi, theta, *rates).tobytes()
    # a scalar phi' (connect passes k) gives the bytes of the full array
    _, vel_k = _chart_columns(phi, psi, theta, -0.7, rates[1], rates[2])
    ref = velocity_arrays_ref(phi, psi, theta, np.full(n, -0.7), rates[1], rates[2])
    assert vel_k.tobytes() == ref.tobytes()
    # the single-point forms
    for j in range(0, n, 7):
        e = EulerAngles(float(phi[j]), float(psi[j]), float(theta[j]))
        assert to_cartesian(e).tobytes() == point_arrays_ref(e.phi, e.psi, e.theta).tobytes()
        r = rates[:, j].tolist()
        assert chart_velocity(e, r).tobytes() == velocity_arrays_ref(e.phi, e.psi, e.theta, *r).tobytes()
