"""The column-order row sum against numpy's reductions, and its callers against their np.sum forms.

The callers also read the same bits from row-major (n, 4) samples and from the
transposed views of (4, n) component rows that the integrators return.
"""

import itertools

import numpy as np
import pytest

from s3sr.curves import SampledCurve, _second_difference, unit_norm_error
from s3sr.frames import I1, I2, I3, frame_ab, omega_eval
from s3sr.geodesics import (
    GeodesicParams,
    HamiltonianTrajectory,
    acceleration_T_residual,
    angle_profile,
    check_rows,
    integrate_geodesic,
    integrate_hamiltonian,
    match_costate,
    verify_velocity_energy,
)
from s3sr.quaternions import _EXP_TAYLOR_CUT, _row_sum, norm2, qexp_pure
from conftest import random_unit

_VALUES = (0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e308, -1e308, np.inf, -np.inf, 0.1)


def _assert_same_floats(x, y):
    """Same shape, dtype and bytes: every sign of zero and every NaN payload agrees."""
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape and x.dtype == y.dtype
    assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("width", [3, 4])
def test_row_sum_is_numpy_sum_on_every_special_row(width):
    # overflow, inf - inf and signed zeros included: a numpy that changed the
    # order or the start of its short-axis reduction fails here
    rows = np.array(list(itertools.product(_VALUES, repeat=width)))
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_floats(_row_sum(rows), np.sum(rows, axis=-1))
        stack = rows[: width**3].reshape(width, width * width, width)
        _assert_same_floats(_row_sum(stack), np.sum(stack, axis=-1))
        for row in rows[::53]:
            _assert_same_floats(_row_sum(row), np.sum(row, axis=-1))
    rng = np.random.default_rng(width)
    x = rng.standard_normal((2000, width)) * 10.0 ** rng.integers(-20, 20, (2000, width))
    _assert_same_floats(_row_sum(x), np.sum(x, axis=-1))
    _assert_same_floats(np.sqrt(_row_sum(x * x)), np.linalg.norm(x, axis=1))


# the row reductions as they were written with np.sum and np.linalg.norm


def _norm2_ref(q):
    return np.sum(q * q, axis=-1)


def _qexp_pure_ref(v):
    n = np.sqrt(np.sum(v * v, axis=-1))
    small = n < _EXP_TAYLOR_CUT
    n_safe = np.where(small, 1.0, n)
    fac = np.where(small, 1.0, np.sin(n_safe) / n_safe)
    w = np.cos(n)
    return np.concatenate([np.asarray(w)[..., np.newaxis], np.asarray(fac)[..., np.newaxis] * v], axis=-1)


def _frame_ab_ref(p, v):
    return np.sum(v * (-(p @ I1)), axis=-1), np.sum(v * (-(p @ I3)), axis=-1)


def _unit_norm_error_ref(curve):
    return float(np.max(np.abs(np.linalg.norm(curve.points, axis=1) - 1.0)))


def _verify_velocity_energy_ref(curve):
    q, v = curve.points, curve.velocities
    norm_dev = _unit_norm_error_ref(curve)
    if norm_dev > max(1e-12, 2.0 * curve.n * np.finfo(float).eps):
        raise ValueError(f"frame matrix degenerate: | |q| - 1 | = {norm_dev:.3e}")
    radial = np.abs(np.sum(v * q, axis=1))
    if np.any(radial > 1e-6 * np.maximum(1.0, np.linalg.norm(v, axis=1))):
        raise ValueError(f"vector is not tangent: |<v, q>| = {float(np.max(radial)):.3e}")
    a, b = _frame_ab_ref(q, v)
    return float(np.max(np.abs(np.sum(v * v, axis=1) - (a * a + b * b))))


def _acceleration_T_residual_ref(curve):
    s, p = curve.s, curve.points
    h0, h1 = (s[1:-1] - s[:-2])[:, None], (s[2:] - s[1:-1])[:, None]
    acc = 2.0 * ((p[2:] - p[1:-1]) / h1 - (p[1:-1] - p[:-2]) / h0) / (h0 + h1)
    return float(np.max(np.abs(np.sum(acc * -(p[1:-1] @ I2), axis=1))))


def _omega_eval_ref(p, v):
    return -np.sum(v * -(p @ I2), axis=1)


def _angle_profile_ref(curve):
    v = curve.velocities
    if np.any(np.linalg.norm(v, axis=1) < 1e-15):
        raise ValueError("zero velocity has no direction")
    va, vb = _frame_ab_ref(curve.points, v)
    return np.unwrap(np.arctan2(vb, va))


def _outcome(fn, *args):
    """fn's value, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _curves():
    rng = np.random.default_rng(31)
    axes = [sign * row for row in np.eye(4) for sign in (1.0, -1.0)]
    starts = axes + [random_unit(rng) for _ in range(4)]
    # r = 0 stands still; r = 2500 with theta0 = lambda = 0 keeps exact zeros along axis starts
    params = [GeodesicParams(1.0, 0.7, -0.4), GeodesicParams(0.0, 0.2, 0.5), GeodesicParams(2500.0, 0.0, 0.0)]
    params += [GeodesicParams(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0))]
    for q0 in starts:
        for p in params:
            yield q0, p, integrate_geodesic(q0, p, 1.5, 1e-3)
    # these wrap at most once; at lambda = +-20 over T = 10 the angle wraps about 64 times
    rng = np.random.default_rng(34)
    for lam in (20.0, -20.0):
        q0, p = random_unit(rng), GeodesicParams(1.0, rng.uniform(0.0, 2.0 * np.pi), lam)
        yield q0, p, integrate_geodesic(q0, p, 10.0, 1e-2)
    # and velocity rows at angles exactly 0, pi, 0, which make the steps exactly +pi and -pi,
    # and a NaN row; (x, 0, -z, 0) pairs with Y = (z, -y, x, -w) to an exact +0 (the rows are
    # off the tangent space, so verify_velocity_energy raises on this curve)
    c = integrate_geodesic(q0, p, 10.0, 1e-2)
    for k, sign in ((500, 1.0), (501, -1.0), (502, 1.0)):
        x, z = c.points[k, 1], c.points[k, 3]
        c.velocities[k] = sign * np.array([x, 0.0, -z, 0.0])
    c.velocities[700] = np.nan
    yield q0, p, c


def test_row_sum_callers_match_their_numpy_reductions():
    for q0, p, c in _curves():
        _assert_same_floats(norm2(c.points), _norm2_ref(c.points))
        _assert_same_floats(norm2(q0), _norm2_ref(q0))
        for got, ref in zip(frame_ab(c.points, c.velocities), _frame_ab_ref(c.points, c.velocities)):
            _assert_same_floats(got, ref)
        assert unit_norm_error(c) == _unit_norm_error_ref(c)
        assert _outcome(verify_velocity_energy, c) == _outcome(_verify_velocity_energy_ref, c)
        assert acceleration_T_residual(c) == _acceleration_T_residual_ref(c)
        np.testing.assert_array_equal(omega_eval(c.points, c.velocities), _omega_eval_ref(c.points, c.velocities))
        got, ref = _outcome(angle_profile, c), _outcome(_angle_profile_ref, c)
        if isinstance(ref, str):
            assert got == ref
        else:
            _assert_same_floats(got, ref)
        with np.errstate(over="ignore", invalid="ignore"):  # r = 2500 overflows to NaN
            traj = integrate_hamiltonian(q0, match_costate(q0, p), 0.5, 1e-3)
            a, b = _frame_ab_ref(traj.q, traj.xi)
            p1, p3 = -a, -b
            _assert_same_floats(traj.energy(), 0.5 * (p1 * p1 + p3 * p3))
    # the operators on curves off the sphere, off the tangent space and with a zero velocity
    rng = np.random.default_rng(32)
    pts = random_unit(rng, 50) * (1.0 + rng.uniform(-1e-3, 1e-3, (50, 1)))
    vel = rng.standard_normal((50, 4))
    vel[7] = 0.0
    s = np.arange(50) * 0.1
    for c in (SampledCurve(s, pts, vel), SampledCurve(s, pts / np.linalg.norm(pts, axis=1)[:, None], vel)):
        assert _outcome(verify_velocity_energy, c) == _outcome(_verify_velocity_energy_ref, c)
        assert _outcome(angle_profile, c) == _outcome(_angle_profile_ref, c)
        assert unit_norm_error(c) == _unit_norm_error_ref(c)


def test_qexp_pure_matches_its_numpy_reduction():
    rows = np.array(list(itertools.product(_VALUES, repeat=3)))
    rng = np.random.default_rng(33)
    rand = rng.standard_normal((500, 3)) * 10.0 ** rng.integers(-12, 3, (500, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for v in (rows, rand, rand.reshape(50, 10, 3), rand[0], np.zeros(3), -np.zeros(3)):
            _assert_same_floats(qexp_pure(v), _qexp_pure_ref(v))


def _layouts(x):
    """Row-major and component-major copies of x: C-contiguous (n, 4), and the transpose of C-contiguous (4, n)."""
    return np.ascontiguousarray(x), np.ascontiguousarray(x.T).T


def _special_curve():
    """Points and velocities that run over every row of +-0, +-1, tiny, huge, +-inf and NaN components."""
    rows = np.array(list(itertools.product(_VALUES + (np.nan,), repeat=4)))
    return SampledCurve(np.arange(len(rows)) * 0.5, rows, rows[np.random.default_rng(35).permutation(len(rows))])


def _kernels(c):
    """What each per-sample kernel returns on curve c, or the message of the ValueError it raises."""
    p, v = c.points, c.velocities
    out = {
        "frame_ab": frame_ab(p, v),
        "omega_eval": omega_eval(p, v),
        "norm2": norm2(p),
        "check_rows": _outcome(check_rows, c, frame_ab(p, v), 0.5, 1e-4),
    }
    if c.n >= 3:
        out["second_difference"] = _second_difference(c.s, p)
    traj = HamiltonianTrajectory(c.s, p, v, {})
    out["qdot"], out["energy"] = traj.qdot(), traj.energy()
    for fn in (verify_velocity_energy, acceleration_T_residual, angle_profile):
        out[fn.__name__] = _outcome(fn, c)
    return out


def _assert_same_outcome(x, y):
    """x and y agree bit for bit, through tuples and lists, and on the messages of raised errors."""
    if isinstance(x, (tuple, list)):
        assert type(x) is type(y) and len(x) == len(y)
        for xk, yk in zip(x, y):
            _assert_same_outcome(xk, yk)
    elif isinstance(x, str):
        assert x == y
    else:
        _assert_same_floats(np.float64(x) if isinstance(x, float) else x, np.float64(y) if isinstance(y, float) else y)


def test_kernels_read_the_same_bits_from_either_layout():
    for c in [c for _, _, c in _curves()] + [_special_curve()]:
        with np.errstate(all="ignore"):
            rows_first, columns_first = (
                _kernels(SampledCurve(c.s, *layout)) for layout in zip(_layouts(c.points), _layouts(c.velocities))
            )
        assert rows_first.keys() == columns_first.keys()
        for name, ref in rows_first.items():
            _assert_same_outcome(columns_first[name], ref)


def test_integrators_return_transposed_component_rows():
    q0, p = random_unit(np.random.default_rng(36)), GeodesicParams(1.3, 0.4, -2.5)
    c = integrate_geodesic(q0, p, 2.0, 1e-3)
    traj = integrate_hamiltonian(q0, match_costate(q0, p), 2.0, 1e-3)
    for x in (c.points, c.velocities, traj.q, traj.xi, traj.qdot()):
        assert x.shape == (2001, 4) and x.dtype == float
        assert x.T.flags.c_contiguous
    # a curve keeps the samples it is given, in either layout
    for x in _layouts(c.points):
        assert SampledCurve(c.s, x, x).points is x
