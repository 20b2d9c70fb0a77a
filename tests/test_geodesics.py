import sys
import tracemalloc

import numpy as np
import pytest

from s3sr import geodesics
from s3sr.curves import SampledCurve, omega_fd_residuals
from s3sr.frames import I1, I3, components, frame_at, omega_eval
from s3sr.io import CurveRecord
from s3sr.geodesics import (
    _BLOCK,
    _COMP4,
    _chain4,
    GeodesicParams,
    ab_profile,
    acceleration_T_residual,
    angle_profile,
    geodesic_point,
    integrate_geodesic,
    integrate_hamiltonian,
    match_costate,
    verify_velocity_energy,
)
from s3sr.quaternions import QUAT_J, qexp_pure, qmul
from conftest import _assert_same_bits, random_unit

ONE = np.array([1.0, 0.0, 0.0, 0.0])


def test_ab_profile_initial_values():
    p = GeodesicParams(2.0, 0.7, 1.3)
    a, b = ab_profile(p, 0.0)
    assert abs(a - 2.0 * np.cos(0.7)) <= 1e-15
    assert abs(b - 2.0 * np.sin(0.7)) <= 1e-15


def test_ab_profile_constant_when_lambda_zero():
    p = GeodesicParams(1.5, 0.4, 0.0)
    s = np.linspace(0, 10, 11)
    a, b = ab_profile(p, s)
    assert np.ptp(a) == 0.0 and np.ptp(b) == 0.0


def test_ab_profile_energy_identity(rng):
    p = GeodesicParams(1.7, 1.1, -0.8)
    s = rng.uniform(0, 10, 100)
    a, b = ab_profile(p, s)
    assert np.max(np.abs(a * a + b * b - p.r**2)) <= 1e-14


def test_ab_profile_rotation_law_complex_step():
    # a' = -2 lam b and b' = 2 lam a, differentiated by complex step
    p = GeodesicParams(1.3, 0.9, 0.6)
    eps = 1e-20
    for s in np.linspace(0.0, 5.0, 21):
        a_c, b_c = ab_profile(p, s + 1j * eps)
        da, db = a_c.imag / eps, b_c.imag / eps
        a, b = ab_profile(p, s)
        assert abs(da + 2.0 * p.lam * b) <= 1e-12
        assert abs(db - 2.0 * p.lam * a) <= 1e-12


def test_params_reject_negative_speed():
    with pytest.raises(ValueError):
        GeodesicParams(-1.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_params_reject_non_finite_values(bad):
    for args in ((bad, 0.0, 0.0), (1.0, bad, 0.0), (1.0, 0.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            GeodesicParams(*args)


def test_integrator_argument_checks():
    with pytest.raises(ValueError):
        integrate_geodesic(ONE, GeodesicParams(1, 0, 0), 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_geodesic(ONE, GeodesicParams(1, 0, 0), -1.0, 0.1)
    with pytest.raises(ValueError):
        integrate_geodesic([1, 1, 0, 0], GeodesicParams(1, 0, 0), 1.0, 0.1)
    # unchecked, inf / h would overflow int() and a nan horizon would give one sample
    for T, h in ((np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.inf), (1.0, np.nan), (-np.inf, 1e-3)):
        with pytest.raises(ValueError, match="finite"):
            integrate_geodesic(ONE, GeodesicParams(1, 0, 0), T, h)


def test_zero_horizon_single_sample():
    c = integrate_geodesic(ONE, GeodesicParams(1, 0.2, 0.5), 0.0, 1e-3)
    assert c.n == 1
    assert np.array_equal(c.points[0], ONE)


def test_lambda_zero_is_one_parameter_subgroup():
    p = GeodesicParams(1.0, 0.0, 0.0)
    c = integrate_geodesic(ONE, p, np.pi, 1e-3)
    assert np.max(np.abs(c.end - [-1.0, 0.0, 0.0, 0.0])) <= 1e-10
    u = np.array([-1.0, 0.0, 0.0])  # -cos(theta0) i - sin(theta0) k
    closed = qexp_pure(np.outer(c.s, u))
    assert np.max(np.abs(c.points - closed)) <= 1e-10


def test_integrator_matches_closed_form_generic(rng):
    q0 = random_unit(rng)
    p = GeodesicParams(1.0, 1.1, 0.7)
    c = integrate_geodesic(q0, p, 3.0, 1e-3)
    assert np.max(np.abs(c.points - geodesic_point(q0, p, c.s))) <= 1e-9


def test_integrator_fourth_order_convergence():
    p = GeodesicParams(1.0, 0.4, 0.9)
    exact = geodesic_point(ONE, p, 2.0)

    def err(h):
        return np.max(np.abs(integrate_geodesic(ONE, p, 2.0, h).end - exact))

    assert err(0.02) / err(0.01) >= 8.0


def test_curve_and_its_file_record_order_four(tmp_path):
    c = integrate_geodesic(ONE, GeodesicParams(1.0, 0.3, 0.7), 0.5, 1e-2)
    assert c.meta["order"] == 4
    out = tmp_path / "g.csv"
    CurveRecord.from_curve(c).to_csv(out)
    assert "\n# order=4\n" in out.read_text()
    assert CurveRecord.from_csv(out).header["order"] == 4


def _reference_geodesic(q0, params, T, h):
    """The engine as a per-step loop: one qexp_pure and one qmul per substep."""
    nsteps = max(1, int(round(T / h))) if T > 0.0 else 0
    dt = T / nsteps if nsteps else 0.0
    q = np.asarray(q0, dtype=float)
    pts = [q]
    for i in range(nsteps):
        t = i * dt
        for c in _COMP4:
            a, b = ab_profile(params, t + 0.5 * c * dt)
            q = qmul(q, qexp_pure([-a * c * dt, 0.0, -b * c * dt]))
            t += c * dt
        pts.append(q)
    return np.array(pts)


# the engine's one order, which its curves record in meta["order"]
@pytest.mark.parametrize("order", [4])
@pytest.mark.parametrize("nsteps", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 10000])
def test_blocked_engine_matches_per_step_loop(order, nsteps):
    rng = np.random.default_rng(nsteps + order)
    q0 = random_unit(rng)
    p = GeodesicParams(1.3, rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0))
    h = 1e-3
    c = integrate_geodesic(q0, p, nsteps * h, h)
    assert c.meta["order"] == order
    ref = _reference_geodesic(q0, p, nsteps * h, h)
    assert c.points.shape == ref.shape == (nsteps + 1, 4)
    assert np.max(np.abs(c.points - ref)) <= 1e-13


def _nested_loop_chain(q0, e):
    """Rows of q0 chained through steps e, shape (n, k, 4), each substep a full-term product."""
    w, x, y, z = np.asarray(q0, dtype=float).tolist()
    rows = [(w, x, y, z)]
    for step in e.tolist():
        for ew, ex, ey, ez in step:
            w, x, y, z = (
                w * ew - x * ex - y * ey - z * ez,
                w * ex + x * ew + y * ez - z * ey,
                w * ey + y * ew + z * ex - x * ez,
                w * ez + z * ew + x * ey - y * ex,
            )
        rows.append((w, x, y, z))
    return np.array(rows)


def _nested_loop_geodesic(q0, params, T, h):
    """The blocked engine with its substeps chained by a loop nested in the step loop."""
    nsteps = max(1, int(round(T / h))) if T > 0.0 else 0
    dt = T / nsteps if nsteps else 0.0
    coef = np.asarray(_COMP4)
    exps = [np.empty((0, len(_COMP4), 4))]
    for start in range(0, nsteps, _BLOCK):
        stop = min(start + _BLOCK, nsteps)
        t = np.arange(start, stop) * dt
        mids = np.empty((stop - start, len(_COMP4)))
        for j, c in enumerate(_COMP4):
            mids[:, j] = t + 0.5 * c * dt
            t += c * dt
        a, b = ab_profile(params, mids)
        exps.append(qexp_pure(np.stack([-a * coef * dt, np.zeros_like(a), -b * coef * dt], axis=-1)))
    pts = _nested_loop_chain(q0, np.concatenate(exps))
    a, b = ab_profile(params, np.arange(nsteps + 1) * dt)
    return pts, a[:, None] * (-(pts @ I1)) + b[:, None] * (-(pts @ I3))


def _count_full_chains(monkeypatch):
    """Count the calls of geodesics._chain, the full-term chain that the engine falls back to."""
    calls = []
    full = geodesics._chain

    def counted(q, e):
        calls.append(q.copy())
        return full(q, e)

    monkeypatch.setattr(geodesics, "_chain", counted)
    return calls


@pytest.mark.parametrize("order", [4])  # as in test_blocked_engine_matches_per_step_loop
@pytest.mark.parametrize("nsteps", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5000])
def test_unrolled_chain_matches_nested_loop_bit_for_bit(order, nsteps, monkeypatch):
    rng = np.random.default_rng(100 * nsteps + order)
    # the axis points make exact zeros, whose signs the products must keep too
    axes = [sign * row for row in np.eye(4) for sign in (1.0, -1.0)]
    h = 1e-3
    starts = [random_unit(rng), random_unit(rng)] + axes
    cases = [
        (q0, GeodesicParams(r, rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0)))
        for q0 in starts
        for r in (0.0, 1.3)
    ]
    # at this speed every substep has |v| > pi (3.4 and 4.3), so sin|v|/|v| < 0
    # and the exponentials' zero j slot is -0.0; with theta0 = lambda = 0, b is
    # 0 too, so from an axis point q keeps exact zeros whose signs only the
    # products' ey terms decide
    cases += [(q0, GeodesicParams(2500.0, 0.0, 0.0)) for q0 in starts]
    full_chains = _count_full_chains(monkeypatch)
    for q0, p in cases:
        del full_chains[:]
        c = integrate_geodesic(q0, p, nsteps * h, h)
        pts, vel = _nested_loop_geodesic(q0, p, nsteps * h, h)
        assert c.points.shape == (nsteps + 1, 4) and c.meta["order"] == order
        _assert_same_bits(c.points, pts)
        _assert_same_bits(c.velocities, vel)
        if not any(q0 == 0.0):
            # random starts keep every component nonzero: the engine never falls back
            assert full_chains == []


def test_order4_chain_falls_back_from_the_first_row_of_a_later_block(monkeypatch):
    # identity steps from (1/2, 1/2, 1/2, 1/2), then a step whose first substep
    # makes w exactly 0 and whose second, k with -0.0 in its w and j slots, keeps
    # it +0.0 only through the j term the fast products leave out
    n = 1600
    e = np.zeros((n, 3, 4))
    e[..., 0] = 1.0
    r = np.sqrt(0.5)
    e[1500, 0] = (r, r, 0.0, 0.0)
    e[1500, 1] = (-0.0, 0.0, -0.0, 1.0)
    q0 = np.full(4, 0.5)
    full_chains = _count_full_chains(monkeypatch)
    pts = np.empty((n + 1, 4))
    pts[0] = q0
    for start in range(0, n, _BLOCK):
        block = e[start : start + _BLOCK]
        # the engine's inputs: the w, x, z slots in one contiguous array, the full
        # exponentials (with the -0.0 j slot) only for a fallback
        pts[start + 1 : start + _BLOCK + 1] = _chain4(
            pts[start], np.ascontiguousarray(block[..., [0, 1, 3]]), lambda: block
        )
    ref = _nested_loop_chain(q0, e)
    assert ref[1501, 0] == 0.0 and not np.signbit(ref[1501, 0])
    _assert_same_bits(pts, ref)
    # one fallback, for block 1, restarted from that block's first row
    assert len(full_chains) == 1
    _assert_same_bits(full_chains[0], ref[_BLOCK])


def _profiled_calls(fn, *args, **kwargs):
    """Python-level and C calls made while fn runs, counted by a profile hook."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("integrator", ["geodesic-4", "hamiltonian"])
def test_integrator_loops_make_no_per_step_calls(integrator):
    # T=2 and T=4 at h=1e-3 are 2 and 4 blocks of at most _BLOCK steps.  A call of a
    # Python function or builtin put back into the step loop adds 2,000 calls; the
    # numpy work of a block makes about 40.  (Calls of types, such as tuple(), are
    # not profile events.)
    p = GeodesicParams(1.0, 0.3, 0.7)
    h = 1e-3

    def run(T):
        if integrator == "hamiltonian":
            return _profiled_calls(integrate_hamiltonian, ONE, match_costate(ONE, p), T, h)
        return _profiled_calls(integrate_geodesic, ONE, p, T, h)

    extra_blocks = 2
    assert 0 <= run(4.0) - run(2.0) <= 64 * extra_blocks


def test_engine_memory_stays_blocked():
    # a list of every step's exponential would hold ~10 MB at T=10
    tracemalloc.start()
    try:
        integrate_geodesic(ONE, GeodesicParams(1.0, 0.3, 0.7), 10.0, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_velocities_are_horizontal_and_unit_speed():
    p = GeodesicParams(1.0, 0.3, 0.8)
    c = integrate_geodesic(ONE, p, 5.0, 1e-3)
    speed2 = np.sum(c.velocities * c.velocities, axis=1)
    assert np.max(np.abs(speed2 - 1.0)) <= 1e-10
    assert np.max(np.abs(omega_eval(c.points, c.velocities))) <= 1e-8


def test_angle_profile_linear_law():
    p = GeodesicParams(1.0, 1.1, 0.5)
    c = integrate_geodesic(ONE, p, 4.0, 1e-3)
    ang = angle_profile(c)
    expected = 2.0 * p.lam * c.s + p.theta0
    assert np.max(np.abs(ang - expected)) <= 1e-8
    slope = np.polyfit(c.s, ang, 1)[0]
    assert abs(slope - 1.0) <= 1e-6
    # velocity is orthogonal to T everywhere
    t_dots = [np.dot(v, frame_at(q).T) for q, v in zip(c.points[::100], c.velocities[::100])]
    assert np.max(np.abs(t_dots)) <= 1e-10


def test_angle_profile_constant_for_lambda_zero():
    c = integrate_geodesic(ONE, GeodesicParams(1.0, 0.9, 0.0), 3.0, 1e-3)
    ang = angle_profile(c)
    assert np.ptp(ang) <= 1e-9
    # cos(angle to X) equals a(s)/r
    a, _ = ab_profile(GeodesicParams(1.0, 0.9, 0.0), c.s)
    assert np.max(np.abs(np.cos(ang) - a)) <= 1e-8


def test_angle_profile_rejects_zero_velocity():
    c = integrate_geodesic(ONE, GeodesicParams(0.0, 0.0, 0.0), 1.0, 1e-2)
    with pytest.raises(ValueError):
        angle_profile(c)


def test_verify_velocity_energy_geodesic():
    c = integrate_geodesic(ONE, GeodesicParams(1.0, 0.7, 0.6), 3.0, 1e-3)
    worst = verify_velocity_energy(c)
    assert worst <= 1e-10
    # per-sample reference through frames.components
    ref = 0.0
    for q, v in zip(c.points, c.velocities):
        a, b, _ = components(q, v)
        ref = max(ref, abs(float(v @ v) - (a * a + b * b)))
    assert abs(worst - ref) <= 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_velocity_energy_long_geodesic(seed):
    # T=10 at h=1e-3 drifts |q| by ~3e-13, inside the engine's 1e-12 bound
    rng = np.random.default_rng(seed)
    q0 = rng.standard_normal(4)
    q0 /= np.linalg.norm(q0)
    c = integrate_geodesic(q0, GeodesicParams(1.0, rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0)), 10.0, 1e-3)
    assert verify_velocity_energy(c) <= 1e-10


@pytest.mark.parametrize("params,T", [(GeodesicParams(1.0, 0.3, 0.5), 50.0), (GeodesicParams(2.0, 0.3, 3.0), 20.0)])
def test_verify_velocity_energy_very_long_geodesic(params, T):
    # the engine drifts |q| by 1.7e-12 and 2.3e-12 here, past a fixed 1e-12;
    # the bound grows with the sample count
    c = integrate_geodesic(ONE, params, T, 1e-3)
    assert np.max(np.abs(np.linalg.norm(c.points, axis=1) - 1.0)) > 1e-12
    assert verify_velocity_energy(c) <= 1e-10
    # a curve scaled off the sphere by 1e-9 still raises at that length
    scaled = SampledCurve(c.s, c.points * (1.0 + 1e-9), c.velocities * (1.0 + 1e-9))
    with pytest.raises(ValueError, match="degenerate"):
        verify_velocity_energy(scaled)


def test_verify_velocity_energy_rejects_off_sphere_curves():
    c = integrate_geodesic(ONE, GeodesicParams(1.0, 0.7, 0.6), 1.0, 1e-2)
    scaled = SampledCurve(c.s, c.points * (1.0 + 1e-9), c.velocities * (1.0 + 1e-9))
    with pytest.raises(ValueError, match="degenerate"):
        verify_velocity_energy(scaled)
    radial = SampledCurve(c.s, c.points, c.velocities + 1e-3 * c.points)
    with pytest.raises(ValueError, match="not tangent"):
        verify_velocity_energy(radial)


def test_verify_velocity_energy_constant_curve():
    pts = np.tile(ONE, (5, 1))
    c = SampledCurve(np.linspace(0, 1, 5), pts, np.zeros((5, 4)))
    assert verify_velocity_energy(c) == 0.0


def test_verify_velocity_energy_requires_velocities():
    c = integrate_geodesic(ONE, GeodesicParams(1.0, 0.7, 0.6), 1.0, 1e-2)
    c.velocities = None
    with pytest.raises(ValueError):
        verify_velocity_energy(c)


def test_frame_matrix_at_identity_is_signed_permutation():
    f = frame_at(ONE)
    m = np.stack(f)
    assert np.array_equal(np.abs(m), np.abs(np.array(
        [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0]], dtype=float)))
    assert np.array_equal(m @ m.T, np.eye(4))
    # with rows stacked as (X, Y, T, N) the determinant is -1 on all of
    # the sphere (constant by continuity); orthogonality is the point
    assert abs(np.linalg.det(m) + 1.0) <= 1e-15


def test_acceleration_T_residual_geodesic():
    c = integrate_geodesic(ONE, GeodesicParams(1.0, 0.5, 0.7), 2.0, 1e-3)
    assert acceleration_T_residual(c) <= 1e-5


def test_acceleration_T_residual_great_circle():
    c = integrate_geodesic(ONE, GeodesicParams(1.0, 0.5, 0.0), 2.0, 1e-3)
    assert acceleration_T_residual(c) <= 1e-5


def test_acceleration_T_residual_sensitivity():
    # a T-rotation with growing rate has <acc, T> = 1 exactly: the
    # steady T-spin itself has zero T-acceleration (its c-component is
    # constant), so the accelerating version is the sensitivity witness
    s = np.linspace(0.0, 1.0, 2001)
    steady = qmul(ONE, qexp_pure(np.outer(-s, [0.0, 1.0, 0.0])))
    accel = qmul(ONE, qexp_pure(np.outer(-0.5 * s * s, [0.0, 1.0, 0.0])))
    assert acceleration_T_residual(SampledCurve(s, steady)) <= 1e-8
    res = acceleration_T_residual(SampledCurve(s, accel))
    assert res > 0.1
    assert abs(res - 1.0) <= 1e-4


def test_acceleration_T_residual_argument_checks():
    c = integrate_geodesic(ONE, GeodesicParams(1, 0, 0), 0.0, 1e-3)
    with pytest.raises(ValueError):
        acceleration_T_residual(c)
    bad = SampledCurve(np.array([0.0, 0.1, 0.5]), np.tile(ONE, (3, 1)))
    with pytest.raises(ValueError):
        acceleration_T_residual(bad)


def test_fd_omega_residual_small_on_geodesics():
    c = integrate_geodesic(ONE, GeodesicParams(1.0, 0.4, 0.7), 2.0, 1e-3)
    # (h^2/6)*2*lam*r^2 scale
    assert np.max(omega_fd_residuals(c)) <= 1e-6
