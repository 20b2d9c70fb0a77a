import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3sr.geodesics import (
    GeodesicParams,
    acceleration_T_residual,
    angle_profile,
    geodesic_point,
    verify_velocity_energy,
)
from s3sr.frames import omega_eval
from s3sr.quaternions import conj, qexp_pure, qmul
from s3sr.shooting import ShootingConfig, shoot
from conftest import _loaded_by_fresh_import, random_unit

ONE = np.array([1.0, 0.0, 0.0, 0.0])


def test_trivial_target():
    r = shoot(ONE, ONE)
    assert r.converged
    assert r.T == 0.0
    assert r.endpoint_error <= 1e-12
    assert r.curve.n == 1


def test_rejects_nonunit_inputs():
    with pytest.raises(ValueError):
        shoot([1.0, 1.0, 0.0, 0.0], ONE)
    with pytest.raises(ValueError):
        shoot(ONE, [0.5, 0.0, 0.0, 0.0])


def test_lambda_zero_manufactured_target():
    target = qmul(ONE, qexp_pure(1.2 * np.array([-np.cos(0.3), 0.0, -np.sin(0.3)])))
    r = shoot(ONE, target)
    assert r.converged
    assert r.endpoint_error <= 1e-8
    assert abs(r.params.lam) <= 1e-5
    assert abs(r.params.theta0 - 0.3) <= 1e-4
    assert abs(r.T - 1.2) <= 1e-4


def test_generic_manufactured_target(rng):
    q0 = random_unit(rng)
    true = GeodesicParams(1.0, 2.2, 0.9)
    target = geodesic_point(q0, true, 1.5)
    r = shoot(q0, target)
    assert r.converged
    assert abs((r.params.theta0 - true.theta0 + np.pi) % (2 * np.pi) - np.pi) <= 1e-4
    assert abs(r.params.lam - true.lam) <= 1e-4
    assert abs(r.T - 1.5) <= 1e-4


def test_random_targets_converge(rng):
    for _ in range(8):
        target = random_unit(rng)
        r = shoot(ONE, target)
        assert r.converged
        assert r.endpoint_error <= 1e-6


def test_returned_curve_passes_engine_checks():
    target = np.array([0.0, 0.0, 1.0, 0.0])  # bracket-direction target
    r = shoot(ONE, target)
    assert r.converged
    c = r.curve
    assert np.max(np.abs(np.linalg.norm(c.points, axis=1) - 1.0)) <= 1e-12
    assert verify_velocity_energy(c) <= 1e-10
    assert np.max(np.abs(omega_eval(c.points, c.velocities))) <= 1e-8
    assert acceleration_T_residual(c) <= 1e-4
    ang = angle_profile(c)
    slope = np.polyfit(c.s, ang, 1)[0]
    assert abs(slope - 2.0 * r.params.lam) <= 1e-6
    # endpoint re-verified on the integrator curve, independent of the
    # closed-form forward map used inside the optimizer
    assert np.linalg.norm(c.end - target) <= r.endpoint_error + 1e-12


def test_determinism_same_seed(rng):
    target = random_unit(rng)
    a = shoot(ONE, target)
    b = shoot(ONE, target)
    assert a.params == b.params
    assert a.T == b.T
    assert a.endpoint_error == b.endpoint_error
    assert np.array_equal(a.curve.points, b.curve.points)


def test_nonconvergence_reports_best_effort():
    target = np.array([0.0, 0.0, 1.0, 0.0])
    cfg = ShootingConfig(tol=1e-18)
    r = shoot(ONE, target, cfg)
    assert not r.converged
    assert r.endpoint_error > cfg.tol
    assert r.curve.n >= 1
    assert np.isfinite(r.endpoint_error)


# -- the exact solver ----------------------------------------------------------

SQRT3_PI_2 = np.pi * np.sqrt(3.0) / 2.0


def _rel_target(P, psi, chi, alpha):
    """P * rel with rel_w + i rel_j = cos(chi) e^{i psi} and rel_x + i rel_z = sin(chi) e^{i alpha}."""
    rel = np.array([np.cos(chi) * np.cos(psi), np.sin(chi) * np.cos(alpha),
                    np.cos(chi) * np.sin(psi), np.sin(chi) * np.sin(alpha)])
    return qmul(P, rel)


def _assert_solved(r, Q):
    assert r.converged
    assert r.endpoint_error <= 1e-6
    assert np.linalg.norm(r.curve.end - Q) == r.endpoint_error
    assert r.endpoint_error <= 1e-12
    assert 0.0 <= r.T <= np.pi


def test_shoot_loads_no_scipy(tmp_path):
    assert not _loaded_by_fresh_import("scipy", "s3sr.shoot([1.0, 0, 0, 0], [0, 0, 1.0, 0])")
    argv = ["s3sr", "shoot", "--from", "1,0,0,0", "--to", "0,0,1,0", "--out", str(tmp_path / "s.csv")]
    cli = (
        f"import runpy\nsys.argv = {argv!r}\n"
        "try:\n    runpy.run_module('s3sr.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code"
    )
    assert not _loaded_by_fresh_import("scipy", cli)
    assert (tmp_path / "s.csv").exists()


def test_bracket_direction_target_is_shortest():
    # the vertical circle through 1: every theta0 with lam = -1/sqrt(3) reaches j at rho = pi
    r = shoot(ONE, np.array([0.0, 0.0, 1.0, 0.0]))
    assert r.converged
    assert abs(r.T - SQRT3_PI_2) <= 1e-9
    assert abs(r.params.lam + 1.0 / np.sqrt(3.0)) <= 1e-9
    assert r.meta["case"] == "vertical"


def test_cut_time_manufactured_recovery():
    """Every geodesic with rho < pi is the one shoot returns.

    On short geodesics Q fixes lambda only through the z phase, which is
    of order rho^3, so the rounding of Q alone moves lambda by up to
    about 3e-13 / rho^3 at |lambda| = 8 (both parameter sets then reach
    Q to 5e-16); lambda is compared where that is well below 1e-6.
    """
    rng = np.random.default_rng(5150)
    for _ in range(500):
        P = random_unit(rng)
        th, lam = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-8.0, 8.0)
        rho = rng.uniform(0.0, np.pi - 1e-3)
        T = rho / np.hypot(1.0, lam)
        Q = geodesic_point(P, GeodesicParams(1.0, th, lam), T)
        r = shoot(P, Q)
        _assert_solved(r, Q)
        assert r.meta["case"] == "generic" and r.meta["geodesics"] == 1
        assert abs((r.params.theta0 - th + np.pi) % (2.0 * np.pi) - np.pi) <= 1e-6
        assert abs(r.T - T) <= 1e-6
        if rho >= 0.02:
            assert abs(r.params.lam - lam) <= 1e-6


def test_antipodal_target(rng):
    for P in (ONE, random_unit(rng), random_unit(rng)):
        r = shoot(P, -P)
        _assert_solved(r, -P)
        assert abs(r.T - np.pi) <= 1e-9
        assert abs(r.params.lam) <= 1e-9


def test_i_and_k_targets(rng):
    for P in (ONE, random_unit(rng)):
        for unit in ([0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]):
            Q = qmul(P, np.array(unit))
            r = shoot(P, Q)
            _assert_solved(r, Q)
            assert abs(r.T - np.pi / 2.0) <= 1e-9
            assert abs(r.params.lam) <= 1e-9


def test_vertical_and_near_vertical_targets(rng):
    for P in (ONE, random_unit(rng)):
        for sign in (1.0, -1.0):
            Q = qmul(P, np.array([0.0, 0.0, sign, 0.0]))
            r = shoot(P, Q)
            _assert_solved(r, Q)
            assert abs(r.T - SQRT3_PI_2) <= 1e-9
            assert abs(r.params.lam + sign / np.sqrt(3.0)) <= 1e-9
    for m in (1e-12, 1e-10, 1e-8, 1e-6):
        for psi in (0.3, 2.0, -1.0, -3.1, np.pi, 1e-9):
            a = abs(psi) / np.pi
            P = random_unit(rng)
            Q = _rel_target(P, psi, m, rng.uniform(0.0, 2.0 * np.pi))
            r = shoot(P, Q)
            _assert_solved(r, Q)
            # continuous with the vertical circle's closed form T = pi sqrt(a (2 - a))
            assert abs(r.T - np.pi * np.sqrt(a * (2.0 - a))) <= 10.0 * m


def test_subnormal_m_targets():
    # with P = 1, rel = Q exactly, so m = |(rel_x, rel_z)| can be subnormal;
    # from a random P, the rounding in qmul hides it
    zs = [(np.cos(psi), np.sin(psi)) for psi in (0.3, 1.0, 2.0, 3.0, -1.0)] + [(-1.0, 0.0)]
    for m in (5e-324, 1e-320, 1e-310):
        for zw, zj in zs:
            Q = np.array([zw, m, zj, 0.0])
            r = shoot(ONE, Q)
            _assert_solved(r, Q)
            a = abs(np.arctan2(zj, zw)) / np.pi
            assert abs(r.T - np.pi * np.sqrt(a * (2.0 - a))) <= 1e-12


def test_near_start_vertical_offsets(rng):
    # the parent search stayed at P for eps = 1e-6 (T ~ 1e-20), inside the tolerance
    for eps in (1e-3, 1e-6):
        for P in (ONE, random_unit(rng)):
            Q = qmul(P, np.array([np.cos(eps), 0.0, np.sin(eps), 0.0]))
            r = shoot(P, Q)
            _assert_solved(r, Q)
            assert abs(r.T - np.sqrt(2.0 * np.pi * eps - eps * eps)) <= 1e-9


_AXES = [sign * row for row in np.eye(4) for sign in (1.0, -1.0)]


@given(st.sampled_from(_AXES), st.floats(0.0, np.pi, exclude_min=True))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_vertical_circle_length_closed_form(P, eps):
    """shoot(P, P exp(eps j)) has T = sqrt(2 pi eps - eps^2) on all of (0, pi].

    From P = +-1, +-i, +-j, +-k the product conj(P) Q is exact, so m = 0
    and the vertical closed form is taken.  From a generic P the rounding
    of rel (~1e-16) alone moves T by about pi 1e-16 / T, over 1e-12 for
    eps below ~1e-7; the sweep below covers generic P away from 0.
    Targets within 1e-12 of P are coincident by design: T = 0.
    """
    Q = qmul(P, qexp_pure([0.0, eps, 0.0]))
    r = shoot(P, Q, ShootingConfig(curve_step=0.5))
    if np.linalg.norm(P - Q) < 1e-12:
        assert r.meta["case"] == "trivial" and r.T == 0.0
    else:
        assert r.meta["case"] == "vertical"
        assert abs(r.T - np.sqrt(2.0 * np.pi * eps - eps * eps)) <= 1e-12


def test_vertical_circle_length_rises_with_offset(rng):
    eps = np.linspace(0.0, np.pi, 1001)[1:]
    for P in (ONE, random_unit(rng)):
        T = np.array([shoot(P, qmul(P, qexp_pure([0.0, e, 0.0])), ShootingConfig(curve_step=0.5)).T
                      for e in eps])
        assert np.all(np.diff(T) > 0.0)
        assert np.max(np.abs(T - np.sqrt(2.0 * np.pi * eps - eps * eps))) <= 1e-12


def test_zero_z_targets_take_the_m1_closed_form():
    """|z| = 0, i.e. Q = P (cos chi i + sin chi k): rho = pi/2, lam = 0, no bisection.

    From the axis points rel is exact, and some of its zeros are -0.0:
    rel = (-0.0, ., 0.0, .) gives arg z = atan2(0.0, -0.0) = pi, not 0, and
    must still land on T = pi/2.
    """
    through_pi = 0
    for P in _AXES:
        for chi in (0.0, 0.3, 0.5 * np.pi, 2.0, np.pi, -1.0, -0.5 * np.pi):
            Q = qmul(P, np.array([0.0, np.cos(chi), 0.0, np.sin(chi)]))
            rel = qmul(conj(P), Q)
            through_pi += np.arctan2(rel[2], rel[0]) == np.pi
            r = shoot(P, Q)
            _assert_solved(r, Q)
            assert r.meta["case"] == "m=1" and r.meta["bisections"] == 0
            assert r.T == np.pi / 2.0
            assert r.params.lam == 0.0
    assert through_pi >= 4


def test_target_within_1e12_of_start(rng):
    for d in (5e-13, 1e-12, 2e-12):
        P = random_unit(rng)
        u = rng.standard_normal(3)
        Q = qmul(P, qexp_pure(d * u / np.linalg.norm(u)))
        r = shoot(P, Q)
        assert r.converged
        assert r.endpoint_error <= 1e-6
        assert r.T <= 1e-5


def _scan_roots(rel, n=20_000):
    """Brackets (sigma_lo, sigma_hi, branch) of the z equation found by an n-sample scan per branch.

    Branch 1 has rho <= pi/2 and branch 2 rho >= pi/2; on both,
    sin(rho) cos(sigma) = m, and the z equation is conj(z) w > 0 with
    w = (cos rho - i sin(sigma) sin rho) e^{i rho sin(sigma)}.
    """
    zr, zi = rel[0], rel[2]
    m = np.hypot(rel[1], rel[3])
    smax = np.arctan2(np.hypot(zr, zi), m)  # cos(smax) = m
    sig = np.linspace(-smax, smax, n)
    s, c = np.sin(sig), np.cos(sig)
    # |cos rho| cos(sigma), with cos(sigma) - m formed without cancellation
    root = np.sqrt(np.maximum(2.0 * np.sin(0.5 * (smax + sig)) * np.sin(0.5 * (smax - sig)), 0.0) * (c + m))
    rho1 = np.arctan2(m, root)
    found = []
    for branch, sign, rho in ((1, 1.0, rho1), (2, -1.0, np.pi - rho1)):
        a, b = sign * root / c, -s * m / c
        cp, sp = np.cos(rho * s), np.sin(rho * s)
        wr, wi = a * cp - b * sp, a * sp + b * cp
        g_re, g_im = zr * wr + zi * wi, zr * wi - zi * wr
        change = (np.signbit(g_im[:-1]) != np.signbit(g_im[1:])) & (g_re[:-1] > 0.0) & (g_re[1:] > 0.0)
        found += [(sig[k], sig[k + 1], branch) for k in np.flatnonzero(change)]
    return found


def test_dense_scan_finds_only_the_returned_geodesic():
    """No grid is needed: the phase falls strictly around the loop.

    A 20,000-sample scan per branch of the (sigma, rho) loop, on random,
    near-vertical, near-start and near-m=1 targets, finds exactly one
    root, and it brackets the geodesic shoot returns.
    """
    rng = np.random.default_rng(777)
    cheap = ShootingConfig(curve_step=0.5)  # the curve is not under test here
    targets = [(random_unit(rng), random_unit(rng)) for _ in range(600)]
    for _ in range(200):
        P = random_unit(rng)
        targets.append((P, _rel_target(P, rng.uniform(-np.pi, np.pi), 10.0 ** rng.uniform(-12, -6),
                                       rng.uniform(0.0, 2.0 * np.pi))))
    for _ in range(150):
        P = random_unit(rng)
        targets.append((P, qmul(P, qexp_pure(10.0 ** rng.uniform(-6, -1) * random_unit(rng)[1:]))))
    for _ in range(100):
        P = random_unit(rng)
        chi = 0.5 * np.pi - 10.0 ** rng.uniform(-12, -1)  # |z| = cos(chi) from 1e-12
        targets.append((P, _rel_target(P, rng.uniform(-np.pi, np.pi), chi, rng.uniform(0.0, 2.0 * np.pi))))
    for P, Q in targets:
        r = shoot(P, Q, cheap)
        assert r.endpoint_error <= 1e-12
        sigma = np.arctan(r.params.lam)
        rho = r.T * np.hypot(1.0, r.params.lam)
        [(lo, hi, branch)] = _scan_roots(qmul(conj(P), Q))
        assert lo - 1e-12 <= sigma <= hi + 1e-12
        assert (rho <= np.pi / 2.0 + 1e-9) if branch == 1 else (rho >= np.pi / 2.0 - 1e-9)


_COMPONENT = st.floats(-1.0, 1.0)
_UNIT = (
    st.tuples(_COMPONENT, _COMPONENT, _COMPONENT, _COMPONENT)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) >= 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)


@given(_UNIT, _UNIT, _UNIT, _UNIT)
@settings(max_examples=50, derandomize=True, deadline=None)
def test_shoot_distance_properties(P, Q, R, g):
    """T(P, Q) is symmetric, left-invariant, at most pi and obeys the triangle inequality."""
    cheap = ShootingConfig(curve_step=0.5)  # T comes before the curve; the curve is not under test

    def dist(a, b):
        return shoot(a, b, cheap).T

    T = dist(P, Q)
    assert T <= np.pi
    assert abs(dist(Q, P) - T) <= 1e-12
    assert abs(dist(qmul(g, P), qmul(g, Q)) - T) <= 1e-12
    assert T <= dist(P, R) + dist(R, Q) + 1e-12


def _heisenberg_distance(x, z):
    """Gaveau's distance from 0 to (x, z) in the Heisenberg group with [X, Y] = 2T.

    d = |x| theta / sin(theta), where theta in (0, pi) solves
    |z| = |x|^2 (2 theta - sin 2 theta) / (4 sin^2 theta), bisected to
    adjacent floats; z = 0 is the straight line and x = 0 the vertical
    circle, d = sqrt(2 pi |z|).
    """
    r = np.hypot(x[0], x[1])
    if z == 0.0:
        return r
    if r == 0.0:
        return np.sqrt(2.0 * np.pi * abs(z))
    lo, hi = 0.0, np.pi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return r * lo / np.sin(lo)
        if r * r * (2.0 * mid - np.sin(2.0 * mid)) / (4.0 * np.sin(mid) ** 2) < abs(z):
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
def test_short_geodesics_approach_the_heisenberg_distance(eps):
    """The tangent cone at P: T(P, P exp(eps (x1 i + x2 k)) exp(eps^2 z j)) / eps -> d_H(x, z).

    The nilpotent approximation of the frame (X, Y, T) at any point is the
    Heisenberg group, so the relative error is O(eps^2); it was at most
    0.55 eps^2 on these draws.
    """
    rng = np.random.default_rng(3)
    cheap = ShootingConfig(curve_step=0.5)  # T comes before the curve; the curve is not under test
    cases = [(rng.standard_normal(2), rng.standard_normal()) for _ in range(200)]
    cases += [(np.zeros(2), 1.0), (np.zeros(2), -0.5), (np.array([0.6, -0.8]), 0.0), (np.array([-1.5, 0.2]), 0.0)]
    for x, z in cases:
        P = random_unit(rng)
        Q = qmul(qmul(P, qexp_pure(eps * np.array([x[0], 0.0, x[1]]))), qexp_pure([0.0, eps * eps * z, 0.0]))
        d = _heisenberg_distance(x, z)
        assert abs(shoot(P, Q, cheap).T / eps - d) <= eps * eps * d


_J = np.array([0.0, 0.0, 1.0, 0.0])


def _endpoint_jacobian(theta0, lam, T):
    """Rows Im(conj(F) dF/dx) for x = theta0, lam, T of F = conj(P) gamma(T) at speed 1, closed form.

    F is the product A C B of the closed form's three factors, A = exp(-theta0/2 j),
    C = exp(T u), u = -i - lam j, and B = exp((lam T + theta0/2) j).  With
    m = |u| = sqrt(1 + lam^2), C = cos(T m) + sin(T m) u/m, and A drops out
    of conj(F) dF.  Broadcasts over T: shape (..., 3, 3).
    """
    T = np.asarray(T, dtype=float)[..., np.newaxis]
    m = np.hypot(1.0, lam)
    u = np.array([0.0, -1.0, -lam, 0.0])
    C = qexp_pure(T * u[1:])
    B = qexp_pure(np.concatenate([np.zeros_like(T), lam * T + 0.5 * theta0, np.zeros_like(T)], axis=-1))
    CB = qmul(C, B)
    # dC/dlam, from d(T m)/dlam = T lam/m and d(u/m)/dlam = -j/m - lam u/m^3
    cos_tm, sin_tm = np.cos(T * m), np.sin(T * m)
    dC = T * lam / m * (cos_tm * u / m - sin_tm * ONE) + sin_tm * (-_J / m - lam * u / m**3)
    rows = [
        qmul(conj(CB), qmul(-0.5 * _J, CB)) + 0.5 * _J,
        qmul(conj(CB), qmul(dC, B)) + T * _J,
        qmul(conj(B), qmul(u, B)) + lam * _J,
    ]
    return np.stack([r[..., 1:] for r in rows], axis=-2)


def test_endpoint_jacobian_matches_central_differences_of_geodesic_point():
    rng = np.random.default_rng(8)
    h = 1e-5
    for _ in range(30):
        P = random_unit(rng)
        x = np.array([rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-3.0, 3.0), rng.uniform(0.0, 4.0)])

        def F(y):
            return qmul(conj(P), geodesic_point(P, GeodesicParams(1.0, y[0], y[1]), y[2]))

        conj_F = conj(F(x))
        fd = [qmul(conj_F, (F(x + h * e) - F(x - h * e)) / (2.0 * h))[1:] for e in np.eye(3)]
        assert np.max(np.abs(_endpoint_jacobian(*x) - np.array(fd))) <= 1e-8


@given(st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * np.pi))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_first_conjugate_time_is_the_cut_time(lam, theta0):
    """The endpoint map's Jacobian first turns singular at T = pi / sqrt(1 + lam^2), i.e. rho = pi.

    That is the cut time shoot relies on.  Its determinant is positive for
    small T; the first sign change on a grid of T is bisected to 1e-9.
    """
    grid = np.linspace(0.05, 2.0 * np.pi, 400)
    dets = np.linalg.det(_endpoint_jacobian(theta0, lam, grid))
    assert dets[0] > 0.0
    k = int(np.argmax(dets <= 0.0))
    assert k > 0
    lo, hi = grid[k - 1], grid[k]
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if np.linalg.det(_endpoint_jacobian(theta0, lam, mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - np.pi / np.hypot(1.0, lam)) <= 1e-9
