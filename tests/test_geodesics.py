import sys
import tracemalloc

import numpy as np
import pytest

from s3sr import frames
from s3sr.curves import SampledCurve, omega_fd_residuals
from s3sr.connect import connect
from s3sr.frames import I1, I3, frame_ab, frame_at, omega_eval
from s3sr.io import CurveRecord
from s3sr.geodesics import (
    _POWERS_WIDTH,
    GeodesicParams,
    _powers,
    ab_profile,
    acceleration_T_residual,
    angle_profile,
    check_rows,
    geodesic_point,
    integrate_geodesic,
    integrate_hamiltonian,
    match_costate,
    verify_velocity_energy,
)
from s3sr.quaternions import qexp_pure, qmul
from s3sr.shooting import _TURN, shoot
from conftest import _counting, random_unit

ONE = np.array([1.0, 0.0, 0.0, 0.0])

# triple-jump composition coefficients for a symmetric order-2 base step: the
# group-exponential chain below is a numerical witness for the closed form
_COMP4_A = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_COMP4 = (_COMP4_A, 1.0 - 2.0 * _COMP4_A, _COMP4_A)


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


def test_first_sample_is_q0_bit_for_bit():
    # with theta0 inside the exponent both factors are exactly 1 at s = 0; a
    # rotation by e(-theta0/2 j) and back by e(theta0/2 j) would round
    rng = np.random.default_rng(26)
    axes = [sign * row for row in np.eye(4) for sign in (1.0, -1.0)]
    starts = [random_unit(rng) for _ in range(100)] + axes
    for theta0 in np.linspace(0.0, 2.0 * np.pi, 9):
        for r, lam in ((0.0, 0.0), (1.0, 0.0), (1.0, 0.7), (rng.uniform(0.0, 3.0), rng.uniform(-20.0, 20.0))):
            p = GeodesicParams(r, theta0, lam)
            for q0 in starts:
                assert np.array_equal(integrate_geodesic(q0, p, 0.01, 1e-3).points[0], q0)
                assert np.array_equal(geodesic_point(q0, p, 0.0), q0)
    # so shoot's curve starts at P itself
    for P in starts[:5] + axes:
        assert np.array_equal(shoot(P, random_unit(rng)).curve.points[0], P)


def _three_factor_point(q0, params, s):
    """q0 e(-theta0/2 j) exp(s (-r i - lam j)) e((lam s + theta0/2) j), from qexp_pure and qmul stacks.

    The same curve as geodesic_point, written with the rotation by theta0
    outside the exponent and evaluated by the quaternion kernels rather
    than in complex pairs: a witness that shares no arithmetic with it.
    """
    s = np.asarray(s, dtype=float)
    r, th0, lam = params.r, params.theta0, params.lam
    left = qmul(np.asarray(q0, dtype=float), qexp_pure([0.0, -0.5 * th0, 0.0]))
    core = qexp_pure(np.stack([-r * s, -lam * s, np.zeros_like(s)], axis=-1))
    right = qexp_pure(np.stack([np.zeros_like(s), lam * s + 0.5 * th0, np.zeros_like(s)], axis=-1))
    return qmul(left, qmul(core, right))


def test_closed_form_matches_the_three_factor_composition():
    rng = np.random.default_rng(2026)
    eps = np.finfo(float).eps
    cases = []
    for r in (0.0, 1.0, rng.uniform(0.0, 3.0)):
        for lam in (0.0, rng.uniform(-1.0, 1.0), rng.uniform(-20.0, 20.0)):
            for T in (rng.uniform(0.0, 2.0), 20.0):
                cases.append((random_unit(rng), GeodesicParams(r, rng.uniform(0.0, 2.0 * np.pi), lam), T))
    # the widest velocity gaps this loop draws with seeds 7 to 23 (306 cases):
    # seed 14's is the largest, 3.3e-13, and seed 23's the largest against the bound
    cases += [
        (np.array([-0.2102105228361956, 0.10112336217869465, 0.36354585588107147, 0.901898005531839]),
         GeodesicParams(2.4929499566673345, 3.9819886461835035, -19.804280946458995), 20.0),
        (np.array([0.822847739400101, -0.05162132850720391, -0.21051355075555234, -0.5253007530506539]),
         GeodesicParams(1.0, 4.688262420663228, -14.987381871208934), 20.0),
    ]
    for q0, p, T in cases:
        r, lam = p.r, p.lam
        c = integrate_geodesic(q0, p, T, 1e-2)
        # each factor's phase rounds by about eps times (|lam| + r) s; the gap
        # is at most 1.6 eps (1 + (|lam| + r) s) here, 2.2 on 540 such cases
        bound = 4.0 * eps * (1.0 + (abs(lam) + r) * c.s)
        assert np.all(np.abs(c.points - _three_factor_point(q0, p, c.s)) <= bound[:, None])
        # the velocities are q (-a i - b k) for the analytic (a, b); their gap grows
        # with s as the points' does, to at most 2.66 eps (1 + (|lam| + r) s) max(1, r)
        # here (seed 23's case) and 1.9 on the seeded loop alone
        a, b = ab_profile(p, c.s)
        control = np.stack([np.zeros_like(a), -a, np.zeros_like(a), -b], axis=-1)
        gap = np.abs(c.velocities - qmul(c.points, control))
        assert np.all(gap <= max(1.0, r) * bound[:, None])
        # integrate_geodesic takes its phases from _powers and geodesic_point from
        # np.exp at each s: on the same grid they are at most 1.2 eps (1 + (|lam| + r) s)
        # apart here, 1.45 on 306 such cases
        assert np.all(np.abs(c.points - geodesic_point(q0, p, c.s)) <= bound[:, None])
    # scalar, (n,) and (m, n) parameters give (4,), (n, 4) and (m, n, 4)
    p = GeodesicParams(1.3, 0.4, -2.5)
    q0 = random_unit(rng)
    for s in (1.7, np.linspace(0.0, 3.0, 7), np.linspace(0.0, 3.0, 12).reshape(3, 4)):
        got = geodesic_point(q0, p, s)
        assert got.shape == np.shape(s) + (4,)
        bound = 4.0 * eps * (1.0 + (abs(p.lam) + p.r) * np.asarray(s))
        assert np.all(np.abs(got - _three_factor_point(q0, p, s)) <= bound[..., None])


# the exponential map in polar form: unit-speed geodesics from 1 with
# lambda = tan(sigma), run for T = rho cos(sigma), so that omega T = rho
def _exp_polar(theta0, sigma, rho):
    return geodesic_point(ONE, GeodesicParams(1.0, theta0, np.tan(sigma)), rho * np.cos(sigma))


def _volume_density(sigma, rho):
    """|det| of the Jacobian of (theta0, sigma, rho) -> _exp_polar: cos^3 sigma |sin rho (sin rho - rho cos rho)|."""
    return np.cos(sigma) ** 3 * np.abs(np.sin(rho) * (np.sin(rho) - rho * np.cos(rho)))


def test_exp_map_volume_element_matches_a_central_difference():
    rng = np.random.default_rng(4571)
    n = 300
    theta0 = rng.uniform(0.0, 2.0 * np.pi, n)
    sigma = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, n)
    rho = rng.uniform(0.0, 3.0 * np.pi, n)
    # where the density vanishes (rho near 0 and near pi) and where lambda blows up
    rho[:30] = 10.0 ** rng.uniform(-4.0, -1.0, 30)
    rho[30:60] = np.pi + rng.choice([-1.0, 1.0], 30) * 10.0 ** rng.uniform(-6.0, -1.0, 30)
    sigma[60:90] = rng.choice([-1.0, 1.0], 30) * (0.5 * np.pi - 10.0 ** rng.uniform(-4.0, -1.0, 30))
    h = 1e-6
    worst = 0.0
    for x in np.column_stack((theta0, sigma, rho)):
        # columns d/d(theta0), d/d(sigma), d/d(rho); the volume factor of the 4x3 J
        jac = np.column_stack([(_exp_polar(*(x + h * e)) - _exp_polar(*(x - h * e))) / (2.0 * h) for e in np.eye(3)])
        fd = np.sqrt(abs(np.linalg.det(jac.T @ jac)))
        worst = max(worst, abs(fd - _volume_density(x[1], x[2])))
    # 6.5e-9 here, on densities up to 4.3: a margin of 15
    assert worst <= 1e-7


def test_exp_map_volume_element_integrates_to_the_volume_of_the_sphere():
    # over rho <= pi, all sigma and all theta0 (the density is free of theta0)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    sigma, w_sigma = 0.5 * np.pi * nodes, 0.5 * np.pi * weights
    rho, w_rho = 0.5 * np.pi * (nodes + 1.0), 0.5 * np.pi * weights
    total = 2.0 * np.pi * np.sum(w_sigma[:, None] * w_rho * _volume_density(sigma[:, None], rho))
    # 2 pi^2 to 1.5e-13 with this 40 x 40 rule
    assert abs(total - 2.0 * np.pi**2) <= 1e-10


@pytest.mark.parametrize("n", [1, _POWERS_WIDTH - 1, _POWERS_WIDTH, _POWERS_WIDTH + 1, 10001])
def test_powers_match_the_exponential_at_each_k(n):
    # a phase step of integrate_geodesic, and the step factor log R of the
    # Hamiltonian's w at lambda = 200 and h = 1e-3, where |R| = 1 - 2.8e-5
    t = 0.4
    log_r = np.log(1.0 + 1j * t - t**2 / 2.0 - 1j * t**3 / 6.0 + t**4 / 24.0)
    assert abs(abs(np.exp(log_r)) - (1.0 - 2.8e-5)) <= 1e-6
    k = np.arange(n)
    for z in (0.7e-3j, log_r):
        got = _powers(z, n)
        assert got.shape == (n,) and got[0] == 1.0
        # exp(z k) rounds its argument by about eps |z| k, as does the table's
        # product; the two are at most 0.78 eps (1 + |z| k) apart, relative, here
        # (0.99 at n = 100001): a margin of 4
        ref = np.exp(z * k)
        assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * (1.0 + abs(z) * k) * np.abs(ref))


def test_curve_and_its_file_record_the_closed_form(tmp_path):
    c = integrate_geodesic(ONE, GeodesicParams(1.0, 0.3, 0.7), 0.5, 1e-2)
    assert c.meta["method"] == "closed_form" and "order" not in c.meta
    out = tmp_path / "g.csv"
    CurveRecord.from_curve(c).to_csv(out)
    assert "\n# method=closed_form\n" in out.read_text()
    assert CurveRecord.from_csv(out).header["method"] == "closed_form"


def _reference_geodesic(q0, params, T, h):
    """The order-4 chain as a per-step loop: one qexp_pure and one qmul per substep."""
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


def test_integrator_fourth_order_convergence():
    # a stepping integrator, sharing only the quaternion kernels with
    # geodesic_point, approaches its samples at order four: halving the step
    # cuts the error by about 16
    q0 = random_unit(np.random.default_rng(5))
    for params in (GeodesicParams(1.0, 0.4, 0.9), GeodesicParams(1.7, 2.5, -0.6)):

        def err(h):
            ref = _reference_geodesic(q0, params, 2.0, h)
            return np.max(np.abs(ref - integrate_geodesic(q0, params, 2.0, h).points))

        assert err(0.02) / err(0.01) >= 8.0


@pytest.mark.parametrize("nsteps", [0, 1, 1023, 1024, 1025, 10000])
def test_closed_form_grid_matches_pointwise_and_per_step_chain(nsteps):
    rng = np.random.default_rng(nsteps + 4)
    q0 = random_unit(rng)
    p = GeodesicParams(1.3, rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0))
    h = 1e-3
    T = nsteps * h
    c = integrate_geodesic(q0, p, T, h)
    assert c.meta["method"] == "closed_form"
    # the whole grid at once is the closed form called at each sample alone
    loop = np.array([geodesic_point(q0, p, s) for s in c.s])
    assert c.points.shape == loop.shape == (nsteps + 1, 4)
    assert np.max(np.abs(c.points - loop)) <= 1e-13
    # and the order-4 group-exponential chain stepped over the same grid
    # stays within its own truncation error T h^4 (plus rounding) of those samples
    ref = _reference_geodesic(q0, p, T, h)
    assert np.max(np.abs(c.points - ref)) <= T * h**4 + 1e-15


def _nested_loop_geodesic(q0, params, T, h):
    """The order-4 chain as a curve: every substep exponential from one qexp_pure
    call, chained by a loop of full-term products nested in the step loop."""
    nsteps = max(1, int(round(T / h))) if T > 0.0 else 0
    dt = T / nsteps if nsteps else 0.0
    t = np.arange(nsteps) * dt
    mids = np.empty((nsteps, len(_COMP4)))
    for j, c in enumerate(_COMP4):
        mids[:, j] = t + 0.5 * c * dt
        t += c * dt
    a, b = ab_profile(params, mids)
    coef = np.asarray(_COMP4)
    e = qexp_pure(np.stack([-a * coef * dt, np.zeros_like(a), -b * coef * dt], axis=-1))
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
    pts = np.array(rows)
    s = np.arange(nsteps + 1) * dt
    a, b = ab_profile(params, s)
    return SampledCurve(s, pts, a[:, None] * (-(pts @ I1)) + b[:, None] * (-(pts @ I3)))


@pytest.mark.parametrize(
    "params,T,h",
    [
        (GeodesicParams(0.0, 0.7, 0.4), 5.0, 1e-3),  # stationary
        (GeodesicParams(1.0, 0.3, 0.0), 2.0 * np.pi, 1e-3),  # a closed one-parameter subgroup
        (GeodesicParams(1.0, 1.9, 200.0), 1.0, _TURN / (2.0 * 200.0)),  # shoot's step at lambda = 200
        (GeodesicParams(1.0, 1.9, -0.8), 0.0, 1e-3),  # one sample
        (GeodesicParams(1.0, 0.3, 0.7), 1000.0, 1e-2),  # 100,001 samples
    ],
)
def test_sampled_geodesic_stays_on_the_sphere_and_the_distribution(params, T, h):
    q0 = random_unit(np.random.default_rng(7))
    c = integrate_geodesic(q0, params, T, h)
    assert c.n == round(T / h) + 1
    assert np.max(np.abs(np.linalg.norm(c.points, axis=1) - 1.0)) <= 2e-15
    assert np.max(np.abs(omega_eval(c.points, c.velocities))) <= 2e-15
    assert np.max(np.abs(np.sum(c.velocities**2, axis=1) - params.r**2)) <= 1e-14


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


@pytest.mark.parametrize("integrator", ["geodesic", "hamiltonian"])
def test_integrator_loops_make_no_per_step_calls(integrator):
    # the closed form makes the same calls at any length, and the Hamiltonian
    # run's whole-horizon passes do too, but for its scan: one more level of
    # about 9 calls per doubling of the horizon, above a scalar fold over the
    # same 62 entries at T=2 and T=4 with h=1e-3.  A call of a Python function
    # or builtin put back into a per-step loop adds 2,000 calls.  Measured:
    # run(4) - run(2) is 9 for the Hamiltonian run and 0 for the closed form;
    # the bound of 32 allows about three scan levels.
    # (Calls of types, such as tuple(), and array operators are not profile events.)
    p = GeodesicParams(1.0, 0.3, 0.7)
    h = 1e-3

    def run(T):
        if integrator == "hamiltonian":
            return _profiled_calls(integrate_hamiltonian, ONE, match_costate(ONE, p), T, h)
        return _profiled_calls(integrate_geodesic, ONE, p, T, h)

    assert 0 <= run(4.0) - run(2.0) <= 32


# numpy functions written in Python, each a few microseconds a call over the
# ufunc or array method it reduces to
_FLOW_WRAPPERS = ("diff", "any", "max", "flatnonzero", "atleast_1d", "atleast_2d")


class _CountedMatrix(np.ndarray):
    """A right-multiplication matrix that counts every ufunc it takes part in, matmul included."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.counts["I"] += 1
        inputs = [np.asarray(x) if isinstance(x, _CountedMatrix) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_geodesic_flow_calls_no_python_level_numpy_wrapper_and_no_matrix_product(monkeypatch):
    counts = dict.fromkeys(_FLOW_WRAPPERS + ("I",), 0)
    p = GeodesicParams(1.0, 0.3, 20.0)  # the angle wraps about 64 times over T = 10
    xi0 = match_costate(ONE, p)
    off_tangent = integrate_geodesic(ONE, p, 1.0, 1e-2)
    off_tangent.velocities += 1e-3 * off_tangent.points
    for name in _FLOW_WRAPPERS:
        monkeypatch.setattr(np, name, _counting(counts, name, getattr(np, name)))
    _CountedMatrix.counts = counts
    for name in ("I1", "I3"):
        monkeypatch.setattr(frames, name, getattr(frames, name).view(_CountedMatrix))
    c = integrate_geodesic(ONE, p, 10.0, 1e-3)
    traj = integrate_hamiltonian(ONE, xi0, 10.0, 1e-3)
    traj.qdot(), traj.energy(), frame_ab(c.points, c.velocities)
    verify_velocity_energy(c), acceleration_T_residual(c), angle_profile(c)
    with pytest.raises(ValueError, match="not tangent"):
        verify_velocity_energy(off_tangent)
    assert set(counts.values()) == {0}, counts
    # the counters see a call when one is made
    x = np.array([0.5, -1.5, 2.5])
    np.diff(x), np.any(x), np.max(x), np.flatnonzero(x), np.atleast_1d(x), np.atleast_2d(x)
    np.ones(4) @ frames.I1
    assert set(counts.values()) == {1}, counts


def test_engine_memory_is_a_few_arrays():
    # 10,001 samples are 320 kB an array of points; the peak, 1.37 MB, is the
    # grid, the two phase tables, the (4, n) coefficient rows and the points and
    # velocities. A list of Python floats per sample, a stack of every sample's
    # factors or one more copy of the samples would pass 1.5 MB
    tracemalloc.start()
    try:
        integrate_geodesic(ONE, GeodesicParams(1.0, 0.3, 0.7), 10.0, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


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
    # per-sample reference through the frame vectors
    ref = 0.0
    for q, v in zip(c.points, c.velocities):
        f = frame_at(q)
        a, b = float(v @ f.X), float(v @ f.Y)
        ref = max(ref, abs(float(v @ v) - (a * a + b * b)))
    assert abs(worst - ref) <= 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_velocity_energy_long_geodesic(seed):
    # the closed form over T=10 at h=1e-3 keeps | |q| - 1 | at 4.4e-16 to 5.6e-16 on these
    # seeds, far inside the bound max(1e-12, 2 n eps) = 4.4e-12; the energy gap is at most 1.3e-15
    rng = np.random.default_rng(seed)
    q0 = rng.standard_normal(4)
    q0 /= np.linalg.norm(q0)
    c = integrate_geodesic(q0, GeodesicParams(1.0, rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0)), 10.0, 1e-3)
    assert verify_velocity_energy(c) <= 1e-10


@pytest.mark.parametrize("params,T", [(GeodesicParams(1.0, 0.3, 0.5), 50.0), (GeodesicParams(2.0, 0.3, 3.0), 20.0)])
def test_verify_velocity_energy_very_long_geodesic(params, T):
    # the order-4 chain drifts |q| by 1.7e-12 and 2.3e-12 here, past a fixed
    # 1e-12; the bound grows with the sample count
    c = _nested_loop_geodesic(ONE, params, T, 1e-3)
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


def test_acceleration_T_residual_on_a_jittered_grid(rng):
    # on a non-uniform grid the three-point difference reads
    # gamma'' + (h1 - h0)/3 gamma''' + O(h^2); here |h1 - h0| <= 1.2 h and
    # |<gamma''', T>| = s^3 <= 1, so that term is at most 0.4 h = 2e-4 (1.3e-4 measured)
    s = np.linspace(0.0, 1.0, 2001)
    s[1:-1] += rng.uniform(-0.3, 0.3, 1999) * s[1]
    accel = qmul(ONE, qexp_pure(np.outer(-0.5 * s * s, [0.0, 1.0, 0.0])))
    assert abs(acceleration_T_residual(SampledCurve(s, accel)) - 1.0) <= 2e-4


def test_acceleration_T_residual_argument_checks():
    c = integrate_geodesic(ONE, GeodesicParams(1, 0, 0), 0.0, 1e-3)
    with pytest.raises(ValueError, match="at least 3 samples"):
        acceleration_T_residual(c)
    repeated = SampledCurve(np.array([0.0, 0.1, 0.1, 0.2]), np.tile(ONE, (4, 1)))
    with pytest.raises(ValueError, match="strictly increasing"):
        acceleration_T_residual(repeated)


def test_fd_omega_residual_small_on_geodesics():
    c = integrate_geodesic(ONE, GeodesicParams(1.0, 0.4, 0.7), 2.0, 1e-3)
    # (h^2/6)*2*lam*r^2 scale
    assert np.max(omega_fd_residuals(c)) <= 1e-6


def test_check_rows_pass_library_curves():
    # the kernel judges curves made in memory, not only files: a geodesic, a shot one and a chart connect
    q0, q1 = random_unit(np.random.default_rng(36)), random_unit(np.random.default_rng(37))
    params = GeodesicParams(1.0, 0.4, -0.7)
    shot = shoot(q0, q1)
    chart = connect(q0, q1, n=1024)
    assert chart.meta["route"] == "chart"
    geodesic = integrate_geodesic(q0, params, 3.0, 1e-3)
    for curve, lam in [(geodesic, params.lam), (shot.curve, shot.params.lam), (chart, None)]:
        rows, skips = check_rows(curve, frame_ab(curve.points, curve.velocities), lam, 1e-4)
        names = ["unit-norm", "horizontality", "velocity-energy", "acceleration-T"]
        assert [name for name, _, _ in rows] == names + (["angle-linearity"] if lam is not None else [])
        assert skips == ([] if lam is not None else ["angle-linearity (not a geodesic record)"])
        assert all(value <= bound for _, value, bound in rows), rows


@pytest.mark.parametrize("n", [2, 3, 8])
def test_check_rows_rejects_a_repeated_s(n):
    curve = integrate_geodesic(ONE, GeodesicParams(1.0, 0.0, 0.5), 1.0, 1.0 / (n - 1))
    curve.s[1] = curve.s[0]
    with pytest.raises(ValueError, match="strictly increasing"):
        check_rows(curve, frame_ab(curve.points, curve.velocities), 0.5, 1e-4)
