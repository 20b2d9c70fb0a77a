import tracemalloc

import numpy as np
import pytest

from s3sr.frames import I1, I2, I3
from s3sr.geodesics import (
    GeodesicParams,
    _compose,
    _pair_mul,
    _scan,
    ab_profile,
    geodesic_point,
    integrate_geodesic,
    integrate_hamiltonian,
    match_costate,
)
from s3sr.quaternions import QUAT_I, QUAT_J, QUAT_K, qmul
from conftest import random_unit

ONE = np.array([1.0, 0.0, 0.0, 0.0])


def test_zero_costate_is_stationary():
    traj = integrate_hamiltonian(ONE, np.zeros(4), 2.0, 1e-2)
    assert np.max(np.abs(traj.q - ONE)) == 0.0
    assert np.max(np.abs(traj.xi)) == 0.0
    assert np.max(traj.energy()) == 0.0


def test_trajectory_records_its_method_and_grid():
    # T / h = 1000.5 is cut into 1000 steps of 1.0005e-3
    traj = integrate_hamiltonian(ONE, np.zeros(4), 1.0005, 1e-3)
    assert traj.meta == {"tag": "hamiltonian", "method": "rk4_body", "T": 1.0005, "h": traj.s[1]}
    assert integrate_hamiltonian(ONE, np.zeros(4), 0.0, 1e-3).meta["h"] == 0.0


def test_argument_checks():
    with pytest.raises(ValueError):
        integrate_hamiltonian(ONE, np.zeros(4), 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_hamiltonian(ONE, np.zeros(4), -1.0, 1e-2)
    for T, h in ((np.inf, 1e-2), (np.nan, 1e-2), (1.0, np.inf), (1.0, np.nan), (-np.inf, 1e-2)):
        with pytest.raises(ValueError, match="finite"):
            integrate_hamiltonian(ONE, np.zeros(4), T, h)


@pytest.mark.parametrize(
    "q0,xi0,message",
    [
        ([np.nan, 0.0, 0.0, 0.0], (0.0, 1.0, 0.0, 0.0), "initial point q0 is not unit"),
        ([2.0, 0.0, 0.0, 0.0], (0.0, 1.0, 0.0, 0.0), "initial point q0 is not unit"),
        (np.tile(ONE, (2, 1)), (0.0, 1.0, 0.0, 0.0), r"initial point q0 must be .* shape \(2, 4\)"),
        (ONE, (0.0, 1.0, 0.0), "xi0 must be one finite 4-vector"),
        (ONE, (0.0, np.nan, 0.0, 0.0), "xi0 must be one finite 4-vector"),
    ],
)
def test_initial_data_checks(q0, xi0, message):
    with pytest.raises(ValueError, match=message):
        integrate_hamiltonian(q0, xi0, 0.01, 1e-3)


def test_match_costate_pairings(rng):
    q0 = random_unit(rng)
    p = GeodesicParams(1.0, 0.8, -0.6)
    xi0 = match_costate(q0, p)
    a0 = np.cos(p.theta0)
    b0 = np.sin(p.theta0)
    assert abs(np.dot(q0 @ I1, xi0) + a0) <= 1e-14
    assert abs(np.dot(q0 @ I3, xi0) + b0) <= 1e-14
    assert abs(np.dot(q0 @ I2, xi0) + p.lam) <= 1e-14
    assert abs(np.dot(q0, xi0)) <= 1e-14


def test_qdot_and_match_costate_are_qmul_bit_for_bit(rng):
    # both take their right products from the multiplication table, so they
    # equal qmul's products combined in the same order, signed zeros included
    axes = [s * e for e in np.eye(4) for s in (1.0, -1.0)]
    for q0 in axes + list(random_unit(rng, 12)):
        for p in (GeodesicParams(1.0, 0.8, -0.6), GeodesicParams(0.0, 0.0, 2.5), GeodesicParams(2.0, -2.0, 0.0)):
            xi0 = match_costate(q0, p)
            a0, b0 = ab_profile(p, 0.0)
            ref = -a0 * qmul(q0, QUAT_I) - b0 * qmul(q0, QUAT_K) - p.lam * qmul(q0, QUAT_J)
            assert xi0.tobytes() == ref.tobytes()
            traj = integrate_hamiltonian(q0, xi0, 0.5, 1e-2)
            p1, p3 = traj.momenta()
            u = np.stack([np.zeros_like(p1), p1, np.zeros_like(p1), p3], axis=-1)
            assert traj.qdot().tobytes() == qmul(traj.q, u).tobytes()


def test_matched_trajectories_agree(rng):
    q0 = random_unit(rng)
    p = GeodesicParams(1.0, 1.1, 0.7)
    traj = integrate_hamiltonian(q0, match_costate(q0, p), 5.0, 1e-3)
    geo = integrate_geodesic(q0, p, 5.0, 1e-3)
    assert np.max(np.abs(traj.q - geo.points)) <= 1e-8


def _hamiltonian_rhs(w, x, y, z, a, b, c, d):
    """(q', xi') on floats for q = (w, x, y, z), xi = (a, b, c, d).

    With p1 = <q I1, xi> and p3 = <q I3, xi>: q' = p1 q I1 + p3 q I3 and
    xi' = p1 xi I1 + p3 xi I3, where q I1 = (-x, w, z, -y) and
    q I3 = (-z, y, -x, w).
    """
    p1 = w * b - x * a + z * c - y * d
    p3 = w * d - z * a + y * b - x * c
    return (
        -p1 * x - p3 * z,
        p1 * w + p3 * y,
        p1 * z - p3 * x,
        -p1 * y + p3 * w,
        -p1 * b - p3 * d,
        p1 * a + p3 * c,
        p1 * d - p3 * b,
        -p1 * c + p3 * a,
    )


def _list_stage_hamiltonian(q0, xi0, T, h):
    """The float RK4 with its right-hand side as a function and its stage inputs and update
    built by list comprehensions over zip, one row written per step."""
    nsteps = max(1, int(round(T / h))) if T > 0.0 else 0
    dt = T / nsteps if nsteps else 0.0
    half = 0.5 * dt
    sixth = dt / 6.0
    ys = np.empty((nsteps + 1, 8))
    ys[0, :4] = q0
    ys[0, 4:] = xi0
    y = ys[0].tolist()
    for i in range(nsteps):
        k1 = _hamiltonian_rhs(*y)
        k2 = _hamiltonian_rhs(*[u + half * k for u, k in zip(y, k1)])
        k3 = _hamiltonian_rhs(*[u + half * k for u, k in zip(y, k2)])
        k4 = _hamiltonian_rhs(*[u + dt * k for u, k in zip(y, k3)])
        y = [u + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4) for u, e1, e2, e3, e4 in zip(y, k1, k2, k3, k4)]
        ys[i + 1] = y
    return ys


def _qmul4(p, q):
    """Hamilton product of two quaternions given as 4 floats each."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy + py * qw + pz * qx - px * qz,
        pw * qz + pz * qw + px * qy - py * qx,
    )


def _body_stage_hamiltonian(q0, xi0, T, h):
    """RK4 on the body pair (q, eta), eta = conj(q0) xi0, a step at a time.

    w = eta1 + i eta3 obeys w' = -2i eta2 w; its k-th RK4 iterate is w0 R^k for the
    step factor R = 1 + z + z^2/2 + z^3/6 + z^4/24 at z = -2i eta2 h, taken in polar
    form.  From w_k the step builds the stage inputs of both equations and the
    stages K_s of q' = q (Re w i + Im w k) with generic quaternion products, as
    written in any RK4 text, and writes xi_k = q_k eta_k.
    """
    nsteps = max(1, int(round(T / h))) if T > 0.0 else 0
    dt = T / nsteps if nsteps else 0.0
    e0, e1, e2, e3 = _qmul4((q0[0], -q0[1], -q0[2], -q0[3]), tuple(xi0))
    a = complex(0.0, -2.0 * e2)
    t = np.float64(-2.0 * e2 * dt)
    log_r = 0.5 * np.log1p(-t**6 / 72.0 + t**8 / 576.0)
    arg_r = np.arctan2(t - t**3 / 6.0, 1.0 - t**2 / 2.0 + t**4 / 24.0)
    n = np.arange(nsteps + 1)
    power = np.exp(n * log_r) * (np.cos(n * arg_r) + 1j * np.sin(n * arg_r))
    ys = np.empty((nsteps + 1, 8))
    ys[0, :4] = q0
    ys[0, 4:] = xi0
    q = tuple(q0)

    def rhs(q, w):
        return _qmul4(q, (0.0, w.real, 0.0, w.imag))

    def step(u, k, c):
        return tuple(ui + c * ki for ui, ki in zip(u, k))

    for n, r_n in enumerate(power.tolist()):
        w = complex(e1, e3) * r_n
        if n:
            ys[n, :4] = q
            ys[n, 4:] = _qmul4(q, (e0, w.real, e2, w.imag))
        if n == nsteps:
            break
        w2 = w + 0.5 * dt * a * w
        w3 = w + 0.5 * dt * a * w2
        w4 = w + dt * a * w3
        k1 = rhs(q, w)
        k2 = rhs(step(q, k1, 0.5 * dt), w2)
        k3 = rhs(step(q, k2, 0.5 * dt), w3)
        k4 = rhs(step(q, k3, dt), w4)
        q = tuple(u + dt / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4) for u, c1, c2, c3, c4 in zip(q, k1, k2, k3, k4))
    return ys


# the scan runs over nsteps + 1 entries: 1023 steps make it 2^10 long, and
# 1024, 1025 and 2049 steps one or two entries past 2^10 and 2^11
@pytest.mark.parametrize("nsteps", [0, 1, 2, 3, 1023, 1024, 1025, 2049, 5000])
def test_blocked_kernel_matches_per_step_body_reference(nsteps):
    rng = np.random.default_rng(nsteps)
    q0 = random_unit(rng)
    params = GeodesicParams(1.2, 0.4, 0.9)
    cases = [(q0, match_costate(q0, params) - 0.2 * q0)]
    # at lambda = 200 a step turns w by 0.4 rad, and |R| = 1 - 3e-5 shows
    cases.append((q0, match_costate(q0, params._replace(lam=200.0))))
    # the axis points make exact zeros
    for axis in [sign * row for row in np.eye(4) for sign in (1.0, -1.0)]:
        for xi0 in (match_costate(axis, params), np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0])):
            cases.append((axis, xi0))
    # costates whose products underflow (1e-300) or overflow to inf and NaN
    # within the first step (1e150), and a start with a subnormal component
    for scale in (1e-300, 1e150):
        cases.append((q0, scale * match_costate(q0, params)))
    tiny = np.array([1.0, 5e-324, 0.0, 0.0])
    cases += [(tiny, match_costate(tiny, params)), (tiny, np.array([0.0, 1.0, 5e-324, 1.0]))]
    h = 1e-3
    with np.errstate(all="ignore"):
        for q0, xi0 in cases:
            traj = integrate_hamiltonian(q0, xi0, nsteps * h, h)
            ref = _body_stage_hamiltonian(q0, xi0, nsteps * h, h)
            assert traj.q.shape == traj.xi.shape == (nsteps + 1, 4)
            got = np.concatenate([traj.q, traj.xi], axis=1)
            # rows 0 are the initial data as given
            assert got[0].tobytes() == ref[0].tobytes()
            # the same NaNs and infinities, and the finite entries to rounding,
            # the costate relative to its size
            finite = np.isfinite(ref)
            assert np.array_equal(np.isfinite(got), finite)
            assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
            scale = np.array([1.0] * 4 + [max(np.max(np.abs(xi0)), 1e-300)] * 4)
            err = np.where(finite, np.abs(got - ref), 0.0) / scale
            assert np.max(err) <= 1e-13


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 129, 1023, 1024, 1025])
def test_scan_matches_a_left_fold_of_compose(n):
    # increments of RK4 steps at h = 1e-3 are about 1e-3; as complex pairs (A, B)
    e = (1e-3 * np.random.default_rng(n).normal(size=(n, 4))).view(complex)
    # the fold on Python complex numbers, which the scan also makes on its
    # levels of at most 64 entries
    rows = e.tolist()
    for k in range(1, n):
        rows[k] = _compose(rows[k - 1], rows[k])
    fold = np.array(rows, dtype=complex).reshape(n, 2)
    # the A and B columns as strided views of the (n, 2) table, and as
    # contiguous arrays of their own
    strided = e.copy()
    for a, b in [(strided[:, 0], strided[:, 1]), (e[:, 0].copy(), e[:, 1].copy())]:
        _scan(a, b)
        got = np.stack([a, b], axis=1)
        if n <= 2:
            # no product, or the one product e0 o e1 that both take in the same way
            assert got.tobytes() == fold.tobytes()
        else:
            # each product rounds the pair by about eps |C|, with |C| <= 0.25 here; the
            # fold makes n - 1 products in a chain and the tree fewer, so they differ
            # by less than n eps
            assert np.max(np.abs(fold)) <= 0.25
            assert np.max(np.abs(got - fold)) <= n * np.finfo(float).eps
    # the layout does not change a bit
    assert got.tobytes() == strided.tobytes()


def _compose_inputs():
    """Pairs (a0, a1), (b0, b1) for _compose, as four complex arrays.

    Parts drawn from +-0, +-inf, NaN, +-1e+-300, subnormals and moderate numbers,
    each of them in every one of the 8 real slots at least once, then random
    normal pairs and pairs spread over the whole exponent range.
    """
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -2.2e-308, 1.0, -0.5]
    rng = np.random.default_rng(31)
    special = rng.choice(specials, size=(8, 20000))
    special[:, : len(specials)] = specials
    spread = 10.0 ** rng.integers(-300, 301, size=(8, 4000)) * rng.normal(size=(8, 4000))
    parts = np.concatenate([special, rng.normal(size=(8, 4000)), spread], axis=1)
    z = np.empty((4, parts.shape[1]), dtype=complex)
    z.real, z.imag = parts[:4], parts[4:]
    return z


def test_pair_mul_matches_its_written_out_form():
    # _compose takes its product from _pair_mul, and so does its out-of-place
    # reference below; here the product itself is pinned, byte for byte, to the
    # formula written out, on arrays and on Python numbers, each with their own
    # arithmetic, and the inputs must come back unchanged
    z = _compose_inputs()
    with np.errstate(all="ignore"):
        a, b, c, d = z
        want = np.stack([a * c - b.conjugate() * d, a.conjugate() * d + b * c])
        x = z.copy()
        assert np.stack(_pair_mul(*x)).tobytes() == want.tobytes()
        assert x.tobytes() == z.tobytes()
        rows = list(zip(*(v.tolist() for v in z)))
        got = [_pair_mul(*r) for r in rows]
        want = [(x0 * y0 - x1.conjugate() * y1, x0.conjugate() * y1 + x1 * y0) for x0, x1, y0, y1 in rows]
    assert np.array(got, dtype=complex).tobytes() == np.array(want, dtype=complex).tobytes()


def _compose_out_of_place(a, b):
    """_compose as new values: (a0 + b0 + p0, a1 + b1 + p1) with (p0, p1) = _pair_mul(a0, a1, b0, b1)."""
    (a0, a1), (b0, b1) = a, b
    p0, p1 = _pair_mul(a0, a1, b0, b1)
    return a0 + b0 + p0, a1 + b1 + p1


def test_compose_in_place_matches_its_out_of_place_form():
    # the scan's array levels write _compose into their second pair, and its fold
    # on Python numbers rebinds it; both must make the float operations of the
    # out-of-place form in its order, byte for byte.  Numbers and arrays are
    # compared each with their own arithmetic: numpy's vectorized complex product
    # rounds differently from Python's (about half of the random pairs differ in
    # the last bit, and inf - inf can read as inf there)
    z = _compose_inputs()
    with np.errstate(all="ignore"):
        a0, a1, b0, b1 = z.copy()
        ref = np.stack(_compose_out_of_place((a0, a1), (b0, b1)), axis=1)
        out = _compose((a0, a1), (b0, b1))
        assert out[0] is b0 and out[1] is b1
        assert np.stack([b0, b1], axis=1).tobytes() == ref.tobytes()
        # the first pair is read only
        assert np.stack([a0, a1]).tobytes() == z[:2].tobytes()
        rows = list(zip(*(v.tolist() for v in z)))
        got = [_compose((x0, x1), (y0, y1)) for x0, x1, y0, y1 in rows]
        want = [_compose_out_of_place((x0, x1), (y0, y1)) for x0, x1, y0, y1 in rows]
    assert np.array(got, dtype=complex).tobytes() == np.array(want, dtype=complex).tobytes()


def test_body_scheme_agrees_with_the_ambient_rk4(rng):
    # RK4 on (q, xi) and RK4 on (q, conj(q0) xi0) are different fourth-order schemes
    # of the same flow: they agree to the order of their local errors, T h^4
    q0 = random_unit(rng)
    # a costate with a gauge component, so every term of the ambient right-hand side is live
    xi0 = match_costate(q0, GeodesicParams(1.0, 0.6, -0.8)) + 0.3 * q0
    T, h = 5.0, 1e-3
    traj = integrate_hamiltonian(q0, xi0, T, h)
    ref = _list_stage_hamiltonian(q0, xi0, T, h)
    assert np.max(np.abs(traj.q - ref[:, :4])) <= T * h**4
    assert np.max(np.abs(traj.xi - ref[:, 4:])) <= T * h**4
    assert np.array_equal(traj.s, np.arange(5001) * 1e-3)


def test_long_horizon_accuracy():
    # 40 seeded geodesics over 10,000 steps: |q| stays 1, H stays put and q follows
    # the closed form, each to well inside the bench's 1e-12 norm and 1e-9 H bounds
    rng = np.random.default_rng(4040)
    norm_dev = h_drift = gap = 0.0
    for _ in range(40):
        q0 = random_unit(rng)
        params = GeodesicParams(1.0, rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0))
        traj = integrate_hamiltonian(q0, match_costate(q0, params), 10.0, 1e-3)
        energy = traj.energy()
        norm_dev = max(norm_dev, np.max(np.abs(np.linalg.norm(traj.q, axis=1) - 1.0)))
        h_drift = max(h_drift, np.max(np.abs(energy - energy[0])))
        gap = max(gap, np.max(np.abs(traj.q - geodesic_point(q0, params, traj.s))))
    print(f"\nlong horizon: norm {norm_dev:.2e}, H drift {h_drift:.2e}, gap {gap:.2e}")
    assert norm_dev <= 1e-13
    assert h_drift <= 1e-13
    assert gap <= 1e-11


def test_hamiltonian_memory_is_one_table():
    # the (8, 10001) float table is 0.64 MB and the scan's two complex arrays,
    # 32 B a step, 0.32 MB; the peak reads 1.2 MB with the temporaries of the
    # scan's first level. A per-step list over the horizon would add ~3 MB
    q0 = np.array([1.0, 0.0, 0.0, 0.0])
    xi0 = match_costate(q0, GeodesicParams(1.0, 0.3, 0.7))
    tracemalloc.start()
    try:
        integrate_hamiltonian(q0, xi0, 10.0, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_conserved_quantities(rng):
    q0 = random_unit(rng)
    p = GeodesicParams(1.0, 0.3, 0.9)
    traj = integrate_hamiltonian(q0, match_costate(q0, p), 5.0, 1e-3)
    energy = traj.energy()
    assert np.max(np.abs(energy - energy[0])) <= 1e-9
    assert abs(energy[0] - 0.5) <= 1e-12  # r = 1
    assert np.max(np.abs(np.linalg.norm(traj.q, axis=1) - 1.0)) <= 1e-9
    qd = traj.qdot()
    # |q'|^2 = 2H along the flow
    assert np.max(np.abs(np.sum(qd * qd, axis=1) - 2.0 * energy)) <= 1e-9
    # horizontality pairing <q', q I2> = 0
    assert np.max(np.abs(np.sum(qd * (traj.q @ I2), axis=1))) <= 1e-8


def test_gauge_component_does_not_matter(rng):
    # q moves by eta1, eta2 and eta3 of eta = conj(q0) xi0 alone, never by eta0, the
    # gauge; off the axes, adding 0.37 q0 to xi0 changes the rest by its rounding
    q0 = random_unit(rng)
    p = GeodesicParams(1.0, 2.0, -0.4)
    xi0 = match_costate(q0, p)
    traj_a = integrate_hamiltonian(q0, xi0, 3.0, 1e-3)
    traj_b = integrate_hamiltonian(q0, xi0 + 0.37 * q0, 3.0, 1e-3)
    assert np.max(np.abs(traj_a.q - traj_b.q)) <= 1e-14
    for traj in (traj_a, traj_b):
        # <q j, xi> / |q|^2 = eta2 = -lambda at every sample
        mult = np.sum((traj.q @ I2) * traj.xi, axis=1) / np.sum(traj.q * traj.q, axis=1)
        assert np.max(np.abs(mult + p.lam)) <= 2e-15
    # on an axis point conj(q0) only permutes and negates, so eta1..eta3 are the same floats
    for axis in [sign * row for row in np.eye(4) for sign in (1.0, -1.0)]:
        xi0 = match_costate(axis, p) + np.array([0.1, -0.2, 0.3, 0.05])
        traj_a = integrate_hamiltonian(axis, xi0, 3.0, 1e-3)
        traj_b = integrate_hamiltonian(axis, xi0 + 0.37 * axis, 3.0, 1e-3)
        assert np.array_equal(traj_a.q, traj_b.q)


def test_T_component_of_costate_sets_the_multiplier(rng):
    # probe: zeroing the <q0 I2, .> component reproduces the lambda = 0
    # geodesic with the same speed and initial angle, not the lambda one
    q0 = random_unit(rng)
    p = GeodesicParams(1.0, 1.1, 0.8)
    xi_nomu = match_costate(q0, p) + p.lam * (q0 @ I2)
    traj = integrate_hamiltonian(q0, xi_nomu, 5.0, 1e-3)
    gap_lam = np.max(np.abs(traj.q - integrate_geodesic(q0, p, 5.0, 1e-3).points))
    gap_zero = np.max(
        np.abs(traj.q - integrate_geodesic(q0, GeodesicParams(1.0, 1.1, 0.0), 5.0, 1e-3).points)
    )
    print(f"\nmu-probe: gap to lambda-geodesic {gap_lam:.3e}, to lambda=0 geodesic {gap_zero:.3e}")
    assert gap_zero <= 1e-8
    assert gap_lam > 1e-2


def test_fourth_order_convergence(rng):
    q0 = random_unit(rng)
    p = GeodesicParams(1.0, 0.5, 0.7)
    xi0 = match_costate(q0, p)
    exact = geodesic_point(q0, p, 5.0)

    def gap_and_drift(h):
        traj = integrate_hamiltonian(q0, xi0, 5.0, h)
        energy = traj.energy()
        return (
            float(np.max(np.abs(traj.q[-1] - exact))),
            float(np.max(np.abs(energy - energy[0]))),
        )

    g1, d1 = gap_and_drift(0.02)
    g2, d2 = gap_and_drift(0.01)
    assert g1 / g2 >= 8.0
    assert d1 / d2 >= 8.0
