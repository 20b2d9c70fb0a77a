import tracemalloc

import numpy as np
import pytest

from s3sr.frames import I1, I2, I3
from s3sr.geodesics import (
    _BLOCK,
    GeodesicParams,
    geodesic_point,
    integrate_geodesic,
    integrate_hamiltonian,
    match_costate,
)
from conftest import random_unit

ONE = np.array([1.0, 0.0, 0.0, 0.0])


def test_zero_costate_is_stationary():
    traj = integrate_hamiltonian(ONE, np.zeros(4), 2.0, 1e-2)
    assert np.max(np.abs(traj.q - ONE)) == 0.0
    assert np.max(np.abs(traj.xi)) == 0.0
    assert np.max(traj.energy()) == 0.0


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


def test_matched_trajectories_agree(rng):
    q0 = random_unit(rng)
    p = GeodesicParams(1.0, 1.1, 0.7)
    traj = integrate_hamiltonian(q0, match_costate(q0, p), 5.0, 1e-3)
    geo = integrate_geodesic(q0, p, 5.0, 1e-3)
    assert np.max(np.abs(traj.q - geo.points)) <= 1e-8


def _reference_hamiltonian(q0, xi0, T, h):
    """Classical RK4 with the right-hand side written with numpy and the I matrices."""

    def rhs(y):
        q, xi = y[:4], y[4:]
        p1 = (q @ I1) @ xi
        p3 = (q @ I3) @ xi
        return np.concatenate([p1 * (q @ I1) + p3 * (q @ I3), p1 * (xi @ I1) + p3 * (xi @ I3)])

    nsteps = max(1, int(round(T / h)))
    dt = T / nsteps
    y = np.concatenate([q0, xi0])
    ys = [y]
    for _ in range(nsteps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    return np.array(ys)


def test_float_rhs_matches_numpy_reference(rng):
    q0 = random_unit(rng)
    # a costate with a gauge component, so every term of the right-hand side is live
    xi0 = match_costate(q0, GeodesicParams(1.0, 0.6, -0.8)) + 0.3 * q0
    traj = integrate_hamiltonian(q0, xi0, 5.0, 1e-3)
    ref = _reference_hamiltonian(q0, xi0, 5.0, 1e-3)
    assert np.max(np.abs(traj.q - ref[:, :4])) <= 1e-13
    assert np.max(np.abs(traj.xi - ref[:, 4:])) <= 1e-13
    assert np.array_equal(traj.s, np.arange(5001) * 1e-3)


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


@pytest.mark.parametrize("nsteps", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5000])
def test_unrolled_stages_match_list_stages_bit_for_bit(nsteps):
    rng = np.random.default_rng(nsteps)
    q0 = random_unit(rng)
    params = GeodesicParams(1.2, 0.4, 0.9)
    cases = [(q0, match_costate(q0, params) - 0.2 * q0)]
    # the axis points make exact zeros, whose signs the stages must keep too
    for axis in [sign * row for row in np.eye(4) for sign in (1.0, -1.0)]:
        for xi0 in (match_costate(axis, params), np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0])):
            cases.append((axis, xi0))
    # costates whose xi-side products underflow (1e-300) or overflow to inf and
    # NaN within the first step (1e150), and a start with a subnormal component
    for scale in (1e-300, 1e150):
        cases.append((q0, scale * match_costate(q0, params)))
    tiny = np.array([1.0, 5e-324, 0.0, 0.0])
    cases += [(tiny, match_costate(tiny, params)), (tiny, np.array([0.0, 1.0, 5e-324, 1.0]))]
    h = 1e-3
    for q0, xi0 in cases:
        traj = integrate_hamiltonian(q0, xi0, nsteps * h, h)
        ref = _list_stage_hamiltonian(q0, xi0, nsteps * h, h)
        assert traj.q.shape == traj.xi.shape == (nsteps + 1, 4)
        # as bytes: the overflowing cases end in NaNs, whose sign bits must agree too
        assert traj.q.tobytes() == ref[:, :4].tobytes()
        assert traj.xi.tobytes() == ref[:, 4:].tobytes()


def test_hamiltonian_memory_is_one_table():
    # the (10001, 8) float table is 0.64 MB; a per-step list over the horizon would add ~3 MB
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
    q0 = random_unit(rng)
    p = GeodesicParams(1.0, 2.0, -0.4)
    xi0 = match_costate(q0, p)
    traj_a = integrate_hamiltonian(q0, xi0, 3.0, 1e-3)
    traj_b = integrate_hamiltonian(q0, xi0 + 0.37 * q0, 3.0, 1e-3)
    assert np.max(np.abs(traj_a.q - traj_b.q)) <= 1e-10


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
