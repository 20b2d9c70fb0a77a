"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a labeled PASS/FAIL line with its measurements (run
pytest with -s to see them).  Criterion 4 asserts a finite-difference
horizontality threshold that sits below the second-order truncation
floor of the measurement itself at the required sampling; the test
reports the measured floor alongside the asserted bound.
"""

import time

import numpy as np
import pytest

import s3sr
from s3sr.charts import EulerAngles, from_cartesian, to_cartesian
from s3sr.connect import connect, connect_constant_psi
from s3sr.curves import omega_fd_residuals
from s3sr.frames import I2, T_FIELD, X_FIELD, Y_FIELD, bracket, frame_at, omega_eval
from s3sr.geodesics import (
    GeodesicParams,
    acceleration_T_residual,
    angle_profile,
    geodesic_point,
    integrate_geodesic,
    integrate_hamiltonian,
    match_costate,
)
from s3sr.io import CurveRecord
from s3sr.quaternions import QUAT_I, QUAT_J, QUAT_K, QUAT_ONE, norm2, qexp_pure, qmul
from s3sr.shooting import shoot
from s3sr.cli import main as cli_main


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c01_quaternion_algebra():
    t0 = time.perf_counter()
    minus_one = -QUAT_ONE
    exact = (
        np.array_equal(qmul(QUAT_I, QUAT_I), minus_one)
        and np.array_equal(qmul(QUAT_J, QUAT_J), minus_one)
        and np.array_equal(qmul(QUAT_K, QUAT_K), minus_one)
        and np.array_equal(qmul(QUAT_I, QUAT_J), QUAT_K)
        and np.array_equal(qmul(QUAT_J, QUAT_I), -QUAT_K)
        and np.array_equal(qmul(QUAT_J, QUAT_K), QUAT_I)
        and np.array_equal(qmul(QUAT_K, QUAT_J), -QUAT_I)
        and np.array_equal(qmul(QUAT_K, QUAT_I), QUAT_J)
        and np.array_equal(qmul(QUAT_I, QUAT_K), -QUAT_J)
    )
    rng = np.random.default_rng(101)
    p, q, r = rng.standard_normal((3, 1000, 4))
    assoc = float(np.max(np.abs(qmul(qmul(p, q), r) - qmul(p, qmul(q, r)))))
    mult = float(np.max(np.abs(norm2(qmul(p, q)) - norm2(p) * norm2(q))))
    dt = time.perf_counter() - t0
    ok = exact and assoc <= 1e-12 and mult <= 1e-12 and dt < 1.0
    assert _report(
        1, ok, f"basis exact={exact}, assoc={assoc:.2e}, modulus={mult:.2e}, {dt:.2f}s"
    )


def test_c02_frame_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    qs = rng.standard_normal((1000, 4))
    qs /= np.linalg.norm(qs, axis=1, keepdims=True)
    gram_dev = 0.0
    for q in qs:
        m = np.stack(frame_at(q))
        gram_dev = max(gram_dev, float(np.max(np.abs(m @ m.T - np.eye(4)))))

    # bracket table via exact matrix commutators; the orientation forced
    # by the coordinate fields is [X, Y] = 2T (equivalently [Y, X] = -2T)
    b_ok = (
        np.array_equal(bracket("X", "Y").matrix, 2.0 * T_FIELD.matrix)
        and np.array_equal(bracket("X", "T").matrix, -2.0 * Y_FIELD.matrix)
        and np.array_equal(bracket("Y", "T").matrix, 2.0 * X_FIELD.matrix)
    )
    h = 1e-5
    fields = {"X": X_FIELD, "Y": Y_FIELD, "T": T_FIELD}
    fd_dev = 0.0
    for u, v in (("X", "Y"), ("X", "T"), ("Y", "T")):
        fu, fv = fields[u], fields[v]
        exact = bracket(u, v)
        for q in qs[:25]:
            fd = (fv(q + h * fu(q)) - fv(q - h * fu(q))) / (2 * h) - (
                fu(q + h * fv(q)) - fu(q - h * fv(q))
            ) / (2 * h)
            fd_dev = max(fd_dev, float(np.max(np.abs(fd - exact(q)))))

    omega_dev = 0.0
    for q in qs[:200]:
        f = frame_at(q)
        vals = np.array([omega_eval(q, f.X), omega_eval(q, f.Y), omega_eval(q, f.T), omega_eval(q, f.N)])
        omega_dev = max(omega_dev, float(np.max(np.abs(vals - [0.0, 0.0, -1.0, 0.0]))))
    dt = time.perf_counter() - t0
    ok = gram_dev <= 1e-12 and b_ok and fd_dev <= 1e-6 and omega_dev <= 1e-12 and dt < 1.0
    assert _report(
        2,
        ok,
        f"gram={gram_dev:.2e}, brackets exact={b_ok}, fd={fd_dev:.2e}, omega={omega_dev:.2e}, {dt:.2f}s",
    )


def test_c03_chart_suite():
    rng = np.random.default_rng(303)
    round_dev = 0.0
    n_done = 0
    while n_done < 1000:
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        e = from_cartesian(q)
        if not 0.05 < e.theta < np.pi - 0.05:
            continue
        n_done += 1
        round_dev = max(round_dev, float(np.max(np.abs(to_cartesian(e) - q))))

    omega_dev = 0.0
    for _ in range(1000):
        e = EulerAngles(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.05, np.pi - 0.05))
        de = rng.uniform(-1.0, 1.0, 3)
        v = s3sr.chart_velocity(e, de)
        omega_dev = max(
            omega_dev,
            abs(float(omega_eval(to_cartesian(e), v)) - float(s3sr.omega_euler(e, de))),
        )
    ok = round_dev <= 1e-10 and omega_dev <= 1e-10
    assert _report(3, ok, f"roundtrip={round_dev:.2e}, omega agreement={omega_dev:.2e}")


def test_c04_connectivity():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    endpoint_worst = 0.0
    resid_worst = 0.0
    worst_pair = None
    for _ in range(100):
        e0 = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi, np.pi), rng.uniform(0.2, np.pi - 0.2))
        e1 = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi, np.pi), rng.uniform(0.2, np.pi - 0.2))
        c = connect(e0, e1, n=256)
        endpoint_worst = max(endpoint_worst, c.meta["endpoint_error"])
        if c.meta["max_omega_fd"] > resid_worst:
            resid_worst = c.meta["max_omega_fd"]
            worst_pair = (e0, e1)
    r_half = connect(*worst_pair, n=512).meta["max_omega_fd"]
    factor = resid_worst / r_half
    dt = time.perf_counter() - t0
    r_fine = connect(*worst_pair, n=4096).meta["max_omega_fd"]
    detail = (
        f"endpoint={endpoint_worst:.2e} (<=1e-8), sup omega_fd@256={resid_worst:.2e} "
        f"(criterion 1e-6; FD truncation floor (h^2/6)|ab'-ba'| exceeds it at this "
        f"sampling; @4096={r_fine:.2e}), doubling factor={factor:.2f} (>=3.5), {dt:.1f}s (<10s)"
    )
    ok = endpoint_worst <= 1e-8 and factor >= 3.5 and dt < 10.0 and resid_worst <= 1e-6
    _report(4, ok, detail)
    assert endpoint_worst <= 1e-8
    assert factor >= 3.5
    assert dt < 10.0
    # the FD residual of an exactly horizontal curve equals
    # (h^2/6)|a b' - b a'| + O(h^4), which at h = 1/255 exceeds this
    # bound for generic endpoint pairs; asserted as specified regardless
    assert resid_worst <= 1e-6, detail


def test_c05_constant_psi_closed_form():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        th0, th1 = rng.uniform(0.1, np.pi - 0.1, 2)
        ph0, ph1 = rng.uniform(-3.0, 3.0, 2)
        if abs(ph0 - ph1) < 1e-6:
            ph1 += 0.5
        psi, c = connect_constant_psi(ph0, th0, ph1, th1, n=1000)
        expected = np.arctan(
            np.log(np.tan(0.5 * th1) / np.tan(0.5 * th0)) / (ph0 - ph1)
        )
        assert psi == expected  # same formula evaluated once: exact match
        worst = max(worst, c.meta["max_sinth1_residual"])
    ok = worst <= 1e-9
    assert _report(5, ok, f"max analytic residual={worst:.2e} over 20 curves x 1000 samples")


def test_c06_geodesic_engine():
    t0 = time.perf_counter()
    params = GeodesicParams(1.0, 1.1, 0.7)
    c = integrate_geodesic(QUAT_ONE, params, 10.0, 1e-3)
    drift = float(np.max(np.abs(np.linalg.norm(c.points, axis=1) - 1.0)))
    speed_res = float(np.max(np.abs(np.sum(c.velocities**2, axis=1) - params.r**2)))
    omega_res = float(np.max(np.abs(omega_eval(c.points, c.velocities))))
    ang = angle_profile(c)
    slope_dev = abs(float(np.polyfit(c.s, ang, 1)[0]) - 2.0 * params.lam)
    acc_res = acceleration_T_residual(c)
    dt = time.perf_counter() - t0
    ok = (
        drift <= 1e-12
        and speed_res <= 1e-10
        and omega_res <= 1e-8
        and slope_dev <= 1e-6
        and acc_res <= 1e-5
        and dt < 5.0
    )
    assert _report(
        6,
        ok,
        f"drift={drift:.2e}, speed={speed_res:.2e}, omega={omega_res:.2e}, "
        f"slope dev={slope_dev:.2e}, accT={acc_res:.2e}, {dt:.2f}s",
    )


def test_c07_hamiltonian_cross_check():
    rng = np.random.default_rng(707)
    q0 = rng.standard_normal(4)
    q0 /= np.linalg.norm(q0)
    params = GeodesicParams(1.0, 0.9, 0.6)
    xi0 = match_costate(q0, params)

    def measure(h):
        traj = integrate_hamiltonian(q0, xi0, 5.0, h)
        geo = integrate_geodesic(q0, params, 5.0, h)
        energy = traj.energy()
        gap = float(np.max(np.abs(traj.q - geo.points)))
        drift = float(np.max(np.abs(energy - energy[0])))
        qd = traj.qdot()
        en_res = float(np.max(np.abs(np.sum(qd * qd, axis=1) - 2.0 * energy)))
        hc_res = float(np.max(np.abs(np.sum(qd * (traj.q @ I2), axis=1))))
        return gap, drift, en_res, hc_res

    gap, drift, en_res, hc_res = measure(1e-3)
    g1, d1, _, _ = measure(0.02)
    g2, d2, _, _ = measure(0.01)
    gap_factor, drift_factor = g1 / g2, d1 / d2
    ok = (
        gap <= 1e-8
        and drift <= 1e-9
        and en_res <= 1e-9
        and hc_res <= 1e-8
        and gap_factor >= 8.0
        and drift_factor >= 8.0
    )
    assert _report(
        7,
        ok,
        f"gap={gap:.2e}, H drift={drift:.2e}, energy id={en_res:.2e}, "
        f"<q',qI2>={hc_res:.2e}, halving factors=({gap_factor:.1f}, {drift_factor:.1f})",
    )


def test_c08_lambda_zero_family():
    params = GeodesicParams(1.0, 0.6, 0.0)
    c = integrate_geodesic(QUAT_ONE, params, 2.0 * np.pi, 1e-3)
    u = np.array([-np.cos(params.theta0), 0.0, -np.sin(params.theta0)])
    closed = qmul(QUAT_ONE, qexp_pure(np.outer(c.s, u)))
    gap = float(np.max(np.abs(c.points - closed)))
    ok = gap <= 1e-10
    assert _report(8, ok, f"engine vs one-parameter subgroup sup gap={gap:.2e}")


def test_c09_shooting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    P = np.array([1.0, 0.0, 0.0, 0.0])
    errors = []
    converged = 0
    for _ in range(50):
        target = rng.standard_normal(4)
        target /= np.linalg.norm(target)
        res = shoot(P, target)
        errors.append(res.endpoint_error)
        converged += res.converged
    # manufactured round trips
    true = GeodesicParams(1.0, 2.2, 0.9)
    res = shoot(P, geodesic_point(P, true, 1.5))
    par_dev = max(
        abs((res.params.theta0 - true.theta0 + np.pi) % (2 * np.pi) - np.pi),
        abs(res.params.lam - true.lam),
        abs(res.T - 1.5),
    )
    target0 = qmul(P, qexp_pure(1.2 * np.array([-np.cos(0.3), 0.0, -np.sin(0.3)])))
    res0 = shoot(P, target0)
    par_dev = max(
        par_dev,
        abs((res0.params.theta0 - 0.3 + np.pi) % (2 * np.pi) - np.pi),
        abs(res0.params.lam),
        abs(res0.T - 1.2),
    )
    dt = time.perf_counter() - t0
    ok = converged == 50 and max(errors) <= 1e-6 and par_dev <= 1e-4 and dt < 60.0
    assert _report(
        9,
        ok,
        f"converged {converged}/50, max err={max(errors):.2e}, param recovery dev={par_dev:.2e}, {dt:.1f}s",
    )


def test_c10_cli_contract(tmp_path, monkeypatch):
    runs = []

    def run(*args):
        return cli_main(list(args))

    geo = tmp_path / "geo.csv"
    conn = tmp_path / "conn.csv"
    runs.append((run("geodesic", "--q0", "1,0,0,0", "--lambda", "0.4", "--T", "1",
                     "--out", str(geo)), 0))
    runs.append((run("connect", "--from", "0,0.5,1.0", "--to", "1,0.8,1.6",
                     "--out", str(conn)), 0))
    runs.append((run("check", str(geo)), 0))
    runs.append((run("connect", "--from", "junk", "--to", "1,1,1"), 2))
    runs.append((run("geodesic", "--q0", "1,0,0,0"), 2))          # missing --T
    runs.append((run("check", str(tmp_path / "missing.csv")), 2))
    runs.append((run("shoot", "--from", "1,0,0,0", "--to", "0,0,1,0",
                     "--tol", "1e-18", "--out", str(tmp_path / "s.csv")), 4))

    # construction-failure path (exit 3) exercised by injecting a failure
    import s3sr.cli as cli_mod
    from s3sr.connect import ConstructionError

    def failing_connect(*a, **k):
        raise ConstructionError("injected", 1.0)

    monkeypatch.setattr(cli_mod, "connect", failing_connect)
    runs.append((run("connect", "--from", "0,0.5,1.0", "--to", "1,0.8,1.6",
                     "--out", str(tmp_path / "x.csv")), 3))
    monkeypatch.undo()

    codes_ok = all(got == want for got, want in runs)

    # CSV bit-stability across two identical seeded runs
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("shoot", "--from", "1,0,0,0", "--to", "0,0,1,0", "--seed", "7", "--out", str(a))
    run("shoot", "--from", "1,0,0,0", "--to", "0,0,1,0", "--seed", "7", "--out", str(b))
    stable = a.read_bytes() == b.read_bytes()

    ok = codes_ok and stable
    assert _report(
        10,
        ok,
        f"exit codes={[(g, w) for g, w in runs]}, csv bit-stable={stable}",
    )
