"""The isometries of the structure as an oracle: geodesics move with them.

Left translation q -> g q and the T-flow q -> q e^{j alpha} preserve the
distribution and its metric, so the geodesic through g q0 is g times the
geodesic through q0, and the T-flow turns the frame angle theta0 by
2 alpha.  Each test draws seeded cases over g, alpha in [-8, 8],
lambda in [-8, 8], r in [0, 2] and horizons T <= 10, or for shoot the
points P, Q and g uniform on S^3 and alpha in [-8, 8]; each bound is about
ten times the worst gap measured over 200 such cases (5 seeds of 40).
frame_at moves with both actions; connect only keeps its endpoints and
its horizontality, since its curve is not equivariant.  check reads a
geodesic file moved by either action as it reads the file itself.
"""

import numpy as np
import pytest

from s3sr.cli import main
from s3sr.connect import connect
from s3sr.frames import frame_at, omega_eval
from s3sr.geodesics import GeodesicParams, geodesic_point, integrate_geodesic, integrate_hamiltonian, match_costate
from s3sr.io import CurveRecord
from s3sr.quaternions import qmul
from s3sr.shooting import ShootingConfig, shoot
from conftest import random_unit


def _cases(seed, n=40):
    """n seeded (g, q0, params, T, h) with |lambda| <= 8 and T <= 10."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        params = GeodesicParams(rng.uniform(0.0, 2.0), rng.uniform(-np.pi, np.pi), rng.uniform(-8.0, 8.0))
        yield random_unit(rng), random_unit(rng), params, rng.uniform(0.0, 10.0), rng.choice([1e-3, 1e-2]), rng


def _e_j(alpha):
    """e^{j alpha} = cos(alpha) + sin(alpha) j."""
    return np.array([np.cos(alpha), 0.0, np.sin(alpha), 0.0])


@pytest.mark.parametrize("seed", [1, 2])
def test_integrate_geodesic_commutes_with_left_translation(seed):
    # worst gap measured: 8.9e-16
    for g, q0, params, T, h, _ in _cases(seed):
        moved = integrate_geodesic(qmul(g, q0), params, T, h)
        curve = integrate_geodesic(q0, params, T, h)
        assert np.array_equal(moved.s, curve.s)
        assert np.max(np.abs(moved.points - qmul(g, curve.points))) <= 1e-14
        assert np.max(np.abs(moved.velocities - qmul(g, curve.velocities))) <= 1e-14


@pytest.mark.parametrize("seed", [1, 2])
def test_integrate_hamiltonian_commutes_with_left_translation(seed):
    # (q0, xi0) -> (g q0, g xi0) keeps the body costate conj(q0) xi0, so the RK4
    # run is the same up to rounding; the costate carries a gauge component.
    # Worst gaps measured: 9.2e-15 in q, 1.0e-14 in xi relative to |xi0|
    for g, q0, params, T, h, rng in _cases(seed):
        xi0 = match_costate(q0, params) + rng.uniform(-1.0, 1.0) * q0
        moved = integrate_hamiltonian(qmul(g, q0), qmul(g, xi0), T, h)
        traj = integrate_hamiltonian(q0, xi0, T, h)
        assert np.max(np.abs(moved.q - qmul(g, traj.q))) <= 1e-13
        assert np.max(np.abs(moved.xi - qmul(g, traj.xi))) <= 1e-13 * np.linalg.norm(xi0)


@pytest.mark.parametrize("seed", [1, 2])
def test_geodesic_point_moves_with_the_T_flow(seed):
    # q e^{j alpha} turns the frame by 2 alpha: geodesic_point(q0 e^{j alpha},
    # (r, theta0 + 2 alpha, lambda), s) = geodesic_point(q0, (r, theta0, lambda), s) e^{j alpha}.
    # Worst gap measured: 1.1e-15
    for _, q0, params, T, _, rng in _cases(seed):
        alpha = rng.uniform(-8.0, 8.0)
        s = np.linspace(0.0, T, 257)
        turned = params._replace(theta0=params.theta0 + 2.0 * alpha)
        moved = geodesic_point(qmul(q0, _e_j(alpha)), turned, s)
        assert np.max(np.abs(moved - qmul(geodesic_point(q0, params, s), _e_j(alpha)))) <= 1e-14


def test_the_T_flow_turns_theta0_forward():
    # with theta0 - 2 alpha the two sides differ at order one, so the sign is pinned
    q0, params, alpha, s = np.array([1.0, 0.0, 0.0, 0.0]), GeodesicParams(1.0, 0.3, 0.5), 0.4, np.linspace(0.0, 3.0, 31)
    wrong = geodesic_point(qmul(q0, _e_j(alpha)), params._replace(theta0=params.theta0 - 2.0 * alpha), s)
    assert np.max(np.abs(wrong - qmul(geodesic_point(q0, params, s), _e_j(alpha)))) > 0.1


def _shoot_cases(seed, n=40):
    """n seeded (P, Q, g, alpha), the points uniform on S^3 and alpha in [-8, 8]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield random_unit(rng), random_unit(rng), random_unit(rng), rng.uniform(-8.0, 8.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_shoot_moves_with_left_translation_and_the_T_flow(seed):
    # conj(g P) g Q = conj(P) Q, so the length T is the same for (g P, g Q); the
    # T-flow conjugates conj(P) Q by e^{j alpha}, which keeps T and lambda and
    # turns theta0 by 2 alpha.  Random pairs lie off the vertical circle, where
    # theta0 is free.  Worst gaps measured: 1.1e-15 and 8.9e-16 in T, 1.8e-15 in
    # theta0 (mod 2 pi) and 6.7e-16 in lambda
    cheap = ShootingConfig(curve_step=0.5)  # T and params come before the curve
    for P, Q, g, alpha in _shoot_cases(seed):
        res = shoot(P, Q, cheap)
        assert res.meta["case"] == "generic"
        assert abs(shoot(qmul(g, P), qmul(g, Q), cheap).T - res.T) <= 1e-14
        turned = shoot(qmul(P, _e_j(alpha)), qmul(Q, _e_j(alpha)), cheap)
        assert abs(turned.T - res.T) <= 1e-14
        assert abs(turned.params.lam - res.params.lam) <= 1e-14
        turn = turned.params.theta0 - res.params.theta0 - 2.0 * alpha
        assert abs((turn + np.pi) % (2.0 * np.pi) - np.pi) <= 2e-14


def _point_cases(seed, n=40):
    """n seeded (q, g, alpha): 64 points q and g uniform on S^3, alpha in [-8, 8]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield random_unit(rng, 64), random_unit(rng), rng.uniform(-8.0, 8.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_frame_moves_with_left_translation_and_the_T_flow(seed):
    # X = -q i, Y = -q k, T = -q j and N = q, so frame_at(g q) is g times frame_at(q),
    # and at q e^{j alpha}, since e^{j alpha} i = cos(alpha) i - sin(alpha) k, the
    # frame turns by alpha: X' = cos X - sin Y, Y' = sin X + cos Y, T' = cos T + sin N
    # and N' = cos N - sin T, all read at q.  Worst gaps measured over 200 cases:
    # 2.2e-16 under left translation, 0.0 under the T-flow
    for q, g, alpha in _point_cases(seed):
        frame = frame_at(q)
        for moved, row in zip(frame_at(qmul(g, q)), frame):
            assert np.max(np.abs(moved - qmul(g, row))) <= 2e-15
        X, Y, T, N = frame
        c, s = np.cos(alpha), np.sin(alpha)
        turned = frame_at(qmul(q, _e_j(alpha)))
        for moved, row in zip(turned, (c * X - s * Y, s * X + c * Y, c * T + s * N, c * N - s * T)):
            assert np.max(np.abs(moved - row)) <= 1e-15


def test_the_T_flow_turns_the_frame_forward():
    # with X' = cos X + sin Y some row misses by order one, so the sign is pinned
    q, alpha = random_unit(np.random.default_rng(3), 64), 0.4
    X, Y, _, _ = frame_at(q)
    wrong = np.cos(alpha) * X + np.sin(alpha) * Y
    assert np.max(np.abs(frame_at(qmul(q, _e_j(alpha))).X - wrong)) > 0.5


@pytest.mark.parametrize("seed", [1, 2])
def test_connect_stays_horizontal_under_left_translation_and_the_T_flow(seed):
    # The curve itself is not equivariant: connect(g P, g Q) is not g times
    # connect(P, Q), nor is the route choice, because the chart and its gauges
    # are fixed.  What holds for every pair is what connect promises: both
    # endpoints to 1e-8 and an analytic omega(v) at rounding level.  Worst
    # over 200 cases: endpoint gap 4.5e-15, |omega(v)| 1.1e-15 max(1, |v|)
    routes = set()
    for q, g, alpha in _point_cases(seed):
        P, Q = q[:2]
        for p_moved, q_moved in ((qmul(g, P), qmul(g, Q)), (qmul(P, _e_j(alpha)), qmul(Q, _e_j(alpha)))):
            c = connect(p_moved, q_moved, n=128)
            routes.add(c.meta["route"])
            assert np.linalg.norm(c.points[0] - p_moved) <= 1e-8
            assert np.linalg.norm(c.points[-1] - q_moved) <= 1e-8
            speed = np.linalg.norm(c.velocities, axis=1)
            assert np.all(np.abs(omega_eval(c.points, c.velocities)) <= 1e-14 * np.maximum(1.0, speed))
    assert {"chart", "two-arc"} <= routes


# each bound is about ten times the worst gap measured over the 40 files of
# test_check_reads_a_moved_geodesic_file_as_the_original, 6 of which FAIL a row
_ROW_GAPS = {"unit-norm": 2e-15, "horizontality": 7e-13, "velocity-energy": 4e-12,
             "acceleration-T": 3e-9, "angle-linearity": 6e-13}


def _check_lines(path, tol, capsys):
    """check's exit code and its lines as (verdict, row, value), with the reason for value on SKIP lines."""
    code = main(["check", str(path), f"--tol={tol}"])
    lines = [line.split(maxsplit=2) for line in capsys.readouterr().out.splitlines()]
    return code, [(v, row, rest if v == "SKIP" else float(rest.split()[0].split("=")[1])) for v, row, rest in lines]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_check_reads_a_moved_geodesic_file_as_the_original(seed, tmp_path, capsys):
    # The point columns of a geodesic file are moved to g q or q e^{j alpha}.
    # check reads the a, b columns only through a^2 + b^2 and the header only
    # through lambda, and both actions keep those and the distribution, so the
    # verdicts match and each row moves by rounding.  Worst gaps measured:
    # 2.8e-10 acceleration-T, 3.9e-13 velocity-energy, 6.6e-14 horizontality,
    # 6.0e-14 angle-linearity, 2.2e-16 unit-norm
    rng = np.random.default_rng(seed)
    out, moved_out = tmp_path / "geo.csv", tmp_path / "moved.csv"
    for _ in range(8):
        q0 = ",".join(repr(v) for v in random_unit(rng).tolist())
        r, theta0 = rng.uniform(0.0, 2.0), rng.uniform(-np.pi, np.pi)
        lam, T = rng.uniform(-8.0, 8.0), rng.uniform(0.0, 5.0)
        step, tol = rng.choice(["0.001", "0.01"]), rng.choice(["1e-4", "1e-6"])
        assert main(["geodesic", f"--q0={q0}", f"--r={r!r}", f"--theta0={theta0!r}", f"--lambda={lam!r}",
                     f"--T={T!r}", "--step", step, "--out", str(out)]) == 0
        capsys.readouterr()
        code, lines = _check_lines(out, tol, capsys)
        g, alpha = random_unit(rng), rng.uniform(-8.0, 8.0)
        for move in (lambda p: qmul(g, p), lambda p: qmul(p, _e_j(alpha))):
            rec = CurveRecord.from_csv(out)
            rec.data[:, 1:5] = move(rec.data[:, 1:5])
            rec.to_csv(moved_out)
            moved_code, moved_lines = _check_lines(moved_out, tol, capsys)
            assert moved_code == code
            assert [line[:2] for line in moved_lines] == [line[:2] for line in lines]
            for (verdict, row, value), (_, _, moved_value) in zip(lines, moved_lines):
                if verdict == "SKIP":
                    assert moved_value == value
                else:
                    assert abs(moved_value - value) <= _ROW_GAPS[row], row
