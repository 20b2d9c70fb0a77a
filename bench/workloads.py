"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload hands out its inputs in whole passes (a block of pairs, a
ladder of horizons, a CLI session) generated from the seed before any of
them is timed; the program only receives them.  ``run`` performs one
operation and ``check`` judges its output against the test suite's own
tolerances.  An operation that raises, exits with an unexpected code or
returns output outside tolerance is a failure; only the last kind is also
a wrong result.

The benchmark's own inputs are built with plain numpy (the chart map is
re-derived here), so input generation never calls the program.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import s3sr

CONNECT_SAMPLES = 256
ENDPOINT_TOL = 1e-8         # connect endpoints, as in c04
OMEGA_TOL = 1e-8            # analytic horizontality of connect velocities
SHOOT_TOL = 1e-6            # shooting convergence, as in c09
GAP_TOL = 1e-10             # integrated curve against geodesic_point, as in c08
HAM_GAP_TOL = 1e-8          # Hamiltonian trajectory against geodesic_point, as in c07
NORM_DRIFT_TOL = 1e-12      # | |q| - 1 |, as in c06
H_DRIFT_TOL = 1e-9          # Hamiltonian energy drift, as in c07
FRAME_TOL = 1e-12           # orthonormality of the printed frame
GEODESIC_STEP = 1e-3
CLI_TIMEOUT_S = 150


@dataclass
class Outcome:
    failed: bool = False
    wrong: bool = False
    detail: str = ""
    accuracy: dict = field(default_factory=dict)

    def require(self, ok, detail, wrong=True):
        if not ok:
            self.failed = True
            self.wrong = self.wrong or wrong
            self.detail = self.detail or detail


def unit(rng):
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


def chart_point(phi, psi, theta):
    """The angle chart of s3sr.charts, written out independently."""
    alpha, beta = 0.5 * (phi + psi), 0.5 * (phi - psi)
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    return np.array([np.cos(alpha) * c, np.sin(alpha) * c, np.cos(beta) * s, np.sin(beta) * s])


def chart_phi(q):
    x1, x2, y1, y2 = q
    return float(np.arctan2(x2, x1) + np.arctan2(y2, y1))


def omega(points, velocities):
    """omega = x1 dy1 - y1 dx1 + x2 dy2 - y2 dx2, applied row by row."""
    x1, x2, y1, y2 = points.T
    vx1, vx2, vy1, vy2 = velocities.T
    return x1 * vy1 - y1 * vx1 + x2 * vy2 - y2 * vx2


def norm_drift(points):
    return float(np.max(np.abs(np.linalg.norm(points, axis=-1) - 1.0)))


def read_curve_csv(path):
    """(s, points) of a curve CSV written by the CLI, read with plain numpy."""
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return rows[:, 0], rows[:, 1:5]


def omega_fd(s, points):
    """Worst |omega| on finite-difference velocities: central inside, one-sided at the ends."""
    v = np.empty_like(points)
    v[1:-1] = (points[2:] - points[:-2]) / (s[2:] - s[:-2])[:, None]
    v[0] = (points[1] - points[0]) / (s[1] - s[0])
    v[-1] = (points[-1] - points[-2]) / (s[-1] - s[-2])
    return float(np.max(np.abs(omega(points, v))))


# ---------------------------------------------------------------------------


def check_connect(P, Q, curve):
    """Endpoints within 1e-8 and analytic |omega(v)| <= 1e-8 on the returned velocities."""
    out = Outcome()
    endpoint = max(float(np.linalg.norm(curve.points[0] - P)), float(np.linalg.norm(curve.points[-1] - Q)))
    residual = float(np.max(np.abs(omega(curve.points, curve.velocities))))
    out.accuracy = {
        "endpoint_err": endpoint,
        "omega_fd": omega_fd(curve.s, curve.points),
        "norm_drift": norm_drift(curve.points),
    }
    out.require(endpoint <= ENDPOINT_TOL, f"endpoint error {endpoint:.3e}")
    out.require(residual <= OMEGA_TOL, f"analytic omega {residual:.3e}")
    return out


# ---------------------------------------------------------------------------


class Workload:
    in_process = True

    def warm_up(self):
        """Untimed calls that let lazy set-up finish; counted in setup_s."""

    def collect(self, tracer):
        """Merge spans recorded outside this process, after the timed call."""


class ConnectPairs(Workload):
    """connect(P, Q, n=256) on seeded pairs, one in ten of them degenerate."""

    name = "connect_pairs"
    DEGENERATE = ("pole", "antipodal", "coincident", "k0")
    DEGENERATE_EVERY = 10

    def __init__(self, seed, smoke, paths):
        self.rng = np.random.default_rng(seed)
        self.block = self.DEGENERATE_EVERY * (1 if smoke else len(self.DEGENERATE))
        self.count = 0

    def info(self):
        return {
            "samples": CONNECT_SAMPLES,
            "pairs_per_pass": self.block,
            "degenerate_share": 1.0 / self.DEGENERATE_EVERY,
            "degenerate_kinds": list(self.DEGENERATE),
        }

    def _pair(self):
        rng, i = self.rng, self.count
        self.count += 1
        P = unit(rng)
        if i % self.DEGENERATE_EVERY != self.DEGENERATE_EVERY - 1:
            return ("uniform", P, unit(rng))
        kind = self.DEGENERATE[(i // self.DEGENERATE_EVERY) % len(self.DEGENERATE)]
        if kind == "pole":
            gap = 10.0 ** rng.uniform(-12.0, -3.0)
            theta = gap if rng.random() < 0.5 else np.pi - gap
            Q = chart_point(rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-np.pi, np.pi), theta)
        elif kind == "antipodal":
            Q = -P
        elif kind == "coincident":
            Q = P.copy()
        else:  # azimuth gap k of 1e-12 .. 1e-7 in the untranslated chart
            k = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -7.0)
            Q = chart_point(chart_phi(P) + k, rng.uniform(-np.pi, np.pi), rng.uniform(0.1, np.pi - 0.1))
        return (kind, P, Q)

    def passes(self):
        while True:
            yield [self._pair() for _ in range(self.block)]

    def warm_up(self):
        s3sr.connect(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]), n=CONNECT_SAMPLES)

    def kind(self, op):
        return op[0]

    def run(self, op, tracer):
        return s3sr.connect(op[1], op[2], n=CONNECT_SAMPLES)

    def check(self, op, curve):
        return check_connect(op[1], op[2], curve)


# ---------------------------------------------------------------------------


class GeodesicFlow(Workload):
    """Both integrators and the verification operators on seeded (q0, theta0, lambda)."""

    name = "geodesic_flow"
    HORIZONS = (2.0, 5.0, 10.0)
    SMOKE_HORIZONS = (0.2, 0.5, 1.0)
    LAMBDA_MAX = 1.0

    def __init__(self, seed, smoke, paths):
        self.rng = np.random.default_rng(seed)
        self.horizons = self.SMOKE_HORIZONS if smoke else self.HORIZONS

    def info(self):
        return {
            "h": GEODESIC_STEP,
            "horizons_per_pass": list(self.horizons),
            "horizon_range": [min(self.horizons), max(self.horizons)],
            "lambda_range": [-self.LAMBDA_MAX, self.LAMBDA_MAX],
        }

    def passes(self):
        rng = self.rng
        while True:
            yield [
                (unit(rng), s3sr.GeodesicParams(1.0, rng.uniform(0.0, 2.0 * np.pi),
                                                rng.uniform(-self.LAMBDA_MAX, self.LAMBDA_MAX)), T)
                for T in self.horizons
            ]

    def warm_up(self):
        q0 = np.array([1.0, 0.0, 0.0, 0.0])
        self.run((q0, s3sr.GeodesicParams(1.0, 0.3, 0.5), 0.05), None)

    def kind(self, op):
        return f"T={op[2]:g}"

    def run(self, op, tracer):
        q0, params, T = op
        curve = s3sr.integrate_geodesic(q0, params, T, GEODESIC_STEP)
        traj = s3sr.integrate_hamiltonian(q0, s3sr.match_costate(q0, params), T, GEODESIC_STEP)
        raised = []
        for verify in (s3sr.verify_velocity_energy, s3sr.acceleration_T_residual, s3sr.angle_profile):
            try:
                verify(curve)
            except ValueError as exc:
                raised.append(f"{verify.__name__}: {exc}")
        return curve, traj, raised

    def check(self, op, result):
        q0, params, T = op
        curve, traj, raised = result
        exact = s3sr.geodesic_point(q0, params, curve.s)
        gap = max(float(np.max(np.abs(curve.points - exact))), float(np.max(np.abs(traj.q - exact))))
        drift = max(norm_drift(curve.points), norm_drift(traj.q))
        energy = traj.energy()
        h_drift = float(np.max(np.abs(energy - energy[0])))
        out = Outcome(accuracy={"endpoint_err": gap, "norm_drift": drift, "h_drift": h_drift})
        out.require(not raised, "; ".join(raised), wrong=False)
        out.require(gap <= GAP_TOL, f"gap to geodesic_point {gap:.3e}")
        out.require(drift <= NORM_DRIFT_TOL, f"norm drift {drift:.3e}")
        out.require(h_drift <= H_DRIFT_TOL, f"H drift {h_drift:.3e}")
        return out


# ---------------------------------------------------------------------------


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


def _fields(stdout):
    """key=value lines of a CLI report."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            out[key] = value
    return out


@dataclass
class CliOp:
    command: str
    argv: list
    out: Path | None = None
    params: tuple = ()


class CliSession(Workload):
    """Fresh `python -m s3sr.cli` processes running the README's command mix."""

    name = "cli_session"
    in_process = False
    GEODESIC_T = 6.28
    HAMILTONIAN_T = 5.0
    SHOOT_FROM = np.array([1.0, 0.0, 0.0, 0.0])
    SHOOT_TO = np.array([0.0, 0.0, 1.0, 0.0])
    SHOOT_SEED = 7

    def __init__(self, seed, smoke, paths):
        self.rng = np.random.default_rng(seed)
        self.workdir = paths.workdir
        self.tracer_script = paths.tracer_script
        self.dump = paths.workdir / "trace.json"
        self.env = paths.env
        self.sessions = 0

    def info(self):
        return {
            "commands_per_session": ["frames", "connect", "geodesic", "hamiltonian", "check", "shoot", "shoot"],
            "geodesic_T": self.GEODESIC_T,
            "hamiltonian_T": self.HAMILTONIAN_T,
            "shoot": {"from": self.SHOOT_FROM.tolist(), "to": self.SHOOT_TO.tolist(), "seed": self.SHOOT_SEED},
        }

    def passes(self):
        rng = self.rng
        while True:
            d = self.workdir / f"session{self.sessions}"
            d.mkdir(parents=True, exist_ok=True)
            self.sessions += 1
            at, p, q, g0, h0 = (unit(rng) for _ in range(5))
            g_th, g_lam = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0)
            h_th, h_lam = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.0, 1.0)
            geo = d / "geodesic.csv"
            shoot = [f"--from={_fmt(self.SHOOT_FROM)}", f"--to={_fmt(self.SHOOT_TO)}", f"--seed={self.SHOOT_SEED}"]
            yield [
                CliOp("frames", [f"--at={_fmt(at)}"], params=(at,)),
                CliOp("connect", [f"--from={_fmt(p)}", f"--to={_fmt(q)}"], d / "connect.csv", (p, q)),
                CliOp("geodesic", [f"--q0={_fmt(g0)}", f"--theta0={g_th!r}", f"--lambda={g_lam!r}",
                                   f"--T={self.GEODESIC_T!r}"], geo, (g0, g_th, g_lam)),
                CliOp("hamiltonian", [f"--q0={_fmt(h0)}", f"--theta0={h_th!r}", f"--lambda={h_lam!r}",
                                      f"--T={self.HAMILTONIAN_T!r}"], d / "hamiltonian.csv", (h0, h_th, h_lam)),
                CliOp("check", [str(geo)]),
                CliOp("shoot", shoot, d / "shoot_a.csv", (self.SHOOT_FROM, self.SHOOT_TO, None)),
                CliOp("shoot", shoot, d / "shoot_b.csv", (self.SHOOT_FROM, self.SHOOT_TO, d / "shoot_a.csv")),
            ]

    def kind(self, op):
        return op.command

    def run(self, op, tracer):
        argv = [op.command, *op.argv] + ([f"--out={op.out}"] if op.out else [])
        if tracer is None:
            cmd = [sys.executable, "-m", "s3sr.cli", *argv]
        else:
            cmd = [sys.executable, str(self.tracer_script), str(self.dump), *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=self.workdir, timeout=CLI_TIMEOUT_S)

    def collect(self, tracer):
        if self.dump.exists():
            tracer.merge(json.loads(self.dump.read_text()))
            self.dump.unlink()

    def check(self, op, proc):
        out = Outcome()
        if proc.returncode != 0:
            out.require(False, f"{op.command} exited {proc.returncode}: {proc.stderr.strip()[-200:]}", wrong=False)
            return out
        fields = _fields(proc.stdout)
        try:
            getattr(self, f"_check_{op.command}")(op, proc.stdout, fields, out)
        except (KeyError, ValueError, OSError) as exc:
            out.require(False, f"{op.command}: unreadable output ({exc})")
        return out

    def _check_frames(self, op, stdout, fields, out):
        m = np.array([[float(v) for v in fields[k].split(",")] for k in "XYTN"])
        dev = float(np.max(np.abs(m @ m.T - np.eye(4))))
        base = float(np.max(np.abs(m[3] - op.params[0])))
        out.require(dev <= FRAME_TOL and base <= FRAME_TOL, f"frame off by {max(dev, base):.3e}")
        out.require("euler" in stdout, "no chart line")

    def _check_connect(self, op, stdout, fields, out):
        # The file holds no velocities, so the curve is rebuilt in this
        # process from the same endpoints, its points must match the file's,
        # and the analytic horizontality check runs on its velocities.
        P, Q = op.params
        s, points = read_curve_csv(op.out)
        curve = s3sr.connect(P, Q, n=CONNECT_SAMPLES)
        rebuilt = check_connect(P, Q, curve)
        endpoint = max(float(np.linalg.norm(points[0] - P)), float(np.linalg.norm(points[-1] - Q)))
        out.accuracy = {"endpoint_err": endpoint, "omega_fd": omega_fd(s, points), "norm_drift": norm_drift(points)}
        out.require(endpoint <= ENDPOINT_TOL, f"file endpoint error {endpoint:.3e}")
        same = points.shape == curve.points.shape and float(np.max(np.abs(points - curve.points))) <= 1e-12
        out.require(same, "file differs from the curve connect returns")
        out.require(not rebuilt.failed, rebuilt.detail)
        out.require(float(fields["endpoint_error"]) <= ENDPOINT_TOL, "printed endpoint error above tolerance")

    def _check_geodesic(self, op, stdout, fields, out):
        q0, th, lam = op.params
        params = s3sr.GeodesicParams(1.0, th, lam)
        s, points = read_curve_csv(op.out)
        end = np.array([float(v) for v in fields["endpoint"].split(",")])
        gap = max(float(np.max(np.abs(points - s3sr.geodesic_point(q0, params, s)))),
                  float(np.max(np.abs(end - s3sr.geodesic_point(q0, params, self.GEODESIC_T)))))
        drift = norm_drift(points)
        out.accuracy = {"endpoint_err": gap, "norm_drift": drift}
        out.require(gap <= GAP_TOL, f"gap to geodesic_point {gap:.3e}")
        out.require(drift <= NORM_DRIFT_TOL, f"norm drift {drift:.3e}")
        out.require(abs(s[-1] - self.GEODESIC_T) <= 1e-12, f"file ends at s={s[-1]!r}")

    def _check_hamiltonian(self, op, stdout, fields, out):
        # the costate is not in the file, so H is only known from stdout; the
        # stored trajectory is checked against the closed form it must follow
        q0, th, lam = op.params
        s, points = read_curve_csv(op.out)
        gap = float(np.max(np.abs(points - s3sr.geodesic_point(q0, s3sr.GeodesicParams(1.0, th, lam), s))))
        drift, h_drift = norm_drift(points), float(fields["H_drift"])
        out.accuracy = {"endpoint_err": gap, "h_drift": h_drift, "norm_drift": drift}
        out.require(gap <= HAM_GAP_TOL, f"gap to geodesic_point {gap:.3e}")
        out.require(drift <= NORM_DRIFT_TOL, f"norm drift {drift:.3e}")
        out.require(h_drift <= H_DRIFT_TOL, f"printed H drift {h_drift:.3e}")
        out.require(abs(s[-1] - self.HAMILTONIAN_T) <= 1e-12, f"file ends at s={s[-1]!r}")

    def _check_check(self, op, stdout, fields, out):
        lines = stdout.splitlines()
        out.require("PASS" in stdout and not any(line.startswith("FAIL") for line in lines),
                    "check reported a failure")

    def _check_shoot(self, op, stdout, fields, out):
        P, Q, first = op.params
        s, points = read_curve_csv(op.out)
        params = s3sr.GeodesicParams(1.0, float(fields["theta0"]), float(fields["lambda"]))
        reached = s3sr.geodesic_point(P, params, float(fields["T"]))
        err = max(float(np.linalg.norm(points[0] - P)), float(np.linalg.norm(points[-1] - Q)),
                  float(np.linalg.norm(reached - Q)))
        out.accuracy = {"endpoint_err": err, "norm_drift": norm_drift(points)}
        out.require(fields["converged"] == "True" and err <= SHOOT_TOL, f"not converged, error {err:.3e}")
        if first is not None:
            out.require(op.out.read_bytes() == first.read_bytes(), "seeded shoot CSV not byte-identical")


WORKLOADS = {w.name: w for w in (ConnectPairs, GeodesicFlow, CliSession)}
