"""Spans and counters recorded around calls into the s3sr modules.

The tracer lives in the benchmark, not in the program: :meth:`Tracer.install`
replaces the public functions named in :data:`TARGETS` with wrappers, in the
module that defines each one and in every s3sr module that imported it, so
calls between modules are timed too.  A wrapper records a span (name, start,
end, parent span, operation id) and adds to per-name totals: calls, total
time, self time (duration minus the time of its child spans) and counters
such as rows, steps or bytes.  Spans are kept in memory up to a cap and
written out once, at the end of the run.

A target whose module or attribute is gone is listed in ``absent`` and its
metrics read 0; nothing raises.  When ``active`` is false the wrappers only
forward the call, so the benchmark's own output checks are not traced.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

SPAN_CAP = 100_000

# residual norm at which an LM polish counts as useful; the shooting tolerance
LM_USEFUL_TOL = 1e-6


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0.0) + float(value)


def _rows(stat, result, args, kwargs):
    stat.add("rows", getattr(result, "size", 4) // 4)


def _route(stat, result, args, kwargs):
    route = result.meta.get("route")
    stat.add({"chart": "chart", "two-arc": "two_arc"}.get(route, "other"), 1)


def _curve_steps(stat, result, args, kwargs):
    stat.add("steps", result.n - 1)


def _traj_steps(stat, result, args, kwargs):
    stat.add("steps", len(result.s) - 1)


def _lm(stat, result, args, kwargs):
    stat.add("nfev", result.nfev)
    norm = sum(float(f) ** 2 for f in result.fun) ** 0.5
    stat.add("useful", norm <= LM_USEFUL_TOL)


def _file_bytes(stat, result, args, kwargs):
    # CurveRecord.write(self, path, fmt) and CurveRecord.read(cls, path)
    stat.add("bytes", os.path.getsize(args[1]))


# (span name, defining module, attribute, counter hook); a dotted attribute
# names a method of a class in that module
TARGETS = [
    ("quaternions.qmul", "s3sr.quaternions", "qmul", _rows),
    ("quaternions.qexp_pure", "s3sr.quaternions", "qexp_pure", _rows),
    ("frames.frame_at", "s3sr.frames", "frame_at", None),
    ("frames.components", "s3sr.frames", "components", None),
    ("charts.from_cartesian", "s3sr.charts", "from_cartesian", None),
    ("curves.omega_fd_residuals", "s3sr.curves", "omega_fd_residuals", None),
    ("connect.connect", "s3sr.connect", "connect", _route),
    ("connect.ode", "s3sr.connect", "solve_ivp", None),
    ("geodesics.geodesic_point", "s3sr.geodesics", "geodesic_point", None),
    ("geodesics.integrate_geodesic", "s3sr.geodesics", "integrate_geodesic", _curve_steps),
    ("geodesics.integrate_hamiltonian", "s3sr.geodesics", "integrate_hamiltonian", _traj_steps),
    ("geodesics.verify", "s3sr.geodesics", "verify_velocity_energy", None),
    ("geodesics.verify", "s3sr.geodesics", "acceleration_T_residual", None),
    ("geodesics.verify", "s3sr.geodesics", "angle_profile", None),
    ("shooting.shoot", "s3sr.shooting", "shoot", None),
    ("shooting.lm", "s3sr.shooting", "least_squares", _lm),
    ("io.write", "s3sr.io", "CurveRecord.write", _file_bytes),
    ("io.read", "s3sr.io", "CurveRecord.read", _file_bytes),
    ("io.from_curve", "s3sr.io", "CurveRecord.from_curve", None),
]


class Tracer:
    def __init__(self, span_cap=SPAN_CAP):
        self.active = False
        self.span_cap = span_cap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index, op id]
        self.dropped = 0
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, name, start, child time]
        self._op = -1

    # -- recording --------------------------------------------------------

    def _enter(self, name):
        start = time.perf_counter()
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.spans) < self.span_cap:
            nid = self._name_ids.setdefault(name, len(self._name_ids))
            if nid == len(self.names):
                self.names.append(name)
            index = len(self.spans)
            self.spans.append([nid, start, None, parent, self._op])
        else:
            index = -1
            self.dropped += 1
        self._stack.append([index, name, start, 0.0])

    def _exit(self, error=False):
        end = time.perf_counter()
        index, name, start, child = self._stack.pop()
        duration = end - start
        stat = self.stats.setdefault(name, Stat())
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - child
        stat.errors += error
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self.spans[index][2] = end
        return stat

    def begin_op(self, op_id, name="op"):
        """Open the root span of one benchmark operation."""
        self._op = op_id
        self.active = True
        self._enter(name)

    def end_op(self):
        self._exit()
        self.active = False

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(error=True)
                raise
            stat = self._exit()
            if hook is not None:
                hook(stat, result, args, kwargs)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target that exists in the imported s3sr modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "s3sr" or n.startswith("s3sr.")]
        for name, modname, attr, hook in TARGETS:
            label = f"{modname}.{attr}"
            module = sys.modules.get(modname)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name, None)
                raw = vars(owner).get(method) if owner is not None else None
                if raw is None:
                    self.absent.append(label)
                elif isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(self.wrap(name, raw.__func__, hook)))
                else:
                    setattr(owner, method, self.wrap(name, raw, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(label)
                continue
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- merging and output -----------------------------------------------

    def dump(self):
        return {
            "names": self.names,
            "spans": self.spans,
            "dropped": self.dropped,
            "absent": self.absent,
            "stats": {k: vars(v) for k, v in self.stats.items()},
        }

    def merge(self, other):
        """Add a child process's dump, its spans under the open span."""
        parent = self._stack[-1][0] if self._stack else -1
        for name, raw in other["stats"].items():
            stat = self.stats.setdefault(name, Stat())
            stat.calls += raw["calls"]
            stat.total_s += raw["total_s"]
            stat.self_s += raw["self_s"]
            stat.errors += raw["errors"]
            for key, value in raw["counts"].items():
                stat.add(key, value)
        for label in other["absent"]:
            if label not in self.absent:
                self.absent.append(label)
        offset = len(self.spans)
        self.dropped += other["dropped"]
        for nid, start, end, par, _ in other["spans"]:
            if len(self.spans) >= self.span_cap:
                self.dropped += 1
                continue
            name = other["names"][nid]
            own = self._name_ids.setdefault(name, len(self._name_ids))
            if own == len(self.names):
                self.names.append(name)
            self.spans.append([own, start, end, parent if par < 0 else par + offset, self._op])

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, n_ops: int, time_scale: float = 1.0) -> dict:
    """Per-operation layer figures from a traced run (0 where never called).

    Self times are multiplied by ``time_scale``, the host-speed factor.
    """

    def stat(name):
        return tracer.stats.get(name, Stat())

    def per_op(value):
        return value / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in (
        "connect.connect",
        "connect.ode",
        "charts.from_cartesian",
        "curves.omega_fd_residuals",
        "shooting.shoot",
        "shooting.lm",
        "geodesics.geodesic_point",
        "geodesics.integrate_geodesic",
        "geodesics.integrate_hamiltonian",
        "geodesics.verify",
        "quaternions.qmul",
        "quaternions.qexp_pure",
        "io.write",
        "io.read",
        "io.from_curve",
    ):
        out[f"{name}.self_s"] = per_op(stat(name).self_s) * time_scale
    for name in (
        "connect.ode",
        "charts.from_cartesian",
        "curves.omega_fd_residuals",
        "shooting.lm",
        "geodesics.geodesic_point",
        "frames.frame_at",
        "frames.components",
        "quaternions.qmul",
        "quaternions.qexp_pure",
        "io.write",
        "io.read",
    ):
        out[f"{name}.calls"] = per_op(stat(name).calls)
    for name in ("quaternions.qmul", "quaternions.qexp_pure"):
        out[f"{name}.rows"] = ratio(stat(name).counts.get("rows", 0.0), stat(name).calls)
    for name in ("geodesics.integrate_geodesic", "geodesics.integrate_hamiltonian"):
        out[f"{name}.steps"] = per_op(stat(name).counts.get("steps", 0.0))
    for name in ("io.write", "io.read"):
        out[f"{name}.bytes"] = per_op(stat(name).counts.get("bytes", 0.0))

    routes = stat("connect.connect")
    for key in ("chart", "two_arc", "other"):
        out[f"connect.route.{key}_frac"] = ratio(routes.counts.get(key, 0.0), routes.calls)
    # chart routes taken per ODE solve; a connect that took chart routes
    # without any ODE solve wasted none, so it reads 1, not 0
    ode_calls = stat("connect.ode").calls
    charts = routes.counts.get("chart", 0.0)
    out["connect.ode.useful_ratio"] = ratio(charts, ode_calls) if ode_calls else float(charts > 0)
    lm = stat("shooting.lm")
    out["shooting.lm.nfev"] = per_op(lm.counts.get("nfev", 0.0))
    out["shooting.lm.useful_ratio"] = ratio(lm.counts.get("useful", 0.0), lm.calls)
    out["geodesics.verify.failures"] = per_op(stat("geodesics.verify").errors)
    return out
