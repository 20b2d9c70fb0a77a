"""Command-line front end.

Subcommands: connect, geodesic, hamiltonian, shoot, check, frames.
Exit codes: 0 success, 2 usage or parse error, 3 construction failure,
4 shooting did not converge (the best-effort curve is still written).

Run as `python -m s3sr.cli`, the cyclic garbage collector stays off while
the modules load and is kept off their objects afterwards; see `run`, which
the installed `s3sr` script also calls.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # what the imports below create lives until exit, so collecting it is wasted work
    gc.disable()

import argparse
import math
import re
import sys

import numpy as np

from .curves import SampledCurve, unit_norm_error
from .frames import frame_at
from .geodesics import (
    _UNIT_NORM_TOL,
    GeodesicParams,
    check_rows,
    integrate_geodesic,
    integrate_hamiltonian,
    match_costate,
)
from .io import COLUMNS, CurveRecord
from .quaternions import norm, normalize

# charts, connect and shooting are imported by the commands that use them, so the others start faster

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_NO_CONVERGENCE = 4


def _floats(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"could not parse {text!r} as comma-separated reals")
    if not all(np.isfinite(values)):
        raise ValueError(f"non-finite value in {text!r}")
    return values


def _parse_endpoint(text: str):
    """Either 'phi,psi,theta' angles or a 'w,x,y,z' quaternion."""
    values = _floats(text)
    if len(values) == 3:
        from .charts import EulerAngles, to_cartesian
        return to_cartesian(EulerAngles(*values))
    if len(values) == 4:
        return _sanitize_point(np.array(values))
    raise ValueError(f"expected 3 angles or 4 quaternion components, got {len(values)}")


def _sanitize_point(q: np.ndarray) -> np.ndarray:
    """Unit-norm policy: tiny drift accepted, moderate drift normalized."""
    dev = abs(float(norm(q)) - 1.0)
    if dev <= 1e-12:
        return q
    if dev <= 1e-8:
        return normalize(q)
    if dev <= 1e-3:
        print(f"warning: input renormalized, | |q| - 1 | = {dev:.3e}", file=sys.stderr)
        return normalize(q)
    raise ValueError(f"input is not a unit quaternion: | |q| - 1 | = {dev:.3e}")


def _parse_q0(text: str) -> np.ndarray:
    """The --q0 quaternion: four components, then the unit-norm policy."""
    values = _floats(text)
    if len(values) != 4:
        raise ValueError("--q0 needs 4 components")
    return _sanitize_point(np.array(values))


def _write_record(curve: SampledCurve, args, **extra) -> str:
    out = args.out or f"{args.command}.{args.format}"
    CurveRecord.from_curve(curve, **extra).write(out, args.format)
    return out


# ---------------------------------------------------------------------------


def _cmd_connect(args) -> int:
    from .connect import ConstructionError, connect
    p = _parse_endpoint(getattr(args, "from"))
    q = _parse_endpoint(args.to)
    try:
        curve = connect(p, q, n=args.samples)
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    out = _write_record(curve, args)
    print(f"endpoint_error={curve.meta['endpoint_error']:.17g}")
    print(f"max_omega_residual={curve.meta['max_omega_fd']:.17g}")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_geodesic(args) -> int:
    q0 = _parse_q0(args.q0)
    params = GeodesicParams(args.r, args.theta0, getattr(args, "lambda"))
    curve = integrate_geodesic(q0, params, args.T, args.step)
    out = _write_record(curve, args)
    end = curve.end
    print("endpoint=" + ",".join(format(v, ".17g") for v in end))
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_hamiltonian(args) -> int:
    q0 = _parse_q0(args.q0)
    params = GeodesicParams(args.r, args.theta0, getattr(args, "lambda"))
    # integrate_hamiltonian checks the count of --xi0
    xi0 = _floats(args.xi0) if args.xi0 else match_costate(q0, params)
    traj = integrate_hamiltonian(q0, xi0, args.T, args.step)
    meta = traj.meta
    if not args.xi0:
        # r, theta0 and lambda are written for check's angle-linearity row
        meta.update({"r": params.r, "theta0": params.theta0, "lambda": params.lam})
    curve = SampledCurve(traj.s, traj.q, traj.qdot(), meta)
    out = _write_record(curve, args)
    energy = traj.energy()
    print(f"H_drift={float(np.max(np.abs(energy - energy[0]))):.17g}")
    norm_drift = unit_norm_error(curve)
    print(f"norm_drift={norm_drift:.17g}")
    print(f"wrote {out}")
    if norm_drift > _UNIT_NORM_TOL:  # RK4 truncation, which a smaller step shrinks
        print(f"warning: norm_drift {norm_drift:.1e} exceeds check's unit-norm bound "
              f"{_UNIT_NORM_TOL:.0e}; rerun with a smaller --step", file=sys.stderr)
    return EXIT_OK


def _cmd_shoot(args) -> int:
    from .shooting import ShootingConfig, shoot
    p = _parse_endpoint(getattr(args, "from"))
    q = _parse_endpoint(args.to)
    result = shoot(p, q, ShootingConfig(tol=args.tol, curve_step=args.step))
    out = _write_record(result.curve, args, endpoint_error=result.endpoint_error)
    print(f"theta0={result.params.theta0:.17g}")
    print(f"lambda={result.params.lam:.17g}")
    print(f"T={result.T:.17g}")
    print(f"endpoint_error={result.endpoint_error:.17g}")
    print(f"converged={result.converged}")
    print(f"wrote {out}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_check(args) -> int:
    record = CurveRecord.read(args.file)
    ab = [record.data[:, COLUMNS.index(name)] for name in "ab"]
    lam = record.header.get("lambda") if record.header.get("tag") in ("geodesic", "hamiltonian") else None
    rows, skips = check_rows(record.to_sampled_curve(), ab, lam, args.tol)
    for skip in skips:
        print(f"SKIP {skip}")
    for name, value, bound in rows:
        print(f"{'PASS' if value <= bound else 'FAIL'} {name} max_residual={value:.6e} tol={bound:.1e}")
    return EXIT_OK if all(value <= bound for _, value, bound in rows) else 1


def _cmd_frames(args) -> int:
    from .charts import from_cartesian
    q = _parse_endpoint(args.at)
    f = frame_at(q)
    for name, vec in zip("XYTN", f):
        print(f"{name}=" + ",".join(format(v, ".17g") for v in vec))
    e = from_cartesian(q)
    print(f"euler phi={e.phi:.17g} psi={e.psi:.17g} theta={e.theta:.17g} pole={e.pole}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s3sr",
        description="Horizontal curves and geodesics on the unit-quaternion sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=False, step=False):
        p.add_argument("--out", default=None, help="output file (default <command>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if samples:
            p.add_argument("--samples", type=int, default=256)
        if step:
            p.add_argument("--step", type=float, default=1e-3)

    p = sub.add_parser("connect", help="horizontal curve between two points")
    p.add_argument("--from", required=True, help="phi,psi,theta or w,x,y,z")
    p.add_argument("--to", required=True)
    common(p, samples=True)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("geodesic", help="integrate a geodesic from initial data")
    p.add_argument("--q0", required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--lambda", type=float, default=0.0)
    p.add_argument("--T", type=float, required=True)
    common(p, step=True)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("hamiltonian", help="integrate the Hamiltonian flow")
    p.add_argument("--q0", required=True)
    p.add_argument("--xi0", default=None, help="explicit costate (else matched from r,theta0,lambda)")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--lambda", type=float, default=0.0)
    p.add_argument("--T", type=float, required=True)
    common(p, step=True)
    p.set_defaults(func=_cmd_hamiltonian)

    p = sub.add_parser("shoot", help="solve the two-point geodesic problem")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored: the solver is exact")
    common(p, step=True)
    p.set_defaults(func=_cmd_shoot)

    p = sub.add_parser("check", help="validate a curve file")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("frames", help="print the frame at a point")
    p.add_argument("--at", required=True)
    p.set_defaults(func=_cmd_frames)

    return parser


def _check_options(args):
    """Reject --tol or --step that is not finite and > 0, and --samples below 2."""
    opts = vars(args)
    for name in ("tol", "step"):
        if name in opts and not (math.isfinite(opts[name]) and opts[name] > 0.0):
            raise ValueError(f"--{name} must be finite and > 0, got {opts[name]}")
    if opts.get("samples", 2) < 2:
        raise ValueError(f"--samples must be at least 2, got {opts['samples']}")


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads "--to -1,0,0,0" as --to without its value: join a negative number to its option
    for k in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--[^=]+", argv[k - 1]) and re.match(r"-[\d.]", argv[k]):
            argv[k - 1 : k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_options(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> int:
    """Process entry point: `main()` without collections over the import-time heap.

    The first `gc.freeze()` moves every object alive after the imports into
    the permanent generation, and collection is enabled again: cycles made by
    the command are still freed, but no collection walks that heap.  The last
    freeze spares interpreter shutdown its full collections over it.
    `main()` itself leaves the collector as it finds it.

    Under `python -m s3sr.cli` the collector is also off while the modules
    load.  The installed `s3sr` script imports this module by name, so it
    gets the two freezes but not that import phase.
    """
    gc.freeze()
    gc.enable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
