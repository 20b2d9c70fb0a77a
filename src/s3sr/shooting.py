"""Two-point geodesic boundary-value solver.

Finds unit-speed geodesic data (theta0, lambda, T) steering the flow
from P to Q by multi-start Levenberg-Marquardt least squares on the
chordal endpoint gap.  Start points come from a deterministic grid
(optionally jittered by the seeded generator); candidates are polished
in order of raw residual and the solver is deterministic given inputs
and seed.  The ranking and each polish evaluate the closed-form geodesic
point, and the polish its analytic Jacobian in (theta0, lambda, T), on
Python floats; the returned curve is produced by the reference
integrator and the endpoint error is re-measured on it, so the two
routes cross-check each run.

Negative-duration iterates are folded back with the reversal symmetry
(theta0, lam, T) -> (theta0 + pi, -lam, -T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import SampledCurve
from .geodesics import GeodesicParams, _unit_endpoint, integrate_geodesic
from .quaternions import check_unit

__all__ = ["ShootingConfig", "ShootingResult", "shoot"]


@dataclass(frozen=True)
class ShootingConfig:
    tol: float = 1e-6
    n_theta0: int = 8
    n_lambda: int = 9
    n_T: int = 6
    lambda_max: float = 8.0
    T_max: float = 2.0 * np.pi
    max_iter: int = 60
    seed: int = 0
    jitter: float = 0.05        # start-grid jitter, in units of the grid spacing
    polish_limit: int = 40      # LM polishes before giving up early
    curve_step: float = 1e-3    # step of the returned integrator curve


@dataclass
class ShootingResult:
    params: GeodesicParams
    T: float
    endpoint_error: float
    curve: SampledCurve
    starts_tried: int = 0
    converged: bool = False
    meta: dict = field(default_factory=dict)


def _start_grid(cfg: ShootingConfig):
    """Deterministic (theta0, lam, T) starts, T-major ascending."""
    thetas = np.linspace(0.0, 2.0 * np.pi, cfg.n_theta0, endpoint=False)
    lams = np.linspace(-cfg.lambda_max, cfg.lambda_max, cfg.n_lambda)
    Ts = np.linspace(cfg.T_max / cfg.n_T, cfg.T_max, cfg.n_T)
    starts = np.array([[th, lam, T] for T in Ts for lam in lams for th in thetas])
    if cfg.jitter > 0.0:
        rng = np.random.default_rng(cfg.seed)
        spacing = np.array(
            [
                2.0 * np.pi / cfg.n_theta0,
                2.0 * cfg.lambda_max / max(cfg.n_lambda - 1, 1),
                cfg.T_max / cfg.n_T,
            ]
        )
        starts = starts + cfg.jitter * spacing * rng.standard_normal(starts.shape)
        starts[:, 2] = np.abs(starts[:, 2])
    return starts


def _fold(x):
    """Map T < 0 iterates to the equivalent forward-time parameters."""
    th, lam, T = x
    if T < 0.0:
        th, lam, T = th + np.pi, -lam, -T
    return float(th) % (2.0 * np.pi), float(lam), float(T)


def shoot(P, Q, cfg: ShootingConfig | None = None) -> ShootingResult:
    """Find a unit-speed geodesic from P hitting Q.

    Never raises on non-convergence: the best candidate is returned
    with converged=False and its achieved endpoint error.  Among
    candidates meeting the tolerance the shortest duration wins, with
    remaining ties broken by start index, so results are reproducible.
    """
    # imported here, not at module level: scipy.optimize takes most of
    # `import s3sr`, and only the polishes below need it
    from scipy.optimize import least_squares

    cfg = cfg or ShootingConfig()
    P = check_unit(np.asarray(P, dtype=float), what="shoot start")
    Q = check_unit(np.asarray(Q, dtype=float), what="shoot target")

    if float(np.linalg.norm(P - Q)) < 1e-12:
        params = GeodesicParams(1.0, 0.0, 0.0)
        curve = integrate_geodesic(P, params, 0.0, cfg.curve_step)
        err = float(np.linalg.norm(curve.end - Q))
        return ShootingResult(params, 0.0, err, curve, 0, True, {"trivial": True})

    P_f = P.tolist()

    def residual(x):
        return np.subtract(_unit_endpoint(P_f, *map(float, x)), Q)

    def jacobian(x):
        return np.transpose(_unit_endpoint(P_f, *map(float, x), jacobian=True)[1])

    starts = _start_grid(cfg)
    raw = [math.dist(_unit_endpoint(P_f, *x), Q) for x in starts.tolist()]
    order = np.argsort(raw, kind="stable")

    candidates = []  # (theta0, lam, T, error, start_index)

    def polish(idx):
        res = least_squares(
            residual,
            starts[idx],
            jac=jacobian,
            method="lm",
            # with a callable jac every scipy version counts residual
            # calls only, about one per LM iteration
            max_nfev=cfg.max_iter * 2,
        )
        th, lam, T = _fold(res.x)
        err = float(np.linalg.norm(residual((th, lam, T))))
        candidates.append((th, lam, T, err, int(idx)))
        return err

    tried = 0
    for idx in order[: cfg.polish_limit]:
        polish(idx)
        tried += 1
    if not any(c[3] <= cfg.tol for c in candidates):
        for idx in order[cfg.polish_limit :]:
            err = polish(idx)
            tried += 1
            if err <= cfg.tol:
                break

    hits = [c for c in candidates if c[3] <= cfg.tol]
    if hits:
        th, lam, T, err, idx = min(hits, key=lambda c: (c[2], c[3], c[4]))
    else:
        th, lam, T, err, idx = min(candidates, key=lambda c: (c[3], c[4]))

    params = GeodesicParams(1.0, th, lam)
    curve = integrate_geodesic(P, params, T, cfg.curve_step)
    endpoint_error = float(np.linalg.norm(curve.end - Q))
    return ShootingResult(
        params=params,
        T=T,
        endpoint_error=endpoint_error,
        curve=curve,
        starts_tried=tried,
        converged=bool(endpoint_error <= cfg.tol),
        meta={"optimizer_error": err, "best_start": idx},
    )
