"""The small value types: constructors, defaults, checks and equality."""

import math

import numpy as np
import pytest

from conftest import _loaded_by_fresh_import
from s3sr.charts import EulerAngles
from s3sr.curves import SampledCurve
from s3sr.geodesics import GeodesicParams
from s3sr.io import CurveRecord
from s3sr.shooting import ShootingConfig


def test_sampled_curve_checks_its_shapes_and_grid():
    s = np.linspace(0.0, 1.0, 3)
    pts = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    with pytest.raises(ValueError, match="points must have shape"):
        SampledCurve(s, pts[:2])
    with pytest.raises(ValueError, match="velocities must match points"):
        SampledCurve(s, pts, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="non-decreasing"):
        SampledCurve(s[::-1], pts)
    curve = SampledCurve([0, 1, 1], pts.tolist(), [[0, 0, 0, 0]] * 3)
    assert curve.s.dtype == curve.points.dtype == curve.velocities.dtype == float
    assert SampledCurve(0.0, pts[0]).points.shape == (1, 4)


def test_sampled_curve_shapes_single_samples_as_atleast_nd_does():
    # scalar s and (4,) points or velocities are one sample, shaped as np.atleast_1d and np.atleast_2d shape them
    q, v = [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]
    curve = SampledCurve(0.5, q, v)
    assert curve.s.shape == (1,) and curve.points.shape == curve.velocities.shape == (1, 4)
    for s, pts, vel in ((0.5, q, v), (0.5, [q], [v]), ([0.5], q, [v]), (np.float64(0.5), np.array(q), None)):
        curve = SampledCurve(s, pts, vel)
        assert curve.s.shape == np.atleast_1d(s).shape and curve.points.shape == np.atleast_2d(pts).shape
        assert vel is None or curve.velocities.shape == np.atleast_2d(vel).shape
    with pytest.raises(ValueError, match=r"^velocities must match points in shape$"):
        SampledCurve(0.5, q, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match=r"^velocities must match points in shape$"):
        SampledCurve([0.0, 1.0], [q, q], v)
    with pytest.raises(ValueError, match=r"^points must have shape \(len\(s\), 4\)$"):
        SampledCurve(0.5, [q, q])
    with pytest.raises(ValueError, match=r"^points must have shape \(len\(s\), 4\)$"):
        SampledCurve(0.5, 1.0)


def test_sampled_curve_meta_is_its_own_dict():
    pts = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
    a, b = SampledCurve([0.0, 1.0], pts), SampledCurve([0.0, 1.0], pts)
    assert a.meta == {} and a.velocities is None
    a.meta["tag"] = "x"
    assert b.meta == {}
    meta = {"tag": "y"}
    assert SampledCurve([0.0, 1.0], pts, None, meta).meta is meta


def test_curve_record_needs_eight_columns():
    with pytest.raises(ValueError, match="needs 8 columns"):
        CurveRecord({}, np.zeros((3, 7)))
    assert CurveRecord({}, np.arange(8.0)).data.shape == (1, 8)


def test_shooting_config_defaults():
    cfg = ShootingConfig()
    assert ShootingConfig._fields == ("tol", "curve_step")
    assert (cfg.tol, cfg.curve_step) == (1e-6, 1e-3)
    assert ShootingConfig(curve_step=0.5).tol == 1e-6


def test_euler_angles_pole_and_half_angles():
    e = EulerAngles(0.75, 0.25, 1.0)
    assert e.pole is None
    assert (0.5 * (e.phi + e.psi), 0.5 * (e.phi - e.psi)) == (0.5, 0.25)
    assert EulerAngles(0.0, 0.0, 0.0, pole="theta=0").pole == "theta=0"


@pytest.mark.parametrize("build", [
    lambda: GeodesicParams(-1.0, 0.0, 0.0),
    lambda: GeodesicParams(1.0, math.nan, 0.0),
    lambda: GeodesicParams(r=1.0, theta0=0.0, lam=math.inf),
], ids=["negative-r", "nan-theta0", "inf-lam"])
def test_geodesic_params_rejects_bad_values(build):
    with pytest.raises(ValueError):
        build()


def test_geodesic_params_make_and_replace_check_too():
    p = GeodesicParams(1.0, 0.3, 0.5)
    assert p._replace(lam=0.6) == GeodesicParams._make([1.0, 0.3, 0.6]) == GeodesicParams(1.0, 0.3, 0.6)
    with pytest.raises(ValueError, match="finite"):
        GeodesicParams._make([1.0, 0.0, math.nan])
    with pytest.raises(ValueError, match="non-negative"):
        p._replace(r=-0.5)


def test_geodesic_params_equality_and_immutability():
    p = GeodesicParams(1.0, 0.3, 0.5)
    assert p == GeodesicParams(1.0, 0.3, 0.5) and p != GeodesicParams(1.0, 0.3, 0.6)
    with pytest.raises(AttributeError):
        p.r = 2.0


def test_cli_and_package_load_no_dataclasses():
    assert not _loaded_by_fresh_import("dataclasses", "import s3sr.cli")
    assert not _loaded_by_fresh_import("dataclasses", "from s3sr import *")
