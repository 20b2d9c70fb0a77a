"""Sub-Riemannian geometry on the unit-quaternion 3-sphere.

Quaternion algebra, the left-invariant frame {X, Y, T, N}, horizontal
curves with ω(γ') = 0, the geodesic flow of the horizontal metric, and
a two-point shooting solver, plus a CLI for scripted experiments.

The package loads lazily (PEP 562): `import s3sr` loads neither numpy
nor a submodule.  Each public name, read as `s3sr.X` or imported with
`from s3sr import X`, loads its submodule on first use.
"""

import importlib
import sys

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "charts": "EulerAngles chart_velocity from_cartesian omega_euler to_cartesian",
    "connect": "ConstructionError connect connect_constant_psi",
    "curves": "SampledCurve fd_velocities omega_fd_residuals",
    "frames": "I1 I2 I3 Frame LinearField bracket frame_ab frame_at omega_eval",
    "geodesics": "GeodesicParams HamiltonianTrajectory ab_profile acceleration_T_residual angle_profile "
    "geodesic_point integrate_geodesic integrate_hamiltonian match_costate verify_velocity_energy",
    "io": "CurveRecord",
    "quaternions": "QUAT_I QUAT_J QUAT_K QUAT_ONE conj norm norm2 normalize qexp_pure qmul",
    "shooting": "ShootingConfig ShootingResult shoot",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        globals()[name] = value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    """Binds the function `connect`, not its submodule, when `s3sr.connect` is imported."""

    def __setattr__(self, name, value):
        if isinstance(value, type(sys)) and _SOURCE.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
