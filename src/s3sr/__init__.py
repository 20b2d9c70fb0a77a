"""Sub-Riemannian geometry on the unit-quaternion 3-sphere.

Quaternion algebra, the left-invariant frame {X, Y, T, N}, horizontal
curves with ω(γ') = 0, the geodesic flow of the horizontal metric, and
a two-point shooting solver, plus a CLI for scripted experiments.
"""

from .charts import (
    EulerAngles,
    chart_velocity,
    euler_ab,
    from_cartesian,
    horizontality_residual_euler,
    omega_euler,
    to_cartesian,
)
from .connect import (
    ConstructionError,
    connect,
    connect_constant_psi,
)
from .curves import SampledCurve, fd_velocities, omega_fd_residuals
from .frames import (
    I1,
    I2,
    I3,
    U,
    Frame,
    FrameComponents,
    LinearField,
    bracket,
    components,
    frame_ab,
    frame_at,
    is_horizontal,
    omega_eval,
)
from .geodesics import (
    GeodesicParams,
    HamiltonianTrajectory,
    ab_profile,
    acceleration_T_residual,
    angle_profile,
    geodesic_point,
    integrate_geodesic,
    integrate_hamiltonian,
    match_costate,
    verify_velocity_energy,
)
from .io import CurveRecord
from .quaternions import (
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    conj,
    inverse,
    norm,
    norm2,
    normalize,
    qexp_pure,
    qmul,
)
from .shooting import ShootingConfig, ShootingResult, shoot

__version__ = "0.1.0"
