"""Left-invariant orthonormal frame on the unit 3-sphere.

At a point q the frame is

    X = -q*i,   Y = -q*k,   T = -q*j,   N = q

(right quaternion multiplication), or in coordinates (x1, x2, y1, y2):

    X = (x2, -x1, -y2,  y1)
    Y = (y2, -y1,  x2, -x1)
    T = (y1,  y2, -x1, -x2)

The horizontal distribution is span{X, Y}; T is the missing direction
produced by the bracket [X, Y] = 2T, and the one-form

    omega = x1 dy1 - y1 dx1 + x2 dy2 - y2 dx2

vanishes exactly on horizontal vectors (omega(T) = -1).

I1, I2, I3 are the 4x4 matrices of right multiplication by i, j, k
acting on row vectors: q @ I1 == qmul(q, i) and so on, derived from
qmul when quaternions is imported.  Each is skew-orthogonal with
Im @ Im = -eye(4).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .quaternions import _RIGHT_MATRICES, UNIT_TOL, _row_sum, is_unit, norm2

__all__ = [
    "I1",
    "I2",
    "I3",
    "Frame",
    "LinearField",
    "X_FIELD",
    "Y_FIELD",
    "T_FIELD",
    "frame_at",
    "frame_ab",
    "omega_eval",
    "bracket",
]

# q @ I1 = q*i, q @ I2 = q*j, q @ I3 = q*k  (row-vector convention)
_, I1, I2, I3 = _RIGHT_MATRICES


class Frame(NamedTuple):
    X: np.ndarray
    Y: np.ndarray
    T: np.ndarray
    N: np.ndarray


def frame_at(q):
    """Orthonormal frame (X, Y, T, N) at a unit point q, or row by row at stacked points.

    A point with | |q|^2 - 1 | above UNIT_TOL, or with a NaN component,
    raises ValueError.  Off the sphere, X_FIELD, Y_FIELD and T_FIELD
    still evaluate.
    """
    q = np.asarray(q, dtype=float)
    if not is_unit(q):
        dev = np.max(np.abs(norm2(q) - 1.0))
        raise ValueError(f"frame base point q is not unit: max | |q|^2 - 1 | = {dev:.3e} > {UNIT_TOL:.1e}")
    return Frame(X=-(q @ I1), Y=-(q @ I3), T=-(q @ I2), N=q.copy())


def frame_ab(points, velocities):
    """Horizontal frame components (a, b) = (<v, X>, <v, Y>), row by row.

    No tangency check: this is the bare pairing on stacked points and
    velocities, and the third component <v, T> is -omega_eval(q, v).
    The frame vectors come from BLAS products p @ I*, which decide the
    signs of their zeros.
    """
    p = np.asarray(points, dtype=float)
    v = np.asarray(velocities, dtype=float)
    return _row_sum(v * (-(p @ I1))), _row_sum(v * (-(p @ I3)))


def _t_component(v, q):
    """<v, T> = v0 y + v1 z - v2 w - v3 x from the components v = (v0, .., v3) and q = (w, x, y, z).

    v and q are (4, ...) blocks, one component to a row, and T = -(q j) = (y, z, -w, -x).
    The terms are added in _row_sum's column order, so the sum is np.sum(v * T, axis=0)
    up to the sign of a zero.
    """
    return v[0] * q[2] + v[1] * q[3] - v[2] * q[0] - v[3] * q[1]


def omega_eval(q, v):
    """The one-form omega = x1 dy1 - y1 dx1 + x2 dy2 - y2 dx2 applied to v."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    x1, x2, y1, y2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx1, vx2, vy1, vy2 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    return x1 * vy1 - y1 * vx1 + x2 * vy2 - y2 * vx2


class LinearField(NamedTuple):
    """Vector field of the form q -> q @ matrix (linear in q)."""

    matrix: np.ndarray

    def __call__(self, q):
        return np.asarray(q, dtype=float) @ self.matrix


X_FIELD = LinearField(-I1)
Y_FIELD = LinearField(-I3)
T_FIELD = LinearField(-I2)

_FIELDS = {"X": X_FIELD, "Y": Y_FIELD, "T": T_FIELD}


def _as_field(f) -> LinearField:
    if isinstance(f, LinearField):
        return f
    try:
        return _FIELDS[f]
    except (KeyError, TypeError):
        raise ValueError(f"unsupported field {f!r}; expected 'X', 'Y', 'T' or a LinearField") from None


def bracket(field_u, field_v) -> LinearField:
    """Commutator [U, V] of two linear fields, computed exactly.

    For fields q -> q@A and q -> q@B the bracket is q -> q@(AB - BA).
    """
    a = _as_field(field_u).matrix
    b = _as_field(field_v).matrix
    return LinearField(a @ b - b @ a)
