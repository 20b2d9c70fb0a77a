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
qmul below.  Each is skew-orthogonal with Im @ Im = -eye(4).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .quaternions import QUAT_I, QUAT_J, QUAT_K, UNIT_TOL, is_unit, norm2, qmul

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

# q @ I1 = q*i, q @ I2 = q*j, q @ I3 = q*k (row-vector convention): row r
# of each is basis element r times i, j or k, so the table is qmul's
I1, I2, I3 = (qmul(np.eye(4), e) for e in (QUAT_I, QUAT_J, QUAT_K))


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
    velocities; the third component <v, T> is -omega_eval(points, v).
    X = (x, -w, -z, y) and Y = (z, -y, x, -w) at p = (w, x, y, z) pair with v by columns in
    _row_sum's order, from its +0.0 start, so an infinite point component spreads only through
    the terms it enters: frame_ab([inf, 0, 0, 0], [0, 1, 0, 0]) is (-inf, NaN).
    """
    p = np.asarray(points, dtype=float)
    v = np.asarray(velocities, dtype=float)
    w, x, y, z = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    v0, v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    a = v0 * x
    a += 0.0
    a -= v1 * w
    a -= v2 * z
    a += v3 * y
    b = v0 * z
    b += 0.0
    b -= v1 * y
    b += v2 * x
    b -= v3 * w
    return a, b


def omega_eval(q, v):
    """The one-form omega = x1 dy1 - y1 dx1 + x2 dy2 - y2 dx2 applied to v, row by row.

    Computed as -<v, T>, T = (y1, y2, -x1, -x2), with its terms in _row_sum's
    column order: -np.sum(v * T, axis=-1) up to the sign of a zero.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    x1, x2, y1, y2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx1, vx2, vy1, vy2 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    return -(vx1 * y1 + vx2 * y2 - vy1 * x1 - vy2 * x2)


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
