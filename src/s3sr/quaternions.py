"""Quaternion algebra for the unit 3-sphere group.

Components are stored in the order (w, x, y, z) for w + x*i + y*j + z*k.
The sphere code reads the same four numbers as coordinates
(x1, x2, y1, y2), so a point of S^3 is simply a unit quaternion.

All operations but check_unit, which checks a single point, broadcast
over a trailing axis of length 4, so they work on single quaternions of
shape (4,) as well as on stacks (n, 4).

Sums over a short last axis, here and in frames, curves and geodesics,
go through _row_sum: np.sum(x, axis=-1) bit for bit, a column at a time.
frames.frame_ab and frames.omega_eval add their terms in the same order.

The multiplication table is written once, in _product: qmul applies
it to array columns, _mul_floats and _conj_mul_floats to Python floats.
The matrices of right multiplication by 1, i, j, k (frames.I1-I3
among them) are derived from qmul when the module is imported.
is_unit and check_unit accept a deviation | |q|^2 - 1 | up to
UNIT_TOL, read when they are called.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QUAT_ONE",
    "QUAT_I",
    "QUAT_J",
    "QUAT_K",
    "UNIT_TOL",
    "qmul",
    "conj",
    "norm2",
    "norm",
    "normalize",
    "qexp_pure",
    "is_unit",
    "check_unit",
]

QUAT_ONE = np.array([1.0, 0.0, 0.0, 0.0])
QUAT_I = np.array([0.0, 1.0, 0.0, 0.0])
QUAT_J = np.array([0.0, 0.0, 1.0, 0.0])
QUAT_K = np.array([0.0, 0.0, 0.0, 1.0])

# tolerance for treating a quaternion as a point of the sphere
UNIT_TOL = 1e-8

# below this norm the exponential switches to its series limit
_EXP_TAYLOR_CUT = 1e-8


def qmul(p, q):
    """Quaternion product p*q.

    Bilinear, total; the product of unit quaternions is unit to
    rounding error.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(_product(pw, px, py, pz, qw, qx, qy, qz), axis=-1)


def _product(pw, px, py, pz, qw, qx, qy, qz):
    """The components (w, x, y, z) of p*q: the multiplication table, on Python floats or array columns alike."""
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy + py * qw + pz * qx - px * qz,
        pw * qz + pz * qw + px * qy - py * qx,
    )


def conj(q):
    """Conjugate: negate the i, j, k components."""
    q = np.asarray(q)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def _row_sum(x):
    """np.sum(x, axis=-1) for a last axis of length 3 or 4, bit for bit.

    numpy sums such an axis one row at a time, from +0.0 and in column
    order; adding whole columns in that order gives the same floats,
    signs of zero, infinities and NaNs included (the + 0 is that +0.0
    start, and keeps integer input integer as np.sum does).
    """
    total = x[..., 0] + 0
    for m in range(1, x.shape[-1]):
        total += x[..., m]
    return total


def norm2(q):
    """Squared modulus w^2 + x^2 + y^2 + z^2."""
    q = np.asarray(q)
    return _row_sum(q * q)


def norm(q):
    """Modulus."""
    return np.sqrt(norm2(q))


def normalize(q):
    """Rescale to unit modulus. Raises ValueError on zero input."""
    q = np.asarray(q, dtype=float)
    n = norm(q)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize the zero quaternion")
    return q / n[..., np.newaxis]


def qexp_pure(v):
    """Exponential of the pure quaternion v1*i + v2*j + v3*k.

    Returns cos|v| + sin|v|/|v| * (v1*i + v2*j + v3*k); for |v| below
    _EXP_TAYLOR_CUT the sine factor collapses to 1 and the result is
    (1, v) up to rounding.  Output is unit to ~1e-16.
    """
    v = np.asarray(v, dtype=float)
    n = np.sqrt(_row_sum(v * v))
    small = n < _EXP_TAYLOR_CUT
    n_safe = np.where(small, 1.0, n)
    fac = np.where(small, 1.0, np.sin(n_safe) / n_safe)
    return np.concatenate(
        [np.asarray(np.cos(n))[..., np.newaxis], np.asarray(fac)[..., np.newaxis] * v],
        axis=-1,
    )


def is_unit(q):
    """True when | |q|^2 - 1 | <= UNIT_TOL, row by row for stacked q."""
    return bool(np.all(np.abs(norm2(q) - 1.0) <= UNIT_TOL))


def check_unit(q, what="quaternion"):
    """One point of the sphere as a float array of shape (4,).

    |q|^2 is summed on Python floats in norm2's order.  Any other shape,
    a deviation | |q|^2 - 1 | above UNIT_TOL and a NaN or infinite
    component raise ValueError naming what.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"{what} must be one quaternion of shape (4,), got shape {q.shape}")
    w, x, y, z = q.tolist()
    dev = abs(w * w + x * x + y * y + z * z - 1.0)
    if not dev <= UNIT_TOL:  # NaN fails too
        raise ValueError(f"{what} is not unit: | |q|^2 - 1 | = {dev:.3e} > {UNIT_TOL:.1e}")
    return q


def _mul_floats(p, q):
    """p * q for two (4,) arrays, as Python floats equal bit for bit to qmul(p, q)."""
    return _product(*p.tolist(), *q.tolist())


def _conj_mul_floats(p, q):
    """conj(p) * q for two (4,) arrays, as Python floats equal bit for bit to qmul(conj(p), q) on finite input."""
    pw, px, py, pz = p.tolist()
    return _product(pw, -px, -py, -pz, *q.tolist())


# q @ M = q * e for the basis e = 1, i, j, k (row-vector convention): row
# r of M is basis element r times e, so the table is qmul's
_RIGHT_MATRICES = tuple(qmul(np.eye(4), e) for e in (QUAT_ONE, QUAT_I, QUAT_J, QUAT_K))

