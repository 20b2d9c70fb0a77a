"""Quaternion algebra for the unit 3-sphere group.

Components are stored in the order (w, x, y, z) for w + x*i + y*j + z*k.
The sphere code reads the same four numbers as coordinates
(x1, x2, y1, y2), so a point of S^3 is simply a unit quaternion.

All operations broadcast over a trailing axis of length 4, so they work
on single quaternions of shape (4,) as well as on stacks (n, 4).
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
    "inverse",
    "normalize",
    "qexp_pure",
    "is_unit",
    "check_unit",
]

QUAT_ONE = np.array([1.0, 0.0, 0.0, 0.0])
QUAT_I = np.array([0.0, 1.0, 0.0, 0.0])
QUAT_J = np.array([0.0, 0.0, 1.0, 0.0])
QUAT_K = np.array([0.0, 0.0, 0.0, 1.0])

# default tolerance for treating a quaternion as a point of the sphere
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
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy + py * qw + pz * qx - px * qz,
            pw * qz + pz * qw + px * qy - py * qx,
        ],
        axis=-1,
    )


def conj(q):
    """Conjugate: negate the i, j, k components."""
    q = np.asarray(q)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def norm2(q):
    """Squared modulus w^2 + x^2 + y^2 + z^2."""
    q = np.asarray(q)
    return np.sum(q * q, axis=-1)


def norm(q):
    """Modulus."""
    return np.sqrt(norm2(q))


def inverse(q):
    """Multiplicative inverse conj(q)/|q|^2.

    Raises ValueError on (numerically) zero input.
    """
    q = np.asarray(q, dtype=float)
    n2 = norm2(q)
    if np.any(n2 == 0.0):
        raise ValueError("zero quaternion has no inverse")
    return conj(q) / n2[..., np.newaxis]


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
    1e-8 the sine factor collapses to 1 and the result is (1, v) up to
    rounding.  Output is unit to ~1e-16.
    """
    v = np.asarray(v, dtype=float)
    n = np.sqrt(np.sum(v * v, axis=-1))
    small = n < _EXP_TAYLOR_CUT
    n_safe = np.where(small, 1.0, n)
    fac = np.where(small, 1.0, np.sin(n_safe) / n_safe)
    w = np.cos(n)
    return np.concatenate(
        [np.asarray(w)[..., np.newaxis], np.asarray(fac)[..., np.newaxis] * v],
        axis=-1,
    )


def is_unit(q, tol=UNIT_TOL):
    """True when | |q|^2 - 1 | <= tol."""
    return bool(np.all(np.abs(norm2(q) - 1.0) <= tol))


def check_unit(q, tol=UNIT_TOL, what="quaternion"):
    """Raise ValueError unless q is unit to the given tolerance."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != 4:
        raise ValueError(f"{what} must have 4 components, got shape {q.shape}")
    dev = np.max(np.abs(norm2(q) - 1.0))
    if dev > tol:
        raise ValueError(f"{what} is not unit: | |q|^2 - 1 | = {dev:.3e} > {tol:.1e}")
    return q
