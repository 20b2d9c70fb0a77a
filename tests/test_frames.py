import numpy as np
import pytest

from s3sr.frames import (
    I1,
    I2,
    I3,
    T_FIELD,
    X_FIELD,
    Y_FIELD,
    bracket,
    frame_ab,
    frame_at,
    omega_eval,
)
from s3sr.quaternions import QUAT_I, QUAT_J, QUAT_K, qmul
from conftest import random_unit


def test_structure_matrices_are_right_multiplication(rng):
    q = rng.standard_normal(4)
    assert np.allclose(q @ I1, qmul(q, QUAT_I), atol=1e-15)
    assert np.allclose(q @ I2, qmul(q, QUAT_J), atol=1e-15)
    assert np.allclose(q @ I3, qmul(q, QUAT_K), atol=1e-15)


def test_structure_matrices_are_the_coordinate_formulas():
    # row r of q -> q @ M is the formula at the basis row e_r; the formulas are
    # those of the frames docstring, with q @ I1 = -X, q @ I3 = -Y, q @ I2 = -T
    formulas = (
        (I1, lambda x1, x2, y1, y2: (x2, -x1, -y2, y1)),
        (I3, lambda x1, x2, y1, y2: (y2, -y1, x2, -x1)),
        (I2, lambda x1, x2, y1, y2: (y1, y2, -x1, -x2)),
    )
    for m, formula in formulas:
        assert m.shape == (4, 4) and m.dtype == float
        assert np.array_equal(m, -np.array([formula(*e) for e in np.eye(4)]))
        # the zeros are +0.0, so the BLAS products q @ M sign their zeros as before
        assert not np.signbit(m[m == 0.0]).any()


def test_structure_matrices_orthogonal_square_minus_identity():
    for m in (I1, I2, I3):
        assert np.max(np.abs(m @ m.T - np.eye(4))) <= 1e-14
        assert np.max(np.abs(m @ m + np.eye(4))) <= 1e-14


def test_frame_at_identity():
    f = frame_at([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(f.X, [0, -1, 0, 0], atol=0)
    assert np.allclose(f.Y, [0, 0, 0, -1], atol=0)
    assert np.allclose(f.T, [0, 0, -1, 0], atol=0)
    assert np.allclose(f.N, [1, 0, 0, 0], atol=0)


def test_frame_matches_quaternion_products(rng):
    # coordinate formulas against -q*i, -q*k, -q*j computed by qmul
    for q in [np.array([0.0, 1.0, 0.0, 0.0]), random_unit(rng), random_unit(rng)]:
        f = frame_at(q)
        assert np.max(np.abs(f.X - (-qmul(q, QUAT_I)))) <= 1e-15
        assert np.max(np.abs(f.Y - (-qmul(q, QUAT_K)))) <= 1e-15
        assert np.max(np.abs(f.T - (-qmul(q, QUAT_J)))) <= 1e-15


def test_frame_orthonormal(rng):
    qs = random_unit(rng, 1000)
    worst = 0.0
    for q in qs:
        m = np.stack(frame_at(q))
        worst = max(worst, float(np.max(np.abs(m @ m.T - np.eye(4)))))
    assert worst <= 1e-12


def test_frame_rejects_nonunit():
    with pytest.raises(ValueError):
        frame_at([1.0, 1.0, 0.0, 0.0])


def test_frame_at_stacked_points_and_a_nan_row(rng):
    qs = random_unit(rng, 5)
    f = frame_at(qs)
    for n, q in enumerate(qs):
        assert all(np.array_equal(stacked[n], single) for stacked, single in zip(f, frame_at(q)))
    qs[2, 1] = np.nan
    with pytest.raises(ValueError, match="frame base point q is not unit"):
        frame_at(qs)


def _components(q, v):
    """(a, b, c) = (<v, X>, <v, Y>, <v, T>): frame_ab and c = -omega(v)."""
    a, b = frame_ab(q, v)
    return float(a), float(b), -float(omega_eval(q, v))


def test_components_examples(rng):
    q = random_unit(rng)
    f = frame_at(q)
    assert np.allclose(_components(q, f.X), (1.0, 0.0, 0.0), atol=1e-14)
    assert np.allclose(_components(q, 2.0 * f.X + 3.0 * f.Y), (2.0, 3.0, 0.0), atol=1e-13)
    # Parseval over the orthonormal frame
    coeff = rng.standard_normal(3)
    v = coeff[0] * f.X + coeff[1] * f.Y + coeff[2] * f.T
    a, b, c = _components(q, v)
    assert abs(a * a + b * b + c * c - float(v @ v)) <= 1e-12
    # reconstruction
    assert np.max(np.abs(a * f.X + b * f.Y + c * f.T - v)) <= 1e-12


def test_frame_ab_matches_components(rng):
    q = random_unit(rng, 20)
    v = rng.standard_normal((20, 4))
    v -= np.sum(v * q, axis=1)[:, None] * q  # tangent
    a, b = frame_ab(q, v)
    # per point, the inner products with the frame vectors
    ref = np.array([(vi @ frame_at(qi).X, vi @ frame_at(qi).Y) for qi, vi in zip(q, v)])
    assert np.max(np.abs(a - ref[:, 0])) <= 1e-15
    assert np.max(np.abs(b - ref[:, 1])) <= 1e-15
    a1, b1 = frame_ab(q[0], v[0])
    assert a1 == a[0] and b1 == b[0]


def test_omega_on_frame(rng):
    for q in random_unit(rng, 50):
        f = frame_at(q)
        assert abs(omega_eval(q, f.X)) <= 1e-12
        assert abs(omega_eval(q, f.Y)) <= 1e-12
        assert abs(omega_eval(q, f.T) + 1.0) <= 1e-12
        assert abs(omega_eval(q, f.N)) <= 1e-12


def test_omega_is_minus_c(rng):
    for q in random_unit(rng, 100):
        f = frame_at(q)
        coeff = rng.standard_normal(3)
        v = coeff[0] * f.X + coeff[1] * f.Y + coeff[2] * f.T
        assert abs(omega_eval(q, v) + coeff[2]) <= 1e-12


def test_bracket_relations():
    two_t = 2.0 * T_FIELD.matrix
    assert np.array_equal(bracket("X", "Y").matrix, two_t)
    assert np.array_equal(bracket("Y", "X").matrix, -two_t)
    assert np.array_equal(bracket("X", "X").matrix, np.zeros((4, 4)))
    assert np.array_equal(bracket("X", "T").matrix, -2.0 * Y_FIELD.matrix)
    assert np.array_equal(bracket("Y", "T").matrix, 2.0 * X_FIELD.matrix)


def test_bracket_rejects_unknown():
    with pytest.raises(ValueError):
        bracket("X", "Z")


def test_bracket_finite_difference_cross_check(rng):
    h = 1e-5
    fields = {"X": X_FIELD, "Y": Y_FIELD, "T": T_FIELD}
    for u, v in (("X", "Y"), ("X", "T"), ("Y", "T")):
        fu, fv = fields[u], fields[v]
        exact = bracket(u, v)
        for q in random_unit(rng, 20):
            fd = (fv(q + h * fu(q)) - fv(q - h * fu(q))) / (2 * h) - (
                fu(q + h * fv(q)) - fu(q - h * fv(q))
            ) / (2 * h)
            assert np.max(np.abs(fd - exact(q))) <= 1e-6


def test_left_invariance(rng):
    # pushforward of X under left translation by p lands on X at p*q
    for _ in range(50):
        p, q = random_unit(rng), random_unit(rng)
        for unit in (QUAT_I, QUAT_J, QUAT_K):
            lhs = qmul(p, qmul(q, -unit))
            rhs = qmul(qmul(p, q), -unit)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_bracket_generating(rng):
    for q in random_unit(rng, 100):
        f = frame_at(q)
        span = np.stack([f.X, f.Y, bracket("Y", "X")(q)])
        svals = np.linalg.svd(span, compute_uv=False)
        assert np.min(svals) > 0.5


def test_rank_holds_off_sphere_but_orthonormality_fails(rng):
    q = np.sqrt(2.0) * random_unit(rng)  # squared modulus 2
    with pytest.raises(ValueError, match="not unit"):
        frame_at(q)
    # the fields are linear in q and evaluate anywhere
    f = np.stack([X_FIELD(q), Y_FIELD(q), T_FIELD(q), q])
    svals = np.linalg.svd(f[:3], compute_uv=False)
    assert np.min(svals) > 0.5  # rank 3 survives
    gram_dev = np.max(np.abs(f @ f.T - np.eye(4)))
    assert gram_dev > 1e-3  # orthonormality does not
