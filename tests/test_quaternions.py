import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3sr.quaternions import (
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    check_unit,
    conj,
    is_unit,
    norm,
    norm2,
    normalize,
    qexp_pure,
    qmul,
)
from s3sr.charts import from_cartesian
from s3sr.connect import connect
from s3sr.frames import frame_at
from s3sr.geodesics import GeodesicParams, integrate_geodesic
from s3sr import quaternions
from s3sr.quaternions import _conj_mul_floats, _product
from s3sr.shooting import shoot
from conftest import random_unit

component = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
quat = st.tuples(component, component, component, component).map(np.array)


def test_basis_table_exact():
    minus_one = -QUAT_ONE
    assert np.array_equal(qmul(QUAT_I, QUAT_I), minus_one)
    assert np.array_equal(qmul(QUAT_J, QUAT_J), minus_one)
    assert np.array_equal(qmul(QUAT_K, QUAT_K), minus_one)
    assert np.array_equal(qmul(QUAT_I, QUAT_J), QUAT_K)
    assert np.array_equal(qmul(QUAT_J, QUAT_I), -QUAT_K)
    assert np.array_equal(qmul(QUAT_J, QUAT_K), QUAT_I)
    assert np.array_equal(qmul(QUAT_K, QUAT_J), -QUAT_I)
    assert np.array_equal(qmul(QUAT_K, QUAT_I), QUAT_J)
    assert np.array_equal(qmul(QUAT_I, QUAT_K), -QUAT_J)


def test_identity_element(rng):
    q = rng.standard_normal(4)
    assert np.array_equal(qmul(QUAT_ONE, q), q)
    assert np.array_equal(qmul(q, QUAT_ONE), q)


def test_conj_examples():
    assert np.array_equal(conj([1.0, 0, 0, 0]), [1.0, 0, 0, 0])
    assert np.array_equal(conj([1.0, 2.0, 3.0, 4.0]), [1.0, -2.0, -3.0, -4.0])


@given(quat)
def test_conj_is_involution(q):
    assert np.array_equal(conj(conj(q)), q)


def test_q_times_conj_is_modulus(rng):
    q = rng.standard_normal(4)
    prod = qmul(q, conj(q))
    assert abs(prod[0] - norm2(q)) <= 1e-12
    assert np.all(np.abs(prod[1:]) <= 1e-12)


def test_normalize_same_bytes_for_one_and_stacked(rng):
    qs = 3.0 * rng.standard_normal((50, 4))
    for q, unit in zip(qs, normalize(qs)):
        # a (4,) input divides by its scalar modulus, bit for bit as a row of a stack
        assert normalize(q).shape == (4,)
        assert normalize(q).tobytes() == (q / norm(q)).tobytes() == unit.tobytes()


@given(quat, quat)
@settings(max_examples=200)
def test_modulus_multiplicative(p, q):
    assert abs(norm2(qmul(p, q)) - norm2(p) * norm2(q)) <= 1e-12


@given(quat, quat, quat)
@settings(max_examples=200)
def test_associativity(p, q, r):
    lhs = qmul(qmul(p, q), r)
    rhs = qmul(p, qmul(q, r))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def _exp_by_ode(v, nsteps=40000):
    """Independent oracle: integrate q' = q * (v1 i + v2 j + v3 k) by RK4."""
    gen = np.concatenate([[0.0], np.asarray(v, dtype=float)])
    q = np.array([1.0, 0.0, 0.0, 0.0])
    h = 1.0 / nsteps
    for _ in range(nsteps):
        k1 = qmul(q, gen)
        k2 = qmul(q + 0.5 * h * k1, gen)
        k3 = qmul(q + 0.5 * h * k2, gen)
        k4 = qmul(q + h * k3, gen)
        q = q + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return q


def test_qexp_zero():
    assert np.array_equal(qexp_pure([0.0, 0.0, 0.0]), QUAT_ONE)


def test_qexp_against_ode_oracle():
    got = qexp_pure([np.pi, 0.0, 0.0])
    assert np.max(np.abs(got - [-1.0, 0.0, 0.0, 0.0])) <= 1e-12
    assert np.max(np.abs(got - _exp_by_ode([np.pi, 0.0, 0.0]))) <= 1e-10

    got = qexp_pure([0.0, 0.0, np.pi / 2])
    assert np.max(np.abs(got - [0.0, 0.0, 0.0, 1.0])) <= 1e-12
    assert np.max(np.abs(got - _exp_by_ode([0.0, 0.0, np.pi / 2]))) <= 1e-10


def test_qexp_tiny_argument_is_unit():
    for scale in (1e-20, 1e-12, 1e-9, 1e-7):
        v = scale * np.array([0.6, -0.3, 0.74])
        e = qexp_pure(v)
        assert abs(norm(e) - 1.0) <= 1e-14
        assert np.allclose(e[1:], v, atol=1e-20)


def test_unit_product_stays_unit(rng):
    for _ in range(200):
        p, q = random_unit(rng), random_unit(rng)
        assert abs(norm(qmul(p, q)) - 1.0) <= 1e-14


def test_unit_helpers(rng):
    u = random_unit(rng)
    assert is_unit(u)
    assert not is_unit(1.01 * u)
    with pytest.raises(ValueError):
        check_unit(1.01 * u)
    assert np.allclose(norm(normalize(3.0 * u)), 1.0)
    with pytest.raises(ValueError):
        normalize(np.zeros(4))


def test_batched_operations(rng):
    ps = random_unit(rng, 16)
    qs = random_unit(rng, 16)
    batch = qmul(ps, qs)
    single = np.stack([qmul(p, q) for p, q in zip(ps, qs)])
    assert np.array_equal(batch, single)


def test_check_unit_rejects_nan_and_inf(rng):
    u = random_unit(rng)
    for bad in ([np.nan, 0.0, 0.0, 0.0], [1.0, 0.0, np.nan, 0.0], [np.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="not unit"):
            check_unit(bad)
    assert check_unit(u).tobytes() == u.tobytes()
    assert check_unit(list(u)).tobytes() == u.tobytes()


def test_check_unit_rejects_other_shapes(rng):
    u = random_unit(rng)
    for bad in (u[None], np.stack([u, u]), u[:3], 1.0, np.zeros((0, 4))):
        message = f"q must be one quaternion of shape (4,), got shape {np.shape(bad)}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            check_unit(bad, what="q")


def test_check_unit_tolerance_edge_is_that_of_norm2(rng, monkeypatch):
    # check_unit sums |q|^2 on floats in norm2's order, so it accepts exactly up to norm2's deviation
    for q in rng.standard_normal((500, 4)) * rng.uniform(0.5, 1.5, (500, 1)):
        dev = float(abs(norm2(q) - 1.0))
        monkeypatch.setattr(quaternions, "UNIT_TOL", dev)
        check_unit(q)
        assert is_unit(q)
        monkeypatch.setattr(quaternions, "UNIT_TOL", np.nextafter(dev, 0.0))
        with pytest.raises(ValueError):
            check_unit(q)
        assert not is_unit(q)


def test_conj_mul_floats_is_qmul_of_conj_bit_for_bit(rng):
    # exact zeros and signed zeros from the axis points, generic pairs, and
    # finite rows of +-0, +-1.5, -2.0 and 1e-300, where conj's negations meet
    # signed zeros and underflow inside _product's terms
    axes = [s * e for e in np.eye(4) for s in (1.0, -1.0)] + [np.array([0.0, -0.0, 0.6, -0.8])]
    special = [np.array(r) for r in itertools.product([0.0, -0.0, 1.5, -1.5, -2.0, 1e-300], repeat=4)]
    pairs = [(p, q) for p in axes for q in axes] + [tuple(random_unit(rng, 2)) for _ in range(500)]
    pairs += [(p, special[(7 * i + 3) % len(special)]) for i, p in enumerate(special)]
    for p, q in pairs:
        rel = _conj_mul_floats(p, q)
        assert all(type(c) is float for c in rel)
        assert np.array(rel).tobytes() == qmul(conj(p), q).tobytes()


def test_mul_floats_is_qmul_bit_for_bit(rng):
    # the axis points and their signed zeros, rows of +-0, +-inf and NaN, and
    # generic pairs.  Every finite or infinite result matches qmul's bytes; a
    # NaN result is NaN in both, but its sign bit is not pinned: on x86-64
    # numpy's scalar arithmetic and Python's floats propagate different NaN
    # operands (428 of these 1,251 special pairs, 1,197 of them with a NaN, differ there)
    axes = [s * e for e in np.eye(4) for s in (1.0, -1.0)] + [np.array([0.0, -0.0, 0.6, -0.8])]
    special = [np.array(r) for r in itertools.product([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0], repeat=4)]
    pairs = [(p, q) for p in axes for q in axes] + [tuple(random_unit(rng, 2)) for _ in range(500)]
    pairs += [(p, special[(7 * i + 3) % len(special)]) for i, p in enumerate(special[::3])]
    pairs += [(p, q) for p in axes for q in special[::97]] + [(q, p) for p in axes for q in special[::97]]
    nan_rows = 0
    with np.errstate(invalid="ignore"):
        for p, q in pairs:
            out = _product(*p.tolist(), *q.tolist())
            assert all(type(c) is float for c in out)
            out, ref = np.array(out), qmul(p, q)
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(out), nan)
            assert out[~nan].tobytes() == ref[~nan].tobytes()
            nan_rows += bool(nan.any())
    assert nan_rows > 100


_NAN = [np.nan, 0.0, 0.0, 0.0]
_ONE = [1.0, 0.0, 0.0, 0.0]
_J = [0.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: connect(_NAN, _J), "endpoint P is not unit"),
        (lambda: connect(_ONE, _NAN), "endpoint Q is not unit"),
        (lambda: connect([_ONE], _J), r"endpoint P must be one quaternion of shape \(4,\), got shape \(1, 4\)"),
        (lambda: connect(_ONE, [_J, _J]), r"endpoint Q must be one quaternion of shape \(4,\), got shape \(2, 4\)"),
        (lambda: connect(_ONE, _J, n=256.0), "n must be an integer of at least 2 samples, got 256.0"),
        (lambda: connect(_ONE, _J, n=1), "n must be an integer of at least 2 samples, got 1"),
        (lambda: shoot(_NAN, _J), "shoot start P is not unit"),
        (lambda: shoot(_ONE, _NAN), "shoot target Q is not unit"),
        (lambda: shoot([_ONE], _J), r"shoot start P must be one quaternion of shape \(4,\), got shape \(1, 4\)"),
        (lambda: shoot(_ONE, [_J, _J]), r"shoot target Q must be one quaternion of shape \(4,\), got shape \(2, 4\)"),
        (lambda: from_cartesian(_NAN), "chart point q is not unit"),
        (lambda: from_cartesian([_ONE, _J]), r"chart point q must be one quaternion of shape \(4,\), got shape \(2, 4\)"),
        (lambda: from_cartesian([_ONE]), r"chart point q must be one quaternion of shape \(4,\), got shape \(1, 4\)"),
        (lambda: integrate_geodesic(_NAN, GeodesicParams(1.0, 0.0, 0.5), 1.0, 0.01), "initial point q0 is not unit"),
        (lambda: frame_at(_NAN), "frame base point q is not unit"),
    ],
)
def test_single_point_entry_points_name_the_bad_argument(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()
