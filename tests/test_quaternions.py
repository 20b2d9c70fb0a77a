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
    inverse,
    is_unit,
    norm,
    norm2,
    normalize,
    qexp_pure,
    qmul,
)
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


def test_inverse_examples(rng):
    assert np.allclose(inverse([2.0, 0, 0, 0]), [0.5, 0, 0, 0], atol=0, rtol=0)
    # unit quaternion: inverse equals conjugate
    u = random_unit(rng)
    assert np.allclose(inverse(u), conj(u), atol=1e-15)
    # modulus-2 quaternion: inverse is conj/4, checked by multiplying back
    q = 2.0 * random_unit(rng)
    inv = inverse(q)
    assert np.allclose(inv, conj(q) / 4.0, atol=1e-15)
    assert np.max(np.abs(qmul(q, inv) - QUAT_ONE)) <= 1e-14
    assert np.max(np.abs(qmul(inv, q) - QUAT_ONE)) <= 1e-14


def test_inverse_of_zero_raises():
    with pytest.raises(ValueError):
        inverse([0.0, 0.0, 0.0, 0.0])


def test_inverse_and_normalize_same_bytes_for_one_and_stacked(rng):
    qs = 3.0 * rng.standard_normal((50, 4))
    for q, inv, unit in zip(qs, inverse(qs), normalize(qs)):
        # a (4,) input divides by its scalar modulus, bit for bit as a row of a stack
        assert inverse(q).shape == normalize(q).shape == (4,)
        assert inverse(q).tobytes() == (conj(q) / norm2(q)).tobytes() == inv.tobytes()
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
