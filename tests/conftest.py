import os
import subprocess
import sys

import numpy as np
import pytest

import s3sr


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)


def random_unit(rng, n=None):
    """Uniform random unit quaternion(s)."""
    v = rng.standard_normal(4 if n is None else (n, 4))
    return v / np.linalg.norm(v, axis=-1, keepdims=n is not None)


def _counting(counts, name, func):
    """func, counting its calls in counts[name]."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)
    return wrapper


def _loaded_by_fresh_import(module, then=""):
    """Whether a fresh interpreter loads `module` or a submodule of it.

    The interpreter runs `import s3sr`, then the statements `then`.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(s3sr.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        f"import sys, s3sr\n{then}\n"
        f"print(any(m == {module!r} or m.startswith({module + '.'!r}) for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.splitlines()[-1] == "True"


# The chart map and its pushforward as two separate passes, each with its own
# trigonometry: the reference for the fused kernel charts._chart_columns.


def point_arrays_ref(phi, psi, theta):
    """Chart map; returns an (..., 4) array."""
    alpha = 0.5 * (np.asarray(phi) + np.asarray(psi))
    beta = 0.5 * (np.asarray(phi) - np.asarray(psi))
    c = np.cos(0.5 * np.asarray(theta))
    s = np.sin(0.5 * np.asarray(theta))
    return np.stack(
        [np.cos(alpha) * c, np.sin(alpha) * c, np.cos(beta) * s, np.sin(beta) * s],
        axis=-1,
    )


def velocity_arrays_ref(phi, psi, theta, dphi, dpsi, dtheta):
    """Pushforward of chart rates; returns (..., 4)."""
    alpha = 0.5 * (np.asarray(phi) + np.asarray(psi))
    beta = 0.5 * (np.asarray(phi) - np.asarray(psi))
    c = np.cos(0.5 * np.asarray(theta))
    s = np.sin(0.5 * np.asarray(theta))
    da = 0.5 * (np.asarray(dphi) + np.asarray(dpsi))
    db = 0.5 * (np.asarray(dphi) - np.asarray(dpsi))
    dt = 0.5 * np.asarray(dtheta)
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    return np.stack(
        [
            -sa * c * da - ca * s * dt,
            ca * c * da - sa * s * dt,
            -sb * s * db + cb * c * dt,
            cb * s * db + sb * c * dt,
        ],
        axis=-1,
    )
