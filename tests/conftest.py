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
