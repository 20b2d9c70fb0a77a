"""The lazy package: what `import s3sr` and each CLI command load."""

import importlib

import pytest

import s3sr
from conftest import _loaded_by_fresh_import

SUBMODULES = ("charts", "connect", "curves", "frames", "geodesics", "io", "quaternions", "shooting")


def test_import_loads_no_numpy_and_no_submodule():
    assert not _loaded_by_fresh_import("numpy")
    for name in (*SUBMODULES, "cli"):
        assert not _loaded_by_fresh_import(f"s3sr.{name}")


def test_cli_shoot_leaves_connect_charts_and_json_unloaded(tmp_path):
    out = tmp_path / "s.csv"
    run = f"import s3sr.cli\nassert s3sr.cli.main(['shoot', '--from', '1,0,0,0', '--to', '0,0,1,0', '--out', {str(out)!r}]) == 0"
    for module in ("s3sr.connect", "s3sr.charts", "json"):
        assert not _loaded_by_fresh_import(module, run)
    assert _loaded_by_fresh_import("s3sr.shooting", run)
    assert out.exists()


def test_cli_frames_leaves_connect_and_shooting_unloaded():
    run = "import s3sr.cli\nassert s3sr.cli.main(['frames', '--at', '0.5,0.5,0.5,0.5']) == 0"
    for module in ("s3sr.connect", "s3sr.shooting"):
        assert not _loaded_by_fresh_import(module, run)
    assert _loaded_by_fresh_import("s3sr.charts", run)


def test_public_names_are_those_of_their_submodules():
    modules = [importlib.import_module(f"s3sr.{name}") for name in SUBMODULES]
    for name in s3sr.__all__:
        owners = [m for m in modules if name in m.__all__]
        assert len(owners) == 1 and getattr(s3sr, name) is getattr(owners[0], name), name
    assert set(s3sr.__all__) <= set(dir(s3sr))
    with pytest.raises(AttributeError, match="no_such_name"):
        s3sr.no_such_name  # noqa: B018
    namespace = {}
    exec("from s3sr import *", namespace)
    assert all(namespace[name] is getattr(s3sr, name) for name in s3sr.__all__)


def test_connect_stays_the_function_when_its_submodule_loads_first():
    run = (
        "import s3sr.connect\n"
        "assert s3sr.connect is sys.modules['s3sr.connect'].connect\n"
        "from s3sr import connect\n"
        "assert connect is sys.modules['s3sr.connect'].connect"
    )
    assert _loaded_by_fresh_import("s3sr.connect", run)


def test_submodules_load_on_attribute_access():
    assert _loaded_by_fresh_import("s3sr.io", "assert s3sr.io.CurveRecord is s3sr.CurveRecord")
