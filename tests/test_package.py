"""The lazy package: what `import s3sr` and each CLI command load, and the public signatures."""

import ast
import importlib
import inspect
import pathlib

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
    # curve files take a, b from the stored velocities, so io needs no geodesics
    assert not _loaded_by_fresh_import("s3sr.geodesics", "import s3sr.io")


# every public name, with its caller outside the tests or the acceptance
# criterion that uses it; a name with neither is one to drop
PUBLIC_NAMES = {
    "EulerAngles": "charts.from_cartesian; the CLI's angle endpoints; connect",
    "chart_velocity": "c03",
    "from_cartesian": "the CLI's frames; bench/tracer.py",
    "omega_euler": "connect.connect_constant_psi; c03",
    "to_cartesian": "the CLI's angle endpoints; connect",
    "ConstructionError": "the CLI's connect (exit 3)",
    "connect": "the CLI's connect; bench/workloads.py",
    "connect_constant_psi": "c05",
    "SampledCurve": "connect, integrate_geodesic, shoot, io and the CLI",
    "fd_velocities": "curves.omega_fd_residuals",
    "omega_fd_residuals": "connect; io.CurveRecord.from_curve; geodesics.check_rows",
    "I1": "frames.frame_at and X_FIELD",
    "I2": "frames.frame_at and T_FIELD",
    "I3": "frames.frame_at and Y_FIELD",
    "Frame": "frame_at's value, read by the CLI's frames",
    "LinearField": "bracket's value (c02)",
    "bracket": "c02",
    "frame_ab": "io.CurveRecord.from_curve; geodesics",
    "frame_at": "the CLI's frames",
    "omega_eval": "curves.omega_fd_residuals; geodesics.acceleration_T_residual; geodesics.check_rows",
    "GeodesicParams": "shoot; the CLI's geodesic and hamiltonian; bench/workloads.py",
    "HamiltonianTrajectory": "integrate_hamiltonian's value, read by the CLI's hamiltonian",
    "ab_profile": "match_costate",
    "acceleration_T_residual": "bench/workloads.py",
    "angle_profile": "geodesics.check_rows; bench/workloads.py",
    "check_rows": "the CLI's check",
    "geodesic_point": "bench/workloads.py; c09",
    "integrate_geodesic": "shoot; the CLI's geodesic; bench/workloads.py",
    "integrate_hamiltonian": "the CLI's hamiltonian; bench/workloads.py",
    "match_costate": "the CLI's hamiltonian; bench/workloads.py",
    "verify_velocity_energy": "bench/workloads.py",
    "CurveRecord": "the CLI's file output and check",
    "QUAT_I": "c01",
    "QUAT_J": "c01",
    "QUAT_K": "c01",
    "QUAT_ONE": "c01",
    "conj": "connect",
    "norm": "the CLI's unit-norm policy; geodesics.angle_profile; curves",
    "norm2": "frames.frame_at; geodesics.verify_velocity_energy; geodesics.check_rows",
    "normalize": "the CLI's unit-norm policy",
    "qexp_pure": "c08; c09",
    "qmul": "connect; frames",
    "ShootingConfig": "the CLI's shoot",
    "ShootingResult": "shoot's value, read by the CLI's shoot",
    "shoot": "the CLI's shoot; bench/workloads.py",
}


def test_every_public_name_names_its_caller():
    assert set(PUBLIC_NAMES) == set(s3sr.__all__)


# every parameter with a default among the public callables, with the code
# outside the tests that sets it; a setting no such caller sets is a knob to drop
DEFAULTED_SETTINGS = {
    ("EulerAngles", "pole"): "charts.from_cartesian, on a pole",
    ("ConstructionError", "endpoint_error"): "connect, when its curve misses an endpoint",
    ("connect", "n"): "the CLI's connect --samples; bench/workloads.py",
    ("SampledCurve", "velocities"): "connect, integrate_geodesic and the CLI's hamiltonian",
    ("SampledCurve", "meta"): "connect, integrate_geodesic and the CLI's hamiltonian",
    ("ShootingConfig", "tol"): "the CLI's shoot --tol",
    ("ShootingConfig", "curve_step"): "the CLI's shoot --step",
    ("shoot", "cfg"): "the CLI's shoot",
}


def test_every_defaulted_setting_names_its_caller():
    found = set()
    for name in s3sr.__all__:
        obj = getattr(s3sr, name)
        if not callable(obj):
            continue
        for param in inspect.signature(obj).parameters.values():
            if param.default is not inspect.Parameter.empty:
                found.add((name, param.name))
    assert found == set(DEFAULTED_SETTINGS)


def _private_definitions(tree):
    """(name, statement) for each private name a module binds at top level by def, class or =."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__") and name != "_":
                yield name, stmt


def _referenced_names(tree, skip=None):
    """Names a module reads, imports or reaches as attributes, outside the statement skip."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_has_a_caller_in_the_package():
    # references from the tests do not count: a private name only they reach
    # is dead code they keep alive
    trees = {path: ast.parse(path.read_text()) for path in sorted(pathlib.Path(s3sr.__file__).parent.glob("*.py"))}
    orphans = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name, stmt in _private_definitions(tree)
        if not any(name in _referenced_names(t, stmt if p == path else None) for p, t in trees.items())
    ]
    assert orphans == []
