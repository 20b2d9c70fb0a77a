"""The CLI as a process: collector off while the modules load, frozen heap after.

`python -m s3sr.cli` runs `run()`, which wraps `main()` in `gc.freeze()`
calls; `main()` itself, as tests and library callers run it, leaves the
collector as it finds it.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

import s3sr
from s3sr.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(s3sr.__file__)))

# Loaded at start-up through PYTHONPATH: counts the collections that start
# while numpy is loaded but nothing is frozen yet (the import phase) and those
# that start after the first freeze (the command), and reports the collector's
# state from an atexit hook, which runs after every hook the command registers.
SITECUSTOMIZE = '''
import atexit, gc, json, os, sys

counts = {"import_phase": 0, "command": 0}

def on_gc(phase, info):
    if phase == "start":
        if gc.get_freeze_count():
            counts["command"] += 1
        elif "numpy" in sys.modules:
            counts["import_phase"] += 1

gc.callbacks.append(on_gc)

@atexit.register
def report():
    counts.update(enabled=gc.isenabled(), frozen=gc.get_freeze_count(), unfrozen=len(gc.get_objects()))
    with open(os.environ["S3SR_GC_REPORT"], "w") as f:
        json.dump(counts, f)
'''

README_SESSION = [
    ["connect", "--from", "0,0.5236,1.0472", "--to", "1,0.7854,1.5708", "--samples", "256", "--format", "csv"],
    ["geodesic", "--q0", "1,0,0,0", "--r", "1", "--theta0", "0", "--lambda", "0.5", "--T", "6.28", "--step", "0.001"],
    ["hamiltonian", "--q0", "1,0,0,0", "--theta0", "0.4", "--lambda", "0.5", "--T", "5", "--step", "0.001"],
    ["shoot", "--from", "1,0,0,0", "--to", "0,0,1,0", "--seed", "7"],
    ["check", "geodesic.csv", "--tol", "1e-4"],
    ["frames", "--at", "0.5,0.5,0.5,0.5"],
    ["geodesic", "--q0", "1.5,0,0,0", "--T", "1"],  # exit 2 from the unit-norm policy
    ["geodesic", "--q0", "1,0,0,0"],  # exit 2 from argparse: --T missing
]


def _cli_process(argv, cwd, *path, env=None):
    path = filter(None, [*path, SRC, os.environ.get("PYTHONPATH")])
    env = dict(env or os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", "s3sr.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_finds_it(tmp_path, capsys, enabled):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(["shoot", "--from", "1,0,0,0", "--to", "0,0,1,0", "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["frames", "--at", "1,0,0,0"]) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_process_collects_only_during_the_command_and_freezes_before_exit(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    report = tmp_path / "gc.json"
    env = dict(os.environ, S3SR_GC_REPORT=str(report))
    # `check` on a JSON curve holds one list per row, enough live containers to
    # start collections; the integrators behind `shoot` start none
    assert main(["shoot", "--from", "1,0,0,0", "--to", "0,0,1,0", "--format", "json",
                 "--out", str(tmp_path / "s.json")]) == 0
    proc = _cli_process(["check", "s.json"], tmp_path, str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(report.read_text())
    # no collection while numpy and s3sr load
    assert counts["import_phase"] == 0
    # the command runs with the collector on, over the young objects only
    assert counts["enabled"] is True
    assert counts["command"] >= 1
    # what the command left alive is frozen too, so shutdown walks (almost)
    # nothing; without the last freeze this command leaves several hundred objects
    assert counts["frozen"] > 0
    assert counts["unfrozen"] < 50


def test_process_output_matches_main(tmp_path, capsys, monkeypatch):
    by_process, in_process = tmp_path / "process", tmp_path / "main"
    by_process.mkdir()
    in_process.mkdir()
    monkeypatch.chdir(in_process)
    for argv in README_SESSION:
        proc = _cli_process(argv, by_process)
        code = main(argv)
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err), argv
    files = sorted(p.name for p in by_process.iterdir())
    assert files == sorted(p.name for p in in_process.iterdir())
    assert files == ["connect.csv", "geodesic.csv", "hamiltonian.csv", "shoot.csv"]
    for name in files:
        assert (by_process / name).read_bytes() == (in_process / name).read_bytes(), name
