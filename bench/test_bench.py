"""Tests of the benchmark itself (not part of the s3sr suite).

Run from the repository root:  python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_the_nearest_rank_90th_percentile():
    assert run.tail([float(x) for x in range(20, 0, -1)]) == (18.0, 90.0, 2)
    assert run.tail([float(x) for x in range(1, 201)]) == (180.0, 90.0, 20)
    assert run.tail([5.0]) == (5.0, 90.0, 0)


def test_highest_percentile_with_ten_beyond():
    xs = [float(x) for x in range(200)]
    value, pct = run.highest_with_ten_beyond(xs)
    assert sum(x > value for x in xs) == 10 and pct == 95.0
    assert run.highest_with_ten_beyond(xs[:10]) is None


def test_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]


def test_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: time.sleep(0.02))
    outer = t.wrap("outer", lambda: (inner(), time.sleep(0.01)))
    t.begin_op(0)
    outer()
    t.end_op()
    o, i = t.stats["outer"], t.stats["inner"]
    assert i.self_s >= 0.02
    assert abs(o.total_s - o.self_s - i.total_s) < 1e-9
    names = [t.names[span[0]] for span in t.spans]
    assert names == ["op", "outer", "inner"]
    assert t.spans[2][3] == 1 and t.spans[2][4] == 0


def test_removed_target_is_reported_absent(monkeypatch):
    import s3sr  # noqa: F401

    monkeypatch.setattr(tracer, "TARGETS", [
        ("connect.ode", "s3sr.connect", "no_such_solver", None),
        ("io.write", "s3sr.io", "CurveRecord.no_such_method", None),
    ])
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["s3sr.connect.no_such_solver", "s3sr.io.CurveRecord.no_such_method"]
    assert tracer.layer_metrics(t, 1)["connect.ode.calls"] == 0.0


def test_useful_ratio_reads_one_when_connect_solves_no_ode():
    t = tracer.Tracer()
    assert tracer.layer_metrics(t, 1)["connect.ode.useful_ratio"] == 0.0  # connect never called
    t.stats["connect.connect"] = tracer.Stat(calls=2, counts={"chart": 2.0})
    assert tracer.layer_metrics(t, 1)["connect.ode.useful_ratio"] == 1.0
    t.stats["connect.ode"] = tracer.Stat(calls=4)
    assert tracer.layer_metrics(t, 1)["connect.ode.useful_ratio"] == 0.5


def test_setup_samples_are_spread_over_the_run():
    sampler = run.SetupSampler(8, load=None)
    sampler.take = lambda: sampler.samples.append(1.0)
    assert sampler.keep_pace(0.0) and len(sampler.samples) == 1
    assert not sampler.keep_pace(0.1) and len(sampler.samples) == 1
    assert sampler.keep_pace(0.5) and len(sampler.samples) == 5
    assert sampler.keep_pace(3.0) and len(sampler.samples) == 8


def test_cli_connect_check_reads_the_written_file(tmp_path):
    import s3sr
    from s3sr.io import CurveRecord

    rng = np.random.default_rng(5)
    P, Q = workloads.unit(rng), workloads.unit(rng)
    session = workloads.CliSession(0, True, run.Paths(tmp_path, tmp_path, {}))
    op = workloads.CliOp("connect", [], tmp_path / "connect.csv", (P, Q))
    fields = {"endpoint_error": "0"}

    CurveRecord.from_curve(s3sr.connect(P, Q, n=workloads.CONNECT_SAMPLES)).to_csv(op.out)
    out = workloads.Outcome()
    session._check_connect(op, "", fields, out)
    assert not out.failed, out.detail

    lines = op.out.read_text().splitlines()
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) + 1e-6)  # move the end point, keep the printed error
    op.out.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    out = workloads.Outcome()
    session._check_connect(op, "", fields, out)
    assert out.failed and out.wrong


def test_directory_without_sources_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "connect_pairs", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
