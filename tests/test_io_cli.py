import gc
import json

import numpy as np
import pytest

from s3sr.cli import main
from s3sr.geodesics import GeodesicParams, integrate_geodesic
from s3sr.io import COLUMNS, CurveRecord
from s3sr.quaternions import normalize, qexp_pure, qmul


def run(*args):
    return main(list(args))


# -- CurveRecord formats ------------------------------------------------------


def test_csv_round_trip(tmp_path):
    c = integrate_geodesic([1, 0, 0, 0], GeodesicParams(1.0, 0.3, 0.5), 1.0, 1e-2)
    rec = CurveRecord.from_curve(c)
    path = tmp_path / "c.csv"
    rec.to_csv(path)
    back = CurveRecord.from_csv(path)
    assert np.array_equal(back.data, rec.data)  # 17 significant digits round-trip
    assert back.header["tag"] == "geodesic"
    assert back.header["lambda"] == 0.5


def test_csv_is_lf_and_hash_prefixed(tmp_path):
    c = integrate_geodesic([1, 0, 0, 0], GeodesicParams(1.0, 0.0, 0.0), 0.5, 1e-2)
    path = tmp_path / "c.csv"
    CurveRecord.from_curve(c).to_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0].startswith("#")
    assert any(line.startswith("# columns: " + ",".join(COLUMNS)) for line in lines)


def test_json_round_trip(tmp_path):
    c = integrate_geodesic([1, 0, 0, 0], GeodesicParams(1.0, 0.3, 0.5), 1.0, 1e-2)
    rec = CurveRecord.from_curve(c)
    path = tmp_path / "c.json"
    rec.to_json(path)
    back = CurveRecord.from_json(path)
    assert np.array_equal(back.data, rec.data)
    assert back.header == {k: v for k, v in rec.header.items()}


def test_malformed_csv_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# s3sr-curve v1\n0,1,0,0\n")
    with pytest.raises(ValueError):
        CurveRecord.from_csv(path)


def _per_value_csv(record):
    """The CSV writer formatting one value at a time."""
    lines = ["# s3sr-curve v1"]
    for key in sorted(record.header):
        value = record.header[key]
        lines.append(f"# {key}={format(float(value), '.17g') if isinstance(value, float) else value}")
    lines.append("# columns: " + ",".join(COLUMNS))
    for row in record.data:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode()


def _table(nrows, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((nrows, len(COLUMNS))) * 10.0 ** rng.integers(-20, 20, (nrows, len(COLUMNS)))
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 1e16, 0.1]
    flat = data.reshape(-1)
    flat[rng.choice(flat.size, min(flat.size, len(special)), replace=False)] = special[: flat.size]
    return data


@pytest.mark.parametrize("nrows", [1, 1024, 1025, 3000])
def test_blocked_csv_matches_per_value_writer(tmp_path, nrows):
    rec = CurveRecord({"tag": "x", "lambda": 0.5, "n": nrows}, _table(nrows, nrows))
    path = tmp_path / "t.csv"
    rec.to_csv(path)
    assert path.read_bytes() == _per_value_csv(rec)
    back = CurveRecord.from_csv(path)
    assert back.header == rec.header
    assert np.array_equal(back.data.view(np.int64), rec.data.view(np.int64))  # bit for bit, -0.0 included


def test_csv_reader_skips_blank_and_comment_lines_between_rows(tmp_path):
    rec = CurveRecord({"tag": "x"}, _table(3000, 7))
    path = tmp_path / "t.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    for at, extra in ((2900, "# late=3"), (1500, ""), (1200, "   "), (1030, "# a note"), (5, "")):
        lines.insert(at, extra)
    path.write_text("\n".join(lines) + "\n")
    back = CurveRecord.from_csv(path)
    assert np.array_equal(back.data.view(np.int64), rec.data.view(np.int64))
    assert back.header == {"tag": "x", "late": 3}


@pytest.mark.parametrize("bad,message", [("1,2,3", "expected 8 fields, got 3"), ("1,2,3,4,5,6,7,x", "could not convert")])
def test_csv_reader_names_the_bad_line(tmp_path, bad, message):
    rec = CurveRecord({"tag": "x"}, _table(3000, 8))
    path = tmp_path / "t.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    lines[1499] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line 1500: {message}"):
        CurveRecord.from_csv(path)


@pytest.mark.parametrize(
    "first,second,message",
    [
        ("1,2,3,4,5,6,7,x", "1,2,3,4,5,6,7,y", "could not convert string to float: 'x'"),
        ("1,2,3,4,5,6,7,x", "1,2,3", "could not convert string to float: 'x'"),
        ("1,2,3", "1,2,3,4,5,6,7,x", "expected 8 fields, got 3"),
    ],
)
def test_csv_reader_names_the_first_of_two_bad_lines(tmp_path, first, second, message):
    rec = CurveRecord({"tag": "x"}, _table(3000, 9))
    path = tmp_path / "t.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    lines[1499], lines[2599] = first, second
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line 1500: {message}$"):
        CurveRecord.from_csv(path)


def test_csv_reader_names_a_bad_value_among_the_first_rows(tmp_path):
    rec = CurveRecord({"tag": "x"}, _table(3000, 10))
    path = tmp_path / "t.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[2].startswith("# columns:")
    lines[9] = lines[9].replace(",", ",1.2.3,", 1).rsplit(",", 1)[0]  # 8 fields, the second bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^line 10: could not convert string to float: '1.2.3'$"):
        CurveRecord.from_csv(path)


def test_csv_reader_needs_a_data_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# s3sr-curve v1\n# tag=x\n# columns: " + ",".join(COLUMNS) + "\n\n")
    with pytest.raises(ValueError, match="^no data rows found$"):
        CurveRecord.from_csv(path)


def test_csv_reader_starts_no_cyclic_collection(tmp_path):
    # the README's geodesic: 6,281 rows
    path = tmp_path / "geodesic.csv"
    assert run("geodesic", "--q0", "1,0,0,0", "--lambda", "0.5", "--T", "6.28", "--out", str(path)) == 0
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        record = CurveRecord.read(path)
    finally:
        gc.callbacks.remove(on_gc)
        if not was_enabled:
            gc.disable()
    assert record.data.shape == (6281, len(COLUMNS))
    assert starts == []


# -- CLI contract -------------------------------------------------------------


def test_cli_connect(tmp_path, capsys):
    out = tmp_path / "conn.csv"
    code = run(
        "connect", "--from", "0,0.5236,1.0472", "--to", "1,0.7854,1.5708",
        "--samples", "256", "--format", "csv", "--out", str(out),
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "endpoint_error=" in captured
    assert "max_omega_residual=" in captured
    rec = CurveRecord.from_csv(out)
    assert rec.data.shape == (256, 8)


def test_cli_connect_identical_endpoints(tmp_path, capsys):
    out = tmp_path / "conn.csv"
    code = run("connect", "--from", "1,1,1", "--to", "1,1,1", "--out", str(out))
    assert code == 0
    rec = CurveRecord.from_csv(out)
    assert rec.data.shape[0] == 2
    assert np.array_equal(rec.data[0, 1:5], rec.data[1, 1:5])


def test_cli_connect_malformed_angles(tmp_path):
    assert run("connect", "--from", "0,zzz,1", "--to", "1,1,1") == 2
    assert run("connect", "--from", "0,1", "--to", "1,1,1") == 2
    assert run("connect", "--from", "0,1,1,1,1", "--to", "1,1,1") == 2


def test_cli_connect_arc_routes_pass_check(tmp_path, capsys):
    # an endpoint with a leading minus is passed as --to=...; argparse reads
    # "--to -1,0,0,0" as an option with its value missing (exit 2)
    for to, route in ((["--to=-1,0,0,0"], "subgroup-arc"), (["--to", "0,0,1,0"], "two-arc")):
        out = tmp_path / f"{route}.csv"
        assert run("connect", "--from", "1,0,0,0", *to, "--out", str(out)) == 0
        assert CurveRecord.from_csv(out).header["route"] == route
        assert run("check", str(out)) == 0
    assert run("connect", "--from", "1,0,0,0", "--to", "-1,0,0,0") == 2
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert run() == 2
    assert run("nonsense") == 2
    capsys.readouterr()
    # the component count is checked before the unit-norm policy
    for argv in (
        ["hamiltonian", "--q0", "1,0,0", "--T", "1"],
        ["hamiltonian", "--q0", "1,0,0,0,0", "--T", "1"],
        ["geodesic", "--q0", "0.6,0.6,0.6", "--T", "1"],
        ["geodesic", "--q0", "1,0,0,0,0", "--T", "1"],
    ):
        assert run(*argv) == 2
        assert "needs 4 components" in capsys.readouterr().err


def test_cli_rejects_bad_common_options(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run("connect", "--from", "0,0.5,1.0", "--to", "1,0.8,1.6",
               "--samples", "1", "--out", out) == 2
    assert run("geodesic", "--q0", "1,0,0,0", "--T", "1",
               "--step", "0", "--out", out) == 2
    assert run("shoot", "--from", "1,0,0,0", "--to", "0,1,0,0",
               "--tol", "-1", "--out", out) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic", "--q0", "1,0,0,0", "--T", "inf"],
        ["hamiltonian", "--q0", "1,0,0,0", "--T", "inf"],
        ["geodesic", "--q0", "1,0,0,0", "--T", "nan"],
        ["geodesic", "--q0", "1,0,0,0", "--T", "1", "--lambda", "nan"],
        ["hamiltonian", "--q0", "1,0,0,0", "--T", "1", "--r", "inf"],
        ["geodesic", "--q0", "1,0,0,0", "--T", "1", "--theta0", "nan"],
        ["hamiltonian", "--q0", "1,0,0,0", "--T", "1", "--xi0", "0.1,nan,0.2,0.3"],
    ],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, argv):
    # exit 1 is the code of a failed check, and a one-row or all-NaN curve is no result
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{curve}", "--tol", "nan"],
        ["check", "{curve}", "--tol", "-1"],
        ["check", "{curve}", "--tol", "0"],
        ["check", "{curve}", "--tol", "inf"],
        ["shoot", "--from", "1,0,0,0", "--to", "0,1,0,0", "--tol", "inf", "--out", "{out}"],
    ],
)
def test_cli_rejects_tol_not_finite_and_positive(tmp_path, capsys, argv):
    # a nan, negative or zero tol FAILs every toleranced check, and inf passes any curve
    curve, out = tmp_path / "geo.csv", tmp_path / "x.csv"
    assert run("geodesic", "--q0", "1,0,0,0", "--lambda", "0.5", "--T", "1", "--out", str(curve)) == 0
    capsys.readouterr()
    assert run(*(a.format(curve=curve, out=out) for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --tol must be finite and > 0")
    assert captured.out == ""
    assert not out.exists()


def test_cli_geodesic(tmp_path, capsys):
    out = tmp_path / "geo.csv"
    code = run(
        "geodesic", "--q0", "1,0,0,0", "--r", "1", "--theta0", "0",
        "--lambda", "0", "--T", "3.14159265358979", "--step", "0.001",
        "--out", str(out),
    )
    assert code == 0
    rec = CurveRecord.from_csv(out)
    end = rec.data[-1, 1:5]
    assert np.max(np.abs(end - [-1.0, 0.0, 0.0, 0.0])) <= 1e-9


def test_cli_geodesic_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["geodesic", "--q0", "1,0,0,0", "--r", "1", "--theta0", "0", "--lambda", "0.5", "--T", "6.28", "--step", "0.001"]
    assert run(*args, "--out", str(out_a)) == 0
    assert run(*args, "--out", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_geodesic_zero_horizon(tmp_path):
    out = tmp_path / "geo0.csv"
    assert run("geodesic", "--q0", "1,0,0,0", "--T", "0", "--out", str(out)) == 0
    rec = CurveRecord.from_csv(out)
    assert rec.data.shape[0] == 1


def test_cli_geodesic_then_check(tmp_path, capsys):
    out = tmp_path / "geo.csv"
    assert run(
        "geodesic", "--q0", "1,0,0,0", "--theta0", "0.4", "--lambda", "0.5",
        "--T", "3", "--step", "0.001", "--out", str(out),
    ) == 0
    code = run("check", str(out))
    captured = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in captured
    assert "PASS angle-linearity" in captured


def test_cli_check_fast_geodesic_passes_velocity_energy(tmp_path, capsys):
    # r=3, lambda=5: the central difference alone misses |v|^2 by 3.3e-4 at h=1e-3
    out = tmp_path / "geo.csv"
    assert run("geodesic", "--q0", "1,0,0,0", "--r", "3", "--lambda", "5", "--T", "2", "--out", str(out)) == 0
    capsys.readouterr()
    code = run("check", str(out))
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS velocity-energy" in captured
    assert "FAIL" not in captured
    # a column off by 1e-3 is still caught
    rec = CurveRecord.from_csv(out)
    rec.data[:, 5] += 1e-3
    shifted = tmp_path / "shifted.csv"
    rec.to_csv(shifted)
    code = run("check", str(shifted))
    captured = capsys.readouterr().out
    assert code == 1
    assert "FAIL velocity-energy" in captured


def test_cli_check_detects_scaled_point(tmp_path, capsys):
    out = tmp_path / "geo.csv"
    run("geodesic", "--q0", "1,0,0,0", "--lambda", "0.3", "--T", "1", "--out", str(out))
    rec = CurveRecord.from_csv(out)
    rec.data[5, 1:5] *= 1.01
    rec.to_csv(out)
    code = run("check", str(out))
    captured = capsys.readouterr().out
    assert code != 0
    assert "FAIL unit-norm" in captured


def test_cli_check_connect_file_skips_angle_linearity(tmp_path, capsys):
    out = tmp_path / "conn.csv"
    run("connect", "--from", "0,0.5,1.0", "--to", "1,0.8,1.6",
        "--samples", "1024", "--out", str(out))
    code = run("check", str(out), "--tol", "1e-3")
    captured = capsys.readouterr().out
    assert code == 0
    assert "SKIP angle-linearity (not a geodesic record)" in captured
    assert "PASS horizontality" in captured


def test_cli_check_passes_the_readme_connect_file(tmp_path, capsys):
    # the central differences alone read 4.0e-5 (horizontality) and 5.8e-4
    # (acceleration-T) on this file; extrapolated, 7.1e-8 and 1.0e-6
    out = tmp_path / "connect.csv"
    assert run("connect", "--from", "0,0.5236,1.0472", "--to", "1,0.7854,1.5708",
               "--samples", "256", "--out", str(out)) == 0
    capsys.readouterr()
    assert run("check", str(out), "--tol", "1e-4") == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_check_fails_curves_pushed_off_the_distribution_or_the_sphere(tmp_path, capsys):
    out = tmp_path / "connect.csv"
    assert run("connect", "--from", "0,0.5236,1.0472", "--to", "1,0.7854,1.5708",
               "--samples", "256", "--out", str(out)) == 0
    rec = CurveRecord.from_csv(out)
    s, pts = rec.data[:, 0], rec.data[:, 1:5].copy()
    # q e^{j eps s^2 / 2}: a velocity T component growing to eps = 1e-3 at s = 1,
    # and a T component eps of the acceleration
    rec.data[:, 1:5] = qmul(pts, qexp_pure(np.outer(0.5e-3 * s * s, [0.0, 1.0, 0.0])))
    rec.to_csv(tmp_path / "lifted.csv")
    rec.data[:, 1:5] = pts * (1.0 + 1e-3)
    rec.to_csv(tmp_path / "scaled.csv")
    capsys.readouterr()
    assert run("check", str(tmp_path / "lifted.csv"), "--tol", "1e-4") == 1
    captured = capsys.readouterr().out
    assert "FAIL horizontality" in captured and "FAIL acceleration-T" in captured
    assert "PASS unit-norm" in captured
    assert run("check", str(tmp_path / "scaled.csv"), "--tol", "1e-4") == 1
    assert "FAIL unit-norm" in capsys.readouterr().out


def test_cli_check_stationary_geodesic_skips_angle_linearity(tmp_path, capsys):
    out = tmp_path / "still.csv"
    assert run("geodesic", "--q0", "1,0,0,0", "--r", "0", "--lambda", "0.5",
               "--T", "1", "--out", str(out)) == 0
    capsys.readouterr()
    code = run("check", str(out))
    captured = capsys.readouterr().out
    assert code == 0
    assert "SKIP angle-linearity (zero velocity)" in captured
    assert "FAIL" not in captured


@pytest.mark.parametrize("T, rows", [("0", 1), ("0.001", 2)])
def test_cli_check_short_geodesic_skips_angle_linearity(tmp_path, capsys, T, rows):
    out = tmp_path / "short.csv"
    assert run("geodesic", "--q0", "1,0,0,0", "--T", T, "--out", str(out)) == 0
    assert len(CurveRecord.from_csv(out).data) == rows
    capsys.readouterr()
    code = run("check", str(out))
    captured = capsys.readouterr().out
    assert code == 0
    assert "SKIP angle-linearity (fewer than 3 samples)" in captured
    assert "FAIL" not in captured


def test_cli_check_malformed_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,curve\n")
    assert run("check", str(bad)) == 2


@pytest.mark.parametrize("case", ["repeated", "decreasing"])
def test_cli_check_rejects_a_non_increasing_s(tmp_path, capsys, case):
    out = tmp_path / "geo.csv"
    assert run("geodesic", "--q0", "1,0,0,0", "--lambda", "0.3", "--T", "1", "--step", "0.01", "--out", str(out)) == 0
    rec = CurveRecord.from_csv(out)
    rec.data[4, 0] = rec.data[3 if case == "repeated" else 2, 0]
    rec.to_csv(out)
    capsys.readouterr()
    assert run("check", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_cli_hamiltonian(tmp_path, capsys):
    out = tmp_path / "ham.csv"
    code = run(
        "hamiltonian", "--q0", "1,0,0,0", "--theta0", "0.4", "--lambda", "0.5",
        "--T", "2", "--step", "0.001", "--out", str(out),
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "H_drift=" in captured
    assert run("check", str(out)) == 0


def test_cli_hamiltonian_deterministic_bytes(tmp_path, capsys):
    # five blocks of steps, so the blocked passes and the scan over the horizon all run
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["hamiltonian", "--q0", "1,0,0,0", "--theta0", "0.4", "--lambda", "0.5", "--T", "5", "--step", "0.001"]
    assert run(*args, "--out", str(out_a)) == 0
    assert run(*args, "--out", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert capsys.readouterr().err == ""  # a drift at rounding level warns of nothing


def test_cli_hamiltonian_warns_when_check_would_fail_unit_norm(tmp_path, capsys):
    # a coarse step over a long horizon: the RK4 truncation takes |q| 9.0e-7 off 1
    out = tmp_path / "ham.csv"
    code = run("hamiltonian", "--q0", "1,0,0,0", "--lambda", "3", "--T", "1000", "--step", "0.01",
               "--out", str(out))
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert [line.split("=")[0] for line in lines[:2]] == ["H_drift", "norm_drift"]
    assert lines[2:] == [f"wrote {out}"]
    drift = float(lines[1].split("=")[1])
    assert 1e-8 < drift < 1e-6
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ") and "--step" in err[0]
    # the warning is right: check fails the file on its unit-norm row alone
    assert run("check", str(out)) == 1
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:2] for row in rows if row.startswith("FAIL")] == [["FAIL", "unit-norm"]]


@pytest.mark.parametrize("command", ["geodesic", "hamiltonian"])
def test_cli_header_records_the_grid_step(tmp_path, command):
    # T / h = 1000.5 is cut into 1000 steps of 1.0005e-3, not the requested 1e-3
    out = tmp_path / "c.csv"
    assert run(command, "--q0", "1,0,0,0", "--lambda", "0.5", "--T", "1.0005",
               "--step", "0.001", "--out", str(out)) == 0
    rec = CurveRecord.from_csv(out)
    assert rec.header["h"] == rec.data[1, 0] - rec.data[0, 0]


@pytest.mark.parametrize("command", ["geodesic", "hamiltonian"])
def test_cli_header_records_no_step_at_zero_horizon(tmp_path, command):
    # T = 0 is no step at all, whatever --step asks for
    out = tmp_path / "c.csv"
    assert run(command, "--q0", "1,0,0,0", "--T", "0", "--step", "0.25", "--out", str(out)) == 0
    rec = CurveRecord.from_csv(out)
    assert rec.data.shape[0] == 1
    assert rec.header["h"] == 0
    assert "# h=0\n" in out.read_text()


def test_cli_hamiltonian_explicit_costate(tmp_path, capsys):
    out = tmp_path / "ham.csv"
    assert run("hamiltonian", "--q0", "1,0,0,0", "--xi0", "0.1,-0.9,0.2,0.3",
               "--T", "2", "--out", str(out)) == 0
    header = CurveRecord.from_csv(out).header
    assert header["tag"] == "hamiltonian"
    # the samples come from RK4 on the body costate, as geodesic files say closed_form
    assert header["method"] == "rk4_body"
    assert "\n# method=rk4_body\n" in out.read_text()
    # no profile parameters: r, theta0 and lambda describe only a matched costate
    assert not {"r", "theta0", "lambda"} & header.keys()
    capsys.readouterr()
    assert run("check", str(out)) == 0
    assert "SKIP angle-linearity" in capsys.readouterr().out


def test_cli_hamiltonian_rejects_short_costate(tmp_path, capsys):
    out = tmp_path / "ham.csv"
    assert run("hamiltonian", "--q0", "1,0,0,0", "--xi0", "0.1,-0.9,0.2", "--T", "2", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: initial costate xi0 must be one finite 4-vector, got [0.1, -0.9, 0.2]\n"
    assert not out.exists()


@pytest.mark.parametrize("xi0", ["0.1,0.2,0.3", "0.1,0.2,0.3,0.4,0.5"])
def test_cli_hamiltonian_xi0_count_is_checked_by_the_integrator(tmp_path, capsys, xi0):
    out = tmp_path / "ham.csv"
    assert run("hamiltonian", "--q0", "1,0,0,0", "--xi0", xi0, "--T", "2", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "xi0" in captured.err
    assert captured.out == ""
    assert not out.exists()


_NO_TOL_OR_SEED = [
    ["connect", "--from", "0,0.5,1.0", "--to", "1,0.8,1.6"],
    ["geodesic", "--q0", "1,0,0,0", "--T", "1"],
    ["hamiltonian", "--q0", "1,0,0,0", "--T", "1"],
]


@pytest.mark.parametrize(
    ("argv", "option"),
    [(argv, ["--tol", "1e-6"]) for argv in _NO_TOL_OR_SEED] + [(argv, ["--seed", "7"]) for argv in _NO_TOL_OR_SEED],
    ids=[f"argv{i}" for i in range(3)] + [f"seed-argv{i}" for i in range(3)],
)
def test_cli_takes_tol_only_where_it_is_read(tmp_path, capsys, argv, option):
    """--tol, and --seed too, only on the commands that take them (shoot, and check for --tol)."""
    out = tmp_path / "x.csv"
    assert run(*argv, *option, "--out", str(out)) == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
    assert not out.exists()
    assert run(*argv, "--out", str(out)) == 0


def test_cli_shoot_trivial(tmp_path, capsys):
    out = tmp_path / "shoot.csv"
    code = run("shoot", "--from", "1,0,0,0", "--to", "1,0,0,0", "--out", str(out))
    captured = capsys.readouterr().out
    assert code == 0
    assert "T=0" in captured
    assert "converged=True" in captured


def test_cli_shoot_round_trip(tmp_path, capsys):
    geo = tmp_path / "geo.csv"
    run("geodesic", "--q0", "1,0,0,0", "--theta0", "0.4", "--lambda", "0.6",
        "--T", "1.3", "--step", "0.001", "--out", str(geo))
    end = CurveRecord.from_csv(geo).data[-1, 1:5]
    out = tmp_path / "shoot.csv"
    code = run(
        "shoot", "--from", "1,0,0,0", "--to", ",".join(format(v, ".17g") for v in end),
        "--out", str(out),
    )
    captured = capsys.readouterr().out
    assert code == 0
    values = dict(
        line.split("=", 1) for line in captured.splitlines() if "=" in line and "wrote" not in line
    )
    assert float(values["endpoint_error"]) <= 1e-6
    assert abs(float(values["theta0"]) - 0.4) <= 1e-4
    assert abs(float(values["lambda"]) - 0.6) <= 1e-4
    assert abs(float(values["T"]) - 1.3) <= 1e-4


def test_cli_shoot_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["shoot", "--from", "1,0,0,0", "--to", "0,0,1,0", "--seed", "11"]
    assert run(*args, "--out", str(out_a)) == 0
    assert run(*args, "--out", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_shoot_nonconvergence_exit_code(tmp_path, capsys):
    out = tmp_path / "shoot.csv"
    code = run(
        "shoot", "--from", "1,0,0,0", "--to", "0,0,1,0",
        "--tol", "1e-18", "--out", str(out),
    )
    captured = capsys.readouterr().out
    assert code == 4
    assert "converged=False" in captured
    assert out.exists()  # best-effort curve still written


def test_cli_frames(capsys):
    assert run("frames", "--at", "1,0,0,0") == 0
    captured = capsys.readouterr().out
    assert "X=" in captured and "N=1" in captured


def test_cli_normalization_policy(tmp_path, capsys):
    out = tmp_path / "geo.csv"
    # moderate deviation: silently normalized
    assert run("geodesic", "--q0", "1.000000001,0,0,0", "--T", "0.1", "--out", str(out)) == 0
    # large deviation: rejected
    assert run("geodesic", "--q0", "1.5,0,0,0", "--T", "0.1", "--out", str(out)) == 2
    capsys.readouterr()
    # either side of each threshold: kept to 1e-12, normalized silently to
    # 1e-8, normalized with a warning to 1e-3, rejected beyond
    for dev in (0.5e-12, 2e-12, 0.5e-8, 2e-8, 0.5e-3, 2e-3):
        q = (1.0 + dev) * np.array([0.5, 0.5, 0.5, 0.5])
        text = ",".join(format(v, ".17g") for v in q)
        code = run("geodesic", "--q0", text, "--T", "0.1", "--out", str(out))
        assert code == (2 if dev > 1e-3 else 0)
        assert ("warning" in capsys.readouterr().err) == (1e-8 < dev <= 1e-3)
        if code == 0:
            first = CurveRecord.from_csv(out).data[0, 1:5]
            assert np.array_equal(first, q if dev <= 1e-12 else normalize(q))


def test_cli_json_format(tmp_path):
    out = tmp_path / "conn.json"
    assert run("connect", "--from", "0,0.5,1.0", "--to", "1,0.8,1.6",
               "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["format"] == "s3sr-curve v1"
    assert len(payload["rows"]) == 256
