"""Curve-file formats: columnar CSV and JSON with exact round-tripping.

CSV layout is bit-stable: '#'-prefixed header lines (a format marker,
sorted key=value metadata, the column list), then comma-separated rows
rendered with 17 significant digits and LF line endings.  Column order
is fixed: s, x1, x2, y1, y2, a, b, omega_res.  Rows are written and
parsed in blocks of 1024 (one '%.17g' block template per block, one
numpy conversion per block), with the same bytes and values as a
per-value writer and reader; a block holding a blank, comment or
malformed line is parsed line by line, so errors still name their line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curves import SampledCurve, fd_velocities, omega_fd_residuals, unit_norm_error
from .frames import frame_ab
from .geodesics import GeodesicParams, ab_profile

__all__ = ["COLUMNS", "CurveRecord", "FORMAT_MARKER"]

COLUMNS = ("s", "x1", "x2", "y1", "y2", "a", "b", "omega_res")
FORMAT_MARKER = "s3sr-curve v1"


# rows per tolist() call and '%' format when writing and per np.array call
# when parsing; it also bounds the Python objects held at once
_BLOCK = 1024
_ROW = ",".join(["%.17g"] * len(COLUMNS))


@dataclass
class CurveRecord:
    """Header metadata plus an (n, 8) table in COLUMNS order."""

    header: dict
    data: np.ndarray

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.data.shape[1] != len(COLUMNS):
            raise ValueError(f"curve table needs {len(COLUMNS)} columns")

    # -- construction -------------------------------------------------

    @classmethod
    def from_curve(cls, curve: SampledCurve, **extra_header) -> "CurveRecord":
        """Build a record, filling the a, b columns from the best source.

        Geodesic-tagged curves use the closed-form control profile;
        otherwise frame components of the stored (or finite-difference)
        velocities are used.  omega_res is the finite-difference
        horizontality residual (0 for single-sample curves).
        """
        n = curve.n
        meta = dict(curve.meta)
        meta.update(extra_header)
        if meta.get("tag") in ("geodesic", "hamiltonian") and "lambda" in meta:
            params = GeodesicParams(meta.get("r", 1.0), meta.get("theta0", 0.0), meta["lambda"])
            a, b = ab_profile(params, curve.s)
        else:
            vel = curve.velocities if curve.velocities is not None else (
                fd_velocities(curve) if n >= 2 else np.zeros_like(curve.points)
            )
            a, b = frame_ab(curve.points, vel)
        omega_res = omega_fd_residuals(curve) if n >= 2 else np.zeros(1)
        table = np.column_stack([curve.s, curve.points, a, b, omega_res])
        header = {str(k): v for k, v in meta.items() if _scalarish(v)}
        return cls(header, table)

    def to_sampled_curve(self) -> SampledCurve:
        """Points-only curve (velocities are not stored in files)."""
        return SampledCurve(self.data[:, 0], self.data[:, 1:5], None, dict(self.header))

    # -- validation ----------------------------------------------------

    def validate(self, unit_tol=1e-8):
        s = self.data[:, 0]
        if len(s) > 1 and np.any(np.diff(s) <= 0.0):
            raise ValueError("s column must be strictly increasing")
        dev = unit_norm_error(self.to_sampled_curve())
        if dev > unit_tol:
            raise ValueError(f"curve points leave the sphere by {dev:.3e}")

    # -- CSV -----------------------------------------------------------

    def to_csv(self, path):
        lines = [f"# {FORMAT_MARKER}"]
        for key in sorted(self.header):
            lines.append(f"# {key}={_header_str(self.header[key])}")
        lines.append("# columns: " + ",".join(COLUMNS))
        for start in range(0, len(self.data), _BLOCK):
            block = self.data[start : start + _BLOCK]
            lines.append("\n".join([_ROW] * len(block)) % tuple(block.ravel().tolist()))
        Path(path).write_text("\n".join(lines) + "\n", newline="\n")

    @classmethod
    def from_csv(cls, path) -> "CurveRecord":
        return cls._from_csv_text(Path(path).read_text())

    @classmethod
    def _from_csv_text(cls, text) -> "CurveRecord":
        header: dict = {}
        lines = text.splitlines()
        # the header lines above the first data line go line by line
        body = next((i for i, line in enumerate(lines) if line.strip()[:1] not in ("", "#")), len(lines))
        _parse_lines(lines[:body], 1, header)
        blocks = []
        for start in range(body, len(lines), _BLOCK):
            block = lines[start : start + _BLOCK]
            try:
                rows = np.array([line.split(",") for line in block], dtype=float)
                if rows.shape[1] != len(COLUMNS):
                    raise ValueError
            except ValueError:  # a blank, comment or malformed line: parse line by line
                rows = np.array(_parse_lines(block, start + 1, header), dtype=float).reshape(-1, len(COLUMNS))
            blocks.append(rows)
        if not sum(len(rows) for rows in blocks):
            raise ValueError("no data rows found")
        return cls(header, np.concatenate(blocks))

    # -- JSON ----------------------------------------------------------

    def to_json(self, path):
        import json
        payload = {
            "format": FORMAT_MARKER,
            "header": self.header,
            "columns": list(COLUMNS),
            "rows": [list(map(float, row)) for row in self.data],
        }
        Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", newline="\n")

    @classmethod
    def from_json(cls, path) -> "CurveRecord":
        return cls._from_json_text(Path(path).read_text())

    @classmethod
    def _from_json_text(cls, text) -> "CurveRecord":
        import json
        payload = json.loads(text)
        if payload.get("format") != FORMAT_MARKER or "rows" not in payload:
            raise ValueError("not a curve file")
        return cls(dict(payload.get("header", {})), np.array(payload["rows"], dtype=float))

    # -- generic -------------------------------------------------------

    def write(self, path, fmt):
        if fmt == "csv":
            self.to_csv(path)
        elif fmt == "json":
            self.to_json(path)
        else:
            raise ValueError(f"unknown format {fmt!r}")

    @classmethod
    def read(cls, path) -> "CurveRecord":
        text = Path(path).read_text()
        if text.lstrip().startswith("{"):
            return cls._from_json_text(text)
        return cls._from_csv_text(text)


def _scalarish(v) -> bool:
    return isinstance(v, (int, float, str, bool, np.integer, np.floating))


def _header_str(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _parse_lines(lines, first, header) -> list:
    """Rows of CSV lines numbered from `first`; '#' lines fill `header`."""
    rows = []
    for lineno, line in enumerate(lines, first):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body == FORMAT_MARKER or body.startswith("columns:"):
                continue
            if "=" in body:
                key, value = body.split("=", 1)
                header[key.strip()] = _parse_value(value.strip())
            continue
        parts = line.split(",")
        if len(parts) != len(COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(COLUMNS)} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return rows


def _parse_value(v: str):
    try:
        return int(v)
    except ValueError:
        pass
    try:
        return float(v)
    except ValueError:
        return v
