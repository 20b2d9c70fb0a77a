"""Curve-file formats: columnar CSV and JSON with exact round-tripping.

CSV layout is bit-stable: '#'-prefixed header lines (a format marker,
sorted key=value metadata, the column list), then comma-separated rows
rendered with 17 significant digits and LF line endings.  Column order
is fixed: s, x1, x2, y1, y2, a, b, omega_res.  Rows are written in
blocks of 1024 (one '%.17g' block template per block), with the same
bytes as a per-value writer.  The reader makes one pass over the lines,
collecting every data field in one flat list that one numpy conversion
turns into floats, with the values float() gives; blank and '#' lines
may appear anywhere, and a malformed line is named by its number.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .curves import SampledCurve, fd_velocities, omega_fd_residuals
from .frames import frame_ab

__all__ = ["COLUMNS", "CurveRecord", "FORMAT_MARKER"]

COLUMNS = ("s", "x1", "x2", "y1", "y2", "a", "b", "omega_res")
FORMAT_MARKER = "s3sr-curve v1"


# rows per tolist() call and '%' format when writing; it also bounds the
# Python objects held at once
_BLOCK = 1024
_ROW = ",".join(["%.17g"] * len(COLUMNS))


class CurveRecord:
    """Header metadata plus an (n, 8) table in COLUMNS order."""

    def __init__(self, header: dict, data):
        self.header = header
        self.data = np.atleast_2d(np.asarray(data, dtype=float))
        if self.data.shape[1] != len(COLUMNS):
            raise ValueError(f"curve table needs {len(COLUMNS)} columns")

    # -- construction -------------------------------------------------

    @classmethod
    def from_curve(cls, curve: SampledCurve, **extra_header) -> "CurveRecord":
        """Build a record whose a, b columns are the frame components of the curve's velocities.

        Those are the stored velocities, or finite differences for a curve
        without them (zeros for a single sample).  omega_res is the
        finite-difference horizontality residual (0 for single-sample
        curves).
        """
        n = curve.n
        meta = dict(curve.meta)
        meta.update(extra_header)
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
        fields: list = []  # the data lines' fields, flat and in order
        linenos: list = []  # the line number of each data line
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if line[:1] == "#":
                key, eq, value = line[1:].partition("=")
                if eq and not key.strip().startswith("columns:"):
                    header[key.strip()] = _parse_value(value.strip())
            elif line:
                parts = line.split(",")
                if len(parts) != len(COLUMNS):
                    _as_floats(fields, linenos)  # a bad value on an earlier line is named first
                    raise ValueError(f"line {lineno}: expected {len(COLUMNS)} fields, got {len(parts)}")
                fields += parts
                linenos.append(lineno)
        if not linenos:
            raise ValueError("no data rows found")
        return cls(header, _as_floats(fields, linenos).reshape(-1, len(COLUMNS)))

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


def _as_floats(fields, linenos) -> np.ndarray:
    """The CSV fields as floats; the first one float() rejects is named by its line."""
    try:
        return np.array(fields, dtype=float)
    except ValueError:
        for i, field in enumerate(fields):
            try:
                float(field)
            except ValueError as exc:
                raise ValueError(f"line {linenos[i // len(COLUMNS)]}: {exc}") from None
        raise


def _parse_value(v: str):
    try:
        return int(v)
    except ValueError:
        pass
    try:
        return float(v)
    except ValueError:
        return v
