"""Output checks: structure of every CLI result, and recorded reference values.

The readers here are written against the documented file formats, not with
relprop's own readers, so a bug in the program's writer and reader cannot
cancel out.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

METHODS = ("lrp", "clrp", "sglrp", "random")
PATCHES = 5  # default patch sizes 1,3,5,7,9
ENERGIES = 10  # default energies 0.1..1.0
REL_TOL = 1e-6  # allows float reassociation in a rewritten kernel
ABS_TOL = 1e-9


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def check_table(out_dir: Path, stem: str, per_image: int, groups: int) -> list[str]:
    """Row counts and finite values of `<stem>.csv` and `<stem>_aggregate.csv`."""
    problems = []
    for name, expected in ((f"{stem}.csv", per_image), (f"{stem}_aggregate.csv", groups)):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        rows = read_csv(path)
        if len(rows) != expected + 1:
            problems.append(f"{name}: {len(rows) - 1} rows, expected {expected}")
        if not all(math.isfinite(c) for row in numeric(rows) for c in row if isinstance(c, float)):
            problems.append(f"{name}: non-finite value")
    meta = out_dir / f"{stem}_meta.json"
    try:
        json.loads(meta.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{meta.name}: {exc}")
    return problems


def check_masking(out_dir: Path, images: int) -> list[str]:
    return check_table(out_dir, "masking", images * len(METHODS) * PATCHES, len(METHODS) * PATCHES)


def check_pointing(out_dir: Path, images: int) -> list[str]:
    return check_table(out_dir, "pointing", images * len(METHODS) * ENERGIES, len(METHODS) * ENERGIES)


def skipped_rows(out_dir: Path) -> tuple[int, int]:
    """(skipped, total) data rows of pointing.csv."""
    rows = read_csv(out_dir / "pointing.csv")[1:]
    return sum(row[-1] == "skipped" for row in rows), len(rows)


def read_map(prefix: Path) -> np.ndarray:
    """The `.f32` dump: two little-endian uint32 extents, then float64 values."""
    data = prefix.with_suffix(".f32").read_bytes()
    h, w = struct.unpack("<II", data[:8])
    return np.frombuffer(data[8:], dtype="<f8").reshape(h, w)


def read_pgm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    if header is None:
        raise ValueError(f"{path.name}: not an 8-bit binary PGM")
    w, h = int(header.group(1)), int(header.group(2))
    return np.frombuffer(data[header.end() :], dtype=np.uint8).reshape(h, w)


def check_map(prefix: Path, size: int) -> list[str]:
    """The map is non-negative and the PGM decodes to a monotone quantization of it."""
    try:
        values = read_map(prefix)
        pixels = read_pgm(prefix.with_suffix(".pgm"))
    except (OSError, ValueError, struct.error) as exc:
        return [f"{prefix.name}: {exc}"]
    if values.shape != (size, size) or pixels.shape != values.shape:
        return [f"{prefix.name}: map {values.shape}, pgm {pixels.shape}, expected {size}x{size}"]
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        return [f"{prefix.name}: map has negative or non-finite values"]
    by_value = pixels.reshape(-1)[np.argsort(values.reshape(-1), kind="stable")]
    if np.any(np.diff(by_value.astype(np.int16)) < 0) or np.any(pixels[values == 0]):
        return [f"{prefix.name}: pgm is not a quantization of the map"]
    return []


def parse_predict(stdout: str, top: int, classes: int) -> list[list[float]] | None:
    """`rank class probability` lines, or None when malformed."""
    try:
        rows = [[int(r), int(c), float(p)] for r, c, p in (line.split() for line in stdout.splitlines())]
    except ValueError:
        return None
    ranks = [r for r, _, _ in rows]
    labels = {c for _, c, _ in rows}
    probs = [p for _, _, p in rows]
    if (
        ranks != list(range(1, top + 1))
        or len(labels) != top
        or not labels <= set(range(classes))
        or any(not 0.0 <= p <= 1.0 for p in probs)
        or probs != sorted(probs, reverse=True)
    ):
        return None
    return rows


def numeric(rows: list[list[str]]) -> list[list]:
    """CSV cells as floats where they parse, strings otherwise."""
    out = []
    for row in rows:
        cells = []
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        out.append(cells)
    return out


def same(a, b) -> bool:
    """Recursive equality; numbers within REL_TOL/ABS_TOL."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b
