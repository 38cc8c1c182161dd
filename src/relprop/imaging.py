"""Binary PPM/PGM image handling, model input preparation, heatmap rendering.

Only 8-bit binary formats are supported: P6 for color reads/writes, P5 for
grayscale. Headers follow the netpbm rules: whitespace-separated tokens,
`#` comments running to end of line, width, height and maxval in ASCII decimal
digits, and exactly one whitespace byte between the maxval and the sample data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ImageFormatError, ShapeError
from .model import NetworkModel


@dataclass(frozen=True)
class RgbImage:
    """8-bit RGB raster, row-major, 3 samples per pixel."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ImageFormatError(f"image extent {self.width}x{self.height} invalid")
        if len(self.pixels) != 3 * self.width * self.height:
            raise ImageFormatError(
                f"pixel payload {len(self.pixels)} bytes !="
                f" {3 * self.width * self.height} for {self.width}x{self.height} RGB"
            )


class _HeaderReader:
    """Tokenizer for netpbm headers over raw bytes."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def token(self) -> bytes:
        data, n = self.data, len(self.data)
        while self.pos < n:
            b = self.data[self.pos]
            if b in b" \t\r\n\x0b\x0c":
                self.pos += 1
            elif b == ord("#"):
                while self.pos < n and self.data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                break
        if self.pos >= n:
            raise ImageFormatError(f"{self.path}: truncated header")
        start = self.pos
        while self.pos < n and data[self.pos] not in b" \t\r\n\x0b\x0c#":
            self.pos += 1
        return data[start : self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token()
        if not tok.isdigit():  # ASCII digits only; int() would also take "+4" and "1_0"
            raise ImageFormatError(f"{self.path}: non-numeric {what} {tok!r}")
        return int(tok)

    def payload_after_maxval(self, count: int) -> bytes:
        # exactly one whitespace byte separates maxval from samples
        if self.pos >= len(self.data) or self.data[self.pos] not in b" \t\r\n\x0b\x0c":
            raise ImageFormatError(f"{self.path}: missing whitespace after maxval")
        self.pos += 1
        payload = self.data[self.pos : self.pos + count]
        if len(payload) < count:
            raise ImageFormatError(
                f"{self.path}: payload truncated, expected {count} bytes, got {len(payload)}"
            )
        return payload


def _read_netpbm(path: str | Path, magic: bytes, samples: int) -> tuple[int, int, bytes]:
    """(width, height, payload) of a binary netpbm file, maxval 255, `samples` bytes a pixel."""
    reader = _HeaderReader(Path(path).read_bytes(), str(path))
    found = reader.token()
    if found != magic:
        raise ImageFormatError(f"{path}: unsupported magic {found!r}, only binary {magic.decode()} is read")
    width = reader.int_token("width")
    height = reader.int_token("height")
    maxval = reader.int_token("maxval")
    if maxval != 255:
        raise ImageFormatError(f"{path}: maxval {maxval} unsupported, must be 255")
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: invalid extent {width}x{height}")
    return width, height, reader.payload_after_maxval(samples * width * height)


def read_ppm(path: str | Path) -> RgbImage:
    """Read a binary P6 PPM with maxval 255."""
    width, height, pixels = _read_netpbm(path, b"P6", 3)
    return RgbImage(width=width, height=height, pixels=pixels)


def write_ppm(image: RgbImage, path: str | Path) -> None:
    """Write a binary P6 PPM with maxval 255."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels)


def write_pgm(samples: np.ndarray, path: str | Path) -> None:
    """Write a [H,W] uint8 array as a binary P5 PGM with maxval 255."""
    if samples.ndim != 2 or samples.dtype != np.uint8:
        raise ShapeError(f"write_pgm: need a 2-D uint8 array, got {samples.dtype} {samples.shape}")
    h, w = samples.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + samples.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 PGM with maxval 255 into a [H,W] uint8 array."""
    width, height, payload = _read_netpbm(path, b"P5", 1)
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def _nearest_indices(dst: int, src: int) -> np.ndarray:
    # floor mapping: identity when dst == src
    return (np.arange(dst) * src) // dst


def preprocess(image: RgbImage, model: NetworkModel, subtract_mean: bool = True) -> np.ndarray:
    """Center-crop to a square, nearest-neighbor resize to the model input, float.

    With subtract_mean the per-channel dataset means are removed, yielding the
    tensor the network consumes directly; without it the result stays in raw
    sample units (for masking experiments that fill with dataset means).
    """
    h_in, w_in, c_in = model.input_shape
    if c_in != 3:
        raise ShapeError(f"preprocess: model expects {c_in} channels, PPM input is RGB")
    arr = (
        np.frombuffer(image.pixels, dtype=np.uint8)
        .reshape(image.height, image.width, 3)
        .astype(np.float64)
    )
    side = min(image.width, image.height)
    top = (image.height - side) // 2
    left = (image.width - side) // 2
    cropped = arr[top : top + side, left : left + side]
    rows = _nearest_indices(h_in, side)
    cols = _nearest_indices(w_in, side)
    resized = cropped[np.ix_(rows, cols)]
    if subtract_mean:
        resized = resized - model.preprocessing.means
    return np.ascontiguousarray(resized)


def render_heatmap(values: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Quantize a relevance map to 8-bit grayscale.

    The map is scaled by 1/max(|raw|) over the signed input relevance, clamped
    to [0, 1], and rounded half-up to 0..255. An all-zero map renders black.
    Scaling by the signed extremum makes the rendering invariant to uniform
    rescaling of the relevance.
    """
    if values.ndim != 2:
        raise ShapeError(f"render_heatmap: map must be 2-D, got {values.shape}")
    peak = float(np.max(np.abs(raw))) if raw.size else 0.0
    scaled = values / peak if peak > 0 else np.zeros_like(values)
    clamped = np.clip(scaled, 0.0, 1.0)
    return np.floor(clamped * 255.0 + 0.5).astype(np.uint8)
