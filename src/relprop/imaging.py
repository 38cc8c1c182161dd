"""Binary PPM/PGM image handling, model input preparation, heatmap rendering.

Only 8-bit binary formats are supported: P6 for color reads/writes, P5 for
grayscale. Headers follow the netpbm rules: whitespace-separated tokens,
`#` comments running to end of line, width, height and maxval in ASCII decimal
digits, and exactly one whitespace byte between the maxval and the sample data.
An image is a uint8 array, [H,W,3] for a PPM and [H,W] for a PGM; preprocess
turns an RGB one into the model input that forward takes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ImageFormatError, ShapeError
from .model import NetworkModel


class _HeaderReader:
    """Tokenizer for netpbm headers over raw bytes; an error shows at most 20 bytes of a token."""

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
            more = "..." if len(tok) > 20 else ""
            raise ImageFormatError(f"{self.path}: non-numeric {what} {tok[:20]!r}{more}")
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


def _read_netpbm(path: str | Path, magic: bytes, channels: tuple[int, ...]) -> np.ndarray:
    """[H, W, *channels] uint8 samples of a binary netpbm file with maxval 255."""
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
    shape = (height, width, *channels)
    payload = reader.payload_after_maxval(math.prod(shape))
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape).copy()


def _write_netpbm(samples: np.ndarray, path: str | Path, magic: str) -> None:
    h, w = samples.shape[:2]
    Path(path).write_bytes(f"{magic}\n{w} {h}\n255\n".encode("ascii") + samples.tobytes())


def _described(x) -> str:
    return f"{x.dtype} {x.shape}" if isinstance(x, np.ndarray) else type(x).__name__


def _check_rgb(image: np.ndarray, what: str) -> None:
    if not isinstance(image, np.ndarray) or (
            image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8 or image.size == 0):
        raise ShapeError(f"{what}: need a non-empty [H,W,3] uint8 array, got {_described(image)}")


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary P6 PPM with maxval 255 into an [H,W,3] uint8 array."""
    return _read_netpbm(path, b"P6", (3,))


def write_ppm(samples: np.ndarray, path: str | Path) -> None:
    """Write a non-empty [H,W,3] uint8 array as a binary P6 PPM with maxval 255."""
    _check_rgb(samples, "write_ppm")
    _write_netpbm(samples, path, "P6")


def write_pgm(samples: np.ndarray, path: str | Path) -> None:
    """Write a [H,W] uint8 array as a binary P5 PGM with maxval 255."""
    if not isinstance(samples, np.ndarray) or samples.ndim != 2 or samples.dtype != np.uint8:
        raise ShapeError(f"write_pgm: need a 2-D uint8 array, got {_described(samples)}")
    _write_netpbm(samples, path, "P5")


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 PGM with maxval 255 into a [H,W] uint8 array."""
    return _read_netpbm(path, b"P5", ())


def _nearest_indices(dst: int, src: int) -> np.ndarray:
    # floor mapping: identity when dst == src
    return (np.arange(dst) * src) // dst


def preprocess(image: np.ndarray, model: NetworkModel, subtract_mean: bool = True) -> np.ndarray:
    """The model input of a non-empty [H,W,3] uint8 image: center-cropped to a square,
    nearest-neighbor resized to the model's input extent, float64, less the per-channel
    dataset means. This is the one place the means are subtracted; forward, explain and
    the evaluation harnesses take its output. subtract_mean=False keeps raw sample units,
    which are no model input.
    """
    _check_rgb(image, "preprocess")
    h_in, w_in, c_in = model.input_shape
    if c_in != 3:
        raise ShapeError(f"preprocess: model expects {c_in} channels, PPM input is RGB")
    height, width, _ = image.shape
    side = min(width, height)
    top = (height - side) // 2
    left = (width - side) // 2
    cropped = image[top : top + side, left : left + side]
    rows = _nearest_indices(h_in, side)
    cols = _nearest_indices(w_in, side)
    resized = cropped[np.ix_(rows, cols)].astype(np.float64)
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
