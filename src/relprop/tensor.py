"""Dense numeric kernels for small feed-forward CNNs.

All kernels take and return float64 numpy arrays in row-major layout:
images are [H, W, C], convolution weights [C_out, C_in, kh, kw], dense
weights [out, in]. The forward kernels also take a stack of images with one
leading axis, which maps row by row. Every kernel is pure and allocates its
result.

Output extents come only from conv_extent and pool_extent, which the kernels
and the model's shape inference share, so a geometry fails the same way everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{what}: non-finite values present")
    return arr


def conv_extent(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    """Output (rows, cols) of a kh x kw conv over h x w: (H + 2*pad - kh) // stride + 1.

    Raises ShapeError for stride < 1, pad < 0, or a kernel larger than the padded input.
    """
    hp, wp = h + 2 * pad, w + 2 * pad
    if stride < 1 or pad < 0 or hp < kh or wp < kw:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} stride={stride} pad={pad} does not fit {h}x{w}")
    return (hp - kh) // stride + 1, (wp - kw) // stride + 1


def pool_extent(h: int, w: int, kh: int, kw: int, stride: int) -> tuple[int, int]:
    """Output (rows, cols) of an unpadded kh x kw pool over h x w, whose windows
    must tile it exactly; raises ShapeError otherwise or for a size below 1."""
    if min(kh, kw, stride) < 1 or h < kh or w < kw or (h - kh) % stride or (w - kw) % stride:
        raise ShapeError(f"maxpool: window {kh}x{kw} stride={stride} does not tile {h}x{w}")
    return (h - kh) // stride + 1, (w - kw) // stride + 1


def conv2d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Cross-correlate x [H,W,C] with weights [C_out,C,kh,kw], zero padding only.

    The output extent is conv_extent's. x may carry one leading image axis
    [N, H, W, C]; each image maps on its own.
    """
    if x.ndim not in (3, 4):
        raise ShapeError(f"conv2d: input must be [H,W,C] or [N,H,W,C], got shape {x.shape}")
    if weights.ndim != 4:
        raise ShapeError(f"conv2d: weights must be [out,in,kh,kw], got shape {weights.shape}")
    h, w, c = x.shape[-3:]
    c_out, c_in, kh, kw = weights.shape
    if c_in != c:
        raise ShapeError(f"conv2d: input has {c} channels, weights expect {c_in}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")
    h_out, w_out = conv_extent(h, w, kh, kw, stride, pad)
    lead = ((0, 0),) * (x.ndim - 3)
    padded = np.pad(x, lead + ((pad, pad), (pad, pad), (0, 0))) if pad else x
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(-3, -2))
    windows = windows[..., ::stride, ::stride, :, :, :]
    out = np.einsum("...xyckl,ockl->...xyo", windows, weights, optimize=True) + bias
    assert out.shape == x.shape[:-3] + (h_out, w_out, c_out)
    return _check_finite(np.ascontiguousarray(out), "conv2d output")


def conv2d_transpose(
    grad: np.ndarray,
    weights: np.ndarray,
    input_shape: tuple[int, int, int],
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Adjoint of conv2d_forward with respect to its input (bias ignored).

    Maps a tensor shaped like the conv output back onto the input grid:
    result[n] = sum over output positions m of weights[n, m] * grad[m].
    grad may carry one leading axis [K, H', W', C_out]; each row maps on its own.
    """
    h, w, c = input_shape
    c_out, c_in, kh, kw = weights.shape
    if c_in != c:
        raise ShapeError(f"conv2d_transpose: input has {c} channels, weights expect {c_in}")
    h_out, w_out = conv_extent(h, w, kh, kw, stride, pad)
    if grad.ndim > 4 or grad.shape[-3:] != (h_out, w_out, c_out):
        raise ShapeError(f"conv2d_transpose: grad {grad.shape} != output {(h_out, w_out, c_out)}")
    # One GEMM gives every tap's contribution at every output position; the
    # col2im scatter then adds tap (i, j) onto the input rows and columns it read.
    # Channels go first in both so each slice-add runs along whole output rows.
    taps = weights.transpose(2, 3, 1, 0).reshape(kh * kw * c, c_out)
    cols = (taps @ grad.reshape(-1, c_out).T).reshape(kh, kw, c, -1, h_out, w_out)
    acc = np.zeros((c, cols.shape[3], h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            acc[..., i : i + stride * h_out : stride, j : j + stride * w_out : stride] += cols[i, j]
    out = acc[..., pad : pad + h, pad : pad + w].transpose(1, 2, 3, 0)
    return np.ascontiguousarray(out).reshape(grad.shape[:-3] + (h, w, c))


@dataclass(frozen=True)
class PoolArgmax:
    """Winner positions of one max-pooling application.

    Holds the pool's input and output arrays (not copies). indices holds, for
    each output element, the flat row-major index of the winning element in
    the pool's input tensor; it is derived on first read and cached, so a
    forward pass that is never explained never pays for it. Ties resolve to
    the lowest row-major index. A pooled stack [N, H, W, C] indexes within each image.
    """

    input: np.ndarray
    output: np.ndarray
    kh: int
    kw: int
    stride: int

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.input.shape

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.output.shape

    @cached_property
    def indices(self) -> np.ndarray:
        _, w, c = self.input.shape[-3:]
        h_out, w_out, _ = self.output.shape[-3:]
        s = self.stride
        # Visit taps last to first so the first tap equal to the max is written last.
        offset = np.zeros(self.output.shape, dtype=np.int64)
        for i in reversed(range(self.kh)):
            for j in reversed(range(self.kw)):
                tap = self.input[..., i : i + s * h_out : s, j : j + s * w_out : s, :]
                offset[tap == self.output] = i * w + j
        corner = np.arange(h_out)[:, None, None] * s * w + np.arange(w_out)[None, :, None] * s
        return (corner + offset) * c + np.arange(c)


def maxpool_forward(
    x: np.ndarray, kh: int, kw: int, stride: int
) -> tuple[np.ndarray, PoolArgmax]:
    """Max-pool x [H,W,C] with a kh x kw window. No padding; windows must tile exactly.

    Ties inside a window resolve to the lowest row-major input index. x may
    carry one leading image axis [N, H, W, C]; each image pools on its own.
    """
    if x.ndim not in (3, 4):
        raise ShapeError(f"maxpool: input must be [H,W,C] or [N,H,W,C], got shape {x.shape}")
    h_out, w_out = pool_extent(*x.shape[-3:-1], kh, kw, stride)
    out = x[..., : stride * h_out : stride, : stride * w_out : stride, :].copy()
    for i in range(kh):
        for j in range(kw):
            if i or j:
                tap = x[..., i : i + stride * h_out : stride, j : j + stride * w_out : stride, :]
                np.maximum(out, tap, out=out)
    return out, PoolArgmax(input=x, output=out, kh=kh, kw=kw, stride=stride)


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map weights [M,N] @ x [N] + bias [M].

    x may carry one leading image axis [B, N]. Each row is its own matrix-vector
    product, so a row sums in the same order as a call on that row alone.
    """
    if x.ndim not in (1, 2):
        raise ShapeError(f"dense: input must be [N] or [B,N], got shape {x.shape}")
    if weights.ndim != 2 or weights.shape[1] != x.shape[-1]:
        raise ShapeError(f"dense: weights {weights.shape} incompatible with input {x.shape}")
    if bias.shape != (weights.shape[0],):
        raise ShapeError(f"dense: bias shape {bias.shape} != ({weights.shape[0]},)")
    return _check_finite((weights @ x[..., None])[..., 0] + bias, "dense output")


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def flatten(x: np.ndarray, lead: int = 0) -> np.ndarray:
    """Row-major flatten to 1-D, keeping the first `lead` axes (0 or 1)."""
    return x.reshape(x.shape[:lead] + (-1,)).copy()


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax of a logit vector (max subtracted before exponentiation).

    z may carry one leading image axis [N, classes]; each row normalizes on its own.
    """
    if z.ndim not in (1, 2):
        raise ShapeError(f"softmax: input must be [classes] or [N,classes], got shape {z.shape}")
    if z.size == 0:
        raise ShapeError("softmax: empty input")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return _check_finite(e / np.sum(e, axis=-1, keepdims=True), "softmax output")
