"""Dense numeric kernels for small feed-forward CNNs.

All kernels take and return float64 numpy arrays in row-major layout:
images are [H, W, C], convolution weights [C_out, C_in, kh, kw], dense
weights [out, in]. The forward kernels also take a stack of images with one
leading axis, which maps row by row. Every kernel is pure and allocates its
result. Relu and flatten are one numpy call each, made in the model's layer loop.

Output extents come only from conv_extent and pool_extent, which the kernels
and the model's shape inference share, so a geometry fails the same way everywhere.
"""

from __future__ import annotations

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
    [N, H, W, C]; each image maps on its own. Byte rule: every call runs one GEMM
    over C-contiguous im2col columns, padded with zero columns to a multiple of 8,
    because OpenBLAS sums a tail of 1-4 (mod 8) columns in kernels that round
    differently. So each output value has the same bytes however its positions are
    grouped: an unpadded conv over a crop of the zero-padded input equals that
    slice of the full conv, and a stack equals its images' own calls.
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
    lead = x.shape[:-3]
    padded = np.zeros(lead + (h + 2 * pad, w + 2 * pad, c)) if pad else x
    if pad:
        padded[..., pad : pad + h, pad : pad + w, :] = x
    # im2col as (c, kh, kw, ...lead, x, y): one GEMM column per output position.
    *lead_strides, sh, sw, sc = padded.strides
    cols = np.lib.stride_tricks.as_strided(
        padded, (c, kh, kw) + lead + (h_out, w_out), (sc, sh, sw, *lead_strides, sh * stride, sw * stride))
    m = cols[0, 0, 0].size
    columns = np.empty((c * kh * kw, m + -m % 8))
    columns[:, m:].fill(0.0)
    columns[:, :m].reshape(cols.shape)[...] = cols  # splits axes only, so a view
    gemm = (weights.reshape(c_out, -1) @ columns)[:, :m]
    del columns  # freed before the transpose copy allocates the output, which can then reuse its memory
    out = np.ascontiguousarray(gemm.T).reshape(lead + (h_out, w_out, c_out))
    out += bias
    return _check_finite(out, "conv2d output")


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

    Order rule: col2im adds the GEMM's tap contributions onto +0.0 in row-major tap order. A
    same-size stride-1 conv adds each tap's whole block at one flat offset, with its padding
    contributions set to +0.0 first: adding +0.0 keeps every sum, as none started at +0.0 is -0.0.
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
    if stride == 1 and (h_out, w_out) == (h, w):
        for t in range(pad):  # tap t reaches pad - t rows (columns) past each edge
            cols[t, ..., : pad - t, :] = cols[kh - 1 - t, ..., t - pad :, :] = 0.0
            cols[:, t, ..., : pad - t] = cols[:, kw - 1 - t, ..., t - pad :] = 0.0
        size, margin = cols[0, 0].size, pad * w + pad
        flat = np.zeros(size + 2 * margin)
        for i in range(kh):
            for j in range(kw):
                at = margin + (i - pad) * w + j - pad  # tap (i, j) shifted by (i - pad, j - pad)
                flat[at : at + size] += cols[i, j].reshape(-1)
        out = flat[margin : margin + size].reshape(c, -1, h, w).transpose(1, 2, 3, 0)
    else:
        acc = np.zeros((c, cols.shape[3], h + 2 * pad, w + 2 * pad))
        for i in range(kh):
            for j in range(kw):
                acc[..., i : i + stride * h_out : stride, j : j + stride * w_out : stride] += cols[i, j]
        out = acc[..., pad : pad + h, pad : pad + w].transpose(1, 2, 3, 0)
    return np.ascontiguousarray(out).reshape(grad.shape[:-3] + (h, w, c))


def pool_winners(x: np.ndarray, out: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """For each element of out = maxpool_forward(x, kh, kw, stride), the flat row-major
    index in x of the element that won its window; ties go to the lowest index. A
    pooled stack [N, H, W, C] indexes within each image."""
    _, w, c = x.shape[-3:]
    h_out, w_out, _ = out.shape[-3:]
    # Visit taps last to first so the first tap equal to the max is written last.
    offset = np.zeros(out.shape, dtype=np.int64)
    for i in reversed(range(kh)):
        for j in reversed(range(kw)):
            tap = x[..., i : i + stride * h_out : stride, j : j + stride * w_out : stride, :]
            offset[tap == out] = i * w + j
    corner = np.arange(h_out)[:, None, None] * stride * w + np.arange(w_out)[None, :, None] * stride
    return (corner + offset) * c + np.arange(c)


def maxpool_forward(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Max-pool x [H,W,C] with a kh x kw window. No padding; windows must tile exactly.

    x may carry one leading image axis [N, H, W, C]; each image pools on its
    own. The winners are not recorded here: pool_winners(x, out, kh, kw, stride)
    derives them when a backward pass needs them.
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
    return out


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
