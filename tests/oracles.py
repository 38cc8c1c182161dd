"""Independent naive-loop reference implementations used to check the package.

Everything here is deliberately written as plain nested loops over the
defining sums, sharing no code with src/, so the two routes can disagree.
The one exception is strided_col2im, a byte reference: it keeps the strided
col2im scatter that conv2d_transpose's contiguous same-size path replaced.
"""

import math

import numpy as np


def naive_conv2d(x, weights, bias, stride=1, pad=0):
    """Quadruple-loop cross-correlation. x [H,W,C], weights [O,C,kh,kw]."""
    h, w, c = x.shape
    o, ci, kh, kw = weights.shape
    assert ci == c
    padded = np.zeros((h + 2 * pad, w + 2 * pad, c))
    padded[pad : pad + h, pad : pad + w] = x
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((h_out, w_out, o))
    for i in range(h_out):
        for j in range(w_out):
            for m in range(o):
                acc = 0.0
                for ki in range(kh):
                    for kj in range(kw):
                        for ch in range(c):
                            acc += padded[i * stride + ki, j * stride + kj, ch] * weights[m, ch, ki, kj]
                out[i, j, m] = acc + bias[m]
    return out


def naive_maxpool(x, kh, kw, stride):
    """Loop max-pool; returns (out, flat winner indices), first max wins ties."""
    h, w, c = x.shape
    h_out = (h - kh) // stride + 1
    w_out = (w - kw) // stride + 1
    out = np.zeros((h_out, w_out, c))
    idx = np.zeros((h_out, w_out, c), dtype=np.int64)
    for i in range(h_out):
        for j in range(w_out):
            for ch in range(c):
                best = -math.inf
                best_flat = -1
                for ki in range(kh):
                    for kj in range(kw):
                        r, col = i * stride + ki, j * stride + kj
                        v = x[r, col, ch]
                        if v > best:
                            best = v
                            best_flat = (r * w + col) * c + ch
                out[i, j, ch] = best
                idx[i, j, ch] = best_flat
    return out, idx


def naive_maxpool_route(relevance, winners, input_shape):
    """Route relevance [K, *pooled] onto K zero tensors of input_shape: one pooled node
    at a time in row-major order, each added onto the input at its flat winner index."""
    out = np.zeros((relevance.shape[0], int(np.prod(input_shape))))
    flat = winners.reshape(-1)
    for k in range(relevance.shape[0]):
        row = relevance[k].reshape(-1)
        for m in range(row.size):
            out[k, flat[m]] += row[m]
    return out.reshape((relevance.shape[0],) + tuple(input_shape))


def naive_dense(x, weights, bias):
    out = np.zeros(weights.shape[0])
    for m in range(weights.shape[0]):
        acc = 0.0
        for n in range(weights.shape[1]):
            acc += weights[m, n] * x[n]
        out[m] = acc + bias[m]
    return out


def naive_softmax(z):
    shifted = [v - max(z) for v in z]
    e = [math.exp(v) for v in shifted]
    total = sum(e)
    return np.array([v / total for v in e])


def softmax_gradient_fd(z, target, step=1e-5):
    """Central finite differences of softmax output `target` w.r.t. each logit."""
    n = len(z)
    grad = np.zeros(n)
    for j in range(n):
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        grad[j] = (naive_softmax(zp)[target] - naive_softmax(zm)[target]) / (2 * step)
    return grad


def unroll_conv_matrix(weights, input_shape, stride=1, pad=0):
    """Dense [M,N] matrix equal to the conv linear map (bias excluded).

    Built from kernel taps by explicit index arithmetic (im2col), not by
    calling any convolution routine.
    """
    h, w, c = input_shape
    o, ci, kh, kw = weights.shape
    assert ci == c
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    mat = np.zeros((h_out * w_out * o, h * w * c))
    for i in range(h_out):
        for j in range(w_out):
            for m in range(o):
                row = (i * w_out + j) * o + m
                for ki in range(kh):
                    for kj in range(kw):
                        r = i * stride + ki - pad
                        col = j * stride + kj - pad
                        if 0 <= r < h and 0 <= col < w:
                            for ch in range(c):
                                mat[row, (r * w + col) * c + ch] = weights[m, ch, ki, kj]
    return mat


def strided_col2im(grad, weights, input_shape, stride=1, pad=0):
    """conv2d's input adjoint as one GEMM of the taps [kh*kw*C, C_out] against the grad
    rows, then a scatter that adds tap (i, j), in row-major tap order, onto a zero-padded
    channel-first accumulator with one strided slice-add per tap. It is the byte reference
    for any col2im that keeps that GEMM and each element's order of adds. grad may carry
    one leading axis."""
    h, w, c = input_shape
    c_out, _, kh, kw = weights.shape
    h_out, w_out = grad.shape[-3:-1]
    taps = weights.transpose(2, 3, 1, 0).reshape(kh * kw * c, c_out)
    cols = (taps @ grad.reshape(-1, c_out).T).reshape(kh, kw, c, -1, h_out, w_out)
    acc = np.zeros((c, cols.shape[3], h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            acc[..., i : i + stride * h_out : stride, j : j + stride * w_out : stride] += cols[i, j]
    out = acc[..., pad : pad + h, pad : pad + w].transpose(1, 2, 3, 0)
    return np.ascontiguousarray(out).reshape(grad.shape[:-3] + (h, w, c))


STABILIZER = 1e-9


def naive_zplus_dense(relevance, weights, activations):
    """Positive-contribution redistribution, one output node at a time."""
    m_count, n_count = weights.shape
    out = np.zeros(n_count)
    for m in range(m_count):
        denom = 0.0
        for n in range(n_count):
            denom += activations[n] * max(weights[m, n], 0.0)
        if abs(denom) < STABILIZER:
            continue
        for n in range(n_count):
            out[n] += activations[n] * max(weights[m, n], 0.0) / denom * relevance[m]
    return out


def naive_zbeta_dense(relevance, weights, x, lower, upper):
    """Range-bounded input rule over a flat input with per-element bounds."""
    m_count, n_count = weights.shape
    out = np.zeros(n_count)
    for m in range(m_count):
        denom = 0.0
        for n in range(n_count):
            wv = weights[m, n]
            denom += x[n] * wv - lower[n] * max(wv, 0.0) - upper[n] * min(wv, 0.0)
        if abs(denom) < STABILIZER:
            continue
        for n in range(n_count):
            wv = weights[m, n]
            numer = x[n] * wv - lower[n] * max(wv, 0.0) - upper[n] * min(wv, 0.0)
            out[n] += numer / denom * relevance[m]
    return out


def energy_threshold_by_sort(values, energy):
    """Threshold via a full descending sort of the positive entries."""
    positives = sorted((float(v) for v in values.reshape(-1) if v > 0), reverse=True)
    if not positives:
        raise ValueError("no positive entries")
    k = max(1, math.floor(energy * len(positives)))
    return positives[k - 1]


def box_mask(box, height, width):
    """[height, width] booleans, True at the pixels of an inclusive box, pixel by pixel."""
    return np.array([[box.x_min <= x <= box.x_max and box.y_min <= y <= box.y_max for x in range(width)]
                     for y in range(height)], dtype=bool)


def seed_rows_by_formula(logits, probs, target):
    """The lrp, clrp and sglrp seed rows, entry by entry.

    lrp keeps the target logit z_t and puts +0.0 elsewhere; clrp puts -z_t/(n-1)
    on every other class; sglrp is the target row of the softmax Jacobian,
    y_t*(1 - y_t) at the target and -y_t*y_n elsewhere.
    """
    n = len(logits)
    z, y = float(logits[target]), float(probs[target])
    rows = {"lrp": [], "clrp": [], "sglrp": []}
    for k in range(n):
        on = k == target
        rows["lrp"].append(z if on else 0.0)
        rows["clrp"].append(z if on else -z / (n - 1))
        rows["sglrp"].append(y * (1.0 - y) if on else -y * float(probs[k]))
    return {method: np.array(row) for method, row in rows.items()}
