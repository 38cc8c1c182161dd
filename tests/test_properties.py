"""Property tests over random shapes for the convolution adjoint and max pooling."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relprop.relevance import propagate_maxpool
from relprop.tensor import conv2d_forward, conv2d_transpose, maxpool_forward

from oracles import naive_maxpool

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def conv_cases(draw):
    """Non-square conv geometry whose kernel fits the padded input."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * pad), kh + 7))
    w = draw(st.integers(max(1, kw - 2 * pad), kw + 7))
    c_in, c_out = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return (h, w, c_in), (c_out, c_in, kh, kw), stride, pad, seed


@st.composite
def pool_cases(draw):
    """Exactly tiling pool geometry, overlapping whenever stride < window."""
    kh, kw, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h_out, w_out, c = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    shape = ((h_out - 1) * stride + kh, (w_out - 1) * stride + kw, c)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        x = rng.integers(-2, 3, size=shape).astype(np.float64)  # many tied windows
    else:
        x = rng.normal(size=shape)
    return x, kh, kw, stride, seed


@PROPERTY_SETTINGS
@given(conv_cases())
def test_conv2d_transpose_is_adjoint_of_forward(case):
    """<conv2d_forward(x, W, 0), g> == <x, conv2d_transpose(g, W)>."""
    input_shape, weight_shape, stride, pad, seed = case
    rng = np.random.default_rng(seed)
    x, w = rng.normal(size=input_shape), rng.normal(size=weight_shape)
    zeros = np.zeros(weight_shape[0])
    fwd = conv2d_forward(x, w, zeros, stride, pad)
    g = rng.normal(size=fwd.shape)
    back = conv2d_transpose(g, w, input_shape, stride, pad)
    assert back.shape == input_shape
    # both sides sum the same products; bound rounding by their absolute sum
    magnitude = np.sum(np.abs(g) * conv2d_forward(np.abs(x), np.abs(w), zeros, stride, pad))
    np.testing.assert_allclose(np.sum(fwd * g), np.sum(x * back), rtol=0, atol=1e-12 * magnitude)


@PROPERTY_SETTINGS
@given(pool_cases())
def test_maxpool_matches_naive_loop(case):
    """Pooled values and the winner indices derived from them equal the loop oracle,
    including the lowest-index rule inside tied windows."""
    x, kh, kw, stride, _ = case
    got, arg = maxpool_forward(x, kh, kw, stride)
    want, want_idx = naive_maxpool(x, kh, kw, stride)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(arg.indices, want_idx)
    assert arg.input_shape == x.shape and arg.output_shape == want.shape


@PROPERTY_SETTINGS
@given(pool_cases())
def test_propagate_maxpool_conserves_relevance(case):
    """Routing moves every pooled unit's relevance onto one input element, so the
    total is unchanged even where overlapping windows share a winner."""
    x, kh, kw, stride, seed = case
    out, arg = maxpool_forward(x, kh, kw, stride)
    relevance = np.random.default_rng(seed + 1).normal(size=out.shape)
    routed = propagate_maxpool(relevance, arg)
    assert routed.shape == x.shape
    np.testing.assert_allclose(
        routed.sum(), relevance.sum(), rtol=0, atol=1e-12 * np.abs(relevance).sum()
    )
