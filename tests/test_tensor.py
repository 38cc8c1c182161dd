"""Forward-kernel tests: hand-computed cases plus naive-loop oracle sweeps."""

import numpy as np
import pytest

from relprop.errors import ShapeError
from relprop.tensor import (
    conv2d_forward,
    conv2d_transpose,
    dense_forward,
    maxpool_forward,
    pool_winners,
    softmax,
)

from oracles import naive_conv2d, naive_dense, naive_maxpool, naive_softmax


class TestConv2dForward:
    def test_scalar_multiply(self):
        """A 1x1 input against a 1x1x1x1 kernel is a plain product: 5*2 = 10."""
        x = np.array([[[5.0]]])
        w = np.array([[[[2.0]]]])
        out = conv2d_forward(x, w, np.zeros(1))
        np.testing.assert_allclose(out, np.array([[[10.0]]]))

    def test_window_sum(self):
        """All-ones 3x3 input and kernel, no padding: one output equal to 9."""
        x = np.ones((3, 3, 1))
        w = np.ones((1, 1, 3, 3))
        out = conv2d_forward(x, w, np.zeros(1))
        assert out.shape == (1, 1, 1)
        np.testing.assert_allclose(out, 9.0)

    def test_matches_naive_loop_6x6x2(self):
        """Random 6x6x2 input equals the quadruple-loop evaluation within 1e-12."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=(6, 6, 2))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = conv2d_forward(x, w, b, stride=1, pad=0)
        want = naive_conv2d(x, w, b, stride=1, pad=0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_matches_naive_loop_stride_and_pad_sweep(self):
        """Every stride/pad combination agrees with the naive loop within 1e-10."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = int(rng.integers(3, 9))
            w_ext = int(rng.integers(3, 9))
            c = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            kh = int(rng.integers(1, min(3, h) + 1))
            kw = int(rng.integers(1, min(3, w_ext) + 1))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            x = rng.normal(size=(h, w_ext, c))
            weights = rng.normal(size=(c_out, c, kh, kw))
            bias = rng.normal(size=c_out)
            got = conv2d_forward(x, weights, bias, stride, pad)
            want = naive_conv2d(x, weights, bias, stride, pad)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_output_extent_formula(self):
        """Output extent is floor((H + 2*pad - kh)/stride) + 1 per axis."""
        x = np.zeros((7, 5, 2))
        w = np.zeros((4, 2, 3, 3))
        out = conv2d_forward(x, w, np.zeros(4), stride=2, pad=1)
        assert out.shape == ((7 + 2 - 3) // 2 + 1, (5 + 2 - 3) // 2 + 1, 4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            conv2d_forward(np.zeros((4, 4, 2)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_bad_bias_raises(self):
        with pytest.raises(ShapeError):
            conv2d_forward(np.zeros((4, 4, 1)), np.zeros((2, 1, 3, 3)), np.zeros(3))


class TestConv2dTranspose:
    def test_adjoint_identity(self):
        """<conv(x), y> equals <x, conv_transpose(y)> for random tensors.

        This is the defining property of the transpose map and pins down both
        the padding and the stride handling.
        """
        rng = np.random.default_rng(3)
        for stride, pad in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            x = rng.normal(size=(6, 6, 2))
            w = rng.normal(size=(3, 2, 3, 3))
            fwd = conv2d_forward(x, w, np.zeros(3), stride, pad)
            y = rng.normal(size=fwd.shape)
            back = conv2d_transpose(y, w, x.shape, stride, pad)
            np.testing.assert_allclose(
                np.sum(fwd * y), np.sum(x * back), rtol=1e-12, atol=1e-12
            )

    def test_one_tap_routes_to_source(self):
        """With a single-tap kernel the transpose writes each value back onto
        the input element that produced it."""
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 2.0
        y = np.arange(4.0).reshape(2, 2, 1)
        back = conv2d_transpose(y, w, (2, 2, 1), stride=1, pad=0)
        np.testing.assert_allclose(back, 2.0 * y)

    def test_grad_extent_must_match_conv_output(self):
        """A 3x3 kernel over a 4x4 input yields 2x2; larger or smaller grads are
        shape errors, not numpy errors or silently truncated results."""
        w = np.ones((1, 1, 3, 3))
        assert conv2d_transpose(np.ones((2, 2, 1)), w, (4, 4, 1)).shape == (4, 4, 1)
        for side in (5, 1):
            with pytest.raises(ShapeError):
                conv2d_transpose(np.ones((side, side, 1)), w, (4, 4, 1))

    def test_bad_geometry_is_the_forward_shape_error(self):
        """A zero stride, a kernel larger than the padded input, or a negative pad
        raises the same ShapeError as conv2d_forward on that geometry."""
        cases = [(3, (4, 4, 1), 0, 0), (5, (2, 2, 1), 1, 0), (1, (2, 2, 1), 1, -1)]
        for kernel, shape, stride, pad in cases:
            w = np.ones((1, 1, kernel, kernel))
            with pytest.raises(ShapeError) as fwd:
                conv2d_forward(np.ones(shape), w, np.zeros(1), stride, pad)
            with pytest.raises(ShapeError) as back:
                conv2d_transpose(np.ones((1, 1, 1)), w, shape, stride, pad)
            assert str(back.value) == str(fwd.value)


class TestMaxpoolForward:
    def test_2x2_window(self):
        """Pooling [1,2;3,4] with a 2x2 window keeps the 4, and pool_winners finds where it was."""
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1)
        out = maxpool_forward(x, 2, 2, 2)
        winners = pool_winners(x, out, 2, 2, 2)
        np.testing.assert_allclose(out, np.array([[[4.0]]]))
        # 4 sits at row 1, col 1, channel 0 -> flat (1*2 + 1)*1 + 0 = 3
        assert winners.reshape(-1).tolist() == [3]

    def test_all_equal_window_takes_lowest_index(self):
        """A tied window resolves to the lowest row-major input index."""
        x = np.ones((2, 2, 1))
        winners = pool_winners(x, maxpool_forward(x, 2, 2, 2), 2, 2, 2)
        assert winners.reshape(-1).tolist() == [0]

    def test_matches_naive_loop_8x8x3(self):
        """Random 8x8x3 pooling reproduces the naive loop's values and indices."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=(8, 8, 3))
        got = maxpool_forward(x, 2, 2, 2)
        want, want_idx = naive_maxpool(x, 2, 2, 2)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(pool_winners(x, got, 2, 2, 2), want_idx)

    def test_overlapping_window_matches_naive(self):
        """A stride smaller than the window (overlapping pools) also agrees."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 5, 2))
        got = maxpool_forward(x, 3, 3, 1)
        want, want_idx = naive_maxpool(x, 3, 3, 1)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(pool_winners(x, got, 3, 3, 1), want_idx)

    def test_non_divisible_extent_raises(self):
        """No implicit padding: a window that does not tile the input is an error."""
        with pytest.raises(ShapeError):
            maxpool_forward(np.zeros((5, 4, 1)), 2, 2, 2)

    def test_argmax_determinism(self):
        """Repeated evaluation yields identical winner indices."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 6, 2))
        first = pool_winners(x, maxpool_forward(x, 2, 2, 2), 2, 2, 2)
        second = pool_winners(x, maxpool_forward(x, 2, 2, 2), 2, 2, 2)
        np.testing.assert_array_equal(first, second)


class TestDenseForward:
    def test_identity(self):
        """Identity weights and zero bias leave the input unchanged."""
        x = np.array([3.0, -1.0, 2.5])
        out = dense_forward(x, np.eye(3), np.zeros(3))
        np.testing.assert_allclose(out, x)

    def test_hand_evaluated_row(self):
        """[1,2] through [[0.5,-0.25]] + [0.1]: 0.5 - 0.5 + 0.1 = 0.1."""
        out = dense_forward(
            np.array([1.0, 2.0]), np.array([[0.5, -0.25]]), np.array([0.1])
        )
        np.testing.assert_allclose(out, np.array([0.1]))

    def test_matches_naive_loop_16_to_8(self):
        """Random 16->8 affine map equals the double loop within 1e-12."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=16)
        w = rng.normal(size=(8, 16))
        b = rng.normal(size=8)
        np.testing.assert_allclose(
            dense_forward(x, w, b), naive_dense(x, w, b), rtol=0, atol=1e-12
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            dense_forward(np.zeros(4), np.zeros((2, 3)), np.zeros(2))


class TestActivations:
    def test_softmax_uniform(self):
        """Equal logits split the mass evenly."""
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_softmax_large_logits_stable(self):
        """Huge equal logits do not overflow thanks to max subtraction."""
        out = softmax(np.array([1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_softmax_random_properties(self):
        """Entries in (0,1), sum 1 within 1e-12, matching the naive evaluation."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            z = rng.uniform(-20, 20, size=int(rng.integers(2, 12)))
            p = softmax(z)
            assert np.all(p > 0) and np.all(p < 1)
            assert abs(p.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(p, naive_softmax(z), rtol=0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        """Adding a constant to all logits changes nothing within 1e-12."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            z = rng.uniform(-10, 10, size=6)
            c = float(rng.uniform(-50, 50))
            np.testing.assert_allclose(softmax(z), softmax(z + c), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: conv2d_forward(np.zeros((4, 4)), np.zeros((1, 1, 1, 1)), np.zeros(1)),
         "conv2d: input must be [H,W,C] or [N,H,W,C], got shape (4, 4)"),
        (lambda: conv2d_forward(np.zeros((4, 4, 1)), np.zeros((1, 1, 1)), np.zeros(1)),
         "conv2d: weights must be [out,in,kh,kw], got shape (1, 1, 1)"),
        (lambda: conv2d_transpose(np.zeros((4, 4, 1)), np.zeros((1, 2, 1, 1)), (4, 4, 3)),
         "conv2d_transpose: input has 3 channels, weights expect 2"),
        (lambda: maxpool_forward(np.zeros((2, 2)), 1, 1, 1),
         "maxpool: input must be [H,W,C] or [N,H,W,C], got shape (2, 2)"),
        (lambda: dense_forward(np.zeros((1, 1, 2)), np.zeros((1, 2)), np.zeros(1)),
         "dense: input must be [N] or [B,N], got shape (1, 1, 2)"),
        (lambda: dense_forward(np.zeros(2), np.zeros((3, 2)), np.zeros(2)),
         "dense: bias shape (2,) != (3,)"),
        (lambda: dense_forward(np.array([np.inf, 1.0]), np.ones((1, 2)), np.zeros(1)),
         "dense output: non-finite values present"),
        (lambda: softmax(np.zeros((1, 1, 2))),
         "softmax: input must be [classes] or [N,classes], got shape (1, 1, 2)"),
        (lambda: softmax(np.zeros(0)), "softmax: empty input"),
    ],
    ids=["conv-ndim", "conv-weights-ndim", "transpose-channels", "maxpool-ndim", "dense-ndim",
         "dense-bias", "non-finite-output", "softmax-ndim", "softmax-empty"],
)
def test_malformed_operands_raise_a_shape_error(call, message):
    """Each kernel rejects an operand of the wrong rank or shape, and a
    non-finite output, with a ShapeError that says which."""
    with pytest.raises(ShapeError) as err:
        call()
    assert str(err.value) == message
