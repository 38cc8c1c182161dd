"""Relevance seeding and backward propagation tests.

Every derived number is checked against an independent naive-loop oracle or a
hand evaluation of the defining ratio sums written out in the comments.
"""

import math

import numpy as np
import pytest

from relprop.errors import ShapeError
from relprop.model import LayerParams, LayerSpec, NetworkModel, Preprocessing, forward
from relprop.relevance import (
    DENOMINATOR_FLOOR,
    InputBounds,
    RelevanceMap,
    explain,
    explain_all,
    propagate_maxpool,
    propagate_zbeta_input,
    propagate_zplus_conv,
    propagate_zplus_dense,
    seed_clrp,
    seed_lrp,
    seed_sglrp,
)
from relprop.tensor import maxpool_forward

from oracles import (
    naive_zbeta_dense,
    naive_zplus_dense,
    softmax_gradient_fd,
    unroll_conv_matrix,
)
from synth import (
    UNIFORM_PENALTY_INPUT,
    make_uniform_penalty_model,
)
from test_model import dense_softmax_model


def trace_for_logits(logits):
    """Forward an identity dense model so the recorded logits equal `logits`."""
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.shape[0]
    model = dense_softmax_model(np.eye(n), input_shape=(1, n, 1))
    return forward(model, logits.reshape(1, n, 1))


class TestSeedOneHot:
    def test_target_logit_only(self):
        """Logits [2,-1] at target 0 seed as [2, 0]."""
        seed = seed_lrp(trace_for_logits([2.0, -1.0]), 0)
        np.testing.assert_allclose(seed.values, [2.0, 0.0])
        assert seed.target == 0 and seed.method == "lrp"

    def test_zero_logit_zero_seed(self):
        """A zero target logit seeds an all-zero vector."""
        seed = seed_lrp(trace_for_logits([0.0, 0.0, 0.0]), 1)
        np.testing.assert_array_equal(seed.values, np.zeros(3))

    def test_at_most_one_nonzero(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            seed = seed_lrp(
                trace_for_logits(rng.uniform(-5, 5, n)), int(rng.integers(0, n))
            )
            assert np.count_nonzero(seed.values) <= 1

    def test_target_out_of_range(self):
        trace = trace_for_logits([1.0, 2.0])
        with pytest.raises(ShapeError):
            seed_lrp(trace, 2)
        with pytest.raises(ShapeError):
            seed_lrp(trace, -1)


class TestSeedContrastive:
    def test_uniform_penalty_values(self):
        """Target logit 2 over 5 classes spreads -0.5 over each competitor."""
        seed = seed_clrp(trace_for_logits([2.0, 0.0, 0.0, 0.0, 0.0]), 0)
        np.testing.assert_allclose(seed.values, [2.0, -0.5, -0.5, -0.5, -0.5])

    def test_zero_logit_all_zero(self):
        seed = seed_clrp(trace_for_logits([0.0, 1.0, -1.0]), 0)
        np.testing.assert_array_equal(seed.values, np.zeros(3))

    def test_sum_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            seed = seed_clrp(
                trace_for_logits(rng.uniform(-8, 8, n)), int(rng.integers(0, n))
            )
            assert abs(seed.values.sum()) <= 1e-9

    def test_needs_two_classes(self):
        with pytest.raises(ShapeError):
            seed_clrp(trace_for_logits([3.0]), 0)


class TestSeedSoftmaxGradient:
    def test_uniform_two_class(self):
        """Probabilities [0.5,0.5] at target 0: 0.5*0.5 = 0.25 and -0.25."""
        seed = seed_sglrp(trace_for_logits([0.0, 0.0]), 0)
        np.testing.assert_allclose(seed.values, [0.25, -0.25], atol=1e-12)

    def test_three_class_hand_case(self):
        """Logits [ln 2, 0, 0] give probabilities [0.5, 0.25, 0.25]; the
        gradient row at target 0 is then [0.5*0.5, -0.5*0.25, -0.5*0.25]."""
        logits = [math.log(2.0), 0.0, 0.0]
        trace = trace_for_logits(logits)
        np.testing.assert_allclose(trace.probabilities, [0.5, 0.25, 0.25], atol=1e-12)
        seed = seed_sglrp(trace, 0)
        np.testing.assert_allclose(seed.values, [0.25, -0.125, -0.125], atol=1e-12)
        np.testing.assert_allclose(
            seed.values, softmax_gradient_fd(np.array(logits), 0), atol=1e-6
        )

    def test_matches_finite_differences(self):
        """Seed equals central finite differences of the softmax (step 1e-5)
        within 1e-6 per entry over random 10-class logits."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            z = rng.uniform(-8, 8, 10)
            t = int(rng.integers(0, 10))
            seed = seed_sglrp(trace_for_logits(z), t)
            np.testing.assert_allclose(
                seed.values, softmax_gradient_fd(z, t), rtol=0, atol=1e-6
            )

    def test_sum_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            seed = seed_sglrp(
                trace_for_logits(rng.uniform(-8, 8, n)), int(rng.integers(0, n))
            )
            assert abs(seed.values.sum()) <= 1e-9


class TestZplusDense:
    def test_hand_evaluated_single_output(self):
        """a=[1,2], w=[[0.5,-0.25]], R=[1]: positive part keeps only w00=0.5,
        denominator 1*0.5 = 0.5, so input 0 takes the whole unit of relevance."""
        got = propagate_zplus_dense(
            np.array([1.0]), np.array([[0.5, -0.25]]), np.array([1.0, 2.0])
        )
        np.testing.assert_allclose(got, [1.0, 0.0])

    def test_identity_routing(self):
        """Identity weights with unit activations pass relevance through."""
        got = propagate_zplus_dense(np.array([0.3, 0.7]), np.eye(2), np.ones(2))
        np.testing.assert_allclose(got, [0.3, 0.7])

    def test_all_negative_weights_absorb(self):
        """With no positive weights every denominator sits under the floor and
        the relevance is absorbed rather than amplified."""
        got = propagate_zplus_dense(
            np.array([1.0]), np.array([[-0.5, -0.25, -1.0]]), np.array([1.0, 2.0, 3.0])
        )
        np.testing.assert_array_equal(got, np.zeros(3))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            w = rng.normal(size=(m, n))
            a = rng.uniform(0, 2, n)
            r = rng.normal(size=m)
            np.testing.assert_allclose(
                propagate_zplus_dense(r, w, a),
                naive_zplus_dense(r, w, a),
                rtol=0,
                atol=1e-12,
            )

    def test_conservation_when_denominators_healthy(self):
        """Sums are preserved layer to layer when every output node keeps a
        positive-path denominator above the stability floor."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            m, n = int(rng.integers(2, 16)), int(rng.integers(2, 16))
            w = rng.uniform(0.05, 1.0, size=(m, n))
            a = rng.uniform(0.5, 1.5, n)
            r = rng.normal(size=m)
            out = propagate_zplus_dense(r, w, a)
            denom = max(abs(r.sum()), 1e-30)
            assert abs(out.sum() - r.sum()) / denom <= 1e-8

    def test_linearity(self):
        """prop(alpha*R + beta*R') = alpha*prop(R) + beta*prop(R') within 1e-10."""
        rng = np.random.default_rng(42)
        w = rng.normal(size=(5, 7))
        a = rng.uniform(0, 2, 7)
        r1, r2 = rng.normal(size=5), rng.normal(size=5)
        alpha, beta = 2.5, -1.25
        got = propagate_zplus_dense(alpha * r1 + beta * r2, w, a)
        want = alpha * propagate_zplus_dense(r1, w, a) + beta * propagate_zplus_dense(
            r2, w, a
        )
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_negative_activations_rejected(self):
        with pytest.raises(ShapeError):
            propagate_zplus_dense(np.array([1.0]), np.ones((1, 2)), np.array([-1.0, 1.0]))


class TestZplusConv:
    def test_1x1_conv_reduces_to_dense(self):
        """A 1x1 single-tap conv over two pixels is the dense hand example:
        weights [0.5] and [-0.25] act like the row [[0.5,-0.25]] when the
        relevance arriving at the two output pixels is [1, 0]."""
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 0.5
        a = np.array([1.0]).reshape(1, 1, 1)
        got = propagate_zplus_conv(np.array([[[1.0]]]), w, a, stride=1, pad=0)
        np.testing.assert_allclose(got.reshape(-1), [1.0])

    def test_matches_unrolled_dense_oracle(self):
        """Conv propagation equals the naive rule on the im2col matrix within
        1e-8 for random shapes up to 8x8x3, strides 1-2, pads 0-1."""
        rng = np.random.default_rng(42)
        for _ in range(30):
            h = int(rng.integers(3, 9))
            wd = int(rng.integers(3, 9))
            c = int(rng.integers(1, 4))
            o = int(rng.integers(1, 4))
            kh = int(rng.integers(1, 4))
            kw = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            if h + 2 * pad < kh or wd + 2 * pad < kw:
                continue
            weights = rng.normal(size=(o, c, kh, kw))
            a = rng.uniform(0, 2, size=(h, wd, c))
            h_out = (h + 2 * pad - kh) // stride + 1
            w_out = (wd + 2 * pad - kw) // stride + 1
            r = rng.normal(size=(h_out, w_out, o))
            got = propagate_zplus_conv(r, weights, a, stride, pad)
            mat = unroll_conv_matrix(weights, (h, wd, c), stride, pad)
            want = naive_zplus_dense(r.reshape(-1), mat, a.reshape(-1))
            np.testing.assert_allclose(
                got.reshape(-1), want, rtol=0, atol=1e-8
            )

    def test_uniform_inputs_stay_uniform_away_from_borders(self):
        """All-ones weights and activations with uniform relevance produce a
        spatially uniform interior: each interior input is covered by the same
        number of windows with identical shares."""
        a = np.ones((6, 6, 1))
        w = np.ones((1, 1, 3, 3))
        r = np.ones((4, 4, 1))
        got = propagate_zplus_conv(r, w, a, stride=1, pad=0)
        interior = got[2:4, 2:4, 0]
        assert np.ptp(interior) <= 1e-12
        # every window denominator is 9; nine covering windows each send 1/9
        np.testing.assert_allclose(interior, 1.0, atol=1e-12)


class TestZbetaInput:
    def _dense_layer(self, n_in, n_out):
        return LayerSpec("dense", {"in": n_in, "out": n_out, "bias": 0})

    def test_single_unit_hand_case(self):
        """x=0.5, w=1, bounds [0,1], R=[1]: numerator 0.5*1 - 0*1 - 1*0 = 0.5,
        denominator 0.5, so the single input keeps the full unit."""
        got = propagate_zbeta_input(
            np.array([1.0]),
            self._dense_layer(1, 1),
            np.array([[1.0]]),
            np.array([0.5]).reshape(1, 1, 1),
            InputBounds(lower=np.array([0.0]), upper=np.array([1.0])),
        )
        np.testing.assert_allclose(got.reshape(-1), [1.0])

    def test_degenerate_bounds_absorb(self):
        """x = lower = upper = 0 zeroes the denominator; relevance is dropped."""
        got = propagate_zbeta_input(
            np.array([1.0]),
            self._dense_layer(1, 1),
            np.array([[1.0]]),
            np.zeros((1, 1, 1)),
            InputBounds(lower=np.zeros(1), upper=np.zeros(1)),
        )
        np.testing.assert_array_equal(got.reshape(-1), [0.0])

    def test_reduces_to_zplus_for_nonnegative_weights_zero_lower(self):
        """With w >= 0 and lower bound 0 the bounded rule loses its correction
        terms and must agree with the positive-path rule."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, m = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            w = rng.uniform(0.0, 1.0, size=(m, n))
            x = rng.uniform(0.0, 5.0, n)
            r = rng.normal(size=m)
            got = propagate_zbeta_input(
                r,
                self._dense_layer(n, m),
                w,
                x.reshape(1, n, 1),
                InputBounds(lower=np.zeros(1), upper=np.full(1, 10.0)),
            )
            want = propagate_zplus_dense(r, w, x)
            np.testing.assert_allclose(got.reshape(-1), want, rtol=0, atol=1e-10)

    def test_dense_matches_naive_oracle(self):
        """Signed inputs against the naive bounded-rule loop within 1e-10."""
        rng = np.random.default_rng(42)
        for _ in range(30):
            n, m = int(rng.integers(2, 10)), int(rng.integers(1, 6))
            w = rng.normal(size=(m, n))
            x = rng.uniform(-5.0, 5.0, n)
            r = rng.normal(size=m)
            lower, upper = np.full(1, -5.0), np.full(1, 5.0)
            got = propagate_zbeta_input(
                r,
                self._dense_layer(n, m),
                w,
                x.reshape(1, n, 1),
                InputBounds(lower=lower, upper=upper),
            )
            want = naive_zbeta_dense(r, w, x, np.full(n, -5.0), np.full(n, 5.0))
            np.testing.assert_allclose(got.reshape(-1), want, rtol=0, atol=1e-10)

    def test_conv_matches_unrolled_oracle(self):
        """The conv form of the bounded rule equals the naive rule on the
        unrolled matrix with per-element bounds within 1e-8."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            h, wd, c, o = 5, 4, int(rng.integers(1, 4)), int(rng.integers(1, 3))
            layer = LayerSpec(
                "conv2d",
                {"in": c, "out": o, "kh": 3, "kw": 3, "stride": 1, "pad": 1, "bias": 0},
            )
            weights = rng.normal(size=(o, c, 3, 3))
            x = rng.uniform(-3.0, 3.0, size=(h, wd, c))
            r = rng.normal(size=(h, wd, o))
            lower = np.full(c, -3.0)
            upper = np.full(c, 3.0)
            got = propagate_zbeta_input(
                r, layer, weights, x, InputBounds(lower=lower, upper=upper)
            )
            mat = unroll_conv_matrix(weights, (h, wd, c), 1, 1)
            lower_flat = np.broadcast_to(lower, x.shape).reshape(-1)
            upper_flat = np.broadcast_to(upper, x.shape).reshape(-1)
            want = naive_zbeta_dense(
                r.reshape(-1), mat, x.reshape(-1), lower_flat, upper_flat
            )
            np.testing.assert_allclose(got.reshape(-1), want, rtol=0, atol=1e-8)

    def test_input_outside_bounds_rejected(self):
        """A pixel above the upper bound (or below the lower one) would make its
        contribution x*w - lower*w+ - upper*w- negative, so both the dense and the
        conv form refuse it instead of returning sign-flipped relevance."""
        bounds = InputBounds(lower=np.zeros(1), upper=np.ones(1))
        conv = LayerSpec(
            "conv2d", {"in": 1, "out": 1, "kh": 1, "kw": 1, "stride": 1, "pad": 0, "bias": 0}
        )
        for bad in (255.0, -0.5):
            x = np.array([0.5, bad]).reshape(1, 2, 1)
            with pytest.raises(ShapeError, match="pixel range"):
                propagate_zbeta_input(
                    np.ones(1), self._dense_layer(2, 1), np.ones((1, 2)), x, bounds
                )
            with pytest.raises(ShapeError, match="pixel range"):
                propagate_zbeta_input(np.ones((1, 2, 1)), conv, np.ones((1, 1, 1, 1)), x, bounds)


class TestStructuralRouting:
    def test_maxpool_winner_takes_all(self):
        """Window [1,2;3,4] sends the pooled unit's relevance to where 4 was."""
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1)
        _, arg = maxpool_forward(x, 2, 2, 2)
        routed = propagate_maxpool(np.array([[[1.0]]]), arg)
        np.testing.assert_array_equal(
            routed.reshape(-1), np.array([0.0, 0.0, 0.0, 1.0])
        )

    def test_maxpool_conserves_sum(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(6, 6, 3))
        _, arg = maxpool_forward(x, 2, 2, 2)
        r = rng.normal(size=(3, 3, 3))
        routed = propagate_maxpool(r, arg)
        np.testing.assert_allclose(routed.sum(), r.sum(), rtol=1e-12)

    @staticmethod
    def _chain(input_shape, stages):
        """Model from (LayerSpec, LayerParams | None) pairs, zero means."""
        return NetworkModel(
            input_shape=input_shape,
            layers=tuple(spec for spec, _ in stages),
            params=tuple(p for _, p in stages),
            preprocessing=Preprocessing(
                means=np.zeros(input_shape[2]), pixel_range=(0.0, 255.0)
            ),
        )

    def _maps(self, model, x, target):
        return explain_all(model, forward(model, x), target, ("lrp", "clrp", "sglrp"))

    def test_relu_passthrough(self):
        """A relu whose input is all positive leaves every method's map
        unchanged: the backward pass hands relevance through it as is."""
        rng = np.random.default_rng(42)
        w1 = LayerParams(rng.uniform(0.001, 0.01, size=(4, 3)), None)
        w2 = LayerParams(rng.normal(size=(3, 4)), None)
        dense1 = LayerSpec("dense", {"in": 3, "out": 4, "bias": 0})
        dense2 = LayerSpec("dense", {"in": 4, "out": 3, "bias": 0})
        tail = [(dense2, w2), (LayerSpec("softmax"), None)]
        with_relu = self._chain((1, 3, 1), [(dense1, w1), (LayerSpec("relu"), None)] + tail)
        without = self._chain((1, 3, 1), [(dense1, w1)] + tail)
        x = rng.uniform(1, 255, size=(1, 3, 1))
        for target in range(3):
            got = self._maps(with_relu, x, target)
            want = self._maps(without, x, target)
            for method in got:
                np.testing.assert_array_equal(got[method].raw, want[method].raw)

    def test_flatten_restores_shape(self):
        """Relevance crossing a flatten is reshaped back to the [H,W,C] it
        came from: the raw map has the input's shape and equals the map of
        the same net with dense reading the conv output directly."""
        rng = np.random.default_rng(42)
        conv = LayerSpec("conv2d", {"in": 1, "out": 2, "kh": 2, "kw": 2, "stride": 1, "pad": 0, "bias": 0})
        conv_p = LayerParams(rng.uniform(0.001, 0.01, size=(2, 1, 2, 2)), None)
        dense = LayerSpec("dense", {"in": 12, "out": 3, "bias": 0})
        dense_p = LayerParams(rng.normal(size=(3, 12)), None)
        head = [(conv, conv_p), (LayerSpec("relu"), None)]
        tail = [(dense, dense_p), (LayerSpec("softmax"), None)]
        with_flatten = self._chain((3, 4, 1), head + [(LayerSpec("flatten"), None)] + tail)
        without = self._chain((3, 4, 1), head + tail)
        x = rng.uniform(1, 255, size=(3, 4, 1))
        for target in range(3):
            got = self._maps(with_flatten, x, target)
            want = self._maps(without, x, target)
            for method in got:
                assert got[method].raw.shape == (3, 4, 1)
                np.testing.assert_array_equal(got[method].raw, want[method].raw)


class TestExplain:
    def _two_pixel_model(self):
        """Class 0 reads only pixel A (index 0), class 1 only pixel B."""
        w = np.array([[0.01, 0.0], [0.0, 0.01]])
        return dense_softmax_model(w, input_shape=(1, 2, 1))

    def test_concentrates_on_deciding_pixel(self):
        """When class 0 depends only on pixel A, its map puts at least 90% of
        the mass there (here: all of it)."""
        model = self._two_pixel_model()
        trace = forward(model, np.array([150.0, 100.0]).reshape(1, 2, 1))
        result = explain(model, trace, 0, "sglrp")
        total = result.values.sum()
        assert total > 0
        assert result.values[0, 0] / total >= 0.90

    def test_zero_target_logit_zero_map(self):
        """A zero seed stays zero all the way to the pixels."""
        model = self._two_pixel_model()
        trace = forward(model, np.array([0.0, 100.0]).reshape(1, 2, 1))
        result = explain(model, trace, 0, "lrp")
        np.testing.assert_array_equal(result.values, np.zeros((1, 2)))
        np.testing.assert_array_equal(result.raw, np.zeros((1, 2, 1)))

    def test_map_nonnegative_all_methods(self):
        rng = np.random.default_rng(42)
        model = dense_softmax_model(
            0.01 * rng.normal(size=(3, 8)), input_shape=(2, 4, 1)
        )
        for _ in range(20):
            trace = forward(model, rng.uniform(0, 255, size=(2, 4, 1)))
            for method in ("lrp", "clrp", "sglrp"):
                t = int(rng.integers(0, 3))
                result = explain(model, trace, t, method)
                assert np.all(result.values >= 0)
                np.testing.assert_allclose(
                    result.values, np.maximum(result.raw, 0.0).sum(axis=2)
                )

    def test_deterministic(self):
        rng = np.random.default_rng(42)
        model = dense_softmax_model(0.01 * rng.normal(size=(2, 6)), input_shape=(2, 3, 1))
        x = rng.uniform(0, 255, size=(2, 3, 1))
        trace = forward(model, x)
        a = explain(model, trace, 0, "sglrp")
        b = explain(model, trace, 0, "sglrp")
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.raw, b.raw)

    def test_unknown_method(self):
        model = self._two_pixel_model()
        trace = forward(model, np.array([1.0, 2.0]).reshape(1, 2, 1))
        with pytest.raises(ShapeError):
            explain(model, trace, 0, "gradcam")

    def test_repeated_method_rejected(self):
        """A method named twice would return one map for two seed rows."""
        model = self._two_pixel_model()
        trace = forward(model, np.array([1.0, 2.0]).reshape(1, 2, 1))
        with pytest.raises(ShapeError):
            explain_all(model, trace, 0, ("lrp", "sglrp", "lrp"))

    def test_stacked_trace_rejected(self):
        """A trace of an image stack is good for its probabilities only."""
        model = self._two_pixel_model()
        trace = forward(model, np.array([[1.0, 2.0], [2.0, 1.0]]).reshape(2, 1, 2, 1))
        with pytest.raises(ShapeError):
            explain_all(model, trace, 0, ("lrp", "sglrp"))

    def test_flatten_ahead_of_first_dense(self):
        """A flatten in front of the pixel-reading dense layer changes no value,
        so every method's map equals the one without it."""
        rng = np.random.default_rng(5)
        plain = dense_softmax_model(0.01 * rng.normal(size=(3, 8)), input_shape=(2, 2, 2))
        flat = NetworkModel(
            input_shape=plain.input_shape,
            layers=(LayerSpec("flatten"),) + plain.layers,
            params=(None,) + plain.params,
            preprocessing=plain.preprocessing,
        )
        image = rng.uniform(0, 255, size=(2, 2, 2))
        want = explain_all(plain, forward(plain, image), 1, ("lrp", "clrp", "sglrp"))
        got = explain_all(flat, forward(flat, image), 1, ("lrp", "clrp", "sglrp"))
        for method, relevance_map in got.items():
            np.testing.assert_array_equal(relevance_map.raw, want[method].raw)

    def test_contrastive_cancellation_vs_gradient_weighting(self):
        """On a chain where the target's evidence pixel is shared with a weak
        decoy class, the uniform contrastive penalty cancels that pixel exactly
        while the gradient-weighted seed keeps it positive."""
        model = make_uniform_penalty_model()
        trace = forward(model, UNIFORM_PENALTY_INPUT)
        clrp = explain(model, trace, 1, "clrp")
        sglrp = explain(model, trace, 1, "sglrp")
        assert abs(clrp.values[0, 1]) <= 1e-12
        assert sglrp.values[0, 1] > 0.05


class TestRelevanceMapValidation:
    def test_rejects_negative_map(self):
        with pytest.raises(ShapeError):
            RelevanceMap(
                values=np.array([[-0.1]]),
                raw=np.zeros((1, 1, 1)),
                method="lrp",
                target=0,
            )

    def test_rejects_extent_mismatch(self):
        with pytest.raises(ShapeError):
            RelevanceMap(
                values=np.zeros((2, 2)),
                raw=np.zeros((1, 2, 1)),
                method="lrp",
                target=0,
            )

    def test_floor_constant_sane(self):
        assert 0 < DENOMINATOR_FLOOR < 1e-6
