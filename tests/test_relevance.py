"""Relevance seeding and backward propagation tests.

Every derived number is checked against an independent naive-loop oracle or a
hand evaluation of the defining ratio sums written out in the comments.
"""

import math
import sys

import numpy as np
import pytest

from relprop.errors import ShapeError
from relprop.model import (
    ForwardTrace,
    LayerParams,
    LayerSpec,
    NetworkModel,
    Preprocessing,
    forward,
    infer_shapes,
    load_model,
    save_model,
)
from relprop.relevance import (
    DENOMINATOR_FLOOR,
    METHODS,
    RelevanceMap,
    explain,
    explain_all,
    propagate_linear,
    propagate_maxpool,
    rule_terms,
    seed_rows,
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


def seed_row(method, trace, target):
    """The single seed row of `method`."""
    return seed_rows(trace, target, (method,))[0]


def dense_layer(w):
    """The bias-free dense layer of weights w [out, in]."""
    return LayerSpec("dense", {"in": w.shape[1], "out": w.shape[0], "bias": 0})


def conv_layer(w, stride, pad):
    """The bias-free conv layer of weights w [out, in, kh, kw]."""
    o, c, kh, kw = w.shape
    geometry = {"kh": kh, "kw": kw, "stride": stride, "pad": pad}
    return LayerSpec("conv2d", {"in": c, "out": o, **geometry, "bias": 0})


def zplus(relevance, layer, weights, a):
    """The zplus rule: the one rule over the layer's terms without bounds."""
    return propagate_linear(relevance, layer, a, rule_terms(layer, weights, a.shape))


def zbeta(relevance, layer, weights, x, lower, upper):
    """The zbeta rule: the one rule over the layer's terms with bounds lower and upper."""
    return propagate_linear(relevance, layer, x, rule_terms(layer, weights, x.shape, (lower, upper)))


def model_bounds(model):
    """The per-channel (lower, upper) input bounds of a model: its pixel range less its means."""
    return tuple(b - model.preprocessing.means for b in model.preprocessing.pixel_range)


class TestSeedOneHot:
    def test_target_logit_only(self):
        """Logits [2,-1] at target 0 seed as [2, 0]."""
        seed = seed_row("lrp", trace_for_logits([2.0, -1.0]), 0)
        np.testing.assert_allclose(seed, [2.0, 0.0])

    def test_zero_logit_zero_seed(self):
        """A zero target logit seeds an all-zero vector."""
        seed = seed_row("lrp", trace_for_logits([0.0, 0.0, 0.0]), 1)
        np.testing.assert_array_equal(seed, np.zeros(3))

    def test_at_most_one_nonzero(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            seed = seed_row("lrp", trace_for_logits(rng.uniform(-5, 5, n)), int(rng.integers(0, n)))
            assert np.count_nonzero(seed) <= 1

    def test_target_out_of_range(self):
        trace = trace_for_logits([1.0, 2.0])
        with pytest.raises(ShapeError):
            seed_row("lrp", trace, 2)
        with pytest.raises(ShapeError):
            seed_row("lrp", trace, -1)


class TestSeedContrastive:
    def test_uniform_penalty_values(self):
        """Target logit 2 over 5 classes spreads -0.5 over each competitor."""
        seed = seed_row("clrp", trace_for_logits([2.0, 0.0, 0.0, 0.0, 0.0]), 0)
        np.testing.assert_allclose(seed, [2.0, -0.5, -0.5, -0.5, -0.5])

    def test_zero_logit_all_zero(self):
        seed = seed_row("clrp", trace_for_logits([0.0, 1.0, -1.0]), 0)
        np.testing.assert_array_equal(seed, np.zeros(3))

    def test_sum_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            seed = seed_row("clrp", trace_for_logits(rng.uniform(-8, 8, n)), int(rng.integers(0, n)))
            assert abs(seed.sum()) <= 1e-9

    def test_needs_two_classes(self):
        with pytest.raises(ShapeError):
            seed_row("clrp", trace_for_logits([3.0]), 0)


class TestSeedSoftmaxGradient:
    def test_uniform_two_class(self):
        """Probabilities [0.5,0.5] at target 0: 0.5*0.5 = 0.25 and -0.25."""
        seed = seed_row("sglrp", trace_for_logits([0.0, 0.0]), 0)
        np.testing.assert_allclose(seed, [0.25, -0.25], atol=1e-12)

    def test_three_class_hand_case(self):
        """Logits [ln 2, 0, 0] give probabilities [0.5, 0.25, 0.25]; the
        gradient row at target 0 is then [0.5*0.5, -0.5*0.25, -0.5*0.25]."""
        logits = [math.log(2.0), 0.0, 0.0]
        trace = trace_for_logits(logits)
        np.testing.assert_allclose(trace.probabilities, [0.5, 0.25, 0.25], atol=1e-12)
        seed = seed_row("sglrp", trace, 0)
        np.testing.assert_allclose(seed, [0.25, -0.125, -0.125], atol=1e-12)
        np.testing.assert_allclose(
            seed, softmax_gradient_fd(np.array(logits), 0), atol=1e-6
        )

    def test_matches_finite_differences(self):
        """Seed equals central finite differences of the softmax (step 1e-5)
        within 1e-6 per entry over random 10-class logits."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            z = rng.uniform(-8, 8, 10)
            t = int(rng.integers(0, 10))
            seed = seed_row("sglrp", trace_for_logits(z), t)
            np.testing.assert_allclose(
                seed, softmax_gradient_fd(z, t), rtol=0, atol=1e-6
            )

    def test_sum_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            seed = seed_row("sglrp", trace_for_logits(rng.uniform(-8, 8, n)), int(rng.integers(0, n)))
            assert abs(seed.sum()) <= 1e-9


class TestZplusDense:
    def test_hand_evaluated_single_output(self):
        """a=[1,2], w=[[0.5,-0.25]], R=[1]: positive part keeps only w00=0.5,
        denominator 1*0.5 = 0.5, so input 0 takes the whole unit of relevance."""
        w = np.array([[0.5, -0.25]])
        got = zplus(np.array([1.0]), dense_layer(w), w, np.array([1.0, 2.0]))
        np.testing.assert_allclose(got, [1.0, 0.0])

    def test_identity_routing(self):
        """Identity weights with unit activations pass relevance through."""
        got = zplus(np.array([0.3, 0.7]), dense_layer(np.eye(2)), np.eye(2), np.ones(2))
        np.testing.assert_allclose(got, [0.3, 0.7])

    def test_all_negative_weights_absorb(self):
        """With no positive weights every denominator sits under the floor and
        the relevance is absorbed rather than amplified."""
        w = np.array([[-0.5, -0.25, -1.0]])
        got = zplus(np.array([1.0]), dense_layer(w), w, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(got, np.zeros(3))

    def test_denominator_at_the_floor_is_kept(self):
        """W=[[1e-9]], a=[1]: the denominator is exactly DENOMINATOR_FLOOR, which
        is not below the floor, so the unit of relevance passes through."""
        w = np.array([[DENOMINATOR_FLOOR]])
        got = zplus(np.array([1.0]), dense_layer(w), w, np.array([1.0]))
        np.testing.assert_allclose(got, [1.0], rtol=1e-15, atol=0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            w = rng.normal(size=(m, n))
            a = rng.uniform(0, 2, n)
            r = rng.normal(size=m)
            np.testing.assert_allclose(
                zplus(r, dense_layer(w), w, a),
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
            out = zplus(r, dense_layer(w), w, a)
            denom = max(abs(r.sum()), 1e-30)
            assert abs(out.sum() - r.sum()) / denom <= 1e-8

    def test_linearity(self):
        """prop(alpha*R + beta*R') = alpha*prop(R) + beta*prop(R') within 1e-10."""
        rng = np.random.default_rng(42)
        w = rng.normal(size=(5, 7))
        a = rng.uniform(0, 2, 7)
        r1, r2 = rng.normal(size=5), rng.normal(size=5)
        alpha, beta = 2.5, -1.25
        layer = dense_layer(w)
        got = zplus(alpha * r1 + beta * r2, layer, w, a)
        want = alpha * zplus(r1, layer, w, a) + beta * zplus(r2, layer, w, a)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_negative_activations_rejected(self):
        w = np.ones((1, 2))
        with pytest.raises(ShapeError):
            zplus(np.array([1.0]), dense_layer(w), w, np.array([-1.0, 1.0]))


class TestZplusConv:
    def test_1x1_conv_reduces_to_dense(self):
        """A 1x1 single-tap conv over two pixels is the dense hand example:
        weights [0.5] and [-0.25] act like the row [[0.5,-0.25]] when the
        relevance arriving at the two output pixels is [1, 0]."""
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 0.5
        a = np.array([1.0]).reshape(1, 1, 1)
        got = zplus(np.array([[[1.0]]]), conv_layer(w, 1, 0), w, a)
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
            got = zplus(r, conv_layer(weights, stride, pad), weights, a)
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
        got = zplus(r, conv_layer(w, 1, 0), w, a)
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
        got = zbeta(
            np.array([1.0]),
            self._dense_layer(1, 1),
            np.array([[1.0]]),
            np.array([0.5]).reshape(1, 1, 1),
            np.array([0.0]),
            np.array([1.0]),
        )
        np.testing.assert_allclose(got.reshape(-1), [1.0])

    def test_degenerate_bounds_absorb(self):
        """x = lower = upper = 0 zeroes the denominator; relevance is dropped."""
        got = zbeta(
            np.array([1.0]),
            self._dense_layer(1, 1),
            np.array([[1.0]]),
            np.zeros((1, 1, 1)),
            np.zeros(1),
            np.zeros(1),
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
            got = zbeta(r, self._dense_layer(n, m), w, x.reshape(1, n, 1), np.zeros(1), np.full(1, 10.0))
            want = zplus(r, dense_layer(w), w, x)
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
            got = zbeta(r, self._dense_layer(n, m), w, x.reshape(1, n, 1), lower, upper)
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
            got = zbeta(r, layer, weights, x, lower, upper)
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
        bounds = np.zeros(1), np.ones(1)
        conv = LayerSpec(
            "conv2d", {"in": 1, "out": 1, "kh": 1, "kw": 1, "stride": 1, "pad": 0, "bias": 0}
        )
        for bad in (255.0, -0.5):
            x = np.array([0.5, bad]).reshape(1, 2, 1)
            with pytest.raises(ShapeError, match="pixel range"):
                zbeta(np.ones(1), self._dense_layer(2, 1), np.ones((1, 2)), x, *bounds)
            with pytest.raises(ShapeError, match="pixel range"):
                zbeta(np.ones((1, 2, 1)), conv, np.ones((1, 1, 1, 1)), x, *bounds)

    def test_inverted_bounds_reject_every_input(self):
        """With lower > upper no input lies inside the bounds: each one is below
        lower or above upper, so the range check refuses it."""
        for value in (-1.0, 0.0, 0.5, 1.0, 2.0):
            x = np.full((1, 2, 1), value)
            with pytest.raises(ShapeError, match="pixel range"):
                zbeta(np.ones(1), self._dense_layer(2, 1), np.ones((1, 2)), x, np.ones(1), np.zeros(1))


_DENSE_2x4 = LayerSpec("dense", {"in": 4, "out": 2, "bias": 0})
_DENSE_2x12 = LayerSpec("dense", {"in": 12, "out": 2, "bias": 0})
_POOL_2x2 = LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 2})
_CONV_1x1 = LayerSpec(
    "conv2d", {"in": 1, "out": 1, "kh": 1, "kw": 1, "stride": 1, "pad": 0, "bias": 0}
)


_DENSE_2x4_TERMS = rule_terms(_DENSE_2x4, np.ones((2, 4)), (1, 4, 1))  # zplus terms over [1, 4, 1] inputs


def _zbeta(layer, x, lower=np.zeros(1), upper=np.full(1, 255.0)):
    """zbeta over [2, 4] weights and a two-entry relevance."""
    return zbeta(np.zeros(2), layer, np.ones((2, 4)), x, lower, upper)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: zplus(np.zeros(3), _DENSE_2x4, np.ones((2, 4)), np.ones(4)),
         "zplus dense: relevance (3,) != output (2,)"),
        (lambda: zplus(np.zeros(2), _DENSE_2x4, np.ones((2, 3)), np.ones(4)),
         "zplus dense: weights (2, 3) != input (4,)"),
        (lambda: zplus(np.zeros(2), LayerSpec("relu"), np.ones((2, 4)), np.ones(4)),
         "zplus: unsupported layer kind relu"),
        (lambda: propagate_linear(np.zeros(2), _DENSE_2x4, np.ones(4), _DENSE_2x4_TERMS),
         "zplus dense: input (4,) != the terms' input (1, 4, 1)"),
        (lambda: _zbeta(LayerSpec("relu"), np.ones((1, 4, 1))), "zbeta: unsupported layer kind relu"),
        (lambda: _zbeta(_DENSE_2x4, np.ones((1, 3, 1))),
         "zbeta dense: weights (2, 4) != input (1, 3, 1)"),
        (lambda: _zbeta(_DENSE_2x4, np.ones((1, 4, 1)), np.zeros(2), np.ones(2)),
         "zbeta: bounds (2,) and (2,) are not per-channel vectors of input (1, 4, 1)"),
        (lambda: _zbeta(_DENSE_2x4, np.ones((1, 4, 1)), np.zeros(1), np.ones((2, 1))),
         "zbeta: bounds (1,) and (2, 1) are not per-channel vectors of input (1, 4, 1)"),
        (lambda: _zbeta(_DENSE_2x4, np.ones((1, 4, 1)), np.zeros((4, 1)), np.ones((4, 1))),
         "zbeta: bounds (4, 1) and (4, 1) are not per-channel vectors of input (1, 4, 1)"),
        (lambda: rule_terms(_DENSE_2x12, np.ones((2, 12)), (2, 2, 3), (np.arange(12.0), np.arange(1.0, 13.0))),
         "zbeta: bounds (12,) and (12,) are not per-channel vectors of input (2, 2, 3)"),
        (lambda: rule_terms(_DENSE_2x12, np.ones((2, 12)), (12,), (np.arange(12.0), np.arange(1.0, 13.0))),
         "zbeta: bounds (12,) and (12,) are not per-channel vectors of input (12,)"),
        (lambda: propagate_maxpool(np.zeros((1, 1, 1)), _CONV_1x1, np.ones((1, 1, 1)), np.zeros((1, 1, 1))),
         "maxpool: unsupported layer kind conv2d"),
    ],
    ids=["relevance-shape", "zplus-weights", "zplus-relu", "input-shape", "zbeta-relu", "zbeta-weights",
         "zbeta-bounds-channels", "bounds-broadcast", "bounds-2d", "bounds-per-pixel-behind-flatten",
         "bounds-flattened-shape", "maxpool-conv"],
)
def test_malformed_rule_operands_raise_a_shape_error(call, message):
    """The rule's terms, and the rule over them, reject operands that do not fit
    together with a ShapeError that says which."""
    with pytest.raises(ShapeError) as err:
        call()
    assert str(err.value) == message


class TestStructuralRouting:
    def test_maxpool_winner_takes_all(self):
        """Window [1,2;3,4] sends the pooled unit's relevance to where 4 was."""
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1)
        routed = propagate_maxpool(np.array([[[1.0]]]), _POOL_2x2, x, maxpool_forward(x, 2, 2, 2))
        np.testing.assert_array_equal(
            routed.reshape(-1), np.array([0.0, 0.0, 0.0, 1.0])
        )

    def test_maxpool_conserves_sum(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(6, 6, 3))
        r = rng.normal(size=(3, 3, 3))
        routed = propagate_maxpool(r, _POOL_2x2, x, maxpool_forward(x, 2, 2, 2))
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
        unchanged: the backward pass hands relevance through it as is, so the
        maps are the two dense rules applied back to back with no relu step."""
        rng = np.random.default_rng(42)
        w1 = rng.uniform(0.001, 0.01, size=(4, 3))
        w2 = rng.normal(size=(3, 4))
        dense1 = LayerSpec("dense", {"in": 3, "out": 4, "bias": 0})
        dense2 = LayerSpec("dense", {"in": 4, "out": 3, "bias": 0})
        model = self._chain((1, 3, 1), [(dense1, LayerParams(w1, None)), (LayerSpec("relu"), None),
                                        (dense2, LayerParams(w2, None)), (LayerSpec("softmax"), None)])
        x = rng.uniform(1, 255, size=(1, 3, 1))
        trace = forward(model, x)
        hidden = trace.activations[1]  # dense1's output
        assert np.all(hidden > 0)
        for target in range(3):
            got = self._maps(model, x, target)
            seeds = seed_rows(trace, target, METHODS)
            relevance = zplus(seeds, dense2, w2, hidden)
            want = zbeta(relevance, dense1, w1, x, *model_bounds(model))
            for k, method in enumerate(METHODS):
                assert got[method].raw.tobytes() == want[k].reshape(x.shape).tobytes()

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
    def test_values_are_the_positive_channel_sum_of_raw(self):
        """values is computed from raw, so no inconsistent pair can be built;
        a raw tensor that is not [H,W,C] is rejected."""
        raw = np.array([[[1.0, -2.0, 0.5], [-1.0, -3.0, 0.0]]])
        result = RelevanceMap(raw=raw, method="lrp", target=0)
        assert result.values.shape == (1, 2)
        assert result.values.tobytes() == np.array([[1.5, 0.0]]).tobytes()
        with pytest.raises(ShapeError, match="3-D raw"):
            RelevanceMap(raw=np.zeros((2, 2)), method="lrp", target=0)

    def test_rejects_negative_map(self):
        """A stored map cannot be passed in, and a wholly negative raw tensor
        gives a zero map, never a negative one."""
        with pytest.raises(TypeError, match="values"):
            RelevanceMap(values=np.array([[-0.1]]), raw=np.zeros((1, 1, 1)), method="lrp", target=0)
        result = RelevanceMap(raw=np.full((2, 3, 2), -0.1), method="lrp", target=0)
        assert result.values.tobytes() == np.zeros((2, 3)).tobytes()

    def test_rejects_extent_mismatch(self):
        """A map of another extent cannot be passed in; the map always has
        raw's [H,W] extent."""
        with pytest.raises(TypeError, match="values"):
            RelevanceMap(values=np.zeros((2, 2)), raw=np.zeros((1, 2, 1)), method="lrp", target=0)
        assert RelevanceMap(raw=np.zeros((1, 2, 1)), method="lrp", target=0).values.shape == (1, 2)
        assert RelevanceMap(raw=np.ones((4, 5, 3)), method="lrp", target=0).values.shape == (4, 5)

    def test_floor_constant_sane(self):
        assert 0 < DENOMINATOR_FLOOR < 1e-6


def backward_by_public_rules(model, trace, relevance):
    """explain_all's backward pass over the seed rows relevance [K, classes], written
    with the public rule on terms that rule_terms builds from the raw weights on
    every call, not the per-model constants. The first parametric layer here
    reads the image itself, with the model's per-channel bounds."""
    first = next(i for i, layer in enumerate(model.layers) if layer.is_parametric)
    for i in reversed(range(len(model.layers))):
        layer, a, lp = model.layers[i], trace.activations[i], model.params[i]
        if layer.kind == "maxpool":
            relevance = propagate_maxpool(relevance, layer, a, trace.activations[i + 1])
        elif layer.is_parametric:
            x, bounds = (trace.activations[0], model_bounds(model)) if i == first else (a, None)
            relevance = propagate_linear(relevance, layer, x, rule_terms(layer, lp.weights, x.shape, bounds))
        relevance = relevance.reshape((len(relevance),) + a.shape)
    return relevance


class TestRuleConstants:
    CONV = {"kh": 3, "kw": 3, "stride": 1, "pad": 1, "bias": 1}
    CHAINS = {
        "conv-first": (
            (6, 6, 3),
            (
                LayerSpec("conv2d", {"in": 3, "out": 4, **CONV}),
                LayerSpec("relu"),
                LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 2}),
                LayerSpec("conv2d", {"in": 4, "out": 3, **CONV}),
                LayerSpec("relu"),
                LayerSpec("flatten"),
                LayerSpec("dense", {"in": 27, "out": 4, "bias": 1}),
                LayerSpec("softmax"),
            ),
        ),
        "flatten-dense-first": (
            (3, 2, 2),
            (
                LayerSpec("flatten"),
                LayerSpec("dense", {"in": 12, "out": 5, "bias": 1}),
                LayerSpec("relu"),
                LayerSpec("dense", {"in": 5, "out": 3, "bias": 1}),
                LayerSpec("softmax"),
            ),
        ),
    }

    def _model_and_image(self, chain):
        """The chain with signed weights and nonzero means, which exercise every
        bound term, and a model input inside its pixel range."""
        input_shape, layers = self.CHAINS[chain]
        rng = np.random.default_rng(7)
        params = tuple(
            LayerParams(
                rng.normal(size=l.weight_shape()) / 10, 0.1 * rng.normal(size=l.params["out"])
            )
            if l.is_parametric
            else None
            for l in layers
        )
        means = rng.uniform(50, 200, input_shape[2])
        model = NetworkModel(input_shape, layers, params, Preprocessing(means, (0.0, 255.0)))
        return model, rng.uniform(0, 255, size=input_shape) - means

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_cached_constants_change_no_byte(self, chain, tmp_path):
        """A freshly loaded model's first explain builds the per-model
        constants, the second reuses them, and the public rules on the raw
        weights rebuild them each time: all three give the same bytes for
        every method."""
        layers = self.CHAINS[chain][1]
        built, image = self._model_and_image(chain)
        save_model(built, tmp_path / "m.txt", tmp_path / "m.bin")
        model = load_model(tmp_path / "m.txt", tmp_path / "m.bin")
        assert model.rule_constants == {}
        trace = forward(model, image)
        for target in range(model.num_classes):
            first = explain_all(model, trace, target, METHODS)
            assert set(model.rule_constants) == {
                i for i, l in enumerate(layers) if l.is_parametric
            }
            second = explain_all(model, trace, target, METHODS)
            want = backward_by_public_rules(model, trace, seed_rows(trace, target, METHODS))
            for k, method in enumerate(METHODS):
                assert first[method].raw.tobytes() == want[k].tobytes()
                assert second[method].raw.tobytes() == want[k].tobytes()
                assert first[method].values.tobytes() == second[method].values.tobytes()

    def test_hand_built_trace_does_not_shape_the_constants(self):
        """The constants take their shapes from the model, not from the trace
        of its first explain: a hand-built trace whose conv input (3, 3, 4) is
        reshaped to (9, 1, 4) is a ShapeError, and the next explain of the real
        trace still gives a fresh model's bytes."""
        model, image = self._model_and_image("conv-first")
        trace = forward(model, image)
        acts = list(trace.activations)
        acts[3] = acts[3].reshape(9, 1, 4)
        with pytest.raises(ShapeError):
            explain_all(model, ForwardTrace(tuple(acts), model), 0, METHODS)
        fresh, _ = self._model_and_image("conv-first")
        want = explain_all(fresh, forward(fresh, image), 0, METHODS)
        got = explain_all(model, trace, 0, METHODS)
        for method in METHODS:
            assert got[method].raw.tobytes() == want[method].raw.tobytes()

    @pytest.mark.parametrize("rows", [slice(0, 4), slice(None)], ids=["cut-short", "two-extra-rows"])
    def test_hand_built_trace_with_a_misshaped_pool_input_rejected(self, rows):
        """A hand-built trace whose pool input (6, 6, 4) is cut to 4 rows, or
        has two rows more, does not match model.shapes: explain_all raises the
        ShapeError of a trace that is not one image's, not a numpy error from
        the pool's routing or a reshape."""
        model, image = self._model_and_image("conv-first")
        acts = list(forward(model, image).activations)
        acts[2] = np.concatenate([acts[2], acts[2][:2]])[rows]
        with pytest.raises(ShapeError, match="explain: trace does not fit: not the trace of one image"):
            explain_all(model, ForwardTrace(tuple(acts), model), 0, METHODS)

    def test_shapes_are_inferred_once_per_model(self, tmp_path, monkeypatch):
        """model.shapes is the one source of every activation's shape: loading
        a model infers them once, and its forward, both explains (the first
        builds the rule constants) and an incremental forward infer none.
        infer_shapes is counted wherever a relprop module binds the name."""
        built, image = self._model_and_image("conv-first")
        save_model(built, tmp_path / "m.txt", tmp_path / "m.bin")
        calls = []

        def counted(*args):
            calls.append(args)
            return infer_shapes(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("relprop") and hasattr(module, "infer_shapes"):
                monkeypatch.setattr(module, "infer_shapes", counted)
        model = load_model(tmp_path / "m.txt", tmp_path / "m.bin")
        trace = forward(model, image)
        for _ in range(2):
            explain_all(model, trace, 0, METHODS)
        edited = image.copy()
        edited[2, 3] = 0.0
        forward(model, np.stack([image, edited]), base=trace)
        assert len(calls) == 1
        assert model.shapes == (model.input_shape, *infer_shapes(model.input_shape, list(model.layers)))

    def test_trace_of_another_input_extent_rejected(self):
        """The constants cached on a model's first explain fit its own input
        extent only; a trace from a model with another extent is a ShapeError,
        not a broadcasting failure."""
        model = dense_softmax_model(np.full((2, 3), 0.01))
        other = dense_softmax_model(np.full((2, 4), 0.01))
        explain_all(model, forward(model, np.ones((1, 3, 1))), 0, METHODS)
        with pytest.raises(ShapeError, match="does not fit"):
            explain_all(model, forward(other, np.ones((1, 4, 1))), 0, METHODS)

    def test_trace_of_a_same_shaped_model_rejected(self):
        """A trace holds the activations of the model that ran it; a model of the
        same architecture with other weights would explain it with the wrong
        activations, so its trace is a ShapeError, not a map."""
        model = dense_softmax_model(np.full((2, 3), 0.01))
        twin = dense_softmax_model(np.full((2, 3), 0.02))
        image = np.ones((1, 3, 1))
        explain_all(model, forward(model, image), 0, METHODS)
        with pytest.raises(ShapeError, match="through this model"):
            explain_all(model, forward(twin, image), 0, METHODS)
