"""Property tests over random shapes for the convolution adjoint, max pooling,
the leading seed axis that lets every method share one backward pass, the
leading image axis that lets a stack of images share one forward pass, and the
relevance rules' invariants on random chains of conv and dense layers."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relprop.model import LayerParams, LayerSpec, NetworkModel, Preprocessing, forward
from relprop.relevance import (
    METHODS,
    InputBounds,
    explain,
    explain_all,
    propagate_maxpool,
    propagate_zbeta_input,
    seed_clrp,
    seed_lrp,
    seed_sglrp,
)
from relprop.tensor import (
    conv2d_forward,
    conv2d_transpose,
    conv_extent,
    dense_forward,
    maxpool_forward,
    softmax,
)

from oracles import naive_maxpool
from synth import make_two_shape_image, make_two_shape_model

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


@PROPERTY_SETTINGS
@given(conv_cases())
def test_conv2d_transpose_rows_map_independently(case):
    """A [2, H', W', C_out] grad maps row by row, as two separate calls would."""
    input_shape, weight_shape, stride, pad, seed = case
    rng = np.random.default_rng(seed)
    w = rng.normal(size=weight_shape)
    out = conv2d_forward(np.zeros(input_shape), w, np.zeros(weight_shape[0]), stride, pad)
    grads = rng.normal(size=(2,) + out.shape)
    back = conv2d_transpose(grads, w, input_shape, stride, pad)
    assert back.shape == (2,) + input_shape
    for row in range(2):
        single = conv2d_transpose(grads[row], w, input_shape, stride, pad)
        np.testing.assert_allclose(back[row], single, rtol=0, atol=1e-12 * np.abs(single).max())


@PROPERTY_SETTINGS
@given(pool_cases())
def test_propagate_maxpool_rows_route_independently(case):
    """Batched routing equals routing each seed row alone, and each row keeps its sum."""
    x, kh, kw, stride, seed = case
    out, arg = maxpool_forward(x, kh, kw, stride)
    relevance = np.random.default_rng(seed + 1).normal(size=(3,) + out.shape)
    routed = propagate_maxpool(relevance, arg)
    assert routed.shape == (3,) + x.shape
    for row in range(3):
        np.testing.assert_array_equal(routed[row], propagate_maxpool(relevance[row], arg))
        np.testing.assert_allclose(
            routed[row].sum(), relevance[row].sum(), rtol=0, atol=1e-12 * np.abs(relevance).sum()
        )


def _random_cnn(rng: np.random.Generator, classes: int) -> NetworkModel:
    """8x8x3 > conv 4 > relu > pool > conv 3 > relu > flatten > dense > softmax."""
    conv = {"kh": 3, "kw": 3, "stride": 1, "pad": 1, "bias": 1}
    layers = (
        LayerSpec("conv2d", {"in": 3, "out": 4, **conv}),
        LayerSpec("relu"),
        LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 2}),
        LayerSpec("conv2d", {"in": 4, "out": 3, **conv}),
        LayerSpec("relu"),
        LayerSpec("flatten"),
        LayerSpec("dense", {"in": 48, "out": classes, "bias": 1}),
        LayerSpec("softmax"),
    )
    params = (
        LayerParams(rng.normal(size=(4, 3, 3, 3)) / 300, 0.1 * rng.normal(size=4)),
        None,
        None,
        LayerParams(rng.normal(size=(3, 4, 3, 3)) / 4, 0.1 * rng.normal(size=3)),
        None,
        None,
        LayerParams(rng.normal(size=(classes, 48)) / 4, 0.1 * rng.normal(size=classes)),
        None,
    )
    return NetworkModel(
        input_shape=(8, 8, 3),
        layers=layers,
        params=params,
        preprocessing=Preprocessing(means=rng.uniform(0, 255, 3), pixel_range=(0.0, 255.0)),
    )


SEEDS = {"lrp": seed_lrp, "clrp": seed_clrp, "sglrp": seed_sglrp}


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans())
@example(749503, False)  # clrp and sglrp maps cancel to ~1e-18 of their seed mass
def test_explain_all_matches_explain_per_method(seed, two_shape):
    """Superposition: one pass over the stacked lrp, clrp and sglrp seeds gives
    each method's map from its own pass, on the two-shape net and on random
    two-conv chains with an arbitrary target. Rounding is bounded by the seed's
    L1 norm, which a map whose terms cancel does not reach."""
    rng = np.random.default_rng(seed)
    if two_shape:
        model, image = make_two_shape_model(), make_two_shape_image(rng)[0]
    else:
        model = _random_cnn(rng, classes=int(rng.integers(2, 6)))
        image = rng.uniform(0, 255, size=model.input_shape)
    trace = forward(model, image, preprocessed=False)
    target = int(rng.integers(model.num_classes))
    methods = ("lrp", "clrp", "sglrp")
    maps = explain_all(model, trace, target, methods)
    assert list(maps) == list(methods)
    for method in methods:
        single = explain(model, trace, target, method)
        atol = 1e-12 * np.abs(SEEDS[method](trace, target).values).sum()
        np.testing.assert_allclose(maps[method].raw, single.raw, rtol=0, atol=atol)
        np.testing.assert_allclose(maps[method].values, single.values, rtol=0, atol=3 * atol)
        assert maps[method].method == method and maps[method].target == target


STACK_SIZES = st.integers(1, 6)


@PROPERTY_SETTINGS
@given(conv_cases(), STACK_SIZES)
def test_conv2d_forward_stack_rows_match_single_calls(case, n):
    """Row k of a stacked conv is image k's conv. The batched contraction may
    sum in another order, so rows agree to rounding, not always bit for bit."""
    input_shape, weight_shape, stride, pad, seed = case
    rng = np.random.default_rng(seed)
    w, b = rng.normal(size=weight_shape), rng.normal(size=weight_shape[0])
    stack = rng.normal(size=(n,) + input_shape)
    out = conv2d_forward(stack, w, b, stride, pad)
    for k in range(n):
        single = conv2d_forward(stack[k], w, b, stride, pad)
        assert out[k].shape == single.shape
        np.testing.assert_allclose(out[k], single, rtol=0, atol=1e-12 * np.abs(single).max())


@PROPERTY_SETTINGS
@given(pool_cases(), STACK_SIZES)
def test_maxpool_forward_stack_rows_match_single_calls(case, n):
    """Pooled rows and their derived winner indices equal each image's own pool."""
    x, kh, kw, stride, seed = case
    extra = np.random.default_rng(seed + 1).integers(-2, 3, size=(n - 1,) + x.shape)
    stack = np.concatenate([x[None], extra.astype(np.float64)])
    out, arg = maxpool_forward(stack, kh, kw, stride)
    for k in range(n):
        single, single_arg = maxpool_forward(stack[k], kh, kw, stride)
        np.testing.assert_array_equal(out[k], single)
        np.testing.assert_array_equal(arg.indices[k], single_arg.indices)


@PROPERTY_SETTINGS
@given(st.integers(1, 40), st.integers(1, 40), STACK_SIZES, st.integers(0, 2**32 - 1))
def test_dense_forward_stack_rows_match_single_calls(m, n_in, n, seed):
    """Each row is its own matrix-vector product, so rows match bit for bit."""
    rng = np.random.default_rng(seed)
    w, b = rng.normal(size=(m, n_in)), rng.normal(size=m)
    stack = rng.normal(size=(n, n_in))
    out = dense_forward(stack, w, b)
    assert out.shape == (n, m)
    for k in range(n):
        np.testing.assert_array_equal(out[k], dense_forward(stack[k], w, b))


@PROPERTY_SETTINGS
@given(st.integers(1, 12), STACK_SIZES, st.integers(0, 2**32 - 1), st.floats(0.1, 300.0))
def test_softmax_stack_rows_match_single_calls(classes, n, seed, scale):
    """Each row is shifted by its own maximum and normalized by its own sum."""
    logits = scale * np.random.default_rng(seed).normal(size=(n, classes))
    out = softmax(logits)
    for k in range(n):
        np.testing.assert_array_equal(out[k], softmax(logits[k]))


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), STACK_SIZES)
def test_forward_stack_rows_match_single_forwards(seed, n):
    """Row k of a stacked forward's probabilities is image k's probabilities."""
    rng = np.random.default_rng(seed)
    model = _random_cnn(rng, classes=int(rng.integers(2, 6)))
    stack = rng.uniform(0, 255, size=(n,) + model.input_shape)
    probs = forward(model, stack, preprocessed=False).probabilities
    assert probs.shape == (n, model.num_classes)
    for k in range(n):
        single = forward(model, stack[k], preprocessed=False).probabilities
        np.testing.assert_allclose(probs[k], single, rtol=0, atol=1e-12 * np.abs(single).max())


@st.composite
def chain_cases(draw):
    """A random chain of conv and dense layers, each fed through relu: 0-2 convs,
    each optionally followed by an overlapping 2x2 maxpool, then flatten, an
    optional hidden dense layer and a dense head with 2-4 classes. Returns the
    layers, the input shape and a weight seed."""
    shape = (draw(st.integers(2, 6)), draw(st.integers(2, 6)), draw(st.integers(1, 3)))
    input_shape, layers = shape, []
    for _ in range(draw(st.integers(0, 2))):
        k, stride = draw(st.integers(1, min(3, *shape[:2]))), draw(st.integers(1, 2))
        conv = {"in": shape[2], "out": draw(st.integers(1, 4)), "kh": k, "kw": k}
        conv.update(stride=stride, pad=draw(st.integers(0, 1)), bias=1)
        layers += [LayerSpec("conv2d", conv), LayerSpec("relu")]
        shape = (*conv_extent(*shape[:2], k, k, stride, conv["pad"]), conv["out"])
        if min(shape[:2]) >= 2 and draw(st.booleans()):
            layers.append(LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 1}))
            shape = (shape[0] - 1, shape[1] - 1, shape[2])
    width = int(np.prod(shape))
    layers.append(LayerSpec("flatten"))
    if draw(st.booleans()):
        hidden = draw(st.integers(1, 6))
        layers += [LayerSpec("dense", {"in": width, "out": hidden, "bias": 1}), LayerSpec("relu")]
        width = hidden
    layers += [
        LayerSpec("dense", {"in": width, "out": draw(st.integers(2, 4)), "bias": 1}),
        LayerSpec("softmax"),
    ]
    return tuple(layers), input_shape, draw(st.integers(0, 2**32 - 1))


def _chain_model(layers, input_shape, rng, positive=False, bias=True) -> NetworkModel:
    """Random weights for `layers`: |N(0,1)| when positive, and zero bias unless bias."""
    params = []
    for layer in layers:
        if not layer.is_parametric:
            params.append(None)
            continue
        weights = rng.normal(size=layer.weight_shape()) / np.sqrt(np.prod(layer.weight_shape()[1:]))
        out = layer.params["out"]
        params.append(
            LayerParams(np.abs(weights) if positive else weights, 0.1 * rng.normal(size=out) * bias)
        )
    return NetworkModel(
        input_shape=input_shape,
        layers=layers,
        params=tuple(params),
        preprocessing=Preprocessing(
            means=rng.uniform(0, 255, input_shape[2]), pixel_range=(0.0, 255.0)
        ),
    )


@PROPERTY_SETTINGS
@given(chain_cases())
def test_bias_free_positive_chain_conserves_lrp_seed(case):
    """With positive weights and no bias no relevance leaks, so the input map
    sums to the lrp seed, through every conv, pool and dense layer."""
    layers, input_shape, seed = case
    rng = np.random.default_rng(seed)
    model = _chain_model(layers, input_shape, rng, positive=True, bias=False)
    trace = forward(model, rng.uniform(0, 255, size=input_shape), preprocessed=False)
    target = int(rng.integers(model.num_classes))
    total = explain(model, trace, target, "lrp").raw.sum()
    want = seed_lrp(trace, target).values.sum()
    assert abs(total - want) <= 1e-8 * abs(want)


@PROPERTY_SETTINGS
@given(chain_cases())
def test_every_method_map_is_non_negative(case):
    """Signed weights and biases still give each method a finite, non-negative
    map with the input's extent."""
    layers, input_shape, seed = case
    rng = np.random.default_rng(seed)
    model = _chain_model(layers, input_shape, rng)
    trace = forward(model, rng.uniform(0, 255, size=input_shape), preprocessed=False)
    maps = explain_all(model, trace, int(rng.integers(model.num_classes)), METHODS)
    for relevance_map in maps.values():
        assert relevance_map.values.shape == input_shape[:2]
        assert np.all(np.isfinite(relevance_map.values)) and np.all(relevance_map.values >= 0)


@PROPERTY_SETTINGS
@given(chain_cases(), st.integers(1, 3))
def test_zbeta_keeps_non_negative_relevance_non_negative(case, rows):
    """Inside the pixel range every zbeta contribution is non-negative, so
    non-negative relevance stays non-negative on the first conv or dense layer.
    The three adjoint sums round apart by a few ulps of the bound-weighted
    total, which the tolerance allows."""
    layers, input_shape, seed = case
    rng = np.random.default_rng(seed)
    layer = next(l for l in layers if l.is_parametric)  # reads the pixels
    weights = rng.normal(size=layer.weight_shape())
    lower = -rng.uniform(0, 150, input_shape[2])
    bounds = InputBounds(lower=lower, upper=lower + rng.uniform(1, 150, input_shape[2]))
    x = bounds.lower + rng.uniform(0.05, 0.95, input_shape) * (bounds.upper - bounds.lower)
    width = np.min(bounds.upper - bounds.lower)
    if layer.kind == "conv2d":
        p = layer.params
        out_shape = conv2d_forward(x, weights, np.zeros(p["out"]), p["stride"], p["pad"]).shape
    else:
        out_shape = (layer.params["out"],)
    relevance = np.abs(rng.normal(size=(rows,) + out_shape))
    got = propagate_zbeta_input(relevance, layer, weights, x, bounds)
    assert got.shape == (rows,) + input_shape
    reach = np.maximum(np.abs(bounds.lower), np.abs(bounds.upper)).max() / width
    for row in range(rows):
        assert got[row].min() >= -1e-12 * reach * relevance[row].sum()
