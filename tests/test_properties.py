"""Property tests over random shapes for the convolution kernel and its adjoint,
max pooling, the leading seed axis that lets every method share one backward
pass, the leading image axis that lets a stack of images share one forward
pass, masking in model space, the incremental forward that recomputes only
what a masking patch reaches, the relevance rules' invariants on random chains of conv and dense
layers, and the pointing game's thresholds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relprop.errors import ShapeError
from relprop.evaluate import (
    DEFAULT_ENERGIES,
    BoundingBox,
    NoPositiveRelevanceError,
    energy_threshold,
    mask_patch,
    pointing_game,
)
from relprop.imaging import preprocess
from relprop.model import LayerParams, LayerSpec, NetworkModel, Preprocessing, forward
from relprop.relevance import (
    METHODS,
    explain,
    explain_all,
    propagate_maxpool,
    rule_terms,
    seed_rows,
)
from relprop.tensor import (
    conv2d_forward,
    conv2d_transpose,
    conv_extent,
    dense_forward,
    maxpool_forward,
    pool_extent,
    pool_winners,
    softmax,
)

from oracles import naive_maxpool, naive_maxpool_route, seed_rows_by_formula, strided_col2im
from synth import make_two_shape_image, make_two_shape_model
from test_model import dense_softmax_model
from test_relevance import seed_row, zbeta, zplus

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
    got = maxpool_forward(x, kh, kw, stride)
    want, want_idx = naive_maxpool(x, kh, kw, stride)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(pool_winners(x, got, kh, kw, stride), want_idx)


@PROPERTY_SETTINGS
@given(pool_cases())
def test_propagate_maxpool_conserves_relevance(case):
    """Routing moves every pooled unit's relevance onto one input element, so the
    total is unchanged even where overlapping windows share a winner."""
    x, kh, kw, stride, seed = case
    out = maxpool_forward(x, kh, kw, stride)
    layer = LayerSpec("maxpool", {"kh": kh, "kw": kw, "stride": stride})
    relevance = np.random.default_rng(seed + 1).normal(size=out.shape)
    routed = propagate_maxpool(relevance, layer, x, out)
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


@st.composite
def same_size_conv_cases(draw):
    """A stride-1 conv whose output has its input's extent: a (2p+1)-square kernel with
    pad p, over extents down to 1, smaller than the pad too."""
    pad = draw(st.integers(0, 3))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    c_in, c_out = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return (h, w, c_in), (c_out, c_in, 2 * pad + 1, 2 * pad + 1), 1, pad, seed


def _signed_zeros(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """x with about a quarter of its entries set to +0.0 and another quarter to -0.0."""
    draw = rng.random(x.shape)
    return np.where(draw < 0.25, 0.0, np.where(draw < 0.5, -0.0, x))


@PROPERTY_SETTINGS
@given(st.one_of(same_size_conv_cases(), conv_cases()), st.sampled_from([(), (1,), (3,)]))
@example(((1, 2, 2), (3, 2, 7, 7), 1, 3, 5), (3,))  # extents below the pad
def test_conv2d_transpose_is_the_strided_scatter_to_the_byte(case, lead):
    """A same-size stride-1 conv adds each tap's whole block at one flat offset, with its
    contributions to the padding set to +0.0; every other geometry scatters with strided
    slice-adds. Both give the strided scatter's bytes, with or without a seed axis, on
    grads and weights holding exact +0.0 and -0.0."""
    input_shape, weight_shape, stride, pad, seed = case
    rng = np.random.default_rng(seed)
    w = _signed_zeros(rng, rng.normal(size=weight_shape))
    out_shape = conv_extent(*input_shape[:2], *weight_shape[2:], stride, pad) + weight_shape[:1]
    grad = _signed_zeros(rng, rng.normal(size=lead + out_shape))
    got = conv2d_transpose(grad, w, input_shape, stride, pad)
    want = strided_col2im(grad, w, input_shape, stride, pad)
    assert got.shape == want.shape == lead + input_shape
    assert got.tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(conv_cases())
@example(((2, 2, 2), (3, 2, 4, 4), 1, 1, 9))  # no interior row or column
@example(((3, 3, 2), (2, 2, 3, 3), 1, 1, 5))  # exactly one interior row and column
@example(((8, 9, 2), (2, 2, 2, 2), 3, 1, 6))  # stride above the kernel, two interior rows and columns
@example(((3, 5, 1), (2, 1, 4, 2), 3, 2, 4))
def test_zbeta_conv_bound_terms_are_the_full_conv_to_the_byte(case):
    """The zbeta conv bound terms apply(b, W+) and apply(b, W-), built on the smallest
    constant image that keeps every border output and one interior output per axis, equal
    conv2d_forward of the whole bound image to the byte: at any stride, pad, kernel and
    extent, with per-channel constants that are negative, zero or positive."""
    input_shape, weight_shape, stride, pad, seed = case
    rng = np.random.default_rng(seed)
    values = (-118.5, -3.0, -0.0, 0.0, 2.5, 136.25)
    lower, upper = (rng.choice(values, size=input_shape[2]) for _ in range(2))
    layer = LayerSpec("conv2d", {"in": input_shape[2], "out": weight_shape[0], "kh": weight_shape[2],
                                 "kw": weight_shape[3], "stride": stride, "pad": pad, "bias": 0})
    weights = rng.normal(size=weight_shape)
    *_, bound = rule_terms(layer, weights, input_shape, (lower, upper))
    zeros = np.zeros(weight_shape[0])
    for (b, wb, fixed), want_w in zip(bound, (np.maximum(weights, 0.0), np.minimum(weights, 0.0))):
        want = conv2d_forward(np.broadcast_to(b, input_shape), want_w, zeros, stride, pad)
        assert fixed.shape == want.shape and fixed.flags.c_contiguous
        assert fixed.tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(pool_cases())
def test_propagate_maxpool_rows_route_independently(case):
    """Batched routing equals routing each seed row alone, and each row keeps its sum.
    Its bytes equal a sequential row-major scatter over the loop oracle's winners, which
    fixes the summation order where overlapping windows share a winner."""
    x, kh, kw, stride, seed = case
    out = maxpool_forward(x, kh, kw, stride)
    layer = LayerSpec("maxpool", {"kh": kh, "kw": kw, "stride": stride})
    relevance = np.random.default_rng(seed + 1).normal(size=(3,) + out.shape)
    routed = propagate_maxpool(relevance, layer, x, out)
    assert routed.shape == (3,) + x.shape
    scattered = naive_maxpool_route(relevance, naive_maxpool(x, kh, kw, stride)[1], x.shape)
    assert routed.tobytes() == scattered.tobytes()
    for row in range(3):
        np.testing.assert_array_equal(routed[row], propagate_maxpool(relevance[row], layer, x, out))
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
    trace = forward(model, image - model.preprocessing.means)
    target = int(rng.integers(model.num_classes))
    methods = ("lrp", "clrp", "sglrp")
    maps = explain_all(model, trace, target, methods)
    assert list(maps) == list(methods)
    for method in methods:
        single = explain(model, trace, target, method)
        atol = 1e-12 * np.abs(seed_row(method, trace, target)).sum()
        np.testing.assert_allclose(maps[method].raw, single.raw, rtol=0, atol=atol)
        np.testing.assert_allclose(maps[method].values, single.values, rtol=0, atol=3 * atol)
        assert maps[method].method == method and maps[method].target == target


@PROPERTY_SETTINGS
@given(
    st.lists(st.sampled_from([-2.5, -1.0, 0.0, 1.0, 3.0]) | st.floats(-40, 40), min_size=2, max_size=12),
    st.data(),
)
def test_seed_rows_match_their_formulas(values, data):
    """Each method's seed_rows row equals its formula byte for byte, over logits
    with ties and negative target logits, and no off-target lrp entry is -0.0."""
    target = data.draw(st.integers(0, len(values) - 1))
    if data.draw(st.booleans()):
        values[target] = -abs(values[target]) - 0.5
    n = len(values)
    trace = forward(dense_softmax_model(np.eye(n)), np.array(values).reshape(1, n, 1))
    want = seed_rows_by_formula(trace.logits, trace.probabilities, target)
    for method in METHODS:
        assert seed_row(method, trace, target).tobytes() == want[method].tobytes(), method
    assert not np.signbit(np.delete(seed_row("lrp", trace, target), target)).any()


@PROPERTY_SETTINGS
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3)),
    st.integers(1, 5),
    st.sampled_from([1, 3]),
    st.integers(0, 2**32 - 1),
)
def test_dense_zplus_reads_an_unflattened_map_in_flattened_order(shape, out, k, seed):
    """A dense layer fed an [H,W,C] map, with no flatten between, gives K = 1
    or K = 3 seed rows the relevance of the same call on the map's 1-D
    flattening, reshaped to the map, byte for byte."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    layer = LayerSpec("dense", {"in": n, "out": out, "bias": 0})
    weights = rng.normal(size=(out, n))
    a = np.maximum(rng.normal(size=shape), 0.0)  # relu'd, so some inputs are 0
    relevance = rng.normal(size=(k, out))
    got = zplus(relevance, layer, weights, a)
    assert got.shape == (k, *shape)
    assert got.tobytes() == zplus(relevance, layer, weights, a.reshape(-1)).tobytes()


STACK_SIZES = st.integers(1, 6)


@PROPERTY_SETTINGS
@given(pool_cases(), STACK_SIZES)
def test_maxpool_forward_stack_rows_match_single_calls(case, n):
    """Pooled rows and their derived winner indices equal each image's own pool."""
    x, kh, kw, stride, seed = case
    extra = np.random.default_rng(seed + 1).integers(-2, 3, size=(n - 1,) + x.shape)
    stack = np.concatenate([x[None], extra.astype(np.float64)])
    out = maxpool_forward(stack, kh, kw, stride)
    winners = pool_winners(stack, out, kh, kw, stride)
    for k in range(n):
        single = maxpool_forward(stack[k], kh, kw, stride)
        np.testing.assert_array_equal(out[k], single)
        np.testing.assert_array_equal(winners[k], pool_winners(stack[k], single, kh, kw, stride))


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
@given(conv_cases(), STACK_SIZES)
@example(((1, 1, 2), (1, 2, 1, 1), 1, 0, 1), 5)  # C_out 1, a 1x1 kernel, 1 and 5 columns
def test_conv2d_forward_bytes_do_not_depend_on_grouping(case, n):
    """Every conv GEMM is padded to a multiple of 8 columns, so row k of a stacked
    conv is image k's own conv to the byte, and an unpadded conv over the crop of the
    zero-padded stack that an output box reads is that slice of its full conv to the
    byte: at any column count, with C_out 1 and 1x1 kernels too."""
    input_shape, weight_shape, stride, pad, seed = case
    rng = np.random.default_rng(seed)
    w, b = rng.normal(size=weight_shape), rng.normal(size=weight_shape[0])
    stack = rng.normal(size=(n,) + input_shape)
    full = conv2d_forward(stack, w, b, stride, pad)
    for k in range(n):
        single = conv2d_forward(stack[k], w, b, stride, pad)
        assert full[k].shape == single.shape and full[k].tobytes() == single.tobytes()
    (r0, r1), (c0, c1) = (np.sort(rng.choice(extent + 1, 2, replace=False)) for extent in full.shape[1:3])
    padded = np.pad(stack, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    kh, kw = weight_shape[2:]
    crop = padded[:, r0 * stride : (r1 - 1) * stride + kh, c0 * stride : (c1 - 1) * stride + kw]
    got = conv2d_forward(crop, w, b, stride, 0)
    want = full[:, r0:r1, c0:c1]
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@st.composite
def incremental_cases(draw):
    """A random chain for the incremental forward, and a stack of edits to its
    input. 0-2 convs with stride 1-3, pad 0-2 and kh, kw 1-4, each through relu
    and optionally an overlapping maxpool, then flatten > dense or a dense layer
    read straight off the [H, W, C] map, an optional hidden dense layer and a head.
    Each of 1-6 rows masks one odd patch (centres anywhere, borders and corners
    favoured) or two pixels in opposite corners."""
    corner_or_any = lambda n: st.one_of(st.sampled_from((0, n - 1)), st.integers(0, n - 1))
    input_shape = (draw(st.integers(3, 12)), draw(st.integers(3, 12)), draw(st.integers(1, 3)))
    shape, layers = input_shape, []
    for _ in range(draw(st.integers(0, 2))):
        pad, stride = draw(st.integers(0, 2)), draw(st.integers(1, 3))
        kh = draw(st.integers(1, min(4, shape[0] + 2 * pad)))
        kw = draw(st.integers(1, min(4, shape[1] + 2 * pad)))
        conv = {"in": shape[2], "out": draw(st.integers(1, 4)), "kh": kh, "kw": kw}
        conv.update(stride=stride, pad=pad, bias=1)
        layers += [LayerSpec("conv2d", conv), LayerSpec("relu")]
        shape = (*conv_extent(*shape[:2], kh, kw, stride, pad), conv["out"])
        if min(shape[:2]) >= 2 and draw(st.booleans()):
            ph, pw = draw(st.integers(1, min(3, shape[0]))), draw(st.integers(1, min(3, shape[1])))
            tiling = [s for s in (1, 2, 3) if (shape[0] - ph) % s == 0 == (shape[1] - pw) % s]
            pool = {"kh": ph, "kw": pw, "stride": draw(st.sampled_from(tiling))}
            layers.append(LayerSpec("maxpool", pool))
            shape = (*pool_extent(*shape[:2], ph, pw, pool["stride"]), shape[2])
    width = int(np.prod(shape))
    if draw(st.booleans()):
        layers.append(LayerSpec("flatten"))
    if draw(st.booleans()):
        hidden = draw(st.integers(1, 6))
        layers += [LayerSpec("dense", {"in": width, "out": hidden, "bias": 1}), LayerSpec("relu")]
        width = hidden
    layers += [
        LayerSpec("dense", {"in": width, "out": draw(st.integers(2, 4)), "bias": 1}),
        LayerSpec("softmax"),
    ]
    h, w = input_shape[:2]
    edits = []
    for _ in range(draw(STACK_SIZES)):
        if draw(st.booleans()):
            centre = (draw(corner_or_any(w)), draw(corner_or_any(h)))
            edits.append(("patch", centre, draw(st.sampled_from((1, 3, 5, 7, 9)))))
        else:
            near = (draw(st.integers(0, (h - 1) // 3)), draw(st.integers(0, (w - 1) // 3)))
            edits.append(("pair", near, (h - 1 - near[0], w - 1 - near[1])))
    return tuple(layers), input_shape, edits, draw(st.integers(0, 2**32 - 1))


def _edited(image: np.ndarray, edit) -> np.ndarray:
    kind, a, b = edit
    if kind == "patch":
        return mask_patch(image, a, b)
    out = image.copy()
    out[a] = out[b] = 0.0
    return out


_ONE_FILTER_CHAIN = (  # a 2x1 conv with C_out 1 over 4x3 images: 9 GEMM columns per image
    LayerSpec("conv2d", {"in": 2, "out": 1, "kh": 2, "kw": 1, "stride": 1, "pad": 0, "bias": 1}),
    LayerSpec("relu"),
    LayerSpec("dense", {"in": 9, "out": 3, "bias": 1}),
    LayerSpec("softmax"),
)


@PROPERTY_SETTINGS
@given(incremental_cases())
@example((_ONE_FILTER_CHAIN, (4, 3, 2), [("patch", (1, 1), 3), ("pair", (0, 0), (3, 2))], 1))
def test_incremental_forward_is_the_full_stacked_forward_to_the_byte(case):
    """Every conv window carries the full conv's bytes, so the incremental forward of
    a stack gives the full stacked forward's probabilities byte for byte, and each
    row is that image's own forward: at any GEMM column count, with C_out 1 and 1x1
    kernels too. A stack of unedited copies gives the base's own probabilities."""
    layers, input_shape, edits, seed = case
    rng = np.random.default_rng(seed)
    model = _chain_model(layers, input_shape, rng)
    image = rng.uniform(0, 255, size=input_shape) - model.preprocessing.means
    base = forward(model, image)
    stack = np.stack([_edited(image, edit) for edit in edits])
    got = forward(model, stack, base=base).probabilities
    assert got.shape == (len(edits), model.num_classes)
    assert got.tobytes() == forward(model, stack).probabilities.tobytes()
    for row, edited in zip(got, stack):
        assert row.tobytes() == forward(model, edited).probabilities.tobytes()
    copies = forward(model, np.stack([image] * len(edits)), base=base)
    for row in copies.probabilities:
        assert row.tobytes() == base.probabilities.tobytes()


@PROPERTY_SETTINGS
@given(st.integers(1, 6), st.integers(1, 9), st.integers(1, 9), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_masking_a_model_input_is_masking_with_the_means_less_the_means(side, height, width, r, seed):
    """Setting a patch of preprocess's output to 0.0 gives, to the byte, the raw image
    with that patch set to the dataset means, less the means: m - m is +0.0, and every
    other pixel goes through the same subtraction."""
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    means = rng.uniform(0, 255, size=3)
    model = dense_softmax_model(np.zeros((2, 3 * side * side)), input_shape=(side, side, 3), means=means)
    x, y = int(rng.integers(side)), int(rng.integers(side))
    raw = preprocess(image, model, subtract_mean=False)
    raw[max(0, y - r) : y + r + 1, max(0, x - r) : x + r + 1] = means
    got = mask_patch(preprocess(image, model), (x, y), 2 * r + 1)
    assert got.tobytes() == (raw - means).tobytes()


def test_incremental_forward_of_one_image_is_an_explainable_trace():
    """With one edited image the incremental trace carries every layer's full
    arrays, the full forward's to the byte, so explaining it gives the full
    forward's maps to the byte."""
    rng = np.random.default_rng(7)
    model = _random_cnn(rng, classes=4)
    image = rng.uniform(0, 255, size=model.input_shape) - model.preprocessing.means
    edited = mask_patch(image, (6, 1), 3)
    base = forward(model, image)
    got = forward(model, edited, base=base)
    want = forward(model, edited)
    assert len(got.activations) == len(want.activations) == len(model.layers) + 1
    for a, b in zip(got.activations, want.activations):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for method in METHODS:
        mine, full = explain(model, got, 1, method), explain(model, want, 1, method)
        assert mine.raw.tobytes() == full.raw.tobytes()
        assert mine.values.tobytes() == full.values.tobytes()


def test_incremental_forward_of_a_stack_allocates_less_than_one_stacked_conv_output():
    """A stack's incremental forward builds each layer's input window from base's
    arrays and full rows only at the first flatten or dense layer, so forwarding five
    images masked by small patches traces less memory at its peak than one stacked
    copy of the first conv's output (5 x 64 x 64 x 16 float64, 2.62 MB)."""
    conv = {"in": 3, "out": 16, "kh": 3, "kw": 3, "stride": 1, "pad": 1, "bias": 1}
    layers = (LayerSpec("conv2d", conv), LayerSpec("relu"),
              LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 2}), LayerSpec("flatten"),
              LayerSpec("dense", {"in": 32 * 32 * 16, "out": 3, "bias": 1}), LayerSpec("softmax"))
    rng = np.random.default_rng(11)
    model = _chain_model(layers, (64, 64, 3), rng)
    image = rng.uniform(0, 255, size=model.input_shape) - model.preprocessing.means
    base = forward(model, image)
    stack = np.stack([mask_patch(image, (20, 20), p) for p in (1, 3, 5, 7, 9)])
    tracemalloc.start()
    try:
        got = forward(model, stack, base=base).probabilities
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack.shape[0] * 64 * 64 * 16 * 8
    assert got.tobytes() == forward(model, stack).probabilities.tobytes()


def test_incremental_forward_crops_only_what_a_one_pixel_edit_reaches():
    """The reach box is tight: a stack edited at pixel (5, 8) of a 12x12 input records,
    for each conv, relu and maxpool, a crop of exactly the outputs whose windows read
    that pixel. 3x3 conv, stride 1, pad 1: rows 4-6, cols 7-9 (3x3). Its relu: the same.
    3x3 conv, stride 2, pad 1, over that box: output o reads rows 2o-1..2o+1, so rows
    2-3 and cols 3-5 (2x3). Its relu: the same. 2x2 maxpool, stride 2: row 1, cols 1-2
    (1x2). A box one output too wide costs only time, so only these extents show it."""
    conv = {"in": 1, "out": 2, "kh": 3, "kw": 3, "pad": 1, "bias": 1}
    layers = (LayerSpec("conv2d", {**conv, "stride": 1}), LayerSpec("relu"),
              LayerSpec("conv2d", {**conv, "in": 2, "stride": 2}), LayerSpec("relu"),
              LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 2}), LayerSpec("flatten"),
              LayerSpec("dense", {"in": 18, "out": 3, "bias": 1}), LayerSpec("softmax"))
    rng = np.random.default_rng(5)
    model = _chain_model(layers, (12, 12, 1), rng)
    image = rng.uniform(0, 255, size=model.input_shape) - model.preprocessing.means
    stack = np.stack([image, image])
    stack[0, 5, 8], stack[1, 5, 8] = -model.preprocessing.means[0], 1.0
    got = forward(model, stack, base=forward(model, image))
    crops = [a.shape[1:3] for a in got.activations[1:6]]
    assert crops == [(3, 3), (3, 3), (2, 3), (2, 3), (1, 2)]
    assert got.probabilities.tobytes() == forward(model, stack).probabilities.tobytes()


def test_incremental_forward_rejects_a_base_from_another_input():
    """The base must be the trace of one image through this model: not a stack's
    trace, not the trace of a model with other shapes, and not that of a model
    with the same shapes but other weights."""
    rng = np.random.default_rng(3)
    model = _random_cnn(rng, classes=3)
    image = rng.uniform(0, 255, size=model.input_shape) - model.preprocessing.means
    stacked = forward(model, np.stack([image, image]))
    other = make_two_shape_model()
    foreign = forward(other, make_two_shape_image(rng)[0] - other.preprocessing.means)
    twin = forward(_random_cnn(np.random.default_rng(4), classes=3), image)
    for base in (stacked, foreign, twin):
        with pytest.raises(ShapeError, match="base"):
            forward(model, image, base=base)


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
    trace = forward(model, rng.uniform(0, 255, size=input_shape) - model.preprocessing.means)
    target = int(rng.integers(model.num_classes))
    total = explain(model, trace, target, "lrp").raw.sum()
    want = seed_row("lrp", trace, target).sum()
    assert abs(total - want) <= 1e-8 * abs(want)


@PROPERTY_SETTINGS
@given(chain_cases())
def test_every_method_map_is_non_negative(case):
    """Signed weights and biases still give each method a finite, non-negative
    map with the input's extent."""
    layers, input_shape, seed = case
    rng = np.random.default_rng(seed)
    model = _chain_model(layers, input_shape, rng)
    trace = forward(model, rng.uniform(0, 255, size=input_shape) - model.preprocessing.means)
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
    upper = lower + rng.uniform(1, 150, input_shape[2])
    x = lower + rng.uniform(0.05, 0.95, input_shape) * (upper - lower)
    width = np.min(upper - lower)
    if layer.kind == "conv2d":
        p = layer.params
        out_shape = conv2d_forward(x, weights, np.zeros(p["out"]), p["stride"], p["pad"]).shape
    else:
        out_shape = (layer.params["out"],)
    relevance = np.abs(rng.normal(size=(rows,) + out_shape))
    got = zbeta(relevance, layer, weights, x, lower, upper)
    assert got.shape == (rows,) + input_shape
    reach = np.maximum(np.abs(lower), np.abs(upper)).max() / width
    for row in range(rows):
        assert got[row].min() >= -1e-12 * reach * relevance[row].sum()


@PROPERTY_SETTINGS
@given(
    st.integers(2, 5), st.integers(2, 5), st.integers(2, 5), st.integers(2, 5),
    st.integers(1, 3), st.integers(0, 2), st.one_of(st.none(), st.integers(1, 6)),
    st.integers(0, 2**32 - 1),
)
def test_conv2d_forward_is_the_einsum_contraction(c_in, c_out, kh, kw, stride, pad, n, seed):
    """With every channel and kernel extent at least 2, conv2d_forward returns the
    einsum contraction it replaced as a C-contiguous array, with or without a
    leading image axis: to the byte where its GEMM's column count N*rows*cols is a
    multiple of 8, as on every bench shape, and to rounding elsewhere, where
    conv2d_forward pads the columns to a multiple of 8 and einsum does not."""
    rng = np.random.default_rng(seed)
    h = int(rng.integers(max(1, kh - 2 * pad), kh + 8))
    w = int(rng.integers(max(1, kw - 2 * pad), kw + 8))
    lead = () if n is None else (n,)
    x = rng.normal(size=lead + (h, w, c_in))
    weights, bias = rng.normal(size=(c_out, c_in, kh, kw)), rng.normal(size=c_out)
    got = conv2d_forward(x, weights, bias, stride, pad)
    padded = np.pad(x, ((0, 0),) * len(lead) + ((pad, pad), (pad, pad), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(-3, -2))
    windows = windows[..., ::stride, ::stride, :, :, :]
    want = np.einsum("...xyckl,ockl->...xyo", windows, weights, optimize=True) + bias
    assert got.flags.c_contiguous and got.shape == want.shape
    if got.size // c_out % 8 == 0:
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@PROPERTY_SETTINGS
@given(
    st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=4),
)
def test_pointing_game_matches_per_energy_thresholds(h, w, seed, extra):
    """Reading every threshold from one sort, and counting by bisection, gives
    the rows of thresholding at energy_threshold and counting pixels at or
    above it, exactly: on maps with tied values, zeros and negatives, at the
    default energies and arbitrary ones. A map with no positive entry has no
    threshold."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-2, 5, size=(h, w)) * rng.choice([0.25, 1.0, np.pi])
    x0, y0 = int(rng.integers(w)), int(rng.integers(h))
    box = BoundingBox(0, x0, y0, int(rng.integers(x0, w)), int(rng.integers(y0, h)))
    energies = DEFAULT_ENERGIES + tuple(extra)
    if not np.any(values > 0):
        with pytest.raises(NoPositiveRelevanceError):
            pointing_game(values, box, energies)
        return
    inside = box.mask(h, w)
    for row, energy in zip(pointing_game(values, box, energies), energies):
        tau = energy_threshold(values, energy)
        above = values >= tau
        hits, total = int(np.count_nonzero(above & inside)), int(np.count_nonzero(above))
        assert (row.energy, row.tau, row.hits, row.misses) == (energy, tau, hits, total - hits)
        assert row.accuracy == hits / total


def test_pointing_game_without_positive_entries_raises():
    box = BoundingBox(0, 0, 0, 1, 1)
    for values in (np.zeros((2, 3)), -np.ones((2, 3))):
        with pytest.raises(NoPositiveRelevanceError):
            pointing_game(values, box)
