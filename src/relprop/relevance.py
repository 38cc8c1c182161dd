"""Class-discriminative relevance propagation.

Relevance starts at the logit layer as a method-specific seed vector and flows
backward through the chain. Dense and conv layers share one rule,
propagate_linear: each input receives relevance in proportion to its
contribution, over the layer's bias-free linear map and adjoint from _layer_map
(W @ x and s @ W, or conv2d_forward and conv2d_transpose). zplus counts
positive-weight contributions; the first dense or conv layer, which reads
mean-subtracted pixels, uses zbeta: W and two bound terms for the admissible
pixel range, so negative inputs cannot invert signs. Max-pool routes
winner-take-all to the winners pool_winners derives from the traced pool's input
and output; relu, flatten and softmax are skipped. All rules are linear, so
relevance may carry a leading seed axis, one row per method from seed_rows. The
result is a signed per-pixel tensor; its 2-D map sums positive evidence over
channels.

explain_all keeps every dense and conv layer's model-fixed operands, built by
rule_terms from the model's own shapes on its first explain, in the model's
rule_constants.

Seeds (seed_rows builds one row per method; the methods differ in nothing else):

- "lrp": the target logit's value on the target entry, +0.0 elsewhere.
- "clrp": the target logit on the target entry, and the same mass spread
  uniformly with negative sign over the other classes, so the seed sums to zero.
- "sglrp": the target row of the softmax Jacobian, y_t*(delta_tn - y_n): the
  gradient of the target's softmax output with respect to each logit. It weights
  the negative mass by each competitor's probability and also sums to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .model import ForwardTrace, LayerSpec, NetworkModel, infer_shapes
from .tensor import conv2d_forward, conv2d_transpose, pool_winners

DENOMINATOR_FLOOR = 1e-9

METHODS = ("lrp", "clrp", "sglrp")


def seed_rows(trace: ForwardTrace, target: int, methods: tuple[str, ...]) -> np.ndarray:
    """[K, classes]: the seed row of each of `methods`, in order; only those rows are built."""
    trace.check_one_image("seed: trace")
    logits, probs = trace.logits, trace.probabilities
    n = logits.shape[0]
    if not 0 <= target < n:
        raise ShapeError(f"seed: target {target} outside 0..{n - 1}")
    if "clrp" in methods and n < 2:
        raise ShapeError("clrp seed needs at least two classes")
    z, p = logits[target], probs[target]
    rows = np.zeros((len(methods), n))  # lrp's off-target entries stay +0.0
    for row, method in zip(rows, methods):
        if method != "lrp":  # clrp's equal shares, or the softmax Jacobian's target row
            row[:] = -z / (n - 1) if method == "clrp" else -p * probs
        row[target] = p * (1.0 - p) if method == "sglrp" else z
    return rows


def _seed_axis(relevance: np.ndarray, shape: tuple[int, ...], what: str) -> tuple[int, ...]:
    """() or (K,): the leading seed axis of relevance shaped like `shape`."""
    lead = relevance.shape[:1] if relevance.ndim == len(shape) + 1 else ()
    if relevance.shape != lead + tuple(shape):
        raise ShapeError(f"{what}: relevance {relevance.shape} != output {tuple(shape)}")
    return lead


def _stabilized_ratio(relevance: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """relevance / denom, with terms whose |denom| is below the floor dropped."""
    keep = np.abs(denom) >= DENOMINATOR_FLOOR
    if keep.all():
        return relevance / denom
    return np.divide(relevance, denom, out=np.zeros_like(relevance, dtype=np.float64), where=keep)


def _layer_map(layer: LayerSpec, shape: tuple[int, ...]):
    """A dense or conv layer's bias-free linear map over inputs shaped `shape`, and its adjoint
    onto that shape: W @ x and s @ W, or conv2d_forward and conv2d_transpose."""
    if layer.kind == "dense":
        return (
            lambda x, w: w @ x.reshape(-1),
            lambda s, w: (s @ w).reshape(s.shape[:-1] + shape),
        )
    stride, pad = layer.params["stride"], layer.params["pad"]
    return (
        lambda x, w: conv2d_forward(x, w, np.zeros(w.shape[0]), stride, pad),
        lambda s, w: conv2d_transpose(s, w, shape, stride, pad),
    )


def _constant_conv(b: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """conv2d_forward(b, w, 0, stride, pad) of an image b [H,W,C] that is the same at every pixel.
    Outputs whose windows read no padding all read the same values, so the conv runs on b's
    smallest corner that keeps every border output and one such interior output per axis, and
    np.repeat expands that one. By conv2d_forward's byte rule each output is its own window's
    GEMM column, so this is the full conv's bytes."""
    first = -(-pad // stride)  # the first output whose window reads no padding, if any does
    extra = [max((pad + n - k) // stride - first, 0) for n, k in zip(b.shape[:2], w.shape[2:])]
    corner = b[: b.shape[0] - stride * extra[0], : b.shape[1] - stride * extra[1]]
    out = conv2d_forward(corner, w, np.zeros(w.shape[0]), stride, pad)
    for axis, more in enumerate(extra):  # the interior outputs past the first on this axis
        counts = np.ones(out.shape[axis], dtype=int)
        counts[first : first + 1] += more  # a slice: with no interior output, first may be past the end
        out = np.repeat(out, counts, axis)
    return out


def rule_terms(layer: LayerSpec, weights: np.ndarray, shape: tuple[int, ...], bounds=None) -> tuple:
    """(shape, apply, adjoint, W_a, bound terms (b, W_b, apply(b, W_b))): a dense or conv layer's
    operands over inputs of `shape`. zplus (no bounds) is W+ with no bound terms; zbeta, with bounds
    (lower, upper), is W with (lower, W+) and (upper, W-).

    The bounds are per channel: 1-D vectors whose length divides shape's last axis. Each b is its
    vector spread over shape in [H,W,C] order, which a flatten keeps, as a float64 copy. A conv's
    apply(b, W_b) is _constant_conv's."""
    what = "zplus" if bounds is None else "zbeta"
    if not layer.is_parametric:
        raise ShapeError(f"{what}: unsupported layer kind {layer.kind}")
    if layer.kind == "dense" and (weights.ndim != 2 or weights.shape[1] != np.prod(shape)):
        raise ShapeError(f"{what} dense: weights {weights.shape} != input {shape}")
    apply, adjoint = _layer_map(layer, shape)
    wp = np.maximum(weights, 0.0)
    if bounds is None:
        return shape, apply, adjoint, wp, ()
    if any(np.ndim(b) != 1 or not np.size(b) or shape[-1] % np.size(b) for b in bounds):
        shapes = " and ".join(str(np.shape(b)) for b in bounds)
        raise ShapeError(f"zbeta: bounds {shapes} are not per-channel vectors of input {shape}")
    lower, upper = (np.tile(np.asarray(b, np.float64), np.prod(shape) // np.size(b)).reshape(shape)
                    for b in bounds)
    wm = np.minimum(weights, 0.0)
    fixed = apply if layer.kind == "dense" else (
        lambda b, w: _constant_conv(b, w, layer.params["stride"], layer.params["pad"]))
    return shape, apply, adjoint, weights, ((lower, wp, fixed(lower, wp)), (upper, wm, fixed(upper, wm)))


def propagate_linear(relevance: np.ndarray, layer: LayerSpec, a: np.ndarray, terms: tuple) -> np.ndarray:
    """Redistribute a dense or conv layer's relevance R in proportion to each input's contribution,
    over terms = rule_terms(layer, weights, a.shape, bounds): a * adjoint(s, W_a) less each bound
    term's b * adjoint(s, W_b), with s = R / (apply(a, W_a) less each apply(b, W_b)).

    a is the layer's input in its own shape (a dense layer reads it in flattened order). zplus
    needs a >= 0; zbeta needs a inside its bounds, where every contribution
    a*w - lower*max(w,0) - upper*min(w,0) is non-negative, so seed signs survive. Bias receives
    nothing; output nodes whose denominator is below the stability floor absorb their relevance.
    """
    shape, apply, adjoint, w, bound = terms
    what = f"{'zbeta' if bound else 'zplus'} {layer.kind}"
    if a.shape != shape:
        raise ShapeError(f"{what}: input {a.shape} != the terms' input {shape}")
    if not bound and np.any(a < 0):
        raise ShapeError(f"{what}: negative activations")
    if bound and (np.any(a < bound[0][0]) or np.any(a > bound[1][0])):
        raise ShapeError(f"zbeta: input values {a.min():.6g}..{a.max():.6g} (after mean subtraction)"
                         " fall outside the declared pixel range")
    denom = apply(a, w)
    for _, _, fixed in bound:
        denom = denom - fixed
    _seed_axis(relevance, denom.shape, what)
    s = _stabilized_ratio(relevance, denom)
    out = a * adjoint(s, w)
    for b, wb, _ in bound:
        out = out - b * adjoint(s, wb)
    return out


def propagate_maxpool(
    relevance: np.ndarray, layer: LayerSpec, a: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Route each pooled node's relevance to the element of the pool's input a that won its
    window, as pool_winners derives it from a and the traced output out."""
    if layer.kind != "maxpool":
        raise ShapeError(f"maxpool: unsupported layer kind {layer.kind}")
    lead = _seed_axis(relevance, out.shape, "maxpool")
    # One flat bincount over all rows, adding in flat order onto +0.0: row k's winners are
    # offset by k input sizes.
    offsets = np.arange(relevance.size // out.size)[:, None] * a.size
    flat = (offsets + pool_winners(a, out, **layer.params).reshape(-1)).reshape(-1)
    return np.bincount(flat, relevance.reshape(-1), offsets.size * a.size).reshape(lead + a.shape)


@dataclass(frozen=True)
class RelevanceMap:
    """Per-pixel explanation of one prediction.

    raw is the signed [H,W,C] input relevance; values is the non-negative 2-D
    map computed from it: per-channel positive part, summed over channels.
    """

    raw: np.ndarray
    method: str
    target: int

    def __post_init__(self):
        if self.raw.ndim != 3:
            raise ShapeError(f"relevance map needs a 3-D raw tensor, got {self.raw.shape}")

    @cached_property
    def values(self) -> np.ndarray:
        return np.maximum(self.raw, 0.0).sum(axis=2)


def explain_all(
    model: NetworkModel, trace: ForwardTrace, target: int, methods: tuple[str, ...]
) -> dict[str, RelevanceMap]:
    """One backward pass over the stacked seeds of `methods`; returns {method: map}."""
    for method in methods:
        if method not in METHODS:
            raise ShapeError(f"unknown explanation method {method!r}; expected one of {METHODS}")
    if len(set(methods)) != len(methods):
        raise ShapeError(f"explanation methods {methods} list a method more than once")
    trace.check_one_image("explain: trace", model)
    if not methods:
        return {}
    relevance = seed_rows(trace, target, methods)
    const = model.rule_constants  # built whole on the model's first explain, never from a trace
    if not const:
        shapes = [model.input_shape, *infer_shapes(model.input_shape, list(model.layers))]
        first = next(i for i, l in enumerate(model.layers) if l.is_parametric)
        bounds = [b - model.preprocessing.means for b in model.preprocessing.pixel_range]  # per channel
        const.update({
            i: rule_terms(l, p.weights, shapes[i], bounds if i == first else None)
            for i, (l, p) in enumerate(zip(model.layers, model.params)) if l.is_parametric
        })
    for i in reversed(range(len(model.layers))):
        layer, a = model.layers[i], trace.activations[i]
        if layer.kind == "maxpool":
            relevance = propagate_maxpool(relevance, layer, a, trace.activations[i + 1])
        elif layer.is_parametric:
            relevance = propagate_linear(relevance, layer, a, const[i])
        relevance = relevance.reshape((len(methods),) + a.shape)
    return {m: RelevanceMap(raw, m, target) for m, raw in zip(methods, relevance)}


def explain(model: NetworkModel, trace: ForwardTrace, target: int, method: str) -> RelevanceMap:
    """Propagate a method seed for `target` back to the input pixels."""
    return explain_all(model, trace, target, (method,))[method]
