"""Class-discriminative relevance propagation.

Relevance starts at the logit layer as a method-specific seed vector and flows
backward through the chain. Linear layers redistribute it proportionally to
each input's positive forward contribution; the layer touching raw pixels uses
a bounded variant that accounts for the admissible pixel range, so negative
inputs cannot invert signs. Each of the two rules has one body, written over a
layer's bias-free linear map and its adjoint: W @ x and s @ W for dense layers,
conv2d_forward and conv2d_transpose for conv layers. Max-pool routes
winner-take-all; relu, flatten and softmax are skipped. All rules are linear,
so relevance may carry a leading seed axis, which explain_all fills with one
row per method. The result is a signed per-pixel tensor; its 2-D map sums
positive evidence over channels.

Seeding styles:

- "lrp": the target logit's value on the target entry, zero elsewhere.
- "clrp": the target logit on the target entry, and the same mass spread
  uniformly with negative sign over the other classes, so the seed sums to zero.
- "sglrp": the gradient of the target's softmax output with respect to each
  logit, which weights the negative mass by each competitor's probability;
  this seed also sums to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .model import ForwardTrace, LayerSpec, NetworkModel
from .tensor import conv2d_forward, conv2d_transpose, PoolArgmax

DENOMINATOR_FLOOR = 1e-9

METHODS = ("lrp", "clrp", "sglrp")


@dataclass(frozen=True)
class Seed:
    """Initial relevance over the logit nodes."""

    values: np.ndarray
    target: int
    method: str


def _check_target(trace: ForwardTrace, target: int) -> np.ndarray:
    logits = trace.logits
    if logits.ndim != 1:
        raise ShapeError(f"seed: logits must be 1-D, got {logits.shape}")
    if not 0 <= target < logits.shape[0]:
        raise ShapeError(f"seed: target {target} outside 0..{logits.shape[0] - 1}")
    return logits


def seed_lrp(trace: ForwardTrace, target: int) -> Seed:
    """One-hot seed carrying the target logit's value."""
    logits = _check_target(trace, target)
    values = np.zeros_like(logits)
    values[target] = logits[target]
    return Seed(values=values, target=target, method="lrp")


def seed_clrp(trace: ForwardTrace, target: int) -> Seed:
    """Target logit at the target, minus an equal share at every other class."""
    logits = _check_target(trace, target)
    n = logits.shape[0]
    if n < 2:
        raise ShapeError("clrp seed needs at least two classes")
    values = np.full(n, -logits[target] / (n - 1))
    values[target] = logits[target]
    return Seed(values=values, target=target, method="clrp")


def seed_sglrp(trace: ForwardTrace, target: int) -> Seed:
    """Softmax-gradient seed: y_t*(1 - y_t) at the target, -y_t*y_n elsewhere."""
    _check_target(trace, target)
    probs = trace.probabilities
    values = -probs[target] * probs
    values[target] = probs[target] * (1.0 - probs[target])
    return Seed(values=values, target=target, method="sglrp")


def _seed_axis(relevance: np.ndarray, shape: tuple[int, ...], what: str) -> tuple[int, ...]:
    """() or (K,): the leading seed axis of relevance shaped like `shape`."""
    lead = relevance.shape[:1] if relevance.ndim == len(shape) + 1 else ()
    if relevance.shape != lead + tuple(shape):
        raise ShapeError(f"{what}: relevance {relevance.shape} != output {tuple(shape)}")
    return lead


def _stabilized_ratio(relevance: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """relevance / denom, with terms whose |denom| is below the floor dropped."""
    out = np.zeros_like(relevance, dtype=np.float64)
    keep = np.abs(denom) >= DENOMINATOR_FLOOR
    np.divide(relevance, denom, out=out, where=keep)
    return out


def _dense_map(shape: tuple[int, ...]):
    """Bias-free W @ x over inputs shaped `shape`, and its adjoint s @ W onto that shape."""
    return (
        lambda x, w: w @ x.reshape(-1),
        lambda s, w: (s @ w).reshape(s.shape[:-1] + shape),
    )


def _conv_map(shape: tuple[int, int, int], stride: int, pad: int):
    """Bias-free conv over inputs shaped `shape`, and its adjoint conv2d_transpose."""
    return (
        lambda x, w: conv2d_forward(x, w, np.zeros(w.shape[0]), stride, pad),
        lambda s, w: conv2d_transpose(s, w, shape, stride, pad),
    )


def _zplus(relevance: np.ndarray, weights: np.ndarray, a: np.ndarray, apply, adjoint, what: str):
    """zplus over one layer's map pair: a * adjoint(R / apply(a, W+), W+), W+ = max(W, 0)."""
    if np.any(a < 0):
        raise ShapeError(f"{what}: negative activations")
    wp = np.maximum(weights, 0.0)
    denom = apply(a, wp)
    _seed_axis(relevance, denom.shape, what)
    return a * adjoint(_stabilized_ratio(relevance, denom), wp)


def propagate_zplus_dense(
    relevance: np.ndarray, weights: np.ndarray, activations: np.ndarray
) -> np.ndarray:
    """Redistribute dense-layer relevance along positive-weight contributions.

    activations must be the layer's non-negative input vector. Bias receives
    nothing. Output nodes whose positive pre-activation is below the stability
    floor absorb their relevance.
    """
    if activations.ndim != 1 or weights.ndim != 2 or weights.shape[1] != activations.shape[0]:
        raise ShapeError(f"zplus dense: weights {weights.shape} != input {activations.shape}")
    return _zplus(relevance, weights, activations, *_dense_map(activations.shape), "zplus dense")


def propagate_zplus_conv(
    relevance: np.ndarray,
    weights: np.ndarray,
    activations: np.ndarray,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Conv analogue of propagate_zplus_dense over the unrolled linear map."""
    maps = _conv_map(activations.shape, stride, pad)
    return _zplus(relevance, weights, activations, *maps, "zplus conv")


@dataclass(frozen=True)
class InputBounds:
    """Admissible per-channel input range after mean subtraction."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ShapeError("input bounds must be matching per-channel vectors")
        if np.any(self.lower > self.upper):
            raise ShapeError("input bounds: lower exceeds upper")

    @classmethod
    def from_model(cls, model: NetworkModel) -> "InputBounds":
        lo, hi = model.preprocessing.pixel_range
        means = model.preprocessing.means
        return cls(lower=lo - means, upper=hi - means)


def propagate_zbeta_input(
    relevance: np.ndarray,
    layer: LayerSpec,
    weights: np.ndarray,
    x: np.ndarray,
    bounds: InputBounds,
) -> np.ndarray:
    """Range-bounded rule for the layer that consumes raw (mean-subtracted) pixels.

    Each input contributes x*w - lower*max(w,0) - upper*min(w,0); with x inside
    the bounds every contribution is non-negative, so seed signs survive the
    pixel layer intact. Bias receives nothing. Input outside the bounds would
    break that guarantee, so it is rejected.
    """
    if x.ndim != 3:
        raise ShapeError(f"zbeta: input must be [H,W,C], got {x.shape}")
    if bounds.lower.shape != (x.shape[2],):
        raise ShapeError(f"zbeta: bounds have {bounds.lower.shape[0]} channels, input {x.shape[2]}")
    low = np.broadcast_to(bounds.lower, x.shape).astype(np.float64)
    high = np.broadcast_to(bounds.upper, x.shape).astype(np.float64)
    if np.any(x < low) or np.any(x > high):
        raise ShapeError(
            f"zbeta: input values {x.min():.6g}..{x.max():.6g} (after mean subtraction)"
            " fall outside the declared pixel range"
        )
    if layer.kind == "conv2d":
        apply, adjoint = _conv_map(x.shape, layer.params["stride"], layer.params["pad"])
    elif layer.kind == "dense":
        if weights.shape[1] != x.size:
            raise ShapeError(f"zbeta dense: weights {weights.shape} do not fit input {x.shape}")
        apply, adjoint = _dense_map(x.shape)
    else:
        raise ShapeError(f"zbeta: unsupported layer kind {layer.kind}")
    wp = np.maximum(weights, 0.0)
    wm = np.minimum(weights, 0.0)
    denom = apply(x, weights) - apply(low, wp) - apply(high, wm)
    _seed_axis(relevance, denom.shape, f"zbeta {layer.kind}")
    s = _stabilized_ratio(relevance, denom)
    return x * adjoint(s, weights) - low * adjoint(s, wp) - high * adjoint(s, wm)


def propagate_maxpool(relevance: np.ndarray, argmax: PoolArgmax) -> np.ndarray:
    """Route each pooled node's relevance to the element that won its window."""
    lead = _seed_axis(relevance, argmax.output_shape, "maxpool")
    # One flat add.at over all rows: row k's winners are offset by k input sizes.
    offsets = np.arange(relevance.size // argmax.output.size)[:, None] * argmax.input.size
    out = np.zeros(offsets.size * argmax.input.size)
    np.add.at(out, (offsets + argmax.indices.reshape(-1)).reshape(-1), relevance.reshape(-1))
    return out.reshape(lead + argmax.input_shape)


@dataclass(frozen=True)
class RelevanceMap:
    """Per-pixel explanation of one prediction.

    raw is the signed [H,W,C] input relevance; values is the non-negative 2-D
    map: per-channel positive part, summed over channels.
    """

    values: np.ndarray
    raw: np.ndarray
    method: str
    target: int

    def __post_init__(self):
        if self.values.ndim != 2 or self.raw.ndim != 3:
            raise ShapeError("relevance map must hold a 2-D map and a 3-D raw tensor")
        if self.values.shape != self.raw.shape[:2]:
            raise ShapeError(
                f"map extent {self.values.shape} != raw extent {self.raw.shape[:2]}"
            )
        if np.any(self.values < 0):
            raise ShapeError("relevance map values must be non-negative")


def explain_all(
    model: NetworkModel, trace: ForwardTrace, target: int, methods: tuple[str, ...]
) -> dict[str, RelevanceMap]:
    """One backward pass over the stacked seeds of `methods`; returns {method: map}."""
    for method in methods:
        if method not in METHODS:
            raise ShapeError(f"unknown explanation method {method!r}; expected one of {METHODS}")
    if len(set(methods)) != len(methods):
        raise ShapeError(f"explanation methods {methods} list a method more than once")
    if len(trace.entries) != len(model.layers):
        raise ShapeError(
            f"trace has {len(trace.entries)} entries for {len(model.layers)} layers"
        )
    if not methods:
        return {}
    first_parametric = next(i for i, l in enumerate(model.layers) if l.is_parametric)
    bounds = InputBounds.from_model(model)

    seed_fns = {"lrp": seed_lrp, "clrp": seed_clrp, "sglrp": seed_sglrp}
    relevance = np.stack([seed_fns[m](trace, target).values for m in methods])
    for i in reversed(range(len(model.layers))):
        layer, entry, lp = model.layers[i], trace.entries[i], model.params[i]
        if layer.kind == "maxpool":
            relevance = propagate_maxpool(relevance, entry.argmax)
        elif i == first_parametric:
            # A flatten ahead of a first dense layer keeps the pixel order; take the [H,W,C] view.
            x = next(e.input for e in reversed(trace.entries[: i + 1]) if e.input.ndim == 3)
            relevance = propagate_zbeta_input(relevance, layer, lp.weights, x, bounds)
        elif layer.kind == "dense":
            relevance = propagate_zplus_dense(relevance, lp.weights, entry.input.reshape(-1))
        elif layer.kind == "conv2d":
            stride, pad = layer.params["stride"], layer.params["pad"]
            relevance = propagate_zplus_conv(relevance, lp.weights, entry.input, stride, pad)
        relevance = relevance.reshape((len(methods),) + entry.input.shape)

    values = np.maximum(relevance, 0.0).sum(axis=3)
    return {m: RelevanceMap(v, raw, m, target) for m, v, raw in zip(methods, values, relevance)}


def explain(model: NetworkModel, trace: ForwardTrace, target: int, method: str) -> RelevanceMap:
    """Propagate a method seed for `target` back to the input pixels."""
    return explain_all(model, trace, target, (method,))[method]
