"""Class-discriminative relevance propagation.

Relevance starts at the logit layer as a method-specific seed vector and flows
backward through the chain. Linear layers redistribute it proportionally to
each input's positive forward contribution; the layer touching raw pixels uses
a bounded variant that accounts for the admissible pixel range, so negative
inputs cannot invert signs. Max-pool routes winner-take-all, relu and flatten
are pass-through. The result is a signed per-pixel relevance tensor; the
reported 2-D map keeps only positive evidence, summed over channels.

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


def _stabilized_ratio(relevance: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """relevance / denom, with terms whose |denom| is below the floor dropped."""
    out = np.zeros_like(relevance, dtype=np.float64)
    keep = np.abs(denom) >= DENOMINATOR_FLOOR
    np.divide(relevance, denom, out=out, where=keep)
    return out


def propagate_zplus_dense(
    relevance: np.ndarray, weights: np.ndarray, activations: np.ndarray
) -> np.ndarray:
    """Redistribute dense-layer relevance along positive-weight contributions.

    activations must be the layer's non-negative input vector. Bias receives
    nothing. Output nodes whose positive pre-activation is below the stability
    floor absorb their relevance.
    """
    if activations.ndim != 1 or weights.ndim != 2 or weights.shape[1] != activations.shape[0]:
        raise ShapeError(
            f"zplus dense: weights {weights.shape} incompatible with input {activations.shape}"
        )
    if relevance.shape != (weights.shape[0],):
        raise ShapeError(f"zplus dense: relevance {relevance.shape} != ({weights.shape[0]},)")
    if np.any(activations < 0):
        raise ShapeError("zplus dense: negative activations")
    wp = np.maximum(weights, 0.0)
    denom = wp @ activations
    s = _stabilized_ratio(relevance, denom)
    return activations * (wp.T @ s)


def propagate_zplus_conv(
    relevance: np.ndarray,
    weights: np.ndarray,
    activations: np.ndarray,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Conv analogue of propagate_zplus_dense over the unrolled linear map."""
    if np.any(activations < 0):
        raise ShapeError("zplus conv: negative activations")
    wp = np.maximum(weights, 0.0)
    zeros = np.zeros(weights.shape[0])
    denom = conv2d_forward(activations, wp, zeros, stride, pad)
    if relevance.shape != denom.shape:
        raise ShapeError(f"zplus conv: relevance {relevance.shape} != output {denom.shape}")
    s = _stabilized_ratio(relevance, denom)
    return activations * conv2d_transpose(s, wp, activations.shape, stride, pad)


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
        raise ShapeError(
            f"zbeta: bounds have {bounds.lower.shape[0]} channels, input has {x.shape[2]}"
        )
    low = np.broadcast_to(bounds.lower, x.shape).astype(np.float64)
    high = np.broadcast_to(bounds.upper, x.shape).astype(np.float64)
    if np.any(x < low) or np.any(x > high):
        raise ShapeError(
            f"zbeta: input values {x.min():.6g}..{x.max():.6g} (after mean subtraction)"
            " fall outside the declared pixel range"
        )
    wp = np.maximum(weights, 0.0)
    wm = np.minimum(weights, 0.0)
    if layer.kind == "conv2d":
        stride, pad = layer.params["stride"], layer.params["pad"]
        zeros = np.zeros(weights.shape[0])
        denom = (
            conv2d_forward(x, weights, zeros, stride, pad)
            - conv2d_forward(low, wp, zeros, stride, pad)
            - conv2d_forward(high, wm, zeros, stride, pad)
        )
        if relevance.shape != denom.shape:
            raise ShapeError(f"zbeta conv: relevance {relevance.shape} != output {denom.shape}")
        s = _stabilized_ratio(relevance, denom)
        return (
            x * conv2d_transpose(s, weights, x.shape, stride, pad)
            - low * conv2d_transpose(s, wp, x.shape, stride, pad)
            - high * conv2d_transpose(s, wm, x.shape, stride, pad)
        )
    if layer.kind == "dense":
        xf, lf, hf = x.reshape(-1), low.reshape(-1), high.reshape(-1)
        if weights.shape[1] != xf.shape[0] or relevance.shape != (weights.shape[0],):
            raise ShapeError(
                f"zbeta dense: weights {weights.shape} incompatible with"
                f" input {x.shape} / relevance {relevance.shape}"
            )
        denom = weights @ xf - wp @ lf - wm @ hf
        s = _stabilized_ratio(relevance, denom)
        flat = xf * (weights.T @ s) - lf * (wp.T @ s) - hf * (wm.T @ s)
        return flat.reshape(x.shape)
    raise ShapeError(f"zbeta: unsupported layer kind {layer.kind}")


def propagate_maxpool(relevance: np.ndarray, argmax: PoolArgmax) -> np.ndarray:
    """Route each pooled node's relevance to the element that won its window."""
    if relevance.shape != argmax.output_shape:
        raise ShapeError(
            f"maxpool relevance {relevance.shape} != pooled output {argmax.output_shape}"
        )
    out = np.zeros(argmax.input_shape, dtype=np.float64).reshape(-1)
    np.add.at(out, argmax.indices.reshape(-1), relevance.reshape(-1))
    return out.reshape(argmax.input_shape)


def propagate_relu(relevance: np.ndarray) -> np.ndarray:
    """Relu layers pass relevance through unchanged."""
    return relevance


def propagate_flatten(relevance: np.ndarray, input_shape: tuple[int, ...]) -> np.ndarray:
    """Undo a row-major flatten."""
    return relevance.reshape(input_shape)


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


def explain(model: NetworkModel, trace: ForwardTrace, target: int, method: str) -> RelevanceMap:
    """Propagate a method seed for `target` back to the input pixels."""
    if method not in METHODS:
        raise ShapeError(f"unknown explanation method {method!r}; expected one of {METHODS}")
    if len(trace.entries) != len(model.layers):
        raise ShapeError(
            f"trace has {len(trace.entries)} entries for {len(model.layers)} layers"
        )
    seed_fn = {"lrp": seed_lrp, "clrp": seed_clrp, "sglrp": seed_sglrp}[method]
    seed = seed_fn(trace, target)
    first_parametric = next(i for i, l in enumerate(model.layers) if l.is_parametric)
    bounds = InputBounds.from_model(model)

    relevance = seed.values
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        entry = trace.entries[i]
        if layer.kind == "softmax":
            continue
        if layer.kind == "relu":
            relevance = propagate_relu(relevance)
        elif layer.kind == "flatten":
            relevance = propagate_flatten(relevance, entry.input.shape)
        elif layer.kind == "maxpool":
            relevance = propagate_maxpool(relevance, entry.argmax)
        elif i == first_parametric:
            relevance = propagate_zbeta_input(
                relevance, layer, model.params[i].weights, entry.input, bounds
            )
        elif layer.kind == "dense":
            a = entry.input.reshape(-1) if entry.input.ndim > 1 else entry.input
            relevance = propagate_zplus_dense(relevance, model.params[i].weights, a)
        else:
            relevance = propagate_zplus_conv(
                relevance,
                model.params[i].weights,
                entry.input,
                layer.params["stride"],
                layer.params["pad"],
            )
        relevance = relevance.reshape(entry.input.shape)

    raw = relevance
    values = np.maximum(raw, 0.0).sum(axis=2)
    return RelevanceMap(values=values, raw=raw, method=method, target=target)
