"""Class-discriminative relevance propagation.

Relevance starts at the logit layer as a method-specific seed vector and flows
backward through the chain. Dense and conv layers redistribute it
proportionally to each input's positive forward contribution (zplus); the
first of them, which reads raw pixels, uses a bounded variant that accounts for
the admissible pixel range, so negative inputs cannot invert signs (zbeta).
Each rule has one body, keyed on the layer's LayerSpec and written over its
bias-free linear map and adjoint from _layer_map: W @ x and s @ W for dense
layers, conv2d_forward and conv2d_transpose for conv layers. Max-pool routes
winner-take-all to the winners pool_winners derives from the traced pool's input
and output; relu, flatten and softmax are skipped. All rules are linear, so
relevance may carry a leading seed axis, one row per method from seed_rows. The
result is a signed per-pixel tensor; its 2-D map sums positive evidence over
channels.

The rules' model-fixed parts (W+; the pixel layer's W-, bounds and bound
terms) are built by the rules' own calls on a model's first explain and kept in
its rule_constants, so they change no byte.

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
from .model import ForwardTrace, LayerSpec, NetworkModel
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
    out = np.zeros_like(relevance, dtype=np.float64)
    keep = np.abs(denom) >= DENOMINATOR_FLOOR
    np.divide(relevance, denom, out=out, where=keep)
    return out


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


def propagate_zplus(
    relevance: np.ndarray, layer: LayerSpec, weights: np.ndarray, a: np.ndarray, wp=None
) -> np.ndarray:
    """Redistribute a dense or conv layer's relevance along positive-weight contributions:
    a * adjoint(R / apply(a, W+), W+), W+ = max(W, 0), over the layer's map pair.

    a must be the layer's non-negative input in its own shape; a dense layer reads
    it in flattened order. Bias receives nothing. Output nodes whose positive
    pre-activation is below the stability floor absorb their relevance. wp, if
    given, must be max(weights, 0).
    """
    if not layer.is_parametric:
        raise ShapeError(f"zplus: unsupported layer kind {layer.kind}")
    what = f"zplus {layer.kind}"
    if layer.kind == "dense" and (weights.ndim != 2 or weights.shape[1] != a.size):
        raise ShapeError(f"{what}: weights {weights.shape} != input {a.shape}")
    if np.any(a < 0):
        raise ShapeError(f"{what}: negative activations")
    apply, adjoint = _layer_map(layer, a.shape)
    wp = np.maximum(weights, 0.0) if wp is None else wp
    denom = apply(a, wp)
    _seed_axis(relevance, denom.shape, what)
    return a * adjoint(_stabilized_ratio(relevance, denom), wp)


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


def _zbeta_terms(layer: LayerSpec, weights: np.ndarray, shape: tuple, bounds: InputBounds):
    """zbeta's model-fixed parts over inputs `shape`: maps, W+, W-, low, high and the bound terms."""
    if not layer.is_parametric:
        raise ShapeError(f"zbeta: unsupported layer kind {layer.kind}")
    if layer.kind == "dense" and weights.shape[1] != np.prod(shape):
        raise ShapeError(f"zbeta dense: weights {weights.shape} do not fit input {shape}")
    maps = _layer_map(layer, shape)
    low, high = (np.broadcast_to(b, shape).astype(np.float64) for b in (bounds.lower, bounds.upper))
    wp, wm = np.maximum(weights, 0.0), np.minimum(weights, 0.0)
    return (*maps, wp, wm, low, high, maps[0](low, wp), maps[0](high, wm))


def propagate_zbeta_input(
    relevance: np.ndarray, layer: LayerSpec, weights: np.ndarray, x: np.ndarray, bounds: InputBounds,
    terms: tuple | None = None,
) -> np.ndarray:
    """Range-bounded rule for the layer that consumes raw (mean-subtracted) pixels.

    Each input contributes x*w - lower*max(w,0) - upper*min(w,0); with x inside
    the bounds every contribution is non-negative, so seed signs survive the
    pixel layer intact. Bias receives nothing. Input outside the bounds would
    break that guarantee, so it is rejected. terms, if given, must be
    _zbeta_terms(layer, weights, x.shape, bounds).
    """
    if x.ndim != 3:
        raise ShapeError(f"zbeta: input must be [H,W,C], got {x.shape}")
    if bounds.lower.shape != (x.shape[2],):
        raise ShapeError(f"zbeta: bounds have {bounds.lower.shape[0]} channels, input {x.shape[2]}")
    terms = terms or _zbeta_terms(layer, weights, x.shape, bounds)
    apply, adjoint, wp, wm, low, high, lo, hi = terms
    if np.any(x < low) or np.any(x > high):
        raise ShapeError(
            f"zbeta: input values {x.min():.6g}..{x.max():.6g} (after mean subtraction)"
            " fall outside the declared pixel range"
        )
    denom = apply(x, weights) - lo - hi
    _seed_axis(relevance, denom.shape, f"zbeta {layer.kind}")
    s = _stabilized_ratio(relevance, denom)
    return x * adjoint(s, weights) - low * adjoint(s, wp) - high * adjoint(s, wm)


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
    first = next(i for i, l in enumerate(model.layers) if l.is_parametric)
    # A flatten ahead of a first dense layer keeps the pixel order; take the [H,W,C] view.
    pixels = next(a for a in reversed(trace.activations[: first + 1]) if a.ndim == 3)
    bounds = InputBounds.from_model(model)
    const = model.rule_constants  # built whole on the model's first explain
    if not const:
        const.update({
            i: _zbeta_terms(l, p.weights, pixels.shape, bounds) if i == first
            else np.maximum(p.weights, 0.0)
            for i, (l, p) in enumerate(zip(model.layers, model.params)) if l.is_parametric
        })
    for i in reversed(range(len(model.layers))):
        layer, a, lp = model.layers[i], trace.activations[i], model.params[i]
        if layer.kind == "maxpool":
            relevance = propagate_maxpool(relevance, layer, a, trace.activations[i + 1])
        elif i == first:
            relevance = propagate_zbeta_input(relevance, layer, lp.weights, pixels, bounds, const[i])
        elif layer.is_parametric:
            relevance = propagate_zplus(relevance, layer, lp.weights, a, const[i])
        relevance = relevance.reshape((len(methods),) + a.shape)
    return {m: RelevanceMap(raw, m, target) for m, raw in zip(methods, relevance)}


def explain(model: NetworkModel, trace: ForwardTrace, target: int, method: str) -> RelevanceMap:
    """Propagate a method seed for `target` back to the input pixels."""
    return explain_all(model, trace, target, (method,))[method]
