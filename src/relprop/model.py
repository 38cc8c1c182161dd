"""Network description, weight loading, and traced forward passes.

A model is a linear chain of layers described by a small text manifest plus a
raw little-endian float32 weight blob. The manifest format:

    RELPROP-MODEL 1
    input H W C
    layer conv2d in=3 out=8 kh=3 kw=3 stride=1 pad=1 bias=1
    layer relu
    layer maxpool kh=2 kw=2 stride=2
    layer flatten
    layer dense in=128 out=10 bias=1
    layer softmax
    mean 103.939 116.779 123.68
    pixel_range 0 255

Blank lines and `#` comments are ignored. Every conv2d or dense layer after
the first must be fed through a relu, with maxpool or flatten allowed between,
so that the relevance rules see non-negative activations. The blob is the
concatenation, in manifest order, of each parametric layer's weights then bias
(if bias=1), with no header. Weights are promoted to float64 in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor
from .errors import BlobError, ChainError, ManifestError, ShapeError, UnknownLayerError

MAGIC = "RELPROP-MODEL 1"

_LAYER_KEYS = {  # in the order save_model writes them
    "conv2d": ("in", "out", "kh", "kw", "stride", "pad", "bias"),
    "maxpool": ("kh", "kw", "stride"),
    "dense": ("in", "out", "bias"),
    "relu": (),
    "flatten": (),
    "softmax": (),
}


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the chain: a kind plus its integer parameters."""

    kind: str
    params: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _LAYER_KEYS:
            raise UnknownLayerError(f"unknown layer kind {self.kind!r}")
        expected = set(_LAYER_KEYS[self.kind])
        got = set(self.params)
        if got != expected:
            raise ManifestError(
                f"layer {self.kind}: parameters {sorted(got)} != required {sorted(expected)}"
            )
        for key, value in self.params.items():
            low = 0 if key in ("pad", "bias") else 1
            if value < low:
                raise ManifestError(f"layer {self.kind}: {key}={value} out of range")
        if self.params.get("bias", 0) not in (0, 1):
            raise ManifestError(f"layer {self.kind}: bias must be 0 or 1")

    @property
    def has_bias(self) -> bool:
        return bool(self.params.get("bias", 0))

    @property
    def is_parametric(self) -> bool:
        return self.kind in ("conv2d", "dense")

    def weight_shape(self) -> tuple[int, ...]:
        p = self.params
        if self.kind == "conv2d":
            return (p["out"], p["in"], p["kh"], p["kw"])
        if self.kind == "dense":
            return (p["out"], p["in"])
        raise ShapeError(f"layer {self.kind} has no weights")


@dataclass(frozen=True)
class Preprocessing:
    """Per-channel dataset means and the raw pixel value range."""

    means: np.ndarray
    pixel_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.pixel_range
        if not lo <= hi:
            raise ManifestError(f"pixel_range lower bound {lo} exceeds upper {hi}")


@dataclass(frozen=True)
class LayerParams:
    weights: np.ndarray
    bias: np.ndarray | None


def infer_shapes(
    input_shape: tuple[int, int, int], layers: list[LayerSpec]
) -> list[tuple[int, ...]]:
    """Shape after each layer; raises ChainError on any incompatibility."""
    shapes: list[tuple[int, ...]] = []
    current: tuple[int, ...] = input_shape
    for i, layer in enumerate(layers):
        where = f"layer {i} ({layer.kind})"
        p = layer.params
        if i < len(layers) - 1 and layer.kind == "softmax":
            raise ChainError(f"{where}: softmax must be the final layer")
        if layer.kind in ("conv2d", "maxpool") and len(current) != 3:
            raise ChainError(f"{where}: needs [H,W,C] input, has {current}")
        if layer.kind == "conv2d" and current[2] != p["in"]:
            raise ChainError(f"{where}: expects {p['in']} channels, input has {current[2]}")
        try:
            if layer.kind == "conv2d":
                extent = tensor.conv_extent(*current[:2], p["kh"], p["kw"], p["stride"], p["pad"])
                current = (*extent, p["out"])
            elif layer.kind == "maxpool":
                extent = tensor.pool_extent(*current[:2], p["kh"], p["kw"], p["stride"])
                current = (*extent, current[2])
        except ShapeError as exc:
            raise ChainError(f"{where}: {exc}") from exc
        if layer.kind == "dense":
            n = math.prod(current)
            if n != p["in"]:
                raise ChainError(f"{where}: expects {p['in']} inputs, chain provides {n}")
            current = (p["out"],)
        elif layer.kind == "flatten":
            current = (math.prod(current),)
        elif layer.kind == "softmax":
            if len(current) != 1:
                raise ChainError(f"{where}: needs a 1-D input, has {current}")
        shapes.append(current)
    return shapes


@dataclass(frozen=True)
class NetworkModel:
    """A validated layer chain with loaded parameters and preprocessing record."""

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]
    params: tuple[LayerParams | None, ...]
    preprocessing: Preprocessing

    def __post_init__(self):
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ChainError(f"input shape {self.input_shape} must be three positive extents")
        if len(self.layers) < 2 or self.layers[-1].kind != "softmax" or self.layers[-2].kind != "dense":
            raise ChainError("model must end with a dense layer followed by softmax")
        if len(self.params) != len(self.layers):
            raise ChainError("one parameter slot per layer required")
        infer_shapes(self.input_shape, list(self.layers))
        for i, (layer, lp) in enumerate(zip(self.layers, self.params)):
            if not layer.is_parametric:
                if lp is not None:
                    raise ChainError(f"layer {i} ({layer.kind}) cannot carry parameters")
                continue
            if lp is None:
                raise ChainError(f"layer {i} ({layer.kind}) is missing parameters")
            if lp.weights.shape != layer.weight_shape():
                raise ShapeError(
                    f"layer {i} ({layer.kind}): weights {lp.weights.shape}"
                    f" != {layer.weight_shape()}"
                )
            if layer.has_bias != (lp.bias is not None):
                raise ChainError(f"layer {i} ({layer.kind}): bias presence mismatch")
            if not np.all(np.isfinite(lp.weights)) or (
                lp.bias is not None and not np.all(np.isfinite(lp.bias))
            ):
                raise BlobError(f"layer {i} ({layer.kind}): non-finite parameters")
        if self.preprocessing.means.shape != (self.input_shape[2],):
            raise ManifestError(
                f"mean entries {self.preprocessing.means.shape[0]}"
                f" != input channels {self.input_shape[2]}"
            )

    @property
    def num_classes(self) -> int:
        return self.layers[-2].params["out"]


def _float_count(layers: list[LayerSpec]) -> int:
    total = 0
    for layer in layers:
        if layer.is_parametric:
            total += math.prod(layer.weight_shape())
            if layer.has_bias:
                total += layer.params["out"]
    return total


def load_model(manifest_path: str | Path, weights_path: str | Path) -> NetworkModel:
    """Parse a manifest and its weight blob into a validated, explainable NetworkModel."""
    manifest_path = Path(manifest_path)
    lines = manifest_path.read_text().splitlines()
    entries: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            entries.append((lineno, text.split()))
    if not entries or " ".join(entries[0][1]) != MAGIC:
        raise ManifestError(f"{manifest_path}:1: expected magic line {MAGIC!r}")
    if len(entries) < 2 or entries[1][1][0] != "input":
        raise ManifestError(f"{manifest_path}: second entry must be 'input H W C'")
    lineno, tokens = entries[1]
    if len(tokens) != 4:
        raise ManifestError(f"{manifest_path}:{lineno}: input needs exactly H W C")
    try:
        input_shape = (int(tokens[1]), int(tokens[2]), int(tokens[3]))
    except ValueError as exc:
        raise ManifestError(f"{manifest_path}:{lineno}: non-integer input extent") from exc

    layers: list[LayerSpec] = []
    layer_lines: list[int] = []
    means: np.ndarray | None = None
    pixel_range: tuple[float, float] | None = None
    state = "layers"
    for lineno, tokens in entries[2:]:
        head = tokens[0]
        if head == "layer":
            if state != "layers":
                raise ManifestError(f"{manifest_path}:{lineno}: layer after {state} line")
            if len(tokens) < 2:
                raise ManifestError(f"{manifest_path}:{lineno}: layer line missing kind")
            params: dict[str, int] = {}
            for item in tokens[2:]:
                key, sep, value = item.partition("=")
                if not sep:
                    raise ManifestError(f"{manifest_path}:{lineno}: malformed parameter {item!r}")
                try:
                    params[key] = int(value)
                except ValueError as exc:
                    raise ManifestError(
                        f"{manifest_path}:{lineno}: non-integer value in {item!r}"
                    ) from exc
            try:
                layers.append(LayerSpec(tokens[1], params))
            except UnknownLayerError as exc:
                raise UnknownLayerError(f"{manifest_path}:{lineno}: {exc}") from exc
            except ManifestError as exc:
                raise ManifestError(f"{manifest_path}:{lineno}: {exc}") from exc
            layer_lines.append(lineno)
        elif head == "mean":
            if state != "layers":
                raise ManifestError(f"{manifest_path}:{lineno}: duplicate mean line")
            try:
                means = np.array([float(v) for v in tokens[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ManifestError(f"{manifest_path}:{lineno}: non-numeric mean") from exc
            state = "mean"
        elif head == "pixel_range":
            if state != "mean":
                raise ManifestError(f"{manifest_path}:{lineno}: pixel_range must follow mean")
            if len(tokens) != 3:
                raise ManifestError(f"{manifest_path}:{lineno}: pixel_range needs two values")
            try:
                pixel_range = (float(tokens[1]), float(tokens[2]))
            except ValueError as exc:
                raise ManifestError(f"{manifest_path}:{lineno}: non-numeric pixel_range") from exc
            state = "done"
        else:
            raise ManifestError(f"{manifest_path}:{lineno}: unrecognized directive {head!r}")
    if means is None or pixel_range is None:
        raise ManifestError(f"{manifest_path}: missing mean or pixel_range line")

    expected = _float_count(layers)
    blob = Path(weights_path).read_bytes()
    if len(blob) != 4 * expected:
        raise BlobError(
            f"{weights_path}: expected {expected} float32 values ({4 * expected} bytes),"
            f" got {len(blob)} bytes (offset {min(len(blob), 4 * expected)})"
        )
    values = np.frombuffer(blob, dtype="<f4").astype(np.float64)

    params: list[LayerParams | None] = []
    cursor = 0
    for layer in layers:
        if not layer.is_parametric:
            params.append(None)
            continue
        shape = layer.weight_shape()
        n = math.prod(shape)
        weights = values[cursor : cursor + n].reshape(shape)
        cursor += n
        bias = None
        if layer.has_bias:
            bias = values[cursor : cursor + layer.params["out"]].copy()
            cursor += layer.params["out"]
        params.append(LayerParams(weights=weights.copy(), bias=bias))

    try:
        model = NetworkModel(
            input_shape=input_shape,
            layers=tuple(layers),
            params=tuple(params),
            preprocessing=Preprocessing(means=means, pixel_range=pixel_range),
        )
    except ChainError as exc:
        lineinfo = f" (layers at lines {layer_lines})" if layer_lines else ""
        raise ChainError(f"{manifest_path}: {exc}{lineinfo}") from exc
    # Each parametric layer after the first (which reads pixels, under zbeta) runs zplus and
    # needs non-negative input: a relu since the previous one, kept by any maxpool or flatten.
    fed = True
    for lineno, layer in zip(layer_lines, layers):
        if layer.is_parametric and not fed:
            raise ChainError(f"{manifest_path}:{lineno}: {layer.kind} layer not fed through relu")
        fed = layer.kind == "relu" or (fed and not layer.is_parametric)
    return model


def _format_number(v: float) -> str:
    return format(float(v), ".17g")


def save_model(model: NetworkModel, manifest_path: str | Path, weights_path: str | Path) -> None:
    """Write a manifest plus blob that load_model reads back equivalently.

    The blob round-trips byte-identically for any model whose parameters came
    from a float32 blob.
    """
    lines = [MAGIC, "input {} {} {}".format(*model.input_shape)]
    for layer in model.layers:
        rendered = "".join(f" {k}={layer.params[k]}" for k in _LAYER_KEYS[layer.kind])
        lines.append(f"layer {layer.kind}{rendered}")
    lines.append("mean " + " ".join(_format_number(m) for m in model.preprocessing.means))
    lines.append("pixel_range {} {}".format(*(_format_number(v) for v in model.preprocessing.pixel_range)))
    Path(manifest_path).write_text("\n".join(lines) + "\n")

    chunks = []
    for lp in model.params:
        if lp is None:
            continue
        chunks.append(lp.weights.astype("<f4").tobytes())
        if lp.bias is not None:
            chunks.append(lp.bias.astype("<f4").tobytes())
    Path(weights_path).write_bytes(b"".join(chunks))


@dataclass(frozen=True)
class LayerTrace:
    """Input and output of one layer during a forward pass."""

    input: np.ndarray
    output: np.ndarray
    argmax: tensor.PoolArgmax | None = None


def _one_image(probs: np.ndarray, what: str) -> np.ndarray:
    if probs.ndim != 1:
        raise ShapeError(f"{what}: needs the trace of one image, got probabilities {probs.shape}")
    return probs


@dataclass(frozen=True)
class ForwardTrace:
    """Full record of one forward pass, one entry per layer.

    A trace of a stack holds every layer's stacked arrays; only its
    probabilities are meaningful to read.
    """

    entries: tuple[LayerTrace, ...]

    @property
    def logits(self) -> np.ndarray:
        return self.entries[-1].input

    @property
    def probabilities(self) -> np.ndarray:
        return self.entries[-1].output

    @property
    def prediction(self) -> int:
        return int(np.argmax(_one_image(self.probabilities, "prediction")))


def forward(model: NetworkModel, image: np.ndarray, preprocessed: bool = True) -> ForwardTrace:
    """Run the chain on one image, recording every layer's input and output.

    image may also be a stack [N, H, W, C]; every layer then maps the images
    side by side, and row k of the probabilities is image k's.
    With preprocessed=False the per-channel dataset means are subtracted first.
    """
    x = np.asarray(image, dtype=np.float64)
    if x.ndim not in (3, 4) or x.shape[-3:] != model.input_shape or x.size == 0:
        raise ShapeError(
            f"forward: need an image {model.input_shape} or a non-empty stack, got {x.shape}"
        )
    lead = x.ndim - 3
    if not np.all(np.isfinite(x)):
        raise ShapeError("forward: image contains non-finite values")
    if not preprocessed:
        x = x - model.preprocessing.means
    entries: list[LayerTrace] = []
    for i, (layer, lp) in enumerate(zip(model.layers, model.params)):
        p = layer.params
        arg = None
        try:
            if layer.kind == "conv2d":
                bias = lp.bias if lp.bias is not None else np.zeros(p["out"])
                y = tensor.conv2d_forward(x, lp.weights, bias, p["stride"], p["pad"])
            elif layer.kind == "maxpool":
                y, arg = tensor.maxpool_forward(x, p["kh"], p["kw"], p["stride"])
            elif layer.kind == "dense":
                bias = lp.bias if lp.bias is not None else np.zeros(p["out"])
                flat = tensor.flatten(x, lead) if x.ndim > lead + 1 else x
                y = tensor.dense_forward(flat, lp.weights, bias)
            elif layer.kind == "relu":
                y = tensor.relu(x)
            elif layer.kind == "flatten":
                y = tensor.flatten(x, lead)
            else:
                y = tensor.softmax(x)
        except ShapeError as exc:
            raise ShapeError(f"layer {i} ({layer.kind}): {exc}") from exc
        entries.append(LayerTrace(input=x, output=y, argmax=arg))
        x = y
    return ForwardTrace(entries=tuple(entries))


def predict_topk(trace: ForwardTrace, k: int) -> list[tuple[int, float]]:
    """Top-k (class, probability) pairs, descending; ties go to the lower class index."""
    probs = _one_image(trace.probabilities, "predict_topk")
    if not 1 <= k <= probs.shape[0]:
        raise ShapeError(f"predict_topk: k={k} outside 1..{probs.shape[0]}")
    order = np.argsort(-probs, kind="stable")
    return [(int(i), float(probs[i])) for i in order[:k]]
